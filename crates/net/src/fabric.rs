//! The substrate-independent wiring of a byte-level run.
//!
//! Every deployment substrate builds the same things per process: the
//! `n − 1` byte-corrupting links (tagged and trace-driven as
//! configured), a [`Framing`] (fixed code or adaptive controller over
//! the shared book), and a [`RoundEngine`] — then joins the engines'
//! reports with the fault log into a [`SubstrateOutcome`]. A
//! [`RunFabric`] does all of that once. Both production substrates
//! drive its sinkless links, appending into arenas: the lockstep
//! stepper into one per receiver, the threaded runtime into one per
//! peer that crosses the channel as the round's batch. Both stamp their
//! processes out of this fabric, so the conformance matrix always
//! compares identical wiring — and the next substrate cannot
//! accidentally wire itself differently. [`RunFabric::links_for`] wraps
//! the same links in [`FaultyLink`]s over a caller's [`FrameSink`]s,
//! for callers outside this crate.
//!
//! What is per run is built per run: the fabric validates the fault
//! model and assembles one [`LinkWiring`] block in [`RunFabric::new`],
//! before any thread or task exists, and each of the `n·(n−1)` links
//! it stamps out costs one reference to that block and an RNG seed.

use crate::link::{FaultLog, FaultyLink, FrameSink, LinkFaults, LinkModel, LinkWiring};
use heardof_coding::{AdaptiveConfig, AdaptiveController, CodeBook, CodeSpec, NoiseTrace};
use heardof_engine::{
    EngineReport, Framing, MuxRoundEngine, RoundEngine, SubstrateOutcome, WireMessage,
};
use heardof_model::{HoAlgorithm, ProcessId};
use heardof_telemetry::Telemetry;
use std::sync::Arc;

/// The per-run, substrate-independent pieces — fault model, channel
/// code, optional adaptive book and noise trace, shared fault log —
/// built once and stamped out per process. See the module docs.
pub struct RunFabric {
    seed: u64,
    pub(crate) copies: u8,
    max_rounds: u64,
    code_spec: CodeSpec,
    adaptive: Option<AdaptiveConfig>,
    /// The channel code, book, fault log and telemetry plane live here,
    /// shared with every link.
    wiring: Arc<LinkWiring>,
}

impl RunFabric {
    /// Builds the fabric for one run: the channel code is built once,
    /// the code book once (when adaptive), the fault log shared by all
    /// links, and one telemetry plane shared by every link and engine
    /// (pass [`Telemetry::null`] to record nothing at zero cost).
    ///
    /// # Panics
    ///
    /// Panics if `copies == 0` or any field of `faults` lies outside
    /// `[0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        faults: LinkFaults,
        seed: u64,
        copies: u8,
        max_rounds: u64,
        code: CodeSpec,
        adaptive: Option<AdaptiveConfig>,
        trace: Option<NoiseTrace>,
        telemetry: Telemetry,
    ) -> Self {
        assert!(copies >= 1, "at least one copy per frame");
        let book = adaptive
            .as_ref()
            .map(|cfg| Arc::new(CodeBook::from_specs(&cfg.ladder)));
        RunFabric {
            seed,
            copies,
            max_rounds,
            code_spec: code,
            adaptive,
            wiring: Arc::new(LinkWiring::new(
                faults,
                code.build(),
                book,
                trace,
                FaultLog::new(),
                telemetry,
            )),
        }
    }

    /// The shared undetected-corruption log (ground truth for `SHO`).
    pub fn fault_log(&self) -> &FaultLog {
        &self.wiring.log
    }

    /// The telemetry plane every link and engine of this fabric emits
    /// into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.wiring.telemetry
    }

    /// The outgoing links of process `p` in an `n`-process system, in
    /// the ascending-order-minus-self layout `link_index` expects;
    /// `sink_for(q)` supplies the receiving end at `q`.
    pub fn links_for(
        &self,
        p: usize,
        n: usize,
        mut sink_for: impl FnMut(usize) -> Box<dyn FrameSink>,
    ) -> Vec<FaultyLink> {
        self.link_models(p, n)
            .into_iter()
            .map(|model| FaultyLink {
                tx: sink_for(model.receiver_id as usize),
                model,
            })
            .collect()
    }

    /// The fault models of [`RunFabric::links_for`]'s links, without
    /// their sinks — what both production substrates deliver through.
    pub(crate) fn link_models(&self, p: usize, n: usize) -> Vec<LinkModel> {
        let mut links = Vec::with_capacity(n.saturating_sub(1));
        let model = |q| LinkModel::new(p as u32, q as u32, self.seed, Arc::clone(&self.wiring));
        links.extend((0..n).filter(|&q| q != p).map(model));
        links
    }

    /// One process's framing: adaptive over the shared book when
    /// configured, the shared fixed code otherwise.
    fn framing(&self) -> Framing {
        match (&self.adaptive, &self.wiring.book) {
            (Some(cfg), Some(book)) => {
                Framing::adaptive(Arc::clone(book), AdaptiveController::new(cfg.clone()))
            }
            _ => Framing::fixed_with(self.code_spec, Arc::clone(&self.wiring.code)),
        }
    }

    /// The round engine of process `p`, framed per [`RunFabric::new`]'s
    /// configuration.
    pub fn engine_for<A>(&self, algo: A, p: usize, n: usize, initial: A::Value) -> RoundEngine<A>
    where
        A: HoAlgorithm,
        A::Msg: WireMessage,
    {
        RoundEngine::new(
            algo,
            ProcessId::new(p as u32),
            n,
            initial,
            self.framing(),
            self.copies,
            self.max_rounds,
        )
        .with_telemetry(self.wiring.telemetry.clone())
    }

    /// The instance-multiplexed round engine of process `p`, running
    /// one instance per entry of `initials` behind one shared framing —
    /// same wiring as [`RunFabric::engine_for`], different wire layout
    /// (packed slot images, see `heardof_engine::MuxRoundEngine`).
    pub fn mux_engine_for<A>(
        &self,
        algo: A,
        p: usize,
        n: usize,
        initials: Vec<A::Value>,
    ) -> MuxRoundEngine<A>
    where
        A: HoAlgorithm,
        A::Msg: WireMessage,
    {
        MuxRoundEngine::new(
            algo,
            ProcessId::new(p as u32),
            n,
            initials,
            self.framing(),
            self.copies,
            self.max_rounds,
        )
        .with_telemetry(self.wiring.telemetry.clone())
    }

    /// Joins the engines' reports with the fabric's fault log into the
    /// substrate-standard outcome. The log is locked once for the whole
    /// join, and an empty one — every clean run — answers each kept
    /// frame without hashing its key.
    pub fn assemble<V>(
        &self,
        reports: Vec<EngineReport>,
        decisions: Vec<Option<V>>,
    ) -> SubstrateOutcome<V> {
        let corrupted = self.wiring.log.keys();
        SubstrateOutcome::assemble(reports, decisions, corrupted.len(), |r, s, p, c| {
            !corrupted.is_empty() && corrupted.contains(&(r, s, p, c))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_core::{Ate, AteParams};
    use heardof_predicates::{CommPredicate, PBenign};

    fn fabric(faults: LinkFaults) -> RunFabric {
        let telemetry = Telemetry::null();
        RunFabric::new(faults, 11, 2, 12, CodeSpec::DEFAULT, None, None, telemetry)
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn a_bad_probability_fails_before_any_link_exists() {
        let _ = fabric(LinkFaults {
            corrupt_prob: -0.1,
            ..LinkFaults::NONE
        });
    }

    /// Every corruption is adversarial here, so the log fills up; the
    /// join that locks it once must reconstruct exactly what per-key
    /// lookups do.
    #[test]
    fn the_one_lock_join_equals_per_key_lookups_under_a_populated_log() {
        let n = 6;
        let fabric = fabric(LinkFaults {
            drop_prob: 0.1,
            corrupt_prob: 0.4,
            undetected_prob: 1.0,
        });
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 1).unwrap());
        let engines = (0..n)
            .map(|p| fabric.engine_for(algo.clone(), p, n, p as u64 % 2))
            .collect();
        let mut stepper = fabric.lockstep(engines);
        for r in 1..=12 {
            stepper.round(r);
        }
        let engines = stepper.into_engines();
        let decisions: Vec<_> = engines.iter().map(|e| e.decision().copied()).collect();
        let reports: Vec<_> = engines.into_iter().map(RoundEngine::into_report).collect();

        let log = fabric.fault_log();
        assert!(log.len() > 10, "the log must be populated: {}", log.len());
        let joined = fabric.assemble(reports.clone(), decisions.clone());
        let looked_up = SubstrateOutcome::assemble(reports, decisions, log.len(), |r, s, p, c| {
            log.was_corrupted(&(r, s, p, c))
        });
        assert_eq!(joined.history, looked_up.history, "every HO and SHO set");
        assert_eq!(joined.undetected_corruptions, log.len());
        assert!(
            !PBenign.holds(&joined.history),
            "the logged faults show up as SHO ⊊ HO"
        );
    }
}
