//! The substrate-independent wiring of a byte-level run.
//!
//! Every deployment substrate builds the same things per process: the
//! `n − 1` byte-corrupting [`FaultyLink`]s (tagged and trace-driven as
//! configured), a [`Framing`] (fixed code or adaptive controller over
//! the shared book), and a [`RoundEngine`] — then joins the engines'
//! reports with the fault log into a [`SubstrateOutcome`]. A
//! [`RunFabric`] does all of that once, parameterized only by how the
//! substrate delivers bytes (its [`FrameSink`]s). Both the threaded and
//! the async runtimes stamp their processes out of this fabric, so the
//! conformance matrix always compares identical wiring — and the next
//! substrate cannot accidentally wire itself differently.

use crate::link::{FaultLog, FaultyLink, FrameSink, LinkFaults};
use heardof_coding::{
    AdaptiveConfig, AdaptiveController, ChannelCode, CodeBook, CodeSpec, NoiseTrace,
};
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
    faults: LinkFaults,
    seed: u64,
    copies: u8,
    max_rounds: u64,
    code_spec: CodeSpec,
    code: Arc<dyn ChannelCode>,
    adaptive: Option<AdaptiveConfig>,
    book: Option<Arc<CodeBook>>,
    trace: Option<NoiseTrace>,
    fault_log: FaultLog,
    telemetry: Telemetry,
}

impl RunFabric {
    /// Builds the fabric for one run: the channel code is built once,
    /// the code book once (when adaptive), the fault log shared by all
    /// links, and one telemetry plane shared by every link and engine
    /// (pass [`Telemetry::null`] to record nothing at zero cost).
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
            faults,
            seed,
            copies,
            max_rounds,
            code_spec: code,
            code: code.build(),
            adaptive,
            book,
            trace,
            fault_log: FaultLog::new(),
            telemetry,
        }
    }

    /// The shared undetected-corruption log (ground truth for `SHO`).
    pub fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }

    /// The telemetry plane every link and engine of this fabric emits
    /// into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The outgoing links of process `p` in an `n`-process system, in
    /// the ascending-order-minus-self layout `link_index` expects;
    /// `sink_for(q)` supplies the substrate's receiving end at `q`.
    pub fn links_for(
        &self,
        p: usize,
        n: usize,
        mut sink_for: impl FnMut(usize) -> Box<dyn FrameSink>,
    ) -> Vec<FaultyLink> {
        (0..n)
            .filter(|&q| q != p)
            .map(|q| {
                let mut link = FaultyLink::with_sink(
                    p as u32,
                    q as u32,
                    sink_for(q),
                    self.faults,
                    self.seed,
                    self.fault_log.clone(),
                    Arc::clone(&self.code),
                );
                if let Some(book) = &self.book {
                    link = link.tagged(Arc::clone(book));
                }
                if let Some(trace) = &self.trace {
                    link = link.with_trace(trace.clone());
                }
                link.with_telemetry(self.telemetry.clone())
            })
            .collect()
    }

    /// One process's framing: adaptive over the shared book when
    /// configured, the shared fixed code otherwise.
    fn framing(&self) -> Framing {
        match (&self.adaptive, &self.book) {
            (Some(cfg), Some(book)) => {
                Framing::adaptive(Arc::clone(book), AdaptiveController::new(cfg.clone()))
            }
            _ => Framing::fixed_with(self.code_spec, Arc::clone(&self.code)),
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
        .with_telemetry(self.telemetry.clone())
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
        .with_telemetry(self.telemetry.clone())
    }

    /// Joins the engines' reports with the fabric's fault log into the
    /// substrate-standard outcome.
    pub fn assemble<V>(
        &self,
        reports: Vec<EngineReport>,
        decisions: Vec<Option<V>>,
    ) -> SubstrateOutcome<V> {
        SubstrateOutcome::assemble(reports, decisions, self.fault_log.len(), |r, s, p, c| {
            self.fault_log.was_corrupted(&(r, s, p, c))
        })
    }
}
