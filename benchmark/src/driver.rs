//! The outside-in drivers: the production round loops rebuilt in
//! benchmark code from public API only, one thread, with a [`Probe`]
//! hook at every layer boundary.
//!
//! This PR may not put spans inside the program, so the trace is taken
//! around it. [`drive`] is `heardof_async::run_async` /
//! `run_async_mux` without the executor: the same `RunFabric`, the same
//! `FaultyLink`s delivering into a benchmark-owned [`FrameSink`], the
//! same `begin_round_with → ingest → finish_round` sequence, barrier
//! alignment by construction (every process sends before any process
//! reads). Engine outcomes are ingestion-order independent under
//! per-link FIFO delivery, which this keeps, so the driver must — and
//! is checked to — reproduce the production outcome op for op
//! (`trace.driver_match`). [`drive_sim`] does the same for
//! `Simulator::run_until_decided`.

use crate::spans::Layer;
use crate::workloads::{Kind, Op, Outcome, Workload};
use heardof_adversary::Adversary;
use heardof_core::Ate;
use heardof_engine::{
    link_index, Ingest, MuxReport, MuxRoundEngine, ProcessCore, RoundEngine, SubstrateOutcome,
};
use heardof_model::{MessageMatrix, ProcessId, Round, RoundSets};
use heardof_net::{FaultyLink, FrameSink, RunFabric};
use heardof_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

/// What a driver reports at each layer boundary. Every hook defaults to
/// nothing, so [`NoProbe`] compiles the driver down to the bare loop.
pub trait Probe {
    /// A layer call starts.
    #[inline]
    fn enter(&mut self, _layer: Layer) {}
    /// The innermost open layer call returned.
    #[inline]
    fn exit(&mut self) {}
    /// The engine emitted one coded frame (pre-fault wire image).
    #[inline]
    fn emitted(&mut self, _wire: &[u8]) {}
    /// Process `receiver` ingested one delivered (post-fault) wire image.
    #[inline]
    fn ingested(&mut self, _receiver: u32, _wire: &[u8], _verdict: Ingest) {}
    /// Round `r` is about to open on every process.
    #[inline]
    fn round_begin(&mut self, _round: u64) {}
    /// Round `r` closed on every process.
    #[inline]
    fn round_end(&mut self, _round: u64) {}
}

/// The untraced driver: no hooks.
pub struct NoProbe;
impl Probe for NoProbe {}

/// A sender-attributed wire frame, as a `FrameSink` receives it.
type Arrival = (u32, Vec<u8>);

/// The benchmark-owned receiving end: a FIFO mailbox per process.
#[derive(Clone, Default)]
struct Inbox(Arc<Mutex<Vec<Arrival>>>);

impl FrameSink for Inbox {
    fn deliver(&self, sender: u32, frame: Vec<u8>) {
        self.0
            .lock()
            .expect("the driver is single-threaded: the mailbox lock is never poisoned")
            .push((sender, frame));
    }
}

/// The slice of `RoundEngine` / `MuxRoundEngine` the round loop needs.
trait Engine {
    fn begin(&mut self, emit: impl FnMut(u32, u8, &[u8]));
    fn ingest_one(&mut self, sender: u32, bytes: &[u8]) -> Ingest;
    fn finish(&mut self);
    /// What the production task posts on its board after `finish_round`.
    fn decided(&self) -> bool;
}

impl Engine for RoundEngine<Ate<u64>> {
    fn begin(&mut self, emit: impl FnMut(u32, u8, &[u8])) {
        self.begin_round_with(emit);
    }
    fn ingest_one(&mut self, sender: u32, bytes: &[u8]) -> Ingest {
        self.ingest_from(sender, bytes)
    }
    fn finish(&mut self) {
        self.finish_round();
    }
    fn decided(&self) -> bool {
        self.decision().is_some()
    }
}

impl Engine for MuxRoundEngine<Ate<u64>> {
    fn begin(&mut self, emit: impl FnMut(u32, u8, &[u8])) {
        self.begin_round_with(emit);
    }
    fn ingest_one(&mut self, _sender: u32, bytes: &[u8]) -> Ingest {
        self.ingest(bytes)
    }
    fn finish(&mut self) {
        self.finish_round();
    }
    fn decided(&self) -> bool {
        self.all_decided()
    }
}

/// The barrier-aligned round loop of the async runtime, for any engine.
fn round_loop<E: Engine, P: Probe>(
    engines: &mut [E],
    links: &mut [Vec<FaultyLink>],
    inboxes: &[Inbox],
    max_rounds: u64,
    probe: &mut P,
) {
    let mut arrivals: Vec<Arrival> = Vec::new();
    for r in 1..=max_rounds {
        probe.round_begin(r);
        // Send phase: all of round r's frames are in the mailboxes
        // before anyone reads — communication closure by construction.
        for (p, engine) in engines.iter_mut().enumerate() {
            let links = &mut links[p];
            probe.enter(Layer::BeginRound);
            engine.begin(|dest, copy, bytes| {
                probe.emitted(bytes);
                probe.enter(Layer::LinkSend);
                links[link_index(dest, p as u32)].send(r, copy, bytes.to_vec());
                probe.exit();
            });
            probe.exit();
        }
        // Collect phase.
        for (p, engine) in engines.iter_mut().enumerate() {
            probe.enter(Layer::Ingest);
            arrivals.clear();
            arrivals.append(
                &mut inboxes[p]
                    .0
                    .lock()
                    .expect("single-threaded: never poisoned"),
            );
            for (sender, bytes) in &arrivals {
                let verdict = engine.ingest_one(*sender, bytes);
                probe.ingested(p as u32, bytes, verdict);
            }
            probe.exit();
        }
        // Transition + renegotiation, then the everyone-decided check
        // every production task makes after its second barrier.
        for engine in engines.iter_mut() {
            probe.enter(Layer::FinishRound);
            engine.finish();
            probe.exit();
        }
        probe.round_end(r);
        if engines.iter().all(|e| e.decided()) {
            break;
        }
    }
}

fn fabric_for(w: &Workload, op: Op) -> RunFabric {
    let c = w.async_config(op, Telemetry::null());
    RunFabric::new(
        c.faults,
        c.seed,
        c.copies,
        c.max_rounds,
        c.code,
        c.adaptive,
        c.trace,
        c.telemetry,
    )
}

fn links_for(fabric: &RunFabric, n: usize, inboxes: &[Inbox]) -> Vec<Vec<FaultyLink>> {
    (0..n)
        .map(|p| fabric.links_for(p, n, |q| Box::new(inboxes[q].clone())))
        .collect()
}

/// One byte-level op on one thread: build the fabric, links and one
/// engine per process, run the round loop, assemble the outcome, free
/// the wiring (what `run_async` does implicitly when it returns) — each
/// under its own span.
fn drive_bytes<E: Engine, R, P: Probe>(
    w: &Workload,
    op: Op,
    probe: &mut P,
    engine_for: impl Fn(&RunFabric, usize) -> E,
    assemble: impl FnOnce(&RunFabric, Vec<E>) -> R,
) -> R {
    probe.enter(Layer::FabricBuild);
    let fabric = fabric_for(w, op);
    let inboxes: Vec<Inbox> = (0..w.n).map(|_| Inbox::default()).collect();
    let mut links = links_for(&fabric, w.n, &inboxes);
    let mut engines: Vec<E> = (0..w.n).map(|p| engine_for(&fabric, p)).collect();
    probe.exit();

    round_loop(&mut engines, &mut links, &inboxes, w.max_rounds, probe);

    probe.enter(Layer::Assemble);
    let outcome = assemble(&fabric, engines);
    probe.exit();

    probe.enter(Layer::Teardown);
    drop(links);
    drop(inboxes);
    drop(fabric);
    probe.exit();
    outcome
}

/// `run_async` (and, for `threaded-clean`, the same engines and frames
/// without threads or timeouts) on one thread.
pub fn drive_single<P: Probe>(w: &Workload, op: Op, probe: &mut P) -> SubstrateOutcome<u64> {
    let algo = w.algorithm();
    let initial = w.initial_values(op);
    drive_bytes(
        w,
        op,
        probe,
        |fabric, p| fabric.engine_for(algo.clone(), p, w.n, initial[p]),
        |fabric, engines: Vec<RoundEngine<Ate<u64>>>| {
            let decisions = engines.iter().map(|e| e.decision().copied()).collect();
            let reports = engines.into_iter().map(RoundEngine::into_report).collect();
            fabric.assemble(reports, decisions)
        },
    )
}

/// `run_async_mux` on one thread.
pub fn drive_mux<P: Probe>(w: &Workload, op: Op, probe: &mut P) -> Vec<MuxReport<u64>> {
    let algo = w.algorithm();
    let initials = w.mux_initials(op);
    drive_bytes(
        w,
        op,
        probe,
        |fabric, p| fabric.mux_engine_for(algo.clone(), p, w.n, initials[p].clone()),
        |_, engines: Vec<MuxRoundEngine<Ate<u64>>>| {
            engines
                .into_iter()
                .map(MuxRoundEngine::into_report)
                .collect()
        },
    )
}

/// What [`drive_sim`] observed: per process the first decision as
/// `(round, value)`, and the rounds it ran.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimDriven {
    /// First decision per process.
    pub decisions: Vec<Option<(u64, u64)>>,
    /// Rounds executed before everyone had decided (or the cap).
    pub rounds_executed: u64,
}

/// `Simulator::run_until_decided` on public API: the same
/// `ProcessCore`s, the workload's adversary stack called directly, the
/// same seeded RNG.
pub fn drive_sim<P: Probe>(w: &Workload, op: Op, probe: &mut P) -> SimDriven {
    let n = w.n;
    let algo = w.algorithm();
    let mut rng = StdRng::seed_from_u64(op.seed);
    let mut adversary = w.sim_adversary();
    let mut cores: Vec<ProcessCore<Ate<u64>>> = w
        .initial_values(op)
        .into_iter()
        .enumerate()
        .map(|(p, v)| ProcessCore::new(algo.clone(), ProcessId::new(p as u32), n, v))
        .collect();
    let mut rounds_executed = 0;
    for r in 1..=w.max_rounds {
        let round = Round::new(r);
        probe.round_begin(r);
        probe.enter(Layer::CoreSend);
        let intended = MessageMatrix::from_fn(n, |sender, dest| {
            Some(cores[sender.index()].send_to(round, dest))
        });
        probe.exit();
        probe.enter(Layer::AdversaryDeliver);
        let delivered = adversary.deliver(round, &intended, &mut rng);
        probe.exit();
        probe.enter(Layer::ModelSets);
        std::hint::black_box(RoundSets::from_matrices(&intended, &delivered));
        probe.exit();
        probe.enter(Layer::CoreTransition);
        for (p, core) in cores.iter_mut().enumerate() {
            core.transition(round, &delivered.column(ProcessId::new(p as u32)));
        }
        probe.exit();
        probe.round_end(r);
        rounds_executed = r;
        if cores.iter().all(|c| c.decision_now().is_some()) {
            break;
        }
    }
    SimDriven {
        decisions: cores.iter().map(|c| c.first_decision().copied()).collect(),
        rounds_executed,
    }
}

/// What a driver returned, by workload shape.
pub enum Driven {
    /// [`drive_single`] / [`drive_mux`], in production's own types.
    Bytes(Outcome),
    /// [`drive_sim`].
    Sim(SimDriven),
}

/// Drives `op` of `w` through the matching driver.
pub fn drive<P: Probe>(w: &Workload, op: Op, probe: &mut P) -> Driven {
    match w.kind {
        Kind::LossyMuxFountain => Driven::Bytes(Outcome::Mux(drive_mux(w, op, probe))),
        Kind::SimAdversary => Driven::Sim(drive_sim(w, op, probe)),
        _ => Driven::Bytes(Outcome::Single(drive_single(w, op, probe))),
    }
}

/// `true` when the driver reproduced the production run of the same op:
/// decisions, decision rounds, rounds completed, code schedule and
/// undetected-fault count on the async workloads (the whole per-process
/// report, kept-frame sets included, on the mux one); decisions, their
/// rounds and the rounds executed on the simulator. `threaded-clean`
/// closes rounds by wall clock, so only its decided *values* are
/// comparable.
pub fn matches(w: &Workload, production: &Outcome, driven: &Driven) -> bool {
    match (production, driven) {
        (Outcome::Single(a), Driven::Bytes(Outcome::Single(b))) => {
            a.decisions == b.decisions
                && (w.kind == Kind::ThreadedClean
                    || (a.decision_rounds == b.decision_rounds
                        && a.rounds_completed == b.rounds_completed
                        && a.code_schedule == b.code_schedule
                        && a.undetected_corruptions == b.undetected_corruptions))
        }
        (Outcome::Mux(a), Driven::Bytes(Outcome::Mux(b))) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_mux_report(x, y))
        }
        (Outcome::Sim(a), Driven::Sim(b)) => {
            a.rounds_executed as u64 == b.rounds_executed
                && a.verdict.decisions.len() == b.decisions.len()
                && a.verdict
                    .decisions
                    .iter()
                    .zip(&b.decisions)
                    .all(|(x, y)| x.as_ref().map(|(r, v)| (r.get(), *v)) == *y)
        }
        _ => false,
    }
}

/// Report equality up to the order frames were ingested within a round:
/// the kept log lists senders in arrival order, which is the executor's
/// task wake order in production and ascending process order here —
/// the one thing the engine's observable state is documented *not* to
/// depend on.
fn same_mux_report(a: &MuxReport<u64>, b: &MuxReport<u64>) -> bool {
    let sorted = |kept: &[Vec<(u32, u8)>]| -> Vec<Vec<(u32, u8)>> {
        kept.iter()
            .map(|round| {
                let mut round = round.clone();
                round.sort_unstable();
                round
            })
            .collect()
    };
    a.rounds_completed == b.rounds_completed
        && a.decisions == b.decisions
        && a.decision_rounds == b.decision_rounds
        && a.codes == b.codes
        && sorted(&a.kept) == sorted(&b.kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanRecorder;
    use crate::workloads::{op, WORKLOADS};

    impl Probe for SpanRecorder {
        fn enter(&mut self, layer: Layer) {
            SpanRecorder::enter(self, layer);
        }
        fn exit(&mut self) {
            SpanRecorder::exit(self);
        }
    }

    #[test]
    fn drivers_reproduce_production_on_every_workload() {
        for w in &WORKLOADS {
            for i in 0..12 {
                let o = op(3, i);
                let production = w.run(o, Telemetry::null());
                let driven = drive(w, o, &mut NoProbe);
                assert!(matches(w, &production, &driven), "{} op {i}", w.name);
                let mut spans = SpanRecorder::new(0);
                let traced = drive(w, o, &mut spans);
                spans.finish_op();
                assert!(matches(w, &production, &traced), "{} traced {i}", w.name);
                assert!(spans.root_ns() > 0);
            }
        }
    }

    #[test]
    fn a_doctored_outcome_does_not_match() {
        let w = crate::workloads::by_name("clean-single").unwrap();
        let o = op(1, 0);
        let production = w.run(o, Telemetry::null());
        let mut driven = drive_single(w, o, &mut NoProbe);
        driven.decision_rounds[0] = driven.decision_rounds[0].map(|r| r + 1);
        assert!(!matches(
            w,
            &production,
            &Driven::Bytes(Outcome::Single(driven))
        ));
    }
}
