//! One run, two drivers.
//!
//! A Heard-Of round is communication-closed, so `HO(p, r)` and
//! `SHO(p, r)` depend on the link faults alone, not on how the round is
//! executed. Every run of this crate is therefore one skeleton per wire
//! layout — check the inputs, build the run's [`RunFabric`] and its
//! engines, hand the engines to a driver, then join what they report —
//! over one of two drivers:
//!
//! * the **stepper** ([`run_async`], [`run_async_mux`]): the engines in
//!   lockstep on the calling thread, one [`Lockstep::round`] after
//!   another (every engine sends, then every engine drains its arena,
//!   then every engine finishes). No clock and no scheduler: runs are
//!   fully deterministic;
//! * the **threads** ([`run_threaded`], [`run_threaded_mux`]): one OS
//!   thread per process, each round crossing to a peer as one batch of
//!   the frames its links delivered, which also closes it. The threads
//!   are standing workers of a process-wide pool, so a run spawns none
//!   once an earlier run has spawned as many as it needs.
//!
//! Both read one [`NetConfig`], build the same links and engines from
//! it, and end a run the same way: after the first round at whose end
//! every engine has decided everything it runs, unless in lockstep
//! mode. On live peers the two replay each other round for round.
//!
//! [`Lockstep::round`]: crate::Lockstep::round

use crate::fabric::RunFabric;
use crate::link::LinkFaults;
use crate::runtime;
use heardof_coding::{AdaptiveConfig, CodeSpec, NoiseTrace};
use heardof_engine::{
    MuxReport, MuxRoundEngine, RoundEngine, RoundMachine, SubstrateOutcome, WireLayout, WireMessage,
};
use heardof_model::HoAlgorithm;
use heardof_telemetry::Telemetry;
use std::time::Duration;

/// Configuration of a run, on either driver.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Fault probabilities applied to every inter-process link
    /// (self-delivery is local and never faulty).
    pub faults: LinkFaults,
    /// Seed for all link randomness: both drivers draw the same
    /// per-link streams from it, and runs are reproducible unless a
    /// threaded peer crashes and a round closes on `round_timeout`.
    pub seed: u64,
    /// How long a threaded process waits for a peer's round batch
    /// before closing the round without it. Only the threaded driver
    /// reads it, and only a crashed peer ever costs it; a
    /// lost frame does not (see [`run_threaded`]). The stepper never
    /// waits, so [`run_async`] ignores it.
    pub round_timeout: Duration,
    /// Copies of each frame to send (retransmission raises delivery
    /// probability under drops — the predicate-implementation knob of
    /// \[10\]).
    ///
    /// Under a rateless code ([`CodeSpec::Fountain`], fixed or as the
    /// ladder's current rung) this field is a **compatibility shim**
    /// over the incremental-symbol pathway: each copy beyond the first
    /// becomes `k` extra repair symbols on the *single* frame actually
    /// sent (see `heardof_coding::SymbolBudget`), paying the same
    /// redundancy in the cheaper currency. The trade to know about:
    /// symbol redundancy defends against corruption and partial loss,
    /// while literal duplicates also defended against whole-frame
    /// drops — deployments on drop-dominated links should stay on a
    /// fixed-rate code.
    pub copies: u8,
    /// Hard cap on rounds.
    pub max_rounds: u64,
    /// Channel code framing every wire frame. The default — a CRC-32
    /// checksum — reproduces the historical wire format; correcting
    /// codes (e.g. [`CodeSpec::Hamming74`]) turn link corruption back
    /// into clean deliveries at the cost of redundancy. Ignored when
    /// [`NetConfig::adaptive`] is set.
    pub code: CodeSpec,
    /// Per-round code renegotiation: each process runs its own
    /// deterministic [`AdaptiveController`](heardof_coding::AdaptiveController)
    /// over the ladder, re-deciding
    /// its *send* code from the tallies it observes as a receiver.
    /// Frames carry a 1-byte code id (see
    /// [`CodeBook`](heardof_coding::CodeBook)), so mixed epochs decode
    /// exactly during a switch.
    pub adaptive: Option<AdaptiveConfig>,
    /// Replaces the probabilistic link faults with a seeded
    /// [`NoiseTrace`]: corruption becomes a pure function of each
    /// frame's coordinates, reproducible by the lockstep simulator.
    pub trace: Option<NoiseTrace>,
    /// No early exit: every process runs exactly `max_rounds` rounds
    /// even once everyone has decided. This changes nothing else, on
    /// either driver.
    pub lockstep: bool,
    /// The telemetry plane every link and engine emits into. The
    /// default ([`Telemetry::null`]) records nothing at the cost of one
    /// branch per event; attach [`Telemetry::ring`] to capture a flight
    /// recording, or [`Telemetry::counters`] for counters-only runs.
    pub telemetry: Telemetry,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            faults: LinkFaults::NONE,
            seed: 0,
            round_timeout: Duration::from_millis(50),
            copies: 1,
            max_rounds: 100,
            code: CodeSpec::DEFAULT,
            adaptive: None,
            trace: None,
            lockstep: false,
            telemetry: Telemetry::null(),
        }
    }
}

/// The observable result of a run on either driver — the
/// engine-standard [`SubstrateOutcome`]. Use the
/// [`OutcomeView`](heardof_engine::OutcomeView) trait for
/// `all_decided` / `agreement_ok` / `last_decision_round`.
pub type NetOutcome<V> = SubstrateOutcome<V>;

/// Runs `algo` on `n` OS threads over faulty links. After its sends, a
/// process posts each peer one batch of the frames its link delivered
/// there, tagged with the round: the batch carries the frames and ends
/// the sender's round at the peer, so a round closes once every peer's
/// batch is in, and only a crashed peer (one whose process panicked)
/// costs [`NetConfig::round_timeout`].
///
/// The threads are standing workers shared by every threaded run of
/// the process: a run takes `n` idle ones, spawns only those missing,
/// and hands them back when it returns, so repeated runs pay no thread
/// spawn. Concurrent runs each take their own.
///
/// Unless in lockstep mode, the run ends once the last process to
/// decide announces it, and a peer that had already opened the next
/// round completes it with what it has: a run may complete one round
/// past its last decision round, and that round's frames count in the
/// fault log and on the wire.
///
/// # Panics
///
/// Panics if `initial.len() != n`, `n == 0`, or `config.copies == 0`,
/// or if the OS refuses a missing worker thread (before any process
/// starts). A process that panics (a bug in `algo`, never wire bytes)
/// is re-raised with its payload once every other process of the run
/// has returned; its worker stays in the pool.
///
/// # Examples
///
/// ```
/// use heardof_core::{Ate, AteParams};
/// use heardof_net::{run_threaded, NetConfig, OutcomeView};
///
/// let n = 5;
/// let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0)?);
/// let outcome = run_threaded(algo, n, (0..n as u64).map(|i| i % 2).collect(),
///                            NetConfig::default());
/// assert!(outcome.all_decided());
/// assert!(outcome.agreement_ok());
/// # Ok::<(), heardof_core::ParamError>(())
/// ```
pub fn run_threaded<A>(
    algo: A,
    n: usize,
    initial: Vec<A::Value>,
    config: NetConfig,
) -> NetOutcome<A::Value>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    run_single(algo, n, initial, &config, threads)
}

/// Runs `initials[p].len()` multiplexed consensus instances per
/// process on `n` OS threads: each process drives one
/// [`MuxRoundEngine`] whose per-round sends pack every instance's frame
/// into a single coded wire image per peer (see
/// `heardof_engine::MuxRoundEngine`). Links, round closing, lockstep semantics
/// and end-of-run wake-up are those of [`run_threaded`] — it is the
/// same process loop; only the frame format differs, and a process
/// announces itself once *every* instance it runs has decided. Returns
/// one [`MuxReport`] per process.
///
/// # Panics
///
/// Panics if `initials.len() != n`, any process's instance list is
/// empty, or the instance counts differ across processes.
pub fn run_threaded_mux<A>(
    algo: A,
    n: usize,
    initials: Vec<Vec<A::Value>>,
    config: NetConfig,
) -> Vec<MuxReport<A::Value>>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    run_mux(algo, n, initials, &config, threads)
}

/// Runs `algo` as `n` lockstep processes over faulty in-memory links,
/// on the calling thread.
///
/// # Panics
///
/// Panics if `initial.len() != n`, `n == 0`, or `config.copies == 0`.
///
/// # Examples
///
/// ```
/// use heardof_core::{Ate, AteParams};
/// use heardof_net::{run_async, NetConfig, OutcomeView};
///
/// let n = 5;
/// let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0)?);
/// let outcome = run_async(algo, n, (0..n as u64).map(|i| i % 2).collect(),
///                         NetConfig::default());
/// assert!(outcome.all_decided());
/// assert!(outcome.agreement_ok());
/// # Ok::<(), heardof_core::ParamError>(())
/// ```
pub fn run_async<A>(
    algo: A,
    n: usize,
    initial: Vec<A::Value>,
    config: NetConfig,
) -> NetOutcome<A::Value>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    run_single(algo, n, initial, &config, step)
}

/// Runs `initials[p].len()` multiplexed consensus instances per process
/// as `n` lockstep processes: each drives one [`MuxRoundEngine`] whose
/// per-round sends pack every instance's frame into a single coded wire
/// image per peer. Rounds, links and lockstep semantics are those of
/// [`run_async`] — it is the same loop; only the wire layout differs,
/// and a process counts as decided once *every* instance it runs has.
/// Returns one [`MuxReport`] per process.
///
/// # Panics
///
/// Panics if `initials.len() != n`, any process's instance list is
/// empty, or the instance counts differ across processes.
pub fn run_async_mux<A>(
    algo: A,
    n: usize,
    initials: Vec<Vec<A::Value>>,
    config: NetConfig,
) -> Vec<MuxReport<A::Value>>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    run_mux(algo, n, initials, &config, step)
}

/// The single-instance skeleton: one [`RoundEngine`] per process,
/// driven by `drive`, joined with the fault log into the outcome.
fn run_single<A>(
    algo: A,
    n: usize,
    initial: Vec<A::Value>,
    config: &NetConfig,
    drive: impl FnOnce(&NetConfig, &RunFabric, Vec<RoundEngine<A>>) -> Vec<RoundEngine<A>>,
) -> NetOutcome<A::Value>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    assert!(n > 0, "system must have at least one process");
    assert_eq!(initial.len(), n, "one initial value per process");

    let fabric = fabric_for(config);
    let engines = initial
        .into_iter()
        .enumerate()
        .map(|(p, value)| fabric.engine_for(algo.clone(), p, n, value))
        .collect();
    let engines = drive(config, &fabric, engines);
    let decisions = engines.iter().map(|e| e.decision().cloned()).collect();
    let reports = engines.into_iter().map(RoundEngine::into_report).collect();
    fabric.assemble(reports, decisions)
}

/// The multiplexed skeleton: one [`MuxRoundEngine`] per process, driven
/// by `drive`, each reporting for itself.
fn run_mux<A>(
    algo: A,
    n: usize,
    initials: Vec<Vec<A::Value>>,
    config: &NetConfig,
    drive: impl FnOnce(&NetConfig, &RunFabric, Vec<MuxRoundEngine<A>>) -> Vec<MuxRoundEngine<A>>,
) -> Vec<MuxReport<A::Value>>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    assert!(n > 0, "system must have at least one process");
    assert_eq!(initials.len(), n, "one initial-value list per process");
    let k = initials[0].len();
    assert!(k > 0, "at least one instance");
    assert!(
        initials.iter().all(|v| v.len() == k),
        "every process runs the same instance set"
    );

    let fabric = fabric_for(config);
    let engines = initials
        .into_iter()
        .enumerate()
        .map(|(p, values)| fabric.mux_engine_for(algo.clone(), p, n, values))
        .collect();
    drive(config, &fabric, engines)
        .into_iter()
        .map(MuxRoundEngine::into_report)
        .collect()
}

pub(crate) fn fabric_for(config: &NetConfig) -> RunFabric {
    RunFabric::new(
        config.faults,
        config.seed,
        config.copies,
        config.max_rounds,
        config.code,
        config.adaptive.clone(),
        config.trace.clone(),
        config.telemetry.clone(),
    )
}

/// The stepper driver: lockstep rounds on the calling thread until
/// every engine has decided everything it runs (or, in lockstep mode,
/// for exactly `max_rounds` rounds). Hands the engines back in process
/// order.
fn step<A, L>(
    config: &NetConfig,
    fabric: &RunFabric,
    engines: Vec<RoundMachine<A, L>>,
) -> Vec<RoundMachine<A, L>>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
    L: WireLayout,
{
    let mut stepper = fabric.lockstep(engines);
    for r in 1..=config.max_rounds {
        if stepper.round(r) && !config.lockstep {
            break;
        }
    }
    stepper.into_engines()
}

/// The threaded driver: one standing worker per engine, each with a
/// fresh inbox, until every process has left its round loop.
fn threads<A, L>(
    config: &NetConfig,
    fabric: &RunFabric,
    engines: Vec<RoundMachine<A, L>>,
) -> Vec<RoundMachine<A, L>>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
    L: WireLayout + 'static,
{
    let inboxes = runtime::inboxes(engines.len());
    runtime::drive(config, fabric, engines, inboxes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_coding::{GilbertElliott, NoisePhase};
    use heardof_core::{Ate, AteParams};
    use heardof_engine::OutcomeView;
    use heardof_model::History;
    use heardof_predicates::{CommPredicate, PBenign};

    fn ate(n: usize, alpha: u32) -> Ate<u64> {
        Ate::new(AteParams::balanced(n, alpha).unwrap())
    }

    #[test]
    fn perfect_links_reach_consensus_fast() {
        let n = 5;
        let outcome = run_async(ate(n, 0), n, vec![3, 1, 3, 1, 3], NetConfig::default());
        assert!(outcome.all_decided());
        assert!(outcome.agreement_ok());
        assert!(outcome.last_decision_round().unwrap() <= 3);
        assert!(PBenign.holds(&outcome.history));
        assert_eq!(outcome.undetected_corruptions, 0);
    }

    #[test]
    fn early_exit_is_uniform_across_processes() {
        let n = 4;
        let outcome = run_async(ate(n, 0), n, vec![9; 4], NetConfig::default());
        let first = outcome.rounds_completed[0];
        assert!(
            outcome.rounds_completed.iter().all(|&r| r == first),
            "lockstep exit: {:?}",
            outcome.rounds_completed
        );
        assert!(first < 100, "unanimous input exits well before the cap");
    }

    #[test]
    fn lockstep_runs_exactly_max_rounds() {
        let n = 3;
        let config = NetConfig {
            lockstep: true,
            max_rounds: 4,
            ..NetConfig::default()
        };
        let outcome = run_async(ate(n, 0), n, vec![6, 6, 6], config);
        assert_eq!(outcome.rounds_completed, vec![4, 4, 4]);
        assert_eq!(outcome.history.num_rounds(), 4);
        assert!(outcome.all_decided());
    }

    #[test]
    fn async_runs_are_deterministic() {
        let n = 5;
        let mk = || NetConfig {
            faults: LinkFaults {
                drop_prob: 0.2,
                corrupt_prob: 0.1,
                undetected_prob: 0.3,
            },
            seed: 42,
            max_rounds: 30,
            ..NetConfig::default()
        };
        let run = || {
            let o = run_async(ate(n, 1), n, vec![1, 2, 1, 2, 1], mk());
            (
                o.decisions,
                o.decision_rounds,
                o.rounds_completed,
                o.undetected_corruptions,
            )
        };
        assert_eq!(run(), run(), "no clocks, no jitter: bit-identical runs");
    }

    #[test]
    fn adaptive_async_escalates_under_a_noisy_trace_and_still_decides() {
        let n = 5;
        let alpha = 1;
        let trace = NoiseTrace::new(
            7,
            vec![
                NoisePhase {
                    rounds: 6,
                    channel: GilbertElliott::bursty(),
                },
                NoisePhase {
                    rounds: 4,
                    channel: GilbertElliott::clean(),
                },
            ],
        );
        let config = NetConfig {
            adaptive: Some(AdaptiveConfig::standard(n, alpha)),
            trace: Some(trace),
            max_rounds: 40,
            ..NetConfig::default()
        };
        let outcome = run_async(ate(n, alpha), n, vec![1, 2, 1, 2, 1], config);
        assert!(outcome.agreement_ok(), "{:?}", outcome.decisions);
        assert!(outcome.all_decided(), "correcting rungs restore liveness");
        for (p, codes) in outcome.code_schedule.iter().enumerate() {
            assert_eq!(codes[0], CodeSpec::Checksum { width: 4 });
            assert!(
                codes.iter().any(|c| *c != CodeSpec::Checksum { width: 4 }),
                "process {p} never escalated: {codes:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one initial value per process")]
    fn wrong_arity_panics() {
        let _ = run_async(ate(3, 0), 3, vec![1], NetConfig::default());
    }
}
