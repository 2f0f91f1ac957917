//! The deterministic deployment of HO algorithms.
//!
//! `n` round engines — [`RoundEngine`]s or [`MuxRoundEngine`]s, the
//! loop is the same — run in lockstep on the calling thread, with the
//! same coded, tagged wire format and the same byte-corrupting fault
//! model as the threaded runtime's [`FaultyLink`]s, minus their sinks.
//! A frame's bytes are borrowed from the sender's engine through the
//! link's fault model into the receiver's arena — which the stepper
//! owns, so no boxed sink, shared pointer or lock sits in between —
//! and borrowed again from there into `ingest`: nothing is allocated
//! per frame, and the per-run wiring is one arena per receiver and one
//! fault model per link. Where the threaded runtime closes a round on
//! a wall-clock timeout, here the round is the plain loop of
//! [`Lockstep::round`]:
//!
//! 1. every engine, in process order, emits its coded frames through
//!    its links' fault models,
//! 2. every engine drains its arena into
//!    [`RoundMachine::ingest_from`](heardof_engine::RoundMachine::ingest_from),
//! 3. every engine finishes the round (transition + renegotiation).
//!
//! Every round-`r` send lands before any round-`r` reception is read,
//! so rounds are communication-closed *by construction* and runs are
//! fully deterministic (no scheduling jitter, no timeout tuning).
//! Unless in lockstep mode, the run stops after the first round at
//! whose end every engine has decided everything it runs.
//!
//! [`FaultyLink`]: heardof_net::FaultyLink
//! [`Lockstep::round`]: heardof_net::Lockstep::round

use heardof_coding::{AdaptiveConfig, CodeSpec, NoiseTrace};
use heardof_engine::{
    MuxReport, MuxRoundEngine, RoundEngine, RoundMachine, SubstrateOutcome, WireLayout, WireMessage,
};
use heardof_model::HoAlgorithm;
use heardof_net::{LinkFaults, RunFabric};
use heardof_telemetry::Telemetry;

/// Configuration of an async run. The fields mirror
/// `heardof_net::NetConfig` minus the round timeout — the lockstep
/// loop replaces the clock.
#[derive(Clone, Debug)]
pub struct AsyncConfig {
    /// Fault probabilities applied to every inter-process link
    /// (self-delivery is local and never faulty).
    pub faults: LinkFaults,
    /// Seed for all link randomness (same per-link streams as the
    /// threaded runtime under the same seed).
    pub seed: u64,
    /// Copies of each frame to send.
    pub copies: u8,
    /// Hard cap on rounds.
    pub max_rounds: u64,
    /// Channel code framing every wire frame; ignored when
    /// [`AsyncConfig::adaptive`] is set.
    pub code: CodeSpec,
    /// Per-round code renegotiation over the tagged ladder.
    pub adaptive: Option<AdaptiveConfig>,
    /// Replaces the probabilistic link faults with a seeded
    /// [`NoiseTrace`] — the conformance-harness mode.
    pub trace: Option<NoiseTrace>,
    /// Run exactly `max_rounds` rounds with no early exit once everyone
    /// decided (rounds are always lockstep here, so unlike the threaded
    /// runtime this changes nothing else).
    pub lockstep: bool,
    /// The telemetry plane every link and engine emits into; defaults
    /// to [`Telemetry::null`] (record nothing, one branch per event).
    pub telemetry: Telemetry,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            faults: LinkFaults::NONE,
            seed: 0,
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

/// The observable result of an async run — the engine-standard
/// [`SubstrateOutcome`] shared with the threaded runtime.
pub type AsyncOutcome<V> = SubstrateOutcome<V>;

/// Runs `algo` as `n` lockstep processes over faulty in-memory links.
///
/// # Panics
///
/// Panics if `initial.len() != n`, `n == 0`, or `config.copies == 0`.
///
/// # Examples
///
/// ```
/// use heardof_async::{run_async, AsyncConfig};
/// use heardof_core::{Ate, AteParams};
/// use heardof_engine::OutcomeView;
///
/// let n = 5;
/// let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0)?);
/// let outcome = run_async(algo, n, (0..n as u64).map(|i| i % 2).collect(),
///                         AsyncConfig::default());
/// assert!(outcome.all_decided());
/// assert!(outcome.agreement_ok());
/// # Ok::<(), heardof_core::ParamError>(())
/// ```
pub fn run_async<A>(
    algo: A,
    n: usize,
    initial: Vec<A::Value>,
    config: AsyncConfig,
) -> AsyncOutcome<A::Value>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    assert!(n > 0, "system must have at least one process");
    assert_eq!(initial.len(), n, "one initial value per process");

    let fabric = fabric_for(&config);
    let engines = initial
        .into_iter()
        .enumerate()
        .map(|(p, value)| fabric.engine_for(algo.clone(), p, n, value))
        .collect();
    let engines = drive(&config, &fabric, engines);
    let decisions = engines.iter().map(|e| e.decision().cloned()).collect();
    let reports = engines.into_iter().map(RoundEngine::into_report).collect();
    fabric.assemble(reports, decisions)
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
    config: AsyncConfig,
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

    let fabric = fabric_for(&config);
    let engines = initials
        .into_iter()
        .enumerate()
        .map(|(p, values)| fabric.mux_engine_for(algo.clone(), p, n, values))
        .collect();
    drive(&config, &fabric, engines)
        .into_iter()
        .map(MuxRoundEngine::into_report)
        .collect()
}

fn fabric_for(config: &AsyncConfig) -> RunFabric {
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

/// Steps `engines` in lockstep until every one has decided (or, in
/// lockstep mode, for exactly `max_rounds` rounds); hands them back in
/// process order.
fn drive<A, L>(
    config: &AsyncConfig,
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
        let outcome = run_async(ate(n, 0), n, vec![3, 1, 3, 1, 3], AsyncConfig::default());
        assert!(outcome.all_decided());
        assert!(outcome.agreement_ok());
        assert!(outcome.last_decision_round().unwrap() <= 3);
        assert!(PBenign.holds(&outcome.history));
        assert_eq!(outcome.undetected_corruptions, 0);
    }

    #[test]
    fn early_exit_is_uniform_across_processes() {
        let n = 4;
        let outcome = run_async(ate(n, 0), n, vec![9; 4], AsyncConfig::default());
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
        let config = AsyncConfig {
            lockstep: true,
            max_rounds: 4,
            ..AsyncConfig::default()
        };
        let outcome = run_async(ate(n, 0), n, vec![6, 6, 6], config);
        assert_eq!(outcome.rounds_completed, vec![4, 4, 4]);
        assert_eq!(outcome.history.num_rounds(), 4);
        assert!(outcome.all_decided());
    }

    #[test]
    fn async_runs_are_deterministic() {
        let n = 5;
        let mk = || AsyncConfig {
            faults: LinkFaults {
                drop_prob: 0.2,
                corrupt_prob: 0.1,
                undetected_prob: 0.3,
            },
            seed: 42,
            max_rounds: 30,
            ..AsyncConfig::default()
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
        let config = AsyncConfig {
            adaptive: Some(AdaptiveConfig::standard(n, alpha)),
            trace: Some(trace),
            max_rounds: 40,
            ..AsyncConfig::default()
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
        let _ = run_async(ate(3, 0), 3, vec![1], AsyncConfig::default());
    }
}
