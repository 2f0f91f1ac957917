//! Cross-substrate conformance: the same seeded noise trace driven
//! through every substrate — the lockstep simulator, the threaded
//! runtime, and the async runtime — asserting they agree **round for
//! round**.
//!
//! The adaptive coding stack has one implementation of the per-process
//! machine (`heardof_engine::RoundEngine` over its `Framing`) and one
//! link fault model (the links of a `heardof_net::RunFabric`), but
//! three round semantics — who runs
//! the algorithm, and what closes a round:
//!
//! * the **sim** substrate — the lockstep [`Simulator`] runs the
//!   algorithm and rebuilds `HO`/`SHO` from its intended and delivered
//!   matrices; a [`WireChannel`] computes the delivered matrix by
//!   relaying every intended message through `n` round engines and the
//!   links of one `RunFabric`, stepped by its `Lockstep`, with no
//!   threads and no clock;
//! * the **net** substrate — OS threads exchanging those same frames
//!   over the same links in trace + lockstep mode, each round crossing
//!   to a peer as one batch that also closes it;
//! * the **async** substrate — the algorithm's own engines stepped by
//!   that same lockstep loop behind the *same* links, rounds closed
//!   when every engine has sent, received and transitioned.
//!
//! Because the trace is a pure function of
//! `(seed, round, sender, receiver, copy, frame length)` and the
//! controllers are pure functions of their observation sequences, all
//! substrates must produce *identical* controller decisions and
//! *identical* `HO`/`SHO` reconstructions, round for round. The
//! harness runs each and diffs them; `tests/adaptive_conformance.rs`
//! asserts the N-way diff is empty across a seed matrix. This is the
//! acceptance bar for **any new substrate**: drive the engine however
//! you like, but you must replay the matrix.
//!
//! A frame whose header a miscorrection forges into a valid-looking
//! *future* round (e.g. a three-flip SECDED pattern landing in the
//! round field) takes the same path on every substrate: the receiving
//! engine buffers it and delivers it when that round opens. The sim
//! routes it through the same engines, so its delivered matrix carries
//! the frame in that later round exactly as the byte-level runtimes'
//! kept logs do.

use crate::WireChannel;
use heardof_coding::{AdaptiveConfig, CodeSpec, NoiseTrace};
use heardof_engine::{MuxReport, SubstrateOutcome, WireMessage};
use heardof_model::{HoAlgorithm, RoundSets, TraceLevel};
use heardof_net::{run_async, run_async_mux, run_threaded, run_threaded_mux, NetConfig};
use heardof_sim::Simulator;
use heardof_telemetry::{RingRecorder, RoundReport, RunRecording, Telemetry};
use std::sync::Arc;
use std::time::Duration;

/// Environment variable naming a directory where
/// [`first_matrix_divergence`] dumps both flight recordings (as JSONL)
/// when substrates disagree — the post-mortem artifact CI uploads.
pub const TELEMETRY_DUMP_DIR_ENV: &str = "HEARDOF_TELEMETRY_DUMP_DIR";

/// What one substrate reports for comparison: per-round code decisions,
/// heard-of reconstructions, and the telemetry plane's per-round
/// counters (the fourth equivalence dimension).
#[derive(Clone, Debug)]
pub struct SubstrateReport {
    /// `codes[r-1][p]`: the code process `p` sent with in round `r`.
    pub codes: Vec<Vec<CodeSpec>>,
    /// `sets[r-1]`: the round's `HO`/`SHO` collections.
    pub sets: Vec<RoundSets>,
    /// Per-round telemetry counters, every kind — substrates must agree
    /// on these exactly.
    pub telemetry: Vec<RoundReport>,
    /// The substrate's full flight recording, kept for post-mortems:
    /// [`first_matrix_divergence`] dumps it as JSONL on a mismatch. Not
    /// part of the equality comparison; `telemetry` is its per-round
    /// summary.
    pub recording: RunRecording,
}

impl PartialEq for SubstrateReport {
    fn eq(&self, other: &Self) -> bool {
        self.codes == other.codes && self.sets == other.sets && self.telemetry == other.telemetry
    }
}

impl SubstrateReport {
    /// Rounds covered by the report.
    pub fn rounds(&self) -> usize {
        self.codes.len().min(self.sets.len())
    }

    /// Human-readable first divergence against another report, if any —
    /// `None` means the substrates conform over the compared prefix.
    pub fn first_divergence(&self, other: &SubstrateReport) -> Option<String> {
        let rounds = self.rounds().min(other.rounds());
        for r in 0..rounds {
            if self.codes[r] != other.codes[r] {
                return Some(format!(
                    "round {}: controller decisions diverge: {:?} vs {:?}",
                    r + 1,
                    self.codes[r],
                    other.codes[r]
                ));
            }
            if self.sets[r] != other.sets[r] {
                return Some(format!(
                    "round {}: HO/SHO reconstructions diverge: {:?} vs {:?}",
                    r + 1,
                    self.sets[r],
                    other.sets[r]
                ));
            }
        }
        let compared = self.telemetry.len().min(other.telemetry.len());
        for (mine, theirs) in self.telemetry[..compared]
            .iter()
            .zip(&other.telemetry[..compared])
        {
            if mine != theirs {
                return Some(format!(
                    "round {}: telemetry counters diverge: {} vs {}",
                    mine.round,
                    mine.counts.to_json(),
                    theirs.counts.to_json()
                ));
            }
        }
        None
    }

    /// Extracts a report from a byte-level substrate's outcome
    /// (threaded or async): per-process code schedules transposed to
    /// per round, the reconstructed sets, plus the flight recording.
    fn from_outcome<V>(outcome: &SubstrateOutcome<V>, recording: RunRecording) -> Self {
        let completed = outcome
            .rounds_completed
            .iter()
            .map(|&r| r as usize)
            .min()
            .unwrap_or(0);
        let codes = (0..completed)
            .map(|r| {
                outcome
                    .code_schedule
                    .iter()
                    .map(|per_proc| per_proc[r])
                    .collect()
            })
            .collect();
        SubstrateReport {
            codes,
            sets: outcome.history.iter().map(|(_, s)| s.clone()).collect(),
            telemetry: recording.rounds.clone(),
            recording,
        }
    }
}

/// Diffs a set of named substrate reports pairwise against the first;
/// returns the first divergence found, if any. `None` means the whole
/// matrix conforms.
///
/// On a divergence, if the [`TELEMETRY_DUMP_DIR_ENV`] environment
/// variable names a directory, both sides' flight recordings are dumped
/// there as `flight_<substrate>.jsonl` for post-mortem diffing (CI
/// uploads these as artifacts).
pub fn first_matrix_divergence(reports: &[(&str, &SubstrateReport)]) -> Option<String> {
    let (base_name, base) = reports.first()?;
    for (name, report) in &reports[1..] {
        if let Some(diff) = base.first_divergence(report) {
            dump_recordings(&[(base_name, base), (name, report)]);
            return Some(format!("{base_name} vs {name}: {diff}"));
        }
    }
    None
}

/// Writes the given reports' flight recordings into the directory named
/// by [`TELEMETRY_DUMP_DIR_ENV`], if set. Failures are reported to
/// stderr, never panicked on — the divergence message is the primary
/// signal and must get through.
fn dump_recordings(reports: &[(&str, &SubstrateReport)]) {
    let Ok(dir) = std::env::var(TELEMETRY_DUMP_DIR_ENV) else {
        return;
    };
    if dir.is_empty() {
        return;
    }
    let dir = std::path::Path::new(&dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("telemetry dump: cannot create {}: {e}", dir.display());
        return;
    }
    for (name, report) in reports {
        let path = dir.join(format!("flight_{name}.jsonl"));
        if let Err(e) = std::fs::write(&path, report.recording.to_jsonl()) {
            eprintln!("telemetry dump: cannot write {}: {e}", path.display());
        } else {
            eprintln!("telemetry dump: wrote {}", path.display());
        }
    }
}

/// Runs the **simulator** substrate for `rounds` rounds and reports its
/// decisions and reconstructions.
///
/// # Panics
///
/// Panics if the simulator rejects the configuration (wrong arity).
pub fn run_sim_substrate<A>(
    algo: A,
    n: usize,
    initial: Vec<A::Value>,
    cfg: &AdaptiveConfig,
    trace: &NoiseTrace,
    rounds: u64,
) -> SubstrateReport
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    let ((codes, sets), recording) = recorded(|telemetry| {
        let channel = WireChannel::new(
            n,
            CodeSpec::DEFAULT,
            Some(cfg.clone()),
            trace.clone(),
            rounds,
            telemetry,
        );
        let codes = channel.code_log();
        // Only a configuration error (the caller's arity, see Panics)
        // fails the run; no wire byte reaches this check.
        #[allow(clippy::expect_used)]
        let outcome = Simulator::new(algo, n)
            .adversary(channel)
            .initial_values(initial)
            .trace_level(TraceLevel::SetsOnly)
            .run_rounds(rounds as usize)
            .expect("sim substrate run");
        let sets = outcome.trace.rounds().iter().map(|rec| rec.sets.clone());
        (codes.rounds(), sets.collect())
    });
    SubstrateReport {
        codes,
        sets,
        telemetry: recording.rounds.clone(),
        recording,
    }
}

/// Runs `run` with a telemetry plane over a ring the harness holds, and
/// hands back its result with the ring's recording — the one path by
/// which every runner records.
fn recorded<R>(run: impl FnOnce(Telemetry) -> R) -> (R, RunRecording) {
    let ring = Arc::new(RingRecorder::new());
    let result = run(Telemetry::from_ring(Arc::clone(&ring)));
    (result, ring.snapshot())
}

/// Runs a byte-level substrate on the harness's one configuration —
/// the adaptive ladder under the seeded trace, in lockstep for exactly
/// `rounds` rounds, one copy per frame, no other link faults — and
/// hands back its result with the run's recording.
fn recorded_on_bytes<R>(
    cfg: &AdaptiveConfig,
    trace: &NoiseTrace,
    rounds: u64,
    run: impl FnOnce(NetConfig) -> R,
) -> (R, RunRecording) {
    recorded(|telemetry| {
        run(NetConfig {
            adaptive: Some(cfg.clone()),
            trace: Some(trace.clone()),
            lockstep: true,
            max_rounds: rounds,
            round_timeout: CRASH_TIMEOUT,
            telemetry,
            ..NetConfig::default()
        })
    })
}

/// How long a threaded run waits for a peer's round batch. Only a
/// crashed peer ever costs it: live peers close every round on their
/// batches.
const CRASH_TIMEOUT: Duration = Duration::from_secs(5);

/// Runs the **threaded** substrate in lockstep + trace mode for
/// `rounds` rounds and reports its decisions and reconstructions.
pub fn run_net_substrate<A>(
    algo: A,
    n: usize,
    initial: Vec<A::Value>,
    cfg: &AdaptiveConfig,
    trace: &NoiseTrace,
    rounds: u64,
) -> SubstrateReport
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    let (outcome, recording) = recorded_on_bytes(cfg, trace, rounds, |config| {
        run_threaded(algo, n, initial, config)
    });
    SubstrateReport::from_outcome(&outcome, recording)
}

/// What one substrate reports for a **multi-instance** (multiplexed)
/// conformance run: per-round code decisions, per-instance decisions,
/// the wire-level kept logs and the per-round telemetry counters. One
/// wire image carries every instance's frame, so the kept set is a
/// per-process per-round fact (see `heardof_engine::MuxRoundEngine`).
#[derive(Clone, Debug, PartialEq)]
pub struct MuxSubstrateReport<V> {
    /// `codes[r-1][p]`: the code process `p` sent with in round `r`
    /// (truncated to the shortest process's completed rounds).
    pub codes: Vec<Vec<CodeSpec>>,
    /// `decisions[p][i]`: instance `i`'s decision at process `p`.
    pub decisions: Vec<Vec<Option<V>>>,
    /// `decision_rounds[p][i]`: the round of that first decision.
    pub decision_rounds: Vec<Vec<Option<u64>>>,
    /// `kept[p][r-1]`: the `(sender, copy)` images process `p` kept in
    /// round `r`.
    pub kept: Vec<Vec<Vec<(u32, u8)>>>,
    /// Per-round telemetry counters, every kind — substrates must agree
    /// on these exactly, as on [`SubstrateReport::telemetry`].
    pub telemetry: Vec<RoundReport>,
}

impl<V> MuxSubstrateReport<V> {
    /// Projects the per-process engine reports and the run's flight
    /// recording onto the conformance dimensions.
    fn from_reports(reports: Vec<MuxReport<V>>, recording: RunRecording) -> Self {
        let completed = reports
            .iter()
            .map(|r| r.rounds_completed as usize)
            .min()
            .unwrap_or(0);
        let codes = (0..completed)
            .map(|r| reports.iter().map(|rep| rep.codes[r]).collect())
            .collect();
        let mut decisions = Vec::with_capacity(reports.len());
        let mut decision_rounds = Vec::with_capacity(reports.len());
        let mut kept = Vec::with_capacity(reports.len());
        for report in reports {
            decisions.push(report.decisions);
            decision_rounds.push(report.decision_rounds);
            // Kept logs are arrival-ordered, and arrival order between
            // distinct senders is substrate scheduling, not behaviour —
            // canonicalize to the set the conformance claim is about.
            let mut per_round = report.kept;
            for round in &mut per_round {
                round.sort_unstable();
            }
            kept.push(per_round);
        }
        MuxSubstrateReport {
            codes,
            decisions,
            decision_rounds,
            kept,
            telemetry: recording.rounds,
        }
    }
}

/// Runs the **threaded** multiplexed substrate in lockstep + trace mode
/// and reports its conformance dimensions.
pub fn run_mux_net_substrate<A>(
    algo: A,
    n: usize,
    initials: Vec<Vec<A::Value>>,
    cfg: &AdaptiveConfig,
    trace: &NoiseTrace,
    rounds: u64,
) -> MuxSubstrateReport<A::Value>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    let (reports, recording) = recorded_on_bytes(cfg, trace, rounds, |config| {
        run_threaded_mux(algo, n, initials, config)
    });
    MuxSubstrateReport::from_reports(reports, recording)
}

/// Runs the **async** multiplexed substrate in lockstep + trace mode
/// and reports its conformance dimensions.
pub fn run_mux_async_substrate<A>(
    algo: A,
    n: usize,
    initials: Vec<Vec<A::Value>>,
    cfg: &AdaptiveConfig,
    trace: &NoiseTrace,
    rounds: u64,
) -> MuxSubstrateReport<A::Value>
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    let (reports, recording) = recorded_on_bytes(cfg, trace, rounds, |config| {
        run_async_mux(algo, n, initials, config)
    });
    MuxSubstrateReport::from_reports(reports, recording)
}

/// Runs the **async** substrate in lockstep + trace mode for `rounds`
/// rounds and reports its decisions and reconstructions. No timeout to
/// pick: the lockstep loop closes rounds exactly.
pub fn run_async_substrate<A>(
    algo: A,
    n: usize,
    initial: Vec<A::Value>,
    cfg: &AdaptiveConfig,
    trace: &NoiseTrace,
    rounds: u64,
) -> SubstrateReport
where
    A: HoAlgorithm,
    A::Msg: WireMessage,
{
    let (outcome, recording) = recorded_on_bytes(cfg, trace, rounds, |config| {
        run_async(algo, n, initial, config)
    });
    SubstrateReport::from_outcome(&outcome, recording)
}
