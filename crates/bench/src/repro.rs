//! The paper's evidence as one table: every entry of [`ARTIFACTS`]
//! renders one table, figure or claim of *Tolerating Corrupted
//! Communication* into a `String`.
//!
//! The `repro` bin prints them, all in table order or only the ones
//! named on its command line:
//!
//! ```text
//! cargo run --release -p heardof-bench --bin repro -- [artifact ...]
//! ```
//!
//! Every artifact is a pure function of its embedded seeds — simulator
//! runs, lockstep async runs and coding sweeps, never a wall
//! clock — so `tests/repro_golden.rs` pins each one byte for byte
//! against `tests/repro/<name>.txt`. After a deliberate change, re-pin
//! one artifact with
//!
//! ```text
//! cargo run --release -p heardof-bench --bin repro -- <name> > crates/bench/tests/repro/<name>.txt
//! ```

use heardof_adversary::{
    Adversary, BorrowedCorruption, Budgeted, GoodRounds, RandomCorruption, SplitBrain, WithSchedule,
};
use heardof_model::{Corruptible, History, HoAlgorithm, Round, RoundSets};
use heardof_sim::{RunOutcome, Simulator};
use std::hash::Hash;

/// `println!` into an artifact's buffer.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::fmt::Write as _;
        // Writing into a `String` cannot fail.
        let _ = writeln!($($arg)*);
    }};
}

/// A table row of `Display` cells.
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        [$($cell.to_string()),*]
    };
}

mod channel;
mod paper;

/// One artifact: its name (the `repro` argument and golden-file stem)
/// and the function that renders it.
pub type Artifact = (&'static str, fn(&mut String));

/// Every artifact, in the order `repro` prints them: Table 1, Figures
/// 1–3, the §3.3 frontiers and baselines, the tightness searches, the
/// §5.1 comparisons, the §5.2 coverage and Byzantine emulation, two
/// supplementary sweeps, then the coding layer's operating points.
pub const ARTIFACTS: [Artifact; 19] = [
    ("table1", paper::table1),
    ("fig1_liveness_a", paper::fig1_liveness_a),
    ("fig2_liveness_u", paper::fig2_liveness_u),
    ("fig3_taxonomy", paper::fig3_taxonomy),
    ("resilience", paper::resilience),
    ("otr_equivalence", paper::otr_equivalence),
    ("tightness", paper::tightness),
    ("tightness_u", paper::tightness_u),
    ("santoro_widmayer", paper::santoro_widmayer),
    ("fast_path", paper::fast_path),
    ("lamport_bound", paper::lamport_bound),
    ("coverage", channel::coverage),
    ("byzantine_emulation", paper::byzantine_emulation),
    ("ablation_guard", paper::ablation_guard),
    ("latency_sweep", paper::latency_sweep),
    ("coding_tradeoff", channel::coding_tradeoff),
    ("adaptive_tradeoff", channel::adaptive_tradeoff),
    ("ladder", channel::ladder),
    ("fountain", channel::fountain),
];

/// Renders the artifact called `name`, or `None` if there is none.
pub fn render(name: &str) -> Option<String> {
    let (_, artifact) = ARTIFACTS.iter().find(|(n, _)| *n == name)?;
    let mut out = String::new();
    artifact(&mut out);
    Some(out)
}

/// The standard artifact header.
fn header(out: &mut String, artifact: &str, claim: &str) {
    let rule = "=".repeat(64);
    outln!(out, "{rule}\n{artifact}\npaper claim: {claim}\n{rule}");
}

/// One seeded run to decision (or `max_rounds`): every single-run cell.
fn run<A: HoAlgorithm>(
    algo: A,
    n: usize,
    adversary: impl Adversary<A::Msg> + 'static,
    initial: impl IntoIterator<Item = A::Value>,
    seed: u64,
    max_rounds: usize,
) -> RunOutcome<A> {
    Simulator::new(algo, n)
        .adversary(adversary)
        .initial_values(initial)
        .seed(seed)
        .run_until_decided(max_rounds)
        .expect("artifact configurations are valid")
}

/// Initial values `(shift + i) mod m` for processes `i = 0 .. n`.
fn inputs(n: usize, shift: u64, m: u64) -> Vec<u64> {
    (0..n as u64).map(|i| (shift + i) % m).collect()
}

/// The decision-round cell: the round by which everyone decided, or
/// `none`.
fn decided_at<A: HoAlgorithm>(outcome: &RunOutcome<A>, none: &str) -> String {
    outcome
        .last_decision_round()
        .map_or(none.to_string(), |r| r.get().to_string())
}

/// The largest per-round value of `f` over a run's heard-of sets.
fn per_round_max(history: &impl History, f: impl Fn(&RoundSets) -> usize) -> usize {
    (1..=history.num_rounds() as u64)
        .map(|r| f(history.round_sets(Round::new(r))))
        .max()
        .unwrap_or(0)
}

/// The names of the [`family`] adversaries, by index.
const FAMILY_NAMES: [&str; 3] = ["random", "borrowed", "split-brain"];

/// The standard `P_α`-respecting adversary families, selected by index
/// (kept stable so tables are comparable) and scheduled by `good`.
fn family<M>(kind: usize, alpha: u32, good: GoodRounds) -> Box<dyn Adversary<M>>
where
    M: Clone + Eq + Hash + Send + Corruptible + 'static,
{
    match kind % 3 {
        0 => Box::new(WithSchedule::new(
            Budgeted::new(RandomCorruption::new(alpha, 1.0), alpha),
            good,
        )),
        1 => Box::new(WithSchedule::new(
            Budgeted::new(BorrowedCorruption::new(alpha, 1.0), alpha),
            good,
        )),
        _ => Box::new(WithSchedule::new(
            Budgeted::new(SplitBrain::new(alpha), alpha),
            good,
        )),
    }
}
