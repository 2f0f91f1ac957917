//! Multi-run helpers: the same scenario across many seeds.

use crate::engine::RunOutcome;
use heardof_model::HoAlgorithm;

/// Aggregate results of running one scenario across seeds.
#[derive(Clone, Debug)]
pub struct BatchSummary {
    /// Number of runs executed.
    pub runs: usize,
    /// Runs in which every process decided.
    pub decided: usize,
    /// Runs with at least one safety violation.
    pub violated: usize,
    /// Decision rounds (last decider) of the runs that fully decided.
    pub decision_rounds: Vec<u64>,
}

impl BatchSummary {
    /// Fraction of runs where every process decided.
    pub fn decided_fraction(&self) -> f64 {
        if self.runs == 0 {
            return 0.0;
        }
        self.decided as f64 / self.runs as f64
    }

    /// `true` iff every run was safe and decided.
    pub fn all_consensus_ok(&self) -> bool {
        self.violated == 0 && self.decided == self.runs
    }
}

/// Runs `build_and_run` once per seed and aggregates the outcomes.
///
/// # Examples
///
/// ```
/// use heardof_core::{Ate, AteParams};
/// use heardof_sim::{run_batch, Simulator};
///
/// let summary = run_batch(0..10, |seed| {
///     Simulator::new(Ate::<u64>::new(AteParams::balanced(4, 0).unwrap()), 4)
///         .initial_values([seed, seed + 1, seed, seed])
///         .seed(seed)
///         .run_until_decided(50)
///         .unwrap()
/// });
/// assert!(summary.all_consensus_ok());
/// ```
pub fn run_batch<A, I, F>(seeds: I, mut build_and_run: F) -> BatchSummary
where
    A: HoAlgorithm,
    I: IntoIterator<Item = u64>,
    F: FnMut(u64) -> RunOutcome<A>,
{
    let mut summary = BatchSummary {
        runs: 0,
        decided: 0,
        violated: 0,
        decision_rounds: Vec::new(),
    };
    for seed in seeds {
        let outcome = build_and_run(seed);
        summary.runs += 1;
        if !outcome.is_safe() {
            summary.violated += 1;
        }
        if outcome.all_decided() {
            summary.decided += 1;
            if let Some(r) = outcome.last_decision_round() {
                summary.decision_rounds.push(r.get());
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_core::{Ate, AteParams};

    #[test]
    fn batch_aggregates() {
        let summary = run_batch(0..5, |seed| {
            crate::Simulator::new(Ate::<u64>::new(AteParams::balanced(4, 0).unwrap()), 4)
                .initial_values(vec![seed % 2, 1, 0, 1])
                .seed(seed)
                .run_until_decided(20)
                .unwrap()
        });
        assert_eq!(summary.runs, 5);
        assert!(summary.all_consensus_ok());
        assert_eq!(summary.decided_fraction(), 1.0);
        assert_eq!(summary.decision_rounds.len(), 5);
        assert!(summary.decision_rounds.iter().all(|r| (1..=2).contains(r)));
    }

    #[test]
    fn empty_batch() {
        let summary = run_batch(std::iter::empty(), |_| -> RunOutcome<Ate<u64>> {
            unreachable!("no seeds")
        });
        assert_eq!(summary.runs, 0);
        assert_eq!(summary.decided_fraction(), 0.0);
        assert!(summary.decision_rounds.is_empty());
    }
}
