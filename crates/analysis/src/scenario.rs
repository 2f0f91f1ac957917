//! Named experiment scenarios: one algorithm, one adversary family,
//! many seeds, plus predicate verification on every recorded trace.

use crate::stats::Summary;
use heardof_adversary::Adversary;
use heardof_model::HoAlgorithm;
use heardof_predicates::CommPredicate;
use heardof_sim::{RunOutcome, Simulator};
use std::fmt;
use std::ops::Range;

/// A reusable experiment description.
///
/// The adversary and initial configuration are produced per seed so the
/// whole scenario stays replayable.
///
/// # Examples
///
/// ```
/// use heardof_adversary::{Budgeted, GoodRounds, RandomCorruption, WithSchedule};
/// use heardof_analysis::Scenario;
/// use heardof_core::{Ate, AteParams};
///
/// let params = AteParams::balanced(8, 1)?;
/// let result = Scenario::new("quick", Ate::<u64>::new(params), 8)
///     .adversary_factory(move |_seed| {
///         Box::new(WithSchedule::new(
///             Budgeted::new(RandomCorruption::new(1, 0.9), 1),
///             GoodRounds::every(4),
///         ))
///     })
///     .initial_factory(|seed| (0..8).map(|i| (seed + i) % 3).collect())
///     .max_rounds(200)
///     .run(0..20);
/// assert!(result.all_consensus_ok());
/// # Ok::<(), heardof_core::ParamError>(())
/// ```
pub struct Scenario<A: HoAlgorithm> {
    name: String,
    algo: A,
    n: usize,
    max_rounds: usize,
    extra_rounds: usize,
    adversary_factory: Box<dyn Fn(u64) -> Box<dyn Adversary<A::Msg>>>,
    initial_factory: Box<dyn Fn(u64) -> Vec<A::Value>>,
    predicates: Vec<Box<dyn CommPredicate>>,
}

impl<A: HoAlgorithm> Scenario<A>
where
    A::Value: From<u64>,
{
    /// A scenario with fault-free defaults: no adversary, initial values
    /// `seed, seed+1, … mod 3`, 1000-round horizon.
    pub fn new(name: impl Into<String>, algo: A, n: usize) -> Self {
        Scenario {
            name: name.into(),
            algo,
            n,
            max_rounds: 1000,
            extra_rounds: 0,
            adversary_factory: Box::new(|_| Box::new(heardof_adversary::NoFaults)),
            initial_factory: Box::new(move |seed| {
                (0..n as u64)
                    .map(|i| A::Value::from((seed + i) % 3))
                    .collect()
            }),
            predicates: Vec::new(),
        }
    }
}

impl<A: HoAlgorithm> Scenario<A> {
    /// Installs a per-seed adversary factory.
    pub fn adversary_factory(
        mut self,
        factory: impl Fn(u64) -> Box<dyn Adversary<A::Msg>> + 'static,
    ) -> Self {
        self.adversary_factory = Box::new(factory);
        self
    }

    /// Installs a per-seed initial-configuration factory.
    pub fn initial_factory(mut self, factory: impl Fn(u64) -> Vec<A::Value> + 'static) -> Self {
        self.initial_factory = Box::new(factory);
        self
    }

    /// Sets the round horizon.
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Keeps running after decision, stressing irrevocability.
    pub fn extra_rounds(mut self, extra: usize) -> Self {
        self.extra_rounds = extra;
        self
    }

    /// Adds a communication predicate checked on every recorded trace.
    pub fn check_predicate(mut self, predicate: impl CommPredicate + 'static) -> Self {
        self.predicates.push(Box::new(predicate));
        self
    }

    /// Runs one seed.
    pub fn run_one(&self, seed: u64) -> RunOutcome<A> {
        Simulator::new(self.algo.clone(), self.n)
            .adversary((self.adversary_factory)(seed))
            .initial_values((self.initial_factory)(seed))
            .seed(seed)
            .extra_rounds_after_decision(self.extra_rounds)
            .run_until_decided(self.max_rounds)
            .expect("scenario factories produce valid configurations")
    }

    /// Runs all seeds and aggregates.
    pub fn run(&self, seeds: Range<u64>) -> ScenarioResult {
        let mut runs = 0usize;
        let mut decided = 0usize;
        let mut violated = 0usize;
        let mut consensus = 0usize;
        let mut decision_rounds = Vec::new();
        let mut predicate_holds = vec![0usize; self.predicates.len()];
        for seed in seeds {
            let outcome = self.run_one(seed);
            runs += 1;
            if !outcome.is_safe() {
                violated += 1;
            }
            if outcome.consensus_ok() {
                consensus += 1;
            }
            if outcome.all_decided() {
                decided += 1;
                if let Some(r) = outcome.last_decision_round() {
                    decision_rounds.push(r.get());
                }
            }
            for (i, p) in self.predicates.iter().enumerate() {
                if p.holds(&outcome.trace) {
                    predicate_holds[i] += 1;
                }
            }
        }
        ScenarioResult {
            name: self.name.clone(),
            runs,
            decided,
            violated,
            consensus,
            rounds: Summary::from_counts(decision_rounds.iter().copied()),
            decision_rounds,
            predicate_satisfaction: self
                .predicates
                .iter()
                .zip(predicate_holds)
                .map(|(p, h)| (p.name(), h))
                .collect(),
        }
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Aggregated results of a scenario.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Seeds executed.
    pub runs: usize,
    /// Runs where everyone decided.
    pub decided: usize,
    /// Runs with safety violations.
    pub violated: usize,
    /// Runs that were safe and where everyone decided.
    pub consensus: usize,
    /// Last-decider rounds of fully decided runs.
    pub decision_rounds: Vec<u64>,
    /// Summary of those rounds.
    pub rounds: Option<Summary>,
    /// Per checked predicate: how many runs satisfied it.
    pub predicate_satisfaction: Vec<(String, usize)>,
}

impl ScenarioResult {
    /// `true` iff every run was safe and fully decided.
    pub fn all_consensus_ok(&self) -> bool {
        self.consensus == self.runs
    }

    /// Fraction of runs where everyone decided.
    pub fn decided_fraction(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.decided as f64 / self.runs as f64
        }
    }
}

impl fmt::Display for ScenarioResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}/{} decided, {} violations",
            self.name, self.decided, self.runs, self.violated
        )?;
        if let Some(s) = &self.rounds {
            write!(f, ", decision rounds {s}")?;
        }
        for (name, holds) in &self.predicate_satisfaction {
            write!(f, "; {name} held in {holds}/{} runs", self.runs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_adversary::{Budgeted, GoodRounds, SplitBrain, WithSchedule};
    use heardof_core::{Ate, AteParams};
    use heardof_predicates::PAlpha;

    #[test]
    fn scenario_runs_and_aggregates() {
        let params = AteParams::balanced(8, 1).unwrap();
        let result = Scenario::new("split-brain", Ate::<u64>::new(params), 8)
            .adversary_factory(|_| {
                Box::new(WithSchedule::new(
                    Budgeted::new(SplitBrain::new(1), 1),
                    GoodRounds::every(4),
                ))
            })
            .initial_factory(|_| (0..8).map(|i| i % 2).collect())
            .check_predicate(PAlpha::new(1))
            .max_rounds(100)
            .run(0..10);
        assert_eq!(result.runs, 10);
        assert_eq!(result.consensus, 10);
        assert!(result.all_consensus_ok(), "{result}");
        assert_eq!(result.predicate_satisfaction[0].1, 10);
        assert!(result.to_string().contains("split-brain"));
    }

    #[test]
    fn fault_free_defaults_decide_fast() {
        let params = AteParams::balanced(5, 0).unwrap();
        let result = Scenario::new("default", Ate::<u64>::new(params), 5).run(0..5);
        assert!(result.all_consensus_ok());
        assert!(result.rounds.as_ref().unwrap().max <= 2.0);
        assert_eq!(result.decided_fraction(), 1.0);
    }
}
