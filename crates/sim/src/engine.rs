//! The lockstep round engine.
//!
//! Executes an HO machine exactly as §2.1 prescribes: in each round every
//! process (1) emits messages via its sending function, (2) the
//! *environment* (an [`Adversary`]) turns the intended message matrix
//! into the delivered one, (3) every process applies its transition
//! function to its reception vector. The engine records intended and
//! delivered matrices, derives `HO`/`SHO` sets, snapshots decisions, and
//! checks the consensus specification at the end.

use crate::error::SimError;
use heardof_adversary::{Adversary, NoFaults};
use heardof_engine::{OutcomeView, ProcessCore};
use heardof_model::{
    check_consensus, ConsensusVerdict, HoAlgorithm, MessageMatrix, ProcessId, ReceptionVector,
    Round, RoundDetail, RoundRecord, RoundSets, RunTrace, TraceLevel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The result of simulating one run.
#[derive(Clone, Debug)]
pub struct RunOutcome<A: HoAlgorithm> {
    /// Everything that happened, round by round.
    pub trace: RunTrace<A>,
    /// The consensus-spec verdict over the trace.
    pub verdict: ConsensusVerdict<A::Value>,
    /// How many rounds were executed.
    pub rounds_executed: usize,
}

impl<A: HoAlgorithm> RunOutcome<A> {
    /// `true` iff the run was safe *and* every process decided.
    pub fn consensus_ok(&self) -> bool {
        self.verdict.consensus_reached()
    }

    /// `true` iff no safety clause was violated.
    pub fn is_safe(&self) -> bool {
        self.verdict.is_safe()
    }

    /// `true` iff every process decided within the run.
    ///
    /// Note: shadows the identical [`OutcomeView::all_decided`]; kept
    /// inherent so callers need no trait import. Both read the verdict.
    pub fn all_decided(&self) -> bool {
        self.verdict.all_decided
    }

    /// The round by which the last process decided, if all decided.
    ///
    /// Note: shadows [`OutcomeView::last_decision_round`], which
    /// answers the same question as a plain `u64` (the
    /// substrate-neutral type); this inherent version keeps the sim's
    /// richer [`Round`] domain type for existing callers.
    pub fn last_decision_round(&self) -> Option<Round> {
        self.verdict.last_decision_round()
    }

    /// The round of `p`'s decision, if it decided.
    pub fn decision_round(&self, p: ProcessId) -> Option<Round> {
        self.verdict.decisions[p.index()].as_ref().map(|(r, _)| *r)
    }

    /// The common decision value, if anyone decided and no one disagreed.
    pub fn decided_value(&self) -> Option<&A::Value> {
        if !self.is_safe() {
            return None;
        }
        self.verdict
            .decisions
            .iter()
            .find_map(|d| d.as_ref().map(|(_, v)| v))
    }
}

/// The substrate-neutral outcome surface, answered from the verdict —
/// the same accessors (`all_decided`, `agreement_ok`,
/// `last_decision_round` as a plain round number) every deployment
/// substrate's outcome exposes.
impl<A: HoAlgorithm> OutcomeView for RunOutcome<A> {
    type Value = A::Value;

    fn num_processes(&self) -> usize {
        self.verdict.decisions.len()
    }

    fn decision_of(&self, p: usize) -> Option<&A::Value> {
        self.verdict.decisions[p].as_ref().map(|(_, v)| v)
    }

    fn decision_round_of(&self, p: usize) -> Option<u64> {
        self.verdict.decisions[p].as_ref().map(|(r, _)| r.get())
    }
}

/// A configurable single-run simulator (consuming builder).
///
/// # Examples
///
/// ```
/// use heardof_core::{Ate, AteParams};
/// use heardof_sim::Simulator;
///
/// let algo: Ate<u64> = Ate::new(AteParams::balanced(5, 0)?);
/// let outcome = Simulator::new(algo, 5)
///     .initial_values([3u64, 1, 4, 1, 5])
///     .seed(7)
///     .run_until_decided(100)?;
/// assert!(outcome.consensus_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulator<A: HoAlgorithm> {
    algo: A,
    n: usize,
    adversary: Box<dyn Adversary<A::Msg>>,
    initial: Option<Vec<A::Value>>,
    seed: u64,
    trace_level: TraceLevel,
    extra_rounds: usize,
}

impl<A: HoAlgorithm> Simulator<A> {
    /// A simulator for `algo` on `n` processes, with perfect
    /// communication, seed 0 and full trace recording.
    pub fn new(algo: A, n: usize) -> Self {
        Simulator {
            algo,
            n,
            adversary: Box::new(NoFaults),
            initial: None,
            seed: 0,
            trace_level: TraceLevel::Full,
            extra_rounds: 0,
        }
    }

    /// Installs the environment (default: [`NoFaults`]).
    pub fn adversary(mut self, adversary: impl Adversary<A::Msg> + 'static) -> Self {
        self.adversary = Box::new(adversary);
        self
    }

    /// Sets the initial configuration (one value per process).
    pub fn initial_values<I>(mut self, values: I) -> Self
    where
        I: IntoIterator<Item = A::Value>,
    {
        self.initial = Some(values.into_iter().collect());
        self
    }

    /// Seeds the run's RNG (passed to the adversary).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects how much detail the trace keeps.
    pub fn trace_level(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Keeps running `extra` rounds after everyone has decided, to
    /// exercise decision irrevocability under continued faults.
    pub fn extra_rounds_after_decision(mut self, extra: usize) -> Self {
        self.extra_rounds = extra;
        self
    }

    fn take_initial(&mut self) -> Result<Vec<A::Value>, SimError> {
        let initial = self.initial.take().ok_or(SimError::MissingInitialValues)?;
        if initial.len() != self.n {
            return Err(SimError::WrongInitialArity {
                expected: self.n,
                actual: initial.len(),
            });
        }
        if self.n == 0 {
            return Err(SimError::EmptySystem);
        }
        Ok(initial)
    }

    /// Runs until every process has decided (plus any configured extra
    /// rounds), or until `max_rounds` have executed.
    ///
    /// # Errors
    ///
    /// [`SimError`] if the initial configuration is missing or malformed.
    pub fn run_until_decided(mut self, max_rounds: usize) -> Result<RunOutcome<A>, SimError> {
        let initial = self.take_initial()?;
        Ok(self.execute(initial, max_rounds, true))
    }

    /// Runs exactly `rounds` rounds regardless of decisions.
    ///
    /// # Errors
    ///
    /// [`SimError`] if the initial configuration is missing or malformed.
    pub fn run_rounds(mut self, rounds: usize) -> Result<RunOutcome<A>, SimError> {
        let initial = self.take_initial()?;
        Ok(self.execute(initial, rounds, false))
    }

    fn execute(
        &mut self,
        initial: Vec<A::Value>,
        max_rounds: usize,
        stop_on_decision: bool,
    ) -> RunOutcome<A> {
        let n = self.n;
        let algo = self.algo.clone();
        let mut rng = StdRng::seed_from_u64(self.seed);
        // One HO-machine per process — the same `ProcessCore` the
        // byte-level substrates drive through their `RoundEngine`s; the
        // simulator's "wire" is an abstract matrix shaped by the
        // adversary instead of coded frames.
        let mut cores: Vec<ProcessCore<A>> = initial
            .iter()
            .enumerate()
            .map(|(i, v)| ProcessCore::new(algo.clone(), ProcessId::new(i as u32), n, v.clone()))
            .collect();
        let mut trace: RunTrace<A> = RunTrace::new(n, initial);
        let mut rounds_executed = 0;
        let mut decided_since = None;
        // One reception vector and one intended matrix for the whole
        // run, refilled per process and per round.
        let mut rx = ReceptionVector::new(n);
        let mut intended = MessageMatrix::empty(n);

        for r in 1..=max_rounds as u64 {
            let round = Round::new(r);
            // (1) Sending functions, applied to start-of-round states.
            intended.refill(|sender, dest| Some(cores[sender.index()].send_to(round, dest)));
            // (2) The environment decides what arrives.
            let delivered = self.adversary.deliver(round, &intended, &mut rng);
            let sets = RoundSets::from_matrices(&intended, &delivered);
            // (3) Transition functions on reception vectors.
            for (p, core) in cores.iter_mut().enumerate() {
                delivered.column_into(ProcessId::new(p as u32), &mut rx);
                core.transition(round, &rx);
            }
            let decisions: Vec<Option<A::Value>> = cores.iter().map(|c| c.decision_now()).collect();
            let all_decided = decisions.iter().all(|d| d.is_some());
            trace.push(RoundRecord {
                round,
                sets,
                decisions,
                detail: match self.trace_level {
                    TraceLevel::Full => Some(RoundDetail {
                        intended: intended.clone(),
                        delivered,
                        states_after: cores.iter().map(|c| c.state().clone()).collect(),
                    }),
                    TraceLevel::SetsOnly => None,
                },
            });
            rounds_executed = r as usize;

            if stop_on_decision && all_decided {
                let since = *decided_since.get_or_insert(r);
                if r - since >= self.extra_rounds as u64 {
                    break;
                }
            }
        }

        let verdict = check_consensus(&trace);
        RunOutcome {
            trace,
            verdict,
            rounds_executed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_adversary::{Budgeted, GoodRounds, RandomCorruption, RandomOmission, WithSchedule};
    use heardof_core::{Ate, AteParams};
    use heardof_model::History;
    use heardof_predicates::{CommPredicate, PAlpha};

    fn ate(n: usize, alpha: u32) -> Ate<u64> {
        Ate::new(AteParams::balanced(n, alpha).unwrap())
    }

    #[test]
    fn fault_free_unanimous_decides_in_one_round() {
        let outcome = Simulator::new(ate(5, 0), 5)
            .initial_values(vec![4u64; 5])
            .run_until_decided(10)
            .unwrap();
        assert!(outcome.consensus_ok());
        assert_eq!(outcome.last_decision_round(), Some(Round::new(1)));
        assert_eq!(outcome.decided_value(), Some(&4));
    }

    #[test]
    fn fault_free_mixed_decides_in_two_rounds() {
        let outcome = Simulator::new(ate(5, 0), 5)
            .initial_values([1u64, 2, 2, 3, 1])
            .run_until_decided(10)
            .unwrap();
        assert!(outcome.consensus_ok());
        assert_eq!(outcome.last_decision_round(), Some(Round::new(2)));
    }

    #[test]
    fn corrupted_run_stays_safe_and_decides_on_good_rounds() {
        let alpha = 2;
        let adversary = WithSchedule::new(
            Budgeted::new(RandomCorruption::new(alpha, 1.0), alpha),
            GoodRounds::every(4),
        );
        let outcome = Simulator::new(ate(12, alpha), 12)
            .initial_values((0..12).map(|i| i as u64 % 3))
            .adversary(adversary)
            .seed(99)
            .run_until_decided(100)
            .unwrap();
        assert!(outcome.consensus_ok(), "verdict: {:?}", outcome.verdict);
        assert!(PAlpha::new(alpha).holds(&outcome.trace));
    }

    #[test]
    fn missing_initial_values_error() {
        let err = Simulator::new(ate(3, 0), 3)
            .run_until_decided(10)
            .unwrap_err();
        assert!(matches!(err, SimError::MissingInitialValues));
    }

    #[test]
    fn wrong_arity_error() {
        let err = Simulator::new(ate(3, 0), 3)
            .initial_values([1u64])
            .run_until_decided(10)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::WrongInitialArity {
                expected: 3,
                actual: 1
            }
        ));
    }

    #[test]
    fn run_rounds_does_not_stop_on_decision() {
        let outcome = Simulator::new(ate(4, 0), 4)
            .initial_values(vec![1u64; 4])
            .run_rounds(7)
            .unwrap();
        assert_eq!(outcome.rounds_executed, 7);
        assert_eq!(outcome.trace.num_rounds(), 7);
        assert!(outcome.consensus_ok());
    }

    #[test]
    fn extra_rounds_extend_past_decision() {
        let outcome = Simulator::new(ate(4, 0), 4)
            .initial_values(vec![1u64; 4])
            .extra_rounds_after_decision(5)
            .run_until_decided(100)
            .unwrap();
        assert_eq!(outcome.rounds_executed, 6); // decided at 1, plus 5
        assert!(outcome.consensus_ok());
    }

    #[test]
    fn sets_only_trace_skips_detail() {
        let outcome = Simulator::new(ate(4, 0), 4)
            .initial_values(vec![1u64; 4])
            .trace_level(TraceLevel::SetsOnly)
            .run_until_decided(10)
            .unwrap();
        assert!(outcome.trace.rounds()[0].detail.is_none());
        assert!(outcome.consensus_ok());
    }

    #[test]
    fn deterministic_under_same_seed() {
        let build = |seed| {
            Simulator::new(ate(12, 2), 12)
                .initial_values((0..12).map(|i| i as u64))
                .adversary(Budgeted::new(RandomCorruption::new(2, 0.7), 2))
                .seed(seed)
                .run_rounds(20)
                .unwrap()
        };
        let a = build(5);
        let b = build(5);
        let c = build(6);
        for r in 0..20 {
            let round = Round::new(r + 1);
            assert_eq!(
                a.trace.round_sets(round),
                b.trace.round_sets(round),
                "same seed must replay identically"
            );
        }
        // Different seeds should diverge somewhere (overwhelmingly likely).
        let diverged = (0..20).any(|r| {
            a.trace.round_sets(Round::new(r + 1)) != c.trace.round_sets(Round::new(r + 1))
        });
        assert!(diverged);
    }

    #[test]
    fn omissions_delay_but_do_not_corrupt() {
        let outcome = Simulator::new(ate(6, 0), 6)
            .initial_values([1u64, 1, 2, 2, 1, 2])
            .adversary(WithSchedule::new(
                RandomOmission::new(0.6),
                GoodRounds::every(5),
            ))
            .seed(3)
            .run_until_decided(60)
            .unwrap();
        assert!(outcome.consensus_ok());
        assert!(heardof_predicates::PBenign.holds(&outcome.trace));
    }
}
