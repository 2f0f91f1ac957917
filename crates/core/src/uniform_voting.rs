//! The *UniformVoting* algorithm of the benign HO model ([6]).
//!
//! The baseline `U_{T,E,α}` parametrizes: `T = E = n/2`, `α = 0`
//! (a single vote certifies adoption). Implemented independently with
//! plain integer comparisons (`2·count > n`) so the correspondence with
//! `U_{n/2,n/2,0}` can be tested differentially.

use crate::ute::UteMsg;
use heardof_model::{tally, ConsensusValue, HoAlgorithm, ProcessId, ReceptionVector, Round};

/// The UniformVoting consensus algorithm (benign transmission faults).
///
/// Shares the message alphabet [`UteMsg`] with `U_{T,E,α}` so the two
/// can run against the same adversaries and network substrates.
///
/// # Examples
///
/// ```
/// use heardof_core::UniformVoting;
/// use heardof_model::HoAlgorithm;
///
/// let algo: UniformVoting<u64> = UniformVoting::new(5, 0);
/// assert_eq!(algo.name(), "UniformVoting");
/// ```
#[derive(Clone, Debug)]
pub struct UniformVoting<V = u64> {
    n: usize,
    default_value: V,
}

/// Per-process state of UniformVoting.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UvState<V> {
    /// The current estimate `x_p`.
    pub x: V,
    /// The pending vote (`None` = `?`).
    pub vote: Option<V>,
    /// The decision, once taken (irrevocable).
    pub decided: Option<V>,
}

impl<V: ConsensusValue> UniformVoting<V> {
    /// Creates the algorithm for `n` processes with default value `v₀`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, default_value: V) -> Self {
        assert!(n > 0, "system must have at least one process");
        UniformVoting { n, default_value }
    }

    /// System size `n`.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl<V: ConsensusValue> HoAlgorithm for UniformVoting<V> {
    type Value = V;
    type Msg = UteMsg<V>;
    type State = UvState<V>;

    fn name(&self) -> &'static str {
        "UniformVoting"
    }

    fn init(&self, _p: ProcessId, _n: usize, initial: V) -> UvState<V> {
        UvState {
            x: initial,
            vote: None,
            decided: None,
        }
    }

    fn send(&self, round: Round, _p: ProcessId, state: &UvState<V>, _dest: ProcessId) -> UteMsg<V> {
        if round.is_first_of_phase() {
            UteMsg::Est(state.x.clone())
        } else {
            UteMsg::Vote(state.vote.clone())
        }
    }

    fn transition(
        &self,
        round: Round,
        _p: ProcessId,
        state: &mut UvState<V>,
        received: &ReceptionVector<UteMsg<V>>,
    ) {
        if round.is_first_of_phase() {
            let mut majority = None;
            tally(received.messages().filter_map(UteMsg::est), |v, count| {
                if majority.is_none() && 2 * count > self.n {
                    majority = Some(v);
                }
            });
            if let Some(v) = majority {
                state.vote = Some(v.clone());
            }
        } else {
            // Benign case: a single true vote certifies adoption (the
            // smallest one voted, as the count visits in ascending order).
            let mut smallest = None;
            let mut majority = None;
            tally(
                received.messages().filter_map(UteMsg::true_vote),
                |v, count| {
                    smallest = smallest.or(Some(v));
                    if majority.is_none() && 2 * count > self.n {
                        majority = Some(v);
                    }
                },
            );
            state.x = smallest.unwrap_or(&self.default_value).clone();
            if state.decided.is_none() {
                state.decided = majority.cloned();
            }
            state.vote = None;
        }
    }

    fn decision(&self, state: &UvState<V>) -> Option<V> {
        state.decided.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est_rx(n: usize, values: &[(u32, u64)]) -> ReceptionVector<UteMsg<u64>> {
        let mut rx = ReceptionVector::new(n);
        for (sender, v) in values {
            rx.set(ProcessId::new(*sender), UteMsg::Est(*v));
        }
        rx
    }

    fn vote_rx(n: usize, votes: &[(u32, Option<u64>)]) -> ReceptionVector<UteMsg<u64>> {
        let mut rx = ReceptionVector::new(n);
        for (sender, v) in votes {
            rx.set(ProcessId::new(*sender), UteMsg::Vote(*v));
        }
        rx
    }

    #[test]
    fn majority_estimate_produces_vote() {
        let a: UniformVoting<u64> = UniformVoting::new(5, 0);
        let mut s = a.init(ProcessId::new(0), 5, 9);
        let rx = est_rx(5, &[(0, 7), (1, 7), (2, 7), (3, 8)]);
        a.transition(Round::new(1), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.vote, Some(7)); // 3 of 5 > n/2
    }

    #[test]
    fn no_majority_keeps_question_mark() {
        let a: UniformVoting<u64> = UniformVoting::new(4, 0);
        let mut s = a.init(ProcessId::new(0), 4, 9);
        let rx = est_rx(4, &[(0, 7), (1, 7), (2, 8), (3, 8)]);
        a.transition(Round::new(1), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.vote, None); // 2 of 4 is not > n/2
    }

    #[test]
    fn single_vote_adopted_in_benign_model() {
        let a: UniformVoting<u64> = UniformVoting::new(5, 0);
        let mut s = a.init(ProcessId::new(0), 5, 9);
        let rx = vote_rx(5, &[(0, Some(7)), (1, None), (2, None)]);
        a.transition(Round::new(2), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.x, 7);
    }

    #[test]
    fn all_question_marks_fall_back_to_default() {
        let a: UniformVoting<u64> = UniformVoting::new(5, 42);
        let mut s = a.init(ProcessId::new(0), 5, 9);
        let rx = vote_rx(5, &[(0, None), (1, None), (2, None)]);
        a.transition(Round::new(2), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.x, 42);
    }

    #[test]
    fn majority_votes_decide() {
        let a: UniformVoting<u64> = UniformVoting::new(5, 0);
        let mut s = a.init(ProcessId::new(0), 5, 9);
        let rx = vote_rx(5, &[(0, Some(7)), (1, Some(7)), (2, Some(7)), (3, None)]);
        a.transition(Round::new(2), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.decided, Some(7));
        assert_eq!(s.vote, None);
    }
}
