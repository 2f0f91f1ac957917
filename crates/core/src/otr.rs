//! The *OneThirdRule* algorithm of the benign HO model ([6]).
//!
//! The baseline `A_{T,E}` parametrizes: both thresholds equal `2n/3`.
//! Implemented here *independently* (plain integer comparisons
//! `3·count > 2n`) so the equivalence claim of §3.3 — `A_{2n/3,2n/3}`
//! coincides with OneThirdRule — can be tested differentially rather
//! than by construction.

use heardof_model::{tally, ConsensusValue, HoAlgorithm, ProcessId, ReceptionVector, Round};
use std::marker::PhantomData;

/// The OneThirdRule consensus algorithm (benign transmission faults).
///
/// # Examples
///
/// ```
/// use heardof_core::OneThirdRule;
/// use heardof_model::{HoAlgorithm, ProcessId, ReceptionVector, Round};
///
/// let algo: OneThirdRule<u64> = OneThirdRule::new(3);
/// let mut state = algo.init(ProcessId::new(0), 3, 5);
/// let mut rx = ReceptionVector::new(3);
/// for q in 0..3 {
///     rx.set(ProcessId::new(q), 5u64);
/// }
/// algo.transition(Round::FIRST, ProcessId::new(0), &mut state, &rx);
/// assert_eq!(algo.decision(&state), Some(5));
/// ```
#[derive(Clone, Debug)]
pub struct OneThirdRule<V = u64> {
    n: usize,
    _values: PhantomData<fn() -> V>,
}

/// Per-process state of OneThirdRule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OtrState<V> {
    /// The current estimate `x_p`.
    pub x: V,
    /// The decision, once taken (irrevocable).
    pub decided: Option<V>,
}

impl<V: ConsensusValue> OneThirdRule<V> {
    /// Creates the algorithm for a system of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "system must have at least one process");
        OneThirdRule {
            n,
            _values: PhantomData,
        }
    }

    /// System size `n`.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl<V: ConsensusValue> HoAlgorithm for OneThirdRule<V> {
    type Value = V;
    type Msg = V;
    type State = OtrState<V>;

    fn name(&self) -> &'static str {
        "OneThirdRule"
    }

    fn init(&self, _p: ProcessId, _n: usize, initial: V) -> OtrState<V> {
        OtrState {
            x: initial,
            decided: None,
        }
    }

    fn send(&self, _round: Round, _p: ProcessId, state: &OtrState<V>, _dest: ProcessId) -> V {
        state.x.clone()
    }

    fn transition(
        &self,
        _round: Round,
        _p: ProcessId,
        state: &mut OtrState<V>,
        received: &ReceptionVector<V>,
    ) {
        // |HO| > 2n/3, in exact integer arithmetic.
        let update = 3 * received.heard_count() > 2 * self.n;
        if !update && state.decided.is_some() {
            return;
        }
        // One ascending count: the first value to reach the highest count
        // is the smallest most often received, the first above 2n/3 the
        // smallest decidable one.
        let mut most: Option<(&V, usize)> = None;
        let mut above = None;
        tally(received.messages(), |v, count| {
            if most.is_none_or(|(_, c)| count > c) {
                most = Some((v, count));
            }
            if above.is_none() && 3 * count > 2 * self.n {
                above = Some(v);
            }
        });
        if let (true, Some((v, _))) = (update, most) {
            state.x.clone_from(v);
        }
        if state.decided.is_none() {
            state.decided = above.cloned();
        }
    }

    fn decision(&self, state: &OtrState<V>) -> Option<V> {
        state.decided.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rx_of(n: usize, values: &[(u32, u64)]) -> ReceptionVector<u64> {
        let mut rx = ReceptionVector::new(n);
        for (sender, v) in values {
            rx.set(ProcessId::new(*sender), *v);
        }
        rx
    }

    #[test]
    fn threshold_is_two_thirds() {
        let a: OneThirdRule<u64> = OneThirdRule::new(6);
        let mut s = a.init(ProcessId::new(0), 6, 1);
        // 4 messages = 2n/3 exactly: not *more than* → no update.
        let rx = rx_of(6, &[(0, 2), (1, 2), (2, 2), (3, 2)]);
        a.transition(Round::FIRST, ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.x, 1);
        // 5 messages: update.
        let rx = rx_of(6, &[(0, 2), (1, 2), (2, 2), (3, 2), (4, 3)]);
        a.transition(Round::FIRST, ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.x, 2);
        assert_eq!(s.decided, None); // only 4 × 2 ≤ 2n/3… 4 > 4 false
    }

    #[test]
    fn unanimous_round_decides() {
        let a: OneThirdRule<u64> = OneThirdRule::new(4);
        let mut s = a.init(ProcessId::new(0), 4, 9);
        let rx = rx_of(4, &[(0, 9), (1, 9), (2, 9), (3, 9)]);
        a.transition(Round::FIRST, ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.decided, Some(9));
    }

    #[test]
    fn tie_breaks_toward_smallest() {
        let a: OneThirdRule<u64> = OneThirdRule::new(4);
        let mut s = a.init(ProcessId::new(0), 4, 9);
        let rx = rx_of(4, &[(0, 5), (1, 5), (2, 2), (3, 2)]);
        a.transition(Round::FIRST, ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.x, 2);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_panics() {
        let _: OneThirdRule<u64> = OneThirdRule::new(0);
    }
}
