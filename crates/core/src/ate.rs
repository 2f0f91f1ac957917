//! The `A_{T,E}` algorithm (Algorithm 1, §3).
//!
//! A threshold parametrization of the benign-case *OneThirdRule*
//! algorithm. Every round, each process broadcasts its estimate `x_p`;
//! then
//!
//! * if it heard more than `T` processes, it sets `x_p` to the smallest
//!   most often received value (line 8),
//! * if more than `E` received values equal some `v`, it decides `v`
//!   (line 9).
//!
//! Under `P_α` with `E ≥ n/2 + α` and `T ≥ 2(n + 2α − E)`, every run is
//! safe (Propositions 1–2); under `P^{A,live}` it also terminates
//! (Proposition 3). The algorithm is *fast*: a fault-free unanimous run
//! decides in one round, any fault-free run in two.

use crate::params::AteParams;
use heardof_model::{tally, ConsensusValue, HoAlgorithm, ProcessId, ReceptionVector, Round};
use std::marker::PhantomData;

/// The `A_{T,E}` consensus algorithm over value domain `V`.
///
/// # Examples
///
/// ```
/// use heardof_core::{Ate, AteParams};
/// use heardof_model::{HoAlgorithm, ProcessId, ReceptionVector, Round};
///
/// let algo: Ate<u64> = Ate::new(AteParams::balanced(4, 0)?);
/// let mut state = algo.init(ProcessId::new(0), 4, 7);
///
/// // Everyone reports 7: |HO| = 4 > T and 4 > E, so p updates and decides.
/// let mut rx = ReceptionVector::new(4);
/// for q in 0..4 {
///     rx.set(ProcessId::new(q), 7u64);
/// }
/// algo.transition(Round::FIRST, ProcessId::new(0), &mut state, &rx);
/// assert_eq!(algo.decision(&state), Some(7));
/// # Ok::<(), heardof_core::ParamError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Ate<V = u64> {
    params: AteParams,
    nested_guard: bool,
    _values: PhantomData<fn() -> V>,
}

/// Per-process state of `A_{T,E}`: the estimate `x_p` and the (sticky)
/// decision.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AteState<V> {
    /// The current estimate `x_p`.
    pub x: V,
    /// The decision, once taken (irrevocable).
    pub decided: Option<V>,
}

impl<V: ConsensusValue> Ate<V> {
    /// Creates the algorithm from validated parameters.
    pub fn new(params: AteParams) -> Self {
        Ate {
            params,
            nested_guard: false,
            _values: PhantomData,
        }
    }

    /// The *nested-guard* reading of Algorithm 1 (ablation variant).
    ///
    /// The paper's listing typographically nests the decision guard
    /// (line 9) under `|HO(p,r)| > T` (line 7). The proofs use the
    /// unnested reading — Proposition 3 fires decisions from
    /// `|SHO(p,r)| > E` alone — so [`Ate::new`] is unnested. This
    /// constructor builds the nested variant: *safety* is unaffected
    /// (the safety lemmas only weaken when fewer decisions happen), but
    /// with `T > E` parametrizations the nested variant can miss
    /// decisions the liveness predicate promises. See the
    /// `ablation_guard` benchmark.
    pub fn new_nested(params: AteParams) -> Self {
        Ate {
            params,
            nested_guard: true,
            _values: PhantomData,
        }
    }

    /// The parameters in force.
    pub fn params(&self) -> &AteParams {
        &self.params
    }

    /// `true` if this instance uses the nested-guard reading.
    pub fn is_nested_guard(&self) -> bool {
        self.nested_guard
    }
}

impl<V: ConsensusValue> HoAlgorithm for Ate<V> {
    type Value = V;
    type Msg = V;
    type State = AteState<V>;

    fn name(&self) -> &'static str {
        if self.nested_guard {
            "A_{T,E}(nested)"
        } else {
            "A_{T,E}"
        }
    }

    fn init(&self, _p: ProcessId, _n: usize, initial: V) -> AteState<V> {
        AteState {
            x: initial,
            decided: None,
        }
    }

    fn send(&self, _round: Round, _p: ProcessId, state: &AteState<V>, _dest: ProcessId) -> V {
        state.x.clone()
    }

    fn transition(
        &self,
        _round: Round,
        _p: ProcessId,
        state: &mut AteState<V>,
        received: &ReceptionVector<V>,
    ) {
        // One pass without a branch on the slots: |HO(p, r)| and how many
        // receptions equal the process's own estimate x_p.
        let (mut heard, mut own) = (0, 0);
        for slot in received.slots() {
            heard += usize::from(slot.is_some());
            own += usize::from(slot.as_ref() == Some(&state.x));
        }
        // Line 7: the estimate moves once more than T processes were
        // heard. Line 9: the listing nests the decision under that guard
        // typographically, but the proofs treat it as independent: the
        // Termination argument (Prop. 3) fires decisions from
        // |SHO(p, r)| > E alone, and the safety lemmas only ever use
        // |R_p^r(v)| > E. With the canonical T = E the two readings
        // coincide anyway; the nested variant exists for the ablation
        // study.
        let update = self.params.t().exceeded_by(heard);
        let may_decide = state.decided.is_none() && (update || !self.nested_guard);
        if !update && !may_decide {
            return;
        }
        // x_p holds a strict majority of the receptions: it is the one
        // most often received value, so line 8 keeps it. If the other
        // receptions together cannot exceed E, no other value can, and
        // line 9 decides x_p exactly when it exceeds E itself. Both hold
        // for any (T, E), valid or not, so no count is needed.
        let e = self.params.e();
        if 2 * own > heard && !e.exceeded_by(heard - own) {
            if may_decide && e.exceeded_by(own) {
                state.decided = Some(state.x.clone());
            }
            return;
        }
        // One count serves both lines. Values arrive in ascending order,
        // so the first to reach the highest count is the *smallest* most
        // often received (line 8), and the first above E is the smallest
        // candidate — deterministic under broken (unchecked) parameters
        // admitting several; under valid E ≥ n/2 at most one exists
        // (Lemma 2).
        let mut most: Option<(&V, usize)> = None;
        let mut above_e = None;
        tally(received.messages(), |v, count| {
            if most.is_none_or(|(_, c)| count > c) {
                most = Some((v, count));
            }
            if above_e.is_none() && e.exceeded_by(count) {
                above_e = Some(v);
            }
        });
        if let (true, Some((v, _))) = (update, most) {
            state.x.clone_from(v);
        }
        if may_decide {
            state.decided = above_e.cloned();
        }
    }

    fn decision(&self, state: &AteState<V>) -> Option<V> {
        state.decided.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::Threshold;
    use heardof_model::ConsensusValue;
    use proptest::prelude::*;

    /// `Ate::transition` as it stood before the own-majority shortcut —
    /// every call counted through `tally` — verbatim but for `self`:
    /// the oracle for every state the shortcut leaves.
    fn tally_only_transition<V: ConsensusValue>(
        algo: &Ate<V>,
        state: &mut AteState<V>,
        received: &ReceptionVector<V>,
    ) {
        let update = algo.params.t().exceeded_by(received.heard_count());
        let may_decide = state.decided.is_none() && (update || !algo.nested_guard);
        if !update && !may_decide {
            return;
        }
        let mut most: Option<(&V, usize)> = None;
        let mut above_e = None;
        tally(received.messages(), |v, count| {
            if most.is_none_or(|(_, c)| count > c) {
                most = Some((v, count));
            }
            if above_e.is_none() && algo.params.e().exceeded_by(count) {
                above_e = Some(v);
            }
        });
        if let (true, Some((v, _))) = (update, most) {
            state.x.clone_from(v);
        }
        if may_decide {
            state.decided = above_e.cloned();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Random reception vectors over a small value domain — n from
        /// 1 to 70, a quarter of the slots omissions — from a random own
        /// estimate (in the domain or not), decided or not, under
        /// arbitrary unchecked T and E in `0 ..= n` (E < n/2 included,
        /// where several values clear E), nested and unnested: the
        /// shortcut leaves the state the tally-only body leaves.
        #[test]
        fn the_own_majority_shortcut_leaves_the_tally_only_state(
            slots in proptest::collection::vec(0u8..=255, 1..=70),
            values in 1u8..5,
            own in 0u8..6,
            decided in 0u8..4,
            t in any::<u32>(),
            e in any::<u32>(),
        ) {
            let n = slots.len();
            let mut rx = ReceptionVector::new(n);
            for (q, &slot) in slots.iter().enumerate() {
                if slot >= 64 {
                    rx.set(ProcessId::new(q as u32), u64::from(slot % values));
                }
            }
            let quarters = |pick: u32| Threshold::quarters(pick % (4 * n as u32 + 1));
            let params = AteParams::unchecked(n, 0, quarters(t), quarters(e));
            let start = AteState {
                x: u64::from(own % (values + 1)),
                decided: (decided > 0).then_some(u64::from(decided)),
            };
            for algo in [Ate::new(params), Ate::new_nested(params)] {
                let (mut new, mut old) = (start.clone(), start.clone());
                algo.transition(Round::FIRST, ProcessId::new(0), &mut new, &rx);
                tally_only_transition(&algo, &mut old, &rx);
                prop_assert_eq!(new, old, "{} over {:?}", algo.params(), rx);
            }
        }
    }

    fn rx_of(n: usize, values: &[(u32, u64)]) -> ReceptionVector<u64> {
        let mut rx = ReceptionVector::new(n);
        for (sender, v) in values {
            rx.set(ProcessId::new(*sender), *v);
        }
        rx
    }

    fn algo(n: usize, alpha: u32) -> Ate<u64> {
        Ate::new(AteParams::balanced(n, alpha).unwrap())
    }

    #[test]
    fn no_update_below_threshold() {
        // n=6, balanced α=0: T = E = 4 (3E ≥ 12 → raw 16).
        let a = algo(6, 0);
        let mut s = a.init(ProcessId::new(0), 6, 9);
        // Hears only 4 processes: 4 > 4 is false → x unchanged.
        let rx = rx_of(6, &[(0, 1), (1, 1), (2, 1), (3, 1)]);
        a.transition(Round::FIRST, ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.x, 9);
        assert_eq!(s.decided, None);
    }

    #[test]
    fn update_picks_smallest_most_frequent() {
        let a = algo(6, 0);
        let mut s = a.init(ProcessId::new(0), 6, 9);
        // 5 heard (> 4): values 2×7, 2×3, 1×5 → tie between 3 and 7 → 3.
        let rx = rx_of(6, &[(0, 7), (1, 7), (2, 3), (3, 3), (4, 5)]);
        a.transition(Round::FIRST, ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.x, 3);
        assert_eq!(s.decided, None); // no value above E=4
    }

    #[test]
    fn decision_fires_above_e() {
        let a = algo(6, 0);
        let mut s = a.init(ProcessId::new(0), 6, 9);
        let rx = rx_of(6, &[(0, 7), (1, 7), (2, 7), (3, 7), (4, 7)]);
        a.transition(Round::FIRST, ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.x, 7);
        assert_eq!(s.decided, Some(7));
    }

    #[test]
    fn decision_is_sticky() {
        let a = algo(6, 0);
        let mut s = a.init(ProcessId::new(0), 6, 9);
        let rx7 = rx_of(6, &[(0, 7), (1, 7), (2, 7), (3, 7), (4, 7)]);
        a.transition(Round::FIRST, ProcessId::new(0), &mut s, &rx7);
        assert_eq!(s.decided, Some(7));
        // Later rounds cannot change the decision, even with unanimity
        // on another value (possible only outside the predicate).
        let rx8 = rx_of(6, &[(0, 8), (1, 8), (2, 8), (3, 8), (4, 8), (5, 8)]);
        a.transition(Round::new(2), ProcessId::new(0), &mut s, &rx8);
        assert_eq!(s.decided, Some(7));
        assert_eq!(s.x, 8); // the estimate still tracks the round
    }

    #[test]
    fn decision_guard_independent_of_update_guard() {
        // T > E is legal (unchecked here): a process hearing few senders
        // but > E copies of v must still decide (Prop. 3's argument).
        let params = AteParams::unchecked(
            8,
            0,
            Threshold::integer(7), // T
            Threshold::integer(4), // E
        );
        let a: Ate<u64> = Ate::new(params);
        let mut s = a.init(ProcessId::new(0), 8, 1);
        let rx = rx_of(8, &[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
        a.transition(Round::FIRST, ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.decided, Some(5), "decision must not require |HO| > T");
        assert_eq!(s.x, 1, "but the estimate update does");
    }

    #[test]
    fn empty_reception_is_noop() {
        let a = algo(4, 0);
        let mut s = a.init(ProcessId::new(1), 4, 3);
        let rx = ReceptionVector::new(4);
        a.transition(Round::FIRST, ProcessId::new(1), &mut s, &rx);
        assert_eq!(s.x, 3);
        assert_eq!(s.decided, None);
    }

    #[test]
    fn send_broadcasts_estimate() {
        let a = algo(4, 0);
        let s = a.init(ProcessId::new(0), 4, 42);
        for dest in 0..4 {
            assert_eq!(
                a.send(Round::FIRST, ProcessId::new(0), &s, ProcessId::new(dest)),
                42
            );
        }
        assert!(a.is_broadcast());
    }

    #[test]
    fn smallest_candidate_wins_under_broken_params() {
        // E = 1 (invalid: below n/2): both 3 and 9 exceed it; the smaller
        // value must be chosen deterministically.
        let params = AteParams::unchecked(6, 0, Threshold::integer(1), Threshold::integer(1));
        let a: Ate<u64> = Ate::new(params);
        let mut s = a.init(ProcessId::new(0), 6, 0);
        let rx = rx_of(6, &[(0, 9), (1, 9), (2, 3), (3, 3)]);
        a.transition(Round::FIRST, ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.decided, Some(3));
    }

    #[test]
    fn nested_variant_requires_update_guard_for_decisions() {
        // T = 7 > E = 4 (unchecked; legal shapes exist, see the
        // ablation bench): 5 copies of v from only 5 senders.
        let params = AteParams::unchecked(8, 0, Threshold::integer(7), Threshold::integer(4));
        let rx = rx_of(8, &[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);

        let unnested: Ate<u64> = Ate::new(params);
        let mut s = unnested.init(ProcessId::new(0), 8, 1);
        unnested.transition(Round::FIRST, ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.decided, Some(5));
        assert!(!unnested.is_nested_guard());

        let nested: Ate<u64> = Ate::new_nested(params);
        assert_eq!(nested.name(), "A_{T,E}(nested)");
        assert!(nested.is_nested_guard());
        let mut s = nested.init(ProcessId::new(0), 8, 1);
        nested.transition(Round::FIRST, ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.decided, None, "|HO| = 5 ≤ T = 7 blocks the nested guard");

        // A fuller round unblocks it.
        let rx = rx_of(
            8,
            &[
                (0, 5),
                (1, 5),
                (2, 5),
                (3, 5),
                (4, 5),
                (5, 9),
                (6, 9),
                (7, 9),
            ],
        );
        nested.transition(Round::new(2), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.decided, Some(5));
    }

    #[test]
    fn works_with_string_values() {
        let a: Ate<String> = Ate::new(AteParams::balanced(3, 0).unwrap());
        let mut s = a.init(ProcessId::new(0), 3, "b".to_string());
        let mut rx = ReceptionVector::new(3);
        rx.set(ProcessId::new(0), "a".to_string());
        rx.set(ProcessId::new(1), "a".to_string());
        rx.set(ProcessId::new(2), "a".to_string());
        a.transition(Round::FIRST, ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.x, "a");
        assert_eq!(s.decided, Some("a".to_string()));
    }
}
