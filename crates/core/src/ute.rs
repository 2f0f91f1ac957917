//! The `U_{T,E,α}` algorithm (Algorithm 2, §4).
//!
//! A threshold parametrization of the benign-case *UniformVoting*
//! algorithm, organized in phases of two rounds:
//!
//! * **Round `2φ−1`** — broadcast the estimate `x_p`; on receiving more
//!   than `T` copies of some `v ∈ V`, cast a *true vote* for `v`
//!   (otherwise the vote stays `?`).
//! * **Round `2φ`** — broadcast the vote; on receiving at least `α + 1`
//!   messages voting `v ≠ ?`, set `x_p := v` (with `P_α`, at least one
//!   process truly voted `v`); otherwise fall back to the default value
//!   `v₀`. Decide `v` on receiving more than `E` votes for `v`. Reset
//!   the vote to `?`.
//!
//! Safety needs `P_α ∧ P^{U,safe}` with `E, T ≥ n/2 + α` (Props 5–6);
//! termination additionally needs `P^{U,live}` (Theorem 2). In exchange
//! for the *permanent* `P^{U,safe}`, the parameter range doubles:
//! `α < n/2` instead of `α < n/4`. The budget an adversary can spend
//! does not: under a floor `f` on every `|SHO(p, r)|`, a receiver has
//! at most `n − f` receptions that are lost or corrupted, and the
//! largest `min(α, n − f)` over every valid `α` is `A_{T,E}`'s largest
//! `α` (`crates/core/tests/u_budget.rs` pins this up to n = 1024). What
//! `U` buys is liveness from fewer clean receptions.

use crate::params::UteParams;
use heardof_model::{
    tally, ConsensusValue, Corruptible, HoAlgorithm, ProcessId, ReceptionVector, Round,
    ValueBearing,
};
use rand::rngs::StdRng;

/// Messages of `U_{T,E,α}`: estimates in odd rounds, votes in even ones.
///
/// The vote `None` encodes the paper's `?`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum UteMsg<V> {
    /// Round `2φ−1`: the sender's current estimate.
    Est(V),
    /// Round `2φ`: the sender's vote (`None` = `?`).
    Vote(Option<V>),
}

impl<V> UteMsg<V> {
    /// The estimate this message carries. A `Vote` arriving in an
    /// estimate round can only be a corruption artifact; it occupies HO
    /// but carries no estimate.
    pub(crate) fn est(&self) -> Option<&V> {
        match self {
            UteMsg::Est(v) => Some(v),
            UteMsg::Vote(_) => None,
        }
    }

    /// The true vote (`≠ ?`) this message carries; symmetrically, an
    /// `Est` in a vote round is ignored.
    pub(crate) fn true_vote(&self) -> Option<&V> {
        match self {
            UteMsg::Vote(v) => v.as_ref(),
            UteMsg::Est(_) => None,
        }
    }
}

impl<V> ValueBearing<V> for UteMsg<V> {
    fn value(&self) -> Option<&V> {
        match self {
            UteMsg::Est(v) => Some(v),
            UteMsg::Vote(Some(v)) => Some(v),
            UteMsg::Vote(None) => None,
        }
    }
}

impl<V: Corruptible + Clone> Corruptible for UteMsg<V> {
    /// Corrupts the carried value in place; a `?` vote stays `?` (generic
    /// code cannot conjure a `V` from nothing — adversaries that need to
    /// forge true votes substitute whole messages instead).
    fn corrupted(&self, rng: &mut StdRng) -> Self {
        match self {
            UteMsg::Est(v) => UteMsg::Est(v.corrupted(rng)),
            UteMsg::Vote(Some(v)) => UteMsg::Vote(Some(v.corrupted(rng))),
            UteMsg::Vote(None) => UteMsg::Vote(None),
        }
    }
}

/// The `U_{T,E,α}` consensus algorithm over value domain `V`.
///
/// # Examples
///
/// ```
/// use heardof_core::{Ute, UteParams};
/// use heardof_model::HoAlgorithm;
///
/// // n = 9, α = 4 < n/2 — beyond anything A_{T,E} tolerates.
/// let algo = Ute::new(UteParams::tightest(9, 4)?, 0u64);
/// assert_eq!(algo.name(), "U_{T,E,α}");
/// # Ok::<(), heardof_core::ParamError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Ute<V = u64> {
    params: UteParams,
    default_value: V,
}

/// Per-process state of `U_{T,E,α}`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UteState<V> {
    /// The current estimate `x_p`.
    pub x: V,
    /// The pending vote (`None` = `?`).
    pub vote: Option<V>,
    /// The decision, once taken (irrevocable).
    pub decided: Option<V>,
}

impl<V: ConsensusValue> Ute<V> {
    /// Creates the algorithm from validated parameters and the default
    /// value `v₀` adopted when no vote can be trusted (line 17).
    pub fn new(params: UteParams, default_value: V) -> Self {
        Ute {
            params,
            default_value,
        }
    }

    /// The parameters in force.
    pub fn params(&self) -> &UteParams {
        &self.params
    }

    /// The default value `v₀`.
    pub fn default_value(&self) -> &V {
        &self.default_value
    }
}

impl<V: ConsensusValue> HoAlgorithm for Ute<V> {
    type Value = V;
    type Msg = UteMsg<V>;
    type State = UteState<V>;

    fn name(&self) -> &'static str {
        "U_{T,E,α}"
    }

    fn init(&self, _p: ProcessId, _n: usize, initial: V) -> UteState<V> {
        UteState {
            x: initial,
            vote: None,
            decided: None,
        }
    }

    fn send(
        &self,
        round: Round,
        _p: ProcessId,
        state: &UteState<V>,
        _dest: ProcessId,
    ) -> UteMsg<V> {
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
        state: &mut UteState<V>,
        received: &ReceptionVector<UteMsg<V>>,
    ) {
        if round.is_first_of_phase() {
            // Lines 8–9: vote for a value received more than T times.
            // Under T ≥ n/2 + α at most one such value exists (Lemma 8);
            // the count's ascending order makes broken parameters
            // deterministic (the smallest wins).
            let mut above_t = None;
            tally(received.messages().filter_map(UteMsg::est), |v, count| {
                if above_t.is_none() && self.params.t().exceeded_by(count) {
                    above_t = Some(v);
                }
            });
            if let Some(v) = above_t {
                state.vote = Some(v.clone());
            }
        } else {
            // Lines 14–17: α+1 identical true votes certify that someone
            // truly voted; otherwise fall back to v₀. Lines 18–19: decide
            // on more than E votes for v. Smallest first, both.
            let mut certified = None;
            let mut above_e = None;
            tally(
                received.messages().filter_map(UteMsg::true_vote),
                |v, count| {
                    if certified.is_none() && count > self.params.alpha() as usize {
                        certified = Some(v);
                    }
                    if above_e.is_none() && self.params.e().exceeded_by(count) {
                        above_e = Some(v);
                    }
                },
            );
            state.x = certified.unwrap_or(&self.default_value).clone();
            if state.decided.is_none() {
                state.decided = above_e.cloned();
            }
            // Line 20: reset the vote for the next phase.
            state.vote = None;
        }
    }

    fn decision(&self, state: &UteState<V>) -> Option<V> {
        state.decided.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::Threshold;
    use rand::SeedableRng;

    fn algo(n: usize, alpha: u32) -> Ute<u64> {
        Ute::new(UteParams::tightest(n, alpha).unwrap(), 0u64)
    }

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
    fn sends_estimate_then_vote() {
        let a = algo(5, 1);
        let mut s = a.init(ProcessId::new(0), 5, 7);
        assert_eq!(
            a.send(Round::new(1), ProcessId::new(0), &s, ProcessId::new(1)),
            UteMsg::Est(7)
        );
        s.vote = Some(3);
        assert_eq!(
            a.send(Round::new(2), ProcessId::new(0), &s, ProcessId::new(1)),
            UteMsg::Vote(Some(3))
        );
    }

    #[test]
    fn true_vote_needs_more_than_t() {
        // n=5, α=1: T = 3.5 → need 4 identical estimates.
        let a = algo(5, 1);
        let mut s = a.init(ProcessId::new(0), 5, 9);
        let rx = est_rx(5, &[(0, 7), (1, 7), (2, 7), (3, 8)]);
        a.transition(Round::new(1), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.vote, None, "3 copies ≤ T = 3.5");

        let rx = est_rx(5, &[(0, 7), (1, 7), (2, 7), (3, 7), (4, 8)]);
        a.transition(Round::new(1), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.vote, Some(7));
    }

    #[test]
    fn alpha_plus_one_votes_certify_adoption() {
        let a = algo(5, 1);
        let mut s = a.init(ProcessId::new(0), 5, 9);
        // Only one vote for 7: with α = 1 it could be forged → fall back
        // to v₀ = 0.
        let rx = vote_rx(5, &[(0, Some(7)), (1, None), (2, None)]);
        a.transition(Round::new(2), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.x, 0);

        // Two votes (α + 1 = 2) certify that someone truly voted 7.
        let mut s = a.init(ProcessId::new(0), 5, 9);
        let rx = vote_rx(5, &[(0, Some(7)), (1, Some(7)), (2, None)]);
        a.transition(Round::new(2), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.x, 7);
    }

    #[test]
    fn decision_needs_more_than_e_votes() {
        // n=5, α=1: E = 3.5 → need 4 votes.
        let a = algo(5, 1);
        let mut s = a.init(ProcessId::new(0), 5, 9);
        let rx = vote_rx(5, &[(0, Some(7)), (1, Some(7)), (2, Some(7))]);
        a.transition(Round::new(2), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.decided, None);

        let rx = vote_rx(5, &[(0, Some(7)), (1, Some(7)), (2, Some(7)), (3, Some(7))]);
        a.transition(Round::new(4), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.decided, Some(7));
    }

    #[test]
    fn vote_resets_after_even_round() {
        let a = algo(5, 1);
        let mut s = a.init(ProcessId::new(0), 5, 9);
        s.vote = Some(7);
        let rx = vote_rx(5, &[(0, Some(7)), (1, Some(7))]);
        a.transition(Round::new(2), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.vote, None, "line 20: votep := ?");
    }

    #[test]
    fn decision_is_sticky() {
        let a = algo(5, 1);
        let mut s = a.init(ProcessId::new(0), 5, 9);
        let all7 = vote_rx(5, &[(0, Some(7)), (1, Some(7)), (2, Some(7)), (3, Some(7))]);
        a.transition(Round::new(2), ProcessId::new(0), &mut s, &all7);
        assert_eq!(s.decided, Some(7));
        let all8 = vote_rx(5, &[(0, Some(8)), (1, Some(8)), (2, Some(8)), (3, Some(8))]);
        a.transition(Round::new(4), ProcessId::new(0), &mut s, &all8);
        assert_eq!(s.decided, Some(7));
    }

    #[test]
    fn wrong_variant_messages_are_ignored() {
        let a = algo(5, 1);
        let mut s = a.init(ProcessId::new(0), 5, 9);
        // An estimate round receiving corrupted Vote messages: they count
        // toward HO but carry no estimate.
        let mut rx = est_rx(5, &[(0, 7), (1, 7), (2, 7), (3, 7)]);
        rx.set(ProcessId::new(4), UteMsg::Vote(Some(7)));
        a.transition(Round::new(1), ProcessId::new(0), &mut s, &rx);
        // Exactly 4 estimates of 7 (> T = 3.5): the stray vote neither
        // helps nor hurts.
        assert_eq!(s.vote, Some(7));
    }

    #[test]
    fn empty_vote_round_falls_back_to_default() {
        let a = Ute::new(UteParams::tightest(5, 1).unwrap(), 42u64);
        let mut s = a.init(ProcessId::new(0), 5, 9);
        let rx = ReceptionVector::new(5);
        a.transition(Round::new(2), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.x, 42);
    }

    #[test]
    fn value_bearing_and_corruptible() {
        let mut rng = StdRng::seed_from_u64(5);
        let est = UteMsg::Est(7u64);
        assert_eq!(est.value(), Some(&7));
        assert_ne!(est.corrupted(&mut rng), est);
        let vote = UteMsg::Vote(Some(7u64));
        assert_eq!(vote.value(), Some(&7));
        assert_ne!(vote.corrupted(&mut rng), vote);
        let q: UteMsg<u64> = UteMsg::Vote(None);
        assert_eq!(q.value(), None);
        assert_eq!(q.corrupted(&mut rng), UteMsg::Vote(None));
    }

    #[test]
    fn smallest_vote_wins_under_broken_params() {
        // α too large relative to T: two values can be "certified".
        let params = UteParams::unchecked(5, 0, Threshold::integer(1), Threshold::integer(4));
        let a: Ute<u64> = Ute::new(params, 0);
        let mut s = a.init(ProcessId::new(0), 5, 9);
        let rx = vote_rx(5, &[(0, Some(8)), (1, Some(3))]);
        a.transition(Round::new(2), ProcessId::new(0), &mut s, &rx);
        assert_eq!(s.x, 3, "histogram order breaks ties toward smaller");
    }
}
