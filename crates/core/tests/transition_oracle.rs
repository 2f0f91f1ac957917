//! The four transition functions against the bodies they replaced.
//!
//! Every algorithm used to count its receptions through two `HashMap`
//! tallies; they now share one sorted count ([`heardof_model::tally`]).
//! The previous bodies are kept here verbatim — hash-map tallies and all
//! — and each property drives old and new from the same state over the
//! same reception vector, for system sizes on both sides of the count's
//! inline/heap boundary (64 values).

use heardof_core::{
    Ate, AteParams, AteState, OneThirdRule, OtrState, Threshold, UniformVoting, Ute, UteMsg,
    UteParams, UteState, UvState,
};
use heardof_model::{ConsensusValue, HoAlgorithm, ProcessId, ReceptionVector, Round};
use proptest::prelude::*;
use std::collections::HashMap;

fn oracle_smallest_most_frequent<V: ConsensusValue>(
    values: impl IntoIterator<Item = V>,
) -> Option<V> {
    let mut counts: HashMap<V, usize> = HashMap::new();
    for v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then_with(|| vb.cmp(va)))
        .map(|(v, _)| v)
}

fn oracle_histogram<V: ConsensusValue>(values: impl IntoIterator<Item = V>) -> Vec<(V, usize)> {
    let mut counts: HashMap<V, usize> = HashMap::new();
    for v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    let mut out: Vec<(V, usize)> = counts.into_iter().collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn oracle_ate<V: ConsensusValue>(
    algo: &Ate<V>,
    state: &mut AteState<V>,
    received: &ReceptionVector<V>,
) {
    let params = algo.params();
    if params.t().exceeded_by(received.heard_count()) {
        if let Some(v) = oracle_smallest_most_frequent(received.messages().cloned()) {
            state.x = v;
        }
    }
    if algo.is_nested_guard() && !params.t().exceeded_by(received.heard_count()) {
        return;
    }
    if state.decided.is_none() {
        for (v, count) in oracle_histogram(received.messages().cloned()) {
            if params.e().exceeded_by(count) {
                state.decided = Some(v);
                break;
            }
        }
    }
}

fn oracle_otr<V: ConsensusValue>(n: usize, state: &mut OtrState<V>, received: &ReceptionVector<V>) {
    if 3 * received.heard_count() > 2 * n {
        if let Some(v) = oracle_smallest_most_frequent(received.messages().cloned()) {
            state.x = v;
        }
    }
    if state.decided.is_none() {
        for (v, count) in oracle_histogram(received.messages().cloned()) {
            if 3 * count > 2 * n {
                state.decided = Some(v);
                break;
            }
        }
    }
}

fn est_histogram<V: ConsensusValue>(received: &ReceptionVector<UteMsg<V>>) -> Vec<(V, usize)> {
    oracle_histogram(received.messages().filter_map(|m| match m {
        UteMsg::Est(v) => Some(v.clone()),
        UteMsg::Vote(_) => None,
    }))
}

fn vote_histogram<V: ConsensusValue>(received: &ReceptionVector<UteMsg<V>>) -> Vec<(V, usize)> {
    oracle_histogram(received.messages().filter_map(|m| match m {
        UteMsg::Vote(Some(v)) => Some(v.clone()),
        UteMsg::Vote(None) => None,
        UteMsg::Est(_) => None,
    }))
}

fn oracle_ute<V: ConsensusValue>(
    algo: &Ute<V>,
    round: Round,
    state: &mut UteState<V>,
    received: &ReceptionVector<UteMsg<V>>,
) {
    let params = algo.params();
    if round.is_first_of_phase() {
        for (v, count) in est_histogram(received) {
            if params.t().exceeded_by(count) {
                state.vote = Some(v);
                break;
            }
        }
    } else {
        let votes = vote_histogram(received);
        let certified = votes
            .iter()
            .find(|(_, count)| *count > params.alpha() as usize);
        state.x = match certified {
            Some((v, _)) => v.clone(),
            None => algo.default_value().clone(),
        };
        if state.decided.is_none() {
            for (v, count) in &votes {
                if params.e().exceeded_by(*count) {
                    state.decided = Some(v.clone());
                    break;
                }
            }
        }
        state.vote = None;
    }
}

fn oracle_uv<V: ConsensusValue>(
    n: usize,
    default_value: &V,
    round: Round,
    state: &mut UvState<V>,
    received: &ReceptionVector<UteMsg<V>>,
) {
    if round.is_first_of_phase() {
        for (v, count) in est_histogram(received) {
            if 2 * count > n {
                state.vote = Some(v);
                break;
            }
        }
    } else {
        let votes = vote_histogram(received);
        state.x = match votes.first() {
            Some((v, _)) => v.clone(),
            None => default_value.clone(),
        };
        if state.decided.is_none() {
            for (v, count) in &votes {
                if 2 * count > n {
                    state.decided = Some(v.clone());
                    break;
                }
            }
        }
        state.vote = None;
    }
}

/// One slot per process: a quarter are omissions, the rest carry the
/// value `slot % values` — a small domain, so ties and several values
/// above a low threshold are the common case.
fn vector<M>(slots: &[u8], values: u8, msg: impl Fn(u8, u64) -> M) -> ReceptionVector<M> {
    let mut rx = ReceptionVector::new(slots.len());
    for (q, &slot) in slots.iter().enumerate() {
        if slot >= 64 {
            rx.set(ProcessId::new(q as u32), msg(slot, (slot % values) as u64));
        }
    }
    rx
}

/// Thresholds in quarters anywhere in `0..=n`, validity not required:
/// `unchecked` parameters are where several values clear `E` at once and
/// the smallest has to win.
fn threshold(n: usize, pick: u32) -> Threshold {
    Threshold::quarters(pick % (4 * n as u32 + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ate_and_one_third_rule_leave_the_state_the_old_bodies_left(
        slots in proptest::collection::vec(0u8..=255, 1..=80),
        values in 1u8..6,
        t in any::<u32>(),
        e in any::<u32>(),
        nested in any::<bool>(),
        decided in any::<bool>(),
    ) {
        let n = slots.len();
        let rx = vector(&slots, values, |_, v| v);
        let start = AteState { x: 99u64, decided: decided.then_some(42) };

        let params = AteParams::unchecked(n, 0, threshold(n, t), threshold(n, e));
        let algo: Ate<u64> = if nested { Ate::new_nested(params) } else { Ate::new(params) };
        let (mut new, mut old) = (start.clone(), start.clone());
        algo.transition(Round::FIRST, ProcessId::new(0), &mut new, &rx);
        oracle_ate(&algo, &mut old, &rx);
        prop_assert_eq!(new, old, "A_T,E nested={} T={:?} E={:?} {:?}", nested, params.t(), params.e(), rx);

        let otr: OneThirdRule<u64> = OneThirdRule::new(n);
        let start = OtrState { x: start.x, decided: start.decided };
        let (mut new, mut old) = (start.clone(), start);
        otr.transition(Round::FIRST, ProcessId::new(0), &mut new, &rx);
        oracle_otr(n, &mut old, &rx);
        prop_assert_eq!(new, old, "OneThirdRule {:?}", rx);
    }

    #[test]
    fn ate_counts_owned_values_like_the_old_body(
        slots in proptest::collection::vec(0u8..=255, 1..=80),
        e in any::<u32>(),
    ) {
        // `String` estimates: equality, order and the clone into the
        // state all go through a non-`Copy` value.
        let n = slots.len();
        let rx = vector(&slots, 3, |_, v| format!("v{v}"));
        let params = AteParams::unchecked(n, 0, threshold(n, e / 7), threshold(n, e));
        let algo: Ate<String> = Ate::new(params);
        let start = AteState { x: "start".to_string(), decided: None };
        let (mut new, mut old) = (start.clone(), start);
        algo.transition(Round::FIRST, ProcessId::new(0), &mut new, &rx);
        oracle_ate(&algo, &mut old, &rx);
        prop_assert_eq!(new, old);
    }

    #[test]
    fn ute_and_uniform_voting_leave_the_state_the_old_bodies_left(
        slots in proptest::collection::vec(0u8..=255, 1..=80),
        values in 1u8..5,
        t in any::<u32>(),
        e in any::<u32>(),
        alpha in 0u32..4,
        round in 1u64..=2,
        decided in any::<bool>(),
    ) {
        // Estimates, true votes and `?` votes mixed in one vector: each
        // round must count its own kind only.
        let n = slots.len();
        let rx = vector(&slots, values, |slot, v| match slot % 4 {
            0 => UteMsg::Vote(None),
            1 | 2 => if round == 1 { UteMsg::Est(v) } else { UteMsg::Vote(Some(v)) },
            _ => if round == 1 { UteMsg::Vote(Some(v)) } else { UteMsg::Est(v) },
        });
        let round = Round::new(round);
        let start = UteState { x: 99u64, vote: Some(5), decided: decided.then_some(42) };

        let params = UteParams::unchecked(n, alpha, threshold(n, t), threshold(n, e));
        let ute = Ute::new(params, 77u64);
        let (mut new, mut old) = (start.clone(), start.clone());
        ute.transition(round, ProcessId::new(0), &mut new, &rx);
        oracle_ute(&ute, round, &mut old, &rx);
        prop_assert_eq!(new, old, "U_T,E,α α={} T={:?} E={:?} {:?}", alpha, params.t(), params.e(), rx);

        let uv = UniformVoting::new(n, 77u64);
        let start = UvState { x: start.x, vote: start.vote, decided: start.decided };
        let (mut new, mut old) = (start.clone(), start);
        uv.transition(round, ProcessId::new(0), &mut new, &rx);
        oracle_uv(n, &77, round, &mut old, &rx);
        prop_assert_eq!(new, old, "UniformVoting {:?}", rx);
    }
}
