//! Tightness of the paper's conditions: weaken any hypothesis and a
//! concrete counterexample exists; keep them and bounded-exhaustive
//! search finds nothing.

use heardof::analysis::{SearchOutcome, WitnessSearch};
use heardof::model::{MessageMatrix, Round};
use heardof::prelude::*;
use rand::rngs::StdRng;

// ---------- A_{T,E}: exhaustive witness search ----------

#[test]
fn weak_agreement_bound_breaks_in_one_round() {
    // n=8, α=1 requires E ≥ 5; E = 4 admits a split-decision round.
    let bad = AteParams::unchecked(8, 1, Threshold::integer(4), Threshold::integer(4));
    let outcome =
        WitnessSearch::new(bad, 2).run(&[false, false, false, false, true, true, true, true]);
    let SearchOutcome::Violation(w) = outcome else {
        panic!("expected violation");
    };
    assert!(w.violation.contains("agreement"));
    assert_eq!(w.rounds.len(), 1);
}

#[test]
fn weak_lock_bound_breaks_across_rounds() {
    // n=4, α=1: with E = 3 (= n/2+α, agreement-tight) the lock bound
    // demands T ≥ 2(4+2−3) = 6 > n. Deliberately take T small: a
    // process can decide while others' estimates drift, and a later
    // round decides differently.
    let bad = AteParams::unchecked(4, 1, Threshold::integer(1), Threshold::integer(3));
    let outcome = WitnessSearch::new(bad, 3).run(&[false, false, true, true]);
    assert!(
        outcome.found_violation(),
        "T below 2(n+2α−E) must admit a violation"
    );
}

#[test]
fn valid_parameters_survive_exhaustive_search() {
    // Every feasible (n, α) with balanced thresholds, binary inputs,
    // horizon 2: no adversary in the family can break safety.
    for n in 3..=6usize {
        for alpha in 0..=AteParams::max_alpha(n) {
            let params = AteParams::balanced(n, alpha).unwrap();
            let mut initial = vec![false; n];
            for ones in 0..=n {
                if ones > 0 {
                    initial[ones - 1] = true;
                }
                let outcome = WitnessSearch::new(params, 2).run(&initial);
                match outcome {
                    SearchOutcome::Violation(w) => {
                        panic!("n={n}, α={alpha}, {ones} ones: unexpected violation\n{w}")
                    }
                    SearchOutcome::Exhausted { complete, .. } => {
                        assert!(complete, "n={n}, α={alpha}: search must exhaust")
                    }
                }
            }
        }
    }
}

#[test]
fn valid_fractional_parameters_survive_search() {
    // The §3.3 feasibility frontier: n=5, α=1 works only with
    // fractional thresholds (E = 4.75, T = 4.5).
    let params = AteParams::max_e(5, 1).unwrap();
    for ones in 0..=5 {
        let initial: Vec<bool> = (0..5).map(|i| i < ones).collect();
        assert!(
            !WitnessSearch::new(params, 2)
                .run(&initial)
                .found_violation(),
            "{ones} ones"
        );
    }
}

#[test]
fn budget_overrun_breaks_the_frontier() {
    // Same thresholds, adversary allowed one extra corruption: broken.
    let params = AteParams::max_e(5, 1).unwrap();
    let over = AteParams::unchecked(5, 2, params.t(), params.e());
    assert!(WitnessSearch::new(over, 2)
        .run(&[false, false, false, true, true])
        .found_violation());
}

// ---------- U_{T,E,α}: P_α alone is not enough (Lemma 9 / P^{U,safe}) ----------

/// A four-round scripted adversary: n=4, α=1, valid thresholds
/// E = T = 3 = n/2 + α. Within `P_1` (one corruption per receiver per
/// round) but with drops that violate `P^{U,safe}`:
///
/// * round 1 (est):  corrupt p3's estimate to 0 at every receiver ⇒
///   everyone sees four 0s and votes 0;
/// * round 2 (vote): p0 hears all four `vote 0` ⇒ **decides 0**; the
///   others hear only ONE vote (drops!) — below α+1 = 2, so they fall
///   back to the default value 7;
/// * round 3 (est):  estimates are [0,7,7,7]; corrupt p0's estimate to 7
///   everywhere ⇒ everyone sees four 7s and votes 7;
/// * round 4 (vote): everyone hears four `vote 7` ⇒ p1–p3 **decide 7**.
///
/// Agreement is violated (0 vs 7) — exactly why the paper introduces
/// `P^{U,safe}`.
struct USafeBreaker;

impl Adversary<UteMsg<u64>> for USafeBreaker {
    fn name(&self) -> String {
        "u-safe-breaker".to_string()
    }

    fn deliver_into(
        &mut self,
        round: Round,
        intended: &MessageMatrix<UteMsg<u64>>,
        out: &mut MessageMatrix<UteMsg<u64>>,
        _rng: &mut StdRng,
    ) {
        let n = intended.universe();
        match round.get() {
            1 => {
                // p3 broadcast Est(1); flip it to Est(0) at every receiver.
                for r in 0..n {
                    out.mutate_cell(ProcessId::new(3), ProcessId::new(r as u32), |_| {
                        UteMsg::Est(0)
                    });
                }
            }
            2 => {
                // p1, p2, p3 hear only p3's vote (3 drops each — benign).
                for receiver in 1..4u32 {
                    for sender in 0..3u32 {
                        out.clear(ProcessId::new(sender), ProcessId::new(receiver));
                    }
                }
            }
            3 => {
                for r in 0..n {
                    out.mutate_cell(ProcessId::new(0), ProcessId::new(r as u32), |_| {
                        UteMsg::Est(7)
                    });
                }
            }
            _ => {}
        }
    }
}

#[test]
fn p_alpha_alone_cannot_protect_ute() {
    let n = 4;
    let params = UteParams::tightest(n, 1).unwrap(); // E = T = 3, valid!
    let outcome = Simulator::new(Ute::new(params, 7u64), n)
        .adversary(USafeBreaker)
        .initial_values([0u64, 0, 0, 1])
        .run_rounds(4)
        .unwrap();

    // The adversary stayed within P_α…
    assert!(
        PAlpha::new(1).holds(&outcome.trace),
        "the script uses at most one corruption per receiver per round"
    );
    // …but violated P^{U,safe} (round 2's |SHO| = 1 for p1–p3)…
    assert!(!heardof::analysis::ute_safe(&params).holds(&outcome.trace));
    // …and agreement is broken: 0 and 7 both decided.
    assert!(!outcome.is_safe(), "expected an agreement violation");
    let decided: Vec<_> = outcome
        .verdict
        .decisions
        .iter()
        .flatten()
        .map(|(_, v)| *v)
        .collect();
    assert!(decided.contains(&0) && decided.contains(&7), "{decided:?}");
}

/// The same script with `P^{U,safe}` restored (no drops in round 2)
/// cannot break anything — confirming the predicate is what saves U.
struct USafeBreakerWithoutDrops;

impl Adversary<UteMsg<u64>> for USafeBreakerWithoutDrops {
    fn name(&self) -> String {
        "u-safe-breaker-sans-drops".to_string()
    }

    fn deliver_into(
        &mut self,
        round: Round,
        intended: &MessageMatrix<UteMsg<u64>>,
        out: &mut MessageMatrix<UteMsg<u64>>,
        _rng: &mut StdRng,
    ) {
        let n = intended.universe();
        match round.get() {
            1 => {
                for r in 0..n {
                    out.mutate_cell(ProcessId::new(3), ProcessId::new(r as u32), |_| {
                        UteMsg::Est(0)
                    });
                }
            }
            3 => {
                for r in 0..n {
                    out.mutate_cell(ProcessId::new(0), ProcessId::new(r as u32), |_| {
                        UteMsg::Est(7)
                    });
                }
            }
            _ => {}
        }
    }
}

#[test]
fn restoring_u_safe_restores_agreement() {
    let n = 4;
    let params = UteParams::tightest(n, 1).unwrap();
    let outcome = Simulator::new(Ute::new(params, 7u64), n)
        .adversary(USafeBreakerWithoutDrops)
        .initial_values([0u64, 0, 0, 1])
        .run_rounds(6)
        .unwrap();
    // Removing the drops removes the violation — the certification
    // mechanism (α + 1 identical votes) now protects every receiver.
    // Note P^{U,safe} is *sufficient*, not necessary: at these tight
    // parameters it demands |SHO| = n, so the corruption rounds still
    // fail it, yet the run is safe.
    assert!(!heardof::analysis::ute_safe(&params).holds(&outcome.trace));
    assert!(outcome.is_safe());
}

// ---------- The lower-bound narrative, exercised ----------

#[test]
fn one_third_rule_thresholds_are_unsafe_under_value_faults() {
    // OneThirdRule is A_{2n/3, 2n/3}. At n=6 that is T = E = 4, which
    // satisfies the agreement bound for α = 1 (E ≥ n/2 + α = 4) but
    // badly violates the lock bound (T ≥ 2(n + 2α − E) = 8). The
    // exhaustive search produces the concrete two-round scenario: one
    // process decides 1 from a stuffed unanimous reception while the
    // tie-broken majority drags everyone else's estimate to 0, which
    // then gets decided.
    let otr_as_ate = AteParams::unchecked(6, 1, Threshold::integer(4), Threshold::integer(4));
    let outcome = WitnessSearch::new(otr_as_ate, 3).run(&[false, false, true, true, true, true]);
    let SearchOutcome::Violation(w) = outcome else {
        panic!("OneThirdRule's thresholds must break under α = 1");
    };
    assert!(w.violation.contains("agreement"), "{w}");
    assert!(w.rounds.len() <= 2, "two rounds suffice:\n{w}");

    // The repaired thresholds for α = 1 (Prop. 4) survive the same search.
    let repaired = AteParams::balanced(6, 1).unwrap();
    assert!(!WitnessSearch::new(repaired, 3)
        .run(&[false, false, true, true, true, true])
        .found_violation());
}

#[test]
fn ate_absorbs_block_faults_that_match_its_budget() {
    // The Santoro–Widmayer block pattern costs each receiver one
    // corruption per round: exactly α = 1. A_{T,E} provisioned for it
    // reaches consensus on the unanimous value every time.
    let n = 6;
    let params = AteParams::balanced(n, 1).unwrap();
    for seed in 0..40u64 {
        let outcome = Simulator::new(Ate::<u64>::new(params), n)
            .adversary(WithSchedule::new(
                SantoroWidmayerBlock::all_receivers(),
                GoodRounds::every(5),
            ))
            .initial_values(vec![5u64; n])
            .seed(seed)
            .run_until_decided(60)
            .unwrap();
        assert!(outcome.consensus_ok(), "seed {seed}");
        assert_eq!(outcome.decided_value(), Some(&5));
    }
}
