//! Termination under the liveness predicates (Prop. 3, Thm. 2): once
//! the scheduled good rounds realize `P^{A,live}` / `P^{U,live}`,
//! decisions follow — and the recorded traces really satisfy the
//! predicates that were promised.

use heardof::analysis::{ate_live, ute_live, ute_safe};
use heardof::prelude::*;

#[test]
fn ate_decides_after_first_good_round() {
    // A good round at round 6 and nothing clean before it: everyone
    // decides by the next good round after convergence.
    let n = 10;
    let alpha = 2;
    let params = AteParams::balanced(n, alpha).unwrap();
    let adversary = WithSchedule::new(
        Budgeted::new(RandomCorruption::new(alpha, 1.0), alpha),
        GoodRounds::every(6),
    );
    let outcome = Simulator::new(Ate::<u64>::new(params), n)
        .adversary(adversary)
        .initial_values((0..n).map(|i| i as u64 % 3))
        .seed(9)
        .run_until_decided(100)
        .unwrap();
    assert!(outcome.consensus_ok());
    let decided = outcome.last_decision_round().unwrap().get();
    assert!(
        decided >= 6,
        "no decision can precede the first good round here"
    );
    assert!(decided <= 12, "convergence + one more good round suffices");
    assert!(ate_live(&params).holds(&outcome.trace));
}

#[test]
fn ate_live_predicate_position_controls_latency() {
    // Move the single good round later; the decision tracks it exactly.
    // The split-brain adversary provably prevents earlier convergence
    // (each camp keeps seeing at most 5 < 7 copies of its value), and
    // once the good round equalizes the estimates, unanimity leaves the
    // adversary nothing to split — decision lands one round after.
    let n = 8;
    let alpha = 1;
    let params = AteParams::balanced(n, alpha).unwrap();
    for start in [4u64, 10, 20] {
        let adversary = WithSchedule::new(
            Budgeted::new(SplitBrain::new(alpha), alpha),
            GoodRounds::at([start]),
        );
        let outcome = Simulator::new(Ate::<u64>::new(params), n)
            .adversary(adversary)
            .initial_values((0..n).map(|i| i as u64 % 2))
            .seed(4)
            .run_until_decided(100)
            .unwrap();
        assert!(outcome.consensus_ok(), "start={start}");
        let decided = outcome.last_decision_round().unwrap().get();
        assert_eq!(
            decided,
            start + 1,
            "decision must land right after the good round at {start}"
        );
    }
}

#[test]
fn ute_decides_at_end_of_window_phase() {
    // Theorem 2: a clean window {2φ₀, 2φ₀+1, 2φ₀+2} forces decision at
    // round 2(φ₀+1) = 2φ₀+2.
    let n = 9;
    let alpha = 3;
    let params = UteParams::tightest(n, alpha).unwrap();
    for phi0 in [3u64, 6, 9] {
        let start = 2 * phi0;
        let adversary = WithSchedule::new(
            Budgeted::new(RandomCorruption::new(alpha, 1.0), alpha),
            GoodRounds::u_window_at(start),
        );
        let outcome = Simulator::new(Ute::new(params, 0u64), n)
            .adversary(adversary)
            .initial_values((0..n).map(|i| i as u64 % 3))
            .seed(11)
            .run_until_decided(100)
            .unwrap();
        assert!(outcome.consensus_ok(), "φ₀={phi0}");
        assert_eq!(
            outcome.last_decision_round().unwrap().get(),
            start + 2,
            "decision lands exactly at round 2φ₀+2"
        );
        assert!(ute_live(&params).holds(&outcome.trace));
    }
}

#[test]
fn ute_usafe_holds_on_its_runs() {
    let n = 12;
    let alpha = 2;
    let params = UteParams::tightest(n, alpha).unwrap();
    let u_safe_min = params.u_safe_bound().min_exceeding_count();
    let budget = (n - u_safe_min) as u32;
    let adversary = WithSchedule::new(
        Budgeted::new(RandomCorruption::new(budget, 1.0), budget),
        GoodRounds::phase_window_every(8),
    );
    let outcome = Simulator::new(Ute::new(params, 0u64), n)
        .adversary(adversary)
        .initial_values((0..n).map(|i| i as u64 % 2))
        .seed(3)
        .run_until_decided(200)
        .unwrap();
    assert!(outcome.consensus_ok());
    assert!(ute_safe(&params).holds(&outcome.trace));
}

#[test]
fn no_good_rounds_means_no_decision_but_no_violation() {
    // Liveness is genuinely needed: a pure split-brain adversary stalls
    // A_{T,E} forever, but never breaks it.
    let n = 8;
    let alpha = 1;
    let params = AteParams::balanced(n, alpha).unwrap();
    let outcome = Simulator::new(Ate::<u64>::new(params), n)
        .adversary(Budgeted::new(SplitBrain::new(alpha), alpha))
        .initial_values((0..n).map(|i| i as u64 % 2))
        .seed(5)
        .run_rounds(60)
        .unwrap();
    assert!(outcome.is_safe());
    assert_eq!(
        outcome.trace.decided_count(),
        0,
        "split-brain keeps both camps below the decision threshold"
    );
    // And the liveness predicate indeed failed on this trace:
    assert!(!ate_live(&params).holds(&outcome.trace));
}

#[test]
fn ute_recovers_right_after_a_transient_storm() {
    // Faults are dynamic and *transient*: every receiver's full α = 5
    // budget is spent every round for 40 rounds at n = 11, far beyond
    // what a static-fault model tolerates. No round can muster the > E
    // identical votes a decision needs, so nobody decides during the
    // storm, and one clean phase after it everybody does — safely.
    let n = 11;
    let alpha = heardof::core::bounds::ute_max_alpha(n);
    assert_eq!(alpha, 5);
    let params = UteParams::tightest(n, alpha).unwrap();
    let storm = TransientBurst::new(
        Budgeted::new(RandomCorruption::new(alpha, 1.0), alpha),
        1,
        40,
    );
    let outcome = Simulator::new(Ute::new(params, 0u64), n)
        .adversary(storm)
        .seed(13)
        .initial_values((0..n).map(|i| i as u64 % 2))
        .extra_rounds_after_decision(3)
        .run_until_decided(200)
        .unwrap();
    assert!(outcome.consensus_ok());
    assert!(
        outcome.trace.rounds()[..40]
            .iter()
            .all(|rec| rec.decisions.iter().all(Option::is_none)),
        "no decision during the storm"
    );
    let decided = outcome.last_decision_round().unwrap().get();
    assert!((41..=44).contains(&decided), "decided at round {decided}");
}

#[test]
fn one_third_rule_benign_termination() {
    // The benign baseline under pure omissions with periodic full rounds.
    let n = 9;
    let adversary = WithSchedule::new(RandomOmission::new(0.5), GoodRounds::every(4));
    let outcome = Simulator::new(OneThirdRule::<u64>::new(n), n)
        .adversary(adversary)
        .initial_values((0..n).map(|i| i as u64 % 2))
        .seed(8)
        .run_until_decided(100)
        .unwrap();
    assert!(outcome.consensus_ok());
    assert!(PBenign.holds(&outcome.trace));
}

#[test]
fn uniform_voting_benign_termination() {
    let n = 7;
    let adversary = WithSchedule::new(RandomOmission::new(0.4), GoodRounds::phase_window_every(6));
    let outcome = Simulator::new(UniformVoting::new(n, 0u64), n)
        .adversary(adversary)
        .initial_values((0..n).map(|i| i as u64 % 2))
        .seed(2)
        .run_until_decided(200)
        .unwrap();
    assert!(outcome.consensus_ok());
}
