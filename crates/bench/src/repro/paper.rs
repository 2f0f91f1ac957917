//! The model-level artifacts: Table 1, Figures 1–3 and the §3.3, §5.1
//! and §5.2 claims, on the lockstep simulator and the exhaustive
//! witness searches.

use super::{decided_at, family, header, inputs, per_round_max, run, FAMILY_NAMES};
use heardof_adversary::{
    Adversary, Budgeted, GoodRounds, NoFaults, RandomCorruption, RandomOmission,
    SantoroWidmayerBlock, SenderOmission, SplitBrain, StaticByzantine, SymmetricByzantine,
    WithSchedule,
};
use heardof_analysis::{
    ate_live, ate_p_alpha, ute_live, ute_p_alpha, Scenario, ScenarioResult, SearchOutcome, Summary,
    Table, USearchOutcome, UteWitnessSearch, WitnessSearch,
};
use heardof_core::{
    bounds, Ate, AteParams, OneThirdRule, Threshold, UniformVoting, Ute, UteParams,
};
use heardof_model::{Corruptible, HoAlgorithm, RoundSets};
use heardof_predicates::{AsyncByzantine, CommPredicate, SyncByzantine};

/// **Table 1** — Summary of results: for each algorithm, its safety
/// predicate, liveness predicate and threshold conditions.
///
/// The paper's table is analytic; this artifact validates every row
/// empirically. For each `(algorithm, n, α, adversary family)` cell it
/// runs 30 seeded simulations in which the adversary satisfies exactly
/// the machine's predicates and reports: safety violations (must be 0),
/// termination (must be 30/30), decision-round statistics, and whether
/// the predicates actually held on the recorded traces.
pub(super) fn table1(out: &mut String) {
    header(
        out,
        "Table 1 — Summary of results (empirical validation)",
        "A_{T,E} is safe under P_α and live under P^{A,live} when n > E, n > T ≥ 2(n+2α−E); \
         U_{T,E,α} is safe under P_α ∧ P^{U,safe} and live under P^{U,live} when n > E,T ≥ n/2+α",
    );
    let mut table = Table::new([
        "alg",
        "n",
        "α",
        "T",
        "E",
        "adversary",
        "runs",
        "violations",
        "decided",
        "rounds(mean/p99)",
        "P_α",
        "P_live",
    ]);
    for n in [8usize, 16, 33] {
        let alpha = AteParams::max_alpha(n);
        let params = AteParams::balanced(n, alpha).expect("α below n/4");
        for (kind, name) in FAMILY_NAMES.into_iter().enumerate() {
            let result = Scenario::new(name, Ate::<u64>::new(params), n)
                .adversary_factory(move |_| family(kind, alpha, GoodRounds::every(5)))
                .check_predicate(ate_p_alpha(&params))
                .check_predicate(ate_live(&params))
                .max_rounds(400)
                // Run past the decision so the recorded prefix contains
                // a scheduled good round: some adversaries let the
                // system converge early by tie-breaking, and the
                // P^{A,live} witness should still be measurable.
                .extra_rounds(6)
                .run(0..30);
            let (t, e) = (params.t(), params.e());
            table.push_row(table1_row("A_{T,E}", n, alpha, t, e, &result));
        }
    }
    for n in [8usize, 16, 33] {
        // A mid-range α for U, and a corruption budget that also keeps
        // P^{U,safe} true (|SHO| above its bound).
        let alpha = UteParams::max_alpha(n) / 2 + 1;
        let params = UteParams::tightest(n, alpha).expect("α below n/2");
        let u_safe_min = params.u_safe_bound().min_exceeding_count();
        let budget = alpha.min(n.saturating_sub(u_safe_min) as u32);
        for (kind, name) in FAMILY_NAMES.into_iter().enumerate() {
            let result = Scenario::new(name, Ute::new(params, 0u64), n)
                .adversary_factory(move |_| family(kind, budget, GoodRounds::phase_window_every(8)))
                .check_predicate(ute_p_alpha(&params))
                .check_predicate(ute_live(&params))
                .max_rounds(400)
                .run(0..30);
            let (t, e) = (params.t(), params.e());
            table.push_row(table1_row("U_{T,E,α}", n, alpha, t, e, &result));
        }
    }
    outln!(out, "{}", table.to_ascii());
    outln!(
        out,
        "expected: violations = 0 everywhere; decided = 30/30; P_α and P_live = 30/30."
    );
}

fn table1_row(
    alg: &str,
    n: usize,
    alpha: u32,
    t: Threshold,
    e: Threshold,
    result: &ScenarioResult,
) -> [String; 12] {
    let of_runs = |count: usize| format!("{count}/{}", result.runs);
    let rounds = result.rounds.as_ref();
    row![
        alg,
        n,
        alpha,
        t,
        e,
        result.name,
        result.runs,
        result.violated,
        of_runs(result.decided),
        rounds.map_or(String::new(), |s| format!("{:.1}/{:.0}", s.mean, s.p99)),
        of_runs(result.predicate_satisfaction[0].1),
        of_runs(result.predicate_satisfaction[1].1),
    ]
}

/// **Figure 1** — the predicate `P^{A,live}`.
///
/// The figure defines when `A_{T,E}` terminates: a round where a large
/// set `Π¹` hears exactly one large uncorrupted set `Π²`, plus recurring
/// reception guarantees. This artifact makes the predicate *causal*: it
/// sweeps the position `r₀` of the first good round and shows the
/// decision round tracking it (decision = r₀ + 1 under a split-brain
/// adversary that provably blocks earlier convergence), and it shows
/// that each conjunct is necessary by deleting it.
pub(super) fn fig1_liveness_a(out: &mut String) {
    header(
        out,
        "Figure 1 — P^{A,live}: the good round drives termination",
        "∃ round with Π¹ (> E−α) hearing exactly Π² (> T) uncorrupted, plus recurring \
         |HO| > T and |SHO| > E ⇒ all processes decide",
    );
    let (n, alpha) = (12, 2);
    let params = AteParams::balanced(n, alpha).expect("α below n/4");
    let split_brain = || Budgeted::new(SplitBrain::new(alpha), alpha);
    outln!(out, "machine: {params}\n");

    let mut table = Table::new(["good round r₀", "decision round", "P^A,live holds", "safe"]);
    for r0 in [3u64, 6, 10, 15, 25, 40] {
        let adversary = WithSchedule::new(split_brain(), GoodRounds::at([r0]));
        let outcome = run(Ate::new(params), n, adversary, inputs(n, 0, 2), 1, 200);
        table.push_row(row![
            r0,
            decided_at(&outcome, "—"),
            ate_live(&params).holds(&outcome.trace),
            outcome.is_safe(),
        ]);
    }
    outln!(out, "{}", table.to_ascii());
    outln!(
        out,
        "expected series: decision = r₀ + 1 (convergence at r₀, unanimity decides next).\n"
    );

    // Necessity of the conjuncts: remove each and show non-termination.
    let mut nec = Table::new(["scenario", "decided", "safe", "P^A,live holds"]);
    // (a) No uniform round at all: split-brain forever.
    let forever = run(Ate::new(params), n, split_brain(), inputs(n, 0, 2), 1, 120);
    nec.push_row(row![
        "no conjunct-1 round (split-brain forever)",
        format!("{}/{n}", forever.trace.decided_count()),
        forever.is_safe(),
        ate_live(&params).holds(&forever.trace),
    ]);
    // (b) Conjuncts 1–2 hold but |SHO| > E never occurs: with the
    // max-E parametrization (T = 8.5 ≪ E = 11.75 at n=12, α=2), silence
    // three senders forever. Everyone always hears the same clean set of
    // 9 > T processes (conjuncts 1–2 ✓), but nobody ever safely hears
    // more than E, so conjunct 3 — and the decision — never arrive.
    let max_e = AteParams::max_e(n, alpha).expect("α below n/4");
    let silent = SenderOmission::first(n, 3);
    let silenced = run(Ate::new(max_e), n, silent, inputs(n, 0, 2), 3, 120);
    nec.push_row(row![
        format!("conjunct 3 removed ({max_e}, 3 senders silenced)"),
        format!("{}/{n}", silenced.trace.decided_count()),
        silenced.is_safe(),
        ate_live(&max_e).holds(&silenced.trace),
    ]);
    outln!(out, "{}", nec.to_ascii());
    outln!(
        out,
        "expected: neither scenario decides; safety never budges; P^A,live is false."
    );
}

/// **Figure 2** — the predicate `P^{U,live}`.
///
/// `U_{T,E,α}` terminates once some phase `φ₀` gets: a uniform safe
/// round `2φ₀` (same `Π₀` for everyone), then `|SHO| > T` at `2φ₀+1`,
/// then `|SHO| > max(E, α)` at `2φ₀+2`. The proof pins the decision to
/// round `2(φ₀+1)` exactly — which is what we observe, wherever the
/// window is placed. We also misalign the window by one round to show
/// the phase structure is essential.
pub(super) fn fig2_liveness_u(out: &mut String) {
    header(
        out,
        "Figure 2 — P^{U,live}: a three-round clean window aligned to a phase",
        "HO(p,2φ₀)=SHO(p,2φ₀)=Π₀ ∀p, then |SHO| > T, then |SHO| > max(E,α) ⇒ \
         every process decides at round 2φ₀+2",
    );
    let (n, alpha) = (9, 3);
    let params = UteParams::tightest(n, alpha).expect("α below n/2");
    outln!(out, "machine: {params}\n");
    let windowed = |good| {
        let corrupt = Budgeted::new(RandomCorruption::new(alpha, 1.0), alpha);
        let adversary = WithSchedule::new(corrupt, good);
        run(Ute::new(params, 0), n, adversary, inputs(n, 0, 3), 5, 200)
    };

    let mut table = Table::new([
        "window start (2φ₀)",
        "decision round",
        "predicted (2φ₀+2)",
        "P^U,live holds",
        "safe",
    ]);
    for phi0 in [2u64, 5, 8, 12, 20] {
        let start = 2 * phi0;
        let outcome = windowed(GoodRounds::u_window_at(start));
        table.push_row(row![
            start,
            decided_at(&outcome, "—"),
            start + 2,
            ute_live(&params).holds(&outcome.trace),
            outcome.is_safe(),
        ]);
    }
    outln!(out, "{}", table.to_ascii());

    // Misaligned window: three clean rounds starting at an ODD round.
    // The uniform round then falls on an estimate round, not on 2φ₀;
    // the chain of Figure 2 cannot fire at the promised phase.
    let mut mis = Table::new(["window", "decision round", "P^U,live holds"]);
    for start in [7u64, 13] {
        let outcome = windowed(GoodRounds::at([start, start + 1, start + 2]));
        mis.push_row(row![
            format!("odd-aligned [{start}, {}]", start + 2),
            decided_at(&outcome, "—"),
            ute_live(&params).holds(&outcome.trace),
        ]);
    }
    outln!(out, "{}", mis.to_ascii());
    outln!(
        out,
        "expected: aligned windows decide exactly at 2φ₀+2. Odd-aligned windows contain\n\
         a clean (estimate, vote) pair one round earlier and decide at start+1 — but the\n\
         canonical P^{{U,live}} witness (clean 2φ₀, 2φ₀+1, 2φ₀+2) may be absent from the\n\
         trace: the predicate is sufficient for termination, not necessary."
    );
}

/// **Figure 3** — possible types of corruption.
///
/// The figure classifies models by whether transmissions follow `S_p^r`
/// and transitions follow `T_p^r`:
///
/// * **benign** — both followed; only omissions,
/// * **"symmetrical"** — transitions may deviate, transmissions don't:
///   everyone receives the *same* wrong value (identical Byzantine),
/// * **ours** — transmissions may deviate per-link (this paper),
/// * **Byzantine** — both may deviate (classic model; in HO terms,
///   permanent per-link deviation from a fixed set).
///
/// Each regime is realized with an adversary and measured by its
/// footprint on the heard-of collections: per-round `max |AHO|`,
/// per-round `|AS(r)|`, whole-run `|AS|`, and the consensus outcome for
/// `A_{T,E}`.
pub(super) fn fig3_taxonomy(out: &mut String) {
    header(
        out,
        "Figure 3 — possible types of corruption, measured on the HO collections",
        "benign: AS = ∅; symmetrical: identical wrong values; ours: per-link dynamic \
         value faults; Byzantine: permanent per-link deviation from a fixed set",
    );
    let (n, alpha) = (12, 2);
    let params = AteParams::balanced(n, alpha).expect("α below n/4");
    let mut table = Table::new([
        "regime",
        "max |AHO(p,r)|",
        "max |AS(r)|",
        "|AS| (whole run)",
        "decision round",
        "safe",
    ]);
    let regimes: [(&str, Box<dyn Adversary<u64>>); 4] = [
        (
            "benign (omissions only)",
            Box::new(RandomOmission::new(0.4)),
        ),
        (
            "symmetrical (identical Byzantine, f=2)",
            Box::new(SymmetricByzantine::first(n, 2)),
        ),
        (
            "ours (dynamic per-link value faults, α=2)",
            Box::new(Budgeted::new(RandomCorruption::new(alpha, 1.0), alpha)),
        ),
        (
            "Byzantine (static corrupter set, f=2)",
            Box::new(StaticByzantine::first(n, 2)),
        ),
    ];
    for (regime, faults) in regimes {
        let adversary = WithSchedule::new(faults, GoodRounds::every(4));
        let outcome = run(Ate::new(params), n, adversary, inputs(n, 0, 3), 9, 300);
        table.push_row(row![
            regime,
            per_round_max(&outcome.trace, RoundSets::max_aho),
            per_round_max(&outcome.trace, |s| s.altered_span().len()),
            outcome.trace.to_history().altered_span().len(),
            decided_at(&outcome, "—"),
            outcome.is_safe(),
        ]);
    }
    outln!(out, "{}", table.to_ascii());
    outln!(
        out,
        "expected shape: benign has |AS| = 0; symmetrical and Byzantine confine AS to the\n\
         fixed set (|AS| = 2) — permanent/static faults; ours spreads AS across the whole\n\
         system over time (|AS| → n) while each round stays within α — dynamic faults.\n\
         All four decide and stay safe under A_{{T,E}} with α = 2."
    );
}

/// **§3.3 / §4.3** — resilience frontiers: `α < n/4` for `A_{T,E}`,
/// `α < n/2` for `U_{T,E,α}`.
///
/// For each `n`, `α` sweeps upward: does the parameter solver find
/// `(T, E)` (it must iff `α` is under the bound), and do seeded
/// adversarial runs at the frontier still reach consensus.
pub(super) fn resilience(out: &mut String) {
    header(
        out,
        "Resilience sweep — feasible corruption budgets",
        "(T,E) exist for A_{T,E} iff α < n/4 (Prop. 4); for U_{T,E,α} iff α < n/2 (§4.3)",
    );
    let mut table = Table::new([
        "n",
        "α",
        "A: (T,E)",
        "A: consensus",
        "U: (T,E)",
        "U: consensus",
    ]);
    let consensus = |result: ScenarioResult| format!("{}/10", result.consensus);
    let thresholds = |e: Option<Threshold>| e.map_or("infeasible".into(), |e| format!("T=E={e}"));
    for n in [8usize, 16, 32] {
        for alpha in 0..=UteParams::max_alpha(n) + 2 {
            let a_params = AteParams::balanced(n, alpha).ok();
            let u_params = UteParams::tightest(n, alpha).ok();
            let a_runs = a_params.map(|p| {
                Scenario::new("A", Ate::<u64>::new(p), n)
                    .adversary_factory(move |seed| {
                        family(seed as usize, alpha, GoodRounds::every(5))
                    })
                    .max_rounds(300)
                    .run(0..10)
            });
            let u_runs = u_params.map(|p| {
                // Budget that also respects P^{U,safe}.
                let u_safe_min = p.u_safe_bound().min_exceeding_count();
                let budget = alpha.min(n.saturating_sub(u_safe_min) as u32);
                Scenario::new("U", Ute::new(p, 0u64), n)
                    .adversary_factory(move |seed| {
                        family(seed as usize, budget, GoodRounds::phase_window_every(8))
                    })
                    .max_rounds(300)
                    .run(0..10)
            });
            table.push_row(row![
                n,
                alpha,
                thresholds(a_params.map(|p| p.e())),
                a_runs.map_or("—".into(), consensus),
                thresholds(u_params.map(|p| p.e())),
                u_runs.map_or("—".into(), consensus),
            ]);
        }
    }
    outln!(out, "{}", table.to_ascii());
    outln!(
        out,
        "expected crossovers: A becomes infeasible exactly at α = ⌈n/4⌉ (integer form\n\
         ⌊(n−1)/4⌋ + 1); U at ⌊(n−1)/2⌋ + 1; every feasible row reaches 10/10 consensus."
    );
}

/// **§3.3** — `A_{2n/3,2n/3}` coincides with OneThirdRule at `α = 0`
/// (and `U_{n/2,n/2,0}` with UniformVoting).
///
/// Both baselines are independent implementations with plain integer
/// guards; both sides of each pair run through identical seeded fault
/// patterns, and the artifact counts exact trace matches (decision
/// snapshots and HO/SHO sets, every round).
pub(super) fn otr_equivalence(out: &mut String) {
    header(
        out,
        "Baseline coincidence — A_{2n/3,2n/3} ≡ OneThirdRule, U_{n/2,n/2,0} ≡ UniformVoting",
        "at α = 0 the parametrized algorithms are exactly the benign-case algorithms of [6]",
    );
    let mut t = Table::new(["pair", "n", "seeds", "identical traces", "max |decision Δ|"]);
    for n in [4usize, 7, 10, 15] {
        let ate = Ate::new(AteParams::balanced(n, 0).expect("α = 0 is feasible"));
        let otr = OneThirdRule::new(n);
        let a_vs_otr = identical_traces(ate, otr, n, 0.45, GoodRounds::every(5), 15);
        let ute = Ute::new(UteParams::tightest(n, 0).expect("α = 0 is feasible"), 0);
        let uv = UniformVoting::new(n, 0);
        let window = GoodRounds::phase_window_every(6);
        let u_vs_uv = identical_traces(ute, uv, n, 0.35, window, 16);
        for (pair, identical) in [("A vs OTR", a_vs_otr), ("U vs UV", u_vs_uv)] {
            let delta = if identical == 50 { "0" } else { ">0" };
            t.push_row(row![pair, n, 50, format!("{identical}/50"), delta]);
        }
    }
    outln!(out, "{}", t.to_ascii());
    outln!(out, "expected: 50/50 identical traces in every row.");
}

/// Of seeds `0..50`, how many give `a` and `b` identical decisions and
/// heard-of sets in each of `rounds` rounds under the same seeded
/// omissions (link drop probability `drop`, `good` rounds clean).
fn identical_traces<A, B>(a: A, b: B, n: usize, drop: f64, good: GoodRounds, rounds: usize) -> usize
where
    A: HoAlgorithm<Value = u64>,
    B: HoAlgorithm<Value = u64>,
{
    let a = omissions(a, n, drop, good.clone(), rounds);
    let b = omissions(b, n, drop, good, rounds);
    (0..50)
        .filter(|&seed| {
            let (a, b) = (a.run_one(seed), b.run_one(seed));
            let mut rounds = a.trace.rounds().iter().zip(b.trace.rounds());
            rounds.all(|(ra, rb)| ra.decisions == rb.decisions && ra.sets == rb.sets)
        })
        .count()
}

/// `algo` for exactly `rounds` rounds under seeded random omissions:
/// the extra rounds after a decision cover the whole horizon, so a
/// decision never ends a run early.
fn omissions<A>(algo: A, n: usize, drop: f64, good: GoodRounds, rounds: usize) -> Scenario<A>
where
    A: HoAlgorithm<Value = u64>,
{
    Scenario::new("omissions", algo, n)
        .adversary_factory(move |_| {
            Box::new(WithSchedule::new(RandomOmission::new(drop), good.clone()))
        })
        .max_rounds(rounds)
        .extra_rounds(rounds)
}

/// **Propositions 1–2** — tightness of the threshold conditions, by
/// exhaustive adversary search.
///
/// For a grid of `(n, α)` each condition is weakened one notch below
/// its bound, and the artifact reports the violation witness found
/// (with its depth); at the exact bounds the search exhausts with no
/// violation.
pub(super) fn tightness(out: &mut String) {
    header(
        out,
        "Tightness of E ≥ n/2 + α and T ≥ 2(n + 2α − E)",
        "weaken either condition one notch and a P_α adversary violates \
         Agreement/Integrity; at the bounds no violation exists (bounded-exhaustive)",
    );
    let mut t = Table::new([
        "n",
        "α",
        "configuration",
        "search result",
        "rounds to violate",
    ]);
    // The search is exhaustive: each round expands (2α+3)^n delivery
    // combinations per configuration, so the grid stays at small n —
    // which is where impossibility witnesses live anyway.
    for (n, alpha) in [(4usize, 1u32), (5, 1), (6, 1)] {
        let mixed: Vec<bool> = (0..n).map(|i| i >= n / 2).collect();
        // Valid balanced parameters (or max-E when balanced is
        // infeasible for this α at this n).
        let Ok(p) = AteParams::balanced(n, alpha).or_else(|_| AteParams::max_e(n, alpha)) else {
            // α ≥ n/4: the solver itself reports the impossibility.
            let err = AteParams::balanced(n, alpha).expect_err("infeasible α");
            t.push_row(row![n, alpha, "no (T,E) exist (α ≥ n/4, §3.3)", err, "—"]);
            continue;
        };
        let tight_e = Threshold::half_n_plus_alpha(n, alpha);
        let weak_e = Threshold::quarters(tight_e.raw().saturating_sub(1));
        let configurations = [
            (format!("valid: T={}, E={}", p.t(), p.e()), p, 2),
            // E one quarter below the agreement bound.
            (
                format!("E just below n/2+α: E={weak_e}"),
                AteParams::unchecked(n, alpha, Threshold::just_below(n), weak_e),
                3,
            ),
            // T far below the lock bound, E agreement-tight.
            (
                format!("T below 2(n+2α−E): T=1, E={tight_e}"),
                AteParams::unchecked(n, alpha, Threshold::integer(1), tight_e),
                3,
            ),
            // Budget overrun: valid thresholds, adversary gets α+1.
            (
                format!("adversary budget α+1={}", alpha + 1),
                AteParams::unchecked(n, alpha + 1, p.t(), p.e()),
                3,
            ),
        ];
        for (configuration, params, horizon) in configurations {
            let (cell, depth) = match WitnessSearch::new(params, horizon).run(&mixed) {
                SearchOutcome::Violation(w) => (
                    format!(
                        "violation: {}",
                        w.violation.split(':').next().unwrap_or("?")
                    ),
                    w.rounds.len().to_string(),
                ),
                SearchOutcome::Exhausted {
                    states_explored,
                    complete,
                } => (exhausted(states_explored, complete), "—".to_string()),
            };
            t.push_row(row![n, alpha, configuration, cell, depth]);
        }
    }
    outln!(out, "{}", t.to_ascii());
    outln!(
        out,
        "expected: every 'valid' row exhausts with no violation; every weakened row\n\
         produces a violation, usually within 1–2 rounds. (Budget overruns may need the\n\
         full horizon at fractional-threshold corners.)"
    );
}

/// The cell of a search that found no violation.
fn exhausted(states_explored: usize, complete: bool) -> String {
    if complete {
        format!("none (exhausted {states_explored} states)")
    } else {
        format!("none within cap ({states_explored} states)")
    }
}

/// **Proposition 5 / Lemma 9** — `P_α` alone cannot protect
/// `U_{T,E,α}`; the `P^{U,safe}` floor is what restores Agreement.
///
/// The exhaustive outcome-abstracted search runs `U` against *every*
/// adversary behaviour over binary values: once with unrestricted
/// message loss (only `P_α` enforced), once with the `P^{U,safe}`
/// cardinality floor `|SHO(p, r)| > max(n + 2α − E − 1, T, α)`.
pub(super) fn tightness_u(out: &mut String) {
    header(
        out,
        "Tightness of P^{U,safe} (Lemma 9) — exhaustive search over U_{T,E,α}",
        "with valid thresholds E = T = n/2 + α, P_α alone admits Agreement/Integrity \
         violations via vote starvation; adding the P^{U,safe} floor removes them all",
    );
    let cell = |outcome: USearchOutcome| match outcome {
        USearchOutcome::Violation(w) => format!(
            "violation: {} ({} rounds)",
            w.violation.split(':').next().unwrap_or("?"),
            w.rounds.len()
        ),
        USearchOutcome::Exhausted {
            states_explored,
            complete,
        } => exhausted(states_explored, complete),
    };
    let mut t = Table::new(["n", "α", "initial", "P_α only", "P_α ∧ P^{U,safe} floor"]);
    for (n, alpha) in [(4usize, 1u32), (5, 1), (5, 2), (6, 2)] {
        let params = UteParams::tightest(n, alpha).expect("α below n/2");
        let floor = params.u_safe_bound().min_exceeding_count();
        // A 1-majority just big enough that a true vote for 1 is
        // forgeable (t₁ + α clears T): with v₀ = 0 the breakable split
        // decides 1 first and defaults the rest toward 0. Also unanimity.
        let ones_needed =
            (params.t().min_exceeding_count() - alpha as usize).min(n.saturating_sub(1));
        let majority: Vec<bool> = (0..n).map(|i| i < ones_needed).collect();
        for (label, initial) in [("1-majority", majority), ("all-1", vec![true; n])] {
            let free = UteWitnessSearch::new(params, 3).run(&initial);
            let floored = UteWitnessSearch::new(params, 3)
                .with_min_sho(floor)
                .run(&initial);
            t.push_row(row![n, alpha, label, cell(free), cell(floored)]);
        }
    }
    outln!(out, "{}", t.to_ascii());
    outln!(
        out,
        "expected: every 'P_α only' cell finds a violation (agreement from majorities,\n\
         integrity from unanimity via the default-value pathway); every floored cell\n\
         exhausts clean. This is Lemma 9 run as a model checker."
    );
}

/// **§5.1** — circumventing Santoro/Widmayer.
///
/// \[18\]: agreement is impossible with ⌊n/2⌋ dynamic value
/// transmission faults per round (block faults). Here the per-receiver
/// budget is what matters: the exact block pattern runs *every round
/// forever* (n faults/round ≥ 2·⌊n/2⌋) and both algorithms reach
/// consensus; then the total per-round corruption is pushed to the
/// algorithms' maxima (n·α ≈ n²/4 resp. n²/2) and safety holds.
pub(super) fn santoro_widmayer(out: &mut String) {
    header(
        out,
        "Santoro–Widmayer circumvention",
        "⌊n/2⌋ faults/round is a lower bound for agreement [18]; with per-receiver \
         budgets and transient liveness, A tolerates n·⌊(n−1)/4⌋ ≈ n²/4 and U \
         n·⌊(n−1)/2⌋ ≈ n²/2 corrupted messages per round",
    );
    let sw_bound = bounds::santoro_widmayer_faults_per_round;

    // Part 1: the exact block scenario of the impossibility proof.
    let mut t1 = Table::new([
        "n",
        "SW bound (faults/round)",
        "block injects",
        "A: decided",
        "A: rounds",
        "U: decided",
        "U: rounds",
    ]);
    for n in [8usize, 16, 24] {
        let block = |good| WithSchedule::new(SantoroWidmayerBlock::all_receivers(), good);
        let ate = Ate::<u64>::new(AteParams::balanced(n, 1).expect("α below n/4"));
        let ute = Ute::new(UteParams::tightest(n, 1).expect("α below n/2"), 0u64);
        let a = run(ate, n, block(GoodRounds::every(6)), inputs(n, 0, 2), 1, 300);
        let good = GoodRounds::phase_window_every(8);
        let u = run(ute, n, block(good), inputs(n, 0, 2), 1, 300);
        t1.push_row(row![
            n,
            sw_bound(n),
            n,
            a.consensus_ok(),
            decided_at(&a, ""),
            u.consensus_ok(),
            decided_at(&u, ""),
        ]);
    }
    outln!(out, "{}", t1.to_ascii());

    // Part 2: saturate the budgets — measure actual corrupted messages
    // per round while safety holds.
    let mut t2 = Table::new([
        "alg",
        "n",
        "α",
        "max corrupted/round (measured)",
        "theoretical n·α",
        "SW bound",
        "safe",
        "decided",
    ]);
    for n in [8usize, 16, 24] {
        let alpha = bounds::ate_max_alpha(n);
        let ate = Ate::new(AteParams::balanced(n, alpha).expect("α below n/4"));
        let (max_total, safe, decided) = saturate(ate, n, alpha, GoodRounds::every(6));
        let theory = bounds::ate_corruptions_per_round(n);
        let row = row![
            "A_{T,E}",
            n,
            alpha,
            max_total,
            theory,
            sw_bound(n),
            safe,
            decided
        ];
        t2.push_row(row);
        // For U, saturate P_α during adversarial rounds; P^{U,safe} is
        // then violated mid-storm, so we check SAFETY only until the
        // clean window arrives (transient faults!): corruption pauses
        // during the windows that P^{U,live} needs anyway.
        let alpha = bounds::ute_max_alpha(n);
        let ute = Ute::new(UteParams::tightest(n, alpha).expect("α below n/2"), 0);
        let window = GoodRounds::phase_window_every(8);
        let (max_total, safe, decided) = saturate(ute, n, alpha, window);
        let theory = bounds::ute_corruptions_per_round(n);
        let row = row![
            "U_{T,E,α}",
            n,
            alpha,
            max_total,
            theory,
            sw_bound(n),
            safe,
            decided
        ];
        t2.push_row(row);
    }
    outln!(out, "{}", t2.to_ascii());
    outln!(
        out,
        "expected shape: measured per-round corruption ≈ n·α, i.e. n²/4 (A) and n²/2 (U)\n\
         — an order of magnitude beyond ⌊n/2⌋ — with zero safety violations and full\n\
         termination. No contradiction: the bound assumes permanent per-round faults,\n\
         while safety here is per-receiver-budgeted and liveness only needs sporadic\n\
         good rounds."
    );
}

/// A run of `algo` at its full budget `α` between `good` rounds: the
/// most corrupted messages in one round, safety, and termination.
fn saturate<A>(algo: A, n: usize, alpha: u32, good: GoodRounds) -> (usize, bool, bool)
where
    A: HoAlgorithm<Value = u64>,
    A::Msg: Corruptible,
{
    let corrupt = Budgeted::new(RandomCorruption::new(alpha, 1.0), alpha);
    let adversary = WithSchedule::new(corrupt, good);
    let outcome = run(algo, n, adversary, inputs(n, 0, 2), 2, 300);
    let max_total = per_round_max(&outcome.trace, RoundSets::total_corruptions);
    (max_total, outcome.is_safe(), outcome.all_decided())
}

/// **§5.1** — fast consensus vs. Martin/Alvisi.
///
/// \[16\]: fast Byzantine consensus requires at least ⌈(4n+1)/5⌉
/// correct processes (≈ at most n/5 Byzantine). `A_{T,E}` decides in 2
/// rounds (1 round when inputs are unanimous) while up to ⌊(n−1)/4⌋
/// processes per round emit corrupted values — a larger per-round
/// budget, enabled by per-round/per-link accounting. This artifact
/// measures decision rounds across `n` for the three regimes and
/// tabulates both bounds.
pub(super) fn fast_path(out: &mut String) {
    header(
        out,
        "Fast path — decision latency and the Martin/Alvisi comparison",
        "A_{T,E} decides in 1 round (unanimous) / 2 rounds (fault-free); fast despite \
         ⌊(n−1)/4⌋ corrupting processes per round vs. ≈ n/5 for fast Byzantine consensus",
    );
    let mut t = Table::new([
        "n",
        "α = ⌊(n−1)/4⌋",
        "MA byz budget",
        "unanimous (r)",
        "mixed (r)",
        "corrupted (mean r)",
        "safe",
    ]);
    for n in [5usize, 9, 13, 20, 29, 40] {
        let alpha = bounds::ate_max_alpha(n);
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, alpha).expect("α below n/4"));
        let unanimous = run(algo.clone(), n, NoFaults, vec![7; n], 0, 10);
        let mixed = run(algo.clone(), n, NoFaults, inputs(n, 0, 2), 0, 10);
        // Rotating corrupters every round, good round every 3rd.
        let corrupted = Scenario::new("rotating corrupters", algo, n)
            .adversary_factory(move |_| {
                Box::new(WithSchedule::new(
                    Budgeted::new(SantoroWidmayerBlock::all_receivers(), alpha),
                    GoodRounds::every(3),
                ))
            })
            .initial_factory(move |seed| inputs(n, seed, 2))
            .max_rounds(100)
            .run(0..20);
        let rounds = corrupted.rounds.as_ref().expect("every run decides");
        t.push_row(row![
            n,
            alpha,
            bounds::martin_alvisi_max_byzantine(n),
            decided_at(&unanimous, "—"),
            decided_at(&mixed, "—"),
            format!("{:.1}", rounds.mean),
            corrupted.all_consensus_ok(),
        ]);
    }
    outln!(out, "{}", t.to_ascii());
    outln!(
        out,
        "expected shape: unanimous = 1, mixed = 2, for every n; the per-round corruption\n\
         budget α = ⌊(n−1)/4⌋ meets or beats the Martin/Alvisi Byzantine budget ≈ n/5\n\
         for n ≥ 21 while remaining fast. Note the regimes differ: [16] tolerates\n\
         *static, permanent* faults; A_{{T,E}} tolerates *dynamic per-round* ones and\n\
         needs one clean round to decide."
    );
}

/// **§5.1** — attaining Lamport's `N > 2Q + F + 2M`.
///
/// Lamport conjectured this bound for asynchronous (Byzantine)
/// consensus: `N` acceptors, fast despite `Q`, live despite `F`, safe
/// despite `M`. The paper claims both algorithms attain it with `F = 0`
/// (their liveness needs the stronger transient predicates):
///
/// * `U_{T,E,α}` is safe with `M = α = (n−1)/2`  (`Q = 0`),
/// * `A_{T,E}` is safe *and fast* with `Q = M = α = (n−1)/4`.
///
/// The artifact tabulates the points and their slack against the
/// bound, and verifies empirically that A with `α = ⌊(n−1)/4⌋` is safe
/// and fast.
pub(super) fn lamport_bound(out: &mut String) {
    header(
        out,
        "Lamport's lower bound N > 2Q + F + 2M",
        "U attains (Q,F,M) = (0, 0, (n−1)/2); A attains ((n−1)/4, 0, (n−1)/4)",
    );
    let mut t = Table::new([
        "n",
        "A point (Q,F,M)",
        "2Q+F+2M",
        "slack",
        "holds",
        "U point (Q,F,M)",
        "2Q+F+2M",
        "slack",
        "holds",
    ]);
    for n in [5usize, 9, 13, 21, 41, 101] {
        let a = bounds::ate_lamport_point(n);
        let u = bounds::ute_lamport_point(n);
        t.push_row(row![
            n,
            format!("({},{},{})", a.q, a.f, a.m),
            2 * a.q + a.f + 2 * a.m,
            a.slack(),
            a.satisfies_bound(),
            format!("({},{},{})", u.q, u.f, u.m),
            2 * u.q + u.f + 2 * u.m,
            u.slack(),
            u.satisfies_bound(),
        ]);
    }
    outln!(out, "{}", t.to_ascii());

    // Empirical leg: A is safe AND fast at its point.
    let mut t2 = Table::new([
        "n",
        "α",
        "runs",
        "violations",
        "fast decisions (≤2 clean rounds)",
    ]);
    for n in [9usize, 21, 41] {
        let alpha = bounds::ate_max_alpha(n);
        let params = AteParams::balanced(n, alpha).expect("α below n/4");
        // Adversarial prelude, then clean rounds from round 4.
        let result = Scenario::new("lamport", Ate::<u64>::new(params), n)
            .adversary_factory(move |seed| family(seed as usize, alpha, GoodRounds::every(4)))
            .initial_factory(move |seed| inputs(n, seed, 2))
            .max_rounds(100)
            .run(0..20);
        // "Fast": decided within 2 rounds of the first clean round (4).
        let fast = result.decision_rounds.iter().filter(|&&r| r <= 6).count();
        t2.push_row(row![
            n,
            alpha,
            result.runs,
            result.violated,
            format!("{fast}/{}", result.runs),
        ]);
    }
    outln!(out, "{}", t2.to_ascii());
    outln!(
        out,
        "expected: the bound holds at every point, with slack 1 (exact attainment) at\n\
         n ≡ 1 (mod 4) for A and odd n for U; zero violations; fast decisions dominate.\n\
         Caveat (paper, §5.1): these points have F = 0 — liveness relies on the\n\
         transient-fault predicates, not on surviving M permanent Byzantine processes."
    );
}

/// **§5.2** — the classic Byzantine settings, expressed and checked as
/// HO predicates.
///
/// The static corrupter-set size `f` sweeps upward: the synchronous
/// (`|SK| ≥ n − f`) and asynchronous (`|HO| ≥ n − f ∧ |AS| ≤ f`)
/// predicates must hold exactly at the true `f`, and `U_{T,E,α}` must
/// keep solving consensus for every `f` within its `α` budget, with
/// *every* process (corrupters included) deciding.
pub(super) fn byzantine_emulation(out: &mut String) {
    header(
        out,
        "Byzantine emulation — predicates of §5.2",
        "synchronous: |SK| ≥ n−f; asynchronous: ∀p,r |HO(p,r)| ≥ n−f ∧ |AS| ≤ f",
    );
    let n = 13;
    let mut t = Table::new([
        "f",
        "consensus",
        "decision round",
        "sync pred @f",
        "sync pred @f−1",
        "async pred @f",
        "async pred @f−1",
    ]);
    for f in 1..=UteParams::max_alpha(n) as usize {
        let params = UteParams::tightest(n, f as u32).expect("f below n/2");
        let adversary = WithSchedule::new(
            StaticByzantine::first(n, f),
            GoodRounds::phase_window_every(8),
        );
        let outcome = run(
            Ute::new(params, 0u64),
            n,
            adversary,
            inputs(n, 0, 3),
            19,
            400,
        );
        t.push_row(row![
            f,
            outcome.consensus_ok(),
            decided_at(&outcome, ""),
            SyncByzantine::new(f).holds(&outcome.trace),
            SyncByzantine::new(f - 1).holds(&outcome.trace),
            AsyncByzantine::new(f).holds(&outcome.trace),
            AsyncByzantine::new(f - 1).holds(&outcome.trace),
        ]);
    }
    outln!(out, "{}", t.to_ascii());
    outln!(
        out,
        "expected: consensus true for every f ≤ ⌊(n−1)/2⌋ = {}; predicates hold at f and\n\
         fail at f−1 (the corrupter set is measured exactly). In this model even the\n\
         'Byzantine' processes decide — only their transmissions are faulty.",
        UteParams::max_alpha(n)
    );
}

/// **Ablation** — the decision-guard nesting ambiguity in Algorithm 1.
///
/// The paper's listing typographically nests the decision guard
/// (line 9, `> E` identical values) under the update guard (line 7,
/// `|HO| > T`). The proofs use the *unnested* reading: Proposition 3's
/// termination argument fires decisions from `|SHO(p, r)| > E` alone.
/// With the canonical `T = E` the readings coincide; with `T > E`
/// (legal under Theorem 1, e.g. `E = n/2`-ish and `T` close to `n`)
/// they diverge: the nested variant refuses decisions in rounds where a
/// value clears `E` but the heard-of set stays at or below `T`.
///
/// This artifact quantifies the divergence under omission-heavy
/// communication and confirms safety is identical for both readings.
pub(super) fn ablation_guard(out: &mut String) {
    header(
        out,
        "Ablation — nested vs. unnested decision guard (Algorithm 1, lines 7–10)",
        "the proofs require the unnested reading (Prop. 3 decides from |SHO| > E alone); \
         with T > E the nested reading loses liveness, never safety",
    );
    // n = 12, α = 0: E = 6.25 (agreement-tight), T = 11.75 (legal:
    // T ≥ 2(n − E) = 11.5, T < n). Deliberately T ≫ E.
    let n = 12;
    let e = Threshold::quarters(25); // 6.25 ≥ n/2
    let t = Threshold::quarters(47); // 11.75 ≥ 2(n − E) = 11.5
    let params = AteParams::new(n, 0, t, e).expect("valid by Theorem 1");
    outln!(out, "machine: {params} — T exceeds E by design\n");

    let mut table = Table::new([
        "drop prob",
        "variant",
        "runs",
        "decided",
        "mean decision round",
        "violations",
    ]);
    for drop in [0.0f64, 0.25, 0.4] {
        for (variant, algo) in [
            ("unnested", Ate::<u64>::new(params)),
            ("nested", Ate::new_nested(params)),
        ] {
            // Omissions keep |HO| low; every 4th round is full.
            let result = Scenario::new(variant, algo, n)
                .adversary_factory(move |_| {
                    Box::new(WithSchedule::new(
                        RandomOmission::new(drop),
                        GoodRounds::every(4),
                    ))
                })
                .initial_factory(move |seed| inputs(n, seed, 2))
                .max_rounds(60)
                .run(0..30);
            let mean = result.rounds.as_ref();
            table.push_row(row![
                format!("{drop:.2}"),
                variant,
                result.runs,
                format!("{}/{}", result.decided, result.runs),
                mean.map_or("—".to_string(), |s| format!("{:.1}", s.mean)),
                result.violated,
            ]);
        }
    }
    outln!(out, "{}", table.to_ascii());
    outln!(
        out,
        "expected shape: identical at drop = 0 (full rounds exceed both guards); as drops\n\
         grow, rounds where > E identical values arrive from ≤ T processes become common\n\
         — the unnested variant decides there, the nested one needs a fuller round.\n\
         Violations are zero for both readings at all drop rates."
    );
}

/// **Supplementary figure** — decision latency vs. fault intensity.
///
/// The paper's liveness analysis is worst-case (predicates either hold
/// or they don't); a deployment also wants the average view: how fast
/// do the algorithms decide as corruption probability and good-round
/// scarcity vary? Two sweeps over seeded runs:
///
/// 1. corruption probability `p` at fixed good-round period,
/// 2. good-round period at full corruption pressure.
///
/// The shape to expect: `A_{T,E}` often decides *between* good rounds
/// at low `p` (corruption too weak to keep estimates apart — the
/// tie-break converges on its own), collapsing to the good-round
/// cadence as `p → 1`; `U_{T,E,α}` converges through its default-value
/// pathway and is largely insensitive to `p` until votes get starved.
pub(super) fn latency_sweep(out: &mut String) {
    header(
        out,
        "Decision latency vs. fault intensity (supplementary)",
        "liveness predicates are worst-case guarantees; mean latency degrades \
         gracefully from self-convergence to the good-round cadence",
    );
    let columns = ["A: mean round", "A: p90", "U: mean round", "U: p90"];
    let latency_row = |first: String, p: f64, period: u64, max_rounds: usize| {
        let [a, u] = latencies(p, period, max_rounds);
        let (a_mean, u_mean) = (format!("{:.1}", a.mean), format!("{:.1}", u.mean));
        row![
            first,
            a_mean,
            format!("{:.0}", a.p90),
            u_mean,
            format!("{:.0}", u.p90)
        ]
    };
    let mut t1 = Table::new(["corruption p"].into_iter().chain(columns));
    for p in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        t1.push_row(latency_row(format!("{p:.2}"), p, 8, 200));
    }
    outln!(out, "{}", t1.to_ascii());
    let mut t2 = Table::new(["good-round period"].into_iter().chain(columns));
    for period in [4u64, 8, 16, 32] {
        t2.push_row(latency_row(period.to_string(), 1.0, period, 300));
    }
    outln!(out, "{}", t2.to_ascii());
    outln!(
        out,
        "expected shape: A decides in ~2 rounds fault-free and snaps to the good-round\n\
         cadence under any corruption pressure (its decisions need near-unanimous\n\
         receptions). U decides at its phase cadence (~4) regardless of corruption —\n\
         the ?-vote → default-value pathway converges on its own; only message LOSS\n\
         (vote starvation, cf. tightness_u) can stall it. Safety holds in every cell\n\
         (asserted)."
    );
}

/// Decision rounds of `A_{T,E}` and `U_{T,E,α}` at n = 12, α = 2 over
/// 30 seeds: each link corrupted with probability `p` inside the `α`
/// budget, good rounds every `period` (phase windows for `U`).
///
/// # Panics
///
/// Panics if a run is unsafe or undecided.
fn latencies(p: f64, period: u64, max_rounds: usize) -> [Summary; 2] {
    let (n, alpha) = (12, 2);
    let corrupt = move || Budgeted::new(RandomCorruption::new(alpha, p), alpha);
    let ate = Ate::<u64>::new(AteParams::balanced(n, alpha).expect("α below n/4"));
    let a = Scenario::new("A", ate, n)
        .adversary_factory(move |_| {
            Box::new(WithSchedule::new(corrupt(), GoodRounds::every(period)))
        })
        .max_rounds(max_rounds)
        .run(0..30);
    let ute = Ute::new(UteParams::tightest(n, alpha).expect("α below n/2"), 0u64);
    let u = Scenario::new("U", ute, n)
        .adversary_factory(move |_| {
            let good = GoodRounds::phase_window_every(period);
            Box::new(WithSchedule::new(corrupt(), good))
        })
        .max_rounds(max_rounds)
        .run(0..30);
    [a, u].map(|result| {
        assert!(result.all_consensus_ok(), "{result}");
        result.rounds.expect("every run decided")
    })
}
