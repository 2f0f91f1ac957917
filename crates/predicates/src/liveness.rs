//! Liveness-side communication predicates.
//!
//! These are the *eventual* predicates of Figures 1 and 2. Both are
//! time-invariant in the paper's sense (`∀r ∃r₀ ≥ r : …`); on a finite
//! recorded prefix we check the natural restriction: the existential
//! witness must occur within the prefix, and the recurring reception
//! clauses must re-occur after it (which is exactly what the
//! termination proofs consume).
//!
//! All bounds are expressed as *minimum counts*: a guard `|X| > B` with
//! a real-valued `B` becomes `|X| ≥ ⌊B⌋ + 1`; use
//! `Threshold::min_exceeding_count` from `heardof-core` to convert.

use crate::report::{CommPredicate, PredicateReport, PredicateViolation};
use heardof_model::{all_processes, History, Phase, ProcessSet, Round};
use std::collections::HashMap;

/// `P^{A,live}` (Figure 1), as minimum counts:
///
/// 1. some round `r₀` has sets `Π¹, Π²` with `|Π¹| ≥ pi1_min`
///    (`> E − α`), `|Π²| ≥ t_min` (`> T`) and
///    `HO(p, r₀) = SHO(p, r₀) = Π²` for every `p ∈ Π¹`;
/// 2. at or after `r₀`, every process hears `≥ t_min` processes
///    (`|HO| > T`);
/// 3. at or after `r₀`, every process hears *safely* `≥ e_min`
///    processes (`|SHO| > E`).
///
/// The paper states 2–3 as recurrences (`∀r ∃r_p > r`), which no finite
/// prefix can verify; the *occurrence at-or-after the witness* is what
/// the Termination proof consumes within the prefix, so that is what we
/// check. (A run that decides exactly at the witness round satisfies
/// both conjuncts at `r₀` itself.)
///
/// # Examples
///
/// ```
/// use heardof_model::{CommHistory, MessageMatrix, RoundSets};
/// use heardof_predicates::{ALive, CommPredicate};
///
/// // Three perfect rounds: the witness is round 1 and the recurring
/// // clauses re-occur afterwards.
/// let m = MessageMatrix::from_fn(4, |_, _| Some(1u64));
/// let mut h = CommHistory::new(4);
/// for _ in 0..3 {
///     h.push(RoundSets::from_matrices(&m, &m));
/// }
/// let live = ALive::new(3, 3, 3); // counts for n=4, T=E=2n/3, α=0
/// assert!(live.holds(&h));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ALive {
    pi1_min: usize,
    t_min: usize,
    e_min: usize,
}

impl ALive {
    /// Builds the predicate from minimum counts:
    /// `pi1_min` realizes `|Π¹| > E − α`, `t_min` realizes `> T`,
    /// `e_min` realizes `> E`.
    pub fn new(pi1_min: usize, t_min: usize, e_min: usize) -> Self {
        ALive {
            pi1_min,
            t_min,
            e_min,
        }
    }

    /// The first round satisfying conjunct 1 within the prefix, if any.
    fn first_uniform_round(&self, history: &dyn History) -> Option<Round> {
        for i in 0..history.num_rounds() {
            let round = Round::new(i as u64 + 1);
            if self.uniform_round_holds(history, round) {
                return Some(round);
            }
        }
        None
    }

    fn uniform_round_holds(&self, history: &dyn History, round: Round) -> bool {
        let sets = history.round_sets(round);
        // Group processes by their common HO = SHO set; a qualifying Π¹
        // is any group of ≥ pi1_min processes sharing a set of size
        // ≥ t_min.
        let mut groups: HashMap<&ProcessSet, usize> = HashMap::new();
        for p in all_processes(history.n()) {
            let ho = sets.ho(p);
            if ho == sets.sho(p) {
                *groups.entry(ho).or_insert(0) += 1;
            }
        }
        groups
            .into_iter()
            .any(|(set, count)| count >= self.pi1_min && set.len() >= self.t_min)
    }
}

impl CommPredicate for ALive {
    fn name(&self) -> String {
        format!(
            "P^A,live(|Π¹|≥{}, |Π²|≥{}, |SHO|≥{})",
            self.pi1_min, self.t_min, self.e_min
        )
    }

    fn check(&self, history: &dyn History) -> PredicateReport {
        let Some(r0) = self.first_uniform_round(history) else {
            return PredicateReport::fail(
                self.name(),
                vec![PredicateViolation {
                    round: None,
                    process: None,
                    detail: format!(
                        "no round has ≥ {} processes with identical uncorrupted \
                         reception from ≥ {} senders",
                        self.pi1_min, self.t_min
                    ),
                }],
            );
        };
        let mut violations = Vec::new();
        for p in all_processes(history.n()) {
            let mut heard_again = false;
            let mut safe_again = false;
            for i in r0.index()..history.num_rounds() {
                let sets = history.round_sets(Round::new(i as u64 + 1));
                heard_again |= sets.ho(p).len() >= self.t_min;
                safe_again |= sets.sho(p).len() >= self.e_min;
            }
            if !heard_again {
                violations.push(PredicateViolation {
                    round: Some(r0),
                    process: Some(p),
                    detail: format!(
                        "|HO| never reaches {} at or after the uniform round",
                        self.t_min
                    ),
                });
            }
            if !safe_again {
                violations.push(PredicateViolation {
                    round: Some(r0),
                    process: Some(p),
                    detail: format!(
                        "|SHO| never reaches {} at or after the uniform round",
                        self.e_min
                    ),
                });
            }
        }
        if violations.is_empty() {
            PredicateReport::pass(self.name())
        } else {
            PredicateReport::fail(self.name(), violations)
        }
    }
}

/// `P^{U,live}` (Figure 2), as minimum counts: some phase `φ₀` has
///
/// 1. a *uniform safe* round `2φ₀`: one set `Π₀` with
///    `HO(p, 2φ₀) = SHO(p, 2φ₀) = Π₀` for **every** `p`,
/// 2. `|SHO(p, 2φ₀+1)| ≥ t_min` for every `p` (`> T`),
/// 3. `|SHO(p, 2φ₀+2)| ≥ max(e_min, alpha + 1)` for every `p`
///    (`> max(E, α)`).
#[derive(Clone, Copy, Debug)]
pub struct ULive {
    t_min: usize,
    e_min: usize,
    alpha: u32,
}

impl ULive {
    /// Builds the predicate from minimum counts (`t_min` realizes `> T`,
    /// `e_min` realizes `> E`) and the budget `α`.
    pub fn new(t_min: usize, e_min: usize, alpha: u32) -> Self {
        ULive {
            t_min,
            e_min,
            alpha,
        }
    }

    /// The first phase `φ₀` whose window satisfies all three conjuncts
    /// within the prefix, if any.
    fn witness_phase(&self, history: &dyn History) -> Option<Phase> {
        let rounds = history.num_rounds() as u64;
        let mut phi = 1u64;
        loop {
            let phase = Phase::new(phi);
            let r0 = phase.second_round(); // 2φ₀
            if r0.get() + 2 > rounds {
                return None;
            }
            if self.window_holds(history, phase) {
                return Some(phase);
            }
            phi += 1;
        }
    }

    fn window_holds(&self, history: &dyn History, phase: Phase) -> bool {
        let n = history.n();
        let r0 = phase.second_round();
        let sets0 = history.round_sets(r0);
        // Conjunct 1: all processes share one uncorrupted reception set.
        let mut pi0: Option<&ProcessSet> = None;
        for p in all_processes(n) {
            let ho = sets0.ho(p);
            if ho != sets0.sho(p) {
                return false;
            }
            match pi0 {
                None => pi0 = Some(ho),
                Some(prev) if prev == ho => {}
                Some(_) => return false,
            }
        }
        // Conjuncts 2–3.
        let sets1 = history.round_sets(r0.next());
        let sets2 = history.round_sets(r0.next().next());
        let third_min = self.e_min.max(self.alpha as usize + 1);
        all_processes(n).all(|p| sets1.sho(p).len() >= self.t_min)
            && all_processes(n).all(|p| sets2.sho(p).len() >= third_min)
    }
}

impl CommPredicate for ULive {
    fn name(&self) -> String {
        format!(
            "P^U,live(|SHO(2φ₀+1)|≥{}, |SHO(2φ₀+2)|≥{})",
            self.t_min,
            self.e_min.max(self.alpha as usize + 1)
        )
    }

    fn check(&self, history: &dyn History) -> PredicateReport {
        match self.witness_phase(history) {
            Some(_) => PredicateReport::pass(self.name()),
            None => PredicateReport::fail(
                self.name(),
                vec![PredicateViolation {
                    round: None,
                    process: None,
                    detail: "no phase φ₀ has a uniform safe round 2φ₀ followed by \
                             two rounds of sufficient safe reception"
                        .to_string(),
                }],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_model::{CommHistory, MessageMatrix, ProcessId, RoundSets};

    fn perfect_round(n: usize) -> RoundSets {
        let m = MessageMatrix::from_fn(n, |_, _| Some(1u64));
        RoundSets::from_matrices(&m, &m)
    }

    /// A round where every receiver hears everyone but `corrupt` senders
    /// arrive corrupted at every receiver.
    fn corrupted_round(n: usize, corrupt: &[u32]) -> RoundSets {
        let intended = MessageMatrix::from_fn(n, |_, _| Some(1u64));
        let mut delivered = intended.clone();
        for &c in corrupt {
            for r in 0..n {
                delivered.mutate_cell(ProcessId::new(c), ProcessId::new(r as u32), |_| 9);
            }
        }
        RoundSets::from_matrices(&intended, &delivered)
    }

    /// A round where only `group` processes receive perfectly from all,
    /// and everyone else receives corrupted data from half the senders.
    fn partial_uniform_round(n: usize, group: &[u32]) -> RoundSets {
        let intended = MessageMatrix::from_fn(n, |_, _| Some(1u64));
        let mut delivered = intended.clone();
        for r in 0..n as u32 {
            if !group.contains(&r) {
                for c in 0..(n / 2) as u32 {
                    delivered.mutate_cell(ProcessId::new(c), ProcessId::new(r), |_| 9);
                }
            }
        }
        RoundSets::from_matrices(&intended, &delivered)
    }

    #[test]
    fn alive_holds_on_perfect_history() {
        let mut h = CommHistory::new(4);
        for _ in 0..3 {
            h.push(perfect_round(4));
        }
        let live = ALive::new(3, 3, 3);
        assert!(live.holds(&h));
        assert_eq!(live.first_uniform_round(&h), Some(Round::new(1)));
    }

    #[test]
    fn alive_fails_without_uniform_round() {
        // Every round corrupts one sender at every receiver: no process
        // ever has HO = SHO.
        let mut h = CommHistory::new(4);
        for _ in 0..5 {
            h.push(corrupted_round(4, &[0]));
        }
        let live = ALive::new(1, 1, 1);
        let report = live.check(&h);
        assert!(!report.holds);
        assert!(report.to_string().contains("no round"));
    }

    #[test]
    fn alive_accepts_partial_uniform_group() {
        // Only processes {0,1,2} receive perfectly; that is a Π¹ of 3
        // with Π² = Π (size 6).
        let mut h = CommHistory::new(6);
        h.push(partial_uniform_round(6, &[0, 1, 2]));
        // Demanding a Π¹ of 4 fails while the group is the only witness…
        assert!(!ALive::new(4, 5, 5).holds(&h));
        // …and the other processes' |SHO| only recovers in a later round:
        h.push(perfect_round(6));
        assert!(ALive::new(3, 5, 5).holds(&h));
    }

    #[test]
    fn alive_witness_round_itself_counts_for_occurrence() {
        // A single perfect round: conjuncts 2–3 are satisfied at the
        // witness round itself (this is exactly a run that decides at
        // its first good round).
        let mut h = CommHistory::new(4);
        h.push(perfect_round(4));
        assert!(ALive::new(3, 3, 3).holds(&h));
    }

    #[test]
    fn alive_fails_when_safe_reception_never_recovers() {
        // The witness round exists (Π¹ = {0,1,2}), but processes outside
        // it never reach |SHO| ≥ 5 — conjunct 3 is violated.
        let mut h = CommHistory::new(6);
        h.push(partial_uniform_round(6, &[0, 1, 2]));
        let report = ALive::new(3, 5, 5).check(&h);
        assert!(!report.holds);
        assert!(report.violations.iter().any(|v| v.detail.contains("|SHO|")));
    }

    #[test]
    fn ulive_needs_aligned_window() {
        let n = 4;
        let live = ULive::new(3, 3, 0);
        // Perfect rounds 1–4: window at 2φ₀ = 2 works (rounds 2, 3, 4).
        let mut h = CommHistory::new(n);
        for _ in 0..4 {
            h.push(perfect_round(n));
        }
        assert_eq!(live.witness_phase(&h), Some(Phase::new(1)));
        assert!(live.holds(&h));

        // Too short a prefix: rounds 1–3 cannot host 2φ₀+2 ≤ 3 → fails.
        let mut h = CommHistory::new(n);
        for _ in 0..3 {
            h.push(perfect_round(n));
        }
        assert!(!live.holds(&h));
    }

    #[test]
    fn ulive_rejects_non_uniform_even_round() {
        let n = 4;
        let live = ULive::new(3, 3, 0);
        let mut h = CommHistory::new(n);
        h.push(perfect_round(n)); // round 1
        h.push(corrupted_round(n, &[1])); // round 2 = 2φ₀ corrupted
        h.push(perfect_round(n)); // round 3
        h.push(perfect_round(n)); // round 4
                                  // Round 2 fails conjunct 1; round 4 = 2φ₀ needs rounds 5, 6.
        assert_eq!(live.witness_phase(&h), None);
        let mut h2 = h.clone();
        h2.push(perfect_round(n)); // round 5
        h2.push(perfect_round(n)); // round 6
        assert_eq!(live.witness_phase(&h2), Some(Phase::new(2)));
    }

    #[test]
    fn ulive_third_round_uses_alpha_floor() {
        let n = 4;
        // α = 3: third window round needs |SHO| ≥ 4 even with e_min = 1.
        let live = ULive::new(1, 1, 3);
        assert!(live.name().contains("≥4"));
        let mut h = CommHistory::new(n);
        for _ in 0..4 {
            h.push(perfect_round(n));
        }
        assert!(live.holds(&h)); // perfect rounds have |SHO| = 4
    }

    #[test]
    fn ulive_uniformity_must_be_identical_across_processes() {
        let n = 4;
        // Round where each process hears a *different* (but safe) set:
        // drop one distinct sender per receiver.
        let intended = MessageMatrix::from_fn(n, |_, _| Some(1u64));
        let mut delivered = intended.clone();
        for r in 0..n {
            delivered.clear(ProcessId::new(r as u32), ProcessId::new(r as u32));
        }
        let differing = RoundSets::from_matrices(&intended, &delivered);
        let mut h = CommHistory::new(n);
        h.push(perfect_round(n));
        h.push(differing); // round 2: HO = SHO but Π₀ differs per process
        h.push(perfect_round(n));
        h.push(perfect_round(n));
        let live = ULive::new(3, 3, 0);
        assert_eq!(live.witness_phase(&h), None);
    }
}
