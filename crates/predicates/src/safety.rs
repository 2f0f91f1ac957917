//! Safety-side communication predicates.
//!
//! Predicates over the `SHO` collections characterize the safety of
//! communication (§2.2). The central one is
//!
//! > `P_α :: ∀r > 0, ∀p ∈ Π : |AHO(p, r)| ≤ α`   (2)
//!
//! together with the classical `P_α^perm :: |AS| ≤ α` (1), the benign
//! restriction `SHO = HO`, and the per-round cardinality bound used by
//! `P^{U,safe}` (7).

use crate::report::{CommPredicate, PredicateReport, PredicateViolation};
use heardof_model::{all_processes, History, Round};

/// `P_α`: at most `alpha` corrupted receptions per process per round —
/// the paper's α-safe communication.
///
/// # Examples
///
/// ```
/// use heardof_model::{CommHistory, MessageMatrix, ProcessId, RoundSets};
/// use heardof_predicates::{CommPredicate, PAlpha};
///
/// let intended = MessageMatrix::from_fn(3, |_, _| Some(1u64));
/// let mut delivered = intended.clone();
/// delivered.mutate_cell(ProcessId::new(0), ProcessId::new(1), |_| 9);
/// let mut h = CommHistory::new(3);
/// h.push(RoundSets::from_matrices(&intended, &delivered));
///
/// assert!(PAlpha::new(1).holds(&h));
/// assert!(!PAlpha::new(0).holds(&h));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PAlpha {
    alpha: u32,
}

impl PAlpha {
    /// The predicate `P_α` with budget `alpha`.
    pub fn new(alpha: u32) -> Self {
        PAlpha { alpha }
    }

    /// The budget `α`.
    pub fn alpha(&self) -> u32 {
        self.alpha
    }
}

impl CommPredicate for PAlpha {
    fn name(&self) -> String {
        format!("P_α(α={})", self.alpha)
    }

    fn check(&self, history: &dyn History) -> PredicateReport {
        let mut violations = Vec::new();
        for i in 0..history.num_rounds() {
            let round = Round::new(i as u64 + 1);
            let sets = history.round_sets(round);
            for p in all_processes(history.n()) {
                let aho = sets.aho_len(p);
                if aho > self.alpha as usize {
                    violations.push(PredicateViolation {
                        round: Some(round),
                        process: Some(p),
                        detail: format!("|AHO| = {aho} exceeds α = {}", self.alpha),
                    });
                }
            }
        }
        if violations.is_empty() {
            PredicateReport::pass(self.name())
        } else {
            PredicateReport::fail(self.name(), violations)
        }
    }
}

/// `P_α^perm`: at most `alpha` processes ever emit corrupted information
/// over the whole run (`|AS| ≤ α`) — the classical static reading.
/// Implies `P_α`.
#[derive(Clone, Copy, Debug)]
pub struct PPermAlpha {
    alpha: u32,
}

impl PPermAlpha {
    /// The predicate `P_α^perm` with budget `alpha`.
    pub fn new(alpha: u32) -> Self {
        PPermAlpha { alpha }
    }
}

impl CommPredicate for PPermAlpha {
    fn name(&self) -> String {
        format!("P_α^perm(α={})", self.alpha)
    }

    fn check(&self, history: &dyn History) -> PredicateReport {
        let mut span = heardof_model::ProcessSet::empty(history.n());
        for i in 0..history.num_rounds() {
            let round = Round::new(i as u64 + 1);
            span.union_with(&history.round_sets(round).altered_span());
        }
        if span.len() <= self.alpha as usize {
            PredicateReport::pass(self.name())
        } else {
            PredicateReport::fail(
                self.name(),
                vec![PredicateViolation {
                    round: None,
                    process: None,
                    detail: format!(
                        "|AS| = {} exceeds α = {} (altered span {span})",
                        span.len(),
                        self.alpha
                    ),
                }],
            )
        }
    }
}

/// `P_benign`: no value fault ever (`SHO(p, r) = HO(p, r)` everywhere) —
/// the benign HO model of \[6\] as a special case.
#[derive(Clone, Copy, Debug, Default)]
pub struct PBenign;

impl CommPredicate for PBenign {
    fn name(&self) -> String {
        "P_benign".to_string()
    }

    fn check(&self, history: &dyn History) -> PredicateReport {
        let mut violations = Vec::new();
        for i in 0..history.num_rounds() {
            let round = Round::new(i as u64 + 1);
            let sets = history.round_sets(round);
            for p in all_processes(history.n()) {
                if sets.aho_len(p) > 0 {
                    violations.push(PredicateViolation {
                        round: Some(round),
                        process: Some(p),
                        detail: format!("SHO ≠ HO: |AHO| = {}", sets.aho_len(p)),
                    });
                }
            }
        }
        if violations.is_empty() {
            PredicateReport::pass(self.name())
        } else {
            PredicateReport::fail(self.name(), violations)
        }
    }
}

/// The cardinality side of `P^{U,safe}` (7): every process hears *safely*
/// from at least `min_sho` processes in every round
/// (`|SHO(p, r)| ≥ min_sho`, i.e. strictly more than `min_sho − 1`).
///
/// Instantiate with `min_sho = ⌊max(n + 2α − E − 1, T, α)⌋ + 1` to get
/// the paper's `P^{U,safe}` exactly (see `UteParams::u_safe_bound`).
#[derive(Clone, Copy, Debug)]
pub struct MinSho {
    min_sho: usize,
}

impl MinSho {
    /// Requires `|SHO(p, r)| ≥ min_sho` for every process and round.
    pub fn new(min_sho: usize) -> Self {
        MinSho { min_sho }
    }
}

impl CommPredicate for MinSho {
    fn name(&self) -> String {
        format!("∀p,r: |SHO(p,r)| ≥ {}", self.min_sho)
    }

    fn check(&self, history: &dyn History) -> PredicateReport {
        let mut violations = Vec::new();
        for i in 0..history.num_rounds() {
            let round = Round::new(i as u64 + 1);
            let sets = history.round_sets(round);
            for p in all_processes(history.n()) {
                let sho = sets.sho(p).len();
                if sho < self.min_sho {
                    violations.push(PredicateViolation {
                        round: Some(round),
                        process: Some(p),
                        detail: format!("|SHO| = {sho} below required {}", self.min_sho),
                    });
                }
            }
        }
        if violations.is_empty() {
            PredicateReport::pass(self.name())
        } else {
            PredicateReport::fail(self.name(), violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_model::{CommHistory, MessageMatrix, ProcessId, RoundSets};

    /// History with one round where p0→p1 is corrupted and p2→p1 dropped.
    fn mixed_history() -> CommHistory {
        let intended = MessageMatrix::from_fn(3, |_, _| Some(1u64));
        let mut delivered = intended.clone();
        delivered.mutate_cell(ProcessId::new(0), ProcessId::new(1), |_| 9);
        delivered.clear(ProcessId::new(2), ProcessId::new(1));
        let mut h = CommHistory::new(3);
        h.push(RoundSets::from_matrices(&intended, &delivered));
        h
    }

    fn clean_history(n: usize, rounds: usize) -> CommHistory {
        let intended = MessageMatrix::from_fn(n, |_, _| Some(1u64));
        let mut h = CommHistory::new(n);
        for _ in 0..rounds {
            h.push(RoundSets::from_matrices(&intended, &intended));
        }
        h
    }

    #[test]
    fn p_alpha_thresholds() {
        let h = mixed_history();
        assert!(PAlpha::new(1).holds(&h));
        assert!(PAlpha::new(5).holds(&h));
        let report = PAlpha::new(0).check(&h);
        assert!(!report.holds);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].process, Some(ProcessId::new(1)));
    }

    #[test]
    fn p_perm_alpha_counts_span() {
        let h = mixed_history();
        assert!(PPermAlpha::new(1).holds(&h));
        assert!(!PPermAlpha::new(0).holds(&h));
    }

    #[test]
    fn p_benign_rejects_any_corruption() {
        assert!(PBenign.holds(&clean_history(3, 5)));
        let report = PBenign.check(&mixed_history());
        assert!(!report.holds);
        assert!(report.to_string().contains("SHO ≠ HO"));
    }

    #[test]
    fn p_benign_tolerates_omissions() {
        // Drops are benign: SHO = HO still holds.
        let intended = MessageMatrix::from_fn(3, |_, _| Some(1u64));
        let mut delivered = intended.clone();
        delivered.clear(ProcessId::new(0), ProcessId::new(1));
        let mut h = CommHistory::new(3);
        h.push(RoundSets::from_matrices(&intended, &delivered));
        assert!(PBenign.holds(&h));
    }

    #[test]
    fn min_sho_bound() {
        let h = mixed_history();
        // p1 hears safely only from itself: |SHO(p1)| = 1.
        assert!(MinSho::new(1).holds(&h));
        let report = MinSho::new(2).check(&h);
        assert!(!report.holds);
        assert_eq!(report.violations[0].process, Some(ProcessId::new(1)));
        assert!(MinSho::new(3).holds(&clean_history(3, 2)));
    }

    #[test]
    fn empty_history_vacuously_safe() {
        let h = CommHistory::new(4);
        assert!(PAlpha::new(0).holds(&h));
        assert!(PBenign.holds(&h));
        assert!(MinSho::new(4).holds(&h));
    }

    #[test]
    fn names_use_paper_notation() {
        assert_eq!(PAlpha::new(2).name(), "P_α(α=2)");
        assert!(PPermAlpha::new(2).name().contains("perm"));
        assert_eq!(PBenign.name(), "P_benign");
    }
}
