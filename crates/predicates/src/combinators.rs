//! Predicate combinators.
//!
//! HO machines are specified with conjunctions like
//! `P_α ∧ P^{U,safe} ∧ P^{U,live}`; [`All`] builds exactly those.

use crate::report::{CommPredicate, PredicateReport, PredicateViolation};
use heardof_model::History;

/// Conjunction of predicates: holds iff every part holds.
///
/// # Examples
///
/// ```
/// use heardof_model::CommHistory;
/// use heardof_predicates::{All, CommPredicate, MinSho, PAlpha};
///
/// let machine_predicate = All::new(vec![
///     Box::new(PAlpha::new(2)),
///     Box::new(MinSho::new(7)),
/// ]);
/// let empty = CommHistory::new(10);
/// assert!(machine_predicate.holds(&empty)); // vacuous on the empty prefix
/// ```
#[derive(Debug)]
pub struct All {
    parts: Vec<Box<dyn CommPredicate>>,
}

impl All {
    /// Conjunction of the given predicates.
    pub fn new(parts: Vec<Box<dyn CommPredicate>>) -> Self {
        All { parts }
    }

    /// The conjuncts.
    pub fn parts(&self) -> &[Box<dyn CommPredicate>] {
        &self.parts
    }
}

impl CommPredicate for All {
    fn name(&self) -> String {
        if self.parts.is_empty() {
            "⊤".to_string()
        } else {
            self.parts
                .iter()
                .map(|p| p.name())
                .collect::<Vec<_>>()
                .join(" ∧ ")
        }
    }

    fn check(&self, history: &dyn History) -> PredicateReport {
        let mut violations = Vec::new();
        for part in &self.parts {
            let report = part.check(history);
            if !report.holds {
                for v in report.violations {
                    violations.push(PredicateViolation {
                        round: v.round,
                        process: v.process,
                        detail: format!("{}: {}", part.name(), v.detail),
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

/// Negation of a predicate (diagnostic tool; the paper never negates).
#[derive(Debug)]
pub struct Not {
    inner: Box<dyn CommPredicate>,
}

impl Not {
    /// Negates `inner`.
    pub fn new(inner: Box<dyn CommPredicate>) -> Self {
        Not { inner }
    }
}

impl CommPredicate for Not {
    fn name(&self) -> String {
        format!("¬({})", self.inner.name())
    }

    fn check(&self, history: &dyn History) -> PredicateReport {
        let report = self.inner.check(history);
        if report.holds {
            PredicateReport::fail(
                self.name(),
                vec![PredicateViolation {
                    round: None,
                    process: None,
                    detail: format!("{} holds", self.inner.name()),
                }],
            )
        } else {
            PredicateReport::pass(self.name())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::{PAlpha, PBenign};
    use heardof_model::{CommHistory, MessageMatrix, ProcessId, RoundSets};

    fn corrupted_history() -> CommHistory {
        let intended = MessageMatrix::from_fn(3, |_, _| Some(1u64));
        let mut delivered = intended.clone();
        delivered.mutate_cell(ProcessId::new(0), ProcessId::new(1), |_| 9);
        let mut h = CommHistory::new(3);
        h.push(RoundSets::from_matrices(&intended, &delivered));
        h
    }

    #[test]
    fn all_requires_every_part() {
        let h = corrupted_history();
        let both = All::new(vec![Box::new(PAlpha::new(1)), Box::new(PBenign)]);
        let report = both.check(&h);
        assert!(!report.holds);
        // Only the PBenign violation surfaces, prefixed by its name.
        assert!(report
            .violations
            .iter()
            .all(|v| v.detail.contains("P_benign")));
        assert!(both.name().contains("∧"));

        let weaker = All::new(vec![Box::new(PAlpha::new(1))]);
        assert!(weaker.holds(&h));
    }

    #[test]
    fn empty_conjunction_is_top() {
        let all = All::new(vec![]);
        assert_eq!(all.name(), "⊤");
        assert!(all.holds(&CommHistory::new(2)));
    }

    #[test]
    fn not_inverts() {
        let h = corrupted_history();
        let not_benign = Not::new(Box::new(PBenign));
        assert!(not_benign.holds(&h));
        let not_palpha = Not::new(Box::new(PAlpha::new(1)));
        assert!(!not_palpha.holds(&h));
        assert!(not_palpha.name().starts_with("¬("));
    }
}
