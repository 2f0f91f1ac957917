//! The predicate interface and its evaluation reports.

use heardof_model::{History, ProcessId, Round};
use std::fmt;

/// One spot where a predicate failed to hold.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PredicateViolation {
    /// The round involved, if the failure is round-local.
    pub round: Option<Round>,
    /// The process involved, if the failure is process-local.
    pub process: Option<ProcessId>,
    /// Human-readable description of what was violated.
    pub detail: String,
}

impl fmt::Display for PredicateViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.round, self.process) {
            (Some(r), Some(p)) => write!(f, "[{r}, {p}] {}", self.detail),
            (Some(r), None) => write!(f, "[{r}] {}", self.detail),
            (None, Some(p)) => write!(f, "[{p}] {}", self.detail),
            (None, None) => write!(f, "{}", self.detail),
        }
    }
}

/// The outcome of evaluating a communication predicate on a history.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PredicateReport {
    /// The predicate's name.
    pub predicate: String,
    /// Whether the predicate held on the (finite prefix of the) history.
    pub holds: bool,
    /// Where it failed, if it failed.
    pub violations: Vec<PredicateViolation>,
}

impl PredicateReport {
    /// A passing report.
    pub fn pass(predicate: impl Into<String>) -> Self {
        PredicateReport {
            predicate: predicate.into(),
            holds: true,
            violations: Vec::new(),
        }
    }

    /// A failing report carrying its violations.
    pub fn fail(predicate: impl Into<String>, violations: Vec<PredicateViolation>) -> Self {
        PredicateReport {
            predicate: predicate.into(),
            holds: false,
            violations,
        }
    }
}

impl fmt::Display for PredicateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.holds {
            write!(f, "{}: holds", self.predicate)
        } else {
            write!(
                f,
                "{}: violated ({} violation{})",
                self.predicate,
                self.violations.len(),
                if self.violations.len() == 1 { "" } else { "s" }
            )?;
            if let Some(first) = self.violations.first() {
                write!(f, ", first: {first}")?;
            }
            Ok(())
        }
    }
}

/// A communication predicate over the heard-of collections
/// `(HO(p, r); SHO(p, r))` of a run.
///
/// Implementations evaluate on *finite prefixes*: permanent predicates
/// (`P_α`, `P^{U,safe}`, …) hold iff they hold at every recorded round;
/// eventual predicates (`P^{A,live}`, `P^{U,live}`) hold iff their
/// existential witness occurs within the prefix. Both papers'
/// predicates are time-invariant, so prefix evaluation is the natural
/// finite restriction.
pub trait CommPredicate: fmt::Debug + Send {
    /// A short name in the paper's notation (e.g. `P_α(2)`).
    fn name(&self) -> String;

    /// Evaluates the predicate, reporting where it fails.
    fn check(&self, history: &dyn History) -> PredicateReport;

    /// `true` iff the predicate holds on the prefix.
    fn holds(&self, history: &dyn History) -> bool {
        self.check(history).holds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_pass_and_fail() {
        let pass = PredicateReport::pass("P_test");
        assert_eq!(pass.to_string(), "P_test: holds");
        assert!(pass.violations.is_empty());

        let fail = PredicateReport::fail(
            "P_test",
            vec![PredicateViolation {
                round: Some(Round::new(3)),
                process: Some(ProcessId::new(1)),
                detail: "too corrupted".into(),
            }],
        );
        assert!(fail.to_string().contains("violated"));
        assert!(fail.to_string().contains("[r3, p1] too corrupted"));
    }

    #[test]
    fn violation_display_variants() {
        let v = PredicateViolation {
            round: None,
            process: None,
            detail: "global failure".into(),
        };
        assert_eq!(v.to_string(), "global failure");
        let v = PredicateViolation {
            round: Some(Round::new(2)),
            process: None,
            detail: "x".into(),
        };
        assert_eq!(v.to_string(), "[r2] x");
    }
}
