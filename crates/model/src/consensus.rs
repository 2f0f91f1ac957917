//! The consensus specification and its checker.
//!
//! Consensus over a totally ordered set `V` (§2.3): every process has an
//! initial value and decides irrevocably, such that
//!
//! * **Integrity** — if all initial values equal `v₀`, then `v₀` is the
//!   only possible decision,
//! * **Agreement** — no two processes decide differently,
//! * **Termination** — all processes eventually decide.
//!
//! Because there are no faulty processes in this model, the clauses make
//! **no exemption**: *all* processes must agree and decide.
//!
//! [`check_consensus`] verifies the safety clauses (plus decision
//! irrevocability) on a recorded trace; Termination on a finite prefix is
//! reported as "did everyone decide within the prefix".

use crate::algorithm::HoAlgorithm;
use crate::ids::{ProcessId, Round};
use crate::trace::RunTrace;
use std::fmt;

/// A violation of the consensus specification found in a trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation<V> {
    /// Two processes decided different values.
    Agreement {
        /// First decider.
        p: ProcessId,
        /// Its decision.
        v_p: V,
        /// Second decider.
        q: ProcessId,
        /// Its (different) decision.
        v_q: V,
        /// Round by which both decisions were visible.
        round: Round,
    },
    /// All initial values were equal but some process decided otherwise.
    Integrity {
        /// The common initial value.
        initial: V,
        /// The offending decider.
        p: ProcessId,
        /// The value it decided.
        decided: V,
        /// Round of the offending decision.
        round: Round,
    },
    /// A process changed its decision — decisions must be irrevocable.
    Revoked {
        /// The offending process.
        p: ProcessId,
        /// Its earlier decision.
        before: V,
        /// Its later, different decision.
        after: V,
        /// Round of the change.
        round: Round,
    },
}

impl<V: fmt::Debug> fmt::Display for Violation<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Agreement { p, v_p, q, v_q, round } => write!(
                f,
                "agreement violated at {round}: {p} decided {v_p:?} but {q} decided {v_q:?}"
            ),
            Violation::Integrity { initial, p, decided, round } => write!(
                f,
                "integrity violated at {round}: all initial values were {initial:?} but {p} decided {decided:?}"
            ),
            Violation::Revoked { p, before, after, round } => write!(
                f,
                "decision revoked at {round}: {p} changed {before:?} to {after:?}"
            ),
        }
    }
}

/// The result of checking a trace against the consensus specification.
#[derive(Clone, Debug)]
pub struct ConsensusVerdict<V> {
    /// All violations found, in round order.
    pub violations: Vec<Violation<V>>,
    /// Per-process `(first decision round, value)`, if decided.
    pub decisions: Vec<Option<(Round, V)>>,
    /// `true` if every process decided within the trace.
    pub all_decided: bool,
}

impl<V> ConsensusVerdict<V> {
    /// `true` if no safety violation was found.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }

    /// `true` if safe *and* every process decided within the prefix.
    pub fn consensus_reached(&self) -> bool {
        self.is_safe() && self.all_decided
    }

    /// The latest decision round among deciders, if all decided.
    pub fn last_decision_round(&self) -> Option<Round> {
        if !self.all_decided {
            return None;
        }
        self.decisions
            .iter()
            .filter_map(|d| d.as_ref().map(|(r, _)| *r))
            .max()
    }
}

/// Checks Agreement, Integrity and decision irrevocability over a trace.
///
/// Termination cannot be verified on a finite prefix; the verdict's
/// `all_decided` flag reports whether every process had decided by the
/// end of the recorded rounds.
///
/// # Examples
///
/// ```
/// # use heardof_model::*;
/// # #[derive(Clone, Debug)]
/// # struct Noop;
/// # impl HoAlgorithm for Noop {
/// #     type Value = u64; type Msg = u64; type State = u64;
/// #     fn name(&self) -> &'static str { "noop" }
/// #     fn init(&self, _p: ProcessId, _n: usize, v: u64) -> u64 { v }
/// #     fn send(&self, _r: Round, _p: ProcessId, s: &u64, _d: ProcessId) -> u64 { *s }
/// #     fn transition(&self, _r: Round, _p: ProcessId, _s: &mut u64,
/// #                   _rx: &ReceptionVector<u64>) {}
/// #     fn decision(&self, _s: &u64) -> Option<u64> { None }
/// # }
/// let trace: RunTrace<Noop> = RunTrace::new(2, vec![3, 3]);
/// let verdict = check_consensus(&trace);
/// assert!(verdict.is_safe());         // empty trace: vacuously safe
/// assert!(!verdict.all_decided);      // but nobody decided
/// ```
pub fn check_consensus<A: HoAlgorithm>(trace: &RunTrace<A>) -> ConsensusVerdict<A::Value> {
    let n = trace.initial_values().len();
    let mut violations = Vec::new();
    let mut decisions: Vec<Option<(Round, A::Value)>> = vec![None; n];

    let unanimous: Option<&A::Value> = {
        let initials = trace.initial_values();
        let first = initials.first();
        if initials.iter().all(|v| Some(v) == first) {
            first
        } else {
            None
        }
    };

    for rec in trace.rounds() {
        for p in 0..n {
            let pid = ProcessId::new(p as u32);
            let now = rec.decisions[p].as_ref();
            match (&decisions[p], now) {
                (None, Some(v)) => {
                    // Fresh decision: check Integrity, then Agreement
                    // against every earlier decider.
                    if let Some(v0) = unanimous {
                        if v != v0 {
                            violations.push(Violation::Integrity {
                                initial: v0.clone(),
                                p: pid,
                                decided: v.clone(),
                                round: rec.round,
                            });
                        }
                    }
                    for (q, dq) in decisions.iter().enumerate() {
                        if let Some((_, vq)) = dq {
                            if vq != v {
                                violations.push(Violation::Agreement {
                                    p: ProcessId::new(q as u32),
                                    v_p: vq.clone(),
                                    q: pid,
                                    v_q: v.clone(),
                                    round: rec.round,
                                });
                            }
                        }
                    }
                    decisions[p] = Some((rec.round, v.clone()));
                }
                (Some((_, before)), Some(after)) if before != after => {
                    violations.push(Violation::Revoked {
                        p: pid,
                        before: before.clone(),
                        after: after.clone(),
                        round: rec.round,
                    });
                }
                (Some((_, before)), None) => {
                    // A decision disappeared entirely — also a revocation.
                    violations.push(Violation::Revoked {
                        p: pid,
                        before: before.clone(),
                        after: before.clone(),
                        round: rec.round,
                    });
                }
                _ => {}
            }
        }
    }

    let all_decided = decisions.iter().all(|d| d.is_some());
    ConsensusVerdict {
        violations,
        decisions,
        all_decided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MessageMatrix;
    use crate::sets::RoundSets;
    use crate::trace::RoundRecord;
    use crate::vector::ReceptionVector;

    #[derive(Clone, Debug)]
    struct Noop;

    impl HoAlgorithm for Noop {
        type Value = u64;
        type Msg = u64;
        type State = u64;

        fn name(&self) -> &'static str {
            "noop"
        }
        fn init(&self, _p: ProcessId, _n: usize, v: u64) -> u64 {
            v
        }
        fn send(&self, _r: Round, _p: ProcessId, s: &u64, _d: ProcessId) -> u64 {
            *s
        }
        fn transition(&self, _r: Round, _p: ProcessId, _s: &mut u64, _rx: &ReceptionVector<u64>) {}
        fn decision(&self, _s: &u64) -> Option<u64> {
            None
        }
    }

    fn push_round(trace: &mut RunTrace<Noop>, round: u64, decisions: Vec<Option<u64>>) {
        let n = decisions.len();
        let m = MessageMatrix::from_fn(n, |_, _| Some(0u64));
        trace.push(RoundRecord {
            round: Round::new(round),
            sets: RoundSets::from_matrices(&m, &m),
            decisions,
            detail: None,
        });
    }

    #[test]
    fn clean_consensus_passes() {
        let mut t: RunTrace<Noop> = RunTrace::new(3, vec![1, 2, 1]);
        push_round(&mut t, 1, vec![None, Some(1), None]);
        push_round(&mut t, 2, vec![Some(1), Some(1), Some(1)]);
        let v = check_consensus(&t);
        assert!(v.is_safe());
        assert!(v.all_decided);
        assert!(v.consensus_reached());
        assert_eq!(v.last_decision_round(), Some(Round::new(2)));
    }

    #[test]
    fn agreement_violation_detected() {
        let mut t: RunTrace<Noop> = RunTrace::new(2, vec![1, 2]);
        push_round(&mut t, 1, vec![Some(1), None]);
        push_round(&mut t, 2, vec![Some(1), Some(2)]);
        let v = check_consensus(&t);
        assert!(!v.is_safe());
        assert!(matches!(v.violations[0], Violation::Agreement { .. }));
        let msg = v.violations[0].to_string();
        assert!(msg.contains("agreement violated"), "got: {msg}");
    }

    #[test]
    fn integrity_violation_detected() {
        let mut t: RunTrace<Noop> = RunTrace::new(2, vec![5, 5]);
        push_round(&mut t, 1, vec![Some(6), None]);
        let v = check_consensus(&t);
        assert!(matches!(
            v.violations[0],
            Violation::Integrity {
                initial: 5,
                decided: 6,
                ..
            }
        ));
    }

    #[test]
    fn integrity_not_checked_when_initials_differ() {
        let mut t: RunTrace<Noop> = RunTrace::new(2, vec![5, 7]);
        push_round(&mut t, 1, vec![Some(6), Some(6)]);
        // Deciding 6 is an *Integrity*-legal outcome here (initials differ),
        // though a real algorithm would only pick a proposed value.
        let v = check_consensus(&t);
        assert!(v.is_safe());
    }

    #[test]
    fn revocation_detected() {
        let mut t: RunTrace<Noop> = RunTrace::new(1, vec![1]);
        push_round(&mut t, 1, vec![Some(1)]);
        push_round(&mut t, 2, vec![Some(2)]);
        let v = check_consensus(&t);
        assert!(matches!(
            v.violations[0],
            Violation::Revoked {
                before: 1,
                after: 2,
                ..
            }
        ));
    }

    #[test]
    fn vanished_decision_is_revocation() {
        let mut t: RunTrace<Noop> = RunTrace::new(1, vec![1]);
        push_round(&mut t, 1, vec![Some(1)]);
        push_round(&mut t, 2, vec![None]);
        let v = check_consensus(&t);
        assert_eq!(v.violations.len(), 1);
        assert!(matches!(v.violations[0], Violation::Revoked { .. }));
    }

    #[test]
    fn incomplete_decisions_not_terminated() {
        let mut t: RunTrace<Noop> = RunTrace::new(2, vec![1, 1]);
        push_round(&mut t, 1, vec![Some(1), None]);
        let v = check_consensus(&t);
        assert!(v.is_safe());
        assert!(!v.all_decided);
        assert!(!v.consensus_reached());
        assert_eq!(v.last_decision_round(), None);
    }
}
