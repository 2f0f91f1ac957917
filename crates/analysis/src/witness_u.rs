//! Exhaustive adversary search for `U_{T,E,α}` — why `P^{U,safe}` exists.
//!
//! Proposition 5 proves Agreement for `U_{T,E,α}` under `P_α ∧
//! P^{U,safe}`; the paper notes `P_α` alone is *not* enough (the vote
//! certification can be starved by message loss, Lemma 9). This module
//! makes both directions executable for binary values and small `n`:
//!
//! * without the `P^{U,safe}` floor, the search produces concrete
//!   Agreement/Integrity violations (typically the classic
//!   decide-then-default-away scenario);
//! * with the floor (`|SHO(p, r)| ≥ min_sho` for every reception), the
//!   search exhausts with no violation within the horizon.
//!
//! ## Outcome abstraction
//!
//! `U`'s transitions depend only on a handful of threshold facts about
//! the reception multiset, so instead of enumerating delivery matrices
//! we enumerate *receiver outcomes* and check each for realizability:
//!
//! * estimate round (`2φ−1`): vote `0`, vote `1`, or keep `?`,
//! * vote round (`2φ`): which value (if any) gets certified/adopted
//!   (`≥ α+1` identical votes) and which (if any) gets decided
//!   (`> E` identical votes).
//!
//! An outcome is *realizable* if some reception multiset within the
//! corruption budget (and the optional `min_sho` floor) induces it.
//! This is sound and complete over binary values: two receptions
//! inducing the same outcome are indistinguishable to the algorithm.
//! The search itself is the shared driver of [`crate::WitnessSearch`],
//! with the estimate/vote alternation as its two phases.

use crate::witness::{search, Abstraction, SearchOutcome};
use heardof_core::UteParams;
use std::fmt;

/// A receiver's abstract experience in one round of the search.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UChoice {
    /// Estimate round: end the round with this vote (`None` = `?`).
    Est {
        /// The vote cast (stays `?` when no value clears `T`).
        vote: Option<bool>,
    },
    /// Vote round: adopt this estimate (`None` = the default `v₀ = 0`)
    /// and possibly decide.
    Vote {
        /// The certified value adopted into `x` (`None` → default).
        adopt: Option<bool>,
        /// The decision taken, if any.
        decide: Option<bool>,
    },
}

impl fmt::Display for UChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UChoice::Est { vote: Some(v) } => write!(f, "vote {}", u8::from(*v)),
            UChoice::Est { vote: None } => write!(f, "vote ?"),
            UChoice::Vote { adopt, decide } => {
                match adopt {
                    Some(v) => write!(f, "x←{}", u8::from(*v))?,
                    None => write!(f, "x←v₀")?,
                }
                if let Some(v) = decide {
                    write!(f, ",decide {}", u8::from(*v))?;
                }
                Ok(())
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct UProc {
    x: bool,
    vote: Option<bool>,
    decided: Option<bool>,
}

/// Exhaustive bounded search for `U_{T,E,α}` safety violations.
///
/// # Examples
///
/// `P_α` alone does not protect `U` — but adding the `P^{U,safe}` floor
/// does (Lemma 9):
///
/// ```
/// use heardof_analysis::UteWitnessSearch;
/// use heardof_core::UteParams;
///
/// let params = UteParams::tightest(4, 1)?; // valid thresholds!
/// // The default value v₀ = 0, so a decide-1-then-default-to-0 split
/// // needs a 1-majority to start from.
/// let initial = [true, true, true, false];
///
/// // Unrestricted message loss: a witness exists.
/// let free = UteWitnessSearch::new(params, 3).run(&initial);
/// assert!(free.found_violation());
///
/// // With |SHO| ≥ the P^{U,safe} floor, the search exhausts clean.
/// let floor = params.u_safe_bound().min_exceeding_count();
/// let safe = UteWitnessSearch::new(params, 2).with_min_sho(floor).run(&initial);
/// assert!(!safe.found_violation());
/// # Ok::<(), heardof_core::ParamError>(())
/// ```
#[derive(Clone, Debug)]
pub struct UteWitnessSearch {
    params: UteParams,
    max_phases: usize,
    min_sho: Option<usize>,
    max_states: usize,
}

impl UteWitnessSearch {
    /// A search against `params` with the given phase horizon (each
    /// phase is two rounds). The corruption budget is `params.alpha()`;
    /// the default value `v₀` is `0` (`false`).
    pub fn new(params: UteParams, max_phases: usize) -> Self {
        UteWitnessSearch {
            params,
            max_phases,
            min_sho: None,
            max_states: 2_000_000,
        }
    }

    /// Enforces the `P^{U,safe}` cardinality floor: every reception must
    /// keep at least `min_sho` uncorrupted messages.
    pub fn with_min_sho(mut self, min_sho: usize) -> Self {
        self.min_sho = Some(min_sho);
        self
    }

    /// Caps the number of distinct configurations explored.
    pub fn max_states(mut self, cap: usize) -> Self {
        self.max_states = cap;
        self
    }

    /// `true` if a two-category reception `(c0, c1)` (counts of value-0
    /// and value-1 messages) is realizable from true counts
    /// `(t0, t1)` within the budget and the optional floor.
    fn reception_ok(&self, kept_free: usize, delivered: usize) -> bool {
        // `kept_free` = messages deliverable without corruption;
        // corruptions needed = delivered − kept_free.
        if delivered < kept_free {
            return false;
        }
        if delivered - kept_free > self.params.alpha() as usize {
            return false;
        }
        if let Some(floor) = self.min_sho {
            if kept_free < floor {
                return false;
            }
        }
        true
    }

    /// The achievable estimate-round outcomes given the true counts of
    /// `0`- and `1`-estimates.
    fn est_options(&self, t0: usize, t1: usize) -> Vec<UChoice> {
        let n = self.params.n();
        let t_min = self.params.t().min_exceeding_count();
        let mut out = Vec::with_capacity(3);
        'choice: for vote in [Some(false), Some(true), None] {
            // Search all receptions (c0, c1).
            for m in 0..=n {
                for c0 in 0..=m {
                    let c1 = m - c0;
                    let free = c0.min(t0) + c1.min(t1);
                    if !self.reception_ok(free, m) {
                        continue;
                    }
                    // The algorithm votes for the smallest value
                    // clearing T.
                    let induced = if c0 >= t_min {
                        Some(false)
                    } else if c1 >= t_min {
                        Some(true)
                    } else {
                        None
                    };
                    if induced == vote {
                        out.push(UChoice::Est { vote });
                        continue 'choice;
                    }
                }
            }
        }
        out
    }

    /// The achievable vote-round outcomes given the true counts of `?`,
    /// `vote 0` and `vote 1` messages.
    fn vote_options(&self, tq: usize, t0: usize, t1: usize) -> Vec<UChoice> {
        let n = self.params.n();
        let e_min = self.params.e().min_exceeding_count();
        let cert = self.params.alpha() as usize + 1;
        let mut seen = Vec::new();
        for m in 0..=n {
            for c0 in 0..=m {
                for c1 in 0..=(m - c0) {
                    let cq = m - c0 - c1;
                    let free = cq.min(tq) + c0.min(t0) + c1.min(t1);
                    if !self.reception_ok(free, m) {
                        continue;
                    }
                    let adopt = if c0 >= cert {
                        Some(false)
                    } else if c1 >= cert {
                        Some(true)
                    } else {
                        None
                    };
                    let decide = if c0 >= e_min {
                        Some(false)
                    } else if c1 >= e_min {
                        Some(true)
                    } else {
                        None
                    };
                    let choice = UChoice::Vote { adopt, decide };
                    if !seen.contains(&choice) {
                        seen.push(choice);
                    }
                }
            }
        }
        seen
    }

    /// Runs the search from the given initial configuration.
    pub fn run(&self, initial: &[bool]) -> SearchOutcome<UChoice> {
        assert_eq!(
            initial.len(),
            self.params.n(),
            "one initial value per process"
        );
        search(self, initial, self.max_phases * 2, self.max_states)
    }
}

impl Abstraction for UteWitnessSearch {
    type Proc = UProc;
    type Choice = UChoice;
    /// An estimate round, then a vote round.
    const PHASES: usize = 2;

    fn start(x: bool) -> UProc {
        UProc {
            x,
            vote: None,
            decided: None,
        }
    }

    fn decided(proc: &UProc) -> Option<bool> {
        proc.decided
    }

    fn choices(&self, config: &[UProc], phase: usize) -> Vec<UChoice> {
        let n = self.params.n();
        if phase == 0 {
            let t1 = config.iter().filter(|p| p.x).count();
            self.est_options(n - t1, t1)
        } else {
            let tq = config.iter().filter(|p| p.vote.is_none()).count();
            let t1 = config.iter().filter(|p| p.vote == Some(true)).count();
            self.vote_options(tq, n - tq - t1, t1)
        }
    }

    fn apply(&self, proc: UProc, choice: UChoice) -> UProc {
        let mut next = proc;
        match choice {
            UChoice::Est { vote } => {
                if vote.is_some() {
                    next.vote = vote;
                }
            }
            UChoice::Vote { adopt, decide } => {
                next.x = adopt.unwrap_or(false); // v₀ = 0
                if next.decided.is_none() {
                    if let Some(v) = decide {
                        next.decided = Some(v);
                    }
                }
                next.vote = None; // line 20
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_params() -> UteParams {
        UteParams::tightest(4, 1).unwrap() // E = T = 3
    }

    #[test]
    fn p_alpha_alone_admits_agreement_violation() {
        // Valid thresholds, unrestricted drops: Lemma 9's failure mode.
        // (A 1-majority start: with v₀ = 0, deciding 1 first and then
        // defaulting the others away toward 0 is the breakable shape.)
        let outcome = UteWitnessSearch::new(valid_params(), 3).run(&[true, true, true, false]);
        let SearchOutcome::Violation(w) = outcome else {
            panic!("expected a violation (P_α alone is insufficient for U)");
        };
        assert!(w.violation.contains("agreement"), "{w}");
        assert!(!w.rounds.is_empty());
    }

    #[test]
    fn default_value_asymmetry_protects_zero_majorities() {
        // From a 0-majority, every pathway (true votes, defaults) leads
        // to 0: the search honestly reports that no violation exists —
        // the witness family is complete over the binary domain.
        let outcome = UteWitnessSearch::new(valid_params(), 3).run(&[false, false, false, true]);
        assert!(!outcome.found_violation());
    }

    #[test]
    fn u_safe_floor_restores_safety() {
        let params = valid_params();
        let floor = params.u_safe_bound().min_exceeding_count();
        assert_eq!(
            floor, 4,
            "at n=4, α=1 the floor demands full safe reception"
        );
        let outcome = UteWitnessSearch::new(params, 3)
            .with_min_sho(floor)
            .run(&[true, true, true, false]);
        match outcome {
            SearchOutcome::Exhausted { complete, .. } => assert!(complete),
            SearchOutcome::Violation(w) => panic!("unexpected violation:\n{w}"),
        }
    }

    #[test]
    fn default_value_pathway_breaks_integrity_without_u_safe() {
        // Unanimous 1s with default v₀ = 0: starve the votes, adopt the
        // default, then decide it.
        let outcome = UteWitnessSearch::new(valid_params(), 3).run(&[true, true, true, true]);
        let SearchOutcome::Violation(w) = outcome else {
            panic!("expected an integrity violation");
        };
        assert!(w.violation.contains("integrity"), "{w}");
    }

    #[test]
    fn u_safe_floor_protects_integrity_too() {
        let params = valid_params();
        let floor = params.u_safe_bound().min_exceeding_count();
        let outcome = UteWitnessSearch::new(params, 3)
            .with_min_sho(floor)
            .run(&[true, true, true, true]);
        assert!(!outcome.found_violation());
    }

    #[test]
    fn n5_alpha2_same_story() {
        let params = UteParams::tightest(5, 2).unwrap(); // E = T = 4.5
        let initial = [true, true, true, false, false];
        assert!(UteWitnessSearch::new(params, 3)
            .run(&initial)
            .found_violation());
        let floor = params.u_safe_bound().min_exceeding_count();
        assert!(!UteWitnessSearch::new(params, 3)
            .with_min_sho(floor)
            .run(&initial)
            .found_violation());
    }

    #[test]
    fn witness_is_replayable_prose() {
        let outcome = UteWitnessSearch::new(valid_params(), 3).run(&[true, true, true, false]);
        if let SearchOutcome::Violation(w) = outcome {
            let text = w.to_string();
            assert!(text.contains("round 1:"));
            assert!(text.contains("initial x: [1, 1, 1, 0]"));
        } else {
            panic!("expected violation");
        }
    }

    #[test]
    fn est_options_respect_budget() {
        let s = UteWitnessSearch::new(valid_params(), 1);
        // All four estimates are 0: vote-1 would need 3 corruptions.
        let opts = s.est_options(4, 0);
        assert!(opts.contains(&UChoice::Est { vote: Some(false) }));
        assert!(!opts.contains(&UChoice::Est { vote: Some(true) }));
        assert!(opts.contains(&UChoice::Est { vote: None })); // drop enough
    }

    #[test]
    fn vote_options_certification_threshold() {
        let s = UteWitnessSearch::new(valid_params(), 1);
        // One true vote for 1, three ?: certification (α+1 = 2) for 1 is
        // reachable with one corruption; decision (> 3) is not.
        let opts = s.vote_options(3, 0, 1);
        assert!(opts.contains(&UChoice::Vote {
            adopt: Some(true),
            decide: None
        }));
        assert!(!opts.iter().any(|c| matches!(
            c,
            UChoice::Vote {
                decide: Some(_),
                ..
            }
        )));
    }

    #[test]
    fn state_cap_reports_incomplete() {
        // All-zero inputs cannot be violated (deciding 1 is unreachable
        // with v₀ = 0), but the unrestricted search branches plenty —
        // a tiny cap must be reported as incomplete.
        let outcome = UteWitnessSearch::new(valid_params(), 3)
            .max_states(2)
            .run(&[false, false, false, false]);
        if let SearchOutcome::Exhausted { complete, .. } = outcome {
            assert!(!complete);
        } else {
            panic!("all-zero inputs admit no violation");
        }
    }
}
