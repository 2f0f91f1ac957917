//! Exhaustive adversary search for `A_{T,E}` — tightness as code.
//!
//! The paper's conditions (`E ≥ n/2 + α`, `T ≥ 2(n + 2α − E)`) are
//! sufficient for safety. This module searches *all* adversary behaviours
//! from a canonical family, over binary inputs, for a bounded number of
//! rounds, and either produces a concrete violation **witness** (showing
//! a weakened condition really is unsafe) or reports exhaustion (no
//! violation exists within the family and horizon — a bounded
//! verification of the proofs).
//!
//! ## The adversary family
//!
//! Because `A_{T,E}` broadcasts and its transition depends only on the
//! *multiset* of received values, over the binary domain `{0, 1}` a
//! receiver's round is fully described by:
//!
//! * `Silence` — hears nobody (pure omission), or
//! * `HearAll { ones }` — hears all `n` processes, with the number of
//!   `1`s shifted from the true count by at most the corruption budget
//!   `α` (each unit of shift costs one corrupted message).
//!
//! This family is sound (every found witness is a real run violating
//! `P_α`-bounded safety) and covers the extremal behaviours the proofs
//! fight: threshold stuffing in both directions plus total omission.
//! Witnesses can be replayed against the real simulator.
//!
//! ## One search
//!
//! This search and [`crate::UteWitnessSearch`] share one driver,
//! [`search`], on the model checker's [`Explorer`]. Each says what a
//! process state is, which choices a receiver has and what a choice
//! does; the driver owns the Agreement/Integrity check and the
//! [`Witness`].

use heardof_core::AteParams;
use heardof_mc::{odometer, Explorer};
use std::fmt;
use std::hash::Hash;
use std::ops::ControlFlow;

/// A concrete safety violation found by a witness search; `C` is what
/// one receiver experiences in one round of that search's family.
#[derive(Clone, Debug)]
pub struct Witness<C> {
    /// The initial binary configuration.
    pub initial: Vec<bool>,
    /// Per round, the choice applied at each receiver.
    pub rounds: Vec<Vec<C>>,
    /// Description of the violated clause.
    pub violation: String,
}

impl<C: fmt::Display> fmt::Display for Witness<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "violation: {}", self.violation)?;
        let initial: Vec<String> = self
            .initial
            .iter()
            .map(|&b| u8::from(b).to_string())
            .collect();
        writeln!(f, "initial x: [{}]", initial.join(", "))?;
        for (i, round) in self.rounds.iter().enumerate() {
            let choices: Vec<String> = round
                .iter()
                .enumerate()
                .map(|(p, c)| format!("p{p}: {c}"))
                .collect();
            writeln!(f, "round {}: {}", i + 1, choices.join(" | "))?;
        }
        Ok(())
    }
}

/// The outcome of an exhaustive witness search.
#[derive(Clone, Debug)]
pub enum SearchOutcome<C> {
    /// A safety violation exists; here is one.
    Violation(Box<Witness<C>>),
    /// No violation within the family and horizon.
    Exhausted {
        /// Distinct configurations explored.
        states_explored: usize,
        /// `false` if the exploration cap was hit before exhaustion.
        complete: bool,
    },
}

impl<C> SearchOutcome<C> {
    /// `true` if a violation was found.
    pub fn found_violation(&self) -> bool {
        matches!(self, SearchOutcome::Violation(_))
    }
}

/// One binary-valued abstraction of a consensus algorithm: what
/// [`search`] needs to know about it.
pub(crate) trait Abstraction {
    /// One process's abstract state.
    type Proc: Copy + Eq + Hash;
    /// What one receiver experiences in one round.
    type Choice: Copy;
    /// Rounds per phase: the choices of round `r` (from 0) depend on
    /// `r % PHASES`, and so does a configuration's future.
    const PHASES: usize;

    /// A process starting with estimate `x`.
    fn start(x: bool) -> Self::Proc;

    /// The process's decision, if any.
    fn decided(proc: &Self::Proc) -> Option<bool>;

    /// Every receiver's choices in a round of phase `phase` from
    /// `config`.
    fn choices(&self, config: &[Self::Proc], phase: usize) -> Vec<Self::Choice>;

    /// What `choice` does to `proc`.
    fn apply(&self, proc: Self::Proc, choice: Self::Choice) -> Self::Proc;
}

/// Breadth-first search from `initial` over every vector of
/// per-receiver choices, for `max_rounds` rounds and at most
/// `max_states` configurations, checking Agreement and Integrity at
/// every new configuration. The first violation found is a shortest
/// one. A search that stops at the horizon is exhausted; only the state
/// cap leaves it incomplete.
pub(crate) fn search<M: Abstraction>(
    model: &M,
    initial: &[bool],
    max_rounds: usize,
    max_states: usize,
) -> SearchOutcome<M::Choice> {
    let unanimous = if initial.iter().all(|&b| b == initial[0]) {
        initial.first().copied()
    } else {
        None
    };
    let witness = |rounds, violation| {
        SearchOutcome::Violation(Box::new(Witness {
            initial: initial.to_vec(),
            rounds,
            violation,
        }))
    };
    let start: Vec<M::Proc> = initial.iter().map(|&x| M::start(x)).collect();
    if let Some(violation) = violation_of::<M>(&start, unanimous) {
        // Degenerate, but handle it: an initial violation is empty.
        return witness(Vec::new(), violation);
    }

    // The key carries the phase: identical-looking configurations in
    // different phases have different futures.
    let mut explorer = Explorer::new((start, 0), max_states);
    while let Some(id) = explorer.pop() {
        let depth = explorer.depth(id) as usize;
        if depth >= max_rounds {
            continue;
        }
        let (config, phase) = explorer.state(id).clone();
        let choices = model.choices(&config, phase);
        let next_phase = (depth + 1) % M::PHASES;
        let found = odometer(&vec![choices.len(); config.len()], |pick| {
            let picked: Vec<M::Choice> = pick.iter().map(|&i| choices[i]).collect();
            let next = config
                .iter()
                .zip(&picked)
                .map(|(p, c)| model.apply(*p, *c))
                .collect();
            if let Some(new) = explorer.insert(id, picked, (next, next_phase)) {
                if let Some(violation) = violation_of::<M>(&explorer.state(new).0, unanimous) {
                    return ControlFlow::Break((new, violation));
                }
            }
            ControlFlow::Continue(())
        });
        if let ControlFlow::Break((new, violation)) = found {
            return witness(explorer.path(new), violation);
        }
    }

    SearchOutcome::Exhausted {
        states_explored: explorer.states(),
        complete: !explorer.capped(),
    }
}

/// The first Integrity or Agreement clause `config` breaks.
fn violation_of<M: Abstraction>(config: &[M::Proc], unanimous: Option<bool>) -> Option<String> {
    let mut seen: Option<bool> = None;
    for (i, d) in config.iter().enumerate() {
        let Some(d) = M::decided(d) else {
            continue;
        };
        if let Some(v0) = unanimous.filter(|&v0| v0 != d) {
            return Some(format!(
                "integrity: all initial values were {} but p{i} decided {}",
                u8::from(v0),
                u8::from(d)
            ));
        }
        match seen {
            None => seen = Some(d),
            Some(prev) if prev != d => {
                return Some(format!(
                    "agreement: decisions {} and {} coexist",
                    u8::from(prev),
                    u8::from(d)
                ));
            }
            _ => {}
        }
    }
    None
}

/// What one receiver experiences in one round of the search family.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReceiverChoice {
    /// The receiver hears nobody.
    Silence,
    /// The receiver hears all `n` senders, `ones` of the received values
    /// being `1` (the rest `0`).
    HearAll {
        /// Number of `1`-valued messages delivered.
        ones: usize,
    },
    /// The receiver hears exactly `m < n` senders, `ones` of the
    /// received values being `1` (opt-in, see
    /// [`WitnessSearch::with_partial_hearing`]).
    HearSome {
        /// Number of messages delivered.
        m: usize,
        /// Number of `1`-valued messages among them.
        ones: usize,
    },
}

impl fmt::Display for ReceiverChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReceiverChoice::Silence => write!(f, "∅"),
            ReceiverChoice::HearAll { ones } => write!(f, "1×{ones}"),
            ReceiverChoice::HearSome { m, ones } => write!(f, "{m}msgs,1×{ones}"),
        }
    }
}

/// One process's abstract state in the search.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Proc {
    x: bool,
    decided: Option<bool>,
}

/// Exhaustive bounded search for Agreement/Integrity violations of
/// `A_{T,E}` under per-receiver corruption budget `α`.
///
/// # Examples
///
/// Weakening `E` below `n/2 + α` admits a one-round agreement violation:
///
/// ```
/// use heardof_analysis::WitnessSearch;
/// use heardof_core::{AteParams, Threshold};
///
/// // n=4, α=1: agreement requires E ≥ 3; take E = 2.
/// let bad = AteParams::unchecked(4, 1, Threshold::integer(2), Threshold::integer(2));
/// let search = WitnessSearch::new(bad, 2);
/// let outcome = search.run(&[false, false, true, true]);
/// assert!(outcome.found_violation());
/// ```
#[derive(Clone, Debug)]
pub struct WitnessSearch {
    params: AteParams,
    max_rounds: usize,
    allow_silence: bool,
    partial_hearing: bool,
    max_states: usize,
}

impl WitnessSearch {
    /// A search against `params` (typically built with
    /// `AteParams::unchecked` to weaken a condition) with the given round
    /// horizon. The corruption budget is `params.alpha()`.
    pub fn new(params: AteParams, max_rounds: usize) -> Self {
        WitnessSearch {
            params,
            max_rounds,
            allow_silence: true,
            partial_hearing: false,
            max_states: 2_000_000,
        }
    }

    /// Excludes the `Silence` option (pure-corruption adversaries).
    pub fn without_silence(mut self) -> Self {
        self.allow_silence = false;
        self
    }

    /// Adds partial-hearing options: receptions of exactly `m` messages
    /// for `m` just below and just above the update threshold `T` —
    /// the shapes that probe the lock bound hardest. Widens the family
    /// (branching grows ≈ 3×), so it is opt-in.
    pub fn with_partial_hearing(mut self) -> Self {
        self.partial_hearing = true;
        self
    }

    /// Caps the number of distinct configurations explored.
    pub fn max_states(mut self, cap: usize) -> Self {
        self.max_states = cap;
        self
    }

    /// Runs the search from the given initial configuration.
    pub fn run(&self, initial: &[bool]) -> SearchOutcome<ReceiverChoice> {
        assert_eq!(
            initial.len(),
            self.params.n(),
            "one initial value per process"
        );
        search(self, initial, self.max_rounds, self.max_states)
    }
}

impl Abstraction for WitnessSearch {
    type Proc = Proc;
    type Choice = ReceiverChoice;
    const PHASES: usize = 1;

    fn start(x: bool) -> Proc {
        Proc { x, decided: None }
    }

    fn decided(proc: &Proc) -> Option<bool> {
        proc.decided
    }

    fn choices(&self, config: &[Proc], _phase: usize) -> Vec<ReceiverChoice> {
        let n = self.params.n();
        let budget = self.params.alpha() as usize;
        // True send counts this round.
        let true_ones = config.iter().filter(|p| p.x).count();
        let lo = true_ones.saturating_sub(budget);
        let hi = (true_ones + budget).min(n);
        let mut options: Vec<ReceiverChoice> = Vec::with_capacity(hi - lo + 2);
        if self.allow_silence {
            options.push(ReceiverChoice::Silence);
        }
        for ones in lo..=hi {
            options.push(ReceiverChoice::HearAll { ones });
        }
        if self.partial_hearing {
            // Receptions of exactly m messages for m straddling the
            // update threshold. A kept sub-multiset has o true ones
            // with o ∈ [max(0, m−(n−true_ones)), min(m, true_ones)];
            // corruption shifts it by ≤ budget.
            let t_edge = self.params.t().min_exceeding_count();
            for m in [t_edge.saturating_sub(1), t_edge] {
                if m == 0 || m >= n {
                    continue;
                }
                let o_lo = m.saturating_sub(n - true_ones);
                let o_hi = m.min(true_ones);
                if o_lo > o_hi {
                    continue;
                }
                for ones in o_lo.saturating_sub(budget)..=(o_hi + budget).min(m) {
                    options.push(ReceiverChoice::HearSome { m, ones });
                }
            }
        }
        options
    }

    fn apply(&self, proc: Proc, choice: ReceiverChoice) -> Proc {
        let (m, ones) = match choice {
            ReceiverChoice::Silence => return proc,
            ReceiverChoice::HearAll { ones } => (self.params.n(), ones),
            ReceiverChoice::HearSome { m, ones } => (m, ones),
        };
        let zeros = m - ones;
        let mut next = proc;
        // Line 7–8: update to the smallest most frequent value
        // (ties → 0) once more than T messages were heard.
        if self.params.t().exceeded_by(m) {
            next.x = ones > zeros;
        }
        // Line 9–10: decide; smallest candidate first.
        if next.decided.is_none() {
            if self.params.e().exceeded_by(zeros) {
                next.decided = Some(false);
            } else if self.params.e().exceeded_by(ones) {
                next.decided = Some(true);
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_core::Threshold;

    #[test]
    fn weak_e_admits_agreement_violation() {
        // n=4, α=1: Prop. 1 demands E ≥ 3; E = 2 must break in 1 round.
        let bad = AteParams::unchecked(4, 1, Threshold::integer(2), Threshold::integer(2));
        let outcome = WitnessSearch::new(bad, 2).run(&[false, false, true, true]);
        let SearchOutcome::Violation(w) = outcome else {
            panic!("expected a violation");
        };
        assert!(w.violation.contains("agreement"));
        assert_eq!(w.rounds.len(), 1, "one round suffices:\n{w}");
    }

    #[test]
    fn weak_e_admits_integrity_violation() {
        // Prop. 2 demands E ≥ α. Take n=3, α=2, E=1 (< α): from
        // unanimous zeros the adversary can deliver 2 ones / 1 zero to a
        // receiver: ones = 2 > E but zeros = 1 ≤ E, forcing decision 1.
        let bad = AteParams::unchecked(3, 2, Threshold::integer(3), Threshold::integer(1));
        let outcome = WitnessSearch::new(bad, 2).run(&[false, false, false]);
        let SearchOutcome::Violation(w) = outcome else {
            panic!("expected a violation");
        };
        assert!(w.violation.contains("integrity"), "{w}");
    }

    #[test]
    fn valid_params_admit_no_violation() {
        // n=4, α=0 balanced (OneThirdRule): exhaustive over 3 rounds.
        let good = AteParams::balanced(4, 0).unwrap();
        let outcome = WitnessSearch::new(good, 3).run(&[false, false, true, true]);
        match outcome {
            SearchOutcome::Exhausted {
                complete,
                states_explored,
            } => {
                assert!(complete, "search must exhaust");
                assert!(states_explored > 1);
            }
            SearchOutcome::Violation(w) => panic!("unexpected violation:\n{w}"),
        }
    }

    #[test]
    fn valid_fractional_params_admit_no_violation() {
        // n=5, α=1 via quarter thresholds (E=4.75, T=4.5): the paper
        // says this is safe; verify exhaustively for 2 rounds.
        let good = AteParams::max_e(5, 1).unwrap();
        let outcome = WitnessSearch::new(good, 2).run(&[false, false, false, true, true]);
        assert!(!outcome.found_violation());
    }

    #[test]
    fn over_budget_adversary_breaks_valid_params() {
        // Valid thresholds for α=1 but an adversary allowed α=3: the
        // machine is now outside its predicate and must break.
        let params_for_alpha1 = AteParams::max_e(5, 1).unwrap();
        let overpowered = AteParams::unchecked(
            5,
            3, // budget the search uses
            params_for_alpha1.t(),
            params_for_alpha1.e(),
        );
        let outcome = WitnessSearch::new(overpowered, 2).run(&[false, false, false, true, true]);
        assert!(
            outcome.found_violation(),
            "E=4.75 cannot withstand α=3 at n=5"
        );
    }

    #[test]
    fn partial_hearing_widens_the_family_soundly() {
        // Valid params survive even the widened family…
        let good = AteParams::balanced(5, 1).unwrap_or_else(|_| AteParams::max_e(5, 1).unwrap());
        let outcome = WitnessSearch::new(good, 2)
            .with_partial_hearing()
            .run(&[false, false, false, true, true]);
        assert!(!outcome.found_violation());

        // …and weakened ones still break, with the extra shapes available.
        let bad = AteParams::unchecked(5, 1, Threshold::integer(2), Threshold::integer(2));
        let outcome = WitnessSearch::new(bad, 2)
            .with_partial_hearing()
            .run(&[false, false, false, true, true]);
        assert!(outcome.found_violation());
    }

    #[test]
    fn silence_can_be_disabled() {
        let good = AteParams::balanced(4, 0).unwrap();
        let outcome = WitnessSearch::new(good, 2)
            .without_silence()
            .run(&[false, true, false, true]);
        assert!(!outcome.found_violation());
    }

    #[test]
    fn witness_display_is_readable() {
        let bad = AteParams::unchecked(4, 1, Threshold::integer(2), Threshold::integer(2));
        if let SearchOutcome::Violation(w) =
            WitnessSearch::new(bad, 2).run(&[false, false, true, true])
        {
            let text = w.to_string();
            assert!(text.contains("violation: agreement"));
            assert!(text.contains("round 1:"));
            assert!(text.contains("initial x: [0, 0, 1, 1]"));
        } else {
            panic!("expected violation");
        }
    }

    #[test]
    fn state_cap_reports_incomplete() {
        let good = AteParams::balanced(4, 0).unwrap();
        let outcome = WitnessSearch::new(good, 3)
            .max_states(3)
            .run(&[false, false, true, true]);
        if let SearchOutcome::Exhausted { complete, .. } = outcome {
            assert!(!complete);
        } else {
            panic!("tiny cap cannot find violations for valid params");
        }
    }
}
