//! Parameter validation and solvers for `A_{T,E}` and `U_{T,E,α}`.
//!
//! Theorem 1: `⟨A_{T,E}, P_α ∧ P^{A,live}⟩` solves consensus if
//! `n > E` and `n > T ≥ 2(n + 2α − E)` — which together imply
//! `E ≥ n/2 + α`. Feasible iff `α < n/4` (§3.3).
//!
//! Theorem 2: `⟨U_{T,E,α}, P_α ∧ P^{U,safe} ∧ P^{U,live}⟩` solves
//! consensus if `n > E ≥ n/2 + α`, `n > T ≥ n/2 + α` and `n > α`.
//! Feasible iff `α < n/2` (§4.3).

use crate::thresholds::Threshold;
use std::error::Error;
use std::fmt;

/// A violated parameter condition, quoting the inequality from the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParamError {
    /// `E ≥ n/2 + α` (Proposition 1 / 5 — Agreement) is violated.
    EBelowAgreement {
        /// Supplied `E`.
        e: Threshold,
        /// Required minimum `n/2 + α`.
        need: Threshold,
    },
    /// `T ≥ 2(n + 2α − E)` (Lemma 4 — decision locking) is violated.
    TBelowLock {
        /// Supplied `T`.
        t: Threshold,
        /// Required minimum `2(n + 2α − E)`.
        need: Threshold,
    },
    /// `T ≥ n/2 + α` (Lemma 8 — unique true vote) is violated.
    TBelowVote {
        /// Supplied `T`.
        t: Threshold,
        /// Required minimum `n/2 + α`.
        need: Threshold,
    },
    /// `n > E` (termination feasibility) is violated.
    ENotBelowN {
        /// Supplied `E`.
        e: Threshold,
        /// System size.
        n: usize,
    },
    /// `n > T` (termination feasibility) is violated.
    TNotBelowN {
        /// Supplied `T`.
        t: Threshold,
        /// System size.
        n: usize,
    },
    /// `n > α` (Theorem 2) is violated.
    AlphaNotBelowN {
        /// Supplied `α`.
        alpha: u32,
        /// System size.
        n: usize,
    },
    /// No `(T, E)` exist for this `(n, α)` pair.
    InfeasibleAlpha {
        /// Supplied `α`.
        alpha: u32,
        /// System size.
        n: usize,
        /// The largest feasible `α` for this algorithm and `n`.
        max_alpha: u32,
        /// Which algorithm's bound applies (`"A_{T,E}"` or `"U_{T,E,α}"`).
        algorithm: &'static str,
    },
    /// The system size must be at least one.
    EmptySystem,
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::EBelowAgreement { e, need } => {
                write!(f, "agreement requires E ≥ n/2 + α: got E = {e}, need ≥ {need}")
            }
            ParamError::TBelowLock { t, need } => write!(
                f,
                "decision locking requires T ≥ 2(n + 2α − E): got T = {t}, need ≥ {need}"
            ),
            ParamError::TBelowVote { t, need } => write!(
                f,
                "unique true votes require T ≥ n/2 + α: got T = {t}, need ≥ {need}"
            ),
            ParamError::ENotBelowN { e, n } => {
                write!(f, "termination requires n > E: got E = {e} with n = {n}")
            }
            ParamError::TNotBelowN { t, n } => {
                write!(f, "termination requires n > T: got T = {t} with n = {n}")
            }
            ParamError::AlphaNotBelowN { alpha, n } => {
                write!(f, "theorem 2 requires n > α: got α = {alpha} with n = {n}")
            }
            ParamError::InfeasibleAlpha {
                alpha,
                n,
                max_alpha,
                algorithm,
            } => write!(
                f,
                "no (T, E) solve {algorithm} with α = {alpha} at n = {n}; the largest feasible α is {max_alpha}"
            ),
            ParamError::EmptySystem => write!(f, "system must have at least one process"),
        }
    }
}

impl Error for ParamError {}

/// Validated parameters for the `A_{T,E}` algorithm.
///
/// # Examples
///
/// ```
/// use heardof_core::AteParams;
///
/// // n = 10 processes, up to α = 2 corrupted receptions per process
/// // per round: the canonical choice E = T = 2(n+2α)/3 (Prop. 4).
/// let p = AteParams::balanced(10, 2)?;
/// assert_eq!(p.e(), p.t());
/// assert!(p.e().as_f64() >= 10.0 / 2.0 + 2.0);
///
/// // α ≥ n/4 is infeasible (§3.3).
/// assert!(AteParams::balanced(10, 3).is_err());
/// # Ok::<(), heardof_core::ParamError>(())
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct AteParams {
    n: usize,
    alpha: u32,
    t: Threshold,
    e: Threshold,
}

impl AteParams {
    /// Validates the full Theorem 1 conditions:
    /// `n > E` and `n > T ≥ 2(n + 2α − E)`.
    ///
    /// # Errors
    ///
    /// Returns the first violated inequality as a [`ParamError`].
    pub fn new(n: usize, alpha: u32, t: Threshold, e: Threshold) -> Result<Self, ParamError> {
        let p = Self::safety_only(n, alpha, t, e)?;
        if !e.exceeded_by(n) {
            return Err(ParamError::ENotBelowN { e, n });
        }
        if !t.exceeded_by(n) {
            return Err(ParamError::TNotBelowN { t, n });
        }
        Ok(p)
    }

    /// Validates only the safety conditions (Propositions 1–2):
    /// `E ≥ n/2 + α` and `T ≥ 2(n + 2α − E)`.
    ///
    /// Such parameters keep every run safe under `P_α` but may never
    /// terminate (e.g. `E ≥ n` demands hearing more processes than
    /// exist). Useful for safety-only experiments.
    ///
    /// # Errors
    ///
    /// Returns the first violated inequality as a [`ParamError`].
    pub fn safety_only(
        n: usize,
        alpha: u32,
        t: Threshold,
        e: Threshold,
    ) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError::EmptySystem);
        }
        let agreement = Threshold::half_n_plus_alpha(n, alpha);
        if e < agreement {
            return Err(ParamError::EBelowAgreement { e, need: agreement });
        }
        let lock = Threshold::lock_bound(n, alpha, e);
        if t < lock {
            return Err(ParamError::TBelowLock { t, need: lock });
        }
        Ok(AteParams { n, alpha, t, e })
    }

    /// Builds parameters without any validation.
    ///
    /// Intended for tightness experiments that deliberately violate the
    /// paper's conditions; everywhere else prefer [`AteParams::new`].
    pub fn unchecked(n: usize, alpha: u32, t: Threshold, e: Threshold) -> Self {
        AteParams { n, alpha, t, e }
    }

    /// The canonical `E = T` solution of §3.3 / Proposition 4:
    /// the smallest threshold with `3E ≥ 2(n + 2α)`.
    ///
    /// At `α = 0` this is `E = T = 2n/3` — exactly the OneThirdRule
    /// algorithm of the benign HO model.
    ///
    /// # Errors
    ///
    /// [`ParamError::InfeasibleAlpha`] if `α ≥ n/4` (no solution exists).
    pub fn balanced(n: usize, alpha: u32) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError::EmptySystem);
        }
        if alpha > Self::max_alpha(n) {
            return Err(ParamError::InfeasibleAlpha {
                alpha,
                n,
                max_alpha: Self::max_alpha(n),
                algorithm: "A_{T,E}",
            });
        }
        // Smallest quarter-valued E with 3E ≥ 2(n + 2α):
        // raw = ⌈8(n + 2α)/3⌉.
        let raw = (8 * (n as u32 + 2 * alpha)).div_ceil(3);
        let e = Threshold::quarters(raw);
        Self::new(n, alpha, e, e)
    }

    /// The largest-`E` solution: `E` just below `n` and the minimal
    /// matching `T = 16α/4 + 1/2` (smallest lock bound).
    ///
    /// This is the parametrization of §3.3's feasibility argument
    /// (`E = n − ǫ`): decisions require near-unanimous agreement in a
    /// round, but estimate updates already happen on small heard-of sets.
    ///
    /// # Errors
    ///
    /// [`ParamError::InfeasibleAlpha`] if `α ≥ n/4`.
    pub fn max_e(n: usize, alpha: u32) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError::EmptySystem);
        }
        if alpha > Self::max_alpha(n) {
            return Err(ParamError::InfeasibleAlpha {
                alpha,
                n,
                max_alpha: Self::max_alpha(n),
                algorithm: "A_{T,E}",
            });
        }
        let e = Threshold::just_below(n);
        let t = Threshold::lock_bound(n, alpha, e);
        Self::new(n, alpha, t, e)
    }

    /// The largest `α` for which any `(T, E)` satisfy Theorem 1 at this
    /// `n` — the integer realization of `α < n/4`.
    pub fn max_alpha(n: usize) -> u32 {
        (n.saturating_sub(1) / 4) as u32
    }

    /// System size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Corruption budget `α` (per process, per round).
    pub fn alpha(&self) -> u32 {
        self.alpha
    }

    /// The update ("Threshold") bound `T`.
    pub fn t(&self) -> Threshold {
        self.t
    }

    /// The decision ("Enough") bound `E`.
    pub fn e(&self) -> Threshold {
        self.e
    }
}

impl fmt::Display for AteParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "A_{{T={}, E={}}} (n={}, α={})",
            self.t, self.e, self.n, self.alpha
        )
    }
}

/// Validated parameters for the `U_{T,E,α}` algorithm.
///
/// # Examples
///
/// ```
/// use heardof_core::UteParams;
///
/// // U accepts any α < n/2 as a parameter, twice A's α < n/4 ...
/// let p = UteParams::tightest(11, 5)?;
/// assert_eq!(p.alpha(), 5);
/// assert!(UteParams::tightest(11, 6).is_err());
/// // ... but not as a budget: P^{U,safe} needs |SHO(p, r)| > 10 here,
/// // all 11 senders, so no reception may be lost or corrupted at all.
/// assert_eq!(p.u_safe_bound().min_exceeding_count(), 11);
/// # Ok::<(), heardof_core::ParamError>(())
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct UteParams {
    n: usize,
    alpha: u32,
    t: Threshold,
    e: Threshold,
}

impl UteParams {
    /// Validates the Theorem 2 conditions:
    /// `n > E ≥ n/2 + α`, `n > T ≥ n/2 + α`, `n > α`.
    ///
    /// # Errors
    ///
    /// Returns the first violated inequality as a [`ParamError`].
    pub fn new(n: usize, alpha: u32, t: Threshold, e: Threshold) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError::EmptySystem);
        }
        let vote = Threshold::half_n_plus_alpha(n, alpha);
        if e < vote {
            return Err(ParamError::EBelowAgreement { e, need: vote });
        }
        if t < vote {
            return Err(ParamError::TBelowVote { t, need: vote });
        }
        if !e.exceeded_by(n) {
            return Err(ParamError::ENotBelowN { e, n });
        }
        if !t.exceeded_by(n) {
            return Err(ParamError::TNotBelowN { t, n });
        }
        if alpha as usize >= n {
            return Err(ParamError::AlphaNotBelowN { alpha, n });
        }
        Ok(UteParams { n, alpha, t, e })
    }

    /// Builds parameters without any validation (tightness experiments).
    pub fn unchecked(n: usize, alpha: u32, t: Threshold, e: Threshold) -> Self {
        UteParams { n, alpha, t, e }
    }

    /// The minimal solution `E = T = n/2 + α` of §4.3.
    ///
    /// # Errors
    ///
    /// [`ParamError::InfeasibleAlpha`] if `α ≥ n/2`.
    pub fn tightest(n: usize, alpha: u32) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError::EmptySystem);
        }
        if alpha > Self::max_alpha(n) {
            return Err(ParamError::InfeasibleAlpha {
                alpha,
                n,
                max_alpha: Self::max_alpha(n),
                algorithm: "U_{T,E,α}",
            });
        }
        let te = Threshold::half_n_plus_alpha(n, alpha);
        Self::new(n, alpha, te, te)
    }

    /// The largest `α` for which any `(T, E)` satisfy Theorem 2 at this
    /// `n` — the integer realization of `α < n/2`.
    pub fn max_alpha(n: usize) -> u32 {
        (n.saturating_sub(1) / 2) as u32
    }

    /// The `P^{U,safe}` cardinality bound `max(n + 2α − E − 1, T, α)`:
    /// every `|SHO(p, r)|` must strictly exceed it (predicate (7)).
    pub fn u_safe_bound(&self) -> Threshold {
        let first = 4 * (self.n as i64 + 2 * self.alpha as i64 - 1) - self.e.raw() as i64;
        let raw = first
            .max(self.t.raw() as i64)
            .max(4 * self.alpha as i64)
            .max(0);
        Threshold::quarters(raw as u32)
    }

    /// System size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Corruption budget `α` (per process, per round).
    pub fn alpha(&self) -> u32 {
        self.alpha
    }

    /// The voting bound `T`.
    pub fn t(&self) -> Threshold {
        self.t
    }

    /// The decision bound `E`.
    pub fn e(&self) -> Threshold {
        self.e
    }
}

impl fmt::Display for UteParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "U_{{T={}, E={}, α={}}} (n={})",
            self.t, self.e, self.alpha, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_at_alpha_zero_is_one_third_rule() {
        // E = T = 2n/3 exactly when 3 | n.
        let p = AteParams::balanced(9, 0).unwrap();
        assert_eq!(p.e(), Threshold::integer(6));
        assert_eq!(p.t(), Threshold::integer(6));
    }

    #[test]
    fn balanced_guard_matches_two_thirds_for_all_n() {
        // The quarter-rounded balanced threshold must accept exactly the
        // counts with 3·count > 2n, for every n (OneThirdRule guard).
        for n in 1..200usize {
            let p = AteParams::balanced(n, 0).unwrap();
            for count in 0..=n {
                assert_eq!(
                    p.e().exceeded_by(count),
                    3 * count > 2 * n,
                    "n={n} count={count}"
                );
            }
        }
    }

    #[test]
    fn feasibility_matches_quarter_bound() {
        for n in 1..100usize {
            let max = AteParams::max_alpha(n);
            assert!(AteParams::balanced(n, max).is_ok(), "n={n}, α={max}");
            assert!(matches!(
                AteParams::balanced(n, max + 1),
                Err(ParamError::InfeasibleAlpha { .. })
            ));
            // Integer α < n/4 ⟺ 4α < n.
            assert!(4 * (max as usize) < n);
        }
    }

    #[test]
    fn n5_alpha1_feasible_via_quarters() {
        // §3.3's real-valued argument: α = n/4 − ǫ works. n=5, α=1 needs
        // fractional thresholds — exactly what quarters provide.
        let p = AteParams::max_e(5, 1).unwrap();
        assert_eq!(p.e(), Threshold::quarters(19)); // 4.75
        assert_eq!(p.t(), Threshold::quarters(18)); // 4.5
                                                    // Integer-only thresholds cannot solve this instance:
        assert!(AteParams::new(5, 1, Threshold::integer(4), Threshold::integer(4)).is_err());
    }

    #[test]
    fn new_rejects_each_violated_condition() {
        let n = 10;
        // E below n/2 + α.
        let err = AteParams::new(n, 2, Threshold::integer(9), Threshold::integer(6)).unwrap_err();
        assert!(matches!(err, ParamError::EBelowAgreement { .. }));
        assert!(err.to_string().contains("E ≥ n/2 + α"));
        // T below the lock bound 2(n+2α−E) = 2(10+4−9) = 10 > 9 — use E=9.
        let err = AteParams::new(n, 2, Threshold::integer(8), Threshold::integer(9)).unwrap_err();
        assert!(matches!(err, ParamError::TBelowLock { .. }));
        // E not below n.
        let err = AteParams::new(n, 0, Threshold::integer(7), Threshold::integer(10)).unwrap_err();
        assert!(matches!(err, ParamError::ENotBelowN { .. }));
        // T not below n (E=9, T must be ≥ 2(10-9)=2, pass 10).
        let err = AteParams::new(n, 0, Threshold::integer(10), Threshold::integer(9)).unwrap_err();
        assert!(matches!(err, ParamError::TNotBelowN { .. }));
    }

    #[test]
    fn safety_only_allows_non_live_params() {
        // E = n: always safe, never able to decide (needs > n messages).
        let p = AteParams::safety_only(8, 1, Threshold::integer(16), Threshold::integer(8));
        assert!(p.is_ok());
        assert!(AteParams::new(8, 1, Threshold::integer(16), Threshold::integer(8)).is_err());
    }

    #[test]
    fn theorem1_implication_e_from_t() {
        // n > T ≥ 2(n+2α−E) implies E ≥ n/2 + α: spot-check across the
        // whole feasible grid.
        for n in 2..40usize {
            for alpha in 0..=AteParams::max_alpha(n) {
                for p in [AteParams::balanced(n, alpha), AteParams::max_e(n, alpha)] {
                    let p = p.unwrap();
                    let need = Threshold::half_n_plus_alpha(n, alpha);
                    assert!(p.e() >= need, "{p} violates E ≥ n/2+α");
                }
            }
        }
    }

    #[test]
    fn ute_tightest_and_feasibility() {
        for n in 2..60usize {
            let max = UteParams::max_alpha(n);
            let p = UteParams::tightest(n, max).unwrap();
            assert_eq!(p.t(), Threshold::half_n_plus_alpha(n, max));
            assert!(matches!(
                UteParams::tightest(n, max + 1),
                Err(ParamError::InfeasibleAlpha { .. })
            ));
            // Integer α < n/2 ⟺ 2α < n.
            assert!(2 * (max as usize) < n);
        }
    }

    #[test]
    fn ute_rejects_bad_params() {
        let err = UteParams::new(10, 2, Threshold::integer(6), Threshold::integer(8)).unwrap_err();
        assert!(matches!(err, ParamError::TBelowVote { .. }));
        let err = UteParams::new(10, 2, Threshold::integer(8), Threshold::integer(6)).unwrap_err();
        assert!(matches!(err, ParamError::EBelowAgreement { .. }));
        let err =
            UteParams::new(4, 5, Threshold::quarters(100), Threshold::quarters(100)).unwrap_err();
        // E = T = 25 ≥ n/2+α = 7, but E not below n fires first.
        assert!(matches!(err, ParamError::ENotBelowN { .. }));
    }

    #[test]
    fn ute_alpha_must_be_below_n() {
        // n=3, α=1: vote bound 2.5; E=T=2.75 < 3 fine; α < n ok.
        assert!(UteParams::new(3, 1, Threshold::quarters(11), Threshold::quarters(11)).is_ok());
    }

    #[test]
    fn u_safe_bound_takes_max() {
        // n=10, α=2, E=T=7: max(10+4−7−1, 7, 2) = 7.
        let p = UteParams::new(10, 2, Threshold::integer(7), Threshold::integer(7)).unwrap();
        assert_eq!(p.u_safe_bound(), Threshold::integer(7));
        // n=10, α=4, E=T=9: max(10+8−9−1, 9, 4) = 9.
        let p = UteParams::new(10, 4, Threshold::integer(9), Threshold::integer(9)).unwrap();
        assert_eq!(p.u_safe_bound(), Threshold::integer(9));
        // First term dominating: n=12, α=5, E=T=11: max(12+10−11−1, 11, 5) = 11.
        // Make first term dominate with small E… E must be ≥ n/2+α, so the
        // first term n+2α−E−1 ≤ n/2+α−1 < E always for valid params; check
        // an unchecked instance where it dominates.
        let p = UteParams::unchecked(12, 5, Threshold::integer(3), Threshold::integer(4));
        // max(12+10−4−1, 3, 5) = 17.
        assert_eq!(p.u_safe_bound(), Threshold::integer(17));
    }

    #[test]
    fn display_formats() {
        let p = AteParams::balanced(9, 0).unwrap();
        assert_eq!(p.to_string(), "A_{T=6, E=6} (n=9, α=0)");
        let u = UteParams::tightest(9, 2).unwrap();
        assert!(u.to_string().starts_with("U_{T=6.5, E=6.5, α=2}"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err<E: std::error::Error>(_: E) {}
        takes_err(ParamError::EmptySystem);
    }

    #[test]
    fn empty_system_rejected() {
        assert!(matches!(
            AteParams::balanced(0, 0),
            Err(ParamError::EmptySystem)
        ));
        assert!(matches!(
            UteParams::tightest(0, 0),
            Err(ParamError::EmptySystem)
        ));
    }
}
