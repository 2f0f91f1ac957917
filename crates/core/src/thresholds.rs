//! Real-valued reception thresholds with exact fixed-point arithmetic.
//!
//! The paper treats `T`, `E` and `α` as reals (e.g. §3.3 chooses
//! `E = n − ǫ` with `ǫ = n/4 − α`). Guards compare *integer* message
//! counts against these reals (`|HO(p,r)| > T`), and the correctness
//! conditions compare the reals with each other (`T ≥ 2(n + 2α − E)`).
//!
//! Quarter-unit fixed point is exactly enough resolution: all the
//! constants the paper manipulates (`n/2 + α`, `2(n + 2α − E)`,
//! `2(n+2α)/3` rounded up) land on quarters, and any integer `α < n/4`
//! admits feasible quarter-valued `(T, E)` (see `AteParams`). Using
//! floats would invite rounding doubt exactly where the proofs are
//! tightest.

use std::fmt;

/// A threshold value in quarter units (`raw = 4 × value`).
///
/// # Examples
///
/// ```
/// use heardof_core::Threshold;
///
/// let t = Threshold::quarters(19); // 4.75
/// assert!(t.exceeded_by(5));       // 5 > 4.75
/// assert!(!t.exceeded_by(4));      // 4 ≤ 4.75
/// assert_eq!(t.to_string(), "4.75");
/// assert_eq!(Threshold::integer(6).to_string(), "6");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Threshold(u32);

impl Threshold {
    /// The zero threshold (any non-empty count exceeds it).
    pub const ZERO: Threshold = Threshold(0);

    /// A whole-number threshold.
    pub fn integer(value: u32) -> Self {
        Threshold(value * 4)
    }

    /// A threshold of `quarters / 4`.
    pub fn quarters(quarters: u32) -> Self {
        Threshold(quarters)
    }

    /// The raw quarter count (`4 × value`).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The threshold as a float (exact: quarters are binary fractions).
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / 4.0
    }

    /// `true` iff `count > self` — the paper's strict reception guards.
    pub fn exceeded_by(self, count: usize) -> bool {
        // 4·count > raw, in wide arithmetic to dodge overflow.
        (count as u64) * 4 > self.0 as u64
    }

    /// The smallest integer count that exceeds this threshold.
    ///
    /// # Examples
    ///
    /// ```
    /// use heardof_core::Threshold;
    /// assert_eq!(Threshold::quarters(19).min_exceeding_count(), 5); // > 4.75
    /// assert_eq!(Threshold::integer(4).min_exceeding_count(), 5);   // > 4
    /// ```
    pub fn min_exceeding_count(self) -> usize {
        (self.0 as usize) / 4 + 1
    }

    /// `n/2 + α` as a threshold (Lemmas 2–3, 7–8).
    pub fn half_n_plus_alpha(n: usize, alpha: u32) -> Self {
        Threshold((2 * n) as u32 + 4 * alpha)
    }

    /// `2(n + 2α − E)` as a threshold, clamped at zero (Lemma 4).
    pub fn lock_bound(n: usize, alpha: u32, e: Threshold) -> Self {
        let raw = 8 * (n as i64 + 2 * alpha as i64) - 2 * e.0 as i64;
        Threshold(raw.max(0) as u32)
    }

    /// The largest threshold strictly below `n` (so `n > self` holds).
    pub fn just_below(n: usize) -> Self {
        assert!(n > 0, "no threshold lies below zero");
        Threshold((4 * n - 1) as u32)
    }
}

impl fmt::Display for Threshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let whole = self.0 / 4;
        match self.0 % 4 {
            0 => write!(f, "{whole}"),
            1 => write!(f, "{whole}.25"),
            2 => write!(f, "{whole}.5"),
            _ => write!(f, "{whole}.75"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_thresholds() {
        let t = Threshold::integer(4);
        assert_eq!(t.raw(), 16);
        assert!(t.exceeded_by(5));
        assert!(!t.exceeded_by(4));
        assert_eq!(t.min_exceeding_count(), 5);
        assert_eq!(t.as_f64(), 4.0);
    }

    #[test]
    fn fractional_thresholds() {
        let t = Threshold::quarters(19); // 4.75
        assert!(t.exceeded_by(5));
        assert!(!t.exceeded_by(4));
        assert_eq!(t.min_exceeding_count(), 5);
        assert_eq!(t.as_f64(), 4.75);

        let h = Threshold::quarters(10); // 2.5
        assert!(h.exceeded_by(3));
        assert!(!h.exceeded_by(2));
        assert_eq!(h.min_exceeding_count(), 3);
    }

    #[test]
    fn zero_threshold() {
        assert!(Threshold::ZERO.exceeded_by(1));
        assert!(!Threshold::ZERO.exceeded_by(0));
        assert_eq!(Threshold::ZERO.min_exceeding_count(), 1);
    }

    #[test]
    fn half_n_plus_alpha_exact() {
        // n=5, α=1 → 3.5
        let t = Threshold::half_n_plus_alpha(5, 1);
        assert_eq!(t.as_f64(), 3.5);
        assert!(t.exceeded_by(4));
        assert!(!t.exceeded_by(3));
    }

    #[test]
    fn lock_bound_exact() {
        // n=5, α=1, E=4.75 → 2(5+2−4.75) = 4.5
        let e = Threshold::quarters(19);
        let t = Threshold::lock_bound(5, 1, e);
        assert_eq!(t.as_f64(), 4.5);
        // Large E clamps at zero.
        let t0 = Threshold::lock_bound(2, 0, Threshold::integer(10));
        assert_eq!(t0, Threshold::ZERO);
    }

    #[test]
    fn just_below_is_strictly_less_than_n() {
        for n in 1..50 {
            let t = Threshold::just_below(n);
            assert!(t.as_f64() < n as f64);
            // And n itself exceeds it.
            assert!(t.exceeded_by(n));
            assert!(!t.exceeded_by(n - 1));
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Threshold::quarters(16).to_string(), "4");
        assert_eq!(Threshold::quarters(17).to_string(), "4.25");
        assert_eq!(Threshold::quarters(18).to_string(), "4.5");
        assert_eq!(Threshold::quarters(19).to_string(), "4.75");
    }

    #[test]
    fn ordering_matches_value() {
        assert!(Threshold::quarters(10) < Threshold::quarters(11));
        assert!(Threshold::integer(2) < Threshold::integer(3));
    }
}
