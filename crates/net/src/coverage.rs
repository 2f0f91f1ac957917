//! Predicate implementation in the spirit of Hutle & Schiper \[10\]:
//! what does it take for a real network to *provide* `P_α`?
//!
//! §5.2 of the paper argues that checksums and error-correcting codes
//! cannot eliminate value faults — they raise the *coverage* of the
//! predicate. This module quantifies that: given a raw corruption rate
//! and a detector coverage, it estimates the per-receiver undetected
//! corruption load and recommends a budget `α` that holds with the
//! desired confidence.

use crate::link::LinkFaults;
use heardof_telemetry::{chernoff_alpha_for_mean, AlphaLedger};

/// Estimated demand a link fault model puts on the `P_α` budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AlphaEstimate {
    /// Expected undetected corruptions per receiver per round.
    pub expected: f64,
    /// A budget `α` such that `P(|AHO(p, r)| > α)` is at most roughly
    /// `tail_bound` per process-round (Chernoff-style padding).
    pub recommended_alpha: u32,
    /// The tail probability the recommendation targets.
    pub tail_bound: f64,
}

/// Estimates the `α` needed for `P_α` to hold with headroom under the
/// given fault model and system size.
///
/// Undetected corruptions at one receiver in one round follow a
/// Binomial(`n`, `corrupt_prob · undetected_prob`). We recommend the
/// smallest `α` whose Chernoff upper tail is below `tail_bound`: the
/// workspace's one padding rule,
/// [`heardof_telemetry::chernoff_alpha_for_mean`].
///
/// # Examples
///
/// ```
/// use heardof_net::{recommend_alpha, LinkFaults};
///
/// let faults = LinkFaults { drop_prob: 0.0, corrupt_prob: 0.05, undetected_prob: 0.1 };
/// let est = recommend_alpha(&faults, 20, 1e-6);
/// assert!(est.expected < 0.2);
/// assert!(est.recommended_alpha >= 1);
/// ```
pub fn recommend_alpha(faults: &LinkFaults, n: usize, tail_bound: f64) -> AlphaEstimate {
    let p = (faults.corrupt_prob * faults.undetected_prob).clamp(0.0, 1.0);
    let mu = n as f64 * p;
    AlphaEstimate {
        expected: mu,
        recommended_alpha: chernoff_alpha_for_mean(mu, n, tail_bound),
        tail_bound,
    }
}

/// Recommends `α` from a flight recording's [`AlphaLedger`] instead of
/// an a-priori fault model: the mean undetected load per receiver per
/// round is *measured* (every link verdict was recorded), so the
/// estimate reflects the channel and the code that actually ran —
/// including the corruption the code repaired, visible as the ledger's
/// [`observed_corrected_rate`](AlphaLedger::observed_corrected_rate).
/// This is the §5.2 coverage argument closed into a loop: deploy,
/// record, re-budget.
///
/// # Examples
///
/// ```
/// use heardof_net::recommend_alpha_from_ledger;
/// use heardof_telemetry::{AlphaLedger, EventKind, KindCounts};
///
/// let mut counts = KindCounts::new();
/// counts.add(EventKind::LinkDelivered, 96);
/// counts.add(EventKind::LinkUndetected, 4);
/// let ledger = AlphaLedger::from_counts(10, &counts);
/// let est = recommend_alpha_from_ledger(&ledger, 5, 1e-6);
/// assert!(est.recommended_alpha >= 1);
/// ```
pub fn recommend_alpha_from_ledger(
    ledger: &AlphaLedger,
    n: usize,
    tail_bound: f64,
) -> AlphaEstimate {
    let mu = if n == 0 {
        0.0
    } else {
        ledger.undetected_per_round() / n as f64
    };
    AlphaEstimate {
        expected: mu,
        recommended_alpha: ledger.projected_alpha(n, tail_bound),
        tail_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_corruption_needs_zero_alpha() {
        let est = recommend_alpha(&LinkFaults::NONE, 50, 1e-9);
        assert_eq!(est.expected, 0.0);
        assert_eq!(est.recommended_alpha, 0);
    }

    #[test]
    fn higher_rates_need_higher_alpha() {
        let low = recommend_alpha(
            &LinkFaults {
                drop_prob: 0.0,
                corrupt_prob: 0.01,
                undetected_prob: 0.01,
            },
            20,
            1e-6,
        );
        let high = recommend_alpha(
            &LinkFaults {
                drop_prob: 0.0,
                corrupt_prob: 0.2,
                undetected_prob: 0.5,
            },
            20,
            1e-6,
        );
        assert!(high.recommended_alpha > low.recommended_alpha);
        assert!(high.expected > low.expected);
    }

    #[test]
    fn better_coverage_reduces_alpha() {
        // Same raw corruption, better detector ⇒ smaller α: the paper's
        // "techniques can increase the coverage of our predicates".
        let weak = recommend_alpha(
            &LinkFaults {
                drop_prob: 0.0,
                corrupt_prob: 0.1,
                undetected_prob: 0.5,
            },
            30,
            1e-6,
        );
        let strong = recommend_alpha(
            &LinkFaults {
                drop_prob: 0.0,
                corrupt_prob: 0.1,
                undetected_prob: 0.001,
            },
            30,
            1e-6,
        );
        assert!(strong.recommended_alpha < weak.recommended_alpha);
    }

    #[test]
    fn alpha_capped_at_n() {
        let est = recommend_alpha(
            &LinkFaults {
                drop_prob: 0.0,
                corrupt_prob: 1.0,
                undetected_prob: 1.0,
            },
            5,
            1e-12,
        );
        assert!(est.recommended_alpha <= 5);
    }
}
