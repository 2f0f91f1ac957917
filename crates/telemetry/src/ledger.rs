//! The α-budget ledger and the canonical Chernoff projection.

use crate::event::EventKind;
use crate::recording::KindCounts;

/// The smallest budget `α ≤ n` whose Chernoff upper tail for a
/// Binomial/Poisson-like per-round undetected-corruption count with
/// mean `mu` is below `tail_bound`.
///
/// This is the one padding rule of the workspace: the adaptive
/// controller's `P_α` projection (`heardof_coding::CtlState`),
/// `heardof_net::recommend_alpha` and the bench harness all call it.
pub fn chernoff_alpha_for_mean(mu: f64, n: usize, tail_bound: f64) -> u32 {
    assert!(mu >= 0.0, "mean demand must be nonnegative");
    // Chernoff: P(X ≥ a) ≤ exp(−mu) (e·mu / a)^a for a > mu.
    let tail = |a: u32| -> f64 {
        if mu == 0.0 {
            return 0.0;
        }
        let a = a as f64;
        if a <= mu {
            return 1.0;
        }
        (-mu + a * (1.0 + (mu / a).ln())).exp()
    };
    // A receiver sees at most n frames per round, so α > n is never
    // needed regardless of the mean demand.
    let mut alpha = (mu.ceil() as u32).min(n as u32);
    while tail(alpha + 1) > tail_bound && alpha < n as u32 {
        alpha += 1;
    }
    alpha
}

/// The run-level α accounting, folded from link-plane counters: how
/// often the channel touched frames, how often the code saved them,
/// and how much of the undetected-fault budget was actually consumed.
///
/// `P_α` safety is an inequality between two of these numbers — the
/// *consumed* column ([`AlphaLedger::consumed`]) must stay within the
/// α each receiver provisioned — and the ledger also answers the
/// planning question: given what the channel *observably* did, what α
/// would the Chernoff rule recommend ([`AlphaLedger::projected_alpha`])?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AlphaLedger {
    /// Rounds covered by the recording (0 when round tracking is off).
    pub rounds: u64,
    /// Frames that crossed untouched.
    pub delivered_clean: u64,
    /// Frames corrupted in flight but repaired by the code.
    pub corrected: u64,
    /// Frames corrupted and *detected* — surfaced as omissions.
    pub detected: u64,
    /// Frames the channel dropped outright.
    pub dropped: u64,
    /// Frames corrupted and **missed** — undetected value faults; the
    /// quantity that consumes α budget.
    pub undetected: u64,
}

impl AlphaLedger {
    /// Folds link-plane totals into a ledger.
    pub fn from_counts(rounds: u64, totals: &KindCounts) -> Self {
        AlphaLedger {
            rounds,
            delivered_clean: totals.get(EventKind::LinkDelivered),
            corrected: totals.get(EventKind::LinkCorrected),
            detected: totals.get(EventKind::LinkDetected),
            dropped: totals.get(EventKind::LinkDropped),
            undetected: totals.get(EventKind::LinkUndetected),
        }
    }

    /// Frames that reached a receiver looking valid (clean, repaired,
    /// or undetectably corrupted).
    pub fn arrivals(&self) -> u64 {
        self.delivered_clean + self.corrected + self.undetected
    }

    /// Every transmission attempt the ledger saw.
    fn attempts(&self) -> u64 {
        self.arrivals() + self.detected + self.dropped
    }

    /// α actually consumed over the run: the undetected-value-fault
    /// count.
    pub fn consumed(&self) -> u64 {
        self.undetected
    }

    /// Fraction of *arrived* frames that the code had to repair — the
    /// observed corrected-rate the ROADMAP wants fed back into α
    /// sizing. Corrections are the visible shadow of the corruption
    /// pressure that also produces (invisible) undetected faults.
    pub fn observed_corrected_rate(&self) -> f64 {
        let arrivals = self.arrivals();
        if arrivals == 0 {
            0.0
        } else {
            self.corrected as f64 / arrivals as f64
        }
    }

    /// Fraction of attempts the channel corrupted at all (corrected,
    /// detected or missed).
    pub fn observed_corruption_rate(&self) -> f64 {
        let attempts = self.attempts();
        if attempts == 0 {
            0.0
        } else {
            (self.corrected + self.detected + self.undetected) as f64 / attempts as f64
        }
    }

    /// Mean undetected faults per round across the whole system.
    pub fn undetected_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.undetected as f64 / self.rounds as f64
        }
    }

    /// The α budget the *observed* undetected-fault stream demands for
    /// one receiver at the given tail bound: the per-round mean is
    /// split evenly across the `n` receivers and run through
    /// [`chernoff_alpha_for_mean`].
    pub fn projected_alpha(&self, n: usize, tail_bound: f64) -> u32 {
        assert!(n > 0, "need at least one receiver");
        let mu = self.undetected_per_round() / n as f64;
        chernoff_alpha_for_mean(mu, n, tail_bound)
    }

    /// One JSONL line for the dump format.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                r#"{{"type":"alpha_ledger","rounds":{},"delivered_clean":{},"#,
                r#""corrected":{},"detected":{},"dropped":{},"undetected":{},"#,
                r#""corrected_rate":{:.6}}}"#
            ),
            self.rounds,
            self.delivered_clean,
            self.corrected,
            self.detected,
            self.dropped,
            self.undetected,
            self.observed_corrected_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chernoff_alpha_matches_expectations() {
        assert_eq!(chernoff_alpha_for_mean(0.0, 20, 1e-9), 0);
        let low = chernoff_alpha_for_mean(0.05, 20, 1e-6);
        let high = chernoff_alpha_for_mean(2.0, 20, 1e-6);
        assert!(low < high);
        assert!(chernoff_alpha_for_mean(50.0, 10, 1e-6) <= 10, "capped at n");
    }

    #[test]
    fn chernoff_alpha_tightens_with_looser_tails() {
        let strict = chernoff_alpha_for_mean(0.3, 30, 1e-9);
        let loose = chernoff_alpha_for_mean(0.3, 30, 1e-3);
        assert!(loose <= strict);
    }

    fn sample_ledger() -> AlphaLedger {
        let mut totals = KindCounts::new();
        totals.add(EventKind::LinkDelivered, 80);
        totals.add(EventKind::LinkCorrected, 15);
        totals.add(EventKind::LinkDetected, 3);
        totals.add(EventKind::LinkDropped, 1);
        totals.add(EventKind::LinkUndetected, 1);
        AlphaLedger::from_counts(10, &totals)
    }

    #[test]
    fn ledger_accounting_adds_up() {
        let ledger = sample_ledger();
        assert_eq!(ledger.arrivals(), 96);
        assert_eq!(ledger.attempts(), 100);
        assert_eq!(ledger.consumed(), 1);
        assert!((ledger.observed_corrected_rate() - 15.0 / 96.0).abs() < 1e-12);
        assert!((ledger.observed_corruption_rate() - 19.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_projection_is_consistent_with_the_canonical_rule() {
        let ledger = sample_ledger();
        let mu = ledger.undetected_per_round() / 5.0;
        assert_eq!(
            ledger.projected_alpha(5, 1e-6),
            chernoff_alpha_for_mean(mu, 5, 1e-6)
        );
    }

    #[test]
    fn empty_ledger_is_all_zeroes() {
        let ledger = AlphaLedger::from_counts(0, &KindCounts::new());
        assert_eq!(ledger.consumed(), 0);
        assert_eq!(ledger.observed_corrected_rate(), 0.0);
        assert_eq!(ledger.undetected_per_round(), 0.0);
        assert_eq!(ledger.projected_alpha(4, 1e-6), 0);
    }
}
