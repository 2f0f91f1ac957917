//! Telemetry-plane overhead, measured as interleaved A/B pairs.
//!
//! The previous gate timed each plane best-of-N and certified −2.1 %
//! against a 1 % bar: the noise was larger than the claim. Here every
//! sample is a *pair* — the same ops run back to back with plane A and
//! plane B, alternating which side goes first — the statistic is the
//! median of the pair ratios, and an A/A series (null against null)
//! measures the band inside which a ratio means nothing. An overhead
//! smaller than that band is reported as unresolved, never as a number.

use crate::stats::{median, quartiles};
use crate::workloads::{op, Workload};
use heardof_telemetry::{NullRecorder, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pairs per series, at least.
pub const MIN_PAIRS: usize = 10;

/// The planes compared against the default (`Telemetry::null()`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plane {
    /// `Telemetry::null()` again — the A/A series.
    Same,
    /// A `NullRecorder` attached explicitly through `from_recorder`.
    Null,
    /// `Telemetry::counters()`: totals and histograms, no event ring.
    Counters,
    /// `Telemetry::ring()`: the full flight recorder.
    Ring,
}

impl Plane {
    const ALL: [Plane; 4] = [Plane::Same, Plane::Null, Plane::Counters, Plane::Ring];

    fn build(self) -> Telemetry {
        match self {
            Plane::Same => Telemetry::null(),
            Plane::Null => Telemetry::from_recorder(Arc::new(NullRecorder)),
            Plane::Counters => Telemetry::counters(),
            Plane::Ring => Telemetry::ring(),
        }
    }
}

/// One series of pair ratios (B ÷ A wall time), reduced.
#[derive(Clone, Copy, Debug)]
pub struct Series {
    /// Pairs run.
    pub pairs: usize,
    /// Median of (ratio − 1) × 100.
    pub median_pct: f64,
    /// First and third quartile of the same.
    pub quartiles_pct: (f64, f64),
}

impl Series {
    fn from_ratios(ratios: &[f64]) -> Series {
        let pct: Vec<f64> = ratios.iter().map(|r| (r - 1.0) * 100.0).collect();
        let [q1, _, q3] = quartiles(&pct);
        Series {
            pairs: pct.len(),
            median_pct: median(&pct),
            quartiles_pct: (q1, q3),
        }
    }

    /// Width of the interquartile band.
    pub fn band_pct(&self) -> f64 {
        self.quartiles_pct.1 - self.quartiles_pct.0
    }
}

/// What the four series say.
#[derive(Clone, Copy, Debug)]
pub struct Overheads {
    /// Null against null: the noise band.
    pub aa: Series,
    /// Explicit null recorder.
    pub null: Series,
    /// Counters-only recorder.
    pub counters: Series,
    /// Ring recorder.
    pub ring: Series,
}

impl Overheads {
    /// The overhead to report for `series`: its median when that clears
    /// the A/A band, otherwise `None` — unresolved.
    pub fn resolved(&self, series: &Series) -> Option<f64> {
        (series.median_pct.abs() > self.aa.band_pct()).then_some(series.median_pct)
    }
}

/// Wall time of `ops` production ops starting at batch index `from`,
/// all emitting into one fresh plane.
fn side(w: &Workload, seed: u64, from: usize, ops: usize, plane: Plane) -> f64 {
    let telemetry = plane.build();
    let start = Instant::now();
    for i in from..from + ops {
        std::hint::black_box(w.run(op(seed, i % w.batch_ops), telemetry.clone()));
    }
    start.elapsed().as_secs_f64()
}

/// Runs the four series round-robin — pair `k` of each before pair
/// `k + 1` of any, so drift lands on all of them alike — for `budget`,
/// [`MIN_PAIRS`] pairs each at least. `op_seconds` (one op's measured
/// wall time) sizes a side to roughly 1/80 of the budget.
pub fn measure(w: &Workload, seed: u64, budget: Duration, op_seconds: f64) -> Overheads {
    let sides = (MIN_PAIRS * Plane::ALL.len() * 2) as f64;
    let ops =
        ((budget.as_secs_f64() / sides / op_seconds.max(1e-9)) as usize).clamp(20, w.batch_ops);
    let mut ratios: [Vec<f64>; 4] = Default::default();
    let start = Instant::now();
    let mut pair = 0;
    while pair < MIN_PAIRS || start.elapsed() < budget {
        for (slot, plane) in Plane::ALL.iter().enumerate() {
            let from = pair * ops;
            // Alternate which side of the pair runs first.
            let (a, b) = if pair % 2 == 0 {
                let a = side(w, seed, from, ops, Plane::Same);
                (a, side(w, seed, from, ops, *plane))
            } else {
                let b = side(w, seed, from, ops, *plane);
                (side(w, seed, from, ops, Plane::Same), b)
            };
            ratios[slot].push(b / a);
        }
        pair += 1;
    }
    Overheads {
        aa: Series::from_ratios(&ratios[0]),
        null: Series::from_ratios(&ratios[1]),
        counters: Series::from_ratios(&ratios[2]),
        ring: Series::from_ratios(&ratios[3]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(median_pct: f64, q1: f64, q3: f64) -> Series {
        Series {
            pairs: 10,
            median_pct,
            quartiles_pct: (q1, q3),
        }
    }

    #[test]
    fn an_overhead_inside_the_aa_band_is_unresolved_never_negative() {
        let o = Overheads {
            aa: series(0.1, -1.0, 1.0),
            null: series(-1.4, -2.0, 0.5),
            counters: series(1.9, 0.5, 3.0),
            ring: series(6.5, 5.0, 8.0),
        };
        assert_eq!(o.aa.band_pct(), 2.0);
        assert_eq!(o.resolved(&o.null), None, "−1.4 % inside a 2 % band");
        assert_eq!(o.resolved(&o.counters), None);
        assert_eq!(o.resolved(&o.ring), Some(6.5));
    }

    #[test]
    fn series_reduce_pair_ratios_to_percent() {
        let s = Series::from_ratios(&[1.00, 1.02, 1.04, 1.06, 1.08]);
        assert_eq!(s.pairs, 5);
        assert!((s.median_pct - 4.0).abs() < 1e-9);
        assert!((s.quartiles_pct.0 - 1.0).abs() < 1e-9 && (s.quartiles_pct.1 - 7.0).abs() < 1e-9);
    }
}
