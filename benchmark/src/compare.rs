//! Comparing two sets of runs against the bounds in `BENCHMARK.json`.
//!
//! A result file holds one JSON object per line, as `run.sh` writes
//! them: `{"workload", "seed", "trace", "result"}`. Only `--trace 0`
//! lines are compared. Each (workload, end-to-end metric) pair gets one
//! row and one verdict.

use crate::json::Json;
use crate::stats::{iqr_share, median};

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when larger is better.
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// Reads the workload names and end-to-end bounds out of a parsed
/// `BENCHMARK.json`.
///
/// # Errors
///
/// Names the first missing or mistyped field.
pub fn read_benchmark(doc: &Json) -> Result<(Vec<String>, Vec<Bound>), String> {
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
    };
    let text = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: entry without {key}"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    let bounds = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: text(m, "better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("BENCHMARK.json: end_to_end entry without bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, bounds))
}

/// The `--trace 0` values of `metric` on `workload` in a result file's
/// text, one per run, in file order.
///
/// # Errors
///
/// Reports the first line that is not a JSON object.
pub fn values(file: &str, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for (n, line) in file.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let traced = doc.get("trace").and_then(Json::as_f64).unwrap_or(0.0) != 0.0;
        if traced || doc.get("workload").and_then(Json::as_str) != Some(workload) {
            continue;
        }
        if let Some(v) = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
        {
            out.push(v);
        }
    }
    Ok(out)
}

/// What a row says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is better by more than either side's spread.
    Better,
    /// No worse than the bound allows (and not clearly better).
    WithinBound,
    /// The candidate's median is worse by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so a median
    /// difference means nothing — unless every candidate run beat every
    /// baseline run (then `Better`) or lost to every one (`Worse`).
    Unresolved,
    /// One side has no runs for this pair.
    Missing,
}

impl Verdict {
    /// The row label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// One compared (workload, metric) pair.
#[derive(Clone, Debug)]
pub struct Row {
    /// Baseline median.
    pub baseline: f64,
    /// Candidate median.
    pub candidate: f64,
    /// How much worse the candidate is, as a share of the baseline
    /// median (negative = better), direction-adjusted.
    pub worse_by: f64,
    /// The wider of the two sides' interquartile spreads, as a share of
    /// that side's median.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges `candidate` against `baseline` for one metric.
pub fn judge(bound: &Bound, baseline: &[f64], candidate: &[f64]) -> Row {
    if baseline.is_empty() || candidate.is_empty() {
        return Row {
            baseline: f64::NAN,
            candidate: f64::NAN,
            worse_by: f64::NAN,
            spread: f64::NAN,
            verdict: Verdict::Missing,
        };
    }
    let (b, c) = (median(baseline), median(candidate));
    let sign = if bound.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = if b == 0.0 {
        0.0
    } else {
        sign * (c - b) / b.abs()
    };
    let spread = iqr_share(baseline).max(iqr_share(candidate));
    // "a beats b" in this metric's direction.
    let beats = |a: f64, b: f64| sign * (a - b) < 0.0;
    let all =
        |f: &dyn Fn(f64, f64) -> bool| candidate.iter().all(|c| baseline.iter().all(|b| f(*c, *b)));
    let verdict = if spread > bound.bound {
        if all(&|c, b| beats(c, b)) {
            Verdict::Better
        } else if all(&|c, b| beats(b, c)) && worse_by > bound.bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if -worse_by > spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    Row {
        baseline: b,
        candidate: c,
        worse_by,
        spread,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "decision_latency_p50_ms".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound,
        }
    }

    fn higher(bound: f64) -> Bound {
        Bound {
            name: "decisions_per_s".into(),
            unit: "1/s".into(),
            higher_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&lower(0.05), &base, &base).verdict,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&lower(0.05), &base, &[10.3, 10.4, 10.2, 10.3]).verdict,
            Verdict::WithinBound,
            "3 % worse against a 5 % bound"
        );
        assert_eq!(
            judge(&lower(0.05), &base, &[11.0, 11.1, 10.9, 11.0]).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&lower(0.05), &base, &[9.0, 9.1, 8.9, 9.0]).verdict,
            Verdict::Better
        );
        // Same numbers, throughput reading: more is better.
        assert_eq!(
            judge(&higher(0.05), &base, &[11.0, 11.1, 10.9, 11.0]).verdict,
            Verdict::Better
        );
        let row = judge(&higher(0.05), &base, &[9.0, 9.1, 8.9, 9.0]);
        assert_eq!(row.verdict, Verdict::Worse);
        assert!((row.worse_by - 0.1).abs() < 1e-9);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_agrees() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            judge(&lower(0.05), &noisy, &[9.5, 10.5, 11.5, 8.5, 10.0]).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&lower(0.05), &noisy, &[5.0, 6.0, 7.0, 5.5, 6.5]).verdict,
            Verdict::Better,
            "every candidate run beats every baseline run"
        );
        assert_eq!(
            judge(&lower(0.05), &noisy, &[15.0, 16.0, 17.0, 15.5, 16.5]).verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn missing_runs_are_reported_not_guessed() {
        assert_eq!(judge(&lower(0.05), &[], &[1.0]).verdict, Verdict::Missing);
    }

    #[test]
    fn reads_values_and_bounds_from_their_files() {
        let file = concat!(
            r#"{"workload": "clean-single", "seed": 1, "trace": 0, "result": {"correct": true, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}}"#,
            "\n",
            r#"{"workload": "clean-single", "seed": 1, "trace": 1, "result": {"metrics": {"setup_s": {"value": 9.0, "unit": "s"}}}}"#,
            "\n\n",
            r#"{"workload": "sim-adversary", "seed": 1, "trace": 0, "result": {"metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}}"#,
            "\n",
            r#"{"workload": "clean-single", "seed": 2, "trace": 0, "result": {"metrics": {"setup_s": {"value": 0.75, "unit": "s"}}}}"#,
        );
        assert_eq!(
            values(file, "clean-single", "setup_s").unwrap(),
            [0.5, 0.75]
        );
        assert_eq!(values(file, "clean-single", "nope").unwrap(), [0.0; 0]);
        assert!(values("not json", "x", "y").is_err());

        let doc = Json::parse(
            r#"{"workloads": [{"name": "a", "why": "."}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let (workloads, bounds) = read_benchmark(&doc).unwrap();
        assert_eq!(workloads, ["a"]);
        assert_eq!(
            bounds,
            [Bound {
                name: "setup_s".into(),
                unit: "s".into(),
                higher_is_better: false,
                bound: 0.25
            }]
        );
        assert!(read_benchmark(&Json::Null).is_err());
    }
}
