//! Reads result files (`run.sh` writes one JSON object per line).
//!
//! * `hobench-report show <results.jsonl>` prints every metric of every
//!   run by name, with its unit.
//! * `hobench-report compare <baseline.jsonl> <candidate.jsonl>
//!   [BENCHMARK.json]` prints one row per (workload, end-to-end metric)
//!   with a verdict against the bounds `BENCHMARK.json` fixes, and
//!   exits 1 if any row is worse.

use heardof_benchmark::compare::{judge, read_benchmark, values, Verdict};
use heardof_benchmark::json::Json;
use std::process::ExitCode;

const USAGE: &str = "usage: hobench-report show <results.jsonl>\n       \
                     hobench-report compare <baseline.jsonl> <candidate.jsonl> [BENCHMARK.json]";

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Prints every metric of every run; `Ok(false)` if any run failed its
/// checks.
fn show(path: &str) -> Result<bool, String> {
    let mut all_correct = true;
    for (n, line) in read(path)?.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("{path} line {}: {e}", n + 1))?;
        let field = |key: &str| doc.get(key).map_or("?".to_string(), Json::write);
        let result = doc.get("result").ok_or("a line without a result")?;
        let number = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let correct = result.get("correct") == Some(&Json::Bool(true));
        all_correct &= correct;
        println!(
            "{} seed {} trace {}: correct {correct}, attempted {}, failed {}, failed_op_fraction {}",
            doc.get("workload").and_then(Json::as_str).unwrap_or("?"),
            field("seed"),
            field("trace"),
            number("attempted"),
            number("failed"),
            number("failed") / number("attempted"),
        );
        for (name, metric) in result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("a result without metrics")?
        {
            println!(
                "  {name:<44} {:>16.6} {}",
                metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
                metric.get("unit").and_then(Json::as_str).unwrap_or("?"),
            );
        }
    }
    Ok(all_correct)
}

/// Prints the comparison table; `Ok(false)` if any row is worse.
fn compare(baseline: &str, candidate: &str, benchmark: &str) -> Result<bool, String> {
    let (workloads, bounds) = read_benchmark(&Json::parse(&read(benchmark)?)?)?;
    let (baseline, candidate) = (read(baseline)?, read(candidate)?);
    println!(
        "{:<20} {:<32} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by", "spread", "bound"
    );
    let mut tally = [0usize; 5];
    for w in &workloads {
        for b in &bounds {
            let row = judge(
                b,
                &values(&baseline, w, &b.name)?,
                &values(&candidate, w, &b.name)?,
            );
            tally[row.verdict as usize] += 1;
            println!(
                "{:<20} {:<32} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>6.1}%  {}",
                w,
                format!("{} [{}]", b.name, b.unit),
                row.baseline,
                row.candidate,
                row.worse_by * 100.0,
                row.spread * 100.0,
                b.bound * 100.0,
                row.verdict.label()
            );
        }
    }
    println!(
        "{} better, {} within bound, {} worse, {} unresolved, {} missing",
        tally[Verdict::Better as usize],
        tally[Verdict::WithinBound as usize],
        tally[Verdict::Worse as usize],
        tally[Verdict::Unresolved as usize],
        tally[Verdict::Missing as usize],
    );
    Ok(tally[Verdict::Worse as usize] == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["show", path] => show(path),
        ["compare", baseline, candidate] => compare(baseline, candidate, "BENCHMARK.json"),
        ["compare", baseline, candidate, benchmark] => compare(baseline, candidate, benchmark),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
