//! The shared machine-readable benchmark artifact: every committed
//! `BENCH_*.json` at the workspace root is rendered through
//! [`BenchReport`], so CI gates and humans parse one schema
//! (`heardof-bench-report/v1`) instead of one ad-hoc layout per bench.
//!
//! The workspace has no JSON serializer, so the writer renders the
//! JSON by hand — metrics are pushed pre-formatted as JSON numbers, one
//! per line, which keeps the committed artifacts both `grep`-able (the
//! CI regression gate is line-oriented) and diff-friendly.

use std::time::Duration;

/// One benchmark's committed result file under the shared schema.
///
/// Construct with [`BenchReport::new`], push metrics in the order they
/// should appear, set the headline verdict, then [`BenchReport::write`]
/// the artifact.
pub struct BenchReport {
    bench: &'static str,
    workload: String,
    samples: usize,
    timer: &'static str,
    metrics: Vec<(String, String)>,
    claims: Vec<(&'static str, bool)>,
}

impl BenchReport {
    /// Starts a report for `bench` measuring `workload` with
    /// best-of-`samples` wall-clock timing (the workspace's standard
    /// timer; minima of identical code paths converge, bounding the
    /// noise floor).
    pub fn new(bench: &'static str, workload: String, samples: usize) -> Self {
        BenchReport {
            bench,
            workload,
            samples,
            timer: "best-of wall clock",
            metrics: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Records a duration metric in integer nanoseconds.
    pub fn metric_ns(&mut self, name: &str, value: Duration) -> &mut Self {
        self.metrics
            .push((format!("{name}_ns"), value.as_nanos().to_string()));
        self
    }

    /// Records a dimensionless ratio (e.g. a speedup factor), three
    /// decimal places.
    pub fn metric_ratio(&mut self, name: &str, value: f64) -> &mut Self {
        self.metrics.push((name.to_string(), format!("{value:.3}")));
        self
    }

    /// Records a percentage, three decimal places.
    pub fn metric_pct(&mut self, name: &str, value: f64) -> &mut Self {
        self.metrics
            .push((format!("{name}_pct"), format!("{value:.3}")));
        self
    }

    /// Records a gated claim and whether this run upheld it. A report
    /// may carry several — each is rendered on its own line in the
    /// `claims` array, and the headline `claim`/`claim_holds` pair
    /// stays in the schema as the first claim and the conjunction of
    /// all of them (so a gate that only reads the headline still gates
    /// everything).
    pub fn claim(&mut self, claim: &'static str, holds: bool) -> &mut Self {
        self.claims.push((claim, holds));
        self
    }

    /// Records a raw integer count metric (e.g. allocation events).
    pub fn metric_count(&mut self, name: &str, value: u64) -> &mut Self {
        self.metrics.push((name.to_string(), value.to_string()));
        self
    }

    /// Renders the report as `heardof-bench-report/v1` JSON.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"heardof-bench-report/v1\",\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", self.bench));
        out.push_str(&format!("  \"workload\": \"{}\",\n", self.workload));
        out.push_str(&format!("  \"samples\": {},\n", self.samples));
        out.push_str(&format!("  \"timer\": \"{}\",\n", self.timer));
        out.push_str("  \"metrics\": {\n");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 == self.metrics.len() { "" } else { "," };
            out.push_str(&format!("    \"{name}\": {value}{comma}\n"));
        }
        out.push_str("  },\n");
        out.push_str("  \"claims\": [\n");
        for (i, (claim, holds)) in self.claims.iter().enumerate() {
            let comma = if i + 1 == self.claims.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"claim\": \"{claim}\", \"holds\": {holds}}}{comma}\n"
            ));
        }
        out.push_str("  ],\n");
        let headline = self.claims.first().map(|(c, _)| *c).unwrap_or("");
        let all_hold = !self.claims.is_empty() && self.claims.iter().all(|(_, h)| *h);
        out.push_str(&format!("  \"claim\": \"{headline}\",\n"));
        out.push_str(&format!("  \"claim_holds\": {all_hold}\n"));
        out.push('}');
        out.push('\n');
        out
    }

    /// Writes the rendered report to `path` (the committed workspace
    /// artifact).
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_v1_schema() {
        let mut report = BenchReport::new("demo", "tiny workload".into(), 8);
        report
            .metric_ns("pass", Duration::from_nanos(1234))
            .metric_ratio("speedup", 4.5)
            .metric_pct("overhead", -0.25)
            .metric_count("allocs", 0)
            .claim("speedup >= 4x", true)
            .claim("zero allocs", true);
        let json = report.render();
        assert!(json.contains("\"schema\": \"heardof-bench-report/v1\""));
        assert!(json.contains("\"pass_ns\": 1234"));
        assert!(json.contains("\"speedup\": 4.500"));
        assert!(json.contains("\"overhead_pct\": -0.250"));
        assert!(json.contains("\"allocs\": 0"));
        // Every claim on its own line for the line-oriented gate.
        assert!(json.contains("{\"claim\": \"speedup >= 4x\", \"holds\": true},"));
        assert!(json.contains("{\"claim\": \"zero allocs\", \"holds\": true}\n"));
        // The headline pair survives for back-compatible consumers:
        // first claim's text, conjunction of every claim's verdict.
        assert!(json.contains("\"claim\": \"speedup >= 4x\",\n"));
        assert!(json.contains("\"claim_holds\": true"));
        // Exactly one trailing comma layout error would break the
        // line-oriented CI gate — the last metric has no comma.
        assert!(json.contains("\"allocs\": 0\n  },"));
    }

    #[test]
    fn one_failed_claim_fails_the_headline() {
        let mut report = BenchReport::new("demo", "w".into(), 1);
        report.claim("holds", true).claim("does not", false);
        let json = report.render();
        assert!(json.contains("{\"claim\": \"does not\", \"holds\": false}"));
        assert!(json.contains("\"claim_holds\": false"));
    }
}
