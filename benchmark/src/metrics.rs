//! The metric tables — the single source of the names, units and
//! directions `BENCHMARK.json` declares (a unit test keeps the two in
//! step) — and the result line every run prints.

use crate::json::Json;

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees, per workload; measured with tracing,
/// the counting allocator and telemetry all off (`--trace 0`).
pub const END_TO_END: [MetricDef; 7] = [
    m("decisions_per_s", "1/s", "higher"),
    m("decision_latency_p50_ms", "ms", "lower"),
    m("decision_latency_p95_ms", "ms", "lower"),
    m("rounds_to_decide_mean", "rounds", "lower"),
    m("wire_bytes_per_decision", "B", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Single-layer metrics from the traced run (`--trace 1`). A metric
/// that does not apply to a workload reads 0 there (README lists which
/// apply where).
pub const PER_LAYER: [MetricDef; 52] = [
    m("core.send.ns_per_call", "ns", "lower"),
    m("core.transition.ns_per_call", "ns", "lower"),
    m("core.transition.calls_per_decision", "count", "lower"),
    m("engine.begin_round.self_share", "share", "lower"),
    m("engine.ingest.share", "share", "lower"),
    m("engine.finish_round.share", "share", "lower"),
    m("engine.assemble.share", "share", "lower"),
    m("engine.codec.encode_body.ns_per_frame", "ns", "lower"),
    m("engine.codec.decode_body.ns_per_frame", "ns", "lower"),
    m("engine.frames_per_decision", "count", "lower"),
    m("engine.ingest.kept_ratio", "ratio", "higher"),
    m("engine.ingest.rejected_per_decision", "count", "lower"),
    m("engine.allocs_per_frame", "count", "lower"),
    m("coding.encode.ns_per_byte", "ns", "lower"),
    m("coding.decode.ns_per_byte", "ns", "lower"),
    m("coding.encode.share_est", "share", "lower"),
    m("coding.decode.share_est", "share", "lower"),
    m("coding.batch.pack.ns_per_image", "ns", "lower"),
    m("coding.batch.unpack.ns_per_image", "ns", "lower"),
    m("coding.expansion", "ratio", "lower"),
    m("coding.decode.repaired_ratio", "ratio", "higher"),
    m("coding.decode.rejected_ratio", "ratio", "lower"),
    m("coding.controller.observe.ns_per_call", "ns", "lower"),
    m("coding.controller.switches_per_decision", "count", "lower"),
    m("coding.rung_share.checksum32", "share", "higher"),
    m("coding.rung_share.hamming74", "share", "lower"),
    m("coding.rung_share.interleaved16", "share", "lower"),
    m("coding.rung_share.fountain8", "share", "lower"),
    m("coding.rung_share.repetition5", "share", "lower"),
    m("net.fabric.build.share", "share", "lower"),
    m("net.fabric.teardown.share", "share", "lower"),
    m("net.link.send.share", "share", "lower"),
    m("net.link.send.ns_per_frame", "ns", "lower"),
    m("net.link.delivered_per_decision", "count", "higher"),
    m("net.link.dropped_per_decision", "count", "lower"),
    m("net.link.corrected_per_decision", "count", "lower"),
    m("net.link.detected_per_decision", "count", "lower"),
    m("net.link.undetected_per_decision", "count", "lower"),
    m("net.runtime.residual_share", "share", "lower"),
    m("net.runtime.rounds_after_decision_mean", "rounds", "lower"),
    m("async.runtime.residual_share", "share", "lower"),
    m("sim.run.ns_per_round", "ns", "lower"),
    m("adversary.deliver.ns_per_round", "ns", "lower"),
    m("predicates.palpha.check.ns_per_run", "ns", "lower"),
    m("predicates.palpha.violations", "count", "lower"),
    m("telemetry.null_overhead_pct", "%", "lower"),
    m("telemetry.counters_overhead_pct", "%", "lower"),
    m("telemetry.ring_overhead_pct", "%", "lower"),
    m("telemetry.aa_noise_pct", "%", "lower"),
    m("trace.coverage", "share", "higher"),
    m("trace.overhead_pct", "%", "lower"),
    m("trace.driver_match", "ratio", "higher"),
];

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Every checked op was correct.
    pub correct: bool,
    /// Ops checked.
    pub attempted: u64,
    /// Ops that failed their check.
    pub failed: u64,
    /// `(name, value)` pairs; names must come from the run's table.
    pub values: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The contract's result object: `correct`, `attempted`, `failed`
    /// and one `{value, unit}` per metric of `table`, in table order.
    /// A table metric the run did not record reads 0 (not applicable).
    ///
    /// # Panics
    ///
    /// Panics if the run recorded a name `table` does not declare — a
    /// typo must not silently drop a metric.
    pub fn to_json(&self, table: &[MetricDef]) -> Json {
        for (name, _) in &self.values {
            assert!(
                table.iter().any(|d| d.name == *name),
                "metric {name} is not declared"
            );
        }
        let metrics = table
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(self.get(d.name).unwrap_or(0.0))),
                        ("unit".into(), Json::Str(d.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|d| {
                let field = |k| d.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let doc = Json::parse(&text).unwrap();
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), table(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), table(&PER_LAYER));
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
    }

    #[test]
    fn result_line_lists_every_table_metric_in_order() {
        let mut run = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            values: Vec::new(),
        };
        run.set("setup_s", 0.5);
        run.set("decisions_per_s", 1234.5);
        let doc = Json::parse(&run.to_json(&END_TO_END).write()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(
            metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            END_TO_END.map(|d| d.name)
        );
        assert_eq!(
            metrics[0].1.get("value").and_then(Json::as_f64),
            Some(1234.5)
        );
        assert_eq!(metrics[0].1.get("unit").and_then(Json::as_str), Some("1/s"));
        assert_eq!(metrics[1].1.get("value").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_name_is_a_bug() {
        let mut run = RunResult::default();
        run.set("decisions_per_sec", 1.0);
        let _ = run.to_json(&END_TO_END);
    }
}
