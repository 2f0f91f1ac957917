//! The timed run (`--trace 0`): end-to-end metrics through the
//! production entry points, with tracing, the counting allocator and
//! telemetry all off.

use crate::metrics::RunResult;
use crate::speed::{to_reference_speed, Speedometer};
use crate::stats::{median, percentile, sort};
use crate::workloads::{op, OpStats, Workload, LINK_KINDS};
use heardof_telemetry::Telemetry;
use std::time::Instant;

/// Everything a process does before its first timed op: generate the
/// inputs, let the program build its code books and tables (they are
/// built lazily, by the first ops that need them), and run the
/// warm-up ops. Returns the failed-op count — warm-up is checked too —
/// and the time since `process_start`, at reference speed.
pub fn setup(w: &Workload, seed: u64, process_start: Instant) -> (u64, f64) {
    let mut speed = Speedometer::new();
    let mut failed = 0;
    for i in 0..w.warmup_ops {
        // Warm-up draws from past the end of the batch so it never
        // pre-computes a timed op's exact inputs.
        let o = op(seed, w.batch_ops + i);
        let called = Instant::now();
        let outcome = w.run(o, Telemetry::null());
        speed.worked(called.elapsed().as_secs_f64());
        failed += u64::from(!w.check(o, &outcome).ok);
    }
    let wall = process_start.elapsed().as_secs_f64() - speed.burst_seconds();
    (failed, wall * speed.factor(w.speed_exponent))
}

/// One pass over the batch.
#[derive(Clone, Debug, Default)]
pub struct Batch {
    /// Wall time of the whole closed loop: generate, call, check, drop
    /// (reference bursts excluded).
    pub wall_s: f64,
    /// What brings this batch's wall time to reference speed.
    pub factor: f64,
    /// The reference kernel's rate during the batch, iterations/s.
    pub reference_rate: f64,
    /// Wall time of one `run_*` call, start to return: the batch's
    /// p50, p95 and p99 (ms), each call brought to reference speed by
    /// the reference kernel's rate around the time it ran.
    pub latency_ms: [f64; 3],
    /// The batch's p50 and p95 (ms) as measured.
    pub raw_latency_ms: [f64; 2],
    /// Instances decided by all processes (Σ over ops, like the rest).
    pub decided: u64,
    /// Σ last decision rounds.
    pub rounds: u64,
    /// Σ rounds run past the last decision.
    pub rounds_after_decision: u64,
    /// Ops that failed their check.
    pub failed: u64,
}

impl Batch {
    fn add(&mut self, s: OpStats) {
        self.decided += s.decided;
        self.rounds += s.last_round;
        self.rounds_after_decision += s.rounds_after_decision;
        self.failed += u64::from(!s.ok);
    }
}

/// Runs the batch once through the production entry point, one op in
/// flight, checking every outcome. `latencies` is scratch space —
/// `(ms as measured, reference-kernel rate when the call returned)` —
/// reused from batch to batch, so a longer run does not hold more memory.
pub fn run_batch(w: &Workload, seed: u64, latencies: &mut Vec<(f64, f64)>) -> Batch {
    let mut batch = Batch::default();
    latencies.clear();
    let mut speed = Speedometer::new();
    let start = Instant::now();
    for i in 0..w.batch_ops {
        let o = op(seed, i);
        let called = Instant::now();
        let outcome = w.run(o, Telemetry::null());
        let latency = called.elapsed().as_secs_f64();
        batch.add(w.check(o, &outcome));
        speed.worked(latency);
        latencies.push((latency * 1e3, speed.recent_rate()));
    }
    batch.wall_s = start.elapsed().as_secs_f64() - speed.burst_seconds();
    batch.factor = speed.factor(w.speed_exponent);
    batch.reference_rate = speed.rate();
    let busy = speed.busy_share();
    let mut ms: Vec<f64> = latencies.iter().map(|(ms, _)| *ms).collect();
    sort(&mut ms);
    batch.raw_latency_ms = [50.0, 95.0].map(|p| percentile(&ms, p));
    for (slot, (raw, rate)) in ms.iter_mut().zip(latencies.iter()) {
        *slot = raw * to_reference_speed(busy, *rate, w.speed_exponent);
    }
    sort(&mut ms);
    batch.latency_ms = [50.0, 95.0, 99.0].map(|p| percentile(&ms, p));
    batch
}

/// What one more pass over the batch with a counters-only telemetry
/// plane saw (untimed, every op checked).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountersPass {
    /// Bytes handed to the links (see [`Workload::wire_bytes`]).
    pub wire_bytes: u64,
    /// Link verdicts, in [`LINK_KINDS`] order.
    pub link_events: [u64; 5],
    /// Instances decided by all processes.
    pub decided: u64,
    /// Ops that failed their check.
    pub failed: u64,
}

/// Runs the batch once more with `Telemetry::counters()` on every op.
pub fn counters_pass(w: &Workload, seed: u64) -> CountersPass {
    let mut pass = CountersPass::default();
    for i in 0..w.batch_ops {
        let o = op(seed, i);
        let telemetry = Telemetry::counters();
        let outcome = w.run(o, telemetry.clone());
        let stats = w.check(o, &outcome);
        pass.wire_bytes += w.wire_bytes(&outcome, &telemetry);
        for (total, kind) in pass.link_events.iter_mut().zip(LINK_KINDS) {
            *total += telemetry.total(kind);
        }
        pass.decided += stats.decided;
        pass.failed += u64::from(!stats.ok);
    }
    pass
}

/// This process's peak resident set (`VmHWM`), in MB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeats the batch for `seconds` (always finishing the batch in
/// flight, so at least once) and reduces it to the end-to-end metrics.
/// Timings are medians over batches, each batch brought to reference
/// speed by its own factor (see [`crate::speed`]) — every batch is the
/// same ops, so a noisy second moves one sample, not the result.
/// `setup_s` and the failed ops of set-up come from the caller, which
/// timed them.
pub fn timed_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    setup_s: f64,
    setup_failed: u64,
) -> RunResult {
    let start = Instant::now();
    let mut batches = Vec::new();
    let mut latencies = Vec::with_capacity(w.batch_ops);
    loop {
        batches.push(run_batch(w, seed, &mut latencies));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    // Read before the telemetry pass below allocates its recorders.
    let rss = peak_rss_mb();
    let counted = counters_pass(w, seed);

    let over =
        |f: &dyn Fn(&Batch) -> f64| -> f64 { median(&batches.iter().map(f).collect::<Vec<f64>>()) };
    let ops = (batches.len() * w.batch_ops) as u64;
    let rounds: u64 = batches.iter().map(|b| b.rounds).sum();
    let failed: u64 = batches.iter().map(|b| b.failed).sum::<u64>() + counted.failed + setup_failed;
    let attempted = ops + w.batch_ops as u64 + w.warmup_ops as u64;

    let mut run = RunResult {
        correct: failed == 0,
        attempted,
        failed,
        values: Vec::new(),
    };
    run.set(
        "decisions_per_s",
        over(&|b| b.decided as f64 / (b.wall_s * b.factor)),
    );
    run.set("decision_latency_p50_ms", over(&|b| b.latency_ms[0]));
    run.set("decision_latency_p95_ms", over(&|b| b.latency_ms[1]));
    run.set("rounds_to_decide_mean", rounds as f64 / ops as f64);
    run.set(
        "wire_bytes_per_decision",
        counted.wire_bytes as f64 / counted.decided.max(1) as f64,
    );
    run.set("peak_rss_mb", rss);
    run.set("setup_s", setup_s);

    let wire = run.get("wire_bytes_per_decision").unwrap_or(0.0);
    eprintln!(
        "[{}] seed {seed}: {} batches x {} ops = {ops} timed ops ({} latency samples per batch), \
         p99 {:.4} ms (diagnostic), rate {:.4} decided-bits/wire-bit, failed_op_fraction {}, \
         rounds_after_decision_mean {:.3}, cores {}",
        w.name,
        batches.len(),
        w.batch_ops,
        w.batch_ops,
        over(&|b| b.latency_ms[2]),
        if wire > 0.0 {
            (w.n * 64) as f64 / (8.0 * wire)
        } else {
            0.0
        },
        failed as f64 / attempted as f64,
        batches.iter().map(|b| b.rounds_after_decision).sum::<u64>() as f64 / ops as f64,
        std::thread::available_parallelism().map_or(0, |c| c.get()),
    );
    eprintln!(
        "[{}] as measured, before normalising: decisions_per_s {:.1}, p50 {:.4} ms, p95 {:.4} ms; \
         per batch (decisions_per_s as measured @ reference-kernel Miter/s / p95 ms at reference speed): {}",
        w.name,
        over(&|b| b.decided as f64 / b.wall_s),
        over(&|b| b.raw_latency_ms[0]),
        over(&|b| b.raw_latency_ms[1]),
        batches
            .iter()
            .map(|b| format!(
                "{:.0}@{:.2}/{:.4}",
                b.decided as f64 / b.wall_s,
                b.reference_rate / 1e6,
                b.latency_ms[1]
            ))
            .collect::<Vec<_>>()
            .join(" ")
    );
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Kind, WORKLOADS};

    /// A 50-op cut of each deterministic workload, run twice in one
    /// process: every count metric must repeat exactly.
    #[test]
    fn count_metrics_repeat_exactly_across_two_runs() {
        for w in WORKLOADS.iter().filter(|w| w.kind != Kind::ThreadedClean) {
            let small = Workload {
                batch_ops: 50,
                warmup_ops: 0,
                ..*w
            };
            let counts = |b: &Batch| (b.decided, b.rounds, b.rounds_after_decision, b.failed);
            let mut scratch = Vec::new();
            let a = run_batch(&small, 5, &mut scratch);
            let b = run_batch(&small, 5, &mut scratch);
            assert_eq!(counts(&a), counts(&b), "{}", w.name);
            assert_eq!(a.failed, 0, "{}", w.name);
            assert_eq!(scratch.len(), 50);
            assert!(a.latency_ms[0] <= a.latency_ms[1] && a.latency_ms[1] <= a.latency_ms[2]);
            assert_eq!(
                counters_pass(&small, 5),
                counters_pass(&small, 5),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn peak_rss_reads_a_positive_number_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
