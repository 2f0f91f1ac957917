//! Criterion: telemetry-plane overhead on the engine hot path.
//!
//! Drives a single-threaded lockstep mesh of [`RoundEngine`]s over a
//! seeded noise trace — the exact frame pipeline every substrate
//! shares — three ways:
//!
//! * **baseline** — engines as constructed (the default null plane),
//! * **null** — `Telemetry::null()` attached explicitly,
//! * **ring** — a full `RingRecorder` flight recording.
//!
//! Baseline and null are the same code path by design (`emit` is one
//! branch on a recorder the engine always holds), so their measured
//! delta is the honest cost of shipping the plane at all. The run also
//! writes `BENCH_telemetry.json` at the workspace root, pinning the
//! headline claim: attaching `NullRecorder` costs ≤ 1%.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use heardof_bench::report::BenchReport;
use heardof_coding::{AdaptiveConfig, AdaptiveController, CodeBook, NoiseTrace};
use heardof_core::{Ate, AteParams};
use heardof_engine::{Framing, RoundEngine};
use heardof_model::ProcessId;
use heardof_telemetry::{RingRecorder, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 5;
const ROUNDS: u64 = 40;
const SEED: u64 = 0xA11CE;

/// One full lockstep mesh run; `telemetry` is attached to every engine
/// when given, otherwise the engines keep their default null plane.
fn mesh_run(telemetry: Option<&Telemetry>) -> u64 {
    let cfg = AdaptiveConfig::standard(N, 1);
    let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
    let trace = NoiseTrace::correlated_bursts_moderate(SEED);
    let mut engines: Vec<RoundEngine<Ate<u64>>> = (0..N)
        .map(|p| {
            let framing =
                Framing::adaptive(Arc::clone(&book), AdaptiveController::new(cfg.clone()));
            let engine = RoundEngine::new(
                Ate::new(AteParams::balanced(N, 1).unwrap()),
                ProcessId::new(p as u32),
                N,
                p as u64 % 2,
                framing,
                1,
                ROUNDS,
            );
            match telemetry {
                Some(t) => engine.with_telemetry(t.clone()),
                None => engine,
            }
        })
        .collect();
    for r in 1..=ROUNDS {
        // Every process sends before any process reads.
        let mut in_flight: Vec<(u32, Vec<u8>)> = Vec::new();
        for (sender, engine) in engines.iter_mut().enumerate() {
            engine.begin_round_with(|dest, copy, wire| {
                let mut bytes = wire.to_vec();
                trace.corrupt_frame(r, sender as u32, dest, copy, &mut bytes);
                in_flight.push((dest, bytes));
            });
        }
        for (dest, bytes) in &in_flight {
            engines[*dest as usize].ingest(bytes);
        }
        for engine in engines.iter_mut() {
            engine.finish_round();
        }
    }
    engines
        .into_iter()
        .map(|e| e.into_report().rounds_completed)
        .sum()
}

/// Best-of-`samples` wall clock for each configuration, sampled
/// round-robin so clock-frequency drift lands on all of them equally
/// instead of biasing whichever ran last.
fn measure_interleaved(samples: usize, configs: &[Option<&Telemetry>]) -> Vec<Duration> {
    let mut best = vec![Duration::MAX; configs.len()];
    for _ in 0..samples {
        for (slot, telemetry) in configs.iter().enumerate() {
            let start = Instant::now();
            criterion::black_box(mesh_run(*telemetry));
            best[slot] = best[slot].min(start.elapsed());
        }
    }
    best
}

fn overhead_pct(base: Duration, with: Duration) -> f64 {
    if base.is_zero() {
        return 0.0;
    }
    (with.as_secs_f64() - base.as_secs_f64()) / base.as_secs_f64() * 100.0
}

fn telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.throughput(Throughput::Elements(ROUNDS * N as u64));
    group.bench_function(BenchmarkId::from_parameter("baseline"), |b| {
        b.iter(|| mesh_run(None))
    });
    group.bench_function(BenchmarkId::from_parameter("null"), |b| {
        let telemetry = Telemetry::null();
        b.iter(|| mesh_run(Some(&telemetry)))
    });
    group.bench_function(BenchmarkId::from_parameter("ring"), |b| {
        b.iter(|| {
            let telemetry = Telemetry::from_ring(Arc::new(RingRecorder::new()));
            mesh_run(Some(&telemetry))
        })
    });
    group.finish();

    // The committed artifact: measure the three configurations with a
    // deeper best-of pass (minima of identical code paths converge, so
    // the null-vs-baseline delta is noise-bounded), then the shared
    // `heardof-bench-report/v1` writer.
    let samples = 80;
    let null_telemetry = Telemetry::null();
    let ring_telemetry = Telemetry::from_ring(Arc::new(RingRecorder::new()));
    let timings = measure_interleaved(
        samples,
        &[None, Some(&null_telemetry), Some(&ring_telemetry)],
    );
    let (baseline, null, ring) = (timings[0], timings[1], timings[2]);
    let null_pct = overhead_pct(baseline, null);
    let ring_pct = overhead_pct(baseline, ring);
    let mut report = BenchReport::new(
        "telemetry_overhead",
        format!(
            "lockstep mesh, n={N}, rounds={ROUNDS}, adaptive ladder, \
             correlated-burst trace, seed {SEED:#x}"
        ),
        samples,
    );
    report
        .metric_ns("baseline", baseline)
        .metric_ns("null_recorder", null)
        .metric_ns("ring_recorder", ring)
        .metric_pct("null_overhead", null_pct)
        .metric_pct("ring_overhead", ring_pct)
        .claim("NullRecorder overhead <= 1%", null_pct <= 1.0);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");
    report.write(path);
    println!("telemetry overhead: null {null_pct:+.3}%  ring {ring_pct:+.3}%  -> {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = telemetry_overhead
}
criterion_main!(benches);
