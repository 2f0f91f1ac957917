//! The traced run (`--trace 1`): per-layer metrics from spans recorded
//! around every layer call, from counts taken at the same boundaries,
//! and from replays of captured frames.
//!
//! Each op of the batch runs three ways back to back — the production
//! entry point, the untraced driver, the traced driver — so the three
//! wall times are paired op by op against drift: their differences are
//! the runtime's residual (executor, sockets, barrier; or threads,
//! channels, timeouts) and the tracing overhead. Count metrics come
//! from the first full pass over the batch, so they repeat exactly;
//! timings use every pass.

use crate::alloc::allocations;
use crate::driver::{drive, matches, NoProbe, Probe};
use crate::measure::counters_pass;
use crate::metrics::RunResult;
use crate::replay::{controller_observe_ns, replay, CAPTURE_OPS};
use crate::spans::{Layer, SpanRecorder};
use crate::telemetry_ab;
use crate::workloads::{op, Kind, Outcome, Workload};
use heardof_coding::CodeSpec;
use heardof_engine::Ingest;
use heardof_predicates::{CommPredicate, PAlpha};
use heardof_telemetry::Telemetry;
use std::time::{Duration, Instant};

/// Counts taken at the driver's boundaries.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    frames: u64,
    ingested: u64,
    kept: u64,
    rejected: u64,
}

/// The traced driver's probe: spans plus counts.
struct TraceProbe {
    spans: SpanRecorder,
    counts: Counts,
}

impl Probe for TraceProbe {
    #[inline]
    fn enter(&mut self, layer: Layer) {
        self.spans.enter(layer);
    }
    #[inline]
    fn exit(&mut self) {
        self.spans.exit();
    }
    #[inline]
    fn emitted(&mut self, _wire: &[u8]) {
        self.counts.frames += 1;
    }
    #[inline]
    fn ingested(&mut self, _receiver: u32, _wire: &[u8], verdict: Ingest) {
        self.counts.ingested += 1;
        self.counts.kept += u64::from(verdict == Ingest::Kept);
        self.counts.rejected += u64::from(verdict == Ingest::Rejected);
    }
}

/// Counts heap allocations over steady-state rounds (round 2 on, when
/// every arena is warm): everything between a round's first
/// `begin_round_with` and its last `finish_round` — engine, link and
/// mailbox — per frame emitted in those rounds.
#[derive(Default)]
struct AllocProbe {
    steady: bool,
    at_round_begin: u64,
    allocs: u64,
    frames: u64,
}

impl Probe for AllocProbe {
    fn emitted(&mut self, _wire: &[u8]) {
        self.frames += u64::from(self.steady);
    }
    fn round_begin(&mut self, round: u64) {
        self.steady = round >= 2;
        self.at_round_begin = allocations();
    }
    fn round_end(&mut self, _round: u64) {
        if self.steady {
            self.allocs += allocations() - self.at_round_begin;
        }
    }
}

/// What the production outcomes of the first pass add up to.
#[derive(Clone, Copy, Debug, Default)]
struct PassTotals {
    ops: u64,
    decided: u64,
    transitions: u64,
    process_rounds: u64,
    rung_rounds: [u64; 5],
    switches: u64,
    rounds_after_decision: u64,
}

const RUNGS: [CodeSpec; 5] = [
    CodeSpec::Checksum { width: 4 },
    CodeSpec::Hamming74,
    CodeSpec::Interleaved { depth: 16 },
    CodeSpec::Fountain { repair: 8 },
    CodeSpec::Repetition { k: 5 },
];

impl PassTotals {
    fn add_schedule(&mut self, codes: &[CodeSpec]) {
        self.process_rounds += codes.len() as u64;
        for code in codes {
            if let Some(i) = RUNGS.iter().position(|r| r == code) {
                self.rung_rounds[i] += 1;
            }
        }
        self.switches += codes.windows(2).filter(|w| w[0] != w[1]).count() as u64;
    }

    fn add(&mut self, w: &Workload, outcome: &Outcome) {
        match outcome {
            Outcome::Single(o) => {
                self.transitions += o.rounds_completed.iter().sum::<u64>();
                for codes in &o.code_schedule {
                    self.add_schedule(codes);
                }
            }
            Outcome::Mux(reports) => {
                for r in reports {
                    self.transitions += r.rounds_completed * w.slots as u64;
                    self.add_schedule(&r.codes);
                }
            }
            Outcome::Sim(o) => self.transitions += (o.rounds_executed * w.n) as u64,
        }
    }
}

/// Runs the traced measurement for about `seconds` and returns the
/// per-layer metrics. `spans_out`, when given, receives the raw spans of
/// the first ops as JSON lines.
pub fn traced_run(w: &Workload, seed: u64, seconds: f64, spans_out: Option<&str>) -> RunResult {
    let bytes = w.kind != Kind::SimAdversary;
    let bursty = w.kind == Kind::BurstyAdaptive;
    let slice = |share: f64| Duration::from_secs_f64(seconds * share);
    // Replays: a dozen loops on the byte-level workloads.
    let replay_budget = slice(if bytes { 0.012 } else { 0.0 });
    let ab_budget = slice(if bursty { 0.30 } else { 0.0 });
    let paired_budget = slice(if bursty { 0.45 } else { 0.75 });

    // ---- Paired passes: production | untraced driver | traced driver.
    let mut probe = TraceProbe {
        spans: SpanRecorder::new(if spans_out.is_some() { 8 } else { 0 }),
        counts: Counts::default(),
    };
    let (mut production_s, mut plain_s, mut traced_s) = (0.0f64, 0.0f64, 0.0f64);
    let (mut ops, mut matched, mut failed) = (0u64, 0u64, 0u64);
    let mut first = PassTotals::default();
    let mut first_counts = Counts::default();
    let (mut sim_rounds, mut palpha_ns, mut palpha_violations) = (0u64, 0u64, 0u64);
    let palpha = PAlpha::new(w.alpha);
    let start = Instant::now();
    'passes: loop {
        for i in 0..w.batch_ops {
            let first_pass = ops < w.batch_ops as u64;
            if !first_pass && start.elapsed() >= paired_budget {
                break 'passes;
            }
            let o = op(seed, i);

            let t = Instant::now();
            let production = w.run(o, Telemetry::null());
            production_s += t.elapsed().as_secs_f64();

            let t = Instant::now();
            let plain = drive(w, o, &mut NoProbe);
            plain_s += t.elapsed().as_secs_f64();

            let t = Instant::now();
            let traced = drive(w, o, &mut probe);
            traced_s += t.elapsed().as_secs_f64();
            probe.spans.finish_op();

            let stats = w.check(o, &production);
            failed += u64::from(!stats.ok);
            matched +=
                u64::from(matches(w, &production, &plain) && matches(w, &production, &traced));
            ops += 1;
            if first_pass {
                first.ops += 1;
                first.decided += stats.decided;
                first.rounds_after_decision += stats.rounds_after_decision;
                first.add(w, &production);
                first_counts = probe.counts;
            }
            if let Outcome::Sim(outcome) = &production {
                sim_rounds += outcome.rounds_executed as u64;
                let t = Instant::now();
                let report = palpha.check(&outcome.trace);
                palpha_ns += t.elapsed().as_nanos() as u64;
                palpha_violations += u64::from(!report.holds);
            }
        }
    }

    let mut run = RunResult {
        correct: failed == 0 && matched == ops,
        attempted: ops,
        failed,
        values: Vec::new(),
    };
    let decided = first.decided.max(1) as f64;
    let traced_ns = traced_s * 1e9;
    let share = |layer: Layer| probe.spans.totals(layer).total_ns as f64 / traced_ns;
    let per_span = |layer: Layer| {
        let t = probe.spans.totals(layer);
        t.total_ns as f64 / t.count.max(1) as f64
    };

    run.set("trace.coverage", probe.spans.root_ns() as f64 / traced_ns);
    run.set("trace.overhead_pct", (traced_s / plain_s - 1.0) * 100.0);
    run.set("trace.driver_match", matched as f64 / ops as f64);
    run.set(
        "core.transition.calls_per_decision",
        first.transitions as f64 / decided,
    );
    let residual = (production_s - plain_s) / production_s;

    if bytes {
        run.set(
            "engine.begin_round.self_share",
            probe.spans.totals(Layer::BeginRound).self_ns as f64 / traced_ns,
        );
        run.set("engine.ingest.share", share(Layer::Ingest));
        run.set("engine.finish_round.share", share(Layer::FinishRound));
        run.set("engine.assemble.share", share(Layer::Assemble));
        run.set("net.fabric.build.share", share(Layer::FabricBuild));
        run.set("net.fabric.teardown.share", share(Layer::Teardown));
        run.set("net.link.send.share", share(Layer::LinkSend));
        run.set("net.link.send.ns_per_frame", per_span(Layer::LinkSend));
        run.set(
            "engine.frames_per_decision",
            first_counts.frames as f64 / decided,
        );
        run.set(
            "engine.ingest.kept_ratio",
            first_counts.kept as f64 / first_counts.ingested.max(1) as f64,
        );
        run.set(
            "engine.ingest.rejected_per_decision",
            first_counts.rejected as f64 / decided,
        );
        run.set(
            "net.runtime.rounds_after_decision_mean",
            first.rounds_after_decision as f64 / first.ops as f64,
        );
        run.set(
            if w.kind == Kind::ThreadedClean {
                "net.runtime.residual_share"
            } else {
                "async.runtime.residual_share"
            },
            residual,
        );
        run.set(
            "coding.controller.switches_per_decision",
            first.switches as f64 / decided,
        );
        for (name, rounds) in [
            "coding.rung_share.checksum32",
            "coding.rung_share.hamming74",
            "coding.rung_share.interleaved16",
            "coding.rung_share.fountain8",
            "coding.rung_share.repetition5",
        ]
        .into_iter()
        .zip(first.rung_rounds)
        {
            run.set(name, rounds as f64 / first.process_rounds.max(1) as f64);
        }

        // ---- Steady-state allocations, over the captured ops.
        let mut allocs = AllocProbe::default();
        for i in 0..CAPTURE_OPS.min(w.batch_ops) {
            drive(w, op(seed, i), &mut allocs);
        }
        run.set(
            "engine.allocs_per_frame",
            allocs.allocs as f64 / allocs.frames.max(1) as f64,
        );

        // ---- Link verdicts, from one pass with a counters plane.
        let counted = counters_pass(w, seed);
        run.attempted += w.batch_ops as u64;
        run.failed += counted.failed;
        run.correct &= counted.failed == 0;
        for (name, total) in [
            "net.link.delivered_per_decision",
            "net.link.dropped_per_decision",
            "net.link.corrected_per_decision",
            "net.link.detected_per_decision",
            "net.link.undetected_per_decision",
        ]
        .into_iter()
        .zip(counted.link_events)
        {
            run.set(name, total as f64 / decided);
        }

        // ---- Replays.
        let r = replay(w, seed, replay_budget);
        run.set("core.send.ns_per_call", r.core_send_ns);
        run.set("core.transition.ns_per_call", r.core_transition_ns);
        run.set("engine.codec.encode_body.ns_per_frame", r.encode_body_ns);
        run.set("engine.codec.decode_body.ns_per_frame", r.decode_body_ns);
        run.set("coding.encode.ns_per_byte", r.encode_ns_per_byte);
        run.set("coding.decode.ns_per_byte", r.decode_ns_per_byte);
        run.set("coding.batch.pack.ns_per_image", r.pack_ns_per_image);
        run.set("coding.batch.unpack.ns_per_image", r.unpack_ns_per_image);
        run.set("coding.expansion", r.expansion);
        run.set("coding.decode.repaired_ratio", r.repaired_ratio);
        run.set("coding.decode.rejected_ratio", r.rejected_ratio);
        // Replay cost × calls ÷ the untraced driver's wall, per op.
        let plain_ns_per_op = plain_s * 1e9 / ops as f64;
        let per_op = |count: u64| count as f64 / first.ops as f64;
        run.set(
            "coding.encode.share_est",
            r.encode_ns_per_frame * per_op(first_counts.frames) / plain_ns_per_op,
        );
        run.set(
            "coding.decode.share_est",
            r.decode_ns_per_frame * per_op(first_counts.ingested) / plain_ns_per_op,
        );
    } else {
        let calls = |layer: Layer| probe.spans.totals(layer).count.max(1) as f64;
        run.set(
            "sim.run.ns_per_round",
            production_s * 1e9 / sim_rounds.max(1) as f64,
        );
        run.set(
            "adversary.deliver.ns_per_round",
            per_span(Layer::AdversaryDeliver),
        );
        run.set(
            "core.send.ns_per_call",
            probe.spans.totals(Layer::CoreSend).total_ns as f64
                / (calls(Layer::CoreSend) * (w.n * w.n) as f64),
        );
        run.set(
            "core.transition.ns_per_call",
            probe.spans.totals(Layer::CoreTransition).total_ns as f64
                / (calls(Layer::CoreTransition) * w.n as f64),
        );
        run.set(
            "predicates.palpha.check.ns_per_run",
            palpha_ns as f64 / ops as f64,
        );
        run.set("predicates.palpha.violations", palpha_violations as f64);
    }

    // ---- Telemetry planes, A/B paired (bursty-adaptive only).
    if bursty {
        let cfg = w
            .async_config(op(seed, 0), Telemetry::null())
            .adaptive
            .expect("bursty-adaptive runs the adaptive ladder");
        run.set(
            "coding.controller.observe.ns_per_call",
            controller_observe_ns(&cfg, seed, replay_budget),
        );
        let o = telemetry_ab::measure(w, seed, ab_budget, production_s / ops as f64);
        for (name, series) in [
            ("telemetry.null_overhead_pct", &o.null),
            ("telemetry.counters_overhead_pct", &o.counters),
            ("telemetry.ring_overhead_pct", &o.ring),
        ] {
            let shown = match o.resolved(series) {
                Some(pct) => format!("{pct:+.2} %"),
                None => "unresolved".to_string(),
            };
            eprintln!(
                "[{}] {name}: {shown} (median {:+.2} %, quartiles {:+.2} / {:+.2} %, {} pairs)",
                w.name,
                series.median_pct,
                series.quartiles_pct.0,
                series.quartiles_pct.1,
                series.pairs
            );
            // Unresolved reads 0: below the noise floor, not negative.
            run.set(name, o.resolved(series).map_or(0.0, |pct| pct.max(0.0)));
        }
        eprintln!(
            "[{}] telemetry.aa_noise_pct: {:.2} % (A/A median {:+.2} %, quartiles {:+.2} / {:+.2} %, {} pairs)",
            w.name,
            o.aa.band_pct(),
            o.aa.median_pct,
            o.aa.quartiles_pct.0,
            o.aa.quartiles_pct.1,
            o.aa.pairs
        );
        run.set("telemetry.aa_noise_pct", o.aa.band_pct());
    }

    eprintln!(
        "[{}] seed {seed}: {ops} ops x3 (production {:.3} s | driver {:.3} s | traced driver {:.3} s), \
         residual {:.4}, {} spans, cores {}",
        w.name,
        production_s,
        plain_s,
        traced_s,
        residual,
        Layer::ALL
            .iter()
            .map(|l| probe.spans.totals(*l).count)
            .sum::<u64>(),
        std::thread::available_parallelism().map_or(0, |c| c.get()),
    );
    for layer in Layer::ALL {
        let t = probe.spans.totals(layer);
        if t.count > 0 {
            eprintln!(
                "[{}]   span {:<20} count {:>10}  total {:>7.4}  self {:>7.4}  (share of traced driver wall)",
                w.name,
                layer.name(),
                t.count,
                t.total_ns as f64 / traced_ns,
                t.self_ns as f64 / traced_ns
            );
        }
    }
    if let Some(path) = spans_out {
        if let Err(e) = std::fs::write(path, probe.spans.kept_jsonl()) {
            eprintln!("[{}] could not write spans to {path}: {e}", w.name);
        }
    }
    run
}
