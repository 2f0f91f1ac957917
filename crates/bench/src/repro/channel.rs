//! The wire-level artifacts: §5.2's checksum coverage on the async
//! substrate, and the operating points the coding layer induces —
//! static codes against stationary and moving noise, the adaptive
//! ladder, and the rateless rung.

use super::{header, inputs, per_round_max};
use bytes::BytesMut;
use heardof_analysis::Table;
use heardof_async::{run_async, AsyncConfig};
use heardof_coding::mesh::drive_mesh;
use heardof_coding::{
    measure_code, AdaptiveConfig, AdaptiveController, BitNoise, ChannelCode, CodeBook, CodeSpec,
    FrameOutcome, NoiseTrace, RoundTally,
};
use heardof_core::{Ate, AteParams};
use heardof_engine::{encode_body_into, Frame, Framing, OutcomeView};
use heardof_model::RoundSets;
use heardof_net::{recommend_alpha, LinkFaults};
use heardof_telemetry::{chernoff_alpha_for_mean, Event, EventKind, RingRecorder, Telemetry};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// Bytes in a representative frame body (header + u64 payload).
const BODY_LEN: usize = 25;
/// Target per-round tail probability of a recommended `α`.
const TAIL: f64 = 1e-6;

/// **§5.2** — detection coverage turns value faults into omissions.
///
/// "Error correcting codes cannot correct all errors … such techniques
/// can be used to increase the coverage of our predicates." On the
/// async substrate (barrier-closed rounds, so every row is a pure
/// function of the seed) the artifact sweeps the checksum's
/// *undetected* fraction and measures, per receiver per round, how many
/// corruptions survive as value faults — the empirical demand on `α` —
/// against the analytic recommendation of `recommend_alpha`.
pub(super) fn coverage(out: &mut String) {
    header(
        out,
        "Checksum coverage vs. the α budget (async substrate)",
        "detected corruptions become omissions (benign); only the coverage gap \
         consumes the P_α budget",
    );
    let n = 10;
    let mut t = Table::new([
        "corrupt %",
        "undetected %",
        "E[α] analytic",
        "recommended α",
        "max |AHO| observed",
        "injected (undetected)",
        "agreement",
        "decided",
    ]);
    for (corrupt_prob, undetected_prob) in [
        (0.10, 0.0),
        (0.10, 0.10),
        (0.10, 0.50),
        (0.10, 1.0),
        (0.25, 0.20),
    ] {
        let faults = LinkFaults {
            drop_prob: 0.0,
            corrupt_prob,
            undetected_prob,
        };
        let est = recommend_alpha(&faults, n, 1e-3);
        let alpha = est.recommended_alpha.min(AteParams::max_alpha(n));
        let params = AteParams::balanced(n, alpha).expect("α below n/4");
        let config = AsyncConfig {
            faults,
            seed: 11,
            copies: 1,
            max_rounds: 60,
            ..AsyncConfig::default()
        };
        let outcome = run_async(Ate::<u64>::new(params), n, inputs(n, 0, 2), config);
        t.push_row(row![
            format!("{:.0}%", corrupt_prob * 100.0),
            format!("{:.0}%", undetected_prob * 100.0),
            format!("{:.3}", est.expected),
            alpha,
            per_round_max(&outcome.history, RoundSets::max_aho),
            outcome.undetected_corruptions,
            outcome.agreement_ok(),
            outcome.all_decided(),
        ]);
    }
    outln!(out, "{}", t.to_ascii());
    outln!(
        out,
        "expected shape: at 0% undetected the run is effectively benign (max |AHO| = 0)\n\
         no matter how much raw corruption; the budget demand grows with the coverage\n\
         gap; agreement holds whenever observed |AHO| stays within the provisioned α."
    );
}

/// §5.2 made quantitative: the operating points channel codes induce.
///
/// Sweeps code × raw bit-error rate and reports, per point, how
/// transmission faults split into omissions vs. residual undetected
/// value faults — then checks whether the induced `α` demand fits the
/// `P_α` feasibility region of `A_{T,E}` (`α < n/4`, Theorem 1) via
/// `AteParams::balanced`.
///
/// Reading the table: an **uncoded** channel spends its entire fault
/// mass as value faults, blowing the `α` budget at rates a coded
/// channel shrugs off; a **checksum** moves the mass to omissions
/// (cheap); **SECDED** moves most of it back into clean deliveries.
pub(super) fn coding_tradeoff(out: &mut String) {
    /// Processes in the reference deployment.
    const N: usize = 16;
    /// Monte-Carlo frames per operating point.
    const TRIALS: usize = 40_000;
    let specs = [
        CodeSpec::None,
        CodeSpec::Checksum { width: 1 },
        CodeSpec::Checksum { width: 4 },
        CodeSpec::Repetition { k: 3 },
        CodeSpec::Hamming74,
    ];
    let bers = [1e-4, 1e-3, 5e-3, 2e-2];

    outln!(
        out,
        "coding_tradeoff — fault-class split and induced P_α operating points"
    );
    outln!(
        out,
        "n = {N} processes, body = {BODY_LEN} B, {TRIALS} frames/point, \
         α* targets P(|AHO| > α) ≤ {TAIL:.0e}; A_{{T,E}} feasible iff α < n/4 = {}\n",
        N / 4
    );
    outln!(
        out,
        "{:<12} {:>8} {:>10} {:>10} {:>12} {:>11} {:>5}  P_α for A_{{T,E}}(n,α*)",
        "code",
        "BER",
        "delivered",
        "omission",
        "value-fault",
        "E[α]/round",
        "α*"
    );
    for spec in specs {
        let code = spec.build();
        for (i, &ber) in bers.iter().enumerate() {
            let seed = 0xC0DE + i as u64;
            let rates = measure_code(&code, BODY_LEN, BitNoise::new(ber), TRIALS, seed);
            // Expected undetected corruptions per receiver per round:
            // one frame from each of the n−1 peers.
            let mu = (N - 1) as f64 * rates.value_fault_rate();
            let alpha = chernoff_alpha_for_mean(mu, N, TAIL);
            let verdict = match AteParams::balanced(N, alpha) {
                Ok(p) => format!("OK: {p}"),
                Err(e) => format!("INFEASIBLE: {e}"),
            };
            outln!(
                out,
                "{:<12} {:>8.0e} {:>10.4} {:>10.4} {:>12.5} {:>11.4} {:>5}  {}",
                spec.to_string(),
                ber,
                rates.delivery_rate(),
                rates.omission_rate(),
                rates.value_fault_rate(),
                mu,
                alpha,
                verdict
            );
        }
        outln!(out);
    }
    outln!(
        out,
        "Residual value-fault rate is the knob: every code whose α* stays below n/4 \
         lets A_{{T,E}} run at that raw BER; the uncoded channel exits the feasible \
         region orders of magnitude earlier."
    );
}

/// Senders per round (one receiver's viewpoint in an n = 24 system).
const SENDERS: usize = 23;
/// Deployment size for the feasibility check.
const N: usize = 24;
/// The `α` budget the deployment's parameters were validated with.
const BUDGET: u32 = 5;
/// Rounds per trace.
const ROUNDS: u64 = 240;
/// A round is *productive* when ≥ 2/3 of peers are heard — the benign
/// HO threshold regime.
const PRODUCTIVE_NUM: usize = 2;
const PRODUCTIVE_DEN: usize = 3;
/// The rateless rung pinned as a static operating point (the ladder's
/// baseline repair allowance).
const FOUNTAIN: CodeSpec = CodeSpec::Fountain { repair: 8 };

struct Outcome {
    name: String,
    wire_bytes: usize,
    delivered: usize,
    value_faults: usize,
    productive_rounds: usize,
    switches: usize,
}

impl Outcome {
    fn alpha_star(&self) -> u32 {
        chernoff_alpha_for_mean(self.value_faults as f64 / ROUNDS as f64, N, TAIL)
    }

    fn feasible(&self) -> bool {
        self.alpha_star() <= BUDGET && AteParams::balanced(N, self.alpha_star()).is_ok()
    }

    /// Wire bytes per payload byte per productive round.
    fn bandwidth(&self) -> f64 {
        if self.productive_rounds == 0 {
            f64::INFINITY
        } else {
            self.wire_bytes as f64 / (self.productive_rounds * SENDERS * BODY_LEN) as f64
        }
    }
}

enum Policy {
    Static(CodeSpec, Arc<dyn ChannelCode>),
    Adaptive(Box<AdaptiveController>, CodeBook),
}

/// The link-plane kinds a sweep emits; their totals reproduce the
/// table's tallies.
const LINK_KINDS: [EventKind; 4] = [
    EventKind::LinkDelivered,
    EventKind::LinkCorrected,
    EventKind::LinkDetected,
    EventKind::LinkUndetected,
];

/// One receiver's `ROUNDS` rounds of `SENDERS` random frames through
/// `trace`, coded by `policy`.
fn run_policy(policy: &mut Policy, trace: &NoiseTrace, seed: u64) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut body = vec![0u8; BODY_LEN];
    let mut wire = BytesMut::new();
    // Every wire verdict flows through the telemetry plane (per-round
    // counters, no event ring) and the table's tallies are read back
    // from it: these columns are the flight recorder's counters by
    // construction, so the experiment and the observability plane
    // cannot drift apart.
    let telemetry = Telemetry::from_ring(Arc::new(RingRecorder::with_capacity(0)));
    let mut productive = 0usize;
    for r in 1..=ROUNDS {
        for s in 0..SENDERS as u32 {
            for b in body.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            wire.clear();
            let verdict = match policy {
                Policy::Static(_, code) => {
                    code.encode_into(&body, None, &mut wire);
                    trace.corrupt_frame(r, s, 0, 0, &mut wire);
                    code.decode_scan(&wire).outcome.ok()
                }
                Policy::Adaptive(ctl, book) => {
                    book.encode_tagged(ctl.code_id(), None, None, &body, &mut wire);
                    trace.corrupt_frame(r, s, 0, 0, &mut wire);
                    let tagged = book.decode_tagged(&wire).0.ok();
                    tagged.map(|t| (t.body, t.repaired))
                }
            };
            let kind = match verdict {
                None => EventKind::LinkDetected,
                Some((payload, repaired)) if *payload == *body => {
                    if repaired {
                        EventKind::LinkCorrected
                    } else {
                        EventKind::LinkDelivered
                    }
                }
                Some(_) => EventKind::LinkUndetected,
            };
            telemetry.emit(Event::link(kind, r, 0, s, wire.len() as u64));
        }
        let counts = telemetry.round_counts(r).unwrap_or_default();
        let ok = (counts[EventKind::LinkDelivered] + counts[EventKind::LinkCorrected]) as usize;
        let missed = counts[EventKind::LinkUndetected] as usize;
        if ok * PRODUCTIVE_DEN >= SENDERS * PRODUCTIVE_NUM {
            productive += 1;
        }
        if let Policy::Adaptive(ctl, _) = policy {
            // The controller gets what a live receiver observes —
            // deliveries and repairs, not the oracle's fault count.
            ctl.observe(RoundTally {
                expected: SENDERS,
                delivered: ok + missed,
                corrected: counts[EventKind::LinkCorrected] as usize,
                value_faults: 0,
                evidence: 0,
            });
        }
    }
    Outcome {
        name: match policy {
            Policy::Static(spec, _) => spec.to_string(),
            Policy::Adaptive(..) => "adaptive".into(),
        },
        wire_bytes: LINK_KINDS
            .into_iter()
            .map(|k| telemetry.value_total(k))
            .sum::<u64>() as usize,
        delivered: (telemetry.total(EventKind::LinkDelivered)
            + telemetry.total(EventKind::LinkCorrected)) as usize,
        value_faults: telemetry.total(EventKind::LinkUndetected) as usize,
        productive_rounds: productive,
        switches: match policy {
            Policy::Adaptive(ctl, _) => ctl.switches(),
            Policy::Static(..) => 0,
        },
    }
}

fn policies() -> Vec<Policy> {
    let cfg = AdaptiveConfig::standard(N, BUDGET);
    let mut out: Vec<Policy> = [
        CodeSpec::None,
        CodeSpec::Checksum { width: 1 },
        CodeSpec::Checksum { width: 4 },
        CodeSpec::Hamming74,
        CodeSpec::Interleaved { depth: 16 },
        FOUNTAIN,
        CodeSpec::Repetition { k: 5 },
    ]
    .into_iter()
    .map(|spec| Policy::Static(spec, spec.build()))
    .collect();
    out.push(Policy::Adaptive(
        Box::new(AdaptiveController::new(cfg.clone())),
        CodeBook::from_specs(&cfg.ladder),
    ));
    out
}

/// Static vs. adaptive operating points under moving noise.
///
/// `coding_tradeoff` swept codes against *stationary* BSC noise; this
/// artifact puts the same ladder under noise that changes over time —
/// a clean trace, a bursty trace (long clean/noisy phases), and an
/// oscillating trace (fast alternation, the whipsaw attack) — and
/// compares every static `CodeSpec` against the `AdaptiveController`.
///
/// Three figures of merit per operating point:
///
/// * **feasibility** — the Chernoff-padded `α*` demanded by the
///   measured undetected-value-fault rate must fit the deployment
///   budget (`A_{T,E}` at `n = 24`, `α = 5` — the largest feasible
///   budget, `α < n/4`);
/// * **productive rounds** — rounds where a receiver hears ≥ 2/3 of
///   its peers (below that, threshold algorithms make no progress);
/// * **bandwidth** — wire bytes spent per payload byte per productive
///   round (unproductive rounds burn their bytes for nothing).
///
/// The headline: on the bursty trace every static code either leaks
/// value faults past the budget (none, bare hamming74's burst
/// miscorrections) or pays ≥ 2× bandwidth (checksums stall through the
/// bursts; correcting codes pay their rate all the time), while the
/// adaptive controller stays feasible, keeps making progress through
/// the bursts, and undercuts every feasible static that does the same.
/// A last table compares rung gossip with independent controllers
/// under correlated bursts.
pub(super) fn adaptive_tradeoff(out: &mut String) {
    header(
        out,
        "adaptive_tradeoff — static vs. adaptive operating points under moving noise",
        "a static code either blows the P_α budget or overpays bandwidth; \
         the adaptive ladder does neither",
    );
    outln!(
        out,
        "n = {N}, α budget = {BUDGET}, body = {BODY_LEN} B, {ROUNDS} rounds/trace, \
         productive ⇔ ≥ {PRODUCTIVE_NUM}/{PRODUCTIVE_DEN} peers heard, \
         α* targets P ≤ {TAIL:.0e}"
    );
    for (trace_name, trace) in [
        ("clean", NoiseTrace::clean(0xC1EA)),
        ("bursty", NoiseTrace::bursty(0xB0B5)),
        ("oscillating", NoiseTrace::oscillating(0x05C1)),
    ] {
        outln!(out, "\n--- trace: {trace_name} ---");
        outln!(
            out,
            "{:<22} {:>9} {:>8} {:>7} {:>6} {:>9} {:>8}  verdict",
            "policy",
            "delivered",
            "faults",
            "α*",
            "prod",
            "bandwidth",
            "switches"
        );
        let mut rows = Vec::new();
        for mut policy in policies() {
            let o = run_policy(&mut policy, &trace, 0xFEED);
            outln!(
                out,
                "{:<22} {:>9} {:>8} {:>7} {:>6} {:>9.3} {:>8}  {}",
                o.name,
                o.delivered,
                o.value_faults,
                o.alpha_star(),
                o.productive_rounds,
                o.bandwidth(),
                o.switches,
                if o.feasible() {
                    "feasible"
                } else {
                    "INFEASIBLE"
                }
            );
            rows.push(o);
        }
        if trace_name == "bursty" {
            bursty_claims(out, &rows);
        }
    }

    // Rung gossip vs. independent controllers under correlated bursts:
    // the convergence-lag column. A mesh of per-process controllers —
    // not the single-receiver loop above — because divergence is a
    // *relation between* controllers. `drive_mesh` is the one mesh
    // loop; `repro_golden.rs` pins every number below and fails on a
    // `VIOLATED` claim, so the printed claims are the asserted ones.
    let mesh_n = 5;
    let mesh_rounds = 120u64;
    outln!(
        out,
        "\n--- rung gossip: controller convergence under correlated bursts \
         (mesh of {mesh_n}, {mesh_rounds} rounds) ---"
    );
    outln!(
        out,
        "{:<36} {:>10} {:>10} {:>8} {:>8}",
        "preset / policy",
        "max streak",
        "div rounds",
        "α events",
        "switches"
    );
    for (name, trace) in [
        ("correlated_bursts", NoiseTrace::correlated_bursts(0x1234)),
        (
            "correlated_moderate",
            NoiseTrace::correlated_bursts_moderate(0xD00D),
        ),
    ] {
        let mesh = |cfg| drive_mesh(cfg, mesh_n, &trace, mesh_rounds, BODY_LEN, 0xFEED);
        let independent = mesh(AdaptiveConfig::standard(mesh_n, 1));
        let gossip = mesh(AdaptiveConfig::standard(mesh_n, 1).with_gossip());
        for (policy, m) in [("independent", &independent), ("gossip", &gossip)] {
            outln!(
                out,
                "{:<36} {:>10} {:>10} {:>8} {:>8}",
                format!("{name} / {policy}"),
                m.max_divergence_streak(),
                m.divergent_rounds(),
                m.alpha_events,
                m.switches
            );
        }
        let claim =
            gossip.max_divergence_streak() <= 1 && gossip.alpha_events <= independent.alpha_events;
        outln!(
            out,
            "gossip claim on {name} — divergence ≤1 round (vs {} independent) \
             with no α increase ({} vs {}): {}",
            independent.max_divergence_streak(),
            gossip.alpha_events,
            independent.alpha_events,
            verdict(claim)
        );
    }
}

fn verdict(claim: bool) -> &'static str {
    if claim {
        "HOLDS"
    } else {
        "VIOLATED"
    }
}

/// The two headline claims judged on the bursty trace's rows (statics
/// first, adaptive last).
fn bursty_claims(out: &mut String, rows: &[Outcome]) {
    let (adaptive, statics) = rows.split_last().expect("adaptive row");
    // Burst-live: makes progress during the noisy half too — more
    // productive rounds than the clean phases alone give.
    let burst_live = |o: &Outcome| o.productive_rounds > ROUNDS as usize / 2;
    let cheapest_live_static = statics
        .iter()
        .filter(|s| s.feasible() && burst_live(s))
        .map(Outcome::bandwidth)
        .fold(f64::INFINITY, f64::min);
    let claim = adaptive.feasible()
        && burst_live(adaptive)
        && statics
            .iter()
            .all(|s| !s.feasible() || s.bandwidth() >= 2.0)
        && adaptive.bandwidth() < cheapest_live_static;
    outln!(
        out,
        "\nheadline claim — adaptive stays P_α-feasible and live through the \
         bursts while every static violates feasibility or spends ≥2x \
         bandwidth, and adaptive undercuts every feasible static that \
         keeps burst-phase liveness ({:.3} vs {:.3}): {}",
        adaptive.bandwidth(),
        cheapest_live_static,
        verdict(claim)
    );
    // The rateless-rung claim: on the hard-burst preset the fountain
    // rung is itself P_α-feasible, stays live through the bursts, and
    // pays strictly less bandwidth than the brute-force last resort it
    // displaces — incremental symbols beat whole-frame quintuplication.
    let row = |spec: CodeSpec| {
        let name = spec.to_string();
        rows.iter().find(|o| o.name == name).expect("static row")
    };
    let (fountain, rep5) = (row(FOUNTAIN), row(CodeSpec::Repetition { k: 5 }));
    let rateless_claim =
        fountain.feasible() && burst_live(fountain) && fountain.bandwidth() < rep5.bandwidth();
    outln!(
        out,
        "rateless-rung claim — {} is P_α-feasible (α* = {}), burst-live \
         ({} productive), and strictly cheaper than repetition5 \
         ({:.3} vs {:.3} B/B/productive-round): {}",
        fountain.name,
        fountain.alpha_star(),
        fountain.productive_rounds,
        fountain.bandwidth(),
        rep5.bandwidth(),
        verdict(rateless_claim)
    );
}

/// The escalation ladder walked by a bursty channel: one receiver's
/// `AdaptiveController` over 90 rounds of 30 clean / 30 bursty phases,
/// printed every 15 rounds and at every switch.
pub(super) fn ladder(out: &mut String) {
    outln!(out, "== 1. the ladder, walked by a bursty channel ==\n");
    let n = 16;
    let trace = NoiseTrace::bursty(7); // 30 clean rounds, 30 bursty, cycling
    let cfg = AdaptiveConfig::standard(n, 3);
    let book = CodeBook::from_specs(&cfg.ladder);
    let mut ctl = AdaptiveController::new(cfg);
    let mut rng = StdRng::seed_from_u64(1);
    let mut body = vec![0u8; BODY_LEN];
    let mut wire = BytesMut::new();
    outln!(
        out,
        "round  code                       delivered/expected (repaired)"
    );
    for r in 1..=90u64 {
        let (mut kept, mut ok, mut corrected) = (0usize, 0usize, 0usize);
        for s in 0..(n - 1) as u32 {
            for b in body.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            wire.clear();
            book.encode_tagged(ctl.code_id(), None, None, &body, &mut wire);
            trace.corrupt_frame(r, s, 0, 0, &mut wire);
            if let Ok(got) = book.decode_tagged(&wire).0 {
                // A live receiver keeps every decodable frame — it has
                // no oracle to spot the (rare) undetected fault.
                kept += 1;
                corrected += usize::from(got.repaired);
                ok += usize::from(*got.body == *body);
            }
        }
        let before = ctl.current();
        let switched = ctl.observe(RoundTally {
            expected: n - 1,
            delivered: kept,
            corrected,
            value_faults: 0,
            evidence: 0,
        });
        if switched.is_some() || r % 15 == 0 {
            let marker = if switched.is_some() { "→" } else { " " };
            outln!(
                out,
                "{r:>5}  {marker} {before:<24} {ok:>2}/{} ({corrected})",
                n - 1
            );
        }
    }
    outln!(
        out,
        "\nThe controller sits on the cheap checksum while the channel is \
         clean, jumps to burst-grade\ncorrection within a round of the burst \
         arriving, and steps back down once the window is quiet.\n"
    );
}

/// Incremental symbols vs. whole-frame copies — the rateless rung, in
/// three acts:
///
/// 1. one hard-burst frame, three prices: at a ~110-byte wire
///    allowance, the best repetition code you can afford is `k = 3` —
///    and under the burst it miscorrects (an α-counted value fault) or
///    dies — while the fountain spends the same bytes on CRC-guarded
///    symbols, watches the burst erase a few of them, and *recovers
///    the frame*; `repetition5` also survives, but only by paying more
///    than the allowance;
/// 2. the same comparison over the whole 30-round burst phase: per-α
///    and per-byte, incremental symbols dominate the copies they
///    replace;
/// 3. the incremental pathway live: a `Framing` holding the fountain
///    rung renegotiates its `SymbolBudget` per round — growing under
///    loss, decaying once the channel calms — so redundancy tracks the
///    channel instead of being provisioned for the worst case.
pub(super) fn fountain(out: &mut String) {
    /// A wire allowance just under repetition5's 5× price.
    const ALLOWANCE: usize = 120;
    let trace = NoiseTrace::bursty(0xB0B5);
    let codes = [
        ("repetition3", CodeSpec::Repetition { k: 3 }),
        ("repetition5", CodeSpec::Repetition { k: 5 }),
        ("fountain8", CodeSpec::Fountain { repair: 8 }),
    ]
    .map(|(name, spec)| (name, spec.build()));
    // Sender 1's frame in `round` through the burst: its wire length
    // and what the code made of it.
    let hit = |code: &Arc<dyn ChannelCode>, round: u64| {
        let payload: Vec<u8> = (0..BODY_LEN as u8)
            .map(|i| i.wrapping_mul(round as u8))
            .collect();
        let mut wire = code.encode(&payload);
        let len = wire.len();
        trace.corrupt_frame(round, 1, 0, 0, &mut wire);
        (len, code.classify(&payload, &wire))
    };

    outln!(
        out,
        "== 1. one hard-burst frame, three prices (allowance {ALLOWANCE} B) ==\n"
    );
    // Find a burst round where the allowance-priced repetition silently
    // miscorrects — the α-counted event — while the fountain recovers.
    let (rep3, fountain) = (&codes[0].1, &codes[2].1);
    let round = (31..=60u64)
        .find(|&r| {
            hit(rep3, r).1 == FrameOutcome::UndetectedValueFault
                && hit(fountain, r).1 == FrameOutcome::Delivered
        })
        .expect("the burst phase defeats repetition3 somewhere");
    outln!(out, "  burst round {round}:");
    for (name, code) in &codes {
        let (wire, outcome) = hit(code, round);
        let afford = if wire <= ALLOWANCE {
            "affordable"
        } else {
            "OVER BUDGET"
        };
        outln!(out, "  {name:<12} {wire:>4} B  ({afford})  →  {outcome}");
    }
    outln!(
        out,
        "\n  at this price, copies can only vote — and the burst swung the\n\
        \x20 vote: repetition3's miscorrection is a silent α-counted value\n\
        \x20 fault. The fountain spent the same bytes on CRC-guarded\n\
        \x20 symbols: the burst erased a few, the repair symbols reassembled\n\
        \x20 the payload, and repetition5 matched it only by paying over\n\
        \x20 the allowance.\n"
    );

    outln!(
        out,
        "== 2. the whole burst phase (rounds 31–60), per-α and per-byte ==\n"
    );
    outln!(
        out,
        "  {:<12} {:>6} {:>10} {:>10} {:>12}",
        "code",
        "wire B",
        "delivered",
        "omissions",
        "value faults"
    );
    for (name, code) in &codes {
        let (mut delivered, mut omitted, mut faults, mut wire) = (0, 0, 0, 0);
        for r in 31..=60u64 {
            let (len, outcome) = hit(code, r);
            wire = len;
            match outcome {
                FrameOutcome::Delivered => delivered += 1,
                FrameOutcome::DetectedOmission => omitted += 1,
                FrameOutcome::UndetectedValueFault => faults += 1,
            }
        }
        outln!(
            out,
            "  {name:<12} {wire:>6} {delivered:>10} {omitted:>10} {faults:>12}"
        );
    }
    outln!(
        out,
        "\n  repetition3 is what the allowance buys in copies — and its\n\
        \x20 miscorrections spend the α budget. The fountain converts the\n\
        \x20 same bytes into erasure repair: value faults stay at zero and\n\
        \x20 delivery beats even repetition5, which costs a frame and a\n\
        \x20 quarter more.\n"
    );

    outln!(out, "== 3. the symbol budget, renegotiated per round ==\n");
    let base = 8;
    let mut framing = Framing::fixed(CodeSpec::Fountain { repair: base });
    let n = 8usize;
    let (mut body, mut clean) = (BytesMut::new(), BytesMut::new());
    outln!(out, "  round  phase   delivered  budget  frame bytes");
    for r in 25..=70u64 {
        let frame = Frame {
            round: r,
            sender: 0,
            copy: 0,
            msg: 0xFEED_u64,
        };
        let budget = framing.symbol_budget().expect("fountain framing");
        body.clear();
        encode_body_into(&frame, &mut body);
        clean.clear();
        framing.encode_raw_with_budget_into(&body, budget, &mut clean);
        // One receiver's round: n−1 peers send fountain frames through
        // the trace; losses feed the renegotiation.
        let (mut delivered, mut corrected) = (0usize, 0usize);
        for s in 1..n as u32 {
            let mut wire = clean.to_vec();
            trace.corrupt_frame(r, s, 0, 0, &mut wire);
            if let Some((_, repaired, _)) = framing.decode_scan::<u64>(&wire).frame {
                delivered += 1;
                corrected += usize::from(repaired);
            }
        }
        framing.observe(RoundTally {
            expected: n - 1,
            delivered,
            corrected,
            value_faults: 0,
            evidence: 0,
        });
        if r % 3 == 0 || (31..=36).contains(&r) {
            let phase = if (31..=60).contains(&r) {
                "burst"
            } else {
                "calm"
            };
            outln!(
                out,
                "  {r:>5}  {phase:<6} {delivered:>6}/{:<3} {:>6} {:>12}",
                n - 1,
                budget.repair,
                clean.len()
            );
        }
    }
    outln!(
        out,
        "\n  redundancy followed the channel: the allowance grew while the\n\
        \x20 burst was eating symbols and decayed back toward the baseline\n\
        \x20 of {base} once the channel calmed — paid per symbol, not per frame.\n"
    );
}
