//! Replay micro-measurements: the benchmark captures, at its own sink,
//! the wire images a workload's first ops really emitted and received,
//! then re-feeds them to one layer's public function in a timed loop.
//!
//! Spans say where a driver op's time went; replays say what one call
//! of a layer costs on *this workload's* bytes — its frame sizes, its
//! rung mix, its share of corrupted arrivals — without a span's timer
//! overhead inside the number.

use crate::driver::{drive, Probe};
use crate::stats::median;
use crate::workloads::{op, Kind, Workload};
use bytes::BytesMut;
use heardof_coding::{
    pack_slots_into, unpack_slots_view, AdaptiveConfig, AdaptiveController, CodeBook, CtlState,
    RoundTally, RungAdvert, GOSSIP_FLAG,
};
use heardof_core::Ate;
use heardof_engine::{decode_body, encode_body_into, Frame, Framing, Ingest, ProcessCore};
use heardof_model::{ProcessId, ReceptionVector, Round};
use heardof_telemetry::Telemetry;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ops whose frames are captured (the first ones of the batch).
pub const CAPTURE_OPS: usize = 32;

/// One wire image as a receiver saw it.
struct Arrival {
    op: usize,
    round: u64,
    receiver: u32,
    wire: Vec<u8>,
}

/// The capture probe: keeps every emitted (pre-fault) and ingested
/// (post-fault) wire image of the ops it watches.
#[derive(Default)]
struct Capture {
    op: usize,
    round: u64,
    clean: Vec<Vec<u8>>,
    arrived: Vec<Arrival>,
}

impl Probe for Capture {
    fn emitted(&mut self, wire: &[u8]) {
        self.clean.push(wire.to_vec());
    }
    fn ingested(&mut self, receiver: u32, wire: &[u8], _verdict: Ingest) {
        self.arrived.push(Arrival {
            op: self.op,
            round: self.round,
            receiver,
            wire: wire.to_vec(),
        });
    }
    fn round_begin(&mut self, round: u64) {
        self.round = round;
    }
}

/// Median wall time, in ns, of one call of `sweep` — repeated until
/// `budget` is spent, three times at least, after one untimed call.
pub fn time_sweeps(budget: Duration, mut sweep: impl FnMut()) -> f64 {
    sweep();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        sweep();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// The framing a process of this workload holds while its controller
/// sits on ladder rung `rung` (ignored by fixed-code workloads).
fn framing_at(w: &Workload, rung: u8) -> Framing {
    let cfg = w.async_config(op(0, 0), Telemetry::null());
    match cfg.adaptive {
        Some(a) => {
            let book = Arc::new(CodeBook::from_specs(&a.ladder));
            let state = CtlState {
                rung,
                ..CtlState::initial(&a)
            };
            Framing::adaptive(book, AdaptiveController::from_state(a, state))
        }
        None => Framing::fixed(cfg.code),
    }
}

/// Encodes `body` the way the engines do: through the framing in force,
/// spending the symbol budget when the rung is rateless (pooled over
/// the batch on the mux engine).
fn encode_like_engine(w: &Workload, framing: &Framing, body: &[u8], out: &mut BytesMut) {
    out.clear();
    match framing.symbol_budget() {
        Some(budget) => {
            let budget = budget.fold_copies(1);
            let budget = if w.kind == Kind::LossyMuxFountain {
                budget.for_batch(w.slots)
            } else {
                budget
            };
            framing.encode_raw_with_budget_into(body, budget, out);
        }
        None => framing.encode_raw_into(body, out),
    }
}

/// What the replays measured; every field is 0 when its layer does not
/// run on the workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayMetrics {
    /// `ProcessCore::send_to`, ns per call.
    pub core_send_ns: f64,
    /// `ProcessCore::transition` on captured round-1 receptions, ns per call.
    pub core_transition_ns: f64,
    /// `encode_body_into`, ns per frame body.
    pub encode_body_ns: f64,
    /// `decode_body`, ns per frame body.
    pub decode_body_ns: f64,
    /// Channel encode, ns per body byte, on the emitted rung mix.
    pub encode_ns_per_byte: f64,
    /// Channel decode, ns per wire byte, on the arrived (post-fault) mix.
    pub decode_ns_per_byte: f64,
    /// Channel encode, ns per emitted frame (for the share estimate).
    pub encode_ns_per_frame: f64,
    /// Channel decode, ns per ingested frame (for the share estimate).
    pub decode_ns_per_frame: f64,
    /// `pack_slots_into`, ns per 64-slot image.
    pub pack_ns_per_image: f64,
    /// `unpack_slots_view` + slot walk, ns per image.
    pub unpack_ns_per_image: f64,
    /// Wire bytes ÷ body bytes over the emitted frames.
    pub expansion: f64,
    /// Arrived frames the code delivered after a repair ÷ arrived frames.
    pub repaired_ratio: f64,
    /// Arrived frames the code rejected ÷ arrived frames.
    pub rejected_ratio: f64,
}

/// Captures the first [`CAPTURE_OPS`] ops of the batch through the
/// driver and runs every replay that applies, each for `budget`.
pub fn replay(w: &Workload, seed: u64, budget: Duration) -> ReplayMetrics {
    let mut capture = Capture::default();
    for i in 0..CAPTURE_OPS.min(w.batch_ops) {
        capture.op = i;
        drive(w, op(seed, i), &mut capture);
    }
    let mut out = ReplayMetrics::default();
    if capture.clean.is_empty() {
        return out; // sim-adversary: no wire
    }
    let mux = w.kind == Kind::LossyMuxFountain;
    let receiver = framing_at(w, 0);
    let adaptive = w.async_config(op(0, 0), Telemetry::null()).adaptive;
    let rungs = adaptive.as_ref().map_or(1, |a| a.ladder.len());
    let senders: Vec<Framing> = (0..rungs).map(|r| framing_at(w, r as u8)).collect();

    // ---- coding.decode: the arrived mix through the receiver's framing.
    let arrived_bytes: usize = capture.arrived.iter().map(|a| a.wire.len()).sum();
    let (mut repaired, mut rejected) = (0usize, 0usize);
    for a in &capture.arrived {
        match receiver.decode_raw_view(&a.wire).image {
            Some((_, true, _)) => repaired += 1,
            Some(_) => {}
            None => rejected += 1,
        }
    }
    let arrived = capture.arrived.len().max(1);
    out.repaired_ratio = repaired as f64 / arrived as f64;
    out.rejected_ratio = rejected as f64 / arrived as f64;
    let decode_ns = time_sweeps(budget, || {
        for a in &capture.arrived {
            black_box(receiver.decode_raw_view(black_box(&a.wire)));
        }
    });
    out.decode_ns_per_byte = decode_ns / arrived_bytes.max(1) as f64;
    out.decode_ns_per_frame = decode_ns / arrived as f64;

    // ---- coding.encode: the emitted bodies back through the rung each
    // was sent on (the tag byte of a ladder frame names its rung).
    let bodies: Vec<(usize, Vec<u8>)> = capture
        .clean
        .iter()
        .filter_map(|wire| {
            let rung = if adaptive.is_some() {
                (wire[0] & !GOSSIP_FLAG) as usize
            } else {
                0
            };
            let (body, _, _) = receiver.decode_raw_view(wire).image?;
            (rung < rungs).then(|| (rung, body.into_owned()))
        })
        .collect();
    let body_bytes: usize = bodies.iter().map(|(_, b)| b.len()).sum();
    let mut wire = BytesMut::new();
    let mut wire_bytes = 0usize;
    for (rung, body) in &bodies {
        encode_like_engine(w, &senders[*rung], body, &mut wire);
        wire_bytes += wire.len();
    }
    out.expansion = wire_bytes as f64 / body_bytes.max(1) as f64;
    let encode_ns = time_sweeps(budget, || {
        for (rung, body) in &bodies {
            encode_like_engine(w, &senders[*rung], black_box(body), &mut wire);
            black_box(&wire);
        }
    });
    out.encode_ns_per_byte = encode_ns / body_bytes.max(1) as f64;
    out.encode_ns_per_frame = encode_ns / bodies.len().max(1) as f64;

    // ---- coding.batch + the frame bodies inside mux images.
    let frame_bodies: Vec<Vec<u8>> = if mux {
        let slots: Vec<Vec<(u32, Vec<u8>)>> = bodies
            .iter()
            .filter_map(|(_, image)| {
                let view = unpack_slots_view(image).ok()?;
                Some(view.iter().map(|(id, b)| (id, b.to_vec())).collect())
            })
            .collect();
        let images = slots.len().max(1) as f64;
        let mut image = Vec::new();
        out.pack_ns_per_image = time_sweeps(budget, || {
            for s in &slots {
                pack_slots_into(black_box(s), &mut image);
                black_box(&image);
            }
        }) / images;
        out.unpack_ns_per_image = time_sweeps(budget, || {
            for (_, packed) in &bodies {
                if let Ok(view) = unpack_slots_view(black_box(packed)) {
                    for slot in view.iter() {
                        black_box(slot);
                    }
                }
            }
        }) / images;
        slots.into_iter().flatten().map(|(_, b)| b).collect()
    } else {
        bodies.iter().map(|(_, b)| b.clone()).collect()
    };

    // ---- engine.codec: frame bodies through decode_body / encode_body_into.
    let frames: Vec<Frame<u64>> = frame_bodies
        .iter()
        .filter_map(|b| decode_body::<u64>(b).ok())
        .collect();
    let per_frame = frames.len().max(1) as f64;
    out.decode_body_ns = time_sweeps(budget, || {
        for b in &frame_bodies {
            let _ = black_box(decode_body::<u64>(black_box(b)));
        }
    }) / per_frame;
    let mut body = BytesMut::new();
    out.encode_body_ns = time_sweeps(budget, || {
        for f in &frames {
            body.clear();
            encode_body_into(black_box(f), &mut body);
            black_box(&body);
        }
    }) / per_frame;

    // ---- core: round-1 machines on the receptions they really got.
    let (mut cores, rxs) = round_one_receptions(w, seed, &capture.arrived, &receiver);
    let n = w.n as u32;
    let first = Round::new(1);
    out.core_send_ns = time_sweeps(budget, || {
        for core in &cores {
            for dest in 0..n {
                black_box(core.send_to(first, ProcessId::new(dest)));
            }
        }
    }) / (cores.len().max(1) as f64 * n as f64);
    // Transitions run in place: after the first sweep the machines have
    // moved on, but A_{T,E}'s transition cost is a function of the
    // reception vector it counts over, which stays the captured one.
    out.core_transition_ns = time_sweeps(budget, || {
        for (core, rx) in cores.iter_mut().zip(&rxs) {
            core.transition(first, black_box(rx));
        }
    }) / cores.len().max(1) as f64;
    out
}

/// One `(machine, reception vector)` pair per captured op, receiver and
/// slot: the machine in its initial state, the vector holding its own
/// round-1 message plus what the first valid round-1 frame per sender
/// carried — the engine's own keep rule.
fn round_one_receptions(
    w: &Workload,
    seed: u64,
    arrived: &[Arrival],
    receiver: &Framing,
) -> (Vec<ProcessCore<Ate<u64>>>, Vec<ReceptionVector<u64>>) {
    let first = Round::new(1);
    let algo = w.algorithm();
    let mut cores = Vec::new();
    let mut rxs = Vec::new();
    for i in 0..CAPTURE_OPS.min(w.batch_ops) {
        let o = op(seed, i);
        let initials = w.mux_initials(o);
        for (p, slot_values) in initials.iter().enumerate() {
            let me = ProcessId::new(p as u32);
            let at = cores.len();
            for v in slot_values {
                let core = ProcessCore::new(algo.clone(), me, w.n, *v);
                let mut rx = ReceptionVector::new(w.n);
                rx.set(me, core.send_to(first, me));
                cores.push(core);
                rxs.push(rx);
            }
            for a in arrived
                .iter()
                .filter(|a| a.op == i && a.round == 1 && a.receiver == p as u32)
            {
                let Some((image, _, _)) = receiver.decode_raw_view(&a.wire).image else {
                    continue;
                };
                let bodies: Vec<Vec<u8>> = if w.slots > 1 {
                    match unpack_slots_view(&image) {
                        Ok(view) if view.len() == w.slots => {
                            view.iter().map(|(_, b)| b.to_vec()).collect()
                        }
                        _ => continue,
                    }
                } else {
                    vec![image.into_owned()]
                };
                for (j, b) in bodies.iter().enumerate() {
                    if let Ok(frame) = decode_body::<u64>(b) {
                        let sender = ProcessId::new(frame.sender);
                        if frame.round == 1
                            && (frame.sender as usize) < w.n
                            && rxs[at + j].get(sender).is_none()
                        {
                            rxs[at + j].set(sender, frame.msg);
                        }
                    }
                }
            }
        }
    }
    (cores, rxs)
}

/// `AdaptiveController::observe_with_gossip`, ns per call, on a
/// seed-generated stream of tallies and peer adverts that visits calm,
/// lossy and repairing rounds so every branch of `step` is exercised.
pub fn controller_observe_ns(cfg: &AdaptiveConfig, seed: u64, budget: Duration) -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = |bound: usize| -> usize {
        // xorshift64: any deterministic stream will do here.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound.max(1) as u64) as usize
    };
    let peers = cfg.n - 1;
    let inputs: Vec<(RoundTally, Vec<RungAdvert>)> = (0..4096)
        .map(|i| {
            // Alternate calm and noisy stretches of 8 rounds.
            let noisy = (i / 8) % 2 == 1;
            let lost = if noisy { next(peers + 1) } else { 0 };
            let delivered = peers - lost;
            let tally = RoundTally {
                expected: peers,
                delivered,
                corrected: if noisy { next(delivered + 1) } else { 0 },
                value_faults: 0,
                evidence: next(lost + 1),
            };
            let ads = (0..delivered)
                .map(|_| RungAdvert {
                    rung: next(cfg.ladder.len()) as u8,
                    epoch: next(16) as u8,
                })
                .collect();
            (tally, ads)
        })
        .collect();
    let mut controller = AdaptiveController::new(cfg.clone());
    time_sweeps(budget, || {
        for (tally, ads) in &inputs {
            black_box(controller.observe_with_gossip(*tally, black_box(ads)));
        }
    }) / inputs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    const QUICK: Duration = Duration::from_millis(5);

    #[test]
    fn replays_fill_the_metrics_that_apply() {
        let single = replay(by_name("clean-single").unwrap(), 1, QUICK);
        assert!(single.encode_ns_per_byte > 0.0 && single.decode_ns_per_byte > 0.0);
        assert!(single.encode_body_ns > 0.0 && single.decode_body_ns > 0.0);
        assert!(single.core_send_ns > 0.0 && single.core_transition_ns > 0.0);
        assert!(single.expansion > 1.0, "a CRC trailer adds bytes");
        assert_eq!(single.rejected_ratio, 0.0, "clean links reject nothing");
        assert_eq!(single.pack_ns_per_image, 0.0, "no mux images here");

        let mux = replay(by_name("lossy-mux-fountain").unwrap(), 1, QUICK);
        assert!(mux.pack_ns_per_image > 0.0 && mux.unpack_ns_per_image > 0.0);
        assert!(mux.expansion > 1.0);
        assert!(mux.rejected_ratio < 0.5);

        let bursty = replay(by_name("bursty-adaptive").unwrap(), 1, QUICK);
        assert!(
            bursty.repaired_ratio > 0.0,
            "bursts are repaired on the correcting rungs"
        );

        let sim = replay(by_name("sim-adversary").unwrap(), 1, QUICK);
        assert_eq!(sim.encode_ns_per_byte, 0.0, "the simulator has no wire");
    }

    #[test]
    fn controller_replay_times_a_gossiping_controller() {
        let cfg = AdaptiveConfig::standard(8, 1).with_gossip();
        assert!(controller_observe_ns(&cfg, 1, QUICK) > 0.0);
    }
}
