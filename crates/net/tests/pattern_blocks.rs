//! A sender's links built together by `RunFabric::links_for` share one
//! block of trace flip patterns; the same links built one at a time
//! through `FaultyLink::new` draw every frame's pattern alone. The two
//! must be indistinguishable: over every system size around the lane
//! width, every copy count, tagged adaptive frames with and without
//! rung advertisements, the 2- and 3-byte count-channel frames, and
//! per-link, shared-regime, defective and state-dependent traces, both
//! sets of links return the same verdicts in the same order, deliver
//! byte-identical frames to the same receivers in the same order, emit
//! the same telemetry and log the same undetected faults.

use bytes::BytesMut;
use heardof_coding::{
    oblivious_advert_frame, oblivious_value_frame, AdaptiveConfig, CodeBook, CodeSpec,
    GilbertElliott, NoisePhase, NoiseTrace, RungAdvert,
};
use heardof_engine::{encode_body_into, Frame, PAYLOAD_OFFSET};
use heardof_net::{
    FaultLog, FaultyLink, FrameSink, LinkEvent, LinkFaults, LinkWiring, RunFabric, RunRecording,
    Telemetry,
};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Rounds each run spans: across `oscillating`'s 3-round phases.
const ROUNDS: u64 = 8;

/// A sender-attributed frame, as a sink receives it.
type Arrival = (u32, Vec<u8>);

/// Everything one receiver was handed, in order.
#[derive(Clone, Default)]
struct Tape(Arc<Mutex<Vec<Arrival>>>);

impl FrameSink for Tape {
    fn deliver(&self, sender: u32, frame: Vec<u8>) {
        self.0.lock().expect("no sink panics").push((sender, frame));
    }
}

fn ladder() -> Vec<CodeSpec> {
    AdaptiveConfig::standard(4, 1).ladder
}

/// The traces both link sets run under: per-link bursts alternating
/// with calm, a shared per-round regime, every bit flipped, and a chain
/// whose draws per bit depend on its state (which never runs in lanes).
fn traces(seed: u64) -> Vec<NoiseTrace> {
    let uneven = GilbertElliott::new(0.05, 0.1, 0.0, 1.0);
    vec![
        NoiseTrace::oscillating(seed),
        NoiseTrace::correlated_bursts_moderate(seed),
        NoiseTrace::fully_defective(seed),
        NoiseTrace::new(
            seed,
            vec![NoisePhase {
                rounds: 1,
                channel: uneven,
            }],
        ),
    ]
}

/// The wire `sender` hands every receiver as `copy` in `round`: a
/// tagged frame on a rung of the round's choosing, with or without a
/// rung advertisement, or — every third round — a count-channel frame,
/// 2 bytes to even receivers and 3 to odd ones.
fn wire(round: u64, sender: u32, receiver: u32, copy: u8) -> Vec<u8> {
    if round.is_multiple_of(3) {
        return match receiver % 2 {
            0 => oblivious_value_frame().to_vec(),
            _ => oblivious_advert_frame().to_vec(),
        };
    }
    let specs = ladder();
    let id = ((round + u64::from(sender)) % specs.len() as u64) as u8;
    let advert = round.is_multiple_of(2).then_some(RungAdvert {
        rung: id,
        epoch: (round % 16) as u8,
    });
    let frame = Frame {
        round,
        sender,
        copy,
        msg: round * 31 + u64::from(sender),
    };
    let mut body = BytesMut::new();
    encode_body_into(&frame, &mut body);
    let mut wire = BytesMut::new();
    CodeBook::from_specs(&specs).encode_tagged(id, advert, None, &body, &mut wire);
    wire.into()
}

/// Everything observable about one run of all `n · (n − 1)` links.
#[derive(Debug, PartialEq)]
struct Observed {
    events: Vec<LinkEvent>,
    delivered: Vec<Vec<Arrival>>,
    logged: usize,
    recording: RunRecording,
}

/// Drives every link in engine order — each sender in turn, each
/// receiver, each copy — for [`ROUNDS`] rounds; the first receiver of
/// each sender is sent its last copy twice, which must meet the same
/// pattern twice.
fn drive(links: &mut [Vec<FaultyLink>], copies: u8) -> Vec<LinkEvent> {
    let mut events = Vec::new();
    for round in 1..=ROUNDS {
        for (p, links) in links.iter_mut().enumerate() {
            for (lane, link) in links.iter_mut().enumerate() {
                let q = if lane < p { lane } else { lane + 1 } as u32;
                let resend = (lane == 0).then_some(copies - 1);
                for copy in (0..copies).chain(resend) {
                    let wire = wire(round, p as u32, q, copy);
                    events.push(link.send(round, copy, wire));
                }
            }
        }
    }
    events
}

fn observe(
    events: Vec<LinkEvent>,
    tapes: &[Tape],
    log: &FaultLog,
    telemetry: &Telemetry,
) -> Observed {
    Observed {
        events,
        delivered: tapes
            .iter()
            .map(|tape| std::mem::take(&mut *tape.0.lock().expect("no sink panics")))
            .collect(),
        logged: log.len(),
        recording: telemetry.snapshot().expect("a ring recorder snapshots"),
    }
}

/// The links `RunFabric::links_for` builds.
fn fabric_links(n: usize, copies: u8, seed: u64, trace: &NoiseTrace) -> (Observed, FaultLog) {
    let telemetry = Telemetry::ring();
    let fabric = RunFabric::new(
        LinkFaults::NONE,
        seed,
        copies,
        ROUNDS + 1,
        CodeSpec::DEFAULT,
        Some(AdaptiveConfig::standard(4, 1)),
        Some(trace.clone()),
        telemetry.clone(),
    );
    let tapes: Vec<Tape> = (0..n).map(|_| Tape::default()).collect();
    let mut links: Vec<Vec<FaultyLink>> = (0..n)
        .map(|p| fabric.links_for(p, n, |q| Box::new(tapes[q].clone())))
        .collect();
    let events = drive(&mut links, copies);
    drop(links);
    let log = fabric.fault_log().clone();
    (observe(events, &tapes, &log, &telemetry), log)
}

/// The same links, each built alone.
fn lone_links(n: usize, copies: u8, seed: u64, trace: &NoiseTrace) -> (Observed, FaultLog) {
    let telemetry = Telemetry::ring();
    let log = FaultLog::new();
    let wiring = Arc::new(LinkWiring::new(
        LinkFaults::NONE,
        CodeSpec::DEFAULT.build(),
        Some(Arc::new(CodeBook::from_specs(&ladder()))),
        Some(trace.clone()),
        log.clone(),
        telemetry.clone(),
    ));
    let tapes: Vec<Tape> = (0..n).map(|_| Tape::default()).collect();
    let mut links: Vec<Vec<FaultyLink>> = (0..n)
        .map(|p| {
            (0..n)
                .filter(|&q| q != p)
                .map(|q| {
                    let sink = Box::new(tapes[q].clone());
                    FaultyLink::new(p as u32, q as u32, sink, seed, Arc::clone(&wiring))
                })
                .collect()
        })
        .collect();
    let events = drive(&mut links, copies);
    drop(links);
    (observe(events, &tapes, &log, &telemetry), log)
}

/// The `(round, sender, receiver, copy)` key an undetected fault on a
/// frame delivered to `receiver` is logged under: the header the
/// receiver parses, decoded here through the book's public API.
fn logged_key(receiver: u32, wire: &[u8]) -> Option<(u64, u32, u32, u8)> {
    let body = CodeBook::from_specs(&ladder())
        .decode_tagged(wire)
        .0
        .ok()?
        .body;
    (body.len() >= PAYLOAD_OFFSET).then(|| {
        (
            u64::from_le_bytes(body[0..8].try_into().expect("8 bytes")),
            u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")),
            receiver,
            body[12],
        )
    })
}

#[test]
fn shared_pattern_blocks_equal_links_built_alone() {
    for n in [2usize, 3, 5, 8, 9, 17] {
        for copies in 1..=3u8 {
            let seed = 0x5EED ^ (n as u64) << 8 ^ u64::from(copies);
            for (i, trace) in traces(seed).iter().enumerate() {
                let what = format!("n {n}, copies {copies}, trace {i}");
                let (shared, shared_log) = fabric_links(n, copies, seed, trace);
                let (alone, alone_log) = lone_links(n, copies, seed, trace);
                assert_eq!(shared, alone, "{what}");

                // The logs agree on every key a delivered frame's
                // header names, and hold as many keys.
                let mut keys = HashSet::new();
                for (receiver, tape) in alone.delivered.iter().enumerate() {
                    for (_, wire) in tape {
                        keys.extend(logged_key(receiver as u32, wire));
                    }
                }
                for key in &keys {
                    let (shared, alone) =
                        (shared_log.was_corrupted(key), alone_log.was_corrupted(key));
                    assert_eq!(shared, alone, "{what}: {key:?}");
                }
                assert_eq!(shared_log.len(), alone_log.len(), "{what}");
            }
        }
    }
}
