//! `FaultyLink::send` (owned `Vec`) and `FaultyLink::send_bytes`
//! (borrowed slice) are two entries to **one** fault model.
//!
//! The repository benchmark's driver — frozen, outside this workspace's
//! reach — rebuilds the production round loop on the owned entry, and
//! its `trace.driver_match` check certifies production only as long as
//! the two entries cannot drift. So, over every fault source × every
//! framing × arbitrary sequences of valid and pre-corrupted wires: two
//! links built from the same seed, one driven through each entry,
//! return the same verdicts, deliver byte-identical frames in the same
//! order, log the same undetected-fault keys, emit the same telemetry
//! events and leave their RNGs in the same state.

use bytes::BytesMut;
use heardof_coding::{
    AdaptiveConfig, ChannelCode, CodeBook, CodeSpec, FaultScript, LinkFault, NoiseTrace, RungAdvert,
};
use heardof_engine::{encode_body_into, Frame, PAYLOAD_OFFSET};
use heardof_net::{
    FaultLog, FaultyLink, FrameSink, LinkEvent, LinkFaults, LinkWiring, RunRecording, Telemetry,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const SENDER: u32 = 0;
const RECEIVER: u32 = 1;

/// What drives corruption on the link.
#[derive(Clone)]
enum Source {
    Model(LinkFaults),
    Trace(NoiseTrace),
}

/// The probabilistic model at every corner and the middle of its cube,
/// the seeded trace presets (per-link bursts, clean, shared regime) and
/// an exact script exercising every scripted fault.
fn sources(seed: u64) -> Vec<Source> {
    let mut all = Vec::new();
    for drop_prob in [0.0, 0.4, 1.0] {
        for corrupt_prob in [0.0, 0.5, 1.0] {
            for undetected_prob in [0.0, 0.5, 1.0] {
                all.push(Source::Model(LinkFaults {
                    drop_prob,
                    corrupt_prob,
                    undetected_prob,
                }));
            }
        }
    }
    let mut script = FaultScript::new();
    for round in 1..=ROUNDS {
        let fault = match round % 5 {
            1 => LinkFault::Omit,
            2 => LinkFault::MuteAdvert,
            3 => LinkFault::Forge(RungAdvert { rung: 1, epoch: 2 }),
            4 => LinkFault::CorruptAll,
            _ => continue,
        };
        script.insert(round, SENDER, RECEIVER, fault);
    }
    all.extend(
        [
            NoiseTrace::bursty(seed),
            NoiseTrace::clean(seed),
            NoiseTrace::correlated_bursts(seed),
            NoiseTrace::scripted(script),
        ]
        .map(Source::Trace),
    );
    all
}

/// How the endpoints frame wire bytes.
#[derive(Clone, Copy, Debug)]
enum Framed {
    Fixed(CodeSpec),
    /// Tagged through the standard ladder's book, each frame on a rung
    /// of its own choosing, with or without a rung advertisement.
    Tagged {
        advert: bool,
    },
}

fn framings() -> Vec<Framed> {
    vec![
        Framed::Fixed(CodeSpec::None),
        Framed::Fixed(CodeSpec::Checksum { width: 1 }),
        Framed::Fixed(CodeSpec::Checksum { width: 4 }),
        Framed::Fixed(CodeSpec::Repetition { k: 3 }),
        Framed::Fixed(CodeSpec::Hamming74),
        Framed::Fixed(CodeSpec::Interleaved { depth: 16 }),
        Framed::Fixed(CodeSpec::Fountain { repair: 8 }),
        Framed::Fixed(CodeSpec::Oblivious),
        Framed::Tagged { advert: false },
        Framed::Tagged { advert: true },
    ]
}

fn ladder() -> Vec<CodeSpec> {
    AdaptiveConfig::standard(4, 1).ladder
}

/// Rounds the sends are spread over: past the first noisy phase of
/// `NoiseTrace::bursty` (rounds 31–60).
const ROUNDS: u64 = 90;

/// One send: its coordinates and the wire handed to the link.
type Sent = (u64, u8, Vec<u8>);

/// The send `pick` describes under `framed`: mostly a well-formed frame,
/// sometimes one with a byte already flipped, sometimes a handful of
/// raw bytes no endpoint would emit (zero-length and the 2- and 3-byte
/// pattern-frame sizes included).
fn sent(framed: Framed, pick: u64) -> Sent {
    let round = 1 + (pick >> 20) % ROUNDS;
    let copy = ((pick >> 3) % 3) as u8;
    if pick % 16 == 1 {
        let len = (pick >> 8) as usize % 6;
        return (round, copy, pick.to_le_bytes()[2..2 + len].to_vec());
    }
    let frame = Frame {
        round,
        sender: SENDER,
        copy,
        msg: pick,
    };
    let mut body = BytesMut::new();
    encode_body_into(&frame, &mut body);
    let mut wire = BytesMut::new();
    match framed {
        Framed::Fixed(spec) => spec.build().encode_into(&body, None, &mut wire),
        Framed::Tagged { advert } => {
            let specs = ladder();
            let id = ((pick >> 12) % specs.len() as u64) as u8;
            let advert = advert.then_some(RungAdvert {
                rung: id,
                epoch: (pick >> 16) as u8 % 16,
            });
            CodeBook::from_specs(&specs).encode_tagged(id, advert, None, &body, &mut wire);
        }
    }
    let mut wire: Vec<u8> = wire.into();
    if pick.is_multiple_of(4) {
        let at = (pick >> 32) as usize % wire.len();
        wire[at] ^= 1 << ((pick >> 40) % 8);
    }
    (round, copy, wire)
}

/// A sender-attributed frame, as a sink receives it.
type Arrival = (u32, Vec<u8>);

/// The receiving end: everything delivered, in order.
#[derive(Clone, Default)]
struct Tape(Arc<Mutex<Vec<Arrival>>>);

impl FrameSink for Tape {
    fn deliver(&self, sender: u32, frame: Vec<u8>) {
        self.0.lock().expect("no sink panics").push((sender, frame));
    }
}

/// Which entry drives the sequence.
#[derive(Clone, Copy)]
enum Entry {
    Owned,
    Borrowed,
}

/// Everything observable about one link's run.
#[derive(Debug, PartialEq)]
struct Observed {
    events: Vec<LinkEvent>,
    delivered: Vec<Arrival>,
    logged: usize,
    recording: RunRecording,
}

/// The code and book a link under `framed` is wired with.
fn wiring_codes(framed: Framed) -> (Arc<dyn ChannelCode>, Option<Arc<CodeBook>>) {
    match framed {
        Framed::Fixed(spec) => (spec.build(), None),
        Framed::Tagged { .. } => (
            CodeSpec::DEFAULT.build(),
            Some(Arc::new(CodeBook::from_specs(&ladder()))),
        ),
    }
}

/// Drives `sends` through a fresh link via `entry`, then four more
/// well-formed frames through the borrowed entry whichever `entry` is:
/// what they meet is decided by the RNG's next draws, so two links that
/// agree on them left the sequence in the same RNG state.
fn run(
    source: &Source,
    framed: Framed,
    seed: u64,
    sends: &[Sent],
    entry: Entry,
) -> (Observed, FaultLog) {
    let (faults, trace) = match source {
        Source::Model(faults) => (*faults, None),
        Source::Trace(trace) => (LinkFaults::NONE, Some(trace.clone())),
    };
    let (code, book) = wiring_codes(framed);
    let log = FaultLog::new();
    let telemetry = Telemetry::ring();
    let wiring = LinkWiring::new(faults, code, book, trace, log.clone(), telemetry.clone());
    let tape = Tape::default();
    let mut link = FaultyLink::new(
        SENDER,
        RECEIVER,
        Box::new(tape.clone()),
        seed,
        Arc::new(wiring),
    );
    let mut events: Vec<LinkEvent> = sends
        .iter()
        .map(|(round, copy, wire)| match entry {
            Entry::Owned => link.send(*round, *copy, wire.clone()),
            Entry::Borrowed => link.send_bytes(*round, *copy, wire),
        })
        .collect();
    for i in 0..4 {
        let (round, copy, wire) = sent(framed, 0xA5A5_0000 + 2 * i);
        events.push(link.send_bytes(round, copy, &wire));
    }
    drop(link);
    let delivered = std::mem::take(&mut *tape.0.lock().expect("no sink panics"));
    let observed = Observed {
        events,
        delivered,
        logged: log.len(),
        recording: telemetry.snapshot().expect("a ring recorder snapshots"),
    };
    (observed, log)
}

/// The `(round, sender, copy)` a receiver under `framed` parses from
/// `wire` — decoded here through the codes' public API, independently
/// of the link.
fn received_header(framed: Framed, wire: &[u8]) -> Option<(u64, u32, u8)> {
    let (code, book) = wiring_codes(framed);
    let body = match &book {
        Some(book) => book.decode_tagged(wire).0.ok()?.body,
        None => code.decode_scan(wire).outcome.ok()?.0,
    };
    (body.len() >= PAYLOAD_OFFSET).then(|| {
        (
            u64::from_le_bytes(body[0..8].try_into().expect("8 bytes")),
            u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")),
            body[12],
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn owned_and_borrowed_sends_are_one_fault_model(
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u64>(), 8..16),
    ) {
        for framed in framings() {
            let sends: Vec<Sent> = picks.iter().map(|&pick| sent(framed, pick)).collect();
            for (i, source) in sources(seed).iter().enumerate() {
                let (owned, owned_log) = run(source, framed, seed, &sends, Entry::Owned);
                let (borrowed, borrowed_log) = run(source, framed, seed, &sends, Entry::Borrowed);
                prop_assert_eq!(&owned, &borrowed, "source {} under {:?}", i, framed);

                // One telemetry event per send, carrying the wire
                // length handed in — the benchmark's wire-byte count.
                prop_assert_eq!(owned.recording.events.len(), owned.events.len());

                // Every undetected fault is logged, on both links,
                // under the header the receiver will decode.
                let mut frames = owned.delivered.iter();
                for (event, (round, copy, _)) in owned.events.iter().zip(&sends) {
                    if *event == LinkEvent::Dropped {
                        continue;
                    }
                    let (from, wire) = frames.next().expect("a frame per undropped send");
                    prop_assert_eq!(*from, SENDER);
                    if *event == LinkEvent::CorruptedUndetected {
                        let (r, s, c) =
                            received_header(framed, wire).unwrap_or((*round, SENDER, *copy));
                        let key = (r, s, RECEIVER, c);
                        prop_assert!(owned_log.was_corrupted(&key), "{:?}", key);
                        prop_assert!(borrowed_log.was_corrupted(&key), "{:?}", key);
                    }
                }
                let undetected = owned.events.iter().filter(|e| **e == LinkEvent::CorruptedUndetected);
                prop_assert!(owned.logged <= undetected.count(), "nothing else is logged");
            }
        }
    }
}
