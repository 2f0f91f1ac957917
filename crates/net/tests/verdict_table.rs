//! One noisy decode, same verdicts: the link judges a hit frame on a
//! single decode of what the receiver will see, and the outcome of every
//! case that decode order could touch is pinned here, row by row, from
//! the link as it stood when it decoded the clean image first and the
//! noisy image twice. The trace rows were searched again, with the same
//! rule, when trace noise moved to drawing per burst (v2): each is the
//! first round that lands its cell. When receivers began attributing a
//! frame to the link it came in on, a header miscorrected only in its
//! sender field (and copy byte) became a corrected delivery: those
//! header rows keep their bytes and now pin that verdict, and the key
//! of an undetected fault names the link's sender.
//!
//! A row is one `send` through the public path — fault source,
//! verdict, sink, fault log, telemetry — chosen (by search, once) so
//! that the source's flips land the frame in one cell of
//!
//! ```text
//!   { clean image decodable, pre-corrupted }
//! × { noisy image rejected, decodes equal, differs only in the copy
//!     byte, differs in payload, header miscorrected }
//! × { static rate-½ code, tagged book with advert }
//! ```
//!
//! The test recomputes each row's cell through the codes' public API,
//! independently of the link, so the table's coverage is checked and not
//! only claimed.

use bytes::BytesMut;
use heardof_coding::{
    AdaptiveConfig, ChannelCode, CodeBook, CodeSpec, GilbertElliott, NoisePhase, NoiseTrace,
    RungAdvert,
};
use heardof_engine::{encode_body_into, Frame, COPY_OFFSET};
use heardof_net::{
    Event, EventKind, FaultKey, FaultLog, FaultyLink, FrameSink, LinkEvent, LinkFaults, LinkWiring,
    Telemetry,
};
use std::sync::{Arc, Mutex};

const SENDER: u32 = 2;
const RECEIVER: u32 = 5;

/// How the endpoints frame wire bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Framed {
    /// Every frame under the static `Hamming74` code.
    Static,
    /// Tagged through the standard ladder's book on the given rung,
    /// carrying a rung advertisement.
    Tagged(u8),
}

/// What flips the frame's bits.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// The probabilistic model corrupting every frame physically, its
    /// 1–3 flips drawn from the link RNG this seed starts.
    Model(u64),
    /// A trace of one bursty phase under this seed.
    Trace(u64),
}

/// The clean image handed to the link.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Clean {
    Decodable,
    /// Two bits of one SECDED block flipped before the link sees it.
    Spoiled,
}

/// What the receiver makes of the delivered bytes, against the body the
/// sender intended.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Noisy {
    Rejected,
    Equal,
    CopyOnly,
    Payload,
    /// The round, sender or copy field differs, and nothing past them.
    Header,
}

struct Row {
    framed: Framed,
    source: Source,
    round: u64,
    copy: u8,
    clean: Clean,
    noisy: Noisy,
    // Pinned from the parent link.
    event: LinkEvent,
    kind: EventKind,
    delivered: &'static str,
    key: Option<FaultKey>,
}

fn ladder() -> Vec<CodeSpec> {
    AdaptiveConfig::standard(4, 1).ladder
}

fn codes(framed: Framed) -> (Arc<dyn ChannelCode>, Option<Arc<CodeBook>>) {
    match framed {
        Framed::Static => (CodeSpec::Hamming74.build(), None),
        Framed::Tagged(_) => (
            CodeSpec::DEFAULT.build(),
            Some(Arc::new(CodeBook::from_specs(&ladder()))),
        ),
    }
}

/// The body of the frame a row sends and its clean wire image.
fn frame(framed: Framed, round: u64, copy: u8) -> (Vec<u8>, Vec<u8>) {
    let frame = Frame {
        round,
        sender: SENDER,
        copy,
        msg: 0xC0FF_EE00_0000_0000u64 | round,
    };
    let mut body = BytesMut::new();
    encode_body_into(&frame, &mut body);
    let mut wire = BytesMut::new();
    match framed {
        Framed::Static => CodeSpec::Hamming74
            .build()
            .encode_into(&body, None, &mut wire),
        Framed::Tagged(id) => {
            let advert = Some(RungAdvert { rung: id, epoch: 3 });
            CodeBook::from_specs(&ladder()).encode_tagged(id, advert, None, &body, &mut wire);
        }
    }
    (body.to_vec(), wire.into())
}

/// The body a receiver under `framed` decodes from `wire`.
fn received(framed: Framed, wire: &[u8]) -> Option<Vec<u8>> {
    let (code, book) = codes(framed);
    match &book {
        Some(book) => Some(book.decode_tagged(wire).0.ok()?.body.into_owned()),
        None => Some(code.decode_scan(wire).outcome.ok()?.0.into_owned()),
    }
}

/// A sender-attributed frame, as a sink receives it.
type Arrival = (u32, Vec<u8>);

#[derive(Clone, Default)]
struct Tape(Arc<Mutex<Vec<Arrival>>>);

impl FrameSink for Tape {
    fn deliver(&self, sender: u32, frame: Vec<u8>) {
        self.0.lock().expect("no sink panics").push((sender, frame));
    }
}

/// Everything observable about the one send a row describes.
struct Observed {
    clean: Clean,
    noisy: Noisy,
    event: LinkEvent,
    delivered: Vec<u8>,
    log: FaultLog,
    emitted: Vec<Event>,
    wire_len: u64,
}

fn observe(framed: Framed, source: Source, round: u64, copy: u8, spoil: bool) -> Observed {
    let (body, mut wire) = frame(framed, round, copy);
    if spoil {
        let at = wire.len() - 7;
        wire[at] ^= 0x12;
    }
    let clean = match received(framed, &wire) {
        Some(_) => Clean::Decodable,
        None => Clean::Spoiled,
    };
    let (faults, trace) = match source {
        Source::Model(_) => (
            LinkFaults {
                corrupt_prob: 1.0,
                ..LinkFaults::NONE
            },
            None,
        ),
        Source::Trace(seed) => {
            let phase = NoisePhase {
                rounds: 1,
                channel: GilbertElliott::bursty(),
            };
            (LinkFaults::NONE, Some(NoiseTrace::new(seed, vec![phase])))
        }
    };
    let link_seed = match source {
        Source::Model(seed) => seed,
        Source::Trace(_) => 0,
    };
    let (code, book) = codes(framed);
    let log = FaultLog::new();
    let telemetry = Telemetry::ring();
    let wiring = LinkWiring::new(faults, code, book, trace, log.clone(), telemetry.clone());
    let tape = Tape::default();
    let mut link = FaultyLink::new(
        SENDER,
        RECEIVER,
        Box::new(tape.clone()),
        link_seed,
        Arc::new(wiring),
    );
    let event = link.send(round, copy, wire.clone());
    drop(link);
    let mut arrivals = std::mem::take(&mut *tape.0.lock().expect("no sink panics"));
    assert_eq!(arrivals.len(), 1, "neither source drops");
    let (from, delivered) = arrivals.remove(0);
    assert_eq!(from, SENDER);
    let noisy = match received(framed, &delivered) {
        None => Noisy::Rejected,
        Some(got) if got == body => Noisy::Equal,
        Some(got) if got.len() != body.len() => Noisy::Payload,
        Some(got) => {
            let differs = |range: std::ops::Range<usize>| got[range.clone()] != body[range];
            if differs(0..COPY_OFFSET) {
                Noisy::Header
            } else if differs(COPY_OFFSET + 1..body.len()) {
                Noisy::Payload
            } else {
                Noisy::CopyOnly
            }
        }
    };
    Observed {
        clean,
        noisy,
        event,
        delivered,
        log,
        emitted: telemetry
            .snapshot()
            .expect("a ring recorder snapshots")
            .events,
        wire_len: wire.len() as u64,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

use Clean::{Decodable, Spoiled};
use Framed::{Static, Tagged};
use LinkEvent::{CorruptedCorrected, CorruptedDetectable, CorruptedUndetected};
use Source::{Model, Trace};

#[rustfmt::skip]
const TABLE: &[Row] = &[
    Row { framed: Static, source: Model(0), round: 9, copy: 0, clean: Decodable, noisy: Noisy::Equal, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "9900000000000000000000000000000033000000000000000080960000000000100099000000000000000000f0f0ffff00c3", key: None },
    Row { framed: Static, source: Model(65), round: 9, copy: 1, clean: Decodable, noisy: Noisy::Rejected, event: CorruptedDetectable, kind: EventKind::LinkDetected, delivered: "9900000000000000000000000000000033000000000000000f00960000000000000099000000000000000000d1f2ffff00c3", key: None },
    Row { framed: Static, source: Model(9523), round: 9, copy: 1, clean: Decodable, noisy: Noisy::Header, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "990000000000000000000000000000003300a200000000000f00960000000000000099000000000000000000f0f0ffff00c3", key: None },
    Row { framed: Static, source: Model(10678), round: 9, copy: 0, clean: Decodable, noisy: Noisy::Payload, event: CorruptedUndetected, kind: EventKind::LinkUndetected, delivered: "9900000000000000000000000000000033000000000000000000965400000000000099000000000000000000f0f0ffff00c3", key: Some((9, 2, 5, 0)) },
    Row { framed: Static, source: Model(58318), round: 9, copy: 0, clean: Decodable, noisy: Noisy::CopyOnly, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "9900000000000000000000000000000033000000000000000031960000000000000099000000000000000000f0f0ffff00c3", key: None },
    Row { framed: Static, source: Trace(1), round: 38, copy: 1, clean: Decodable, noisy: Noisy::Equal, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "6633000000000000000000000000000033000000000002000f00960000000000000066330000000000000000f0f0ffff00c3", key: None },
    Row { framed: Static, source: Trace(1), round: 1, copy: 1, clean: Decodable, noisy: Noisy::Rejected, event: CorruptedDetectable, kind: EventKind::LinkDetected, delivered: "1200000000000000000000000000000033000000000000000f0096000000000000000f000000000000000000f0f0ffff00c3", key: None },
    Row { framed: Static, source: Trace(1), round: 10, copy: 1, clean: Decodable, noisy: Noisy::Payload, event: CorruptedUndetected, kind: EventKind::LinkUndetected, delivered: "a5000000000000000000000000000000330000000000000007009600000000000000a50000000000800b0000f0f0ffff00c3", key: Some((10, 2, 5, 1)) },
    Row { framed: Static, source: Trace(1), round: 8, copy: 1, clean: Decodable, noisy: Noisy::Header, event: CorruptedUndetected, kind: EventKind::LinkUndetected, delivered: "960000000000000000000000000000003300000000007332320096000000000000009600000000963b000000f0f0ffff00c3", key: Some((8, 2, 5, 2)) },
    Row { framed: Static, source: Trace(1), round: 197, copy: 1, clean: Decodable, noisy: Noisy::CopyOnly, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "5ac300000000000000000000000000003300000000000020c42596000000000000005ac30000000000000000f0f0ffff00c3", key: None },
    Row { framed: Static, source: Model(0), round: 9, copy: 0, clean: Spoiled, noisy: Noisy::Rejected, event: CorruptedDetectable, kind: EventKind::LinkDetected, delivered: "9900000000000000000000000000000033000000000000000080960000000000100099000000000000000012f0f0ffff00c3", key: None },
    Row { framed: Static, source: Model(26), round: 9, copy: 0, clean: Spoiled, noisy: Noisy::Payload, event: CorruptedDetectable, kind: EventKind::LinkDetected, delivered: "9900000000000000000000000000000033000000000000000010960000000000000099000000000000000192f0f0ffff00c3", key: None },
    Row { framed: Static, source: Trace(1), round: 1, copy: 1, clean: Spoiled, noisy: Noisy::Rejected, event: CorruptedDetectable, kind: EventKind::LinkDetected, delivered: "1200000000000000000000000000000033000000000000000f0096000000000000000f000000000000000012f0f0ffff00c3", key: None },
    Row { framed: Static, source: Trace(1), round: 145, copy: 1, clean: Spoiled, noisy: Noisy::Header, event: CorruptedDetectable, kind: EventKind::LinkDetected, delivered: "0f99000000000000b00100000000000033000000000000000f1c96000000000000000f990000000000000092f0f0ffff00c3", key: None },
    Row { framed: Tagged(1), source: Model(0), round: 9, copy: 0, clean: Decodable, noisy: Noisy::Equal, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "81999900000000000000000000000000000033000000000000000000960000000000000089800000000000000000f0f0ffff00c3", key: None },
    Row { framed: Tagged(1), source: Model(1), round: 9, copy: 1, clean: Decodable, noisy: Noisy::Rejected, event: CorruptedDetectable, kind: EventKind::LinkDetected, delivered: "81999900000000000000000000000000000033000000000000000f00960000010060000099000000000000000000f0f0ffff00c3", key: None },
    Row { framed: Tagged(1), source: Model(377), round: 9, copy: 1, clean: Decodable, noisy: Noisy::Header, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "819999000000000000000000000000000000330000002c0000000f00960000000000000099000000000000000000f0f0ffff00c3", key: None },
    Row { framed: Tagged(1), source: Model(1298), round: 9, copy: 0, clean: Decodable, noisy: Noisy::Payload, event: CorruptedUndetected, kind: EventKind::LinkUndetected, delivered: "81999900000000000000000000000000000033000000000000000000960000000000000099000000000000a10000f0f0ffff00c3", key: Some((9, 2, 5, 0)) },
    Row { framed: Tagged(1), source: Model(146968), round: 9, copy: 0, clean: Decodable, noisy: Noisy::CopyOnly, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "81999900000000000000000000000000000033000000000000004600960000000000000099000000000000000000f0f0ffff00c3", key: None },
    Row { framed: Tagged(1), source: Trace(1), round: 38, copy: 1, clean: Decodable, noisy: Noisy::Equal, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "81996633000000000000000000000000000033000000020000000f00960000000000000066330000000000000000f0f0ffff00c3", key: None },
    Row { framed: Tagged(1), source: Trace(1), round: 1, copy: 1, clean: Decodable, noisy: Noisy::Rejected, event: CorruptedDetectable, kind: EventKind::LinkDetected, delivered: "9c990f00000000000000000000000000000033000000000000000f0096000000000000000f000000000000000000f0f0ffff00c3", key: None },
    Row { framed: Tagged(1), source: Trace(1), round: 10, copy: 1, clean: Decodable, noisy: Noisy::Payload, event: CorruptedUndetected, kind: EventKind::LinkUndetected, delivered: "8199a500000000000000000000000000000033000000000008000f009600000000000000a5000000800b00000000f0f0ffff00c3", key: Some((10, 2, 5, 1)) },
    Row { framed: Tagged(1), source: Trace(1), round: 8, copy: 1, clean: Decodable, noisy: Noisy::Header, event: CorruptedUndetected, kind: EventKind::LinkUndetected, delivered: "8199960000000000000000000000000000003300000073323d000f009600000000000000960000963b0000000000f0f0ffff00c3", key: Some((8, 2, 5, 1)) },
    Row { framed: Tagged(1), source: Trace(1), round: 439, copy: 1, clean: Decodable, noisy: Noisy::CopyOnly, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "819969aa0f0000000000000000000000000033000000000000000800960000000000000069aa0f00000000000000f0f0ffff00c3", key: None },
    Row { framed: Tagged(1), source: Model(0), round: 9, copy: 0, clean: Spoiled, noisy: Noisy::Rejected, event: CorruptedDetectable, kind: EventKind::LinkDetected, delivered: "81999900000000000000000000000000000033000000000000000000960000000000000089800000000000000012f0f0ffff00c3", key: None },
    Row { framed: Tagged(1), source: Model(58), round: 9, copy: 0, clean: Spoiled, noisy: Noisy::Payload, event: CorruptedDetectable, kind: EventKind::LinkDetected, delivered: "81999900000000000000000000000000000033000000000000000000960000200000000099000000000000000092f0f0ffff02c3", key: None },
    Row { framed: Tagged(1), source: Trace(1), round: 1, copy: 1, clean: Spoiled, noisy: Noisy::Rejected, event: CorruptedDetectable, kind: EventKind::LinkDetected, delivered: "9c990f00000000000000000000000000000033000000000000000f0096000000000000000f000000000000000012f0f0ffff00c3", key: None },
    Row { framed: Tagged(1), source: Trace(1), round: 33, copy: 1, clean: Spoiled, noisy: Noisy::Payload, event: CorruptedDetectable, kind: EventKind::LinkDetected, delivered: "81990f33000000000000000000000000000033000000000000000f0096000000000000000f3300000000000000eaf1f0ffff00c3", key: None },
    Row { framed: Tagged(2), source: Model(0), round: 9, copy: 0, clean: Decodable, noisy: Noisy::Equal, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "829a01880088008021802188008000c021c020c000410001000000010000004000410040104000c0004000400040004400c000c0", key: None },
    Row { framed: Tagged(2), source: Model(9), round: 9, copy: 1, clean: Decodable, noisy: Noisy::Rejected, event: CorruptedDetectable, kind: EventKind::LinkDetected, delivered: "829a01880088008021802188008000c021c020c00041000100000001000000400441004084c080c0804080400040004400c000c0", key: None },
    Row { framed: Tagged(2), source: Model(24858), round: 9, copy: 0, clean: Decodable, noisy: Noisy::Header, event: CorruptedUndetected, kind: EventKind::LinkUndetected, delivered: "829a01880088008021802188008000c021c020c00041000100000001000000400041004008c000c0084008400040004400c000c0", key: Some((246290604621833, 2, 5, 0)) },
    Row { framed: Tagged(2), source: Model(26526), round: 9, copy: 0, clean: Decodable, noisy: Noisy::CopyOnly, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "829a01880088008021802188008000c021c020c00041000100000001000000400041004000c080c0804000408040004400c000c0", key: None },
    Row { framed: Tagged(2), source: Model(27409), round: 9, copy: 1, clean: Decodable, noisy: Noisy::Payload, event: CorruptedUndetected, kind: EventKind::LinkUndetected, delivered: "829a01880088008021802188008000c021c020c00041000100000001000000400043004080c280c0804080420040004400c000c0", key: Some((9, 2, 5, 1)) },
    Row { framed: Tagged(2), source: Trace(1), round: 5, copy: 1, clean: Decodable, noisy: Noisy::Equal, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "829a0088018800802188e9c5008001c020c020c02042000100000001000000400041004080c090c0804080400040004000c400c0", key: None },
    Row { framed: Tagged(2), source: Trace(1), round: 1, copy: 1, clean: Decodable, noisy: Noisy::Rejected, event: CorruptedDetectable, kind: EventKind::LinkDetected, delivered: "9f9a01880180018021802080008000c020c020c00041000100000001000000400041004080c080c0804080400040004400c400c4", key: None },
    Row { framed: Tagged(2), source: Trace(1), round: 451, copy: 1, clean: Decodable, noisy: Noisy::Payload, event: CorruptedUndetected, kind: EventKind::LinkUndetected, delivered: "829a60880088018821802180018800c820c021c001410001000800d9028895ea0349014881c081c0814080400040004000c000c4", key: Some((451, 2, 5, 1)) },
    Row { framed: Tagged(2), source: Trace(1), round: 7928, copy: 1, clean: Decodable, noisy: Noisy::CopyOnly, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "829a02800388038020812188008800c821c821c801490109010801090100014001410040401e80c88048814881490148a1cc01cc", key: None },
    Row { framed: Tagged(2), source: Trace(1), round: 342, copy: 1, clean: Decodable, noisy: Noisy::Header, event: CorruptedCorrected, kind: EventKind::LinkCorrected, delivered: "829a00800180018820882080018001c820c020c881a58a0001080101800801480049014881c081c0814080400040004000c40094", key: None },
];

#[test]
fn every_cell_keeps_the_parent_verdict_bytes_key_and_event() {
    for (i, row) in TABLE.iter().enumerate() {
        let spoil = row.clean == Spoiled;
        let seen = observe(row.framed, row.source, row.round, row.copy, spoil);
        let what = format!(
            "row {i}: {:?} {:?} round {}",
            row.framed, row.source, row.round
        );
        assert_eq!(
            (seen.clean, seen.noisy),
            (row.clean, row.noisy),
            "{what}: cell"
        );
        assert_eq!(seen.event, row.event, "{what}: verdict");
        assert_eq!(
            hex(&seen.delivered),
            row.delivered,
            "{what}: delivered bytes"
        );
        assert_eq!(
            seen.log.len(),
            usize::from(row.key.is_some()),
            "{what}: log size"
        );
        if let Some(key) = &row.key {
            assert!(seen.log.was_corrupted(key), "{what}: log key {key:?}");
        }
        let event = Event::link(row.kind, row.round, RECEIVER, SENDER, seen.wire_len);
        assert_eq!(seen.emitted, vec![event], "{what}: telemetry");
    }
}

#[test]
fn the_table_covers_every_cell() {
    for tagged in [false, true] {
        let has = |clean: Clean, noisy: &[Noisy]| {
            TABLE.iter().any(|row| {
                matches!(row.framed, Tagged(_)) == tagged
                    && row.clean == clean
                    && noisy.contains(&row.noisy)
            })
        };
        let decoded = [Noisy::Equal, Noisy::CopyOnly, Noisy::Payload, Noisy::Header];
        assert!(has(Decodable, &[Noisy::Rejected]), "tagged {tagged}");
        for noisy in decoded {
            assert!(has(Decodable, &[noisy]), "tagged {tagged}: {noisy:?}");
        }
        // Nothing a pre-corrupted frame's noisy image decodes to is
        // compared with anything: it is rejected, or it decodes.
        assert!(has(Spoiled, &[Noisy::Rejected]), "tagged {tagged}");
        assert!(has(Spoiled, &decoded), "tagged {tagged}");
    }
}
