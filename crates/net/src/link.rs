//! Faulty point-to-point links: the fault model between an engine's
//! wire arena and a receiver's inbox.
//!
//! Faults are injected at the *bit* level on coded wire frames, the way
//! a real lossy/corrupting medium would behave:
//!
//! * with `drop_prob` the frame vanishes (omission),
//! * with `corrupt_prob` wire bits are flipped; what the receiver then
//!   experiences is the **channel code's** decision — repaired
//!   ([`LinkEvent::CorruptedCorrected`]), rejected
//!   ([`LinkEvent::CorruptedDetectable`], an effective omission), or
//!   silently wrong ([`LinkEvent::CorruptedUndetected`], a value
//!   fault);
//! * with `undetected_prob` (conditional on corruption) the corruption
//!   is *adversarial*: the payload is altered and the frame re-encoded
//!   consistently, so **no** code can catch it — the §5.2 coverage gap
//!   made explicit.
//!
//! Every *undetected* corruption is appended to a shared [`FaultLog`],
//! so the runtime can reconstruct exact `SHO` sets after the fact
//! (processes themselves can never know them — §2.1).
//!
//! What the `n·(n−1)` links of a run have in common — fault model,
//! code, book, trace, log, telemetry plane — is one [`LinkWiring`]
//! block, built once per run. A link's own part is its fault model: two
//! ids, an RNG stream and a scratch buffer, with **one** fault-decision
//! body that hands what reaches the receiver to a generic delivery
//! closure. Both production substrates drive bare fault models: the
//! lockstep stepper appends into the arenas it owns, the threaded
//! runtime into one outbox arena per peer. A frame crosses a link
//! **borrowed**: one that nothing hits is delivered as the very slice
//! the engine emitted, and only a frame a fault source hits is copied —
//! into the link's scratch, where it is corrupted while the borrowed
//! input stays the pristine image the verdict is judged against. Under
//! a seeded trace the pattern is drawn before anything is copied
//! ([`NoiseTrace::corrupt_copy`]), and a link whose fault model cannot
//! fire draws nothing at all. A [`FaultyLink`] is a fault model plus a
//! boxed [`FrameSink`] taking owned frames: the entry for callers
//! outside this crate, which no production path uses.
//!
//! A hit frame is judged on **one decode of its noisy image** — what
//! the receiver will see. A noisy image that does not decode is a
//! detected omission whatever the clean body was; only one that does
//! decode pays for the clean decode it is compared with. An undetected
//! fault is keyed in the [`FaultLog`] by the link's two ends and by the
//! round and copy read off that same noisy body.

use bytes::{BufMut, BytesMut};
use heardof_coding::{BitNoise, ChannelCode, CodeBook, NoiseTrace, RungAdvert};
use heardof_engine::{COPY_OFFSET, PAYLOAD_OFFSET};
use heardof_telemetry::{Event, EventKind, Telemetry};
use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

/// The receiving end a [`FaultyLink`] delivers into: what callers
/// outside this crate plug in. Neither production substrate has one —
/// their links deliver straight into arenas. Delivery must never block
/// — a link models a wire, not flow control.
///
/// Frames are attributed to the link's sending process. The attribution
/// is a property of the *link*, not the bytes — the one fact a
/// content-rewriting adversary cannot touch, and what the
/// content-oblivious count channel decodes by
/// ([`RoundEngine::ingest_from`](heardof_engine::RoundEngine)).
pub trait FrameSink: Send {
    /// Hands over one (possibly corrupted) wire frame.
    fn deliver(&self, sender: u32, frame: Vec<u8>);
}

/// Probabilities governing one link's behaviour.
#[derive(Clone, Copy, Debug)]
pub struct LinkFaults {
    /// Probability a frame is dropped outright.
    pub drop_prob: f64,
    /// Probability a frame's bits are corrupted in flight.
    pub corrupt_prob: f64,
    /// Probability a corruption is *adversarial* — applied to the
    /// payload and re-encoded consistently, defeating any channel code —
    /// conditional on corruption happening. `1 − undetected_prob` is the
    /// fraction of corruption left for the code to catch or repair.
    pub undetected_prob: f64,
}

impl LinkFaults {
    /// Perfect links.
    pub const NONE: LinkFaults = LinkFaults {
        drop_prob: 0.0,
        corrupt_prob: 0.0,
        undetected_prob: 0.0,
    };

    /// Validates that all fields are probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any field lies outside `[0, 1]`.
    fn validated(self) -> Self {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("undetected_prob", self.undetected_prob),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be a probability, got {p}"
            );
        }
        self
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::NONE
    }
}

/// A record of one undetected corruption, keyed by
/// `(round, sender, receiver, copy)`.
pub type FaultKey = (u64, u32, u32, u8);

/// Shared log of undetected corruptions (for post-run `SHO` derivation).
#[derive(Clone, Debug, Default)]
pub struct FaultLog {
    inner: Arc<Mutex<HashSet<FaultKey>>>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an undetected corruption.
    pub fn record(&self, key: FaultKey) {
        self.inner.lock().insert(key);
    }

    /// `true` if the given delivery was corrupted undetected.
    pub fn was_corrupted(&self, key: &FaultKey) -> bool {
        self.inner.lock().contains(key)
    }

    /// Number of undetected corruptions recorded.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// The recorded keys under one lock — for a join that would
    /// otherwise lock once per lookup.
    pub(crate) fn keys(&self) -> MutexGuard<'_, HashSet<FaultKey>> {
        self.inner.lock()
    }
}

/// What every link of one run shares, built once and held behind one
/// `Arc`: the validated fault model, the framing the endpoints use
/// (static code, or tagged book), the optional trace, the fault log and
/// the telemetry plane.
pub struct LinkWiring {
    faults: LinkFaults,
    pub(crate) code: Arc<dyn ChannelCode>,
    /// When set, frames are tagged with a 1-byte code id and all
    /// decode/classify operations go through the book (adaptive runs):
    /// mixed epochs decode exactly.
    pub(crate) book: Option<Arc<CodeBook>>,
    /// When set, corruption is driven by the seeded trace instead of
    /// the probabilistic `faults` model: every frame's flip pattern is
    /// a pure function of `(round, sender, receiver, copy, length)`, so
    /// a simulator applying the same trace to the same bytes reproduces
    /// the link bit-for-bit — the conformance-harness mode. `drop_prob`
    /// and the adversarial mode are not consulted, and no link RNG is
    /// drawn from.
    pub(crate) trace: Option<NoiseTrace>,
    pub(crate) log: FaultLog,
    /// Every link's verdict on a frame is mirrored as a
    /// link-plane event stamped with `(round, receiver, sender, wire
    /// length)`, so flight recordings carry the exact per-link history
    /// the [`FaultLog`] only keeps for undetected faults.
    pub(crate) telemetry: Telemetry,
}

impl LinkWiring {
    /// Assembles the shared block. `code` must match what the endpoints
    /// use to frame wire bytes (ignored for framing when `book` is set).
    ///
    /// # Panics
    ///
    /// Panics if any field of `faults` lies outside `[0, 1]`.
    pub fn new(
        faults: LinkFaults,
        code: Arc<dyn ChannelCode>,
        book: Option<Arc<CodeBook>>,
        trace: Option<NoiseTrace>,
        log: FaultLog,
        telemetry: Telemetry,
    ) -> Self {
        LinkWiring {
            faults: faults.validated(),
            code,
            book,
            trace,
            log,
            telemetry,
        }
    }

    /// Decodes `wire` through whichever framing is in force, keeping
    /// the epoch id and advert a tagged frame names (0 and none under
    /// the static code).
    fn decode_parts<'a>(&self, wire: &'a [u8]) -> Option<(u8, Option<RungAdvert>, Cow<'a, [u8]>)> {
        match &self.book {
            Some(book) => {
                let tagged = book.decode_tagged(wire).0.ok()?;
                Some((tagged.code_id, tagged.advert, tagged.body))
            }
            None => {
                let (body, _) = self.code.decode_scan(wire).outcome.ok()?;
                Some((0, None, body))
            }
        }
    }

    /// The body `wire` decodes to through whichever framing is in force.
    fn decode_any<'a>(&self, wire: &'a [u8]) -> Option<Cow<'a, [u8]>> {
        self.decode_parts(wire).map(|(_, _, body)| body)
    }

    /// The verdict on a frame noise has hit, from one decode of `noisy`
    /// — what the receiver will see. A noisy image that does not decode
    /// is a detected omission whatever `pristine` held; only one that
    /// does pays for the clean decode it is compared with. A fault that
    /// slips through is logged from that same noisy decode.
    fn judge(&self, pristine: &[u8], noisy: &[u8], sent: FaultKey) -> LinkEvent {
        let Some(after) = self.decode_any(noisy) else {
            return LinkEvent::CorruptedDetectable;
        };
        // Pre-corrupted input (not produced by our runtime): the
        // receiver was never going to get this frame's content.
        let Some(body) = self.decode_any(pristine) else {
            return LinkEvent::CorruptedDetectable;
        };
        // The header's sender field and retransmission-copy byte are
        // bookkeeping, not message content: the receiver attributes an
        // image to the link it came in on, so it still gets the
        // intended (round, payload) from the intended sender, or — a
        // sender naming no process — drops the image as garbage. Either
        // way this is not an α-counted fault, and it is exactly what an
        // abstract-message substrate observes for the same noise.
        if *after == *body || differs_only_in_attribution(&body, &after) {
            return LinkEvent::CorruptedCorrected;
        }
        self.log_undetected(&after, sent);
        LinkEvent::CorruptedUndetected
    }

    /// Records an undetected corruption under the link's own sender
    /// and receiver, with the round and copy the receiver will parse
    /// from the `delivered` body rather than the sender's intent: under
    /// a rate<1 code, noise can (rarely) miscorrect header bits too, and
    /// the reconstruction joins on the receiver's view. The receiver
    /// attributes an image to its link too ([`RoundEngine::ingest_from`]),
    /// so a miscorrected sender field marks this link's frame, never
    /// another sender's. A body too short to hold a header is logged as
    /// `sent`.
    ///
    /// [`RoundEngine::ingest_from`]: heardof_engine::RoundEngine
    fn log_undetected(&self, delivered: &[u8], sent: FaultKey) {
        let seen = || {
            let header = delivered.first_chunk::<PAYLOAD_OFFSET>()?;
            let round = u64::from_le_bytes(*header.first_chunk()?);
            Some((round, sent.1, sent.2, header[COPY_OFFSET]))
        };
        self.log.record(seen().unwrap_or(sent));
    }
}

/// The fault model of one link `sender → receiver`, without a
/// receiving end: its two ids, its RNG stream, a scratch buffer and the
/// run's [`LinkWiring`]. [`LinkModel::send`] hands whatever reaches the
/// receiver to a delivery closure; both production substrates drive
/// them bare, appending into arenas, and a [`FaultyLink`] is one of
/// these plus a [`FrameSink`].
pub(crate) struct LinkModel {
    sender_id: u32,
    pub(crate) receiver_id: u32,
    rng: StdRng,
    /// Where a frame a fault source hits is corrupted; reused from
    /// frame to frame.
    scratch: BytesMut,
    wiring: Arc<LinkWiring>,
}

impl LinkModel {
    /// The fault model of link `sender → receiver` of the run `wiring`
    /// describes, with deterministic per-link randomness derived from
    /// `seed` — the same stream on every substrate.
    pub(crate) fn new(sender: u32, receiver: u32, seed: u64, wiring: Arc<LinkWiring>) -> Self {
        // Distinct, deterministic stream per ordered pair.
        let link_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((sender as u64) << 32 | receiver as u64);
        LinkModel {
            sender_id: sender,
            receiver_id: receiver,
            rng: StdRng::seed_from_u64(link_seed),
            scratch: BytesMut::new(),
            wiring,
        }
    }

    /// Sends an encoded frame through the fault model and hands what
    /// reaches the receiver, if anything, to `deliver`: `encoded`
    /// itself when nothing touched it, a borrow of the link's scratch
    /// when something did. Emits the verdict as a
    /// link-plane event and returns it.
    pub(crate) fn send(
        &mut self,
        round: u64,
        copy: u8,
        encoded: Cow<'_, [u8]>,
        deliver: impl FnOnce(Cow<'_, [u8]>),
    ) -> LinkEvent {
        let wire_len = encoded.len() as u64;
        let event = self.inject(round, copy, encoded, deliver);
        self.wiring.telemetry.emit(Event::link(
            event.telemetry_kind(),
            round,
            self.receiver_id,
            self.sender_id,
            wire_len,
        ));
        event
    }

    /// The one fault-decision body.
    fn inject(
        &mut self,
        round: u64,
        copy: u8,
        pristine: Cow<'_, [u8]>,
        deliver: impl FnOnce(Cow<'_, [u8]>),
    ) -> LinkEvent {
        let wiring = &*self.wiring;
        let sent = (round, self.sender_id, self.receiver_id, copy);
        let noisy = &mut self.scratch;
        if let Some(trace) = &wiring.trace {
            // The link's own RNG is never consulted, so the outcome is a
            // pure function of the trace and the bytes — reproducible by
            // any substrate.
            let (sender, receiver) = (self.sender_id, self.receiver_id);
            if trace.corrupt_copy(round, sender, receiver, copy, &pristine, noisy) == 0 {
                deliver(pristine);
                return LinkEvent::Delivered;
            }
            let event = wiring.judge(&pristine, noisy, sent);
            deliver(Cow::Borrowed(noisy));
            return event;
        }
        // With no drop and no corruption possible, `undetected_prob` is
        // never consulted either: the frame goes through without a draw.
        let faults = wiring.faults;
        if faults.drop_prob == 0.0 && faults.corrupt_prob == 0.0 {
            deliver(pristine);
            return LinkEvent::Delivered;
        }
        if self.rng.gen_bool(faults.drop_prob) {
            return LinkEvent::Dropped;
        }
        if !self.rng.gen_bool(faults.corrupt_prob) {
            deliver(pristine);
            return LinkEvent::Delivered;
        }
        // The model hits this frame: it works on a copy, and `pristine`
        // stays what the verdict is judged against.
        noisy.clear();
        noisy.put_slice(&pristine);
        let event = if self.rng.gen_bool(faults.undetected_prob) {
            forge(wiring, &mut self.rng, &pristine, noisy, sent)
        } else if flip_physically(&mut self.rng, noisy) {
            wiring.judge(&pristine, noisy, sent)
        } else {
            LinkEvent::Delivered
        };
        deliver(Cow::Borrowed(noisy));
        event
    }
}

/// The sending half of a faulty link from one process to another: its
/// fault model and the [`FrameSink`] it delivers into.
pub struct FaultyLink {
    pub(crate) model: LinkModel,
    pub(crate) tx: Box<dyn FrameSink>,
}

impl FaultyLink {
    /// Builds the link `sender_id → receiver_id` of the run `wiring`
    /// describes, delivering into `tx`, with deterministic per-link
    /// randomness derived from `seed` — the same stream on every
    /// substrate.
    pub fn new(
        sender_id: u32,
        receiver_id: u32,
        tx: Box<dyn FrameSink>,
        seed: u64,
        wiring: Arc<LinkWiring>,
    ) -> Self {
        let model = LinkModel::new(sender_id, receiver_id, seed, wiring);
        FaultyLink { model, tx }
    }

    /// Sends an encoded frame through the fault model and hands what
    /// reaches the receiver to the sink: an untouched frame as the very
    /// `Vec` passed in, a hit one as a copy of the link's noisy image.
    /// Returns what happened (mostly for tests and statistics).
    pub fn send(&mut self, round: u64, copy: u8, encoded: Vec<u8>) -> LinkEvent {
        let (sender, tx) = (self.model.sender_id, &self.tx);
        self.model.send(round, copy, Cow::Owned(encoded), |frame| {
            tx.deliver(sender, frame.into_owned())
        })
    }
}

/// Code-consistent corruption: alter payload bytes of the body
/// `pristine` decodes to and re-encode into `forged` (under the *same*
/// code epoch, preserving any piggybacked rung advertisement, for
/// tagged framing), so the receiver's decoder validates the forgery. No
/// code catches this — it is the residual the `α` budget exists for.
/// `forged` holds a copy of `pristine` on entry and keeps it when there
/// is nothing to forge.
fn forge(
    wiring: &LinkWiring,
    rng: &mut StdRng,
    pristine: &[u8],
    forged: &mut BytesMut,
    sent: FaultKey,
) -> LinkEvent {
    // Decode through the framing in force, remembering the epoch id
    // (and advert) so the forgery is re-encoded consistently.
    let Some((id, advert, body)) = wiring.decode_parts(pristine) else {
        // Pre-corrupted input (not produced by our runtime): leave it.
        return LinkEvent::CorruptedDetectable;
    };
    let mut body = body.into_owned();
    if body.len() <= PAYLOAD_OFFSET {
        return LinkEvent::Delivered; // nothing to forge
    }
    let flips = rng.gen_range(1..=3usize);
    for _ in 0..flips {
        let idx = rng.gen_range(PAYLOAD_OFFSET..body.len());
        // Guarantee a real change.
        let mask = rng.gen_range(1..=255u8);
        body[idx] ^= mask;
    }
    forged.clear();
    match &wiring.book {
        Some(book) => book.encode_tagged(id, advert, None, &body, forged),
        None => wiring.code.encode_into(&body, None, forged),
    }
    wiring.log_undetected(&body, sent);
    LinkEvent::CorruptedUndetected
}

/// Physical noise: flip 1–3 wire bits past the first header-sized
/// prefix and let the channel code decide the outcome; `false` when the
/// frame has no corruptible region. (Sparing the prefix keeps frame
/// routing intact for every rate-1 code; under a rate<1 code the
/// header's encoded image extends further and can still be hit — the
/// fault log is keyed by the header the receiver will actually decode,
/// so `HO`/`SHO` reconstruction stays exact either way.)
fn flip_physically(rng: &mut StdRng, wire: &mut [u8]) -> bool {
    if wire.len() <= PAYLOAD_OFFSET {
        return false;
    }
    let flips = rng.gen_range(1..=3usize);
    BitNoise::flip_exact(&mut wire[PAYLOAD_OFFSET..], flips, rng);
    true
}

/// `true` when two frame bodies agree everywhere except the sender
/// field and the retransmission-copy byte right after it, which carry
/// no message semantics for a receiver that attributes by link.
fn differs_only_in_attribution(a: &[u8], b: &[u8]) -> bool {
    const SENDER_OFFSET: usize = COPY_OFFSET - 4;
    a.len() == b.len()
        && a.len() > COPY_OFFSET
        && a[..SENDER_OFFSET] == b[..SENDER_OFFSET]
        && a[COPY_OFFSET + 1..] == b[COPY_OFFSET + 1..]
}

/// What the fault model did to one frame.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum LinkEvent {
    /// Delivered intact.
    Delivered,
    /// Dropped (omission).
    Dropped,
    /// Corrupted, but the channel code repaired it in flight — the
    /// receiver experiences a clean delivery.
    CorruptedCorrected,
    /// Corrupted and the code will detect it (effective omission).
    CorruptedDetectable,
    /// Corrupted without detection (value fault).
    CorruptedUndetected,
}

impl LinkEvent {
    /// The link-plane [`EventKind`] mirroring this verdict — the single
    /// mapping every substrate uses, so flight recordings agree on what
    /// each wire outcome is called.
    fn telemetry_kind(self) -> EventKind {
        match self {
            LinkEvent::Delivered => EventKind::LinkDelivered,
            LinkEvent::Dropped => EventKind::LinkDropped,
            LinkEvent::CorruptedCorrected => EventKind::LinkCorrected,
            LinkEvent::CorruptedDetectable => EventKind::LinkDetected,
            LinkEvent::CorruptedUndetected => EventKind::LinkUndetected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_coding::CodeSpec;
    use heardof_engine::{encode_body_into, Frame, Framing};
    use std::sync::mpsc::{channel, Sender};

    impl FrameSink for Sender<(u32, Vec<u8>)> {
        fn deliver(&self, sender: u32, frame: Vec<u8>) {
            let _ = self.send((sender, frame));
        }
    }

    /// `frame` on the wire as an endpoint under `framing` sends it.
    fn wire(framing: &Framing, frame: &Frame<u64>) -> Vec<u8> {
        let mut body = BytesMut::new();
        encode_body_into(frame, &mut body);
        let mut wire = BytesMut::new();
        framing.encode_raw_into(&body, &mut wire);
        wire.into()
    }

    /// The frame an endpoint under `framing` receives from `bytes`.
    fn decoded(framing: &Framing, bytes: &[u8]) -> Option<Frame<u64>> {
        framing.decode_scan(bytes).frame.map(|(frame, _, _)| frame)
    }

    /// The endpoints' framing on a default link: the CRC-32 code.
    fn crc() -> Framing {
        Framing::fixed(CodeSpec::DEFAULT)
    }

    /// A book over `specs` and the framing of an endpoint whose
    /// controller sits on rung `id`.
    fn ladder(specs: &[CodeSpec], id: u8) -> (Arc<CodeBook>, Framing) {
        use heardof_coding::{AdaptiveConfig, AdaptiveController, CtlState};
        let cfg = AdaptiveConfig {
            ladder: specs.to_vec(),
            ..AdaptiveConfig::standard(2, 0)
        };
        let book = Arc::new(CodeBook::from_specs(specs));
        let state = CtlState {
            rung: id,
            ..CtlState::initial(&cfg)
        };
        let controller = AdaptiveController::from_state(cfg, state);
        (Arc::clone(&book), Framing::adaptive(book, controller))
    }

    /// The link 0 → 1 of a run wired as given, delivering into `tx`.
    fn link_with(
        tx: Sender<(u32, Vec<u8>)>,
        faults: LinkFaults,
        seed: u64,
        log: FaultLog,
        code: Arc<dyn ChannelCode>,
        book: Option<Arc<CodeBook>>,
        trace: Option<NoiseTrace>,
    ) -> FaultyLink {
        let wiring = LinkWiring::new(faults, code, book, trace, log, Telemetry::null());
        FaultyLink::new(0, 1, Box::new(tx), seed, Arc::new(wiring))
    }

    /// …under the default CRC-32 code, untagged and untraced.
    fn link(
        tx: Sender<(u32, Vec<u8>)>,
        faults: LinkFaults,
        seed: u64,
        log: FaultLog,
    ) -> FaultyLink {
        link_with(tx, faults, seed, log, CodeSpec::DEFAULT.build(), None, None)
    }

    /// …driven by `trace` instead of the probabilistic model.
    fn traced(
        tx: Sender<(u32, Vec<u8>)>,
        log: FaultLog,
        book: Option<Arc<CodeBook>>,
        trace: NoiseTrace,
    ) -> FaultyLink {
        let code = CodeSpec::DEFAULT.build();
        link_with(tx, LinkFaults::NONE, 9, log, code, book, Some(trace))
    }

    fn frame_bytes(v: u64) -> Vec<u8> {
        let frame = Frame {
            round: 1,
            sender: 0,
            copy: 0,
            msg: v,
        };
        wire(&crc(), &frame)
    }

    #[test]
    fn perfect_link_delivers() {
        let (tx, rx) = channel();
        let mut link = link(tx, LinkFaults::NONE, 9, FaultLog::new());
        assert_eq!(link.send(1, 0, frame_bytes(5)), LinkEvent::Delivered);
        let got = decoded(&crc(), &rx.recv().unwrap().1).unwrap();
        assert_eq!(got.msg, 5);
    }

    /// Where each delivered frame's bytes live.
    #[derive(Clone, Default)]
    struct Addresses(Arc<Mutex<Vec<usize>>>);

    impl FrameSink for Addresses {
        fn deliver(&self, _sender: u32, frame: Vec<u8>) {
            self.0.lock().push(frame.as_ptr() as usize);
        }
    }

    #[test]
    fn an_untouched_frame_reaches_the_sink_as_the_bytes_handed_in() {
        let wiring = |faults| {
            let code = CodeSpec::DEFAULT.build();
            let telemetry = Telemetry::null();
            Arc::new(LinkWiring::new(
                faults,
                code,
                None,
                None,
                FaultLog::new(),
                telemetry,
            ))
        };
        let seen = Addresses::default();
        let mut link = FaultyLink::new(0, 1, Box::new(seen.clone()), 9, wiring(LinkFaults::NONE));
        let owned = frame_bytes(5);
        let expected = vec![owned.as_ptr() as usize];
        assert_eq!(link.send(1, 0, owned), LinkEvent::Delivered);
        assert_eq!(*seen.0.lock(), expected, "no copy");

        // A frame the model hits is corrupted in the link's scratch and
        // delivered as a copy of it; the input is only ever read.
        let corrupting = wiring(LinkFaults {
            corrupt_prob: 1.0,
            ..LinkFaults::NONE
        });
        let seen = Addresses::default();
        let mut link = FaultyLink::new(0, 1, Box::new(seen.clone()), 9, corrupting);
        let hit = frame_bytes(6);
        let at = hit.as_ptr() as usize;
        assert_ne!(link.send(1, 0, hit), LinkEvent::Delivered);
        assert_ne!(seen.0.lock()[0], at);
    }

    #[test]
    fn dropping_link_drops() {
        let (tx, rx) = channel();
        let faults = LinkFaults {
            drop_prob: 1.0,
            ..LinkFaults::NONE
        };
        let mut link = link(tx, faults, 9, FaultLog::new());
        assert_eq!(link.send(1, 0, frame_bytes(5)), LinkEvent::Dropped);
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn detectable_corruption_fails_crc() {
        let (tx, rx) = channel();
        let faults = LinkFaults {
            corrupt_prob: 1.0,
            undetected_prob: 0.0,
            ..LinkFaults::NONE
        };
        let log = FaultLog::new();
        let mut link = link(tx, faults, 9, log.clone());
        assert_eq!(
            link.send(1, 0, frame_bytes(5)),
            LinkEvent::CorruptedDetectable
        );
        let (sender, bytes) = rx.recv().unwrap();
        assert_eq!(sender, 0, "attribution is the link's, not the bytes'");
        assert_eq!(decoded(&crc(), &bytes), None);
        assert!(log.is_empty(), "detected corruption is not logged");
    }

    #[test]
    fn undetected_corruption_decodes_to_wrong_value() {
        let (tx, rx) = channel();
        let faults = LinkFaults {
            corrupt_prob: 1.0,
            undetected_prob: 1.0,
            ..LinkFaults::NONE
        };
        let log = FaultLog::new();
        let mut link = link(tx, faults, 9, log.clone());
        assert_eq!(
            link.send(1, 0, frame_bytes(5)),
            LinkEvent::CorruptedUndetected
        );
        let got = decoded(&crc(), &rx.recv().unwrap().1).unwrap();
        assert_ne!(got.msg, 5);
        assert!(log.was_corrupted(&(1, 0, 1, 0)));
        assert_eq!(log.len(), 1);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let (tx, _rx) = channel::<(u32, Vec<u8>)>();
        let faults = LinkFaults {
            drop_prob: 1.5,
            ..LinkFaults::NONE
        };
        let _ = link(tx, faults, 9, FaultLog::new());
    }

    #[test]
    fn hamming_link_repairs_physical_noise() {
        let (tx, rx) = channel();
        let faults = LinkFaults {
            corrupt_prob: 1.0,
            undetected_prob: 0.0,
            ..LinkFaults::NONE
        };
        let code = CodeSpec::Hamming74.build();
        let framing = Framing::fixed_with(CodeSpec::Hamming74, Arc::clone(&code));
        let mut link = link_with(tx, faults, 4, FaultLog::new(), code, None, None);
        let frame = Frame {
            round: 1,
            sender: 0,
            copy: 0,
            msg: 5u64,
        };
        let mut events = std::collections::HashMap::new();
        for round in 1..=60u64 {
            let e = link.send(round, 0, wire(&framing, &frame));
            *events.entry(e).or_insert(0usize) += 1;
        }
        drop(link);
        let corrected = events
            .get(&LinkEvent::CorruptedCorrected)
            .copied()
            .unwrap_or(0);
        assert!(
            corrected > 30,
            "1–3 bit flips are mostly repaired by SECDED, got {events:?}"
        );
        // Every corrected frame decodes back to the original message.
        let mut repaired = 0;
        while let Ok((_, bytes)) = rx.try_recv() {
            if let Some(got) = decoded(&framing, &bytes) {
                assert_eq!(got.msg, 5);
                repaired += 1;
            }
        }
        assert!(repaired >= corrected, "corrected frames arrive intact");
    }

    #[test]
    fn uncoded_link_leaks_value_faults_from_plain_noise() {
        let (tx, rx) = channel();
        let faults = LinkFaults {
            corrupt_prob: 1.0,
            undetected_prob: 0.0, // no adversary needed: no detection at all
            ..LinkFaults::NONE
        };
        let log = FaultLog::new();
        let code = CodeSpec::None.build();
        let framing = Framing::fixed_with(CodeSpec::None, Arc::clone(&code));
        let mut link = link_with(tx, faults, 4, log.clone(), code, None, None);
        let frame = Frame {
            round: 1,
            sender: 0,
            copy: 0,
            msg: 5u64,
        };
        let sent = wire(&framing, &frame);
        assert_eq!(link.send(1, 0, sent), LinkEvent::CorruptedUndetected);
        assert!(
            log.was_corrupted(&(1, 0, 1, 0)),
            "leak is ground-truth logged"
        );
        let got = decoded(&framing, &rx.recv().unwrap().1).unwrap();
        assert_ne!(got.msg, 5, "corruption sailed straight through");
        assert_eq!(got.round, 1, "header region is spared by the noise model");
    }

    #[test]
    fn traced_link_is_a_pure_function_of_coordinates() {
        let run = |seed: u64| {
            let (tx, rx) = channel();
            let mut link = traced(tx, FaultLog::new(), None, NoiseTrace::bursty(seed));
            let events: Vec<LinkEvent> =
                (1..=40).map(|r| link.send(r, 0, frame_bytes(r))).collect();
            drop(link);
            let wires: Vec<(u32, Vec<u8>)> = rx.iter().collect();
            (events, wires)
        };
        assert_eq!(run(3), run(3), "same trace seed replays bit-for-bit");
        assert_ne!(run(3), run(4), "different seeds diverge");
    }

    #[test]
    fn traced_link_corrupts_only_in_noisy_phases() {
        // bursty(): rounds 1–30 clean, 31–60 noisy.
        let (tx, _rx) = channel();
        let mut link = traced(tx, FaultLog::new(), None, NoiseTrace::bursty(7));
        let clean: Vec<LinkEvent> = (1..=30).map(|r| link.send(r, 0, frame_bytes(r))).collect();
        let noisy: Vec<LinkEvent> = (31..=60).map(|r| link.send(r, 0, frame_bytes(r))).collect();
        let corrupted =
            |evs: &[LinkEvent]| evs.iter().filter(|e| **e != LinkEvent::Delivered).count();
        assert!(corrupted(&clean) <= 2, "clean phase: {clean:?}");
        assert!(corrupted(&noisy) >= 15, "noisy phase must bite: {noisy:?}");
    }

    #[test]
    fn tagged_traced_link_logs_faults_by_receiver_view() {
        // NoCode in the book leaks every corruption; the log must key
        // by what the receiver will decode.
        let (book, framing) = ladder(&[CodeSpec::None], 0);
        let (tx, rx) = channel();
        let log = FaultLog::new();
        let trace = NoiseTrace::new(
            5,
            vec![heardof_coding::NoisePhase {
                rounds: 1,
                channel: heardof_coding::GilbertElliott::new(0.05, 0.1, 0.0, 1.0),
            }],
        );
        let mut link = traced(tx, log.clone(), Some(Arc::clone(&book)), trace);
        let mut undetected = 0;
        for r in 1..=50u64 {
            let frame = Frame {
                round: r,
                sender: 0,
                copy: 0,
                msg: 5u64,
            };
            if link.send(r, 0, wire(&framing, &frame)) == LinkEvent::CorruptedUndetected {
                undetected += 1;
            }
        }
        assert!(undetected > 0, "uncoded bursts must leak");
        assert_eq!(
            log.len(),
            undetected,
            "every leak is ground-truth logged for SHO reconstruction"
        );
        drop(link);
        assert_eq!(rx.iter().count(), 50, "traced mode never drops frames");
    }

    #[test]
    fn a_leak_is_keyed_by_its_link_and_the_header_the_receiver_parses() {
        // An uncoded link whose every byte is complemented: whatever is
        // sent leaks. A body that holds a whole header — payload length
        // included — is logged under the round and copy the receiver
        // will read, and always under the link's sender, whatever the
        // header's sender field became; one that stops short of it, as
        // sent.
        use heardof_coding::{FaultScript, LinkFault};
        let script = FaultScript::new().with(3, 0, 1, LinkFault::CorruptAll);
        for (len, key) in [
            (PAYLOAD_OFFSET, (!3u64, 0u32, 1, !2u8)),
            (PAYLOAD_OFFSET - 1, (3, 0, 1, 2)),
            (COPY_OFFSET + 1, (3, 0, 1, 2)),
        ] {
            let (tx, rx) = channel();
            let log = FaultLog::new();
            let code = CodeSpec::None.build();
            let trace = Some(NoiseTrace::scripted(script.clone()));
            let mut link = link_with(tx, LinkFaults::NONE, 9, log.clone(), code, None, trace);
            let mut body = vec![0u8; len];
            body[0] = 3;
            body[COPY_OFFSET] = 2;
            assert_eq!(
                link.send(3, 2, body.clone()),
                LinkEvent::CorruptedUndetected
            );
            let delivered = rx.recv().unwrap().1;
            assert!(delivered
                .iter()
                .zip(&body)
                .all(|(got, sent)| *got == !*sent));
            assert!(log.was_corrupted(&key), "{len}-byte body: {key:?}");
            assert_eq!(log.len(), 1);
        }
    }

    #[test]
    fn probabilistic_faults_respect_tagged_framing() {
        // Adaptive (book) mode with the probabilistic adversarial model
        // and no trace: the forgery must decode and re-encode through
        // the frame's own epoch, not the link's static code.
        let specs = [CodeSpec::Checksum { width: 4 }, CodeSpec::Hamming74];
        let faults = LinkFaults {
            corrupt_prob: 1.0,
            undetected_prob: 1.0,
            ..LinkFaults::NONE
        };
        for id in 0..2u8 {
            let (book, framing) = ladder(&specs, id);
            let (tx, rx) = channel();
            let log = FaultLog::new();
            let code = CodeSpec::DEFAULT.build();
            let mut link = link_with(tx, faults, 9, log.clone(), code, Some(book), None);
            let frame = Frame {
                round: 1,
                sender: 0,
                copy: 0,
                msg: 5u64,
            };
            assert_eq!(
                link.send(1, 0, wire(&framing, &frame)),
                LinkEvent::CorruptedUndetected,
                "epoch {id}: the adversary must forge through the tag"
            );
            let forged = rx.recv().unwrap().1;
            assert_eq!(forged[0], id, "the forgery keeps the epoch id");
            let got = decoded(&framing, &forged).unwrap();
            assert_ne!(got.msg, 5, "…and carries a wrong payload");
            assert!(log.was_corrupted(&(1, 0, 1, 0)));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let (tx, rx) = channel();
            let faults = LinkFaults {
                drop_prob: 0.5,
                ..LinkFaults::NONE
            };
            let mut link = link(tx, faults, seed, FaultLog::new());
            let events: Vec<LinkEvent> = (0..50).map(|i| link.send(i, 0, frame_bytes(i))).collect();
            drop(link);
            let delivered = rx.iter().count();
            (events, delivered)
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1).0, run(2).0);
    }
}
