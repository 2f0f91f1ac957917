//! The substrate-agnostic round core.
//!
//! Every deployment substrate used to interleave the same per-process
//! state machine — algorithm step, adaptive framing, tagged
//! encode/decode, early-frame buffering, end-of-round renegotiation —
//! with its transport plumbing. [`RoundMachine`] is that machine
//! factored out once, in poll style: a substrate only moves bytes and
//! clocks.
//!
//! ```text
//! loop {
//!     engine.begin_round_with(|dest, copy, wire| {
//!         /* substrate: copy the coded frame onto the wire to `dest` */
//!     });
//!     /* substrate: gather arrivals */
//!     engine.ingest_from(sender, &bytes);    // 0..many times
//!     /* substrate: decide the round is over (timeout / all ingested) */
//!     engine.finish_round();                 // transition + renegotiate
//! }
//! ```
//!
//! The machine runs `k ≥ 1` consensus instances behind one [`Framing`]
//! and is generic over the [`WireLayout`] of its images. Its two
//! instantiations are [`RoundEngine`] — one instance, the image is the
//! frame body — and [`MuxRoundEngine`] — `k` instances packed into one
//! slot image per peer per round (see [`crate::layout`] for the format
//! and the per-link fault model that makes every instance hear the same
//! senders). Everything below the layout seam exists once.
//!
//! Everything observable — controller decisions, kept-frame logs (the
//! receiver's side of `HO(p, r)`), decisions — is a pure function of
//! the byte sequences ingested per round, *independent of how frames
//! from different senders interleave* (first valid frame per sender
//! wins, and the choice per sender never depends on other senders,
//! because [`RoundMachine::ingest_from`] attributes an image to the link
//! it came in on, whatever its header says; a proptest in
//! `tests/order_independence.rs` pins this). With
//! retransmission copies the invariant is scoped to **per-sender FIFO
//! delivery**: a transport that reorders one sender's copies against
//! each other can change *which* copy is kept (and hence the `SHO`
//! oracle key and repair tally when the copies fared differently in
//! flight). Every in-tree transport is per-link FIFO, so this holds;
//! that is what makes a threaded substrate, a lockstep async
//! substrate, and the lockstep simulator bit-for-bit comparable.

use crate::codec::{encode_body_into, Frame, WireMessage};
use crate::framing::Framing;
use crate::layout::{BareFrame, Malformed, SlotImage, WireLayout};
use crate::process::ProcessCore;
use bytes::BytesMut;
use heardof_coding::{
    decode_count, encode_count, oblivious_advert_frame, oblivious_channel, oblivious_value_frame,
    CodeSpec, ObliviousChannel, RoundTally, RungAdvert, OBL_MAX_EPOCH, OBL_MAX_VALUE,
};
use heardof_model::{HoAlgorithm, ProcessId, ReceptionVector, Round};
use heardof_telemetry::{Event, EventKind, Telemetry, NO_PEER};
use std::collections::HashMap;
use std::marker::PhantomData;

/// A decoded-but-early image buffered for a future round: sender, copy,
/// repair flag, piggybacked advert, and one message per instance.
type Early<M> = (u32, u8, bool, Option<RungAdvert>, Vec<M>);

/// The index of the link to `dest` within a per-process link vector
/// built by filtering the process itself out of ascending process
/// order — the layout every deployment substrate uses to route an
/// emitted frame's `dest` onto its `FaultyLink`s.
pub fn link_index(dest: u32, me: u32) -> usize {
    debug_assert_ne!(dest, me, "self-delivery never goes through a link");
    if dest < me {
        dest as usize
    } else {
        dest as usize - 1
    }
}

/// What [`RoundMachine::ingest`] did with a wire frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ingest {
    /// Decoded, current round, first frame from its sender: kept.
    Kept,
    /// Decoded but a frame from this sender was already kept.
    Duplicate,
    /// Decoded to an earlier round: the round is closed, dropped.
    Late,
    /// Decoded to a future round: buffered until that round begins.
    Future,
    /// The code rejected the bytes — a *detected* corruption, dropped
    /// (this is where channel corruption becomes an omission).
    Rejected,
    /// Decoded but impossible (sender out of range, round past the
    /// horizon, a slot image that is not this instance set under one
    /// header) — miscorrected garbage, dropped whole.
    Garbage,
    /// A content-oblivious pattern frame: its *arrival* was tallied on
    /// the count channel and its bytes were never read — the signal a
    /// fully-defective adversary cannot forge (only delay). Only
    /// returned by [`RoundMachine::ingest_from`] on ladders carrying
    /// the oblivious rung.
    Counted,
}

/// A finished [`RoundEngine`]'s observable log, per completed round:
/// what the substrate needs to assemble an outcome and reconstruct
/// `HO`/`SHO`.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Round of the first decision, if the process decided.
    pub decision_round: Option<u64>,
    /// Rounds fully completed (begin + finish) before the engine
    /// stopped.
    pub rounds_completed: u64,
    /// Per completed round: the `(sender, kept_copy)` pairs received —
    /// the receiver's side of `HO(p, r)`.
    pub kept: Vec<Vec<(u32, u8)>>,
    /// Per completed round: the code this process sent with.
    pub codes: Vec<CodeSpec>,
}

/// A finished [`MuxRoundEngine`]'s observable log.
///
/// Because one wire image carries every instance's frame, the kept set
/// is a *wire-level* fact shared by all instances — `kept[r-1]` is the
/// `(sender, copy)` list every instance heard in round `r`.
#[derive(Clone, Debug, PartialEq)]
pub struct MuxReport<V> {
    /// Rounds fully completed before the engine stopped.
    pub rounds_completed: u64,
    /// Per instance: the first decision's value, if that instance
    /// decided.
    pub decisions: Vec<Option<V>>,
    /// Per instance: the round of the first decision.
    pub decision_rounds: Vec<Option<u64>>,
    /// Per completed round: the `(sender, kept_copy)` pairs received —
    /// shared by every instance (see the struct docs).
    pub kept: Vec<Vec<(u32, u8)>>,
    /// Per completed round: the code this process sent with.
    pub codes: Vec<CodeSpec>,
}

/// The per-process round machine: owns the algorithm step of each of
/// its `k` instances (via [`ProcessCore`]), the one framing they share
/// (fixed or adaptive with per-round renegotiation), image
/// encode/decode in the layout `L`, early-arrival buffering and the
/// per-round receiver tally. See the module docs for the drive loop.
pub struct RoundMachine<A: HoAlgorithm, L>
where
    A::Msg: WireMessage,
{
    cores: Vec<ProcessCore<A>>,
    /// This process's id and the system size, as every core knows them.
    me: u32,
    n: usize,
    framing: Framing,
    copies: u8,
    max_rounds: u64,
    /// Round currently open (0 before the first `begin_round`).
    round: u64,
    /// One reception vector per instance; all instances hear the same
    /// senders (one image carries them all), only the messages differ.
    rx: Vec<ReceptionVector<A::Msg>>,
    /// Wire-level kept images this round (self first, then one entry
    /// per distinct sender): room for all `n` is reserved when the
    /// round opens, and `finish_round` moves the log into `kept`.
    kept_this_round: Vec<(u32, u8)>,
    corrected_this_round: usize,
    /// Images the code *rejected* this round while visibly repairing
    /// blocks on the way down — the repair evidence that used to be
    /// discarded with the frame. Counted per image (0/1), it feeds
    /// [`RoundTally::evidence`] so the controller's activity estimate
    /// sees equivalent damage equivalently across rungs.
    evidence_this_round: usize,
    /// Rung advertisements piggybacked on the images kept this round,
    /// keyed by sender (first kept image per sender wins, exactly like
    /// the images themselves — so the set is ingestion-order
    /// independent). Sorted by sender before reaching the controller.
    ads_this_round: Vec<(u32, RungAdvert)>,
    /// Per-sender value-channel arrival tallies for the open round —
    /// the content-oblivious signal. Allocated (length `n`) only when
    /// the layout has a count channel and the framing's ladder carries
    /// the oblivious rung, so every other configuration pays nothing
    /// and ingests byte-identically.
    value_counts: Vec<u32>,
    /// Per-sender advert-channel arrival tallies, same gating.
    advert_counts: Vec<u32>,
    /// Images that arrived early, keyed by round: at most one per
    /// (round, sender).
    future: HashMap<u64, Vec<Early<A::Msg>>>,
    kept: Vec<Vec<(u32, u8)>>,
    codes: Vec<CodeSpec>,
    rounds_completed: u64,
    /// Engine-plane event sink (null by default; see
    /// [`RoundMachine::with_telemetry`]).
    telemetry: Telemetry,
    /// Reusable frame-body slab: per peer, every instance's body is
    /// serialised back to back into this one buffer. After the first
    /// round it never grows again (bodies are the same shape every
    /// round), so the steady state allocates nothing per frame.
    body_arena: BytesMut,
    /// The slab the wire arenas were last coded from.
    coded_body: BytesMut,
    /// `(start, end)` of each instance's body within the slab.
    body_ranges: Vec<(usize, usize)>,
    /// Reusable packed image (the [`WireLayout::pack`] output).
    image_arena: Vec<u8>,
    /// Reusable coded wire images, one per retransmission copy.
    wire_arenas: Vec<BytesMut>,
    /// One decoded message per instance of the image being ingested,
    /// parked here between [`WireLayout::unpack`] and [`Self::keep`].
    msgs_arena: Vec<A::Msg>,
    layout: PhantomData<fn() -> L>,
}

/// The single-instance engine: one HO-machine, one frame body per wire
/// image ([`BareFrame`]).
pub type RoundEngine<A> = RoundMachine<A, BareFrame>;

/// `k` instance HO-machines behind one shared [`Framing`]: per peer and
/// round, one packed, coded wire image ([`SlotImage`]) instead of `k`
/// frames — `k` tag bytes, `k` advert bytes, `k` coding passes and `k`
/// per-frame fixed costs paid once.
pub type MuxRoundEngine<A> = RoundMachine<A, SlotImage>;

impl<A: HoAlgorithm> RoundMachine<A, BareFrame>
where
    A::Msg: WireMessage,
{
    /// An engine for process `me` of an `n`-process system.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `copies == 0`.
    pub fn new(
        algo: A,
        me: ProcessId,
        n: usize,
        initial: A::Value,
        framing: Framing,
        copies: u8,
        max_rounds: u64,
    ) -> Self {
        Self::with_instances(algo, me, n, vec![initial], framing, copies, max_rounds)
    }

    /// The underlying HO-machine (state, decision snapshots).
    pub fn core(&self) -> &ProcessCore<A> {
        &self.cores[0]
    }

    /// The first decision's value, if this process has decided.
    pub fn decision(&self) -> Option<&A::Value> {
        self.cores[0].first_decision().map(|(_, v)| v)
    }

    /// The round of the first decision, if this process has decided.
    pub fn decision_round(&self) -> Option<u64> {
        self.cores[0].first_decision().map(|(r, _)| *r)
    }

    /// Consumes the engine into its observable log. A round begun but
    /// never finished (a substrate abandoning mid-round) is dropped
    /// from the code log, keeping `codes` per *completed* round as
    /// documented.
    pub fn into_report(mut self) -> EngineReport {
        self.codes.truncate(self.rounds_completed as usize);
        EngineReport {
            decision_round: self.decision_round(),
            rounds_completed: self.rounds_completed,
            kept: self.kept,
            codes: self.codes,
        }
    }
}

impl<A: HoAlgorithm> RoundMachine<A, SlotImage>
where
    A::Msg: WireMessage,
{
    /// A mux engine for process `me` of an `n`-process system, running
    /// one instance per entry of `initials` (instance `i` starts from
    /// `initials[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `copies == 0`, `initials` is empty, or there
    /// are more instances than a mux image holds
    /// ([`heardof_coding::MAX_SLOTS`]).
    pub fn new(
        algo: A,
        me: ProcessId,
        n: usize,
        initials: Vec<A::Value>,
        framing: Framing,
        copies: u8,
        max_rounds: u64,
    ) -> Self {
        assert!(!initials.is_empty(), "at least one instance");
        assert!(
            initials.len() <= heardof_coding::MAX_SLOTS,
            "a mux image holds at most {} instances, got {}",
            heardof_coding::MAX_SLOTS,
            initials.len()
        );
        Self::with_instances(algo, me, n, initials, framing, copies, max_rounds)
    }

    /// Number of multiplexed instances.
    pub fn instances(&self) -> usize {
        self.cores.len()
    }

    /// Instance `i`'s HO-machine (state, decision snapshots).
    pub fn core(&self, i: usize) -> &ProcessCore<A> {
        &self.cores[i]
    }

    /// Instance `i`'s first decision value, if it decided.
    pub fn decision(&self, i: usize) -> Option<&A::Value> {
        self.cores[i].first_decision().map(|(_, v)| v)
    }

    /// Consumes the engine into its observable log (a round begun but
    /// never finished is dropped from the code log).
    pub fn into_report(mut self) -> MuxReport<A::Value> {
        self.codes.truncate(self.rounds_completed as usize);
        MuxReport {
            rounds_completed: self.rounds_completed,
            decisions: self
                .cores
                .iter()
                .map(|c| c.first_decision().map(|(_, v)| v.clone()))
                .collect(),
            decision_rounds: self
                .cores
                .iter()
                .map(|c| c.first_decision().map(|(r, _)| *r))
                .collect(),
            kept: self.kept,
            codes: self.codes,
        }
    }
}

impl<A: HoAlgorithm, L: WireLayout> RoundMachine<A, L>
where
    A::Msg: WireMessage,
{
    fn with_instances(
        algo: A,
        me: ProcessId,
        n: usize,
        initials: Vec<A::Value>,
        framing: Framing,
        copies: u8,
        max_rounds: u64,
    ) -> Self {
        assert!(n > 0, "system must have at least one process");
        assert!(copies >= 1, "at least one copy per frame");
        let counts = if L::COUNT_CHANNEL && framing.oblivious_enabled() {
            n
        } else {
            0
        };
        RoundMachine {
            me: me.as_u32(),
            n,
            rx: initials.iter().map(|_| ReceptionVector::new(n)).collect(),
            cores: initials
                .into_iter()
                .map(|v| ProcessCore::new(algo.clone(), me, n, v))
                .collect(),
            framing,
            copies,
            max_rounds,
            round: 0,
            kept_this_round: Vec::new(),
            corrected_this_round: 0,
            evidence_this_round: 0,
            ads_this_round: Vec::new(),
            value_counts: vec![0; counts],
            advert_counts: vec![0; counts],
            future: HashMap::new(),
            kept: Vec::new(),
            codes: Vec::new(),
            rounds_completed: 0,
            telemetry: Telemetry::null(),
            body_arena: BytesMut::new(),
            coded_body: BytesMut::new(),
            body_ranges: Vec::new(),
            image_arena: Vec::new(),
            wire_arenas: (0..copies).map(|_| BytesMut::new()).collect(),
            msgs_arena: Vec::new(),
            layout: PhantomData,
        }
    }

    /// Routes engine-plane events (and, via the framing, controller-
    /// and budget-plane events) to `telemetry`. Off (null) by default.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.framing.set_telemetry(telemetry.clone(), self.me);
        self.telemetry = telemetry;
        self
    }

    /// Emits an engine-plane event: what this process did with an image
    /// of `peer`'s (or [`NO_PEER`]).
    fn event(&self, kind: EventKind, round: u64, peer: u32, value: u64) {
        self.telemetry
            .emit(Event::link(kind, round, self.me, peer, value));
    }

    /// The round currently open (0 before the first `begin_round`).
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// Rounds fully completed so far.
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_completed
    }

    /// The code in force for the next send.
    pub fn current_code(&self) -> CodeSpec {
        self.framing.current_spec()
    }

    /// `true` once every instance has decided — what a substrate
    /// announces, once, to the run.
    pub fn all_decided(&self) -> bool {
        self.cores.iter().all(|c| c.first_decision().is_some())
    }

    /// Opens the next round: records the send code, runs every
    /// instance's sending function, delivers to self locally (never on
    /// the wire, never corrupted), drains early arrivals buffered for
    /// this round, and hands every coded image the substrate must
    /// transmit to `emit(dest, copy, wire)` as a borrow of an internal
    /// arena that is reused across frames and rounds. The borrow is
    /// valid only for the duration of the call — a substrate copies it
    /// onto the wire (or into its transport buffer) and returns.
    ///
    /// Per peer, all `k` instance bodies are serialised into a slab,
    /// but a slab byte-identical to the previous peer's is not packed
    /// or coded again: its wire images (one per retransmission copy,
    /// differing in the patched copy byte — [`WireLayout::patch_copy`],
    /// nothing is re-encoded) are emitted a second time from their
    /// arenas. A broadcast round therefore costs `copies` code passes,
    /// not `(n−1)·copies`, an algorithm that addresses its peers
    /// individually costs what it always did, and neither allocates per
    /// frame on the engine side. Under a rateless rung the symbol
    /// budget is additionally priced **per wire image**: one pooled
    /// repair allowance for the whole batch
    /// ([`SymbolBudget::for_batch`](heardof_coding::SymbolBudget::for_batch)),
    /// sublinear in `k`, instead of `k` independent per-instance
    /// allowances.
    ///
    /// # Panics
    ///
    /// Panics if called past `max_rounds` or with the previous round
    /// still open.
    pub fn begin_round_with(&mut self, mut emit: impl FnMut(u32, u8, &[u8])) {
        assert_eq!(
            self.round, self.rounds_completed,
            "previous round still open — call finish_round first"
        );
        assert!(self.round < self.max_rounds, "round horizon exhausted");
        self.round += 1;
        let r = self.round;
        let round = Round::new(r);
        let me = ProcessId::new(self.me);
        self.codes.push(self.framing.current_spec());
        self.rx.iter_mut().for_each(ReceptionVector::clear);
        self.kept_this_round.clear();
        self.kept_this_round.reserve(self.n);
        self.corrected_this_round = 0;
        self.evidence_this_round = 0;
        self.ads_this_round.clear();
        self.value_counts.fill(0);
        self.advert_counts.fill(0);

        // Self-delivery first: local, never dropped, never corrupted —
        // one image's worth of bookkeeping for all instances at once.
        for (core, rx) in self.cores.iter().zip(&mut self.rx) {
            rx.set(me, core.send_to(round, me));
        }
        self.kept_this_round.push((self.me, 0));
        self.event(EventKind::FrameKept, r, self.me, 0);

        if L::COUNT_CHANNEL && self.framing.current_spec() == CodeSpec::Oblivious {
            self.send_patterns(round, &mut emit);
        } else {
            self.send_coded(round, &mut emit);
        }

        // Early arrivals buffered for this round enter ahead of
        // whatever the substrate ingests next.
        if let Some(images) = self.future.remove(&r) {
            for (sender, copy, repaired, advert, msgs) in images {
                self.msgs_arena = msgs;
                self.keep(sender, copy, repaired, advert);
            }
        }
    }

    /// Content-oblivious sends: the message never crosses the wire as
    /// bytes — it is the NUMBER of fixed-length pattern frames emitted
    /// inside this round window (`value + 1` copies, a
    /// unary/thermometer code over the copies axis). The frames'
    /// contents are zeros the receiver never reads, so an adversary
    /// rewriting every payload byte changes nothing; only dropping
    /// frames (an omission) has any effect. Messages too wide for the
    /// 3-bit pattern channel emit nothing and read as omissions. The
    /// configured `copies` axis is ignored here — the count *is* the
    /// redundancy axis. Gossip rides a second length-disjoint channel
    /// carrying the sender's epoch the same way (the rung is implied: a
    /// count-channel sender is by definition on the ladder's last
    /// rung).
    fn send_patterns(&self, round: Round, emit: &mut impl FnMut(u32, u8, &[u8])) {
        let advert_copies = self
            .framing
            .controller()
            .and_then(|c| c.advert())
            .map_or(0, |ad| encode_count(ad.epoch, OBL_MAX_EPOCH));
        let value_frame = oblivious_value_frame();
        let advert_frame = oblivious_advert_frame();
        for q in (0..self.n as u32).filter(|&q| q != self.me) {
            let msg = self.cores[0].send_to(round, ProcessId::new(q));
            if let Some(v) = msg.pattern_value() {
                for copy in 0..encode_count(v, OBL_MAX_VALUE) {
                    emit(q, copy as u8, &value_frame);
                }
            }
            for copy in 0..advert_copies {
                emit(q, copy as u8, &advert_frame);
            }
        }
    }

    /// Coded sends: one image per peer per retransmission copy.
    fn send_coded(&mut self, round: Round, emit: &mut impl FnMut(u32, u8, &[u8])) {
        let (r, me) = (round.get(), self.me);
        // The copies shim: under a rateless code, whole-image
        // retransmission copies fold into the symbol budget — one image
        // per peer carrying `(copies − 1)·k` extra repair symbols plus
        // the negotiated allowance, instead of `copies` duplicates.
        // Redundancy is paid in the cheaper currency, and the budget is
        // the engine's (hence every substrate's) single source of
        // truth, so conformance holds by construction. Then the batch
        // axis: one image protects every instance at once, so its
        // repair pool is negotiated for the batch rather than
        // multiplied by it.
        let budget = self
            .framing
            .symbol_budget()
            .map(|b| b.fold_copies(self.copies).for_batch(self.cores.len()));
        let copies_out = if budget.is_some() { 1 } else { self.copies };
        if budget.is_some() && self.copies > 1 {
            self.event(EventKind::CopiesFolded, r, NO_PEER, self.copies as u64);
        }
        let mut slab = std::mem::take(&mut self.body_arena);
        let mut coded = std::mem::take(&mut self.coded_body);
        let ranges = &mut self.body_ranges;
        let image = &mut self.image_arena;
        let wires = &mut self.wire_arenas[..copies_out as usize];
        // Nothing is coded yet under this round's framing and budget.
        coded.clear();
        for q in (0..self.n as u32).filter(|&q| q != me) {
            slab.clear();
            ranges.clear();
            for core in &self.cores {
                let start = slab.len();
                encode_body_into(
                    &Frame {
                        round: r,
                        sender: me,
                        copy: 0,
                        msg: core.send_to(round, ProcessId::new(q)),
                    },
                    &mut slab,
                );
                ranges.push((start, slab.len()));
            }
            // Coding is a pure function of the slab within a round, so
            // equal bytes mean equal wire images: pack and code only
            // when this peer's slab differs from the one last coded.
            // Bodies carry their own length, so equal slab bytes split
            // into equal bodies.
            if slab != coded {
                L::pack(&slab, ranges, image);
                for (copy, wire) in wires.iter_mut().enumerate() {
                    if copy > 0 {
                        L::patch_copy(image, copy as u8);
                    }
                    wire.clear();
                    self.framing.encode_raw(image, budget, wire);
                }
                std::mem::swap(&mut slab, &mut coded);
            }
            for (copy, wire) in wires.iter().enumerate() {
                emit(q, copy as u8, wire);
            }
        }
        self.body_arena = slab;
        self.coded_body = coded;
    }

    /// An image of `round` that lost to an earlier one from its sender.
    fn duplicate(&self, round: u64, sender: u32, copy: u8) -> Ingest {
        self.event(EventKind::FrameDuplicate, round, sender, copy as u64);
        Ingest::Duplicate
    }

    /// An image that decoded to something impossible.
    fn garbage(&self, value: u64) -> Ingest {
        self.event(EventKind::FrameGarbage, self.round, NO_PEER, value);
        Ingest::Garbage
    }

    /// First valid image per sender wins — wire-level dedupe, exactly
    /// one tally contribution per sender per round; repairs and rung
    /// advertisements count only when the image is kept. The image's
    /// messages are the contents of `msgs_arena`, one per instance.
    fn keep(
        &mut self,
        sender: u32,
        copy: u8,
        repaired: bool,
        advert: Option<RungAdvert>,
    ) -> Ingest {
        let sid = ProcessId::new(sender);
        if self.rx[0].get(sid).is_some() {
            return self.duplicate(self.round, sender, copy);
        }
        self.event(EventKind::FrameKept, self.round, sender, copy as u64);
        self.kept_this_round.push((sender, copy));
        self.corrected_this_round += usize::from(repaired);
        if let Some(ad) = advert {
            self.ads_this_round.push((sender, ad));
        }
        for (rx, msg) in self.rx.iter_mut().zip(self.msgs_arena.drain(..)) {
            rx.set(sid, msg);
        }
        Ingest::Kept
    }

    /// [`RoundMachine::ingest`] with the transport's sender attribution
    /// — the entry point for ladders carrying the content-oblivious
    /// rung, whose count channel needs to know *which link* a pattern
    /// frame arrived on (the model's one incorruptible fact: arrival
    /// and its link survive any content rewrite). A pattern-length
    /// frame (2 or 3 bytes — lengths no tagged frame can have) from a
    /// valid peer is tallied per sender and never decoded; everything
    /// else is decoded as by [`RoundMachine::ingest`], except that a
    /// valid peer's link, not the header, says who sent it: an image
    /// whose header a rate<1 code miscorrected into another peer's name
    /// is still that link's image (one naming no process at all is
    /// garbage, as in `ingest`). Which image is kept from a sender then
    /// depends on its link's frames alone, in whatever order the links
    /// interleave. A sender that is no peer (this process, or out of
    /// range — no in-tree transport names one) leaves it to the header.
    pub fn ingest_from(&mut self, sender: u32, bytes: &[u8]) -> Ingest {
        if !self.value_counts.is_empty() {
            if let Some(channel) = oblivious_channel(bytes.len()) {
                let open = self.round == self.rounds_completed + 1;
                if open && sender != self.me && (sender as usize) < self.n {
                    let counts = match channel {
                        ObliviousChannel::Value => &mut self.value_counts,
                        ObliviousChannel::Advert => &mut self.advert_counts,
                    };
                    counts[sender as usize] = counts[sender as usize].saturating_add(1);
                    return Ingest::Counted;
                }
            }
        }
        let peer = sender != self.me && (sender as usize) < self.n;
        self.admit(peer.then_some(sender), bytes)
    }

    /// Feeds one wire arrival through coded decode, the layout's
    /// unpack, header sanity and round routing, attributing it by its
    /// header. Call any number of times between `begin_round` and
    /// `finish_round`. The whole image shares one fate: any
    /// inconsistency drops all of it (a detected omission / garbage),
    /// never a subset of instances.
    ///
    /// The end-of-round state does not depend on ingestion order while
    /// every header names its true sender. A rate<1 code can miscorrect
    /// a header into another sender's name, and then the first of the
    /// two images to arrive wins; a substrate that knows the link a
    /// frame came in on calls [`RoundMachine::ingest_from`], which has
    /// no such race.
    pub fn ingest(&mut self, bytes: &[u8]) -> Ingest {
        self.admit(None, bytes)
    }

    /// [`RoundMachine::ingest`], attributing the image to the peer
    /// `link` when it is known and to its header's sender otherwise.
    fn admit(&mut self, link: Option<u32>, bytes: &[u8]) -> Ingest {
        let me = self.me;
        // The view decode borrows the input on detection-only rungs —
        // no copy of the image is made unless a correcting code
        // actually rewrote bytes.
        let scan = self.framing.decode_raw_view(bytes);
        let parsed = match scan.image {
            Some((image, repaired, advert)) => {
                L::unpack(&image, self.cores.len(), &mut self.msgs_arena)
                    .map(|header| (header, repaired, advert))
            }
            None => Err(Malformed::Rejected),
        };
        let ((round, sender, copy), repaired, advert) = match parsed {
            Ok(parsed) => parsed,
            // A rejection is a *detected* corruption: drop the image,
            // producing an omission — but keep the repair evidence the
            // code reported on the way down: an image it fought for and
            // lost still witnesses channel noise (see
            // `RoundTally::evidence`).
            Err(Malformed::Rejected) => {
                self.evidence_this_round += usize::from(scan.repairs > 0);
                self.event(
                    EventKind::FrameRejected,
                    self.round,
                    NO_PEER,
                    bytes.len() as u64,
                );
                return Ingest::Rejected;
            }
            Err(Malformed::Garbage(value)) => return self.garbage(value),
        };
        // A rate<1 code can (rarely) miscorrect header bits; an image
        // claiming an impossible sender or round is garbage — drop it
        // like any detected corruption.
        if sender as usize >= self.n || round > self.max_rounds {
            return self.garbage(round);
        }
        let sender = link.unwrap_or(sender);
        if round < self.round {
            self.event(EventKind::FrameLate, self.round, sender, round);
            return Ingest::Late; // the round is closed
        }
        if round > self.round {
            // One buffered image per (round, sender) — the first, which
            // is the one `keep` would keep when the round opens. Later
            // ones (and anything claiming to be from this process) get
            // the verdict the drain would have given them, now, so a
            // replaying peer cannot grow the buffer.
            let buffered = self.future.get(&round);
            if sender == me || buffered.is_some_and(|early| early.iter().any(|e| e.0 == sender)) {
                return self.duplicate(round, sender, copy);
            }
            self.event(EventKind::FrameFuture, self.round, sender, round);
            let msgs = std::mem::take(&mut self.msgs_arena);
            self.future
                .entry(round)
                .or_default()
                .push((sender, copy, repaired, advert, msgs));
            return Ingest::Future;
        }
        self.keep(sender, copy, repaired, advert)
    }

    /// Count-channel synthesis: folds the round's per-sender pattern
    /// tallies into the reception vector and the gossip set *before*
    /// the transition, so a count-decoded value is exactly as good as a
    /// content-decoded one. A tagged frame from the same sender wins
    /// (the counts then only corroborate); one value per sender either
    /// way. Iteration is in ascending sender order and counts are
    /// commutative, so the result is ingestion-order independent like
    /// everything else observable. Only the one-instance layout has a
    /// count channel, hence `rx[0]`.
    fn fold_counts(&mut self) {
        let (r, me) = (self.round, self.me);
        for s in (0..self.n as u32).filter(|&s| s != me) {
            let vc = self.value_counts[s as usize];
            let ac = self.advert_counts[s as usize];
            if vc == 0 && ac == 0 {
                continue;
            }
            self.event(
                EventKind::ObliviousCount,
                r,
                s,
                vc.min(0xFF) as u64 | ((ac.min(0xFF) as u64) << 8),
            );
            let sender = ProcessId::new(s);
            if self.rx[0].get(sender).is_none() {
                if let Some(msg) =
                    decode_count(vc as usize, OBL_MAX_VALUE).and_then(A::Msg::from_pattern_value)
                {
                    self.event(EventKind::FrameKept, r, s, 0);
                    self.kept_this_round.push((s, 0));
                    self.rx[0].set(sender, msg);
                }
            }
            if ac > 0 && !self.ads_this_round.iter().any(|(q, _)| *q == s) {
                if let (Some(rung), Some(epoch)) = (
                    self.framing.oblivious_rung(),
                    decode_count(ac as usize, OBL_MAX_EPOCH),
                ) {
                    self.ads_this_round.push((s, RungAdvert { rung, epoch }));
                }
            }
        }
    }

    /// Closes the round: every instance transitions on its reception
    /// vector, then renegotiation — ONE receiver tally, per link, not
    /// per instance (distinct peers heard, images kept after repair;
    /// undetected value faults are invisible by definition and enter as
    /// a zero estimate) goes to the shared controller together with the
    /// round's peer rung advertisements (sorted by sender, so the
    /// gossip decision is independent of ingestion order), and any new
    /// code applies from the next round's sends. Returns the new spec
    /// when the controller switched — whether by its own estimates or
    /// by gossip adoption.
    pub fn finish_round(&mut self) -> Option<CodeSpec> {
        assert_eq!(
            self.round,
            self.rounds_completed + 1,
            "no round open — call begin_round first"
        );
        let r = self.round;
        let round = Round::new(r);
        if !self.value_counts.is_empty() {
            self.fold_counts();
        }
        for (core, rx) in self.cores.iter_mut().zip(&self.rx) {
            core.transition(round, rx);
        }

        // `keep` admits at most one image per sender (first valid
        // wins), so the kept log is already distinct by sender — a
        // plain count is the peer-delivery tally, no set needed.
        let delivered_peers = self
            .kept_this_round
            .iter()
            .filter(|(sender, _)| *sender != self.me)
            .count();
        let before = self.framing.current_spec();
        let mut ads = std::mem::take(&mut self.ads_this_round);
        ads.sort_by_key(|(sender, _)| *sender);
        let ads: Vec<RungAdvert> = ads.into_iter().map(|(_, ad)| ad).collect();
        self.framing.observe_with_gossip(
            RoundTally {
                expected: self.n - 1,
                delivered: delivered_peers,
                corrected: self.corrected_this_round,
                value_faults: 0,
                evidence: self.evidence_this_round,
            },
            &ads,
        );
        let after = self.framing.current_spec();

        self.kept.push(std::mem::take(&mut self.kept_this_round));
        self.rounds_completed = r;
        (after != before).then_some(after)
    }
}

/// `true` once an image from every sender (including self) has been
/// kept.
#[cfg(test)]
impl<A: HoAlgorithm, L: WireLayout> RoundMachine<A, L>
where
    A::Msg: WireMessage,
{
    fn round_complete(&self) -> bool {
        self.rx[0].heard_count() == self.n
    }
}

/// One coded frame as `emit` saw it — what the in-crate tests collect.
#[cfg(test)]
struct Sent {
    dest: u32,
    copy: u8,
    bytes: Vec<u8>,
}

/// Runs `begin` (an engine's `begin_round_with`, either layout) and
/// returns every frame it emitted.
#[cfg(test)]
fn sent(begin: impl FnOnce(&mut dyn FnMut(u32, u8, &[u8]))) -> Vec<Sent> {
    let mut frames = Vec::new();
    begin(&mut |dest, copy, bytes| {
        frames.push(Sent {
            dest,
            copy,
            bytes: bytes.to_vec(),
        })
    });
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use heardof_coding::{AdaptiveConfig, AdaptiveController, CodeBook, CtlState};
    use heardof_core::{Ate, AteParams};
    use std::sync::Arc;

    fn engine(n: usize, copies: u8) -> RoundEngine<Ate<u64>> {
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
        RoundEngine::new(
            algo,
            ProcessId::new(0),
            n,
            7,
            Framing::fixed(CodeSpec::DEFAULT),
            copies,
            10,
        )
    }

    /// A full closed loop of engines over a perfect in-memory "wire".
    fn run_clean_system(n: usize, rounds: u64) -> Vec<RoundEngine<Ate<u64>>> {
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
        let mut engines: Vec<RoundEngine<Ate<u64>>> = (0..n)
            .map(|p| {
                RoundEngine::new(
                    algo.clone(),
                    ProcessId::new(p as u32),
                    n,
                    (p % 2) as u64,
                    Framing::fixed(CodeSpec::DEFAULT),
                    1,
                    rounds,
                )
            })
            .collect();
        // One wire buffer for the whole run: per round the inner
        // vectors are cleared, not reallocated, and the engines emit
        // borrowed frames straight into them.
        let mut wires: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
        for _ in 0..rounds {
            for inbox in wires.iter_mut() {
                inbox.clear();
            }
            for engine in engines.iter_mut() {
                engine.begin_round_with(|dest, _copy, bytes| {
                    wires[dest as usize].push(bytes.to_vec());
                });
            }
            for (p, engine) in engines.iter_mut().enumerate() {
                for bytes in &wires[p] {
                    assert_eq!(engine.ingest(bytes), Ingest::Kept);
                }
                assert!(engine.round_complete());
                engine.finish_round();
            }
        }
        engines
    }

    #[test]
    fn clean_system_decides_and_agrees() {
        let engines = run_clean_system(5, 4);
        let first = engines[0].decision().copied().unwrap();
        for e in &engines {
            assert_eq!(e.decision(), Some(&first), "agreement across engines");
            assert!(e.decision_round().unwrap() <= 2);
            assert_eq!(e.rounds_completed(), 4);
        }
    }

    #[test]
    fn self_delivery_is_local_and_immediate() {
        let mut e = engine(3, 1);
        let out = sent(|emit| e.begin_round_with(emit));
        assert_eq!(out.len(), 2, "one frame per peer, none for self");
        assert!(out.iter().all(|o| o.dest != 0));
        assert!(!e.round_complete(), "peers still missing");
        assert_eq!(e.current_round(), 1);
    }

    #[test]
    fn copies_multiply_outgoing_and_dedupe_on_ingest() {
        let mut a = engine(2, 3);
        let out = sent(|emit| a.begin_round_with(emit));
        assert_eq!(out.len(), 3, "three copies for the single peer");
        // Feed the copies to a fresh peer engine: first kept, rest dup.
        let algo: Ate<u64> = Ate::new(AteParams::balanced(2, 0).unwrap());
        let mut b = RoundEngine::new(
            algo,
            ProcessId::new(1),
            2,
            7,
            Framing::fixed(CodeSpec::DEFAULT),
            3,
            10,
        );
        b.begin_round_with(|_, _, _| {});
        assert_eq!(b.ingest(&out[0].bytes), Ingest::Kept);
        assert_eq!(b.ingest(&out[1].bytes), Ingest::Duplicate);
        assert_eq!(b.ingest(&out[2].bytes), Ingest::Duplicate);
        assert!(b.round_complete());
    }

    #[test]
    fn late_future_and_rejected_frames_are_routed() {
        let mut a = engine(2, 1);
        let r1 = sent(|emit| a.begin_round_with(emit));
        let algo: Ate<u64> = Ate::new(AteParams::balanced(2, 0).unwrap());
        let mut b = RoundEngine::new(
            algo,
            ProcessId::new(1),
            2,
            7,
            Framing::fixed(CodeSpec::DEFAULT),
            1,
            10,
        );
        b.begin_round_with(|_, _, _| {});
        b.ingest(&r1[0].bytes);
        b.finish_round();
        a.finish_round();
        let r2a = sent(|emit| a.begin_round_with(emit));
        a.finish_round();
        let r3a = sent(|emit| a.begin_round_with(emit));
        b.begin_round_with(|_, _, _| {}); // b in round 2
        assert_eq!(b.ingest(&r1[0].bytes), Ingest::Late, "round 1 is closed");
        assert_eq!(b.ingest(&r3a[0].bytes), Ingest::Future, "round 3 buffered");
        let mut junk = r2a[0].bytes.clone();
        junk[3] ^= 0xFF;
        assert_eq!(b.ingest(&junk), Ingest::Rejected, "crc catches corruption");
        assert_eq!(b.ingest(&r2a[0].bytes), Ingest::Kept);
        b.finish_round();
        // Round 3 opens: the buffered frame is already kept.
        b.begin_round_with(|_, _, _| {});
        assert!(b.round_complete(), "future frame drained into round 3");
    }

    #[test]
    fn adaptive_engine_reports_controller_switches() {
        let n = 5;
        let cfg = AdaptiveConfig::standard(n, 1);
        let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 1).unwrap());
        let mut e = RoundEngine::new(
            algo,
            ProcessId::new(0),
            n,
            7,
            Framing::adaptive(Arc::clone(&book), AdaptiveController::new(cfg)),
            1,
            40,
        );
        // Starve the engine of peer frames: every finish_round sees 4
        // omissions, which must eventually escalate the rung.
        let mut switched = None;
        for _ in 0..10 {
            e.begin_round_with(|_, _, _| {});
            if let Some(spec) = e.finish_round() {
                switched = Some(spec);
                break;
            }
        }
        let spec = switched.expect("full omission pressure must escalate");
        assert_ne!(spec, CodeSpec::Checksum { width: 4 });
        assert_eq!(e.current_code(), spec);
        // The new code applies from the *next* round's sends.
        e.begin_round_with(|_, _, _| {});
        e.finish_round();
        let report = e.into_report();
        assert_eq!(report.codes[0], CodeSpec::Checksum { width: 4 });
        assert_eq!(*report.codes.last().unwrap(), spec);
    }

    #[test]
    fn abandoned_round_is_dropped_from_the_report() {
        // A substrate that begins a round and then bails (transport
        // death) must still hand back per-*completed*-round logs.
        let mut e = engine(3, 1);
        e.begin_round_with(|_, _, _| {});
        e.finish_round();
        e.begin_round_with(|_, _, _| {}); // abandoned mid-round
        let report = e.into_report();
        assert_eq!(report.rounds_completed, 1);
        assert_eq!(report.codes.len(), 1, "open round's code is dropped");
        assert_eq!(report.kept.len(), 1);
    }

    #[test]
    fn rateless_framing_folds_copies_into_symbols() {
        // Under a fountain code, `copies = 3` must emit ONE frame per
        // peer — carrying the folded symbol budget — not three
        // duplicates; the same config under a fixed-rate code still
        // emits three.
        let algo: Ate<u64> = Ate::new(AteParams::balanced(3, 0).unwrap());
        let mut fountain = RoundEngine::new(
            algo.clone(),
            ProcessId::new(0),
            3,
            7,
            Framing::fixed(CodeSpec::Fountain { repair: 2 }),
            3,
            10,
        );
        let out = sent(|emit| fountain.begin_round_with(emit));
        assert_eq!(out.len(), 2, "one budgeted frame per peer");
        assert!(out.iter().all(|o| o.copy == 0));

        let mut single = RoundEngine::new(
            algo,
            ProcessId::new(0),
            3,
            7,
            Framing::fixed(CodeSpec::Fountain { repair: 2 }),
            1,
            10,
        );
        let baseline = sent(|emit| single.begin_round_with(emit));
        assert!(
            out[0].bytes.len() > baseline[0].bytes.len(),
            "folded copies surface as extra repair symbols ({} vs {})",
            out[0].bytes.len(),
            baseline[0].bytes.len()
        );
        // And the inflated frame still decodes at a peer.
        let algo: Ate<u64> = Ate::new(AteParams::balanced(3, 0).unwrap());
        let mut peer = RoundEngine::new(
            algo,
            ProcessId::new(1),
            3,
            7,
            Framing::fixed(CodeSpec::Fountain { repair: 2 }),
            3,
            10,
        );
        peer.begin_round_with(|_, _, _| {});
        assert_eq!(peer.ingest(&out[0].bytes), Ingest::Kept);
    }

    #[test]
    fn oblivious_rung_signals_through_full_content_corruption() {
        // Engines pinned to the oblivious rung, with an adversary
        // rewriting EVERY byte of every frame in flight: the count
        // channel still carries the values and the system still
        // decides — the content was never trusted in the first place.
        let n = 3;
        let cfg = AdaptiveConfig::standard(n, 1).with_oblivious();
        let top = (cfg.ladder.len() - 1) as u8;
        let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
        let mut engines: Vec<RoundEngine<Ate<u64>>> = (0..n)
            .map(|p| {
                let mut state = CtlState::initial(&cfg);
                state.rung = top;
                RoundEngine::new(
                    algo.clone(),
                    ProcessId::new(p as u32),
                    n,
                    (p % 2) as u64,
                    Framing::adaptive(
                        Arc::clone(&book),
                        AdaptiveController::from_state(cfg.clone(), state),
                    ),
                    1,
                    12,
                )
            })
            .collect();
        for _ in 0..3 {
            let mut wires: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); n];
            for (p, engine) in engines.iter_mut().enumerate() {
                engine.begin_round_with(|dest, _copy, bytes| {
                    let garbage: Vec<u8> = bytes.iter().map(|b| !b).collect();
                    wires[dest as usize].push((p as u32, garbage));
                });
            }
            for (p, engine) in engines.iter_mut().enumerate() {
                for (sender, bytes) in &wires[p] {
                    assert_eq!(engine.ingest_from(*sender, bytes), Ingest::Counted);
                }
                assert!(
                    !engine.round_complete(),
                    "counts fold in at finish_round, not before"
                );
                engine.finish_round();
            }
        }
        let first = engines[0]
            .decision()
            .copied()
            .expect("count channel decides");
        for e in &engines {
            assert_eq!(
                e.decision(),
                Some(&first),
                "agreement under full corruption"
            );
        }
    }

    #[test]
    fn pattern_frames_fall_through_without_the_oblivious_rung() {
        // Same 2-byte wire image, ladder without the rung: ingest_from
        // must behave exactly like ingest (a rejected decode).
        let mut e = engine(3, 1);
        e.begin_round_with(|_, _, _| {});
        assert_eq!(
            e.ingest_from(1, &heardof_coding::oblivious_value_frame()),
            Ingest::Rejected,
            "no oblivious rung, no count channel"
        );
    }

    proptest::proptest! {
        /// A peer replaying decodable frames cannot grow the early-arrival
        /// buffer: one entry per (future round, sender), the first to
        /// arrive — which is the one the round keeps when it opens.
        #[test]
        fn future_buffer_holds_one_frame_per_round_and_sender(
            arrivals in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..300),
        ) {
            // `engine` is process 0 with a ten-round horizon.
            let (n, max_rounds) = (5usize, 10u64);
            let framing = Framing::fixed(CodeSpec::DEFAULT);
            let mut e = engine(n, 3);
            e.begin_round_with(|_, _, _| {});
            // The first copy to arrive per (round, sender) ahead of the
            // open round.
            let mut first: HashMap<(u64, u32), u8> = HashMap::new();
            for x in arrivals {
                if (x >> 24) % 8 == 0 && e.current_round() < max_rounds {
                    e.finish_round();
                    e.begin_round_with(|_, _, _| {});
                    for ((_, sender), copy) in first.iter().filter(|((r, _), _)| *r == e.round) {
                        let kept = e.kept_this_round.contains(&(*sender, *copy));
                        assert!(kept, "round {}: {sender}/{copy} was not drained", e.round);
                    }
                    continue;
                }
                // Claimed round, sender and copy straddle the valid
                // ranges: past the horizon and out-of-range senders are
                // garbage, sender 0 is the engine itself.
                let frame = Frame {
                    round: (x % 13) as u64,
                    sender: (x >> 8) % 6,
                    copy: (x >> 16) as u8 % 3,
                    msg: 1u64,
                };
                let verdict = e.ingest(&framing.wire(&frame));
                let at = (frame.round, frame.sender);
                if (frame.sender as usize) < n && (e.round + 1..=max_rounds).contains(&frame.round) {
                    if frame.sender != 0 && !first.contains_key(&at) {
                        assert_eq!(verdict, Ingest::Future);
                        first.insert(at, frame.copy);
                    } else {
                        assert_eq!(verdict, Ingest::Duplicate, "a replay is not buffered");
                    }
                }
                let buffered: usize = e.future.values().map(Vec::len).sum();
                let bound = (n - 1) * (max_rounds - e.round) as usize;
                assert!(buffered <= bound, "{buffered} buffered in round {}", e.round);
            }
        }
    }

    #[test]
    fn link_index_skips_self() {
        assert_eq!(link_index(0, 2), 0);
        assert_eq!(link_index(1, 2), 1);
        assert_eq!(link_index(3, 2), 2);
        assert_eq!(link_index(4, 2), 3);
    }

    #[test]
    #[should_panic(expected = "previous round still open")]
    fn double_begin_panics() {
        let mut e = engine(2, 1);
        e.begin_round_with(|_, _, _| {});
        e.begin_round_with(|_, _, _| {});
    }
}

#[cfg(test)]
mod mux_tests {
    use super::*;
    use heardof_coding::{
        pack_slots_into, AdaptiveConfig, AdaptiveController, CodeBook, CodeError,
    };
    use heardof_core::{Ate, AteParams};
    use std::sync::Arc;

    fn mux_engine(n: usize, k: usize, copies: u8) -> MuxRoundEngine<Ate<u64>> {
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
        MuxRoundEngine::new(
            algo,
            ProcessId::new(0),
            n,
            (0..k as u64).collect(),
            Framing::fixed(CodeSpec::DEFAULT),
            copies,
            10,
        )
    }

    /// A closed loop of mux engines over a perfect in-memory wire.
    fn run_clean_mux(n: usize, k: usize, rounds: u64) -> Vec<MuxRoundEngine<Ate<u64>>> {
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
        let mut engines: Vec<MuxRoundEngine<Ate<u64>>> = (0..n)
            .map(|p| {
                MuxRoundEngine::new(
                    algo.clone(),
                    ProcessId::new(p as u32),
                    n,
                    (0..k as u64).map(|i| (i + p as u64) % 2).collect(),
                    Framing::fixed(CodeSpec::DEFAULT),
                    1,
                    rounds,
                )
            })
            .collect();
        // One wire buffer for the whole run: inner vectors are cleared
        // per round, not reallocated.
        let mut wires: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
        for _ in 0..rounds {
            for inbox in wires.iter_mut() {
                inbox.clear();
            }
            for engine in engines.iter_mut() {
                engine.begin_round_with(|dest, _copy, bytes| {
                    wires[dest as usize].push(bytes.to_vec());
                });
            }
            for (p, engine) in engines.iter_mut().enumerate() {
                for bytes in &wires[p] {
                    assert_eq!(engine.ingest(bytes), Ingest::Kept);
                }
                assert!(engine.round_complete());
                engine.finish_round();
            }
        }
        engines
    }

    #[test]
    fn every_instance_decides_and_agrees_across_processes() {
        let (n, k) = (5, 7);
        let engines = run_clean_mux(n, k, 4);
        for i in 0..k {
            let first = engines[0].decision(i).copied().unwrap();
            for e in &engines {
                assert_eq!(e.decision(i), Some(&first), "instance {i} agreement");
            }
        }
        assert!(engines.iter().all(|e| e.all_decided()));
    }

    #[test]
    fn one_wire_image_per_peer_regardless_of_instances() {
        let mut e = mux_engine(4, 9, 1);
        let out = sent(|emit| e.begin_round_with(emit));
        assert_eq!(out.len(), 3, "one image per peer, not per instance");
        // The image amortizes framing: it is far smaller than 9
        // independent frames would be.
        let single = sent(|emit| mux_engine(4, 1, 1).begin_round_with(emit));
        assert!(out[0].bytes.len() < 9 * single[0].bytes.len());
    }

    #[test]
    fn slot_corruption_never_misroutes_an_instance() {
        let mut a = mux_engine(2, 3, 1);
        let out = sent(|emit| a.begin_round_with(emit));
        let algo: Ate<u64> = Ate::new(AteParams::balanced(2, 0).unwrap());
        let mut b = MuxRoundEngine::new(
            algo,
            ProcessId::new(1),
            2,
            vec![0, 1, 0],
            Framing::fixed(CodeSpec::DEFAULT),
            1,
            10,
        );
        b.begin_round_with(|_, _, _| {});
        // Every single-byte corruption of the wire image is rejected or
        // garbage — never a partial keep.
        for i in 0..out[0].bytes.len() {
            let mut hit = out[0].bytes.clone();
            hit[i] ^= 0x10;
            let got = b.ingest(&hit);
            assert!(
                matches!(got, Ingest::Rejected | Ingest::Garbage),
                "byte {i}: {got:?}"
            );
        }
        // And the pristine image still lands.
        assert_eq!(b.ingest(&out[0].bytes), Ingest::Kept);
        assert!(b.round_complete());
    }

    #[test]
    fn instance_count_mismatch_is_garbage() {
        let mut a = mux_engine(2, 2, 1);
        let out = sent(|emit| a.begin_round_with(emit));
        let algo: Ate<u64> = Ate::new(AteParams::balanced(2, 0).unwrap());
        let mut b = MuxRoundEngine::new(
            algo,
            ProcessId::new(1),
            2,
            vec![0, 1, 0], // expects 3 slots, sender packs 2
            Framing::fixed(CodeSpec::DEFAULT),
            1,
            10,
        );
        b.begin_round_with(|_, _, _| {});
        assert_eq!(b.ingest(&out[0].bytes), Ingest::Garbage);
    }

    #[test]
    fn duplicate_images_dedupe_at_the_wire_level() {
        let mut a = mux_engine(2, 4, 3);
        let out = sent(|emit| a.begin_round_with(emit));
        assert_eq!(out.len(), 3, "three copies of the one image");
        let algo: Ate<u64> = Ate::new(AteParams::balanced(2, 0).unwrap());
        let mut b = MuxRoundEngine::new(
            algo,
            ProcessId::new(1),
            2,
            vec![0, 1, 0, 1],
            Framing::fixed(CodeSpec::DEFAULT),
            3,
            10,
        );
        b.begin_round_with(|_, _, _| {});
        assert_eq!(b.ingest(&out[0].bytes), Ingest::Kept);
        assert_eq!(b.ingest(&out[1].bytes), Ingest::Duplicate);
        assert_eq!(b.ingest(&out[2].bytes), Ingest::Duplicate);
    }

    #[test]
    fn future_images_are_buffered_and_drained() {
        let mut a = mux_engine(2, 2, 1);
        a.begin_round_with(|_, _, _| {});
        a.finish_round();
        let r2 = sent(|emit| a.begin_round_with(emit));
        let algo: Ate<u64> = Ate::new(AteParams::balanced(2, 0).unwrap());
        let mut b = MuxRoundEngine::new(
            algo,
            ProcessId::new(1),
            2,
            vec![0, 1],
            Framing::fixed(CodeSpec::DEFAULT),
            1,
            10,
        );
        b.begin_round_with(|_, _, _| {});
        assert_eq!(b.ingest(&r2[0].bytes), Ingest::Future, "round 2 buffered");
        b.finish_round();
        b.begin_round_with(|_, _, _| {});
        assert!(b.round_complete(), "buffered image drained into round 2");
    }

    proptest::proptest! {
        /// Same bound as the single-instance engine: a replayed future
        /// image (k messages each) is answered `Duplicate`, not buffered.
        #[test]
        fn future_buffer_holds_one_image_per_round_and_sender(
            arrivals in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..300),
        ) {
            // `mux_engine` is process 0 with a ten-round horizon.
            let (n, k, max_rounds) = (5usize, 3usize, 10u64);
            let framing = Framing::fixed(CodeSpec::DEFAULT);
            // One image as peer `sender` would emit it in `round`.
            let wire = |round: u64, sender: u32, copy: u8| {
                let mut body = BytesMut::new();
                encode_body_into(&Frame { round, sender, copy, msg: 1u64 }, &mut body);
                let slots: Vec<(u32, &[u8])> = (0..k as u32).map(|i| (i, &body[..])).collect();
                let mut image = Vec::new();
                pack_slots_into(&slots, &mut image);
                let mut wire = BytesMut::new();
                framing.encode_raw_into(&image, &mut wire);
                wire
            };
            let mut e = mux_engine(n, k, 3);
            e.begin_round_with(|_, _, _| {});
            let mut seen: std::collections::HashSet<(u64, u32)> = Default::default();
            for x in arrivals {
                if (x >> 24) % 8 == 0 && e.current_round() < max_rounds {
                    e.finish_round();
                    e.begin_round_with(|_, _, _| {});
                    let drained = seen.iter().filter(|(r, _)| *r == e.round).count();
                    assert_eq!(e.kept_this_round.len(), 1 + drained, "self plus the drained");
                    continue;
                }
                let (round, sender) = ((x % 13) as u64, (x >> 8) % 6);
                let verdict = e.ingest(&wire(round, sender, (x >> 16) as u8 % 3));
                if (sender as usize) < n && (e.round + 1..=max_rounds).contains(&round) {
                    let fresh = sender != 0 && seen.insert((round, sender));
                    let expected = if fresh { Ingest::Future } else { Ingest::Duplicate };
                    assert_eq!(verdict, expected);
                }
                let buffered: usize = e.future.values().map(Vec::len).sum();
                let bound = (n - 1) * (max_rounds - e.round) as usize;
                assert!(buffered <= bound, "{buffered} buffered in round {}", e.round);
            }
        }
    }

    #[test]
    fn adaptive_mux_escalates_under_starvation_with_one_controller() {
        let n = 5;
        let cfg = AdaptiveConfig::standard(n, 1);
        let book = Arc::new(
            CodeBook::new(&cfg.ladder)
                .map_err(|_| CodeError::Malformed)
                .unwrap(),
        );
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 1).unwrap());
        let mut e = MuxRoundEngine::new(
            algo,
            ProcessId::new(0),
            n,
            vec![7, 8, 9],
            Framing::adaptive(Arc::clone(&book), AdaptiveController::new(cfg)),
            1,
            40,
        );
        let mut switched = None;
        for _ in 0..10 {
            e.begin_round_with(|_, _, _| {});
            if let Some(spec) = e.finish_round() {
                switched = Some(spec);
                break;
            }
        }
        let spec = switched.expect("full omission pressure must escalate");
        assert_ne!(spec, CodeSpec::Checksum { width: 4 });
        assert_eq!(e.current_code(), spec);
        let report = e.into_report();
        assert_eq!(report.codes[0], CodeSpec::Checksum { width: 4 });
        assert_eq!(report.decisions.len(), 3);
    }
}
