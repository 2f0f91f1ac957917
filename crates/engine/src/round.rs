//! The substrate-agnostic round core.
//!
//! Both deployment substrates used to interleave the same per-process
//! state machine — algorithm step, adaptive framing, tagged
//! encode/decode, early-frame buffering, end-of-round renegotiation —
//! with their transport plumbing. [`RoundEngine`] is that machine
//! factored out once, in poll style: a substrate only moves bytes and
//! clocks.
//!
//! ```text
//! loop {
//!     engine.begin_round_with(|dest, copy, wire| {
//!         /* substrate: copy the coded frame onto the wire to `dest` */
//!     });
//!     /* substrate: gather arrivals */
//!     engine.ingest(&bytes);                 // 0..many times
//!     /* substrate: decide the round is over (timeout / barrier) */
//!     engine.finish_round();                 // transition + renegotiate
//! }
//! ```
//!
//! Everything observable — controller decisions, kept-frame logs (the
//! receiver's side of `HO(p, r)`), decisions — is a pure function of
//! the byte sequences ingested per round, *independent of how frames
//! from different senders interleave* (first valid frame per sender
//! wins, and the choice per sender never depends on other senders; a
//! proptest in `tests/order_independence.rs` pins this). With
//! retransmission copies the invariant is scoped to **per-sender FIFO
//! delivery**: a transport that reorders one sender's copies against
//! each other can change *which* copy is kept (and hence the `SHO`
//! oracle key and repair tally when the copies fared differently in
//! flight). Every in-tree transport is per-link FIFO, so this holds;
//! that is what makes a threaded substrate, a cooperative async
//! substrate, and the lockstep simulator bit-for-bit comparable.

use crate::codec::{encode_body_into, Frame, WireMessage, COPY_OFFSET};
use crate::framing::Framing;
use crate::process::ProcessCore;
use bytes::BytesMut;
use heardof_coding::{
    decode_count, encode_count, oblivious_advert_frame, oblivious_channel, oblivious_value_frame,
    CodeSpec, ObliviousChannel, RoundTally, RungAdvert, OBL_MAX_EPOCH, OBL_MAX_VALUE,
};
use heardof_model::{HoAlgorithm, ProcessId, ReceptionVector, Round};
use heardof_telemetry::{Event, EventKind, Telemetry, NO_PEER};
use std::collections::HashMap;

/// Early arrivals buffered for a future round, with their repair flags
/// and piggybacked rung advertisements.
type Early<M> = Vec<(Frame<M>, bool, Option<RungAdvert>)>;

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

/// What [`RoundEngine::ingest`] did with a wire frame.
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
    /// Decoded but the header is impossible (sender out of range or
    /// round past the horizon) — miscorrected garbage, dropped.
    Garbage,
    /// A content-oblivious pattern frame: its *arrival* was tallied on
    /// the count channel and its bytes were never read — the signal a
    /// fully-defective adversary cannot forge (only delay). Only
    /// returned by [`RoundEngine::ingest_from`] on ladders carrying the
    /// oblivious rung.
    Counted,
}

/// A finished engine's observable log, per completed round: what the
/// substrate needs to assemble an outcome and reconstruct `HO`/`SHO`.
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

/// The per-process round machine: owns the algorithm step (via
/// [`ProcessCore`]), the framing (fixed or adaptive with per-round
/// renegotiation), frame encode/decode, early-frame buffering and the
/// per-round receiver tally. See the module docs for the drive loop.
pub struct RoundEngine<A: HoAlgorithm>
where
    A::Msg: WireMessage,
{
    core: ProcessCore<A>,
    framing: Framing,
    copies: u8,
    max_rounds: u64,
    /// Round currently open (0 before the first `begin_round`).
    round: u64,
    rx: ReceptionVector<A::Msg>,
    kept_this_round: Vec<(u32, u8)>,
    corrected_this_round: usize,
    /// Frames the code *rejected* this round while visibly repairing
    /// blocks on the way down — the repair evidence that used to be
    /// discarded with the frame. Counted per frame (0/1), it feeds
    /// [`RoundTally::evidence`] so the controller's activity estimate
    /// sees equivalent damage equivalently across rungs.
    evidence_this_round: usize,
    /// Rung advertisements piggybacked on the frames kept this round,
    /// keyed by sender (first kept frame per sender wins, exactly like
    /// the frames themselves — so the set is ingestion-order
    /// independent). Sorted by sender before reaching the controller.
    ads_this_round: Vec<(u32, RungAdvert)>,
    /// Per-sender value-channel arrival tallies for the open round —
    /// the content-oblivious signal. Allocated (length `n`) only when
    /// the framing's ladder carries the oblivious rung, so existing
    /// configurations pay nothing and ingest byte-identically.
    value_counts: Vec<u32>,
    /// Per-sender advert-channel arrival tallies, same gating.
    advert_counts: Vec<u32>,
    /// Frames that arrived early, keyed by round; each entry remembers
    /// whether its decode involved a repair (for that round's tally).
    future: HashMap<u64, Early<A::Msg>>,
    kept: Vec<Vec<(u32, u8)>>,
    codes: Vec<CodeSpec>,
    rounds_completed: u64,
    /// Engine-plane event sink (null by default; see
    /// [`RoundEngine::with_telemetry`]).
    telemetry: Telemetry,
    /// Reusable frame-body arena: after the first round it never grows
    /// again (bodies are the same shape every round), so the steady
    /// state allocates nothing per frame.
    body_arena: BytesMut,
    /// The body the wire arenas were last coded from (copy byte 0).
    coded_body: BytesMut,
    /// Reusable wire-image arenas, one per retransmission copy, same
    /// steady-state story.
    wire_arenas: Vec<BytesMut>,
}

impl<A: HoAlgorithm> RoundEngine<A>
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
        assert!(n > 0, "system must have at least one process");
        assert!(copies >= 1, "at least one copy per frame");
        let counts = if framing.oblivious_enabled() { n } else { 0 };
        RoundEngine {
            core: ProcessCore::new(algo, me, n, initial),
            framing,
            copies,
            max_rounds,
            round: 0,
            rx: ReceptionVector::new(n),
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
            wire_arenas: (0..copies).map(|_| BytesMut::new()).collect(),
        }
    }

    /// Routes engine-plane events (and, via the framing, controller-
    /// and budget-plane events) to `telemetry`. Off (null) by default.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        let me = self.core.me().as_u32();
        self.framing.set_telemetry(telemetry.clone(), me);
        self.telemetry = telemetry;
        self
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

    /// The underlying HO-machine (state, decision snapshots).
    pub fn core(&self) -> &ProcessCore<A> {
        &self.core
    }

    /// The first decision's value, if this process has decided.
    pub fn decision(&self) -> Option<&A::Value> {
        self.core.first_decision().map(|(_, v)| v)
    }

    /// The round of the first decision, if this process has decided.
    pub fn decision_round(&self) -> Option<u64> {
        self.core.first_decision().map(|(r, _)| *r)
    }

    /// Opens the next round: records the send code, runs the sending
    /// function, delivers to self locally (never on the wire, never
    /// corrupted), drains early arrivals buffered for this round, and
    /// hands every coded frame the substrate must transmit to
    /// `emit(dest, copy, wire)` as a borrow of an internal arena that
    /// is reused across frames and rounds. The borrow is valid only for
    /// the duration of the call — a substrate copies it onto the wire
    /// (or into its transport buffer) and returns. Every peer's body is
    /// serialised, but a body byte-identical to the previous peer's is
    /// not coded again: its wire images (one per retransmission copy,
    /// differing in the patched copy byte) are emitted a second time
    /// from their arenas. A broadcast round therefore costs `copies`
    /// code passes, not `(n−1)·copies`, an algorithm that addresses its
    /// peers individually costs what it always did, and neither
    /// allocates per frame on the engine side.
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
        let me = self.core.me();
        let n = self.core.n();
        self.codes.push(self.framing.current_spec());
        self.rx.clear();
        self.kept_this_round.clear();
        self.corrected_this_round = 0;
        self.evidence_this_round = 0;
        self.ads_this_round.clear();
        self.value_counts.fill(0);
        self.advert_counts.fill(0);

        // Self-delivery first: local, never dropped, never corrupted.
        let own = self.core.send_to(round, me);
        self.rx.set(me, own);
        self.kept_this_round.push((me.as_u32(), 0));
        self.telemetry.emit(Event {
            round: r,
            process: me.as_u32(),
            kind: EventKind::FrameKept,
            peer: me.as_u32(),
            value: 0,
        });

        if self.framing.current_spec() == CodeSpec::Oblivious {
            // Content-oblivious sends: the message never crosses the
            // wire as bytes — it is the NUMBER of fixed-length pattern
            // frames emitted inside this round window (`value + 1`
            // copies, a unary/thermometer code over the copies axis).
            // The frames' contents are zeros the receiver never reads,
            // so an adversary rewriting every payload byte changes
            // nothing; only dropping frames (an omission) has any
            // effect. Messages too wide for the 3-bit pattern channel
            // emit nothing and read as omissions. The configured
            // `copies` axis is ignored here — the count *is* the
            // redundancy axis. Gossip rides a second length-disjoint
            // channel carrying the sender's epoch the same way (the
            // rung is implied: a count-channel sender is by definition
            // on the ladder's last rung).
            let advert_copies = self
                .framing
                .controller()
                .and_then(|c| c.advert())
                .map_or(0, |ad| encode_count(ad.epoch, OBL_MAX_EPOCH));
            let value_frame = oblivious_value_frame();
            let advert_frame = oblivious_advert_frame();
            for q in 0..n as u32 {
                if q == me.as_u32() {
                    continue;
                }
                let msg = self.core.send_to(round, ProcessId::new(q));
                if let Some(v) = msg.pattern_value() {
                    for copy in 0..encode_count(v, OBL_MAX_VALUE) {
                        emit(q, copy as u8, &value_frame);
                    }
                }
                for copy in 0..advert_copies {
                    emit(q, copy as u8, &advert_frame);
                }
            }
        } else {
            // The copies shim: under a rateless code, whole-frame
            // retransmission copies fold into the symbol budget — one
            // frame per peer carrying `(copies − 1)·k` extra repair
            // symbols plus the negotiated allowance, instead of
            // `copies` duplicates. Redundancy is paid in the cheaper
            // currency, and the budget is the engine's (hence every
            // substrate's) single source of truth, so conformance holds
            // by construction.
            let budget = self
                .framing
                .symbol_budget()
                .map(|b| b.fold_copies(self.copies));
            let copies_out = if budget.is_some() { 1 } else { self.copies };
            if budget.is_some() && self.copies > 1 {
                self.telemetry.emit(Event::local(
                    EventKind::CopiesFolded,
                    r,
                    me.as_u32(),
                    self.copies as u64,
                ));
            }
            let mut body = std::mem::take(&mut self.body_arena);
            let mut coded = std::mem::take(&mut self.coded_body);
            let wires = &mut self.wire_arenas[..copies_out as usize];
            // Nothing is coded yet under this round's framing and budget.
            coded.clear();
            for q in 0..n as u32 {
                if q == me.as_u32() {
                    continue;
                }
                let msg = self.core.send_to(round, ProcessId::new(q));
                body.clear();
                encode_body_into(
                    &Frame {
                        round: r,
                        sender: me.as_u32(),
                        copy: 0,
                        msg,
                    },
                    &mut body,
                );
                // Coding is a pure function of the body within a round,
                // so equal bytes mean equal wire images: code only when
                // this peer's body differs from the one last coded.
                if body != coded {
                    for (copy, wire) in wires.iter_mut().enumerate() {
                        body[COPY_OFFSET] = copy as u8;
                        wire.clear();
                        self.framing.encode_raw(&body, budget, wire);
                    }
                    body[COPY_OFFSET] = 0;
                    std::mem::swap(&mut body, &mut coded);
                }
                for (copy, wire) in wires.iter().enumerate() {
                    emit(q, copy as u8, wire);
                }
            }
            self.body_arena = body;
            self.coded_body = coded;
        }

        // Early arrivals buffered for this round enter ahead of
        // whatever the substrate ingests next.
        if let Some(frames) = self.future.remove(&r) {
            for (frame, repaired, advert) in frames {
                self.keep(frame, repaired, advert);
            }
        }
    }

    /// A frame that lost to an earlier one from its sender.
    fn duplicate(&self, frame: &Frame<A::Msg>) -> Ingest {
        self.telemetry.emit(Event {
            round: frame.round,
            process: self.core.me().as_u32(),
            kind: EventKind::FrameDuplicate,
            peer: frame.sender,
            value: frame.copy as u64,
        });
        Ingest::Duplicate
    }

    /// First valid frame per sender wins; repairs and rung
    /// advertisements count toward the round's tally only when the
    /// frame is kept.
    fn keep(&mut self, frame: Frame<A::Msg>, repaired: bool, advert: Option<RungAdvert>) -> Ingest {
        let sender = ProcessId::new(frame.sender);
        let me = self.core.me().as_u32();
        if self.rx.get(sender).is_some() {
            return self.duplicate(&frame);
        }
        self.telemetry.emit(Event {
            round: frame.round,
            process: me,
            kind: EventKind::FrameKept,
            peer: frame.sender,
            value: frame.copy as u64,
        });
        self.kept_this_round.push((frame.sender, frame.copy));
        self.corrected_this_round += usize::from(repaired);
        if let Some(ad) = advert {
            self.ads_this_round.push((frame.sender, ad));
        }
        self.rx.set(sender, frame.msg);
        Ingest::Kept
    }

    /// [`RoundEngine::ingest`] with the transport's sender attribution
    /// — the entry point for ladders carrying the content-oblivious
    /// rung, whose count channel needs to know *which link* a pattern
    /// frame arrived on (the model's one incorruptible fact: arrival
    /// and its link survive any content rewrite). A pattern-length
    /// frame (2 or 3 bytes — lengths no tagged frame can have) from a
    /// valid peer is tallied per sender and never decoded; everything
    /// else falls through to [`RoundEngine::ingest`]. On ladders
    /// without the oblivious rung this *is* `ingest`, byte for byte.
    pub fn ingest_from(&mut self, sender: u32, bytes: &[u8]) -> Ingest {
        if !self.value_counts.is_empty() {
            if let Some(channel) = oblivious_channel(bytes.len()) {
                let me = self.core.me().as_u32();
                let open = self.round == self.rounds_completed + 1;
                if open && sender != me && (sender as usize) < self.core.n() {
                    let s = sender as usize;
                    match channel {
                        ObliviousChannel::Value => {
                            self.value_counts[s] = self.value_counts[s].saturating_add(1);
                        }
                        ObliviousChannel::Advert => {
                            self.advert_counts[s] = self.advert_counts[s].saturating_add(1);
                        }
                    }
                    return Ingest::Counted;
                }
            }
        }
        self.ingest(bytes)
    }

    /// Feeds one wire arrival through decode, header sanity and round
    /// routing. Call any number of times between `begin_round` and
    /// `finish_round`; the observable end-of-round state does not
    /// depend on ingestion order within the round.
    pub fn ingest(&mut self, bytes: &[u8]) -> Ingest {
        // A code rejection is a *detected* corruption: drop the frame,
        // producing an omission — but keep the repair evidence the code
        // reported on the way down: a frame it fought for and lost
        // still witnesses channel noise (see `RoundTally::evidence`).
        let me = self.core.me().as_u32();
        let scan = self.framing.decode_scan::<A::Msg>(bytes);
        let Some((frame, repaired, advert)) = scan.frame else {
            self.evidence_this_round += usize::from(scan.repairs > 0);
            self.telemetry.emit(Event {
                round: self.round,
                process: me,
                kind: EventKind::FrameRejected,
                peer: NO_PEER,
                value: bytes.len() as u64,
            });
            return Ingest::Rejected;
        };
        // A rate<1 code can (rarely) miscorrect header bits; a frame
        // claiming an impossible sender or round is garbage — drop it
        // like any detected corruption.
        if frame.sender as usize >= self.core.n() || frame.round > self.max_rounds {
            self.telemetry.emit(Event {
                round: self.round,
                process: me,
                kind: EventKind::FrameGarbage,
                peer: NO_PEER,
                value: frame.round,
            });
            return Ingest::Garbage;
        }
        if frame.round < self.round {
            self.telemetry.emit(Event {
                round: self.round,
                process: me,
                kind: EventKind::FrameLate,
                peer: frame.sender,
                value: frame.round,
            });
            return Ingest::Late; // the round is closed
        }
        if frame.round > self.round {
            // One buffered frame per (round, sender) — the first, which
            // is the one `keep` would keep when the round opens. Later
            // ones (and anything claiming to be from this process) get
            // the verdict the drain would have given them, now, so a
            // replaying peer cannot grow the buffer.
            let buffered = self.future.get(&frame.round);
            if frame.sender == me
                || buffered
                    .is_some_and(|early| early.iter().any(|(f, _, _)| f.sender == frame.sender))
            {
                return self.duplicate(&frame);
            }
            self.telemetry.emit(Event {
                round: self.round,
                process: me,
                kind: EventKind::FrameFuture,
                peer: frame.sender,
                value: frame.round,
            });
            self.future
                .entry(frame.round)
                .or_default()
                .push((frame, repaired, advert));
            return Ingest::Future;
        }
        self.keep(frame, repaired, advert)
    }

    /// `true` once a frame from every sender (including self) has been
    /// kept — substrates without a lockstep requirement may close the
    /// round early.
    pub fn round_complete(&self) -> bool {
        self.rx.heard_count() == self.core.n()
    }

    /// Closes the round: transition on the reception vector, then
    /// renegotiation — the receiver tally (distinct peers heard, frames
    /// kept after repair; undetected value faults are invisible by
    /// definition and enter as a zero estimate) goes to the controller
    /// together with the round's peer rung advertisements (sorted by
    /// sender, so the gossip decision is independent of ingestion
    /// order), and any new code applies from the next round's sends.
    /// Returns the new spec when the controller switched — whether by
    /// its own estimates or by gossip adoption.
    pub fn finish_round(&mut self) -> Option<CodeSpec> {
        assert_eq!(
            self.round,
            self.rounds_completed + 1,
            "no round open — call begin_round first"
        );
        let r = self.round;
        let me = self.core.me().as_u32();
        let n = self.core.n();

        // Count-channel synthesis: fold the round's per-sender pattern
        // tallies into the reception vector and the gossip set *before*
        // the transition, so a count-decoded value is exactly as good
        // as a content-decoded one. A tagged frame from the same sender
        // wins (the counts then only corroborate); one value per sender
        // either way. Iteration is in ascending sender order and counts
        // are commutative, so the result is ingestion-order
        // independent like everything else observable.
        if !self.value_counts.is_empty() {
            for s in 0..n as u32 {
                if s == me {
                    continue;
                }
                let vc = self.value_counts[s as usize];
                let ac = self.advert_counts[s as usize];
                if vc == 0 && ac == 0 {
                    continue;
                }
                self.telemetry.emit(Event {
                    round: r,
                    process: me,
                    kind: EventKind::ObliviousCount,
                    peer: s,
                    value: vc.min(0xFF) as u64 | ((ac.min(0xFF) as u64) << 8),
                });
                let sender = ProcessId::new(s);
                if self.rx.get(sender).is_none() {
                    if let Some(msg) = decode_count(vc as usize, OBL_MAX_VALUE)
                        .and_then(A::Msg::from_pattern_value)
                    {
                        self.telemetry.emit(Event {
                            round: r,
                            process: me,
                            kind: EventKind::FrameKept,
                            peer: s,
                            value: 0,
                        });
                        self.kept_this_round.push((s, 0));
                        self.rx.set(sender, msg);
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

        self.core.transition(Round::new(r), &self.rx);

        // `keep` admits at most one frame per sender (first valid
        // wins), so the kept log is already distinct by sender — a
        // plain count is the peer-delivery tally, no set needed.
        let delivered_peers = self
            .kept_this_round
            .iter()
            .filter(|(sender, _)| *sender != me)
            .count();
        let before = self.framing.current_spec();
        let mut ads = std::mem::take(&mut self.ads_this_round);
        ads.sort_by_key(|(sender, _)| *sender);
        let ads: Vec<RungAdvert> = ads.into_iter().map(|(_, ad)| ad).collect();
        self.framing.observe_with_gossip(
            RoundTally {
                expected: n - 1,
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

/// One coded frame as `emit` saw it — what the in-crate tests collect.
#[cfg(test)]
pub(crate) struct Sent {
    pub(crate) dest: u32,
    pub(crate) copy: u8,
    pub(crate) bytes: Vec<u8>,
}

/// Runs `begin` (an engine's `begin_round_with`, either engine) and
/// returns every frame it emitted.
#[cfg(test)]
pub(crate) fn sent(begin: impl FnOnce(&mut dyn FnMut(u32, u8, &[u8]))) -> Vec<Sent> {
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
