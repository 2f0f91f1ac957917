//! Instance-multiplexed rounds: many consensus instances, one wire
//! image per link per round.
//!
//! Production traffic rarely runs a single consensus instance per
//! link. Driving `k` independent [`RoundEngine`](crate::RoundEngine)s
//! over the same links costs `k` tag bytes, `k` advert bytes, `k`
//! coding passes and `k` per-frame fixed costs *per peer per round*.
//! [`MuxRoundEngine`] runs the same `k` HO-machines behind **one**
//! [`Framing`]: per peer it packs every instance's frame body into a
//! single slot image ([`pack_slots_into`]), pays the tagged header and the
//! advert once, and pushes the whole image through one coding pass —
//! which is where the bitsliced SECDED hot path earns its keep, because
//! the batch amortizes the transpose over every instance at once.
//!
//! ```text
//! [tag][advert?] ++ code.encode( [count][id|len|body]… [crc32] )
//!                                └── one slot per instance ──┘
//! ```
//!
//! The fault model stays per-link and per-round, exactly as in the
//! paper: one wire image either arrives, is repaired, or is dropped —
//! for *all* of its instances at once. Consequently every instance
//! observes the same heard-of set each round (the per-instance `HO`
//! sets are equal by construction), the controller sees **one**
//! [`RoundTally`] per link per round, and batch size 1 is
//! wire-compatible with nothing — it is a different format (count
//! byte + CRC trailer) — but *engine*-compatible: the single-instance
//! [`RoundEngine`](crate::RoundEngine) is untouched, so existing runs
//! are byte-identical.

use crate::codec::{decode_body, encode_body_into, Frame, WireMessage, COPY_OFFSET};
use crate::framing::Framing;
use crate::process::ProcessCore;
use crate::round::Ingest;
use bytes::BytesMut;
use heardof_coding::{
    pack_slots_into, patch_slots, unpack_slots_view, CodeSpec, RoundTally, RungAdvert,
};
use heardof_model::{HoAlgorithm, ProcessId, ReceptionVector, Round};
use heardof_telemetry::{Event, EventKind, Telemetry, NO_PEER};
use std::collections::HashMap;

/// A decoded-but-early mux image buffered for a future round: sender,
/// copy, repair flag, piggybacked advert, and one message per instance.
type EarlyImage<M> = (u32, u8, bool, Option<RungAdvert>, Vec<M>);

/// A finished mux engine's observable log.
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

/// `k` instance HO-machines behind one shared [`Framing`]: per peer and
/// round, one packed, coded wire image instead of `k` frames. Drive it
/// exactly like a [`RoundEngine`](crate::RoundEngine) —
/// `begin_round_with` / `ingest` / `finish_round` — over any byte
/// substrate.
pub struct MuxRoundEngine<A: HoAlgorithm>
where
    A::Msg: WireMessage,
{
    cores: Vec<ProcessCore<A>>,
    framing: Framing,
    copies: u8,
    max_rounds: u64,
    /// Round currently open (0 before the first `begin_round`).
    round: u64,
    /// One reception vector per instance; all instances hear the same
    /// senders (one image carries all slots), only the messages differ.
    rx: Vec<ReceptionVector<A::Msg>>,
    /// Wire-level kept images this round (self first, then one entry
    /// per distinct sender).
    kept_this_round: Vec<(u32, u8)>,
    corrected_this_round: usize,
    /// Images the code rejected this round while visibly repairing
    /// blocks — same repair-evidence rule as the single-instance
    /// engine, counted per wire image.
    evidence_this_round: usize,
    ads_this_round: Vec<(u32, RungAdvert)>,
    future: HashMap<u64, Vec<EarlyImage<A::Msg>>>,
    kept: Vec<Vec<(u32, u8)>>,
    codes: Vec<CodeSpec>,
    rounds_completed: u64,
    telemetry: Telemetry,
    /// Reusable slot-body slab: per peer, every instance's frame body
    /// is encoded back-to-back into this one buffer; after warm-up it
    /// never grows again.
    slot_arena: BytesMut,
    /// The slab the wire arenas were last coded from.
    coded_slab: BytesMut,
    /// `(start, end)` of each instance's body within the slab.
    slot_ranges: Vec<(usize, usize)>,
    /// Reusable packed mux image (the `pack_slots_into` output).
    image_arena: Vec<u8>,
    /// Reusable coded wire images, one per retransmission copy.
    wire_arenas: Vec<BytesMut>,
    /// One decoded message per instance of the image being ingested,
    /// parked here between slot validation and [`Self::keep_image`].
    msgs_arena: Vec<A::Msg>,
}

impl<A: HoAlgorithm> MuxRoundEngine<A>
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
        assert!(n > 0, "system must have at least one process");
        assert!(copies >= 1, "at least one copy per frame");
        assert!(!initials.is_empty(), "at least one instance");
        assert!(
            initials.len() <= heardof_coding::MAX_SLOTS,
            "a mux image holds at most {} instances, got {}",
            heardof_coding::MAX_SLOTS,
            initials.len()
        );
        let k = initials.len();
        MuxRoundEngine {
            cores: initials
                .into_iter()
                .map(|v| ProcessCore::new(algo.clone(), me, n, v))
                .collect(),
            framing,
            copies,
            max_rounds,
            round: 0,
            rx: (0..k).map(|_| ReceptionVector::new(n)).collect(),
            kept_this_round: Vec::new(),
            corrected_this_round: 0,
            evidence_this_round: 0,
            ads_this_round: Vec::new(),
            future: HashMap::new(),
            kept: Vec::new(),
            codes: Vec::new(),
            rounds_completed: 0,
            telemetry: Telemetry::null(),
            slot_arena: BytesMut::new(),
            coded_slab: BytesMut::new(),
            slot_ranges: Vec::new(),
            image_arena: Vec::new(),
            wire_arenas: (0..copies).map(|_| BytesMut::new()).collect(),
            msgs_arena: Vec::new(),
        }
    }

    /// Routes engine- and (via the framing) controller-plane events to
    /// `telemetry`. Off (null) by default.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        let me = self.cores[0].me().as_u32();
        self.framing.set_telemetry(telemetry.clone(), me);
        self.telemetry = telemetry;
        self
    }

    /// Number of multiplexed instances.
    pub fn instances(&self) -> usize {
        self.cores.len()
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

    /// Instance `i`'s HO-machine (state, decision snapshots).
    pub fn core(&self, i: usize) -> &ProcessCore<A> {
        &self.cores[i]
    }

    /// Instance `i`'s first decision value, if it decided.
    pub fn decision(&self, i: usize) -> Option<&A::Value> {
        self.cores[i].first_decision().map(|(_, v)| v)
    }

    /// `true` once every instance has decided.
    pub fn all_decided(&self) -> bool {
        self.cores.iter().all(|c| c.first_decision().is_some())
    }

    /// Opens the next round: one packed wire image per peer (times
    /// `copies`, unless a rateless budget folds them), self-delivery to
    /// every instance locally, early images drained into the round.
    /// Every coded image is handed to `emit(dest, copy, wire)` as a
    /// borrow of an internal arena, valid only for the duration of the
    /// call.
    ///
    /// Per peer, all `k` instance bodies are serialised into a slab; a
    /// slab byte-identical to the previous peer's re-emits the images
    /// already coded (a broadcast round packs and codes once, not once
    /// per peer), any other is packed once and coded per copy, a
    /// retransmission copy patching each slot's copy byte in the packed
    /// image ([`patch_slots`]) rather than re-encoding anything. Under a
    /// rateless rung the symbol budget is additionally priced **per
    /// wire image**: one pooled repair allowance for the whole batch
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
        let me = self.cores[0].me();
        let n = self.cores[0].n();
        let k = self.cores.len();
        self.codes.push(self.framing.current_spec());
        self.rx.iter_mut().for_each(ReceptionVector::clear);
        self.kept_this_round.clear();
        self.corrected_this_round = 0;
        self.evidence_this_round = 0;
        self.ads_this_round.clear();

        // Self-delivery: local, never on the wire, one image's worth of
        // bookkeeping for all instances at once.
        for i in 0..k {
            let own = self.cores[i].send_to(round, me);
            self.rx[i].set(me, own);
        }
        self.kept_this_round.push((me.as_u32(), 0));
        self.telemetry.emit(Event {
            round: r,
            process: me.as_u32(),
            kind: EventKind::FrameKept,
            peer: me.as_u32(),
            value: 0,
        });

        // Same copies shim as the single-instance engine — a rateless
        // rung folds whole-image retransmissions into extra repair
        // symbols — then the batch axis: one image protects `k`
        // instances at once, so its repair pool is negotiated for the
        // batch rather than multiplied by it.
        let budget = self
            .framing
            .symbol_budget()
            .map(|b| b.fold_copies(self.copies).for_batch(k));
        let copies_out = if budget.is_some() { 1 } else { self.copies };
        if budget.is_some() && self.copies > 1 {
            self.telemetry.emit(Event::local(
                EventKind::CopiesFolded,
                r,
                me.as_u32(),
                self.copies as u64,
            ));
        }
        let mut slab = std::mem::take(&mut self.slot_arena);
        let mut coded = std::mem::take(&mut self.coded_slab);
        let ranges = &mut self.slot_ranges;
        let image = &mut self.image_arena;
        let wires = &mut self.wire_arenas[..copies_out as usize];
        // Nothing is coded yet under this round's framing and budget.
        coded.clear();
        for q in 0..n as u32 {
            if q == me.as_u32() {
                continue;
            }
            slab.clear();
            ranges.clear();
            for core in &self.cores {
                let start = slab.len();
                encode_body_into(
                    &Frame {
                        round: r,
                        sender: me.as_u32(),
                        copy: 0,
                        msg: core.send_to(round, ProcessId::new(q)),
                    },
                    &mut slab,
                );
                ranges.push((start, slab.len()));
            }
            // Same rule as the single-instance engine: pack and code
            // only a slab that differs from the one last coded. Bodies
            // carry their own length, so equal slab bytes split into
            // equal slots.
            if slab != coded {
                let slots: Vec<(u32, &[u8])> = ranges
                    .iter()
                    .enumerate()
                    .map(|(i, &(start, end))| (i as u32, &slab[start..end]))
                    .collect();
                pack_slots_into(&slots, image);
                for (copy, wire) in wires.iter_mut().enumerate() {
                    if copy > 0 {
                        // Identical image apart from each slot's copy byte.
                        patch_slots(image, |body| body[COPY_OFFSET] = copy as u8);
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
        self.slot_arena = slab;
        self.coded_slab = coded;

        if let Some(images) = self.future.remove(&r) {
            for (sender, copy, repaired, advert, msgs) in images {
                self.msgs_arena = msgs;
                self.keep_image(sender, copy, repaired, advert);
            }
        }
    }

    /// An image of `round` that lost to an earlier one from its sender.
    fn duplicate(&self, round: u64, sender: u32, copy: u8) -> Ingest {
        self.telemetry.emit(Event {
            round,
            process: self.cores[0].me().as_u32(),
            kind: EventKind::FrameDuplicate,
            peer: sender,
            value: copy as u64,
        });
        Ingest::Duplicate
    }

    /// First valid image per sender wins — wire-level dedupe, exactly
    /// one tally contribution per sender per round. The image's messages
    /// are the contents of `msgs_arena`, one per instance.
    fn keep_image(
        &mut self,
        sender: u32,
        copy: u8,
        repaired: bool,
        advert: Option<RungAdvert>,
    ) -> Ingest {
        let me = self.cores[0].me().as_u32();
        let sid = ProcessId::new(sender);
        if self.rx[0].get(sid).is_some() {
            return self.duplicate(self.round, sender, copy);
        }
        self.telemetry.emit(Event {
            round: self.round,
            process: me,
            kind: EventKind::FrameKept,
            peer: sender,
            value: copy as u64,
        });
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

    /// Feeds one wire arrival through coded decode, mux unpack, slot
    /// sanity and round routing. The whole image shares one fate: any
    /// slot-level inconsistency drops all of it (a detected omission /
    /// garbage), never a subset of instances.
    pub fn ingest(&mut self, bytes: &[u8]) -> Ingest {
        let me = self.cores[0].me().as_u32();
        let n = self.cores[0].n();
        let k = self.cores.len();
        let garbage = |s: &mut Self, value: u64| {
            s.telemetry.emit(Event {
                round: s.round,
                process: me,
                kind: EventKind::FrameGarbage,
                peer: NO_PEER,
                value,
            });
            Ingest::Garbage
        };
        // Code layer: rejected images keep their repair evidence, same
        // rule as `RoundEngine::ingest`. The view decode borrows the
        // input on detection-only rungs — no copy of the image is made
        // unless a correcting code actually rewrote bytes.
        let scan = self.framing.decode_raw_view(bytes);
        let Some((image, repaired, advert)) = scan.image else {
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
        // Mux layer: the image is self-checking — a miscorrection that
        // survived the code and landed in a slot header fails the parse
        // or the CRC trailer here, and the image is dropped whole. The
        // slot view walks the image in place; slot bodies are borrowed.
        let Ok(slots) = unpack_slots_view(&image) else {
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
        // Slot sanity: exactly our instance set in order, every body a
        // parsable frame, and one consistent (round, sender, copy)
        // header across all slots.
        if slots.len() != k {
            return garbage(self, slots.len() as u64);
        }
        // Every slot is checked before any instance hears anything: the
        // messages wait in the arena, which outlives the image.
        self.msgs_arena.clear();
        self.msgs_arena.reserve(k);
        let mut header: Option<(u64, u32, u8)> = None;
        for (i, (id, body)) in slots.iter().enumerate() {
            if id != i as u32 {
                return garbage(self, id as u64);
            }
            let Ok(frame) = decode_body::<A::Msg>(body) else {
                return garbage(self, i as u64);
            };
            let h = (frame.round, frame.sender, frame.copy);
            if *header.get_or_insert(h) != h {
                return garbage(self, frame.round);
            }
            self.msgs_arena.push(frame.msg);
        }
        let (round, sender, copy) = header.expect("at least one instance");
        if sender as usize >= n || round > self.max_rounds {
            return garbage(self, round);
        }
        if round < self.round {
            self.telemetry.emit(Event {
                round: self.round,
                process: me,
                kind: EventKind::FrameLate,
                peer: sender,
                value: round,
            });
            return Ingest::Late;
        }
        if round > self.round {
            // One buffered image per (round, sender), same rule and same
            // reason as `RoundEngine::ingest`.
            let buffered = self.future.get(&round);
            if sender == me || buffered.is_some_and(|early| early.iter().any(|e| e.0 == sender)) {
                return self.duplicate(round, sender, copy);
            }
            self.telemetry.emit(Event {
                round: self.round,
                process: me,
                kind: EventKind::FrameFuture,
                peer: sender,
                value: round,
            });
            let msgs = std::mem::take(&mut self.msgs_arena);
            self.future
                .entry(round)
                .or_default()
                .push((sender, copy, repaired, advert, msgs));
            return Ingest::Future;
        }
        self.keep_image(sender, copy, repaired, advert)
    }

    /// `true` once an image from every sender (including self) has been
    /// kept this round.
    pub fn round_complete(&self) -> bool {
        self.rx[0].heard_count() == self.cores[0].n()
    }

    /// Closes the round: every instance transitions on its reception
    /// vector, then ONE tally — per link, not per instance — reaches
    /// the shared controller together with the round's peer adverts.
    /// Returns the new spec when the controller switched.
    pub fn finish_round(&mut self) -> Option<CodeSpec> {
        assert_eq!(
            self.round,
            self.rounds_completed + 1,
            "no round open — call begin_round first"
        );
        let r = self.round;
        let me = self.cores[0].me().as_u32();
        let n = self.cores[0].n();
        let round = Round::new(r);
        for (core, rx) in self.cores.iter_mut().zip(&self.rx) {
            core.transition(round, rx);
        }

        // Wire-level dedupe makes senders distinct by construction.
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

    /// Consumes the engine into its observable log (a round begun but
    /// never finished is dropped from the code log).
    pub fn into_report(mut self) -> MuxReport<A::Value>
    where
        A::Value: Clone,
    {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::sent;
    use heardof_coding::{AdaptiveConfig, AdaptiveController, CodeBook, CodeError};
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
