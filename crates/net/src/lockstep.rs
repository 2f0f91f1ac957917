//! The lockstep stepper: one communication-closed round over every
//! engine of a run, on one thread.
//!
//! A Heard-Of round is communication-closed: every round-`r` message is
//! sent before any round-`r` reception is read. A plain loop over the
//! processes is that round by definition, so [`Lockstep::round`] is
//! three steps:
//!
//! 1. every engine, in process order, emits its coded frames through
//!    its [`FaultyLink`]s into the receivers' mailboxes,
//! 2. every engine drains its mailbox into
//!    [`RoundMachine::ingest_from`],
//! 3. every engine finishes the round (transition + renegotiation).
//!
//! No clock and no scheduler: runs are fully deterministic. Each
//! process's mailbox is an **arena** — one byte buffer holding the
//! round's frames back to back, plus one `(sender, end offset)` record
//! per frame. A link appends the borrowed bytes it is handed (the
//! [`FrameSink`] side), and the drain hands each frame out as a slice of
//! the arena, in arrival order, keeping the arena's capacity for the
//! next round: nothing is allocated per frame. The mailbox is a FIFO of
//! *frames*: boundaries are kept exactly, however short the frames (the
//! content-oblivious count channel counts its 2- and 3-byte frames — a
//! merged or split one would be a wrong value, not a rejected frame).

use crate::fabric::RunFabric;
use crate::link::{FaultyLink, FrameSink};
use heardof_engine::{link_index, RoundMachine, WireLayout, WireMessage};
use heardof_model::HoAlgorithm;
use parking_lot::Mutex;
use std::sync::Arc;

/// Frames back to back in `bytes`; `frames[i]` is the `i`-th frame's
/// sender attribution and the offset one past its last byte.
#[derive(Default)]
struct Arena {
    bytes: Vec<u8>,
    frames: Vec<(u32, usize)>,
}

/// One process's receiving end: the links into it share the arena.
#[derive(Clone, Default)]
struct Mailbox(Arc<Mutex<Arena>>);

impl FrameSink for Mailbox {
    fn deliver(&self, sender: u32, frame: Vec<u8>) {
        self.deliver_bytes(sender, &frame);
    }

    /// Appends one sender-attributed wire frame. The attribution models
    /// which link the frame arrived on — known to the receiver
    /// regardless of content.
    fn deliver_bytes(&self, sender: u32, frame: &[u8]) {
        let mut arena = self.0.lock();
        arena.bytes.extend_from_slice(frame);
        let end = arena.bytes.len();
        arena.frames.push((sender, end));
    }
}

impl Mailbox {
    /// Hands every queued frame to `each` as `(sender, bytes)`, oldest
    /// first, then empties the arena, keeping its capacity. The stepper
    /// drains only after every send of the round, so nothing delivers
    /// while the drain holds the arena.
    fn drain(&self, mut each: impl FnMut(u32, &[u8])) {
        let mut arena = self.0.lock();
        let mut start = 0;
        for &(sender, end) in &arena.frames {
            each(sender, &arena.bytes[start..end]);
            start = end;
        }
        arena.bytes.clear();
        arena.frames.clear();
    }
}

/// The `n` engines of one run, their links and their mailboxes, stepped
/// one lockstep round at a time. Built by [`RunFabric::lockstep`]; see
/// the module docs for what a round does.
pub struct Lockstep<A: HoAlgorithm, L>
where
    A::Msg: WireMessage,
{
    engines: Vec<RoundMachine<A, L>>,
    /// `links[p]`: process `p`'s outgoing links, in `link_index` layout.
    links: Vec<Vec<FaultyLink>>,
    mailboxes: Vec<Mailbox>,
}

impl RunFabric {
    /// Wires `engines` (process `p` at index `p`, all of one run of
    /// this fabric) to one another through this fabric's links and one
    /// arena mailbox per process.
    pub fn lockstep<A, L>(&self, engines: Vec<RoundMachine<A, L>>) -> Lockstep<A, L>
    where
        A: HoAlgorithm,
        A::Msg: WireMessage,
    {
        let n = engines.len();
        let mailboxes: Vec<Mailbox> = (0..n).map(|_| Mailbox::default()).collect();
        let links = (0..n)
            .map(|p| self.links_for(p, n, |q| Box::new(mailboxes[q].clone())))
            .collect();
        Lockstep {
            engines,
            links,
            mailboxes,
        }
    }
}

impl<A: HoAlgorithm, L: WireLayout> Lockstep<A, L>
where
    A::Msg: WireMessage,
{
    /// Runs round `r` — send, drain, finish, each over every engine in
    /// process order — and returns whether every engine has decided
    /// everything it runs. `r` is the round after the engines' last
    /// one: the links key faults and trace positions by it.
    ///
    /// # Panics
    ///
    /// Panics past the engines' `max_rounds`.
    pub fn round(&mut self, r: u64) -> bool {
        for (p, (engine, links)) in self.engines.iter_mut().zip(&mut self.links).enumerate() {
            engine.begin_round_with(|dest, copy, bytes| {
                links[link_index(dest, p as u32)].send_bytes(r, copy, bytes);
            });
        }
        for (engine, mailbox) in self.engines.iter_mut().zip(&self.mailboxes) {
            mailbox.drain(|sender, bytes| {
                let _ = engine.ingest_from(sender, bytes);
            });
        }
        for engine in &mut self.engines {
            engine.finish_round();
        }
        self.engines.iter().all(RoundMachine::all_decided)
    }

    /// The engines, in process order.
    pub fn engines(&self) -> &[RoundMachine<A, L>] {
        &self.engines
    }

    /// Hands the engines back, in process order.
    pub fn into_engines(self) -> Vec<RoundMachine<A, L>> {
        self.engines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkFaults;
    use bytes::BytesMut;
    use heardof_coding::{AdaptiveConfig, AdaptiveController, CodeBook, CodeSpec};
    use heardof_core::{Ate, AteParams};
    use heardof_engine::{encode_body_into, BareFrame, Frame, Framing, RoundEngine};
    use heardof_telemetry::{EventKind, Telemetry};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn drained(mailbox: &Mailbox) -> Vec<(u32, Vec<u8>)> {
        let mut got = Vec::new();
        mailbox.drain(|sender, bytes| got.push((sender, bytes.to_vec())));
        got
    }

    /// The frames the count channel *counts* are 2 and 3 bytes long and
    /// all alike: only their number and attribution carry the value.
    #[test]
    fn frame_boundaries_and_arrival_order_survive_exactly() {
        let mailbox = Mailbox::default();
        assert_eq!(
            drained(&mailbox),
            vec![],
            "an empty mailbox drains to nothing"
        );
        let sent: Vec<(u32, Vec<u8>)> = vec![
            (0, vec![]),
            (1, vec![0, 0]),
            (1, vec![0, 0]),
            (2, vec![0, 0, 0]),
            (0, vec![]),
            (1, vec![0, 0]),
            (3, (0..40).collect()),
            (2, vec![0, 0, 0]),
        ];
        for (sender, frame) in &sent {
            mailbox.deliver_bytes(*sender, frame);
        }
        assert_eq!(drained(&mailbox), sent);
        assert_eq!(drained(&mailbox), vec![]);
    }

    #[test]
    fn both_sink_entries_enqueue_the_same_frame() {
        let mailbox = Mailbox::default();
        mailbox.deliver(7, vec![1, 2, 3]);
        mailbox.deliver_bytes(7, &[1, 2, 3]);
        assert_eq!(drained(&mailbox), vec![(7, vec![1, 2, 3]); 2]);
    }

    #[test]
    fn a_drained_mailbox_keeps_its_capacity() {
        let mailbox = Mailbox::default();
        let capacity = || {
            let arena = mailbox.0.lock();
            (arena.bytes.capacity(), arena.frames.capacity())
        };
        let round = || {
            for sender in 0..15 {
                mailbox.deliver_bytes(sender, &[0xAB; 21]);
            }
            assert_eq!(drained(&mailbox).len(), 15);
        };
        round();
        let warm = capacity();
        assert!(warm.0 >= 15 * 21 && warm.1 >= 15, "{warm:?}");
        for _ in 0..4 {
            round();
            assert_eq!(capacity(), warm, "a warm mailbox never regrows");
        }
    }

    const N: usize = 4;
    const MAX_ROUNDS: u64 = 30;

    /// `A_{T,E}` at n = 4, α = 0 on the gossiping adaptive ladder
    /// (tagged frames) over perfect links.
    fn stepper(telemetry: Telemetry) -> Lockstep<Ate<u64>, BareFrame> {
        let cfg = AdaptiveConfig::standard(N, 0).with_gossip();
        let fabric = RunFabric::new(
            LinkFaults::NONE,
            5,
            1,
            MAX_ROUNDS,
            CodeSpec::DEFAULT,
            Some(cfg),
            None,
            telemetry,
        );
        let algo: Ate<u64> = Ate::new(AteParams::balanced(N, 0).unwrap());
        let engines = (0..N)
            .map(|p| fabric.engine_for(algo.clone(), p, N, p as u64 % 2))
            .collect();
        fabric.lockstep(engines)
    }

    /// A well-formed tagged frame of `round` from `sender`, coded on the
    /// ladder's first rung.
    fn tagged(round: u64, sender: u32, value: u64) -> Vec<u8> {
        let cfg = AdaptiveConfig::standard(N, 0).with_gossip();
        let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
        let framing = Framing::adaptive(book, AdaptiveController::new(cfg));
        let mut body = BytesMut::new();
        let frame = Frame {
            round,
            sender,
            copy: 0,
            msg: value,
        };
        encode_body_into(&frame, &mut body);
        let mut wire = BytesMut::new();
        framing.encode_raw_into(&body, &mut wire);
        wire.to_vec()
    }

    /// One hostile arrival before round `r` opens, decoded from a random
    /// word: a claimed sender (self, peers, out of range) and bytes that
    /// can never become a round-`r` reception — noise of 0 ..= 64
    /// bytes, a tagged frame cut inside or after its header, or a
    /// well-formed frame of a closed round or of a round past the
    /// horizon.
    fn hostile(x: u64, r: u64) -> (u32, Vec<u8>) {
        let claimed = match (x >> 56) % 6 {
            4 => N as u32,
            5 => u32::MAX,
            s => s as u32,
        };
        let noise = |len: usize| -> Vec<u8> {
            (0..len)
                .map(|i| (x.rotate_left(7 * i as u32) >> 8) as u8)
                .collect()
        };
        let sender = (x >> 40) as u32 % (N as u32 + 2);
        let bytes = match x % 5 {
            0 => Vec::new(),
            1 => noise((x >> 8) as usize % 65),
            2 => {
                let mut cut = tagged(r, sender, x >> 16);
                cut.truncate((x >> 8) as usize % cut.len());
                cut
            }
            3 if r > 1 => tagged(1 + (x >> 8) % (r - 1), sender, x >> 16),
            _ => tagged(
                MAX_ROUNDS + 1 + (x >> 8) % (u64::MAX - MAX_ROUNDS),
                sender,
                1,
            ),
        };
        (claimed, bytes)
    }

    /// Every engine's decision and decision round, in process order.
    type Decided = Vec<(Option<u64>, Option<u64>)>;

    /// Runs the stepper until everyone decided, pouring the hostile
    /// arrivals of `injected[i]` into the mailboxes before round `i + 1`
    /// (the word picks the mailbox too); returns what every engine
    /// decided, and the telemetry it recorded.
    fn run(injected: &[Vec<u64>]) -> (Decided, Telemetry) {
        let telemetry = Telemetry::counters();
        let mut stepper = stepper(telemetry.clone());
        let mut decided = false;
        for r in 1..=MAX_ROUNDS {
            for &x in injected.get(r as usize - 1).into_iter().flatten() {
                let (claimed, bytes) = hostile(x, r);
                stepper.mailboxes[(x >> 32) as usize % N].deliver_bytes(claimed, &bytes);
            }
            decided = stepper.round(r);
            if decided {
                break;
            }
        }
        assert!(decided, "the run ends within {MAX_ROUNDS} rounds");
        let outcome = stepper
            .into_engines()
            .iter()
            .map(|e: &RoundEngine<Ate<u64>>| (e.decision().copied(), e.decision_round()))
            .collect();
        (outcome, telemetry)
    }

    proptest! {
        /// Any interleaving of sends and drains reads out exactly what
        /// a queue of whole frames would: same frames, same boundaries,
        /// same order (so per-sender order is arrival order too).
        #[test]
        fn the_mailbox_is_a_fifo_of_frames(ops in proptest::collection::vec(any::<u64>(), 0..200)) {
            let mailbox = Mailbox::default();
            let mut model: VecDeque<(u32, Vec<u8>)> = VecDeque::new();
            for op in ops {
                if op % 5 == 0 {
                    let expected: Vec<_> = model.drain(..).collect();
                    prop_assert_eq!(drained(&mailbox), expected);
                } else {
                    // Lengths 0–5, biased to the pattern frames' 2 and 3.
                    let len = [0, 2, 3, 2, 3, 1, 4, 5][(op >> 8) as usize % 8];
                    let frame = op.to_le_bytes()[2..2 + len].to_vec();
                    let sender = (op >> 4) as u32 % 4;
                    mailbox.deliver_bytes(sender, &frame);
                    model.push_back((sender, frame));
                }
            }
            let expected: Vec<_> = model.drain(..).collect();
            prop_assert_eq!(drained(&mailbox), expected);
        }

        /// Hostile bytes in the mailboxes between rounds — whatever
        /// their length, claimed sender or header — never panic the
        /// stepper, never keep it from ending, and never become a
        /// reception: every engine decides what, and when, it decides
        /// on clean links, so agreement holds.
        #[test]
        fn hostile_bytes_between_rounds_never_reach_a_decision(
            injected in proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 0..12),
                0..4,
            ),
        ) {
            let (clean, _) = run(&[]);
            let first = clean[0].0;
            prop_assert!(first.is_some());
            prop_assert!(clean.iter().all(|(d, _)| *d == first), "{:?}", clean);

            let (hostile, telemetry) = run(&injected);
            prop_assert_eq!(&hostile, &clean);
            let poured: u64 = injected
                .iter()
                .take(clean[0].1.unwrap_or(MAX_ROUNDS) as usize)
                .map(|round| round.len() as u64)
                .sum();
            let refused: u64 = [
                EventKind::FrameRejected,
                EventKind::FrameGarbage,
                EventKind::FrameLate,
            ]
            .into_iter()
            .map(|kind| telemetry.total(kind))
            .sum();
            prop_assert!(refused >= poured, "{} of {} hostile frames refused", refused, poured);
        }
    }
}
