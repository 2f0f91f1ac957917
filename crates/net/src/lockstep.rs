//! The lockstep stepper: one communication-closed round over every
//! engine of a run, on one thread.
//!
//! A Heard-Of round is communication-closed: every round-`r` message is
//! sent before any round-`r` reception is read. A plain loop over the
//! processes is that round by definition, so [`Lockstep::round`] is
//! three steps:
//!
//! 1. every engine, in process order, emits its coded frames through
//!    its links' fault models into the receivers' arenas,
//! 2. every engine drains its arena into
//!    [`RoundMachine::ingest_from`],
//! 3. every engine finishes the round (transition + renegotiation).
//!
//! No clock and no scheduler: runs are fully deterministic. The stepper
//! owns one **arena** per receiver — one byte buffer holding the
//! round's frames back to back, plus one `(sender, end offset)` record
//! per frame — and nothing else sits between a link and an arena: a
//! link's fault model hands what reaches the receiver to a closure that
//! appends it in place, with no [`FrameSink`](crate::FrameSink), no
//! shared pointer and no lock. The drain hands each frame out as a
//! slice of the arena, in arrival order, keeping the arena's capacity
//! for the next round: nothing is allocated per frame. An arena is a
//! FIFO of *frames*: boundaries are kept exactly, however short the
//! frames (the content-oblivious count channel counts its 2- and 3-byte
//! frames — a merged or split one would be a wrong value, not a
//! rejected frame).

use crate::fabric::RunFabric;
use crate::link::LinkModel;
use heardof_engine::{link_index, RoundMachine, WireLayout, WireMessage};
use heardof_model::HoAlgorithm;
use std::borrow::Cow;

/// One receiver's frames of the round, back to back in `bytes`;
/// `frames[i]` is the `i`-th frame's sender attribution and the offset
/// one past its last byte.
struct Arena {
    bytes: Vec<u8>,
    frames: Vec<(u32, usize)>,
}

impl Arena {
    /// An empty arena with room for `frames` frame records; its bytes
    /// are sized by the first frame it receives.
    fn with_capacity(frames: usize) -> Self {
        Arena {
            bytes: Vec::new(),
            frames: Vec::with_capacity(frames),
        }
    }

    /// Appends one sender-attributed wire frame. The attribution models
    /// which link the frame arrived on — known to the receiver
    /// regardless of content. A round's frames are mostly of one
    /// length, so the first sizes the byte buffer for all the records.
    fn push(&mut self, sender: u32, frame: &[u8]) {
        if self.bytes.capacity() == 0 {
            self.bytes.reserve(frame.len() * self.frames.capacity());
        }
        self.bytes.extend_from_slice(frame);
        self.frames.push((sender, self.bytes.len()));
    }

    /// Hands every queued frame to `each` as `(sender, bytes)`, oldest
    /// first, then empties the arena, keeping its capacity.
    fn drain(&mut self, mut each: impl FnMut(u32, &[u8])) {
        let mut start = 0;
        for &(sender, end) in &self.frames {
            each(sender, &self.bytes[start..end]);
            start = end;
        }
        self.bytes.clear();
        self.frames.clear();
    }
}

/// The `n` engines of one run, their links and their receivers'
/// arenas, stepped one lockstep round at a time. Built by
/// [`RunFabric::lockstep`]; see the module docs for what a round does.
pub struct Lockstep<A: HoAlgorithm, L>
where
    A::Msg: WireMessage,
{
    engines: Vec<RoundMachine<A, L>>,
    /// `links[p]`: process `p`'s outgoing links, in `link_index` layout.
    links: Vec<Vec<LinkModel>>,
    /// `arenas[q]`: what process `q` received this round.
    arenas: Vec<Arena>,
}

impl RunFabric {
    /// Wires `engines` (process `p` at index `p`, all of one run of
    /// this fabric) to one another through this fabric's links and one
    /// arena per process, reserved for a round's frames.
    pub fn lockstep<A, L>(&self, engines: Vec<RoundMachine<A, L>>) -> Lockstep<A, L>
    where
        A: HoAlgorithm,
        A::Msg: WireMessage,
    {
        let n = engines.len();
        let frames = n.saturating_sub(1) * usize::from(self.copies);
        Lockstep {
            links: (0..n).map(|p| self.link_models(p, n)).collect(),
            arenas: (0..n).map(|_| Arena::with_capacity(frames)).collect(),
            engines,
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
        let (engines, arenas) = (&mut self.engines, &mut self.arenas);
        for (p, (engine, links)) in engines.iter_mut().zip(&mut self.links).enumerate() {
            let sender = p as u32;
            engine.begin_round_with(|dest, copy, bytes| {
                let arena = &mut arenas[dest as usize];
                links[link_index(dest, sender)].send(r, copy, Cow::Borrowed(bytes), |frame| {
                    arena.push(sender, &frame)
                });
            });
        }
        for (engine, arena) in engines.iter_mut().zip(arenas.iter_mut()) {
            arena.drain(|sender, bytes| {
                let _ = engine.ingest_from(sender, bytes);
            });
        }
        for engine in engines.iter_mut() {
            engine.finish_round();
        }
        engines.iter().all(RoundMachine::all_decided)
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
    use std::sync::Arc;

    fn drained(arena: &mut Arena) -> Vec<(u32, Vec<u8>)> {
        let mut got = Vec::new();
        arena.drain(|sender, bytes| got.push((sender, bytes.to_vec())));
        got
    }

    /// The frames the count channel *counts* are 2 and 3 bytes long and
    /// all alike: only their number and attribution carry the value.
    #[test]
    fn frame_boundaries_and_arrival_order_survive_exactly() {
        let mut arena = Arena::with_capacity(3);
        assert_eq!(
            drained(&mut arena),
            vec![],
            "an empty arena drains to nothing"
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
            arena.push(*sender, frame);
        }
        assert_eq!(drained(&mut arena), sent);
        assert_eq!(drained(&mut arena), vec![]);
    }

    #[test]
    fn a_drained_arena_keeps_its_capacity() {
        let mut arena = Arena::with_capacity(15);
        let capacity = |arena: &Arena| (arena.bytes.capacity(), arena.frames.capacity());
        let round = |arena: &mut Arena| {
            for sender in 0..15 {
                arena.push(sender, &[0xAB; 21]);
            }
            assert_eq!(drained(arena).len(), 15);
        };
        round(&mut arena);
        let warm = capacity(&arena);
        assert!(warm.0 >= 15 * 21 && warm.1 >= 15, "{warm:?}");
        for _ in 0..4 {
            round(&mut arena);
            assert_eq!(capacity(&arena), warm, "a warm arena never regrows");
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
    /// arrivals of `injected[i]` into the arenas before round `i + 1`
    /// (the word picks the arena too); returns what every engine
    /// decided, and the telemetry it recorded.
    fn run(injected: &[Vec<u64>]) -> (Decided, Telemetry) {
        let telemetry = Telemetry::counters();
        let mut stepper = stepper(telemetry.clone());
        let mut decided = false;
        for r in 1..=MAX_ROUNDS {
            for &x in injected.get(r as usize - 1).into_iter().flatten() {
                let (claimed, bytes) = hostile(x, r);
                stepper.arenas[(x >> 32) as usize % N].push(claimed, &bytes);
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
        fn the_arena_is_a_fifo_of_frames(ops in proptest::collection::vec(any::<u64>(), 0..200)) {
            let mut arena = Arena::with_capacity(4);
            let mut model: VecDeque<(u32, Vec<u8>)> = VecDeque::new();
            for op in ops {
                if op % 5 == 0 {
                    let expected: Vec<_> = model.drain(..).collect();
                    prop_assert_eq!(drained(&mut arena), expected);
                } else {
                    // Lengths 0–5, biased to the pattern frames' 2 and 3.
                    let len = [0, 2, 3, 2, 3, 1, 4, 5][(op >> 8) as usize % 8];
                    let frame = op.to_le_bytes()[2..2 + len].to_vec();
                    let sender = (op >> 4) as u32 % 4;
                    arena.push(sender, &frame);
                    model.push_back((sender, frame));
                }
            }
            let expected: Vec<_> = model.drain(..).collect();
            prop_assert_eq!(drained(&mut arena), expected);
        }

        /// Hostile bytes in the arenas between rounds — whatever
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

/// The stepper's sinkless links against the boxed links of
/// [`RunFabric::links_for`](crate::RunFabric::links_for): for every
/// link of a run, the same frames sent through both deliver the same
/// bytes with the same boundaries to the same receivers in the same
/// order, return the same verdicts, emit the same telemetry and log the
/// same undetected faults. The sinkless links live inside the crate, so
/// this is a unit test rather than one under `tests/`.
#[cfg(test)]
mod delivery_equivalence {
    use super::*;
    use crate::link::{FaultKey, FrameSink, LinkEvent, LinkFaults};
    use bytes::BytesMut;
    use heardof_coding::{
        oblivious_advert_frame, oblivious_value_frame, AdaptiveConfig, CodeBook, CodeSpec,
        FaultScript, LinkFault, NoiseTrace, RungAdvert,
    };
    use heardof_engine::{encode_body_into, Frame};
    use heardof_telemetry::{RunRecording, Telemetry};
    use parking_lot::Mutex;
    use std::collections::HashSet;
    use std::sync::Arc;

    /// Rounds sent: across `NoiseTrace::bursty`'s switch from its clean
    /// phase (rounds 1–30) to its noisy one.
    const ROUNDS: std::ops::RangeInclusive<u64> = 28..=36;

    /// What a receiver was handed in one round, in arrival order.
    type Arrivals = Vec<(u32, Vec<u8>)>;

    #[derive(Clone, Default)]
    struct Tape(Arc<Mutex<Arrivals>>);

    impl FrameSink for Tape {
        fn deliver(&self, sender: u32, frame: Vec<u8>) {
            self.0.lock().push((sender, frame));
        }
    }

    fn ladder() -> Vec<CodeSpec> {
        AdaptiveConfig::standard(4, 1).ladder
    }

    /// What drives corruption: the probabilistic model (drops,
    /// detectable corruption and adversarial forgeries), a seeded
    /// bursty trace, or a script of every scripted fault.
    fn sources(n: usize, seed: u64) -> Vec<(LinkFaults, Option<NoiseTrace>)> {
        let faults = LinkFaults {
            drop_prob: 0.2,
            corrupt_prob: 0.5,
            undetected_prob: 0.5,
        };
        let mut script = FaultScript::new();
        for (i, round) in ROUNDS.enumerate() {
            let fault = match i % 4 {
                0 => LinkFault::Omit,
                1 => LinkFault::MuteAdvert,
                2 => LinkFault::Forge(RungAdvert { rung: 1, epoch: 2 }),
                _ => LinkFault::CorruptAll,
            };
            for sender in 0..n as u32 {
                script.insert(round, sender, (sender + 1) % n as u32, fault);
            }
        }
        vec![
            (faults, None),
            (LinkFaults::NONE, Some(NoiseTrace::bursty(seed))),
            (LinkFaults::NONE, Some(NoiseTrace::scripted(script))),
        ]
    }

    /// The wire `sender` hands `receiver` as `copy` in `round`: every
    /// third round a count-channel frame (2 bytes to even receivers, 3
    /// to odd ones), otherwise a frame under the run's framing — tagged
    /// on a rung of the round's choosing, with or without an advert,
    /// when `tagged`, CRC-32 otherwise.
    fn wire(tagged: bool, round: u64, sender: u32, receiver: u32, copy: u8) -> Vec<u8> {
        if round.is_multiple_of(3) {
            return match receiver % 2 {
                0 => oblivious_value_frame().to_vec(),
                _ => oblivious_advert_frame().to_vec(),
            };
        }
        let frame = Frame {
            round,
            sender,
            copy,
            msg: round * 31 + u64::from(sender),
        };
        let mut body = BytesMut::new();
        encode_body_into(&frame, &mut body);
        let mut wire = BytesMut::new();
        if tagged {
            let specs = ladder();
            let id = ((round + u64::from(sender)) % specs.len() as u64) as u8;
            let advert = round.is_multiple_of(2).then_some(RungAdvert {
                rung: id,
                epoch: (round % 16) as u8,
            });
            CodeBook::from_specs(&specs).encode_tagged(id, advert, None, &body, &mut wire);
        } else {
            CodeSpec::DEFAULT
                .build()
                .encode_into(&body, None, &mut wire);
        }
        wire.into()
    }

    /// Everything observable about one run of all `n · (n − 1)` links.
    #[derive(Debug, PartialEq)]
    struct Observed {
        events: Vec<LinkEvent>,
        /// Per round, per receiver.
        delivered: Vec<Vec<Arrivals>>,
        logged: HashSet<FaultKey>,
        recording: RunRecording,
    }

    /// Sends every link's frames in engine order — each sender, each
    /// receiver, each copy — round by round through `send(p, lane, q,
    /// round, copy, wire)`, collecting each round's arrivals with
    /// `collect()`.
    fn drive(
        n: usize,
        copies: u8,
        tagged: bool,
        mut send: impl FnMut(usize, usize, u64, u8, &[u8]) -> LinkEvent,
        mut collect: impl FnMut() -> Vec<Arrivals>,
    ) -> (Vec<LinkEvent>, Vec<Vec<Arrivals>>) {
        let (mut events, mut delivered) = (Vec::new(), Vec::new());
        for round in ROUNDS {
            for p in 0..n {
                for q in (0..n).filter(|&q| q != p) {
                    for copy in 0..copies {
                        let wire = wire(tagged, round, p as u32, q as u32, copy);
                        events.push(send(p, q, round, copy, &wire));
                    }
                }
            }
            delivered.push(collect());
        }
        (events, delivered)
    }

    fn fabric(
        (faults, trace): &(LinkFaults, Option<NoiseTrace>),
        tagged: bool,
        seed: u64,
        copies: u8,
    ) -> RunFabric {
        let adaptive = tagged.then(|| AdaptiveConfig::standard(4, 1));
        let rounds = ROUNDS.end() + 1;
        let telemetry = Telemetry::ring();
        let code = CodeSpec::DEFAULT;
        RunFabric::new(
            *faults,
            seed,
            copies,
            rounds,
            code,
            adaptive,
            trace.clone(),
            telemetry,
        )
    }

    fn observed(fabric: &RunFabric, run: (Vec<LinkEvent>, Vec<Vec<Arrivals>>)) -> Observed {
        Observed {
            events: run.0,
            delivered: run.1,
            logged: fabric.fault_log().keys().clone(),
            recording: fabric
                .telemetry()
                .snapshot()
                .expect("a ring recorder snapshots"),
        }
    }

    /// The stepper's links: fault models appending into arenas.
    fn sinkless(fabric: &RunFabric, n: usize, tagged: bool) -> Observed {
        let copies = fabric.copies;
        let mut links: Vec<_> = (0..n).map(|p| fabric.link_models(p, n)).collect();
        let frames = (n - 1) * usize::from(copies);
        let arenas: Vec<_> = (0..n).map(|_| Arena::with_capacity(frames)).collect();
        let arenas = std::cell::RefCell::new(arenas);
        let send = |p: usize, q: usize, round, copy, wire: &[u8]| {
            let link = &mut links[p][link_index(q as u32, p as u32)];
            link.send(round, copy, Cow::Borrowed(wire), |frame| {
                arenas.borrow_mut()[q].push(p as u32, &frame)
            })
        };
        let collect = || {
            let mut arenas = arenas.borrow_mut();
            arenas
                .iter_mut()
                .map(|arena| {
                    let mut got = Vec::new();
                    arena.drain(|sender, bytes| got.push((sender, bytes.to_vec())));
                    got
                })
                .collect()
        };
        let run = drive(n, copies, tagged, send, collect);
        observed(fabric, run)
    }

    /// The same links as `links_for` builds them, each with a boxed
    /// sink.
    fn boxed(fabric: &RunFabric, n: usize, tagged: bool) -> Observed {
        let tapes: Vec<Tape> = (0..n).map(|_| Tape::default()).collect();
        let mut links: Vec<_> = (0..n)
            .map(|p| fabric.links_for(p, n, |q| Box::new(tapes[q].clone())))
            .collect();
        let send = |p: usize, q: usize, round, copy, wire: &[u8]| {
            links[p][link_index(q as u32, p as u32)].send_bytes(round, copy, wire)
        };
        let collect = || {
            tapes
                .iter()
                .map(|tape| std::mem::take(&mut *tape.0.lock()))
                .collect()
        };
        let run = drive(n, fabric.copies, tagged, send, collect);
        observed(fabric, run)
    }

    #[test]
    fn sinkless_links_deliver_what_boxed_links_do() {
        for n in [2usize, 3, 8, 17] {
            for copies in 1..=3u8 {
                let seed = 0xD1CE ^ (n as u64) << 8 ^ u64::from(copies);
                for (i, source) in sources(n, seed).iter().enumerate() {
                    for tagged in [false, true] {
                        let what = format!("n {n}, copies {copies}, source {i}, tagged {tagged}");
                        let stepper = sinkless(&fabric(source, tagged, seed, copies), n, tagged);
                        let links = boxed(&fabric(source, tagged, seed, copies), n, tagged);
                        assert_eq!(stepper, links, "{what}");
                        let hit = stepper.events.iter().any(|e| *e != LinkEvent::Delivered);
                        assert!(hit, "{what}: no frame was hit");
                    }
                }
            }
        }
    }
}
