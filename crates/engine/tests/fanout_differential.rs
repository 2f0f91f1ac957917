//! Differential: a round's emitted frames equal independent
//! per-destination encoding.
//!
//! `begin_round_with` serialises every destination's body but codes a
//! body only when it differs from the one it coded last; an unchanged
//! body re-emits the wire images already in the arenas. That is an
//! optimisation of *how*, never of *what*: the `(dest, copy, wire)`
//! sequence must be byte- and order-identical to coding every
//! destination and every copy from scratch. The reference here does
//! exactly that through the public codec path (`encode_body_into`,
//! `pack_slots_into`, `Framing::encode_raw*_into`) with a twin `Framing`
//! that is fed the same end-of-round tallies as the engine's own, so
//! rung switches and budget renegotiation happen in lockstep.
//!
//! Axes, all exhaustive per generated case: the ten code specs of the
//! golden-wire suite × {fixed, adaptive tagged + advert on a ladder
//! starting at that spec} × `copies ∈ {1, 3}` (on a fountain rung the three fold
//! into the symbol budget) × {`RoundEngine`, `MuxRoundEngine` with
//! k ∈ {1, 3, 64}} × three sending functions — `Ate` (broadcast: one
//! encode serves every peer), one whose message differs for every
//! destination (nothing may be shared), and one whose destinations come
//! in runs `a a b b a a b` (sharing starts, stops, and must never reach
//! back to an image older than the previous one).

use bytes::BytesMut;
use heardof_coding::{
    pack_slots_into, AdaptiveConfig, AdaptiveController, CodeBook, CodeSpec, RoundTally, RungAdvert,
};
use heardof_core::{Ate, AteParams};
use heardof_engine::{encode_body_into, Frame, Framing, Ingest, MuxRoundEngine, RoundEngine};
use heardof_model::{HoAlgorithm, ProcessId, ReceptionVector, Round};
use proptest::prelude::*;
use std::sync::Arc;

const N: usize = 7;
const ROUNDS: u64 = 6;

/// The spec families `crates/coding/tests/golden_wire.rs` pins.
fn all_specs() -> [CodeSpec; 10] {
    [
        CodeSpec::None,
        CodeSpec::Checksum { width: 1 },
        CodeSpec::Checksum { width: 2 },
        CodeSpec::Checksum { width: 4 },
        CodeSpec::Repetition { k: 3 },
        CodeSpec::Repetition { k: 5 },
        CodeSpec::Hamming74,
        CodeSpec::Interleaved { depth: 16 },
        CodeSpec::Concatenated { width: 4 },
        CodeSpec::Fountain { repair: 4 },
    ]
}

/// A sending function that addresses its peers: the message to `dest`
/// is the state plus `offset(dest)`. The state moves every round, so
/// no two rounds serialise the same bytes.
#[derive(Clone, Debug)]
struct Addressed {
    offset: fn(u64) -> u64,
}

impl HoAlgorithm for Addressed {
    type Value = u64;
    type Msg = u64;
    type State = u64;

    fn name(&self) -> &'static str {
        "addressed"
    }

    fn init(&self, _p: ProcessId, _n: usize, initial: u64) -> u64 {
        initial
    }

    fn send(&self, _round: Round, _p: ProcessId, state: &u64, dest: ProcessId) -> u64 {
        state.wrapping_add((self.offset)(dest.index() as u64))
    }

    fn transition(&self, round: Round, _p: ProcessId, state: &mut u64, _rx: &ReceptionVector<u64>) {
        *state = state.wrapping_mul(31).wrapping_add(round.get());
    }

    fn decision(&self, _state: &u64) -> Option<u64> {
        None
    }

    fn is_broadcast(&self) -> bool {
        false
    }
}

/// Either engine, as the differential drives it.
enum Subject<A: HoAlgorithm<Value = u64, Msg = u64>> {
    Single(RoundEngine<A>),
    Mux(MuxRoundEngine<A>),
}

impl<A: HoAlgorithm<Value = u64, Msg = u64>> Subject<A> {
    fn new(
        algo: A,
        me: u32,
        instances: Option<usize>,
        seed: u64,
        framing: Framing,
        copies: u8,
    ) -> Self {
        let me = ProcessId::new(me);
        match instances {
            None => Subject::Single(RoundEngine::new(algo, me, N, seed, framing, copies, ROUNDS)),
            Some(k) => {
                // Instances start apart, so a slab is not k equal bodies.
                let initials = (0..k as u64).map(|i| seed.wrapping_add(i * 3)).collect();
                Subject::Mux(MuxRoundEngine::new(
                    algo, me, N, initials, framing, copies, ROUNDS,
                ))
            }
        }
    }

    /// What every instance would send `dest` in `round`.
    fn messages(&self, round: u64, dest: u32) -> Vec<u64> {
        let (round, dest) = (Round::new(round), ProcessId::new(dest));
        match self {
            Subject::Single(e) => vec![e.core().send_to(round, dest)],
            Subject::Mux(e) => (0..e.instances())
                .map(|i| e.core(i).send_to(round, dest))
                .collect(),
        }
    }

    fn begin(&mut self) -> Vec<(u32, u8, Vec<u8>)> {
        let mut out = Vec::new();
        let emit = |dest: u32, copy: u8, wire: &[u8]| out.push((dest, copy, wire.to_vec()));
        match self {
            Subject::Single(e) => e.begin_round_with(emit),
            Subject::Mux(e) => e.begin_round_with(emit),
        }
        out
    }

    fn ingest(&mut self, wire: &[u8]) -> Ingest {
        match self {
            Subject::Single(e) => e.ingest(wire),
            Subject::Mux(e) => e.ingest(wire),
        }
    }

    fn finish(&mut self) {
        match self {
            Subject::Single(e) => e.finish_round(),
            Subject::Mux(e) => e.finish_round(),
        };
    }
}

/// The undecoded image one sender puts on one link: the frame body, or
/// under `mux` the packed slot image of one body per instance — every
/// body serialised from scratch with `copy` in its header.
fn image(mux: bool, round: u64, sender: u32, copy: u8, msgs: &[u64]) -> Vec<u8> {
    let bodies: Vec<BytesMut> = msgs
        .iter()
        .map(|&msg| {
            let mut body = BytesMut::new();
            encode_body_into(
                &Frame {
                    round,
                    sender,
                    copy,
                    msg,
                },
                &mut body,
            );
            body
        })
        .collect();
    if !mux {
        return bodies[0].to_vec();
    }
    let slots: Vec<(u32, &[u8])> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| (i as u32, &b[..]))
        .collect();
    let mut packed = Vec::new();
    pack_slots_into(&slots, &mut packed);
    packed
}

/// `image` on the wire under `framing`, as the engines are documented
/// to frame it: on a rateless rung one frame whose budget absorbs the
/// copies (and, for a mux image, is priced for the batch).
fn reference_wire(
    framing: &Framing,
    copies: u8,
    instances: Option<usize>,
    image: &[u8],
) -> Vec<u8> {
    let mut wire = BytesMut::new();
    match framing.symbol_budget() {
        Some(budget) => {
            let budget = budget.fold_copies(copies);
            let budget = instances.map_or(budget, |k| budget.for_batch(k));
            framing.encode_raw_with_budget_into(image, budget, &mut wire);
        }
        None => framing.encode_raw_into(image, &mut wire),
    }
    wire.to_vec()
}

/// Two identical framings: one for the engine, its twin for the
/// reference. `adaptive` puts a gossiping controller on a ladder that
/// starts at `spec` and climbs through the specs after it (eight rungs:
/// what a gossip advert can name); otherwise the framing is fixed.
fn framings(spec_index: usize, adaptive: bool) -> [Framing; 2] {
    let mut ladder = all_specs();
    ladder.rotate_left(spec_index);
    [(); 2].map(|()| {
        if !adaptive {
            return Framing::fixed(ladder[0]);
        }
        let cfg = AdaptiveConfig {
            ladder: ladder[..8].to_vec(),
            ..AdaptiveConfig::standard(N, 1).with_gossip()
        };
        let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
        Framing::adaptive(book, AdaptiveController::new(cfg))
    })
}

/// One engine over `ROUNDS` rounds against the reference. Bit `r` of
/// `calm` decides whether round `r` hears every peer (the controller
/// relaxes, the symbol budget decays) or nobody (it escalates, the
/// budget grows) — so rungs and budgets move between rounds while the
/// arenas are reused. Returns how many rounds ended in such a move.
#[allow(clippy::too_many_arguments)]
fn check<A: HoAlgorithm<Value = u64, Msg = u64>>(
    algo: A,
    spec_index: usize,
    adaptive: bool,
    copies: u8,
    instances: Option<usize>,
    me: u32,
    seed: u64,
    calm: u64,
) -> usize {
    let [framing, mut twin] = framings(spec_index, adaptive);
    let mut moves = 0;
    let mut subject = Subject::new(algo, me, instances, seed, framing, copies);
    let what = format!(
        "{:?} adaptive={adaptive} copies={copies} instances={instances:?} me={me}",
        all_specs()[spec_index]
    );
    for r in 1..=ROUNDS {
        let folded = twin.symbol_budget().is_some();
        let mut expected = Vec::new();
        for dest in (0..N as u32).filter(|&q| q != me) {
            let msgs = subject.messages(r, dest);
            for copy in 0..if folded { 1 } else { copies } {
                let image = image(instances.is_some(), r, me, copy, &msgs);
                expected.push((dest, copy, reference_wire(&twin, copies, instances, &image)));
            }
        }
        let emitted = subject.begin();
        assert!(
            emitted == expected,
            "round {r} of {what}: emitted frames differ from per-destination encoding"
        );

        let peers: Vec<u32> = (0..N as u32)
            .filter(|&q| q != me && (calm >> r) & 1 == 1)
            .collect();
        let advert: Option<RungAdvert> = twin.controller().and_then(|c| c.advert());
        for &q in &peers {
            let msgs = vec![seed ^ q as u64; instances.unwrap_or(1)];
            let wire = reference_wire(
                &twin,
                1,
                instances,
                &image(instances.is_some(), r, q, 0, &msgs),
            );
            assert_eq!(
                subject.ingest(&wire),
                Ingest::Kept,
                "round {r} of {what}: peer {q}"
            );
        }
        subject.finish();
        let ads: Vec<RungAdvert> = peers.iter().filter_map(|_| advert).collect();
        let before = (twin.current_spec(), twin.symbol_budget());
        twin.observe_with_gossip(
            RoundTally {
                expected: N - 1,
                delivered: peers.len(),
                corrected: 0,
                value_faults: 0,
                evidence: 0,
            },
            &ads,
        );
        moves += usize::from((twin.current_spec(), twin.symbol_budget()) != before);
    }
    moves
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn emitted_frames_equal_independent_per_destination_encoding(
        me in 0u32..N as u32,
        seed in any::<u64>(),
        calm in any::<u64>(),
    ) {
        let mut moves = 0;
        for spec_index in 0..all_specs().len() {
            for adaptive in [false, true] {
                for copies in [1u8, 3] {
                    for instances in [None, Some(1), Some(3), Some(64)] {
                        let ate: Ate<u64> = Ate::new(AteParams::balanced(N, 1).unwrap());
                        moves += check(ate, spec_index, adaptive, copies, instances, me, seed, calm);
                        // Every destination its own message.
                        let distinct = Addressed { offset: |dest| dest };
                        moves += check(distinct, spec_index, adaptive, copies, instances, me, seed, calm);
                        // Runs of two: a a b b a a b.
                        let runs = Addressed { offset: |dest| dest / 2 % 2 };
                        moves += check(runs, spec_index, adaptive, copies, instances, me, seed, calm);
                    }
                }
            }
        }
        eprintln!("rung or budget moves between rounds: {moves}");
        prop_assert!(moves > 0, "no rung switch or budget move: arenas were never reused across one");
    }
}
