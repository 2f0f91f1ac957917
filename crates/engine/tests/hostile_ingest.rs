//! Property: the one ingest path is **total on hostile wires**.
//!
//! Whatever bytes a link delivers, under whatever sender attribution
//! and at whatever moment of the round life cycle,
//! [`RoundMachine::ingest_from`] returns a verdict — it never panics,
//! never lets a replayed early frame in twice, and never leaves the
//! machine unable to close its round. There is one ingest, so it is
//! fuzzed once: the same arrivals go through both wire layouts, on a
//! ladder with and without the content-oblivious rung, in every phase
//! (before the first round opens, round open, round closed).

use heardof_coding::{oblivious_channel, AdaptiveConfig, AdaptiveController, CodeBook};
use heardof_core::{Ate, AteParams};
use heardof_engine::{Framing, Ingest, MuxRoundEngine, RoundEngine, RoundMachine, WireLayout};
use heardof_model::ProcessId;
use proptest::prelude::*;
use std::sync::Arc;

const N: usize = 5;
/// The process under test.
const ME: u32 = 0;
const HORIZON: u64 = 6;
#[derive(Clone, Copy, Debug, PartialEq)]
enum Phase {
    Unopened,
    Open,
    Closed,
}

fn framing(oblivious: bool) -> Framing {
    let cfg = AdaptiveConfig::standard(N, 1);
    let cfg = if oblivious { cfg.with_oblivious() } else { cfg };
    let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
    Framing::adaptive(book, AdaptiveController::new(cfg))
}

fn algo() -> Ate<u64> {
    Ate::new(AteParams::balanced(N, 1).unwrap())
}

/// What every peer sends process [`ME`] in rounds 1..=3 of a clean
/// lockstep run: `wires[r - 1]` holds round `r`'s images.
fn clean_wires<L: WireLayout>(
    make: &impl Fn(u32) -> RoundMachine<Ate<u64>, L>,
) -> Vec<Vec<Vec<u8>>> {
    let mut engines: Vec<_> = (0..N as u32).map(make).collect();
    let mut to_me = Vec::new();
    for _ in 0..3 {
        let mut inboxes: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); N];
        for (p, engine) in engines.iter_mut().enumerate() {
            engine.begin_round_with(|dest, _, wire| {
                inboxes[dest as usize].push((p as u32, wire.to_vec()));
            });
        }
        for (engine, inbox) in engines.iter_mut().zip(&inboxes) {
            for (sender, wire) in inbox {
                assert_eq!(engine.ingest_from(*sender, wire), Ingest::Kept);
            }
            engine.finish_round();
        }
        let round = inboxes.swap_remove(ME as usize);
        to_me.push(round.into_iter().map(|(_, wire)| wire).collect());
    }
    to_me
}

/// One arrival decoded from a random word: the bytes, the sender the
/// transport claims, and — when the bytes are an untouched clean wire —
/// the round it was sent in.
fn arrival(x: u64, wires: &[Vec<Vec<u8>>]) -> (Vec<u8>, u32, Option<u64>) {
    // 0..=4 are the process itself and its peers, 5 and up are out of range.
    let claimed = match (x >> 48) % 8 {
        7 => u32::MAX,
        s => s as u32,
    };
    let noise = |len: usize| -> Vec<u8> {
        (0..len)
            .map(|i| (x.rotate_left(7 * i as u32) >> 8) as u8)
            .collect()
    };
    let round = (x >> 8) % 3;
    let wire = &wires[round as usize][(x >> 12) as usize % (N - 1)];
    match x % 5 {
        // Lengths 0–4, the 2- and 3-byte pattern lengths among them.
        0 => (noise((x >> 16) as usize % 5), claimed, None),
        1 => (noise((x >> 16) as usize % 96), claimed, None),
        2 => (wire.clone(), claimed, Some(round + 1)),
        3 => {
            let mut hit = wire.clone();
            let bit = (x >> 16) as usize % (8 * hit.len());
            hit[bit / 8] ^= 1 << (bit % 8);
            (hit, claimed, None)
        }
        _ => {
            let mut cut = wire.clone();
            cut.truncate((x >> 16) as usize % (wire.len() + 1));
            cut.extend(noise((x >> 32) as usize % 4));
            (cut, claimed, None)
        }
    }
}

/// Pours `arrivals` into a fresh engine standing in `phase` — round 2
/// for `Open` and `Closed`, so that the clean wires of rounds 1, 2 and 3
/// are one round late, on time and early — then closes a round on top
/// of whatever that left behind.
fn pour<L: WireLayout>(
    make: &impl Fn(u32) -> RoundMachine<Ate<u64>, L>,
    wires: &[Vec<Vec<u8>>],
    count_channel: bool,
    phase: Phase,
    arrivals: &[u64],
) {
    let mut e = make(ME);
    if phase != Phase::Unopened {
        e.begin_round_with(|_, _, _| {});
        e.finish_round();
        e.begin_round_with(|_, _, _| {});
        if phase == Phase::Closed {
            e.finish_round();
        }
    }
    let (round, completed) = (e.current_round(), e.rounds_completed());
    for &x in arrivals {
        let (bytes, claimed, clean_round) = arrival(x, wires);
        let verdict = e.ingest_from(claimed, &bytes);
        let counted = count_channel
            && phase == Phase::Open
            && claimed != ME
            && (claimed as usize) < N
            && oblivious_channel(bytes.len()).is_some();
        assert_eq!(verdict == Ingest::Counted, counted, "{phase:?} {bytes:?}");
        if let Some(sent_in) = clean_round {
            // An untouched wire is routed by its round alone.
            let expected: &[Ingest] = match sent_in.cmp(&round) {
                std::cmp::Ordering::Less => &[Ingest::Late],
                std::cmp::Ordering::Equal => &[Ingest::Kept, Ingest::Duplicate],
                std::cmp::Ordering::Greater => &[Ingest::Future, Ingest::Duplicate],
            };
            assert!(expected.contains(&verdict), "{phase:?}: {verdict:?}");
        }
        if verdict == Ingest::Future {
            // The (round, sender) cap: a replay is not buffered twice.
            assert_eq!(e.ingest_from(claimed, &bytes), Ingest::Duplicate);
        }
        assert_eq!(
            (e.current_round(), e.rounds_completed()),
            (round, completed)
        );
    }
    if phase != Phase::Open {
        e.begin_round_with(|_, _, _| {});
    }
    e.finish_round();
    assert_eq!(e.rounds_completed(), completed + 1);
    assert_eq!(e.current_round(), completed + 1);
}

proptest! {
    #[test]
    fn ingest_is_total_in_every_layout_ladder_and_phase(
        arrivals in proptest::collection::vec(any::<u64>(), 0..80),
    ) {
        for oblivious in [false, true] {
            let bare = |me: u32| {
                let value = me as u64 % 2;
                RoundEngine::new(algo(), ProcessId::new(me), N, value, framing(oblivious), 1, HORIZON)
            };
            let slots = |me: u32| {
                let values = vec![me as u64 % 2, 1, 0];
                MuxRoundEngine::new(algo(), ProcessId::new(me), N, values, framing(oblivious), 1, HORIZON)
            };
            let (bare_wires, slot_wires) = (clean_wires(&bare), clean_wires(&slots));
            for phase in [Phase::Unopened, Phase::Open, Phase::Closed] {
                pour(&bare, &bare_wires, oblivious, phase, &arrivals);
                // The slot layout has no count channel on any ladder.
                pour(&slots, &slot_wires, false, phase, &arrivals);
            }
        }
    }
}
