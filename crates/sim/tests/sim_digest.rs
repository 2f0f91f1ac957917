//! Every count of the simulator's benchmark shape, pinned as one digest.
//!
//! The `sim-adversary` workload runs `A_{T,E}` at n = 16, α = 3 under a
//! budgeted random corrupter with every 4th round fault-free, recording
//! only the heard-of sets. A change to how a round is derived — the
//! sets, the α-clamp, the intended matrix — must leave every RNG draw,
//! every set and every decision where it was. This test folds, for
//! seeds 1 ..= 400, the rounds executed, each process's decision round
//! and value, and each round's per-process `|HO|` / `|SHO|` into one
//! FNV-1a digest; the pinned value was computed before the round was
//! made word-parallel.

use heardof_adversary::{Budgeted, GoodRounds, RandomCorruption, WithSchedule};
use heardof_core::{Ate, AteParams};
use heardof_model::{ProcessId, TraceLevel};
use heardof_sim::Simulator;

const N: usize = 16;
const ALPHA: u32 = 3;

/// The benchmark's proposal rule: op `i` of base seed 1 has seed
/// `i + 1`, and every 4th op is unanimous.
fn initial_values(seed: u64) -> Vec<u64> {
    let unanimous = (seed - 1) % 4 == 3;
    (0..N as u64)
        .map(|p| (if unanimous { 0 } else { p } + seed % 3) % 3)
        .collect()
}

#[test]
fn sim_adversary_counts_are_pinned() {
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut fold = |x: u64| {
        for byte in x.to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01B3);
        }
    };
    let mut decided = 0;
    for seed in 1..=400u64 {
        let outcome = Simulator::new(Ate::new(AteParams::balanced(N, ALPHA).unwrap()), N)
            .initial_values(initial_values(seed))
            .adversary(WithSchedule::new(
                Budgeted::new(RandomCorruption::new(ALPHA, 1.0), ALPHA),
                GoodRounds::every(4),
            ))
            .seed(seed)
            .trace_level(TraceLevel::SetsOnly)
            .run_until_decided(100)
            .unwrap();
        assert!(outcome.is_safe(), "seed {seed}: {:?}", outcome.verdict);
        decided += u64::from(outcome.all_decided());
        fold(outcome.rounds_executed as u64);
        for p in 0..N {
            match &outcome.verdict.decisions[p] {
                Some((round, value)) => {
                    fold(round.get());
                    fold(*value);
                }
                None => fold(u64::MAX),
            }
        }
        for record in outcome.trace.rounds() {
            for p in 0..N {
                let p = ProcessId::new(p as u32);
                fold(record.sets.ho(p).len() as u64);
                fold(record.sets.sho(p).len() as u64);
            }
        }
    }
    assert_eq!(decided, 400, "every op of the shape decides");
    assert_eq!(
        digest, 0xA92D_23A6_BCCB_25A5,
        "the simulator's counts moved"
    );
}
