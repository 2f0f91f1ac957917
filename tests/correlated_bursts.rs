//! Correlated cross-link bursts: one shared Gilbert–Elliott chain
//! modulates *all* links (`NoiseTrace::correlated_bursts`), the way
//! real interference hits many links at once rather than one wire at a
//! time.
//!
//! The question the ROADMAP posed was whether per-process controllers
//! need to gossip their rung decisions or converge on their own. The
//! layered answer, asserted here: at *this* noise shape — bursts hard
//! enough to kill every frame — receivers observe near-identical
//! tallies and independent controllers converge within a bounded lag
//! on their own. At the **moderate** intensity
//! (`NoiseTrace::correlated_bursts_moderate`), where frames survive
//! with probability ≈ ½ and tallies are private binomial draws,
//! independent controllers split for tens of rounds, and the
//! piggybacked rung gossip of `AdaptiveConfig::with_gossip` is what
//! shortens the splits. It does not close each one within a round:
//! the `adaptive_tradeoff` artifact (pinned by
//! `crates/bench/tests/repro_golden.rs`) runs both presets over 32
//! trace seeds each on the stepper and judges gossip by its summed
//! divergence and `Σ|AHO|`; its longest split on the moderate preset
//! reads up to 13 rounds. The facade-level form is asserted below,
//! together with what the link-level undetected count does and does
//! not measure.

use heardof::conformance::{run_async_substrate, run_sim_substrate};
use heardof::prelude::*;
use heardof_coding::{AdaptiveConfig, NoiseTrace};

const N: usize = 5;
const ROUNDS: u64 = 36;
const SEED: u64 = 0xC0FF;

fn run_codes() -> Vec<Vec<CodeSpec>> {
    let cfg = AdaptiveConfig::standard(N, 1);
    let trace = NoiseTrace::correlated_bursts(SEED);
    let initial: Vec<u64> = (0..N as u64).map(|i| i % 2).collect();
    let algo: Ate<u64> = Ate::new(AteParams::balanced(N, 1).unwrap());
    run_sim_substrate(algo, N, initial, &cfg, &trace, ROUNDS).codes
}

#[test]
fn controllers_converge_to_the_same_rung_within_a_bounded_lag() {
    let codes = run_codes();
    assert_eq!(codes.len(), ROUNDS as usize);

    // The shared bursts must actually move the ladder…
    assert!(
        codes
            .iter()
            .any(|round| round.iter().any(|c| *c != CodeSpec::Checksum { width: 4 })),
        "correlated bursts never escalated anyone"
    );

    // …and whenever the controllers disagree (one escalated a round or
    // two before another), they must re-converge within a bounded lag:
    // no disagreement streak longer than 3 rounds, and agreement in the
    // clear majority of rounds.
    let mut streak = 0usize;
    let mut max_streak = 0usize;
    let mut disagreements = 0usize;
    for round in &codes {
        if round.iter().any(|c| *c != round[0]) {
            streak += 1;
            disagreements += 1;
            max_streak = max_streak.max(streak);
        } else {
            streak = 0;
        }
    }
    assert!(
        max_streak <= 3,
        "controllers stayed split for {max_streak} consecutive rounds: {codes:?}"
    );
    assert!(
        disagreements * 3 <= codes.len(),
        "controllers disagreed in {disagreements}/{} rounds: {codes:?}",
        codes.len()
    );
}

#[test]
fn gossip_cuts_divergence_on_the_moderate_preset_at_the_facade_level() {
    // The moderate preset splits independent controllers (receivers'
    // tallies straddle thresholds and splits self-sustain); the same
    // consensus run with gossip enabled must stay strictly less
    // divergent. This is the facade-level (engine + consensus) form of
    // the seed-run claim the `adaptive_tradeoff` golden pins.
    let rounds = 40u64;
    let trace = NoiseTrace::correlated_bursts_moderate(0xD00D);
    let initial: Vec<u64> = (0..N as u64).map(|i| i % 2).collect();
    let algo: Ate<u64> = Ate::new(AteParams::balanced(N, 1).unwrap());
    let run = |cfg: AdaptiveConfig| {
        run_sim_substrate(algo.clone(), N, initial.clone(), &cfg, &trace, rounds).codes
    };
    let independent = run(AdaptiveConfig::standard(N, 1));
    let gossip = run(AdaptiveConfig::standard(N, 1).with_gossip());
    let divergent = |codes: &[Vec<CodeSpec>]| {
        codes
            .iter()
            .filter(|round| round.iter().any(|c| *c != round[0]))
            .count()
    };
    assert!(
        divergent(&independent) >= 5,
        "the moderate preset must split independent controllers, got \
         {} divergent rounds",
        divergent(&independent)
    );
    assert!(
        divergent(&gossip) < divergent(&independent),
        "gossip must reduce divergence: {} vs {} rounds",
        divergent(&gossip),
        divergent(&independent)
    );
}

#[test]
fn the_correlated_preset_clears_the_conformance_bar_too() {
    // The shared-regime corruption is still a pure function of
    // (seed, round, sender, receiver, copy, len), so the substrates
    // must replay it identically — checked here sim vs async (both
    // deterministic; the full 3-way matrix lives in
    // adaptive_conformance.rs).
    let cfg = AdaptiveConfig::standard(N, 1);
    let trace = NoiseTrace::correlated_bursts(SEED);
    let initial: Vec<u64> = (0..N as u64).map(|i| i % 2).collect();
    let algo: Ate<u64> = Ate::new(AteParams::balanced(N, 1).unwrap());
    let sim = run_sim_substrate(algo.clone(), N, initial.clone(), &cfg, &trace, ROUNDS);
    let asy = run_async_substrate(algo, N, initial, &cfg, &trace, ROUNDS);
    if let Some(diff) = sim.first_divergence(&asy) {
        panic!("correlated trace diverges across substrates — {diff}");
    }
}

/// Over 32 trace seeds of `preset` from `first`, the summed link-level
/// undetected count and `Σ|AHO(p, r)|` of lockstep adaptive runs,
/// checking on every seed that the first bounds the second.
fn undetected_and_aho(preset: fn(u64) -> NoiseTrace, first: u64) -> (usize, usize) {
    let initial: Vec<u64> = (0..N as u64).map(|i| i % 2).collect();
    let algo: Ate<u64> = Ate::new(AteParams::balanced(N, 1).unwrap());
    let (mut undetected, mut aho) = (0, 0);
    for seed in first..first + 32 {
        let outcome = run_async(
            algo.clone(),
            N,
            initial.clone(),
            AsyncConfig {
                adaptive: Some(AdaptiveConfig::standard(N, 1)),
                trace: Some(preset(seed)),
                lockstep: true,
                max_rounds: 120,
                ..AsyncConfig::default()
            },
        );
        let seed_aho: usize = outcome
            .history
            .iter()
            .map(|(_, sets)| sets.total_corruptions())
            .sum();
        assert!(
            seed_aho <= outcome.undetected_corruptions,
            "seed {seed:#x}: Σ|AHO| {seed_aho} > link undetected {}",
            outcome.undetected_corruptions
        );
        undetected += outcome.undetected_corruptions;
        aho += seed_aho;
    }
    (undetected, aho)
}

#[test]
fn link_undetected_counts_bound_the_alpha_demand_from_above() {
    // `undetected_corruptions` counts every frame a link judged
    // delivered with a wrong body; `Σ|AHO(p, r)|` counts the ones a
    // receiver kept, the paper's α demand. On the hard preset the gap
    // is the whole count: its miscorrections decode to images the
    // receivers drop, so the links see value faults that no receiver
    // ever acts on.
    let (undetected, aho) = undetected_and_aho(NoiseTrace::correlated_bursts, 0x1234);
    assert!(undetected > 0, "the hard preset never beat a code");
    assert_eq!(aho, 0, "a receiver kept a wrong body");
    undetected_and_aho(NoiseTrace::correlated_bursts_moderate, 0xD00D);
}
