//! Cross-substrate conformance for **instance-multiplexed** runs
//! (batch > 1): the same seeded [`NoiseTrace`] drives the threaded mux
//! runtime and the async mux runtime, and both must agree on controller
//! decisions, per-instance decisions, wire-level kept logs and
//! per-round telemetry counters, round for round. The async runtime is the reference: its lockstep loop
//! closes rounds exactly, so it is the deterministic side of the pair.
//!
//! This is the batch-axis extension of `tests/adaptive_conformance.rs`:
//! that matrix pins the single-instance frame format byte-for-byte
//! (batch size 1 is untouched — `RoundEngine` does not go through the
//! mux format at all); this file pins the packed-slot wire image under
//! its own seed. One pinned seed, three instances per process, the
//! standard ladder under a front-loaded burst trace; the gossip
//! pathway runs the same bar over a fixed run of seeds.

use heardof::conformance::{run_mux_async_substrate, run_mux_net_substrate, MuxSubstrateReport};
use heardof::prelude::*;
use heardof_coding::{AdaptiveConfig, CodeSpec, GilbertElliott, NoisePhase, NoiseTrace};

/// The pinned multi-instance seed (CI runs it alongside the
/// single-instance matrix).
const MUX_SEED: u64 = 0xB47C4;
/// The **gossip-enabled** multi-instance seeds: same mux wire format,
/// but every frame also carries the rung-advertisement byte and
/// controllers adopt peer rungs — the gossip pathway under the
/// batch-axis conformance bar. Gossip changes a mux decision on only
/// one seed in eight to sixteen (4 of these 64), so the bar runs on a
/// fixed run of 64 seeds and the vacuity guard asks for adoption on at
/// least one of them: a change to the trace's stream needs no newly
/// chosen seed.
const GOSSIP_MUX_SEEDS: std::ops::Range<u64> = 0x6B47E..0x6B47E + 64;
const N: usize = 5;
/// Instances multiplexed per process — batch > 1 by construction.
const K: usize = 3;
const ROUNDS: u64 = 14;

fn mux_trace() -> NoiseTrace {
    NoiseTrace::new(
        MUX_SEED,
        vec![
            NoisePhase {
                rounds: 6,
                channel: GilbertElliott::bursty(),
            },
            NoisePhase {
                rounds: 6,
                channel: GilbertElliott::clean(),
            },
        ],
    )
}

/// Per-process initial values: instance `i` at process `p` starts from
/// a value that differs across both axes, so per-instance agreement is
/// a real claim.
fn mux_initials() -> Vec<Vec<u64>> {
    (0..N as u64)
        .map(|p| (0..K as u64).map(|i| (p + i) % 2).collect())
        .collect()
}

fn run_all() -> [MuxSubstrateReport<u64>; 2] {
    run_matrix(AdaptiveConfig::standard(N, 1), mux_trace())
}

/// The gossip matrix on one seed: divergence-prone correlated bursts
/// (tallies straddle thresholds, controllers split, adoption does real
/// work) on the gossip-enabled standard ladder.
fn run_all_gossip(seed: u64) -> [MuxSubstrateReport<u64>; 2] {
    run_matrix(
        AdaptiveConfig::standard(N, 1).with_gossip(),
        NoiseTrace::correlated_bursts_moderate(seed),
    )
}

/// (async, net) reports — the reference first.
fn run_matrix(cfg: AdaptiveConfig, trace: NoiseTrace) -> [MuxSubstrateReport<u64>; 2] {
    let algo: Ate<u64> = Ate::new(AteParams::balanced(N, 1).unwrap());
    let asy = run_mux_async_substrate(algo.clone(), N, mux_initials(), &cfg, &trace, ROUNDS);
    let net = run_mux_net_substrate(algo.clone(), N, mux_initials(), &cfg, &trace, ROUNDS);
    [asy, net]
}

#[test]
fn net_and_async_agree_on_the_multiplexed_seed() {
    let [asy, net] = run_all();
    for (name, report) in [("async", &asy), ("net", &net)] {
        assert_eq!(
            report.codes.len(),
            ROUNDS as usize,
            "{name} must cover every round"
        );
    }
    assert_eq!(asy, net, "async vs net diverge on the mux seed");
}

#[test]
fn every_instance_decides_and_agrees_across_processes() {
    let [asy, _] = run_all();
    for i in 0..K {
        let first = asy.decisions[0][i].expect("instance decided at process 0");
        for p in 0..N {
            assert_eq!(
                asy.decisions[p][i],
                Some(first),
                "instance {i} disagreement at process {p}"
            );
        }
    }
}

#[test]
fn the_mux_seed_is_not_vacuous() {
    // The conformance claim would be trivial if no controller ever
    // moved or no image was ever dropped. Under the front-loaded burst
    // phase, ladders must leave the checksum rung, and the kept logs
    // must show at least one incomplete round (a dropped image).
    let [asy, _] = run_all();
    for p in 0..N {
        assert_eq!(
            asy.codes[0][p],
            CodeSpec::Checksum { width: 4 },
            "ladders start at the cheap rung"
        );
        assert!(
            asy.codes
                .iter()
                .any(|round| round[p] != CodeSpec::Checksum { width: 4 }),
            "process {p} never escalated — mux trace too tame"
        );
    }
    assert!(
        asy.kept
            .iter()
            .flat_map(|per_round| per_round.iter())
            .any(|kept| kept.len() < N),
        "no image was ever dropped — mux trace too tame"
    );
    // The per-round counters are compared too; an empty recording
    // would make that comparison vacuous.
    let events: u64 = asy.telemetry.iter().map(|r| r.counts.total()).sum();
    assert!(events > 0, "the mux run recorded no telemetry event");
}

#[test]
fn net_and_async_agree_on_the_gossip_mux_seed() {
    // The gossip pathway — advertisement byte on every mux frame,
    // per-round ad collection, quorum adoption — must replay
    // identically across the mux substrates, exactly like the
    // single-instance gossip seed in `tests/adaptive_conformance.rs`.
    for seed in GOSSIP_MUX_SEEDS {
        let [asy, net] = run_all_gossip(seed);
        for (name, report) in [("async", &asy), ("net", &net)] {
            assert_eq!(
                report.codes.len(),
                ROUNDS as usize,
                "seed {seed:#x}: {name} must cover every round"
            );
        }
        assert_eq!(
            asy, net,
            "seed {seed:#x}: async vs net diverge under gossip"
        );
    }
}

#[test]
fn the_gossip_mux_seed_exercises_adoption() {
    // Guard against the gossip configuration going stale on the mux
    // rails: on some seed of the run, the gossip run must make
    // *different* controller decisions than independent controllers
    // would on the same trace, and on every seed every instance must
    // still decide and agree across processes.
    let mut adopting = 0;
    for seed in GOSSIP_MUX_SEEDS {
        let [gossip, _] = run_all_gossip(seed);
        let [independent, _] = run_matrix(
            AdaptiveConfig::standard(N, 1),
            NoiseTrace::correlated_bursts_moderate(seed),
        );
        adopting += usize::from(gossip.codes != independent.codes);
        for i in 0..K {
            let first = gossip.decisions[0][i].expect("instance decided at process 0");
            for p in 0..N {
                assert_eq!(
                    gossip.decisions[p][i],
                    Some(first),
                    "seed {seed:#x}: instance {i} disagreement at process {p} under gossip"
                );
            }
        }
    }
    assert!(
        adopting > 0,
        "gossip never changed a mux decision — the adoption pathway \
         is not being exercised on the batch axis"
    );
}
