//! Adapting the code to the channel — the escalation ladder at work.
//!
//! ```text
//! cargo run --example adaptive_channel
//! ```
//!
//! Three acts:
//!
//! 1. a single receiver's `AdaptiveController` walking the ladder as a
//!    bursty channel switches on and off (watch the rung trace);
//! 2. full consensus (`A_{T,E}`) over the threaded runtime with
//!    per-round code renegotiation on the same noise — the run decides
//!    even though the checksum-only wire format would stall;
//! 3. the conformance harness: the lockstep simulator, the threaded
//!    runtime and the cooperative async runtime replay the identical
//!    seeded trace and agree on every controller decision and every
//!    HO/SHO set, round for round;
//! 4. the flight recorder closing the α loop: a ring-backed
//!    [`Telemetry`] plane attached to a threaded run, its α-budget
//!    ledger reading the observed corrected/undetected rates off the
//!    wire, and `recommend_alpha_from_ledger` turning the measurement
//!    into a provisioning recommendation.

use bytes::BytesMut;
use heardof::conformance::{
    first_matrix_divergence, run_async_substrate, run_net_substrate, run_sim_substrate,
};
use heardof::prelude::*;
use heardof_coding::{
    AdaptiveConfig, AdaptiveController, CodeBook, GilbertElliott, NoisePhase, NoiseTrace,
    RoundTally,
};
use heardof_net::{recommend_alpha_from_ledger, run_threaded, LinkFaults, NetConfig};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::Duration;

fn act_one_ladder_walk() {
    println!("== 1. the ladder, walked by a bursty channel ==\n");
    let n = 16;
    let trace = NoiseTrace::bursty(7); // 30 clean rounds, 30 bursty, cycling
    let cfg = AdaptiveConfig::standard(n, 3);
    let book = CodeBook::from_specs(&cfg.ladder);
    let mut ctl = AdaptiveController::new(cfg);
    let mut rng = StdRng::seed_from_u64(1);
    let mut body = vec![0u8; 25];
    let mut wire = BytesMut::new();
    println!("round  code                       delivered/expected (repaired)");
    for r in 1..=90u64 {
        let (mut kept, mut ok, mut corrected) = (0usize, 0usize, 0usize);
        for s in 0..(n - 1) as u32 {
            for b in body.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            wire.clear();
            book.encode_tagged(ctl.code_id(), None, None, &body, &mut wire);
            trace.corrupt_frame(r, s, 0, 0, &mut wire);
            if let Ok(got) = book.decode_tagged(&wire).0 {
                // A live receiver keeps every decodable frame — it has
                // no oracle to spot the (rare) undetected fault.
                kept += 1;
                corrected += usize::from(got.repaired);
                ok += usize::from(*got.body == *body);
            }
        }
        let before = ctl.current();
        let switched = ctl.observe(RoundTally {
            expected: n - 1,
            delivered: kept,
            corrected,
            value_faults: 0,
            evidence: 0,
        });
        if switched.is_some() || r % 15 == 0 {
            let marker = if switched.is_some() { "→" } else { " " };
            println!(
                "{r:>5}  {marker} {:<24} {ok:>2}/{} ({corrected})",
                before,
                n - 1
            );
        }
    }
    println!(
        "\nThe controller sits on the cheap checksum while the channel is \
         clean, jumps to burst-grade\ncorrection within a round of the burst \
         arriving, and steps back down once the window is quiet.\n"
    );
}

fn act_two_consensus_under_bursts() {
    println!("== 2. consensus with per-round renegotiation ==\n");
    let n = 5;
    let alpha = 1;
    let algo: Ate<u64> = Ate::new(AteParams::balanced(n, alpha).unwrap());
    // Bursts with sporadic quiet windows — the paper's liveness shape:
    // A_{T,E} at n = 5 decides on near-unanimous rounds, which the
    // quiet windows provide while the bursts exercise the ladder.
    let trace = NoiseTrace::new(
        3,
        vec![
            NoisePhase {
                rounds: 6,
                channel: GilbertElliott::bursty(),
            },
            NoisePhase {
                rounds: 4,
                channel: GilbertElliott::clean(),
            },
        ],
    );
    let outcome = run_threaded(
        algo,
        n,
        vec![1, 2, 1, 2, 1],
        NetConfig {
            adaptive: Some(AdaptiveConfig::standard(n, alpha)),
            trace: Some(trace),
            round_timeout: Duration::from_millis(60),
            max_rounds: 40,
            ..NetConfig::default()
        },
    );
    println!(
        "decided: {} (agreement: {}), last decision round: {:?}",
        outcome.all_decided(),
        outcome.agreement_ok(),
        outcome.last_decision_round()
    );
    for (p, codes) in outcome.code_schedule.iter().enumerate() {
        let path: Vec<String> = codes
            .iter()
            .enumerate()
            .filter(|(i, c)| *i == 0 || codes[*i - 1] != **c)
            .map(|(i, c)| format!("r{}:{}", i + 1, c))
            .collect();
        println!("  p{p} ladder path: {}", path.join(" → "));
    }
    println!();
}

fn act_three_conformance() {
    println!("== 3. three substrates, one trace, zero divergence ==\n");
    let n = 5;
    let cfg = AdaptiveConfig::standard(n, 1);
    let trace = NoiseTrace::new(
        0xA11CE,
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
    );
    let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 1).unwrap());
    let initial: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
    let rounds = 12;
    let sim = run_sim_substrate(algo.clone(), n, initial.clone(), &cfg, &trace, rounds);
    let net = run_net_substrate(
        algo.clone(),
        n,
        initial.clone(),
        &cfg,
        &trace,
        rounds,
        Duration::from_millis(120),
    );
    let asy = run_async_substrate(algo, n, initial, &cfg, &trace, rounds);
    match first_matrix_divergence(&[("sim", &sim), ("net", &net), ("async", &asy)]) {
        None => println!(
            "sim, net and async agree on all {} rounds of controller decisions and HO/SHO sets.",
            sim.rounds().min(net.rounds()).min(asy.rounds())
        ),
        Some(diff) => println!("DIVERGENCE: {diff}"),
    }
}

fn act_four_flight_recorder() {
    println!("\n== 4. the flight recorder closes the α loop ==\n");
    let n = 5;
    let provisioned_alpha = 1;
    let algo: Ate<u64> = Ate::new(AteParams::balanced(n, provisioned_alpha).unwrap());
    // A channel whose corruptions sometimes slip past the code — the
    // situation the α budget exists for. The ring-backed plane rides
    // along and counts every wire verdict.
    let telemetry = Telemetry::ring();
    let outcome = run_threaded(
        algo,
        n,
        vec![1, 2, 1, 2, 1],
        NetConfig {
            adaptive: Some(AdaptiveConfig::standard(n, provisioned_alpha)),
            faults: LinkFaults {
                corrupt_prob: 0.08,
                undetected_prob: 0.4,
                ..LinkFaults::NONE
            },
            round_timeout: Duration::from_millis(40),
            max_rounds: 30,
            lockstep: true,
            seed: 7,
            telemetry: telemetry.clone(),
            ..NetConfig::default()
        },
    );
    let recording = telemetry.snapshot().expect("ring-backed telemetry");
    let ledger = recording.alpha_ledger();
    println!(
        "run decided: {} — wire verdicts: {} delivered, {} corrected, {} detected, {} undetected",
        outcome.all_decided(),
        recording.totals[EventKind::LinkDelivered],
        recording.totals[EventKind::LinkCorrected],
        recording.totals[EventKind::LinkDetected],
        recording.totals[EventKind::LinkUndetected],
    );
    println!(
        "ledger: corrected rate {:.4}, undetected (corruption) rate {:.4}, \
         {:.2} α consumed per round",
        ledger.observed_corrected_rate(),
        ledger.observed_corruption_rate(),
        ledger.undetected_per_round(),
    );
    let est = recommend_alpha_from_ledger(&ledger, n, 1e-6);
    println!(
        "recommendation: provision α = {} (P(per-process overflow) ≤ 1e-6) — \
         this run was provisioned with α = {provisioned_alpha}",
        est.recommended_alpha,
    );
    println!(
        "\nThe same numbers the conformance bar pins byte-identical across \
         substrates are the ones\nthe operator reads: the flight recording is \
         the accounting, not a parallel estimate of it."
    );
}

fn main() {
    act_one_ladder_walk();
    act_two_consensus_under_bursts();
    act_three_conformance();
    act_four_flight_recorder();
}
