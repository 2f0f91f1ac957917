//! Adversarial fault injection for the content-oblivious last-resort
//! rung ([`CodeSpec::Oblivious`]).
//!
//! The threat model is the *fully-defective link*: an adversary who
//! rewrites every payload byte of every frame in flight, at any
//! intensity up to 100%. No channel code survives that — every content
//! rung starves — but the oblivious rung never trusted the bytes in
//! the first place: a value is the number of fixed-length frames that
//! arrive on a link within the round window, so the strongest content
//! attack degenerates to honest delivery. These tests drive that claim
//! end to end: exhaustive count decoding, arbitrary payload rewrites
//! through live engines, ladder discipline under every corruption
//! intensity, and the release acceptance run — the pre-PR ladder never
//! decides under `NoiseTrace::fully_defective` while the extended
//! ladder decides with agreement and zero undetected value faults.

use heardof::conformance::{
    first_matrix_divergence, run_async_substrate, run_net_substrate, run_sim_substrate,
};
use heardof::prelude::*;
use heardof_coding::{
    decode_count, encode_count, oblivious_advert_frame, oblivious_value_frame, AdaptiveConfig,
    CodeSpec, CtlState, GilbertElliott, NoisePhase, NoiseTrace, OBL_MAX_EPOCH, OBL_MAX_VALUE,
};
use heardof_engine::Ingest;
use heardof_net::{run_threaded, LinkFaults, NetConfig};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 5;
const SEED: u64 = 0xDEFEC7;

fn initial_values() -> Vec<u64> {
    (0..N as u64).map(|i| i % 2).collect()
}

fn algo() -> Ate<u64> {
    Ate::new(AteParams::balanced(N, 1).unwrap())
}

/// Exhaustive all-values sweep of the count code itself: every legal
/// value round-trips exactly through its multiplicity, zero arrivals
/// decode to silence (never a forged value), and surplus arrivals
/// saturate at the channel maximum instead of wrapping into a
/// different value. Same for the epoch-as-count advert channel.
#[test]
fn count_decoding_is_exact_for_every_value_and_multiplicity() {
    for (max, label) in [(OBL_MAX_VALUE, "value"), (OBL_MAX_EPOCH, "epoch")] {
        assert_eq!(
            decode_count(0, max),
            None,
            "{label}: silence is silence, not a value"
        );
        for v in 0..=max {
            let copies = encode_count(v, max);
            assert_eq!(copies, v as usize + 1, "{label}: thermometer code");
            assert_eq!(
                decode_count(copies, max),
                Some(v),
                "{label}: value {v} must round-trip exactly"
            );
        }
        // Multiplicity sweep past the top: duplicated frames (a replay
        // or a retransmit) can only saturate, never alias a smaller
        // value.
        for extra in 1..=8usize {
            let copies = encode_count(max, max) + extra;
            assert_eq!(
                decode_count(copies, max),
                Some(max),
                "{label}: surplus multiplicity saturates"
            );
        }
    }
    // The two channels are disjoint by frame length alone.
    assert_ne!(
        oblivious_value_frame().len(),
        oblivious_advert_frame().len()
    );
}

/// A closed loop of engines pinned on the oblivious rung, with the
/// wire rewritten by four different full-payload attacks (complement,
/// zero-fill, ones-fill, position-keyed xor). Whatever bytes land, the
/// arrival counts are untouched — so every variant must decide, agree,
/// and decide *the same value as the clean wire*: payload rewrites
/// never yield a wrong decoded count.
#[test]
fn payload_rewrites_never_change_the_decoded_values() {
    type Rewrite = fn(usize, &[u8]) -> Vec<u8>;
    let attacks: [(&str, Rewrite); 5] = [
        ("clean", |_, b| b.to_vec()),
        ("complement", |_, b| b.iter().map(|x| !x).collect()),
        ("zero-fill", |_, b| vec![0u8; b.len()]),
        ("ones-fill", |_, b| vec![0xFF; b.len()]),
        ("keyed-xor", |i, b| {
            b.iter()
                .enumerate()
                .map(|(j, x)| x ^ (0xA5u8.wrapping_add((i + j) as u8)))
                .collect()
        }),
    ];
    let n = 3;
    let cfg = AdaptiveConfig::standard(n, 1).with_oblivious();
    let top = (cfg.ladder.len() - 1) as u8;
    let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
    let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());

    let mut decisions = Vec::new();
    for (name, attack) in attacks {
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
        for _ in 0..4 {
            let mut wires: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); n];
            for (p, engine) in engines.iter_mut().enumerate() {
                engine.begin_round_with(|dest, _copy, bytes| {
                    wires[dest as usize].push((p as u32, attack(p, bytes)));
                });
            }
            for (p, engine) in engines.iter_mut().enumerate() {
                for (sender, bytes) in &wires[p] {
                    let got = engine.ingest_from(*sender, bytes);
                    assert_eq!(
                        got,
                        Ingest::Counted,
                        "{name}: a length-preserving rewrite cannot \
                         knock a frame off the count channel"
                    );
                }
                engine.finish_round();
            }
        }
        let first = engines[0]
            .decision()
            .copied()
            .unwrap_or_else(|| panic!("{name}: the count channel must decide"));
        for e in &engines {
            assert_eq!(
                e.decision(),
                Some(&first),
                "{name}: agreement under payload rewriting"
            );
        }
        decisions.push((name, first));
    }
    let (_, clean) = decisions[0];
    for (name, d) in &decisions {
        assert_eq!(
            *d, clean,
            "{name}: rewritten payloads decoded to a different value \
             than the clean wire — content leaked into the decode"
        );
    }
}

/// Full-content corruption at every intensity: always-burst traces
/// with bit error rates from 30% to 100%. At every intensity the
/// controllers (a) only ever occupy real ladder rungs and (b) enter
/// the oblivious rung single-step — only from the brute-force rung
/// above it. At *full* intensity (every bit complemented) the run
/// additionally records zero undetected value faults: corruption is
/// either detected or irrelevant, never adopted. (At intermediate
/// intensities a cheap rung can be fooled by a checksum collision —
/// that is the α-budgeted regime the ladder exists to escalate out
/// of, not a forgery of the count channel.)
#[test]
fn controllers_hold_the_ladder_at_every_corruption_intensity() {
    let cfg = AdaptiveConfig::standard(N, 1)
        .with_gossip()
        .with_oblivious();
    let penultimate = cfg.ladder[cfg.ladder.len() - 2];
    for (i, ber) in [0.3, 0.6, 0.9, 1.0].into_iter().enumerate() {
        let trace = NoiseTrace::new(
            SEED + i as u64,
            vec![NoisePhase {
                rounds: 1,
                channel: GilbertElliott::new(1.0, 0.0, ber, ber),
            }],
        );
        let report = run_sim_substrate(algo(), N, initial_values(), &cfg, &trace, 30);
        for (r, round) in report.codes.iter().enumerate() {
            for (p, code) in round.iter().enumerate() {
                assert!(
                    cfg.ladder.contains(code),
                    "ber {ber}: round {} process {p} sits on {code:?}, \
                     which is not a ladder rung",
                    r + 1
                );
                if *code == CodeSpec::Oblivious && r > 0 {
                    let prev = report.codes[r - 1][p];
                    assert!(
                        prev == CodeSpec::Oblivious || prev == penultimate,
                        "ber {ber}: process {p} jumped onto the last \
                         resort from {prev:?} — entry must be single-step"
                    );
                }
            }
        }
        if ber == 1.0 {
            let undetected: u64 = report
                .telemetry
                .iter()
                .map(|round| round.counts.get(EventKind::LinkUndetected))
                .sum();
            assert_eq!(
                undetected, 0,
                "full complement corruption must never go undetected"
            );
        }
    }
}

/// The release acceptance run. Under [`NoiseTrace::fully_defective`]
/// — every payload byte of every inter-process frame complemented —
/// the pre-PR five-rung ladder starves: no process ever decides, over
/// a horizon almost three times the conformance seed's. The extended
/// ladder descends onto the oblivious rung and decides with agreement,
/// zero undetected corruptions, and zero `LinkUndetected` telemetry.
#[test]
fn fully_defective_links_starve_the_content_ladder_but_not_the_oblivious_rung() {
    const ROUNDS: u64 = 40;
    let trace = NoiseTrace::fully_defective(SEED);
    let net = |cfg: &AdaptiveConfig| {
        run_threaded(
            algo(),
            N,
            initial_values(),
            NetConfig {
                faults: LinkFaults::NONE,
                adaptive: Some(cfg.clone()),
                trace: Some(trace.clone()),
                lockstep: true,
                max_rounds: ROUNDS,
                round_timeout: Duration::from_millis(150),
                copies: 1,
                seed: 0,
                code: CodeSpec::DEFAULT,
                telemetry: Telemetry::null(),
            },
        )
    };

    // Pre-PR ladder: every content rung is defeated, nobody decides.
    let starved = net(&AdaptiveConfig::standard(N, 1).with_gossip());
    assert!(
        starved.decisions.iter().all(Option::is_none),
        "a content rung decided under full corruption: {:?}",
        starved.decisions
    );
    assert_eq!(
        starved.undetected_corruptions, 0,
        "full complement corruption must always be detected"
    );

    // Extended ladder: the count channel carries the run to a
    // unanimous decision.
    let cfg = AdaptiveConfig::standard(N, 1)
        .with_gossip()
        .with_oblivious();
    let decided = net(&cfg);
    assert!(
        decided.decisions.iter().all(Option::is_some),
        "the oblivious rung must reach decision: {:?}",
        decided.decisions
    );
    let first = decided.decisions[0].unwrap();
    assert!(
        decided.decisions.iter().all(|d| *d == Some(first)),
        "agreement under full corruption: {:?}",
        decided.decisions
    );
    assert_eq!(decided.undetected_corruptions, 0, "zero value faults");
    assert!(
        decided
            .code_schedule
            .iter()
            .all(|per| per.contains(&CodeSpec::Oblivious)),
        "every process must actually have used the last resort"
    );
}

/// The acceptance run is substrate-conformant: the same fully-defective
/// trace through the lockstep simulator, the threaded runtime and the
/// async runtime produces identical code schedules, identical `HO`/
/// `SHO` reconstructions and identical conformance telemetry, round
/// for round — and zero `LinkUndetected` events on any substrate.
#[test]
fn the_acceptance_run_is_three_way_substrate_conformant() {
    const ROUNDS: u64 = 26;
    let cfg = AdaptiveConfig::standard(N, 1)
        .with_gossip()
        .with_oblivious();
    let trace = NoiseTrace::fully_defective(SEED);
    let sim = run_sim_substrate(algo(), N, initial_values(), &cfg, &trace, ROUNDS);
    let net = run_net_substrate(algo(), N, initial_values(), &cfg, &trace, ROUNDS);
    let asy = run_async_substrate(algo(), N, initial_values(), &cfg, &trace, ROUNDS);
    if let Some(diff) = first_matrix_divergence(&[("sim", &sim), ("net", &net), ("async", &asy)]) {
        panic!("substrates diverge under full corruption — {diff}");
    }
    for (name, report) in [("sim", &sim), ("net", &net), ("async", &asy)] {
        let counted: u64 = report
            .telemetry
            .iter()
            .map(|round| round.counts.get(EventKind::ObliviousCount))
            .sum();
        assert!(counted > 0, "{name}: the count channel never carried");
        let undetected: u64 = report
            .telemetry
            .iter()
            .map(|round| round.counts.get(EventKind::LinkUndetected))
            .sum();
        assert_eq!(undetected, 0, "{name}: undetected value fault");
    }
}
