//! Release-scale acceptance regression for adaptive code switching —
//! the compact, asserting form of the `adaptive_tradeoff` experiment.
//!
//! All tests here are `#[ignore]`d Monte-Carlo runs: far too slow for a
//! debug build, deterministic per the pinned seeds, executed in CI by
//! the `cargo test --release -p heardof-coding -- --include-ignored`
//! job.

use bytes::BytesMut;
use heardof_coding::{
    chernoff_alpha_for_mean, AdaptiveConfig, AdaptiveController, CodeBook, CodeSpec, NoiseTrace,
    RoundTally,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const SENDERS: usize = 23;
const N: usize = 24;
/// The largest feasible `A_{T,E}` budget at `n = 24` (`α < n/4`).
const BUDGET: u32 = 5;
const BODY_LEN: usize = 25;
const ROUNDS: u64 = 240;
const TAIL: f64 = 1e-6;

struct Measured {
    wire_bytes: usize,
    value_faults: usize,
    productive_rounds: usize,
    switches: usize,
}

impl Measured {
    fn alpha_star(&self) -> u32 {
        chernoff_alpha_for_mean(self.value_faults as f64 / ROUNDS as f64, N, TAIL)
    }

    fn feasible(&self) -> bool {
        self.alpha_star() <= BUDGET
    }

    fn bandwidth(&self) -> f64 {
        self.wire_bytes as f64 / (self.productive_rounds * SENDERS * BODY_LEN) as f64
    }
}

/// One receiver's channel, `ROUNDS` rounds of `SENDERS` frames through
/// either a pinned code or the standard adaptive ladder. Mirrors the
/// `adaptive_tradeoff` bench loop.
fn measure(spec: Option<CodeSpec>, trace: &NoiseTrace) -> Measured {
    let cfg = AdaptiveConfig::standard(N, BUDGET);
    let book = CodeBook::from_specs(&cfg.ladder);
    let mut controller = spec.is_none().then(|| AdaptiveController::new(cfg));
    let static_code = spec.map(CodeSpec::build);
    let mut rng = StdRng::seed_from_u64(0xFEED);
    let mut body = vec![0u8; BODY_LEN];
    let (mut wire_bytes, mut faults, mut productive) = (0usize, 0usize, 0usize);
    for r in 1..=ROUNDS {
        let (mut ok, mut corrected, mut missed) = (0usize, 0usize, 0usize);
        for s in 0..SENDERS as u32 {
            for b in body.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            let mut wire = BytesMut::new();
            match (&static_code, &controller) {
                (Some(code), _) => code.encode_into(&body, None, &mut wire),
                (None, Some(ctl)) => {
                    book.encode_tagged(ctl.code_id(), None, None, &body, &mut wire)
                }
                _ => unreachable!(),
            };
            wire_bytes += wire.len();
            trace.corrupt_frame(r, s, 0, 0, &mut wire);
            let verdict = match &static_code {
                Some(code) => code.decode_scan(&wire).outcome.ok(),
                None => book
                    .decode_tagged(&wire)
                    .0
                    .ok()
                    .map(|t| (t.body, t.repaired)),
            };
            match verdict {
                None => {}
                Some((payload, repaired)) if *payload == *body => {
                    ok += 1;
                    corrected += usize::from(repaired);
                }
                Some(_) => missed += 1,
            }
        }
        faults += missed;
        if ok * 3 >= SENDERS * 2 {
            productive += 1;
        }
        if let Some(ctl) = &mut controller {
            ctl.observe(RoundTally {
                expected: SENDERS,
                delivered: ok + missed,
                corrected,
                value_faults: 0,
                evidence: 0,
            });
        }
    }
    Measured {
        wire_bytes,
        value_faults: faults,
        productive_rounds: productive,
        switches: controller.map_or(0, |c| c.switches()),
    }
}

#[test]
#[ignore = "Monte-Carlo at release scale; CI runs with --include-ignored"]
fn adaptive_stays_feasible_where_every_static_pays() {
    // The ISSUE-2 acceptance claim, asserted: on the bursty trace the
    // adaptive controller stays P_α-feasible while every static
    // CodeSpec either violates feasibility or spends ≥ 2× the
    // bandwidth (wire bytes per payload byte per productive round).
    let trace = NoiseTrace::bursty(0xB0B5);
    let adaptive = measure(None, &trace);
    assert!(
        adaptive.feasible(),
        "adaptive must stay within the α budget: α* = {} > {BUDGET} ({} faults)",
        adaptive.alpha_star(),
        adaptive.value_faults
    );
    assert!(
        adaptive.productive_rounds > ROUNDS as usize / 2,
        "adaptive must keep making progress through the bursts: {} productive",
        adaptive.productive_rounds
    );

    let statics = [
        CodeSpec::None,
        CodeSpec::Checksum { width: 1 },
        CodeSpec::Checksum { width: 4 },
        CodeSpec::Hamming74,
        CodeSpec::Interleaved { depth: 16 },
        CodeSpec::Concatenated { width: 4 },
        CodeSpec::Fountain { repair: 8 },
        CodeSpec::Repetition { k: 5 },
    ];
    for spec in statics {
        let m = measure(Some(spec), &trace);
        assert!(
            !m.feasible() || m.bandwidth() >= 2.0,
            "{spec}: a static point must violate feasibility or pay ≥2x \
             (α* = {}, bandwidth = {:.3})",
            m.alpha_star(),
            m.bandwidth()
        );
        // The sharper comparison: any static that is feasible AND live
        // through the bursts is strictly costlier than adaptive.
        if m.feasible() && m.productive_rounds > ROUNDS as usize / 2 {
            assert!(
                adaptive.bandwidth() < m.bandwidth(),
                "{spec}: adaptive ({:.3}) must undercut feasible burst-live \
                 statics ({:.3})",
                adaptive.bandwidth(),
                m.bandwidth()
            );
        }
    }
}

#[test]
#[ignore = "Monte-Carlo at release scale; CI runs with --include-ignored"]
fn hamming_miscorrections_blow_the_budget_under_bursts() {
    // The reason the ladder's severe jump skips the bare-SECDED rung:
    // under the bursty trace its three-flips-per-block miscorrections
    // leak value faults at an α* far past any A_{T,E} budget.
    let trace = NoiseTrace::bursty(0xB0B5);
    let hamming = measure(Some(CodeSpec::Hamming74), &trace);
    assert!(
        hamming.alpha_star() > BUDGET,
        "bare SECDED must be infeasible under bursts, got α* = {}",
        hamming.alpha_star()
    );
    // …and the concatenated rung exists precisely to close that leak.
    let concat = measure(Some(CodeSpec::Concatenated { width: 4 }), &trace);
    assert_eq!(
        concat.value_faults, 0,
        "hamming inside CRC-32 leaks nothing at this scale"
    );
}

#[test]
#[ignore = "Monte-Carlo at release scale; CI runs with --include-ignored"]
fn fountain_rung_undercuts_repetition_on_the_hard_burst_preset() {
    // The ISSUE-4 acceptance claim, asserted: on the hard-burst trace
    // the rateless rung is P_α-feasible, stays live through the bursts,
    // and pays strictly less bandwidth than the whole-frame
    // quintuplication it displaces — the value-fault→omission trade
    // priced in incremental symbols instead of copies.
    let trace = NoiseTrace::bursty(0xB0B5);
    let fountain = measure(Some(CodeSpec::Fountain { repair: 8 }), &trace);
    let rep5 = measure(Some(CodeSpec::Repetition { k: 5 }), &trace);
    assert!(
        fountain.feasible(),
        "the fountain rung must stay within the α budget: α* = {} ({} faults)",
        fountain.alpha_star(),
        fountain.value_faults
    );
    assert!(
        fountain.productive_rounds > ROUNDS as usize / 2,
        "the fountain rung must keep making progress through the bursts: \
         {} productive",
        fountain.productive_rounds
    );
    assert!(
        fountain.bandwidth() < rep5.bandwidth(),
        "incremental symbols must undercut whole-frame copies: \
         fountain {:.3} vs repetition5 {:.3}",
        fountain.bandwidth(),
        rep5.bandwidth()
    );
}

/// The shared mesh experiment ([`heardof_coding::mesh::drive_mesh`])
/// at this file's scale parameters — the `adaptive_tradeoff` lag table
/// prints from the same loop, so the printed and asserted claims
/// cannot drift apart.
fn run_mesh(
    cfg: AdaptiveConfig,
    n: usize,
    trace: &NoiseTrace,
    rounds: u64,
) -> heardof_coding::mesh::MeshReport {
    heardof_coding::mesh::drive_mesh(cfg, n, trace, rounds, BODY_LEN, 0xFEED)
}

#[test]
#[ignore = "Monte-Carlo at release scale; CI runs with --include-ignored"]
fn gossip_closes_the_correlated_burst_convergence_lag() {
    // The ISSUE-5 acceptance claim, asserted: on the correlated-burst
    // preset (one shared regime hitting all links), gossip-enabled
    // controllers diverge for ≤1 round where independent ones are
    // bounded by ≤3 — and gossip never increases the α-counted events
    // the code exists to suppress.
    let n = 5;
    let rounds = 120;
    let trace = NoiseTrace::correlated_bursts(0x1234);
    let independent = run_mesh(AdaptiveConfig::standard(n, 1), n, &trace, rounds);
    let gossip = run_mesh(
        AdaptiveConfig::standard(n, 1).with_gossip(),
        n,
        &trace,
        rounds,
    );
    println!(
        "correlated_bursts lag over {rounds} rounds at n = {n}: \
         independent max streak {} ({} divergent rounds, {} α events) vs \
         gossip max streak {} ({} divergent rounds, {} α events)",
        independent.max_divergence_streak(),
        independent.divergent_rounds(),
        independent.alpha_events,
        gossip.max_divergence_streak(),
        gossip.divergent_rounds(),
        gossip.alpha_events,
    );
    assert!(
        independent.max_divergence_streak() <= 3,
        "the PR-3 baseline bound must still hold: {} rounds",
        independent.max_divergence_streak()
    );
    assert!(
        gossip.max_divergence_streak() <= 1,
        "gossip must cut controller divergence to ≤1 round, got {} ({:?})",
        gossip.max_divergence_streak(),
        gossip.rungs
    );
    assert!(
        gossip.alpha_events <= independent.alpha_events,
        "gossip must never increase α-counted events: {} vs {}",
        gossip.alpha_events,
        independent.alpha_events
    );
}

#[test]
#[ignore = "Monte-Carlo at release scale; CI runs with --include-ignored"]
fn gossip_collapses_standing_splits_on_the_moderate_preset() {
    // The canonical correlated preset corrupts so hard that every
    // receiver sees the same tally and controllers rarely split at all
    // (the test above pins that regime anyway). The *moderate* preset
    // is where the lag problem actually lives: frames are hit with
    // probability ≈ ½, each receiver's tally is a private binomial
    // draw, and a split sustains itself — a receiver whose peers sit on
    // a cheap rung watches their unprotected frames die and reads it as
    // fresh pressure. Independent controllers stay split for tens of
    // rounds here; piggybacked gossip (newest-decision adoption +
    // stable-majority join) must collapse the divergence to ≤1 round
    // without increasing α-counted events.
    let n = 5;
    let rounds = 120;
    let trace = NoiseTrace::correlated_bursts_moderate(0xD00D);
    let independent = run_mesh(AdaptiveConfig::standard(n, 1), n, &trace, rounds);
    let gossip = run_mesh(
        AdaptiveConfig::standard(n, 1).with_gossip(),
        n,
        &trace,
        rounds,
    );
    println!(
        "correlated_bursts_moderate lag over {rounds} rounds at n = {n}: \
         independent max streak {} ({} divergent rounds, {} α events) vs \
         gossip max streak {} ({} divergent rounds, {} α events)",
        independent.max_divergence_streak(),
        independent.divergent_rounds(),
        independent.alpha_events,
        gossip.max_divergence_streak(),
        gossip.divergent_rounds(),
        gossip.alpha_events,
    );
    assert!(
        independent.max_divergence_streak() >= 10,
        "the moderate preset must actually split independent \
         controllers for a sustained stretch, got {} — preset too tame",
        independent.max_divergence_streak()
    );
    assert!(
        gossip.max_divergence_streak() <= 1,
        "gossip must cut controller divergence to ≤1 round, got {} ({:?})",
        gossip.max_divergence_streak(),
        gossip.rungs
    );
    assert!(
        gossip.divergent_rounds() * 4 <= independent.divergent_rounds(),
        "gossip must eliminate the bulk of divergent rounds: {} vs {}",
        gossip.divergent_rounds(),
        independent.divergent_rounds()
    );
    assert!(
        gossip.alpha_events <= independent.alpha_events,
        "gossip must never increase α-counted events: {} vs {}",
        gossip.alpha_events,
        independent.alpha_events
    );
}

#[test]
#[ignore = "Monte-Carlo at release scale; CI runs with --include-ignored"]
fn oscillating_noise_cannot_whipsaw_the_ladder() {
    // The adversarial trace alternates noise faster than the cooldown;
    // hysteresis (dwell, calm streaks, repair-activity pinning) must
    // bound the controller to a handful of switches across 240 rounds.
    let trace = NoiseTrace::oscillating(0x05C1);
    let adaptive = measure(None, &trace);
    assert!(
        adaptive.switches <= 6,
        "whipsaw damping failed: {} switches in {ROUNDS} rounds",
        adaptive.switches
    );
    assert!(
        adaptive.feasible(),
        "whipsaw defense must not sacrifice the α budget: α* = {}",
        adaptive.alpha_star()
    );
}
