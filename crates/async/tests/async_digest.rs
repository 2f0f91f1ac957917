//! Every count of the benchmark's three async shapes, pinned as one
//! digest.
//!
//! `clean-single` (n = 16, CRC-32, no faults), `lossy-mux-fountain`
//! (64 slots, n = 5, `Fountain { repair: 8 }`, 2 % drops, 5 % detected
//! corruption) and `bursty-adaptive` (n = 8, the gossiping ladder on a
//! 6-bursty / 4-clean noise trace) each run seeds 1 ..= 200 through
//! `run_async` / `run_async_mux`. A change to how the substrate drives a
//! round must leave every RNG draw, every kept frame and every decision
//! where it was: this test folds the decisions and their rounds, the
//! rounds completed, the code schedules, the undetected corruptions,
//! each round's per-process `|HO|` / `|SHO|`, the mux `kept` lists
//! (sorted within a round — arrival order is not an outcome) and the
//! link plane's per-verdict frame and byte totals into one FNV-1a
//! digest per shape.

use heardof_async::{run_async, run_async_mux, AsyncConfig};
use heardof_coding::{AdaptiveConfig, CodeSpec, GilbertElliott, NoisePhase, NoiseTrace};
use heardof_core::{Ate, AteParams};
use heardof_model::ProcessId;
use heardof_net::LinkFaults;
use heardof_telemetry::{EventKind, Telemetry};

const SEEDS: std::ops::RangeInclusive<u64> = 1..=200;

/// The five verdicts a link reports; each event's value is the frame's
/// wire length.
const LINK_KINDS: [EventKind; 5] = [
    EventKind::LinkDelivered,
    EventKind::LinkDropped,
    EventKind::LinkCorrected,
    EventKind::LinkDetected,
    EventKind::LinkUndetected,
];

struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01B3);
        }
    }

    fn fold(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn option(&mut self, x: Option<u64>) {
        self.fold(x.unwrap_or(u64::MAX));
    }

    fn codes(&mut self, codes: &[CodeSpec]) {
        self.fold(codes.len() as u64);
        for code in codes {
            self.bytes(code.to_string().as_bytes());
        }
    }

    fn links(&mut self, telemetry: &Telemetry) {
        for kind in LINK_KINDS {
            self.fold(telemetry.total(kind));
            self.fold(telemetry.value_total(kind));
        }
    }
}

/// The benchmark's proposal rule: op seed `s` is unanimous when
/// `(s - 1) % 4 == 3`; process `p` proposes `(p + slot + s) % 3`.
fn proposal(seed: u64, p: usize, slot: usize) -> u64 {
    let p = if (seed - 1) % 4 == 3 { 0 } else { p as u64 };
    (p + slot as u64 + seed % 3) % 3
}

fn ate(n: usize, alpha: u32) -> Ate<u64> {
    Ate::new(AteParams::balanced(n, alpha).unwrap())
}

fn config(seed: u64, telemetry: &Telemetry) -> AsyncConfig {
    AsyncConfig {
        seed,
        telemetry: telemetry.clone(),
        ..AsyncConfig::default()
    }
}

/// Folds one single-instance shape over every seed.
fn single_digest(n: usize, alpha: u32, shape: impl Fn(AsyncConfig) -> AsyncConfig) -> u64 {
    let mut digest = Digest::new();
    for seed in SEEDS {
        let telemetry = Telemetry::counters();
        let initial = (0..n).map(|p| proposal(seed, p, 0)).collect();
        let o = run_async(ate(n, alpha), n, initial, shape(config(seed, &telemetry)));
        assert!(
            o.decisions.iter().all(Option::is_some),
            "seed {seed}: {:?}",
            o.decisions
        );
        for p in 0..n {
            digest.option(o.decisions[p]);
            digest.option(o.decision_rounds[p]);
            digest.fold(o.rounds_completed[p]);
            digest.codes(&o.code_schedule[p]);
        }
        digest.fold(o.undetected_corruptions as u64);
        for (_, sets) in o.history.iter() {
            for p in 0..n {
                let p = ProcessId::new(p as u32);
                digest.fold(sets.ho(p).len() as u64);
                digest.fold(sets.sho(p).len() as u64);
            }
        }
        digest.links(&telemetry);
    }
    digest.0
}

#[test]
fn clean_single_is_pinned() {
    let digest = single_digest(16, 3, |c| AsyncConfig {
        code: CodeSpec::Checksum { width: 4 },
        max_rounds: 50,
        ..c
    });
    assert_eq!(digest, 0x3180_9727_8739_78C5, "clean-single moved");
}

#[test]
fn bursty_adaptive_is_pinned() {
    let digest = single_digest(8, 1, |c| AsyncConfig {
        adaptive: Some(AdaptiveConfig::standard(8, 1).with_gossip()),
        trace: Some(NoiseTrace::new(
            c.seed,
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
        )),
        max_rounds: 100,
        ..c
    });
    assert_eq!(digest, 0xD753_0A0C_B993_44A9, "bursty-adaptive moved");
}

#[test]
fn lossy_mux_fountain_is_pinned() {
    let (n, slots) = (5, 64);
    let mut digest = Digest::new();
    for seed in SEEDS {
        let telemetry = Telemetry::counters();
        let initials = (0..n)
            .map(|p| (0..slots).map(|j| proposal(seed, p, j)).collect())
            .collect();
        let config = AsyncConfig {
            code: CodeSpec::Fountain { repair: 8 },
            faults: LinkFaults {
                drop_prob: 0.02,
                corrupt_prob: 0.05,
                undetected_prob: 0.0,
            },
            max_rounds: 60,
            ..config(seed, &telemetry)
        };
        let reports = run_async_mux(ate(n, 1), n, initials, config);
        for mut report in reports {
            assert!(report.decisions.iter().all(Option::is_some), "seed {seed}");
            for j in 0..slots {
                digest.option(report.decisions[j]);
                digest.option(report.decision_rounds[j]);
            }
            digest.fold(report.rounds_completed);
            digest.codes(&report.codes);
            for round in &mut report.kept {
                round.sort_unstable();
                digest.fold(round.len() as u64);
                for &(sender, copy) in round.iter() {
                    digest.fold(u64::from(sender) << 8 | u64::from(copy));
                }
            }
        }
        digest.links(&telemetry);
    }
    assert_eq!(digest.0, 0xD628_6FBA_D4F1_8C17, "lossy-mux-fountain moved");
}
