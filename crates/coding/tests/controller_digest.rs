//! The controller's decision schedule, pinned as one digest.
//!
//! Seeded random round tallies (7 expected frames; delivered, corrected,
//! evidence and value-fault counts drawn, in calm and noisy phases) and,
//! with gossip on, random rung advertisements — a group decision most
//! peers echo, the receiver's own advert, forged bytes naming in- and
//! out-of-ladder rungs, and silence — are fed through
//! `AdaptiveController::observe_with_gossip` for three configurations:
//! `standard(8, 1)`, `.with_gossip()` and `.with_gossip().with_oblivious()`.
//! Each round's (rung, epoch, switch cause, pinned flag) is folded into
//! one FNV-1a digest. A refactor of the controller — its estimator, its
//! module layout, its public surface — must leave every decision where
//! it was; the pinned value was computed before any of those moved.

use heardof_coding::{AdaptiveConfig, AdaptiveController, RoundTally, RungAdvert, SwitchCause};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PEERS: usize = 7;
const ROUNDS: usize = 2_000;
const SEEDS: u64 = 16;

/// Every decision and how often each kind of move happened.
#[derive(Default)]
struct Schedule {
    digest: u64,
    causes: [u64; 4],
    pins: u64,
    top_rung_rounds: u64,
}

impl Schedule {
    fn fold(&mut self, x: u8) {
        self.digest = (self.digest ^ u64::from(x)).wrapping_mul(0x100_0000_01B3);
    }
}

fn draw_tally(rng: &mut StdRng, noisy: bool) -> RoundTally {
    let delivered = if noisy {
        rng.gen_range(0..=PEERS)
    } else {
        PEERS - usize::from(rng.gen_bool(1.0 / 16.0))
    };
    let corrected = if noisy {
        rng.gen_range(0..=delivered)
    } else {
        usize::from(rng.gen_bool(1.0 / 8.0)).min(delivered)
    };
    RoundTally {
        expected: PEERS,
        delivered,
        corrected,
        value_faults: usize::from(rng.gen_bool(1.0 / 32.0)),
        evidence: rng.gen_range(0..=PEERS - delivered),
    }
}

fn draw_ads(rng: &mut StdRng, group: RungAdvert, own: RungAdvert, out: &mut Vec<RungAdvert>) {
    out.clear();
    for _ in 0..PEERS {
        match rng.gen_range(0..8u8) {
            0..=4 => out.push(group),
            5 => out.push(own),
            6 => out.extend(RungAdvert::from_byte(rng.gen_range(0..=255u8))),
            _ => {}
        }
    }
}

fn run(cfg: &AdaptiveConfig, into: &mut Schedule) {
    let gossip = cfg.gossip.is_some();
    let top = cfg.ladder.len() - 1;
    let mut ads = Vec::with_capacity(PEERS);
    for seed in 1..=SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ctl = AdaptiveController::new(cfg.clone());
        let mut noisy = false;
        let mut group = RungAdvert { rung: 0, epoch: 0 };
        for _ in 0..ROUNDS {
            if rng.gen_bool(1.0 / 12.0) {
                noisy = !noisy;
            }
            if rng.gen_bool(1.0 / 20.0) {
                group = RungAdvert {
                    rung: rng.gen_range(0..top as u8),
                    epoch: (group.epoch + 1) % 16,
                };
            }
            let tally = draw_tally(&mut rng, noisy);
            if gossip {
                let own = ctl.advert().expect("gossip advertises");
                draw_ads(&mut rng, group, own, &mut ads);
            }
            let pins = ctl.gossip_pins();
            let switched = ctl.observe_with_gossip(tally, &ads).is_some();
            let cause = if switched {
                ctl.last_switch_cause().expect("a switch names its cause")
            } else {
                SwitchCause::Escalate
            };
            let pinned = ctl.gossip_pins() > pins;
            into.fold(ctl.rung() as u8);
            into.fold(ctl.epoch());
            into.fold(if switched { cause.code() } else { 0xFF });
            into.fold(u8::from(pinned));
            if switched {
                into.causes[cause.code() as usize] += 1;
            }
            into.pins += u64::from(pinned);
            into.top_rung_rounds += u64::from(ctl.rung() == top);
        }
    }
}

#[test]
fn the_controller_schedule_is_pinned() {
    let plain = AdaptiveConfig::standard(8, 1);
    let gossip = plain.clone().with_gossip();
    let oblivious = gossip.clone().with_oblivious();
    let mut schedule = Schedule {
        digest: 0xCBF2_9CE4_8422_2325,
        ..Schedule::default()
    };
    for cfg in [&plain, &gossip, &oblivious] {
        run(cfg, &mut schedule);
    }
    // Not vacuous: every switch cause, the last-resort pin and the top
    // rung all occur.
    assert!(
        schedule.causes.iter().all(|&c| c > 0),
        "escalate / release / adopt / join: {:?}",
        schedule.causes
    );
    assert!(schedule.pins > 0, "the last-resort pin never engaged");
    assert!(
        schedule.top_rung_rounds > 0,
        "no controller reached its top rung"
    );
    assert_eq!(
        schedule.digest, 0x4DAA_6964_6FB7_A2A7,
        "the controller's decisions moved (causes {:?}, pins {}, top-rung rounds {})",
        schedule.causes, schedule.pins, schedule.top_rung_rounds
    );
}
