//! The closed-loop controller mesh: the shared experiment behind the
//! rung-gossip convergence claims.
//!
//! Divergence is a relation *between* controllers, so measuring it
//! takes a mesh, not the single-receiver loops the other tradeoff
//! harnesses use: `n` controllers, every ordered pair exchanging one
//! tagged frame per round through a seeded [`NoiseTrace`], each
//! receiver tallying what a live receiver can observe (deliveries and
//! repairs), each kept frame's piggybacked [`RungAdvert`] reaching the
//! receiver's controller at end of round, and an oracle counting the
//! undetected value faults no receiver can see.
//!
//! The `adaptive_tradeoff` artifact of `heardof-bench` prints its lag
//! table and gossip claims from this loop, and
//! `crates/bench/tests/repro_golden.rs` pins that output byte for byte
//! and fails on any `VIOLATED` claim — the printed claim is the
//! asserted one.

use crate::adaptive::{AdaptiveConfig, AdaptiveController};
use crate::burst::NoiseTrace;
use crate::codebook::{CodeBook, RungAdvert};
use crate::step::RoundTally;
use bytes::BytesMut;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// What one mesh run recorded: the per-round rung vector across the
/// mesh, the oracle's α-event count, and the total switches taken.
#[derive(Clone, Debug)]
pub struct MeshReport {
    /// `rungs[r][p]`: the rung controller `p` held entering round
    /// `r + 1`.
    pub rungs: Vec<Vec<usize>>,
    /// Undetected value faults across the whole run — the oracle view
    /// (decoded payload differed from the sent one), invisible to any
    /// live receiver and the event the `α` budget must absorb.
    pub alpha_events: usize,
    /// Switches taken by all controllers combined.
    pub switches: usize,
}

impl MeshReport {
    /// The longest run of consecutive rounds in which the controllers
    /// did not all hold the same rung — the divergence lag the gossip
    /// claims bound.
    pub fn max_divergence_streak(&self) -> usize {
        let (mut streak, mut max) = (0usize, 0usize);
        for round in &self.rungs {
            if round.iter().any(|r| *r != round[0]) {
                streak += 1;
                max = max.max(streak);
            } else {
                streak = 0;
            }
        }
        max
    }

    /// Total rounds in which at least two controllers disagreed.
    pub fn divergent_rounds(&self) -> usize {
        self.rungs
            .iter()
            .filter(|round| round.iter().any(|r| *r != round[0]))
            .count()
    }
}

/// Drives an all-to-all mesh of `n` controllers configured by `cfg`
/// for `rounds` rounds over `trace`: per round, every sender draws a
/// fresh `body_len`-byte payload from the `seed`ed stream, encodes it
/// once under its current rung (with its [`RungAdvert`] when the
/// config gossips), and each ordered link corrupts and decodes its own
/// copy. Fully deterministic in `(cfg, n, trace, rounds, body_len,
/// seed)`.
///
/// # Panics
///
/// Panics if `n < 2` or on an invalid `cfg` (see
/// [`AdaptiveController::new`]).
pub fn drive_mesh(
    cfg: AdaptiveConfig,
    n: usize,
    trace: &NoiseTrace,
    rounds: u64,
    body_len: usize,
    seed: u64,
) -> MeshReport {
    assert!(n >= 2, "a mesh needs at least two controllers");
    let book = CodeBook::from_specs(&cfg.ladder);
    let mut controllers: Vec<AdaptiveController> = (0..n)
        .map(|_| AdaptiveController::new(cfg.clone()))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut body = vec![0u8; body_len];
    let mut clean = BytesMut::new();
    let mut rungs = Vec::with_capacity(rounds as usize);
    let mut alpha_events = 0usize;
    for r in 1..=rounds {
        rungs.push(controllers.iter().map(|c| c.rung()).collect::<Vec<_>>());
        let mut tallies = vec![
            RoundTally {
                expected: n - 1,
                delivered: 0,
                corrected: 0,
                value_faults: 0,
                evidence: 0,
            };
            n
        ];
        let mut ads: Vec<Vec<RungAdvert>> = vec![Vec::new(); n];
        for s in 0..n as u32 {
            for b in body.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            let sender = &controllers[s as usize];
            clean.clear();
            book.encode_tagged(sender.code_id(), sender.advert(), None, &body, &mut clean);
            for p in 0..n as u32 {
                if p == s {
                    continue;
                }
                let mut wire = clean.to_vec();
                trace.corrupt_frame(r, s, p, 0, &mut wire);
                let Ok(t) = book.decode_tagged(&wire).0 else {
                    continue; // detected omission
                };
                let tally = &mut tallies[p as usize];
                tally.delivered += 1;
                tally.corrected += usize::from(t.repaired);
                if let Some(ad) = t.advert {
                    ads[p as usize].push(ad);
                }
                // Oracle accounting, invisible to the live tally.
                alpha_events += usize::from(*t.body != *body);
            }
        }
        for (p, ctl) in controllers.iter_mut().enumerate() {
            ctl.observe_with_gossip(tallies[p], &ads[p]);
        }
    }
    MeshReport {
        rungs,
        alpha_events,
        switches: controllers.iter().map(|c| c.switches()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_is_deterministic_and_reports_consistently() {
        let trace = NoiseTrace::correlated_bursts_moderate(7);
        let run = || drive_mesh(AdaptiveConfig::standard(4, 1), 4, &trace, 30, 25, 0xFEED);
        let (a, b) = (run(), run());
        assert_eq!(a.rungs, b.rungs, "same inputs replay bit-for-bit");
        assert_eq!(a.alpha_events, b.alpha_events);
        assert_eq!(a.switches, b.switches);
        assert_eq!(a.rungs.len(), 30);
        assert!(a.divergent_rounds() >= a.max_divergence_streak());
    }
}
