//! Bursty channel noise: the Gilbert–Elliott model and seeded,
//! substrate-neutral noise traces.
//!
//! The BSC in [`crate::BitNoise`] flips bits independently, but real
//! channels fail in *bursts*: interference arrives, lingers for a while,
//! and leaves. The classic two-state Markov model of Gilbert and Elliott
//! captures this — a **good** state with a low bit-error rate and a
//! **bad** state with a high one, with per-bit transition probabilities
//! between them. Correlated errors are exactly what defeats per-block
//! codes like SECDED (two flips in one block are only *detected*) and
//! exactly what [`crate::Interleaved`] exists to spread out.
//!
//! [`NoiseTrace`] layers a round-level schedule on top: a cyclic
//! sequence of phases, each a Gilbert–Elliott parameterization held for
//! some number of rounds. A trace is a *pure function* from
//! `(round, sender, receiver, copy, frame length)` to a flip pattern,
//! so two different substrates (the lockstep simulator and the threaded
//! runtime) can replay byte-identical corruption — the foundation of the
//! adaptive-coding conformance harness.

use crate::noise::{BitNoise, Chance};
use crate::script::FaultScript;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::{Arc, Mutex as StdMutex};

/// A noise process applied to wire bytes. Implemented by the memoryless
/// [`BitNoise`] and the bursty [`GilbertElliott`] chain; measurement
/// harnesses accept either through this trait.
pub trait NoiseModel {
    /// Corrupts `data` in place, returning how many bits flipped.
    fn corrupt(&mut self, data: &mut [u8], rng: &mut StdRng) -> usize;

    /// Short human-readable description (used in reports).
    fn describe(&self) -> String;
}

impl NoiseModel for BitNoise {
    fn corrupt(&mut self, data: &mut [u8], rng: &mut StdRng) -> usize {
        self.apply(data, rng)
    }

    fn describe(&self) -> String {
        format!("bsc(p={})", self.flip_prob)
    }
}

/// The Gilbert–Elliott two-state burst channel.
///
/// Each transmitted bit first advances the channel state (good ⇄ bad),
/// then flips with the state's bit-error rate. Mean burst length is
/// `1 / p_exit_burst` bits; the stationary fraction of time spent in
/// the bad state is `p_enter / (p_enter + p_exit)`.
#[derive(Clone, Copy, Debug)]
pub struct GilbertElliott {
    /// Per-bit probability of moving good → bad.
    pub p_enter_burst: f64,
    /// Per-bit probability of moving bad → good.
    pub p_exit_burst: f64,
    /// Bit-error rate while in the good state.
    pub ber_good: f64,
    /// Bit-error rate while in the bad state.
    pub ber_bad: f64,
    in_burst: bool,
}

impl GilbertElliott {
    /// A burst channel with the given transition and error rates,
    /// starting in the good state.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is not a probability in `[0, 1]`.
    pub fn new(p_enter_burst: f64, p_exit_burst: f64, ber_good: f64, ber_bad: f64) -> Self {
        for (name, p) in [
            ("p_enter_burst", p_enter_burst),
            ("p_exit_burst", p_exit_burst),
            ("ber_good", ber_good),
            ("ber_bad", ber_bad),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be a probability, got {p}"
            );
        }
        GilbertElliott {
            p_enter_burst,
            p_exit_burst,
            ber_good,
            ber_bad,
            in_burst: false,
        }
    }

    /// A channel that is clean apart from negligible background noise.
    pub fn clean() -> Self {
        GilbertElliott::new(0.0, 1.0, 1e-5, 0.0)
    }

    /// A bursty channel: short, dense error bursts (mean sojourn
    /// ≈ 6.7 bits at a 50% in-burst error rate) arriving often enough
    /// that most frames are hit, quiet in between. Bursts this length
    /// sit inside one stripe of a depth-16 [`crate::Interleaved`] wrap,
    /// which is exactly the regime the interleaver is for.
    pub fn bursty() -> Self {
        GilbertElliott::new(0.006, 0.15, 1e-5, 0.5)
    }

    /// Stationary probability of being in the bad state.
    fn stationary_burst_fraction(&self) -> f64 {
        let denom = self.p_enter_burst + self.p_exit_burst;
        if denom == 0.0 {
            0.0
        } else {
            self.p_enter_burst / denom
        }
    }

    /// Forces the channel state (used to start a frame from the
    /// stationary distribution).
    pub fn reset(&mut self, in_burst: bool) {
        self.in_burst = in_burst;
    }

    /// `true` while the channel is in its bad state.
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }

    /// Applies the channel to `data`, returning how many bits flipped.
    /// The state chain persists across calls; use [`GilbertElliott::reset`]
    /// to re-draw the starting state per frame.
    ///
    /// A bit draws one word per live probability its state consults, so
    /// when all four are live ([`GilbertElliott::bursty`]) every bit
    /// draws exactly two whatever the state, and a byte's sixteen words
    /// are drawn ahead of the chain: the generator runs at its own pace,
    /// and a byte that starts good and in which no entry and no
    /// good-state flip hits — most of them — is done after one pass of
    /// compares. Any other byte resolves its transitions and flips from
    /// the buffered words; any other parameterisation draws bit by bit.
    /// Same words in the same order either way: the pattern, the final
    /// state and the generator's position do not depend on which loop
    /// ran.
    pub fn apply(&mut self, data: &mut [u8], rng: &mut StdRng) -> usize {
        let [enter, exit, good, bad] = [
            self.p_enter_burst,
            self.p_exit_burst,
            self.ber_good,
            self.ber_bad,
        ]
        .map(Chance::new);
        let draws_ahead = [enter, exit, good, bad]
            .iter()
            .all(|chance| chance.is_live());
        let mut in_burst = self.in_burst;
        let mut flipped = 0;
        for byte in data.iter_mut() {
            let mut flips = 0u8;
            if draws_ahead {
                let words: [u64; 16] = std::array::from_fn(|_| rng.next_u64());
                // (transition word, flip word) per bit.
                let draws = words.chunks_exact(2);
                let calm = |calm, draw: &[u64]| calm & !enter.hits(draw[0]) & !good.hits(draw[1]);
                if !in_burst && draws.clone().fold(true, calm) {
                    continue;
                }
                for (bit, draw) in draws.enumerate() {
                    in_burst ^= if in_burst { exit } else { enter }.hits(draw[0]);
                    flips |= u8::from(if in_burst { bad } else { good }.hits(draw[1])) << bit;
                }
            } else {
                for bit in 0..8 {
                    in_burst ^= if in_burst { exit } else { enter }.draw(rng);
                    flips |= u8::from(if in_burst { bad } else { good }.draw(rng)) << bit;
                }
            }
            *byte ^= flips;
            flipped += flips.count_ones() as usize;
        }
        self.in_burst = in_burst;
        flipped
    }
}

impl NoiseModel for GilbertElliott {
    fn corrupt(&mut self, data: &mut [u8], rng: &mut StdRng) -> usize {
        self.apply(data, rng)
    }

    fn describe(&self) -> String {
        format!(
            "gilbert-elliott(enter={}, exit={}, ber={}/{})",
            self.p_enter_burst, self.p_exit_burst, self.ber_good, self.ber_bad
        )
    }
}

/// One phase of a [`NoiseTrace`]: a Gilbert–Elliott parameterization
/// held for `rounds` consecutive rounds.
#[derive(Clone, Copy, Debug)]
pub struct NoisePhase {
    /// How many rounds this phase lasts before the trace moves on.
    pub rounds: u64,
    /// The channel in force during the phase.
    pub channel: GilbertElliott,
}

/// A deterministic, substrate-neutral corruption schedule.
///
/// The trace cycles through its phases round-robin; within a phase,
/// every frame's flip pattern is a pure function of
/// `(seed, round, sender, receiver, copy)` and the frame's bit length.
/// Two substrates that frame identical bytes therefore experience
/// *identical* corruption — the property the adaptive conformance
/// harness asserts on.
#[derive(Clone, Debug)]
pub struct NoiseTrace {
    seed: u64,
    phases: Vec<NoisePhase>,
    /// When set, one Gilbert–Elliott chain — stepped once per *round*,
    /// seeded from the trace seed alone — modulates **all links at
    /// once**: in a burst round every link corrupts at `ber_bad`, in a
    /// good round at `ber_good`. Per-link flip patterns stay
    /// independent, but the *regime* is shared, the way real
    /// interference hits many links simultaneously.
    shared_regime: bool,
    /// Memo of the shared chain — per-round states plus the RNG/state
    /// frontier, extended incrementally on demand. `corrupt_frame` asks
    /// once per frame, and replaying the chain from round 1 each time
    /// would make long shared-regime runs quadratic. Shared across
    /// clones (the chain is a pure function of the seed, so every
    /// clone agrees).
    regimes: Arc<StdMutex<RegimeMemo>>,
    /// When set, the trace is an *exact* schedule: every frame is
    /// handed to the script (unscripted link-rounds deliver untouched)
    /// and the statistical machinery above never runs. This is how a
    /// model-checker counterexample rides the same rails as every
    /// seeded trace — see [`NoiseTrace::scripted`].
    script: Option<Arc<FaultScript>>,
}

/// Lazily extended log of the shared regime chain.
#[derive(Debug, Default)]
struct RegimeMemo {
    /// RNG state at the frontier (`None` until the chain first steps).
    rng: Option<StdRng>,
    /// Chain state at the frontier.
    in_burst: bool,
    /// `states[r-1]`: the chain's state after stepping into round `r`.
    states: Vec<bool>,
}

impl NoiseTrace {
    /// A trace cycling through `phases`, seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any phase lasts zero rounds.
    pub fn new(seed: u64, phases: Vec<NoisePhase>) -> Self {
        assert!(!phases.is_empty(), "a noise trace needs at least one phase");
        assert!(
            phases.iter().all(|p| p.rounds > 0),
            "every phase must last at least one round"
        );
        NoiseTrace {
            seed,
            phases,
            shared_regime: false,
            regimes: Arc::new(StdMutex::new(RegimeMemo::default())),
            script: None,
        }
    }

    /// An exact scripted trace: every link-round delivers clean except
    /// where `script` schedules a fault ([`crate::LinkFault`]). No
    /// statistical noise at all — the replay vehicle for model-checker
    /// counterexamples, driven through the very same substrate plumbing
    /// as the seeded traces.
    pub fn scripted(script: FaultScript) -> Self {
        let mut trace = NoiseTrace::new(
            0,
            vec![NoisePhase {
                rounds: 1,
                channel: GilbertElliott::new(0.0, 1.0, 0.0, 0.0),
            }],
        );
        trace.script = Some(Arc::new(script));
        trace
    }

    /// The exact fault schedule this trace replays, when it is a
    /// scripted trace.
    pub fn script(&self) -> Option<&FaultScript> {
        self.script.as_deref()
    }

    /// A clean channel for every round.
    pub fn clean(seed: u64) -> Self {
        NoiseTrace::new(
            seed,
            vec![NoisePhase {
                rounds: 1,
                channel: GilbertElliott::clean(),
            }],
        )
    }

    /// Long alternation: a calm stretch, then a sustained noisy stretch
    /// — the regime where an adaptive controller should escalate once
    /// and hold.
    pub fn bursty(seed: u64) -> Self {
        NoiseTrace::new(
            seed,
            vec![
                NoisePhase {
                    rounds: 30,
                    channel: GilbertElliott::clean(),
                },
                NoisePhase {
                    rounds: 30,
                    channel: GilbertElliott::bursty(),
                },
            ],
        )
    }

    /// **Fully-defective links**: every bit of every frame flips, every
    /// round, on every link — the channel *complements* each frame
    /// deterministically (BER 1.0 in both states), so not a single
    /// payload byte survives transit. This is the regime of
    /// "Distributed Computations in Fully-Defective Networks"
    /// (Censor-Hillel/Cohen/Gelles/Sela): content is worthless, and
    /// only the *pattern* of arrivals — which the trace never touches
    /// (frames are edited in place, never dropped or truncated) — can
    /// carry a signal. Every content rung starves here; only the
    /// [`CodeSpec::Oblivious`](crate::CodeSpec) count channel gets
    /// through.
    pub fn fully_defective(seed: u64) -> Self {
        NoiseTrace::new(
            seed,
            vec![NoisePhase {
                rounds: 1,
                channel: GilbertElliott::new(1.0, 0.0, 1.0, 1.0),
            }],
        )
    }

    /// Fast alternation (a few rounds noisy, a few clean) — the
    /// whipsaw pattern an adversary uses to make a naive controller
    /// oscillate; hysteresis is what keeps the ladder stable here.
    pub fn oscillating(seed: u64) -> Self {
        NoiseTrace::new(
            seed,
            vec![
                NoisePhase {
                    rounds: 3,
                    channel: GilbertElliott::bursty(),
                },
                NoisePhase {
                    rounds: 3,
                    channel: GilbertElliott::clean(),
                },
            ],
        )
    }

    /// **Correlated cross-link bursts** (first cut of the ROADMAP
    /// item): one shared Gilbert–Elliott chain, advanced once per
    /// round, modulates *every* link simultaneously — interference in
    /// the environment, not on one wire. Burst rounds (~1/3 of rounds,
    /// mean sojourn ≈ 2.5 rounds) corrupt all links at a 45% BER;
    /// good rounds are clean. Because all receivers see the same
    /// regime, their adaptive controllers observe near-identical
    /// tallies and converge to the same rung within a bounded lag —
    /// `tests/correlated_bursts.rs` (workspace root) asserts the bound.
    pub fn correlated_bursts(seed: u64) -> Self {
        NoiseTrace::new(
            seed,
            vec![NoisePhase {
                rounds: 1,
                // Reinterpreted per *round* by the shared chain:
                // enter 0.2 / exit 0.4 → stationary burst fraction 1/3.
                // Good rounds are *exactly* clean (not 1e-5-background):
                // the preset models interference that is present or
                // absent, and a nonzero background BER at large-frame
                // rungs (repetition, budget-inflated fountain) would
                // hand receivers private noise — the opposite of the
                // shared-regime story this preset exists to tell.
                channel: GilbertElliott::new(0.2, 0.4, 0.0, 0.45),
            }],
        )
        .with_shared_regime()
    }

    /// **Moderate correlated bursts** — the divergence-prone regime.
    /// Same shared per-round chain as
    /// [`NoiseTrace::correlated_bursts`], but burst rounds corrupt at a
    /// *moderate* 0.6% BER instead of 45%: a typical frame is hit with
    /// probability around one half, so each receiver's tally is a
    /// per-link binomial draw that straddles the controller thresholds
    /// — some controllers escalate, some hold, and because a receiver's
    /// pressure depends on its *senders'* rungs (cheap frames die where
    /// coded ones survive), a split sustains itself once formed.
    /// Independent controllers can stay split for tens of rounds here;
    /// this is the preset the rung-gossip acceptance test
    /// (`crates/coding/tests/adaptive_acceptance.rs`) uses to show
    /// gossip collapsing that divergence to ≤ 1 round.
    pub fn correlated_bursts_moderate(seed: u64) -> Self {
        NoiseTrace::new(
            seed,
            vec![NoisePhase {
                rounds: 1,
                channel: GilbertElliott::new(0.2, 0.4, 0.0, 0.006),
            }],
        )
        .with_shared_regime()
    }

    /// Switches the trace to the shared-regime mode: the phase
    /// channel's transition probabilities are reinterpreted as
    /// per-round (not per-bit) and stepped by one seed-global chain, so
    /// all links burst and calm together. See
    /// [`NoiseTrace::correlated_bursts`] for the canonical preset.
    fn with_shared_regime(mut self) -> Self {
        self.shared_regime = true;
        self
    }

    /// Whether the shared regime chain is in its burst state at
    /// `round` (1-based; always `false` for per-link traces). A pure
    /// function of `(seed, round)` — identical for every link and
    /// every substrate.
    fn regime_at(&self, round: u64) -> bool {
        if !self.shared_regime {
            return false;
        }
        // One chain for the whole system, stepped once per round with
        // transitions drawn from a seed-only stream; the memo holds the
        // frontier (RNG + state) so each round is stepped exactly once
        // per run, no matter how many frames ask.
        let mut memo = self.regimes.lock().expect("regime memo poisoned");
        if memo.rng.is_none() {
            memo.rng = Some(StdRng::seed_from_u64(
                self.seed
                    .wrapping_mul(0xD605_0BB5_9DF4_4F45)
                    .wrapping_add(0x5EED_C0DE),
            ));
        }
        while (memo.states.len() as u64) < round {
            let r = memo.states.len() as u64 + 1;
            let ch = self.channel_at(r);
            let mut in_burst = memo.in_burst;
            let rng = memo.rng.as_mut().expect("frontier rng just seeded");
            if in_burst {
                if ch.p_exit_burst > 0.0 && rng.gen_bool(ch.p_exit_burst) {
                    in_burst = false;
                }
            } else if ch.p_enter_burst > 0.0 && rng.gen_bool(ch.p_enter_burst) {
                in_burst = true;
            }
            memo.in_burst = in_burst;
            memo.states.push(in_burst);
        }
        memo.states[round as usize - 1]
    }

    /// The channel in force at `round` (1-based).
    fn channel_at(&self, round: u64) -> GilbertElliott {
        let cycle: u64 = self.phases.iter().map(|p| p.rounds).sum();
        let mut pos = (round - 1) % cycle;
        for phase in &self.phases {
            if pos < phase.rounds {
                return phase.channel;
            }
            pos -= phase.rounds;
        }
        unreachable!("phase position within cycle");
    }

    /// The trace's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn frame_rng(&self, round: u64, sender: u32, receiver: u32, copy: u8) -> StdRng {
        // SplitMix-style mixing of the frame coordinates into one
        // stream id; any fixed bijective-ish mix works, it only has to
        // be identical across substrates.
        let mut h = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(round);
        h ^= (sender as u64) << 40 | (receiver as u64) << 8 | copy as u64;
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        StdRng::seed_from_u64(h ^ (h >> 31))
    }

    /// Corrupts one frame's wire bytes in place, returning the number of
    /// flipped bits. Deterministic in all five coordinates plus
    /// `data.len()`.
    pub fn corrupt_frame(
        &self,
        round: u64,
        sender: u32,
        receiver: u32,
        copy: u8,
        data: &mut [u8],
    ) -> usize {
        if let Some(script) = &self.script {
            // Exact mode: the script speaks per link-round, so every
            // copy of a scripted frame gets the identical edit —
            // deterministic on all substrates by construction.
            return script.apply(round, sender, receiver, data);
        }
        let mut rng = self.frame_rng(round, sender, receiver, copy);
        let channel = self.channel_at(round);
        if self.shared_regime {
            // The round's regime is global; within the round each link
            // flips bits independently at the regime's BER.
            let ber = if self.regime_at(round) {
                channel.ber_bad
            } else {
                channel.ber_good
            };
            return BitNoise::new(ber).apply(data, &mut rng);
        }
        let mut channel = channel;
        // Start each frame from the phase's stationary distribution so
        // bad phases corrupt from the first bit.
        let stationary = channel.stationary_burst_fraction();
        channel.reset(stationary > 0.0 && rng.gen_bool(stationary));
        channel.apply(data, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    /// `GilbertElliott::apply` and `BitNoise::apply` as they stood
    /// before the integer thresholds — two `gen_bool` float compares
    /// per bit — verbatim but for the receiver: the oracle for the flip
    /// pattern, the final state and the RNG stream.
    mod parent {
        use super::*;

        fn step(ge: &mut GilbertElliott, rng: &mut StdRng) -> bool {
            if ge.in_burst {
                if ge.p_exit_burst > 0.0 && rng.gen_bool(ge.p_exit_burst) {
                    ge.in_burst = false;
                }
            } else if ge.p_enter_burst > 0.0 && rng.gen_bool(ge.p_enter_burst) {
                ge.in_burst = true;
            }
            let ber = if ge.in_burst { ge.ber_bad } else { ge.ber_good };
            ber > 0.0 && rng.gen_bool(ber)
        }

        pub fn apply(ge: &mut GilbertElliott, data: &mut [u8], rng: &mut StdRng) -> usize {
            let mut flipped = 0;
            for byte in data.iter_mut() {
                for bit in 0..8 {
                    if step(ge, rng) {
                        *byte ^= 1 << bit;
                        flipped += 1;
                    }
                }
            }
            flipped
        }

        pub fn apply_bsc(noise: &BitNoise, data: &mut [u8], rng: &mut StdRng) -> usize {
            if noise.flip_prob == 0.0 {
                return 0;
            }
            let mut flipped = 0;
            for byte in data.iter_mut() {
                for bit in 0..8 {
                    if rng.gen_bool(noise.flip_prob) {
                        *byte ^= 1 << bit;
                        flipped += 1;
                    }
                }
            }
            flipped
        }
    }

    /// Probabilities from the whole unit interval, its ends, and the
    /// magnitudes where a float compare and an integer threshold could
    /// part ways: below `2⁻⁵³`, subnormal-adjacent, one ulp under 1.
    fn probability() -> impl Strategy<Value = f64> {
        let edges = [0.0, 1.0, 1e-17, 1e-300, 0.5, 1.0 - f64::EPSILON / 2.0];
        prop_oneof![
            (0usize..edges.len()).prop_map(move |i| edges[i]),
            any::<u64>().prop_map(|m| (m >> 11) as f64 / (1u64 << 53) as f64),
            any::<u64>().prop_map(|m| (m >> 11) as f64 / (1u64 << 53) as f64 / 64.0),
        ]
    }

    /// The chain under every zero / non-zero combination of its four
    /// probabilities — which decides how many words a bit draws, and so
    /// whether `apply` may draw ahead of the chain — from both starting
    /// states, at every length up to 300 bytes: pattern, flip count,
    /// final state and the RNG's next word equal the parent's.
    #[test]
    fn every_liveness_combination_equals_the_parent_chain() {
        let live = [0.006, 0.15, 1e-5, 0.5];
        for mask in 0..16u32 {
            let p = |i: usize| if mask & (1 << i) != 0 { live[i] } else { 0.0 };
            for start_in_burst in [false, true] {
                for len in 0..=300usize {
                    let mut ge = GilbertElliott::new(p(0), p(1), p(2), p(3));
                    ge.reset(start_in_burst);
                    let seed =
                        u64::from(mask) << 32 | (len as u64) << 1 | u64::from(start_in_burst);
                    let (mut want_ge, mut want_rng) = (ge, StdRng::seed_from_u64(seed));
                    let mut got_rng = want_rng.clone();
                    let (mut want, mut got) = (vec![0x5Au8; len], vec![0x5Au8; len]);
                    let want_flips = parent::apply(&mut want_ge, &mut want, &mut want_rng);
                    let what = format!("mask {mask:04b}, burst {start_in_burst}, len {len}");
                    assert_eq!(ge.apply(&mut got, &mut got_rng), want_flips, "{what}");
                    assert_eq!(got, want, "{what}");
                    assert_eq!(ge.in_burst(), want_ge.in_burst(), "{what}");
                    assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "{what}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512 })]

        #[test]
        fn noise_models_equal_the_parent_models_bit_for_bit(
            p_enter in probability(),
            p_exit in probability(),
            ber_good in probability(),
            ber_bad in probability(),
            start_in_burst in any::<bool>(),
            seed in any::<u64>(),
            data in proptest::collection::vec(any::<u8>(), 0..=300),
        ) {
            let mut ge = GilbertElliott::new(p_enter, p_exit, ber_good, ber_bad);
            ge.reset(start_in_burst);
            let (mut want_ge, mut want, mut want_rng) = (ge, data.clone(), StdRng::seed_from_u64(seed));
            let (mut got, mut got_rng) = (data.clone(), StdRng::seed_from_u64(seed));
            let want_flips = parent::apply(&mut want_ge, &mut want, &mut want_rng);
            prop_assert_eq!(ge.apply(&mut got, &mut got_rng), want_flips);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(ge.in_burst(), want_ge.in_burst());
            prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());

            let bsc = BitNoise::new(ber_bad);
            let want_flips = parent::apply_bsc(&bsc, &mut want, &mut want_rng);
            prop_assert_eq!(bsc.apply(&mut got, &mut got_rng), want_flips);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
        }
    }

    #[test]
    fn clean_channel_rarely_flips() {
        let mut ge = GilbertElliott::clean();
        let mut rng = StdRng::seed_from_u64(1);
        let mut data = vec![0u8; 1_000];
        let flips = ge.apply(&mut data, &mut rng);
        assert!(flips < 5, "clean channel flipped {flips} of 8000 bits");
    }

    #[test]
    fn bursty_channel_clusters_errors() {
        // Same expected flip count as a BSC would need, but the flips
        // must arrive in runs: measure the fraction of flipped bits
        // whose neighbour is also flipped.
        let mut ge = GilbertElliott::bursty();
        let mut rng = StdRng::seed_from_u64(2);
        let mut data = vec![0u8; 8_000];
        let flips = ge.apply(&mut data, &mut rng);
        assert!(flips > 100, "bursty channel must corrupt, got {flips}");
        let bits: Vec<bool> = (0..data.len() * 8)
            .map(|i| data[i / 8] & (1 << (i % 8)) != 0)
            .collect();
        let adjacent = bits.windows(2).filter(|w| w[0] && w[1]).count();
        // Under an equal-rate BSC the chance a flipped bit's neighbour
        // is flipped equals the BER (≈1%); in a burst it is ber_bad
        // (25%). Requiring 5% of flips to have a flipped neighbour
        // separates the two decisively.
        assert!(
            adjacent * 20 > flips,
            "errors do not cluster: {adjacent} adjacent pairs among {flips} flips"
        );
    }

    #[test]
    fn stationary_fraction_formula() {
        let ge = GilbertElliott::new(0.01, 0.04, 0.0, 0.5);
        assert!((ge.stationary_burst_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(GilbertElliott::clean().stationary_burst_fraction(), 0.0);
    }

    #[test]
    fn trace_is_deterministic_per_coordinates() {
        let trace = NoiseTrace::bursty(7);
        let run = |round, sender, receiver| {
            let mut data = vec![0xAAu8; 64];
            trace.corrupt_frame(round, sender, receiver, 0, &mut data);
            data
        };
        assert_eq!(run(31, 0, 1), run(31, 0, 1), "same coordinates replay");
        assert_ne!(run(31, 0, 1), run(31, 0, 2), "receivers get distinct noise");
        assert_ne!(run(31, 0, 1), run(32, 0, 1), "rounds get distinct noise");
    }

    /// One number over the flip stream the repository benchmark's
    /// `bursty-adaptive` links see — its 6-bursty / 4-clean phases, over
    /// a grid of seeds, rounds, links, copies and the wire lengths its
    /// rungs produce. Computed on the trace as it stood before `apply`
    /// drew ahead of the chain; if it moves, every noisy conformance
    /// seed and that workload's counts are about to.
    #[test]
    fn corrupt_frame_digest_is_pinned() {
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        let mut fold = |byte: u8| digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01B3);
        for seed in 1..=4u64 {
            let trace = NoiseTrace::new(
                seed,
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
            for round in 1..=12u64 {
                for (sender, receiver) in (0..8u32).flat_map(|s| (0..8u32).map(move |r| (s, r))) {
                    for copy in 0..=1u8 {
                        for len in [35usize, 60, 116, 147] {
                            let mut frame = vec![0u8; len];
                            let flips =
                                trace.corrupt_frame(round, sender, receiver, copy, &mut frame);
                            (flips as u32).to_le_bytes().into_iter().for_each(&mut fold);
                            frame.into_iter().for_each(&mut fold);
                        }
                    }
                }
            }
        }
        assert_eq!(digest, 0x2E48_F240_0F4F_38C0, "the flip stream moved");
    }

    #[test]
    fn trace_phases_cycle() {
        let trace = NoiseTrace::oscillating(3);
        // Phases: 3 bursty, 3 clean, repeating.
        assert!(trace.channel_at(1).ber_bad > 0.1);
        assert!(trace.channel_at(4).ber_bad < 0.1);
        assert!(trace.channel_at(7).ber_bad > 0.1, "cycle wraps");
    }

    #[test]
    fn clean_trace_leaves_frames_alone_mostly() {
        let trace = NoiseTrace::clean(11);
        let mut corrupted_frames = 0;
        for r in 1..=50u64 {
            let mut data = vec![0u8; 32];
            if trace.corrupt_frame(r, 0, 1, 0, &mut data) > 0 {
                corrupted_frames += 1;
            }
        }
        assert!(
            corrupted_frames <= 2,
            "clean trace hit {corrupted_frames}/50"
        );
    }

    #[test]
    fn fully_defective_complements_every_frame() {
        let trace = NoiseTrace::fully_defective(5);
        for r in 1..=20u64 {
            for (sender, receiver, copy) in [(0u32, 1u32, 0u8), (2, 0, 1), (1, 2, 3)] {
                let original = vec![0xA5u8; 48];
                let mut data = original.clone();
                let flips = trace.corrupt_frame(r, sender, receiver, copy, &mut data);
                assert_eq!(flips, 48 * 8, "every bit flips");
                assert!(
                    data.iter().zip(&original).all(|(a, b)| *a == !*b),
                    "the frame arrives complemented — no byte survives"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_trace_panics() {
        let _ = NoiseTrace::new(0, vec![]);
    }

    #[test]
    fn shared_regime_is_a_pure_function_of_seed_and_round() {
        let trace = NoiseTrace::correlated_bursts(3);
        assert!(trace.shared_regime);
        let regimes: Vec<bool> = (1..=200).map(|r| trace.regime_at(r)).collect();
        let again: Vec<bool> = (1..=200).map(|r| trace.regime_at(r)).collect();
        assert_eq!(regimes, again, "regime replay is exact");
        let burst_rounds = regimes.iter().filter(|b| **b).count();
        // Stationary fraction 1/3 over 200 rounds: allow a wide band.
        assert!(
            (30..=110).contains(&burst_rounds),
            "got {burst_rounds}/200 burst rounds"
        );
        assert!(
            !NoiseTrace::bursty(3).regime_at(40),
            "per-link traces have no shared regime"
        );
    }

    #[test]
    fn correlated_bursts_hit_all_links_in_the_same_rounds() {
        // In a burst round, *every* link is heavily corrupted; in a
        // good round, none is — the signature independent per-link
        // chains cannot produce.
        let trace = NoiseTrace::correlated_bursts(9);
        let burst_round = (1..=200)
            .find(|&r| trace.regime_at(r))
            .expect("some burst round in 200");
        let good_round = (1..=200)
            .find(|&r| !trace.regime_at(r))
            .expect("some good round in 200");
        for (sender, receiver) in [(0u32, 1u32), (2, 7), (5, 3), (9, 0)] {
            let mut data = vec![0u8; 64];
            let flips = trace.corrupt_frame(burst_round, sender, receiver, 0, &mut data);
            assert!(
                flips > 100,
                "link {sender}→{receiver} must burn in the shared burst, got {flips}"
            );
            let mut data = vec![0u8; 64];
            let flips = trace.corrupt_frame(good_round, sender, receiver, 0, &mut data);
            assert!(
                flips <= 2,
                "link {sender}→{receiver} must be calm in the good round, got {flips}"
            );
        }
    }
}
