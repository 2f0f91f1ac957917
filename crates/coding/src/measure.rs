//! Monte-Carlo measurement of a code's operating point.
//!
//! For a given channel-noise level, a code splits transmission faults
//! into the paper's three classes. [`measure_code`] estimates the split
//! empirically; the resulting [`MissRates`] translate directly into the
//! quantities §5.2 reasons about — the omission load (benign, absorbed
//! by retransmission/timeouts) and the residual undetected-value-fault
//! rate (the per-link contribution to the `α` that `P_α` must budget).

use crate::burst::NoiseModel;
use crate::code::{ChannelCode, FrameOutcome};
use crate::noise::BitNoise;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Empirical per-frame outcome frequencies for one (code, noise) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MissRates {
    /// Frames sampled.
    pub trials: usize,
    /// Frames the channel left untouched (no bit flipped).
    pub clean: usize,
    /// Corrupted frames the decoder repaired or that decoded intact.
    pub corrected: usize,
    /// Corrupted frames the decoder rejected (→ omissions).
    pub detected: usize,
    /// Corrupted frames that decoded to the wrong payload (→ value
    /// faults).
    pub undetected: usize,
}

impl MissRates {
    /// Fraction of all frames arriving as omissions.
    pub fn omission_rate(&self) -> f64 {
        self.detected as f64 / self.trials as f64
    }

    /// Fraction of all frames arriving as undetected value faults —
    /// the residual the `α` budget must absorb.
    pub fn value_fault_rate(&self) -> f64 {
        self.undetected as f64 / self.trials as f64
    }

    /// Fraction of all frames delivered with the correct payload.
    pub fn delivery_rate(&self) -> f64 {
        (self.clean + self.corrected) as f64 / self.trials as f64
    }

    /// Of the frames the channel actually corrupted, the fraction that
    /// slipped through as value faults (the code's *miss rate*).
    pub fn miss_rate_given_corruption(&self) -> f64 {
        let corrupted = self.corrected + self.detected + self.undetected;
        if corrupted == 0 {
            0.0
        } else {
            self.undetected as f64 / corrupted as f64
        }
    }
}

/// Estimates a code's outcome split under any [`NoiseModel`]: `trials`
/// random `payload_len`-byte payloads are encoded, passed through
/// `noise`, decoded and classified. Under the memoryless [`BitNoise`]
/// this is a binary symmetric channel; under the bursty
/// [`crate::GilbertElliott`] chain, whose correlated errors are what
/// separates [`crate::Interleaved`] from its inner code, the model's
/// state persists across frames, so burst sojourns span frame
/// boundaries the way they do on a real link.
///
/// Deterministic per `seed`.
pub fn measure_code(
    code: &dyn ChannelCode,
    payload_len: usize,
    mut noise: impl NoiseModel,
    trials: usize,
    seed: u64,
) -> MissRates {
    assert!(trials > 0, "need at least one trial");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rates = MissRates {
        trials,
        clean: 0,
        corrected: 0,
        detected: 0,
        undetected: 0,
    };
    let mut payload = vec![0u8; payload_len];
    for _ in 0..trials {
        for b in payload.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        let mut wire = code.encode(&payload);
        if noise.corrupt(&mut wire, &mut rng) == 0 {
            rates.clean += 1;
            continue;
        }
        match code.classify(&payload, &wire) {
            FrameOutcome::Delivered => rates.corrected += 1,
            FrameOutcome::DetectedOmission => rates.detected += 1,
            FrameOutcome::UndetectedValueFault => rates.undetected += 1,
        }
    }
    rates
}

/// Like [`measure_code`], but with a fixed number of flipped bits per
/// frame instead of a rate — useful for regression-testing exact miss
/// probabilities (e.g. a 1-byte checksum misses random corruption at
/// ~`2^-8`).
pub fn measure_code_exact_flips(
    code: &dyn ChannelCode,
    payload_len: usize,
    flips: usize,
    trials: usize,
    seed: u64,
) -> MissRates {
    assert!(flips > 0, "exact-flip measurement needs at least one flip");
    measure_code(code, payload_len, ExactFlips(flips), trials, seed)
}

/// Flips exactly `.0` bits of every frame.
struct ExactFlips(usize);

impl NoiseModel for ExactFlips {
    fn corrupt(&mut self, data: &mut [u8], rng: &mut StdRng) -> usize {
        BitNoise::flip_exact(data, self.0, rng);
        self.0
    }

    fn describe(&self) -> String {
        format!("exact({} flips)", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Checksum, Hamming74, NoCode};

    #[test]
    fn no_noise_is_all_clean() {
        let rates = measure_code(&NoCode, 8, BitNoise::new(0.0), 500, 1);
        assert_eq!(rates.clean, 500);
        assert_eq!(rates.delivery_rate(), 1.0);
        assert_eq!(rates.value_fault_rate(), 0.0);
    }

    #[test]
    fn uncoded_corruption_is_all_value_faults() {
        let rates = measure_code_exact_flips(&NoCode, 8, 1, 400, 2);
        assert_eq!(rates.undetected, 400, "no redundancy, no detection");
        assert_eq!(rates.miss_rate_given_corruption(), 1.0);
    }

    #[test]
    fn crc32_detects_every_sampled_corruption() {
        // Chernoff-derived headroom (the run is seed-pinned; the bounds
        // only need to survive RNG stream changes). Each 12-byte wire
        // frame (96 bits) is corrupted with probability
        // 1 − 0.99⁹⁶ ≈ 0.619, so corrupted frames are Binomial(2000,
        // 0.619), μ ≈ 1238. The lower tail P(X ≤ (1−δ)μ) ≤ exp(−δ²μ/2)
        // drops below 1e-12 at δ ≈ 0.211, giving X ≥ 976 with that
        // confidence; assert the rounder 900. A CRC-32 miss would need
        // one of those ~1238 corruptions to hit a 2^-32 collision —
        // P ≈ 3·10⁻⁷ over the whole test.
        let rates = measure_code(&Checksum::crc32(), 8, BitNoise::new(0.01), 2_000, 3);
        assert_eq!(rates.undetected, 0, "2^-32 misses don't show at this scale");
        assert!(
            rates.detected > 900,
            "noise at 1%/bit must corrupt ~1238 of 2000 frames, got {}",
            rates.detected
        );
    }

    #[test]
    fn hamming_corrects_single_flips() {
        let rates = measure_code_exact_flips(&Hamming74, 8, 1, 500, 4);
        assert_eq!(rates.corrected, 500, "SECDED corrects weight-1 errors");
    }

    #[test]
    fn checksum8_misses_at_about_two_to_the_minus_eight() {
        // Deterministic regression: with heavy corruption a 1-byte
        // checksum misses random frames at ~2⁻⁸. Misses across 60k
        // always-corrupted trials are Binomial(60000, 1/256), μ ≈ 234.
        // Chernoff headroom at 1e-12 per side — upper tail
        // P(X ≥ (1+δ)μ) ≤ exp(−δ²μ/3) and lower tail
        // P(X ≤ (1−δ)μ) ≤ exp(−δ²μ/2) — gives δ ≈ 0.60 and δ ≈ 0.49:
        // X ∈ [119, 375], i.e. a miss rate inside (1/504, 1/160).
        // Assert the slightly wider (1/640, 1/150) so the bracket also
        // absorbs the approximation in μ itself.
        let rates = measure_code_exact_flips(&Checksum::with_width(1), 8, 8, 60_000, 5);
        let miss = rates.miss_rate_given_corruption();
        assert!(
            (1.0 / 640.0..1.0 / 150.0).contains(&miss),
            "8-bit checksum miss rate {miss} out of the 2^-8 ballpark"
        );
    }

    // ---- Monte-Carlo regressions: too slow for debug builds, run in
    // release via `cargo test --release -- --include-ignored` (CI does).

    #[test]
    #[ignore = "Monte-Carlo at release scale; CI runs with --include-ignored"]
    fn interleaving_turns_burst_omissions_back_into_deliveries() {
        use crate::{GilbertElliott, Interleaved};
        // Same bursty channel, same seed: plain SECDED loses most
        // burst-hit frames (several flips land in one block), while the
        // depth-16 interleaver spreads bursts of ≤ 16 bits into
        // single-bit errors and repairs them.
        let plain = measure_code(&Hamming74, 64, GilbertElliott::bursty(), 20_000, 31);
        let inter = measure_code(
            &Interleaved::new(Hamming74, 16),
            64,
            GilbertElliott::bursty(),
            20_000,
            31,
        );
        assert!(
            inter.delivery_rate() > plain.delivery_rate() + 0.1,
            "interleaving must lift burst delivery substantially: \
             plain {:.3} vs interleaved {:.3}",
            plain.delivery_rate(),
            inter.delivery_rate()
        );
        assert!(
            inter.value_fault_rate() <= plain.value_fault_rate(),
            "spreading bursts must not create new misses: {:?} vs {:?}",
            plain,
            inter
        );
    }
}
