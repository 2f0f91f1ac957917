//! A binary symmetric channel: independent per-bit flips.
//!
//! This is the physical-layer noise model of the tradeoff experiments
//! and of the threaded runtime's untraced links. A transmission fault in
//! the paper's sense is *any* nonzero flip pattern; what the receiver
//! experiences — delivery, omission, or value fault — is then entirely
//! the code's doing.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// [`Rng::gen_bool`] with the float work hoisted out of the per-bit
/// loop. The generator draws `u = m · 2⁻⁵³` for a 53-bit integer `m`
/// and tests `u < p`; scaling both sides by `2⁵³` is exact, so that is
/// `m < ⌈p · 2⁵³⌉` — the same word drawn, the same answer. A zero
/// probability draws nothing, which is the rule every noise model here
/// keeps so that disabled transitions leave the stream alone.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Chance(u64);

impl Chance {
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`, as `gen_bool` does.
    pub(crate) fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
        Chance((p * (1u64 << 53) as f64).ceil() as u64)
    }

    /// `false` for a zero probability, which never draws.
    pub(crate) fn is_live(self) -> bool {
        self.0 != 0
    }

    /// What a draw that produced `word` answers.
    #[inline]
    pub(crate) fn hits(self, word: u64) -> bool {
        (word >> 11) < self.0
    }

    #[inline]
    pub(crate) fn draw(self, rng: &mut StdRng) -> bool {
        self.is_live() && self.hits(rng.next_u64())
    }
}

/// Independent per-bit corruption with probability `flip_prob`.
#[derive(Clone, Copy, Debug)]
pub struct BitNoise {
    /// Probability that each individual bit is flipped in flight.
    pub flip_prob: f64,
}

impl BitNoise {
    /// A channel flipping each bit with probability `flip_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `flip_prob` is not in `[0, 1]`.
    pub fn new(flip_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&flip_prob),
            "flip_prob must be a probability, got {flip_prob}"
        );
        BitNoise { flip_prob }
    }

    /// Applies the channel to `data`, returning how many bits flipped.
    pub fn apply(&self, data: &mut [u8], rng: &mut StdRng) -> usize {
        if self.flip_prob == 0.0 {
            return 0;
        }
        let flip = Chance::new(self.flip_prob);
        let mut flipped = 0;
        for byte in data.iter_mut() {
            let mut flips = 0u8;
            for bit in 0..8 {
                flips |= u8::from(flip.draw(rng)) << bit;
            }
            *byte ^= flips;
            flipped += flips.count_ones() as usize;
        }
        flipped
    }

    /// Flips exactly `flips` distinct, uniformly chosen bits of `data`
    /// (or all bits, if `data` has fewer). Used when an experiment wants
    /// a controlled error weight instead of a rate.
    pub fn flip_exact(data: &mut [u8], flips: usize, rng: &mut StdRng) -> usize {
        let total_bits = data.len() * 8;
        let flips = flips.min(total_bits);
        let mut chosen = std::collections::HashSet::with_capacity(flips);
        while chosen.len() < flips {
            chosen.insert(rng.gen_range(0..total_bits));
        }
        for idx in &chosen {
            data[idx / 8] ^= 1 << (idx % 8);
        }
        flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn chance_is_gen_bool_at_every_boundary_word() {
        // Sampling cannot reach the words where a float compare and an
        // integer threshold could disagree (each has probability 2⁻⁵³),
        // so walk them: for each p, the 53-bit draws around p · 2⁵³.
        let scale = (1u64 << 53) as f64;
        for p in [0.0, 1e-300, 1e-17, 1e-16, 0.1, 0.15, 0.5, 1.0 - 1e-16, 1.0] {
            let Chance(threshold) = Chance::new(p);
            assert_eq!(threshold == 0, p == 0.0);
            let around = (p * scale) as u64;
            for m in (around.saturating_sub(2)..=around + 2).chain([0, (1 << 53) - 1]) {
                let m = m.min((1 << 53) - 1);
                let gen_bool = (m as f64) * (1.0 / scale) < p;
                assert_eq!(m < threshold, gen_bool, "p {p} word {m}");
            }
        }
    }

    #[test]
    fn zero_rate_touches_nothing() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut data = vec![0xAA; 64];
        assert_eq!(BitNoise::new(0.0).apply(&mut data, &mut rng), 0);
        assert_eq!(data, vec![0xAA; 64]);
    }

    #[test]
    fn unit_rate_flips_everything() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut data = vec![0x0F; 8];
        assert_eq!(BitNoise::new(1.0).apply(&mut data, &mut rng), 64);
        assert_eq!(data, vec![0xF0; 8]);
    }

    #[test]
    fn rate_is_roughly_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut data = vec![0u8; 10_000];
        let flipped = BitNoise::new(0.01).apply(&mut data, &mut rng);
        assert!((600..1_000).contains(&flipped), "got {flipped}");
    }

    #[test]
    fn flip_exact_weight() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut data = vec![0u8; 16];
        assert_eq!(BitNoise::flip_exact(&mut data, 5, &mut rng), 5);
        let weight: u32 = data.iter().map(|b| b.count_ones()).sum();
        assert_eq!(weight, 5);
    }

    #[test]
    fn flip_exact_clamps_to_available_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut data = vec![0u8; 2];
        assert_eq!(BitNoise::flip_exact(&mut data, 100, &mut rng), 16);
        assert_eq!(data, vec![0xFF, 0xFF]);
    }
}
