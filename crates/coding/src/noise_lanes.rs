//! Trace noise for eight frames at once: the AVX-512 kernel behind
//! [`NoiseTrace::flip_masks`](crate::NoiseTrace::flip_masks).
//!
//! Every frame of a [`NoiseTrace`](crate::NoiseTrace) draws from its
//! own xoshiro256++ stream, seeded from the frame's coordinates, so the
//! frames one sender sends its receivers in a round are independent
//! streams that can run side by side: eight generators sit in the
//! 64-bit lanes of four `__m512i` registers and step together. Each
//! lane draws exactly the words the scalar chain draws for its frame,
//! so every flip pattern is bit-identical to the per-frame path.
//!
//! Lanes can step together only while every lane draws the same number
//! of words per bit whatever its state. [`Shape`] names the channels
//! where that holds; any other channel runs frame by frame. Within a
//! [`Shape::Chain`] byte the lanes compare all sixteen words against the
//! entry and good-state thresholds at once (`_mm512_cmplt_epu64_mask`),
//! and a byte in which no lane is *hot* — in a burst, or hit by an entry
//! or a good-state flip — is done. Otherwise the per-bit chain runs on
//! lane masks, every lane's state one bit of a `u8`; a lane that is not
//! hot comes out of it unflipped and good, as it would have skipped.

use crate::noise::Chance;

/// Frames per AVX-512 register: one xoshiro256++ state word per 64-bit
/// lane.
pub(crate) const LANES: usize = 8;

/// A round's channel in one of the forms whose draw schedule does not
/// depend on the chain's state — the forms lanes can run in lockstep.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Shape {
    /// All four Gilbert–Elliott chances live: one word draws the start
    /// state (`start` is the stationary burst fraction), then every bit
    /// draws a transition word and a flip word, sixteen per byte.
    Chain {
        start: Chance,
        enter: Chance,
        exit: Chance,
        good: Chance,
        bad: Chance,
    },
    /// One word per bit, hitting with `flip`: a chain that cannot leave
    /// its start state, or the shared regime's per-round BSC. `skip`
    /// discards one leading word — the start-state draw of a chain
    /// pinned in its bad state. A dead `flip` draws nothing and flips
    /// nothing.
    Flat { skip: bool, flip: Chance },
}

/// SplitMix64, the seeding step of the workspace's `StdRng`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The xoshiro256++ state `StdRng::seed_from_u64(seed)` starts from:
/// four SplitMix64 outputs.
pub(crate) fn seeded_state(seed: u64) -> [u64; 4] {
    let mut sm = seed;
    [(); 4].map(|()| splitmix64(&mut sm))
}

/// Whether this CPU runs the AVX-512 kernel.
pub(crate) fn avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        return true;
    }
    false
}

/// `x` read as an 8 × 8 bit matrix, row `i` in byte `i` and column `j`
/// in bit `j`, transposed: three swaps of ever larger blocks across the
/// diagonal.
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512 {
    use super::{transpose8, Shape, LANES};
    use crate::noise::Chance;
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_cmplt_epu64_mask, _mm512_loadu_si512, _mm512_rol_epi64,
        _mm512_set1_epi64, _mm512_slli_epi64, _mm512_srli_epi64, _mm512_xor_si512,
    };

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(words: &[u64; LANES]) -> __m512i {
        // SAFETY: `words` is a reference to 64 readable bytes, and
        // `_mm512_loadu_si512` reads exactly 64 bytes with no alignment
        // requirement.
        unsafe { _mm512_loadu_si512(words.as_ptr().cast()) }
    }

    #[cfg(test)]
    #[target_feature(enable = "avx512f")]
    fn spill(v: __m512i) -> [u64; LANES] {
        let mut words = [0; LANES];
        // SAFETY: `words` is 64 writable bytes on this frame, and
        // `_mm512_storeu_si512` writes exactly 64 bytes with no
        // alignment requirement.
        unsafe { std::arch::x86_64::_mm512_storeu_si512(words.as_mut_ptr().cast(), v) };
        words
    }

    /// The lanes whose draw `words` hits the chance whose threshold is
    /// broadcast in `threshold` — `Chance::hits`, eight at a time.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn below(words: __m512i, threshold: __m512i) -> u8 {
        _mm512_cmplt_epu64_mask(_mm512_srli_epi64::<11>(words), threshold)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn broadcast(chance: Chance) -> __m512i {
        _mm512_set1_epi64(chance.threshold() as i64)
    }

    /// Eight xoshiro256++ generators, state word `i` of lane `l` in
    /// lane `l` of `self.0[i]`.
    pub(crate) struct Xoshiro([__m512i; 4]);

    impl Xoshiro {
        /// One generator per state; lanes past `states.len()` repeat
        /// the first state and are never read.
        #[target_feature(enable = "avx512f")]
        pub(crate) fn new(states: &[[u64; 4]]) -> Self {
            let mut words = [[0; LANES]; 4];
            for (i, lanes) in words.iter_mut().enumerate() {
                for (l, lane) in lanes.iter_mut().enumerate() {
                    *lane = states.get(l).unwrap_or(&states[0])[i];
                }
            }
            let [s0, s1, s2, s3] = &words;
            Xoshiro([load(s0), load(s1), load(s2), load(s3)])
        }

        /// Every lane's next word — `StdRng::next_u64`, eight wide.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub(crate) fn next(&mut self) -> __m512i {
            let [s0, s1, s2, s3] = &mut self.0;
            let result = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(*s0, *s3)), *s0);
            let t = _mm512_slli_epi64::<17>(*s1);
            *s2 = _mm512_xor_si512(*s2, *s0);
            *s3 = _mm512_xor_si512(*s3, *s1);
            *s1 = _mm512_xor_si512(*s1, *s2);
            *s0 = _mm512_xor_si512(*s0, *s3);
            *s2 = _mm512_xor_si512(*s2, t);
            *s3 = _mm512_rol_epi64::<45>(*s3);
            result
        }

        /// Every lane's next word, spilled.
        #[cfg(test)]
        #[target_feature(enable = "avx512f")]
        pub(crate) fn next_words(&mut self) -> [u64; LANES] {
            spill(self.next())
        }
    }

    /// Fills the flip masks and counts of up to eight frames, lane `l`
    /// drawing from the generator `states[l]` seeds: its mask is
    /// `masks[l * len..][..len]`, its count `flips[l]`. `masks` and
    /// `flips` are zero on entry.
    #[target_feature(enable = "avx512f")]
    pub(crate) fn fill(
        shape: Shape,
        states: &[[u64; 4]],
        len: usize,
        masks: &mut [u8],
        flips: &mut [usize],
    ) {
        assert!(!states.is_empty() && states.len() <= LANES);
        assert_eq!(masks.len(), states.len() * len);
        assert_eq!(flips.len(), states.len());
        let live = (1u16 << states.len()).wrapping_sub(1) as u8;
        let live_planes = u64::from(live) * 0x0101_0101_0101_0101;
        let mut rng = Xoshiro::new(states);
        match shape {
            Shape::Chain {
                start,
                enter,
                exit,
                good,
                bad,
            } => {
                let (enter, exit) = (broadcast(enter), broadcast(exit));
                let (good, bad) = (broadcast(good), broadcast(bad));
                let mut burst = below(rng.next(), broadcast(start));
                for i in 0..len {
                    // (transition word, flip word) per bit, as in
                    // `GilbertElliott::apply`.
                    let mut words = [rng.next(); 16];
                    for word in &mut words[1..] {
                        *word = rng.next();
                    }
                    let mut touched = burst;
                    for draw in words.chunks_exact(2) {
                        touched |= below(draw[0], enter) | below(draw[1], good);
                    }
                    if touched & live == 0 {
                        continue;
                    }
                    let mut planes = 0u64;
                    for (bit, draw) in words.chunks_exact(2).enumerate() {
                        let moves = burst & below(draw[0], exit) | !burst & below(draw[0], enter);
                        burst ^= moves;
                        let flip = burst & below(draw[1], bad) | !burst & below(draw[1], good);
                        planes |= u64::from(flip) << (8 * bit);
                    }
                    let planes = planes & live_planes;
                    if planes != 0 {
                        emit(planes, i, len, masks, flips);
                    }
                }
            }
            Shape::Flat { skip, flip } => {
                if !flip.is_live() {
                    return;
                }
                if skip {
                    rng.next();
                }
                let flip = broadcast(flip);
                for i in 0..len {
                    let mut planes = 0u64;
                    for bit in 0..8 {
                        planes |= u64::from(below(rng.next(), flip)) << (8 * bit);
                    }
                    let planes = planes & live_planes;
                    if planes != 0 {
                        emit(planes, i, len, masks, flips);
                    }
                }
            }
        }
    }

    /// Writes byte `i` of every lane's mask from `planes`, whose byte
    /// `bit` holds the lanes that flip `bit`, and counts its flips.
    #[inline]
    fn emit(planes: u64, i: usize, len: usize, masks: &mut [u8], flips: &mut [usize]) {
        // Now byte `lane` holds the bits `lane` flips.
        let bytes = transpose8(planes).to_le_bytes();
        for (lane, (&byte, flips)) in bytes.iter().zip(flips).enumerate() {
            masks[lane * len + i] = byte;
            *flips += byte.count_ones() as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn transpose8_swaps_rows_and_columns() {
        for (i, j) in (0..8).flat_map(|i| (0..8).map(move |j| (i, j))) {
            assert_eq!(transpose8(1 << (8 * i + j)), 1 << (8 * j + i), "({i}, {j})");
        }
        let x = 0x0123_4567_89AB_CDEF;
        assert_eq!(transpose8(transpose8(x)), x);
    }

    /// The lane generator, seeded the way `StdRng::seed_from_u64`
    /// seeds, draws `StdRng`'s words in every lane — over 10⁴ seeds ×
    /// 2 000 words, so a change to the vendored generator fails here
    /// rather than moving a pinned stream.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_generator_equals_std_rng_word_for_word() {
        if !avx512() {
            eprintln!("no avx512f on this CPU: lane generator not exercised");
            return;
        }
        let seeds: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0xA076_1D64_78BD_642F) ^ i)
            .collect();
        for block in seeds.chunks(LANES) {
            let states: Vec<[u64; 4]> = block.iter().map(|&s| seeded_state(s)).collect();
            let mut want: Vec<StdRng> = block.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
            // SAFETY: AVX-512F support was just verified.
            let mut lanes = unsafe { avx512::Xoshiro::new(&states) };
            for step in 0..2_000 {
                // SAFETY: as above.
                let words = unsafe { lanes.next_words() };
                for (lane, rng) in want.iter_mut().enumerate() {
                    assert_eq!(
                        words[lane],
                        rng.next_u64(),
                        "seed {} step {step}",
                        block[lane]
                    );
                }
            }
        }
    }
}
