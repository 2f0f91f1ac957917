//! The uncoded baseline and CRC-32-based checksums.
//!
//! CRC-32 (IEEE 802.3) moved here from `heardof-net` when coding became
//! a first-class subsystem; the net crate re-exports [`crc32`] so the
//! original API is unchanged. A [`Checksum`] is pure *detection*: it
//! converts corruptions into omissions, never repairs them. Narrower
//! widths trade detection coverage for overhead — an 8-bit trailer
//! misses about 1 in 256 random corruptions, which is exactly the kind
//! of residual value-fault rate the `α` budget must then absorb.
//!
//! [`crc32`] is one function with two implementations: a carry-less-
//! multiply kernel (x86_64 with `pclmulqdq` + `sse4.1`, detected at run
//! time, inputs of 32 bytes and up) and the portable slice-by-8 table
//! loop (everything else). Which one runs depends on the platform and
//! the input length only — there is no feature, field or variable to
//! set — and both are pinned to a bytewise oracle at every length and
//! alignment by this module's tests, so no wire byte depends on it.

use crate::code::{ChannelCode, CodeError, DecodeScan};
use crate::SymbolBudget;
use bytes::{BufMut, BytesMut};

/// The slice-by-8 CRC-32 tables (reflected, polynomial `0xEDB88320`).
///
/// `TABLES[0]` is the classic bytewise table; `TABLES[k]` advances a
/// byte's contribution `k` further positions through the register, so
/// eight bytes can be folded per step with no loop-carried table
/// dependency between them.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Shortest input the carry-less-multiply kernel takes; anything
/// shorter stays on the tables.
///
/// Chosen by measurement (Xeon @ 2.1 GHz, warm tables, independent
/// back-to-back calls, ns per call, tables / kernel): 16 B 4.3 / 2.9,
/// 25 B 7.4 / 5.4, 31 B 11.3 / 8.6, 32 B 9.6 / 4.0, 34 B 10.8 / 4.5,
/// 64 B 22 / 4.7, 256 B 131 / 12, 2 KB 1 111 / 72. With a single block
/// the kernel folds nothing — it is one load, the fixed final
/// reduction (four dependent multiplies) and a table tail — and its
/// ≈ 2 ns lead there moved no workload when tried (a threshold of 16:
/// `clean-single` 6 060 → 6 025 decisions/s, `bursty-adaptive` 858 →
/// 856, six alternating pairs); from two whole blocks on it is ≥ 2×
/// ahead, so the line is drawn there. A 29-byte single-instance frame
/// stays on the tables; a 34-byte fountain symbol and every mux image
/// go to the kernel.
const CLMUL_MIN_LEN: usize = 32;

/// Computes the CRC-32 (IEEE) of `data`.
///
/// The whole-frame checksum is on the hot path of every send and every
/// ingest (the `Checksum` rungs, the fountain's symbol marks and outer
/// trailer, the mux image trailer and copy-byte patching all recompute
/// it), so its byte rate bounds the frame pipeline's throughput. There
/// are two implementations of the one function, chosen from the
/// platform and the input length alone:
///
/// * on x86_64 CPUs that report `pclmulqdq` and `sse4.1` (detected at
///   run time), inputs of at least `CLMUL_MIN_LEN` (32) bytes fold 64
///   bytes per step by carry-less multiplication — ≈ 0.04 ns a byte on
///   a 2 KB image;
/// * everything else — other targets, older CPUs, short frames — folds
///   eight bytes per step through the slice-by-8 tables, ≈ 0.6 ns a
///   byte.
///
/// Same polynomial, same initial value, same final inversion: the two
/// return the same checksum for every input.
///
/// # Examples
///
/// ```
/// // The canonical check value.
/// assert_eq!(heardof_coding::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if takes_clmul(data.len()) {
        // SAFETY: `takes_clmul` just verified, through
        // `is_x86_feature_detected!`, that this CPU has `pclmulqdq`
        // and `sse4.1`, the two features `clmul::crc32` is compiled
        // with.
        return unsafe { clmul::crc32(data) };
    }
    !update_sliced(!0, data)
}

/// Whether [`crc32`] sends an input of `len` bytes to the carry-less-
/// multiply kernel: a function of the length and the detected CPU
/// features only.
#[cfg(target_arch = "x86_64")]
fn takes_clmul(len: usize) -> bool {
    len >= CLMUL_MIN_LEN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// The portable path: advances the raw (uninverted) CRC register over
/// `data`, eight bytes per step through the slice-by-8 tables and the
/// last `< 8` one at a time.
fn update_sliced(mut crc: u32, data: &[u8]) -> u32 {
    let (words, tail) = data.as_chunks::<8>();
    for word in words {
        let w = u64::from_le_bytes(*word) ^ u64::from(crc);
        crc = TABLES[7][(w & 0xFF) as usize]
            ^ TABLES[6][((w >> 8) & 0xFF) as usize]
            ^ TABLES[5][((w >> 16) & 0xFF) as usize]
            ^ TABLES[4][((w >> 24) & 0xFF) as usize]
            ^ TABLES[3][((w >> 32) & 0xFF) as usize]
            ^ TABLES[2][((w >> 40) & 0xFF) as usize]
            ^ TABLES[1][((w >> 48) & 0xFF) as usize]
            ^ TABLES[0][(w >> 56) as usize];
    }
    for &byte in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 by carry-less multiplication (Gopal et al., *Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction*,
/// Intel 2009), bit-reflected variant.
///
/// A 128-bit register holds a polynomial congruent, modulo the CRC
/// polynomial `P`, to the message read so far; since the CRC is
/// bit-reflected, bit 0 of the register is the coefficient of `x^127`.
/// Taking in the next 16 bytes means multiplying the register by
/// `x^128` — done on each 64-bit half with one `pclmulqdq` by the
/// precomputed `x^k mod P`, which keeps the product inside 128 bits —
/// and XORing the bytes in. Four such registers run side by side over
/// 64-byte strides so the multiplier's latency is hidden.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // `x^k mod P`, bit-reflected and shifted left once (a product of
    // two reflected operands comes out one bit low). A fold over a
    // distance of `d` bits multiplies the register's high-degree half
    // by `x^(d+32)` and its low-degree half by `x^(d-32)`.
    /// `x^(512+32) mod P`: the four-lane stride, high-degree half.
    pub(super) const K1: i64 = 0x1_5444_2BD4;
    /// `x^(512-32) mod P`: the four-lane stride, low-degree half.
    pub(super) const K2: i64 = 0x1_C6E4_1596;
    /// `x^(128+32) mod P`: one block, high-degree half.
    pub(super) const K3: i64 = 0x1_7519_97D0;
    /// `x^(128-32) mod P`: one block, low-degree half.
    pub(super) const K4: i64 = 0x0_CCAA_009E;
    /// `x^64 mod P`: the 96 → 64-bit step of the final reduction.
    pub(super) const K5: i64 = 0x1_63CD_6124;
    /// `P` itself, all 33 bits, bit-reflected.
    pub(super) const POLY: i64 = 0x1_DB71_0641;
    /// `⌊x^64 / P⌋`, 33 bits, bit-reflected: Barrett's constant.
    pub(super) const MU: i64 = 0x1_F701_1641;

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is a reference to 16 readable bytes — every
        // caller takes it from `as_chunks::<16>()`, which yields only
        // whole in-bounds blocks — and `_mm_loadu_si128` reads exactly
        // 16 bytes with no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc · x^d + next`, reduced to 128 bits, for the distance `d`
    /// that `keys` (high-degree constant in the low lane) encodes.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, keys: __m128i, next: __m128i) -> __m128i {
        let high = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let low = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(high, next), low)
    }

    /// The CRC-32 of `data`, equal to the portable path's at every
    /// length (an input with no whole 16-byte block is handed to it).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let (strides, singles) = blocks.as_chunks::<4>();
        let mut singles = singles.iter();
        // The register starts at all-ones, which is the same as
        // inverting the message's first 32 bits.
        let init = _mm_cvtsi32_si128(!0);
        let block_keys = _mm_set_epi64x(K4, K3);

        let mut acc = if let Some((head, strides)) = strides.split_first() {
            let stride_keys = _mm_set_epi64x(K2, K1);
            let mut lanes = [
                _mm_xor_si128(load(&head[0]), init),
                load(&head[1]),
                load(&head[2]),
                load(&head[3]),
            ];
            for stride in strides {
                for (lane, block) in lanes.iter_mut().zip(stride) {
                    *lane = fold(*lane, stride_keys, load(block));
                }
            }
            let [first, rest @ ..] = lanes;
            rest.into_iter()
                .fold(first, |acc, lane| fold(acc, block_keys, lane))
        } else if let Some(first) = singles.next() {
            _mm_xor_si128(load(first), init)
        } else {
            return !super::update_sliced(!0, data);
        };
        for block in singles {
            acc = fold(acc, block_keys, load(block));
        }

        // 128 → 96 → 64 bits: multiply the high-degree 64, then the
        // high-degree 32 of what is left, down onto the rest. The
        // CRC's closing `· x^32` is absorbed here.
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, block_keys),
            _mm_srli_si128::<8>(acc),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett: the multiple of `P` that clears the high-degree 32
        // bits is `⌊acc / x^32⌋ · μ`'s high half times `P`.
        let barrett = _mm_set_epi64x(MU, POLY);
        let quotient = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), barrett);
        let multiple = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(quotient, low32), barrett);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(acc, multiple)) as u32;

        !super::update_sliced(crc, tail)
    }
}

/// The identity code: no redundancy, no detection. Every corruption
/// that still parses is an undetected value fault — the paper's raw
/// `α`-counted event. This is the baseline every other code is measured
/// against.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoCode;

impl ChannelCode for NoCode {
    fn name(&self) -> String {
        "none".to_string()
    }

    fn encoded_len(&self, payload_len: usize) -> usize {
        payload_len
    }

    fn encode_into(&self, payload: &[u8], _budget: Option<SymbolBudget>, out: &mut BytesMut) {
        out.put_slice(payload);
    }

    // The identity code is the purest zero-copy path: the decoded body
    // *is* the wire.
    fn decode_scan<'a>(&self, wire: &'a [u8]) -> DecodeScan<'a> {
        DecodeScan::delivered(wire, false, 0)
    }
}

/// An error-*detecting* code: the payload followed by the low `width`
/// bytes of its CRC-32 (little-endian). `width == 4` reproduces the
/// seed wire format byte-for-byte.
#[derive(Clone, Copy, Debug)]
pub struct Checksum {
    width: u8,
}

impl Checksum {
    /// The full 32-bit checksum (the workspace default).
    pub fn crc32() -> Self {
        Checksum { width: 4 }
    }

    /// A truncated checksum of `width` bytes (1, 2 or 4). Narrow
    /// widths have *measurable* miss rates (~`2^-8w`), useful for
    /// studying the residual-α a detection gap induces.
    ///
    /// # Panics
    ///
    /// Panics unless `width` is 1, 2 or 4.
    pub fn with_width(width: u8) -> Self {
        assert!(
            matches!(width, 1 | 2 | 4),
            "checksum width must be 1, 2 or 4 bytes, got {width}"
        );
        Checksum { width }
    }

    /// Checksum width in bytes.
    pub fn width(&self) -> u8 {
        self.width
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::crc32()
    }
}

impl ChannelCode for Checksum {
    fn name(&self) -> String {
        format!("checksum{}", self.width * 8)
    }

    fn encoded_len(&self, payload_len: usize) -> usize {
        payload_len + self.width as usize
    }

    fn encode_into(&self, payload: &[u8], _budget: Option<SymbolBudget>, out: &mut BytesMut) {
        out.put_slice(payload);
        out.put_slice(&crc32(payload).to_le_bytes()[..self.width as usize]);
    }

    // Detection needs only a scan: the decoded body is the wire minus
    // its trailer, borrowed in place.
    fn decode_scan<'a>(&self, wire: &'a [u8]) -> DecodeScan<'a> {
        let w = self.width as usize;
        if wire.len() < w {
            return DecodeScan::rejected(CodeError::Malformed, 0);
        }
        let (payload, trailer) = wire.split_at(wire.len() - w);
        if crc32(payload).to_le_bytes()[..w] != *trailer {
            return DecodeScan::rejected(CodeError::Detected, 0);
        }
        DecodeScan::delivered(payload, false, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::FrameOutcome;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The one-byte-per-step reference CRC-32: the differential oracle
    /// both production paths are pinned against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            let idx = ((crc ^ byte as u32) & 0xFF) as usize;
            crc = (crc >> 8) ^ TABLES[0][idx];
        }
        !crc
    }

    #[test]
    fn crc_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The CRC of `data` by every implementation that exists on this
    /// machine, production paths called directly: `(name, crc)`.
    fn every_path(data: &[u8]) -> Vec<(&'static str, u32)> {
        let mut paths = vec![
            ("crc32", crc32(data)),
            ("update_sliced", !update_sliced(!0, data)),
        ];
        #[cfg(target_arch = "x86_64")]
        if takes_clmul(usize::MAX) {
            // SAFETY: `takes_clmul` just verified, through
            // `is_x86_feature_detected!`, the `pclmulqdq` and `sse4.1`
            // support `clmul::crc32` is compiled with.
            paths.push(("clmul::crc32", unsafe { clmul::crc32(data) }));
        }
        paths
    }

    #[test]
    fn every_crc_path_equals_the_bytewise_oracle() {
        let check = |data: &[u8]| {
            let oracle = crc32_bytewise(data);
            for (path, crc) in every_path(data) {
                assert_eq!(
                    crc,
                    oracle,
                    "{path} diverged from the oracle on {} bytes at address ≡ {} (mod 16)",
                    data.len(),
                    data.as_ptr() as usize % 16
                );
            }
        };
        let mut rng = StdRng::seed_from_u64(0xC7C32);
        let buf: Vec<u8> = (0..8 * 1024 + 16).map(|_| rng.next_u32() as u8).collect();
        // Every length that reaches each branch of both paths — no
        // block, 1–3 single blocks, one stride, strides + singles,
        // every tail — at every alignment of the first byte.
        for offset in 0..16 {
            for len in 0..=300 {
                check(&buf[offset..offset + len]);
            }
        }
        for _ in 0..200 {
            let offset = rng.gen_range(0..16usize);
            check(&buf[offset..offset + rng.gen_range(0..=8 * 1024usize)]);
        }
        // The inputs `crc_known_vectors` pins to their published values.
        for data in [
            &b""[..],
            b"123456789",
            b"The quick brown fox jumps over the lazy dog",
            b"a",
        ] {
            check(data);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_path_is_chosen_from_length_and_cpu_features_alone() {
        let detected = std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1");
        // A mux image and a fountain symbol take the kernel wherever it
        // exists; a sub-block frame never does.
        assert_eq!(takes_clmul(2048), detected);
        assert_eq!(takes_clmul(34), detected);
        assert!(!takes_clmul(9));
        assert_eq!(takes_clmul(CLMUL_MIN_LEN), detected);
        assert!(!takes_clmul(CLMUL_MIN_LEN - 1));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_powers_of_x_modulo_the_polynomial() {
        // Reflected `x^n mod P`: bit 31 is `x^0`, one step multiplies
        // by `x` — the bytewise table's inner loop.
        let x_pow = |n: u32| {
            (0..n).fold(0x8000_0000u32, |v, _| {
                (v >> 1) ^ if v & 1 != 0 { 0xEDB8_8320 } else { 0 }
            })
        };
        for (k, n) in [
            (clmul::K1, 512 + 32),
            (clmul::K2, 512 - 32),
            (clmul::K3, 128 + 32),
            (clmul::K4, 128 - 32),
            (clmul::K5, 64),
        ] {
            assert_eq!(k, i64::from(x_pow(n)) << 1, "x^{n} mod P");
        }
        assert_eq!(clmul::POLY, (i64::from(x_pow(32)) << 1) | 1);
        // μ · P = x^64 + (a remainder below x^32): carry-less product
        // of the two 33-bit reflected words, low 32 result bits clear
        // but for the `x^64` term itself.
        let product = (0..33).fold(0u128, |acc, bit| {
            acc ^ if clmul::MU >> bit & 1 != 0 {
                (clmul::POLY as u128) << bit
            } else {
                0
            }
        });
        assert_eq!(product & 0xFFFF_FFFF, 1, "μ is ⌊x^64 / P⌋");
    }

    #[test]
    fn crc_detects_single_bit_flips() {
        let data = b"heard-of model with value faults".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn no_code_passes_corruption_through() {
        let payload = b"value".to_vec();
        let mut wire = NoCode.encode(&payload);
        assert_eq!(NoCode.classify(&payload, &wire), FrameOutcome::Delivered);
        wire[0] ^= 1;
        assert_eq!(
            NoCode.classify(&payload, &wire),
            FrameOutcome::UndetectedValueFault
        );
    }

    #[test]
    fn checksum_roundtrips_all_widths() {
        for width in [1u8, 2, 4] {
            let code = Checksum::with_width(width);
            for payload in [b"".to_vec(), b"x".to_vec(), vec![0xAB; 100]] {
                let wire = code.encode(&payload);
                assert_eq!(wire.len(), payload.len() + width as usize);
                assert_eq!(code.decode(&wire).unwrap(), payload);
            }
        }
    }

    #[test]
    fn checksum_turns_flips_into_omissions() {
        let code = Checksum::crc32();
        let payload = b"consensus".to_vec();
        let clean = code.encode(&payload);
        for byte in 0..clean.len() {
            let mut wire = clean.clone();
            wire[byte] ^= 0x40;
            assert_eq!(
                code.classify(&payload, &wire),
                FrameOutcome::DetectedOmission,
                "flip at byte {byte} must be detected"
            );
        }
    }

    #[test]
    fn short_wire_is_malformed() {
        assert_eq!(
            Checksum::crc32().decode(&[1, 2, 3]),
            Err(CodeError::Malformed)
        );
    }

    #[test]
    #[should_panic(expected = "checksum width")]
    fn bad_width_panics() {
        let _ = Checksum::with_width(3);
    }
}
