//! Block bit-interleaving: spreading bursts across code blocks.
//!
//! Per-block codes like [`crate::Hamming74`] correct one flip per block
//! and merely *detect* two — so a burst of a few consecutive bits, the
//! realistic physical failure mode, lands several flips in one block and
//! turns what could have been corrections into omissions (or worse).
//! A block interleaver permutes the encoded bits before transmission so
//! that bits which travel *adjacently* belong to blocks that are *far
//! apart*; de-interleaving at the receiver turns one wire burst into
//! isolated single-bit errors the inner code repairs outright.
//!
//! The permutation is the classic row/column transpose. With depth `d`
//! and an `N`-bit inner codeword, bits are written row-major into a
//! `d × ⌈N/d⌉` matrix and read column-major (skipping the missing cells
//! of the final partial row, so the map is a bijection for every `N`):
//!
//! ```text
//! inner codeword:  b0 b1 b2 b3 | b4 b5 b6 b7 | b8 …      (rows, width C)
//! on the wire:     b0 b4 b8 …  | b1 b5 b9 …  | b2 …      (columns = stripes)
//! ```
//!
//! A burst confined to one wire *stripe* (≤ `d` consecutive wire bits
//! from a single column) touches each row — each contiguous `C`-bit
//! chunk of the inner codeword — at most once. When `C ≥ 8`, i.e. the
//! inner codeword has at least `8·d` bits, those hits are at least 8
//! bits apart, so no [`crate::Hamming74`] block receives more than one
//! flip and the whole burst is corrected.

use crate::bitslice::transpose_bits;
use crate::code::{ChannelCode, DecodeScan};
use crate::SymbolBudget;
use bytes::BytesMut;

fn get_bit(data: &[u8], idx: usize) -> bool {
    data[idx / 8] & (1 << (idx % 8)) != 0
}

fn set_bit(data: &mut [u8], idx: usize) {
    data[idx / 8] |= 1 << (idx % 8);
}

/// Applies the depth-`d` transpose permutation to `data`'s bits
/// (codeword order → wire order).
///
/// When the bit count divides evenly by `depth` — every interleaved
/// SECDED codeword does, its length in bits being a multiple of 16 —
/// the permutation has no skipped cells and is a `depth × cols`
/// bit-matrix transpose ([`crate::bitslice::transpose_bits`], which
/// moves whole words and bytes when `depth` or `cols` is a multiple of
/// 8 and tiles 8×8 otherwise) instead of one shift-and-mask per bit.
/// Ragged shapes fall back to [`interleave_bits_scalar`], which
/// differential tests pin the fast path against.
pub fn interleave_bits(data: &[u8], depth: usize) -> Vec<u8> {
    let mut out = vec![0u8; data.len()];
    permute_into(data, &mut out, depth, true);
    out
}

/// Inverts [`interleave_bits`] (wire order → codeword order); same
/// fast path, with the matrix dimensions swapped.
pub fn deinterleave_bits(data: &[u8], depth: usize) -> Vec<u8> {
    let mut out = vec![0u8; data.len()];
    permute_into(data, &mut out, depth, false);
    out
}

/// The permutation behind [`interleave_bits`] (`forward`) and
/// [`deinterleave_bits`], written into a buffer the caller owns —
/// what [`Interleaved`] calls, so a frame is permuted without a buffer
/// of its own. The shape alone picks the path.
fn permute_into(data: &[u8], out: &mut [u8], depth: usize, forward: bool) {
    let n = data.len() * 8;
    if depth <= 1 || n == 0 || !n.is_multiple_of(depth) {
        permute_scalar_into(data, out, depth, forward);
    } else if forward {
        // Wire bit c·d + r = codeword bit r·cols + c: exactly the
        // d × cols bit-matrix transpose.
        transpose_bits(data, out, depth, n / depth);
    } else {
        transpose_bits(data, out, n / depth, depth);
    }
}

/// The bit-at-a-time interleave: reference semantics for every shape,
/// fallback for ragged ones, and the differential oracle (and
/// benchmark baseline) for the tiled fast path. Never inlined so the
/// benchmark measures the loop it names.
#[inline(never)]
pub fn interleave_bits_scalar(data: &[u8], depth: usize) -> Vec<u8> {
    let mut out = vec![0u8; data.len()];
    permute_scalar_into(data, &mut out, depth, true);
    out
}

/// The bit-at-a-time inverse of [`interleave_bits_scalar`]; same role,
/// opposite direction.
#[inline(never)]
pub fn deinterleave_bits_scalar(data: &[u8], depth: usize) -> Vec<u8> {
    let mut out = vec![0u8; data.len()];
    permute_scalar_into(data, &mut out, depth, false);
    out
}

fn permute_scalar_into(data: &[u8], out: &mut [u8], depth: usize, forward: bool) {
    let n = data.len() * 8;
    if depth <= 1 || n == 0 {
        return out.copy_from_slice(data);
    }
    out.fill(0);
    let cols = n.div_ceil(depth);
    let mut k = 0; // wire-order bit index
    for col in 0..cols {
        for row in 0..depth {
            let w = row * cols + col; // codeword-order bit index
            if w >= n {
                continue;
            }
            let (src, dst) = if forward { (w, k) } else { (k, w) };
            if get_bit(data, src) {
                set_bit(out, dst);
            }
            k += 1;
        }
    }
}

/// The bit offsets at which each wire stripe (one column of the
/// transpose) begins, plus the total bit count as a final sentinel.
/// Stripe `i` occupies wire bits `[offsets[i], offsets[i+1])`.
pub fn stripe_offsets(nbits: usize, depth: usize) -> Vec<usize> {
    if depth <= 1 || nbits == 0 {
        return vec![0, nbits];
    }
    let cols = nbits.div_ceil(depth);
    let mut offsets = Vec::with_capacity(cols + 1);
    let mut k = 0;
    for col in 0..cols {
        offsets.push(k);
        // Rows whose cell (row, col) exists, i.e. row*cols + col < nbits.
        k += (0..depth).filter(|row| row * cols + col < nbits).count();
    }
    offsets.push(nbits);
    offsets
}

/// Wraps an inner [`ChannelCode`] with depth-`d` bit interleaving.
///
/// Rate and wire length are the inner code's — the permutation costs
/// nothing. What it buys: any burst confined to one wire stripe of up
/// to `depth` bits is spread to at most one flip per inner
/// [`crate::Hamming74`] block (for codewords of at least `8·depth`
/// bits) and therefore corrected.
///
/// # Examples
///
/// ```
/// use heardof_coding::{ChannelCode, FrameOutcome, Hamming74, Interleaved};
///
/// let code = Interleaved::new(Hamming74, 8);
/// let payload = vec![0x5Au8; 16]; // 256-bit codeword ⇒ stripes of 8
/// let mut wire = code.encode(&payload);
/// for bit in 40..48 {
///     wire[bit / 8] ^= 1 << (bit % 8); // an 8-bit wire burst in one stripe
/// }
/// assert_eq!(code.classify(&payload, &wire), FrameOutcome::Delivered);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Interleaved<C> {
    inner: C,
    depth: usize,
}

impl<C: ChannelCode> Interleaved<C> {
    /// Interleaves `inner`'s codewords at the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth < 2` — depth 1 is the identity permutation and
    /// should just use the inner code directly.
    pub fn new(inner: C, depth: usize) -> Self {
        assert!(depth >= 2, "interleaving depth must be at least 2");
        Interleaved { inner, depth }
    }

    /// The interleaving depth (maximum correctable burst length, in
    /// bits, for a SECDED inner code and codewords of ≥ `8·depth` bits).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The wrapped inner code.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: ChannelCode> ChannelCode for Interleaved<C> {
    fn name(&self) -> String {
        format!("interleaved{}[{}]", self.depth, self.inner.name())
    }

    fn encoded_len(&self, payload_len: usize) -> usize {
        self.inner.encoded_len(payload_len)
    }

    fn encode_into(&self, payload: &[u8], _budget: Option<SymbolBudget>, out: &mut BytesMut) {
        // The inner codeword is written straight into `out`, copied
        // aside, and permuted back onto the bytes it came from. A
        // combinator is a fixed-rate code: no budget reaches its layers.
        let start = out.len();
        self.inner.encode_into(payload, None, out);
        with_scratch(out.len() - start, |codeword| {
            codeword.copy_from_slice(&out[start..]);
            permute_into(codeword, &mut out[start..], self.depth, true);
        });
    }

    fn decode_scan<'a>(&self, wire: &'a [u8]) -> DecodeScan<'a> {
        with_scratch(wire.len(), |codeword| {
            permute_into(wire, codeword, self.depth, false);
            // The scratch dies here; a correcting inner code already
            // owns its repaired payload, which this only moves.
            self.inner.decode_scan(codeword).into_owned()
        })
    }
}

/// The largest frame [`with_scratch`] holds on the stack.
const STACK_FRAME: usize = 256;

/// Runs `f` on `len` zeroed scratch bytes — the second buffer a
/// permutation needs, since a transpose is not done in place: on the
/// stack for a frame of up to [`STACK_FRAME`] bytes (every
/// single-instance frame the ladder sends), on the heap above it.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
    if len <= STACK_FRAME {
        f(&mut [0u8; STACK_FRAME][..len])
    } else {
        f(&mut vec![0u8; len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::FrameOutcome;
    use crate::Hamming74;

    #[test]
    fn permutation_is_a_bijection() {
        for len in [0usize, 1, 2, 3, 7, 8, 15, 64] {
            for depth in [2usize, 3, 4, 8, 16] {
                let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37) ^ 0x5A).collect();
                let inter = interleave_bits(&data, depth);
                assert_eq!(inter.len(), data.len());
                assert_eq!(
                    deinterleave_bits(&inter, depth),
                    data,
                    "len {len}, depth {depth}"
                );
            }
        }
    }

    #[test]
    fn fast_and_scalar_permutations_agree() {
        // The tiled-transpose fast path against the bit-at-a-time
        // oracle, in both directions, across shapes that hit the fast
        // path (n % depth == 0, ragged and full tiles alike) and ones
        // that fall back (where agreement is trivially by delegation).
        for len in [1usize, 2, 3, 4, 7, 8, 16, 31, 32, 64, 70] {
            for depth in [2usize, 3, 4, 5, 8, 16, 64] {
                let data: Vec<u8> = (0..len)
                    .map(|b| (b as u8).wrapping_mul(151) ^ 0x3C)
                    .collect();
                assert_eq!(
                    interleave_bits(&data, depth),
                    interleave_bits_scalar(&data, depth),
                    "interleave len {len}, depth {depth}"
                );
                assert_eq!(
                    deinterleave_bits(&data, depth),
                    deinterleave_bits_scalar(&data, depth),
                    "deinterleave len {len}, depth {depth}"
                );
            }
        }
    }

    #[test]
    fn stripe_offsets_partition_the_wire() {
        for nbits in [16usize, 24, 100, 128] {
            for depth in [2usize, 4, 8] {
                let offsets = stripe_offsets(nbits, depth);
                assert_eq!(*offsets.last().unwrap(), nbits);
                for w in offsets.windows(2) {
                    assert!(w[0] < w[1], "stripes are non-empty and ordered");
                    assert!(w[1] - w[0] <= depth, "stripe no longer than depth");
                }
            }
        }
    }

    #[test]
    fn burst_in_one_stripe_is_corrected() {
        let code = Interleaved::new(Hamming74, 8);
        let payload: Vec<u8> = (0..32u8).collect(); // 512-bit codeword
        let clean = code.encode(&payload);
        let nbits = clean.len() * 8;
        let offsets = stripe_offsets(nbits, 8);
        for w in offsets.windows(2) {
            let mut wire = clean.clone();
            for bit in w[0]..w[1] {
                wire[bit / 8] ^= 1 << (bit % 8); // obliterate the whole stripe
            }
            assert_eq!(
                code.classify(&payload, &wire),
                FrameOutcome::Delivered,
                "stripe [{}, {}) burst must be repaired",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn same_burst_defeats_plain_hamming() {
        // The control: without interleaving, an 8-bit burst lands ≥ 2
        // flips in one SECDED block, so the frame is at best dropped.
        let payload: Vec<u8> = (0..32u8).collect();
        let clean = Hamming74.encode(&payload);
        let mut wire = clean;
        for bit in 40..48 {
            wire[bit / 8] ^= 1 << (bit % 8);
        }
        assert_ne!(
            Hamming74.classify(&payload, &wire),
            FrameOutcome::Delivered,
            "plain SECDED cannot repair a contiguous burst"
        );
    }

    #[test]
    fn roundtrip_and_name() {
        let code = Interleaved::new(Hamming74, 4);
        let payload = b"interleave me".to_vec();
        assert_eq!(code.decode(&code.encode(&payload)).unwrap(), payload);
        assert_eq!(code.encoded_len(13), 26);
        assert_eq!(code.name(), "interleaved4[hamming74]");
        assert_eq!(code.depth(), 4);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn depth_one_panics() {
        let _ = Interleaved::new(Hamming74, 1);
    }
}
