//! Word-wide bitsliced kernels shared by the coding hot paths.
//!
//! The common trick: transpose blocks of code bytes into `u64` *bit
//! planes* (plane `b`, bit `i` = bit `b` of block `i`), after which
//! per-bit equations — Hamming parities and syndromes, interleave
//! permutations, repetition majority votes — run as a handful of
//! word-wide operations across 64 lanes at once:
//!
//! ```text
//!   64 blocks (bytes)            8 planes (u64)
//!   blk0: b7 b6 … b0     ⇄   plane0: blk63…blk0 (bit 0 of each)
//!   blk1: b7 b6 … b0          plane1: blk63…blk0 (bit 1 of each)
//!    …                         …
//! ```
//!
//! Three consumers drive this module:
//!
//! * [`crate::Hamming74`] runs every block through [`encode64`] /
//!   [`decode64`], the last batch of a payload zero-padded — a frame
//!   shorter than one batch takes the same path as a long image.
//!   The nibble-at-a-time path is a test-only oracle here
//!   (`encode_scalar`, `decode_scalar`); the throughput benchmark and
//!   the small-frame tests keep their own copies.
//! * [`crate::Interleaved`] uses [`transpose_bits`] to apply its stripe
//!   permutation. A matrix with a byte-aligned side (every interleaved
//!   SECDED codeword) moves words on its ragged side and goes through
//!   [`transpose64`] / [`untranspose64`]; any other shape is tiled 8×8
//!   a bit-row at a time.
//! * [`crate::Repetition`] votes word-wide on its own (plain `u64`
//!   majority logic needs no transpose), but shares the differential
//!   discipline: its bit-at-a-time vote is the oracle for the word-wide
//!   one.
//!
//! Where AVX2 is available the transposes and the SECDED kernels
//! dispatch to vector implementations; the portable SWAR forms double
//! as their differential oracles.

use crate::hamming::DATA_POSITIONS;

/// Blocks per bitsliced batch: one bit lane per `u64` bit.
pub const LANES: usize = 64;

/// Transposes one 8×8 bit matrix held in a `u64` (row `i` = byte
/// `i`, column `j` = bit `j`), the classic three-exchange network.
#[inline]
fn transpose8x8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Transposes the 8×8 *byte* matrix held in eight `u64`s (row `i` =
/// word `i`, column `j` = byte `j`) — the same three-exchange
/// network as [`transpose8x8`], one granularity up. The per-group
/// bit transposes leave the cross-group gather as exactly this
/// operation; doing it with masked exchanges instead of a
/// byte-at-a-time scatter loop is what makes the full 64-lane
/// transpose cheap enough for the hot path.
#[inline]
fn transpose_bytes8(m: &mut [u64; 8]) {
    for i in 0..4 {
        let (a, b) = (m[i], m[i + 4]);
        m[i] = (a & 0x0000_0000_FFFF_FFFF) | (b << 32);
        m[i + 4] = (a >> 32) | (b & 0xFFFF_FFFF_0000_0000);
    }
    for i in [0, 1, 4, 5] {
        let (a, b) = (m[i], m[i + 2]);
        m[i] = (a & 0x0000_FFFF_0000_FFFF) | ((b & 0x0000_FFFF_0000_FFFF) << 16);
        m[i + 2] = ((a >> 16) & 0x0000_FFFF_0000_FFFF) | (b & 0xFFFF_0000_FFFF_0000);
    }
    for i in [0, 2, 4, 6] {
        let (a, b) = (m[i], m[i + 1]);
        m[i] = (a & 0x00FF_00FF_00FF_00FF) | ((b & 0x00FF_00FF_00FF_00FF) << 8);
        m[i + 1] = ((a >> 8) & 0x00FF_00FF_00FF_00FF) | (b & 0xFF00_FF00_FF00_FF00);
    }
}

/// Reads 8 consecutive bits of `src` starting at bit `bitpos`
/// (LSB-first within each byte, matching the rest of the crate).
/// Bits past the end of `src` read as zero.
#[inline]
fn read_bits8(src: &[u8], bitpos: usize) -> u8 {
    let (byte, shift) = (bitpos / 8, bitpos % 8);
    let lo = src.get(byte).copied().unwrap_or(0);
    if shift == 0 {
        return lo;
    }
    let hi = src.get(byte + 1).copied().unwrap_or(0);
    (lo >> shift) | (hi << (8 - shift))
}

/// ORs 8 bits of `val` into `dst` starting at bit `bitpos`. The
/// destination must be pre-zeroed at those positions (the transpose
/// fills a fresh buffer, so it always is). Bits past the end of
/// `dst` are dropped.
#[inline]
fn write_bits8(dst: &mut [u8], bitpos: usize, val: u8) {
    let (byte, shift) = (bitpos / 8, bitpos % 8);
    if let Some(b) = dst.get_mut(byte) {
        *b |= val << shift;
    }
    if shift != 0 {
        if let Some(b) = dst.get_mut(byte + 1) {
            *b |= val >> (8 - shift);
        }
    }
}

/// Reads the 64 bits of `src` starting at bit `bitpos` (LSB-first,
/// bits past the end of `src` read as zero); the low 57 are valid
/// whatever the alignment of `bitpos`.
#[inline]
fn load_bits64(src: &[u8], bitpos: usize) -> u64 {
    let tail = &src[bitpos / 8..];
    let mut bytes = [0u8; 8];
    match tail.first_chunk() {
        Some(whole) => bytes = *whole,
        None => bytes[..tail.len()].copy_from_slice(tail),
    }
    u64::from_le_bytes(bytes) >> (bitpos % 8)
}

/// ORs `bits` into `dst` starting at bit `bitpos`; whatever falls past
/// the end of `dst` is dropped. Every access is eight bytes on an
/// eight-byte grid from the start of `dst`, so two of them coincide or
/// are disjoint and a load never straddles a store still in flight.
#[inline]
fn or_bits64(dst: &mut [u8], bitpos: usize, bits: u64) {
    let (at, shift) = (bitpos / 64 * 8, bitpos % 64);
    let spill = if shift == 0 { 0 } else { bits >> (64 - shift) };
    for (at, part) in [(at, bits << shift), (at + 8, spill)] {
        let Some(tail) = dst.get_mut(at..) else {
            continue;
        };
        match tail.first_chunk_mut() {
            Some(word) => *word = (u64::from_le_bytes(*word) | part).to_le_bytes(),
            None => {
                for (byte, add) in tail.iter_mut().zip(part.to_le_bytes()) {
                    *byte |= add;
                }
            }
        }
    }
}

/// Columns one [`load_bits64`] word carries at any alignment, rounded
/// down to whole bytes.
const WORD_SPAN: usize = 56;

/// [`transpose_bits`] when `rows` is a multiple of 8, so every
/// destination column is whole bytes. Eight unaligned source rows are
/// loaded once per 56 columns, a word each — which makes them the bit
/// planes of the bytes those columns hold for that row group — and
/// [`untranspose64`] turns them into bytes, stored whole: nothing is
/// read or written a bit-row at a time.
fn transpose_onto_bytes(src: &[u8], dst: &mut [u8], rows: usize, cols: usize) {
    let col_bytes = rows / 8;
    for group in 0..col_bytes {
        for c0 in (0..cols).step_by(WORD_SPAN) {
            let mut planes = [0u64; 8];
            for (r, plane) in planes.iter_mut().enumerate() {
                *plane = load_bits64(src, (8 * group + r) * cols + c0);
            }
            // Bits a word holds past its row's end belong to the next
            // row; they fall in columns ≥ `cols`, which `dst` has no
            // bytes for and the zip never reaches.
            let columns = dst[c0 * col_bytes..].chunks_exact_mut(col_bytes);
            for (column, byte) in columns.take(WORD_SPAN).zip(untranspose64(&planes)) {
                column[group] = byte;
            }
        }
    }
}

/// [`transpose_bits`] when `cols` is a multiple of 8, so every source
/// row is whole bytes — the mirror image of [`transpose_onto_bytes`]:
/// one byte from each of 64 source rows goes through [`transpose64`],
/// and each of the eight planes that come back is 64 rows of one
/// unaligned destination column, written as one word.
fn transpose_from_bytes(src: &[u8], dst: &mut [u8], rows: usize, cols: usize) {
    let row_bytes = cols / 8;
    dst.fill(0);
    for group in 0..row_bytes {
        for r0 in (0..rows).step_by(LANES) {
            let mut blocks = [0u8; LANES];
            let source_rows = src[r0 * row_bytes..].chunks_exact(row_bytes);
            for (block, row) in blocks.iter_mut().zip(source_rows) {
                *block = row[group];
            }
            for (c, plane) in transpose64(&blocks).into_iter().enumerate() {
                or_bits64(dst, (8 * group + c) * rows + r0, plane);
            }
        }
    }
}

/// Transposes an `rows × cols` bit matrix: destination bit
/// `c*rows + r` = source bit `r*cols + c`, both LSB-first — the engine
/// behind the fast interleave path ([`crate::interleave_bits`]), one
/// 8×8 bit transpose per 64 bits instead of one shift-and-mask per bit.
///
/// Which path a shape takes is decided by its dimensions alone. A
/// matrix with a side that is a whole number of bytes and the other at
/// least a tile long — every interleaved SECDED codeword at depth 8 and
/// up: depth 16 is two bytes per wire column — moves whole words on its
/// ragged side and whole bytes on its aligned one, through
/// [`untranspose64`] or [`transpose64`]. Any other shape gathers and
/// scatters each tile a bit-row at a time.
///
/// # Panics
///
/// Panics unless both buffers hold exactly `rows * cols` bits'
/// worth of bytes (`(rows*cols).div_ceil(8)`).
pub fn transpose_bits(src: &[u8], dst: &mut [u8], rows: usize, cols: usize) {
    let nbytes = usize::div_ceil(rows * cols, 8);
    assert_eq!(src.len(), nbytes, "source holds rows*cols bits");
    assert_eq!(dst.len(), nbytes, "destination holds rows*cols bits");
    // A word path pays when the side it walks in words is at least a
    // tile long; with both sides aligned, the shorter one makes the
    // fewer groups.
    let by_rows = rows.is_multiple_of(8) && cols >= 8;
    let by_cols = cols.is_multiple_of(8) && rows >= 8;
    if by_rows && (!by_cols || rows <= cols) {
        return transpose_onto_bytes(src, dst, rows, cols);
    }
    if by_cols {
        return transpose_from_bytes(src, dst, rows, cols);
    }
    dst.fill(0);
    for r0 in (0..rows).step_by(8) {
        let rtile = (rows - r0).min(8);
        for c0 in (0..cols).step_by(8) {
            let ctile = (cols - c0).min(8);
            // Gather the tile: row r of the tile is 8 bits of source
            // row r0+r starting at column c0 (junk bits beyond the
            // matrix edge land in lanes the scatter below skips).
            let mut x = 0u64;
            for r in 0..rtile {
                x |= (read_bits8(src, (r0 + r) * cols + c0) as u64) << (8 * r);
            }
            let t = transpose8x8(x);
            // Scatter: column c of the tile becomes 8 bits of
            // destination column r0.. at row-group offset.
            for c in 0..ctile {
                write_bits8(dst, (c0 + c) * rows + r0, (t >> (8 * c)) as u8);
            }
        }
    }
}

/// AVX2 fast paths for the two transposes — the only part of the
/// bitsliced pipeline wide registers accelerate (the plane math is
/// already one XOR per 64 lanes). Forward extracts one plane per
/// `movemask` (top bit of all 32 bytes at once, byte-doubling to
/// walk the bit positions); inverse rebuilds bytes by broadcasting
/// each plane, selecting the owning byte per lane with an in-lane
/// shuffle, and comparing against a per-lane bit mask. Both are
/// pinned byte-identical to the portable exchange-network path by
/// the differential tests below.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    /// The whole code fits in nibble lookup tables, which is what
    /// makes `pshufb` (16-entry parallel table lookup, one per
    /// byte) the natural vector form of the SECDED kernels: encode
    /// is literally one lookup, and decode splits each byte into
    /// its two nibbles and reads syndrome and parity contributions
    /// off four tables (XOR-additive across the halves), exactly
    /// the scalar equations evaluated 32 lanes at a time. The
    /// tables are built by `const` mirrors of the scalar bit math;
    /// `table_mirrors_the_scalar_path` pins them to the real
    /// functions.
    const fn enc_table() -> [u8; 16] {
        let mut t = [0u8; 16];
        let mut n = 0usize;
        while n < 16 {
            let mut block = 0u8;
            let mut i = 0;
            // Data bits to positions 3,5,6,7.
            let positions = [3u8, 5, 6, 7];
            while i < 4 {
                if n & (1 << i) != 0 {
                    block |= 1 << positions[i];
                }
                i += 1;
            }
            let mut p = 0usize;
            while p < 3 {
                let pk = [1u8, 2, 4][p];
                let mut parity = 0u32;
                let mut pos = 3u8;
                while pos < 8 {
                    if pos & pk != 0 && block & (1 << pos) != 0 {
                        parity += 1;
                    }
                    pos += 1;
                }
                if parity % 2 == 1 {
                    block |= 1 << pk;
                }
                p += 1;
            }
            if block.count_ones() % 2 == 1 {
                block |= 1;
            }
            t[n] = block;
            n += 1;
        }
        t
    }

    /// Syndrome contribution of one nibble of a code byte: the
    /// XOR-fold of the set positions `shift..shift+4` (position 0
    /// never contributes).
    const fn syn_table(shift: u8) -> [u8; 16] {
        let mut t = [0u8; 16];
        let mut n = 0usize;
        while n < 16 {
            let mut s = 0u8;
            let mut b = 0u8;
            while b < 4 {
                if n & (1 << b) != 0 && b + shift != 0 {
                    s ^= b + shift;
                }
                b += 1;
            }
            t[n] = s;
            n += 1;
        }
        t
    }

    /// Nibble popcount parity as a byte mask (`0xFF` = odd).
    const fn par_table() -> [u8; 16] {
        let mut t = [0u8; 16];
        let mut n = 0usize;
        while n < 16 {
            t[n] = if (n as u32).count_ones() % 2 == 1 {
                0xFF
            } else {
                0
            };
            n += 1;
        }
        t
    }

    /// Correction mask per syndrome: flip bit `s` (flipping a
    /// parity position is harmless to extraction, matching the
    /// portable path; `s = 0` under odd parity is the parity bit
    /// itself — nothing to correct).
    const fn flip_table() -> [u8; 16] {
        let mut t = [0u8; 16];
        let mut s = 1usize;
        while s < 8 {
            t[s] = 1 << s;
            s += 1;
        }
        t
    }

    /// Data-bit extraction per nibble of a (corrected) code byte:
    /// low half carries position 3 → nibble bit 0, high half
    /// positions 5,6,7 → nibble bits 1..=3.
    const fn ext_table(shift: u8) -> [u8; 16] {
        let mut t = [0u8; 16];
        let mut n = 0usize;
        while n < 16 {
            let mut nib = 0u8;
            let mut b = 0u8;
            while b < 4 {
                if n & (1 << b) != 0 {
                    let pos = b + shift;
                    let mut d = 0u8;
                    while d < 4 {
                        if [3u8, 5, 6, 7][d as usize] == pos {
                            nib |= 1 << d;
                        }
                        d += 1;
                    }
                }
                b += 1;
            }
            t[n] = nib;
            n += 1;
        }
        t
    }

    pub(super) const ENC: [u8; 16] = enc_table();
    pub(super) const SYN_LO: [u8; 16] = syn_table(0);
    pub(super) const SYN_HI: [u8; 16] = syn_table(4);
    pub(super) const PAR: [u8; 16] = par_table();
    pub(super) const FLIP: [u8; 16] = flip_table();
    pub(super) const EXT_LO: [u8; 16] = ext_table(0);
    pub(super) const EXT_HI: [u8; 16] = ext_table(4);

    /// Broadcasts a 16-entry table into both `pshufb` lanes.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    unsafe fn table(t: &[u8; 16]) -> __m256i {
        // SAFETY: the caller guarantees AVX2, and the load reads the
        // 16 bytes `t` refers to, unaligned.
        unsafe {
            let half = _mm_loadu_si128(t.as_ptr().cast());
            _mm256_broadcastsi128_si256(half)
        }
    }

    /// # Safety
    /// The caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn encode64(nibbles: &[u8; super::LANES]) -> [u8; super::LANES] {
        // SAFETY: the caller guarantees AVX2; every load and store
        // moves one whole 32-byte chunk of the two 64-byte arrays,
        // unaligned.
        unsafe {
            let enc = table(&ENC);
            let low = _mm256_set1_epi8(0x0F);
            let mut blocks = [0u8; super::LANES];
            for (chunk, out) in nibbles.chunks_exact(32).zip(blocks.chunks_exact_mut(32)) {
                let v = _mm256_loadu_si256(chunk.as_ptr().cast());
                let code = _mm256_shuffle_epi8(enc, _mm256_and_si256(v, low));
                _mm256_storeu_si256(out.as_mut_ptr().cast(), code);
            }
            blocks
        }
    }

    /// # Safety
    /// The caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode64(blocks: &[u8; super::LANES]) -> ([u8; super::LANES], u64, u64) {
        // SAFETY: the caller guarantees AVX2; every load and store
        // moves one whole 32-byte chunk of the two 64-byte arrays,
        // unaligned.
        unsafe {
            let syn_lo = table(&SYN_LO);
            let syn_hi = table(&SYN_HI);
            let par = table(&PAR);
            let flip = table(&FLIP);
            let ext_lo = table(&EXT_LO);
            let ext_hi = table(&EXT_HI);
            let low = _mm256_set1_epi8(0x0F);
            let zero = _mm256_setzero_si256();
            let mut nibbles = [0u8; super::LANES];
            let (mut repaired, mut detected) = (0u64, 0u64);
            for (half, (chunk, out)) in blocks
                .chunks_exact(32)
                .zip(nibbles.chunks_exact_mut(32))
                .enumerate()
            {
                let v = _mm256_loadu_si256(chunk.as_ptr().cast());
                let lo = _mm256_and_si256(v, low);
                let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low);
                // Per-byte syndrome and overall parity, by table.
                let synd = _mm256_xor_si256(
                    _mm256_shuffle_epi8(syn_lo, lo),
                    _mm256_shuffle_epi8(syn_hi, hi),
                );
                let odd =
                    _mm256_xor_si256(_mm256_shuffle_epi8(par, lo), _mm256_shuffle_epi8(par, hi));
                // (syndrome ≠ 0, parity ok) → detected; odd parity
                // → repaired, flipping bit `syndrome` (a parity
                // position is harmless, matching the SWAR path).
                let synd_zero = _mm256_cmpeq_epi8(synd, zero);
                let det = _mm256_andnot_si256(_mm256_or_si256(synd_zero, odd), {
                    _mm256_cmpeq_epi8(zero, zero)
                });
                let corrected =
                    _mm256_xor_si256(v, _mm256_and_si256(_mm256_shuffle_epi8(flip, synd), odd));
                let nib = _mm256_or_si256(
                    _mm256_shuffle_epi8(ext_lo, _mm256_and_si256(corrected, low)),
                    _mm256_shuffle_epi8(
                        ext_hi,
                        _mm256_and_si256(_mm256_srli_epi16::<4>(corrected), low),
                    ),
                );
                _mm256_storeu_si256(out.as_mut_ptr().cast(), nib);
                repaired |= (_mm256_movemask_epi8(odd) as u32 as u64) << (32 * half);
                detected |= (_mm256_movemask_epi8(det) as u32 as u64) << (32 * half);
            }
            (nibbles, repaired, detected)
        }
    }

    /// # Safety
    /// The caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn transpose64(blocks: &[u8; super::LANES]) -> [u64; 8] {
        // SAFETY: the caller guarantees AVX2, and the two unaligned
        // loads read bytes 0..32 and 32..64 of the 64-byte `blocks`.
        unsafe {
            let mut lo = _mm256_loadu_si256(blocks.as_ptr().cast());
            let mut hi = _mm256_loadu_si256(blocks.as_ptr().add(32).cast());
            let mut planes = [0u64; 8];
            for b in (0..8).rev() {
                let plo = _mm256_movemask_epi8(lo) as u32 as u64;
                let phi = _mm256_movemask_epi8(hi) as u32 as u64;
                planes[b] = plo | (phi << 32);
                lo = _mm256_add_epi8(lo, lo);
                hi = _mm256_add_epi8(hi, hi);
            }
            planes
        }
    }

    /// # Safety
    /// The caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn untranspose64(planes: &[u64; 8]) -> [u8; super::LANES] {
        // SAFETY: the caller guarantees AVX2, and the two unaligned
        // stores write bytes 0..32 and 32..64 of the local 64-byte
        // `blocks`.
        unsafe {
            // Byte j of each 128-bit half selects byte j/8 of the
            // broadcast 32-lane plane slice; the bit mask then asks
            // "is lane j's bit set in that byte".
            #[rustfmt::skip]
            let spread = _mm256_setr_epi8(
                0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
                2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3,
            );
            #[rustfmt::skip]
            let bitmask = _mm256_setr_epi8(
                1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128,
                1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128,
            );
            let mut acc_lo = _mm256_setzero_si256();
            let mut acc_hi = _mm256_setzero_si256();
            for (b, &plane) in planes.iter().enumerate() {
                let bit = _mm256_set1_epi8((1u8 << b) as i8);
                let v = _mm256_set1_epi32(plane as u32 as i32);
                let sel = _mm256_shuffle_epi8(v, spread);
                let has = _mm256_cmpeq_epi8(_mm256_and_si256(sel, bitmask), bitmask);
                acc_lo = _mm256_or_si256(acc_lo, _mm256_and_si256(has, bit));
                let v = _mm256_set1_epi32((plane >> 32) as u32 as i32);
                let sel = _mm256_shuffle_epi8(v, spread);
                let has = _mm256_cmpeq_epi8(_mm256_and_si256(sel, bitmask), bitmask);
                acc_hi = _mm256_or_si256(acc_hi, _mm256_and_si256(has, bit));
            }
            let mut blocks = [0u8; super::LANES];
            _mm256_storeu_si256(blocks.as_mut_ptr().cast(), acc_lo);
            _mm256_storeu_si256(blocks.as_mut_ptr().add(32).cast(), acc_hi);
            blocks
        }
    }
}

/// Transposes 64 blocks (bytes) into their 8 bit planes: a bit
/// transpose within each 8-byte group, then a byte transpose across
/// the groups (or one `movemask` sweep where AVX2 is available).
#[inline]
pub fn transpose64(blocks: &[u8; LANES]) -> [u64; 8] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified.
        return unsafe { avx2::transpose64(blocks) };
    }
    transpose64_swar(blocks)
}

/// The portable exchange-network transpose (and the differential
/// oracle for the AVX2 path). Loads, bit exchanges, and the byte
/// transpose run as separate uniform passes over all eight words:
/// each pass is lane-wise independent, which is what lets the
/// autovectorizer turn the exchange network into packed shifts.
#[inline]
fn transpose64_swar(blocks: &[u8; LANES]) -> [u64; 8] {
    let mut m = [0u64; 8];
    for (word, group) in m.iter_mut().zip(blocks.as_chunks::<8>().0) {
        *word = u64::from_le_bytes(*group);
    }
    for word in m.iter_mut() {
        *word = transpose8x8(*word);
    }
    transpose_bytes8(&mut m);
    m
}

/// Inverse of [`transpose64`]: 8 bit planes back into 64 blocks.
#[inline]
pub fn untranspose64(planes: &[u64; 8]) -> [u8; LANES] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified.
        return unsafe { avx2::untranspose64(planes) };
    }
    untranspose64_swar(planes)
}

/// The portable inverse (both exchange networks are involutions,
/// applied in the reverse order); differential oracle for the AVX2
/// path.
#[inline]
fn untranspose64_swar(planes: &[u64; 8]) -> [u8; LANES] {
    let mut m = *planes;
    transpose_bytes8(&mut m);
    for word in m.iter_mut() {
        *word = transpose8x8(*word);
    }
    let mut blocks = [0u8; LANES];
    for (chunk, &word) in blocks.chunks_exact_mut(8).zip(m.iter()) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    blocks
}

/// Encodes 64 nibbles (one per byte, low 4 bits) into 64 SECDED
/// code bytes in one batch pass — byte-identical to 64 calls of
/// the scalar encoder.
#[inline]
pub fn encode64(nibbles: &[u8; LANES]) -> [u8; LANES] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified.
        return unsafe { avx2::encode64(nibbles) };
    }
    encode64_swar(nibbles)
}

/// The portable bitsliced encoder (and the differential oracle for
/// the AVX2 lookup path).
#[inline]
fn encode64_swar(nibbles: &[u8; LANES]) -> [u8; LANES] {
    // Nibble bit planes — n[b] bit i = bit b of nibble i — are one
    // transpose away (nibble bytes only populate planes 0..=3; the
    // upper four come back empty and are dropped).
    let t = transpose64_swar(nibbles);
    let n = [t[0], t[1], t[2], t[3]];
    // Data positions 3,5,6,7 carry nibble bits 0..=3; the Hamming
    // parity at position k covers the data positions whose index
    // has bit k set (p1 ← {3,5,7}, p2 ← {3,6,7}, p4 ← {5,6,7}),
    // and p0 makes the whole byte even-parity.
    let p1 = n[0] ^ n[1] ^ n[3];
    let p2 = n[0] ^ n[2] ^ n[3];
    let p4 = n[1] ^ n[2] ^ n[3];
    let p0 = p1 ^ p2 ^ n[0] ^ p4 ^ n[1] ^ n[2] ^ n[3];
    untranspose64_swar(&[p0, p1, p2, n[0], p4, n[1], n[2], n[3]])
}

/// Decodes 64 SECDED code bytes in one bitsliced pass, correcting
/// single-bit errors in place across all lanes.
///
/// Returns `(nibbles, repaired, detected)`: the recovered nibbles
/// (one per byte; lanes flagged in `detected` hold garbage), a mask
/// of lanes that arrived off-codeword and were repaired, and a mask
/// of lanes with an uncorrectable (double-bit) error pattern —
/// exactly the scalar decoder's verdicts, one bit per block.
#[inline]
pub fn decode64(blocks: &[u8; LANES]) -> ([u8; LANES], u64, u64) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified.
        return unsafe { avx2::decode64(blocks) };
    }
    decode64_swar(blocks)
}

/// The portable bitsliced decoder (and the differential oracle for
/// the AVX2 lookup path).
#[inline]
fn decode64_swar(blocks: &[u8; LANES]) -> ([u8; LANES], u64, u64) {
    let mut p = transpose64_swar(blocks);
    // Syndrome bit planes: s_k = parity over positions with bit k
    // set, i.e. the XOR-fold of set positions, bitsliced.
    let s1 = p[1] ^ p[3] ^ p[5] ^ p[7];
    let s2 = p[2] ^ p[3] ^ p[6] ^ p[7];
    let s4 = p[4] ^ p[5] ^ p[6] ^ p[7];
    // Odd overall parity per lane (parity check fails).
    let odd = p.iter().fold(0u64, |acc, plane| acc ^ plane);
    let nonzero = s1 | s2 | s4;
    // (syndrome ≠ 0, parity ok) → double error, detected;
    // (anything, parity odd)    → single error, repaired.
    let detected = nonzero & !odd;
    let repaired = odd;
    // Correct the data positions: a lane flips position `pos` when
    // its syndrome spells `pos` and its parity is odd. Parity-only
    // and parity-position hits never touch the data bits.
    for &pos in &DATA_POSITIONS {
        let m0 = if pos & 1 != 0 { s1 } else { !s1 };
        let m1 = if pos & 2 != 0 { s2 } else { !s2 };
        let m2 = if pos & 4 != 0 { s4 } else { !s4 };
        p[pos as usize] ^= m0 & m1 & m2 & odd;
    }
    // Nibble extraction is the inverse transpose of the corrected
    // data planes laid out in nibble-bit order (positions 3,5,6,7
    // become bits 0..=3 of each lane's byte).
    let nibbles = untranspose64_swar(&[p[3], p[5], p[6], p[7], 0, 0, 0, 0]);
    (nibbles, repaired, detected)
}

/// The scalar encode oracle: 64 nibbles through the
/// nibble-at-a-time encoder (differential reference for [`encode64`]).
#[cfg(test)]
pub(crate) fn encode_scalar(nibbles: &[u8; LANES]) -> [u8; LANES] {
    use crate::hamming::encode_nibble;
    let mut blocks = [0u8; LANES];
    for (block, &nib) in blocks.iter_mut().zip(nibbles) {
        *block = encode_nibble(nib & 0x0F);
    }
    blocks
}

/// The scalar decode oracle: 64 blocks through the block-at-a-time
/// decoder, reporting the same `(nibbles, repaired, detected)`
/// masks as [`decode64`].
#[cfg(test)]
pub(crate) fn decode_scalar(blocks: &[u8; LANES]) -> ([u8; LANES], u64, u64) {
    use crate::code::CodeError;
    use crate::hamming::decode_block;
    let (mut nibbles, mut repaired, mut detected) = ([0u8; LANES], 0u64, 0u64);
    for (i, &block) in blocks.iter().enumerate() {
        match decode_block(block) {
            Ok((nib, rep)) => {
                nibbles[i] = nib;
                repaired |= u64::from(rep) << i;
            }
            Err(CodeError::Malformed) => unreachable!("block decode never reports Malformed"),
            Err(CodeError::Detected) => detected |= 1 << i,
        }
    }
    (nibbles, repaired, detected)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A splitmix-style byte stream: deterministic, full-range.
    fn noise_blocks(rounds: usize) -> impl Iterator<Item = [u8; LANES]> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..rounds).map(move |_| {
            let mut blocks = [0u8; LANES];
            for byte in blocks.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *byte = (state >> 56) as u8;
            }
            blocks
        })
    }

    #[test]
    fn dispatched_and_portable_transposes_agree() {
        // The dispatcher picks the AVX2 path when the CPU has it;
        // whatever ran must match the portable exchange network
        // bit-for-bit, in both directions, on arbitrary bytes.
        for blocks in noise_blocks(512) {
            let planes = transpose64(&blocks);
            assert_eq!(planes, transpose64_swar(&blocks));
            assert_eq!(untranspose64(&planes), untranspose64_swar(&planes));
            assert_eq!(untranspose64(&planes), blocks, "round trip is identity");
        }
    }

    #[test]
    fn dispatched_and_portable_kernels_agree() {
        // Same claim one level up: the dispatched encode/decode —
        // the AVX2 lookup pipeline where available — must be
        // byte-identical to the portable bitsliced kernels on
        // arbitrary inputs, garbage lanes included (both extract
        // the uncorrected nibble on detected lanes).
        for blocks in noise_blocks(512) {
            let mut nibbles = [0u8; LANES];
            for (nib, &b) in nibbles.iter_mut().zip(blocks.iter()) {
                *nib = b & 0x0F;
            }
            assert_eq!(encode64(&nibbles), encode64_swar(&nibbles));
            assert_eq!(decode64(&blocks), decode64_swar(&blocks));
        }
    }

    #[test]
    fn tiled_transpose_matches_per_bit_definition() {
        // transpose_bits against its own spec — dst bit c*rows+r =
        // src bit r*cols+c — over shapes that exercise full tiles,
        // ragged columns, ragged rows, and both at once; a byte-aligned
        // side on either end (the word-load paths), under and over one
        // 56-bit word span; and neither side aligned.
        let get = |data: &[u8], idx: usize| (data[idx / 8] >> (idx % 8)) & 1;
        let mut state = 0xD1CEu64;
        for (rows, cols) in [
            (8, 8),
            (16, 32),
            (16, 35),
            (24, 8),
            (40, 13),
            (7, 9),
            (3, 64),
            (16, 1),
            (1, 16),
            (16, 29),
            (29, 16),
            (16, 130),
            (130, 16),
            (8, 113),
            (113, 8),
            (64, 57),
            (57, 64),
            (2, 116),
            (116, 2),
            (61, 59),
        ] {
            let nbytes = usize::div_ceil(rows * cols, 8);
            let mut src = vec![0u8; nbytes];
            for b in src.iter_mut() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (state >> 56) as u8;
            }
            // Zero any slack bits past rows*cols so the transpose's
            // edge guards are exercised against a clean tail.
            if (rows * cols) % 8 != 0 {
                let slack = (rows * cols) % 8;
                src[nbytes - 1] &= (1u8 << slack) - 1;
            }
            let mut dst = vec![0xFFu8; nbytes];
            transpose_bits(&src, &mut dst, rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(
                        get(&dst, c * rows + r),
                        get(&src, r * cols + c),
                        "({rows}x{cols}) bit ({r},{c})"
                    );
                }
            }
            // Transposing back with swapped dimensions is the
            // identity.
            let mut back = vec![0u8; nbytes];
            transpose_bits(&dst, &mut back, cols, rows);
            assert_eq!(back, src, "({rows}x{cols}) double transpose");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn table_mirrors_the_scalar_path() {
        // The const tables re-derive the scalar bit math; pin them
        // to the real functions so the two can never drift.
        use crate::hamming::{encode_nibble, extract_nibble};
        for n in 0..16u8 {
            assert_eq!(avx2::ENC[n as usize], encode_nibble(n), "ENC[{n}]");
            assert_eq!(
                avx2::PAR[n as usize],
                if n.count_ones() % 2 == 1 { 0xFF } else { 0 },
                "PAR[{n}]"
            );
        }
        for byte in 0..=255u8 {
            let synd = (1..8u8)
                .filter(|&pos| byte & (1 << pos) != 0)
                .fold(0u8, |s, pos| s ^ pos);
            assert_eq!(
                avx2::SYN_LO[(byte & 0x0F) as usize] ^ avx2::SYN_HI[(byte >> 4) as usize],
                synd,
                "syndrome of {byte:#04x}"
            );
            assert_eq!(
                avx2::EXT_LO[(byte & 0x0F) as usize] | avx2::EXT_HI[(byte >> 4) as usize],
                extract_nibble(byte),
                "extraction of {byte:#04x}"
            );
        }
        for s in 0..8usize {
            assert_eq!(avx2::FLIP[s], if s == 0 { 0 } else { 1 << s }, "FLIP[{s}]");
        }
    }
}
