//! Extended Hamming(8,4) SECDED block coding.
//!
//! Each payload nibble becomes one code byte: seven Hamming(7,4) bits
//! plus an overall parity bit. Per block the decoder **corrects any
//! single-bit error** (the corruption vanishes — a would-be value fault
//! becomes a clean delivery) and **detects any double-bit error** (the
//! frame is dropped — an omission). Three or more flips in one block can
//! miscorrect, which is the residual value-fault channel the `α` budget
//! still has to cover; [`crate::measure_code`] quantifies it.
//!
//! Bit layout inside a code byte (position = bit index):
//!
//! ```text
//! pos:  7   6   5   4   3   2   1   0
//!      d4  d3  d2  p4  d1  p2  p1  p0
//! ```
//!
//! `p1/p2/p4` are the Hamming parities over positions whose index has
//! the corresponding bit set; `p0` makes the whole byte even-parity.
//!
//! # The bitsliced hot path
//!
//! Every bit position participates in the same parity equations in
//! every block, so 64 blocks transpose into 8 `u64` *bit planes*
//! (plane `b`, bit `i` = bit `b` of block `i`) and the whole
//! encode/decode — parities, syndromes, corrections — runs as a handful
//! of word-wide XORs across all 64 blocks at once (see [`bitslice`]).
//! [`Hamming74`] drives **every** block through those kernels, 64 to a
//! batch: the last batch of a payload is padded with zero lanes and
//! truncated to the lanes that carry payload, so a 29-byte frame body
//! (58 blocks — under one batch) is coded by the same word-wide pass as
//! a kilobyte image. Zero is a safe pad on both sides: nibble 0 encodes
//! to block `0x00`, and block `0x00` has syndrome 0 and even parity, so
//! a padding lane can raise neither the repaired nor the detected mask
//! and the repair count a rejected frame reports is its own. The
//! block-at-a-time functions below have no production caller; they are
//! what the differential tests and the throughput benchmark compare the
//! kernels against ([`bitslice::encode_scalar`],
//! [`bitslice::decode_scalar`]).

use crate::bitslice;
use crate::code::{ChannelCode, CodeError, DecodeScan};
use crate::SymbolBudget;
use bytes::{BufMut, BytesMut};

/// Extended Hamming(8,4): SECDED per payload nibble, rate 1/2.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hamming74;

/// Data bit positions within a code byte, in nibble-bit order
/// (nibble bit 0 → position 3, 1 → 5, 2 → 6, 3 → 7).
pub(crate) const DATA_POSITIONS: [u8; 4] = [3, 5, 6, 7];

pub(crate) fn encode_nibble(nibble: u8) -> u8 {
    debug_assert!(nibble < 16);
    let mut block = 0u8;
    for (i, &pos) in DATA_POSITIONS.iter().enumerate() {
        if nibble & (1 << i) != 0 {
            block |= 1 << pos;
        }
    }
    // Hamming parities: p_k (at position k ∈ {1,2,4}) covers every
    // position whose index has bit k set.
    for p in [1u8, 2, 4] {
        let parity = (3..8u8)
            .filter(|&pos| pos & p != 0 && block & (1 << pos) != 0)
            .count();
        if parity % 2 == 1 {
            block |= 1 << p;
        }
    }
    // Overall parity (position 0): make the byte even-parity.
    if block.count_ones() % 2 == 1 {
        block |= 1;
    }
    block
}

pub(crate) fn extract_nibble(block: u8) -> u8 {
    DATA_POSITIONS
        .iter()
        .enumerate()
        .filter(|&(_, &pos)| block & (1 << pos) != 0)
        .map(|(i, _)| 1u8 << i)
        .sum()
}

/// Decodes one SECDED block: `Ok((nibble, repaired))` possibly after
/// correcting a single flipped bit, `Err` on a detected double error.
/// `repaired` is `true` whenever the block arrived off-codeword — the
/// noise evidence an adaptive controller feeds on.
pub(crate) fn decode_block(mut block: u8) -> Result<(u8, bool), CodeError> {
    let syndrome = (1..8u8)
        .filter(|&pos| block & (1 << pos) != 0)
        .fold(0u8, |s, pos| s ^ pos);
    let parity_ok = block.count_ones().is_multiple_of(2);
    let repaired = match (syndrome, parity_ok) {
        (0, true) => false, // clean
        (0, false) => true, // only the overall parity bit flipped
        (s, false) => {
            block ^= 1 << s; // single-bit error: correct it
            true
        }
        (_, true) => return Err(CodeError::Detected), // double error
    };
    Ok((extract_nibble(block), repaired))
}

impl ChannelCode for Hamming74 {
    fn name(&self) -> String {
        "hamming74".to_string()
    }

    fn encoded_len(&self, payload_len: usize) -> usize {
        payload_len * 2
    }

    fn encode_into(&self, payload: &[u8], _budget: Option<SymbolBudget>, out: &mut BytesMut) {
        out.reserve(self.encoded_len(payload.len()));
        // 32 payload bytes fill one 64-lane batch; a shorter last chunk
        // leaves its upper lanes at nibble 0 and keeps the blocks that
        // carry payload.
        for chunk in payload.chunks(bitslice::LANES / 2) {
            let mut nibbles = [0u8; bitslice::LANES];
            for (pair, &byte) in nibbles.chunks_exact_mut(2).zip(chunk) {
                pair[0] = byte & 0x0F;
                pair[1] = byte >> 4;
            }
            out.put_slice(&bitslice::encode64(&nibbles)[..2 * chunk.len()]);
        }
    }

    /// Every block is decoded, 64 to a batch with the last batch
    /// zero-padded, and every repaired block is counted, even when a
    /// later (or earlier) block carries an uncorrectable double error.
    /// An early return would discard exactly that evidence, leaving a
    /// dropped SECDED frame looking quieter to the adaptive controller
    /// than a fountain frame with the same damage.
    fn decode_scan<'a>(&self, wire: &'a [u8]) -> DecodeScan<'a> {
        if !wire.len().is_multiple_of(2) {
            return DecodeScan::rejected(CodeError::Malformed, 0);
        }
        let mut payload = Vec::with_capacity(wire.len() / 2);
        let mut repairs = 0usize;
        let mut detected = false;
        for chunk in wire.chunks(bitslice::LANES) {
            let mut blocks = [0u8; bitslice::LANES];
            blocks[..chunk.len()].copy_from_slice(chunk);
            let (nibbles, repaired_mask, detected_mask) = bitslice::decode64(&blocks);
            repairs += repaired_mask.count_ones() as usize;
            detected |= detected_mask != 0;
            let mut bytes = [0u8; bitslice::LANES / 2];
            for (byte, pair) in bytes.iter_mut().zip(nibbles.chunks_exact(2)) {
                *byte = pair[0] | (pair[1] << 4);
            }
            payload.extend_from_slice(&bytes[..chunk.len() / 2]);
        }
        if detected {
            return DecodeScan::rejected(CodeError::Detected, repairs);
        }
        DecodeScan::delivered(payload, repairs > 0, repairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::FrameOutcome;

    #[test]
    fn all_nibbles_roundtrip() {
        for nibble in 0..16u8 {
            let block = encode_nibble(nibble);
            assert_eq!(block.count_ones() % 2, 0, "even parity by construction");
            assert_eq!(decode_block(block).unwrap(), (nibble, false));
        }
    }

    #[test]
    fn every_single_bit_error_is_corrected() {
        for nibble in 0..16u8 {
            let block = encode_nibble(nibble);
            for bit in 0..8 {
                let corrupted = block ^ (1 << bit);
                assert_eq!(
                    decode_block(corrupted).unwrap(),
                    (nibble, true),
                    "nibble {nibble:#x}, flip at bit {bit} corrects and reports"
                );
            }
        }
    }

    #[test]
    fn every_double_bit_error_is_detected() {
        for nibble in 0..16u8 {
            let block = encode_nibble(nibble);
            for b1 in 0..8 {
                for b2 in (b1 + 1)..8 {
                    let corrupted = block ^ (1 << b1) ^ (1 << b2);
                    assert_eq!(
                        decode_block(corrupted),
                        Err(CodeError::Detected),
                        "nibble {nibble:#x}, flips at bits {b1},{b2}"
                    );
                }
            }
        }
    }

    #[test]
    fn byte_stream_roundtrip() {
        let code = Hamming74;
        let payload: Vec<u8> = (0..=255).collect();
        let wire = code.encode(&payload);
        assert_eq!(wire.len(), payload.len() * 2);
        assert_eq!(code.decode(&wire).unwrap(), payload);
    }

    #[test]
    fn classify_matches_secded_semantics() {
        let code = Hamming74;
        let payload = b"ho".to_vec();
        let clean = code.encode(&payload);

        let mut one_flip = clean.clone();
        one_flip[1] ^= 0x20;
        assert_eq!(code.classify(&payload, &one_flip), FrameOutcome::Delivered);

        let mut two_flips = clean.clone();
        two_flips[2] ^= 0x81;
        assert_eq!(
            code.classify(&payload, &two_flips),
            FrameOutcome::DetectedOmission
        );
    }

    #[test]
    fn odd_length_is_malformed() {
        assert_eq!(Hamming74.decode(&[0u8; 3]), Err(CodeError::Malformed));
    }

    /// A seeded xorshift stream — deterministic fuzz for differential
    /// tests without pulling in a RNG.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn transpose_roundtrips() {
        let mut next = xorshift(0xBEEF);
        for _ in 0..64 {
            let mut blocks = [0u8; bitslice::LANES];
            for b in blocks.iter_mut() {
                *b = next() as u8;
            }
            assert_eq!(
                bitslice::untranspose64(&bitslice::transpose64(&blocks)),
                blocks
            );
        }
    }

    #[test]
    fn bitsliced_encode_matches_scalar_slot_for_slot() {
        let mut next = xorshift(0xE4C0DE);
        for _ in 0..256 {
            let mut nibbles = [0u8; bitslice::LANES];
            for n in nibbles.iter_mut() {
                *n = (next() & 0x0F) as u8;
            }
            assert_eq!(
                bitslice::encode64(&nibbles),
                bitslice::encode_scalar(&nibbles)
            );
        }
    }

    #[test]
    fn bitsliced_decode_matches_scalar_slot_for_slot() {
        // Every lane gets an independent random corruption of 0..=3
        // bit flips, covering clean, repaired and detected verdicts in
        // the same batch; nibble values, repair masks and detection
        // masks must match the scalar oracle exactly — except that a
        // detected lane's nibble is unspecified (the scalar oracle
        // reports 0, the bitsliced path reports its best-effort
        // correction; callers drop the frame either way).
        let mut next = xorshift(0xD3C0DE);
        for _ in 0..512 {
            let mut blocks = [0u8; bitslice::LANES];
            for b in blocks.iter_mut() {
                let mut block = encode_nibble((next() & 0x0F) as u8);
                for _ in 0..(next() % 4) {
                    block ^= 1 << (next() % 8);
                }
                *b = block;
            }
            let (nibs, rep, det) = bitslice::decode64(&blocks);
            let (oracle_nibs, oracle_rep, oracle_det) = bitslice::decode_scalar(&blocks);
            assert_eq!(rep, oracle_rep, "repair masks diverge");
            assert_eq!(det, oracle_det, "detection masks diverge");
            for i in 0..bitslice::LANES {
                if det & (1 << i) == 0 {
                    assert_eq!(nibs[i], oracle_nibs[i], "lane {i} nibble diverges");
                }
            }
        }
    }

    #[test]
    fn long_payload_encode_matches_the_scalar_oracle() {
        // 77 bytes = two full 64-block batches + a 26-block padded one,
        // against the block-at-a-time oracle.
        let payload: Vec<u8> = (0..77u8).map(|i| i.wrapping_mul(53) ^ 0xA5).collect();
        let wire = Hamming74.encode(&payload);
        let scalar_wire: Vec<u8> = payload
            .iter()
            .flat_map(|&b| [encode_nibble(b & 0x0F), encode_nibble(b >> 4)])
            .collect();
        assert_eq!(wire, scalar_wire);
        assert_eq!(Hamming74.decode(&wire).unwrap(), payload);
    }

    #[test]
    fn detected_frame_still_reports_repair_evidence() {
        // One block double-errors (frame dropped), two other blocks are
        // singly hit (repaired during the scan). The old early-return
        // reported zero repairs for this frame; the scan reports both.
        let payload: Vec<u8> = (0..40u8).collect();
        let mut wire = Hamming74.encode(&payload);
        wire[5] ^= 0x20; // single flip → repaired
        wire[63] ^= 0x08; // single flip in the same 64-block chunk
        wire[70] ^= 0x18; // double flip in the padded batch → detected
        let scan = Hamming74.decode_scan(&wire);
        assert_eq!(scan.outcome, Err(CodeError::Detected));
        assert_eq!(scan.repairs, 2, "repairs before/after the dead block count");
        assert_eq!(Hamming74.decode(&wire), Err(CodeError::Detected));
    }

    #[test]
    fn scan_counts_block_level_repairs_on_delivery() {
        let payload: Vec<u8> = (0..8u8).collect();
        let mut wire = Hamming74.encode(&payload);
        wire[1] ^= 0x40;
        wire[9] ^= 0x02;
        let scan = Hamming74.decode_scan(&wire);
        let (got, repaired) = scan.outcome.expect("both hits are single-bit");
        assert_eq!(*got, *payload);
        assert!(repaired);
        assert_eq!(scan.repairs, 2);
    }
}
