//! The uncoded baseline and CRC-32-based checksums.
//!
//! CRC-32 (IEEE 802.3) moved here from `heardof-net` when coding became
//! a first-class subsystem; the net crate re-exports [`crc32`] so the
//! original API is unchanged. A [`Checksum`] is pure *detection*: it
//! converts corruptions into omissions, never repairs them. Narrower
//! widths trade detection coverage for overhead — an 8-bit trailer
//! misses about 1 in 256 random corruptions, which is exactly the kind
//! of residual value-fault rate the `α` budget must then absorb.

use crate::code::{ChannelCode, CodeError, DecodeScan};
use crate::SymbolBudget;
use bytes::{BufMut, BytesMut};

/// The slice-by-8 CRC-32 tables (reflected, polynomial `0xEDB88320`).
///
/// `TABLES[0]` is the classic bytewise table; `TABLES[k]` advances a
/// byte's contribution `k` further positions through the register, so
/// eight bytes can be folded per step with no loop-carried table
/// dependency between them. The polynomial, and therefore every
/// computed checksum, is unchanged from the bytewise implementation —
/// [`crc32_bytewise`] remains in-tree as the differential oracle.
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

/// Computes the CRC-32 (IEEE) of `data`.
///
/// Folds eight bytes per step through the slice-by-8 tables — the
/// whole-frame checksum is on the hot path of every send and every
/// ingest (the `Checksum` rungs, the mux image trailer, and copy-byte
/// patching all recompute it), so its byte rate bounds the frame
/// pipeline's throughput.
///
/// # Examples
///
/// ```
/// // The canonical check value.
/// assert_eq!(heardof_coding::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4-byte half")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4-byte half"));
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        let idx = ((crc ^ byte as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLES[0][idx];
    }
    !crc
}

/// The one-byte-per-step reference CRC-32: the differential oracle the
/// sliced [`crc32`] is pinned against. Never inlined so benchmarks
/// measure the loop it names.
#[inline(never)]
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        let idx = ((crc ^ byte as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLES[0][idx];
    }
    !crc
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

    #[test]
    fn sliced_crc_matches_bytewise_oracle_at_every_tail_length() {
        // 0..64 covers every chunks_exact remainder (0..=7) several
        // times over, plus the empty and sub-word inputs.
        let data: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(151) >> 3) as u8)
            .collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "sliced crc32 diverged from the bytewise oracle at len {len}"
            );
        }
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
