//! Concatenated codes: inner correction wrapped around outer detection.
//!
//! Pure correctors have a blind spot the ROADMAP calls out explicitly:
//! [`crate::Repetition`] *corrects* up to `⌊(k−1)/2⌋` corrupt copies but
//! can never *detect* heavier corruption — a wrong majority is silently
//! accepted, and the same holds for a miscorrecting SECDED block hit by
//! three flips. Concatenation closes the gap with the standard
//! construction: an **outer** detecting code (a CRC trailer) is applied
//! to the payload first, then an **inner** correcting code wraps the
//! result for the wire. The inner code repairs what it can; whatever
//! slips through miscorrected still has to forge the outer checksum,
//! which shrinks the undetected-value-fault rate by the checksum's miss
//! factor (`~2^-8w`).
//!
//! In the paper's ledger: the inner code moves fault mass from
//! *omission* back to *delivery*, and the outer code moves the residual
//! *value-fault* mass into *omission*. The composition dominates either
//! layer alone on every α-relevant column.

use crate::code::{ChannelCode, DecodeScan};
use crate::SymbolBudget;
use bytes::BytesMut;

/// `inner ∘ outer`: `outer` (detection) is applied to the payload,
/// `inner` (correction) to the wire.
///
/// # Examples
///
/// ```
/// use heardof_coding::{ChannelCode, Checksum, Concatenated, FrameOutcome, Repetition};
///
/// // Repetition alone miscorrects a majority-corrupt pattern silently;
/// // with a CRC inside, the forgery is caught and dropped instead.
/// let code = Concatenated::new(Repetition::new(3), Checksum::crc32());
/// let payload = vec![0u8; 4];
/// let mut wire = code.encode(&payload);
/// let copy_len = wire.len() / 3;
/// for b in &mut wire[..2 * copy_len] {
///     *b = 0xAA; // two of three copies agree on garbage
/// }
/// assert_eq!(code.classify(&payload, &wire), FrameOutcome::DetectedOmission);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Concatenated<I, O> {
    inner: I,
    outer: O,
}

impl<I: ChannelCode, O: ChannelCode> Concatenated<I, O> {
    /// Composes `inner` (channel-facing, typically correcting) around
    /// `outer` (payload-facing, typically detecting).
    pub fn new(inner: I, outer: O) -> Self {
        Concatenated { inner, outer }
    }

    /// The channel-facing layer.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// The payload-facing layer.
    pub fn outer(&self) -> &O {
        &self.outer
    }
}

impl<I: ChannelCode, O: ChannelCode> ChannelCode for Concatenated<I, O> {
    fn name(&self) -> String {
        format!("{}+{}", self.inner.name(), self.outer.name())
    }

    fn encoded_len(&self, payload_len: usize) -> usize {
        self.inner.encoded_len(self.outer.encoded_len(payload_len))
    }

    fn encode_into(&self, payload: &[u8], _budget: Option<SymbolBudget>, out: &mut BytesMut) {
        // A combinator is a fixed-rate code: no budget reaches its
        // layers.
        let mut checked = BytesMut::with_capacity(self.outer.encoded_len(payload.len()));
        self.outer.encode_into(payload, None, &mut checked);
        self.inner.encode_into(&checked, None, out);
    }

    fn decode_scan<'a>(&self, wire: &'a [u8]) -> DecodeScan<'a> {
        // The inner layer's repair evidence survives an outer rejection:
        // a frame the channel code visibly fought for and the checksum
        // then killed reports the fight, consistent with every other
        // rejected-but-repairing frame.
        let inner = self.inner.decode_scan(wire);
        let (body, inner_repaired) = match inner.outcome {
            Ok(delivered) => delivered,
            Err(e) => return DecodeScan::rejected(e, inner.repairs),
        };
        let outer = self.outer.decode_scan(&body).into_owned();
        DecodeScan {
            outcome: outer
                .outcome
                .map(|(payload, outer_repaired)| (payload, inner_repaired || outer_repaired)),
            repairs: inner.repairs + outer.repairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::FrameOutcome;
    use crate::measure::measure_code_exact_flips;
    use crate::{Checksum, Hamming74, Repetition};

    #[test]
    fn roundtrip_and_shapes() {
        let code = Concatenated::new(Hamming74, Checksum::crc32());
        for payload in [b"".to_vec(), b"x".to_vec(), b"concatenate".to_vec()] {
            let wire = code.encode(&payload);
            assert_eq!(wire.len(), (payload.len() + 4) * 2);
            assert_eq!(code.encoded_len(payload.len()), wire.len());
            assert_eq!(code.decode(&wire).unwrap(), payload);
        }
        assert_eq!(code.name(), "hamming74+checksum32");
    }

    #[test]
    fn single_flips_are_still_corrected() {
        // The inner SECDED layer keeps its correction power; the CRC
        // inside never sees the repaired error.
        let code = Concatenated::new(Hamming74, Checksum::crc32());
        let payload = b"heard-of".to_vec();
        let clean = code.encode(&payload);
        for bit in 0..clean.len() * 8 {
            let mut wire = clean.clone();
            wire[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                code.classify(&payload, &wire),
                FrameOutcome::Delivered,
                "single flip at bit {bit} must be repaired"
            );
        }
    }

    #[test]
    fn repetition_miscorrection_becomes_omission() {
        // The exact asymmetry ROADMAP notes: two aligned corrupt copies
        // of three defeat the majority vote. Bare repetition accepts the
        // forgery; with a CRC inside, it is detected and dropped.
        let bare = Repetition::new(3);
        let fixed = Concatenated::new(Repetition::new(3), Checksum::crc32());
        let payload = vec![0u8; 4];

        let mut bare_wire = bare.encode(&payload);
        for b in &mut bare_wire[..8] {
            *b = 0xAA;
        }
        assert_eq!(
            bare.classify(&payload, &bare_wire),
            FrameOutcome::UndetectedValueFault,
            "control: bare repetition miscorrects silently"
        );

        // (0xAA, not 0xFF: the CRC-32 of [0xFF; 4] happens to be
        // 0xFFFFFFFF, so an all-ones forgery would be self-consistent.)
        let mut fixed_wire = fixed.encode(&payload);
        let copy_len = fixed_wire.len() / 3;
        for b in &mut fixed_wire[..2 * copy_len] {
            *b = 0xAA;
        }
        assert_eq!(
            fixed.classify(&payload, &fixed_wire),
            FrameOutcome::DetectedOmission,
            "the outer CRC catches what the vote miscorrects"
        );
    }

    #[test]
    fn operating_point_dominates_bare_repetition() {
        // measure_code harness pin: at heavy corruption (12 flips on a
        // 16-byte payload), bare Repetition{3} leaks a measurable
        // value-fault rate while the concatenated code's misses must
        // also defeat CRC-32 — invisible at this trial count.
        let bare = Repetition::new(3);
        let fixed = Concatenated::new(Repetition::new(3), Checksum::crc32());
        let bare_rates = measure_code_exact_flips(&bare, 16, 12, 4_000, 21);
        let fixed_rates = measure_code_exact_flips(&fixed, 16, 12, 4_000, 21);
        assert!(
            bare_rates.undetected > 0,
            "control: bare repetition must leak at this weight, got {bare_rates:?}"
        );
        assert_eq!(
            fixed_rates.undetected, 0,
            "2^-32 misses are invisible at 4k trials: {fixed_rates:?}"
        );
    }

    #[test]
    fn hamming_in_crc_operating_point_pin() {
        // At 3 flips per 32-byte frame, plain SECDED occasionally
        // miscorrects (three flips in one block); the CRC inside must
        // reduce that residual to zero at this scale while keeping a
        // majority of frames correctable.
        let bare = Hamming74;
        let fixed = Concatenated::new(Hamming74, Checksum::crc32());
        let bare_rates = measure_code_exact_flips(&bare, 32, 3, 30_000, 22);
        let fixed_rates = measure_code_exact_flips(&fixed, 32, 3, 30_000, 22);
        assert!(
            bare_rates.undetected > 0,
            "control: plain SECDED miscorrects some weight-3 patterns: {bare_rates:?}"
        );
        assert_eq!(
            fixed_rates.undetected, 0,
            "residual misses must also forge CRC-32: {fixed_rates:?}"
        );
        assert!(
            fixed_rates.corrected * 2 > fixed_rates.trials,
            "correction power is preserved: {fixed_rates:?}"
        );
    }
}
