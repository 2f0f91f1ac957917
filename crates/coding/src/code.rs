//! The [`ChannelCode`] trait, per-frame outcomes, and the serializable
//! [`CodeSpec`] used to pick a code in configurations.

use bytes::BytesMut;
use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// What happened to one frame after traversing a noisy channel and the
/// receiver's decoder — the three-way split at the heart of the paper's
/// fault taxonomy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FrameOutcome {
    /// The decoder returned the original payload (possibly after
    /// correcting errors). The reception is *safe*: `q ∈ SHO(p, r)`.
    Delivered,
    /// The decoder rejected the frame. A corruption became a benign
    /// omission: `q ∉ HO(p, r)`.
    DetectedOmission,
    /// The decoder accepted a payload different from the original — an
    /// undetected value fault, the event the budget `α` must absorb:
    /// `q ∈ AHO(p, r)`.
    UndetectedValueFault,
}

impl fmt::Display for FrameOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameOutcome::Delivered => write!(f, "delivered"),
            FrameOutcome::DetectedOmission => write!(f, "detected-omission"),
            FrameOutcome::UndetectedValueFault => write!(f, "undetected-value-fault"),
        }
    }
}

/// Why a decoder rejected a frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodeError {
    /// The wire data cannot belong to this code (wrong length shape).
    Malformed,
    /// The code's redundancy check failed (checksum mismatch, or an
    /// uncorrectable error pattern such as SECDED's double-bit case).
    Detected,
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::Malformed => write!(f, "wire data is malformed for this code"),
            CodeError::Detected => write!(f, "corruption detected by the code"),
        }
    }
}

impl Error for CodeError {}

/// What a code's decoder made of one wire image
/// ([`ChannelCode::decode_scan`]): the decoded body and whether it was
/// repaired on the way, plus the number of repair events the decoder
/// observed while scanning the whole image — evidence that survives
/// even when the frame is ultimately rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeScan<'a> {
    /// `(body, repaired)` on delivery. Codes that decode in place
    /// (NoCode, Checksum) hand the body back as a *view into the wire
    /// bytes*; correcting codes, whose decoders materialize a repaired
    /// payload anyway, return it owned. `repaired` is observable
    /// evidence of noise even though the payload arrived intact — the
    /// signal an adaptive controller needs to keep a correcting code in
    /// force while it is earning its keep.
    pub outcome: Result<(Cow<'a, [u8]>, bool), CodeError>,
    /// Repair events observed across the whole wire image, in the
    /// code's own units (SECDED blocks corrected, fountain erasures
    /// patched, voted-out length-header flips) — **including** events
    /// in frames the decoder then rejects. A dropped frame that was
    /// visibly fighting noise reports that fight here instead of
    /// looking like a silent loss.
    pub repairs: usize,
}

impl<'a> DecodeScan<'a> {
    /// A delivery of `body` — a slice of the wire or an owned repaired
    /// payload — that observed `repairs` repair events on the way.
    pub fn delivered(body: impl Into<Cow<'a, [u8]>>, repaired: bool, repairs: usize) -> Self {
        DecodeScan {
            outcome: Ok((body.into(), repaired)),
            repairs,
        }
    }

    /// A rejection that observed `repairs` repair events on the way.
    pub fn rejected(error: CodeError, repairs: usize) -> Self {
        DecodeScan {
            outcome: Err(error),
            repairs,
        }
    }

    /// Detaches the scan from the wire it was decoded from, copying the
    /// body only if it was still borrowed.
    pub fn into_owned(self) -> DecodeScan<'static> {
        DecodeScan {
            outcome: self
                .outcome
                .map(|(body, repaired)| (Cow::Owned(body.into_owned()), repaired)),
            repairs: self.repairs,
        }
    }
}

/// A block channel code over byte payloads.
///
/// A code is two functions — [`encode_into`](ChannelCode::encode_into)
/// and [`decode_scan`](ChannelCode::decode_scan) — and every layer
/// above reaches it through exactly those. Implementations must be
/// deterministic and total: decoding the encoding of `p` delivers `p`
/// unrepaired for every payload `p`, including the empty one, and
/// decoding arbitrary bytes never panics.
///
/// # The delivered / omission / value-fault contract
///
/// A code's decoder is the arbiter of what in-flight corruption
/// *becomes* at the receiver, and callers rely on exactly this
/// three-way split (see [`FrameOutcome`]):
///
/// * **Delivered** — the scan's outcome is `Ok((p, _))` where `p` is
///   the payload the sender encoded. The reception is safe
///   (`q ∈ SHO(p, r)`), whether the wire arrived clean or the decoder
///   repaired it; a repair is reported through the outcome's flag so
///   adaptive controllers can observe the noise it absorbed.
/// * **Detected omission** — the outcome is `Err`. The caller MUST
///   drop the frame, converting the corruption into a benign omission
///   (`q ∉ HO(p, r)`); both [`CodeError`] variants mean exactly this.
///   Erring on the side of rejection is always safe.
/// * **Undetected value fault** — the outcome is `Ok((p', _))` with
///   `p' ≠ p`. The decoder cannot know this happened (that is what
///   *undetected* means); it is the residual event the deployment's
///   `α` budget must absorb, and every code's design goal is to make
///   it rare. A code must never turn an uncorrupted wire image into a
///   value fault.
pub trait ChannelCode: Send + Sync {
    /// Short human-readable name, e.g. `"hamming74"` (used in reports).
    fn name(&self) -> String;

    /// Encoded length for a `payload_len`-byte payload (without a
    /// budget).
    fn encoded_len(&self, payload_len: usize) -> usize;

    /// Adds redundancy to `payload`, appending the wire image to `out`
    /// — a caller that reuses one `BytesMut` per link encodes every
    /// round without touching the allocator once the buffer is warm.
    ///
    /// `budget` is the per-frame [`SymbolBudget`](crate::SymbolBudget)
    /// of the incremental-symbol pathway: a rateless code
    /// ([`LtCode`](crate::LtCode)) appends the budgeted repair symbols
    /// (`None` spends its baseline), and decoding needs no budget
    /// because fountain frames are self-describing. Fixed-rate codes
    /// have no symbol notion and ignore it.
    fn encode_into(&self, payload: &[u8], budget: Option<crate::SymbolBudget>, out: &mut BytesMut);

    /// Strips redundancy from `wire`, correcting and/or detecting
    /// channel errors, and reports what the decoder saw on the way
    /// (see [`DecodeScan`]). Correcting codes keep scanning past an
    /// uncorrectable block so the repair count covers the whole image
    /// whether or not the frame is ultimately rejected.
    fn decode_scan<'a>(&self, wire: &'a [u8]) -> DecodeScan<'a>;

    /// The wire image of `payload` as a fresh `Vec` — a convenience
    /// over [`ChannelCode::encode_into`] that no code overrides.
    fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = BytesMut::with_capacity(self.encoded_len(payload.len()));
        self.encode_into(payload, None, &mut out);
        out.into()
    }

    /// The decoded payload alone — a convenience over
    /// [`ChannelCode::decode_scan`] that no code overrides.
    ///
    /// # Errors
    ///
    /// [`CodeError`] when the frame is rejected — the caller treats this
    /// as a *detected omission* and drops the frame.
    fn decode(&self, wire: &[u8]) -> Result<Vec<u8>, CodeError> {
        Ok(self.decode_scan(wire).outcome?.0.into_owned())
    }

    /// Classifies what a receiver experiences when `wire_after_noise`
    /// (a possibly-corrupted encoding of `payload`) arrives.
    fn classify(&self, payload: &[u8], wire_after_noise: &[u8]) -> FrameOutcome {
        match self.decode(wire_after_noise) {
            Err(_) => FrameOutcome::DetectedOmission,
            Ok(decoded) if decoded == payload => FrameOutcome::Delivered,
            Ok(_) => FrameOutcome::UndetectedValueFault,
        }
    }
}

impl ChannelCode for Arc<dyn ChannelCode> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn encoded_len(&self, payload_len: usize) -> usize {
        (**self).encoded_len(payload_len)
    }

    fn encode_into(&self, payload: &[u8], budget: Option<crate::SymbolBudget>, out: &mut BytesMut) {
        (**self).encode_into(payload, budget, out);
    }

    fn decode_scan<'a>(&self, wire: &'a [u8]) -> DecodeScan<'a> {
        (**self).decode_scan(wire)
    }
}

/// A copyable, configuration-friendly description of a code, buildable
/// into a boxed [`ChannelCode`]. This is what network configs carry, so
/// they stay `Copy + Debug` while the codes themselves may hold tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodeSpec {
    /// No redundancy: every corruption is a value fault.
    None,
    /// Append a CRC-32-derived checksum of `width` bytes (1, 2 or 4).
    Checksum {
        /// Checksum width in bytes; the undetected-miss rate of random
        /// corruption is about `2^(-8·width)`.
        width: u8,
    },
    /// Repeat the payload `k` times (odd), majority-vote per bit.
    Repetition {
        /// Number of copies; must be odd and at least 1.
        k: u8,
    },
    /// Extended Hamming(8,4) SECDED per nibble: corrects 1-bit errors,
    /// detects 2-bit errors per block.
    Hamming74,
    /// [`Hamming74`](crate::Hamming74) behind a depth-`depth` bit
    /// interleaver: bursts confined to one wire stripe of up to `depth`
    /// bits spread into single-bit errors and are corrected.
    Interleaved {
        /// Interleaving depth (≥ 2); also the maximum correctable
        /// burst length in bits for sufficiently long frames.
        depth: u8,
    },
    /// Concatenated inner-correction/outer-detection:
    /// [`Hamming74`](crate::Hamming74) on the wire around a CRC-32
    /// trailer of `width` bytes on the payload. Miscorrections must
    /// also forge the checksum, shrinking the residual value-fault
    /// rate by `~2^-8·width`.
    Concatenated {
        /// Outer checksum width in bytes (1, 2 or 4).
        width: u8,
    },
    /// Rateless fountain coding ([`LtCode`](crate::LtCode)): the
    /// payload is cut into small source blocks and sent as
    /// CRC-guarded symbols — the blocks themselves plus `repair`
    /// robust-soliton XOR combinations. Corrupted symbols become
    /// erasures; redundancy is metered per *symbol*, and the
    /// incremental-symbol pathway
    /// ([`SymbolBudget`](crate::SymbolBudget)) can raise the repair
    /// allowance per frame without any wire-format change.
    Fountain {
        /// Baseline repair symbols appended per frame.
        repair: u8,
    },
    /// The content-oblivious pattern rung
    /// ([`PatternCode`](crate::PatternCode)): values travel as frame
    /// *arrival counts*, payload bytes are untrusted garbage. The only
    /// rung whose decoder rejects every wire image — content on a
    /// fully-defective link is never trusted, so nothing routed through
    /// it can become an undetected value fault.
    Oblivious,
}

impl CodeSpec {
    /// The workspace default: a full-width CRC-32 trailer (the seed
    /// repo's original wire format).
    pub const DEFAULT: CodeSpec = CodeSpec::Checksum { width: 4 };

    /// Builds the code this spec describes.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (checksum width not 1/2/4, even or
    /// zero repetition count, interleave depth below 2).
    pub fn build(self) -> Arc<dyn ChannelCode> {
        match self {
            CodeSpec::None => Arc::new(crate::NoCode),
            CodeSpec::Checksum { width } => Arc::new(crate::Checksum::with_width(width)),
            CodeSpec::Repetition { k } => Arc::new(crate::Repetition::new(k as usize)),
            CodeSpec::Hamming74 => Arc::new(crate::Hamming74),
            CodeSpec::Interleaved { depth } => {
                Arc::new(crate::Interleaved::new(crate::Hamming74, depth as usize))
            }
            CodeSpec::Concatenated { width } => Arc::new(crate::Concatenated::new(
                crate::Hamming74,
                crate::Checksum::with_width(width),
            )),
            CodeSpec::Fountain { repair } => Arc::new(crate::LtCode::new(repair)),
            CodeSpec::Oblivious => Arc::new(crate::PatternCode),
        }
    }

    /// The baseline repair allowance when this spec is rateless —
    /// `Some` exactly for [`CodeSpec::Fountain`], which is how framings
    /// know to engage the incremental-symbol pathway.
    pub fn fountain_base(self) -> Option<u8> {
        match self {
            CodeSpec::Fountain { repair } => Some(repair),
            _ => None,
        }
    }
}

impl Default for CodeSpec {
    fn default() -> Self {
        CodeSpec::DEFAULT
    }
}

impl fmt::Display for CodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeSpec::None => write!(f, "none"),
            CodeSpec::Checksum { width } => write!(f, "checksum{}", width * 8),
            CodeSpec::Repetition { k } => write!(f, "repetition{k}"),
            CodeSpec::Hamming74 => write!(f, "hamming74"),
            CodeSpec::Interleaved { depth } => write!(f, "interleaved{depth}[hamming74]"),
            CodeSpec::Concatenated { width } => {
                write!(f, "hamming74+checksum{}", u32::from(*width) * 8)
            }
            CodeSpec::Fountain { repair } => write!(f, "fountain{repair}"),
            CodeSpec::Oblivious => write!(f, "oblivious"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_display() {
        assert_eq!(FrameOutcome::Delivered.to_string(), "delivered");
        assert_eq!(
            FrameOutcome::UndetectedValueFault.to_string(),
            "undetected-value-fault"
        );
    }

    #[test]
    fn spec_builds_and_names() {
        for (spec, name) in [
            (CodeSpec::None, "none"),
            (CodeSpec::Checksum { width: 4 }, "checksum32"),
            (CodeSpec::Repetition { k: 3 }, "repetition3"),
            (CodeSpec::Hamming74, "hamming74"),
            (
                CodeSpec::Interleaved { depth: 8 },
                "interleaved8[hamming74]",
            ),
            (CodeSpec::Concatenated { width: 4 }, "hamming74+checksum32"),
            (CodeSpec::Fountain { repair: 8 }, "fountain8"),
        ] {
            assert_eq!(spec.to_string(), name);
            let code = spec.build();
            let payload = b"roundtrip".to_vec();
            assert_eq!(code.decode(&code.encode(&payload)).unwrap(), payload);
        }
    }

    #[test]
    fn oblivious_spec_builds_but_never_decodes_content() {
        let spec = CodeSpec::Oblivious;
        assert_eq!(spec.to_string(), "oblivious");
        let code = spec.build();
        let wire = code.encode(b"roundtrip");
        assert!(
            code.decode(&wire).is_err(),
            "the pattern rung is the one spec exempt from the roundtrip \
             contract: content is never trusted"
        );
    }

    #[test]
    fn default_spec_is_crc32() {
        assert_eq!(CodeSpec::default(), CodeSpec::Checksum { width: 4 });
    }
}
