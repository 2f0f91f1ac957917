//! The content-oblivious pattern code: the ladder's last-resort rung
//! for links whose *content* the adversary owns completely.
//!
//! Every other rung — checksum32 through repetition5 — assumes some
//! bits of a frame survive transit. On a *fully defective* link (every
//! payload byte rewritable in flight, per "Distributed Computations in
//! Fully-Defective Networks", Censor-Hillel/Cohen/Gelles/Sela) that
//! assumption is void and no α budget can describe the channel. What
//! the adversary in that model still cannot fake is the *pattern* of
//! arrivals: frames arrive on a known link, in the round window, and
//! their count is exact. [`PatternCode`] therefore moves the signal out
//! of the bytes entirely:
//!
//! * a value `v ∈ 0..=7` travels as `v + 1` two-byte frames on the
//!   link (a unary/thermometer count over the retransmission-copy
//!   axis),
//! * a rung-gossip epoch `e ∈ 0..=15` travels as `e + 1` three-byte
//!   frames (the advert channel, distinguished purely by length),
//! * the bytes inside every such frame are untrusted garbage — the
//!   receiver never reads them.
//!
//! Corrupting content is a no-op against this encoding; the adversary
//! can at worst *delay* a value (by the substrate dropping frames,
//! which the count decoder reads as a smaller value or an omission —
//! both benign), never *forge* one. That is the whole point: the rung
//! trades all of its bandwidth for a forgery-proof signal.
//!
//! The [`ChannelCode`] impl is deliberately degenerate. A pattern
//! frame's content carries nothing, so `decode` of any wire image is
//! `Err(Detected)`: content arriving on this rung is never trusted,
//! and the `decode(encode(p)) == Ok(p)` contract explicitly does not
//! apply (the codebook entry exists so the rung has a wire identity
//! and a tag id, not so bodies round-trip through it). Decoding
//! happens out-of-band in the round engine, by counting.

use crate::code::{ChannelCode, CodeError, DecodeScan};
use crate::SymbolBudget;
use bytes::{BufMut, BytesMut};

/// Wire length of a value-channel pattern frame. Untagged frames of
/// exactly this length are counted toward the sender's value signal.
/// Legitimate tagged frames are never this short (their coded body
/// alone is ≥ 17 bytes), so the two formats cannot collide.
pub const OBL_VALUE_LEN: usize = 2;

/// Wire length of an advert-channel pattern frame (rung-gossip epochs
/// falling back to the count channel). Distinguished from the value
/// channel purely by length.
pub const OBL_ADVERT_LEN: usize = 3;

/// Largest value the pattern channel can carry: 3-bit control values
/// (ladder rungs, decision bits, small estimates).
pub const OBL_MAX_VALUE: u8 = 7;

/// Largest epoch the advert channel can carry — one less than the
/// rung-gossip epoch modulus, so epochs map onto counts exactly.
pub const OBL_MAX_EPOCH: u8 = 15;

/// Which pattern channel an untagged frame of a given wire length
/// belongs to, if any.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ObliviousChannel {
    /// The value channel ([`OBL_VALUE_LEN`]-byte frames).
    Value,
    /// The advert channel ([`OBL_ADVERT_LEN`]-byte frames).
    Advert,
}

/// Classifies a wire length into a pattern channel. Content is never
/// inspected — length and arrival link are the only trusted facts.
pub fn oblivious_channel(wire_len: usize) -> Option<ObliviousChannel> {
    match wire_len {
        OBL_VALUE_LEN => Some(ObliviousChannel::Value),
        OBL_ADVERT_LEN => Some(ObliviousChannel::Advert),
        _ => None,
    }
}

/// The wire image of one value-channel frame. The bytes are zeros by
/// convention; a receiver must treat whatever arrives as garbage.
pub fn oblivious_value_frame() -> [u8; OBL_VALUE_LEN] {
    [0; OBL_VALUE_LEN]
}

/// The wire image of one advert-channel frame.
pub fn oblivious_advert_frame() -> [u8; OBL_ADVERT_LEN] {
    [0; OBL_ADVERT_LEN]
}

/// Decodes a per-round arrival count into the signaled value: `count`
/// frames mean value `count − 1`, saturating at `max` (extra arrivals
/// — e.g. duplicated frames — can only push the reading *toward* the
/// saturation point, never invent structure). Zero arrivals are an
/// omission: `None`.
pub fn decode_count(count: usize, max: u8) -> Option<u8> {
    if count == 0 {
        return None;
    }
    Some((count - 1).min(max as usize) as u8)
}

/// The number of frames that transmit `value` on a pattern channel.
pub fn encode_count(value: u8, max: u8) -> usize {
    (value.min(max) as usize) + 1
}

/// The content-oblivious pattern code (see the module docs). As a
/// [`ChannelCode`] it is the rung that *refuses* content: every decode
/// is a detected omission, so no payload routed through it can ever
/// become an undetected value fault — the property the fully-defective
/// adversary tier pins with proptests.
#[derive(Clone, Copy, Default, Debug)]
pub struct PatternCode;

impl ChannelCode for PatternCode {
    fn name(&self) -> String {
        "oblivious".to_string()
    }

    fn encoded_len(&self, _payload_len: usize) -> usize {
        OBL_VALUE_LEN
    }

    fn encode_into(&self, _payload: &[u8], _budget: Option<SymbolBudget>, out: &mut BytesMut) {
        out.put_slice(&oblivious_value_frame());
    }

    fn decode_scan<'a>(&self, _wire: &'a [u8]) -> DecodeScan<'a> {
        // Content on this rung is untrusted by definition; the real
        // signal is the arrival count, decoded in the round engine.
        DecodeScan::rejected(CodeError::Detected, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::FrameOutcome;

    #[test]
    fn content_is_never_trusted() {
        let code = PatternCode;
        let wire = code.encode(b"anything");
        assert_eq!(wire.len(), OBL_VALUE_LEN);
        assert_eq!(code.decode(&wire), Err(CodeError::Detected));
        // No wire image — clean, corrupted, or adversarial — decodes.
        for image in [&[][..], &[0xFF, 0xFF][..], &[1, 2, 3, 4, 5][..]] {
            assert_eq!(code.decode(image), Err(CodeError::Detected));
            assert_eq!(
                code.classify(b"payload", image),
                FrameOutcome::DetectedOmission,
                "pattern frames can never yield an undetected value fault"
            );
        }
    }

    #[test]
    fn channel_lengths_are_disjoint_from_tagged_frames() {
        assert_eq!(
            oblivious_channel(OBL_VALUE_LEN),
            Some(ObliviousChannel::Value)
        );
        assert_eq!(
            oblivious_channel(OBL_ADVERT_LEN),
            Some(ObliviousChannel::Advert)
        );
        for len in [0, 1, 4, 17, 18, 64] {
            assert_eq!(oblivious_channel(len), None, "length {len}");
        }
    }

    #[test]
    fn counts_roundtrip_every_value() {
        for v in 0..=OBL_MAX_VALUE {
            assert_eq!(
                decode_count(encode_count(v, OBL_MAX_VALUE), OBL_MAX_VALUE),
                Some(v)
            );
        }
        for e in 0..=OBL_MAX_EPOCH {
            assert_eq!(
                decode_count(encode_count(e, OBL_MAX_EPOCH), OBL_MAX_EPOCH),
                Some(e)
            );
        }
        assert_eq!(
            decode_count(0, OBL_MAX_VALUE),
            None,
            "silence is an omission"
        );
        assert_eq!(
            decode_count(100, OBL_MAX_VALUE),
            Some(OBL_MAX_VALUE),
            "duplication saturates instead of wrapping"
        );
    }
}
