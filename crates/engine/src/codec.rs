//! Wire encoding: length-prefixed frame bodies passed through a
//! pluggable [`ChannelCode`](heardof_coding::ChannelCode).
//!
//! Body layout (all integers little-endian):
//!
//! ```text
//! ┌───────────┬────────────┬──────────┬─────────────┬─────────────┐
//! │ round u64 │ sender u32 │ copy u8  │ len u32     │ payload …   │
//! └───────────┴────────────┴──────────┴─────────────┴─────────────┘
//! ```
//!
//! The body is then wrapped by a channel code from `heardof-coding`
//! (through [`Framing`](crate::Framing)), which decides what in-flight
//! corruption becomes at the receiver: a clean delivery (corrected), a
//! dropped frame (detected → omission), or a silent value fault
//! (missed). The historical format — body followed by a CRC-32 trailer
//! — is exactly the `Checksum` code at width 4, i.e.
//! `Framing::fixed(CodeSpec::DEFAULT)`.

use bytes::{Buf, BufMut, BytesMut};
use heardof_coding::crc32;
use heardof_core::UteMsg;
use std::error::Error;
use std::fmt;

/// Errors raised while decoding wire data.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The buffer ended before the value was complete, or a length
    /// word disagrees with the bytes that follow it.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
    /// A string payload was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "wire data ended prematurely"),
            CodecError::BadTag(t) => write!(f, "unknown enum tag {t}"),
            CodecError::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
        }
    }
}

impl Error for CodecError {}

/// Types that can be carried as frame payloads.
pub trait WireMessage: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decodes a value from the front of `buf` — in this workspace the
    /// zero-copy `&mut &[u8]` reader that parses borrowed wire views.
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the buffer is truncated or structurally invalid.
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, CodecError>;

    /// Content-oblivious projection: the 3-bit pattern value (`0..=7`)
    /// this message maps to on the count channel, or `None` when the
    /// message does not fit. On the oblivious rung the *value's* bytes
    /// never cross the wire — only `pattern_value + 1` identical frames
    /// do — so messages without a projection simply read as omissions
    /// there. The default fits nothing.
    fn pattern_value(&self) -> Option<u8> {
        None
    }

    /// Inverse of [`WireMessage::pattern_value`]: reconstructs the
    /// message a count-channel arrival tally names, or `None` when the
    /// type has no pattern projection. Must satisfy
    /// `from_pattern_value(m.pattern_value()?) == Some(m)`.
    fn from_pattern_value(_value: u8) -> Option<Self> {
        None
    }
}

macro_rules! wire_int {
    ($ty:ty, $put:ident, $get:ident, $len:expr) => {
        impl WireMessage for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }

            fn decode<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
                if buf.remaining() < $len {
                    return Err(CodecError::Truncated);
                }
                Ok(buf.$get())
            }

            fn pattern_value(&self) -> Option<u8> {
                u8::try_from(*self).ok().filter(|v| *v <= 7)
            }

            fn from_pattern_value(value: u8) -> Option<Self> {
                (value <= 7).then_some(value as $ty)
            }
        }
    };
}

wire_int!(u64, put_u64_le, get_u64_le, 8);
wire_int!(u32, put_u32_le, get_u32_le, 4);
wire_int!(i64, put_i64_le, get_i64_le, 8);

impl WireMessage for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
        if buf.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag(t)),
        }
    }

    fn pattern_value(&self) -> Option<u8> {
        Some(u8::from(*self))
    }

    fn from_pattern_value(value: u8) -> Option<Self> {
        match value {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl WireMessage for String {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
        if buf.remaining() < 4 {
            return Err(CodecError::Truncated);
        }
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return Err(CodecError::Truncated);
        }
        let mut bytes = vec![0u8; len];
        buf.copy_to_slice(&mut bytes);
        String::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)
    }
}

impl<V: WireMessage> WireMessage for Option<V> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
        if buf.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(V::decode(buf)?)),
            t => Err(CodecError::BadTag(t)),
        }
    }
}

impl<V: WireMessage> WireMessage for UteMsg<V> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            UteMsg::Est(v) => {
                buf.put_u8(0);
                v.encode(buf);
            }
            UteMsg::Vote(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, CodecError> {
        if buf.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(UteMsg::Est(V::decode(buf)?)),
            1 => Ok(UteMsg::Vote(Option::<V>::decode(buf)?)),
            t => Err(CodecError::BadTag(t)),
        }
    }
}

/// A decoded frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame<M> {
    /// The round this message belongs to (communication closure).
    pub round: u64,
    /// The sender's process index.
    pub sender: u32,
    /// Retransmission copy index (0 = first copy).
    pub copy: u8,
    /// The payload message.
    pub msg: M,
}

/// Byte offsets of the frame header fields (used by fault injection).
pub const PAYLOAD_OFFSET: usize = 8 + 4 + 1 + 4;

/// Byte offset of the retransmission-copy index within a frame body —
/// the one header byte that carries *no message semantics* (round,
/// sender, length and payload all do).
pub const COPY_OFFSET: usize = 8 + 4;

/// Appends a frame's *body* — header plus length-prefixed payload,
/// without any code redundancy — to `out`. This is the arena form: the
/// payload is encoded straight into `out` after a zero length prefix
/// that is backfilled once its length is known, so no intermediate
/// buffer exists.
pub fn encode_body_into<M: WireMessage>(frame: &Frame<M>, out: &mut BytesMut) {
    out.put_u64_le(frame.round);
    out.put_u32_le(frame.sender);
    out.put_u8(frame.copy);
    let len_at = out.len();
    out.put_u32_le(0); // placeholder, backfilled below
    frame.msg.encode(out);
    let payload_len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&payload_len.to_le_bytes());
}

/// Parses a frame from a decoded body (no code trailer expected). The
/// parse borrows `body` throughout — only the message's own fields are
/// materialized — so feeding it a view into a decoded wire image costs
/// no copy.
///
/// # Errors
///
/// [`CodecError`] if the body is truncated or structurally invalid, or
/// if bytes remain after the message: two different bodies must never
/// parse to the same frame, least of all under `NoCode` or after a
/// SECDED miscorrection.
pub fn decode_body<M: WireMessage>(body: &[u8]) -> Result<Frame<M>, CodecError> {
    if body.len() < PAYLOAD_OFFSET {
        return Err(CodecError::Truncated);
    }
    let mut buf = body;
    let round = buf.get_u64_le();
    let sender = buf.get_u32_le();
    let copy = buf.get_u8();
    let len = buf.get_u32_le() as usize;
    if buf.remaining() != len {
        return Err(CodecError::Truncated);
    }
    let msg = M::decode(&mut buf)?;
    if buf.remaining() != 0 {
        return Err(CodecError::Truncated);
    }
    Ok(Frame {
        round,
        sender,
        copy,
        msg,
    })
}

/// Recomputes and overwrites the CRC trailer of an encoded frame —
/// modelling a corruption the checksum cannot detect.
pub fn refresh_crc(encoded: &mut [u8]) {
    let len = encoded.len();
    if len < 4 {
        return;
    }
    let crc = crc32(&encoded[..len - 4]);
    encoded[len - 4..].copy_from_slice(&crc.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::Framing;
    use heardof_coding::{
        AdaptiveConfig, AdaptiveController, CodeBook, CodeSpec, CtlState, SymbolBudget,
    };
    use std::sync::Arc;

    /// The historical wire format: the CRC-32 checksum code.
    fn crc_framing() -> Framing {
        Framing::fixed(CodeSpec::DEFAULT)
    }

    /// The standard ladder with the controller parked on `rung`.
    fn ladder_framing(rung: u8) -> Framing {
        let cfg = AdaptiveConfig::standard(5, 1);
        let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
        let state = CtlState {
            rung,
            ..CtlState::initial(&cfg)
        };
        Framing::adaptive(book, AdaptiveController::from_state(cfg, state))
    }

    fn body_of<M: WireMessage>(frame: &Frame<M>) -> Vec<u8> {
        let mut body = BytesMut::new();
        encode_body_into(frame, &mut body);
        body.into()
    }

    /// The frame `framing` delivers from `wire`, if any.
    fn decoded<M: WireMessage>(framing: &Framing, wire: &[u8]) -> Option<Frame<M>> {
        framing.decode_scan(wire).frame.map(|(frame, _, _)| frame)
    }

    #[test]
    fn roundtrip_u64() {
        let frame = Frame {
            round: 7,
            sender: 3,
            copy: 1,
            msg: 0xDEAD_BEEFu64,
        };
        let framing = crc_framing();
        assert_eq!(decoded(&framing, &framing.wire(&frame)), Some(frame));
    }

    #[test]
    fn roundtrip_ute_msgs() {
        let framing = crc_framing();
        for msg in [
            UteMsg::Est(42u64),
            UteMsg::Vote(Some(7u64)),
            UteMsg::Vote(None),
        ] {
            let frame = Frame {
                round: 2,
                sender: 0,
                copy: 0,
                msg: msg.clone(),
            };
            let got: Frame<UteMsg<u64>> = decoded(&framing, &framing.wire(&frame)).unwrap();
            assert_eq!(got.msg, msg);
        }
    }

    #[test]
    fn roundtrip_strings_and_bools() {
        let mut buf = BytesMut::new();
        "héllo".to_string().encode(&mut buf);
        true.encode(&mut buf);
        let mut bytes: &[u8] = &buf;
        assert_eq!(String::decode(&mut bytes).unwrap(), "héllo");
        assert!(bool::decode(&mut bytes).unwrap());
    }

    #[test]
    fn pattern_values_roundtrip_and_reject_wide_messages() {
        for v in 0u64..=7 {
            assert_eq!(v.pattern_value(), Some(v as u8));
            assert_eq!(u64::from_pattern_value(v as u8), Some(v));
        }
        assert_eq!(8u64.pattern_value(), None, "too wide for 3 bits");
        assert_eq!(u64::from_pattern_value(8), None);
        assert_eq!(false.pattern_value(), Some(0));
        assert_eq!(true.pattern_value(), Some(1));
        assert_eq!(bool::from_pattern_value(1), Some(true));
        assert_eq!(bool::from_pattern_value(2), None);
        // Types without a projection read as omissions on the count
        // channel: both directions are None.
        assert_eq!(UteMsg::Est(1u64).pattern_value(), None);
        assert_eq!(UteMsg::<u64>::from_pattern_value(0), None);
        assert_eq!("x".to_string().pattern_value(), None);
    }

    #[test]
    fn corruption_is_detected() {
        let frame = Frame {
            round: 1,
            sender: 0,
            copy: 0,
            msg: 1234u64,
        };
        let framing = crc_framing();
        let mut encoded = framing.wire(&frame);
        encoded[PAYLOAD_OFFSET] ^= 0xFF; // corrupt payload
        assert_eq!(decoded::<u64>(&framing, &encoded), None);
    }

    #[test]
    fn refreshed_crc_defeats_detection() {
        let frame = Frame {
            round: 1,
            sender: 0,
            copy: 0,
            msg: 1234u64,
        };
        let framing = crc_framing();
        let mut encoded = framing.wire(&frame);
        encoded[PAYLOAD_OFFSET] ^= 0x01;
        refresh_crc(&mut encoded);
        let got: Frame<u64> = decoded(&framing, &encoded).unwrap();
        assert_ne!(got.msg, 1234, "undetected value fault slips through");
        assert_eq!(got.round, 1, "header intact");
    }

    #[test]
    fn truncated_frames_rejected() {
        let frame = Frame {
            round: 1,
            sender: 0,
            copy: 0,
            msg: 5u64,
        };
        let framing = crc_framing();
        let encoded = framing.wire(&frame);
        for cut in [0, 3, PAYLOAD_OFFSET, encoded.len() - 1] {
            assert_eq!(decoded::<u64>(&framing, &encoded[..cut]), None, "cut {cut}");
        }
        let body = body_of(&frame);
        for cut in [0, 3, PAYLOAD_OFFSET, body.len() - 1] {
            assert_eq!(
                decode_body::<u64>(&body[..cut]),
                Err(CodecError::Truncated),
                "body cut {cut}"
            );
        }
    }

    #[test]
    fn trailing_bytes_after_the_message_are_rejected() {
        // A length word that covers the message plus junk: the body is
        // self-consistent up to the last byte the message reads, and
        // two bytes run on past it. Under `NoCode` (or after a SECDED
        // miscorrection) nothing else would tell this body from the
        // junk-free one.
        let frame = Frame {
            round: 1,
            sender: 0,
            copy: 0,
            msg: 5u64,
        };
        let mut padded = body_of(&frame);
        assert_eq!(decode_body::<u64>(&padded), Ok(frame.clone()));
        padded.extend_from_slice(&[0xAB, 0xCD]);
        padded[PAYLOAD_OFFSET - 4..PAYLOAD_OFFSET].copy_from_slice(&10u32.to_le_bytes());
        assert_eq!(decode_body::<u64>(&padded), Err(CodecError::Truncated));
        let uncoded = Framing::fixed(CodeSpec::None);
        let mut wire = BytesMut::new();
        uncoded.encode_raw_into(&padded, &mut wire);
        assert_eq!(
            decoded::<u64>(&uncoded, &wire),
            None,
            "a detected omission, not a second spelling of the same frame"
        );
    }

    #[test]
    fn bad_tags_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(9);
        assert_eq!(
            Option::<u64>::decode(&mut &buf[..]).unwrap_err(),
            CodecError::BadTag(9)
        );
        assert_eq!(
            UteMsg::<u64>::decode(&mut &buf[..]).unwrap_err(),
            CodecError::BadTag(9)
        );
    }

    #[test]
    fn error_display() {
        assert!(CodecError::Truncated.to_string().contains("prematurely"));
        assert!(CodecError::BadTag(9).to_string().contains("tag 9"));
        assert!(CodecError::BadUtf8.to_string().contains("UTF-8"));
    }

    #[test]
    fn legacy_format_is_checksum32() {
        let frame = Frame {
            round: 12,
            sender: 4,
            copy: 2,
            msg: 0xFACE_FEEDu64,
        };
        let mut historical = body_of(&frame);
        let crc = crc32(&historical);
        historical.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            crc_framing().wire(&frame),
            historical,
            "the historical wire format is the body plus its CRC-32, little-endian"
        );
    }

    #[test]
    fn frames_roundtrip_through_every_code() {
        let frame = Frame {
            round: 5,
            sender: 2,
            copy: 1,
            msg: UteMsg::Vote(Some(31u64)),
        };
        for spec in [
            CodeSpec::None,
            CodeSpec::Checksum { width: 1 },
            CodeSpec::Checksum { width: 4 },
            CodeSpec::Repetition { k: 3 },
            CodeSpec::Hamming74,
        ] {
            let framing = Framing::fixed(spec);
            let got = decoded(&framing, &framing.wire(&frame));
            assert_eq!(got, Some(frame.clone()), "roundtrip through {spec}");
        }
    }

    #[test]
    fn tagged_frames_roundtrip_across_mixed_epochs() {
        // A receiver holding the book decodes frames from every rung —
        // exactly the mixed-epoch situation mid-renegotiation.
        let receiver = ladder_framing(0);
        let rungs = AdaptiveConfig::standard(5, 1).ladder.len() as u8;
        let frame = Frame {
            round: 9,
            sender: 2,
            copy: 0,
            msg: UteMsg::Vote(Some(17u64)),
        };
        for id in 0..rungs {
            let wire = ladder_framing(id).wire(&frame);
            assert_eq!(wire[0], id, "the id byte leads the wire image");
            let (got, repaired, advert) = receiver.decode_scan(&wire).frame.unwrap();
            assert!(!repaired, "clean frames need no repair");
            assert_eq!(advert, None, "the standard ladder does not gossip");
            assert_eq!(got, frame, "epoch {id} decodes exactly");
        }
    }

    #[test]
    fn budgeted_tagged_frames_decode_like_baseline_ones() {
        let cfg = AdaptiveConfig {
            ladder: vec![CodeSpec::Fountain { repair: 2 }],
            ..AdaptiveConfig::standard(5, 1)
        };
        let book = Arc::new(CodeBook::from_specs(&cfg.ladder));
        let framing = Framing::adaptive(book, AdaptiveController::new(cfg));
        let frame = Frame {
            round: 6,
            sender: 3,
            copy: 0,
            msg: UteMsg::Est(41u64),
        };
        let baseline = framing.wire(&frame);
        let mut inflated = BytesMut::new();
        framing.encode_raw_with_budget_into(
            &body_of(&frame),
            SymbolBudget::baseline(11),
            &mut inflated,
        );
        assert!(
            inflated.len() > baseline.len(),
            "the budget buys extra repair symbols on the wire"
        );
        for wire in [&baseline[..], &inflated[..]] {
            assert_eq!(
                decoded(&framing, wire),
                Some(frame.clone()),
                "budgets never change the wire identity"
            );
        }
    }

    #[test]
    fn tagged_decode_reports_repairs() {
        let framing = ladder_framing(1);
        assert_eq!(framing.current_spec(), CodeSpec::Hamming74);
        let frame = Frame {
            round: 2,
            sender: 1,
            copy: 0,
            msg: 99u64,
        };
        let mut wire = framing.wire(&frame);
        wire[10] ^= 0x04; // one flip past the tag byte
        let scan = framing.decode_scan::<u64>(&wire);
        let (got, repaired, _) = scan.frame.unwrap();
        assert_eq!(got, frame, "SECDED repaired the flip");
        assert!(repaired, "…and reported doing so");
        assert_eq!(scan.repairs, 1);
    }

    #[test]
    fn corrupted_tag_byte_is_a_detected_omission() {
        let framing = ladder_framing(0);
        let frame = Frame {
            round: 1,
            sender: 0,
            copy: 0,
            msg: 5u64,
        };
        let mut wire = framing.wire(&frame);
        wire[0] = 200; // unknown id
        assert_eq!(decoded::<u64>(&framing, &wire), None);
        // An id naming a *different* code sees a wrong-shaped body and
        // rejects too (checksum32 bytes are not a valid hamming74 image
        // of the same frame).
        let mut cross = framing.wire(&frame);
        cross[0] = 1;
        assert_eq!(
            decoded::<u64>(&framing, &cross),
            None,
            "cross-code decode must not silently succeed"
        );
    }

    #[test]
    fn hamming_code_repairs_wire_corruption_in_place() {
        let framing = Framing::fixed(CodeSpec::Hamming74);
        let frame = Frame {
            round: 3,
            sender: 1,
            copy: 0,
            msg: 777u64,
        };
        let mut wire = framing.wire(&frame);
        wire[2 * PAYLOAD_OFFSET + 5] ^= 0x08; // single-bit hit inside the payload
        let got: Frame<u64> = decoded(&framing, &wire).unwrap();
        assert_eq!(got.msg, 777, "SECDED repaired the flip");
    }

    #[test]
    fn double_flip_in_one_block_is_code_rejected() {
        let framing = Framing::fixed(CodeSpec::Hamming74);
        let frame = Frame {
            round: 3,
            sender: 1,
            copy: 0,
            msg: 777u64,
        };
        let mut wire = framing.wire(&frame);
        wire[2 * PAYLOAD_OFFSET + 5] ^= 0x18; // two bits in the same block
        assert_eq!(decoded::<u64>(&framing, &wire), None);
    }
}
