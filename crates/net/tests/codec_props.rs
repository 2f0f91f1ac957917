//! Property tests for the wire codec: round-trips, corruption
//! detection, and the undetected-corruption model.

use bytes::BytesMut;
use heardof_core::UteMsg;
use heardof_engine::{encode_body_into, Framing};
use heardof_net::{crc32, CodeSpec, Frame, WireMessage, PAYLOAD_OFFSET};
use proptest::prelude::*;

/// `frame` on the wire in the default (CRC-32) format.
fn encode_frame<M: WireMessage>(frame: &Frame<M>) -> Vec<u8> {
    let mut body = BytesMut::new();
    encode_body_into(frame, &mut body);
    let mut wire = BytesMut::new();
    Framing::fixed(CodeSpec::DEFAULT).encode_raw_into(&body, &mut wire);
    wire.into()
}

/// The frame a default-format receiver makes of `wire`, if any.
fn decode_frame<M: WireMessage>(wire: &[u8]) -> Option<Frame<M>> {
    let scan = Framing::fixed(CodeSpec::DEFAULT).decode_scan(wire);
    scan.frame.map(|(frame, _, _)| frame)
}

fn arb_ute_msg() -> impl Strategy<Value = UteMsg<u64>> {
    prop_oneof![
        any::<u64>().prop_map(UteMsg::Est),
        any::<u64>().prop_map(|v| UteMsg::Vote(Some(v))),
        Just(UteMsg::Vote(None)),
    ]
}

proptest! {
    #[test]
    fn u64_frames_roundtrip(round in 1u64.., sender in any::<u32>(), copy in any::<u8>(), msg in any::<u64>()) {
        let frame = Frame { round, sender, copy, msg };
        let decoded: Frame<u64> = decode_frame(&encode_frame(&frame)).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn ute_frames_roundtrip(round in 1u64.., sender in any::<u32>(), msg in arb_ute_msg()) {
        let frame = Frame { round, sender, copy: 0, msg };
        let decoded: Frame<UteMsg<u64>> = decode_frame(&encode_frame(&frame)).unwrap();
        prop_assert_eq!(decoded.msg, frame.msg);
        prop_assert_eq!(decoded.round, frame.round);
    }

    #[test]
    fn any_single_byte_flip_is_detected(msg in any::<u64>(), pos_seed in any::<usize>(), mask in 1u8..) {
        let frame = Frame { round: 3, sender: 1, copy: 0, msg };
        let mut encoded = encode_frame(&frame);
        let pos = pos_seed % encoded.len();
        encoded[pos] ^= mask;
        // Either the CRC rejects it, or (if the flip hit the CRC field
        // itself… still a mismatch). Decoding must never return the
        // original frame silently *claiming* integrity with altered bytes:
        // A delivery is only possible if the flip cancelled out —
        // impossible for a single XOR with nonzero mask.
        let decoded = decode_frame::<u64>(&encoded);
        prop_assert!(decoded.is_none(), "undetected flip at {pos}: {decoded:?}");
    }

    #[test]
    fn crc_differs_on_different_data(a in proptest::collection::vec(any::<u8>(), 0..64),
                                     b in proptest::collection::vec(any::<u8>(), 0..64)) {
        if a != b {
            // Not guaranteed in general, but overwhelmingly likely; use
            // short inputs where CRC-32 collisions would indicate a
            // table bug rather than bad luck.
            if a.len() == b.len() && a.len() <= 4 {
                prop_assert_ne!(crc32(&a), crc32(&b));
            }
        } else {
            prop_assert_eq!(crc32(&a), crc32(&b));
        }
    }

    #[test]
    fn truncation_never_panics(msg in any::<u64>(), cut_seed in any::<usize>()) {
        let frame = Frame { round: 9, sender: 2, copy: 1, msg };
        let encoded = encode_frame(&frame);
        let cut = cut_seed % encoded.len();
        let _ = decode_frame::<u64>(&encoded[..cut]); // must not panic
    }
}

#[test]
fn payload_offset_matches_layout() {
    // 8 (round) + 4 (sender) + 1 (copy) + 4 (len) = 17.
    assert_eq!(PAYLOAD_OFFSET, 17);
    let frame = Frame {
        round: 1,
        sender: 0,
        copy: 0,
        msg: 0u64,
    };
    // Header + 8-byte payload + 4-byte CRC.
    assert_eq!(encode_frame(&frame).len(), PAYLOAD_OFFSET + 8 + 4);
}
