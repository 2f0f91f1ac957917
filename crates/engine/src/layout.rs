//! The wire-layout seam of the round machine: what one wire image
//! carries.
//!
//! [`RoundMachine`](crate::RoundMachine) runs `k ≥ 1` HO-machines
//! behind one [`Framing`](crate::Framing) and does not care whether an
//! image holds one instance's frame or sixty-four. A [`WireLayout`] owns
//! exactly what differs — how the `k` serialised bodies of one
//! destination become the image the framing codes, how a retransmission
//! copy is stamped on it, and how a decoded image becomes one
//! `(round, sender, copy)` header plus `k` messages:
//!
//! * [`BareFrame`] — the image *is* the frame body
//!   ([`encode_body_into`](crate::encode_body_into)); one instance. The
//!   only layout with a content-oblivious count channel.
//! * [`SlotImage`] — every instance's body packed into one
//!   self-checking slot image, so a peer pays the tagged header, the
//!   advert and the coding pass once per round instead of `k` times
//!   (which is where the bitsliced SECDED hot path earns its keep: the
//!   batch amortizes the transpose over every instance at once):
//!
//! ```text
//! [tag][advert?] ++ code.encode( [count][id|len|body]… [crc32] )
//!                                └── one slot per instance ──┘
//! ```
//!
//! The fault model stays per-link and per-round, exactly as in the
//! paper: one wire image either arrives, is repaired, or is dropped —
//! for *all* of its instances at once. Consequently every instance
//! observes the same heard-of set each round (the per-instance `HO`
//! sets are equal by construction) and the controller sees **one**
//! `RoundTally` per link per round. A one-slot image is wire-compatible
//! with nothing — it is a different format (count byte + CRC trailer) —
//! but it drives the same machine: on clean links the two layouts agree
//! on everything but the bytes.
//!
//! The layout is a type parameter, so each instantiation is
//! monomorphised: nothing on the per-frame path branches on it, and the
//! implementations are `#[inline]` into their one call site each.

use crate::codec::{decode_body, Frame, WireMessage, COPY_OFFSET};
use heardof_coding::{pack_slots_into, patch_slots, unpack_slots_view};

/// The `(round, sender, copy)` every instance of one image shares.
pub(crate) type Header = (u64, u32, u8);

/// Why a decoded image yielded no messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Malformed {
    /// The image does not parse, or fails its own check: a *detected*
    /// corruption, an omission like any code rejection (and it keeps
    /// the code's repair evidence).
    Rejected,
    /// The image parses to something impossible — miscorrected garbage;
    /// the payload is the telemetry value of the `FrameGarbage` event.
    Garbage(u64),
}

/// What a wire image carries — see the module docs. Implemented by
/// [`BareFrame`] and [`SlotImage`]; the machine is generic over it.
pub trait WireLayout {
    /// Whether the content-oblivious count channel (pattern frames
    /// tallied per link, never decoded) runs on this layout.
    const COUNT_CHANNEL: bool;

    /// Builds in `image` what the framing codes for one destination.
    /// `slab` holds that destination's frame bodies back to back, copy
    /// byte 0, and `ranges[i]` locates instance `i`'s.
    fn pack(slab: &[u8], ranges: &[(usize, usize)], image: &mut Vec<u8>);

    /// Turns a packed image into its retransmission copy `copy`.
    fn patch_copy(image: &mut [u8], copy: u8);

    /// Parses a decoded image into `msgs` — cleared first, then one
    /// message per instance, `k` in all — and returns the header they
    /// share. All or nothing: an image never yields a subset of its
    /// instances.
    fn unpack<M: WireMessage>(
        image: &[u8],
        k: usize,
        msgs: &mut Vec<M>,
    ) -> Result<Header, Malformed>;
}

/// One instance per wire image: the image is the frame body itself.
pub struct BareFrame;

impl WireLayout for BareFrame {
    const COUNT_CHANNEL: bool = true;

    #[inline]
    fn pack(slab: &[u8], _ranges: &[(usize, usize)], image: &mut Vec<u8>) {
        image.clear();
        image.extend_from_slice(slab);
    }

    #[inline]
    fn patch_copy(image: &mut [u8], copy: u8) {
        image[COPY_OFFSET] = copy;
    }

    #[inline]
    fn unpack<M: WireMessage>(
        image: &[u8],
        _k: usize,
        msgs: &mut Vec<M>,
    ) -> Result<Header, Malformed> {
        let frame = decode_body(image).map_err(|_| Malformed::Rejected)?;
        msgs.clear();
        msgs.push(frame.msg);
        Ok((frame.round, frame.sender, frame.copy))
    }
}

/// `k` instances per wire image: a packed, self-checking slot image
/// ([`pack_slots_into`]), one slot per instance in instance order.
pub struct SlotImage;

impl WireLayout for SlotImage {
    const COUNT_CHANNEL: bool = false;

    #[inline]
    fn pack(slab: &[u8], ranges: &[(usize, usize)], image: &mut Vec<u8>) {
        let slots: Vec<(u32, &[u8])> = ranges
            .iter()
            .enumerate()
            .map(|(i, &(start, end))| (i as u32, &slab[start..end]))
            .collect();
        pack_slots_into(&slots, image);
    }

    #[inline]
    fn patch_copy(image: &mut [u8], copy: u8) {
        // Identical image apart from each slot's copy byte.
        patch_slots(image, |body| body[COPY_OFFSET] = copy);
    }

    #[inline]
    fn unpack<M: WireMessage>(
        image: &[u8],
        k: usize,
        msgs: &mut Vec<M>,
    ) -> Result<Header, Malformed> {
        // The image is self-checking — a miscorrection that survived
        // the code and landed in a slot header fails the parse or the
        // CRC trailer here, and the image is dropped whole. The view
        // walks the image in place; slot bodies are borrowed.
        let slots = unpack_slots_view(image).map_err(|_| Malformed::Rejected)?;
        // Slot sanity: exactly our instance set in order, every body a
        // parsable frame, and one consistent header across all slots.
        if slots.len() != k {
            return Err(Malformed::Garbage(slots.len() as u64));
        }
        let mut frames = slots.iter().enumerate().map(|(i, (id, body))| {
            if id != i as u32 {
                return Err(Malformed::Garbage(id as u64));
            }
            decode_body::<M>(body).map_err(|_| Malformed::Garbage(i as u64))
        });
        let Frame {
            round,
            sender,
            copy,
            msg,
        } = frames.next().ok_or(Malformed::Garbage(0))??;
        msgs.clear();
        msgs.reserve(k);
        msgs.push(msg);
        for frame in frames {
            let frame = frame?;
            if (frame.round, frame.sender, frame.copy) != (round, sender, copy) {
                return Err(Malformed::Garbage(frame.round));
            }
            msgs.push(frame.msg);
        }
        Ok((round, sender, copy))
    }
}
