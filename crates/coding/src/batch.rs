//! The instance-multiplexed slot format: many `(instance_id, body)`
//! pairs packed into one wire image behind **one** tagged header, one
//! advert byte and one coding pass.
//!
//! The paper's transmission-fault model is per-round and per-link, but
//! production traffic means many concurrent consensus instances sharing
//! each link. Sending each instance's frame separately pays the framing
//! overhead — tag byte, advertisement, the code's fixed costs, and
//! above all one coding pass — once *per instance*. The mux image pays
//! it once per link per round:
//!
//! ```text
//! ┌──────────┬──────────────────────────────────┬─────────────┐
//! │ count u8 │ count × (id u32 │ len u16 │ body) │ crc32 (LE)  │
//! └──────────┴──────────────────────────────────┴─────────────┘
//! ```
//!
//! All integers little-endian. The trailing CRC-32 covers everything
//! before it, making the mux layer *self-checking*: a channel-code
//! miscorrection that lands in a slot header (count, id or len) walks
//! the parse off the rails or fails the CRC and the whole image is
//! rejected — a detected omission, never a silently misrouted body.
//! The residual forge probability is the CRC's `~2⁻³²`, on top of
//! whatever the channel code itself guarantees (a proptest in
//! `tests/code_props.rs` hammers corrupted headers at this bound).
//!
//! The format is deliberately *inside* the channel code: the wire is
//! `[tag][advert?] ++ code.encode(packed slots)`, so the coding
//! hot path — bitsliced SECDED over 64-block chunks — amortizes over
//! every instance in the batch.

use crate::code::CodeError;
use crate::crc32;

/// Maximum slots per mux image (the count travels as one byte; 0 is a
/// valid image carrying no slots).
pub const MAX_SLOTS: usize = u8::MAX as usize;

/// Maximum body length per slot (the length travels as a `u16`).
pub const MAX_SLOT_LEN: usize = u16::MAX as usize;

/// Bytes of mux overhead for a `slots`-slot image: the count byte, one
/// `(id, len)` header per slot, and the CRC-32 trailer.
pub fn mux_overhead(slots: usize) -> usize {
    1 + slots * 6 + 4
}

/// Packs `(instance_id, body)` slots into one self-checking mux image,
/// appending to a caller-owned buffer — the arena form: the buffer is
/// cleared, reserved to the exact image size, and refilled, so a caller
/// reusing it round-to-round stops touching the allocator once warm.
/// Bodies are taken by borrow (`AsRef<[u8]>`), so slot contents packed
/// out of a shared slab are never copied into intermediate `Vec`s.
///
/// # Panics
///
/// Panics when given more than [`MAX_SLOTS`] slots or a body longer
/// than [`MAX_SLOT_LEN`] — both are static capacity planning errors,
/// not runtime conditions.
pub fn pack_slots_into<B: AsRef<[u8]>>(slots: &[(u32, B)], image: &mut Vec<u8>) {
    assert!(
        slots.len() <= MAX_SLOTS,
        "a mux image holds at most {MAX_SLOTS} slots, got {}",
        slots.len()
    );
    let total: usize = slots.iter().map(|(_, b)| b.as_ref().len()).sum();
    image.clear();
    image.reserve(mux_overhead(slots.len()) + total);
    image.push(slots.len() as u8);
    for (id, body) in slots {
        let body = body.as_ref();
        assert!(
            body.len() <= MAX_SLOT_LEN,
            "a mux slot body holds at most {MAX_SLOT_LEN} bytes, got {}",
            body.len()
        );
        image.extend_from_slice(&id.to_le_bytes());
        image.extend_from_slice(&(body.len() as u16).to_le_bytes());
        image.extend_from_slice(body);
    }
    let crc = crc32(image);
    image.extend_from_slice(&crc.to_le_bytes());
}

/// Hands every slot body of a packed image to `patch`, mutably and in
/// slot order, then reseals the CRC-32 trailer — how a retransmission
/// copy differs from the first one without re-packing anything. `patch`
/// may rewrite a body's bytes but not its length.
///
/// # Panics
///
/// Panics unless `image` is a well-formed [`pack_slots_into`] output:
/// this edits an image the caller just packed, never wire input.
pub fn patch_slots(image: &mut [u8], mut patch: impl FnMut(&mut [u8])) {
    let body_len = image.len() - 4;
    let (body, trailer) = image.split_at_mut(body_len);
    let (&mut count, mut rest) = body.split_first_mut().expect("count byte");
    for _ in 0..count {
        let len = u16::from_le_bytes([rest[4], rest[5]]) as usize;
        let (slot, tail) = rest[6..].split_at_mut(len);
        patch(slot);
        rest = tail;
    }
    trailer.copy_from_slice(&crc32(body).to_le_bytes());
}

/// A validated, borrowed view of a mux image's slots: the structural
/// parse and the CRC-32 trailer check have both passed, and
/// [`SlotsView::iter`] walks the `(instance_id, body)` pairs as slices
/// into the original image — the zero-copy unpack path.
#[derive(Clone, Copy, Debug)]
pub struct SlotsView<'a> {
    /// The slot region: everything after the count byte, before the CRC.
    slots: &'a [u8],
    count: usize,
}

impl<'a> SlotsView<'a> {
    /// Number of slots in the image.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when the image carries no slots.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates the `(instance_id, body)` slots, bodies borrowed from
    /// the image. The view only exists post-validation, so the walk
    /// yields exactly [`SlotsView::len`] slots.
    pub fn iter(&self) -> SlotsIter<'a> {
        SlotsIter {
            rest: self.slots,
            remaining: self.count,
        }
    }
}

impl<'a> IntoIterator for &SlotsView<'a> {
    type Item = (u32, &'a [u8]);
    type IntoIter = SlotsIter<'a>;

    fn into_iter(self) -> SlotsIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`SlotsView`]'s `(instance_id, body)` pairs.
#[derive(Clone, Debug)]
pub struct SlotsIter<'a> {
    rest: &'a [u8],
    remaining: usize,
}

impl<'a> Iterator for SlotsIter<'a> {
    type Item = (u32, &'a [u8]);

    fn next(&mut self) -> Option<(u32, &'a [u8])> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let ([i0, i1, i2, i3, l0, l1], rest) = self.rest.split_first_chunk::<6>()?;
        let len = u16::from_le_bytes([*l0, *l1]) as usize;
        let (body, rest) = rest.split_at_checked(len)?;
        self.rest = rest;
        Some((u32::from_le_bytes([*i0, *i1, *i2, *i3]), body))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for SlotsIter<'_> {}

/// Validates a mux image and returns a borrowed [`SlotsView`] over its
/// slots; nothing is copied.
///
/// # Errors
///
/// [`CodeError::Malformed`] when the structure does not parse (short
/// image, slot running past the end, trailing bytes);
/// [`CodeError::Detected`] when the structure parses but the CRC-32
/// trailer disagrees — a corruption (e.g. a channel-code miscorrection
/// surviving into the decoded body) caught by the mux layer itself.
/// Both are *detected omissions* to the caller: the whole image is
/// dropped, never a subset of its slots.
pub fn unpack_slots_view(image: &[u8]) -> Result<SlotsView<'_>, CodeError> {
    let (body, trailer) = image.split_last_chunk::<4>().ok_or(CodeError::Malformed)?;
    let (&count, slots) = body.split_first().ok_or(CodeError::Malformed)?;
    let mut rest = slots;
    for _ in 0..count {
        let ([.., l0, l1], tail) = rest.split_first_chunk::<6>().ok_or(CodeError::Malformed)?;
        let len = u16::from_le_bytes([*l0, *l1]) as usize;
        rest = tail.get(len..).ok_or(CodeError::Malformed)?;
    }
    if !rest.is_empty() {
        return Err(CodeError::Malformed);
    }
    if u32::from_le_bytes(*trailer) != crc32(body) {
        return Err(CodeError::Detected);
    }
    Ok(SlotsView {
        slots,
        count: count as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack_slots<B: AsRef<[u8]>>(slots: &[(u32, B)]) -> Vec<u8> {
        let mut image = Vec::new();
        pack_slots_into(slots, &mut image);
        image
    }

    fn unpack_slots(image: &[u8]) -> Result<Vec<(u32, Vec<u8>)>, CodeError> {
        let view = unpack_slots_view(image)?;
        Ok(view.iter().map(|(id, body)| (id, body.to_vec())).collect())
    }

    fn slots() -> Vec<(u32, Vec<u8>)> {
        vec![
            (0, b"alpha".to_vec()),
            (7, Vec::new()),
            (0xDEAD_BEEF, (0..63u8).collect()),
        ]
    }

    #[test]
    fn roundtrip() {
        let image = pack_slots(&slots());
        // body bytes per slot: 5 ("alpha"), 0 (empty), 63
        assert_eq!(image.len(), mux_overhead(3) + 5 + 63);
        assert_eq!(unpack_slots(&image).unwrap(), slots());
    }

    #[test]
    fn empty_batch_roundtrips() {
        let image = pack_slots::<Vec<u8>>(&[]);
        assert_eq!(image.len(), mux_overhead(0));
        assert_eq!(unpack_slots(&image).unwrap(), Vec::new());
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let image = pack_slots(&slots());
        for i in 0..image.len() {
            for bit in 0..8 {
                let mut hit = image.clone();
                hit[i] ^= 1 << bit;
                assert!(
                    unpack_slots(&hit).is_err(),
                    "byte {i} bit {bit}: corruption must not misroute slots"
                );
            }
        }
    }

    #[test]
    fn truncation_and_padding_are_malformed() {
        let image = pack_slots(&slots());
        for cut in [0, 1, 4, image.len() - 5, image.len() - 1] {
            assert_eq!(unpack_slots(&image[..cut]), Err(CodeError::Malformed));
        }
        let mut padded = image.clone();
        padded.insert(image.len() - 4, 0);
        assert!(unpack_slots(&padded).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn patching_rewrites_every_body_and_reseals() {
        let mut image = pack_slots(&slots());
        patch_slots(&mut image, |body| body.iter_mut().for_each(|b| *b ^= 0xFF));
        let flipped: Vec<(u32, Vec<u8>)> = slots()
            .into_iter()
            .map(|(id, body)| (id, body.iter().map(|b| b ^ 0xFF).collect()))
            .collect();
        assert_eq!(unpack_slots(&image).unwrap(), flipped);
        assert_eq!(image, pack_slots(&flipped), "same bytes as a fresh pack");
    }

    #[test]
    fn crc_catches_a_parsing_but_forged_header() {
        // Swap two slot ids: the structure still parses, only the CRC
        // notices — the exact miscorrection-shaped failure the trailer
        // exists for.
        let image = pack_slots(&slots());
        let mut forged = image.clone();
        forged.swap(1, 11); // first byte of slot 0's id ↔ slot 1's id
        if forged != image {
            assert_eq!(unpack_slots(&forged), Err(CodeError::Detected));
        }
    }
}
