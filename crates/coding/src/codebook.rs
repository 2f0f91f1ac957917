//! [`CodeBook`] gives the ladder a wire identity: frames are prefixed
//! with a 1-byte code id so receivers can decode *mixed epochs* exactly
//! — after a switch, in-flight frames from the previous rung still name
//! their own code.

use crate::code::{ChannelCode, CodeError, CodeSpec};
use bytes::{BufMut, BytesMut};
use std::borrow::Cow;
use std::sync::Arc;

/// The wire flag marking a gossip-tagged frame: set on the id byte, it
/// announces that one [`RungAdvert`] byte follows before the coded
/// body. Pre-gossip decoders see an unknown code id and reject the
/// frame — a detected omission, never a misparse — which is what makes
/// the format extension version-safe.
pub const GOSSIP_FLAG: u8 = 0x80;

/// Epochs are advertised modulo this window (4 bits on the wire).
pub(crate) const EPOCH_MODULUS: u8 = 16;

/// A rung advertisement piggybacked on a tagged frame: the sender's
/// current ladder rung plus its switch epoch, packed into one byte —
/// 3 bits rung, 4 bits epoch, 1 parity bit.
///
/// The advertisement travels *outside* the channel code (a receiver
/// must read it before picking a decoder), so it gets the paper's move
/// applied in miniature: the parity bit turns every odd-weight
/// corruption of the byte — in particular every single-bit flip, the
/// dominant physical error — into a *detected* loss of the
/// advertisement ([`RungAdvert::from_byte`] returns `None` and the
/// receiver simply hears no advertisement from that peer this round)
/// instead of a forged one. Without it, two links flipping the same
/// bit of the same advert forge byte-identical advertisements often
/// enough to assemble an adoption quorum by chance.
///
/// The epoch is a per-controller logical clock synchronized through
/// gossip; comparisons use serial-number arithmetic over the 4-bit
/// window (see [`RungAdvert::epoch_newer`]), so wraparound in long
/// runs is harmless as long as gossiping controllers stay within half
/// a window of each other — which the adoption rule itself guarantees.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RungAdvert {
    /// The advertised ladder rung (0 = cheapest; ladders gossiping on
    /// the wire are limited to 8 rungs).
    pub rung: u8,
    /// The advertised switch epoch, modulo 16.
    pub epoch: u8,
}

impl RungAdvert {
    /// Packs the advertisement into its wire byte: even-parity over
    /// the whole byte, epoch in bits 3..=6, rung in bits 0..=2.
    pub fn to_byte(self) -> u8 {
        let payload = (self.epoch % EPOCH_MODULUS) << 3 | (self.rung & 0x07);
        payload | ((payload.count_ones() as u8 & 1) << 7)
    }

    /// Unpacks an advertisement from its wire byte, or `None` when the
    /// parity check fails — a corrupted advertisement is *detected* and
    /// dropped (the gossip analogue of corruption becoming an
    /// omission), never believed.
    pub fn from_byte(b: u8) -> Option<Self> {
        if !b.count_ones().is_multiple_of(2) {
            return None;
        }
        Some(RungAdvert {
            rung: b & 0x07,
            epoch: (b >> 3) & (EPOCH_MODULUS - 1),
        })
    }

    /// Serial-number distance from `base` forward to `epoch` within the
    /// 4-bit window.
    pub(crate) fn epoch_distance(epoch: u8, base: u8) -> u8 {
        epoch.wrapping_sub(base) % EPOCH_MODULUS
    }

    /// `true` when `epoch` is strictly newer than `base` under serial
    /// comparison: ahead by less than half the window. A corrupted
    /// epoch more than 7 steps "ahead" reads as stale and is ignored.
    pub fn epoch_newer(epoch: u8, base: u8) -> bool {
        let d = Self::epoch_distance(epoch, base);
        d != 0 && d < EPOCH_MODULUS / 2
    }
}

/// The ladder's wire identity: code-id-tagged framing for mixed-epoch
/// decode.
///
/// A tagged wire image is `[id] ++ code.encode(body)` where `id` is the
/// code's ladder index. Receivers decode *any* epoch's frames exactly,
/// even mid-renegotiation; a corrupted id byte maps to a missing or
/// mismatched code and the frame is rejected — a detected omission,
/// never a silent fault.
///
/// Gossiping senders use the version-gated extension
/// `[GOSSIP_FLAG | id] [advert] ++ code.encode(body)`: the high bit of
/// the id byte announces that one [`RungAdvert`] byte follows before
/// the coded body (which is why ids stop at 127). A pre-gossip decoder
/// reading a gossip frame sees an unknown id and rejects it cleanly; a
/// gossip-aware decoder reads legacy frames unchanged — the two
/// formats interoperate with `Delivered`-or-`DetectedOmission`
/// semantics in both directions, never a misparse (a proptest in
/// `tests/code_props.rs` pins this).
pub struct CodeBook {
    specs: Vec<CodeSpec>,
    codes: Vec<Arc<dyn ChannelCode>>,
}

/// A fully decoded tagged wire image: which code epoch it named,
/// whether the decoder repaired channel errors, the piggybacked rung
/// advertisement (if the sender gossips), and the recovered body — a
/// [`Cow`] that stays borrowed from the wire whenever the named code
/// decodes in place (`none`, `checksum*`), the zero-copy receive path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaggedWire<'a> {
    /// The ladder index the frame named.
    pub code_id: u8,
    /// `true` when the code corrected errors while decoding.
    pub repaired: bool,
    /// The sender's rung advertisement, when the frame carries one.
    pub advert: Option<RungAdvert>,
    /// The decoded body, borrowed from the wire when the code allows.
    pub body: Cow<'a, [u8]>,
}

/// Why a [`CodeBook`] could not be built from a ladder of specs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodeBookError {
    /// No specs were given — a book must hold at least one code.
    Empty,
    /// More than 128 specs: ids are one wire byte whose high bit is the
    /// [`GOSSIP_FLAG`], so the id space stops at 127. Carries the
    /// offending length.
    TooLarge(usize),
}

impl std::fmt::Display for CodeBookError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeBookError::Empty => write!(f, "a code book holds 1..=128 codes, got 0"),
            CodeBookError::TooLarge(n) => {
                write!(f, "a code book holds 1..=128 codes, got {n}")
            }
        }
    }
}

impl std::error::Error for CodeBookError {}

impl CodeBook {
    /// Builds the book for a ladder of specs, checking the id-space
    /// bound: ids are one wire byte whose high bit is the
    /// [`GOSSIP_FLAG`], so a book holds 1..=128 codes.
    ///
    /// # Errors
    ///
    /// [`CodeBookError::Empty`] for an empty ladder,
    /// [`CodeBookError::TooLarge`] past 128 specs.
    pub fn new(specs: &[CodeSpec]) -> Result<Self, CodeBookError> {
        if specs.is_empty() {
            return Err(CodeBookError::Empty);
        }
        if specs.len() > GOSSIP_FLAG as usize {
            return Err(CodeBookError::TooLarge(specs.len()));
        }
        Ok(CodeBook {
            specs: specs.to_vec(),
            codes: specs.iter().map(|s| s.build()).collect(),
        })
    }

    /// Builds the book for a ladder of specs (the infallible
    /// convenience over [`CodeBook::new`] for statically-sized ladders).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or longer than 128 entries (ids are
    /// one byte whose high bit is the [`GOSSIP_FLAG`]); configurations
    /// built at runtime should use [`CodeBook::new`] and surface the
    /// [`CodeBookError`] instead.
    pub fn from_specs(specs: &[CodeSpec]) -> Self {
        Self::new(specs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of codes in the book.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` if the book is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The spec registered under `id`, if any.
    pub fn spec(&self, id: u8) -> Option<CodeSpec> {
        self.specs.get(id as usize).copied()
    }

    /// The code registered under `id`, if any.
    pub fn code(&self, id: u8) -> Option<&Arc<dyn ChannelCode>> {
        self.codes.get(id as usize)
    }

    /// Appends the tagged wire image of `body` under code `id` to `out`:
    /// `[id] ++ coded`, or with `Some(advert)` the gossip form
    /// `[GOSSIP_FLAG | id] [advert byte] ++ coded`. On cheap rungs
    /// ([`crate::NoCode`], [`crate::Checksum`]) the coded body is
    /// written straight into `out` with no intermediate buffer.
    ///
    /// `budget` is the incremental-symbol pathway for a rateless rung
    /// (see [`ChannelCode::encode_into`]). Budgets never change the wire
    /// identity: the id byte and symbol format are the same, a frame
    /// just carries more repair symbols, so receivers decode mixed
    /// budgets exactly like mixed epochs. The advertisement and the
    /// budget are orthogonal wire features.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the book.
    pub fn encode_tagged(
        &self,
        id: u8,
        advert: Option<RungAdvert>,
        budget: Option<crate::SymbolBudget>,
        body: &[u8],
        out: &mut BytesMut,
    ) {
        let code = self.codes.get(id as usize).expect("code id in book");
        out.reserve(2 + code.encoded_len(body.len()));
        match advert {
            Some(ad) => {
                out.put_u8(GOSSIP_FLAG | id);
                out.put_u8(ad.to_byte());
            }
            None => out.put_u8(id),
        }
        code.encode_into(body, budget, out);
    }

    /// Decodes a tagged wire image in either format — legacy
    /// (`[id] ++ coded`) or gossip (`[GOSSIP_FLAG | id] [advert] ++
    /// coded`) — returning everything the frame carries, plus the
    /// repair events the named code observed while scanning the whole
    /// coded body ([`ChannelCode::decode_scan`]) — nonzero even when the
    /// frame is rejected, which is the evidence behind
    /// [`RoundTally::evidence`](crate::RoundTally::evidence). The body
    /// stays borrowed from `wire` whenever the named code decodes in
    /// place.
    ///
    /// # Errors
    ///
    /// [`CodeError::Malformed`] on an empty or truncated prefix or an
    /// unknown id (with zero repairs: no decoder ever ran), or whatever
    /// the named code's decoder reports. All of these are *detected
    /// omissions* to the caller.
    pub fn decode_tagged<'a>(&self, wire: &'a [u8]) -> (Result<TaggedWire<'a>, CodeError>, usize) {
        let Some((&first, rest)) = wire.split_first() else {
            return (Err(CodeError::Malformed), 0);
        };
        let (id, advert, coded) = if first & GOSSIP_FLAG != 0 {
            let Some((&ad, coded)) = rest.split_first() else {
                return (Err(CodeError::Malformed), 0);
            };
            // A parity-failing advert byte is a *detected* corruption of
            // the advertisement alone: the frame still decodes, the
            // receiver just hears no advertisement from this peer.
            (first & !GOSSIP_FLAG, RungAdvert::from_byte(ad), coded)
        } else {
            (first, None, rest)
        };
        let Some(code) = self.codes.get(id as usize) else {
            return (Err(CodeError::Malformed), 0);
        };
        let scan = code.decode_scan(coded);
        let outcome = scan.outcome.map(|(body, repaired)| TaggedWire {
            code_id: id,
            repaired,
            advert,
            body,
        });
        (outcome, scan.repairs)
    }
}

#[cfg(test)]
impl CodeBook {
    /// The tagged wire image of `body` as a fresh `Vec` (baseline
    /// budget) — what the unit tests corrupt and feed back.
    pub(crate) fn tagged(&self, id: u8, advert: Option<RungAdvert>, body: &[u8]) -> Vec<u8> {
        let mut wire = BytesMut::new();
        self.encode_tagged(id, advert, None, body, &mut wire);
        wire.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdaptiveConfig;

    #[test]
    fn codebook_roundtrips_every_rung() {
        let cfg = AdaptiveConfig::standard(8, 1);
        let book = CodeBook::from_specs(&cfg.ladder);
        assert_eq!(book.len(), 5);
        let body = b"mixed-epoch".to_vec();
        for id in 0..book.len() as u8 {
            let wire = book.tagged(id, None, &body);
            assert_eq!(wire[0], id);
            let got = book.decode_tagged(&wire).0.unwrap();
            assert_eq!(got.code_id, id);
            assert_eq!(*got.body, *body);
            assert!(!got.repaired);
        }
    }

    #[test]
    fn codebook_rejects_unknown_id_and_empty() {
        let book = CodeBook::from_specs(&[CodeSpec::Hamming74]);
        assert_eq!(book.decode_tagged(&[]), (Err(CodeError::Malformed), 0));
        let mut wire = book.tagged(0, None, b"x");
        wire[0] = 9; // corrupt the tag to an unknown id
        assert_eq!(book.decode_tagged(&wire), (Err(CodeError::Malformed), 0));
        assert_eq!(book.spec(0), Some(CodeSpec::Hamming74));
        assert_eq!(book.spec(3), None);
    }

    #[test]
    fn advert_byte_roundtrips_and_detects_single_flips() {
        for rung in 0..8u8 {
            for epoch in 0..16u8 {
                let ad = RungAdvert { rung, epoch };
                let byte = ad.to_byte();
                assert_eq!(RungAdvert::from_byte(byte), Some(ad));
                // The parity bit catches every single-bit corruption:
                // the advert is dropped, never misread.
                for bit in 0..8 {
                    assert_eq!(
                        RungAdvert::from_byte(byte ^ (1 << bit)),
                        None,
                        "rung {rung} epoch {epoch} bit {bit}"
                    );
                }
            }
        }
        // Exactly half the byte space is valid (even parity), and every
        // valid byte parses inside the packed ranges.
        let valid = (0..=255u8).filter(|b| RungAdvert::from_byte(*b).is_some());
        assert_eq!(valid.count(), 128);
    }

    #[test]
    fn epoch_serial_comparison_handles_wraparound() {
        assert!(RungAdvert::epoch_newer(1, 0));
        assert!(RungAdvert::epoch_newer(7, 0));
        assert!(
            !RungAdvert::epoch_newer(8, 0),
            "half-window ties break stale"
        );
        assert!(!RungAdvert::epoch_newer(15, 0), "behind is stale");
        assert!(RungAdvert::epoch_newer(2, 14), "wraparound stays newer");
        assert!(!RungAdvert::epoch_newer(7, 7), "equal is not newer");
    }

    #[test]
    fn codebook_gossip_frames_roundtrip_and_interoperate() {
        let cfg = AdaptiveConfig::standard(8, 1);
        let book = CodeBook::from_specs(&cfg.ladder);
        let body = b"piggyback".to_vec();
        let ad = RungAdvert { rung: 2, epoch: 9 };
        for id in 0..book.len() as u8 {
            let wire = book.tagged(id, Some(ad), &body);
            assert_eq!(wire[0], GOSSIP_FLAG | id, "the flag leads the frame");
            assert_eq!(wire[1], ad.to_byte());
            let t = book.decode_tagged(&wire).0.unwrap();
            assert_eq!(t.code_id, id);
            assert_eq!(t.advert, Some(ad));
            assert_eq!(*t.body, *body);
            // Legacy frames decode through the same pathway, advert-free.
            let legacy = book.tagged(id, None, &body);
            let t = book.decode_tagged(&legacy).0.unwrap();
            assert_eq!(t.advert, None);
            assert_eq!(*t.body, *body);
        }
        // A gossip frame truncated to its flag byte is malformed, not a
        // panic.
        let wire = book.tagged(0, Some(ad), &body);
        assert_eq!(
            book.decode_tagged(&wire[..1]),
            (Err(CodeError::Malformed), 0)
        );
    }
}
