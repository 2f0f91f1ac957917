//! Scripted link faults: exact, replayable per-link fault schedules.
//!
//! The seeded [`crate::NoiseTrace`]s corrupt *statistically* — the
//! right tool for measuring regimes, the wrong one for replaying a
//! specific adversary. The exhaustive model checker (`heardof-mc`)
//! works in the opposite currency: its counterexamples are exact
//! per-round, per-link action sequences (deliver / omit / forge this
//! advertisement). A [`FaultScript`] carries such a sequence onto the
//! real wire: each scripted fault is a byte-level edit of the tagged
//! frame that provokes, under the production decode path, exactly the
//! observation the checker's abstract action produced —
//!
//! * [`LinkFault::Omit`] overwrites the tag's id bits with an id no
//!   [`crate::CodeBook`] holds, so the receiver rejects the frame
//!   cleanly at *any* rung (a detected omission — unlike bit flips in
//!   the body, which a correcting rung would repair);
//! * [`LinkFault::MuteAdvert`] flips one bit of the advertisement
//!   byte, so its parity check fails and the receiver keeps the frame
//!   but hears no advertisement (the single-bit-flip fate);
//! * [`LinkFault::Forge`] replaces the advertisement byte with a
//!   chosen parity-valid forgery — the strongest advert adversary the
//!   wire format admits.
//!
//! [`crate::NoiseTrace::scripted`] wraps a script as a noise trace, so
//! every existing substrate and conformance harness replays it without
//! modification; unscripted links deliver untouched.

use crate::adaptive::{RungAdvert, GOSSIP_FLAG};
use std::collections::BTreeMap;

/// One scripted action on one link in one round. Anything *not*
/// scripted is a clean delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkFault {
    /// Reject the frame at the receiver: the tag byte's id bits are
    /// overwritten with an id outside every book, which the decode
    /// path turns into a detected omission regardless of the rung in
    /// force. Scripted drops and scripted detected omissions are the
    /// same action on purpose — a receiver cannot tell them apart
    /// ([`crate::RoundTally::omissions`]), so neither can a
    /// counterexample.
    Omit,
    /// Deliver the frame but destroy its advertisement: one bit of the
    /// advert byte flips, the parity check fails, and the receiver
    /// hears no advertisement from this peer this round. No-op on
    /// frames that carry no advertisement.
    MuteAdvert,
    /// Deliver the frame with a forged, parity-valid advertisement in
    /// place of the real one. No-op on frames that carry no
    /// advertisement.
    Forge(RungAdvert),
    /// Rewrite **every** byte of the frame (complement it) while
    /// preserving its delivery structure — the fully-defective
    /// adversary's strongest per-link move. Against a tagged frame this
    /// is an omission (the complemented tag names no code in any book);
    /// against a content-oblivious pattern frame it is a *no-op*: the
    /// receiver never reads the bytes, only counts the arrival.
    CorruptAll,
}

/// A deterministic per-link fault schedule keyed by
/// `(round, sender, receiver)` — the serialized form of a model-checker
/// counterexample, and a pure function of its coordinates like every
/// noise trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultScript {
    entries: BTreeMap<(u64, u32, u32), LinkFault>,
}

impl FaultScript {
    /// The empty script: every link delivers clean.
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Builder form of [`FaultScript::insert`].
    pub fn with(mut self, round: u64, sender: u32, receiver: u32, fault: LinkFault) -> Self {
        self.insert(round, sender, receiver, fault);
        self
    }

    /// Schedules `fault` on the `sender → receiver` link in `round`
    /// (1-based), replacing any earlier entry for that link-round.
    pub fn insert(&mut self, round: u64, sender: u32, receiver: u32, fault: LinkFault) {
        self.entries.insert((round, sender, receiver), fault);
    }

    /// The fault scheduled for this link-round, if any.
    pub fn get(&self, round: u64, sender: u32, receiver: u32) -> Option<LinkFault> {
        self.entries.get(&(round, sender, receiver)).copied()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates the schedule in `(round, sender, receiver)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&(u64, u32, u32), &LinkFault)> {
        self.entries.iter()
    }

    /// The last round with a scheduled fault (0 when empty) — replay
    /// harnesses run at least this many rounds.
    pub fn horizon(&self) -> u64 {
        self.entries.keys().next_back().map_or(0, |k| k.0)
    }

    /// Applies this link-round's scripted fault to a tagged wire image
    /// in place, returning how many bits changed. Unscripted
    /// link-rounds (and advert faults on advert-less frames) leave the
    /// frame untouched.
    pub fn apply(&self, round: u64, sender: u32, receiver: u32, data: &mut [u8]) -> usize {
        let Some(fault) = self.get(round, sender, receiver) else {
            return 0;
        };
        match fault {
            LinkFault::Omit => {
                if data.is_empty() {
                    return 0;
                }
                let before = data[0];
                data[0] |= !GOSSIP_FLAG; // id 127: outside every book
                ((before ^ data[0]).count_ones()) as usize
            }
            LinkFault::MuteAdvert => {
                if data.len() < 2 || data[0] & GOSSIP_FLAG == 0 {
                    return 0;
                }
                data[1] ^= 0x01;
                1
            }
            LinkFault::Forge(ad) => {
                if data.len() < 2 || data[0] & GOSSIP_FLAG == 0 {
                    return 0;
                }
                let before = data[1];
                data[1] = ad.to_byte();
                ((before ^ data[1]).count_ones()) as usize
            }
            LinkFault::CorruptAll => {
                for byte in data.iter_mut() {
                    *byte = !*byte;
                }
                data.len() * 8
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveConfig, CodeBook, CodeError};

    fn book() -> CodeBook {
        CodeBook::new(&AdaptiveConfig::standard(3, 1).ladder).expect("standard ladder fits")
    }

    #[test]
    fn omit_rejects_under_every_rung() {
        let book = book();
        let advert = RungAdvert { rung: 1, epoch: 4 };
        for id in 0..book.len() as u8 {
            let mut wire = book.tagged(id, Some(advert), b"payload");
            let script = FaultScript::new().with(3, 0, 1, LinkFault::Omit);
            assert!(script.apply(3, 0, 1, &mut wire) > 0);
            assert!(
                matches!(book.decode_tagged(&wire).0, Err(CodeError::Malformed)),
                "rung {id} must reject the zapped tag"
            );
        }
    }

    #[test]
    fn mute_advert_keeps_the_frame_and_drops_the_advert() {
        let book = book();
        let advert = RungAdvert { rung: 2, epoch: 7 };
        let mut wire = book.tagged(1, Some(advert), b"payload");
        let script = FaultScript::new().with(1, 2, 0, LinkFault::MuteAdvert);
        assert_eq!(script.apply(1, 2, 0, &mut wire), 1);
        let decoded = book.decode_tagged(&wire).0.expect("frame survives");
        assert_eq!(decoded.advert, None, "parity must kill the advert");
        assert_eq!(*decoded.body, *b"payload");
    }

    #[test]
    fn forge_replaces_the_advert_with_a_parity_valid_one() {
        let book = book();
        let real = RungAdvert { rung: 0, epoch: 0 };
        let forged = RungAdvert { rung: 2, epoch: 9 };
        let mut wire = book.tagged(0, Some(real), b"payload");
        let script = FaultScript::new().with(5, 1, 2, LinkFault::Forge(forged));
        script.apply(5, 1, 2, &mut wire);
        let decoded = book.decode_tagged(&wire).0.expect("frame survives");
        assert_eq!(decoded.advert, Some(forged));
        assert_eq!(*decoded.body, *b"payload");
    }

    #[test]
    fn advert_faults_are_noops_on_advertless_frames() {
        let book = book();
        let mut wire = book.tagged(0, None, b"payload");
        let pristine = wire.clone();
        let script = FaultScript::new()
            .with(1, 0, 1, LinkFault::MuteAdvert)
            .with(2, 0, 1, LinkFault::Forge(RungAdvert { rung: 3, epoch: 1 }));
        assert_eq!(script.apply(1, 0, 1, &mut wire), 0);
        assert_eq!(script.apply(2, 0, 1, &mut wire), 0);
        assert_eq!(wire, pristine);
    }

    #[test]
    fn corrupt_all_rejects_tagged_frames_at_every_rung() {
        let book = book();
        let advert = RungAdvert { rung: 1, epoch: 4 };
        for id in 0..book.len() as u8 {
            let mut wire = book.tagged(id, Some(advert), b"payload");
            let script = FaultScript::new().with(2, 0, 1, LinkFault::CorruptAll);
            assert_eq!(script.apply(2, 0, 1, &mut wire), wire.len() * 8);
            assert!(
                book.decode_tagged(&wire).0.is_err(),
                "rung {id} must reject the complemented frame"
            );
        }
    }

    #[test]
    fn corrupt_all_cannot_touch_a_pattern_frame_signal() {
        // The fully-defective move rewrites every byte — but a pattern
        // frame's signal is its length and arrival, which survive.
        let mut frame = crate::oblivious_value_frame().to_vec();
        let script = FaultScript::new().with(1, 0, 1, LinkFault::CorruptAll);
        assert_eq!(script.apply(1, 0, 1, &mut frame), 16);
        assert_eq!(frame.len(), crate::OBL_VALUE_LEN, "length is untouchable");
        assert_eq!(
            crate::oblivious_channel(frame.len()),
            Some(crate::ObliviousChannel::Value)
        );
    }

    #[test]
    fn unscripted_coordinates_deliver_clean() {
        let script = FaultScript::new().with(4, 0, 1, LinkFault::Omit);
        let mut data = vec![0x81u8, 0x0C, 0xFF];
        assert_eq!(script.apply(4, 1, 0, &mut data), 0, "other link untouched");
        assert_eq!(script.apply(5, 0, 1, &mut data), 0, "other round untouched");
        assert_eq!(script.horizon(), 4);
    }
}
