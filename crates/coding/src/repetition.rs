//! Repetition coding with per-bit majority vote.
//!
//! The oldest correcting code there is: send `k` copies, let each bit be
//! decided by majority. Corruption confined to `⌊(k−1)/2⌋` copies is
//! repaired outright — the corresponding transmissions move from the
//! value-fault column back into *clean deliveries*, better than any
//! detector can do. The price is a rate of `1/k`, and heavier corruption
//! is silently miscorrected (majority of wrong bits wins), so repetition
//! pairs naturally with an outer checksum when residual detection
//! matters.

use crate::code::{ChannelCode, CodeError, DecodeScan};
use crate::SymbolBudget;
use bytes::{BufMut, BytesMut};

/// Loads up to 8 bytes little-endian, zero-padded — padding lanes are
/// unanimous zeros, so they neither vote wrong nor count as damage.
#[inline]
fn load_word(slice: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..slice.len()].copy_from_slice(slice);
    u64::from_le_bytes(buf)
}

/// The `k`-fold repetition code (`k` odd), majority-voted per bit.
#[derive(Clone, Copy, Debug)]
pub struct Repetition {
    k: usize,
}

impl Repetition {
    /// A code sending `k` copies of every frame.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even or zero — ties would make majority
    /// undefined.
    pub fn new(k: usize) -> Self {
        assert!(
            k >= 1 && k % 2 == 1,
            "repetition count must be odd, got {k}"
        );
        Repetition { k }
    }

    /// Number of copies sent.
    pub fn copies(&self) -> usize {
        self.k
    }

    /// Corruptions of up to this many whole copies are corrected.
    pub fn correctable_copies(&self) -> usize {
        (self.k - 1) / 2
    }

    /// The bit-at-a-time majority vote: reference semantics for every
    /// odd `k`, the fallback for `k > 5`, and the differential oracle
    /// for the word-wide fast path. Kept out of line, off the fast
    /// path. The caller has checked that the wire length divides by
    /// `k`; the vote reads `k` whole copies and nothing past them.
    #[inline(never)]
    fn decode_repaired_scalar(&self, wire: &[u8]) -> (Vec<u8>, bool) {
        let len = wire.len() / self.k;
        let mut payload = Vec::with_capacity(len);
        let mut repaired = false;
        for i in 0..len {
            let mut voted = 0u8;
            for bit in 0..8 {
                let ones = (0..self.k)
                    .filter(|&copy| wire[copy * len + i] & (1 << bit) != 0)
                    .count();
                if ones * 2 > self.k {
                    voted |= 1 << bit;
                }
                // A non-unanimous vote means some copy arrived damaged:
                // the majority repaired it, and that is observable.
                repaired |= ones != 0 && ones != self.k;
            }
            payload.push(voted);
        }
        (payload, repaired)
    }

    /// The word-wide majority vote for `k ∈ {3, 5}`: 64 bit positions
    /// per step, the vote as pure boolean algebra on whole words —
    /// `k = 3` is the textbook 2-of-3 majority, `k = 5` runs two
    /// carry-save adders and reads the majority off the carries.
    /// Disagreement (some copy damaged, majority repaired it) is one
    /// `OR & !AND` per word, matching the scalar `ones ∉ {0, k}` test.
    fn decode_words(&self, wire: &[u8]) -> (Vec<u8>, bool) {
        let len = wire.len() / self.k;
        let mut payload = vec![0u8; len];
        let mut disagree = 0u64;
        let mut i = 0;
        while i < len {
            let take = (len - i).min(8);
            let w = |copy: usize| load_word(&wire[copy * len + i..copy * len + i + take]);
            let (maj, any, all) = match self.k {
                3 => {
                    let (a, b, c) = (w(0), w(1), w(2));
                    ((a & b) | (a & c) | (b & c), a | b | c, a & b & c)
                }
                5 => {
                    let (a, b, c, d, e) = (w(0), w(1), w(2), w(3), w(4));
                    // Two full adders: a+b+c = 2·c1 + s1, then
                    // s1+d+e = 2·c2 + s2, so the per-lane popcount is
                    // 2·(c1+c2) + s2 and majority (≥ 3) is both
                    // carries, or exactly one carry plus the sum bit.
                    let s1 = a ^ b ^ c;
                    let c1 = (a & b) | (a & c) | (b & c);
                    let s2 = s1 ^ d ^ e;
                    let c2 = (s1 & d) | (s1 & e) | (d & e);
                    let maj = (c1 & c2) | ((c1 ^ c2) & s2);
                    (maj, a | b | c | d | e, a & b & c & d & e)
                }
                _ => unreachable!("decode_words is only dispatched for k = 3 or 5"),
            };
            disagree |= any & !all;
            payload[i..i + take].copy_from_slice(&maj.to_le_bytes()[..take]);
            i += take;
        }
        (payload, disagree != 0)
    }
}

impl ChannelCode for Repetition {
    fn name(&self) -> String {
        format!("repetition{}", self.k)
    }

    fn encoded_len(&self, payload_len: usize) -> usize {
        payload_len * self.k
    }

    fn encode_into(&self, payload: &[u8], _budget: Option<SymbolBudget>, out: &mut BytesMut) {
        out.reserve(self.encoded_len(payload.len()));
        for _ in 0..self.k {
            out.put_slice(payload);
        }
    }

    fn decode_scan<'a>(&self, wire: &'a [u8]) -> DecodeScan<'a> {
        if !wire.len().is_multiple_of(self.k) {
            return DecodeScan::rejected(CodeError::Malformed, 0);
        }
        let (payload, repaired) = match self.k {
            // One copy: the vote is the wire, unanimously.
            1 => return DecodeScan::delivered(wire, false, 0),
            3 | 5 => self.decode_words(wire),
            _ => self.decode_repaired_scalar(wire),
        };
        // The vote has no finer repair unit than the frame.
        DecodeScan::delivered(payload, repaired, usize::from(repaired))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::FrameOutcome;

    #[test]
    fn roundtrip() {
        let code = Repetition::new(3);
        for payload in [b"".to_vec(), b"q".to_vec(), b"majority".to_vec()] {
            let wire = code.encode(&payload);
            assert_eq!(wire.len(), payload.len() * 3);
            assert_eq!(code.decode(&wire).unwrap(), payload);
        }
    }

    #[test]
    fn corrects_one_fully_corrupted_copy_of_three() {
        let code = Repetition::new(3);
        let payload = b"heard-of".to_vec();
        let mut wire = code.encode(&payload);
        for b in &mut wire[..payload.len()] {
            *b = !*b; // obliterate the first copy entirely
        }
        assert_eq!(code.classify(&payload, &wire), FrameOutcome::Delivered);
    }

    #[test]
    fn two_aligned_corrupt_copies_of_three_miscorrect() {
        let code = Repetition::new(3);
        let payload = vec![0x00u8; 4];
        let mut wire = code.encode(&payload);
        for b in &mut wire[..8] {
            *b = 0xFF; // copies 0 and 1 agree on the wrong bits
        }
        assert_eq!(
            code.classify(&payload, &wire),
            FrameOutcome::UndetectedValueFault
        );
    }

    #[test]
    fn word_wide_vote_matches_scalar_oracle() {
        // Random lengths (covering word tails of every size) and
        // random per-copy corruption: voted bytes AND the repaired
        // verdict must match the bit-at-a-time oracle exactly, for
        // both fast-path k values and a fallback one.
        let mut state = 0xC0FE_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for k in [1usize, 3, 5, 7] {
            let code = Repetition::new(k);
            for len in [0usize, 1, 5, 7, 8, 9, 16, 33, 100] {
                for _ in 0..16 {
                    let payload: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                    let mut wire = code.encode(&payload);
                    // Sprinkle 0..=3 byte corruptions anywhere.
                    if !wire.is_empty() {
                        for _ in 0..(next() % 4) {
                            let at = (next() as usize) % wire.len();
                            wire[at] ^= next() as u8;
                        }
                    }
                    let voted = code.decode_scan(&wire).outcome;
                    assert_eq!(
                        voted.map(|(payload, repaired)| (payload.into_owned(), repaired)),
                        Ok(code.decode_repaired_scalar(&wire)),
                        "k {k}, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn length_not_multiple_of_k_is_malformed() {
        let code = Repetition::new(3);
        assert_eq!(code.decode(&[1, 2, 3, 4]), Err(CodeError::Malformed));
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_k_panics() {
        let _ = Repetition::new(4);
    }
}
