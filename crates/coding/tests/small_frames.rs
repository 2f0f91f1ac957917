//! Small frames by differential property: at every body length a frame
//! of this system can have — under one 64-lane batch, exactly one, one
//! and a tail — the production SECDED and interleave paths equal the
//! block-at-a-time, bit-at-a-time oracle this file carries (written
//! from the code's definition, independently of the crate's kernels):
//! the same wire bytes out, and
//! from clean, flipped, burst-hit and arbitrary hostile wires the same
//! body, `repaired` flag, `repairs` count **and** error kind.
//!
//! `repairs` is counted in rejected frames too and feeds
//! `RoundTally::evidence`, so a padding lane of the last batch that
//! raised a repaired or detected mask would move the adaptive
//! controller, not just a counter; the oracle here never pads — it
//! looks only at the lanes a wire has.

use bytes::{BufMut, BytesMut};
use heardof_coding::{
    stripe_offsets, ChannelCode, CodeBook, CodeError, CodeSpec, Hamming74, Interleaved, RungAdvert,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// What a decoder made of a wire: `(body, repaired)` or the error kind,
/// and the repair count either way.
type Verdict = (Result<(Vec<u8>, bool), CodeError>, usize);

/// Data bit positions within a SECDED block, in nibble-bit order
/// (nibble bit 0 → position 3, 1 → 5, 2 → 6, 3 → 7).
const DATA_POSITIONS: [u8; 4] = [3, 5, 6, 7];

/// One nibble's extended Hamming(8,4) block: data bits at
/// [`DATA_POSITIONS`], parities `p_k` at positions 1, 2 and 4 over the
/// positions whose index has bit `k` set, and an overall even-parity
/// bit at position 0.
fn encode_nibble(nibble: u8) -> u8 {
    let mut block = 0u8;
    for (i, &pos) in DATA_POSITIONS.iter().enumerate() {
        if nibble & (1 << i) != 0 {
            block |= 1 << pos;
        }
    }
    for p in [1u8, 2, 4] {
        let parity = (3..8u8)
            .filter(|&pos| pos & p != 0 && block & (1 << pos) != 0)
            .count();
        if parity % 2 == 1 {
            block |= 1 << p;
        }
    }
    if block.count_ones() % 2 == 1 {
        block |= 1;
    }
    block
}

/// One SECDED block decoded: `Some((nibble, repaired))` after
/// correcting at most one flipped bit (`repaired` whenever the block
/// arrived off-codeword), `None` on a detected double error.
fn decode_block(mut block: u8) -> Option<(u8, bool)> {
    let syndrome = (1..8u8)
        .filter(|&pos| block & (1 << pos) != 0)
        .fold(0u8, |s, pos| s ^ pos);
    let repaired = match (syndrome, block.count_ones().is_multiple_of(2)) {
        (0, true) => false,
        (0, false) => true,
        (s, false) => {
            block ^= 1 << s;
            true
        }
        (_, true) => return None,
    };
    let nibble = DATA_POSITIONS
        .iter()
        .enumerate()
        .filter(|&(_, &pos)| block & (1 << pos) != 0)
        .map(|(i, _)| 1u8 << i)
        .sum();
    Some((nibble, repaired))
}

/// The depth-`depth` stripe permutation a bit at a time: bits written
/// row-major into a `depth × ⌈bits/depth⌉` matrix and read
/// column-major, skipping the missing cells of the last row
/// (`forward`), or the inverse.
fn permute_scalar(data: &[u8], depth: usize, forward: bool) -> Vec<u8> {
    let n = data.len() * 8;
    if depth <= 1 || n == 0 {
        return data.to_vec();
    }
    let mut out = vec![0u8; data.len()];
    let cols = n.div_ceil(depth);
    let mut k = 0;
    for col in 0..cols {
        for row in 0..depth {
            let w = row * cols + col;
            if w >= n {
                continue;
            }
            let (src, dst) = if forward { (w, k) } else { (k, w) };
            if data[src / 8] & (1 << (src % 8)) != 0 {
                out[dst / 8] |= 1 << (dst % 8);
            }
            k += 1;
        }
    }
    out
}

/// [`encode_nibble`] per nibble, then the bit-at-a-time interleave.
fn oracle_encode(body: &[u8], depth: Option<usize>) -> Vec<u8> {
    let codeword: Vec<u8> = body
        .iter()
        .flat_map(|b| [encode_nibble(b & 0x0F), encode_nibble(b >> 4)])
        .collect();
    match depth {
        Some(depth) => permute_scalar(&codeword, depth, true),
        None => codeword,
    }
}

/// The bit-at-a-time deinterleave, then [`decode_block`] per block of
/// the wire — never a padding block.
fn oracle_decode(wire: &[u8], depth: Option<usize>) -> Verdict {
    let codeword = match depth {
        Some(depth) => permute_scalar(wire, depth, false),
        None => wire.to_vec(),
    };
    if codeword.len() % 2 != 0 {
        return (Err(CodeError::Malformed), 0);
    }
    let (mut nibbles, mut repairs, mut detected) = (Vec::new(), 0usize, false);
    for &block in &codeword {
        let (nibble, repaired) = decode_block(block).unwrap_or_else(|| {
            detected = true;
            (0, false)
        });
        nibbles.push(nibble);
        repairs += usize::from(repaired);
    }
    if detected {
        return (Err(CodeError::Detected), repairs);
    }
    let body = nibbles.chunks(2).map(|n| n[0] | n[1] << 4).collect();
    (Ok((body, repairs > 0)), repairs)
}

fn production(code: &dyn ChannelCode, wire: &[u8]) -> Verdict {
    let scan = code.decode_scan(wire);
    let outcome = scan
        .outcome
        .map(|(body, repaired)| (body.into_owned(), repaired));
    (outcome, scan.repairs)
}

/// Plain SECDED and every interleave depth over it.
fn codes() -> Vec<(Option<usize>, Box<dyn ChannelCode>)> {
    let mut all: Vec<(Option<usize>, Box<dyn ChannelCode>)> = vec![(None, Box::new(Hamming74))];
    for depth in [2usize, 4, 8, 16, 32] {
        all.push((Some(depth), Box::new(Interleaved::new(Hamming74, depth))));
    }
    all
}

/// The lengths around one and two batches, by name, then every length
/// a single-instance frame body and a few slots of a mux image reach.
fn body_lengths() -> impl Iterator<Item = usize> {
    [31usize, 32, 33, 63, 64, 65].into_iter().chain(0..=130)
}

fn body(len: usize, rng: &mut StdRng) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn encode_equals_the_scalar_oracle_at_every_length() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for len in body_lengths() {
        let body = body(len, &mut rng);
        for (depth, code) in codes() {
            // Appended after what the buffer already holds, as a tagged
            // frame's coded part is.
            let mut out = BytesMut::new();
            out.put_slice(b"\x82\x9a");
            code.encode_into(&body, None, &mut out);
            assert_eq!(&out[..2], b"\x82\x9a", "len {len}, depth {depth:?}");
            assert_eq!(
                out[2..],
                oracle_encode(&body, depth),
                "len {len}, depth {depth:?}"
            );
            assert_eq!(out.len() - 2, code.encoded_len(len));
        }
    }
}

#[test]
fn decode_equals_the_oracle_under_flips_and_stripe_bursts() {
    let mut rng = StdRng::seed_from_u64(0xF11B);
    for len in body_lengths() {
        let body = body(len, &mut rng);
        for (depth, code) in codes() {
            let clean = oracle_encode(&body, depth);
            assert_eq!(production(&*code, &clean), (Ok((body.clone(), false)), 0));
            if clean.is_empty() {
                continue;
            }
            let nbits = clean.len() * 8;
            for flips in 0..=6 {
                for _ in 0..4 {
                    let mut wire = clean.clone();
                    for _ in 0..flips {
                        let bit = rng.gen_range(0..nbits);
                        wire[bit / 8] ^= 1 << (bit % 8);
                    }
                    let what = format!("len {len}, depth {depth:?}, {flips} flips");
                    assert_eq!(
                        production(&*code, &wire),
                        oracle_decode(&wire, depth),
                        "{what}"
                    );
                }
            }
            // One whole wire stripe obliterated: under the interleaver a
            // run of single-block hits, under plain SECDED a dead block
            // or two — the same verdict from both decoders either way.
            let offsets = stripe_offsets(nbits, depth.unwrap_or(8));
            let stripe = rng.gen_range(0..offsets.len() - 1);
            let mut wire = clean.clone();
            for bit in offsets[stripe]..offsets[stripe + 1] {
                wire[bit / 8] ^= 1 << (bit % 8);
            }
            let what = format!("len {len}, depth {depth:?}, stripe {stripe}");
            assert_eq!(
                production(&*code, &wire),
                oracle_decode(&wire, depth),
                "{what}"
            );
        }
    }
}

#[test]
fn decode_equals_the_oracle_on_hostile_bytes_of_every_length() {
    let mut rng = StdRng::seed_from_u64(0xBAD5);
    let codewords: [u8; 16] = std::array::from_fn(|nibble| encode_nibble(nibble as u8));
    for len in 0..=140usize {
        for round in 0..6 {
            // Arbitrary bytes, and bytes that are mostly codewords with
            // an occasional flipped bit, so that some wires decode, some
            // repair and some die.
            let mut wire = body(len, &mut rng);
            if round % 2 == 1 {
                for byte in wire.iter_mut() {
                    let flip = if *byte & 0xC0 == 0 {
                        1 << (*byte >> 4 & 7)
                    } else {
                        0
                    };
                    *byte = codewords[usize::from(*byte & 0x0F)] ^ flip;
                }
            }
            for (depth, code) in codes() {
                let got = production(&*code, &wire);
                assert_eq!(
                    got,
                    oracle_decode(&wire, depth),
                    "len {len}, depth {depth:?}"
                );
                if len % 2 == 1 {
                    // An odd length is no SECDED codeword; with an
                    // interleaver in front, an odd length whose bits the
                    // depth does not divide took the scalar permutation
                    // to get here.
                    assert_eq!(got, (Err(CodeError::Malformed), 0));
                }
            }
        }
    }
}

#[test]
fn tagged_frames_equal_the_oracle_with_and_without_an_advert() {
    let specs = [CodeSpec::Hamming74, CodeSpec::Interleaved { depth: 16 }];
    let depths = [None, Some(16usize)];
    let book = CodeBook::from_specs(&specs);
    let mut rng = StdRng::seed_from_u64(0x7A66);
    for len in body_lengths() {
        let body = body(len, &mut rng);
        for (id, depth) in depths.into_iter().enumerate() {
            for advert in [None, Some(RungAdvert { rung: 1, epoch: 5 })] {
                let mut wire = BytesMut::new();
                book.encode_tagged(id as u8, advert, None, &body, &mut wire);
                let prefix = if advert.is_some() { 2 } else { 1 };
                assert_eq!(
                    wire[prefix..],
                    oracle_encode(&body, depth),
                    "len {len}, id {id}"
                );
                let mut wire = wire.to_vec();
                for _ in 0..rng.gen_range(0..=6usize) {
                    // Past the tag: a flipped id or advert is the
                    // book's business, not the code's.
                    if wire.len() > prefix {
                        let bit = rng.gen_range(prefix * 8..wire.len() * 8);
                        wire[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                let (outcome, repairs) = book.decode_tagged(&wire);
                let got = outcome.map(|tagged| {
                    assert_eq!((tagged.code_id, tagged.advert), (id as u8, advert));
                    (tagged.body.into_owned(), tagged.repaired)
                });
                let what = format!("len {len}, id {id}, advert {advert:?}");
                assert_eq!(
                    (got, repairs),
                    oracle_decode(&wire[prefix..], depth),
                    "{what}"
                );
            }
        }
    }
}
