//! Criterion: the hot-path kernels of the zero-copy frame pipeline vs.
//! their scalar / copying baselines.
//!
//! Ten gated measurements share one committed artifact
//! (`BENCH_throughput.json`, `heardof-bench-report/v1` schema, read by
//! the CI regression gate):
//!
//! 1. **Hamming(8,4) SECDED round trip** — the bitsliced
//!    [`bitslice::encode64`]/[`bitslice::decode64`] kernels evaluate
//!    every parity and syndrome equation across a 64-slot batch at
//!    once; claim: **≥ 4× scalar**.
//! 2. **Interleave permute** — the tiled 8×8 bit-matrix transpose
//!    behind [`interleave_bits`] vs. the bit-at-a-time scalar oracle
//!    at depth 16; claim: **≥ 4× scalar**.
//! 3. **Mux assemble + decode** — one multiplexed wire image built in
//!    reused arenas and read back through the borrowed views, vs. the
//!    owned-allocation baseline doing the same work; claim: **≥ 2×**.
//! 4. **Steady-state allocation discipline** — a counting global
//!    allocator meters full engine rounds; tripling the frame traffic
//!    on a detection-only rung must not change the allocation bill;
//!    claim: **zero allocations per frame**. The heavy-rung
//!    (`Interleaved{16}`) per-round count is committed alongside; like
//!    every allocation count it may only fall.
//! 5. **The fountain rung's allocation bill** — one 64-slot
//!    `Fountain { repair: 8 }` image encoded into a warm arena and
//!    decoded clean; claim: **≤ 8 allocations per round trip** (the
//!    decoder's row table and its image are the two it makes).
//! 6. **A whole run's allocation bill** — one clean two-round
//!    `run_async` at n = 16 on CRC-32 (the repository benchmark's
//!    `clean-single` shape): wiring is per run and frames cross
//!    borrowed, the outcome's heard-of sets hold their word inline,
//!    the round is a plain lockstep loop (no task futures, no wakers)
//!    and the stepper owns its receivers' arenas (no boxed sink, no
//!    lock); claim: **≤ 420 allocations per run**. Ten more lockstep
//!    rounds at n = 8 cost what they cost at three copies per frame;
//!    claim: **≤ 120 allocations** (one kept log per engine per round,
//!    and the run's per-round history).
//! 7. **The frame sizes the system sends** — a single-instance frame
//!    body is 29 bytes = 58 SECDED blocks, *under* one 64-lane batch,
//!    and its depth-16 codeword is a 16 × 29 bit matrix no tile
//!    divides. The production [`Hamming74`] round trip on that body vs.
//!    the block-at-a-time oracle — stack arrays, so leaner than the
//!    `Vec`-building tail loops the padded batch replaced; claim:
//!    **≥ 2×** — and the production permute of that 58-byte codeword
//!    vs. the bit-at-a-time oracle; claim: **≥ 3×**. One
//!    `Interleaved{16}` decode of the 60-byte tagged wire makes
//!    **≤ 1 allocation** (the payload).
//!
//! Two more ratios ride the same `_speedup` gate without a claim:
//! **trace noise**, ns per 49-byte frame from one sender to its 7
//! receivers (n = 8) under a bursty and a calm Gilbert–Elliott channel,
//! drawn per event by `NoiseTrace::corrupt_frame` (v2) vs. bit by bit
//! by the chain it replaced, `GilbertElliott::apply` from a stationary
//! start on a per-frame stream (v1, the statistical oracle of its
//! tests): `trace_noise_bursty_v2_speedup` and
//! `trace_noise_calm_v2_speedup`. The two draw different flips of the
//! same law, so the passes are checked to flip alike in total before
//! they are timed.

use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use heardof_async::{run_async, AsyncConfig};
use heardof_bench::report::BenchReport;
use heardof_coding::bitslice::{self, LANES};
use heardof_coding::{
    deinterleave_bits, interleave_bits, pack_slots_into, patch_slots, unpack_slots_view,
    AdaptiveConfig, ChannelCode, CodeBook, CodeError, CodeSpec, GilbertElliott, Hamming74,
    NoisePhase, NoiseTrace, RungAdvert, SymbolBudget,
};
use heardof_core::{Ate, AteParams};
use heardof_engine::{
    decode_body, encode_body_into, Frame, Framing, Ingest, RoundEngine, COPY_OFFSET,
};
use heardof_model::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The system allocator with an allocation-event odometer, so the
/// bench binary can commit allocation *counts* next to nanoseconds.
/// Frees are not counted: the gated claim is about acquiring memory on
/// the hot path.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Batches per measured pass — enough work that one pass is far above
/// timer resolution.
const BATCHES: usize = 1024;

/// The seed nibbles, precomputed outside the timed region (the pass
/// must measure the kernels, not input synthesis): every lane
/// distinct, every batch distinct, no RNG — the committed workload is
/// reproducible by inspection.
fn inputs() -> Vec<[u8; LANES]> {
    (0..BATCHES)
        .map(|b| {
            let mut nibbles = [0u8; LANES];
            for (i, nib) in nibbles.iter_mut().enumerate() {
                *nib = ((i + 3 * b) % 16) as u8;
            }
            nibbles
        })
        .collect()
}

/// Folds a decode result into a checksum the optimizer cannot discard,
/// in eight word-wide adds (cheap enough not to dilute the ratio).
fn fold(nibbles: &[u8; LANES], repaired: u64, detected: u64) -> u64 {
    nibbles
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .fold(repaired.wrapping_add(detected), u64::wrapping_add)
}

// ---------------------------------------------------------------------
// The scalar baselines: SECDED a block at a time and the interleave a
// bit at a time, as the coding crate's test-only oracles compute them.
// ---------------------------------------------------------------------

/// Data bit positions within a SECDED block, in nibble-bit order
/// (nibble bit 0 → position 3, 1 → 5, 2 → 6, 3 → 7).
const DATA_POSITIONS: [u8; 4] = [3, 5, 6, 7];

/// One nibble's extended Hamming(8,4) block: data bits at
/// [`DATA_POSITIONS`], parities `p_k` at positions 1, 2 and 4, and an
/// overall even-parity bit at position 0.
fn encode_nibble(nibble: u8) -> u8 {
    debug_assert!(nibble < 16);
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

fn extract_nibble(block: u8) -> u8 {
    DATA_POSITIONS
        .iter()
        .enumerate()
        .filter(|&(_, &pos)| block & (1 << pos) != 0)
        .map(|(i, _)| 1u8 << i)
        .sum()
}

/// One SECDED block decoded: `Ok((nibble, repaired))` after correcting
/// at most one flipped bit, `Err` on a detected double error.
fn decode_block(mut block: u8) -> Result<(u8, bool), CodeError> {
    let syndrome = (1..8u8)
        .filter(|&pos| block & (1 << pos) != 0)
        .fold(0u8, |s, pos| s ^ pos);
    let parity_ok = block.count_ones().is_multiple_of(2);
    let repaired = match (syndrome, parity_ok) {
        (0, true) => false,
        (0, false) => true,
        (s, false) => {
            block ^= 1 << s;
            true
        }
        (_, true) => return Err(CodeError::Detected),
    };
    Ok((extract_nibble(block), repaired))
}

/// 64 nibbles through [`encode_nibble`]. Never inlined, so the pass
/// measures the loop it names.
#[inline(never)]
fn encode_scalar(nibbles: &[u8; LANES]) -> [u8; LANES] {
    let mut blocks = [0u8; LANES];
    for (block, &nib) in blocks.iter_mut().zip(nibbles) {
        *block = encode_nibble(nib & 0x0F);
    }
    blocks
}

/// 64 blocks through [`decode_block`], with the `(nibbles, repaired,
/// detected)` masks of [`bitslice::decode64`].
#[inline(never)]
fn decode_scalar(blocks: &[u8; LANES]) -> ([u8; LANES], u64, u64) {
    let (mut nibbles, mut repaired, mut detected) = ([0u8; LANES], 0u64, 0u64);
    for (i, &block) in blocks.iter().enumerate() {
        match decode_block(block) {
            Ok((nib, rep)) => {
                nibbles[i] = nib;
                repaired |= u64::from(rep) << i;
            }
            Err(CodeError::Malformed) => unreachable!("block decode never reports Malformed"),
            Err(CodeError::Detected) => detected |= 1 << i,
        }
    }
    (nibbles, repaired, detected)
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

/// The bit-at-a-time interleave (codeword order → wire order).
#[inline(never)]
fn interleave_bits_scalar(data: &[u8], depth: usize) -> Vec<u8> {
    permute_scalar(data, depth, true)
}

/// The bit-at-a-time deinterleave (wire order → codeword order).
#[inline(never)]
fn deinterleave_bits_scalar(data: &[u8], depth: usize) -> Vec<u8> {
    permute_scalar(data, depth, false)
}

/// One full scalar pass: encode, deterministic single-bit noise on
/// every eighth lane, decode, fold.
fn scalar_pass(inputs: &[[u8; LANES]]) -> u64 {
    let mut acc = 0u64;
    for (b, nibbles) in inputs.iter().enumerate() {
        let mut blocks = encode_scalar(nibbles);
        for lane in (0..LANES).step_by(8) {
            blocks[lane] ^= 1 << ((b + lane) % 8);
        }
        let (nibbles, repaired, detected) = decode_scalar(&blocks);
        acc = acc.wrapping_add(fold(&nibbles, repaired, detected));
    }
    acc
}

/// The identical workload through the bitsliced kernels — same inputs,
/// same noise, same fold, so the two passes are comparable
/// cycle-for-cycle (and their checksums must agree exactly).
fn bitsliced_pass(inputs: &[[u8; LANES]]) -> u64 {
    let mut acc = 0u64;
    for (b, nibbles) in inputs.iter().enumerate() {
        let mut blocks = bitslice::encode64(nibbles);
        for lane in (0..LANES).step_by(8) {
            blocks[lane] ^= 1 << ((b + lane) % 8);
        }
        let (nibbles, repaired, detected) = bitslice::decode64(&blocks);
        acc = acc.wrapping_add(fold(&nibbles, repaired, detected));
    }
    acc
}

/// Best-of-`samples` wall clock for a pair of comparable passes,
/// sampled round-robin so clock-frequency drift lands on both equally.
fn measure_interleaved(
    samples: usize,
    mut baseline: impl FnMut() -> u64,
    mut contender: impl FnMut() -> u64,
) -> (Duration, Duration) {
    let (mut base, mut cont) = (Duration::MAX, Duration::MAX);
    for _ in 0..samples {
        let start = Instant::now();
        criterion::black_box(baseline());
        base = base.min(start.elapsed());
        let start = Instant::now();
        criterion::black_box(contender());
        cont = cont.min(start.elapsed());
    }
    (base, cont)
}

// ---------------------------------------------------------------------
// Interleave permute: tiled bit-matrix transpose vs. scalar oracle.
// ---------------------------------------------------------------------

/// Codeword bytes per permute call — the size of an
/// `Interleaved{16}`-striped SECDED codeword region; 512 bits divides
/// evenly by the depth, so the fast path takes the tiled transpose.
const PERMUTE_BYTES: usize = 64;

/// The stripe depth under test: the ladder's widest committed rung.
const PERMUTE_DEPTH: usize = 16;

/// Deterministic `N`-byte inputs, one buffer per batch.
fn buffers<const N: usize>() -> Vec<[u8; N]> {
    (0..BATCHES)
        .map(|b| {
            let mut buf = [0u8; N];
            for (i, byte) in buf.iter_mut().enumerate() {
                *byte = (i as u8).wrapping_mul(167).wrapping_add(b as u8);
            }
            buf
        })
        .collect()
}

/// Folds a permuted buffer so the optimizer keeps the permutation
/// (bytes past the last whole word are not worth a second loop).
fn fold_bytes(data: &[u8]) -> u64 {
    data.chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .fold(0u64, u64::wrapping_add)
}

/// Bit-at-a-time interleave + deinterleave round trip over the batch.
fn permute_scalar_pass<const N: usize>(inputs: &[[u8; N]]) -> u64 {
    let mut acc = 0u64;
    for buf in inputs {
        let wire = interleave_bits_scalar(buf, PERMUTE_DEPTH);
        let back = deinterleave_bits_scalar(&wire, PERMUTE_DEPTH);
        acc = acc
            .wrapping_add(fold_bytes(&wire))
            .wrapping_add(fold_bytes(&back));
    }
    acc
}

/// The same round trip through the tiled transpose fast path.
fn permute_tiled_pass<const N: usize>(inputs: &[[u8; N]]) -> u64 {
    let mut acc = 0u64;
    for buf in inputs {
        let wire = interleave_bits(buf, PERMUTE_DEPTH);
        let back = deinterleave_bits(&wire, PERMUTE_DEPTH);
        acc = acc
            .wrapping_add(fold_bytes(&wire))
            .wrapping_add(fold_bytes(&back));
    }
    acc
}

// ---------------------------------------------------------------------
// The frame sizes the system sends: 29-byte bodies, 58-byte codewords.
// ---------------------------------------------------------------------

/// An `Ate<u64>` frame body: `round u64 | sender u32 | copy u8 |
/// len u32 | msg u64` and its CRC-32 — 58 SECDED blocks, six short of
/// one batch.
const BODY_BYTES: usize = 29;

/// Its SECDED codeword, which `Interleaved{16}` permutes as a 16 × 29
/// bit matrix.
const CODEWORD_BYTES: usize = 2 * BODY_BYTES;

/// Deterministic single-bit noise for block `lane` of body `b`, on
/// every eighth block.
fn small_frame_noise(wire: &mut [u8], b: usize) {
    for lane in (0..wire.len()).step_by(8) {
        wire[lane] ^= 1 << ((b + lane) % 8);
    }
}

/// One body at a time through the production code: encode into a
/// reused buffer, noise, decode.
fn small_frame_production_pass(bodies: &[[u8; BODY_BYTES]]) -> u64 {
    let mut acc = 0u64;
    let mut wire = BytesMut::with_capacity(CODEWORD_BYTES);
    for (b, body) in bodies.iter().enumerate() {
        wire.clear();
        Hamming74.encode_into(body, None, &mut wire);
        small_frame_noise(&mut wire, b);
        let scan = Hamming74.decode_scan(&wire);
        let (decoded, _) = scan.outcome.expect("single-bit noise is repaired");
        acc = acc
            .wrapping_add(fold_bytes(&decoded))
            .wrapping_add(scan.repairs as u64);
    }
    acc
}

/// The same bodies through the block-at-a-time oracle, which is how
/// the tail of a payload was coded before it became a padded batch:
/// split into nibbles, `encode_scalar`, noise, `decode_scalar`, join.
/// The oracle's unit is 64 lanes, so it codes six padding lanes the
/// production path only zero-fills; the caller scales its time by
/// 58 / 64 before comparing.
fn small_frame_scalar_pass(bodies: &[[u8; BODY_BYTES]]) -> u64 {
    let mut acc = 0u64;
    for (b, body) in bodies.iter().enumerate() {
        let mut nibbles = [0u8; LANES];
        for (pair, &byte) in nibbles.chunks_exact_mut(2).zip(body) {
            pair[0] = byte & 0x0F;
            pair[1] = byte >> 4;
        }
        let mut blocks = encode_scalar(&nibbles);
        small_frame_noise(&mut blocks[..CODEWORD_BYTES], b);
        let (nibbles, repaired, detected) = decode_scalar(&blocks);
        assert_eq!(detected, 0, "single-bit noise is repaired");
        let decoded: Vec<u8> = nibbles[..CODEWORD_BYTES]
            .chunks_exact(2)
            .map(|pair| pair[0] | (pair[1] << 4))
            .collect();
        acc = acc
            .wrapping_add(fold_bytes(&decoded))
            .wrapping_add(u64::from(repaired.count_ones()));
    }
    acc
}

/// Allocation events of one `Interleaved{16}` decode of a tagged
/// single-instance frame as `bursty-adaptive` sends it: 60 bytes — tag,
/// advert, 58-byte codeword — through the standard ladder's book.
fn interleaved_decode_allocs() -> u64 {
    let book = CodeBook::from_specs(&AdaptiveConfig::standard(4, 1).ladder);
    let body: [u8; BODY_BYTES] = buffers()[0];
    let advert = Some(RungAdvert { rung: 2, epoch: 3 });
    let mut wire = BytesMut::new();
    book.encode_tagged(2, advert, None, &body, &mut wire);
    assert_eq!(wire.len(), CODEWORD_BYTES + 2);
    let start = allocs();
    let (outcome, repairs) = book.decode_tagged(&wire);
    let measured = allocs() - start;
    assert_eq!(*outcome.expect("clean wire decodes").body, body);
    assert_eq!(repairs, 0);
    measured
}

// ---------------------------------------------------------------------
// Mux assemble + decode: arena pipeline vs. copying baseline.
// ---------------------------------------------------------------------

/// Consensus instances multiplexed into each wire image.
const MUX_SLOTS: usize = 64;

/// Rounds per measured pass.
const MUX_ROUNDS: usize = 256;

/// Retransmission copies per round — the fan-out the arena path
/// serves by patching the copy byte and resealing the image CRC in
/// place ([`patch_slots`]), where the copying baseline rebuilds
/// everything.
const MUX_COPIES: u8 = 3;

/// The deterministic per-slot message for round `r`, slot `i`.
fn mux_msg(r: usize, i: usize) -> u64 {
    (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(r as u64)
}

/// Every slot's frame body for copy `copy` of round `r`, each in a
/// fresh owned buffer.
fn mux_bodies(r: usize, copy: u8) -> Vec<Vec<u8>> {
    (0..MUX_SLOTS)
        .map(|i| {
            let mut body = BytesMut::with_capacity(32);
            encode_body_into(
                &Frame {
                    round: r as u64,
                    sender: 7,
                    copy,
                    msg: mux_msg(r, i),
                },
                &mut body,
            );
            body.to_vec()
        })
        .collect()
}

/// The copying baseline: the same single codec path, but every copy of
/// every round rebuilds every stage in a fresh owned buffer — per-slot
/// bodies, the packed image, the coded wire, the decoded image, the
/// unpacked slot bodies — which is what the engine's send/ingest path
/// did before it held arenas. It exists only as this bench's
/// reference point.
fn mux_copying_pass(framing: &Framing) -> u64 {
    let mut acc = 0u64;
    for r in 0..MUX_ROUNDS {
        for copy in 0..MUX_COPIES {
            let bodies = mux_bodies(r, copy);
            let slots: Vec<(u32, &[u8])> = bodies
                .iter()
                .enumerate()
                .map(|(i, b)| (i as u32, b.as_slice()))
                .collect();
            let mut image = Vec::new();
            pack_slots_into(&slots, &mut image);
            let mut wire = BytesMut::new();
            framing.encode_raw_into(&image, &mut wire);
            let wire = wire.to_vec();
            let scan = framing.decode_raw_view(&wire);
            let (image, _, _) = scan.image.expect("clean wire decodes");
            let image = image.into_owned();
            let unpacked: Vec<(u32, Vec<u8>)> = unpack_slots_view(&image)
                .expect("valid image unpacks")
                .iter()
                .map(|(id, body)| (id, body.to_vec()))
                .collect();
            for (id, body) in unpacked {
                let frame: Frame<u64> = decode_body(&body).expect("slot body parses");
                acc = acc
                    .wrapping_add(frame.msg)
                    .wrapping_add(frame.copy as u64)
                    .wrapping_add(id as u64);
            }
        }
    }
    acc
}

/// The arena pipeline: bodies packed once per round into one reused
/// slab, retransmission copies produced by patching the copy byte and
/// resealing the image in place ([`patch_slots`]), and the receive side
/// reading borrowed views all the way down to the per-slot frame
/// parse.
fn mux_arena_pass(framing: &Framing) -> u64 {
    let mut acc = 0u64;
    let mut slab = BytesMut::new();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut image: Vec<u8> = Vec::new();
    let mut wire = BytesMut::new();
    for r in 0..MUX_ROUNDS {
        slab.clear();
        ranges.clear();
        for i in 0..MUX_SLOTS {
            let start = slab.len();
            encode_body_into(
                &Frame {
                    round: r as u64,
                    sender: 7,
                    copy: 0,
                    msg: mux_msg(r, i),
                },
                &mut slab,
            );
            ranges.push((start, slab.len()));
        }
        let slots: Vec<(u32, &[u8])> = ranges
            .iter()
            .enumerate()
            .map(|(i, &(start, end))| (i as u32, &slab[start..end]))
            .collect();
        pack_slots_into(&slots, &mut image);
        for copy in 0..MUX_COPIES {
            if copy > 0 {
                patch_slots(&mut image, |body| body[COPY_OFFSET] = copy);
            }
            wire.clear();
            framing.encode_raw_into(&image, &mut wire);
            let scan = framing.decode_raw_view(&wire);
            let (view, _, _) = scan.image.expect("clean wire decodes");
            for (id, body) in unpack_slots_view(&view)
                .expect("valid image unpacks")
                .iter()
            {
                let frame: Frame<u64> = decode_body(body).expect("slot body parses");
                acc = acc
                    .wrapping_add(frame.msg)
                    .wrapping_add(frame.copy as u64)
                    .wrapping_add(id as u64);
            }
        }
    }
    acc
}

// ---------------------------------------------------------------------
// Steady-state allocation discipline: full engine rounds, metered.
// ---------------------------------------------------------------------

fn alloc_engine(me: u32, copies: u8, spec: CodeSpec, rounds: u64) -> RoundEngine<Ate<u64>> {
    let algo: Ate<u64> = Ate::new(AteParams::balanced(2, 0).unwrap());
    RoundEngine::new(
        algo,
        ProcessId::new(me),
        2,
        me as u64,
        Framing::fixed(spec),
        copies,
        rounds,
    )
}

/// Allocation events spent in the measured tail of a two-process
/// system (everything after `warmup` rounds), wire buffers reused so
/// the harness itself settles to zero.
fn run_and_count(copies: u8, spec: CodeSpec, warmup: u64, rounds: u64) -> u64 {
    let mut a = alloc_engine(0, copies, spec, warmup + rounds);
    let mut b = alloc_engine(1, copies, spec, warmup + rounds);
    let mut a_wires: Vec<Vec<u8>> = (0..copies as usize).map(|_| Vec::new()).collect();
    let mut b_wires: Vec<Vec<u8>> = (0..copies as usize).map(|_| Vec::new()).collect();
    let mut measured = 0u64;
    for round in 0..warmup + rounds {
        let start = allocs();
        let mut i = 0;
        a.begin_round_with(|_, _, wire| {
            a_wires[i].clear();
            a_wires[i].extend_from_slice(wire);
            i += 1;
        });
        let mut j = 0;
        b.begin_round_with(|_, _, wire| {
            b_wires[j].clear();
            b_wires[j].extend_from_slice(wire);
            j += 1;
        });
        for wire in &b_wires {
            assert!(matches!(a.ingest(wire), Ingest::Kept | Ingest::Duplicate));
        }
        for wire in &a_wires {
            assert!(matches!(b.ingest(wire), Ingest::Kept | Ingest::Duplicate));
        }
        a.finish_round();
        b.finish_round();
        if round >= warmup {
            measured += allocs() - start;
        }
    }
    measured
}

/// Allocation events of one 64-slot `Fountain { repair: 8 }` image
/// round trip — encode at the pooled mux budget into a warm wire
/// buffer, decode the clean wire — after one unmetered trip has warmed
/// the buffer and the schedule table.
fn fountain_image_allocs() -> u64 {
    let framing = Framing::fixed(CodeSpec::Fountain { repair: 8 });
    let budget = SymbolBudget::baseline(8).for_batch(MUX_SLOTS);
    let bodies = mux_bodies(1, 0);
    let slots: Vec<(u32, &[u8])> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| (i as u32, b.as_slice()))
        .collect();
    let mut image = Vec::new();
    pack_slots_into(&slots, &mut image);
    let mut wire = BytesMut::new();
    let mut measured = 0;
    for _ in 0..2 {
        let start = allocs();
        wire.clear();
        framing.encode_raw_with_budget_into(&image, budget, &mut wire);
        let scan = framing.decode_raw_view(&wire);
        measured = allocs() - start;
        let (decoded, repaired, _) = scan.image.expect("clean wire decodes");
        assert!(*decoded == *image && !repaired);
    }
    measured
}

/// Allocation events of one clean lockstep `run_async` of exactly
/// `rounds` rounds at `n` processes under the default CRC-32 code,
/// after one unmetered run has built the process-wide tables; inputs
/// are built outside the count.
fn run_async_allocs(n: usize, rounds: u64, copies: u8) -> u64 {
    let mut measured = 0;
    for _ in 0..2 {
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
        let initial: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
        let config = AsyncConfig {
            copies,
            max_rounds: rounds,
            lockstep: true,
            ..AsyncConfig::default()
        };
        let start = allocs();
        let outcome = run_async(algo, n, initial, config);
        measured = allocs() - start;
        assert_eq!(outcome.rounds_completed, vec![rounds; n]);
    }
    measured
}

/// What ten more lockstep rounds cost at n = 8 — a 20-round run's bill
/// minus a 10-round run's — at `copies` copies per frame.
fn ten_more_rounds_allocs_n8(copies: u8) -> u64 {
    run_async_allocs(8, 20, copies) - run_async_allocs(8, 10, copies)
}

// ---------------------------------------------------------------------
// Trace noise: one sender's frames of a round in lockstep lanes vs.
// frame by frame.
// ---------------------------------------------------------------------

/// Wire bytes of a traced frame: a tagged `Ate<u64>` frame on the
/// CRC-32 rung, as the repository benchmark's `bursty-adaptive` sends.
const NOISE_FRAME_BYTES: usize = 49;

/// System size: sender 0 has `NOISE_N − 1` receivers, one frame each
/// per round.
const NOISE_N: u32 = 8;

/// Rounds per pass.
const NOISE_ROUNDS: u64 = 64;

/// A one-phase trace of `channel`.
fn noise_trace(channel: GilbertElliott) -> NoiseTrace {
    NoiseTrace::new(1, vec![NoisePhase { rounds: 1, channel }])
}

/// Folds one frame's flip pattern and count.
fn fold_pattern(acc: u64, flips: usize, pattern: &[u8]) -> u64 {
    pattern.iter().fold(acc ^ flips as u64, |acc, &b| {
        acc.rotate_left(5) ^ u64::from(b)
    })
}

/// Sender 0's frames, round by round, through `corrupt_frame` one
/// receiver at a time — trace noise v2. Returns the pattern fold and
/// the flips.
fn noise_v2_pass(trace: &NoiseTrace) -> (u64, usize) {
    let (mut acc, mut total) = (0u64, 0);
    let mut frame = [0u8; NOISE_FRAME_BYTES];
    for round in 1..=NOISE_ROUNDS {
        for receiver in 1..NOISE_N {
            frame.fill(0);
            let flips = trace.corrupt_frame(round, 0, receiver, 0, &mut frame);
            (acc, total) = (fold_pattern(acc, flips, &frame), total + flips);
        }
    }
    (acc, total)
}

/// The same frames through the per-bit chain v2 replaced: a stationary
/// start, then `GilbertElliott::apply`, on a stream per frame.
fn noise_v1_pass(channel: GilbertElliott) -> (u64, usize) {
    let (mut acc, mut total) = (0u64, 0);
    let mut frame = [0u8; NOISE_FRAME_BYTES];
    let stationary = channel.p_enter_burst
        / (channel.p_enter_burst + channel.p_exit_burst).max(f64::MIN_POSITIVE);
    for round in 1..=NOISE_ROUNDS {
        for receiver in 1..NOISE_N {
            frame.fill(0);
            let mut rng = StdRng::seed_from_u64(round << 32 | u64::from(receiver));
            let mut chain = channel;
            chain.reset(stationary > 0.0 && rng.gen_bool(stationary));
            let flips = chain.apply(&mut frame, &mut rng);
            (acc, total) = (fold_pattern(acc, flips, &frame), total + flips);
        }
    }
    (acc, total)
}

fn throughput(c: &mut Criterion) {
    let inputs = inputs();
    assert_eq!(
        scalar_pass(&inputs),
        bitsliced_pass(&inputs),
        "the two Hamming paths must agree before their speeds mean anything"
    );
    let permute_inputs = buffers::<PERMUTE_BYTES>();
    assert_eq!(
        permute_scalar_pass(&permute_inputs),
        permute_tiled_pass(&permute_inputs),
        "the two permute paths must agree before their speeds mean anything"
    );
    let bodies = buffers::<BODY_BYTES>();
    assert_eq!(
        small_frame_scalar_pass(&bodies),
        small_frame_production_pass(&bodies),
        "the two small-frame SECDED paths must agree before their speeds mean anything"
    );
    let codewords = buffers::<CODEWORD_BYTES>();
    assert_eq!(
        permute_scalar_pass(&codewords),
        permute_tiled_pass(&codewords),
        "the two small-frame permute paths must agree before their speeds mean anything"
    );
    let framing = Framing::fixed(CodeSpec::None);
    assert_eq!(
        mux_copying_pass(&framing),
        mux_arena_pass(&framing),
        "the two mux paths must agree before their speeds mean anything"
    );
    let noise = [GilbertElliott::bursty(), GilbertElliott::clean()].map(|channel| {
        let trace = noise_trace(channel);
        // v1 and v2 draw different flips of one law, so their totals
        // agree within sampling error — five standard errors, with
        // room for flips arriving in bursts of up to ten. (The law
        // itself is tested in heardof-coding's `burst.rs`.)
        let (v1, v2) = (noise_v1_pass(channel).1, noise_v2_pass(&trace).1);
        assert!(
            v1.abs_diff(v2) as f64 <= 5.0 * (10.0 * (v1 + v2 + 1) as f64).sqrt(),
            "the two trace-noise paths must flip alike before their speeds mean anything \
             ({v1} vs {v2} flips)"
        );
        (channel, trace)
    });

    let mut group = c.benchmark_group("hamming_batch64");
    group.throughput(Throughput::Elements((BATCHES * LANES) as u64));
    group.bench_function(BenchmarkId::from_parameter("scalar"), |b| {
        b.iter(|| scalar_pass(&inputs))
    });
    group.bench_function(BenchmarkId::from_parameter("bitsliced"), |b| {
        b.iter(|| bitsliced_pass(&inputs))
    });
    group.finish();

    let mut group = c.benchmark_group("interleave_permute");
    group.throughput(Throughput::Bytes((BATCHES * PERMUTE_BYTES) as u64));
    group.bench_function(BenchmarkId::from_parameter("scalar"), |b| {
        b.iter(|| permute_scalar_pass(&permute_inputs))
    });
    group.bench_function(BenchmarkId::from_parameter("tiled"), |b| {
        b.iter(|| permute_tiled_pass(&permute_inputs))
    });
    group.finish();

    let mut group = c.benchmark_group("mux_assemble");
    group.throughput(Throughput::Elements(
        (MUX_ROUNDS * MUX_SLOTS * MUX_COPIES as usize) as u64,
    ));
    group.bench_function(BenchmarkId::from_parameter("copying"), |b| {
        b.iter(|| mux_copying_pass(&framing))
    });
    group.bench_function(BenchmarkId::from_parameter("arena"), |b| {
        b.iter(|| mux_arena_pass(&framing))
    });
    group.finish();

    // The committed artifact: deeper best-of passes, then the shared
    // v1 report. The speedup ratios — not the raw nanoseconds — are
    // the gated quantities, because a ratio survives a CI machine
    // change; the allocation counts are exact and machine-independent.
    let samples = 200;
    let (scalar, bitsliced) =
        measure_interleaved(samples, || scalar_pass(&inputs), || bitsliced_pass(&inputs));
    let hamming_speedup = scalar.as_secs_f64() / bitsliced.as_secs_f64();
    let (permute_scalar, permute_tiled) = measure_interleaved(
        samples,
        || permute_scalar_pass(&permute_inputs),
        || permute_tiled_pass(&permute_inputs),
    );
    let permute_speedup = permute_scalar.as_secs_f64() / permute_tiled.as_secs_f64();
    let (mux_copying, mux_arena) = measure_interleaved(
        samples,
        || mux_copying_pass(&framing),
        || mux_arena_pass(&framing),
    );
    let mux_speedup = mux_copying.as_secs_f64() / mux_arena.as_secs_f64();
    let (small_scalar, small_production) = measure_interleaved(
        samples,
        || small_frame_scalar_pass(&bodies),
        || small_frame_production_pass(&bodies),
    );
    // The oracle coded 64 lanes per body, the production path 58.
    let small_scalar = small_scalar.mul_f64(CODEWORD_BYTES as f64 / LANES as f64);
    let small_frame_speedup = small_scalar.as_secs_f64() / small_production.as_secs_f64();
    let (small_permute_scalar, small_permute) = measure_interleaved(
        samples,
        || permute_scalar_pass(&codewords),
        || permute_tiled_pass(&codewords),
    );
    let small_permute_speedup = small_permute_scalar.as_secs_f64() / small_permute.as_secs_f64();
    // Per frame, v1 against v2.
    let noise_frames = (NOISE_ROUNDS * u64::from(NOISE_N - 1)) as u32;
    let [(bursty_v1, bursty_per_frame), (calm_v1, calm_per_frame)] =
        noise.each_ref().map(|(channel, trace)| {
            let (v1, v2) = measure_interleaved(
                samples,
                || noise_v1_pass(*channel).0,
                || noise_v2_pass(trace).0,
            );
            (v1 / noise_frames, v2 / noise_frames)
        });
    let bursty_speedup = bursty_v1.as_secs_f64() / bursty_per_frame.as_secs_f64();
    let calm_speedup = calm_v1.as_secs_f64() / calm_per_frame.as_secs_f64();

    // Differential allocation proof: 3× the frame traffic on a
    // detection-only rung must cost exactly the same allocation bill
    // as 1× — the difference is per-frame allocation, and the claim is
    // that it is zero. The heavy rung's per-round bill is committed
    // alongside: what is left of it is the decoded payloads.
    let spec = CodeSpec::Checksum { width: 4 };
    let single = run_and_count(1, spec, 4, 16);
    let triple = run_and_count(3, spec, 4, 16);
    let frame_steady_allocs = triple.abs_diff(single);
    let heavy_rounds = 16u64;
    let heavy = run_and_count(1, CodeSpec::Interleaved { depth: 16 }, 4, heavy_rounds);
    let heavy_per_round = heavy / heavy_rounds;
    let fountain_image_allocs = fountain_image_allocs();
    let async_run_allocs_n16 = run_async_allocs(16, 2, 1);
    let lockstep_ten_rounds_allocs_n8 = ten_more_rounds_allocs_n8(1);
    let ten_rounds_per_frame = lockstep_ten_rounds_allocs_n8.abs_diff(ten_more_rounds_allocs_n8(3));
    let interleaved_decode_allocs = interleaved_decode_allocs();

    let mut report = BenchReport::new(
        "throughput",
        format!(
            "Hamming(8,4) SECDED round trip ({BATCHES} batches x {LANES} lanes), \
             depth-{PERMUTE_DEPTH} interleave permute ({PERMUTE_BYTES}-byte codewords), \
             {MUX_SLOTS}-slot self-checking mux image x{MUX_COPIES} copy fan-out ({MUX_ROUNDS} rounds), \
             counted allocations over full engine rounds, one 64-slot fountain image round trip, \
             one clean two-round n = 16 async run and ten more lockstep rounds at n = 8; \
             a {BODY_BYTES}-byte frame body through \
             Hamming74 and its {CODEWORD_BYTES}-byte codeword through the depth-{PERMUTE_DEPTH} \
             permute ({BATCHES} frames each), one Interleaved{{16}} decode of the tagged frame; \
             trace noise on {NOISE_FRAME_BYTES}-byte bursty and calm frames from one sender to its \
             {} receivers, drawn per event (v2) vs. per bit (v1)",
            NOISE_N - 1
        ),
        samples,
    );
    report
        .metric_ns("scalar_roundtrip", scalar)
        .metric_ns("bitsliced_roundtrip", bitsliced)
        .metric_ratio("bitsliced_speedup", hamming_speedup)
        .metric_ns("interleave_scalar", permute_scalar)
        .metric_ns("interleave_tiled", permute_tiled)
        .metric_ratio("interleaved_bitsliced_speedup", permute_speedup)
        .metric_ns("mux_copying", mux_copying)
        .metric_ns("mux_assemble", mux_arena)
        .metric_ratio("mux_assemble_speedup", mux_speedup)
        .metric_count("frame_steady_allocs", frame_steady_allocs)
        .metric_count("heavy_rung_allocs_per_round", heavy_per_round)
        .metric_count("fountain_image_allocs", fountain_image_allocs)
        .metric_count("async_run_allocs_n16", async_run_allocs_n16)
        .metric_count(
            "lockstep_ten_rounds_allocs_n8",
            lockstep_ten_rounds_allocs_n8,
        )
        .metric_ns("secded_small_frame_scalar", small_scalar)
        .metric_ns("secded_small_frame", small_production)
        .metric_ratio("secded_small_frame_speedup", small_frame_speedup)
        .metric_ns("interleave_small_frame_scalar", small_permute_scalar)
        .metric_ns("interleave_small_frame", small_permute)
        .metric_ratio("interleave_small_frame_speedup", small_permute_speedup)
        .metric_count("interleaved_decode_allocs", interleaved_decode_allocs)
        .metric_ns("trace_noise_bursty_per_frame", bursty_per_frame)
        .metric_ratio("trace_noise_bursty_v2_speedup", bursty_speedup)
        .metric_ns("trace_noise_calm_per_frame", calm_per_frame)
        .metric_ratio("trace_noise_calm_v2_speedup", calm_speedup)
        .claim(
            "bitsliced >= 4x scalar on a 64-slot batch",
            hamming_speedup >= 4.0,
        )
        .claim(
            "tiled interleave >= 4x scalar bit permute at depth 16",
            permute_speedup >= 4.0,
        )
        .claim(
            "arena mux assemble+decode >= 2x the copying baseline",
            mux_speedup >= 2.0,
        )
        .claim(
            "zero steady-state allocations per frame on detection-only rungs",
            frame_steady_allocs == 0,
        )
        .claim(
            "<= 8 allocations per fountain image round trip",
            fountain_image_allocs <= 8,
        )
        .claim(
            "<= 420 allocations per clean two-round n = 16 run",
            async_run_allocs_n16 <= 420,
        )
        .claim(
            "<= 120 allocations per ten more lockstep rounds at n = 8, none per frame",
            lockstep_ten_rounds_allocs_n8 <= 120 && ten_rounds_per_frame == 0,
        )
        .claim(
            "Hamming74 >= 2x scalar on a 29-byte body",
            small_frame_speedup >= 2.0,
        )
        .claim(
            "interleave >= 3x scalar bit permute on a 58-byte codeword at depth 16",
            small_permute_speedup >= 3.0,
        )
        .claim(
            "<= 1 allocation per Interleaved{16} decode of a 60-byte tagged wire",
            interleaved_decode_allocs <= 1,
        );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    report.write(path);
    println!(
        "hamming batch64: scalar {scalar:?}  bitsliced {bitsliced:?}  speedup {hamming_speedup:.2}x"
    );
    println!(
        "interleave permute: scalar {permute_scalar:?}  tiled {permute_tiled:?}  speedup {permute_speedup:.2}x"
    );
    println!(
        "mux assemble: copying {mux_copying:?}  arena {mux_arena:?}  speedup {mux_speedup:.2}x"
    );
    println!(
        "small frames: secded scalar {small_scalar:?}  production {small_production:?}  speedup {small_frame_speedup:.2}x  \
         permute scalar {small_permute_scalar:?}  production {small_permute:?}  speedup {small_permute_speedup:.2}x  \
         interleaved decode allocs {interleaved_decode_allocs}"
    );
    println!(
        "trace noise per frame: bursty v1 {bursty_v1:?}  v2 {bursty_per_frame:?}  speedup \
         {bursty_speedup:.2}x  calm v1 {calm_v1:?}  v2 {calm_per_frame:?}  speedup {calm_speedup:.2}x"
    );
    println!(
        "steady allocs: frame-differential {frame_steady_allocs}  heavy rung {heavy_per_round}/round  fountain image {fountain_image_allocs}  async run n16 {async_run_allocs_n16}  ten lockstep rounds n8 {lockstep_ten_rounds_allocs_n8}  -> {path}"
    );

    let mut group = c.benchmark_group("trace_noise");
    group.throughput(Throughput::Elements(NOISE_ROUNDS * u64::from(NOISE_N - 1)));
    for (name, (channel, trace)) in ["bursty", "calm"].into_iter().zip(&noise) {
        group.bench_function(BenchmarkId::from_parameter(format!("{name}/v1")), |b| {
            b.iter(|| noise_v1_pass(*channel))
        });
        group.bench_function(BenchmarkId::from_parameter(format!("{name}/v2")), |b| {
            b.iter(|| noise_v2_pass(trace))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = throughput
}
criterion_main!(benches);
