//! Criterion: the hot-path kernels of the zero-copy frame pipeline vs.
//! their scalar / copying baselines.
//!
//! Six gated measurements share one committed artifact
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
//!    (`Interleaved{16}`) per-round count is committed alongside as an
//!    ungated odometer.
//! 5. **The fountain rung's allocation bill** — one 64-slot
//!    `Fountain { repair: 8 }` image encoded into a warm arena and
//!    decoded clean; claim: **≤ 8 allocations per round trip** (the
//!    decoder's row table and its image are the two it makes).
//! 6. **A whole run's allocation bill** — one clean two-round
//!    `run_async` at n = 16 on CRC-32 (the repository benchmark's
//!    `clean-single` shape): wiring is per run and frames cross
//!    borrowed; claim: **≤ 1 000 allocations per run**.

use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use heardof_async::{run_async, AsyncConfig};
use heardof_bench::report::BenchReport;
use heardof_coding::bitslice::{self, LANES};
use heardof_coding::{
    deinterleave_bits, deinterleave_bits_scalar, interleave_bits, interleave_bits_scalar,
    pack_slots_into, patch_slots, unpack_slots_view, CodeSpec, SymbolBudget,
};
use heardof_core::{Ate, AteParams};
use heardof_engine::{
    decode_body, encode_body_into, Frame, Framing, Ingest, RoundEngine, COPY_OFFSET,
};
use heardof_model::ProcessId;
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

/// One full scalar pass: encode, deterministic single-bit noise on
/// every eighth lane, decode, fold.
fn scalar_pass(inputs: &[[u8; LANES]]) -> u64 {
    let mut acc = 0u64;
    for (b, nibbles) in inputs.iter().enumerate() {
        let mut blocks = bitslice::encode_scalar(nibbles);
        for lane in (0..LANES).step_by(8) {
            blocks[lane] ^= 1 << ((b + lane) % 8);
        }
        let (nibbles, repaired, detected) = bitslice::decode_scalar(&blocks);
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

/// Deterministic permute inputs, one buffer per batch.
fn permute_inputs() -> Vec<[u8; PERMUTE_BYTES]> {
    (0..BATCHES)
        .map(|b| {
            let mut buf = [0u8; PERMUTE_BYTES];
            for (i, byte) in buf.iter_mut().enumerate() {
                *byte = (i as u8).wrapping_mul(167).wrapping_add(b as u8);
            }
            buf
        })
        .collect()
}

/// Folds a permuted buffer so the optimizer keeps the permutation.
fn fold_bytes(data: &[u8]) -> u64 {
    data.chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .fold(0u64, u64::wrapping_add)
}

/// Bit-at-a-time interleave + deinterleave round trip over the batch.
fn permute_scalar_pass(inputs: &[[u8; PERMUTE_BYTES]]) -> u64 {
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
fn permute_tiled_pass(inputs: &[[u8; PERMUTE_BYTES]]) -> u64 {
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

/// Allocation events of one clean lockstep two-round `run_async` at
/// n = 16 under the default CRC-32 code, after one unmetered run has
/// built the process-wide tables; inputs are built outside the count.
fn async_run_allocs_n16() -> u64 {
    let n = 16;
    let mut measured = 0;
    for _ in 0..2 {
        let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
        let initial: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
        let config = AsyncConfig {
            max_rounds: 2,
            lockstep: true,
            ..AsyncConfig::default()
        };
        let start = allocs();
        let outcome = run_async(algo, n, initial, config);
        measured = allocs() - start;
        assert_eq!(outcome.rounds_completed, vec![2; n]);
    }
    measured
}

fn throughput(c: &mut Criterion) {
    let inputs = inputs();
    assert_eq!(
        scalar_pass(&inputs),
        bitsliced_pass(&inputs),
        "the two Hamming paths must agree before their speeds mean anything"
    );
    let permute_inputs = permute_inputs();
    assert_eq!(
        permute_scalar_pass(&permute_inputs),
        permute_tiled_pass(&permute_inputs),
        "the two permute paths must agree before their speeds mean anything"
    );
    let framing = Framing::fixed(CodeSpec::None);
    assert_eq!(
        mux_copying_pass(&framing),
        mux_arena_pass(&framing),
        "the two mux paths must agree before their speeds mean anything"
    );

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

    // Differential allocation proof: 3× the frame traffic on a
    // detection-only rung must cost exactly the same allocation bill
    // as 1× — the difference is per-frame allocation, and the claim is
    // that it is zero. The heavy rung's per-round bill is committed
    // alongside as an ungated odometer (Interleaved{16} allocates by
    // design: its permutations return fresh buffers).
    let spec = CodeSpec::Checksum { width: 4 };
    let single = run_and_count(1, spec, 4, 16);
    let triple = run_and_count(3, spec, 4, 16);
    let frame_steady_allocs = triple.abs_diff(single);
    let heavy_rounds = 16u64;
    let heavy = run_and_count(1, CodeSpec::Interleaved { depth: 16 }, 4, heavy_rounds);
    let heavy_per_round = heavy / heavy_rounds;
    let fountain_image_allocs = fountain_image_allocs();
    let async_run_allocs_n16 = async_run_allocs_n16();

    let mut report = BenchReport::new(
        "throughput",
        format!(
            "Hamming(8,4) SECDED round trip ({BATCHES} batches x {LANES} lanes), \
             depth-{PERMUTE_DEPTH} interleave permute ({PERMUTE_BYTES}-byte codewords), \
             {MUX_SLOTS}-slot self-checking mux image x{MUX_COPIES} copy fan-out ({MUX_ROUNDS} rounds), \
             counted allocations over full engine rounds, one 64-slot fountain image round trip \
             and one clean two-round n = 16 async run"
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
            "<= 1 000 allocations per clean two-round n = 16 run",
            async_run_allocs_n16 <= 1_000,
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
        "steady allocs: frame-differential {frame_steady_allocs}  heavy rung {heavy_per_round}/round  fountain image {fountain_image_allocs}  async run n16 {async_run_allocs_n16}  -> {path}"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = throughput
}
criterion_main!(benches);
