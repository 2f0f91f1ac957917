//! Steady-state allocation discipline of the zero-copy frame pipeline.
//!
//! The claim under test: after warm-up, the engine's hot path — encode
//! a round's frames into the reusable arenas, ingest a peer's frames
//! through the borrowed decode views — performs **zero heap
//! allocations per frame** on the detection-only rungs (NoCode,
//! Checksum). Per-*round* bookkeeping (the kept log handed to the
//! report, the reception vector) still allocates, so the proof is
//! differential: a round that moves 3× the frames (`copies = 3`) must
//! allocate exactly as much as a round that moves 1× — any per-frame
//! allocation would show up multiplied. The same differential along the
//! instance axis: a warm mux round of 64 instances must allocate
//! exactly as much as a round of one.
//!
//! The counter is per thread: the harness's main thread (and anything
//! else the process runs) allocates on threads of its own, and those
//! allocations are not the hot path's.

use heardof_coding::CodeSpec;
use heardof_core::{Ate, AteParams};
use heardof_engine::{Framing, Ingest, MuxRoundEngine, RoundEngine};
use heardof_model::{HoAlgorithm, ProcessId, ReceptionVector, Round};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator with an allocation-event odometer. Frees are
/// not counted: the claim is about acquiring memory on the hot path.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor outlives its thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn engine(me: u32, copies: u8, spec: CodeSpec, rounds: u64) -> RoundEngine<Ate<u64>> {
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

/// Runs `rounds` full rounds of a two-process system over reused wire
/// buffers and returns the allocation count spent in the measured tail
/// (everything after `warmup` rounds).
fn run_and_count(copies: u8, spec: CodeSpec, warmup: u64, rounds: u64) -> u64 {
    let mut a = engine(0, copies, spec, warmup + rounds);
    let mut b = engine(1, copies, spec, warmup + rounds);
    // Reused per-copy wire buffers: after warm-up their capacity is
    // settled, so the harness itself allocates nothing per round.
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

/// Sender-side count for the mux engine: one `begin_round_with` per
/// round, frames discarded at the emit boundary (the encode path is
/// what is being metered).
fn run_mux_send_and_count(copies: u8, warmup: u64, rounds: u64) -> u64 {
    let algo: Ate<u64> = Ate::new(AteParams::balanced(3, 0).unwrap());
    let mut e = MuxRoundEngine::new(
        algo,
        ProcessId::new(0),
        3,
        vec![1, 2, 3, 4],
        Framing::fixed(CodeSpec::Checksum { width: 4 }),
        copies,
        warmup + rounds,
    );
    let mut measured = 0u64;
    let mut sunk = 0usize;
    for round in 0..warmup + rounds {
        let start = allocs();
        e.begin_round_with(|_, _, wire| sunk += wire.len());
        e.finish_round();
        if round >= warmup {
            measured += allocs() - start;
        }
    }
    assert!(sunk > 0);
    measured
}

/// A full lockstep system of `n` mux engines with `k` instances each:
/// every round is begin → ingest the other `n − 1` images → finish, over
/// wire buffers that are reused once warm. Counts the measured tail.
fn run_mux_rounds_and_count(n: usize, k: usize, warmup: u64, rounds: u64) -> u64 {
    let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
    let mut engines: Vec<MuxRoundEngine<Ate<u64>>> = (0..n)
        .map(|p| {
            MuxRoundEngine::new(
                algo.clone(),
                ProcessId::new(p as u32),
                n,
                (0..k as u64).map(|i| (i + p as u64) % 3).collect(),
                Framing::fixed(CodeSpec::Checksum { width: 4 }),
                1,
                warmup + rounds,
            )
        })
        .collect();
    // wires[dest][sender]
    let mut wires: Vec<Vec<Vec<u8>>> = vec![vec![Vec::new(); n]; n];
    let mut measured = 0u64;
    for round in 0..warmup + rounds {
        let start = allocs();
        for (p, engine) in engines.iter_mut().enumerate() {
            engine.begin_round_with(|dest, _, wire| {
                let slot = &mut wires[dest as usize][p];
                slot.clear();
                slot.extend_from_slice(wire);
            });
        }
        for (p, engine) in engines.iter_mut().enumerate() {
            for (q, wire) in wires[p].iter().enumerate() {
                if q != p {
                    assert_eq!(engine.ingest(wire), Ingest::Kept);
                }
            }
            engine.finish_round();
        }
        if round >= warmup {
            measured += allocs() - start;
        }
    }
    measured
}

/// Allocations of one `A_{T,E}` transition over a full reception vector
/// of `n` values, three distinct ones among them.
fn ate_transition_allocs(n: usize) -> u64 {
    let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
    let me = ProcessId::new(0);
    let mut state = algo.init(me, n, 9);
    let mut rx = ReceptionVector::new(n);
    for q in 0..n {
        rx.set(ProcessId::new(q as u32), (q % 3) as u64);
    }
    let start = allocs();
    algo.transition(Round::FIRST, me, &mut state, &rx);
    let spent = allocs() - start;
    assert_eq!(state.x, 0, "the count ran: 0 is the smallest most frequent");
    spent
}

#[test]
fn steady_state_allocates_nothing_per_frame_on_cheap_rungs() {
    for spec in [CodeSpec::None, CodeSpec::Checksum { width: 4 }] {
        // Triple the frames on the wire (3 copies out, 3 ingests in,
        // 2 of them duplicates) — identical allocation bill.
        let single = run_and_count(1, spec, 4, 16);
        let triple = run_and_count(3, spec, 4, 16);
        assert_eq!(
            single, triple,
            "{spec:?}: copies=3 rounds allocated {triple} vs {single} for copies=1 — \
             the difference is a per-frame allocation on the hot path"
        );
    }

    // The mux encode path builds each peer's image once and re-codes it
    // per copy by patching the copy byte in place: extra copies must
    // not add allocations either.
    let single = run_mux_send_and_count(1, 4, 16);
    let triple = run_mux_send_and_count(3, 4, 16);
    assert_eq!(single, triple, "mux copy fan-out allocated per copy");

    // Nor does a warm round pay per *instance*: reception vectors and
    // the decoded-message arena are reset in place, and the transition
    // counts without the heap — 64 instances cost what one does.
    let one = run_mux_rounds_and_count(4, 1, 4, 8);
    let many = run_mux_rounds_and_count(4, 64, 4, 8);
    assert_eq!(
        one, many,
        "a warm mux round allocated {many} times at k = 64 vs {one} at k = 1"
    );
    for n in [16, 64] {
        assert_eq!(ate_transition_allocs(n), 0, "Ate::transition at n = {n}");
    }
}
