//! What a whole `run_async` costs the heap — counted, not timed.
//!
//! A frame crosses this substrate borrowed: from the engine's wire
//! arena through its link's fault model into the receiver's arena,
//! which the stepper owns, and from there as a slice into `ingest`. So a run's allocation bill is per *run* (wiring) and per
//! *round* (bookkeeping), never per *frame* — proved differentially,
//! like `heardof-engine`'s `steady_alloc`: ten more lockstep rounds
//! cost the same number of allocations whether each round moves one
//! copy of every frame or three. The absolute bill of the benchmark's
//! `clean-single` shape (n = 16, CRC-32, two rounds) is capped as well,
//! so per-run wiring cannot quietly grow back.
//!
//! The whole file is ONE `#[test]` so no concurrent test pollutes the
//! process-global allocation counter.

use heardof_async::{run_async, AsyncConfig};
use heardof_core::{Ate, AteParams};
use heardof_engine::OutcomeView;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with an allocation-event odometer. Frees are
/// not counted: the claim is about acquiring memory.
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

/// Allocations of one clean lockstep `run_async` of exactly `rounds`
/// rounds, inputs and algorithm built outside the count.
fn run_allocs(n: usize, rounds: u64, copies: u8) -> u64 {
    let algo: Ate<u64> = Ate::new(AteParams::balanced(n, 0).unwrap());
    let initial: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
    let config = AsyncConfig {
        copies,
        max_rounds: rounds,
        lockstep: true,
        ..AsyncConfig::default()
    };
    let start = ALLOCS.load(Ordering::Relaxed);
    let outcome = run_async(algo, n, initial, config);
    let spent = ALLOCS.load(Ordering::Relaxed) - start;
    assert!(outcome.all_decided() && outcome.agreement_ok());
    assert_eq!(outcome.rounds_completed, vec![rounds; n]);
    spent
}

#[test]
fn a_run_allocates_per_run_and_per_round_never_per_frame() {
    // Lazy process-wide tables (CRC, …) are built by the first run.
    run_allocs(8, 2, 1);

    let ten_more = |copies| run_allocs(8, 20, copies) - run_allocs(8, 10, copies);
    let (single, triple) = (ten_more(1), ten_more(3));
    assert_eq!(
        single, triple,
        "ten more rounds allocated {triple} times at copies = 3 vs {single} at copies = 1 — \
         the difference is a per-frame allocation between `begin_round_with` and `ingest`"
    );

    let clean_single = run_allocs(16, 2, 1);
    assert!(
        clean_single <= 420,
        "a clean two-round n = 16 run allocated {clean_single} times (cap 420; 1 670 before \
         the links shared one wiring block and frames crossed borrowed, 967 before the \
         outcome's heard-of sets held their word inline, 903 before the round became a \
         lockstep loop without task futures and wakers, 798 before the stepper owned its \
         receivers' arenas and each engine's kept log became one allocation a round)"
    );
}
