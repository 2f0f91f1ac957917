//! What a simulator round costs the heap — counted, not timed.
//!
//! A `SetsOnly` round of the benchmark's `sim-adversary` shape (n = 16,
//! α = 3, budgeted random corruption, every 4th round fault-free) keeps
//! one `RoundSets` and one decision snapshot and hands the adversary
//! one intended matrix, refilled in place. Its `HO` / `SHO` sets hold
//! their word inline, so deriving them allocates the two set vectors
//! and nothing per set; the corrupter shuffles its senders inline. What
//! is left is the adversary's delivered matrix, the two set vectors and
//! the decision snapshot: 4.1 a round, measured. The bill is measured differentially: ten more
//! rounds of `run_rounds` at the same seed, divided by ten, so the
//! per-run setup (cores, RNG, trace) cancels out.
//!
//! The whole file is ONE `#[test]` so no concurrent test pollutes the
//! process-global allocation counter.

use heardof_adversary::{Budgeted, GoodRounds, RandomCorruption, WithSchedule};
use heardof_core::{Ate, AteParams};
use heardof_model::TraceLevel;
use heardof_sim::Simulator;
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

const N: usize = 16;
const ALPHA: u32 = 3;

/// Allocations of one `SetsOnly` run of exactly `rounds` rounds,
/// algorithm and inputs built outside the count.
fn run_allocs(seed: u64, rounds: usize) -> u64 {
    let algo: Ate<u64> = Ate::new(AteParams::balanced(N, ALPHA).unwrap());
    let initial: Vec<u64> = (0..N as u64).map(|p| p % 3).collect();
    let adversary = WithSchedule::new(
        Budgeted::new(RandomCorruption::new(ALPHA, 1.0), ALPHA),
        GoodRounds::every(4),
    );
    let sim = Simulator::new(algo, N)
        .initial_values(initial)
        .adversary(adversary)
        .seed(seed)
        .trace_level(TraceLevel::SetsOnly);
    let start = ALLOCS.load(Ordering::Relaxed);
    let outcome = sim.run_rounds(rounds).unwrap();
    let spent = ALLOCS.load(Ordering::Relaxed) - start;
    assert_eq!(outcome.rounds_executed, rounds);
    assert!(outcome.is_safe());
    drop(outcome);
    spent
}

#[test]
fn a_sets_only_round_allocates_a_handful_of_times() {
    run_allocs(1, 2);
    let mut worst = 0.0f64;
    for seed in 1..=4 {
        let per_round = (run_allocs(seed, 20) - run_allocs(seed, 10)) as f64 / 10.0;
        worst = worst.max(per_round);
    }
    assert!(
        worst <= 4.5,
        "a SetsOnly n = 16 round allocated {worst} times (cap 4.5; 4.8 while the \
         random corrupter shuffled a `Vec` of senders, 37.85 when every `ProcessSet` \
         owned a `Vec<u64>` and each round built a fresh intended matrix)"
    );
}
