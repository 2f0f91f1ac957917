//! What a threaded round costs the heap — counted, not timed.
//!
//! A threaded round crosses each channel as one batch per peer: the
//! links append into an outbox arena, the arena is posted whole, and
//! the receiver drains it as slices into `ingest` and sends it out again
//! as a later round's outbox. So, as on the lockstep stepper (see
//! `heardof-async`'s `run_alloc`), ten more rounds cost the same number
//! of allocations whether each round moves one copy of every frame or
//! three. A frame that crossed the channel as its own `Vec` would cost
//! n·(n − 1)·2 = 24 more allocations a round at n = 4, copies = 3.
//!
//! The whole file is ONE `#[test]` so no concurrent test pollutes the
//! process-global allocation counter.

use heardof_core::{Ate, AteParams};
use heardof_net::{run_threaded, NetConfig, OutcomeView};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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

const N: usize = 4;

/// What a scheduler may move between the four runs compared: the
/// channel allocates its message blocks (31 messages each) in the
/// sender that fills one, and when several peers race to fill the same
/// block each may allocate the next one, the losers freeing theirs. An
/// inbox takes n − 1 = 3 batches a round, so it installs two blocks in
/// a 20-round run and one in a 10-round run, each with at most n − 2
/// losing racers; `single − triple` adds one run of each length and
/// subtracts the other two, so it moves by at most
/// (2 + 1)·n·(n − 2) = 24. Measured on a 2-vCPU host, 110 runs (40
/// debug, 40 release, 30 release beside two busy-looping processes):
/// the worst |single − triple| was 4. A per-frame allocation costs
/// 240 over ten rounds, ten times the slack.
const SLACK: u64 = (3 * N * (N - 2)) as u64;

/// Allocations of one clean lockstep `run_threaded` of exactly `rounds`
/// rounds, inputs and algorithm built outside the count.
fn run_allocs(rounds: u64, copies: u8) -> u64 {
    let algo: Ate<u64> = Ate::new(AteParams::balanced(N, 0).unwrap());
    let initial: Vec<u64> = (0..N as u64).map(|i| i % 2).collect();
    let config = NetConfig {
        copies,
        max_rounds: rounds,
        lockstep: true,
        // Far beyond the test: every round closes on its batches.
        round_timeout: Duration::from_secs(30),
        ..NetConfig::default()
    };
    let start = ALLOCS.load(Ordering::Relaxed);
    let outcome = run_threaded(algo, N, initial, config);
    let spent = ALLOCS.load(Ordering::Relaxed) - start;
    assert!(outcome.all_decided() && outcome.agreement_ok());
    assert_eq!(outcome.rounds_completed, vec![rounds; N]);
    spent
}

#[test]
fn a_threaded_round_allocates_nothing_per_frame() {
    // Lazy process-wide tables (CRC, …) are built by the first run.
    run_allocs(2, 1);

    let ten_more = |copies| run_allocs(20, copies) - run_allocs(10, copies);
    let (single, triple) = (ten_more(1), ten_more(3));
    assert!(
        single.abs_diff(triple) <= SLACK,
        "ten more threaded rounds allocated {triple} times at copies = 3 vs {single} at \
         copies = 1 (slack {SLACK}) — the difference is a per-frame allocation between \
         `begin_round_with` and `ingest`"
    );
}
