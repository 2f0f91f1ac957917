//! The off switch must be genuinely free: building, cloning and
//! emitting through [`Telemetry::null`] may not allocate, and may not
//! record anything.
//!
//! The allocation check uses a counting global allocator — crude but
//! airtight: if the null path ever grows a heap allocation (boxing an
//! event, formatting a label, …) the counter moves and the test fails.
//! The counter is per thread: the harness runs the sibling test (and
//! its own bookkeeping) on other threads of this process, and their
//! allocations are not the null path's.

use heardof_telemetry::{Event, EventKind, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor outlives its thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn null_emit_path_performs_zero_allocations() {
    let telemetry = Telemetry::null();
    // Warm anything lazy before the measured window.
    telemetry.emit(Event::link(EventKind::LinkDelivered, 1, 0, 1, 32));

    let before = allocations();
    for round in 1..=5_000u64 {
        telemetry.emit(Event::link(EventKind::LinkDelivered, round, 0, 1, 32));
        telemetry.emit(Event::link(EventKind::LinkCorrected, round, 2, 3, 48));
        telemetry.emit(Event::local(EventKind::RungHeld, round, 0, 1));
        telemetry.emit(Event::local(EventKind::PressureSample, round, 0, 250));
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "the disabled telemetry path must not touch the heap"
    );
}

/// A run hands a clone of its plane to every link and engine it builds;
/// with telemetry off that wiring must cost no heap traffic at all.
#[test]
fn building_and_cloning_the_null_handle_performs_zero_allocations() {
    let before = allocations();
    for _ in 0..1_000 {
        let telemetry = Telemetry::null();
        let clone = std::hint::black_box(&telemetry).clone();
        assert!(!std::hint::black_box(clone).enabled());
        std::hint::black_box(Telemetry::default());
    }
    assert_eq!(
        allocations() - before,
        0,
        "a disabled handle holds no recorder to allocate or count"
    );
}

#[test]
fn null_telemetry_records_no_events() {
    let telemetry = Telemetry::null();
    for round in 1..=100u64 {
        telemetry.emit(Event::local(EventKind::FrameKept, round, 0, 0));
    }
    assert!(!telemetry.enabled());
    assert!(telemetry.snapshot().is_none(), "nothing to snapshot");
    assert_eq!(telemetry.total(EventKind::FrameKept), 0);
    assert_eq!(telemetry.round_counts(1), None);
}
