//! A counting allocator for the traced binary.
//!
//! Only `hobench-trace` installs it (`#[global_allocator]`); the timed
//! binary runs on the system allocator untouched, so end-to-end numbers
//! never pay for the counter. In a process that did not install it,
//! [`allocations`] stays 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// A statistic that publishes no other data: Relaxed is enough.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus one relaxed counter bump per `alloc` /
/// `alloc_zeroed` / `realloc` call.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is an
// atomic increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap allocations (including reallocations) made by this process so
/// far — 0 unless the binary installed [`CountingAlloc`].
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
