//! A counting global allocator for the allocation pins. A binary that
//! installs it (`#[global_allocator] static GLOBAL: CountingAlloc`) holds
//! one `#[test]` only: the counters are process-wide, and the harness runs
//! the tests of one binary on parallel threads. Each binary reads the
//! counters it pins, so the others go unused there.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Allocations and reallocations so far.
pub fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes allocated and not yet freed, as requested (allocator padding
/// and headers excluded).
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most [`live_bytes`] reached since the last [`reset_peak`].
pub fn peak_live_bytes() -> usize {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

/// Start a new peak window at the current live bytes.
pub fn reset_peak() {
    PEAK_LIVE_BYTES.store(live_bytes(), Ordering::Relaxed);
}

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// that allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
