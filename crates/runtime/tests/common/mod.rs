//! A counting global allocator for the allocation pins. A binary that
//! installs it (`#[global_allocator] static GLOBAL: CountingAlloc`) and
//! reads [`allocations`] holds one `#[test]` only: that counter is
//! process-wide, and the harness runs the tests of one binary on
//! parallel threads. Live and peak bytes are counted per thread, so the
//! harness's own bookkeeping and other tests stay out of them, and a
//! binary that reads only them may hold several tests. Each binary reads the counters it pins, so the others go
//! unused there.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's allocated minus freed bytes: negative when it frees
    /// more than it allocated (a buffer another thread allocated).
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static PEAK_LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Allocations and reallocations so far, on every thread.
pub fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes this thread allocated and did not free yet, as requested
/// (allocator padding and headers excluded).
pub fn live_bytes() -> isize {
    LIVE_BYTES.get()
}

/// The most [`live_bytes`] reached on this thread since its last
/// [`reset_peak`].
pub fn peak_live_bytes() -> isize {
    PEAK_LIVE_BYTES.get()
}

/// Start a new peak window at this thread's current live bytes.
pub fn reset_peak() {
    PEAK_LIVE_BYTES.set(live_bytes());
}

fn grow(bytes: usize) {
    let live = LIVE_BYTES.get() + bytes as isize;
    LIVE_BYTES.set(live);
    PEAK_LIVE_BYTES.set(PEAK_LIVE_BYTES.get().max(live));
}

fn shrink(bytes: usize) {
    LIVE_BYTES.set(LIVE_BYTES.get() - bytes as isize);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are an atomic
// and const-initialised thread-locals without destructors, none of
// which allocates.
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
