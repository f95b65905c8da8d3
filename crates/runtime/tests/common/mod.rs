//! A counting global allocator for the allocation pins. A binary that
//! installs it (`#[global_allocator] static GLOBAL: CountingAlloc`) holds
//! one `#[test]` only: the counter is process-wide, and the harness runs
//! the tests of one binary on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Allocations and reallocations so far.
pub fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// The counter only increments; deallocations are uninteresting here.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
