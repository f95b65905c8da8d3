//! Setup shared by the runtime's integration tests: each binary that
//! declares `mod common;` compiles all of it and uses what it needs.
//!
//! [`gen`] holds what the property tests draw and build from: the chain
//! strategy, the three-device fleet, the criticality, security and
//! policy selectors, and the submit, build and run loops over them.
//!
//! This file holds a counting global allocator for the allocation pins.
//! A binary that installs it (`#[global_allocator] static GLOBAL:
//! CountingAlloc`) and reads [`allocations`] holds one `#[test]` only:
//! that counter is process-wide, and the harness runs the tests of one
//! binary on parallel threads. Live and peak bytes are counted per
//! thread, so the harness's own bookkeeping and other tests stay out of
//! them, and a binary that reads only them may hold several tests. So
//! are [`requests`], the allocation calls and the bytes they asked for.
#![allow(dead_code)]

pub mod gen;

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
    static REQUESTS: Cell<Requests> = const { Cell::new(Requests { calls: 0, bytes: 0 }) };
}

/// Allocation calls on one thread and the bytes they asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Requests {
    /// Allocations and reallocations.
    pub calls: usize,
    /// Sizes asked for: an allocation's size, a reallocation's new size.
    pub bytes: usize,
}

impl std::ops::Sub for Requests {
    type Output = Requests;

    fn sub(self, earlier: Requests) -> Requests {
        Requests {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// This thread's allocation calls and requested bytes so far.
pub fn requests() -> Requests {
    REQUESTS.get()
}

fn request(bytes: usize) {
    let r = REQUESTS.get();
    REQUESTS.set(Requests {
        calls: r.calls + 1,
        bytes: r.bytes + bytes,
    });
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
        request(layout.size());
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        request(new_size);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
