//! Setup shared by the runtime's integration tests: each binary that
//! declares `mod common;` compiles all of it and uses what it needs.
//!
//! [`gen`] holds what the property tests draw and build from: the chain
//! strategy, the three-device fleet, the criticality, security and
//! policy selectors, and the submit, build and run loops over them.
//!
//! This file holds the cost meter of `tests/cost_ledger.rs`, the one
//! binary that installs [`CountingAlloc`]. Everything it counts is
//! counted on the calling thread: the harness runs a binary's tests on
//! parallel threads, and neither the runtime nor the core spawns one, so
//! a window's count is the scenario's own on any host, in debug or
//! release.
#![allow(dead_code)]

pub mod gen;

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Debug;

use legato_core::units::Seconds;
use legato_runtime::{Runtime, Service};

pub struct CountingAlloc;

/// This thread's allocation calls, the bytes they asked for (an
/// allocation's size, a reallocation's new size), its allocated minus
/// freed bytes (negative when it frees a buffer another thread
/// allocated), and the most of those since the last [`Meter::start`].
#[derive(Clone, Copy)]
struct Heap {
    calls: usize,
    bytes: usize,
    live: isize,
    peak: isize,
}

thread_local! {
    static HEAP: std::cell::Cell<Heap> =
        const { std::cell::Cell::new(Heap { calls: 0, bytes: 0, live: 0, peak: 0 }) };
}

/// Applies `f` to this thread's counts and raises the peak to the live
/// bytes it leaves.
fn count(f: impl FnOnce(&mut Heap)) {
    let mut h = HEAP.get();
    f(&mut h);
    h.peak = h.peak.max(h.live);
    HEAP.set(h);
}

/// One ledger cell: what a metered window cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Allocations and reallocations.
    pub calls: usize,
    /// Bytes they asked for.
    pub bytes: usize,
    /// The most live bytes reached above those live at the start.
    pub peak: usize,
    /// `Runtime::placement_evals`.
    pub evals: u64,
    /// `Runtime::rollback_visits`.
    pub rollback_visits: u64,
    /// `Service::metering_visits`.
    pub metering_visits: u64,
    /// Engine steps taken through [`Meter::step`].
    pub steps: u64,
}

/// What a metered window reads its work counters from: the work columns
/// of a [`Cell`], the others zero. Code with none meters only the heap.
pub trait Counted {
    fn work(&self) -> Cell {
        Cell::default()
    }
}

impl Counted for () {}

impl Counted for Runtime {
    fn work(&self) -> Cell {
        Cell {
            evals: self.placement_evals(),
            rollback_visits: self.rollback_visits(),
            ..Cell::default()
        }
    }
}

impl Counted for Service {
    fn work(&self) -> Cell {
        Cell {
            metering_visits: self.metering_visits(),
            ..self.engine().work()
        }
    }
}

/// A window over this thread's heap and a scenario's work counters.
/// Windows do not nest: a start resets the thread's peak.
pub struct Meter {
    at: Heap,
    work: Cell,
    steps: u64,
}

impl Meter {
    pub fn start(counted: &impl Counted) -> Meter {
        let mut at = HEAP.get();
        at.peak = at.live;
        HEAP.set(at);
        Meter {
            at,
            work: counted.work(),
            steps: 0,
        }
    }

    /// Counts one engine step; true while the engine had an event left.
    pub fn step<E: Debug>(&mut self, step: Result<Option<Seconds>, E>) -> bool {
        // A match, not `self.steps += u64::from(stepped)`: rustc 1.95 at
        // `-O` drops that sum from this generic function when its call
        // is a `while` or `assert!` condition.
        match step.expect("devices present") {
            Some(_) => {
                self.steps += 1;
                true
            }
            None => false,
        }
    }

    /// The cost since [`Meter::start`].
    pub fn read(&self, counted: &impl Counted) -> Cell {
        let (now, work) = (HEAP.get(), counted.work());
        Cell {
            calls: now.calls - self.at.calls,
            bytes: now.bytes - self.at.bytes,
            peak: usize::try_from(now.peak - self.at.live).expect("a peak is at least its start"),
            evals: work.evals - self.work.evals,
            rollback_visits: work.rollback_visits - self.work.rollback_visits,
            metering_visits: work.metering_visits - self.work.metering_visits,
            steps: self.steps,
        }
    }

    /// Bytes live now above those live at the start.
    pub fn live(&self) -> isize {
        HEAP.get().live - self.at.live
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are a
// const-initialised thread-local without a destructor, which does not
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(|h| {
            h.calls += 1;
            h.bytes += layout.size();
            h.live += layout.size() as isize;
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(|h| h.live -= layout.size() as isize);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(|h| {
            h.calls += 1;
            h.bytes += new_size;
            h.live += new_size as isize - layout.size() as isize;
        });
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
