//! Regression pin: draining the task graph must not allocate.
//!
//! Every task the engine runs crosses `TaskGraph::try_claim` and
//! `TaskGraph::complete_into`, and each completion may flip the liveness
//! of the regions it touches. Region liveness lives in per-slot arrays
//! and a live bitmap that grow when a region is first declared, at
//! submission, so a transition only indexes. This binary installs a
//! counting allocator, submits a 10k-task graph, and asserts that
//! draining it — then draining it again after a rollback to the empty
//! frontier — allocates nothing. Only the drain loops are counted:
//! `rollback_to` returns its ready list as a fresh `Vec`.

mod common;

use common::{allocations, CountingAlloc};
use legato_core::graph::{Frontier, GraphBuilder, TaskGraph};
use legato_core::task::{AccessMode, TaskDescriptor, TaskId};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CHAINS: u64 = 2500;
const DEPTH: u64 = 4;

/// Tasks claimed and completed in LIFO readiness order through two
/// caller-owned buffers sized up front. Returns the most regions live at
/// once, so the caller can check the drain flipped liveness at all.
fn drain(g: &mut TaskGraph, stack: &mut Vec<TaskId>, released: &mut Vec<TaskId>) -> usize {
    let mut peak_live = 0;
    while let Some(id) = stack.pop() {
        if g.try_claim(id).unwrap().is_some() {
            g.complete_into(id, released).unwrap();
            stack.append(released);
            peak_live = peak_live.max(g.live_region_count());
        }
    }
    peak_live
}

#[test]
fn draining_the_graph_allocates_nothing() {
    // Depth-4 chains, each threading its own region (`inout`): a region
    // goes live when its chain's head completes and dies with its tail.
    let mut b = GraphBuilder::with_capacity((CHAINS * DEPTH) as usize, 0);
    for c in 0..CHAINS {
        for _ in 0..DEPTH {
            b.task(TaskDescriptor::named("t"), [(c, AccessMode::InOut)]);
        }
    }
    let mut g = b.build();
    let n = g.len();
    let mut stack = Vec::with_capacity(n);
    let mut released = Vec::with_capacity(n);

    for pass in 0..2 {
        stack.extend(g.ready());
        let before = allocations();
        let peak_live = drain(&mut g, &mut stack, &mut released);
        let after = allocations();
        assert!(g.is_complete(), "pass {pass}: drain left tasks behind");
        assert!(peak_live > 0, "pass {pass}: no region ever went live");
        assert_eq!(g.live_region_count(), 0);
        assert_eq!(after - before, 0, "pass {pass}: the drain allocated");
        g.rollback_to(&Frontier::default()).unwrap();
    }
}
