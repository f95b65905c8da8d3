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
//!
//! A second variant declares every region's size, resolved by slot
//! before the drain the way the runtime resolves its one size
//! declaration, and prices the live frontier after every completion the
//! way a checkpoint does: reading declared sizes by slot allocates
//! nothing either.

mod common;

use std::collections::HashMap;

use common::{allocations, CountingAlloc};
use legato_core::graph::{Frontier, GraphBuilder, TaskGraph};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskId};
use legato_core::units::Bytes;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CHAINS: u64 = 2500;
const DEPTH: u64 = 4;

/// Tasks claimed and completed in LIFO readiness order through two
/// caller-owned buffers sized up front. Returns the most regions live at
/// once, so the caller can check the drain flipped liveness at all, and
/// the most declared bytes live at once (zero without `sizes`).
fn drain(
    g: &mut TaskGraph,
    stack: &mut Vec<TaskId>,
    released: &mut Vec<TaskId>,
    sizes: &[Bytes],
) -> (usize, Bytes) {
    let (mut peak_live, mut peak_bytes) = (0, Bytes::ZERO);
    while let Some(id) = stack.pop() {
        if g.try_claim(id).unwrap().is_some() {
            g.complete_into(id, released).unwrap();
            stack.append(released);
            peak_live = peak_live.max(g.live_region_count());
            if !sizes.is_empty() {
                let live: Bytes = g.live_slots().map(|s| sizes[s as usize]).sum();
                peak_bytes = peak_bytes.max(live);
            }
        }
    }
    (peak_live, peak_bytes)
}

#[test]
fn draining_the_graph_allocates_nothing() {
    for declared in [false, true] {
        // Depth-4 chains, each threading its own region (`inout`): a
        // region goes live when its chain's head completes and dies with
        // its tail.
        let mut b = GraphBuilder::with_capacity((CHAINS * DEPTH) as usize, 0);
        for c in 0..CHAINS {
            for _ in 0..DEPTH {
                b.task(TaskDescriptor::named("t"), [(c, AccessMode::InOut)]);
            }
        }
        let mut g = b.build();
        let sizes: Vec<Bytes> = if declared {
            let declaration: HashMap<RegionId, Bytes> = (0..CHAINS)
                .map(|c| (RegionId(c), Bytes::mib(c % 7 + 1)))
                .collect();
            g.regions().iter().map(|r| declaration[r]).collect()
        } else {
            Vec::new()
        };
        let n = g.len();
        let mut stack = Vec::with_capacity(n);
        let mut released = Vec::with_capacity(n);

        for pass in 0..2 {
            stack.extend(g.ready());
            let before = allocations();
            let (peak_live, peak_bytes) = drain(&mut g, &mut stack, &mut released, &sizes);
            let after = allocations();
            let case = format!("declared {declared}, pass {pass}");
            assert!(g.is_complete(), "{case}: drain left tasks behind");
            assert!(peak_live > 0, "{case}: no region ever went live");
            assert_eq!(peak_bytes > Bytes::ZERO, declared, "{case}");
            assert_eq!(g.live_region_count(), 0);
            assert_eq!(after - before, 0, "{case}: the drain allocated");
            g.rollback_to(&Frontier::default()).unwrap();
        }
    }
}
