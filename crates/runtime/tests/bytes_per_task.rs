//! Regression pins: the memory one task costs, end to end, and what a
//! held report costs on top.
//!
//! This binary installs a counting allocator, builds a fixed 10k-task
//! graph of 2,500 depth-4 chains (the `chains-pooled` benchmark shape
//! at 1/40 scale) on a pooled 256-device fleet, bulk-submits it, runs it
//! and holds the report, and asserts that the peak of live heap bytes
//! over that window, divided by the task count, is exactly the pinned
//! figure. Requested sizes are counted (allocator headers and padding
//! are not), so the figure is a property of the code, not of the host.
//! A change that adds a per-task field or a doubling buffer moves it;
//! re-pin only with the new arithmetic below.
//!
//! The peak is reached at the end of the run with the report alive
//! (bytes; 16,384-slot buffers are doubling growth past 10,000 pushes):
//!
//! | structure | arithmetic | bytes |
//! |---|---|---:|
//! | graph nodes (`Node`, descriptor inline) | 10,000 × 104 | 1,040,000 |
//! | access arena, its slot column | 10,000 × (16 + 4) | 200,000 |
//! | unmet counts, task states | 10,000 × (8 + 1) | 90,000 |
//! | predecessor arena (one per access), successor arena (7,500 edges) | 10,000 × 8 + 7,500 × 8 | 140,000 |
//! | region tables: history, liveness, slot→region, region→slot map | 2,500 × (40 + 16 + 8) + 69,648 | 229,648 |
//! | ready/completed/live bitmaps | (157 + 157 + 40) words × 8 | 2,832 |
//! | engine outcome table (`TaskOutcome`, one slot per submitted task, sized at submission) | 10,000 × 64 | 640,000 |
//! | engine acceptance log, ready queue (`Event`) | 16,384 × 8 + 4,096 × 32 | 262,144 |
//! | finish slab and its free list, deferred finishes, event heap | 4,096 × (128 + 4) + 2,816 × 32 + 256 × 32 | 638,976 |
//! | report placements (the outcome table, shared: every slot is filled) | 0 | 0 |
//! | other buffers, each under 4 KiB | | 10,160 |
//! | **peak** | | **3,253,760** |
//!
//! 3,253,760 / 10,000 = 325 bytes per task.
//!
//! Live bytes are counted per thread, so the two tests here may run in
//! parallel without reading each other's allocations.

mod common;

use common::{live_bytes, peak_live_bytes, reset_peak, CountingAlloc};
use legato_runtime::{EngineConfig, Policy, PoolConfig, Runtime, TaskOutcome};
use legato_workloads::{chains_batch, fleets};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TASKS: usize = 10_000;
const CHAINS: usize = 2_500;
/// Peak live bytes per task; the table above is the arithmetic.
const BYTES_PER_TASK: usize = 325;

fn runtime() -> Runtime {
    EngineConfig::new()
        .with_devices(fleets::cycled(256))
        .with_policy(Policy::Performance)
        .with_seed(42)
        .with_pools(PoolConfig::uniform(256, 16))
        .build()
        .expect("valid config")
}

#[test]
fn peak_live_bytes_per_task_is_pinned() {
    let mut rt = runtime();
    let base = live_bytes();
    reset_peak();
    rt.submit_batch(chains_batch(TASKS, CHAINS));
    let report = rt.run().expect("devices present");
    assert_eq!(report.placements.len(), TASKS);
    let peak = usize::try_from(peak_live_bytes() - base).expect("a peak is at least its base");
    assert_eq!(
        peak / TASKS,
        BYTES_PER_TASK,
        "peak live bytes {peak} over {TASKS} tasks moved"
    );
}

/// Peak live bytes, above those live before it, of a second batch of
/// [`TASKS`] submitted to `rt` and run.
fn second_batch_peak(rt: &mut Runtime) -> usize {
    let base = live_bytes();
    reset_peak();
    rt.submit_batch(chains_batch(TASKS, CHAINS));
    let report = rt.run().expect("devices present");
    assert_eq!(report.placements.len(), 2 * TASKS);
    usize::try_from(peak_live_bytes() - base).expect("a peak is at least its base")
}

/// A first report held across a second batch costs one copy of the
/// outcome table as that report saw it: its 10,000 slots, plus the 40 B
/// `Arc` allocation (two counts and a `Vec` header) that wraps them. A
/// report dropped before the second batch costs nothing against a
/// runtime that never took one.
#[test]
fn a_held_report_costs_one_table_copy() {
    let copy = TASKS * std::mem::size_of::<TaskOutcome>()
        + 2 * std::mem::size_of::<usize>()
        + std::mem::size_of::<Vec<TaskOutcome>>();
    assert_eq!(copy, 640_040);

    let mut unreported = runtime();
    unreported.submit_batch(chains_batch(TASKS, CHAINS));
    while unreported.step().expect("devices present").is_some() {}
    let never = second_batch_peak(&mut unreported);
    drop(unreported);

    let mut dropped = runtime();
    dropped.submit_batch(chains_batch(TASKS, CHAINS));
    drop(dropped.run().expect("devices present"));
    let after_drop = second_batch_peak(&mut dropped);
    drop(dropped);

    let mut held = runtime();
    held.submit_batch(chains_batch(TASKS, CHAINS));
    let first = held.run().expect("devices present");
    let saved = first.placements.to_vec();
    let while_held = second_batch_peak(&mut held);

    assert_eq!(after_drop, never, "a dropped report costs nothing");
    assert_eq!(
        while_held - after_drop,
        copy,
        "a held report costs one table copy"
    );
    assert_eq!(
        first.placements[..],
        saved[..],
        "the held report is unchanged"
    );
}
