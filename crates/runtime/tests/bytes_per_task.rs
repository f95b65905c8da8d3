//! Regression pin: the memory one task costs, end to end.
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
//! | engine outcome table (`Option<TaskOutcome>`) | 16,384 × 64 | 1,048,576 |
//! | engine acceptance log, ready queue (`Event`) | 16,384 × 8 + 4,096 × 32 | 262,144 |
//! | finish slab and its free list, deferred finishes, event heap | 4,096 × (128 + 4) + 2,816 × 32 + 256 × 32 | 638,976 |
//! | report placements (`TaskOutcome`) | 16,384 × 64 | 1,048,576 |
//! | other buffers, each under 4 KiB | | 10,160 |
//! | **peak** | | **4,710,912** |
//!
//! 4,710,912 / 10,000 = 471 bytes per task.

mod common;

use common::{live_bytes, peak_live_bytes, reset_peak, CountingAlloc};
use legato_runtime::{EngineConfig, Policy, PoolConfig};
use legato_workloads::{chains_batch, fleets};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TASKS: usize = 10_000;
const CHAINS: usize = 2_500;
/// Peak live bytes per task; the table above is the arithmetic.
const BYTES_PER_TASK: usize = 471;

#[test]
fn peak_live_bytes_per_task_is_pinned() {
    let mut rt = EngineConfig::new()
        .with_devices(fleets::cycled(256))
        .with_policy(Policy::Performance)
        .with_seed(42)
        .with_pools(PoolConfig::uniform(256, 16))
        .build()
        .expect("valid config");
    let base = live_bytes();
    reset_peak();
    rt.submit_batch(chains_batch(TASKS, CHAINS));
    let report = rt.run().expect("devices present");
    assert_eq!(report.placements.len(), TASKS);
    let peak = peak_live_bytes() - base;
    assert_eq!(
        peak / TASKS,
        BYTES_PER_TASK,
        "peak live bytes {peak} over {TASKS} tasks moved"
    );
}
