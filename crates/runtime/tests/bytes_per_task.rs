//! Regression pins: the memory one task costs, end to end, what a held
//! report costs on top, that a reservation ahead of a bulk submit is not
//! thrown away, and what a task submitted through the service costs
//! (`a_service_task_is_stored_once`, with its own table).
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
//! | graph descriptor column (moved in from the builder) | 10,000 × 48 | 480,000 |
//! | graph span columns: predecessors, accesses, successors (`u32` start, length, capacity) | 10,000 × (8 + 8 + 12) | 280,000 |
//! | access arena, its slot column | 10,000 × (16 + 4) | 200,000 |
//! | unmet counts (`u32`), task states | 10,000 × (4 + 1) | 50,000 |
//! | predecessor arena (one per access), successor arena (7,500 edges) | 10,000 × 8 + 7,500 × 8 | 140,000 |
//! | region tables: history, liveness, slot→region, region→slot map | 2,500 × (40 + 16 + 8) + 69,648 | 229,648 |
//! | ready/completed/live bitmaps | (157 + 157 + 40) words × 8 | 2,832 |
//! | engine outcome table (`TaskOutcome`, one slot per submitted task, sized when the run starts: two full 4,096-slot chunks and an exactly sized 1,808-slot tail, their `Arc`s, the chunk list) | 10,000 × 64 + 3 × 40 + 4 × 8 | 640,152 |
//! | engine acceptance log, ready queue (`Event`) | 16,384 × 8 + 4,096 × 32 | 262,144 |
//! | finish slab (48 B `FinishPayload`) and its free list, deferred finishes, event heap | 4,096 × (48 + 4) + 2,816 × 32 + 256 × 32 | 311,296 |
//! | report placements (the outcome table's chunks, shared: every slot is filled) | 3 × 8 | 24 |
//! | per-device deferred-finish headers, other buffers under 4 KiB | 256 × 32 + 384 | 8,576 |
//! | **peak** | | **2,604,672** |
//!
//! 2,604,672 / 10,000 = 260 bytes per task (2,604,496 with the outcome
//! table one `Arc<Vec>` allocated at build). With a 104 B node (the
//! descriptor inline beside three `usize` spans), `usize` unmet counts
//! and a 128 B finish payload it read 325.
//!
//! Live bytes are counted per thread, so the tests here may run in
//! parallel without reading each other's allocations.

mod common;

use common::{live_bytes, peak_live_bytes, reset_peak, CountingAlloc};
use legato_core::task::{AccessMode, TaskDescriptor, Work};
use legato_runtime::{
    EngineConfig, Policy, PoolConfig, Runtime, ServiceConfig, TaskOutcome, TenantId, TenantSpec,
};
use legato_workloads::{chains_batch, fleets};
use std::mem::size_of;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TASKS: usize = 10_000;
const CHAINS: usize = 2_500;
/// Peak live bytes per task; the table above is the arithmetic.
const BYTES_PER_TASK: usize = 260;

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

/// The allocation an `Arc<Vec<TaskOutcome>>` chunk adds to its slots:
/// two counts and a `Vec` header.
const CHUNK_ARC: usize = 2 * size_of::<usize>() + size_of::<Vec<TaskOutcome>>();

/// A first report held across a second batch costs one copy of the
/// outcome table's tail chunk, the only chunk the second batch writes
/// that the report shares. The first batch leaves two full 4,096-slot
/// chunks and an exactly sized 1,808-slot tail; the second batch's
/// growth takes the tail to 4,096 slots. Unshared, that is a
/// reallocation; shared, the engine copies the tail into a new 4,096-slot
/// chunk and the report keeps the old one alive: its 1,808 slots plus
/// the 40 B `Arc` allocation that wraps them. A report dropped before
/// the second batch costs nothing against a runtime that never took
/// one. (With the table one `Arc<Vec>`, a held report cost one copy of
/// the whole table, 640,040 B.)
#[test]
fn a_held_report_costs_one_tail_chunk_copy() {
    let copy = (TASKS - 2 * 4096) * size_of::<TaskOutcome>() + CHUNK_ARC;
    assert_eq!(copy, 115_752);

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
        "a held report costs one tail-chunk copy"
    );
    assert_eq!(
        first.placements.to_vec(),
        saved,
        "the held report is unchanged"
    );
}

/// `Runtime::reserve` ahead of a bulk submit into an empty runtime
/// allocates nothing in the graph: the builder's columns move in, so a
/// graph reservation would be dropped unused (a 10,000 × 48 B descriptor
/// column and a 20,000 × 16 B access arena here). The submit's peak is
/// the bare submit's plus the engine's share, reserved for the run:
/// 10,000 outcome slots in three exactly sized chunks with their `Arc`s
/// and the 4-entry chunk list, and a 10,000-entry acceptance log.
#[test]
fn a_reservation_before_a_bulk_submit_is_not_thrown_away() {
    let engine = TASKS * size_of::<TaskOutcome>() + 3 * CHUNK_ARC + 4 * 8 + TASKS * 8;
    assert_eq!(engine, 720_152);
    let submit_peak = |reserve: bool| {
        let mut rt = runtime();
        let batch = chains_batch(TASKS, CHAINS);
        let base = live_bytes();
        reset_peak();
        if reserve {
            rt.reserve(TASKS, TASKS - CHAINS);
        }
        rt.submit_batch(batch);
        usize::try_from(peak_live_bytes() - base).expect("a peak is at least its base")
    };
    assert_eq!(submit_peak(true), submit_peak(false) + engine);
}

const TENANTS: u32 = 100;
const PER_WAVE: u64 = 8;
const WAVES: u64 = 12;
/// Peak live bytes per task of a service wave run; the table on
/// [`a_service_task_is_stored_once`] is the arithmetic.
const SERVICE_BYTES_PER_TASK: usize = 337;

/// A task submitted through a [`legato_runtime::Service`] is stored once:
/// the service holds it until dispatch, the engine graph after. 100
/// tenants each submit 8 tasks a wave (each to its own region `slot`, so
/// a tenant's slot is a 12-deep chain across waves) for 12 waves, every
/// wave run by `Service::run` and its report dropped before the next.
///
/// The peak of live bytes falls inside the last wave's metering, after
/// its run, with all 9,600 tasks dispatched (bytes; 16,384-slot buffers
/// are doubling growth past 9,600 pushes):
///
/// | structure | arithmetic | bytes |
/// |---|---|---:|
/// | graph descriptor column | 16,384 × 48 | 786,432 |
/// | graph span columns: predecessors, accesses, successors | 16,384 × (8 + 8 + 12) | 458,752 |
/// | access arena, its slot column | 16,384 × (16 + 4) | 327,680 |
/// | predecessor arena (one per access), unmet counts | 16,384 × (8 + 4) | 196,608 |
/// | successor arena (one slot per edge: a chain link holds one) | 16,384 × 8 | 131,072 |
/// | task states | 16,384 × 1 | 16,384 |
/// | region tables: history, liveness, slot→region (800 regions), region→slot map | 1,024 × (40 + 16 + 8) + 17,424 | 82,960 |
/// | engine outcome table (two full 4,096-slot chunks and a 1,408-slot tail, grown at the 12th run's entry) | 9,600 × 64 | 614,400 |
/// | engine acceptance log, ready queue (`Event`) | 16,384 × 8 + 1,024 × 32 | 163,840 |
/// | finish slab and its free list | 1,024 × (48 + 4) | 53,248 |
/// | per-device deferred finishes, their headers and flags, event heap | 38,912 + 2,048 + 64 + 2,048 | 43,072 |
/// | service `task_of`, `metered` | 16,384 × (16 + 1) | 278,528 |
/// | service pending queues (`(u64, LoggedTask)`, 8 slots a tenant, empty) | 100 × 8 × 80 | 64,000 |
/// | metering: the wave's 800 ids, per-tenant unsealed ids and tenant list | 800 × 8 + 100 × 64 + 512 | 13,312 |
/// | other buffers, each under 4 KiB | | 9,680 |
/// | **peak** | | **3,239,968** |
///
/// 3,239,968 / 9,600 = 337 bytes per task. With the outcome table one
/// `Arc<Vec>` grown by amortised doubling it read 359: the peak fell in
/// the last wave's dispatch, with a 12,800-slot table (819,200 B) and
/// 607 tasks still pending. With 104 B graph nodes, a
/// 128 B finish payload and successor lists that relocated 0 → 2 → 4
/// (32,768 arena slots for 8,800 edges) it read 436; a service that
/// also kept a log of every admitted task read 589: per tenant a
/// 128-slot vector of 72 B entries (a descriptor and an access-list
/// header), 921,600 bytes, and one 64 B access list per task, 614,400
/// more.
#[test]
fn a_service_task_is_stored_once() {
    let mut svc = ServiceConfig::new(
        EngineConfig::new()
            .with_devices(fleets::cycled(64))
            .with_policy(Policy::Performance)
            .with_seed(42),
    )
    .build()
    .expect("valid config");
    for _ in 0..TENANTS {
        svc.register(TenantSpec::new()).expect("valid spec");
    }
    let base = live_bytes();
    reset_peak();
    for _ in 0..WAVES {
        for slot in 0..PER_WAVE {
            for t in 0..TENANTS {
                svc.submit(
                    TenantId(t),
                    TaskDescriptor::named("svc").with_work(Work::flops(1e12)),
                    [(slot, AccessMode::InOut)],
                )
                .expect("within the default budget");
            }
        }
        drop(svc.run().expect("devices present"));
    }
    let tasks = (u64::from(TENANTS) * PER_WAVE * WAVES) as usize;
    assert_eq!(svc.engine().graph().len(), tasks);
    let peak = usize::try_from(peak_live_bytes() - base).expect("a peak is at least its base");
    assert_eq!(
        peak / tasks,
        SERVICE_BYTES_PER_TASK,
        "peak live bytes {peak} over {tasks} service tasks moved"
    );
}
