//! The cost ledger: every exact cost the runtime's tier-1 pins, in one
//! table whose rows are scenario × phase and whose columns are the
//! fields of [`common::Cell`]: allocation calls, requested bytes, peak
//! live bytes above the window's start, placement evaluations, rollback
//! visits, metering visits and engine steps. Every cell is an exact
//! `assert_eq!` that names its row.
//!
//! The heap columns count requested sizes on the test's own thread
//! (allocator headers and padding excluded), so they are a property of
//! the code, not of the host, the build profile or the harness's other
//! threads. The work columns read the counters the runtime exposes
//! (`Runtime::placement_evals`, `Runtime::rollback_visits`,
//! `Service::metering_visits`), deterministic, timer-free proxies for
//! placement, rollback and metering cost. Each row's doc carries the
//! per-structure arithmetic of the cells it explains; a change that
//! moves a cell re-pins it with that arithmetic updated, and a failing
//! row prints the whole cell it now reads.
//!
//! The one cost guard outside this table is `analysis_scaling.rs`, a
//! wall-clock ratio: the analyzer has no visit counter to pin.

mod common;

use common::{Cell, CountingAlloc, Meter};
use legato_core::graph::{Frontier, GraphBuilder, TaskGraph};
use legato_core::requirements::{Criticality, Requirements, SecurityLevel};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskId, TaskKind, Work};
use legato_core::units::{Bytes, Seconds};
use legato_fti::Strategy;
use legato_hw::comm::LinkModel;
use legato_hw::device::DeviceSpec;
use legato_hw::recs::Networks;
use legato_runtime::resilience::CheckpointStore;
use legato_runtime::{
    ChurnConfig, ChurnEvent, ChurnEventKind, ChurnTrace, DepartureKind, EnergyConfig, EngineConfig,
    Policy, PoolConfig, ResilienceConfig, Runtime, ServiceConfig, TaskOutcome, TenantId,
    TenantSpec,
};
use legato_workloads::fan::{Chain, Depth, Fan, Kinds, WorkDraw};
use legato_workloads::{chains, chains_batch, fleets};
use std::collections::HashMap;
use std::mem::size_of;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[track_caller]
fn pin(row: &str, read: Cell, pinned: Cell) {
    assert_eq!(read, pinned, "ledger row `{row}` moved");
}

/// A cell with the given heap columns and placement evals, and no other
/// work.
fn cell(calls: usize, bytes: usize, peak: usize, evals: u64) -> Cell {
    Cell {
        calls,
        bytes,
        peak,
        evals,
        ..Cell::default()
    }
}

// 10k chains: a fixed 10k-task graph of 2,500 depth-4 chains (the
// `chains-pooled` benchmark shape at 1/40 scale) bulk-submitted to a
// pooled 256-device fleet.

const TASKS: usize = 10_000;
const CHAINS: usize = 2_500;

fn chains_runtime() -> Runtime {
    EngineConfig::new()
        .with_devices(fleets::cycled(256))
        .with_policy(Policy::Performance)
        .with_seed(42)
        .with_pools(PoolConfig::uniform(256, 16))
        .build()
        .expect("valid config")
}

/// **10k chains / run**: the batch built, bulk-submitted and run, with
/// the report alive. A change that adds a per-task field or a doubling
/// buffer moves the peak; the peak is reached at the end of the run
/// (bytes; 16,384-slot buffers are doubling growth past 10,000 pushes):
///
/// | structure | arithmetic | bytes |
/// |---|---|---:|
/// | graph descriptor column (moved in from the builder) | 10,000 × 48 | 480,000 |
/// | graph span columns: predecessors, accesses, successors (`u32` start, length, capacity) | 10,000 × (8 + 8 + 12) | 280,000 |
/// | access arena, its slot column | 10,000 × (16 + 4) | 200,000 |
/// | unmet counts (`u32`), task states | 10,000 × (4 + 1) | 50,000 |
/// | predecessor arena (one per access), successor arena (7,500 edges) | 10,000 × 8 + 7,500 × 8 | 140,000 |
/// | region tables: history, liveness, slot→region, region→slot map | 2,500 × (40 + 16 + 8) + 69,648 | 229,648 |
/// | ready/completed/live bitmaps | (157 + 157 + 40) words × 8 | 2,832 |
/// | engine outcome table (`TaskOutcome`, one slot per submitted task, sized when the run starts: two full 4,096-slot chunks and an exactly sized 1,808-slot tail, their `Arc`s, the chunk list) | 10,000 × 64 + 3 × 40 + 4 × 8 | 640,152 |
/// | engine acceptance log, ready queue (`Event`) | 16,384 × 8 + 4,096 × 32 | 262,144 |
/// | finish slab (48 B `FinishPayload`) and its free list, deferred finishes, event heap | 4,096 × (48 + 4) + 2,816 × 32 + 256 × 32 | 311,296 |
/// | report placements (the outcome table's chunks, shared: every slot is filled) | 3 × 8 | 24 |
/// | per-device deferred-finish headers, other buffers under 4 KiB | 256 × 32 + 384 | 8,576 |
/// | **peak** | | **2,604,672** |
///
/// 2,604,672 / 10,000 = 260 bytes per task (2,604,496 with the outcome
/// table one `Arc<Vec>` allocated at build; 325 with a 104 B node,
/// `usize` unmet counts and a 128 B finish payload).
#[test]
fn chains_run() {
    let mut rt = chains_runtime();
    let meter = Meter::start(&rt);
    rt.submit_batch(chains_batch(TASKS, CHAINS));
    let report = rt.run().expect("devices present");
    assert_eq!(report.placements.len(), TASKS);
    pin(
        "10k chains / run",
        meter.read(&rt),
        cell(543, 3_241_360, 2_604_672, 45_796),
    );
}

/// The cost of a second batch of [`TASKS`] submitted to `rt` and run,
/// with its report alive.
fn second_wave(rt: &mut Runtime) -> Cell {
    let meter = Meter::start(rt);
    rt.submit_batch(chains_batch(TASKS, CHAINS));
    let report = rt.run().expect("devices present");
    assert_eq!(report.placements.len(), 2 * TASKS);
    meter.read(rt)
}

/// The allocation an `Arc<Vec<TaskOutcome>>` chunk adds to its slots:
/// two counts and a `Vec` header.
const CHUNK_ARC: usize = 2 * size_of::<usize>() + size_of::<Vec<TaskOutcome>>();

/// **10k chains / second wave**, after a first batch whose report was
/// never taken, dropped, or held. A held report costs one copy of the
/// outcome table's tail chunk, the only chunk the second batch writes
/// that the report shares. The first batch leaves two full 4,096-slot
/// chunks and an exactly sized 1,808-slot tail; the second batch's
/// growth takes the tail to 4,096 slots. Unshared, that is a
/// reallocation; shared, the engine copies the tail into a new
/// 4,096-slot chunk and the report keeps the old one alive: its 1,808
/// slots plus the 40 B `Arc` allocation that wraps them, 115,752 B. A
/// dropped report costs nothing against a runtime that never took one.
/// (With the table one `Arc<Vec>`, a held report cost one copy of the
/// whole table, 640,040 B.)
#[test]
fn chains_held_report() {
    let copy = (TASKS - 2 * 4096) * size_of::<TaskOutcome>() + CHUNK_ARC;
    assert_eq!(copy, 115_752);

    let mut unreported = chains_runtime();
    unreported.submit_batch(chains_batch(TASKS, CHAINS));
    while unreported.step().expect("devices present").is_some() {}
    let never = second_wave(&mut unreported);
    drop(unreported);

    let mut dropped = chains_runtime();
    dropped.submit_batch(chains_batch(TASKS, CHAINS));
    drop(dropped.run().expect("devices present"));
    let after_drop = second_wave(&mut dropped);
    drop(dropped);

    let mut held = chains_runtime();
    held.submit_batch(chains_batch(TASKS, CHAINS));
    let first = held.run().expect("devices present");
    let saved = first.placements.to_vec();
    let while_held = second_wave(&mut held);
    assert_eq!(first.placements.to_vec(), saved, "the held report moved");

    let wave = cell(29, 4_742_992, 2_273_688, 45_784);
    pin("10k chains / second wave, never reported", never, wave);
    pin("10k chains / second wave, report dropped", after_drop, wave);
    pin(
        "10k chains / second wave, report held",
        while_held,
        cell(
            wave.calls + 1,
            wave.bytes + CHUNK_ARC,
            wave.peak + copy,
            wave.evals,
        ),
    );
}

/// **10k chains / submit**, with and without `Runtime::reserve` ahead
/// of the bulk submit into an empty runtime. The reservation allocates
/// nothing in the graph: the builder's columns move in, so a graph
/// reservation would be dropped unused (a 10,000 × 48 B descriptor
/// column and a 20,000 × 16 B access arena here). The submit's peak is
/// the bare submit's plus the engine's share, reserved for the run:
/// 10,000 outcome slots in three exactly sized chunks with their `Arc`s
/// and the 4-entry chunk list, and a 10,000-entry acceptance log,
/// 720,152 B.
#[test]
fn chains_reservation() {
    let engine = TASKS * size_of::<TaskOutcome>() + 3 * CHUNK_ARC + 4 * 8 + TASKS * 8;
    assert_eq!(engine, 720_152);
    let submit = |reserve: bool| {
        let mut rt = chains_runtime();
        let batch = chains_batch(TASKS, CHAINS);
        let meter = Meter::start(&rt);
        if reserve {
            rt.reserve(TASKS, TASKS - CHAINS);
        }
        rt.submit_batch(batch);
        meter.read(&rt)
    };
    let bare = cell(27, 1_004_528, 793_576, 0);
    pin("10k chains / submit", submit(false), bare);
    pin(
        "10k chains / submit, reserved",
        submit(true),
        cell(bare.calls + 8, bare.bytes + engine, bare.peak + engine, 0),
    );
}

// Service waves.

/// **Service waves / run**: a task submitted through a [`Service`] is
/// stored once: the service holds it until dispatch, the engine graph
/// after. 100 tenants each submit 8 tasks a wave (each to its own region
/// `slot`, so a tenant's slot is a 12-deep chain across waves) for 12
/// waves, every wave run by `Service::run` and its report dropped before
/// the next. Every one of the 9,600 tasks is metered once.
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
/// `Arc<Vec>` grown by amortised doubling it read 359; with 104 B graph
/// nodes, a 128 B finish payload and relocating successor lists, 436; a
/// service that also kept a log of every admitted task read 589.
#[test]
fn service_waves() {
    const TENANTS: u32 = 100;
    const PER_WAVE: u64 = 8;
    const WAVES: u64 = 12;
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
    let meter = Meter::start(&svc);
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
    assert_eq!(svc.engine().graph().len(), 9_600);
    pin(
        "service waves / run",
        meter.read(&svc),
        Cell {
            metering_visits: 9_600,
            ..cell(10_529, 6_697_700, 3_239_968, 614_400)
        },
    );
}

// Fresh fan: one fresh small simulation, phase by phase, per policy.

/// Scatter, 32 chains of 8–32 tasks, gather: the `sweep-small` shape,
/// 654 tasks and 684 edges at seed 42.
fn fan() -> Fan {
    let chain = Chain {
        name: "chain",
        depth: Depth::Uniform { lo: 8, hi: 32 },
        work: WorkDraw::Flops { lo: 5e9, hi: 5e10 },
        kinds: Kinds::InferenceEveryFourth,
        criticality: Criticality::Normal,
        security: SecurityLevel::Public,
    };
    Fan {
        chains: vec![chain; 32],
    }
}

/// One fresh run under `policy`, its rows pinned: build, per-task
/// submit, run (with the report it returns), a second report, and the
/// drop of both reports and the runtime, which frees every byte.
fn fan_run(policy: Policy, pinned: [Cell; 5]) {
    let whole = Meter::start(&());
    let devices = fleets::cycled(4);
    let mut tasks = Vec::new();
    fan().emit(42, |descriptor, accesses| {
        tasks.push((descriptor, accesses.to_vec()));
    });
    let submitted = tasks.len();
    let meter = Meter::start(&());
    let mut rt = EngineConfig::new()
        .with_devices(devices)
        .with_policy(policy)
        .with_seed(42)
        .build()
        .expect("valid config");
    let build = meter.read(&rt);
    let meter = Meter::start(&rt);
    for (descriptor, accesses) in tasks {
        rt.submit(descriptor, accesses);
    }
    let submit = meter.read(&rt);
    let meter = Meter::start(&rt);
    let first = rt.run().expect("devices present");
    let run = meter.read(&rt);
    assert_eq!(first.placements.len(), submitted);
    let meter = Meter::start(&rt);
    let second = rt.report();
    let report = meter.read(&rt);
    let meter = Meter::start(&());
    drop((first, second, rt));
    let dropped = meter.read(&());
    assert_eq!(whole.live(), 0, "the drop frees every byte");
    let phases = ["build", "submit", "run", "report", "drop"];
    for ((phase, read), pinned) in phases
        .iter()
        .zip([build, submit, run, report, dropped])
        .zip(pinned)
    {
        pin(&format!("fan, {policy:?} / {phase}"), read, pinned);
    }
}

/// **Fan / build, submit, report, drop**: the same under every policy.
/// Doubling growth starts at 4 elements (8 for 1-byte ones) and ends at
/// 1,024 for the 654-entry columns.
///
/// | phase | structure | calls | bytes |
/// |---|---|---:|---:|
/// | build | devices (4 × 160) and fault probabilities (4 × 8) | 2 | 672 |
/// | build | spec classes: specs (4 × 128), prices (4 × 16), TEE capabilities (4 × 24), class per device (4 × 4) | 4 | 688 |
/// | build | the class specs' names (56), ladders (4 × 144) and ladder labels (12 strings, 72) | 20 | 704 |
/// | build | the one pool's shards, one per class: shard and position per device (4 × 8), shards (4 × 64: member list, busy column, pool, class), each shard's members (4 × 32) and busy column (8 B, 4 × 32) | 10 | 544 |
/// | **build** | | **36** | **2,608** |
/// | submit | descriptor column (48 B, 4 → 1,024) | 9 | 98,112 |
/// | submit | span columns: predecessors (8 B), successors (12 B), accesses (8 B) | 27 | 57,232 |
/// | submit | access arena (16 B) and its slot column (4 B) | 18 | 40,880 |
/// | submit | unmet counts (4 B), task states (1 B, 8 → 1,024) | 17 | 10,216 |
/// | submit | predecessor arena, successor arena (8 B each), inference scratch (8 B, 4 → 32) | 22 | 33,184 |
/// | submit | region tables: region→slot map (5 tables, 2,188), slot→region (8 B), history (40 B), liveness (16 B), 4 → 64, live bitmap (32) | 21 | 10,156 |
/// | submit | ready and completed bitmaps (8 B words, 4 → 16 each) | 6 | 448 |
/// | submit | per-region reader lists | 36 | 1,504 |
/// | submit | engine ready queue (4 × 32) | 1 | 128 |
/// | **submit** | | **157** | **251,860** |
/// | **report** | the chunk list (1 × 8); every slot is filled, so the chunk is shared | **1** | **8** |
/// | **drop** | | **0** | **0** |
///
/// With the outcome table one `Arc<Vec>`, build read 27 / 2,104 (the
/// empty table's `Arc`, 40 B, allocated at build) and report 0 / 0.
/// Before each shard mirrored its members' timelines in a busy column,
/// build read 32 / 2,384, peak 1,872: the column adds a 24 B `Vec`
/// header to each shard and one 4-slot allocation per shard, 4 calls
/// and 224 B.
fn fan_phases(run: Cell) -> [Cell; 5] {
    [
        cell(36, 2_608, 2_096, 0),
        cell(157, 251_860, 115_488, 0),
        run,
        cell(1, 8, 8, 0),
        cell(0, 0, 0, 0),
    ]
}

/// **Fan, Performance / run**:
///
/// | structure | calls | bytes |
/// |---|---:|---:|
/// | outcome table: one exactly sized chunk (654 × 64), its `Arc` (40), the chunk list (4 × 8) | 3 | 41,928 |
/// | acceptance log (8 B, 4 → 1,024) | 9 | 16,352 |
/// | finish slab (48 B, 4 → 32 slots) and its free list (4 B) | 8 | 3,120 |
/// | per-device deferred finishes (32 B `Event`s) | 8 | 2,944 |
/// | their headers (4 × 32), head-in-heap flags (8), event heap (4 × 32) | 3 | 264 |
/// | ready queue growth (32 B, 4 → 32) | 3 | 1,792 |
/// | released-successor scratch (8 B, 4 → 32) | 4 | 480 |
/// | the report's chunk list (1 × 8) | 1 | 8 |
/// | **run** | **39** | **66,888** |
///
/// With the outcome table one `Arc<Vec>` it read 36 / 66,808.
#[test]
fn fan_performance() {
    let run = cell(39, 66_888, 54_872, 2_616);
    fan_run(Policy::Performance, fan_phases(run));
}

/// **Fan, Energy / run**: Performance's, with deferred finishes of 4
/// calls and 1,920 B.
#[test]
fn fan_energy() {
    let run = cell(35, 65_864, 54_232, 2_616);
    fan_run(Policy::Energy, fan_phases(run));
}

/// **Fan, Edp / run**: Performance's, with deferred finishes of 8 calls
/// and 3,840 B.
#[test]
fn fan_edp() {
    let run = cell(39, 67_784, 55_256, 2_616);
    fan_run(Policy::Edp, fan_phases(run));
}

/// **Fan, Weighted / run**: Performance's, with deferred finishes of 6
/// calls and 2,304 B, and Weighted's survivor scratch (4 × 40), 1 call.
/// (Before every runtime placed through its pools, a per-class anchor
/// scratch, 288 B, made it 39 / 66,696; it is now one inline set.)
#[test]
fn fan_weighted() {
    let run = cell(38, 66_408, 54_648, 2_616);
    fan_run(Policy::Weighted(0.5), fan_phases(run));
}

// Placement steady state.

const FLEET: usize = 1024;
const WAVE: usize = 64;

/// One wave: a serial chain over one region, so every task is placed
/// against an idle fleet.
fn submit_wave(rt: &mut Runtime, requirements: Requirements) {
    for _ in 0..WAVE {
        rt.submit(
            TaskDescriptor::named("stage")
                .with_kind(TaskKind::Inference)
                .with_work(Work::flops(2e10))
                .with_requirements(requirements),
            [(0u64, AccessMode::InOut)],
        );
    }
}

/// The cost of placing (and completing) a second wave, stepped, after a
/// first wave warmed every buffer.
fn steady_wave(mut rt: Runtime, requirements: Requirements) -> Cell {
    rt.reserve(2 * WAVE, 2 * WAVE);
    submit_wave(&mut rt, requirements);
    let warm = rt.run().expect("warm-up wave runs");
    assert_eq!(warm.placements.len(), WAVE);
    // A report still held when the second wave's first step grows the
    // outcome table would make that step copy it.
    drop(warm);
    submit_wave(&mut rt, requirements);
    // `step`, not `run`: the report `run` returns is a fresh allocation
    // by design.
    let mut meter = Meter::start(&rt);
    while meter.step(rt.step()) {}
    let cell = meter.read(&rt);
    let report = rt.report();
    assert_eq!(report.placements.len(), 2 * WAVE);
    let k = requirements.criticality.replica_count();
    assert!(report.placements.iter().all(|p| p.devices.len() == k));
    cell
}

/// **Placement steady state / second wave**, one row per scenario:
/// steady-state placement allocates nothing (DESIGN.md §8). The
/// one-pass selections keep their top-k inline, `Weighted`'s anchors
/// included; its survivors (sized to the fleet) and the security plan
/// live in per-runtime scratch sized by the first placements; the
/// pruning search's trees and stale list are sized when the pools are
/// built; and `reserve` sizes the outcome table and the acceptance log
/// up front. A placement that allocated would show once per task. Every
/// task prices exactly its candidate set: `WAVE × candidates` evals. The
/// wave takes 65 steps: one `Finish` per task, and the first task's
/// `Ready`; each finish places the successor it releases.
#[test]
fn placement_steady_state() {
    let base = || {
        EngineConfig::new()
            .with_devices(fleets::cycled(FLEET))
            .with_policy(Policy::Weighted(0.5))
            .with_seed(7)
    };
    let sizes = [(RegionId(0), Bytes::mib(32))].into_iter().collect();
    let drain_one = ChurnTrace::from_events(vec![ChurnEvent {
        at: Seconds::ZERO,
        kind: ChurnEventKind::Departure {
            device: 1,
            kind: DepartureKind::Planned,
        },
    }]);
    let public = Requirements::new();
    let enclave = Requirements::new().with_security(SecurityLevel::Enclave);
    // Dual replicas (k = 2): the one-pass selection keeps two plans per
    // accumulator, and the Pareto bound keeps two accumulators.
    let replicated = Requirements::new().with_criticality(Criticality::High);
    let bounded = || EnergyConfig::new().with_makespan_bound(Seconds(0.05));
    let scenarios = [
        ("plain", base(), public, FLEET),
        (
            "churn-masked",
            base().with_churn(ChurnConfig::new(drain_one.clone())),
            public,
            FLEET - 1,
        ),
        (
            "secured",
            base().with_region_sizes(sizes),
            enclave,
            FLEET / 2, // the x86 and arm64 quarters host enclaves
        ),
        ("pareto", base().with_energy(bounded()), public, FLEET),
        (
            "replicated-churn-masked",
            base()
                .with_policy(Policy::Performance)
                .with_churn(ChurnConfig::new(drain_one)),
            replicated,
            FLEET - 1,
        ),
        (
            "replicated-pareto",
            base().with_energy(bounded()),
            replicated,
            FLEET,
        ),
        // `Weighted` with two replicas: every shard holds two anchors,
        // and every candidate is still priced.
        ("replicated-weighted", base(), replicated, FLEET),
        // The sharded search: on a fleet the chain leaves idle, the
        // best class's shards all tie at its bound, so each task prices
        // that class's quarter of the fleet and prunes the rest.
        (
            "pooled",
            base().with_pools(PoolConfig::uniform(FLEET, 16)),
            public,
            FLEET / 4,
        ),
    ];
    for (name, config, requirements, candidates) in scenarios {
        let rt = config.build().expect("valid engine config");
        pin(
            &format!("placement steady state, {name} / second wave"),
            steady_wave(rt, requirements),
            Cell {
                steps: WAVE as u64 + 1,
                ..cell(0, 0, 0, (WAVE * candidates) as u64)
            },
        );
    }
}

// Graph drain.

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

/// **Graph drain / pass 0, pass 1**, without and with declared sizes:
/// draining the task graph allocates nothing. Every task the engine runs
/// crosses `TaskGraph::try_claim` and `TaskGraph::complete_into`, and
/// each completion may flip the liveness of the regions it touches.
/// Region liveness lives in per-slot arrays and a live bitmap that grow
/// when a region is first declared, at submission, so a transition only
/// indexes. A 10k-task graph of depth-4 chains is drained, then drained
/// again after a rollback to the empty frontier; only the drain loops
/// are metered (`rollback_to` returns its ready list as a fresh `Vec`).
/// The declared variant resolves every region's size by slot before the
/// drain, the way the runtime resolves its one size declaration, and
/// prices the live frontier after every completion the way a checkpoint
/// does.
#[test]
fn graph_drain() {
    const DEPTH: u64 = 4;
    let chains = CHAINS as u64;
    for declared in [false, true] {
        // Each chain threads its own region (`inout`): a region goes
        // live when its chain's head completes and dies with its tail.
        let mut b = GraphBuilder::with_capacity(TASKS, 0);
        for c in 0..chains {
            for _ in 0..DEPTH {
                b.task(TaskDescriptor::named("t"), [(c, AccessMode::InOut)]);
            }
        }
        let mut g = b.build();
        let sizes: Vec<Bytes> = if declared {
            let declaration: HashMap<RegionId, Bytes> = (0..chains)
                .map(|c| (RegionId(c), Bytes::mib(c % 7 + 1)))
                .collect();
            g.regions().iter().map(|r| declaration[r]).collect()
        } else {
            Vec::new()
        };
        let mut stack = Vec::with_capacity(TASKS);
        let mut released = Vec::with_capacity(TASKS);
        for pass in 0..2 {
            let row = format!("graph drain, declared {declared} / pass {pass}");
            stack.extend(g.ready());
            let meter = Meter::start(&());
            let (peak_live, peak_bytes) = drain(&mut g, &mut stack, &mut released, &sizes);
            let cell = meter.read(&());
            assert!(g.is_complete(), "{row}: drain left tasks behind");
            assert!(peak_live > 0, "{row}: no region ever went live");
            assert_eq!(peak_bytes > Bytes::ZERO, declared, "{row}");
            assert_eq!(g.live_region_count(), 0);
            pin(&row, cell, Cell::default());
            g.rollback_to(&Frontier::default()).unwrap();
        }
    }
}

// Checkpoint pricing.

/// A wave of checkpoints of growing images, the first one empty, with a
/// sealing surcharge on every other one, then the rollback that reads
/// the last image back. Returns when the restart completes.
fn checkpoint_wave(store: &mut CheckpointStore, from: Seconds) -> Seconds {
    let mut at = from;
    for i in 0..64u64 {
        let seal = Seconds(0.001 * (i % 2) as f64);
        let (start, finish) = store.write(at, Bytes::mib(i * 8), seal);
        at = finish.max(store.stall_after(start, finish));
    }
    store.read(at, Bytes::mib(63 * 8))
}

/// **Checkpoint pricing / second wave**, per strategy: pricing a
/// checkpoint image allocates nothing. Every periodic checkpoint, drain
/// checkpoint, rollback read and session seal is priced by a
/// `CheckpointStore`, which evaluates the FTI timing model as a function
/// of the byte count (it used to build an `Fti` engine with one phantom
/// region, and a `MemoryManager`, per price). The row meters a second
/// wave of checkpoints and a rollback on a warm store.
#[test]
fn checkpoint_pricing() {
    for strategy in [Strategy::Async, Strategy::Initial] {
        let mut store = CheckpointStore::new(strategy);
        let resumed = checkpoint_wave(&mut store, Seconds::ZERO);
        let meter = Meter::start(&());
        let resumed_again = checkpoint_wave(&mut store, resumed);
        let cell = meter.read(&());
        assert!(resumed_again > resumed);
        pin(
            &format!("checkpoint pricing, {strategy} / second wave"),
            cell,
            Cell::default(),
        );
    }
}

// Link models.

/// **Link models / transfer pricing**: evaluating a comm transfer cost
/// allocates nothing. The scheduler's topology layer calls
/// [`LinkModel::transfer_time`] per candidate pool per placement (tens
/// of millions of evaluations on a 1M-task run), so the cost model must
/// stay pure arithmetic on `Copy` values: 10,000 rounds over the
/// compute-network and fabric links and five sizes from zero to 2 GiB.
#[test]
fn link_models() {
    let networks = Networks::default();
    let links = [
        LinkModel::compute_network(&networks, Seconds(25e-6)),
        LinkModel::fabric(&networks, Seconds(5e-6)),
    ];
    let sizes = [
        Bytes::ZERO,
        Bytes::kib(4),
        Bytes::mib(1),
        Bytes::mib(64),
        Bytes::gib(2),
    ];
    let meter = Meter::start(&());
    let mut total = Seconds::ZERO;
    for round in 0..10_000u64 {
        let link = links[(round % 2) as usize];
        let bytes = sizes[(round % sizes.len() as u64) as usize];
        total += link.transfer_time(bytes);
    }
    let cell = meter.read(&());
    assert!(total > Seconds::ZERO, "costs were really evaluated");
    pin("link models / transfer pricing", cell, Cell::default());
}

// Pool scaling.

const WIDE: usize = 20_000;

/// [`WIDE`] independent tasks with varied sizes (so device busy times
/// diverge and pool bounds separate), each on its own region, run on
/// `fleet` cycled devices in 16-device pools or unpooled. Returns the
/// run's cell and makespan.
fn wide(policy: Policy, fleet: usize, pooled: bool) -> (Cell, Seconds) {
    let mut cfg = EngineConfig::new()
        .with_devices(fleets::cycled(fleet))
        .with_policy(policy)
        .with_seed(1);
    if pooled {
        cfg = cfg.with_pools(PoolConfig::uniform(fleet, 16));
    }
    let mut rt = cfg.build().expect("valid engine config");
    chains(WIDE, WIDE, |descriptor, accesses| {
        rt.submit(descriptor, accesses.iter().copied());
    });
    let meter = Meter::start(&rt);
    let report = rt.run().expect("devices present");
    (meter.read(&rt), report.makespan)
}

/// The pool-scaling fleets: 16-device pools on 64, 256 and 1024 cycled
/// devices, and the 1024 unpooled.
const FLEETS: [(&str, usize, bool); 4] = [
    ("64 pooled", 64, true),
    ("256 pooled", 256, true),
    ("1024 pooled", 1024, true),
    ("1024 unpooled", 1024, false),
];

/// The pool-scaling rows under `policy`, with the rules derived from
/// them: 16× the devices costs at most 3× the evals per task
/// (sub-linear), the pooled 1024-device search is at least 3× cheaper
/// than the per-device reference, which prices every device for every
/// task (`WIDE × 1024`), and pruning leaves the schedule bit-identical
/// to the unpooled run's.
fn pool_scaling(policy: Policy, pinned: [Cell; 4]) {
    let mut runs = Vec::new();
    for ((name, fleet, pooled), cell) in FLEETS.into_iter().zip(pinned) {
        let (read, makespan) = wide(policy, fleet, pooled);
        pin(
            &format!("pool scaling, {policy:?}, {name} / run"),
            read,
            cell,
        );
        runs.push((read.evals, makespan));
    }
    let (small, large) = (runs[0].0, runs[2].0);
    assert!(large <= 3 * small, "{policy:?}: evals grew super-linearly");
    assert!(
        3 * large <= (WIDE * 1024) as u64,
        "{policy:?}: not 3× cheaper than flat"
    );
    assert_eq!(
        runs[2].1, runs[3].1,
        "{policy:?}: pruning moved the schedule"
    );
}

/// **Pool scaling, Performance / run**: evals per task 4.0 on 64
/// pooled devices, 4.4 on 256, 8.9 on 1024, 1024.0 unpooled.
#[test]
fn pool_scaling_performance() {
    pool_scaling(
        Policy::Performance,
        [
            cell(470, 6_670_360, 3_979_696, 80_388),
            cell(1_164, 6_670_744, 3_992_176, 87_756),
            cell(2_466, 6_645_144, 4_012_144, 177_640),
            cell(2_465, 6_645_080, 4_012_080, 20_480_000),
        ],
    );
}

/// **Pool scaling, Weighted / run**: `Weighted` once fell back to the
/// flat scan (its global min-max normalisation needed every candidate);
/// the pooled path reconstructs it from per-shard busy extrema. Evals
/// per task 4.0 on 64 pooled devices, 4.3 on 256, 7.3 on 1024, 1024.0
/// unpooled.
#[test]
fn pool_scaling_weighted() {
    pool_scaling(
        Policy::Weighted(0.5),
        [
            cell(358, 6_533_144, 3_910_064, 80_288),
            cell(844, 6_539_672, 3_918_448, 85_780),
            cell(2_135, 6_582_168, 3_964_272, 145_076),
            cell(2_135, 6_623_064, 4_005_168, 20_480_000),
        ],
    );
}

// Rollback prefixes.

const LINK_CHAINS: u64 = 8;
const TAIL_LINKS: u64 = 16;
const ROLLBACKS: u32 = 6;

fn link(flops: f64) -> TaskDescriptor {
    TaskDescriptor::named("link").with_work(Work::flops(flops))
}

/// `links` rounds of one single-replica task per chain (region = chain).
fn submit_links(rt: &mut Runtime, links: u64) {
    for _ in 0..links {
        for chain in 0..LINK_CHAINS {
            rt.submit(link(1e12), [(chain, AccessMode::InOut)]);
        }
    }
}

/// A prefix of `prefix_links` per chain run to completion, then a tail
/// that cannot finish. Every device corrupts every execution, which a
/// single replica accepts silently and a dual one always detects, and
/// there is no retry budget: the tail's chains complete, the
/// dual-replica gather behind them rolls everything back to the prefix
/// ([`ROLLBACKS`] times, a straggler in flight each time) and then
/// fails. Returns the cell of each step that rolled back.
fn rollbacks(prefix_links: u64) -> Vec<Cell> {
    let mut rt = EngineConfig::new()
        .with_devices(vec![DeviceSpec::xeon_x86(); 4])
        .with_policy(Policy::Performance)
        .with_seed(5)
        .with_max_retries(0)
        .with_resilience(ResilienceConfig::new(Seconds(1e12)).with_max_rollbacks(ROLLBACKS))
        .build()
        .expect("valid engine config");
    for d in 0..4 {
        rt.set_fault_prob(d, 1.0);
    }
    submit_links(&mut rt, prefix_links);
    let report = rt.run().expect("devices present");
    assert_eq!(report.placements.len() as u64, LINK_CHAINS * prefix_links);

    submit_links(&mut rt, TAIL_LINKS);
    rt.submit(link(1e15), [(LINK_CHAINS, AccessMode::InOut)]);
    let gather = rt.submit(
        link(1e12).with_requirements(Requirements::new().with_criticality(Criticality::High)),
        (0..LINK_CHAINS).map(|chain| (chain, AccessMode::In)),
    );
    let mut cells = Vec::new();
    loop {
        let rolled = rt.rollback_trace().len();
        let mut meter = Meter::start(&rt);
        if !meter.step(rt.step()) {
            break;
        }
        if rt.rollback_trace().len() > rolled {
            cells.push(meter.read(&rt));
        }
    }
    assert_eq!(rt.report().failed, vec![gather], "budget spent: it fails");
    cells
}

/// **Rollback prefixes / rollback**, at a 4-link and a 64-link
/// checkpointed prefix: a rollback costs what it discards, not the
/// graph. The graph re-arms only the tasks that changed sides of the
/// frontier (and their waiting successors) and the engine reads only the
/// acceptance-log entries since the checkpoint. Every tail link was
/// accepted (one log entry) and re-armed; so were the gather and the
/// straggler, neither of which was ever accepted: `2 × 128 + 2` visits
/// per rollback, behind a 16× longer prefix the same. Each rolling step
/// makes 9 calls of 5,160 B, and the rollback trace's doubling growth
/// (32 B `RollbackEvent`s) one more at the first rollback (4 × 32) and
/// the fifth (8 × 32).
#[test]
fn rollback_prefixes() {
    let tail = LINK_CHAINS * TAIL_LINKS;
    let heap = [
        (10, 5_288),
        (9, 5_160),
        (9, 5_160),
        (9, 5_160),
        (10, 5_416),
        (9, 5_160),
    ];
    for prefix in [4, 64] {
        let read = rollbacks(prefix);
        assert_eq!(read.len(), ROLLBACKS as usize);
        for (i, (read, (calls, bytes))) in read.into_iter().zip(heap).enumerate() {
            let pinned = Cell {
                rollback_visits: 2 * tail + 2,
                steps: 1,
                ..cell(calls, bytes, 2_120, 0)
            };
            pin(
                &format!("rollback prefixes, {prefix} links / rollback {i}"),
                read,
                pinned,
            );
        }
    }
}

// Service stream.

/// `rounds` tasks per tenant streamed through `Service::step` only
/// (every tenant submits one task, the engine advances 1,000 events, and
/// so on; then the backlog drains) on the 64-device reference service
/// fleet. Returns the stream's cell.
fn stream(rounds: u64) -> Cell {
    const TENANTS: u32 = 1000;
    let mut svc = ServiceConfig::new(
        EngineConfig::new()
            .with_devices(fleets::cycled(64))
            .with_policy(Policy::Performance)
            .with_seed(3),
    )
    .build()
    .expect("valid config");
    for i in 0..TENANTS {
        svc.register(TenantSpec::new().with_share(1.0 + f64::from(i % 4)))
            .expect("valid spec");
    }
    let mut meter = Meter::start(&svc);
    for round in 0..rounds {
        for t in 0..TENANTS {
            svc.submit(
                TenantId(t),
                TaskDescriptor::named("t").with_work(Work::flops(1e12)),
                [(round % 4, AccessMode::InOut)],
            )
            .expect("within default budget");
        }
        for _ in 0..TENANTS {
            if !meter.step(svc.step()) {
                break;
            }
        }
    }
    while meter.step(svc.step()) {}
    let tasks = rounds * u64::from(TENANTS);
    assert_eq!(svc.engine().accepted().len() as u64, tasks);
    let metered: u64 = (0..TENANTS)
        .map(|t| svc.tenant_report(TenantId(t)).tasks_completed)
        .sum();
    assert_eq!(metered, tasks);
    meter.read(&svc)
}

/// **Service stream / stream**, at 4 and 8 rounds: metering a
/// step-driven service costs O(new work). `Service::step` syncs the
/// tenant meters after every engine event; re-reading the engine's
/// cumulative outcome log would visit ~n²/2 outcomes (8,000 tasks: 32
/// million). The service reads the acceptance log from a cursor instead:
/// one visit per acceptance, the task count, so twice the tasks is
/// exactly twice the visits. Each task takes two steps, its `Ready` and
/// its `Finish`.
#[test]
fn service_stream() {
    let small = stream(4);
    let large = stream(8);
    pin(
        "service stream, 4 rounds / stream",
        small,
        Cell {
            metering_visits: 4_000,
            steps: 8_000,
            ..cell(6_504, 3_581_532, 1_971_640, 256_000)
        },
    );
    pin(
        "service stream, 8 rounds / stream",
        large,
        Cell {
            metering_visits: 8_000,
            steps: 16_000,
            ..cell(11_547, 5_822_596, 2_854_688, 512_000)
        },
    );
}
