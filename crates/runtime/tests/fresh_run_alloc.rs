//! Regression pins: what one fresh small simulation allocates, phase by
//! phase, once per policy.
//!
//! The graph is the `sweep-small` shape: a scatter, 32 chains of 8–32
//! tasks and a gather (654 tasks, 684 edges, 33 regions at seed 42),
//! submitted task by task to a runtime on 4 cycled devices, run, and
//! reported a second time; then both reports and the runtime are
//! dropped. Each phase's allocation calls and the bytes they asked for
//! (an allocation's size, a reallocation's new size) are counted on the
//! test's own thread, so the figures are exact on any host, in debug or
//! release. A per-run fixed cost moves them; re-pin only with the new
//! arithmetic below. Doubling growth starts at 4 elements (8 for 1-byte
//! ones) and ends at 1,024 for the 654-entry columns.
//!
//! | phase | structure | calls | bytes |
//! |---|---|---:|---:|
//! | build | devices (4 × 160) and fault probabilities (4 × 8) | 2 | 672 |
//! | build | spec classes: specs (4 × 128), prices (4 × 16), TEE capabilities (4 × 24), class per device (4 × 4) | 4 | 688 |
//! | build | the class specs' names (56), ladders (4 × 144) and ladder labels (12 strings, 72) | 20 | 704 |
//! | build | the one pool's shards, one per class: shard per device (4 × 8), shards (4 × 40: member list, pool, class), each shard's members (4 × 32) | 6 | 320 |
//! | **build** | | **32** | **2,384** |
//! | submit | descriptor column (48 B, 4 → 1,024) | 9 | 98,112 |
//! | submit | span columns: predecessors (8 B), successors (12 B), accesses (8 B) | 27 | 57,232 |
//! | submit | access arena (16 B) and its slot column (4 B) | 18 | 40,880 |
//! | submit | unmet counts (4 B), task states (1 B, 8 → 1,024) | 17 | 10,216 |
//! | submit | predecessor arena, successor arena (8 B each), inference scratch (8 B, 4 → 32) | 22 | 33,184 |
//! | submit | region tables: region→slot map (5 tables, 2,188), slot→region (8 B), history (40 B), liveness (16 B), 4 → 64, live bitmap (32) | 21 | 10,156 |
//! | submit | ready and completed bitmaps (8 B words, 4 → 16 each) | 6 | 448 |
//! | submit | per-region reader lists | 36 | 1,504 |
//! | submit | engine ready queue (4 × 32) | 1 | 128 |
//! | **submit** | | **157** | **251,860** |
//! | run | outcome table: one exactly sized chunk (654 × 64), its `Arc` (40), the chunk list (4 × 8) | 3 | 41,928 |
//! | run | acceptance log (8 B, 4 → 1,024) | 9 | 16,352 |
//! | run | finish slab (48 B, 4 → 32 slots) and its free list (4 B) | 8 | 3,120 |
//! | run | per-device deferred finishes (32 B `Event`s); Performance | 8 | 2,944 |
//! | run | their headers (4 × 32), head-in-heap flags (8), event heap (4 × 32) | 3 | 264 |
//! | run | ready queue growth (32 B, 4 → 32) | 3 | 1,792 |
//! | run | released-successor scratch (8 B, 4 → 32) | 4 | 480 |
//! | run | the report's chunk list (1 × 8) | 1 | 8 |
//! | **run**, Performance | | **39** | **66,888** |
//! | **report** | the chunk list (1 × 8); every slot is filled, so the chunk is shared | **1** | **8** |
//! | **drop** | | **0** | **0** |
//!
//! The other policies differ only in the run: their deferred finishes
//! take 4 calls and 1,920 B (Energy), 8 and 3,840 (Edp), 6 and 2,304
//! (Weighted), and Weighted adds its survivor scratch (4 × 40), 1 call.
//!
//! Before every runtime placed through its pools, a runtime built
//! without a `PoolConfig` had none, and the same test read build
//! 26 / 2,064; Weighted's run read 39 / 66,696, one call more for a
//! per-class anchor scratch (288 B) that is now one inline set.
//!
//! With the outcome table one `Arc<Vec>`, the same test read build
//! 27 / 2,104 (the empty table's `Arc`, 40 B, allocated at build), run
//! 36 / 66,808 (one 41,856 B table buffer, a report that shares it
//! without an allocation) and report 0 / 0; submit was the same.
mod common;

use common::{live_bytes, requests, CountingAlloc, Requests};
use legato_core::requirements::{Criticality, SecurityLevel};
use legato_runtime::{EngineConfig, Policy};
use legato_workloads::fan::{Chain, Depth, Fan, Kinds, WorkDraw};
use legato_workloads::fleets;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The requests one call of `f` makes on this thread.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Requests) {
    let before = requests();
    let value = f();
    (value, requests() - before)
}

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

/// `(calls, bytes)` of each phase of one fresh run: build, per-task
/// submit, run (with the report it returns), a second report, and the
/// drop of both reports and the runtime.
type Phases = [(usize, usize); 5];

/// The phases of one fresh run under `policy`; every byte is freed by
/// the drop.
fn phases(policy: Policy) -> Phases {
    let base = live_bytes();
    let devices = fleets::cycled(4);
    let mut tasks = Vec::new();
    fan().emit(42, |descriptor, accesses| {
        tasks.push((descriptor, accesses.to_vec()));
    });
    let submitted = tasks.len();
    let (mut rt, build) = measure(|| {
        EngineConfig::new()
            .with_devices(devices)
            .with_policy(policy)
            .with_seed(42)
            .build()
            .expect("valid config")
    });
    let ((), submit) = measure(|| {
        for (descriptor, accesses) in tasks {
            rt.submit(descriptor, accesses);
        }
    });
    let (first, run) = measure(|| rt.run().expect("devices present"));
    assert_eq!(first.placements.len(), submitted);
    let (second, report) = measure(|| rt.report());
    let ((), dropped) = measure(|| {
        drop(first);
        drop(second);
        drop(rt);
    });
    assert_eq!(live_bytes(), base, "the drop frees every byte");
    [build, submit, run, report, dropped].map(|r| (r.calls, r.bytes))
}

/// Build, submit, report and drop, the same under every policy.
fn pinned(run: (usize, usize)) -> Phases {
    [(32, 2_384), (157, 251_860), run, (1, 8), (0, 0)]
}

#[test]
fn performance() {
    assert_eq!(phases(Policy::Performance), pinned((39, 66_888)));
}

#[test]
fn energy() {
    assert_eq!(phases(Policy::Energy), pinned((35, 65_864)));
}

#[test]
fn edp() {
    assert_eq!(phases(Policy::Edp), pinned((39, 67_784)));
}

#[test]
fn weighted() {
    assert_eq!(phases(Policy::Weighted(0.5)), pinned((38, 66_408)));
}
