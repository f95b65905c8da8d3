//! Regression pin: steady-state placement must not allocate.
//!
//! DESIGN.md §8 promises an allocation-free event path: the one-pass
//! selections keep their top-k inline, `Weighted`'s anchors included;
//! its survivors (sized to the fleet) and the security plan live in
//! per-runtime scratch sized by the first placements; the pruning
//! search's trees and stale list are sized when the pools are built;
//! and `reserve` sizes the outcome table and the
//! acceptance log up front. This binary installs a counting allocator,
//! lets one wave of placements warm every buffer, and asserts that a
//! second, equal wave allocates nothing, where a placement that
//! allocated would show up once per task.

mod common;

use common::{allocations, CountingAlloc};
use legato_core::requirements::{Criticality, Requirements, SecurityLevel};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskKind, Work};
use legato_core::units::{Bytes, Seconds};
use legato_runtime::{
    ChurnConfig, ChurnEvent, ChurnEventKind, ChurnTrace, DepartureKind, EnergyConfig, EngineConfig,
    Policy, PoolConfig, Runtime,
};
use legato_workloads::fleets;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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

/// Allocations performed while placing (and completing) a second wave,
/// and the placement evaluations it took.
fn second_wave(mut rt: Runtime, requirements: Requirements) -> (usize, u64) {
    rt.reserve(2 * WAVE, 2 * WAVE);
    submit_wave(&mut rt, requirements);
    let warm = rt.run().expect("warm-up wave runs");
    assert_eq!(warm.placements.len(), WAVE);
    // A report still held when the second wave's first step grows the
    // outcome table would make that step copy it.
    drop(warm);
    submit_wave(&mut rt, requirements);
    let evals = rt.placement_evals();
    let before = allocations();
    // `step`, not `run`: the report `run` returns is a fresh allocation
    // by design.
    while rt.step().expect("second wave runs").is_some() {}
    let after = allocations();
    let report = rt.report();
    assert_eq!(report.placements.len(), 2 * WAVE);
    let k = requirements.criticality.replica_count();
    assert!(report.placements.iter().all(|p| p.devices.len() == k));
    (after - before, rt.placement_evals() - evals)
}

#[test]
fn steady_state_placement_is_allocation_free() {
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
        let (allocations, evals) = second_wave(rt, requirements);
        assert_eq!(
            evals,
            (WAVE * candidates) as u64,
            "{name}: every task priced exactly its candidate set"
        );
        assert_eq!(
            allocations, 0,
            "{name}: placing {WAVE} tasks allocated {allocations} times"
        );
    }
}
