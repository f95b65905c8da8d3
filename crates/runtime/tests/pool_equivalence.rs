//! Equivalence properties pinning the hierarchical sharded scheduler.
//!
//! The device-pool layer ([`legato_runtime::pool`]) is a pure pruning
//! optimisation: with no topology cost configured it must select the
//! *bit-identical* replica set the flat O(D) scan selects, for every
//! policy, pillar combination and pool shape. Four contracts pin that:
//!
//! * **Pooled ≡ flat** — the same workload on the same seed produces a
//!   bit-identical [`RunReport`] and rollback trace whether the engine
//!   searches pools or scans the fleet, across every policy — the
//!   scale-free ones and `Weighted`, whose global min-max normalization
//!   the pooled path reconstructs exactly from per-shard busy extrema —
//!   security mixes (which force the flat fallback per confidential
//!   task) and resilience (whose rollbacks reset devices and must
//!   re-dirty every pool).
//! * **Never more work** — the pooled engine evaluates at most as many
//!   candidate devices as the flat engine on the identical schedule.
//! * **Zero-cost topology ≡ no topology** — a configured topology whose
//!   transfers are all free (zero-sized regions) charges nothing and
//!   stays bit-identical to the flat engine.
//! * **Seeded determinism under topology** — with a real link cost the
//!   run is a function of the seed alone: two runs agree bit for bit,
//!   producer tracking and dirty-pool refresh included.
//!
//! [`RunReport`]: legato_runtime::RunReport

use std::collections::HashMap;

use legato_core::requirements::{Criticality, Requirements, SecurityLevel};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, Work};
use legato_core::units::{Bytes, BytesPerSec, Seconds};
use legato_hw::comm::LinkModel;
use legato_hw::device::DeviceSpec;
use legato_runtime::{
    EngineConfig, Policy, PoolConfig, ResilienceConfig, Runtime, SecurityConfig, TopologyConfig,
};
use legato_workloads::fleets;
use proptest::prelude::*;

/// Chains → tasks → (flops, criticality selector, security selector).
type ChainSpec = Vec<Vec<(f64, u8, u8)>>;

fn chains_strategy() -> impl Strategy<Value = ChainSpec> {
    prop::collection::vec(
        prop::collection::vec((5e11f64..4e12, 0u8..3, 0u8..3), 1..8),
        1..6,
    )
}

/// A 12-device fleet: three of each reference device, so pools of any
/// size mix fast and slow, TEE and non-TEE hardware.
fn devices() -> Vec<DeviceSpec> {
    fleets::cycled(12)
}

fn criticality(sel: u8) -> Criticality {
    match sel {
        0 => Criticality::Normal,
        1 => Criticality::High,
        _ => Criticality::Critical,
    }
}

fn security(sel: u8) -> SecurityLevel {
    match sel {
        0 => SecurityLevel::Public,
        1 => SecurityLevel::Confidential,
        _ => SecurityLevel::Enclave,
    }
}

fn policy(sel: u8) -> Policy {
    match sel {
        0 => Policy::Performance,
        1 => Policy::Energy,
        2 => Policy::Edp,
        _ => Policy::Weighted(0.5),
    }
}

/// Submit every chain task; chain `c` serializes on its private region.
fn submit_wave(rt: &mut Runtime, chains: &ChainSpec) {
    for (c, chain) in chains.iter().enumerate() {
        for &(flops, crit, sec) in chain {
            rt.submit(
                TaskDescriptor::named("t")
                    .with_work(Work::flops(flops))
                    .with_requirements(
                        Requirements::new()
                            .with_criticality(criticality(crit))
                            .with_security(security(sec)),
                    ),
                [(c as u64, AccessMode::InOut)],
            );
        }
    }
}

fn sizes(chains: &ChainSpec) -> HashMap<RegionId, Bytes> {
    (0..chains.len() as u64)
        .map(|c| (RegionId(c), Bytes::mib(16)))
        .collect()
}

fn config(seed: u64, resilient: bool, pol: Policy, chains: &ChainSpec) -> EngineConfig {
    let mut cfg = EngineConfig::new()
        .with_devices(devices())
        .with_policy(pol)
        .with_seed(seed)
        .with_max_retries(1)
        .with_security(SecurityConfig::new().with_region_sizes(sizes(chains)));
    if resilient {
        cfg = cfg.with_resilience(
            ResilienceConfig::new(Seconds(5.0))
                .with_region_sizes(sizes(chains))
                .with_max_rollbacks(10_000),
        );
    }
    cfg
}

fn build(cfg: EngineConfig) -> Runtime {
    let mut rt = cfg.build().expect("valid engine config");
    rt.set_fault_prob(1, 0.4);
    rt
}

proptest! {
    /// The pooled engine is bit-identical to the flat engine — report,
    /// rollback trace and all — for every policy (pruned path and
    /// fallback paths alike), pool shape, security mix and resilience
    /// setting, and it never evaluates more candidates doing it.
    #[test]
    fn pooled_equals_flat_without_topology(
        chains in chains_strategy(),
        seed in 0u64..300,
        resilient in any::<bool>(),
        policy_sel in 0u8..4,
        pool_size in 1usize..13,
    ) {
        let pol = policy(policy_sel);

        let mut flat = build(config(seed, resilient, pol, &chains));
        submit_wave(&mut flat, &chains);
        let flat_report = flat.run().expect("devices present");

        let mut pooled = build(
            config(seed, resilient, pol, &chains)
                .with_pools(PoolConfig::uniform(devices().len(), pool_size)),
        );
        submit_wave(&mut pooled, &chains);
        let pooled_report = pooled.run().expect("devices present");

        prop_assert_eq!(&flat_report, &pooled_report);
        prop_assert_eq!(flat.rollback_trace(), pooled.rollback_trace());
        prop_assert!(
            pooled.placement_evals() <= flat.placement_evals(),
            "pooled search evaluated {} candidates, flat {}",
            pooled.placement_evals(),
            flat.placement_evals()
        );
    }

    /// Streaming ≡ batched holds with pools active: interleaved
    /// `submit()`/`step()` waves produce the identical report as `run()`
    /// over the same waves, so incremental dirty-pool refresh survives
    /// mid-run submission.
    #[test]
    fn streaming_equals_batched_with_pools(
        chains in chains_strategy(),
        seed in 0u64..300,
        pool_size in 1usize..13,
    ) {
        let pools = || PoolConfig::uniform(devices().len(), pool_size);

        let mut batched = build(
            config(seed, false, Policy::Performance, &chains).with_pools(pools()),
        );
        submit_wave(&mut batched, &chains);
        let batched_report = batched.run().expect("devices present");

        let mut streamed = build(
            config(seed, false, Policy::Performance, &chains).with_pools(pools()),
        );
        submit_wave(&mut streamed, &chains);
        while streamed.step().expect("devices present").is_some() {}
        let streamed_report = streamed.report();

        prop_assert_eq!(&batched_report, &streamed_report);
    }

    /// A topology whose transfers are all free (every region zero-sized)
    /// charges nothing: the run is bit-identical to a flat engine that
    /// never heard of pools or topology.
    #[test]
    fn zero_cost_topology_is_bit_identical_to_flat(
        chains in chains_strategy(),
        seed in 0u64..300,
        pool_size in 1usize..13,
        policy_sel in 0u8..4,
    ) {
        let pol = policy(policy_sel);
        let link = LinkModel::new(BytesPerSec::gib_per_sec(1.0), Seconds(1e-4));

        let mut flat = build(config(seed, false, pol, &chains));
        submit_wave(&mut flat, &chains);
        let flat_report = flat.run().expect("devices present");

        let mut pooled = build(
            config(seed, false, pol, &chains)
                .with_pools(PoolConfig::uniform(devices().len(), pool_size))
                .with_topology(
                    TopologyConfig::new(link).with_default_region_size(Bytes::ZERO),
                ),
        );
        submit_wave(&mut pooled, &chains);
        let pooled_report = pooled.run().expect("devices present");

        prop_assert_eq!(&flat_report, &pooled_report);
        prop_assert_eq!(flat.rollback_trace(), pooled.rollback_trace());
    }

    /// With a real link cost the run is a deterministic function of the
    /// seed: producer tracking, per-pool transfer charges and dirty-pool
    /// refresh all replay identically.
    #[test]
    fn topology_runs_are_deterministic(
        chains in chains_strategy(),
        seed in 0u64..300,
        resilient in any::<bool>(),
        pool_size in 1usize..13,
    ) {
        let run = || {
            let link = LinkModel::new(BytesPerSec::gib_per_sec(1.0), Seconds(1e-3));
            let mut rt = build(
                config(seed, resilient, Policy::Performance, &chains)
                    .with_pools(PoolConfig::uniform(devices().len(), pool_size))
                    .with_topology(
                        TopologyConfig::new(link).with_default_region_size(Bytes::mib(64)),
                    ),
            );
            submit_wave(&mut rt, &chains);
            let report = rt.run().expect("devices present");
            (report, rt.rollback_trace().to_vec())
        };
        let (a, trace_a) = run();
        let (b, trace_b) = run();
        prop_assert_eq!(a, b);
        prop_assert_eq!(trace_a, trace_b);
    }
}
