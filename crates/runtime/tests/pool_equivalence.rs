//! Equivalence properties pinning the hierarchical sharded scheduler.
//!
//! A [`PoolConfig`] ([`legato_runtime::pool`]) is a pure pruning
//! optimisation: with no topology cost configured a runtime built with
//! one must select the *bit-identical* replica set a runtime without
//! one — a single pool, whose every placement evaluates every eligible
//! device — selects, for every policy, pillar combination and pool
//! shape. Four contracts pin that, and a fifth holds the topology
//! charges themselves to the schedule:
//!
//! * **Pooled ≡ one-pool** — the same workload on the same seed produces
//!   a bit-identical [`RunReport`] and rollback trace whether the engine
//!   prunes over pools or evaluates the whole fleet, across every
//!   policy — the scale-free ones and `Weighted`, whose global min-max
//!   normalization the pruning search reconstructs exactly from
//!   per-shard busy extrema — security mixes (under which a
//!   confidential task's placement does not prune) and resilience.
//! * **Never more work** — the pooled engine evaluates at most as many
//!   candidate devices as the one-pool engine on the identical schedule.
//! * **Zero-cost topology ≡ no topology** — a configured topology whose
//!   transfers are all free (zero-sized regions) charges nothing and
//!   stays bit-identical to the one-pool engine.
//! * **Seeded determinism under topology** — with a real link cost the
//!   run is a function of the seed alone: two runs agree bit for bit,
//!   producer tracking and dirty-pool refresh included.
//! * **Charges follow standing producers** — every transfer charge in
//!   the final schedule is owed to a producer whose outcome still
//!   stands, rollbacks included (one rolled-back run is pinned).
//!
//! [`RunReport`]: legato_runtime::RunReport

use std::collections::HashMap;

mod common;

use common::gen::{self, ChainSpec};
use legato_core::task::{RegionId, TaskId};
use legato_core::units::{Bytes, BytesPerSec, Seconds};
use legato_hw::comm::LinkModel;
use legato_hw::device::DeviceSpec;
use legato_runtime::{EngineConfig, Policy, PoolConfig, RunReport, Runtime, TopologyConfig};
use legato_workloads::{fleets, region_sizes};
use proptest::prelude::*;

/// A 12-device fleet: three of each reference device, so pools of any
/// size mix fast and slow, TEE and non-TEE hardware.
fn fleet() -> Vec<DeviceSpec> {
    fleets::cycled(12)
}

/// 16 MiB regions, the size every run but [`topology_run`] declares.
const REGION: Bytes = Bytes::mib(16);

fn config(
    seed: u64,
    resilient: bool,
    pol: Policy,
    chains: &ChainSpec,
    region: Bytes,
) -> EngineConfig {
    let mut cfg = EngineConfig::new()
        .with_devices(fleet())
        .with_policy(pol)
        .with_seed(seed)
        .with_max_retries(1)
        .with_region_sizes(region_sizes(chains.len(), region));
    if resilient {
        cfg = cfg.with_resilience(gen::checkpointing());
    }
    cfg
}

/// The size of every region of [`topology_run`], which its topology
/// charges, its checkpoints write and its security layer seals.
const TOPOLOGY_REGION: Bytes = Bytes::mib(64);

fn topology_link() -> LinkModel {
    LinkModel::new(BytesPerSec::gib_per_sec(1.0), Seconds(1e-3))
}

/// One `Performance` run over pools of `pool_size` with a real link
/// cost on every region.
fn topology_run(
    chains: &ChainSpec,
    seed: u64,
    resilient: bool,
    pool_size: usize,
) -> (Runtime, RunReport) {
    let mut rt = gen::faulty(
        config(
            seed,
            resilient,
            Policy::Performance,
            chains,
            TOPOLOGY_REGION,
        )
        .with_pools(PoolConfig::uniform(fleet().len(), pool_size))
        .with_topology(TopologyConfig::new(topology_link())),
    );
    gen::submit(&mut rt, chains, gen::mixed);
    let report = rt.run().expect("devices present");
    (rt, report)
}

proptest! {
    /// The pooled engine is bit-identical to the one-pool engine —
    /// report, rollback trace and all — for every policy (pruned and
    /// unpruned placements alike), pool shape, security mix and
    /// resilience setting, and it never evaluates more candidates doing
    /// it.
    #[test]
    fn pooled_equals_flat_without_topology(
        chains in gen::chains_strategy(),
        seed in 0u64..300,
        resilient in any::<bool>(),
        policy_sel in 0u8..4,
        pool_size in 1usize..13,
    ) {
        let pol = gen::policy(policy_sel);

        let mut flat = gen::faulty(config(seed, resilient, pol, &chains, REGION));
        gen::submit(&mut flat, &chains, gen::mixed);
        let flat_report = flat.run().expect("devices present");

        let mut pooled = gen::faulty(
            config(seed, resilient, pol, &chains, REGION)
                .with_pools(PoolConfig::uniform(fleet().len(), pool_size)),
        );
        gen::submit(&mut pooled, &chains, gen::mixed);
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
        chains in gen::chains_strategy(),
        seed in 0u64..300,
        pool_size in 1usize..13,
    ) {
        let pools = || PoolConfig::uniform(fleet().len(), pool_size);

        let mut batched = gen::faulty(
            config(seed, false, Policy::Performance, &chains, REGION).with_pools(pools()),
        );
        gen::submit(&mut batched, &chains, gen::mixed);
        let batched_report = batched.run().expect("devices present");

        let mut streamed = gen::faulty(
            config(seed, false, Policy::Performance, &chains, REGION).with_pools(pools()),
        );
        gen::submit(&mut streamed, &chains, gen::mixed);
        while streamed.step().expect("devices present").is_some() {}
        let streamed_report = streamed.report();

        prop_assert_eq!(&batched_report, &streamed_report);
    }

    /// A topology whose transfers are all free (a link with no latency
    /// and unbounded bandwidth) charges nothing: the run is bit-identical
    /// to a flat engine that never heard of pools or topology.
    #[test]
    fn zero_cost_topology_is_bit_identical_to_flat(
        chains in gen::chains_strategy(),
        seed in 0u64..300,
        pool_size in 1usize..13,
        policy_sel in 0u8..4,
    ) {
        let pol = gen::policy(policy_sel);
        let link = LinkModel::new(BytesPerSec(f64::INFINITY), Seconds::ZERO);

        let mut flat = gen::faulty(config(seed, false, pol, &chains, REGION));
        gen::submit(&mut flat, &chains, gen::mixed);
        let flat_report = flat.run().expect("devices present");

        let mut pooled = gen::faulty(
            config(seed, false, pol, &chains, REGION)
                .with_pools(PoolConfig::uniform(fleet().len(), pool_size))
                .with_topology(TopologyConfig::new(link)),
        );
        gen::submit(&mut pooled, &chains, gen::mixed);
        let pooled_report = pooled.run().expect("devices present");

        prop_assert_eq!(&flat_report, &pooled_report);
        prop_assert_eq!(flat.rollback_trace(), pooled.rollback_trace());
    }

    /// With a real link cost the run is a deterministic function of the
    /// seed: producer tracking, per-pool transfer charges and dirty-pool
    /// refresh all replay identically.
    #[test]
    fn topology_runs_are_deterministic(
        chains in gen::chains_strategy(),
        seed in 0u64..300,
        resilient in any::<bool>(),
        pool_size in 1usize..13,
    ) {
        let run = || {
            let (rt, report) = topology_run(&chains, seed, resilient, pool_size);
            (report, rt.rollback_trace().to_vec())
        };
        let (a, trace_a) = run();
        let (b, trace_b) = run();
        prop_assert_eq!(a, b);
        prop_assert_eq!(trace_a, trace_b);
    }

    /// Every transfer charge follows a producer that still stands: a
    /// single-replica placement lasts its roofline time plus one link
    /// transfer per region it reads whose last writer's accepted outcome
    /// sits in another pool — across rollbacks, which discard outcomes
    /// and must discard where they left their regions with them. Tasks
    /// are all public here, so no security cost joins the duration.
    #[test]
    fn topology_charges_follow_standing_producers(
        chains in gen::chains_strategy(),
        seed in 0u64..300,
        resilient in any::<bool>(),
        pool_size in 1usize..13,
    ) {
        let public: ChainSpec = chains
            .iter()
            .map(|chain| chain.iter().map(|&(flops, crit, _)| (flops, crit, 0)).collect())
            .collect();
        let (rt, _) = topology_run(&public, seed, resilient, pool_size);
        let pool_of = |device: usize| device / pool_size;
        let transfer = topology_link().transfer_time(TOPOLOGY_REGION);
        let mut last_writer: HashMap<RegionId, TaskId> = HashMap::new();
        for id in (0..rt.graph().len() as u64).map(TaskId) {
            let accesses = rt.graph().accesses(id).expect("id in range");
            if let Some(placed) = rt.outcome(id).filter(|o| o.devices.len() == 1) {
                let desc = rt.graph().descriptor(id).expect("id in range");
                let device = placed.devices[0];
                let mut expected = rt.devices()[device].spec.time_for(desc.work, desc.kind);
                for (region, mode) in accesses {
                    let producer = last_writer.get(region).and_then(|&w| rt.outcome(w));
                    if mode.reads()
                        && producer.is_some_and(|w| pool_of(w.devices[0]) != pool_of(device))
                    {
                        expected += transfer;
                    }
                }
                let took = placed.finish - placed.start;
                prop_assert!(
                    (took.0 - expected.0).abs() <= 1e-9 * expected.0,
                    "task {id:?} on device {device} took {took}, expected {expected}"
                );
            }
            for (region, mode) in accesses {
                if mode.writes() {
                    last_writer.insert(*region, id);
                }
            }
        }
    }
}

/// The `seed = 185, pool_size = 1, resilient` case of
/// `topology_runs_are_deterministic`, whose rollback used to resume with
/// a producer entry written by work it had discarded. With residency
/// left unrewound the run rolls back twice, in 27.0912 s and 14 763 J;
/// rewound, once, in 21.6301 s and 11 681 J. (Pinned again when region
/// sizes became one declaration: the run had priced transfers at 64 MiB
/// but checkpoints and seals at 16 MiB, and now prices all three at
/// 64 MiB.)
#[test]
fn rolled_back_topology_run_is_pinned() {
    let chains: ChainSpec = vec![
        vec![
            (3333103424900.3174, 2, 0),
            (1164945938623.7263, 0, 1),
            (2763274648577.9063, 1, 0),
            (635474619751.572, 1, 1),
            (2920028481143.848, 0, 0),
            (2952718852500.603, 2, 0),
            (1525080477485.0322, 0, 0),
        ],
        vec![
            (2466110211189.799, 0, 0),
            (2491148601585.719, 1, 1),
            (993029064935.115, 0, 2),
            (2171270391108.1702, 0, 1),
        ],
        vec![
            (533169341837.70215, 1, 0),
            (2948101950447.1733, 1, 0),
            (2191990104721.949, 2, 1),
            (3242174259529.0522, 0, 2),
            (2976129077677.653, 2, 2),
            (1953171744032.129, 0, 1),
            (2070508962623.2034, 1, 0),
        ],
        vec![
            (2041684804200.7087, 2, 0),
            (2970802166545.9966, 1, 1),
            (1101339473720.0586, 1, 1),
            (3715544287096.9443, 1, 0),
        ],
        vec![(2716493829309.0093, 2, 0), (1328024820391.2231, 0, 1)],
    ];
    let (rt, report) = topology_run(&chains, 185, true, 1);
    assert_eq!(rt.rollback_trace().len(), 1);
    assert_eq!(report.makespan.0.to_bits(), 0x4035_a151_4acd_b697);
    assert_eq!(report.total_energy.0.to_bits(), 0x40c6_d092_fd14_99cc);
}
