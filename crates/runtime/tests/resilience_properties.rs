//! Property-based tests of the engine's checkpoint/restart mode.
//!
//! The contract under test: resilience is *deterministic*. The same seed
//! and the same submissions produce the identical rollback trace and the
//! identical run report, whatever the fault pattern — rollbacks replay
//! work through the same event machinery, so a re-run is a bit-exact
//! replay, and recovery never leaves failed or poisoned tasks behind as
//! long as the rollback budget holds.

use std::collections::HashMap;

use legato_core::requirements::{Criticality, Requirements};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, Work};
use legato_core::units::{Bytes, Seconds};
use legato_fti::{Fti, FtiConfig, Strategy as WriteStrategy};
use legato_hw::device::DeviceSpec;
use legato_hw::memory::{AddrSpace, MemoryManager};
use legato_hw::storage::StorageTier;
use legato_runtime::resilience::CheckpointStore;
use legato_runtime::{EngineConfig, Policy, ResilienceConfig, Runtime};
use proptest::prelude::*;

/// Chains → tasks → flops (seconds-scale so checkpoint intervals and
/// MTBFs are commensurate with task durations).
type ChainSpec = Vec<Vec<f64>>;

fn chains_strategy() -> impl Strategy<Value = ChainSpec> {
    prop::collection::vec(prop::collection::vec(5e11f64..4e12, 1..8), 1..6)
}

fn devices() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::xeon_x86(),
        DeviceSpec::gtx1080(),
        DeviceSpec::fpga_kintex(),
    ]
}

fn build(rt: &mut Runtime, chains: &ChainSpec) {
    for (c, chain) in chains.iter().enumerate() {
        for &flops in chain {
            rt.submit(
                TaskDescriptor::named("t")
                    .with_work(Work::flops(flops))
                    .with_requirements(Requirements::new().with_criticality(Criticality::High)),
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

proptest! {
    /// The store prices an image at what the FTI engine times for a
    /// checkpoint — or a recovery — of one phantom host region of that
    /// size on node-local NVMe, bit for bit, under both strategies; an
    /// empty image is free, where the engine would still pay the setup
    /// latency. Sizes from 0 through tens of GiB, small ones as likely
    /// as large ones.
    #[test]
    fn the_store_prices_a_phantom_host_checkpoint(raw in 0u64..(1 << 36), shift in 0u32..40, initial in 0u8..2) {
        let bytes = Bytes(raw >> shift);
        let strategy = [WriteStrategy::Async, WriteStrategy::Initial][usize::from(initial)];
        let store = CheckpointStore::new(strategy);
        let (write, read) = if bytes == Bytes::ZERO {
            (Seconds::ZERO, Seconds::ZERO)
        } else {
            let mut fti = Fti::new(FtiConfig::default(), 0);
            fti.protect_phantom(0, AddrSpace::Host, bytes).expect("fresh engine");
            let (mm, tier) = (MemoryManager::new(), StorageTier::local_nvme());
            (
                fti.checkpoint_duration(&mm, &tier, strategy),
                fti.recover_duration(&mm, &tier, strategy),
            )
        };
        prop_assert_eq!(store.write_cost(bytes).0.to_bits(), write.0.to_bits());
        prop_assert_eq!(store.read_cost(bytes).0.to_bits(), read.0.to_bits());
    }

    /// Same seed + same graph ⇒ identical report *and* identical
    /// rollback trace, with faults hot enough to exhaust retry budgets.
    #[test]
    fn checkpointed_engine_is_deterministic(chains in chains_strategy(), seed in 0u64..500) {
        let run = || {
            let mut rt = EngineConfig::new()
                .with_devices(devices())
                .with_policy(Policy::Performance)
                .with_seed(seed)
                .with_max_retries(1)
                .with_region_sizes(sizes(&chains))
                .with_resilience(ResilienceConfig::new(Seconds(5.0)))
                .build()
                .expect("valid engine config");
            rt.set_fault_prob(1, 0.6);
            build(&mut rt, &chains);
            let report = rt.run().expect("devices present");
            (report, rt.rollback_trace().to_vec())
        };
        let (report_a, trace_a) = run();
        let (report_b, trace_b) = run();
        prop_assert_eq!(report_a, report_b);
        prop_assert_eq!(trace_a, trace_b);
    }

    /// Within the rollback budget, checkpoint/restart always completes
    /// the graph: no failed tasks, no poisoned cone, every task placed.
    #[test]
    fn rollback_always_recovers_within_budget(chains in chains_strategy(), seed in 0u64..500) {
        let total: usize = chains.iter().map(Vec::len).sum();
        let mut rt = EngineConfig::new()
            .with_devices(devices())
            .with_policy(Policy::Performance)
            .with_seed(seed)
            .with_max_retries(1)
            .with_region_sizes(sizes(&chains))
            .with_resilience(ResilienceConfig::new(Seconds(5.0)).with_max_rollbacks(10_000))
            .build()
            .expect("valid engine config");
        rt.set_fault_prob(1, 0.5);
        build(&mut rt, &chains);
        let report = rt.run().expect("devices present");
        prop_assert!(report.failed.is_empty(), "stats: {:?}", report.resilience);
        prop_assert_eq!(report.placements.len(), total);
        prop_assert!(rt.graph().is_complete());
    }
}
