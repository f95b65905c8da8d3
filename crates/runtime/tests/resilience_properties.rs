//! Property-based tests of the engine's checkpoint/restart mode.
//!
//! The contract under test: resilience is *deterministic*. The same seed
//! and the same submissions produce the identical rollback trace and the
//! identical run report, whatever the fault pattern — rollbacks replay
//! work through the same event machinery, so a re-run is a bit-exact
//! replay, and recovery never leaves failed or poisoned tasks behind as
//! long as the rollback budget holds.

mod common;

use common::gen;
use legato_core::requirements::{Criticality, Requirements};
use legato_core::units::{Bytes, Seconds};
use legato_fti::{Fti, FtiConfig, Strategy as WriteStrategy};
use legato_hw::memory::{AddrSpace, MemoryManager};
use legato_hw::storage::StorageTier;
use legato_runtime::resilience::CheckpointStore;
use legato_runtime::{EngineConfig, Policy, ResilienceConfig};
use legato_workloads::region_sizes;
use proptest::prelude::*;

/// Every task dual-replicated, whatever was drawn, so a detected fault
/// that exhausts its retry budget rolls back.
fn dual(_crit: u8, _sec: u8) -> Requirements {
    Requirements::new().with_criticality(Criticality::High)
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
    fn checkpointed_engine_is_deterministic(chains in gen::chains_strategy(), seed in 0u64..500) {
        let run = || {
            let mut rt = EngineConfig::new()
                .with_devices(gen::devices())
                .with_policy(Policy::Performance)
                .with_seed(seed)
                .with_max_retries(1)
                .with_region_sizes(region_sizes(chains.len(), Bytes::mib(16)))
                .with_resilience(ResilienceConfig::new(Seconds(5.0)))
                .build()
                .expect("valid engine config");
            rt.set_fault_prob(1, 0.6);
            gen::submit(&mut rt, &chains, dual);
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
    fn rollback_always_recovers_within_budget(chains in gen::chains_strategy(), seed in 0u64..500) {
        let total: usize = chains.iter().map(Vec::len).sum();
        let mut rt = EngineConfig::new()
            .with_devices(gen::devices())
            .with_policy(Policy::Performance)
            .with_seed(seed)
            .with_max_retries(1)
            .with_region_sizes(region_sizes(chains.len(), Bytes::mib(16)))
            .with_resilience(gen::checkpointing())
            .build()
            .expect("valid engine config");
        rt.set_fault_prob(1, 0.5);
        gen::submit(&mut rt, &chains, dual);
        let report = rt.run().expect("devices present");
        prop_assert!(report.failed.is_empty(), "stats: {:?}", report.resilience);
        prop_assert_eq!(report.placements.len(), total);
        prop_assert!(rt.graph().is_complete());
    }
}
