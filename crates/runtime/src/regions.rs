//! The region table: where each region's contents live and whether they
//! are sealed at rest.
//!
//! One fact, kept once. The security layer reads it to price
//! seal-on-cross-device hops and checkpoint sealing, the topology model
//! to price cross-pool transfers; the engine writes it when a writer is
//! accepted, snapshots it with every checkpoint and rewinds it with
//! every rollback, so no reader ever sees a region left behind by work
//! a rollback discarded.
//!
//! The table is written only while one of its readers is on (the
//! security layer is active or a topology is configured): every other
//! run leaves it empty and never hashes into it.

use std::collections::HashMap;

use legato_core::requirements::SecurityLevel;
use legato_core::task::{AccessMode, RegionId};
use legato_core::units::Bytes;

use crate::ckpt::bytes_of;

/// Where a region's current contents were produced, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Residency {
    /// Device of the primary replica of the region's last accepted
    /// writer.
    pub(crate) device: usize,
    /// Whether that writer was confidential: the contents are sealed at
    /// rest, and a public rewrite clears the bit.
    pub(crate) sealed: bool,
}

/// Residency of every region written since the table's readers came on.
/// A checkpoint's snapshot of it is a clone.
#[derive(Debug, Clone, Default)]
pub(crate) struct RegionTable {
    residency: HashMap<RegionId, Residency>,
}

impl RegionTable {
    /// The residency of `region`; `None` when no tracked writer has
    /// produced it.
    #[inline]
    pub(crate) fn get(&self, region: RegionId) -> Option<Residency> {
        self.residency.get(&region).copied()
    }

    /// Whether `region`'s contents are sealed at rest.
    pub(crate) fn is_sealed(&self, region: RegionId) -> bool {
        self.get(region).is_some_and(|r| r.sealed)
    }

    /// Declared bytes of the `live` regions — what a checkpoint of that
    /// frontier writes — and the sealed share of them, which it must
    /// seal on the way, in one walk.
    pub(crate) fn live_volume(
        &self,
        live: impl Iterator<Item = RegionId>,
        sizes: &HashMap<RegionId, Bytes>,
    ) -> (Bytes, Bytes) {
        let (mut declared, mut sealed) = (Bytes::ZERO, Bytes::ZERO);
        for region in live {
            let bytes = bytes_of(sizes, region);
            declared += bytes;
            if self.is_sealed(region) {
                sealed += bytes;
            }
        }
        (declared, sealed)
    }

    /// An accepted task at confidentiality `level` (re)produced its
    /// written regions on `device`.
    pub(crate) fn record(
        &mut self,
        accesses: &[(RegionId, AccessMode)],
        device: usize,
        level: SecurityLevel,
    ) {
        let sealed = level.seals_at_rest();
        for &(region, mode) in accesses {
            if mode.writes() {
                self.residency.insert(region, Residency { device, sealed });
            }
        }
    }

    /// Rewind to a checkpoint's snapshot. `None` is a checkpoint taken
    /// before the table was being written: no region had tracked
    /// contents yet.
    pub(crate) fn restore(&mut self, snapshot: Option<&RegionTable>) {
        match snapshot {
            Some(s) => self.residency.clone_from(&s.residency),
            None => self.residency.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::pool::{PoolConfig, TopologyConfig};
    use crate::resilience::ResilienceConfig;
    use legato_core::task::{TaskDescriptor, Work};
    use legato_core::units::{BytesPerSec, Seconds};
    use legato_hw::comm::LinkModel;
    use legato_hw::device::DeviceSpec;

    #[test]
    fn live_volume_counts_the_sealed_share_apart() {
        let mut table = RegionTable::default();
        let wrote = |r| [(RegionId(r), AccessMode::Out)];
        table.record(&wrote(0), 0, SecurityLevel::Confidential);
        table.record(&wrote(1), 0, SecurityLevel::Public);
        table.record(&[(RegionId(2), AccessMode::In)], 0, SecurityLevel::Enclave);
        assert_eq!(table.get(RegionId(2)), None, "a read produces nothing");
        let sizes = (0..3u64).map(|r| (RegionId(r), Bytes::mib(32))).collect();
        let live = || (0..4u64).map(RegionId);
        assert_eq!(
            table.live_volume(live(), &sizes),
            (Bytes::mib(96), Bytes::mib(32)),
            "three sized regions live, one of them sealed"
        );
        // A public rewrite moves the region and unseals it.
        table.record(&wrote(0), 1, SecurityLevel::Public);
        let rewritten = Residency {
            device: 1,
            sealed: false,
        };
        assert_eq!(table.get(RegionId(0)), Some(rewritten));
        assert_eq!(table.live_volume(live(), &sizes).1, Bytes::ZERO);
    }

    /// A resilient run of one chain under `config` that takes at least
    /// one checkpoint.
    fn checkpointed(config: EngineConfig) -> crate::runtime::Runtime {
        let mut rt = config
            .with_devices(vec![DeviceSpec::xeon_x86(), DeviceSpec::arm64()])
            .with_resilience(ResilienceConfig::new(Seconds(5.0)))
            .build()
            .expect("valid engine config");
        for _ in 0..30 {
            rt.submit(
                TaskDescriptor::named("t").with_work(Work::flops(2e12)),
                [(0u64, AccessMode::InOut)],
            );
        }
        let report = rt.run().expect("devices present");
        assert!(report.resilience.expect("resilience enabled").checkpoints > 0);
        rt
    }

    #[test]
    fn untracked_runs_snapshot_nothing() {
        let rt = checkpointed(EngineConfig::new());
        let last = rt.resilience.as_ref().and_then(|r| r.last.as_ref());
        assert!(last.expect("checkpointed").regions.is_none());
        assert!(rt.regions.residency.is_empty());

        let link = LinkModel::new(BytesPerSec::gib_per_sec(1.0), Seconds(1e-3));
        let rt = checkpointed(
            EngineConfig::new()
                .with_pools(PoolConfig::uniform(2, 1))
                .with_topology(TopologyConfig::new(link)),
        );
        let last = rt.resilience.as_ref().and_then(|r| r.last.as_ref());
        let snapshot = last.expect("checkpointed").regions.as_ref();
        assert!(snapshot.is_some_and(|s| s.get(RegionId(0)).is_some()));
    }
}
