//! The region table: each region's size (declared once, on the
//! [`EngineConfig`](crate::config::EngineConfig)), where its contents
//! live and whether they are sealed at rest, indexed by the slot the
//! task graph gives a region when a task first declares it
//! ([`TaskGraph::access_slots`]), so no reader hashes a region.
//! Residency is written when a writer is accepted, copied flat into
//! every checkpoint and back by every rollback: it is an acceptance-order
//! fact the graph does not hold (DESIGN.md §7). Both columns stay empty
//! while nothing reads them.

use legato_core::error::CoreError;
use legato_core::graph::TaskGraph;
use legato_core::requirements::SecurityLevel;
use legato_core::task::{AccessMode, TaskId};
use legato_core::units::Bytes;

/// Where a region's current contents were produced, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Residency {
    /// Primary replica's device of the region's last accepted writer.
    pub(crate) device: usize,
    /// Whether that writer sealed the contents at rest (confidential).
    pub(crate) sealed: bool,
}

/// Declared size and residency of every region, by slot. A slot past
/// the end of either column reads as zero bytes or no residency.
#[derive(Debug, Clone, Default)]
pub(crate) struct RegionTable {
    pub(crate) sizes: Vec<Bytes>,
    pub(crate) residency: Vec<Option<Residency>>,
}

/// `task`'s declarations as `(slot, mode)` pairs.
pub(crate) fn slot_accesses(
    graph: &TaskGraph,
    task: TaskId,
) -> Result<impl Iterator<Item = (u32, AccessMode)> + '_, CoreError> {
    let modes = graph.accesses(task)?.iter().map(|&(_, mode)| mode);
    Ok(graph.access_slots(task)?.iter().copied().zip(modes))
}

impl RegionTable {
    /// The declared size of `slot`'s region.
    #[inline]
    pub(crate) fn bytes(&self, slot: u32) -> Bytes {
        self.sizes.get(slot as usize).copied().unwrap_or_default()
    }

    /// The residency of `slot`'s region; `None` when no tracked writer
    /// has produced it.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> Option<Residency> {
        self.residency.get(slot as usize).copied().flatten()
    }

    /// Declared bytes of the `live` slots — what a checkpoint of that
    /// frontier writes — and the sealed share it must seal, in one walk.
    pub(crate) fn live_volume(&self, live: impl Iterator<Item = u32>) -> (Bytes, Bytes) {
        let (mut declared, mut sealed) = (Bytes::ZERO, Bytes::ZERO);
        for slot in live {
            let bytes = self.bytes(slot);
            declared += bytes;
            if self.get(slot).is_some_and(|r| r.sealed) {
                sealed += bytes;
            }
        }
        (declared, sealed)
    }

    /// Declared bytes of the regions `accesses` write.
    pub(crate) fn written(&self, accesses: impl IntoIterator<Item = (u32, AccessMode)>) -> Bytes {
        let writes = accesses.into_iter().filter(|&(_, mode)| mode.writes());
        writes.map(|(slot, _)| self.bytes(slot)).sum()
    }

    /// An accepted task at confidentiality `level` (re)produced the
    /// regions it writes on `device`.
    pub(crate) fn record(
        &mut self,
        accesses: impl IntoIterator<Item = (u32, AccessMode)>,
        device: usize,
        level: SecurityLevel,
    ) {
        let sealed = level.seals_at_rest();
        for (slot, _) in accesses.into_iter().filter(|&(_, mode)| mode.writes()) {
            let slot = slot as usize;
            if slot >= self.residency.len() {
                self.residency.resize(slot + 1, None);
            }
            self.residency[slot] = Some(Residency { device, sealed });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::pool::{PoolConfig, TopologyConfig};
    use crate::resilience::ResilienceConfig;
    use legato_core::task::{RegionId, TaskDescriptor, Work};
    use legato_core::units::{BytesPerSec, Seconds};
    use legato_hw::comm::LinkModel;
    use legato_hw::device::DeviceSpec;

    impl RegionTable {
        /// A table whose slot `s` is declared `sizes[s]`.
        pub(crate) fn sized(sizes: &[Bytes]) -> Self {
            RegionTable {
                sizes: sizes.to_vec(),
                residency: Vec::new(),
            }
        }
    }

    #[test]
    fn live_volume_counts_the_sealed_share_apart() {
        let mut table = RegionTable::sized(&[Bytes::mib(32); 3]);
        let wrote = |slot| [(slot, AccessMode::Out)];
        table.record(wrote(0), 0, SecurityLevel::Confidential);
        table.record(wrote(1), 0, SecurityLevel::Public);
        table.record([(2, AccessMode::In)], 0, SecurityLevel::Enclave);
        assert_eq!(table.get(2), None, "a read produces nothing");
        let live = || 0..4u32;
        assert_eq!(
            table.live_volume(live()),
            (Bytes::mib(96), Bytes::mib(32)),
            "three sized regions live, one of them sealed"
        );
        // A public rewrite moves the region and unseals it.
        table.record(wrote(0), 1, SecurityLevel::Public);
        let rewritten = Residency {
            device: 1,
            sealed: false,
        };
        assert_eq!(table.get(0), Some(rewritten));
        assert_eq!(table.live_volume(live()).1, Bytes::ZERO);
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
        assert!(last.expect("checkpointed").residency.is_empty());
        assert!(rt.regions.residency.is_empty());
        assert!(rt.regions.sizes.is_empty(), "nothing declared");

        let link = LinkModel::new(BytesPerSec::gib_per_sec(1.0), Seconds(1e-3));
        let rt = checkpointed(
            EngineConfig::new()
                .with_pools(PoolConfig::uniform(2, 1))
                .with_topology(TopologyConfig::new(link)),
        );
        let last = rt.resilience.as_ref().and_then(|r| r.last.as_ref());
        let snapshot = &last.expect("checkpointed").residency;
        assert!(snapshot.first().copied().flatten().is_some());
    }

    #[test]
    fn sizes_resolve_by_slot_in_first_declaration_order() {
        let sizes = (0..10u64).map(|r| (RegionId(r), Bytes::mib(r))).collect();
        let mut rt = EngineConfig::new()
            .with_device(DeviceSpec::xeon_x86())
            .with_region_sizes(sizes)
            .build()
            .expect("valid engine config");
        let t = rt.submit(
            TaskDescriptor::named("t"),
            [(9u64, AccessMode::Out), (4u64, AccessMode::In)],
        );
        rt.resolve_sizes();
        assert_eq!(rt.regions.sizes, [Bytes::mib(9), Bytes::mib(4)]);
        assert_eq!(rt.regions.bytes(2), Bytes::ZERO, "not interned yet");
        let accesses = slot_accesses(&rt.graph, t).expect("submitted");
        assert_eq!(rt.regions.written(accesses), Bytes::mib(9));
        // A later resolve sizes only the slots interned since, and an
        // undeclared region is zero bytes.
        rt.submit(
            TaskDescriptor::named("u"),
            [(2u64, AccessMode::Out), (77u64, AccessMode::Out)],
        );
        rt.resolve_sizes();
        let want = [Bytes::mib(9), Bytes::mib(4), Bytes::mib(2), Bytes::ZERO];
        assert_eq!(rt.regions.sizes, want);
    }
}
