//! The per-process checkpoint engine (the `FTI_*` API of Listing 1).

use std::collections::BTreeMap;

use legato_core::units::{Bytes, Seconds};
use legato_hw::memory::{AddrSpace, MemoryManager, PinMode, RegionHandle, TransferRates};
use legato_hw::storage::{StorageDevice, StorageTier, WriteMode};
use legato_hw::time::pipeline_time;
use serde::{Deserialize, Serialize};

use crate::config::FtiConfig;
use crate::error::FtiError;
use crate::level::CheckpointLevel;

/// Which implementation of the GPU checkpoint path is used.
///
/// The paper compares its *initial* implementation against the optimized
/// asynchronous one and measures ~10× improvement (§IV); Fig. 6 labels the
/// two series "Initial" and "Async".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Synchronous per-chunk staging through pageable host memory and
    /// chunk-synchronous writes.
    Initial,
    /// Pinned staging buffers; chunked device→host copies overlapped with
    /// streaming storage writes.
    Async,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Initial => f.write_str("initial"),
            Strategy::Async => f.write_str("async"),
        }
    }
}

/// One protected datum: a real memory region or a phantom (metadata-only)
/// region used for paper-scale timing studies without materializing
/// terabytes.
#[derive(Debug, Clone, PartialEq)]
enum Protected {
    Real {
        handle: RegionHandle,
        space: AddrSpace,
        size: Bytes,
    },
    Phantom {
        space: AddrSpace,
        size: Bytes,
    },
}

impl Protected {
    fn size(&self) -> Bytes {
        match self {
            Protected::Real { size, .. } | Protected::Phantom { size, .. } => *size,
        }
    }

    fn space(&self) -> AddrSpace {
        match self {
            Protected::Real { space, .. } | Protected::Phantom { space, .. } => *space,
        }
    }
}

/// A stored checkpoint (the "file" on the simulated storage).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct StoredCheckpoint {
    /// Monotone checkpoint version.
    pub version: u64,
    /// `(id, bytes)` blobs for real regions; phantom regions store no
    /// payload.
    pub blobs: Vec<(u32, Vec<u8>)>,
    /// `(id, size)` layout of everything included (real and phantom).
    pub layout: Vec<(u32, u64)>,
    /// Total checkpointed bytes (real + phantom).
    pub bytes: Bytes,
}

/// Outcome of one checkpoint operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointReport {
    /// Level written.
    pub level: CheckpointLevel,
    /// Strategy used.
    pub strategy: Strategy,
    /// Bytes captured.
    pub bytes: Bytes,
    /// Simulated start time.
    pub start: Seconds,
    /// Simulated completion time.
    pub finish: Seconds,
    /// Checkpoint version.
    pub version: u64,
}

impl CheckpointReport {
    /// Wall-clock duration of the operation.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.finish - self.start
    }
}

/// Outcome of one recovery operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverReport {
    /// Level the data was recovered from.
    pub level: CheckpointLevel,
    /// Strategy used for the restore path.
    pub strategy: Strategy,
    /// Bytes restored.
    pub bytes: Bytes,
    /// Simulated start time.
    pub start: Seconds,
    /// Simulated completion time.
    pub finish: Seconds,
    /// Version recovered.
    pub version: u64,
}

impl RecoverReport {
    /// Wall-clock duration of the operation.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.finish - self.start
    }
}

/// Per-process checkpoint engine.
///
/// See the [crate-level example](crate) for the protect → checkpoint →
/// recover flow.
#[derive(Debug, Clone)]
pub struct Fti {
    config: FtiConfig,
    rank: usize,
    protected: BTreeMap<u32, Protected>,
    snapshot_counter: u32,
    version: u64,
    /// Local (L1) checkpoint storage; higher levels live in
    /// [`FtiGroup`](crate::group::FtiGroup).
    local: Option<StoredCheckpoint>,
}

impl Fti {
    /// Create an engine for `rank` (cf. `FTI_Init`).
    #[must_use]
    pub fn new(config: FtiConfig, rank: usize) -> Self {
        Fti {
            config,
            rank,
            protected: BTreeMap::new(),
            snapshot_counter: 0,
            version: 0,
            local: None,
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &FtiConfig {
        &self.config
    }

    /// This process's rank.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Protect a real memory region under `id` (cf. `FTI_Protect`). The
    /// region may live in host, device or unified memory — the library
    /// handles each address type (paper §IV).
    ///
    /// # Errors
    ///
    /// [`FtiError::DuplicateId`] if `id` is taken; [`FtiError::Memory`] if
    /// the handle is stale.
    pub fn protect(
        &mut self,
        id: u32,
        handle: RegionHandle,
        mm: &MemoryManager,
    ) -> Result<(), FtiError> {
        if self.protected.contains_key(&id) {
            return Err(FtiError::DuplicateId(id));
        }
        let space = mm.space(handle)?;
        let size = mm.size(handle)?;
        self.protected.insert(
            id,
            Protected::Real {
                handle,
                space,
                size,
            },
        );
        Ok(())
    }

    /// Protect a phantom region: contributes its size and address space to
    /// all timing models but stores no payload. Used to reproduce the
    /// paper-scale (16/32 GB-per-process) Fig. 6 runs without allocating
    /// terabytes.
    ///
    /// # Errors
    ///
    /// [`FtiError::DuplicateId`] if `id` is taken.
    pub fn protect_phantom(
        &mut self,
        id: u32,
        space: AddrSpace,
        size: Bytes,
    ) -> Result<(), FtiError> {
        if self.protected.contains_key(&id) {
            return Err(FtiError::DuplicateId(id));
        }
        self.protected
            .insert(id, Protected::Phantom { space, size });
        Ok(())
    }

    /// Total protected bytes.
    #[must_use]
    fn protected_bytes(&self) -> Bytes {
        self.protected.values().map(Protected::size).sum()
    }

    /// Whether a local (L1) checkpoint exists.
    #[must_use]
    pub fn has_local_checkpoint(&self) -> bool {
        self.local.is_some()
    }

    /// Decide whether a checkpoint is due and, if so, take it
    /// (cf. `FTI_Snapshot`). The highest due level wins.
    ///
    /// Returns `Ok(None)` when no level is due this iteration.
    ///
    /// # Errors
    ///
    /// Propagates [`Fti::checkpoint`] errors.
    pub fn snapshot(
        &mut self,
        mm: &mut MemoryManager,
        storage: &mut StorageDevice,
        strategy: Strategy,
        now: Seconds,
    ) -> Result<Option<CheckpointReport>, FtiError> {
        self.snapshot_counter += 1;
        let c = self.snapshot_counter;
        let level = if c.is_multiple_of(self.config.l4_every) {
            Some(CheckpointLevel::L4)
        } else if c.is_multiple_of(self.config.l3_every) {
            Some(CheckpointLevel::L3)
        } else if c.is_multiple_of(self.config.l2_every) {
            Some(CheckpointLevel::L2)
        } else if c.is_multiple_of(self.config.l1_every) {
            Some(CheckpointLevel::L1)
        } else {
            None
        };
        match level {
            None => Ok(None),
            Some(level) => self.checkpoint(mm, storage, level, strategy, now).map(Some),
        }
    }

    /// Take a checkpoint of all protected regions at `level` using
    /// `strategy`, on `storage` (the node-local device for L1; group
    /// levels route through [`FtiGroup`](crate::group::FtiGroup)).
    ///
    /// # Errors
    ///
    /// [`FtiError::Memory`] if a protected region disappeared.
    pub fn checkpoint(
        &mut self,
        mm: &mut MemoryManager,
        storage: &mut StorageDevice,
        level: CheckpointLevel,
        strategy: Strategy,
        now: Seconds,
    ) -> Result<CheckpointReport, FtiError> {
        let duration = self.checkpoint_duration(mm, &storage.tier, strategy);
        let total = self.protected_bytes();
        let (start, finish) = storage.occupy(now, duration, total);

        // Capture payloads of real regions.
        let mut blobs = Vec::new();
        let mut layout = Vec::new();
        for (&id, p) in &self.protected {
            layout.push((id, p.size().as_u64()));
            if let Protected::Real { handle, .. } = p {
                let (bytes, _cost) = mm.read_for_host(*handle)?;
                blobs.push((id, bytes));
            }
        }
        self.version += 1;
        let stored = StoredCheckpoint {
            version: self.version,
            blobs,
            layout,
            bytes: total,
        };
        self.local = Some(stored);
        Ok(CheckpointReport {
            level,
            strategy,
            bytes: total,
            start,
            finish,
            version: self.version,
        })
    }

    /// Recover all protected regions from the local (L1) checkpoint.
    ///
    /// # Errors
    ///
    /// [`FtiError::NoCheckpoint`] when no local checkpoint exists;
    /// [`FtiError::LayoutMismatch`] when the stored layout disagrees with
    /// the protected set; [`FtiError::Memory`] on substrate errors.
    pub fn recover(
        &mut self,
        mm: &mut MemoryManager,
        storage: &mut StorageDevice,
        strategy: Strategy,
        now: Seconds,
    ) -> Result<RecoverReport, FtiError> {
        let stored = self.local.clone().ok_or(FtiError::NoCheckpoint)?;
        self.verify_layout(&stored)?;
        let duration = self.recover_duration(mm, &storage.tier, strategy);
        let (start, finish) = storage.occupy_read(now, duration, stored.bytes);
        for (id, bytes) in &stored.blobs {
            if let Some(Protected::Real { handle, .. }) = self.protected.get(id) {
                mm.restore_from_host(*handle, bytes)?;
            }
        }
        Ok(RecoverReport {
            level: CheckpointLevel::L1,
            strategy,
            bytes: stored.bytes,
            start,
            finish,
            version: stored.version,
        })
    }

    /// Duration of a checkpoint of the current protected set.
    ///
    /// *Initial* strategy: the device and UVM payloads are staged to
    /// pageable host memory chunk by chunk (degraded PCIe bandwidth), and
    /// only then is the whole image written with a synchronization per
    /// small chunk — nothing overlaps.
    ///
    /// *Async* strategy: device/UVM chunks are copied through pinned
    /// buffers and overlapped with streaming writes (two-stage pipeline);
    /// host-resident bytes stream straight to storage.
    #[must_use]
    pub fn checkpoint_duration(
        &self,
        mm: &MemoryManager,
        tier: &StorageTier,
        strategy: Strategy,
    ) -> Seconds {
        let image = self.bytes_by_space();
        image_time(Op::Write, &self.config, mm.rates(), tier, strategy, image)
    }

    /// Duration of a recovery of the current protected set (the reversed
    /// procedure: storage read then host→device movement, overlapped in
    /// the async strategy).
    #[must_use]
    pub fn recover_duration(
        &self,
        mm: &MemoryManager,
        tier: &StorageTier,
        strategy: Strategy,
    ) -> Seconds {
        let image = self.bytes_by_space();
        image_time(Op::Read, &self.config, mm.rates(), tier, strategy, image)
    }

    /// Bytes protected per address-space class: `(device, uvm, host)`.
    #[must_use]
    fn bytes_by_space(&self) -> (Bytes, Bytes, Bytes) {
        let mut device = Bytes::ZERO;
        let mut uvm = Bytes::ZERO;
        let mut host = Bytes::ZERO;
        for p in self.protected.values() {
            match p.space() {
                AddrSpace::Device(_) => device += p.size(),
                AddrSpace::Unified => uvm += p.size(),
                AddrSpace::Host => host += p.size(),
            }
        }
        (device, uvm, host)
    }

    pub(crate) fn local_checkpoint(&self) -> Option<&StoredCheckpoint> {
        self.local.as_ref()
    }

    pub(crate) fn drop_local_checkpoint(&mut self) {
        self.local = None;
    }

    pub(crate) fn install_checkpoint(&mut self, ckpt: StoredCheckpoint) {
        self.version = self.version.max(ckpt.version);
        self.local = Some(ckpt);
    }

    pub(crate) fn restore_blobs(
        &self,
        mm: &mut MemoryManager,
        stored: &StoredCheckpoint,
    ) -> Result<(), FtiError> {
        self.verify_layout(stored)?;
        for (id, bytes) in &stored.blobs {
            if let Some(Protected::Real { handle, .. }) = self.protected.get(id) {
                mm.restore_from_host(*handle, bytes)?;
            }
        }
        Ok(())
    }

    fn verify_layout(&self, stored: &StoredCheckpoint) -> Result<(), FtiError> {
        let current: Vec<(u32, u64)> = self
            .protected
            .iter()
            .map(|(&id, p)| (id, p.size().as_u64()))
            .collect();
        if current != stored.layout {
            return Err(FtiError::LayoutMismatch(format!(
                "protected set {current:?} vs stored {:?}",
                stored.layout
            )));
        }
        Ok(())
    }
}

/// Which way a checkpoint image moves between memory and storage.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write,
    Read,
}

/// The timing model of moving a checkpoint image of `(device, uvm, host)`
/// bytes to (`Op::Write`) or from (`Op::Read`) `tier` — the one
/// place the arithmetic lives, so [`Fti::checkpoint_duration`],
/// [`Fti::recover_duration`], [`checkpoint_cost`] and [`restart_cost`]
/// cannot drift apart.
fn image_time(
    op: Op,
    config: &FtiConfig,
    rates: &TransferRates,
    tier: &StorageTier,
    strategy: Strategy,
    (device, uvm, host): (Bytes, Bytes, Bytes),
) -> Seconds {
    match strategy {
        Strategy::Initial => {
            let copy = rates.pcie_time(device, PinMode::Unpinned) + rates.uvm_migration_time(uvm);
            let mode = WriteMode::ChunkSync {
                chunk: config.initial_chunk,
            };
            let storage = match op {
                Op::Write => tier.write_time(device + uvm + host, mode),
                Op::Read => tier.read_time(device + uvm + host, mode),
            };
            copy + storage
        }
        Strategy::Async => {
            let bw = match op {
                Op::Write => tier.write_bw,
                Op::Read => tier.read_bw,
            };
            let staged = device + uvm;
            let chunk = config.async_chunk;
            let pipe = if staged > Bytes::ZERO {
                let chunks = staged.as_u64().div_ceil(chunk.as_u64());
                let copy_stage = rates.pcie_time(chunk.min(staged), PinMode::Pinned);
                let storage_stage = chunk.min(staged).time_at(bw);
                pipeline_time(chunks, &[copy_stage, storage_stage])
            } else {
                Seconds::ZERO
            };
            let host_stream = if host > Bytes::ZERO {
                host.time_at(bw)
            } else {
                Seconds::ZERO
            };
            tier.setup_latency + pipe + host_stream
        }
    }
}

/// Simulated wall-clock cost of writing a checkpoint image of `bytes`
/// host-resident bytes to `tier` under `strategy` — the cost model the
/// execution engine in `legato-runtime` charges for each task-frontier
/// checkpoint. An empty image is free.
///
/// This is [`Fti::checkpoint_duration`] for one host region of that size
/// at the default [`TransferRates`] (chunk sizes from `config`,
/// bandwidths and latencies from the [`StorageTier`]): both evaluate the
/// same function, so the engine's per-checkpoint charge and the Fig. 6
/// strategy comparison can never drift apart.
#[must_use]
pub fn checkpoint_cost(
    config: &FtiConfig,
    tier: &StorageTier,
    strategy: Strategy,
    bytes: Bytes,
) -> Seconds {
    host_image_time(Op::Write, config, tier, strategy, bytes)
}

/// Simulated wall-clock cost of restoring a checkpoint image of `bytes`
/// host-resident bytes from `tier` under `strategy` (the restart half of
/// [`checkpoint_cost`]). An empty image is free.
#[must_use]
pub fn restart_cost(
    config: &FtiConfig,
    tier: &StorageTier,
    strategy: Strategy,
    bytes: Bytes,
) -> Seconds {
    host_image_time(Op::Read, config, tier, strategy, bytes)
}

fn host_image_time(
    op: Op,
    config: &FtiConfig,
    tier: &StorageTier,
    strategy: Strategy,
    bytes: Bytes,
) -> Seconds {
    if bytes == Bytes::ZERO {
        return Seconds::ZERO;
    }
    let image = (Bytes::ZERO, Bytes::ZERO, bytes);
    image_time(op, config, &TransferRates::default(), tier, strategy, image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use legato_hw::DeviceId;

    fn setup() -> (MemoryManager, StorageDevice, Fti) {
        (
            MemoryManager::new(),
            StorageDevice::new(StorageTier::local_nvme()),
            Fti::new(FtiConfig::default(), 0),
        )
    }

    #[test]
    fn protect_duplicate_rejected() {
        let (mut mm, _s, mut fti) = setup();
        let h = mm.alloc(AddrSpace::Host, Bytes::kib(1)).unwrap();
        fti.protect(0, h, &mm).unwrap();
        assert_eq!(fti.protect(0, h, &mm), Err(FtiError::DuplicateId(0)));
        assert_eq!(fti.protected_bytes(), Bytes::kib(1));
    }

    #[test]
    fn checkpoint_recover_round_trip_all_spaces() {
        let (mut mm, mut storage, mut fti) = setup();
        let host = mm.alloc(AddrSpace::Host, Bytes::kib(4)).unwrap();
        let uvm = mm.alloc(AddrSpace::Unified, Bytes::kib(4)).unwrap();
        let dev = mm
            .alloc(AddrSpace::Device(DeviceId(0)), Bytes::kib(4))
            .unwrap();
        mm.write(host, 0, &[1; 64]).unwrap();
        mm.write(uvm, 0, &[2; 64]).unwrap();
        mm.write(dev, 0, &[3; 64]).unwrap();
        fti.protect(0, host, &mm).unwrap();
        fti.protect(1, uvm, &mm).unwrap();
        fti.protect(2, dev, &mm).unwrap();

        let rep = fti
            .checkpoint(
                &mut mm,
                &mut storage,
                CheckpointLevel::L1,
                Strategy::Async,
                Seconds::ZERO,
            )
            .unwrap();
        assert_eq!(rep.bytes, Bytes::kib(12));
        assert_eq!(rep.version, 1);

        // Clobber everything, recover, verify.
        mm.write(host, 0, &[9; 64]).unwrap();
        mm.write(uvm, 0, &[9; 64]).unwrap();
        mm.write(dev, 0, &[9; 64]).unwrap();
        fti.recover(&mut mm, &mut storage, Strategy::Async, rep.finish)
            .unwrap();
        assert_eq!(mm.data(host).unwrap()[..64], [1; 64]);
        assert_eq!(mm.data(uvm).unwrap()[..64], [2; 64]);
        assert_eq!(mm.read_for_host(dev).unwrap().0[..64], [3; 64]);
    }

    #[test]
    fn recover_without_checkpoint_errors() {
        let (mut mm, mut storage, mut fti) = setup();
        assert_eq!(
            fti.recover(&mut mm, &mut storage, Strategy::Async, Seconds::ZERO),
            Err(FtiError::NoCheckpoint)
        );
    }

    #[test]
    fn async_much_faster_than_initial_for_device_data() {
        // 2 GiB of device-resident data, the Fig. 6 situation per process.
        let (mut mm, storage, mut fti) = setup();
        let dev = mm
            .alloc(AddrSpace::Device(DeviceId(0)), Bytes::ZERO)
            .unwrap();
        fti.protect(0, dev, &mm).unwrap();
        fti.protect_phantom(1, AddrSpace::Device(DeviceId(0)), Bytes::gib(2))
            .unwrap();
        let t_init = fti.checkpoint_duration(&mm, &storage.tier, Strategy::Initial);
        let t_async = fti.checkpoint_duration(&mm, &storage.tier, Strategy::Async);
        let ratio = t_init / t_async;
        assert!(
            (8.0..20.0).contains(&ratio),
            "expected ~10-12x, got {ratio:.2} ({t_init} vs {t_async})"
        );
    }

    #[test]
    fn recover_ratio_is_smaller_than_checkpoint_ratio() {
        // The paper: 12.05× ckpt reduction but 5.13× recover reduction.
        let (mut _mm, storage, mut fti) = setup();
        let mm = MemoryManager::new();
        fti.protect_phantom(0, AddrSpace::Unified, Bytes::gib(2))
            .unwrap();
        let ck = fti.checkpoint_duration(&mm, &storage.tier, Strategy::Initial)
            / fti.checkpoint_duration(&mm, &storage.tier, Strategy::Async);
        let rc = fti.recover_duration(&mm, &storage.tier, Strategy::Initial)
            / fti.recover_duration(&mm, &storage.tier, Strategy::Async);
        assert!(
            rc < ck,
            "recover ratio {rc:.2} should be below ckpt ratio {ck:.2}"
        );
        assert!(
            rc > 2.0,
            "recover ratio {rc:.2} should still be substantial"
        );
    }

    #[test]
    fn snapshot_cadence_selects_levels() {
        let cfg = FtiConfig::builder()
            .l1_every(1)
            .l2_every(2)
            .l3_every(4)
            .l4_every(8)
            .build();
        let mut fti = Fti::new(cfg, 0);
        let mut mm = MemoryManager::new();
        let h = mm.alloc(AddrSpace::Host, Bytes::kib(1)).unwrap();
        fti.protect(0, h, &mm).unwrap();
        let mut storage = StorageDevice::new(StorageTier::local_nvme());
        let mut levels = Vec::new();
        for _ in 0..8 {
            let rep = fti
                .snapshot(&mut mm, &mut storage, Strategy::Async, Seconds::ZERO)
                .unwrap()
                .unwrap();
            levels.push(rep.level);
        }
        use CheckpointLevel::*;
        assert_eq!(levels, vec![L1, L2, L1, L3, L1, L2, L1, L4]);
    }

    #[test]
    fn snapshot_skips_when_not_due() {
        let cfg = FtiConfig::builder()
            .l1_every(3)
            .l2_every(100)
            .l3_every(100)
            .l4_every(100)
            .build();
        let mut fti = Fti::new(cfg, 0);
        let mut mm = MemoryManager::new();
        let h = mm.alloc(AddrSpace::Host, Bytes::kib(1)).unwrap();
        fti.protect(0, h, &mm).unwrap();
        let mut storage = StorageDevice::new(StorageTier::local_nvme());
        assert!(fti
            .snapshot(&mut mm, &mut storage, Strategy::Async, Seconds::ZERO)
            .unwrap()
            .is_none());
        assert!(fti
            .snapshot(&mut mm, &mut storage, Strategy::Async, Seconds::ZERO)
            .unwrap()
            .is_none());
        assert!(fti
            .snapshot(&mut mm, &mut storage, Strategy::Async, Seconds::ZERO)
            .unwrap()
            .is_some());
    }

    #[test]
    fn layout_change_detected_on_recover() {
        let (mut mm, mut storage, mut fti) = setup();
        let h = mm.alloc(AddrSpace::Host, Bytes::kib(1)).unwrap();
        fti.protect(0, h, &mm).unwrap();
        fti.checkpoint(
            &mut mm,
            &mut storage,
            CheckpointLevel::L1,
            Strategy::Async,
            Seconds::ZERO,
        )
        .unwrap();
        // Protect an extra region after the checkpoint: layout mismatch.
        let h2 = mm.alloc(AddrSpace::Host, Bytes::kib(2)).unwrap();
        fti.protect(1, h2, &mm).unwrap();
        assert!(matches!(
            fti.recover(&mut mm, &mut storage, Strategy::Async, Seconds::ZERO),
            Err(FtiError::LayoutMismatch(_))
        ));
    }

    #[test]
    fn versions_increment() {
        let (mut mm, mut storage, mut fti) = setup();
        let h = mm.alloc(AddrSpace::Host, Bytes::kib(1)).unwrap();
        fti.protect(0, h, &mm).unwrap();
        for expect in 1..=3 {
            let rep = fti
                .checkpoint(
                    &mut mm,
                    &mut storage,
                    CheckpointLevel::L1,
                    Strategy::Async,
                    Seconds::ZERO,
                )
                .unwrap();
            assert_eq!(rep.version, expect);
        }
    }

    #[test]
    fn storage_contention_serializes_checkpoints() {
        // Two processes sharing one NVMe: second checkpoint starts after
        // the first finishes.
        let mut mm = MemoryManager::new();
        let mut storage = StorageDevice::new(StorageTier::local_nvme());
        let mut fti_a = Fti::new(FtiConfig::default(), 0);
        let mut fti_b = Fti::new(FtiConfig::default(), 1);
        fti_a
            .protect_phantom(0, AddrSpace::Host, Bytes::mib(512))
            .unwrap();
        fti_b
            .protect_phantom(0, AddrSpace::Host, Bytes::mib(512))
            .unwrap();
        let a = fti_a
            .checkpoint(
                &mut mm,
                &mut storage,
                CheckpointLevel::L1,
                Strategy::Async,
                Seconds::ZERO,
            )
            .unwrap();
        let b = fti_b
            .checkpoint(
                &mut mm,
                &mut storage,
                CheckpointLevel::L1,
                Strategy::Async,
                Seconds::ZERO,
            )
            .unwrap();
        assert_eq!(b.start, a.finish);
    }

    #[test]
    fn cost_api_matches_phantom_checkpoint_and_is_monotone() {
        let cfg = FtiConfig::default();
        let tier = StorageTier::local_nvme();
        assert_eq!(
            checkpoint_cost(&cfg, &tier, Strategy::Async, Bytes::ZERO),
            Seconds::ZERO
        );
        assert_eq!(
            restart_cost(&cfg, &tier, Strategy::Initial, Bytes::ZERO),
            Seconds::ZERO
        );
        let small = checkpoint_cost(&cfg, &tier, Strategy::Async, Bytes::mib(64));
        let large = checkpoint_cost(&cfg, &tier, Strategy::Async, Bytes::gib(1));
        assert!(Seconds::ZERO < small && small < large);
        // Host-resident data: the initial strategy pays a sync per chunk.
        let initial = checkpoint_cost(&cfg, &tier, Strategy::Initial, Bytes::gib(1));
        assert!(initial > large, "{initial} vs {large}");
        // Agreement with the Fti engine it is documented to mirror.
        let mut fti = Fti::new(cfg.clone(), 0);
        fti.protect_phantom(0, AddrSpace::Host, Bytes::gib(1))
            .unwrap();
        assert_eq!(
            fti.checkpoint_duration(&MemoryManager::new(), &tier, Strategy::Async),
            large
        );
        assert_eq!(
            fti.recover_duration(&MemoryManager::new(), &tier, Strategy::Initial),
            restart_cost(&cfg, &tier, Strategy::Initial, Bytes::gib(1))
        );
    }

    #[test]
    fn phantom_bytes_by_space() {
        let mut fti = Fti::new(FtiConfig::default(), 0);
        fti.protect_phantom(0, AddrSpace::Device(DeviceId(1)), Bytes::gib(1))
            .unwrap();
        fti.protect_phantom(1, AddrSpace::Unified, Bytes::gib(2))
            .unwrap();
        fti.protect_phantom(2, AddrSpace::Host, Bytes::gib(3))
            .unwrap();
        assert_eq!(
            fti.bytes_by_space(),
            (Bytes::gib(1), Bytes::gib(2), Bytes::gib(3))
        );
        assert_eq!(fti.protected_bytes(), Bytes::gib(6));
    }
}
