//! Memory spaces and explicit transfer costs.
//!
//! This is the substrate under the FTI GPU/CPU checkpointing (paper §IV).
//! Regions live in one of three [`AddrSpace`]s mirroring the CUDA memory
//! model the paper's Listing 1 exercises:
//!
//! * **Host** — `malloc`-style CPU memory, directly readable;
//! * **Device** — `cudaMalloc`-style GPU memory, *not* host-accessible;
//!   moving it costs PCIe transfer time;
//! * **Unified** — `cudaMallocManaged` UVM, accessible from both sides with
//!   page-migration cost on first touch.
//!
//! Regions carry real bytes: a checkpoint written from a device region and
//! restored later contains exactly the same data, so corruption and
//! recovery tests operate on genuine content, not token sizes.

use std::collections::HashMap;

use legato_core::units::{Bytes, BytesPerSec, Seconds};
use serde::{Deserialize, Serialize};

use crate::device::DeviceId;
use crate::error::HwError;

/// Which address space a region lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AddrSpace {
    /// Host (CPU) DRAM.
    Host,
    /// Memory of a specific device; not directly host-accessible.
    Device(DeviceId),
    /// Unified virtual memory, migrated on demand.
    Unified,
}

impl AddrSpace {
    /// Whether host code can dereference pointers into this space without
    /// an explicit transfer.
    fn host_accessible(self) -> bool {
        !matches!(self, AddrSpace::Device(_))
    }
}

/// Handle to an allocated region.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RegionHandle(pub u64);

impl std::fmt::Display for RegionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// Bandwidths and latencies of the simulated memory system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferRates {
    /// Device ↔ host over PCIe with pinned host buffers.
    pub pcie_pinned: BytesPerSec,
    /// Device ↔ host over PCIe through pageable (unpinned) host memory —
    /// the slow path the *initial* FTI implementation used.
    pub pcie_unpinned: BytesPerSec,
    /// UVM page size for migration accounting.
    pub uvm_page: Bytes,
    /// Per-page fault/migration latency for UVM.
    pub uvm_fault_latency: Seconds,
}

impl Default for TransferRates {
    fn default() -> Self {
        TransferRates {
            pcie_pinned: BytesPerSec::gib_per_sec(12.0),
            pcie_unpinned: BytesPerSec::gib_per_sec(3.0),
            uvm_page: Bytes::mib(2),
            uvm_fault_latency: Seconds::from_micros(10.0),
        }
    }
}

impl TransferRates {
    /// PCIe transfer time for `size` bytes under a pinning mode.
    #[must_use]
    pub fn pcie_time(&self, size: Bytes, pin: PinMode) -> Seconds {
        let bw = match pin {
            PinMode::Pinned => self.pcie_pinned,
            PinMode::Unpinned => self.pcie_unpinned,
        };
        size.time_at(bw)
    }

    /// UVM migration time: bandwidth-limited transfer plus per-page fault
    /// latency.
    #[must_use]
    pub fn uvm_migration_time(&self, size: Bytes) -> Seconds {
        if size == Bytes::ZERO {
            return Seconds::ZERO;
        }
        let pages = size.as_u64().div_ceil(self.uvm_page.as_u64());
        size.time_at(self.pcie_pinned) + self.uvm_fault_latency * pages as f64
    }
}

/// Whether a transfer goes through pinned or pageable host memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PinMode {
    /// Pinned (page-locked) staging buffers: full PCIe bandwidth,
    /// asynchronous copies possible.
    Pinned,
    /// Pageable memory: degraded bandwidth, synchronous copies only.
    Unpinned,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Region {
    space: AddrSpace,
    data: Vec<u8>,
}

/// Owner of all simulated memory regions, with transfer-cost accounting.
///
/// ```
/// use legato_hw::memory::{AddrSpace, MemoryManager, PinMode};
/// use legato_core::units::Bytes;
///
/// # fn main() -> Result<(), legato_hw::HwError> {
/// let mut mm = MemoryManager::new();
/// let dev = legato_hw::DeviceId(0);
/// let h = mm.alloc(AddrSpace::Device(dev), Bytes::mib(4))?;
/// mm.write(h, 0, &[1, 2, 3])?;
/// // Reading device memory from the host requires an explicit transfer:
/// let (bytes, cost) = mm.read_for_host(h)?;
/// assert_eq!(&bytes[..3], &[1, 2, 3]);
/// assert!(cost.0 > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryManager {
    rates: TransferRates,
    regions: HashMap<u64, Region>,
    next_id: u64,
}

impl Default for MemoryManager {
    fn default() -> Self {
        MemoryManager::new()
    }
}

impl MemoryManager {
    /// Manager with [`TransferRates::default`].
    #[must_use]
    pub fn new() -> Self {
        MemoryManager {
            rates: TransferRates::default(),
            regions: HashMap::new(),
            next_id: 0,
        }
    }

    /// The configured transfer rates.
    #[must_use]
    pub fn rates(&self) -> &TransferRates {
        &self.rates
    }

    /// Allocate a zero-filled region in `space`.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (capacity is unbounded), but
    /// returns `Result` so capacity limits can be enforced without an API
    /// break.
    pub fn alloc(&mut self, space: AddrSpace, size: Bytes) -> Result<RegionHandle, HwError> {
        let id = self.next_id;
        self.next_id += 1;
        self.regions.insert(
            id,
            Region {
                space,
                data: vec![0u8; size.as_u64() as usize],
            },
        );
        Ok(RegionHandle(id))
    }

    /// Size of a region.
    ///
    /// # Errors
    ///
    /// [`HwError::UnknownRegion`] if the handle is stale.
    pub fn size(&self, h: RegionHandle) -> Result<Bytes, HwError> {
        self.region(h).map(|r| Bytes(r.data.len() as u64))
    }

    /// Address space of a region.
    ///
    /// # Errors
    ///
    /// [`HwError::UnknownRegion`] if the handle is stale.
    pub fn space(&self, h: RegionHandle) -> Result<AddrSpace, HwError> {
        self.region(h).map(|r| r.space)
    }

    /// Write bytes into a region at `offset`.
    ///
    /// # Errors
    ///
    /// [`HwError::UnknownRegion`] for a stale handle;
    /// [`HwError::OutOfCapacity`] if the write would overrun the region.
    pub fn write(&mut self, h: RegionHandle, offset: usize, bytes: &[u8]) -> Result<(), HwError> {
        let region = self
            .regions
            .get_mut(&h.0)
            .ok_or(HwError::UnknownRegion(h.0))?;
        let end = offset + bytes.len();
        if end > region.data.len() {
            return Err(HwError::OutOfCapacity {
                what: "memory region",
                requested: end as u64,
                available: region.data.len() as u64,
            });
        }
        region.data[offset..end].copy_from_slice(bytes);
        Ok(())
    }

    /// Direct view of a region's bytes — only for host-accessible spaces.
    ///
    /// # Errors
    ///
    /// [`HwError::UnknownRegion`] for a stale handle; [`HwError::Comm`] if
    /// the region lives in device memory (use [`MemoryManager::read_for_host`]).
    pub fn data(&self, h: RegionHandle) -> Result<&[u8], HwError> {
        let r = self.region(h)?;
        if !r.space.host_accessible() {
            return Err(HwError::Comm(format!(
                "region {h} lives in device memory; stage it with read_for_host"
            )));
        }
        Ok(&r.data)
    }

    /// Copy a region's content to the host, paying the appropriate
    /// simulated cost: zero for host regions, UVM migration for unified
    /// regions, a pinned PCIe transfer for device regions.
    ///
    /// # Errors
    ///
    /// [`HwError::UnknownRegion`] for a stale handle.
    pub fn read_for_host(&self, h: RegionHandle) -> Result<(Vec<u8>, Seconds), HwError> {
        let r = self.region(h)?;
        let size = Bytes(r.data.len() as u64);
        let cost = match r.space {
            AddrSpace::Host => Seconds::ZERO,
            AddrSpace::Unified => self.rates.uvm_migration_time(size),
            AddrSpace::Device(_) => self.rates.pcie_time(size, PinMode::Pinned),
        };
        Ok((r.data.clone(), cost))
    }

    /// Overwrite a region's content from host bytes, paying the simulated
    /// cost of moving them back to where the region lives.
    ///
    /// # Errors
    ///
    /// [`HwError::UnknownRegion`] for a stale handle;
    /// [`HwError::OutOfCapacity`] if `bytes` exceeds the region size.
    pub fn restore_from_host(&mut self, h: RegionHandle, bytes: &[u8]) -> Result<Seconds, HwError> {
        let space = self.space(h)?;
        let size = Bytes(bytes.len() as u64);
        let region = self
            .regions
            .get_mut(&h.0)
            .ok_or(HwError::UnknownRegion(h.0))?;
        if bytes.len() > region.data.len() {
            return Err(HwError::OutOfCapacity {
                what: "memory region",
                requested: bytes.len() as u64,
                available: region.data.len() as u64,
            });
        }
        region.data[..bytes.len()].copy_from_slice(bytes);
        Ok(match space {
            AddrSpace::Host => Seconds::ZERO,
            AddrSpace::Unified => self.rates.uvm_migration_time(size),
            AddrSpace::Device(_) => self.rates.pcie_time(size, PinMode::Pinned),
        })
    }

    /// Free a region.
    ///
    /// # Errors
    ///
    /// [`HwError::UnknownRegion`] if already freed.
    pub fn free(&mut self, h: RegionHandle) -> Result<(), HwError> {
        self.regions
            .remove(&h.0)
            .map(|_| ())
            .ok_or(HwError::UnknownRegion(h.0))
    }

    fn region(&self, h: RegionHandle) -> Result<&Region, HwError> {
        self.regions.get(&h.0).ok_or(HwError::UnknownRegion(h.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> AddrSpace {
        AddrSpace::Device(DeviceId(0))
    }

    #[test]
    fn host_accessibility() {
        assert!(AddrSpace::Host.host_accessible());
        assert!(AddrSpace::Unified.host_accessible());
        assert!(!dev().host_accessible());
    }

    #[test]
    fn alloc_write_read_host() {
        let mut mm = MemoryManager::new();
        let h = mm.alloc(AddrSpace::Host, Bytes(16)).unwrap();
        mm.write(h, 4, &[9, 9]).unwrap();
        assert_eq!(mm.data(h).unwrap()[4], 9);
        assert_eq!(mm.size(h).unwrap(), Bytes(16));
    }

    #[test]
    fn device_region_not_directly_readable() {
        let mut mm = MemoryManager::new();
        let h = mm.alloc(dev(), Bytes(8)).unwrap();
        assert!(mm.data(h).is_err());
        let (bytes, cost) = mm.read_for_host(h).unwrap();
        assert_eq!(bytes.len(), 8);
        assert!(cost.0 > 0.0);
    }

    #[test]
    fn host_read_is_free_uvm_pays_migration() {
        let mut mm = MemoryManager::new();
        let host = mm.alloc(AddrSpace::Host, Bytes::mib(4)).unwrap();
        let uvm = mm.alloc(AddrSpace::Unified, Bytes::mib(4)).unwrap();
        assert_eq!(mm.read_for_host(host).unwrap().1, Seconds::ZERO);
        let uvm_cost = mm.read_for_host(uvm).unwrap().1;
        assert!(uvm_cost.0 > 0.0);
        // UVM cost exceeds the raw PCIe cost by the fault latencies.
        assert!(uvm_cost > mm.rates().pcie_time(Bytes::mib(4), PinMode::Pinned));
    }

    #[test]
    fn restore_round_trip_device() {
        let mut mm = MemoryManager::new();
        let h = mm.alloc(dev(), Bytes(4)).unwrap();
        mm.write(h, 0, &[1, 2, 3, 4]).unwrap();
        let (saved, _) = mm.read_for_host(h).unwrap();
        mm.write(h, 0, &[0, 0, 0, 0]).unwrap();
        let cost = mm.restore_from_host(h, &saved).unwrap();
        assert!(cost.0 > 0.0);
        assert_eq!(mm.read_for_host(h).unwrap().0, vec![1, 2, 3, 4]);
    }

    #[test]
    fn write_overflow_rejected() {
        let mut mm = MemoryManager::new();
        let h = mm.alloc(AddrSpace::Host, Bytes(4)).unwrap();
        assert!(matches!(
            mm.write(h, 2, &[0; 4]),
            Err(HwError::OutOfCapacity { .. })
        ));
    }

    #[test]
    fn free_then_use_errors() {
        let mut mm = MemoryManager::new();
        let h = mm.alloc(AddrSpace::Host, Bytes(4)).unwrap();
        mm.free(h).unwrap();
        assert_eq!(mm.free(h), Err(HwError::UnknownRegion(h.0)));
        assert!(mm.data(h).is_err());
        assert!(mm.regions.is_empty());
    }

    #[test]
    fn unpinned_slower_than_pinned() {
        let rates = TransferRates::default();
        let s = Bytes::gib(1);
        assert!(rates.pcie_time(s, PinMode::Unpinned) > rates.pcie_time(s, PinMode::Pinned));
    }

    #[test]
    fn pcie_rate_sanity() {
        // 12 GiB at 12 GiB/s = 1 s.
        let t = TransferRates::default().pcie_time(Bytes::gib(12), PinMode::Pinned);
        assert!((t.0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_size_costs_nothing() {
        let mm = MemoryManager::new();
        assert_eq!(mm.rates().uvm_migration_time(Bytes::ZERO), Seconds::ZERO);
    }
}
