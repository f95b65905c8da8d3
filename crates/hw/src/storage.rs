//! Storage tiers: node-local NVMe and a shared parallel file system.
//!
//! The Fig. 6 experiment writes checkpoints to *node-local NVMe*, which is
//! why "the checkpoint overhead does not increase as we increase the number
//! of nodes" (paper §IV). Two write paths are modelled:
//!
//! * [`WriteMode::Streaming`] — large sequential writes at full device
//!   bandwidth (the optimized/async FTI path);
//! * [`WriteMode::ChunkSync`] — small chunks, each followed by a
//!   synchronization (the *initial* FTI implementation: per-variable
//!   synchronous `write` calls through pageable staging buffers).
//!
//! The per-chunk synchronization latency is the mechanical source of the
//! ≈10× gap the paper reports between the two implementations.

use legato_core::units::{Bytes, BytesPerSec, Seconds};
use serde::{Deserialize, Serialize};

/// Static description of a storage tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageTier {
    /// Human-readable tier name.
    pub name: String,
    /// Sequential read bandwidth.
    pub read_bw: BytesPerSec,
    /// Sequential write bandwidth.
    pub write_bw: BytesPerSec,
    /// Latency charged per synchronous chunk on the write path
    /// (fsync-like barrier plus driver round trip).
    pub sync_latency: Seconds,
    /// Latency charged per synchronous chunk on the read path — smaller
    /// than the write-side latency because OS readahead coalesces blocking
    /// reads even in naive implementations.
    pub read_sync_latency: Seconds,
    /// Fixed per-operation setup latency (file open, metadata).
    pub setup_latency: Seconds,
}

impl StorageTier {
    /// Node-local NVMe drive, the L1 checkpoint target of Fig. 6.
    #[must_use]
    pub fn local_nvme() -> Self {
        StorageTier {
            name: "local NVMe".into(),
            read_bw: BytesPerSec::gib_per_sec(2.6),
            write_bw: BytesPerSec::gib_per_sec(1.8),
            sync_latency: Seconds::from_millis(24.0),
            read_sync_latency: Seconds::from_millis(6.0),
            setup_latency: Seconds::from_millis(5.0),
        }
    }

    /// Shared parallel file system (L4 checkpoint target). Bandwidth is
    /// per-client and degrades under cluster-wide contention, which the
    /// caller models by dividing by the number of concurrent writers.
    #[must_use]
    pub fn parallel_fs() -> Self {
        StorageTier {
            name: "parallel FS".into(),
            read_bw: BytesPerSec::gib_per_sec(1.0),
            write_bw: BytesPerSec::gib_per_sec(0.6),
            sync_latency: Seconds::from_millis(40.0),
            read_sync_latency: Seconds::from_millis(15.0),
            setup_latency: Seconds::from_millis(20.0),
        }
    }

    /// RAM-disk-like tier for partner copies held in neighbour memory.
    #[must_use]
    pub fn partner_memory() -> Self {
        StorageTier {
            name: "partner memory".into(),
            read_bw: BytesPerSec::gib_per_sec(4.5),
            write_bw: BytesPerSec::gib_per_sec(4.5),
            sync_latency: Seconds::from_millis(2.0),
            read_sync_latency: Seconds::from_millis(1.0),
            setup_latency: Seconds::from_millis(1.0),
        }
    }

    /// Time to write `size` bytes under `mode`.
    #[must_use]
    pub fn write_time(&self, size: Bytes, mode: WriteMode) -> Seconds {
        if size == Bytes::ZERO {
            return Seconds::ZERO;
        }
        match mode {
            WriteMode::Streaming => self.setup_latency + size.time_at(self.write_bw),
            WriteMode::ChunkSync { chunk } => {
                let chunk = chunk.max(Bytes(1));
                let chunks = size.as_u64().div_ceil(chunk.as_u64());
                self.setup_latency + size.time_at(self.write_bw) + self.sync_latency * chunks as f64
            }
        }
    }

    /// Time to read `size` bytes under `mode`.
    #[must_use]
    pub fn read_time(&self, size: Bytes, mode: WriteMode) -> Seconds {
        if size == Bytes::ZERO {
            return Seconds::ZERO;
        }
        match mode {
            WriteMode::Streaming => self.setup_latency + size.time_at(self.read_bw),
            WriteMode::ChunkSync { chunk } => {
                let chunk = chunk.max(Bytes(1));
                let chunks = size.as_u64().div_ceil(chunk.as_u64());
                self.setup_latency
                    + size.time_at(self.read_bw)
                    + self.read_sync_latency * chunks as f64
            }
        }
    }
}

/// How data is pushed to (or pulled from) a tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WriteMode {
    /// Large sequential transfers at device bandwidth.
    Streaming,
    /// Chunked transfers with a synchronization per chunk.
    ChunkSync {
        /// Chunk size.
        chunk: Bytes,
    },
}

/// A storage device instance: a tier plus availability state, so multiple
/// processes on one node serialize their accesses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageDevice {
    /// The tier this device belongs to.
    pub tier: StorageTier,
    busy_until: Seconds,
    bytes_written: Bytes,
    bytes_read: Bytes,
}

impl StorageDevice {
    /// Instantiate a device of the given tier.
    #[must_use]
    pub fn new(tier: StorageTier) -> Self {
        StorageDevice {
            tier,
            busy_until: Seconds::ZERO,
            bytes_written: Bytes::ZERO,
            bytes_read: Bytes::ZERO,
        }
    }

    /// Earliest time the device is free.
    #[must_use]
    pub fn busy_until(&self) -> Seconds {
        self.busy_until
    }

    /// Total bytes written through this device. With
    /// [`StorageDevice::bytes_read`] it is the device's traffic ledger:
    /// `write` and `occupy` add to one, `read` and `occupy_read` to the
    /// other, and `reset` clears both.
    ///
    /// ```
    /// use legato_core::units::{Bytes, Seconds};
    /// use legato_hw::storage::{StorageDevice, StorageTier, WriteMode};
    ///
    /// let mut nvme = StorageDevice::new(StorageTier::local_nvme());
    /// nvme.write(Seconds::ZERO, Bytes::gib(2), WriteMode::Streaming);
    /// nvme.occupy_read(Seconds::ZERO, Seconds(1.0), Bytes::gib(1));
    /// assert_eq!(nvme.bytes_written(), Bytes::gib(2));
    /// assert_eq!(nvme.bytes_read(), Bytes::gib(1));
    /// ```
    #[must_use]
    pub fn bytes_written(&self) -> Bytes {
        self.bytes_written
    }

    /// Total bytes read through this device.
    #[must_use]
    pub fn bytes_read(&self) -> Bytes {
        self.bytes_read
    }

    /// Write `size` bytes starting no earlier than `now`; returns
    /// `(start, finish)`.
    pub fn write(&mut self, now: Seconds, size: Bytes, mode: WriteMode) -> (Seconds, Seconds) {
        let start = now.max(self.busy_until);
        let finish = start + self.tier.write_time(size, mode);
        self.busy_until = finish;
        self.bytes_written += size;
        (start, finish)
    }

    /// Read `size` bytes starting no earlier than `now`; returns
    /// `(start, finish)`.
    pub fn read(&mut self, now: Seconds, size: Bytes, mode: WriteMode) -> (Seconds, Seconds) {
        let start = now.max(self.busy_until);
        let finish = start + self.tier.read_time(size, mode);
        self.busy_until = finish;
        self.bytes_read += size;
        (start, finish)
    }

    /// Occupy the device for an externally computed duration (used by
    /// clients whose operation interleaves the device with other resources,
    /// e.g. a copy/write pipeline). `moved` is counted as written bytes.
    /// Returns `(start, finish)`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or not finite.
    pub fn occupy(&mut self, now: Seconds, duration: Seconds, moved: Bytes) -> (Seconds, Seconds) {
        let window = self.reserve(now, duration);
        self.bytes_written += moved;
        window
    }

    /// The read-side twin of [`StorageDevice::occupy`]: occupy the device
    /// for an externally computed duration and count `moved` as *read*
    /// bytes (recovery/restart traffic). Returns `(start, finish)`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or not finite.
    pub fn occupy_read(
        &mut self,
        now: Seconds,
        duration: Seconds,
        moved: Bytes,
    ) -> (Seconds, Seconds) {
        let window = self.reserve(now, duration);
        self.bytes_read += moved;
        window
    }

    /// Shared occupancy rule: serialize behind the device's current
    /// availability for `duration`.
    fn reserve(&mut self, now: Seconds, duration: Seconds) -> (Seconds, Seconds) {
        assert!(
            duration.0.is_finite() && duration.0 >= 0.0,
            "duration must be non-negative"
        );
        let start = now.max(self.busy_until);
        let finish = start + duration;
        self.busy_until = finish;
        (start, finish)
    }

    /// Reset availability and counters.
    pub fn reset(&mut self) {
        self.busy_until = Seconds::ZERO;
        self.bytes_written = Bytes::ZERO;
        self.bytes_read = Bytes::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_write_is_bandwidth_bound() {
        let nvme = StorageTier::local_nvme();
        let t = nvme.write_time(Bytes::gib(18), WriteMode::Streaming);
        // 18 GiB at 1.8 GiB/s = 10 s plus 5 ms setup.
        assert!((t.0 - 10.005).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn chunk_sync_is_much_slower() {
        let nvme = StorageTier::local_nvme();
        let size = Bytes::gib(2);
        let fast = nvme.write_time(size, WriteMode::Streaming);
        let slow = nvme.write_time(
            size,
            WriteMode::ChunkSync {
                chunk: Bytes::mib(4),
            },
        );
        // 512 chunks × 18 ms ≈ 9.2 s of sync latency on top of 1.1 s stream.
        assert!(slow.0 / fast.0 > 5.0, "ratio {}", slow.0 / fast.0);
    }

    #[test]
    fn zero_bytes_is_free() {
        let nvme = StorageTier::local_nvme();
        assert_eq!(
            nvme.write_time(Bytes::ZERO, WriteMode::Streaming),
            Seconds::ZERO
        );
        assert_eq!(
            nvme.read_time(Bytes::ZERO, WriteMode::Streaming),
            Seconds::ZERO
        );
    }

    #[test]
    fn read_faster_than_write_on_nvme() {
        let nvme = StorageTier::local_nvme();
        let s = Bytes::gib(4);
        assert!(nvme.read_time(s, WriteMode::Streaming) < nvme.write_time(s, WriteMode::Streaming));
    }

    #[test]
    fn device_serializes_writers() {
        let mut d = StorageDevice::new(StorageTier::local_nvme());
        let (s1, f1) = d.write(Seconds::ZERO, Bytes::gib(1), WriteMode::Streaming);
        let (s2, _f2) = d.write(Seconds::ZERO, Bytes::gib(1), WriteMode::Streaming);
        assert_eq!(s1, Seconds::ZERO);
        assert_eq!(s2, f1);
        assert_eq!(d.bytes_written(), Bytes::gib(2));
    }

    #[test]
    fn device_reset() {
        let mut d = StorageDevice::new(StorageTier::partner_memory());
        d.write(Seconds::ZERO, Bytes::mib(10), WriteMode::Streaming);
        d.read(Seconds::ZERO, Bytes::mib(5), WriteMode::Streaming);
        d.reset();
        assert_eq!(d.busy_until(), Seconds::ZERO);
        assert_eq!(d.bytes_written(), Bytes::ZERO);
        assert_eq!(d.bytes_read(), Bytes::ZERO);
    }

    #[test]
    fn occupy_read_serializes_and_counts_reads() {
        let mut d = StorageDevice::new(StorageTier::local_nvme());
        let (_s1, f1) = d.occupy(Seconds::ZERO, Seconds(2.0), Bytes::gib(1));
        let (s2, f2) = d.occupy_read(Seconds::ZERO, Seconds(1.0), Bytes::mib(512));
        assert_eq!(s2, f1, "read must queue behind the write occupation");
        assert_eq!(f2, f1 + Seconds(1.0));
        assert_eq!(d.bytes_written(), Bytes::gib(1));
        assert_eq!(d.bytes_read(), Bytes::mib(512));
    }

    #[test]
    fn chunk_sync_chunk_of_zero_is_clamped() {
        let nvme = StorageTier::local_nvme();
        // Must not panic or divide by zero.
        let t = nvme.write_time(Bytes(10), WriteMode::ChunkSync { chunk: Bytes(0) });
        assert!(t.0 > 0.0);
    }

    #[test]
    fn parallel_fs_slower_than_nvme() {
        let pfs = StorageTier::parallel_fs();
        let nvme = StorageTier::local_nvme();
        let s = Bytes::gib(1);
        assert!(pfs.write_time(s, WriteMode::Streaming) > nvme.write_time(s, WriteMode::Streaming));
    }
}
