//! Multi-process coordination: partner copies, erasure coding, node
//! failure and multi-level recovery.
//!
//! An [`FtiGroup`] owns one [`Fti`] engine, one [`MemoryManager`] and a
//! share of a node-local NVMe per rank, mirroring the Fig. 6 deployment
//! ("in each node we execute 4 processes, one per GPU device"). It adds
//! what single-process engines cannot do alone:
//!
//! * **L2** — after the local checkpoint, each rank's image is copied to a
//!   partner node over the compute network;
//! * **L3** — the rank images form the data shards of a Reed–Solomon code;
//!   parity shards are distributed round-robin across nodes;
//! * **L4** — images are written to a shared parallel file system, whose
//!   single device serializes cluster-wide traffic (the reason L4 is slow
//!   and L1 is flat in node count);
//! * **failure injection** — [`FtiGroup::fail_node`] destroys everything
//!   hosted on a node; [`FtiGroup::recover_all`] then restores each rank
//!   from the cheapest level that survived.

use legato_core::units::{Bytes, BytesPerSec, Seconds};
use legato_hw::memory::MemoryManager;
use legato_hw::storage::{StorageDevice, StorageTier, WriteMode};
use serde::{Deserialize, Serialize};

use crate::config::FtiConfig;
use crate::error::FtiError;
use crate::fti::{CheckpointReport, Fti, StoredCheckpoint, Strategy};
use crate::level::CheckpointLevel;
use crate::rs::ReedSolomon;

/// Throughput of the Reed–Solomon encoder per rank (XOR-heavy table
/// lookups; measured orders for software GF(256) coders).
const RS_ENCODE_BW: BytesPerSec = BytesPerSec(1.4e9);

/// Outcome of a group checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupCheckpointReport {
    /// Level taken.
    pub level: CheckpointLevel,
    /// Per-rank reports.
    pub ranks: Vec<CheckpointReport>,
    /// Wall-clock duration: latest finish minus the common start.
    pub wall: Seconds,
}

/// Outcome of a group recovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupRecoverReport {
    /// Level each rank recovered from.
    pub levels: Vec<CheckpointLevel>,
    /// Wall-clock duration.
    pub wall: Seconds,
}

/// A simulated multi-node FTI deployment.
pub struct FtiGroup {
    config: FtiConfig,
    engines: Vec<Fti>,
    memories: Vec<MemoryManager>,
    /// One NVMe per node, shared by the node's ranks.
    node_storage: Vec<StorageDevice>,
    /// One partner-memory store per node (L2 target).
    partner_storage: Vec<StorageDevice>,
    /// The shared parallel file system (L4 target).
    pfs: StorageDevice,
    node_alive: Vec<bool>,
    /// L2: checkpoint of rank `r`, physically hosted on `partner_node(node_of(r))`.
    l2_store: Vec<Option<StoredCheckpoint>>,
    /// L3 parity shards (index p hosted on node `p % n_nodes`).
    l3_parity: Vec<Option<Vec<u8>>>,
    /// L3 metadata: serialized shard length (uniform) and per-rank real
    /// lengths, kept replicated (survives node loss).
    l3_shard_len: usize,
    l3_versions: Vec<u64>,
    /// L4 store on the PFS.
    l4_store: Vec<Option<StoredCheckpoint>>,
}

impl std::fmt::Debug for FtiGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FtiGroup")
            .field("ranks", &self.engines.len())
            .field("nodes", &self.node_storage.len())
            .field("alive", &self.node_alive)
            .finish()
    }
}

impl FtiGroup {
    /// Create a deployment of `n_ranks` ranks, `config.procs_per_node`
    /// per node.
    ///
    /// # Panics
    ///
    /// Panics if `n_ranks` is zero or not a multiple of
    /// `config.procs_per_node`.
    #[must_use]
    pub fn new(config: FtiConfig, n_ranks: usize) -> Self {
        assert!(n_ranks > 0, "need at least one rank");
        assert!(
            n_ranks.is_multiple_of(config.procs_per_node),
            "ranks must fill whole nodes"
        );
        let n_nodes = n_ranks / config.procs_per_node;
        FtiGroup {
            engines: (0..n_ranks).map(|r| Fti::new(config.clone(), r)).collect(),
            memories: (0..n_ranks).map(|_| MemoryManager::new()).collect(),
            node_storage: (0..n_nodes)
                .map(|_| StorageDevice::new(StorageTier::local_nvme()))
                .collect(),
            partner_storage: (0..n_nodes)
                .map(|_| StorageDevice::new(StorageTier::partner_memory()))
                .collect(),
            pfs: StorageDevice::new(StorageTier::parallel_fs()),
            node_alive: vec![true; n_nodes],
            l2_store: vec![None; n_ranks],
            l3_parity: vec![None; config.parity],
            l3_shard_len: 0,
            l3_versions: vec![0; n_ranks],
            l4_store: vec![None; n_ranks],
            config,
        }
    }

    /// Number of ranks.
    #[must_use]
    pub fn ranks(&self) -> usize {
        self.engines.len()
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.node_storage.len()
    }

    /// The node hosting `rank`.
    #[must_use]
    fn node_of(&self, rank: usize) -> usize {
        rank / self.config.procs_per_node
    }

    /// The partner node of `node` (next node, wrapping).
    #[must_use]
    fn partner_node(&self, node: usize) -> usize {
        (node + 1) % self.nodes()
    }

    /// The node hosting L3 parity shard `p`: shards are placed from the
    /// last node backwards so that losing low-numbered (data-heavy) nodes
    /// does not also take parity with it.
    #[must_use]
    fn parity_host(&self, p: usize) -> usize {
        self.nodes() - 1 - (p % self.nodes())
    }

    /// Mutable access to a rank's memory manager (for allocating and
    /// writing application regions).
    pub fn memory_mut(&mut self, rank: usize) -> &mut MemoryManager {
        &mut self.memories[rank]
    }

    /// Mutable access to a rank's engine (for `protect` calls).
    pub fn engine_mut(&mut self, rank: usize) -> &mut Fti {
        &mut self.engines[rank]
    }

    /// Shared access to a rank's engine.
    #[must_use]
    pub fn engine(&self, rank: usize) -> &Fti {
        &self.engines[rank]
    }

    /// Shared access to a rank's memory manager.
    #[must_use]
    pub fn memory(&self, rank: usize) -> &MemoryManager {
        &self.memories[rank]
    }

    /// Checkpoint every rank at `level` with `strategy`, all starting at
    /// `now`. Ranks on the same node contend for its NVMe; L4 ranks
    /// contend for the single PFS.
    ///
    /// # Errors
    ///
    /// Propagates engine errors; L3 requires more ranks than parity.
    pub fn checkpoint_all(
        &mut self,
        level: CheckpointLevel,
        strategy: Strategy,
        now: Seconds,
    ) -> Result<GroupCheckpointReport, FtiError> {
        let n = self.ranks();
        let mut reports = Vec::with_capacity(n);
        // Phase 1: every level starts with a local checkpoint.
        for rank in 0..n {
            let node = self.node_of(rank);
            let report = self.engines[rank].checkpoint(
                &mut self.memories[rank],
                &mut self.node_storage[node],
                level,
                strategy,
                now,
            )?;
            reports.push(report);
        }
        let local_done = reports
            .iter()
            .map(|r| r.finish)
            .fold(Seconds::ZERO, Seconds::max);

        // Phase 2: level-specific replication.
        let mut finish = local_done;
        match level {
            CheckpointLevel::L1 => {}
            CheckpointLevel::L2 => {
                let network = BytesPerSec(5.0e9); // compute network, 40 GbE
                for (rank, report) in reports.iter().enumerate() {
                    let ckpt = self.engines[rank]
                        .local_checkpoint()
                        .cloned()
                        .ok_or(FtiError::NoCheckpoint)?;
                    let host = self.partner_node(self.node_of(rank));
                    let xfer = ckpt.bytes.time_at(network);
                    let (_s, f) = self.partner_storage[host].write(
                        report.finish + xfer,
                        ckpt.bytes,
                        WriteMode::Streaming,
                    );
                    finish = finish.max(f);
                    self.l2_store[rank] = Some(ckpt);
                }
            }
            CheckpointLevel::L3 => {
                finish = finish.max(self.encode_l3(&reports)?);
            }
            CheckpointLevel::L4 => {
                for (rank, report) in reports.iter().enumerate() {
                    let ckpt = self.engines[rank]
                        .local_checkpoint()
                        .cloned()
                        .ok_or(FtiError::NoCheckpoint)?;
                    let (_s, f) = self
                        .pfs
                        .write(report.finish, ckpt.bytes, WriteMode::Streaming);
                    finish = finish.max(f);
                    self.l4_store[rank] = Some(ckpt);
                }
            }
        }
        Ok(GroupCheckpointReport {
            level,
            ranks: reports,
            wall: finish - now,
        })
    }

    /// Destroy a node: its ranks' local checkpoints, every L2 image it
    /// hosted for other ranks, and any L3 parity shard it held.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn fail_node(&mut self, node: usize) {
        assert!(node < self.nodes(), "node {node} out of range");
        self.node_alive[node] = false;
        self.node_storage[node].reset();
        self.partner_storage[node].reset();
        for rank in 0..self.ranks() {
            if self.node_of(rank) == node {
                self.engines[rank].drop_local_checkpoint();
            }
            // L2 image of `rank` is hosted on partner_node(node_of(rank)).
            if self.partner_node(self.node_of(rank)) == node {
                self.l2_store[rank] = None;
            }
        }
        let n_nodes = self.node_alive.len();
        for (p, shard) in self.l3_parity.iter_mut().enumerate() {
            if n_nodes - 1 - (p % n_nodes) == node {
                *shard = None;
            }
        }
    }

    /// Bring a failed node back (empty storage).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn restart_node(&mut self, node: usize) {
        assert!(node < self.nodes(), "node {node} out of range");
        self.node_alive[node] = true;
    }

    /// Recover every rank from the cheapest surviving level, restoring
    /// protected region contents where real data was checkpointed.
    ///
    /// # Errors
    ///
    /// [`FtiError::MissingCheckpoint`] when some rank has no surviving
    /// checkpoint at any level.
    pub fn recover_all(
        &mut self,
        strategy: Strategy,
        now: Seconds,
    ) -> Result<GroupRecoverReport, FtiError> {
        let n = self.ranks();
        // First pass: decide per-rank recovery level.
        let mut levels = Vec::with_capacity(n);
        for rank in 0..n {
            let level = if self.engines[rank].has_local_checkpoint() {
                CheckpointLevel::L1
            } else if self.l2_store[rank].is_some() {
                CheckpointLevel::L2
            } else if self.l3_available(rank) {
                CheckpointLevel::L3
            } else if self.l4_store[rank].is_some() {
                CheckpointLevel::L4
            } else {
                return Err(FtiError::MissingCheckpoint {
                    level: CheckpointLevel::L4,
                    rank,
                });
            };
            levels.push(level);
        }
        // Second pass: perform recoveries and accumulate timing.
        let mut finish = now;
        for (rank, &level) in levels.iter().enumerate() {
            let f = match level {
                CheckpointLevel::L1 => {
                    let node = self.node_of(rank);
                    let rep = self.engines[rank].recover(
                        &mut self.memories[rank],
                        &mut self.node_storage[node],
                        strategy,
                        now,
                    )?;
                    rep.finish
                }
                CheckpointLevel::L2 => {
                    let ckpt = self.l2_store[rank].clone().expect("checked");
                    let host = self.partner_node(self.node_of(rank));
                    let network = BytesPerSec(5.0e9);
                    let (_s, read_done) =
                        self.partner_storage[host].read(now, ckpt.bytes, WriteMode::Streaming);
                    let f = read_done + ckpt.bytes.time_at(network);
                    self.engines[rank].restore_blobs(&mut self.memories[rank], &ckpt)?;
                    self.engines[rank].install_checkpoint(ckpt);
                    f
                }
                CheckpointLevel::L3 => self.reconstruct_l3(rank, now)?,
                CheckpointLevel::L4 => {
                    let ckpt = self.l4_store[rank].clone().expect("checked");
                    let (_s, f) = self.pfs.read(now, ckpt.bytes, WriteMode::Streaming);
                    self.engines[rank].restore_blobs(&mut self.memories[rank], &ckpt)?;
                    self.engines[rank].install_checkpoint(ckpt);
                    f
                }
            };
            finish = finish.max(f);
        }
        Ok(GroupRecoverReport {
            levels,
            wall: finish - now,
        })
    }

    /// Whether rank `rank`'s image is reconstructible from the L3 code.
    fn l3_available(&self, rank: usize) -> bool {
        if self.l3_versions[rank] == 0 {
            return false;
        }
        let survivors = (0..self.ranks())
            .filter(|&r| self.engines[r].has_local_checkpoint() && self.l3_versions[r] > 0)
            .count()
            + self.l3_parity.iter().filter(|p| p.is_some()).count();
        survivors >= self.ranks()
    }

    /// Encode the L3 parity shards from every rank's serialized image.
    fn encode_l3(&mut self, reports: &[CheckpointReport]) -> Result<Seconds, FtiError> {
        let n = self.ranks();
        if n <= self.config.parity {
            return Err(FtiError::LayoutMismatch(format!(
                "L3 needs more ranks ({n}) than parity shards ({})",
                self.config.parity
            )));
        }
        let rs = ReedSolomon::new(n, self.config.parity)?;
        // Serialize each rank's image and pad to uniform shard length.
        let mut serialized: Vec<Vec<u8>> = (0..n)
            .map(|r| {
                self.engines[r]
                    .local_checkpoint()
                    .map(serialize_checkpoint)
                    .unwrap_or_default()
            })
            .collect();
        let max_len = serialized.iter().map(Vec::len).max().unwrap_or(0);
        for s in &mut serialized {
            s.resize(max_len, 0);
        }
        self.l3_shard_len = max_len;
        let parity = rs.encode(&serialized)?;
        for (p, shard) in parity.into_iter().enumerate() {
            self.l3_parity[p] = Some(shard);
        }
        for (r, v) in self.l3_versions.iter_mut().enumerate() {
            *v = self.engines[r].local_checkpoint().map_or(0, |c| c.version);
        }
        // Timing: encoding at RS bandwidth over each rank's image (ranks
        // encode their contribution concurrently), one network exchange of
        // the image, and parity writes on the hosting nodes.
        let per_rank_bytes = Bytes(max_len as u64);
        let encode = per_rank_bytes.time_at(RS_ENCODE_BW);
        let network = per_rank_bytes.time_at(BytesPerSec(5.0e9));
        let local_done = reports
            .iter()
            .map(|r| r.finish)
            .fold(Seconds::ZERO, Seconds::max);
        let mut finish = local_done + encode + network;
        for p in 0..self.config.parity {
            let node = self.parity_host(p);
            let (_s, f) = self.node_storage[node].write(
                local_done + encode + network,
                per_rank_bytes,
                WriteMode::Streaming,
            );
            finish = finish.max(f);
        }
        Ok(finish)
    }

    /// Rebuild rank `rank`'s image from surviving shards, restore it, and
    /// return the completion time.
    fn reconstruct_l3(&mut self, rank: usize, now: Seconds) -> Result<Seconds, FtiError> {
        let n = self.ranks();
        let rs = ReedSolomon::new(n, self.config.parity)?;
        let mut shards: Vec<Option<Vec<u8>>> = (0..n)
            .map(|r| {
                self.engines[r].local_checkpoint().map(|c| {
                    let mut s = serialize_checkpoint(c);
                    s.resize(self.l3_shard_len, 0);
                    s
                })
            })
            .collect();
        shards.extend(self.l3_parity.iter().cloned());
        rs.reconstruct(&mut shards)?;
        let bytes = shards[rank].as_ref().expect("reconstructed").clone();
        let ckpt = deserialize_checkpoint(&bytes, self.l3_versions[rank])?;
        self.engines[rank].restore_blobs(&mut self.memories[rank], &ckpt)?;
        self.engines[rank].install_checkpoint(ckpt);
        // Timing: fetch k surviving shards over the network (pipelined,
        // bounded by the slowest), decode at RS bandwidth, then push the
        // rebuilt image to the rank.
        let shard_bytes = Bytes(self.l3_shard_len as u64);
        let network = shard_bytes.time_at(BytesPerSec(5.0e9));
        let decode = (shard_bytes * n as u64).time_at(RS_ENCODE_BW);
        Ok(now + network * 2.0 + decode)
    }
}

/// Serialize a checkpoint's blobs: `[u32 id][u64 len][bytes…]*`.
fn serialize_checkpoint(c: &StoredCheckpoint) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend((c.blobs.len() as u32).to_le_bytes());
    for (id, bytes) in &c.blobs {
        out.extend(id.to_le_bytes());
        out.extend((bytes.len() as u64).to_le_bytes());
        out.extend(bytes.iter());
    }
    // Layout footer so phantom-only checkpoints round-trip too.
    out.extend((c.layout.len() as u32).to_le_bytes());
    for (id, size) in &c.layout {
        out.extend(id.to_le_bytes());
        out.extend(size.to_le_bytes());
    }
    out.extend(c.bytes.as_u64().to_le_bytes());
    out
}

/// Inverse of [`serialize_checkpoint`]; ignores zero padding.
fn deserialize_checkpoint(bytes: &[u8], version: u64) -> Result<StoredCheckpoint, FtiError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], FtiError> {
        let s = bytes
            .get(*pos..*pos + n)
            .ok_or_else(|| FtiError::LayoutMismatch("truncated shard".into()))?;
        *pos += n;
        Ok(s)
    };
    let n_blobs = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
    let mut blobs = Vec::with_capacity(n_blobs);
    for _ in 0..n_blobs {
        let id = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4"));
        let len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8")) as usize;
        blobs.push((id, take(&mut pos, len)?.to_vec()));
    }
    let n_layout = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4")) as usize;
    let mut layout = Vec::with_capacity(n_layout);
    for _ in 0..n_layout {
        let id = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4"));
        let size = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8"));
        layout.push((id, size));
    }
    let total = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8"));
    Ok(StoredCheckpoint {
        version,
        blobs,
        layout,
        bytes: Bytes(total),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use legato_hw::memory::AddrSpace;

    /// A group where every rank protects one real host region with
    /// distinctive content.
    fn real_group(ranks: usize) -> FtiGroup {
        let cfg = FtiConfig::builder().procs_per_node(2).parity(2).build();
        let mut g = FtiGroup::new(cfg, ranks);
        for r in 0..ranks {
            let h = g
                .memory_mut(r)
                .alloc(AddrSpace::Host, Bytes::kib(2))
                .unwrap();
            let pattern = vec![r as u8 + 1; 128];
            g.memory_mut(r).write(h, 0, &pattern).unwrap();
            let mm_snapshot = g.memory(r).clone();
            g.engine_mut(r).protect(0, h, &mm_snapshot).unwrap();
        }
        g
    }

    fn region_first_byte(g: &FtiGroup, rank: usize) -> u8 {
        // Handle 0 is the first allocation in each rank's manager.
        g.memory(rank)
            .data(legato_hw::memory::RegionHandle(0))
            .unwrap()[0]
    }

    fn clobber(g: &mut FtiGroup, rank: usize) {
        g.memory_mut(rank)
            .write(legato_hw::memory::RegionHandle(0), 0, &[0xEE; 128])
            .unwrap();
    }

    #[test]
    fn l1_round_trip() {
        let mut g = real_group(4);
        g.checkpoint_all(CheckpointLevel::L1, Strategy::Async, Seconds::ZERO)
            .unwrap();
        for r in 0..4 {
            clobber(&mut g, r);
        }
        let rec = g.recover_all(Strategy::Async, Seconds(100.0)).unwrap();
        assert!(rec.levels.iter().all(|&l| l == CheckpointLevel::L1));
        for r in 0..4 {
            assert_eq!(region_first_byte(&g, r), r as u8 + 1);
        }
    }

    #[test]
    fn node_contention_serializes_same_node_ranks() {
        let mut g = real_group(4); // 2 ranks per node, 2 nodes
        let rep = g
            .checkpoint_all(CheckpointLevel::L1, Strategy::Async, Seconds::ZERO)
            .unwrap();
        // Ranks 0 and 1 share node 0: the second starts when the first ends.
        assert_eq!(rep.ranks[1].start, rep.ranks[0].finish);
        // Ranks on different nodes start together.
        assert_eq!(rep.ranks[0].start, rep.ranks[2].start);
    }

    #[test]
    fn l2_survives_single_node_loss() {
        let mut g = real_group(4);
        g.checkpoint_all(CheckpointLevel::L2, Strategy::Async, Seconds::ZERO)
            .unwrap();
        g.fail_node(0); // kills L1 of ranks 0,1 and the L2 images hosted on node 0
        for r in 0..4 {
            clobber(&mut g, r);
        }
        g.restart_node(0);
        let rec = g.recover_all(Strategy::Async, Seconds(100.0)).unwrap();
        // Ranks 0,1 lived on node 0: their L2 copies are on node 1 → L2.
        assert_eq!(rec.levels[0], CheckpointLevel::L2);
        assert_eq!(rec.levels[1], CheckpointLevel::L2);
        // Ranks 2,3 keep their local images → L1.
        assert_eq!(rec.levels[2], CheckpointLevel::L1);
        for r in 0..4 {
            assert_eq!(region_first_byte(&g, r), r as u8 + 1, "rank {r}");
        }
    }

    #[test]
    fn l2_images_on_failed_partner_are_lost() {
        let mut g = real_group(4);
        g.checkpoint_all(CheckpointLevel::L2, Strategy::Async, Seconds::ZERO)
            .unwrap();
        // Node 1 hosts the L2 images of ranks 0,1 (partner of node 0).
        g.fail_node(1);
        // Ranks 2,3 lose their L1; their L2 images live on node 0 → fine.
        // But nothing was lost for ranks 0,1 (L1 intact).
        g.restart_node(1);
        let rec = g.recover_all(Strategy::Async, Seconds(50.0)).unwrap();
        assert_eq!(rec.levels[0], CheckpointLevel::L1);
        assert_eq!(rec.levels[2], CheckpointLevel::L2);
        assert_eq!(rec.levels[3], CheckpointLevel::L2);
    }

    #[test]
    fn l3_reconstructs_lost_node_with_real_data() {
        let mut g = real_group(6); // 3 nodes × 2 ranks, parity 2
        g.checkpoint_all(CheckpointLevel::L3, Strategy::Async, Seconds::ZERO)
            .unwrap();
        // Parity lives on nodes 2 and 1; failing node 0 loses exactly the
        // two data shards of ranks 0 and 1 — within the parity budget.
        g.fail_node(0);
        for r in 0..6 {
            clobber(&mut g, r);
        }
        g.restart_node(0);
        let rec = g.recover_all(Strategy::Async, Seconds(200.0)).unwrap();
        assert_eq!(rec.levels[0], CheckpointLevel::L3);
        assert_eq!(rec.levels[1], CheckpointLevel::L3);
        assert_eq!(rec.levels[4], CheckpointLevel::L1);
        for r in 0..6 {
            assert_eq!(region_first_byte(&g, r), r as u8 + 1, "rank {r}");
        }
    }

    #[test]
    fn l3_cannot_outlive_parity_budget() {
        let mut g = real_group(6); // parity 2, 2 ranks/node
        g.checkpoint_all(CheckpointLevel::L3, Strategy::Async, Seconds::ZERO)
            .unwrap();
        // Node 1 hosts parity shard 1 *and* two data shards: 3 losses > 2.
        g.fail_node(1);
        g.restart_node(1);
        assert!(matches!(
            g.recover_all(Strategy::Async, Seconds(10.0)),
            Err(FtiError::MissingCheckpoint { .. })
        ));
    }

    #[test]
    fn l4_survives_everything() {
        let mut g = real_group(4);
        g.checkpoint_all(CheckpointLevel::L4, Strategy::Async, Seconds::ZERO)
            .unwrap();
        g.fail_node(0);
        g.fail_node(1);
        for r in 0..4 {
            clobber(&mut g, r);
        }
        g.restart_node(0);
        g.restart_node(1);
        let rec = g.recover_all(Strategy::Async, Seconds(500.0)).unwrap();
        assert!(rec.levels.iter().all(|&l| l == CheckpointLevel::L4));
        for r in 0..4 {
            assert_eq!(region_first_byte(&g, r), r as u8 + 1);
        }
    }

    #[test]
    fn unrecoverable_when_only_l1_and_node_dies() {
        let mut g = real_group(4);
        g.checkpoint_all(CheckpointLevel::L1, Strategy::Async, Seconds::ZERO)
            .unwrap();
        g.fail_node(0);
        g.restart_node(0);
        assert!(matches!(
            g.recover_all(Strategy::Async, Seconds(10.0)),
            Err(FtiError::MissingCheckpoint { .. })
        ));
    }

    #[test]
    fn l3_needs_enough_ranks() {
        let cfg = FtiConfig::builder().procs_per_node(1).parity(2).build();
        let mut g = FtiGroup::new(cfg, 2);
        for r in 0..2 {
            g.engine_mut(r)
                .protect_phantom(0, AddrSpace::Host, Bytes::kib(1))
                .unwrap();
        }
        assert!(matches!(
            g.checkpoint_all(CheckpointLevel::L3, Strategy::Async, Seconds::ZERO),
            Err(FtiError::LayoutMismatch(_))
        ));
    }

    #[test]
    fn serialize_round_trip() {
        let c = StoredCheckpoint {
            version: 7,
            blobs: vec![(0, vec![1, 2, 3]), (5, vec![9; 100])],
            layout: vec![(0, 3), (5, 100)],
            bytes: Bytes(103),
        };
        let mut ser = serialize_checkpoint(&c);
        ser.resize(ser.len() + 64, 0); // simulate shard padding
        let back = deserialize_checkpoint(&ser, 7).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn phantom_group_wall_time_flat_in_nodes() {
        // The Fig. 6 headline: weak scaling keeps checkpoint time flat
        // because each node writes to its own NVMe.
        let wall = |nodes: usize| {
            let cfg = FtiConfig::default(); // 4 procs/node
            let mut g = FtiGroup::new(cfg, nodes * 4);
            for r in 0..nodes * 4 {
                g.engine_mut(r)
                    .protect_phantom(0, AddrSpace::Unified, Bytes::gib(2))
                    .unwrap();
            }
            g.checkpoint_all(CheckpointLevel::L1, Strategy::Async, Seconds::ZERO)
                .unwrap()
                .wall
        };
        let w1 = wall(1);
        let w4 = wall(4);
        let w8 = wall(8);
        assert!((w4.0 - w1.0).abs() / w1.0 < 0.02, "w1 {w1} vs w4 {w4}");
        assert!((w8.0 - w1.0).abs() / w1.0 < 0.02, "w1 {w1} vs w8 {w8}");
    }
}
