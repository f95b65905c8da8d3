//! Device-pool sharding: sub-linear placement over large device fleets.
//!
//! The engine's placement choke point evaluates the roofline model on
//! every device per task — exact, but O(D) with 1k+ devices dwarfs the
//! rest of the per-event work. This module partitions the fleet into
//! *pools* (RECS|BOX carriers, cluster nodes, or uniform chunks) — the
//! user-visible locality domains the topology cost model charges
//! transfers across — and internally splits each pool into *shards* of
//! identically-specced devices, turning placement into a
//! bound-and-prune search over shards:
//!
//! * each shard caches the minimum `busy_until` over its members,
//!   invalidated only when a member's timeline changes
//!   (`DevicePools::mark_dirty`) and recomputed lazily;
//! * a shard's members share one spec class, so the runtime's class
//!   table (`SpecClasses`) already holds their common duration and
//!   busy power for the task being placed; with the cached availability
//!   minimum that gives a **lower bound** on any member's score under
//!   the active [`Policy`] which is the score of the shard's least-busy
//!   member — it is *exact*, which is what makes the pruning bite: a
//!   mixed pool bounded as a whole combines its idlest device with its
//!   fastest device into a score nothing in the pool can achieve, and
//!   such a bound almost never exceeds the incumbent;
//! * shards are visited in ascending bound order and fully evaluated
//!   with the *identical* per-device arithmetic the flat path uses;
//!   once `k` candidates are held and the next shard's bound is
//!   **strictly** worse than the current k-th best score, every
//!   remaining device is strictly worse than the k-th final score and
//!   the scan stops.
//!
//! Because pruning only skips devices that are *strictly* worse than
//! the k-th selected score, and ties among evaluated devices break
//! toward the lowest device index — exactly the flat
//! [`select_k`](crate::scheduler::Scheduler::select_k) tie-break — the
//! selected set, order and committed plans are bit-identical to the
//! flat O(D) scan (proptest-pinned in `tests/pool_equivalence.rs`).
//!
//! The pooled path covers every [`Policy`], including
//! [`Policy::Weighted`]: the global min-max normalization a weighted
//! score needs is derived **exactly** in O(shards) rather than O(D) —
//! a shard's members share one spec, so their durations and energies
//! coincide and only the queue delay varies, which means the shard's
//! extreme finish times are `ready.max(min_busy) + dur` and
//! `ready.max(max_busy) + dur` over its cached busy horizons. Folding
//! those per-shard extremes reproduces, bit for bit, the
//! [`ScoreNorm::from_estimates`] context the flat scan would have
//! computed from all candidates (f64 min/max folds are
//! order-independent). The engine falls back to the flat scan only
//! when a security plan excludes devices per task or a Pareto energy
//! objective replaces the scoring.
//!
//! The same pool structure carries the **topology cost model**
//! ([`TopologyConfig`]): the engine's region table records the device
//! that produced each region, and a consumer placed outside that
//! device's pool is charged
//! the link's transfer time for the region — folded into the estimate
//! *before* scoring on both the pooled and the flat path, so locality
//! becomes a scheduling dimension like any other.

use std::collections::HashMap;

use legato_core::task::{AccessMode, RegionId};
use legato_core::units::{Bytes, Seconds};
use legato_hw::cluster::NodeSpec;
use legato_hw::comm::LinkModel;
use legato_hw::device::{Device, DeviceSpec};
use legato_hw::recs::RecsBox;

use crate::classes::SpecClasses;
use crate::error::RuntimeError;
use crate::regions::RegionTable;
use crate::replication::MAX_REPLICAS;
use crate::scheduler::{Estimate, Plan, Policy, Scheduler, ScoreNorm, TopK};

/// How the device fleet is partitioned into pools.
///
/// Build one from chassis or cluster structure
/// ([`PoolConfig::from_recs`], [`PoolConfig::from_nodes`]), from an
/// explicit membership list ([`PoolConfig::from_membership`]), or by
/// uniform chunking ([`PoolConfig::uniform`]), and hand it to
/// [`EngineConfig::with_pools`](crate::config::EngineConfig::with_pools).
/// Every device must belong to exactly one pool; membership is
/// validated when the runtime is built.
#[derive(Debug, Clone, Default)]
#[must_use = "builder-style configs do nothing unless passed to EngineConfig"]
pub struct PoolConfig {
    pools: Vec<Vec<usize>>,
}

impl PoolConfig {
    /// An explicit partition: `pools[p]` lists the device indices of
    /// pool `p`. Empty pools are dropped.
    pub fn from_membership(pools: Vec<Vec<usize>>) -> Self {
        PoolConfig { pools }
    }

    /// Partition `device_count` devices into consecutive chunks of (at
    /// most) `pool_size` — the structure-free fallback when the fleet
    /// has no chassis or node grouping. A zero `pool_size` yields a
    /// single pool.
    pub fn uniform(device_count: usize, pool_size: usize) -> Self {
        let size = pool_size.max(1).min(device_count.max(1));
        let pools = (0..device_count)
            .collect::<Vec<_>>()
            .chunks(size)
            .map(<[usize]>::to_vec)
            .collect();
        PoolConfig { pools }
    }

    /// One pool per cluster node: returns the flattened device specs
    /// (node order, then the node's device order) and the matching
    /// partition, ready for
    /// [`EngineConfig::with_devices`](crate::config::EngineConfig::with_devices).
    pub fn from_nodes(nodes: &[NodeSpec]) -> (Vec<DeviceSpec>, PoolConfig) {
        let mut specs = Vec::new();
        let mut pools = Vec::with_capacity(nodes.len());
        for node in nodes {
            let start = specs.len();
            specs.extend(node.devices.iter().cloned());
            pools.push((start..specs.len()).collect());
        }
        (specs, PoolConfig { pools })
    }

    /// One pool per RECS|BOX carrier: returns the flattened device
    /// specs (carrier order, then slot order) and the matching
    /// partition. Devices on one carrier share the chassis backplane,
    /// which is exactly the locality boundary the topology cost model
    /// charges transfers across.
    pub fn from_recs(chassis: &RecsBox) -> (Vec<DeviceSpec>, PoolConfig) {
        let mut specs = Vec::new();
        let mut pools = Vec::with_capacity(chassis.carriers.len());
        for carrier in &chassis.carriers {
            let start = specs.len();
            specs.extend(carrier.microservers().iter().map(|m| m.device.clone()));
            pools.push((start..specs.len()).collect());
        }
        (specs, PoolConfig { pools })
    }

    /// Number of (declared, possibly empty) pools.
    #[must_use]
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }
}

/// Runtime state of the sharded placement layer: pool membership (for
/// the topology charges), the homogeneous shards each pool splits
/// into, and the lazily maintained per-shard availability extrema.
/// Everything spec-derived is read from the runtime's [`SpecClasses`].
#[derive(Debug, Clone)]
pub(crate) struct DevicePools {
    /// Pool index of each device (the user-visible partition).
    pool_of: Vec<usize>,
    /// Number of (non-empty) pools.
    pool_count: usize,
    /// Shard index of each device.
    shard_of: Vec<usize>,
    /// Member device indices per shard, ascending. All members of a
    /// shard carry an identical [`DeviceSpec`], which makes the shard's
    /// score bound exact (see the module docs).
    members: Vec<Vec<usize>>,
    /// Pool each shard belongs to (indexes the topology extras).
    shard_pool: Vec<usize>,
    /// Spec class ([`SpecClasses`]) of each shard — usually far fewer
    /// classes than shards (a 1k fleet cycling four reference specs has
    /// four classes and hundreds of shards).
    class_of: Vec<usize>,
    /// Whether a member's `busy_until` changed since `min_busy[s]` was
    /// computed.
    dirty: Vec<bool>,
    /// Cached `min(busy_until)` over the shard's members.
    min_busy: Vec<Seconds>,
    /// Cached `max(busy_until)` over the shard's members — the other
    /// extreme of the shard's finish-time range, which is all a
    /// homogeneous shard contributes to the global min-max
    /// normalization scale-dependent policies (`Weighted`) score under.
    max_busy: Vec<Seconds>,
    /// Scratch: per-shard score lower bound.
    lbs: Vec<f64>,
}

impl DevicePools {
    /// Validate `config` against the classified fleet and split every
    /// pool into one shard per spec class.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidParameter`] when the membership is not an
    /// exact partition of the device indices.
    pub(crate) fn new(config: PoolConfig, classes: &SpecClasses) -> Result<Self, RuntimeError> {
        let device_count = classes.class_of_slice().len();
        let mut pools: Vec<Vec<usize>> =
            config.pools.into_iter().filter(|p| !p.is_empty()).collect();
        if pools.is_empty() {
            return Err(RuntimeError::invalid_parameter(
                "pools",
                "at least one non-empty pool is required",
            ));
        }
        let mut pool_of = vec![usize::MAX; device_count];
        for (p, pool) in pools.iter_mut().enumerate() {
            pool.sort_unstable();
            for &d in pool.iter() {
                if d >= device_count {
                    return Err(RuntimeError::invalid_parameter(
                        "pools",
                        format!("device {d} out of range ({device_count} devices)"),
                    ));
                }
                if pool_of[d] != usize::MAX {
                    return Err(RuntimeError::invalid_parameter(
                        "pools",
                        format!("device {d} appears in more than one pool"),
                    ));
                }
                pool_of[d] = p;
            }
        }
        if let Some(d) = pool_of.iter().position(|&p| p == usize::MAX) {
            return Err(RuntimeError::invalid_parameter(
                "pools",
                format!("device {d} belongs to no pool"),
            ));
        }
        // One shard per (pool, class). Shard members stay ascending
        // because each pool was sorted above and devices append in
        // order.
        let pool_count = pools.len();
        let mut members: Vec<Vec<usize>> = Vec::new();
        let mut shard_pool: Vec<usize> = Vec::new();
        let mut class_of: Vec<usize> = Vec::new();
        let mut shard_of = vec![0usize; device_count];
        for (p, pool) in pools.iter().enumerate() {
            let first = members.len();
            for &d in pool {
                let class = classes.class_of(d);
                let s = (first..members.len())
                    .find(|&s| class_of[s] == class)
                    .unwrap_or_else(|| {
                        members.push(Vec::new());
                        shard_pool.push(p);
                        class_of.push(class);
                        members.len() - 1
                    });
                members[s].push(d);
                shard_of[d] = s;
            }
        }
        let n = members.len();
        Ok(DevicePools {
            pool_of,
            pool_count,
            shard_of,
            shard_pool,
            class_of,
            dirty: vec![true; n],
            min_busy: vec![Seconds::ZERO; n],
            max_busy: vec![Seconds::ZERO; n],
            lbs: vec![0.0; n],
            members,
        })
    }

    /// The pool device `d` belongs to.
    pub(crate) fn pool_of(&self, d: usize) -> usize {
        self.pool_of[d]
    }

    /// Pool membership of every device, indexed by device.
    pub(crate) fn pool_of_slice(&self) -> &[usize] {
        &self.pool_of
    }

    /// Number of pools.
    pub(crate) fn pool_count(&self) -> usize {
        self.pool_count
    }

    /// Device `d`'s timeline changed: its shard's cached availability
    /// minimum is stale.
    pub(crate) fn mark_dirty(&mut self, d: usize) {
        self.dirty[self.shard_of[d]] = true;
    }

    /// Grow the structures for an arriving device `d` (the next index)
    /// of spec class `class`: join the same-class shard of `pool` or
    /// open a new one, and dirty the shard's cached availability
    /// extrema. `pool` wraps modulo the pool count, so round-robin
    /// callers need no bounds handling.
    pub(crate) fn add_device(&mut self, d: usize, class: usize, pool: usize) {
        debug_assert_eq!(d, self.pool_of.len(), "arrivals append at the end");
        let p = pool % self.pool_count;
        self.pool_of.push(p);
        // Members stay ascending: the new device's index exceeds every
        // existing one.
        let s = (0..self.members.len())
            .find(|&s| self.shard_pool[s] == p && self.class_of[s] == class)
            .unwrap_or_else(|| {
                self.members.push(Vec::new());
                self.shard_pool.push(p);
                self.class_of.push(class);
                self.dirty.push(true);
                self.min_busy.push(Seconds::ZERO);
                self.max_busy.push(Seconds::ZERO);
                self.lbs.push(0.0);
                self.members.len() - 1
            });
        self.members[s].push(d);
        self.shard_of.push(s);
        self.dirty[s] = true;
    }

    /// Remove a departed device from its shard. The shard itself stays
    /// (possibly empty — its refreshed availability minimum folds to
    /// infinity, so the bound self-prunes), which keeps every stored
    /// shard index valid.
    pub(crate) fn remove_device(&mut self, d: usize) {
        let s = self.shard_of[d];
        self.members[s].retain(|&m| m != d);
        self.dirty[s] = true;
    }

    /// Pooled top-k placement: bit-identical selection and plans to the
    /// flat scan (`Policy::plan_k_devices` with no security plan and no
    /// energy objective), visiting shards in ascending bound order and
    /// pruning those whose bound is strictly worse than the k-th best
    /// score found so far.
    ///
    /// `extras` carries the per-pool topology charge for the task (or
    /// `None` when the topology model is off). Fills `out` with
    /// `(device index, start, duration)` triples in selection order;
    /// returns `(filled, devices evaluated)` — the second component is
    /// the sub-linearity observable the scaling guard test pins.
    ///
    /// `classes` must hold the task's per-class durations
    /// ([`SpecClasses::price`]).
    pub(crate) fn plan_k(
        &mut self,
        policy: Policy,
        devices: &[Device],
        classes: &SpecClasses,
        ready_at: Seconds,
        extras: Option<&[Seconds]>,
        out: &mut [Plan],
    ) -> (usize, u64) {
        let want = out.len().min(devices.len()).min(MAX_REPLICAS);
        if want == 0 {
            return (0, 0);
        }
        let n = self.members.len();
        // Refresh stale availability extrema (O(shard) per dirty shard).
        for s in 0..n {
            if self.dirty[s] {
                self.min_busy[s] = self.members[s]
                    .iter()
                    .map(|&d| devices[d].busy_until())
                    .fold(Seconds(f64::INFINITY), Seconds::min);
                self.max_busy[s] = self.members[s]
                    .iter()
                    .map(|&d| devices[d].busy_until())
                    .fold(Seconds(f64::NEG_INFINITY), Seconds::max);
                self.dirty[s] = false;
            }
        }
        // What every member of shard `s` shares: the class's duration
        // plus the pool-uniform topology extra, and the energy of that
        // — the flat scan's per-device arithmetic, once per shard.
        let (shard_pool, class_of) = (&self.shard_pool, &self.class_of);
        let shared = |s: usize| {
            let extra = extras.map_or(Seconds::ZERO, |e| e[shard_pool[s]]);
            let (dur, power) = classes.price_of(class_of[s]);
            let dur = dur + extra;
            (dur, power * dur)
        };
        // Scale-dependent policies (`Weighted`) score under the min-max
        // normalization of the full candidate set. Each shard is
        // spec-homogeneous: every member shares one duration and one
        // energy, so the shard's candidates span exactly
        // [ready.max(min_busy)+dur, ready.max(max_busy)+dur] in time and
        // a single point in energy. Folding those per-shard extremes
        // over the non-empty shards is bit-identical to the flat path's
        // fold over per-device estimates (f64 min/max folds are
        // order-independent, and empty shards contribute no flat
        // candidate either).
        let norm = if policy.needs_norm() {
            let (mut t_lo, mut t_hi) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut e_lo, mut e_hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for s in 0..n {
                if self.members[s].is_empty() {
                    continue;
                }
                let (dur, energy) = shared(s);
                t_lo = t_lo.min((ready_at.max(self.min_busy[s]) + dur).0);
                t_hi = t_hi.max((ready_at.max(self.max_busy[s]) + dur).0);
                e_lo = e_lo.min(energy.0);
                e_hi = e_hi.max(energy.0);
            }
            ScoreNorm::from_bounds(t_lo, t_hi, e_lo, e_hi)
        } else {
            ScoreNorm::IDENTITY
        };
        // Score bound per shard — exactly the score of the shard's
        // least-busy member (one spec per shard; the topology extra is
        // pool-uniform). Track the best-bounded shard to seed the scan:
        // evaluating it first makes the incumbent k-th score final-tight
        // immediately, so the remaining shards need no sorting — any
        // visit order prunes the same set, because selection by
        // (score, device index) is a total order and only strictly
        // worse bounds are skipped.
        let mut seed = 0usize;
        for s in 0..n {
            let (dur, energy) = shared(s);
            let est = Estimate::new(ready_at.max(self.min_busy[s]) + dur, energy);
            // Under `norm` the bound stays exact: normalization is
            // monotone non-decreasing in each dimension and the shard's
            // energy is a single point, so the least-busy member still
            // realizes the shard's minimum score.
            self.lbs[s] = policy.score(&est, &norm);
            if self.lbs[s] < self.lbs[seed] {
                seed = s;
            }
        }

        // Top-k by (score, device index) — the order the flat scan's
        // selection produces; shards arrive out of index order, which
        // the accumulator's index tie-break absorbs.
        let mut best = TopK::new(want);
        let mut evaluated = 0u64;
        for s in std::iter::once(seed).chain((0..n).filter(|&s| s != seed)) {
            // Strict inequality: a shard whose bound *ties* the k-th
            // score may still hold the tie-break winner, so it is
            // evaluated; only strictly-worse shards are pruned, which
            // is what makes the selection exact.
            if best.bar().is_some_and(|bar| self.lbs[s] > bar) {
                continue;
            }
            let (dur, energy) = shared(s);
            for &d in &self.members[s] {
                // Identical per-device arithmetic to the flat path.
                let start = ready_at.max(devices[d].busy_until());
                let score = policy.score(&Estimate::new(start + dur, energy), &norm);
                evaluated += 1;
                best.offer(score, (d, start, dur));
            }
        }
        (best.write(out), evaluated)
    }
}

/// Topology cost model: producer→consumer transfer charges across pool
/// boundaries.
///
/// Requires a [`PoolConfig`] on the same
/// [`EngineConfig`](crate::config::EngineConfig) — pools define the
/// locality domains transfers are charged across. When a task reads a
/// region last produced in another pool, the link's transfer time for
/// the region's declared size is added to the task's estimated duration
/// on every device *outside* the producer pool, before scoring. A region
/// no task has written yet (or a zero-size one) charges nothing, and
/// scheduling is bit-identical to a topology-free runtime. The producer
/// is the one whose outcome stands: a checkpoint rollback that discards
/// a writer discards where it left the region too.
#[derive(Debug, Clone)]
#[must_use = "builder-style configs do nothing unless passed to EngineConfig"]
pub struct TopologyConfig {
    pub(crate) link: LinkModel,
    pub(crate) region_sizes: HashMap<RegionId, Bytes>,
    pub(crate) default_region_size: Bytes,
}

impl TopologyConfig {
    /// A topology model over `link` (e.g.
    /// [`LinkModel::compute_network`]) with no declared region sizes:
    /// transfers are free until sizes are declared.
    pub fn new(link: LinkModel) -> Self {
        TopologyConfig {
            link,
            region_sizes: HashMap::new(),
            default_region_size: Bytes::ZERO,
        }
    }

    /// Declared size of one region (overrides the default).
    pub fn with_region_size(mut self, region: impl Into<RegionId>, bytes: Bytes) -> Self {
        self.region_sizes.insert(region.into(), bytes);
        self
    }

    /// Size assumed for regions without a declared size (default zero:
    /// undeclared regions transfer for free).
    pub fn with_default_region_size(mut self, bytes: Bytes) -> Self {
        self.default_region_size = bytes;
        self
    }

    /// Fill `pool_extras` for a task about to be placed: each region the
    /// task reads whose producer is recorded in `regions` charges the
    /// link transfer time to every pool but the producer device's.
    /// O(pools × read accesses).
    pub(crate) fn charge_into(
        &self,
        regions: &RegionTable,
        pools: &DevicePools,
        accesses: &[(RegionId, AccessMode)],
        pool_extras: &mut Vec<Seconds>,
    ) {
        pool_extras.clear();
        pool_extras.resize(pools.pool_count(), Seconds::ZERO);
        for &(region, mode) in accesses {
            if !mode.reads() {
                continue;
            }
            let Some(producer) = regions.get(region) else {
                continue;
            };
            let bytes = self
                .region_sizes
                .get(&region)
                .copied()
                .unwrap_or(self.default_region_size);
            let t = self.link.transfer_time(bytes);
            if t <= Seconds::ZERO {
                continue;
            }
            let local = pools.pool_of(producer.device);
            for (p, extra) in pool_extras.iter_mut().enumerate() {
                if p != local {
                    *extra += t;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legato_core::requirements::SecurityLevel;
    use legato_core::task::{TaskKind, Work};
    use legato_core::units::BytesPerSec;
    use legato_hw::device::DeviceId;

    fn fleet(n: usize) -> Vec<Device> {
        let specs = [
            DeviceSpec::xeon_x86(),
            DeviceSpec::gtx1080(),
            DeviceSpec::fpga_kintex(),
            DeviceSpec::arm64(),
        ];
        (0..n)
            .map(|i| Device::new(DeviceId(i as u64), specs[i % specs.len()].clone()))
            .collect()
    }

    fn pools_over(config: PoolConfig, devices: &[Device]) -> Result<DevicePools, RuntimeError> {
        DevicePools::new(config, &SpecClasses::new(devices))
    }

    /// The class table of `devices`, priced for one task.
    fn priced(devices: &[Device], work: Work, kind: TaskKind) -> SpecClasses {
        let mut classes = SpecClasses::new(devices);
        classes.price(devices, work, kind);
        classes
    }

    #[allow(clippy::too_many_arguments)]
    fn pooled_plan(
        pools: &mut DevicePools,
        policy: Policy,
        devices: &[Device],
        work: Work,
        kind: TaskKind,
        ready_at: Seconds,
        extras: Option<&[Seconds]>,
        out: &mut [(usize, Seconds, Seconds)],
    ) -> (usize, u64) {
        let classes = priced(devices, work, kind);
        pools.plan_k(policy, devices, &classes, ready_at, extras, out)
    }

    fn flat_plan(
        policy: Policy,
        devices: &[Device],
        work: Work,
        kind: TaskKind,
        ready_at: Seconds,
        k: usize,
    ) -> Vec<(usize, Seconds, Seconds)> {
        let mut estimates = Vec::new();
        let mut candidates = Vec::new();
        let mut out = [(0usize, Seconds::ZERO, Seconds::ZERO); MAX_REPLICAS];
        let (filled, _) = policy.plan_k_devices(
            devices,
            &priced(devices, work, kind),
            ready_at,
            None,
            None,
            None,
            None,
            &mut estimates,
            &mut candidates,
            &mut out[..k],
        );
        out[..filled].to_vec()
    }

    #[test]
    fn uniform_partition_covers_every_device() {
        let devices = fleet(10);
        let pools = pools_over(PoolConfig::uniform(10, 4), &devices).expect("valid");
        assert_eq!(pools.pool_count(), 3); // 4 + 4 + 2
        let mut seen = [false; 10];
        for (s, shard) in pools.members.iter().enumerate() {
            for &d in shard {
                assert!(!seen[d]);
                seen[d] = true;
                assert_eq!(pools.pool_of(d), pools.shard_pool[s]);
                assert_eq!(pools.shard_of[d], s);
                assert_eq!(
                    devices[d].spec, devices[shard[0]].spec,
                    "shards are spec-homogeneous"
                );
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn invalid_memberships_are_rejected() {
        let devices = fleet(4);
        for (pools, what) in [
            (vec![vec![0, 1], vec![2]], "missing device"),
            (vec![vec![0, 1, 2, 3, 9]], "out of range"),
            (vec![vec![0, 1, 2], vec![2, 3]], "duplicate"),
            (vec![], "empty"),
        ] {
            let err = pools_over(PoolConfig::from_membership(pools), &devices);
            assert!(err.is_err(), "{what} must be rejected");
        }
    }

    #[test]
    fn pooled_matches_flat_on_fresh_fleet() {
        let devices = fleet(16);
        let mut pools = pools_over(PoolConfig::uniform(16, 4), &devices).expect("valid");
        for policy in [
            Policy::Performance,
            Policy::Energy,
            Policy::Edp,
            Policy::Weighted(0.3),
        ] {
            for k in 1..=3usize {
                let mut out = [(0usize, Seconds::ZERO, Seconds::ZERO); MAX_REPLICAS];
                let (filled, _) = pooled_plan(
                    &mut pools,
                    policy,
                    &devices,
                    Work::flops(66e9),
                    TaskKind::Inference,
                    Seconds::ZERO,
                    None,
                    &mut out[..k],
                );
                let flat = flat_plan(
                    policy,
                    &devices,
                    Work::flops(66e9),
                    TaskKind::Inference,
                    Seconds::ZERO,
                    k,
                );
                assert_eq!(filled, flat.len(), "{policy:?} k={k}");
                assert_eq!(&out[..filled], flat.as_slice(), "{policy:?} k={k}");
            }
        }
    }

    #[test]
    fn pooled_matches_flat_with_busy_devices() {
        let mut devices = fleet(12);
        // Stagger availability so tie-breaks and start times matter.
        for (i, d) in devices.iter_mut().enumerate() {
            if i % 3 != 0 {
                d.execute(
                    Seconds::ZERO,
                    Work::flops(1e12 * (1.0 + i as f64)),
                    TaskKind::Compute,
                );
            }
        }
        let mut pools = pools_over(PoolConfig::uniform(12, 3), &devices).expect("valid");
        for policy in [
            Policy::Performance,
            Policy::Energy,
            Policy::Edp,
            Policy::Weighted(0.7),
        ] {
            let mut out = [(0usize, Seconds::ZERO, Seconds::ZERO); MAX_REPLICAS];
            let (filled, _) = pooled_plan(
                &mut pools,
                policy,
                &devices,
                Work::new(2e12, Bytes::gib(1)),
                TaskKind::Compute,
                Seconds(0.5),
                None,
                &mut out,
            );
            let flat = flat_plan(
                policy,
                &devices,
                Work::new(2e12, Bytes::gib(1)),
                TaskKind::Compute,
                Seconds(0.5),
                MAX_REPLICAS,
            );
            assert_eq!(filled, flat.len(), "{policy:?}");
            assert_eq!(&out[..filled], flat.as_slice(), "{policy:?}");
        }
    }

    #[test]
    fn identical_devices_tie_break_toward_lowest_index() {
        let devices: Vec<Device> = (0..8)
            .map(|i| Device::new(DeviceId(i), DeviceSpec::arm64()))
            .collect();
        let mut pools = pools_over(PoolConfig::uniform(8, 2), &devices).expect("valid");
        let mut out = [(0usize, Seconds::ZERO, Seconds::ZERO); MAX_REPLICAS];
        let (filled, _) = pooled_plan(
            &mut pools,
            Policy::Performance,
            &devices,
            Work::flops(1e9),
            TaskKind::Compute,
            Seconds::ZERO,
            None,
            &mut out,
        );
        assert_eq!(filled, 3);
        assert_eq!([out[0].0, out[1].0, out[2].0], [0, 1, 2]);
    }

    #[test]
    fn weighted_matches_flat_across_weights() {
        // The weighted score reads the global min-max normalization; the
        // pooled path reconstructs it from per-shard busy extrema. Every
        // weight must reproduce the flat scan's selection bit for bit,
        // busy timelines included.
        let mut devices = fleet(12);
        for (i, d) in devices.iter_mut().enumerate() {
            if i % 2 == 0 {
                d.execute(
                    Seconds::ZERO,
                    Work::flops(1e12 * (1.0 + i as f64)),
                    TaskKind::Compute,
                );
            }
        }
        let mut pools = pools_over(PoolConfig::uniform(12, 4), &devices).expect("valid");
        for w in [0.0, 0.25, 0.5, 0.75, 1.0] {
            for k in 1..=3usize {
                let mut out = [(0usize, Seconds::ZERO, Seconds::ZERO); MAX_REPLICAS];
                let (filled, _) = pooled_plan(
                    &mut pools,
                    Policy::Weighted(w),
                    &devices,
                    Work::new(3e12, Bytes::mib(512)),
                    TaskKind::Compute,
                    Seconds(1.0),
                    None,
                    &mut out[..k],
                );
                let flat = flat_plan(
                    Policy::Weighted(w),
                    &devices,
                    Work::new(3e12, Bytes::mib(512)),
                    TaskKind::Compute,
                    Seconds(1.0),
                    k,
                );
                assert_eq!(filled, flat.len(), "w={w} k={k}");
                assert_eq!(&out[..filled], flat.as_slice(), "w={w} k={k}");
            }
        }
    }

    #[test]
    fn weighted_pruning_skips_strictly_worse_pools() {
        // A time-leaning weighted run over one fast pool and many slow
        // pools: the normalized ARM bounds stay strictly worse than the
        // two GPU scores, so everything but the fast pool is pruned —
        // Weighted no longer pays the flat O(fleet) scan.
        let mut specs = vec![DeviceSpec::gtx1080(), DeviceSpec::gtx1080()];
        for _ in 0..31 {
            specs.push(DeviceSpec::arm64());
            specs.push(DeviceSpec::arm64());
        }
        let devices: Vec<Device> = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| Device::new(DeviceId(i as u64), s))
            .collect();
        let mut pools = pools_over(PoolConfig::uniform(devices.len(), 2), &devices).expect("valid");
        let mut out = [(0usize, Seconds::ZERO, Seconds::ZERO); 2];
        let (filled, evaluated) = pooled_plan(
            &mut pools,
            Policy::Weighted(0.0),
            &devices,
            Work::flops(1e12),
            TaskKind::Inference,
            Seconds::ZERO,
            None,
            &mut out,
        );
        assert_eq!(filled, 2);
        assert_eq!([out[0].0, out[1].0], [0, 1]);
        assert!(
            evaluated < devices.len() as u64 / 2,
            "weighted pooled search must prune: evaluated {evaluated} of {}",
            devices.len()
        );
    }

    #[test]
    fn pruning_skips_strictly_worse_pools() {
        // One fast pool, many identical slow pools: once k candidates
        // from the fast pool are held, the slow pools' bounds are
        // strictly worse and must be pruned.
        let mut specs = vec![DeviceSpec::gtx1080(), DeviceSpec::gtx1080()];
        for _ in 0..31 {
            specs.push(DeviceSpec::arm64());
            specs.push(DeviceSpec::arm64());
        }
        let devices: Vec<Device> = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| Device::new(DeviceId(i as u64), s))
            .collect();
        let mut pools = pools_over(PoolConfig::uniform(devices.len(), 2), &devices).expect("valid");
        let mut out = [(0usize, Seconds::ZERO, Seconds::ZERO); 2];
        let (filled, evaluated) = pooled_plan(
            &mut pools,
            Policy::Performance,
            &devices,
            Work::flops(1e12),
            TaskKind::Inference,
            Seconds::ZERO,
            None,
            &mut out,
        );
        assert_eq!(filled, 2);
        assert_eq!([out[0].0, out[1].0], [0, 1]);
        assert_eq!(evaluated, 2, "only the fast pool may be evaluated");
    }

    #[test]
    fn mixed_pools_prune_via_homogeneous_shards() {
        // Pools mixing a fast GPU with a slow ARM: bounding each pool
        // as a whole would pair the idlest member's availability with
        // the fastest member's rate into a score nothing in the pool
        // can achieve, and never prune. The per-spec shards keep the
        // bound exact, so on a compute task only the GPU shards (which
        // all tie at idle) are evaluated and every ARM is skipped.
        let mut specs = Vec::new();
        for _ in 0..8 {
            specs.push(DeviceSpec::gtx1080());
            specs.push(DeviceSpec::arm64());
        }
        let devices: Vec<Device> = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| Device::new(DeviceId(i as u64), s))
            .collect();
        let mut pools = pools_over(PoolConfig::uniform(devices.len(), 2), &devices).expect("valid");
        let mut out = [(0usize, Seconds::ZERO, Seconds::ZERO); 1];
        let (filled, evaluated) = pooled_plan(
            &mut pools,
            Policy::Performance,
            &devices,
            Work::flops(1e12),
            TaskKind::Compute,
            Seconds::ZERO,
            None,
            &mut out,
        );
        assert_eq!(filled, 1);
        assert_eq!(out[0].0, 0);
        assert_eq!(evaluated, 8, "GPU shards only; every ARM is pruned");
    }

    #[test]
    fn dirty_pool_refresh_tracks_executions() {
        let mut devices = fleet(8);
        let mut pools = pools_over(PoolConfig::uniform(8, 4), &devices).expect("valid");
        let mut out = [(0usize, Seconds::ZERO, Seconds::ZERO); 1];
        let (_, _) = pooled_plan(
            &mut pools,
            Policy::Performance,
            &devices,
            Work::flops(1e9),
            TaskKind::Compute,
            Seconds::ZERO,
            None,
            &mut out,
        );
        // Busy every device in pool 0, mark them dirty, and check the
        // pooled result still matches flat.
        for (d, dev) in devices.iter_mut().enumerate().take(4) {
            dev.execute(Seconds::ZERO, Work::flops(5e13), TaskKind::Compute);
            pools.mark_dirty(d);
        }
        let (filled, _) = pooled_plan(
            &mut pools,
            Policy::Performance,
            &devices,
            Work::flops(1e9),
            TaskKind::Compute,
            Seconds::ZERO,
            None,
            &mut out,
        );
        let flat = flat_plan(
            Policy::Performance,
            &devices,
            Work::flops(1e9),
            TaskKind::Compute,
            Seconds::ZERO,
            1,
        );
        assert_eq!(filled, 1);
        assert_eq!(&out[..1], flat.as_slice());
        assert!(flat[0].0 >= 4, "pool 0 is saturated");
    }

    #[test]
    fn from_nodes_builds_matching_partition() {
        let nodes = [
            NodeSpec::gpu_node("g0"),
            NodeSpec::fpga_node("f0"),
            NodeSpec::low_power_arm("a0"),
        ];
        let (specs, cfg) = PoolConfig::from_nodes(&nodes);
        assert_eq!(specs.len(), 5); // 2 + 2 + 1
        assert_eq!(cfg.pool_count(), 3);
        let devices: Vec<Device> = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| Device::new(DeviceId(i as u64), s))
            .collect();
        let pools = pools_over(cfg, &devices).expect("valid");
        assert_eq!(pools.pool_of(0), 0);
        assert_eq!(pools.pool_of(1), 0);
        assert_eq!(pools.pool_of(2), 1);
        assert_eq!(pools.pool_of(4), 2);
    }

    #[test]
    fn from_recs_builds_matching_partition() {
        let chassis = RecsBox::builder("box")
            .high_performance_carrier(vec![DeviceSpec::xeon_x86(), DeviceSpec::gtx1080()])
            .low_power_carrier(vec![DeviceSpec::arm64(), DeviceSpec::jetson_soc()])
            .build()
            .expect("valid chassis");
        let (specs, cfg) = PoolConfig::from_recs(&chassis);
        assert_eq!(specs.len(), 4);
        assert_eq!(cfg.pool_count(), 2);
        let devices: Vec<Device> = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| Device::new(DeviceId(i as u64), s))
            .collect();
        let pools = pools_over(cfg, &devices).expect("valid");
        assert_eq!(pools.pool_of(1), 0);
        assert_eq!(pools.pool_of(2), 1);
    }

    #[test]
    fn topology_charges_only_foreign_pools() {
        let link = LinkModel::new(BytesPerSec::gib_per_sec(1.0), Seconds(1e-4));
        let topo = TopologyConfig::new(link).with_region_size(7u64, Bytes::gib(1));
        let pools = pools_over(PoolConfig::uniform(6, 2), &fleet(6)).expect("valid");
        // Region 7 was written on device 3, in pool 1.
        let mut regions = RegionTable::default();
        let wrote = [(RegionId(7), AccessMode::Out)];
        regions.record(&wrote, 3, SecurityLevel::Public);
        let reads = [(RegionId(7), AccessMode::In), (RegionId(9), AccessMode::In)];
        let mut pool_extras = Vec::new();
        topo.charge_into(&regions, &pools, &reads, &mut pool_extras);
        assert_eq!(pool_extras.len(), 3);
        assert_eq!(pool_extras[1], Seconds::ZERO, "local read is free");
        let expect = link.transfer_time(Bytes::gib(1));
        assert_eq!(pool_extras[0], expect);
        assert_eq!(pool_extras[2], expect);
    }

    #[test]
    fn topology_extras_shift_pooled_selection_like_flat() {
        // Two identical pools; a 1 GiB transfer charge on pool 1 must
        // steer placement into pool 0 on both paths.
        let devices: Vec<Device> = (0..4)
            .map(|i| Device::new(DeviceId(i), DeviceSpec::arm64()))
            .collect();
        let mut pools = pools_over(PoolConfig::uniform(4, 2), &devices).expect("valid");
        let link = LinkModel::new(BytesPerSec::gib_per_sec(1.0), Seconds(1e-4));
        let extras = [Seconds::ZERO, link.transfer_time(Bytes::gib(1))];
        let mut out = [(0usize, Seconds::ZERO, Seconds::ZERO); 2];
        let (filled, _) = pooled_plan(
            &mut pools,
            Policy::Performance,
            &devices,
            Work::flops(1e9),
            TaskKind::Compute,
            Seconds::ZERO,
            Some(&extras),
            &mut out,
        );
        assert_eq!(filled, 2);
        assert_eq!([out[0].0, out[1].0], [0, 1], "both picks in the local pool");
        // Duration on the charged pool's devices includes the transfer.
        let (filled, _) = pooled_plan(
            &mut pools,
            Policy::Performance,
            &devices,
            Work::flops(1e9),
            TaskKind::Compute,
            Seconds::ZERO,
            Some(&[extras[1], extras[1]]),
            &mut out[..1],
        );
        assert_eq!(filled, 1);
        assert!(
            out[0].2
                > devices[0]
                    .spec
                    .time_for(Work::flops(1e9), TaskKind::Compute)
        );
    }

    #[test]
    fn unproduced_regions_charge_nothing() {
        let link = LinkModel::new(BytesPerSec::gib_per_sec(1.0), Seconds(1e-4));
        let topo = TopologyConfig::new(link).with_default_region_size(Bytes::gib(1));
        let pools = pools_over(PoolConfig::uniform(8, 2), &fleet(8)).expect("valid");
        let mut pool_extras = vec![Seconds(1.0)];
        topo.charge_into(
            &RegionTable::default(),
            &pools,
            &[(RegionId(1), AccessMode::In)],
            &mut pool_extras,
        );
        assert_eq!(pool_extras, [Seconds::ZERO; 4]);
    }
}
