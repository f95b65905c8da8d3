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
//! * the shards of one spec class are the leaves of that class's
//!   *tournament tree*, and every node caches the least and the greatest
//!   `busy_until` of the members below it. A member's timeline change
//!   queues its shard once (`DevicePools::mark_dirty`); the next
//!   placement recomputes each queued leaf and re-folds its path to the
//!   root, and shards that did not change cost nothing;
//! * a class's members share one spec, so the runtime's class table
//!   (`SpecClasses`) already holds their common duration and busy power
//!   for the task being placed; with a node's cached availability
//!   minimum that gives a **lower bound** on the score of every member
//!   below it under the active [`Policy`]. At a leaf the bound is the
//!   score of the shard's least-busy member — *exact*, which is what
//!   makes the pruning bite: a mixed pool bounded as a whole combines
//!   its idlest device with its fastest device into a score nothing in
//!   the pool can achieve, and such a bound almost never exceeds the
//!   incumbent;
//! * the search walks every class's tree depth-first, the
//!   least-bounded class and the better-bounded child first, so its
//!   first leaf is a least-bounded one. Leaves are evaluated with the
//!   *identical* per-device arithmetic the flat path uses, and a subtree
//!   is skipped once `k` candidates are held and its bound is
//!   **strictly** worse than the current k-th best score: every device
//!   below it is strictly worse than the k-th final score. A placement
//!   touches O(classes + k · log shards) nodes, not every shard.
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
//! score needs is derived **exactly** from the class roots in
//! O(classes) rather than O(D) — a class's members share one spec, so
//! their durations and energies coincide and only the queue delay
//! varies, which means the class's extreme finish times are
//! `ready.max(min_busy) + dur` and `ready.max(max_busy) + dur` over its
//! root's busy extrema. Folding those per-class extremes reproduces,
//! bit for bit, the [`ScoreNorm::from_estimates`] context the flat scan
//! would have computed from all candidates (f64 min/max folds are
//! order-independent). The engine falls back to the flat scan only
//! when a security plan excludes devices per task or a Pareto energy
//! objective replaces the scoring.
//!
//! The same pool structure carries the **topology cost model**
//! ([`TopologyConfig`]): the engine's region table records the device
//! that produced each region beside its declared size, both by slot,
//! and a consumer placed outside that device's pool is charged the
//! link's transfer time for the region — folded into the estimate
//! *before* scoring on both the pooled and the flat path, so locality
//! becomes a scheduling dimension like any other. A charge varies
//! across the leaves of one tree, so the same search bounds an internal
//! node under the task's smallest pool charge (still a lower bound) and
//! each leaf under its own pool's. Below a root the bounds are then
//! loose, so a branch and bound finds the least-bounded leaf before the
//! walk starts, and the weighted normalization descends below a root
//! only into subtrees whose charge range could still move one of its
//! four extremes.

use legato_core::task::AccessMode;
use legato_core::units::Seconds;
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
    /// [`PoolConfig::uniform`]'s rule, `(device_count, pool_size)`:
    /// expanded into `pools` only once the fleet has vouched for the
    /// count ([`DevicePools::new`]).
    uniform: Option<(usize, usize)>,
}

impl PoolConfig {
    /// An explicit partition: `pools[p]` lists the device indices of
    /// pool `p`. Empty pools are dropped.
    pub fn from_membership(pools: Vec<Vec<usize>>) -> Self {
        PoolConfig {
            pools,
            uniform: None,
        }
    }

    /// Partition `device_count` devices into consecutive chunks of (at
    /// most) `pool_size` — the structure-free fallback when the fleet
    /// has no chassis or node grouping. A zero `pool_size` yields a
    /// single pool. The rule is recorded, not expanded: a count that is
    /// not the fleet's size is refused when the runtime is built, the
    /// way an explicit membership of that shape would be.
    pub fn uniform(device_count: usize, pool_size: usize) -> Self {
        PoolConfig {
            pools: Vec::new(),
            uniform: Some((device_count, pool_size)),
        }
    }

    /// The rule's chunk size: `pool_size`, a zero meaning every device.
    fn chunk(device_count: usize, pool_size: usize) -> usize {
        match pool_size {
            0 => device_count,
            size => size,
        }
        .clamp(1, device_count.max(1))
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
        (specs, PoolConfig::from_membership(pools))
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
        (specs, PoolConfig::from_membership(pools))
    }

    /// Number of (declared, possibly empty) pools.
    #[must_use]
    pub fn pool_count(&self) -> usize {
        match self.uniform {
            Some((count, size)) => count.div_ceil(Self::chunk(count, size)),
            None => self.pools.len(),
        }
    }
}

/// The least and the greatest `busy_until` over a set of shard members:
/// what a tree node caches. A set with no member is `(+∞, −∞)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Span {
    lo: Seconds,
    hi: Seconds,
}

impl Span {
    const EMPTY: Span = Span {
        lo: Seconds(f64::INFINITY),
        hi: Seconds(f64::NEG_INFINITY),
    };

    fn join(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    fn is_empty(self) -> bool {
        self.lo > self.hi
    }
}

/// One spec class's tournament tree over its shards. Node `n` joins the
/// spans of its children `2n` and `2n + 1`; the root is node 1, and leaf
/// `i` (node `width + i`) is the class's `i`-th shard in ascending index
/// order. Leaves past the last shard stay empty.
#[derive(Debug, Clone, Default)]
struct Tree {
    /// The shard at each leaf.
    shards: Vec<usize>,
    /// Node spans, heap-ordered; index 0 is unused.
    spans: Vec<Span>,
}

impl Tree {
    /// Width of the leaf row, a power of two: nodes at or past it are
    /// leaves.
    fn width(&self) -> usize {
        self.spans.len() / 2
    }

    /// Append `shard` as the next leaf, empty until refreshed, and return
    /// its leaf slot. A full leaf row doubles and re-folds; after build
    /// time only an arrival that opens a shard gets here.
    fn push(&mut self, shard: usize) -> usize {
        let slot = self.shards.len();
        self.shards.push(shard);
        let old = self.width();
        if slot == old {
            let width = (2 * old).max(1);
            let mut spans = vec![Span::EMPTY; 2 * width];
            spans[width..width + old].copy_from_slice(&self.spans[old..]);
            for n in (1..width).rev() {
                spans[n] = spans[2 * n].join(spans[2 * n + 1]);
            }
            self.spans = spans;
        }
        slot
    }

    /// Set leaf `slot`'s span and re-fold its ancestors, stopping at the
    /// first one the change leaves as it was.
    fn set(&mut self, slot: usize, span: Span) {
        let mut n = self.width() + slot;
        self.spans[n] = span;
        while n > 1 {
            n /= 2;
            let joined = self.spans[2 * n].join(self.spans[2 * n + 1]);
            if self.spans[n] == joined {
                break;
            }
            self.spans[n] = joined;
        }
    }
}

/// What one placement prices a tree node with.
struct Query<'a> {
    policy: Policy,
    /// Per-class durations of the task and busy powers.
    classes: &'a SpecClasses,
    ready_at: Seconds,
    /// Per-pool topology charge, `None` with the topology model off.
    extras: Option<&'a [Seconds]>,
    /// The smallest and the largest pool charge: an internal node is
    /// bounded under the first (zero without topology).
    charge: (Seconds, Seconds),
    norm: ScoreNorm,
}

/// Runtime state of the sharded placement layer: pool membership (for
/// the topology charges), the homogeneous shards each pool splits
/// into, and one tournament tree of cached availability extrema per
/// spec class. Everything spec-derived is read from the runtime's
/// [`SpecClasses`].
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
    /// Leaf slot of each shard in its class's tree.
    slot_of: Vec<usize>,
    /// One tree per spec class, indexed by class.
    trees: Vec<Tree>,
    /// Shards whose members' timelines changed since their leaf was
    /// last computed, each listed once.
    stale: Vec<usize>,
    /// Whether a shard is on `stale`.
    queued: Vec<bool>,
    /// Scratch: each class root's bound for the placement in flight.
    roots: Vec<Option<f64>>,
}

impl DevicePools {
    /// Validate `config` against the classified fleet and split every
    /// pool into one shard per spec class.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidParameter`] when the membership is not an
    /// exact partition of the device indices. A uniform rule is checked
    /// against the fleet before it is expanded, so a count of any size
    /// is refused without allocating for it.
    pub(crate) fn new(config: PoolConfig, classes: &SpecClasses) -> Result<Self, RuntimeError> {
        let device_count = classes.class_of_slice().len();
        let out_of_range = |d: usize| {
            RuntimeError::invalid_parameter(
                "pools",
                format!("device {d} out of range ({device_count} devices)"),
            )
        };
        let unassigned = |d: usize| {
            RuntimeError::invalid_parameter("pools", format!("device {d} belongs to no pool"))
        };
        let pools = match config.uniform {
            None => config.pools,
            // The first device a too-long rule names is the fleet size;
            // the first a too-short one misses is its count.
            Some((count, _)) if count > device_count => return Err(out_of_range(device_count)),
            Some((count, _)) if count > 0 && count < device_count => return Err(unassigned(count)),
            Some((count, size)) => (0..count)
                .collect::<Vec<_>>()
                .chunks(PoolConfig::chunk(count, size))
                .map(<[usize]>::to_vec)
                .collect(),
        };
        let mut pools: Vec<Vec<usize>> = pools.into_iter().filter(|p| !p.is_empty()).collect();
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
                    return Err(out_of_range(d));
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
            return Err(unassigned(d));
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
        let mut built = DevicePools {
            pool_of,
            pool_count,
            shard_of,
            shard_pool,
            class_of,
            members,
            slot_of: Vec::with_capacity(n),
            trees: Vec::new(),
            stale: Vec::with_capacity(n),
            queued: Vec::with_capacity(n),
            roots: Vec::new(),
        };
        for s in 0..n {
            built.plant(s);
        }
        Ok(built)
    }

    /// Give the newest shard `s` a leaf in its class's tree, opening the
    /// tree if no shard carried the class yet, and queue the leaf.
    fn plant(&mut self, s: usize) {
        let class = self.class_of[s];
        if class >= self.trees.len() {
            self.trees.resize_with(class + 1, Tree::default);
        }
        self.slot_of.push(self.trees[class].push(s));
        self.queued.push(true);
        self.stale.push(s);
    }

    /// Queue shard `s`'s leaf for recomputation, once.
    fn touch(&mut self, s: usize) {
        if !self.queued[s] {
            self.queued[s] = true;
            self.stale.push(s);
        }
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

    /// Device `d`'s timeline changed: its shard's leaf is stale.
    pub(crate) fn mark_dirty(&mut self, d: usize) {
        self.touch(self.shard_of[d]);
    }

    /// Grow the structures for an arriving device `d` (the next index)
    /// of spec class `class`: join the same-class shard of `pool` or
    /// open a new one (and a new tree for a class no shard carried), and
    /// queue the shard's leaf. `pool` wraps modulo the pool count, so
    /// round-robin callers need no bounds handling.
    pub(crate) fn add_device(&mut self, d: usize, class: usize, pool: usize) {
        debug_assert_eq!(d, self.pool_of.len(), "arrivals append at the end");
        let p = pool % self.pool_count;
        self.pool_of.push(p);
        let shard_pool = &self.shard_pool;
        let joined = self
            .trees
            .get(class)
            .and_then(|tree| tree.shards.iter().copied().find(|&s| shard_pool[s] == p));
        let s = joined.unwrap_or_else(|| {
            self.members.push(Vec::new());
            self.shard_pool.push(p);
            self.class_of.push(class);
            let s = self.members.len() - 1;
            self.plant(s);
            s
        });
        // Members stay ascending: the new device's index exceeds every
        // existing one.
        self.members[s].push(d);
        self.shard_of.push(s);
        self.touch(s);
    }

    /// Remove a departed device from its shard. The shard itself stays
    /// (possibly empty — its leaf then folds to an empty span, which the
    /// search never enters), which keeps every stored shard index valid.
    pub(crate) fn remove_device(&mut self, d: usize) {
        let s = self.shard_of[d];
        self.members[s].retain(|&m| m != d);
        self.touch(s);
    }

    /// Recompute every queued leaf from its members' timelines and
    /// re-fold its path to the root.
    fn refresh(&mut self, devices: &[Device]) {
        while let Some(s) = self.stale.pop() {
            self.queued[s] = false;
            let span = self.members[s].iter().fold(Span::EMPTY, |span, &d| {
                let busy = devices[d].busy_until();
                span.join(Span { lo: busy, hi: busy })
            });
            self.trees[self.class_of[s]].set(self.slot_of[s], span);
        }
    }

    /// Pooled top-k placement: bit-identical selection and plans to the
    /// flat scan (`Policy::plan_k_devices` with no security plan and no
    /// energy objective), walking the class trees and pruning every
    /// subtree whose bound is strictly worse than the k-th best score
    /// found so far.
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
        self.refresh(devices);
        let charge = extras.map_or((Seconds::ZERO, Seconds::ZERO), |extras| {
            let none = (Seconds(f64::INFINITY), Seconds(f64::NEG_INFINITY));
            extras
                .iter()
                .fold(none, |(lo, hi), &x| (lo.min(x), hi.max(x)))
        });
        let mut q = Query {
            policy,
            classes,
            ready_at,
            extras,
            charge,
            norm: ScoreNorm::IDENTITY,
        };
        if policy.needs_norm() {
            q.norm = self.norm(&q);
        }
        self.roots.clear();
        for c in 0..self.trees.len() {
            let lb = self.bound(&q, c, 1);
            self.roots.push(lb);
        }
        let roots = &self.roots;
        let least = roots
            .iter()
            .enumerate()
            .filter_map(|(c, &lb)| Some((c, lb?)));
        let Some((first, _)) = least.min_by(|a, b| a.1.total_cmp(&b.1)) else {
            return (0, 0); // every shard is empty
        };
        // Classes least-bounded first, then in index order.
        let order = std::iter::once(first).chain((0..roots.len()).filter(move |&c| c != first));

        // The walk takes the better-bounded child first, so with exact
        // bounds its first leaf is a least-bounded one: evaluating it
        // makes the k-th key tight at once, and with k = 1 every later
        // subtree not tied with it is pruned — exactly the shards bounded
        // at the minimum are evaluated. Under uneven pool charges a bound
        // below a root is loose, so a branch and bound finds that leaf
        // first (the seed) and the walk starts from it.
        let mut seed: Option<(f64, usize)> = None;
        if charge.0 != charge.1 {
            let mut seek = |lb: f64, leaf: Option<usize>| {
                let better = seed.is_none_or(|(held, _)| lb < held);
                if let (true, Some(s)) = (better, leaf) {
                    seed = Some((lb, s));
                }
                better
            };
            for c in order.clone() {
                if let Some(lb) = roots[c] {
                    self.walk(&q, c, 1, lb, &mut seek);
                }
            }
        }
        let seed = seed.map(|(_, s)| s);

        // Top-k by (score, device index) — the order the flat scan's
        // selection produces; leaves arrive out of index order, which
        // the accumulator's index tie-break absorbs. Strict inequality:
        // a subtree whose bound *ties* the k-th score may still hold the
        // tie-break winner, so it is entered; only strictly worse ones
        // are pruned, which is what makes the selection exact.
        let mut best = TopK::new(want);
        let mut evaluated = seed.map_or(0, |s| self.evaluate(&q, devices, s, &mut best));
        let mut gather = |lb: f64, leaf: Option<usize>| {
            if best.bar().is_some_and(|bar| lb > bar) {
                return false;
            }
            if let Some(s) = leaf.filter(|&s| Some(s) != seed) {
                evaluated += self.evaluate(&q, devices, s, &mut best);
            }
            true
        };
        for c in order {
            if let Some(lb) = roots[c] {
                self.walk(&q, c, 1, lb, &mut gather);
            }
        }
        (best.write(out), evaluated)
    }

    /// The charge shard `s`'s pool adds to the task.
    fn extra(&self, q: &Query, s: usize) -> Seconds {
        q.extras.map_or(Seconds::ZERO, |e| e[self.shard_pool[s]])
    }

    /// A lower bound on the score of every member below node `node` of
    /// class `c`'s tree: the score of a member as idle as the node's
    /// least-busy one, charged the smallest pool charge. At a leaf the
    /// charge is the leaf's own and the bound is exact; so it is at every
    /// node when all pools are charged alike. Normalization is monotone
    /// non-decreasing in each dimension, so the bound holds under `norm`
    /// too. `None` for a node with no member below.
    fn bound(&self, q: &Query, c: usize, node: usize) -> Option<f64> {
        let tree = &self.trees[c];
        let span = *tree.spans.get(node)?;
        if span.is_empty() {
            return None;
        }
        let width = tree.width();
        let extra = match q.extras {
            Some(extras) if node >= width => extras[self.shard_pool[tree.shards[node - width]]],
            _ => q.charge.0,
        };
        let (dur, power) = q.classes.price_of(c);
        let dur = dur + extra;
        let est = Estimate::new(q.ready_at.max(span.lo) + dur, power * dur);
        Some(q.policy.score(&est, &q.norm))
    }

    /// Depth-first over the subtree at `node` of class `c`'s tree, whose
    /// bound is `lb`, the better-bounded child first. `step(lb, leaf)`
    /// sees every non-empty node it reaches: a leaf with its shard, an
    /// internal node with `None` and an answer saying whether to
    /// descend.
    fn walk(
        &self,
        q: &Query,
        c: usize,
        node: usize,
        lb: f64,
        step: &mut impl FnMut(f64, Option<usize>) -> bool,
    ) {
        let tree = &self.trees[c];
        let width = tree.width();
        if node >= width {
            step(lb, Some(tree.shards[node - width]));
            return;
        }
        if !step(lb, None) {
            return;
        }
        let (l, r) = (2 * node, 2 * node + 1);
        match (self.bound(q, c, l), self.bound(q, c, r)) {
            (Some(a), Some(b)) if b < a => {
                self.walk(q, c, r, b, step);
                self.walk(q, c, l, a, step);
            }
            (Some(a), Some(b)) => {
                self.walk(q, c, l, a, step);
                self.walk(q, c, r, b, step);
            }
            (Some(a), None) => self.walk(q, c, l, a, step),
            (None, Some(b)) => self.walk(q, c, r, b, step),
            (None, None) => {}
        }
    }

    /// Offer every member of shard `s` to `best`, priced with the flat
    /// scan's per-device arithmetic; returns how many were priced.
    fn evaluate(&self, q: &Query, devices: &[Device], s: usize, best: &mut TopK) -> u64 {
        let (dur, power) = q.classes.price_of(self.class_of[s]);
        let dur = dur + self.extra(q, s);
        let energy = power * dur;
        for &d in &self.members[s] {
            let start = q.ready_at.max(devices[d].busy_until());
            let score = q.policy.score(&Estimate::new(start + dur, energy), &q.norm);
            best.offer(score, (d, start, dur));
        }
        self.members[s].len() as u64
    }

    /// The min-max normalization the flat scan folds over every
    /// candidate, read off the trees. A class's members share one
    /// duration and one energy, so a node's candidates span
    /// `[ready.max(lo) + dur, ready.max(hi) + dur]` in time and one
    /// point in energy: exact at every root when all pools are charged
    /// alike, which makes the fold O(classes) and bit-identical to the
    /// flat one (f64 min/max folds are order-independent; an empty node
    /// has no flat candidate either). Under uneven charges a node's
    /// range is widened to the charge range, and the fold descends only
    /// where that range could still move one of the four extremes.
    fn norm(&self, q: &Query) -> ScoreNorm {
        let mut fold = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for c in 0..self.trees.len() {
            self.fold_norm(q, c, 1, &mut fold);
        }
        let [t_lo, t_hi, e_lo, e_hi] = fold;
        ScoreNorm::from_bounds(t_lo, t_hi, e_lo, e_hi)
    }

    /// Fold node `node` of class `c`'s tree into `[t_lo, t_hi, e_lo,
    /// e_hi]` (see [`DevicePools::norm`]).
    fn fold_norm(&self, q: &Query, c: usize, node: usize, fold: &mut [f64; 4]) {
        let tree = &self.trees[c];
        let Some(&span) = tree.spans.get(node) else {
            return;
        };
        if span.is_empty() {
            return;
        }
        let width = tree.width();
        let (lo, hi) = if node >= width {
            let x = self.extra(q, tree.shards[node - width]);
            (x, x)
        } else {
            q.charge
        };
        let (dur, power) = q.classes.price_of(c);
        let (fast, slow) = (dur + lo, dur + hi);
        let t = (
            (q.ready_at.max(span.lo) + fast).0,
            (q.ready_at.max(span.hi) + slow).0,
        );
        let e = ((power * fast).0, (power * slow).0);
        if lo == hi {
            fold[0] = fold[0].min(t.0);
            fold[1] = fold[1].max(t.1);
            fold[2] = fold[2].min(e.0);
            fold[3] = fold[3].max(e.1);
        } else if t.0 < fold[0] || t.1 > fold[1] || e.0 < fold[2] || e.1 > fold[3] {
            self.fold_norm(q, c, 2 * node, fold);
            self.fold_norm(q, c, 2 * node + 1, fold);
        }
    }
}

/// Topology cost model: producer→consumer transfer charges across pool
/// boundaries.
///
/// Requires a [`PoolConfig`] on the same
/// [`EngineConfig`](crate::config::EngineConfig) — pools define the
/// locality domains transfers are charged across. When a task reads a
/// region last produced in another pool, the link's transfer time for
/// the region's size (declared once, on the engine) is added to the
/// task's estimated duration on every device *outside* the producer
/// pool, before scoring. A region no task has written yet (or an
/// undeclared, zero-size one) charges nothing, and scheduling is
/// bit-identical to a topology-free runtime. The producer is the one
/// whose outcome stands: a checkpoint rollback that discards a writer
/// discards where it left the region too.
#[derive(Debug, Clone)]
#[must_use = "builder-style configs do nothing unless passed to EngineConfig"]
pub struct TopologyConfig {
    pub(crate) link: LinkModel,
}

impl TopologyConfig {
    /// A topology model over `link` (e.g.
    /// [`LinkModel::compute_network`]).
    pub fn new(link: LinkModel) -> Self {
        TopologyConfig { link }
    }

    /// Fill `pool_extras` for a task about to be placed: each region the
    /// task reads (`accesses`, by slot) whose producer is recorded in
    /// `regions` charges the link transfer time of its declared size to
    /// every pool but the producer device's. O(pools × read accesses).
    pub(crate) fn charge_into(
        &self,
        regions: &RegionTable,
        pools: &DevicePools,
        accesses: impl IntoIterator<Item = (u32, AccessMode)>,
        pool_extras: &mut Vec<Seconds>,
    ) {
        pool_extras.clear();
        pool_extras.resize(pools.pool_count(), Seconds::ZERO);
        for (slot, mode) in accesses {
            if !mode.reads() {
                continue;
            }
            let Some(producer) = regions.get(slot) else {
                continue;
            };
            let t = self.link.transfer_time(regions.bytes(slot));
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
    use legato_core::units::{Bytes, BytesPerSec};
    use legato_hw::device::DeviceId;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

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
        classes.price(work, kind);
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
        let mut survivors = Vec::new();
        let mut anchors = Vec::new();
        let mut out = [(0usize, Seconds::ZERO, Seconds::ZERO); MAX_REPLICAS];
        let (filled, _) = policy.plan_k_devices(
            devices,
            &priced(devices, work, kind),
            ready_at,
            None,
            None,
            None,
            None,
            &mut survivors,
            &mut anchors,
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
    fn a_zero_pool_size_is_one_pool_of_every_device() {
        let config = PoolConfig::uniform(10, 0);
        assert_eq!(config.pool_count(), 1);
        let pools = pools_over(config, &fleet(10)).expect("valid");
        assert_eq!(pools.pool_count(), 1);
        assert!((0..10).all(|d| pools.pool_of(d) == 0));
        assert_eq!(PoolConfig::uniform(0, 0).pool_count(), 0);
    }

    /// A uniform rule whose device count is not the fleet's is a typed
    /// refusal at `build`, with the messages an explicit membership of
    /// the same shape gets — never a panic or a fleet-sized-by-the-count
    /// allocation inside `uniform` (`usize::MAX` overflowed capacity
    /// there; `1 << 40` would have asked for 8 TiB).
    #[test]
    fn a_uniform_count_that_is_not_the_fleet_is_refused_before_it_allocates() {
        use crate::config::EngineConfig;
        let specs: Vec<DeviceSpec> = fleet(4).into_iter().map(|d| d.spec).collect();
        for (count, expected) in [
            (usize::MAX, "device 4 out of range (4 devices)"),
            (1 << 40, "device 4 out of range (4 devices)"),
            (5, "device 4 out of range (4 devices)"),
            (3, "device 3 belongs to no pool"),
            (0, "at least one non-empty pool is required"),
        ] {
            let built = EngineConfig::new()
                .with_devices(specs.clone())
                .with_pools(PoolConfig::uniform(count, 1))
                .build();
            match built {
                Err(RuntimeError::InvalidParameter { name, reason }) => {
                    assert_eq!(
                        (name, reason.as_str()),
                        ("pools", expected),
                        "count {count}"
                    );
                }
                other => panic!("count {count}: expected a refusal, got {:?}", other.err()),
            }
        }
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
        let topo = TopologyConfig::new(link);
        let pools = pools_over(PoolConfig::uniform(6, 2), &fleet(6)).expect("valid");
        // Slot 0 is 1 GiB, written on device 3, in pool 1; slot 1 is
        // undeclared.
        let mut regions = RegionTable::sized(&[Bytes::gib(1)]);
        regions.record([(0, AccessMode::Out)], 3, SecurityLevel::Public);
        regions.record([(1, AccessMode::Out)], 3, SecurityLevel::Public);
        let reads = [(0, AccessMode::In), (1, AccessMode::In)];
        let mut pool_extras = Vec::new();
        topo.charge_into(&regions, &pools, reads, &mut pool_extras);
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
        let topo = TopologyConfig::new(link);
        let pools = pools_over(PoolConfig::uniform(8, 2), &fleet(8)).expect("valid");
        let mut pool_extras = vec![Seconds(1.0)];
        topo.charge_into(
            &RegionTable::sized(&[Bytes::gib(1); 2]),
            &pools,
            [(1, AccessMode::In)],
            &mut pool_extras,
        );
        assert_eq!(pool_extras, [Seconds::ZERO; 4]);
    }

    /// Every leaf spans its shard's members, every internal node joins
    /// its children, and every shard sits at its slot in its class's
    /// tree, in ascending order.
    fn check_trees(pools: &DevicePools, devices: &[Device]) -> Result<(), TestCaseError> {
        prop_assert!(pools.stale.is_empty(), "a placement refreshes every leaf");
        for (s, members) in pools.members.iter().enumerate() {
            let tree = &pools.trees[pools.class_of[s]];
            prop_assert_eq!(tree.shards[pools.slot_of[s]], s);
            let span = members.iter().fold(Span::EMPTY, |span, &d| {
                let busy = devices[d].busy_until();
                span.join(Span { lo: busy, hi: busy })
            });
            prop_assert_eq!(tree.spans[tree.width() + pools.slot_of[s]], span);
        }
        for tree in &pools.trees {
            let width = tree.width();
            prop_assert!(tree.shards.windows(2).all(|w| w[0] < w[1]));
            for slot in tree.shards.len()..width {
                prop_assert_eq!(tree.spans[width + slot], Span::EMPTY);
            }
            for n in 1..width {
                prop_assert_eq!(tree.spans[n], tree.spans[2 * n].join(tree.spans[2 * n + 1]));
            }
        }
        Ok(())
    }

    /// What a k = 1 search must evaluate: every member of every shard
    /// whose exact bound, under the flat scan's normalization, ties the
    /// least one.
    fn tied_members(
        pools: &DevicePools,
        devices: &[Device],
        classes: &SpecClasses,
        policy: Policy,
        ready_at: Seconds,
        extras: Option<&[Seconds]>,
    ) -> u64 {
        let extra = |pool: usize| extras.map_or(Seconds::ZERO, |e| e[pool]);
        let estimate = |class: usize, pool: usize, busy: Seconds| {
            let (dur, power) = classes.price_of(class);
            let dur = dur + extra(pool);
            Estimate::new(ready_at.max(busy) + dur, power * dur)
        };
        let live: Vec<usize> = pools.members.iter().flatten().copied().collect();
        let candidates: Vec<Estimate> = live
            .iter()
            .map(|&d| {
                estimate(
                    classes.class_of(d),
                    pools.pool_of(d),
                    devices[d].busy_until(),
                )
            })
            .collect();
        let norm = if policy.needs_norm() {
            ScoreNorm::from_estimates(&candidates)
        } else {
            ScoreNorm::IDENTITY
        };
        let bounds: Vec<(f64, u64)> = (0..pools.members.len())
            .filter(|&s| !pools.members[s].is_empty())
            .map(|s| {
                let members = &pools.members[s];
                let least = members.iter().map(|&d| devices[d].busy_until());
                let least = least.fold(Seconds(f64::INFINITY), Seconds::min);
                let est = estimate(pools.class_of[s], pools.shard_pool[s], least);
                (policy.score(&est, &norm), members.len() as u64)
            })
            .collect();
        let min = bounds.iter().map(|b| b.0).fold(f64::INFINITY, f64::min);
        bounds.iter().filter(|b| b.0 == min).map(|b| b.1).sum()
    }

    proptest! {
        /// The trees against brute force, through timelines that move,
        /// devices that leave and arrivals — some of a spec no shard
        /// carries yet, which opens a class tree mid-run. After every
        /// search the trees hold their invariants, the selection and
        /// plans are the flat scan's bit for bit, and a k = 1 search
        /// evaluates exactly the shards whose bound ties the minimum;
        /// with topology charges drawn per pool, all of it still holds.
        #[test]
        fn trees_match_brute_force_under_churn(
            n in 1usize..20,
            pool_size in 1usize..6,
            policy_sel in 0usize..4,
            k in 2usize..=MAX_REPLICAS,
            ops in prop::collection::vec((0u8..4, 0usize..64, 0.0f64..4.0), 1..24),
            levels in prop::collection::vec(0u8..3, 1..8),
            charged in any::<bool>(),
        ) {
            let specs = [
                DeviceSpec::xeon_x86(),
                DeviceSpec::gtx1080(),
                DeviceSpec::fpga_kintex(),
                DeviceSpec::arm64(),
                DeviceSpec::jetson_soc(),
            ];
            let policy = [
                Policy::Performance,
                Policy::Energy,
                Policy::Edp,
                Policy::Weighted(0.5),
            ][policy_sel];
            let mut devices: Vec<Device> = (0..n)
                .map(|i| Device::new(DeviceId(i as u64), specs[i % 4].clone()))
                .collect();
            let mut classes = SpecClasses::new(&devices);
            let mut pools = pools_over(PoolConfig::uniform(n, pool_size), &devices).expect("valid");
            let mut avail = vec![true; n];
            let (mut survivors, mut anchors) = (Vec::new(), Vec::new());
            for (step, &(op, pick, x)) in ops.iter().enumerate() {
                let live: Vec<usize> = (0..devices.len()).filter(|&d| avail[d]).collect();
                let picked = (!live.is_empty()).then(|| live[pick % live.len()]);
                match (op, picked) {
                    (0, Some(d)) => {
                        devices[d].execute(Seconds(x), Work::flops(1e12 * x), TaskKind::Compute);
                        pools.mark_dirty(d);
                    }
                    (1, _) => {
                        let d = devices.len();
                        devices.push(Device::new(DeviceId(d as u64), specs[pick % 5].clone()));
                        let class = classes.add_device(&devices[d].spec);
                        pools.add_device(d, class, pick);
                        avail.push(true);
                    }
                    (2, Some(d)) => {
                        avail[d] = false;
                        pools.remove_device(d);
                    }
                    _ => {}
                }
                let extras: Option<Vec<Seconds>> = charged.then(|| {
                    (0..pools.pool_count())
                        .map(|p| Seconds(0.25 * f64::from(levels[(p + step) % levels.len()])))
                        .collect()
                });
                let extras = extras.as_deref();
                let ready_at = Seconds(x);
                classes.price(Work::new(1e12 + 1e12 * x, Bytes::mib(64)), TaskKind::Compute);
                for want in [1, k] {
                    let mut out = [(0usize, Seconds::ZERO, Seconds::ZERO); MAX_REPLICAS];
                    let (filled, evaluated) =
                        pools.plan_k(policy, &devices, &classes, ready_at, extras, &mut out[..want]);
                    check_trees(&pools, &devices)?;
                    let mut flat = [(0usize, Seconds::ZERO, Seconds::ZERO); MAX_REPLICAS];
                    let (flat_filled, _) = policy.plan_k_devices(
                        &devices,
                        &classes,
                        ready_at,
                        Some(&avail),
                        None,
                        extras.map(|e| (e, pools.pool_of_slice())),
                        None,
                        &mut survivors,
                        &mut anchors,
                        &mut flat[..want],
                    );
                    prop_assert_eq!(&out[..filled], &flat[..flat_filled]);
                    if want == 1 {
                        let tied = tied_members(&pools, &devices, &classes, policy, ready_at, extras);
                        prop_assert_eq!(evaluated, tied);
                    }
                    if op == 3 && want == k {
                        for &(d, start, dur) in &out[..filled] {
                            devices[d].execute_planned(start, dur);
                            pools.mark_dirty(d);
                        }
                    }
                }
            }
        }
    }
}
