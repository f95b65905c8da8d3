//! Device-pool sharding: the one placement search, sub-linear over large
//! partitioned fleets.
//!
//! Every placement goes through `DevicePools::plan_k`. The fleet is
//! split into *pools* — RECS|BOX carriers, cluster nodes or uniform
//! chunks from a [`PoolConfig`], the locality domains the topology cost
//! model charges transfers across, or one pool without one — and each
//! pool into *shards*, one per spec class. A member is priced from its
//! class's duration and busy power (`SpecClasses`) plus its extra: its
//! pool's transfer charge and the security plan's price on it.
//!
//! Evaluating every member is exact, but O(D) with 1k+ devices dwarfs
//! the rest of the per-event work. On a partitioned fleet the search
//! prunes instead, bounding and skipping whole shards:
//!
//! * the shards of one spec class are the leaves of that class's
//!   *tournament tree*, and every node caches the least and the greatest
//!   `busy_until` of the members below it. A member's timeline change
//!   writes its shard's busy column and queues the shard once
//!   (`DevicePools::execute_planned`); the next pruning placement
//!   recomputes each queued leaf from the column and re-folds its path to
//!   the root, and shards that did not change cost nothing;
//! * with a node's cached availability minimum, the class price gives a
//!   **lower bound** on the score of every member below it under the
//!   active [`Policy`]. At a leaf the bound is the score of the shard's
//!   least-busy member — *exact*, which is what makes the pruning bite: a
//!   mixed pool bounded as a whole combines its idlest device with its
//!   fastest device into a score nothing in the pool can achieve, and
//!   such a bound almost never exceeds the incumbent;
//! * the search walks every class's tree depth-first, the least-bounded
//!   class and the better-bounded child first, so its first leaf is a
//!   least-bounded one. Leaves are priced like every other member, and a
//!   subtree is skipped once `k` candidates are held and its bound is
//!   **strictly** worse than the current k-th best score: every device
//!   below it is strictly worse than the k-th final score. A placement
//!   touches O(classes + k · log shards) nodes, not every shard.
//!
//! Because pruning only skips devices that are *strictly* worse than
//! the k-th selected score, and ties among evaluated devices break
//! toward the lowest device index — exactly the
//! [`select_k`](crate::scheduler::Scheduler::select_k) tie-break — the
//! selected set, order and committed plans are bit-identical to a search
//! that evaluates every member (proptest-pinned in
//! `tests/pool_equivalence.rs`).
//!
//! Pruning covers every [`Policy`], including [`Policy::Weighted`]: the
//! global min-max normalization a weighted score needs is derived
//! **exactly** from the class roots in O(classes) rather than O(D) — a
//! class's members share one spec, so their durations and energies
//! coincide and only the queue delay varies, which means the class's
//! extreme finish times are `ready.max(min_busy) + dur` and
//! `ready.max(max_busy) + dur` over its root's busy extrema. Folding
//! those per-class extremes reproduces, bit for bit, the
//! [`ScoreNorm::from_estimates`] context of all candidates (f64 min/max
//! folds are order-independent). The search evaluates every member on a
//! fleet without a [`PoolConfig`], under a security plan (per-device
//! exceptions) and under a Pareto objective (a different key).
//!
//! The same pool structure carries the **topology cost model**
//! ([`TopologyConfig`]): the engine's region table records the device
//! that produced each region beside its declared size, both by slot,
//! and a consumer placed outside that device's pool is charged the
//! link's transfer time for the region — folded into the estimate
//! *before* scoring, pruned or not, so locality becomes a scheduling
//! dimension like any other. A charge varies across the leaves of one
//! tree, so the same search bounds an internal node under the task's
//! smallest pool charge (still a lower bound) and each leaf under its
//! own pool's. Below a root the bounds are then loose, so a branch and
//! bound finds the least-bounded leaf before the walk starts, and the
//! weighted normalization descends below a root only into subtrees
//! whose charge range could still move one of its four extremes.

use legato_core::task::AccessMode;
use legato_core::units::{Joule, Seconds, Watt};
use legato_hw::cluster::NodeSpec;
use legato_hw::comm::LinkModel;
use legato_hw::device::{Device, DeviceSpec};
use legato_hw::recs::RecsBox;

use crate::classes::SpecClasses;
use crate::energy::EnergyState;
use crate::error::RuntimeError;
use crate::regions::RegionTable;
use crate::replication::MAX_REPLICAS;
use crate::scheduler::{Estimate, Plan, Policy, Scheduler, ScoreNorm, TopK};
use crate::security::SecurePlan;

/// How the device fleet is partitioned into pools.
///
/// Build one from chassis or cluster structure
/// ([`PoolConfig::from_recs`], [`PoolConfig::from_nodes`]) or by
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
    pub(crate) fn from_membership(pools: Vec<Vec<usize>>) -> Self {
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
    ///
    /// ```
    /// use legato_hw::cluster::NodeSpec;
    /// use legato_runtime::{EngineConfig, PoolConfig};
    ///
    /// let nodes = [NodeSpec::gpu_node("g0"), NodeSpec::low_power_arm("a0")];
    /// let (specs, pools) = PoolConfig::from_nodes(&nodes);
    /// assert_eq!(pools.pool_count(), 2);
    /// let rt = EngineConfig::new().with_devices(specs).with_pools(pools).build();
    /// assert!(rt.is_ok());
    /// ```
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
    ///
    /// ```
    /// use legato_hw::device::DeviceSpec;
    /// use legato_hw::recs::RecsBox;
    /// use legato_runtime::{EngineConfig, PoolConfig};
    ///
    /// let chassis = RecsBox::builder("box")
    ///     .high_performance_carrier(vec![DeviceSpec::xeon_x86(), DeviceSpec::gtx1080()])
    ///     .low_power_carrier(vec![DeviceSpec::arm64(), DeviceSpec::jetson_soc()])
    ///     .build()
    ///     .expect("valid chassis");
    /// let (specs, pools) = PoolConfig::from_recs(&chassis);
    /// assert_eq!((specs.len(), pools.pool_count()), (4, 2));
    /// let rt = EngineConfig::new().with_devices(specs).with_pools(pools).build();
    /// assert!(rt.is_ok());
    /// ```
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

/// What one placement prices a member or a tree node with.
#[derive(Clone, Copy)]
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

/// The devices of one pool that share one spec class.
#[derive(Debug, Clone)]
struct Shard {
    /// Member device indices, ascending. All members carry an identical
    /// [`DeviceSpec`], which makes the shard's score bound exact (see the
    /// module docs).
    members: Vec<usize>,
    /// `busy[i]` is `devices[members[i]].busy_until()`, bit for bit: the
    /// one column a placement reads per member ([`Shard::price`]), eight
    /// to a cache line where a [`Device`] is 160 B. Seeded from the
    /// devices when the shard is built or a device joins, and written
    /// where a timeline moves ([`DevicePools::execute_planned`]).
    busy: Vec<Seconds>,
    /// The pool it belongs to (indexes the topology extras).
    pool: usize,
    /// Its spec class ([`SpecClasses`]) — usually far fewer classes than
    /// shards (a 1k fleet cycling four reference specs has four classes
    /// and hundreds of shards).
    class: usize,
}

/// Members one [`Chunk`] holds: one cache line of the busy column.
const LANES: usize = 8;

/// A chunk's per-member start and duration: scratch a placement fills
/// chunk after chunk ([`Shard::price`]), set up once per placement so a
/// 1-member shard pays for no more than its member.
#[derive(Default)]
pub(crate) struct Lanes {
    start: [f64; LANES],
    dur: [f64; LANES],
}

/// Up to [`LANES`] consecutive members of one shard, priced: what
/// [`Shard::price`] hands a selection arm. Lane `i` is member
/// `members[i]`; lanes past the last member are stale. `lo` pairs the
/// chunk's least finish with its least energy, a lower bound on every
/// member's key under a key monotone in both, and `hi` the greatest of
/// each, so an arm can skip a chunk none of whose members it could
/// choose without reading the lanes.
pub(crate) struct Chunk<'a> {
    /// Member device indices, ascending, 1 to [`LANES`] of them.
    members: &'a [usize],
    lanes: &'a Lanes,
    /// The shard's busy power, shared by every member.
    pub(crate) power: Watt,
    /// The shard the members belong to.
    pub(crate) shard: usize,
    pub(crate) lo: Estimate,
    pub(crate) hi: Estimate,
}

impl Lanes {
    /// Lane `i`'s estimate at busy power `power`: the same two
    /// operations that price the chunk's corners, so the same bits.
    #[inline(always)]
    fn estimate(&self, i: usize, power: Watt) -> Estimate {
        let dur = Seconds(self.dur[i]);
        Estimate::new(Seconds(self.start[i]) + dur, power * dur)
    }
}

impl Chunk<'_> {
    /// Number of members.
    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// The lowest member device index.
    #[inline(always)]
    pub(crate) fn first(&self) -> usize {
        self.members[0]
    }

    /// Member `i`'s plan.
    #[inline(always)]
    pub(crate) fn plan(&self, i: usize) -> Plan {
        (
            self.members[i],
            Seconds(self.lanes.start[i]),
            Seconds(self.lanes.dur[i]),
        )
    }

    /// Member `i`'s estimate: the same two operations that priced the
    /// chunk's corners, so the same bits.
    #[inline(always)]
    pub(crate) fn estimate(&self, i: usize) -> Estimate {
        self.lanes.estimate(i, self.power)
    }
}

/// The lesser of `a` and `b`: a compare-select instead of `f64::min`. No
/// value priced here is NaN or −0 (specs are validated where classes
/// open, virtual times start at zero), so the bits are the same and the
/// NaN fix-up leaves the loop.
#[inline(always)]
pub(crate) fn least(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// The greater of `a` and `b`, as [`least`].
#[inline(always)]
pub(crate) fn greatest(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// The least and the greatest of eight lanes, folded as a tree: three
/// levels of independent compare-selects instead of one chain that waits
/// on its previous step at every lane.
#[inline(always)]
fn spread(v: &[f64; LANES]) -> (f64, f64) {
    let (mut lo4, mut hi4) = ([0.0; 4], [0.0; 4]);
    for i in 0..4 {
        (lo4[i], hi4[i]) = (least(v[i], v[i + 4]), greatest(v[i], v[i + 4]));
    }
    let (lo2, hi2) = (
        [least(lo4[0], lo4[2]), least(lo4[1], lo4[3])],
        [greatest(hi4[0], hi4[2]), greatest(hi4[1], hi4[3])],
    );
    (least(lo2[0], lo2[1]), greatest(hi2[0], hi2[1]))
}

impl Shard {
    /// The charge the shard's pool adds to the task.
    fn charge(&self, q: &Query) -> Seconds {
        q.extras.map_or(Seconds::ZERO, |e| e[self.pool])
    }

    /// Price every member `d` of shard `s` (this one) — its class's
    /// duration and busy power from `prices`, plus its extra: `secure(d)`
    /// (the security plan's price on it) and its pool's `charge` — and
    /// hand `visit` the members in [`Chunk`]s of [`LANES`], in member
    /// order; returns how many it priced. A full chunk reads one cache
    /// line of the busy column and folds its extremes as a tree; a
    /// shorter tail, a whole 1-member shard included, is priced and
    /// folded lane by lane. The one pricing every placement uses, and the
    /// one reader of the column per member; `prices` and `ready_at` come
    /// by value (DESIGN.md §8).
    #[inline(always)]
    fn price(
        &self,
        s: usize,
        (prices, ready_at): (&[(Seconds, Watt)], Seconds),
        charge: Seconds,
        secure: impl Fn(usize) -> Seconds,
        lanes: &mut Lanes,
        visit: &mut impl FnMut(&Chunk),
    ) -> u64 {
        let (dur, power) = prices[self.class];
        // The start is a compare-select, as in `least`. `busy_power * dur`
        // is `DeviceSpec::energy_for` over the class's one roofline
        // evaluation; the crypto time burns device power like any other
        // busy time.
        let start = |busy: Seconds| if busy > ready_at { busy.0 } else { ready_at.0 };
        let dur = |d: usize| (dur + (secure(d) + charge)).0;
        let (mut members, mut busy) = (&self.members[..], &self.busy[..self.members.len()]);
        while !members.is_empty() {
            let n = members.len().min(LANES);
            let (t, e) = if let (Ok(m), Ok(b)) = (
                <&[usize; LANES]>::try_from(&members[..n]),
                <&[Seconds; LANES]>::try_from(&busy[..n]),
            ) {
                let (mut finish, mut energy) = ([0.0; LANES], [0.0; LANES]);
                for i in 0..LANES {
                    (lanes.start[i], lanes.dur[i]) = (start(b[i]), dur(m[i]));
                    finish[i] = lanes.start[i] + lanes.dur[i];
                    energy[i] = power.0 * lanes.dur[i];
                }
                (spread(&finish), spread(&energy))
            } else {
                let mut fold = [
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ];
                for i in 0..n {
                    (lanes.start[i], lanes.dur[i]) = (start(busy[i]), dur(members[i]));
                    let e = lanes.estimate(i, power);
                    let (t, e) = (e.finish.0, e.energy.0);
                    fold = [
                        least(fold[0], t),
                        greatest(fold[1], t),
                        least(fold[2], e),
                        greatest(fold[3], e),
                    ];
                }
                ((fold[0], fold[1]), (fold[2], fold[3]))
            };
            visit(&Chunk {
                members: &members[..n],
                lanes,
                power,
                shard: s,
                lo: Estimate::new(Seconds(t.0), Joule(e.0)),
                hi: Estimate::new(Seconds(t.1), Joule(e.1)),
            });
            (members, busy) = (&members[n..], &busy[n..]);
        }
        self.members.len() as u64
    }
}

/// `shard_of`'s position of a device no shard holds any more.
const GONE: u32 = u32::MAX;

/// A shard index or member position as `shard_of` stores it.
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("fewer than 2^32 shards and members")
}

/// Runtime state of the placement layer: the homogeneous shards each
/// pool splits into, each shard's pool (what the topology charges
/// read), and, to prune by, one tournament tree of cached availability
/// extrema per spec class. A runtime built without a [`PoolConfig`] is
/// one pool, so its shards are its spec classes; it never prunes, so it
/// keeps no trees. Everything spec-derived is read from the runtime's
/// [`SpecClasses`].
#[derive(Debug, Clone)]
pub(crate) struct DevicePools {
    /// Whether a [`PoolConfig`] partitioned the fleet: only then may a
    /// placement prune ([`DevicePools::plan_k`]).
    partitioned: bool,
    /// Number of (non-empty) pools; one without a [`PoolConfig`].
    pool_count: usize,
    /// Shard index of each device and its position among the shard's
    /// members (`GONE` once it left them).
    shard_of: Vec<(u32, u32)>,
    shards: Vec<Shard>,
    /// Leaf slot of each shard in its class's tree. This and the three
    /// fields below stay empty unless `partitioned`.
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
    pub(crate) fn new(
        config: PoolConfig,
        classes: &SpecClasses,
        devices: &[Device],
    ) -> Result<Self, RuntimeError> {
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
        let mut assigned = vec![false; device_count];
        for pool in &mut pools {
            pool.sort_unstable();
            for &d in pool.iter() {
                if d >= device_count {
                    return Err(out_of_range(d));
                }
                if std::mem::replace(&mut assigned[d], true) {
                    return Err(RuntimeError::invalid_parameter(
                        "pools",
                        format!("device {d} appears in more than one pool"),
                    ));
                }
            }
        }
        if let Some(d) = assigned.iter().position(|&a| !a) {
            return Err(unassigned(d));
        }
        Ok(Self::sharded(pools.into_iter(), classes, devices, true))
    }

    /// The fleet as one pool, sharded by spec class: the pools of a
    /// runtime built without a [`PoolConfig`], whose placements never
    /// prune.
    pub(crate) fn one_pool(classes: &SpecClasses, devices: &[Device]) -> Self {
        let fleet = 0..classes.class_of_slice().len();
        Self::sharded(std::iter::once(fleet), classes, devices, false)
    }

    /// Split every pool, its devices listed in ascending order, into one
    /// shard per spec class; the shards' members stay ascending, and
    /// their busy column starts from the devices' timelines.
    fn sharded<P: IntoIterator<Item = usize>>(
        pools: impl ExactSizeIterator<Item = P>,
        classes: &SpecClasses,
        devices: &[Device],
        partitioned: bool,
    ) -> Self {
        let mut built = DevicePools {
            partitioned,
            pool_count: pools.len(),
            shard_of: vec![(0, 0); classes.class_of_slice().len()],
            shards: Vec::new(),
            slot_of: Vec::new(),
            trees: Vec::new(),
            stale: Vec::new(),
            queued: Vec::new(),
            roots: Vec::new(),
        };
        for (p, pool) in pools.enumerate() {
            let first = built.shards.len();
            for d in pool {
                let class = classes.class_of(d);
                let s = (first..built.shards.len())
                    .find(|&s| built.shards[s].class == class)
                    .unwrap_or_else(|| built.open(p, class));
                built.join(s, d, devices[d].busy_until());
            }
        }
        built
    }

    /// Open an empty shard of spec class `class` in pool `p` and return
    /// it. To prune by, the shard gets a leaf in its class's tree
    /// (opening the tree if no shard carried the class yet), queued.
    fn open(&mut self, p: usize, class: usize) -> usize {
        let s = self.shards.len();
        self.shards.push(Shard {
            members: Vec::new(),
            busy: Vec::new(),
            pool: p,
            class,
        });
        if self.partitioned {
            if class >= self.trees.len() {
                self.trees.resize_with(class + 1, Tree::default);
            }
            self.slot_of.push(self.trees[class].push(s));
            self.queued.push(true);
            self.stale.push(s);
        }
        s
    }

    /// Append device `d`, busy until `busy`, to shard `s`'s members: its
    /// index must exceed every member's, which keeps them ascending.
    fn join(&mut self, s: usize, d: usize, busy: Seconds) {
        let shard = &mut self.shards[s];
        self.shard_of[d] = (index(s), index(shard.members.len()));
        shard.members.push(d);
        shard.busy.push(busy);
    }

    /// Queue shard `s`'s leaf for recomputation, once (a fleet with no
    /// trees has nothing to queue).
    fn touch(&mut self, s: usize) {
        if self.partitioned && !self.queued[s] {
            self.queued[s] = true;
            self.stale.push(s);
        }
    }

    /// The pool device `d` belongs to (or belonged to, once departed).
    pub(crate) fn pool_of(&self, d: usize) -> usize {
        self.shards[self.shard_of[d].0 as usize].pool
    }

    /// Number of pools.
    pub(crate) fn pool_count(&self) -> usize {
        self.pool_count
    }

    /// Run plan `(start, dur)` on device `d` ([`Device::execute_planned`])
    /// and mirror its new `busy_until` into its shard's busy column: the
    /// one way a placement moves a timeline, so the column cannot miss a
    /// write. Returns the device's `(start, finish)`.
    #[inline]
    pub(crate) fn execute_planned(
        &mut self,
        devices: &mut [Device],
        d: usize,
        start: Seconds,
        dur: Seconds,
    ) -> (Seconds, Seconds) {
        let (start, finish) = devices[d].execute_planned(start, dur);
        self.commit(d, finish);
        (start, finish)
    }

    /// Device `d`'s timeline now runs to `finish`, its new
    /// `busy_until`: write its entry of its shard's busy column, and queue
    /// the shard's leaf. O(1); the one place the column moves after a
    /// device joined.
    #[inline]
    fn commit(&mut self, d: usize, finish: Seconds) {
        let (s, i) = self.shard_of[d];
        let s = s as usize;
        self.shards[s].busy[i as usize] = finish;
        self.touch(s);
    }

    /// Grow the structures for an arriving device `d` (the next index)
    /// of spec class `class`, busy until `busy`: join the same-class
    /// shard of `pool` or open a new one (and a new tree for a class no
    /// shard carried), and queue the shard's leaf. `pool` wraps modulo
    /// the pool count, so round-robin callers need no bounds handling.
    pub(crate) fn add_device(&mut self, d: usize, class: usize, pool: usize, busy: Seconds) {
        debug_assert_eq!(d, self.shard_of.len(), "arrivals append at the end");
        let p = pool % self.pool_count;
        let s = (self.shards.iter())
            .position(|shard| shard.class == class && shard.pool == p)
            .unwrap_or_else(|| self.open(p, class));
        self.shard_of.push((0, 0));
        self.join(s, d, busy);
        self.touch(s);
    }

    /// Remove a departed or draining device from its shard, and so from
    /// every later placement; the members after it move up one position.
    /// The shard itself stays (possibly empty — its leaf then folds to
    /// an empty span, which the walk never enters), which keeps every
    /// stored shard index valid. A device already removed is left as is.
    pub(crate) fn remove_device(&mut self, d: usize) {
        let (s, i) = self.shard_of[d];
        if i == GONE {
            return;
        }
        let (s, i) = (s as usize, i as usize);
        let shard = &mut self.shards[s];
        shard.members.remove(i);
        shard.busy.remove(i);
        for &m in &shard.members[i..] {
            self.shard_of[m].1 -= 1;
        }
        self.shard_of[d].1 = GONE;
        self.touch(s);
    }

    /// Recompute every queued leaf from its shard's busy column and
    /// re-fold its path to the root.
    fn refresh(&mut self) {
        while let Some(s) = self.stale.pop() {
            self.queued[s] = false;
            let shard = &self.shards[s];
            let span = (shard.busy.iter()).fold(Span::EMPTY, |span, &busy| {
                span.join(Span { lo: busy, hi: busy })
            });
            self.trees[shard.class].set(self.slot_of[s], span);
        }
    }

    /// Top-k placement: the one search every placement goes through.
    /// Fills `out` with `(device index, start, duration)` triples in
    /// selection order and returns `(filled, devices evaluated,
    /// pruned)`. `filled` is `min(out.len(), live eligible devices)`;
    /// the evaluations are the sub-linearity observable the scaling
    /// guard test pins. Ties break toward the lowest device index, as in
    /// [`select_k`](crate::scheduler::Scheduler::select_k), so the
    /// selection is the per-device reference's whatever order the
    /// members are visited in.
    ///
    /// Every member is priced alike ([`Shard::price`]): its class's
    /// duration and busy power — `classes` must hold the task's
    /// ([`SpecClasses::price`]) — plus its pool's charge from `extras`
    /// (`None` with the topology model off) and, under a `security`
    /// plan, the plan's price on the member.
    ///
    /// The search prunes exactly when a [`PoolConfig`] partitioned the
    /// fleet, no security plan is in force and no Pareto objective in
    /// `energy` replaces the scoring: it walks the class trees and skips
    /// every subtree whose bound is strictly worse than the k-th best
    /// score found so far. Otherwise it prices every live member of
    /// every class the plan admits, shard by shard, for
    /// [`Policy::select_plans`] to select among.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn plan_k(
        &mut self,
        policy: Policy,
        classes: &SpecClasses,
        ready_at: Seconds,
        extras: Option<&[Seconds]>,
        security: Option<&SecurePlan>,
        energy: &mut EnergyState,
        survivors: &mut Vec<(Plan, Estimate)>,
        out: &mut [Plan],
    ) -> (usize, u64, bool) {
        let q = Query {
            policy,
            classes,
            ready_at,
            extras,
            charge: (Seconds::ZERO, Seconds::ZERO),
            norm: ScoreNorm::IDENTITY,
        };
        if self.partitioned && security.is_none() && energy.objective.is_none() {
            let (filled, evaluated) = self.walk_k(q, out);
            return (filled, evaluated, true);
        }
        let candidates = Candidates {
            shards: &self.shards,
            q,
            fleet: self.shard_of.len(),
            security,
        };
        let (filled, evaluated) = policy.select_plans(candidates, energy, survivors, out);
        (filled, evaluated, false)
    }

    /// The pruning search: walk the class trees, skipping every subtree
    /// whose bound is strictly worse than the k-th best score so far.
    #[inline(never)] // one call site; kept out of the unpruned search's frame
    fn walk_k(&mut self, mut q: Query, out: &mut [Plan]) -> (usize, u64) {
        let want = out.len().min(self.shard_of.len()).min(MAX_REPLICAS);
        if want == 0 {
            return (0, 0);
        }
        self.refresh();
        if let Some(extras) = q.extras {
            let none = (Seconds(f64::INFINITY), Seconds(f64::NEG_INFINITY));
            q.charge = extras
                .iter()
                .fold(none, |(lo, hi), &x| (lo.min(x), hi.max(x)));
        }
        if q.policy.needs_norm() {
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
        if q.charge.0 != q.charge.1 {
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

        // Top-k by (score, device index); leaves arrive out of index
        // order, which the accumulator's index tie-break absorbs. Strict
        // inequality: a subtree whose bound *ties* the k-th score may
        // still hold the tie-break winner, so it is entered; only
        // strictly worse ones are pruned, which is what makes the
        // selection exact.
        let (mut best, mut lanes) = (TopK::new(want), Lanes::default());
        let mut evaluate = |s: usize, best: &mut TopK| {
            let (at, charge) = ((q.classes.prices(), q.ready_at), self.shards[s].charge(&q));
            let key = |e: &Estimate| q.policy.score(e, &q.norm);
            self.shards[s].price(s, at, charge, |_| Seconds::ZERO, &mut lanes, &mut |c| {
                best.offer_chunk(c, key);
            })
        };
        let mut evaluated = seed.map_or(0, |s| evaluate(s, &mut best));
        let mut gather = |lb: f64, leaf: Option<usize>| {
            if best.bar().is_some_and(|(bar, _)| lb > bar) {
                return false;
            }
            if let Some(s) = leaf.filter(|&s| Some(s) != seed) {
                evaluated += evaluate(s, &mut best);
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
            Some(extras) if node >= width => extras[self.shards[tree.shards[node - width]].pool],
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

    /// The min-max normalization [`Policy::weighted_k`] folds over
    /// every candidate, read off the trees. A class's members share one
    /// duration and one energy, so a node's candidates span
    /// `[ready.max(lo) + dur, ready.max(hi) + dur]` in time and one
    /// point in energy: exact at every root when all pools are charged
    /// alike, which makes the fold O(classes) and bit-identical to the
    /// per-member one (f64 min/max folds are order-independent; an empty
    /// node has no member either). Under uneven charges a node's
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
            let x = self.shards[tree.shards[node - width]].charge(q);
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

/// One placement's candidates when the search does not prune
/// ([`DevicePools::plan_k`]), for [`Policy::select_plans`] to select
/// among.
#[derive(Clone, Copy)]
pub(crate) struct Candidates<'a> {
    shards: &'a [Shard],
    q: Query<'a>,
    /// The fleet's size, departed devices included.
    fleet: usize,
    security: Option<&'a SecurePlan>,
}

impl Candidates<'_> {
    /// The fleet's size: at least the candidate count.
    pub(crate) fn fleet_size(self) -> usize {
        self.fleet
    }

    /// Price every live member of every shard whose class the security
    /// plan admits — a class it does not admit is skipped whole — shard
    /// by shard, and hand `visit` them in [`Chunk`]s; returns how many
    /// it priced. A shard's chunks arrive together and in ascending index
    /// order, the order [`Anchors`](crate::scheduler::Anchors) needs of a
    /// group; the shards of one class may interleave indices.
    #[inline(always)]
    pub(crate) fn each(self, mut visit: impl FnMut(&Chunk)) -> u64 {
        let (q, shards) = (&self.q, self.shards.iter().enumerate());
        let at = (q.classes.prices(), q.ready_at);
        let (mut priced, lanes) = (0, &mut Lanes::default());
        match self.security {
            None => {
                for (s, shard) in shards {
                    let charge = shard.charge(q);
                    priced += shard.price(s, at, charge, |_| Seconds::ZERO, lanes, &mut visit);
                }
            }
            Some(plan) => {
                for (s, shard) in shards {
                    if plan.admits(shard.class) {
                        let (charge, secure) = (shard.charge(q), |d| plan.extra(d, shard.class));
                        priced += shard.price(s, at, charge, secure, lanes, &mut visit);
                    }
                }
            }
        }
        priced
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
pub(crate) mod tests {
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
        DevicePools::new(config, &SpecClasses::new(devices), devices)
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
        let mut energy = EnergyState::default();
        let (filled, evaluated, pruned) = pools.plan_k(
            policy,
            &classes,
            ready_at,
            extras,
            None,
            &mut energy,
            &mut Vec::new(),
            out,
        );
        assert!(pruned, "a partitioned fleet placing a public task prunes");
        (filled, evaluated)
    }

    /// The per-device reference: every device priced with its own
    /// `spec.time_for` plus `extra(d)` (`None` leaves the device out),
    /// selected by [`Scheduler::select_k`] over the estimates.
    #[allow(clippy::too_many_arguments)]
    fn per_device(
        policy: Policy,
        devices: &[Device],
        work: Work,
        kind: TaskKind,
        ready_at: Seconds,
        extra: impl Fn(usize) -> Option<Seconds>,
        k: usize,
    ) -> Vec<(usize, Seconds, Seconds)> {
        let (mut estimates, mut plans) = (Vec::new(), Vec::new());
        for (d, device) in devices.iter().enumerate() {
            let Some(extra) = extra(d) else { continue };
            let start = ready_at.max(device.busy_until());
            let dur = device.spec.time_for(work, kind) + extra;
            estimates.push(Estimate::new(start + dur, device.spec.busy_power * dur));
            plans.push((d, start, dur));
        }
        let mut chosen = [0; MAX_REPLICAS];
        let filled = policy.select_k(&estimates, &mut chosen[..k]);
        chosen[..filled].iter().map(|&c| plans[c]).collect()
    }

    #[test]
    fn uniform_partition_covers_every_device() {
        let devices = fleet(10);
        let pools = pools_over(PoolConfig::uniform(10, 4), &devices).expect("valid");
        assert_eq!(pools.pool_count(), 3); // 4 + 4 + 2
        let mut seen = [false; 10];
        for (s, shard) in pools.shards.iter().enumerate() {
            for (i, &d) in shard.members.iter().enumerate() {
                assert!(!seen[d]);
                seen[d] = true;
                assert_eq!(pools.pool_of(d), shard.pool);
                assert_eq!(pools.shard_of[d], (index(s), index(i)));
                assert_eq!(
                    devices[d].spec, devices[shard.members[0]].spec,
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
                let flat = per_device(
                    policy,
                    &devices,
                    Work::flops(66e9),
                    TaskKind::Inference,
                    Seconds::ZERO,
                    |_| Some(Seconds::ZERO),
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
            let flat = per_device(
                policy,
                &devices,
                Work::new(2e12, Bytes::gib(1)),
                TaskKind::Compute,
                Seconds(0.5),
                |_| Some(Seconds::ZERO),
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
        // weight must reproduce the per-device selection bit for bit,
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
                let flat = per_device(
                    Policy::Weighted(w),
                    &devices,
                    Work::new(3e12, Bytes::mib(512)),
                    TaskKind::Compute,
                    Seconds(1.0),
                    |_| Some(Seconds::ZERO),
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
        // Weighted no longer pays an O(fleet) visit.
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
            let (_, finish) = dev.execute(Seconds::ZERO, Work::flops(5e13), TaskKind::Compute);
            pools.commit(d, finish);
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
        let flat = per_device(
            Policy::Performance,
            &devices,
            Work::flops(1e9),
            TaskKind::Compute,
            Seconds::ZERO,
            |_| Some(Seconds::ZERO),
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

    /// The busy column mirrors the fleet: every member's entry is its
    /// device's `busy_until`, bit for bit, the members stay ascending,
    /// `shard_of` finds each member at its position, and a device no
    /// shard holds is marked gone.
    pub(crate) fn check_mirror(
        pools: &DevicePools,
        devices: &[Device],
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(pools.shard_of.len(), devices.len());
        let mut held = vec![false; devices.len()];
        for (s, shard) in pools.shards.iter().enumerate() {
            prop_assert_eq!(shard.members.len(), shard.busy.len());
            prop_assert!(shard.members.windows(2).all(|w| w[0] < w[1]));
            for (i, (&d, &busy)) in shard.members.iter().zip(&shard.busy).enumerate() {
                prop_assert_eq!(busy.0.to_bits(), devices[d].busy_until().0.to_bits());
                prop_assert_eq!(pools.shard_of[d], (index(s), index(i)));
                held[d] = true;
            }
        }
        for (d, &held) in held.iter().enumerate() {
            prop_assert_eq!((d, held), (d, pools.shard_of[d].1 != GONE));
        }
        Ok(())
    }

    /// Pools built over a fleet whose devices already carry a backlog —
    /// partitioned or one pool — start their column from the timelines,
    /// and a departure keeps the rest of its shard in place.
    #[test]
    fn pools_over_a_backlog_seed_the_column() {
        let mut devices = fleet(24);
        for (i, d) in devices.iter_mut().enumerate() {
            if i % 3 != 0 {
                d.execute(
                    Seconds::ZERO,
                    Work::flops(1e11 * i as f64),
                    TaskKind::Compute,
                );
            }
        }
        let classes = SpecClasses::new(&devices);
        for mut pools in [
            pools_over(PoolConfig::uniform(24, 10), &devices).expect("valid"),
            DevicePools::one_pool(&classes, &devices),
        ] {
            check_mirror(&pools, &devices).expect("seeded from the timelines");
            for d in [5, 1, 21, 5] {
                pools.remove_device(d);
                check_mirror(&pools, &devices).expect("a departure shifts its shard");
            }
        }
    }

    /// Every leaf spans its shard's members, every internal node joins
    /// its children, and every shard sits at its slot in its class's
    /// tree, in ascending order.
    fn check_trees(pools: &DevicePools, devices: &[Device]) -> Result<(), TestCaseError> {
        prop_assert!(pools.stale.is_empty(), "a placement refreshes every leaf");
        for (s, shard) in pools.shards.iter().enumerate() {
            let tree = &pools.trees[shard.class];
            prop_assert_eq!(tree.shards[pools.slot_of[s]], s);
            let span = shard.members.iter().fold(Span::EMPTY, |span, &d| {
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
    /// whose exact bound, under the per-device normalization, ties the
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
        let live: Vec<usize> = pools
            .shards
            .iter()
            .flat_map(|s| s.members.clone())
            .collect();
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
        let bounds: Vec<(f64, u64)> = (pools.shards.iter())
            .filter(|shard| !shard.members.is_empty())
            .map(|shard| {
                let members = &shard.members;
                let least = members.iter().map(|&d| devices[d].busy_until());
                let least = least.fold(Seconds(f64::INFINITY), Seconds::min);
                let est = estimate(shard.class, shard.pool, least);
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
        /// step the busy column mirrors the timelines bit for bit, with
        /// every departed device out of its shard; after every search
        /// the trees hold their invariants, the selection and
        /// plans are the per-device reference's bit for bit, and a k = 1 search
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
            for (step, &(op, pick, x)) in ops.iter().enumerate() {
                let live: Vec<usize> = (0..devices.len()).filter(|&d| avail[d]).collect();
                let picked = (!live.is_empty()).then(|| live[pick % live.len()]);
                match (op, picked) {
                    (0, Some(d)) => {
                        let work = Work::flops(1e12 * x);
                        let (_, finish) = devices[d].execute(Seconds(x), work, TaskKind::Compute);
                        pools.commit(d, finish);
                    }
                    (1, _) => {
                        let d = devices.len();
                        devices.push(Device::new(DeviceId(d as u64), specs[pick % 5].clone()));
                        let class = classes.add_device(&devices[d].spec);
                        pools.add_device(d, class, pick, devices[d].busy_until());
                        avail.push(true);
                    }
                    (2, Some(d)) => {
                        avail[d] = false;
                        pools.remove_device(d);
                    }
                    _ => {}
                }
                check_mirror(&pools, &devices)?;
                let extras: Option<Vec<Seconds>> = charged.then(|| {
                    (0..pools.pool_count())
                        .map(|p| Seconds(0.25 * f64::from(levels[(p + step) % levels.len()])))
                        .collect()
                });
                let extras = extras.as_deref();
                let ready_at = Seconds(x);
                let work = Work::new(1e12 + 1e12 * x, Bytes::mib(64));
                classes.price(work, TaskKind::Compute);
                for want in [1, k] {
                    let mut out = [(0usize, Seconds::ZERO, Seconds::ZERO); MAX_REPLICAS];
                    let (filled, evaluated, _) = pools.plan_k(
                        policy,
                        &classes,
                        ready_at,
                        extras,
                        None,
                        &mut EnergyState::default(),
                        &mut Vec::new(),
                        &mut out[..want],
                    );
                    check_trees(&pools, &devices)?;
                    let charge = |d: usize| extras.map_or(Seconds::ZERO, |e| e[pools.pool_of(d)]);
                    let live = |d: usize| avail[d].then(|| charge(d));
                    let flat = per_device(policy, &devices, work, TaskKind::Compute, ready_at, live, want);
                    prop_assert_eq!(&out[..filled], flat.as_slice());
                    if want == 1 {
                        let tied = tied_members(&pools, &devices, &classes, policy, ready_at, extras);
                        prop_assert_eq!(evaluated, tied);
                    }
                    if op == 3 && want == k {
                        for &(d, start, dur) in &out[..filled] {
                            pools.execute_planned(&mut devices, d, start, dur);
                        }
                        check_mirror(&pools, &devices)?;
                    }
                }
            }
        }
    }
}
