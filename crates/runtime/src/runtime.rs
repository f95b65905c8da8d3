//! The OmpSs-style dataflow runtime over simulated heterogeneous devices.
//!
//! Execution is driven by the event-driven engine in
//! [`engine`](crate::engine) — the one executor.

use std::sync::Arc;

use legato_core::graph::{TaskGraph, TaskState};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskId};
use legato_core::units::{Joule, Seconds};
use legato_hw::device::{Device, DeviceId, DeviceSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::analyze::{AnalysisContext, AnalysisReport, AnalysisState};
use crate::churn::{ChurnState, ChurnStats};
use crate::classes::SpecClasses;
use crate::config::RegionSizes;
use crate::energy::{EnergyState, EnergyStats};
use crate::engine::EngineState;
use crate::error::RuntimeError;
use crate::pool::{DevicePools, TopologyConfig};
use crate::regions::RegionTable;
use crate::replication::ReplicationStats;
use crate::resilience::{ResilienceState, ResilienceStats, RollbackEvent};
use crate::scheduler::Policy;
use crate::security::{SecurityState, SecurityStats};

/// Devices one (possibly replicated) attempt ran on, stored inline —
/// replica sets are bounded by [`MAX_REPLICAS`](crate::replication::MAX_REPLICAS),
/// so outcome records carry no heap allocation. Dereferences to a slice,
/// so indexing, `len()` and iteration read like the `Vec` it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaDevices {
    devices: [usize; crate::replication::MAX_REPLICAS],
    len: u8,
}

impl ReplicaDevices {
    /// The device indices as a slice (primary replica first).
    #[must_use]
    pub fn as_slice(&self) -> &[usize] {
        &self.devices[..self.len as usize]
    }

    /// Engine-internal constructor from the live device ids, primary
    /// first, at most [`MAX_REPLICAS`](crate::replication::MAX_REPLICAS)
    /// of them. Dead slots stay zeroed, which keeps derived equality
    /// honest.
    pub(crate) fn from_raw(live: &[u32]) -> Self {
        let mut devices = [0; crate::replication::MAX_REPLICAS];
        for (slot, &d) in devices.iter_mut().zip(live) {
            *slot = d as usize;
        }
        ReplicaDevices {
            devices,
            len: u8::try_from(live.len()).expect("at most MAX_REPLICAS replicas"),
        }
    }
}

impl std::ops::Deref for ReplicaDevices {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a ReplicaDevices {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Outcome of one task's (possibly replicated) execution.
///
/// `Copy`: with the device list inline, outcome records are plain 64-byte
/// values, so copying the outcome table is one `memcpy`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskOutcome {
    /// The task.
    pub task: TaskId,
    /// Devices the final (accepted) attempt ran on; the first entry is
    /// the primary replica.
    pub devices: ReplicaDevices,
    /// Start of the accepted attempt.
    pub start: Seconds,
    /// Finish of the accepted attempt (all replicas joined).
    pub finish: Seconds,
    /// Whether the accepted value equals the golden value.
    pub correct: bool,
}

impl TaskOutcome {
    /// The engine's outcome-table slot of a task with no accepted
    /// outcome: an accepted attempt ran on at least one device, so an
    /// empty device list marks the slot vacant.
    pub(crate) const VACANT: TaskOutcome = TaskOutcome {
        task: TaskId(0),
        devices: ReplicaDevices {
            devices: [0; crate::replication::MAX_REPLICAS],
            len: 0,
        },
        start: Seconds::ZERO,
        finish: Seconds::ZERO,
        correct: false,
    };

    pub(crate) fn is_vacant(&self) -> bool {
        self.devices.len == 0
    }
}

/// Slots per chunk of an outcome table: the most one write to a shared
/// table copies. A report's snapshot bumps one count per chunk, so a
/// chunk must be large next to a task; 4096 × 64 B is 256 KiB, small
/// next to a service's history.
const CHUNK: usize = 4096;
const CHUNK_SHIFT: u32 = CHUNK.trailing_zeros();

/// Accepted outcomes in task-id order, one per task that completed
/// (failed, poisoned and not yet executed tasks are absent).
///
/// A snapshot: what a [`RunReport`] holds never changes after
/// [`Runtime::report`] returned it, whatever the runtime does next. It
/// reads like a slice (`len`, `get`, `iter`, indexing, `for p in &…`)
/// and cloning it shares its storage.
///
/// The outcomes live in chunks of 4096 slots, each shared by reference
/// count. The engine keeps its outcome table in this same type, and a
/// report taken while every slot of the table is filled shares the
/// table's chunks uncopied. The engine copies a chunk at its next write
/// to it (growth at a run or step, an acceptance or a rollback), and
/// only if such a snapshot still holds it then: a held report costs at
/// most the chunks the engine writes afterwards, not the history.
#[derive(Clone, Default)]
pub struct Placements {
    /// Chunks before `len / CHUNK` are full, chunk `len / CHUNK` (when
    /// present) holds the rest, and any after it are empty ones
    /// [`Placements::reserve`] opened.
    chunks: Vec<Arc<Vec<TaskOutcome>>>,
    len: usize,
}

impl Placements {
    /// Number of outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no outcomes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th outcome, `None` past the end.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&TaskOutcome> {
        (i < self.len).then(|| &self.chunks[i >> CHUNK_SHIFT][i % CHUNK])
    }

    /// The outcomes in order.
    pub fn iter(&self) -> PlacementsIter<'_> {
        PlacementsIter {
            chunks: self.chunks.iter(),
            slots: [].iter(),
            left: self.len,
        }
    }

    /// The outcomes copied into one vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<TaskOutcome> {
        let mut all = Vec::with_capacity(self.len);
        all.extend(self.iter());
        all
    }

    /// A snapshot of the table: its chunks that hold slots, shared.
    pub(crate) fn share(&self) -> Placements {
        Placements {
            chunks: self.chunks[..self.len.div_ceil(CHUNK)].to_vec(),
            len: self.len,
        }
    }

    /// Slot `i` for writing; the one chunk holding it is copied first
    /// if a snapshot shares it.
    pub(crate) fn slot_mut(&mut self, i: usize) -> &mut TaskOutcome {
        &mut Arc::make_mut(&mut self.chunks[i >> CHUNK_SHIFT])[i % CHUNK]
    }

    /// Add vacant slots until the table holds `len` in all.
    pub(crate) fn grow(&mut self, len: usize) {
        while self.len < len {
            let c = self.len >> CHUNK_SHIFT;
            let end = (len - (c << CHUNK_SHIFT)).min(CHUNK);
            self.chunk_mut(c, end).resize(end, TaskOutcome::VACANT);
            self.len = (c << CHUNK_SHIFT) + end;
        }
    }

    /// Open every chunk that `additional` more slots will fill, each
    /// with room for its share of them.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let len = self.len + additional;
        let mut c = self.len >> CHUNK_SHIFT;
        while c << CHUNK_SHIFT < len {
            self.chunk_mut(c, (len - (c << CHUNK_SHIFT)).min(CHUNK));
            c += 1;
        }
    }

    /// Chunk `c` (at most one past the last) for writing, with room for
    /// `end` slots: opened exactly sized when absent, grown by doubling
    /// up to [`CHUNK`] when short, and copied first, at that capacity,
    /// when a snapshot shares it.
    fn chunk_mut(&mut self, c: usize, end: usize) -> &mut Vec<TaskOutcome> {
        if c == self.chunks.len() {
            self.chunks.push(Arc::new(Vec::with_capacity(end)));
        }
        let chunk = &mut self.chunks[c];
        let room = chunk.capacity();
        let capacity = if room >= end {
            room
        } else {
            end.max(2 * room).min(CHUNK)
        };
        // No `Weak` to a chunk is ever made, so one strong count means
        // unshared.
        if Arc::strong_count(chunk) > 1 {
            let mut own = Vec::with_capacity(capacity);
            own.extend_from_slice(chunk);
            *chunk = Arc::new(own);
        }
        let chunk = Arc::get_mut(chunk).expect("unshared after the copy");
        chunk.reserve_exact(capacity - chunk.len());
        chunk
    }

    /// The filled slots of an outcome table, `filled` of them, in exactly
    /// sized chunks of their own.
    pub(crate) fn compact(&self, filled: usize) -> Placements {
        let mut slots = self.iter().filter(|o| !o.is_vacant());
        let mut own = Placements::default();
        while own.len < filled {
            let n = (filled - own.len).min(CHUNK);
            let mut chunk = Vec::with_capacity(n);
            chunk.extend(slots.by_ref().take(n));
            debug_assert_eq!(chunk.len(), n);
            own.chunks.push(Arc::new(chunk));
            own.len += n;
        }
        debug_assert!(slots.next().is_none(), "{filled} filled slots");
        own
    }
}

impl std::ops::Index<usize> for Placements {
    type Output = TaskOutcome;

    fn index(&self, i: usize) -> &TaskOutcome {
        self.get(i)
            .unwrap_or_else(|| panic!("placement {i} of {}", self.len))
    }
}

impl<'a> IntoIterator for &'a Placements {
    type Item = &'a TaskOutcome;
    type IntoIter = PlacementsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Placements {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Placements {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over [`Placements`], in task-id order.
#[derive(Clone, Debug)]
pub struct PlacementsIter<'a> {
    chunks: std::slice::Iter<'a, Arc<Vec<TaskOutcome>>>,
    slots: std::slice::Iter<'a, TaskOutcome>,
    left: usize,
}

impl<'a> Iterator for PlacementsIter<'a> {
    type Item = &'a TaskOutcome;

    fn next(&mut self) -> Option<&'a TaskOutcome> {
        loop {
            if let Some(slot) = self.slots.next() {
                self.left -= 1;
                return Some(slot);
            }
            self.slots = self.chunks.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, &'a TaskOutcome) -> B,
    {
        let acc = self.slots.fold(init, &mut f);
        self.chunks
            .fold(acc, |acc, chunk| chunk.iter().fold(acc, &mut f))
    }
}

impl ExactSizeIterator for PlacementsIter<'_> {}

impl std::iter::FusedIterator for PlacementsIter<'_> {}

/// Result of a full run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[must_use = "a run report carries the outcome of every task; dropping it unread discards the run"]
pub struct RunReport {
    /// Completion time of the last task.
    pub makespan: Seconds,
    /// Energy spent executing tasks (busy power).
    pub busy_energy: Joule,
    /// Busy energy plus idle draw of every device over the makespan.
    pub total_energy: Joule,
    /// Per-task outcomes in submission order (skipped/poisoned tasks are
    /// absent), as they stood when the report was taken: a snapshot
    /// that later runs, submissions and rollbacks leave as it is. Taking
    /// it copies no outcome when every submitted task has an accepted
    /// one; see [`Placements`] for what a held report costs.
    pub placements: Placements,
    /// Replication statistics.
    pub stats: ReplicationStats,
    /// Tasks that exhausted their retry budget (their dependents were
    /// poisoned and skipped), in submission order.
    pub failed: Vec<TaskId>,
    /// Checkpoint/restart counters; `Some` exactly when the runtime was
    /// built with a [`ResilienceConfig`](crate::resilience::ResilienceConfig)
    /// ([`EngineConfig::with_resilience`](crate::config::EngineConfig::with_resilience)).
    pub resilience: Option<ResilienceStats>,
    /// Security counters; `Some` exactly when the run executed
    /// confidential tasks — the security layer is pay-for-what-you-use,
    /// and an all-public run reports `None`.
    pub security: Option<SecurityStats>,
    /// Energy counters; `Some` exactly when the runtime was built with
    /// an [`EnergyConfig`](crate::energy::EnergyConfig)
    /// ([`EngineConfig::with_energy`](crate::config::EngineConfig::with_energy)).
    pub energy: Option<EnergyStats>,
    /// The static analysis report; `Some` exactly when the runtime was
    /// built with an [`AnalysisConfig`](crate::analyze::AnalysisConfig)
    /// ([`EngineConfig::with_analysis`](crate::config::EngineConfig::with_analysis))
    /// and the run started. In warn-only mode this is where findings
    /// surface; in enforce mode a report that reaches a `RunReport` is
    /// warning-only by construction (errors refuse the run).
    pub analysis: Option<AnalysisReport>,
    /// Malleability counters; `Some` exactly when the runtime was built
    /// with a [`ChurnConfig`](crate::churn::ChurnConfig)
    /// ([`EngineConfig::with_churn`](crate::config::EngineConfig::with_churn)).
    pub churn: Option<ChurnStats>,
}

impl RunReport {
    /// Whether every executed task finished with the correct value and
    /// nothing failed.
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.failed.is_empty() && self.stats.is_correct()
    }
}

/// The task runtime: a device set, a policy, a dataflow graph, a fault
/// model, and the persistent state of the event-driven engine.
#[derive(Debug, Clone)]
pub struct Runtime {
    pub(crate) devices: Vec<Device>,
    /// The fleet deduplicated by spec: what the placement search and
    /// the security plan price once per class.
    pub(crate) classes: SpecClasses,
    pub(crate) fault_probs: Vec<f64>,
    pub(crate) graph: TaskGraph,
    pub(crate) policy: Policy,
    pub(crate) max_retries: u32,
    pub(crate) rng: SmallRng,
    pub(crate) engine: EngineState,
    pub(crate) resilience: Option<ResilienceState>,
    pub(crate) security: SecurityState,
    pub(crate) energy: EnergyState,
    /// The placement search's class-sharded pools: one pool without a
    /// [`PoolConfig`](crate::pool::PoolConfig).
    pub(crate) pools: DevicePools,
    /// Topology cost model (configured only together with pools).
    pub(crate) topology: Option<TopologyConfig>,
    /// The one size declaration; read by [`Runtime::resolve_sizes`] and
    /// the analyzer only.
    pub(crate) region_sizes: RegionSizes,
    /// Every region's size and residency, by slot.
    pub(crate) regions: RegionTable,
    /// Static analysis configuration and the fold over the graph so far;
    /// `None` = analysis off.
    pub(crate) analysis: Option<AnalysisState>,
    /// Churn trace, live masks and deferred placements; `None` = the
    /// fleet is fixed for the runtime's lifetime.
    pub(crate) churn: Option<ChurnState>,
}

impl Runtime {
    /// Create a runtime over `specs` with a scheduling `policy` and a
    /// deterministic `seed` for the fault model. A spec the cost model
    /// cannot price (a zero, negative or non-finite rate or power) is
    /// reported by [`Runtime::run`] / [`Runtime::step`];
    /// [`EngineConfig::build`](crate::config::EngineConfig::build)
    /// refuses it up front.
    #[must_use]
    pub fn new(specs: Vec<DeviceSpec>, policy: Policy, seed: u64) -> Self {
        let devices = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| Device::new(DeviceId(i as u64), s))
            .collect::<Vec<_>>();
        let classes = SpecClasses::new(&devices);
        Runtime {
            fault_probs: vec![0.0; devices.len()],
            pools: DevicePools::one_pool(&classes, &devices),
            classes,
            devices,
            graph: TaskGraph::new(),
            policy,
            max_retries: 3,
            rng: SmallRng::seed_from_u64(seed),
            engine: EngineState::default(),
            resilience: None,
            security: SecurityState::default(),
            energy: EnergyState::default(),
            topology: None,
            region_sizes: RegionSizes::new(),
            regions: RegionTable::default(),
            analysis: None,
            churn: None,
        }
    }

    /// Run the static analyzer over the current graph and pillar
    /// configuration, returning the report without touching engine
    /// state. Works whether or not the runtime was built with an
    /// [`AnalysisConfig`](crate::analyze::AnalysisConfig)
    /// ([`EngineConfig::with_analysis`](crate::config::EngineConfig::with_analysis)),
    /// so ad-hoc callers (benches, CI drivers) can lint any runtime.
    /// Placement feasibility is judged on the fleet as it stands: under
    /// churn, the devices available now and the arrivals its trace
    /// holds.
    pub fn analyze(&self) -> AnalysisReport {
        let mut fresh = AnalysisState::default();
        fresh.extend(&self.analysis_context());
        fresh.report().expect("a folded state has a report")
    }

    /// What the analyzer reads of this runtime.
    pub(crate) fn analysis_context(&self) -> AnalysisContext<'_> {
        AnalysisContext {
            graph: &self.graph,
            classes: &self.classes,
            churn: self.churn.as_ref(),
            objective: self.energy.objective,
            region_sizes: self.resilience.is_some().then_some(&self.region_sizes),
        }
    }

    /// Security counters accumulated by the engine so far (also part of
    /// [`RunReport`]).
    pub fn security_stats(&self) -> SecurityStats {
        self.security.stats
    }

    /// The rollbacks performed so far, in order — a deterministic trace:
    /// the same seed and submissions produce the identical sequence.
    /// Empty when resilience is disabled.
    #[must_use]
    pub fn rollback_trace(&self) -> &[RollbackEvent] {
        self.resilience.as_ref().map_or(&[], |r| r.trace.as_slice())
    }

    /// Work rollbacks have done so far: tasks whose state the graph
    /// recomputed plus acceptance-log entries read. Deterministic,
    /// lifetime-cumulative and in no report — the observable that
    /// rollback cost follows what was discarded since the checkpoint,
    /// not the size of the graph.
    #[must_use]
    pub fn rollback_visits(&self) -> u64 {
        self.graph.rollback_visits() + self.resilience.as_ref().map_or(0, |r| r.log_visits)
    }

    /// Virtual time at which the last checkpoint (the current restore
    /// target) was committed; `None` before the first run plans its
    /// interval or when resilience is disabled.
    #[must_use]
    pub fn last_checkpoint_time(&self) -> Option<Seconds> {
        self.resilience
            .as_ref()
            .and_then(|r| r.last.as_ref())
            .map(|c| c.time)
    }

    /// The Young checkpoint interval planned for the current run; `None`
    /// before the first run plans it or when resilience is disabled.
    ///
    /// With the energy layer active, aggressive operating points raise
    /// the planned fault rate and *shorten* this interval — the
    /// undervolting/checkpointing co-optimization made observable.
    #[must_use]
    pub fn checkpoint_interval(&self) -> Option<Seconds> {
        self.resilience.as_ref().and_then(|r| r.interval)
    }

    /// The scheduling policy in force.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Set the per-execution fault probability of device `idx` (silent
    /// data corruption model, e.g. an FPGA run below `Vmin`).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or `p` not in `[0, 1]`. This one
    /// still panics rather than returning a [`RuntimeError`] because the
    /// benchmark package calls it as is; it moves to `Result` together
    /// with those callers.
    pub fn set_fault_prob(&mut self, idx: usize, p: f64) {
        assert!(idx < self.devices.len(), "device {idx} out of range");
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.fault_probs[idx] = p;
    }

    /// Submit a task with data-access annotations; returns its id.
    ///
    /// Submission can happen at any point, including while a run is in
    /// progress (between [`Runtime::step`] calls or between
    /// [`Runtime::run`] calls): a task that is immediately ready joins
    /// the schedule at the engine's current virtual time, and a pending
    /// task is scheduled the moment its last dependence completes.
    pub fn submit<I, R>(&mut self, descriptor: TaskDescriptor, accesses: I) -> TaskId
    where
        I: IntoIterator<Item = (R, AccessMode)>,
        R: Into<RegionId>,
    {
        let seals = descriptor.requirements.security.seals_at_rest();
        let id = self.graph.add_task(descriptor, accesses);
        self.admit(seals, id.index());
        id
    }

    /// Submit a task with *explicit* predecessors instead of inferred
    /// dependences — the tenant-submitted-DAG entry point
    /// ([`TaskGraph::add_task_with_deps`]): region accesses still feed
    /// liveness and later inference, but this task's ordering is exactly
    /// `deps`. The graph accepts under-ordered DAGs without complaint —
    /// racy or leaky submissions are what the static analyzer
    /// ([`EngineConfig::with_analysis`](crate::config::EngineConfig::with_analysis))
    /// exists to catch before the run starts.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Graph`] when a dependence names a task that has
    /// not been submitted (forward edges would break acyclicity).
    ///
    /// [`TaskGraph::add_task_with_deps`]: legato_core::graph::TaskGraph::add_task_with_deps
    pub fn submit_with_deps<I, R>(
        &mut self,
        descriptor: TaskDescriptor,
        accesses: I,
        deps: &[TaskId],
    ) -> Result<TaskId, RuntimeError>
    where
        I: IntoIterator<Item = (R, AccessMode)>,
        R: Into<RegionId>,
    {
        let seals = descriptor.requirements.security.seals_at_rest();
        let id = self.graph.add_task_with_deps(descriptor, accesses, deps)?;
        self.admit(seals, id.index());
        Ok(id)
    }

    /// Pre-size the graph for a workload of known scale: reserves node
    /// and edge storage (and the engine's outcome table and acceptance
    /// log) so a large streaming submission (100k–1M tasks) does not pay
    /// amortized regrowth. Purely an optimization — the resulting
    /// schedule is identical with or without the call. On an empty
    /// runtime the graph's share waits for the first submission, so a
    /// following [`Runtime::submit_batch`] moves its builder's columns
    /// in without a reservation beside them (see
    /// [`TaskGraph::reserve`](legato_core::graph::TaskGraph::reserve)).
    pub fn reserve(&mut self, tasks: usize, edges: usize) {
        self.graph.reserve(tasks, edges);
        self.engine.reserve(tasks);
    }

    /// Submit a batch of tasks buffered in a
    /// [`GraphBuilder`](legato_core::graph::GraphBuilder) in one bulk
    /// operation: the graph's edge storage is sized exactly before any
    /// task is wired, which is substantially cheaper than task-by-task
    /// [`Runtime::submit`] on 100k+-task graphs. Semantically identical
    /// to submitting the builder's tasks in order; returns the id range
    /// assigned to the batch.
    pub fn submit_batch(
        &mut self,
        builder: legato_core::graph::GraphBuilder,
    ) -> std::ops::Range<u64> {
        let seals = builder
            .descriptors()
            .iter()
            .any(|d| d.requirements.security.seals_at_rest());
        let first = self.graph.len();
        builder.build_into(&mut self.graph);
        self.admit(seals, first)
    }

    /// The tail of every submission, for the tasks from `first` on: a
    /// task that `seals` at rest activates the security layer (platforms
    /// on TEE devices, producer tracking; all-public runs never reach
    /// it), and each ready task joins the ready queue.
    fn admit(&mut self, seals: bool, first: usize) -> std::ops::Range<u64> {
        if seals {
            self.security.activate(&self.devices);
        }
        for i in first..self.graph.len() {
            let id = TaskId(i as u64);
            if self.graph.state(id) == Ok(TaskState::Ready) {
                self.engine.push_ready(id);
            }
        }
        first as u64..self.graph.len() as u64
    }

    /// Copy the declared size of each region interned since the last
    /// call into the region table by slot — the one lookup by region id,
    /// made only where a size reader is about to read.
    pub(crate) fn resolve_sizes(&mut self) {
        let (sizes, known) = (&self.region_sizes, self.regions.sizes.len());
        if !sizes.is_empty() {
            let fresh = self.graph.regions()[known..].iter();
            let bytes = fresh.map(|r| sizes.get(r).copied().unwrap_or_default());
            self.regions.sizes.extend(bytes);
        }
    }

    /// Per-device placement evaluations performed so far (each is one
    /// estimate plus scoring). A placement evaluates every live eligible
    /// device unless it prunes, which it does on a runtime built with
    /// [`EngineConfig::with_pools`](crate::config::EngineConfig::with_pools)
    /// when no security plan or Pareto objective is in force: it skips
    /// shards whose score lower bound cannot reach the top-k, so this
    /// counter is the sub-linearity observable — deliberately kept out
    /// of [`RunReport`] so reports with and without pools stay
    /// comparable bit for bit.
    #[must_use]
    pub fn placement_evals(&self) -> u64 {
        self.engine.sched_evals
    }

    /// The underlying dataflow graph.
    #[must_use]
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The devices, with their accumulated energy meters.
    #[must_use]
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }
}

/// The golden (fault-free) result value of a task: a SplitMix64 hash of
/// its id, so replicas agree exactly unless corrupted.
pub(crate) fn golden_value(task: TaskId) -> u64 {
    let mut z = task.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use legato_core::requirements::{Criticality, Requirements};
    use legato_core::task::{TaskKind, Work};
    use legato_core::units::Bytes;

    fn specs() -> Vec<DeviceSpec> {
        vec![
            DeviceSpec::xeon_x86(),
            DeviceSpec::gtx1080(),
            DeviceSpec::fpga_kintex(),
        ]
    }

    fn chain(rt: &mut Runtime, n: usize, crit: Criticality) -> Vec<TaskId> {
        (0..n)
            .map(|_| {
                rt.submit(
                    TaskDescriptor::named("t")
                        .with_kind(TaskKind::Compute)
                        .with_work(Work::flops(1e9))
                        .with_requirements(Requirements::new().with_criticality(crit)),
                    [(0u64, AccessMode::InOut)],
                )
            })
            .collect()
    }

    #[test]
    fn empty_runtime_runs_empty_report() {
        let mut rt = Runtime::new(specs(), Policy::Performance, 1);
        let rep = rt.run().unwrap();
        assert_eq!(rep.makespan, Seconds::ZERO);
        assert!(rep.placements.is_empty());
        assert!(rep.is_correct());
    }

    #[test]
    fn no_devices_is_an_error() {
        let mut rt = Runtime::new(vec![], Policy::Performance, 1);
        assert_eq!(rt.run(), Err(RuntimeError::NoDevices));
    }

    #[test]
    fn invalid_weight_is_an_error_not_a_panic() {
        let mut rt = Runtime::new(specs(), Policy::Weighted(2.0), 1);
        chain(&mut rt, 2, Criticality::Normal);
        assert_eq!(rt.run(), Err(RuntimeError::InvalidWeight(2.0)));
        // Both entry points refuse before the first placement, whose
        // `Weighted` prune is exact only for a weight in [0, 1]; NaN too.
        for w in [2.0, -0.5, f64::NAN] {
            for stepped in [false, true] {
                let mut rt = Runtime::new(specs(), Policy::Weighted(w), 1);
                chain(&mut rt, 2, Criticality::Normal);
                let refused = if stepped {
                    rt.step().map(|_| ())
                } else {
                    rt.run().map(|_| ())
                };
                assert!(
                    matches!(refused, Err(RuntimeError::InvalidWeight(got)) if got.to_bits() == w.to_bits()),
                    "w {w}, stepped {stepped}: {refused:?}"
                );
                assert_eq!(rt.placement_evals(), 0, "w {w}: nothing was placed");
                assert!(rt.report().placements.is_empty());
            }
        }
    }

    #[test]
    fn chain_executes_in_order() {
        let mut rt = Runtime::new(specs(), Policy::Performance, 1);
        chain(&mut rt, 5, Criticality::Normal);
        let rep = rt.run().unwrap();
        assert_eq!(rep.placements.len(), 5);
        for w in rep.placements.to_vec().windows(2) {
            assert!(w[1].start >= w[0].finish);
        }
        assert!(rep.is_correct());
    }

    #[test]
    fn independent_tasks_spread_across_devices() {
        let mut rt = Runtime::new(specs(), Policy::Performance, 1);
        for i in 0..6u64 {
            rt.submit(
                TaskDescriptor::named("p").with_work(Work::flops(5e10)),
                [(i, AccessMode::Out)],
            );
        }
        let rep = rt.run().unwrap();
        let used: std::collections::HashSet<usize> =
            rep.placements.iter().map(|p| p.devices[0]).collect();
        assert!(used.len() > 1, "work should spread, used {used:?}");
    }

    #[test]
    fn energy_policy_cuts_energy_vs_performance_policy() {
        let build = |policy| {
            let mut rt = Runtime::new(specs(), policy, 1);
            for i in 0..12u64 {
                rt.submit(
                    TaskDescriptor::named("nn")
                        .with_kind(TaskKind::Inference)
                        .with_work(Work::flops(66e9)),
                    [(i, AccessMode::Out)],
                );
            }
            rt.run().unwrap()
        };
        let perf = build(Policy::Performance);
        let green = build(Policy::Energy);
        assert!(
            green.busy_energy.0 < perf.busy_energy.0,
            "energy policy: {} vs {}",
            green.busy_energy,
            perf.busy_energy
        );
        assert!(green.makespan >= perf.makespan);
    }

    #[test]
    fn critical_tasks_replicate_on_distinct_devices() {
        let mut rt = Runtime::new(specs(), Policy::Performance, 1);
        rt.submit(
            TaskDescriptor::named("crit")
                .with_work(Work::flops(1e9))
                .with_requirements(Requirements::new().with_criticality(Criticality::Critical)),
            [(0u64, AccessMode::Out)],
        );
        let rep = rt.run().unwrap();
        let devices = &rep.placements[0].devices;
        assert_eq!(devices.len(), 3);
        let unique: std::collections::HashSet<_> = devices.iter().collect();
        assert_eq!(unique.len(), 3, "replicas must use distinct devices");
        assert_eq!(rep.stats.replica_executions, 2);
    }

    #[test]
    fn faults_without_replication_are_silent() {
        let mut rt = Runtime::new(specs(), Policy::Performance, 42);
        rt.set_fault_prob(0, 1.0);
        rt.set_fault_prob(1, 1.0);
        rt.set_fault_prob(2, 1.0);
        chain(&mut rt, 4, Criticality::Normal);
        let rep = rt.run().unwrap();
        assert_eq!(rep.stats.silent_corruptions, 4);
        assert!(!rep.is_correct());
        assert!(rep.failed.is_empty(), "silent faults do not fail tasks");
    }

    #[test]
    fn triple_replication_masks_single_device_faults() {
        let mut rt = Runtime::new(specs(), Policy::Performance, 42);
        // Only the GPU is flaky; majority vote should mask it every time.
        rt.set_fault_prob(1, 1.0);
        chain(&mut rt, 6, Criticality::Critical);
        let rep = rt.run().unwrap();
        assert!(rep.is_correct(), "stats: {:?}", rep.stats);
        assert_eq!(rep.stats.masked, 6);
        assert_eq!(rep.stats.silent_corruptions, 0);
    }

    #[test]
    fn dual_replication_detects_and_retries() {
        let mut rt = Runtime::new(specs(), Policy::Performance, 7);
        // Moderate fault rate on the GPU — the fastest device for this
        // work, so it is always in the replica set: mismatches occur but
        // retries eventually succeed.
        rt.set_fault_prob(1, 0.5);
        chain(&mut rt, 8, Criticality::High);
        let rep = rt.run().unwrap();
        assert!(rep.stats.detected > 0, "stats {:?}", rep.stats);
        assert_eq!(rep.stats.silent_corruptions, 0);
    }

    #[test]
    fn unmaskable_faults_fail_and_poison() {
        let mut rt = Runtime::new(specs(), Policy::Performance, 3);
        // Every device always faults: dual replication can never agree.
        for i in 0..3 {
            rt.set_fault_prob(i, 1.0);
        }
        let ids = chain(&mut rt, 3, Criticality::High);
        let rep = rt.run().unwrap();
        assert_eq!(rep.failed, vec![ids[0]]);
        // Dependents were poisoned, not executed.
        assert_eq!(rep.placements.len(), 0);
        assert!(!rep.is_correct());
    }

    #[test]
    fn total_energy_includes_idle() {
        let mut rt = Runtime::new(specs(), Policy::Performance, 1);
        chain(&mut rt, 3, Criticality::Normal);
        let rep = rt.run().unwrap();
        assert!(rep.total_energy.0 > rep.busy_energy.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut rt = Runtime::new(specs(), Policy::Weighted(0.5), seed);
            rt.set_fault_prob(0, 0.3);
            chain(&mut rt, 10, Criticality::High);
            rt.run().unwrap()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn streaming_submission_joins_run_in_progress() {
        let mut rt = Runtime::new(specs(), Policy::Performance, 1);
        let first = chain(&mut rt, 3, Criticality::Normal);
        // Drive the run partway: two events (first ready + first finish).
        assert!(rt.step().unwrap().is_some());
        assert!(rt.step().unwrap().is_some());
        // Submit more work *while the run is in progress*: one task
        // extending the existing chain, one independent task.
        let submitted_at = rt.now();
        assert!(submitted_at > Seconds::ZERO, "run must be in progress");
        let late_chain = rt.submit(
            TaskDescriptor::named("late").with_work(Work::flops(1e9)),
            [(0u64, AccessMode::InOut)],
        );
        let late_free = rt.submit(
            TaskDescriptor::named("free").with_work(Work::flops(1e9)),
            [(99u64, AccessMode::Out)],
        );
        let rep = rt.run().unwrap();
        assert_eq!(rep.placements.len(), 5);
        assert!(rep.is_correct());
        // The chain extension still ran after its predecessor.
        let finish_of = |id: TaskId| {
            rep.placements
                .iter()
                .find(|p| p.task == id)
                .map(|p| p.finish)
                .unwrap()
        };
        let start_of = |id: TaskId| {
            rep.placements
                .iter()
                .find(|p| p.task == id)
                .map(|p| p.start)
                .unwrap()
        };
        assert!(start_of(late_chain) >= finish_of(first[2]));
        // The independent latecomer starts no earlier than the virtual
        // time at which it was submitted.
        assert!(
            start_of(late_free) >= submitted_at,
            "latecomer started {} before its submission time {}",
            start_of(late_free),
            submitted_at
        );
    }

    #[test]
    fn repeated_runs_extend_the_same_report() {
        let mut rt = Runtime::new(specs(), Policy::Performance, 1);
        chain(&mut rt, 2, Criticality::Normal);
        let first = rt.run().unwrap();
        assert_eq!(first.placements.len(), 2);
        chain(&mut rt, 2, Criticality::Normal);
        let second = rt.run().unwrap();
        assert_eq!(second.placements.len(), 4, "report is cumulative");
        assert!(second.makespan >= first.makespan);
        assert!(!rt.has_pending_events());
    }

    #[test]
    fn step_on_idle_engine_returns_none() {
        let mut rt = Runtime::new(specs(), Policy::Performance, 1);
        assert_eq!(rt.step().unwrap(), None);
        chain(&mut rt, 1, Criticality::Normal);
        while rt.step().unwrap().is_some() {}
        assert_eq!(rt.step().unwrap(), None);
        assert_eq!(rt.now(), rt.report().makespan);
    }

    fn resilient_config(mtbf: f64) -> crate::resilience::ResilienceConfig {
        crate::resilience::ResilienceConfig::new(Seconds(mtbf))
    }

    /// [`specs`] with 64 regions of 16 MiB declared.
    fn sized_engine() -> crate::config::EngineConfig {
        let sizes = (0..64u64).map(|r| (RegionId(r), Bytes::mib(16))).collect();
        crate::config::EngineConfig::new()
            .with_devices(specs())
            .with_region_sizes(sizes)
    }

    fn resilient_rt(
        seed: u64,
        policy: Policy,
        config: crate::resilience::ResilienceConfig,
    ) -> Runtime {
        sized_engine()
            .with_policy(policy)
            .with_seed(seed)
            .with_resilience(config)
            .build()
            .expect("valid engine config")
    }

    /// A serial chain of seconds-scale tasks (the resilience tests need
    /// virtual times comparable to checkpoint intervals and MTBFs).
    fn heavy_chain(rt: &mut Runtime, n: usize, crit: Criticality) -> Vec<TaskId> {
        (0..n)
            .map(|_| {
                rt.submit(
                    TaskDescriptor::named("t")
                        .with_kind(TaskKind::Compute)
                        .with_work(Work::flops(2e12))
                        .with_requirements(Requirements::new().with_criticality(crit)),
                    [(0u64, AccessMode::InOut)],
                )
            })
            .collect()
    }

    #[test]
    fn fault_free_resilient_run_checkpoints_without_rollbacks() {
        let mut rt = resilient_rt(1, Policy::Performance, resilient_config(5.0));
        heavy_chain(&mut rt, 40, Criticality::Normal);
        let rep = rt.run().unwrap();
        assert!(rep.is_correct());
        assert_eq!(rep.placements.len(), 40);
        let res = rep.resilience.expect("resilience enabled");
        assert_eq!(res.rollbacks, 0);
        assert!(
            res.checkpoints > 0,
            "long chain must cross several intervals: {res:?}"
        );
        assert!(res.checkpoint_bytes > legato_core::units::Bytes::ZERO);
        assert!(rt.last_checkpoint_time().is_some());
        assert!(rt.rollback_trace().is_empty());
    }

    #[test]
    fn exhausted_retries_roll_back_and_complete_instead_of_poisoning() {
        let build = |resilient: bool| {
            let mut cfg = sized_engine()
                .with_policy(Policy::Performance)
                .with_seed(11)
                .with_max_retries(1);
            if resilient {
                cfg = cfg.with_resilience(resilient_config(5.0).with_max_rollbacks(500));
            }
            let mut rt = cfg.build().expect("valid engine config");
            // The GPU is the fastest device and always in the replica
            // set; a high fault rate with a tight retry budget exhausts
            // retries on some tasks.
            rt.set_fault_prob(1, 0.85);
            heavy_chain(&mut rt, 12, Criticality::High);
            rt
        };
        let mut plain = build(false);
        let baseline = plain.run().unwrap();
        assert!(
            !baseline.failed.is_empty(),
            "fault rate must exhaust the retry budget somewhere: {:?}",
            baseline.stats
        );
        assert!(baseline.placements.len() < 12, "cone must be poisoned");

        let mut resilient = build(true);
        let rep = resilient.run().unwrap();
        assert!(rep.failed.is_empty(), "rollback must recover: {rep:?}");
        assert_eq!(rep.placements.len(), 12);
        assert!(resilient.graph().is_complete());
        let res = rep.resilience.expect("resilience enabled");
        assert!(res.rollbacks > 0);
        assert_eq!(res.rollbacks as usize, resilient.rollback_trace().len());
        // Rolled-back work is accounted and the makespan pays for it.
        assert!(res.wasted_work >= Seconds::ZERO);
        assert!(rep.makespan > baseline.makespan);
    }

    #[test]
    fn rollback_budget_falls_back_to_fail_and_poison() {
        let mut rt = resilient_rt(
            3,
            Policy::Performance,
            resilient_config(5.0).with_max_rollbacks(4),
        );
        // Every device always faults: dual replication can never agree,
        // so every rollback replays the same doomed task.
        for i in 0..3 {
            rt.set_fault_prob(i, 1.0);
        }
        let ids = heavy_chain(&mut rt, 3, Criticality::High);
        let rep = rt.run().unwrap();
        assert_eq!(
            rep.resilience.expect("resilience enabled").rollbacks,
            4,
            "budget must bound rollbacks"
        );
        assert_eq!(rep.failed, vec![ids[0]]);
        assert_eq!(rep.placements.len(), 0);
    }

    #[test]
    fn resilient_run_is_deterministic() {
        let run = |seed| {
            let mut rt = sized_engine()
                .with_policy(Policy::Weighted(0.5))
                .with_seed(seed)
                .with_max_retries(1)
                .with_resilience(resilient_config(5.0))
                .build()
                .expect("valid engine config");
            rt.set_fault_prob(1, 0.7);
            heavy_chain(&mut rt, 15, Criticality::High);
            let rep = rt.run().unwrap();
            (rep, rt.rollback_trace().to_vec())
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn invalid_mtbf_is_an_error_not_a_panic() {
        let mut rt = resilient_rt(
            1,
            Policy::Performance,
            crate::resilience::ResilienceConfig::new(Seconds(-5.0)),
        );
        chain(&mut rt, 2, Criticality::Normal);
        assert!(matches!(rt.run(), Err(RuntimeError::Resilience(_))));
    }

    #[test]
    fn checkpoint_chain_survives_a_second_run() {
        let mut rt = resilient_rt(1, Policy::Performance, resilient_config(5.0));
        heavy_chain(&mut rt, 30, Criticality::Normal);
        let first = rt.run().unwrap().resilience.expect("resilience enabled");
        assert!(first.checkpoints > 0);
        heavy_chain(&mut rt, 30, Criticality::Normal);
        let second = rt.run().unwrap().resilience.expect("resilience enabled");
        assert!(
            second.checkpoints > first.checkpoints,
            "a later run must keep checkpointing: {first:?} then {second:?}"
        );
    }

    mod security {
        use super::*;
        use crate::resilience::ResilienceConfig;
        use legato_core::requirements::SecurityLevel;
        use legato_core::units::Bytes;
        use legato_hw::device::TeeCapability;
        use std::collections::HashMap;

        /// xeon (TEE, hw crypto) + gtx1080 (no TEE) + arm64 (TEE, sw
        /// crypto) — the same mix the module tests use.
        fn specs() -> Vec<DeviceSpec> {
            vec![
                DeviceSpec::xeon_x86(),
                DeviceSpec::gtx1080(),
                DeviceSpec::arm64(),
            ]
        }

        fn sizes() -> HashMap<RegionId, Bytes> {
            (0..32u64).map(|r| (RegionId(r), Bytes::mib(32))).collect()
        }

        fn secure_rt(seed: u64) -> Runtime {
            crate::config::EngineConfig::new()
                .with_devices(specs())
                .with_policy(Policy::Performance)
                .with_seed(seed)
                .with_region_sizes(sizes())
                .build()
                .expect("valid engine config")
        }

        fn submit_leveled(rt: &mut Runtime, region: u64, level: SecurityLevel, kind: TaskKind) {
            rt.submit(
                TaskDescriptor::named("sec")
                    .with_kind(kind)
                    .with_work(Work::flops(66e9))
                    .with_requirements(Requirements::new().with_security(level)),
                [(region, AccessMode::InOut)],
            );
        }

        #[test]
        fn enclave_tasks_never_land_on_non_tee_devices() {
            let mut rt = secure_rt(1);
            // Inference work: the GPU would win every placement if
            // confidentiality did not restrict it.
            for i in 0..12u64 {
                submit_leveled(&mut rt, i, SecurityLevel::Enclave, TaskKind::Inference);
            }
            let rep = rt.run().expect("devices present");
            assert_eq!(rep.placements.len(), 12);
            let tee: Vec<usize> = rt
                .devices()
                .iter()
                .enumerate()
                .filter(|(_, d)| d.spec.tee.has_enclave())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(tee, vec![0, 2]);
            for p in &rep.placements {
                for &d in &p.devices {
                    assert!(
                        tee.contains(&d),
                        "enclave task {} placed on non-TEE device {d}",
                        p.task
                    );
                }
            }
            let sec = rep.security.expect("confidential tasks ran");
            assert_eq!(sec.enclave_tasks, 12);
            assert!(sec.enclave_time > Seconds::ZERO);
        }

        #[test]
        fn no_tee_device_is_a_hard_error() {
            let mut rt = Runtime::new(
                vec![DeviceSpec::gtx1080(), DeviceSpec::fpga_kintex()],
                Policy::Performance,
                1,
            );
            submit_leveled(&mut rt, 0, SecurityLevel::Enclave, TaskKind::Inference);
            assert!(matches!(rt.run(), Err(RuntimeError::NoSecurePlacement(_))));
            // The unplaceable task was failed, not lost: a follow-up run
            // drains cleanly and reports it.
            let rep = rt.run().expect("graph stays consistent after the error");
            assert_eq!(rep.failed.len(), 1);
            assert!(rep.placements.is_empty());
        }

        #[test]
        fn attestation_charged_once_per_enclave_device_pair() {
            let mut rt = secure_rt(3);
            // 8 instances of the same task type on one region → a serial
            // chain on the TEE devices.
            for _ in 0..8 {
                submit_leveled(&mut rt, 0, SecurityLevel::Enclave, TaskKind::Compute);
            }
            let rep = rt.run().expect("devices present");
            assert_eq!(rep.placements.len(), 8);
            // One code image, at most two TEE devices: the quote cache
            // bounds attestations by the (enclave, device) pairs touched,
            // not by the 8 executions.
            let attestations = rep.security.expect("confidential tasks ran").attestations;
            assert!(
                (1..=2).contains(&attestations),
                "attestations {attestations}"
            );
        }

        #[test]
        fn sealed_region_crossing_devices_pays_seal_costs() {
            let mut rt = secure_rt(5);
            // A confidential producer (lands on a TEE CPU) feeding a
            // GPU-favoured public consumer: the region must cross.
            rt.submit(
                TaskDescriptor::named("producer")
                    .with_kind(TaskKind::Compute)
                    .with_work(Work::flops(1e9))
                    .with_requirements(Requirements::new().with_security(SecurityLevel::Enclave)),
                [(0u64, AccessMode::Out)],
            );
            rt.submit(
                TaskDescriptor::named("consumer")
                    .with_kind(TaskKind::Inference)
                    .with_work(Work::flops(66e9)),
                [(0u64, AccessMode::In), (1u64, AccessMode::Out)],
            );
            let rep = rt.run().expect("devices present");
            assert_eq!(rep.placements.len(), 2);
            let producer_dev = rep.placements[0].devices[0];
            let consumer_dev = rep.placements[1].devices[0];
            assert_ne!(producer_dev, consumer_dev, "the region must cross");
            let sec = rep.security.expect("confidential tasks ran");
            assert_eq!(sec.sealed_bytes, Bytes::mib(32));
            assert!(sec.seal_time > Seconds::ZERO);
        }

        #[test]
        fn all_public_run_keeps_security_stats_zero() {
            let mut rt = secure_rt(7);
            for i in 0..6u64 {
                submit_leveled(&mut rt, i, SecurityLevel::Public, TaskKind::Compute);
            }
            let rep = rt.run().expect("devices present");
            assert!(
                rep.security.is_none(),
                "pay-for-what-you-use: an all-public run reports no security stats"
            );
            assert!(rep.is_correct());
        }

        #[test]
        fn confidential_checkpoints_route_through_seal() {
            let run = |confidential: bool| {
                let mut rt = crate::config::EngineConfig::new()
                    .with_devices(specs())
                    .with_policy(Policy::Performance)
                    .with_seed(9)
                    .with_region_sizes(sizes())
                    .with_resilience(ResilienceConfig::new(Seconds(5.0)))
                    .build()
                    .expect("valid engine config");
                let level = if confidential {
                    SecurityLevel::Confidential
                } else {
                    SecurityLevel::Public
                };
                for _ in 0..30 {
                    rt.submit(
                        TaskDescriptor::named("t")
                            .with_work(Work::flops(2e12))
                            .with_requirements(Requirements::new().with_security(level)),
                        [(0u64, AccessMode::InOut)],
                    );
                }
                rt.run().expect("devices present")
            };
            let plain = run(false);
            let sealed = run(true);
            assert!(plain.resilience.expect("resilience enabled").checkpoints > 0);
            assert!(sealed.resilience.expect("resilience enabled").checkpoints > 0);
            // Checkpoints of confidential data pay sealing on top of the
            // FTI write cost; public data pays nothing (and an all-public
            // run reports no security stats at all).
            assert!(plain.security.is_none());
            let sec = sealed.security.expect("confidential tasks ran");
            assert!(sec.seal_time > Seconds::ZERO, "sealed ckpt stats: {sec:?}");
            assert!(sec.sealed_bytes > Bytes::ZERO);
            assert!(sealed.makespan >= plain.makespan);
        }

        #[test]
        fn hardware_crypto_beats_software_crypto_end_to_end() {
            let run = |tee: TeeCapability| {
                let mut rt = crate::config::EngineConfig::new()
                    .with_devices(vec![
                        DeviceSpec::xeon_x86().with_tee(tee),
                        DeviceSpec::gtx1080(),
                    ])
                    .with_policy(Policy::Performance)
                    .with_seed(11)
                    .with_region_sizes(sizes())
                    .build()
                    .expect("valid engine config");
                for i in 0..8u64 {
                    submit_leveled(&mut rt, i, SecurityLevel::Enclave, TaskKind::Compute);
                }
                rt.run().expect("devices present").makespan
            };
            let sw = run(TeeCapability::software());
            let hw = run(TeeCapability::hardware_assisted());
            assert!(
                hw < sw,
                "hardware crypto must lower the makespan: {hw} vs {sw}"
            );
        }

        #[test]
        fn secure_runs_are_deterministic() {
            let run = |seed| {
                let mut rt = secure_rt(seed);
                rt.set_fault_prob(0, 0.3);
                for i in 0..10u64 {
                    let level = match i % 3 {
                        0 => SecurityLevel::Public,
                        1 => SecurityLevel::Confidential,
                        _ => SecurityLevel::Enclave,
                    };
                    submit_leveled(&mut rt, i % 4, level, TaskKind::Compute);
                }
                rt.run().expect("devices present")
            };
            assert_eq!(run(13), run(13));
        }
    }
}
