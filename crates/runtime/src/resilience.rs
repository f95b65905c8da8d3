//! Checkpoint/restart execution mode for the event-driven engine.
//!
//! This is the layer that turns `legato-fti` from an island into the
//! engine's third fault-tolerance mechanism (after selective replication
//! and the retry budget), the paper's §IV resilience pillar plumbed into
//! §II's runtime:
//!
//! * **Interval model** — once per run the engine picks a checkpoint
//!   interval from Young's formula ([`legato_fti::mtbf`]): the checkpoint
//!   cost `δ` is estimated from the expected frontier volume and the
//!   configured storage tier/strategy, the MTBF is configuration, and the
//!   interval is floored at the mean task duration predicted by the
//!   scheduler layer's [`Estimate`]s (checkpointing more often than tasks
//!   complete cannot help).
//! * **Checkpoint events** — at each interval the engine emits a
//!   checkpoint event that snapshots the *completed frontier only* (the
//!   restore target is the set of tasks completed at snapshot time):
//!   the bytes are the live-region volume from [`ckpt`](crate::ckpt)
//!   (task-aware, not full-memory — dead and reproducible regions are
//!   not written), and the time is [`legato_fti::checkpoint_cost`] on
//!   the configured [`StorageTier`]. Under [`Strategy::Initial`] the
//!   checkpoint stalls new task placements until it completes; under
//!   [`Strategy::Async`] only the setup latency stalls (the copy/write
//!   pipeline overlaps with execution) — the Fig. 6 gap, now visible as
//!   end-to-end makespan overhead.
//! * **Rollback** — when a task exhausts its retry budget, the engine
//!   restores the last checkpointed frontier
//!   ([`TaskGraph::rollback_to`](legato_core::graph::TaskGraph::rollback_to))
//!   and re-enqueues the re-armed work as engine events after the
//!   restart cost, instead of failing the whole downstream cone. Work
//!   completed since the checkpoint is counted as wasted (its energy
//!   stays on the device meters — it really was burned).
//!
//! [`Estimate`]: crate::scheduler::Estimate
//! [`Strategy::Initial`]: legato_fti::Strategy::Initial
//! [`Strategy::Async`]: legato_fti::Strategy::Async
//! [`StorageTier`]: legato_hw::storage::StorageTier

use std::collections::HashMap;
use std::sync::Arc;

use legato_core::graph::{Frontier, TaskGraph};
use legato_core::task::{RegionId, TaskId};
use legato_core::units::{Bytes, Seconds};
use legato_fti::mtbf::young_interval;
use legato_fti::{checkpoint_cost, FtiConfig, Strategy};
use legato_hw::device::Device;
use legato_hw::storage::{StorageDevice, StorageTier};
use serde::{Deserialize, Serialize};

use crate::error::RuntimeError;
use crate::scheduler::{Estimate, Policy, Scheduler};

/// Configuration of the engine's checkpoint/restart mode
/// ([`EngineConfig::with_resilience`](crate::config::EngineConfig::with_resilience)).
#[derive(Debug, Clone)]
#[must_use = "builder-style configs do nothing unless passed to EngineConfig"]
pub struct ResilienceConfig {
    /// Assumed system MTBF driving the Young-interval choice. Must be
    /// positive (validated when the run plans its interval).
    pub mtbf: Seconds,
    /// Checkpoint write strategy (the Fig. 6 Initial/Async comparison).
    pub strategy: Strategy,
    /// Storage tier checkpoints are written to and restarts read from.
    pub tier: StorageTier,
    /// Chunk sizes and cadence knobs forwarded to the FTI cost model.
    pub fti: FtiConfig,
    /// Declared size of each data region, used to price the live-region
    /// frontier volume at every checkpoint. Regions absent from the map
    /// count as zero bytes.
    pub region_sizes: HashMap<RegionId, Bytes>,
    /// Total rollbacks permitted across the whole run before the engine
    /// stops recovering and falls back to fail-and-poison (a run-global
    /// budget guarding against a fault so hot that restarting can never
    /// make progress). Size it to the workload: large graphs under
    /// hostile fault rates legitimately roll back many times.
    pub max_rollbacks: u32,
}

impl ResilienceConfig {
    /// Checkpoint/restart against node-local NVMe with the async
    /// strategy — the paper's recommended configuration.
    pub fn new(mtbf: Seconds) -> Self {
        ResilienceConfig {
            mtbf,
            strategy: Strategy::Async,
            tier: StorageTier::local_nvme(),
            fti: FtiConfig::default(),
            region_sizes: HashMap::new(),
            max_rollbacks: 1024,
        }
    }

    /// Use the given checkpoint write strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Declare region sizes for frontier-volume accounting.
    pub fn with_region_sizes(mut self, sizes: HashMap<RegionId, Bytes>) -> Self {
        self.region_sizes = sizes;
        self
    }

    /// Cap the number of rollbacks before falling back to fail/poison.
    pub fn with_max_rollbacks(mut self, n: u32) -> Self {
        self.max_rollbacks = n;
        self
    }
}

/// The sealed frontier of one tenant session in the service layer
/// ([`Service`](crate::service::Service)): which session-local tasks the
/// last seal covers, how many bytes it wrote, and the cumulative FTI
/// write cost. A restart resumes the session from exactly this record —
/// sealed tasks are never re-executed, everything else is re-queued.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Session-local indices of every task the seal covers, in seal
    /// order.
    pub completed: Vec<u64>,
    /// Task-aware bytes written across all seals of this session.
    pub bytes: Bytes,
    /// Cumulative checkpoint write cost ([`legato_fti::checkpoint_cost`]
    /// on the store's tier and strategy).
    pub seal_cost: Seconds,
}

/// Per-tenant checkpoint namespaces for the service layer: each session
/// seals its own completed frontier independently through the same FTI
/// cost model the engine's whole-run checkpoints use, so one tenant's
/// seal cadence never couples to another's. Keyed by tenant id.
#[derive(Debug, Clone)]
pub struct SessionStore {
    fti: FtiConfig,
    tier: StorageTier,
    strategy: Strategy,
    sessions: HashMap<u32, SessionCheckpoint>,
}

impl SessionStore {
    /// A store writing seals to `tier` with the given strategy.
    #[must_use]
    pub fn new(tier: StorageTier, strategy: Strategy) -> Self {
        SessionStore {
            fti: FtiConfig::default(),
            tier,
            strategy,
            sessions: HashMap::new(),
        }
    }

    /// Seal `completed` (session-local task indices, newly completed
    /// since the last seal) with `bytes` of frontier volume into
    /// `tenant`'s namespace; returns the priced write cost of this seal.
    pub fn seal(&mut self, tenant: u32, completed: &[u64], bytes: Bytes) -> Seconds {
        let cost = checkpoint_cost(&self.fti, &self.tier, self.strategy, bytes);
        let session = self.sessions.entry(tenant).or_default();
        session.completed.extend_from_slice(completed);
        session.bytes += bytes;
        session.seal_cost += cost;
        cost
    }

    /// The session's cumulative checkpoint record; `None` before its
    /// first seal.
    #[must_use]
    pub fn session(&self, tenant: u32) -> Option<&SessionCheckpoint> {
        self.sessions.get(&tenant)
    }
}

/// Checkpoint/restart counters reported in
/// [`RunReport`](crate::runtime::RunReport).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[must_use = "stats are counters for the caller to inspect; dropping them unread is a bug"]
pub struct ResilienceStats {
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Rollbacks performed (tasks that exhausted their retry budget and
    /// were recovered from a checkpoint instead of failed).
    pub rollbacks: u64,
    /// Completed work discarded by rollbacks (sum of the discarded
    /// outcomes' durations). The energy of that work stays in the run's
    /// energy totals — it really was spent.
    pub wasted_work: Seconds,
    /// Total bytes written by all checkpoints (task-aware frontier
    /// volumes, not full-memory images).
    pub checkpoint_bytes: Bytes,
}

/// One rollback, as recorded in the engine's deterministic trace
/// ([`Runtime::rollback_trace`](crate::runtime::Runtime::rollback_trace)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RollbackEvent {
    /// The task whose retry budget was exhausted.
    pub task: TaskId,
    /// Virtual time at which the failure was detected.
    pub at: Seconds,
    /// Virtual time execution resumed from the restored frontier (after
    /// the restart cost).
    pub resumed_at: Seconds,
    /// Completed work discarded by this rollback.
    pub wasted: Seconds,
}

/// The frontier captured by the most recent checkpoint.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointRecord {
    /// Completion time of the checkpoint write.
    pub time: Seconds,
    /// Tasks completed at snapshot time (the restore target): a copy of
    /// the graph's completed bitmap, n/64 words per checkpoint.
    pub frontier: Frontier,
    /// Length of the engine's acceptance log when the frontier was taken
    /// (moved up to the log's end by each rollback): every outcome outside
    /// the frontier was accepted at or after this entry.
    pub accepted_mark: usize,
    /// Task-aware bytes the checkpoint wrote.
    pub bytes: Bytes,
    /// Region-confidentiality state at snapshot time (sealed regions and
    /// producers), restored on rollback so security composes with
    /// resilience. `None` when the security layer was inactive.
    pub security: Option<Arc<crate::security::SecuritySnapshot>>,
}

/// Live checkpoint/restart state carried by the
/// [`Runtime`](crate::runtime::Runtime) alongside the engine.
#[derive(Debug, Clone)]
pub(crate) struct ResilienceState {
    pub config: ResilienceConfig,
    /// The storage device checkpoints serialize on.
    pub storage: StorageDevice,
    /// Checkpoint interval for this run; `None` until the first step
    /// plans it from the submitted tasks.
    pub interval: Option<Seconds>,
    /// The last committed checkpoint (set when the interval is planned:
    /// the initial record is the frontier at that moment).
    pub last: Option<CheckpointRecord>,
    /// New placements may not start before this time (checkpoint stall /
    /// restart barrier).
    pub blackout_until: Seconds,
    pub stats: ResilienceStats,
    pub trace: Vec<RollbackEvent>,
    /// Acceptance-log entries rollbacks have read so far (see
    /// [`Runtime::rollback_visits`](crate::runtime::Runtime::rollback_visits)).
    pub log_visits: u64,
}

impl ResilienceState {
    pub(crate) fn new(config: ResilienceConfig) -> Self {
        let storage = StorageDevice::new(config.tier.clone());
        ResilienceState {
            config,
            storage,
            interval: None,
            last: None,
            blackout_until: Seconds::ZERO,
            stats: ResilienceStats::default(),
            trace: Vec::new(),
            log_visits: 0,
        }
    }
}

/// Plan the checkpoint interval for a run: Young's optimal interval for
/// the estimated checkpoint cost and the *effective* MTBF, floored at
/// the mean task duration the scheduler layer predicts under `policy`.
///
/// `op_fault_probs` is the energy layer's per-device silent-fault
/// probability at the selected operating points (empty or all-zero when
/// the layer is inactive or every device runs a fault-free rung). A
/// per-execution fault probability `p` over tasks of mean duration `τ`
/// is a Poisson fault process of rate `λ = −ln(1 − p) / τ`; those rates
/// superpose with the configured MTBF's own rate, so
/// `MTBF_eff = 1 / (1 / MTBF + Σ λ_d)` — an undervolted device plans
/// *shorter* checkpoint intervals, which is the paper's undervolting ↔
/// checkpointing co-optimization in one formula. With no operating-point
/// faults the arithmetic is bit-identical to the configured MTBF.
///
/// Returns `(interval, estimated checkpoint cost)`.
pub(crate) fn plan_interval(
    config: &ResilienceConfig,
    devices: &[Device],
    policy: Policy,
    graph: &TaskGraph,
    op_fault_probs: &[f64],
) -> Result<(Seconds, Seconds), RuntimeError> {
    let n = graph.len();
    let mut duration_total = Seconds::ZERO;
    let mut placed = 0u64;
    let mut write_bytes = Bytes::ZERO;
    // One estimate buffer reused across all n tasks (planning is O(n·D)
    // but runs once per run; no reason to allocate n times).
    let mut estimates: Vec<Estimate> = Vec::with_capacity(devices.len());
    for i in 0..n {
        let id = TaskId(i as u64);
        let desc = graph.descriptor(id)?;
        // Spec-only estimates (availability-free): what the scheduler
        // layer predicts a fresh placement of this task costs.
        estimates.clear();
        estimates.extend(devices.iter().map(|d| {
            Estimate::new(
                d.spec.time_for(desc.work, desc.kind),
                d.spec.energy_for(desc.work, desc.kind),
            )
        }));
        if let Some(best) = policy.place(&estimates) {
            duration_total += estimates[best].finish;
            placed += 1;
        }
        for (region, mode) in graph.accesses(id)? {
            if mode.writes() {
                write_bytes += config
                    .region_sizes
                    .get(region)
                    .copied()
                    .unwrap_or(Bytes::ZERO);
            }
        }
    }
    let mean_task = if placed > 0 {
        duration_total / placed as f64
    } else {
        Seconds::ZERO
    };
    // Expected frontier volume: the mean per-task write volume times the
    // device count (≈ how many outputs are live at once on a saturated
    // node). A crude but monotone proxy — the actual charge at each
    // checkpoint uses the exact live-region volume.
    let est_bytes = Bytes((write_bytes.as_u64() / n.max(1) as u64) * devices.len() as u64);
    let mut delta = checkpoint_cost(&config.fti, &config.tier, config.strategy, est_bytes);
    if delta <= Seconds::ZERO {
        // Empty frontier estimate: even a metadata-only checkpoint pays
        // the tier's setup latency.
        delta = config.tier.setup_latency.max(Seconds::from_millis(1.0));
    }
    let extra_rate: f64 = op_fault_probs
        .iter()
        .filter(|&&p| p > 0.0 && mean_task.0 > 0.0)
        .map(|&p| -(1.0 - p.clamp(0.0, 0.999_999)).ln() / mean_task.0)
        .sum();
    let effective_mtbf = if extra_rate > 0.0 && config.mtbf.0 > 0.0 {
        Seconds(1.0 / (1.0 / config.mtbf.0 + extra_rate))
    } else {
        // Bit-exact pre-energy path; a non-positive configured MTBF
        // falls through so `young_interval` reports it as the error.
        config.mtbf
    };
    let young = young_interval(delta, effective_mtbf)
        .map_err(|e| RuntimeError::Resilience(e.to_string()))?;
    Ok((young.max(mean_task), delta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use legato_core::task::{AccessMode, TaskDescriptor, Work};
    use legato_hw::device::{DeviceId, DeviceSpec};

    fn devices() -> Vec<Device> {
        vec![
            Device::new(DeviceId(0), DeviceSpec::xeon_x86()),
            Device::new(DeviceId(1), DeviceSpec::gtx1080()),
        ]
    }

    fn graph_with_sizes() -> (TaskGraph, HashMap<RegionId, Bytes>) {
        let mut g = TaskGraph::new();
        for i in 0..8u64 {
            g.add_task(
                TaskDescriptor::named("t").with_work(Work::flops(1e10)),
                [(i, AccessMode::Out)],
            );
        }
        let sizes = (0..8u64).map(|i| (RegionId(i), Bytes::mib(32))).collect();
        (g, sizes)
    }

    #[test]
    fn interval_shrinks_with_mtbf() {
        let (g, sizes) = graph_with_sizes();
        let plan = |mtbf| {
            let cfg = ResilienceConfig::new(mtbf).with_region_sizes(sizes.clone());
            plan_interval(&cfg, &devices(), Policy::Performance, &g, &[]).unwrap()
        };
        let (long, _) = plan(Seconds(100_000.0));
        let (short, _) = plan(Seconds(1_000.0));
        assert!(short < long, "{short} vs {long}");
    }

    #[test]
    fn interval_floored_at_mean_task_duration() {
        let (g, sizes) = graph_with_sizes();
        // Absurdly small MTBF: Young's interval would be sub-task-length.
        let cfg = ResilienceConfig::new(Seconds(0.05)).with_region_sizes(sizes);
        let (interval, _) = plan_interval(&cfg, &devices(), Policy::Performance, &g, &[]).unwrap();
        // Under the performance policy every task lands on the fastest
        // device, so the mean predicted duration is that device's time.
        let mean = devices()
            .iter()
            .map(|d| {
                d.spec
                    .time_for(Work::flops(1e10), legato_core::task::TaskKind::Compute)
            })
            .fold(Seconds(f64::INFINITY), Seconds::min);
        assert!(interval >= mean * 0.99, "{interval} vs mean {mean}");
    }

    #[test]
    fn non_positive_mtbf_is_an_error_not_a_panic() {
        let (g, sizes) = graph_with_sizes();
        let cfg = ResilienceConfig::new(Seconds::ZERO).with_region_sizes(sizes);
        let err = plan_interval(&cfg, &devices(), Policy::Performance, &g, &[]).unwrap_err();
        assert!(matches!(err, RuntimeError::Resilience(_)), "{err:?}");
    }

    #[test]
    fn zero_sized_regions_still_plan_a_positive_interval() {
        let (g, _) = graph_with_sizes();
        let cfg = ResilienceConfig::new(Seconds(1_000.0)); // no sizes declared
        let (interval, delta) = plan_interval(&cfg, &devices(), Policy::Energy, &g, &[]).unwrap();
        assert!(delta > Seconds::ZERO);
        assert!(interval > Seconds::ZERO);
    }

    #[test]
    fn operating_point_faults_shorten_the_interval() {
        let (g, sizes) = graph_with_sizes();
        let cfg = ResilienceConfig::new(Seconds(10_000.0)).with_region_sizes(sizes);
        let plan = |probs: &[f64]| {
            plan_interval(&cfg, &devices(), Policy::Performance, &g, probs)
                .unwrap()
                .0
        };
        let nominal = plan(&[]);
        assert_eq!(
            nominal,
            plan(&[0.0, 0.0]),
            "fault-free rungs must be bit-identical to no energy layer"
        );
        let undervolted = plan(&[0.0, 0.05]);
        assert!(
            undervolted < nominal,
            "a faulting rung must shorten the interval: {undervolted} vs {nominal}"
        );
        let deeper = plan(&[0.05, 0.2]);
        assert!(deeper < undervolted, "{deeper} vs {undervolted}");
    }

    #[test]
    fn near_certain_op_faults_are_clamped_not_infinite() {
        let (g, sizes) = graph_with_sizes();
        let cfg = ResilienceConfig::new(Seconds(10_000.0)).with_region_sizes(sizes);
        let (interval, _) =
            plan_interval(&cfg, &devices(), Policy::Performance, &g, &[1.0]).unwrap();
        assert!(
            interval.0.is_finite() && interval > Seconds::ZERO,
            "{interval}"
        );
    }
}
