//! Checkpoint/restart execution mode for the event-driven engine.
//!
//! This is the layer that turns `legato-fti` from an island into the
//! engine's third fault-tolerance mechanism (after selective replication
//! and the retry budget), the paper's §IV resilience pillar plumbed into
//! §II's runtime:
//!
//! * **Interval model** — once per run the engine picks a checkpoint
//!   interval from Young's formula ([`legato_fti::mtbf`]): the checkpoint
//!   cost `δ` is what the [`CheckpointStore`] charges for the expected
//!   frontier volume, the MTBF is configuration, and the interval is
//!   floored at the mean task duration predicted by the scheduler
//!   layer's [`Estimate`]s (checkpointing more often than tasks complete
//!   cannot help).
//! * **Checkpoint events** — at each interval the engine emits a
//!   checkpoint event that snapshots the *completed frontier only* (the
//!   restore target is the set of tasks completed at snapshot time):
//!   the bytes are the live-region volume [`ckpt`](crate::ckpt) defines
//!   (task-aware, not full-memory — dead and reproducible regions are
//!   not written) at the engine's declared sizes, and the time is
//!   [`CheckpointStore::write`] on the store's NVMe timeline. Under [`Strategy::Initial`] the checkpoint
//!   stalls new task placements until it completes; under
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
//! Every checkpoint image in the crate — the engine's periodic and drain
//! checkpoints, its rollback reads, and the service layer's session
//! seals — is priced by one [`CheckpointStore`] and held as one
//! [`CheckpointRecord`].
//!
//! [`Estimate`]: crate::scheduler::Estimate
//! [`Strategy::Initial`]: legato_fti::Strategy::Initial
//! [`Strategy::Async`]: legato_fti::Strategy::Async

use legato_core::graph::{Frontier, TaskGraph};
use legato_core::task::{TaskDescriptor, TaskId};
use legato_core::units::{Bytes, Seconds};
use legato_fti::mtbf::young_interval;
use legato_fti::{checkpoint_cost, restart_cost, FtiConfig, Strategy};
use legato_hw::device::Device;
use legato_hw::storage::{StorageDevice, StorageTier};
use serde::{Deserialize, Serialize};

use crate::classes::SpecClasses;
use crate::config::RegionSizes;
use crate::error::RuntimeError;
use crate::regions::{slot_accesses, RegionTable, Residency};
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
    /// Total rollbacks permitted across the whole run before the engine
    /// stops recovering and falls back to fail-and-poison (a run-global
    /// budget guarding against a fault so hot that restarting can never
    /// make progress). Size it to the workload: large graphs under
    /// hostile fault rates legitimately roll back many times.
    pub max_rollbacks: u32,
    /// What the size-declaring alias setter declared, moved into the
    /// engine's one declaration at build.
    pub(crate) sizes: RegionSizes,
}

impl ResilienceConfig {
    /// Checkpoint/restart against node-local NVMe with the async
    /// strategy — the paper's recommended configuration.
    pub fn new(mtbf: Seconds) -> Self {
        ResilienceConfig {
            mtbf,
            strategy: Strategy::Async,
            max_rollbacks: 1024,
            sizes: RegionSizes::new(),
        }
    }

    /// Use the given checkpoint write strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Cap the number of rollbacks before falling back to fail/poison.
    pub fn with_max_rollbacks(mut self, n: u32) -> Self {
        self.max_rollbacks = n;
        self
    }
}

/// What one checkpoint holds: the tasks it covers, the bytes it wrote and
/// what writing them cost. The engine's restore target is one (the
/// completed frontier at snapshot time, extended with the engine's own
/// bookkeeping); a tenant session in the service layer
/// ([`Service::session`](crate::service::Service::session)) is one that
/// accumulates — every seal adds the session-local tasks it covers, its
/// bytes and its cost, and a restart resumes from exactly this record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointRecord {
    /// The tasks the checkpoint covers, one bit per task.
    pub frontier: Frontier,
    /// Task-aware bytes written.
    pub bytes: Bytes,
    /// What writing them cost: for an engine checkpoint the span its
    /// [`CheckpointStore::write`] held the store (priced cost plus
    /// sealing), for a session the [`CheckpointStore::write_cost`] of
    /// every seal so far.
    pub cost: Seconds,
}

/// The one checkpoint store: prices every checkpoint image through the
/// FTI cost model (node-local NVMe, default [`FtiConfig`] — the paper's
/// L1 configuration) under one write [`Strategy`], and owns the storage
/// device the engine's checkpoints and restarts serialize on. Session
/// seals are priced here too but never [`write`](CheckpointStore::write):
/// their cost lands on the session record only.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    fti: FtiConfig,
    strategy: Strategy,
    storage: StorageDevice,
}

impl CheckpointStore {
    /// A store writing to node-local NVMe under `strategy`.
    #[must_use]
    pub fn new(strategy: Strategy) -> Self {
        CheckpointStore {
            fti: FtiConfig::default(),
            strategy,
            storage: StorageDevice::new(StorageTier::local_nvme()),
        }
    }

    /// Time to write an image of `bytes`; an empty image is free.
    #[must_use]
    pub fn write_cost(&self, bytes: Bytes) -> Seconds {
        checkpoint_cost(&self.fti, &self.storage.tier, self.strategy, bytes)
    }

    /// Time to read an image of `bytes` back; an empty image is free.
    #[must_use]
    pub fn read_cost(&self, bytes: Bytes) -> Seconds {
        restart_cost(&self.fti, &self.storage.tier, self.strategy, bytes)
    }

    /// Write an image of `bytes` from time `at`, `extra` on top of the
    /// priced cost, behind whatever the device is still busy with.
    /// Returns `(start, finish)`.
    pub fn write(&mut self, at: Seconds, bytes: Bytes, extra: Seconds) -> (Seconds, Seconds) {
        let duration = self.write_cost(bytes) + extra;
        self.storage.occupy(at, duration, bytes)
    }

    /// Read an image of `bytes` back from time `at`; returns when the
    /// restart completes.
    pub fn read(&mut self, at: Seconds, bytes: Bytes) -> Seconds {
        let duration = self.read_cost(bytes);
        self.storage.occupy_read(at, duration, bytes).1
    }

    /// Until when a write over `(start, finish)` stalls new placements.
    /// Initial: the synchronous write stalls them until it completes.
    /// Async: only the setup latency stalls — the staging pipeline
    /// overlaps with execution (the Fig. 6 distinction).
    #[must_use]
    pub fn stall_after(&self, start: Seconds, finish: Seconds) -> Seconds {
        match self.strategy {
            Strategy::Initial => finish,
            Strategy::Async => start + self.storage.tier.setup_latency,
        }
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

/// The engine's restore target: the most recent checkpoint's record and
/// what the engine needs beside it to rewind.
#[derive(Debug, Clone)]
pub(crate) struct EngineCheckpoint {
    /// Tasks completed at snapshot time (a copy of the graph's completed
    /// bitmap, n/64 words per checkpoint), the bytes written and the
    /// write's duration.
    pub record: CheckpointRecord,
    /// Completion time of the checkpoint write.
    pub time: Seconds,
    /// Length of the engine's acceptance log when the frontier was taken
    /// (moved up to the log's end by each rollback): every outcome outside
    /// the frontier was accepted at or after this entry.
    pub accepted_mark: usize,
    /// A flat copy of the region table's residency at snapshot time,
    /// restored on rollback (empty while nothing wrote residency).
    pub residency: Vec<Option<Residency>>,
}

/// Live checkpoint/restart state carried by the
/// [`Runtime`](crate::runtime::Runtime) alongside the engine.
#[derive(Debug, Clone)]
pub(crate) struct ResilienceState {
    pub config: ResilienceConfig,
    pub store: CheckpointStore,
    /// Checkpoint interval for this run; `None` until the first step
    /// plans it from the submitted tasks.
    pub interval: Option<Seconds>,
    /// The last committed checkpoint (set when the interval is planned:
    /// the initial record is the frontier at that moment).
    pub last: Option<EngineCheckpoint>,
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
        ResilienceState {
            store: CheckpointStore::new(config.strategy),
            config,
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
    res: &ResilienceState,
    regions: &RegionTable,
    devices: &[Device],
    classes: &mut SpecClasses,
    policy: Policy,
    graph: &TaskGraph,
    op_fault_probs: &[f64],
) -> Result<(Seconds, Seconds), RuntimeError> {
    // One estimate per spec class. Every device of a class would get the
    // class's estimate and classes are numbered by their first device,
    // so the earliest-index tie-break picks over classes what it picks
    // over devices.
    let fleet = devices.len();
    plan_interval_over(
        res,
        regions,
        fleet,
        policy,
        graph,
        op_fault_probs,
        |desc, out| {
            classes.price(desc.work, desc.kind);
            let prices = classes.prices().iter();
            out.extend(prices.map(|&(dur, power)| Estimate::new(dur, power * dur)));
        },
    )
}

/// [`plan_interval`] over the candidates `estimate` lists for a task:
/// spec-only estimates (availability-free) of what the scheduler layer
/// predicts a fresh placement costs.
fn plan_interval_over(
    res: &ResilienceState,
    regions: &RegionTable,
    fleet: usize,
    policy: Policy,
    graph: &TaskGraph,
    op_fault_probs: &[f64],
    mut estimate: impl FnMut(&TaskDescriptor, &mut Vec<Estimate>),
) -> Result<(Seconds, Seconds), RuntimeError> {
    let n = graph.len();
    let mut duration_total = Seconds::ZERO;
    let mut placed = 0u64;
    let mut write_bytes = Bytes::ZERO;
    // One estimate buffer reused across all n tasks.
    let mut estimates: Vec<Estimate> = Vec::new();
    for i in 0..n {
        let id = TaskId(i as u64);
        estimates.clear();
        estimate(graph.descriptor(id)?, &mut estimates);
        if let Some(best) = policy.place(&estimates) {
            duration_total += estimates[best].finish;
            placed += 1;
        }
        write_bytes += regions.written(slot_accesses(graph, id)?);
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
    let est_bytes = Bytes(write_bytes.as_u64() / n.max(1) as u64) * fleet as u64;
    let mut delta = res.store.write_cost(est_bytes);
    if delta <= Seconds::ZERO {
        // Empty frontier estimate: even a metadata-only checkpoint pays
        // the tier's setup latency.
        delta = res.store.storage.tier.setup_latency;
    }
    let mtbf = res.config.mtbf;
    let extra_rate: f64 = op_fault_probs
        .iter()
        .filter(|&&p| p > 0.0 && mean_task.0 > 0.0)
        .map(|&p| -(1.0 - p.clamp(0.0, 0.999_999)).ln() / mean_task.0)
        .sum();
    let effective_mtbf = if extra_rate > 0.0 && mtbf.0 > 0.0 {
        Seconds(1.0 / (1.0 / mtbf.0 + extra_rate))
    } else {
        // Bit-exact pre-energy path; a non-positive configured MTBF
        // falls through so `young_interval` reports it as the error.
        mtbf
    };
    let young = young_interval(delta, effective_mtbf)
        .map_err(|e| RuntimeError::Resilience(e.to_string()))?;
    Ok((young.max(mean_task), delta))
}

#[cfg(test)]
mod interval_oracle;

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

    /// [`plan_interval`] for an `mtbf` on [`devices`] over [`graph`],
    /// every region 32 MiB when `sized`.
    fn plan(
        mtbf: Seconds,
        sized: bool,
        policy: Policy,
        probs: &[f64],
    ) -> Result<(Seconds, Seconds), RuntimeError> {
        let devices = devices();
        let mut classes = SpecClasses::new(&devices);
        let res = ResilienceState::new(ResilienceConfig::new(mtbf));
        let sizes = if sized {
            vec![Bytes::mib(32); 8]
        } else {
            Vec::new()
        };
        let regions = RegionTable::sized(&sizes);
        plan_interval(
            &res,
            &regions,
            &devices,
            &mut classes,
            policy,
            &graph(),
            probs,
        )
    }

    /// Eight tasks, each writing its own region.
    fn graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        for i in 0..8u64 {
            g.add_task(
                TaskDescriptor::named("t").with_work(Work::flops(1e10)),
                [(i, AccessMode::Out)],
            );
        }
        g
    }

    #[test]
    fn interval_shrinks_with_mtbf() {
        let at = |mtbf| plan(mtbf, true, Policy::Performance, &[]).unwrap();
        let (long, _) = at(Seconds(100_000.0));
        let (short, _) = at(Seconds(1_000.0));
        assert!(short < long, "{short} vs {long}");
    }

    #[test]
    fn interval_floored_at_mean_task_duration() {
        // Absurdly small MTBF: Young's interval would be sub-task-length.
        let (interval, _) = plan(Seconds(0.05), true, Policy::Performance, &[]).unwrap();
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
        let err = plan(Seconds::ZERO, true, Policy::Performance, &[]).unwrap_err();
        assert!(matches!(err, RuntimeError::Resilience(_)), "{err:?}");
    }

    #[test]
    fn zero_sized_regions_still_plan_a_positive_interval() {
        // No sizes declared.
        let (interval, delta) = plan(Seconds(1_000.0), false, Policy::Energy, &[]).unwrap();
        assert!(delta > Seconds::ZERO);
        assert!(interval > Seconds::ZERO);
    }

    #[test]
    fn operating_point_faults_shorten_the_interval() {
        let at = |probs: &[f64]| {
            plan(Seconds(10_000.0), true, Policy::Performance, probs)
                .unwrap()
                .0
        };
        let nominal = at(&[]);
        assert_eq!(
            nominal,
            at(&[0.0, 0.0]),
            "fault-free rungs must be bit-identical to no energy layer"
        );
        let undervolted = at(&[0.0, 0.05]);
        assert!(
            undervolted < nominal,
            "a faulting rung must shorten the interval: {undervolted} vs {nominal}"
        );
        let deeper = at(&[0.05, 0.2]);
        assert!(deeper < undervolted, "{deeper} vs {undervolted}");
    }

    #[test]
    fn near_certain_op_faults_are_clamped_not_infinite() {
        let (interval, _) = plan(Seconds(10_000.0), true, Policy::Performance, &[1.0]).unwrap();
        assert!(
            interval.0.is_finite() && interval > Seconds::ZERO,
            "{interval}"
        );
    }
}
