//! E9 — fault injection: checkpoint/restart vs retry-only execution.
//!
//! The paper's §IV claim is about *sustained execution*: task-aware
//! checkpointing lets the same application survive systems with several
//! times smaller MTBF at a fixed overhead. This experiment reproduces
//! the shape end to end on the event engine:
//!
//! * a ≥ 1k-task fan-out/fan-in graph of reliability-`High` tasks (dual
//!   replication — faults are *detected*, so the retry budget is the
//!   recovery mechanism of record);
//! * per-device fault probabilities derived from a scenario MTBF via the
//!   exponential failure law `p = 1 − exp(−t̄/MTBF)` over the mean task
//!   duration;
//! * three execution modes: retry-only (a failure poisons the downstream
//!   cone), and checkpoint/restart under the FTI `Initial` and `Async`
//!   strategies.
//!
//! At generous MTBFs all modes finish everything. As the MTBF shrinks,
//! retry-only starts losing large parts of the graph while
//! checkpoint/restart keeps completing it — and `Async` pays visibly
//! less makespan overhead than `Initial` for the same protection, the
//! Fig. 6 gap surfaced at the application level. `tests/full_stack.rs`
//! asserts both, and `tests/experiments_goldens.rs` pins every cell's
//! completed count and makespan bits.

use legato_core::task::{TaskKind, Work};
use legato_core::units::{Bytes, Seconds};
use legato_fti::Strategy;
use legato_runtime::{EngineConfig, Policy, ResilienceConfig, Runtime, RuntimeError};
use legato_workloads::{fleets, region_sizes, Fan};

/// How the engine reacts to a task that exhausts its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptMode {
    /// Retry-only: the failure poisons the downstream cone.
    RetryOnly,
    /// Checkpoint/restart with the synchronous FTI strategy.
    Initial,
    /// Checkpoint/restart with the asynchronous FTI strategy.
    Async,
}

impl CkptMode {
    /// All three modes, retry-only first.
    pub const ALL: [CkptMode; 3] = [CkptMode::RetryOnly, CkptMode::Initial, CkptMode::Async];

    /// Human-readable label (used in row ids and tables).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CkptMode::RetryOnly => "retry-only",
            CkptMode::Initial => "ckpt-initial",
            CkptMode::Async => "ckpt-async",
        }
    }
}

/// The fault-injection workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Number of independent chains behind the scatter task.
    pub chains: usize,
    /// Tasks per chain.
    pub depth: usize,
    /// Work per task.
    pub work: Work,
    /// Declared size of each chain's data region.
    pub region_bytes: Bytes,
    /// Retry budget per task (small, so the checkpoint path matters).
    pub max_retries: u32,
}

impl Scenario {
    /// The reference scenario: ≥ 1k seconds-scale tasks across 64 chains.
    #[must_use]
    pub fn reference() -> Self {
        Scenario {
            chains: 64,
            depth: 16,
            work: Work::flops(2e12),
            region_bytes: Bytes::mib(8),
            max_retries: 1,
        }
    }

    /// Mean task duration on the reference devices under the performance
    /// policy (the fastest device's time — what the scheduler layer
    /// predicts for every placement).
    #[must_use]
    pub fn mean_task_duration(&self) -> Seconds {
        fleets::reference()
            .iter()
            .map(|d| d.time_for(self.work, TaskKind::Compute))
            .fold(Seconds(f64::INFINITY), Seconds::min)
    }

    /// The scatter → chains → gather graph: every chain task is
    /// reliability-`High` (dual replication), so device faults are
    /// detected rather than silent.
    #[must_use]
    pub fn fan(&self) -> Fan {
        Fan::replicated(self.chains, self.depth, self.work)
    }
}

/// Per-execution fault probability of a device with the given `mtbf`,
/// for tasks of mean duration `mean_task`: the exponential failure law
/// `p = 1 − exp(−t̄ / MTBF)`.
#[must_use]
fn fault_prob_for_mtbf(mtbf: Seconds, mean_task: Seconds) -> f64 {
    (1.0 - (-mean_task.0 / mtbf.0.max(1e-12)).exp()).clamp(0.0, 1.0)
}

/// One `(MTBF, mode)` cell of the sweep.
#[derive(Debug, Clone)]
pub struct ResilienceRow {
    /// Scenario MTBF.
    pub mtbf: Seconds,
    /// Execution mode label.
    pub mode: &'static str,
    /// Tasks in the graph.
    pub tasks: usize,
    /// Tasks that completed.
    pub completed: usize,
    /// Tasks that failed outright (retry budget and — for checkpoint
    /// modes — rollback budget exhausted).
    pub failed: usize,
    /// Completion time of the last completed task.
    pub makespan: Seconds,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Completed work discarded by rollbacks.
    pub wasted: Seconds,
    /// Total checkpoint traffic (task-aware frontier volumes).
    pub checkpoint_bytes: Bytes,
}

impl ResilienceRow {
    /// Whether the whole graph completed.
    #[must_use]
    pub fn survived(&self) -> bool {
        self.completed == self.tasks
    }
}

/// `scenario` submitted to an engine on the reference fleet, faulting
/// at the given MTBF and recovering per `mode`. Deterministic per `seed`.
///
/// # Errors
///
/// Whatever [`EngineConfig::build`] refuses.
pub fn runtime(
    scenario: Scenario,
    mtbf: Seconds,
    mode: CkptMode,
    seed: u64,
) -> Result<Runtime, RuntimeError> {
    let fan = scenario.fan();
    let mut cfg = EngineConfig::new()
        .with_devices(fleets::reference())
        .with_policy(Policy::Performance)
        .with_seed(seed)
        .with_max_retries(scenario.max_retries)
        .with_region_sizes(region_sizes(fan.regions(), scenario.region_bytes));
    let strategy = match mode {
        CkptMode::RetryOnly => None,
        CkptMode::Initial => Some(Strategy::Initial),
        CkptMode::Async => Some(Strategy::Async),
    };
    if let Some(strategy) = strategy {
        cfg = cfg.with_resilience(
            ResilienceConfig::new(mtbf)
                .with_strategy(strategy)
                .with_max_rollbacks(10_000),
        );
    }
    let mut rt = cfg.build()?;
    let p = fault_prob_for_mtbf(mtbf, scenario.mean_task_duration());
    for i in 0..rt.devices().len() {
        rt.set_fault_prob(i, p);
    }
    super::submit(&mut rt, &fan, seed);
    Ok(rt)
}

/// Execute `scenario` once at the given MTBF and mode. Deterministic per
/// `seed`.
#[must_use]
pub fn run_scenario(scenario: Scenario, mtbf: Seconds, mode: CkptMode, seed: u64) -> ResilienceRow {
    let mut rt = runtime(scenario, mtbf, mode, seed).expect("valid engine config");
    let tasks = rt.graph().len();
    let report = rt.run().expect("devices present");
    let res = report.resilience.unwrap_or_default();
    ResilienceRow {
        mtbf,
        mode: mode.label(),
        tasks,
        completed: report.placements.len(),
        failed: report.failed.len(),
        makespan: report.makespan,
        checkpoints: res.checkpoints,
        rollbacks: res.rollbacks,
        wasted: res.wasted_work,
        checkpoint_bytes: res.checkpoint_bytes,
    }
}

/// The reference MTBF grid, generous → hostile, in units of the mean
/// task duration (`t̄ × {256, 64, 16}`), with the labels the goldens
/// pin them under.
#[must_use]
pub fn reference_mtbfs(scenario: Scenario) -> Vec<(&'static str, Seconds)> {
    let t = scenario.mean_task_duration();
    vec![
        ("mtbf_256x", t * 256.0),
        ("mtbf_64x", t * 64.0),
        ("mtbf_16x", t * 16.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_wide_enough() {
        let s = Scenario::reference();
        let rt = runtime(s, Seconds(1.0), CkptMode::RetryOnly, 1).expect("valid engine config");
        let tasks = rt.graph().len();
        assert!(tasks >= 1000, "need ≥ 1k tasks, got {tasks}");
        assert_eq!(tasks, s.chains * s.depth + 2, "scatter + chains + gather");
        assert_eq!(rt.graph().ready().len(), 1, "only the scatter is ready");
    }

    #[test]
    fn fault_law_is_monotone_in_mtbf() {
        let t = Seconds(0.5);
        let hostile = fault_prob_for_mtbf(Seconds(1.0), t);
        let benign = fault_prob_for_mtbf(Seconds(1_000.0), t);
        assert!(hostile > benign);
        assert!((0.0..=1.0).contains(&hostile));
        assert!(benign < 0.001);
    }

    #[test]
    fn benign_mtbf_everyone_survives() {
        let s = Scenario::reference();
        let mtbf = s.mean_task_duration() * 100_000.0;
        for mode in CkptMode::ALL {
            let row = run_scenario(s, mtbf, mode, 42);
            assert!(row.survived(), "{} lost tasks: {row:?}", row.mode);
        }
    }

    #[test]
    fn hostile_mtbf_checkpointing_survives_retry_only_does_not() {
        let s = Scenario::reference();
        let mtbf = s.mean_task_duration() * 16.0;
        let retry = run_scenario(s, mtbf, CkptMode::RetryOnly, 42);
        let ckpt = run_scenario(s, mtbf, CkptMode::Async, 42);
        assert!(
            !retry.survived(),
            "retry-only should lose the cone: {retry:?}"
        );
        assert!(ckpt.survived(), "checkpointing must survive: {ckpt:?}");
        assert!(ckpt.rollbacks > 0 && ckpt.checkpoints > 0);
    }

    #[test]
    fn async_overhead_below_initial_at_same_mtbf() {
        let s = Scenario::reference();
        let mtbf = s.mean_task_duration() * 64.0;
        let initial = run_scenario(s, mtbf, CkptMode::Initial, 42);
        let async_ = run_scenario(s, mtbf, CkptMode::Async, 42);
        assert!(initial.survived() && async_.survived());
        assert!(
            async_.makespan < initial.makespan,
            "async {} vs initial {}",
            async_.makespan,
            initial.makespan
        );
    }
}
