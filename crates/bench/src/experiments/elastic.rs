//! E10 — elastic malleability: device churn against the same ≥ 1k-task
//! graph the resilience experiment uses (§IV's sustained-execution
//! claim, now with the *fleet* as the failure domain instead of silent
//! task faults).
//!
//! A seeded [`ChurnTrace`] removes and replenishes devices while the
//! graph runs. The churn-free run (`none`) is the baseline, and its
//! makespan is the horizon every trace is drawn over, so the events land
//! while the graph is in flight. Three churned modes:
//!
//! * `drain-only` — every departure is planned: the engine drains the
//!   device (in-flight work completes, queued work re-plans) and seals
//!   it with a frontier checkpoint, so *nothing* is wasted;
//! * `crash-only` — every departure is a crash with no checkpoint
//!   layer: running attempts die, and with the retry budget at zero the
//!   loss poisons each victim's downstream cone;
//! * `crash-ckpt` — the same crashes over checkpoint/restart: exhausted
//!   budgets roll back to the last committed frontier instead of
//!   failing, so the graph completes at a makespan premium.
//!
//! The shape (asserted in the module tests; every cell's completed count
//! and makespan bits pinned in `tests/experiments_goldens.rs`):
//! drain-and-checkpoint completes the full graph at every churn rate
//! where crash-only loses part of it, and no churned run beats the fixed
//! fleet — the makespan-vs-churn-rate curve lives in the same rows as
//! the survival counts.

use legato_core::units::Seconds;
use legato_runtime::{
    ChurnConfig, ChurnTrace, EngineConfig, Policy, ResilienceConfig, RunReport, Runtime,
    RuntimeError,
};
use legato_workloads::{fleets, region_sizes};

use super::resilience::Scenario;

/// How departures happen in a churned run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChurnMode {
    /// Planned departures only (drain + frontier checkpoint).
    DrainOnly,
    /// Crash departures with no checkpoint layer: losses poison cones.
    CrashOnly,
    /// Crash departures over checkpoint/restart: rollbacks recover.
    CrashCkpt,
}

impl ChurnMode {
    /// All three modes, in the order `sweep` runs them.
    const ALL: [ChurnMode; 3] = [
        ChurnMode::DrainOnly,
        ChurnMode::CrashOnly,
        ChurnMode::CrashCkpt,
    ];

    /// Human-readable label (the row's `mode`).
    fn label(self) -> &'static str {
        match self {
            ChurnMode::DrainOnly => "drain-only",
            ChurnMode::CrashOnly => "crash-only",
            ChurnMode::CrashCkpt => "crash-ckpt",
        }
    }

    /// Fraction of departures that crash (the rest drain).
    fn crash_fraction(self) -> f64 {
        match self {
            ChurnMode::DrainOnly => 0.0,
            ChurnMode::CrashOnly | ChurnMode::CrashCkpt => 1.0,
        }
    }
}

/// The elastic reference scenario: the resilience graph (64 × 16 chains,
/// 1026 tasks) with the retry budget at zero, so every crash-killed
/// attempt immediately escalates — to a poisoned cone (`crash-only`) or
/// a rollback (`crash-ckpt`). Churn is the *only* fault source here;
/// per-device fault probabilities stay zero.
#[must_use]
pub fn reference_scenario() -> Scenario {
    Scenario {
        max_retries: 0,
        ..Scenario::reference()
    }
}

/// One `(churn rate, mode)` cell of the sweep.
#[derive(Debug, Clone)]
pub struct ElasticRow {
    /// Churn events drawn over the horizon.
    pub events: usize,
    /// Execution mode label.
    pub mode: &'static str,
    /// Tasks in the graph.
    pub tasks: usize,
    /// Tasks that completed.
    pub completed: usize,
    /// Tasks that failed outright (crash with the budget exhausted and
    /// no checkpoint to roll to, plus their poisoned cones).
    pub failed: usize,
    /// Completion time of the last completed task.
    pub makespan: Seconds,
    /// Devices that joined mid-run.
    pub arrivals: u64,
    /// Devices that left mid-run (drains and crashes alike).
    pub departures: u64,
    /// Departures that were crashes.
    pub crashes: u64,
    /// Queued attempts re-planned off a dead device.
    pub migrations: u64,
    /// Work lost to crashes (partial executions discarded).
    pub wasted: Seconds,
}

impl ElasticRow {
    /// Whether the whole graph completed.
    #[must_use]
    pub fn survived(&self) -> bool {
        self.completed == self.tasks
    }
}

/// Execute `scenario` once: on the fixed fleet when `churn` is `None`,
/// else under `(mode, events, horizon)` — `events` trace events drawn
/// over `horizon` in the given mode. Deterministic per `seed` (which
/// seeds the trace too).
fn run_cell(
    scenario: Scenario,
    churn: Option<(ChurnMode, usize, Seconds)>,
    seed: u64,
) -> ElasticRow {
    let fleet = fleets::reference();
    let fan = scenario.fan();
    let mut cfg = EngineConfig::new()
        .with_devices(fleet.clone())
        .with_policy(Policy::Performance)
        .with_seed(seed)
        .with_max_retries(scenario.max_retries)
        .with_region_sizes(region_sizes(fan.regions(), scenario.region_bytes));
    if let Some((mode, events, horizon)) = churn {
        if mode == ChurnMode::CrashCkpt {
            cfg = cfg.with_resilience(
                ResilienceConfig::new(scenario.mean_task_duration() * 64.0)
                    .with_max_rollbacks(10_000),
            );
        }
        let trace = ChurnTrace::seeded(
            seed,
            fleet.len(),
            horizon,
            events,
            &fleet,
            mode.crash_fraction(),
        );
        cfg = cfg.with_churn(ChurnConfig::new(trace));
    }
    let mut rt = cfg.build().expect("valid engine config");
    let tasks = super::submit(&mut rt, &fan, seed);
    let report = run_to_quiescence(&mut rt);
    let stats = report.churn.unwrap_or_default();
    ElasticRow {
        events: churn.map_or(0, |(_, events, _)| events),
        mode: churn.map_or("none", |(mode, ..)| mode.label()),
        tasks,
        completed: report.placements.len(),
        failed: report.failed.len(),
        makespan: report.makespan,
        arrivals: stats.arrivals,
        departures: stats.departures,
        crashes: stats.crashes,
        migrations: stats.migrations,
        wasted: stats.wasted_work,
    }
}

/// The reference churn-rate grid: trace events over one churn-free
/// makespan.
const REFERENCE_RATES: [usize; 3] = [4, 8, 16];

/// Run the full sweep: the churn-free run, then every rate ×
/// {drain-only, crash-only, crash-ckpt}. The leading cell *is* the
/// horizon — it runs once and every trace is drawn over its makespan (a
/// run with no churn and no faults draws nothing from `seed`, so that
/// horizon is the same at every seed).
#[must_use]
pub fn sweep(scenario: Scenario, seed: u64) -> Vec<ElasticRow> {
    let baseline = run_cell(scenario, None, seed);
    let horizon = baseline.makespan;
    let mut rows = vec![baseline];
    for events in REFERENCE_RATES {
        for mode in ChurnMode::ALL {
            rows.push(run_cell(scenario, Some((mode, events, horizon)), seed));
        }
    }
    rows
}

/// Drive `run()` to quiescence, tolerating per-task churn refusals
/// (expired deferrals fail one task and poison its cone; the rest of
/// the graph keeps executing).
fn run_to_quiescence(rt: &mut Runtime) -> RunReport {
    loop {
        match rt.run() {
            Ok(report) => return report,
            Err(RuntimeError::DeferralExpired(_)) => {}
            Err(e) => panic!("only deferral expiry is a legal churn refusal, got {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The reference sweep at seed 42, run once for the tests that read it.
    fn rows() -> &'static [ElasticRow] {
        static ROWS: OnceLock<Vec<ElasticRow>> = OnceLock::new();
        ROWS.get_or_init(|| sweep(reference_scenario(), 42))
    }

    fn cells(mode: ChurnMode) -> impl Iterator<Item = &'static ElasticRow> {
        rows().iter().filter(move |r| r.mode == mode.label())
    }

    #[test]
    fn drain_only_wastes_nothing_at_every_rate() {
        assert_eq!(cells(ChurnMode::DrainOnly).count(), REFERENCE_RATES.len());
        for row in cells(ChurnMode::DrainOnly) {
            assert!(row.survived(), "planned shrink lost tasks: {row:?}");
            assert_eq!(row.crashes, 0);
            assert_eq!(row.wasted, Seconds::ZERO, "drains must waste nothing");
        }
    }

    #[test]
    fn crash_only_loses_work_where_drain_and_checkpoint_survive() {
        let at_16 = |m| cells(m).find(|r| r.events == 16).expect("cell present");
        let crash = at_16(ChurnMode::CrashOnly);
        let ckpt = at_16(ChurnMode::CrashCkpt);
        let drain = at_16(ChurnMode::DrainOnly);
        assert!(
            !crash.survived(),
            "crash-only should poison cones: {crash:?}"
        );
        assert!(crash.wasted > Seconds::ZERO);
        assert!(ckpt.survived(), "checkpointed churn must recover: {ckpt:?}");
        assert!(drain.survived(), "drains must recover: {drain:?}");
    }

    #[test]
    fn makespan_degrades_with_churn_rate() {
        let base = rows()[0].makespan;
        assert_eq!(rows()[0].mode, "none", "the sweep leads with the baseline");
        let mut last = base;
        for row in cells(ChurnMode::CrashCkpt) {
            assert!(
                row.makespan >= base,
                "churn cannot beat the fixed fleet: {} vs {base}",
                row.makespan
            );
            last = last.max(row.makespan);
        }
        assert!(
            last > base,
            "the hostile end of the curve must degrade: {last} vs {base}"
        );
    }
}
