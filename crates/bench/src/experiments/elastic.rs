//! E10 — elastic malleability: device churn against the same ≥ 1k-task
//! graph the resilience experiment uses (§IV's sustained-execution
//! claim, now with the *fleet* as the failure domain instead of silent
//! task faults).
//!
//! A seeded [`ChurnTrace`] removes and replenishes devices while the
//! graph runs, in four modes:
//!
//! * `none` — churn never configured: the plain engine baseline;
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
//! The shape this records into `BENCH_elastic.json`: drain-and-checkpoint
//! completes the full graph at every churn rate where crash-only loses
//! part of it, and makespan degrades monotonically with churn rate
//! (the makespan-vs-churn-rate curve lives in the rows' simulated
//! makespans, the throughput elements carry survival).

use legato_core::units::Seconds;
use legato_runtime::{
    ChurnConfig, ChurnTrace, EngineConfig, Policy, ResilienceConfig, RunReport, Runtime,
    RuntimeError,
};
use legato_workloads::{fleets, region_sizes};

use super::resilience::Scenario;

/// How the fleet churns under the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnMode {
    /// No churn layer at all: the fixed-fleet baseline.
    None,
    /// Planned departures only (drain + frontier checkpoint).
    DrainOnly,
    /// Crash departures with no checkpoint layer: losses poison cones.
    CrashOnly,
    /// Crash departures over checkpoint/restart: rollbacks recover.
    CrashCkpt,
}

impl ChurnMode {
    /// All four modes, baseline first.
    pub const ALL: [ChurnMode; 4] = [
        ChurnMode::None,
        ChurnMode::DrainOnly,
        ChurnMode::CrashOnly,
        ChurnMode::CrashCkpt,
    ];

    /// Human-readable label (used in bench ids and tables).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ChurnMode::None => "none",
            ChurnMode::DrainOnly => "drain-only",
            ChurnMode::CrashOnly => "crash-only",
            ChurnMode::CrashCkpt => "crash-ckpt",
        }
    }

    /// Fraction of departures that crash (the rest drain).
    #[must_use]
    fn crash_fraction(self) -> f64 {
        match self {
            ChurnMode::None | ChurnMode::DrainOnly => 0.0,
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

/// Makespan of the scenario on the fixed reference fleet — the churn
/// horizon, so every trace's events land while the graph is in flight.
#[must_use]
pub fn baseline_makespan(scenario: Scenario) -> Seconds {
    run_scenario(scenario, ChurnMode::None, 0, 42).makespan
}

/// Execute `scenario` once under `events` churn events in the given
/// mode. Deterministic per `seed` (which seeds the trace too).
#[must_use]
pub fn run_scenario(scenario: Scenario, mode: ChurnMode, events: usize, seed: u64) -> ElasticRow {
    let fleet = fleets::reference();
    let fan = scenario.fan();
    let mut cfg = EngineConfig::new()
        .with_devices(fleet.clone())
        .with_policy(Policy::Performance)
        .with_seed(seed)
        .with_max_retries(scenario.max_retries);
    if mode == ChurnMode::CrashCkpt {
        cfg = cfg.with_resilience(
            ResilienceConfig::new(scenario.mean_task_duration() * 64.0)
                .with_region_sizes(region_sizes(fan.regions(), scenario.region_bytes))
                .with_max_rollbacks(10_000),
        );
    }
    if mode != ChurnMode::None {
        let horizon = baseline_makespan(scenario);
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
    let churn = report.churn.unwrap_or_default();
    ElasticRow {
        events,
        mode: mode.label(),
        tasks,
        completed: report.placements.len(),
        failed: report.failed.len(),
        makespan: report.makespan,
        arrivals: churn.arrivals,
        departures: churn.departures,
        crashes: churn.crashes,
        migrations: churn.migrations,
        wasted: churn.wasted_work,
    }
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

/// The reference churn-rate grid (events over one baseline makespan),
/// with the labels the `elastic` bench records them under. The single
/// definition of the grid — the bench iterates it, so
/// `BENCH_elastic.json` rows can never drift from the experiment.
#[must_use]
pub fn reference_rates() -> Vec<(&'static str, usize)> {
    vec![("churn_4", 4), ("churn_8", 8), ("churn_16", 16)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_only_wastes_nothing_at_every_rate() {
        let s = reference_scenario();
        for (_, events) in reference_rates() {
            let row = run_scenario(s, ChurnMode::DrainOnly, events, 42);
            assert!(row.survived(), "planned shrink lost tasks: {row:?}");
            assert_eq!(row.crashes, 0);
            assert_eq!(row.wasted, Seconds::ZERO, "drains must waste nothing");
        }
    }

    #[test]
    fn crash_only_loses_work_where_drain_and_checkpoint_survive() {
        let s = reference_scenario();
        let events = 16;
        let crash = run_scenario(s, ChurnMode::CrashOnly, events, 42);
        let ckpt = run_scenario(s, ChurnMode::CrashCkpt, events, 42);
        let drain = run_scenario(s, ChurnMode::DrainOnly, events, 42);
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
        let s = reference_scenario();
        let base = baseline_makespan(s);
        let mut last = base;
        for (_, events) in reference_rates() {
            let row = run_scenario(s, ChurnMode::CrashCkpt, events, 42);
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
