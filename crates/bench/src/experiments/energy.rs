//! E11 — the energy/makespan frontier of operating-point scheduling.
//!
//! The paper's headline claim is an energy/performance *trade-off*, not a
//! single number: LEGaTO "aims to obtain an order-of-magnitude increase
//! in energy efficiency" by exposing knobs — DVFS-style derating,
//! undervolting, energy-aware placement — that move a workload along a
//! frontier instead of pinning it to the fastest point. This experiment
//! traces that frontier on the event engine:
//!
//! * the reference wide fan-out/fan-in scenario
//!   ([`Fan::reference_wide`], ≥ 1k tasks) on the four-device reference
//!   mix;
//! * a grid of scheduling policies × device operating points: every
//!   device stepped together down its default DVFS ladder
//!   (nominal → eco → deep-eco) through [`EnergyConfig`];
//! * each cell records simulated makespan, total energy, and average
//!   power from the run's [`EnergyStats`].
//!
//! The shape (asserted in the module tests; every cell's joules and
//! makespan bits pinned in `tests/experiments_goldens.rs`): for a fixed
//! policy, stepping down the ladder never costs energy and never saves
//! time — the cells are Pareto-ordered, so the frontier is real and a
//! deployment can buy energy with makespan at a known rate.
//!
//! [`EnergyConfig`]: legato_runtime::EnergyConfig
//! [`EnergyStats`]: legato_runtime::EnergyStats

use legato_core::units::{Joule, Seconds, Watt};
use legato_hw::device::OperatingPoint;
use legato_runtime::{EnergyConfig, EngineConfig, Policy, Runtime, RuntimeError};
use legato_workloads::{fleets, Fan};

/// One cell of the frontier: a (policy, operating-point) pair and what
/// the run cost.
#[derive(Debug, Clone)]
pub struct EnergyFrontierRow {
    /// Scheduling policy label (`"performance"`, `"weighted"`, `"energy"`).
    pub policy: &'static str,
    /// Ladder rung label (`"nominal"`, `"eco"`, `"deep-eco"`).
    pub point: String,
    /// Uniform ladder step the cell ran at.
    pub step: usize,
    /// Tasks in the graph.
    pub tasks: usize,
    /// Simulated completion time.
    pub makespan: Seconds,
    /// Busy energy plus idle draw over the makespan.
    pub total_energy: Joule,
    /// `total_energy / makespan`.
    pub average_power: Watt,
}

/// The policy grid the frontier is traced over, with the rows' labels.
#[must_use]
fn reference_policies() -> Vec<(&'static str, Policy)> {
    vec![
        ("performance", Policy::Performance),
        ("weighted", Policy::Weighted(0.5)),
        ("energy", Policy::Energy),
    ]
}

/// The operating-point grid: every rung of the default device ladder.
pub const REFERENCE_STEPS: [usize; 3] = [0, 1, 2];

/// `fan` submitted to an engine on the reference fleet under `policy`
/// with every device stepped to ladder rung `step`. Deterministic per
/// `seed`.
///
/// # Errors
///
/// Whatever [`EngineConfig::build`] refuses.
pub fn runtime(fan: &Fan, policy: Policy, step: usize, seed: u64) -> Result<Runtime, RuntimeError> {
    let mut rt = EngineConfig::new()
        .with_devices(fleets::reference())
        .with_policy(policy)
        .with_seed(seed)
        .with_energy(EnergyConfig::new().with_uniform_step(step))
        .build()?;
    super::submit(&mut rt, fan, seed);
    Ok(rt)
}

/// Trace the full frontier: every policy × every ladder rung.
#[must_use]
pub fn frontier(fan: &Fan, seed: u64) -> Vec<EnergyFrontierRow> {
    let ladder = OperatingPoint::default_ladder();
    let mut rows = Vec::new();
    for (label, policy) in reference_policies() {
        for step in REFERENCE_STEPS {
            let report = runtime(fan, policy, step, seed)
                .expect("reference devices carry the default ladder")
                .run()
                .expect("devices present");
            let stats = report.energy.expect("energy layer on");
            rows.push(EnergyFrontierRow {
                policy: label,
                point: ladder[step].label.clone(),
                step,
                tasks: report.placements.len(),
                makespan: report.makespan,
                total_energy: stats.total_energy,
                average_power: stats.average_power,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_covers_the_grid() {
        let rows = frontier(&Fan::reference_wide(), 42);
        assert_eq!(rows.len(), 9, "3 policies × 3 rungs");
        let tasks = rows[0].tasks;
        assert!(tasks >= 1000, "need ≥ 1k tasks, got {tasks}");
        assert!(rows.iter().all(|r| r.tasks == tasks), "nothing dropped");
    }

    #[test]
    fn ladder_steps_are_pareto_ordered_per_policy() {
        let rows = frontier(&Fan::reference_wide(), 42);
        for (label, _) in reference_policies() {
            let cells: Vec<&EnergyFrontierRow> =
                rows.iter().filter(|r| r.policy == label).collect();
            for pair in cells.windows(2) {
                assert!(
                    pair[1].total_energy <= pair[0].total_energy,
                    "{label}: deeper rung drew more energy: {pair:?}"
                );
                assert!(
                    pair[1].makespan >= pair[0].makespan,
                    "{label}: deeper rung finished sooner: {pair:?}"
                );
            }
            // The deep rung buys real savings, not a rounding artifact.
            let saving = 1.0 - cells[2].total_energy.0 / cells[0].total_energy.0;
            assert!(saving > 0.1, "{label}: deep-eco saved only {saving:.3}");
        }
    }

    #[test]
    fn frontier_is_deterministic() {
        let a = frontier(&Fan::reference_wide(), 7);
        let b = frontier(&Fan::reference_wide(), 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.makespan, y.makespan);
            assert_eq!(x.total_energy, y.total_energy);
        }
    }
}
