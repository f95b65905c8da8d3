//! E5 — Fig. 7: HEATS energy/performance trade-off and migration.

use legato_core::task::{TaskKind, Work};
use legato_core::units::{Bytes, Joule, Seconds};
use legato_heats::{Heats, TaskRequest};
use legato_hw::cluster::NodeSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One point of the trade-off curve.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffPoint {
    /// The customer weight used for every task.
    pub weight: f64,
    /// Time the last task completed.
    pub makespan: Seconds,
    /// Mean task completion time (the per-task performance metric).
    pub mean_completion: Seconds,
    /// Total energy attributed to the tasks.
    pub energy: Joule,
    /// Fraction of tasks that finished on low-power nodes.
    pub low_power_share: f64,
    /// Migrations performed by the rescheduling phase.
    pub migrations: usize,
}

/// The reference heterogeneous cluster: high-performance x86, low-power
/// ARM, GPU and FPGA nodes (a RECS|BOX-style mix).
#[must_use]
fn reference_cluster() -> Vec<NodeSpec> {
    let mut nodes = Vec::new();
    for i in 0..4 {
        nodes.push(NodeSpec::high_perf_x86(format!("x86-{i}")));
    }
    for i in 0..8 {
        nodes.push(NodeSpec::low_power_arm(format!("arm-{i}")));
    }
    for i in 0..2 {
        nodes.push(NodeSpec::gpu_node(format!("gpu-{i}")));
    }
    for i in 0..2 {
        nodes.push(NodeSpec::fpga_node(format!("fpga-{i}")));
    }
    nodes
}

/// A mixed batch of `n` tasks (compute-heavy with some inference).
#[must_use]
fn task_batch(n: usize, weight: f64, seed: u64) -> Vec<TaskRequest> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let inference = i % 5 == 4;
            let kind = if inference {
                TaskKind::Inference
            } else {
                TaskKind::Compute
            };
            let flops = if inference {
                rng.gen_range(5e11..2e12)
            } else {
                rng.gen_range(1e11..8e11)
            };
            // Customers cluster around the advertised weight but are not
            // identical — this spreads the placement thresholds and makes
            // the sweep smooth instead of a step function.
            let jitter: f64 = rng.gen_range(-0.15..=0.15);
            TaskRequest::new(
                format!("task-{i}"),
                rng.gen_range(1..=4),
                Bytes::gib(rng.gen_range(1..=4)),
                Work::flops(flops),
                kind,
            )
            .with_weight((weight + jitter).clamp(0.0, 1.0))
        })
        .collect()
}

/// Run the batch to completion at one trade-off weight: the full HEATS
/// loop — schedule pending tasks, advance to the next completion, reap,
/// and run the rescheduling (migration) phase.
#[must_use]
fn run_weight(weight: f64, n_tasks: usize, seed: u64) -> TradeoffPoint {
    let mut heats = Heats::new(reference_cluster(), seed);
    for t in task_batch(n_tasks, weight, seed) {
        heats.submit(t);
    }
    let mut now = Seconds::ZERO;
    for _round in 0..10_000 {
        let _placed = heats.schedule(now).unwrap_or_default();
        // Advance to the earliest running finish.
        let next_finish = heats
            .nodes()
            .iter()
            .flat_map(|n| n.running().iter().map(|r| r.finishes))
            .fold(Seconds(f64::INFINITY), Seconds::min);
        if !next_finish.0.is_finite() {
            break; // nothing running and nothing placeable
        }
        now = next_finish;
        heats.reap(now);
        // The periodic rescheduling phase: migrate misplaced tasks to
        // nodes freed by the completions.
        heats.reschedule(now);
        if heats.pending_count() == 0 && heats.nodes().iter().all(|n| n.running().is_empty()) {
            break;
        }
    }
    heats.reap(Seconds(f64::INFINITY));
    let completed = heats.completed();
    let makespan = completed
        .iter()
        .map(|c| c.finished)
        .fold(Seconds::ZERO, Seconds::max);
    let mean_completion = Seconds(
        completed.iter().map(|c| c.finished.0).sum::<f64>() / completed.len().max(1) as f64,
    );
    let low_power = completed
        .iter()
        .filter(|c| heats.node_name(c.node).starts_with("arm"))
        .count();
    TradeoffPoint {
        weight,
        makespan,
        mean_completion,
        energy: heats.total_energy(),
        low_power_share: low_power as f64 / completed.len().max(1) as f64,
        migrations: heats.migrations().len(),
    }
}

/// Sweep the customer weight across `[0, 1]`.
#[must_use]
pub fn tradeoff_sweep(weights: &[f64], n_tasks: usize, seed: u64) -> Vec<TradeoffPoint> {
    weights
        .iter()
        .map(|&w| run_weight(w, n_tasks, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_falls_as_weight_rises() {
        let pts = tradeoff_sweep(&[0.0, 1.0], 24, 42);
        assert!(
            pts[1].energy.0 < pts[0].energy.0,
            "energy {:?} vs {:?}",
            pts[1].energy,
            pts[0].energy
        );
        // And the energy-weighted run leans on the low-power nodes.
        assert!(pts[1].low_power_share > pts[0].low_power_share);
    }

    #[test]
    fn performance_falls_as_weight_rises() {
        let pts = tradeoff_sweep(&[0.0, 1.0], 24, 42);
        assert!(
            pts[1].mean_completion > pts[0].mean_completion,
            "mean completion {:?} vs {:?}",
            pts[1].mean_completion,
            pts[0].mean_completion
        );
    }

    #[test]
    fn all_tasks_complete() {
        let p = run_weight(0.5, 24, 7);
        assert!(p.makespan.0 > 0.0);
        assert!(p.energy.0 > 0.0);
    }
}
