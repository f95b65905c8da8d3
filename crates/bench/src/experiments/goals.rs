//! E7 — the project-level goals exercised on the full stack: energy-aware
//! scheduling, selective replication, task-declared checkpointing.

use std::collections::HashMap;

use legato_core::requirements::{Criticality, Requirements};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskKind, Work};
use legato_core::units::{Bytes, Joule, Seconds};
use legato_runtime::ckpt::{full_memory_volume, reduction_factor, task_declared_volume};
use legato_runtime::{Policy, Runtime};
use legato_workloads::fleets;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Build a synthetic application DAG: `stages` pipeline stages, each a
/// fan-out of `width` mixed tasks over a shared input, with `critical`
/// fraction of tasks marked reliability-critical.
pub fn build_app(rt: &mut Runtime, stages: usize, width: usize, critical: f64, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut region = 0u64;
    let mut stage_out = region;
    for s in 0..stages {
        let stage_in = stage_out;
        stage_out = {
            region += 1;
            region
        };
        for w in 0..width {
            let crit = if rng.gen_range(0.0..1.0) < critical {
                Criticality::Critical
            } else {
                Criticality::Normal
            };
            let kind = if (s + w) % 3 == 0 {
                TaskKind::Inference
            } else {
                TaskKind::Compute
            };
            let scratch = {
                region += 1;
                region
            };
            rt.submit(
                TaskDescriptor::named(format!("s{s}w{w}"))
                    .with_kind(kind)
                    .with_work(Work::flops(rng.gen_range(1e9..5e10)))
                    .with_requirements(Requirements::new().with_criticality(crit)),
                [
                    (stage_in, AccessMode::In),
                    (scratch, AccessMode::InOut),
                    (stage_out, AccessMode::InOut),
                ],
            );
        }
    }
}

/// Energy/performance comparison of scheduling policies on the same app.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Policy label.
    pub policy: String,
    /// Makespan.
    pub makespan: Seconds,
    /// Busy energy.
    pub energy: Joule,
}

/// Run the policy comparison.
#[must_use]
pub fn policy_comparison(seed: u64) -> Vec<PolicyRow> {
    [
        ("performance", Policy::Performance),
        ("weighted 0.5", Policy::Weighted(0.5)),
        ("energy", Policy::Energy),
    ]
    .into_iter()
    .map(|(label, policy)| {
        let mut rt = Runtime::new(fleets::reference(), policy, seed);
        build_app(&mut rt, 6, 8, 0.0, seed);
        let rep = rt.run().expect("devices present");
        PolicyRow {
            policy: label.to_string(),
            makespan: rep.makespan,
            energy: rep.busy_energy,
        }
    })
    .collect()
}

/// Reliability comparison under injected faults.
#[derive(Debug, Clone)]
pub struct ReliabilityRow {
    /// Strategy label.
    pub strategy: String,
    /// Fraction of runs in which every *reliability-critical* task
    /// produced the correct value — the asset selective replication
    /// protects.
    pub critical_correct: f64,
    /// Fraction of runs fully correct (every task).
    pub all_correct: f64,
    /// Mean busy energy per run.
    pub energy: Joule,
    /// Mean makespan per run.
    pub makespan: Seconds,
}

/// Replication strategies compared in E7(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplicationMode {
    /// Ignore criticality: every task runs once.
    None,
    /// Honor per-task criticality (the LEGaTO design).
    Selective,
    /// Triplicate everything.
    Full,
}

/// Compare no replication, selective replication (critical tasks only)
/// and full triple replication on a faulty GPU (silent data corruption at
/// `fault_prob` per execution), over `trials` seeds.
///
/// The *same* application is used in all three strategies: a DAG in which
/// 30 % of tasks are designated reliability-critical. Strategies differ
/// only in which tasks the runtime replicates.
#[must_use]
pub fn reliability_comparison(fault_prob: f64, trials: u64) -> Vec<ReliabilityRow> {
    let run = |label: &str, mode: ReplicationMode| -> ReliabilityRow {
        let mut critical_ok = 0u64;
        let mut all_ok = 0u64;
        let mut energy = 0.0;
        let mut makespan = 0.0;
        for seed in 0..trials {
            let mut rt = Runtime::new(fleets::reference(), Policy::Performance, seed);
            // The GPU is flaky.
            rt.set_fault_prob(1, fault_prob);
            // Designate critical tasks deterministically per seed, then
            // map to the strategy's effective criticality.
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xC417);
            let designated: Vec<bool> = (0..5 * 6).map(|_| rng.gen_range(0.0..1.0) < 0.3).collect();
            let mut region = 0u64;
            let mut stage_out = region;
            let mut idx = 0usize;
            let mut critical_ids = Vec::new();
            for s in 0..5 {
                let stage_in = stage_out;
                stage_out = {
                    region += 1;
                    region
                };
                for w in 0..6 {
                    let is_designated = designated[idx];
                    idx += 1;
                    let crit = match mode {
                        ReplicationMode::None => Criticality::Normal,
                        ReplicationMode::Selective => {
                            if is_designated {
                                Criticality::Critical
                            } else {
                                Criticality::Normal
                            }
                        }
                        ReplicationMode::Full => Criticality::Critical,
                    };
                    let scratch = {
                        region += 1;
                        region
                    };
                    let id = rt.submit(
                        TaskDescriptor::named(format!("s{s}w{w}"))
                            .with_kind(if (s + w) % 3 == 0 {
                                TaskKind::Inference
                            } else {
                                TaskKind::Compute
                            })
                            .with_work(Work::flops(1e10 + (idx as f64) * 1e9))
                            .with_requirements(Requirements::new().with_criticality(crit)),
                        [
                            (stage_in, AccessMode::In),
                            (scratch, AccessMode::InOut),
                            (stage_out, AccessMode::InOut),
                        ],
                    );
                    if is_designated {
                        critical_ids.push(id);
                    }
                }
            }
            let rep = rt.run().expect("devices present");
            let critical_fine = critical_ids.iter().all(|id| {
                rep.placements
                    .iter()
                    .find(|p| p.task == *id)
                    .is_some_and(|p| p.correct)
            });
            if critical_fine {
                critical_ok += 1;
            }
            if rep.is_correct() {
                all_ok += 1;
            }
            energy += rep.busy_energy.0;
            makespan += rep.makespan.0;
        }
        ReliabilityRow {
            strategy: label.to_string(),
            critical_correct: critical_ok as f64 / trials as f64,
            all_correct: all_ok as f64 / trials as f64,
            energy: Joule(energy / trials as f64),
            makespan: Seconds(makespan / trials as f64),
        }
    };
    vec![
        run("no replication", ReplicationMode::None),
        run("selective (30% critical)", ReplicationMode::Selective),
        run("full triplication", ReplicationMode::Full),
    ]
}

/// Task-declared checkpoint volume versus full-memory checkpointing on a
/// fan-out/reduce graph with large scratch buffers.
#[derive(Debug, Clone)]
pub struct CkptVolumeRow {
    /// Bytes a task-aware checkpoint writes at the frontier.
    pub declared: Bytes,
    /// Bytes a full-memory checkpoint writes.
    pub full: Bytes,
    /// Reduction factor.
    pub factor: f64,
}

/// Run the checkpoint-volume experiment.
#[must_use]
pub fn ckpt_volume() -> CkptVolumeRow {
    use legato_core::graph::TaskGraph;
    let mut g = TaskGraph::new();
    let producer = g.add_task(TaskDescriptor::named("load"), [(0u64, AccessMode::Out)]);
    let mut workers = Vec::new();
    let mut sizes: HashMap<RegionId, Bytes> = HashMap::new();
    sizes.insert(RegionId(0), Bytes::gib(4)); // the raw input
    for i in 0..16u64 {
        let scratch = 100 + i;
        let out = 200 + i;
        sizes.insert(RegionId(scratch), Bytes::gib(1));
        sizes.insert(RegionId(out), Bytes::mib(64));
        workers.push(g.add_task(
            TaskDescriptor::named(format!("worker{i}")),
            [
                (0u64, AccessMode::In),
                (scratch, AccessMode::InOut),
                (out, AccessMode::Out),
            ],
        ));
    }
    let reduce_in: Vec<(u64, AccessMode)> = (0..16u64).map(|i| (200 + i, AccessMode::In)).collect();
    let _reduce = g.add_task(TaskDescriptor::named("reduce"), reduce_in);
    // Execute up to the post-worker frontier.
    g.complete(producer).expect("ready");
    for w in workers {
        g.complete(w).expect("ready");
    }
    let declared = task_declared_volume(&g, &sizes);
    let full = full_memory_volume(&g, &sizes);
    CkptVolumeRow {
        declared,
        full,
        factor: reduction_factor(&g, &sizes).unwrap_or(f64::INFINITY),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_policy_saves_energy() {
        let rows = policy_comparison(3);
        let perf = &rows[0];
        let green = &rows[2];
        assert!(green.energy.0 < perf.energy.0);
        assert!(green.makespan >= perf.makespan);
    }

    #[test]
    fn selective_replication_protects_critical_tasks_cheaply() {
        let rows = reliability_comparison(0.08, 20);
        let none = &rows[0];
        let selective = &rows[1];
        let full = &rows[2];
        assert!(
            none.critical_correct < 0.8,
            "faults must bite the unprotected critical tasks: {none:?}"
        );
        assert!(
            selective.critical_correct > 0.9,
            "selective must protect the critical subset: {selective:?}"
        );
        assert!(full.critical_correct > 0.9);
        // Energy ordering: none < selective < full.
        assert!(selective.energy.0 < full.energy.0);
        assert!(none.energy.0 < selective.energy.0);
    }

    #[test]
    fn ckpt_volume_reduction_is_large() {
        let row = ckpt_volume();
        assert!(row.factor > 15.0, "factor {}", row.factor);
        assert_eq!(row.declared, Bytes::gib(1)); // 16 × 64 MiB
    }
}
