//! E8 — wide-graph scenarios for the event-driven execution engine.
//!
//! Two wide-graph scenarios (≥ 1k tasks, fan-out/fan-in) where scheduling
//! in *readiness* order beats committing placements in *submission* order
//! (what the deleted topological sweep did; its makespans on these two
//! scenarios are frozen as goldens in `tests/full_stack.rs`):
//!
//! * [`Scenario::Wide`] — a scatter task fans out to many independent
//!   dependency chains of uneven length and work, joined by a gather
//!   task. Devices saturate, so any greedy executor approaches the
//!   work-bound makespan; readiness-order placement still wins the tail.
//! * [`Scenario::Straggler`] — the same fan-out/fan-in shell around bulk
//!   chains *plus a few deep, thin chains submitted last*. A
//!   submission-order executor commits every bulk task's device window
//!   before it even looks at the thin chains' roots (ready since the
//!   scatter), serializing the stragglers behind the bulk; the engine
//!   interleaves them from the start (1.72× under the weighted trade-off
//!   policy).
//!
//! The `runtime_engine` criterion bench, `analyze_experiments` and
//! `experiments::energy` build on these scenarios.

use legato_core::requirements::{Criticality, Requirements};
use legato_core::task::{AccessMode, TaskDescriptor, TaskKind, Work};
use legato_runtime::Runtime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Region carrying the scatter task's fan-out output.
const SCATTER_REGION: u64 = 0;
/// First region id used by chains (one private region per chain).
const CHAIN_REGION_BASE: u64 = 1;

/// A wide-graph workload shape.
#[derive(Debug, Clone, Copy)]
pub enum Scenario {
    /// Saturating fan-out into `chains` uneven chains of mean `depth`.
    Wide {
        /// Number of independent chains.
        chains: usize,
        /// Mean chain depth; individual chains vary in `[depth/2, 2·depth]`.
        depth: usize,
    },
    /// Bulk chains plus a few deep, thin straggler chains submitted last.
    Straggler {
        /// Number of bulk chains.
        bulk_chains: usize,
        /// Depth of each bulk chain.
        bulk_depth: usize,
        /// Number of thin straggler chains.
        thin_chains: usize,
        /// Depth of each straggler chain.
        thin_depth: usize,
    },
}

impl Scenario {
    /// The reference saturating scenario (≥ 1k tasks across 64 chains).
    #[must_use]
    pub fn reference_wide() -> Self {
        Scenario::Wide {
            chains: 64,
            depth: 17,
        }
    }

    /// The reference straggler scenario (≥ 1k tasks; two 100-deep thin
    /// chains behind 40 bulk chains).
    #[must_use]
    pub fn reference_straggler() -> Self {
        Scenario::Straggler {
            bulk_chains: 40,
            bulk_depth: 20,
            thin_chains: 2,
            thin_depth: 100,
        }
    }

    /// Submit this scenario into `rt` (scatter → chains → gather) and
    /// return the number of tasks submitted. Deterministic per `seed`.
    pub fn build(self, rt: &mut Runtime, seed: u64) -> usize {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tasks = 0;
        // Fan-out source: every chain root reads the scatter output.
        rt.submit(
            TaskDescriptor::named("scatter").with_work(Work::flops(1e9)),
            [(SCATTER_REGION, AccessMode::Out)],
        );
        tasks += 1;
        let mut chain_regions: Vec<u64> = Vec::new();
        let chain = |rt: &mut Runtime,
                     rng: &mut SmallRng,
                     regions: &mut Vec<u64>,
                     depth: usize,
                     kinded: bool,
                     lo: f64,
                     hi: f64| {
            let region = CHAIN_REGION_BASE + regions.len() as u64;
            regions.push(region);
            let c = regions.len();
            for d in 0..depth {
                let kind = if kinded && (c + d).is_multiple_of(4) {
                    TaskKind::Inference
                } else {
                    TaskKind::Compute
                };
                let mut accesses = vec![(region, AccessMode::InOut)];
                if d == 0 {
                    accesses.push((SCATTER_REGION, AccessMode::In));
                }
                // A static task-type label: chain tasks are instances of
                // one type, and a per-instance `format!` name would put a
                // String allocation in every submission the bench times.
                rt.submit(
                    TaskDescriptor::named("chain")
                        .with_kind(kind)
                        .with_work(Work::flops(rng.gen_range(lo..hi)))
                        .with_requirements(
                            Requirements::new().with_criticality(Criticality::Normal),
                        ),
                    accesses,
                );
            }
            depth
        };
        match self {
            Scenario::Wide { chains, depth } => {
                for c in 0..chains {
                    let d = rng.gen_range((depth / 2).max(1)..=depth * 2);
                    // Heavier work on earlier chains: committing in
                    // submission order books these far into the future
                    // before looking at later, lighter chains.
                    let scale = 1.0 + 4.0 * (chains - c) as f64 / chains as f64;
                    tasks += chain(
                        rt,
                        &mut rng,
                        &mut chain_regions,
                        d,
                        true,
                        scale * 5e9,
                        scale * 5e10,
                    );
                }
            }
            Scenario::Straggler {
                bulk_chains,
                bulk_depth,
                thin_chains,
                thin_depth,
            } => {
                for _ in 0..bulk_chains {
                    tasks += chain(
                        rt,
                        &mut rng,
                        &mut chain_regions,
                        bulk_depth,
                        true,
                        2e10,
                        2e11,
                    );
                }
                // The stragglers: long serial chains of mid-size tasks,
                // submitted after every bulk task. Their per-task work is
                // big enough that parking them on the slowest device is
                // never worthwhile — submission order has no escape hatch.
                for _ in 0..thin_chains {
                    tasks += chain(
                        rt,
                        &mut rng,
                        &mut chain_regions,
                        thin_depth,
                        false,
                        4.8e11,
                        7.2e11,
                    );
                }
            }
        }
        // Fan-in sink over every chain's region.
        rt.submit(
            TaskDescriptor::named("gather").with_work(Work::flops(1e9)),
            chain_regions
                .iter()
                .map(|&r| (r, AccessMode::In))
                .collect::<Vec<_>>(),
        );
        tasks + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::goals::reference_devices;
    use legato_runtime::Policy;

    #[test]
    fn reference_scenarios_are_wide_enough() {
        for scenario in [Scenario::reference_wide(), Scenario::reference_straggler()] {
            let mut rt = Runtime::new(reference_devices(), Policy::Performance, 1);
            let tasks = scenario.build(&mut rt, 42);
            assert!(tasks >= 1000, "need ≥ 1k tasks, built {tasks}");
            // Fan-out/fan-in: only the scatter task is initially ready.
            assert_eq!(rt.graph().ready().len(), 1);
        }
    }
}
