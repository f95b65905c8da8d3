//! Shared experiment implementations used by the `fig*` binaries and the
//! tier-1 shape and golden tests. Every function here is deterministic
//! given its seed arguments.
//!
//! Task graphs and fleets come from `legato-workloads`; an experiment
//! module only pairs one with an [`EngineConfig`](legato_runtime::EngineConfig)
//! in its `runtime(..)` constructor, which its sweep runs and the
//! [`RECIPES`] table names reference points of.

use legato_runtime::{Policy, Runtime, RuntimeError};
use legato_workloads::{fleets, Fan};

pub mod elastic;
pub mod energy;
pub mod engine;
pub mod fig5;
pub mod fig6;
pub mod goals;
pub mod heats;
pub mod mirror;
pub mod ml;
pub mod resilience;
pub mod secure;
pub mod secure_offload;
pub mod service;

/// Submit `fan` into `rt` and return the number of tasks submitted.
/// Deterministic per `seed`.
pub fn submit(rt: &mut Runtime, fan: &Fan, seed: u64) -> usize {
    fan.emit(seed, |descriptor, accesses| {
        rt.submit(descriptor, accesses.iter().copied());
    })
}

/// One named reference experiment: workload × fleet × engine config,
/// built ready to analyze or run.
pub struct Recipe {
    /// Bench-style id (`group/cell`), also the analyzer's report stem.
    pub name: &'static str,
    /// Build the configured runtime with the graph submitted.
    pub build: fn(seed: u64) -> Result<Runtime, RuntimeError>,
}

/// Every reference experiment graph, under the pillar configuration its
/// sweep really runs it with. `analyze_experiments` lints each entry and
/// tier-1 builds, lints and executes them all — so a new experiment is
/// written once.
pub const RECIPES: &[Recipe] = &[
    Recipe {
        name: "engine/wide_graph_1k",
        build: |seed| {
            Ok(engine::runtime(
                &Fan::reference_wide(),
                Policy::Performance,
                seed,
            ))
        },
    },
    Recipe {
        name: "engine/straggler_1k",
        build: |seed| {
            Ok(engine::runtime(
                &Fan::reference_straggler(),
                Policy::Weighted(0.5),
                seed,
            ))
        },
    },
    // The goals app with reliability-critical stages (E7 shape).
    Recipe {
        name: "goals/app_6x8_critical",
        build: |seed| {
            let mut rt = Runtime::new(fleets::reference(), Policy::Weighted(0.5), seed);
            goals::build_app(&mut rt, 6, 8, 0.3, seed);
            Ok(rt)
        },
    },
    // Under its checkpoint configuration, so the checkpoint-closure lint
    // sees the frontier the FTI layer would roll back to.
    Recipe {
        name: "resilience/initial_ckpt",
        build: |seed| {
            let scenario = resilience::Scenario::reference();
            let mtbf = resilience::reference_mtbfs(scenario)[0].1;
            resilience::runtime(scenario, mtbf, resilience::CkptMode::Initial, seed)
        },
    },
    // The 50 % confidential cell on both crypto classes: the flow and
    // feasibility lints run against the device mixes the sweep places on.
    Recipe {
        name: "secure_offload/sw_50pct",
        build: |seed| {
            let scenario = secure_offload::Scenario::reference();
            secure_offload::runtime(scenario, 50, secure_offload::CryptoClass::Software, seed)
        },
    },
    Recipe {
        name: "secure_offload/hw_50pct",
        build: |seed| {
            let scenario = secure_offload::Scenario::reference();
            secure_offload::runtime(scenario, 50, secure_offload::CryptoClass::Hardware, seed)
        },
    },
    // The energy frontier's eco cell (E11 shape).
    Recipe {
        name: "energy/eco_wide_graph",
        build: |seed| energy::runtime(&Fan::reference_wide(), Policy::Energy, 1, seed),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_recipe_lints_clean_and_runs_to_completion() {
        for recipe in RECIPES {
            let mut rt = (recipe.build)(42).expect("recipe builds");
            let tasks = rt.graph().len();
            assert!(tasks > 0, "{}: empty graph", recipe.name);
            let lint = rt.analyze();
            assert!(!lint.has_errors(), "{}: {lint}", recipe.name);
            let report = rt.run().expect("devices present");
            assert_eq!(report.placements.len(), tasks, "{}", recipe.name);
            assert!(report.failed.is_empty(), "{}", recipe.name);
            assert!(rt.graph().is_complete(), "{}", recipe.name);
        }
    }
}
