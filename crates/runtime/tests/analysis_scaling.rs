//! Tier-1 guard: static analysis stays within 10× of graph construction
//! at 100k tasks.
//!
//! The analyzer is only usable as a default-on pre-flight check if it is
//! asymptotically no worse than building the graph it checks: every lint
//! is designed to be linear in tasks + accesses on inference-built
//! graphs (the race lint's transitive closure only materializes columns
//! for conflict pairs that have no direct dependence edge — zero on an
//! inference-built graph). This test pins that design point with a
//! wall-clock ratio generous enough to be robust under CI noise; the
//! absolute numbers are `benchmark/`'s traced `graph.build_ns_per_task`
//! and `analyze.ns_per_task`.

use legato_runtime::{EngineConfig, Policy, Runtime};
use legato_workloads::{chains_batch, fleets};

const TASKS: usize = 100_000;

/// `TASKS / 4` chains of depth 4 serialized per region — the same shape
/// as the `runtime_engine/scaling` bench rows.
fn build_graph(rt: &mut Runtime) {
    let width = TASKS / 4;
    rt.reserve(TASKS, TASKS - width);
    rt.submit_batch(chains_batch(TASKS, width));
}

#[test]
// Wall-clock ratio guard: `Instant` is exactly the right tool here, and
// the determinism discipline (clippy.toml) does not apply to measuring
// host-side performance.
#[allow(clippy::disallowed_methods)]
fn analysis_stays_within_10x_of_graph_construction() {
    use std::time::Instant;

    let mut rt = EngineConfig::new()
        .with_devices(fleets::reference())
        .with_policy(Policy::Performance)
        .with_seed(42)
        .build()
        .expect("valid engine config");

    let t0 = Instant::now();
    build_graph(&mut rt);
    let build = t0.elapsed();

    let t1 = Instant::now();
    let report = rt.analyze();
    let analyze = t1.elapsed();

    assert!(report.is_clean(), "the bench-shaped graph must lint clean");
    assert_eq!(report.tasks_analyzed, TASKS);

    let ratio = analyze.as_secs_f64() / build.as_secs_f64().max(1e-9);
    eprintln!(
        "100k-task graph: build {:.1} ms, analyze {:.1} ms ({ratio:.2}x)",
        build.as_secs_f64() * 1e3,
        analyze.as_secs_f64() * 1e3
    );
    assert!(
        ratio <= 10.0,
        "analysis took {ratio:.1}x graph construction (budget: 10x): \
         build {build:?}, analyze {analyze:?}"
    );
}
