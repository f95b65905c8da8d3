//! Property-based tests of the static analysis layer: the analyzer's
//! verdicts must *mean* something about execution.
//!
//! Three contracts:
//!
//! * **Race-clean ⇒ deterministic** — a graph the race lint passes
//!   executes bit-identically run after run, and its dataflow ordering
//!   holds in the schedule (every consumer starts at or after its
//!   producer finishes), whatever completion order the event heap picks.
//! * **Injected race ⇒ reported with the right witness** — submitting an
//!   unordered writer pair through the explicit-deps API is always
//!   caught, naming exactly the two writers and the region.
//! * **Feasibility-clean ⇒ no `NoSecurePlacement`** — when the
//!   feasibility lint finds no error on a confidential graph, the engine
//!   never fails a placement for lack of a TEE at runtime.

use legato_core::requirements::{Requirements, SecurityLevel};
use legato_core::task::{AccessMode, TaskDescriptor, TaskId, Work};
use legato_core::units::{Bytes, Seconds};
use legato_hw::device::DeviceSpec;
use legato_runtime::{
    AnalysisConfig, EngineConfig, LintId, Policy, ResilienceConfig, Runtime, RuntimeError, Severity,
};
use legato_workloads::fleets;
use proptest::prelude::*;

/// Chains → tasks → flops.
type ChainSpec = Vec<Vec<f64>>;

fn chains_strategy() -> impl Strategy<Value = ChainSpec> {
    prop::collection::vec(prop::collection::vec(1e9f64..8e10, 1..10), 1..8)
}

/// Chain `c` serializes on its private region `c` through inference —
/// by construction race-free.
fn build_chains(rt: &mut Runtime, chains: &ChainSpec) {
    for (c, chain) in chains.iter().enumerate() {
        for &flops in chain {
            rt.submit(
                TaskDescriptor::named("t").with_work(Work::flops(flops)),
                [(c as u64, AccessMode::InOut)],
            );
        }
    }
}

fn analyzed_runtime(seed: u64) -> Runtime {
    EngineConfig::new()
        .with_devices(fleets::reference())
        .with_policy(Policy::Weighted(0.5))
        .with_seed(seed)
        .with_analysis(AnalysisConfig::new())
        .build()
        .expect("valid config")
}

proptest! {
    /// Contract 1: the analyzer passes inference-built chain graphs, and
    /// a clean verdict coincides with deterministic, dataflow-ordered
    /// execution — identical reports across runs, consumers never start
    /// before their producers finish.
    #[test]
    fn race_clean_graphs_run_deterministically(chains in chains_strategy(), seed in 0u64..500) {
        let run = || {
            let mut rt = analyzed_runtime(seed);
            build_chains(&mut rt, &chains);
            let verdict = rt.analyze();
            prop_assert!(verdict.is_clean(), "inference-built graph flagged: {verdict}");
            Ok(rt.run().expect("clean graph must not be refused"))
        };
        let a = run()?;
        let b = run()?;
        prop_assert_eq!(&a, &b);
        // Dataflow order holds in the schedule: within a chain each
        // consumer starts at or after its producer's finish.
        let mut next = 0u64;
        for chain in &chains {
            let ids: Vec<TaskId> = (0..chain.len()).map(|i| TaskId(next + i as u64)).collect();
            next += chain.len() as u64;
            for pair in ids.windows(2) {
                let prod = a.placements.iter().find(|p| p.task == pair[0]).expect("ran");
                let cons = a.placements.iter().find(|p| p.task == pair[1]).expect("ran");
                prop_assert!(
                    cons.start.0 >= prod.finish.0 - 1e-9,
                    "{} started at {} before {} finished at {}",
                    pair[1], cons.start, pair[0], prod.finish
                );
            }
        }
    }

    /// Contract 2: an unordered writer pair injected through
    /// `submit_with_deps` is always reported, with the two writers and
    /// the contested region as the witness.
    #[test]
    fn injected_writer_races_are_always_caught(
        chains in chains_strategy(),
        region in 9000u64..9100,
    ) {
        let mut rt = analyzed_runtime(7);
        build_chains(&mut rt, &chains);
        // Two writers to a region no chain uses, with no ordering.
        let a = rt
            .submit_with_deps(TaskDescriptor::named("wa"), [(region, AccessMode::Out)], &[])
            .expect("no deps");
        let b = rt
            .submit_with_deps(TaskDescriptor::named("wb"), [(region, AccessMode::Out)], &[])
            .expect("no deps");
        let report = rt.analyze();
        let race = report
            .diagnostics
            .iter()
            .find(|d| d.lint == LintId::RegionRace)
            .expect("the race must be reported");
        prop_assert_eq!(race.severity, Severity::Error);
        prop_assert_eq!(&race.tasks, &vec![a, b]);
        prop_assert_eq!(race.regions.first().map(|r| r.0), Some(region));
        // And enforce mode refuses the run with the same report.
        match rt.run() {
            Err(RuntimeError::AnalysisFailed(rep)) => {
                prop_assert!(rep.diagnostics.contains(race));
            }
            other => prop_assert!(false, "expected AnalysisFailed, got {other:?}"),
        }
    }

    /// Contract 3: when the feasibility lint has no error on a
    /// confidential graph, the engine never raises `NoSecurePlacement`.
    #[test]
    fn feasibility_clean_never_hits_no_secure_placement(
        levels in prop::collection::vec(0u8..3, 1..20),
        with_tee in any::<bool>(),
        seed in 0u64..500,
    ) {
        let mut specs = vec![DeviceSpec::gtx1080(), DeviceSpec::fpga_kintex()];
        if with_tee {
            specs.push(DeviceSpec::xeon_x86());
        }
        let mut rt = EngineConfig::new()
            .with_devices(specs)
            .with_seed(seed)
            // Warn-only: the run must proceed so the claim is about the
            // engine, not the analyzer's refusal.
            .with_analysis(AnalysisConfig::new().warn_only())
            .build()
            .expect("valid config");
        for (i, &l) in levels.iter().enumerate() {
            let level = match l {
                0 => SecurityLevel::Public,
                1 => SecurityLevel::Confidential,
                _ => SecurityLevel::Enclave,
            };
            rt.submit(
                TaskDescriptor::named("t")
                    .with_work(Work::flops(1e9))
                    .with_requirements(Requirements::new().with_security(level)),
                [(i as u64, AccessMode::Out)],
            );
        }
        let feasibility_clean = !rt
            .analyze()
            .diagnostics
            .iter()
            .any(|d| d.lint == LintId::PlacementFeasibility && d.severity == Severity::Error);
        let result = rt.run();
        if feasibility_clean {
            prop_assert!(
                !matches!(result, Err(RuntimeError::NoSecurePlacement(_))),
                "lint said feasible, engine said {result:?}"
            );
        } else {
            // The lint predicted exactly this failure.
            prop_assert!(
                matches!(result, Err(RuntimeError::NoSecurePlacement(_))),
                "lint predicted NoSecurePlacement, engine said {result:?}"
            );
        }
    }
}

/// Enforce mode refuses a racy graph *before any event dispatches*: no
/// placements exist, virtual time never advanced, and the error carries
/// the report.
#[test]
fn enforce_mode_refuses_before_any_event() {
    let mut rt = analyzed_runtime(1);
    rt.submit_with_deps(TaskDescriptor::named("a"), [(0u64, AccessMode::Out)], &[])
        .expect("no deps");
    rt.submit_with_deps(TaskDescriptor::named("b"), [(0u64, AccessMode::Out)], &[])
        .expect("no deps");
    let err = rt.run().expect_err("racy graph must be refused");
    let RuntimeError::AnalysisFailed(report) = err else {
        panic!("expected AnalysisFailed, got {err}");
    };
    assert!(report.has_errors());
    assert_eq!(rt.now().0, 0.0, "no event may have advanced virtual time");
    assert!(
        rt.report().placements.is_empty(),
        "no task may have been placed"
    );
    // step() refuses identically.
    let err = rt.step().expect_err("step must refuse too");
    assert!(matches!(err, RuntimeError::AnalysisFailed(_)));
}

/// With resilience on, enforce mode has nothing to refuse on a runnable
/// chain: the engine checkpoints the completed frontier, which is closed
/// under dependences whatever the graph declares, so the chain runs to
/// the schedule it has with analysis off. (A per-task checkpoint mark
/// the engine never read used to get this chain refused when only its
/// second task carried it.)
#[test]
fn enforce_mode_with_resilience_runs_a_chain_to_the_unanalyzed_schedule() {
    let resilient = || {
        EngineConfig::new()
            .with_devices(fleets::reference())
            .with_policy(Policy::Performance)
            .with_seed(1)
            .with_resilience(ResilienceConfig::new(Seconds(500.0)))
    };
    let run = |cfg: EngineConfig| {
        let mut rt = cfg.build().expect("valid config");
        rt.submit(
            TaskDescriptor::named("raw").with_work(Work::flops(1e10)),
            [(0u64, AccessMode::Out)],
        );
        rt.submit(
            TaskDescriptor::named("model").with_work(Work::flops(1e10)),
            [(0u64, AccessMode::In)],
        );
        rt.run()
    };
    let enforced = run(resilient().with_analysis(AnalysisConfig::new()))
        .expect("a runnable chain is not refused");
    assert_eq!(enforced.placements.len(), 2);
    assert!(enforced.analysis.is_some_and(|a| a.is_clean()));
    let unanalyzed = run(resilient()).expect("analysis off");
    assert_eq!(enforced.placements, unanalyzed.placements);
}

/// A task whose declared footprint exceeds every device's memory
/// capacity runs to completion with analysis off: the engine has no
/// capacity dimension (DESIGN.md §6). Enforce mode therefore runs it to
/// the same schedule, and the footprint finding is attached as a warning
/// rather than refusing the run. (It used to be an error, so Enforce
/// refused a graph the engine completes.)
#[test]
fn enforce_mode_runs_an_oversized_footprint_the_engine_completes() {
    let fleet = || {
        EngineConfig::new()
            .with_devices(vec![DeviceSpec::xeon_x86(), DeviceSpec::gtx1080()])
            .with_policy(Policy::Performance)
            .with_seed(1)
    };
    let run = |cfg: EngineConfig| {
        let mut rt = cfg.build().expect("valid config");
        rt.submit(
            TaskDescriptor::named("huge").with_work(Work::new(1e10, Bytes::gib(1024))),
            [(0u64, AccessMode::Out)],
        );
        rt.run()
    };
    let unanalyzed = run(fleet()).expect("the engine never reads mem_capacity");
    assert_eq!(unanalyzed.placements.len(), 1);
    let enforced = run(fleet().with_analysis(AnalysisConfig::new()))
        .expect("Enforce must not refuse a graph the engine completes");
    assert_eq!(enforced.placements, unanalyzed.placements);
    let analysis = enforced.analysis.expect("report attached");
    assert!(!analysis.has_errors(), "{analysis}");
    assert!(
        analysis
            .diagnostics
            .iter()
            .any(|d| d.lint == LintId::PlacementFeasibility
                && d.severity == Severity::Warn
                && d.message.contains("capacity")),
        "{analysis}"
    );
}

/// Warn-only mode runs racy graphs and attaches the report to the
/// `RunReport` instead.
#[test]
fn warn_only_mode_attaches_the_report() {
    let mut rt = EngineConfig::new()
        .with_devices(fleets::reference())
        .with_analysis(AnalysisConfig::new().warn_only())
        .build()
        .expect("valid config");
    rt.submit_with_deps(TaskDescriptor::named("a"), [(0u64, AccessMode::Out)], &[])
        .expect("no deps");
    rt.submit_with_deps(TaskDescriptor::named("b"), [(0u64, AccessMode::Out)], &[])
        .expect("no deps");
    let report = rt.run().expect("warn-only must not refuse");
    assert_eq!(report.placements.len(), 2, "both writers executed");
    let analysis = report.analysis.expect("report attached");
    assert!(analysis.has_errors(), "the race is still reported");
}

/// Without `with_analysis` nothing is analyzed and nothing is attached —
/// the layer is strictly pay-for-what-you-use.
#[test]
fn analysis_off_attaches_nothing() {
    let mut rt = Runtime::new(fleets::reference(), Policy::Performance, 1);
    rt.submit_with_deps(TaskDescriptor::named("a"), [(0u64, AccessMode::Out)], &[])
        .expect("no deps");
    rt.submit_with_deps(TaskDescriptor::named("b"), [(0u64, AccessMode::Out)], &[])
        .expect("no deps");
    let report = rt.run().expect("no analysis, no refusal");
    assert!(report.analysis.is_none());
}

/// Streaming submission re-triggers analysis: a graph that was clean at
/// the first `run` is re-checked when it grows, and a race submitted
/// mid-stream is refused at the next entry.
#[test]
fn streaming_submission_reanalyzes_grown_graphs() {
    let mut rt = analyzed_runtime(1);
    rt.submit(
        TaskDescriptor::named("p").with_work(Work::flops(1e9)),
        [(0u64, AccessMode::Out)],
    );
    let _ = rt.run().expect("clean prefix runs");
    rt.submit_with_deps(TaskDescriptor::named("wa"), [(5u64, AccessMode::Out)], &[])
        .expect("no deps");
    rt.submit_with_deps(TaskDescriptor::named("wb"), [(5u64, AccessMode::Out)], &[])
        .expect("no deps");
    let err = rt.run().expect_err("grown graph re-analyzed");
    assert!(matches!(err, RuntimeError::AnalysisFailed(_)), "{err}");
}
