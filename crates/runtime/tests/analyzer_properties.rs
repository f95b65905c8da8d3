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
//! * **Every feasibility diagnostic is a prediction** — on random
//!   fleets, levels, criticalities, objectives and churn traces, the
//!   engine does what each placement-feasibility finding says it will:
//!   fail with the named refusal, defer, shrink a replica set, or relax
//!   the makespan bound or the power cap.
//!
//! And one about the analyzer itself: **a streamed analysis is the batch
//! analysis** — whatever interleaving of submissions, steps and fleet
//! changes reaches an entry, the report it attaches (or refuses with) is
//! a from-scratch `Runtime::analyze` of the graph and fleet at that
//! entry.

use std::collections::HashMap;

mod common;

use common::gen;
use legato_core::requirements::{Criticality, Requirements, SecurityLevel};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskId, Work};
use legato_core::units::{Bytes, Seconds, Watt};
use legato_hw::device::DeviceSpec;
use legato_runtime::{
    AnalysisConfig, AnalysisReport, ChurnConfig, ChurnEvent, ChurnEventKind, ChurnTrace,
    DepartureKind, Diagnostic, EnergyConfig, EngineConfig, LintId, Policy, ResilienceConfig,
    Runtime, RuntimeError, Severity,
};
use legato_workloads::fleets;
use proptest::prelude::*;

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
    fn race_clean_graphs_run_deterministically(chains in gen::chains_strategy(), seed in 0u64..500) {
        let run = || {
            let mut rt = analyzed_runtime(seed);
            // Chain `c` serializes on its private region `c` through
            // inference: by construction race-free.
            gen::submit(&mut rt, &chains, gen::plain);
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
        chains in gen::chains_strategy(),
        region in 9000u64..9100,
    ) {
        let mut rt = analyzed_runtime(7);
        gen::submit(&mut rt, &chains, gen::plain);
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

    /// Contract 3: every feasibility diagnostic is a prediction the
    /// engine confirms. Random preset fleets (some TEE-less), random
    /// levels and criticality on independent tasks, no objective / a
    /// makespan bound / a power cap, and no churn / a TEE arrival / a
    /// TEE-less arrival at t = 1 s; each graph then runs with analysis
    /// off:
    ///
    /// * a stranded error holds exactly when the run fails with the
    ///   refusal it names (`NoSecurePlacement`, or `DeferralExpired`
    ///   under churn);
    /// * the run defers a placement exactly when a deferral warning or a
    ///   `DeferralExpired` error says it will;
    /// * a replica warning ⇒ the task ran on every eligible device;
    /// * bound warnings ⇒ at least one bound relaxation per task named;
    /// * on a completed run without deferrals, the replica warnings name
    ///   exactly the tasks placed on fewer devices than they want, and
    ///   the cap relaxations are exactly the placements of the tasks the
    ///   cap warning names.
    #[test]
    fn feasibility_clean_never_hits_no_secure_placement(
        fleet in prop::collection::vec(0usize..6, 1..5),
        tee_less in any::<bool>(),
        tasks in prop::collection::vec((0usize..3, 0usize..4, 1e9f64..1e11), 1..12),
        (objective, bound, cap) in (0u8..3, 1e-3f64..0.2, 10.0f64..200.0),
        churn in 0u8..3,
        seed in 0u64..500,
    ) {
        let presets = [
            DeviceSpec::gtx1080(),
            DeviceSpec::fpga_kintex(),
            DeviceSpec::maxeler_dfe(),
            DeviceSpec::xeon_x86(),
            DeviceSpec::arm64(),
            DeviceSpec::jetson_soc(),
        ];
        let modulus = if tee_less { 3 } else { presets.len() };
        let specs: Vec<DeviceSpec> = fleet.iter().map(|&i| presets[i % modulus].clone()).collect();
        let mut config = EngineConfig::new().with_devices(specs.clone()).with_seed(seed);
        match objective {
            1 => config = config.with_energy(EnergyConfig::new().with_makespan_bound(Seconds(bound))),
            2 => config = config.with_energy(EnergyConfig::new().with_power_cap(Watt(cap))),
            _ => {}
        }
        if churn > 0 {
            let spec = if churn == 1 { DeviceSpec::xeon_x86() } else { DeviceSpec::gtx1080() };
            let arrival = ChurnEvent {
                at: Seconds(1.0),
                kind: ChurnEventKind::Arrival { spec, pool: None, fault_prob: 0.0 },
            };
            config = config.with_churn(ChurnConfig::new(ChurnTrace::from_events(vec![arrival])));
        }
        let mut rt = config.build().expect("valid config");
        let levels = [SecurityLevel::Public, SecurityLevel::Confidential, SecurityLevel::Enclave];
        let crits = [Criticality::Low, Criticality::Normal, Criticality::High, Criticality::Critical];
        for (r, &(level, crit, flops)) in tasks.iter().enumerate() {
            rt.submit(
                TaskDescriptor::named("t")
                    .with_work(Work::flops(flops))
                    .with_requirements(
                        Requirements::new().with_security(levels[level]).with_criticality(crits[crit]),
                    ),
                [(r as u64, AccessMode::Out)],
            );
        }
        let analysis = rt.analyze();
        let feas = feasibility(&analysis);
        let named = |needle: &str| -> Vec<TaskId> {
            feas.iter().filter(|d| d.message.contains(needle)).flat_map(|d| d.tasks.clone()).collect()
        };
        let predicted = feas.iter().find(|d| d.severity == Severity::Error).map(|d| {
            d.message.contains("DeferralExpired")
        });
        let result = rt.run();
        let report = rt.report();
        match (predicted, &result) {
            (None, Ok(_))
            | (Some(false), Err(RuntimeError::NoSecurePlacement(_)))
            | (Some(true), Err(RuntimeError::DeferralExpired(_))) => {}
            _ => prop_assert!(false, "lint predicted {predicted:?}, engine said {result:?}: {analysis}"),
        }
        let deferred = report.churn.map_or(0, |c| c.deferred_placements);
        let defers = !named("defer until").is_empty() || predicted == Some(true);
        prop_assert!((deferred >= 1) == defers, "{deferred} deferrals: {analysis}");
        let Ok(run) = result else { return Ok(()) };
        let energy = run.energy.unwrap_or_default();
        let shrunk = named("replica set will shrink");
        for t in &shrunk {
            let level = levels[tasks[t.index()].0];
            let eligible = specs.iter().filter(|s| !level.requires_enclave() || s.tee.has_enclave()).count();
            let placed = run.placements.iter().find(|p| p.task == *t).expect("placed");
            prop_assert!(placed.devices.len() == eligible, "{t} on {:?}: {analysis}", placed.devices);
        }
        prop_assert!(
            energy.bound_relaxations >= named("makespan bound").len() as u64,
            "{} relaxations: {}", energy.bound_relaxations, analysis
        );
        if deferred == 0 {
            for p in &run.placements {
                let wanted = crits[tasks[p.task.index()].1].replica_count();
                prop_assert!(
                    (p.devices.len() < wanted) == shrunk.contains(&p.task),
                    "{} on {:?}: {analysis}", p.task, p.devices
                );
            }
            let capped = named("power cap").len() as u64;
            prop_assert!(
                energy.cap_relaxations == capped,
                "{} relaxations, {capped} predicted: {analysis}", energy.cap_relaxations
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
/// the same schedule. (The footprint finding used to be an error, so
/// Enforce refused a graph the engine completes; it predicted nothing a
/// run does, and is gone.)
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
}

fn enclave_task() -> TaskDescriptor {
    TaskDescriptor::named("sgx")
        .with_work(Work::flops(1e10))
        .with_requirements(Requirements::new().with_security(SecurityLevel::Enclave))
}

fn feasibility(report: &AnalysisReport) -> Vec<&Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.lint == LintId::PlacementFeasibility)
        .collect()
}

/// Under churn an empty TEE pool defers instead of refusing, and a TEE
/// arrival hosts the deferred tasks: the run completes with analysis
/// off, so Enforce must run it too and predict the deferral as a
/// warning. (It used to refuse the graph with a `NoSecurePlacement`
/// error the engine never raises under churn.)
#[test]
fn enforce_mode_runs_enclave_tasks_a_tee_arrival_will_host() {
    let config = || {
        let arrival = ChurnEvent {
            at: Seconds(1.0),
            kind: ChurnEventKind::Arrival {
                spec: DeviceSpec::xeon_x86(),
                pool: None,
                fault_prob: 0.0,
            },
        };
        EngineConfig::new()
            .with_devices(vec![DeviceSpec::gtx1080(), DeviceSpec::fpga_kintex()])
            .with_churn(ChurnConfig::new(ChurnTrace::from_events(vec![arrival])))
    };
    let run = |cfg: EngineConfig| {
        let mut rt = cfg.build().expect("valid config");
        for r in 0..4u64 {
            rt.submit(enclave_task(), [(r, AccessMode::Out)]);
        }
        rt.run()
    };
    let unanalyzed = run(config()).expect("the arrival hosts every deferred task");
    assert_eq!(unanalyzed.placements.len(), 4);
    assert!(unanalyzed.failed.is_empty());
    let enforced = run(config().with_analysis(AnalysisConfig::new()))
        .expect("Enforce must not refuse a graph the engine completes");
    assert_eq!(enforced.placements, unanalyzed.placements);
    let analysis = enforced.analysis.expect("report attached");
    let feas = feasibility(&analysis);
    assert_eq!(feas.len(), 1, "{analysis}");
    assert_eq!(feas[0].severity, Severity::Warn);
    assert_eq!(feas[0].tasks.len(), 4);
    assert!(feas[0].message.contains("defer"), "{}", feas[0]);
}

/// The power cap is checked against the devices a task may use: an
/// enclave task on a fleet whose only device under the cap has no TEE
/// relaxes the cap on every placement, and the lint names every one of
/// those tasks. (It used to check the cap against the whole fleet and
/// stay silent.)
#[test]
fn power_cap_is_checked_against_the_eligible_devices() {
    let mut rt = EngineConfig::new()
        .with_devices(vec![DeviceSpec::xeon_x86(), DeviceSpec::fpga_kintex()])
        .with_energy(EnergyConfig::new().with_power_cap(Watt(50.0)))
        .with_analysis(AnalysisConfig::new().warn_only())
        .build()
        .expect("valid config");
    let tasks: Vec<TaskId> = (0..4u64)
        .map(|r| rt.submit(enclave_task(), [(r, AccessMode::Out)]))
        .collect();
    let report = rt.run().expect("the xeon hosts every enclave task");
    assert_eq!(report.energy.expect("energy on").cap_relaxations, 4);
    let analysis = report.analysis.expect("report attached");
    let feas = feasibility(&analysis);
    assert_eq!(feas.len(), 1, "{analysis}");
    assert_eq!(feas[0].severity, Severity::Warn);
    assert_eq!(feas[0].tasks, tasks);
    assert!(feas[0].message.contains("power cap"), "{}", feas[0]);
}

/// A critical public task wants three replicas; on a two-device fleet
/// its replica set shrinks to two, and the lint says so. (It used to
/// check replica demand for enclave tasks only.)
#[test]
fn replica_shrink_is_predicted_for_public_tasks() {
    let mut rt = EngineConfig::new()
        .with_devices(vec![DeviceSpec::xeon_x86(), DeviceSpec::fpga_kintex()])
        .with_analysis(AnalysisConfig::new().warn_only())
        .build()
        .expect("valid config");
    let t = rt.submit(
        TaskDescriptor::named("critical")
            .with_work(Work::flops(1e10))
            .with_requirements(Requirements::new().with_criticality(Criticality::Critical)),
        [(0u64, AccessMode::Out)],
    );
    let report = rt.run().expect("two replicas run");
    assert_eq!(report.placements[0].devices.len(), 2);
    let analysis = report.analysis.expect("report attached");
    let feas = feasibility(&analysis);
    assert_eq!(feas.len(), 1, "{analysis}");
    assert_eq!(feas[0].severity, Severity::Warn);
    assert_eq!(feas[0].tasks, vec![t]);
    assert!(feas[0].message.contains("replica"), "{}", feas[0]);
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

/// Region, access mode, security level and criticality of a task.
type TaskSpec = (u64, usize, usize, usize);

/// One step of a streamed session.
#[derive(Debug, Clone)]
enum Entry {
    Submit(TaskSpec),
    /// `submit_with_deps` naming tasks picked among those so far: an
    /// ordering the regions do not imply, and often a race.
    SubmitWithDeps(TaskSpec, Vec<usize>),
    Step,
}

fn entry_strategy() -> impl Strategy<Value = Entry> {
    let task = || (0u64..6, 0usize..3, 0usize..3, 0usize..4);
    prop_oneof![
        task().prop_map(Entry::Submit),
        task().prop_map(Entry::Submit),
        (task(), prop::collection::vec(0usize..64, 0..3))
            .prop_map(|(t, deps)| Entry::SubmitWithDeps(t, deps)),
        Just(Entry::Step),
        Just(Entry::Step),
        Just(Entry::Step),
    ]
}

/// A TEE arrival, a TEE-less arrival, a drain or a crash.
fn churn_strategy() -> impl Strategy<Value = ChurnEvent> {
    (0.0f64..0.2, 0u8..4, 0usize..6).prop_map(|(at, kind, device)| ChurnEvent {
        at: Seconds(at),
        kind: match kind {
            0 | 1 => ChurnEventKind::Arrival {
                spec: if kind == 0 {
                    DeviceSpec::xeon_x86()
                } else {
                    DeviceSpec::gtx1080()
                },
                pool: None,
                fault_prob: 0.0,
            },
            _ => ChurnEventKind::Departure {
                device,
                kind: if kind == 2 {
                    DepartureKind::Planned
                } else {
                    DepartureKind::Crash
                },
            },
        },
    })
}

proptest! {
    /// The analysis every `step` (and a closing `run`) attaches, or
    /// refuses with, equals a from-scratch `Runtime::analyze` taken just
    /// before that entry, on random fleets (some TEE-less), objectives,
    /// resilience with a partial size declaration, churn traces and
    /// interleavings of `submit`, racing `submit_with_deps` and `step`,
    /// in both modes.
    #[test]
    fn streamed_analysis_equals_a_from_scratch_pass(
        fleet in prop::collection::vec(0usize..6, 1..4),
        entries in prop::collection::vec(entry_strategy(), 1..48),
        churn in prop::collection::vec(churn_strategy(), 0..5),
        (objective, warn_only, resilient) in (0u8..3, any::<bool>(), any::<bool>()),
        seed in 0u64..500,
    ) {
        let presets = [
            DeviceSpec::gtx1080(),
            DeviceSpec::fpga_kintex(),
            DeviceSpec::maxeler_dfe(),
            DeviceSpec::xeon_x86(),
            DeviceSpec::arm64(),
            DeviceSpec::jetson_soc(),
        ];
        let analysis = if warn_only {
            AnalysisConfig::new().warn_only()
        } else {
            AnalysisConfig::new()
        };
        let mut config = EngineConfig::new()
            .with_devices(fleet.iter().map(|&i| presets[i].clone()).collect())
            .with_policy(Policy::Performance)
            .with_seed(seed)
            .with_churn(ChurnConfig::new(ChurnTrace::from_events(churn)))
            .with_analysis(analysis);
        match objective {
            1 => config = config.with_energy(EnergyConfig::new().with_makespan_bound(Seconds(0.01))),
            2 => config = config.with_energy(EnergyConfig::new().with_power_cap(Watt(100.0))),
            _ => {}
        }
        if resilient {
            config = config
                .with_resilience(ResilienceConfig::new(Seconds(0.05)))
                .with_region_sizes(HashMap::from([(RegionId(0), Bytes::mib(1))]));
        }
        let mut rt = config.build().expect("valid config");
        let levels = [SecurityLevel::Public, SecurityLevel::Confidential, SecurityLevel::Enclave];
        let crits = [Criticality::Low, Criticality::Normal, Criticality::High, Criticality::Critical];
        let modes = [AccessMode::In, AccessMode::Out, AccessMode::InOut];
        let task = |&(region, mode, level, crit): &TaskSpec| {
            let descriptor = TaskDescriptor::named("t")
                .with_work(Work::flops(1e9 * (1 + region) as f64))
                .with_requirements(
                    Requirements::new().with_security(levels[level]).with_criticality(crits[crit]),
                );
            (descriptor, [(region, modes[mode])])
        };
        // An entry refuses exactly when Enforce meets an error, and what
        // it refuses with or attaches is the scratch pass taken before it.
        let check = |rt: &Runtime, scratch: AnalysisReport, result: Result<(), RuntimeError>| {
            let refused = match result {
                Err(RuntimeError::AnalysisFailed(report)) => Some(*report),
                _ => None,
            };
            prop_assert!(
                refused.is_some() == (!warn_only && scratch.has_errors()),
                "refused: {refused:?}\nscratch {scratch}"
            );
            let seen = refused.or_else(|| rt.report().analysis);
            prop_assert!(seen.as_ref() == Some(&scratch), "seen {seen:?}\nscratch {scratch}");
            Ok(())
        };
        for entry in &entries {
            match entry {
                Entry::Submit(t) => {
                    let (descriptor, accesses) = task(t);
                    rt.submit(descriptor, accesses);
                }
                Entry::SubmitWithDeps(t, picks) => {
                    let n = rt.graph().len();
                    let deps: Vec<TaskId> = picks
                        .iter()
                        .filter(|_| n > 0)
                        .map(|&p| TaskId((p % n) as u64))
                        .collect();
                    let (descriptor, accesses) = task(t);
                    rt.submit_with_deps(descriptor, accesses, &deps)
                        .expect("deps name earlier tasks");
                }
                Entry::Step => {
                    let scratch = rt.analyze();
                    let result = rt.step().map(|_| ());
                    check(&rt, scratch, result)?;
                }
            }
        }
        let scratch = rt.analyze();
        let result = rt.run().map(|_| ());
        check(&rt, scratch, result)?;
    }
}
