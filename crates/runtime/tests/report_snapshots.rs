//! Reports are snapshots, and the event trace explains them.
//!
//! A report's placements may share the engine's outcome table instead of
//! copying it, and the engine copies the table on its next write while a
//! report still holds it. Three contracts pin that:
//!
//! * **Snapshots stay put** — random interleavings of `submit`,
//!   `submit_batch`, `step` and `run`, under faults, checkpoint
//!   rollbacks and a churn trace, take reports at random points and keep
//!   them. Every kept report still equals the copy saved beside it at the
//!   end, and each equals, when taken, the compaction of
//!   [`Runtime::outcome`] over every submitted id: the shared path and
//!   the compacted path give the same list.
//! * **The trace replays the placements** — with
//!   [`EngineConfig::with_trace`], folding the records (the last `Place`
//!   before an accepting `Finish`; a `Rollback` drops the last
//!   `discarded` acceptances) rebuilds `RunReport::placements` exactly,
//!   and the trace changes no simulated value.
//! * **Across a rollback** — a report held while a rollback discards
//!   outcomes it lists is unchanged, and the trace replays through the
//!   rollback.

use std::collections::HashMap;

use legato_core::graph::GraphBuilder;
use legato_core::requirements::{Criticality, Requirements};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskId, Work};
use legato_core::units::{Bytes, Seconds};
use legato_hw::device::DeviceSpec;
use legato_runtime::{
    ChurnConfig, ChurnTrace, EngineConfig, Policy, Record, RecordKind, ResilienceConfig, RunReport,
    Runtime, RuntimeError, TaskOutcome,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Regions the tasks of a case chain through.
const REGIONS: u64 = 4;

/// One driver operation: `(selector, parameter, flops)`. Selectors:
/// 0 submit one task, 1 submit a batch of `parameter % 4 + 1` tasks,
/// 2 step `parameter + 1` times, 3 run, 4 take and keep a report.
type Op = (u8, u8, f64);

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..5, 0u8..16, 5e11f64..4e12), 1..48)
}

fn devices() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::xeon_x86(),
        DeviceSpec::gtx1080(),
        DeviceSpec::fpga_kintex(),
    ]
}

fn descriptor(parameter: u8, flops: f64) -> TaskDescriptor {
    let criticality = match parameter % 3 {
        0 => Criticality::Normal,
        1 => Criticality::High,
        _ => Criticality::Critical,
    };
    TaskDescriptor::named("t")
        .with_work(Work::flops(flops))
        .with_requirements(Requirements::new().with_criticality(criticality))
}

fn region(parameter: u8) -> RegionId {
    RegionId(u64::from(parameter) % REGIONS)
}

/// A runtime with faults on device 1, one retry, and optionally
/// checkpoint/restart, a seeded churn trace and the event trace.
fn runtime(seed: u64, resilient: bool, churn: Option<u64>, traced: bool) -> Runtime {
    let sizes: HashMap<RegionId, Bytes> = (0..REGIONS)
        .map(|r| (RegionId(r), Bytes::mib(16)))
        .collect();
    let mut cfg = EngineConfig::new()
        .with_devices(devices())
        .with_policy(Policy::Weighted(0.5))
        .with_seed(seed)
        .with_max_retries(1)
        .with_region_sizes(sizes);
    if resilient {
        cfg = cfg.with_resilience(ResilienceConfig::new(Seconds(600.0)).with_max_rollbacks(50));
    }
    if let Some(trace_seed) = churn {
        let trace = ChurnTrace::seeded(trace_seed, 3, Seconds(60.0), 6, &devices(), 0.5);
        cfg = cfg.with_churn(ChurnConfig::new(trace));
    }
    if traced {
        cfg = cfg.with_trace();
    }
    let mut rt = cfg.build().expect("valid engine config");
    rt.set_fault_prob(1, 0.4);
    rt
}

/// The outcomes [`Runtime::outcome`] reports now, in id order: what a
/// compacted report lists.
fn compacted(rt: &Runtime) -> Vec<TaskOutcome> {
    (0..rt.graph().len() as u64)
        .filter_map(|i| rt.outcome(TaskId(i)).copied())
        .collect()
}

/// An engine result, with an expired churn deferral (a typed per-task
/// refusal) tolerated.
fn tolerate<T>(r: Result<T, RuntimeError>) -> Result<Option<T>, TestCaseError> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(RuntimeError::DeferralExpired(_)) => Ok(None),
        Err(e) => Err(TestCaseError::Fail(format!("unexpected engine error: {e}"))),
    }
}

/// A report as it was taken: the report, the placements copied out of
/// it, the compaction of [`Runtime::outcome`] and the length of the
/// trace at that moment.
struct Kept {
    report: RunReport,
    saved: Vec<TaskOutcome>,
    compaction: Vec<TaskOutcome>,
    records: usize,
}

impl Kept {
    fn take(rt: &Runtime, report: RunReport) -> Self {
        Kept {
            saved: report.placements.to_vec(),
            compaction: compacted(rt),
            records: rt.trace().len(),
            report,
        }
    }
}

/// Drive `ops` on `rt`, then run it to quiescence. Returns every report
/// taken, ending with the final one.
fn drive(rt: &mut Runtime, ops: &[Op]) -> Result<Vec<Kept>, TestCaseError> {
    let mut kept = Vec::new();
    for &(op, parameter, flops) in ops {
        match op {
            0 => {
                rt.submit(
                    descriptor(parameter, flops),
                    [(region(parameter), AccessMode::InOut)],
                );
            }
            1 => {
                let mut batch = GraphBuilder::new();
                for i in 0..=parameter % 4 {
                    batch.task(
                        descriptor(parameter + i, flops),
                        [(region(parameter + i), AccessMode::InOut)],
                    );
                }
                rt.submit_batch(batch);
            }
            2 => {
                for _ in 0..=parameter {
                    if tolerate(rt.step())?.flatten().is_none() {
                        break;
                    }
                }
            }
            3 => {
                if let Some(report) = tolerate(rt.run())? {
                    kept.push(Kept::take(rt, report));
                }
            }
            _ => kept.push(Kept::take(rt, rt.report())),
        }
    }
    loop {
        if let Some(report) = tolerate(rt.run())? {
            kept.push(Kept::take(rt, report));
            return Ok(kept);
        }
    }
}

/// Fold a trace into the placements it implies, in id order.
fn replay(records: &[Record]) -> Vec<TaskOutcome> {
    let mut placed = HashMap::new();
    let mut outcomes = HashMap::new();
    let mut accepted: Vec<TaskId> = Vec::new();
    for r in records {
        match r.kind {
            RecordKind::Ready => {}
            RecordKind::Place { devices, .. } => {
                placed.insert(r.task, (devices, r.at));
            }
            RecordKind::Finish { verdict } => {
                if let Some(correct) = verdict.accepted() {
                    let (devices, start) = placed[&r.task];
                    let outcome = TaskOutcome {
                        task: r.task,
                        devices,
                        start,
                        finish: r.at,
                        correct,
                    };
                    outcomes.insert(r.task, outcome);
                    accepted.push(r.task);
                }
            }
            RecordKind::Rollback { discarded } => {
                for id in &accepted[accepted.len() - discarded..] {
                    outcomes.remove(id);
                }
            }
        }
    }
    let mut placements: Vec<TaskOutcome> = outcomes.into_values().collect();
    placements.sort_unstable_by_key(|o| o.task);
    placements
}

proptest! {
    /// Every kept report equals its saved copy at the end, and equals
    /// the compaction of `Runtime::outcome` taken beside it.
    #[test]
    fn kept_reports_are_unchanged_snapshots(
        ops in ops_strategy(),
        seed in 0u64..300,
        resilient in any::<bool>(),
        churn_seed in 0u64..600,
    ) {
        // Half the cases replay a churn trace.
        let churn = (churn_seed < 300).then_some(churn_seed);
        let mut rt = runtime(seed, resilient, churn, false);
        let kept = drive(&mut rt, &ops)?;
        for (i, k) in kept.iter().enumerate() {
            prop_assert!(k.report.placements[..] == k.saved[..], "report {} changed", i);
            prop_assert!(k.saved == k.compaction, "report {} is not the compaction", i);
        }
    }

    /// The trace up to each report replays that report's placements
    /// exactly, and turning it on changes no report and no rollback.
    #[test]
    fn the_trace_replays_the_placements(
        ops in ops_strategy(),
        seed in 0u64..300,
        resilient in any::<bool>(),
        churn_seed in 0u64..600,
    ) {
        // Half the cases replay a churn trace.
        let churn = (churn_seed < 300).then_some(churn_seed);
        let mut plain = runtime(seed, resilient, churn, false);
        let mut traced = runtime(seed, resilient, churn, true);
        let plain_reports = drive(&mut plain, &ops)?;
        let traced_reports = drive(&mut traced, &ops)?;
        prop_assert!(plain.trace().is_empty());
        prop_assert_eq!(plain_reports.len(), traced_reports.len());
        for (a, b) in plain_reports.iter().zip(&traced_reports) {
            prop_assert_eq!(&a.report, &b.report);
        }
        prop_assert_eq!(plain.rollback_trace(), traced.rollback_trace());
        for k in &traced_reports {
            prop_assert_eq!(replay(&traced.trace()[..k.records]), k.saved.clone());
        }
        let last = traced_reports.last().expect("the final report");
        prop_assert_eq!(last.records, traced.trace().len());
    }
}

/// A report held while a rollback discards outcomes it lists stays as it
/// was, and the trace replays through the rollback.
#[test]
fn a_report_held_across_a_rollback_is_unchanged() {
    let mut rt = runtime(3, true, None, true);
    for d in 0..devices().len() {
        rt.set_fault_prob(d, 0.5);
    }
    for c in 0..24u8 {
        rt.submit(descriptor(c, 2e12), [(region(c), AccessMode::InOut)]);
    }
    // The report taken just before the first step whose rollback
    // discards an outcome that report lists.
    let (held, saved) = loop {
        let report = rt.report();
        let saved = report.placements.to_vec();
        rt.step()
            .expect("devices present")
            .expect("such a rollback comes before the run drains");
        if report
            .placements
            .iter()
            .any(|p| rt.outcome(p.task).is_none())
        {
            break (report, saved);
        }
    };
    assert!(rt
        .trace()
        .iter()
        .any(|r| matches!(r.kind, RecordKind::Rollback { discarded } if discarded > 0)));
    let last = rt.run().expect("devices present");
    assert_eq!(held.placements[..], saved[..]);
    assert_eq!(replay(rt.trace()), last.placements.to_vec());
}
