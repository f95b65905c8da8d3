//! Reports are snapshots, and the event trace explains them.
//!
//! A report's placements may share the chunks of the engine's outcome
//! table instead of copying them, and the engine copies a chunk on its
//! next write to it while a report still holds it. Four contracts pin
//! that:
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
//! * **Across chunks** — the outcome table is stored in 4096-slot
//!   chunks. Reports that share every chunk of an 11,200-task table
//!   (taken whenever every submitted task has completed) are held across
//!   later waves and across rollbacks that empty slots they list; each
//!   still reads, by iteration and by index, as it did when taken.

use std::collections::HashMap;

mod common;

use common::gen;
use legato_core::graph::GraphBuilder;
use legato_core::requirements::Requirements;
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskId, Work};
use legato_core::units::{Bytes, Seconds};
use legato_runtime::{
    ChurnConfig, ChurnTrace, Record, RecordKind, ResilienceConfig, RunReport, Runtime,
    RuntimeError, TaskOutcome,
};
use legato_workloads::region_sizes;
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

fn descriptor(parameter: u8, flops: f64) -> TaskDescriptor {
    TaskDescriptor::named("t")
        .with_work(Work::flops(flops))
        .with_requirements(Requirements::new().with_criticality(gen::criticality(parameter % 3)))
}

fn region(parameter: u8) -> RegionId {
    RegionId(u64::from(parameter) % REGIONS)
}

/// A runtime with faults on device 1, one retry, and optionally
/// checkpoint/restart, a seeded churn trace and the event trace.
fn runtime(seed: u64, resilient: bool, churn: Option<u64>, traced: bool) -> Runtime {
    let mut cfg =
        gen::config(seed).with_region_sizes(region_sizes(REGIONS as usize, Bytes::mib(16)));
    if resilient {
        cfg = cfg.with_resilience(ResilienceConfig::new(Seconds(600.0)).with_max_rollbacks(50));
    }
    if let Some(trace_seed) = churn {
        let trace = ChurnTrace::seeded(trace_seed, 3, Seconds(60.0), 6, &gen::devices(), 0.5);
        cfg = cfg.with_churn(ChurnConfig::new(trace));
    }
    if traced {
        cfg = cfg.with_trace();
    }
    gen::faulty(cfg)
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
    let (report, _) = gen::run_past_expiries(rt);
    kept.push(Kept::take(rt, report));
    Ok(kept)
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
            prop_assert!(k.report.placements.to_vec() == k.saved, "report {} changed", i);
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
    for d in 0..gen::devices().len() {
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
    assert_eq!(held.placements.to_vec(), saved);
    assert_eq!(replay(rt.trace()), last.placements.to_vec());
}

/// Tasks per wave of [`reports_sharing_chunks_survive_waves_and_rollbacks`]:
/// four waves fill two 4096-slot chunks of the outcome table and most
/// of a third.
const WAVE: u64 = 2_800;
const WAVES: u64 = 4;

/// Submit one wave of replicated tasks over 64 chained regions; odd
/// waves go in as one batch.
fn submit_wave(rt: &mut Runtime, wave: u64) {
    let tasks = (wave * WAVE..(wave + 1) * WAVE).map(|i| {
        let descriptor = TaskDescriptor::named("t")
            .with_work(Work::flops(5e11 * (1 + i % 7) as f64))
            .with_requirements(
                Requirements::new().with_criticality(gen::criticality(1 + (i % 2) as u8)),
            );
        (descriptor, [(RegionId(i % 64), AccessMode::InOut)])
    });
    if wave.is_multiple_of(2) {
        for (descriptor, accesses) in tasks {
            rt.submit(descriptor, accesses);
        }
    } else {
        let mut batch = GraphBuilder::new();
        for (descriptor, accesses) in tasks {
            batch.task(descriptor, accesses);
        }
        rt.submit_batch(batch);
    }
}

/// A report that shares every chunk of the outcome table is held while
/// later waves grow the table and rollbacks empty slots it lists, in
/// chunks it shares. Every wave but the last is stepped only until each
/// of its tasks has completed, so the run does not drain, and a long
/// MTBF keeps checkpoints rare: the next wave's rollbacks reach back to
/// the last checkpoint taken inside an earlier wave. At the end every held report
/// still reads as when it was taken, by iteration and by index, and the
/// final one equals both the trace replay and the compaction of
/// [`Runtime::outcome`].
#[test]
fn reports_sharing_chunks_survive_waves_and_rollbacks() {
    for seed in [0, 3, 5] {
        let mut rt = gen::config(seed)
            .with_region_sizes(region_sizes(64, Bytes::mib(16)))
            .with_resilience(ResilienceConfig::new(Seconds(1e7)).with_max_rollbacks(10_000))
            .with_trace()
            .build()
            .expect("valid engine config");
        for d in 0..gen::devices().len() {
            rt.set_fault_prob(d, 0.05);
        }
        let mut held: Vec<(RunReport, Vec<TaskOutcome>)> = Vec::new();
        // Acceptances replayed from the trace, and how many rollbacks
        // emptied a slot that a held report lists.
        let mut accepted: Vec<TaskId> = Vec::new();
        let mut read = 0;
        let mut reaching = 0;
        for wave in 0..WAVES {
            submit_wave(&mut rt, wave);
            let report = if wave + 1 == WAVES {
                rt.run().expect("devices present")
            } else {
                while !rt.graph().is_complete() {
                    rt.step().expect("devices present").expect("work left");
                }
                rt.report()
            };
            let listed = held.last().map_or(0, |(r, _)| r.placements.len() as u64);
            for r in &rt.trace()[read..] {
                match r.kind {
                    RecordKind::Finish { verdict } if verdict.accepted().is_some() => {
                        accepted.push(r.task);
                    }
                    RecordKind::Rollback { discarded } => {
                        let kept = accepted.len() - discarded;
                        reaching += usize::from(accepted[kept..].iter().any(|t| t.0 < listed));
                        accepted.truncate(kept);
                    }
                    _ => {}
                }
            }
            read = rt.trace().len();
            assert_eq!(
                report.placements.len(),
                rt.graph().len(),
                "seed {seed}: every task completed, so the report shares the table"
            );
            let saved = report.placements.to_vec();
            held.push((report, saved));
        }
        assert!(
            reaching > 0,
            "seed {seed}: some rollback empties a slot a held report lists"
        );
        for (i, (report, saved)) in held.iter().enumerate() {
            let placements = &report.placements;
            assert_eq!(
                &placements.to_vec(),
                saved,
                "seed {seed}: report {i} changed"
            );
            let indexed: Vec<TaskOutcome> = (0..placements.len()).map(|k| placements[k]).collect();
            assert_eq!(
                &indexed, saved,
                "seed {seed}: report {i} indexes as it iterates"
            );
        }
        let (last, _) = held.last().expect("one report per wave");
        assert_eq!(last.placements.len() as u64, WAVES * WAVE);
        assert_eq!(
            replay(rt.trace()),
            held.last().expect("one report per wave").1
        );
        assert_eq!(compacted(&rt), last.placements.to_vec());
    }
}
