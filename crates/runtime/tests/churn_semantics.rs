//! Deterministic end-to-end scenarios for the malleability layer:
//! planned drain wastes nothing, crashes migrate queued work (honouring
//! checkpoint stalls and power caps) and charge running work,
//! transiently empty TEE pools defer instead of refusing, and expired
//! deferrals fail cleanly.

use std::collections::HashMap;

mod common;

use common::gen;

use legato_core::requirements::{Criticality, Requirements, SecurityLevel};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskKind, Work};
use legato_core::units::{Bytes, Seconds, Watt};
use legato_fti::Strategy;
use legato_hw::device::DeviceSpec;
use legato_runtime::{
    ChurnConfig, ChurnEvent, ChurnEventKind, ChurnTrace, DepartureKind, EnergyConfig, EngineConfig,
    Policy, ResilienceConfig, Runtime, RuntimeError,
};

const FLOPS: f64 = 2e12;

fn task_duration() -> Seconds {
    DeviceSpec::xeon_x86().time_for(Work::flops(FLOPS), TaskKind::Compute)
}

/// `n` independent equal tasks (distinct regions: no dependencies).
fn submit_independent(rt: &mut Runtime, n: u64) {
    for r in 0..n {
        rt.submit(
            TaskDescriptor::named("t").with_work(Work::flops(FLOPS)),
            [(r, AccessMode::InOut)],
        );
    }
}

fn two_xeons(trace: ChurnTrace) -> Runtime {
    EngineConfig::new()
        .with_devices(vec![DeviceSpec::xeon_x86(), DeviceSpec::xeon_x86()])
        .with_policy(Policy::Performance)
        .with_churn(ChurnConfig::new(trace))
        .build()
        .expect("valid engine config")
}

#[test]
fn planned_drain_completes_everything_with_zero_wasted_work() {
    let dur = task_duration();
    let trace = ChurnTrace::from_events(vec![ChurnEvent {
        at: Seconds(dur.0 * 0.5),
        kind: ChurnEventKind::Departure {
            device: 1,
            kind: DepartureKind::Planned,
        },
    }]);
    let mut rt = two_xeons(trace);
    submit_independent(&mut rt, 6);
    let report = rt.run().expect("drain completes the run");
    let churn = report.churn.expect("churn configured");
    assert_eq!(report.placements.len(), 6, "no task lost to the shrink");
    assert!(report.failed.is_empty());
    assert_eq!(churn.departures, 1);
    assert_eq!(churn.crashes, 0);
    assert_eq!(churn.migrations, 0, "drained work is never re-planned");
    assert_eq!(
        churn.wasted_work,
        Seconds::ZERO,
        "a planned shrink wastes nothing"
    );
}

#[test]
fn crash_migrates_queued_attempts_and_charges_running_ones() {
    let dur = task_duration();
    let trace = ChurnTrace::from_events(vec![ChurnEvent {
        at: Seconds(dur.0 * 0.5),
        kind: ChurnEventKind::Departure {
            device: 1,
            kind: DepartureKind::Crash,
        },
    }]);
    let mut rt = two_xeons(trace);
    // Six equal tasks over two equal devices: three stack up on each, so
    // at `0.5 * dur` device 1 has one running attempt and two queued.
    submit_independent(&mut rt, 6);
    let report = rt.run().expect("the survivor absorbs the crash");
    let churn = report.churn.expect("churn configured");
    assert_eq!(report.placements.len(), 6, "retry + migration recover all");
    assert!(report.failed.is_empty());
    assert_eq!(churn.departures, 1);
    assert_eq!(churn.crashes, 1);
    assert_eq!(churn.migrations, 2, "the queued attempts migrate");
    assert!(
        (churn.wasted_work.0 - dur.0 * 0.5).abs() < 1e-9,
        "the running attempt's partial execution is lost: got {}",
        churn.wasted_work
    );
    assert_eq!(
        report.stats.detected, 1,
        "the crash charges the retry budget"
    );
    assert_eq!(report.stats.retries, 1);
    // Every post-crash start is on the survivor.
    for p in &report.placements {
        if p.start.0 > dur.0 * 0.5 {
            assert_eq!(p.devices.as_slice(), &[0], "dead device re-used");
        }
    }
}

#[test]
fn migration_during_a_checkpoint_blackout_waits_for_it_to_end() {
    // One chain on two Xeons under `Performance`: every task lands on
    // device 0 (equal finishes tie toward the first index), device 1
    // idles. A synchronous (`Initial`) checkpoint of a 16 GiB frontier
    // stalls placements for many task durations, so the successor
    // released inside the stall is queued on device 0 to start when the
    // write completes.
    let build = |trace: ChurnTrace| {
        let mut rt = EngineConfig::new()
            .with_devices(vec![DeviceSpec::xeon_x86(), DeviceSpec::xeon_x86()])
            .with_policy(Policy::Performance)
            .with_region_sizes(HashMap::from([(RegionId(0), Bytes::gib(16))]))
            .with_resilience(ResilienceConfig::new(Seconds(10.0)).with_strategy(Strategy::Initial))
            .with_churn(ChurnConfig::new(trace))
            .build()
            .expect("valid engine config");
        for _ in 0..64 {
            rt.submit(
                TaskDescriptor::named("t").with_work(Work::flops(FLOPS)),
                [(0, AccessMode::InOut)],
            );
        }
        rt
    };
    // Dry run (an empty trace is bit-identical to no churn) to read the
    // first checkpoint's stall window.
    let mut dry = build(ChurnTrace::new());
    while dry
        .last_checkpoint_time()
        .is_none_or(|t| t == Seconds::ZERO)
    {
        dry.step()
            .expect("no refusals")
            .expect("a checkpoint fires before the chain ends");
    }
    let stall_from = dry.checkpoint_interval().expect("interval planned");
    let stall_until = dry.last_checkpoint_time().expect("checkpoint taken");
    assert!(
        (stall_until - stall_from).0 > 4.0 * task_duration().0,
        "the stall must outlast the running task"
    );
    // Crash device 0 late in the stall: its only in-flight attempt is
    // the queued successor, which migrates to the idle device 1.
    let crash_at = Seconds(stall_until.0 - task_duration().0);
    let mut rt = build(ChurnTrace::from_events(vec![ChurnEvent {
        at: crash_at,
        kind: ChurnEventKind::Departure {
            device: 0,
            kind: DepartureKind::Crash,
        },
    }]));
    let report = rt.run().expect("the survivor finishes the chain");
    let churn = report.churn.expect("churn configured");
    assert_eq!(churn.migrations, 1, "the queued successor migrates");
    assert_eq!(report.stats.retries, 0, "nothing was running");
    assert_eq!(report.placements.len(), 64);
    let first_on_survivor = report
        .placements
        .iter()
        .filter(|p| p.devices.as_slice() == [1])
        .map(|p| p.start)
        .fold(Seconds(f64::INFINITY), Seconds::min);
    assert_eq!(
        first_on_survivor, stall_until,
        "the migrated attempt starts when the synchronous write completes"
    );
}

#[test]
fn migration_under_a_power_cap_stays_within_the_cap() {
    // Two Xeons (130 W) within a 150 W cap, one idle GTX 1080 (180 W)
    // above it: the capped objective stacks three tasks on each Xeon.
    // When device 1 crashes, its two queued attempts must move to the
    // other Xeon, not to the faster, idle, over-cap GPU.
    let dur = task_duration();
    let trace = ChurnTrace::from_events(vec![ChurnEvent {
        at: Seconds(dur.0 * 0.5),
        kind: ChurnEventKind::Departure {
            device: 1,
            kind: DepartureKind::Crash,
        },
    }]);
    let mut rt = EngineConfig::new()
        .with_devices(vec![
            DeviceSpec::xeon_x86(),
            DeviceSpec::xeon_x86(),
            DeviceSpec::gtx1080(),
        ])
        .with_policy(Policy::Performance)
        .with_energy(EnergyConfig::new().with_power_cap(Watt(150.0)))
        .with_churn(ChurnConfig::new(trace))
        .build()
        .expect("valid engine config");
    submit_independent(&mut rt, 6);
    let report = rt.run().expect("the capped survivor absorbs the crash");
    assert_eq!(report.placements.len(), 6);
    assert_eq!(report.churn.expect("churn configured").migrations, 2);
    for p in &report.placements {
        assert_ne!(p.devices.as_slice(), &[2], "placed above the cap");
    }
    assert_eq!(
        report.energy.expect("energy configured").cap_relaxations,
        0,
        "a capped survivor existed for every placement"
    );
}

#[test]
fn enclave_task_defers_until_a_tee_device_arrives() {
    // No TEE device at build time: a fixed fleet would hard-refuse.
    let trace = ChurnTrace::from_events(vec![ChurnEvent {
        at: Seconds(5.0),
        kind: ChurnEventKind::Arrival {
            spec: DeviceSpec::xeon_x86(),
            pool: None,
            fault_prob: 0.0,
        },
    }]);
    let mut rt = EngineConfig::new()
        .with_devices(vec![DeviceSpec::gtx1080(), DeviceSpec::fpga_kintex()])
        .with_policy(Policy::Performance)
        .with_churn(ChurnConfig::new(trace))
        .build()
        .expect("valid engine config");
    rt.submit(
        TaskDescriptor::named("sealed")
            .with_work(Work::flops(FLOPS))
            .with_requirements(Requirements::new().with_security(SecurityLevel::Enclave)),
        [(0, AccessMode::InOut)],
    );
    let report = rt.run().expect("the arrival rescues the deferred task");
    let churn = report.churn.expect("churn configured");
    assert_eq!(report.placements.len(), 1);
    assert!(report.failed.is_empty());
    assert_eq!(churn.arrivals, 1);
    assert_eq!(churn.deferred_placements, 1, "the empty pool deferred once");
    let p = &report.placements[0];
    assert_eq!(
        p.devices.as_slice(),
        &[2],
        "placed on the arrived TEE device"
    );
    assert!(p.start >= Seconds(5.0), "cannot start before the arrival");
}

#[test]
fn expired_deferral_fails_the_task_cleanly() {
    // Churn armed but no arrival ever comes: the enclave task parks,
    // the window expires, and the refusal is the dedicated typed error
    // instead of an immediate `NoSecurePlacement`.
    let mut rt = EngineConfig::new()
        .with_devices(vec![DeviceSpec::gtx1080()])
        .with_policy(Policy::Performance)
        .with_churn(ChurnConfig::new(ChurnTrace::new()))
        .build()
        .expect("valid engine config");
    rt.submit(
        TaskDescriptor::named("sealed")
            .with_work(Work::flops(FLOPS))
            .with_requirements(Requirements::new().with_security(SecurityLevel::Enclave)),
        [(0, AccessMode::InOut)],
    );
    let err = rt.run().expect_err("no TEE device ever arrives");
    assert!(matches!(err, RuntimeError::DeferralExpired(_)));
    // The graph stays consistent: a follow-up run drains and reports.
    let report = rt.run().expect("clean after the refusal");
    assert_eq!(report.failed.len(), 1);
    assert!(report.placements.is_empty());
    assert_eq!(
        report.churn.expect("churn configured").deferred_placements,
        1
    );
}

/// Four dual-replica chains of 40 on two faulty GTX1080s with no retry
/// budget — every detected fault rolls back — plus one enclave task
/// with no successor and no TEE device to run on, so its deferral
/// expires (after three task durations) and fails it, over and over,
/// between rollbacks that re-arm it. Runs until the engine drains,
/// stepping past each expiry.
fn rolled_back_deferrals(trace: ChurnTrace) -> (Runtime, legato_runtime::RunReport) {
    let dur = DeviceSpec::gtx1080().time_for(Work::flops(FLOPS), TaskKind::Compute);
    let churn = ChurnConfig::new(trace)
        .with_defer_window(Seconds(dur.0 * 3.0))
        .expect("positive window");
    let mut rt = EngineConfig::new()
        .with_devices(vec![DeviceSpec::gtx1080(), DeviceSpec::gtx1080()])
        .with_policy(Policy::Performance)
        .with_seed(42)
        .with_max_retries(0)
        .with_churn(churn)
        .with_resilience(ResilienceConfig::new(Seconds(dur.0 * 8.0)).with_max_rollbacks(100_000))
        .build()
        .expect("valid engine config");
    rt.set_fault_prob(0, 0.05);
    rt.set_fault_prob(1, 0.05);
    rt.submit(
        TaskDescriptor::named("sealed")
            .with_work(Work::flops(FLOPS))
            .with_requirements(Requirements::new().with_security(SecurityLevel::Enclave)),
        [(1000, AccessMode::InOut)],
    );
    let dual = Requirements::new().with_criticality(Criticality::High);
    for _ in 0..40 {
        for chain in 0..4u64 {
            rt.submit(
                TaskDescriptor::named("link")
                    .with_work(Work::flops(FLOPS))
                    .with_requirements(dual),
                [(chain, AccessMode::InOut)],
            );
        }
    }
    let (report, _) = gen::run_past_expiries(&mut rt);
    (rt, report)
}

/// `placements` and `failed` partition the submitted tasks.
fn assert_accounted(report: &legato_runtime::RunReport, tasks: usize) {
    let mut seen: Vec<_> = report.placements.iter().map(|p| p.task).collect();
    seen.extend(&report.failed);
    seen.sort_unstable();
    let listed = seen.len();
    seen.dedup();
    assert_eq!(seen.len(), listed, "a task is listed twice: {report:?}");
    assert_eq!(listed, tasks, "placements + failed account for every task");
}

#[test]
fn rollback_rewinds_the_failed_list_with_the_frontier() {
    // No TEE device ever arrives: the enclave task ends failed — once,
    // however many rollbacks re-armed it and expiries failed it again.
    let (rt, report) = rolled_back_deferrals(ChurnTrace::new());
    let res = report.resilience.expect("resilience configured");
    assert!(res.rollbacks > 5, "scenario must roll back: {res:?}");
    let deferred = report.churn.expect("churn configured").deferred_placements;
    assert!(deferred > 1, "and re-park the re-armed task: {deferred}");
    assert_eq!(report.failed, vec![legato_core::task::TaskId(0)]);
    assert_accounted(&report, rt.graph().len());
}

#[test]
fn a_task_failed_before_a_rollback_and_placed_after_it_is_not_failed() {
    // A TEE device arrives after the first expiries: the next rollback
    // re-arms the enclave task and it runs. It is a placement, not a
    // failure as well.
    let dur = DeviceSpec::gtx1080().time_for(Work::flops(FLOPS), TaskKind::Compute);
    let trace = ChurnTrace::from_events(vec![ChurnEvent {
        at: Seconds(dur.0 * 30.0),
        kind: ChurnEventKind::Arrival {
            spec: DeviceSpec::xeon_x86(),
            pool: None,
            fault_prob: 0.0,
        },
    }]);
    let (rt, report) = rolled_back_deferrals(trace);
    let sealed = &report.placements[0];
    assert_eq!(sealed.task, legato_core::task::TaskId(0));
    assert_eq!(sealed.devices.as_slice(), &[2], "ran on the arrived TEE");
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert_accounted(&report, rt.graph().len());
}
