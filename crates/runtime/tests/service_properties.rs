//! Properties pinning the multi-tenant service layer.
//!
//! * **Single-tenant transparency** — a service hosting exactly one
//!   tenant is bit-identical to a bare engine over the same
//!   submissions: same `RunReport`, same placement-eval count. The
//!   session layer must cost nothing when there is nothing to arbitrate.
//! * **Weighted fairness** — equal-share tenants submitting identical
//!   backlogs complete the same number of tasks, and their mean
//!   completion times stay within one task-duration of each other (the
//!   stride dispatcher interleaves them round-robin).
//! * **Restart loses nothing** — after `restart()`, every sealed task
//!   survives without re-execution, every unsealed task is re-queued,
//!   and a follow-up run completes the full workload.
//! * **Incremental metering is a fold** — the meters the service keeps
//!   by reading the engine's acceptance log from a cursor equal, bit for
//!   bit, a fold over the final `RunReport`, rollbacks included; and a
//!   step-driven service drives the engine exactly as a run-driven one.
//! * **Heap stride order** — the dispatch order equals a linear argmin
//!   over `(vtime, tenant id)`, under mid-stream submissions and a
//!   restart.
//! * **Restart ≡ replay** — against the test's own log of every
//!   submission, a restart re-queues each tenant's unsealed tasks,
//!   in-flight, failed and completed-but-unsealed ones included, in
//!   session order and as submitted, whether the service still held
//!   them or only the old engine did.

use std::collections::{HashMap, VecDeque};

mod common;

use common::gen;

use legato_core::requirements::{Criticality, Requirements, SecurityLevel};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskId, Work};
use legato_core::units::{Bytes, Joule, Seconds};
use legato_hw::device::OperatingPoint;
use legato_runtime::{
    EnergyConfig, EngineConfig, Policy, RunReport, Runtime, RuntimeError, Service, ServiceConfig,
    TenantId, TenantSpec,
};
use legato_workloads::fleets;
use proptest::prelude::*;

fn engine(seed: u64, policy_sel: u8) -> EngineConfig {
    EngineConfig::new()
        .with_devices(fleets::reference())
        .with_policy(gen::policy(policy_sel))
        .with_seed(seed)
}

/// Per-task (flops, region selector): the region selector folds tasks
/// into a handful of regions so chains with real dependencies appear.
type Tasks = Vec<(f64, u8)>;

fn tasks_strategy() -> impl Strategy<Value = Tasks> {
    prop::collection::vec((5e11f64..4e12, 0u8..6), 1..24)
}

fn descriptor(flops: f64) -> TaskDescriptor {
    TaskDescriptor::named("t").with_work(Work::flops(flops))
}

/// An engine that rolls back: device 1 runs on a rail that corrupts
/// half its executions, the retry budget is 1, and checkpoint/restart
/// recovers replicated tasks that exhaust it. (A `Service` owns its
/// engine, so the fault rate has to come from the configuration.)
fn rollback_engine(seed: u64, tenants: usize) -> EngineConfig {
    let mut fleet = fleets::reference();
    fleet[1] = fleet[1].clone().with_operating_points(vec![
        OperatingPoint::nominal(),
        OperatingPoint::new("critical", 1.0, 1.0, 0.5),
    ]);
    let sizes: HashMap<RegionId, Bytes> = (0..tenants as u64)
        .flat_map(|t| (0..6).map(move |r| (RegionId((t << 32) | r), Bytes::mib(16))))
        .collect();
    EngineConfig::new()
        .with_devices(fleet)
        .with_policy(Policy::Performance)
        .with_seed(seed)
        .with_max_retries(1)
        .with_energy(EnergyConfig::new().with_device_point(1, 1))
        .with_region_sizes(sizes)
        .with_resilience(gen::checkpointing())
}

/// `tenants` sessions (every other one confidential, so the premium
/// split is exercised), each submitting the whole of `tasks`.
fn multi_tenant(cfg: EngineConfig, tenants: usize, tasks: &Tasks, replicated: bool) -> Service {
    let mut svc = ServiceConfig::new(cfg).build().expect("valid config");
    for t in 0..tenants {
        let spec = TenantSpec::new().with_share(1.0 + (t % 3) as f64);
        let spec = if t % 2 == 1 {
            spec.confidential()
        } else {
            spec
        };
        svc.register(spec).expect("valid spec");
    }
    for t in 0..tenants {
        for &(flops, r) in tasks {
            let mut d = descriptor(flops);
            if replicated {
                d = d.with_requirements(Requirements::new().with_criticality(Criticality::High));
            }
            svc.submit(TenantId(t as u32), d, [(u64::from(r), AccessMode::InOut)])
                .expect("within default budget");
        }
    }
    svc
}

/// One submission as the test logs it.
type Logged = (TaskDescriptor, Vec<(RegionId, AccessMode)>);

/// What tenant `t` of [`multi_tenant`] submits for a drawn `(flops,
/// region, security selector)`: an in-out of region `r` and a read of
/// region `r + 6`, at the drawn security level, raised to confidential
/// for the confidential tenants as the service raises it (so the
/// descriptor reads as the engine stores it).
fn logged(t: usize, flops: f64, r: u8, sec: u8) -> Logged {
    let mut security = gen::security(sec);
    if t % 2 == 1 && security == SecurityLevel::Public {
        security = SecurityLevel::Confidential;
    }
    let d = descriptor(flops).with_requirements(Requirements::new().with_security(security));
    let r = u64::from(r);
    (
        d,
        vec![
            (RegionId(r), AccessMode::InOut),
            (RegionId(r + 6), AccessMode::In),
        ],
    )
}

/// The tenant an engine task belongs to, read back from the upper half
/// of the region id the service namespaced it into.
fn tenant_of(rt: &Runtime, task: TaskId) -> usize {
    (rt.graph().accesses(task).expect("submitted task")[0].0 .0 >> 32) as usize
}

/// Reference metering: one pass over a final report, in task-id order.
/// Returns `(tasks_completed, busy_energy, enclave_premium)` per tenant.
fn fold_meters(rt: &Runtime, report: &RunReport, tenants: usize) -> Vec<(u64, Joule, Seconds)> {
    let mut meters = vec![(0u64, Joule::ZERO, Seconds::ZERO); tenants];
    let mut sealed = vec![0u64; tenants];
    for p in &report.placements {
        let t = tenant_of(rt, p.task);
        let dur = p.finish - p.start;
        let energy: Joule = p
            .devices
            .iter()
            .map(|&d| rt.devices()[d].spec.busy_power * dur)
            .sum();
        meters[t].0 += 1;
        meters[t].1 += energy;
        let d = rt.graph().descriptor(p.task).expect("submitted task");
        if d.requirements.security.seals_at_rest() {
            sealed[t] += 1;
        }
    }
    let premium = report
        .security
        .map_or(Seconds::ZERO, |s| s.enclave_time + s.seal_time);
    let sealed_total: u64 = sealed.iter().sum();
    if sealed_total > 0 && premium > Seconds::ZERO {
        let per_task = premium / sealed_total as f64;
        for (m, &n) in meters.iter_mut().zip(&sealed) {
            m.2 += per_task * n as f64;
        }
    }
    meters
}

/// Reference stride scheduler: drain every queue by repeated linear
/// argmin over `(vtime, tenant id)`, appending `(tenant, index)` to
/// `order`.
fn reference_dispatch(
    shares: &[f64],
    vtime: &mut [f64],
    pending: &mut [VecDeque<u64>],
    order: &mut Vec<(usize, u64)>,
) {
    loop {
        let mut next: Option<usize> = None;
        for t in 0..shares.len() {
            if pending[t].is_empty() {
                continue;
            }
            if next.is_none_or(|b| vtime[t] < vtime[b]) {
                next = Some(t);
            }
        }
        let Some(t) = next else { break };
        order.push((t, pending[t].pop_front().expect("non-empty")));
        vtime[t] += 1.0 / shares[t];
    }
}

/// The order the engine actually received submissions in, as
/// `(tenant, session-local index)` — each task of the stride test
/// writes the region named after its own index.
fn observed_dispatch(rt: &Runtime) -> Vec<(usize, u64)> {
    (0..rt.graph().len() as u64)
        .map(|id| {
            let r = rt.graph().accesses(TaskId(id)).expect("submitted task")[0]
                .0
                 .0;
            ((r >> 32) as usize, r & 0xFFFF_FFFF)
        })
        .collect()
}

proptest! {
    /// One tenant, any workload, any policy: the service is a
    /// transparent wrapper — bit-identical report and the identical
    /// number of candidate evaluations as the bare engine. Tenants that
    /// register after it and submit nothing (every other one
    /// confidential) change none of that: tenant 0 of N is the single
    /// tenant.
    #[test]
    fn single_tenant_service_is_bit_identical_to_bare_engine(
        tasks in tasks_strategy(),
        seed in 0u64..200,
        policy_sel in 0u8..4,
        idle in 0usize..5,
    ) {
        let mut bare = engine(seed, policy_sel).build().expect("valid config");
        for &(flops, r) in &tasks {
            bare.submit(descriptor(flops), [(u64::from(r), AccessMode::InOut)]);
        }
        let bare_report = bare.run().expect("devices present");

        let mut svc = ServiceConfig::new(engine(seed, policy_sel))
            .build()
            .expect("valid config");
        let tenant = svc.register(TenantSpec::new()).expect("valid spec");
        for i in 0..idle {
            let spec = if i % 2 == 0 { TenantSpec::new().confidential() } else { TenantSpec::new() };
            svc.register(spec).expect("valid spec");
        }
        for &(flops, r) in &tasks {
            svc.submit(tenant, descriptor(flops), [(u64::from(r), AccessMode::InOut)])
                .expect("within default budget");
        }
        let svc_report = svc.run().expect("devices present");

        prop_assert_eq!(&bare_report, &svc_report);
        prop_assert_eq!(bare.placement_evals(), svc.engine().placement_evals());
        prop_assert_eq!(
            svc.tenant_report(tenant).tasks_completed as usize,
            tasks.len()
        );
    }

    /// Equal shares, identical per-tenant backlogs of independent equal
    /// tasks: every tenant completes its whole backlog and mean
    /// completion times differ by at most one task duration (round-robin
    /// interleave can skew a tenant by at most one dispatch slot per
    /// round).
    #[test]
    fn equal_share_tenants_complete_within_a_fairness_bound(
        tenants in 2usize..6,
        per_tenant in 1usize..12,
        seed in 0u64..200,
    ) {
        let mut svc = ServiceConfig::new(engine(seed, 0))
            .build()
            .expect("valid config");
        let ids: Vec<TenantId> = (0..tenants)
            .map(|_| svc.register(TenantSpec::new()).expect("valid spec"))
            .collect();
        // Adversarial submission order: each tenant's whole backlog at
        // once — the stride dispatcher must still interleave fairly.
        for &t in &ids {
            for r in 0..per_tenant as u64 {
                svc.submit(t, descriptor(2e12), [(r, AccessMode::InOut)])
                    .expect("within default budget");
            }
        }
        let report = svc.run().expect("devices present");
        prop_assert!(report.failed.is_empty());

        // Mean finish per tenant via the engine's placement log: task
        // ids were handed out in dispatch (stride) order, tenant of
        // submission i is i % tenants under equal shares.
        let mut sum = vec![Seconds::ZERO; tenants];
        let mut count = vec![0u64; tenants];
        for p in &report.placements {
            let t = (p.task.0 as usize) % tenants;
            sum[t] += p.finish;
            count[t] += 1;
        }
        let slowest_dev_dur = fleets::reference()
            .iter()
            .map(|d| d.time_for(Work::flops(2e12), legato_core::task::TaskKind::Compute))
            .fold(Seconds::ZERO, Seconds::max);
        let means: Vec<f64> = (0..tenants).map(|t| sum[t].0 / count[t] as f64).collect();
        let spread = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - means.iter().cloned().fold(f64::INFINITY, f64::min);
        for &t in &ids {
            prop_assert_eq!(
                svc.tenant_report(t).tasks_completed as usize,
                per_tenant
            );
        }
        prop_assert!(
            spread <= slowest_dev_dur.0 + 1e-9,
            "unfair spread {spread} vs one task duration {slowest_dev_dur}"
        );
    }

    /// Seal mid-stream, lose the engine, restart — twice: the session's
    /// checkpoint record is the only thing that survives, sealed work of
    /// both seals is never re-executed, unsealed work is re-queued, and
    /// the follow-up run finishes the entire workload. The record's
    /// bytes are the tenant's billed checkpoint bytes at every step.
    #[test]
    fn restart_from_checkpoint_loses_no_completed_work(
        tasks in tasks_strategy(),
        seed in 0u64..200,
        steps in 1usize..40,
    ) {
        let sizes: HashMap<RegionId, Bytes> =
            (0..6u64).map(|r| (RegionId(r), Bytes::mib(4 + r))).collect();
        let mut svc = ServiceConfig::new(engine(seed, 0).with_region_sizes(sizes.clone()))
            .build()
            .expect("valid config");
        let tenant = svc.register(TenantSpec::new()).expect("valid spec");
        for &(flops, r) in &tasks {
            svc.submit(tenant, descriptor(flops), [(u64::from(r), AccessMode::InOut)])
                .expect("within default budget");
        }
        let mut sealed = 0;
        for _ in 0..2 {
            // Advance partway, seal whatever has completed, then keep
            // going a little so completed-but-unsealed work exists too.
            for phase in [steps, steps / 2] {
                for _ in 0..phase {
                    if svc.step().expect("devices present").is_none() {
                        break;
                    }
                    prop_assert_eq!(
                        svc.session(tenant).expect("registered").bytes,
                        svc.tenant_report(tenant).checkpoint_bytes
                    );
                }
                if phase == steps {
                    svc.seal();
                }
            }
            let record = svc.session(tenant).expect("registered").clone();
            prop_assert!(record.frontier.len() >= sealed, "a seal was lost");
            sealed = record.frontier.len();
            prop_assert_eq!(record.bytes, svc.tenant_report(tenant).checkpoint_bytes);

            svc.restart().expect("retained config rebuilds");
            // The restart resumed from the record and left it alone.
            prop_assert_eq!(svc.session(tenant).expect("registered"), &record);
            prop_assert_eq!(svc.queued(tenant).expect("registered"), tasks.len() - sealed);
        }
        let record = svc.session(tenant).expect("registered").clone();
        let report = svc.run().expect("devices present");

        // The sealed frontier of both seals survived: the last engine
        // only ever saw the unsealed remainder, in session order.
        let unsealed: Vec<usize> = (0..tasks.len())
            .filter(|&idx| !record.frontier.contains(TaskId(idx as u64)))
            .collect();
        prop_assert_eq!(report.placements.len(), unsealed.len());
        for (k, &idx) in unsealed.iter().enumerate() {
            let resubmitted = svc.engine().graph().descriptor(TaskId(k as u64)).expect("dispatched");
            prop_assert_eq!(resubmitted.work, Work::flops(tasks[idx].0));
        }
        prop_assert!(report.failed.is_empty());
        prop_assert_eq!(svc.queued(tenant).expect("registered"), 0);
        // And the service's own ledger agrees the whole workload is
        // done: every task sealed, each one's output written once.
        let session = svc.session(tenant).expect("registered");
        prop_assert_eq!(session.frontier.len(), tasks.len());
        let written: Bytes = tasks.iter().map(|&(_, r)| sizes[&RegionId(u64::from(r))]).sum();
        prop_assert_eq!(session.bytes, written);
        prop_assert_eq!(session.bytes, svc.tenant_report(tenant).checkpoint_bytes);
    }

    /// Run-driven metering equals a fold over the final report, bit for
    /// bit — tasks completed, busy joules and premium — on a fault-free
    /// engine and on one that rolls back (where the engine accepts some
    /// ids more than once and the meters must count each once, with the
    /// outcome that stands).
    #[test]
    fn incremental_meters_equal_a_fold_over_the_final_report(
        tasks in tasks_strategy(),
        tenants in 1usize..5,
        seed in 0u64..200,
        rolls_back in 0u8..2,
    ) {
        let cfg = if rolls_back == 1 {
            rollback_engine(seed, tenants)
        } else {
            engine(seed, 0)
        };
        let mut svc = multi_tenant(cfg, tenants, &tasks, rolls_back == 1);
        // A failed run still syncs the meters with what the engine did.
        let _ = svc.run();
        let report = svc.engine().report();
        let expected = fold_meters(svc.engine(), &report, tenants);
        for (t, want) in expected.iter().enumerate() {
            let got = svc.tenant_report(TenantId(t as u32));
            prop_assert_eq!(got.tasks_completed, want.0);
            prop_assert_eq!(got.busy_energy.0.to_bits(), want.1 .0.to_bits());
            prop_assert_eq!(got.enclave_premium.0.to_bits(), want.2 .0.to_bits());
        }
        prop_assert_eq!(
            svc.metering_visits(),
            svc.engine().accepted().len() as u64
        );
    }

    /// Without rollbacks, metering after every event and metering once
    /// after the run drive the engine identically (report bits and
    /// placement evaluations) and count the same completions.
    #[test]
    fn step_driven_service_equals_run_driven(
        tasks in tasks_strategy(),
        tenants in 1usize..5,
        seed in 0u64..200,
        policy_sel in 0u8..4,
    ) {
        let mut by_run = multi_tenant(engine(seed, policy_sel), tenants, &tasks, false);
        let mut by_step = multi_tenant(engine(seed, policy_sel), tenants, &tasks, false);
        let _ = by_run.run().expect("devices present");
        while by_step.step().expect("devices present").is_some() {}
        prop_assert_eq!(by_run.engine().report(), by_step.engine().report());
        prop_assert_eq!(
            by_run.engine().placement_evals(),
            by_step.engine().placement_evals()
        );
        for t in (0..tenants as u32).map(TenantId) {
            prop_assert_eq!(
                by_run.tenant_report(t).tasks_completed,
                by_step.tenant_report(t).tasks_completed
            );
        }
    }

    /// The heap hands out turns exactly as a linear argmin over
    /// `(vtime, tenant id)` would, whatever the shares (ties included)
    /// and however submissions interleave with steps — and again from
    /// zero virtual time after a seal + restart.
    #[test]
    fn stride_order_equals_the_linear_argmin(
        share_sel in prop::collection::vec(0usize..5, 1..7),
        ops in prop::collection::vec((0u8..8, 0usize..7), 1..60),
        restart_at in 0usize..60,
    ) {
        let shares: Vec<f64> = share_sel.iter().map(|&s| [0.5, 1.0, 1.0, 2.0, 3.0][s]).collect();
        let n = shares.len();
        let mut svc = ServiceConfig::new(engine(1, 0)).build().expect("valid config");
        for &share in &shares {
            svc.register(TenantSpec::new().with_share(share)).expect("valid spec");
        }
        let mut vtime = vec![0.0; n];
        let mut pending = vec![VecDeque::new(); n];
        let mut logged = vec![0u64; n];
        let mut expected = Vec::new();
        for (i, &(op, sel)) in ops.iter().enumerate() {
            if i == restart_at {
                svc.seal();
                prop_assert_eq!(&observed_dispatch(svc.engine()), &expected);
                svc.restart().expect("retained config rebuilds");
                expected.clear();
                for t in 0..n {
                    vtime[t] = 0.0;
                    let sealed = &svc.session(TenantId(t as u32)).expect("registered").frontier;
                    pending[t] = (0..logged[t])
                        .filter(|&idx| !sealed.contains(TaskId(idx)))
                        .collect();
                }
            }
            if op < 5 {
                let t = sel % n;
                let idx = svc
                    .submit(TenantId(t as u32), descriptor(1e12), [(logged[t], AccessMode::Out)])
                    .expect("within default budget");
                prop_assert_eq!(idx, logged[t]);
                pending[t].push_back(idx);
                logged[t] += 1;
            } else {
                let _ = svc.step().expect("devices present");
                reference_dispatch(&shares, &mut vtime, &mut pending, &mut expected);
            }
        }
        let _ = svc.run().expect("devices present");
        reference_dispatch(&shares, &mut vtime, &mut pending, &mut expected);
        prop_assert_eq!(&observed_dispatch(svc.engine()), &expected);
    }

    /// Restart ≡ replay. Random tenants submit, step and run on the
    /// rollback engine and seal at random points, so when the service
    /// restarts (twice) some tasks are pending, some in flight, some
    /// failed and some completed but unsealed. After each restart and
    /// the run that follows, each tenant's tasks in the new engine are
    /// exactly its session indices the seals did not cover, ascending,
    /// each with the submitted descriptor and namespaced accesses.
    #[test]
    fn restart_requeues_exactly_the_unsealed_submissions(
        tenants in 1usize..4,
        seed in 0u64..200,
        ops in prop::collection::vec(
            (0u8..10, 0usize..4, 5e11f64..4e12, 0u8..6, 0u8..3),
            1..60,
        ),
        restarts in prop::collection::vec(0usize..60, 2),
    ) {
        let cfg = rollback_engine(seed, tenants);
        let mut svc = multi_tenant(cfg, tenants, &Tasks::new(), false);
        let mut log: Vec<Vec<Logged>> = vec![Vec::new(); tenants];
        for (i, &(op, sel, flops, r, sec)) in ops.iter().enumerate() {
            match op {
                0..=4 => {
                    let t = sel % tenants;
                    let (d, accesses) = logged(t, flops, r, sec);
                    let idx = svc
                        .submit(TenantId(t as u32), d.clone(), accesses.clone())
                        .expect("within default budget");
                    prop_assert_eq!(idx, log[t].len() as u64);
                    log[t].push((d, accesses));
                }
                5..=7 => {
                    let _ = svc.step();
                }
                8 => {
                    let _ = svc.run();
                }
                _ => svc.seal(),
            }
            for _ in restarts.iter().filter(|&&at| at == i) {
                let sealed: Vec<_> = (0..tenants as u32)
                    .map(|t| svc.session(TenantId(t)).expect("registered").frontier.clone())
                    .collect();
                svc.restart().expect("retained config rebuilds");
                // Nothing is submitted between the restart and this run,
                // so the new engine holds exactly what was re-queued.
                let _ = svc.run();
                let rt = svc.engine();
                let mut requeued = vec![Vec::new(); tenants];
                for id in (0..rt.graph().len() as u64).map(TaskId) {
                    requeued[tenant_of(rt, id)].push(id);
                }
                for t in 0..tenants {
                    let unsealed: Vec<usize> = (0..log[t].len())
                        .filter(|&idx| !sealed[t].contains(TaskId(idx as u64)))
                        .collect();
                    prop_assert_eq!(requeued[t].len(), unsealed.len());
                    for (&id, &idx) in requeued[t].iter().zip(&unsealed) {
                        let (d, accesses) = &log[t][idx];
                        let namespaced: Vec<_> = accesses
                            .iter()
                            .map(|&(r, m)| (RegionId(((t as u64) << 32) | r.0), m))
                            .collect();
                        prop_assert_eq!(rt.graph().descriptor(id).expect("dispatched"), d);
                        prop_assert_eq!(
                            rt.graph().accesses(id).expect("dispatched"),
                            &namespaced[..]
                        );
                    }
                }
            }
        }
    }
}

/// The rollback configuration of the metering property is not vacuous:
/// it really makes the engine discard and redo accepted work.
#[test]
fn rollback_engine_really_rolls_back() {
    let tasks: Tasks = (0..20)
        .map(|i| (1e12 + f64::from(i) * 1e11, (i % 6) as u8))
        .collect();
    let rolled = (0..8u64).any(|seed| {
        let mut svc = multi_tenant(rollback_engine(seed, 3), 3, &tasks, true);
        let _ = svc.run();
        let rt = svc.engine();
        !rt.rollback_trace().is_empty() && rt.accepted().len() > rt.report().placements.len()
    });
    assert!(rolled, "no seed in 0..8 rolled back and re-accepted work");
}

/// The admission gate composes with the proptest workload shape: a
/// budget of `n` admits exactly `n` submissions, and the typed error
/// carries the tenant and the exhausted budget.
#[test]
fn admission_backpressure_is_typed_and_exact() {
    let mut svc = ServiceConfig::new(engine(1, 0))
        .build()
        .expect("valid config");
    let tenant = svc
        .register(TenantSpec::new().with_budget(3))
        .expect("valid spec");
    for r in 0..3u64 {
        svc.submit(tenant, descriptor(1e12), [(r, AccessMode::Out)])
            .expect("within budget");
    }
    let err = svc
        .submit(tenant, descriptor(1e12), [(3u64, AccessMode::Out)])
        .expect_err("budget exhausted");
    assert_eq!(
        err,
        RuntimeError::AdmissionRejected {
            tenant: tenant.0,
            queued: 3,
            budget: 3
        }
    );
}

/// A thousand concurrent tenants stream through one service: everyone
/// completes, everyone is metered, nobody needs more than the engine a
/// bare `Runtime` would use. (The sustained-rate numbers live in the
/// bench suite; this pins functional correctness at scale.)
#[test]
fn thousand_tenant_smoke() {
    let mut svc = ServiceConfig::new(
        EngineConfig::new()
            .with_devices(fleets::cycled(64))
            .with_policy(Policy::Performance)
            .with_seed(3),
    )
    .build()
    .expect("valid config");
    let ids: Vec<TenantId> = (0..1000)
        .map(|i| {
            svc.register(TenantSpec::new().with_share(1.0 + (i % 4) as f64))
                .expect("valid spec")
        })
        .collect();
    for &t in &ids {
        for r in 0..4u64 {
            svc.submit(t, descriptor(1e12), [(r, AccessMode::InOut)])
                .expect("within default budget");
        }
    }
    let report = svc.run().expect("devices present");
    assert_eq!(report.placements.len(), 4000);
    assert!(report.failed.is_empty());
    for &t in &ids {
        assert_eq!(svc.tenant_report(t).tasks_completed, 4);
        assert!(svc.tenant_report(t).busy_energy.0 > 0.0);
    }
}

/// Keep the helper alive for the bare-runtime comparison; silences the
/// unused-import lint when proptest shrinks away certain cases.
#[allow(dead_code)]
fn _assert_service_send() {
    fn is_send<T: Send>() {}
    is_send::<Service>();
    is_send::<Runtime>();
}
