//! E11 — multi-tenant service scaling: sustained throughput and tail
//! completion latency as the tenant count grows from a rack's worth of
//! users to a thousand concurrent sessions.
//!
//! Each cell registers `tenants` sessions with mixed QoS shares on one
//! [`Service`] over a 64-device fleet, streams an equal backlog from
//! every tenant through the stride dispatcher, runs to quiescence, and
//! reports:
//!
//! * **sustained rate** — completed tasks per simulated second
//!   (`completed / makespan`): the service's aggregate delivery rate
//!   under full multi-tenant arbitration;
//! * **p99 completion latency** — the 99th-percentile task finish time:
//!   the tail a tenant actually experiences when a thousand sessions
//!   compete for the same fleet.
//!
//! The shape recorded into `BENCH_service.json`: the sustained rate
//! holds (the fleet, not the session layer, is the bottleneck) while
//! p99 grows with the backlog, and every tenant completes its whole
//! backlog with zero admission rejections — fairness at 1k tenants is
//! pinned by the runtime's own property tests; this sweep prices it.

use legato_core::task::{AccessMode, TaskDescriptor, Work};
use legato_core::units::Seconds;
use legato_runtime::{EngineConfig, Policy, Service, ServiceConfig, TenantSpec};
use legato_workloads::fleets;

/// Tasks each tenant streams per cell.
pub const PER_TENANT: usize = 8;

/// One tenant-count cell of the sweep.
#[derive(Debug, Clone)]
pub struct ServiceRow {
    /// Concurrent tenants registered.
    pub tenants: usize,
    /// Tasks submitted across all tenants.
    pub tasks: usize,
    /// Tasks that completed.
    pub completed: usize,
    /// Completion time of the last task.
    pub makespan: Seconds,
    /// Completed tasks per simulated second.
    pub sustained_rate: f64,
    /// 99th-percentile task completion time.
    pub p99_latency: Seconds,
    /// Submissions refused by admission control (0 in this sweep: the
    /// backlogs fit the default budget).
    pub rejections: u64,
}

/// Build the cell's service over the 64-device fleet (sixteen of each
/// reference spec): `tenants` sessions with shares cycling 1–4, each streaming [`PER_TENANT`] independent tasks.
#[must_use]
pub fn build_service(tenants: usize, seed: u64) -> Service {
    let mut svc = ServiceConfig::new(
        EngineConfig::new()
            .with_devices(fleets::cycled(64))
            .with_policy(Policy::Performance)
            .with_seed(seed),
    )
    .build()
    .expect("valid engine config");
    for i in 0..tenants {
        let spec = TenantSpec::new().with_share(1.0 + (i % 4) as f64);
        svc.register(spec).expect("valid tenant spec");
    }
    svc
}

/// Tenant `t`'s `r`-th task: one reference-size task on its own region.
fn submit_one(svc: &mut Service, t: usize, r: u64) {
    svc.submit(
        legato_runtime::TenantId(t as u32),
        TaskDescriptor::named("svc").with_work(Work::flops(1e12)),
        [(r, AccessMode::InOut)],
    )
    .expect("backlog fits the default budget");
}

/// Execute one cell: stream every backlog, run to quiescence, and
/// distill the rate/latency row. Deterministic per `seed`.
#[must_use]
pub fn run_scenario(tenants: usize, seed: u64) -> ServiceRow {
    let mut svc = build_service(tenants, seed);
    for t in 0..tenants {
        for r in 0..PER_TENANT as u64 {
            submit_one(&mut svc, t, r);
        }
    }
    let report = svc.run().expect("devices present");
    let mut finishes: Vec<f64> = report.placements.iter().map(|p| p.finish.0).collect();
    finishes.sort_unstable_by(f64::total_cmp);
    let p99 = finishes
        .get(((finishes.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0.0);
    let rejections = (0..tenants)
        .map(|t| {
            svc.tenant_report(legato_runtime::TenantId(t as u32))
                .admission_rejections
        })
        .sum();
    ServiceRow {
        tenants,
        tasks: tenants * PER_TENANT,
        completed: report.placements.len(),
        makespan: report.makespan,
        sustained_rate: report.placements.len() as f64 / report.makespan.0.max(f64::MIN_POSITIVE),
        p99_latency: Seconds(p99),
        rejections,
    }
}

/// The same backlogs as [`run_scenario`], streamed: each round every
/// tenant submits one task and the engine advances `tenants` events
/// through [`Service::step`] (meters synced after each), then the
/// backlog drains — never `run()`. Returns the tasks the meters saw
/// complete.
#[must_use]
pub fn run_stream_scenario(tenants: usize, seed: u64) -> u64 {
    let mut svc = build_service(tenants, seed);
    for r in 0..PER_TENANT as u64 {
        for t in 0..tenants {
            submit_one(&mut svc, t, r);
        }
        for _ in 0..tenants {
            if svc.step().expect("devices present").is_none() {
                break;
            }
        }
    }
    while svc.step().expect("devices present").is_some() {}
    (0..tenants)
        .map(|t| {
            svc.tenant_report(legato_runtime::TenantId(t as u32))
                .tasks_completed
        })
        .sum()
}

/// The reference tenant-count grid with the labels the `service` bench
/// records them under — the single definition, so `BENCH_service.json`
/// rows can never drift from the experiment.
#[must_use]
pub fn reference_tenant_counts() -> Vec<(&'static str, usize)> {
    vec![
        ("tenants_16", 16),
        ("tenants_256", 256),
        ("tenants_1000", 1000),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_completes_every_backlog_without_rejections() {
        for (_, tenants) in reference_tenant_counts() {
            let row = run_scenario(tenants, 42);
            assert_eq!(row.completed, row.tasks, "lost work at {tenants} tenants");
            assert_eq!(row.rejections, 0, "spurious backpressure at {tenants}");
            assert!(row.sustained_rate > 0.0);
        }
    }

    #[test]
    fn streamed_backlogs_complete_like_batched_ones() {
        assert_eq!(run_stream_scenario(256, 42), (256 * PER_TENANT) as u64);
    }

    #[test]
    fn p99_grows_with_tenant_count_but_rate_holds() {
        let small = run_scenario(16, 42);
        let large = run_scenario(1000, 42);
        assert!(
            large.p99_latency > small.p99_latency,
            "a 62× backlog must lengthen the tail: {} vs {}",
            large.p99_latency,
            small.p99_latency
        );
        // The fleet, not the session layer, bounds delivery: the
        // sustained rate at 1k tenants stays within 2× of the 16-tenant
        // rate in either direction.
        let ratio = large.sustained_rate / small.sustained_rate;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "sustained rate collapsed under tenancy: ratio {ratio}"
        );
    }

    #[test]
    fn rows_are_deterministic_per_seed() {
        let a = run_scenario(256, 7);
        let b = run_scenario(256, 7);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.p99_latency, b.p99_latency);
        assert_eq!(a.completed, b.completed);
    }
}
