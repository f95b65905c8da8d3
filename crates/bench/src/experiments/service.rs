//! E11 — multi-tenant service scaling: sustained throughput and tail
//! completion latency as the tenant count grows from a rack's worth of
//! users to a thousand concurrent sessions.
//!
//! Each cell registers `tenants` sessions with mixed QoS shares on one
//! [`Service`](legato_runtime::Service) over a 64-device fleet, streams an equal backlog from
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
//! The shape the tests below pin: the sustained rate holds (the fleet,
//! not the session layer, is the bottleneck) while p99 grows with the
//! backlog, and every tenant completes its whole backlog with zero
//! admission rejections — fairness at 1k tenants is pinned by the
//! runtime's own property tests. Host time for the same lifecycle is
//! what `benchmark/`'s `service-waves` and `service-stream` measure.

use legato_core::task::{AccessMode, TaskDescriptor, Work};
use legato_core::units::Seconds;
use legato_runtime::{EngineConfig, Policy, ServiceConfig, TenantSpec};
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

/// Execute one cell: `tenants` sessions with shares cycling 1–4 on one
/// service over the 64-device fleet (sixteen of each reference spec),
/// each streaming [`PER_TENANT`] independent reference-size tasks; run
/// to quiescence and distill the rate/latency row. Deterministic per
/// `seed`.
#[must_use]
pub fn run_scenario(tenants: usize, seed: u64) -> ServiceRow {
    let mut svc = ServiceConfig::new(
        EngineConfig::new()
            .with_devices(fleets::cycled(64))
            .with_policy(Policy::Performance)
            .with_seed(seed),
    )
    .build()
    .expect("valid engine config");
    for t in 0..tenants {
        let spec = TenantSpec::new().with_share(1.0 + (t % 4) as f64);
        let id = svc.register(spec).expect("valid tenant spec");
        for r in 0..PER_TENANT as u64 {
            svc.submit(
                id,
                TaskDescriptor::named("svc").with_work(Work::flops(1e12)),
                [(r, AccessMode::InOut)],
            )
            .expect("backlog fits the default budget");
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

/// The reference tenant-count grid.
pub const TENANT_COUNTS: [usize; 3] = [16, 256, 1000];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_completes_every_backlog_without_rejections() {
        for tenants in TENANT_COUNTS {
            let row = run_scenario(tenants, 42);
            assert_eq!(row.completed, row.tasks, "lost work at {tenants} tenants");
            assert_eq!(row.rejections, 0, "spurious backpressure at {tenants}");
            assert!(row.sustained_rate > 0.0);
        }
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
