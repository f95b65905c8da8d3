//! Tier-1 guard: metering a step-driven service costs O(new work).
//!
//! `Service::step` syncs the tenant meters after every engine event. If
//! that sync re-reads the engine's cumulative outcome log, a stream of
//! `n` tasks visits ~n²/2 outcomes (8000 tasks: 32 million visits, and
//! per-task cost that grows with the stream). The service instead reads
//! the engine's acceptance log from a cursor and counts every entry it
//! reads ([`Service::metering_visits`]) — a deterministic, timer-free
//! proxy for metering cost — and this test pins two facts:
//!
//! * **One visit per acceptance** — after a 1000-tenant stream the
//!   visit count equals the acceptance-log length (and, with no
//!   rollbacks, the task count).
//! * **Linear in the stream** — twice the tasks is exactly twice the
//!   visits.

use legato_core::task::{AccessMode, TaskDescriptor, Work};
use legato_runtime::{EngineConfig, Policy, Service, ServiceConfig, TenantId, TenantSpec};
use legato_workloads::fleets;

const TENANTS: usize = 1000;

/// Stream `rounds` tasks per tenant through `Service::step` only: every
/// tenant submits one task, the engine advances `TENANTS` events, and
/// so on; then the backlog drains.
fn stream(rounds: u64) -> Service {
    let mut svc = ServiceConfig::new(
        EngineConfig::new()
            // The 64-device reference service fleet.
            .with_devices(fleets::cycled(64))
            .with_policy(Policy::Performance)
            .with_seed(3),
    )
    .build()
    .expect("valid config");
    for i in 0..TENANTS {
        svc.register(TenantSpec::new().with_share(1.0 + (i % 4) as f64))
            .expect("valid spec");
    }
    for round in 0..rounds {
        for t in 0..TENANTS as u32 {
            svc.submit(
                TenantId(t),
                TaskDescriptor::named("t").with_work(Work::flops(1e12)),
                [(round % 4, AccessMode::InOut)],
            )
            .expect("within default budget");
        }
        for _ in 0..TENANTS {
            if svc.step().expect("devices present").is_none() {
                break;
            }
        }
    }
    while svc.step().expect("devices present").is_some() {}
    svc
}

#[test]
fn metering_visits_each_acceptance_once_and_scales_linearly() {
    let small = stream(4);
    let large = stream(8);
    for (svc, rounds) in [(&small, 4u64), (&large, 8)] {
        let tasks = rounds * TENANTS as u64;
        assert_eq!(svc.engine().accepted().len() as u64, tasks);
        assert_eq!(svc.metering_visits(), tasks);
        let metered: u64 = (0..TENANTS as u32)
            .map(|t| svc.tenant_report(TenantId(t)).tasks_completed)
            .sum();
        assert_eq!(metered, tasks);
    }
    assert_eq!(large.metering_visits(), 2 * small.metering_visits());
}
