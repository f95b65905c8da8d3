//! Criterion bench for E11: multi-tenant service scaling — {16, 256,
//! 1000} concurrent tenants streaming equal backlogs through one
//! service's stride dispatcher, admission gate and metering.
//!
//! Each cell measures how fast the simulator executes the whole session
//! lifecycle (register, admit, dispatch, run, meter, seal) and declares
//! the completed-task count as its throughput, so `BENCH_service.json`
//! records the sustained-rate/tail-latency shape next to the timings:
//! the simulated sustained rate holds across the sweep while p99
//! completion latency grows with the backlog (asserted in the
//! experiment's own tests). A last cell streams the 1000-tenant backlog
//! through `Service::step` only, so the per-event cost of keeping the
//! meters in sync has its own row.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use legato_bench::experiments::service::{
    reference_tenant_counts, run_scenario, run_stream_scenario, PER_TENANT,
};
use std::hint::black_box;

fn bench_service(c: &mut Criterion) {
    let mut g = c.benchmark_group("service");
    g.sample_size(10);
    for (label, tenants) in reference_tenant_counts() {
        let row = run_scenario(tenants, 42);
        assert_eq!(
            row.completed, row.tasks,
            "the service must deliver every backlog before we price it"
        );
        g.throughput(Throughput::Elements(row.completed as u64));
        g.bench_function(label, |b| {
            b.iter(|| black_box(run_scenario(tenants, 42).completed))
        });
    }
    // The 1000-tenant backlog again, driven by `Service::step` alone:
    // prices per-event metering, which a run-driven cell pays once.
    let streamed = (1000 * PER_TENANT) as u64;
    assert_eq!(run_stream_scenario(1000, 42), streamed);
    g.throughput(Throughput::Elements(streamed));
    g.bench_function("stream_1000", |b| {
        b.iter(|| black_box(run_stream_scenario(1000, 42)))
    });
    g.finish();
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
