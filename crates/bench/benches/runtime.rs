//! Criterion bench for E7: the dataflow runtime and graph kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use legato_bench::experiments::goals;
use legato_core::graph::TaskGraph;
use legato_core::task::{AccessMode, TaskDescriptor};
use legato_runtime::{Policy, Runtime};
use legato_workloads::fleets;
use std::hint::black_box;

fn bench_graph_build(c: &mut Criterion) {
    c.bench_function("runtime/graph_build_1000_tasks", |b| {
        b.iter(|| {
            let mut g = TaskGraph::new();
            for i in 0..1000u64 {
                g.add_task(
                    TaskDescriptor::named("t"),
                    [(i % 16, AccessMode::InOut), ((i + 1) % 16, AccessMode::In)],
                );
            }
            black_box(g.edge_count())
        })
    });
}

fn bench_runtime_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime/run");
    g.sample_size(20);
    g.bench_function("dag_6x8_weighted", |b| {
        b.iter(|| {
            let mut rt = Runtime::new(fleets::reference(), Policy::Weighted(0.5), 7);
            goals::build_app(&mut rt, 6, 8, 0.2, 7);
            rt.run().expect("devices present")
        })
    });
    g.finish();
}

fn bench_critical_path(c: &mut Criterion) {
    let mut g = TaskGraph::new();
    for i in 0..500u64 {
        g.add_task(TaskDescriptor::named("t"), [(i % 8, AccessMode::InOut)]);
    }
    c.bench_function("runtime/critical_path_500", |b| {
        b.iter(|| {
            g.critical_path(|id, _| 1.0 + (id.0 % 7) as f64)
                .expect("non-empty")
        })
    });
}

criterion_group!(
    benches,
    bench_graph_build,
    bench_runtime_run,
    bench_critical_path
);
criterion_main!(benches);
