//! Criterion bench for the cluster-scale grid: the event engine on wide
//! chain graphs at {10k, 100k, 1M} tasks × {64, 256, 1024} pooled
//! devices, recorded in `BENCH_runtime.json`.
//!
//! `benchmark/`'s `chains-pooled` workload times one point of this shape
//! (400k tasks, 256 devices) on every PR; no workload *varies* either
//! axis, and the two trajectories across the grid are what ROADMAP
//! items 2 (device axis) and 5 (graph-growth axis) cite as evidence and
//! hold their acceptance to. Every other wall-clock number about the
//! engine belongs to `benchmark/` (DESIGN.md §3).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use legato_runtime::{EngineConfig, Policy, PoolConfig};
use legato_workloads::{chains_batch, fleets};

/// Wide chain graphs bulk-submitted and placed by the sharded scheduler
/// over uniformly pooled fleets. Each row declares its task count as
/// its throughput, so a reader divides to ns per task.
fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_engine/scaling");
    g.sample_size(10);
    for &tasks in &[10_000usize, 100_000, 1_000_000] {
        for &devs in &[64usize, 256, 1024] {
            g.throughput(Throughput::Elements(tasks as u64));
            g.bench_function(&format!("tasks_{tasks}/devs_{devs}"), |b| {
                b.iter(|| {
                    let mut rt = EngineConfig::new()
                        .with_devices(fleets::cycled(devs))
                        .with_policy(Policy::Performance)
                        .with_seed(42)
                        .with_pools(PoolConfig::uniform(devs, 16))
                        .build()
                        .expect("valid engine config");
                    // `width` chains of depth 4, serialized per region,
                    // with varied task sizes so availability minima
                    // diverge and the shard bounds separate.
                    let width = tasks / 4;
                    rt.reserve(tasks, tasks - width);
                    rt.submit_batch(chains_batch(tasks, width));
                    rt.run().expect("devices present")
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
