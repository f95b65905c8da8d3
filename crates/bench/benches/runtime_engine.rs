//! Criterion bench for E8: the event-driven execution engine on wide
//! graphs (≥ 1k tasks, fan-out/fan-in).
//!
//! The `event_driven` rows measure how fast the engine *runs* (simulator
//! overhead); the `makespan` assertions in `tests/full_stack.rs` cover
//! the *simulated* schedule quality. A second group exercises the
//! incremental ready-set maintenance in `legato-core` on its own.
//!
//! Every row declares the scenario's task count as its throughput, so
//! `BENCH_runtime.json` rows carry `throughput.elements_per_iter` exactly
//! like the `BENCH_resilience.json` rows do and per-task trajectories
//! stay comparable across PRs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use legato_bench::experiments::RECIPES;
use legato_core::graph::TaskGraph;
use legato_core::task::{AccessMode, TaskDescriptor};
use legato_runtime::{EngineConfig, Policy, PoolConfig, Runtime};
use legato_workloads::{chains_batch, fleets};
use std::hint::black_box;

fn bench_executors(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_engine");
    g.sample_size(10);
    for recipe in RECIPES {
        let Some(name) = recipe.name.strip_prefix("engine/") else {
            continue;
        };
        let build = || (recipe.build)(42).expect("recipe builds");
        g.throughput(Throughput::Elements(build().graph().len() as u64));
        g.bench_function(&format!("{name}/event_driven"), |b| {
            b.iter(|| build().run().expect("devices present"))
        });
    }
    g.finish();
}

/// The incremental ready set: drain a 10k-task graph by completing ready
/// tasks. With the old O(n)-scan `ready()` this walk was quadratic; with
/// the bitmap representation, completion order no longer matters either.
fn bench_ready_set_drain(c: &mut Criterion) {
    const TASKS: u64 = 10_000;
    let mut g = c.benchmark_group("runtime_engine/ready_set");
    g.sample_size(10);
    g.throughput(Throughput::Elements(TASKS));
    g.bench_function("drain_10k", |b| {
        b.iter(|| {
            let mut graph = TaskGraph::new();
            for i in 0..TASKS {
                graph.add_task(TaskDescriptor::named("t"), [(i % 64, AccessMode::InOut)]);
            }
            let mut done = 0usize;
            loop {
                let ready = graph.ready();
                if ready.is_empty() {
                    break;
                }
                for t in ready {
                    graph.complete(t).expect("ready");
                    done += 1;
                }
            }
            black_box(done)
        })
    });
    g.finish();
}

/// Cluster-scale scheduling: wide chain graphs bulk-submitted through
/// [`GraphBuilder`], placed by the sharded scheduler over pooled
/// fleets. Rows span {10k, 100k, 1M} tasks × {64, 256, 1024} devices;
/// the per-task trajectory across the device axis is the scaling curve
/// the `bench-baseline` CI job tracks (per-task cost should stay
/// near-flat as the fleet grows — that is the point of the pools).
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

/// Static analysis cost at cluster scale: the full default lint set
/// (race, flow, feasibility, checkpoint closure) over the same 100k-task
/// chain graph `bench_scaling` uses, next to the cost of *constructing*
/// that graph. The acceptance bar tracked by `tests/analysis_scaling.rs`
/// is analyze ≤ 10× build; these two rows record the actual ratio in
/// `BENCH_runtime.json` so regressions show up in the baseline diff.
fn bench_analyze(c: &mut Criterion) {
    const TASKS: usize = 100_000;
    let mut g = c.benchmark_group("runtime_engine/analyze");
    g.sample_size(10);
    g.throughput(Throughput::Elements(TASKS as u64));
    let width = TASKS / 4;
    let build = || {
        let mut rt = Runtime::new(fleets::reference(), Policy::Performance, 42);
        rt.reserve(TASKS, TASKS - width);
        rt.submit_batch(chains_batch(TASKS, width));
        rt
    };
    g.bench_function("build_100k", |b| b.iter(|| black_box(build())));
    g.bench_function("analyze_100k", |b| {
        let rt = build();
        b.iter(|| black_box(rt.analyze()).error_count())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_executors,
    bench_ready_set_drain,
    bench_scaling,
    bench_analyze
);
criterion_main!(benches);
