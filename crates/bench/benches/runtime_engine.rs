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
use legato_bench::experiments::engine::Scenario;
use legato_bench::experiments::goals;
use legato_core::graph::{GraphBuilder, TaskGraph};
use legato_core::task::{AccessMode, TaskDescriptor, Work};
use legato_hw::device::DeviceSpec;
use legato_runtime::{EngineConfig, Policy, PoolConfig, Runtime};
use std::hint::black_box;

fn bench_executors(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_engine");
    g.sample_size(10);
    for (name, scenario, policy) in [
        (
            "wide_graph_1k",
            Scenario::reference_wide(),
            Policy::Performance,
        ),
        (
            "straggler_1k",
            Scenario::reference_straggler(),
            Policy::Weighted(0.5),
        ),
    ] {
        let tasks = {
            let mut rt = Runtime::new(goals::reference_devices(), policy, 42);
            scenario.build(&mut rt, 42) as u64
        };
        g.throughput(Throughput::Elements(tasks));
        g.bench_function(&format!("{name}/event_driven"), |b| {
            b.iter(|| {
                let mut rt = Runtime::new(goals::reference_devices(), policy, 42);
                scenario.build(&mut rt, 42);
                rt.run().expect("devices present")
            })
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
    let fleet = |n: usize| -> Vec<DeviceSpec> {
        let specs = [
            DeviceSpec::xeon_x86(),
            DeviceSpec::gtx1080(),
            DeviceSpec::fpga_kintex(),
            DeviceSpec::arm64(),
        ];
        (0..n).map(|i| specs[i % specs.len()].clone()).collect()
    };
    for &tasks in &[10_000usize, 100_000, 1_000_000] {
        for &devs in &[64usize, 256, 1024] {
            g.throughput(Throughput::Elements(tasks as u64));
            g.bench_function(&format!("tasks_{tasks}/devs_{devs}"), |b| {
                b.iter(|| {
                    let mut rt = EngineConfig::new()
                        .with_devices(fleet(devs))
                        .with_policy(Policy::Performance)
                        .with_seed(42)
                        .with_pools(PoolConfig::uniform(devs, 16))
                        .build()
                        .expect("valid engine config");
                    // `width` chains of depth 4, serialized per region,
                    // with varied task sizes so availability minima
                    // diverge and the shard bounds separate.
                    let width = tasks / 4;
                    let mut builder =
                        GraphBuilder::with_capacity(tasks, tasks).with_region_capacity(width);
                    for i in 0..tasks {
                        let flops = (1.0 + (i % 997) as f64 / 997.0) * 1.0e12;
                        builder.task(
                            TaskDescriptor::named("t").with_work(Work::flops(flops)),
                            [((i % width) as u64, AccessMode::InOut)],
                        );
                    }
                    rt.reserve(tasks, tasks - width);
                    rt.submit_batch(builder);
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
    let devices = || {
        vec![
            DeviceSpec::xeon_x86(),
            DeviceSpec::gtx1080(),
            DeviceSpec::fpga_kintex(),
            DeviceSpec::arm64(),
        ]
    };
    let width = TASKS / 4;
    let build = |rt: &mut Runtime| {
        let mut builder = GraphBuilder::with_capacity(TASKS, TASKS).with_region_capacity(width);
        for i in 0..TASKS {
            let flops = (1.0 + (i % 997) as f64 / 997.0) * 1.0e12;
            builder.task(
                TaskDescriptor::named("t").with_work(Work::flops(flops)),
                [((i % width) as u64, AccessMode::InOut)],
            );
        }
        rt.reserve(TASKS, TASKS - width);
        rt.submit_batch(builder);
    };
    g.bench_function("build_100k", |b| {
        b.iter(|| {
            let mut rt = Runtime::new(devices(), Policy::Performance, 42);
            build(&mut rt);
            black_box(rt)
        })
    });
    g.bench_function("analyze_100k", |b| {
        let mut rt = Runtime::new(devices(), Policy::Performance, 42);
        build(&mut rt);
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
