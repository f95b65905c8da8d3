//! Criterion bench for E1/E2 (Fig. 5): the undervolting sweep and its
//! kernels — plus E11, the engine-level energy/makespan frontier the
//! low-voltage pillar feeds into (`experiments::energy`).

use criterion::{criterion_group, criterion_main, Criterion};
use legato_bench::experiments::energy::run_cell;
use legato_core::units::{FaultsPerMbit, Volt};
use legato_fpga::{undervolt_sweep, BramArray, FpgaPlatform};
use legato_runtime::Policy;
use legato_workloads::Fan;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_fault_model(c: &mut Criterion) {
    let p = FpgaPlatform::vc707();
    c.bench_function("fig5/fault_rate_model_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            let mut v = 1.0;
            while v > 0.53 {
                acc += p.fault_rate_at(black_box(Volt(v))).0;
                v -= 0.001;
            }
            acc
        })
    });
}

fn bench_fault_injection(c: &mut Criterion) {
    c.bench_function("fig5/inject_faults_1mib_100_per_mbit", |b| {
        let mut bram = BramArray::with_capacity(legato_core::units::Bytes::mib(1));
        let mut rng = SmallRng::seed_from_u64(7);
        b.iter(|| bram.inject_faults(black_box(FaultsPerMbit(100.0)), &mut rng))
    });
}

fn bench_full_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5/full_sweep");
    g.sample_size(10);
    g.bench_function("zc702_20mv", |b| {
        b.iter(|| undervolt_sweep(FpgaPlatform::zc702(), 20.0, black_box(3)))
    });
    g.finish();
}

fn bench_energy_frontier(c: &mut Criterion) {
    // Three representative frontier cells: the fastest corner, the most
    // frugal corner, and the mixed policy mid-ladder. Each cell is a
    // full ≥ 1k-task engine run through `EngineConfig` with the energy
    // layer on, so the rows time the operating-point scheduling path
    // end to end.
    let mut g = c.benchmark_group("energy/frontier_wide");
    g.sample_size(10);
    let fan = Fan::reference_wide();
    g.bench_function("performance_nominal", |b| {
        b.iter(|| run_cell(&fan, Policy::Performance, black_box(0), 42))
    });
    g.bench_function("performance_deep_eco", |b| {
        b.iter(|| run_cell(&fan, Policy::Performance, black_box(2), 42))
    });
    g.bench_function("energy_deep_eco", |b| {
        b.iter(|| run_cell(&fan, Policy::Energy, black_box(2), 42))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fault_model,
    bench_fault_injection,
    bench_full_sweep,
    bench_energy_frontier
);
criterion_main!(benches);
