//! Criterion bench for E1/E2 (Fig. 5): the `legato-fpga` kernels under
//! the undervolting sweep, recorded in `BENCH_undervolting.json`.
//!
//! No `benchmark/` workload runs the fault-rate model, the BRAM fault
//! injector or the rail sweep, so these three rows are the only timing
//! of them (DESIGN.md §3).

use criterion::{criterion_group, criterion_main, Criterion};
use legato_core::units::{FaultsPerMbit, Volt};
use legato_fpga::{undervolt_sweep, BramArray, FpgaPlatform};
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

criterion_group!(
    benches,
    bench_fault_model,
    bench_fault_injection,
    bench_full_sweep
);
criterion_main!(benches);
