//! Exact goldens for the repo's simulated results: §IV's sustained
//! execution under faults and under device churn, §I's
//! security-by-design premium and the energy/makespan frontier. Each
//! cell is a pure function of `(scenario, grid point, seed 42)`, so it
//! is held to exact equality on an integer — tasks completed, makespan
//! overhead in ‰, joules — with the bits of the cell's simulated
//! makespan beside it (the makespan-vs-MTBF, makespan-vs-churn-rate,
//! overhead and frontier curves). `tests/experiments_shapes.rs` and
//! `tests/full_stack.rs` assert the *shape* of the same experiments;
//! this file is where the numbers the README quotes live.
//!
//! Recorded from the code at commit 6a2f818, where the first three
//! tables' integers equalled the `elements_per_iter` of the criterion
//! baselines they replace (`BENCH_{resilience,elastic,secure}.json`,
//! DESIGN.md §3). A moved cell is a behaviour change, not a re-bless;
//! the failure prints the table as it now reads.

use legato_bench::experiments::{elastic, energy, resilience, secure_offload};
use legato_workloads::Fan;

const SEED: u64 = 42;

/// `(cell, pinned integer, simulated makespan bits)`.
type Cell = (String, u64, u64);

fn assert_pinned(actual: &[Cell], golden: &[(&str, u64, u64)]) {
    let table: String = actual
        .iter()
        .map(|(id, n, bits)| format!("    (\"{id}\", {n}, {bits:#018x}),\n"))
        .collect();
    assert!(
        actual
            .iter()
            .map(|(id, n, bits)| (id.as_str(), *n, *bits))
            .eq(golden.iter().copied()),
        "simulated results moved; the table now reads:\n{table}"
    );
}

/// Tasks completed of 1026, per MTBF (in mean task durations) × mode.
const RESILIENCE: &[(&str, u64, u64)] = &[
    ("mtbf_256x/retry-only", 1026, 0x40907e3937b5ffed),
    ("mtbf_256x/ckpt-initial", 1026, 0x40907e3937b5ffed),
    ("mtbf_256x/ckpt-async", 1026, 0x40907e3937b5ffed),
    ("mtbf_64x/retry-only", 1020, 0x4090e2390da21c89),
    ("mtbf_64x/ckpt-initial", 1026, 0x4091f623e46adc18),
    ("mtbf_64x/ckpt-async", 1026, 0x4091f2721b4438d8),
    ("mtbf_16x/retry-only", 897, 0x40904c390da21c86),
    ("mtbf_16x/ckpt-initial", 1026, 0x40987ef1fadd9864),
    ("mtbf_16x/ckpt-async", 1026, 0x4099a6aafed271e3),
];

#[test]
fn resilience_survival_per_mtbf_and_mode() {
    let scenario = resilience::Scenario::reference();
    let mut actual = Vec::new();
    for (label, mtbf) in resilience::reference_mtbfs(scenario) {
        for mode in resilience::CkptMode::ALL {
            let row = resilience::run_scenario(scenario, mtbf, mode, SEED);
            actual.push((
                format!("{label}/{}", mode.label()),
                row.completed as u64,
                row.makespan.0.to_bits(),
            ));
        }
    }
    assert_pinned(&actual, RESILIENCE);
}

/// Tasks completed of 1026, per churn rate (trace events over one
/// churn-free makespan) × mode.
const ELASTIC: &[(&str, u64, u64)] = &[
    ("churn_0/none", 1026, 0x40905ce3e260aa97),
    ("churn_4/drain-only", 1026, 0x40cdb2f13f04c76e),
    ("churn_4/crash-only", 434, 0x4089bc3c90640308),
    ("churn_4/crash-ckpt", 1026, 0x40d45d3c6346274b),
    ("churn_8/drain-only", 1026, 0x4093c99fd468e31e),
    ("churn_8/crash-only", 727, 0x4086be3937b5fff7),
    ("churn_8/crash-ckpt", 1026, 0x40c08bddcf0c4629),
    ("churn_16/drain-only", 1026, 0x40a53cc3edd7a72f),
    ("churn_16/crash-only", 216, 0x4079bc3ce48bc9d8),
    ("churn_16/crash-ckpt", 1026, 0x4098c89423f6ec7f),
];

#[test]
fn elastic_survival_per_churn_rate_and_mode() {
    let rows = elastic::sweep(elastic::reference_scenario(), SEED);
    let actual: Vec<Cell> = rows
        .iter()
        .map(|r| {
            (
                format!("churn_{}/{}", r.events, r.mode),
                r.completed as u64,
                r.makespan.0.to_bits(),
            )
        })
        .collect();
    assert_pinned(&actual, ELASTIC);
}

/// Makespan overhead vs the class's all-public run in ‰, per crypto
/// class × confidential fraction.
const SECURE_OFFLOAD: &[(&str, u64, u64)] = &[
    ("conf_000/sw", 0, 0x3ff9dbd4b1a2e881),
    ("conf_025/sw", 23910, 0x4044213a34f1ffcd),
    ("conf_050/sw", 40886, 0x4050ec794d0d8c5a),
    ("conf_100/sw", 84737, 0x40615218d91b52b6),
    ("conf_000/hw", 0, 0x3ff9dbd4b1a2e881),
    ("conf_025/hw", 12787, 0x403648076443f8e3),
    ("conf_050/hw", 26360, 0x40461c0d7dffedb6),
    ("conf_100/hw", 53438, 0x4055fecab9698b1e),
];

#[test]
fn secure_offload_overhead_per_fraction_and_crypto_class() {
    let rows = secure_offload::sweep(secure_offload::Scenario::reference(), SEED);
    let actual: Vec<Cell> = rows
        .iter()
        .map(|r| {
            (
                format!("conf_{:03}/{}", r.percent, r.crypto),
                (r.overhead * 1000.0).round() as u64,
                r.makespan.0.to_bits(),
            )
        })
        .collect();
    assert_pinned(&actual, SECURE_OFFLOAD);
}

/// Total energy in J (rounded) on the reference wide fan, per policy ×
/// ladder rung of the energy/makespan frontier.
const ENERGY_FRONTIER: &[(&str, u64, u64)] = &[
    ("performance/nominal", 4435, 0x402a2b2ec2cf7bc5),
    ("performance/eco", 3725, 0x402f6704e9c5c7b5),
    ("performance/deep-eco", 3215, 0x4032f8e84d3cd353),
    ("weighted/nominal", 3487, 0x402bf296f5a32297),
    ("weighted/eco", 2929, 0x4030c4c0f9c847f7),
    ("weighted/deep-eco", 2528, 0x40344313d87cac4a),
    ("energy/nominal", 4860, 0x4052686c1fc6d7f5),
    ("energy/eco", 4082, 0x405616e82621cff9),
    ("energy/deep-eco", 3523, 0x405ab1032e1385f9),
];

#[test]
fn energy_frontier_per_policy_and_rung() {
    let rows = energy::frontier(&Fan::reference_wide(), SEED);
    let actual: Vec<Cell> = rows
        .iter()
        .map(|r| {
            (
                format!("{}/{}", r.policy, r.point),
                r.total_energy.0.round() as u64,
                r.makespan.0.to_bits(),
            )
        })
        .collect();
    assert_pinned(&actual, ENERGY_FRONTIER);
}
