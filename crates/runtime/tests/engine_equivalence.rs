//! Equivalence properties pinning the allocation-free engine refactor.
//!
//! The hot-path rework (inline replica sets, scratch buffers, the
//! ready-FIFO/heap split, bitmap ready/completed tracking, incremental
//! live-region volumes) must not change *what* the engine computes, only
//! how fast. These contracts pin that:
//!
//! * **Streaming ≡ batched** — driving the engine with interleaved
//!   `submit()`/`step()` waves produces the identical [`RunReport`] and
//!   rollback trace as `run()` over the same waves, with and without
//!   resilience enabled (checkpoints, rollbacks and all).
//! * **Determinism** — the same seed and the same graph produce an
//!   identical [`RunReport`], bit for bit, however the event heap
//!   interleaves placements (`time, seq` ordering is total).
//! * **Sweep-era semantics on serial chains** — on a single dependency
//!   chain the engine and the topological sweep it replaced made the
//!   same placement at the same simulated moment, even under an active
//!   fault model (a proptest pinned them equal until the sweep was
//!   deleted); the sweep's reports on ten fixed chains are frozen here
//!   as goldens the engine must keep reproducing.
//! * **Report shape** — placements come out sorted by task id with at
//!   most one outcome per task, whatever order completions happened in
//!   (the outcome log is indexed, not sorted; this pins the invariant).
//! * **Security equivalences** — with confidential tasks in the mix,
//!   the same seed still yields a bit-identical report (including
//!   [`SecurityStats`]) through either interface, enclave-only tasks
//!   only ever land on TEE devices, and an all-public workload on a
//!   security-configured runtime is bit-identical to one on a runtime
//!   that never heard of security (the layer is pay-for-what-you-use).
//! * **Declared sizes are free without a reader** — declaring every
//!   region's size changes nothing while no pillar reads sizes.
//! * **Linearity in work** — a metamorphic relation with no reference
//!   implementation behind it: on a bare engine, doubling every task's
//!   work keeps every placement and doubles every time and joule, bit
//!   for bit, under each policy.
//!
//! [`RunReport`]: legato_runtime::RunReport
//! [`SecurityStats`]: legato_runtime::SecurityStats

mod common;

use common::gen::{self, ChainSpec};
use legato_core::requirements::SecurityLevel;
use legato_core::units::Bytes;
use legato_runtime::{Policy, RunReport, Runtime, SecurityConfig};
use legato_workloads::region_sizes;
use proptest::prelude::*;

fn runtime(seed: u64, resilient: bool, chains: &ChainSpec) -> Runtime {
    let mut cfg = gen::config(seed)
        .with_region_sizes(region_sizes(chains.len(), Bytes::mib(16)))
        .with_security(SecurityConfig::new());
    if resilient {
        cfg = cfg.with_resilience(gen::checkpointing());
    }
    gen::faulty(cfg)
}

/// Split one chain spec into two submission waves at `split` tasks.
fn waves(chains: &ChainSpec, split: usize) -> (ChainSpec, ChainSpec) {
    let mut first: ChainSpec = vec![Vec::new(); chains.len()];
    let mut second: ChainSpec = vec![Vec::new(); chains.len()];
    let mut seen = 0usize;
    for (c, chain) in chains.iter().enumerate() {
        for &task in chain {
            if seen < split {
                first[c].push(task);
            } else {
                second[c].push(task);
            }
            seen += 1;
        }
    }
    (first, second)
}

fn assert_report_shape(report: &RunReport) {
    for pair in report.placements.to_vec().windows(2) {
        assert!(
            pair[0].task < pair[1].task,
            "placements must be strictly sorted by task id"
        );
    }
}

proptest! {
    /// Feeding the same two submission waves through `run()` twice or
    /// through a manual `step()` drain twice yields bit-identical
    /// reports and rollback traces — the streaming interface is the
    /// batched interface, resilience included.
    #[test]
    fn streaming_equals_batched(
        chains in gen::chains_strategy(),
        split_frac in 0.0f64..1.0,
        seed in 0u64..300,
        resilient in any::<bool>(),
    ) {
        let total: usize = chains.iter().map(Vec::len).sum();
        let split = ((total as f64) * split_frac) as usize;
        let (wave1, wave2) = waves(&chains, split);

        let mut batched = runtime(seed, resilient, &chains);
        gen::submit(&mut batched, &wave1, gen::mixed);
        let _ = batched.run().expect("devices present");
        gen::submit(&mut batched, &wave2, gen::mixed);
        let batched_report = batched.run().expect("devices present");

        let mut streamed = runtime(seed, resilient, &chains);
        gen::submit(&mut streamed, &wave1, gen::mixed);
        while streamed.step().expect("devices present").is_some() {}
        gen::submit(&mut streamed, &wave2, gen::mixed);
        while streamed.step().expect("devices present").is_some() {}
        let streamed_report = streamed.report();

        prop_assert_eq!(&batched_report, &streamed_report);
        prop_assert_eq!(batched.rollback_trace(), streamed.rollback_trace());
        assert_report_shape(&batched_report);
        prop_assert!(batched_report.placements.len() <= batched.graph().len());
    }

    /// Same seed + same graph ⇒ identical `RunReport`, with the fault
    /// model and replication voting active.
    #[test]
    fn engine_is_deterministic(chains in gen::chains_strategy(), seed in 0u64..1000) {
        let run = || {
            let mut rt = runtime(seed, false, &chains);
            gen::submit(&mut rt, &chains, gen::public);
            rt.run().expect("devices present")
        };
        prop_assert_eq!(run(), run());
    }

    /// With confidential tasks in the mix (sealed-io and enclave-only,
    /// under faults and optionally resilience), the same seed produces
    /// bit-identical reports — `SecurityStats` included — and the
    /// engine's enclave placement rule holds on every accepted outcome:
    /// enclave-only tasks only ever run on TEE-capable devices.
    #[test]
    fn confidential_runs_are_deterministic_and_respect_placement(
        chains in gen::chains_strategy(),
        seed in 0u64..300,
        resilient in any::<bool>(),
    ) {
        let run = |seed| {
            let mut rt = runtime(seed, resilient, &chains);
            gen::submit(&mut rt, &chains, gen::mixed);
            let report = rt.run().expect("devices present");
            (report, rt.rollback_trace().to_vec())
        };
        let (a, trace_a) = run(seed);
        let (b, trace_b) = run(seed);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(trace_a, trace_b);
        assert_report_shape(&a);

        // Placement rule: enclave-only tasks stay on TEE devices.
        let rt = {
            let mut rt = runtime(seed, resilient, &chains);
            gen::submit(&mut rt, &chains, gen::mixed);
            rt
        };
        let tee: Vec<usize> = rt
            .devices()
            .iter()
            .enumerate()
            .filter(|(_, d)| d.spec.tee.has_enclave())
            .map(|(i, _)| i)
            .collect();
        let mut flat = Vec::new();
        for chain in &chains {
            for &(_, _, sec) in chain {
                flat.push(gen::security(sec));
            }
        }
        let mut enclave_ran = 0u64;
        for p in &a.placements {
            if flat[p.task.index()] == SecurityLevel::Enclave {
                enclave_ran += 1;
                for &d in &p.devices {
                    prop_assert!(
                        tee.contains(&d),
                        "enclave task {} on non-TEE device {}", p.task, d
                    );
                }
            }
        }
        // Each accepted enclave task executed at least one replica.
        let sec = a.security.unwrap_or_default();
        prop_assert!(sec.enclave_tasks >= enclave_ran);
        if enclave_ran > 0 {
            prop_assert!(sec.attestations > 0);
        }
    }

    /// Streaming ≡ batched holds with the security layer active too:
    /// interleaved `submit()`/`step()` waves of confidential tasks
    /// produce the identical report (security stats included) as `run()`
    /// over the same waves.
    #[test]
    fn streaming_equals_batched_with_security(
        chains in gen::chains_strategy(),
        split_frac in 0.0f64..1.0,
        seed in 0u64..300,
    ) {
        let total: usize = chains.iter().map(Vec::len).sum();
        let split = ((total as f64) * split_frac) as usize;
        let (wave1, wave2) = waves(&chains, split);

        let mut batched = runtime(seed, false, &chains);
        gen::submit(&mut batched, &wave1, gen::mixed);
        let _ = batched.run().expect("devices present");
        gen::submit(&mut batched, &wave2, gen::mixed);
        let batched_report = batched.run().expect("devices present");

        let mut streamed = runtime(seed, false, &chains);
        gen::submit(&mut streamed, &wave1, gen::mixed);
        while streamed.step().expect("devices present").is_some() {}
        gen::submit(&mut streamed, &wave2, gen::mixed);
        while streamed.step().expect("devices present").is_some() {}
        let streamed_report = streamed.report();

        prop_assert_eq!(&batched_report, &streamed_report);
        prop_assert_eq!(batched.security_stats(), streamed.security_stats());
    }

    /// Pay-for-what-you-use: an all-public workload on a runtime with
    /// the security layer configured is bit-identical — report, trace
    /// and all — to the same workload on a runtime that never heard of
    /// security, under every policy, and places it with the same number
    /// of candidate evaluations. The security wiring costs nothing until
    /// a confidential task exists.
    #[test]
    fn all_public_runs_are_bit_identical_to_security_unaware_runs(
        chains in gen::chains_strategy(),
        seed in 0u64..300,
        resilient in any::<bool>(),
        policy_sel in 0u8..4,
    ) {
        // The twins differ only in `with_security`.
        let mut cfg = gen::config(seed)
            .with_policy(gen::policy(policy_sel))
            .with_region_sizes(region_sizes(chains.len(), Bytes::mib(16)));
        if resilient {
            cfg = cfg.with_resilience(gen::checkpointing());
        }
        let mut plain = gen::faulty(cfg.clone());
        gen::submit(&mut plain, &chains, gen::public);
        let plain_report = plain.run().expect("devices present");

        let mut configured = gen::faulty(cfg.with_security(SecurityConfig::new()));
        gen::submit(&mut configured, &chains, gen::public);
        let configured_report = configured.run().expect("devices present");

        prop_assert_eq!(&plain_report, &configured_report);
        prop_assert_eq!(plain.rollback_trace(), configured.rollback_trace());
        prop_assert_eq!(plain.placement_evals(), configured.placement_evals());
        prop_assert_eq!(configured_report.security, None);
    }

    /// Declaring region sizes costs nothing while no size reader is on:
    /// with no confidential task, no resilience and no topology, a
    /// runtime given every region's size is bit-identical — report and
    /// rollback trace — to one given none.
    #[test]
    fn declared_sizes_without_a_reader_are_bit_identical_to_none(
        chains in gen::chains_strategy(),
        seed in 0u64..300,
    ) {
        let run = |declared: bool| {
            let mut cfg = gen::config(seed);
            if declared {
                cfg = cfg.with_region_sizes(region_sizes(chains.len(), Bytes::mib(16)));
            }
            let mut rt = gen::faulty(cfg);
            gen::submit(&mut rt, &chains, gen::public);
            let report = rt.run().expect("devices present");
            (report, rt.rollback_trace().to_vec())
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// A bare engine (no pillar, zero fault probabilities) is linear in
    /// `Work`: doubling every task's work moves no task to another
    /// device and doubles every start, finish and joule *exactly*, under
    /// each policy. `DeviceSpec::time_for` is a pure roofline with no
    /// fixed-latency term for any `TaskKind`, and a power-of-two scale
    /// commutes with f64 rounding, so the equality is on bits. It holds
    /// by construction — there is no second implementation to agree with.
    #[test]
    fn doubling_every_work_doubles_the_schedule(
        chains in gen::chains_strategy(),
        seed in 0u64..300,
    ) {
        let doubled: ChainSpec = chains
            .iter()
            .map(|chain| chain.iter().map(|&(flops, crit, sec)| (2.0 * flops, crit, sec)).collect())
            .collect();
        for policy in [Policy::Performance, Policy::Energy, Policy::Edp, Policy::Weighted(0.5)] {
            let run = |chains: &ChainSpec| {
                let mut rt = Runtime::new(gen::devices(), policy, seed);
                gen::submit(&mut rt, chains, gen::public);
                rt.run().expect("devices present")
            };
            let (once, twice) = (run(&chains), run(&doubled));
            // Every compared pair leads with the policy, so a failure names it.
            let twice_of = |x: f64| (policy, (2.0 * x).to_bits());
            let bits = |x: f64| (policy, x.to_bits());
            prop_assert_eq!(once.placements.len(), twice.placements.len());
            for (a, b) in once.placements.iter().zip(&twice.placements) {
                prop_assert_eq!((policy, a.task, &a.devices), (policy, b.task, &b.devices));
                prop_assert_eq!(twice_of(a.start.0), bits(b.start.0));
                prop_assert_eq!(twice_of(a.finish.0), bits(b.finish.0));
            }
            prop_assert_eq!(twice_of(once.makespan.0), bits(twice.makespan.0));
            prop_assert_eq!(twice_of(once.busy_energy.0), bits(twice.busy_energy.0));
            prop_assert_eq!(twice_of(once.total_energy.0), bits(twice.total_energy.0));
            prop_assert!(once.failed.is_empty() && twice.failed.is_empty());
        }
    }
}

/// What the deleted topological sweep reported for `golden_chain(case)`
/// under `seed`, recorded at commit bfc4631 — the last one with the
/// sweep — where the proptest this replaces held the engine equal to it.
struct SweepGolden {
    seed: u64,
    /// [`placements_digest`] of the report's placements.
    placements: u64,
    /// `makespan` as f64 bits.
    makespan: u64,
    failed: &'static [u64],
    /// unreplicated, replica_executions, silent_corruptions, detected,
    /// masked, retries.
    stats: [u64; 6],
}

#[rustfmt::skip]
const SWEEP_GOLDENS: [SweepGolden; 10] = [
    SweepGolden { seed: 11, placements: 0x7B5A_DE44_2BD6_CDA6, makespan: 0x4030_0E3E_BBA6_B1CA, failed: &[7], stats: [5, 5, 1, 2, 1, 1] },
    SweepGolden { seed: 48, placements: 0x5F34_2866_0359_4DBA, makespan: 0x4031_EA33_021B_FF3C, failed: &[], stats: [1, 6, 0, 0, 0, 0] },
    SweepGolden { seed: 85, placements: 0xBA1A_B9D9_D44A_40E5, makespan: 0x4016_D307_13AD_A267, failed: &[2], stats: [1, 3, 0, 2, 0, 1] },
    SweepGolden { seed: 122, placements: 0x6D67_897D_913C_C0E0, makespan: 0x4038_8F7F_2317_9625, failed: &[], stats: [4, 9, 2, 1, 2, 1] },
    SweepGolden { seed: 159, placements: 0xD3C3_4AC1_4E06_5B4F, makespan: 0x4033_F8C9_6731_C687, failed: &[], stats: [3, 7, 3, 1, 0, 1] },
    SweepGolden { seed: 196, placements: 0xFF0F_367D_D079_263B, makespan: 0x4043_CF85_DB9A_2130, failed: &[], stats: [5, 15, 3, 0, 3, 0] },
    SweepGolden { seed: 233, placements: 0x8F21_6B72_1725_7D9E, makespan: 0x4033_416C_16C1_6C16, failed: &[4], stats: [0, 8, 0, 2, 2, 1] },
    SweepGolden { seed: 270, placements: 0x2E2E_2651_E6F1_4914, makespan: 0x402F_9E3C_8A9D_8473, failed: &[], stats: [2, 5, 0, 0, 0, 0] },
    SweepGolden { seed: 7, placements: 0x3CEB_6CA3_38F3_4A1D, makespan: 0x403F_7E38_E38E_38E3, failed: &[8], stats: [0, 14, 0, 2, 4, 1] },
    SweepGolden { seed: 44, placements: 0xFEF6_F73F_400F_D5AD, makespan: 0x4024_8E7C_AE43_B355, failed: &[4], stats: [1, 5, 1, 2, 0, 1] },
];

/// The fixed public serial chain of golden `case`: 1–15 tasks with work
/// and criticality from an LCG, inside the ranges [`gen::chains_strategy`]
/// draws from.
fn golden_chain(case: u64) -> Vec<(f64, u8, u8)> {
    let mut state = case.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let len = 1 + next() % 15;
    (0..len)
        .map(|_| (5e11 + (next() % 350) as f64 * 1e10, (next() % 3) as u8, 0))
        .collect()
}

/// FNV-1a over every placement's task, devices, start/finish bits and
/// correctness flag.
fn placements_digest(report: &RunReport) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    for p in &report.placements {
        mix(p.task.0);
        mix(p.devices.len() as u64);
        for &d in &p.devices {
            mix(d as u64);
        }
        mix(p.start.0.to_bits());
        mix(p.finish.0.to_bits());
        mix(u64::from(p.correct));
    }
    h
}

/// On a single serial chain the event engine reproduces the deleted
/// topological sweep bit for bit — placements, makespan, failures,
/// statistics — with the fault model active: with one task in flight at a
/// time both executors made the same placement at the same moment and
/// consumed the fault stream in the same order. (Public tasks only: the
/// sweep ignored the security layer.)
#[test]
fn engine_matches_sweep_on_serial_chains() {
    for (case, golden) in SWEEP_GOLDENS.iter().enumerate() {
        let chains = vec![golden_chain(case as u64)];
        let mut rt = runtime(golden.seed, false, &chains);
        gen::submit(&mut rt, &chains, gen::public);
        let engine = rt.run().expect("devices present");

        assert_eq!(
            placements_digest(&engine),
            golden.placements,
            "case {case}: {:?}",
            engine.placements
        );
        assert_eq!(engine.makespan.0.to_bits(), golden.makespan, "case {case}");
        let failed: Vec<u64> = engine.failed.iter().map(|t| t.0).collect();
        assert_eq!(failed, golden.failed, "case {case}");
        let s = engine.stats;
        assert_eq!(
            [
                s.unreplicated,
                s.replica_executions,
                s.silent_corruptions,
                s.detected,
                s.masked,
                s.retries
            ],
            golden.stats,
            "case {case}"
        );
    }
}
