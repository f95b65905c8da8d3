//! Tier-1 guard: pooled placement cost grows sub-linearly in fleet size.
//!
//! The whole point of the sharded scheduler is that placing a task on a
//! 1024-device fleet should not cost 16× what it costs on a 64-device
//! fleet. The engine counts every candidate-device evaluation
//! ([`Runtime::placement_evals`]) — a deterministic, timer-free proxy
//! for per-task scheduling cost — and this test pins two ratios:
//!
//! * **Sub-linear growth** — per-task evaluations on 1024 devices stay
//!   within 3× of per-task evaluations on 64 devices (the fleet grew
//!   16×), with identical pool size at both scales.
//! * **Pruned vs flat** — on the 1024-device fleet the pooled engine
//!   evaluates at least 3× fewer candidates per task than the same
//!   fleet without pools, which evaluates every device (O(D)), while
//!   producing the bit-identical schedule.

use legato_runtime::{EngineConfig, Policy, PoolConfig, Runtime};
use legato_workloads::{chains, fleets};

const POOL_SIZE: usize = 16;
const TASKS: usize = 20_000;

/// `TASKS` independent tasks with varied sizes (so device busy times
/// diverge and pool bounds separate), each on its own region.
fn submit_wide(rt: &mut Runtime) {
    chains(TASKS, TASKS, |descriptor, accesses| {
        rt.submit(descriptor, accesses.iter().copied());
    });
}

/// Run the wide workload on `n` devices and return (evals, makespan).
fn run_wide(n: usize, pooled: bool) -> (u64, legato_core::units::Seconds) {
    run_wide_with(Policy::Performance, n, pooled)
}

/// Same wide workload under an arbitrary policy.
fn run_wide_with(policy: Policy, n: usize, pooled: bool) -> (u64, legato_core::units::Seconds) {
    let mut cfg = EngineConfig::new()
        .with_devices(fleets::cycled(n))
        .with_policy(policy)
        .with_seed(1);
    if pooled {
        cfg = cfg.with_pools(PoolConfig::uniform(n, POOL_SIZE));
    }
    let mut rt = cfg.build().expect("valid engine config");
    submit_wide(&mut rt);
    let report = rt.run().expect("devices present");
    (rt.placement_evals(), report.makespan)
}

#[test]
fn per_task_cost_grows_sublinearly_with_fleet_size() {
    let (small, _) = run_wide(64, true);
    let (large, large_makespan) = run_wide(1024, true);
    let (flat, flat_makespan) = run_wide(1024, false);

    let small_per_task = small as f64 / TASKS as f64;
    let large_per_task = large as f64 / TASKS as f64;
    let flat_per_task = flat as f64 / TASKS as f64;

    // The schedule itself must be unchanged by pruning.
    assert_eq!(large_makespan, flat_makespan);

    // 16× the devices, at most 3× the per-task evaluations.
    assert!(
        large_per_task <= 3.0 * small_per_task,
        "per-task evals grew super-linearly: {large_per_task:.1} on 1024 \
         devices vs {small_per_task:.1} on 64 devices"
    );

    // And at least 3× cheaper than the flat O(D) scan it replaces.
    assert!(
        large_per_task * 3.0 <= flat_per_task,
        "pooled search not ≥3× cheaper than flat: {large_per_task:.1} \
         pooled vs {flat_per_task:.1} flat evals per task"
    );

    eprintln!(
        "per-task evals: 64-dev pooled {small_per_task:.1}, 1024-dev pooled \
         {large_per_task:.1}, 1024-dev flat {flat_per_task:.1}"
    );
}

#[test]
fn weighted_placement_no_longer_pays_the_flat_scan() {
    // `Weighted` historically fell back to the flat O(fleet) scan (its
    // global min-max normalization needed every candidate); the pooled
    // path now reconstructs that normalization from per-shard busy
    // extrema, so weighted placement must show the same sub-linear
    // eval profile as the scale-free policies — with the identical
    // schedule.
    let policy = Policy::Weighted(0.5);
    let (small, _) = run_wide_with(policy, 64, true);
    let (large, large_makespan) = run_wide_with(policy, 1024, true);
    let (flat, flat_makespan) = run_wide_with(policy, 1024, false);

    let small_per_task = small as f64 / TASKS as f64;
    let large_per_task = large as f64 / TASKS as f64;
    let flat_per_task = flat as f64 / TASKS as f64;

    assert_eq!(large_makespan, flat_makespan);

    assert!(
        large_per_task <= 3.0 * small_per_task,
        "weighted per-task evals grew super-linearly: {large_per_task:.1} \
         on 1024 devices vs {small_per_task:.1} on 64 devices"
    );
    assert!(
        large_per_task * 3.0 <= flat_per_task,
        "weighted pooled search not ≥3× cheaper than flat: \
         {large_per_task:.1} pooled vs {flat_per_task:.1} flat evals per task"
    );

    eprintln!(
        "weighted per-task evals: 64-dev pooled {small_per_task:.1}, 1024-dev \
         pooled {large_per_task:.1}, 1024-dev flat {flat_per_task:.1}"
    );
}
