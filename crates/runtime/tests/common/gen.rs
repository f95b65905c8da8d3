//! What the runtime's property tests draw and build from: one chain draw,
//! the fleet it runs on, the selectors that turn drawn bytes into
//! requirements and policies, and the submit, build and run loops every
//! chain property shares. Fixed fleets other than [`devices`] and region
//! size maps come from `legato-workloads` (`fleets`, `region_sizes`).

use legato_core::requirements::{Criticality, Requirements, SecurityLevel};
use legato_core::task::{AccessMode, TaskDescriptor, TaskId, Work};
use legato_core::units::Seconds;
use legato_hw::device::DeviceSpec;
use legato_runtime::{EngineConfig, Policy, ResilienceConfig, RunReport, Runtime, RuntimeError};
use proptest::prelude::*;
use std::ops::Range;

/// Chains → tasks → (flops, criticality selector, security selector).
pub type ChainSpec = Vec<Vec<(f64, u8, u8)>>;

/// `count` chains of `len` tasks each. A task is 0.5–4 TFLOP, seconds on
/// [`devices`], so checkpoint intervals, churn traces and fault retries
/// land between its start and its finish.
pub fn chains(len: Range<usize>, count: Range<usize>) -> impl Strategy<Value = ChainSpec> {
    prop::collection::vec(
        prop::collection::vec((5e11f64..4e12, 0u8..3, 0u8..3), len),
        count,
    )
}

/// One to five chains of one to seven tasks.
pub fn chains_strategy() -> impl Strategy<Value = ChainSpec> {
    chains(1..8, 1..6)
}

/// An x86 host (the one TEE), a GPU and an FPGA.
pub fn devices() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::xeon_x86(),
        DeviceSpec::gtx1080(),
        DeviceSpec::fpga_kintex(),
    ]
}

pub fn criticality(sel: u8) -> Criticality {
    match sel {
        0 => Criticality::Normal,
        1 => Criticality::High,
        _ => Criticality::Critical,
    }
}

pub fn security(sel: u8) -> SecurityLevel {
    match sel {
        0 => SecurityLevel::Public,
        1 => SecurityLevel::Confidential,
        _ => SecurityLevel::Enclave,
    }
}

pub fn policy(sel: u8) -> Policy {
    match sel {
        0 => Policy::Performance,
        1 => Policy::Energy,
        2 => Policy::Edp,
        _ => Policy::Weighted(0.5),
    }
}

/// Requirements from both of a drawn task's selectors.
pub fn mixed(crit: u8, sec: u8) -> Requirements {
    Requirements::new()
        .with_criticality(criticality(crit))
        .with_security(security(sec))
}

/// Requirements from the criticality selector: every task public.
pub fn public(crit: u8, _sec: u8) -> Requirements {
    Requirements::new().with_criticality(criticality(crit))
}

/// Default requirements whatever was drawn.
pub fn plain(_crit: u8, _sec: u8) -> Requirements {
    Requirements::new()
}

/// Submit every chain task, with the requirements `reqs` makes of its
/// selectors; chain `c` serializes on its private region `c`.
pub fn submit(rt: &mut Runtime, chains: &ChainSpec, reqs: impl Fn(u8, u8) -> Requirements) {
    for (c, chain) in chains.iter().enumerate() {
        for &(flops, crit, sec) in chain {
            rt.submit(
                TaskDescriptor::named("t")
                    .with_work(Work::flops(flops))
                    .with_requirements(reqs(crit, sec)),
                [(c as u64, AccessMode::InOut)],
            );
        }
    }
}

/// [`devices`] under `Weighted(0.5)` with `seed` and one retry.
pub fn config(seed: u64) -> EngineConfig {
    EngineConfig::new()
        .with_devices(devices())
        .with_policy(Policy::Weighted(0.5))
        .with_seed(seed)
        .with_max_retries(1)
}

/// Checkpoints every 5 s, with a rollback budget no property exhausts.
pub fn checkpointing() -> ResilienceConfig {
    ResilienceConfig::new(Seconds(5.0)).with_max_rollbacks(10_000)
}

/// `cfg` built, with device 1 corrupting 40 % of its executions.
pub fn faulty(cfg: EngineConfig) -> Runtime {
    let mut rt = cfg.build().expect("valid engine config");
    rt.set_fault_prob(1, 0.4);
    rt
}

/// `run()` to quiescence past expired churn deferrals, each of which
/// fails one task (and its cone) while the rest of the graph runs on.
/// Returns the final report and the refused tasks in order.
pub fn run_past_expiries(rt: &mut Runtime) -> (RunReport, Vec<TaskId>) {
    let mut refused = Vec::new();
    loop {
        match rt.run() {
            Ok(report) => return (report, refused),
            Err(RuntimeError::DeferralExpired(task)) => refused.push(task),
            Err(e) => panic!("only deferral expiry is a legal churn refusal, got {e}"),
        }
    }
}
