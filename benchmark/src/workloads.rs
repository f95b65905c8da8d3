//! The seven pinned workloads: what each one's set-up generates from the
//! seed. Why each exists is recorded in `BENCHMARK.json` and the README.
//!
//! Sizes are fixed; the seed drives work sizes, chain depths (where a
//! workload varies them), which chains are confidential, the churn trace
//! and the engine seed. `quick` divides the sizes by 16 for the smoke
//! mode.

use std::collections::HashMap;

use legato_core::requirements::{Criticality, SecurityLevel};
use legato_core::task::{RegionId, TaskKind, Work};
use legato_core::units::{Bytes, Seconds};
use legato_hw::device::DeviceSpec;
use legato_runtime::{
    ChurnConfig, ChurnEvent, ChurnEventKind, ChurnTrace, DepartureKind, EnergyConfig, EngineConfig,
    Policy, PoolConfig, ResilienceConfig, Runtime, RuntimeError, SecurityConfig, TenantSpec,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{SubmitPath, TaskList};

pub const NAMES: [&str; 7] = [
    "chains-pooled",
    "wide-flat",
    "secure-energy",
    "churn-ckpt",
    "service-waves",
    "service-stream",
    "sweep-small",
];

/// One simulation: an engine configuration and the task stream fed to it.
pub struct Sim {
    pub cfg: EngineConfig,
    /// Per-execution fault probability set on every device (0 = none).
    pub fault_prob: f64,
    pub tasks: TaskList,
    pub path: SubmitPath,
    /// Arguments of the churn trace in `cfg`, kept so the traced pass can
    /// time its generation on its own.
    pub churn: Option<ChurnArgs>,
}

pub struct ChurnArgs {
    pub seed: u64,
    pub fleet: Vec<DeviceSpec>,
    pub horizon: Seconds,
    pub crashes: usize,
    /// Fault probability of the replacement devices.
    pub fault_prob: f64,
}

impl ChurnArgs {
    /// `crashes` crashes of distinct devices at seeded times over the
    /// horizon, each followed by the arrival of a replacement of the same
    /// spec. `ChurnTrace::seeded` draws arrivals and departures
    /// independently, which leaves every seed with a different fleet for
    /// most of the run; replacing like with like keeps the fleet's
    /// capacity, and so the simulated results, comparable across seeds.
    pub fn trace(&self) -> ChurnTrace {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut live: Vec<usize> = (0..self.fleet.len()).collect();
        let gap = self.horizon.0 / (2 * self.crashes) as f64;
        let mut events = Vec::with_capacity(2 * self.crashes);
        for _ in 0..self.crashes {
            let at = rng.gen_range(0.0..self.horizon.0);
            let device = live.swap_remove(rng.gen_range(0..live.len()));
            events.push(ChurnEvent {
                at: Seconds(at),
                kind: ChurnEventKind::Departure {
                    device,
                    kind: DepartureKind::Crash,
                },
            });
            events.push(ChurnEvent {
                at: Seconds(at + gap),
                kind: ChurnEventKind::Arrival {
                    spec: self.fleet[device].clone(),
                    pool: None,
                    fault_prob: self.fault_prob,
                },
            });
        }
        ChurnTrace::from_events(events)
    }
}

impl Sim {
    /// A fault-free, churn-free simulation.
    pub fn new(cfg: EngineConfig, tasks: TaskList, path: SubmitPath) -> Sim {
        Sim {
            cfg,
            fault_prob: 0.0,
            tasks,
            path,
            churn: None,
        }
    }

    /// `EngineConfig::build` plus the fault model.
    pub fn build(&self) -> Runtime {
        let mut rt = self.cfg.clone().build().expect("valid engine config");
        if self.fault_prob > 0.0 {
            for d in 0..rt.devices().len() {
                rt.set_fault_prob(d, self.fault_prob);
            }
        }
        rt
    }
}

/// An expired churn deferral fails one task and returns; the rest of the
/// graph keeps running on the next call.
pub fn tolerate_deferral<T>(r: Result<T, RuntimeError>) -> Option<T> {
    match r {
        Ok(v) => Some(v),
        Err(RuntimeError::DeferralExpired(_)) => None,
        Err(e) => panic!("unexpected engine error: {e}"),
    }
}

/// Engine workloads: a rep runs `runs_per_rep` fresh simulations,
/// cycling through `sims`.
pub struct EngineWorkload {
    pub sims: Vec<Sim>,
    pub runs_per_rep: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// Submit a round, `Service::run()`; seal + restart once after
    /// `restart_after` rounds.
    Waves { restart_after: usize },
    /// Submit a round, then at most `steps_per_round` `Service::step()`
    /// calls; never `run()`.
    Stream { steps_per_round: usize },
}

/// Service workloads: `rounds` rounds in which every tenant submits
/// `per_round` tasks.
pub struct ServiceWorkload {
    pub cfg: EngineConfig,
    pub tenants: Vec<TenantSpec>,
    pub rounds: usize,
    pub per_round: usize,
    /// Work of submission `(round * per_round + slot) * tenants + tenant`.
    pub work: Vec<f64>,
    pub mode: ServiceMode,
}

impl ServiceWorkload {
    /// Session-local region of a submission: waves use one region per
    /// slot (eight independent tasks per tenant and wave, serialised
    /// across waves); the stream reuses four regions so arrivals four
    /// rounds apart chain.
    pub fn region(&self, round: usize, slot: usize) -> u64 {
        match self.mode {
            ServiceMode::Waves { .. } => slot as u64,
            ServiceMode::Stream { .. } => (round % 4) as u64,
        }
    }

    pub fn offered(&self) -> usize {
        self.work.len()
    }
}

pub enum Workload {
    Engine(EngineWorkload),
    Service(Box<ServiceWorkload>),
}

/// `n` devices cycling the four reference specs. The x86 carries a
/// hardware-assisted TEE and the arm64 a software one.
fn fleet(n: usize) -> Vec<DeviceSpec> {
    let specs = [
        DeviceSpec::xeon_x86(),
        DeviceSpec::gtx1080(),
        DeviceSpec::fpga_kintex(),
        DeviceSpec::arm64(),
    ];
    (0..n).map(|i| specs[i % specs.len()].clone()).collect()
}

fn region_sizes(regions: usize, bytes: Bytes) -> HashMap<RegionId, Bytes> {
    (0..regions as u64).map(|r| (RegionId(r), bytes)).collect()
}

fn one(sim: Sim) -> Workload {
    Workload::Engine(EngineWorkload {
        sims: vec![sim],
        runs_per_rep: 1,
    })
}

/// Generate the named workload's inputs. `None` for an unknown name.
pub fn setup(name: &str, seed: u64, quick: bool) -> Option<Workload> {
    let q = if quick { 16 } else { 1 };
    let mut rng = SmallRng::seed_from_u64(seed);
    let public = |n: usize| vec![SecurityLevel::Public; n];
    Some(match name {
        "chains-pooled" => one(Sim::new(
            EngineConfig::new()
                .with_devices(fleet(256))
                .with_policy(Policy::Performance)
                .with_seed(seed)
                .with_pools(PoolConfig::uniform(256, 16)),
            TaskList::chains(100_000 / q, 4, &mut rng, (1e12, 2e12)),
            SubmitPath::Batch,
        )),
        "wide-flat" => {
            let chains = 1024 / q;
            one(Sim::new(
                EngineConfig::new()
                    .with_devices(fleet(1024))
                    .with_policy(Policy::Weighted(0.5))
                    .with_seed(seed),
                TaskList::wide(
                    &vec![64; chains],
                    &public(chains),
                    Criticality::Normal,
                    true,
                    &mut rng,
                    (5e9, 5e10),
                ),
                SubmitPath::PerTask,
            ))
        }
        "secure-energy" => {
            let chains = 1024 / q;
            let levels: Vec<SecurityLevel> = (0..chains)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        SecurityLevel::Enclave
                    } else {
                        SecurityLevel::Public
                    }
                })
                .collect();
            let tasks = TaskList::wide(
                &vec![64; chains],
                &levels,
                Criticality::Normal,
                true,
                &mut rng,
                (5e9, 5e10),
            );
            let base = EngineConfig::new()
                .with_devices(fleet(512))
                .with_policy(Policy::Weighted(0.5))
                .with_seed(seed)
                .with_pools(PoolConfig::uniform(512, 16))
                .with_security(
                    SecurityConfig::new()
                        .with_region_sizes(region_sizes(tasks.regions(), Bytes::mib(32))),
                );
            // The makespan bound is relative to what the same fleet does
            // with no objective: one extra run, paid at set-up.
            let mut free = Sim::new(
                base.clone().with_energy(EnergyConfig::new()),
                tasks,
                SubmitPath::PerTask,
            );
            let mut rt = free.build();
            free.tasks.submit(&mut rt, free.path);
            let unbounded = rt.run().expect("devices present").makespan;
            free.cfg = base.with_energy(EnergyConfig::new().with_makespan_bound(unbounded * 1.5));
            one(free)
        }
        "churn-ckpt" => {
            // Rollback counts feed back on themselves (re-executed work
            // faults again), so one simulation's cost moves ~15 % from
            // seed to seed. A rep therefore runs an ensemble of smaller
            // simulations, each with its own sub-seed.
            let chains = 64 / q.min(4);
            let devices = fleet(64);
            let mean_task = devices
                .iter()
                .map(|d| d.time_for(Work::flops(2e12), TaskKind::Compute))
                .fold(Seconds(f64::INFINITY), Seconds::min);
            let sims: Vec<Sim> = (0..16 / q.min(4) as u64)
                .map(|i| {
                    let sub_seed = seed.wrapping_mul(16).wrapping_add(i);
                    let tasks = TaskList::wide(
                        &vec![64; chains],
                        &public(chains),
                        Criticality::High,
                        false,
                        &mut rng,
                        (1.9e12, 2.1e12),
                    );
                    let base = EngineConfig::new()
                        .with_devices(devices.clone())
                        .with_policy(Policy::Performance)
                        .with_seed(sub_seed)
                        .with_max_retries(0);
                    // The churn horizon is the fault-free makespan, so
                    // every crash lands while the graph is in flight.
                    let mut sim = Sim::new(base.clone(), tasks, SubmitPath::PerTask);
                    let mut rt = sim.build();
                    sim.tasks.submit(&mut rt, sim.path);
                    let churn = ChurnArgs {
                        seed: sub_seed,
                        fleet: devices.clone(),
                        horizon: rt.run().expect("devices present").makespan,
                        crashes: 16,
                        fault_prob: 0.01,
                    };
                    sim.cfg = base
                        .with_resilience(
                            ResilienceConfig::new(mean_task * 8.0)
                                .with_region_sizes(region_sizes(sim.tasks.regions(), Bytes::mib(8)))
                                .with_max_rollbacks(100_000),
                        )
                        .with_churn(ChurnConfig::new(churn.trace()));
                    sim.fault_prob = churn.fault_prob;
                    sim.churn = Some(churn);
                    sim
                })
                .collect();
            Workload::Engine(EngineWorkload {
                runs_per_rep: sims.len(),
                sims,
            })
        }
        "service-waves" | "service-stream" => {
            let tenants = 1000 / q;
            let (rounds, per_round, mode) = if name == "service-waves" {
                (24, 8, ServiceMode::Waves { restart_after: 12 })
            } else {
                (
                    12,
                    1,
                    ServiceMode::Stream {
                        steps_per_round: tenants,
                    },
                )
            };
            Workload::Service(Box::new(ServiceWorkload {
                cfg: EngineConfig::new()
                    .with_devices(fleet(64))
                    .with_policy(Policy::Performance)
                    .with_seed(seed),
                tenants: (0..tenants)
                    .map(|i| {
                        let mut spec = TenantSpec::new().with_share(1.0 + (i % 4) as f64);
                        if i % 20 == 7 {
                            spec = spec.confidential();
                        }
                        if i < tenants / 20 {
                            spec = spec.with_budget(4);
                        }
                        spec
                    })
                    .collect(),
                rounds,
                per_round,
                work: (0..rounds * per_round * tenants)
                    .map(|_| rng.gen_range(0.5e12..1.5e12))
                    .collect(),
                mode,
            }))
        }
        "sweep-small" => {
            let policies = [
                Policy::Performance,
                Policy::Energy,
                Policy::Edp,
                Policy::Weighted(0.5),
            ];
            let sims = (0..12)
                .map(|i| {
                    let chains = [32, 48, 64][i % 3];
                    let depths: Vec<usize> = (0..chains).map(|_| rng.gen_range(8..=32)).collect();
                    Sim::new(
                        EngineConfig::new()
                            .with_devices(fleet(4))
                            .with_policy(policies[i % 4])
                            .with_seed(seed.wrapping_add(i as u64)),
                        TaskList::wide(
                            &depths,
                            &public(chains),
                            Criticality::Normal,
                            true,
                            &mut rng,
                            (5e9, 5e10),
                        ),
                        SubmitPath::PerTask,
                    )
                })
                .collect();
            Workload::Engine(EngineWorkload {
                sims,
                runs_per_rep: 3000 / q,
            })
        }
        _ => return None,
    })
}
