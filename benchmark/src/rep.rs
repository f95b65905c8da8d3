//! The untraced end-to-end rep: what a user pays per simulation, timed
//! as one wall-clock interval with nothing of the benchmark's own inside
//! it. The digest of simulated results is computed after the clock stops.

use std::time::Instant;

use legato_core::task::{AccessMode, TaskDescriptor, Work};
use legato_runtime::{RunReport, RuntimeError, Service, ServiceConfig, TaskOutcome, TenantId};

use crate::workloads::{
    tolerate_deferral, EngineWorkload, ServiceMode, ServiceWorkload, Sim, Workload,
};

/// The simulated outcome of one rep. Deterministic per seed: every rep of
/// a workload must produce the same digest, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    /// Tasks offered to the system (refused submissions included).
    pub offered: u64,
    /// Tasks that completed with the correct value.
    pub completed: u64,
    /// Submissions refused by admission control with the typed error.
    pub refused: u64,
    /// Simulated seconds: `RunReport::makespan`, summed over the rep's
    /// simulations (and over both engine incarnations around a restart).
    pub makespan: f64,
    /// Simulated joules: `RunReport::total_energy`, summed likewise.
    pub energy: f64,
    /// Simulated seconds: p99 over tasks of `finish` minus the engine's
    /// `now()` when the task was submitted; the mean of the per-simulation
    /// p99s when a rep runs more than one simulation.
    pub p99: f64,
}

impl Digest {
    /// Offered tasks that neither completed nor were refused with the
    /// typed error: lost work.
    pub fn unaccounted(&self) -> u64 {
        self.offered - self.completed - self.refused
    }

    pub fn completed_share(&self) -> f64 {
        self.completed as f64 / self.offered as f64
    }

    pub fn same_bits(&self, other: &Digest) -> bool {
        (self.offered, self.completed, self.refused)
            == (other.offered, other.completed, other.refused)
            && self.makespan.to_bits() == other.makespan.to_bits()
            && self.energy.to_bits() == other.energy.to_bits()
            && self.p99.to_bits() == other.p99.to_bits()
    }
}

/// Folds the final reports of a rep's simulations into a [`Digest`].
#[derive(Default)]
pub struct DigestAcc {
    offered: u64,
    completed: u64,
    refused: u64,
    makespan: f64,
    energy: f64,
    p99_sum: f64,
    sims: u64,
    latencies: Vec<f64>,
}

impl DigestAcc {
    pub fn offer(&mut self, offered: u64, refused: u64) {
        self.offered += offered;
        self.refused += refused;
    }

    /// Absorb one engine incarnation's final report. `submitted_at` gives
    /// the engine time at which a placement's task was submitted.
    pub fn report(&mut self, report: &RunReport, submitted_at: impl Fn(&TaskOutcome) -> f64) {
        self.completed += report.placements.iter().filter(|p| p.correct).count() as u64;
        self.makespan += report.makespan.0;
        self.energy += report.total_energy.0;
        self.latencies.extend(
            report
                .placements
                .iter()
                .map(|p| p.finish.0 - submitted_at(p)),
        );
    }

    /// Close one simulation: its p99 is taken over every latency absorbed
    /// since the previous call.
    pub fn end_sim(&mut self) {
        let n = self.latencies.len();
        if n > 0 {
            let idx = ((n as f64 * 0.99).ceil() as usize).saturating_sub(1);
            let (_, p99, _) = self.latencies.select_nth_unstable_by(idx, f64::total_cmp);
            self.p99_sum += *p99;
        }
        self.sims += 1;
        self.latencies.clear();
    }

    pub fn finish(self) -> Digest {
        Digest {
            offered: self.offered,
            completed: self.completed,
            refused: self.refused,
            makespan: self.makespan,
            energy: self.energy,
            p99: self.p99_sum / self.sims.max(1) as f64,
        }
    }
}

/// One rep: its digest and its wall-clock seconds.
pub fn rep(w: &Workload) -> (Digest, f64) {
    match w {
        Workload::Engine(w) => engine_rep(w),
        Workload::Service(w) => service_rep(w),
    }
}

/// `EngineConfig::build` → submission → run to quiescence → final report
/// → drop, for one simulation.
fn run_sim(sim: &Sim) -> RunReport {
    let mut rt = sim.build();
    sim.tasks.submit(&mut rt, sim.path);
    loop {
        if let Some(report) = tolerate_deferral(rt.run()) {
            return report;
        }
    }
}

fn engine_rep(w: &EngineWorkload) -> (Digest, f64) {
    let mut acc = DigestAcc::default();
    let mut wall = 0.0;
    for i in 0..w.runs_per_rep {
        let sim = &w.sims[i % w.sims.len()];
        let t0 = Instant::now();
        let report = run_sim(sim);
        wall += t0.elapsed().as_secs_f64();
        acc.offer(sim.tasks.len() as u64, 0);
        // Batch submission: every task enters at engine time 0.
        acc.report(&report, |_| 0.0);
        acc.end_sim();
    }
    (acc.finish(), wall)
}

/// A fresh service with the workload's tenants registered.
fn build_service(w: &ServiceWorkload) -> Service {
    let mut svc = ServiceConfig::new(w.cfg.clone())
        .build()
        .expect("valid engine config");
    for spec in &w.tenants {
        svc.register(spec.clone()).expect("valid tenant spec");
    }
    svc
}

/// Submit round `round` for every tenant; returns how many submissions
/// were refused with the typed admission error.
pub fn submit_round(w: &ServiceWorkload, svc: &mut Service, round: usize) -> u64 {
    let tenants = w.tenants.len();
    let mut refused = 0;
    for slot in 0..w.per_round {
        let region = w.region(round, slot);
        for t in 0..tenants {
            let work = w.work[(round * w.per_round + slot) * tenants + t];
            match svc.submit(
                TenantId(t as u32),
                TaskDescriptor::named("svc").with_work(Work::flops(work)),
                [(region, AccessMode::InOut)],
            ) {
                Ok(_) => {}
                Err(RuntimeError::AdmissionRejected { .. }) => refused += 1,
                Err(e) => panic!("unexpected service error: {e}"),
            }
        }
    }
    refused
}

/// When each round's tasks entered the engine: `(first engine task id,
/// engine time at submission)`, in id order. Tasks are dispatched in
/// rounds, so a placement's round is found by its id.
#[derive(Default)]
pub struct Arrivals(Vec<(u64, f64)>);

impl Arrivals {
    pub fn mark(&mut self, svc: &Service) {
        self.0
            .push((svc.engine().graph().len() as u64, svc.engine().now().0));
    }

    pub fn submitted_at(&self, p: &TaskOutcome) -> f64 {
        let round = self.0.partition_point(|&(first, _)| first <= p.task.0);
        self.0[round - 1].1
    }
}

fn service_rep(w: &ServiceWorkload) -> (Digest, f64) {
    let t0 = Instant::now();
    let mut svc = build_service(w);
    let mut refused = 0;
    let mut arrivals = Arrivals::default();
    // The engine incarnation before a restart: its last report and the
    // arrival times that go with it.
    let mut before_restart = None;
    let mut last = None;
    for round in 0..w.rounds {
        arrivals.mark(&svc);
        refused += submit_round(w, &mut svc, round);
        match w.mode {
            ServiceMode::Waves { restart_after } => {
                let report = svc.run().expect("devices present");
                if round + 1 == restart_after {
                    svc.seal();
                    svc.restart().expect("valid engine config");
                    before_restart = Some((report, std::mem::take(&mut arrivals)));
                } else {
                    last = Some(report);
                }
            }
            ServiceMode::Stream { steps_per_round } => {
                for _ in 0..steps_per_round {
                    if svc.step().expect("devices present").is_none() {
                        break;
                    }
                }
            }
        }
    }
    if matches!(w.mode, ServiceMode::Stream { .. }) {
        while svc.step().expect("devices present").is_some() {}
        last = Some(svc.engine().report());
    }
    let last = last.expect("at least one round");
    let wall = t0.elapsed().as_secs_f64();

    let mut acc = DigestAcc::default();
    acc.offer(w.offered() as u64, refused);
    if let Some((report, arrivals)) = &before_restart {
        acc.report(report, |p| arrivals.submitted_at(p));
    }
    acc.report(&last, |p| arrivals.submitted_at(p));
    acc.end_sim();
    (acc.finish(), wall)
}
