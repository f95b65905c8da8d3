//! The traced rep: the same simulation as the untraced rep, with a span
//! around each phase-level call into a layer and the run driven by
//! `step()` so events can be counted and classified.
//!
//! A step is classified after the fact from O(1) public observables:
//! the rollback trace grew → `rollback`; the last checkpoint time moved →
//! `ckpt`; the placement-evaluation counter grew → `place`; else `other`.

use std::hint::black_box;
use std::time::Instant;

use legato_core::requirements::SecurityLevel;
use legato_runtime::{RunReport, Runtime, ServiceConfig, TenantId};

use crate::checks;
use crate::drives;
use crate::inputs::{SubmitPath, TaskList};
use crate::rep::{submit_round, Arrivals, Digest, DigestAcc};
use crate::trace::{Hist, Tracer};
use crate::workloads::{
    tolerate_deferral, EngineWorkload, ServiceMode, ServiceWorkload, Sim, Workload,
};

pub type Values = Vec<(&'static str, f64)>;

pub struct TracedRep {
    pub digest: Digest,
    /// Sum of the phase spans an untraced rep also pays.
    pub wall_s: f64,
    pub values: Values,
    pub failures: Vec<String>,
    pub steps: StepAcc,
    pub service_steps: Hist,
}

/// Per-class histograms of engine step times.
#[derive(Default)]
pub struct StepAcc {
    pub place: Hist,
    pub other: Hist,
    pub ckpt: Hist,
    pub rollback: Hist,
}

impl StepAcc {
    pub fn classes(&self) -> [(&'static str, &Hist); 4] {
        [
            ("place", &self.place),
            ("other", &self.other),
            ("ckpt", &self.ckpt),
            ("rollback", &self.rollback),
        ]
    }

    pub fn merge(&mut self, other: &StepAcc) {
        self.place.merge(&other.place);
        self.other.merge(&other.other);
        self.ckpt.merge(&other.ckpt);
        self.rollback.merge(&other.rollback);
    }

    fn events(&self) -> u64 {
        self.classes().iter().map(|(_, h)| h.count).sum()
    }

    fn total_ns(&self) -> u64 {
        self.classes().iter().map(|(_, h)| h.sum_ns).sum()
    }

    fn share(&self, hist: &Hist) -> f64 {
        ratio(hist.sum_ns as f64, self.total_ns() as f64)
    }

    /// Step `rt` until it is idle or `limit` events have run; returns
    /// whether it went idle.
    fn drive(&mut self, rt: &mut Runtime, limit: usize) -> bool {
        let mut rollbacks = rt.rollback_trace().len();
        let mut ckpt = rt.last_checkpoint_time();
        let mut evals = rt.placement_evals();
        for _ in 0..limit {
            let t0 = Instant::now();
            let stepped = rt.step();
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(None) = tolerate_deferral(stepped) {
                return true;
            }
            let now = (
                rt.rollback_trace().len(),
                rt.last_checkpoint_time(),
                rt.placement_evals(),
            );
            let hist = if now.0 > rollbacks {
                &mut self.rollback
            } else if now.1 != ckpt {
                &mut self.ckpt
            } else if now.2 > evals {
                &mut self.place
            } else {
                &mut self.other
            };
            hist.record(ns);
            (rollbacks, ckpt, evals) = now;
        }
        false
    }
}

/// Nanoseconds spent in each phase of a rep, and what they are divided by.
#[derive(Default)]
struct Phases {
    config_ns: u64,
    submit_ns: u64,
    run_ns: u64,
    report_ns: u64,
    drop_ns: u64,
    analyze_ns: u64,
    analyzed: u64,
    diagnostics: u64,
    sims: u64,
    submitted: u64,
}

/// Exact counters folded from final reports (one per engine incarnation).
#[derive(Default)]
struct Counts {
    placements: u64,
    evals: u64,
    useful_s: f64,
    enclave_tasks: u64,
    attestations: u64,
    sealed_bytes: u64,
    seal_time_s: f64,
    bound_relaxations: u64,
    idle_j: f64,
    total_j: f64,
    checkpoints: u64,
    rollbacks: u64,
    checkpoint_bytes: u64,
    wasted_s: f64,
    crashes: u64,
    migrations: u64,
    deferred: u64,
}

impl Counts {
    fn absorb(&mut self, rt: &Runtime, report: &RunReport) {
        self.placements += report.placements.len() as u64;
        self.evals += rt.placement_evals();
        self.useful_s += report
            .placements
            .iter()
            .map(|p| (p.finish - p.start).0)
            .sum::<f64>();
        if let Some(s) = report.security {
            self.enclave_tasks += s.enclave_tasks;
            self.attestations += s.attestations;
            self.sealed_bytes += s.sealed_bytes.as_u64();
            self.seal_time_s += s.seal_time.0;
        }
        if let Some(e) = report.energy {
            self.bound_relaxations += e.bound_relaxations;
            self.idle_j += e.idle_energy.0;
            self.total_j += e.total_energy.0;
        }
        if let Some(r) = report.resilience {
            self.checkpoints += r.checkpoints;
            self.rollbacks += r.rollbacks;
            self.checkpoint_bytes += r.checkpoint_bytes.as_u64();
            self.wasted_s += r.wasted_work.0;
        }
        if let Some(c) = report.churn {
            self.crashes += c.crashes;
            self.migrations += c.migrations;
            self.deferred += c.deferred_placements;
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer values every workload derives the same way.
fn common_values(ph: &Phases, steps: &StepAcc, c: &Counts, run_ns: u64) -> Values {
    let tasks = c.placements as f64;
    vec![
        (
            "config.build_us",
            ratio(ph.config_ns as f64, ph.sims as f64) / 1e3,
        ),
        (
            "submit.ns_per_task",
            ratio(ph.submit_ns as f64, ph.submitted as f64),
        ),
        (
            "analyze.ns_per_task",
            ratio(ph.analyze_ns as f64, ph.analyzed as f64),
        ),
        ("analyze.diagnostics", ph.diagnostics as f64),
        ("engine.run_ns_per_task", ratio(run_ns as f64, tasks)),
        (
            "engine.events_per_task",
            ratio(steps.events() as f64, tasks),
        ),
        ("engine.step_place_ns_p50", steps.place.quantile(0.5)),
        ("engine.step_place_ns_p99", steps.place.quantile(0.99)),
        ("engine.step_other_ns_p50", steps.other.quantile(0.5)),
        ("engine.step_other_ns_p99", steps.other.quantile(0.99)),
        ("engine.place_share", steps.share(&steps.place)),
        (
            "engine.report_us",
            ratio(ph.report_ns as f64, ph.sims as f64) / 1e3,
        ),
        ("placement.evals_per_task", ratio(c.evals as f64, tasks)),
        ("security.enclave_tasks", c.enclave_tasks as f64),
        ("security.attestations", c.attestations as f64),
        ("security.sealed_bytes", c.sealed_bytes as f64),
        ("security.seal_time_s", c.seal_time_s),
        ("energy.bound_relaxations", c.bound_relaxations as f64),
        ("energy.idle_share", ratio(c.idle_j, c.total_j)),
        ("resilience.checkpoints", c.checkpoints as f64),
        ("resilience.rollbacks", c.rollbacks as f64),
        ("resilience.checkpoint_bytes", c.checkpoint_bytes as f64),
        ("resilience.wasted_work_s", c.wasted_s),
        (
            "resilience.useful_work_ratio",
            ratio(c.useful_s, c.useful_s + c.wasted_s),
        ),
        (
            "resilience.rollback_step_us_p50",
            steps.rollback.quantile(0.5) / 1e3,
        ),
        (
            "resilience.ckpt_step_us_p50",
            steps.ckpt.quantile(0.5) / 1e3,
        ),
        ("resilience.rollback_share", steps.share(&steps.rollback)),
        ("resilience.ckpt_share", steps.share(&steps.ckpt)),
        ("churn.crashes", c.crashes as f64),
        ("churn.migrations", c.migrations as f64),
        ("churn.deferred_placements", c.deferred as f64),
    ]
}

pub fn rep(w: &Workload, tr: &mut Tracer) -> TracedRep {
    match w {
        Workload::Engine(w) => engine_rep(w, tr),
        Workload::Service(w) => service_rep(w, tr),
    }
}

/// The phase helpers shared by engine reps and a service's bare twin.
fn start_sim(sim: &Sim, tr: &mut Tracer, ph: &mut Phases) -> Runtime {
    let (rt, ns) = tr.span("config.build", || sim.build());
    ph.config_ns += ns;
    ph.sims += 1;
    rt
}

fn analyze(rt: &Runtime, tr: &mut Tracer, ph: &mut Phases) {
    let (report, ns) = tr.span("analyze", || rt.analyze());
    ph.analyze_ns += ns;
    ph.analyzed += report.tasks_analyzed as u64;
    ph.diagnostics += report.diagnostics.len() as u64;
}

fn final_report(rt: &Runtime, tr: &mut Tracer, ph: &mut Phases) -> RunReport {
    let (report, ns) = tr.span("engine.report", || rt.report());
    ph.report_ns += ns;
    report
}

fn engine_rep(w: &EngineWorkload, tr: &mut Tracer) -> TracedRep {
    let mut acc = DigestAcc::default();
    let mut ph = Phases::default();
    let mut steps = StepAcc::default();
    let mut counts = Counts::default();
    let mut failures = Vec::new();
    let rep_span = tr.enter("rep");
    for i in 0..w.runs_per_rep {
        let sim = &w.sims[i % w.sims.len()];
        let sim_span = tr.enter("sim");
        let mut rt = start_sim(sim, tr, &mut ph);
        let (_, ns) = tr.span("submit", || sim.tasks.submit(&mut rt, sim.path));
        ph.submit_ns += ns;
        ph.submitted += sim.tasks.len() as u64;
        // One analysis per distinct simulation and rep; it is off in every
        // end-to-end rep, so its span is not part of the rep's wall time.
        if i < w.sims.len() {
            analyze(&rt, tr, &mut ph);
        }
        let run = tr.enter("engine.run");
        steps.drive(&mut rt, usize::MAX);
        ph.run_ns += tr.exit(run);
        let report = final_report(&rt, tr, &mut ph);
        checks::engine(&rt, &report, &mut failures);
        counts.absorb(&rt, &report);
        ph.drop_ns += tr.span("drop", || drop(rt)).1;
        tr.exit(sim_span);
        acc.offer(sim.tasks.len() as u64, 0);
        acc.report(&report, |_| 0.0);
        acc.end_sim();
    }
    tr.exit(rep_span);
    let mut values = common_values(&ph, &steps, &counts, ph.run_ns);
    values.extend(drives::graph(w.sims.iter().map(|s| (&s.tasks, s.path))));
    values.push((
        "placement.flat_ns_per_eval",
        drives::flat_placement(&w.sims[0]),
    ));
    values.push(("churn.trace_gen_us", drives::churn_trace(&w.sims)));
    TracedRep {
        digest: acc.finish(),
        wall_s: (ph.config_ns + ph.submit_ns + ph.run_ns + ph.report_ns + ph.drop_ns) as f64 / 1e9,
        values,
        failures,
        steps,
        service_steps: Hist::default(),
    }
}

/// What a tenant's budget lets through in one round, given the tasks it
/// already has admitted and not completed.
fn admitted_slots(budget: usize, outstanding: u64, per_round: usize) -> usize {
    budget.saturating_sub(outstanding as usize).min(per_round)
}

fn service_rep(w: &ServiceWorkload, tr: &mut Tracer) -> TracedRep {
    let tenants = w.tenants.len();
    let default_budget = ServiceConfig::new(w.cfg.clone()).default_budget;
    let mut ph = Phases::default();
    let mut counts = Counts::default();
    let mut failures = Vec::new();
    let mut service_steps = Hist::default();
    let (mut register_ns, mut submit_ns, mut run_ns, mut seal_ns, mut restart_ns) = (0, 0, 0, 0, 0);

    let rep_span = tr.enter("rep");
    let (mut svc, ns) = tr.span("config.build", || {
        ServiceConfig::new(w.cfg.clone())
            .build()
            .expect("valid engine config")
    });
    ph.config_ns += ns;
    ph.sims += 1;
    register_ns += tr
        .span("service.register", || {
            for spec in &w.tenants {
                svc.register(spec.clone()).expect("valid tenant spec");
            }
        })
        .1;

    let mut acc = DigestAcc::default();
    let mut arrivals = Arrivals::default();
    let mut refused = 0;
    let mut expected_refusals = 0;
    // Per tenant: submissions admitted so far. Together with the tenant's
    // meter this gives its outstanding count without asking the service.
    let mut admitted = vec![0u64; tenants];
    // The admitted submissions in submission order, per round, with
    // tenant-namespaced regions: the stream a bare runtime twin is fed.
    let mut twin_rounds: Vec<Vec<(f64, SecurityLevel, u64)>> = Vec::with_capacity(w.rounds);

    for round in 0..w.rounds {
        arrivals.mark(&svc);
        let allow: Vec<usize> = (0..tenants)
            .map(|t| {
                let done = svc.tenant_report(TenantId(t as u32)).tasks_completed;
                let budget = w.tenants[t].budget.unwrap_or(default_budget);
                admitted_slots(budget, admitted[t] - done, w.per_round)
            })
            .collect();
        let mut stream = Vec::with_capacity(tenants * w.per_round);
        for slot in 0..w.per_round {
            for (t, spec) in w.tenants.iter().enumerate() {
                if slot < allow[t] {
                    let level = if spec.confidential {
                        SecurityLevel::Confidential
                    } else {
                        SecurityLevel::Public
                    };
                    let region = ((t as u64) << 32) | w.region(round, slot);
                    let work = w.work[(round * w.per_round + slot) * tenants + t];
                    stream.push((work, level, region));
                }
            }
        }
        for (total, &now) in admitted.iter_mut().zip(&allow) {
            *total += now as u64;
            expected_refusals += (w.per_round - now) as u64;
        }
        twin_rounds.push(stream);

        let (r, ns) = tr.span("service.submit", || submit_round(w, &mut svc, round));
        refused += r;
        submit_ns += ns;
        match w.mode {
            ServiceMode::Waves { restart_after } => {
                let (report, ns) = tr.span("service.run", || svc.run().expect("devices present"));
                run_ns += ns;
                if round + 1 == restart_after || round + 1 == w.rounds {
                    checks::engine(svc.engine(), &report, &mut failures);
                    counts.absorb(svc.engine(), &report);
                    acc.report(&report, |p| arrivals.submitted_at(p));
                }
                if round + 1 == restart_after {
                    seal_ns += tr.span("service.seal", || svc.seal()).1;
                    restart_ns += tr
                        .span("service.restart", || {
                            svc.restart().expect("valid engine config")
                        })
                        .1;
                    arrivals = Arrivals::default();
                }
            }
            ServiceMode::Stream { steps_per_round } => {
                let span = tr.enter("service.steps");
                for _ in 0..steps_per_round {
                    let t0 = Instant::now();
                    let stepped = svc.step().expect("devices present");
                    service_steps.record(t0.elapsed().as_nanos() as u64);
                    if stepped.is_none() {
                        break;
                    }
                }
                run_ns += tr.exit(span);
            }
        }
    }
    if matches!(w.mode, ServiceMode::Stream { .. }) {
        let span = tr.enter("service.steps");
        loop {
            let t0 = Instant::now();
            let stepped = svc.step().expect("devices present");
            service_steps.record(t0.elapsed().as_nanos() as u64);
            if stepped.is_none() {
                break;
            }
        }
        run_ns += tr.exit(span);
        let report = final_report(svc.engine(), tr, &mut ph);
        checks::engine(svc.engine(), &report, &mut failures);
        counts.absorb(svc.engine(), &report);
        acc.report(&report, |p| arrivals.submitted_at(p));
    }
    tr.exit(rep_span);
    let wall_ns =
        ph.config_ns + register_ns + submit_ns + run_ns + seal_ns + restart_ns + ph.report_ns;
    if matches!(w.mode, ServiceMode::Waves { .. }) {
        // `Service::run` returns the report it built; time a report of the
        // final engine on its own.
        let _ = final_report(svc.engine(), tr, &mut ph);
    }

    acc.offer(w.offered() as u64, refused);
    acc.end_sim();
    checks::service(&svc, counts.placements, expected_refusals, &mut failures);
    let (_, report_ns) = tr.span("service.tenant_report", || {
        for t in 0..tenants {
            black_box(svc.tenant_report(TenantId(t as u32)));
        }
    });

    // The bare twin: the admitted stream, fed round by round to a plain
    // `Runtime` built from the same engine configuration.
    let offsets: Vec<usize> = twin_rounds
        .iter()
        .scan(0, |end, r| {
            *end += r.len();
            Some(*end)
        })
        .collect();
    let twin = Sim::new(
        w.cfg.clone(),
        TaskList::from_stream(twin_rounds.into_iter().flatten()),
        SubmitPath::PerTask,
    );
    // Submission into the engine and analysis are the twin's: inside the
    // service they happen within `run`/`step`.
    let mut steps = StepAcc::default();
    let mut twin_ph = Phases::default();
    run_twin(
        w,
        &twin,
        &offsets,
        Some((&mut *tr, &mut twin_ph, &mut steps)),
    );
    ph = Phases {
        config_ns: ph.config_ns,
        report_ns: ph.report_ns,
        sims: ph.sims,
        ..twin_ph
    };
    let t0 = Instant::now();
    run_twin(w, &twin, &offsets, None);
    let twin_ns = t0.elapsed().as_nanos() as u64;

    let completed = counts.placements as f64;
    let mut values = common_values(&ph, &steps, &counts, run_ns);
    values.extend(drives::graph([(&twin.tasks, twin.path)]));
    values.extend([
        ("placement.flat_ns_per_eval", drives::flat_placement(&twin)),
        ("churn.trace_gen_us", 0.0),
        (
            "service.register_us_per_tenant",
            ratio(register_ns as f64, tenants as f64) / 1e3,
        ),
        (
            "service.submit_ns_per_task",
            ratio(submit_ns as f64, w.offered() as f64),
        ),
        ("service.seal_ms", seal_ns as f64 / 1e6),
        ("service.restart_ms", restart_ns as f64 / 1e6),
        (
            "service.report_ns_per_tenant",
            ratio(report_ns as f64, tenants as f64),
        ),
        ("service.rejections", refused as f64),
        (
            "service.overhead_ratio",
            ratio(wall_ns as f64, twin_ns as f64),
        ),
    ]);
    match w.mode {
        ServiceMode::Waves { .. } => {
            values.push(("service.run_ns_per_task", ratio(run_ns as f64, completed)));
        }
        ServiceMode::Stream { .. } => values.extend([
            ("service.step_us_p50", service_steps.quantile(0.5) / 1e3),
            ("service.step_us_p99", service_steps.quantile(0.99) / 1e3),
        ]),
    }
    TracedRep {
        digest: acc.finish(),
        wall_s: wall_ns as f64 / 1e9,
        values,
        failures,
        steps,
        service_steps,
    }
}

/// Feed `twin.tasks` to a bare runtime in the service's rhythm: a round
/// of submissions, then run to quiescence (waves; with a fresh runtime
/// where the service restarts) or a bounded number of steps (stream).
/// With `traced`, phases get spans and steps are classified; without, the
/// loop carries no bookkeeping and is timed as a whole by the caller.
fn run_twin(
    w: &ServiceWorkload,
    twin: &Sim,
    round_ends: &[usize],
    mut traced: Option<(&mut Tracer, &mut Phases, &mut StepAcc)>,
) {
    let span = traced.as_mut().map(|(tr, ..)| tr.enter("twin"));
    let build = |traced: &mut Option<(&mut Tracer, &mut Phases, &mut StepAcc)>| match traced {
        Some((tr, ph, _)) => start_sim(twin, tr, ph),
        None => twin.build(),
    };
    let mut rt = build(&mut traced);
    let mut start = 0;
    for (round, &end) in round_ends.iter().enumerate() {
        match &mut traced {
            Some((tr, ph, _)) => {
                ph.submit_ns += tr
                    .span("submit", || twin.tasks.submit_range(&mut rt, start..end))
                    .1;
                ph.submitted += (end - start) as u64;
                if round == 0 {
                    analyze(&rt, tr, ph);
                }
            }
            None => twin.tasks.submit_range(&mut rt, start..end),
        }
        start = end;
        let limit = match w.mode {
            ServiceMode::Waves { .. } => usize::MAX,
            ServiceMode::Stream { steps_per_round } if round + 1 < round_ends.len() => {
                steps_per_round
            }
            ServiceMode::Stream { .. } => usize::MAX,
        };
        match &mut traced {
            Some((tr, _, steps)) => {
                let run = tr.enter("engine.run");
                steps.drive(&mut rt, limit);
                tr.exit(run);
            }
            None if limit == usize::MAX => {
                let _ = rt.run().expect("devices present");
            }
            None => {
                for _ in 0..limit {
                    if rt.step().expect("devices present").is_none() {
                        break;
                    }
                }
            }
        }
        if w.mode
            == (ServiceMode::Waves {
                restart_after: round + 1,
            })
        {
            rt = build(&mut traced);
        }
    }
    black_box(&rt);
    if let (Some(span), Some((tr, ..))) = (span, traced) {
        tr.exit(span);
    }
}
