//! Isolated drives: one layer at a time, called through its public
//! functions on the workload's own inputs, with no engine around it.

use std::hint::black_box;
use std::time::Instant;

use legato_core::units::Seconds;
use legato_runtime::scheduler::device_estimates_into;
use legato_runtime::Scheduler;

use crate::inputs::{SubmitPath, TaskList};
use crate::metrics::median;
use crate::traced::Values;
use crate::workloads::Sim;

fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// `core::graph` on its own: build the bare `TaskGraph` of every list,
/// drain it (`try_claim` + `complete_into` in ready order), and roll the
/// first list's graph back to its half-done frontier (median of 20).
pub fn graph<'a>(lists: impl IntoIterator<Item = (&'a TaskList, SubmitPath)>) -> Values {
    let (mut tasks, mut edges, mut build_ns, mut drain_ns) = (0.0, 0.0, 0.0, 0.0);
    let mut rollback_us = None;
    for (list, path) in lists {
        let t0 = Instant::now();
        let mut g = list.graph(path);
        build_ns += ns_since(t0);
        tasks += g.len() as f64;
        edges += g.edge_count() as f64;

        // Stop half-way on a second copy first: a frontier reached in
        // ready order is closed under dependences.
        if rollback_us.is_none() {
            let mut half = list.graph(path);
            let mut released = Vec::new();
            let mut frontier = half.ready();
            'drain: while !frontier.is_empty() {
                for &t in &frontier {
                    if half.completed_count() * 2 >= half.len() {
                        break 'drain;
                    }
                    half.complete_into(t, &mut released).expect("ready task");
                }
                frontier = std::mem::take(&mut released);
            }
            let done = half.completed();
            let mut times: Vec<f64> = (0..20)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(half.rollback(&done).expect("closed frontier"));
                    ns_since(t0) / 1e3
                })
                .collect();
            rollback_us = Some(median(&mut times));
        }

        let mut released = Vec::new();
        let mut frontier = g.ready();
        let t0 = Instant::now();
        while !frontier.is_empty() {
            for &t in &frontier {
                black_box(g.try_claim(t).expect("known task"));
                g.complete_into(t, &mut released).expect("claimed task");
            }
            std::mem::swap(&mut frontier, &mut released);
            released.clear();
        }
        drain_ns += ns_since(t0);
        assert!(g.is_complete(), "ready-order drain completes the graph");
    }
    vec![
        ("graph.build_ns_per_task", build_ns / tasks),
        ("graph.drain_ns_per_task", drain_ns / tasks),
        ("graph.rollback_us", rollback_us.unwrap_or(0.0)),
        ("graph.edges_per_task", edges / tasks),
    ]
}

/// The flat placement path on its own: `device_estimates_into` +
/// `Scheduler::select_k` over every device of the simulation's fleet, for
/// 1000 tasks sampled evenly from its stream. Nanoseconds per evaluation.
pub fn flat_placement(sim: &Sim) -> f64 {
    const SAMPLES: usize = 1000;
    let rt = sim.build();
    let policy = rt.policy();
    let mut estimates = Vec::new();
    let mut pick = [0usize; 1];
    let t0 = Instant::now();
    for s in 0..SAMPLES {
        let i = s * sim.tasks.len() / SAMPLES;
        device_estimates_into(
            rt.devices(),
            sim.tasks.work(i),
            sim.tasks.kind(i),
            Seconds::ZERO,
            &mut estimates,
        );
        black_box(policy.select_k(&estimates, &mut pick));
        black_box(pick);
    }
    ns_since(t0) / (SAMPLES * rt.devices().len()) as f64
}

/// Generating one simulation's churn trace, in microseconds (mean over
/// the simulations that have one; 0 when none does).
pub fn churn_trace(sims: &[Sim]) -> f64 {
    let args: Vec<_> = sims.iter().filter_map(|s| s.churn.as_ref()).collect();
    if args.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    for a in &args {
        black_box(a.trace());
    }
    ns_since(t0) / 1e3 / args.len() as f64
}
