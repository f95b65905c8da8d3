//! The metric tables: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists the same names; the README defines each one.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// How far two runs of the same code at the same seed may differ
    /// (`repeat-check`): a share of the first value, or `None` for the
    /// simulated metrics, which must be bit-identical.
    pub repeat_bound: Option<f64>,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "tasks_per_s",
        unit: "1/s",
        higher_is_better: true,
        repeat_bound: Some(0.10),
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        repeat_bound: Some(0.10),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        repeat_bound: Some(0.05),
    },
    EndToEnd {
        name: "sim_makespan_s",
        unit: "s",
        higher_is_better: false,
        repeat_bound: None,
    },
    EndToEnd {
        name: "sim_energy_j",
        unit: "J",
        higher_is_better: false,
        repeat_bound: None,
    },
    EndToEnd {
        name: "sim_p99_latency_s",
        unit: "s",
        higher_is_better: false,
        repeat_bound: None,
    },
    EndToEnd {
        name: "completed_share",
        unit: "ratio",
        higher_is_better: true,
        repeat_bound: None,
    },
];

/// Per-layer metrics, `(name, unit)`, in the order they are printed.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("graph.build_ns_per_task", "ns"),
    ("graph.drain_ns_per_task", "ns"),
    ("graph.rollback_us", "us"),
    ("graph.edges_per_task", "count"),
    ("config.build_us", "us"),
    ("submit.ns_per_task", "ns"),
    ("analyze.ns_per_task", "ns"),
    ("analyze.diagnostics", "count"),
    ("engine.run_ns_per_task", "ns"),
    ("engine.events_per_task", "count"),
    ("engine.step_place_ns_p50", "ns"),
    ("engine.step_place_ns_p99", "ns"),
    ("engine.step_other_ns_p50", "ns"),
    ("engine.step_other_ns_p99", "ns"),
    ("engine.place_share", "ratio"),
    ("engine.report_us", "us"),
    ("placement.evals_per_task", "count"),
    ("placement.flat_ns_per_eval", "ns"),
    ("security.enclave_tasks", "count"),
    ("security.attestations", "count"),
    ("security.sealed_bytes", "bytes"),
    ("security.seal_time_s", "s"),
    ("energy.bound_relaxations", "count"),
    ("energy.idle_share", "ratio"),
    ("resilience.checkpoints", "count"),
    ("resilience.rollbacks", "count"),
    ("resilience.checkpoint_bytes", "bytes"),
    ("resilience.wasted_work_s", "s"),
    ("resilience.useful_work_ratio", "ratio"),
    ("resilience.rollback_step_us_p50", "us"),
    ("resilience.ckpt_step_us_p50", "us"),
    ("resilience.rollback_share", "ratio"),
    ("resilience.ckpt_share", "ratio"),
    ("churn.crashes", "count"),
    ("churn.migrations", "count"),
    ("churn.deferred_placements", "count"),
    ("churn.trace_gen_us", "us"),
    ("service.register_us_per_tenant", "us"),
    ("service.submit_ns_per_task", "ns"),
    ("service.run_ns_per_task", "ns"),
    ("service.step_us_p50", "us"),
    ("service.step_us_p99", "us"),
    ("service.seal_ms", "ms"),
    ("service.restart_ms", "ms"),
    ("service.report_ns_per_tenant", "ns"),
    ("service.rejections", "count"),
    ("service.overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer values that are exact per seed and pinned in `golden.json`.
pub const EXACT_LAYERS: [&str; 14] = [
    "graph.edges_per_task",
    "engine.events_per_task",
    "placement.evals_per_task",
    "security.enclave_tasks",
    "security.attestations",
    "security.sealed_bytes",
    "energy.bound_relaxations",
    "resilience.checkpoints",
    "resilience.rollbacks",
    "resilience.checkpoint_bytes",
    "churn.crashes",
    "churn.migrations",
    "churn.deferred_placements",
    "service.rejections",
];

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Linear-interpolation quantile of sorted `values`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}
