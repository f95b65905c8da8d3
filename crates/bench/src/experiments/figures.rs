//! The printed figures: one [`Figure`] per paper artefact, each rendering
//! the page `legato-exp` prints — its tables laid out by one
//! template. Seeds are the constants each figure has always used, so a
//! figure's text is fixed.

use legato_core::units::{Bytes, Seconds, Volt, Watt};
use legato_fpga::{FpgaPlatform, VoltageRegion};
use legato_fti::fti::Strategy;
use legato_runtime::lowvolt::undervolt_ablation;

use super::{fig5, fig6, goals, heats, mirror, ml, secure};
use crate::Table;

/// One printable figure of the experiment index (DESIGN.md §3).
pub struct Figure {
    /// Command-line name: `legato-exp <name>`.
    pub name: &'static str,
    /// One line saying what the figure shows (`legato-exp list`).
    pub about: &'static str,
    /// The figure's text, exactly as `legato-exp <name>` prints it.
    pub render: fn() -> String,
}

/// Every figure, in DESIGN.md §3 order — the order `legato-exp all`
/// prints them in.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig5",
        about: "Fig. 5: FPGA BRAM undervolting on four platforms",
        render: undervolting,
    },
    Figure {
        name: "fig6",
        about: "Fig. 6: Heat2D checkpoint/restart, weak scaling, and the §IV micro numbers",
        render: checkpoint,
    },
    Figure {
        name: "fig7",
        about: "Fig. 7: HEATS energy-performance trade-off",
        render: heats_tradeoff,
    },
    Figure {
        name: "fig8",
        about: "Fig. 8: Smart Mirror, workstation vs edge server",
        render: smart_mirror,
    },
    Figure {
        name: "secure",
        about: "E9: secure task execution cost, plain vs software vs hardware crypto",
        render: secure_cost,
    },
    Figure {
        name: "ml",
        about: "E8: ML inference accuracy with weights in undervolted BRAM",
        render: ml_accuracy,
    },
    Figure {
        name: "goals",
        about: "E7: project goals on the integrated stack",
        render: stack_goals,
    },
];

/// The figures `legato-exp <arg>` prints: all of them for `all`, else the
/// one named `arg` (`None` when no figure has that name).
#[must_use]
pub fn select(arg: &str) -> Option<&'static [Figure]> {
    match FIGURES.iter().position(|f| f.name == arg) {
        Some(i) => Some(&FIGURES[i..=i]),
        None => (arg == "all").then_some(FIGURES),
    }
}

/// Fig. 5: regions, power saving and fault rates of four FPGAs under VCCBRAM underscaling.
fn undervolting() -> String {
    let sweeps = fig5::run(10.0, 2024);

    // Per-platform landmark table (the §III-B comparison).
    let mut summary = Table::new(vec![
        "platform",
        "family",
        "Vnom",
        "Vmin",
        "Vcrash",
        "faults/Mbit@crash",
        "power saving@crash",
    ]);
    for s in &sweeps {
        summary.row(vec![
            s.platform.name.clone(),
            s.platform.family.clone(),
            format!("{:.2}", s.platform.v_nominal.0),
            format!("{:.3}", s.summary.v_min.0),
            format!("{:.3}", s.summary.v_crash.0),
            format!("{:.0}", s.summary.rate_at_crash.0),
            format!("{:.1}%", s.summary.saving_at_crash * 100.0),
        ]);
    }

    // The VC707 voltage series (the plotted curve of Fig. 5).
    let mut series = Table::new(vec![
        "VCCBRAM",
        "region",
        "power",
        "saving",
        "faults/Mbit (observed)",
        "faults/Mbit (model)",
    ]);
    for p in fig5::series(&sweeps[0], 4) {
        series.row(vec![
            format!("{:.3} V", p.vccbram.0),
            p.region.to_string(),
            format!("{:.3} W", p.power.0),
            format!("{:.1}%", p.power_saving * 100.0),
            format!("{:.2}", p.observed_rate.0),
            format!("{:.2}", p.expected_rate.0),
        ]);
    }
    format!(
        "== Fig. 5: FPGA undervolting characterization ==\n\n{summary}\n\
         VC707 series (power + observed fault rate vs voltage):\n\n{series}\n\
         paper: three regions on all platforms; fault rate exponential up to \
         652/254/60/153 faults/Mbit (VC707/KC705-A/KC705-B/ZC702); >90% power \
         saving at Vcrash (VC707).\n"
    )
}

/// Fig. 6: Heat2D checkpoint/restart under weak scaling, then the §IV micro numbers.
fn checkpoint() -> String {
    let mut panels = String::new();
    for (label, per_process) in [
        ("16 Gb/process", Bytes::gib(2)),
        ("32 Gb/process", Bytes::gib(4)),
    ] {
        let rows = fig6::run(&[1, 4, 8, 16], per_process);
        let mut t = Table::new(vec![
            "nodes",
            "total data",
            "ckpt initial",
            "ckpt async",
            "recover initial",
            "recover async",
        ]);
        for nodes in [1usize, 4, 8, 16] {
            let [initial, fast] = [Strategy::Initial, Strategy::Async].map(|s| {
                let row = rows.iter().find(|r| r.nodes == nodes && r.strategy == s);
                row.expect("row exists")
            });
            t.row(vec![
                nodes.to_string(),
                initial.total.to_string(),
                format!("{:.2} s", initial.ckpt.0),
                format!("{:.2} s", fast.ckpt.0),
                format!("{:.2} s", initial.recover.0),
                format!("{:.2} s", fast.recover.0),
            ]);
        }
        panels += &format!("panel: {label} (4 processes/node, node-local NVMe)\n\n{t}\n");
    }

    let m = fig6::micro(Bytes::gib(2));
    let mut micro = Table::new(vec!["metric", "initial", "async", "ratio"]);
    micro.row(vec![
        "checkpoint".to_string(),
        format!("{:.2} s", m.ckpt_initial.0),
        format!("{:.2} s", m.ckpt_async.0),
        format!("{:.2}x", m.ckpt_speedup),
    ]);
    micro.row(vec![
        "recover".to_string(),
        format!("{:.2} s", m.rec_initial.0),
        format!("{:.2} s", m.rec_async.0),
        format!("{:.2}x", m.rec_speedup),
    ]);
    format!(
        "== Fig. 6: Heat2D checkpoint/restart, weak scaling ==\n\n{panels}\
         paper: overhead flat in node count (local NVMe); async reduces \
         checkpoint 12.05x and recovery 5.13x.\n\n\
         == §IV micro: initial vs async on 16 Gb of device memory ==\n\n{micro}\n\
         sustainable-MTBF factor at 10% overhead budget: {:.1}x (paper: ~7x)\n",
        m.mtbf_factor
    )
}

/// Fig. 7: the HEATS customer energy/performance trade-off on a heterogeneous cluster.
fn heats_tradeoff() -> String {
    let points = heats::tradeoff_sweep(&[0.0, 0.25, 0.5, 0.75, 1.0], 24, 2024);
    let mut t = Table::new(vec![
        "weight (energy)",
        "mean completion",
        "makespan",
        "total energy",
        "low-power share",
        "migrations",
    ]);
    for p in &points {
        t.row(vec![
            format!("{:.2}", p.weight),
            format!("{:.1} s", p.mean_completion.0),
            format!("{:.1} s", p.makespan.0),
            format!("{:.0} J", p.energy.0),
            format!("{:.0}%", p.low_power_share * 100.0),
            p.migrations.to_string(),
        ]);
    }
    let perf = &points[0];
    let green = points.last().expect("non-empty sweep");
    format!(
        "== Fig. 7 / E5: HEATS energy-performance trade-off ==\n\n\
         cluster: 4x high-perf x86 + 8x low-power ARM + 2x GPU + 2x FPGA, \
         24 mixed tasks\n\n{t}\n\
         energy saving at w=1 vs w=0: {:.1}% (at {:.1}x the mean completion time)\n\
         paper (HEATS, PDP'19): customers trade performance against energy; \
         placements shift to efficient hosts as the weight rises.\n",
        (1.0 - green.energy.0 / perf.energy.0) * 100.0,
        green.mean_completion.0 / perf.mean_completion.0
    )
}

/// Fig. 8/9 (§VI): the 2×GTX1080 workstation vs the modular edge-server compositions.
fn smart_mirror() -> String {
    let rows = mirror::run(2024);
    let mut t = Table::new(vec![
        "configuration",
        "FPS",
        "power",
        "energy/frame",
        "tracking quality",
        "identities (4 actors)",
    ]);
    for r in &rows {
        t.row(vec![
            r.config.clone(),
            format!("{:.1}", r.fps),
            format!("{:.0} W", r.power.0),
            format!("{:.1} J", r.energy_per_frame.0),
            format!("{:.0}%", r.tracking_quality * 100.0),
            r.identities.to_string(),
        ]);
    }
    let ws = &rows[0];
    let best = rows[1..]
        .iter()
        .filter(|r| r.fps >= 10.0)
        .min_by(|a, b| a.power.partial_cmp(&b.power).expect("finite"))
        .expect("an edge config meets 10 FPS");
    format!(
        "== §VI / E6: Smart Mirror — workstation vs edge server ==\n\n{t}\n\
         power reduction (best edge meeting 10 FPS) vs workstation: {:.1}x at {:.1} FPS ({})\n\
         paper: 21 FPS @ 400 W today; target 10 FPS @ 50 W on the edge server \
         with specialized accelerators.\n",
        ws.power / best.power,
        best.fps,
        best.config
    )
}

/// E9: plain vs software-crypto vs hardware-accelerated enclave execution of a YOLO stage.
fn secure_cost() -> String {
    let rows = secure::run(Seconds(0.044), Watt(180.0));
    let mut t = Table::new(vec![
        "mode",
        "total time",
        "crypto time",
        "transitions",
        "FPS",
        "energy",
        "overhead",
    ]);
    for r in &rows {
        t.row(vec![
            format!("{:?}", r.mode),
            format!("{:.1} ms", r.cost.total_time.0 * 1e3),
            format!("{:.1} ms", r.cost.crypto_time.0 * 1e3),
            format!("{:.2} ms", r.cost.transition_time.0 * 1e3),
            format!("{:.1}", r.fps),
            format!("{:.2} J", r.cost.energy.0),
            format!("{:.1}%", r.cost.overhead * 100.0),
        ]);
    }
    format!(
        "== E9: secure task execution cost (YOLO stage, full-HD frame) ==\n\n{t}\n\
         hardware crypto support reduces the security overhead {:.1}x \
         (paper §I: leverage SGX/TrustZone to accelerate software-based \
         security).\n",
        secure::hardware_benefit(&rows)
    )
}

/// E8 (§III-C): ML inference accuracy with weights in undervolted BRAM.
fn ml_accuracy() -> String {
    let platform = FpgaPlatform::vc707();
    let voltages = ml::standard_voltages(&platform);
    let points = ml::run(platform, &voltages, ml::standard_exposure(), 2024);
    let mut t = Table::new(vec![
        "VCCBRAM",
        "region",
        "power saving",
        "weight bit errors",
        "accuracy",
    ]);
    for p in &points {
        t.row(vec![
            format!("{:.3} V", p.vccbram.0),
            p.region.to_string(),
            format!("{:.1}%", p.power_saving * 100.0),
            p.weight_bit_errors.to_string(),
            if p.region == VoltageRegion::Crash {
                "n/a (crashed)".to_string()
            } else {
                format!("{:.1}%", p.accuracy * 100.0)
            },
        ]);
    }
    format!(
        "== E8 / §III-C: ML accuracy under BRAM undervolting (VC707) ==\n\n{t}\n\
         paper: \"due to inherent resilience of ML models, aggressive \
         undervolting can lead to significant power saving even below the \
         voltage guardband region.\"\n"
    )
}

/// E7: energy-aware scheduling, selective replication, checkpoint volume, low-voltage FPGA.
fn stack_goals() -> String {
    let rows = goals::policy_comparison(2024);
    let mut policies = Table::new(vec!["policy", "makespan", "busy energy"]);
    for r in &rows {
        policies.row(vec![
            r.policy.clone(),
            format!("{:.3} s", r.makespan.0),
            format!("{:.1} J", r.energy.0),
        ]);
    }
    let saving = 1.0 - rows.last().expect("rows").energy.0 / rows[0].energy.0;

    let rows = goals::reliability_comparison(0.08, 40);
    let mut replication = Table::new(vec![
        "strategy",
        "critical tasks correct",
        "all tasks correct",
        "mean energy",
        "mean makespan",
    ]);
    for r in &rows {
        replication.row(vec![
            r.strategy.clone(),
            format!("{:.0}%", r.critical_correct * 100.0),
            format!("{:.0}%", r.all_correct * 100.0),
            format!("{:.1} J", r.energy.0),
            format!("{:.3} s", r.makespan.0),
        ]);
    }
    let (none, selective, full) = (&rows[0], &rows[1], &rows[2]);

    let v = goals::ckpt_volume();
    let mut volume = Table::new(vec!["checkpointer", "volume"]);
    volume.row(vec!["full memory".to_string(), v.full.to_string()]);
    volume.row(vec![
        "task-declared (live set)".to_string(),
        v.declared.to_string(),
    ]);

    let platform = FpgaPlatform::vc707();
    let span = platform.v_min.0 - platform.v_crash.0;
    let voltages = [
        Volt(1.0),
        Volt(platform.v_min.0 + 0.01),
        Volt(platform.v_min.0 - 0.3 * span),
        Volt(platform.v_min.0 - 0.5 * span),
        Volt(platform.v_min.0 - 0.7 * span),
    ];
    let mut lowvolt = Table::new(vec![
        "VCCBRAM",
        "region",
        "fpga power saving",
        "task fault prob",
        "correct (no repl.)",
        "correct (triplicated)",
        "repl. energy factor",
    ]);
    for r in undervolt_ablation(&platform, &voltages, 6, 25) {
        lowvolt.row(vec![
            format!("{:.3} V", r.vccbram.0),
            r.region.to_string(),
            format!("{:.0}%", r.power_saving * 100.0),
            format!("{:.2}", r.fault_probability),
            format!("{:.0}%", r.unprotected_correct * 100.0),
            format!("{:.0}%", r.replicated_correct * 100.0),
            format!("{:.1}x", r.replication_energy_factor),
        ]);
    }
    format!(
        "== E7: project goals on the integrated stack ==\n\n\
         (a) energy-aware task scheduling (6-stage, 8-wide DAG):\n\n{policies}\n\
         energy policy saves {:.0}% busy energy vs performance policy\n\n\
         (b) selective replication under GPU silent-data-corruption (p=0.08/exec, 40 trials):\n\n\
         {replication}\n\
         selective replication lifts critical-task correctness {:.0}% -> {:.0}% at {:.0}% of \
         full-triplication energy\n\n\
         (c) task-declared checkpoint volume (fan-out/reduce, 16 workers):\n\n{volume}\n\
         volume reduction: {:.1}x\n\n\
         (d) task-based low-voltage OmpSs@FPGA (paper §III-C ongoing work):\n\n{lowvolt}\n\
         undervolted FPGA + selective replication: spend part of the power \
         saving on replicas to keep results trustworthy (the paper's planned \
         undervolting/stack integration).\n\n\
         paper goals: 10x energy, 5x reliability, checkpointing only data \
         declared at task entry (§I, §VII).\n",
        saving * 100.0,
        none.critical_correct * 100.0,
        selective.critical_correct * 100.0,
        selective.energy.0 / full.energy.0 * 100.0,
        v.factor
    )
}
