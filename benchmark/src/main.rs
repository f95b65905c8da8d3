//! `legato-benchmark`: seven pinned workloads through the public API of
//! `legato-core`/`legato-runtime`, host tasks per second end to end, and
//! an outside-in layer trace. See `benchmark/README.md`.
//!
//! Two ways in. The measuring mode runs one workload in this process:
//!
//! ```text
//! legato-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints every metric by name, then one JSON object as its last
//! line. The drivers (`run`, `repeat-check`) spawn that mode once per
//! (round, workload), one child at a time, so set-up time and peak memory
//! are per workload; `bless` rewrites the golden file.

#![forbid(unsafe_code)]
// The benchmark measures host time: this crate and `legato-bench` are the
// only places where reading `Instant::now` is legitimate (clippy.toml).
#![allow(clippy::disallowed_methods)]

mod checks;
mod drives;
mod golden;
mod inputs;
mod json;
mod metrics;
mod rep;
mod trace;
mod traced;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use golden::Golden;
use json::Json;
use metrics::{median, quantile, END_TO_END, EXACT_LAYERS, PER_LAYER};
use trace::{Hist, Tracer};
use traced::Values;
use workloads::NAMES;

const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  legato-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--setups <k>]
  legato-benchmark run [--seed <n>] [--rounds <r>] [--seconds <s>] [--trace] [--quick]
  legato-benchmark repeat-check [--seed <n>] [--rounds <r>] [--seconds <s>]
  legato-benchmark bless
run from the repository root";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("repeat-check") => cmd_repeat_check(&args[1..]),
        Some("bless") => cmd_bless(),
        Some(flag) if flag.starts_with("--") => cmd_measure(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// The value following `--name`, parsed.
fn arg<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value\n{USAGE}")),
    }
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    quick: bool,
    setups: usize,
}

/// What the measuring mode reports: the last-line JSON object's fields.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    problems: Vec<String>,
}

fn cmd_measure(args: &[String]) -> Result<bool, String> {
    let opts = Opts {
        workload: arg(args, "--workload")?.ok_or(USAGE)?,
        seed: arg(args, "--seed")?.unwrap_or(42),
        seconds: arg(args, "--seconds")?.unwrap_or(8.0),
        quick: flag(args, "--quick"),
        setups: arg(args, "--setups")?.unwrap_or(5),
    };
    let trace: u8 = arg(args, "--trace")?.unwrap_or(0);
    let outcome = if trace == 0 {
        untraced(&opts)?
    } else {
        traced(&opts)?
    };
    for p in &outcome.problems {
        println!("FAILED {p}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name} = {value} {unit}");
    }
    let correct = outcome.problems.is_empty();
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|&(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ]);
    println!("{}", line.compact());
    Ok(correct)
}

fn setup(o: &Opts) -> Result<workloads::Workload, String> {
    workloads::setup(&o.workload, o.seed, o.quick)
        .ok_or_else(|| format!("unknown workload `{}`; one of {NAMES:?}", o.workload))
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The problems every mode looks for in a run's simulated results: lost
/// work, and at the pinned seeds a mismatch with `golden.json` in any of
/// the given `(section, values)`.
fn result_problems(
    o: &Opts,
    reference: &rep::Digest,
    sections: &[(&str, &Values)],
) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    if reference.unaccounted() > 0 {
        problems.push(format!(
            "{} offered tasks neither completed correctly nor were refused by admission",
            reference.unaccounted()
        ));
    }
    if !o.quick && golden::SEEDS.contains(&o.seed) {
        let golden = Golden::load()?;
        for (section, values) in sections {
            problems.extend(golden.check(&o.workload, o.seed, section, values));
        }
    }
    Ok(problems)
}

/// `--trace 0`: set up `setups` times (each a full input generation plus
/// one untimed warm-up rep), then timed reps for `seconds`.
fn untraced(o: &Opts) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..o.setups.max(1) {
        // One copy of the inputs at a time, or peak memory would count two.
        drop(state.take());
        let t0 = Instant::now();
        let w = setup(o)?;
        let (digest, _) = rep::rep(&w);
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some((w, digest));
    }
    let (w, reference) = state.expect("at least one set-up");

    let mut problems = Vec::new();
    let mut rates = Vec::new();
    let min_reps = if o.quick { 1 } else { 3 };
    let t0 = Instant::now();
    while rates.len() < min_reps || (!o.quick && t0.elapsed().as_secs_f64() < o.seconds) {
        let (digest, wall) = rep::rep(&w);
        if !digest.same_bits(&reference) {
            problems.push(format!(
                "rep {} disagrees with the warm-up rep: {digest:?} vs {reference:?}",
                rates.len()
            ));
        }
        rates.push(digest.completed as f64 / wall);
    }
    let e2e = golden::exact_e2e(&reference);
    problems.extend(result_problems(o, &reference, &[("e2e", &e2e)])?);

    let reps = rates.len() as u64;
    // The fastest rep, i.e. min-of-N time, the ROADMAP's convention for
    // wall-clock rows. Interference on the box only ever slows a rep, and
    // over repeated runs the best rep moved about half as much as the
    // median (README, "Noise").
    rates.sort_by(f64::total_cmp);
    let tasks_per_s = rates[rates.len() - 1];
    println!(
        "tasks_per_s reps: n = {reps}, min {}, q1 {}, median {}, q3 {}, max {tasks_per_s}",
        rates[0],
        quantile(&rates, 0.25),
        quantile(&rates, 0.5),
        quantile(&rates, 0.75)
    );
    let values = [
        tasks_per_s,
        median(&mut setup_s),
        peak_rss_mb()?,
        reference.makespan,
        reference.energy,
        reference.p99,
        reference.completed_share(),
    ];
    Ok(Outcome {
        attempted: reference.offered * reps,
        failed: reference.unaccounted() * reps,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        problems,
    })
}

/// `--trace 1`: one set-up, a few untraced reps for the overhead ratio,
/// then traced reps until `seconds` have passed since the start.
fn traced(o: &Opts) -> Result<Outcome, String> {
    let started = Instant::now();
    let w = setup(o)?;
    let (reference, _) = rep::rep(&w);
    let mut untraced_s: Vec<f64> = (0..if o.quick { 1 } else { 3 })
        .map(|_| rep::rep(&w).1)
        .collect();

    let mut tr = Tracer::new();
    let mut reps = Vec::new();
    let min_reps = if o.quick { 1 } else { 2 };
    while reps.len() < min_reps || (!o.quick && started.elapsed().as_secs_f64() < o.seconds) {
        tr.rep = reps.len() as u32;
        reps.push(traced::rep(&w, &mut tr));
    }

    let mut problems = Vec::new();
    for (i, r) in reps.iter().enumerate() {
        if !r.digest.same_bits(&reference) {
            problems.push(format!(
                "traced rep {i} disagrees with the untraced rep: {:?} vs {reference:?}",
                r.digest
            ));
        }
        problems.extend(r.failures.iter().map(|f| format!("traced rep {i}: {f}")));
    }

    let mut traced_s: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let overhead = median(&mut traced_s) / median(&mut untraced_s);
    let layers = layer_values(&reps, overhead, &mut problems);
    let exact = exact_layers(&layers);
    let e2e = golden::exact_e2e(&reference);
    problems.extend(result_problems(
        o,
        &reference,
        &[("e2e", &e2e), ("layers", &exact)],
    )?);

    write_trace(o, &tr, &reps)?;
    Ok(Outcome {
        attempted: reference.offered * reps.len() as u64,
        failed: reference.unaccounted() * reps.len() as u64,
        metrics: PER_LAYER
            .iter()
            .zip(&layers)
            .map(|(&(name, unit), &(_, v))| (name, v, unit))
            .collect(),
        problems,
    })
}

/// Every per-layer metric over a set of traced reps. Timings: the median
/// over reps. Exact values: the same in every rep, or a problem. A
/// metric no rep reports does not apply to the workload and reads 0.
fn layer_values(reps: &[traced::TracedRep], overhead: f64, problems: &mut Vec<String>) -> Values {
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let mut across: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect();
            if EXACT_LAYERS.contains(&name)
                && across.iter().any(|v| v.to_bits() != across[0].to_bits())
            {
                problems.push(format!("{name} differs between traced reps: {across:?}"));
            }
            let value = match name {
                "trace.overhead_ratio" => overhead,
                _ if across.is_empty() => 0.0,
                _ => median(&mut across),
            };
            (name, value)
        })
        .collect()
}

fn exact_layers(layers: &Values) -> Values {
    layers
        .iter()
        .copied()
        .filter(|(n, _)| EXACT_LAYERS.contains(n))
        .collect()
}

fn write_out(file: &str, json: &Json) -> Result<(), String> {
    let path = format!("{OUT_DIR}/{file}");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, json.pretty()))
        .map_err(|e| format!("{path}: {e}"))
}

/// The spans of every traced rep and the step histograms, merged over
/// reps, as `benchmark/out/trace-<workload>.json`.
fn write_trace(o: &Opts, tr: &Tracer, reps: &[traced::TracedRep]) -> Result<(), String> {
    let mut steps = traced::StepAcc::default();
    let mut service_steps = Hist::default();
    for r in reps {
        steps.merge(&r.steps);
        service_steps.merge(&r.service_steps);
    }
    let json = Json::obj([
        ("workload", Json::str(&o.workload)),
        ("seed", Json::Num(o.seed as f64)),
        ("traced_reps", Json::Num(reps.len() as f64)),
        (
            "engine_step_ns",
            Json::obj(steps.classes().map(|(name, h)| (name, h.to_json()))),
        ),
        ("service_step_ns", service_steps.to_json()),
        ("spans", tr.to_json()),
    ]);
    write_out(&format!("trace-{}.json", o.workload), &json)
}

/// Settings of a driver command.
struct Plan {
    seed: u64,
    rounds: usize,
    seconds: f64,
    quick: bool,
}

impl Plan {
    fn parse(args: &[String]) -> Result<Plan, String> {
        let quick = flag(args, "--quick");
        Ok(Plan {
            seed: arg(args, "--seed")?.unwrap_or(42),
            rounds: arg(args, "--rounds")?.unwrap_or(if quick { 1 } else { 5 }),
            // Per child: a traced child also runs untraced reps and the
            // isolated drives inside its budget.
            seconds: arg(args, "--seconds")?.unwrap_or(if flag(args, "--trace") {
                8.0
            } else {
                2.0
            }),
            quick,
        })
    }
}

/// Run the measuring mode in a child process; returns its last-line JSON
/// object and whether it exited with success.
fn child(p: &Plan, workload: &str, trace: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--setups", "1"])
        .args(["--seed", &p.seed.to_string()])
        .args(["--seconds", &p.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if p.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("FAILED")) {
        println!("{workload}: {line}");
    }
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload}: the child printed nothing"))?;
    let json = Json::parse(last).map_err(|e| format!("{workload}: {e}"))?;
    let correct = json.get("correct").and_then(Json::as_bool) == Some(true);
    Ok((json, out.status.success() && correct))
}

fn metric(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("a child reported no `{name}`"))
}

/// A set's result: per workload, one value per `END_TO_END` metric.
type Set = Vec<(&'static str, Vec<f64>)>;

/// One full untraced set: `rounds` rounds, workloads interleaved
/// round-robin so a machine-wide drift lands on all of them alike. Per
/// workload: medians over rounds of the timed metrics, the maximum of
/// peak memory, and the simulated metrics, which must agree across
/// rounds. Returns `(workload, [value per END_TO_END metric])` and
/// whether every child was correct.
fn run_set(p: &Plan) -> Result<(Set, bool), String> {
    let mut ok = true;
    let mut per_workload: Vec<Vec<Json>> = vec![Vec::new(); NAMES.len()];
    for round in 0..p.rounds {
        for (i, name) in NAMES.iter().enumerate() {
            let (json, good) = child(p, name, false)?;
            ok &= good;
            eprintln!(
                "round {}/{} {name}: {:.0} tasks/s",
                round + 1,
                p.rounds,
                metric(&json, "tasks_per_s")?
            );
            per_workload[i].push(json);
        }
    }
    let mut set = Vec::new();
    for (name, results) in NAMES.iter().zip(&per_workload) {
        let mut values = Vec::new();
        for m in &END_TO_END {
            let mut across = results
                .iter()
                .map(|r| metric(r, m.name))
                .collect::<Result<Vec<f64>, _>>()?;
            values.push(match m.name {
                "peak_rss_mb" => across.iter().copied().fold(0.0, f64::max),
                _ if m.repeat_bound.is_some() => median(&mut across),
                _ => {
                    if across.iter().any(|v| v.to_bits() != across[0].to_bits()) {
                        println!(
                            "FAILED {name}: {} differs between rounds: {across:?}",
                            m.name
                        );
                        ok = false;
                    }
                    across[0]
                }
            });
        }
        set.push((*name, values));
    }
    Ok((set, ok))
}

fn set_json(set: &Set) -> Json {
    Json::obj(set.iter().map(|(name, values)| {
        (
            *name,
            Json::obj(END_TO_END.iter().zip(values).map(|(m, &v)| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
                )
            })),
        )
    }))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let p = Plan::parse(args)?;
    if flag(args, "--trace") {
        let mut ok = true;
        let mut all = Vec::new();
        for name in NAMES {
            let (json, good) = child(&p, name, true)?;
            ok &= good;
            println!("{name}");
            for (metric, unit) in PER_LAYER {
                println!("  {metric} = {} {unit}", self::metric(&json, metric)?);
            }
            all.push((name, json.get("metrics").cloned().unwrap_or(Json::Null)));
        }
        write_out("results-trace.json", &Json::obj(all))?;
        return Ok(ok);
    }
    let (set, ok) = run_set(&p)?;
    for (name, values) in &set {
        println!("{name}");
        for (m, v) in END_TO_END.iter().zip(values) {
            println!("  {} = {v} {}", m.name, m.unit);
        }
    }
    write_out(
        "results.json",
        &Json::obj([
            ("seed", Json::Num(p.seed as f64)),
            ("rounds", Json::Num(p.rounds as f64)),
            ("quick", Json::Bool(p.quick)),
            ("workloads", set_json(&set)),
        ]),
    )?;
    Ok(ok)
}

/// Two full untraced sets back to back; every (workload, metric) pair
/// must agree within the metric's bound, the simulated ones exactly.
fn cmd_repeat_check(args: &[String]) -> Result<bool, String> {
    let p = Plan::parse(args)?;
    let (first, ok_first) = run_set(&p)?;
    let (second, ok_second) = run_set(&p)?;
    let mut ok = ok_first && ok_second;
    println!("workload metric first second worse_by bound verdict");
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for ((m, &a), &b) in END_TO_END.iter().zip(a).zip(b) {
            // How much worse the second set reads, as a share of the first.
            let worse_by = if m.higher_is_better { a - b } else { b - a } / a;
            let (bound, within) = match m.repeat_bound {
                Some(bound) => (bound.to_string(), worse_by.abs() <= bound),
                None => ("exact".to_string(), a.to_bits() == b.to_bits()),
            };
            ok &= within;
            println!(
                "{name} {} {a} {b} {worse_by:+.4} {bound} {}",
                m.name,
                if within { "ok" } else { "OUTSIDE" }
            );
        }
    }
    Ok(ok)
}

/// Rewrite `benchmark/golden.json` from the code as it is: one untraced
/// and one traced rep per workload at each pinned seed.
fn cmd_bless() -> Result<bool, String> {
    let mut ok = true;
    let mut workloads = Vec::new();
    for name in NAMES {
        let mut seeds = Vec::new();
        for seed in golden::SEEDS {
            let w = workloads::setup(name, seed, false).expect("known workload");
            let (digest, _) = rep::rep(&w);
            let rep = traced::rep(&w, &mut Tracer::new());
            let mut problems = rep.failures.clone();
            if !rep.digest.same_bits(&digest) {
                problems.push(format!("traced {:?}, untraced {digest:?}", rep.digest));
            }
            let exact = exact_layers(&layer_values(&[rep], 0.0, &mut problems));
            for p in &problems {
                println!("FAILED {name} seed {seed}: {p}");
                ok = false;
            }
            seeds.push((
                seed.to_string(),
                Json::obj([
                    ("e2e", golden::section(&golden::exact_e2e(&digest))),
                    ("layers", golden::section(&exact)),
                ]),
            ));
            eprintln!("blessed {name} at seed {seed}");
        }
        workloads.push((name, Json::obj(seeds)));
    }
    if ok {
        std::fs::write(golden::PATH, Json::obj(workloads).pretty())
            .map_err(|e| format!("{}: {e} (run from the repository root)", golden::PATH))?;
    }
    Ok(ok)
}
