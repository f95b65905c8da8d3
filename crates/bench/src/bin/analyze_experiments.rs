//! CI gate: run the static analyzer over every entry of
//! [`RECIPES`] — the exact runtimes the sweeps run, each under its own
//! real pillar configuration — and refuse the build if any of them
//! carries an analysis *error* (a race, an illegal confidential flow, an
//! infeasible placement, an unclosed checkpoint frontier). One human-readable report per experiment plus
//! a machine-readable `summary.json` land in the output directory
//! (first CLI argument, default `analysis-reports/`), which CI uploads
//! as an artifact.
//!
//! Exit code 0 = every graph is error-free (warnings are reported but
//! do not gate); 1 = at least one experiment graph has an error.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use legato_bench::experiments::RECIPES;
use legato_runtime::AnalysisReport;

/// Hand-rolled JSON, same policy as the rest of the workspace (no
/// serde_json in the tree): flat array of per-experiment verdicts.
fn summary_json(cells: &[(&str, AnalysisReport)]) -> String {
    let mut out = String::from("[\n");
    for (i, (name, report)) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"experiment\": \"{}\", \"tasks_analyzed\": {}, \"errors\": {}, \"warnings\": {}, \"clean\": {}}}",
            name,
            report.tasks_analyzed,
            report.error_count(),
            report.warning_count(),
            report.is_clean(),
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

fn main() -> ExitCode {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "analysis-reports".to_string());
    let out_dir = Path::new(&out_dir);
    std::fs::create_dir_all(out_dir).expect("create report directory");

    // Bench-style ids double as report file stems (`/` → `_`).
    let cells: Vec<(&str, AnalysisReport)> = RECIPES
        .iter()
        .map(|recipe| {
            let rt = (recipe.build)(42).expect("recipe builds");
            (recipe.name, rt.analyze())
        })
        .collect();
    let mut failed = false;
    for (name, report) in &cells {
        let verdict = if report.has_errors() {
            failed = true;
            "FAIL"
        } else if report.warning_count() > 0 {
            "warn"
        } else {
            "ok"
        };
        println!("{verdict:>4}  {name:<28} {report}");
        let path = out_dir.join(format!("{}.txt", name.replace('/', "_")));
        std::fs::write(&path, format!("{name}\n{report}\n")).expect("write report file");
    }
    std::fs::write(out_dir.join("summary.json"), summary_json(&cells)).expect("write summary.json");

    println!(
        "\n{} experiment graph(s) analyzed, reports in {}",
        cells.len(),
        out_dir.display()
    );
    if failed {
        eprintln!("analysis errors found — failing the gate");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
