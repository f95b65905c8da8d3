//! One binary for every experiment:
//!
//! ```sh
//! legato-exp list            # every figure's name and what it shows
//! legato-exp fig5            # print one figure (any name `list` shows)
//! legato-exp all             # every figure, in DESIGN.md §3 order
//! legato-exp analyze <dir>   # the static-analysis gate over RECIPES
//! ```
//!
//! `analyze` lints every entry of [`RECIPES`] under its own pillar
//! configuration and writes one report per experiment plus
//! `summary.json` to `<dir>`. Exit code 0 = no analysis error (warnings
//! do not gate); 1 = at least one error; 2 = usage error.

use std::path::Path;
use std::process::ExitCode;

use legato_bench::experiments::{select, FIGURES, RECIPES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        ["list"] => FIGURES
            .iter()
            .for_each(|f| println!("{:<8} {}", f.name, f.about)),
        ["analyze", dir] => return analyze(Path::new(dir)),
        [arg] => match select(arg) {
            Some(figures) => figures.iter().for_each(|f| print!("{}", (f.render)())),
            None => return usage(),
        },
        _ => return usage(),
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("usage: legato-exp <figure|all|list> | legato-exp analyze <dir>  (figures: `list`)");
    ExitCode::from(2)
}

/// Lint every recipe; one report file per recipe (bench-style ids double
/// as file stems, `/` → `_`) and a hand-rolled `summary.json` (no
/// serde_json in the tree) land in `out_dir`.
fn analyze(out_dir: &Path) -> ExitCode {
    std::fs::create_dir_all(out_dir).expect("create report directory");
    let mut failed = false;
    let mut summary = Vec::new();
    for recipe in RECIPES {
        let name = recipe.name;
        let report = (recipe.build)(42).expect("recipe builds").analyze();
        failed |= report.has_errors();
        let verdict = match (report.has_errors(), report.warning_count()) {
            (true, _) => "FAIL",
            (false, 0) => "ok",
            (false, _) => "warn",
        };
        println!("{verdict:>4}  {name:<28} {report}");
        let path = out_dir.join(format!("{}.txt", name.replace('/', "_")));
        std::fs::write(&path, format!("{name}\n{report}\n")).expect("write report file");
        summary.push(format!(
            "  {{\"experiment\": \"{name}\", \"tasks_analyzed\": {}, \"errors\": {}, \"warnings\": {}, \"clean\": {}}}",
            report.tasks_analyzed,
            report.error_count(),
            report.warning_count(),
            report.is_clean(),
        ));
    }
    let summary = format!("[\n{}\n]\n", summary.join(",\n"));
    std::fs::write(out_dir.join("summary.json"), summary).expect("write summary.json");

    println!(
        "\n{} experiment graph(s) analyzed, reports in {}",
        RECIPES.len(),
        out_dir.display()
    );
    if failed {
        eprintln!("analysis errors found — failing the gate");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
