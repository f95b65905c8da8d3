//! The figure registry and the `legato-exp` binary over it: names are
//! unique, every figure renders under its `== ` header, `all` selects
//! each registry entry exactly once in order, and `analyze` writes one
//! report per recipe plus `summary.json` and exits 0 on the clean set.

use std::collections::HashSet;
use std::process::{Command, Output};

use legato_bench::experiments::{select, FIGURES, RECIPES};

fn legato_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_legato-exp"))
        .args(args)
        .output()
        .expect("legato-exp runs")
}

fn names(figures: &[legato_bench::experiments::Figure]) -> Vec<&'static str> {
    figures.iter().map(|f| f.name).collect()
}

#[test]
fn figures_are_unique_headed_and_all_selects_each_once() {
    let unique: HashSet<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(unique.len(), FIGURES.len(), "figure names must be unique");
    assert_eq!(names(select("all").expect("all")), names(FIGURES));

    for figure in FIGURES {
        let text = (figure.render)();
        let header = text.lines().next().unwrap_or_default();
        assert!(
            header.starts_with("== ") && header.len() > 3,
            "{}: first line {header:?} is not a `== ` header",
            figure.name
        );
        assert_eq!(names(select(figure.name).expect("by name")), [figure.name]);
    }
    assert!(select("fig9").is_none() && select("list").is_none());

    // The binary: `list` prints the registry in order, one figure prints
    // its render, and anything else is a usage error.
    let list = String::from_utf8(legato_exp(&["list"]).stdout).expect("utf-8");
    let listed: Vec<&str> = list.lines().map(|l| l.split(' ').next().unwrap()).collect();
    assert_eq!(listed, names(FIGURES));
    let secure = FIGURES.iter().find(|f| f.name == "secure").expect("E9");
    let printed = String::from_utf8(legato_exp(&["secure"]).stdout).expect("utf-8");
    assert_eq!(printed, (secure.render)());
    for bad in [&["fig9"][..], &[], &["analyze"], &["all", "fig5"]] {
        assert_eq!(legato_exp(bad).status.code(), Some(2), "{bad:?}");
    }
}

#[test]
fn analyze_writes_a_report_per_recipe_and_passes_the_clean_set() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("legato-exp-analyze");
    let _ = std::fs::remove_dir_all(&dir);
    let run = legato_exp(&["analyze", dir.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(0), "{stderr}");
    for recipe in RECIPES {
        let report = dir.join(format!("{}.txt", recipe.name.replace('/', "_")));
        let text = std::fs::read_to_string(&report).expect("report written");
        assert!(text.starts_with(&format!("{}\n", recipe.name)), "{text}");
    }
    let summary = std::fs::read_to_string(dir.join("summary.json")).expect("summary written");
    let clean = summary.matches("\"clean\": true").count();
    assert_eq!(clean, RECIPES.len(), "{summary}");
}
