//! Reading and diffing `BENCH_*.json` perf baselines.
//!
//! The vendored criterion stand-in writes one row per line:
//!
//! ```json
//! {"id": "group/case", "ns_per_iter": 123.0, "mean_ns_per_iter": 130.1,
//!  "min_ns_per_iter": 119.8, "iterations": 10,
//!  "throughput": {"elements_per_iter": 10000}}
//! ```
//!
//! The `bench_compare` binary (used by the `bench-baseline` CI job)
//! parses freshly produced baselines and the committed ones with the
//! line-oriented extractor here — deliberately *not* a general JSON
//! parser: the workspace has no `serde_json` (offline vendor policy,
//! DESIGN.md §4), and this format is produced by our own criterion stub,
//! so matching its exact shape is the honest scope. Rows are matched by
//! `id` and reported as per-row percentage deltas, most-regressed first.
//!
//! Everything in a baseline is wall-clock, so everything here is
//! report-only; simulated results are pinned by tier-1 goldens, not
//! carried in bench rows (DESIGN.md §3). Comparisons run on
//! `min_ns_per_iter`: the bench bodies are deterministic, so every
//! nanosecond above the minimum is interference.
//!
//! A perf PR records the parent commit's measurement of a case next to
//! its own, on the same machine, as a second row whose id ends in
//! `@parent`. Fresh runs never produce such rows; the comparison pairs
//! each with its sibling in the baseline file and prints the recorded
//! parent-to-committed ratio.

use std::fmt::Write as _;

/// One measurement row from a `BENCH_*.json` baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// Criterion bench id (`group/case`).
    pub id: String,
    /// Minimum wall-clock nanoseconds per iteration.
    pub min_ns_per_iter: f64,
}

/// Extract the string value of `"key": "…"` from a JSON row line.
fn string_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\": \"");
    let start = line.find(&marker)? + marker.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extract the numeric value of `"key": …` from a JSON row line.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\": ");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Parse every measurement row out of a baseline file's contents.
/// Lines without both an `id` and a `min_ns_per_iter` are skipped, so the
/// surrounding `[`/`]` and any other fields are tolerated.
#[must_use]
pub fn parse_baseline(contents: &str) -> Vec<BaselineRow> {
    contents
        .lines()
        .filter_map(|line| {
            Some(BaselineRow {
                id: string_field(line, "id")?,
                min_ns_per_iter: number_field(line, "min_ns_per_iter")?,
            })
        })
        .collect()
}

/// One row of a baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaRow {
    /// Present in both files: `(id, baseline ns, current ns, delta %)`.
    Changed(String, f64, f64, f64),
    /// Only in the current file (new bench case).
    Added(String, f64),
    /// Only in the baseline file (bench case removed).
    Removed(String, f64),
    /// An `id@parent` row of the baseline file next to its `id` row:
    /// `(id, parent ns, committed ns, parent / committed)`.
    Parent(String, f64, f64, f64),
}

/// Id suffix of a row that records the parent commit's measurement.
const PARENT_SUFFIX: &str = "@parent";

/// Diff `current` against `baseline`, matching rows by id. Changed rows
/// come first, sorted most-regressed first (largest positive delta);
/// added and removed rows follow in file order, then the baseline's
/// `@parent` pairs (an `@parent` row with no sibling counts as removed).
#[must_use]
pub fn diff_baselines(baseline: &[BaselineRow], current: &[BaselineRow]) -> Vec<DeltaRow> {
    let mut changed = Vec::new();
    let mut added = Vec::new();
    for cur in current {
        match baseline.iter().find(|b| b.id == cur.id) {
            Some(base) => {
                let delta = if base.min_ns_per_iter > 0.0 {
                    (cur.min_ns_per_iter - base.min_ns_per_iter) / base.min_ns_per_iter * 100.0
                } else {
                    0.0
                };
                changed.push(DeltaRow::Changed(
                    cur.id.clone(),
                    base.min_ns_per_iter,
                    cur.min_ns_per_iter,
                    delta,
                ));
            }
            None => added.push(DeltaRow::Added(cur.id.clone(), cur.min_ns_per_iter)),
        }
    }
    let parent_pair = |b: &BaselineRow| {
        let id = b.id.strip_suffix(PARENT_SUFFIX)?;
        let now = baseline.iter().find(|row| row.id == id)?.min_ns_per_iter;
        Some(DeltaRow::Parent(
            id.to_string(),
            b.min_ns_per_iter,
            now,
            b.min_ns_per_iter / now,
        ))
    };
    let parents: Vec<DeltaRow> = baseline.iter().filter_map(parent_pair).collect();
    let removed = baseline
        .iter()
        .filter(|b| !current.iter().any(|c| c.id == b.id) && parent_pair(b).is_none())
        .map(|b| DeltaRow::Removed(b.id.clone(), b.min_ns_per_iter));
    changed.sort_by(|a, b| match (a, b) {
        (DeltaRow::Changed(_, _, _, da), DeltaRow::Changed(_, _, _, db)) => db.total_cmp(da),
        _ => std::cmp::Ordering::Equal,
    });
    changed.extend(added);
    changed.extend(removed);
    changed.extend(parents);
    changed
}

/// Render a comparison as a GitHub-flavored markdown table (what the CI
/// job appends to its step summary). Negative deltas are improvements.
#[must_use]
pub fn render_markdown(title: &str, rows: &[DeltaRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### {title}\n");
    if rows.is_empty() {
        let _ = writeln!(out, "_no rows found_");
        return out;
    }
    let _ = writeln!(out, "| bench | baseline ns/iter | current ns/iter | Δ |");
    let _ = writeln!(out, "|---|---:|---:|---:|");
    for row in rows {
        match row {
            DeltaRow::Changed(id, base, cur, delta) => {
                let _ = writeln!(out, "| `{id}` | {base:.1} | {cur:.1} | {delta:+.1}% |");
            }
            DeltaRow::Added(id, cur) => {
                let _ = writeln!(out, "| `{id}` | — | {cur:.1} | new |");
            }
            DeltaRow::Removed(id, base) => {
                let _ = writeln!(out, "| `{id}` | {base:.1} | — | removed |");
            }
            DeltaRow::Parent(id, parent, now, ratio) => {
                let _ = writeln!(
                    out,
                    "| `{id}{PARENT_SUFFIX}` | {parent:.1} | {now:.1} (baseline) | {ratio:.2}× as recorded |"
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {"id": "g/a", "ns_per_iter": 100.0, "mean_ns_per_iter": 110.0, "min_ns_per_iter": 100.0, "iterations": 10, "throughput": null},
  {"id": "g/b", "ns_per_iter": 250.5, "mean_ns_per_iter": 251.0, "min_ns_per_iter": 240.0, "iterations": 10, "throughput": {"elements_per_iter": 1026}}
]"#;

    fn row(id: &str, min_ns_per_iter: f64) -> BaselineRow {
        BaselineRow {
            id: id.into(),
            min_ns_per_iter,
        }
    }

    #[test]
    fn parses_stub_format() {
        let rows = parse_baseline(SAMPLE);
        assert_eq!(rows, [row("g/a", 100.0), row("g/b", 240.0)]);
    }

    #[test]
    fn tolerates_garbage_lines() {
        let rows = parse_baseline(
            "[\nnot json\n{\"id\": \"x\"}\n{\"id\": \"y\", \"ns_per_iter\": 1.0}\n]",
        );
        assert!(rows.is_empty(), "rows need both id and min_ns_per_iter");
    }

    /// The committed `BENCH_*.json` files and the benches that produce
    /// them. A bench owns the baseline whose name its file stem starts
    /// with (`runtime_engine.rs` → `BENCH_runtime.json`), so an
    /// unrecorded bench — or a baseline nothing re-measures — fails here.
    #[test]
    fn committed_baselines_are_well_formed_and_every_bench_is_recorded() {
        let list = |dir: &str, prefix: &str, suffix: &str| {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
            let mut found = Vec::new();
            for entry in std::fs::read_dir(&dir).expect("directory listable") {
                let path = entry.expect("entry readable").path();
                let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8");
                let stem = name
                    .strip_prefix(prefix)
                    .and_then(|n| n.strip_suffix(suffix));
                if let Some(stem) = stem.map(str::to_string) {
                    found.push((stem, path));
                }
            }
            found.sort();
            found
        };
        let benches = list("benches", "", ".rs");
        let baselines = list("../..", "BENCH_", ".json");
        assert!(!benches.is_empty() && !baselines.is_empty());

        let mut ids = Vec::new();
        for (name, path) in &baselines {
            let contents = std::fs::read_to_string(path).expect("baseline readable");
            let rows = parse_baseline(&contents);
            assert!(!rows.is_empty(), "BENCH_{name}.json records no row");
            assert_eq!(
                rows.len(),
                contents.matches("\"id\"").count(),
                "BENCH_{name}.json: a row without min_ns_per_iter"
            );
            let owners = benches.iter().filter(|(stem, _)| stem.starts_with(name));
            assert_eq!(
                owners.count(),
                1,
                "BENCH_{name}.json: not recorded by exactly one bench"
            );
            ids.extend(rows.into_iter().map(|r| r.id));
        }
        for (stem, _) in &benches {
            assert!(
                baselines.iter().any(|(name, _)| stem.starts_with(name)),
                "benches/{stem}.rs has no committed baseline"
            );
        }
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "{id} recorded twice");
            if let Some(sibling) = id.strip_suffix(PARENT_SUFFIX) {
                assert!(
                    ids.iter().any(|other| other == sibling),
                    "{id} has no sibling row"
                );
            }
        }
    }

    #[test]
    fn diff_reports_regressions_first_then_added_and_removed() {
        let base = parse_baseline(SAMPLE);
        // `g/a` regressed by 50 %, `g/new` appeared, `g/b` is gone.
        let current = [row("g/a", 150.0), row("g/new", 10.0)];
        let delta = diff_baselines(&base, &current);
        assert_eq!(delta.len(), 3);
        match &delta[0] {
            DeltaRow::Changed(id, base_ns, cur_ns, pct) => {
                assert_eq!(id, "g/a");
                assert!((base_ns - 100.0).abs() < 1e-9);
                assert!((cur_ns - 150.0).abs() < 1e-9);
                assert!((pct - 50.0).abs() < 1e-9);
            }
            other => panic!("expected Changed first, got {other:?}"),
        }
        assert!(matches!(&delta[1], DeltaRow::Added(id, _) if id == "g/new"));
        assert!(matches!(&delta[2], DeltaRow::Removed(id, _) if id == "g/b"));
    }

    #[test]
    fn parent_rows_pair_with_their_sibling_instead_of_counting_as_removed() {
        let mut base = parse_baseline(SAMPLE);
        base.extend([row("g/b@parent", 960.0), row("g/gone@parent", 5.0)]);
        let fresh = parse_baseline(SAMPLE);
        let delta = diff_baselines(&base, &fresh);
        assert_eq!(delta.len(), 4, "{delta:?}");
        assert!(matches!(&delta[2], DeltaRow::Removed(id, _) if id == "g/gone@parent"));
        assert_eq!(delta[3], DeltaRow::Parent("g/b".into(), 960.0, 240.0, 4.0));
        let md = render_markdown("t", &delta);
        assert!(
            md.contains("| `g/b@parent` | 960.0 | 240.0 (baseline) | 4.00× as recorded |"),
            "{md}"
        );
    }

    #[test]
    fn changed_rows_sorted_most_regressed_first() {
        let base = [row("a", 100.0), row("b", 100.0)];
        // `a` improved by 50 %, `b` regressed by 100 %.
        let current = [row("a", 50.0), row("b", 200.0)];
        let delta = diff_baselines(&base, &current);
        assert!(matches!(&delta[0], DeltaRow::Changed(id, _, _, _) if id == "b"));
        assert!(matches!(&delta[1], DeltaRow::Changed(id, _, _, _) if id == "a"));
    }

    #[test]
    fn markdown_table_shape() {
        let base = parse_baseline(SAMPLE);
        let md = render_markdown("test", &diff_baselines(&base, &base));
        assert!(md.starts_with("### test"));
        assert!(md.contains("| `g/a` | 100.0 | 100.0 | +0.0% |"));
        assert!(md.lines().filter(|l| l.starts_with("| `")).count() == 2);
    }

    #[test]
    fn empty_comparison_renders_placeholder() {
        let md = render_markdown("empty", &[]);
        assert!(md.contains("_no rows found_"));
    }
}
