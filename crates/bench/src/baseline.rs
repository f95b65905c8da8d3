//! Reading and diffing `BENCH_*.json` perf baselines.
//!
//! The vendored criterion stand-in writes one row per line:
//!
//! ```json
//! {"id": "group/case", "ns_per_iter": 123.0, "mean_ns_per_iter": 130.1,
//!  "min_ns_per_iter": 119.8, "iterations": 10,
//!  "throughput": {"elements_per_iter": 1026}}
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
//! Two kinds of number live in a row. `ns_per_iter` is wall-clock and
//! noisy: its deltas are reported, never gated. `elements_per_iter` is
//! what the bench declared as its throughput — tasks completed, makespan
//! overhead in per-mille — a pure function of the simulated run, so any
//! difference is a behaviour change: those come first in the report as
//! [`DeltaRow::Drift`] and make `bench_compare` exit non-zero.
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
    /// Median wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Minimum wall-clock nanoseconds per iteration, when the baseline
    /// recorded one (older baselines predate the field).
    pub min_ns_per_iter: Option<f64>,
    /// The deterministic count the bench declared as its throughput
    /// (`null` in the file when it declared none).
    pub elements_per_iter: Option<u64>,
}

impl BaselineRow {
    /// The number comparisons run on: the minimum when recorded (for a
    /// deterministic bench body every nanosecond above the minimum is
    /// interference), the median otherwise.
    #[must_use]
    pub fn metric(&self) -> f64 {
        self.min_ns_per_iter.unwrap_or(self.ns_per_iter)
    }
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
/// Lines without both an `id` and an `ns_per_iter` are skipped, so the
/// surrounding `[`/`]` and any future fields are tolerated.
#[must_use]
pub fn parse_baseline(contents: &str) -> Vec<BaselineRow> {
    contents
        .lines()
        .filter_map(|line| {
            Some(BaselineRow {
                id: string_field(line, "id")?,
                ns_per_iter: number_field(line, "ns_per_iter")?,
                min_ns_per_iter: number_field(line, "min_ns_per_iter"),
                elements_per_iter: number_field(line, "elements_per_iter").map(|n| n as u64),
            })
        })
        .collect()
}

/// One row of a baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaRow {
    /// Present in both files with different declared throughputs:
    /// `(id, baseline elements, current elements)`. Exact, so gating.
    Drift(String, Option<u64>, Option<u64>),
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

/// Diff `current` against `baseline`, matching rows by id. Each side
/// contributes its [`BaselineRow::metric`] — the minimum when recorded,
/// the median otherwise. Throughput drift comes first (file order), then
/// changed rows sorted most-regressed first (largest positive delta);
/// added and removed rows follow in file order, then the baseline's
/// `@parent` pairs (an `@parent` row with no sibling counts as removed).
#[must_use]
pub fn diff_baselines(baseline: &[BaselineRow], current: &[BaselineRow]) -> Vec<DeltaRow> {
    let mut drift = Vec::new();
    let mut changed = Vec::new();
    let mut added = Vec::new();
    for cur in current {
        match baseline.iter().find(|b| b.id == cur.id) {
            Some(base) => {
                if base.elements_per_iter != cur.elements_per_iter {
                    drift.push(DeltaRow::Drift(
                        cur.id.clone(),
                        base.elements_per_iter,
                        cur.elements_per_iter,
                    ));
                }
                let delta = if base.metric() > 0.0 {
                    (cur.metric() - base.metric()) / base.metric() * 100.0
                } else {
                    0.0
                };
                changed.push(DeltaRow::Changed(
                    cur.id.clone(),
                    base.metric(),
                    cur.metric(),
                    delta,
                ));
            }
            None => added.push(DeltaRow::Added(cur.id.clone(), cur.metric())),
        }
    }
    let parent_pair = |b: &BaselineRow| {
        let id = b.id.strip_suffix(PARENT_SUFFIX)?;
        let now = baseline.iter().find(|row| row.id == id)?.metric();
        Some(DeltaRow::Parent(
            id.to_string(),
            b.metric(),
            now,
            b.metric() / now,
        ))
    };
    let parents: Vec<DeltaRow> = baseline.iter().filter_map(parent_pair).collect();
    let removed = baseline
        .iter()
        .filter(|b| !current.iter().any(|c| c.id == b.id) && parent_pair(b).is_none())
        .map(|b| DeltaRow::Removed(b.id.clone(), b.metric()));
    changed.sort_by(|a, b| match (a, b) {
        (DeltaRow::Changed(_, _, _, da), DeltaRow::Changed(_, _, _, db)) => db.total_cmp(da),
        _ => std::cmp::Ordering::Equal,
    });
    drift.extend(changed);
    drift.extend(added);
    drift.extend(removed);
    drift.extend(parents);
    drift
}

/// Whether a comparison found any [`DeltaRow::Drift`] — the one finding
/// `bench_compare` fails on.
#[must_use]
pub fn has_drift(rows: &[DeltaRow]) -> bool {
    rows.iter().any(|row| matches!(row, DeltaRow::Drift(..)))
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
    let elements = |e: &Option<u64>| e.map_or("—".to_string(), |n| n.to_string());
    for row in rows {
        match row {
            DeltaRow::Drift(id, base, cur) => {
                let _ = writeln!(
                    out,
                    "| `{id}` elements/iter | {} | {} | **drift** |",
                    elements(base),
                    elements(cur)
                );
            }
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
  {"id": "g/a", "ns_per_iter": 100.0, "mean_ns_per_iter": 110.0, "iterations": 10, "throughput": null},
  {"id": "g/b", "ns_per_iter": 250.5, "mean_ns_per_iter": 251.0, "min_ns_per_iter": 240.0, "iterations": 10, "throughput": {"elements_per_iter": 1026}}
]"#;

    #[test]
    fn parses_stub_format() {
        let rows = parse_baseline(SAMPLE);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, "g/a");
        assert!((rows[0].ns_per_iter - 100.0).abs() < 1e-9);
        assert_eq!(rows[0].min_ns_per_iter, None, "pre-min rows still parse");
        assert_eq!(rows[1].id, "g/b");
        assert!((rows[1].ns_per_iter - 250.5).abs() < 1e-9);
        assert_eq!(rows[1].min_ns_per_iter, Some(240.0));
        assert_eq!(rows[0].elements_per_iter, None);
        assert_eq!(rows[1].elements_per_iter, Some(1026));
    }

    #[test]
    fn only_throughput_drift_gates() {
        let base = parse_baseline(SAMPLE);
        // Timing-only change: every row slower, same declared counts.
        let mut slower = base.clone();
        for row in &mut slower {
            row.ns_per_iter *= 3.0;
            row.min_ns_per_iter = row.min_ns_per_iter.map(|ns| ns * 3.0);
        }
        let delta = diff_baselines(&base, &slower);
        assert!(!has_drift(&delta), "wall-clock is report-only: {delta:?}");

        // Same timings, one row completed fewer tasks.
        let mut drifted = base.clone();
        drifted[1].elements_per_iter = Some(1020);
        let delta = diff_baselines(&base, &drifted);
        assert!(has_drift(&delta));
        assert_eq!(
            delta[0],
            DeltaRow::Drift("g/b".into(), Some(1026), Some(1020)),
            "drift leads the report"
        );
        assert_eq!(
            delta.len(),
            3,
            "one drift row on top of the two timing rows"
        );
        let md = render_markdown("t", &delta);
        assert!(
            md.contains("| `g/b` elements/iter | 1026 | 1020 | **drift** |"),
            "{md}"
        );
    }

    #[test]
    fn metric_prefers_minimum_over_median() {
        let rows = parse_baseline(SAMPLE);
        assert!((rows[0].metric() - 100.0).abs() < 1e-9, "median fallback");
        assert!((rows[1].metric() - 240.0).abs() < 1e-9, "min preferred");
    }

    #[test]
    fn tolerates_garbage_lines() {
        let rows = parse_baseline("[\nnot json\n{\"id\": \"x\"}\n]");
        assert!(rows.is_empty(), "rows need both id and ns_per_iter");
    }

    #[test]
    fn diff_reports_regressions_first_then_added_and_removed() {
        let base = parse_baseline(SAMPLE);
        let current = vec![
            BaselineRow {
                id: "g/a".into(),
                ns_per_iter: 150.0, // +50 % regression
                min_ns_per_iter: None,
                elements_per_iter: None,
            },
            BaselineRow {
                id: "g/new".into(),
                ns_per_iter: 10.0,
                min_ns_per_iter: None,
                elements_per_iter: None,
            },
        ];
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
        for (id, ns) in [("g/b@parent", 960.0), ("g/gone@parent", 5.0)] {
            base.push(BaselineRow {
                id: id.into(),
                ns_per_iter: 2.0 * ns,
                min_ns_per_iter: Some(ns),
                elements_per_iter: None,
            });
        }
        let fresh = parse_baseline(SAMPLE);
        let delta = diff_baselines(&base, &fresh);
        assert_eq!(delta.len(), 4, "{delta:?}");
        assert!(matches!(&delta[2], DeltaRow::Removed(id, _) if id == "g/gone@parent"));
        assert_eq!(
            delta[3],
            DeltaRow::Parent("g/b".into(), 960.0, 240.0, 4.0),
            "min-of-N on both sides"
        );
        let md = render_markdown("t", &delta);
        assert!(
            md.contains("| `g/b@parent` | 960.0 | 240.0 (baseline) | 4.00× as recorded |"),
            "{md}"
        );
    }

    #[test]
    fn changed_rows_sorted_most_regressed_first() {
        let base = vec![
            BaselineRow {
                id: "a".into(),
                ns_per_iter: 100.0,
                min_ns_per_iter: None,
                elements_per_iter: None,
            },
            BaselineRow {
                id: "b".into(),
                ns_per_iter: 100.0,
                min_ns_per_iter: None,
                elements_per_iter: None,
            },
        ];
        let current = vec![
            BaselineRow {
                id: "a".into(),
                ns_per_iter: 50.0, // -50 % improvement
                min_ns_per_iter: None,
                elements_per_iter: None,
            },
            BaselineRow {
                id: "b".into(),
                ns_per_iter: 200.0, // +100 % regression
                min_ns_per_iter: None,
                elements_per_iter: None,
            },
        ];
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
