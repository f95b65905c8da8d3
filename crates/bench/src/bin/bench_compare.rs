//! Diff freshly produced `BENCH_*.json` files against committed
//! baselines and print per-row percentage deltas as a markdown table.
//!
//! ```sh
//! cargo run --release -p legato-bench --bin bench_compare -- \
//!     BENCH_runtime.json bench-fresh/BENCH_runtime.json
//! ```
//!
//! The `bench-baseline` CI job appends the output to its step summary.
//! Everything compared is wall-clock, so the tool is report-only: a
//! missing file or a timing regression is a line in the report, never a
//! red job (nightly bench workers are noisy and the committed baselines
//! are updated deliberately in perf PRs, not force-synced by CI).

use legato_bench::baseline::{diff_baselines, parse_baseline, render_markdown};

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(baseline_path), Some(current_path)) = (args.next(), args.next()) else {
        eprintln!("usage: bench_compare <committed-baseline.json> <fresh.json>");
        return;
    };
    let title = format!("{baseline_path} vs freshly measured");
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(contents) => Some(contents),
        Err(err) => {
            println!("### {title}\n\n_could not read `{path}`: {err}_");
            None
        }
    };
    let (Some(baseline), Some(current)) = (read(&baseline_path), read(&current_path)) else {
        return;
    };
    let delta = diff_baselines(&parse_baseline(&baseline), &parse_baseline(&current));
    print!("{}", render_markdown(&title, &delta));
}
