//! # legato-bench
//!
//! Experiment harnesses regenerating every quantitative artefact of the
//! LEGaTO paper. Each `fig*` binary prints the rows/series the paper
//! reports, and the root package's `tests/experiments_{shapes,goldens}.rs`
//! pin their shape and their simulated values. The mapping from paper
//! artefact to harness, and which instrument owns which number, lives in
//! `DESIGN.md` §3; the two criterion benches in `benches/` time only what
//! no `benchmark/` workload varies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod table;

pub use table::Table;
