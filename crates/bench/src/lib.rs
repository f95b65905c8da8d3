//! # legato-bench
//!
//! Experiment harnesses regenerating every quantitative artefact of the
//! LEGaTO paper. The `legato-exp` binary prints [`experiments::FIGURES`]
//! and lints [`experiments::RECIPES`]; the root package's
//! `tests/experiments_{shapes,goldens}.rs` pin their shape and simulated
//! values. The mapping from paper artefact to harness, and which
//! instrument owns which number, lives in `DESIGN.md` §3; the two
//! criterion benches in `benches/` time only what
//! no `benchmark/` workload varies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod table;

pub use table::Table;
