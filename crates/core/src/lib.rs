//! # legato-core
//!
//! Core abstractions of the LEGaTO toolset reproduction: physical [`units`],
//! the generalized [`task`] model with data-direction annotations, the
//! dataflow [`graph`] that OmpSs-style runtimes derive from those
//! annotations, non-functional [`requirements`] (energy, reliability,
//! security), and small numeric [`stats`] helpers shared by the schedulers
//! and the experiment harnesses.
//!
//! LEGaTO's central bet is that *"optimization opportunities for low-energy
//! computing can be maximized through the task abstraction"* (paper, §I).
//! Everything in this crate exists to make that abstraction precise enough
//! to build a runtime, a checkpoint library, a cluster scheduler and a fault
//! tolerance layer on top of it without any of them redefining what a task
//! is.
//!
//! ## Example
//!
//! Build a four-task diamond through data-access annotations alone; the
//! graph derives the dependence edges exactly like an OmpSs front-end would:
//!
//! ```
//! use legato_core::graph::TaskGraph;
//! use legato_core::task::{AccessMode, TaskDescriptor};
//!
//! let mut g = TaskGraph::new();
//! let a = g.add_task(TaskDescriptor::named("produce"), [(0, AccessMode::Out)]);
//! let b = g.add_task(TaskDescriptor::named("left"), [(0, AccessMode::In), (1, AccessMode::Out)]);
//! let c = g.add_task(TaskDescriptor::named("right"), [(0, AccessMode::In), (2, AccessMode::Out)]);
//! let d = g.add_task(
//!     TaskDescriptor::named("join"),
//!     [(1, AccessMode::In), (2, AccessMode::In)],
//! );
//! assert_eq!(g.ready().len(), 1);     // only `a` is ready
//! g.complete(a);
//! assert_eq!(g.ready().len(), 2);     // `b` and `c` unlocked
//! g.complete(b);
//! g.complete(c);
//! assert_eq!(g.ready(), vec![d]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod graph;
pub mod reach;
pub mod requirements;
pub mod stats;
pub mod task;
pub mod units;

pub use error::CoreError;
pub use graph::{GraphBuilder, TaskGraph};
pub use reach::Reachability;
pub use requirements::{Criticality, Requirements, SecurityLevel};
pub use task::{AccessMode, TaskDescriptor, TaskId, TaskKind};
pub use units::{Bytes, Joule, Seconds, Volt, Watt};
