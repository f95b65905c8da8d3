//! # legato-workloads
//!
//! The one definition of every reference workload the LEGaTO harnesses
//! run: the seeded scatter → chains → gather [`Fan`], the independent
//! [`chains`] graph, and the reference device [`fleets`].
//!
//! A generator does not know where its tasks go. It emits each task
//! through a plain `FnMut(TaskDescriptor, &[(RegionId, AccessMode)])`
//! sink, so one definition feeds `Runtime::submit`, a
//! [`GraphBuilder`] and a bare `TaskGraph` alike:
//!
//! ```
//! use legato_core::graph::TaskGraph;
//! use legato_workloads::Fan;
//!
//! let mut g = TaskGraph::new();
//! let tasks = Fan::reference_wide().emit(42, |d, a| {
//!     g.add_task(d, a.iter().copied());
//! });
//! assert_eq!(g.len(), tasks);
//! assert_eq!(g.ready().len(), 1, "only the scatter is ready");
//! ```
//!
//! The crate depends on `legato-core`, `legato-hw` and `rand` only — not
//! on `legato-runtime` — so the runtime's own integration tests can
//! dev-depend on it. `tests/goldens.rs` pins a digest of every
//! generator's output; a change that moves one moves every experiment
//! built on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use legato_core::graph::GraphBuilder;
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, Work};
use legato_core::units::Bytes;

pub mod fan;
pub mod fleets;

pub use fan::{Chain, Depth, Fan, Kinds, WorkDraw};

/// Declared sizes for regions `0..regions`, all `bytes` — the map the
/// resilience and security configs price frontier and crypto traffic
/// from. A [`Fan`] uses [`Fan::regions`] of them.
#[must_use]
pub fn region_sizes(regions: usize, bytes: Bytes) -> HashMap<RegionId, Bytes> {
    (0..regions as u64).map(|r| (RegionId(r), bytes)).collect()
}

/// `tasks` tasks in `width` independent chains, each chain serialized on
/// its own region (`width == tasks` gives independent tasks). Task sizes
/// vary over a 997-cycle so device availability minima diverge and the
/// pooled scheduler's shard bounds separate. Unseeded: the graph is a
/// pure function of `(tasks, width)`.
pub fn chains(
    tasks: usize,
    width: usize,
    mut sink: impl FnMut(TaskDescriptor, &[(RegionId, AccessMode)]),
) {
    for i in 0..tasks {
        let flops = (1.0 + (i % 997) as f64 / 997.0) * 1.0e12;
        sink(
            TaskDescriptor::named("t").with_work(Work::flops(flops)),
            &[(RegionId((i % width) as u64), AccessMode::InOut)],
        );
    }
}

/// [`chains`] buffered in an exactly-sized [`GraphBuilder`] for bulk
/// submission; the resulting graph has `tasks - width` edges.
#[must_use]
pub fn chains_batch(tasks: usize, width: usize) -> GraphBuilder {
    let mut builder = GraphBuilder::with_capacity(tasks, tasks).with_region_capacity(width);
    chains(tasks, width, |d, a| {
        builder.task(d, a.iter().copied());
    });
    builder
}
