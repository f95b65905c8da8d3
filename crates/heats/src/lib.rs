//! # legato-heats
//!
//! HEATS: a heterogeneity- and energy-aware cluster task scheduler
//! (paper §V, Fig. 7; Rocha et al., PDP'19).
//!
//! HEATS "allows customers to trade performance vs. energy requirements.
//! Our system first learns the performance and energy features of the
//! physical hosts. Then, it monitors the execution of tasks on the hosts
//! and opportunistically migrates them onto different cluster nodes to
//! match the customer-required deployment trade-offs."
//!
//! The four interacting components of Fig. 7 map to modules:
//!
//! * **Monitoring** ([`cluster`]) — node resource availability and power;
//! * **Modeling** ([`model`]) — per-node performance/energy models learned
//!   from probe workloads by least squares (the paper uses TensorFlow; a
//!   linear model is the first-order equivalent for these features);
//! * **Scheduling** ([`scheduler`]) — scores every feasible node by
//!   normalized predicted energy and time, weighted by the
//!   customer-demanded trade-off, and places the task on the best fit;
//! * **Placement/migration** ([`scheduler`]) — a periodic rescheduling
//!   pass migrates running tasks when a sufficiently better fit appears.
//!
//! Scoring and placement are not HEATS-private: both go through the
//! shared scheduler layer in [`legato_runtime::scheduler`], so HEATS'
//! model-learned predictions and the task runtime's analytic device
//! estimates feed the *same* [`Scheduler`](legato_runtime::Scheduler)
//! implementations and are interchangeable.
//!
//! ## Example
//!
//! ```
//! use legato_heats::{Heats, TaskRequest};
//! use legato_hw::cluster::NodeSpec;
//! use legato_core::task::{TaskKind, Work};
//! use legato_core::units::{Bytes, Seconds};
//!
//! # fn main() -> Result<(), legato_heats::HeatsError> {
//! let mut heats = Heats::new(
//!     vec![NodeSpec::high_perf_x86("x86"), NodeSpec::low_power_arm("arm")],
//!     11,
//! );
//! // A customer that cares only about energy:
//! let t = TaskRequest::new("batch", 2, Bytes::gib(1), Work::flops(1e12), TaskKind::Compute)
//!     .with_weight(1.0);
//! heats.submit(t);
//! let placed = heats.schedule(Seconds::ZERO)?;
//! assert_eq!(placed.len(), 1);
//! assert_eq!(heats.node_name(placed[0].node), "arm");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod error;
pub mod model;
pub mod request;
pub mod scheduler;

pub use cluster::ClusterNode;
pub use error::HeatsError;
pub use model::NodeModel;
pub use request::TaskRequest;
pub use scheduler::{Heats, Migration, PlacementDecision};
