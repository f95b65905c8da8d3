//! # legato-runtime
//!
//! Task-based runtime for heterogeneous hardware in the style of the
//! OmpSs dataflow runtime LEGaTO builds on (paper §II-C): tasks are
//! submitted with `in`/`out`/`inout` annotations, dependences are
//! inferred, and ready tasks are scheduled onto the most appropriate
//! device by the event-driven execution [`engine`] behind
//! [`runtime::Runtime`], with streaming submission into a run already in
//! progress.
//!
//! On top of scheduling, the runtime implements the fault-tolerance
//! mechanisms §I assigns to the task model:
//!
//! * **selective replication** ([`replication`]) — only
//!   reliability-critical tasks are replicated, on *diverse* processing
//!   elements when possible, with majority voting for `Critical` tasks;
//! * **task-level checkpoint volume** ([`ckpt`]) — only the data declared
//!   at task entry is checkpointed, which this module quantifies against
//!   full-memory checkpoints;
//! * **checkpoint/restart** ([`resilience`]) — the engine periodically
//!   checkpoints the completed frontier at the Young-optimal interval
//!   (FTI-priced against simulated storage) and rolls back to it when a
//!   task exhausts its retry budget, instead of failing the downstream
//!   cone.
//!
//! The paper's third pillar, security, is wired into the same engine
//! ([`security`]): confidentiality is a scheduling dimension —
//! enclave-only tasks are restricted to TEE-capable devices, security
//! costs (world transitions, boundary crypto, sealing, attestation) are
//! folded into the scheduler's estimates, and checkpoints of
//! confidential data route through `seal`.
//!
//! The low-energy pillar is wired in the same way ([`energy`]): every
//! device carries a ladder of voltage/frequency operating points,
//! selecting a rung derates the spec the scheduler estimates against,
//! Pareto objectives (min energy under a makespan bound, min makespan
//! under a power cap) steer placement, and an aggressive rung's fault
//! probability shortens the checkpoint interval the resilience layer
//! plans. All pillars are configured through one builder,
//! [`EngineConfig`].
//!
//! The fleet itself is malleable ([`churn`]): a seeded trace of device
//! arrivals and departures replays into the engine's event order —
//! planned departures drain (frontier checkpoint, zero wasted work),
//! crashes fail running attempts into the retry/rollback machinery and
//! migrate queued placements, and arrivals grow the pool/security
//! structures incrementally while re-dispatching placements deferred
//! for want of an eligible device.
//!
//! Before any of that runs, the static [`analyze`] layer can verify the
//! submitted graph against the pillar configuration — region races,
//! confidentiality-lattice violations, infeasible placements, unclosable
//! checkpoint frontiers — and refuse the run with structured diagnostics
//! instead of discovering the problem mid-execution.
//!
//! ## Example
//!
//! ```
//! use legato_core::task::{AccessMode, TaskDescriptor, TaskKind, Work};
//! use legato_hw::device::DeviceSpec;
//! use legato_runtime::{Policy, Runtime};
//!
//! # fn main() -> Result<(), legato_runtime::RuntimeError> {
//! let mut rt = Runtime::new(
//!     vec![DeviceSpec::xeon_x86(), DeviceSpec::gtx1080(), DeviceSpec::fpga_kintex()],
//!     Policy::Weighted(0.5),
//!     7,
//! );
//! let frame = rt.submit(
//!     TaskDescriptor::named("detect")
//!         .with_kind(TaskKind::Inference)
//!         .with_work(Work::flops(66.0e9)),
//!     [(0u64, AccessMode::Out)],
//! );
//! let _track = rt.submit(
//!     TaskDescriptor::named("track").with_work(Work::flops(1.0e9)),
//!     [(0u64, AccessMode::In), (1u64, AccessMode::Out)],
//! );
//! let report = rt.run()?;
//! assert_eq!(report.placements.len(), 2);
//! assert!(report.makespan.0 > 0.0);
//! # let _ = frame;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod churn;
pub mod ckpt;
mod classes;
pub mod config;
pub mod energy;
pub mod engine;
pub mod error;
pub mod lowvolt;
pub mod pool;
mod regions;
pub mod replication;
pub mod resilience;
pub mod runtime;
pub mod scheduler;
pub mod security;
pub mod service;
pub mod trace;

pub use analyze::{AnalysisConfig, AnalysisMode, AnalysisReport, Diagnostic, LintId, Severity};
pub use churn::{ChurnConfig, ChurnEvent, ChurnEventKind, ChurnStats, ChurnTrace, DepartureKind};
pub use config::EngineConfig;
pub use energy::{EnergyConfig, EnergyObjective, EnergyStats};
pub use error::RuntimeError;
pub use pool::{PoolConfig, TopologyConfig};
pub use replication::MAX_REPLICAS;
pub use resilience::{CheckpointRecord, ResilienceConfig, ResilienceStats, RollbackEvent};
pub use runtime::{Placements, ReplicaDevices, RunReport, Runtime, TaskOutcome};
pub use scheduler::{Estimate, Policy, Scheduler, ScoreNorm};
pub use security::{SecurityConfig, SecurityStats};
pub use service::{Service, ServiceConfig, TenantId, TenantReport, TenantSpec};
pub use trace::{FinishVerdict, Record, RecordKind};
