//! # legato
//!
//! A Rust reproduction of **LEGaTO: Low-Energy, Secure, and Resilient
//! Toolset for Heterogeneous Computing** (Salami et al., DATE 2020),
//! re-exporting every subsystem crate of the workspace:
//!
//! | Module | Crate | Role |
//! |--------|-------|------|
//! | [`core`] | `legato-core` | task model, dataflow graph, units, requirements |
//! | [`hw`] | `legato-hw` | simulated devices, memory, storage, RECS\|BOX, communicator |
//! | [`fpga`] | `legato-fpga` | BRAM undervolting model (Fig. 5) |
//! | [`fti`] | `legato-fti` | multi-level GPU/CPU checkpointing (Fig. 6) |
//! | [`runtime`] | `legato-runtime` | OmpSs-style dataflow runtime, replication, energy-aware offload |
//! | [`heats`] | `legato-heats` | heterogeneity- and energy-aware cluster scheduler (Fig. 7) |
//! | [`secure`] | `legato-secure` | enclave simulation, sealing, attestation |
//! | [`mirror`] | `legato-mirror` | Smart Mirror use case: detection, Kalman, Hungarian, pipeline |
//!
//! See `examples/quickstart.rs` for a guided tour and `DESIGN.md` for the
//! experiment index.
//!
//! ## Quick taste
//!
//! ```
//! use legato::runtime::{Policy, Runtime};
//! use legato::core::task::{AccessMode, TaskDescriptor, TaskKind, Work};
//! use legato::hw::device::DeviceSpec;
//!
//! # fn main() -> Result<(), legato::runtime::RuntimeError> {
//! let mut rt = Runtime::new(
//!     vec![DeviceSpec::gtx1080(), DeviceSpec::fpga_kintex()],
//!     Policy::Energy,
//!     1,
//! );
//! rt.submit(
//!     TaskDescriptor::named("infer")
//!         .with_kind(TaskKind::Inference)
//!         .with_work(Work::flops(66.0e9)),
//!     [(0u64, AccessMode::Out)],
//! );
//! let report = rt.run()?;
//! assert!(report.is_correct());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use legato_core as core;
pub use legato_fpga as fpga;
pub use legato_fti as fti;
pub use legato_heats as heats;
pub use legato_hw as hw;
pub use legato_mirror as mirror;
pub use legato_runtime as runtime;
pub use legato_secure as secure;
