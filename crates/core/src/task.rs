//! The generalized task: LEGaTO's unit of scheduling, checkpointing,
//! replication and offload.
//!
//! A task is described by a [`TaskDescriptor`] — a name, a workload
//! characterization used by cost models ([`Work`]), and the
//! non-functional [`Requirements`] bundle.
//!
//! [`Requirements`]: crate::requirements::Requirements
//! Data dependences are *not* stated explicitly; they are derived by the
//! [`TaskGraph`](crate::graph::TaskGraph) from the `(region, AccessMode)`
//! pairs declared when the task is submitted, exactly like OmpSs
//! `in`/`out`/`inout` clauses.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::requirements::Requirements;
use crate::units::Bytes;

/// Identifier of a task within one [`TaskGraph`](crate::graph::TaskGraph).
///
/// Ids are dense indices assigned in submission (program) order, which makes
/// them usable as `Vec` indices inside runtimes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TaskId(pub u64);

impl TaskId {
    /// The dense index this id represents.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of a data region (the object of an OmpSs dependence clause).
///
/// Regions are opaque to the graph: two tasks conflict iff they name the
/// same region id with incompatible access modes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RegionId(pub u64);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<u64> for RegionId {
    fn from(v: u64) -> Self {
        RegionId(v)
    }
}

/// Direction of a task's access to a data region.
///
/// These mirror OmpSs/OpenMP `depend` clauses and generate the classic
/// dependence kinds: read-after-write, write-after-read, write-after-write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessMode {
    /// The task reads the region (`in`).
    In,
    /// The task writes the region without reading it (`out`).
    Out,
    /// The task reads and writes the region (`inout`).
    InOut,
}

impl AccessMode {
    /// Whether this access reads the region.
    #[must_use]
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::In | AccessMode::InOut)
    }

    /// Whether this access writes the region.
    #[must_use]
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Out | AccessMode::InOut)
    }

    /// The strongest mode covering both `self` and `other`: the result
    /// reads iff either reads and writes iff either writes. This is the
    /// collapse rule for a task that declares the same region more than
    /// once — `in` + `out` must become `inout`, or dependence inference
    /// would miss one direction of the conflict.
    #[must_use]
    pub fn join(self, other: AccessMode) -> AccessMode {
        match (
            self.reads() || other.reads(),
            self.writes() || other.writes(),
        ) {
            (true, true) => AccessMode::InOut,
            (false, true) => AccessMode::Out,
            // Declarations always read or write, so (false, false) is
            // unreachable; folding it into `In` keeps the match total.
            (_, false) => AccessMode::In,
        }
    }
}

/// Broad classification of what a task does, used by device cost models to
/// pick appropriate speedup factors (a GPU accelerates `Inference` far more
/// than `Io`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TaskKind {
    /// General-purpose computation.
    #[default]
    Compute,
    /// Data movement between memory spaces or nodes.
    Transfer,
    /// Neural-network style inference (dense linear algebra).
    Inference,
    /// Storage or peripheral I/O.
    Io,
}

/// Workload characterization of a task, consumed by device cost models.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Work {
    /// Floating-point operations the task performs.
    pub flops: f64,
    /// Bytes the task streams through memory.
    pub bytes: Bytes,
}

impl Work {
    /// A compute-only workload of `flops` floating point operations.
    #[must_use]
    pub fn flops(flops: f64) -> Self {
        Work {
            flops,
            bytes: Bytes::ZERO,
        }
    }

    /// A memory-bound workload of `bytes` streamed bytes.
    #[must_use]
    pub fn bytes(bytes: Bytes) -> Self {
        Work { flops: 0.0, bytes }
    }

    /// Both compute and memory components.
    #[must_use]
    pub fn new(flops: f64, bytes: Bytes) -> Self {
        Work { flops, bytes }
    }

    /// Arithmetic intensity in flops/byte (`None` when no bytes move).
    #[must_use]
    pub fn intensity(&self) -> Option<f64> {
        if self.bytes == Bytes::ZERO {
            None
        } else {
            Some(self.flops / self.bytes.as_f64())
        }
    }
}

/// Static description of one task.
///
/// Construct with [`TaskDescriptor::named`] and refine with the builder
/// methods:
///
/// ```
/// use legato_core::task::{TaskDescriptor, TaskKind, Work};
/// use legato_core::requirements::{Criticality, Requirements};
/// use legato_core::units::Bytes;
///
/// let desc = TaskDescriptor::named("saxpy")
///     .with_kind(TaskKind::Compute)
///     .with_work(Work::new(2.0e6, Bytes::mib(8)))
///     .with_requirements(Requirements::new().with_criticality(Criticality::High));
/// assert_eq!(desc.requirements.criticality.replica_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskDescriptor {
    /// Human-readable task (type) name. A `Cow` so the overwhelmingly
    /// common case — a static task-type label shared by thousands of
    /// submitted instances — costs no allocation per task; dynamic names
    /// still work through the same constructor.
    pub name: std::borrow::Cow<'static, str>,
    /// Workload classification.
    pub kind: TaskKind,
    /// Workload size.
    pub work: Work,
    /// Non-functional requirements.
    pub requirements: Requirements,
}

impl TaskDescriptor {
    /// A descriptor with the given name and neutral defaults: `Compute`
    /// kind, empty work, default requirements. A `&'static str`
    /// name is borrowed, not allocated.
    #[must_use]
    pub fn named(name: impl Into<std::borrow::Cow<'static, str>>) -> Self {
        TaskDescriptor {
            name: name.into(),
            kind: TaskKind::default(),
            work: Work::default(),
            requirements: Requirements::default(),
        }
    }

    /// Set the workload kind.
    #[must_use]
    pub fn with_kind(mut self, kind: TaskKind) -> Self {
        self.kind = kind;
        self
    }

    /// Set the workload size.
    #[must_use]
    pub fn with_work(mut self, work: Work) -> Self {
        self.work = work;
        self
    }

    /// Attach non-functional requirements.
    #[must_use]
    pub fn with_requirements(mut self, req: Requirements) -> Self {
        self.requirements = req;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::Criticality;

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(42).to_string(), "T42");
        assert_eq!(RegionId(3).to_string(), "R3");
    }

    #[test]
    fn access_mode_semantics() {
        assert!(AccessMode::In.reads() && !AccessMode::In.writes());
        assert!(!AccessMode::Out.reads() && AccessMode::Out.writes());
        assert!(AccessMode::InOut.reads() && AccessMode::InOut.writes());
    }

    #[test]
    fn work_intensity() {
        assert_eq!(Work::flops(100.0).intensity(), None);
        let w = Work::new(200.0, Bytes(100));
        assert_eq!(w.intensity(), Some(2.0));
    }

    #[test]
    fn descriptor_defaults() {
        let d = TaskDescriptor::named("t");
        assert_eq!(d.name, "t");
        assert_eq!(d.kind, TaskKind::Compute);
        assert_eq!(d.work, Work::default());
    }

    #[test]
    fn descriptor_builder() {
        let d = TaskDescriptor::named("nn")
            .with_kind(TaskKind::Inference)
            .with_requirements(Requirements::new().with_criticality(Criticality::Critical));
        assert_eq!(d.kind, TaskKind::Inference);
        assert_eq!(d.requirements.criticality.replica_count(), 3);
    }

    #[test]
    fn region_from_u64() {
        let r: RegionId = 9u64.into();
        assert_eq!(r, RegionId(9));
    }
}
