//! The engine's event trace: an append-only list of what the engine did,
//! in the order it did it, kept only when the runtime was built with
//! [`EngineConfig::with_trace`](crate::config::EngineConfig::with_trace)
//! and read through [`Runtime::trace`](crate::Runtime::trace).
//!
//! Each kind is written at one site of the engine. The trace is enough to
//! rebuild [`RunReport::placements`](crate::RunReport::placements): a
//! task's outcome is its last [`RecordKind::Place`] before an accepting
//! [`RecordKind::Finish`], and a [`RecordKind::Rollback`] discards the
//! outcomes of the last `discarded` accepting finishes.

use legato_core::task::TaskId;
use legato_core::units::Seconds;

use crate::replication::Verdict;
use crate::runtime::ReplicaDevices;

/// One trace entry: a virtual time, the task it concerns and what
/// happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Virtual time of the record; see each [`RecordKind`] for which.
    pub at: Seconds,
    /// The task the record concerns.
    pub task: TaskId,
    /// What happened.
    pub kind: RecordKind,
}

/// What a [`Record`] says happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordKind {
    /// The task's dependences were met and the engine claimed it, at the
    /// ready event's time.
    Ready,
    /// An attempt of the task was placed; the record's time is the
    /// attempt's start (its earliest replica start). Retries, crash
    /// migrations and deferred re-dispatches each write one.
    Place {
        /// The devices the attempt runs on, primary replica first.
        devices: ReplicaDevices,
        /// Per-device placement evaluations the search spent on it.
        evaluated: u64,
        /// Whether the placement search pruned: it does on a runtime built
        /// with pools, for a placement under no security plan and no
        /// Pareto objective; otherwise it evaluated every eligible device.
        pooled: bool,
    },
    /// An attempt's replicas joined and were voted on, at the attempt's
    /// finish time. An attempt a device crash killed writes none.
    Finish {
        /// The vote's outcome.
        verdict: FinishVerdict,
    },
    /// The task exhausted its retry budget and the engine restored the
    /// last checkpoint, at the time of that failure.
    Rollback {
        /// Acceptances since the checkpoint whose outcomes the rollback
        /// discarded: the last `discarded` accepting
        /// [`RecordKind::Finish`] records of the trace.
        discarded: usize,
    },
}

/// The verdict a [`RecordKind::Finish`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishVerdict {
    /// Every replica agreed (or only one ran): the value is accepted.
    Accepted {
        /// Whether the accepted value is the golden one.
        correct: bool,
    },
    /// A strict majority agreed: the fault is masked and the majority
    /// value accepted.
    Masked {
        /// Whether the majority value is the golden one.
        correct: bool,
    },
    /// No majority: the fault was detected and the task re-executes (or
    /// rolls back, or fails).
    Retry,
}

impl FinishVerdict {
    /// The verdict of a vote on a task whose golden value is `golden`.
    pub(crate) fn judge(verdict: Verdict, golden: u64) -> Self {
        match verdict {
            Verdict::Accept(v) => FinishVerdict::Accepted {
                correct: v.0 == golden,
            },
            Verdict::Masked(v) => FinishVerdict::Masked {
                correct: v.0 == golden,
            },
            Verdict::Retry => FinishVerdict::Retry,
        }
    }

    /// Whether the attempt's value was accepted, and if so whether it is
    /// correct.
    #[must_use]
    pub fn accepted(self) -> Option<bool> {
        match self {
            FinishVerdict::Accepted { correct } | FinishVerdict::Masked { correct } => {
                Some(correct)
            }
            FinishVerdict::Retry => None,
        }
    }
}
