//! Error type for the runtime.

use std::error::Error;
use std::fmt;

use legato_core::task::TaskId;

use crate::analyze::AnalysisReport;

/// Errors produced by the task runtime.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The runtime has no devices to schedule on.
    NoDevices,
    /// A task could not produce a correct result within the retry budget.
    UnmaskedFailure {
        /// The failing task.
        task: TaskId,
        /// Retries attempted.
        retries: u32,
    },
    /// The task graph reported an inconsistency.
    Graph(String),
    /// A [`Policy::Weighted`](crate::scheduler::Policy::Weighted) weight
    /// was outside `[0, 1]` (or not finite).
    InvalidWeight(f64),
    /// The checkpoint/restart configuration was unusable (e.g. a
    /// non-positive MTBF handed to the interval model).
    Resilience(String),
    /// An enclave-only task became ready but no device in the runtime
    /// offers a TEE: confidentiality cannot be honoured, and the engine
    /// refuses to degrade it silently. The task is failed and its
    /// downstream cone poisoned before the error is returned, so a
    /// follow-up run reports it in `failed` rather than losing it.
    NoSecurePlacement(TaskId),
    /// The simulated secure layer refused an operation (enclave limit
    /// reached, attestation failure).
    Security(String),
    /// Static analysis ([`EngineConfig::with_analysis`] in
    /// [`AnalysisMode::Enforce`]) found error-severity diagnostics — the
    /// run was refused before any event dispatched. The full report,
    /// including warnings, rides along for rendering.
    ///
    /// [`EngineConfig::with_analysis`]: crate::config::EngineConfig::with_analysis
    /// [`AnalysisMode::Enforce`]: crate::analyze::AnalysisMode::Enforce
    AnalysisFailed(Box<AnalysisReport>),
    /// A caller-supplied parameter was outside its valid domain (a
    /// non-FPGA device handed to the low-voltage model, a non-positive
    /// working set, an operating-point index off a device's ladder, …).
    /// The runtime-layer counterpart of `FtiError::InvalidParameter`.
    InvalidParameter {
        /// Which parameter was rejected.
        name: &'static str,
        /// Why it was rejected, including the offending value.
        reason: String,
    },
    /// Device churn left a task with no eligible device, the placement
    /// was deferred ([`ChurnConfig::defer_window`]) waiting for a
    /// re-arrival, and the window elapsed with the fleet still unable
    /// to host it. Like [`RuntimeError::NoSecurePlacement`], the task
    /// is failed and its downstream cone poisoned before the error is
    /// returned, so a follow-up run reports it in `failed`.
    ///
    /// [`ChurnConfig::defer_window`]: crate::churn::ChurnConfig::defer_window
    DeferralExpired(TaskId),
    /// A tenant's submission was refused by the service admission gate:
    /// accepting it would push the tenant's queued-but-uncompleted task
    /// count past its configured budget
    /// ([`TenantSpec::with_budget`](crate::service::TenantSpec::with_budget)).
    /// Backpressure, not failure — nothing is enqueued, the session
    /// stays consistent, and the caller retries after draining.
    AdmissionRejected {
        /// The tenant whose budget is exhausted.
        tenant: u32,
        /// Tasks already admitted and not yet completed.
        queued: usize,
        /// The tenant's queued-task budget.
        budget: usize,
    },
}

impl RuntimeError {
    /// Shorthand for an [`RuntimeError::InvalidParameter`].
    pub(crate) fn invalid_parameter(name: &'static str, reason: impl Into<String>) -> Self {
        RuntimeError::InvalidParameter {
            name,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NoDevices => write!(f, "runtime has no devices"),
            RuntimeError::UnmaskedFailure { task, retries } => {
                write!(f, "task {task} failed after {retries} retries")
            }
            RuntimeError::Graph(msg) => write!(f, "task graph error: {msg}"),
            RuntimeError::InvalidWeight(w) => {
                write!(
                    f,
                    "trade-off weight must be a finite value in [0, 1], got {w}"
                )
            }
            RuntimeError::Resilience(msg) => {
                write!(f, "checkpoint/restart configuration error: {msg}")
            }
            RuntimeError::NoSecurePlacement(task) => {
                write!(
                    f,
                    "enclave-only task {task} has no TEE-capable device to run on"
                )
            }
            RuntimeError::Security(msg) => write!(f, "secure layer error: {msg}"),
            RuntimeError::AnalysisFailed(report) => {
                write!(
                    f,
                    "static analysis refused the run: {} error(s) — {report}",
                    report.error_count()
                )
            }
            RuntimeError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            RuntimeError::DeferralExpired(task) => {
                write!(
                    f,
                    "task {task} found no eligible device before its churn deferral \
                     window expired"
                )
            }
            RuntimeError::AdmissionRejected {
                tenant,
                queued,
                budget,
            } => {
                write!(
                    f,
                    "tenant {tenant} rejected by admission control: {queued} tasks \
                     queued against a budget of {budget}"
                )
            }
        }
    }
}

impl Error for RuntimeError {}

impl From<legato_core::CoreError> for RuntimeError {
    fn from(e: legato_core::CoreError) -> Self {
        RuntimeError::Graph(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            RuntimeError::NoDevices.to_string(),
            "runtime has no devices"
        );
        let e = RuntimeError::UnmaskedFailure {
            task: TaskId(3),
            retries: 2,
        };
        assert!(e.to_string().contains("T3"));
    }

    #[test]
    fn display_invalid_weight() {
        let e = RuntimeError::InvalidWeight(1.5);
        assert!(e.to_string().contains("1.5"), "{e}");
    }

    #[test]
    fn display_security_errors() {
        let e = RuntimeError::NoSecurePlacement(TaskId(7));
        assert!(e.to_string().contains("T7"), "{e}");
        let e = RuntimeError::Security("enclave limit (64) reached".into());
        assert!(e.to_string().contains("enclave limit"), "{e}");
    }

    #[test]
    fn display_invalid_parameter() {
        let e = RuntimeError::invalid_parameter("working_set_mbit", "must be positive, got -1");
        assert_eq!(
            e.to_string(),
            "invalid parameter `working_set_mbit`: must be positive, got -1"
        );
    }

    #[test]
    fn display_analysis_failed() {
        use crate::analyze::{Diagnostic, LintId, Severity};
        let report = AnalysisReport {
            diagnostics: vec![Diagnostic {
                lint: LintId::RegionRace,
                severity: Severity::Error,
                tasks: vec![TaskId(1), TaskId(2)],
                regions: vec![legato_core::task::RegionId(0)],
                path: Vec::new(),
                message: "T1 and T2 write the same region".into(),
            }],
            tasks_analyzed: 3,
        };
        let e = RuntimeError::AnalysisFailed(Box::new(report));
        let s = e.to_string();
        assert!(s.contains("refused"), "{s}");
        assert!(s.contains("region-race"), "{s}");
    }

    #[test]
    fn display_deferral_expired() {
        let e = RuntimeError::DeferralExpired(TaskId(9));
        assert!(e.to_string().contains("T9"), "{e}");
        assert!(e.to_string().contains("deferral"), "{e}");
    }

    #[test]
    fn display_admission_rejected() {
        let e = RuntimeError::AdmissionRejected {
            tenant: 4,
            queued: 128,
            budget: 128,
        };
        let s = e.to_string();
        assert!(s.contains("tenant 4"), "{s}");
        assert!(s.contains("budget of 128"), "{s}");
    }

    #[test]
    fn from_core() {
        let e: RuntimeError = legato_core::CoreError::EmptyGraph.into();
        assert!(matches!(e, RuntimeError::Graph(_)));
    }
}
