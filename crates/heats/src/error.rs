//! Error type for the HEATS scheduler.

use std::error::Error;
use std::fmt;

/// Errors produced by the HEATS scheduler.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HeatsError {
    /// A task demands more resources than any node in the cluster has.
    Unsatisfiable {
        /// The task's name.
        task: String,
    },
    /// A node or task id was out of range.
    UnknownId(usize),
    /// The cluster has no nodes.
    EmptyCluster,
    /// A task's energy/performance weight is not a finite value in
    /// `[0, 1]` (the `weight` field is public; only
    /// [`TaskRequest::with_weight`](crate::TaskRequest::with_weight)
    /// checks it up front).
    InvalidWeight {
        /// The task's name.
        task: String,
        /// The rejected weight.
        weight: f64,
    },
}

impl fmt::Display for HeatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeatsError::Unsatisfiable { task } => {
                write!(f, "task '{task}' exceeds every node's capacity")
            }
            HeatsError::UnknownId(id) => write!(f, "unknown id {id}"),
            HeatsError::EmptyCluster => write!(f, "cluster has no nodes"),
            HeatsError::InvalidWeight { task, weight } => {
                write!(f, "task '{task}' has weight {weight}, outside [0, 1]")
            }
        }
    }
}

impl Error for HeatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(HeatsError::Unsatisfiable { task: "x".into() }
            .to_string()
            .contains("capacity"));
        assert_eq!(HeatsError::EmptyCluster.to_string(), "cluster has no nodes");
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<HeatsError>();
    }
}
