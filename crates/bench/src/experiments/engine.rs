//! E8 — wide-graph scenarios for the event-driven execution engine.
//!
//! Two wide fans (≥ 1k tasks, fan-out/fan-in) where scheduling in
//! *readiness* order beats committing placements in *submission* order
//! (what the deleted topological sweep did; its makespans on these two
//! scenarios are frozen as goldens in `tests/full_stack.rs`):
//! [`Fan::reference_wide`], where readiness-order placement wins the
//! tail of a saturated fleet, and [`Fan::reference_straggler`], where
//! the engine interleaves two deep thin chains a submission-order
//! executor serializes behind the bulk (1.72× under the weighted
//! trade-off policy).
//!
//! `analyze_experiments` reaches these through
//! [`RECIPES`](super::RECIPES); `experiments::energy` runs the same fans
//! with the energy layer on.

use legato_runtime::{Policy, Runtime};
use legato_workloads::{fleets, Fan};

/// `fan` submitted to a bare engine over the reference fleet.
#[must_use]
pub fn runtime(fan: &Fan, policy: Policy, seed: u64) -> Runtime {
    let mut rt = Runtime::new(fleets::reference(), policy, seed);
    super::submit(&mut rt, fan, seed);
    rt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_scenarios_are_wide_enough() {
        for fan in [Fan::reference_wide(), Fan::reference_straggler()] {
            let rt = runtime(&fan, Policy::Performance, 42);
            let tasks = rt.graph().len();
            assert!(tasks >= 1000, "need ≥ 1k tasks, built {tasks}");
            // Fan-out/fan-in: only the scatter task is initially ready.
            assert_eq!(rt.graph().ready().len(), 1);
        }
    }
}
