//! Task-level checkpoint volume analysis.
//!
//! "We will use the properties of the task model to design
//! application-level energy-efficient checkpointing where only the
//! necessary and sufficient data (declared at the task entry) will be
//! checkpointed" (paper §I). This module quantifies that claim: given a
//! task graph with region access declarations and per-region sizes, it
//! computes the bytes a task-aware checkpoint must save at a cut of the
//! graph, versus the full memory footprint a task-oblivious checkpointer
//! would write.
//!
//! The engine's checkpoint/restart mode ([`resilience`](crate::resilience))
//! charges the same [`task_declared_volume`] at every checkpoint, but
//! reads sizes by slot ([`TaskGraph::live_slots`]) from its region table,
//! where the one declaration
//! ([`EngineConfig::with_region_sizes`](crate::config::EngineConfig::with_region_sizes))
//! sits beside residency, so one walk also counts the sealed share.

use std::collections::HashMap;

use legato_core::graph::TaskGraph;
use legato_core::task::RegionId;
use legato_core::units::Bytes;

/// Bytes a task-aware checkpoint writes at the current frontier: the
/// declared sizes (absent: zero bytes) of the *live* regions — last written by a completed
/// task and still to be read by an unfinished one. Everything else is
/// dead or reproducible by re-running unfinished tasks.
///
/// O(live regions): the graph maintains the live set incrementally per
/// state transition ([`TaskGraph::live_regions`]), and the engine's
/// checkpoint event walks the same set.
#[must_use]
pub fn task_declared_volume(graph: &TaskGraph, sizes: &HashMap<RegionId, Bytes>) -> Bytes {
    graph
        .live_regions()
        .filter_map(|r| sizes.get(&r))
        .copied()
        .sum()
}

/// Bytes a task-oblivious (full address space) checkpoint writes: every
/// region ever touched — each once, as the graph's region table lists
/// them.
#[must_use]
pub fn full_memory_volume(graph: &TaskGraph, sizes: &HashMap<RegionId, Bytes>) -> Bytes {
    graph
        .regions()
        .iter()
        .filter_map(|r| sizes.get(r))
        .copied()
        .sum()
}

/// Volume reduction factor of task-aware over full-memory checkpointing
/// at the current frontier (`full / declared`).
///
/// Returns `None` whenever the declared frontier volume is zero bytes —
/// both for an *empty* frontier (nothing live) and for a frontier whose
/// live regions are all declared (or defaulted) to zero size. A ratio
/// there would be `inf` (or `NaN` when the full volume is also zero),
/// which poisons any average it flows into; "no meaningful ratio" is the
/// honest answer.
#[must_use]
pub fn reduction_factor(graph: &TaskGraph, sizes: &HashMap<RegionId, Bytes>) -> Option<f64> {
    let declared = task_declared_volume(graph, sizes);
    if declared == Bytes::ZERO {
        return None;
    }
    Some(full_memory_volume(graph, sizes).as_f64() / declared.as_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use legato_core::task::{AccessMode, TaskDescriptor};
    use std::collections::HashSet;

    fn live(graph: &TaskGraph) -> HashSet<RegionId> {
        graph.live_regions().collect()
    }

    fn sizes(pairs: &[(u64, u64)]) -> HashMap<RegionId, Bytes> {
        pairs
            .iter()
            .map(|&(r, b)| (RegionId(r), Bytes::mib(b)))
            .collect()
    }

    /// Pipeline: a →(r0)→ b →(r1)→ c. After completing a and b, only r1 is
    /// live (r0 will never be read again).
    #[test]
    fn dead_regions_are_excluded() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskDescriptor::named("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(
            TaskDescriptor::named("b"),
            [(0u64, AccessMode::In), (1u64, AccessMode::Out)],
        );
        let _c = g.add_task(TaskDescriptor::named("c"), [(1u64, AccessMode::In)]);
        g.complete(a).unwrap();
        g.complete(b).unwrap();
        let s = sizes(&[(0, 100), (1, 10)]);
        assert_eq!(live(&g), HashSet::from([RegionId(1)]));
        assert_eq!(task_declared_volume(&g, &s), Bytes::mib(10));
        assert_eq!(full_memory_volume(&g, &s), Bytes::mib(110));
        assert!((reduction_factor(&g, &s).unwrap() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn mid_pipeline_keeps_needed_inputs() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskDescriptor::named("a"), [(0u64, AccessMode::Out)]);
        let _b = g.add_task(
            TaskDescriptor::named("b"),
            [(0u64, AccessMode::In), (1u64, AccessMode::Out)],
        );
        g.complete(a).unwrap();
        let s = sizes(&[(0, 100), (1, 10)]);
        // b still needs r0.
        assert_eq!(live(&g), HashSet::from([RegionId(0)]));
        assert_eq!(task_declared_volume(&g, &s), Bytes::mib(100));
    }

    #[test]
    fn nothing_live_before_any_completion() {
        let mut g = TaskGraph::new();
        g.add_task(TaskDescriptor::named("a"), [(0u64, AccessMode::Out)]);
        let s = sizes(&[(0, 100)]);
        assert!(live(&g).is_empty());
        assert_eq!(task_declared_volume(&g, &s), Bytes::ZERO);
        assert!(reduction_factor(&g, &s).is_none());
    }

    /// Zero-byte edge: a non-empty frontier whose live regions are all
    /// zero-sized must yield `None`, never `Some(inf)`/`Some(NaN)`.
    #[test]
    fn zero_sized_live_regions_give_no_factor() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskDescriptor::named("a"), [(0u64, AccessMode::Out)]);
        let _b = g.add_task(TaskDescriptor::named("b"), [(0u64, AccessMode::In)]);
        g.complete(a).unwrap();
        assert_eq!(live(&g), HashSet::from([RegionId(0)]));

        // Region 0 is live but declared zero-sized.
        let s = sizes(&[(0, 0)]);
        assert_eq!(task_declared_volume(&g, &s), Bytes::ZERO);
        assert_eq!(reduction_factor(&g, &s), None);

        // Same with the region missing from the size map entirely (it
        // defaults to zero bytes).
        let empty = HashMap::new();
        assert_eq!(reduction_factor(&g, &empty), None);
    }

    #[test]
    fn inout_region_stays_live_through_chain() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskDescriptor::named("a"), [(0u64, AccessMode::InOut)]);
        let _b = g.add_task(TaskDescriptor::named("b"), [(0u64, AccessMode::InOut)]);
        g.complete(a).unwrap();
        let s = sizes(&[(0, 50)]);
        assert_eq!(task_declared_volume(&g, &s), Bytes::mib(50));
    }

    #[test]
    fn wide_scratch_graph_shows_large_reduction() {
        // Realistic shape: a big input buffer fans out to 8 workers each
        // with a private scratch region; a reducer consumes 8 small
        // outputs. At the post-worker frontier only the small outputs are
        // live.
        let mut g = TaskGraph::new();
        let producer = g.add_task(TaskDescriptor::named("in"), [(0u64, AccessMode::Out)]);
        let mut outs = Vec::new();
        for i in 0..8u64 {
            let scratch = 100 + i;
            let out = 200 + i;
            let t = g.add_task(
                TaskDescriptor::named(format!("w{i}")),
                [
                    (0u64, AccessMode::In),
                    (scratch, AccessMode::InOut),
                    (out, AccessMode::Out),
                ],
            );
            outs.push((t, out));
        }
        let reducer_inputs: Vec<(u64, AccessMode)> =
            outs.iter().map(|&(_, r)| (r, AccessMode::In)).collect();
        let _reducer = g.add_task(TaskDescriptor::named("reduce"), reducer_inputs);

        let mut s = sizes(&[(0, 1024)]);
        for i in 0..8u64 {
            s.insert(RegionId(100 + i), Bytes::mib(256)); // scratch
            s.insert(RegionId(200 + i), Bytes::mib(4)); // outputs
        }
        g.complete(producer).unwrap();
        for &(t, _) in &outs {
            g.complete(t).unwrap();
        }
        // Live: only the 8 × 4 MiB outputs.
        assert_eq!(task_declared_volume(&g, &s), Bytes::mib(32));
        let factor = reduction_factor(&g, &s).unwrap();
        assert!(factor > 90.0, "factor {factor}");
    }
}
