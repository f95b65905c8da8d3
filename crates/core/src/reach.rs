//! Happens-before reachability over a [`TaskGraph`] — the oracle behind
//! the static race lint in `legato-runtime`.
//!
//! The oracle answers "does task *a* happen before task *b*?" for a
//! chosen set of *source* tasks. It is a bitset transitive closure
//! computed in one pass in id order: every task carries one bit per
//! source, and a task's row is the union of its predecessors' rows plus
//! the predecessors that are themselves sources. Dependence edges always
//! point from an earlier submission to a later one, so id order is a
//! topological order, and no task before the smallest source can be
//! reached: the pass starts there. With `S` sources it costs
//! `O(E · S / 64)` word operations and `O(V · S / 64)` memory over the
//! tasks from the smallest source on. The analyzer narrows `S` to the
//! tasks that actually need transitive resolution (conflicting accessors
//! whose ordering is not witnessed by a direct edge), so on
//! inference-built graphs, where every conflict has a direct edge, the
//! closure is never built and analysis stays linear in the graph.

use crate::graph::TaskGraph;
use crate::task::TaskId;

/// Transitive happens-before closure from a set of source tasks.
///
/// Build one with [`Reachability::over`], then query
/// [`Reachability::reaches`] for any `(source, task)` pair. Queries for
/// a `from` task that was not passed as a source return `false` — the
/// caller owns the source set.
#[derive(Debug, Clone)]
pub struct Reachability {
    /// Words per row: `ceil(sources / 64)`.
    words: usize,
    /// The smallest source: rows and columns start at this task.
    first: usize,
    /// `(n - first) · words` bit matrix, row `t - first` = sources that
    /// happen before `t`.
    bits: Vec<u64>,
    /// Column index of each task from `first` on; `u32::MAX` = not a
    /// source.
    column: Vec<u32>,
}

const NOT_A_SOURCE: u32 = u32::MAX;

impl Reachability {
    /// Compute the closure of `sources` over `graph`.
    ///
    /// Duplicate sources collapse to one column; sources outside the
    /// graph are ignored. The pass walks tasks in id (= topological)
    /// order from the smallest source, so each row is final when
    /// visited.
    #[must_use]
    pub fn over(graph: &TaskGraph, sources: &[TaskId]) -> Self {
        let n = graph.len();
        let first = sources.iter().map(|s| s.index()).min().unwrap_or(n).min(n);
        let mut column = vec![NOT_A_SOURCE; n - first];
        let mut cols = 0u32;
        for s in sources.iter().filter(|s| s.index() < n) {
            let c = &mut column[s.index() - first];
            if *c == NOT_A_SOURCE {
                *c = cols;
                cols += 1;
            }
        }
        let words = (cols as usize).div_ceil(64);
        let mut bits = vec![0u64; column.len() * words];
        if words > 0 {
            for i in first..n {
                let hi = (i - first) * words;
                // Predecessors before `first` reach no source.
                for pred in graph
                    .preds_of(i)
                    .iter()
                    .filter_map(|p| p.index().checked_sub(first))
                {
                    // Row union: everything reaching a predecessor
                    // reaches this task.
                    let lo = pred * words;
                    for w in 0..words {
                        bits[hi + w] |= bits[lo + w];
                    }
                    let col = column[pred];
                    if col != NOT_A_SOURCE {
                        bits[hi + (col as usize) / 64] |= 1u64 << (col % 64);
                    }
                }
            }
        }
        Reachability {
            words,
            first,
            bits,
            column,
        }
    }

    /// Whether `from` (a source) happens strictly before `to`: a
    /// dependence path `from → … → to` exists. `false` when `from` was
    /// not passed as a source, when either id is out of range, or when
    /// `from == to`.
    #[must_use]
    pub fn reaches(&self, from: TaskId, to: TaskId) -> bool {
        let (Some(from), Some(to)) = (
            from.index().checked_sub(self.first),
            to.index().checked_sub(self.first),
        ) else {
            return false;
        };
        let Some(&col) = self.column.get(from) else {
            return false;
        };
        if col == NOT_A_SOURCE || to >= self.column.len() {
            return false;
        }
        let word = self.bits[to * self.words + (col as usize) / 64];
        word & (1u64 << (col % 64)) != 0
    }
}

/// Check whether `pred` is a *direct* predecessor of `task` — the cheap
/// ordering witness the analyzer tries before falling back to the
/// transitive closure. Predecessor lists are sorted by construction, so
/// this is a binary search.
#[must_use]
pub fn has_direct_edge(graph: &TaskGraph, pred: TaskId, task: TaskId) -> bool {
    task.index() < graph.len() && graph.preds_of(task.index()).binary_search(&pred).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{AccessMode, TaskDescriptor};

    fn desc(name: &'static str) -> TaskDescriptor {
        TaskDescriptor::named(name)
    }

    /// diamond: a → {b, c} → d, via inferred dependences.
    fn diamond() -> (TaskGraph, [TaskId; 4]) {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(0u64, AccessMode::In), (1u64, AccessMode::Out)]);
        let c = g.add_task(desc("c"), [(0u64, AccessMode::In), (2u64, AccessMode::Out)]);
        let d = g.add_task(desc("d"), [(1u64, AccessMode::In), (2u64, AccessMode::In)]);
        (g, [a, b, c, d])
    }

    #[test]
    fn transitive_closure_over_diamond() {
        let (g, [a, b, c, d]) = diamond();
        let r = Reachability::over(&g, &[a, b, c, d]);
        assert!(r.reaches(a, b) && r.reaches(a, c) && r.reaches(a, d));
        assert!(r.reaches(b, d) && r.reaches(c, d));
        assert!(!r.reaches(b, c) && !r.reaches(c, b));
        assert!(!r.reaches(d, a));
        assert!(!r.reaches(a, a), "happens-before is strict");
    }

    #[test]
    fn non_sources_never_reach() {
        let (g, [a, _, _, d]) = diamond();
        let r = Reachability::over(&g, &[a]);
        assert!(r.reaches(a, d));
        assert!(!r.reaches(d, a), "d was not a source");
        assert!(!r.reaches(TaskId(99), a), "out of range");
    }

    #[test]
    fn empty_source_set_is_free_and_inert() {
        let (g, [a, _, _, d]) = diamond();
        let r = Reachability::over(&g, &[]);
        assert!(!r.reaches(a, d));
    }

    #[test]
    fn direct_edges_are_found_without_the_closure() {
        let (g, [a, b, c, d]) = diamond();
        assert!(has_direct_edge(&g, a, b));
        assert!(has_direct_edge(&g, c, d));
        assert!(!has_direct_edge(&g, a, d), "only transitive");
        assert!(!has_direct_edge(&g, b, c));
    }

    #[test]
    fn explicit_deps_participate_in_the_closure() {
        let mut g = TaskGraph::new();
        let a = g
            .add_task_with_deps(desc("a"), [(0u64, AccessMode::Out)], &[])
            .expect("no deps");
        let b = g
            .add_task_with_deps(desc("b"), [(0u64, AccessMode::Out)], &[])
            .expect("no deps");
        let c = g
            .add_task_with_deps(desc("c"), [(0u64, AccessMode::In)], &[a])
            .expect("a exists");
        let r = Reachability::over(&g, &[a, b]);
        assert!(r.reaches(a, c));
        assert!(!r.reaches(a, b) && !r.reaches(b, a), "the two writers race");
        assert!(!r.reaches(b, c));
    }

    #[test]
    fn the_pass_starts_at_the_smallest_source() {
        // A chain 0 → 1 → … → 99, every task from 10 on a source: more
        // than one word per row, and no row before task 10.
        let mut g = TaskGraph::new();
        for _ in 0..100 {
            g.add_task(desc("t"), [(0u64, AccessMode::InOut)]);
        }
        let sources: Vec<TaskId> = (10..100).map(TaskId).collect();
        let r = Reachability::over(&g, &sources);
        for i in 10..100 {
            for j in 0..100 {
                assert_eq!(r.reaches(TaskId(i), TaskId(j)), i < j, "{i} -> {j}");
            }
        }
        assert!(!r.reaches(TaskId(3), TaskId(50)), "3 was not a source");
        assert!(!r.reaches(TaskId(10), TaskId(100)), "out of range");
    }
}
