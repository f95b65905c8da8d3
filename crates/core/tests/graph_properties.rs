//! Property-based tests of the dataflow graph invariants.
//!
//! These encode the contracts every downstream crate relies on: the graph is
//! acyclic, dependences only point backwards in submission order, executing
//! in ready order always drains the graph, RAW serialization holds for
//! every region, and the incremental live-region view matches a
//! from-scratch recomputation through any lifetime, and every submission
//! path (streamed, bulk, bulk onto a streamed prefix) builds the same graph.

use std::collections::HashSet;

use legato_core::graph::{Frontier, GraphBuilder, TaskGraph, TaskState};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskId};
use proptest::prelude::*;

/// A random access declaration: small region space to force conflicts.
fn access_strategy() -> impl Strategy<Value = (u64, AccessMode)> {
    (
        0u64..6,
        prop_oneof![
            Just(AccessMode::In),
            Just(AccessMode::Out),
            Just(AccessMode::InOut)
        ],
    )
}

fn accesses_strategy() -> impl Strategy<Value = Vec<(u64, AccessMode)>> {
    prop::collection::vec(access_strategy(), 0..4)
}

fn graph_strategy() -> impl Strategy<Value = Vec<Vec<(u64, AccessMode)>>> {
    prop::collection::vec(accesses_strategy(), 1..40)
}

fn build(tasks: &[Vec<(u64, AccessMode)>]) -> TaskGraph {
    let mut g = TaskGraph::new();
    for (i, acc) in tasks.iter().enumerate() {
        g.add_task(TaskDescriptor::named(format!("t{i}")), acc.iter().copied());
    }
    g
}

proptest! {
    /// Every dependence edge points from an earlier task to a later one,
    /// which guarantees acyclicity.
    #[test]
    fn edges_point_forward(tasks in graph_strategy()) {
        let g = build(&tasks);
        for i in 0..g.len() {
            let id = TaskId(i as u64);
            for &p in g.predecessors(id).unwrap() {
                prop_assert!(p < id, "predecessor {p} of {id} is not earlier");
            }
            for &s in g.successors(id).unwrap() {
                prop_assert!(s > id, "successor {s} of {id} is not later");
            }
        }
    }

    /// Repeatedly completing any ready task drains the whole graph — no
    /// deadlock, no lost wakeups.
    #[test]
    fn ready_order_execution_drains(tasks in graph_strategy()) {
        let mut g = build(&tasks);
        let mut done = 0usize;
        while !g.is_complete() {
            let ready = g.ready();
            prop_assert!(!ready.is_empty(), "graph stuck with {done} done of {}", g.len());
            // Complete the *last* ready task to vary order vs submission.
            let pick = *ready.last().unwrap();
            g.complete(pick).unwrap();
            done += 1;
        }
        prop_assert_eq!(done, g.len());
    }

    /// Predecessor and successor lists agree (edge symmetry).
    #[test]
    fn edge_symmetry(tasks in graph_strategy()) {
        let g = build(&tasks);
        for i in 0..g.len() {
            let id = TaskId(i as u64);
            for &p in g.predecessors(id).unwrap() {
                prop_assert!(g.successors(p).unwrap().contains(&id));
            }
            for &s in g.successors(id).unwrap() {
                prop_assert!(g.predecessors(s).unwrap().contains(&id));
            }
        }
    }

    /// For every region, two consecutive writers are ordered by a dependence
    /// path (write serialization).
    #[test]
    fn writers_of_same_region_are_ordered(tasks in graph_strategy()) {
        let g = build(&tasks);
        // Collect writers per region in submission order.
        let mut writers: std::collections::HashMap<u64, Vec<TaskId>> = Default::default();
        for (i, acc) in tasks.iter().enumerate() {
            let id = TaskId(i as u64);
            if acc.iter().any(|(_, m)| m.writes()) {
                for (r, m) in acc {
                    if m.writes() {
                        writers.entry(*r).or_default().push(id);
                    }
                }
            }
        }
        for (_region, ws) in writers {
            for pair in ws.windows(2) {
                if pair[0] == pair[1] { continue; }
                prop_assert!(
                    path_exists(&g, pair[0], pair[1]),
                    "no path {} -> {}", pair[0], pair[1]
                );
            }
        }
    }

    /// Failing the first task poisons exactly the set of tasks reachable
    /// from it, and each poisoned task's root cause is that task.
    #[test]
    fn poison_matches_reachability(tasks in graph_strategy()) {
        let mut g = build(&tasks);
        let reachable = reachable_set(&g, TaskId(0));
        let poisoned = g.fail(TaskId(0)).unwrap();
        let poisoned_set: std::collections::HashSet<TaskId> =
            poisoned.iter().copied().collect();
        prop_assert_eq!(&poisoned_set, &reachable);
        for p in &poisoned {
            prop_assert_eq!(g.state(*p).unwrap(), TaskState::Poisoned);
            let causes = g.root_cause(*p).unwrap();
            prop_assert_eq!(causes, vec![TaskId(0)]);
        }
    }

    /// The critical path cost never exceeds total work and is at least the
    /// most expensive single task.
    #[test]
    fn critical_path_bounds(tasks in graph_strategy()) {
        let g = build(&tasks);
        let cost = |id: TaskId, _d: &TaskDescriptor| 1.0 + (id.0 % 5) as f64;
        let (len, path) = g.critical_path(cost).unwrap();
        let total = g.total_cost(cost);
        let max_single = (0..g.len() as u64)
            .map(|i| cost(TaskId(i), g.descriptor(TaskId(i)).unwrap()))
            .fold(0.0_f64, f64::max);
        prop_assert!(len <= total + 1e-9);
        prop_assert!(len >= max_single - 1e-9);
        // Path must follow dependence edges.
        for w in path.windows(2) {
            prop_assert!(g.predecessors(w[1]).unwrap().contains(&w[0]));
        }
    }

    /// Through any interleaving of submissions (inferred, explicit,
    /// bulk-appended, with duplicate declarations), completions,
    /// failures and rollbacks, `live_regions()` is exactly the regions a
    /// from-scratch pass finds live, in first-declaration order, and
    /// `live_region_count()` is its length. Every task a submission adds
    /// depends only on earlier ids, so id order stays an execution order
    /// (what the static analyzer's single pass relies on).
    #[test]
    fn live_regions_match_a_naive_recompute(
        initial in graph_strategy(),
        ops in prop::collection::vec(op_strategy(), 0..60),
    ) {
        let mut g = build(&initial);
        let mut snapshot = g.frontier();
        for op in &ops {
            apply(&mut g, op, &mut snapshot);
            let submits = matches!(
                op,
                Op::Submit(_) | Op::SubmitWithDeps(..) | Op::SubmitDuplicated(_) | Op::Build(_)
            );
            for id in (0..g.len() as u64).filter(|_| submits).map(TaskId) {
                for &p in g.predecessors(id).unwrap() {
                    prop_assert!(p < id, "after {op:?}: predecessor {p} of {id} is not earlier");
                }
            }
            let (got, want) = (g.live_regions().collect::<Vec<_>>(), naive_live(&g));
            prop_assert!(got == want, "after {op:?}: live {got:?}, naive {want:?}");
            prop_assert_eq!(g.live_region_count(), want.len());
        }
    }

    /// Through the same lifetimes, every declaration's slot names its
    /// region in `regions()`, each region holds exactly one slot, and
    /// `live_slots()` names `live_regions()` — what a table indexed by
    /// slot relies on.
    #[test]
    fn access_slots_index_the_region_table(
        initial in graph_strategy(),
        ops in prop::collection::vec(op_strategy(), 0..60),
    ) {
        let mut g = build(&initial);
        let mut snapshot = g.frontier();
        for op in &ops {
            apply(&mut g, op, &mut snapshot);
            let regions = g.regions();
            let distinct: HashSet<RegionId> = regions.iter().copied().collect();
            prop_assert!(distinct.len() == regions.len(), "after {op:?}: {regions:?}");
            for id in (0..g.len() as u64).map(TaskId) {
                let slots = g.access_slots(id).unwrap();
                let accesses = g.accesses(id).unwrap();
                prop_assert_eq!(slots.len(), accesses.len());
                for (&(region, _), &slot) in accesses.iter().zip(slots) {
                    prop_assert!(regions[slot as usize] == region, "after {op:?}: {id} {region}");
                }
            }
            let live: Vec<RegionId> = g.live_slots().map(|s| regions[s as usize]).collect();
            prop_assert_eq!(live, g.live_regions().collect::<Vec<_>>());
        }
    }
}

/// One step of a graph's lifetime; indices pick among the tasks a step
/// applies to.
#[derive(Debug, Clone)]
enum Op {
    Submit(Vec<(u64, AccessMode)>),
    /// Explicit predecessors instead of inferred ones.
    SubmitWithDeps(Vec<(u64, AccessMode)>, Vec<usize>),
    /// Every declaration twice, the copy with a rotated mode.
    SubmitDuplicated(Vec<(u64, AccessMode)>),
    /// Bulk-append through `GraphBuilder::build_into`.
    Build(Vec<Vec<(u64, AccessMode)>>),
    Complete(usize),
    Fail(usize),
    Snapshot,
    /// Back to the last snapshot.
    Rollback,
    /// To these tasks as listed: often not closed, hence refused.
    RollbackRaw(Vec<usize>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let picks = || prop::collection::vec(0usize..64, 0..6);
    prop_oneof![
        accesses_strategy().prop_map(Op::Submit),
        (accesses_strategy(), picks()).prop_map(|(a, d)| Op::SubmitWithDeps(a, d)),
        accesses_strategy().prop_map(Op::SubmitDuplicated),
        prop::collection::vec(accesses_strategy(), 0..6).prop_map(Op::Build),
        (0usize..64).prop_map(Op::Complete),
        (0usize..64).prop_map(Op::Complete),
        (0usize..64).prop_map(Op::Complete),
        (0usize..64).prop_map(Op::Fail),
        Just(Op::Snapshot),
        Just(Op::Rollback),
        picks().prop_map(Op::RollbackRaw),
    ]
}

fn in_state(g: &TaskGraph, wanted: &[TaskState]) -> Vec<TaskId> {
    (0..g.len() as u64)
        .map(TaskId)
        .filter(|&id| wanted.contains(&g.state(id).unwrap()))
        .collect()
}

fn apply(g: &mut TaskGraph, op: &Op, snapshot: &mut Frontier) {
    use TaskState::{Pending, Ready, Running};
    let task = || TaskDescriptor::named("t");
    let pick = |from: Vec<TaskId>, i: usize| (!from.is_empty()).then(|| from[i % from.len()]);
    match op {
        Op::Submit(acc) => {
            g.add_task(task(), acc.iter().copied());
        }
        Op::SubmitWithDeps(acc, picks) => {
            let deps: Vec<TaskId> = picks
                .iter()
                .map(|&p| TaskId((p % g.len()) as u64))
                .collect();
            g.add_task_with_deps(task(), acc.iter().copied(), &deps)
                .unwrap();
        }
        Op::SubmitDuplicated(acc) => {
            let rotate = |m| match m {
                AccessMode::In => AccessMode::Out,
                AccessMode::Out => AccessMode::InOut,
                AccessMode::InOut => AccessMode::In,
            };
            let copy = acc.iter().rev().map(|&(r, m)| (r, rotate(m)));
            g.add_task(task(), acc.iter().copied().chain(copy));
        }
        Op::Build(tasks) => {
            let mut b = GraphBuilder::new();
            for acc in tasks {
                b.task(task(), acc.iter().copied());
            }
            b.build_into(g);
        }
        Op::Complete(i) => {
            if let Some(id) = pick(in_state(g, &[Ready, Running]), *i) {
                g.complete(id).unwrap();
            }
        }
        Op::Fail(i) => {
            if let Some(id) = pick(in_state(g, &[Pending, Ready, Running]), *i) {
                g.fail(id).unwrap();
            }
        }
        Op::Snapshot => *snapshot = g.frontier(),
        Op::Rollback => {
            // Refused when an explicit task completed past a failed
            // dependence: the frontier is then not closed.
            let _ = g.rollback_to(snapshot);
        }
        Op::RollbackRaw(picks) => {
            let listed: Vec<TaskId> = picks
                .iter()
                .map(|&p| TaskId((p % g.len()) as u64))
                .collect();
            let _ = g.rollback(&listed);
        }
    }
}

/// The live regions by definition — written by a completed task and read
/// by a pending, ready or running one — in the order tasks first declared
/// them.
fn naive_live(g: &TaskGraph) -> Vec<RegionId> {
    let mut order = Vec::new();
    let (mut written, mut read) = (HashSet::new(), HashSet::new());
    for i in 0..g.len() as u64 {
        let state = g.state(TaskId(i)).unwrap();
        for &(r, m) in g.accesses(TaskId(i)).unwrap() {
            if !order.contains(&r) {
                order.push(r);
            }
            match state {
                TaskState::Completed if m.writes() => {
                    written.insert(r);
                }
                TaskState::Pending | TaskState::Ready | TaskState::Running if m.reads() => {
                    read.insert(r);
                }
                _ => {}
            }
        }
    }
    order.retain(|r| written.contains(r) && read.contains(r));
    order
}

fn reachable_set(g: &TaskGraph, from: TaskId) -> std::collections::HashSet<TaskId> {
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![from];
    while let Some(t) = stack.pop() {
        for &s in g.successors(t).unwrap() {
            if seen.insert(s) {
                stack.push(s);
            }
        }
    }
    seen
}

fn path_exists(g: &TaskGraph, from: TaskId, to: TaskId) -> bool {
    reachable_set(g, from).contains(&to)
}

/// A task's declarations with, on `dup`, every one repeated in a
/// rotated mode, so collapsing duplicates to the joined mode is always
/// exercised.
fn declarations(acc: &[(u64, AccessMode)], dup: bool) -> Vec<(u64, AccessMode)> {
    let rotate = |m| match m {
        AccessMode::In => AccessMode::Out,
        AccessMode::Out => AccessMode::InOut,
        AccessMode::InOut => AccessMode::In,
    };
    let copies = acc.iter().rev().map(|&(r, m)| (r, rotate(m)));
    acc.iter()
        .copied()
        .chain(copies.take(if dup { acc.len() } else { 0 }))
        .collect()
}

/// A task's declarations collapsed by hand: one entry per region, in
/// first-declaration order, with the join of its modes.
fn collapsed(acc: &[(u64, AccessMode)]) -> Vec<(RegionId, AccessMode)> {
    let mut out: Vec<(RegionId, AccessMode)> = Vec::new();
    for &(r, m) in acc {
        match out.iter_mut().find(|(seen, _)| *seen == RegionId(r)) {
            Some(entry) => entry.1 = entry.1.join(m),
            None => out.push((RegionId(r), m)),
        }
    }
    out
}

/// Task `i`'s descriptor, distinct per task.
fn descriptor(i: usize) -> TaskDescriptor {
    TaskDescriptor::named(format!("t{i}")).with_work(legato_core::task::Work::flops(i as f64))
}

proptest! {
    /// Streamed `add_task`, `GraphBuilder::build`, and `build_into` onto
    /// a streamed prefix cut anywhere build the same graph: the same
    /// predecessors, ascending successors, collapsed accesses,
    /// descriptors, ready set and edge count.
    #[test]
    fn every_submission_path_builds_the_same_graph(
        tasks in prop::collection::vec((accesses_strategy(), any::<bool>()), 1..40),
        cut in 0usize..64,
    ) {
        let tasks: Vec<Vec<(u64, AccessMode)>> =
            tasks.iter().map(|(acc, dup)| declarations(acc, *dup)).collect();
        let mut streamed = TaskGraph::new();
        let mut builder = GraphBuilder::new();
        for (i, acc) in tasks.iter().enumerate() {
            streamed.add_task(descriptor(i), acc.iter().copied());
            builder.task(descriptor(i), acc.iter().copied());
        }
        let built = builder.build();
        let cut = cut % (tasks.len() + 1);
        let mut hybrid = TaskGraph::new();
        for (i, acc) in tasks[..cut].iter().enumerate() {
            hybrid.add_task(descriptor(i), acc.iter().copied());
        }
        let mut tail = GraphBuilder::new();
        for (i, acc) in tasks.iter().enumerate().skip(cut) {
            tail.task(descriptor(i), acc.iter().copied());
        }
        tail.build_into(&mut hybrid);

        for g in [&built, &hybrid] {
            prop_assert_eq!(g.len(), streamed.len());
            prop_assert_eq!(g.edge_count(), streamed.edge_count());
            prop_assert_eq!(g.ready(), streamed.ready());
        }
        for (i, acc) in tasks.iter().enumerate() {
            let id = TaskId(i as u64);
            let succs = streamed.successors(id).unwrap();
            prop_assert!(succs.windows(2).all(|w| w[0] < w[1]), "{id}: {succs:?}");
            prop_assert_eq!(streamed.accesses(id).unwrap(), &collapsed(acc)[..]);
            prop_assert_eq!(streamed.descriptor(id).unwrap(), &descriptor(i));
            for g in [&built, &hybrid] {
                prop_assert_eq!(g.predecessors(id).unwrap(), streamed.predecessors(id).unwrap());
                prop_assert_eq!(g.successors(id).unwrap(), succs);
                prop_assert_eq!(g.accesses(id).unwrap(), streamed.accesses(id).unwrap());
                prop_assert_eq!(g.descriptor(id).unwrap(), &descriptor(i));
            }
        }
    }
}
