//! Differential rollback ≡ from-scratch rollback.
//!
//! [`rebuild`] is the whole-graph rollback `TaskGraph::rollback` used to
//! be — clear every state, count, bitmap and per-slot liveness counter,
//! then recompute all of them from the kept set — kept here as the reference
//! the differential [`TaskGraph::rollback_to`] is compared against.

use std::collections::HashSet;

use proptest::prelude::*;

use super::*;

/// Restore `completed` by rebuilding everything: O(V + E + accesses).
fn rebuild(g: &mut TaskGraph, completed: &[TaskId]) -> Result<Vec<TaskId>, CoreError> {
    let mut keep = vec![false; g.len()];
    for &id in completed {
        g.index(id)?;
        keep[id.index()] = true;
    }
    for &id in completed {
        if g.preds_of(id.index()).iter().any(|p| !keep[p.index()]) {
            return Err(CoreError::InvalidTransition {
                task: id,
                reason: OPEN_FRONTIER,
            });
        }
    }
    g.ready_bits.iter_mut().for_each(|w| *w = 0);
    g.ready_count = 0;
    g.completed_bits.iter_mut().for_each(|w| *w = 0);
    g.completed_count = 0;
    g.liveness.fill(RegionLiveness::default());
    g.live_bits.fill(0);
    g.live_count = 0;
    let mut ready = Vec::new();
    for i in 0..g.len() {
        let id = TaskId(i as u64);
        if keep[i] {
            g.states[i] = TaskState::Completed;
            g.insert_completed(id);
            continue;
        }
        let unmet = g.preds_of(i).iter().filter(|p| !keep[p.index()]).count();
        g.unmet[i] = arena_pos(unmet);
        if unmet == 0 {
            g.states[i] = TaskState::Ready;
            g.insert_ready(id);
            ready.push(id);
        } else {
            g.states[i] = TaskState::Pending;
        }
    }
    for (span, &completed) in g.accesses.iter().zip(&keep) {
        for a in span.range() {
            let mode = g.access_arena[a].1;
            let live = &mut g.liveness[g.access_slots[a] as usize];
            if completed && mode.writes() {
                live.writers_done += 1;
            }
            if !completed && mode.reads() {
                live.readers_outstanding += 1;
            }
        }
    }
    for (slot, l) in g.liveness.iter().enumerate() {
        if l.is_live() {
            g.live_bits[slot / 64] |= 1 << (slot % 64);
            g.live_count += 1;
        }
    }
    Ok(ready)
}

/// Everything a caller (or the next transition) can observe of a graph's
/// execution state. `unmet` is compared for unfinished tasks only: for a
/// completed task it is dead until a rollback recomputes it.
#[derive(Debug, PartialEq)]
struct Observed {
    states: Vec<TaskState>,
    unmet: Vec<Option<u32>>,
    ready: Vec<TaskId>,
    completed: Vec<TaskId>,
    counts: (usize, usize, usize),
    live: Vec<RegionId>,
}

fn observe(g: &TaskGraph) -> Observed {
    let pending = |(s, &u): (&TaskState, &u32)| (!s.is_terminal()).then_some(u);
    Observed {
        states: g.states.clone(),
        unmet: g.states.iter().zip(&g.unmet).map(pending).collect(),
        ready: g.ready(),
        completed: g.completed(),
        counts: (g.ready_count(), g.completed_count(), g.live_region_count()),
        live: g.live_regions().collect(),
    }
}

type Accesses = Vec<(u64, AccessMode)>;

/// Small region space to force conflicts.
fn accesses_strategy() -> impl Strategy<Value = Accesses> {
    let mode = prop_oneof![
        Just(AccessMode::In),
        Just(AccessMode::Out),
        Just(AccessMode::InOut)
    ];
    prop::collection::vec((0u64..6, mode), 0..4)
}

/// One step of a partial execution; `pick` selects among the tasks the
/// step applies to.
#[derive(Debug, Clone)]
enum Op {
    Claim(usize),
    Complete(usize),
    Fail(usize),
    Submit(Accesses),
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64).prop_map(Op::Claim),
        (0usize..64).prop_map(Op::Complete),
        (0usize..64).prop_map(Op::Complete),
        (0usize..64).prop_map(Op::Complete),
        (0usize..64).prop_map(Op::Fail),
        accesses_strategy().prop_map(Op::Submit),
        Just(Op::Snapshot),
    ]
}

fn in_state(g: &TaskGraph, wanted: &[TaskState]) -> Vec<TaskId> {
    let ids = (0..g.len()).map(|i| TaskId(i as u64));
    ids.filter(|id| wanted.contains(&g.states[id.index()]))
        .collect()
}

/// Drive `g` through `ops`; returns the last frontier snapshot taken.
fn execute(g: &mut TaskGraph, ops: &[Op]) -> Frontier {
    use TaskState::{Pending, Ready, Running};
    let mut snapshot = g.frontier();
    for op in ops {
        match op {
            Op::Claim(pick) => {
                let ready = g.ready();
                if !ready.is_empty() {
                    g.start(ready[pick % ready.len()]).unwrap();
                }
            }
            Op::Complete(pick) => {
                let runnable = in_state(g, &[Ready, Running]);
                if !runnable.is_empty() {
                    g.complete(runnable[pick % runnable.len()]).unwrap();
                }
            }
            Op::Fail(pick) => {
                let open = in_state(g, &[Pending, Ready, Running]);
                if !open.is_empty() {
                    g.fail(open[pick % open.len()]).unwrap();
                }
            }
            Op::Submit(accesses) => {
                g.add_task(TaskDescriptor::named("late"), accesses.iter().copied());
            }
            Op::Snapshot => snapshot = g.frontier(),
        }
    }
    snapshot
}

/// The target of one rollback, by construction.
#[derive(Debug, Clone)]
enum Target {
    /// The last frontier snapshot the execution took: a subset of the
    /// live completed set, short of any task submitted since.
    Snapshot,
    /// The dependence closure of these picks: closed, but unrelated to
    /// what is completed now.
    Closure(Vec<usize>),
    /// These picks as listed — usually open, in no order, with
    /// duplicates — plus an id past the graph when `unknown`.
    Raw(Vec<usize>, bool),
}

fn target_strategy() -> impl Strategy<Value = Target> {
    let picks = || prop::collection::vec(0usize..64, 0..12);
    prop_oneof![
        Just(Target::Snapshot),
        picks().prop_map(Target::Closure),
        (picks(), any::<bool>()).prop_map(|(p, unknown)| Target::Raw(p, unknown)),
    ]
}

fn closure(g: &TaskGraph, picks: &[usize]) -> Vec<TaskId> {
    let mut kept = HashSet::new();
    let mut stack: Vec<TaskId> = picks.iter().map(|p| TaskId((p % g.len()) as u64)).collect();
    while let Some(id) = stack.pop() {
        if kept.insert(id) {
            stack.extend_from_slice(g.preds_of(id.index()));
        }
    }
    kept.into_iter().collect()
}

proptest! {
    /// Whatever partial execution the graph is in and whatever frontier
    /// it is sent to, the differential rollback lands in the state the
    /// whole-graph rebuild computes — or refuses with the same error and
    /// leaves the graph as it was.
    #[test]
    fn differential_rollback_matches_the_rebuild(
        initial in prop::collection::vec(accesses_strategy(), 1..40),
        ops in prop::collection::vec(op_strategy(), 0..60),
        target in target_strategy(),
        more in prop::collection::vec(op_strategy(), 0..20),
    ) {
        let mut g = TaskGraph::new();
        for accesses in &initial {
            g.add_task(TaskDescriptor::named("t"), accesses.iter().copied());
        }
        let snapshot = execute(&mut g, &ops);
        let before = observe(&g);
        let mut reference = g.clone();

        let (got, listed) = match &target {
            Target::Snapshot => {
                let listed = collect_bits(&snapshot.bits, snapshot.count);
                (g.rollback_to(&snapshot), listed)
            }
            Target::Closure(picks) => {
                let listed = closure(&g, picks);
                (g.rollback(&listed), listed)
            }
            Target::Raw(picks, unknown) => {
                let mut listed: Vec<TaskId> =
                    picks.iter().map(|p| TaskId((p % g.len()) as u64)).collect();
                if *unknown {
                    listed.push(TaskId((g.len() + picks.len()) as u64));
                }
                (g.rollback(&listed), listed)
            }
        };
        let want = rebuild(&mut reference, &listed);
        prop_assert_eq!(&got, &want);
        if want.is_ok() {
            prop_assert_eq!(observe(&g), observe(&reference));
            // The two graphs stay in step through whatever runs next,
            // another rollback to the same snapshot included.
            execute(&mut g, &more);
            execute(&mut reference, &more);
            prop_assert_eq!(observe(&g), observe(&reference));
            if g.rollback_to(&snapshot).is_ok() {
                let listed = collect_bits(&snapshot.bits, snapshot.count);
                rebuild(&mut reference, &listed).unwrap();
                prop_assert_eq!(observe(&g), observe(&reference));
            }
        } else {
            prop_assert_eq!(observe(&g), before);
        }
    }
}

/// A frontier taken from a larger graph names tasks this one lacks.
#[test]
fn frontier_past_the_graph_is_an_unknown_task() {
    let mut big = TaskGraph::new();
    for _ in 0..130 {
        big.add_task(TaskDescriptor::named("t"), [(0u64, AccessMode::In)]);
    }
    big.complete(TaskId(3)).unwrap();
    big.complete(TaskId(70)).unwrap();
    big.complete(TaskId(129)).unwrap();
    let mut small = TaskGraph::new();
    for _ in 0..70 {
        small.add_task(TaskDescriptor::named("t"), [(0u64, AccessMode::In)]);
    }
    let err = small.rollback_to(&big.frontier()).unwrap_err();
    assert_eq!(err, CoreError::UnknownTask(TaskId(70)));
    assert_eq!(small.completed_count(), 0);
}
