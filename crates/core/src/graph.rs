//! Dataflow task graph with OmpSs-style dependence inference.
//!
//! Tasks are appended in program order with their `(region, mode)` access
//! declarations; the graph inserts read-after-write, write-after-read and
//! write-after-write edges automatically. Because edges always point from an
//! earlier submission to a later one, the graph is acyclic by construction.
//!
//! Beyond scheduling (ready set maintenance), the graph supports the two
//! fault-tolerance analyses the paper assigns to the task model (§I):
//!
//! * **error propagation across task boundaries** — [`TaskGraph::fail`]
//!   poisons every transitive successor of a failed task;
//! * **failure root-cause analysis** — [`TaskGraph::root_cause`] walks the
//!   dependence edges backwards from a poisoned task to the failed
//!   ancestors that explain it.

use std::collections::hash_map::{Entry, HashMap};

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::task::{AccessMode, RegionId, TaskDescriptor, TaskId};

/// Lifecycle state of a task inside the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskState {
    /// Waiting for predecessors.
    Pending,
    /// All predecessors completed; eligible to run.
    Ready,
    /// Claimed by a scheduler (between [`TaskGraph::start`] and
    /// [`TaskGraph::complete`]).
    Running,
    /// Finished successfully.
    Completed,
    /// Finished with an error.
    Failed,
    /// A transitive predecessor failed; the task's inputs are suspect.
    Poisoned,
}

impl TaskState {
    /// Whether the task has reached a terminal state.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            TaskState::Completed | TaskState::Failed | TaskState::Poisoned
        )
    }

    /// Whether a rollback has to re-arm the task whatever the frontier
    /// says about completions: claimed, or written off.
    fn is_unsettled(self) -> bool {
        matches!(
            self,
            TaskState::Running | TaskState::Failed | TaskState::Poisoned
        )
    }
}

/// A restore target for [`TaskGraph::rollback_to`]: the set of tasks that
/// were [`TaskState::Completed`] when [`TaskGraph::frontier`] took it, as
/// one bit per task. Taking one copies n/64 words; it stays valid as the
/// graph grows (later submissions are simply not in it). A frontier that
/// accumulates instead — a session's sealed set — starts empty
/// ([`Frontier::default`]) and grows by [`Frontier::insert`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frontier {
    bits: Vec<u64>,
    /// Number of set bits.
    count: usize,
}

impl Frontier {
    /// Whether `id` is in the frontier.
    #[must_use]
    pub fn contains(&self, id: TaskId) -> bool {
        self.word(id.index() / 64) >> (id.index() % 64) & 1 == 1
    }

    /// Number of tasks in the frontier.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the frontier holds no task.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Word `w` of the bitmap; zero past the graph size at snapshot time.
    fn word(&self, w: usize) -> u64 {
        self.bits.get(w).copied().unwrap_or(0)
    }

    /// The lowest task in the frontier whose index is `n` or more.
    fn first_at_or_after(&self, n: usize) -> Option<TaskId> {
        (n / 64..self.bits.len()).find_map(|w| {
            let from = if w == n / 64 { n % 64 } else { 0 };
            let word = self.bits[w] >> from << from;
            (word != 0).then(|| TaskId((w * 64) as u64 + u64::from(word.trailing_zeros())))
        })
    }

    /// Add `id` (no-op if present), growing the bitmap to span it.
    pub fn insert(&mut self, id: TaskId) {
        let (w, mask) = (id.index() / 64, 1u64 << (id.index() % 64));
        if w >= self.bits.len() {
            self.bits.resize(w + 1, 0);
        }
        self.count += usize::from(self.bits[w] & mask == 0);
        self.bits[w] |= mask;
    }
}

/// Why [`TaskGraph::rollback_to`] refuses a frontier.
const OPEN_FRONTIER: &str = "checkpoint frontier is not closed under dependences";

/// Half-open window into one of the graph's flat arenas. Positions are
/// `u32`: an arena holds fewer than 2^32 entries (see [`arena_pos`]).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    #[inline]
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Successor window with growth capacity: streaming submission cannot
/// know a task's out-degree in advance, so successor spans relocate to
/// the end of the arena when they fill, their capacity going 0 → 1 → 2
/// → 4 → … (amortized O(1) per edge, like `Vec` push but without a heap
/// allocation per task, and a task with one successor holds one slot).
/// [`GraphBuilder`] bypasses the growth path entirely with an
/// exactly-sized two-pass layout.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct SuccSpan {
    start: u32,
    len: u32,
    cap: u32,
}

impl SuccSpan {
    #[inline]
    fn range(self) -> std::ops::Range<usize> {
        let (start, len) = (self.start, self.len);
        Span { start, len }.range()
    }
}

/// Bytes the graph keeps per task in its columns: descriptor, the three
/// spans, unmet count and state. DESIGN.md §8 ("Where the memory goes")
/// budgets them; a field added to the descriptor or a span fails the
/// build here instead of drifting the runtime cost ledger's "10k chains"
/// peak, and a new column belongs in this sum.
const TASK_COLUMN_BYTES: usize = size_of::<TaskDescriptor>()
    + 2 * size_of::<Span>()
    + size_of::<SuccSpan>()
    + size_of::<u32>()
    + size_of::<TaskState>();
const _: () = assert!(
    TASK_COLUMN_BYTES <= 81,
    "DESIGN.md §8: graph columns ≤ 81 B/task"
);

/// `n` as an arena position or task count.
#[inline]
fn arena_pos(n: usize) -> u32 {
    u32::try_from(n).expect("fewer than 2^32 arena entries")
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct RegionHistory {
    last_writer: Option<TaskId>,
    readers_since_write: Vec<TaskId>,
}

/// Per-slot liveness counters, maintained incrementally on every task
/// state transition. A region is *live* — must be checkpointed at the
/// current frontier — iff `writers_done ≥ 1` (a completed task produced
/// it) and `readers_outstanding ≥ 1` (an unfinished task still needs it).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct RegionLiveness {
    /// Completed tasks (access declarations) that write the region.
    writers_done: usize,
    /// Read declarations by tasks in `Pending`/`Ready`/`Running` state.
    readers_outstanding: usize,
}

impl RegionLiveness {
    fn is_live(self) -> bool {
        self.writers_done >= 1 && self.readers_outstanding >= 1
    }
}

/// A dynamic dataflow DAG over [`TaskDescriptor`]s.
///
/// See the [crate-level example](crate) for typical use.
///
/// Per-task state is columnar: one dense vector per field, indexed by
/// task id. The engine's readiness-order (i.e. random-order) walks
/// touch only the columns a transition needs — state, unmet count,
/// successor span — instead of dragging a whole task record through
/// the cache. Edge and access lists are spans into shared flat arenas
/// (CSR layout) rather than heap `Vec`s per task, so a 1M-task build
/// performs a handful of arena growths instead of millions of small
/// allocations.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TaskGraph {
    /// Descriptor of each task: the cold column, read when a task is
    /// claimed and by reports. [`GraphBuilder::build_into`] moves the
    /// builder's vector in whole when the graph is empty.
    descriptors: Vec<TaskDescriptor>,
    /// Predecessor window of each task in `pred_arena`.
    preds: Vec<Span>,
    /// Successor window of each task in `succ_arena`.
    succs: Vec<SuccSpan>,
    /// Declaration window of each task in `access_arena`.
    accesses: Vec<Span>,
    /// Lifecycle state per task — the hottest column in the graph,
    /// touched 3–5 times per task per run.
    states: Vec<TaskState>,
    /// Outstanding-dependence count per task.
    unmet: Vec<u32>,
    /// Region interner: the dense slot each region was given when a task
    /// first declared it. The graph's one `RegionId`-keyed table, probed
    /// once per access at submission and never on a state transition.
    slot_of: HashMap<RegionId, u32>,
    /// Region of each slot (the inverse of `slot_of`), in
    /// first-declaration order.
    slot_region: Vec<RegionId>,
    /// Dependence-inference history per slot.
    history: Vec<RegionHistory>,
    edge_count: usize,
    /// Bitmap over task ids of tasks currently in
    /// [`TaskState::Completed`]. O(1) per transition — crucially,
    /// *independent of completion order*: the event engine completes
    /// tasks in readiness order, where any sorted-list representation
    /// degenerates to an O(n) shift per completion. The checkpoint path
    /// materializes the sorted view from the bitmap in O(n/64 + completed)
    /// only when it snapshots.
    completed_bits: Vec<u64>,
    /// Number of set bits in `completed_bits`.
    completed_count: usize,
    /// Bitmap over task ids of tasks currently in [`TaskState::Ready`]
    /// (one bit per task, word-packed). O(1) insert/remove — the former
    /// sorted-`Vec` representation paid an O(ready) memmove on both
    /// sides of every task lifecycle, which the event engine crosses
    /// once per task.
    ready_bits: Vec<u64>,
    /// Number of set bits in `ready_bits`.
    ready_count: usize,
    /// Liveness refcounts per slot (see [`RegionLiveness`]), updated on
    /// every state transition.
    liveness: Vec<RegionLiveness>,
    /// Bitmap over slots whose counters currently satisfy
    /// [`RegionLiveness::is_live`] — the incremental mirror of the
    /// frontier-liveness analysis, so checkpoint volume queries are
    /// O(regions/64 + live) instead of O(V + E). Grows a word per 64
    /// slots at interning, never on a transition.
    live_bits: Vec<u64>,
    /// Number of set bits in `live_bits`.
    live_count: usize,
    /// Flat predecessor arena (CSR): each task's predecessors occupy a
    /// contiguous [`Span`], fixed at submission time (dependences never
    /// change after inference).
    pred_arena: Vec<TaskId>,
    /// Flat successor arena: [`SuccSpan`]s relocate (capacity 1, 2, 4,
    /// …) when a streaming append outgrows them; holes left behind are
    /// dead space. Bulk builds via [`GraphBuilder`] lay this out
    /// exactly, hole-free.
    succ_arena: Vec<TaskId>,
    /// Flat `(region, mode)` declaration arena.
    access_arena: Vec<(RegionId, AccessMode)>,
    /// Slot of each `access_arena` entry (parallel to it), so the state
    /// transitions index the per-slot arrays instead of hashing.
    access_slots: Vec<u32>,
    /// Reusable scratch for dependence inference (avoids a heap
    /// allocation per submitted task).
    pred_scratch: Vec<TaskId>,
    /// See [`TaskGraph::rollback_visits`].
    rollback_visits: u64,
    /// `(tasks, edges)` reserved but not yet allocated: a reservation
    /// made while the graph is empty waits for the first submission (see
    /// [`TaskGraph::reserve`]).
    reserved: (usize, usize),
}

impl TaskGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// An empty graph pre-sized for `tasks` tasks and roughly `edges`
    /// dependence edges, so a large build never regrows its dense arrays
    /// mid-stream. Per-region tables are *not* pre-sized here (a
    /// [`GraphBuilder`] given a region count pre-sizes them): region
    /// counts are usually far below task counts, and blanket-reserving them for a 1M-task
    /// graph would waste memory.
    #[must_use]
    pub fn with_capacity(tasks: usize, edges: usize) -> Self {
        let mut g = TaskGraph::default();
        g.reserve(tasks, edges);
        g
    }

    /// Pre-size the dense per-task arrays and dependence arenas for
    /// `tasks` additional tasks and roughly `edges` additional edges, on
    /// a graph that may already hold tasks. Streaming a large batch into
    /// a live graph never regrows mid-stream after this.
    ///
    /// On an empty graph nothing is allocated until the first
    /// submission: a streamed task takes the whole reservation, while a
    /// [`GraphBuilder::build_into`] moves the builder's columns in and
    /// keeps only what its batch leaves of the reservation for later
    /// streaming.
    pub fn reserve(&mut self, tasks: usize, edges: usize) {
        if self.is_empty() {
            self.reserved.0 += tasks;
            self.reserved.1 += edges;
        } else {
            self.reserve_now(tasks, edges);
        }
    }

    /// Allocate a reservation [`TaskGraph::reserve`] left waiting.
    fn take_reserved(&mut self) {
        let (tasks, edges) = std::mem::take(&mut self.reserved);
        if tasks > 0 || edges > 0 {
            self.reserve_now(tasks, edges);
        }
    }

    fn reserve_now(&mut self, tasks: usize, edges: usize) {
        self.descriptors.reserve(tasks);
        self.reserve_task_state(tasks);
        self.pred_arena.reserve(edges);
        self.succ_arena.reserve(edges);
        // Access declarations are unknown ahead of time; two per task
        // covers the common read+write shape without overcommitting.
        self.access_arena.reserve(tasks * 2);
        self.access_slots.reserve(tasks * 2);
    }

    /// Pre-size every per-task column but the descriptors, and the two
    /// per-task bitmaps, for `tasks` more tasks.
    fn reserve_task_state(&mut self, tasks: usize) {
        let words = (self.len() + tasks).div_ceil(64);
        self.preds.reserve(tasks);
        self.succs.reserve(tasks);
        self.accesses.reserve(tasks);
        self.states.reserve(tasks);
        self.unmet.reserve(tasks);
        self.ready_bits
            .reserve(words.saturating_sub(self.ready_bits.len()));
        self.completed_bits
            .reserve(words.saturating_sub(self.completed_bits.len()));
    }

    /// Pre-size the region interner and the per-slot history, liveness
    /// and live-bitmap arrays for `regions` more distinct regions, so
    /// submission never rehashes the interner or regrows a slot array.
    fn reserve_regions(&mut self, regions: usize) {
        let words = (self.slot_region.len() + regions).div_ceil(64);
        self.slot_of.reserve(regions);
        self.slot_region.reserve(regions);
        self.history.reserve(regions);
        self.liveness.reserve(regions);
        self.live_bits
            .reserve(words.saturating_sub(self.live_bits.len()));
    }

    /// Number of tasks ever submitted.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether no task has been submitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Number of dependence edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of tasks in [`TaskState::Completed`].
    #[must_use]
    pub fn completed_count(&self) -> usize {
        self.completed_count
    }

    /// Whether every task completed successfully.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completed_count == self.len()
    }

    /// All tasks currently in [`TaskState::Completed`], in submission
    /// order.
    ///
    /// Maintained incrementally as a bitmap by [`TaskGraph::complete`]
    /// and [`TaskGraph::rollback`] (O(1) per transition, regardless of
    /// completion order); materializing the sorted view walks the bitmap
    /// words — O(n/64 + completed), paid only by snapshotters (the
    /// engine's checkpoint path, once per checkpoint), never per event.
    #[must_use]
    pub fn completed(&self) -> Vec<TaskId> {
        collect_bits(&self.completed_bits, self.completed_count)
    }

    /// Regions live at the current execution frontier: written by a
    /// completed task and still read by at least one unfinished
    /// (pending/ready/running) task. Only these need checkpointing —
    /// everything else is either dead or reproducible by re-running
    /// unfinished tasks.
    ///
    /// Maintained incrementally per state transition (O(accesses) per
    /// transition, no hashing), so iterating here walks a bitmap over
    /// regions: O(regions/64 + live) — the property the engine's
    /// per-checkpoint volume pricing relies on. Regions come in
    /// first-declaration order: the order in which submitted tasks first
    /// declared them (submission order, then declaration order within a
    /// task).
    pub fn live_regions(&self) -> impl Iterator<Item = RegionId> + '_ {
        self.live_slots()
            .map(|slot| self.slot_region[slot as usize])
    }

    /// The slots of [`TaskGraph::live_regions`], in the same order.
    pub fn live_slots(&self) -> impl Iterator<Item = u32> + '_ {
        set_bits(&self.live_bits).map(|slot| slot as u32)
    }

    /// Number of regions currently live at the frontier, without
    /// iterating.
    #[must_use]
    pub fn live_region_count(&self) -> usize {
        self.live_count
    }

    /// Submit a task with its data-access declarations, returning its id.
    ///
    /// Dependence edges are inferred against previously submitted tasks:
    ///
    /// * a read of region `r` depends on the last writer of `r` (RAW);
    /// * a write of `r` depends on the last writer (WAW) **and** on every
    ///   reader since that write (WAR).
    ///
    /// Duplicate edges between a task pair are coalesced.
    pub fn add_task<I, R>(&mut self, descriptor: TaskDescriptor, accesses: I) -> TaskId
    where
        I: IntoIterator<Item = (R, AccessMode)>,
        R: Into<RegionId>,
    {
        self.take_reserved();
        let acc = self.append_accesses(accesses);
        self.descriptors.push(descriptor);
        let id = self.push_task_core(acc);
        self.wire_successors(id);
        id
    }

    /// Append a task's declarations to the access arena, returning their
    /// window.
    fn append_accesses<I, R>(&mut self, accesses: I) -> Span
    where
        I: IntoIterator<Item = (R, AccessMode)>,
        R: Into<RegionId>,
    {
        let start = self.access_arena.len();
        self.access_arena
            .extend(accesses.into_iter().map(|(r, m)| (r.into(), m)));
        Span {
            start: arena_pos(start),
            len: arena_pos(self.access_arena.len() - start),
        }
    }

    /// Wire a streamed task into its predecessors' successor lists.
    fn wire_successors(&mut self, id: TaskId) {
        for j in self.preds[id.index()].range() {
            let pred = self.pred_arena[j].index();
            self.succ_push(pred, id);
        }
    }

    /// Submit a task with an *explicit* predecessor list instead of
    /// letting the graph infer dependences from the access declarations.
    ///
    /// This is the submission path for callers that already know (or
    /// claim to know) their task's ordering — a tenant shipping a
    /// pre-built DAG, a replayed trace, a test seeding a specific shape.
    /// The access declarations are still recorded (they drive region
    /// histories, liveness and checkpoint volume, and later *inferred*
    /// tasks will order against this one), but nothing checks that
    /// `deps` actually covers every data conflict: two explicit tasks
    /// writing one region with no path between them is a real race the
    /// graph will happily execute in nondeterministic order. Run such
    /// graphs through the static analyzer (`legato-runtime`'s `analyze`
    /// module) before trusting them.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTask`] if any dependence names a task
    /// not yet in the graph — edges must point from an earlier submission
    /// to a later one, which is also what keeps the graph acyclic by
    /// construction.
    pub fn add_task_with_deps<I, R>(
        &mut self,
        descriptor: TaskDescriptor,
        accesses: I,
        deps: &[TaskId],
    ) -> Result<TaskId, CoreError>
    where
        I: IntoIterator<Item = (R, AccessMode)>,
        R: Into<RegionId>,
    {
        for &d in deps {
            self.index(d)?;
        }
        self.take_reserved();
        let acc = self.append_accesses(accesses);
        let acc = self.collapse_duplicate_accesses(acc);
        let mut deps = deps.to_vec();
        deps.sort_unstable();
        deps.dedup();
        self.descriptors.push(descriptor);
        let id = self.push_task_inner(acc, Some(&deps));
        self.wire_successors(id);
        Ok(id)
    }

    /// Core of task submission: infer dependences for a task whose
    /// descriptor is already in its column and whose access
    /// declarations already sit in the access arena at `acc`, record its
    /// predecessor span, update region histories, liveness and readiness —
    /// but do **not** wire the task into its predecessors' successor
    /// lists. The caller does that: streaming submission wires immediately
    /// (growth spans), while [`GraphBuilder::build_into`] counts
    /// out-degrees first and lays successors out in one exactly-sized
    /// pass.
    fn push_task_core(&mut self, acc: Span) -> TaskId {
        let acc = self.collapse_duplicate_accesses(acc);
        self.push_task_inner(acc, None)
    }

    /// Collapse duplicate declarations of the same region within one
    /// task's access window to the [`AccessMode::join`] of their modes,
    /// compacting the window in place (the span shrinks; freed arena
    /// slots keep their stale values and are never referenced again).
    ///
    /// Without this, a task declaring `(r, In)` and `(r, Out)` would
    /// leave two entries in its access list: inference still computed
    /// the right predecessors (both entries consult the same history),
    /// but every *consumer* of the access list — region-history updates,
    /// liveness counters, checkpoint volume, the static analyzer — saw
    /// the region twice with conflicting modes, and `(r, In)` + `(r,
    /// Out)` double-counted `readers_outstanding` while recording the
    /// task as a plain reader *and* the last writer.
    fn collapse_duplicate_accesses(&mut self, acc: Span) -> Span {
        let window = &mut self.access_arena[acc.range()];
        let mut kept = 0usize;
        for i in 0..window.len() {
            let (region, mode) = window[i];
            if let Some(slot) = window[..kept].iter_mut().find(|(r, _)| *r == region) {
                slot.1 = slot.1.join(mode);
            } else {
                window[kept] = (region, mode);
                kept += 1;
            }
        }
        Span {
            start: acc.start,
            len: arena_pos(kept),
        }
    }

    /// Give every access in the (collapsed) window `acc` its region's
    /// slot in `access_slots` — the one place the graph hashes a region.
    /// A region declared for the first time takes the next slot, which
    /// extends every per-slot array.
    fn intern(&mut self, acc: Span) {
        self.access_slots.resize(self.access_arena.len(), 0);
        for a in acc.range() {
            let region = self.access_arena[a].0;
            self.access_slots[a] = match self.slot_of.entry(region) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let slot = self.slot_region.len();
                    if slot / 64 == self.live_bits.len() {
                        self.live_bits.push(0);
                    }
                    self.slot_region.push(region);
                    self.history.push(RegionHistory::default());
                    self.liveness.push(RegionLiveness::default());
                    *e.insert(u32::try_from(slot).expect("fewer than 2^32 regions"))
                }
            };
        }
    }

    /// Shared tail of task submission: predecessors either inferred from
    /// the access declarations (`explicit == None`) or taken verbatim
    /// from the caller (`Some`, already validated, sorted and deduped).
    fn push_task_inner(&mut self, acc: Span, explicit: Option<&[TaskId]>) -> TaskId {
        let id = TaskId(self.len() as u64);
        self.intern(acc);

        let mut preds = std::mem::take(&mut self.pred_scratch);
        preds.clear();
        if let Some(deps) = explicit {
            preds.extend_from_slice(deps);
        } else {
            for a in acc.range() {
                let mode = self.access_arena[a].1;
                let hist = &self.history[self.access_slots[a] as usize];
                if mode.reads() {
                    if let Some(w) = hist.last_writer {
                        preds.push(w);
                    }
                }
                if mode.writes() {
                    if let Some(w) = hist.last_writer {
                        preds.push(w);
                    }
                    preds.extend(hist.readers_since_write.iter().copied());
                }
            }
        }
        preds.sort_unstable();
        preds.dedup();
        preds.retain(|&p| p != id);
        // Only count predecessors that are still outstanding.
        let unmet = preds
            .iter()
            .filter(|p| !self.states[p.index()].is_terminal())
            .count();

        let pred_span = Span {
            start: arena_pos(self.pred_arena.len()),
            len: arena_pos(preds.len()),
        };
        self.pred_arena.extend_from_slice(&preds);
        self.edge_count += preds.len();
        preds.clear();
        self.pred_scratch = preds;

        if id.index() / 64 == self.ready_bits.len() {
            // One new word per 64 tasks, for both per-task bitmaps.
            self.ready_bits.push(0);
            self.completed_bits.push(0);
        }
        let state = if unmet == 0 {
            self.insert_ready(id);
            TaskState::Ready
        } else {
            TaskState::Pending
        };

        // Update region histories *after* computing dependences.
        for a in acc.range() {
            let mode = self.access_arena[a].1;
            let hist = &mut self.history[self.access_slots[a] as usize];
            if mode.writes() {
                hist.last_writer = Some(id);
                hist.readers_since_write.clear();
            }
            if mode.reads() && !mode.writes() {
                hist.readers_since_write.push(id);
            }
        }
        // The new task is pending or ready: its reads are outstanding.
        for a in acc.range() {
            if self.access_arena[a].1.reads() {
                self.update_liveness(self.access_slots[a], |l| l.readers_outstanding += 1);
            }
        }

        self.states.push(state);
        self.unmet.push(arena_pos(unmet));
        self.preds.push(pred_span);
        self.succs.push(SuccSpan::default());
        self.accesses.push(acc);
        id
    }

    /// Append `id` to task `p`'s successor span, relocating the span to
    /// the arena tail when full: its capacity goes 0 → 1 → 2 → 4 → …, so
    /// a task with one successor (every link of a chain) holds exactly
    /// one slot. Appends arrive in ascending id order (submission
    /// order), and relocation preserves the prefix, so successor lists
    /// stay ascending — a property the runtime's deterministic replay
    /// relies on.
    fn succ_push(&mut self, p: usize, id: TaskId) {
        let s = self.succs[p];
        if s.len < s.cap {
            self.succ_arena[(s.start + s.len) as usize] = id;
            self.succs[p].len += 1;
            return;
        }
        let new_cap = (s.cap * 2).max(1);
        let new_start = self.succ_arena.len();
        self.succ_arena.reserve(new_cap as usize);
        self.succ_arena.extend_from_within(s.range());
        self.succ_arena.push(id);
        self.succ_arena
            .resize(new_start + new_cap as usize, TaskId(0));
        self.succs[p] = SuccSpan {
            start: arena_pos(new_start),
            len: s.len + 1,
            cap: new_cap,
        };
    }

    /// Predecessors of task `i` (by index), borrowed from the arena.
    /// `pub(crate)` so the [`reach`](crate::reach) oracle can walk edges
    /// without per-task `Result` plumbing.
    #[inline]
    pub(crate) fn preds_of(&self, i: usize) -> &[TaskId] {
        &self.pred_arena[self.preds[i].range()]
    }

    /// Successors of task `i` (by index), borrowed from the arena.
    #[inline]
    pub(crate) fn succs_of(&self, i: usize) -> &[TaskId] {
        &self.succ_arena[self.succs[i].range()]
    }

    /// Descriptor of a task.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTask`] for an id outside the graph.
    #[inline]
    pub fn descriptor(&self, id: TaskId) -> Result<&TaskDescriptor, CoreError> {
        Ok(&self.descriptors[self.index(id)?])
    }

    /// Current lifecycle state of a task.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTask`] for an id outside the graph.
    #[inline]
    pub fn state(&self, id: TaskId) -> Result<TaskState, CoreError> {
        self.states
            .get(id.index())
            .copied()
            .ok_or(CoreError::UnknownTask(id))
    }

    /// Direct predecessors (dependences) of a task.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTask`] for an id outside the graph.
    pub fn predecessors(&self, id: TaskId) -> Result<&[TaskId], CoreError> {
        Ok(self.preds_of(self.index(id)?))
    }

    /// Direct successors (dependents) of a task.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTask`] for an id outside the graph.
    pub fn successors(&self, id: TaskId) -> Result<&[TaskId], CoreError> {
        Ok(self.succs_of(self.index(id)?))
    }

    /// The `(region, mode)` declarations a task was submitted with.
    ///
    /// The FTI integration uses this to checkpoint exactly the data declared
    /// at task entry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTask`] for an id outside the graph.
    #[inline]
    pub fn accesses(&self, id: TaskId) -> Result<&[(RegionId, AccessMode)], CoreError> {
        let s = self.accesses[self.index(id)?];
        Ok(&self.access_arena[s.range()])
    }

    /// The dense slot of each of a task's declarations, parallel to
    /// [`TaskGraph::accesses`]: slot `s` is region
    /// [`regions()[s]`](TaskGraph::regions). A table indexed by slot
    /// reads a region's facts with no hashing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTask`] for an id outside the graph.
    #[inline]
    pub fn access_slots(&self, id: TaskId) -> Result<&[u32], CoreError> {
        let s = self.accesses[self.index(id)?];
        Ok(&self.access_slots[s.range()])
    }

    /// Every region ever declared, indexed by slot: slots are handed out
    /// in first-declaration order when a task is submitted and never
    /// change, so a slot-indexed table only ever grows at its end.
    #[must_use]
    pub fn regions(&self) -> &[RegionId] {
        &self.slot_region
    }

    /// All tasks currently in [`TaskState::Ready`], in submission order.
    ///
    /// The ready set is maintained incrementally as a bitmap by
    /// [`TaskGraph::add_task`], [`TaskGraph::start`],
    /// [`TaskGraph::complete`] and [`TaskGraph::fail`] — O(1) per
    /// transition. Materializing the view walks the bitmap words,
    /// O(n/64 + ready), which only view callers pay; the engine's hot
    /// path never does.
    #[must_use]
    pub fn ready(&self) -> Vec<TaskId> {
        collect_bits(&self.ready_bits, self.ready_count)
    }

    /// Number of tasks currently ready, without allocating.
    #[must_use]
    pub fn ready_count(&self) -> usize {
        self.ready_count
    }

    /// Mark a ready task as running (claimed by a worker).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownTask`] for a bad id;
    /// [`CoreError::InvalidTransition`] if the task is not ready.
    pub fn start(&mut self, id: TaskId) -> Result<(), CoreError> {
        if self.try_claim(id)?.is_some() {
            Ok(())
        } else {
            Err(CoreError::InvalidTransition {
                task: id,
                reason: "task is not ready",
            })
        }
    }

    /// Claim a task for execution if (and only if) it is ready: one state
    /// lookup answering "is this ready?", performing the
    /// `Ready → Running` transition, and handing back the descriptor the
    /// claimer is about to place — all in one call. Returns
    /// `None` for a task in any other state — the event engine uses this
    /// to drop stale ready events (task already executed, or poisoned
    /// upstream) without a second state probe.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownTask`] for an id outside the graph.
    #[inline]
    pub fn try_claim(&mut self, id: TaskId) -> Result<Option<&TaskDescriptor>, CoreError> {
        let state = self
            .states
            .get_mut(id.index())
            .ok_or(CoreError::UnknownTask(id))?;
        if *state != TaskState::Ready {
            return Ok(None);
        }
        *state = TaskState::Running;
        self.remove_ready(id);
        Ok(Some(&self.descriptors[id.index()]))
    }

    /// Complete a task, returning the tasks that became ready.
    ///
    /// Accepts tasks in `Ready` or `Running` state (schedulers that do not
    /// bother with [`TaskGraph::start`] may complete directly).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownTask`] for a bad id;
    /// [`CoreError::InvalidTransition`] if the task is pending or terminal.
    pub fn complete(&mut self, id: TaskId) -> Result<Vec<TaskId>, CoreError> {
        let mut released = Vec::new();
        self.complete_into(id, &mut released)?;
        Ok(released)
    }

    /// Allocation-free variant of [`TaskGraph::complete`]: the tasks that
    /// became ready are *appended* to `released` (not cleared first), so a
    /// caller-owned scratch buffer can be reused across completions — the
    /// event engine drives every task completion through here.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TaskGraph::complete`]; on error `released` is
    /// untouched.
    #[inline]
    pub fn complete_into(
        &mut self,
        id: TaskId,
        released: &mut Vec<TaskId>,
    ) -> Result<(), CoreError> {
        {
            let state = self
                .states
                .get_mut(id.index())
                .ok_or(CoreError::UnknownTask(id))?;
            match *state {
                TaskState::Ready | TaskState::Running => {
                    let was_ready = *state == TaskState::Ready;
                    *state = TaskState::Completed;
                    if was_ready {
                        self.remove_ready(id);
                    }
                }
                TaskState::Pending => {
                    return Err(CoreError::InvalidTransition {
                        task: id,
                        reason: "task still has unmet dependences",
                    })
                }
                _ => {
                    return Err(CoreError::InvalidTransition {
                        task: id,
                        reason: "task already terminal",
                    })
                }
            }
        }
        self.insert_completed(id);
        // The task's reads are settled; its writes are now produced by a
        // completed task. Both can flip region liveness.
        for a in self.accesses[id.index()].range() {
            let mode = self.access_arena[a].1;
            self.update_liveness(self.access_slots[a], |l| {
                if mode.reads() {
                    l.readers_outstanding -= 1;
                }
                if mode.writes() {
                    l.writers_done += 1;
                }
            });
        }
        self.release_successors(id, released);
        Ok(())
    }

    /// Fail a task and poison all transitive successors whose inputs are now
    /// suspect ("detecting error propagation across task boundaries",
    /// paper §I). Returns the poisoned tasks in topological order.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownTask`] for a bad id;
    /// [`CoreError::InvalidTransition`] if the task already terminal.
    pub fn fail(&mut self, id: TaskId) -> Result<Vec<TaskId>, CoreError> {
        {
            let state = self
                .states
                .get_mut(id.index())
                .ok_or(CoreError::UnknownTask(id))?;
            if state.is_terminal() {
                return Err(CoreError::InvalidTransition {
                    task: id,
                    reason: "task already terminal",
                });
            }
            let was_ready = *state == TaskState::Ready;
            *state = TaskState::Failed;
            if was_ready {
                self.remove_ready(id);
            }
        }
        self.retire_reads(id);
        let mut poisoned = Vec::new();
        let mut stack: Vec<TaskId> = self.succs_of(id.index()).to_vec();
        while let Some(next) = stack.pop() {
            let state = &mut self.states[next.index()];
            if *state == TaskState::Poisoned || *state == TaskState::Failed {
                continue;
            }
            let was_ready = *state == TaskState::Ready;
            *state = TaskState::Poisoned;
            if was_ready {
                self.remove_ready(next);
            }
            self.retire_reads(next);
            poisoned.push(next);
            stack.extend_from_slice(self.succs_of(next.index()));
        }
        poisoned.sort_unstable();
        poisoned.dedup();
        Ok(poisoned)
    }

    /// A task left the pending/ready/running population without
    /// completing (failed or poisoned): its reads are no longer
    /// outstanding.
    fn retire_reads(&mut self, id: TaskId) {
        for a in self.accesses[id.index()].range() {
            if self.access_arena[a].1.reads() {
                self.update_liveness(self.access_slots[a], |l| l.readers_outstanding -= 1);
            }
        }
    }

    /// Apply `mutate` to a slot's liveness counters and flip its live
    /// bit on liveness *transitions* — two indexed loads and no hashing
    /// per access, and no allocation: the bitmap grew when the slot was
    /// interned.
    fn update_liveness(&mut self, slot: u32, mutate: impl FnOnce(&mut RegionLiveness)) {
        let slot = slot as usize;
        let counters = &mut self.liveness[slot];
        let was_live = counters.is_live();
        mutate(counters);
        if counters.is_live() != was_live {
            self.live_bits[slot / 64] ^= 1 << (slot % 64);
            if was_live {
                self.live_count -= 1;
            } else {
                self.live_count += 1;
            }
        }
    }

    /// Set `id`'s completed bit (no-op if already set).
    fn insert_completed(&mut self, id: TaskId) {
        let (w, b) = (id.index() / 64, id.index() % 64);
        let mask = 1u64 << b;
        if self.completed_bits[w] & mask == 0 {
            self.completed_bits[w] |= mask;
            self.completed_count += 1;
        }
    }

    /// Snapshot the current completed set as a restore target for
    /// [`TaskGraph::rollback_to`]: a copy of the completed bitmap,
    /// O(n/64) however many tasks have completed.
    #[must_use]
    pub fn frontier(&self) -> Frontier {
        Frontier {
            bits: self.completed_bits.clone(),
            count: self.completed_count,
        }
    }

    /// Roll the graph back to a checkpointed execution frontier: exactly
    /// the tasks in `frontier` are [`TaskState::Completed`] afterwards,
    /// and every other task — running, completed-since, failed or
    /// poisoned — is re-armed to [`TaskState::Pending`]/[`TaskState::Ready`]
    /// with its unmet-dependence count recomputed. Tasks submitted after
    /// the frontier was taken are simply outside it. Returns the tasks
    /// that are ready after the rollback, in submission order.
    ///
    /// This is the graph half of checkpoint/restart: the runtime takes a
    /// [`TaskGraph::frontier`] with each checkpoint, and on an
    /// unrecoverable task failure restores it here instead of poisoning
    /// the whole downstream cone (`legato-runtime`'s resilience module is
    /// the caller). Work completed after the checkpoint is *discarded*
    /// and will be re-executed.
    ///
    /// The cost follows what changed, not the graph. A word-wise diff of
    /// the completed bitmap against the frontier and a byte scan of the
    /// states (n/64 words and n bytes read, nothing written) find the Δ
    /// tasks that are completed on one side only or currently running,
    /// failed or poisoned; only they and their direct successors have
    /// state, unmet count and ready bit recomputed, and region liveness
    /// is adjusted by the inverse of the counter updates their
    /// transitions applied. Every other task is pending or ready on both
    /// sides with the same completed predecessors, so nothing about it
    /// moves.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownTask`] if the frontier names a task outside
    /// the graph; [`CoreError::InvalidTransition`] (naming the lowest
    /// offending id) if it is not closed under dependences (a task is
    /// kept but one of its predecessors is not — such a frontier could
    /// never have been reached). On error the graph is unchanged.
    pub fn rollback_to(&mut self, frontier: &Frontier) -> Result<Vec<TaskId>, CoreError> {
        if let Some(id) = frontier.first_at_or_after(self.len()) {
            return Err(CoreError::UnknownTask(id));
        }
        // Δ: completed on one side only, or unsettled right now.
        let mut delta = Vec::new();
        for (w, chunk) in self.states.chunks(64).enumerate() {
            let keep = frontier.word(w);
            let mut bits = self.completed_bits[w] ^ keep;
            for (b, &s) in chunk.iter().enumerate() {
                bits |= u64::from(s.is_unsettled()) << b;
            }
            while bits != 0 {
                delta.push(TaskId((w * 64) as u64 + u64::from(bits.trailing_zeros())));
                bits &= bits - 1;
            }
        }
        // A completed task's predecessors are completed or (submitted
        // after one failed) written off, hence kept or in Δ: the frontier
        // is closed iff no dropped task of Δ has a kept successor and
        // every newly kept one has all its predecessors kept.
        let offender = |&d: &TaskId| {
            if frontier.contains(d) {
                let preds = self.preds_of(d.index());
                preds.iter().any(|&p| !frontier.contains(p)).then_some(d)
            } else {
                let succs = self.succs_of(d.index());
                succs.iter().copied().find(|&s| frontier.contains(s))
            }
        };
        if let Some(task) = delta.iter().filter_map(offender).min() {
            return Err(CoreError::InvalidTransition {
                task,
                reason: OPEN_FRONTIER,
            });
        }

        // A successor of Δ that is pending or ready stays one or the
        // other, but one of its predecessors changed sides. (The rest of
        // Δ's successors are in Δ, whose turn is next: a waiting one that
        // the frontier keeps is re-armed here and completed there.)
        for &d in &delta {
            for k in self.succs[d.index()].range() {
                let s = self.succ_arena[k];
                if matches!(
                    self.states[s.index()],
                    TaskState::Pending | TaskState::Ready
                ) {
                    self.rearm(s, frontier);
                }
            }
        }
        // Δ itself: undo what `complete_into`/`retire_reads` applied to
        // region liveness on the way here, then complete or re-arm.
        for &d in &delta {
            let was = self.states[d.index()];
            if frontier.contains(d) {
                if was == TaskState::Ready {
                    self.remove_ready(d);
                }
                self.states[d.index()] = TaskState::Completed;
                let outstanding = !matches!(was, TaskState::Failed | TaskState::Poisoned);
                self.shift_liveness(d, -isize::from(outstanding), 1);
            } else {
                match was {
                    TaskState::Completed => self.shift_liveness(d, 1, -1),
                    TaskState::Failed | TaskState::Poisoned => self.shift_liveness(d, 1, 0),
                    _ => {}
                }
                self.rearm(d, frontier);
            }
        }
        for (w, word) in self.completed_bits.iter_mut().enumerate() {
            *word = frontier.word(w);
        }
        self.completed_count = frontier.count;
        Ok(self.ready())
    }

    /// Recompute an unfinished task's unmet count, state and ready bit
    /// against the restored frontier.
    fn rearm(&mut self, id: TaskId, frontier: &Frontier) {
        self.rollback_visits += 1;
        let preds = self.preds_of(id.index());
        let unmet = preds.iter().filter(|&&p| !frontier.contains(p)).count();
        self.unmet[id.index()] = arena_pos(unmet);
        if unmet == 0 {
            self.states[id.index()] = TaskState::Ready;
            self.insert_ready(id);
        } else {
            self.states[id.index()] = TaskState::Pending;
            self.remove_ready(id);
        }
    }

    /// Add `readers` to the outstanding-reader count of every region `id`
    /// reads and `writers` to the completed-writer count of every region
    /// it writes (the rollback-side inverse of the transition updates).
    fn shift_liveness(&mut self, id: TaskId, readers: isize, writers: isize) {
        const MIRROR: &str = "liveness counters mirror task states";
        for a in self.accesses[id.index()].range() {
            let mode = self.access_arena[a].1;
            self.update_liveness(self.access_slots[a], |l| {
                if mode.reads() {
                    l.readers_outstanding = l
                        .readers_outstanding
                        .checked_add_signed(readers)
                        .expect(MIRROR);
                }
                if mode.writes() {
                    l.writers_done = l.writers_done.checked_add_signed(writers).expect(MIRROR);
                }
            });
        }
    }

    /// Tasks whose state rollbacks have recomputed over the graph's
    /// lifetime — a deterministic work counter: it grows with what each
    /// rollback discarded, not with the size of the graph.
    #[must_use]
    pub fn rollback_visits(&self) -> u64 {
        self.rollback_visits
    }

    /// [`TaskGraph::rollback_to`] for a frontier given as a task list (any
    /// order, duplicates allowed): exactly the tasks in `completed` stay
    /// [`TaskState::Completed`]. Returns the tasks that are ready after
    /// the rollback, in submission order.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownTask`] if `completed` names a task outside the
    /// graph; [`CoreError::InvalidTransition`] if `completed` is not
    /// closed under dependences, naming the first listed task with an
    /// unlisted predecessor. On error the graph is unchanged.
    pub fn rollback(&mut self, completed: &[TaskId]) -> Result<Vec<TaskId>, CoreError> {
        let mut frontier = Frontier {
            bits: vec![0; self.completed_bits.len()],
            count: 0,
        };
        for &id in completed {
            self.index(id)?;
            frontier.insert(id);
        }
        self.rollback_to(&frontier).map_err(|err| {
            let open = |id: &&TaskId| {
                let preds = self.preds_of(id.index());
                preds.iter().any(|&p| !frontier.contains(p))
            };
            completed
                .iter()
                .find(open)
                .map_or(err, |&task| CoreError::InvalidTransition {
                    task,
                    reason: OPEN_FRONTIER,
                })
        })
    }

    /// Walk the dependence edges backwards from `id` and return the set of
    /// [`TaskState::Failed`] ancestors — the root causes of a poisoned task.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTask`] for an id outside the graph.
    pub fn root_cause(&self, id: TaskId) -> Result<Vec<TaskId>, CoreError> {
        self.index(id)?;
        let mut visited = vec![false; self.len()];
        let mut causes = Vec::new();
        let mut stack = vec![id];
        visited[id.index()] = true;
        while let Some(next) = stack.pop() {
            for &p in self.preds_of(next.index()) {
                if !visited[p.index()] {
                    visited[p.index()] = true;
                    if self.states[p.index()] == TaskState::Failed {
                        causes.push(p);
                    }
                    stack.push(p);
                }
            }
        }
        causes.sort_unstable();
        Ok(causes)
    }

    /// Critical path under a per-task cost function: returns the total cost
    /// and the path itself (source → sink).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyGraph`] if the graph has no tasks.
    pub fn critical_path<F>(&self, cost: F) -> Result<(f64, Vec<TaskId>), CoreError>
    where
        F: Fn(TaskId, &TaskDescriptor) -> f64,
    {
        if self.is_empty() {
            return Err(CoreError::EmptyGraph);
        }
        let n = self.len();
        let mut dist = vec![0.0_f64; n];
        let mut best_pred: Vec<Option<TaskId>> = vec![None; n];
        for i in 0..n {
            let id = TaskId(i as u64);
            let c = cost(id, &self.descriptors[i]);
            let mut incoming = 0.0_f64;
            for &p in self.preds_of(i) {
                if dist[p.index()] > incoming {
                    incoming = dist[p.index()];
                    best_pred[i] = Some(p);
                }
            }
            dist[i] = incoming + c;
        }
        let (mut at, mut total) = (TaskId(0), dist[0]);
        for (i, &d) in dist.iter().enumerate().skip(1) {
            if d > total {
                total = d;
                at = TaskId(i as u64);
            }
        }
        let mut path = vec![at];
        while let Some(p) = best_pred[at.index()] {
            path.push(p);
            at = p;
        }
        path.reverse();
        Ok((total, path))
    }

    /// Total work (sum of the cost function) across all tasks, for
    /// parallelism = work / critical-path calculations.
    #[must_use]
    pub fn total_cost<F>(&self, cost: F) -> f64
    where
        F: Fn(TaskId, &TaskDescriptor) -> f64,
    {
        self.descriptors
            .iter()
            .enumerate()
            .map(|(i, d)| cost(TaskId(i as u64), d))
            .sum()
    }

    fn release_successors(&mut self, id: TaskId, released: &mut Vec<TaskId>) {
        // Index iteration instead of cloning the successor list: this runs
        // once per completed task, on the engine's hottest path.
        for k in self.succs[id.index()].range() {
            let s = self.succ_arena[k];
            if self.states[s.index()] != TaskState::Pending {
                continue;
            }
            self.unmet[s.index()] -= 1;
            if self.unmet[s.index()] == 0 {
                self.states[s.index()] = TaskState::Ready;
                self.insert_ready(s);
                released.push(s);
            }
        }
    }

    /// Set `id`'s ready bit (no-op if already set).
    fn insert_ready(&mut self, id: TaskId) {
        let (w, b) = (id.index() / 64, id.index() % 64);
        let mask = 1u64 << b;
        if self.ready_bits[w] & mask == 0 {
            self.ready_bits[w] |= mask;
            self.ready_count += 1;
        }
    }

    /// Clear `id`'s ready bit (no-op if absent).
    fn remove_ready(&mut self, id: TaskId) {
        let (w, b) = (id.index() / 64, id.index() % 64);
        let mask = 1u64 << b;
        if self.ready_bits[w] & mask != 0 {
            self.ready_bits[w] &= !mask;
            self.ready_count -= 1;
        }
    }

    /// `id`'s index into the per-task columns, if the graph holds it.
    fn index(&self, id: TaskId) -> Result<usize, CoreError> {
        if id.index() < self.len() {
            Ok(id.index())
        } else {
            Err(CoreError::UnknownTask(id))
        }
    }
}

/// Materialize a per-task bitmap as a sorted `TaskId` list (`count` =
/// number of set bits, used to pre-size the output).
fn collect_bits(words: &[u64], count: usize) -> Vec<TaskId> {
    let mut out = Vec::with_capacity(count);
    out.extend(set_bits(words).map(|i| TaskId(i as u64)));
    out
}

/// Indices of the set bits of a word-packed bitmap, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
}

/// Bulk construction of a [`TaskGraph`].
///
/// Streaming [`TaskGraph::add_task`] cannot know a task's out-degree in
/// advance, so its successor spans grow by amortized relocation, leaving
/// dead holes in the arena. The builder buffers descriptors and a flat
/// access list, then [`GraphBuilder::build`] performs dependence
/// inference in one pass while counting out-degrees and lays the
/// successor CSR out with *exact* capacities in a second pass — no
/// rehash, no regrow, no holes. This is what makes 1M-task graph builds
/// routine rather than allocation-bound.
///
/// The resulting graph is indistinguishable from one built by streaming
/// submission: same predecessors, successors (ascending), ready set and
/// edge count.
///
/// ```
/// use legato_core::graph::GraphBuilder;
/// use legato_core::task::{AccessMode, TaskDescriptor};
///
/// let mut b = GraphBuilder::with_capacity(2, 3);
/// let w = b.task(TaskDescriptor::named("w"), [(0u64, AccessMode::Out)]);
/// let r = b.task(TaskDescriptor::named("r"), [(0u64, AccessMode::In)]);
/// let g = b.build();
/// assert_eq!(g.predecessors(r).unwrap(), &[w]);
/// assert_eq!(g.ready(), vec![w]);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    descriptors: Vec<TaskDescriptor>,
    /// Flat access declarations for all buffered tasks.
    accesses: Vec<(RegionId, AccessMode)>,
    /// Prefix offsets into `accesses`: `bounds[i]..bounds[i + 1]` is
    /// task `i`'s declaration window. Always starts with 0.
    bounds: Vec<usize>,
    region_capacity: usize,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        GraphBuilder::new()
    }
}

impl GraphBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        GraphBuilder::with_capacity(0, 0)
    }

    /// A builder pre-sized for `tasks` tasks carrying `accesses` access
    /// declarations in total.
    #[must_use]
    pub fn with_capacity(tasks: usize, accesses: usize) -> Self {
        let mut bounds = Vec::with_capacity(tasks + 1);
        bounds.push(0);
        GraphBuilder {
            descriptors: Vec::with_capacity(tasks),
            accesses: Vec::with_capacity(accesses),
            bounds,
            region_capacity: 0,
        }
    }

    /// Hint the number of distinct regions the graph will touch, so the
    /// region interner and the per-slot arrays are sized once up front.
    #[must_use]
    pub fn with_region_capacity(mut self, regions: usize) -> Self {
        self.region_capacity = regions;
        self
    }

    /// Buffer a task with its access declarations. The returned id is
    /// the one [`GraphBuilder::build`] will assign (submission order);
    /// when appending to an existing graph via
    /// [`GraphBuilder::build_into`], actual ids are offset by the
    /// graph's prior length.
    pub fn task<I, R>(&mut self, descriptor: TaskDescriptor, accesses: I) -> TaskId
    where
        I: IntoIterator<Item = (R, AccessMode)>,
        R: Into<RegionId>,
    {
        let id = TaskId(self.descriptors.len() as u64);
        self.descriptors.push(descriptor);
        self.accesses
            .extend(accesses.into_iter().map(|(r, m)| (r.into(), m)));
        self.bounds.push(self.accesses.len());
        id
    }

    /// The buffered task descriptors, in submission order.
    #[must_use]
    pub fn descriptors(&self) -> &[TaskDescriptor] {
        &self.descriptors
    }

    /// Number of buffered tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// Whether no task has been buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Build a fresh, exactly-sized graph from the buffered tasks.
    #[must_use]
    pub fn build(self) -> TaskGraph {
        let mut g = TaskGraph::new();
        self.build_into(&mut g);
        g
    }

    /// Append the buffered tasks to an existing graph, inferring
    /// dependences against its region histories exactly as streaming
    /// submission would (new tasks may depend on previously submitted
    /// ones). Consumes the builder: into an empty graph, its descriptor
    /// and access vectors move in whole, uncopied.
    pub fn build_into(self, g: &mut TaskGraph) {
        let GraphBuilder {
            descriptors,
            accesses,
            bounds,
            region_capacity,
        } = self;
        let n0 = g.len();
        let new = descriptors.len();
        let (reserved_tasks, reserved_edges) = g.reserved;
        if g.descriptors.is_empty() {
            g.descriptors = descriptors;
        } else {
            g.take_reserved();
            g.descriptors.extend(descriptors);
        }
        g.reserve_task_state(new);
        // Dependence edges are unknown until inference; one per access
        // covers the common RAW/WAW shape without overcommitting.
        g.pred_arena.reserve(accesses.len());
        if region_capacity > 0 {
            g.reserve_regions(region_capacity);
        }
        let acc_base = g.access_arena.len();
        if acc_base == 0 {
            g.access_arena = accesses;
        } else {
            g.access_arena.extend_from_slice(&accesses);
        }

        // Pass 1: submit every task (dependence inference, states,
        // bitmaps, region histories). Edges whose producer is an *old*
        // task are wired immediately (ids ascend, so existing successor
        // lists stay sorted); a new producer's out-degree is counted in
        // its successor span's `cap`.
        for k in 0..new {
            let id = g.push_task_core(Span {
                start: arena_pos(acc_base + bounds[k]),
                len: arena_pos(bounds[k + 1] - bounds[k]),
            });
            for j in g.preds[id.index()].range() {
                let pred = g.pred_arena[j].index();
                if pred < n0 {
                    g.succ_push(pred, id);
                } else {
                    g.succs[pred].cap += 1;
                }
            }
        }

        // Exactly-sized successor spans for the new tasks.
        let mut offset = g.succ_arena.len();
        for s in &mut g.succs[n0..] {
            s.start = arena_pos(offset);
            offset += s.cap as usize;
        }
        g.succ_arena.resize(offset, TaskId(0));

        // Pass 2: fill the spans. Walking tasks in ascending id order
        // fills every successor list in ascending order — the property
        // deterministic replay relies on.
        for i in n0..g.len() {
            let id = TaskId(i as u64);
            for j in g.preds[i].range() {
                let pred = g.pred_arena[j].index();
                if pred >= n0 {
                    let s = &mut g.succs[pred];
                    g.succ_arena[(s.start + s.len) as usize] = id;
                    s.len += 1;
                }
            }
        }
        if n0 == 0 {
            // Whatever the batch left of a reservation on the empty
            // graph waits for the next streamed task.
            g.reserved = (
                reserved_tasks.saturating_sub(new),
                reserved_edges.saturating_sub(g.edge_count),
            );
        }
    }
}

#[cfg(test)]
mod rollback_oracle;

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::task::TaskDescriptor;

    fn desc(name: &'static str) -> TaskDescriptor {
        TaskDescriptor::named(name)
    }

    #[test]
    fn raw_dependence() {
        let mut g = TaskGraph::new();
        let w = g.add_task(desc("w"), [(0u64, AccessMode::Out)]);
        let r = g.add_task(desc("r"), [(0u64, AccessMode::In)]);
        assert_eq!(g.predecessors(r).unwrap(), &[w]);
        assert_eq!(g.successors(w).unwrap(), &[r]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn war_dependence() {
        let mut g = TaskGraph::new();
        let _w0 = g.add_task(desc("w0"), [(0u64, AccessMode::Out)]);
        let r = g.add_task(desc("r"), [(0u64, AccessMode::In)]);
        let w1 = g.add_task(desc("w1"), [(0u64, AccessMode::Out)]);
        // w1 must wait for the reader (WAR) and the previous writer (WAW).
        assert!(g.predecessors(w1).unwrap().contains(&r));
    }

    #[test]
    fn waw_dependence() {
        let mut g = TaskGraph::new();
        let w0 = g.add_task(desc("w0"), [(0u64, AccessMode::Out)]);
        let w1 = g.add_task(desc("w1"), [(0u64, AccessMode::Out)]);
        assert_eq!(g.predecessors(w1).unwrap(), &[w0]);
    }

    #[test]
    fn duplicate_declarations_collapse_to_the_joined_mode() {
        // Regression: a task declaring one region as both `in` and `out`
        // must end up with a single `inout` entry — the duplicate used
        // to survive into the access list, double-counting liveness and
        // recording the task as both a plain reader and the last writer.
        let mut g = TaskGraph::new();
        let t = g.add_task(
            desc("t"),
            [
                (0u64, AccessMode::In),
                (0u64, AccessMode::Out),
                (1u64, AccessMode::In),
            ],
        );
        assert_eq!(
            g.accesses(t).unwrap(),
            &[
                (RegionId(0), AccessMode::InOut),
                (RegionId(1), AccessMode::In)
            ]
        );
        // The joined mode drives inference for later tasks: a follow-up
        // writer to region 0 sees `t` as the last writer, and a reader
        // sees a RAW dependence.
        let r = g.add_task(desc("r"), [(0u64, AccessMode::In)]);
        assert_eq!(g.predecessors(r).unwrap(), &[t]);
    }

    #[test]
    fn duplicate_declarations_collapse_in_bulk_builds_too() {
        let mut b = GraphBuilder::new();
        let t = b.task(desc("t"), [(5u64, AccessMode::Out), (5u64, AccessMode::In)]);
        b.task(desc("r"), [(5u64, AccessMode::In)]);
        let g = b.build();
        assert_eq!(g.accesses(t).unwrap(), &[(RegionId(5), AccessMode::InOut)]);
        assert_eq!(g.predecessors(TaskId(1)).unwrap(), &[t]);
    }

    #[test]
    fn explicit_deps_bypass_inference_but_update_history() {
        let mut g = TaskGraph::new();
        let a = g
            .add_task_with_deps(desc("a"), [(0u64, AccessMode::Out)], &[])
            .unwrap();
        // Same region, no declared ordering: the graph accepts the race.
        let b = g
            .add_task_with_deps(desc("b"), [(0u64, AccessMode::Out)], &[])
            .unwrap();
        assert_eq!(g.predecessors(b).unwrap(), &[] as &[TaskId]);
        assert_eq!(g.ready().len(), 2);
        // History was still recorded: an *inferred* successor orders
        // against the explicit task's write.
        let c = g.add_task(desc("c"), [(0u64, AccessMode::In)]);
        assert_eq!(g.predecessors(c).unwrap(), &[b]);
        // Unknown (future) dependences are refused.
        let err = g
            .add_task_with_deps(desc("d"), [(1u64, AccessMode::Out)], &[TaskId(99)])
            .unwrap_err();
        assert_eq!(err, CoreError::UnknownTask(TaskId(99)));
        let _ = a;
    }

    #[test]
    fn independent_readers_run_in_parallel() {
        let mut g = TaskGraph::new();
        let w = g.add_task(desc("w"), [(0u64, AccessMode::Out)]);
        let r1 = g.add_task(desc("r1"), [(0u64, AccessMode::In)]);
        let r2 = g.add_task(desc("r2"), [(0u64, AccessMode::In)]);
        g.complete(w).unwrap();
        let ready = g.ready();
        assert!(ready.contains(&r1) && ready.contains(&r2));
    }

    #[test]
    fn inout_chains_serialize() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::InOut)]);
        let b = g.add_task(desc("b"), [(0u64, AccessMode::InOut)]);
        let c = g.add_task(desc("c"), [(0u64, AccessMode::InOut)]);
        assert_eq!(g.predecessors(b).unwrap(), &[a]);
        assert_eq!(g.predecessors(c).unwrap(), &[b]);
        assert_eq!(g.ready(), vec![a]);
    }

    #[test]
    fn completion_releases_in_order() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(0u64, AccessMode::In), (1u64, AccessMode::Out)]);
        let c = g.add_task(desc("c"), [(1u64, AccessMode::In)]);
        assert_eq!(g.complete(a).unwrap(), vec![b]);
        assert_eq!(g.complete(b).unwrap(), vec![c]);
        assert_eq!(g.complete(c).unwrap(), vec![]);
        assert!(g.is_complete());
    }

    #[test]
    fn completing_pending_task_is_rejected() {
        let mut g = TaskGraph::new();
        let _a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(0u64, AccessMode::In)]);
        assert!(matches!(
            g.complete(b),
            Err(CoreError::InvalidTransition { .. })
        ));
    }

    #[test]
    fn double_completion_is_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        g.complete(a).unwrap();
        assert!(g.complete(a).is_err());
    }

    #[test]
    fn unknown_task_errors() {
        let g = TaskGraph::new();
        assert_eq!(
            g.state(TaskId(5)).unwrap_err(),
            CoreError::UnknownTask(TaskId(5))
        );
    }

    #[test]
    fn start_then_complete() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        g.start(a).unwrap();
        assert_eq!(g.state(a).unwrap(), TaskState::Running);
        assert!(g.start(a).is_err());
        g.complete(a).unwrap();
        assert_eq!(g.state(a).unwrap(), TaskState::Completed);
    }

    #[test]
    fn failure_poisons_descendants() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(0u64, AccessMode::In), (1u64, AccessMode::Out)]);
        let c = g.add_task(desc("c"), [(1u64, AccessMode::In)]);
        let d = g.add_task(desc("d"), [(2u64, AccessMode::Out)]); // independent
        let poisoned = g.fail(a).unwrap();
        assert_eq!(poisoned, vec![b, c]);
        assert_eq!(g.state(d).unwrap(), TaskState::Ready);
        assert_eq!(g.state(a).unwrap(), TaskState::Failed);
        assert_eq!(g.state(c).unwrap(), TaskState::Poisoned);
    }

    #[test]
    fn root_cause_walks_back() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(1u64, AccessMode::Out)]);
        let c = g.add_task(
            desc("c"),
            [
                (0u64, AccessMode::In),
                (1u64, AccessMode::In),
                (2u64, AccessMode::Out),
            ],
        );
        let d = g.add_task(desc("d"), [(2u64, AccessMode::In)]);
        g.fail(a).unwrap();
        let causes = g.root_cause(d).unwrap();
        assert_eq!(causes, vec![a]);
        assert!(!causes.contains(&b));
        assert!(!causes.contains(&c));
    }

    #[test]
    fn critical_path_diamond() {
        let mut g = TaskGraph::new();
        let _a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let _b = g.add_task(desc("b"), [(0u64, AccessMode::In), (1u64, AccessMode::Out)]);
        let _c = g.add_task(desc("c"), [(0u64, AccessMode::In), (2u64, AccessMode::Out)]);
        let d = g.add_task(desc("d"), [(1u64, AccessMode::In), (2u64, AccessMode::In)]);
        // b costs 5, everything else 1: critical path a→b→d = 7.
        let (len, path) = g
            .critical_path(|id, _| if id == TaskId(1) { 5.0 } else { 1.0 })
            .unwrap();
        assert!((len - 7.0).abs() < 1e-12);
        assert_eq!(path.first(), Some(&TaskId(0)));
        assert_eq!(path.last(), Some(&d));
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn critical_path_empty_graph() {
        let g = TaskGraph::new();
        assert_eq!(g.critical_path(|_, _| 1.0), Err(CoreError::EmptyGraph));
    }

    #[test]
    fn total_cost_sums_all() {
        let mut g = TaskGraph::new();
        g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        g.add_task(desc("b"), [(0u64, AccessMode::In)]);
        assert!((g.total_cost(|_, _| 2.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn accesses_are_recorded() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(7u64, AccessMode::InOut)]);
        assert_eq!(g.accesses(a).unwrap(), &[(RegionId(7), AccessMode::InOut)]);
    }

    #[test]
    fn access_slots_index_the_region_table() {
        let mut g = TaskGraph::new();
        let a = g.add_task(
            desc("a"),
            [(7u64, AccessMode::Out), (3u64, AccessMode::Out)],
        );
        // A duplicate collapses before interning; a known region keeps
        // its slot.
        let b = g.add_task(
            desc("b"),
            [
                (9u64, AccessMode::In),
                (3u64, AccessMode::In),
                (9u64, AccessMode::Out),
            ],
        );
        assert_eq!(g.regions(), &[RegionId(7), RegionId(3), RegionId(9)]);
        assert_eq!(g.access_slots(a).unwrap(), &[0, 1]);
        assert_eq!(g.access_slots(b).unwrap(), &[2, 1]);
        for id in [a, b] {
            let slots = g.access_slots(id).unwrap();
            for (&(region, _), &slot) in g.accesses(id).unwrap().iter().zip(slots) {
                assert_eq!(g.regions()[slot as usize], region);
            }
        }
        g.complete(a).unwrap();
        assert_eq!(g.live_slots().collect::<Vec<_>>(), [1]);
        assert!(g.access_slots(TaskId(2)).is_err());
    }

    #[test]
    fn submission_after_completion_sees_no_stale_dependence() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        g.complete(a).unwrap();
        // New reader depends on a completed writer: must be immediately ready.
        let b = g.add_task(desc("b"), [(0u64, AccessMode::In)]);
        assert_eq!(g.state(b).unwrap(), TaskState::Ready);
        assert_eq!(g.predecessors(b).unwrap(), &[a]);
    }

    #[test]
    fn ready_set_is_maintained_incrementally() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(0u64, AccessMode::In), (1u64, AccessMode::Out)]);
        let c = g.add_task(desc("c"), [(2u64, AccessMode::Out)]);
        assert_eq!(g.ready(), vec![a, c]);
        assert_eq!(g.ready_count(), 2);
        g.start(a).unwrap();
        assert_eq!(g.ready(), vec![c], "running tasks leave the ready set");
        g.complete(a).unwrap();
        assert_eq!(g.ready(), vec![b, c], "release inserts in id order");
        g.complete(c).unwrap();
        g.fail(b).unwrap();
        assert!(g.ready().is_empty());
        assert_eq!(g.ready_count(), 0);
    }

    #[test]
    fn failing_a_ready_task_clears_it_from_ready_set() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(1u64, AccessMode::Out)]);
        g.fail(a).unwrap();
        assert_eq!(g.ready(), vec![b]);
    }

    #[test]
    fn duplicate_region_access_deduplicates_edges() {
        let mut g = TaskGraph::new();
        let a = g.add_task(
            desc("a"),
            [(0u64, AccessMode::Out), (1u64, AccessMode::Out)],
        );
        let b = g.add_task(desc("b"), [(0u64, AccessMode::In), (1u64, AccessMode::In)]);
        // Two shared regions but only one edge a→b.
        assert_eq!(g.predecessors(b).unwrap(), &[a]);
        assert_eq!(g.edge_count(), 1);
    }

    /// Chain a → b → c: complete all three, roll back to the frontier
    /// after `a`, and the graph re-arms `b` (ready) and `c` (pending).
    #[test]
    fn rollback_rearms_completed_tasks() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(0u64, AccessMode::InOut)]);
        let c = g.add_task(desc("c"), [(0u64, AccessMode::In)]);
        for t in [a, b, c] {
            g.complete(t).unwrap();
        }
        assert!(g.is_complete());
        let ready = g.rollback(&[a]).unwrap();
        assert_eq!(ready, vec![b]);
        assert_eq!(g.state(a).unwrap(), TaskState::Completed);
        assert_eq!(g.state(b).unwrap(), TaskState::Ready);
        assert_eq!(g.state(c).unwrap(), TaskState::Pending);
        assert_eq!(g.completed_count(), 1);
        assert_eq!(g.ready(), vec![b]);
        // Execution proceeds normally after the rollback.
        assert_eq!(g.complete(b).unwrap(), vec![c]);
        g.complete(c).unwrap();
        assert!(g.is_complete());
    }

    /// Rollback un-fails a failed task and un-poisons its cone.
    #[test]
    fn rollback_recovers_failed_and_poisoned_tasks() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(0u64, AccessMode::InOut)]);
        let c = g.add_task(desc("c"), [(0u64, AccessMode::In)]);
        g.complete(a).unwrap();
        g.fail(b).unwrap();
        assert_eq!(g.state(c).unwrap(), TaskState::Poisoned);
        let ready = g.rollback(&[a]).unwrap();
        assert_eq!(ready, vec![b]);
        assert_eq!(g.state(b).unwrap(), TaskState::Ready);
        assert_eq!(g.state(c).unwrap(), TaskState::Pending);
    }

    /// Rollback to the empty frontier restarts the whole graph.
    #[test]
    fn rollback_to_empty_frontier_restarts_everything() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(0u64, AccessMode::In)]);
        g.complete(a).unwrap();
        g.complete(b).unwrap();
        let ready = g.rollback(&[]).unwrap();
        assert_eq!(ready, vec![a]);
        assert_eq!(g.completed_count(), 0);
        assert_eq!(g.state(b).unwrap(), TaskState::Pending);
    }

    /// Naive recomputation of the live-region set (the pre-incremental
    /// definition): regions written by a completed task and read by at
    /// least one pending/ready/running task. The incremental counters
    /// must agree with this after every transition.
    fn naive_live(g: &TaskGraph) -> HashSet<RegionId> {
        let mut written_by_done: HashSet<RegionId> = HashSet::new();
        let mut read_by_pending: HashSet<RegionId> = HashSet::new();
        for i in 0..g.len() {
            let id = TaskId(i as u64);
            let state = g.state(id).unwrap();
            for &(r, m) in g.accesses(id).unwrap() {
                match state {
                    TaskState::Completed => {
                        if m.writes() {
                            written_by_done.insert(r);
                        }
                    }
                    TaskState::Failed | TaskState::Poisoned => {}
                    _ => {
                        if m.reads() {
                            read_by_pending.insert(r);
                        }
                    }
                }
            }
        }
        written_by_done
            .intersection(&read_by_pending)
            .copied()
            .collect()
    }

    fn incremental_live(g: &TaskGraph) -> HashSet<RegionId> {
        g.live_regions().collect()
    }

    #[test]
    fn live_regions_match_naive_recompute_through_lifecycle() {
        let mut g = TaskGraph::new();
        // Pipeline a →(r0)→ b →(r1)→ c, plus a diamond d/e over r2 and an
        // independent chain f →(r3)→ h that will fail mid-way.
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(0u64, AccessMode::In), (1u64, AccessMode::Out)]);
        let _c = g.add_task(desc("c"), [(1u64, AccessMode::In)]);
        let d = g.add_task(desc("d"), [(2u64, AccessMode::InOut)]);
        let _e = g.add_task(desc("e"), [(2u64, AccessMode::InOut)]);
        let f = g.add_task(desc("f"), [(3u64, AccessMode::Out)]);
        let _h = g.add_task(desc("h"), [(3u64, AccessMode::In)]);
        assert_eq!(incremental_live(&g), naive_live(&g));

        g.complete(a).unwrap();
        assert_eq!(incremental_live(&g), naive_live(&g));
        assert_eq!(incremental_live(&g), HashSet::from([RegionId(0)]));

        g.start(b).unwrap();
        assert_eq!(incremental_live(&g), naive_live(&g));
        g.complete(b).unwrap();
        // r0 is dead (no reader left), r1 is live.
        assert_eq!(incremental_live(&g), HashSet::from([RegionId(1)]));
        assert_eq!(incremental_live(&g), naive_live(&g));

        g.complete(d).unwrap();
        assert_eq!(incremental_live(&g), naive_live(&g));

        // Failing f poisons h: region 3 never becomes live, and the
        // poisoned reader must not count as outstanding.
        g.fail(f).unwrap();
        assert_eq!(incremental_live(&g), naive_live(&g));
        assert_eq!(g.live_region_count(), incremental_live(&g).len());
    }

    #[test]
    fn live_regions_rebuilt_by_rollback() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(0u64, AccessMode::In), (1u64, AccessMode::Out)]);
        let c = g.add_task(desc("c"), [(1u64, AccessMode::In)]);
        for t in [a, b, c] {
            g.complete(t).unwrap();
        }
        assert_eq!(incremental_live(&g), naive_live(&g));
        g.rollback(&[a]).unwrap();
        assert_eq!(incremental_live(&g), HashSet::from([RegionId(0)]));
        assert_eq!(incremental_live(&g), naive_live(&g));
        // And after re-execution the structures stay consistent.
        g.complete(b).unwrap();
        g.complete(c).unwrap();
        assert_eq!(incremental_live(&g), naive_live(&g));
        assert!(incremental_live(&g).is_empty());
    }

    #[test]
    fn completed_accessor_is_incremental_and_sorted() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(1u64, AccessMode::Out)]);
        let c = g.add_task(desc("c"), [(2u64, AccessMode::Out)]);
        assert!(g.completed().is_empty());
        // Complete out of id order: the view stays sorted by id.
        g.complete(c).unwrap();
        g.complete(a).unwrap();
        assert_eq!(g.completed(), &[a, c]);
        g.complete(b).unwrap();
        assert_eq!(g.completed(), &[a, b, c]);
        assert_eq!(g.completed_count(), 3);
        // Rollback resets the list to the restored frontier.
        g.rollback(&[a]).unwrap();
        assert_eq!(g.completed(), &[a]);
    }

    #[test]
    fn complete_into_appends_to_caller_buffer() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(0u64, AccessMode::In)]);
        let mut buf = vec![TaskId(99)];
        g.complete_into(a, &mut buf).unwrap();
        assert_eq!(buf, vec![TaskId(99), b], "appends, never clears");
        assert!(g.complete_into(a, &mut buf).is_err());
        assert_eq!(buf.len(), 2, "error leaves the buffer untouched");
    }

    /// Every structural observable of two graphs must agree.
    fn assert_same_graph(a: &TaskGraph, b: &TaskGraph) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.ready(), b.ready());
        assert_eq!(a.ready_count(), b.ready_count());
        for i in 0..a.len() {
            let id = TaskId(i as u64);
            assert_eq!(a.predecessors(id).unwrap(), b.predecessors(id).unwrap());
            assert_eq!(a.successors(id).unwrap(), b.successors(id).unwrap());
            assert_eq!(a.accesses(id).unwrap(), b.accesses(id).unwrap());
            assert_eq!(a.state(id).unwrap(), b.state(id).unwrap());
        }
    }

    /// A mixed workload exercising RAW/WAR/WAW fan-in and fan-out.
    fn mixed_workload() -> Vec<(&'static str, Vec<(u64, AccessMode)>)> {
        vec![
            ("scatter", vec![(0, AccessMode::Out), (1, AccessMode::Out)]),
            ("r0", vec![(0, AccessMode::In), (2, AccessMode::Out)]),
            ("r1", vec![(0, AccessMode::In), (3, AccessMode::Out)]),
            ("rw", vec![(1, AccessMode::InOut)]),
            (
                "gather",
                vec![
                    (2, AccessMode::In),
                    (3, AccessMode::In),
                    (1, AccessMode::In),
                    (4, AccessMode::Out),
                ],
            ),
            ("rewrite", vec![(0, AccessMode::Out)]),
            ("sink", vec![(4, AccessMode::In), (0, AccessMode::In)]),
        ]
    }

    #[test]
    fn builder_bulk_build_matches_streaming_submission() {
        let mut streamed = TaskGraph::new();
        let mut b = GraphBuilder::new();
        for (name, accesses) in mixed_workload() {
            let s = streamed.add_task(desc_of(name), accesses.clone());
            let t = b.task(desc_of(name), accesses);
            assert_eq!(s, t, "builder promises the streaming id");
        }
        let built = b.build();
        assert_same_graph(&streamed, &built);
        // And the built graph executes identically.
        let mut built = built;
        while let Some(&id) = built.ready().first() {
            built.complete(id).unwrap();
        }
        assert!(built.is_complete());
    }

    fn desc_of(name: &str) -> TaskDescriptor {
        TaskDescriptor::named(name.to_owned())
    }

    #[test]
    fn build_into_extends_existing_graph() {
        // Stream the first half, bulk-append the second: must match the
        // all-streaming graph, including cross-boundary dependences.
        let workload = mixed_workload();
        let mut streamed = TaskGraph::new();
        for (name, accesses) in &workload {
            streamed.add_task(desc_of(name), accesses.clone());
        }
        let mut hybrid = TaskGraph::new();
        for (name, accesses) in &workload[..3] {
            hybrid.add_task(desc_of(name), accesses.clone());
        }
        let mut b = GraphBuilder::new();
        for (name, accesses) in &workload[3..] {
            b.task(desc_of(name), accesses.clone());
        }
        b.build_into(&mut hybrid);
        assert_same_graph(&streamed, &hybrid);
    }

    #[test]
    fn builder_handles_wide_fan_out_and_fan_in() {
        // One writer, 100 readers, one gathering writer: exercises both
        // a large successor span and a large WAR pred list.
        let mut streamed = TaskGraph::new();
        let mut b = GraphBuilder::with_capacity(102, 102);
        let tasks: Vec<(TaskDescriptor, Vec<(u64, AccessMode)>)> =
            std::iter::once((desc_of("w"), vec![(0, AccessMode::Out)]))
                .chain((0..100).map(|_| (desc_of("r"), vec![(0, AccessMode::In)])))
                .chain(std::iter::once((desc_of("g"), vec![(0, AccessMode::Out)])))
                .collect();
        for (d, a) in tasks {
            streamed.add_task(d.clone(), a.clone());
            b.task(d, a);
        }
        let built = b.build();
        assert_same_graph(&streamed, &built);
        assert_eq!(built.successors(TaskId(0)).unwrap().len(), 101);
        assert_eq!(built.predecessors(TaskId(101)).unwrap().len(), 101);
    }

    #[test]
    fn streaming_succ_relocation_keeps_ascending_order() {
        // Interleave submissions so the writer's successor span relocates
        // several times; order must stay ascending throughout.
        let mut g = TaskGraph::new();
        let w = g.add_task(desc("w"), [(0u64, AccessMode::Out)]);
        let mut readers = Vec::new();
        for i in 0..17u64 {
            // Unrelated tasks interleave, fragmenting the succ arena.
            g.add_task(desc("noise"), [(100 + i, AccessMode::Out)]);
            readers.push(g.add_task(desc("r"), [(0u64, AccessMode::In)]));
        }
        assert_eq!(g.successors(w).unwrap(), readers.as_slice());
    }

    #[test]
    fn a_streamed_chain_holds_one_successor_slot_per_edge() {
        // Eight chains fed a link each per wave, as a service's tenants
        // feed theirs: every producer has one successor, and its first
        // relocation gives it exactly one slot.
        let mut g = TaskGraph::new();
        for _wave in 0..12 {
            for chain in 0..8u64 {
                g.add_task(desc("link"), [(chain, AccessMode::InOut)]);
            }
        }
        assert_eq!(g.edge_count(), 8 * 11);
        assert_eq!(g.succ_arena.len(), g.edge_count());
    }

    #[test]
    fn with_capacity_is_behavior_neutral() {
        let mut plain = TaskGraph::new();
        let mut sized = TaskGraph::with_capacity(200, 400);
        sized.reserve_regions(8);
        for i in 0..200u64 {
            plain.add_task(desc("t"), [(i % 7, AccessMode::InOut)]);
            sized.add_task(desc("t"), [(i % 7, AccessMode::InOut)]);
        }
        assert_same_graph(&plain, &sized);
    }

    #[test]
    fn a_reservation_on_an_empty_graph_waits_for_its_first_task() {
        let mut g = TaskGraph::new();
        g.reserve(100, 50);
        assert_eq!(g.descriptors.capacity(), 0, "nothing allocated yet");
        let mut b = GraphBuilder::with_capacity(10, 10);
        for _ in 0..10 {
            b.task(desc("t"), [(0u64, AccessMode::InOut)]);
        }
        b.build_into(&mut g);
        assert_eq!(g.descriptors.capacity(), 10, "the builder's column");
        assert_eq!(g.reserved, (90, 41), "what the batch left");
        g.add_task(desc("t"), [(0u64, AccessMode::InOut)]);
        assert!(g.descriptors.capacity() >= 100);
        assert_eq!(g.reserved, (0, 0));
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let b = GraphBuilder::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        let g = b.build();
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
    }

    /// A frontier that is not closed under dependences is rejected and
    /// the graph is left untouched.
    #[test]
    fn rollback_rejects_unreachable_frontier() {
        let mut g = TaskGraph::new();
        let a = g.add_task(desc("a"), [(0u64, AccessMode::Out)]);
        let b = g.add_task(desc("b"), [(0u64, AccessMode::InOut)]);
        g.complete(a).unwrap();
        g.complete(b).unwrap();
        // b completed without a: impossible frontier.
        let err = g.rollback(&[b]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidTransition { task, .. } if task == b));
        assert_eq!(g.completed_count(), 2, "failed rollback must not mutate");
        assert!(matches!(
            g.rollback(&[TaskId(99)]),
            Err(CoreError::UnknownTask(TaskId(99)))
        ));
    }
}
