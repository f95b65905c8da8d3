//! The event-driven execution engine behind [`Runtime::run`].
//!
//! A discrete-event simulation:
//!
//! * `(time, seq)`-ordered **task-ready** and **replica-finish** events
//!   drive execution (a device-free moment is exactly the finish event
//!   of the work occupying it);
//! * placement decisions are made in *event order*, so independent chains
//!   interleave on device timelines the way a real ready-queue runtime
//!   would execute them;
//! * tasks may be submitted while a run is in progress
//!   ([`Runtime::submit`] between [`Runtime::step`] calls, or between
//!   [`Runtime::run`] calls): they join the in-flight schedule at the
//!   current virtual time;
//! * the fault model, selective replication, majority voting and the
//!   retry budget are evaluated per attempt — the verdict when its
//!   replicas *join* (the finish event), and retries restart from that
//!   moment;
//! * with [`resilience`](crate::resilience) enabled, periodic
//!   **checkpoint** events snapshot the completed frontier (task-aware
//!   volume, FTI-priced), and a task that exhausts its retry budget
//!   triggers a **rollback** to the last checkpoint instead of poisoning
//!   its downstream cone.
//!
//! Every placement goes through the shared [`Scheduler`] trait
//! ([`scheduler`](crate::scheduler)), the same abstraction HEATS drives
//! its cluster placements with.
//!
//! The per-event path is engineered to be allocation-free and to touch
//! as little memory as the simulation semantics allow — event-class
//! queues exploiting per-class monotonicity, inline replica sets with a
//! payload slab, per-runtime scratch buffers, placement priced once
//! per spec class, and inline dispatch of provably-next ready events.
//! DESIGN.md §8 ("Hot path and allocation discipline") catalogues what
//! is allowed to allocate where, and the invariants the equivalence
//! proptests pin.
//!
//! [`Scheduler`]: crate::scheduler::Scheduler

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use legato_core::requirements::SecurityLevel;
use legato_core::task::TaskId;
use legato_core::units::{Bytes, Joule, Seconds};
use legato_hw::device::{Device, DeviceId, DeviceSpec};
use rand::Rng;

use crate::analyze::{AnalysisMode, AnalysisState};
use crate::churn::{ChurnEventKind, ChurnOp, DeferredTask, DepartureKind};
use crate::error::RuntimeError;
use crate::regions::slot_accesses;
use crate::replication::{vote, ReplicaResult, ReplicationStats, MAX_REPLICAS};
use crate::resilience::{CheckpointRecord, EngineCheckpoint, RollbackEvent};
use crate::runtime::{golden_value, Placements, ReplicaDevices, RunReport, Runtime, TaskOutcome};
use crate::scheduler::{Estimate, Plan};
use crate::trace::{FinishVerdict, Record, RecordKind};

/// `n` replicas, at most [`MAX_REPLICAS`], as an [`Attempt::replicas`]
/// width.
fn replica_width(n: usize) -> u8 {
    debug_assert!(n <= MAX_REPLICAS);
    u8::try_from(n).expect("at most MAX_REPLICAS replicas")
}

/// One scheduled simulation event. `Copy`, free of owned heap data, and
/// deliberately *small* (32 bytes): every heap push/pop sifts entries
/// through O(log n) levels, so entry size is sift bandwidth. The bulky
/// finish payload (attempt, replica devices, start time, verdict)
/// lives in a slab on the side ([`EngineState::finish_slab`]) and the
/// event carries only its slot index.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Virtual time at which the event fires.
    time: Seconds,
    /// Tie-break: events at equal times fire in creation order, which
    /// keeps the whole simulation deterministic.
    seq: u64,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// A task's dependences are met: place and start it.
    Ready(TaskId),
    /// All replicas of one attempt joined: vote on the results. The
    /// payload is `finish_slab[slot]`, reclaimed when the event fires.
    Finish {
        /// Slab slot holding the [`FinishPayload`].
        slot: u32,
    },
    /// Periodic checkpoint of the completed frontier (resilience mode
    /// only; at most one is armed at a time).
    Checkpoint,
    /// A fleet change fires (churn mode only). The payload is
    /// `churn.ops[op]` — op slots are append-only, so the index stays
    /// valid however many fleet changes pile up.
    Churn {
        /// Index into [`ChurnState::ops`](crate::churn::ChurnState).
        op: u32,
    },
}

/// The facts of one attempt of one task that the task's descriptor
/// does not hold, fixed when the task is claimed. Every launch — first
/// placement, fault or crash retry, crash migration, deferred
/// re-dispatch — hands this one value to [`Runtime::start_attempt`],
/// which reads the task's work and kind back from the graph's
/// descriptor column.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Attempt {
    pub(crate) task: TaskId,
    /// Confidentiality level (drives re-planning and output sealing).
    pub(crate) security: SecurityLevel,
    /// Enclave code measurement of the task type (meaningful only when
    /// `security` requires an enclave).
    pub(crate) measurement: u64,
    /// Replicas to place, at most [`MAX_REPLICAS`]. A finish payload
    /// carries the width actually placed, so a retry or migration
    /// re-plans at that width.
    pub(crate) replicas: u8,
    /// Zero-based attempt number.
    pub(crate) attempt: u32,
}

/// Out-of-heap payload of one finish event: one slab slot per attempt
/// in flight, so its size is bytes per task on a wide ready front.
#[derive(Debug, Clone, Copy)]
struct FinishPayload {
    /// The attempt; `attempt.replicas` is the width placed.
    attempt: Attempt,
    /// Devices of the replicas, primary first; the first
    /// `attempt.replicas` are live.
    devices: [u32; MAX_REPLICAS],
    /// Earliest replica start.
    start: Seconds,
    /// The vote on the replicas' results, taken when they were drawn at
    /// launch (the results and the golden value are not kept).
    verdict: FinishVerdict,
    /// Set when a device crash killed this attempt before its finish
    /// event fired: the event stays queued (heap entries cannot be
    /// retracted) and no-ops on arrival, so slot recycling and per-device
    /// head promotion keep their invariants.
    crashed: bool,
}

const _: () = assert!(
    size_of::<FinishPayload>() <= 48,
    "DESIGN.md §8: a finish payload is ≤ 48 B"
);

impl FinishPayload {
    /// The replicas' devices, primary first.
    fn devices(&self) -> &[u32] {
        &self.devices[..usize::from(self.attempt.replicas)]
    }

    /// The device of a single-replica attempt.
    fn sole_device(&self) -> Option<usize> {
        (self.attempt.replicas == 1).then_some(self.devices[0] as usize)
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .0
            .total_cmp(&other.time.0)
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Event {}

/// Persistent simulation state of the event-driven engine.
///
/// Events are split across two queues sharing one `(time, seq)` total
/// order: *ready* events always fire at the virtual time they are pushed
/// (task release and streaming submission both happen "now"), so their
/// push order is already sorted and a FIFO holds them with O(1) ops;
/// *finish* and *checkpoint* events carry future times and live in the
/// heap. [`Runtime::next_event`] merges the two fronts, which preserves
/// the exact firing order of a single heap while halving its traffic —
/// and the entries that do take the heap are 32-byte keys (payloads live
/// in `finish_slab`), so the remaining sift traffic is cheap.
#[derive(Debug, Clone, Default)]
pub(crate) struct EngineState {
    heap: BinaryHeap<Reverse<Event>>,
    /// Ready events in push order — non-decreasing `(time, seq)` (see
    /// [`EngineState::push_ready_at`]).
    ready_queue: VecDeque<Event>,
    /// Single-replica finish events deferred per device. Device
    /// timelines are append-only, so these are non-decreasing per
    /// device, and only each device's *earliest* pending finish can ever
    /// be the global minimum — so only that head lives in the heap
    /// (`head_in_heap`), and firing it promotes the next. This bounds
    /// the heap population to roughly the device count (plus replicated
    /// attempts and the checkpoint), keeping sift depth trivial however
    /// many tasks are in flight.
    deferred_finishes: Vec<VecDeque<Event>>,
    /// Whether device `d` currently has its head finish in the heap.
    head_in_heap: Vec<bool>,
    /// Total events parked in `deferred_finishes` (for `is_idle`).
    deferred: usize,
    /// Whether a [`EventKind::Checkpoint`] event is queued (at most one
    /// lives in the heap at a time).
    ckpt_armed: bool,
    seq: u64,
    now: Seconds,
    /// The outcome table: one slot per submitted task, indexed by task
    /// id, so it is sorted by construction. A slot is vacant
    /// ([`TaskOutcome::VACANT`]) until its task's outcome is accepted,
    /// and again after a rollback discards it. Slots are added when a
    /// run or step starts, never on the accept path. A report whose every
    /// slot is filled shares its chunks (see [`Placements`]).
    outcomes: Placements,
    /// Filled slots of `outcomes`.
    filled: usize,
    /// Every acceptance in the order it happened: the id of each outcome
    /// written to `outcomes`, appended and never truncated. A rollback
    /// clears outcome slots but leaves this log alone, so an id whose
    /// work is redone appears again; a consumer holding a cursor into it
    /// (see [`Runtime::accepted`]) visits each acceptance exactly once.
    accepted: Vec<TaskId>,
    stats: ReplicationStats,
    failed: Vec<TaskId>,
    /// Payloads of in-flight finish events, indexed by
    /// [`EventKind::Finish::slot`]; slots recycle through `free_slots`,
    /// so steady state allocates nothing here either.
    finish_slab: Vec<FinishPayload>,
    free_slots: Vec<u32>,
    /// Reusable scratch buffers: after warm-up, the per-event path
    /// allocates nothing through these.
    scratch: Scratch,
    /// Per-device placement evaluations performed so far (pruned and
    /// unpruned placements alike) — the sub-linearity observable behind
    /// [`Runtime::placement_evals`]. Deliberately *not* part of
    /// [`RunReport`]: a run with a [`PoolConfig`](crate::pool::PoolConfig)
    /// and one without must stay bit-identical there.
    pub(crate) sched_evals: u64,
    /// The event trace; `None` (and never written) unless the runtime
    /// was built with
    /// [`EngineConfig::with_trace`](crate::config::EngineConfig::with_trace).
    pub(crate) trace: Option<Vec<Record>>,
}

/// Per-runtime scratch buffers for the hot path. Contents are dead
/// between events; only the capacity is carried.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The unpruned search's `Weighted` survivors, each candidate's plan
    /// beside its estimate, with capacity for the whole fleet
    /// (`start_attempt`). Every other selection keeps its top-k inline.
    survivors: Vec<(Plan, Estimate)>,
    /// Tasks released by a completion (`handle_finish`).
    released: Vec<TaskId>,
    /// Topology transfer charge per pool for the task being placed
    /// (`start_attempt`).
    pool_extras: Vec<Seconds>,
}

impl EngineState {
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Arm the periodic checkpoint (at most one exists at a time).
    fn push_checkpoint(&mut self, time: Seconds) {
        debug_assert!(!self.ckpt_armed, "at most one armed checkpoint");
        self.ckpt_armed = true;
        let seq = self.next_seq();
        self.heap.push(Reverse(Event {
            time,
            seq,
            kind: EventKind::Checkpoint,
        }));
    }

    /// Park a finish payload in the slab, reusing a free slot when one
    /// exists, and queue its event.
    ///
    /// Single-replica attempts defer behind their device's earlier
    /// pending finishes (append-only timelines make those non-decreasing
    /// per device, so a non-head entry can never be the global minimum);
    /// replicated attempts — whose finish is a max over several
    /// timelines — go straight to the heap.
    fn push_finish(&mut self, time: Seconds, payload: FinishPayload) {
        let device = payload.sole_device();
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.finish_slab[slot as usize] = payload;
                slot
            }
            None => {
                self.finish_slab.push(payload);
                (self.finish_slab.len() - 1) as u32
            }
        };
        let seq = self.next_seq();
        let event = Event {
            time,
            seq,
            kind: EventKind::Finish { slot },
        };
        if let Some(d) = device {
            if self.deferred_finishes.len() <= d {
                self.deferred_finishes.resize_with(d + 1, VecDeque::new);
                self.head_in_heap.resize(d + 1, false);
            }
            if self.head_in_heap[d] {
                debug_assert!(
                    self.deferred_finishes[d]
                        .back()
                        .is_none_or(|b| b.time.0 <= time.0),
                    "single-replica finishes per device must be non-decreasing"
                );
                self.deferred_finishes[d].push_back(event);
                self.deferred += 1;
                return;
            }
            self.head_in_heap[d] = true;
        }
        self.heap.push(Reverse(event));
    }

    /// Reclaim a fired finish event's payload, promoting the device's
    /// next deferred finish (now its earliest pending one) into the
    /// heap.
    fn take_finish(&mut self, slot: u32) -> FinishPayload {
        self.free_slots.push(slot);
        let payload = self.finish_slab[slot as usize];
        if let Some(d) = payload.sole_device() {
            match self.deferred_finishes[d].pop_front() {
                Some(next) => {
                    self.deferred -= 1;
                    self.heap.push(Reverse(next));
                }
                None => self.head_in_heap[d] = false,
            }
        }
        payload
    }

    pub(crate) fn push_ready(&mut self, task: TaskId) {
        let at = self.now;
        self.push_ready_at(at, task);
    }

    /// Enqueue a ready event at `time`. Callers pass the current virtual
    /// time (ready tasks are placed "now", whether released by a
    /// completion or submitted mid-run) or a rollback's resume time, and
    /// virtual time never rewinds, so in steady state the FIFO stays
    /// `(time, seq)` sorted without heap routing. The one exception — a
    /// streaming submission while re-armed rollback work sits at a
    /// *future* resume time — routes through the overflow heap, which
    /// accepts any time, so the merged order stays exact.
    fn push_ready_at(&mut self, time: Seconds, task: TaskId) {
        let seq = self.next_seq();
        let event = Event {
            time,
            seq,
            kind: EventKind::Ready(task),
        };
        if self
            .ready_queue
            .back()
            .is_some_and(|back| back.time.0 > time.0)
        {
            self.heap.push(Reverse(event));
        } else {
            self.ready_queue.push_back(event);
        }
    }

    /// Drop every queued event (checkpoint rollback re-queues the ready
    /// frontier afterwards).
    pub(crate) fn clear_events(&mut self) {
        self.heap.clear();
        self.ready_queue.clear();
        for fifo in &mut self.deferred_finishes {
            fifo.clear();
        }
        self.head_in_heap.iter_mut().for_each(|h| *h = false);
        self.deferred = 0;
        self.ckpt_armed = false;
        self.finish_slab.clear();
        self.free_slots.clear();
    }

    /// Whether any event (any queue) is outstanding.
    fn is_idle(&self) -> bool {
        self.heap.is_empty() && self.ready_queue.is_empty() && self.deferred == 0
    }

    /// Pop the `(time, seq)` minimum across the ready FIFO's front and
    /// the heap's top, or `None` when both are empty.
    fn pop_min(&mut self) -> Option<Event> {
        let take_ready = match (self.ready_queue.front(), self.heap.peek()) {
            (Some(r), Some(Reverse(h))) => r.cmp(h) == Ordering::Less,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let event = if take_ready {
            self.ready_queue.pop_front().expect("front checked above")
        } else {
            let Reverse(event) = self.heap.pop().expect("peeked above");
            event
        };
        if matches!(event.kind, EventKind::Checkpoint) {
            self.ckpt_armed = false;
        }
        Some(event)
    }

    /// Record an accepted outcome in its task's slot.
    fn record_outcome(&mut self, outcome: TaskOutcome) {
        let slot = self.outcomes.slot_mut(outcome.task.index());
        debug_assert!(slot.is_vacant(), "one accepted outcome per task");
        *slot = outcome;
        self.filled += 1;
        self.accepted.push(outcome.task);
    }

    /// Vacate `task`'s slot, returning the outcome it held.
    fn discard_outcome(&mut self, task: TaskId) -> Option<TaskOutcome> {
        if self.outcomes[task.index()].is_vacant() {
            return None;
        }
        self.filled -= 1;
        let slot = self.outcomes.slot_mut(task.index());
        Some(std::mem::replace(slot, TaskOutcome::VACANT))
    }

    /// Pre-size the outcome table (every chunk it will fill) and the
    /// acceptance log for `tasks` more tasks.
    pub(crate) fn reserve(&mut self, tasks: usize) {
        self.outcomes.reserve(tasks);
        self.accepted.reserve(tasks);
    }

    /// A report's placements: the table's chunks, shared, when every
    /// slot is filled, an exactly sized compaction of it otherwise.
    fn placements(&self) -> Placements {
        if self.filled == self.outcomes.len() {
            self.outcomes.share()
        } else {
            self.outcomes.compact(self.filled)
        }
    }

    /// Append a record to the trace when it is on.
    fn record(&mut self, at: Seconds, task: TaskId, kind: RecordKind) {
        if let Some(trace) = &mut self.trace {
            trace.push(Record { at, task, kind });
        }
    }
}

impl Runtime {
    /// Execute every submitted task with the event-driven engine and
    /// return the cumulative report.
    ///
    /// Placement follows event order: whenever a task becomes ready, its
    /// replicas are placed on the devices the [`Policy`] ranks best *at
    /// that simulated moment*, so independent chains interleave instead
    /// of committing device time in submission order. Each task's replica
    /// count follows its
    /// [`Criticality`](legato_core::requirements::Criticality); replicas
    /// are placed on distinct devices in policy-preference order. A task
    /// whose faults cannot be masked within the retry budget is failed
    /// and its dependents are poisoned and skipped.
    ///
    /// The engine is persistent: tasks submitted after a run joins the
    /// virtual timeline where it left off, and a subsequent `run` extends
    /// the same report. For single-stepped streaming execution see
    /// [`Runtime::step`].
    ///
    /// The returned report is [`Runtime::report`] at quiescence, a
    /// snapshot: when every task completed, its placements share the
    /// chunks of the engine's outcome table instead of copying them, and
    /// while the report is alive the engine copies only the chunks it
    /// writes to afterwards (at most the partly filled last one when the
    /// next run grows the table).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoDevices`] when the runtime has no devices;
    /// [`RuntimeError::InvalidWeight`] for an unusable
    /// [`Policy::Weighted`] weight and
    /// [`RuntimeError::InvalidParameter`] for a device spec the cost
    /// model cannot price (both validated up front, never a mid-run
    /// panic); [`RuntimeError::AnalysisFailed`] when static analysis is
    /// configured in enforce mode and found error-severity diagnostics
    /// (also up front — no event dispatches on a refused graph).
    ///
    /// [`Policy`]: crate::scheduler::Policy
    /// [`Policy::Weighted`]: crate::scheduler::Policy::Weighted
    pub fn run(&mut self) -> Result<RunReport, RuntimeError> {
        // Same semantics as `while self.step()?.is_some() {}`, with the
        // per-event entry work hoisted out of the loop: it is invariant
        // while the loop owns the runtime, and the loop runs 2–3 events
        // per simulated task.
        self.enter()?;
        while let Some(event) = self.next_event() {
            self.dispatch(event)?;
        }
        self.drained();
        Ok(self.report())
    }

    /// Process the next simulation event, returning its virtual time, or
    /// `None` when the engine is idle (no in-flight work).
    ///
    /// This is the streaming interface: callers may interleave
    /// [`Runtime::submit`] with `step` to feed tasks into a run that is
    /// already in progress — newly submitted ready tasks are scheduled at
    /// the current virtual time.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Runtime::run`].
    pub fn step(&mut self) -> Result<Option<Seconds>, RuntimeError> {
        self.enter()?;
        match self.next_event() {
            Some(event) => {
                self.dispatch(event)?;
                Ok(Some(self.engine.now))
            }
            None => {
                self.drained();
                Ok(None)
            }
        }
    }

    /// The checks and lazy set-up every [`Runtime::run`] and
    /// [`Runtime::step`] starts with; sizes resolve only for a reader.
    fn enter(&mut self) -> Result<(), RuntimeError> {
        if self.devices.is_empty() {
            return Err(RuntimeError::NoDevices);
        }
        self.policy.validate()?;
        self.classes.check()?;
        self.ensure_analyzed()?;
        // One outcome slot per submitted task.
        self.engine.outcomes.grow(self.graph.len());
        if self.security.active || self.resilience.is_some() || self.topology.is_some() {
            self.resolve_sizes();
        }
        self.plan_resilience()?;
        self.plan_churn();
        Ok(())
    }

    /// Pop the next live event — the `(time, seq)` minimum across every
    /// engine queue — dropping a checkpoint armed on a draining run
    /// (nothing left in flight), and advance virtual time.
    fn next_event(&mut self) -> Option<Event> {
        loop {
            let event = self.engine.pop_min()?;
            if matches!(event.kind, EventKind::Checkpoint) && self.engine.is_idle() {
                // Nothing left in flight: the run is draining, so the
                // armed checkpoint is dropped without advancing time.
                continue;
            }
            self.engine.now = self.engine.now.max(event.time);
            return Some(event);
        }
    }

    fn dispatch(&mut self, event: Event) -> Result<(), RuntimeError> {
        match event.kind {
            EventKind::Ready(task) => self.handle_ready(task, event.time),
            EventKind::Finish { slot } => {
                // Reclaim the slot even for a crash-tombstoned attempt:
                // `take_finish` owns the recycling and per-device head
                // promotion, and both must run for every queued event.
                let payload = self.engine.take_finish(slot);
                if payload.crashed {
                    return Ok(());
                }
                self.handle_finish(payload, event.time)
            }
            EventKind::Checkpoint => {
                self.handle_checkpoint(event.time);
                Ok(())
            }
            EventKind::Churn { op } => self.handle_churn(op, event.time),
        }
    }

    /// The engine drained: this run is over. Forget the planned interval
    /// so the next run re-plans it from the tasks it actually contains
    /// (the restore target — the completed frontier — stays valid across
    /// runs).
    fn drained(&mut self) {
        if let Some(res) = &mut self.resilience {
            res.interval = None;
        }
    }

    /// Lazily pick this run's checkpoint interval (resilience mode): the
    /// first step after tasks exist plans Young's interval from the
    /// configured MTBF and the scheduler's estimates, records the current
    /// frontier as the restore target, and arms the first checkpoint
    /// event.
    fn plan_resilience(&mut self) -> Result<(), RuntimeError> {
        let Some(res) = &self.resilience else {
            return Ok(());
        };
        if self.graph.is_empty() {
            return Ok(());
        }
        if let Some(interval) = res.interval {
            // Already planned. Re-arm the checkpoint chain if it ended
            // with a drained run and new work has arrived since.
            if !self.engine.ckpt_armed && !self.engine.is_idle() {
                let at = self.engine.now + interval;
                self.engine.push_checkpoint(at);
            }
            return Ok(());
        }
        let (interval, _cost) = crate::resilience::plan_interval(
            res,
            &self.regions,
            &self.devices,
            &mut self.classes,
            self.policy,
            &self.graph,
            &self.energy.op_fault_probs,
        )?;
        let now = self.engine.now;
        self.commit_checkpoint(now, Bytes::ZERO, Seconds::ZERO);
        self.resilience.as_mut().expect("checked above").interval = Some(interval);
        self.engine.push_checkpoint(now + interval);
        Ok(())
    }

    /// Make the completed frontier as it stands the restore target: the
    /// record of a checkpoint of `bytes` whose write took `cost` and
    /// completes at `time`, with what a rollback needs beside it.
    fn commit_checkpoint(&mut self, time: Seconds, bytes: Bytes, cost: Seconds) {
        let res = self
            .resilience
            .as_mut()
            .expect("checkpoints exist only in resilience mode");
        res.last = Some(EngineCheckpoint {
            record: CheckpointRecord {
                frontier: self.graph.frontier(),
                bytes,
                cost,
            },
            time,
            accepted_mark: self.engine.accepted.len(),
            // Empty, and free to copy, while no reader writes residency.
            residency: self.regions.residency.clone(),
        });
    }

    /// Take a periodic checkpoint at virtual time `at`: snapshot the
    /// completed frontier, write the task-aware live-region volume to
    /// the checkpoint store, and re-arm the next checkpoint.
    ///
    /// Cost per checkpoint: O(n/64) for the frontier snapshot (a copy of
    /// the completed bitmap) and O(live regions) for the volume — both
    /// incremental views maintained by the graph.
    fn handle_checkpoint(&mut self, at: Seconds) {
        let finish = self.take_checkpoint(at);
        let res = self
            .resilience
            .as_ref()
            .expect("checkpoint events exist only in resilience mode");
        let interval = res.interval.expect("checkpoints are armed after planning");
        self.engine.push_checkpoint(finish + interval);
    }

    /// The checkpoint itself, without re-arming the periodic chain:
    /// shared by the periodic [`Self::handle_checkpoint`] event and the
    /// drain path, which snapshots the frontier *once* when a device
    /// leaves (the armed periodic event is untouched). Returns the
    /// checkpoint's finish time.
    fn take_checkpoint(&mut self, at: Seconds) -> Seconds {
        let res = self
            .resilience
            .as_mut()
            .expect("checkpoint events exist only in resilience mode");
        // Checkpoints of confidential data route through `seal`: the
        // sealed share of the live frontier pays host-side crypto on top
        // of the FTI write cost, so resilience composes with security.
        let (bytes, sealed) = self.regions.live_volume(self.graph.live_slots());
        let seal = self.security.charge_checkpoint_seal(sealed);
        let (start, finish) = res.store.write(at, bytes, seal);
        res.stats.checkpoints += 1;
        res.stats.checkpoint_bytes += bytes;
        res.blackout_until = res.store.stall_after(start, finish);
        self.commit_checkpoint(finish, bytes, finish - start);
        finish
    }

    /// Restore the last checkpointed frontier after `task` exhausted its
    /// retry budget at time `at`: discard post-checkpoint work (counted
    /// as wasted), pay the restart cost, and re-enqueue the re-armed
    /// ready set as engine events.
    ///
    /// Cost follows what is discarded: the acceptance-log entries since
    /// the checkpoint (or the previous rollback to it), plus the graph's
    /// differential [`TaskGraph::rollback_to`](legato_core::graph::TaskGraph::rollback_to).
    fn rollback_to_checkpoint(&mut self, task: TaskId, at: Seconds) -> Result<(), RuntimeError> {
        let res = self
            .resilience
            .as_mut()
            .expect("rollback only in resilience mode");
        let last = res.last.as_mut().expect("planning seeds the first record");
        // An outcome outside the frontier was accepted after the frontier
        // was taken. Each rollback empties those slots and moves the mark
        // up, so a task appears at most once past it; ascending id order
        // keeps the floating-point sum of `wasted` reproducible.
        let mut discarded = self.engine.accepted[last.accepted_mark..].to_vec();
        last.accepted_mark = self.engine.accepted.len();
        res.log_visits += discarded.len() as u64;
        self.engine.record(
            at,
            task,
            RecordKind::Rollback {
                discarded: discarded.len(),
            },
        );
        discarded.sort_unstable();
        let mut wasted = Seconds::ZERO;
        for id in discarded {
            if let Some(o) = self.engine.discard_outcome(id) {
                wasted += o.finish - o.start;
            }
        }
        // The graph re-arms every failed and poisoned task, whenever it
        // failed: none of them is failed any more.
        self.engine.failed.clear();
        let resume = res.store.read(at, last.record.bytes);
        // Every queued event is stale after the rollback: in-flight
        // attempts are aborted (their device-time and energy stay spent)
        // and the armed checkpoint is re-based on the restart. Churn
        // events are the exception — fleet changes are external reality,
        // not speculative work, so they survive the rewind with their
        // original `(time, seq)` keys.
        let surviving_churn: Vec<Event> = if self.churn.is_some() {
            self.engine
                .heap
                .iter()
                .filter(|Reverse(e)| matches!(e.kind, EventKind::Churn { .. }))
                .map(|Reverse(e)| *e)
                .collect()
        } else {
            Vec::new()
        };
        self.engine.clear_events();
        for e in surviving_churn {
            self.engine.heap.push(Reverse(e));
        }
        if let Some(churn) = &mut self.churn {
            // Parked placements rewind with the frontier: their tasks
            // re-arm through the restored ready set, and the preserved
            // timeout events no-op against the emptied list.
            churn.deferred.clear();
        }
        let ready = self.graph.rollback_to(&last.record.frontier)?;
        // Region residency rewinds with the frontier, for every reader
        // alike: discarded post-checkpoint writes must not leave stale
        // sealedness or producer entries behind.
        self.regions.residency.clone_from(&last.residency);
        for t in ready {
            self.engine.push_ready_at(resume, t);
        }
        let interval = res.interval.expect("rollback only after planning");
        res.blackout_until = resume;
        res.stats.rollbacks += 1;
        res.stats.wasted_work += wasted;
        res.trace.push(RollbackEvent {
            task,
            at,
            resumed_at: resume,
            wasted,
        });
        self.engine.push_checkpoint(resume + interval);
        Ok(())
    }

    /// The cumulative run report: every outcome, failure and statistic
    /// accumulated by the engine so far, plus whole-system energy.
    ///
    /// The report is a snapshot: nothing the runtime does afterwards
    /// changes it. Its [`placements`](RunReport::placements) share the
    /// chunks of the engine's outcome table, uncopied, when every
    /// submitted task has an accepted outcome (a run that drained without
    /// failures), and are an exactly sized copy of the accepted outcomes
    /// otherwise. A shared chunk is copied by the engine's next write to
    /// it, and only if the report (or a clone of its placements) is still
    /// alive then.
    pub fn report(&self) -> RunReport {
        // The outcome table is indexed by task id: the placement list
        // falls out sorted without sorting.
        let placements = self.engine.placements();
        let mut failed = self.engine.failed.clone();
        failed.sort_unstable();
        let makespan = placements
            .iter()
            .map(|p| p.finish)
            .fold(Seconds::ZERO, Seconds::max);
        let busy_energy: Joule = self.devices.iter().map(|d| d.meter().total()).sum();
        let idle_energy: Joule = match &self.churn {
            // Churn-free fleet: every device idles whenever it is not
            // busy, across the whole makespan (the pre-churn arithmetic,
            // bit for bit).
            None => self
                .devices
                .iter()
                .map(|d| {
                    let idle_time = (makespan - d.meter().elapsed()).max(Seconds::ZERO);
                    d.spec.idle_power * idle_time
                })
                .sum(),
            // Malleable fleet: a device draws idle power only while it is
            // part of the fleet — from its arrival to its departure (or
            // the makespan, whichever comes first).
            Some(churn) => self
                .devices
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let from = churn.arrived_at[i].min(makespan);
                    let until = churn.departed_at[i].map_or(makespan, |t| t.min(makespan));
                    let present = (until - from).max(Seconds::ZERO);
                    let idle_time = (present - d.meter().elapsed()).max(Seconds::ZERO);
                    d.spec.idle_power * idle_time
                })
                .sum(),
        };
        RunReport {
            makespan,
            busy_energy,
            total_energy: busy_energy + idle_energy,
            placements,
            stats: self.engine.stats,
            failed,
            resilience: self.resilience.as_ref().map(|r| r.stats),
            security: self.security.active.then_some(self.security.stats),
            energy: self
                .energy
                .active
                .then(|| self.energy.stats(busy_energy, idle_energy, makespan)),
            analysis: self.analysis.as_ref().and_then(AnalysisState::report),
            churn: self.churn.as_ref().map(|c| c.stats),
        }
    }

    /// The acceptance log: the id of every outcome the engine accepted,
    /// in acceptance order, append-only. A consumer that remembers how
    /// far it has read sees each new completion exactly once without
    /// re-reading the cumulative [`Runtime::report`]. A checkpoint
    /// rollback discards outcomes but not log entries: look an id up
    /// with [`Runtime::outcome`] to see whether it still stands, and
    /// expect it again if the work is redone.
    #[must_use]
    pub fn accepted(&self) -> &[TaskId] {
        &self.engine.accepted
    }

    /// The currently accepted outcome of `task`: `None` when it has not
    /// completed, or its completion was discarded by a rollback and not
    /// yet redone.
    #[must_use]
    pub fn outcome(&self, task: TaskId) -> Option<&TaskOutcome> {
        let slot = self.engine.outcomes.get(task.index())?;
        (!slot.is_vacant()).then_some(slot)
    }

    /// The event trace recorded so far, in the order the engine wrote it;
    /// empty unless the runtime was built with
    /// [`EngineConfig::with_trace`](crate::config::EngineConfig::with_trace).
    #[must_use]
    pub fn trace(&self) -> &[Record] {
        self.engine.trace.as_deref().unwrap_or_default()
    }

    /// Fold the tasks submitted since the last entry into the analysis
    /// state, when analysis is configured. In [`AnalysisMode::Enforce`]
    /// error-severity findings refuse the run here — before any event
    /// is dispatched — and at every later entry while they stand.
    fn ensure_analyzed(&mut self) -> Result<(), RuntimeError> {
        let Some(mut state) = self.analysis.take() else {
            return Ok(());
        };
        state.extend(&self.analysis_context());
        let enforce = state.config.mode == AnalysisMode::Enforce;
        let refusal = if enforce && state.has_errors() {
            state.report()
        } else {
            None
        };
        self.analysis = Some(state);
        refusal.map_or(Ok(()), |report| {
            Err(RuntimeError::AnalysisFailed(Box::new(report)))
        })
    }

    /// Current virtual time of the engine (the time of the last processed
    /// event).
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.engine.now
    }

    /// Whether the engine has unprocessed events.
    #[must_use]
    pub fn has_pending_events(&self) -> bool {
        !self.engine.is_idle()
    }

    fn handle_ready(&mut self, task: TaskId, at: Seconds) -> Result<(), RuntimeError> {
        // Stale events (task poisoned by an upstream failure) are
        // dropped, not errors; `try_claim` answers "still ready?",
        // claims, and returns the descriptor in one call. What a launch
        // needs beyond the descriptor goes into one `Attempt` here.
        let Some(desc) = self.graph.try_claim(task)? else {
            return Ok(());
        };
        self.engine.record(at, task, RecordKind::Ready);
        // Replicas spread over the devices the task may use: the
        // surviving fleet under churn, the TEE pool for an enclave-only
        // task. Under churn `.max(1)` keeps the attempt alive through a
        // transiently empty pool — the k == 0 deferral in
        // `start_attempt` owns that case.
        let security = desc.requirements.security;
        let wanted = desc.requirements.criticality.replica_count();
        let avail = self.churn.as_ref().map(|c| c.available.as_slice());
        let eligible = self.classes.eligible_devices(security, avail);
        let mut attempt = Attempt {
            task,
            security,
            measurement: 0,
            replicas: replica_width(wanted.min(eligible).max(usize::from(avail.is_some()))),
            attempt: 0,
        };
        // An empty TEE pool is a hard error for an enclave-only task —
        // the engine never degrades confidentiality. The enclave setup
        // result is held (not `?`-propagated) so the error paths below
        // can fail the claimed task first: without that, the task would
        // be stuck `Running` forever and a follow-up `run()` would
        // silently drop it and its cone from both `placements` and
        // `failed`.
        let enclave_setup = security
            .requires_enclave()
            .then(|| self.security.ensure_enclaves(desc.name.as_bytes()));
        if let Some(setup) = enclave_setup {
            match setup {
                Ok(m) if eligible > 0 => attempt.measurement = m,
                Ok(m) => {
                    // Under churn an empty TEE pool is (possibly) transient:
                    // park the task for a bounded wait instead of refusing —
                    // a re-arrival re-spreads it, the deadline fails it. It
                    // parks with the surviving fleet's replica budget.
                    if avail.is_some() {
                        let fleet = self.classes.eligible_devices(SecurityLevel::Public, avail);
                        attempt.replicas = replica_width(wanted.min(fleet).max(1));
                        attempt.measurement = m;
                        self.defer_placement(attempt, at);
                        return Ok(());
                    }
                    self.fail_task(task)?;
                    return Err(RuntimeError::NoSecurePlacement(task));
                }
                Err(e) => {
                    self.fail_task(task)?;
                    return Err(e);
                }
            }
        }
        if attempt.replicas == 1 {
            self.engine.stats.unreplicated += 1;
        } else {
            self.engine.stats.replica_executions += u64::from(attempt.replicas - 1);
        }
        self.start_attempt(attempt, at)
    }

    /// Fail `task` and poison its downstream cone.
    fn fail_task(&mut self, task: TaskId) -> Result<(), RuntimeError> {
        self.engine.failed.push(task);
        self.graph.fail(task)?;
        Ok(())
    }

    /// Place and launch one (possibly replicated) attempt at virtual
    /// time `at`, pushing the finish event where its replicas join.
    ///
    /// Every launch enters here — first placement, fault or crash retry,
    /// migration of an attempt queued on a crashed device, re-dispatch
    /// of a deferred one — so the checkpoint blackout, the security
    /// plan, the energy objective and the placement search bind all of
    /// them alike.
    ///
    /// This is the allocation-free half of the hot path: the roofline
    /// runs once per spec class, and the one search
    /// ([`DevicePools::plan_k`](crate::pool::DevicePools::plan_k)) selects
    /// in the pass that prices, keeping the ≤ 3 best plans in an inline
    /// accumulator — no ranking vector, no sort, no second walk. Only an
    /// unpruned `Weighted` placement, whose min-max norm needs every
    /// candidate first, keeps the candidates no earlier member of their
    /// shard dominates in per-runtime scratch and scores those few once
    /// the pass has folded the norm. Confidential tasks (and tasks
    /// reading sealed regions) first build a per-class security plan
    /// whose costs are folded into the estimates, so the policy ranks
    /// TEE and crypto capability like any other dimension.
    fn start_attempt(&mut self, attempt: Attempt, at: Seconds) -> Result<(), RuntimeError> {
        let Attempt {
            task,
            security,
            measurement,
            replicas,
            ..
        } = attempt;
        let replicas = usize::from(replicas);
        // A synchronous checkpoint or an in-progress restart stalls new
        // placements (resilience mode).
        let at = match &self.resilience {
            Some(res) => at.max(res.blackout_until),
            None => at,
        };
        // Security plan for this attempt (placement rule + extra costs).
        // Re-prepared per attempt: retries see the attestation cache the
        // first attempt already warmed.
        let needs_sec = self.security.active && {
            let accesses = slot_accesses(&self.graph, task)?;
            self.security.prepare(
                &self.classes,
                &self.regions,
                accesses,
                security,
                measurement,
            )
        };
        // Topology charge for this task: per-pool producer→consumer
        // transfer extras, folded into every estimate before scoring.
        if let Some(topology) = &self.topology {
            let accesses = slot_accesses(&self.graph, task)?;
            let extras = &mut self.engine.scratch.pool_extras;
            topology.charge_into(&self.regions, &self.pools, accesses, extras);
        }
        // Everything a candidate inherits from its spec is priced here,
        // once per class; the search reads it per candidate.
        let desc = self.graph.descriptor(task)?;
        self.classes.price(desc.work, desc.kind);
        // One search over the class-sharded pools. Departed and draining
        // devices left their shards, so the churn mask is not read here.
        // The plans are committed as-is; the policy was validated at
        // run/step entry.
        let mut planned = [(0usize, Seconds::ZERO, Seconds::ZERO); MAX_REPLICAS];
        let (k, evaluated, pruned) = self.pools.plan_k(
            self.policy,
            &self.classes,
            at,
            self.topology
                .is_some()
                .then_some(self.engine.scratch.pool_extras.as_slice()),
            needs_sec.then_some(&self.security.plan),
            &mut self.energy,
            &mut self.engine.scratch.survivors,
            &mut planned[..replicas.min(MAX_REPLICAS)],
        );
        self.engine.sched_evals += evaluated;
        if k == 0 {
            // Under churn, an empty eligible set means every (capable)
            // device departed: defer rather than refuse. Without churn
            // this is only reachable for an enclave-only task whose
            // eligible set is empty — `handle_ready` guards the no-TEE
            // case, so that branch is a defensive backstop. Fail the
            // claimed task first so the graph stays consistent for
            // follow-up runs.
            if self.churn.is_some() {
                self.defer_placement(attempt, at);
                return Ok(());
            }
            self.fail_task(task)?;
            return Err(RuntimeError::NoSecurePlacement(task));
        }
        let golden = golden_value(task);
        let mut devices = [0u32; MAX_REPLICAS];
        let mut results = [ReplicaResult(0); MAX_REPLICAS];
        let mut start = Seconds(f64::INFINITY);
        let mut finish = Seconds::ZERO;
        for (slot, &(d, plan_start, plan_dur)) in planned[..k].iter().enumerate() {
            // Runs the plan and mirrors the device's new timeline into its
            // shard's busy column (and queues the shard's leaf).
            let (s, f) = self
                .pools
                .execute_planned(&mut self.devices, d, plan_start, plan_dur);
            devices[slot] = u32::try_from(d).expect("fewer than 2^32 devices");
            start = start.min(s);
            finish = finish.max(f);
            let faulty = self.rng.gen_range(0.0..1.0) < self.fault_probs[d];
            results[slot] = if faulty {
                // Corrupt deterministically per draw but never equal to
                // golden.
                ReplicaResult(golden ^ (1 + self.rng.gen_range(0..u64::MAX - 1)))
            } else {
                ReplicaResult(golden)
            };
        }
        if needs_sec {
            // Commit the security side of each replica placement: stats
            // for the costs the plan already priced into the committed
            // durations, and the attestation round on a cache miss.
            for &(d, _, _) in &planned[..k] {
                self.security.commit(d, self.classes.class_of(d))?;
            }
        }
        self.engine.record(
            start,
            task,
            RecordKind::Place {
                devices: ReplicaDevices::from_raw(&devices[..k]),
                evaluated,
                pooled: pruned,
            },
        );
        self.engine.push_finish(
            finish,
            FinishPayload {
                attempt: Attempt {
                    replicas: replica_width(k),
                    ..attempt
                },
                devices,
                start,
                verdict: FinishVerdict::judge(vote(&results[..k]), golden),
                crashed: false,
            },
        );
        Ok(())
    }

    fn handle_finish(
        &mut self,
        payload: FinishPayload,
        finish: Seconds,
    ) -> Result<(), RuntimeError> {
        let FinishPayload {
            attempt,
            start,
            verdict,
            ..
        } = payload;
        let task = attempt.task;
        match verdict {
            FinishVerdict::Accepted { correct: false } => self.engine.stats.silent_corruptions += 1,
            FinishVerdict::Masked { .. } => self.engine.stats.masked += 1,
            FinishVerdict::Accepted { correct: true } | FinishVerdict::Retry => {}
        }
        self.engine
            .record(finish, task, RecordKind::Finish { verdict });
        match verdict.accepted() {
            Some(correct) => {
                // The task's written regions now live on the primary
                // replica's device, sealed at rest iff it was confidential:
                // what seal-on-cross-device and the topology charge read,
                // so it is written only while one of them is on. Must
                // happen before successors dispatch (the inline fast path
                // below runs them immediately).
                if self.security.active || self.topology.is_some() {
                    let accesses = slot_accesses(&self.graph, task)?;
                    self.regions
                        .record(accesses, payload.devices[0] as usize, attempt.security);
                }
                // Complete through the scratch buffer: the only per-task
                // allocation left on the accept path is the outcome's
                // device list, built once per *accepted* task (attempts
                // no longer allocate at all).
                let mut released = std::mem::take(&mut self.engine.scratch.released);
                released.clear();
                self.graph.complete_into(task, &mut released)?;
                // A sole released successor whose ready event would be
                // the global minimum — ready FIFO empty, heap top
                // strictly later — is dispatched inline instead of
                // round-tripping the queue, skipping one
                // pop-merge-dispatch cycle per task on chain-structured
                // workloads. Dispatching the unique minimum immediately
                // is exactly what the next loop turn would do, so the
                // event order is unchanged. The fast path deliberately
                // requires `released.len() == 1`: with several released
                // siblings, inlining the first could push a finish event
                // that *ties* at `finish` (a zero-duration task) and
                // would then fire before the remaining siblings,
                // reordering events relative to the queued path.
                let sole_next = released.len() == 1
                    && self.engine.ready_queue.is_empty()
                    && self
                        .engine
                        .heap
                        .peek()
                        .is_none_or(|Reverse(top)| top.time.0 > finish.0);
                if sole_next {
                    self.handle_ready(released[0], finish)?;
                } else {
                    for &succ in &released {
                        self.engine.push_ready_at(finish, succ);
                    }
                }
                self.engine.scratch.released = released;
                self.engine.record_outcome(TaskOutcome {
                    task,
                    devices: ReplicaDevices::from_raw(payload.devices()),
                    start,
                    finish,
                    correct,
                });
            }
            None => {
                self.retry_or_recover(attempt, finish)?;
            }
        }
        Ok(())
    }

    /// An attempt's fault was detected at `at` (its replicas disagreed,
    /// or a crash killed it mid-execution). While retry budget is left
    /// the task re-launches with the next attempt number. Once it is
    /// spent, checkpoint/restart restores the last checkpointed frontier
    /// and re-executes (the task gets a fresh budget); without it — or
    /// once the rollback budget is spent too — the task fails and its
    /// downstream cone is poisoned. Returns whether the run rolled back.
    fn retry_or_recover(&mut self, attempt: Attempt, at: Seconds) -> Result<bool, RuntimeError> {
        self.engine.stats.detected += 1;
        if attempt.attempt < self.max_retries {
            self.engine.stats.retries += 1;
            let next = Attempt {
                attempt: attempt.attempt + 1,
                ..attempt
            };
            self.start_attempt(next, at)?;
            return Ok(false);
        }
        let can_roll = self.resilience.as_ref().is_some_and(|r| {
            r.interval.is_some() && r.stats.rollbacks < u64::from(r.config.max_rollbacks)
        });
        if can_roll {
            self.rollback_to_checkpoint(attempt.task, at)?;
        } else {
            self.fail_task(attempt.task)?;
        }
        Ok(can_roll)
    }

    /// Merge the churn trace into the engine's `(time, seq)` event order,
    /// once per runtime: each trace event becomes a heap event carrying
    /// an index into the append-only op list. A runtime without churn —
    /// or with an empty trace — pushes nothing and touches no sequence
    /// numbers, so its event order (and therefore its schedule) stays
    /// bit-identical to a churn-free engine.
    fn plan_churn(&mut self) {
        let Some(churn) = &mut self.churn else {
            return;
        };
        if churn.merged {
            return;
        }
        churn.merged = true;
        for (event, ev) in churn.config.trace.events().iter().enumerate() {
            churn.ops.push(ChurnOp::Trace { event });
            let slot = (churn.ops.len() - 1) as u32;
            let seq = self.engine.next_seq();
            self.engine.heap.push(Reverse(Event {
                time: ev.at,
                seq,
                kind: EventKind::Churn { op: slot },
            }));
        }
    }

    /// Apply one fleet change: arrival, departure (planned or crash),
    /// drain completion, or deferral expiry.
    fn handle_churn(&mut self, op: u32, at: Seconds) -> Result<(), RuntimeError> {
        let churn = self
            .churn
            .as_ref()
            .expect("churn events exist only with churn state");
        match churn.ops[op as usize] {
            ChurnOp::Trace { event } => match &churn.config.trace.events()[event].kind {
                ChurnEventKind::Arrival {
                    spec,
                    pool,
                    fault_prob,
                } => self.handle_arrival(spec.clone(), *pool, *fault_prob, at),
                &ChurnEventKind::Departure { device, kind } => {
                    self.handle_departure(device, kind == DepartureKind::Crash, at)
                }
            },
            ChurnOp::DrainComplete { device } => {
                self.handle_drain_complete(device, at);
                Ok(())
            }
            ChurnOp::DeferTimeout { task, deadline } => self.handle_defer_timeout(task, deadline),
        }
    }

    /// A device joins mid-run. It is appended at the next free index so
    /// every positional per-device structure stays aligned, the class
    /// table re-dedupes its spec, the pool shards grow incrementally
    /// (the shard's leaf queued, a new class's tree opened), the
    /// security layer learns the new platform, and parked placements get
    /// another chance. A spec the
    /// cost model cannot price, or a platform that refuses a known
    /// enclave image, is an error and the device does not join.
    fn handle_arrival(
        &mut self,
        spec: DeviceSpec,
        pool: Option<usize>,
        fault_prob: f64,
        at: Seconds,
    ) -> Result<(), RuntimeError> {
        let d = self.devices.len();
        let device = Device::new(DeviceId(d as u64), spec);
        self.classes.vet(&device)?;
        self.security.device_arrived(&device)?;
        let class = self.classes.add_device(&device.spec);
        self.devices.push(device);
        let fp = fault_prob.clamp(0.0, 1.0);
        self.fault_probs.push(fp);
        if !self.energy.op_fault_probs.is_empty() {
            // Keep the energy layer's per-device fault view aligned with
            // the fleet.
            self.energy.op_fault_probs.push(fp);
        }
        let busy = self.devices[d].busy_until();
        self.pools.add_device(d, class, pool.unwrap_or(d), busy);
        let churn = self
            .churn
            .as_mut()
            .expect("churn events exist only with churn state");
        churn.available.push(true);
        churn.arrived_at.push(at);
        churn.departed_at.push(None);
        churn.epoch += 1;
        churn.stats.arrivals += 1;
        self.redispatch_deferred(at)
    }

    /// A device leaves. Planned departures drain (no new placements, the
    /// in-flight work completes, then a frontier checkpoint seals it);
    /// crashes kill the in-flight work immediately. Departures naming
    /// unknown, already-departed or draining devices are skipped, so
    /// hand-written traces stay safe against any fleet.
    fn handle_departure(
        &mut self,
        device: usize,
        crash: bool,
        at: Seconds,
    ) -> Result<(), RuntimeError> {
        let churn = self
            .churn
            .as_ref()
            .expect("churn events exist only with churn state");
        if !churn.available.get(device).is_some_and(|&up| up) {
            return Ok(());
        }
        if crash {
            self.handle_crash(device, at)
        } else {
            self.begin_drain(device, at);
            Ok(())
        }
    }

    /// Planned shrink: the device stops accepting placements immediately
    /// (availability mask + shard removal), and a `DrainComplete` fires
    /// when its committed timeline runs dry — every in-flight attempt
    /// finishes normally, so the shrink wastes zero work.
    fn begin_drain(&mut self, device: usize, at: Seconds) {
        let free_at = self.devices[device].busy_until().max(at);
        self.pools.remove_device(device);
        let seq = self.engine.next_seq();
        let churn = self
            .churn
            .as_mut()
            .expect("churn events exist only with churn state");
        churn.available[device] = false;
        churn.epoch += 1;
        churn.stats.departures += 1;
        churn.ops.push(ChurnOp::DrainComplete { device });
        let slot = (churn.ops.len() - 1) as u32;
        self.engine.heap.push(Reverse(Event {
            time: free_at,
            seq,
            kind: EventKind::Churn { op: slot },
        }));
    }

    /// A drained device's last in-flight attempt finished: mark it gone
    /// and seal the frontier with a checkpoint through the resilience
    /// layer (when one is configured and planned), so a later crash rolls
    /// back to *after* the shrink — the drained device's work is never
    /// re-executed.
    fn handle_drain_complete(&mut self, device: usize, at: Seconds) {
        {
            let churn = self
                .churn
                .as_mut()
                .expect("churn events exist only with churn state");
            if churn.departed_at[device].is_some() {
                return;
            }
            churn.departed_at[device] = Some(at);
        }
        if self
            .resilience
            .as_ref()
            .is_some_and(|r| r.interval.is_some())
        {
            self.take_checkpoint(at);
        }
    }

    /// Crash departure: the device and every in-flight attempt touching
    /// it are lost at `at`. Queued attempts re-launch elsewhere (no
    /// retry charge); running attempts are charged against their retry
    /// budget and fall back to rollback once it is exhausted — exactly
    /// the detected-fault path, with the partial execution counted as
    /// wasted work.
    fn handle_crash(&mut self, device: usize, at: Seconds) -> Result<(), RuntimeError> {
        self.pools.remove_device(device);
        {
            let churn = self
                .churn
                .as_mut()
                .expect("churn events exist only with churn state");
            churn.available[device] = false;
            churn.departed_at[device] = Some(at);
            churn.epoch += 1;
            churn.stats.departures += 1;
            churn.stats.crashes += 1;
        }
        // Tombstone every victim first — their queued finish events
        // no-op, and replacements pushed below reuse only slots that
        // were already free — then process the collected payloads.
        // Crash handling allocates: it is the rare path, and clarity
        // beats scratch reuse here.
        let mut live = vec![true; self.engine.finish_slab.len()];
        for &slot in &self.engine.free_slots {
            live[slot as usize] = false;
        }
        let mut victims: Vec<FinishPayload> = Vec::new();
        for (slot, payload) in self.engine.finish_slab.iter_mut().enumerate() {
            if live[slot]
                && !payload.crashed
                && payload.devices().iter().any(|&d| d as usize == device)
            {
                payload.crashed = true;
                victims.push(*payload);
            }
        }
        for payload in victims {
            if self.crash_attempt(payload, at)? {
                // A rollback rewound the run: the remaining victims were
                // discarded with the rest of the in-flight work.
                break;
            }
        }
        Ok(())
    }

    /// Handle one attempt lost to a crash at `at`. Returns whether the
    /// handling rolled the run back to a checkpoint, in which case the
    /// caller must stop processing further victims (they were rewound).
    fn crash_attempt(&mut self, payload: FinishPayload, at: Seconds) -> Result<bool, RuntimeError> {
        let FinishPayload { attempt, start, .. } = payload;
        let stats = &mut self
            .churn
            .as_mut()
            .expect("churn events exist only with churn state")
            .stats;
        if attempt.security.requires_enclave() {
            // The attempt re-spreads over the surviving TEE pool (or
            // parks until one re-arrives).
            stats.respreads += 1;
        }
        if start >= at {
            // Queued, not yet running: nothing executed, so this is a
            // pure migration — same attempt number, no retry charged.
            stats.migrations += 1;
            self.start_attempt(attempt, at)?;
            return Ok(false);
        }
        // Running: the partial execution is lost, charged against the
        // retry budget like a detected corruption.
        stats.wasted_work += at - start;
        self.retry_or_recover(attempt, at)
    }

    /// Park an attempt whose eligible device set is (transiently) empty:
    /// the task stays claimed, a timeout event bounds the wait, and the
    /// next arrival hands the parked [`Attempt`] back to
    /// [`Self::start_attempt`]. This degrades what would be an immediate
    /// [`RuntimeError::NoSecurePlacement`] refusal on a fixed fleet into
    /// a bounded wait for re-arrival.
    fn defer_placement(&mut self, attempt: Attempt, at: Seconds) {
        let seq = self.engine.next_seq();
        let churn = self.churn.as_mut().expect("callers check for churn");
        let deadline = at + churn.config.defer_window;
        let task = attempt.task;
        churn.deferred.push(DeferredTask { attempt, deadline });
        churn.ops.push(ChurnOp::DeferTimeout { task, deadline });
        let slot = (churn.ops.len() - 1) as u32;
        churn.stats.deferred_placements += 1;
        self.engine.heap.push(Reverse(Event {
            time: deadline,
            seq,
            kind: EventKind::Churn { op: slot },
        }));
    }

    /// A device arrived: every parked [`Attempt`] goes back to
    /// [`Self::start_attempt`]. One that still finds nothing re-parks
    /// under a new deadline, and its old timeout event no-ops (deadline
    /// mismatch).
    fn redispatch_deferred(&mut self, at: Seconds) -> Result<(), RuntimeError> {
        let parked = match &mut self.churn {
            Some(churn) if !churn.deferred.is_empty() => std::mem::take(&mut churn.deferred),
            _ => return Ok(()),
        };
        for dt in parked {
            self.start_attempt(dt.attempt, at)?;
        }
        Ok(())
    }

    /// A parked task's bounded wait expired without a usable arrival:
    /// graceful degradation ends here with the same semantics as the
    /// placement refusals — fail the task, poison its cone, surface the
    /// dedicated error.
    fn handle_defer_timeout(
        &mut self,
        task: TaskId,
        deadline: Seconds,
    ) -> Result<(), RuntimeError> {
        let churn = self
            .churn
            .as_mut()
            .expect("churn events exist only with churn state");
        let Some(pos) = churn
            .deferred
            .iter()
            .position(|dt| dt.attempt.task == task && dt.deadline == deadline)
        else {
            // Re-dispatched by an arrival, re-parked under a fresh
            // deadline, or rewound by a rollback: stale timeout, no-op.
            return Ok(());
        };
        churn.deferred.remove(pos);
        self.fail_task(task)?;
        Err(RuntimeError::DeferralExpired(task))
    }
}
