//! Scheduling, placement and migration.
//!
//! "The scheduling module relies on these estimations to compute scores
//! for each node, to be weighted by the energy/performance ratio defined
//! by the client. The best fitting node is chosen to deploy the given
//! task. … When a better fit than the current host of a task is found,
//! the scheduler performs a migration" (paper §V).
//!
//! Placement and migration decisions go through the **shared scheduler
//! layer** ([`legato_runtime::scheduler`]): HEATS turns its model-learned
//! predictions into [`Estimate`]s and lets the same
//! [`Scheduler`]/[`Policy`] machinery that drives the task runtime's
//! device placement pick the node — the customer's energy/performance
//! weight maps onto [`Policy::Weighted`]. Only the *predictor* differs
//! between the two schedulers.

use std::collections::VecDeque;

use legato_core::task::Work;
use legato_core::units::{Joule, Seconds};
use legato_hw::cluster::NodeSpec;
use legato_runtime::scheduler::{Estimate, Policy, Scheduler, ScoreNorm};
use serde::{Deserialize, Serialize};

use crate::cluster::{ClusterNode, RunningTask};
use crate::error::HeatsError;
use crate::model::NodeModel;
use crate::request::TaskRequest;

/// Measurement noise assumed during model learning.
const LEARNING_NOISE: f64 = 0.02;
/// Probe workloads per node and task kind during learning.
const LEARNING_PROBES: usize = 12;
/// Relative score improvement a migration must deliver (hysteresis
/// against ping-ponging).
const MIGRATION_THRESHOLD: f64 = 0.10;

/// A placement made by the scheduling phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementDecision {
    /// Scheduler-assigned task instance id.
    pub task_id: usize,
    /// Task name.
    pub name: String,
    /// Chosen node index.
    pub node: usize,
    /// Start time.
    pub start: Seconds,
    /// Predicted finish time.
    pub finish: Seconds,
    /// Predicted energy on the chosen node.
    pub predicted_energy: Joule,
}

/// A migration made by the rescheduling phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Migration {
    /// Migrated task instance.
    pub task_id: usize,
    /// Source node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// When the migration happened.
    pub at: Seconds,
    /// New predicted finish on the destination.
    pub new_finish: Seconds,
}

/// A completed task instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedTask {
    /// Instance id.
    pub task_id: usize,
    /// Task name.
    pub name: String,
    /// Node it finished on.
    pub node: usize,
    /// Completion time.
    pub finished: Seconds,
    /// Energy attributed to the task.
    pub energy: Joule,
}

/// The HEATS scheduler.
#[derive(Debug, Clone)]
pub struct Heats {
    nodes: Vec<ClusterNode>,
    models: Vec<NodeModel>,
    pending: VecDeque<(usize, TaskRequest)>,
    completed: Vec<CompletedTask>,
    migrations: Vec<Migration>,
    next_id: usize,
    /// Fixed migration cost (stop, transfer, restart).
    migration_overhead: Seconds,
}

impl Heats {
    /// Build a scheduler over `specs`, learning each node's model with
    /// probe workloads (deterministic per `seed`).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    #[must_use]
    pub fn new(specs: Vec<NodeSpec>, seed: u64) -> Self {
        assert!(!specs.is_empty(), "cluster needs at least one node");
        let models = specs
            .iter()
            .enumerate()
            .map(|(i, s)| NodeModel::learn(s, LEARNING_PROBES, LEARNING_NOISE, seed ^ i as u64))
            .collect();
        Heats {
            nodes: specs.into_iter().map(ClusterNode::new).collect(),
            models,
            pending: VecDeque::new(),
            completed: Vec::new(),
            migrations: Vec::new(),
            next_id: 0,
            migration_overhead: Seconds(2.0),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Name of node `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn node_name(&self, idx: usize) -> &str {
        &self.nodes[idx].spec.name
    }

    /// The cluster nodes (monitoring view).
    #[must_use]
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// The learned models.
    #[must_use]
    pub fn models(&self) -> &[NodeModel] {
        &self.models
    }

    /// Tasks waiting for placement.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Completed task log.
    #[must_use]
    pub fn completed(&self) -> &[CompletedTask] {
        &self.completed
    }

    /// Migration log.
    #[must_use]
    pub fn migrations(&self) -> &[Migration] {
        &self.migrations
    }

    /// Enqueue a task for the next scheduling phase; returns its id.
    pub fn submit(&mut self, request: TaskRequest) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push_back((id, request));
        id
    }

    /// The scheduling phase: place every pending task whose requirements
    /// can currently be met, best-score node first. Unplaceable-but-
    /// satisfiable tasks remain queued.
    ///
    /// # Errors
    ///
    /// [`HeatsError::Unsatisfiable`] when a task exceeds every node's
    /// *total* capacity (it could never run);
    /// [`HeatsError::InvalidWeight`] when a task's trade-off weight is not
    /// a finite value in `[0, 1]`.
    pub fn schedule(&mut self, now: Seconds) -> Result<Vec<PlacementDecision>, HeatsError> {
        let mut placed = Vec::new();
        let mut still_pending = VecDeque::new();
        while let Some((id, request)) = self.pending.pop_front() {
            if !self.satisfiable(&request) {
                return Err(HeatsError::Unsatisfiable { task: request.name });
            }
            let Ok(policy) = Policy::weighted(request.weight) else {
                return Err(HeatsError::InvalidWeight {
                    task: request.name,
                    weight: request.weight,
                });
            };
            match self.best_node(&request, policy) {
                Some((node, time, energy)) => {
                    let finish = now + time;
                    self.nodes[node].place(RunningTask {
                        id,
                        request: request.clone(),
                        started: now,
                        finishes: finish,
                    })?;
                    placed.push(PlacementDecision {
                        task_id: id,
                        name: request.name,
                        node,
                        start: now,
                        finish,
                        predicted_energy: energy,
                    });
                }
                None => still_pending.push_back((id, request)),
            }
        }
        self.pending = still_pending;
        Ok(placed)
    }

    /// Release finished instances and log their energy. Returns the
    /// completions.
    pub fn reap(&mut self, now: Seconds) -> Vec<CompletedTask> {
        let mut reaped = Vec::new();
        for (n, node) in self.nodes.iter_mut().enumerate() {
            for done in node.reap_finished(now) {
                let model = &self.models[n];
                let energy = model.predict_energy(
                    done.request.work,
                    done.request.kind,
                    done.request.cores,
                    node.spec.cores,
                );
                reaped.push(CompletedTask {
                    task_id: done.id,
                    name: done.request.name,
                    node: n,
                    finished: done.finishes,
                    energy,
                });
            }
        }
        self.completed.extend(reaped.clone());
        reaped
    }

    /// The rescheduling phase: re-evaluate every running task; migrate it
    /// when another node scores better by at least the hysteresis
    /// threshold. Returns the migrations performed.
    ///
    /// Stay-vs-move scoring goes through [`Scheduler::migrate`], with
    /// both sides normalized against cluster-typical magnitudes
    /// ([`ScoreNorm::from_scale`]) so the customer weight behaves like in
    /// the normalized batch scoring.
    pub fn reschedule(&mut self, now: Seconds) -> Vec<Migration> {
        let mut performed = Vec::new();
        // Snapshot instance ids so node mutation below stays sound.
        let running: Vec<(usize, usize)> = self
            .nodes
            .iter()
            .enumerate()
            .flat_map(|(n, node)| node.running().iter().map(move |r| (n, r.id)))
            .collect();
        for (from, task_id) in running {
            let Some(instance) = self.nodes[from]
                .running()
                .iter()
                .find(|r| r.id == task_id)
                .cloned()
            else {
                continue;
            };
            // Work still to do, scaled by remaining run fraction.
            let total = instance.finishes - instance.started;
            if total.0 <= 0.0 || instance.finishes <= now {
                continue;
            }
            let remaining_frac = ((instance.finishes - now) / total).clamp(0.0, 1.0);
            let remaining = Work::new(
                instance.request.work.flops * remaining_frac,
                instance.request.work.bytes,
            );
            let mut rem_request = instance.request.clone();
            rem_request.work = remaining;

            // Estimate of staying: the current node, with the task's own
            // resources considered available to itself.
            if !self.fits_ignoring_instance(&rem_request, from, task_id) {
                continue;
            }
            let stay = self.estimate(&rem_request, from);
            // Every other node that fits is an alternative.
            let mut candidates = Vec::new();
            let mut alternatives = Vec::new();
            for cand in 0..self.nodes.len() {
                if cand == from || !self.nodes[cand].fits(&rem_request) {
                    continue;
                }
                candidates.push(cand);
                alternatives.push(self.estimate(&rem_request, cand));
            }
            let norm = ScoreNorm::from_scale(
                self.typical_time(&rem_request),
                self.typical_energy(&rem_request),
            );
            // `schedule` admitted this instance, so its weight is valid.
            let Ok(policy) = Policy::weighted(rem_request.weight) else {
                continue;
            };
            if let Some(i) = policy.migrate(&stay, &alternatives, &norm, MIGRATION_THRESHOLD) {
                let to = candidates[i];
                let t = alternatives[i].finish;
                let removed = self.nodes[from].remove(task_id).expect("instance exists");
                let new_finish = now + self.migration_overhead + t;
                let mut moved = removed;
                moved.started = now;
                moved.finishes = new_finish;
                self.nodes[to].place(moved).expect("scored as fitting");
                performed.push(Migration {
                    task_id,
                    from,
                    to,
                    at: now,
                    new_finish,
                });
            }
        }
        self.migrations.extend(performed.clone());
        performed
    }

    /// Total energy attributed to completed tasks.
    #[must_use]
    pub fn total_energy(&self) -> Joule {
        self.completed.iter().map(|c| c.energy).sum()
    }

    fn satisfiable(&self, request: &TaskRequest) -> bool {
        self.nodes
            .iter()
            .any(|n| request.cores <= n.spec.cores && request.memory <= n.spec.memory)
    }

    /// Best node for `request` among those that fit; returns
    /// `(node, predicted_time, predicted_energy)`.
    ///
    /// The model-learned predictions become [`Estimate`]s and the
    /// customer weight the [`Policy::Weighted`] passed as `policy`;
    /// placement is the shared [`Scheduler::place`] over them.
    fn best_node(&self, request: &TaskRequest, policy: Policy) -> Option<(usize, Seconds, Joule)> {
        let candidates: Vec<usize> = (0..self.nodes.len())
            .filter(|&n| self.nodes[n].fits(request))
            .collect();
        let estimates: Vec<Estimate> = candidates
            .iter()
            .map(|&n| self.estimate(request, n))
            .collect();
        let i = policy.place(&estimates)?;
        Some((candidates[i], estimates[i].finish, estimates[i].energy))
    }

    /// Whether `request` fits on `node` when the resources held by the
    /// running instance `ignore` are counted as free (a task always fits
    /// where it already runs).
    fn fits_ignoring_instance(&self, request: &TaskRequest, node: usize, ignore: usize) -> bool {
        let n = &self.nodes[node];
        let own = n.running().iter().find(|r| r.id == ignore);
        let own_cores = own.map_or(0, |r| r.request.cores);
        let own_mem = own.map_or(legato_core::units::Bytes::ZERO, |r| r.request.memory);
        request.cores <= n.free_cores() + own_cores && request.memory <= n.free_memory() + own_mem
    }

    /// The learned models' prediction for `request` on `node`, as a
    /// scheduler-layer [`Estimate`].
    fn estimate(&self, request: &TaskRequest, node: usize) -> Estimate {
        let (t, e) = self.predict(request, node);
        Estimate::new(t, e)
    }

    fn predict(&self, request: &TaskRequest, node: usize) -> (Seconds, Joule) {
        let m = &self.models[node];
        let total = self.nodes[node].spec.cores;
        let t = m.predict_time(request.work, request.kind, request.cores, total);
        let e = m.predict_energy(request.work, request.kind, request.cores, total);
        (t, e)
    }

    fn typical_time(&self, request: &TaskRequest) -> Seconds {
        let mean: f64 = (0..self.nodes.len())
            .map(|n| self.predict(request, n).0 .0)
            .sum::<f64>()
            / self.nodes.len() as f64;
        Seconds(mean)
    }

    fn typical_energy(&self, request: &TaskRequest) -> Joule {
        let mean: f64 = (0..self.nodes.len())
            .map(|n| self.predict(request, n).1 .0)
            .sum::<f64>()
            / self.nodes.len() as f64;
        Joule(mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legato_core::task::TaskKind;
    use legato_core::units::Bytes;

    fn cluster() -> Heats {
        Heats::new(
            vec![
                NodeSpec::high_perf_x86("x86"),
                NodeSpec::low_power_arm("arm"),
                NodeSpec::gpu_node("gpu"),
            ],
            42,
        )
    }

    fn compute_task(weight: f64) -> TaskRequest {
        TaskRequest::new(
            "job",
            2,
            Bytes::gib(2),
            Work::flops(5e11),
            TaskKind::Compute,
        )
        .with_weight(weight)
    }

    #[test]
    fn performance_weight_picks_fast_node() {
        let mut h = cluster();
        h.submit(compute_task(0.0));
        let placed = h.schedule(Seconds::ZERO).unwrap();
        assert_eq!(h.node_name(placed[0].node), "x86");
    }

    #[test]
    fn energy_weight_picks_frugal_node() {
        let mut h = cluster();
        h.submit(compute_task(1.0));
        let placed = h.schedule(Seconds::ZERO).unwrap();
        assert_eq!(h.node_name(placed[0].node), "arm");
    }

    #[test]
    fn inference_goes_to_gpu_node_for_performance() {
        let mut h = cluster();
        h.submit(
            TaskRequest::new(
                "nn",
                2,
                Bytes::gib(2),
                Work::flops(1e12),
                TaskKind::Inference,
            )
            .with_weight(0.0),
        );
        let placed = h.schedule(Seconds::ZERO).unwrap();
        assert_eq!(h.node_name(placed[0].node), "gpu");
    }

    #[test]
    fn full_node_falls_back_to_next_best() {
        let mut h = cluster();
        // Fill the ARM node (8 cores).
        h.submit(
            TaskRequest::new(
                "filler",
                8,
                Bytes::gib(4),
                Work::flops(1e14),
                TaskKind::Compute,
            )
            .with_weight(1.0),
        );
        h.schedule(Seconds::ZERO).unwrap();
        // Now an energy-weighted task cannot use ARM.
        h.submit(compute_task(1.0));
        let placed = h.schedule(Seconds::ZERO).unwrap();
        assert_ne!(h.node_name(placed[0].node), "arm");
    }

    #[test]
    fn oversized_task_is_unsatisfiable() {
        let mut h = cluster();
        h.submit(TaskRequest::new(
            "huge",
            999,
            Bytes::gib(1),
            Work::flops(1.0),
            TaskKind::Compute,
        ));
        assert!(matches!(
            h.schedule(Seconds::ZERO),
            Err(HeatsError::Unsatisfiable { .. })
        ));
    }

    #[test]
    fn unvalidated_weight_is_a_typed_error() {
        // The field is public, so a struct literal bypasses `with_weight`.
        for weight in [2.0, f64::NAN] {
            let mut h = cluster();
            h.submit(TaskRequest {
                weight,
                ..compute_task(0.5)
            });
            assert!(
                matches!(
                    h.schedule(Seconds::ZERO),
                    Err(HeatsError::InvalidWeight { .. })
                ),
                "weight {weight} must be refused, not scored"
            );
        }
    }

    #[test]
    fn queued_task_placed_after_reap() {
        let mut h = Heats::new(vec![NodeSpec::low_power_arm("arm")], 1);
        // Occupy all 8 cores until t = finish.
        h.submit(TaskRequest::new(
            "first",
            8,
            Bytes::gib(2),
            Work::flops(8e10 * 0.85),
            TaskKind::Compute,
        ));
        let placed = h.schedule(Seconds::ZERO).unwrap();
        let finish = placed[0].finish;
        // Second task cannot fit.
        h.submit(compute_task(0.5));
        assert!(h.schedule(Seconds(0.1)).unwrap().is_empty());
        assert_eq!(h.pending_count(), 1);
        // After completion it fits.
        let done = h.reap(finish);
        assert_eq!(done.len(), 1);
        let placed = h.schedule(finish).unwrap();
        assert_eq!(placed.len(), 1);
        assert_eq!(h.pending_count(), 0);
    }

    #[test]
    fn reschedule_migrates_to_freed_better_node() {
        let mut h = cluster();
        // Fill the GPU node (an inference filler grabs all its cores) so
        // the later inference task lands elsewhere.
        h.submit(
            TaskRequest::new(
                "filler",
                8,
                Bytes::gib(30),
                Work::flops(5e12),
                TaskKind::Inference,
            )
            .with_weight(0.0),
        );
        let f = h.schedule(Seconds::ZERO).unwrap();
        let gpu_idx = f[0].node;
        assert_eq!(h.node_name(gpu_idx), "gpu");
        h.submit(
            TaskRequest::new(
                "nn",
                2,
                Bytes::gib(2),
                Work::flops(8e13),
                TaskKind::Inference,
            )
            .with_weight(0.0),
        );
        let placed = h.schedule(Seconds(0.0)).unwrap();
        let nn_node = placed[0].node;
        assert_ne!(h.node_name(nn_node), "gpu");
        // Free the GPU node, then reschedule: the inference task should
        // migrate to its much better fit.
        let filler_finish = f[0].finish;
        h.reap(filler_finish);
        let migs = h.reschedule(filler_finish);
        assert_eq!(migs.len(), 1, "expected one migration");
        assert_eq!(h.node_name(migs[0].to), "gpu");
        assert_eq!(migs[0].from, nn_node);
    }

    #[test]
    fn no_migration_without_meaningful_gain() {
        let mut h = cluster();
        h.submit(compute_task(0.0)); // lands on x86, the best fit already
        h.schedule(Seconds::ZERO).unwrap();
        let migs = h.reschedule(Seconds(0.5));
        assert!(migs.is_empty(), "migrations: {migs:?}");
    }

    #[test]
    fn completions_accumulate_energy() {
        let mut h = cluster();
        h.submit(compute_task(0.5));
        let placed = h.schedule(Seconds::ZERO).unwrap();
        h.reap(placed[0].finish);
        assert_eq!(h.completed().len(), 1);
        assert!(h.total_energy().0 > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_panics() {
        let _ = Heats::new(vec![], 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let mut h = cluster();
            for w in [0.0, 0.3, 0.7, 1.0] {
                h.submit(compute_task(w));
            }
            let placed = h.schedule(Seconds::ZERO).unwrap();
            placed.iter().map(|p| p.node).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
