//! Multi-tenant streaming service atop the event-driven engine.
//!
//! The engine executes one task graph for one caller. A LEGaTO
//! deployment is longer-lived than that: many tenants stream task
//! submissions at a shared fleet continuously, each with its own QoS
//! share, and the operator needs to know what every tenant consumed and
//! to survive a service restart without losing finished work. The
//! [`Service`] wraps one [`Runtime`] with exactly that session layer:
//!
//! * **Weighted-fair admission order** — each tenant registers with a
//!   QoS share ([`TenantSpec::with_share`], the HEATS customer weight
//!   generalized to whole sessions). Pending submissions are interleaved
//!   into the engine's submission order by stride scheduling: the tenant
//!   with the lowest virtual time dispatches next and pays `1/share`
//!   per task, so a share-2 tenant dispatches twice as often as a
//!   share-1 tenant under backlog. With a single tenant the dispatch
//!   order degenerates to FIFO and the engine sees bit-identical
//!   submissions to a bare [`Runtime`].
//! * **Admission control** — each tenant has a bounded budget of
//!   admitted-but-uncompleted tasks. A submission past the budget is
//!   refused with [`RuntimeError::AdmissionRejected`] before anything
//!   is enqueued: backpressure, not failure.
//! * **Region namespacing** — tenant `t`'s region `r` becomes
//!   `(t << 32) | r` in the engine, so two tenants naming the same
//!   region id never serialize on each other (tenant 0 maps
//!   identically, which is what makes single-tenant runs bit-identical).
//!   Region sizes are declared once, on the engine, under those ids.
//! * **Metering** — per-tenant [`TenantReport`]: tasks completed, busy
//!   joules of every replica the tenant's tasks ran, its proportional
//!   share of the security layer's enclave/seal premium, and the bytes
//!   its session seals wrote. Confidential tenants
//!   ([`TenantSpec::confidential`]) route through the security module
//!   onto TEE-capable devices unchanged — the service only upgrades the
//!   requirement, the engine's security machinery does the rest.
//! * **Restart-surviving sessions** — [`Service::seal`] checkpoints each
//!   session's completed frontier into its [`CheckpointRecord`], priced
//!   by the same [`CheckpointStore`] type the engine's checkpoints go
//!   through; [`Service::restart`] rebuilds the engine from the retained
//!   [`EngineConfig`] and re-queues only what the record does not cover.
//!   Sealed tasks are never re-executed; an unsealed task whose sealed
//!   producer is gone becomes a root (its input is in the checkpoint).
//!
//! Every operation costs what is new since the last one: a dispatch is
//! a heap pop over the tenants with pending work, the meters read the
//! engine's acceptance log ([`Runtime::accepted`]) from a cursor, and a
//! seal visits only what completed since the previous seal.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use legato_core::requirements::SecurityLevel;
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskId};
use legato_core::units::{Bytes, Joule, Seconds};
use legato_fti::Strategy;
use serde::{Deserialize, Serialize};

use crate::config::EngineConfig;
use crate::error::RuntimeError;
use crate::regions::slot_accesses;
use crate::resilience::{CheckpointRecord, CheckpointStore};
use crate::runtime::{RunReport, Runtime};

/// A registered tenant, issued by [`Service::register`] in registration
/// order starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant {}", self.0)
    }
}

/// Per-tenant QoS declaration handed to [`Service::register`].
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a tenant spec does nothing until registered with a Service"]
pub struct TenantSpec {
    /// Weighted-fair share: relative dispatch rate under backlog. Must
    /// be positive and finite; validated at registration.
    pub share: f64,
    /// Admitted-but-uncompleted task budget; `None` uses the service's
    /// [`ServiceConfig::default_budget`].
    pub budget: Option<usize>,
    /// Whether every task this tenant submits is upgraded to at least
    /// [`SecurityLevel::Confidential`] (sealed I/O through the security
    /// module; enclave-only tasks keep their stronger requirement).
    pub confidential: bool,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec::new()
    }
}

impl TenantSpec {
    /// An equal-share (1.0), default-budget, public tenant.
    pub fn new() -> Self {
        TenantSpec {
            share: 1.0,
            budget: None,
            confidential: false,
        }
    }

    /// Set the weighted-fair share.
    pub fn with_share(mut self, share: f64) -> Self {
        self.share = share;
        self
    }

    /// Set the queued-task budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Route every submission through the security layer (sealed I/O at
    /// minimum).
    pub fn confidential(mut self) -> Self {
        self.confidential = true;
        self
    }
}

/// Per-tenant meter, accumulated across runs and restarts.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tasks of this tenant that completed (re-executions after a
    /// restart re-meter: the work really was redone).
    pub tasks_completed: u64,
    /// Busy energy of every replica the tenant's accepted attempts ran
    /// on (`busy_power × attempt duration`, summed over replicas).
    pub busy_energy: Joule,
    /// The tenant's proportional share of the security layer's
    /// enclave + sealing time, split by sealed-task completions.
    pub enclave_premium: Seconds,
    /// Bytes this tenant's session seals wrote.
    pub checkpoint_bytes: Bytes,
    /// Submissions refused by admission control.
    pub admission_rejections: u64,
}

/// One logged submission: the session's durable record of what the
/// tenant asked for, replayed (unsealed tasks only) on restart.
#[derive(Debug, Clone)]
struct LoggedTask {
    descriptor: TaskDescriptor,
    /// Session-local region accesses (un-namespaced).
    accesses: Vec<(RegionId, AccessMode)>,
}

#[derive(Debug, Clone)]
struct TenantState {
    spec: TenantSpec,
    /// Stride-scheduler virtual time; the pending tenant with the lowest
    /// value dispatches next.
    vtime: f64,
    /// Session-local indices admitted but not yet handed to the engine.
    pending: VecDeque<u64>,
    /// Every task this session ever admitted, by session-local index.
    log: Vec<LoggedTask>,
    /// What the session's seals cover — the sealed session-local tasks,
    /// the bytes written and the priced cost, over all seals so far. The
    /// only copy: [`Service::restart`] resumes from it.
    session: CheckpointRecord,
    /// Engine ids of the tasks completed since the last seal, in
    /// completion order; [`Service::seal`] drains it.
    unsealed: Vec<TaskId>,
    /// Sealed tasks metered by the [`Service::absorb`] call in progress
    /// (its premium split weighs tenants by it); zero between calls.
    sealed_fresh: u64,
    /// `checkpoint_bytes` stays zero here: the session record counts
    /// them and [`Service::tenant_report`] reads it from there.
    meter: TenantReport,
}

impl TenantState {
    /// Admitted but not completed: a completed task is in the session
    /// record or waiting in `unsealed` for the next seal.
    fn queued(&self) -> usize {
        self.log.len() - self.session.frontier.len() - self.unsealed.len()
    }
}

/// A pending tenant's place in the stride order: lowest virtual time
/// first, ties to the lowest tenant id. `total_cmp` is a faithful order
/// here because virtual times are sums of `1/share` over validated
/// positive finite shares — never NaN, never negative zero.
#[derive(Debug, Clone, Copy)]
struct Turn {
    vtime: f64,
    tenant: u32,
}

impl Ord for Turn {
    fn cmp(&self, other: &Self) -> Ordering {
        self.vtime
            .total_cmp(&other.vtime)
            .then(self.tenant.cmp(&other.tenant))
    }
}

impl PartialOrd for Turn {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Turn {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Turn {}

/// Builder for a [`Service`]: the engine configuration every (re)start
/// builds from, plus the session-layer knobs.
#[derive(Debug, Clone)]
#[must_use = "builder-style configs do nothing until build() constructs the service"]
pub struct ServiceConfig {
    /// Engine configuration, retained by the service so
    /// [`Service::restart`] can rebuild an identical runtime.
    pub engine: EngineConfig,
    /// Queued-task budget for tenants that do not set their own
    /// (default 1024).
    pub default_budget: usize,
}

impl ServiceConfig {
    /// Service over `engine` with a 1024-task default budget, sealing
    /// sessions to node-local NVMe asynchronously. Seals are priced at
    /// the engine's one size declaration
    /// ([`EngineConfig::with_region_sizes`]), keyed by engine region id:
    /// tenant `t`'s session-local region `r` is `(t << 32) | r`.
    pub fn new(engine: EngineConfig) -> Self {
        ServiceConfig {
            engine,
            default_budget: 1024,
        }
    }

    /// Construct the service (builds the wrapped engine).
    ///
    /// # Errors
    ///
    /// Whatever [`EngineConfig::build`] reports for the wrapped engine.
    pub fn build(self) -> Result<Service, RuntimeError> {
        let rt = self.engine.clone().build()?;
        Ok(Service {
            config: self,
            rt,
            store: CheckpointStore::new(Strategy::Async),
            tenants: Vec::new(),
            turns: BinaryHeap::new(),
            task_of: Vec::new(),
            metered: Vec::new(),
            cursor: 0,
            visits: 0,
            premium_seen: Seconds::ZERO,
            unsealed_tenants: Vec::new(),
            batch: Vec::new(),
            sealed_tenants: Vec::new(),
        })
    }
}

/// A long-running multi-tenant session layer over one [`Runtime`]. See
/// the [module docs](self) for the contract.
#[derive(Debug, Clone)]
pub struct Service {
    config: ServiceConfig,
    rt: Runtime,
    /// Prices session seals. They cost time on the session record only:
    /// nothing is ever written to this store's timeline.
    store: CheckpointStore,
    tenants: Vec<TenantState>,
    /// Stride order over exactly the tenants with pending work, one
    /// entry each, keyed by the tenant's current virtual time (which
    /// only moves while the tenant is popped for dispatch).
    turns: BinaryHeap<Reverse<Turn>>,
    /// Engine task id → (tenant, session-local index). Rebuilt from the
    /// session logs on restart.
    task_of: Vec<(u32, u64)>,
    /// Engine task ids already absorbed into the meters (a rollback
    /// makes the engine accept an id again; this keeps metering
    /// idempotent).
    metered: Vec<bool>,
    /// How far into the engine's acceptance log ([`Runtime::accepted`])
    /// the meters have read.
    cursor: usize,
    /// Acceptance-log entries metering has read, over the service's
    /// lifetime ([`Service::metering_visits`]).
    visits: u64,
    /// Security premium already distributed to tenant meters.
    premium_seen: Seconds,
    /// Tenants whose `unsealed` list is non-empty, each once.
    unsealed_tenants: Vec<u32>,
    /// Scratch for [`Service::absorb`]; contents are dead between
    /// calls, only the capacity is carried: the fresh ids, and the
    /// tenants whose `sealed_fresh` the call raised.
    batch: Vec<TaskId>,
    sealed_tenants: Vec<u32>,
}

impl Service {
    /// Register a tenant; ids are issued in registration order.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidParameter`] for a non-positive or
    /// non-finite share, or an explicit budget of zero (it could never
    /// admit anything).
    pub fn register(&mut self, spec: TenantSpec) -> Result<TenantId, RuntimeError> {
        if !(spec.share.is_finite() && spec.share > 0.0) {
            return Err(RuntimeError::invalid_parameter(
                "share",
                format!("must be a positive finite share, got {}", spec.share),
            ));
        }
        if spec.budget == Some(0) {
            return Err(RuntimeError::invalid_parameter(
                "budget",
                "a zero budget can never admit a task",
            ));
        }
        let id = TenantId(self.tenants.len() as u32);
        self.tenants.push(TenantState {
            spec,
            vtime: 0.0,
            pending: VecDeque::new(),
            log: Vec::new(),
            session: CheckpointRecord::default(),
            unsealed: Vec::new(),
            sealed_fresh: 0,
            meter: TenantReport::default(),
        });
        Ok(id)
    }

    /// Submit one task on behalf of `tenant`. Dependencies are inferred
    /// from region accesses exactly as in [`Runtime::submit`], within
    /// the tenant's namespaced region space. Returns the session-local
    /// task index.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::AdmissionRejected`] when the tenant's
    /// admitted-but-uncompleted count is at its budget (nothing is
    /// enqueued); [`RuntimeError::InvalidParameter`] for an unknown
    /// tenant, or for a session-local region id of 2³² or more (the
    /// upper half of the engine's region id holds the tenant, so such an
    /// id would alias another region; nothing is logged or enqueued).
    pub fn submit<I, R>(
        &mut self,
        tenant: TenantId,
        descriptor: TaskDescriptor,
        accesses: I,
    ) -> Result<u64, RuntimeError>
    where
        I: IntoIterator<Item = (R, AccessMode)>,
        R: Into<RegionId>,
    {
        let budget = self.budget_of(tenant)?;
        let t = &mut self.tenants[tenant.0 as usize];
        if t.queued() >= budget {
            t.meter.admission_rejections += 1;
            return Err(RuntimeError::AdmissionRejected {
                tenant: tenant.0,
                queued: t.queued(),
                budget,
            });
        }
        let mut descriptor = descriptor;
        if t.spec.confidential && !descriptor.requirements.security.seals_at_rest() {
            descriptor.requirements.security = SecurityLevel::Confidential;
        }
        let accesses = accesses
            .into_iter()
            .map(|(r, m)| {
                let r: RegionId = r.into();
                if r.0 > u64::from(u32::MAX) {
                    return Err(RuntimeError::invalid_parameter(
                        "region",
                        format!("session-local region ids are 32-bit, got {}", r.0),
                    ));
                }
                Ok((r, m))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let idx = t.log.len() as u64;
        t.log.push(LoggedTask {
            descriptor,
            accesses,
        });
        if t.pending.is_empty() {
            self.turns.push(Reverse(Turn {
                vtime: t.vtime,
                tenant: tenant.0,
            }));
        }
        t.pending.push_back(idx);
        Ok(idx)
    }

    /// Dispatch every pending submission into the engine in stride
    /// order: lowest virtual time first, ties to the lowest tenant id,
    /// each dispatch advancing the tenant's virtual time by `1/share`.
    fn dispatch_pending(&mut self) {
        while let Some(Reverse(Turn { tenant, .. })) = self.turns.pop() {
            let t = &mut self.tenants[tenant as usize];
            let idx = t.pending.pop_front().expect("a queued turn has work");
            let logged = &t.log[idx as usize];
            // The session log keeps its copy for restart; a static
            // task-type name makes the clone allocation-free.
            let id = self.rt.submit(
                logged.descriptor.clone(),
                logged
                    .accesses
                    .iter()
                    .map(|&(r, m)| (namespace(tenant, r), m)),
            );
            t.vtime += 1.0 / t.spec.share;
            if !t.pending.is_empty() {
                self.turns.push(Reverse(Turn {
                    vtime: t.vtime,
                    tenant,
                }));
            }
            debug_assert_eq!(id.index(), self.task_of.len());
            self.task_of.push((tenant, idx));
            self.metered.push(false);
        }
    }

    /// Dispatch pending submissions and run the engine to quiescence;
    /// meters are brought up to date and every session's completed
    /// frontier is sealed. The report is the engine's cumulative
    /// [`RunReport`] — with a single tenant it is bit-identical to a
    /// bare [`Runtime::run`] over the same submissions — and a snapshot
    /// (see [`Runtime::report`]): a report kept across the next wave's
    /// submissions makes the engine copy its outcome table once, at the
    /// first of them; one dropped before costs no copy.
    ///
    /// # Errors
    ///
    /// Whatever [`Runtime::run`] reports. Meters and sessions are still
    /// synchronized with everything the engine completed before the
    /// error, so a failed run loses no accounting.
    pub fn run(&mut self) -> Result<RunReport, RuntimeError> {
        self.dispatch_pending();
        let outcome = self.rt.run();
        self.absorb();
        self.seal();
        outcome
    }

    /// Dispatch pending submissions and advance the engine by one event
    /// (see [`Runtime::step`]); meters are synchronized after the step.
    /// Sessions are *not* sealed — call [`Service::seal`] to checkpoint
    /// mid-stream.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Runtime::step`].
    pub fn step(&mut self) -> Result<Option<Seconds>, RuntimeError> {
        self.dispatch_pending();
        let stepped = self.rt.step();
        self.absorb();
        stepped
    }

    /// Fold the acceptances the engine logged since the last call into
    /// the tenant meters, then distribute the security layer's premium
    /// growth over the sealed tasks among them. Each log entry is read
    /// once; an id whose outcome a rollback has since discarded is left
    /// unmetered until the engine accepts it again, and an id is metered
    /// at most once.
    fn absorb(&mut self) {
        let fresh = &self.rt.accepted()[self.cursor..];
        if fresh.is_empty() {
            return;
        }
        self.cursor += fresh.len();
        self.visits += fresh.len() as u64;
        // Ascending id order: the order per-tenant joules are summed in
        // must not depend on how the engine interleaved completions. (An
        // id the engine accepted twice is caught by `metered`.)
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        batch.extend_from_slice(fresh);
        batch.sort_unstable();
        let mut sealed_total = 0u64;
        for &id in &batch {
            let i = id.index();
            if self.metered[i] {
                continue;
            }
            let Some(p) = self.rt.outcome(id) else {
                continue;
            };
            self.metered[i] = true;
            let (tenant, idx) = self.task_of[i];
            let dur = p.finish - p.start;
            let energy: Joule = p
                .devices
                .iter()
                .map(|&d| self.rt.devices()[d].spec.busy_power * dur)
                .sum();
            let t = &mut self.tenants[tenant as usize];
            t.meter.tasks_completed += 1;
            t.meter.busy_energy += energy;
            if t.unsealed.is_empty() {
                self.unsealed_tenants.push(tenant);
            }
            t.unsealed.push(id);
            if t.log[idx as usize]
                .descriptor
                .requirements
                .security
                .seals_at_rest()
            {
                if t.sealed_fresh == 0 {
                    self.sealed_tenants.push(tenant);
                }
                t.sealed_fresh += 1;
                sealed_total += 1;
            }
        }
        self.batch = batch;
        let stats = self.rt.security_stats();
        let premium = stats.enclave_time + stats.seal_time;
        let grown = premium - self.premium_seen;
        let split = sealed_total > 0 && grown > Seconds::ZERO;
        if split {
            self.premium_seen = premium;
        }
        for tenant in self.sealed_tenants.drain(..) {
            let t = &mut self.tenants[tenant as usize];
            let n = std::mem::take(&mut t.sealed_fresh);
            if split {
                t.meter.enclave_premium += grown / sealed_total as f64 * n as f64;
            }
        }
    }

    /// Seal every session's completed-but-unsealed frontier through the
    /// FTI checkpoint layer: the seal's byte volume is the declared size
    /// of the regions those tasks wrote
    /// ([`EngineConfig::with_region_sizes`], read by slot from the
    /// engine's region table), and the priced write cost accumulates on
    /// the session record. Called by [`Service::run`]; public so
    /// stream-style drivers ([`Service::step`]) can checkpoint at their
    /// own cadence. Costs the completions since the last seal, not the
    /// session logs.
    pub fn seal(&mut self) {
        self.rt.resolve_sizes();
        for tenant in self.unsealed_tenants.drain(..) {
            let t = &mut self.tenants[tenant as usize];
            let mut bytes = Bytes::ZERO;
            for id in t.unsealed.drain(..) {
                t.session
                    .frontier
                    .insert(TaskId(self.task_of[id.index()].1));
                let accesses = slot_accesses(&self.rt.graph, id).expect("a completed task");
                bytes += self.rt.regions.written(accesses);
            }
            t.session.bytes += bytes;
            t.session.cost += self.store.write_cost(bytes);
        }
    }

    /// Rebuild the engine from the retained [`EngineConfig`] and resume
    /// every session from its last seal: sealed tasks are carried over
    /// as completed (never re-executed), everything else — pending,
    /// in-flight, and completed-but-unsealed — is re-queued for the
    /// next [`Service::run`]. Meters persist (re-executed work
    /// re-meters: it really is redone); virtual time restarts at zero.
    ///
    /// # Errors
    ///
    /// Whatever [`EngineConfig::build`] reports.
    pub fn restart(&mut self) -> Result<(), RuntimeError> {
        self.rt = self.config.engine.clone().build()?;
        self.task_of.clear();
        self.metered.clear();
        self.cursor = 0;
        self.premium_seen = Seconds::ZERO;
        self.turns.clear();
        self.unsealed_tenants.clear();
        for (i, t) in self.tenants.iter_mut().enumerate() {
            t.vtime = 0.0;
            t.pending.clear();
            t.unsealed.clear();
            let sealed = &t.session.frontier;
            t.pending
                .extend((0..t.log.len() as u64).filter(|&idx| !sealed.contains(TaskId(idx))));
            if !t.pending.is_empty() {
                self.turns.push(Reverse(Turn {
                    vtime: 0.0,
                    tenant: i as u32,
                }));
            }
        }
        Ok(())
    }

    /// The tenant's meter.
    ///
    /// # Panics
    ///
    /// Panics on an unregistered tenant id. This one still panics
    /// rather than returning a [`RuntimeError`] because the benchmark
    /// package calls it as is; it moves to `Result` together with those
    /// callers.
    #[must_use = "meters are the tenant's bill; dropping them unread is a bug"]
    pub fn tenant_report(&self, tenant: TenantId) -> TenantReport {
        let t = &self.tenants[tenant.0 as usize];
        TenantReport {
            checkpoint_bytes: t.session.bytes,
            ..t.meter
        }
    }

    /// The tenant's session checkpoint record: the session-local tasks
    /// its seals cover (as [`TaskId`]s), the bytes they wrote and their
    /// cumulative priced cost. Empty before the first seal.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidParameter`] for an unregistered tenant id.
    pub fn session(&self, tenant: TenantId) -> Result<&CheckpointRecord, RuntimeError> {
        Ok(&self.tenant(tenant)?.session)
    }

    /// Admitted-but-uncompleted tasks charged against the tenant's
    /// budget.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidParameter`] for an unregistered tenant id.
    pub fn queued(&self, tenant: TenantId) -> Result<usize, RuntimeError> {
        Ok(self.tenant(tenant)?.queued())
    }

    /// Registered tenant count.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Read-only access to the wrapped engine (placement-eval counters,
    /// device meters, security stats).
    #[must_use]
    pub fn engine(&self) -> &Runtime {
        &self.rt
    }

    /// Acceptance-log entries the meters have read over the service's
    /// lifetime — the deterministic, timer-free observable of metering
    /// cost: it equals the length of the engine's acceptance log
    /// (summed over restarts), however the service was driven. Like
    /// [`Runtime::placement_evals`], deliberately kept out of every
    /// report.
    #[must_use]
    pub fn metering_visits(&self) -> u64 {
        self.visits
    }

    /// The state of a registered tenant; an unregistered id is a typed
    /// error on every entry point that takes one.
    fn tenant(&self, tenant: TenantId) -> Result<&TenantState, RuntimeError> {
        self.tenants.get(tenant.0 as usize).ok_or_else(|| {
            RuntimeError::invalid_parameter("tenant", format!("{tenant} is not registered"))
        })
    }

    fn budget_of(&self, tenant: TenantId) -> Result<usize, RuntimeError> {
        let t = self.tenant(tenant)?;
        Ok(t.spec.budget.unwrap_or(self.config.default_budget))
    }
}

/// Tenant `t`'s session-local region `r` in the engine's flat region
/// space. Identity for tenant 0, so single-tenant services submit the
/// engine's native region ids. [`Service::submit`] admits only 32-bit
/// `r`, so the halves never overlap.
fn namespace(tenant: u32, r: RegionId) -> RegionId {
    RegionId((u64::from(tenant) << 32) | r.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Policy;
    use legato_core::requirements::Requirements;
    use legato_core::task::Work;
    use legato_hw::device::DeviceSpec;

    fn engine() -> EngineConfig {
        EngineConfig::new()
            .with_devices(vec![DeviceSpec::xeon_x86(), DeviceSpec::gtx1080()])
            .with_policy(Policy::Performance)
            .with_seed(7)
    }

    fn task() -> TaskDescriptor {
        TaskDescriptor::named("t").with_work(Work::flops(1e12))
    }

    #[test]
    fn admission_gate_rejects_past_the_budget_and_recovers() {
        let mut svc = ServiceConfig::new(engine()).build().unwrap();
        let a = svc.register(TenantSpec::new().with_budget(2)).unwrap();
        svc.submit(a, task(), [(0u64, AccessMode::Out)]).unwrap();
        svc.submit(a, task(), [(1u64, AccessMode::Out)]).unwrap();
        let err = svc
            .submit(a, task(), [(2u64, AccessMode::Out)])
            .unwrap_err();
        assert!(
            matches!(
                err,
                RuntimeError::AdmissionRejected {
                    tenant: 0,
                    queued: 2,
                    budget: 2
                }
            ),
            "{err:?}"
        );
        assert_eq!(svc.tenant_report(a).admission_rejections, 1);
        // Draining the queue re-opens the gate.
        let _ = svc.run().unwrap();
        assert_eq!(svc.queued(a).unwrap(), 0);
        svc.submit(a, task(), [(2u64, AccessMode::Out)]).unwrap();
    }

    #[test]
    fn stride_dispatch_favors_the_heavier_share() {
        let mut svc = ServiceConfig::new(engine()).build().unwrap();
        let light = svc.register(TenantSpec::new().with_share(1.0)).unwrap();
        let heavy = svc.register(TenantSpec::new().with_share(3.0)).unwrap();
        for r in 0..8u64 {
            svc.submit(light, task(), [(r, AccessMode::Out)]).unwrap();
            svc.submit(heavy, task(), [(r, AccessMode::Out)]).unwrap();
        }
        let _ = svc.run().unwrap();
        // Under backlog the share-3 tenant dispatches 3 of every 4
        // slots, so its mean finish time is strictly earlier.
        let mean = |t: TenantId| {
            let report = svc.engine().report();
            let mut sum = 0.0;
            let mut n = 0u32;
            for p in &report.placements {
                if svc.task_of[p.task.0 as usize].0 == t.0 {
                    sum += p.finish.0;
                    n += 1;
                }
            }
            sum / f64::from(n)
        };
        assert!(
            mean(heavy) < mean(light),
            "share-3 tenant should finish earlier on average: {} vs {}",
            mean(heavy),
            mean(light)
        );
        assert_eq!(svc.tenant_report(heavy).tasks_completed, 8);
        assert_eq!(svc.tenant_report(light).tasks_completed, 8);
    }

    #[test]
    fn namespacing_isolates_same_named_regions() {
        let mut svc = ServiceConfig::new(engine()).build().unwrap();
        let a = svc.register(TenantSpec::new()).unwrap();
        let b = svc.register(TenantSpec::new()).unwrap();
        // Both tenants hammer "their" region 0: no cross-tenant
        // serialization may appear.
        for _ in 0..4 {
            svc.submit(a, task(), [(0u64, AccessMode::InOut)]).unwrap();
            svc.submit(b, task(), [(0u64, AccessMode::InOut)]).unwrap();
        }
        let report = svc.run().unwrap();
        // Two independent 4-deep chains over two devices finish in 4
        // serialized steps, not 8.
        let dur = DeviceSpec::xeon_x86()
            .time_for(Work::flops(1e12), legato_core::task::TaskKind::Compute);
        assert!(
            report.makespan < dur * 6.0,
            "tenants serialized on each other: makespan {}",
            report.makespan
        );
    }

    #[test]
    fn confidential_tenant_routes_through_the_security_module() {
        let mut svc = ServiceConfig::new(engine()).build().unwrap();
        let c = svc.register(TenantSpec::new().confidential()).unwrap();
        svc.submit(c, task(), [(0u64, AccessMode::Out)]).unwrap();
        let report = svc.run().unwrap();
        let sec = report.security.expect("security layer activated");
        assert!(sec.confidential_tasks >= 1, "{sec:?}");
    }

    #[test]
    fn enclave_premium_is_metered_to_the_tenant_that_caused_it() {
        let mut svc = ServiceConfig::new(engine()).build().unwrap();
        let public = svc.register(TenantSpec::new()).unwrap();
        let enclave = svc.register(TenantSpec::new()).unwrap();
        svc.submit(public, task(), [(0u64, AccessMode::Out)])
            .unwrap();
        svc.submit(
            enclave,
            task().with_requirements(Requirements::new().with_security(SecurityLevel::Enclave)),
            [(0u64, AccessMode::Out)],
        )
        .unwrap();
        let _ = svc.run().unwrap();
        assert_eq!(svc.tenant_report(public).enclave_premium, Seconds::ZERO);
        assert!(svc.tenant_report(enclave).enclave_premium > Seconds::ZERO);
    }

    #[test]
    fn sessions_seal_and_survive_restart() {
        let sizes = [(RegionId(0), Bytes::mib(64))].into_iter().collect();
        let mut svc = ServiceConfig::new(engine().with_region_sizes(sizes))
            .build()
            .unwrap();
        let a = svc.register(TenantSpec::new()).unwrap();
        svc.submit(a, task(), [(0u64, AccessMode::Out)]).unwrap();
        let _ = svc.run().unwrap();
        let session = svc.session(a).unwrap();
        assert!(session.frontier.contains(TaskId(0)));
        assert_eq!(session.frontier.len(), 1);
        assert_eq!(session.bytes, Bytes::mib(64));
        assert!(session.cost > Seconds::ZERO);
        assert_eq!(svc.tenant_report(a).checkpoint_bytes, Bytes::mib(64));

        svc.restart().unwrap();
        // Nothing unsealed: the restarted engine has nothing to redo.
        let report = svc.run().unwrap();
        assert!(report.placements.is_empty(), "sealed task was re-executed");
        assert_eq!(svc.tenant_report(a).tasks_completed, 1);
    }

    #[test]
    fn rejects_oversized_region_ids_before_anything_is_logged() {
        let mut svc = ServiceConfig::new(engine()).build().unwrap();
        let zero = svc.register(TenantSpec::new()).unwrap();
        let other = svc.register(TenantSpec::new()).unwrap();
        for t in [zero, other] {
            // One good access ahead of the bad one: nothing of the
            // submission may survive.
            let err = svc
                .submit(
                    t,
                    task(),
                    [(0u64, AccessMode::Out), (1u64 << 32, AccessMode::In)],
                )
                .unwrap_err();
            assert!(
                matches!(err, RuntimeError::InvalidParameter { name: "region", .. }),
                "{err:?}"
            );
            assert_eq!(svc.queued(t).unwrap(), 0);
        }
        let report = svc.run().unwrap();
        assert!(
            report.placements.is_empty(),
            "a refused task was dispatched"
        );
        // The largest session-local id is still admitted, and stays in
        // its own tenant's half of the engine's region space.
        svc.submit(other, task(), [(u64::from(u32::MAX), AccessMode::Out)])
            .unwrap();
        let _ = svc.run().unwrap();
        assert_eq!(
            svc.engine().graph().accesses(TaskId(0)).unwrap(),
            [(RegionId((1 << 32) | u64::from(u32::MAX)), AccessMode::Out)]
        );
    }

    #[test]
    fn rejects_bad_tenant_specs() {
        let mut svc = ServiceConfig::new(engine()).build().unwrap();
        assert!(svc.register(TenantSpec::new().with_share(0.0)).is_err());
        assert!(svc
            .register(TenantSpec::new().with_share(f64::NAN))
            .is_err());
        assert!(svc.register(TenantSpec::new().with_budget(0)).is_err());
    }

    fn is_unregistered(err: &RuntimeError) -> bool {
        matches!(err, RuntimeError::InvalidParameter { name: "tenant", .. })
    }

    #[test]
    fn session_of_an_unregistered_tenant_is_a_typed_error() {
        let mut svc = ServiceConfig::new(engine()).build().unwrap();
        assert!(is_unregistered(&svc.session(TenantId(0)).unwrap_err()));
        let a = svc.register(TenantSpec::new()).unwrap();
        assert!(svc.session(a).unwrap().frontier.is_empty());
        assert!(is_unregistered(&svc.session(TenantId(1)).unwrap_err()));
    }

    #[test]
    fn queued_of_an_unregistered_tenant_is_a_typed_error() {
        let mut svc = ServiceConfig::new(engine()).build().unwrap();
        assert!(is_unregistered(&svc.queued(TenantId(0)).unwrap_err()));
        let a = svc.register(TenantSpec::new()).unwrap();
        svc.submit(a, task(), [(0u64, AccessMode::Out)]).unwrap();
        assert_eq!(svc.queued(a).unwrap(), 1);
        assert!(is_unregistered(&svc.queued(TenantId(1)).unwrap_err()));
    }
}
