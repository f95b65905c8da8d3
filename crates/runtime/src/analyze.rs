//! Static task-graph verification — race, information-flow, feasibility
//! and checkpoint diagnostics *before* a single event fires.
//!
//! The pillars only help if the submitted graph is actually safe to run:
//! without this module, the engine discovers structural races (possible
//! through [`TaskGraph::add_task_with_deps`]), confidentiality leaks and
//! unsatisfiable placements *dynamically* — or not at all. The lint
//! passes ([`Runtime::analyze`]) run over a [`TaskGraph`] plus the
//! runtime's pillar configuration and emit an [`AnalysisReport`] of
//! structured [`Diagnostic`]s; wired in through
//! [`EngineConfig::with_analysis`](crate::config::EngineConfig::with_analysis),
//! errors refuse the run ([`RuntimeError::AnalysisFailed`]) before any
//! event dispatches, while warn-only mode attaches the report to
//! [`RunReport`](crate::runtime::RunReport).
//!
//! Four lints run on every analysis:
//!
//! * **region race** ([`LintId::RegionRace`]) — conflicting accesses
//!   (write/write or write/read) to one region between tasks with no
//!   happens-before path. Ordering is proven in two phases: direct
//!   dependence edges first (free on inference-built graphs, where every
//!   conflict has one), then a bitset transitive closure
//!   ([`legato_core::reach::Reachability`]) over only the unresolved
//!   tasks — `O(E · suspects / 64)`, zero when there are none.
//! * **confidential flow** ([`LintId::ConfidentialFlow`]) —
//!   [`SecurityLevel`] as a lattice (public ⊑ sealed-io ⊑ enclave-only):
//!   region taints propagate along the dataflow, and a reader below the
//!   taint of what it reads is flagged with the full writer chain as
//!   evidence. Enclave-only taint reaching a lower reader is an error;
//!   sealed-io taint reaching a public reader is a warning (the data is
//!   sealed at rest — the engine's seal-on-cross-device contract makes
//!   the handoff priced, but it is almost certainly a graph bug).
//! * **placement feasibility** ([`LintId::PlacementFeasibility`]) — the
//!   engine's own eligibility rule, read per spec class, and each
//!   finding a prediction of what the engine will do: tasks no available
//!   device may host ([`RuntimeError::NoSecurePlacement`] on a fixed
//!   fleet; under churn a deferral, or [`RuntimeError::DeferralExpired`]
//!   when no arrival in the trace can host them), replica sets that
//!   shrink to the eligible pool, and placements that relax the power
//!   cap or the makespan bound on the specs the engine schedules
//!   against.
//! * **checkpoint closure** ([`LintId::CheckpointClosure`]) — the engine
//!   checkpoints the *completed frontier*, which is closed under
//!   dependences by construction, so no graph can make a restore fail;
//!   what a graph can get wrong is the volume: partially declared region
//!   sizes that silently price live regions at zero bytes are warned
//!   about.
//!
//! Every dependence edge points from an earlier submission to a later
//! one, so submission order is an execution order and each lint is one
//! scan in id order. The scans are a fold: the analysis state keeps each
//! lint's scan state and findings, and extending it visits only the
//! tasks submitted since. Race, flow and checkpoint verdicts for a task
//! read only the tasks up to it, so they fold from the suffix;
//! feasibility reads the fleet, so a moved fleet epoch drops its
//! findings and re-folds them over the whole graph, at O(classes) per
//! task. [`Runtime::analyze`] folds a fresh state from task 0, and an
//! analysed runtime extends its own state at every `run` / `step` entry,
//! so a streamed graph costs the same per task as one submitted whole.
//!
//! [`SecurityLevel`]: legato_core::requirements::SecurityLevel
//! [`TaskGraph`]: legato_core::graph::TaskGraph
//! [`TaskGraph::add_task_with_deps`]: legato_core::graph::TaskGraph::add_task_with_deps
//! [`RuntimeError::AnalysisFailed`]: crate::error::RuntimeError::AnalysisFailed
//! [`RuntimeError::NoSecurePlacement`]: crate::error::RuntimeError::NoSecurePlacement
//! [`RuntimeError::DeferralExpired`]: crate::error::RuntimeError::DeferralExpired
//! [`Runtime::analyze`]: crate::runtime::Runtime::analyze

use std::fmt;

use legato_core::graph::TaskGraph;
use legato_core::reach::{has_direct_edge, Reachability};
use legato_core::requirements::SecurityLevel;
use legato_core::task::{AccessMode, RegionId, TaskId};
use legato_core::units::Watt;
use serde::{Deserialize, Serialize};

use crate::churn::{ChurnEventKind, ChurnState};
use crate::classes::{self, SpecClasses};
use crate::config::RegionSizes;
use crate::energy::EnergyObjective;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Suspicious but executable; attached to the report, never refuses
    /// a run.
    Warn,
    /// The run would be nondeterministic, leak confidential data, or
    /// fail at placement/restore time; refuses the run in
    /// [`AnalysisMode::Enforce`].
    Error,
}

/// Which lint produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LintId {
    /// Unordered conflicting region accesses.
    RegionRace,
    /// Confidentiality-lattice violations along the dataflow.
    ConfidentialFlow,
    /// Placements the device fleet cannot satisfy.
    PlacementFeasibility,
    /// Live regions a checkpoint would price at zero bytes.
    CheckpointClosure,
}

impl LintId {
    /// Stable kebab-case name, used in rendered diagnostics and report
    /// files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LintId::RegionRace => "region-race",
            LintId::ConfidentialFlow => "confidential-flow",
            LintId::PlacementFeasibility => "placement-feasibility",
            LintId::CheckpointClosure => "checkpoint-closure",
        }
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// The lint that fired.
    pub lint: LintId,
    /// Error or warning.
    pub severity: Severity,
    /// The witness tasks (e.g. the two unordered writers, the
    /// confidential producer and the leaking reader).
    pub tasks: Vec<TaskId>,
    /// The witness regions, when the finding is about data.
    pub regions: Vec<RegionId>,
    /// Evidence: a dataflow path, task by task. Empty when the evidence
    /// is the *absence* of a path (a race counterexample) or fleet-level
    /// (feasibility).
    pub path: Vec<TaskId>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warn => "warning",
        };
        write!(f, "{sev}[{}]: {}", self.lint.name(), self.message)?;
        if !self.path.is_empty() {
            write!(f, " (path ")?;
            for (i, t) in self.path.iter().enumerate() {
                if i > 0 {
                    write!(f, " -> ")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// The result of one analysis pass over a graph.
#[must_use = "an unread analysis report hides the diagnostics it carries"]
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Every finding, in lint order then discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Tasks in the graph when the analysis ran.
    pub tasks_analyzed: usize,
}

impl AnalysisReport {
    /// Findings at [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Whether any finding is an error.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether the graph passed every lint with nothing to report.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tasks analyzed, {} error(s), {} warning(s)",
            self.tasks_analyzed,
            self.error_count(),
            self.warning_count()
        )?;
        for d in &self.diagnostics {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

/// Whether analysis findings refuse the run or only annotate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AnalysisMode {
    /// Error-severity findings make [`Runtime::run`] /
    /// [`Runtime::step`] return [`RuntimeError::AnalysisFailed`] before
    /// any event is dispatched.
    ///
    /// [`Runtime::run`]: crate::runtime::Runtime::run
    /// [`Runtime::step`]: crate::runtime::Runtime::step
    /// [`RuntimeError::AnalysisFailed`]: crate::error::RuntimeError::AnalysisFailed
    #[default]
    Enforce,
    /// The run proceeds regardless; the report is attached to
    /// [`RunReport::analysis`](crate::runtime::RunReport::analysis).
    WarnOnly,
}

/// Configuration of the pre-execution analysis
/// ([`EngineConfig::with_analysis`](crate::config::EngineConfig::with_analysis)).
#[must_use = "builder-style configs do nothing unless passed to EngineConfig"]
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Enforce (refuse on errors) or warn-only.
    pub mode: AnalysisMode,
}

impl AnalysisConfig {
    /// All four lints, enforcing: errors refuse the run.
    pub fn new() -> Self {
        AnalysisConfig::default()
    }

    /// Report findings but never refuse the run.
    pub fn warn_only(mut self) -> Self {
        self.mode = AnalysisMode::WarnOnly;
        self
    }
}

/// Everything a lint pass may inspect: the graph and the runtime's
/// pillar configuration, borrowed for the duration of the pass.
pub(crate) struct AnalysisContext<'a> {
    /// The dataflow graph under analysis.
    pub(crate) graph: &'a TaskGraph,
    /// The engine's class table: the specs it schedules against
    /// (operating-point derating already applied) and its eligibility
    /// rule.
    pub(crate) classes: &'a SpecClasses,
    /// The churn layer's availability mask, trace and fleet epoch, when
    /// churn is on.
    pub(crate) churn: Option<&'a ChurnState>,
    /// The active Pareto objective, if any.
    pub(crate) objective: Option<EnergyObjective>,
    /// The engine's declared region sizes
    /// ([`EngineConfig::with_region_sizes`](crate::config::EngineConfig::with_region_sizes)),
    /// when resilience mode is on and checkpoints are priced with them.
    pub(crate) region_sizes: Option<&'a RegionSizes>,
}

/// The analyzer as a fold over the graph in id order: each lint's scan
/// state and its findings over the first `analyzed_len` tasks.
#[derive(Debug, Clone, Default)]
pub(crate) struct AnalysisState {
    pub(crate) config: AnalysisConfig,
    /// Tasks folded so far.
    analyzed_len: usize,
    race: RaceScan,
    flow: FlowScan,
    /// `None` before the first fold; rebuilt when the fleet epoch moves.
    feasibility: Option<FeasibilityScan>,
    checkpoint: CheckpointScan,
    /// Tasks folded per lint, indexed by `LintId as usize`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) visits: [usize; 4],
}

/// The race lint's scan state: per region slot, the last writer and the
/// readers since it.
#[derive(Debug, Clone, Default)]
struct RaceScan {
    windows: Vec<RegionWindow>,
    found: Vec<Diagnostic>,
}

#[derive(Debug, Clone, Default)]
struct RegionWindow {
    last_writer: Option<TaskId>,
    readers: Vec<TaskId>,
}

/// The flow lint's scan state.
#[derive(Debug, Clone, Default)]
struct FlowScan {
    /// Provenance arena: (task, parent entry) — each tainted write
    /// appends one node, so evidence paths reconstruct in O(path).
    prov: Vec<(TaskId, Option<usize>)>,
    /// Per region slot: the taint its current contents carry.
    taints: Vec<Option<Taint>>,
    found: Vec<Diagnostic>,
    /// Error-severity findings among `found`.
    errors: usize,
}

/// Taint of one region: the confidentiality level its current contents
/// carry and a link into the provenance chain that produced them.
#[derive(Debug, Clone, Copy)]
struct Taint {
    level: SecurityLevel,
    prov: usize,
}

/// The feasibility lint's state, valid for one fleet epoch.
#[derive(Debug, Clone)]
struct FeasibilityScan {
    epoch: u64,
    churn: bool,
    cap: Option<Watt>,
    /// Per class: the devices placements may target now.
    live: Vec<usize>,
    /// Per security level: the eligible devices, how many of them draw
    /// within the cap, and whether an arrival in the churn trace may
    /// host the level.
    pool: [(usize, usize, bool); classes::LEVELS.len()],
    found: Vec<Diagnostic>,
    capped: Vec<TaskId>,
    deferred: Vec<TaskId>,
    stranded: Vec<TaskId>,
}

/// The checkpoint lint's scan state.
#[derive(Debug, Clone, Default)]
struct CheckpointScan {
    /// Per slot: whether an earlier task wrote the region, and whether
    /// it is already reported.
    written: Vec<bool>,
    reported: Vec<bool>,
    undeclared: Vec<RegionId>,
}

impl AnalysisState {
    pub(crate) fn new(config: AnalysisConfig) -> Self {
        AnalysisState {
            config,
            ..AnalysisState::default()
        }
    }

    /// Fold the tasks submitted since the last call (every task, on a
    /// fresh state).
    pub(crate) fn extend(&mut self, cx: &AnalysisContext<'_>) {
        let from = self.analyzed_len;
        self.region_race(cx.graph, from);
        self.confidential_flow(cx.graph, from);
        self.placement_feasibility(cx, from);
        self.checkpoint_closure(cx, from);
        self.analyzed_len = cx.graph.len();
    }

    /// Whether the report holds an error, without assembling it: every
    /// race is one, and feasibility's only one is the stranded task list.
    pub(crate) fn has_errors(&self) -> bool {
        !self.race.found.is_empty()
            || self.flow.errors > 0
            || self
                .feasibility
                .as_ref()
                .is_some_and(|f| !f.stranded.is_empty())
    }

    /// The report over the folded tasks, in lint order then discovery
    /// order, each lint's aggregates last; `None` before the first fold.
    pub(crate) fn report(&self) -> Option<AnalysisReport> {
        let feasibility = self.feasibility.as_ref()?;
        let mut diagnostics: Vec<Diagnostic> =
            [&self.race.found, &self.flow.found, &feasibility.found]
                .into_iter()
                .flatten()
                .cloned()
                .collect();
        feasibility.aggregate(&mut diagnostics);
        self.checkpoint.aggregate(&mut diagnostics);
        Some(AnalysisReport {
            diagnostics,
            tasks_analyzed: self.analyzed_len,
        })
    }

    /// The region race detector.
    ///
    /// Task ids ascend along every dependence edge, so any
    /// happens-before path between two conflicting accessors can only
    /// run from the smaller id to the larger. Scanning each region's
    /// accessors in id order therefore reduces race freedom to ordering
    /// each access against the *window* of the last writer and the
    /// readers since it — `O(accesses)` pairs in total, each resolved by
    /// a direct-edge probe first and the bitset closure only for the
    /// leftovers.
    fn region_race(&mut self, g: &TaskGraph, from: usize) {
        // (earlier, later, region, later-writes): ordering obligations.
        let mut pairs: Vec<(TaskId, TaskId, RegionId, bool)> = Vec::new();
        let windows = &mut self.race.windows;
        windows.resize_with(g.regions().len(), RegionWindow::default);
        for i in from..g.len() {
            self.visits[LintId::RegionRace as usize] += 1;
            let t = TaskId(i as u64);
            for (region, mode, slot) in declarations(g, t) {
                let w = &mut windows[slot];
                if mode.writes() {
                    if let Some(prev) = w.last_writer {
                        pairs.push((prev, t, region, true));
                    }
                    // A write also conflicts with every read since the
                    // last write (WAR) — unless this task is itself one
                    // of those readers (InOut reads and writes).
                    for &r in w.readers.iter().filter(|&&r| r != t) {
                        pairs.push((r, t, region, true));
                    }
                    w.last_writer = Some(t);
                    w.readers.clear();
                }
                if mode.reads() && !mode.writes() {
                    if let Some(prev) = w.last_writer {
                        pairs.push((prev, t, region, false));
                    }
                    w.readers.push(t);
                }
            }
        }
        // Phase 1: direct dependence edges witness the ordering for free
        // (every pair on an inference-built graph resolves here).
        pairs.retain(|&(a, b, _, _)| !has_direct_edge(g, a, b));
        if pairs.is_empty() {
            return;
        }
        // Phase 2: transitive closure over only the unresolved earlier
        // tasks.
        let sources: Vec<TaskId> = pairs.iter().map(|&(a, _, _, _)| a).collect();
        let reach = Reachability::over(g, &sources);
        for (a, b, region, later_writes) in pairs {
            if reach.reaches(a, b) {
                continue;
            }
            let verb = if later_writes {
                "write the same region"
            } else {
                "write and read the same region"
            };
            self.race.found.push(Diagnostic {
                lint: LintId::RegionRace,
                severity: Severity::Error,
                tasks: vec![a, b],
                regions: vec![region],
                path: Vec::new(),
                message: format!(
                    "{a} and {b} {verb} {region:?} with no happens-before path between \
                     them; their execution order (and the region's final value) is \
                     nondeterministic"
                ),
            });
        }
    }

    /// The confidentiality flow check.
    ///
    /// Walks tasks in dataflow (id) order, propagating each region's
    /// taint: a task's *effective* level is the join of its own declared
    /// level and the taints of everything it reads, and every region it
    /// writes takes that effective level. A reader whose declared level
    /// sits strictly below the taint of a region it reads is flagged,
    /// with the writer chain from the original confidential producer as
    /// the evidence path — the static mirror of the engine's
    /// seal-on-cross-device contract.
    fn confidential_flow(&mut self, g: &TaskGraph, from: usize) {
        let FlowScan {
            prov,
            taints,
            found,
            errors,
        } = &mut self.flow;
        taints.resize(g.regions().len(), None);
        for i in from..g.len() {
            self.visits[LintId::ConfidentialFlow as usize] += 1;
            let t = TaskId(i as u64);
            let own = g.descriptor(t).expect("id in range").requirements.security;
            // Join of the input taints (and the strongest one's
            // provenance, for the evidence chain).
            let mut in_level = SecurityLevel::Public;
            let mut in_prov = None;
            for (region, mode, slot) in declarations(g, t) {
                let Some(taint) = taints[slot].filter(|_| mode.reads()) else {
                    continue;
                };
                if taint.level > own {
                    let mut path: Vec<TaskId> = Vec::new();
                    let mut at = Some(taint.prov);
                    while let Some(p) = at {
                        path.push(prov[p].0);
                        at = prov[p].1;
                    }
                    path.reverse();
                    let origin = path[0];
                    path.push(t);
                    let (severity, consequence) = if taint.level == SecurityLevel::Enclave {
                        *errors += 1;
                        (
                            Severity::Error,
                            "enclave-only data must not flow below its level",
                        )
                    } else {
                        (
                            Severity::Warn,
                            "the handoff is sealed at rest, so the reader gets \
                             ciphertext it has no business unsealing",
                        )
                    };
                    found.push(Diagnostic {
                        lint: LintId::ConfidentialFlow,
                        severity,
                        tasks: vec![origin, t],
                        regions: vec![region],
                        message: format!(
                            "{t} ({own:?}) reads {region:?} carrying {:?}-tainted data \
                             originating at {origin}; {consequence}",
                            taint.level
                        ),
                        path,
                    });
                }
                if taint.level > in_level {
                    in_level = taint.level;
                    in_prov = Some(taint.prov);
                }
            }
            // A public write overwrites any stale taint.
            let effective = own.max(in_level);
            let written = (effective != SecurityLevel::Public).then(|| {
                prov.push((t, if in_level >= own { in_prov } else { None }));
                Taint {
                    level: effective,
                    prov: prov.len() - 1,
                }
            });
            for (_, mode, slot) in declarations(g, t) {
                if mode.writes() {
                    taints[slot] = written;
                }
            }
        }
    }

    /// The placement feasibility check, per spec class: eligibility is
    /// the engine's own ([`SpecClasses::admits`],
    /// [`SpecClasses::eligible_devices`]), so a task costs O(classes),
    /// and every finding names the engine outcome it predicts. Its
    /// verdicts hold for one fleet: a moved epoch re-folds from task 0.
    fn placement_feasibility(&mut self, cx: &AnalysisContext<'_>, from: usize) {
        use EnergyObjective::MinEnergyWithinMakespan;
        let (g, classes) = (cx.graph, cx.classes);
        let epoch = cx.churn.map_or(0, |c| c.epoch);
        let (f, from) = match &mut self.feasibility {
            Some(f) if f.epoch == epoch => (f, from),
            slot => (slot.insert(FeasibilityScan::new(cx, epoch)), 0),
        };
        for i in from..g.len() {
            self.visits[LintId::PlacementFeasibility as usize] += 1;
            let t = TaskId(i as u64);
            let d = g.descriptor(t).expect("id in range");
            let level = d.requirements.security;
            let (eligible, under_cap, arrives) = f.pool[level as usize];
            // Tasks no available device may host: parked until an
            // arrival that can, or failed (NoSecurePlacement /
            // DeferralExpired).
            if eligible == 0 {
                if arrives {
                    f.deferred.push(t);
                } else {
                    f.stranded.push(t);
                }
                continue;
            }
            let wanted = d.requirements.criticality.replica_count();
            if wanted > eligible {
                f.found.push(finding(
                    Severity::Warn,
                    vec![t],
                    format!(
                        "{t} wants {wanted} replicas but only {eligible} device(s) may host \
                         it; its replica set will shrink to {eligible}"
                    ),
                ));
            }
            // The engine relaxes the cap when fewer candidates draw
            // within it than replicas it places.
            if under_cap < wanted.min(eligible) {
                f.capped.push(t);
            }
            // Every candidate finishes no earlier than the task's
            // duration on its class, so a bound below the fastest
            // eligible class's duration relaxes every placement.
            if let Some(MinEnergyWithinMakespan(bound)) = cx.objective {
                let fastest = (0..f.live.len())
                    .filter(|&c| f.live[c] > 0 && classes.admits(c, level))
                    .map(|c| classes.spec(c).time_for(d.work, d.kind).0)
                    .fold(f64::INFINITY, f64::min);
                if fastest > bound.0 {
                    f.found.push(finding(
                        Severity::Warn,
                        vec![t],
                        format!(
                            "{t} needs at least {fastest:.3}s on the fastest device it may \
                             use, over the {bound} makespan bound; the bound will be relaxed"
                        ),
                    ));
                }
            }
        }
    }

    /// The checkpoint-closure check (active only with a resilience
    /// configuration). The frontier the engine checkpoints is the
    /// completed set, closed under dependences whatever the graph; the
    /// lint is about what that frontier is priced at.
    ///
    /// Partially declared region sizes: regions that can be live at a
    /// checkpoint (written by one task, read by a later one) but missing
    /// from the declaration are silently priced at zero. An entirely
    /// empty map means volume accounting is off by choice — only a
    /// *partial* declaration is suspicious.
    fn checkpoint_closure(&mut self, cx: &AnalysisContext<'_>, from: usize) {
        let Some(sizes) = cx.region_sizes.filter(|s| !s.is_empty()) else {
            return;
        };
        let g = cx.graph;
        let CheckpointScan {
            written,
            reported,
            undeclared,
        } = &mut self.checkpoint;
        written.resize(g.regions().len(), false);
        reported.resize(g.regions().len(), false);
        for i in from..g.len() {
            self.visits[LintId::CheckpointClosure as usize] += 1;
            for (region, mode, s) in declarations(g, TaskId(i as u64)) {
                if mode.reads() && written[s] && !reported[s] && !sizes.contains_key(&region) {
                    reported[s] = true;
                    undeclared.push(region);
                }
                written[s] |= mode.writes();
            }
        }
    }
}

impl FeasibilityScan {
    /// The per-class and per-level tables for the fleet as it stands.
    fn new(cx: &AnalysisContext<'_>, epoch: u64) -> Self {
        let classes = cx.classes;
        let avail = cx.churn.map(|c| c.available.as_slice());
        let mut live = vec![0usize; classes.tees().len()];
        for (d, &c) in classes.class_of_slice().iter().enumerate() {
            live[c as usize] += usize::from(avail.is_none_or(|a| a[d]));
        }
        let cap = match cx.objective {
            Some(EnergyObjective::MinMakespanUnderPowerCap(cap)) => Some(cap),
            _ => None,
        };
        let pool = classes::LEVELS.map(|level| {
            let eligible = classes.eligible_devices(level, avail);
            let under_cap = cap.map_or(eligible, |cap| {
                (0..live.len())
                    .filter(|&c| classes.admits(c, level) && classes.spec(c).busy_power <= cap)
                    .map(|c| live[c])
                    .sum()
            });
            let arrives = cx.churn.is_some_and(|churn| {
                churn.config.trace.events().iter().any(|e| {
                    matches!(&e.kind, ChurnEventKind::Arrival { spec, .. }
                        if classes::admits(spec.tee, level))
                })
            });
            (eligible, under_cap, arrives)
        });
        FeasibilityScan {
            epoch,
            churn: cx.churn.is_some(),
            cap,
            live,
            pool,
            found: Vec::new(),
            capped: Vec::new(),
            deferred: Vec::new(),
            stranded: Vec::new(),
        }
    }

    /// One finding per task list: capped, deferred, stranded.
    fn aggregate(&self, out: &mut Vec<Diagnostic>) {
        let mut aggregate = |tasks: &[TaskId], severity: Severity, fate: &str| {
            if let Some(&first) = tasks.first() {
                let message = format!("{} task(s) (first: {first}) {fate}", tasks.len());
                out.push(finding(severity, tasks.to_vec(), message));
            }
        };
        if let Some(cap) = self.cap {
            aggregate(
                &self.capped,
                Severity::Warn,
                &format!(
                    "have fewer eligible devices under the {cap} power cap than replicas to \
                     place; each placement will relax the cap"
                ),
            );
        }
        aggregate(
            &self.deferred,
            Severity::Warn,
            "have no available device that may host them; each will defer until an \
             arrival in the churn trace can",
        );
        let fate = if self.churn {
            "have no available device that may host them, and no arrival in the churn \
             trace can; each deferral would expire with DeferralExpired"
        } else {
            "have no device that may host them (enclave-only tasks need a TEE); every \
             one would fail with NoSecurePlacement at dispatch"
        };
        aggregate(&self.stranded, Severity::Error, fate);
    }
}

impl CheckpointScan {
    /// One finding naming every undeclared live region.
    fn aggregate(&self, out: &mut Vec<Diagnostic>) {
        let Some(&first) = self.undeclared.first() else {
            return;
        };
        out.push(Diagnostic {
            lint: LintId::CheckpointClosure,
            severity: Severity::Warn,
            tasks: Vec::new(),
            message: format!(
                "{} region(s) (first: {first:?}) can be live at a checkpoint but have \
                 no declared size; their checkpoint volume is priced as zero bytes",
                self.undeclared.len()
            ),
            regions: self.undeclared.clone(),
            path: Vec::new(),
        });
    }
}

/// Task `t`'s declarations, each beside its region slot.
fn declarations(
    g: &TaskGraph,
    t: TaskId,
) -> impl Iterator<Item = (RegionId, AccessMode, usize)> + '_ {
    let slots = g.access_slots(t).expect("id in range");
    g.accesses(t)
        .expect("id in range")
        .iter()
        .zip(slots)
        .map(|(&(region, mode), &slot)| (region, mode, slot as usize))
}

/// A placement-feasibility finding about `tasks`.
fn finding(severity: Severity, tasks: Vec<TaskId>, message: String) -> Diagnostic {
    Diagnostic {
        lint: LintId::PlacementFeasibility,
        severity,
        tasks,
        regions: Vec::new(),
        path: Vec::new(),
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{ChurnConfig, ChurnEvent, ChurnTrace};
    use crate::config::EngineConfig;
    use crate::energy::EnergyConfig;
    use crate::runtime::Runtime;
    use crate::scheduler::Policy;
    use legato_core::graph::TaskGraph;
    use legato_core::requirements::{Criticality, Requirements};
    use legato_core::task::{TaskDescriptor, Work};
    use legato_core::units::{Bytes, Seconds};
    use legato_hw::device::{Device, DeviceId, DeviceSpec};
    use legato_workloads::fleets;
    use std::collections::HashMap;

    /// Lint `graph` on a one-device fleet, with `region_sizes` declared
    /// when resilience would price checkpoints with them.
    fn lint(graph: &TaskGraph, region_sizes: Option<&RegionSizes>) -> AnalysisReport {
        let classes = SpecClasses::new(&[Device::new(DeviceId(0), DeviceSpec::xeon_x86())]);
        let mut state = AnalysisState::default();
        state.extend(&AnalysisContext {
            graph,
            classes: &classes,
            churn: None,
            objective: None,
            region_sizes,
        });
        state.report().expect("folded once")
    }

    /// `Runtime::analyze` over `tasks` (each writing its own region) on
    /// a runtime built from `specs` and an optional energy config.
    fn analyze_on(
        specs: Vec<DeviceSpec>,
        energy: Option<EnergyConfig>,
        tasks: Vec<TaskDescriptor>,
    ) -> AnalysisReport {
        let mut config = EngineConfig::new().with_devices(specs);
        if let Some(energy) = energy {
            config = config.with_energy(energy);
        }
        let mut rt = config.build().expect("valid config");
        for (r, task) in tasks.into_iter().enumerate() {
            rt.submit(task, [(r as u64, AccessMode::Out)]);
        }
        rt.analyze()
    }

    fn desc(name: &'static str) -> TaskDescriptor {
        TaskDescriptor::named(name)
    }

    fn secure(name: &'static str, level: SecurityLevel) -> TaskDescriptor {
        desc(name).with_requirements(Requirements::new().with_security(level))
    }

    fn only(report: &AnalysisReport, lint: LintId) -> Vec<&Diagnostic> {
        report
            .diagnostics
            .iter()
            .filter(|d| d.lint == lint)
            .collect()
    }

    // --- region race ---

    #[test]
    fn race_unordered_writers_are_reported_with_witnesses() {
        let mut g = TaskGraph::new();
        let a = g
            .add_task_with_deps(desc("a"), [(0u64, AccessMode::Out)], &[])
            .unwrap();
        let b = g
            .add_task_with_deps(desc("b"), [(0u64, AccessMode::Out)], &[])
            .unwrap();
        let report = lint(&g, None);
        let races = only(&report, LintId::RegionRace);
        assert_eq!(races.len(), 1, "{report}");
        assert_eq!(races[0].severity, Severity::Error);
        assert_eq!(races[0].tasks, vec![a, b]);
        assert_eq!(races[0].regions, vec![RegionId(0)]);
        assert!(report.has_errors());
    }

    #[test]
    fn race_unordered_writer_against_reader_is_reported() {
        let mut g = TaskGraph::new();
        let a = g
            .add_task_with_deps(desc("w"), [(0u64, AccessMode::Out)], &[])
            .unwrap();
        let r = g
            .add_task_with_deps(desc("r"), [(0u64, AccessMode::In)], &[a])
            .unwrap();
        // A second writer ordered against `a` (explicit dep) but not
        // against the reader: a write-after-read race.
        let w2 = g
            .add_task_with_deps(desc("w2"), [(0u64, AccessMode::Out)], &[a])
            .unwrap();
        let report = lint(&g, None);
        let races = only(&report, LintId::RegionRace);
        assert_eq!(races.len(), 1, "{report}");
        assert_eq!(races[0].tasks, vec![r, w2]);
    }

    #[test]
    fn race_inference_built_graph_is_clean() {
        let mut g = TaskGraph::new();
        g.add_task(desc("p"), [(0u64, AccessMode::Out)]);
        g.add_task(desc("c1"), [(0u64, AccessMode::In)]);
        g.add_task(desc("c2"), [(0u64, AccessMode::In)]);
        g.add_task(desc("w"), [(0u64, AccessMode::InOut)]);
        let report = lint(&g, None);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.tasks_analyzed, 4);
    }

    #[test]
    fn race_transitive_ordering_needs_no_direct_edge() {
        // a writes R0, c writes R0; the only path is a -> b -> c through
        // explicit deps — phase 2 (the closure) must prove it.
        let mut g = TaskGraph::new();
        let a = g
            .add_task_with_deps(desc("a"), [(0u64, AccessMode::Out)], &[])
            .unwrap();
        let b = g
            .add_task_with_deps(desc("b"), [(1u64, AccessMode::Out)], &[a])
            .unwrap();
        let _c = g
            .add_task_with_deps(desc("c"), [(0u64, AccessMode::Out)], &[b])
            .unwrap();
        let report = lint(&g, None);
        assert!(only(&report, LintId::RegionRace).is_empty(), "{report}");
    }

    // --- confidential flow ---

    #[test]
    fn flow_enclave_taint_reaching_public_reader_is_an_error() {
        let mut g = TaskGraph::new();
        let w = g.add_task(
            secure("classify", SecurityLevel::Enclave),
            [(0u64, AccessMode::Out)],
        );
        let r = g.add_task(
            secure("log", SecurityLevel::Public),
            [(0u64, AccessMode::In)],
        );
        let report = lint(&g, None);
        let flows = only(&report, LintId::ConfidentialFlow);
        assert_eq!(flows.len(), 1, "{report}");
        assert_eq!(flows[0].severity, Severity::Error);
        assert_eq!(flows[0].tasks, vec![w, r]);
        assert_eq!(flows[0].path, vec![w, r]);
    }

    #[test]
    fn flow_taint_propagates_through_intermediate_writers() {
        // enclave -> confidential relay -> public: the relay reads
        // enclave data (allowed downward? no — Confidential < Enclave,
        // flagged) and re-writes it, so the public reader sees
        // enclave-tainted data with the full chain as evidence.
        let mut g = TaskGraph::new();
        let w = g.add_task(
            secure("produce", SecurityLevel::Enclave),
            [(0u64, AccessMode::Out)],
        );
        let relay = g.add_task(
            secure("relay", SecurityLevel::Confidential),
            [(0u64, AccessMode::In), (1u64, AccessMode::Out)],
        );
        let r = g.add_task(
            secure("sink", SecurityLevel::Public),
            [(1u64, AccessMode::In)],
        );
        let report = lint(&g, None);
        let flows = only(&report, LintId::ConfidentialFlow);
        // Two findings: the relay itself reads above its level, and the
        // sink reads the relayed taint.
        assert_eq!(flows.len(), 2, "{report}");
        let sink = flows
            .iter()
            .find(|d| d.tasks.contains(&r))
            .expect("sink flagged");
        assert_eq!(sink.path, vec![w, relay, r]);
        assert_eq!(sink.tasks, vec![w, r]);
    }

    #[test]
    fn flow_confidential_to_public_is_a_warning_not_an_error() {
        let mut g = TaskGraph::new();
        g.add_task(
            secure("produce", SecurityLevel::Confidential),
            [(0u64, AccessMode::Out)],
        );
        g.add_task(
            secure("sink", SecurityLevel::Public),
            [(0u64, AccessMode::In)],
        );
        let report = lint(&g, None);
        let flows = only(&report, LintId::ConfidentialFlow);
        assert_eq!(flows.len(), 1, "{report}");
        assert_eq!(flows[0].severity, Severity::Warn);
        assert!(!report.has_errors());
    }

    #[test]
    fn flow_level_respecting_graph_is_clean() {
        let mut g = TaskGraph::new();
        g.add_task(
            secure("produce", SecurityLevel::Enclave),
            [(0u64, AccessMode::Out)],
        );
        g.add_task(
            secure("consume", SecurityLevel::Enclave),
            [(0u64, AccessMode::In)],
        );
        // Public work on untainted regions is unaffected.
        g.add_task(
            secure("other", SecurityLevel::Public),
            [(1u64, AccessMode::Out)],
        );
        let report = lint(&g, None);
        assert!(
            only(&report, LintId::ConfidentialFlow).is_empty(),
            "{report}"
        );
    }

    #[test]
    fn flow_public_overwrite_clears_the_taint() {
        let mut g = TaskGraph::new();
        g.add_task(
            secure("produce", SecurityLevel::Enclave),
            [(0u64, AccessMode::Out)],
        );
        // Out (not InOut): overwrites without reading, so no violation
        // and the region is publicly rewritten from here on.
        g.add_task(
            secure("reset", SecurityLevel::Public),
            [(0u64, AccessMode::Out)],
        );
        g.add_task(
            secure("sink", SecurityLevel::Public),
            [(0u64, AccessMode::In)],
        );
        let report = lint(&g, None);
        assert!(
            only(&report, LintId::ConfidentialFlow).is_empty(),
            "{report}"
        );
    }

    // --- placement feasibility ---

    #[test]
    fn feasibility_enclave_tasks_on_tee_less_fleet_is_an_error() {
        let report = analyze_on(
            vec![DeviceSpec::gtx1080(), DeviceSpec::fpga_kintex()],
            None,
            vec![secure("sgx", SecurityLevel::Enclave)],
        );
        let feas = only(&report, LintId::PlacementFeasibility);
        assert_eq!(feas.len(), 1, "{report}");
        assert_eq!(feas[0].severity, Severity::Error);
        assert_eq!(feas[0].tasks, vec![TaskId(0)]);
        assert!(feas[0].message.contains("NoSecurePlacement"), "{}", feas[0]);
    }

    #[test]
    fn feasibility_enclave_task_with_a_tee_device_is_clean() {
        let report = analyze_on(
            vec![DeviceSpec::gtx1080(), DeviceSpec::xeon_x86()],
            None,
            vec![secure("sgx", SecurityLevel::Enclave)],
        );
        assert!(
            only(&report, LintId::PlacementFeasibility).is_empty(),
            "{report}"
        );
    }

    #[test]
    fn feasibility_replica_demand_above_tee_pool_warns() {
        let report = analyze_on(
            vec![DeviceSpec::xeon_x86(), DeviceSpec::gtx1080()],
            None,
            vec![desc("critical").with_requirements(
                Requirements::new()
                    .with_security(SecurityLevel::Enclave)
                    .with_criticality(Criticality::Critical),
            )],
        );
        let feas = only(&report, LintId::PlacementFeasibility);
        assert_eq!(feas.len(), 1, "{report}");
        assert_eq!(feas[0].severity, Severity::Warn);
        assert!(feas[0].message.contains("replica"), "{}", feas[0]);
    }

    #[test]
    fn feasibility_unreachable_makespan_bound_warns() {
        let report = analyze_on(
            vec![DeviceSpec::xeon_x86()],
            Some(EnergyConfig::new().with_makespan_bound(Seconds(1.0e-3))),
            vec![desc("heavy").with_work(Work::flops(1.0e15))],
        );
        let feas = only(&report, LintId::PlacementFeasibility);
        assert_eq!(feas.len(), 1, "{report}");
        assert_eq!(feas[0].severity, Severity::Warn);
        assert!(feas[0].message.contains("bound"), "{}", feas[0]);
    }

    #[test]
    fn feasibility_bound_for_an_enclave_task_uses_the_fastest_tee_device() {
        // The GPU is the fleet's fastest device but has no TEE; the bound
        // sits between its time and the x86's, so only a task the GPU may
        // run meets it.
        let work = Work::flops(1.0e12);
        let (gpu, x86) = (DeviceSpec::gtx1080(), DeviceSpec::xeon_x86());
        let kind = desc("probe").kind;
        let (fast, tee) = (gpu.time_for(work, kind), x86.time_for(work, kind));
        assert!(fast < tee && !gpu.tee.has_enclave() && x86.tee.has_enclave());
        let bound = Seconds((fast.0 + tee.0) / 2.0);
        let verdict = |level: SecurityLevel| {
            analyze_on(
                vec![gpu.clone(), x86.clone()],
                Some(EnergyConfig::new().with_makespan_bound(bound)),
                vec![secure("t", level).with_work(work)],
            )
        };
        let public = verdict(SecurityLevel::Public);
        assert!(
            only(&public, LintId::PlacementFeasibility).is_empty(),
            "{public}"
        );
        let enclave = verdict(SecurityLevel::Enclave);
        let feas = only(&enclave, LintId::PlacementFeasibility);
        assert_eq!(feas.len(), 1, "{enclave}");
        assert_eq!(feas[0].severity, Severity::Warn);
        let secs = format!("{:.3}s", tee.0);
        assert!(feas[0].message.contains(&secs), "{}", feas[0]);
    }

    #[test]
    fn feasibility_unreachable_power_cap_warns_once() {
        let report = analyze_on(
            vec![DeviceSpec::xeon_x86(), DeviceSpec::gtx1080()],
            Some(EnergyConfig::new().with_power_cap(Watt(1.0))),
            vec![desc("a"), desc("b")],
        );
        let feas = only(&report, LintId::PlacementFeasibility);
        assert_eq!(
            feas.len(),
            1,
            "one warning naming every task, not one per task: {report}"
        );
        assert_eq!(feas[0].tasks, vec![TaskId(0), TaskId(1)]);
        assert!(feas[0].message.contains("power"), "{}", feas[0]);
    }

    // --- checkpoint closure ---

    #[test]
    fn checkpoint_closed_set_is_clean_and_lint_is_inert_without_resilience() {
        // A chain with every live region declared: the frontier the
        // engine checkpoints is closed by construction and fully priced.
        let mut g = TaskGraph::new();
        g.add_task(desc("raw"), [(0u64, AccessMode::Out)]);
        g.add_task(desc("model"), [(0u64, AccessMode::In)]);
        let sizes = HashMap::from([(RegionId(0), Bytes::mib(10))]);
        let report = lint(&g, Some(&sizes));
        assert!(
            only(&report, LintId::CheckpointClosure).is_empty(),
            "{report}"
        );

        // Without resilience (no sizes in the context) nothing is a
        // finding: nothing will ever checkpoint.
        let report = lint(&g, None);
        assert!(
            only(&report, LintId::CheckpointClosure).is_empty(),
            "{report}"
        );
    }

    #[test]
    fn checkpoint_partial_region_sizes_warn() {
        let mut g = TaskGraph::new();
        g.add_task(
            desc("p"),
            [(0u64, AccessMode::Out), (1u64, AccessMode::Out)],
        );
        g.add_task(desc("c"), [(0u64, AccessMode::In), (1u64, AccessMode::In)]);
        // R0 declared, R1 (also live across the edge) missing.
        let sizes = HashMap::from([(RegionId(0), Bytes::mib(10))]);
        let report = lint(&g, Some(&sizes));
        let cks = only(&report, LintId::CheckpointClosure);
        assert_eq!(cks.len(), 1, "{report}");
        assert_eq!(cks[0].severity, Severity::Warn);
        assert_eq!(cks[0].regions, vec![RegionId(1)]);
    }

    // --- the fold ---

    /// Stream `n` pairs of one `submit` and one `step` into `config`
    /// (with analysis on), and return the tasks folded per lint plus
    /// how many tasks had been folded when the fleet epoch moved.
    fn stream(config: EngineConfig, n: usize) -> ([usize; 4], Option<usize>) {
        let mut rt: Runtime = config
            .with_devices(fleets::reference())
            .with_policy(Policy::Performance)
            .with_analysis(AnalysisConfig::new())
            .build()
            .expect("valid config");
        let epoch = |rt: &Runtime| rt.churn.as_ref().map_or(0, |c| c.epoch);
        let mut moved_at = None;
        for i in 0..n {
            rt.submit(
                desc("t").with_work(Work::flops(1e9)),
                [((i % 64) as u64, AccessMode::InOut)],
            );
            let before = epoch(&rt);
            rt.step().expect("clean stream");
            if epoch(&rt) != before {
                assert!(moved_at.is_none(), "one fleet change expected");
                moved_at = Some(rt.graph.len());
            }
        }
        (rt.analysis.expect("analysis on").visits, moved_at)
    }

    #[test]
    fn a_stream_folds_each_task_once_per_lint() {
        let n = 4096;
        // Checkpoint closure runs only with resilience on.
        let (visits, _) = stream(EngineConfig::new(), n);
        assert_eq!(visits, [n, n, n, 0]);
    }

    #[test]
    fn a_fleet_change_refolds_feasibility_once() {
        let n = 4096;
        let arrival = ChurnEvent {
            // The stream covers ~0.5 s of virtual time.
            at: Seconds(0.25),
            kind: ChurnEventKind::Arrival {
                spec: DeviceSpec::xeon_x86(),
                pool: None,
                fault_prob: 0.0,
            },
        };
        let churn = ChurnConfig::new(ChurnTrace::from_events(vec![arrival]));
        let (visits, moved_at) = stream(EngineConfig::new().with_churn(churn), n);
        let folded = moved_at.expect("the arrival lands inside the stream");
        assert!(folded > 1 && folded < n, "{folded}");
        // The next entry re-folds the tasks folded before the arrival.
        assert_eq!(visits, [n, n, n + folded, 0]);
    }

    // --- report plumbing ---

    #[test]
    fn report_renders_severity_lint_and_counts() {
        let mut g = TaskGraph::new();
        g.add_task_with_deps(desc("a"), [(0u64, AccessMode::Out)], &[])
            .unwrap();
        g.add_task_with_deps(desc("b"), [(0u64, AccessMode::Out)], &[])
            .unwrap();
        let report = lint(&g, None);
        let text = report.to_string();
        assert!(text.contains("error[region-race]"), "{text}");
        assert!(text.contains("1 error(s)"), "{text}");
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 0);
    }
}
