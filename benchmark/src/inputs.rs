//! Generated inputs: a task stream as compact parallel arrays.
//!
//! Set-up turns the seed into these arrays once; a rep only reads them,
//! building each `TaskDescriptor` at submission time the way an
//! application would. The simulator never sees the seed itself (apart
//! from the engine seed, which is an input like any other).

use legato_core::graph::{GraphBuilder, TaskGraph};
use legato_core::requirements::{Criticality, Requirements, SecurityLevel};
use legato_core::task::{AccessMode, TaskDescriptor, TaskKind, Work};
use legato_runtime::Runtime;
use rand::rngs::SmallRng;
use rand::Rng;

/// Region carrying a wide graph's scatter output.
const SCATTER_REGION: u64 = 0;
/// First chain region of a wide graph (one private region per chain).
const CHAIN_REGION_BASE: u64 = 1;

/// How a workload hands its tasks to the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitPath {
    /// One `GraphBuilder` + `reserve` + `submit_batch`.
    Batch,
    /// One `submit` per task.
    PerTask,
}

/// One task stream: per-task work, kind and security level, one
/// criticality for the whole stream, and the region accesses in
/// compressed-row form (`acc_off[i]..acc_off[i + 1]` indexes `acc`).
#[derive(Debug, Clone)]
pub struct TaskList {
    work: Vec<f64>,
    kind: Vec<TaskKind>,
    level: Vec<SecurityLevel>,
    criticality: Criticality,
    acc_off: Vec<u32>,
    acc: Vec<(u64, AccessMode)>,
    regions: usize,
}

impl TaskList {
    fn with_capacity(tasks: usize, criticality: Criticality) -> Self {
        let mut acc_off = Vec::with_capacity(tasks + 1);
        acc_off.push(0);
        TaskList {
            work: Vec::with_capacity(tasks),
            kind: Vec::with_capacity(tasks),
            level: Vec::with_capacity(tasks),
            criticality,
            acc_off,
            acc: Vec::with_capacity(tasks + 1),
            regions: 0,
        }
    }

    fn push(
        &mut self,
        work: f64,
        kind: TaskKind,
        level: SecurityLevel,
        accesses: impl IntoIterator<Item = (u64, AccessMode)>,
    ) {
        self.work.push(work);
        self.kind.push(kind);
        self.level.push(level);
        self.acc.extend(accesses);
        self.acc_off.push(self.acc.len() as u32);
    }

    /// `chains` independent `InOut` chains of `depth` tasks, submitted
    /// layer by layer (task `i` belongs to chain `i % chains`), each task
    /// with work drawn from `work`.
    pub fn chains(chains: usize, depth: usize, rng: &mut SmallRng, work: (f64, f64)) -> Self {
        let mut list = TaskList::with_capacity(chains * depth, Criticality::Normal);
        for i in 0..chains * depth {
            list.push(
                rng.gen_range(work.0..work.1),
                TaskKind::Compute,
                SecurityLevel::Public,
                [((i % chains) as u64, AccessMode::InOut)],
            );
        }
        list.regions = chains;
        list
    }

    /// Scatter → one `InOut` chain per entry of `depths` → gather, chain
    /// by chain. A quarter of the chain tasks are `Inference` when
    /// `mixed_kinds`; chain `c` (and the gather, if any chain is) runs
    /// at `levels[c]`.
    pub fn wide(
        depths: &[usize],
        levels: &[SecurityLevel],
        criticality: Criticality,
        mixed_kinds: bool,
        rng: &mut SmallRng,
        work: (f64, f64),
    ) -> Self {
        let tasks: usize = depths.iter().sum::<usize>() + 2;
        let mut list = TaskList::with_capacity(tasks, criticality);
        list.push(
            1e9,
            TaskKind::Compute,
            SecurityLevel::Public,
            [(SCATTER_REGION, AccessMode::Out)],
        );
        for (c, &depth) in depths.iter().enumerate() {
            let region = CHAIN_REGION_BASE + c as u64;
            for d in 0..depth {
                let kind = if mixed_kinds && (c + d) % 4 == 0 {
                    TaskKind::Inference
                } else {
                    TaskKind::Compute
                };
                let root = (d == 0).then_some((SCATTER_REGION, AccessMode::In));
                list.push(
                    rng.gen_range(work.0..work.1),
                    kind,
                    levels[c],
                    std::iter::once((region, AccessMode::InOut)).chain(root),
                );
            }
        }
        // The gather reads every chain's region, so it runs at the
        // highest level any chain wrote at (the confidentiality lattice).
        let top = levels.iter().copied().max().unwrap_or_default();
        list.push(
            1e9,
            TaskKind::Compute,
            top,
            (0..depths.len() as u64).map(|c| (CHAIN_REGION_BASE + c, AccessMode::In)),
        );
        list.regions = depths.len() + 1;
        list
    }

    /// A stream with explicit accesses, used to mirror what a service
    /// dispatched into a bare runtime.
    pub fn from_stream(stream: impl IntoIterator<Item = (f64, SecurityLevel, u64)>) -> Self {
        let mut list = TaskList::with_capacity(0, Criticality::Normal);
        let mut regions = std::collections::BTreeSet::new();
        for (work, level, region) in stream {
            regions.insert(region);
            list.push(
                work,
                TaskKind::Compute,
                level,
                [(region, AccessMode::InOut)],
            );
        }
        list.regions = regions.len();
        list
    }

    pub fn len(&self) -> usize {
        self.work.len()
    }

    /// Regions of a wide graph (`0..regions()`), for size declarations.
    pub fn regions(&self) -> usize {
        self.regions
    }

    pub fn work(&self, i: usize) -> Work {
        Work::flops(self.work[i])
    }

    pub fn kind(&self, i: usize) -> TaskKind {
        self.kind[i]
    }

    pub fn descriptor(&self, i: usize) -> TaskDescriptor {
        TaskDescriptor::named("t")
            .with_kind(self.kind[i])
            .with_work(self.work(i))
            .with_requirements(
                Requirements::new()
                    .with_criticality(self.criticality)
                    .with_security(self.level[i]),
            )
    }

    pub fn accesses(&self, i: usize) -> impl Iterator<Item = (u64, AccessMode)> + '_ {
        self.acc[self.acc_off[i] as usize..self.acc_off[i + 1] as usize]
            .iter()
            .copied()
    }

    fn builder(&self) -> GraphBuilder {
        let mut b = GraphBuilder::with_capacity(self.len(), self.acc.len())
            .with_region_capacity(self.regions);
        for i in 0..self.len() {
            b.task(self.descriptor(i), self.accesses(i));
        }
        b
    }

    /// Descriptor construction + submission, on the given path.
    pub fn submit(&self, rt: &mut Runtime, path: SubmitPath) {
        match path {
            SubmitPath::Batch => {
                let b = self.builder();
                rt.reserve(self.len(), self.acc.len());
                rt.submit_batch(b);
            }
            SubmitPath::PerTask => self.submit_range(rt, 0..self.len()),
        }
    }

    /// Per-task submission of a contiguous part of the stream.
    pub fn submit_range(&self, rt: &mut Runtime, range: std::ops::Range<usize>) {
        for i in range {
            rt.submit(self.descriptor(i), self.accesses(i));
        }
    }

    /// The same stream as a bare graph, no engine around it.
    pub fn graph(&self, path: SubmitPath) -> TaskGraph {
        match path {
            SubmitPath::Batch => self.builder().build(),
            SubmitPath::PerTask => {
                let mut g = TaskGraph::new();
                for i in 0..self.len() {
                    g.add_task(self.descriptor(i), self.accesses(i));
                }
                g
            }
        }
    }
}
