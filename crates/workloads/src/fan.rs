//! The seeded fan: a scatter task fans out to independent dependency
//! chains, joined by a gather task. Every ≥ 1k-task experiment graph
//! (E8 wide/straggler, E9 fault injection, E10 churn and secure
//! offload, E11 energy frontier) is one [`Fan`].
//!
//! Region 0 carries the scatter's output; chain `c` serializes on its
//! private region `c + 1`, its root also reads region 0, and the gather
//! reads every chain region. Tasks are emitted scatter first, then
//! chain-major, then the gather — so task ids are `0`, `1..=Σdepth`,
//! `Σdepth + 1`.

use legato_core::requirements::{Criticality, Requirements, SecurityLevel};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskKind, Work};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Region carrying the scatter task's fan-out output.
const SCATTER_REGION: RegionId = RegionId(0);

/// How many tasks a chain holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// Exactly this many; consumes no random draw.
    Fixed(usize),
    /// One draw per chain from `lo..=hi`, taken before the chain's
    /// work draws.
    Uniform {
        /// Shallowest chain.
        lo: usize,
        /// Deepest chain.
        hi: usize,
    },
}

/// How much work each task of a chain carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkDraw {
    /// The same work for every task; consumes no random draw.
    Fixed(Work),
    /// One draw per task from `lo..hi` flops, in task order.
    Flops {
        /// Lightest task.
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
}

/// Which [`TaskKind`] each task of a chain gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kinds {
    /// Every task is this kind.
    All(TaskKind),
    /// Task `d` of the `c`-th chain (1-based) is `Inference` when
    /// `c + d` is a multiple of 4, `Compute` otherwise — a mix that
    /// gives the accelerators and the CPUs each something to win.
    InferenceEveryFourth,
}

/// One chain behind the scatter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chain {
    /// Task-type label shared by every task of the chain. Static, so a
    /// timed build pays no per-task name allocation; it is also the code
    /// image the security layer attests.
    pub name: &'static str,
    /// Tasks in the chain.
    pub depth: Depth,
    /// Work per task.
    pub work: WorkDraw,
    /// Kind per task.
    pub kinds: Kinds,
    /// Reliability level of every task (drives replication).
    pub criticality: Criticality,
    /// Confidentiality level of every task (drives enclave placement).
    pub security: SecurityLevel,
}

/// A scatter → chains → gather workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Fan {
    /// The chains, in submission order.
    pub chains: Vec<Chain>,
}

impl Fan {
    /// Saturating fan-out into `chains` uneven chains of mean `depth`
    /// (individual chains vary in `[depth/2, 2·depth]`). Devices
    /// saturate, so any greedy executor approaches the work-bound
    /// makespan; readiness-order placement still wins the tail. Earlier
    /// chains carry heavier work: committing in submission order books
    /// them far into the future before looking at later, lighter chains.
    #[must_use]
    pub fn wide(chains: usize, depth: usize) -> Self {
        let chain = |c: usize| {
            let scale = 1.0 + 4.0 * (chains - c) as f64 / chains as f64;
            Chain {
                name: "chain",
                depth: Depth::Uniform {
                    lo: (depth / 2).max(1),
                    hi: depth * 2,
                },
                work: WorkDraw::Flops {
                    lo: scale * 5e9,
                    hi: scale * 5e10,
                },
                kinds: Kinds::InferenceEveryFourth,
                criticality: Criticality::Normal,
                security: SecurityLevel::Public,
            }
        };
        Fan {
            chains: (0..chains).map(chain).collect(),
        }
    }

    /// Bulk chains *plus a few deep, thin chains submitted last*. A
    /// submission-order executor commits every bulk task's device window
    /// before it even looks at the thin chains' roots (ready since the
    /// scatter), serializing the stragglers behind the bulk; the engine
    /// interleaves them from the start. The stragglers' per-task work is
    /// big enough that parking them on the slowest device is never
    /// worthwhile — submission order has no escape hatch.
    #[must_use]
    pub fn straggler(
        bulk_chains: usize,
        bulk_depth: usize,
        thin_chains: usize,
        thin_depth: usize,
    ) -> Self {
        let bulk = Chain {
            name: "chain",
            depth: Depth::Fixed(bulk_depth),
            work: WorkDraw::Flops { lo: 2e10, hi: 2e11 },
            kinds: Kinds::InferenceEveryFourth,
            criticality: Criticality::Normal,
            security: SecurityLevel::Public,
        };
        let thin = Chain {
            depth: Depth::Fixed(thin_depth),
            work: WorkDraw::Flops {
                lo: 4.8e11,
                hi: 7.2e11,
            },
            kinds: Kinds::All(TaskKind::Compute),
            ..bulk
        };
        let mut chains = vec![bulk; bulk_chains];
        chains.resize(bulk_chains + thin_chains, thin);
        Fan { chains }
    }

    /// The reference saturating scenario (≥ 1k tasks across 64 chains).
    #[must_use]
    pub fn reference_wide() -> Self {
        Fan::wide(64, 17)
    }

    /// The reference straggler scenario (≥ 1k tasks; two 100-deep thin
    /// chains behind 40 bulk chains).
    #[must_use]
    pub fn reference_straggler() -> Self {
        Fan::straggler(40, 20, 2, 100)
    }

    /// `chains` compute chains of `depth` fixed-`work` tasks, every one
    /// reliability-`High` (dual replication), so device faults are
    /// detected rather than silent — the fault-injection and churn
    /// graph.
    #[must_use]
    pub fn replicated(chains: usize, depth: usize, work: Work) -> Self {
        let chain = Chain {
            name: "chain",
            depth: Depth::Fixed(depth),
            work: WorkDraw::Fixed(work),
            kinds: Kinds::All(TaskKind::Compute),
            criticality: Criticality::High,
            security: SecurityLevel::Public,
        };
        Fan {
            chains: vec![chain; chains],
        }
    }

    /// `chains` inference chains of `depth` fixed-`work` "stage" tasks,
    /// the first `confidential` of them enclave-only — the secure-offload
    /// graph.
    #[must_use]
    pub fn confidential(chains: usize, depth: usize, work: Work, confidential: usize) -> Self {
        let public = Chain {
            name: "stage",
            depth: Depth::Fixed(depth),
            work: WorkDraw::Fixed(work),
            kinds: Kinds::All(TaskKind::Inference),
            criticality: Criticality::Normal,
            security: SecurityLevel::Public,
        };
        let enclave = Chain {
            security: SecurityLevel::Enclave,
            ..public
        };
        let mut fan = vec![enclave; confidential.min(chains)];
        fan.resize(chains, public);
        Fan { chains: fan }
    }

    /// Regions the fan touches: the scatter's plus one per chain.
    #[must_use]
    pub fn regions(&self) -> usize {
        self.chains.len() + 1
    }

    /// Emit the fan into `sink` and return the number of tasks emitted.
    /// Deterministic per `seed`: draws happen chain by chain, the depth
    /// draw (if any) before the chain's per-task work draws.
    pub fn emit(
        &self,
        seed: u64,
        mut sink: impl FnMut(TaskDescriptor, &[(RegionId, AccessMode)]),
    ) -> usize {
        let mut rng = SmallRng::seed_from_u64(seed);
        sink(
            TaskDescriptor::named("scatter").with_work(Work::flops(1e9)),
            &[(SCATTER_REGION, AccessMode::Out)],
        );
        let mut tasks = 1;
        for (c, chain) in self.chains.iter().enumerate() {
            let accesses = [
                (RegionId(c as u64 + 1), AccessMode::InOut),
                (SCATTER_REGION, AccessMode::In),
            ];
            let depth = match chain.depth {
                Depth::Fixed(d) => d,
                Depth::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            };
            for d in 0..depth {
                let kind = match chain.kinds {
                    Kinds::All(kind) => kind,
                    Kinds::InferenceEveryFourth if (c + 1 + d).is_multiple_of(4) => {
                        TaskKind::Inference
                    }
                    Kinds::InferenceEveryFourth => TaskKind::Compute,
                };
                let work = match chain.work {
                    WorkDraw::Fixed(work) => work,
                    WorkDraw::Flops { lo, hi } => Work::flops(rng.gen_range(lo..hi)),
                };
                sink(
                    TaskDescriptor::named(chain.name)
                        .with_kind(kind)
                        .with_work(work)
                        .with_requirements(
                            Requirements::new()
                                .with_criticality(chain.criticality)
                                .with_security(chain.security),
                        ),
                    // Only the chain root reads the scatter output.
                    &accesses[..if d == 0 { 2 } else { 1 }],
                );
            }
            tasks += depth;
        }
        // The gather aggregates every chain's output, so information-flow
        // discipline requires it to run at the highest level it reads:
        // enclave-only whenever any chain is. (A Public gather over
        // enclave chains is a real leak — plaintext flowing into an
        // unprotected task — which the `confidential-flow` lint catches.)
        let level = self.chains.iter().map(|c| c.security).max();
        let gather: Vec<_> = (1..=self.chains.len() as u64)
            .map(|r| (RegionId(r), AccessMode::In))
            .collect();
        sink(
            TaskDescriptor::named("gather")
                .with_work(Work::flops(1e9))
                .with_requirements(Requirements::new().with_security(level.unwrap_or_default())),
            &gather,
        );
        tasks + 1
    }
}
