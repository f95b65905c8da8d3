//! Chaos properties pinning the malleability (churn) layer.
//!
//! Four contracts:
//!
//! * **Zero churn costs zero** — a runtime built with churn armed but an
//!   empty trace produces a *bit-identical* report (schedule, energy,
//!   stats, rollback trace) to a runtime that never heard of churn. The
//!   malleability layer is pay-for-what-you-use.
//! * **Determinism under churn** — the same seed (engine and trace alike)
//!   replays the same fleet changes against the same schedule:
//!   bit-identical reports and rollback traces, crashes included.
//! * **Completion or clean refusal** — whatever the trace does to the
//!   fleet, the run loop terminates, every error is a typed refusal
//!   (an expired deferral), and the final report accounts for each
//!   submitted task at most once — never both placed and failed.
//! * **Pooled ≡ one-pool under churn** — crash migrations take the same
//!   launcher as every other attempt, so with a pool configuration they
//!   reach the pruning search: same report as without pools, never more
//!   placement evaluations — also when an arrival brings a spec the
//!   build-time fleet lacks and the search opens a class tree mid-run.

mod common;

use common::gen::{self, ChainSpec};
use legato_core::units::{Bytes, Seconds};
use legato_hw::device::DeviceSpec;
use legato_runtime::{
    ChurnConfig, ChurnEvent, ChurnEventKind, ChurnTrace, EngineConfig, PoolConfig, Runtime,
};
use legato_workloads::region_sizes;
use proptest::prelude::*;

fn config(
    seed: u64,
    resilient: bool,
    churn: Option<ChurnConfig>,
    chains: &ChainSpec,
) -> EngineConfig {
    let mut cfg = gen::config(seed).with_region_sizes(region_sizes(chains.len(), Bytes::mib(16)));
    if resilient {
        cfg = cfg.with_resilience(gen::checkpointing());
    }
    if let Some(churn) = churn {
        cfg = cfg.with_churn(churn);
    }
    cfg
}

fn runtime(seed: u64, resilient: bool, churn: Option<ChurnConfig>, chains: &ChainSpec) -> Runtime {
    gen::faulty(config(seed, resilient, churn, chains))
}

proptest! {
    /// Churn armed with an empty trace is bit-identical to no churn at
    /// all: same placements, makespan, energy, stats and rollback trace,
    /// and the churn stats stay all-zero.
    #[test]
    fn zero_churn_runs_are_bit_identical_to_churn_free_runs(
        chains in gen::chains_strategy(),
        seed in 0u64..300,
        resilient in any::<bool>(),
    ) {
        let mut plain = runtime(seed, resilient, None, &chains);
        gen::submit(&mut plain, &chains, gen::public);
        let plain_report = plain.run().expect("devices present");

        let churn = ChurnConfig::new(ChurnTrace::new());
        let mut armed = runtime(seed, resilient, Some(churn), &chains);
        gen::submit(&mut armed, &chains, gen::public);
        let mut armed_report = armed.run().expect("devices present");

        let churn_stats = armed_report.churn.take().expect("churn was configured");
        prop_assert_eq!(churn_stats, Default::default());
        prop_assert_eq!(&armed_report, &plain_report);
        prop_assert_eq!(armed.rollback_trace(), plain.rollback_trace());
    }

    /// Equal seeds replay equal fleets: seeded churn traces (arrivals,
    /// drains and crashes alike) over random graphs yield bit-identical
    /// reports, refusal lists and rollback traces.
    #[test]
    fn equal_seeds_yield_bit_identical_churn_runs(
        chains in gen::chains_strategy(),
        seed in 0u64..300,
        trace_seed in 0u64..300,
        events in 0usize..8,
        crash_fraction in 0.0f64..1.0,
        resilient in any::<bool>(),
    ) {
        let run = |()| {
            let trace = ChurnTrace::seeded(
                trace_seed,
                gen::devices().len(),
                Seconds(60.0),
                events,
                &gen::devices(),
                crash_fraction,
            );
            let mut rt = runtime(seed, resilient, Some(ChurnConfig::new(trace)), &chains);
            gen::submit(&mut rt, &chains, gen::public);
            let (report, refused) = gen::run_past_expiries(&mut rt);
            (report, refused, rt.rollback_trace().to_vec())
        };
        let (a, refused_a, trace_a) = run(());
        let (b, refused_b, trace_b) = run(());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(refused_a, refused_b);
        prop_assert_eq!(trace_a, trace_b);
    }

    /// Whatever the churn does, the run terminates and the books
    /// balance: placements are strictly sorted, each task is placed or
    /// failed at most once (never both), and together they never exceed
    /// the submitted graph.
    #[test]
    fn churn_runs_complete_or_refuse_cleanly(
        chains in gen::chains_strategy(),
        seed in 0u64..300,
        trace_seed in 0u64..300,
        events in 0usize..8,
        crash_fraction in 0.0f64..1.0,
        resilient in any::<bool>(),
    ) {
        let trace = ChurnTrace::seeded(
            trace_seed,
            gen::devices().len(),
            Seconds(60.0),
            events,
            &gen::devices(),
            crash_fraction,
        );
        let mut rt = runtime(seed, resilient, Some(ChurnConfig::new(trace)), &chains);
        gen::submit(&mut rt, &chains, gen::public);
        let (report, refused) = gen::run_past_expiries(&mut rt);

        let total: usize = chains.iter().map(Vec::len).sum();
        for pair in report.placements.to_vec().windows(2) {
            prop_assert!(pair[0].task < pair[1].task, "placements sorted by task");
        }
        for f in &report.failed {
            prop_assert!(
                report.placements.iter().all(|p| p.task != *f),
                "task {} both placed and failed", f
            );
        }
        prop_assert!(report.placements.len() + report.failed.len() <= total);
        // Every typed refusal surfaced by the loop names a failed task.
        for t in &refused {
            prop_assert!(report.failed.contains(t));
        }
        let stats = report.churn.expect("churn was configured");
        prop_assert!(stats.crashes <= stats.departures);
    }

    /// Single-replica chains under a crash-heavy trace: attempts queued
    /// on a crashed device migrate through the pruning search when the
    /// fleet is pooled, and the shards grow and shrink underneath it —
    /// the report stays bit-identical to the one-pool run's, and pruning
    /// never evaluates more candidates than that run does.
    #[test]
    fn pooled_placement_stays_bit_identical_under_churn(
        // Many short chains, submitted as `Normal` tasks (one replica):
        // more ready tasks than devices, so attempts queue behind one
        // another and an early crash finds some to migrate.
        chains in gen::chains(1..4, 8..20),
        seed in 0u64..300,
        trace_seed in 0u64..300,
        events in 1usize..8,
        crash_fraction in 0.7f64..1.0,
        resilient in any::<bool>(),
    ) {
        let run = |pools: Option<PoolConfig>| {
            let trace = ChurnTrace::seeded(
                trace_seed,
                gen::devices().len(),
                Seconds(20.0),
                events,
                &gen::devices(),
                crash_fraction,
            );
            let mut cfg = config(seed, resilient, Some(ChurnConfig::new(trace)), &chains);
            if let Some(pools) = pools {
                cfg = cfg.with_pools(pools);
            }
            let mut rt = gen::faulty(cfg);
            gen::submit(&mut rt, &chains, gen::plain);
            let (report, refused) = gen::run_past_expiries(&mut rt);
            (report, refused, rt.placement_evals())
        };
        let (flat, flat_refused, flat_evals) = run(None);
        let (pooled, pooled_refused, pooled_evals) =
            run(Some(PoolConfig::uniform(gen::devices().len(), 2)));
        prop_assert_eq!(&pooled, &flat);
        prop_assert_eq!(pooled_refused, flat_refused);
        prop_assert!(
            pooled_evals <= flat_evals,
            "pooled search evaluated {} candidates, flat scan {}", pooled_evals, flat_evals
        );
    }

    /// An arrival of a spec no build-time device carries (a Jetson
    /// among x86, GPU and FPGA) opens a new spec class mid-run, and with
    /// it a new shard and class tree in the pruning search: the report
    /// stays bit-identical to the one-pool run's, and pruning never
    /// evaluates more candidates than that run does.
    #[test]
    fn pooled_placement_stays_bit_identical_when_a_new_class_arrives(
        chains in gen::chains(1..4, 8..20),
        seed in 0u64..300,
        trace_seed in 0u64..300,
        events in 0usize..6,
        arrive_at in 0.0f64..2.0,
        crash_fraction in 0.0f64..1.0,
        resilient in any::<bool>(),
    ) {
        let mut arrivals = gen::devices();
        arrivals.push(DeviceSpec::jetson_soc());
        let seeded = ChurnTrace::seeded(
            trace_seed,
            gen::devices().len(),
            Seconds(20.0),
            events,
            &arrivals,
            crash_fraction,
        );
        let mut trace = seeded.events().to_vec();
        trace.push(ChurnEvent {
            at: Seconds(arrive_at),
            kind: ChurnEventKind::Arrival {
                spec: DeviceSpec::jetson_soc(),
                pool: None,
                fault_prob: 0.0,
            },
        });
        let run = |pools: Option<PoolConfig>| {
            let churn = ChurnConfig::new(ChurnTrace::from_events(trace.clone()));
            let mut cfg = config(seed, resilient, Some(churn), &chains);
            if let Some(pools) = pools {
                cfg = cfg.with_pools(pools);
            }
            let mut rt = gen::faulty(cfg);
            gen::submit(&mut rt, &chains, gen::public);
            let (report, refused) = gen::run_past_expiries(&mut rt);
            (report, refused, rt.placement_evals())
        };
        let (flat, flat_refused, flat_evals) = run(None);
        let (pooled, pooled_refused, pooled_evals) =
            run(Some(PoolConfig::uniform(gen::devices().len(), 2)));
        prop_assert!(flat.churn.is_some_and(|c| c.arrivals >= 1), "the Jetson arrived");
        prop_assert_eq!(&pooled, &flat);
        prop_assert_eq!(pooled_refused, flat_refused);
        prop_assert!(
            pooled_evals <= flat_evals,
            "pooled search evaluated {} candidates, flat scan {}", pooled_evals, flat_evals
        );
    }
}
