//! Property and contract tests of the energy layer behind [`EngineConfig`].
//!
//! Three contracts pin the low-energy pillar's wiring into the engine:
//!
//! * **Pay-for-what-you-use** — an [`EngineConfig`] built without an
//!   [`EnergyConfig`] produces a runtime bit-identical to one built with
//!   the plain [`Runtime::new`] constructor: same report, no energy
//!   stats. The energy layer costs nothing until it is switched on.
//! * **The ladder is a real trade-off** — stepping every device down its
//!   default DVFS ladder never increases the run's total energy and
//!   never decreases its makespan on the same seeded graph. Derating is
//!   monotone, which is what makes a frontier sweep meaningful.
//! * **Determinism** — seeded energy-aware runs (Pareto objectives
//!   included) are bit-identical across repeats, [`EnergyStats`] and
//!   all. The objective only changes *which* device wins a placement,
//!   never introduces a nondeterministic choice.
//!
//! Deterministic unit tests then pin the two Pareto policies at the
//! placement level: a met makespan bound routes work to the cheaper
//! device, an infeasible bound falls back to min-finish and counts the
//! relaxation, and the power-cap objective mirrors both behaviours.
//!
//! [`EngineConfig`]: legato_runtime::EngineConfig
//! [`EnergyConfig`]: legato_runtime::EnergyConfig
//! [`EnergyStats`]: legato_runtime::EnergyStats

mod common;

use common::gen;
use legato_core::task::{AccessMode, TaskDescriptor, Work};
use legato_core::units::{Seconds, Watt};
use legato_hw::device::DeviceSpec;
use legato_runtime::{EnergyConfig, EngineConfig, Policy, Runtime};
use proptest::prelude::*;

proptest! {
    /// No [`EnergyConfig`] ⇒ the builder is a pure repackaging of
    /// `Runtime::new`: bit-identical report, and no energy stats.
    #[test]
    fn builder_without_energy_matches_runtime_new(
        chains in gen::chains_strategy(),
        seed in 0u64..300,
    ) {
        let mut plain = Runtime::new(gen::devices(), Policy::Performance, seed);
        gen::submit(&mut plain, &chains, gen::plain);
        let plain_report = plain.run().expect("devices present");

        let mut built = EngineConfig::new()
            .with_devices(gen::devices())
            .with_policy(Policy::Performance)
            .with_seed(seed)
            .build()
            .expect("valid engine config");
        gen::submit(&mut built, &chains, gen::plain);
        let built_report = built.run().expect("devices present");

        prop_assert!(built_report.energy.is_none());
        prop_assert_eq!(plain_report, built_report);
    }

    /// Stepping the whole device mix down the default ladder never
    /// increases total energy and never decreases makespan: eco rungs
    /// scale every device's power by the same factor and its speed by
    /// the same factor, so the schedule keeps its shape while the
    /// energy/time trade moves along the frontier.
    #[test]
    fn stepping_down_the_ladder_never_costs_energy_or_saves_time(
        chains in gen::chains_strategy(),
        seed in 0u64..300,
    ) {
        let run = |step: usize| {
            let mut rt = EngineConfig::new()
                .with_devices(gen::devices())
                .with_policy(Policy::Performance)
                .with_seed(seed)
                .with_energy(EnergyConfig::new().with_uniform_step(step))
                .build()
                .expect("default ladders carry three rungs");
            gen::submit(&mut rt, &chains, gen::plain);
            rt.run().expect("devices present")
        };
        let rungs = [run(0), run(1), run(2)];
        for pair in rungs.windows(2) {
            prop_assert!(
                pair[1].total_energy <= pair[0].total_energy,
                "deeper rung drew more energy: {} vs {}",
                pair[1].total_energy,
                pair[0].total_energy
            );
            prop_assert!(
                pair[1].makespan >= pair[0].makespan,
                "deeper rung finished sooner: {} vs {}",
                pair[1].makespan,
                pair[0].makespan
            );
        }
        // The energy layer was on, so every report carries stats.
        for rep in &rungs {
            prop_assert!(rep.energy.is_some());
        }
    }

    /// Seeded energy-aware runs are deterministic, Pareto objective and
    /// [`EnergyStats`] included — under an active fault model too.
    #[test]
    fn seeded_energy_objective_runs_are_deterministic(
        chains in gen::chains_strategy(),
        seed in 0u64..300,
        cap in any::<bool>(),
    ) {
        let run = || {
            let energy = if cap {
                EnergyConfig::new().with_uniform_step(1).with_power_cap(Watt(120.0))
            } else {
                EnergyConfig::new().with_uniform_step(1).with_makespan_bound(Seconds(30.0))
            };
            let mut rt = EngineConfig::new()
                .with_devices(gen::devices())
                .with_policy(Policy::Performance)
                .with_seed(seed)
                .with_max_retries(1)
                .with_energy(energy)
                .build()
                .expect("valid engine config");
            rt.set_fault_prob(1, 0.3);
            gen::submit(&mut rt, &chains, gen::plain);
            rt.run().expect("devices present")
        };
        let a = run();
        let b = run();
        prop_assert!(a.energy.is_some());
        prop_assert_eq!(a, b);
    }
}

/// Deterministic placement-level contracts of the two Pareto policies.
mod pareto {
    use super::*;

    /// Fast but power-hungry: 1 TFLOP/s at 200 W ⇒ a 1 TFLOP task costs
    /// one second and 200 J.
    fn fast_hot() -> DeviceSpec {
        let mut d = DeviceSpec::xeon_x86();
        d.name = "fast-hot".into();
        d.peak_flops = 1e12;
        d.busy_power = Watt(200.0);
        d.idle_power = Watt(20.0);
        d
    }

    /// Half the speed at a tenth of the draw: the same task costs two
    /// seconds and 40 J — slower but five times cheaper.
    fn slow_cool() -> DeviceSpec {
        let mut d = DeviceSpec::xeon_x86();
        d.name = "slow-cool".into();
        d.peak_flops = 5e11;
        d.busy_power = Watt(20.0);
        d.idle_power = Watt(2.0);
        d
    }

    fn one_task_run(energy: EnergyConfig) -> legato_runtime::RunReport {
        let mut rt = EngineConfig::new()
            .with_devices(vec![fast_hot(), slow_cool()])
            .with_policy(Policy::Performance)
            .with_seed(1)
            .with_energy(energy)
            .build()
            .expect("valid engine config");
        rt.submit(
            TaskDescriptor::named("t").with_work(Work::flops(1e12)),
            [(0u64, AccessMode::Out)],
        );
        rt.run().expect("devices present")
    }

    #[test]
    fn met_makespan_bound_picks_the_cheaper_device() {
        // Both devices finish inside 10 s, so the objective is free to
        // minimize energy: the slow-cool device (index 1) wins even
        // though fast-hot finishes first.
        let rep = one_task_run(EnergyConfig::new().with_makespan_bound(Seconds(10.0)));
        assert_eq!(rep.placements[0].devices.as_slice(), &[1]);
        assert_eq!(rep.energy.expect("energy layer on").bound_relaxations, 0);
    }

    #[test]
    fn tight_bound_forces_the_fast_device_without_relaxing() {
        // Only fast-hot meets 1.5 s; the objective stays feasible and
        // places there — no relaxation recorded.
        let rep = one_task_run(EnergyConfig::new().with_makespan_bound(Seconds(1.5)));
        assert_eq!(rep.placements[0].devices.as_slice(), &[0]);
        assert_eq!(rep.energy.expect("energy layer on").bound_relaxations, 0);
    }

    #[test]
    fn infeasible_bound_relaxes_to_min_finish_and_counts_it() {
        // Nobody meets 0.1 s: the scheduler falls back to the fastest
        // finish (fast-hot) and records the relaxation instead of
        // wedging the run.
        let rep = one_task_run(EnergyConfig::new().with_makespan_bound(Seconds(0.1)));
        assert_eq!(rep.placements[0].devices.as_slice(), &[0]);
        assert!(rep.energy.expect("energy layer on").bound_relaxations >= 1);
    }

    #[test]
    fn power_cap_steers_work_onto_capped_devices() {
        // A 100 W cap excludes fast-hot (200 W busy): the task lands on
        // slow-cool with no relaxation.
        let rep = one_task_run(EnergyConfig::new().with_power_cap(Watt(100.0)));
        assert_eq!(rep.placements[0].devices.as_slice(), &[1]);
        assert_eq!(rep.energy.expect("energy layer on").cap_relaxations, 0);
    }

    #[test]
    fn infeasible_cap_relaxes_to_min_power_and_counts_it() {
        // A 1 W cap excludes everything: fall back to the lowest-draw
        // device and count the relaxation.
        let rep = one_task_run(EnergyConfig::new().with_power_cap(Watt(1.0)));
        assert_eq!(rep.placements[0].devices.as_slice(), &[1]);
        assert!(rep.energy.expect("energy layer on").cap_relaxations >= 1);
    }

    #[test]
    fn min_energy_objective_undercuts_makespan_only_scheduling() {
        // A fan of independent tasks: makespan-only scheduling spreads
        // them for speed; the bounded min-energy objective packs the
        // cheap device as far as the bound allows, finishing within the
        // bound on strictly less energy.
        let build = |energy: Option<EnergyConfig>| {
            let mut cfg = EngineConfig::new()
                .with_devices(vec![fast_hot(), slow_cool()])
                .with_policy(Policy::Performance)
                .with_seed(3);
            if let Some(e) = energy {
                cfg = cfg.with_energy(e);
            }
            let mut rt = cfg.build().expect("valid engine config");
            for i in 0..8u64 {
                rt.submit(
                    TaskDescriptor::named(format!("t{i}")).with_work(Work::flops(1e12)),
                    [(i, AccessMode::Out)],
                );
            }
            rt.run().expect("devices present")
        };
        let fastest = build(None);
        let bound = Seconds(fastest.makespan.0 * 1.5);
        let frugal = build(Some(EnergyConfig::new().with_makespan_bound(bound)));
        assert!(
            frugal.makespan <= bound,
            "bound violated: {} > {bound}",
            frugal.makespan
        );
        assert!(
            frugal.busy_energy < fastest.busy_energy,
            "objective saved nothing: {} vs {}",
            frugal.busy_energy,
            fastest.busy_energy
        );
        assert_eq!(frugal.energy.expect("energy layer on").bound_relaxations, 0);
    }
}
