//! Class-priced interval plan ≡ per-device interval plan.
//!
//! [`per_device`] lists a task's candidates the way [`plan_interval`]
//! used to — one `time_for` + `energy_for` roofline per device, placed
//! over one estimate per device — kept here as the reference the
//! per-class pricing is compared against, `(interval, δ)` bit for bit.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::*;
use crate::scheduler::tests::{policy_strategy, random_fleet};
use legato_core::task::{AccessMode, TaskKind, Work};

fn per_device(
    res: &ResilienceState,
    regions: &RegionTable,
    devices: &[Device],
    policy: Policy,
    graph: &TaskGraph,
    op_fault_probs: &[f64],
) -> Result<(Seconds, Seconds), RuntimeError> {
    let fleet = devices.len();
    plan_interval_over(
        res,
        regions,
        fleet,
        policy,
        graph,
        op_fault_probs,
        |desc, out| {
            out.extend(devices.iter().map(|d| {
                Estimate::new(
                    d.spec.time_for(desc.work, desc.kind),
                    d.spec.energy_for(desc.work, desc.kind),
                )
            }));
        },
    )
}

proptest! {
    /// Fleets of 1–40 devices from ≤ 5 specs with duplicates and a
    /// singleton class, the six policies, random graphs (work, kind,
    /// chains over a few regions, partly declared sizes), with and
    /// without operating-point faults and under both strategies.
    #[test]
    fn per_class_plan_equals_the_per_device_plan(
        seed in any::<u64>(),
        policy in policy_strategy(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let devices = random_fleet(&mut rng);
        let mut graph = TaskGraph::new();
        for _ in 0..rng.gen_range(0..48) {
            let work = Work::new(rng.gen_range(1e8..1e12), Bytes::mib(rng.gen_range(0..256)));
            let kind = [TaskKind::Compute, TaskKind::Inference, TaskKind::Io][rng.gen_range(0..3)];
            let mode = [AccessMode::Out, AccessMode::InOut, AccessMode::In][rng.gen_range(0..3)];
            graph.add_task(
                TaskDescriptor::named("t").with_kind(kind).with_work(work),
                [(rng.gen_range(0..6u64), mode)],
            );
        }
        let sizes: Vec<Bytes> = (0..rng.gen_range(0..6))
            .map(|_| Bytes::mib(rng.gen_range(0..64)))
            .collect();
        let regions = RegionTable::sized(&sizes);
        let strategy = [legato_fti::Strategy::Async, legato_fti::Strategy::Initial][rng.gen_range(0..2)];
        let res = ResilienceState::new(
            ResilienceConfig::new(Seconds(rng.gen_range(1.0..1e5))).with_strategy(strategy),
        );
        // None (no energy layer), or one per device: zero on most rungs.
        let probs: Vec<f64> = (0..rng.gen_range(0..2) * devices.len())
            .map(|_| rng.gen_range(-0.4..0.2f64).max(0.0))
            .collect();
        let mut classes = SpecClasses::new(&devices);
        let got = plan_interval(&res, &regions, &devices, &mut classes, policy, &graph, &probs)
            .expect("a positive MTBF plans");
        let want = per_device(&res, &regions, &devices, policy, &graph, &probs)
            .expect("a positive MTBF plans");
        prop_assert_eq!(
            (got.0 .0.to_bits(), got.1 .0.to_bits()),
            (want.0 .0.to_bits(), want.1 .0.to_bits())
        );
    }
}
