//! Tier-1 guard: a rollback costs what it discards, not the graph.
//!
//! Restoring a checkpoint used to rebuild every task's state and scan
//! every outcome slot, so a run that had long since checkpointed 16×
//! more work paid 16× more per rollback for discarding the same few
//! tasks. The graph now re-arms only the tasks that changed sides of
//! the frontier (and their waiting successors) and the engine reads only
//! the acceptance-log entries since the checkpoint; both count what they
//! touch ([`Runtime::rollback_visits`]) — a deterministic, timer-free
//! proxy for rollback cost — and this test pins two facts:
//!
//! * **Bounded by the discard** — each rollback visits at most
//!   (accepted since the checkpoint + in flight) × (1 + max out-degree).
//! * **Blind to the prefix** — the same tail of work behind a 16× longer
//!   checkpointed prefix costs exactly the same visits.

use legato_core::graph::TaskState;
use legato_core::requirements::{Criticality, Requirements};
use legato_core::task::{AccessMode, TaskDescriptor, TaskId, Work};
use legato_core::units::Seconds;
use legato_hw::device::DeviceSpec;
use legato_runtime::{EngineConfig, Policy, ResilienceConfig, Runtime};

const CHAINS: u64 = 8;
const TAIL_LINKS: u64 = 16;
const ROLLBACKS: u32 = 6;

fn link(flops: f64) -> TaskDescriptor {
    TaskDescriptor::named("link").with_work(Work::flops(flops))
}

/// `links` rounds of one single-replica task per chain (region = chain).
fn submit_links(rt: &mut Runtime, links: u64) {
    for _ in 0..links {
        for chain in 0..CHAINS {
            rt.submit(link(1e12), [(chain, AccessMode::InOut)]);
        }
    }
}

/// Run a prefix of `prefix_links` per chain to completion, then a tail
/// that cannot finish. Every device corrupts every execution, which a
/// single replica accepts silently and a dual one always detects, and
/// there is no retry budget: the tail's chains complete, the
/// dual-replica gather behind them rolls everything back to the prefix —
/// [`ROLLBACKS`] times, a straggler in flight each time — and then
/// fails. Returns the visits of each rollback.
fn visits_per_rollback(prefix_links: u64) -> Vec<u64> {
    let mut rt = EngineConfig::new()
        .with_devices(vec![DeviceSpec::xeon_x86(); 4])
        .with_policy(Policy::Performance)
        .with_seed(5)
        .with_max_retries(0)
        .with_resilience(ResilienceConfig::new(Seconds(1e12)).with_max_rollbacks(ROLLBACKS))
        .build()
        .expect("valid engine config");
    for d in 0..4 {
        rt.set_fault_prob(d, 1.0);
    }
    submit_links(&mut rt, prefix_links);
    let report = rt.run().expect("devices present");
    assert_eq!(report.placements.len() as u64, CHAINS * prefix_links);

    submit_links(&mut rt, TAIL_LINKS);
    rt.submit(link(1e15), [(CHAINS, AccessMode::InOut)]);
    let gather = rt.submit(
        link(1e12).with_requirements(Requirements::new().with_criticality(Criticality::High)),
        (0..CHAINS).map(|chain| (chain, AccessMode::In)),
    );
    let out_degree = |i| {
        rt.graph()
            .successors(TaskId(i as u64))
            .map_or(0, <[_]>::len)
    };
    let max_out_degree = (0..rt.graph().len()).map(out_degree).max().unwrap_or(0);

    let mut per_rollback = Vec::new();
    let mut mark = rt.accepted().len();
    loop {
        let states = (0..rt.graph().len()).map(|i| rt.graph().state(TaskId(i as u64)));
        let in_flight = states.filter(|s| *s == Ok(TaskState::Running)).count();
        let discardable = rt.accepted().len() - mark + in_flight;
        let (rollbacks, visits) = (rt.rollback_trace().len(), rt.rollback_visits());
        if rt.step().expect("devices present").is_none() {
            break;
        }
        if rt.rollback_trace().len() > rollbacks {
            let spent = rt.rollback_visits() - visits;
            assert!(
                spent <= (discardable * (1 + max_out_degree)) as u64,
                "rollback {rollbacks} visited {spent} for {discardable} discardable tasks"
            );
            per_rollback.push(spent);
            mark = rt.accepted().len();
        }
    }
    assert_eq!(per_rollback.len(), ROLLBACKS as usize);
    assert_eq!(rt.report().failed, vec![gather], "budget spent: it fails");
    per_rollback
}

#[test]
fn rollback_visits_follow_the_discard_not_the_checkpointed_prefix() {
    let short = visits_per_rollback(4);
    let long = visits_per_rollback(64);
    // Every tail link was accepted (one log entry) and re-armed; so were
    // the gather and the straggler, neither of which was ever accepted.
    let tail = CHAINS * TAIL_LINKS;
    assert_eq!(short, vec![2 * tail + 2; ROLLBACKS as usize]);
    assert_eq!(long, short);
}
