//! Every generator's output, pinned. The digests were recorded at commit
//! d6cbb93 from the builders this crate replaced
//! (`experiments::{engine, resilience, secure_offload}::Scenario::build`
//! and the `runtime_engine` bench's chain loop), emitted into the same
//! `TaskGraph` — so "one definition" provably kept the graphs, draw for
//! draw.

use legato_core::graph::TaskGraph;
use legato_core::task::{TaskId, Work};
use legato_workloads::{chains_batch, Fan};

/// FNV-1a over task count, edge count and every task's name, work bits,
/// kind, criticality, security level and accesses, in id order.
fn digest(g: &TaskGraph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(g.len() as u64).to_le_bytes());
    eat(&(g.edge_count() as u64).to_le_bytes());
    for i in 0..g.len() as u64 {
        let d = g.descriptor(TaskId(i)).expect("dense ids");
        eat(d.name.as_bytes());
        eat(&d.work.flops.to_bits().to_le_bytes());
        eat(&d.work.bytes.0.to_le_bytes());
        eat(&[
            d.kind as u8,
            d.requirements.criticality as u8,
            d.requirements.security as u8,
        ]);
        for &(r, m) in g.accesses(TaskId(i)).expect("dense ids") {
            eat(&r.0.to_le_bytes());
            eat(&[m as u8]);
        }
    }
    h
}

fn fan_digest(fan: &Fan, seed: u64) -> u64 {
    let mut g = TaskGraph::new();
    let tasks = fan.emit(seed, |d, a| {
        g.add_task(d, a.iter().copied());
    });
    assert_eq!(tasks, g.len(), "emit must report what it emitted");
    digest(&g)
}

#[test]
fn seeded_fans_match_the_builders_they_replaced() {
    for (name, fan, at_42, at_7) in [
        (
            "wide",
            Fan::reference_wide(),
            0xaf0e_7a23_7a0d_4f6a_u64,
            0xedb8_67e6_b9a0_5437_u64,
        ),
        (
            "straggler",
            Fan::reference_straggler(),
            0xb7d8_f371_088c_c497,
            0x9186_9d5a_0306_f8c0,
        ),
    ] {
        assert_eq!(fan_digest(&fan, 42), at_42, "{name} @ 42");
        assert_eq!(fan_digest(&fan, 7), at_7, "{name} @ 7");
    }
}

#[test]
fn fixed_fans_match_the_builders_they_replaced_at_every_seed() {
    // E9/E10 fault-injection graph: 64 × 16 dual-replica chains.
    let replicated = Fan::replicated(64, 16, Work::flops(2e12));
    // E10 secure offload: 32 × 8 inference chains at 0/25/50/100 %
    // enclave-only.
    let confidential = |chains| Fan::confidential(32, 8, Work::flops(66e9), chains);
    for (name, fan, golden) in [
        ("replicated", replicated, 0x35cd_2cb3_aeea_6b19_u64),
        ("confidential 0 %", confidential(0), 0x0693_aa7b_e422_1cb9),
        ("confidential 25 %", confidential(8), 0x39ae_1d76_0291_08d3),
        ("confidential 50 %", confidential(16), 0x9825_a494_7f55_3513),
        (
            "confidential 100 %",
            confidential(32),
            0x6e13_c7c3_c83a_d973,
        ),
    ] {
        for seed in [42, 7] {
            assert_eq!(fan_digest(&fan, seed), golden, "{name} @ {seed}");
        }
    }
}

#[test]
fn chains_match_the_bench_loop_they_replaced() {
    // The `runtime_engine/{scaling,analyze}` shape: 25k chains of depth 4.
    let g = chains_batch(100_000, 25_000).build();
    assert_eq!(g.edge_count(), 100_000 - 25_000);
    assert_eq!(digest(&g), 0x217b_6975_e2ea_3b5d);
}
