//! Integration tests pinning the *shape* of every paper artefact: who
//! wins, by roughly what factor, where the regions fall. These are the
//! executable form of the experiment index in DESIGN.md §3.

use legato::core::units::{Bytes, Seconds, Watt};
use legato::fti::fti::Strategy;
use legato_bench::experiments::{fig5, fig6, goals, heats, mirror, secure};

#[test]
fn e1_e2_fig5_shape() {
    let sweeps = fig5::run(10.0, 77);
    // Three regions on all four platforms; >88 % saving at crash on the
    // VC707; per-platform crash-edge rates within 30 % of published.
    assert_eq!(sweeps.len(), 4);
    let published = [652.0, 153.0, 254.0, 60.0]; // VC707, ZC702, KC705-A, KC705-B
    for (sweep, &rate) in sweeps.iter().zip(&published) {
        let (saving, measured) = fig5::headline(sweep);
        assert!(saving > 0.85, "{}: saving {saving}", sweep.platform.name);
        assert!(
            (measured - rate).abs() / rate < 0.3,
            "{}: rate {measured} vs published {rate}",
            sweep.platform.name
        );
    }
}

#[test]
fn e3_fig6_shape() {
    let rows = fig6::run(&[1, 8], Bytes::gib(2));
    let pick = |nodes: usize, s: Strategy| {
        rows.iter()
            .find(|r| r.nodes == nodes && r.strategy == s)
            .expect("row")
    };
    // Flat weak scaling per strategy.
    for s in [Strategy::Initial, Strategy::Async] {
        let one = pick(1, s).ckpt;
        let eight = pick(8, s).ckpt;
        assert!(
            (one.0 - eight.0).abs() / one.0 < 0.02,
            "{s}: {one} vs {eight}"
        );
    }
    // Async beats initial by roughly the published order (12.05× ckpt,
    // 5.13× recover).
    let ckpt_ratio = pick(1, Strategy::Initial).ckpt / pick(1, Strategy::Async).ckpt;
    let rec_ratio = pick(1, Strategy::Initial).recover / pick(1, Strategy::Async).recover;
    assert!(
        (8.0..16.0).contains(&ckpt_ratio),
        "ckpt ratio {ckpt_ratio:.1}"
    );
    assert!(
        (3.0..8.0).contains(&rec_ratio),
        "recover ratio {rec_ratio:.1}"
    );
    assert!(
        ckpt_ratio > rec_ratio,
        "ckpt gap exceeds recover gap in the paper"
    );
}

#[test]
fn e4_mtbf_shape() {
    let m = fig6::micro(Bytes::gib(2));
    // Paper: "7 times smaller MTBF" at equal overhead.
    assert!(
        (4.0..14.0).contains(&m.mtbf_factor),
        "factor {:.1}",
        m.mtbf_factor
    );
}

#[test]
fn e5_heats_tradeoff_shape() {
    let pts = heats::tradeoff_sweep(&[0.0, 0.5, 1.0], 24, 11);
    // Energy falls along the sweep; per-task completion time rises.
    assert!(pts[2].energy.0 < pts[0].energy.0, "{pts:?}");
    assert!(pts[2].mean_completion > pts[0].mean_completion, "{pts:?}");
    // The energy-weighted run visibly shifts to low-power nodes.
    assert!(
        pts[2].low_power_share > pts[0].low_power_share + 0.2,
        "{pts:?}"
    );
}

#[test]
fn e6_mirror_shape() {
    let rows = mirror::run(13);
    let ws = &rows[0];
    // Baseline ≈ 21 FPS / ≈ 400 W.
    assert!((18.0..26.0).contains(&ws.fps), "{}", ws.fps);
    assert!((330.0..470.0).contains(&ws.power.0), "{}", ws.power);
    // Some edge config reaches ≥10 FPS at ≤70 W, and the best edge cuts
    // power by >5×.
    let target = rows[1..].iter().any(|r| r.fps >= 10.0 && r.power.0 <= 70.0);
    assert!(target, "{rows:?}");
    let best_power = rows[1..]
        .iter()
        .map(|r| r.power)
        .fold(Watt(f64::INFINITY), Watt::min);
    assert!(ws.power / best_power > 5.0);
}

#[test]
fn e7_goals_shape() {
    // Selective replication closes most of the correctness gap at a
    // fraction of full triplication's energy.
    let rows = goals::reliability_comparison(0.08, 15);
    assert!(rows[1].critical_correct > rows[0].critical_correct);
    assert!(rows[1].critical_correct > 0.9);
    assert!(rows[1].energy.0 < rows[2].energy.0);
    // Task-declared checkpointing shrinks volume by a large factor.
    let v = goals::ckpt_volume();
    assert!(v.factor > 15.0, "{}", v.factor);
}

#[test]
fn e9_secure_shape() {
    let rows = secure::run(Seconds(0.044), Watt(180.0));
    assert!(secure::hardware_benefit(&rows) > 8.0);
}
