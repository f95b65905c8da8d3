//! Placement goldens: what every placement path chooses today, frozen.
//!
//! Every placement goes through one search, which prunes only on a
//! runtime built with pools; `pool_equivalence.rs` pins pruned and
//! unpruned placements equal. These constants hold the search to what
//! the flat O(devices) scan it replaced chose: each row is one
//! `legato-workloads` fan on one fleet down one placement path, digested
//! to its placements, makespan and total energy. The policy rows are
//! checked without pools *and* against `uniform(_, 16)` pools, which
//! must reproduce them bit for bit.
//!
//! The constants were generated from the code at commit 18bb543. When a
//! row moves, the failure prints the whole table as it now reads.

mod common;

use common::gen;
use legato_core::task::Work;
use legato_core::units::{Bytes, Seconds, Watt};
use legato_hw::device::DeviceSpec;
use legato_runtime::{
    ChurnConfig, ChurnTrace, EnergyConfig, EngineConfig, Policy, PoolConfig, RunReport,
    SecurityConfig,
};
use legato_workloads::{fleets, region_sizes, Fan};

const SEED: u64 = 42;

fn fans() -> [(&'static str, Fan); 4] {
    [
        ("wide", Fan::reference_wide()),
        ("straggler", Fan::reference_straggler()),
        ("replicated", Fan::replicated(16, 8, Work::flops(2e12))),
        // Half the chains enclave-only: every one of their placements
        // goes through the security plan.
        (
            "confidential",
            Fan::confidential(32, 8, Work::flops(66e9), 16),
        ),
    ]
}

fn fleet_specs() -> [(&'static str, Vec<DeviceSpec>); 2] {
    [
        ("reference", fleets::reference()),
        ("cycled-64", fleets::cycled(64)),
    ]
}

/// The placement paths that exist today.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// Flat scan under the policy, then the sharded search under it.
    Policy(Policy),
    /// Flat scan, Pareto pick: minimum energy within a makespan bound.
    MakespanBound,
    /// Flat scan, Pareto pick: minimum makespan under a power cap.
    PowerCap,
    /// Sharded search while a seeded trace crashes, drains and adds
    /// devices.
    PooledChurn,
}

const PATHS: [Path; 9] = [
    Path::Policy(Policy::Performance),
    Path::Policy(Policy::Energy),
    Path::Policy(Policy::Edp),
    Path::Policy(Policy::Weighted(0.0)),
    Path::Policy(Policy::Weighted(0.5)),
    Path::Policy(Policy::Weighted(1.0)),
    Path::MakespanBound,
    Path::PowerCap,
    Path::PooledChurn,
];

/// One run of `fan` on `specs` down `path`, pooled or not.
fn run(fan: &Fan, specs: &[DeviceSpec], path: Path, pooled: bool) -> RunReport {
    let sizes = region_sizes(fan.regions(), Bytes::mib(8));
    let mut cfg = EngineConfig::new()
        .with_devices(specs.to_vec())
        .with_seed(SEED)
        .with_security(SecurityConfig::new().with_region_sizes(sizes));
    cfg = match path {
        Path::Policy(policy) => cfg.with_policy(policy),
        Path::MakespanBound => {
            cfg.with_energy(EnergyConfig::new().with_makespan_bound(Seconds(10.0)))
        }
        Path::PowerCap => cfg.with_energy(EnergyConfig::new().with_power_cap(Watt(100.0))),
        Path::PooledChurn => {
            let trace = ChurnTrace::seeded(SEED, specs.len(), Seconds(1.0), 6, specs, 0.5);
            cfg.with_churn(ChurnConfig::new(trace))
        }
    };
    if pooled {
        cfg = cfg.with_pools(PoolConfig::uniform(specs.len(), 16));
    }
    let mut rt = cfg.build().expect("valid engine config");
    fan.emit(SEED, |descriptor, accesses| {
        rt.submit(descriptor, accesses.iter().copied());
    });
    gen::run_past_expiries(&mut rt).0
}

/// FNV-1a over every placement's task, devices and start/finish bits,
/// then the makespan and total-energy bits.
fn golden(report: &RunReport) -> [u64; 3] {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    for p in &report.placements {
        mix(p.task.0);
        for &d in &p.devices {
            mix(d as u64);
        }
        mix(p.start.0.to_bits());
        mix(p.finish.0.to_bits());
    }
    [
        h,
        report.makespan.0.to_bits(),
        report.total_energy.0.to_bits(),
    ]
}

/// `[placements digest, makespan bits, total-energy bits]` per fan ×
/// fleet (outer, in [`fans`] × [`fleet_specs`] order) × [`PATHS`].
#[rustfmt::skip]
const GOLDENS: &[[[u64; 3]; 9]] = &[
    [
        [0xda3a_67a0_bd31_46de, 0x402a_2b2e_c2cf_7bc5, 0x40b1_5318_3182_c67a],
        [0x51f8_42b2_3c8e_ca46, 0x4052_686c_1fc6_d7f5, 0x40b2_fbaf_80c5_0eb6],
        [0x91ce_4439_683c_ec4b, 0x404f_909c_5a07_8f31, 0x40b1_edbd_7cb1_d52c],
        [0xda3a_67a0_bd31_46de, 0x402a_2b2e_c2cf_7bc5, 0x40b1_5318_3182_c67a],
        [0x4a1c_a884_dcfd_4953, 0x402b_f296_f5a3_2297, 0x40ab_3d74_4021_71d1],
        [0x51f8_42b2_3c8e_ca46, 0x4052_686c_1fc6_d7f5, 0x40b2_fbaf_80c5_0eb6],
        [0xe844_7814_ae2c_dae0, 0x4032_e66c_11b5_7e0f, 0x40b0_9db1_6890_9626],
        [0xb71a_38a1_b6be_b36f, 0x4051_99d0_c14f_2a03, 0x40b4_9ab3_0812_fc11],
        [0xc84d_3d6d_9ec7_6dd8, 0x4029_ef48_4cf4_de97, 0x40b1_a877_2c33_6f12],
    ],
    [
        [0x0bcc_5069_d228_ddfe, 0x3ff0_e041_d0d0_4b2b, 0x40ab_fd90_8cff_a83d],
        [0x51f8_42b2_3c8e_ca46, 0x4052_686c_1fc6_d7f5, 0x40ed_566c_52a4_e830],
        [0x3902_24f5_4d4e_ed0b, 0x4011_d105_6de9_0ddf, 0x40b3_4ad0_9d3e_0292],
        [0x0bcc_5069_d228_ddfe, 0x3ff0_e041_d0d0_4b2b, 0x40ab_fd90_8cff_a83d],
        [0x0164_bf44_92f9_1e58, 0x4005_224c_b506_c8f0, 0x40b1_28e7_a3fe_59be],
        [0x51f8_42b2_3c8e_ca46, 0x4052_686c_1fc6_d7f5, 0x40ed_566c_52a4_e830],
        [0x8a76_a3f0_5607_437c, 0x4025_9b59_45eb_26ee, 0x40c5_7bd9_6cf1_0f83],
        [0x0d06_e8e7_1d0e_2203, 0x4013_f056_021d_3fdc, 0x40b4_3763_de07_0a5f],
        [0x64e8_9c8d_228b_a401, 0x3ff0_fd01_72c3_d767, 0x40ab_f940_1808_b123],
    ],
    [
        [0x0d97_55f9_e693_a0d9, 0x403c_9564_3d1a_20e2, 0x40be_a41c_324b_6dca],
        [0x4c5b_f5de_fef5_205b, 0x4061_8ecb_8aae_7f41, 0x40c2_1b41_e703_f33d],
        [0x2cf9_2038_9890_f8a9, 0x405f_dc64_ea08_9d79, 0x40c1_70f1_0f86_07ee],
        [0x0d97_55f9_e693_a0d9, 0x403c_9564_3d1a_20e2, 0x40be_a41c_324b_6dca],
        [0x05eb_99a1_2885_0abd, 0x403e_4c98_02fe_de19, 0x40b9_473e_16ea_a8a8],
        [0x4c5b_f5de_fef5_205b, 0x4061_8ecb_8aae_7f41, 0x40c2_1b41_e703_f33d],
        [0x53f1_9736_c203_4627, 0x4040_9668_e242_9620, 0x40bd_b5b3_8b22_c662],
        [0x3899_22a8_dfab_3d26, 0x4061_2a44_091b_76d9, 0x40c2_eafd_17dc_73c4],
        [0x0066_8fd3_0653_63e6, 0x403c_770d_c89a_b41b, 0x40bf_0768_1697_cb29],
    ],
    [
        [0x8a86_09db_4a40_0868, 0x4023_8929_cbd3_7bb9, 0x40ca_061c_390a_581c],
        [0x4c5b_f5de_fef5_205b, 0x4061_8ecb_8aae_7f41, 0x40fb_fb94_6506_1ad5],
        [0x2ee1_99d7_9dfb_0683, 0x4044_7754_eb74_d67f, 0x40e1_33fb_3c63_3619],
        [0x8a86_09db_4a40_0868, 0x4023_8929_cbd3_7bb9, 0x40ca_061c_390a_581c],
        [0x9d10_6c38_3c11_a446, 0x4044_bed9_8844_5d0d, 0x40e1_c7b4_78ab_3841],
        [0x4c5b_f5de_fef5_205b, 0x4061_8ecb_8aae_7f41, 0x40fb_fb94_6506_1ad5],
        [0x0e76_c953_5965_788c, 0x4032_fc45_17d2_9f49, 0x40d3_c08f_c5d9_d53e],
        [0x0c15_4676_fc8e_d102, 0x4045_2c6a_00d0_62cd, 0x40e1_a39f_894d_b522],
        [0xde12_f698_f0b0_718d, 0x4023_87e8_8b28_0d1f, 0x40c9_87d7_3c47_2c8d],
    ],
    [
        [0x913e_d988_6402_228f, 0x4061_0390_da21_c499, 0x40dc_0b73_b6b1_59ca],
        [0x9549_aeea_5a9e_b354, 0x4066_38ee_eeee_eee4, 0x40d2_5c4a_5a3c_a6a2],
        [0x19ee_8f61_9184_708a, 0x4066_38ea_8f33_0467, 0x40d2_5c49_b321_aae1],
        [0x913e_d988_6402_228f, 0x4061_0390_da21_c499, 0x40dc_0b73_b6b1_59ca],
        [0x0f54_e539_5510_a7fe, 0x4066_38ee_eeee_eee4, 0x40d2_5c4a_5a3c_a6a2],
        [0x9549_aeea_5a9e_b354, 0x4066_38ee_eeee_eee4, 0x40d2_5c4a_5a3c_a6a2],
        [0xadab_104e_b2c6_bb4b, 0x4061_0395_39dd_af16, 0x40dc_0b74_5dcc_558a],
        [0x1aed_9708_db30_d0be, 0x40ad_696a_1f74_ca2f, 0x410b_7611_7721_cc80],
        [0x3319_c210_b4c5_a580, 0x4061_a2f3_a881_e749, 0x40de_2615_777d_86bf],
    ],
    [
        [0xc878_653e_2034_48c9, 0x4014_8c0a_30d1_12d2, 0x40d1_d13b_d447_55b9],
        [0x1ed7_c4c5_8d51_845c, 0x4066_38ee_eeee_eee4, 0x4102_0e41_f49f_49f0],
        [0x44cb_09f3_a7da_f947, 0x402f_3306_a378_9958, 0x40d4_520d_a713_f870],
        [0xc878_653e_2034_48c9, 0x4014_8c0a_30d1_12d2, 0x40d1_d13b_d447_55b9],
        [0x53bb_143b_5ab0_66c8, 0x4016_3a4f_a4fa_4fa5, 0x40d0_1559_edc1_6068],
        [0x1ed7_c4c5_8d51_845c, 0x4066_38ee_eeee_eee4, 0x4102_0e41_f49f_49f0],
        [0x5b18_516e_f5a5_ca06, 0x402a_4c98_0e89_89b0, 0x40d5_c1e5_a82c_7d07],
        [0x2a4d_3844_70e6_97a0, 0x4036_393e_93e9_3e95, 0x40d6_eaf3_3333_3332],
        [0xbe8a_3cc5_6c06_a61e, 0x4014_8c0a_30d1_12d2, 0x40d1_b2dc_d5bd_951e],
    ],
    [
        [0x60e5_724f_12e6_ec65, 0x4045_9f0a_cd66_ca7c, 0x40ba_8c23_6fac_26f6],
        [0x72a9_931e_1b5a_4e55, 0x4073_58e6_81f0_66f0, 0x40d1_e685_5fff_29c6],
        [0x54d2_0cc9_cf04_ff1f, 0x4060_7c39_fd4b_3f2c, 0x40c4_a4bd_2d4e_c46a],
        [0x60e5_724f_12e6_ec65, 0x4045_9f0a_cd66_ca7c, 0x40ba_8c23_6fac_26f6],
        [0x142a_15b1_2cbf_bc56, 0x4045_9f1c_4c56_746e, 0x40ba_89ac_745f_f820],
        [0x72a9_931e_1b5a_4e55, 0x4073_58e6_81f0_66f0, 0x40d1_e685_5fff_29c6],
        [0x9e37_ba62_4dc4_5ec9, 0x4045_9e33_9227_e8cb, 0x40ba_3614_b311_6a70],
        [0x72a9_931e_1b5a_4e55, 0x4073_58e6_81f0_66f0, 0x40d1_e685_5fff_29c6],
        [0x4761_4e27_5892_2ace, 0x4045_9f0a_cd66_ca7c, 0x40ba_87e1_1afb_bdf7],
    ],
    [
        [0xcf9a_c43a_c89e_ff6b, 0x400a_2d6e_f2f6_efd3, 0x40bd_15fb_8a5a_a916],
        [0x72a9_931e_1b5a_4e55, 0x4073_58e6_81f0_66f0, 0x410e_940a_5457_0c02],
        [0xe82e_6712_c034_e964, 0x401f_8e66_3fcd_831c, 0x40c5_2b11_656d_8387],
        [0xcf9a_c43a_c89e_ff6b, 0x400a_2d6e_f2f6_efd3, 0x40bd_15fb_8a5a_a916],
        [0x2e60_99d3_4793_1e8f, 0x4034_2464_269c_bbd9, 0x40d2_9aff_03a1_e5a4],
        [0x72a9_931e_1b5a_4e55, 0x4073_58e6_81f0_66f0, 0x410e_940a_5457_0c02],
        [0x6b11_ae91_28a9_1edb, 0x4029_710e_392e_b3b5, 0x40cc_4e65_7358_dc6e],
        [0x0af0_7d00_accf_5abb, 0x4036_0754_14fd_ecf2, 0x40d4_01cc_044d_7407],
        [0xcc92_bf84_85f3_a108, 0x400d_81e3_3359_5a6a, 0x40be_4af0_526a_ecad],
    ],
];

#[test]
fn every_placement_path_reproduces_its_golden() {
    let mut actual = Vec::new();
    for (fan_name, fan) in fans() {
        for (fleet_name, specs) in fleet_specs() {
            let mut row = Vec::new();
            for path in PATHS {
                let pooled = matches!(path, Path::PooledChurn);
                let got = golden(&run(&fan, &specs, path, pooled));
                if let Path::Policy(_) = path {
                    assert_eq!(
                        golden(&run(&fan, &specs, path, true)),
                        got,
                        "{fan_name} on {fleet_name}, {path:?}: pooled differs from flat"
                    );
                }
                row.push(got);
            }
            actual.push(row);
        }
    }
    let table: String = actual
        .iter()
        .map(|row| {
            let cells: String = row
                .iter()
                .map(|[p, m, e]| format!("        [{p:#018x}, {m:#018x}, {e:#018x}],\n"))
                .collect();
            format!("    [\n{cells}    ],\n")
        })
        .collect();
    assert!(
        actual
            .iter()
            .map(Vec::as_slice)
            .eq(GOLDENS.iter().map(|r| &r[..])),
        "placements moved; the table now reads:\n{table}"
    );
}
