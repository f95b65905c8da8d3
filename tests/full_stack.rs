//! Cross-crate integration tests: the LEGaTO layers working together.

use legato::core::requirements::{Criticality, Requirements};
use legato::core::task::{AccessMode, TaskDescriptor, TaskKind, Work};
use legato::core::units::{Bytes, Seconds, Volt};
use legato::fpga::{FpgaPlatform, UndervoltFpga, VoltageRegion};
use legato::fti::fti::Strategy;
use legato::fti::{CheckpointLevel, Fti, FtiConfig};
use legato::hw::device::DeviceSpec;
use legato::hw::memory::{AddrSpace, MemoryManager};
use legato::hw::recs::RecsBox;
use legato::hw::storage::{StorageDevice, StorageTier};
use legato::runtime::{Policy, Runtime};

/// An undervolted FPGA corrupts BRAM-resident data; the task runtime's
/// triple replication masks the resulting wrong answers. Hardware layer →
/// runtime layer, end to end.
#[test]
fn undervolted_fpga_faults_are_masked_by_replication() {
    // Characterize the fault probability of a deeply undervolted VC707.
    let mut fpga = UndervoltFpga::new(FpgaPlatform::vc707(), 5);
    fpga.brams_mut().fill(0xAA);
    let golden = fpga.brams().snapshot();
    fpga.set_vccbram(Volt(0.55)).expect("valid voltage");
    assert_eq!(fpga.region(), VoltageRegion::Critical);
    fpga.tick(Seconds(1.0));
    let errors = fpga.brams().count_bit_errors(&golden);
    assert!(errors > 0, "deep critical region must corrupt data");

    // Translate the observed corruption into a per-task fault probability
    // and let the runtime replicate over it.
    let fault_prob = 0.3;
    let mut rt = Runtime::new(
        vec![
            DeviceSpec::xeon_x86(),
            DeviceSpec::gtx1080(),
            DeviceSpec::fpga_kintex(),
        ],
        Policy::Performance,
        9,
    );
    rt.set_fault_prob(2, fault_prob); // the undervolted FPGA
    for i in 0..10u64 {
        rt.submit(
            TaskDescriptor::named(format!("critical-{i}"))
                .with_kind(TaskKind::Inference)
                .with_work(Work::flops(1e10))
                .with_requirements(Requirements::new().with_criticality(Criticality::Critical)),
            [(i, AccessMode::Out)],
        );
    }
    let report = rt.run().expect("devices present");
    assert!(
        report.is_correct(),
        "replication must mask FPGA faults: {:?}",
        report.stats
    );
}

/// Checkpoint data that physically lives in simulated GPU memory, crash,
/// and restore it bit-exact: memory substrate → FTI → recovery.
#[test]
fn gpu_checkpoint_round_trip_through_real_bytes() {
    let mut mm = MemoryManager::new();
    let device_region = mm
        .alloc(AddrSpace::Device(legato::hw::DeviceId(0)), Bytes::mib(2))
        .expect("alloc");
    let payload: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    mm.write(device_region, 0, &payload).expect("fits");

    let mut fti = Fti::new(FtiConfig::default(), 0);
    fti.protect(0, device_region, &mm).expect("unique id");
    let mut nvme = StorageDevice::new(StorageTier::local_nvme());
    let ckpt = fti
        .checkpoint(
            &mut mm,
            &mut nvme,
            CheckpointLevel::L1,
            Strategy::Async,
            Seconds::ZERO,
        )
        .expect("checkpoint");

    // The async strategy must beat the initial one on the same state.
    let t_initial = fti.checkpoint_duration(&mm, &nvme.tier, Strategy::Initial);
    let t_async = fti.checkpoint_duration(&mm, &nvme.tier, Strategy::Async);
    assert!(t_initial > t_async);

    // Clobber device memory and recover.
    mm.write(device_region, 0, &vec![0u8; 4096]).expect("fits");
    fti.recover(&mut mm, &mut nvme, Strategy::Async, ckpt.finish)
        .expect("recover");
    let (restored, _) = mm.read_for_host(device_region).expect("alive");
    assert_eq!(&restored[..4096], payload.as_slice());
}

/// Build a realistic RECS|BOX, hand its modules to the runtime, and check
/// the energy-aware policy exploits the low-power modules.
#[test]
fn recs_box_modules_feed_the_runtime() {
    let recs = RecsBox::builder("integration")
        .high_performance_carrier(vec![DeviceSpec::xeon_x86(); 2])
        .low_power_carrier(vec![DeviceSpec::arm64(); 4])
        .pcie_expansion(DeviceSpec::gtx1080())
        .build()
        .expect("valid topology");
    assert_eq!(recs.module_count(), 7);

    // Compare policies across the CPU microservers, where the energy/
    // performance trade-off is real (x86 fast but hungry, ARM slow but
    // frugal). The GPU wins both metrics for dense compute under the
    // full-utilization device model, which would mask the comparison.
    let specs: Vec<DeviceSpec> = recs
        .microservers()
        .filter(|m| {
            matches!(
                m.device.kind,
                legato::hw::DeviceKind::CpuX86 | legato::hw::DeviceKind::CpuArm
            )
        })
        .map(|m| m.device.clone())
        .collect();
    assert_eq!(specs.len(), 6);

    let run = |policy| {
        let mut rt = Runtime::new(specs.clone(), policy, 3);
        for i in 0..12u64 {
            rt.submit(
                TaskDescriptor::named("job").with_work(Work::flops(2e9)),
                [(i, AccessMode::Out)],
            );
        }
        rt.run().expect("devices present")
    };
    let perf = run(Policy::Performance);
    let green = run(Policy::Energy);
    assert!(green.busy_energy.0 < perf.busy_energy.0);
}

/// The event-driven engine strictly beats a topological (submission-order)
/// sweep on wide graphs (≥ 1k tasks, fan-out/fan-in) under the same
/// policy: on the saturating scenario the readiness-order tail win, on the
/// straggler scenario a decisive interleaving win. The sweep executor is
/// deleted; its makespans (f64 bits) were recorded at commit bfc4631, the
/// last one that had it, and the engine's own are pinned exactly beside
/// them. Core ready-queue → engine → scheduler trait, end to end.
#[test]
fn event_engine_beats_topological_sweep_on_wide_graphs() {
    use legato_bench::experiments::engine::runtime;
    use legato_workloads::Fan;

    let run = |fan: Fan, policy, engine_bits: u64, sweep_bits: u64| {
        let mut rt = runtime(&fan, policy, 42);
        assert!(rt.graph().len() >= 1000, "graph too small");
        let engine = rt.run().expect("devices present").makespan.0;
        assert_eq!(engine.to_bits(), engine_bits, "{policy:?}: {engine}");
        f64::from_bits(sweep_bits) / engine
    };

    let wide = run(
        Fan::reference_wide(),
        Policy::Performance,
        0x402A_2B2E_C2CF_7BC5, // 13.084 s
        0x402A_94A2_A6C7_2D4E, // 13.290 s
    );
    assert!(wide > 1.0, "engine must strictly beat the sweep: {wide:.3}");

    let straggler = run(
        Fan::reference_straggler(),
        Policy::Weighted(0.5),
        0x403E_4C98_02FE_DE19, // 30.299 s
        0x404A_1886_928F_8F5F, // 52.192 s
    );
    assert!(
        straggler > 1.3,
        "straggler interleaving should be a decisive win, got {straggler:.3}"
    );
}

/// Streaming submission: tasks fed into a run already in progress join
/// the in-flight schedule and complete with the same guarantees.
#[test]
fn streaming_submission_into_inflight_run() {
    let mut rt = Runtime::new(
        vec![DeviceSpec::xeon_x86(), DeviceSpec::gtx1080()],
        Policy::Performance,
        5,
    );
    for i in 0..4u64 {
        rt.submit(
            TaskDescriptor::named(format!("wave0-{i}")).with_work(Work::flops(2e10)),
            [(i, AccessMode::Out)],
        );
    }
    // Drive the run partway, then stream a second wave that depends on
    // the first.
    for _ in 0..3 {
        rt.step().expect("devices present");
    }
    for i in 0..4u64 {
        rt.submit(
            TaskDescriptor::named(format!("wave1-{i}")).with_work(Work::flops(2e10)),
            [(i, AccessMode::In), (100 + i, AccessMode::Out)],
        );
    }
    let report = rt.run().expect("devices present");
    assert_eq!(report.placements.len(), 8);
    assert!(report.is_correct());
    assert!(rt.graph().is_complete());
}

/// The resilience pillar end to end: engine ↔ FTI ↔ simulated storage.
/// At a hostile MTBF, retry-only execution loses a large part of the
/// graph to poisoning, while checkpoint/restart — frontier volumes from
/// `runtime::ckpt`, intervals from `legato_fti::mtbf`, costs from
/// `legato_hw::storage` — completes everything; and the async FTI
/// strategy pays less makespan overhead than the initial one for the
/// same protection (the paper's §IV "sustain smaller MTBF at fixed
/// overhead" claim, reproduced at the application level).
#[test]
fn checkpoint_restart_survives_mtbf_where_retry_only_fails() {
    use legato_bench::experiments::resilience::{run_scenario, CkptMode, Scenario};

    let scenario = Scenario::reference();
    let hostile = scenario.mean_task_duration() * 16.0;

    let retry = run_scenario(scenario, hostile, CkptMode::RetryOnly, 42);
    let initial = run_scenario(scenario, hostile, CkptMode::Initial, 42);
    let async_ = run_scenario(scenario, hostile, CkptMode::Async, 42);

    assert!(retry.tasks >= 1000, "graph too small");
    // Retry-only: at least one task exhausts its budget and poisons its
    // downstream cone — the run does not complete the graph.
    assert!(
        !retry.survived(),
        "retry-only must lose work at the hostile MTBF: {retry:?}"
    );
    // Checkpoint/restart completes the whole graph under both FTI
    // strategies, by actually checkpointing and rolling back.
    for row in [&initial, &async_] {
        assert!(row.survived(), "{} must survive: {row:?}", row.mode);
        assert_eq!(row.failed, 0);
        assert!(row.checkpoints > 0, "{row:?}");
        assert!(row.rollbacks > 0, "{row:?}");
        assert!(row.checkpoint_bytes > Bytes::ZERO);
    }

    // Overhead comparison at a moderate MTBF, where both strategies are
    // stable and the systematic cost difference is not drowned by
    // rollback noise: the optimized (async) strategy protects the same
    // graph at visibly lower makespan overhead — i.e. for a fixed
    // overhead budget it sustains a smaller MTBF, the §IV claim.
    let moderate = scenario.mean_task_duration() * 64.0;
    let initial_mod = run_scenario(scenario, moderate, CkptMode::Initial, 42);
    let async_mod = run_scenario(scenario, moderate, CkptMode::Async, 42);
    assert!(initial_mod.survived() && async_mod.survived());
    assert!(
        async_mod.makespan < initial_mod.makespan,
        "async {} should beat initial {}",
        async_mod.makespan,
        initial_mod.makespan
    );
}

/// The security pillar end to end: confidentiality requirements → TEE
/// capability descriptors → enclave-aware engine → secure-layer costs.
/// Enclave-only tasks are never placed on non-TEE devices, attestation
/// is charged once per (enclave, device) pair, every confidential run
/// reports non-zero `SecurityStats`, and hardware-assisted crypto pays
/// a measurably lower end-to-end premium than software crypto — the
/// paper's "energy-efficient security-by-design" lever, reproduced at
/// the application level (`tests/experiments_goldens.rs` pins the same
/// rows).
#[test]
fn enclave_tasks_stay_on_tee_devices_and_hardware_crypto_cuts_the_premium() {
    use legato::core::requirements::SecurityLevel;
    use legato_bench::experiments::secure_offload::{
        devices, runtime, sweep, CryptoClass, Scenario,
    };

    // Direct placement check on a mixed workload: the GPU wins every
    // unconstrained inference placement, so only the placement rule can
    // keep enclave tasks off it.
    let specs = devices(CryptoClass::Hardware);
    let tee: Vec<usize> = specs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.tee.has_enclave())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(tee.len(), 2, "two TEE CPUs in the reference mix");
    let scenario = Scenario::reference();
    let mut rt = runtime(scenario, 50, CryptoClass::Hardware, 42).expect("valid engine config");
    let tasks = rt.graph().len();
    let confidential_chains = scenario.confidential_chains(50);
    let report = rt.run().expect("devices present");
    assert_eq!(report.placements.len(), tasks, "nothing dropped");
    // Tasks 1..=chains*depth are the chain stages, chain-major; the
    // first `confidential_chains` chains are enclave-only, and the
    // final gather is too (it reads the enclave chains' outputs — the
    // information-flow discipline the `confidential-flow` lint checks).
    let mut enclave_task_ids: std::collections::HashSet<u64> = (0..confidential_chains
        * scenario.depth)
        .map(|i| 1 + i as u64)
        .collect();
    enclave_task_ids.insert(tasks as u64 - 1);
    for p in &report.placements {
        if enclave_task_ids.contains(&p.task.0) {
            for &d in &p.devices {
                assert!(
                    tee.contains(&d),
                    "enclave task {} placed on non-TEE device {d}",
                    p.task
                );
            }
        }
    }
    // Attestation: two code images ("stage" and the enclave gather) on
    // at most two TEE devices, each attested once per (enclave, device).
    let sec = report.security.expect("confidential tasks ran");
    assert!(
        (1..=4).contains(&sec.attestations),
        "attestations {}",
        sec.attestations
    );
    assert!(sec.enclave_time > Seconds::ZERO);

    // An enclave-only task with no TEE device anywhere is a hard error,
    // never a silent downgrade.
    let mut no_tee = Runtime::new(
        vec![DeviceSpec::gtx1080(), DeviceSpec::fpga_kintex()],
        Policy::Performance,
        42,
    );
    no_tee.submit(
        TaskDescriptor::named("secret").with_requirements(
            legato::core::requirements::Requirements::new().with_security(SecurityLevel::Enclave),
        ),
        [(0u64, AccessMode::Out)],
    );
    assert!(matches!(
        no_tee.run(),
        Err(legato::runtime::RuntimeError::NoSecurePlacement(_))
    ));

    // The claim's shape: overhead grows with the
    // confidential fraction, and hardware crypto is measurably cheaper
    // than software at every non-zero fraction.
    let rows = sweep(scenario, 42);
    for percent in [25u32, 50, 100] {
        let cell = |crypto: &str| {
            rows.iter()
                .find(|r| r.percent == percent && r.crypto == crypto)
                .expect("cell present")
        };
        let sw = cell("sw");
        let hw = cell("hw");
        assert_eq!(sw.completed, sw.tasks);
        assert!(
            hw.overhead < sw.overhead * 0.8,
            "{percent}%: hw premium must be measurably lower ({:.2} vs {:.2})",
            hw.overhead,
            sw.overhead
        );
    }
}

/// The graph's error propagation marks downstream tasks of a failure, and
/// root-cause analysis walks back to the failed ancestor.
#[test]
fn error_propagation_and_root_cause_across_pipeline() {
    use legato::core::graph::{TaskGraph, TaskState};

    let mut g = TaskGraph::new();
    let load = g.add_task(TaskDescriptor::named("load"), [(0u64, AccessMode::Out)]);
    let detect = g.add_task(
        TaskDescriptor::named("detect"),
        [(0u64, AccessMode::In), (1u64, AccessMode::Out)],
    );
    let track = g.add_task(
        TaskDescriptor::named("track"),
        [(1u64, AccessMode::In), (2u64, AccessMode::Out)],
    );
    let render = g.add_task(TaskDescriptor::named("render"), [(2u64, AccessMode::In)]);

    g.complete(load).expect("ready");
    let poisoned = g.fail(detect).expect("running order");
    assert_eq!(poisoned, vec![track, render]);
    assert_eq!(g.state(render).expect("exists"), TaskState::Poisoned);
    assert_eq!(g.root_cause(render).expect("exists"), vec![detect]);
}

/// The energy and resilience pillars co-optimized through one config:
/// undervolting the FPGA's BRAM rail (runtime::lowvolt Fig. 5 model →
/// hw operating-point ladder → EngineConfig) injects a per-task silent
/// fault probability, the engine folds that extra failure rate into the
/// device MTBF, and the FTI planner responds by shortening the Young
/// checkpoint interval — undervolt deeper, checkpoint more often.
#[test]
fn undervolting_shortens_the_planned_checkpoint_interval() {
    use legato::runtime::lowvolt::undervolt_ladder;
    use legato::runtime::{EnergyConfig, EngineConfig, ResilienceConfig};
    use std::collections::HashMap;

    let platform = FpgaPlatform::vc707();
    let base = DeviceSpec::fpga_kintex();
    // A mid-critical rail point: real power saving, sub-certain faults.
    let span = platform.v_min.0 - platform.v_crash.0;
    let v = Volt(platform.v_min.0 - 0.5 * span);
    let ladder =
        undervolt_ladder(&base, &platform, &[v], 0.5, Seconds(0.2)).expect("kintex rail ladder");
    assert!(
        ladder[1].fault_probability > 0.05 && ladder[1].fault_probability < 1.0,
        "mid-critical rung must fault without crashing: {:?}",
        ladder[1]
    );

    let run_interval = |rung: usize| {
        let sizes: HashMap<legato::core::task::RegionId, Bytes> = (0..4u64)
            .map(|r| (legato::core::task::RegionId(r), Bytes::mib(64)))
            .collect();
        let mut rt = EngineConfig::new()
            .with_devices(vec![
                DeviceSpec::arm64(),
                base.clone().with_operating_points(ladder.clone()),
            ])
            .with_policy(Policy::Performance)
            .with_seed(7)
            .with_region_sizes(sizes)
            .with_resilience(ResilienceConfig::new(Seconds(10_000.0)).with_max_rollbacks(10_000))
            .with_energy(EnergyConfig::new().with_device_point(1, rung))
            .build()
            .expect("valid engine config");
        for i in 0..12u64 {
            rt.submit(
                TaskDescriptor::named(format!("t{i}"))
                    .with_work(Work::flops(2e10))
                    .with_requirements(Requirements::new().with_criticality(Criticality::High)),
                [(i % 4, AccessMode::InOut)],
            );
        }
        // The interval is planned on the first step and forgotten when
        // the run drains, so sample it through the streaming interface.
        let mut interval = None;
        while rt.step().expect("devices present").is_some() {
            interval = interval.or_else(|| rt.checkpoint_interval());
        }
        interval.expect("resilience planned an interval")
    };

    let nominal = run_interval(0);
    let undervolted = run_interval(1);
    assert!(
        undervolted < nominal,
        "operating-point faults must shorten the interval: {undervolted} vs {nominal}"
    );
}

/// The Pareto scheduling objective end to end: on the same seeded graph,
/// min-energy-within-a-makespan-bound finishes inside the bound while
/// spending strictly less energy than makespan-only scheduling — the
/// engine's energy meter agreeing with the per-pillar stats it reports.
#[test]
fn bounded_min_energy_scheduling_undercuts_makespan_only_runs() {
    use legato::runtime::{EnergyConfig, EngineConfig};

    // A fast 200 W device against one half as fast at a tenth the draw:
    // speed and thrift genuinely disagree, so the objective has a choice
    // to make.
    let fast_hot = {
        let mut d = DeviceSpec::xeon_x86();
        d.name = "fast-hot".into();
        d.peak_flops = 1e12;
        d.busy_power = legato::core::units::Watt(200.0);
        d.idle_power = legato::core::units::Watt(20.0);
        d
    };
    let slow_cool = {
        let mut d = DeviceSpec::xeon_x86();
        d.name = "slow-cool".into();
        d.peak_flops = 5e11;
        d.busy_power = legato::core::units::Watt(20.0);
        d.idle_power = legato::core::units::Watt(2.0);
        d
    };

    let run = |energy: Option<EnergyConfig>| {
        let mut cfg = EngineConfig::new()
            .with_devices(vec![fast_hot.clone(), slow_cool.clone()])
            .with_policy(Policy::Performance)
            .with_seed(21);
        if let Some(e) = energy {
            cfg = cfg.with_energy(e);
        }
        let mut rt = cfg.build().expect("valid engine config");
        for i in 0..10u64 {
            rt.submit(
                TaskDescriptor::named(format!("t{i}")).with_work(Work::flops(1e12)),
                [(i, AccessMode::Out)],
            );
        }
        rt.run().expect("devices present")
    };

    let fastest = run(None);
    assert!(fastest.energy.is_none(), "energy layer off by default");
    let bound = Seconds(fastest.makespan.0 * 1.5);
    let frugal = run(Some(EnergyConfig::new().with_makespan_bound(bound)));

    assert!(
        frugal.makespan <= bound,
        "objective must respect the bound: {} > {bound}",
        frugal.makespan
    );
    assert!(
        frugal.total_energy < fastest.total_energy,
        "objective must save energy: {} vs {}",
        frugal.total_energy,
        fastest.total_energy
    );
    let stats = frugal.energy.expect("energy layer on");
    assert_eq!(stats.bound_relaxations, 0, "the bound was feasible");
    assert_eq!(stats.total_energy, frugal.total_energy);
    assert!(stats.average_power.0 > 0.0);
}
