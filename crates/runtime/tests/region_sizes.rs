//! One region model: a region's size is declared once, on the engine
//! (`EngineConfig::with_region_sizes`), and every reader prices it the
//! same.
//!
//! * **Disagreement is unrepresentable** — the resilience and security
//!   aliases used to carry maps of their own, and a checkpoint sealed a
//!   confidential region at the resilience size while a cross-device
//!   hop sealed it at the security size. Declarations now join at build:
//!   a region declared twice with two sizes is refused, an agreeing
//!   duplicate is accepted, and the checkpoint and the hop seal the same
//!   bytes.
//! * **Sizes never overflow** — a declared size near `u64::MAX` summed
//!   over several writes used to panic in debug builds (and wrap in
//!   release) in the checkpoint-interval plan; byte sums saturate now.
//! * **One keyspace for the service** — a tenant's region is declared
//!   under its engine id, `(t << 32) | r`, and that one size prices both
//!   the tenant's session seal and the security layer's sealing of it.

use std::collections::HashMap;

use legato_core::requirements::{Requirements, SecurityLevel};
use legato_core::task::{AccessMode, RegionId, TaskDescriptor, TaskKind, Work};
use legato_core::units::{Bytes, Seconds};
use legato_hw::device::DeviceSpec;
use legato_runtime::{
    EngineConfig, Policy, ResilienceConfig, RunReport, RuntimeError, SecurityConfig, ServiceConfig,
    TenantSpec,
};

fn sized(region: u64, bytes: Bytes) -> HashMap<RegionId, Bytes> {
    HashMap::from([(RegionId(region), bytes)])
}

/// A TEE-hosting Xeon and a GPU that hosts none.
fn engine() -> EngineConfig {
    EngineConfig::new()
        .with_devices(vec![DeviceSpec::xeon_x86(), DeviceSpec::gtx1080()])
        .with_policy(Policy::Performance)
}

fn confidential(level: SecurityLevel) -> Requirements {
    Requirements::new().with_security(level)
}

/// An enclave producer of region 0 (on the Xeon, the only TEE) and a
/// GPU-favoured public reader of it: the sealed region crosses once.
fn hop(cfg: EngineConfig) -> RunReport {
    let mut rt = cfg.build().expect("agreeing declarations build");
    rt.submit(
        TaskDescriptor::named("producer")
            .with_work(Work::flops(1e9))
            .with_requirements(confidential(SecurityLevel::Enclave)),
        [(0u64, AccessMode::Out)],
    );
    rt.submit(
        TaskDescriptor::named("consumer")
            .with_kind(TaskKind::Inference)
            .with_work(Work::flops(66e9)),
        [(0u64, AccessMode::In), (1u64, AccessMode::Out)],
    );
    let report = rt.run().expect("devices present");
    let devices: Vec<usize> = report.placements.iter().map(|p| p.devices[0]).collect();
    assert_eq!(devices, [0, 1], "the sealed region must cross");
    report
}

/// A confidential chain over region 0, long enough to checkpoint it
/// live and sealed several times.
fn checkpointed(cfg: EngineConfig) -> RunReport {
    let mut rt = cfg.build().expect("agreeing declarations build");
    for _ in 0..30 {
        rt.submit(
            TaskDescriptor::named("t")
                .with_work(Work::flops(2e12))
                .with_requirements(confidential(SecurityLevel::Confidential)),
            [(0u64, AccessMode::InOut)],
        );
    }
    rt.run().expect("devices present")
}

#[test]
fn disagreeing_declarations_are_refused_at_build() {
    let security = SecurityConfig::new().with_region_sizes(sized(0, Bytes::mib(32)));
    let resilience = ResilienceConfig::new(Seconds(5.0)).with_region_sizes(sized(0, Bytes::mib(8)));
    let refusals = [
        engine()
            .with_security(security.clone())
            .with_resilience(resilience.clone()),
        engine()
            .with_region_sizes(sized(0, Bytes::mib(8)))
            .with_security(security),
        engine()
            .with_region_sizes(sized(0, Bytes::mib(32)))
            .with_resilience(resilience),
    ];
    for cfg in refusals {
        match cfg.build() {
            Err(RuntimeError::InvalidParameter { name, reason }) => {
                assert_eq!(name, "region_sizes");
                assert!(reason.contains("R0"), "{reason}");
                for bytes in [Bytes::mib(32), Bytes::mib(8)] {
                    assert!(reason.contains(&bytes.as_u64().to_string()), "{reason}");
                }
            }
            other => panic!("a disagreeing pair must be refused, got {other:?}"),
        }
    }
    // Several clashes name the lowest region, whatever the map order.
    let many = |bytes| (0..64u64).map(|r| (RegionId(r), bytes)).collect();
    let err = engine()
        .with_region_sizes(many(Bytes::mib(1)))
        .with_security(SecurityConfig::new().with_region_sizes(many(Bytes::mib(2))))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("region R0 "), "{err}");
}

#[test]
fn an_agreeing_duplicate_prices_checkpoints_and_hops_alike() {
    let agreeing = || {
        engine()
            .with_region_sizes(sized(0, Bytes::mib(32)))
            .with_security(SecurityConfig::new().with_region_sizes(sized(0, Bytes::mib(32))))
            .with_resilience(
                ResilienceConfig::new(Seconds(5.0)).with_region_sizes(sized(0, Bytes::mib(32))),
            )
    };
    let crossed = hop(agreeing()).security.expect("confidential tasks ran");
    assert_eq!(crossed.sealed_bytes, Bytes::mib(32));

    let report = checkpointed(agreeing());
    let res = report.resilience.expect("resilience enabled");
    let sec = report.security.expect("confidential tasks ran");
    assert!(res.checkpoints > 0);
    // Every checkpoint wrote region 0, live and sealed, at the one size.
    assert_eq!(res.checkpoint_bytes, Bytes::mib(32) * res.checkpoints);
    assert_eq!(sec.sealed_bytes, res.checkpoint_bytes);

    // The aliases are the same declaration as the engine's own setter.
    let engine_only = || {
        engine()
            .with_region_sizes(sized(0, Bytes::mib(32)))
            .with_resilience(ResilienceConfig::new(Seconds(5.0)))
    };
    assert_eq!(checkpointed(engine_only()), report);
    assert_eq!(hop(engine_only()).security, Some(crossed));
}

#[test]
fn declared_sizes_near_u64_max_saturate_instead_of_overflowing() {
    let huge = Bytes(u64::MAX / 2 + 1);
    let sizes: HashMap<RegionId, Bytes> = (0..2u64).map(|r| (RegionId(r), huge)).collect();
    // Two writes of the huge regions: the interval plan sums them.
    let mut rt = engine()
        .with_region_sizes(sizes.clone())
        .with_resilience(ResilienceConfig::new(Seconds(5.0)))
        .build()
        .expect("valid engine config");
    for r in 0..2u64 {
        rt.submit(
            TaskDescriptor::named("w").with_work(Work::flops(1e9)),
            [(r, AccessMode::Out)],
        );
    }
    let report = rt.run().expect("a huge declaration still plans and runs");
    assert_eq!(report.placements.len(), 2);
    assert!(report.resilience.is_some());

    // One task writing both: a session seal sums them.
    let mut svc = ServiceConfig::new(engine().with_region_sizes(sizes))
        .build()
        .expect("valid config");
    let t = svc.register(TenantSpec::new()).expect("valid spec");
    svc.submit(
        t,
        TaskDescriptor::named("w").with_work(Work::flops(1e9)),
        [(0u64, AccessMode::Out), (1u64, AccessMode::Out)],
    )
    .expect("within budget");
    let _ = svc.run().expect("devices present");
    assert_eq!(svc.tenant_report(t).checkpoint_bytes, Bytes(u64::MAX));
}

#[test]
fn a_tenants_region_is_priced_once_under_its_engine_id() {
    let declared = Bytes::mib(32);
    // Tenant 1's session-local region 5 is engine region (1 << 32) | 5.
    let mut svc = ServiceConfig::new(engine().with_region_sizes(sized((1 << 32) | 5, declared)))
        .build()
        .expect("valid config");
    let public = svc.register(TenantSpec::new()).expect("valid spec");
    let tenant = svc
        .register(TenantSpec::new().confidential())
        .expect("valid spec");
    // A GPU-favoured (sealed-io) producer, then an enclave-only reader
    // that must run on the Xeon: the sealed region crosses once.
    svc.submit(
        tenant,
        TaskDescriptor::named("producer")
            .with_kind(TaskKind::Inference)
            .with_work(Work::flops(66e9)),
        [(5u64, AccessMode::Out)],
    )
    .expect("within budget");
    svc.submit(
        tenant,
        TaskDescriptor::named("reader")
            .with_work(Work::flops(1e9))
            .with_requirements(confidential(SecurityLevel::Enclave)),
        [(5u64, AccessMode::In)],
    )
    .expect("within budget");
    // Tenant 0's own region 5 is a different, undeclared region.
    svc.submit(
        public,
        TaskDescriptor::named("other").with_work(Work::flops(1e9)),
        [(5u64, AccessMode::Out)],
    )
    .expect("within budget");
    let report = svc.run().expect("devices present");
    let on = |name: &str| {
        let graph = svc.engine().graph();
        let id = (0..graph.len() as u64)
            .map(legato_core::task::TaskId)
            .find(|&id| graph.descriptor(id).expect("in range").name == name)
            .expect("submitted");
        svc.engine().outcome(id).expect("completed").devices[0]
    };
    assert_ne!(on("producer"), on("reader"), "the sealed region must cross");
    let sec = report.security.expect("confidential tasks ran");
    assert_eq!(
        sec.sealed_bytes, declared,
        "the hop seals the declared size"
    );
    assert_eq!(svc.tenant_report(tenant).checkpoint_bytes, declared);
    assert_eq!(svc.tenant_report(public).checkpoint_bytes, Bytes::ZERO);
}
