//! Class-priced plan ≡ per-device plan.
//!
//! [`per_device`] is the `prepare` loop [`SecurityState::prepare`] used
//! to be — one [`DeviceSecCost`] per device, every crossing divided out
//! per device, every attestation answered by a
//! [`QuoteCache::is_verified`] probe — kept here as the reference the
//! per-class [`SecurePlan`] with its producer and attestation exceptions
//! is compared against.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use legato_hw::device::{DeviceId, DeviceSpec};

use super::*;

/// The plan for one placement attempt, one cost per device; `None` when
/// the task needs no plan.
pub(crate) fn per_device(
    state: &SecurityState,
    regions: &RegionTable,
    devices: &[Device],
    accesses: &[(u32, AccessMode)],
    level: SecurityLevel,
    measurement: u64,
) -> Option<Vec<DeviceSecCost>> {
    let mut inputs = Vec::new();
    let mut boundary_bytes = Bytes::ZERO;
    for &(slot, mode) in accesses {
        let bytes = regions.bytes(slot);
        boundary_bytes += bytes;
        if let Some(producer) = regions.get(slot).filter(|p| p.sealed) {
            if mode.reads() && bytes > Bytes::ZERO {
                inputs.push((producer.device, bytes));
            }
        }
    }
    if level == SecurityLevel::Public && inputs.is_empty() {
        return None;
    }
    let costs = devices.iter().enumerate().map(|(i, device)| {
        let cap = &device.spec.tee;
        let mut cost = DeviceSecCost {
            eligible: true,
            ..DeviceSecCost::default()
        };
        for &(producer, bytes) in &inputs {
            if producer != i {
                cost.seal += bytes.time_at(devices[producer].spec.tee.crypto_bandwidth)
                    + bytes.time_at(cap.crypto_bandwidth);
                cost.crossed += bytes;
            }
        }
        if level.requires_enclave() {
            if !cap.has_enclave() {
                cost = DeviceSecCost::default(); // ineligible
            } else {
                cost.attest = !state.quotes.is_verified(i as u64, measurement);
                cost.enclave = cap.transition_time * (2.0 * f64::from(ENCLAVE_TRANSITIONS))
                    + boundary_bytes.time_at(cap.crypto_bandwidth)
                    + if cost.attest {
                        ATTESTATION_TIME
                    } else {
                        Seconds::ZERO
                    };
            }
        }
        cost
    });
    Some(costs.collect())
}

/// [`per_device`] reduced to what the scan reads: each device's extra
/// duration, `None` where the task must not run.
pub(crate) fn extras(
    state: &SecurityState,
    regions: &RegionTable,
    devices: &[Device],
    accesses: &[(u32, AccessMode)],
    level: SecurityLevel,
    measurement: u64,
) -> Option<Vec<Option<Seconds>>> {
    let costs = per_device(state, regions, devices, accesses, level, measurement)?;
    Some(
        costs
            .iter()
            .map(|c| c.eligible.then(|| c.total()))
            .collect(),
    )
}

fn bits(c: DeviceSecCost) -> (bool, u64, u64, Bytes, bool) {
    let DeviceSecCost {
        eligible,
        seal,
        enclave,
        crossed,
        attest,
    } = c;
    (
        eligible,
        seal.0.to_bits(),
        enclave.0.to_bits(),
        crossed,
        attest,
    )
}

const LEVELS: [SecurityLevel; 3] = [
    SecurityLevel::Public,
    SecurityLevel::Confidential,
    SecurityLevel::Enclave,
];

fn spec(rng: &mut SmallRng) -> DeviceSpec {
    match rng.gen_range(0..5) {
        0 => DeviceSpec::xeon_x86(),    // TEE, hardware crypto
        1 => DeviceSpec::gtx1080(),     // no TEE
        2 => DeviceSpec::fpga_kintex(), // no TEE
        3 => DeviceSpec::arm64(),       // TEE, software crypto
        _ => DeviceSpec::jetson_soc(),  // TEE, software crypto
    }
}

proptest! {
    /// Random walks over everything that feeds a plan — placements that
    /// commit (and attest), completions that move and (un)seal regions,
    /// arrivals, checkpoint snapshots and rollbacks to them — hold the
    /// class-priced plan to the per-device loop on every device, field by
    /// field, bit for bit.
    #[test]
    fn the_plan_matches_the_per_device_loop(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut devices: Vec<Device> = (0..rng.gen_range(1..24u64))
            .map(|i| Device::new(DeviceId(i), spec(&mut rng)))
            .collect();
        let mut classes = SpecClasses::new(&devices);
        // Six declared slots; a seventh is read and written undeclared.
        let sizes: Vec<Bytes> = (0..6).map(|_| Bytes::mib(rng.gen_range(0..40))).collect();
        let mut state = SecurityState::default();
        state.activate(&devices);
        let images: Vec<u64> = [b"detect".as_slice(), b"track"]
            .iter()
            .map(|code| state.ensure_enclaves(code).expect("two images fit"))
            .collect();
        let mut regions = RegionTable::sized(&sizes);
        let mut snapshot = Vec::new();
        for _ in 0..40 {
            match rng.gen_range(0..10) {
                0..=4 => {
                    let accesses: Vec<(u32, AccessMode)> = (0..rng.gen_range(0..5))
                        .map(|_| {
                            let mode = [AccessMode::In, AccessMode::Out, AccessMode::InOut];
                            (rng.gen_range(0..7), mode[rng.gen_range(0..3)])
                        })
                        .collect();
                    let level = LEVELS[rng.gen_range(0..3)];
                    let m = images[rng.gen_range(0..2)];
                    let reference = per_device(&state, &regions, &devices, &accesses, level, m);
                    let planned = state.prepare(&classes, &regions, accesses, level, m);
                    prop_assert_eq!(planned, reference.is_some());
                    let Some(reference) = reference else { continue };
                    for (d, &want) in reference.iter().enumerate() {
                        let c = classes.class_of(d);
                        prop_assert_eq!((d, bits(state.plan.cost(d, c))), (d, bits(want)));
                        prop_assert_eq!(
                            state.plan.admits(c).then(|| state.plan.extra(d, c)),
                            want.eligible.then(|| want.total())
                        );
                    }
                    // Place up to three replicas on distinct eligible
                    // devices, as the engine would.
                    let first = rng.gen_range(0..devices.len());
                    let eligible = (0..devices.len())
                        .map(|i| (first + i) % devices.len())
                        .filter(|&d| reference[d].eligible);
                    for d in eligible.take(rng.gen_range(0..4)) {
                        state.commit(d, classes.class_of(d)).expect("attestation succeeds");
                    }
                }
                5..=6 => regions.record(
                    [(rng.gen_range(0..7), AccessMode::Out)],
                    rng.gen_range(0..devices.len()),
                    LEVELS[rng.gen_range(0..3)],
                ),
                7 => {
                    let device = Device::new(DeviceId(devices.len() as u64), spec(&mut rng));
                    state.device_arrived(&device).expect("two images fit");
                    classes.add_device(&device.spec);
                    devices.push(device);
                }
                8 => snapshot.clone_from(&regions.residency),
                _ => regions.residency.clone_from(&snapshot),
            }
        }
    }
}
