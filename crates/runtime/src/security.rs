//! Enclave-aware execution mode: the paper's security pillar wired into
//! the event engine.
//!
//! [`SecurityLevel`] is a first-class scheduling dimension. The engine
//! enforces and prices it through this module:
//!
//! * **Placement rule** — a task at [`SecurityLevel::Enclave`] is only
//!   ever placed on devices whose
//!   [`TeeCapability`](legato_hw::device::TeeCapability) offers an
//!   enclave;
//!   when no such device exists the run fails with
//!   [`RuntimeError::NoSecurePlacement`] instead of silently degrading
//!   confidentiality.
//! * **Estimate costs** — every candidate device's scheduling
//!   [`Estimate`](crate::scheduler::Estimate) for a confidential task folds
//!   in the security overhead (world transitions, enclave-boundary
//!   crypto at the device's crypto bandwidth, pending attestation, and
//!   seal/unseal of sealed inputs produced on *other* devices), so the
//!   [`Policy`](crate::scheduler::Policy) ranks TEE-capable and
//!   hardware-crypto devices correctly rather than discovering the cost
//!   after committing the placement.
//! * **Attestation cache** — each TEE device runs a simulated
//!   [`Platform`]; the first placement of each enclave code image
//!   (measured from the task-type name) on each device performs a real
//!   attest/verify round through a [`QuoteCache`] and charges
//!   [`ATTESTATION_TIME`]; later placements of the same (enclave,
//!   device) pair are cache hits and pay nothing.
//! * **Seal-on-cross-device** — regions written by a confidential task
//!   are sealed at rest; the engine's region table (`regions.rs`) holds
//!   that bit beside the producing device, and rewinds both with every
//!   rollback. When a later task (of *any* level) reads such a
//!   region on a different device than the one that produced it, the
//!   crossing pays seal time at the producer's crypto bandwidth plus
//!   unseal time at the consumer's, charged to the consuming task's
//!   duration (the transfer cannot complete before both).
//!   Checkpoints route the same way: the sealed share of the live
//!   frontier is sealed at the host's software crypto rate on top of
//!   the FTI write cost, so resilience composes with security.
//!
//! The whole layer is pay-for-what-you-use: a run that never submits a
//! non-public task takes none of these paths and produces a bit-identical
//! [`RunReport`](crate::runtime::RunReport) to a security-unaware run
//! (pinned by proptest).

use std::collections::HashMap;

use legato_core::requirements::SecurityLevel;
use legato_core::task::AccessMode;
use legato_core::units::{Bytes, BytesPerSec, Seconds};
use legato_hw::device::Device;
use legato_secure::enclave::{measure, Platform, QuoteCache};
use legato_secure::task::{ExecutionMode, ATTESTATION_TIME};
use legato_secure::EnclaveId;
use serde::{Deserialize, Serialize};

use crate::classes::SpecClasses;
use crate::config::RegionSizes;
use crate::error::RuntimeError;
use crate::regions::RegionTable;

/// Configuration of the security layer
/// ([`EngineConfig::with_security`](crate::config::EngineConfig::with_security)).
///
/// The layer itself activates when the first non-public task is
/// submitted. Crypto and seal traffic is priced at the engine's declared
/// region sizes, the size checkpoints write and seal; an undeclared
/// region costs no crypto, but placement rules still apply.
#[derive(Debug, Clone, Default)]
#[must_use = "builder-style configs do nothing unless passed to EngineConfig"]
pub struct SecurityConfig {
    /// What the size-declaring alias setter declared, moved into the
    /// engine's one declaration at build.
    pub(crate) sizes: RegionSizes,
}

/// ecall/ocall pairs per enclave task execution — one in, one out; each
/// pair is two world switches of the device's
/// [`transition_time`](legato_hw::device::TeeCapability::transition_time).
const ENCLAVE_TRANSITIONS: u32 = 2;

/// Crypto throughput of checkpoint sealing: host-side, not tied to any
/// one device, so the software rate.
fn checkpoint_seal_bandwidth() -> BytesPerSec {
    ExecutionMode::SecureSoftware
        .crypto_bandwidth()
        .expect("software mode has a crypto bandwidth")
}

impl SecurityConfig {
    /// The security layer with no sizes declared beside it.
    pub fn new() -> Self {
        SecurityConfig::default()
    }
}

/// Security counters reported in
/// [`RunReport`](crate::runtime::RunReport). All zero unless the run
/// executed confidential tasks.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[must_use = "stats are counters for the caller to inspect; dropping them unread is a bug"]
pub struct SecurityStats {
    /// Replica executions of enclave-only tasks.
    pub enclave_tasks: u64,
    /// Replica executions of sealed-io (`Confidential`) tasks.
    pub confidential_tasks: u64,
    /// Time spent inside enclave machinery: world transitions,
    /// enclave-boundary crypto, and attestation rounds.
    pub enclave_time: Seconds,
    /// Time spent sealing/unsealing region traffic (cross-device hops
    /// and checkpoint writes).
    pub seal_time: Seconds,
    /// Bytes that went through seal/unseal (each crossing and each
    /// checkpointed sealed region counted once).
    pub sealed_bytes: Bytes,
    /// Attestation rounds performed (quote-cache misses; one per
    /// (enclave, device) pair).
    pub attestations: u64,
}

/// Security cost of placing the task being scheduled on one device, plus
/// the facts needed to commit it (stats breakdown, pending attestation).
/// Derived on demand by [`SecurePlan::cost`] — for the scan's estimate
/// and for the commit alike — never stored per device.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DeviceSecCost {
    /// Whether the task may run on this device at all (`false` only for
    /// enclave-only tasks on non-TEE devices).
    eligible: bool,
    /// Seal/unseal time for sealed inputs produced on other devices.
    seal: Seconds,
    /// Transition + boundary-crypto + pending-attestation time
    /// (enclave-only tasks).
    enclave: Seconds,
    /// Bytes crossing a device boundary sealed for this placement.
    crossed: Bytes,
    /// Whether committing this placement performs an attestation round.
    attest: bool,
}

impl DeviceSecCost {
    fn total(&self) -> Seconds {
        self.seal + self.enclave
    }
}

/// What the task being placed costs on any device of one spec class that
/// produced none of its sealed inputs and already holds a verified quote
/// — trust and crypto rates are properties of the class.
#[derive(Debug, Clone, Copy, Default)]
struct ClassSecCost {
    /// `false` only for an enclave-only task on a class without a TEE.
    eligible: bool,
    /// Every sealed input crossing onto this class: seal at its
    /// producer's rate plus unseal at the class's.
    seal: Seconds,
    /// Transitions + boundary crypto (enclave-only tasks).
    enclave: Seconds,
    /// The class's crypto rate, to re-price the crossings of a device
    /// that produced some of the inputs itself.
    crypto: BytesPerSec,
}

/// The security plan for the task currently being placed: one price per
/// spec class, with per-device exceptions only for the (≤ #inputs)
/// devices that produced a sealed input — those crossings are free there
/// — and for devices not yet attested for the task's code image. Rebuilt
/// by [`SecurityState::prepare`] before each placement attempt in
/// O(classes × inputs), not O(devices); buffers are reused across tasks
/// so steady-state placement stays allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct SecurePlan {
    level: SecurityLevel,
    measurement: u64,
    /// Row of `attested` holding `measurement`'s image.
    image: usize,
    classes: Vec<ClassSecCost>,
    /// Sealed inputs of the task as `(producer device, bytes, seal time
    /// at the producer's crypto rate)`.
    inputs: Vec<(usize, Bytes, Seconds)>,
    /// Total bytes of `inputs`.
    crossed: Bytes,
    /// Per code image, one bit per device: set once the device holds a
    /// verified quote for the image ([`SecurityState::commit`]) —
    /// [`QuoteCache::is_verified`] without the per-device hash probe.
    /// Words past the end read as zero, so arrivals need no resize.
    attested: Vec<Vec<u64>>,
}

impl SecurePlan {
    /// The cost of the prepared task on device `d` of spec class `c`:
    /// the class price, corrected for what only this device knows.
    #[inline]
    fn cost(&self, d: usize, c: usize) -> DeviceSecCost {
        let class = &self.classes[c];
        if !class.eligible {
            return DeviceSecCost::default();
        }
        let (seal, crossed) = if self.inputs.iter().any(|&(producer, ..)| producer == d) {
            self.crossings_onto(d, class.crypto)
        } else {
            (class.seal, self.crossed)
        };
        let attest = self.level.requires_enclave()
            && self.attested[self.image]
                .get(d / 64)
                .is_none_or(|word| word >> (d % 64) & 1 == 0);
        let pending = if attest {
            ATTESTATION_TIME
        } else {
            Seconds::ZERO
        };
        DeviceSecCost {
            eligible: true,
            seal,
            enclave: class.enclave + pending,
            crossed,
            attest,
        }
    }

    /// Seal time and bytes of the sealed inputs that cross onto device
    /// `d`, which produced some of them itself: the fold `prepare` ran
    /// for `d`'s class, minus the inputs that never leave the device.
    #[inline(never)] // at most #inputs devices per scan; keeps `cost` small enough to inline
    fn crossings_onto(&self, d: usize, crypto: BytesPerSec) -> (Seconds, Bytes) {
        let (mut seal, mut crossed) = (Seconds::ZERO, Bytes::ZERO);
        for &(producer, bytes, at_producer) in &self.inputs {
            if producer != d {
                seal += at_producer + bytes.time_at(crypto);
                crossed += bytes;
            }
        }
        (seal, crossed)
    }

    /// Whether the task may run on spec class `c`: the per-class mask a
    /// placement skips a class by, whole.
    #[inline]
    pub(crate) fn admits(&self, c: usize) -> bool {
        self.classes[c].eligible
    }

    /// Extra execution duration on device `d` of a class the plan
    /// [admits](SecurePlan::admits): the class price, corrected for a
    /// producer of a sealed input or a device not yet attested.
    #[inline]
    pub(crate) fn extra(&self, d: usize, c: usize) -> Seconds {
        self.cost(d, c).total()
    }
}

/// An enclave code image the layer has seen.
#[derive(Debug, Clone)]
struct Image {
    code: Vec<u8>,
    /// Row of [`SecurePlan::attested`] holding this image's bits.
    slot: usize,
    /// Every platform hosts an enclave for the image. Set only after a
    /// provisioning pass *succeeded* — a platform that refused must
    /// refuse again — and kept true by [`SecurityState::device_arrived`].
    provisioned: bool,
}

/// Live security state carried by the
/// [`Runtime`](crate::runtime::Runtime) alongside the engine.
#[derive(Debug, Clone, Default)]
pub(crate) struct SecurityState {
    /// Set when the first non-public task is submitted; every security
    /// code path is gated on it, so all-public runs never pay.
    pub active: bool,
    /// One simulated TEE platform per device (index-aligned; `None` for
    /// devices without enclave support).
    platforms: Vec<Option<Platform>>,
    /// `(device, measurement)` → enclave hosting that code image.
    enclaves: HashMap<(usize, u64), EnclaveId>,
    /// Measurement → code image, for every task type that has run
    /// through [`SecurityState::ensure_enclaves`]. A device that arrives
    /// mid-run (churn) replays these so deferred or re-spread enclave
    /// tasks can commit to it without the task name in hand.
    images: HashMap<u64, Image>,
    /// Verifier-side attestation cache (one attestation per
    /// (enclave, device) pair). A rollback leaves it alone: attestations
    /// really happened, like spent energy.
    quotes: QuoteCache,
    /// The plan for the task being placed.
    pub(crate) plan: SecurePlan,
    pub stats: SecurityStats,
}

impl SecurityState {
    /// Activate the layer: instantiate one simulated [`Platform`] per
    /// TEE-capable device. Called when the first non-public task is
    /// submitted; idempotent.
    pub(crate) fn activate(&mut self, devices: &[Device]) {
        if self.active {
            return;
        }
        self.active = true;
        self.platforms = devices
            .iter()
            .map(|d| {
                d.spec.tee.has_enclave().then(|| {
                    Platform::new(
                        platform_key(d.id.0),
                        d.spec.tee.execution_mode() == ExecutionMode::SecureHardware,
                    )
                })
            })
            .collect();
    }

    /// Grow the per-device platform table for a device that arrived
    /// mid-run (churn), and replay every known code image onto it so
    /// already-analysed enclave tasks (deferred placements, crash
    /// re-spreads) can commit to the newcomer — their `ensure_enclaves`
    /// pass ran before this device existed, and at re-dispatch time only
    /// the measurement survives, not the task name. While the layer is
    /// inactive this is a no-op: [`SecurityState::activate`] builds the
    /// table from the full device list when the first non-public task is
    /// submitted.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Security`] when the new platform refuses an
    /// enclave (64-enclave limit).
    pub(crate) fn device_arrived(&mut self, device: &Device) -> Result<(), RuntimeError> {
        if !self.active {
            return Ok(());
        }
        let mut platform = device.spec.tee.has_enclave().then(|| {
            Platform::new(
                platform_key(device.id.0),
                device.spec.tee.execution_mode() == ExecutionMode::SecureHardware,
            )
        });
        let d = self.platforms.len();
        if let Some(platform) = &mut platform {
            // Sorted by measurement: enclave ids are allocated in
            // creation order, and churn replays must stay bit-identical
            // across runs of the same seed. Nothing is recorded until
            // every image is in, so a refusal leaves the tables aligned
            // with the fleet.
            let mut measured: Vec<(u64, &Image)> =
                self.images.iter().map(|(&m, image)| (m, image)).collect();
            measured.sort_by_key(|&(m, _)| m);
            let mut created = Vec::with_capacity(measured.len());
            for (m, image) in measured {
                let id = platform
                    .create_enclave(&image.code)
                    .map_err(|e| RuntimeError::Security(e.to_string()))?;
                created.push(((d, m), id));
            }
            self.enclaves.extend(created);
        }
        self.platforms.push(platform);
        Ok(())
    }

    /// Ensure every TEE device hosts an enclave for `code` (the task-type
    /// name); returns the code measurement used as the enclave identity.
    /// O(1) after the first successful pass for an image.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Security`] when a platform refuses the enclave
    /// (64-enclave limit).
    pub(crate) fn ensure_enclaves(&mut self, code: &[u8]) -> Result<u64, RuntimeError> {
        let m = measure(code);
        let next_slot = self.images.len();
        let image = self.images.entry(m).or_insert_with(|| Image {
            code: code.to_vec(),
            slot: next_slot,
            provisioned: false,
        });
        if image.provisioned {
            return Ok(m);
        }
        if self.plan.attested.len() <= image.slot {
            self.plan.attested.resize(image.slot + 1, Vec::new());
        }
        for (d, platform) in self.platforms.iter_mut().enumerate() {
            let Some(platform) = platform else { continue };
            if let std::collections::hash_map::Entry::Vacant(slot) = self.enclaves.entry((d, m)) {
                let id = platform
                    .create_enclave(code)
                    .map_err(|e| RuntimeError::Security(e.to_string()))?;
                slot.insert(id);
            }
        }
        image.provisioned = true;
        Ok(m)
    }

    /// Build the [`SecurePlan`] for one placement attempt of a task at
    /// `level` with the given declared `accesses` (by slot), against the
    /// region sizes and residency in `regions`. Returns whether the plan
    /// imposes any cost or restriction — when `false` the caller skips
    /// the security path entirely (the common case for public tasks that
    /// touch no sealed data).
    pub(crate) fn prepare(
        &mut self,
        classes: &SpecClasses,
        regions: &RegionTable,
        accesses: impl IntoIterator<Item = (u32, AccessMode)>,
        level: SecurityLevel,
        measurement: u64,
    ) -> bool {
        let plan = &mut self.plan;
        plan.inputs.clear();
        // Sealed inputs: read regions whose last writer was confidential.
        let mut boundary_bytes = Bytes::ZERO;
        for (slot, mode) in accesses {
            let bytes = regions.bytes(slot);
            boundary_bytes += bytes;
            if !mode.reads() || bytes == Bytes::ZERO {
                continue;
            }
            if let Some(at) = regions.get(slot).filter(|at| at.sealed) {
                let rate = classes.tees()[classes.class_of(at.device)].crypto_bandwidth;
                plan.inputs.push((at.device, bytes, bytes.time_at(rate)));
            }
        }
        if level == SecurityLevel::Public && plan.inputs.is_empty() {
            return false;
        }
        plan.level = level;
        plan.measurement = measurement;
        if level.requires_enclave() {
            plan.image = self.images[&measurement].slot;
        }
        plan.crossed = plan.inputs.iter().map(|&(_, bytes, _)| bytes).sum();
        plan.classes.clear();
        for (c, cap) in classes.tees().iter().enumerate() {
            if !classes.admits(c, level) {
                plan.classes.push(ClassSecCost::default()); // ineligible
                continue;
            }
            let mut cost = ClassSecCost {
                eligible: true,
                crypto: cap.crypto_bandwidth,
                ..ClassSecCost::default()
            };
            for &(_, bytes, at_producer) in &plan.inputs {
                // The crossing pays seal at the producer's rate and
                // unseal at the consumer's; both gate the task start,
                // so both are charged to the consuming placement.
                cost.seal += at_producer + bytes.time_at(cap.crypto_bandwidth);
            }
            if level.requires_enclave() {
                cost.enclave = cap.transition_time * (2.0 * f64::from(ENCLAVE_TRANSITIONS))
                    + boundary_bytes.time_at(cap.crypto_bandwidth);
            }
            plan.classes.push(cost);
        }
        true
    }

    /// Commit the prepared plan for one replica placed on device `d`:
    /// accumulate the stats the estimate already priced, and perform the
    /// attestation round on a quote-cache miss.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Security`] when attestation fails (it cannot for
    /// enclaves this state created itself, but the error path is kept
    /// honest).
    pub(crate) fn commit(&mut self, d: usize, class: usize) -> Result<(), RuntimeError> {
        let cost = self.plan.cost(d, class);
        debug_assert!(cost.eligible, "committed placement must be eligible");
        self.stats.seal_time += cost.seal;
        self.stats.sealed_bytes += cost.crossed;
        match self.plan.level {
            SecurityLevel::Enclave => {
                self.stats.enclave_tasks += 1;
                self.stats.enclave_time += cost.enclave;
                debug_assert_eq!(
                    cost.attest,
                    !self.quotes.is_verified(d as u64, self.plan.measurement),
                    "attestation bits mirror the quote cache"
                );
                if cost.attest {
                    let platform = self.platforms[d]
                        .as_ref()
                        .expect("enclave placement implies a TEE platform");
                    let enclave = self.enclaves[&(d, self.plan.measurement)];
                    self.quotes
                        .attest_once(d as u64, platform, enclave, self.plan.measurement)
                        .map_err(|e| RuntimeError::Security(e.to_string()))?;
                    let bits = &mut self.plan.attested[self.plan.image];
                    if bits.len() <= d / 64 {
                        bits.resize(d / 64 + 1, 0);
                    }
                    bits[d / 64] |= 1 << (d % 64);
                    self.stats.attestations += 1;
                }
            }
            SecurityLevel::Confidential => self.stats.confidential_tasks += 1,
            SecurityLevel::Public => {}
        }
        Ok(())
    }

    /// Charge checkpoint sealing: `bytes` routed through seal at the
    /// host-side software rate. Returns the added write time.
    pub(crate) fn charge_checkpoint_seal(&mut self, bytes: Bytes) -> Seconds {
        if bytes == Bytes::ZERO {
            return Seconds::ZERO;
        }
        let time = bytes.time_at(checkpoint_seal_bandwidth());
        self.stats.seal_time += time;
        self.stats.sealed_bytes += bytes;
        time
    }
}

/// Device-unique platform key (SplitMix64 of the device id), so sealing
/// keys and quote bindings differ across devices deterministically.
fn platform_key(device_id: u64) -> u64 {
    let mut z = device_id.wrapping_add(0xA076_1D64_78BD_642F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
pub(crate) mod prepare_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use legato_hw::device::{DeviceId, DeviceSpec};

    /// Three devices of three spec classes: class index = device index.
    fn devices() -> Vec<Device> {
        vec![
            Device::new(DeviceId(0), DeviceSpec::xeon_x86()), // TEE hw
            Device::new(DeviceId(1), DeviceSpec::gtx1080()),  // no TEE
            Device::new(DeviceId(2), DeviceSpec::arm64()),    // TEE sw
        ]
    }

    /// Eight 32 MiB regions, slot `s` = region `s`.
    fn sized() -> RegionTable {
        RegionTable::sized(&[Bytes::mib(32); 8])
    }

    #[test]
    fn enclave_tasks_are_ineligible_on_non_tee_devices() {
        let devices = devices();
        let mut state = SecurityState::default();
        state.activate(&devices);
        let m = state.ensure_enclaves(b"detector").unwrap();
        let accesses = [(0, AccessMode::InOut)];
        assert!(state.prepare(
            &SpecClasses::new(&devices),
            &sized(),
            accesses,
            SecurityLevel::Enclave,
            m
        ));
        assert!(state.plan.admits(0), "xeon hosts enclaves");
        assert!(!state.plan.admits(1), "gpu must be ineligible");
        assert!(state.plan.admits(2), "arm hosts enclaves");
    }

    #[test]
    fn hardware_crypto_is_cheaper_than_software() {
        let devices = devices();
        let mut state = SecurityState::default();
        state.activate(&devices);
        let m = state.ensure_enclaves(b"detector").unwrap();
        let accesses = [(0, AccessMode::InOut)];
        state.prepare(
            &SpecClasses::new(&devices),
            &sized(),
            accesses,
            SecurityLevel::Enclave,
            m,
        );
        let hw = state.plan.extra(0, 0);
        let sw = state.plan.extra(2, 2);
        assert!(
            hw.0 * 4.0 < sw.0,
            "hardware crypto must be far cheaper: {hw} vs {sw}"
        );
    }

    #[test]
    fn public_task_with_no_sealed_inputs_has_no_plan() {
        let devices = devices();
        let mut state = SecurityState::default();
        state.activate(&devices);
        let accesses = [(0, AccessMode::In), (1, AccessMode::Out)];
        assert!(!state.prepare(
            &SpecClasses::new(&devices),
            &sized(),
            accesses,
            SecurityLevel::Public,
            0
        ));
    }

    #[test]
    fn sealed_crossing_charged_only_when_devices_differ() {
        let devices = devices();
        let mut state = SecurityState::default();
        state.activate(&devices);
        // Region 0 was produced by a confidential task on device 0.
        let mut regions = sized();
        regions.record([(0, AccessMode::Out)], 0, SecurityLevel::Confidential);
        let accesses = [(0, AccessMode::In)];
        assert!(state.prepare(
            &SpecClasses::new(&devices),
            &regions,
            accesses,
            SecurityLevel::Public,
            0
        ));
        assert_eq!(
            state.plan.extra(0, 0),
            Seconds::ZERO,
            "same device: no crossing"
        );
        let crossing = state.plan.extra(1, 1);
        assert!(crossing > Seconds::ZERO, "crossing must pay seal/unseal");
        // Seal at producer (hw rate) + unseal at consumer (sw rate).
        let bytes = Bytes::mib(32);
        let expected = bytes.time_at(devices[0].spec.tee.crypto_bandwidth)
            + bytes.time_at(devices[1].spec.tee.crypto_bandwidth);
        assert!((crossing.0 - expected.0).abs() < 1e-12);
    }

    #[test]
    fn public_rewrite_unseals_a_region() {
        let devices = devices();
        let mut state = SecurityState::default();
        state.activate(&devices);
        let mut regions = sized();
        regions.record([(0, AccessMode::Out)], 0, SecurityLevel::Confidential);
        // A public task overwrites the region: its new contents are not
        // confidential, so readers stop paying seal costs.
        regions.record([(0, AccessMode::Out)], 1, SecurityLevel::Public);
        let accesses = [(0, AccessMode::In)];
        assert!(!state.prepare(
            &SpecClasses::new(&devices),
            &regions,
            accesses,
            SecurityLevel::Public,
            0
        ));
    }

    #[test]
    fn commit_counts_attestation_once_per_device() {
        let devices = devices();
        let mut state = SecurityState::default();
        state.activate(&devices);
        let m = state.ensure_enclaves(b"detector").unwrap();
        let accesses = [(0, AccessMode::InOut)];
        state.prepare(
            &SpecClasses::new(&devices),
            &sized(),
            accesses,
            SecurityLevel::Enclave,
            m,
        );
        state.commit(0, 0).unwrap();
        assert_eq!(state.stats.attestations, 1);
        // Second placement of the same code on the same device: cache hit.
        state.prepare(
            &SpecClasses::new(&devices),
            &sized(),
            accesses,
            SecurityLevel::Enclave,
            m,
        );
        assert!(!state.plan.cost(0, 0).attest);
        state.commit(0, 0).unwrap();
        assert_eq!(state.stats.attestations, 1);
        // A different device is a different (enclave, device) pair.
        state.commit(2, 2).unwrap();
        assert_eq!(state.stats.attestations, 2);
        assert_eq!(state.stats.enclave_tasks, 3);
    }

    #[test]
    fn a_full_platform_refuses_the_same_image_again() {
        let devices = devices();
        let mut state = SecurityState::default();
        state.activate(&devices);
        // 64 images fill every platform; the 65th is refused — and stays
        // refused: a failed pass must not mark the image provisioned.
        let images: Vec<String> = (0..65).map(|i| format!("image-{i}")).collect();
        for code in &images[..64] {
            state.ensure_enclaves(code.as_bytes()).expect("fits");
        }
        for _ in 0..2 {
            assert!(matches!(
                state.ensure_enclaves(images[64].as_bytes()),
                Err(RuntimeError::Security(_))
            ));
        }
        // The provisioned ones answer from the flag, and still commit.
        let m = state.ensure_enclaves(images[3].as_bytes()).expect("known");
        state.prepare(
            &SpecClasses::new(&devices),
            &sized(),
            [],
            SecurityLevel::Enclave,
            m,
        );
        state.commit(2, 2).unwrap();
        assert_eq!(state.stats.attestations, 1);
    }

    #[test]
    fn a_device_arriving_after_provisioning_can_be_committed_to() {
        let mut devices = devices();
        let mut state = SecurityState::default();
        state.activate(&devices);
        let m = state.ensure_enclaves(b"detector").unwrap();
        let late = Device::new(DeviceId(3), DeviceSpec::xeon_x86());
        state.device_arrived(&late).expect("one image fits");
        devices.push(late);
        let classes = SpecClasses::new(&devices);
        // O(1) now — the arrival replayed the image onto the newcomer.
        assert_eq!(state.ensure_enclaves(b"detector"), Ok(m));
        let regions = sized();
        state.prepare(&classes, &regions, [], SecurityLevel::Enclave, m);
        assert!(state.plan.cost(3, 0).attest, "never attested yet");
        state.commit(3, 0).expect("the newcomer hosts the enclave");
        state.prepare(&classes, &regions, [], SecurityLevel::Enclave, m);
        assert!(!state.plan.cost(3, 0).attest);
        assert!(state.plan.cost(0, 0).attest, "same class, own quote");
        assert_eq!(state.stats.attestations, 1);
    }

    #[test]
    fn attestation_bits_survive_a_rollback_restore() {
        let devices = devices();
        let classes = SpecClasses::new(&devices);
        let mut state = SecurityState::default();
        state.activate(&devices);
        let m = state.ensure_enclaves(b"detector").unwrap();
        let mut regions = sized();
        let snap = regions.residency.clone();
        state.prepare(&classes, &regions, [], SecurityLevel::Enclave, m);
        state.commit(0, 0).unwrap();
        // Attestations really happened: rewinding region residency to
        // before the placement does not forget the quote.
        regions.residency.clone_from(&snap);
        state.prepare(&classes, &regions, [], SecurityLevel::Enclave, m);
        assert!(!state.plan.cost(0, 0).attest);
        assert!(state.plan.cost(2, 2).attest);
        state.commit(0, 0).unwrap();
        assert_eq!(state.stats.attestations, 1);
    }

    #[test]
    fn checkpoint_sealing_charges_time_and_bytes() {
        let mut state = SecurityState::default();
        assert_eq!(state.charge_checkpoint_seal(Bytes::ZERO), Seconds::ZERO);
        let t = state.charge_checkpoint_seal(Bytes::mib(64));
        assert!(t > Seconds::ZERO);
        assert_eq!(state.stats.sealed_bytes, Bytes::mib(64));
        assert_eq!(state.stats.seal_time, t);
    }

    #[test]
    fn snapshot_restore_rewinds_region_confidentiality() {
        let devices = devices();
        let mut state = SecurityState::default();
        state.activate(&devices);
        // Checkpoint-time state: region 0 sealed (produced on device 0).
        let mut regions = sized();
        regions.record([(0, AccessMode::Out)], 0, SecurityLevel::Confidential);
        let snap = regions.residency.clone();
        // Post-checkpoint (to-be-discarded) writes: region 0 rewritten
        // public on device 1, region 1 newly sealed.
        regions.record([(0, AccessMode::Out)], 1, SecurityLevel::Public);
        regions.record([(1, AccessMode::Out)], 1, SecurityLevel::Confidential);
        regions.residency.clone_from(&snap);
        // Region 0 is sealed again (its restored contents are the
        // confidential write), region 1 is not (its write was discarded).
        let classes = SpecClasses::new(&devices);
        let reads0 = [(0, AccessMode::In)];
        assert!(state.prepare(&classes, &regions, reads0, SecurityLevel::Public, 0));
        assert!(state.plan.extra(1, 1) > Seconds::ZERO);
        let reads1 = [(1, AccessMode::In)];
        assert!(!state.prepare(&classes, &regions, reads1, SecurityLevel::Public, 0));
        // A snapshot from before anything was written restores to the
        // empty state.
        regions.residency.clear();
        assert!(!state.prepare(&classes, &regions, reads0, SecurityLevel::Public, 0));
    }
}
