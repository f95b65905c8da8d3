//! Spec classes: the fleet deduplicated by [`DeviceSpec`].
//!
//! A LEGaTO fleet is many copies of a few microserver types, so what
//! placement derives from a spec — the roofline duration of the task
//! being placed, the busy power, the TEE capability — is a fact of the
//! device's *class*, not of the device. The
//! [`Runtime`](crate::runtime::Runtime) owns one table; the placement
//! search and the security plan price a class once per task and read
//! the price per candidate.

use legato_core::requirements::SecurityLevel;
use legato_core::task::{TaskKind, Work};
use legato_core::units::{Seconds, Watt};
use legato_hw::device::{Device, DeviceSpec, TeeCapability};

use crate::error::RuntimeError;

/// The class of every device and the per-class facts placement reads.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpecClasses {
    /// Class of each device.
    class_of: Vec<u32>,
    /// The spec every member of a class carries.
    specs: Vec<DeviceSpec>,
    /// Per class: the roofline duration of the task being placed — a
    /// scratch [`SpecClasses::price`] rewrites per task — beside the
    /// class's busy power.
    prices: Vec<(Seconds, Watt)>,
    /// TEE capability per class.
    tee: Vec<TeeCapability>,
    /// Per security level (`level as usize`): the devices whose class
    /// admits it, departed ones included.
    eligible: [usize; LEVELS.len()],
    /// The first spec of the build-time fleet the cost model cannot
    /// price; [`Runtime::run`](crate::runtime::Runtime::run) refuses to
    /// start on it.
    invalid: Option<RuntimeError>,
}

impl SpecClasses {
    /// Classify a build-time fleet. Infallible, like
    /// [`Runtime::new`](crate::runtime::Runtime::new): an unusable spec
    /// is recorded for [`SpecClasses::check`] instead of refused.
    pub(crate) fn new(devices: &[Device]) -> Self {
        let mut classes = SpecClasses::default();
        for (d, device) in devices.iter().enumerate() {
            let opens = classes.specs.len();
            if classes.add_device(&device.spec) == opens && classes.invalid.is_none() {
                classes.invalid = validate(d, &device.spec).err();
            }
        }
        classes
    }

    /// The recorded build-time finding, if any. O(1) on a valid fleet.
    pub(crate) fn check(&self) -> Result<(), RuntimeError> {
        self.invalid.clone().map_or(Ok(()), Err)
    }

    /// Whether `new`, about to join the fleet, may: a spec no class
    /// carries yet must be one the cost model can price. Checked before
    /// the arrival changes anything.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidParameter`] naming the device and the
    /// field.
    pub(crate) fn vet(&self, new: &Device) -> Result<(), RuntimeError> {
        match self.find(&new.spec) {
            Some(_) => Ok(()),
            None => validate(new.id.0 as usize, &new.spec),
        }
    }

    /// Classify the device that joins next, re-deduping its spec against
    /// the existing classes; returns its class.
    pub(crate) fn add_device(&mut self, spec: &DeviceSpec) -> usize {
        let class = self.find(spec).unwrap_or_else(|| {
            self.specs.push(spec.clone());
            self.prices.push((Seconds::ZERO, spec.busy_power));
            self.tee.push(spec.tee);
            self.specs.len() - 1
        });
        self.class_of.push(class as u32);
        for (n, &level) in self.eligible.iter_mut().zip(&LEVELS) {
            *n += usize::from(admits(self.tee[class], level));
        }
        class
    }

    fn find(&self, spec: &DeviceSpec) -> Option<usize> {
        self.specs.iter().position(|s| s == spec)
    }

    /// Class of every device, indexed by device.
    #[inline]
    pub(crate) fn class_of_slice(&self) -> &[u32] {
        &self.class_of
    }

    /// Class of device `d`.
    #[inline]
    pub(crate) fn class_of(&self, d: usize) -> usize {
        self.class_of[d] as usize
    }

    /// The spec of every member of `class`.
    pub(crate) fn spec(&self, class: usize) -> &DeviceSpec {
        &self.specs[class]
    }

    /// TEE capability of every class, indexed by class.
    pub(crate) fn tees(&self) -> &[TeeCapability] {
        &self.tee
    }

    /// Run the roofline once per class for the task about to be placed,
    /// so [`SpecClasses::price_of`] is bit for bit what `spec.time_for`
    /// returns on any member.
    #[inline]
    pub(crate) fn price(&mut self, work: Work, kind: TaskKind) {
        for (price, spec) in self.prices.iter_mut().zip(&self.specs) {
            price.0 = spec.time_for(work, kind);
        }
    }

    /// Duration of the priced task on a device of `class`, and the
    /// class's busy power.
    #[inline]
    pub(crate) fn price_of(&self, class: usize) -> (Seconds, Watt) {
        self.prices[class]
    }

    /// [`SpecClasses::price_of`] every class, indexed by class.
    pub(crate) fn prices(&self) -> &[(Seconds, Watt)] {
        &self.prices
    }

    /// Whether a task at `level` may run on a device of `class` — the
    /// one feasibility rule the engine places by and the analyzer
    /// predicts with.
    #[inline]
    pub(crate) fn admits(&self, class: usize, level: SecurityLevel) -> bool {
        admits(self.tee[class], level)
    }

    /// Number of devices a task at `level` may be placed on, restricted
    /// to the churn layer's availability mask: a departed or draining
    /// device no longer counts. `None` is the fixed fleet, answered from
    /// a counter, as is a level every device admits under churn.
    pub(crate) fn eligible_devices(&self, level: SecurityLevel, avail: Option<&[bool]>) -> usize {
        let fleet = self.eligible[level as usize];
        match avail {
            None => fleet,
            Some(avail) if fleet == avail.len() => avail.iter().filter(|&&up| up).count(),
            Some(avail) => self
                .class_of
                .iter()
                .zip(avail)
                .filter(|&(&c, &up)| up && self.admits(c as usize, level))
                .count(),
        }
    }
}

/// Every security level, in `level as usize` order.
pub(crate) const LEVELS: [SecurityLevel; 3] = [
    SecurityLevel::Public,
    SecurityLevel::Confidential,
    SecurityLevel::Enclave,
];

/// The rule behind [`SpecClasses::admits`], for a capability no class
/// carries yet (a churn arrival): an enclave-only task needs a device
/// that hosts enclaves, and every other task may use any device.
pub(crate) fn admits(tee: TeeCapability, level: SecurityLevel) -> bool {
    !level.requires_enclave() || tee.has_enclave()
}

/// The cost model divides by the rates and meters the powers: a zero,
/// negative or non-finite value would panic (or schedule nonsense) in
/// the middle of a run, so it is refused where the class is created.
fn validate(d: usize, spec: &DeviceSpec) -> Result<(), RuntimeError> {
    // (field, value, whether zero is legal)
    let priced = [
        ("peak_flops", spec.peak_flops, false),
        ("mem_bandwidth", spec.mem_bandwidth.0, false),
        ("tee.crypto_bandwidth", spec.tee.crypto_bandwidth.0, false),
        ("busy_power", spec.busy_power.0, true),
        ("idle_power", spec.idle_power.0, true),
        ("tee.transition_time", spec.tee.transition_time.0, true),
    ];
    let legal = |v: f64, zero: bool| v.is_finite() && (v > 0.0 || (zero && v == 0.0));
    match priced.iter().find(|&&(_, v, zero)| !legal(v, zero)) {
        None => Ok(()),
        Some(&(field, v, zero)) => {
            let domain = if zero { "non-negative" } else { "positive" };
            let name = &spec.name;
            Err(RuntimeError::invalid_parameter(
                field,
                format!("device {d} ({name}): must be finite and {domain}, got {v}"),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{ChurnConfig, ChurnEvent, ChurnEventKind, ChurnTrace};
    use crate::config::EngineConfig;
    use crate::runtime::Runtime;
    use crate::scheduler::Policy;
    use legato_core::requirements::Requirements;
    use legato_core::task::{AccessMode, TaskDescriptor};
    use legato_core::units::BytesPerSec;
    use legato_hw::device::DeviceId;

    fn task(level: SecurityLevel) -> TaskDescriptor {
        TaskDescriptor::named("t")
            .with_work(Work::flops(1e9))
            .with_requirements(Requirements::new().with_security(level))
    }

    fn is_invalid(result: Result<impl std::fmt::Debug, RuntimeError>, field: &str, device: &str) {
        match result {
            Err(RuntimeError::InvalidParameter { name, reason }) => {
                assert_eq!(name, field);
                assert!(reason.starts_with(device), "{reason}");
            }
            other => panic!("expected InvalidParameter({field}), got {other:?}"),
        }
    }

    /// `build` refuses the fleet; `Runtime::new` cannot, so `run` and
    /// `step` do — at entry, before any event.
    fn refused_everywhere(fleet: Vec<DeviceSpec>, level: SecurityLevel, field: &str, dev: &str) {
        is_invalid(
            EngineConfig::new().with_devices(fleet.clone()).build(),
            field,
            dev,
        );
        let mut rt = Runtime::new(fleet, Policy::Performance, 1);
        for r in 0..3u64 {
            rt.submit(task(level), [(r, AccessMode::Out)]);
        }
        is_invalid(rt.run(), field, dev);
        is_invalid(rt.step(), field, dev);
        assert!(rt.report().placements.is_empty(), "nothing was scheduled");
    }

    #[test]
    fn zero_crypto_bandwidth_is_refused_not_a_panic_in_prepare() {
        let mut spec = DeviceSpec::xeon_x86();
        spec.tee.crypto_bandwidth = BytesPerSec(0.0);
        refused_everywhere(
            vec![spec],
            SecurityLevel::Enclave,
            "tee.crypto_bandwidth",
            "device 0 ",
        );
    }

    #[test]
    fn zero_peak_flops_is_refused_not_a_panic_in_the_meter() {
        let mut spec = DeviceSpec::arm64();
        spec.peak_flops = 0.0;
        refused_everywhere(
            vec![DeviceSpec::xeon_x86(), spec],
            SecurityLevel::Public,
            "peak_flops",
            "device 1 ",
        );
    }

    #[test]
    fn nan_peak_flops_is_refused_not_a_zero_makespan() {
        let mut spec = DeviceSpec::gtx1080();
        spec.peak_flops = f64::NAN;
        refused_everywhere(
            vec![spec, DeviceSpec::xeon_x86()],
            SecurityLevel::Public,
            "peak_flops",
            "device 0 ",
        );
    }

    #[test]
    fn every_priced_field_is_checked() {
        type Break = fn(&mut DeviceSpec);
        let hostile: [(&str, Break); 6] = [
            ("peak_flops", |s| s.peak_flops = f64::INFINITY),
            ("mem_bandwidth", |s| s.mem_bandwidth = BytesPerSec(-1.0)),
            ("tee.crypto_bandwidth", |s| {
                s.tee.crypto_bandwidth = BytesPerSec(f64::NAN);
            }),
            ("busy_power", |s| s.busy_power = Watt(-1.0)),
            ("idle_power", |s| s.idle_power = Watt(f64::NAN)),
            ("tee.transition_time", |s| {
                s.tee.transition_time = Seconds(f64::INFINITY);
            }),
        ];
        for (field, break_it) in hostile {
            let mut spec = DeviceSpec::xeon_x86();
            break_it(&mut spec);
            is_invalid(validate(4, &spec), field, "device 4 ");
        }
        let mut idle = DeviceSpec::xeon_x86();
        idle.idle_power = Watt(0.0);
        assert_eq!(validate(0, &idle), Ok(()), "zero power is a legal draw");
    }

    #[test]
    fn a_hostile_arrival_is_an_error_and_does_not_join() {
        let mut spec = DeviceSpec::gtx1080();
        spec.peak_flops = 0.0;
        let trace = ChurnTrace::from_events(vec![ChurnEvent {
            at: Seconds::ZERO,
            kind: ChurnEventKind::Arrival {
                spec,
                pool: None,
                fault_prob: 0.0,
            },
        }]);
        let mut rt = EngineConfig::new()
            .with_devices(vec![DeviceSpec::xeon_x86(), DeviceSpec::arm64()])
            .with_churn(ChurnConfig::new(trace))
            .build()
            .expect("the build-time fleet is valid");
        for r in 0..4u64 {
            rt.submit(task(SecurityLevel::Public), [(r, AccessMode::Out)]);
        }
        is_invalid(rt.run(), "peak_flops", "device 2 ");
        assert_eq!(rt.devices().len(), 2, "the device did not join");
        let report = rt.run().expect("the run goes on without it");
        assert_eq!(report.placements.len(), 4);
    }

    #[test]
    fn arrivals_rejoin_their_class() {
        let specs = [DeviceSpec::xeon_x86(), DeviceSpec::gtx1080()];
        let mut devices: Vec<Device> = (0..4)
            .map(|i| Device::new(DeviceId(i as u64), specs[i % 2].clone()))
            .collect();
        let mut classes = SpecClasses::new(&devices);
        assert_eq!(
            (classes.tees().len(), classes.class_of_slice().len()),
            (2, 4)
        );
        let enclave = SecurityLevel::Enclave;
        assert_eq!(classes.eligible_devices(enclave, None), 2);
        let avail = [false, true, true, true];
        assert_eq!(classes.eligible_devices(enclave, Some(&avail)), 1);
        assert_eq!(
            classes.eligible_devices(SecurityLevel::Public, Some(&avail)),
            3
        );
        for (spec, class) in [(DeviceSpec::gtx1080(), 1), (DeviceSpec::arm64(), 2)] {
            let device = Device::new(DeviceId(devices.len() as u64), spec);
            classes.vet(&device).expect("valid spec");
            assert_eq!(classes.add_device(&device.spec), class);
            devices.push(device);
        }
        assert_eq!(
            (classes.tees().len(), classes.class_of_slice().len()),
            (3, 6)
        );
        assert_eq!(classes.eligible_devices(enclave, None), 3);
        assert_eq!(
            classes.eligible_devices(SecurityLevel::Confidential, None),
            6
        );
        let work = Work::flops(3e9);
        classes.price(work, TaskKind::Inference);
        for (d, device) in devices.iter().enumerate() {
            let (dur, power) = classes.price_of(classes.class_of(d));
            assert_eq!(dur, device.spec.time_for(work, TaskKind::Inference));
            assert_eq!(power, device.spec.busy_power);
            assert_eq!(classes.tees()[classes.class_of(d)], device.spec.tee);
        }
    }
}
