//! Device models: CPUs, GPUs, FPGAs, dataflow engines and SoCs.
//!
//! Each [`DeviceSpec`] carries a peak compute rate, a memory bandwidth, and
//! idle/busy power draws. Task execution cost follows a roofline: the time
//! is the larger of the compute time (scaled by a per-`TaskKind` efficiency
//! that captures how well the device's architecture matches the workload)
//! and the memory-streaming time. Energy is busy power integrated over that
//! time.
//!
//! The constructors ([`DeviceSpec::xeon_x86`], [`DeviceSpec::gtx1080`], …)
//! encode representative figures for the hardware classes the RECS|BOX
//! hosts (paper Fig. 4: x86/ARM64 CPUs, GPU, FPGA, SoCs and Maxeler DFEs).

use legato_core::task::{TaskKind, Work};
use legato_core::units::{Bytes, BytesPerSec, Hertz, Joule, Seconds, Watt};
use legato_secure::task::{ExecutionMode, TRANSITION_TIME};
use serde::{Deserialize, Serialize};

use crate::power::EnergyMeter;

/// Identifier of a device instance within a topology.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct DeviceId(pub u64);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "D{}", self.0)
    }
}

/// Architectural class of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DeviceKind {
    /// x86-64 server CPU.
    CpuX86,
    /// ARM64 server/embedded CPU.
    CpuArm,
    /// Discrete GPU.
    Gpu,
    /// FPGA fabric (programmed through HLS flows in LEGaTO).
    Fpga,
    /// Maxeler-style dataflow engine.
    Dfe,
    /// Embedded SoC (e.g. Jetson-class, CPU+GPU on die).
    Soc,
}

impl DeviceKind {
    /// Architectural affinity of this device class for a task kind, in
    /// `(0, 1]`. It scales the usable fraction of peak compute.
    ///
    /// The numbers express the qualitative matrix behind LEGaTO's
    /// scheduling decisions: GPUs and DFEs excel at dense inference and
    /// streaming compute; FPGAs deliver good inference throughput at far
    /// lower power; CPUs are balanced and best at I/O-bound control code.
    #[must_use]
    pub fn efficiency(self, task: TaskKind) -> f64 {
        match (self, task) {
            (DeviceKind::CpuX86, TaskKind::Compute) => 0.90,
            (DeviceKind::CpuX86, TaskKind::Inference) => 0.35,
            (DeviceKind::CpuX86, TaskKind::Transfer) => 0.90,
            (DeviceKind::CpuX86, TaskKind::Io) => 1.00,

            (DeviceKind::CpuArm, TaskKind::Compute) => 0.85,
            (DeviceKind::CpuArm, TaskKind::Inference) => 0.35,
            (DeviceKind::CpuArm, TaskKind::Transfer) => 0.85,
            (DeviceKind::CpuArm, TaskKind::Io) => 0.95,

            (DeviceKind::Gpu, TaskKind::Compute) => 0.70,
            (DeviceKind::Gpu, TaskKind::Inference) => 0.95,
            (DeviceKind::Gpu, TaskKind::Transfer) => 0.80,
            (DeviceKind::Gpu, TaskKind::Io) => 0.20,

            (DeviceKind::Fpga, TaskKind::Compute) => 0.60,
            (DeviceKind::Fpga, TaskKind::Inference) => 0.85,
            (DeviceKind::Fpga, TaskKind::Transfer) => 0.70,
            (DeviceKind::Fpga, TaskKind::Io) => 0.40,

            (DeviceKind::Dfe, TaskKind::Compute) => 0.80,
            (DeviceKind::Dfe, TaskKind::Inference) => 0.90,
            (DeviceKind::Dfe, TaskKind::Transfer) => 0.95,
            (DeviceKind::Dfe, TaskKind::Io) => 0.30,

            (DeviceKind::Soc, TaskKind::Compute) => 0.70,
            (DeviceKind::Soc, TaskKind::Inference) => 0.75,
            (DeviceKind::Soc, TaskKind::Transfer) => 0.70,
            (DeviceKind::Soc, TaskKind::Io) => 0.80,

            // `TaskKind` is non-exhaustive; unknown kinds get a neutral 0.5.
            _ => 0.5,
        }
    }
}

/// Level of trusted-execution support a device offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TeeSupport {
    /// No enclave support: the device cannot host confidential
    /// execution. It can still *software-seal* data it forwards.
    #[default]
    None,
    /// Enclaves are available (TrustZone-class secure world) but
    /// boundary crypto runs in software.
    Software,
    /// Enclaves with instruction-level crypto acceleration
    /// (SGX/AES-NI class) — the paper's "energy-efficient
    /// security-by-design" lever.
    HardwareAssisted,
}

/// TEE capability descriptor of a device: whether enclaves are
/// available, and the cost parameters of its security primitives. The
/// parameters are sourced from the [`legato_secure::task`] cost model so
/// the hardware description and the security cost model can never
/// disagree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TeeCapability {
    /// Enclave support level.
    pub support: TeeSupport,
    /// Cost of one world switch (a single ecall *or* ocall).
    pub transition_time: Seconds,
    /// Sealing / enclave-boundary crypto throughput on this device.
    /// Meaningful for every device — a device without enclaves still
    /// software-seals region traffic it ships across device boundaries.
    pub crypto_bandwidth: BytesPerSec,
}

impl TeeCapability {
    /// No enclave support; sealing runs at the software crypto rate.
    #[must_use]
    pub fn none() -> Self {
        TeeCapability {
            support: TeeSupport::None,
            transition_time: TRANSITION_TIME,
            crypto_bandwidth: ExecutionMode::SecureSoftware
                .crypto_bandwidth()
                .expect("software mode has a crypto bandwidth"),
        }
    }

    /// Enclaves with software-only crypto (TrustZone without crypto
    /// extensions).
    #[must_use]
    pub fn software() -> Self {
        TeeCapability {
            support: TeeSupport::Software,
            ..TeeCapability::none()
        }
    }

    /// Enclaves with hardware-accelerated crypto (SGX/AES-NI class).
    #[must_use]
    pub fn hardware_assisted() -> Self {
        TeeCapability {
            support: TeeSupport::HardwareAssisted,
            transition_time: TRANSITION_TIME,
            crypto_bandwidth: ExecutionMode::SecureHardware
                .crypto_bandwidth()
                .expect("hardware mode has a crypto bandwidth"),
        }
    }

    /// Whether enclave-only tasks may be placed on this device.
    #[must_use]
    pub fn has_enclave(&self) -> bool {
        !matches!(self.support, TeeSupport::None)
    }

    /// The [`legato_secure::task`] execution mode this capability maps
    /// to for a confidential task (`Plain` when no enclave exists).
    #[must_use]
    pub fn execution_mode(&self) -> ExecutionMode {
        match self.support {
            TeeSupport::None => ExecutionMode::Plain,
            TeeSupport::Software => ExecutionMode::SecureSoftware,
            TeeSupport::HardwareAssisted => ExecutionMode::SecureHardware,
        }
    }
}

impl Default for TeeCapability {
    fn default() -> Self {
        TeeCapability::none()
    }
}

/// One voltage/frequency operating point of a device, expressed as a
/// scaling of the nominal spec: a power multiplier on the idle/busy
/// draws, a duration multiplier on execution time (≥ 1 for throttled or
/// undervolt-derated points), and the per-execution silent-fault
/// probability the point adds (the Fig. 5 Poisson model — zero inside
/// the guardband, positive in the critical region).
///
/// Every [`DeviceSpec`] carries a *ladder* of these, ordered nominal
/// first and most aggressive last. The runtime's energy layer selects a
/// rung per device and derives the effective spec with
/// [`DeviceSpec::at_operating_point`]; an aggressive rung's fault
/// probability also degrades the effective MTBF the resilience layer
/// plans checkpoint intervals against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Human-readable rail/DVFS label (`"nominal"`, `"eco"`, `"540 mV"`, …).
    pub label: String,
    /// Multiplier applied to both `idle_power` and `busy_power`, in `(0, 1]`.
    pub power_scale: f64,
    /// Multiplier applied to execution time (compute *and* memory
    /// streaming slow down together), ≥ 1 for non-nominal points.
    pub duration_scale: f64,
    /// Additional per-execution silent-fault probability at this point,
    /// in `[0, 1]` (`1.0` marks a crash-region rail the runtime refuses
    /// to select).
    pub fault_probability: f64,
}

impl OperatingPoint {
    /// The nominal point: the spec as constructed, no derating, no faults.
    #[must_use]
    pub fn nominal() -> Self {
        OperatingPoint {
            label: "nominal".into(),
            power_scale: 1.0,
            duration_scale: 1.0,
            fault_probability: 0.0,
        }
    }

    /// Build a point from its label and scales.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        power_scale: f64,
        duration_scale: f64,
        fault_probability: f64,
    ) -> Self {
        OperatingPoint {
            label: label.into(),
            power_scale,
            duration_scale,
            fault_probability,
        }
    }

    /// Whether this point leaves the spec untouched.
    #[must_use]
    pub fn is_nominal(&self) -> bool {
        self.power_scale == 1.0 && self.duration_scale == 1.0 && self.fault_probability == 0.0
    }

    /// The default DVFS ladder every device class ships with: nominal,
    /// an `eco` step and a `deep-eco` step. The scales are deliberately
    /// identical across classes (relative device speeds are preserved at
    /// every rung) and fault-free (guardband-safe steps); FPGA rails with
    /// real fault probabilities are derived from the Fig. 5 model by
    /// `legato-runtime`'s `lowvolt::undervolt_ladder`.
    ///
    /// Each step trades longer execution (`duration_scale` up) for a
    /// better-than-linear power cut (`power_scale × duration_scale`,
    /// the per-task busy energy factor, falls monotonically:
    /// 1.0 → 0.84 → 0.725).
    #[must_use]
    pub fn default_ladder() -> Vec<OperatingPoint> {
        vec![
            OperatingPoint::nominal(),
            OperatingPoint::new("eco", 0.70, 1.20, 0.0),
            OperatingPoint::new("deep-eco", 0.50, 1.45, 0.0),
        ]
    }
}

/// Static description of a device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing-style name, e.g. `"GTX 1080"`.
    pub name: String,
    /// Architectural class.
    pub kind: DeviceKind,
    /// Peak compute rate in FLOP/s.
    pub peak_flops: f64,
    /// Peak memory bandwidth.
    pub mem_bandwidth: BytesPerSec,
    /// Device memory capacity.
    pub mem_capacity: Bytes,
    /// Idle power draw.
    pub idle_power: Watt,
    /// Fully-busy power draw.
    pub busy_power: Watt,
    /// Core clock (informational; cost model uses `peak_flops`).
    pub clock: Hertz,
    /// Trusted-execution capability (enclave support and crypto rates).
    pub tee: TeeCapability,
    /// Voltage/frequency operating-point ladder, nominal first. Never
    /// empty: constructors install [`OperatingPoint::default_ladder`],
    /// and [`DeviceSpec::with_operating_points`] re-inserts the nominal
    /// point if handed an empty ladder.
    pub operating_points: Vec<OperatingPoint>,
}

impl DeviceSpec {
    /// Representative dual-socket x86 server CPU (COM Express
    /// high-performance microserver class).
    #[must_use]
    pub fn xeon_x86() -> Self {
        DeviceSpec {
            name: "Xeon x86 microserver".into(),
            kind: DeviceKind::CpuX86,
            peak_flops: 500e9,
            mem_bandwidth: BytesPerSec::gib_per_sec(60.0),
            mem_capacity: Bytes::gib(64),
            idle_power: Watt(35.0),
            busy_power: Watt(130.0),
            clock: Hertz::from_ghz(2.4),
            tee: TeeCapability::hardware_assisted(),
            operating_points: OperatingPoint::default_ladder(),
        }
    }

    /// Representative ARM64 low-power microserver (Apalis-class).
    #[must_use]
    pub fn arm64() -> Self {
        DeviceSpec {
            name: "ARM64 microserver".into(),
            kind: DeviceKind::CpuArm,
            peak_flops: 80e9,
            mem_bandwidth: BytesPerSec::gib_per_sec(18.0),
            mem_capacity: Bytes::gib(8),
            idle_power: Watt(3.0),
            busy_power: Watt(12.0),
            clock: Hertz::from_ghz(1.8),
            tee: TeeCapability::software(),
            operating_points: OperatingPoint::default_ladder(),
        }
    }

    /// NVIDIA GTX 1080-class discrete GPU — the Smart Mirror's original
    /// workstation carries two of these (paper §VI).
    #[must_use]
    pub fn gtx1080() -> Self {
        DeviceSpec {
            name: "GTX 1080".into(),
            kind: DeviceKind::Gpu,
            peak_flops: 8.9e12,
            mem_bandwidth: BytesPerSec::gib_per_sec(298.0),
            mem_capacity: Bytes::gib(8),
            idle_power: Watt(8.0),
            busy_power: Watt(180.0),
            clock: Hertz::from_ghz(1.6),
            tee: TeeCapability::none(),
            operating_points: OperatingPoint::default_ladder(),
        }
    }

    /// Kintex-class FPGA accelerator (the power-oriented family evaluated
    /// in §III).
    #[must_use]
    pub fn fpga_kintex() -> Self {
        DeviceSpec {
            name: "Kintex FPGA".into(),
            kind: DeviceKind::Fpga,
            peak_flops: 2.4e12,
            mem_bandwidth: BytesPerSec::gib_per_sec(34.0),
            mem_capacity: Bytes::gib(4),
            idle_power: Watt(4.0),
            busy_power: Watt(20.0),
            clock: Hertz::from_mhz(300.0),
            tee: TeeCapability::none(),
            operating_points: OperatingPoint::default_ladder(),
        }
    }

    /// Maxeler-style dataflow engine.
    #[must_use]
    pub fn maxeler_dfe() -> Self {
        DeviceSpec {
            name: "Maxeler DFE".into(),
            kind: DeviceKind::Dfe,
            peak_flops: 2.0e12,
            mem_bandwidth: BytesPerSec::gib_per_sec(60.0),
            mem_capacity: Bytes::gib(48),
            idle_power: Watt(12.0),
            busy_power: Watt(60.0),
            clock: Hertz::from_mhz(200.0),
            tee: TeeCapability::none(),
            operating_points: OperatingPoint::default_ladder(),
        }
    }

    /// Jetson-class embedded GPU SoC (low-power microserver, Fig. 4).
    #[must_use]
    pub fn jetson_soc() -> Self {
        DeviceSpec {
            name: "Jetson SoC".into(),
            kind: DeviceKind::Soc,
            peak_flops: 1.3e12,
            mem_bandwidth: BytesPerSec::gib_per_sec(25.0),
            mem_capacity: Bytes::gib(8),
            idle_power: Watt(2.0),
            busy_power: Watt(15.0),
            clock: Hertz::from_ghz(1.3),
            tee: TeeCapability::software(),
            operating_points: OperatingPoint::default_ladder(),
        }
    }

    /// Replace the TEE capability (builder-style; the constructors set a
    /// representative default per hardware class).
    #[must_use]
    pub fn with_tee(mut self, tee: TeeCapability) -> Self {
        self.tee = tee;
        self
    }

    /// Replace the operating-point ladder (builder-style; the
    /// constructors install [`OperatingPoint::default_ladder`]). An empty
    /// ladder is normalized to `[nominal]` so the invariant that every
    /// spec has at least its nominal point can never be violated.
    #[must_use]
    pub fn with_operating_points(mut self, points: Vec<OperatingPoint>) -> Self {
        self.operating_points = if points.is_empty() {
            vec![OperatingPoint::nominal()]
        } else {
            points
        };
        self
    }

    /// The effective spec at ladder rung `point`, or `None` when the
    /// index is off the ladder.
    ///
    /// Power draws are multiplied by the point's `power_scale`; compute
    /// rate, memory bandwidth and clock are divided by its
    /// `duration_scale`, so every [`DeviceSpec::time_for`] answer scales
    /// up by exactly that factor. Selecting the nominal point returns a
    /// bit-identical spec (all scales are exact float identities), which
    /// is what lets an energy-enabled run at nominal settings reproduce
    /// an energy-unaware run bit for bit.
    #[must_use]
    pub fn at_operating_point(&self, point: usize) -> Option<DeviceSpec> {
        let p = self.operating_points.get(point)?;
        let mut spec = self.clone();
        if !p.is_nominal() {
            spec.name = format!("{} @ {}", self.name, p.label);
            spec.peak_flops = self.peak_flops / p.duration_scale;
            spec.mem_bandwidth = BytesPerSec(self.mem_bandwidth.0 / p.duration_scale);
            spec.clock = Hertz(self.clock.0 / p.duration_scale);
            spec.idle_power = Watt(self.idle_power.0 * p.power_scale);
            spec.busy_power = Watt(self.busy_power.0 * p.power_scale);
        }
        Some(spec)
    }

    /// Execution time of `work` of kind `task` on this device (roofline:
    /// max of compute and memory-streaming time).
    ///
    /// Returns [`Seconds::ZERO`] for empty work.
    #[must_use]
    #[inline]
    pub fn time_for(&self, work: Work, task: TaskKind) -> Seconds {
        let eff = self.kind.efficiency(task);
        let compute = if work.flops > 0.0 {
            work.flops / (self.peak_flops * eff)
        } else {
            0.0
        };
        let memory = if work.bytes > Bytes::ZERO {
            work.bytes.as_f64() / self.mem_bandwidth.0
        } else {
            0.0
        };
        Seconds(compute.max(memory))
    }

    /// Energy consumed executing `work` of kind `task` (busy power over the
    /// execution time).
    #[must_use]
    pub fn energy_for(&self, work: Work, task: TaskKind) -> Joule {
        self.busy_power * self.time_for(work, task)
    }
}

/// A device instance: a spec plus mutable execution state (energy meter,
/// busy-until time for contention modelling).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Instance id.
    pub id: DeviceId,
    /// Static description.
    pub spec: DeviceSpec,
    meter: EnergyMeter,
    busy_until: Seconds,
}

impl Device {
    /// Instantiate a device from a spec.
    #[must_use]
    pub fn new(id: DeviceId, spec: DeviceSpec) -> Self {
        Device {
            id,
            spec,
            meter: EnergyMeter::new(),
            busy_until: Seconds::ZERO,
        }
    }

    /// Earliest simulated time at which the device is free.
    #[must_use]
    #[inline]
    pub fn busy_until(&self) -> Seconds {
        self.busy_until
    }

    /// Execute `work` starting no earlier than `now`; returns
    /// `(start, finish)` in simulated time and records the energy.
    ///
    /// The device serializes work: execution begins at
    /// `max(now, busy_until)`.
    pub fn execute(&mut self, now: Seconds, work: Work, task: TaskKind) -> (Seconds, Seconds) {
        let start = now.max(self.busy_until);
        let dur = self.spec.time_for(work, task);
        self.execute_planned(start, dur)
    }

    /// Commit an execution whose `(start, duration)` a scheduler already
    /// computed while estimating candidates, so the roofline model is
    /// not re-evaluated on the placement hot path. Bit-identical to
    /// [`Device::execute`] when `start = max(now, busy_until)` and
    /// `duration = spec.time_for(work, kind)` — which the caller must
    /// guarantee is still current (no intervening `execute` on this
    /// device since the plan was made).
    #[inline]
    pub fn execute_planned(&mut self, start: Seconds, duration: Seconds) -> (Seconds, Seconds) {
        debug_assert!(
            start >= self.busy_until,
            "planned start {start} predates device availability {}",
            self.busy_until
        );
        let finish = start + duration;
        self.meter.record(self.spec.busy_power, duration);
        self.busy_until = finish;
        (start, finish)
    }

    /// The device's energy meter.
    #[must_use]
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_bounded() {
        for kind in [
            DeviceKind::CpuX86,
            DeviceKind::CpuArm,
            DeviceKind::Gpu,
            DeviceKind::Fpga,
            DeviceKind::Dfe,
            DeviceKind::Soc,
        ] {
            for task in [
                TaskKind::Compute,
                TaskKind::Transfer,
                TaskKind::Inference,
                TaskKind::Io,
            ] {
                let e = kind.efficiency(task);
                assert!(e > 0.0 && e <= 1.0, "{kind:?}/{task:?} -> {e}");
            }
        }
    }

    #[test]
    fn gpu_beats_cpu_at_inference() {
        let gpu = DeviceSpec::gtx1080();
        let cpu = DeviceSpec::xeon_x86();
        let w = Work::flops(65.9e9); // one YOLOv3-like frame
        assert!(gpu.time_for(w, TaskKind::Inference) < cpu.time_for(w, TaskKind::Inference));
    }

    #[test]
    fn fpga_beats_gpu_on_inference_energy() {
        // FPGA is slower but draws far less power: lower energy per frame.
        let gpu = DeviceSpec::gtx1080();
        let fpga = DeviceSpec::fpga_kintex();
        let w = Work::flops(65.9e9);
        assert!(
            fpga.energy_for(w, TaskKind::Inference).0 < gpu.energy_for(w, TaskKind::Inference).0
        );
    }

    #[test]
    fn roofline_takes_max() {
        let dev = DeviceSpec::xeon_x86();
        // Memory-bound workload: almost no flops, lots of bytes.
        let w = Work::new(1.0, Bytes::gib(60));
        let t = dev.time_for(w, TaskKind::Compute);
        assert!((t.0 - 1.0).abs() < 0.01, "expected ~1 s, got {t}");
    }

    #[test]
    fn empty_work_is_free() {
        let dev = DeviceSpec::arm64();
        assert_eq!(
            dev.time_for(Work::default(), TaskKind::Compute),
            Seconds::ZERO
        );
        assert_eq!(
            dev.energy_for(Work::default(), TaskKind::Compute),
            Joule::ZERO
        );
    }

    #[test]
    fn device_serializes_work() {
        let mut d = Device::new(DeviceId(0), DeviceSpec::arm64());
        let w = Work::flops(80e9 * 0.85); // exactly 1 s on this device
        let (s1, f1) = d.execute(Seconds::ZERO, w, TaskKind::Compute);
        let (s2, f2) = d.execute(Seconds::ZERO, w, TaskKind::Compute);
        assert_eq!(s1, Seconds::ZERO);
        assert!((f1.0 - 1.0).abs() < 1e-9);
        assert_eq!(s2, f1);
        assert!((f2.0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn device_energy_accounting() {
        let mut d = Device::new(DeviceId(1), DeviceSpec::arm64());
        let w = Work::flops(80e9 * 0.85);
        d.execute(Seconds::ZERO, w, TaskKind::Compute);
        assert!((d.meter().total().0 - 12.0).abs() < 1e-6); // 12 W × 1 s
        assert!((d.meter().elapsed().0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_device_id() {
        assert_eq!(DeviceId(3).to_string(), "D3");
    }

    #[test]
    fn tee_defaults_follow_hardware_class() {
        // CPUs carry TEEs (SGX / TrustZone); accelerators do not.
        assert_eq!(
            DeviceSpec::xeon_x86().tee.support,
            TeeSupport::HardwareAssisted
        );
        assert_eq!(DeviceSpec::arm64().tee.support, TeeSupport::Software);
        assert_eq!(DeviceSpec::jetson_soc().tee.support, TeeSupport::Software);
        for spec in [
            DeviceSpec::gtx1080(),
            DeviceSpec::fpga_kintex(),
            DeviceSpec::maxeler_dfe(),
        ] {
            assert!(
                !spec.tee.has_enclave(),
                "{} must not host enclaves",
                spec.name
            );
        }
    }

    #[test]
    fn tee_parameters_match_the_secure_cost_model() {
        // The capability descriptor is *sourced from* legato-secure's
        // task cost model — the two must agree exactly.
        let sw = TeeCapability::software();
        let hw = TeeCapability::hardware_assisted();
        assert_eq!(
            Some(sw.crypto_bandwidth),
            ExecutionMode::SecureSoftware.crypto_bandwidth()
        );
        assert_eq!(
            Some(hw.crypto_bandwidth),
            ExecutionMode::SecureHardware.crypto_bandwidth()
        );
        assert_eq!(sw.transition_time, TRANSITION_TIME);
        assert_eq!(sw.execution_mode(), ExecutionMode::SecureSoftware);
        assert_eq!(hw.execution_mode(), ExecutionMode::SecureHardware);
        assert_eq!(TeeCapability::none().execution_mode(), ExecutionMode::Plain);
        assert!(hw.crypto_bandwidth.0 > sw.crypto_bandwidth.0 * 8.0);
    }

    #[test]
    fn with_tee_overrides_the_default() {
        let spec = DeviceSpec::gtx1080().with_tee(TeeCapability::hardware_assisted());
        assert!(spec.tee.has_enclave());
    }

    #[test]
    fn every_class_ships_a_ladder_with_nominal_first() {
        for spec in [
            DeviceSpec::xeon_x86(),
            DeviceSpec::arm64(),
            DeviceSpec::gtx1080(),
            DeviceSpec::fpga_kintex(),
            DeviceSpec::maxeler_dfe(),
            DeviceSpec::jetson_soc(),
        ] {
            assert!(
                spec.operating_points.len() >= 2,
                "{}: ladder too short",
                spec.name
            );
            assert!(spec.operating_points[0].is_nominal());
        }
    }

    #[test]
    fn default_ladder_cuts_energy_monotonically() {
        // Per-task busy energy scales with power_scale × duration_scale;
        // the ladder must trade time for a strictly better energy factor.
        let ladder = OperatingPoint::default_ladder();
        for pair in ladder.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(b.duration_scale >= a.duration_scale);
            assert!(b.power_scale < a.power_scale);
            assert!(b.power_scale * b.duration_scale < a.power_scale * a.duration_scale);
            assert_eq!(b.fault_probability, 0.0, "guardband steps never fault");
        }
    }

    #[test]
    fn nominal_operating_point_is_bit_identical() {
        let spec = DeviceSpec::gtx1080();
        assert_eq!(spec.at_operating_point(0), Some(spec.clone()));
        assert_eq!(spec.at_operating_point(spec.operating_points.len()), None);
    }

    #[test]
    fn derated_point_scales_time_and_power_exactly() {
        let spec = DeviceSpec::xeon_x86();
        let eco = spec.at_operating_point(1).expect("eco rung exists");
        let p = &spec.operating_points[1];
        let w = Work::flops(1e12);
        let base = spec.time_for(w, TaskKind::Compute);
        let slow = eco.time_for(w, TaskKind::Compute);
        assert!((slow.0 / base.0 - p.duration_scale).abs() < 1e-12);
        assert!((eco.busy_power.0 / spec.busy_power.0 - p.power_scale).abs() < 1e-12);
        assert!((eco.idle_power.0 / spec.idle_power.0 - p.power_scale).abs() < 1e-12);
        // Memory-bound work derates by the same factor (the whole
        // roofline slows down together).
        let mem = Work::new(1.0, Bytes::gib(32));
        let ratio =
            eco.time_for(mem, TaskKind::Compute).0 / spec.time_for(mem, TaskKind::Compute).0;
        assert!((ratio - p.duration_scale).abs() < 1e-12);
        assert!(eco.name.contains("eco"));
    }

    #[test]
    fn empty_ladder_is_normalized_to_nominal() {
        let spec = DeviceSpec::arm64().with_operating_points(Vec::new());
        assert_eq!(spec.operating_points.len(), 1);
        assert!(spec.operating_points[0].is_nominal());
    }
}
