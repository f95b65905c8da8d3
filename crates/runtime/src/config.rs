//! The unified engine configuration: one builder for all three pillars.
//!
//! Historically every pillar grew its own entry point on [`Runtime`]
//! (`new` for devices/policy/seed, `enable_resilience`,
//! `configure_security`), and the energy layer would have added a third
//! mutator. [`EngineConfig`] replaces that accretion with a single
//! builder:
//!
//! ```
//! use legato_core::units::Seconds;
//! use legato_hw::device::DeviceSpec;
//! use legato_runtime::{EngineConfig, EnergyConfig, Policy, ResilienceConfig, SecurityConfig};
//!
//! # fn main() -> Result<(), legato_runtime::RuntimeError> {
//! let mut rt = EngineConfig::new()
//!     .with_devices(vec![DeviceSpec::xeon_x86(), DeviceSpec::gtx1080()])
//!     .with_policy(Policy::Weighted(0.5))
//!     .with_seed(7)
//!     .with_resilience(ResilienceConfig::new(Seconds(500.0)))
//!     .with_security(SecurityConfig::new())
//!     .with_energy(EnergyConfig::new().with_uniform_step(1))
//!     .build()?;
//! # let _ = rt.run()?;
//! # Ok(())
//! # }
//! ```
//!
//! [`EngineConfig::build`] is where the energy layer's operating points
//! become real: each device spec is replaced by
//! [`DeviceSpec::at_operating_point`] *before* the runtime is
//! constructed, so the scheduler's estimates, the committed execution
//! times and the energy meters all see the derated spec with no hot-path
//! branching — and the selected rung's fault probability seeds both the
//! engine's silent-fault draws and the effective MTBF the resilience
//! layer plans checkpoints against.

use std::collections::HashMap;

use legato_core::task::RegionId;
use legato_core::units::Bytes;
use legato_hw::device::DeviceSpec;

use crate::analyze::{AnalysisConfig, AnalysisState};
use crate::churn::{ChurnConfig, ChurnState};
use crate::energy::{EnergyConfig, EnergyObjective, EnergyState};
use crate::error::RuntimeError;
use crate::pool::{DevicePools, PoolConfig, TopologyConfig};
use crate::resilience::{ResilienceConfig, ResilienceState};
use crate::runtime::Runtime;
use crate::scheduler::Policy;
use crate::security::SecurityConfig;

/// Declared size of each data region, by region id.
pub(crate) type RegionSizes = HashMap<RegionId, Bytes>;

/// Builder for a fully configured [`Runtime`]: devices, policy, seed,
/// and the three pillars (resilience, security, energy) in one place.
#[derive(Debug, Clone, Default)]
#[must_use = "builder-style configs do nothing until build() constructs the runtime"]
pub struct EngineConfig {
    devices: Vec<DeviceSpec>,
    policy: Option<Policy>,
    seed: u64,
    max_retries: Option<u32>,
    region_sizes: RegionSizes,
    resilience: Option<ResilienceConfig>,
    security: Option<SecurityConfig>,
    energy: Option<EnergyConfig>,
    pools: Option<PoolConfig>,
    topology: Option<TopologyConfig>,
    analysis: Option<AnalysisConfig>,
    churn: Option<ChurnConfig>,
    trace: bool,
}

impl EngineConfig {
    /// An empty configuration: no devices, [`Policy::Performance`],
    /// seed 0, no pillar enabled.
    pub fn new() -> Self {
        EngineConfig::default()
    }

    /// The device specs the runtime schedules over (replaces any
    /// previously added devices).
    pub fn with_devices(mut self, devices: Vec<DeviceSpec>) -> Self {
        self.devices = devices;
        self
    }

    /// Append one device spec.
    pub fn with_device(mut self, device: DeviceSpec) -> Self {
        self.devices.push(device);
        self
    }

    /// The scheduling policy (default [`Policy::Performance`]).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// The deterministic seed of the fault model (default 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Maximum re-executions after detected faults (default 3).
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = Some(retries);
        self
    }

    /// Declare each region's size, keyed by the id tasks submit it under
    /// (a [`Service`](crate::service::Service) tenant `t`'s region `r` is
    /// `(t << 32) | r`); undeclared regions are zero bytes. Checkpoints,
    /// seals, enclave crypto, topology transfers and the analyzer all
    /// price a region at this one size.
    pub fn with_region_sizes(mut self, sizes: HashMap<RegionId, Bytes>) -> Self {
        self.region_sizes = sizes;
        self
    }

    /// Enable checkpoint/restart mode (see
    /// [`resilience`](crate::resilience)).
    pub fn with_resilience(mut self, config: ResilienceConfig) -> Self {
        self.resilience = Some(config);
        self
    }

    /// Configure the security layer (see [`security`](crate::security);
    /// the layer activates when the first confidential task is
    /// submitted, configured or not).
    pub fn with_security(mut self, config: SecurityConfig) -> Self {
        self.security = Some(config);
        self
    }

    /// Enable the energy layer: select operating points per device and
    /// optionally impose a Pareto objective (see
    /// [`energy`](crate::energy)).
    pub fn with_energy(mut self, config: EnergyConfig) -> Self {
        self.energy = Some(config);
        self
    }

    /// Shard the device fleet into pools for sub-linear placement (see
    /// [`pool`](crate::pool)). Membership is validated against the
    /// device list at [`EngineConfig::build`]. With a pool
    /// configuration, every policy placement — `Performance`, `Energy`,
    /// `Edp` and `Weighted` (whose global min-max normalization is
    /// reconstructed exactly from per-shard busy extrema) — runs the
    /// bound-and-prune sharded search — bit-identical selections to
    /// the flat scan, at a fraction of the per-task evaluations. Only
    /// an active security plan or a Pareto energy objective falls back
    /// to the flat scan.
    pub fn with_pools(mut self, config: PoolConfig) -> Self {
        self.pools = Some(config);
        self
    }

    /// Enable the topology cost model: producer→consumer transfer
    /// charges across pool boundaries, folded into the scheduler's
    /// estimates (see [`pool`](crate::pool)). Requires
    /// [`EngineConfig::with_pools`] on the same configuration.
    pub fn with_topology(mut self, config: TopologyConfig) -> Self {
        self.topology = Some(config);
        self
    }

    /// Enable pre-execution static analysis (see
    /// [`analyze`](crate::analyze)): the lints run over the submitted
    /// graph and this configuration's pillars before the first event of
    /// every run. In
    /// [`AnalysisMode::Enforce`](crate::analyze::AnalysisMode::Enforce)
    /// (the default) error-severity findings make [`Runtime::run`] /
    /// [`Runtime::step`] return [`RuntimeError::AnalysisFailed`]; in
    /// warn-only mode the report is attached to
    /// [`RunReport::analysis`](crate::runtime::RunReport::analysis).
    pub fn with_analysis(mut self, config: AnalysisConfig) -> Self {
        self.analysis = Some(config);
        self
    }

    /// Make the fleet malleable: replay a [`ChurnTrace`] of device
    /// arrivals and departures into the engine's event order (see
    /// [`churn`](crate::churn)). Planned departures drain, crashes fail
    /// running work into the retry/rollback machinery, and arrivals
    /// grow the pool/security structures incrementally. A configuration
    /// with an empty trace arms the machinery without changing the
    /// fleet — and schedules stay bit-identical to a churn-free
    /// runtime.
    ///
    /// [`ChurnTrace`]: crate::churn::ChurnTrace
    pub fn with_churn(mut self, config: ChurnConfig) -> Self {
        self.churn = Some(config);
        self
    }

    /// Keep the engine's event trace (see [`trace`](crate::trace)),
    /// read through [`Runtime::trace`]. Every simulated value is the same
    /// with the trace on or off; off, the engine writes nothing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Construct the runtime.
    ///
    /// With an [`EnergyConfig`], every device spec is derated to its
    /// selected [`OperatingPoint`](legato_hw::device::OperatingPoint)
    /// here, and the rung's fault probability becomes the device's
    /// initial silent-fault probability (callers may still override it
    /// with [`Runtime::set_fault_prob`]).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidWeight`] for an unusable
    /// [`Policy::Weighted`] weight; [`RuntimeError::InvalidParameter`]
    /// when a device spec (as derated) has a rate or power the cost
    /// model cannot price — zero, negative or non-finite — when an
    /// energy override names a device or ladder rung that does not
    /// exist, when a selected rung lies in the crash region (fault
    /// probability ≥ 1: the run could never accept a result), when a
    /// Pareto objective's bound or cap is not a positive finite value, or
    /// when two size declarations ([`EngineConfig::with_region_sizes`]
    /// and its aliases) give one region different sizes.
    pub fn build(self) -> Result<Runtime, RuntimeError> {
        let EngineConfig {
            devices,
            policy,
            seed,
            max_retries,
            mut region_sizes,
            resilience,
            security,
            energy,
            pools,
            topology,
            analysis,
            churn,
            trace,
        } = self;
        if topology.is_some() && pools.is_none() {
            return Err(RuntimeError::invalid_parameter(
                "topology",
                "the topology cost model requires a pool configuration (with_pools)",
            ));
        }
        let policy = policy.unwrap_or(Policy::Performance);
        policy.validate()?;

        let mut energy_state = EnergyState::default();
        let devices = match &energy {
            None => devices,
            Some(cfg) => {
                validate_objective(cfg.objective)?;
                for &(d, p) in &cfg.device_points {
                    let ladder = devices
                        .get(d)
                        .map(|s| s.operating_points.len())
                        .ok_or_else(|| {
                            RuntimeError::invalid_parameter(
                                "device_points",
                                format!("device {d} out of range ({} devices)", devices.len()),
                            )
                        })?;
                    if p >= ladder {
                        return Err(RuntimeError::invalid_parameter(
                            "device_points",
                            format!("rung {p} off device {d}'s ladder ({ladder} operating points)"),
                        ));
                    }
                }
                let mut derated = Vec::with_capacity(devices.len());
                energy_state.active = true;
                energy_state.objective = cfg.objective;
                energy_state.op_fault_probs = Vec::with_capacity(devices.len());
                for (i, spec) in devices.iter().enumerate() {
                    let rung = cfg.point_for(i, spec.operating_points.len());
                    let op = &spec.operating_points[rung];
                    if op.fault_probability >= 1.0 {
                        return Err(RuntimeError::invalid_parameter(
                            "operating_point",
                            format!(
                                "device {i} ({}) rung {rung} ({:?}) is in the crash region \
                                 (fault probability {})",
                                spec.name, op.label, op.fault_probability
                            ),
                        ));
                    }
                    energy_state.op_fault_probs.push(op.fault_probability);
                    derated.push(
                        spec.at_operating_point(rung)
                            .expect("rung validated against the ladder above"),
                    );
                }
                derated
            }
        };

        let mut rt = Runtime::new(devices, policy, seed);
        rt.classes.check()?;
        if let Some(retries) = max_retries {
            rt.max_retries = retries;
        }
        if let Some(mut cfg) = resilience {
            declare(&mut region_sizes, std::mem::take(&mut cfg.sizes))?;
            rt.resilience = Some(ResilienceState::new(cfg));
        }
        if let Some(cfg) = security {
            declare(&mut region_sizes, cfg.sizes)?;
        }
        rt.region_sizes = region_sizes;
        if energy_state.active {
            rt.fault_probs.copy_from_slice(&energy_state.op_fault_probs);
            rt.energy = energy_state;
        }
        if let Some(cfg) = pools {
            rt.pools = Some(DevicePools::new(cfg, &rt.classes)?);
        }
        rt.topology = topology;
        if let Some(cfg) = analysis {
            rt.analysis = Some(AnalysisState::new(cfg));
        }
        if let Some(cfg) = churn {
            let fleet = rt.devices.len();
            rt.churn = Some(ChurnState::new(cfg, fleet));
        }
        if trace {
            rt.engine.trace = Some(Vec::new());
        }
        Ok(rt)
    }
}

fn validate_objective(objective: Option<EnergyObjective>) -> Result<(), RuntimeError> {
    match objective {
        Some(EnergyObjective::MinEnergyWithinMakespan(bound))
            if !(bound.0.is_finite() && bound.0 > 0.0) =>
        {
            Err(RuntimeError::invalid_parameter(
                "makespan_bound",
                format!("must be a positive finite time, got {bound}"),
            ))
        }
        Some(EnergyObjective::MinMakespanUnderPowerCap(cap))
            if !(cap.0.is_finite() && cap.0 > 0.0) =>
        {
            Err(RuntimeError::invalid_parameter(
                "power_cap",
                format!("must be a positive finite power, got {cap}"),
            ))
        }
        _ => Ok(()),
    }
}

/// Join an alias's declaration into the engine's: a region declared in
/// both must agree on its size, and the lowest clashing region is named.
fn declare(sizes: &mut RegionSizes, alias: RegionSizes) -> Result<(), RuntimeError> {
    let clash = alias
        .into_iter()
        .filter_map(|(region, bytes)| {
            let declared = *sizes.entry(region).or_insert(bytes);
            (declared != bytes).then_some((region, declared, bytes))
        })
        .min();
    clash.map_or(Ok(()), |(region, a, b)| {
        let reason = format!("region {region} is declared as {} B and as {} B", a.0, b.0);
        Err(RuntimeError::invalid_parameter("region_sizes", reason))
    })
}

impl SecurityConfig {
    /// Alias of [`EngineConfig::with_region_sizes`]: joins the engine's
    /// one declaration at [`EngineConfig::build`], which refuses a
    /// region declared twice with two sizes.
    pub fn with_region_sizes(mut self, sizes: HashMap<RegionId, Bytes>) -> Self {
        self.sizes = sizes;
        self
    }
}

impl ResilienceConfig {
    /// Alias of [`EngineConfig::with_region_sizes`]: joins the engine's
    /// one declaration at [`EngineConfig::build`], which refuses a
    /// region declared twice with two sizes.
    pub fn with_region_sizes(mut self, sizes: HashMap<RegionId, Bytes>) -> Self {
        self.sizes = sizes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legato_core::units::{Seconds, Watt};

    fn specs() -> Vec<DeviceSpec> {
        vec![
            DeviceSpec::xeon_x86(),
            DeviceSpec::gtx1080(),
            DeviceSpec::fpga_kintex(),
        ]
    }

    #[test]
    fn build_defaults_match_runtime_new() {
        let rt = EngineConfig::new()
            .with_devices(specs())
            .build()
            .expect("plain build");
        assert_eq!(rt.policy(), Policy::Performance);
        assert_eq!(rt.devices().len(), 3);
        assert!(rt.report().resilience.is_none());
    }

    #[test]
    fn with_device_appends() {
        let rt = EngineConfig::new()
            .with_device(DeviceSpec::xeon_x86())
            .with_device(DeviceSpec::arm64())
            .build()
            .expect("two devices");
        assert_eq!(rt.devices().len(), 2);
    }

    #[test]
    fn invalid_weight_is_rejected_at_build() {
        let err = EngineConfig::new()
            .with_devices(specs())
            .with_policy(Policy::Weighted(2.0))
            .build()
            .unwrap_err();
        assert_eq!(err, RuntimeError::InvalidWeight(2.0));
    }

    #[test]
    fn energy_step_derates_every_device() {
        let rt = EngineConfig::new()
            .with_devices(specs())
            .with_energy(EnergyConfig::new().with_uniform_step(1))
            .build()
            .expect("eco rung exists on the default ladder");
        for (d, base) in rt.devices().iter().zip(specs()) {
            assert!(d.spec.name.ends_with("@ eco"), "{}", d.spec.name);
            assert!(d.spec.busy_power < base.busy_power);
        }
    }

    #[test]
    fn device_point_overrides_the_uniform_step() {
        let rt = EngineConfig::new()
            .with_devices(specs())
            .with_energy(
                EnergyConfig::new()
                    .with_uniform_step(1)
                    .with_device_point(1, 0),
            )
            .build()
            .expect("valid override");
        assert!(rt.devices()[0].spec.name.ends_with("@ eco"));
        assert_eq!(rt.devices()[1].spec.name, DeviceSpec::gtx1080().name);
    }

    #[test]
    fn out_of_range_overrides_are_errors() {
        let err = EngineConfig::new()
            .with_devices(specs())
            .with_energy(EnergyConfig::new().with_device_point(9, 0))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::InvalidParameter { name, .. } if name == "device_points")
        );
        let err = EngineConfig::new()
            .with_devices(specs())
            .with_energy(EnergyConfig::new().with_device_point(0, 99))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::InvalidParameter { name, .. } if name == "device_points")
        );
    }

    #[test]
    fn crash_region_rungs_are_refused() {
        use legato_hw::device::OperatingPoint;
        let crash = DeviceSpec::fpga_kintex().with_operating_points(vec![
            OperatingPoint::nominal(),
            OperatingPoint::new("crash", 0.4, 1.0, 1.0),
        ]);
        let err = EngineConfig::new()
            .with_device(crash)
            .with_energy(EnergyConfig::new().with_uniform_step(1))
            .build()
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::InvalidParameter { name, .. } if name == "operating_point"),
            "{err}"
        );
    }

    #[test]
    fn malformed_objectives_are_errors() {
        for cfg in [
            EnergyConfig::new().with_makespan_bound(Seconds(0.0)),
            EnergyConfig::new().with_makespan_bound(Seconds(f64::NAN)),
            EnergyConfig::new().with_power_cap(Watt(-5.0)),
        ] {
            let err = EngineConfig::new()
                .with_devices(specs())
                .with_energy(cfg.clone())
                .build()
                .unwrap_err();
            assert!(
                matches!(err, RuntimeError::InvalidParameter { .. }),
                "{cfg:?} -> {err}"
            );
        }
    }
}
