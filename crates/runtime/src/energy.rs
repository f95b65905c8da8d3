//! The low-energy pillar wired into the engine: operating-point
//! selection and Pareto scheduling objectives.
//!
//! "Low-Energy" is the first word of the paper's title, and this module
//! makes it a first-class *scheduling dimension*, the way
//! [`security`](crate::security) did for confidentiality:
//!
//! * every [`DeviceSpec`](legato_hw::device::DeviceSpec) carries a ladder
//!   of voltage/frequency [`OperatingPoint`](legato_hw::device::OperatingPoint)s
//!   (generic DVFS steps by default; FPGA rails derived from the Fig. 5
//!   undervolting model by [`lowvolt::undervolt_ladder`](crate::lowvolt::undervolt_ladder));
//! * an [`EnergyConfig`] selects a rung per device. The effective spec
//!   (derated compute rate, scaled idle/busy draw) is derived once at
//!   [`EngineConfig::build`](crate::config::EngineConfig::build) time, so
//!   every scheduler [`Estimate`](crate::scheduler::Estimate), every
//!   committed execution and every energy-meter sample is
//!   operating-point-aware with zero hot-path cost;
//! * an optional [`EnergyObjective`] turns placement into a Pareto
//!   decision: minimize energy subject to a makespan bound, or minimize
//!   makespan subject to a power cap;
//! * an aggressive rung's fault probability feeds two places at once:
//!   the engine's per-device silent-fault draws, and the *effective
//!   MTBF* the resilience layer plans Young checkpoint intervals
//!   against — undervolting and checkpointing are co-optimized, not
//!   configured apart.
//!
//! Pay-for-what-you-use holds: a runtime built without an
//! [`EnergyConfig`] runs bit-identically to the pre-energy engine
//! (proptest-pinned), and [`RunReport::energy`](crate::runtime::RunReport::energy)
//! stays `None`.

use legato_core::units::{Joule, Seconds, Watt};
use serde::{Deserialize, Serialize};

/// Pareto scheduling objective the energy layer can impose on placement.
///
/// When set, the objective *replaces* the configured
/// [`Policy`](crate::scheduler::Policy)'s scoring for device selection
/// (the policy still drives everything else, e.g. resilience interval
/// planning estimates).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EnergyObjective {
    /// Among candidates predicted to finish by the bound, pick the
    /// cheapest in energy; when no candidate meets the bound, fall back
    /// to the fastest one and count a bound relaxation.
    MinEnergyWithinMakespan(Seconds),
    /// Among candidates whose busy draw respects the cap, pick the
    /// earliest finisher; when every candidate exceeds the cap, fall
    /// back to the lowest-power one and count a cap relaxation.
    MinMakespanUnderPowerCap(Watt),
}

/// Configuration of the energy layer: which operating-point rung each
/// device runs at, and an optional Pareto objective.
///
/// ```
/// use legato_core::units::Seconds;
/// use legato_runtime::EnergyConfig;
///
/// let cfg = EnergyConfig::new()
///     .with_uniform_step(1)            // every device one rung down
///     .with_device_point(2, 0)         // …except device 2, kept nominal
///     .with_makespan_bound(Seconds(3.0));
/// # let _ = cfg;
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[must_use = "builder-style configs do nothing unless passed to EngineConfig"]
pub struct EnergyConfig {
    /// Ladder rung applied to every device without an explicit override,
    /// clamped to each device's ladder length (devices with short
    /// ladders run at their deepest rung).
    pub uniform_step: usize,
    /// Per-device overrides `(device index, ladder rung)`. Unlike the
    /// uniform step, an override index off the device's ladder is an
    /// error at build time, not a clamp.
    pub device_points: Vec<(usize, usize)>,
    /// Optional Pareto placement objective.
    pub objective: Option<EnergyObjective>,
}

impl EnergyConfig {
    /// Energy accounting at nominal operating points, no objective.
    pub fn new() -> Self {
        EnergyConfig::default()
    }

    /// Run every device `step` rungs down its ladder (clamped per
    /// device).
    pub fn with_uniform_step(mut self, step: usize) -> Self {
        self.uniform_step = step;
        self
    }

    /// Pin `device` to ladder rung `point` (overrides the uniform step;
    /// validated against the device's ladder at build time).
    pub fn with_device_point(mut self, device: usize, point: usize) -> Self {
        self.device_points.push((device, point));
        self
    }

    /// Schedule for minimum energy subject to the given makespan bound.
    pub fn with_makespan_bound(mut self, bound: Seconds) -> Self {
        self.objective = Some(EnergyObjective::MinEnergyWithinMakespan(bound));
        self
    }

    /// Schedule for minimum makespan subject to the given per-device
    /// busy-power cap.
    pub fn with_power_cap(mut self, cap: Watt) -> Self {
        self.objective = Some(EnergyObjective::MinMakespanUnderPowerCap(cap));
        self
    }

    /// The ladder rung `device` runs at, given its ladder length:
    /// the explicit override if one exists (last one wins), else the
    /// clamped uniform step.
    #[must_use]
    pub fn point_for(&self, device: usize, ladder_len: usize) -> usize {
        self.device_points
            .iter()
            .rev()
            .find(|(d, _)| *d == device)
            .map_or_else(
                || self.uniform_step.min(ladder_len.saturating_sub(1)),
                |&(_, p)| p,
            )
    }
}

/// Energy counters of one run, reported as
/// [`RunReport::energy`](crate::runtime::RunReport::energy) whenever the
/// runtime was built with an [`EnergyConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[must_use = "stats are counters for the caller to inspect; dropping them unread is a bug"]
pub struct EnergyStats {
    /// Joules spent executing tasks (busy power over execution time,
    /// from the per-device [`EnergyMeter`](legato_hw::power::EnergyMeter)s).
    pub busy_energy: Joule,
    /// Joules of idle draw over the makespan (per device: idle power ×
    /// time not spent executing).
    pub idle_energy: Joule,
    /// `busy_energy + idle_energy`.
    pub total_energy: Joule,
    /// Whole-system average power over the run (`total_energy /
    /// makespan`; zero for an empty run).
    pub average_power: Watt,
    /// Placements where no candidate met the makespan bound and the
    /// engine fell back to the fastest device.
    pub bound_relaxations: u64,
    /// Placements where no candidate respected the power cap and the
    /// engine fell back to the lowest-power device.
    pub cap_relaxations: u64,
}

/// Engine-side state of the energy layer. Built by
/// [`EngineConfig::build`](crate::config::EngineConfig::build); inactive
/// (and cost-free) on runtimes constructed without an [`EnergyConfig`].
#[derive(Debug, Clone, Default)]
pub(crate) struct EnergyState {
    /// Whether an [`EnergyConfig`] was supplied.
    pub active: bool,
    /// The Pareto objective, if any.
    pub objective: Option<EnergyObjective>,
    /// Per-device silent-fault probability induced by the selected
    /// operating points (zero at fault-free rungs). Feeds the effective
    /// MTBF in [`resilience::plan_interval`](crate::resilience::plan_interval);
    /// empty when the layer is inactive.
    pub op_fault_probs: Vec<f64>,
    /// Placements that had to relax the makespan bound.
    pub bound_relaxations: u64,
    /// Placements that had to relax the power cap.
    pub cap_relaxations: u64,
}

impl EnergyState {
    /// Assemble the report-facing stats from the run's energy totals.
    pub(crate) fn stats(
        &self,
        busy_energy: Joule,
        idle_energy: Joule,
        makespan: Seconds,
    ) -> EnergyStats {
        let total_energy = busy_energy + idle_energy;
        EnergyStats {
            busy_energy,
            idle_energy,
            total_energy,
            average_power: if makespan.0 > 0.0 {
                total_energy / makespan
            } else {
                Watt(0.0)
            },
            bound_relaxations: self.bound_relaxations,
            cap_relaxations: self.cap_relaxations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_for_prefers_last_override_then_clamped_step() {
        let cfg = EnergyConfig::new()
            .with_uniform_step(2)
            .with_device_point(1, 0)
            .with_device_point(1, 1);
        assert_eq!(cfg.point_for(0, 3), 2);
        assert_eq!(cfg.point_for(0, 2), 1, "uniform step clamps to ladder");
        assert_eq!(cfg.point_for(1, 3), 1, "last override wins");
        assert_eq!(cfg.point_for(5, 1), 0, "single-rung ladder stays nominal");
    }

    #[test]
    fn builders_set_the_objective() {
        let bound = EnergyConfig::new().with_makespan_bound(Seconds(2.0));
        assert_eq!(
            bound.objective,
            Some(EnergyObjective::MinEnergyWithinMakespan(Seconds(2.0)))
        );
        let cap = EnergyConfig::new().with_power_cap(Watt(50.0));
        assert_eq!(
            cap.objective,
            Some(EnergyObjective::MinMakespanUnderPowerCap(Watt(50.0)))
        );
    }

    #[test]
    fn stats_average_power_guards_empty_runs() {
        let state = EnergyState {
            active: true,
            ..EnergyState::default()
        };
        let s = state.stats(Joule(6.0), Joule(2.0), Seconds(4.0));
        assert_eq!(s.total_energy, Joule(8.0));
        assert_eq!(s.average_power, Watt(2.0));
        let empty = state.stats(Joule(0.0), Joule(0.0), Seconds(0.0));
        assert_eq!(empty.average_power, Watt(0.0));
    }
}
