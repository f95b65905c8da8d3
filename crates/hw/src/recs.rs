//! RECS|BOX chassis topology (paper Fig. 3 and Fig. 4).
//!
//! The RECS|BOX "supports up to 144 heterogeneous, modular microserver
//! nodes … in a compact 3 RU form factor": a server backplane carries up to
//! 15 carriers; a low-power carrier hosts up to 16 low-power microservers
//! (Apalis/Jetson-class ARM SoCs, FPGA SoCs), a high-performance carrier up
//! to 3 COM-Express microservers (x86/ARM v8), and PCIe expansion carriers
//! host accelerators such as GPUs. Three networks interconnect them: a
//! high-speed low-latency fabric (PCIe/serial), a compute network (up to
//! 40 GbE) and a management network.
//!
//! This module reproduces that structure as validated types so the
//! schedulers can enumerate real platform shapes.

use legato_core::units::{BytesPerSec, Watt};
use serde::{Deserialize, Serialize};

use crate::device::DeviceSpec;
use crate::error::HwError;

/// Maximum carriers on one backplane.
pub const MAX_CARRIERS: usize = 15;
/// Maximum microservers on a low-power carrier.
pub const MAX_LOW_POWER_SLOTS: usize = 16;
/// Maximum microservers on a high-performance carrier.
pub const MAX_HIGH_PERF_SLOTS: usize = 3;

/// One pluggable microserver module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Microserver {
    /// Module label (e.g. `"ms-0"`).
    pub name: String,
    /// The compute device this module carries.
    pub device: DeviceSpec,
}

impl Microserver {
    /// A microserver around a device spec.
    #[must_use]
    pub fn new(name: impl Into<String>, device: DeviceSpec) -> Self {
        Microserver {
            name: name.into(),
            device,
        }
    }
}

/// A carrier board plugged into the backplane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Carrier {
    /// Low-power carrier: up to 16 Apalis/Jetson-class modules.
    LowPower {
        /// Occupied slots.
        slots: Vec<Microserver>,
    },
    /// High-performance carrier: up to 3 COM-Express-class modules.
    HighPerformance {
        /// Occupied slots.
        slots: Vec<Microserver>,
    },
    /// PCIe expansion carrier (e.g. a GPU accelerator).
    PcieExpansion {
        /// The accelerator mounted on the carrier.
        accelerator: Microserver,
    },
}

impl Carrier {
    /// Microservers on this carrier, borrowed in slot order.
    ///
    /// Returns a slice into the carrier itself so hot-path callers (the
    /// runtime's device-pool layer polls carrier membership per
    /// placement) never allocate.
    #[must_use]
    pub fn microservers(&self) -> &[Microserver] {
        match self {
            Carrier::LowPower { slots } | Carrier::HighPerformance { slots } => slots,
            Carrier::PcieExpansion { accelerator } => std::slice::from_ref(accelerator),
        }
    }

    fn validate(&self) -> Result<(), HwError> {
        match self {
            Carrier::LowPower { slots } => {
                if slots.is_empty() {
                    return Err(HwError::Topology("low-power carrier has no modules".into()));
                }
                if slots.len() > MAX_LOW_POWER_SLOTS {
                    return Err(HwError::Topology(format!(
                        "low-power carrier holds at most {MAX_LOW_POWER_SLOTS} microservers, got {}",
                        slots.len()
                    )));
                }
            }
            Carrier::HighPerformance { slots } => {
                if slots.is_empty() {
                    return Err(HwError::Topology(
                        "high-performance carrier has no modules".into(),
                    ));
                }
                if slots.len() > MAX_HIGH_PERF_SLOTS {
                    return Err(HwError::Topology(format!(
                        "high-performance carrier holds at most {MAX_HIGH_PERF_SLOTS} microservers, got {}",
                        slots.len()
                    )));
                }
            }
            Carrier::PcieExpansion { .. } => {}
        }
        Ok(())
    }
}

/// Interconnect parameters of the chassis (Fig. 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Networks {
    /// Compute network bandwidth (up to 40 GbE).
    pub compute: BytesPerSec,
    /// High-speed low-latency fabric (PCIe / high-speed serial).
    pub fabric: BytesPerSec,
    /// Management network (KVM, monitoring) bandwidth.
    pub management: BytesPerSec,
}

impl Default for Networks {
    fn default() -> Self {
        Networks {
            // 40 GbE ≈ 5 GB/s.
            compute: BytesPerSec(5.0e9),
            // PCIe gen3 x8 host-to-host ≈ 7.9 GB/s.
            fabric: BytesPerSec(7.9e9),
            management: BytesPerSec(125.0e6), // 1 GbE
        }
    }
}

/// A populated RECS|BOX chassis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecsBox {
    /// Chassis label.
    pub name: String,
    /// Carriers on the backplane (≤ [`MAX_CARRIERS`]).
    pub carriers: Vec<Carrier>,
    /// Interconnects.
    pub networks: Networks,
}

impl RecsBox {
    /// Start building a chassis.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> RecsBoxBuilder {
        RecsBoxBuilder {
            name: name.into(),
            carriers: Vec::new(),
            networks: Networks::default(),
        }
    }

    /// All microservers across all carriers, in carrier-then-slot order.
    ///
    /// Lazily iterates over borrowed modules — no per-call `Vec` — so the
    /// scheduler's pool layer can enumerate chassis membership on the
    /// placement hot path without allocation.
    pub fn microservers(&self) -> impl Iterator<Item = &Microserver> {
        self.carriers.iter().flat_map(|c| c.microservers())
    }

    /// Number of microserver modules.
    #[must_use]
    pub fn module_count(&self) -> usize {
        self.carriers.iter().map(|c| c.microservers().len()).sum()
    }

    /// Chassis idle power: sum of module idle draws.
    #[must_use]
    pub fn idle_power(&self) -> Watt {
        self.microservers().map(|m| m.device.idle_power).sum()
    }

    /// Chassis peak power: sum of module busy draws. With
    /// [`RecsBox::idle_power`] it bounds what the chassis draws.
    ///
    /// ```
    /// use legato_core::units::Watt;
    /// use legato_hw::device::DeviceSpec;
    /// use legato_hw::recs::RecsBox;
    ///
    /// let recs = RecsBox::builder("edge")
    ///     .low_power_carrier(vec![DeviceSpec::arm64(); 4])
    ///     .build()?;
    /// assert_eq!(recs.peak_power(), Watt(48.0));
    /// assert!(recs.idle_power() < recs.peak_power());
    /// # Ok::<(), legato_hw::HwError>(())
    /// ```
    #[must_use]
    pub fn peak_power(&self) -> Watt {
        self.microservers().map(|m| m.device.busy_power).sum()
    }
}

/// Builder for [`RecsBox`] with topology validation.
///
/// ```
/// use legato_hw::recs::RecsBox;
/// use legato_hw::device::DeviceSpec;
///
/// # fn main() -> Result<(), legato_hw::HwError> {
/// let recs = RecsBox::builder("demo")
///     .high_performance_carrier(vec![DeviceSpec::xeon_x86(); 2])
///     .low_power_carrier(vec![DeviceSpec::arm64(); 8])
///     .pcie_expansion(DeviceSpec::gtx1080())
///     .build()?;
/// assert_eq!(recs.module_count(), 11);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RecsBoxBuilder {
    name: String,
    carriers: Vec<Carrier>,
    networks: Networks,
}

impl RecsBoxBuilder {
    /// Add a low-power carrier populated with the given devices.
    #[must_use]
    pub fn low_power_carrier(mut self, devices: Vec<DeviceSpec>) -> Self {
        let slots = devices
            .into_iter()
            .enumerate()
            .map(|(i, d)| Microserver::new(format!("lp{}-{}", self.carriers.len(), i), d))
            .collect();
        self.carriers.push(Carrier::LowPower { slots });
        self
    }

    /// Add a high-performance carrier populated with the given devices.
    #[must_use]
    pub fn high_performance_carrier(mut self, devices: Vec<DeviceSpec>) -> Self {
        let slots = devices
            .into_iter()
            .enumerate()
            .map(|(i, d)| Microserver::new(format!("hp{}-{}", self.carriers.len(), i), d))
            .collect();
        self.carriers.push(Carrier::HighPerformance { slots });
        self
    }

    /// Add a PCIe expansion carrier with one accelerator.
    #[must_use]
    pub fn pcie_expansion(mut self, accelerator: DeviceSpec) -> Self {
        let m = Microserver::new(format!("pcie{}", self.carriers.len()), accelerator);
        self.carriers
            .push(Carrier::PcieExpansion { accelerator: m });
        self
    }

    /// Override the interconnect parameters.
    #[must_use]
    pub fn networks(mut self, networks: Networks) -> Self {
        self.networks = networks;
        self
    }

    /// Validate and build the chassis.
    ///
    /// # Errors
    ///
    /// [`HwError::Topology`] when a carrier or backplane limit is violated
    /// or the chassis is empty.
    pub fn build(self) -> Result<RecsBox, HwError> {
        if self.carriers.is_empty() {
            return Err(HwError::Topology("chassis has no carriers".into()));
        }
        if self.carriers.len() > MAX_CARRIERS {
            return Err(HwError::Topology(format!(
                "backplane holds at most {MAX_CARRIERS} carriers, got {}",
                self.carriers.len()
            )));
        }
        for c in &self.carriers {
            c.validate()?;
        }
        Ok(RecsBox {
            name: self.name,
            carriers: self.carriers,
            networks: self.networks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceKind;

    #[test]
    fn builds_mixed_chassis() {
        let recs = RecsBox::builder("box")
            .high_performance_carrier(vec![DeviceSpec::xeon_x86(); 3])
            .low_power_carrier(vec![DeviceSpec::arm64(); 16])
            .pcie_expansion(DeviceSpec::gtx1080())
            .build()
            .unwrap();
        assert_eq!(recs.module_count(), 20);
        let of_kind = |kind| {
            recs.microservers()
                .filter(|m| m.device.kind == kind)
                .count()
        };
        assert_eq!(of_kind(DeviceKind::Gpu), 1);
        assert_eq!(of_kind(DeviceKind::CpuArm), 16);
    }

    #[test]
    fn rejects_overfull_low_power_carrier() {
        let r = RecsBox::builder("box")
            .low_power_carrier(vec![DeviceSpec::arm64(); 17])
            .build();
        assert!(matches!(r, Err(HwError::Topology(_))));
    }

    #[test]
    fn rejects_overfull_high_perf_carrier() {
        let r = RecsBox::builder("box")
            .high_performance_carrier(vec![DeviceSpec::xeon_x86(); 4])
            .build();
        assert!(matches!(r, Err(HwError::Topology(_))));
    }

    #[test]
    fn rejects_too_many_carriers() {
        let mut b = RecsBox::builder("box");
        for _ in 0..16 {
            b = b.high_performance_carrier(vec![DeviceSpec::xeon_x86()]);
        }
        assert!(matches!(b.build(), Err(HwError::Topology(_))));
    }

    #[test]
    fn rejects_empty_chassis_and_carriers() {
        assert!(RecsBox::builder("e").build().is_err());
        assert!(RecsBox::builder("e")
            .low_power_carrier(vec![])
            .build()
            .is_err());
    }

    #[test]
    fn max_capacity_chassis_is_144_modules() {
        // 9 low-power carriers × 16 = 144 modules: the paper's headline
        // capacity fits within 15 carriers.
        let mut b = RecsBox::builder("max");
        for _ in 0..9 {
            b = b.low_power_carrier(vec![DeviceSpec::arm64(); 16]);
        }
        let recs = b.build().unwrap();
        assert_eq!(recs.module_count(), 144);
    }

    #[test]
    fn power_sums() {
        let recs = RecsBox::builder("p")
            .low_power_carrier(vec![DeviceSpec::arm64(); 2])
            .build()
            .unwrap();
        assert_eq!(recs.idle_power(), Watt(6.0));
        assert_eq!(recs.peak_power(), Watt(24.0));
    }

    #[test]
    fn default_networks_are_ordered() {
        let n = Networks::default();
        assert!(n.fabric > n.compute);
        assert!(n.compute > n.management);
    }
}
