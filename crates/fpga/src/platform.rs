//! Calibration tables for the evaluated FPGA platforms.
//!
//! All four boards are 28 nm parts with a nominal `VCCBRAM` of 1.0 V
//! (paper §III-A). The per-board voltage margins and crash-point fault
//! densities are calibrated to the numbers published in §III-B: fault
//! rates grow exponentially through the critical region up to 652, 254,
//! 60 and 153 faults/Mbit at `Vcrash` for VC707, KC705-A, KC705-B and
//! ZC702 respectively, and the three regions are "recognizable for all"
//! platforms with slight margin differences — even between the two
//! identical KC705 samples.

use legato_core::units::{Bytes, FaultsPerMbit, Volt, Watt};
use serde::{Deserialize, Serialize};

use crate::voltage::VoltageRegion;

/// Fault density right at the top of the critical region (just under
/// `Vmin`), in faults/Mbit: the first sporadic flips.
const ONSET_RATE: f64 = 0.05;

/// Static description of one FPGA board's undervolting behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FpgaPlatform {
    /// Board name, e.g. `"VC707"`.
    pub name: String,
    /// Device family, e.g. `"Virtex-7"`.
    pub family: String,
    /// Nominal (default) BRAM rail voltage — 1.0 V on all evaluated parts.
    pub v_nominal: Volt,
    /// Minimum safe voltage: lower edge of the vendor guardband.
    pub v_min: Volt,
    /// Crash voltage: the DONE pin drops at or below this rail level.
    pub v_crash: Volt,
    /// Measured fault density when the rail sits just above `v_crash`.
    pub faults_at_crash: FaultsPerMbit,
    /// BRAM subsystem power at nominal voltage.
    pub bram_power_nominal: Watt,
    /// Exponent of the power-law power model (see
    /// [`FpgaPlatform::power_at`]).
    pub power_exponent: f64,
    /// Total on-chip BRAM capacity.
    pub bram_capacity: Bytes,
    /// Process node in nanometres (28 nm for all evaluated parts).
    pub technology_nm: u32,
}

impl FpgaPlatform {
    /// VC707 evaluation board (performance-oriented Virtex-7).
    #[must_use]
    pub fn vc707() -> Self {
        FpgaPlatform {
            name: "VC707".into(),
            family: "Virtex-7".into(),
            v_nominal: Volt(1.0),
            v_min: Volt(0.61),
            v_crash: Volt(0.54),
            faults_at_crash: FaultsPerMbit(652.0),
            bram_power_nominal: Watt(2.7),
            power_exponent: 3.8,
            // 1 030 × 36 Kb blocks ≈ 4.5 MiB.
            bram_capacity: Bytes::kib(1030 * 36 / 8),
            technology_nm: 28,
        }
    }

    /// KC705 evaluation board, sample A (power-oriented Kintex-7).
    #[must_use]
    pub fn kc705_a() -> Self {
        FpgaPlatform {
            name: "KC705-A".into(),
            family: "Kintex-7".into(),
            v_nominal: Volt(1.0),
            v_min: Volt(0.60),
            v_crash: Volt(0.53),
            faults_at_crash: FaultsPerMbit(254.0),
            bram_power_nominal: Watt(1.8),
            power_exponent: 3.6,
            bram_capacity: Bytes::kib(445 * 36 / 8),
            technology_nm: 28,
        }
    }

    /// KC705 evaluation board, sample B — an "identical" part whose
    /// margins nevertheless differ from sample A (process variation).
    ///
    /// ```
    /// use legato_fpga::FpgaPlatform;
    ///
    /// let (a, b) = (FpgaPlatform::kc705_a(), FpgaPlatform::kc705_b());
    /// assert_eq!(a.family, b.family);
    /// assert!(b.v_min < a.v_min, "sample B undervolts further before faults");
    /// assert!(b.faults_at_crash.0 < a.faults_at_crash.0);
    /// ```
    #[must_use]
    pub fn kc705_b() -> Self {
        FpgaPlatform {
            name: "KC705-B".into(),
            family: "Kintex-7".into(),
            v_nominal: Volt(1.0),
            v_min: Volt(0.59),
            v_crash: Volt(0.525),
            faults_at_crash: FaultsPerMbit(60.0),
            bram_power_nominal: Watt(1.8),
            power_exponent: 3.6,
            bram_capacity: Bytes::kib(445 * 36 / 8),
            technology_nm: 28,
        }
    }

    /// ZC702 evaluation board (CPU-based Zynq-7000).
    #[must_use]
    pub fn zc702() -> Self {
        FpgaPlatform {
            name: "ZC702".into(),
            family: "Zynq-7000".into(),
            v_nominal: Volt(1.0),
            v_min: Volt(0.58),
            v_crash: Volt(0.515),
            faults_at_crash: FaultsPerMbit(153.0),
            bram_power_nominal: Watt(1.1),
            power_exponent: 3.5,
            bram_capacity: Bytes::kib(140 * 36 / 8),
            technology_nm: 28,
        }
    }

    /// All four evaluated platforms, in the paper's order.
    #[must_use]
    pub fn all() -> Vec<FpgaPlatform> {
        vec![
            FpgaPlatform::vc707(),
            FpgaPlatform::zc702(),
            FpgaPlatform::kc705_a(),
            FpgaPlatform::kc705_b(),
        ]
    }

    /// The voltage region the rail is in at `v`.
    #[must_use]
    pub fn region_at(&self, v: Volt) -> VoltageRegion {
        if v <= self.v_crash {
            VoltageRegion::Crash
        } else if v < self.v_min {
            VoltageRegion::Critical
        } else {
            VoltageRegion::Guardband
        }
    }

    /// BRAM power at rail voltage `v`.
    ///
    /// Modelled as a single power law `P(V) = P_nom · (V / V_nom)^α`. The
    /// exponent α > 2 folds together the quadratic dynamic component and
    /// the super-linear leakage reduction measured on the real boards; it
    /// is calibrated so the VC707 saves slightly more than 90 % of BRAM
    /// power at `Vcrash`, as Fig. 5 reports.
    #[must_use]
    pub fn power_at(&self, v: Volt) -> Watt {
        let ratio = (v.0 / self.v_nominal.0).max(0.0);
        self.bram_power_nominal * ratio.powf(self.power_exponent)
    }

    /// BRAM power at the nominal rail voltage.
    #[must_use]
    pub fn nominal_power(&self) -> Watt {
        self.bram_power_nominal
    }

    /// Fractional power saving at `v` versus nominal, in `[0, 1]`.
    #[must_use]
    pub fn power_saving_at(&self, v: Volt) -> f64 {
        1.0 - self.power_at(v) / self.nominal_power()
    }

    /// Expected fault density at rail voltage `v`.
    ///
    /// Zero through the guardband; within the critical region the rate
    /// grows exponentially from 0.05 faults/Mbit (the first sporadic
    /// flips) at `Vmin` to
    /// `faults_at_crash` at `Vcrash` (paper: "the fault rate exponentially
    /// increases by further undervolting within the critical region").
    /// The crash region reports the crash-point density (the device is
    /// unusable there anyway).
    #[must_use]
    pub fn fault_rate_at(&self, v: Volt) -> FaultsPerMbit {
        match self.region_at(v) {
            VoltageRegion::Guardband => FaultsPerMbit(0.0),
            VoltageRegion::Crash => self.faults_at_crash,
            VoltageRegion::Critical => {
                let span = self.v_min.0 - self.v_crash.0;
                // Normalized depth into the critical region: 0 at Vmin, 1
                // at Vcrash.
                let depth = (self.v_min.0 - v.0) / span;
                let k = (self.faults_at_crash.0 / ONSET_RATE).ln();
                FaultsPerMbit(ONSET_RATE * (k * depth).exp())
            }
        }
    }

    /// Width of the vendor guardband in volts: how far below nominal the
    /// rail goes before the first fault (Fig. 5's headline margin).
    ///
    /// ```
    /// use legato_fpga::FpgaPlatform;
    ///
    /// let vc707 = FpgaPlatform::vc707();
    /// assert!((vc707.guardband_width().0 - 0.39).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn guardband_width(&self) -> Volt {
        self.v_nominal - self.v_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_platforms_share_nominal_and_node() {
        for p in FpgaPlatform::all() {
            assert_eq!(p.v_nominal, Volt(1.0));
            assert_eq!(p.technology_nm, 28);
            assert!(p.v_min > p.v_crash);
            assert!(p.v_nominal > p.v_min);
        }
    }

    #[test]
    fn published_crash_fault_rates() {
        assert_eq!(FpgaPlatform::vc707().faults_at_crash, FaultsPerMbit(652.0));
        assert_eq!(
            FpgaPlatform::kc705_a().faults_at_crash,
            FaultsPerMbit(254.0)
        );
        assert_eq!(FpgaPlatform::kc705_b().faults_at_crash, FaultsPerMbit(60.0));
        assert_eq!(FpgaPlatform::zc702().faults_at_crash, FaultsPerMbit(153.0));
    }

    #[test]
    fn identical_samples_differ() {
        // Process variation: the two KC705 samples have different margins.
        let a = FpgaPlatform::kc705_a();
        let b = FpgaPlatform::kc705_b();
        assert_ne!(a.v_min, b.v_min);
        assert_ne!(a.faults_at_crash, b.faults_at_crash);
        assert_eq!(a.family, b.family);
    }

    #[test]
    fn region_boundaries() {
        let p = FpgaPlatform::vc707();
        assert_eq!(p.region_at(Volt(1.0)), VoltageRegion::Guardband);
        assert_eq!(p.region_at(p.v_min), VoltageRegion::Guardband);
        assert_eq!(
            p.region_at(Volt(p.v_min.0 - 0.001)),
            VoltageRegion::Critical
        );
        assert_eq!(p.region_at(p.v_crash), VoltageRegion::Crash);
        assert_eq!(p.region_at(Volt(0.3)), VoltageRegion::Crash);
    }

    #[test]
    fn vc707_saves_over_90_percent_at_crash() {
        let p = FpgaPlatform::vc707();
        let saving = p.power_saving_at(Volt(p.v_crash.0 + 1e-6));
        assert!(saving > 0.90, "saving {saving}");
    }

    #[test]
    fn power_is_monotonic_in_voltage() {
        let p = FpgaPlatform::kc705_a();
        let mut last = f64::INFINITY;
        let mut v = 1.0;
        while v > 0.5 {
            let pw = p.power_at(Volt(v)).0;
            assert!(pw < last);
            last = pw;
            v -= 0.01;
        }
    }

    #[test]
    fn fault_rate_zero_in_guardband() {
        let p = FpgaPlatform::zc702();
        assert_eq!(p.fault_rate_at(Volt(1.0)), FaultsPerMbit(0.0));
        assert_eq!(p.fault_rate_at(p.v_min), FaultsPerMbit(0.0));
    }

    #[test]
    fn fault_rate_reaches_published_value_at_crash_edge() {
        for p in FpgaPlatform::all() {
            let just_above = Volt(p.v_crash.0 + 1e-9);
            let rate = p.fault_rate_at(just_above);
            let rel = (rate.0 - p.faults_at_crash.0).abs() / p.faults_at_crash.0;
            assert!(
                rel < 0.01,
                "{}: rate {rate} vs {}",
                p.name,
                p.faults_at_crash
            );
        }
    }

    #[test]
    fn fault_rate_is_exponential_in_critical_region() {
        // Fit log(rate) against depth: r² must be ~1.
        let p = FpgaPlatform::vc707();
        let mut pts = Vec::new();
        let mut v = p.v_min.0 - 0.002;
        while v > p.v_crash.0 + 0.002 {
            pts.push((v, p.fault_rate_at(Volt(v)).0));
            v -= 0.002;
        }
        let (_a, b, r2) = legato_core::stats::exponential_fit(&pts).unwrap();
        assert!(r2 > 0.999, "r² {r2}");
        assert!(b < 0.0, "rate must grow as voltage falls, slope {b}");
    }

    #[test]
    fn guardband_width_positive() {
        for p in FpgaPlatform::all() {
            assert!(p.guardband_width().0 > 0.3);
        }
    }
}
