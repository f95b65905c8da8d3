//! The Fig. 5 undervolting characterization experiment.
//!
//! [`undervolt_sweep`] reproduces the paper's methodology: write a test
//! pattern into every BRAM, step `VCCBRAM` down from nominal in small
//! decrements, and at each step measure power, observe bit errors against
//! the golden image, and classify the voltage region — until the board
//! crashes.

use legato_core::units::{FaultsPerMbit, Volt, Watt};
use serde::{Deserialize, Serialize};

use crate::fpga::UndervoltFpga;
use crate::platform::FpgaPlatform;
use crate::voltage::VoltageRegion;

/// One measurement of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Rail voltage.
    pub vccbram: Volt,
    /// Region the rail is in.
    pub region: VoltageRegion,
    /// BRAM power at this voltage.
    pub power: Watt,
    /// Fractional power saving versus nominal.
    pub power_saving: f64,
    /// Model fault density at this voltage.
    pub expected_rate: FaultsPerMbit,
    /// Observed fault density: bit errors per Mbit measured against the
    /// golden image over a 1-second exposure.
    pub observed_rate: FaultsPerMbit,
    /// Raw bit errors observed.
    pub bit_errors: u64,
}

/// Sweep `VCCBRAM` from nominal down to (and past) the crash point in
/// `step_mv` millivolt decrements.
///
/// Returns one [`SweepPoint`] per step; the final point is the first one
/// inside the crash region (power is still reported — the rail is powered
/// even when the fabric stops responding; fault counts there reflect the
/// last observable state).
///
/// The BRAM is rewritten with the `0xAA` checkerboard before each step so
/// every step measures a fresh 1-second exposure, matching the per-voltage
/// characterization runs of the paper.
///
/// # Panics
///
/// Panics if `step_mv` is not strictly positive.
#[must_use]
pub fn undervolt_sweep(platform: FpgaPlatform, step_mv: f64, seed: u64) -> Vec<SweepPoint> {
    assert!(step_mv > 0.0, "step must be positive millivolts");
    let mut fpga = UndervoltFpga::new(platform.clone(), seed);
    fpga.brams_mut().fill(0xAA);
    let golden = fpga.brams().snapshot();
    let mbits = fpga.brams().capacity().as_mbit_f64();

    // Voltage schedule: regular decrements, plus an explicit probe at the
    // crash edge (the paper's "at Vcrash" measurement), then one step into
    // the crash region.
    let mut schedule = Vec::new();
    let mut v = platform.v_nominal;
    let edge = Volt(platform.v_crash.0 + 1e-4);
    while platform.region_at(v) != VoltageRegion::Crash {
        schedule.push(v);
        let next = Volt(v.0 - step_mv / 1000.0);
        if platform.region_at(next) == VoltageRegion::Crash && v > edge {
            schedule.push(edge);
        }
        v = next;
    }
    schedule.push(v);

    let mut points = Vec::new();
    for v in schedule {
        let region = platform.region_at(v);
        let bit_errors = if region == VoltageRegion::Crash {
            // The board stops responding: carry the last measurable rate.
            fpga.set_vccbram(v).ok();
            points.last().map_or(0, |p: &SweepPoint| p.bit_errors)
        } else {
            // Fresh pattern, 1 s exposure, count errors.
            fpga.reprogram(platform.v_nominal).expect("safe voltage");
            fpga.brams_mut().fill(0xAA);
            fpga.set_vccbram(v).expect("valid voltage");
            fpga.tick(legato_core::units::Seconds(1.0));
            fpga.brams().count_bit_errors(&golden)
        };
        points.push(SweepPoint {
            vccbram: v,
            region,
            power: platform.power_at(v),
            power_saving: platform.power_saving_at(v),
            expected_rate: platform.fault_rate_at(v),
            observed_rate: FaultsPerMbit(bit_errors as f64 / mbits),
            bit_errors,
        });
    }
    points
}

/// Summary of a sweep: the three landmark voltages and headline numbers,
/// i.e. one row of the paper's cross-platform comparison (§III-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Platform name.
    pub platform: String,
    /// Last fault-free voltage observed (measured `Vmin`).
    pub v_min: Volt,
    /// First non-responsive voltage observed (measured `Vcrash`).
    pub v_crash: Volt,
    /// Observed fault density at the last usable step.
    pub rate_at_crash: FaultsPerMbit,
    /// Power saving at the crash edge versus nominal.
    pub saving_at_crash: f64,
}

impl SweepSummary {
    /// Summarize a sweep produced by [`undervolt_sweep`].
    ///
    /// # Panics
    ///
    /// Panics if the sweep is empty or never reached the crash region.
    #[must_use]
    pub fn from_points(platform: &FpgaPlatform, points: &[SweepPoint]) -> Self {
        assert!(!points.is_empty(), "empty sweep");
        let v_min = points
            .iter()
            .filter(|p| p.region == VoltageRegion::Guardband)
            .map(|p| p.vccbram)
            .fold(Volt(f64::INFINITY), Volt::min);
        let crash = points
            .iter()
            .find(|p| p.region == VoltageRegion::Crash)
            .expect("sweep must reach the crash region");
        let last_usable = points
            .iter()
            .rfind(|p| p.region != VoltageRegion::Crash)
            .expect("sweep has usable points");
        SweepSummary {
            platform: platform.name.clone(),
            v_min,
            v_crash: crash.vccbram,
            rate_at_crash: last_usable.observed_rate,
            saving_at_crash: last_usable.power_saving,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The VC707 at 5 mV (~100 exposures of the largest BRAM array), run
    /// once for the three tests that read it.
    fn vc707_5mv() -> &'static [SweepPoint] {
        static SWEEP: OnceLock<Vec<SweepPoint>> = OnceLock::new();
        SWEEP.get_or_init(|| undervolt_sweep(FpgaPlatform::vc707(), 5.0, 4))
    }

    #[test]
    fn sweep_covers_three_regions() {
        let pts = undervolt_sweep(FpgaPlatform::vc707(), 10.0, 1);
        let has = |r| pts.iter().any(|p| p.region == r);
        assert!(has(VoltageRegion::Guardband));
        assert!(has(VoltageRegion::Critical));
        assert!(has(VoltageRegion::Crash));
        // Ends exactly at the first crash point.
        assert_eq!(pts.last().unwrap().region, VoltageRegion::Crash);
        assert_eq!(
            pts.iter()
                .filter(|p| p.region == VoltageRegion::Crash)
                .count(),
            1
        );
    }

    #[test]
    fn power_monotonically_decreases() {
        let pts = undervolt_sweep(FpgaPlatform::kc705_a(), 10.0, 2);
        for w in pts.windows(2) {
            assert!(w[1].power <= w[0].power);
        }
    }

    #[test]
    fn guardband_points_are_fault_free() {
        let pts = undervolt_sweep(FpgaPlatform::zc702(), 10.0, 3);
        for p in pts.iter().filter(|p| p.region == VoltageRegion::Guardband) {
            assert_eq!(p.bit_errors, 0, "fault at {} in guardband", p.vccbram);
        }
    }

    #[test]
    fn critical_points_show_growing_errors() {
        let pts = vc707_5mv();
        let critical: Vec<_> = pts
            .iter()
            .filter(|p| p.region == VoltageRegion::Critical)
            .collect();
        assert!(critical.len() > 5);
        // Deepest critical point has far more errors than the first.
        let first = critical.first().unwrap().observed_rate.0.max(0.01);
        let last = critical.last().unwrap().observed_rate.0;
        assert!(last / first > 10.0, "first {first}, last {last}");
    }

    #[test]
    fn observed_rate_tracks_model_near_crash() {
        let pts = vc707_5mv();
        let last_usable = pts
            .iter()
            .rfind(|p| p.region == VoltageRegion::Critical)
            .unwrap();
        let rel = (last_usable.observed_rate.0 - last_usable.expected_rate.0).abs()
            / last_usable.expected_rate.0;
        assert!(
            rel < 0.25,
            "observed {} vs model {}",
            last_usable.observed_rate,
            last_usable.expected_rate
        );
    }

    #[test]
    fn summary_matches_calibration() {
        let platform = FpgaPlatform::vc707();
        let s = SweepSummary::from_points(&platform, vc707_5mv());
        assert!(s.v_min >= platform.v_min);
        assert!(s.v_crash <= platform.v_crash + Volt(0.005));
        assert!(s.saving_at_crash > 0.88, "saving {}", s.saving_at_crash);
        // Observed crash-edge rate within 30 % of the published 652.
        let rel = (s.rate_at_crash.0 - 652.0).abs() / 652.0;
        assert!(rel < 0.30, "rate {}", s.rate_at_crash);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn rejects_bad_step() {
        let _ = undervolt_sweep(FpgaPlatform::vc707(), 0.0, 0);
    }
}
