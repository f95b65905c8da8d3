//! E1/E2 — Fig. 5: FPGA undervolting characterization.

use legato_fpga::sweep::SweepSummary;
use legato_fpga::{undervolt_sweep, FpgaPlatform, SweepPoint, VoltageRegion};

/// One platform's sweep plus its summary row.
#[derive(Debug, Clone)]
pub struct PlatformSweep {
    /// The platform swept.
    pub platform: FpgaPlatform,
    /// All measurement points, nominal → crash.
    pub points: Vec<SweepPoint>,
    /// Landmark summary (the §III-B comparison row).
    pub summary: SweepSummary,
}

/// Run the Fig. 5 sweep for every evaluated platform at `step_mv`
/// granularity.
#[must_use]
pub fn run(step_mv: f64, seed: u64) -> Vec<PlatformSweep> {
    FpgaPlatform::all()
        .into_iter()
        .map(|platform| {
            let points = undervolt_sweep(platform.clone(), step_mv, seed);
            let summary = SweepSummary::from_points(&platform, &points);
            PlatformSweep {
                platform,
                points,
                summary,
            }
        })
        .collect()
}

/// The Fig. 5 voltage series for one platform, decimated to every
/// `stride`-th point for display.
#[must_use]
pub fn series(sweep: &PlatformSweep, stride: usize) -> Vec<&SweepPoint> {
    sweep
        .points
        .iter()
        .enumerate()
        .filter(|(i, p)| {
            i % stride.max(1) == 0
                || p.region != VoltageRegion::Guardband
                || p.vccbram == sweep.platform.v_nominal
        })
        .map(|(_, p)| p)
        .collect()
}

/// Check the headline claims against a sweep (used by the shape test
/// DESIGN.md §3 names): returns `(saving_at_crash, rate_at_crash)`.
#[must_use]
pub fn headline(sweep: &PlatformSweep) -> (f64, f64) {
    (sweep.summary.saving_at_crash, sweep.summary.rate_at_crash.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The 5 mV sweep, run once for the tests that read it.
    fn sweeps_5mv() -> &'static [PlatformSweep] {
        static SWEEPS: OnceLock<Vec<PlatformSweep>> = OnceLock::new();
        SWEEPS.get_or_init(|| run(5.0, 2))
    }

    #[test]
    fn all_four_platforms_swept() {
        let sweeps = run(10.0, 1);
        assert_eq!(sweeps.len(), 4);
        for s in &sweeps {
            assert!(s.points.len() > 20, "{} too few points", s.platform.name);
            // Measured vs calibrated `Vmin` (model sanity).
            let vmin_error = (s.summary.v_min - s.platform.v_min).abs();
            assert!(vmin_error.0 <= 0.011, "{} vmin off", s.platform.name);
        }
    }

    #[test]
    fn vc707_headline_numbers() {
        let vc707 = &sweeps_5mv()[0];
        let (saving, rate) = headline(vc707);
        assert!(saving > 0.88, "saving {saving}");
        assert!((rate - 652.0).abs() / 652.0 < 0.3, "rate {rate}");
    }

    #[test]
    fn series_decimation_keeps_critical_points() {
        let vc707 = &sweeps_5mv()[0];
        let s = series(vc707, 10);
        let critical = s
            .iter()
            .filter(|p| p.region == VoltageRegion::Critical)
            .count();
        let total_critical = vc707
            .points
            .iter()
            .filter(|p| p.region == VoltageRegion::Critical)
            .count();
        assert_eq!(critical, total_critical);
    }
}
