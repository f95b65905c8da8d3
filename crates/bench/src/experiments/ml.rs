//! E8 — §III-C ablation: ML inference accuracy under BRAM undervolting.
//!
//! The quantized classifier's weights live in the FPGA's BRAM. As the
//! rail is underscaled below `Vmin`, accumulated bit-flips corrupt the
//! weights; the experiment measures accuracy and power saving per voltage
//! step, demonstrating the paper's claim that ML models tolerate
//! aggressive undervolting gracefully.
//!
//! The deployed network is `[2, 64, 32, 2]` (≈2.3 KB of int8 weights) and
//! each step holds the undervolted rail for a long exposure — fault
//! densities are per-Mbit, so what matters is how many flips land inside
//! the weight image, not across the whole fabric.

use legato_core::units::{Seconds, Volt};
use legato_fpga::{FpgaPlatform, UndervoltFpga, VoltageRegion};
use legato_mirror::nn::{train_blob_classifier_with, QuantizedMlp};

/// Layer dimensions of the deployed ablation model.
pub const ABLATION_DIMS: [usize; 4] = [2, 64, 32, 2];

/// One voltage step of the ablation.
#[derive(Debug, Clone)]
pub struct MlPoint {
    /// Rail voltage.
    pub vccbram: Volt,
    /// Voltage region.
    pub region: VoltageRegion,
    /// Fractional BRAM power saving versus nominal.
    pub power_saving: f64,
    /// Bit errors *within the weight image* after the exposure.
    pub weight_bit_errors: u64,
    /// Classifier accuracy with the (possibly corrupted) weights.
    pub accuracy: f64,
}

/// Sweep voltages and measure accuracy of the BRAM-resident classifier.
/// Each step reloads pristine weights, holds the voltage for `exposure`,
/// then reads the image back and evaluates on the test set.
#[must_use]
pub fn run(platform: FpgaPlatform, voltages: &[f64], exposure: Seconds, seed: u64) -> Vec<MlPoint> {
    let (mlp, test) = train_blob_classifier_with(&ABLATION_DIMS, seed);
    let q = QuantizedMlp::quantize(&mlp);
    let image = q.bytes.clone();
    let mut fpga = UndervoltFpga::new(platform, seed);
    let mut points = Vec::new();
    for &v in voltages {
        let v = Volt(v);
        // Pristine weights at a safe voltage, then drop the rail.
        fpga.reprogram(fpga.platform().v_nominal).expect("safe");
        fpga.write_bram(0, &image).expect("fits");
        let region = fpga.set_vccbram(v).expect("valid voltage");
        if region == VoltageRegion::Crash {
            points.push(MlPoint {
                vccbram: v,
                region,
                power_saving: fpga.platform().power_saving_at(v),
                weight_bit_errors: 0,
                accuracy: 0.0, // device unreadable
            });
            continue;
        }
        fpga.tick(exposure);
        let corrupted = fpga.read_bram(0, image.len()).expect("alive");
        let weight_bit_errors: u64 = corrupted
            .iter()
            .zip(&image)
            .map(|(a, b)| u64::from((a ^ b).count_ones()))
            .sum();
        let model = q.dequantize_from(&corrupted);
        points.push(MlPoint {
            vccbram: v,
            region,
            power_saving: fpga.platform().power_saving_at(v),
            weight_bit_errors,
            accuracy: model.accuracy(&test),
        });
    }
    points
}

/// The standard voltage schedule for the ablation on a platform: nominal,
/// guardband edge, then steps through the critical region to the crash
/// edge.
#[must_use]
pub fn standard_voltages(platform: &FpgaPlatform) -> Vec<f64> {
    let vmin = platform.v_min.0;
    let vcrash = platform.v_crash.0;
    let span = vmin - vcrash;
    vec![
        platform.v_nominal.0,
        vmin + 0.02,
        vmin - 0.2 * span,
        vmin - 0.4 * span,
        vmin - 0.6 * span,
        vmin - 0.8 * span,
        vcrash + 1e-4,
        vcrash - 0.005,
    ]
}

/// The standard exposure per voltage step: a long-running inference
/// service accumulating faults (fault densities are per second of
/// operation in the model).
#[must_use]
pub fn standard_exposure() -> Seconds {
    Seconds(60.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The standard VC707 ablation, run once for both tests.
    fn standard_run() -> &'static [MlPoint] {
        static RUN: OnceLock<Vec<MlPoint>> = OnceLock::new();
        RUN.get_or_init(|| {
            let platform = FpgaPlatform::vc707();
            let voltages = standard_voltages(&platform);
            run(platform, &voltages, standard_exposure(), 7)
        })
    }

    #[test]
    fn accuracy_survives_guardband_and_degrades_gracefully() {
        let pts = standard_run();
        // Nominal and guardband: full accuracy, zero weight corruption.
        assert!(pts[0].accuracy > 0.9, "nominal {:?}", pts[0]);
        assert!(pts[1].accuracy > 0.9, "guardband {:?}", pts[1]);
        assert_eq!(pts[0].weight_bit_errors, 0);
        // Mid-critical: still usable (the §III-C resilience claim) while
        // saving well over half the BRAM power.
        let mid = &pts[3];
        assert_eq!(mid.region, VoltageRegion::Critical);
        assert!(mid.power_saving > 0.5, "saving {}", mid.power_saving);
        assert!(mid.accuracy > 0.8, "mid-critical accuracy {}", mid.accuracy);
        // Crash edge: heavy corruption of the image.
        let edge = &pts[pts.len() - 2];
        assert!(
            edge.weight_bit_errors > 100,
            "crash-edge errors {}",
            edge.weight_bit_errors
        );
        // Crash: no accuracy at all.
        assert_eq!(pts.last().unwrap().region, VoltageRegion::Crash);
        assert_eq!(pts.last().unwrap().accuracy, 0.0);
    }

    #[test]
    fn faults_increase_toward_crash() {
        let critical: Vec<&MlPoint> = standard_run()
            .iter()
            .filter(|p| p.region == VoltageRegion::Critical)
            .collect();
        assert!(
            critical.last().unwrap().weight_bit_errors
                >= critical.first().unwrap().weight_bit_errors
        );
    }
}
