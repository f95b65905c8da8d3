//! The undervoltable FPGA device: platform + rail + BRAM content.

use legato_core::units::{FaultsPerMbit, Joule, Seconds, Volt, Watt};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::bram::BramArray;
use crate::error::FpgaError;
use crate::platform::FpgaPlatform;
use crate::voltage::VoltageRegion;

/// A simulated FPGA whose `VCCBRAM` rail can be underscaled at runtime.
///
/// The device tracks the DONE pin: underscaling into the crash region
/// unsets it and every subsequent access fails with
/// [`FpgaError::Crashed`] until [`UndervoltFpga::reprogram`] is called at
/// a safe voltage — matching the behaviour described in §III-B.
#[derive(Debug, Clone)]
pub struct UndervoltFpga {
    platform: FpgaPlatform,
    vccbram: Volt,
    brams: BramArray,
    done_pin: bool,
    energy: Joule,
    rng: SmallRng,
}

impl UndervoltFpga {
    /// Power the board at nominal voltage with zeroed BRAM.
    #[must_use]
    pub fn new(platform: FpgaPlatform, seed: u64) -> Self {
        let brams = BramArray::with_capacity(platform.bram_capacity);
        let vccbram = platform.v_nominal;
        UndervoltFpga {
            platform,
            vccbram,
            brams,
            done_pin: true,
            energy: Joule::ZERO,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The platform calibration table.
    #[must_use]
    pub fn platform(&self) -> &FpgaPlatform {
        &self.platform
    }

    /// Present rail voltage.
    #[must_use]
    pub fn vccbram(&self) -> Volt {
        self.vccbram
    }

    /// Present voltage region.
    #[must_use]
    pub fn region(&self) -> VoltageRegion {
        self.platform.region_at(self.vccbram)
    }

    /// Whether the DONE pin is set (device responding): the signal the
    /// paper reads to find `Vcrash`. It drops when the rail enters the
    /// crash region and stays down until [`UndervoltFpga::reprogram`].
    ///
    /// ```
    /// use legato_core::units::Volt;
    /// use legato_fpga::{FpgaPlatform, UndervoltFpga};
    ///
    /// let mut fpga = UndervoltFpga::new(FpgaPlatform::vc707(), 1);
    /// fpga.set_vccbram(Volt(0.58)).unwrap(); // critical: still responds
    /// assert!(fpga.done_pin());
    /// fpga.set_vccbram(Volt(0.50)).unwrap(); // below Vcrash = 0.54 V
    /// assert!(!fpga.done_pin());
    /// fpga.set_vccbram(Volt(1.0)).unwrap(); // a safe rail alone does not revive it
    /// assert!(!fpga.done_pin());
    /// fpga.reprogram(Volt(1.0)).unwrap();
    /// assert!(fpga.done_pin());
    /// ```
    #[must_use]
    pub fn done_pin(&self) -> bool {
        self.done_pin
    }

    /// Present BRAM power draw.
    #[must_use]
    pub fn power(&self) -> Watt {
        self.platform.power_at(self.vccbram)
    }

    /// Present expected fault density.
    #[must_use]
    pub fn fault_rate(&self) -> FaultsPerMbit {
        self.platform.fault_rate_at(self.vccbram)
    }

    /// Energy consumed so far (integrated via [`UndervoltFpga::tick`]).
    #[must_use]
    pub fn energy(&self) -> Joule {
        self.energy
    }

    /// Set the rail voltage. Entering the crash region unsets the DONE
    /// pin; the device then ignores all accesses until reprogrammed.
    ///
    /// # Errors
    ///
    /// [`FpgaError::InvalidVoltage`] for non-finite, negative or
    /// above-1.1×-nominal requests.
    pub fn set_vccbram(&mut self, v: Volt) -> Result<VoltageRegion, FpgaError> {
        if !v.is_finite() || v.0 < 0.0 || v.0 > self.platform.v_nominal.0 * 1.1 {
            return Err(FpgaError::InvalidVoltage { requested: v });
        }
        self.vccbram = v;
        let region = self.region();
        if region == VoltageRegion::Crash {
            self.done_pin = false;
        }
        Ok(region)
    }

    /// Advance simulated time, integrating energy at the present draw and
    /// injecting the faults expected over that interval when the rail sits
    /// in the critical region.
    ///
    /// The per-interval fault density scales linearly with exposure time,
    /// normalized to a 1-second characterization epoch (the paper reports
    /// steady-state densities, i.e. per-epoch).
    ///
    /// Returns the number of bits flipped during the interval.
    pub fn tick(&mut self, dt: Seconds) -> u64 {
        self.energy += self.power() * dt;
        if self.region() != VoltageRegion::Critical || !self.done_pin {
            return 0;
        }
        let rate = self.fault_rate();
        let scaled = FaultsPerMbit(rate.0 * dt.0);
        self.brams.inject_faults(scaled, &mut self.rng)
    }

    /// Write to BRAM.
    ///
    /// # Errors
    ///
    /// [`FpgaError::Crashed`] when the DONE pin is unset;
    /// [`FpgaError::AddressOutOfRange`] on overrun.
    pub fn write_bram(&mut self, offset: usize, data: &[u8]) -> Result<(), FpgaError> {
        self.check_alive()?;
        self.brams.write(offset, data)
    }

    /// Read from BRAM. In the critical region the returned bytes may be
    /// corrupted — that is the point of the model.
    ///
    /// # Errors
    ///
    /// [`FpgaError::Crashed`] when the DONE pin is unset;
    /// [`FpgaError::AddressOutOfRange`] on overrun.
    pub fn read_bram(&self, offset: usize, len: usize) -> Result<Vec<u8>, FpgaError> {
        self.check_alive()?;
        self.brams.read(offset, len)
    }

    /// Direct access to the BRAM array (for characterization harnesses).
    #[must_use]
    pub fn brams(&self) -> &BramArray {
        &self.brams
    }

    /// Mutable access to the BRAM array (test-pattern setup).
    pub fn brams_mut(&mut self) -> &mut BramArray {
        &mut self.brams
    }

    /// Reprogram the device: restore a safe voltage, clear BRAM and set
    /// the DONE pin again.
    ///
    /// # Errors
    ///
    /// [`FpgaError::InvalidVoltage`] if `v` is not in the guardband
    /// region — a crashed board can only be revived at a safe voltage.
    pub fn reprogram(&mut self, v: Volt) -> Result<(), FpgaError> {
        if self.platform.region_at(v) != VoltageRegion::Guardband {
            return Err(FpgaError::InvalidVoltage { requested: v });
        }
        self.vccbram = v;
        self.brams.fill(0);
        self.done_pin = true;
        Ok(())
    }

    fn check_alive(&self) -> Result<(), FpgaError> {
        if self.done_pin {
            Ok(())
        } else {
            Err(FpgaError::Crashed { at: self.vccbram })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legato_core::units::Bytes;

    fn fpga() -> UndervoltFpga {
        UndervoltFpga::new(FpgaPlatform::vc707(), 99)
    }

    #[test]
    fn starts_nominal_and_alive() {
        let f = fpga();
        assert_eq!(f.vccbram(), Volt(1.0));
        assert_eq!(f.region(), VoltageRegion::Guardband);
        assert!(f.done_pin());
        assert_eq!(f.fault_rate(), FaultsPerMbit(0.0));
    }

    #[test]
    fn guardband_operation_is_fault_free() {
        let mut f = fpga();
        f.write_bram(0, &[1, 2, 3, 4]).unwrap();
        f.set_vccbram(Volt(0.65)).unwrap(); // still guardband
        for _ in 0..100 {
            f.tick(Seconds(1.0));
        }
        assert_eq!(f.read_bram(0, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn critical_region_corrupts_data() {
        let mut f = fpga();
        f.brams_mut().fill(0xFF);
        let golden = f.brams().snapshot();
        f.set_vccbram(Volt(0.545)).unwrap(); // deep critical
        let mut flips = 0;
        for _ in 0..10 {
            flips += f.tick(Seconds(1.0));
        }
        assert!(flips > 0);
        assert!(f.brams().count_bit_errors(&golden) > 0);
        assert!(f.done_pin(), "critical region must stay responsive");
    }

    #[test]
    fn crash_unsets_done_pin_and_blocks_access() {
        let mut f = fpga();
        let region = f.set_vccbram(Volt(0.50)).unwrap();
        assert_eq!(region, VoltageRegion::Crash);
        assert!(!f.done_pin());
        assert!(matches!(f.read_bram(0, 1), Err(FpgaError::Crashed { .. })));
        assert!(matches!(
            f.write_bram(0, &[1]),
            Err(FpgaError::Crashed { .. })
        ));
    }

    #[test]
    fn crash_persists_until_reprogram() {
        let mut f = fpga();
        f.set_vccbram(Volt(0.40)).unwrap();
        // Raising the rail alone does not revive the board.
        f.set_vccbram(Volt(1.0)).unwrap();
        assert!(!f.done_pin());
        // Reprogramming at a safe voltage does.
        f.reprogram(Volt(1.0)).unwrap();
        assert!(f.done_pin());
        assert_eq!(f.read_bram(0, 2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn reprogram_rejects_unsafe_voltage() {
        let mut f = fpga();
        f.set_vccbram(Volt(0.40)).unwrap();
        assert!(f.reprogram(Volt(0.55)).is_err());
    }

    #[test]
    fn invalid_voltages_rejected() {
        let mut f = fpga();
        assert!(f.set_vccbram(Volt(-0.1)).is_err());
        assert!(f.set_vccbram(Volt(2.0)).is_err());
        assert!(f.set_vccbram(Volt(f64::NAN)).is_err());
    }

    #[test]
    fn energy_integrates_under_tick() {
        let mut f = fpga();
        f.tick(Seconds(10.0));
        let nominal = f.platform().nominal_power();
        assert!((f.energy().0 - (nominal * Seconds(10.0)).0).abs() < 1e-9);
        // Undervolted ticks add less energy per second.
        let before = f.energy();
        f.set_vccbram(Volt(0.62)).unwrap();
        f.tick(Seconds(10.0));
        let added = f.energy() - before;
        assert!(added.0 < (nominal * Seconds(10.0)).0);
    }

    #[test]
    fn fault_count_scales_with_exposure() {
        let run = |dt: f64, seed| {
            let mut f = UndervoltFpga::new(FpgaPlatform::vc707(), seed);
            f.set_vccbram(Volt(0.56)).unwrap();
            f.tick(Seconds(dt))
        };
        // Average over seeds to smooth Poisson noise.
        let short: u64 = (0..20).map(|s| run(0.5, s)).sum();
        let long: u64 = (0..20).map(|s| run(2.0, s)).sum();
        assert!(
            long > short * 2,
            "4× exposure should give ≫2× faults: {long} vs {short}"
        );
    }

    #[test]
    fn bram_capacity_matches_platform() {
        let f = fpga();
        assert!(f.brams().capacity() >= Bytes::kib(1030 * 36 / 8));
    }
}
