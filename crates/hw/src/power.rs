//! Energy metering.
//!
//! HEATS "monitors … energy (PDU, PowerSpy)" (paper Fig. 7); the simulated
//! equivalent is an [`EnergyMeter`] every device carries. A meter
//! integrates power over simulated time and keeps the two totals — joules
//! and busy seconds — that reports are built from.

use legato_core::units::{Joule, Seconds, Watt};
use serde::{Deserialize, Serialize};

/// Integrates power over simulated time.
///
/// ```
/// use legato_hw::power::EnergyMeter;
/// use legato_core::units::{Joule, Seconds, Watt};
///
/// let mut m = EnergyMeter::new();
/// m.record(Watt(100.0), Seconds(2.0));
/// m.record(Watt(50.0), Seconds(2.0));
/// assert_eq!(m.total(), Joule(300.0));
/// assert_eq!(m.elapsed(), Seconds(4.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    total: Joule,
    elapsed: Seconds,
}

impl EnergyMeter {
    /// A meter with nothing recorded.
    #[must_use]
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Record `power` sustained for `duration`.
    ///
    /// # Panics
    ///
    /// Panics if power or duration is negative or not finite.
    #[inline]
    pub fn record(&mut self, power: Watt, duration: Seconds) {
        assert!(
            power.0.is_finite() && power.0 >= 0.0,
            "power must be non-negative, got {power}"
        );
        assert!(
            duration.0.is_finite() && duration.0 >= 0.0,
            "duration must be non-negative, got {duration}"
        );
        self.total += power * duration;
        self.elapsed += duration;
    }

    /// Total energy recorded.
    #[must_use]
    pub fn total(&self) -> Joule {
        self.total
    }

    /// Total duration recorded.
    #[must_use]
    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_energy() {
        let mut m = EnergyMeter::new();
        m.record(Watt(10.0), Seconds(1.0));
        m.record(Watt(20.0), Seconds(0.5));
        assert_eq!(m.total(), Joule(20.0));
        assert_eq!(m.elapsed(), Seconds(1.5));
    }

    #[test]
    #[should_panic(expected = "power must be non-negative")]
    fn rejects_negative_power() {
        EnergyMeter::new().record(Watt(-1.0), Seconds(1.0));
    }

    #[test]
    #[should_panic(expected = "duration must be non-negative")]
    fn rejects_negative_duration() {
        EnergyMeter::new().record(Watt(1.0), Seconds(-1.0));
    }
}
