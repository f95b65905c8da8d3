//! Physical units used throughout the toolset.
//!
//! Every quantity the simulators exchange — supply voltages, power draws,
//! energies, simulated time, data sizes — is wrapped in a newtype so that a
//! voltage can never be added to a wattage by accident (C-NEWTYPE). All
//! wrappers are thin `f64`/`u64` carriers with the arithmetic that is
//! physically meaningful and nothing more.
//!
//! ```
//! use legato_core::units::{Seconds, Watt};
//!
//! let energy = Watt(50.0) * Seconds(2.0);
//! assert_eq!(energy.0, 100.0); // joules
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

macro_rules! float_unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(pub f64);

        impl $name {
            /// Zero value of this unit.
            pub const ZERO: $name = $name(0.0);

            /// Absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                $name(self.0.abs())
            }

            /// Smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                $name(self.0.min(other.0))
            }

            /// Larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                $name(self.0.max(other.0))
            }

            /// Clamp into `[lo, hi]`.
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                $name(self.0.clamp(lo.0, hi.0))
            }

            /// `true` when the carried value is finite (not NaN/inf).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{:.3} {}", self.0, $suffix)
                }
            }
        }
    };
}

float_unit!(
    /// Electric potential in volts. FPGA BRAM rails in the paper run at a
    /// nominal 1.0 V and are underscaled in millivolt steps.
    Volt,
    "V"
);

float_unit!(
    /// Power in watts.
    Watt,
    "W"
);

float_unit!(
    /// Energy in joules.
    Joule,
    "J"
);

float_unit!(
    /// Simulated time in seconds. The simulators advance this clock
    /// deterministically; it never depends on wall-clock time.
    Seconds,
    "s"
);

float_unit!(
    /// Frequency in hertz.
    Hertz,
    "Hz"
);

float_unit!(
    /// Fault density in faults per Mbit, the unit Fig. 5 of the paper uses
    /// for undervolted BRAM bit-flips.
    FaultsPerMbit,
    "faults/Mbit"
);

impl Volt {
    /// Construct from millivolts.
    ///
    /// ```
    /// use legato_core::units::Volt;
    /// assert_eq!(Volt::from_millivolts(850.0), Volt(0.85));
    /// ```
    #[must_use]
    pub fn from_millivolts(mv: f64) -> Self {
        Volt(mv / 1000.0)
    }

    /// Value in millivolts.
    #[must_use]
    pub fn millivolts(self) -> f64 {
        self.0 * 1000.0
    }
}

impl Seconds {
    /// Construct from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Seconds(ms / 1e3)
    }

    /// Construct from microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Seconds(us / 1e6)
    }

    /// Value in milliseconds.
    #[must_use]
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }
}

impl Hertz {
    /// Construct from megahertz.
    #[must_use]
    pub fn from_mhz(mhz: f64) -> Self {
        Hertz(mhz * 1e6)
    }

    /// Construct from gigahertz.
    #[must_use]
    pub fn from_ghz(ghz: f64) -> Self {
        Hertz(ghz * 1e9)
    }
}

/// Energy is power sustained over time.
impl Mul<Seconds> for Watt {
    type Output = Joule;
    fn mul(self, rhs: Seconds) -> Joule {
        Joule(self.0 * rhs.0)
    }
}

/// Energy is power sustained over time (commutative form).
impl Mul<Watt> for Seconds {
    type Output = Joule;
    fn mul(self, rhs: Watt) -> Joule {
        Joule(self.0 * rhs.0)
    }
}

/// Average power over an interval.
impl Div<Seconds> for Joule {
    type Output = Watt;
    fn div(self, rhs: Seconds) -> Watt {
        Watt(self.0 / rhs.0)
    }
}

/// Duration an energy budget lasts at a given draw.
impl Div<Watt> for Joule {
    type Output = Seconds;
    fn div(self, rhs: Watt) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

/// A data size in bytes.
///
/// Stored as an exact `u64`; the humanized `Display` implementation is for
/// reporting only. Sums and products saturate at `u64::MAX` instead of
/// panicking or wrapping: sizes are caller-declared, and a volume summed
/// over many huge regions must stay a (capped) volume.
///
/// ```
/// use legato_core::units::Bytes;
/// let ckpt = Bytes::gib(16);
/// assert_eq!(ckpt.as_u64(), 16 * 1024 * 1024 * 1024);
/// assert_eq!(ckpt.to_string(), "16.00 GiB");
/// assert_eq!(Bytes(u64::MAX) + ckpt, Bytes(u64::MAX));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// `n` kibibytes.
    #[must_use]
    pub const fn kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// `n` mebibytes.
    #[must_use]
    pub const fn mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// `n` gibibytes.
    #[must_use]
    pub const fn gib(n: u64) -> Self {
        Bytes(n * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as `f64`, for rate arithmetic.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Size in mebibytes as a float.
    #[must_use]
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Size in megabits, the denominator of [`FaultsPerMbit`].
    #[must_use]
    pub fn as_mbit_f64(self) -> f64 {
        (self.0 as f64 * 8.0) / 1e6
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Time to move this many bytes at `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    #[must_use]
    pub fn time_at(self, rate: BytesPerSec) -> Seconds {
        assert!(rate.0 > 0.0, "transfer rate must be positive");
        Seconds(self.0 as f64 / rate.0)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0.saturating_mul(rhs))
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: f64 = 1024.0;
        const MIB: f64 = 1024.0 * 1024.0;
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        const TIB: f64 = 1024.0 * 1024.0 * 1024.0 * 1024.0;
        let b = self.0 as f64;
        if b >= TIB {
            write!(f, "{:.2} TiB", b / TIB)
        } else if b >= GIB {
            write!(f, "{:.2} GiB", b / GIB)
        } else if b >= MIB {
            write!(f, "{:.2} MiB", b / MIB)
        } else if b >= KIB {
            write!(f, "{:.2} KiB", b / KIB)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

float_unit!(
    /// Transfer bandwidth in bytes per second.
    BytesPerSec,
    "B/s"
);

impl BytesPerSec {
    /// `n` mebibytes per second.
    #[must_use]
    pub fn mib_per_sec(n: f64) -> Self {
        BytesPerSec(n * 1024.0 * 1024.0)
    }

    /// `n` gibibytes per second.
    #[must_use]
    pub fn gib_per_sec(n: f64) -> Self {
        BytesPerSec(n * 1024.0 * 1024.0 * 1024.0)
    }
}

/// Bytes moved in a second interval.
impl Mul<Seconds> for BytesPerSec {
    type Output = Bytes;
    fn mul(self, rhs: Seconds) -> Bytes {
        Bytes((self.0 * rhs.0).max(0.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watt(400.0) * Seconds(0.5);
        assert_eq!(e, Joule(200.0));
        assert_eq!(Seconds(0.5) * Watt(400.0), Joule(200.0));
    }

    #[test]
    fn energy_over_time_is_power() {
        assert_eq!(Joule(100.0) / Seconds(4.0), Watt(25.0));
    }

    #[test]
    fn energy_over_power_is_time() {
        assert_eq!(Joule(100.0) / Watt(50.0), Seconds(2.0));
    }

    #[test]
    fn unit_ratio_is_dimensionless() {
        let saving = 1.0 - Watt(10.0) / Watt(100.0);
        assert!((saving - 0.9).abs() < 1e-12);
    }

    #[test]
    fn volt_millivolt_round_trip() {
        let v = Volt::from_millivolts(540.0);
        assert!((v.millivolts() - 540.0).abs() < 1e-9);
    }

    #[test]
    fn bytes_constructors() {
        assert_eq!(Bytes::kib(2).as_u64(), 2048);
        assert_eq!(Bytes::mib(1).as_u64(), 1 << 20);
        assert_eq!(Bytes::gib(1).as_u64(), 1 << 30);
    }

    #[test]
    fn bytes_display_humanizes() {
        assert_eq!(Bytes(512).to_string(), "512 B");
        assert_eq!(Bytes::kib(1).to_string(), "1.00 KiB");
        assert_eq!(Bytes::gib(2048).to_string(), "2.00 TiB");
    }

    #[test]
    fn bytes_mbit_conversion() {
        // 1 MiB = 8 * 1024 * 1024 bits = 8.388608 Mbit.
        assert!((Bytes::mib(1).as_mbit_f64() - 8.388_608).abs() < 1e-9);
    }

    #[test]
    fn transfer_time() {
        let t = Bytes::mib(100).time_at(BytesPerSec::mib_per_sec(50.0));
        assert!((t.0 - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "transfer rate must be positive")]
    fn transfer_time_zero_rate_panics() {
        let _ = Bytes::mib(1).time_at(BytesPerSec(0.0));
    }

    #[test]
    fn bandwidth_times_time_is_bytes() {
        let b = BytesPerSec::mib_per_sec(10.0) * Seconds(2.0);
        assert_eq!(b, Bytes::mib(20));
    }

    #[test]
    fn clamp_and_minmax() {
        assert_eq!(Volt(1.2).clamp(Volt(0.5), Volt(1.0)), Volt(1.0));
        assert_eq!(Watt(3.0).min(Watt(5.0)), Watt(3.0));
        assert_eq!(Watt(3.0).max(Watt(5.0)), Watt(5.0));
    }

    #[test]
    fn sums() {
        let total: Joule = [Joule(1.0), Joule(2.5)].into_iter().sum();
        assert_eq!(total, Joule(3.5));
        let total: Bytes = [Bytes(10), Bytes(20)].into_iter().sum();
        assert_eq!(total, Bytes(30));
    }

    #[test]
    fn byte_arithmetic_saturates() {
        let near = Bytes(u64::MAX - 1);
        assert_eq!(near + Bytes(5), Bytes(u64::MAX));
        let mut acc = near;
        acc += near;
        assert_eq!(acc, Bytes(u64::MAX));
        assert_eq!(near * 3, Bytes(u64::MAX));
        let total: Bytes = [near, near, Bytes(1)].into_iter().sum();
        assert_eq!(total, Bytes(u64::MAX));
    }

    #[test]
    fn display_precision() {
        assert_eq!(format!("{:.1}", Volt(0.85)), "0.8 V");
        assert_eq!(format!("{}", Watt(1.0)), "1.000 W");
    }
}
