//! Block RAM arrays with bit-level fault injection.
//!
//! BRAMs are "a set of small blocks of SRAMs, distributed over the chip,
//! and in a programmable fashion can be chained to build larger memories"
//! (paper §III-A). The model mirrors that structure: an array of 36 Kb
//! blocks holding real bytes. Fault injection flips a Poisson-distributed
//! number of uniformly chosen bits, parameterized by a fault density in
//! faults/Mbit — exactly the unit the paper reports.

use legato_core::units::{Bytes, FaultsPerMbit};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::FpgaError;

/// Size of one BRAM block: 36 Kb = 4.5 KiB.
pub const BLOCK_BYTES: usize = 36 * 1024 / 8;

/// A chained array of BRAM blocks holding real bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BramArray {
    blocks: Vec<Vec<u8>>,
}

impl BramArray {
    /// An array with capacity for at least `capacity` bytes (rounded up to
    /// whole 36 Kb blocks), zero-initialized.
    #[must_use]
    pub fn with_capacity(capacity: Bytes) -> Self {
        let blocks = (capacity.as_u64() as usize).div_ceil(BLOCK_BYTES).max(1);
        BramArray {
            blocks: vec![vec![0u8; BLOCK_BYTES]; blocks],
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> Bytes {
        Bytes((self.blocks.len() * BLOCK_BYTES) as u64)
    }

    /// Write bytes starting at a global byte offset.
    ///
    /// # Errors
    ///
    /// [`FpgaError::AddressOutOfRange`] if the write overruns capacity.
    pub fn write(&mut self, offset: usize, data: &[u8]) -> Result<(), FpgaError> {
        let cap = self.capacity().as_u64() as usize;
        if offset + data.len() > cap {
            return Err(FpgaError::AddressOutOfRange {
                offset: offset + data.len(),
                capacity: cap,
            });
        }
        for (i, &byte) in data.iter().enumerate() {
            let pos = offset + i;
            self.blocks[pos / BLOCK_BYTES][pos % BLOCK_BYTES] = byte;
        }
        Ok(())
    }

    /// Read `len` bytes starting at a global byte offset.
    ///
    /// # Errors
    ///
    /// [`FpgaError::AddressOutOfRange`] if the read overruns capacity.
    pub fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>, FpgaError> {
        let cap = self.capacity().as_u64() as usize;
        if offset + len > cap {
            return Err(FpgaError::AddressOutOfRange {
                offset: offset + len,
                capacity: cap,
            });
        }
        Ok((offset..offset + len)
            .map(|pos| self.blocks[pos / BLOCK_BYTES][pos % BLOCK_BYTES])
            .collect())
    }

    /// Inject bit-flips at the given fault density. The number of flips is
    /// Poisson-distributed with mean `rate × capacity-in-Mbit`; positions
    /// are uniform over the array. Returns the number of bits flipped.
    pub fn inject_faults(&mut self, rate: FaultsPerMbit, rng: &mut SmallRng) -> u64 {
        if rate.0 <= 0.0 {
            return 0;
        }
        let mbits = self.capacity().as_mbit_f64();
        let lambda = rate.0 * mbits;
        let flips = sample_poisson(lambda, rng);
        let cap_bits = self.capacity().as_u64() * 8;
        for _ in 0..flips {
            let bit = rng.gen_range(0..cap_bits);
            let byte = (bit / 8) as usize;
            let mask = 1u8 << (bit % 8);
            self.blocks[byte / BLOCK_BYTES][byte % BLOCK_BYTES] ^= mask;
        }
        flips
    }

    /// Count bit positions that differ from `golden` (which must describe
    /// the full array content, block-major).
    ///
    /// # Panics
    ///
    /// Panics if `golden` is not exactly the array capacity.
    #[must_use]
    pub fn count_bit_errors(&self, golden: &[u8]) -> u64 {
        assert_eq!(
            golden.len() as u64,
            self.capacity().as_u64(),
            "golden image must match capacity"
        );
        let mut errors = 0u64;
        for (block, gold) in self.blocks.iter().zip(golden.chunks_exact(BLOCK_BYTES)) {
            // Faults are sparse: most blocks still equal the golden image,
            // and a slice compare is a memcmp even in unoptimized builds
            // (this loop was ~100 % of a debug-profile undervolt sweep).
            if block.as_slice() == gold {
                continue;
            }
            for (&actual, &g) in block.iter().zip(gold) {
                errors += u64::from((actual ^ g).count_ones());
            }
        }
        errors
    }

    /// Snapshot the full content, block-major.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.capacity().as_u64() as usize);
        for b in &self.blocks {
            out.extend_from_slice(b);
        }
        out
    }

    /// Fill every byte with `value` (e.g. a checkerboard test pattern).
    pub fn fill(&mut self, value: u8) {
        for b in &mut self.blocks {
            b.fill(value);
        }
    }
}

/// Sample a Poisson-distributed count.
///
/// Knuth's product method for small means; for large means (λ > 64) a
/// normal approximation keeps the cost constant — fault-sweep lambdas reach
/// tens of thousands.
fn sample_poisson(lambda: f64, rng: &mut SmallRng) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 64.0 {
        // Normal approximation N(λ, λ), clamped at zero.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let z = (-2.0 * u1.ln()).sqrt() * u2.cos();
        return (lambda + z * lambda.sqrt()).round().max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn capacity_rounds_to_blocks() {
        let b = BramArray::with_capacity(Bytes(1));
        assert_eq!(b.capacity(), Bytes(BLOCK_BYTES as u64));
        let b = BramArray::with_capacity(Bytes((BLOCK_BYTES + 1) as u64));
        assert_eq!(b.capacity(), Bytes(2 * BLOCK_BYTES as u64));
    }

    #[test]
    fn write_read_round_trip_across_blocks() {
        let mut b = BramArray::with_capacity(Bytes((2 * BLOCK_BYTES) as u64));
        let data: Vec<u8> = (0..=255).collect();
        // Straddle the block boundary.
        let offset = BLOCK_BYTES - 100;
        b.write(offset, &data).unwrap();
        assert_eq!(b.read(offset, data.len()).unwrap(), data);
    }

    #[test]
    fn out_of_range_access_rejected() {
        let mut b = BramArray::with_capacity(Bytes(10));
        let cap = b.capacity().as_u64() as usize;
        assert!(b.write(cap - 1, &[0, 0]).is_err());
        assert!(b.read(cap, 1).is_err());
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let mut b = BramArray::with_capacity(Bytes::kib(64));
        let golden = b.snapshot();
        let flips = b.inject_faults(FaultsPerMbit(0.0), &mut rng(1));
        assert_eq!(flips, 0);
        assert_eq!(b.count_bit_errors(&golden), 0);
    }

    #[test]
    fn injection_flips_reported_number_of_bits() {
        let mut b = BramArray::with_capacity(Bytes::mib(1));
        b.fill(0xAA);
        let golden = b.snapshot();
        let flips = b.inject_faults(FaultsPerMbit(100.0), &mut rng(7));
        assert!(flips > 0);
        // Each reported flip toggles exactly one bit; collisions (same bit
        // twice) can only make the observed count smaller.
        assert!(b.count_bit_errors(&golden) <= flips);
        assert!(b.count_bit_errors(&golden) > 0);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let run = |seed| {
            let mut b = BramArray::with_capacity(Bytes::kib(256));
            b.inject_faults(FaultsPerMbit(50.0), &mut rng(seed));
            b.snapshot()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn injected_count_tracks_rate() {
        // λ = rate × Mbit: with an 8 MiB array and rate 100, expect ~6711
        // flips; the Poisson σ is ~82, so ±5σ bounds are generous.
        let mut b = BramArray::with_capacity(Bytes::mib(8));
        let flips = b.inject_faults(FaultsPerMbit(100.0), &mut rng(11));
        let lambda = 100.0 * Bytes::mib(8).as_mbit_f64();
        let sigma = lambda.sqrt();
        assert!(
            (flips as f64 - lambda).abs() < 5.0 * sigma,
            "flips {flips} vs λ {lambda}"
        );
    }

    #[test]
    fn poisson_small_mean() {
        let mut r = rng(5);
        let samples: Vec<u64> = (0..2000).map(|_| sample_poisson(3.0, &mut r)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((mean - 3.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        assert_eq!(sample_poisson(0.0, &mut rng(1)), 0);
        assert_eq!(sample_poisson(-5.0, &mut rng(1)), 0);
    }

    #[test]
    fn fill_overwrites_everything() {
        let mut b = BramArray::with_capacity(Bytes::kib(8));
        b.fill(0x5A);
        assert!(b.snapshot().iter().all(|&x| x == 0x5A));
    }
}
