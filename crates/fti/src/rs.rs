//! Systematic Reed–Solomon erasure coding over GF(2⁸).
//!
//! FTI's L3 checkpoints erasure-code each process group's checkpoint data
//! so that any `parity` lost shards (nodes) can be rebuilt from the
//! survivors. This is a from-scratch implementation: GF(256) arithmetic on
//! log/antilog tables over the AES-adjacent primitive polynomial `0x11d`,
//! a Vandermonde generator matrix made systematic by Gaussian elimination,
//! and reconstruction via inversion of the surviving rows.
//!
//! FTI-model only: reached through [`FtiGroup`](crate::group::FtiGroup)'s
//! L3 encode, never by `legato-runtime`'s checkpoint store.
//!
//! ```
//! use legato_fti::rs::ReedSolomon;
//!
//! # fn main() -> Result<(), legato_fti::FtiError> {
//! let rs = ReedSolomon::new(4, 2)?;
//! let mut shards: Vec<Vec<u8>> = vec![
//!     b"abcd".to_vec(), b"efgh".to_vec(), b"ijkl".to_vec(), b"mnop".to_vec(),
//! ];
//! let parity = rs.encode(&shards)?;
//! shards.extend(parity);
//!
//! // Lose any two shards...
//! let mut damaged: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
//! damaged[1] = None;
//! damaged[4] = None;
//! // ...and rebuild them.
//! rs.reconstruct(&mut damaged)?;
//! assert_eq!(damaged[1].as_deref(), Some(&b"efgh"[..]));
//! # Ok(())
//! # }
//! ```

use crate::error::FtiError;

/// GF(2⁸) primitive polynomial x⁸+x⁴+x³+x²+1.
const PRIM_POLY: u16 = 0x11d;

/// Log/antilog tables for GF(256) built at construction time.
#[derive(Debug, Clone)]
struct GfTables {
    log: [u8; 256],
    exp: [u8; 512],
}

impl GfTables {
    fn new() -> Self {
        let mut log = [0u8; 256];
        let mut exp = [0u8; 512];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIM_POLY;
            }
        }
        // Duplicate for overflow-free multiplication.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        GfTables { log, exp }
    }

    #[inline]
    fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }

    #[inline]
    fn div(&self, a: u8, b: u8) -> u8 {
        assert!(b != 0, "division by zero in GF(256)");
        if a == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + 255 - self.log[b as usize] as usize]
        }
    }

    #[inline]
    fn inv(&self, a: u8) -> u8 {
        self.div(1, a)
    }

    /// a^n for small n.
    fn pow(&self, a: u8, n: usize) -> u8 {
        if n == 0 {
            return 1;
        }
        if a == 0 {
            return 0;
        }
        let l = (self.log[a as usize] as usize * n) % 255;
        self.exp[l]
    }
}

/// A systematic Reed–Solomon code with `data` data shards and `parity`
/// parity shards.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    data: usize,
    parity: usize,
    gf: GfTables,
    /// Full (data+parity) × data generator matrix; top block is identity.
    matrix: Vec<Vec<u8>>,
}

impl ReedSolomon {
    /// Create a code for `data` data shards plus `parity` parity shards.
    ///
    /// # Errors
    ///
    /// [`FtiError::LayoutMismatch`] when `data == 0`, `parity == 0` or
    /// `data + parity > 255` (the GF(256) field limit).
    pub fn new(data: usize, parity: usize) -> Result<Self, FtiError> {
        if data == 0 || parity == 0 {
            return Err(FtiError::LayoutMismatch(
                "need at least one data and one parity shard".into(),
            ));
        }
        if data + parity > 255 {
            return Err(FtiError::LayoutMismatch(format!(
                "data + parity must be ≤ 255, got {}",
                data + parity
            )));
        }
        let gf = GfTables::new();
        // Vandermonde (data+parity) × data: V[i][j] = (i+1)^j. Using i+1
        // keeps every row nonzero; any `data` rows are linearly
        // independent.
        let rows = data + parity;
        let mut vandermonde = vec![vec![0u8; data]; rows];
        for (i, row) in vandermonde.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = gf.pow((i + 1) as u8, j);
            }
        }
        // Make systematic: matrix = V · (top-k of V)⁻¹ so the top block
        // becomes the identity and data shards are stored verbatim.
        let top: Vec<Vec<u8>> = vandermonde[..data].to_vec();
        let top_inv = invert_matrix(&gf, &top).ok_or_else(|| {
            FtiError::LayoutMismatch("vandermonde top block must be invertible".into())
        })?;
        let matrix = matmul(&gf, &vandermonde, &top_inv);
        Ok(ReedSolomon {
            data,
            parity,
            gf,
            matrix,
        })
    }

    /// Compute the parity shards for `shards` (must be exactly
    /// `data_shards` equal-length slices).
    ///
    /// # Errors
    ///
    /// [`FtiError::LayoutMismatch`] on a wrong shard count;
    /// [`FtiError::ShardLengthMismatch`] on unequal shard lengths.
    pub fn encode<S: AsRef<[u8]>>(&self, shards: &[S]) -> Result<Vec<Vec<u8>>, FtiError> {
        if shards.len() != self.data {
            return Err(FtiError::LayoutMismatch(format!(
                "expected {} data shards, got {}",
                self.data,
                shards.len()
            )));
        }
        let len = shards[0].as_ref().len();
        if let Some(bad) = shards.iter().find(|s| s.as_ref().len() != len) {
            return Err(FtiError::ShardLengthMismatch {
                expected: len,
                got: bad.as_ref().len(),
            });
        }
        let mut parity = vec![vec![0u8; len]; self.parity];
        for (p, out) in parity.iter_mut().enumerate() {
            let row = &self.matrix[self.data + p];
            for (j, shard) in shards.iter().enumerate() {
                let coef = row[j];
                if coef == 0 {
                    continue;
                }
                for (o, &b) in out.iter_mut().zip(shard.as_ref()) {
                    *o ^= self.gf.mul(coef, b);
                }
            }
        }
        Ok(parity)
    }

    /// Rebuild missing shards in place. `shards` must hold
    /// `data + parity` entries (data first); `None` marks an erasure. At
    /// least `data` entries must be present.
    ///
    /// # Errors
    ///
    /// [`FtiError::TooManyErasures`] when fewer than `data` shards
    /// survive; [`FtiError::LayoutMismatch`] on a wrong slot count;
    /// [`FtiError::ShardLengthMismatch`] when the surviving shards do not
    /// all have the same length (a malformed input — decoding mixed
    /// lengths would silently produce garbage, so it is rejected up
    /// front and the shards are left untouched).
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), FtiError> {
        let total = self.data + self.parity;
        if shards.len() != total {
            return Err(FtiError::LayoutMismatch(format!(
                "expected {total} shard slots, got {}",
                shards.len()
            )));
        }
        let present: Vec<usize> = (0..total).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.data {
            return Err(FtiError::TooManyErasures {
                present: present.len(),
                required: self.data,
            });
        }
        let mut lengths = present.iter().filter_map(|&i| shards[i].as_deref());
        let len = lengths.next().map_or(0, <[u8]>::len);
        if let Some(bad) = lengths.find(|s| s.len() != len) {
            return Err(FtiError::ShardLengthMismatch {
                expected: len,
                got: bad.len(),
            });
        }

        // Decode matrix: rows of the generator matrix for `data` surviving
        // shards, inverted.
        let chosen = &present[..self.data];
        let sub: Vec<Vec<u8>> = chosen.iter().map(|&i| self.matrix[i].clone()).collect();
        let inv = invert_matrix(&self.gf, &sub)
            .ok_or_else(|| FtiError::LayoutMismatch("decode matrix is singular".into()))?;

        // Rebuild the original data shards: data = inv · survivors.
        let mut data_shards: Vec<Vec<u8>> = Vec::with_capacity(self.data);
        for row in &inv {
            let mut out = vec![0u8; len];
            for (j, &src_idx) in chosen.iter().enumerate() {
                let coef = row[j];
                if coef == 0 {
                    continue;
                }
                let src = shards[src_idx].as_ref().expect("present");
                for (o, &b) in out.iter_mut().zip(src) {
                    *o ^= self.gf.mul(coef, b);
                }
            }
            data_shards.push(out);
        }

        // Fill in missing data shards.
        for i in 0..self.data {
            if shards[i].is_none() {
                shards[i] = Some(data_shards[i].clone());
            }
        }
        // Re-encode missing parity shards.
        let parity = self.encode(&data_shards)?;
        for p in 0..self.parity {
            if shards[self.data + p].is_none() {
                shards[self.data + p] = Some(parity[p].clone());
            }
        }
        Ok(())
    }
}

/// Multiply two matrices over GF(256).
fn matmul(gf: &GfTables, a: &[Vec<u8>], b: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let n = a.len();
    let k = b.len();
    let m = b[0].len();
    let mut out = vec![vec![0u8; m]; n];
    for i in 0..n {
        for (j, out_cell) in out[i].iter_mut().enumerate() {
            let mut acc = 0u8;
            for l in 0..k {
                acc ^= gf.mul(a[i][l], b[l][j]);
            }
            *out_cell = acc;
        }
    }
    out
}

/// Invert a square matrix over GF(256) by Gauss–Jordan elimination.
/// Returns `None` if singular.
fn invert_matrix(gf: &GfTables, m: &[Vec<u8>]) -> Option<Vec<Vec<u8>>> {
    let n = m.len();
    // Augmented [M | I].
    let mut aug: Vec<Vec<u8>> = m
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut r = row.clone();
            r.extend((0..n).map(|j| u8::from(i == j)));
            r
        })
        .collect();
    for col in 0..n {
        // Find pivot.
        let pivot = (col..n).find(|&r| aug[r][col] != 0)?;
        aug.swap(col, pivot);
        // Scale pivot row.
        let inv = gf.inv(aug[col][col]);
        for x in &mut aug[col] {
            *x = gf.mul(*x, inv);
        }
        // Eliminate other rows (pivot row snapshot keeps the borrows
        // disjoint).
        let pivot_row = aug[col].clone();
        for (r, row) in aug.iter_mut().enumerate() {
            if r != col && row[col] != 0 {
                let factor = row[col];
                for (target, &p) in row.iter_mut().zip(&pivot_row) {
                    *target ^= gf.mul(factor, p);
                }
            }
        }
    }
    Some(aug.into_iter().map(|row| row[n..].to_vec()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf_mul_properties() {
        let gf = GfTables::new();
        // Identity and zero.
        for a in 0..=255u8 {
            assert_eq!(gf.mul(a, 1), a);
            assert_eq!(gf.mul(a, 0), 0);
        }
        // Commutativity (spot).
        assert_eq!(gf.mul(87, 131), gf.mul(131, 87));
        // Known value: 2·2 = 4 in GF(256).
        assert_eq!(gf.mul(2, 2), 4);
        // x^7 · x = x^8 = 0x1d (reduction kicks in).
        assert_eq!(gf.mul(0x80, 2), 0x1d);
    }

    #[test]
    fn gf_inverse_round_trip() {
        let gf = GfTables::new();
        for a in 1..=255u8 {
            assert_eq!(gf.mul(a, gf.inv(a)), 1, "inv failed for {a}");
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn gf_div_by_zero_panics() {
        let gf = GfTables::new();
        let _ = gf.div(1, 0);
    }

    #[test]
    fn gf_pow() {
        let gf = GfTables::new();
        assert_eq!(gf.pow(7, 0), 1);
        assert_eq!(gf.pow(0, 5), 0);
        assert_eq!(gf.pow(2, 8), 0x1d);
    }

    #[test]
    fn matrix_inverse_identity() {
        let gf = GfTables::new();
        let m = vec![vec![1, 0], vec![0, 1]];
        assert_eq!(invert_matrix(&gf, &m).unwrap(), m);
    }

    #[test]
    fn singular_matrix_rejected() {
        let gf = GfTables::new();
        let m = vec![vec![1, 1], vec![1, 1]];
        assert!(invert_matrix(&gf, &m).is_none());
    }

    #[test]
    fn systematic_top_block_is_identity() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(rs.matrix[i][j], u8::from(i == j));
            }
        }
    }

    #[test]
    fn encode_reconstruct_data_loss() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..4)
            .map(|i| (0..64).map(|j| (i * 64 + j) as u8).collect())
            .collect();
        let parity = rs.encode(&data).unwrap();
        let mut all: Vec<Option<Vec<u8>>> = data.iter().cloned().chain(parity).map(Some).collect();
        all[0] = None;
        all[3] = None;
        rs.reconstruct(&mut all).unwrap();
        for (i, d) in data.iter().enumerate() {
            assert_eq!(all[i].as_ref().unwrap(), d);
        }
    }

    #[test]
    fn encode_reconstruct_parity_loss() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = vec![vec![1u8; 16], vec![2u8; 16], vec![3u8; 16]];
        let parity = rs.encode(&data).unwrap();
        let mut all: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .chain(parity.clone())
            .map(Some)
            .collect();
        all[3] = None;
        all[4] = None;
        rs.reconstruct(&mut all).unwrap();
        assert_eq!(all[3].as_ref().unwrap(), &parity[0]);
        assert_eq!(all[4].as_ref().unwrap(), &parity[1]);
    }

    #[test]
    fn mixed_loss_at_capacity() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 + 10; 32]).collect();
        let parity = rs.encode(&data).unwrap();
        let mut all: Vec<Option<Vec<u8>>> = data.iter().cloned().chain(parity).map(Some).collect();
        // Lose 3 shards (= parity count): 2 data + 1 parity.
        all[1] = None;
        all[2] = None;
        all[5] = None;
        rs.reconstruct(&mut all).unwrap();
        assert_eq!(all[1].as_ref().unwrap(), &data[1]);
        assert_eq!(all[2].as_ref().unwrap(), &data[2]);
    }

    #[test]
    fn too_many_erasures_detected() {
        let rs = ReedSolomon::new(3, 1).unwrap();
        let data = vec![vec![0u8; 8]; 3];
        let parity = rs.encode(&data).unwrap();
        let mut all: Vec<Option<Vec<u8>>> = data.into_iter().chain(parity).map(Some).collect();
        all[0] = None;
        all[1] = None;
        assert!(matches!(
            rs.reconstruct(&mut all),
            Err(FtiError::TooManyErasures {
                present: 2,
                required: 3
            })
        ));
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(ReedSolomon::new(0, 1).is_err());
        assert!(ReedSolomon::new(1, 0).is_err());
        assert!(ReedSolomon::new(200, 100).is_err());
        assert!(ReedSolomon::new(128, 127).is_ok());
    }

    #[test]
    fn rejects_unequal_shards() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        assert_eq!(
            rs.encode(&[vec![0u8; 4], vec![0u8; 5]]),
            Err(FtiError::ShardLengthMismatch {
                expected: 4,
                got: 5
            })
        );
        assert!(rs.encode(&[vec![0u8; 4]]).is_err());
    }

    /// Malformed input: present shards of unequal length must be rejected
    /// with a dedicated error (historically this path `expect()`-panicked
    /// mid-decode), and the shard array must be left untouched.
    #[test]
    fn reconstruct_rejects_unequal_present_shards() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = vec![vec![1u8; 16], vec![2u8; 16], vec![3u8; 16]];
        let parity = rs.encode(&data).unwrap();
        let mut all: Vec<Option<Vec<u8>>> = data.iter().cloned().chain(parity).map(Some).collect();
        all[0] = None; // one genuine erasure
        all[2] = Some(vec![9u8; 7]); // truncated survivor
        let before = all.clone();
        assert_eq!(
            rs.reconstruct(&mut all),
            Err(FtiError::ShardLengthMismatch {
                expected: 16,
                got: 7
            })
        );
        assert_eq!(all, before, "rejected input must not be modified");

        // A truncated *parity* survivor is caught the same way.
        let mut all: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .chain(rs.encode(&data).unwrap())
            .map(Some)
            .collect();
        all[1] = None;
        all[4] = Some(vec![0u8; 3]);
        assert!(matches!(
            rs.reconstruct(&mut all),
            Err(FtiError::ShardLengthMismatch {
                expected: 16,
                got: 3
            })
        ));
    }

    #[test]
    fn empty_shards_encode() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let parity = rs.encode(&[vec![], vec![]]).unwrap();
        assert_eq!(parity, vec![Vec::<u8>::new()]);
    }
}
