//! Heat2D: the distributed stencil application used to evaluate the
//! GPU/CPU checkpointing in Fig. 6.
//!
//! A Jacobi iteration on a rectangular plate with fixed temperatures on
//! the top and bottom edges and insulated side walls. The global grid is
//! row-partitioned across ranks; each step exchanges one halo row with
//! each neighbour — over a
//! [`legato_hw::comm::Endpoint`] when run with real ranks, or internally
//! when `size == 1`.
//!
//! The steady state of this configuration is the linear temperature
//! profile between the two plates, which gives the tests an exact answer
//! to converge to.

use legato_hw::comm::Endpoint;
use legato_hw::memory::{MemoryManager, RegionHandle};

use crate::error::FtiError;

/// Row-partitioned Jacobi heat solver.
#[derive(Debug, Clone, PartialEq)]
pub struct Heat2d {
    global_rows: usize,
    cols: usize,
    rank: usize,
    size: usize,
    local_rows: usize,
    /// `(local_rows + 2) × cols`, including one halo row above and below.
    grid: Vec<f64>,
    next: Vec<f64>,
    top_temp: f64,
    bottom_temp: f64,
    iterations: u64,
}

impl Heat2d {
    /// Create the local partition of a `global_rows × cols` plate for
    /// `rank` of `size`, with top edge held at `top_temp` and bottom edge
    /// at `bottom_temp`. Interior starts at the bottom temperature.
    ///
    /// # Panics
    ///
    /// Panics if the grid is degenerate, `rank ≥ size`, or `global_rows`
    /// is not divisible by `size`.
    #[must_use]
    pub fn new(
        global_rows: usize,
        cols: usize,
        rank: usize,
        size: usize,
        top_temp: f64,
        bottom_temp: f64,
    ) -> Self {
        assert!(global_rows >= 2 && cols >= 1, "grid too small");
        assert!(size >= 1 && rank < size, "bad rank/size");
        assert!(
            global_rows.is_multiple_of(size),
            "global rows must divide evenly across ranks"
        );
        let local_rows = global_rows / size;
        let mut h = Heat2d {
            global_rows,
            cols,
            rank,
            size,
            local_rows,
            grid: vec![bottom_temp; (local_rows + 2) * cols],
            next: vec![bottom_temp; (local_rows + 2) * cols],
            top_temp,
            bottom_temp,
            iterations: 0,
        };
        h.apply_global_boundaries();
        h
    }

    /// Number of Jacobi iterations performed.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Temperature at local interior cell `(row, col)` (0-based, halos
    /// excluded).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[must_use]
    pub fn at(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.local_rows && col < self.cols,
            "index out of range"
        );
        self.grid[(row + 1) * self.cols + col]
    }

    /// One Jacobi step. `endpoint` carries the halo exchange when
    /// `size > 1`; pass `None` for single-rank runs.
    ///
    /// # Errors
    ///
    /// [`FtiError::Memory`] when the halo exchange fails (peer hung up).
    ///
    /// # Panics
    ///
    /// Panics if `size > 1` and no endpoint is supplied, or the endpoint's
    /// rank/size disagree with the solver's.
    pub fn step(&mut self, endpoint: Option<&Endpoint>) -> Result<(), FtiError> {
        self.exchange_halos(endpoint)?;
        let c = self.cols;
        for row in 1..=self.local_rows {
            for col in 0..c {
                // Insulated side walls: clamp column neighbours.
                let left = self.grid[row * c + col.saturating_sub(1)];
                let right = self.grid[row * c + (col + 1).min(c - 1)];
                let up = self.grid[(row - 1) * c + col];
                let down = self.grid[(row + 1) * c + col];
                self.next[row * c + col] = 0.25 * (left + right + up + down);
            }
        }
        std::mem::swap(&mut self.grid, &mut self.next);
        self.apply_global_boundaries();
        self.iterations += 1;
        Ok(())
    }

    /// Run `steps` Jacobi iterations.
    ///
    /// # Errors
    ///
    /// Propagates [`Heat2d::step`] errors.
    pub fn run(&mut self, steps: usize, endpoint: Option<&Endpoint>) -> Result<(), FtiError> {
        for _ in 0..steps {
            self.step(endpoint)?;
        }
        Ok(())
    }

    /// Maximum absolute deviation from the analytic steady state (the
    /// linear profile between the plate temperatures).
    #[must_use]
    pub fn steady_state_error(&self) -> f64 {
        let mut worst = 0.0_f64;
        for row in 0..self.local_rows {
            let global_row = self.rank * self.local_rows + row;
            // The plates sit at the halo positions −1 and `global_rows`;
            // the steady profile is linear between them.
            let frac = (global_row + 1) as f64 / (self.global_rows + 1) as f64;
            let expect = self.top_temp + (self.bottom_temp - self.top_temp) * frac;
            for col in 0..self.cols {
                worst = worst.max((self.at(row, col) - expect).abs());
            }
        }
        worst
    }

    /// Serialize the interior (checkpointable state) to little-endian
    /// bytes.
    #[must_use]
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.local_rows * self.cols * 8 + 8);
        out.extend(self.iterations.to_le_bytes());
        for row in 0..self.local_rows {
            for col in 0..self.cols {
                out.extend(self.at(row, col).to_le_bytes());
            }
        }
        out
    }

    /// Restore interior state from [`Heat2d::to_bytes`] output.
    ///
    /// # Errors
    ///
    /// [`FtiError::LayoutMismatch`] if the byte length does not match this
    /// solver's geometry.
    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), FtiError> {
        let expect = self.local_rows * self.cols * 8 + 8;
        if bytes.len() != expect {
            return Err(FtiError::LayoutMismatch(format!(
                "expected {expect} bytes, got {}",
                bytes.len()
            )));
        }
        self.iterations = u64::from_le_bytes(bytes[..8].try_into().expect("8"));
        let mut pos = 8;
        for row in 1..=self.local_rows {
            for col in 0..self.cols {
                let v = f64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8"));
                self.grid[row * self.cols + col] = v;
                pos += 8;
            }
        }
        self.apply_global_boundaries();
        Ok(())
    }

    /// Copy the checkpointable state into a protected memory region
    /// (bridging the solver to the FTI `protect`/`snapshot` flow).
    ///
    /// # Errors
    ///
    /// [`FtiError::Memory`] when the region is too small or stale.
    pub fn save_into(&self, mm: &mut MemoryManager, region: RegionHandle) -> Result<(), FtiError> {
        let bytes = self.to_bytes();
        mm.write(region, 0, &bytes)?;
        Ok(())
    }

    /// Restore the checkpointable state from a protected memory region.
    ///
    /// # Errors
    ///
    /// [`FtiError::Memory`] on substrate failures;
    /// [`FtiError::LayoutMismatch`] on geometry mismatch.
    pub fn load_from(&mut self, mm: &MemoryManager, region: RegionHandle) -> Result<(), FtiError> {
        let need = self.local_rows * self.cols * 8 + 8;
        let data = mm.data(region)?;
        if data.len() < need {
            return Err(FtiError::LayoutMismatch(format!(
                "region holds {} bytes, need {need}",
                data.len()
            )));
        }
        let bytes = data[..need].to_vec();
        self.restore_bytes(&bytes)
    }

    /// Bytes of checkpointable state.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        self.local_rows * self.cols * 8 + 8
    }

    fn exchange_halos(&mut self, endpoint: Option<&Endpoint>) -> Result<(), FtiError> {
        let c = self.cols;
        if self.size == 1 {
            return Ok(());
        }
        let ep = endpoint.expect("multi-rank Heat2d requires an endpoint");
        assert_eq!(ep.rank(), self.rank, "endpoint rank mismatch");
        assert_eq!(ep.size(), self.size, "endpoint size mismatch");
        let up = self.rank.checked_sub(1);
        let down = if self.rank + 1 < self.size {
            Some(self.rank + 1)
        } else {
            None
        };
        let encode = |row: usize, grid: &[f64]| -> Vec<u8> {
            grid[row * c..(row + 1) * c]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect()
        };
        if let Some(up) = up {
            ep.send(up, encode(1, &self.grid)).map_err(hw_err)?;
        }
        if let Some(down) = down {
            ep.send(down, encode(self.local_rows, &self.grid))
                .map_err(hw_err)?;
        }
        if let Some(up) = up {
            let bytes = ep.recv(up).map_err(hw_err)?;
            self.decode_into(0, &bytes)?;
        }
        if let Some(down) = down {
            let bytes = ep.recv(down).map_err(hw_err)?;
            self.decode_into(self.local_rows + 1, &bytes)?;
        }
        Ok(())
    }

    fn decode_into(&mut self, row: usize, bytes: &[u8]) -> Result<(), FtiError> {
        if bytes.len() != self.cols * 8 {
            return Err(FtiError::LayoutMismatch("halo row size mismatch".into()));
        }
        for (col, chunk) in bytes.chunks_exact(8).enumerate() {
            self.grid[row * self.cols + col] = f64::from_le_bytes(chunk.try_into().expect("8"));
        }
        Ok(())
    }

    fn apply_global_boundaries(&mut self) {
        let c = self.cols;
        if self.rank == 0 {
            // Global top edge: halo row 0 mirrors the fixed plate; also pin
            // the first interior row's upper neighbour.
            for col in 0..c {
                self.grid[col] = self.top_temp;
            }
        }
        if self.rank == self.size - 1 {
            let last = self.local_rows + 1;
            for col in 0..c {
                self.grid[last * c + col] = self.bottom_temp;
            }
        }
    }
}

fn hw_err(e: legato_hw::HwError) -> FtiError {
    FtiError::Memory(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use legato_hw::comm::Group;
    use std::thread;

    #[test]
    fn converges_to_linear_profile() {
        let mut h = Heat2d::new(16, 8, 0, 1, 100.0, 0.0);
        h.run(4000, None).unwrap();
        assert!(
            h.steady_state_error() < 0.5,
            "error {}",
            h.steady_state_error()
        );
    }

    #[test]
    fn interior_warms_from_top() {
        let mut h = Heat2d::new(8, 4, 0, 1, 100.0, 0.0);
        h.run(50, None).unwrap();
        // Monotone-ish decay from the hot plate.
        assert!(h.at(0, 0) > h.at(4, 0));
        assert!(h.at(4, 0) > h.at(7, 0) - 1e-12);
    }

    #[test]
    fn multi_rank_matches_single_rank() {
        const ROWS: usize = 24;
        const COLS: usize = 6;
        const STEPS: usize = 200;
        // Reference: single rank.
        let mut reference = Heat2d::new(ROWS, COLS, 0, 1, 100.0, 0.0);
        reference.run(STEPS, None).unwrap();

        // Distributed: 4 ranks over threads.
        let endpoints = Group::endpoints(4);
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                thread::spawn(move || {
                    let mut h = Heat2d::new(ROWS, COLS, ep.rank(), ep.size(), 100.0, 0.0);
                    h.run(STEPS, Some(&ep)).unwrap();
                    (ep.rank(), h)
                })
            })
            .collect();
        for handle in handles {
            let (rank, h) = handle.join().unwrap();
            for row in 0..h.local_rows {
                for col in 0..COLS {
                    let global_row = rank * h.local_rows + row;
                    let want = reference.at(global_row, col);
                    let got = h.at(row, col);
                    assert!(
                        (want - got).abs() < 1e-12,
                        "rank {rank} cell ({row},{col}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn checkpoint_restore_resumes_exactly() {
        let mut a = Heat2d::new(16, 8, 0, 1, 100.0, 0.0);
        a.run(100, None).unwrap();
        let saved = a.to_bytes();
        a.run(100, None).unwrap();
        let final_state = a.to_bytes();

        // Restore the snapshot into a fresh solver and replay.
        let mut b = Heat2d::new(16, 8, 0, 1, 100.0, 0.0);
        b.restore_bytes(&saved).unwrap();
        assert_eq!(b.iterations(), 100);
        b.run(100, None).unwrap();
        assert_eq!(b.to_bytes(), final_state);
    }

    #[test]
    fn restore_rejects_wrong_geometry() {
        let a = Heat2d::new(16, 8, 0, 1, 100.0, 0.0);
        let mut b = Heat2d::new(16, 4, 0, 1, 100.0, 0.0);
        assert!(matches!(
            b.restore_bytes(&a.to_bytes()),
            Err(FtiError::LayoutMismatch(_))
        ));
    }

    #[test]
    fn save_load_through_memory_manager() {
        use legato_core::units::Bytes;
        use legato_hw::memory::AddrSpace;

        let mut mm = MemoryManager::new();
        let mut h = Heat2d::new(8, 4, 0, 1, 50.0, 0.0);
        h.run(20, None).unwrap();
        let region = mm
            .alloc(AddrSpace::Host, Bytes(h.state_bytes() as u64))
            .unwrap();
        h.save_into(&mut mm, region).unwrap();
        let snapshot = h.to_bytes();
        h.run(20, None).unwrap();
        h.load_from(&mm, region).unwrap();
        assert_eq!(h.to_bytes(), snapshot);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_partition_rejected() {
        let _ = Heat2d::new(10, 4, 0, 3, 1.0, 0.0);
    }

    #[test]
    fn state_bytes_accounts_header() {
        let h = Heat2d::new(8, 4, 0, 1, 1.0, 0.0);
        assert_eq!(h.state_bytes(), 8 * 4 * 8 + 8);
        assert_eq!(h.to_bytes().len(), h.state_bytes());
    }
}
