//! Simulated time: a deterministic clock and an analytic pipeline model.
//!
//! The substrate never reads the wall clock. All durations are computed
//! from workload sizes and bandwidths; [`SimClock`] merely accumulates
//! them. [`pipeline_time`] is the analytic model used by the asynchronous
//! checkpoint path (device→host copy overlapped with storage writes) — the
//! classic k-stage pipeline formula.

use legato_core::units::Seconds;

/// A deterministic simulated clock.
///
/// ```
/// use legato_hw::time::SimClock;
/// use legato_core::units::Seconds;
///
/// let mut clk = SimClock::new();
/// clk.advance(Seconds(1.5));
/// clk.advance(Seconds(0.5));
/// assert_eq!(clk.now(), Seconds(2.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimClock {
    now: Seconds,
}

impl SimClock {
    /// A clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Advance the clock by a non-negative duration.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or not finite.
    pub fn advance(&mut self, dt: Seconds) {
        assert!(dt.0.is_finite() && dt.0 >= 0.0, "cannot advance by {dt}");
        self.now += dt;
    }

    /// Advance the clock to an absolute time not before the present: the
    /// step of a discrete-event loop, which jumps to its next event.
    ///
    /// ```
    /// use legato_hw::time::SimClock;
    /// use legato_core::units::Seconds;
    ///
    /// let mut clk = SimClock::new();
    /// clk.advance_to(Seconds(4.0));
    /// clk.advance_to(Seconds(4.0));
    /// assert_eq!(clk.now(), Seconds(4.0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the current time.
    pub fn advance_to(&mut self, t: Seconds) {
        assert!(t >= self.now, "clock cannot move backwards");
        self.now = t;
    }

    /// Reset to time zero.
    pub fn reset(&mut self) {
        self.now = Seconds::ZERO;
    }
}

/// Total latency of streaming `chunks` equal chunks through a linear
/// pipeline whose per-chunk stage times are `stage_times`.
///
/// The first chunk pays every stage; each further chunk is admitted at the
/// rate of the slowest (bottleneck) stage:
///
/// `T = Σ stage_times + (chunks − 1) · max(stage_times)`
///
/// This is exactly how the optimized FTI implementation overlaps the
/// device→host copy with the storage write (paper §IV: "we overlap the
/// writing of the file with the data movement from the GPU side to the CPU
/// side … through streams and asynchronous memory copies of chunks").
///
/// Returns [`Seconds::ZERO`] when `chunks == 0` or `stage_times` is empty.
///
/// ```
/// use legato_hw::time::pipeline_time;
/// use legato_core::units::Seconds;
///
/// // Two stages of 1 s and 3 s per chunk, 4 chunks:
/// // 1 + 3 + 3·3 = 13 s rather than the serial 4·(1+3) = 16 s.
/// let t = pipeline_time(4, &[Seconds(1.0), Seconds(3.0)]);
/// assert_eq!(t, Seconds(13.0));
/// ```
#[must_use]
pub fn pipeline_time(chunks: u64, stage_times: &[Seconds]) -> Seconds {
    if chunks == 0 || stage_times.is_empty() {
        return Seconds::ZERO;
    }
    let fill: Seconds = stage_times.iter().copied().sum();
    let bottleneck = stage_times
        .iter()
        .copied()
        .fold(Seconds::ZERO, Seconds::max);
    fill + bottleneck * (chunks - 1) as f64
}

/// Total latency of processing `chunks` equal chunks strictly serially
/// (no overlap between stages): `chunks · Σ stage_times`, plus a fixed
/// `per_chunk_overhead` per chunk. This models the *initial* FTI
/// implementation: synchronous copies, synchronous writes.
#[must_use]
pub fn serial_time(chunks: u64, stage_times: &[Seconds], per_chunk_overhead: Seconds) -> Seconds {
    let per_chunk: Seconds = stage_times.iter().copied().sum::<Seconds>() + per_chunk_overhead;
    per_chunk * chunks as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), Seconds::ZERO);
        c.advance(Seconds(2.0));
        c.advance(Seconds(3.0));
        assert_eq!(c.now(), Seconds(5.0));
        c.reset();
        assert_eq!(c.now(), Seconds::ZERO);
    }

    #[test]
    fn clock_advance_to() {
        let mut c = SimClock::new();
        c.advance_to(Seconds(4.0));
        assert_eq!(c.now(), Seconds(4.0));
    }

    #[test]
    #[should_panic(expected = "clock cannot move backwards")]
    fn clock_rejects_backwards() {
        let mut c = SimClock::new();
        c.advance(Seconds(2.0));
        c.advance_to(Seconds(1.0));
    }

    #[test]
    #[should_panic(expected = "cannot advance by")]
    fn clock_rejects_negative() {
        let mut c = SimClock::new();
        c.advance(Seconds(-1.0));
    }

    #[test]
    fn pipeline_single_chunk_pays_fill() {
        let t = pipeline_time(1, &[Seconds(1.0), Seconds(2.0)]);
        assert_eq!(t, Seconds(3.0));
    }

    #[test]
    fn pipeline_many_chunks_bottlenecked() {
        // 100 chunks, bottleneck 2 s: 1 + 2 + 99*2 = 201.
        let t = pipeline_time(100, &[Seconds(1.0), Seconds(2.0)]);
        assert_eq!(t, Seconds(201.0));
    }

    #[test]
    fn pipeline_degenerate_cases() {
        assert_eq!(pipeline_time(0, &[Seconds(1.0)]), Seconds::ZERO);
        assert_eq!(pipeline_time(5, &[]), Seconds::ZERO);
    }

    #[test]
    fn pipeline_beats_serial() {
        let stages = [Seconds(1.0), Seconds(1.5), Seconds(0.5)];
        let p = pipeline_time(50, &stages);
        let s = serial_time(50, &stages, Seconds::ZERO);
        assert!(p < s);
        // Serial = 50 * 3 = 150; pipeline = 3 + 49*1.5 = 76.5.
        assert_eq!(s, Seconds(150.0));
        assert_eq!(p, Seconds(76.5));
    }

    #[test]
    fn serial_overhead_accumulates() {
        let t = serial_time(10, &[Seconds(0.1)], Seconds(0.02));
        assert!((t.0 - 1.2).abs() < 1e-12);
    }
}
