//! Checkpoint-interval and MTBF sustainability modelling.
//!
//! The paper closes §IV with: "for the same amount of application
//! overhead, the extended FTI version can sustain execution in systems
//! with 7 times smaller MTBF." This module provides the standard
//! first-order model behind such statements (Young's optimal interval
//! and the first-order overhead approximation) and a solver for the
//! sustainable MTBF at a fixed overhead budget.
//!
//! Every function validates its domain and returns
//! [`FtiError::InvalidParameter`] instead of panicking — the
//! checkpoint/restart execution engine in `legato-runtime` calls these
//! models mid-run, where a panic would take the whole simulation down
//! (mirroring the runtime's `Policy::weighted` → `InvalidWeight`
//! contract). Checkpoint and interval times must be strictly positive;
//! the restart cost may be zero (an in-memory restore is legitimately
//! free at this model's resolution).

use legato_core::units::Seconds;

use crate::error::FtiError;

/// Validate that `value` is finite and strictly positive.
fn positive(name: &'static str, value: f64) -> Result<(), FtiError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(FtiError::InvalidParameter { name, value })
    }
}

/// Validate that `value` is finite and non-negative.
fn non_negative(name: &'static str, value: f64) -> Result<(), FtiError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(FtiError::InvalidParameter { name, value })
    }
}

/// Young's optimal checkpoint interval `τ = sqrt(2 δ M)` for checkpoint
/// cost `δ` and MTBF `M`.
///
/// # Errors
///
/// [`FtiError::InvalidParameter`] if either argument is non-positive or
/// non-finite.
///
/// ```
/// use legato_fti::mtbf::young_interval;
/// use legato_core::units::Seconds;
///
/// let tau = young_interval(Seconds(10.0), Seconds(20_000.0)).unwrap();
/// assert!((tau.0 - 632.45).abs() < 0.1);
/// ```
pub fn young_interval(ckpt: Seconds, mtbf: Seconds) -> Result<Seconds, FtiError> {
    positive("ckpt", ckpt.0)?;
    positive("mtbf", mtbf.0)?;
    Ok(Seconds((2.0 * ckpt.0 * mtbf.0).sqrt()))
}

/// First-order fraction of wall-clock time lost to fault tolerance when
/// checkpointing every `interval` seconds with checkpoint cost `ckpt`,
/// restart cost `restart`, on a machine with the given `mtbf`:
///
/// `overhead ≈ δ/τ + (τ/2 + R) / M`
///
/// (checkpoint bandwidth loss, plus expected rework and restart per
/// failure).
///
/// # Errors
///
/// [`FtiError::InvalidParameter`] if `ckpt`, `interval` or `mtbf` is
/// non-positive, or `restart` is negative (a free restart is allowed —
/// the formula is well-defined at `R = 0`).
fn overhead_fraction(
    ckpt: Seconds,
    restart: Seconds,
    interval: Seconds,
    mtbf: Seconds,
) -> Result<f64, FtiError> {
    positive("ckpt", ckpt.0)?;
    non_negative("restart", restart.0)?;
    positive("interval", interval.0)?;
    positive("mtbf", mtbf.0)?;
    Ok(ckpt.0 / interval.0 + (interval.0 / 2.0 + restart.0) / mtbf.0)
}

/// Overhead at the Young-optimal interval.
///
/// # Errors
///
/// Same domain as [`overhead_fraction`].
fn optimal_overhead(ckpt: Seconds, restart: Seconds, mtbf: Seconds) -> Result<f64, FtiError> {
    overhead_fraction(ckpt, restart, young_interval(ckpt, mtbf)?, mtbf)
}

/// The smallest MTBF a system can have while keeping fault-tolerance
/// overhead at or below `budget` (a fraction in `(0, 1)`), assuming the
/// application checkpoints at the Young-optimal interval.
///
/// Solved by bisection on the monotone `optimal_overhead` curve. Returns
/// `Ok(None)` if even an MTBF of ten years cannot meet the budget.
///
/// # Errors
///
/// [`FtiError::InvalidParameter`] if `budget` is not in `(0, 1)`, `ckpt`
/// is non-positive, or `restart` is negative.
pub fn sustainable_mtbf(
    ckpt: Seconds,
    restart: Seconds,
    budget: f64,
) -> Result<Option<Seconds>, FtiError> {
    if !(budget.is_finite() && budget > 0.0 && budget < 1.0) {
        return Err(FtiError::InvalidParameter {
            name: "budget",
            value: budget,
        });
    }
    positive("ckpt", ckpt.0)?;
    non_negative("restart", restart.0)?;
    let ten_years = 10.0 * 365.25 * 24.0 * 3600.0;
    if optimal_overhead(ckpt, restart, Seconds(ten_years))? > budget {
        return Ok(None);
    }
    // Overhead decreases as MTBF grows: bisect for the crossing point.
    let (mut lo, mut hi) = (1e-3, ten_years);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if optimal_overhead(ckpt, restart, Seconds(mid))? > budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(Seconds(hi)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn young_interval_formula() {
        let tau = young_interval(Seconds(50.0), Seconds(10_000.0)).unwrap();
        assert!((tau.0 - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_decreases_with_mtbf() {
        let o_bad = optimal_overhead(Seconds(10.0), Seconds(5.0), Seconds(1_000.0)).unwrap();
        let o_good = optimal_overhead(Seconds(10.0), Seconds(5.0), Seconds(100_000.0)).unwrap();
        assert!(o_good < o_bad);
    }

    #[test]
    fn overhead_increases_with_ckpt_cost() {
        let fast = optimal_overhead(Seconds(5.0), Seconds(5.0), Seconds(10_000.0)).unwrap();
        let slow = optimal_overhead(Seconds(60.0), Seconds(30.0), Seconds(10_000.0)).unwrap();
        assert!(slow > fast);
    }

    #[test]
    fn sustainable_mtbf_meets_budget() {
        let m = sustainable_mtbf(Seconds(10.0), Seconds(7.0), 0.05)
            .unwrap()
            .unwrap();
        let o = optimal_overhead(Seconds(10.0), Seconds(7.0), m).unwrap();
        assert!(o <= 0.05 + 1e-6);
        // And just below it the budget is violated.
        let o_tight = optimal_overhead(Seconds(10.0), Seconds(7.0), Seconds(m.0 * 0.9)).unwrap();
        assert!(o_tight > 0.05);
    }

    #[test]
    fn faster_checkpoints_sustain_smaller_mtbf() {
        // The §IV claim: the optimized implementation (≈12× faster ckpt,
        // ≈5× faster recover) sustains systems with several-fold smaller
        // MTBF at the same overhead budget.
        let slow_ckpt = Seconds(60.0);
        let slow_rec = Seconds(36.0);
        let fast_ckpt = Seconds(60.0 / 12.05);
        let fast_rec = Seconds(36.0 / 5.13);
        let m_slow = sustainable_mtbf(slow_ckpt, slow_rec, 0.10)
            .unwrap()
            .unwrap();
        let m_fast = sustainable_mtbf(fast_ckpt, fast_rec, 0.10)
            .unwrap()
            .unwrap();
        let factor = m_slow.0 / m_fast.0;
        assert!(
            (5.0..13.0).contains(&factor),
            "expected roughly 7x (paper), got {factor:.2}"
        );
    }

    #[test]
    fn impossible_budget_returns_none() {
        // Checkpoint costs an hour; 0.01% overhead is unreachable.
        assert_eq!(
            sustainable_mtbf(Seconds(3600.0), Seconds(3600.0), 0.0001).unwrap(),
            None
        );
    }

    /// The documented contract: checkpoint/interval/MTBF strictly
    /// positive, restart non-negative — `restart == 0` is *valid*, and
    /// bad values are errors naming the offending parameter, not panics.
    #[test]
    fn domain_errors_name_the_parameter() {
        assert!(overhead_fraction(
            Seconds(10.0),
            Seconds::ZERO,
            Seconds(100.0),
            Seconds(1000.0)
        )
        .is_ok());
        let err = |r: Result<f64, FtiError>| match r {
            Err(FtiError::InvalidParameter { name, .. }) => name,
            other => panic!("expected InvalidParameter, got {other:?}"),
        };
        assert_eq!(
            err(overhead_fraction(
                Seconds::ZERO,
                Seconds(1.0),
                Seconds(1.0),
                Seconds(1.0)
            )),
            "ckpt"
        );
        assert_eq!(
            err(overhead_fraction(
                Seconds(1.0),
                Seconds(-1.0),
                Seconds(1.0),
                Seconds(1.0)
            )),
            "restart"
        );
        assert_eq!(
            err(overhead_fraction(
                Seconds(1.0),
                Seconds(1.0),
                Seconds(f64::NAN),
                Seconds(1.0)
            )),
            "interval"
        );
        assert_eq!(
            err(overhead_fraction(
                Seconds(1.0),
                Seconds(1.0),
                Seconds(1.0),
                Seconds::ZERO
            )),
            "mtbf"
        );
        assert!(matches!(
            young_interval(Seconds(1.0), Seconds(f64::INFINITY)),
            Err(FtiError::InvalidParameter { name: "mtbf", .. })
        ));
    }

    #[test]
    fn budget_validation_is_an_error() {
        assert!(matches!(
            sustainable_mtbf(Seconds(1.0), Seconds(1.0), 1.5),
            Err(FtiError::InvalidParameter { name: "budget", .. })
        ));
        assert!(matches!(
            sustainable_mtbf(Seconds(1.0), Seconds(1.0), 0.0),
            Err(FtiError::InvalidParameter { name: "budget", .. })
        ));
    }
}
