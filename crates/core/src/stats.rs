//! Small numeric helpers shared by schedulers and models.
//!
//! HEATS learns per-node performance/energy models from profiling samples
//! (paper §V: "Software probing (workloads), Learning phase") with
//! [`linear_fit`], and the FPGA model checks that undervolting fault rates
//! grow exponentially with [`exponential_fit`].

/// Arithmetic mean. Returns `0.0` for an empty slice.
///
/// ```
/// assert_eq!(legato_core::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Linear interpolation percentile (`p` in `[0, 100]`) of an unsorted slice.
/// Returns `0.0` for an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Result of an ordinary least squares fit `y ≈ slope · x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (1 = perfect fit).
    pub r_squared: f64,
}

impl LinearFit {
    /// Predict `y` at `x`.
    #[must_use]
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Ordinary least squares over `(x, y)` pairs.
///
/// Returns `None` when fewer than two points are given or all `x` are
/// identical (the slope is then undefined).
///
/// ```
/// let pts = [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)];
/// let fit = legato_core::stats::linear_fit(&pts).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// assert!((fit.r_squared - 1.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn linear_fit(points: &[(f64, f64)]) -> Option<LinearFit> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;

    let my = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - my).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot.abs() < 1e-12 {
        1.0
    } else {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
    })
}

/// Exponential fit `y ≈ a · exp(b · x)` via log-linear least squares.
///
/// All `y` must be strictly positive; returns `None` otherwise (or when the
/// underlying linear fit is degenerate). Used to verify the paper's claim
/// that undervolting fault rates grow exponentially within the critical
/// region.
#[must_use]
pub fn exponential_fit(points: &[(f64, f64)]) -> Option<(f64, f64, f64)> {
    if points.iter().any(|p| p.1 <= 0.0) {
        return None;
    }
    let logged: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x, y.ln())).collect();
    let fit = linear_fit(&logged)?;
    Some((fit.intercept.exp(), fit.slope, fit.r_squared))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[4.0]), 4.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_perfect_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 2.0)).collect();
        let fit = linear_fit(&pts).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-9);
        assert!((fit.intercept + 2.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
        assert!((fit.predict(20.0) - 58.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate() {
        assert!(linear_fit(&[(1.0, 2.0)]).is_none());
        assert!(linear_fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn exponential_fit_recovers_params() {
        let pts: Vec<(f64, f64)> = (0..20)
            .map(|i| {
                let x = i as f64 * 0.1;
                (x, 2.5 * (1.7 * x).exp())
            })
            .collect();
        let (a, b, r2) = exponential_fit(&pts).unwrap();
        assert!((a - 2.5).abs() < 1e-6);
        assert!((b - 1.7).abs() < 1e-6);
        assert!(r2 > 0.999);
    }

    #[test]
    fn exponential_fit_rejects_nonpositive_y() {
        assert!(exponential_fit(&[(0.0, 1.0), (1.0, 0.0)]).is_none());
    }
}
