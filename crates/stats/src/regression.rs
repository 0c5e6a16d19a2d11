//! Least-squares fitting on transformed axes.
//!
//! Theorem 1 claims convergence in `O(log^{5/2} n)` rounds. To check the
//! *shape* empirically we fit the model `T(n) = a · (ln n)^b` by ordinary
//! least squares on `ln T` vs `ln ln n`: the slope recovers the exponent `b`.
//! The same machinery fits straight power laws `T(n) = a · n^b` for the
//! baseline protocols.

use crate::error::StatsError;

/// Result of a simple linear regression `y = intercept + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination `R²`.
    pub r_squared: f64,
    /// Standard error of the slope estimate.
    pub slope_stderr: f64,
    /// Number of points.
    pub n: usize,
}

impl LinearFit {
    /// Predicted `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Ordinary least squares on raw `(x, y)` pairs.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] when fewer than 2 points are given,
/// [`StatsError::InvalidDomain`] when the slices' lengths differ or all `x`
/// are identical, and [`StatsError::NotFinite`] on NaN/∞ input.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Result<LinearFit, StatsError> {
    if xs.len() != ys.len() {
        return Err(StatsError::InvalidDomain {
            detail: format!("x and y lengths differ: {} vs {}", xs.len(), ys.len()),
        });
    }
    if xs.len() < 2 {
        return Err(StatsError::EmptyInput {
            what: "regression needs ≥ 2 points",
        });
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return Err(StatsError::NotFinite {
            name: "regression input",
        });
    }
    let n = xs.len() as f64;
    let mean_x: f64 = xs.iter().sum::<f64>() / n;
    let mean_y: f64 = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return Err(StatsError::InvalidDomain {
            detail: "all x values identical; slope undefined".into(),
        });
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    // Residual sum of squares.
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| {
            let e = y - (intercept + slope * x);
            e * e
        })
        .sum();
    let r_squared = if syy == 0.0 { 1.0 } else { 1.0 - ss_res / syy };
    let dof = (xs.len() as f64 - 2.0).max(1.0);
    let slope_stderr = (ss_res / dof / sxx).sqrt();
    Ok(LinearFit {
        slope,
        intercept,
        r_squared,
        slope_stderr,
        n: xs.len(),
    })
}

/// A fitted model `y = a · (ln x)^b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerOfLogFit {
    /// Multiplicative constant `a`.
    pub a: f64,
    /// Exponent `b` on `ln x`.
    pub b: f64,
    /// `R²` of the underlying linear fit in transformed coordinates.
    pub r_squared: f64,
    /// Standard error of `b`.
    pub b_stderr: f64,
}

impl PowerOfLogFit {
    /// Predicted `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.a * x.ln().powf(self.b)
    }
}

/// Fits `y = a · (ln x)^b` by OLS on `ln y` against `ln ln x`.
///
/// This is the Theorem 1 shape check: feeding measured convergence times
/// `T(n)` recovers the exponent `b`, which the paper bounds by `5/2`.
///
/// # Errors
///
/// Propagates [`linear_fit`] errors; additionally rejects nonpositive inputs
/// (logs would be undefined) and `x ≤ e` (where `ln ln x ≤ 0` blows up the
/// transform) via [`StatsError::InvalidDomain`].
pub fn fit_power_of_log(xs: &[f64], ys: &[f64]) -> Result<PowerOfLogFit, StatsError> {
    if xs.iter().any(|&x| x <= std::f64::consts::E) || ys.iter().any(|&y| y <= 0.0) {
        return Err(StatsError::InvalidDomain {
            detail: "fit_power_of_log requires x > e and y > 0".into(),
        });
    }
    let tx: Vec<f64> = xs.iter().map(|&x| x.ln().ln()).collect();
    let ty: Vec<f64> = ys.iter().map(|&y| y.ln()).collect();
    let fit = linear_fit(&tx, &ty)?;
    Ok(PowerOfLogFit {
        a: fit.intercept.exp(),
        b: fit.slope,
        r_squared: fit.r_squared,
        b_stderr: fit.slope_stderr,
    })
}

/// A fitted model `y = a · x^b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Multiplicative constant `a`.
    pub a: f64,
    /// Exponent `b`.
    pub b: f64,
    /// `R²` of the underlying linear fit in log–log coordinates.
    pub r_squared: f64,
}

/// Fits `y = a · x^b` by OLS on `ln y` against `ln x`.
///
/// Used to verify that measured times are *not* polynomial in `n`: a
/// poly-log time series fitted with a power law yields a tiny exponent that
/// shrinks as `n` grows.
///
/// # Errors
///
/// Propagates [`linear_fit`] errors; rejects nonpositive inputs.
pub fn fit_power_law(xs: &[f64], ys: &[f64]) -> Result<PowerLawFit, StatsError> {
    if xs.iter().any(|&x| x <= 0.0) || ys.iter().any(|&y| y <= 0.0) {
        return Err(StatsError::InvalidDomain {
            detail: "fit_power_law requires positive x and y".into(),
        });
    }
    let tx: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
    let ty: Vec<f64> = ys.iter().map(|&y| y.ln()).collect();
    let fit = linear_fit(&tx, &ty)?;
    Ok(PowerLawFit {
        a: fit.intercept.exp(),
        b: fit.slope,
        r_squared: fit.r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 7.0).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 7.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!(fit.slope_stderr < 1e-10);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(linear_fit(&[1.0], &[2.0]).is_err());
        assert!(linear_fit(&[1.0, 1.0], &[2.0, 3.0]).is_err());
        assert!(linear_fit(&[1.0, 2.0], &[2.0]).is_err());
        assert!(linear_fit(&[1.0, f64::NAN], &[2.0, 3.0]).is_err());
    }

    #[test]
    fn power_of_log_recovers_exponent() {
        // y = 2 (ln x)^{2.5}, exactly the Theorem 1 shape.
        let xs: Vec<f64> = (4..16).map(|k| (1u64 << k) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 2.0 * x.ln().powf(2.5)).collect();
        let fit = fit_power_of_log(&xs, &ys).unwrap();
        assert!((fit.b - 2.5).abs() < 1e-9, "b = {}", fit.b);
        assert!((fit.a - 2.0).abs() < 1e-9, "a = {}", fit.a);
        assert!(fit.r_squared > 0.999_999);
    }

    #[test]
    fn power_of_log_prediction_round_trip() {
        let xs: Vec<f64> = (4..14).map(|k| (1u64 << k) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 5.0 * x.ln().powf(1.5)).collect();
        let fit = fit_power_of_log(&xs, &ys).unwrap();
        for (&x, &y) in xs.iter().zip(&ys) {
            assert!((fit.predict(x) - y).abs() < 1e-6 * y);
        }
    }

    #[test]
    fn power_of_log_rejects_small_x() {
        assert!(fit_power_of_log(&[2.0, 3.0], &[1.0, 2.0]).is_err());
        assert!(fit_power_of_log(&[4.0, 8.0], &[0.0, 2.0]).is_err());
    }

    #[test]
    fn power_law_recovers_exponent() {
        let xs: Vec<f64> = (1..12).map(|k| (1u64 << k) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 0.5 * x.powf(1.7)).collect();
        let fit = fit_power_law(&xs, &ys).unwrap();
        assert!((fit.b - 1.7).abs() < 1e-9);
        assert!((fit.a - 0.5).abs() < 1e-9);
    }

    #[test]
    fn polylog_data_under_power_law_has_shrinking_exponent() {
        // Fitting a·x^b to polylog data over growing windows must yield
        // decreasing b — the experiment E1 diagnostic.
        let window = |lo: u32, hi: u32| -> f64 {
            let xs: Vec<f64> = (lo..hi).map(|k| (1u64 << k) as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|&x| x.ln().powf(2.5)).collect();
            fit_power_law(&xs, &ys).unwrap().b
        };
        let early = window(4, 10);
        let late = window(14, 20);
        assert!(
            late < early,
            "power-law exponent should shrink: {early} -> {late}"
        );
    }
}
