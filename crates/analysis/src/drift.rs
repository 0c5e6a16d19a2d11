//! The drift function `g(x, y)` of Eq. (7) and Observation 1's expectation.
//!
//! For sample size `ℓ` and population size `n` (single source holding 1):
//!
//! ```text
//! g(x, y) = P(B_ℓ(y) > B_ℓ(x)) + y · P(B_ℓ(y) = B_ℓ(x))
//!           + (1/n) · (1 − P(B_ℓ(y) ≥ B_ℓ(x)))
//! ```
//!
//! so that `E[x_{t+2} | x_t = x, x_{t+1} = y] = g(x, y)` (Eq. (2)). The
//! drift field is what shapes Figure 1a: where `g(x, y) − y` is positive the
//! chain accelerates upward, where it vanishes the chain stalls (the Yellow
//! analysis), and its structure near the diagonal drives Lemmas 7–11.

use crate::error::AnalysisError;
use fet_stats::compare::CoinCompetition;

/// The drift field for a population of `n` agents sampling `ℓ` per
/// half-sample, with a single source holding opinion 1 (the paper's
/// w.l.o.g. convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftField {
    n: u64,
    ell: u64,
}

impl DriftField {
    /// Creates the field.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] when `n < 2` or
    /// `ell == 0`.
    pub fn new(n: u64, ell: u64) -> Result<Self, AnalysisError> {
        if n < 2 {
            return Err(AnalysisError::InvalidParameter {
                name: "n",
                detail: format!("need n ≥ 2, got {n}"),
            });
        }
        if ell == 0 {
            return Err(AnalysisError::InvalidParameter {
                name: "ell",
                detail: "need ℓ ≥ 1".into(),
            });
        }
        Ok(DriftField { n, ell })
    }

    /// Population size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Half-sample size `ℓ`.
    pub fn ell(&self) -> u64 {
        self.ell
    }

    /// `g(x, y)` per Eq. (7).
    ///
    /// # Panics
    ///
    /// Panics when `x` or `y` is not a probability.
    pub fn g(&self, x: f64, y: f64) -> f64 {
        let cc = CoinCompetition::new(self.ell, x, y);
        let p_gt = cc.p_second_wins(); // P(B(y) > B(x))
        let p_eq = cc.p_tie();
        let p_geq = p_gt + p_eq;
        // The sum can drift an ulp outside [0, 1]; g is a probability.
        (p_gt + y * p_eq + (1.0 - p_geq).max(0.0) / self.n as f64).clamp(0.0, 1.0)
    }

    /// The one-step drift `g(x, y) − y`: positive where the chain's
    /// expected motion is upward.
    pub fn drift(&self, x: f64, y: f64) -> f64 {
        self.g(x, y) - y
    }

    /// Samples the field on a `steps × steps` grid of `(x, y)` points,
    /// returning row-major `g` values (rows indexed by `y`, columns by
    /// `x`) — the raw material for the Figure 1a heatmap.
    pub fn sample_grid(&self, steps: usize) -> Vec<Vec<f64>> {
        let denom = (steps.max(2) - 1) as f64;
        (0..steps)
            .map(|j| {
                let y = j as f64 / denom;
                (0..steps)
                    .map(|i| {
                        let x = i as f64 / denom;
                        self.g(x, y)
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> DriftField {
        DriftField::new(10_000, 37).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(DriftField::new(1, 8).is_err());
        assert!(DriftField::new(100, 0).is_err());
    }

    #[test]
    fn g_is_a_probability() {
        let f = field();
        for &(x, y) in &[
            (0.0, 0.0),
            (1.0, 1.0),
            (0.5, 0.5),
            (0.1, 0.9),
            (0.9, 0.1),
            (0.3, 0.35),
        ] {
            let g = f.g(x, y);
            assert!((0.0..=1.0).contains(&g), "g({x},{y}) = {g}");
        }
    }

    #[test]
    fn strong_rise_drives_to_one() {
        let f = field();
        assert!(f.g(0.2, 0.6) > 0.99);
        assert!(f.g(0.6, 0.2) < 0.01);
    }

    #[test]
    fn absorbing_corner() {
        // At (1, 1): every comparison ties, everyone keeps 1.
        let f = field();
        assert!((f.g(1.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrong_consensus_corner_escapes_by_source() {
        // At (1/n, 1/n)-ish states, g is small but strictly positive: the
        // source's presence gives agents a chance to see a 1.
        let f = field();
        let x = 1.0 / 10_000.0;
        let g = f.g(x, x);
        assert!(g > 0.0, "g must be positive at the wrong consensus");
        assert!(g < 0.05);
    }

    #[test]
    fn diagonal_near_half_is_nearly_neutral() {
        // On the diagonal x = y = 1/2 the comparison is symmetric; drift is
        // O(1/n).
        let f = field();
        let d = f.drift(0.5, 0.5);
        assert!(d.abs() < 1e-3, "drift at the center = {d}");
    }

    #[test]
    fn drift_positive_above_diagonal_near_center() {
        // Slightly rising configurations should keep rising in expectation
        // (the A-area mechanics of Lemma 7).
        let f = field();
        assert!(f.drift(0.5, 0.53) > 0.0);
        assert!(f.drift(0.5, 0.47) < 0.0);
    }

    #[test]
    fn matches_aggregate_chain_expectation_formula() {
        // Cross-check Eq. (7) against the independently coded Eq. (2) in
        // fet-sim's aggregate chain (single source, opinion 1):
        // here via direct reconstruction.
        let f = field();
        let n = 10_000f64;
        for &(x, y) in &[(0.2, 0.25), (0.5, 0.48), (0.8, 0.85)] {
            let cc = CoinCompetition::new(37, x, y);
            let p_gt = cc.p_second_wins();
            let p_eq = cc.p_tie();
            // Eq. (2): holders of 1 (ny − 1 non-source) stay w.p. p_geq;
            // holders of 0 join w.p. p_gt; source constant.
            let expect = (1.0 + (n * y - 1.0) * (p_gt + p_eq) + (n - n * y) * p_gt) / n;
            assert!(
                (f.g(x, y) - expect).abs() < 1e-12,
                "Eq.(7) vs Eq.(2) at ({x},{y})"
            );
        }
    }

    #[test]
    fn sample_grid_shape() {
        let f = DriftField::new(1000, 8).unwrap();
        let grid = f.sample_grid(11);
        assert_eq!(grid.len(), 11);
        assert!(grid.iter().all(|row| row.len() == 11));
        // Corner values.
        assert!((grid[10][10] - 1.0).abs() < 1e-9);
    }
}
