//! The deterministic mean-field limit (`n → ∞`) of the FET dynamics.
//!
//! Dropping the `O(1/n)` source term from Eq. (7) leaves the pure map
//!
//! ```text
//! (x_t, x_{t+1})  ↦  (x_{t+1}, G(x_t, x_{t+1}))
//! G(x, y) = P(B_ℓ(y) > B_ℓ(x)) + y · P(B_ℓ(y) = B_ℓ(x))
//! ```
//!
//! whose structure explains the phase portrait of Figure 1a:
//!
//! * the two consensi `(0,0)` and `(1,1)` are fixed (unanimity forces
//!   ties, ties keep);
//! * on the diagonal, `G(x,x) − x = (1 − P(tie))·(1/2 − x)`: the *diagonal
//!   drift pulls toward the center* — with no trend, noise-free agents
//!   regress to ½ (the Yellow mechanics);
//! * the center `(½, ½)` is an **unstable focus** of the 2-D map: the
//!   Jacobian `[[0, 1], [Gₓ, G_y]]` has a *complex* eigenvalue pair of
//!   modulus > 1 (measured ≈ 1.78 at ℓ = 32). The one-round delay embeds
//!   rotation: a trend amplifies, overshoots the consensus it was heading
//!   for, and swings back — the deterministic shadow of both Lemma 7's
//!   speed doubling *and* the paper's "bouncing" narrative (§2.2). Which
//!   consensus a spiralling orbit finally lands on depends on its phase.
//!
//! The `O(1/n)` source term breaks the symmetry of this portrait just
//! enough to make `(1,1)` the unique absorbing state — which is the whole
//! paper in one sentence.

use crate::error::AnalysisError;
use fet_stats::compare::CoinCompetition;

/// The mean-field FET map for half-sample size `ℓ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeanFieldMap {
    ell: u64,
}

/// A fixed point of the mean-field map with its linearization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanFieldFixedPoint {
    /// The diagonal coordinate (`x = y`).
    pub x: f64,
    /// Eigenvalue magnitudes of the Jacobian of `(x,y) ↦ (y, G(x,y))`.
    pub eigenvalue_magnitudes: (f64, f64),
    /// `true` when the eigenvalues form a complex-conjugate pair (the map
    /// rotates around the point — oscillatory dynamics).
    pub complex_pair: bool,
}

impl MeanFieldFixedPoint {
    /// `true` when at least one eigenvalue magnitude exceeds 1.
    pub fn is_unstable(&self) -> bool {
        self.eigenvalue_magnitudes.0 > 1.0
    }

    /// `true` when the point is an unstable focus (complex pair with
    /// modulus above 1) — the measured character of the center.
    pub fn is_unstable_focus(&self) -> bool {
        self.complex_pair && self.is_unstable()
    }
}

impl MeanFieldMap {
    /// Creates the map.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] when `ell == 0`.
    pub fn new(ell: u64) -> Result<Self, AnalysisError> {
        if ell == 0 {
            return Err(AnalysisError::InvalidParameter {
                name: "ell",
                detail: "need ℓ ≥ 1".into(),
            });
        }
        Ok(MeanFieldMap { ell })
    }

    /// Half-sample size `ℓ`.
    pub fn ell(&self) -> u64 {
        self.ell
    }

    /// `G(x, y)` — the sourceless drift.
    ///
    /// # Panics
    ///
    /// Panics when `x` or `y` is not a probability.
    pub fn g(&self, x: f64, y: f64) -> f64 {
        let cc = CoinCompetition::new(self.ell, x, y);
        (cc.p_second_wins() + y * cc.p_tie()).clamp(0.0, 1.0)
    }

    /// One step of the 2-D map.
    pub fn step(&self, state: (f64, f64)) -> (f64, f64) {
        (state.1, self.g(state.0, state.1))
    }

    /// The orbit of a starting pair for `steps` iterations (inclusive of
    /// the start).
    pub fn orbit(&self, start: (f64, f64), steps: usize) -> Vec<(f64, f64)> {
        let mut out = Vec::with_capacity(steps + 1);
        let mut s = start;
        out.push(s);
        for _ in 0..steps {
            s = self.step(s);
            out.push(s);
        }
        out
    }

    /// Diagonal drift `G(x, x) − x`; positive below ½, negative above.
    pub fn diagonal_drift(&self, x: f64) -> f64 {
        self.g(x, x) - x
    }

    /// Numeric Jacobian of the map at a diagonal point `(x, x)`.
    pub fn jacobian_at(&self, x: f64) -> [[f64; 2]; 2] {
        let h = 1e-6;
        let gx = (self.g((x + h).min(1.0), x) - self.g((x - h).max(0.0), x)) / (2.0 * h);
        let gy = (self.g(x, (x + h).min(1.0)) - self.g(x, (x - h).max(0.0))) / (2.0 * h);
        [[0.0, 1.0], [gx, gy]]
    }

    /// Eigenvalue magnitudes of a 2×2 matrix, flagging complex pairs.
    fn eigen_magnitudes(m: [[f64; 2]; 2]) -> ((f64, f64), bool) {
        let tr = m[0][0] + m[1][1];
        let det = m[0][0] * m[1][1] - m[0][1] * m[1][0];
        let disc = tr * tr - 4.0 * det;
        if disc >= 0.0 {
            let r = disc.sqrt();
            let l1 = (tr + r) / 2.0;
            let l2 = (tr - r) / 2.0;
            ((l1.abs().max(l2.abs()), l1.abs().min(l2.abs())), false)
        } else {
            // Complex pair: |λ| = √det.
            let mag = det.abs().sqrt();
            ((mag, mag), true)
        }
    }

    /// Analyzes a diagonal fixed point.
    pub fn analyze_fixed_point(&self, x: f64) -> MeanFieldFixedPoint {
        let ((hi, lo), complex_pair) = Self::eigen_magnitudes(self.jacobian_at(x));
        MeanFieldFixedPoint {
            x,
            eigenvalue_magnitudes: (hi, lo),
            complex_pair,
        }
    }

    /// The three diagonal fixed points `(0, ½, 1)` with their analyses.
    pub fn fixed_points(&self) -> [MeanFieldFixedPoint; 3] {
        [
            self.analyze_fixed_point(0.0),
            self.analyze_fixed_point(0.5),
            self.analyze_fixed_point(1.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> MeanFieldMap {
        MeanFieldMap::new(32).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(MeanFieldMap::new(0).is_err());
        assert!(MeanFieldMap::new(1).is_ok());
    }

    #[test]
    fn consensi_are_fixed() {
        let m = map();
        assert_eq!(m.step((0.0, 0.0)), (0.0, 0.0));
        assert_eq!(m.step((1.0, 1.0)), (1.0, 1.0));
    }

    #[test]
    fn center_is_fixed_on_the_diagonal() {
        let m = map();
        let (_, y) = m.step((0.5, 0.5));
        assert!((y - 0.5).abs() < 1e-12, "G(1/2,1/2) = {y}");
    }

    #[test]
    fn diagonal_drift_pulls_to_center() {
        let m = map();
        // The closed form: G(x,x) − x = (1 − P(tie))·(1/2 − x).
        for x in [0.1, 0.3, 0.45] {
            assert!(m.diagonal_drift(x) > 0.0, "below ½ must drift up");
            assert!(m.diagonal_drift(1.0 - x) < 0.0, "above ½ must drift down");
            let cc = CoinCompetition::new(32, x, x);
            let expect = (1.0 - cc.p_tie()) * (0.5 - x);
            assert!((m.diagonal_drift(x) - expect).abs() < 1e-10);
        }
    }

    #[test]
    fn center_is_an_unstable_focus() {
        // The measured character of the center: complex eigenvalue pair
        // with modulus > 1 — rotation + amplification, i.e. the bounce.
        let fp = map().analyze_fixed_point(0.5);
        assert!(
            fp.is_unstable_focus(),
            "center must be an unstable focus: {fp:?}"
        );
        // The modulus grows with ℓ (sharper comparisons, stronger feedback).
        let weak = MeanFieldMap::new(4).unwrap().analyze_fixed_point(0.5);
        assert!(
            fp.eigenvalue_magnitudes.0 > weak.eigenvalue_magnitudes.0,
            "larger ℓ should amplify trends harder"
        );
    }

    #[test]
    fn off_diagonal_perturbation_spirals_out_to_a_consensus() {
        // A perturbed orbit amplifies, overshoots (the spiral), and lands
        // on one of the two consensi; which one depends on the phase, so
        // assert extremeness rather than the side.
        let m = map();
        for start in [(0.5, 0.52), (0.5, 0.48), (0.5, 0.505)] {
            let orbit = m.orbit(start, 80);
            let last = orbit.last().unwrap();
            assert!(
                last.1 > 0.99 || last.1 < 0.01,
                "orbit from {start:?} should reach a consensus: {last:?}"
            );
        }
        // And the early segment really does oscillate: the sign of the
        // trend (y − x) flips at least once before consensus.
        let orbit = m.orbit((0.5, 0.51), 80);
        let flips = orbit
            .windows(2)
            .map(|w| (w[0].1 - w[0].0).signum())
            .collect::<Vec<_>>()
            .windows(2)
            .filter(|p| p[0] != p[1] && p[0] != 0.0)
            .count();
        assert!(
            flips >= 1,
            "expected at least one trend reversal (the bounce)"
        );
    }

    #[test]
    fn orbit_has_requested_length() {
        let m = map();
        assert_eq!(m.orbit((0.2, 0.3), 10).len(), 11);
    }
}
