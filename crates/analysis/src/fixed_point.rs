//! The fixed-point function `f(x)` of Claims 2–3.
//!
//! For `x ∈ [1/2 + 4/n, 1/2 + 4δ]`, Claim 2 shows `y ↦ g(x, y)` has at most
//! one fixed point on `[x, x + 1/√ℓ]`; define `f(x)` as that fixed point,
//! or `x + 1/√ℓ` when none exists. Claim 3 then gives the growth bound
//!
//! ```text
//! f(x) − x > (x − 1/2) / (2α√ℓ)
//! ```
//!
//! which powers Lemma 9(a): whenever the chain sits in area `B` above the
//! fixed-point curve, its distance to ½ grows by the factor
//! `(1 + c₄/√ℓ)` — the engine of the Yellow-escape analysis. This module
//! computes `f` by bisection (valid because Claim 1 makes `g(x, ·) − y`
//! strictly increasing on the interval — itself checked numerically in
//! [`crate::claims`]) and exposes the Claim 3 margin for validation
//! experiments.

use crate::drift::DriftField;
use crate::error::AnalysisError;

/// Bisection-based solver for `f(x)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPointSolver {
    field: DriftField,
}

/// Outcome of evaluating `f` at one `x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedPoint {
    /// The argument `x`.
    pub x: f64,
    /// `f(x)`.
    pub f_x: f64,
    /// `true` when `f(x)` solves `y = g(x, y)`; `false` when the equation
    /// has no solution on the interval and `f(x) = x + 1/√ℓ` by definition.
    pub is_solution: bool,
}

impl FixedPoint {
    /// The growth increment `f(x) − x`.
    pub fn gain(&self) -> f64 {
        self.f_x - self.x
    }
}

impl FixedPointSolver {
    /// Creates a solver over the given drift field.
    pub fn new(field: DriftField) -> Self {
        FixedPointSolver { field }
    }

    /// The underlying drift field.
    pub fn field(&self) -> &DriftField {
        &self.field
    }

    /// Computes `f(x)` per Claim 2's definition.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] when `x ∉ [1/2, 1 − 1/√ℓ)`
    /// (the interval `[x, x + 1/√ℓ]` must stay inside `[0, 1]` and the
    /// claim's domain starts above ½).
    pub fn f(&self, x: f64) -> Result<FixedPoint, AnalysisError> {
        let inv_sqrt_ell = 1.0 / (self.field.ell() as f64).sqrt();
        if !(0.5..1.0 - inv_sqrt_ell).contains(&x) {
            return Err(AnalysisError::InvalidParameter {
                name: "x",
                detail: format!("need 1/2 ≤ x < 1 − 1/√ℓ, got {x}"),
            });
        }
        let lo = x;
        let hi = x + inv_sqrt_ell;
        let h = |y: f64| self.field.g(x, y) - y;
        // Claim 2's proof shows h(x) < 0 for x ≥ 1/2 + 4/n; for the edge of
        // the domain it may be ~0, which bisection handles gracefully.
        if h(hi) < 0.0 {
            // No solution on the interval: f(x) = x + 1/√ℓ.
            return Ok(FixedPoint {
                x,
                f_x: hi,
                is_solution: false,
            });
        }
        // Bisection: h is strictly increasing (Claim 1), h(lo) ≤ 0 ≤ h(hi).
        let mut a = lo;
        let mut b = hi;
        for _ in 0..200 {
            let mid = 0.5 * (a + b);
            if h(mid) < 0.0 {
                a = mid;
            } else {
                b = mid;
            }
            if b - a < 1e-14 {
                break;
            }
        }
        Ok(FixedPoint {
            x,
            f_x: 0.5 * (a + b),
            is_solution: true,
        })
    }

    /// The Claim 3 lower bound on the gain: `(x − 1/2) / (2α√ℓ)`.
    ///
    /// `alpha` is the Lemma 12 constant (the explicit construction gives
    /// `α = 9`; see `fet_stats::bounds::lemma12_favorite_wins_upper`).
    pub fn claim3_bound(&self, x: f64, alpha: f64) -> f64 {
        (x - 0.5) / (2.0 * alpha * (self.field.ell() as f64).sqrt())
    }

    /// Evaluates `f` along a grid of `x` values in `[1/2 + 4/n, 1/2 + 4δ]`
    /// and reports each point's gain and Claim 3 margin
    /// (`gain − claim3_bound ≥ 0` validates the claim).
    ///
    /// # Errors
    ///
    /// Propagates [`FixedPointSolver::f`] errors.
    pub fn sweep(
        &self,
        delta: f64,
        steps: usize,
        alpha: f64,
    ) -> Result<Vec<(FixedPoint, f64)>, AnalysisError> {
        let lo = 0.5 + 4.0 / self.field.n() as f64;
        let hi = 0.5 + 4.0 * delta;
        let steps = steps.max(2);
        let mut out = Vec::with_capacity(steps);
        for i in 0..steps {
            let x = lo + (hi - lo) * i as f64 / (steps - 1) as f64;
            let fp = self.f(x)?;
            let margin = fp.gain() - self.claim3_bound(x, alpha);
            out.push((fp, margin));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver() -> FixedPointSolver {
        FixedPointSolver::new(DriftField::new(100_000, 64).unwrap())
    }

    #[test]
    fn domain_validation() {
        let s = solver();
        assert!(s.f(0.4).is_err());
        assert!(s.f(0.95).is_err()); // 0.95 + 1/8 > 1
        assert!(s.f(0.51).is_ok());
    }

    #[test]
    fn f_lies_in_the_claimed_interval() {
        let s = solver();
        let inv_sqrt_ell = 1.0 / 8.0;
        for x in [0.5, 0.52, 0.55, 0.6, 0.7] {
            let fp = s.f(x).unwrap();
            assert!(fp.f_x >= x - 1e-12, "f({x}) = {} below x", fp.f_x);
            assert!(
                fp.f_x <= x + inv_sqrt_ell + 1e-12,
                "f({x}) = {} above x + 1/√ℓ",
                fp.f_x
            );
        }
    }

    #[test]
    fn solution_points_satisfy_the_equation() {
        let s = solver();
        for x in [0.52, 0.56, 0.6] {
            let fp = s.f(x).unwrap();
            if fp.is_solution {
                let residual = s.field().g(x, fp.f_x) - fp.f_x;
                assert!(residual.abs() < 1e-9, "residual at x={x}: {residual}");
            }
        }
    }

    #[test]
    fn claim3_bound_holds_on_a_sweep() {
        // Claim 3: f(x) − x > (x − 1/2)/(2α√ℓ) with α from Lemma 12.
        let s = solver();
        let sweep = s.sweep(0.05, 25, 9.0).unwrap();
        for (fp, margin) in sweep {
            assert!(
                margin > -1e-12,
                "Claim 3 violated at x = {}: gain {} below bound",
                fp.x,
                fp.gain()
            );
        }
    }

    #[test]
    fn gain_grows_with_distance_from_half() {
        // The fixed-point gain should increase (weakly) as x moves away
        // from ½ — the geometric-growth engine of Lemma 10.
        let s = solver();
        let g1 = s.f(0.51).unwrap().gain();
        let g2 = s.f(0.60).unwrap().gain();
        assert!(g2 >= g1 * 0.9, "gain should not collapse: {g1} vs {g2}");
    }
}
