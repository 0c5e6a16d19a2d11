//! Numerical checks of the structural claims behind the Yellow analysis.
//!
//! * **Claim 1**: for `x ∈ [1/3, 2/3]` and `ℓ` large enough,
//!   `y ↦ g(x, y) − y` is strictly increasing on `[x, x + 1/√ℓ]`.
//! * **Claim 2**: `y = g(x, y)` has at most one solution there, and when it
//!   has none, `g(x, x + 1/√ℓ) < x + 1/√ℓ`.
//! * **Observation 2** (local CLT): for `|i − kp| ≤ √k`,
//!   `P(B_k(p) = i) ≥ β/√k` for a constant `β > 0`.
//!
//! These are checked by dense evaluation rather than proof — the point of
//! the reproduction is to confirm the *shapes* the paper relies on.

use crate::drift::DriftField;
use fet_stats::binomial::Binomial;

/// Result of a monotonicity scan (Claim 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonotonicityCheck {
    /// The `x` at which the interval `[x, x + 1/√ℓ]` was scanned.
    pub x: f64,
    /// Number of evaluation points.
    pub points: usize,
    /// `true` when `g(x, y) − y` increased at every step.
    pub strictly_increasing: bool,
    /// Minimum observed forward difference (≥ 0 confirms the claim).
    pub min_step: f64,
}

/// Scans `y ↦ g(x, y) − y` on `[x, x + 1/√ℓ]` at `points` evenly spaced
/// evaluation points (Claim 1).
///
/// # Panics
///
/// Panics when `points < 2` or the interval leaves `[0, 1]`.
pub fn check_claim1(field: &DriftField, x: f64, points: usize) -> MonotonicityCheck {
    assert!(points >= 2, "need at least 2 evaluation points");
    let hi = x + 1.0 / (field.ell() as f64).sqrt();
    assert!(
        (0.0..=1.0).contains(&x) && hi <= 1.0,
        "interval [{x}, {hi}] outside [0,1]"
    );
    let mut min_step = f64::INFINITY;
    let mut prev = field.g(x, x) - x;
    for i in 1..points {
        let y = x + (hi - x) * i as f64 / (points - 1) as f64;
        let h = field.g(x, y) - y;
        let step = h - prev;
        if step < min_step {
            min_step = step;
        }
        prev = h;
    }
    MonotonicityCheck {
        x,
        points,
        strictly_increasing: min_step > 0.0,
        min_step,
    }
}

/// Counts sign changes of `y ↦ g(x, y) − y` on the Claim 2 interval; at
/// most one crossing confirms uniqueness of the fixed point.
pub fn count_fixed_point_crossings(field: &DriftField, x: f64, points: usize) -> usize {
    let hi = x + 1.0 / (field.ell() as f64).sqrt();
    let mut crossings = 0;
    let mut prev_sign = (field.g(x, x) - x) > 0.0;
    for i in 1..points {
        let y = x + (hi - x) * i as f64 / (points - 1) as f64;
        let sign = (field.g(x, y) - y) > 0.0;
        if sign != prev_sign {
            crossings += 1;
            prev_sign = sign;
        }
    }
    crossings
}

/// Observation 2's local-CLT constant: the minimum of
/// `√k · P(B_k(p) = i)` over `|i − kp| ≤ √k`, for the given `p`.
/// The observation asserts this stays bounded away from 0 as `k` grows.
pub fn observation2_beta(k: u64, p: f64) -> f64 {
    let b = Binomial::new(k, p).expect("p validated by caller");
    let kp = k as f64 * p;
    let sqrt_k = (k as f64).sqrt();
    let lo = (kp - sqrt_k).ceil().max(0.0) as u64;
    let hi = (kp + sqrt_k).floor().min(k as f64) as u64;
    let mut min = f64::INFINITY;
    for i in lo..=hi {
        let v = sqrt_k * b.pmf(i);
        if v < min {
            min = v;
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> DriftField {
        DriftField::new(100_000, 64).unwrap()
    }

    #[test]
    fn claim1_monotone_on_the_paper_domain() {
        let f = field();
        for x in [0.34, 0.4, 0.5, 0.6, 0.66] {
            let check = check_claim1(&f, x, 200);
            assert!(
                check.strictly_increasing,
                "Claim 1 fails at x = {x}: min step {}",
                check.min_step
            );
        }
    }

    #[test]
    fn claim2_at_most_one_crossing() {
        let f = field();
        for x in [0.51, 0.55, 0.6, 0.65] {
            let c = count_fixed_point_crossings(&f, x, 400);
            assert!(c <= 1, "Claim 2 fails at x = {x}: {c} crossings");
        }
    }

    #[test]
    fn observation2_beta_bounded_away_from_zero() {
        // β should stabilize as k grows, for p across [1/3, 2/3].
        for p in [1.0 / 3.0, 0.5, 2.0 / 3.0] {
            let b_small = observation2_beta(64, p);
            let b_large = observation2_beta(4096, p);
            assert!(b_small > 0.05, "β({p}) at k=64 too small: {b_small}");
            assert!(b_large > 0.05, "β({p}) at k=4096 too small: {b_large}");
            // And the two should be the same order of magnitude.
            assert!(b_large > b_small / 3.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 evaluation points")]
    fn claim1_needs_points() {
        let f = field();
        let _ = check_claim1(&f, 0.5, 1);
    }
}
