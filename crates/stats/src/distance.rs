//! Distances between distributions and two-sample tests.
//!
//! The fidelity tower (literal sampling ≡ binomial counts ≡ aggregate
//! chain) is validated *distributionally*: this module provides the
//! Kolmogorov–Smirnov two-sample test, total-variation and KL divergences
//! on discrete PMFs, and a chi-square goodness-of-fit statistic with its
//! p-value, used by the equivalence and law tests and the E10/E14
//! experiments.

use crate::error::StatsError;

/// Two-sample Kolmogorov–Smirnov statistic between empirical samples.
///
/// Returns the KS statistic `D = sup_x |F₁(x) − F₂(x)|`.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] when either sample is empty and
/// [`StatsError::NotFinite`] on NaN values.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Result<f64, StatsError> {
    if a.is_empty() || b.is_empty() {
        return Err(StatsError::EmptyInput { what: "KS sample" });
    }
    if a.iter().chain(b).any(|v| v.is_nan()) {
        return Err(StatsError::NotFinite { name: "KS sample" });
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    Ok(d)
}

/// Critical value of the two-sample KS test at significance `alpha`:
/// `c(α)·√((n+m)/(n·m))` with `c(α) = √(−ln(α/2)/2)`.
///
/// # Panics
///
/// Panics when `alpha ∉ (0, 1)` or a sample size is zero.
pub fn ks_critical_value(n: usize, m: usize, alpha: f64) -> f64 {
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "alpha must be in (0,1), got {alpha}"
    );
    assert!(n > 0 && m > 0, "sample sizes must be positive");
    let c = (-(alpha / 2.0).ln() / 2.0).sqrt();
    c * (((n + m) as f64) / (n as f64 * m as f64)).sqrt()
}

/// `true` when the two samples pass the KS equality test at level `alpha`.
///
/// # Errors
///
/// Propagates [`ks_two_sample`] errors.
pub fn ks_same_distribution(a: &[f64], b: &[f64], alpha: f64) -> Result<bool, StatsError> {
    let d = ks_two_sample(a, b)?;
    Ok(d <= ks_critical_value(a.len(), b.len(), alpha))
}

/// Total-variation distance `½·Σ|p_i − q_i|` between two PMFs over the
/// same support.
///
/// # Errors
///
/// Returns [`StatsError::InvalidDomain`] when lengths differ.
pub fn total_variation(p: &[f64], q: &[f64]) -> Result<f64, StatsError> {
    if p.len() != q.len() {
        return Err(StatsError::InvalidDomain {
            detail: format!("PMF lengths differ: {} vs {}", p.len(), q.len()),
        });
    }
    Ok(0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>())
}

/// Kullback–Leibler divergence `Σ p_i·ln(p_i/q_i)` (nats). Terms with
/// `p_i = 0` contribute zero; a positive-`p` term against `q_i = 0`
/// yields `+∞`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidDomain`] when lengths differ.
pub fn kl_divergence(p: &[f64], q: &[f64]) -> Result<f64, StatsError> {
    if p.len() != q.len() {
        return Err(StatsError::InvalidDomain {
            detail: format!("PMF lengths differ: {} vs {}", p.len(), q.len()),
        });
    }
    let mut acc = 0.0;
    for (&a, &b) in p.iter().zip(q) {
        if a > 0.0 {
            if b <= 0.0 {
                return Ok(f64::INFINITY);
            }
            acc += a * (a / b).ln();
        }
    }
    Ok(acc)
}

/// Pearson chi-square statistic of observed counts against expected
/// probabilities; categories with `expected_prob == 0` must have zero
/// observations (else `+∞`).
///
/// # Errors
///
/// Returns [`StatsError::InvalidDomain`] when lengths differ or
/// [`StatsError::EmptyInput`] when there are no observations.
pub fn chi_square_statistic(observed: &[u64], expected_prob: &[f64]) -> Result<f64, StatsError> {
    if observed.len() != expected_prob.len() {
        return Err(StatsError::InvalidDomain {
            detail: format!(
                "lengths differ: {} vs {}",
                observed.len(),
                expected_prob.len()
            ),
        });
    }
    let total: u64 = observed.iter().sum();
    if total == 0 {
        return Err(StatsError::EmptyInput {
            what: "chi-square observations",
        });
    }
    let mut acc = 0.0;
    for (&o, &p) in observed.iter().zip(expected_prob) {
        let e = p * total as f64;
        if e <= 0.0 {
            if o > 0 {
                return Ok(f64::INFINITY);
            }
            continue;
        }
        let d = o as f64 - e;
        acc += d * d / e;
    }
    Ok(acc)
}

/// Upper tail `P(χ²_df > x)` of the chi-square distribution with `df`
/// degrees of freedom — the p-value of a [`chi_square_statistic`] over
/// `df + 1` categories. Computed as the regularized upper incomplete gamma
/// function `Q(df/2, x/2)`: its power series below `x/2 = df/2 + 1`, its
/// continued fraction (modified Lentz) above.
///
/// # Panics
///
/// Panics when `df` is zero.
pub fn chi_square_survival(df: u32, x: f64) -> f64 {
    assert!(
        df > 0,
        "a chi-square law needs at least one degree of freedom"
    );
    if x <= 0.0 {
        return 1.0;
    }
    let a = f64::from(df) / 2.0;
    let x = x / 2.0;
    let front = (a * x.ln() - x - crate::ln_gamma(a)).exp();
    if x < a + 1.0 {
        // P(a, x) = e^{-x} x^a Σ_k x^k / Γ(a + k + 1).
        let (mut term, mut sum, mut ak) = (1.0 / a, 1.0 / a, a);
        for _ in 0..1000 {
            ak += 1.0;
            term *= x / ak;
            sum += term;
            if term < sum * 1e-16 {
                break;
            }
        }
        (1.0 - front * sum).max(0.0)
    } else {
        const TINY: f64 = 1e-300;
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / TINY;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..1000 {
            let an = -f64::from(i) * (f64::from(i) - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < TINY {
                d = TINY;
            }
            c = b + an / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            let step = d * c;
            h *= step;
            if (step - 1.0).abs() < 1e-16 {
                break;
            }
        }
        front * h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedTree;
    use rand::Rng;

    #[test]
    fn ks_identical_samples_are_zero() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_two_sample(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn ks_disjoint_samples_are_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        assert!((ks_two_sample(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_accepts_same_distribution_and_rejects_shifted() {
        let mut rng = SeedTree::new(1).child("ks").rng();
        let n = 4000;
        let a: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let c: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 0.15).collect();
        assert!(
            ks_same_distribution(&a, &b, 0.001).unwrap(),
            "same law rejected"
        );
        assert!(
            !ks_same_distribution(&a, &c, 0.001).unwrap(),
            "shifted law accepted"
        );
    }

    #[test]
    fn chi_square_survival_matches_closed_forms() {
        // Two degrees of freedom: P(χ² > x) = e^{-x/2}, on both sides of
        // the series/continued-fraction switch at x = 4.
        for x in [0.1, 1.0, 3.9, 4.1, 10.0, 40.0] {
            let want = (-x / 2.0f64).exp();
            let got = chi_square_survival(2, x);
            assert!(
                (got - want).abs() < 1e-12 * want.max(1e-3),
                "df 2, x {x}: {got}"
            );
        }
        // One degree of freedom: P(χ² > z²) = 2(1 − Φ(z)).
        for z in [0.5f64, 1.0, 2.0, 3.0] {
            let want = 2.0 * (1.0 - crate::normal::normal_cdf(z));
            let got = chi_square_survival(1, z * z);
            assert!((got - want).abs() < 1e-6, "df 1, z {z}: {got} vs {want}");
        }
        // A textbook table value: the 0.1% critical value at 10 df.
        assert!((chi_square_survival(10, 29.588) - 1e-3).abs() < 1e-6);
        assert_eq!(chi_square_survival(3, 0.0), 1.0);
    }

    #[test]
    fn ks_input_validation() {
        assert!(ks_two_sample(&[], &[1.0]).is_err());
        assert!(ks_two_sample(&[1.0], &[f64::NAN]).is_err());
    }

    #[test]
    fn tv_properties() {
        let p = [0.5, 0.5];
        let q = [0.0, 1.0];
        assert!((total_variation(&p, &q).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(total_variation(&p, &p).unwrap(), 0.0);
        assert!(total_variation(&p, &[1.0]).is_err());
    }

    #[test]
    fn kl_properties() {
        let p = [0.5, 0.5];
        assert_eq!(kl_divergence(&p, &p).unwrap(), 0.0);
        assert_eq!(kl_divergence(&p, &[1.0, 0.0]).unwrap(), f64::INFINITY);
        let q = [0.25, 0.75];
        assert!(kl_divergence(&p, &q).unwrap() > 0.0);
    }

    #[test]
    fn chi_square_zero_for_perfect_fit() {
        let observed = [25u64, 25, 50];
        let probs = [0.25, 0.25, 0.5];
        assert!((chi_square_statistic(&observed, &probs).unwrap()).abs() < 1e-12);
        assert_eq!(
            chi_square_statistic(&[1, 0], &[0.0, 1.0]).unwrap(),
            f64::INFINITY
        );
    }
}
