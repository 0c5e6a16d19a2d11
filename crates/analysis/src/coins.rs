//! Numerical validation of the coin-competition lemmas (Appendix A.2).
//!
//! Lemmas 12–15 sandwich the probability that one of two `k`-toss coins
//! out-heads the other. Their proofs fix constants loosely (any `α ≥ 9`
//! works in Lemma 12; Lemma 14's `(ε, K)` are existential). This module
//! sweeps parameter grids, compares bound against exact probability (from
//! [`fet_stats::compare`]), and reports violations and worst margins —
//! the data behind experiment E9's table.

use fet_stats::bounds::{
    claim10_abs_difference_upper, lemma12_favorite_wins_upper, lemma13_favorite_wins_lower,
    lemma15_underdog_wins_lower,
};
use fet_stats::compare::CoinCompetition;

/// One bound-vs-exact comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundCheck {
    /// Tosses per coin.
    pub k: u64,
    /// First coin bias.
    pub p: f64,
    /// Second coin bias (`p < q`).
    pub q: f64,
    /// The exact probability the bound constrains.
    pub exact: f64,
    /// The bound's value.
    pub bound: f64,
    /// Signed margin in the valid direction (≥ 0 means the bound holds).
    pub margin: f64,
}

/// Which lemma a sweep validates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoinLemma {
    /// Lemma 12: upper bound on the favorite's win probability (small gap).
    Lemma12,
    /// Lemma 13: lower bound on the favorite's win probability.
    Lemma13,
    /// Lemma 14: lower bound on the favorite's win probability (small gap,
    /// biases near ½).
    Lemma14,
    /// Lemma 15: lower bound on the underdog's win probability.
    Lemma15,
    /// Claim 10: upper bound on `E|B_k(q) − B_k(p)|`.
    Claim10,
}

/// Validates one `(k, p, q)` triple against a lemma.
///
/// For [`CoinLemma::Lemma14`], `lambda` parameterizes the bound
/// `1/2 + λ(q−p) − P(tie)/2`; the lemma guarantees existence of a valid
/// `(ε(λ), K(λ))` region, and the sweep maps it.
///
/// # Panics
///
/// Panics when `p ≥ q` or the values are not probabilities.
pub fn check(lemma: CoinLemma, k: u64, p: f64, q: f64, lambda: f64) -> BoundCheck {
    assert!(p < q, "coin lemmas require p < q");
    let cc = CoinCompetition::new(k, p, q);
    let (exact, bound, margin) = match lemma {
        CoinLemma::Lemma12 => {
            let exact = cc.p_second_wins();
            let bound = lemma12_favorite_wins_upper(k, p, q, cc.p_tie(), 9.0);
            (exact, bound, bound - exact)
        }
        CoinLemma::Lemma13 => {
            let exact = cc.p_second_wins();
            let bound = lemma13_favorite_wins_lower(k, p, q);
            (exact, bound, exact - bound)
        }
        CoinLemma::Lemma14 => {
            let exact = cc.p_second_wins();
            let bound = 0.5 + lambda * (q - p) - cc.p_tie() / 2.0;
            (exact, bound, exact - bound)
        }
        CoinLemma::Lemma15 => {
            let exact = cc.p_first_wins();
            let bound = lemma15_underdog_wins_lower(k, p, q).max(0.0);
            (exact, bound, exact - bound)
        }
        CoinLemma::Claim10 => {
            let exact = cc.expected_abs_difference();
            let bound = claim10_abs_difference_upper(k, p, q);
            (exact, bound, bound - exact)
        }
    };
    BoundCheck {
        k,
        p,
        q,
        exact,
        bound,
        margin,
    }
}

/// Result of sweeping a lemma over a grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The lemma swept.
    pub lemma: CoinLemma,
    /// All individual checks.
    pub checks: Vec<BoundCheck>,
    /// Number with `margin < 0`.
    pub violations: usize,
    /// The smallest margin observed.
    pub worst_margin: f64,
}

/// Sweeps a lemma across `k ∈ ks` and the gap grid appropriate to it.
///
/// * Lemmas 12 and 14 take gaps `q − p ∈ (0, 1/√k]` around the given
///   center (their hypothesis region);
/// * Lemmas 13, 15 and Claim 10 take absolute gaps from `gaps`.
pub fn sweep(lemma: CoinLemma, ks: &[u64], center: f64, gaps: &[f64], lambda: f64) -> SweepReport {
    let mut checks = Vec::new();
    for &k in ks {
        let inv_sqrt_k = 1.0 / (k as f64).sqrt();
        for &gap in gaps {
            let gap = match lemma {
                CoinLemma::Lemma12 | CoinLemma::Lemma14 => gap * inv_sqrt_k,
                _ => gap,
            };
            if gap <= 0.0 {
                continue;
            }
            let p = center - gap / 2.0;
            let q = center + gap / 2.0;
            if p <= 0.0 || q >= 1.0 {
                continue;
            }
            checks.push(check(lemma, k, p, q, lambda));
        }
    }
    let violations = checks.iter().filter(|c| c.margin < 0.0).count();
    let worst_margin = checks
        .iter()
        .map(|c| c.margin)
        .fold(f64::INFINITY, f64::min);
    SweepReport {
        lemma,
        checks,
        violations,
        worst_margin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KS: [u64; 4] = [16, 64, 256, 1024];

    #[test]
    fn lemma12_holds_everywhere_on_its_domain() {
        let r = sweep(
            CoinLemma::Lemma12,
            &KS,
            0.5,
            &[0.1, 0.25, 0.5, 0.75, 1.0],
            0.0,
        );
        assert!(!r.checks.is_empty());
        assert_eq!(r.violations, 0, "worst margin {}", r.worst_margin);
    }

    #[test]
    fn lemma13_holds_for_wide_gaps() {
        let r = sweep(CoinLemma::Lemma13, &KS, 0.5, &[0.05, 0.1, 0.2, 0.4], 0.0);
        assert_eq!(r.violations, 0, "worst margin {}", r.worst_margin);
    }

    #[test]
    fn lemma14_with_lambda_six_holds_near_half_for_large_k() {
        // The paper uses λ > 6 in Lemma 7's proof; the lemma promises a
        // region (ε, K). Probe well inside it: tight gaps, large k.
        let r = sweep(
            CoinLemma::Lemma14,
            &[256, 1024, 4096],
            0.5,
            &[0.05, 0.1, 0.2],
            6.0,
        );
        assert_eq!(r.violations, 0, "worst margin {}", r.worst_margin);
    }

    #[test]
    fn lemma14_fails_for_tiny_k_documenting_the_k_constant() {
        // The K(λ) threshold is real: for very small k the λ=6 bound can
        // break. This test documents that the sweep detects it (if no
        // violation occurs even at k=4 the lemma is simply slack there —
        // either way the sweep must run).
        let r = sweep(CoinLemma::Lemma14, &[4], 0.5, &[1.0], 6.0);
        assert_eq!(r.checks.len(), 1);
        // No assertion on violation direction — just well-formedness.
        assert!(r.worst_margin.is_finite());
    }

    #[test]
    fn lemma15_holds_for_small_gaps() {
        let r = sweep(CoinLemma::Lemma15, &KS, 0.5, &[0.01, 0.02, 0.05], 0.0);
        assert_eq!(r.violations, 0, "worst margin {}", r.worst_margin);
    }

    #[test]
    fn claim10_holds() {
        let r = sweep(CoinLemma::Claim10, &KS, 0.5, &[0.02, 0.1, 0.3], 0.0);
        assert_eq!(r.violations, 0, "worst margin {}", r.worst_margin);
    }

    #[test]
    #[should_panic(expected = "require p < q")]
    fn check_rejects_unordered_biases() {
        let _ = check(CoinLemma::Lemma13, 8, 0.6, 0.4, 0.0);
    }
}
