//! The chi-square harness the law suites share: pooled cells, p-values
//! and a power check. Each suite splits its own family-wise level across
//! its tests (Bonferroni) and passes the per-test level in.

use fet::stats::distance::{chi_square_statistic, chi_square_survival};

/// Pools adjacent outcomes, left to right, until each pooled cell expects
/// at least five draws; a short remainder joins the last cell.
fn pooled(observed: &[u64], pmf: &[f64]) -> (Vec<u64>, Vec<f64>) {
    let draws = observed.iter().sum::<u64>() as f64;
    let (mut cells_o, mut cells_p) = (Vec::new(), Vec::new());
    let (mut o, mut p) = (0u64, 0.0);
    for (&count, &prob) in observed.iter().zip(pmf) {
        o += count;
        p += prob;
        if p * draws >= 5.0 {
            cells_o.push(o);
            cells_p.push(p);
            (o, p) = (0, 0.0);
        }
    }
    match (cells_o.last_mut(), cells_p.last_mut()) {
        (Some(last_o), Some(last_p)) => {
            *last_o += o;
            *last_p += p;
        }
        _ => {
            cells_o.push(o);
            cells_p.push(p);
        }
    }
    (cells_o, cells_p)
}

/// The p-value of `observed` under `pmf`, after pooling.
pub fn chi_square_p(observed: &[u64], pmf: &[f64]) -> f64 {
    let (cells, probs) = pooled(observed, pmf);
    let df = u32::try_from(cells.len() - 1).expect("at most one cell per outcome");
    let chi2 = chi_square_statistic(&cells, &probs).expect("draws were made");
    // A single pooled cell holds every draw: nothing to test.
    if df == 0 {
        1.0
    } else {
        chi_square_survival(df, chi2)
    }
}

/// Asserts that `observed` follows `pmf` at level `alpha`, and that the
/// same draws reject `shifted` at that level — the test has power.
pub fn assert_law(case: &str, observed: &[u64], pmf: &[f64], shifted: &[f64], alpha: f64) {
    let p = chi_square_p(observed, pmf);
    assert!(p > alpha, "{case}: p = {p:.2e} ≤ {alpha:.1e}");
    let p_shifted = chi_square_p(observed, shifted);
    assert!(
        p_shifted <= alpha,
        "{case}: no power, the shifted law still reads p = {p_shifted:.2e}"
    );
}

/// `p` moved by 0.05, inward when it would leave `[0, 1]`.
pub fn shifted(p: f64) -> f64 {
    if p + 0.05 <= 1.0 {
        p + 0.05
    } else {
        p - 0.05
    }
}
