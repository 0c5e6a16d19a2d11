//! Streaming and batch summary statistics: Welford moments, quantiles,
//! confidence intervals, and success-rate estimation with Wilson intervals.

use crate::error::StatsError;
use crate::normal::normal_quantile;

/// Numerically stable streaming accumulator for mean and variance
/// (Welford's algorithm), plus min/max tracking.
///
/// # Example
///
/// ```
/// use fet_stats::summary::WelfordAccumulator;
///
/// let mut acc = WelfordAccumulator::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     acc.push(x);
/// }
/// assert!((acc.mean() - 5.0).abs() < 1e-12);
/// assert!((acc.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WelfordAccumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl WelfordAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        WelfordAccumulator {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &WelfordAccumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (dividing by `n`); 0 when fewer than 1 sample.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample variance (dividing by `n − 1`); 0 when fewer than 2.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn standard_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sample_std() / (self.count as f64).sqrt()
        }
    }

    /// Minimum observed value; `+∞` for an empty accumulator.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed value; `−∞` for an empty accumulator.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Normal-approximation confidence interval for the mean at the given
    /// confidence level, e.g. `0.95`.
    ///
    /// # Panics
    ///
    /// Panics when `level ∉ (0, 1)`.
    pub fn mean_ci(&self, level: f64) -> (f64, f64) {
        let z = normal_quantile(0.5 + level / 2.0);
        let half = z * self.standard_error();
        (self.mean - half, self.mean + half)
    }
}

impl Extend<f64> for WelfordAccumulator {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Batch summary of a sample: moments plus exact order statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    count: usize,
    mean: f64,
    std: f64,
    min: f64,
    max: f64,
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty slice and
    /// [`StatsError::NotFinite`] if any value is NaN/infinite.
    pub fn from_slice(values: &[f64]) -> Result<Self, StatsError> {
        if values.is_empty() {
            return Err(StatsError::EmptyInput {
                what: "summary sample",
            });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NotFinite { name: "values" });
        }
        let mut acc = WelfordAccumulator::new();
        acc.extend(values.iter().copied());
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("values checked finite"));
        Ok(Summary {
            count: values.len(),
            mean: acc.mean(),
            std: acc.sample_std(),
            min: sorted[0],
            max: *sorted.last().expect("nonempty"),
            sorted,
        })
    }

    /// Sample size.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (unbiased).
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Minimum value.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum value.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Empirical quantile by linear interpolation, `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when `q ∉ [0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile requires q in [0,1], got {q}"
        );
        if self.count == 1 {
            return self.sorted[0];
        }
        let pos = q * (self.count - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median (0.5 quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Wilson score interval for a binomial proportion — the right interval for
/// success rates near 0 or 1 (where convergence experiments live).
///
/// Returns `(low, high)` at confidence `level`.
///
/// # Panics
///
/// Panics when `successes > trials`, `trials == 0`, or `level ∉ (0, 1)`.
///
/// # Example
///
/// ```
/// use fet_stats::summary::wilson_interval;
///
/// let (lo, hi) = wilson_interval(99, 100, 0.95);
/// assert!(lo > 0.93 && hi <= 1.0);
/// ```
pub fn wilson_interval(successes: u64, trials: u64, level: f64) -> (f64, f64) {
    assert!(trials > 0, "wilson_interval requires trials > 0");
    assert!(successes <= trials, "successes exceed trials");
    let z = normal_quantile(0.5 + level / 2.0);
    let n = trials as f64;
    let phat = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (phat + z2 / (2.0 * n)) / denom;
    let half = z * (phat * (1.0 - phat) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_constant_sequence_zero_variance() {
        let mut acc = WelfordAccumulator::new();
        acc.extend(std::iter::repeat_n(3.5, 100));
        assert_eq!(acc.mean(), 3.5);
        assert!(acc.sample_variance().abs() < 1e-12);
        assert_eq!(acc.min(), 3.5);
        assert_eq!(acc.max(), 3.5);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut seq = WelfordAccumulator::new();
        seq.extend(data.iter().copied());
        let mut a = WelfordAccumulator::new();
        let mut b = WelfordAccumulator::new();
        a.extend(data[..333].iter().copied());
        b.extend(data[333..].iter().copied());
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-10);
        assert!((a.sample_variance() - seq.sample_variance()).abs() < 1e-8);
    }

    #[test]
    fn welford_merge_with_empty_is_identity() {
        let mut a = WelfordAccumulator::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&WelfordAccumulator::new());
        assert_eq!(a, before);
        let mut e = WelfordAccumulator::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn summary_quantiles() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert!((s.quantile(0.25) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_rejects_bad_input() {
        assert!(Summary::from_slice(&[]).is_err());
        assert!(Summary::from_slice(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn summary_single_element() {
        let s = Summary::from_slice(&[7.0]).unwrap();
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.quantile(0.9), 7.0);
        assert_eq!(s.std(), 0.0);
    }

    #[test]
    fn mean_ci_shrinks_with_samples() {
        let mut small = WelfordAccumulator::new();
        let mut large = WelfordAccumulator::new();
        for i in 0..100 {
            small.push((i % 10) as f64);
        }
        for i in 0..10_000 {
            large.push((i % 10) as f64);
        }
        let (lo_s, hi_s) = small.mean_ci(0.95);
        let (lo_l, hi_l) = large.mean_ci(0.95);
        assert!(hi_l - lo_l < hi_s - lo_s);
    }

    #[test]
    fn wilson_interval_contains_point_estimate() {
        for (s, t) in [(0u64, 10u64), (5, 10), (10, 10), (999, 1000)] {
            let (lo, hi) = wilson_interval(s, t, 0.95);
            let phat = s as f64 / t as f64;
            assert!(lo <= phat + 1e-12 && phat <= hi + 1e-12, "({s},{t})");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn wilson_interval_never_degenerate_at_extremes() {
        let (lo, hi) = wilson_interval(10, 10, 0.95);
        assert!(lo < 1.0, "upper extreme must keep uncertainty");
        assert_eq!(hi, 1.0);
        let (lo0, hi0) = wilson_interval(0, 10, 0.95);
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0);
    }
}
