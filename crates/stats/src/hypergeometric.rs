//! Hypergeometric distribution: PMF and exact sampling.
//!
//! The FET protocol (Protocol 1) partitions its `2ℓ`-sample *uniformly at
//! random* into two halves `S′`, `S″`. Given that the full sample contains
//! `K` ones among `N = 2ℓ` observations, the number of ones landing in `S′`
//! is exactly `Hypergeometric(N, K, ℓ)`. Sampling that split from the count
//! alone keeps the passive-communication interface (counts only) while
//! implementing the protocol's partition step *literally*.

use crate::error::StatsError;
use crate::ln_choose;
use rand::Rng;

/// A hypergeometric distribution: draws without replacement.
///
/// Parameters: population `total`, of which `successes` are marked, drawing
/// `draws` items. The support is
/// `[max(0, draws + successes − total), min(draws, successes)]`.
///
/// # Example
///
/// ```
/// use fet_stats::hypergeometric::Hypergeometric;
///
/// let h = Hypergeometric::new(10, 4, 5).unwrap();
/// let total: f64 = (0..=4).map(|k| h.pmf(k)).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypergeometric {
    total: u64,
    successes: u64,
    draws: u64,
}

impl Hypergeometric {
    /// Creates the distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidDomain`] when `successes > total` or
    /// `draws > total`.
    pub fn new(total: u64, successes: u64, draws: u64) -> Result<Self, StatsError> {
        if successes > total {
            return Err(StatsError::InvalidDomain {
                detail: format!("successes {successes} exceed population {total}"),
            });
        }
        if draws > total {
            return Err(StatsError::InvalidDomain {
                detail: format!("draws {draws} exceed population {total}"),
            });
        }
        Ok(Hypergeometric {
            total,
            successes,
            draws,
        })
    }

    /// Population size.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of marked items.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of items drawn.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Smallest value in the support.
    pub fn support_min(&self) -> u64 {
        (self.draws + self.successes).saturating_sub(self.total)
    }

    /// Largest value in the support.
    pub fn support_max(&self) -> u64 {
        self.draws.min(self.successes)
    }

    /// Mean `draws · successes / total`.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.draws as f64 * self.successes as f64 / self.total as f64
        }
    }

    /// PMF at `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        if k < self.support_min() || k > self.support_max() {
            return 0.0;
        }
        (ln_choose(self.successes, k) + ln_choose(self.total - self.successes, self.draws - k)
            - ln_choose(self.total, self.draws))
        .exp()
    }

    /// Draws one variate by inverse-transform over the support (the support
    /// here is at most `min(draws, successes) + 1` wide — tiny for the
    /// sample sizes `ℓ = O(log n)` this crate serves).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let lo = self.support_min();
        let hi = self.support_max();
        if lo == hi {
            return lo;
        }
        let u: f64 = rng.gen();
        let mut k = lo;
        let mut pk = self.pmf(lo);
        let mut acc = pk;
        // Ratio recurrence:
        // pmf(k+1)/pmf(k) = (K−k)(n−k) / ((k+1)(N−K−n+k+1)).
        while acc < u && k < hi {
            let num = (self.successes - k) as f64 * (self.draws - k) as f64;
            // k + 1 exceeds the support minimum (draws + successes − total),
            // so this reassociated form never underflows in u64.
            let den = (k + 1) as f64 * ((self.total + k + 1) - self.successes - self.draws) as f64;
            pk *= num / den;
            acc += pk;
            k += 1;
        }
        k
    }
}

/// Splits a count of `ones` observed in a sample of size `2 * half` into the
/// number that lands in the first half under a uniformly random partition
/// into two equal halves — the FET partition step.
///
/// Returns `(count_first_half, count_second_half)`.
///
/// # Panics
///
/// Panics when `ones > 2 * half`.
///
/// # Example
///
/// ```
/// use fet_stats::hypergeometric::split_sample;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// let (a, b) = split_sample(7, 8, &mut rng);
/// assert_eq!(a + b, 7);
/// assert!(a <= 8 && b <= 8);
/// ```
pub fn split_sample<R: Rng + ?Sized>(ones: u64, half: u64, rng: &mut R) -> (u64, u64) {
    assert!(
        ones <= 2 * half,
        "ones {ones} exceed sample size {}",
        2 * half
    );
    let h = Hypergeometric::new(2 * half, ones, half)
        .expect("parameters validated by the assertion above");
    let first = h.sample(rng);
    (first, ones - first)
}

/// Precomputed inverse-transform tables for [`split_sample`] at every
/// possible observed count `0..=2·half`.
///
/// [`split_sample`] spends one `exp(ln Γ …)` evaluation per draw to seed
/// the PMF recurrence. A round of the FET kernel performs one
/// split per agent, all from the same family `Hypergeometric(2ℓ, c, ℓ)` —
/// so the table computes each count's CDF once (`O(ℓ²)` total) and every
/// draw becomes one uniform plus a short scan. Construction amortizes
/// after roughly `2ℓ` draws.
///
/// Stream-compatible with [`split_sample`]: the CDF entries are the exact
/// partial sums the sequential sampler accumulates (same seed PMF, same
/// ratio recurrence, same addition order), each draw consumes exactly one
/// uniform — and none for degenerate counts — so for a given RNG state the
/// two produce bit-identical results.
///
/// # Example
///
/// ```
/// use fet_stats::hypergeometric::{split_sample, SplitTable};
/// use rand::SeedableRng;
///
/// let table = SplitTable::new(8);
/// let mut a = rand::rngs::SmallRng::seed_from_u64(3);
/// let mut b = rand::rngs::SmallRng::seed_from_u64(3);
/// for ones in [0u64, 3, 7, 12, 16] {
///     assert_eq!(table.split(ones, &mut a), split_sample(ones, 8, &mut b));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SplitTable {
    half: u64,
    /// Per count `c`: the partial sums of `Hypergeometric(2·half, c, half)`
    /// over its support (empty for degenerate single-point supports).
    cdfs: Vec<Vec<f64>>,
    /// Per count `c`: the support minimum.
    mins: Vec<u64>,
}

impl SplitTable {
    /// Builds the tables for half-sample size `half` (total `2·half`).
    pub fn new(half: u64) -> Self {
        let total = 2 * half;
        let mut cdfs = Vec::with_capacity((total + 1) as usize);
        let mut mins = Vec::with_capacity((total + 1) as usize);
        for c in 0..=total {
            let h = Hypergeometric::new(total, c, half).expect("c ≤ 2·half by construction");
            let (lo, hi) = (h.support_min(), h.support_max());
            mins.push(lo);
            if lo == hi {
                cdfs.push(Vec::new());
                continue;
            }
            // The sequential sampler's accumulation, reified: same seed
            // PMF, same ratio recurrence, same addition order.
            let mut cdf = Vec::with_capacity((hi - lo + 1) as usize);
            let mut pk = h.pmf(lo);
            let mut acc = pk;
            cdf.push(acc);
            for k in lo..hi {
                let num = (c - k) as f64 * (half - k) as f64;
                let den = (k + 1) as f64 * ((total + k + 1) - c - half) as f64;
                pk *= num / den;
                acc += pk;
                cdf.push(acc);
            }
            cdfs.push(cdf);
        }
        SplitTable { half, cdfs, mins }
    }

    /// The half-sample size the table was built for.
    pub fn half(&self) -> u64 {
        self.half
    }

    /// Draws the FET partition split for an observed count of `ones`,
    /// exactly as [`split_sample`] would for the same RNG state.
    ///
    /// # Panics
    ///
    /// Panics when `ones > 2 * half`.
    pub fn split<R: Rng + ?Sized>(&self, ones: u64, rng: &mut R) -> (u64, u64) {
        assert!(
            ones <= 2 * self.half,
            "ones {ones} exceed sample size {}",
            2 * self.half
        );
        let lo = self.mins[ones as usize];
        let cdf = &self.cdfs[ones as usize];
        if cdf.is_empty() {
            return (lo, ones - lo);
        }
        let u: f64 = rng.gen();
        // First k with acc ≥ u — the sequential sampler's stop rule,
        // located by binary search (the partial sums are non-decreasing,
        // so `partition_point` finds exactly the index the linear scan
        // would). The final entry is taken when u exceeds every partial
        // sum (float round-off can leave the total a hair below 1).
        let offset = cdf.partition_point(|&acc| acc < u).min(cdf.len() - 1) as u64;
        let first = lo + offset;
        (first, ones - first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedTree;

    #[test]
    fn pmf_sums_to_one() {
        for (n, k, d) in [(10u64, 3u64, 4u64), (20, 10, 10), (7, 7, 3), (12, 0, 5)] {
            let h = Hypergeometric::new(n, k, d).unwrap();
            let s: f64 = (h.support_min()..=h.support_max()).map(|x| h.pmf(x)).sum();
            assert!((s - 1.0).abs() < 1e-10, "({n},{k},{d}) sums to {s}");
        }
    }

    #[test]
    fn support_bounds() {
        let h = Hypergeometric::new(10, 8, 5).unwrap();
        assert_eq!(h.support_min(), 3); // 5 + 8 − 10
        assert_eq!(h.support_max(), 5);
        assert_eq!(h.pmf(2), 0.0);
        assert_eq!(h.pmf(6), 0.0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Hypergeometric::new(5, 6, 2).is_err());
        assert!(Hypergeometric::new(5, 2, 6).is_err());
    }

    #[test]
    fn sample_within_support_and_mean_matches() {
        let h = Hypergeometric::new(40, 15, 20).unwrap();
        let mut rng = SeedTree::new(11).child("hyper").rng();
        let reps = 50_000;
        let mut sum = 0u64;
        for _ in 0..reps {
            let x = h.sample(&mut rng);
            assert!(x >= h.support_min() && x <= h.support_max());
            sum += x;
        }
        let mean = sum as f64 / reps as f64;
        assert!(
            (mean - h.mean()).abs() < 0.05,
            "mean {mean} vs {}",
            h.mean()
        );
    }

    #[test]
    fn degenerate_support_is_constant() {
        // All marked: every draw is a success.
        let h = Hypergeometric::new(6, 6, 4).unwrap();
        let mut rng = SeedTree::new(3).child("deg").rng();
        for _ in 0..10 {
            assert_eq!(h.sample(&mut rng), 4);
        }
    }

    #[test]
    fn split_sample_preserves_total_and_marginal() {
        let mut rng = SeedTree::new(17).child("split").rng();
        let half = 16u64;
        let ones = 13u64;
        let reps = 40_000;
        let mut sum_first = 0u64;
        for _ in 0..reps {
            let (a, b) = split_sample(ones, half, &mut rng);
            assert_eq!(a + b, ones);
            assert!(a <= half && b <= half);
            sum_first += a;
        }
        // Marginal mean of the first half must be ones/2.
        let mean = sum_first as f64 / reps as f64;
        assert!((mean - ones as f64 / 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn split_sample_extremes() {
        let mut rng = SeedTree::new(29).child("ext").rng();
        assert_eq!(split_sample(0, 8, &mut rng), (0, 0));
        let (a, b) = split_sample(16, 8, &mut rng);
        assert_eq!((a, b), (8, 8));
    }

    #[test]
    #[should_panic(expected = "exceed sample size")]
    fn split_sample_rejects_overfull() {
        let mut rng = SeedTree::new(1).child("bad").rng();
        let _ = split_sample(17, 8, &mut rng);
    }
}
