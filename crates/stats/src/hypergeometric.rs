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
use rand::{Rng, RngCore};

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
/// draw becomes one word, one guide load and a forward scan of about one
/// entry. Construction amortizes after roughly `2ℓ` draws.
///
/// # Exactness
///
/// [`split_sample`] turns one word into `u = y·2⁻⁵³` with
/// `y = next_u64() >> 11`, and returns the first support point whose
/// partial sum `acc_k ≥ u`, or the last point when float round-off leaves
/// every sum below `u`. The table accumulates the same partial sums (same
/// seed PMF, same ratio recurrence, same addition order) and stores each
/// as the integer threshold `t_k = ⌊acc_k·2⁵³⌋ + 1`, the last as
/// `u64::MAX`. Scaling by 2⁵³ is exact in floating point and `y` is an
/// integer, so `acc_k ≥ y·2⁻⁵³ ⟺ ⌊acc_k·2⁵³⌋ ≥ y ⟺ y < t_k`: the first
/// `k` with `y < t_k` is the sampler's `k` for every word. Each count's
/// guide cuts the 2⁵³ values of `y` into a power-of-two number of equal
/// buckets, at least one per support point, and holds for each bucket the
/// first `k` whose threshold exceeds the bucket's start. The thresholds do
/// not decrease, so a word's scan starts at or before its answer and
/// stops on it. Degenerate counts draw nothing. For a given RNG state the
/// table and [`split_sample`] therefore return bit-identical results.
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
    /// One row per count `c ∈ 0..=2·half`.
    rows: Vec<SplitRow>,
    /// Every drawing row's thresholds `t_k`, row after row.
    thresholds: Vec<u64>,
    /// Every drawing row's guide, row after row: per bucket, the offset in
    /// the row of the first threshold above the bucket's start.
    guide: Vec<u32>,
}

/// Where one count's split lives in a [`SplitTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SplitRow {
    /// The support minimum of `Hypergeometric(2·half, c, half)`.
    min: u64,
    /// Whether the support has more than one point, so a split draws.
    draws: bool,
    /// `y >> shift` is a word's guide bucket.
    shift: u32,
    /// Index of the row's first threshold in `thresholds`.
    start: usize,
    /// Index of the row's first bucket in `guide`.
    guide: usize,
}

/// The partial sums [`split_sample`] accumulates for `ones` observed
/// ones in a sample of `2·half`, over the support from its minimum, which
/// is returned alongside.
fn partial_sums(half: u64, ones: u64) -> (u64, Vec<f64>) {
    let total = 2 * half;
    let h = Hypergeometric::new(total, ones, half).expect("ones ≤ 2·half by construction");
    let (lo, hi) = (h.support_min(), h.support_max());
    // The sequential sampler's accumulation, reified: same seed PMF, same
    // ratio recurrence, same addition order.
    let mut sums = Vec::with_capacity((hi - lo + 1) as usize);
    let mut pk = h.pmf(lo);
    let mut acc = pk;
    sums.push(acc);
    for k in lo..hi {
        let num = (ones - k) as f64 * (half - k) as f64;
        let den = (k + 1) as f64 * ((total + k + 1) - ones - half) as f64;
        pk *= num / den;
        acc += pk;
        sums.push(acc);
    }
    (lo, sums)
}

impl SplitTable {
    /// Builds the tables for half-sample size `half` (total `2·half`).
    pub fn new(half: u64) -> Self {
        let total = 2 * half;
        let mut rows = Vec::with_capacity((total + 1) as usize);
        let (mut thresholds, mut guide) = (Vec::new(), Vec::new());
        for ones in 0..=total {
            let (min, sums) = partial_sums(half, ones);
            let buckets = (sums.len() as u64).next_power_of_two();
            let row = SplitRow {
                min,
                draws: sums.len() > 1,
                shift: 53 - buckets.trailing_zeros(),
                start: thresholds.len(),
                guide: guide.len(),
            };
            rows.push(row);
            if !row.draws {
                continue;
            }
            thresholds.extend(
                sums.iter()
                    .map(|&acc| (acc * (1u64 << 53) as f64) as u64 + 1),
            );
            // The final point is taken whenever no earlier one is.
            *thresholds.last_mut().expect("a drawing row has points") = u64::MAX;
            let row_thresholds = &thresholds[row.start..];
            let mut k = 0;
            for bucket in 0..buckets {
                while row_thresholds[k] <= bucket << row.shift {
                    k += 1;
                }
                guide.push(u32::try_from(k).expect("a support offset fits u32"));
            }
        }
        // A table lives as long as the process: drop the growth slack.
        thresholds.shrink_to_fit();
        guide.shrink_to_fit();
        SplitTable {
            half,
            rows,
            thresholds,
            guide,
        }
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
    #[inline]
    pub fn split<R: RngCore + ?Sized>(&self, ones: u64, rng: &mut R) -> (u64, u64) {
        assert!(
            ones <= 2 * self.half,
            "ones {ones} exceed sample size {}",
            2 * self.half
        );
        let row = &self.rows[ones as usize];
        if !row.draws {
            return (row.min, ones - row.min);
        }
        // The word `gen::<f64>()` scales by 2⁻⁵³; see the type docs.
        let y = rng.next_u64() >> 11;
        let mut k = row.start + self.guide[row.guide + (y >> row.shift) as usize] as usize;
        // The first step as arithmetic, not a branch: a bucket rarely
        // holds two thresholds, so the loop after it rarely runs.
        k += usize::from(y >= self.thresholds[k]);
        while y >= self.thresholds[k] {
            k += 1;
        }
        let first = row.min + (k - row.start) as u64;
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

    /// The float search the integer thresholds replaced: the first partial
    /// sum `≥ u = y·2⁻⁵³`, or the last point when none is.
    fn float_split(half: u64, ones: u64, y: u64) -> u64 {
        let (lo, sums) = partial_sums(half, ones);
        let u = y as f64 * (1.0 / (1u64 << 53) as f64);
        lo + sums.partition_point(|&acc| acc < u).min(sums.len() - 1) as u64
    }

    /// Hands out at most one scripted word, and panics on a second draw.
    struct Script(Option<u64>);

    impl RngCore for Script {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0.take().expect("the script ran out of words")
        }

        fn fill_bytes(&mut self, _dest: &mut [u8]) {
            unreachable!("splits draw whole words")
        }
    }

    #[test]
    fn split_table_matches_float_search_on_every_boundary() {
        // For every count, the words whose `y` sits on either side of each
        // partial sum (`⌊acc·2⁵³⌋` and one above, i.e. `t_k − 1` and
        // `t_k`), and on every bucket start of the finest guide any row
        // of the table can have. The table, the float search and the
        // sequential sampler must agree on each word; degenerate counts
        // must draw nothing (an empty script panics).
        for half in [1u64, 2, 3, 47, 83, 300] {
            let table = SplitTable::new(half);
            let finest = (half + 1).next_power_of_two();
            let bucket_starts = (0..finest).map(|b| b << (53 - finest.trailing_zeros()));
            let bucket_starts: Vec<u64> = bucket_starts.collect();
            for ones in 0..=2 * half {
                let (lo, sums) = partial_sums(half, ones);
                if sums.len() == 1 {
                    let none = &mut Script(None);
                    assert_eq!(table.split(ones, none), (lo, ones - lo));
                    continue;
                }
                let edges = sums.iter().flat_map(|&acc| {
                    let floor = (acc * (1u64 << 53) as f64) as u64;
                    [floor, floor + 1]
                });
                let ys = edges.chain(bucket_starts.iter().copied());
                for y in ys.chain([0, (1 << 53) - 1]).filter(|&y| y < 1 << 53) {
                    // The low 11 bits never reach `y`.
                    let word = (y << 11) | 0x7ff;
                    let expected = float_split(half, ones, y);
                    let got = table.split(ones, &mut Script(Some(word)));
                    assert_eq!(
                        got,
                        (expected, ones - expected),
                        "ℓ {half}, ones {ones}, y {y}"
                    );
                    let sequential = split_sample(ones, half, &mut Script(Some(word)));
                    assert_eq!(sequential, got, "ℓ {half}, ones {ones}, y {y}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed sample size")]
    fn split_sample_rejects_overfull() {
        let mut rng = SeedTree::new(1).child("bad").rng();
        let _ = split_sample(17, 8, &mut rng);
    }
}
