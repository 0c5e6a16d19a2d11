//! Fixed-width histograms for dwell-time and convergence-time distributions.

use crate::error::StatsError;

/// A histogram over `[lo, hi)` with equally wide bins, plus underflow and
/// overflow counters.
///
/// # Example
///
/// ```
/// use fet_stats::histogram::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
/// for x in [0.5, 1.5, 2.5, 2.6, 11.0] {
///     h.record(x);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.bin_count(1), 2); // 2.5 and 2.6 fall in [2, 4)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidDomain`] when `lo ≥ hi` or `bins == 0`,
    /// and [`StatsError::NotFinite`] when a bound is NaN/∞.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if !lo.is_finite() || !hi.is_finite() {
            return Err(StatsError::NotFinite {
                name: "histogram bounds",
            });
        }
        if lo >= hi {
            return Err(StatsError::InvalidDomain {
                detail: format!("histogram requires lo < hi, got [{lo}, {hi})"),
            });
        }
        if bins == 0 {
            return Err(StatsError::InvalidDomain {
                detail: "histogram requires ≥ 1 bin".into(),
            });
        }
        Ok(Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        })
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total number of recorded observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Count below `lo`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count at or above `hi`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Inclusive-exclusive bounds of bin `i`.
    pub fn bin_bounds(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Iterator over `(bin_low, bin_high, count)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        (0..self.bins.len()).map(move |i| {
            let (a, b) = self.bin_bounds(i);
            (a, b, self.bins[i])
        })
    }

    /// Empirical fraction of mass at or below `x` (counting underflow,
    /// attributing each bin wholly when its upper edge is ≤ `x`).
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut acc = self.underflow;
        for (lo, hi, c) in self.iter() {
            if hi <= x {
                acc += c;
            } else if lo <= x {
                // Partial bin: attribute proportionally.
                let frac = (x - lo) / (hi - lo);
                acc += (c as f64 * frac) as u64;
            }
        }
        if x >= self.hi {
            acc += self.overflow;
        }
        acc as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_correct_bins() {
        let mut h = Histogram::new(0.0, 100.0, 10).unwrap();
        h.record(0.0);
        h.record(9.999);
        h.record(10.0);
        h.record(99.9);
        assert_eq!(h.bin_count(0), 2);
        assert_eq!(h.bin_count(1), 1);
        assert_eq!(h.bin_count(9), 1);
    }

    #[test]
    fn under_and_overflow_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.record(-0.5);
        h.record(1.0);
        h.record(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn invalid_construction_rejected() {
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(2.0, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 2).is_err());
    }

    #[test]
    fn bin_bounds_partition_range() {
        let h = Histogram::new(-2.0, 2.0, 8).unwrap();
        let mut edge = -2.0;
        for i in 0..8 {
            let (lo, hi) = h.bin_bounds(i);
            assert!((lo - edge).abs() < 1e-12);
            edge = hi;
        }
        assert!((edge - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_at_endpoints() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.cdf_at(-1.0), 0.0);
        assert!((h.cdf_at(10.0) - 1.0).abs() < 1e-12);
        assert!((h.cdf_at(5.0) - 0.5).abs() < 1e-12);
    }
}
