//! Deterministic multi-threaded replication.
//!
//! Every replicate derives its seed from the experiment's [`SeedTree`] by
//! index, so results are bit-identical regardless of thread count — the
//! batch layer only changes *when* replicates run, never *what* they
//! compute. [`parallel_map`] dispatches the replicates through the
//! workspace's one job dispenser ([`fet_core::pool::run_jobs`]), which
//! also runs shard rounds and sweep episodes; this module adds the
//! order-preserving result slots and the summary statistics
//! ([`BatchSummary`]).
//!
//! [`SeedTree`]: fet_stats::rng::SeedTree

use crate::convergence::ConvergenceReport;
use fet_stats::summary::{wilson_interval, Summary};

/// Maps `f` over `items` on up to `threads` worker threads, preserving
/// input order in the output.
///
/// Each result lands in its item's slot, so the output is identical for
/// every thread count ([`fet_core::pool::run_jobs`]).
///
/// # Panics
///
/// Propagates a panic of `f`.
///
/// # Example
///
/// ```
/// use fet_sim::batch::parallel_map;
///
/// let squares = parallel_map(&[1u64, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    fet_core::pool::run_jobs(
        items.iter().enumerate().collect(),
        threads,
        |(i, item)| (i, f(item)),
        |(i, r)| {
            slots[i] = Some(r);
            true
        },
    );
    slots
        .into_iter()
        .map(|r| r.expect("every item is mapped once"))
        .collect()
}

/// Aggregated outcome of a batch of convergence runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// Number of replicates.
    pub replicates: u64,
    /// Number that converged within budget.
    pub successes: u64,
    /// Wilson 95% interval for the success probability.
    pub success_ci: (f64, f64),
    /// Convergence-time statistics over *successful* replicates
    /// (`None` when none succeeded).
    pub time: Option<TimeStats>,
}

/// Convergence-time statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeStats {
    /// Mean convergence round.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
    /// Median.
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum observed.
    pub max: f64,
}

impl BatchSummary {
    /// Builds a summary from individual reports.
    ///
    /// # Panics
    ///
    /// Panics when `reports` is empty.
    pub fn from_reports(reports: &[ConvergenceReport]) -> Self {
        assert!(
            !reports.is_empty(),
            "batch summary needs at least one report"
        );
        let replicates = reports.len() as u64;
        let times: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.converged_at.map(|t| t as f64))
            .collect();
        let successes = times.len() as u64;
        let success_ci = wilson_interval(successes, replicates, 0.95);
        let time = if times.is_empty() {
            None
        } else {
            let s = Summary::from_slice(&times).expect("nonempty, finite");
            Some(TimeStats {
                mean: s.mean(),
                std: s.std(),
                median: s.median(),
                p95: s.quantile(0.95),
                max: s.max(),
            })
        };
        BatchSummary {
            replicates,
            successes,
            success_ci,
            time,
        }
    }

    /// Empirical success rate.
    pub fn success_rate(&self) -> f64 {
        self.successes as f64 / self.replicates as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = parallel_map(&items, 7, |&x| x * 2);
        for (i, &v) in doubled.iter().enumerate() {
            assert_eq!(v, 2 * i as u64);
        }
    }

    #[test]
    fn parallel_map_thread_count_does_not_change_results() {
        let items: Vec<u64> = (0..257).collect();
        let one = parallel_map(&items, 1, |&x| x.wrapping_mul(x) ^ 0xabc);
        let many = parallel_map(&items, 16, |&x| x.wrapping_mul(x) ^ 0xabc);
        assert_eq!(one, many);
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u64> = vec![];
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[5u64], 4, |&x| x + 1), vec![6]);
    }

    #[test]
    fn batch_summary_mixed_outcomes() {
        let ok = |t: u64| ConvergenceReport {
            converged_at: Some(t),
            rounds_run: t + 1,
            final_fraction_correct: 1.0,
        };
        let fail = ConvergenceReport {
            converged_at: None,
            rounds_run: 100,
            final_fraction_correct: 0.3,
        };
        let reports = vec![ok(10), ok(20), ok(30), fail];
        let s = BatchSummary::from_reports(&reports);
        assert_eq!(s.replicates, 4);
        assert_eq!(s.successes, 3);
        assert!((s.success_rate() - 0.75).abs() < 1e-12);
        let t = s.time.unwrap();
        assert!((t.mean - 20.0).abs() < 1e-12);
        assert_eq!(t.median, 20.0);
        assert_eq!(t.max, 30.0);
    }

    #[test]
    fn batch_summary_all_failures_has_no_time() {
        let fail = ConvergenceReport {
            converged_at: None,
            rounds_run: 5,
            final_fraction_correct: 0.0,
        };
        let s = BatchSummary::from_reports(&[fail, fail]);
        assert_eq!(s.successes, 0);
        assert!(s.time.is_none());
    }
}
