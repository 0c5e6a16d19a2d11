//! Streaming aggregates and the final sweep report.
//!
//! Two tiers with different determinism obligations:
//!
//! * **Incremental** ([`SweepAggregates`]) — updated as episodes complete,
//!   in completion order, to drive the progress line. Only order-invariant
//!   accumulators live here (integer counts and histogram bins), so the
//!   numbers shown are exact regardless of scheduling — but nothing
//!   order-sensitive (running means, variances) is computed on this path.
//! * **Final** ([`render_report`]) — computed once from the full record
//!   set in episode-index order. Float reductions (means, quantiles) are
//!   deterministic because the reduction order is pinned by the spec's
//!   enumeration, never by which worker finished first.

use crate::spec::{EpisodeRecord, SweepSpec};
use fet_plot::heatmap::Heatmap;
use fet_plot::table::{fmt_float, Table};
use fet_sim::simulation::default_max_rounds;
use fet_stats::histogram::Histogram;
use fet_stats::summary::{wilson_interval, Summary};
use std::fmt::Write as _;

/// Order-invariant live aggregates for the progress line.
pub struct SweepAggregates {
    total: u64,
    done: u64,
    converged: u64,
    /// Convergence-time histogram across every converged episode.
    times: Histogram,
}

impl SweepAggregates {
    /// Fresh aggregates for a spec; the histogram spans `[0, max_rounds)`
    /// of the largest cell.
    pub fn new(spec: &SweepSpec) -> SweepAggregates {
        let horizon = spec.max_rounds.unwrap_or_else(|| {
            spec.n
                .iter()
                .map(|&n| default_max_rounds(n))
                .max()
                .unwrap_or(1)
        });
        let times = Histogram::new(0.0, horizon.max(1) as f64, 32)
            .expect("positive finite histogram bounds");
        SweepAggregates {
            total: spec.episode_count(),
            done: 0,
            converged: 0,
            times,
        }
    }

    /// Folds one completed episode in (any order).
    pub fn record(&mut self, record: &EpisodeRecord) {
        self.done += 1;
        if let Some(t) = record.report.converged_at {
            self.converged += 1;
            self.times.record(t as f64);
        }
    }

    /// Episodes folded so far.
    pub fn done(&self) -> u64 {
        self.done
    }

    /// Total episodes in the sweep.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Converged episodes so far.
    pub fn converged(&self) -> u64 {
        self.converged
    }

    /// The live convergence-time histogram.
    pub fn times(&self) -> &Histogram {
        &self.times
    }

    /// One-line progress summary: `episodes 37/60 | converged 35 | 12.3 ep/s`.
    pub fn progress_line(&self, elapsed_secs: f64) -> String {
        let rate = if elapsed_secs > 0.0 {
            self.done as f64 / elapsed_secs
        } else {
            0.0
        };
        format!(
            "episodes {}/{} | converged {} | {} ep/s",
            self.done,
            self.total,
            self.converged,
            fmt_float(rate)
        )
    }
}

/// The rendered artifacts of a finished sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-cell convergence table.
    pub table: String,
    /// `noise × n` mean-convergence-time heatmap, when the grid is 2-D.
    pub heatmap: Option<String>,
    /// Text histogram of convergence times across all episodes.
    pub histogram: String,
}

impl std::fmt::Display for SweepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)?;
        if let Some(h) = &self.heatmap {
            write!(f, "\n{h}")?;
        }
        write!(f, "\n{}", self.histogram)
    }
}

/// Renders the final report from records in episode-index order.
///
/// `records` must be sorted by episode index and contain each episode at
/// most once (the manifest guarantees both); determinism of every float
/// in the output follows from that ordering.
pub fn render_report(spec: &SweepSpec, records: &[EpisodeRecord]) -> SweepReport {
    let cells = spec.cell_count();
    // Partition records by cell, preserving episode order within a cell.
    let mut by_cell: Vec<Vec<&EpisodeRecord>> = vec![Vec::new(); cells as usize];
    for r in records {
        let cell = r.episode / spec.seeds.count;
        if cell < cells {
            by_cell[cell as usize].push(r);
        }
    }

    // The robustness axes get a column when the spec has them, so every
    // row names its whole cell.
    let mut header = vec!["n", "noise", "ell"];
    if !spec.switch_period.is_empty() {
        header.push("period");
    }
    if !spec.corruption.is_empty() {
        header.push("corruption");
    }
    header.extend([
        "episodes",
        "converged",
        "rate 95% CI",
        "mean T",
        "median T",
        "p95 T",
    ]);
    let mut table = Table::new(header.iter().map(|s| s.to_string()).collect());
    let mut mean_by_cell: Vec<f64> = Vec::with_capacity(cells as usize);
    for (cell_index, cell_records) in by_cell.iter().enumerate() {
        let cell = spec.cell(cell_index as u64);
        let ell = spec.cell_ell(&cell);
        let episodes = cell_records.len() as u64;
        let times: Vec<f64> = cell_records
            .iter()
            .filter_map(|r| r.report.converged_at.map(|t| t as f64))
            .collect();
        let converged = times.len() as u64;
        let (lo, hi) = wilson_interval(converged, episodes.max(1), 0.95);
        let (mean, median, p95) = match Summary::from_slice(&times) {
            Ok(s) => (s.mean(), s.median(), s.quantile(0.95)),
            Err(_) => (f64::NAN, f64::NAN, f64::NAN),
        };
        mean_by_cell.push(mean);
        let mut row = vec![cell.n.to_string(), fmt_float(cell.noise), ell.to_string()];
        row.extend(cell.switch_period.map(|p| p.to_string()));
        row.extend(cell.corruption.map(fmt_float));
        row.extend([
            episodes.to_string(),
            format!("{converged}/{episodes}"),
            format!("[{}, {}]", fmt_float(lo), fmt_float(hi)),
            fmt_cell(mean),
            fmt_cell(median),
            fmt_cell(p95),
        ]);
        table.add_row(row);
    }

    let heatmap = heatmap_pixels(spec, &mean_by_cell).map(|pixels| {
        let mut hm = Heatmap::new(pixels);
        hm.title("mean convergence rounds (rows: noise ↑, cols: n →)");
        hm.render_flipped()
    });

    // Histogram over all episodes, rebuilt from the ordered records so
    // the artifact never depends on the live accumulator's history.
    let mut aggregates = SweepAggregates::new(spec);
    for r in records {
        aggregates.record(r);
    }
    let mut histogram = String::new();
    let _ = writeln!(
        histogram,
        "convergence times ({} of {} episodes converged):",
        aggregates.converged(),
        aggregates.done()
    );
    let peak = aggregates
        .times()
        .iter()
        .map(|(_, _, c)| c)
        .max()
        .unwrap_or(0)
        .max(1);
    for (lo, hi, count) in aggregates.times().iter() {
        if count == 0 {
            continue;
        }
        let bar = "#".repeat(((count * 40).div_ceil(peak)) as usize);
        let _ = writeln!(
            histogram,
            "  [{:>8}, {:>8}) {:>6}  {bar}",
            fmt_float(lo),
            fmt_float(hi),
            count
        );
    }
    if aggregates.times().overflow() > 0 {
        let _ = writeln!(histogram, "  overflow {:>6}", aggregates.times().overflow());
    }

    SweepReport {
        table: table.render(),
        heatmap,
        histogram,
    }
}

/// The `noise × n` heatmap's pixels (rows: noise, columns: n), or `None`
/// unless n and noise are the only axes with more than one point: a third
/// such axis would alias several cells into one pixel. With every other
/// axis at one point, pixel `(noise_i, n_i)` is cell
/// `n_i·|noise| + noise_i`; a cell without converged episodes shows 0.
fn heatmap_pixels(spec: &SweepSpec, mean_by_cell: &[f64]) -> Option<Vec<Vec<f64>>> {
    let plane = spec.n.len() > 1
        && spec.noise.len() > 1
        && spec.ell.len() <= 1
        && spec.switch_period.len() <= 1
        && spec.corruption.len() <= 1;
    plane.then(|| {
        (0..spec.noise.len())
            .map(|noise_i| {
                (0..spec.n.len())
                    .map(|n_i| {
                        let v = mean_by_cell[n_i * spec.noise.len() + noise_i];
                        if v.is_nan() {
                            0.0
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect()
    })
}

fn fmt_cell(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        fmt_float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::WarmCache;

    fn run_all(spec: &SweepSpec) -> Vec<EpisodeRecord> {
        let cache = WarmCache::new();
        (0..spec.episode_count())
            .map(|i| spec.run_episode(i, &cache).unwrap())
            .collect()
    }

    #[test]
    fn progress_counts_are_order_invariant() {
        let spec = SweepSpec::single_cell(100, 3, 6);
        let records = run_all(&spec);
        let mut forward = SweepAggregates::new(&spec);
        let mut backward = SweepAggregates::new(&spec);
        for r in &records {
            forward.record(r);
        }
        for r in records.iter().rev() {
            backward.record(r);
        }
        assert_eq!(forward.done(), backward.done());
        assert_eq!(forward.converged(), backward.converged());
        let f: Vec<_> = forward.times().iter().collect();
        let b: Vec<_> = backward.times().iter().collect();
        assert_eq!(f, b, "histogram bins are order-invariant");
    }

    #[test]
    fn report_is_deterministic_text() {
        let spec = crate::spec::SweepSpec::parse(
            r#"{"n": [80, 120], "noise": [0, 0.1], "seeds": {"count": 2}, "max_rounds": 3000}"#,
        )
        .unwrap();
        let records = run_all(&spec);
        let a = render_report(&spec, &records).to_string();
        let b = render_report(&spec, &records).to_string();
        assert_eq!(a, b);
        assert!(a.contains("episodes"), "{a}");
        assert!(
            a.contains("mean convergence rounds"),
            "2-D grid renders a heatmap\n{a}"
        );
    }

    #[test]
    fn robustness_axes_label_every_row_and_suppress_the_heatmap() {
        let spec = SweepSpec::parse(
            r#"{"n": [60, 80], "noise": [0, 0.1], "switch_period": [50, 100], "switches": 1,
                "seeds": {"count": 1}, "max_rounds": 400}"#,
        )
        .unwrap();
        let report = render_report(&spec, &run_all(&spec));
        let mut labels: Vec<Vec<&str>> = report
            .table
            .lines()
            .skip(2)
            .map(|row| row.split_whitespace().take(4).collect())
            .collect();
        assert_eq!(labels.len(), 8);
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 8, "rows share a label\n{}", report.table);
        assert!(report.table.starts_with("n "), "{}", report.table);
        assert!(report.table.lines().next().unwrap().contains("period"));
        assert!(report.heatmap.is_none(), "{report}");
    }

    #[test]
    fn heatmap_pixels_are_their_cells_means() {
        let spec = SweepSpec::parse(
            r#"{"n": [60, 80], "noise": [0, 0.1], "switch_period": [50], "corruption": [0.1],
                "switches": 1, "seeds": {"count": 1}, "max_rounds": 400}"#,
        )
        .unwrap();
        // Each cell's "mean" is its own index.
        let means: Vec<f64> = (0..spec.cell_count()).map(|c| c as f64).collect();
        let pixels = heatmap_pixels(&spec, &means).expect("an n × noise plane");
        for (noise_i, row) in pixels.iter().enumerate() {
            for (n_i, &pixel) in row.iter().enumerate() {
                let cell = spec.cell(pixel as u64);
                assert_eq!(
                    (cell.n, cell.noise),
                    (spec.n[n_i], spec.noise[noise_i]),
                    "pixel ({noise_i}, {n_i})"
                );
            }
        }
    }

    #[test]
    fn one_dimensional_grid_skips_the_heatmap() {
        let spec = SweepSpec::single_cell(100, 0, 2);
        let records = run_all(&spec);
        let report = render_report(&spec, &records);
        assert!(report.heatmap.is_none());
    }
}
