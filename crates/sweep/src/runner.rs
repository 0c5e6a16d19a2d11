//! The batch sweep runner: episode jobs on the workspace's job
//! dispenser, streamed through a merge step into the manifest and live
//! aggregates.
//!
//! Pending episodes go to [`fet_core::pool::run_jobs`], whose workers
//! claim them one at a time in episode order. The dispenser decides
//! *when* an episode runs, never *what* it computes — each record is a
//! pure function of its episode index — so any worker count, any
//! interleaving, and any kill/resume history produce the same final
//! manifest bytes.
//!
//! The merge step runs on the calling thread as each record lands: it
//! journals the record (completion order — crash-safe, not canonical),
//! folds it into the order-invariant live aggregates, and emits a
//! progress line. A failed episode or journal write stops new claims.
//! When the last episode lands the manifest is rewritten canonically and
//! the report rendered from episode-index order.

use crate::aggregate::{render_report, SweepAggregates, SweepReport};
use crate::cache::WarmCache;
use crate::error::SweepError;
use crate::manifest::Manifest;
use crate::spec::{EpisodeRecord, SweepSpec};
use fet_core::pool::run_jobs;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How a sweep invocation should run.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 or 1 runs on the calling thread.
    pub workers: usize,
    /// Checkpoint path; `None` keeps records in memory only.
    pub manifest: Option<PathBuf>,
    /// Stop after this many episodes complete in *this* invocation,
    /// leaving the manifest resumable — the programmatic kill switch the
    /// resume tests drive.
    pub episode_limit: Option<usize>,
    /// Emit a live progress line to stderr.
    pub progress: bool,
}

/// What a sweep invocation produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Every known record (resumed + new), in episode-index order.
    pub records: Vec<EpisodeRecord>,
    /// Rendered artifacts, present only when the sweep is complete.
    pub report: Option<SweepReport>,
    /// Episodes executed by this invocation.
    pub completed_now: usize,
    /// Episodes recovered from the manifest instead of re-run.
    pub resumed: usize,
    /// `true` when every episode of the spec is recorded.
    pub complete: bool,
    /// Wall-clock time of this invocation.
    pub elapsed: Duration,
    /// Distinct protocol instances the warm cache ended up holding.
    pub protocols_cached: usize,
    /// Distinct graphs the warm cache ended up holding.
    pub graphs_cached: usize,
}

impl SweepOutcome {
    /// Episodes per second over this invocation.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.completed_now as f64 / secs
        } else {
            0.0
        }
    }
}

/// Runs (or resumes) a sweep.
///
/// # Errors
///
/// Spec-validation, manifest, and episode-construction failures. A failed
/// episode or journal write stops new claims and is returned once the
/// episodes already running drain (their records are dropped);
/// everything already journaled stays resumable.
pub fn run_sweep(spec: &SweepSpec, options: &SweepOptions) -> Result<SweepOutcome, SweepError> {
    let cache = WarmCache::new();
    spec.validate_with(&cache)?;
    let start = Instant::now();

    let mut manifest = match &options.manifest {
        Some(path) => Some(Manifest::open(path, spec)?),
        None => None,
    };
    let mut memory: BTreeMap<u64, EpisodeRecord> = BTreeMap::new();
    if let Some(m) = &manifest {
        for r in m.records() {
            memory.insert(r.episode, r.clone());
        }
    }
    let resumed = memory.len();

    let mut pending: Vec<u64> = (0..spec.episode_count())
        .filter(|e| !memory.contains_key(e))
        .collect();
    if let Some(limit) = options.episode_limit {
        pending.truncate(limit);
    }

    let mut aggregates = SweepAggregates::new(spec);
    for r in memory.values() {
        aggregates.record(r);
    }

    let completed_now = pending.len();
    let mut failure: Option<SweepError> = None;
    let mut last_progress = Instant::now();
    run_jobs(
        pending,
        options.workers,
        |episode| spec.run_episode(episode, &cache),
        // The merge step: journal (crash-safe, completion order), fold
        // into the live aggregates, emit progress.
        |result| {
            let record = match result {
                Ok(record) => record,
                Err(e) => {
                    failure = Some(e);
                    return false;
                }
            };
            aggregates.record(&record);
            if let Some(m) = &mut manifest {
                if let Err(e) = m.append(record.clone()) {
                    failure = Some(e);
                    return false;
                }
            }
            memory.insert(record.episode, record);
            if options.progress
                && (last_progress.elapsed() > Duration::from_millis(200)
                    || aggregates.done() == aggregates.total())
            {
                eprint!(
                    "\r{}",
                    aggregates.progress_line(start.elapsed().as_secs_f64())
                );
                last_progress = Instant::now();
            }
            true
        },
    );
    if options.progress && completed_now > 0 {
        eprintln!();
    }
    if let Some(e) = failure {
        return Err(e);
    }

    let complete = memory.len() as u64 == spec.episode_count();
    if complete {
        if let Some(m) = &mut manifest {
            // A finalized manifest resumed whole needs no rewrite.
            if !m.is_complete() || completed_now > 0 {
                m.finalize(spec)?;
            }
        }
    }
    let records: Vec<EpisodeRecord> = memory.into_values().collect();
    let report = if complete {
        Some(render_report(spec, &records))
    } else {
        None
    };
    Ok(SweepOutcome {
        records,
        report,
        completed_now,
        resumed,
        complete,
        elapsed: start.elapsed(),
        protocols_cached: cache.protocols_cached(),
        graphs_cached: cache.graphs_cached(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(workers: usize) -> SweepOptions {
        SweepOptions {
            workers,
            ..SweepOptions::default()
        }
    }

    #[test]
    fn worker_count_does_not_change_records() {
        let spec = SweepSpec::parse(
            r#"{"n": [100], "noise": [0, 0.05], "seeds": {"count": 4}, "max_rounds": 3000}"#,
        )
        .unwrap();
        let one = run_sweep(&spec, &opts(1)).unwrap();
        let four = run_sweep(&spec, &opts(4)).unwrap();
        assert!(one.complete && four.complete);
        assert_eq!(one.records, four.records);
        assert_eq!(
            one.report.unwrap().to_string(),
            four.report.unwrap().to_string(),
            "rendered artifacts are worker-count invariant"
        );
    }

    #[test]
    fn episode_limit_leaves_a_resumable_partial() {
        let spec = SweepSpec::single_cell(100, 9, 6);
        let mut partial_opts = opts(2);
        partial_opts.episode_limit = Some(2);
        let partial = run_sweep(&spec, &partial_opts).unwrap();
        assert!(!partial.complete);
        assert!(partial.report.is_none());
        assert_eq!(partial.completed_now, 2);
    }

    #[test]
    fn a_failed_episode_stops_new_claims() {
        // Validation builds every cell's protocol and graph, but only
        // episode 0's engine, so the middle cell's oversampling
        // (without-replacement m = 12 > n = 10) fails at run time.
        let spec = SweepSpec::parse(
            r#"{"n": [200, 10, 300], "ell": [6], "fidelity": "without-replacement",
                "seeds": {"count": 2}, "max_rounds": 50}"#,
        )
        .unwrap();
        let path = std::env::temp_dir().join(format!("fet-sweep-stop-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let options = SweepOptions {
            manifest: Some(path.clone()),
            ..opts(1)
        };
        let err = run_sweep(&spec, &options).unwrap_err().to_string();
        assert!(
            err.contains("without-replacement sampling needs m ≤ n"),
            "{err}"
        );
        let journaled: Vec<u64> = Manifest::open(&path, &spec)
            .unwrap()
            .records()
            .map(|r| r.episode)
            .collect();
        assert_eq!(journaled, [0, 1], "no episode after the failed one ran");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_unbuildable_cell_fails_before_the_manifest_opens() {
        let mut spec = SweepSpec::parse(
            r#"{"n": [200], "topology": {"graph": "regular", "degree": 16},
                "seeds": {"count": 2}, "max_rounds": 50}"#,
        )
        .unwrap();
        // Degree 16 on 10 vertices cannot be built.
        spec.n = vec![200, 10, 300];
        let path = std::env::temp_dir().join(format!("fet-sweep-cells-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let options = SweepOptions {
            manifest: Some(path.clone()),
            ..opts(1)
        };
        let err = run_sweep(&spec, &options).unwrap_err().to_string();
        assert!(err.contains("graph `regular`"), "{err}");
        assert!(
            !path.exists(),
            "no manifest for a spec that fails validation"
        );
    }

    #[test]
    fn warm_cache_holds_one_protocol_per_cell_ell() {
        let spec = SweepSpec::parse(r#"{"n": [100, 200], "seeds": {"count": 2}}"#).unwrap();
        let outcome = run_sweep(&spec, &opts(2)).unwrap();
        // Two populations with derived ℓ → at most two protocol builds
        // for eight episodes.
        assert!(
            outcome.protocols_cached <= 2,
            "{}",
            outcome.protocols_cached
        );
    }
}
