//! Checkpoint/resume properties: a sweep killed after `k` of `N`
//! episodes and resumed must reproduce the uninterrupted run exactly —
//! manifest bytes and rendered aggregates — whatever the worker counts
//! on either side of the kill.

use fet_sweep::runner::{run_sweep, SweepOptions};
use fet_sweep::spec::SweepSpec;
use proptest::{prop_assert, prop_assert_eq, proptest};
use std::path::PathBuf;

fn temp_manifest(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fet-sweep-resume-{tag}-{}", std::process::id()));
    p
}

fn opts(workers: usize, manifest: Option<PathBuf>, limit: Option<usize>) -> SweepOptions {
    SweepOptions {
        workers,
        manifest,
        episode_limit: limit,
        progress: false,
    }
}

/// A cheap two-cell grid: 6 episodes of n = 60. `max_rounds` is tight —
/// non-convergence is a valid, deterministic outcome, and the byte-diff
/// property is about reproducibility, not convergence.
fn small_spec(seed_base: u64) -> SweepSpec {
    SweepSpec::parse(&format!(
        r#"{{"n": [60], "noise": [0, 0.02], "seeds": {{"base": {seed_base}, "count": 3}},
            "max_rounds": 400}}"#
    ))
    .unwrap()
}

proptest! {
    #[test]
    fn kill_then_resume_reproduces_the_uninterrupted_manifest(
        kill_after in 1usize..6,
        workers_before in 1usize..5,
        workers_after in 1usize..5,
        seed_base in 0u64..1_000,
        torn in proptest::any::<bool>(),
    ) {
        let spec = small_spec(seed_base);
        let reference_path = temp_manifest(&format!("ref-{seed_base}"));
        let interrupted_path = temp_manifest(&format!("int-{seed_base}-{kill_after}"));
        let _ = std::fs::remove_file(&reference_path);
        let _ = std::fs::remove_file(&interrupted_path);

        // Uninterrupted reference.
        let reference = run_sweep(&spec, &opts(workers_after, Some(reference_path.clone()), None))
            .unwrap();
        prop_assert!(reference.complete);

        // Kill after `kill_after` episodes, then resume (possibly with a
        // different worker count).
        let partial = run_sweep(
            &spec,
            &opts(workers_before, Some(interrupted_path.clone()), Some(kill_after)),
        )
        .unwrap();
        prop_assert!(!partial.complete);
        prop_assert_eq!(partial.completed_now, kill_after);
        // Optionally tear the final journal line, emulating a kill that
        // lands mid-write rather than between episodes: the damaged
        // record is dropped and its episode rerun.
        let mut lost = 0usize;
        if torn {
            let bytes = std::fs::read(&interrupted_path).unwrap();
            std::fs::write(&interrupted_path, &bytes[..bytes.len() - 7]).unwrap();
            lost = 1;
        }
        let resumed = run_sweep(&spec, &opts(workers_after, Some(interrupted_path.clone()), None))
            .unwrap();
        prop_assert!(resumed.complete);
        prop_assert_eq!(resumed.resumed, kill_after - lost);
        prop_assert_eq!(resumed.completed_now, 6 - kill_after + lost);

        let reference_bytes = std::fs::read(&reference_path).unwrap();
        let resumed_bytes = std::fs::read(&interrupted_path).unwrap();
        prop_assert_eq!(resumed_bytes, reference_bytes);
        prop_assert_eq!(
            resumed.report.unwrap().to_string(),
            reference.report.unwrap().to_string()
        );

        let _ = std::fs::remove_file(&reference_path);
        let _ = std::fs::remove_file(&interrupted_path);
    }
}

/// Stream identity with the replicate tier: a single-cell sweep runs the
/// exact per-seed simulations `fet_sim::batch::parallel_map` dispatches
/// when both sit on the shared pool — same seeds, same reports, for any
/// thread count.
#[test]
fn single_cell_sweep_matches_parallel_map_streams() {
    use fet_sim::batch::parallel_map;
    use fet_sim::engine::ExecutionMode;
    use fet_sim::simulation::Simulation;

    let base = 40u64;
    let replicates = 6u64;
    let spec = SweepSpec::single_cell(90, base, replicates);
    let outcome = run_sweep(&spec, &opts(3, None, None)).unwrap();
    assert!(outcome.complete);

    let simulate = |&i: &u64| {
        Simulation::builder()
            .population(90)
            .seed(base + i)
            .execution_mode(ExecutionMode::Fused)
            .build()
            .unwrap()
            .run()
            .report
    };
    let indices: Vec<u64> = (0..replicates).collect();
    for threads in [1usize, 4] {
        let reports = parallel_map(&indices, threads, simulate);
        assert_eq!(reports.len(), outcome.records.len());
        for (record, report) in outcome.records.iter().zip(&reports) {
            assert_eq!(
                &record.report, report,
                "episode {} (seed {}) diverged at {threads} threads",
                record.episode, record.seed
            );
        }
    }
}

/// Resuming a finalized manifest is a no-op that still yields the report.
#[test]
fn resuming_a_complete_manifest_runs_nothing() {
    let spec = small_spec(77);
    let path = temp_manifest("complete");
    let _ = std::fs::remove_file(&path);
    let first = run_sweep(&spec, &opts(2, Some(path.clone()), None)).unwrap();
    let before = std::fs::read(&path).unwrap();
    let second = run_sweep(&spec, &opts(4, Some(path.clone()), None)).unwrap();
    assert_eq!(second.completed_now, 0);
    assert_eq!(second.resumed, 6);
    assert!(second.complete);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "no rewrite on pure resume"
    );
    assert_eq!(
        second.report.unwrap().to_string(),
        first.report.unwrap().to_string()
    );
    let _ = std::fs::remove_file(&path);
}

/// A manifest refuses to resume under a different spec.
#[test]
fn resume_under_a_different_spec_is_refused() {
    let path = temp_manifest("mismatch");
    let _ = std::fs::remove_file(&path);
    run_sweep(&small_spec(1), &opts(1, Some(path.clone()), Some(2))).unwrap();
    let err = run_sweep(&small_spec(2), &opts(1, Some(path.clone()), None)).unwrap_err();
    assert!(err.to_string().contains("different spec"), "{err}");
    let _ = std::fs::remove_file(&path);
}
