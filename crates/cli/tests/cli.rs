//! Integration tests for the `fet` binary.

use std::process::Command;

fn fet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fet"))
}

fn run_ok(args: &[&str]) -> String {
    let out = fet().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "`fet {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn help_lists_commands() {
    let text = run_ok(&["help"]);
    for cmd in [
        "run",
        "trace",
        "domains",
        "markov",
        "coins",
        "impossibility",
        "baselines",
        "sweep",
        "serve",
    ] {
        assert!(text.contains(cmd), "help missing `{cmd}`");
    }
}

#[test]
fn no_args_fails_with_usage() {
    let out = fet().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("commands:"));
}

#[test]
fn unknown_command_fails() {
    let out = fet().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn coins_prints_exact_probabilities() {
    let text = run_ok(&["coins", "--k", "16", "--p", "0.4", "--q", "0.6"]);
    assert!(text.contains("P(first wins)"));
    assert!(text.contains("P(second wins)"));
}

#[test]
fn coins_rejects_bad_probability() {
    let out = fet()
        .args(["coins", "--p", "1.5"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn run_converges_small_instance() {
    let text = run_ok(&["run", "--n", "300", "--seed", "7"]);
    assert!(
        text.contains("converged at round"),
        "unexpected output: {text}"
    );
}

#[test]
fn run_accepts_both_execution_modes() {
    for mode in ["auto", "fused"] {
        let text = run_ok(&["run", "--n", "300", "--seed", "7", "--mode", mode]);
        assert!(
            text.contains(&format!("mode = {mode}")),
            "mode not echoed: {text}"
        );
        assert!(text.contains("converged at round"), "{mode}: {text}");
    }
}

#[test]
fn run_accepts_fused_parallel_with_threads() {
    let text = run_ok(&[
        "run",
        "--n",
        "300",
        "--seed",
        "7",
        "--mode",
        "fused-parallel",
        "--threads",
        "2",
    ]);
    assert!(
        text.contains("mode = fused-parallel(2)"),
        "mode not echoed: {text}"
    );
    assert!(text.contains("converged at round"), "{text}");
}

#[test]
fn run_fused_parallel_replays_per_seed_and_thread_count() {
    let run = |threads: &str| {
        run_ok(&[
            "run",
            "--n",
            "400",
            "--seed",
            "11",
            "--mode",
            "fused-parallel",
            "--threads",
            threads,
        ])
    };
    assert_eq!(run("3"), run("3"), "fixed (seed, threads) must replay");
}

#[test]
fn run_rejects_a_malformed_worker_override_only_when_it_shards() {
    let run = |args: &[&str]| {
        fet()
            .args(["run", "--seed", "3"])
            .args(args)
            .env("FET_PARALLEL_WORKERS", "bogus")
            .output()
            .expect("binary runs")
    };
    let out = run(&["--n", "300", "--mode", "fused-parallel", "--threads", "2"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(
            "invalid parameter `FET_PARALLEL_WORKERS`: must be a u32 worker count, got `bogus`"
        ),
        "{stderr}"
    );
    // Runs that never shard ignore the variable: a single-threaded fused
    // run, and an asynchronous run at a size where a synchronous run
    // shards on a multi-core host (activations never shard).
    assert!(run(&["--n", "300", "--mode", "fused"]).status.success());
    let out = run(&[
        "--n",
        "2000000",
        "--scheduler",
        "async",
        "--max-rounds",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn run_rejects_a_malformed_simd_override_before_the_run() {
    let out = fet()
        .args([
            "run",
            "--n",
            "1000",
            "--seed",
            "3",
            "--storage",
            "bit-plane",
        ])
        .env("FET_SIMD", "bogus")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr
            .contains("invalid parameter `FET_SIMD`: must be one of scalar|swar|avx2, got `bogus`"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn run_rejects_threads_without_parallel_mode() {
    let out = fet()
        .args(["run", "--n", "300", "--threads", "4"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("fused-parallel"));
}

#[test]
fn run_accepts_literal_sampling_in_every_fused_configuration() {
    for extra in [
        &["--mode", "fused"][..],
        &["--mode", "fused-parallel", "--threads", "3"],
        &["--storage", "bit-plane"],
        &[
            "--storage",
            "bit-plane",
            "--mode",
            "fused-parallel",
            "--threads",
            "3",
        ],
    ] {
        let mut args = vec!["run", "--n", "300", "--fidelity", "agent", "--seed", "4"];
        args.extend_from_slice(extra);
        let text = run_ok(&args);
        assert!(text.contains("converged at round"), "{extra:?}: {text}");
    }
}

#[test]
fn run_rejects_the_retired_batched_mode() {
    let out = fet()
        .args(["run", "--n", "300", "--mode", "batched"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --mode `batched`"));
}

#[test]
fn topology_accepts_the_fused_family() {
    for mode in ["fused", "fused-parallel"] {
        let text = run_ok(&[
            "topology", "--n", "300", "--graph", "regular", "--degree", "24", "--seed", "7",
            "--mode", mode,
        ]);
        assert!(
            text.contains("converged at round"),
            "graph {mode} run failed: {text}"
        );
    }
}

#[test]
fn topology_fused_replays_per_seed() {
    let run = || {
        run_ok(&[
            "topology", "--n", "200", "--graph", "regular", "--degree", "24", "--seed", "5",
            "--mode", "fused",
        ])
    };
    assert_eq!(run(), run(), "fixed seed graph-fused runs must replay");
}

/// `fet topology` builds its graph with the sweep's builder, so at one
/// seed it steps the graph a one-cell topology sweep steps: every
/// truncated run stalls where the sweep's trajectory is after as many
/// rounds.
#[test]
fn topology_steps_the_graph_of_a_one_cell_sweep() {
    use fet_sweep::{run_sweep, SweepOptions, SweepSpec};
    let spec = SweepSpec::parse(
        r#"{"n": [400], "topology": {"graph": "regular", "degree": 8, "seed": 7},
            "seeds": {"base": 7, "count": 1}, "max_rounds": 3, "stability_window": 5,
            "record_trajectory": true}"#,
    )
    .unwrap();
    let outcome = run_sweep(&spec, &SweepOptions::default()).unwrap();
    let trajectory = outcome.records[0].trajectory.clone().unwrap();
    assert_eq!(trajectory.len(), 4, "x_0 through x_3");
    for (rounds, ones_fraction) in trajectory.into_iter().enumerate().skip(1) {
        let text = run_ok(&[
            "topology",
            "--n",
            "400",
            "--graph",
            "regular",
            "--degree",
            "8",
            "--seed",
            "7",
            "--max-rounds",
            &rounds.to_string(),
        ]);
        // The trajectory counts the one source; the CLI reports the
        // non-sources.
        let ones = (ones_fraction * 400.0).round();
        let correct = (ones - 1.0) / 399.0;
        let stalled = format!("stalled at {:.1}% correct", 100.0 * correct);
        assert!(text.contains(&stalled), "round {rounds}: {stalled}\n{text}");
    }
}

#[test]
fn topology_reports_a_diameter_bound_past_the_exact_cap() {
    // 20 000 vertices is past the exact-diameter cap: the stats line must
    // carry the double-sweep bound instead of an all-pairs BFS.
    let text = run_ok(&[
        "topology",
        "--n",
        "20000",
        "--graph",
        "regular",
        "--degree",
        "8",
        "--max-rounds",
        "1",
    ]);
    assert!(text.contains("diam≥"), "{text}");
}

#[test]
fn protocols_table_reports_fused_kernels() {
    let text = run_ok(&["protocols"]);
    assert!(text.contains("fused-kernel"), "missing column: {text}");
    assert!(
        text.contains("specialized"),
        "FET has a fused kernel: {text}"
    );
    assert!(
        text.contains("default"),
        "baselines use the default: {text}"
    );
}

#[test]
fn protocols_table_reports_packed_planes() {
    let text = run_ok(&["protocols"]);
    assert!(text.contains("packed-planes"), "missing column: {text}");
    // Opinion-only baselines pack to the bare 1-bit plane…
    let voter_line = text
        .lines()
        .find(|l| l.starts_with("voter"))
        .expect("voter row");
    assert!(
        voter_line.trim_end().ends_with(" 1b"),
        "voter packs opinion-only: {voter_line}"
    );
    // …and FET's clock column shows its packed ⌈log₂(ℓ+1)⌉-bit width
    // (ℓ = 37 at the table's reference n → 6 bits).
    assert!(
        text.contains("1b+6b"),
        "FET's clock packs below a byte: {text}"
    );
}

/// Backs the tutorial's bit-plane block (docs/TUTORIAL.md, step 2): the
/// packed representation is selectable, echoed, and trajectory-identical
/// to the typed run for the same `(seed, mode)`.
#[test]
fn run_with_bit_plane_storage_matches_typed() {
    let run = |storage: &str| {
        run_ok(&[
            "run",
            "--n",
            "300",
            "--seed",
            "7",
            "--mode",
            "fused",
            "--storage",
            storage,
        ])
    };
    let packed = run("bit-plane");
    assert!(
        packed.contains("storage = bit-plane"),
        "storage not echoed: {packed}"
    );
    let typed = run("typed");
    let tail = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("storage = "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        tail(&packed),
        tail(&typed),
        "bit-plane must replay the typed trajectory"
    );
}

/// Asynchronous rounds run on either storage and replay one stream: every
/// output line but the storage and its resident bytes matches.
#[test]
fn run_async_scheduler_matches_across_storages() {
    let run = |storage: &str| {
        run_ok(&[
            "run",
            "--n",
            "300",
            "--seed",
            "7",
            "--scheduler",
            "async",
            "--max-rounds",
            "30",
            "--storage",
            storage,
        ])
    };
    let packed = run("bit-plane");
    assert!(
        packed.contains("storage = bit-plane"),
        "storage not echoed: {packed}"
    );
    let typed = run("typed");
    assert!(typed.contains("did NOT converge"), "{typed}");
    let without_storage = |s: &str| {
        let bytes = "state bytes), ";
        s.lines()
            .map(|line| match (line.find("storage = "), line.find(bytes)) {
                (Some(from), Some(to)) => format!("{}{}", &line[..from], &line[to + bytes.len()..]),
                _ => line.to_string(),
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(without_storage(&packed), without_storage(&typed));
}

#[test]
fn run_rejects_async_with_a_mean_field_fidelity() {
    let out = fet()
        .args([
            "run",
            "--n",
            "300",
            "--scheduler",
            "async",
            "--fidelity",
            "binomial",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid parameter `scheduler`: offending axis: fidelity"),
        "{stderr}"
    );
}

#[test]
fn run_with_explicit_ell_and_zero_correct() {
    let text = run_ok(&[
        "run",
        "--n",
        "300",
        "--ell",
        "25",
        "--correct",
        "0",
        "--seed",
        "3",
    ]);
    assert!(
        text.contains("samples/round = 50"),
        "FET at ℓ = 25 observes 2ℓ: {text}"
    );
    assert!(text.contains("converged at round"));
}

#[test]
fn domains_renders_legend() {
    let text = run_ok(&["domains", "--n", "10000", "--steps", "24"]);
    assert!(text.contains("legend:"));
    assert!(text.contains("Yellow"));
}

#[test]
fn markov_small_instance() {
    let text = run_ok(&["markov", "--n", "10", "--ell", "4"]);
    assert!(text.contains("exact E[t_con]"));
}

#[test]
fn impossibility_reports_frozen() {
    let text = run_ok(&["impossibility", "--n", "64"]);
    assert!(text.contains("frozen for 64 rounds"));
    assert!(text.contains("never escaped"));
}

#[test]
fn trace_lists_domain_visits() {
    let text = run_ok(&["trace", "--n", "5000", "--seed", "2"]);
    assert!(text.contains("domain visits:"));
    assert!(
        text.contains("Cyan1"),
        "all-wrong start must pass through Cyan1: {text}"
    );
}

#[test]
fn flag_without_value_fails() {
    let out = fet().args(["run", "--n"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));
}

/// The usage text answers a malformed command line only; a well-formed
/// command that fails while it runs prints its one error line.
#[test]
fn usage_follows_argument_errors_only() {
    for args in [
        &["frobnicate"][..],
        &["run", "--n"],
        &["run", "--n", "many"],
        &["run", "--mode", "warp"],
    ] {
        let out = fet().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error: ") && stderr.contains("commands:"),
            "{args:?}: {stderr}"
        );
    }
    let out = fet()
        .args(["run", "--scheduler", "async", "--fidelity", "binomial"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: invalid parameter `scheduler`: offending axis: fidelity")
            && stderr.lines().count() == 1,
        "{stderr}"
    );
}

// ---------------------------------------------------------------- sweep

/// Writes a spec file into a fresh per-test temp directory.
fn sweep_dir(name: &str, spec: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fet-cli-sweep-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("spec.json"), spec).expect("spec written");
    dir
}

const SMALL_SPEC: &str =
    r#"{"n": [100], "noise": [0, 0.05], "seeds": {"base": 3, "count": 3}, "max_rounds": 3000}"#;

#[test]
fn sweep_runs_a_grid_and_prints_the_report() {
    let dir = sweep_dir("grid", SMALL_SPEC);
    let spec = dir.join("spec.json");
    let text = run_ok(&["sweep", spec.to_str().unwrap(), "--workers", "2", "--quiet"]);
    assert!(text.contains("6 episodes"), "{text}");
    assert!(text.contains("mean T"), "per-cell table expected: {text}");
    assert!(
        text.contains("convergence times"),
        "histogram expected: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_manifests_are_worker_count_invariant() {
    let dir = sweep_dir("workers", SMALL_SPEC);
    let spec = dir.join("spec.json");
    let m1 = dir.join("w1.jsonl");
    let m4 = dir.join("w4.jsonl");
    run_ok(&[
        "sweep",
        spec.to_str().unwrap(),
        "--workers",
        "1",
        "--quiet",
        "--manifest",
        m1.to_str().unwrap(),
    ]);
    run_ok(&[
        "sweep",
        spec.to_str().unwrap(),
        "--workers",
        "4",
        "--quiet",
        "--manifest",
        m4.to_str().unwrap(),
    ]);
    let b1 = std::fs::read(&m1).unwrap();
    let b4 = std::fs::read(&m4).unwrap();
    assert!(!b1.is_empty());
    assert_eq!(b1, b4, "finalized manifests must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_resumes_a_limited_run_to_the_same_bytes() {
    let dir = sweep_dir("resume", SMALL_SPEC);
    let spec = dir.join("spec.json");
    let interrupted = dir.join("interrupted.jsonl");
    let reference = dir.join("reference.jsonl");
    run_ok(&[
        "sweep",
        spec.to_str().unwrap(),
        "--workers",
        "2",
        "--quiet",
        "--manifest",
        reference.to_str().unwrap(),
    ]);
    // First pass stops after two episodes; the second finishes the sweep.
    let partial = run_ok(&[
        "sweep",
        spec.to_str().unwrap(),
        "--workers",
        "2",
        "--quiet",
        "--limit",
        "2",
        "--manifest",
        interrupted.to_str().unwrap(),
    ]);
    assert!(partial.contains("partial: 2 of 6"), "{partial}");
    let resumed = run_ok(&[
        "sweep",
        spec.to_str().unwrap(),
        "--workers",
        "2",
        "--quiet",
        "--manifest",
        interrupted.to_str().unwrap(),
    ]);
    assert!(resumed.contains("2 resumed, 4 run now"), "{resumed}");
    assert_eq!(
        std::fs::read(&interrupted).unwrap(),
        std::fs::read(&reference).unwrap(),
        "kill-then-resume must reproduce the uninterrupted manifest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_rejects_malformed_specs_with_context() {
    for (spec, needle) in [
        (r#"{"n": [100,}"#, "JSON"),
        (r#"{"noise": [0.1]}"#, "`n` is required"),
        (r#"{"n": [100], "mode": "warp"}"#, "unknown `mode`"),
        (r#"{"n": [100], "frobnicate": 1}"#, "unknown field"),
    ] {
        let dir = sweep_dir("malformed", spec);
        let path = dir.join("spec.json");
        let out = fet()
            .args(["sweep", path.to_str().unwrap(), "--quiet"])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "spec `{spec}` must fail");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(stderr.contains(needle), "spec `{spec}`: {stderr}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// -------------------------------------------------------------- gauntlet

/// The tutorial's gauntlet spec (docs/TUTORIAL.md, step 4) — keep the two
/// in sync: this test is what backs that command block.
const SMALL_GAUNTLET_SPEC: &str = r#"{"protocols": ["fet", "voter"], "n": [150],
 "noise": [0, 0.02], "switch_period": [300], "switches": 2, "corruption": [0.1],
 "seeds": {"base": 7, "count": 2}, "max_rounds": 4000, "stability_window": 3}"#;

#[test]
fn gauntlet_runs_a_small_suite_and_prints_the_report() {
    let dir = sweep_dir("gauntlet", SMALL_GAUNTLET_SPEC);
    let spec = dir.join("spec.json");
    let text = run_ok(&[
        "gauntlet",
        spec.to_str().unwrap(),
        "--workers",
        "2",
        "--quiet",
    ]);
    assert!(
        text.contains("gauntlet over {fet, voter}"),
        "header expected: {text}"
    );
    assert!(
        text.contains("recovery"),
        "per-switch recovery report expected: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_validates_flags() {
    let dir = sweep_dir("flags", SMALL_SPEC);
    let path = dir.join("spec.json");
    for args in [
        vec!["sweep"],
        vec!["sweep", path.to_str().unwrap(), "--workers", "0"],
        vec!["sweep", path.to_str().unwrap(), "--workers", "many"],
        vec!["sweep", path.to_str().unwrap(), "--limit", "few"],
        vec!["sweep", "/nonexistent/spec.json"],
    ] {
        let out = fet().args(&args).output().expect("binary runs");
        assert!(!out.status.success(), "`fet {}` must fail", args.join(" "));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
