//! # fet-bench — the experiment harness
//!
//! One binary per paper artifact, each documenting its measured shape in
//! its own module docs. This library holds the shared plumbing: output
//! locations, the `--quick` switch, and small formatting helpers.
//!
//! Run any experiment with
//!
//! ```text
//! cargo run --release -p fet-bench --bin exp_theorem1 [-- --quick]
//! ```
//!
//! Every binary prints its tables/charts to stdout and writes CSVs under
//! `target/experiments/` (override with `FET_EXPERIMENTS_DIR`).

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::path::PathBuf;

/// Root seed shared by all experiments (individual experiments derive
/// children from it; override nothing — determinism is the point).
pub const ROOT_SEED: u64 = 0x0FE7_2022;

/// Experiment-wide run configuration parsed from the command line.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Reduced sizes for smoke runs (`--quick`).
    pub quick: bool,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
}

impl Harness {
    /// Parses `std::env::args`: recognizes `--quick`; everything else is
    /// ignored (binaries are zero-configuration by design — edit the
    /// constants in the source to change a sweep).
    pub fn from_args() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        Harness {
            quick,
            out_dir: default_out_dir(),
        }
    }

    /// Picks `full` or `quick` depending on the switch.
    pub fn size<T: Copy>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Absolute path for a CSV artifact of this experiment.
    pub fn csv_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(name)
    }

    /// Prints the standard experiment banner.
    pub fn banner(&self, id: &str, paper_artifact: &str, shape: &str) {
        println!("==============================================================");
        println!("{id} — reproduces: {paper_artifact}");
        println!("expected shape: {shape}");
        if self.quick {
            println!("mode: QUICK (reduced sizes; shapes may be noisy)");
        }
        println!("==============================================================");
    }
}

/// Default output directory: `FET_EXPERIMENTS_DIR` or `target/experiments`.
pub fn default_out_dir() -> PathBuf {
    std::env::var_os("FET_EXPERIMENTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments"))
}

/// Parses a `FET_BENCH_THREADS`-style override into the shard/worker
/// count for parallel bench variants. Missing, unparsable, or zero values
/// fall back to 4 — the acceptance configuration every recorded number in
/// `docs/BENCHMARKS.md` assumes.
pub fn thread_count_from(var: Option<&str>) -> u32 {
    var.and_then(|v| v.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(4)
}

/// The starved-host warning line, if one is warranted: `Some` exactly when
/// the host offers fewer cores than a parallel variant assumes. Pure so
/// the smoke tests can pin both branches without faking core counts.
pub fn parallelism_note_text(available: usize, required: usize) -> Option<String> {
    (available < required).then(|| {
        format!(
            "note: host offers {available} core(s) but parallel variants assume {required}; \
             parallel timings below measure scheduling overhead, not speedup"
        )
    })
}

/// The host's advertised parallelism (`1` when the OS won't say).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The machine-greppable host-parallelism record: every bench/experiment
/// output carries this line so a recorded table is self-describing about
/// the host that produced it (CI greps it to decide whether the pinned
/// multi-thread acceptance tables actually ran on real cores).
pub fn host_parallelism_record(available: usize) -> String {
    format!("host_parallelism={available}")
}

/// Prints (and returns) the host-parallelism record — the probe half of
/// the self-closing multicore guard: benches call this once, so any saved
/// output states how many CPUs the measuring host exposed, and callers use
/// the returned count to auto-enable the pinned ≥4-thread tables exactly
/// when they would measure real parallelism.
pub fn report_host_parallelism() -> usize {
    let available = host_parallelism();
    eprintln!("{}", host_parallelism_record(available));
    available
}

/// Prints a one-line note when the host offers fewer cores than a
/// parallel benchmark variant assumes, so recorded numbers are
/// self-documenting: on a starved host the parallel variants measure
/// dispatch overhead, not speedup.
pub fn host_parallelism_note(required: usize) {
    if let Some(note) = parallelism_note_text(host_parallelism(), required) {
        eprintln!("{note}");
    }
}

/// The one entry point for benches with parallel variants: parses
/// `FET_BENCH_THREADS` (default 4) *and* announces the starved-host note,
/// so no bench can parse the override while forgetting the announcement.
pub fn announced_bench_threads() -> u32 {
    let threads = thread_count_from(std::env::var("FET_BENCH_THREADS").ok().as_deref());
    host_parallelism_note(threads as usize);
    threads
}

/// This process's resident set size in bytes, read from
/// `/proc/self/status` (`None` off Linux or if the field is missing) —
/// the host-truth column next to the engine's own `resident_bytes`
/// accounting in the `docs/BENCHMARKS.md` memory table.
pub fn vm_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: u64 = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// Formats an `Option<u64>` convergence time for tables.
pub fn fmt_opt_time(t: Option<u64>) -> String {
    match t {
        Some(v) => v.to_string(),
        None => "—".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_switch() {
        let h = Harness {
            quick: true,
            out_dir: PathBuf::from("x"),
        };
        assert_eq!(h.size(100, 10), 10);
        let h = Harness {
            quick: false,
            out_dir: PathBuf::from("x"),
        };
        assert_eq!(h.size(100, 10), 100);
    }

    #[test]
    fn csv_path_joins() {
        let h = Harness {
            quick: false,
            out_dir: PathBuf::from("/tmp/exp"),
        };
        assert_eq!(h.csv_path("a.csv"), PathBuf::from("/tmp/exp/a.csv"));
    }

    #[test]
    fn fmt_opt_time_variants() {
        assert_eq!(fmt_opt_time(Some(7)), "7");
        assert_eq!(fmt_opt_time(None), "—");
    }

    #[test]
    fn thread_count_parsing() {
        assert_eq!(thread_count_from(None), 4);
        assert_eq!(thread_count_from(Some("2")), 2);
        assert_eq!(thread_count_from(Some("16")), 16);
        assert_eq!(thread_count_from(Some("zero")), 4);
        assert_eq!(
            thread_count_from(Some("0")),
            4,
            "zero shards is never valid"
        );
        assert_eq!(thread_count_from(Some("")), 4);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn vm_rss_reads_a_positive_size() {
        let rss = vm_rss_bytes().expect("Linux exposes /proc/self/status");
        assert!(rss > 0);
    }

    #[test]
    fn host_parallelism_record_is_greppable() {
        assert_eq!(host_parallelism_record(4), "host_parallelism=4");
        assert!(host_parallelism() >= 1);
    }

    #[test]
    fn parallelism_note_fires_only_when_starved() {
        assert_eq!(parallelism_note_text(8, 4), None);
        assert_eq!(parallelism_note_text(4, 4), None);
        let note = parallelism_note_text(1, 4).expect("starved host warrants a note");
        assert!(note.contains("1 core(s)"), "{note}");
        assert!(note.contains("assume 4"), "{note}");
        assert!(note.contains("scheduling overhead"), "{note}");
    }
}
