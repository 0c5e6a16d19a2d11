//! `perfbench`: the fet workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.py` builds this package and checks its output against
//! `BENCHMARK.json`. With `--trace 0` a run prints the end-to-end metrics;
//! with `--trace 1` it prints the per-layer metrics, timed from outside
//! each layer by calling its public functions. The last stdout line is the
//! result object; the line before it is the run's provenance. A failed
//! output check makes the run exit 1. See RATIONALE.md for why each
//! workload exists and how to read each metric.

mod episodes;
mod gauntlet;
mod graph;
mod meanfield;
mod measure;
mod probe;
mod replay;
mod report;
mod serve;

use fet_sweep::Json;
use report::Report;
use std::process::ExitCode;
use std::time::Duration;

pub const WORKLOADS: [&str; 4] = [
    "meanfield-1e5",
    "graph-reg32-1e5",
    "gauntlet-noisy-1e4",
    "serve-small",
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes for the self-test; never used for measurements.
    pub smoke: bool,
    /// Makes one real output check of the workload expect a wrong value,
    /// so the self-test can see the failure path end to end.
    pub break_check: bool,
}

impl Ctx {
    /// Length of one measured phase: the whole run untraced, or half of it
    /// each for the untraced and traced phases of a `--trace 1` run.
    pub fn phase_s(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Time budget of one layer replay.
    pub fn replay_budget(&self) -> Duration {
        Duration::from_millis(if self.smoke { 20 } else { 250 })
    }
}

fn parse_args() -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        break_check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => ctx.workload = value()?,
            "--seed" => ctx.seed = value()?.parse().map_err(|_| "--seed must be a u64")?,
            "--seconds" => {
                ctx.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
            }
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                };
            }
            "--smoke" => ctx.smoke = true,
            "--break-check" => ctx.break_check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            ctx.workload
        ));
    }
    if !(ctx.seconds.is_finite() && ctx.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(ctx)
}

/// The commit the checkout came from, when it is a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.provenance("workload", Json::Str(ctx.workload.clone()));
    report.provenance("seed", Json::Int(ctx.seed as i64));
    report.provenance("trace", Json::Bool(ctx.trace));
    report.provenance("smoke", Json::Bool(ctx.smoke));
    report.provenance("git_rev", Json::Str(git_rev()));
    report.provenance(
        "isa_path",
        Json::Str(fet_stats::isa::active_path().name().to_string()),
    );
    report.provenance(
        "host_parallelism",
        Json::Int(measure::host_parallelism() as i64),
    );
    let outcome = match ctx.workload.as_str() {
        "meanfield-1e5" => meanfield::run(&ctx, &mut report),
        "graph-reg32-1e5" => graph::run(&ctx, &mut report),
        "gauntlet-noisy-1e4" => gauntlet::run(&ctx, &mut report),
        _ => serve::run(&ctx, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", ctx.workload);
        return ExitCode::from(1);
    }
    if report.emit(ctx.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
