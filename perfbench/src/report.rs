//! The run's checks, metrics and provenance, and the result line.

use crate::measure::{median, peak_rss_mib, percentile};
use crate::probe::{HostProbe, REFERENCE_S};
use fet_sweep::Json;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one; see RATIONALE.md for the per-workload reading.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("episode_cpu_s", "s"),
    ("agent_rounds_per_cpu_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer the workload
/// never calls reports 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("stats.binomial_draw_ns", "ns"),
    ("stats.lemire8_ns", "ns"),
    ("stats.sample_binomial_ns", "ns"),
    ("sources.graph_obs_ns_per_agent", "ns/agent"),
    ("fault.corrupt_ns_per_obs", "ns"),
    ("fault.corrupt_share_of_round", "ratio"),
    ("core.fet_step_ns_per_agent", "ns/agent"),
    ("core.bitplane_pack_ns_per_agent", "ns/agent"),
    ("core.state_bytes_per_agent", "B/agent"),
    ("engine.build_s", "s"),
    ("engine.round_ns_per_agent", "ns/agent"),
    ("engine.typed_round_ns_per_agent", "ns/agent"),
    ("engine.unattributed_ns_per_agent", "ns/agent"),
    ("engine.rounds_per_episode", "count"),
    ("proc.minor_faults", "count"),
    ("proc.sys_s", "s"),
    ("topology.build_s", "s"),
    ("topology.csr_bytes", "B"),
    ("sweep.spec_parse_us", "us"),
    ("sweep.episode_ms_p50", "ms"),
    ("sweep.dispatch_overhead_ratio", "ratio"),
    ("sweep.manifest_append_us", "us"),
    ("sweep.manifest_finalize_ms", "ms"),
    ("sweep.record_json_us", "us"),
    ("serve.roundtrip_ms_p50", "ms"),
    ("serve.roundtrip_ms_p90", "ms"),
    ("serve.status_ms_p50", "ms"),
    ("serve.first_record_ms", "ms"),
    ("serve.first_record_to_footer_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.non_200", "count"),
    ("trace.overhead_agent_rounds_per_s", "1/s"),
];

/// One user-level operation of a workload's measured loop: an episode
/// (mean-field, graph), a `run_sweep` call (gauntlet) or a 2:1 triple of
/// `POST /sweep` submissions (serve).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Submission to complete result, wall seconds.
    pub latency_s: f64,
    /// The wall part of `latency_s` spent running episodes (the build is
    /// excluded on mean-field and graph, where it is set-up).
    pub run_s: f64,
    /// Process CPU seconds over the same stretch as `run_s`, all threads.
    pub cpu_s: f64,
    /// Episodes the operation delivered.
    pub episodes: u64,
    /// `Σ n · rounds` over those episodes.
    pub agent_rounds: u64,
}

/// Wall seconds between two set-up repetitions taken during a loop.
const SETUP_EVERY_S: f64 = 1.5;

/// A measured loop: its operations, its set-up repetitions, the host
/// probe samples taken between operations, and its wall time.
#[derive(Debug, Default)]
pub struct Loop {
    pub ops: Vec<Op>,
    pub wall_s: f64,
    /// `VmHWM` when the first operation completed: what a process running
    /// one operation, like `fet run`, peaks at. Later operations in the
    /// same process only add allocator retention, which varies run to run.
    pub first_op_rss_mib: f64,
    /// CPU seconds of each set-up repetition, spread through the loop so
    /// that they see the same mix of host states as the operations.
    pub setup_cpu_s: Vec<f64>,
    last_setup: Option<Instant>,
    /// Sampled after every operation.
    pub probe: HostProbe,
}

impl Loop {
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
        if self.ops.len() == 1 {
            // Before the probe's first sample allocates its table.
            self.first_op_rss_mib = peak_rss_mib();
        }
        self.probe.sample();
    }

    /// Whether a set-up repetition is due: at the first call, then once
    /// every [`SETUP_EVERY_S`] seconds. A `true` answer starts the next
    /// interval.
    pub fn setup_due(&mut self) -> bool {
        let due = self
            .last_setup
            .is_none_or(|t| t.elapsed().as_secs_f64() >= SETUP_EVERY_S);
        if due {
            self.last_setup = Some(Instant::now());
        }
        due
    }

    pub fn episodes(&self) -> u64 {
        self.ops.iter().map(|o| o.episodes).sum()
    }

    /// Whole-loop wall-clock rate.
    pub fn agent_rounds_per_s(&self) -> f64 {
        self.ops.iter().map(|o| o.agent_rounds as f64).sum::<f64>() / self.wall_s
    }

    /// The timed operations: all but the first, which warms caches and
    /// the allocator (it is still checked), unless it is the only one.
    pub fn timed(&self) -> &[Op] {
        &self.ops[usize::from(self.ops.len() > 1)..]
    }
}

/// A percentile is reported only with at least this many samples beyond it.
const TAIL_SAMPLES: f64 = 10.0;

#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    provenance: Vec<(String, Json)>,
}

impl Report {
    /// Records one checked operation; a failure is also explained on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn provenance(&mut self, key: &str, value: Json) {
        self.provenance.push((key.to_string(), value));
    }

    /// Sets every end-to-end metric from the measured loop.
    ///
    /// Each operation and set-up repetition is timed in process CPU
    /// seconds, so neither another process holding a core nor the host
    /// taking a vCPU away (steal) enters it. What is left of the host's
    /// swings, the run's medians carry in proportion to the probe's median
    /// raised to the workload's `sensitivity` (see RATIONALE.md). Each
    /// timed metric is therefore a median over the timed operations,
    /// scaled by `(REFERENCE_S / probe median)^sensitivity` to CPU seconds
    /// at the reference host speed; `setup_s` is the scaled median of the
    /// set-up repetitions. Raw CPU and wall-clock views go to provenance.
    pub fn end_to_end(&mut self, run: &Loop, sensitivity: f64) {
        let ops = run.timed();
        let probe_s = median(&run.probe.samples_s);
        let scale = (REFERENCE_S / probe_s).powf(sensitivity);
        let per_episode: Vec<f64> = ops
            .iter()
            .map(|o| o.cpu_s / o.episodes.max(1) as f64)
            .collect();
        let rates: Vec<f64> = ops
            .iter()
            .map(|o| o.agent_rounds as f64 / o.cpu_s.max(1e-12))
            .collect();
        let wall_per_episode: Vec<f64> = ops
            .iter()
            .map(|o| o.run_s / o.episodes.max(1) as f64)
            .collect();
        self.set("setup_s", median(&run.setup_cpu_s) * scale);
        self.set("episode_cpu_s", median(&per_episode) * scale);
        self.set("agent_rounds_per_cpu_s", median(&rates) / scale);
        self.set("peak_rss_mib", run.first_op_rss_mib);
        let quantiles = |values: &[f64]| {
            Json::Array(
                [0.1, 0.25, 0.5, 0.75, 0.9]
                    .iter()
                    .map(|&q| Json::Float(percentile(values, q)))
                    .collect(),
            )
        };
        let (p50, p90, p90_resolved) =
            latency_ms(&ops.iter().map(|o| o.latency_s).collect::<Vec<_>>());
        self.provenance(
            "samples",
            Json::object([
                ("setup", Json::Int(run.setup_cpu_s.len() as i64)),
                ("operations", Json::Int(run.ops.len() as i64)),
                ("timed_operations", Json::Int(ops.len() as i64)),
                ("episodes", Json::Int(run.episodes() as i64)),
                ("probes", Json::Int(run.probe.samples_s.len() as i64)),
                ("sensitivity", Json::Float(sensitivity)),
                ("scale", Json::Float(scale)),
                // Unscaled, as p10, p25, p50, p75, p90.
                ("probe_s", quantiles(&run.probe.samples_s)),
                ("episode_cpu_s", quantiles(&per_episode)),
                ("agent_rounds_per_cpu_s", quantiles(&rates)),
                ("setup_cpu_s", quantiles(&run.setup_cpu_s)),
            ]),
        );
        self.provenance(
            "wall",
            Json::object([
                ("episode_s", quantiles(&wall_per_episode)),
                ("agent_rounds_per_s", Json::Float(run.agent_rounds_per_s())),
                (
                    "episodes_per_s",
                    Json::Float(run.episodes() as f64 / run.wall_s.max(1e-9)),
                ),
                ("roundtrip_ms_p50", Json::Float(p50)),
                ("roundtrip_ms_p90", Json::Float(p90)),
                // `false`: too few operations for 10 beyond the 90th
                // percentile, so roundtrip_ms_p90 repeats the median.
                ("p90_resolved", Json::Bool(p90_resolved)),
                (
                    "cpu_per_wall",
                    Json::Float(
                        ops.iter().map(|o| o.cpu_s).sum::<f64>()
                            / ops.iter().map(|o| o.run_s).sum::<f64>().max(1e-9),
                    ),
                ),
            ]),
        );
    }

    /// Prints the human-readable lines, the provenance line and, last,
    /// the result object; returns `true` when every check passed.
    pub fn emit(mut self, trace: bool) -> bool {
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        if !trace {
            self.set("ok_ratio", 1.0 - failed_ratio);
        }
        let mut members = Vec::new();
        for &(name, unit) in table {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            let value = if value.is_finite() { value } else { 0.0 };
            println!("{name:<36} {value:>16.6} {unit}");
            members.push((
                name.to_string(),
                Json::object([
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            ));
        }
        println!(
            "checks: {} attempted, {} failed, failed_ratio = {failed_ratio}",
            self.attempted, self.failed
        );
        println!("provenance: {}", Json::Object(self.provenance));
        let correct = self.failed == 0 && self.attempted > 0;
        let result = Json::object([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Object(members)),
        ]);
        println!("{result}");
        correct
    }
}

/// Wall latencies given in seconds, in ms: the median, the 90th
/// percentile when at least [`TAIL_SAMPLES`] samples lie beyond it (else
/// the median again), and whether it was resolved.
pub fn latency_ms(latency_s: &[f64]) -> (f64, f64, bool) {
    let latency: Vec<f64> = latency_s.iter().map(|s| s * 1e3).collect();
    let resolved = latency.len() as f64 * 0.1 >= TAIL_SAMPLES;
    (
        percentile(&latency, 0.5),
        percentile(&latency, if resolved { 0.9 } else { 0.5 }),
        resolved,
    )
}
