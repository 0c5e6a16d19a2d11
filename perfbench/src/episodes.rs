//! The episode loop shared by the mean-field and graph workloads: build a
//! `Simulation`, run it to convergence or budget, check the outcome.

use crate::measure::{
    host_parallelism, median, round_ns_per_agent, secs, ProcStat, RoundSpans, Stopwatch,
};
use crate::report::{Loop, Op, Report};
use crate::Ctx;
use fet_sim::engine::FUSED_PARALLEL_AUTO_MIN_N;
use fet_sim::simulation::{RunReport, Simulation, Storage};
use fet_stats::rng::SeedTree;
use fet_sweep::Json;
use std::time::Instant;

/// A workload made of independent seeded episodes.
pub struct Episodes<'a> {
    pub ctx: &'a Ctx,
    pub n: u64,
    /// Seed lane of the workload's episodes.
    pub lane: &'static str,
    /// Builds episode `seed`'s simulation with the given storage.
    pub build: &'a dyn Fn(u64, Storage) -> Result<Simulation, String>,
    /// The output check of one finished episode (`Err` explains a failure).
    pub check: &'a dyn Fn(&RunReport) -> Result<(), String>,
    /// Whether the workload has a set-up of its own (`true`), of which it
    /// then adds a repetition to the loop whenever one is due; with
    /// `false`, each episode's simulation build is the set-up.
    pub setup: &'a dyn Fn(&mut Loop) -> Result<bool, String>,
}

/// One episode run under round spans.
pub struct Traced {
    pub seed: u64,
    pub spans: RoundSpans,
    pub report: RunReport,
}

/// What one measured phase produced.
#[derive(Default)]
pub struct Phase {
    pub run: Loop,
    /// Wall seconds of every episode's simulation build.
    pub builds_s: Vec<f64>,
    pub traced: Vec<Traced>,
    pub reports: Vec<RunReport>,
}

impl Episodes<'_> {
    pub fn seed(&self, k: u64) -> u64 {
        SeedTree::new(self.ctx.seed)
            .child(self.lane)
            .child_indexed("episode", k)
            .seed()
    }

    /// Runs episodes `first, first+1, …` until the phase time is spent and
    /// at least `min_ops` ran; with `traced`, every round is spanned.
    pub fn phase(
        &self,
        report: &mut Report,
        first: u64,
        min_ops: usize,
        traced: bool,
    ) -> Result<Phase, String> {
        let mut out = Phase::default();
        let start = Instant::now();
        let mut k = first;
        while out.run.ops.len() < min_ops || secs(start) < self.ctx.phase_s() {
            let seed = self.seed(k);
            k += 1;
            let built = Stopwatch::start();
            let mut sim = (self.build)(seed, Storage::Auto)?;
            let (build_s, build_cpu_s) = (built.wall_s(), built.cpu_s());
            let started = Stopwatch::start();
            let mut spans = RoundSpans::new();
            let rep = if traced {
                sim.run_observed(&mut spans)
            } else {
                sim.run()
            };
            let (run_s, cpu_s) = (started.wall_s(), started.cpu_s());
            drop(sim);
            let why = (self.check)(&rep).err();
            report.check(why.is_none(), || {
                format!("episode seed {seed}: {}", why.unwrap_or_default())
            });
            out.builds_s.push(build_s);
            if !(self.setup)(&mut out.run)? {
                out.run.setup_cpu_s.push(build_cpu_s);
            }
            out.run.push(Op {
                latency_s: build_s + run_s,
                run_s,
                cpu_s,
                episodes: 1,
                agent_rounds: self.n * rep.report.rounds_run,
            });
            if traced {
                out.traced.push(Traced {
                    seed,
                    spans,
                    report: rep.clone(),
                });
            }
            out.reports.push(rep);
        }
        out.run.wall_s = secs(start);
        Ok(out)
    }

    /// The episode part of a `--trace 1` run: an untraced phase, a traced
    /// phase, the typed-storage rerun, and the engine, process and
    /// tracing-overhead metrics. Returns the traced phase and the measured
    /// `engine.round_ns_per_agent` for the layer replays.
    pub fn trace(&self, report: &mut Report) -> Result<(Phase, f64), String> {
        let before = ProcStat::now();
        let untraced = self.phase(report, 0, 2, false)?;
        let proc = ProcStat::now().since(before);
        let traced = self.phase(report, 1_000, 1, true)?;
        let first = &traced.traced[0];
        let round_ns = round_ns_per_agent(traced.traced.iter().map(|t| &t.spans), self.n);
        let typed_ns = self.typed_round_ns(report, first, round_ns)?;

        let builds: Vec<f64> = untraced
            .builds_s
            .iter()
            .chain(&traced.builds_s)
            .copied()
            .collect();
        let rounds: Vec<f64> = untraced
            .reports
            .iter()
            .chain(&traced.reports)
            .map(|r| r.report.rounds_run as f64)
            .collect();
        let episodes = untraced.run.episodes() as f64;
        report.set("engine.build_s", median(&builds));
        report.set("engine.round_ns_per_agent", round_ns);
        report.set("engine.typed_round_ns_per_agent", typed_ns);
        report.set(
            "engine.rounds_per_episode",
            rounds.iter().sum::<f64>() / rounds.len() as f64,
        );
        report.set(
            "core.state_bytes_per_agent",
            first.report.resident_bytes as f64 / self.n as f64,
        );
        report.set("proc.minor_faults", proc.minor_faults as f64 / episodes);
        report.set("proc.sys_s", proc.sys_s / episodes);
        report.set(
            "trace.overhead_agent_rounds_per_s",
            traced.run.agent_rounds_per_s() - untraced.run.agent_rounds_per_s(),
        );
        Ok((traced, round_ns))
    }

    /// `engine.typed_round_ns_per_agent`: `first`'s seed rerun on typed
    /// storage, whose trajectory must match (storage never enters the
    /// stream), so the gap to `round_ns` is the storage layer's. A run
    /// that already resolved to typed storage is its own comparison.
    pub fn typed_round_ns(
        &self,
        report: &mut Report,
        first: &Traced,
        round_ns: f64,
    ) -> Result<f64, String> {
        if first.report.storage == Storage::Typed {
            return Ok(round_ns);
        }
        let mut typed = (self.build)(first.seed, Storage::Typed)?;
        let mut spans = RoundSpans::new();
        typed.run_observed(&mut spans);
        drop(typed);
        report.check(spans.x_t == first.spans.x_t, || {
            format!("seed {}: typed storage changed the trajectory", first.seed)
        });
        Ok(round_ns_per_agent([&spans], self.n))
    }
}

/// Threads the engine's `Auto` mode steps an `n`-agent fused round on:
/// the parallel fused round above [`FUSED_PARALLEL_AUTO_MIN_N`] on a
/// multi-core host (at most 8 shards, workers capped by
/// `FET_PARALLEL_WORKERS`), one thread otherwise. Derived here from the
/// engine's documented rule, which no public API reports.
pub fn auto_threads(n: u64) -> usize {
    let auto = host_parallelism().min(8);
    if auto > 1 && n >= FUSED_PARALLEL_AUTO_MIN_N {
        std::env::var("FET_PARALLEL_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(auto)
            .clamp(1, auto)
    } else {
        1
    }
}

/// Provenance of what a run resolved to, from its `RunReport`.
pub fn resolved(report: &mut Report, rep: &RunReport, threads: usize) {
    report.provenance("n", Json::Int(rep.n as i64));
    report.provenance("ell", Json::Int(i64::from(rep.samples_per_round / 2)));
    report.provenance("fidelity", Json::Str(format!("{:?}", rep.fidelity)));
    report.provenance("storage", Json::Str(rep.storage.to_string()));
    report.provenance("mode", Json::Str(rep.mode.to_string()));
    report.provenance("round_threads", Json::Int(threads as i64));
}
