//! `gauntlet-noisy-1e4`: `run_sweep` on a gauntlet spec — n = 10⁴,
//! observation noise δ = 10⁻⁶, a trend switch every 20 rounds (2 of them),
//! 10% state corruption at each switch window's midpoint, 60 rounds, a few
//! seeds, at most `nproc` workers, checkpointed to a manifest in a
//! temporary directory. Set-up is each sweep's `SweepSpec::parse`, whose
//! validation dry-builds the first episode's simulation.

use crate::measure::{
    host_parallelism, median, round_ns_per_agent, secs, ProcStat, RoundSpans, Stopwatch,
};
use crate::replay::{self, RoundModel};
use crate::report::{Loop, Op, Report};
use crate::Ctx;
use fet_sim::fault::FaultEventKind;
use fet_stats::rng::SeedTree;
use fet_sweep::Json;
use fet_sweep::{run_sweep, EpisodeRecord, Manifest, SweepOptions, SweepSpec, WarmCache};
use std::path::PathBuf;
use std::time::Instant;

const NOISE: f64 = 1e-6;
const SWITCHES: u64 = 2;

struct Gauntlet<'a> {
    ctx: &'a Ctx,
    n: u64,
    seeds: u64,
    workers: usize,
    tmp: PathBuf,
}

impl Gauntlet<'_> {
    /// The spec of sweep `k`: fresh episode seeds per sweep.
    fn spec_text(&self, k: u64) -> String {
        let base = SeedTree::new(self.ctx.seed)
            .child("gauntlet")
            .child_indexed("sweep", k)
            .seed()
            % (1 << 40);
        format!(
            r#"{{"n": [{}], "noise": [{NOISE}], "switch_period": [20], "switches": {SWITCHES}, "corruption": [0.1], "max_rounds": 60, "seeds": {{"base": {base}, "count": {}}}}}"#,
            self.n, self.seeds
        )
    }

    /// Sweep `k`'s spec, with the wall and CPU seconds its parse took.
    fn parse(&self, k: u64) -> Result<(SweepSpec, f64, f64), String> {
        let text = self.spec_text(k);
        let start = Stopwatch::start();
        let spec = SweepSpec::parse(&text).map_err(|e| e.to_string())?;
        Ok((spec, start.wall_s(), start.cpu_s()))
    }

    /// Checks one episode's recovery records: one per scheduled event, and
    /// every trend switch adapted to.
    fn check_recovery(&self, report: &mut Report, record: &EpisodeRecord) {
        let scheduled = 2 * SWITCHES as usize + usize::from(self.ctx.break_check);
        let switches_adapted = record
            .recovery
            .iter()
            .filter(|r| r.kind == FaultEventKind::TrendSwitch)
            .all(|r| r.adapted_at.is_some());
        report.check(
            record.recovery.len() == scheduled && switches_adapted,
            || {
                format!(
                    "episode seed {}: {} recovery records (scheduled {scheduled}), \
                     every switch adapted: {switches_adapted}",
                    record.seed,
                    record.recovery.len()
                )
            },
        );
    }

    /// Runs `run_sweep` on fresh specs until the phase time is spent.
    fn sweeps(
        &self,
        report: &mut Report,
        first: u64,
        min_ops: usize,
    ) -> Result<(Loop, Vec<EpisodeRecord>), String> {
        let mut run = Loop::default();
        let mut records = Vec::new();
        let start = Instant::now();
        let mut k = first;
        while run.ops.len() < min_ops || secs(start) < self.ctx.phase_s() {
            let path = self.tmp.join(format!("sweep-{k}.jsonl"));
            let began = Stopwatch::start();
            let (spec, _, parse_cpu_s) = self.parse(k)?;
            run.setup_cpu_s.push(parse_cpu_s);
            k += 1;
            let outcome = run_sweep(
                &spec,
                &SweepOptions {
                    workers: self.workers,
                    manifest: Some(path.clone()),
                    episode_limit: None,
                    progress: false,
                },
            )
            .map_err(|e| e.to_string())?;
            let (latency_s, cpu_s) = (began.wall_s(), began.cpu_s());
            let manifest = Manifest::open(&path, &spec).map_err(|e| e.to_string())?;
            report.check(
                outcome.complete
                    && manifest.is_complete()
                    && manifest.len() as u64 == spec.episode_count(),
                || {
                    format!(
                        "manifest {}: complete {}, {} of {} records",
                        path.display(),
                        manifest.is_complete(),
                        manifest.len(),
                        spec.episode_count()
                    )
                },
            );
            for record in manifest.records() {
                self.check_recovery(report, record);
            }
            drop(manifest);
            std::fs::remove_file(&path).map_err(|e| e.to_string())?;
            run.push(Op {
                latency_s,
                run_s: latency_s,
                cpu_s,
                episodes: outcome.completed_now as u64,
                agent_rounds: outcome
                    .records
                    .iter()
                    .map(|r| r.cell.n * r.report.rounds_run)
                    .sum(),
            });
            records = outcome.records;
        }
        run.wall_s = secs(start);
        Ok((run, records))
    }
}

/// How the run's median cost follows the host probe (see RATIONALE.md).
const SENSITIVITY: f64 = 0.4;

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let tmp = PathBuf::from(".perfbench_tmp").join(format!("gauntlet-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
    let g = Gauntlet {
        ctx,
        n: if ctx.smoke { 2_000 } else { 10_000 },
        seeds: if ctx.smoke { 2 } else { 4 },
        workers: host_parallelism().min(2),
        tmp: tmp.clone(),
    };
    let outcome = measure(&g, report);
    let cleanup = std::fs::remove_dir_all(&tmp);
    if let Ok(mut parent) = std::fs::read_dir(".perfbench_tmp") {
        if parent.next().is_none() {
            let _ = std::fs::remove_dir(".perfbench_tmp");
        }
    }
    outcome?;
    cleanup.map_err(|e| e.to_string())
}

fn measure(g: &Gauntlet<'_>, report: &mut Report) -> Result<(), String> {
    let parse_s: Vec<f64> = (0..25)
        .map(|k| g.parse(1_000_000 + k).map(|(_, wall_s, _)| wall_s))
        .collect::<Result<_, _>>()?;
    let (spec, _, _) = g.parse(0)?;
    let cell = spec.episode(0).0;
    report.provenance("n", Json::Int(g.n as i64));
    report.provenance("ell", Json::Int(i64::from(spec.cell_ell(&cell))));
    report.provenance("noise", Json::Float(NOISE));
    report.provenance("seeds_per_sweep", Json::Int(g.seeds as i64));
    report.provenance("workers", Json::Int(g.workers as i64));
    report.provenance("mode", Json::Str(spec.mode.to_string()));
    let sim = spec
        .build_simulation(0, &WarmCache::new())
        .map_err(|e| e.to_string())?;
    report.provenance("storage", Json::Str(sim.storage().to_string()));
    drop(sim);

    if !g.ctx.trace {
        let (run, _) = g.sweeps(report, 0, 2)?;
        report.end_to_end(&run, SENSITIVITY);
        return Ok(());
    }

    let before = ProcStat::now();
    let (untraced, records) = g.sweeps(report, 0, 1)?;
    let proc = ProcStat::now().since(before);

    // Traced: the same episodes, one span per build, episode and round,
    // on as many threads as the sweep has workers.
    let cache = WarmCache::new();
    let start = Instant::now();
    let mut traced = Vec::new();
    let mut k = 1_000;
    while traced.is_empty() || secs(start) < g.ctx.phase_s() {
        let (spec, _, _) = g.parse(k)?;
        k += 1;
        let runs: Vec<Result<TracedEpisode, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..g.workers)
                .map(|w| {
                    let (spec, cache) = (&spec, &cache);
                    scope.spawn(move || {
                        (w as u64..spec.episode_count())
                            .step_by(g.workers)
                            .map(|e| trace_episode(spec, cache, e))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("episode thread panicked"))
                .collect()
        });
        for r in runs {
            let r = r?;
            g.check_recovery(report, &r.record);
            traced.push(r);
        }
    }
    let traced_wall = secs(start);

    let builds: Vec<f64> = traced.iter().map(|t| t.build_s).collect();
    let episode_s: Vec<f64> = traced.iter().map(|t| t.build_s + t.run_s).collect();
    let rounds: usize = traced.iter().map(|t| t.spans.rounds_s.len()).sum();
    let round_ns = round_ns_per_agent(traced.iter().map(|t| &t.spans), g.n);
    let traced_rate = (rounds as u64 * g.n) as f64 / traced_wall;
    let episodes = untraced.episodes() as f64;
    let sweep_wall = median(&untraced.ops.iter().map(|o| o.latency_s).collect::<Vec<_>>());
    let ideal = median(&episode_s) * g.seeds as f64 / g.workers as f64;

    report.set("engine.build_s", median(&builds));
    report.set("engine.round_ns_per_agent", round_ns);
    report.set("engine.typed_round_ns_per_agent", round_ns);
    report.set(
        "engine.rounds_per_episode",
        rounds as f64 / traced.len() as f64,
    );
    report.set(
        "core.state_bytes_per_agent",
        traced[0].resident_bytes as f64 / g.n as f64,
    );
    report.set("proc.minor_faults", proc.minor_faults as f64 / episodes);
    report.set("proc.sys_s", proc.sys_s / episodes);
    report.set(
        "trace.overhead_agent_rounds_per_s",
        traced_rate - untraced.agent_rounds_per_s(),
    );
    report.set("sweep.spec_parse_us", median(&parse_s) * 1e6);
    report.set("sweep.episode_ms_p50", median(&episode_s) * 1e3);
    report.set("sweep.dispatch_overhead_ratio", sweep_wall / ideal);
    manifest_replay(g, &spec, &records, report)?;
    report.set("sweep.record_json_us", record_json_us(&records));

    let formula = replay::attribute(
        &RoundModel {
            ell: spec.cell_ell(&cell),
            x_t: traced[0].spans.round_start_x(),
            noise: NOISE,
            bit_plane: false,
            threads: 1,
            graph: None,
            round_ns_per_agent: round_ns,
            budget: g.ctx.replay_budget(),
        },
        report,
    );
    report.provenance("attribution", Json::Str(formula));
    Ok(())
}

/// One episode as `run_episode` runs it, with spans.
struct TracedEpisode {
    build_s: f64,
    run_s: f64,
    spans: RoundSpans,
    record: EpisodeRecord,
    resident_bytes: u64,
}

fn trace_episode(
    spec: &SweepSpec,
    cache: &WarmCache,
    episode: u64,
) -> Result<TracedEpisode, String> {
    let (cell, seed) = spec.episode(episode);
    let start = Instant::now();
    let mut sim = spec
        .build_simulation(episode, cache)
        .map_err(|e| e.to_string())?;
    let build_s = secs(start);
    let started = Instant::now();
    let mut spans = RoundSpans::new();
    let rep = sim.run_observed(&mut spans);
    let run_s = secs(started);
    let record = EpisodeRecord {
        episode,
        seed,
        shards: spec.shards(),
        cell,
        report: rep.report,
        trajectory: rep.trajectory,
        recovery: rep.recovery,
    };
    Ok(TracedEpisode {
        build_s,
        run_s,
        spans,
        record,
        resident_bytes: rep.resident_bytes,
    })
}

/// `sweep.manifest_append_us` and `sweep.manifest_finalize_ms`: a sweep's
/// records journaled into fresh manifests of a spec with as many episodes,
/// then finalized.
fn manifest_replay(
    g: &Gauntlet<'_>,
    spec: &SweepSpec,
    records: &[EpisodeRecord],
    report: &mut Report,
) -> Result<(), String> {
    let mut append_s = Vec::new();
    let mut finalize_s = Vec::new();
    for r in 0..if g.ctx.smoke { 3 } else { 20 } {
        let path = g.tmp.join(format!("replay-{r}.jsonl"));
        let mut manifest = Manifest::open(&path, spec).map_err(|e| e.to_string())?;
        for record in records {
            let start = Instant::now();
            manifest.append(record.clone()).map_err(|e| e.to_string())?;
            append_s.push(secs(start));
        }
        let start = Instant::now();
        manifest.finalize(spec).map_err(|e| e.to_string())?;
        finalize_s.push(secs(start));
        drop(manifest);
        std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    }
    report.set("sweep.manifest_append_us", median(&append_s) * 1e6);
    report.set("sweep.manifest_finalize_ms", median(&finalize_s) * 1e3);
    Ok(())
}

/// Microseconds to render one record as its canonical JSON line.
pub fn record_json_us(records: &[EpisodeRecord]) -> f64 {
    let reps = 500;
    let start = Instant::now();
    for _ in 0..reps {
        for record in records {
            std::hint::black_box(record.to_json().to_string());
        }
    }
    secs(start) * 1e6 / (reps * records.len().max(1)) as f64
}
