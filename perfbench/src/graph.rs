//! `graph-reg32-1e5`: FET on one `builders::random_regular(100000, 32)`
//! graph built from a fixed seed, through `Simulation::builder().topology(..)`
//! — random start, typed storage, `Auto` mode (one thread at this size), a
//! fixed round budget (FET does not converge at this size within hundreds
//! of rounds, so the budget sets the length).
//! Set-up is the graph build plus one simulation build, repeated through
//! the run.

use crate::episodes::{self, Episodes};
use crate::measure::{median, Stopwatch};
use crate::replay::{self, RoundModel};
use crate::report::{Loop, Report};
use crate::Ctx;
use fet_sim::init::InitialCondition;
use fet_sim::simulation::{RunReport, Simulation, Storage};
use fet_stats::rng::SeedTree;
use fet_sweep::Json;
use fet_topology::builders;
use fet_topology::graph::SharedGraph;

/// The graph's construction seed: every run steps the same graph.
const GRAPH_SEED: u64 = 2022;
const DEGREE: u32 = 32;

/// How the run's median cost follows the host probe (see RATIONALE.md).
const SENSITIVITY: f64 = 0.7;

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let (n, budget): (u32, u64) = if ctx.smoke { (4_000, 5) } else { (100_000, 10) };
    let expected_rounds = if ctx.break_check { budget + 1 } else { budget };
    let threads = episodes::auto_threads(u64::from(n));
    let build_on = |graph: &SharedGraph, seed: u64, storage: Storage| {
        Simulation::builder()
            .topology(graph.clone())
            .seed(seed)
            .init(InitialCondition::Random)
            .max_rounds(budget)
            .record_trajectory(true)
            .storage(storage)
            .build()
            .map_err(|e| e.to_string())
    };

    // One set-up: the graph build, then one simulation build on it.
    // Returns the graph, the graph build's wall seconds and the set-up's
    // CPU seconds.
    let set_up = || -> Result<(SharedGraph, f64, f64), String> {
        let start = Stopwatch::start();
        let mut rng = SeedTree::new(GRAPH_SEED).child("graph").rng();
        let built: SharedGraph = builders::random_regular(n, DEGREE, &mut rng)
            .map_err(|e| e.to_string())?
            .into();
        let graph_s = start.wall_s();
        drop(build_on(&built, 0, Storage::Auto)?);
        Ok((built, graph_s, start.cpu_s()))
    };
    let mut graph_s = Vec::new();
    let mut graph = None;
    for _ in 0..if ctx.trace { 3 } else { 1 } {
        let (built, s, _) = set_up()?;
        graph_s.push(s);
        graph = Some(built);
    }
    let graph = graph.expect("a set-up ran");

    let build = |seed: u64, storage: Storage| build_on(&graph, seed, storage);
    let check = |rep: &RunReport| {
        if rep.report.rounds_run == expected_rounds {
            Ok(())
        } else {
            Err(format!(
                "ran {} rounds, budget {expected_rounds}",
                rep.report.rounds_run
            ))
        }
    };
    let workload = Episodes {
        ctx,
        n: u64::from(n),
        lane: "graph",
        build: &build,
        check: &check,
        setup: &|run: &mut Loop| {
            if run.setup_due() {
                let (_, _, cpu_s) = set_up()?;
                run.setup_cpu_s.push(cpu_s);
            }
            Ok(true)
        },
    };

    let phase = if ctx.trace {
        let (traced, round_ns) = workload.trace(report)?;
        let first = &traced.traced[0];
        let csr = graph.graph();
        report.set("topology.build_s", median(&graph_s));
        report.set(
            "topology.csr_bytes",
            (std::mem::size_of_val(csr.csr_offsets()) + std::mem::size_of_val(csr.csr_neighbors()))
                as f64,
        );
        let formula = replay::attribute(
            &RoundModel {
                ell: first.report.samples_per_round / 2,
                x_t: first.spans.round_start_x(),
                noise: 0.0,
                bit_plane: first.report.storage == Storage::BitPlane,
                threads,
                graph: Some(&graph),
                round_ns_per_agent: round_ns,
                budget: ctx.replay_budget(),
            },
            report,
        );
        report.provenance("attribution", Json::Str(formula));
        traced
    } else {
        let phase = workload.phase(report, 0, 3, false)?;
        report.end_to_end(&phase.run, SENSITIVITY);
        phase
    };

    // Replaying an episode's seed in the same process must give the same
    // trajectory.
    let first = &phase.reports[0];
    let seed = phase.traced.first().map_or(workload.seed(0), |t| t.seed);
    let mut again = build(seed, Storage::Auto)?;
    let replayed = again.run();
    report.check(replayed.trajectory == first.trajectory, || {
        format!("seed {seed}: replay gave a different trajectory")
    });
    episodes::resolved(report, first, threads);
    report.provenance("degree", Json::Int(i64::from(DEGREE)));
    report.provenance("round_budget", Json::Int(budget as i64));
    report.provenance("graph_seed", Json::Int(GRAPH_SEED as i64));
    Ok(())
}
