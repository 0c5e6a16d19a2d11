//! `meanfield-1e5`: the layers `fet run --n 10000000` runs — FET at the
//! derived ℓ, binomial fidelity, `Auto` mode, bit-plane storage (what
//! `Auto` picks at 10⁷; forced here), all-wrong start — at a size whose
//! working set stays in the core's cache, seeded episodes each run to
//! convergence. Set-up is the simulation build.

use crate::episodes::{self, Episodes};
use crate::replay::{self, RoundModel};
use crate::report::Report;
use crate::Ctx;
use fet_sim::simulation::{RunReport, Simulation, Storage};
use fet_sweep::Json;

/// How the run's median cost follows the host probe (see RATIONALE.md).
const SENSITIVITY: f64 = 0.8;

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let n: u64 = if ctx.smoke { 20_000 } else { 100_000 };
    // The paper's bound on convergence time, rounded up.
    let bound = if ctx.break_check {
        0
    } else {
        (n as f64).ln().powf(2.5).ceil() as u64
    };
    let build = |seed: u64, storage: Storage| {
        Simulation::builder()
            .population(n)
            .seed(seed)
            // `Auto` would pick typed storage at this size.
            .storage(if storage == Storage::Auto {
                Storage::BitPlane
            } else {
                storage
            })
            .build()
            .map_err(|e| e.to_string())
    };
    let check = |rep: &RunReport| match rep.converged_at() {
        Some(t) if t <= bound && rep.report.final_fraction_correct == 1.0 => Ok(()),
        Some(t) => Err(format!(
            "converged at round {t} (bound {bound}) with fraction correct {}",
            rep.report.final_fraction_correct
        )),
        None => Err(format!(
            "did not converge in {} rounds",
            rep.report.rounds_run
        )),
    };
    let workload = Episodes {
        ctx,
        n,
        lane: "meanfield",
        build: &build,
        check: &check,
        setup: &|_| Ok(false),
    };
    let threads = episodes::auto_threads(n);

    if !ctx.trace {
        let phase = workload.phase(report, 0, 3, false)?;
        report.end_to_end(&phase.run, SENSITIVITY);
        episodes::resolved(report, phase.reports.last().expect("≥ 3 episodes"), threads);
        return Ok(());
    }

    let (traced, round_ns) = workload.trace(report)?;
    let first = &traced.traced[0];
    let formula = replay::attribute(
        &RoundModel {
            ell: first.report.samples_per_round / 2,
            x_t: first.spans.round_start_x(),
            noise: 0.0,
            bit_plane: first.report.storage == Storage::BitPlane,
            threads,
            graph: None,
            round_ns_per_agent: round_ns,
            budget: ctx.replay_budget(),
        },
        report,
    );
    episodes::resolved(report, &first.report, threads);
    report.provenance("attribution", Json::Str(formula));
    Ok(())
}
