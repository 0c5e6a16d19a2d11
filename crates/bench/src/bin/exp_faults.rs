//! E15 — **fault extensions**: noise, sleep, and environment changes.
//!
//! The paper's related work studies dissemination under message corruption
//! (Feinerman et al. 2017; Boczkowski et al. 2018 prove *limits* on noisy
//! rumor spreading); its model lets the adversary redefine the correct bit.
//! This experiment measures FET under all three perturbations. Measured
//! shapes:
//!
//! * **observation noise is fatal to strict consensus**: the absorbing
//!   state relies on exact unanimity ties, so any i.i.d. bit-flip noise
//!   makes consensus metastable — the population oscillates between the
//!   two consensi, and the *time-average* correctness decays toward 1/2 as
//!   noise grows, with the bias set by the escape-rate asymmetry the source
//!   provides (≈ ℓ/n vs noise ≈ ℓ·p). This echoes the noise-impossibility
//!   line of work the paper cites;
//! * **sleep has a threshold** (partial asynchrony): FET converges at 20%
//!   sleep, rarely at 30%, and not at all at 50% or 80%, where time-average
//!   correctness sits at 1/2 (docs/BENCHMARKS.md, "Sleepy-agent
//!   threshold"). A reached consensus stays absorbing;
//! * **source retargeting** is recovered from in ordinary FET time —
//!   self-stabilization covers environment changes.

use fet_bench::{fmt_opt_time, Harness, ROOT_SEED};
use fet_core::opinion::Opinion;
use fet_plot::csv::CsvWriter;
use fet_plot::table::Table;
use fet_sim::fault::FaultPlan;
use fet_sim::simulation::Simulation;
use fet_stats::rng::SeedTree;
use fet_stats::summary::WelfordAccumulator;

/// The experiment's root seed.
const SEED: u64 = ROOT_SEED ^ 0xF0;
/// Consecutive all-correct rounds that confirm convergence.
const WINDOW: u64 = 5;

/// Strict-criterion convergence statistics under a fault plan: FET at the
/// default `ℓ`, binomial fidelity, all-wrong start.
fn measure_strict(n: u64, max_rounds: u64, fault: FaultPlan, reps: u64) -> (f64, Option<f64>) {
    let mut acc = WelfordAccumulator::new();
    let mut successes = 0u64;
    for rep in 0..reps {
        let report = Simulation::builder()
            .population(n)
            .fault(fault)
            .seed(SeedTree::new(SEED).child_indexed("rep", rep).seed())
            .max_rounds(max_rounds)
            .stability_window(WINDOW)
            .build()
            .expect("valid")
            .run();
        if let Some(t) = report.converged_at() {
            successes += 1;
            acc.push(t as f64);
        }
    }
    let mean = if acc.count() > 0 {
        Some(acc.mean())
    } else {
        None
    };
    (successes as f64 / reps as f64, mean)
}

/// Long-run time-average fraction-correct under a fault plan.
fn measure_time_average(n: u64, fault: FaultPlan, rounds: u64) -> f64 {
    let mut sim = Simulation::builder()
        .population(n)
        .fault(fault)
        .seed(SeedTree::new(SEED).child("avg").seed())
        .build()
        .expect("valid");
    for _ in 0..rounds / 4 {
        sim.step(); // warmup
    }
    let mut acc = 0.0;
    for _ in 0..rounds {
        sim.step();
        acc += sim.fraction_correct();
    }
    acc / rounds as f64
}

fn main() {
    let h = Harness::from_args();
    h.banner(
        "E15 exp_faults",
        "fault extensions (noise / sleep / source retarget)",
        "noise: strict consensus lost, time-avg → 1/2; sleep: converges at 20%, not at 50%/80% (time-avg → 1/2); retarget: clean recovery",
    );

    let n: u64 = h.size(1_000, 300);
    let reps: u64 = h.size(40, 10);
    let avg_rounds: u64 = h.size(30_000, 5_000);
    let max_rounds: u64 = h.size(60_000, 20_000);

    let mut table = Table::new(
        ["fault", "strict success", "mean t_con", "time-avg correct"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    let mut csv = CsvWriter::create(
        h.csv_path("e15_faults.csv"),
        &["fault", "strict_success", "mean_tcon", "time_avg_correct"],
    )
    .expect("csv");

    // Noise sweep, parameterized in units of 1/n (the source's signal
    // strength) to expose the escape-rate competition.
    let mut rows: Vec<(String, f64, Option<f64>, f64)> = Vec::new();
    {
        let (s, m) = measure_strict(n, max_rounds, FaultPlan::none(), reps);
        let avg = measure_time_average(n, FaultPlan::none(), avg_rounds);
        rows.push(("none".into(), s, m, avg));
    }
    for mult in [0.1, 0.5, 1.0, 4.0, 20.0] {
        let p = mult / n as f64;
        let plan = FaultPlan::with_noise(p).expect("grid noise levels are valid");
        let (s, m) = measure_strict(n, max_rounds, plan, reps.min(10));
        let avg = measure_time_average(n, plan, avg_rounds);
        rows.push((format!("noise p = {mult}·(1/n) = {p:.5}"), s, m, avg));
    }
    for sp in [0.2, 0.5, 0.8] {
        let plan = FaultPlan::with_sleep(sp).expect("grid sleep levels are valid");
        let (s, m) = measure_strict(n, max_rounds, plan, reps);
        let avg = measure_time_average(n, plan, avg_rounds);
        rows.push((format!("sleep p = {sp}"), s, m, avg));
    }
    for (label, success, mean, avg) in &rows {
        table.add_row(vec![
            label.clone(),
            format!("{success:.2}"),
            fmt_opt_time(mean.map(|m| m as u64)),
            format!("{avg:.3}"),
        ]);
        csv.write_record(&[
            label.clone(),
            success.to_string(),
            mean.map(|m| m.to_string()).unwrap_or_default(),
            avg.to_string(),
        ])
        .expect("row");
    }

    // Retarget: converge to 1 first, then flip the environment and measure
    // the recovery time to consensus on the new correct bit.
    {
        let mut sim = Simulation::builder()
            .population(n)
            .seed(SeedTree::new(SEED).child("retarget").seed())
            .stability_window(WINDOW)
            .max_rounds(max_rounds)
            .build()
            .expect("valid");
        let first = sim.run();
        assert!(first.converged(), "phase 1 must converge before the flip");
        let flip_round = sim.round() + 1;
        sim.set_fault_plan(FaultPlan::with_source_retarget(flip_round, Opinion::Zero))
            .expect("sync runner accepts fault plans");
        let mut recovery: Option<u64> = None;
        for extra in 0..max_rounds {
            sim.step();
            if sim.correct() == Opinion::Zero && sim.all_correct() {
                recovery = Some(extra + 1);
                break;
            }
        }
        table.add_row(vec![
            "retarget after convergence → 0".to_string(),
            if recovery.is_some() { "1.00" } else { "0.00" }.to_string(),
            fmt_opt_time(recovery),
            "n/a".to_string(),
        ]);
        csv.write_record(&[
            "retarget".to_string(),
            if recovery.is_some() { "1" } else { "0" }.to_string(),
            recovery.map(|r| r.to_string()).unwrap_or_default(),
            String::new(),
        ])
        .expect("row");
    }
    csv.flush().expect("flush");

    println!("\nn = {n}, all-wrong start; strict columns over {reps} replicates,\ntime-average over {avg_rounds} rounds after warmup\n");
    print!("{table}");
    println!(
        "\nreading: the noise rows are a *negative* robustness result and a finding of
this reproduction: FET's absorbing consensus depends on exact unanimity ties,
so persistent observation noise (even ≪ 1 flipped bit per sample) makes both
consensi metastable and the chain oscillates — time-average correctness sinks
toward 1/2 while strict convergence fails outright. The source's pull enters
at strength ~1/n, so it cannot outweigh any constant noise rate; this matches
the noise-impossibility theme of Boczkowski et al. (2018). Sleep is a
threshold, not a slowdown: FET converges at 20% sleep but never at 50% or 80%,
where time-average correctness sits at 1/2."
    );
    println!("\nCSV: {}", h.csv_path("e15_faults.csv").display());
}
