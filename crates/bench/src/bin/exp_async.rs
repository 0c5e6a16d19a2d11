//! E17 — **asynchronous scheduler**: is the round structure load-bearing?
//!
//! Runs FET under a population-protocol-style scheduler (one random agent
//! activates at a time; `n` activations = one parallel round) against
//! synchronous rounds on identical instances. Both are the same `Engine`
//! under its two `Scheduler`s, so an asynchronous run takes the same
//! storages, noise and fault schedules. Measured shape (a negative
//! extension result of this reproduction, asserted in `fet-sim`'s tests):
//!
//! * synchronous FET converges in polylog rounds;
//! * asynchronous FET **never converges** — the population oscillates
//!   around the middle indefinitely, because the coherent "all agents see
//!   the same trend" wave is destroyed and near-consensus states leak at a
//!   constant per-activation rate. Exact consensus remains absorbing but
//!   is unreachable.
//!
//! Implication for the paper's biological framing: the simultaneity of
//! rounds is a real modelling assumption, not a convenience.

use fet_bench::{fmt_opt_time, Harness, ROOT_SEED};
use fet_plot::csv::CsvWriter;
use fet_plot::table::Table;
use fet_sim::engine::{Fidelity, Scheduler};
use fet_sim::simulation::Simulation;
use fet_stats::rng::SeedTree;

fn main() {
    let h = Harness::from_args();
    h.banner(
        "E17 exp_async",
        "synchrony ablation (population-protocol scheduler)",
        "sync converges in polylog rounds; async wanders forever at x ≈ 1/2 ± excursions",
    );

    let sizes: Vec<u64> = if h.quick {
        vec![200]
    } else {
        vec![200, 500, 1000]
    };
    let reps: u64 = h.size(10, 3);
    let budget: u64 = h.size(30_000, 8_000);

    let mut table = Table::new(
        [
            "n",
            "scheduler",
            "success",
            "mean t_con (parallel rounds)",
            "mean final frac correct",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let mut csv = CsvWriter::create(
        h.csv_path("e17_async.csv"),
        &["n", "scheduler", "success", "mean_tcon", "mean_final_frac"],
    )
    .expect("csv");

    for &n in &sizes {
        for scheduler in ["synchronous", "asynchronous"] {
            let mut successes = 0u64;
            let mut times = Vec::new();
            let mut fracs = Vec::new();
            for rep in 0..reps {
                let seed = SeedTree::new(ROOT_SEED)
                    .child("e17")
                    .child(scheduler)
                    .child_indexed("n", n)
                    .child_indexed("rep", rep)
                    .seed();
                let report = Simulation::builder()
                    .population(n)
                    .fidelity(Fidelity::Agent)
                    .scheduler(if scheduler == "synchronous" {
                        Scheduler::Synchronous
                    } else {
                        Scheduler::Asynchronous
                    })
                    .seed(seed)
                    .max_rounds(budget)
                    .build()
                    .expect("valid")
                    .run()
                    .report;
                if let Some(t) = report.converged_at {
                    successes += 1;
                    times.push(t as f64);
                }
                fracs.push(report.final_fraction_correct);
            }
            let mean_time = if times.is_empty() {
                None
            } else {
                Some(times.iter().sum::<f64>() / times.len() as f64)
            };
            let mean_frac = fracs.iter().sum::<f64>() / fracs.len() as f64;
            table.add_row(vec![
                n.to_string(),
                scheduler.to_string(),
                format!("{:.2}", successes as f64 / reps as f64),
                fmt_opt_time(mean_time.map(|t| t as u64)),
                format!("{mean_frac:.3}"),
            ]);
            csv.write_record(&[
                n.to_string(),
                scheduler.to_string(),
                (successes as f64 / reps as f64).to_string(),
                mean_time.map(|t| t.to_string()).unwrap_or_default(),
                mean_frac.to_string(),
            ])
            .expect("row");
        }
    }
    csv.flush().expect("flush");

    println!("\nall-wrong start, budget {budget} parallel rounds, {reps} replicates per cell\n");
    print!("{table}");
    println!(
        "\nreading: the async rows' final fractions hover mid-range — snapshots of an
endless oscillation, not slow progress. FET's trend detection needs all agents
to compare against the *same* previous round; per-agent activation clocks
decorrelate the references and the Green sprint never fires."
    );
    println!("\nCSV: {}", h.csv_path("e17_async.csv").display());
}
