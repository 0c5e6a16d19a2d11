//! E16 — **design ablations**: which pieces of Protocol 1 carry the load?
//!
//! FET makes three deliberate choices: keep-on-tie, cross-round memory
//! (compare against a *stale* half), and the sample split. The ablation
//! grid measures each. Shapes to match:
//!
//! * **keep-on-tie is essential for staying converged**: random tie-break
//!   destroys the absorbing consensus (unanimity keeps re-randomizing);
//!   biased tie-break (adopt-1) breaks the 0↔1 symmetry — it "solves"
//!   correct = 1 instances trivially and fails correct = 0 ones;
//! * **cross-round memory is essential for converging at all**: the
//!   fresh-half control (compare two halves of the *same* round) has no
//!   trend signal and never leaves the noise regime;
//! * **the split is an analysis device, not a performance one**: the
//!   unpartitioned simple-trend variant performs like FET in simulation
//!   (the paper keeps it conjectural because its *proof* breaks).

use fet_bench::{fmt_opt_time, Harness, ROOT_SEED};
use fet_core::config::ell_for_population;
use fet_core::opinion::Opinion;
use fet_core::protocol::Protocol;
use fet_core::simple_trend::SimpleTrendProtocol;
use fet_core::variants::{FetVariant, Memory, TieBreak};
use fet_plot::csv::CsvWriter;
use fet_plot::table::Table;
use fet_sim::init::InitialCondition;
use fet_sim::simulation::{RunReport, Simulation, DEFAULT_SAMPLE_CONSTANT};
use fet_stats::rng::SeedTree;

/// The experiment's root seed.
const SEED: u64 = ROOT_SEED ^ 0xAB;

struct Row {
    variant: String,
    correct: Opinion,
    success: f64,
    mean_time: Option<f64>,
    holds_consensus: bool,
}

/// Measures one variant on `n` agents (binomial fidelity): convergence
/// from the all-wrong start over `reps` replicates, and whether it holds an
/// all-correct start.
fn measure<P>(label: String, proto: P, n: u64, max_rounds: u64, correct: Opinion, reps: u64) -> Row
where
    P: Protocol + Clone + std::fmt::Debug + Send + Sync + 'static,
    P::State: 'static,
{
    let run = |init, seed, max_rounds, window| -> RunReport {
        Simulation::builder()
            .population(n)
            .correct(correct)
            .protocol(proto.clone())
            .init(init)
            .seed(seed)
            .max_rounds(max_rounds)
            .stability_window(window)
            .build()
            .expect("valid")
            .run()
    };
    let mut successes = 0u64;
    let mut times = Vec::new();
    for rep in 0..reps {
        let seed = SeedTree::new(SEED).child_indexed("rep", rep).seed();
        if let Some(t) = run(InitialCondition::AllWrong, seed, max_rounds, 5).converged_at() {
            successes += 1;
            times.push(t as f64);
        }
    }
    // Stability probe: from the all-correct configuration, does the
    // population stay? (The absorbing-state ablation.)
    let seed = SeedTree::new(SEED).child("stability").seed();
    let stay = run(InitialCondition::AllCorrect, seed, 300, 250);
    Row {
        variant: label,
        correct,
        success: successes as f64 / reps as f64,
        mean_time: if times.is_empty() {
            None
        } else {
            Some(times.iter().sum::<f64>() / times.len() as f64)
        },
        holds_consensus: stay.converged(),
    }
}

fn main() {
    let h = Harness::from_args();
    h.banner(
        "E16 exp_ablation",
        "Protocol 1 design choices (keep-on-tie, stale memory, split)",
        "keep-on-tie → absorption; stale memory → trend signal; split ≈ analysis-only",
    );

    let n: u64 = h.size(1_000, 300);
    let reps: u64 = h.size(30, 8);
    let max_rounds: u64 = h.size(40_000, 10_000);
    let ell = ell_for_population(n, DEFAULT_SAMPLE_CONSTANT);

    let mut rows: Vec<Row> = Vec::new();
    for correct in [Opinion::One, Opinion::Zero] {
        for tie in [
            TieBreak::Keep,
            TieBreak::Random,
            TieBreak::AdoptOne,
            TieBreak::AdoptZero,
        ] {
            let v = FetVariant::new(ell, tie, Memory::StaleHalf).expect("valid");
            rows.push(measure(v.variant_label(), v, n, max_rounds, correct, reps));
        }
        let fresh = FetVariant::new(ell, TieBreak::Keep, Memory::FreshHalf).expect("valid");
        let label = fresh.variant_label();
        rows.push(measure(label, fresh, n, max_rounds, correct, reps));
        let st = SimpleTrendProtocol::new(ell).expect("valid");
        let label = "simple-trend (no split)".to_string();
        rows.push(measure(label, st, n, max_rounds, correct, reps));
    }

    let mut table = Table::new(
        [
            "variant",
            "correct bit",
            "success",
            "mean t_con",
            "holds consensus?",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let mut csv = CsvWriter::create(
        h.csv_path("e16_ablation.csv"),
        &[
            "variant",
            "correct",
            "success",
            "mean_tcon",
            "holds_consensus",
        ],
    )
    .expect("csv");
    for r in &rows {
        table.add_row(vec![
            r.variant.clone(),
            r.correct.to_string(),
            format!("{:.2}", r.success),
            fmt_opt_time(r.mean_time.map(|t| t as u64)),
            if r.holds_consensus { "yes" } else { "NO" }.to_string(),
        ]);
        csv.write_record(&[
            r.variant.clone(),
            r.correct.to_string(),
            r.success.to_string(),
            r.mean_time.map(|t| t.to_string()).unwrap_or_default(),
            r.holds_consensus.to_string(),
        ])
        .expect("row");
    }
    csv.flush().expect("flush");

    println!("\nn = {n}, ℓ = {ell}, all-wrong start, {reps} replicates per cell\n");
    print!("{table}");
    println!(
        "\nreading: the canonical fet[keep/stale-half] succeeds on both correct bits and
holds consensus. fet[random/…] cannot *hold* consensus (ties re-randomize).
fet[adopt-1/…] is a one-sided cheat: perfect when the answer is 1, broken when
it is 0. fet[keep/fresh-half] removes the cross-round memory and with it the
entire trend signal. simple-trend matches FET empirically — evidence for the
paper's conjecture that the split is needed only by the proof."
    );
    println!("\nCSV: {}", h.csv_path("e16_ablation.csv").display());
}
