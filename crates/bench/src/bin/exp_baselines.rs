//! E7 — **baseline comparison** (§1.4 + Related Works).
//!
//! Runs FET against every baseline from adversarial and benign starts.
//! Shapes to match:
//!
//! * **FET** converges from *every* start (self-stabilizing, passive, no
//!   clocks) in polylog time;
//! * **oracle-clock** (§1.4) converges in `O(log n)` — but only because it
//!   is handed a synchronized clock oracle; it quantifies what prior work
//!   spends its message bits to build;
//! * **rumor (clean)** converges fast from the uninformed start but the
//!   **corrupted** variant never recovers (not self-stabilizing);
//! * **voter** eventually agrees with the source but needs Θ(n)-scale
//!   time (too slow — budget exhausted at larger n);
//! * **majority / 3-majority / undecided-state** race to the *initial
//!   majority*, so from the all-wrong start they lock the wrong consensus.

use fet_bench::{fmt_opt_time, Harness, ROOT_SEED};
use fet_core::config::ell_for_population;
use fet_core::erased::ErasedProtocol;
use fet_core::fet::FetProtocol;
use fet_core::simple_trend::SimpleTrendProtocol;
use fet_plot::csv::CsvWriter;
use fet_plot::table::Table;
use fet_protocols::prelude::*;
use fet_sim::init::InitialCondition;
use fet_sim::simulation::{Simulation, DEFAULT_SAMPLE_CONSTANT};
use fet_stats::rng::SeedTree;

/// The experiment's root seed.
const SEED: u64 = ROOT_SEED ^ 0xE7;

struct Row {
    protocol: String,
    passive: bool,
    clockless: bool,
    init: String,
    success: f64,
    mean_time: Option<f64>,
}

/// Runs `protocol` `reps` times on `n` agents from `init` (binomial
/// fidelity; the stability window is `⌈log₂ n⌉`, at least 3).
fn run_case(
    protocol: &ErasedProtocol,
    n: u64,
    max_rounds: u64,
    init: InitialCondition,
    reps: u64,
    clockless: bool,
) -> Row {
    let window = ((n as f64).log2().ceil() as u64).max(3);
    let mut times = Vec::new();
    let mut successes = 0u64;
    for rep in 0..reps {
        let report = Simulation::builder()
            .population(n)
            .protocol_erased(protocol.clone())
            .init(init)
            .seed(SeedTree::new(SEED).child_indexed("rep", rep).seed())
            .max_rounds(max_rounds)
            .stability_window(window)
            .build()
            .expect("valid configuration")
            .run();
        if let Some(t) = report.converged_at() {
            times.push(t as f64);
            successes += 1;
        }
    }
    Row {
        protocol: protocol.name().to_string(),
        passive: protocol.is_passive(),
        clockless,
        init: init.label(),
        success: successes as f64 / reps as f64,
        mean_time: if times.is_empty() {
            None
        } else {
            Some(times.iter().sum::<f64>() / times.len() as f64)
        },
    }
}

fn main() {
    let h = Harness::from_args();
    h.banner(
        "E7 exp_baselines",
        "§1.4 oracle-clock sketch + Related-Works dynamics",
        "only FET is simultaneously passive, clockless, and self-stabilizing; each baseline fails one leg",
    );

    let n: u64 = h.size(2_000, 400);
    let reps: u64 = h.size(30, 8);
    let max_rounds: u64 = h.size(60_000, 20_000);
    let ell = ell_for_population(n, DEFAULT_SAMPLE_CONSTANT);

    // Samples per round differ by protocol; runs share everything else.
    // The flag is `clockless`: only the oracle-clock sketch needs the round
    // oracle.
    let protocols = [
        (
            ErasedProtocol::new(FetProtocol::new(ell).expect("ℓ ≥ 1")),
            true,
        ),
        (
            ErasedProtocol::new(SimpleTrendProtocol::new(ell).expect("ℓ ≥ 1")),
            true,
        ),
        (
            ErasedProtocol::new(OracleClockProtocol::for_population(n).expect("n ≥ 2")),
            false,
        ),
        (ErasedProtocol::new(VoterProtocol::new()), true),
        (
            ErasedProtocol::new(MajorityProtocol::new(ell).expect("ℓ ≥ 1")),
            true,
        ),
        (ErasedProtocol::new(ThreeMajorityProtocol::new()), true),
        (ErasedProtocol::new(UndecidedProtocol::new()), true),
        (ErasedProtocol::new(RumorProtocol::clean()), true),
        (ErasedProtocol::new(RumorProtocol::corrupted()), true),
    ];
    let mut rows: Vec<Row> = Vec::new();
    for init in [InitialCondition::AllWrong, InitialCondition::Random] {
        for (protocol, clockless) in &protocols {
            rows.push(run_case(protocol, n, max_rounds, init, reps, *clockless));
        }
    }

    let mut table = Table::new(
        [
            "protocol",
            "passive",
            "clockless",
            "init",
            "success",
            "mean t_con",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let mut csv = CsvWriter::create(
        h.csv_path("e7_baselines.csv"),
        &[
            "protocol",
            "passive",
            "clockless",
            "init",
            "success",
            "mean_tcon",
        ],
    )
    .expect("csv");
    for r in &rows {
        table.add_row(vec![
            r.protocol.clone(),
            r.passive.to_string(),
            r.clockless.to_string(),
            r.init.clone(),
            format!("{:.2}", r.success),
            fmt_opt_time(r.mean_time.map(|t| t as u64)),
        ]);
        csv.write_record(&[
            r.protocol.clone(),
            r.passive.to_string(),
            r.clockless.to_string(),
            r.init.clone(),
            r.success.to_string(),
            r.mean_time.map(|t| t.to_string()).unwrap_or_default(),
        ])
        .expect("row");
    }
    csv.flush().expect("flush");

    println!("\nn = {n}, ℓ = {ell}, budget {max_rounds} rounds, {reps} replicates/case\n");
    print!("{table}");
    println!(
        "\nreading: the all-wrong rows are the self-stabilization test. FET (and in
simulation its unpartitioned variant) pass; rumor-corrupted freezes; the
consensus dynamics lock the wrong majority; voter is orders slower; the
oracle-clock line is fast but cheats with a shared clock. Note Bastide et al.
(2021) achieve O(log n) with 1-bit messages *decoupled from opinions* — a
capability structurally outside this table (and this workspace's observation
type), which is precisely the paper's point."
    );
    println!("\nCSV: {}", h.csv_path("e7_baselines.csv").display());
}
