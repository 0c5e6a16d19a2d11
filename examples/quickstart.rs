//! Quickstart: watch FET self-stabilize from the worst classical start.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! A population of 10,000 agents starts in unanimous consensus on the
//! *wrong* opinion; a single source knows better. Follow the Emerging
//! Trend (Protocol 1 of Korman & Vacus, PODC 2022) lets everyone converge
//! on the source's opinion in a few dozen rounds — despite each agent
//! seeing nothing but opinion counts of random peers.

use fet::core::config::ell_for_population;
use fet::prelude::*;
use fet::sim::simulation::DEFAULT_SAMPLE_CONSTANT;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 10_000;
    let report = Simulation::builder()
        .population(n)
        .init(InitialCondition::AllWrong)
        .seed(2022)
        .record_trajectory(true)
        .build()?
        .run();
    println!(
        "population n = {n}, sample size ℓ = {} (= ⌈4·ln n⌉), one source knowing the truth",
        ell_for_population(n, DEFAULT_SAMPLE_CONSTANT)
    );
    println!("initial condition: every non-source agent holds the WRONG opinion\n");

    // Print the trajectory of x_t = fraction of agents holding the correct
    // opinion (here the correct opinion is 1, so x_t is fraction-of-ones).
    println!("round   x_t      visual");
    for (t, x) in report.trajectory.iter().flatten().enumerate() {
        let bar = "#".repeat((x * 50.0).round() as usize);
        println!("{t:>5}   {x:<7.4}  {bar}");
    }

    match report.converged_at() {
        Some(t) => println!(
            "\nconverged at round {t}; the paper's yardstick log^2.5 n = {:.1}",
            (n as f64).ln().powf(2.5)
        ),
        None => println!("\ndid not converge (unexpected — file a bug!)"),
    }
    Ok(())
}
