//! The adversary's gauntlet: FET versus hand-crafted hostile starts.
//!
//! ```text
//! cargo run --release --example adversarial_gauntlet
//! ```
//!
//! Self-stabilization means convergence from *every* initial configuration.
//! This example throws the library's named traps at FET — the tie trap, the
//! bounce suppressor, the oscillation primer — then runs the automated
//! worst-case search over the mixed family and reports the slowest
//! configuration it can find.

use fet::adversary::init::FetConfigurator;
use fet::adversary::search::{AdversaryPoint, WorstCaseSearch};
use fet::core::config::ProblemSpec;
use fet::core::fet::FetProtocol;
use fet::core::opinion::Opinion;
use fet::core::population::TypedPopulation;
use fet::sim::convergence::ConvergenceCriterion;
use fet::sim::engine::{Engine, Fidelity};
use fet::sim::observer::NullObserver;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 2_000u64;
    let spec = ProblemSpec::single_source(n, Opinion::One)?;
    let protocol = FetProtocol::for_population(n, 4.0)?;
    let conf = FetConfigurator::new(protocol.clone(), spec);

    println!("n = {n}, ℓ = {} — named traps:\n", protocol.ell());
    let traps: [(&str, Vec<fet::core::fet::FetState>); 3] = [
        ("tie trap (all wrong, stale counts 0)", conf.tie_trap()),
        (
            "bounce suppressor (all wrong, stale counts ℓ)",
            conf.bounce_suppressor(),
        ),
        (
            "oscillation primer (anti-phase halves)",
            conf.oscillation_primer(),
        ),
    ];
    for (name, states) in traps {
        let states = Box::new(TypedPopulation::from_states(protocol.clone(), states));
        let mut engine = Engine::from_population(states, spec, Fidelity::Binomial, 4242)?;
        let report = engine.run(200_000, ConvergenceCriterion::new(3), &mut NullObserver);
        println!(
            "  {name:<48} t_con = {}",
            report
                .converged_at
                .map(|t| t.to_string())
                .unwrap_or_else(|| "FAILED".into())
        );
    }

    println!("\nautomated worst-case search over the (frac_ones × frac_stale_high) family:");
    let mut search = WorstCaseSearch::new(protocol, spec, 31337);
    search.replicates = 6;
    search.threads = 8;
    let outcome = search.run(4);
    for m in &outcome.measured {
        println!(
            "  point (ones {:.2}, stale-high {:.2})  mean t_con {:>8.1}  max {:>6.0}  failures {}",
            m.point.frac_ones, m.point.frac_stale_high, m.mean_time, m.max_time, m.failures
        );
    }
    let w: &AdversaryPoint = &outcome.worst.point;
    println!(
        "\nworst found: (ones {:.2}, stale-high {:.2}) at mean {:.1} rounds — still convergent,\nas Theorem 1 demands (the paper: worst initial conditions are not always evident!)",
        w.frac_ones, w.frac_stale_high, outcome.worst.mean_time
    );
    Ok(())
}
