//! Absorption forecast: the exact distribution of the convergence time.
//!
//! ```text
//! cargo run --release --example absorption_forecast
//! ```
//!
//! Theorem 1 bounds the convergence time `T` w.h.p. For small populations
//! we can do better than a bound: iterate the exact Observation-1 kernel
//! on probability densities and read off the *entire* distribution of `T`
//! — no sampling, no error bars. This example prints the exact CDF from
//! the all-wrong start, the tail rate (which is geometric with the
//! quasi-stationary eigenvalue λ), and cross-checks a Monte-Carlo run of
//! the actual agent-level protocol against the forecast.

use fet::analysis::density::{AbsorptionTime, QuasiStationary};
use fet::analysis::markov::ExactChain;
use fet::core::config::ProblemSpec;
use fet::core::fet::{FetProtocol, FetState};
use fet::core::opinion::Opinion;
use fet::core::population::TypedPopulation;
use fet::sim::convergence::ConvergenceCriterion;
use fet::sim::engine::{Engine, Fidelity};
use fet::sim::observer::NullObserver;
use fet::stats::binomial::sample_binomial;
use fet::stats::rng::SeedTree;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (n, ell) = (32u64, 10u64);
    println!("population n = {n}, half-sample ℓ = {ell}\n");

    let chain = ExactChain::new(n, ell)?;
    let at = AbsorptionTime::from_chain(&chain, 1, 1, 5_000)?;
    let qsd = QuasiStationary::of_chain(&chain, 1e-12, 300_000)?;

    println!("exact law of T from the all-wrong start:");
    println!("  E[T]   = {:.3} rounds", at.mean());
    for q in [0.5, 0.9, 0.99, 0.999] {
        let t = at.quantile(q).expect("horizon covers the mass");
        println!("  P(T ≤ {t:>3}) ≥ {q}");
    }
    println!(
        "  tail: P(T > t) ~ λ^t with λ = {:.5} (quasi-stationary eigenvalue)\n",
        qsd.eigenvalue()
    );

    // Monte-Carlo cross-check with the real protocol, literal sampling.
    // Convention slack: the chain state (x_t, x_{t+1}) spans TWO rounds
    // and absorbs one push after the population first hits all-ones, while
    // the detector fires on the first all-correct round — so the measured
    // fraction must land in [cdf(t*), cdf(t* + 2)].
    let reps = 2_000u64;
    let t_star = at.quantile(0.9).expect("horizon covers the mass");
    let mut within = 0u64;
    for rep in 0..reps {
        let protocol = FetProtocol::new(ell as u32)?;
        let spec = ProblemSpec::single_source(n, Opinion::One)?;
        // Match the chain's state convention: stale counts are the
        // Observation-1 conditional, Binomial(ℓ, x_t), not a pinned value.
        let mut rng = SeedTree::new(rep).child("stale").rng();
        let states: Vec<FetState> = (0..n - 1)
            .map(|_| FetState {
                opinion: Opinion::Zero,
                prev_count_second_half: sample_binomial(ell, 1.0 / n as f64, &mut rng) as u32,
            })
            .collect();
        let states = Box::new(TypedPopulation::from_states(protocol, states));
        let mut engine = Engine::from_population(states, spec, Fidelity::Agent, rep)?;
        let report = engine.run(100_000, ConvergenceCriterion::new(1), &mut NullObserver);
        let t = report.converged_at.expect("FET converges");
        if t <= t_star + 1 {
            within += 1;
        }
    }
    let frac = within as f64 / reps as f64;
    println!("Monte-Carlo cross-check ({reps} agent-level runs):");
    println!(
        "  fraction converged by round {} = {frac:.3}; exact forecast interval [{:.3}, {:.3}]",
        t_star + 1,
        at.cdf(t_star),
        at.cdf(t_star + 2),
    );
    Ok(())
}
