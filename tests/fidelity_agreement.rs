//! Cross-validation of the fidelity tower (the fidelity table in fet-sim's
//! crate docs): literal sampling ≡ binomial counts ≡ aggregate chain ≡
//! closed-form drift ≡ exact Markov solve. These tests are the
//! reproduction's spine.

use fet::analysis::drift::DriftField;
use fet::analysis::markov::ExactChain;
use fet::core::config::ProblemSpec;
use fet::core::fet::{FetProtocol, FetState};
use fet::core::opinion::Opinion;
use fet::core::population::TypedPopulation;
use fet::sim::aggregate::AggregateFetChain;
use fet::sim::convergence::ConvergenceCriterion;
use fet::sim::engine::{Engine, Fidelity};
use fet::stats::binomial::sample_binomial;
use fet::stats::rng::SeedTree;
use fet::stats::summary::WelfordAccumulator;

/// One-step mean of the agent-level engine from a controlled (x0, x1)
/// state, with stale counts drawn from the conditional law B(ℓ, x0).
fn engine_one_step_mean(n: u64, ell: u32, x0: f64, x1: f64, fidelity: Fidelity, reps: u64) -> f64 {
    let spec = ProblemSpec::single_source(n, Opinion::One).expect("valid");
    let ones1 = ((x1 * n as f64).round() as u64).max(1);
    let mut acc = WelfordAccumulator::new();
    for rep in 0..reps {
        let tree = SeedTree::new(rep).child("fidelity");
        let mut rng = tree.child("init").rng();
        let protocol = FetProtocol::new(ell).expect("valid");
        let states: Vec<FetState> = (0..(n - 1) as usize)
            .map(|i| FetState {
                opinion: if (i as u64) < ones1 - 1 {
                    Opinion::One
                } else {
                    Opinion::Zero
                },
                prev_count_second_half: sample_binomial(u64::from(ell), x0, &mut rng) as u32,
            })
            .collect();
        let mut engine = Engine::from_population(
            Box::new(TypedPopulation::from_states(protocol, states)),
            spec,
            fidelity,
            tree.child("e").seed(),
        )
        .expect("valid");
        engine.step();
        acc.push(engine.fraction_ones());
    }
    acc.mean()
}

#[test]
fn one_step_mean_matches_closed_form_across_fidelities() {
    let n = 600u64;
    let ell = 24u32;
    let field = DriftField::new(n, u64::from(ell)).expect("valid");
    for &(x0, x1) in &[(0.2, 0.25), (0.5, 0.5), (0.7, 0.66)] {
        let expect = field.g(x0, (((x1 * n as f64).round()).max(1.0)) / n as f64);
        for fidelity in [Fidelity::Agent, Fidelity::Binomial] {
            let mean = engine_one_step_mean(n, ell, x0, x1, fidelity, 400);
            assert!(
                (mean - expect).abs() < 0.02,
                "{fidelity:?} at ({x0},{x1}): {mean} vs g = {expect}"
            );
        }
        // Aggregate chain expectation is the closed form by construction;
        // verify the sampled step too.
        let spec = ProblemSpec::single_source(n, Opinion::One).expect("valid");
        let ones0 = ((x0 * n as f64).round() as u64).max(1);
        let ones1 = ((x1 * n as f64).round() as u64).max(1);
        let mut acc = WelfordAccumulator::new();
        for rep in 0..2000u64 {
            let mut chain = AggregateFetChain::new(spec, ell, ones0, ones1, rep).expect("valid");
            chain.step();
            acc.push(chain.fractions().1);
        }
        assert!(
            (acc.mean() - expect).abs() < 0.02,
            "aggregate at ({x0},{x1}): {} vs g = {expect}",
            acc.mean()
        );
    }
}

#[test]
fn exact_chain_agrees_with_aggregate_monte_carlo() {
    let (n, ell) = (10u64, 4u64);
    let exact = ExactChain::new(n, ell)
        .expect("small n")
        .expected_time_all_wrong()
        .expect("solver converges");
    let spec = ProblemSpec::single_source(n, Opinion::One).expect("valid");
    let reps = 20_000u64;
    let mut acc = WelfordAccumulator::new();
    for rep in 0..reps {
        let mut chain = AggregateFetChain::new(spec, ell as u32, 1, 1, rep).expect("valid");
        let report = chain.run(1_000_000, ConvergenceCriterion::new(1));
        // +1: pair-chain (n, n) absorption is one step after first consensus.
        acc.push(report.converged_at.expect("converges") as f64 + 1.0);
    }
    let se = acc.standard_error();
    assert!(
        (acc.mean() - exact).abs() < 4.0 * se + 0.05,
        "aggregate MC {} ± {se} vs exact {exact}",
        acc.mean()
    );
}

#[test]
fn exact_chain_agrees_with_agent_level_monte_carlo() {
    let (n, ell) = (8u64, 4u32);
    let exact = ExactChain::new(n, u64::from(ell))
        .expect("small n")
        .expected_time_all_wrong()
        .expect("solver converges");
    let spec = ProblemSpec::single_source(n, Opinion::One).expect("valid");
    let reps = 8_000u64;
    let mut acc = WelfordAccumulator::new();
    for rep in 0..reps {
        let tree = SeedTree::new(rep).child("exact-agent");
        let mut rng = tree.child("init").rng();
        let protocol = FetProtocol::new(ell).expect("valid");
        let states: Vec<FetState> = (0..(n - 1) as usize)
            .map(|_| FetState {
                opinion: Opinion::Zero,
                prev_count_second_half: sample_binomial(u64::from(ell), 1.0 / n as f64, &mut rng)
                    as u32,
            })
            .collect();
        let mut engine = Engine::from_population(
            Box::new(TypedPopulation::from_states(protocol, states)),
            spec,
            Fidelity::Agent,
            tree.child("e").seed(),
        )
        .expect("valid");
        let report = engine.run(
            1_000_000,
            ConvergenceCriterion::new(1),
            &mut fet::sim::observer::NullObserver,
        );
        acc.push(report.converged_at.expect("converges") as f64 + 1.0);
    }
    let se = acc.standard_error();
    assert!(
        (acc.mean() - exact).abs() < 4.0 * se + 0.05,
        "agent MC {} ± {se} vs exact {exact}",
        acc.mean()
    );
}
