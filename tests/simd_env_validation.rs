//! A malformed `FET_SIMD` is a typed error at engine construction.
//!
//! The kernel tier resolves lazily, on a run's first tiered draw, and
//! `fet_stats::isa::active_path` panics on a value it cannot honor. Every
//! fused Agent or graph round draws through a tiered kernel, so both
//! engine constructors validate the variable up front on every container,
//! graph engines included — the paths that bypass
//! `SimulationBuilder::build`. The environment is
//! process-global, so this check is a test binary of its own.

use fet::core::config::ProblemSpec;
use fet::core::fet::FetState;
use fet::prelude::*;
use fet::sim::error::SimError;
use fet::topology::builders::ring_lattice;

fn assert_simd_error<T: std::fmt::Debug>(what: &str, built: Result<T, SimError>) {
    let err = built.expect_err(what);
    assert!(
        matches!(
            err,
            SimError::InvalidParameter {
                name: "FET_SIMD",
                ..
            }
        ),
        "{what}: {err}"
    );
    assert!(
        err.to_string()
            .contains("invalid parameter `FET_SIMD`: must be one of scalar|swar|avx2, got `bogus`"),
        "{what}: {err}"
    );
}

#[test]
fn engines_reject_a_malformed_kernel_tier_at_construction() {
    let spec = || ProblemSpec::single_source(200, Opinion::One).expect("valid spec");
    let fet = || FetProtocol::new(6).expect("valid ℓ");
    let erased = ErasedProtocol::new(fet());
    let state = FetState {
        opinion: Opinion::Zero,
        prev_count_second_half: 0,
    };
    let states = vec![state; 199];
    let typed = || Box::new(TypedPopulation::new(fet()));
    let typed_filled = || Box::new(TypedPopulation::from_states(fet(), states.clone()));
    let erased_filled = || -> Box<dyn DynPopulation> { typed_filled() };
    let ring = || Box::new(ring_lattice(200, 4).expect("valid lattice"));
    let (agent, all_wrong) = (Fidelity::Agent, InitialCondition::AllWrong);
    std::env::set_var("FET_SIMD", "bogus");
    assert_simd_error(
        "Engine::new, typed",
        Engine::new(typed(), spec(), agent, all_wrong, 1),
    );
    assert_simd_error(
        "Engine::new, erased",
        Engine::new(erased.population(), spec(), agent, all_wrong, 1),
    );
    assert_simd_error(
        "Engine::from_population, typed",
        Engine::from_population(typed_filled(), spec(), agent, 1),
    );
    assert_simd_error(
        "Engine::from_population, erased",
        Engine::from_population(erased_filled(), spec(), agent, 1),
    );
    assert_simd_error(
        "Engine::with_neighborhood, typed",
        Engine::new(typed(), spec(), agent, all_wrong, 1).and_then(|e| e.with_neighborhood(ring())),
    );
    assert_simd_error(
        "Engine::with_neighborhood, erased",
        Engine::from_population(erased_filled(), spec(), agent, 1)
            .and_then(|e| e.with_neighborhood(ring())),
    );
    std::env::set_var("FET_SIMD", "scalar");
    let mut engine = Engine::new(typed(), spec(), agent, all_wrong, 1)
        .and_then(|e| e.with_neighborhood(ring()))
        .expect("a valid tier builds");
    engine.step();
    let mut engine =
        Engine::from_population(erased_filled(), spec(), agent, 1).expect("a valid tier builds");
    engine.step();
    std::env::remove_var("FET_SIMD");
}
