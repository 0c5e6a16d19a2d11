//! A malformed `FET_SIMD` is a typed error at engine construction.
//!
//! The kernel tier resolves lazily, on a run's first tiered draw, and
//! `fet_stats::isa::active_path` panics on a value it cannot honor. Every
//! fused Agent or graph round draws through a tiered kernel, so each
//! engine constructor validates the variable up front — including the
//! ones that bypass `SimulationBuilder::build`. The environment is
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
    std::env::set_var("FET_SIMD", "bogus");
    assert_simd_error(
        "Engine::new",
        Engine::new(
            fet(),
            spec(),
            Fidelity::Agent,
            InitialCondition::AllWrong,
            1,
        ),
    );
    let state = FetState {
        opinion: Opinion::Zero,
        prev_count_second_half: 0,
    };
    let states = vec![state; 199];
    assert_simd_error(
        "Engine::from_states",
        Engine::from_states(fet(), spec(), Fidelity::Agent, states, 1),
    );
    assert_simd_error(
        "Engine::with_neighborhood",
        Engine::with_neighborhood(
            fet(),
            Box::new(ring_lattice(200, 4).expect("valid lattice")),
            1,
            Opinion::One,
            InitialCondition::AllWrong,
            1,
        ),
    );
    assert_simd_error(
        "PopulationEngine::new",
        PopulationEngine::new(
            erased.population(),
            spec(),
            Fidelity::Agent,
            InitialCondition::AllWrong,
            1,
        ),
    );
    std::env::set_var("FET_SIMD", "scalar");
    let mut engine = Engine::new(
        fet(),
        spec(),
        Fidelity::Agent,
        InitialCondition::AllWrong,
        1,
    )
    .expect("a valid tier builds");
    engine.step();
    std::env::remove_var("FET_SIMD");
}
