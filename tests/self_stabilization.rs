//! Self-stabilization: the ∀-initial-configuration promise under attack,
//! plus the §1.2 impossibility construction and fault recovery.

use fet::adversary::impossibility::ImpossibilityScenario;
use fet::adversary::init::FetConfigurator;
use fet::adversary::search::{AdversaryPoint, WorstCaseSearch};
use fet::core::bitplane::BitPopulation;
use fet::core::config::ProblemSpec;
use fet::core::fet::FetProtocol;
use fet::core::opinion::Opinion;
use fet::sim::convergence::ConvergenceCriterion;
use fet::sim::engine::{Engine, ExecutionMode, Fidelity, PopulationEngine};
use fet::sim::fault::FaultPlan;
use fet::sim::observer::NullObserver;
use fet::sim::simulation::Simulation;

fn setup(n: u64) -> (FetProtocol, ProblemSpec, FetConfigurator) {
    let spec = ProblemSpec::single_source(n, Opinion::One).expect("valid");
    let protocol = FetProtocol::for_population(n, 4.0).expect("valid");
    (protocol.clone(), spec, FetConfigurator::new(protocol, spec))
}

#[test]
fn all_named_traps_are_defeated() {
    let (protocol, spec, conf) = setup(400);
    for (name, states) in [
        ("tie_trap", conf.tie_trap()),
        ("bounce_suppressor", conf.bounce_suppressor()),
        ("oscillation_primer", conf.oscillation_primer()),
    ] {
        let mut engine =
            Engine::from_states(protocol.clone(), spec, Fidelity::Binomial, states, 17)
                .expect("valid");
        let report = engine.run(100_000, ConvergenceCriterion::new(3), &mut NullObserver);
        assert!(report.converged(), "trap {name} defeated FET: {report:?}");
    }
}

#[test]
fn named_traps_are_defeated_on_bitplane_and_parallel_engines() {
    // The same adversarial state vectors, replayed on the sharded fused
    // round and on the 1-bit/agent packed container: every trap must
    // still be escaped, and the bit-plane trajectory must be the typed
    // one bit-for-bit (the storage determinism contract).
    let (protocol, spec, conf) = setup(400);
    let mode = ExecutionMode::FusedParallel { threads: 2 };
    for (name, states) in [
        ("tie_trap", conf.tie_trap()),
        ("bounce_suppressor", conf.bounce_suppressor()),
        ("oscillation_primer", conf.oscillation_primer()),
    ] {
        let mut typed = Engine::from_states(
            protocol.clone(),
            spec,
            Fidelity::Binomial,
            states.clone(),
            17,
        )
        .expect("valid");
        typed.set_execution_mode(mode).expect("parallel mode");
        let typed_report = typed.run(100_000, ConvergenceCriterion::new(3), &mut NullObserver);
        assert!(
            typed_report.converged(),
            "trap {name} defeated the parallel engine: {typed_report:?}"
        );

        let container = Box::new(BitPopulation::from_states(protocol.clone(), &states));
        let mut bits = PopulationEngine::from_population(container, spec, Fidelity::Binomial, 17)
            .expect("valid");
        bits.set_execution_mode(mode).expect("parallel mode");
        let bit_report = bits.run(100_000, ConvergenceCriterion::new(3), &mut NullObserver);
        assert_eq!(
            typed_report, bit_report,
            "trap {name}: bit-plane storage must replay the typed trajectory"
        );
    }
}

#[test]
fn mixed_family_members_all_converge() {
    let (protocol, spec, _) = setup(300);
    let search = WorstCaseSearch::new(protocol, spec, 23);
    for &(fo, fs) in &[(0.0, 0.0), (0.0, 1.0), (0.5, 0.5), (1.0, 0.0), (0.3, 0.9)] {
        let m = search.measure(AdversaryPoint {
            frac_ones: fo,
            frac_stale_high: fs,
        });
        assert_eq!(
            m.failures, 0,
            "family point ({fo}, {fs}) produced failures: {m:?}"
        );
    }
}

#[test]
fn impossibility_scenario_freezes_but_contrast_escapes() {
    let out = ImpossibilityScenario::standard(256, 3).run();
    assert!(!out.escaped, "passive unanimity must be self-sustaining");
    assert_eq!(out.frozen_rounds, 256, "frozen for the whole horizon");
    assert!(
        out.scenario1_convergence.is_some(),
        "honest majority converges"
    );
    assert!(
        out.contrast_convergence.is_some(),
        "single honest source escapes the trap"
    );
}

#[test]
fn recovery_after_source_retarget() {
    let mut sim = Simulation::builder()
        .population(400)
        .seed(29)
        .max_rounds(100_000)
        .build()
        .expect("valid");
    let first = sim.run();
    assert!(first.converged(), "phase 1: {first:?}");
    let flip = sim.round() + 1;
    sim.set_fault_plan(FaultPlan::with_source_retarget(flip, Opinion::Zero))
        .expect("sync runner accepts fault plans");
    let mut recovered = false;
    for _ in 0..100_000u64 {
        sim.step();
        if sim.correct() == Opinion::Zero && sim.all_correct() {
            recovered = true;
            break;
        }
    }
    assert!(
        recovered,
        "population failed to re-stabilize after the correct bit flipped"
    );
}

#[test]
fn observation_noise_destroys_the_absorbing_consensus() {
    // Reproduction finding (E15): FET's absorbing state relies on exact
    // unanimity ties, so *any* persistent i.i.d. bit-flip noise makes
    // consensus metastable — the population oscillates between the two
    // consensi instead of stabilizing. (Consistent with the noise
    // impossibility results the paper cites: Boczkowski et al. 2018.)
    let mut sim = Simulation::builder()
        .population(400)
        .seed(31)
        .fault(FaultPlan::with_noise(0.05).unwrap())
        .stability_window(5)
        .max_rounds(100_000)
        .build()
        .expect("valid");
    let report = sim.run();
    assert!(
        !report.converged(),
        "strict consensus should be unreachable under persistent noise: {report:?}"
    );
    // The correct side remains weakly favored: over a long window the
    // time-average fraction-correct stays at or above 1/2 (the source's
    // escape-rate asymmetry), bounded well away from 0.
    let mut acc = 0.0;
    let window = 20_000u64;
    for _ in 0..window {
        sim.step();
        acc += sim.fraction_correct();
    }
    let avg = acc / window as f64;
    assert!(
        avg > 0.35,
        "time-average correctness collapsed below noise-only symmetry: {avg}"
    );
}

#[test]
fn convergence_with_sleepy_agents() {
    // Measured threshold behaviour (E15): sleep is *partial asynchrony*,
    // and FET degrades the same way it does under the fully asynchronous
    // scheduler — convergence time explodes as the synchronized trend wave
    // decoheres (n = 400: ~10 rounds at 5% sleep, ~10² at 10%, ~10³–10⁴ at
    // 20%, and at 30% most seeds do not converge within 2·10⁵ rounds).
    // Assert the survivable regime; the breakdown at 30% is covered by the
    // async negative finding in `fet_sim::asynchronous`.
    let report = Simulation::builder()
        .population(400)
        .seed(37)
        .fault(FaultPlan::with_sleep(0.2).unwrap())
        .stability_window(5)
        .max_rounds(200_000)
        .build()
        .expect("valid")
        .run();
    assert!(
        report.converged(),
        "20% sleep probability should be survivable: {report:?}"
    );
}

#[test]
fn simple_trend_variant_also_converges_in_simulation() {
    // The paper conjectures (but does not prove) that the unpartitioned
    // variant works; our simulations support it — document as a test.
    let report = Simulation::builder()
        .population(400)
        .protocol_name("simple-trend")
        .seed(41)
        .stability_window(5)
        .max_rounds(100_000)
        .build()
        .expect("valid")
        .run();
    assert!(report.converged(), "{report:?}");
    assert_eq!(report.protocol, "simple-trend");
}
