//! Graphs through the unified `Simulation` facade.

use fet_core::config::ProblemSpec;
use fet_core::fet::FetProtocol;
use fet_core::opinion::Opinion;
use fet_core::population::TypedPopulation;
use fet_sim::convergence::ConvergenceCriterion;
use fet_sim::engine::{Engine, Fidelity};
use fet_sim::init::InitialCondition;
use fet_sim::observer::NullObserver;
use fet_sim::simulation::Simulation;
use fet_stats::rng::SeedTree;
use fet_topology::builders;

#[test]
fn expander_converges_through_the_facade() {
    let mut rng = SeedTree::new(1).child("facade-graph").rng();
    let graph = builders::random_regular(300, 24, &mut rng).unwrap();
    let mut sim = Simulation::builder()
        .topology(graph)
        .seed(7)
        .stability_window(5)
        .max_rounds(20_000)
        .build()
        .unwrap();
    let report = sim.run();
    assert!(report.converged(), "{report:?}");
    assert_eq!(report.n, 300);
    assert_eq!(
        report.fidelity,
        Fidelity::Agent,
        "topology implies agent fidelity"
    );
    assert_eq!(report.report.final_fraction_correct, 1.0);
}

#[test]
fn facade_agrees_with_the_typed_neighborhood_engine() {
    // Same graph, same protocol family: both executions must converge and
    // stabilize at all-correct (streams differ; outcomes agree).
    let mut rng = SeedTree::new(2).child("facade-vs-legacy").rng();
    let graph = builders::erdos_renyi(250, 0.2, &mut rng).unwrap();
    let protocol = FetProtocol::for_population(250, 4.0).unwrap();
    let spec = ProblemSpec::single_source(250, Opinion::One).unwrap();
    let population = Box::new(TypedPopulation::new(protocol));
    let mut typed = Engine::new(
        population,
        spec,
        Fidelity::Agent,
        InitialCondition::AllWrong,
        13,
    )
    .unwrap()
    .with_neighborhood(Box::new(graph.clone()))
    .unwrap();
    let typed_report = typed.run(20_000, ConvergenceCriterion::new(5), &mut NullObserver);
    let mut facade = Simulation::builder()
        .topology(graph)
        .seed(13)
        .stability_window(5)
        .max_rounds(20_000)
        .build()
        .unwrap();
    let facade_report = facade.run();
    assert!(typed_report.converged() && facade_report.converged());
    assert_eq!(
        typed_report.final_fraction_correct,
        facade_report.report.final_fraction_correct
    );
}

#[test]
fn star_freeze_reproduces_through_the_facade() {
    // The E18 negative finding must survive the migration: a hub source
    // delivers unanimous observations, FET reads no trend, ties freeze.
    let graph = builders::star(400).unwrap();
    let mut sim = Simulation::builder()
        .topology(graph)
        .seed(19)
        .stability_window(5)
        .max_rounds(2_000)
        .build()
        .unwrap();
    let report = sim.run();
    assert!(
        !report.converged(),
        "star hub-source should freeze: {report:?}"
    );
    let frac = sim.fraction_correct();
    assert!(frac > 0.0 && frac < 1.0, "frozen fraction = {frac}");
}

#[test]
fn topology_with_aggregate_fidelity_is_rejected() {
    let graph = builders::complete(50).unwrap();
    let err = Simulation::builder()
        .topology(graph)
        .fidelity(Fidelity::Aggregate)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("complete graph only"), "{err}");
}

#[test]
fn topology_with_binomial_fidelity_is_rejected_in_any_order() {
    let graph = builders::complete(50).unwrap();
    let err = Simulation::builder()
        .fidelity(Fidelity::Binomial)
        .topology(graph)
        .build()
        .unwrap_err();
    assert!(
        err.to_string().contains("neighbor sampling is literal"),
        "{err}"
    );
}

#[test]
fn population_topology_mismatch_is_rejected() {
    let graph = builders::complete(50).unwrap();
    let err = Simulation::builder()
        .population(60)
        .topology(graph)
        .build()
        .unwrap_err();
    assert!(
        err.to_string().contains("disagrees with the topology"),
        "{err}"
    );
}
