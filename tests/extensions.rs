//! Integration tests for the extension systems added on top of the paper's
//! model: non-complete topologies, without-replacement sampling, honest
//! conflicting sources, and the exact density-evolution views. Each test
//! exercises at least two crates through the facade.

use fet::adversary::conflict::ConflictEngine;
use fet::analysis::density::{AbsorptionTime, OccupationMeasure, QuasiStationary};
use fet::analysis::markov::ExactChain;
use fet::core::config::ProblemSpec;
use fet::core::fet::FetProtocol;
use fet::core::opinion::Opinion;
use fet::core::population::TypedPopulation;
use fet::sim::convergence::ConvergenceCriterion;
use fet::sim::engine::{Engine, Fidelity};
use fet::sim::observer::NullObserver;
use fet::sim::simulation::Simulation;
use fet::stats::rng::SeedTree;
use fet::topology::builders;
use fet::topology::graph::{Graph, GraphStats};

/// A topology-restricted run on the complete graph must agree *in shape*
/// with the flat engine: both self-stabilize from the all-wrong start in a
/// comparable number of rounds.
#[test]
fn complete_graph_topology_matches_flat_engine_shape() {
    let n: u64 = 400;
    let reps = 10u64;
    let mut flat_times = Vec::new();
    let mut graph_times = Vec::new();
    for rep in 0..reps {
        let flat = Simulation::builder()
            .population(n)
            .fidelity(Fidelity::Agent)
            .seed(50 + rep)
            .max_rounds(50_000)
            .build()
            .expect("valid")
            .run();
        flat_times.push(flat.converged_at().expect("flat engine must converge") as f64);

        let graph = builders::complete(n as u32).expect("valid");
        let topo = Simulation::builder()
            .topology(graph)
            .seed(90 + rep)
            .max_rounds(50_000)
            .build()
            .expect("valid")
            .run();
        graph_times.push(topo.converged_at().expect("topology run must converge") as f64);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mf, mg) = (mean(&flat_times), mean(&graph_times));
    // Same model up to self-sampling; means within a factor of 3 of each
    // other is a conservative shape check at these replication counts.
    assert!(
        mf / mg < 3.0 && mg / mf < 3.0,
        "complete-graph topology run diverges from flat engine: {mf} vs {mg}"
    );
}

/// FET self-stabilizes on a Θ(log n)-degree random regular graph, and the
/// consensus stays absorbing there (two crates: topology + sim facade).
#[test]
fn fet_self_stabilizes_on_log_degree_expander() {
    let n: u32 = 600;
    let d = (4.0 * f64::from(n).ln()).ceil() as u32; // ≈ 26
    let mut rng = SeedTree::new(7).child("expander").rng();
    let graph = builders::random_regular(n, d + (n * d) % 2, &mut rng).expect("valid");
    assert!(graph.is_connected());
    let mut sim = Simulation::builder()
        .topology(graph)
        .seed(11)
        .stability_window(5)
        .max_rounds(50_000)
        .build()
        .expect("valid");
    let report = sim.run();
    assert!(report.converged(), "{report:?}");
    for _ in 0..100 {
        sim.step();
        assert!(
            sim.all_correct(),
            "consensus broke at round {}",
            sim.round()
        );
    }
}

/// Source placement alone flips the star between freeze and convergence.
///
/// Hub source: every leaf's observation stream is the constant source
/// opinion, ties lock round-1 opinions, the system freezes short of
/// consensus. Leaf source: the *hub* keeps sampling the source leaf, so
/// an all-0 lock is impossible; the first round the hub displays 1 after
/// a unanimous-0 round, every leaf sees `count′ = ℓ > 0 = count″` and
/// adopts 1 simultaneously — the hub is a broadcast amplifier, and the
/// all-1 state is absorbing. (Measured, then pinned by this test.)
#[test]
fn star_source_placement_flips_freeze_to_convergence() {
    let n: u32 = 300;
    let hub_source = builders::star(n).expect("valid"); // hub is vertex 0 = source
    let leaf_source = hub_source.with_swapped(0, 1); // hub moves to vertex 1
    assert_eq!(GraphStats::of(&leaf_source).max_degree, n - 1);

    let run = |graph: Graph, seed| {
        let mut sim = Simulation::builder()
            .topology(graph)
            .seed(seed)
            .stability_window(5)
            .max_rounds(5_000)
            .build()
            .expect("valid");
        let report = sim.run();
        (report.converged(), sim.fraction_correct())
    };

    let (hub_converged, hub_frac) = run(hub_source, 3);
    assert!(!hub_converged, "hub-source star must freeze");
    assert!(hub_frac < 1.0);

    let (leaf_converged, leaf_frac) = run(leaf_source, 5);
    assert!(
        leaf_converged,
        "leaf-source star must converge via the hub cascade"
    );
    assert_eq!(leaf_frac, 1.0);
}

/// Without-replacement sampling (hypergeometric counts) preserves the
/// convergence shape of the with-replacement model at matched parameters.
#[test]
fn without_replacement_matches_with_replacement_shape() {
    let n: u64 = 500;
    let reps = 10u64;
    let mut with_t = Vec::new();
    let mut without_t = Vec::new();
    for rep in 0..reps {
        for (fidelity, bucket) in [
            (Fidelity::Binomial, &mut with_t),
            (Fidelity::WithoutReplacement, &mut without_t),
        ] {
            let report = Simulation::builder()
                .population(n)
                .fidelity(fidelity)
                .seed(700 + rep)
                .max_rounds(50_000)
                .build()
                .expect("valid")
                .run();
            bucket.push(report.converged_at().expect("must converge") as f64);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mw, mo) = (mean(&with_t), mean(&without_t));
    assert!(
        mw / mo < 3.0 && mo / mw < 3.0,
        "without-replacement shape diverged: with {mw} vs without {mo}"
    );
}

/// The exact absorption CDF brackets Monte-Carlo convergence times from
/// the agent-level engine at matched (n, ℓ) — density evolution and
/// literal simulation agree end-to-end.
#[test]
fn exact_absorption_cdf_brackets_monte_carlo() {
    let n: u64 = 24;
    let ell: u64 = 8;
    let chain = ExactChain::new(n, ell).expect("valid");
    let at = AbsorptionTime::from_chain(&chain, 1, 1, 20_000).expect("valid");
    assert!(at.mass_at_horizon() > 0.9999);

    // Monte-Carlo: the aggregate chain is the same law sampled; use the
    // agent engine for full independence of codepaths.
    let reps = 300u64;
    let mut times: Vec<u64> = Vec::with_capacity(reps as usize);
    for rep in 0..reps {
        let protocol = FetProtocol::new(ell as u32).expect("valid");
        let spec = ProblemSpec::single_source(n, Opinion::One).expect("valid");
        // All-wrong start with stale counts ℓ (the (1,1) corner state).
        let states = vec![
            fet::core::fet::FetState {
                opinion: Opinion::Zero,
                prev_count_second_half: 0,
            };
            (n - 1) as usize
        ];
        let mut engine = Engine::from_population(
            Box::new(TypedPopulation::from_states(protocol, states)),
            spec,
            Fidelity::Agent,
            3_000 + rep,
        )
        .expect("valid");
        let report = engine.run(100_000, ConvergenceCriterion::new(1), &mut NullObserver);
        times.push(report.converged_at.expect("must converge"));
    }
    times.sort_unstable();
    let mc_median = times[times.len() / 2];
    let exact_p25 = at.quantile(0.25).expect("mass reached");
    let exact_p75 = at.quantile(0.75).expect("mass reached");
    // The MC median must land in the exact interquartile range, modulo
    // the ±1-round offset between detector and chain conventions.
    assert!(
        mc_median + 1 >= exact_p25 && mc_median <= exact_p75 + 1,
        "MC median {mc_median} outside exact IQR [{exact_p25}, {exact_p75}]"
    );
}

/// The three density-evolution views are mutually consistent: occupation
/// total = tail-corrected mean of the CDF = value-iteration E[T].
#[test]
fn density_views_triangulate() {
    let chain = ExactChain::new(16, 6).expect("valid");
    let expect = chain.expected_time_all_wrong().expect("solves");
    let at = AbsorptionTime::from_chain(&chain, 1, 1, 5_000).expect("valid");
    let occ = OccupationMeasure::from_chain(&chain, 1, 1, 5_000).expect("valid");
    let qsd = QuasiStationary::of_chain(&chain, 1e-12, 300_000).expect("converges");
    assert!((at.mean() - expect).abs() < 0.02 * expect);
    assert!((occ.total_expected_rounds() - expect).abs() < 0.02 * expect);
    // The QSD residual time lower-bounds nothing in general, but both
    // quantities must be positive and finite together.
    assert!(qsd.expected_residual_time().is_finite());
}

/// Conflicting stubborn emitters destroy FET's absorbing state; removing
/// the conflict restores Theorem 1 behaviour. (adversary + core + sim)
#[test]
fn conflict_oscillates_but_agreement_absorbs() {
    let protocol = FetProtocol::new(24).expect("valid");
    // Conflict: 30 vs 90 stubborn agents — no settling.
    let mut conflicted =
        ConflictEngine::new(protocol.clone(), 1_200, 30, 90, 0.5, 5).expect("valid");
    let out = conflicted.run_measure(500, 2_000);
    assert!(
        out.max_x - out.min_x > 0.3,
        "conflict should keep the system moving: {out:?}"
    );
    // Agreement: all 120 stubborn agents emit 1 — the multi-source case of
    // §5; convergence to all-1 and absorption.
    let mut agreeing = ConflictEngine::new(protocol, 1_200, 0, 120, 0.0, 5).expect("valid");
    let settled = agreeing.run_measure(2_000, 50);
    assert_eq!(
        settled.min_x, 1.0,
        "agreeing sources must reach unanimity: {settled:?}"
    );
}
