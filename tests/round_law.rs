//! The law of one whole round, checked against its exact reference.
//!
//! Fix the round-start configuration. In the PULL model each non-source
//! agent's next output is then an independent Bernoulli (Observation 1).
//! Agent `v` observes `m = 2ℓ` agents with replacement, each observed bit
//! flipped at `δ`. On a graph, vertex `v` of degree `d_v` with `k_v`
//! round-start 1-neighbors sees 1-fraction `f_v = k_v/d_v`; on the complete
//! graph (Binomial and Agent fidelity) every agent sees the population's
//! 1-fraction `x`, sources included. Its first-half count is then
//! `C′ ~ Binomial(ℓ, f_v(1 − δ) + (1 − f_v)δ)`, and FET outputs 1 with
//! probability `q_v = P(C′ > c″_v) + [o_v = 1]·P(C′ = c″_v)`, where `o_v`
//! and `c″_v` are the agent's round-start opinion and stored half-count. An
//! agent that sleeps through the round with probability `s` keeps `o_v`, so
//! its Bernoulli is `s·[o_v = 1] + (1 − s)·q_v`. The number of ones after
//! the round is the sources' ones plus a Poisson-binomial count over these
//! Bernoullis, whose pmf an `O(n²)` DP gives exactly.
//!
//! The suite starts from one fixed, non-stationary configuration (clocks
//! spread over `0..=ℓ` whatever the neighborhood). The graph is a small
//! irregular one whose degrees fall on both sides of `m`, so both of
//! `GraphSource`'s paths run: vertices with `d ≤ m` count their neighbors
//! and draw `Binomial(m, k/d)`, the others draw `m` neighbor indices. The
//! suite replays one round a few thousand times at fresh seeds, tallies the
//! ones, and chi-squares the tally against that pmf. Legs:
//!
//! * graph rounds — typed fused, typed fused-parallel over three shards,
//!   and bit-plane fused — at `δ = 0` and `δ = 0.05`;
//! * sleepy rounds at `s = 0.3` and `δ = 0.05`: the same three graph legs,
//!   and Binomial and literal Agent rounds on the complete graph, typed
//!   fused and bit-plane fused.
//!
//! Every leg builds its engine from the configuration with
//! `Engine::from_population`, on typed or bit-plane storage, and the graph
//! legs add the graph with `Engine::with_neighborhood`. Every leg
//! also shows power: the same tally must reject the pmf with every observed
//! fraction moved by 0.05. Every sleepy leg must also reject the pmf at
//! `s = 0`, which is what sleepers that update anyway would produce.
//!
//! The suite runs at fixed seeds, so it is deterministic. Its legs share one
//! family-wise level `α = 10⁻³`, split evenly (Bonferroni). It takes
//! 4.5–5.3 s in a debug build on a 2-vCPU x86-64 host.

use fet::core::bitplane::BitPopulation;
use fet::core::config::ProblemSpec;
use fet::core::fet::FetState;
use fet::prelude::*;
use fet::stats::binomial::Binomial;
use fet::topology::builders::erdos_renyi;
use fet::topology::graph::SharedGraph;
use law::{assert_law, chi_square_p, shifted};
use std::sync::Arc;

mod law;

/// Vertices, one of them the source.
const N: u32 = 100;
const ELL: u32 = 6;
/// Observations per agent, `m = 2ℓ`: the degree that splits the paths.
const M: u32 = 2 * ELL;
/// The source's opinion, which is also the correct one.
const CORRECT: Opinion = Opinion::One;
const FLIPS: [f64; 2] = [0.0, 0.05];
/// Sleep probability and flip probability of the sleepy legs.
const SLEEP: f64 = 0.3;
const SLEEPY_FLIP: f64 = 0.05;
/// Replays per leg.
const REPLAYS: u64 = 3_000;
/// Family-wise false-rejection budget of the whole suite.
const FAMILY_ALPHA: f64 = 1e-3;
/// Three graph legs at each δ, three sleepy graph legs and four sleepy
/// complete-graph legs.
const TESTS: usize = 3 * FLIPS.len() + 3 + 4;
const ALPHA: f64 = FAMILY_ALPHA / TESTS as f64;
/// The leg axes: literal sampling, and the two fused modes.
const AGENT: Fidelity = Fidelity::Agent;
const FUSED: ExecutionMode = ExecutionMode::Fused;
const SHARDED: ExecutionMode = ExecutionMode::FusedParallel { threads: 3 };

/// A small irregular graph whose degrees straddle `m`.
fn graph() -> Arc<Graph> {
    let mut rng = SeedTree::new(0x0209_1A77).child("graph").rng();
    let graph = erdos_renyi(N, 0.125, &mut rng).expect("valid graph");
    let counting = (1..N).filter(|&v| graph.degree(v) <= M).count();
    let drawing = (1..N).filter(|&v| graph.degree(v) > M).count();
    assert!(
        4 * counting >= N as usize && 4 * drawing >= N as usize && graph.min_degree() > 0,
        "{counting} agents count and {drawing} draw; each side needs a quarter of the graph"
    );
    Arc::new(graph)
}

/// The fixed configuration of agents `1..N`: about 35% ones, scattered, and
/// stored half-counts spread over `0..=ℓ` independently of the opinions.
fn configuration() -> Vec<FetState> {
    (0..N - 1)
        .map(|i| FetState {
            opinion: Opinion::from((i * 37 + 11) % 100 < 35),
            prev_count_second_half: (i * 5 + 3) % (ELL + 1),
        })
        .collect()
}

/// Vertex `v`'s round-start 1-fraction among its neighbors, per agent.
fn graph_fractions(graph: &Graph, config: &[FetState]) -> Vec<f64> {
    let is_one = |v: u32| v == 0 || config[v as usize - 1].opinion.is_one();
    (1..N)
        .map(|v| {
            let neighbors = graph.neighbors(v);
            let ones = neighbors.iter().filter(|&&u| is_one(u)).count();
            ones as f64 / neighbors.len() as f64
        })
        .collect()
}

/// The population's round-start 1-fraction, source included, per agent.
fn complete_fractions(config: &[FetState]) -> Vec<f64> {
    let ones = 1 + config.iter().filter(|s| s.opinion.is_one()).count();
    vec![ones as f64 / f64::from(N); config.len()]
}

/// The exact pmf of the ones after one round, over `0..=N`. Agent `v` sees
/// 1-fraction `fractions[v]`, passed through `move_f` first, its observed
/// bits flip at `delta`, and it sleeps with probability `sleep`.
fn round_pmf(
    config: &[FetState],
    fractions: &[f64],
    delta: f64,
    sleep: f64,
    move_f: impl Fn(f64) -> f64,
) -> Vec<f64> {
    let mut pmf = vec![1.0];
    for (state, &f) in config.iter().zip(fractions) {
        let f = move_f(f);
        let first_half = Binomial::new(u64::from(ELL), f * (1.0 - delta) + (1.0 - f) * delta)
            .expect("a probability");
        let stored = u64::from(state.prev_count_second_half);
        let kept = if state.opinion.is_one() { 1.0 } else { 0.0 };
        let awake = first_half.survival(stored) + kept * first_half.pmf(stored);
        let q = sleep * kept + (1.0 - sleep) * awake;
        let mut next = vec![0.0; pmf.len() + 1];
        for (j, &p) in pmf.iter().enumerate() {
            next[j] += p * (1.0 - q);
            next[j + 1] += p * q;
        }
        pmf = next;
    }
    // The source shows the correct opinion, a one.
    pmf.insert(0, 0.0);
    pmf
}

fn faults(delta: f64, sleep: f64) -> FaultPlan {
    FaultPlan {
        sleep_prob: sleep,
        ..FaultPlan::with_noise(delta).expect("valid flip probability")
    }
}

fn ones(fraction_ones: f64) -> u64 {
    (fraction_ones * f64::from(N)).round() as u64
}

fn spec() -> ProblemSpec {
    ProblemSpec::new(u64::from(N), 1, CORRECT).expect("valid spec")
}

/// The configuration on typed storage.
fn typed(config: &[FetState]) -> Box<TypedPopulation<FetProtocol>> {
    let protocol = FetProtocol::new(ELL).expect("valid ℓ");
    Box::new(TypedPopulation::from_states(protocol, config.to_vec()))
}

/// The configuration on bit planes.
fn bit_planes(config: &[FetState]) -> Box<BitPopulation<FetProtocol>> {
    let protocol = FetProtocol::new(ELL).expect("valid ℓ");
    Box::new(BitPopulation::from_states(protocol, config))
}

/// Ones after one engine round from `container`, on the graph when one is
/// given and on the complete graph otherwise.
fn round<A: Population + ?Sized>(
    container: Box<A>,
    graph: Option<&Arc<Graph>>,
    fidelity: Fidelity,
    mode: ExecutionMode,
    fault: FaultPlan,
    seed: u64,
) -> u64 {
    let mut engine =
        Engine::from_population(container, spec(), fidelity, seed).expect("valid configuration");
    if let Some(graph) = graph {
        let neighborhood = Box::new(SharedGraph::new(Arc::clone(graph)));
        engine = engine
            .with_neighborhood(neighborhood)
            .expect("an observable graph on N vertices");
    }
    engine
        .set_execution_mode(mode)
        .expect("every leg's mode runs");
    engine.set_fault_plan(fault).expect("valid fault plan");
    engine.step();
    ones(engine.fraction_ones())
}

/// The ones after `REPLAYS` replays of `round`, tallied over `0..=N`, at
/// seeds drawn from the case's own lane.
fn tally(tree: &SeedTree, case: &str, round: &dyn Fn(u64) -> u64) -> Vec<u64> {
    let base = tree.child(case).seed();
    let mut observed = vec![0u64; N as usize + 1];
    for replay in 0..REPLAYS {
        observed[round(base.wrapping_add(replay)) as usize] += 1;
    }
    observed
}

/// Asserts the tally rejects the law of sleepers that update anyway.
fn assert_rejects_awake_law(case: &str, observed: &[u64], awake: &[f64]) {
    let p = chi_square_p(observed, awake);
    assert!(
        p <= ALPHA,
        "{case}: the s = 0 law still reads p = {p:.2e}; sleepers look awake"
    );
}

#[test]
fn graph_rounds_follow_the_exact_round_law() {
    let graph = graph();
    let config = configuration();
    let fractions = graph_fractions(&graph, &config);
    let tree = SeedTree::new(0x0209_1A70);
    for delta in FLIPS {
        let pmf = round_pmf(&config, &fractions, delta, 0.0, |f| f);
        let moved = round_pmf(&config, &fractions, delta, 0.0, shifted);
        let fault = faults(delta, 0.0);
        let legs: [(&str, &dyn Fn(u64) -> u64); 3] = [
            ("typed fused", &|seed| {
                round(typed(&config), Some(&graph), AGENT, FUSED, fault, seed)
            }),
            ("typed fused-parallel(3)", &|seed| {
                round(typed(&config), Some(&graph), AGENT, SHARDED, fault, seed)
            }),
            ("bit-plane fused", &|seed| {
                round(bit_planes(&config), Some(&graph), AGENT, FUSED, fault, seed)
            }),
        ];
        for (leg, round) in legs {
            let case = format!("{leg}, δ = {delta}");
            let observed = tally(&tree, &case, round);
            assert_law(&case, &observed, &pmf, &moved, ALPHA);
        }
    }
}

#[test]
fn sleepy_graph_rounds_follow_the_exact_round_law() {
    let graph = graph();
    let config = configuration();
    let fractions = graph_fractions(&graph, &config);
    let tree = SeedTree::new(0x5133_9A70);
    let pmf = round_pmf(&config, &fractions, SLEEPY_FLIP, SLEEP, |f| f);
    let moved = round_pmf(&config, &fractions, SLEEPY_FLIP, SLEEP, shifted);
    let awake = round_pmf(&config, &fractions, SLEEPY_FLIP, 0.0, |f| f);
    let fault = faults(SLEEPY_FLIP, SLEEP);
    let legs: [(&str, &dyn Fn(u64) -> u64); 3] = [
        ("sleepy graph typed fused", &|seed| {
            round(typed(&config), Some(&graph), AGENT, FUSED, fault, seed)
        }),
        ("sleepy graph typed fused-parallel(3)", &|seed| {
            round(typed(&config), Some(&graph), AGENT, SHARDED, fault, seed)
        }),
        ("sleepy graph bit-plane fused", &|seed| {
            round(bit_planes(&config), Some(&graph), AGENT, FUSED, fault, seed)
        }),
    ];
    for (case, round) in legs {
        let observed = tally(&tree, case, round);
        assert_law(case, &observed, &pmf, &moved, ALPHA);
        assert_rejects_awake_law(case, &observed, &awake);
    }
}

#[test]
fn sleepy_complete_graph_rounds_follow_the_exact_round_law() {
    let config = configuration();
    let fractions = complete_fractions(&config);
    let tree = SeedTree::new(0x5133_C0A7);
    let pmf = round_pmf(&config, &fractions, SLEEPY_FLIP, SLEEP, |f| f);
    let moved = round_pmf(&config, &fractions, SLEEPY_FLIP, SLEEP, shifted);
    let awake = round_pmf(&config, &fractions, SLEEPY_FLIP, 0.0, |f| f);
    let fault = faults(SLEEPY_FLIP, SLEEP);
    let binomial = Fidelity::Binomial;
    let legs: [(&str, &dyn Fn(u64) -> u64); 4] = [
        ("sleepy binomial typed fused", &|seed| {
            round(typed(&config), None, binomial, FUSED, fault, seed)
        }),
        ("sleepy binomial bit-plane fused", &|seed| {
            round(bit_planes(&config), None, binomial, FUSED, fault, seed)
        }),
        ("sleepy agent typed fused", &|seed| {
            round(typed(&config), None, AGENT, FUSED, fault, seed)
        }),
        ("sleepy agent bit-plane fused", &|seed| {
            round(bit_planes(&config), None, AGENT, FUSED, fault, seed)
        }),
    ];
    for (case, round) in legs {
        let observed = tally(&tree, case, round);
        assert_law(case, &observed, &pmf, &moved, ALPHA);
        assert_rejects_awake_law(case, &observed, &awake);
    }
}
