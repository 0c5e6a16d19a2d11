//! The law of one whole graph round, checked against its exact reference.
//!
//! Fix the round-start configuration. In the PULL model each non-source
//! agent's next output is then an independent Bernoulli (Observation 1).
//! Vertex `v`, of degree `d_v` with `k_v` round-start 1-neighbors, observes
//! `m = 2ℓ` neighbors with replacement, each observed bit flipped at `δ`,
//! so its first-half count is `C′ ~ Binomial(ℓ, f_v(1 − δ) + (1 − f_v)δ)`
//! with `f_v = k_v/d_v`. FET then outputs 1 with probability
//! `q_v = P(C′ > c″_v) + [o_v = 1]·P(C′ = c″_v)`, where `o_v` and `c″_v`
//! are the vertex's round-start opinion and stored half-count. The number
//! of ones after the round is the sources' ones plus a Poisson-binomial
//! count over the `q_v`, whose pmf an `O(n²)` DP gives exactly.
//!
//! The suite starts from one fixed, non-stationary configuration (clocks
//! spread over `0..=ℓ` whatever the neighborhood) on a small irregular
//! graph whose degrees fall on both sides of `m`, so both of
//! `GraphSource`'s paths run: vertices with `d ≤ m` count their neighbors
//! and draw `Binomial(m, k/d)`, the others draw `m` neighbor indices. It
//! replays one round a few thousand times at fresh seeds, tallies the ones,
//! and chi-squares the tally against that pmf. Legs: typed fused, typed
//! fused-parallel over three shards, and bit-plane fused, each at `δ = 0`
//! and `δ = 0.05`. No engine constructor takes explicit states on bit
//! planes together with a neighborhood, so the bit-plane leg steps a
//! `BitPopulation` through `Population::step_round` over the packed
//! snapshot view and the graph factory, as the engine's bit-plane round
//! does. Every leg also shows power: the same tally must reject the pmf
//! with every `f_v` moved by 0.05.
//!
//! The suite runs at fixed seeds, so it is deterministic. Its legs share one
//! family-wise level `α = 10⁻³`, split evenly (Bonferroni). It takes
//! 2.6–3.5 s in a debug build on a 2-vCPU x86-64 host.

use fet::core::bitplane::BitPopulation;
use fet::core::fet::FetState;
use fet::core::protocol::RoundContext;
use fet::prelude::*;
use fet::sim::init::InitialCondition;
use fet::sim::sources::{GraphSourceFactory, SnapshotView};
use fet::stats::binomial::Binomial;
use fet::topology::builders::erdos_renyi;
use fet::topology::graph::SharedGraph;
use law::{assert_law, shifted};
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
/// Replays per leg.
const REPLAYS: u64 = 3_000;
/// Family-wise false-rejection budget of the whole suite.
const FAMILY_ALPHA: f64 = 1e-3;
/// Typed fused, typed fused-parallel(3) and bit-plane fused, at each δ.
const TESTS: usize = 3 * FLIPS.len();
const ALPHA: f64 = FAMILY_ALPHA / TESTS as f64;

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

/// The exact pmf of the ones after one round, over `0..=N`, with each
/// neighborhood fraction passed through `move_f` first.
fn round_pmf(
    graph: &Graph,
    config: &[FetState],
    delta: f64,
    move_f: impl Fn(f64) -> f64,
) -> Vec<f64> {
    let is_one = |v: u32| v == 0 || config[v as usize - 1].opinion.is_one();
    let mut pmf = vec![1.0];
    for (agent, state) in config.iter().enumerate() {
        let neighbors = graph.neighbors(agent as u32 + 1);
        let ones = neighbors.iter().filter(|&&u| is_one(u)).count();
        let f = move_f(ones as f64 / neighbors.len() as f64);
        let first_half = Binomial::new(u64::from(ELL), f * (1.0 - delta) + (1.0 - f) * delta)
            .expect("a probability");
        let stored = u64::from(state.prev_count_second_half);
        let q = first_half.survival(stored)
            + if state.opinion.is_one() {
                first_half.pmf(stored)
            } else {
                0.0
            };
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

fn noise(delta: f64) -> FaultPlan {
    FaultPlan::with_noise(delta).expect("valid flip probability")
}

/// Ones after one typed engine round from the configuration.
fn typed_round(
    graph: &Arc<Graph>,
    config: &[FetState],
    mode: ExecutionMode,
    delta: f64,
    seed: u64,
) -> u64 {
    let mut engine = Engine::with_neighborhood(
        FetProtocol::new(ELL).expect("valid ℓ"),
        Box::new(SharedGraph::new(Arc::clone(graph))),
        1,
        CORRECT,
        InitialCondition::AllWrong,
        seed,
    )
    .expect("valid engine");
    engine.states_mut().copy_from_slice(config);
    engine.refresh_caches();
    engine.set_execution_mode(mode).expect("graph-capable mode");
    engine.set_fault_plan(noise(delta));
    engine.step();
    (engine.fraction_ones() * f64::from(N)).round() as u64
}

/// Ones after one bit-plane round from the configuration: the engine's
/// bit-plane graph round, with the snapshot words and streams made here.
fn bit_plane_round(graph: &Graph, config: &[FetState], delta: f64, seed: u64) -> u64 {
    let protocol = FetProtocol::new(ELL).expect("valid ℓ");
    let mut population = BitPopulation::from_states(protocol, config);
    let mut words = vec![0u64; config.len().div_ceil(64)];
    population.write_opinion_words(&mut words);
    let view = SnapshotView::Bits {
        source_output: CORRECT,
        num_sources: 1,
        words: &words,
    };
    let fault = noise(delta);
    let lanes = SeedTree::new(seed);
    let factory = GraphSourceFactory::new(
        graph,
        view,
        (delta > 0.0).then_some(&fault),
        M,
        1,
        lanes.child("graph-index").seed(),
        0,
    );
    let mut rng = lanes.child("engine").rng();
    let counters = population.step_round(
        &factory,
        &RoundContext::new(0),
        RoundStreams::Main(&mut rng),
        CORRECT,
        None,
    );
    1 + counters.ones
}

#[test]
fn graph_rounds_follow_the_exact_round_law() {
    let graph = graph();
    let config = configuration();
    let tree = SeedTree::new(0x0209_1A70);
    for delta in FLIPS {
        let pmf = round_pmf(&graph, &config, delta, |f| f);
        let moved = round_pmf(&graph, &config, delta, shifted);
        let legs: [(&str, &dyn Fn(u64) -> u64); 3] = [
            ("typed fused", &|seed| {
                typed_round(&graph, &config, ExecutionMode::Fused, delta, seed)
            }),
            ("typed fused-parallel(3)", &|seed| {
                let mode = ExecutionMode::FusedParallel { threads: 3 };
                typed_round(&graph, &config, mode, delta, seed)
            }),
            ("bit-plane fused", &|seed| {
                bit_plane_round(&graph, &config, delta, seed)
            }),
        ];
        for (leg, round) in legs {
            let case = format!("{leg}, δ = {delta}");
            let base = tree.child(&case).seed();
            let mut observed = vec![0u64; N as usize + 1];
            for replay in 0..REPLAYS {
                observed[round(base.wrapping_add(replay)) as usize] += 1;
            }
            assert_law(&case, &observed, &pmf, &moved, ALPHA);
        }
    }
}
