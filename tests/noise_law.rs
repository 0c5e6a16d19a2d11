//! The law of every observation source, checked against exact references.
//!
//! In the (noisy) PULL model an agent observes `m` agents drawn uniformly
//! with replacement, and every observed bit flips independently with
//! probability `δ`. The engine realizes that law several ways, and this
//! suite checks each in law rather than by stream bytes:
//!
//! * [`FaultPlan::corrupt_count`] (hypergeometric and index-sampled
//!   draws) must turn a true count `k` of `m` bits into
//!   `k − Bin(k, δ) + Bin(m − k, δ)`. A chi-square test compares it with
//!   that pmf, convolved exactly from [`Binomial::pmf`].
//! * The observation sources, one draw at a time, by chi-square against
//!   their exact pmfs: the complete-graph index source (literal Agent
//!   fidelity) against `Binomial(m, x)` — on the byte snapshot and on
//!   packed bit planes with a source prefix, with and without noise — the
//!   CSR graph source against `Binomial(m, ones_in_N(v)/deg(v))` on an
//!   irregular graph, through both views and on both sides of its
//!   count-or-draw rule (`deg(v) ≤ m` counts), and the without-replacement
//!   source against the hypergeometric pmf. Each test also shows power: the same draws must
//!   reject the pmf at a probability moved by 0.05.
//! * The binomial mean-field source against `Binomial(m, p′)` on both
//!   sides of the unanimous-run threshold: at `u = max((1 − p′)^m, p′^m)`
//!   just below and just above [`UNANIMOUS_RUN_THRESHOLD`], with either
//!   count unanimous, and at `p′ ∈ {10⁻⁶, 1 − 10⁻⁶}`. The tally takes the
//!   repeats the source reports after each unanimous count, as the FET
//!   kernel does.
//! * Binomial rounds fold `δ` into the round's sampler,
//!   `Binomial(m, x(1 − δ) + (1 − x)δ)`, and no round path corrupts a
//!   binomial draw again. Two-sample KS tests compare `x_{t+1}` after one
//!   round — folded binomial fused on typed and on bit-plane storage, and
//!   literal Agent on bit planes and sharded three ways — with `x_{t+1}`
//!   after one fused literal-Agent round (index sampling plus
//!   `corrupt_count`) from the same configuration. Sleepy rounds are
//!   checked against their exact law in `tests/round_law.rs`.
//!
//! Every test runs at fixed seeds, so the suite is deterministic. Its
//! tests share one family-wise level `α = 10⁻³`, split evenly
//! (Bonferroni) across the [`TESTS`] comparisons below.

use fet::core::bitplane::BitPopulation;
use fet::core::config::ProblemSpec;
use fet::core::fet::FetState;
use fet::core::protocol::ObservationSource;
use fet::prelude::*;
use fet::sim::sources::{
    BinomialRound, GraphSourceFactory, MeanFieldSampler, MeanFieldSourceFactory, SnapshotView,
    UNANIMOUS_RUN_THRESHOLD,
};
use fet::stats::binomial::Binomial;
use fet::stats::distance::ks_same_distribution;
use fet::stats::hypergeometric::Hypergeometric;
use fet::topology::builders::erdos_renyi;
use law::{assert_law, chi_square_p, shifted};
use rand::Rng;

mod law;

/// Family-wise false-rejection budget of the whole suite.
const FAMILY_ALPHA: f64 = 1e-3;

/// Past `δ = ½` most bits flip, so the skip loop visits most positions.
const FLIP_PROBS: [f64; 6] = [1e-3, 0.02, 0.3, 0.5, 0.7, 0.98];
const SAMPLE_SIZES: [u32; 2] = [20, 74];
/// True counts per sample size: 0, 1, m/2, m − 1 and m.
const COUNTS_PER_SIZE: usize = 5;
/// Population sizes of the source tests: a power of two (Lemire draws
/// never reject) and one that is not.
const SOURCE_NS: [u32; 2] = [64, 2000];
/// Population 1-counts per size: 1, ⌊n/3⌋ and n − 1.
const ONES_PER_N: usize = 3;
const SOURCE_SAMPLE_SIZES: [u32; 3] = [1, 9, 62];
/// Snapshot views of the complete-graph source: the byte snapshot, and
/// bit planes behind 1 and 3 source vertices.
const VIEWS: [Option<u32>; 3] = [None, Some(1), Some(3)];
/// Flip probability of the noisy complete-graph source tests.
const SOURCE_FLIP: f64 = 0.05;
/// Vertices of the irregular graph whose draws are tested.
const GRAPH_VERTICES: usize = 3;
/// Snapshot views of the graph source: bytes, and bit planes.
const GRAPH_VIEWS: usize = 2;
/// Source-test grid points per (n, ones, m).
const SOURCE_CELLS: usize = SOURCE_NS.len() * ONES_PER_N * SOURCE_SAMPLE_SIZES.len();
/// Unanimity probabilities of the binomial source tests, as multiples of
/// the run threshold: just below it and just above it.
const RUN_SIDES: [f64; 2] = [0.99, 1.01];
/// Binomial source cells per `m`: each side of the threshold with either
/// count unanimous, and `p′ ∈ {10⁻⁶, 1 − 10⁻⁶}`.
const RUN_CELLS: usize = RUN_SIDES.len() * 2 + 2;
/// One chi-square test per (δ, m, k) of `corrupt_count`; per complete-graph
/// source cell and view, plus its noisy cell; per graph vertex, `m` and
/// view; per hypergeometric cell; per binomial source cell; plus the KS
/// tests of the fold: fused typed, fused bit-plane, Agent bit-plane and
/// Agent fused-parallel(3).
const TESTS: usize = FLIP_PROBS.len() * SAMPLE_SIZES.len() * COUNTS_PER_SIZE
    + SOURCE_CELLS * (VIEWS.len() + 1)
    + GRAPH_VERTICES * SOURCE_SAMPLE_SIZES.len() * GRAPH_VIEWS
    + SOURCE_CELLS
    + RUN_CELLS * SOURCE_SAMPLE_SIZES.len()
    + 4;
const ALPHA: f64 = FAMILY_ALPHA / TESTS as f64;

/// Draws per chi-square test.
const DRAWS: usize = 20_000;

/// The exact pmf of the observed count: `k − Bin(k, δ) + Bin(m − k, δ)`.
fn corrupted_pmf(k: u32, m: u32, delta: f64) -> Vec<f64> {
    let lost = Binomial::new(u64::from(k), delta).expect("δ is a probability");
    let gained = Binomial::new(u64::from(m - k), delta).expect("δ is a probability");
    let mut pmf = vec![0.0; m as usize + 1];
    for l in 0..=k {
        for g in 0..=(m - k) {
            pmf[(k - l + g) as usize] += lost.pmf(u64::from(l)) * gained.pmf(u64::from(g));
        }
    }
    pmf
}

/// `Binomial(m, p)` as a vector over `0..=m`.
fn binomial_pmf(m: u32, p: f64) -> Vec<f64> {
    let law = Binomial::new(u64::from(m), p).expect("p is a probability");
    (0..=u64::from(m)).map(|k| law.pmf(k)).collect()
}

/// `DRAWS` observations from `source`, tallied by 1-count.
fn tally(source: &mut dyn ObservationSource, m: u32, rng: &mut dyn rand::RngCore) -> Vec<u64> {
    let mut observed = vec![0u64; m as usize + 1];
    for _ in 0..DRAWS {
        let obs = source.next_observation(rng);
        assert_eq!(obs.sample_size(), m);
        observed[obs.ones() as usize] += 1;
    }
    observed
}

/// Exactly `k` of `0..len` marked, scattered (37 is prime to every
/// length used here).
fn scattered(len: u32, k: u32) -> impl Iterator<Item = bool> {
    (0..len).map(move |i| (u64::from(i) * 37 + 11) % u64::from(len) < u64::from(k))
}

#[test]
fn corrupt_count_follows_the_flip_law() {
    let tree = SeedTree::new(0x0015_E1A7);
    for delta in FLIP_PROBS {
        let plan = FaultPlan::with_noise(delta).expect("valid flip probability");
        for m in SAMPLE_SIZES {
            let counts = [0, 1, m / 2, m - 1, m];
            assert_eq!(counts.len(), COUNTS_PER_SIZE);
            for k in counts {
                let mut rng = tree.child(&format!("δ={delta} m={m} k={k}")).rng();
                let mut observed = vec![0u64; m as usize + 1];
                for _ in 0..DRAWS {
                    observed[plan.corrupt_count(k, m, &mut rng) as usize] += 1;
                }
                let p_value = chi_square_p(&observed, &corrupted_pmf(k, m, delta));
                assert!(
                    p_value > ALPHA,
                    "δ = {delta}, m = {m}, k = {k}: p = {p_value:.2e} ≤ {ALPHA:.1e}"
                );
            }
        }
    }
}

#[test]
fn full_flip_inverts_every_count() {
    let plan = FaultPlan::with_noise(1.0).expect("valid flip probability");
    let mut rng = SeedTree::new(3).child("invert").rng();
    for m in SAMPLE_SIZES {
        for k in 0..=m {
            assert_eq!(
                plan.corrupt_count(k, m, &mut rng),
                m - k,
                "m = {m}, k = {k}"
            );
        }
    }
}

// --- The observation sources, one draw at a time ----------------------------

/// The complete-graph index source draws `m` of all `n` vertices with
/// replacement, so an observation is `Binomial(m, ones/n)` — through the
/// byte snapshot and through bit planes whose source prefix is answered
/// arithmetically, and `Binomial(m, x(1 − δ) + (1 − x)δ)` under noise.
#[test]
fn complete_graph_source_draws_the_binomial_law() {
    let tree = SeedTree::new(0xA6E7_1AE7);
    let noise = FaultPlan::with_noise(SOURCE_FLIP).expect("valid flip probability");
    for n in SOURCE_NS {
        for ones in [1, n / 3, n - 1] {
            let x = f64::from(ones) / f64::from(n);
            let bytes: Vec<Opinion> = scattered(n, ones).map(Opinion::from).collect();
            for view_sources in VIEWS {
                let mut words = Vec::new();
                let view = match view_sources {
                    None => SnapshotView::Bytes(&bytes),
                    Some(sources) => {
                        // The sources show One exactly when they can.
                        let source_ones = if ones >= sources { sources } else { 0 };
                        words.resize((n - sources).div_ceil(64) as usize, 0u64);
                        for (i, one) in scattered(n - sources, ones - source_ones).enumerate() {
                            words[i / 64] |= u64::from(one) << (i % 64);
                        }
                        SnapshotView::Bits {
                            source_output: Opinion::from(source_ones > 0),
                            num_sources: sources,
                            words: &words,
                        }
                    }
                };
                for m in SOURCE_SAMPLE_SIZES {
                    let case =
                        format!("complete n = {n}, ones = {ones}, m = {m}, {view_sources:?}");
                    let mut rng = tree.child(&case).rng();
                    let factory = GraphSourceFactory::complete(n, view, None, m, 0, rng.gen(), 0);
                    let mut source = factory.source_for(0..DRAWS);
                    let observed = tally(&mut source, m, &mut rng);
                    assert_law(
                        &case,
                        &observed,
                        &binomial_pmf(m, x),
                        &binomial_pmf(m, shifted(x)),
                        ALPHA,
                    );
                }
            }
            for m in SOURCE_SAMPLE_SIZES {
                let p = x * (1.0 - SOURCE_FLIP) + (1.0 - x) * SOURCE_FLIP;
                let case = format!("noisy complete n = {n}, ones = {ones}, m = {m}");
                let mut rng = tree.child(&case).rng();
                let factory =
                    GraphSourceFactory::complete(n, &bytes, Some(&noise), m, 0, rng.gen(), 0);
                let mut source = factory.source_for(0..DRAWS);
                let observed = tally(&mut source, m, &mut rng);
                assert_law(
                    &case,
                    &observed,
                    &binomial_pmf(m, p),
                    &binomial_pmf(m, shifted(p)),
                    ALPHA,
                );
            }
        }
    }
}

/// On an explicit graph, vertex `v` observes `m` of its `deg(v)` neighbors
/// with replacement: `Binomial(m, ones_in_N(v)/deg(v))`, whether it counts
/// its neighbors (`deg(v) ≤ m`) or draws `m` of them (`deg(v) > m`). Tested
/// on an irregular Erdős–Rényi graph, at vertices of distinct degrees, with
/// cells on both sides of the rule, through the byte snapshot and through
/// bit planes behind a one-vertex source prefix, one round's draw stream per
/// draw — as the engine keys them.
#[test]
fn graph_source_draws_the_neighborhood_binomial_law() {
    let n = 120u32;
    let tree = SeedTree::new(0x6A_1A11);
    let graph = erdos_renyi(n, 0.08, &mut tree.child("graph").rng()).expect("valid graph");
    let snapshot: Vec<Opinion> = scattered(n, n / 3).map(Opinion::from).collect();
    // The same snapshot with vertex 0 as the source prefix.
    let mut words = vec![0u64; (n - 1).div_ceil(64) as usize];
    for (i, opinion) in snapshot[1..].iter().enumerate() {
        words[i / 64] |= u64::from(opinion.is_one()) << (i % 64);
    }
    let views = [
        ("bytes", SnapshotView::Bytes(&snapshot)),
        (
            "bits",
            SnapshotView::Bits {
                source_output: snapshot[0],
                num_sources: 1,
                words: &words,
            },
        ),
    ];
    assert_eq!(views.len(), GRAPH_VIEWS);
    let ones_near = |v: u32| {
        graph
            .neighbors(v)
            .iter()
            .filter(|&&u| snapshot[u as usize].is_one())
            .count() as u32
    };
    let mut degrees = Vec::new();
    let vertices: Vec<u32> = (0..n)
        .filter(|&v| {
            let (d, k) = (graph.degree(v), ones_near(v));
            let fresh = d >= 2 && 0 < k && k < d && !degrees.contains(&d);
            if fresh {
                degrees.push(d);
            }
            fresh
        })
        .take(GRAPH_VERTICES)
        .collect();
    assert_eq!(vertices.len(), GRAPH_VERTICES, "degrees {degrees:?}");
    let counted = vertices
        .iter()
        .flat_map(|&v| SOURCE_SAMPLE_SIZES.map(|m| graph.degree(v) <= m))
        .filter(|&counts| counts)
        .count();
    let cells = GRAPH_VERTICES * SOURCE_SAMPLE_SIZES.len();
    assert!(
        0 < counted && counted < cells,
        "{counted} of {cells} cells count their neighbors; both sides of d ≤ m must be tested"
    );
    for v in vertices {
        let d = graph.degree(v);
        let x = f64::from(ones_near(v)) / f64::from(d);
        for m in SOURCE_SAMPLE_SIZES {
            for (label, view) in views {
                let case = format!("graph v = {v}, deg = {d}, m = {m}, {label}");
                let mut rng = tree.child(&case).rng();
                let stream = rng.gen();
                let mut observed = vec![0u64; m as usize + 1];
                for round in 0..DRAWS as u64 {
                    let factory = GraphSourceFactory::new(&graph, view, None, m, 0, stream, round);
                    let obs = factory
                        .source_for(v as usize..v as usize + 1)
                        .next_observation(&mut rng);
                    observed[obs.ones() as usize] += 1;
                }
                assert_law(
                    &case,
                    &observed,
                    &binomial_pmf(m, x),
                    &binomial_pmf(m, shifted(x)),
                    ALPHA,
                );
            }
        }
    }
}

/// The binomial source draws `Binomial(m, p′)` whether it hands out
/// unanimous runs or not, and with the repeats it reports after each
/// unanimous count counted as observations.
#[test]
fn mean_field_source_draws_the_binomial_law_around_the_run_threshold() {
    let tree = SeedTree::new(0x0B1A_5E70);
    for m in SOURCE_SAMPLE_SIZES {
        let mut cells = Vec::new();
        for side in RUN_SIDES {
            // u = (1 − p′)^m, and its mirror u = p′^m.
            let p = 1.0 - (UNANIMOUS_RUN_THRESHOLD * side).powf(1.0 / f64::from(m));
            cells.extend([(p, side > 1.0), (1.0 - p, side > 1.0)]);
        }
        cells.extend([(1e-6, true), (1.0 - 1e-6, true)]);
        assert_eq!(cells.len(), RUN_CELLS);
        for (p, runs) in cells {
            let round = BinomialRound::new(m, p).expect("p′ is a probability");
            let case = format!("binomial m = {m}, p′ = {p}");
            assert_eq!(
                round.draws_runs(),
                runs,
                "{case}: wrong side of the threshold"
            );
            let factory = MeanFieldSourceFactory {
                sampler: MeanFieldSampler::Binomial(&round),
                m,
            };
            let mut source = factory.shard_source(0..DRAWS);
            let mut rng = tree.child(&case).rng();
            let mut observed = vec![0u64; m as usize + 1];
            let mut drawn = 0;
            while drawn < DRAWS {
                let ones = source.next_observation(&mut rng).ones();
                let mut seen = 1;
                if ones == 0 || ones == m {
                    seen += source.repeats(DRAWS - drawn - 1);
                }
                observed[ones as usize] += seen as u64;
                drawn += seen;
            }
            assert_law(
                &case,
                &observed,
                &binomial_pmf(m, p),
                &binomial_pmf(m, shifted(p)),
                ALPHA,
            );
        }
    }
}

/// The without-replacement source draws `Hypergeometric(n, ones, m)`.
#[test]
fn mean_field_source_draws_the_hypergeometric_law() {
    let tree = SeedTree::new(0x0004_E6E0);
    for n in SOURCE_NS {
        for ones in [1, n / 3, n - 1] {
            for m in SOURCE_SAMPLE_SIZES {
                let law = |ones: u32| {
                    Hypergeometric::new(u64::from(n), u64::from(ones), u64::from(m)).expect("m ≤ n")
                };
                let pmf = |ones: u32| {
                    let law = law(ones);
                    (0..=u64::from(m)).map(|k| law.pmf(k)).collect::<Vec<f64>>()
                };
                let sampler = law(ones);
                let factory = MeanFieldSourceFactory {
                    sampler: MeanFieldSampler::Hypergeometric(&sampler, None),
                    m,
                };
                let case = format!("hypergeometric n = {n}, ones = {ones}, m = {m}");
                let mut rng = tree.child(&case).rng();
                let observed = tally(&mut *factory.shard_source(0..DRAWS), m, &mut rng);
                let moved = (shifted(f64::from(ones) / f64::from(n)) * f64::from(n)).round();
                assert_law(&case, &observed, &pmf(ones), &pmf(moved as u32), ALPHA);
            }
        }
    }
}

// --- The fold, end to end --------------------------------------------------

const N: u64 = 1_000;
const ELL: u32 = 10;
const ROUND_FLIP: f64 = 0.05;
/// Independent one-round replays per side.
const REPLAYS: u64 = 300;

fn protocol() -> FetProtocol {
    FetProtocol::new(ELL).expect("valid ℓ")
}

fn spec() -> ProblemSpec {
    ProblemSpec::new(N, 1, Opinion::One).expect("valid spec")
}

/// A fixed mixed configuration: about 30% ones, stored half-counts spread
/// over `0..=ℓ`.
fn configuration() -> Vec<FetState> {
    (0..N - 1)
        .map(|i| FetState {
            opinion: Opinion::from(i % 10 < 3),
            prev_count_second_half: ((i * 7) % u64::from(ELL + 1)) as u32,
        })
        .collect()
}

/// `x_{t+1}` after one round, once per replay seed.
fn one_round_law(mut step: impl FnMut(u64) -> f64) -> Vec<f64> {
    (0..REPLAYS).map(|seed| step(0xF01D_0000 + seed)).collect()
}

fn noise(flip: f64) -> FaultPlan {
    FaultPlan::with_noise(flip).expect("valid flip probability")
}

fn typed_round(fidelity: Fidelity, mode: ExecutionMode, fault: FaultPlan, seed: u64) -> f64 {
    let mut engine = Engine::from_population(
        Box::new(TypedPopulation::from_states(protocol(), configuration())),
        spec(),
        fidelity,
        seed,
    )
    .expect("valid configuration");
    engine
        .set_execution_mode(mode)
        .expect("mode fits the fidelity");
    engine.set_fault_plan(fault).expect("valid fault plan");
    engine.step();
    engine.fraction_ones()
}

fn bit_plane_round(fidelity: Fidelity, flip: f64, seed: u64) -> f64 {
    let container = Box::new(BitPopulation::from_states(protocol(), &configuration()));
    let mut engine =
        Engine::from_population(container, spec(), fidelity, seed).expect("valid configuration");
    engine
        .set_execution_mode(ExecutionMode::Fused)
        .expect("bit planes run fused");
    engine
        .set_fault_plan(noise(flip))
        .expect("valid fault plan");
    engine.step();
    engine.fraction_ones()
}

#[test]
fn folded_binomial_rounds_match_literal_noisy_rounds() {
    let fused = ExecutionMode::Fused;
    let parallel = ExecutionMode::FusedParallel { threads: 3 };
    let literal =
        one_round_law(|seed| typed_round(Fidelity::Agent, fused, noise(ROUND_FLIP), seed));
    let folded_fused =
        one_round_law(|seed| typed_round(Fidelity::Binomial, fused, noise(ROUND_FLIP), seed));
    let folded_bits = one_round_law(|seed| bit_plane_round(Fidelity::Binomial, ROUND_FLIP, seed));
    let agent_bits = one_round_law(|seed| bit_plane_round(Fidelity::Agent, ROUND_FLIP, seed));
    let agent_parallel =
        one_round_law(|seed| typed_round(Fidelity::Agent, parallel, noise(ROUND_FLIP), seed));
    for (path, other) in [
        ("folded fused typed", &folded_fused),
        ("folded fused bit-plane", &folded_bits),
        ("agent fused bit-plane", &agent_bits),
        ("agent fused-parallel(3)", &agent_parallel),
    ] {
        assert!(
            ks_same_distribution(other, &literal, ALPHA).expect("finite samples"),
            "{path}: x_t+1 differs in law from literal noisy rounds"
        );
    }

    // The comparison has power: the same configuration without noise is
    // told apart from the noisy literal rounds at the same level.
    let noise_free = one_round_law(|seed| typed_round(Fidelity::Binomial, fused, noise(0.0), seed));
    assert!(
        !ks_same_distribution(&noise_free, &literal, ALPHA).expect("finite samples"),
        "the KS comparison cannot tell δ = {ROUND_FLIP} from δ = 0"
    );
}
