//! The law of noisy observations, checked against exact references.
//!
//! In the noisy PULL model every observed bit flips independently with
//! probability `δ`. The engine realizes that law two ways, and this suite
//! checks both in law rather than by stream bytes:
//!
//! * [`FaultPlan::corrupt_count`] (hypergeometric, graph, literal-Agent
//!   and sleepy draws) must turn a true count `k` of `m` bits into
//!   `k − Bin(k, δ) + Bin(m − k, δ)`. A chi-square test compares it with
//!   that pmf, convolved exactly from [`Binomial::pmf`].
//! * Binomial rounds fold `δ` into the round's sampler,
//!   `Binomial(m, x(1 − δ) + (1 − x)δ)`, and no round path corrupts a
//!   binomial draw again. Two-sample KS tests compare `x_{t+1}` after one
//!   folded round — fused on typed and on bit-plane storage, batched, and
//!   sleepy — with `x_{t+1}` after one literal-Agent round (index sampling
//!   plus `corrupt_count`) from the same configuration.
//!
//! Every test runs at fixed seeds, so the suite is deterministic. Its
//! tests share one family-wise level `α = 10⁻³`, split evenly
//! (Bonferroni) across the [`TESTS`] comparisons below.

use fet::core::bitplane::BitPopulation;
use fet::core::config::ProblemSpec;
use fet::core::fet::FetState;
use fet::prelude::*;
use fet::stats::binomial::Binomial;
use fet::stats::distance::{chi_square_statistic, chi_square_survival, ks_same_distribution};

/// Family-wise false-rejection budget of the whole suite.
const FAMILY_ALPHA: f64 = 1e-3;

/// Past `δ = ½` most bits flip, so the skip loop visits most positions.
const FLIP_PROBS: [f64; 6] = [1e-3, 0.02, 0.3, 0.5, 0.7, 0.98];
const SAMPLE_SIZES: [u32; 2] = [20, 74];
/// True counts per sample size: 0, 1, m/2, m − 1 and m.
const COUNTS_PER_SIZE: usize = 5;
/// One chi-square test per (δ, m, k), plus the KS tests of the fold:
/// fused typed, fused bit-plane, batched and sleepy.
const TESTS: usize = FLIP_PROBS.len() * SAMPLE_SIZES.len() * COUNTS_PER_SIZE + 4;
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

/// Pools adjacent outcomes, left to right, until each pooled cell expects
/// at least five draws; a short remainder joins the last cell.
fn pooled(observed: &[u64], pmf: &[f64]) -> (Vec<u64>, Vec<f64>) {
    let draws = observed.iter().sum::<u64>() as f64;
    let (mut cells_o, mut cells_p) = (Vec::new(), Vec::new());
    let (mut o, mut p) = (0u64, 0.0);
    for (&count, &prob) in observed.iter().zip(pmf) {
        o += count;
        p += prob;
        if p * draws >= 5.0 {
            cells_o.push(o);
            cells_p.push(p);
            (o, p) = (0, 0.0);
        }
    }
    match (cells_o.last_mut(), cells_p.last_mut()) {
        (Some(last_o), Some(last_p)) => {
            *last_o += o;
            *last_p += p;
        }
        _ => {
            cells_o.push(o);
            cells_p.push(p);
        }
    }
    (cells_o, cells_p)
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
                let (cells, probs) = pooled(&observed, &corrupted_pmf(k, m, delta));
                let df = u32::try_from(cells.len() - 1).expect("at most m cells");
                let chi2 = chi_square_statistic(&cells, &probs).expect("draws were made");
                // A single pooled cell holds every draw: nothing to test.
                let p_value = if df == 0 {
                    1.0
                } else {
                    chi_square_survival(df, chi2)
                };
                assert!(
                    p_value > ALPHA,
                    "δ = {delta}, m = {m}, k = {k}: χ² = {chi2:.1} on {df} df, \
                     p = {p_value:.2e} ≤ {ALPHA:.1e}"
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

// --- The fold, end to end --------------------------------------------------

const N: u64 = 1_000;
const ELL: u32 = 10;
const ROUND_FLIP: f64 = 0.05;
/// Sleep probability of the sleepy-round comparison.
const ROUND_SLEEP: f64 = 0.3;
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
    let mut engine = Engine::from_states(protocol(), spec(), fidelity, configuration(), seed)
        .expect("valid configuration");
    engine
        .set_execution_mode(mode)
        .expect("mode fits the fidelity");
    engine.set_fault_plan(fault);
    engine.step();
    engine.fraction_ones()
}

fn bit_plane_round(flip: f64, seed: u64) -> f64 {
    let container = Box::new(BitPopulation::from_states(protocol(), &configuration()));
    let mut engine = PopulationEngine::from_population(container, spec(), Fidelity::Binomial, seed)
        .expect("valid configuration");
    engine
        .set_execution_mode(ExecutionMode::Fused)
        .expect("bit planes run fused");
    engine.set_fault_plan(noise(flip));
    engine.step();
    engine.fraction_ones()
}

#[test]
fn folded_binomial_rounds_match_literal_noisy_rounds() {
    let (fused, batched) = (ExecutionMode::Fused, ExecutionMode::Batched);
    let literal =
        one_round_law(|seed| typed_round(Fidelity::Agent, batched, noise(ROUND_FLIP), seed));
    let folded_fused =
        one_round_law(|seed| typed_round(Fidelity::Binomial, fused, noise(ROUND_FLIP), seed));
    let folded_bits = one_round_law(|seed| bit_plane_round(ROUND_FLIP, seed));
    let folded_batched =
        one_round_law(|seed| typed_round(Fidelity::Binomial, batched, noise(ROUND_FLIP), seed));
    for (path, folded) in [
        ("fused typed", &folded_fused),
        ("fused bit-plane", &folded_bits),
        ("batched", &folded_batched),
    ] {
        assert!(
            ks_same_distribution(folded, &literal, ALPHA).expect("finite samples"),
            "{path}: folded binomial x_t+1 differs in law from literal noisy rounds"
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

#[test]
fn folded_sleepy_rounds_match_literal_sleepy_rounds() {
    let fault = FaultPlan {
        sleep_prob: ROUND_SLEEP,
        ..noise(ROUND_FLIP)
    };
    // Sleepy faults take the per-agent loop whatever the execution mode.
    let batched = ExecutionMode::Batched;
    let literal = one_round_law(|seed| typed_round(Fidelity::Agent, batched, fault, seed));
    let folded = one_round_law(|seed| typed_round(Fidelity::Binomial, batched, fault, seed));
    assert!(
        ks_same_distribution(&folded, &literal, ALPHA).expect("finite samples"),
        "sleepy: folded binomial x_t+1 differs in law from literal noisy rounds"
    );
}
