//! The law of one asynchronous round, checked against its exact reference.
//!
//! Under `Scheduler::Asynchronous` a round is `n` activations. Each picks
//! a uniform non-source agent, which reads `m = 2ℓ` uniform agents'
//! *current* outputs (sources included, earlier activations of the round
//! included), each observed bit flipped at `δ`, and steps alone. FET
//! splits the `m` bits uniformly into halves, so at a current 1-fraction
//! `x` its half-counts `C′` and `C″` are iid `Binomial(ℓ, p′)` with
//! `p′ = x(1 − δ) + (1 − x)δ`; it adopts 1 if `C′` beats its stored count,
//! 0 if it falls short, keeps its opinion on a tie, and stores `C″`.
//!
//! At `n = 4` (one source, three FET agents at `ℓ = 3`) an agent has
//! 8 states, so a configuration is one of 512, and the law of a whole round
//! is exact by enumerating its 4 activations from a fixed configuration.
//! The suite replays one engine round 3 000 times at fresh seeds, each an
//! `Engine::from_population` build and one `step`, tallies
//! `(ones, Σ stored counts)`, and chi-squares the tally against that law.
//! Legs: typed and bit-plane storage, at `δ = 0` and `δ = 0.05`.
//!
//! Every leg also shows power twice over: the same tally must reject the
//! law with every read 1-fraction moved by 0.05, and the law of
//! activations that all read the round-*start* outputs, which is what a
//! round that stepped agents from a snapshot would produce (its
//! noncentrality is about 0.2 per replay). Two more legs, typed and
//! bit-plane at `δ = 0.25`, must reject the noise-free law: at `δ = 0.05`
//! the tally cannot tell a round that dropped the noise.
//!
//! The suite runs at fixed seeds, so it is deterministic. Its legs share one
//! family-wise level `α = 10⁻³`, split evenly (Bonferroni). It takes about
//! 1 s in a debug build on a 2-vCPU x86-64 host.

use fet::core::bitplane::BitPopulation;
use fet::core::config::ProblemSpec;
use fet::core::fet::FetState;
use fet::prelude::*;
use fet::stats::binomial::Binomial;
use law::{assert_law, shifted};

mod law;

/// Agents, and activations per round; agent 0 is the source, showing a
/// one.
const N: usize = 4;
const AGENTS: usize = N - 1;
const ELL: u32 = 3;
/// Agent states: opinion × stored half-count `0..=ℓ`.
const STATES: usize = 2 * (ELL as usize + 1);
/// Outcomes per ones count: the stored counts sum to `0..=3ℓ`.
const SUMS: usize = AGENTS * ELL as usize + 1;
const FLIPS: [f64; 2] = [0.0, 0.05];
/// The flip probability of the noise power legs.
const LOUD_FLIP: f64 = 0.25;
/// Replays per leg.
const REPLAYS: u64 = 3_000;
/// Family-wise false-rejection budget: two storages at each δ of `FLIPS`
/// and at `LOUD_FLIP`.
const ALPHA: f64 = 1e-3 / (2 * (FLIPS.len() + 1)) as f64;

/// The fixed start: `(o, c″)` = (0, 3), (1, 0), (0, 1).
fn configuration() -> Vec<FetState> {
    [(Opinion::Zero, 3), (Opinion::One, 0), (Opinion::Zero, 1)]
        .into_iter()
        .map(|(opinion, prev_count_second_half)| FetState {
            opinion,
            prev_count_second_half,
        })
        .collect()
}

/// The configuration as its index in `0..STATES³`: agent `a` holds
/// `o·(ℓ + 1) + c″` in base-`STATES` digit `a`.
fn encode(states: &[FetState]) -> usize {
    states.iter().rev().fold(0, |index, state| {
        let digit = usize::from(state.opinion.is_one()) * (ELL as usize + 1)
            + state.prev_count_second_half as usize;
        index * STATES + digit
    })
}

/// Agent `a`'s `(is_one, stored count)` in configuration `index`.
fn agent(index: usize, a: usize) -> (bool, usize) {
    let digit = index / STATES.pow(a as u32) % STATES;
    (digit > ELL as usize, digit % (ELL as usize + 1))
}

/// Ones among all `N` agents, the source included.
fn ones(index: usize) -> usize {
    1 + (0..AGENTS).filter(|&a| agent(index, a).0).count()
}

/// The exact law of `(ones, Σ stored counts)` after one round of `N`
/// activations from `start`, flattened as `(ones − 1)·SUMS + Σ`. An
/// activation reads the 1-fraction `read(current, round start)`.
fn round_law(start: &[FetState], delta: f64, read: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    let start = encode(start);
    let fraction = |index| ones(index) as f64 / N as f64;
    let mut law = vec![0.0; STATES.pow(AGENTS as u32)];
    law[start] = 1.0;
    for _ in 0..N {
        let mut next = vec![0.0; law.len()];
        for (index, &p) in law.iter().enumerate().filter(|(_, &p)| p > 0.0) {
            let x = read(fraction(index), fraction(start));
            let half = Binomial::new(u64::from(ELL), x * (1.0 - delta) + (1.0 - x) * delta)
                .expect("a probability");
            for a in 0..AGENTS {
                let (is_one, stored) = agent(index, a);
                let place = STATES.pow(a as u32);
                let cleared = index - (index / place % STATES) * place;
                for first in 0..=ELL as usize {
                    let adopts = match first.cmp(&stored) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Less => false,
                        std::cmp::Ordering::Equal => is_one,
                    };
                    for second in 0..=ELL as usize {
                        let digit = usize::from(adopts) * (ELL as usize + 1) + second;
                        next[cleared + digit * place] +=
                            p / AGENTS as f64 * half.pmf(first as u64) * half.pmf(second as u64);
                    }
                }
            }
        }
        law = next;
    }
    let mut tally = vec![0.0; N * SUMS];
    for (index, p) in law.into_iter().enumerate() {
        let stored: usize = (0..AGENTS).map(|a| agent(index, a).1).sum();
        tally[(ones(index) - 1) * SUMS + stored] += p;
    }
    tally
}

/// The outcome of one asynchronous engine round from `container`, flattened
/// as in [`round_law`]; `stored` sums the container's stored counts.
fn round<A: Population + ?Sized>(
    container: Box<A>,
    delta: f64,
    seed: u64,
    stored: fn(&A) -> u32,
) -> usize {
    let spec = ProblemSpec::new(N as u64, 1, Opinion::One).expect("valid spec");
    let mut engine = Engine::from_population(container, spec, Fidelity::Agent, seed)
        .expect("valid configuration");
    engine
        .set_scheduler(Scheduler::Asynchronous)
        .expect("literal sampling on the complete graph");
    engine
        .set_fault_plan(FaultPlan::with_noise(delta).expect("valid flip probability"))
        .expect("activations apply noise");
    engine.step();
    let ones = (engine.fraction_ones() * N as f64).round() as usize;
    (ones - 1) * SUMS + stored(engine.population()) as usize
}

/// Replays one asynchronous round `REPLAYS` times at `delta` from the
/// fixed configuration, on each storage, and asserts that the tally follows
/// the exact law and rejects every law in `alternatives`.
fn assert_async_law(delta: f64, alternatives: &[(&str, Vec<f64>)]) {
    let config = configuration();
    let protocol = FetProtocol::new(ELL).expect("valid ℓ");
    let law = round_law(&config, delta, |current, _| current);
    let tree = SeedTree::new(0xA5_1A70);
    let legs: [(&str, &dyn Fn(u64) -> usize); 2] = [
        ("typed", &|seed| {
            let container = TypedPopulation::from_states(protocol.clone(), config.clone());
            round(Box::new(container), delta, seed, |pop| {
                pop.states().iter().map(|s| s.prev_count_second_half).sum()
            })
        }),
        ("bit-plane", &|seed| {
            let container = BitPopulation::from_states(protocol.clone(), &config);
            round(Box::new(container), delta, seed, |pop| {
                (0..AGENTS).map(|a| u32::from(pop.aux_value(a))).sum()
            })
        }),
    ];
    for (leg, round) in legs {
        let case = format!("async {leg}, δ = {delta}");
        let base = tree.child(&case).seed();
        let mut observed = vec![0u64; law.len()];
        for replay in 0..REPLAYS {
            observed[round(base.wrapping_add(replay))] += 1;
        }
        for (alternative, wrong) in alternatives {
            let case = format!("{case} against {alternative}");
            assert_law(&case, &observed, &law, wrong, ALPHA);
        }
    }
}

#[test]
fn async_rounds_follow_the_exact_round_law() {
    let config = configuration();
    for delta in FLIPS {
        assert_async_law(
            delta,
            &[
                (
                    "reads moved by 0.05",
                    round_law(&config, delta, |current, _| shifted(current)),
                ),
                (
                    "round-start reads",
                    round_law(&config, delta, |_, start| start),
                ),
            ],
        );
    }
}

#[test]
fn noisy_async_rounds_flip_their_reads() {
    // At δ = 0.05 the noise moves the law too little for 3 000 replays to
    // see (noncentrality about 9); at `LOUD_FLIP` a round that dropped the
    // noise is plain.
    let noise_free = round_law(&configuration(), 0.0, |current, _| current);
    assert_async_law(LOUD_FLIP, &[("noise-free reads", noise_free)]);
}
