//! Layer replays: each layer's public function timed on its own, with the
//! workload's parameters (`n`, `m = 2ℓ`, the round-start `x_t` values the
//! traced episode went through, `δ`, the degree, the ISA path and the
//! resolved thread count), and the round split into those layers plus an
//! unattributed rest.

use crate::measure::wall_ns_per_item;
use crate::report::Report;
use fet_core::bitplane::AuxPlane;
use fet_core::fet::{FetProtocol, FetState};
use fet_core::observation::Observation;
use fet_core::opinion::Opinion;
use fet_core::protocol::{ObservationSource, Protocol, RoundContext};
use fet_sim::fault::FaultPlan;
use fet_sim::neighborhood::Neighborhood;
use fet_sim::sources::GraphSourceFactory;
use fet_stats::binomial::{sample_binomial, BinomialSampler};
use fet_stats::isa;
use fet_topology::graph::SharedGraph;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::Duration;

/// Agents per replay batch and thread: small enough to stay in the cache
/// the packed and graph kernels work from, large enough to amortize the
/// loop.
const BATCH: usize = 1 << 16;

/// What one workload's round executes.
pub struct RoundModel<'a> {
    pub ell: u32,
    /// Round-start `x_t` of the traced episode's rounds.
    pub x_t: &'a [f64],
    pub noise: f64,
    pub bit_plane: bool,
    /// Threads the round runs on (the resolved shard count).
    pub threads: usize,
    pub graph: Option<&'a SharedGraph>,
    /// Measured wall ns per agent of one round (`engine.round_ns_per_agent`).
    pub round_ns_per_agent: f64,
    pub budget: Duration,
}

impl RoundModel<'_> {
    fn m(&self) -> u32 {
        2 * self.ell
    }

    /// Up to 16 distinct round-start `x_t` values, in round order.
    fn rounds(&self) -> Vec<f64> {
        let step = self.x_t.len().div_ceil(16).max(1);
        let xs: Vec<f64> = self.x_t.iter().step_by(step).copied().collect();
        if xs.is_empty() {
            vec![0.5]
        } else {
            xs
        }
    }

    fn mean_x(&self) -> f64 {
        let xs = self.rounds();
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    /// Observations as the round draws them: `Binomial(m, x_t)` counts,
    /// an equal share from every round.
    fn observation_counts(&self, rng: &mut SmallRng, len: usize) -> Vec<u32> {
        let samplers = samplers(self.m(), &self.rounds());
        (0..len)
            .map(|i| samplers[i % samplers.len()].sample(rng) as u32)
            .collect()
    }
}

fn samplers(m: u32, xs: &[f64]) -> Vec<BinomialSampler> {
    xs.iter()
        .map(|&x| {
            BinomialSampler::new(u64::from(m), x.clamp(0.0, 1.0)).expect("x_t is a probability")
        })
        .collect()
}

fn rng_for(tag: u64) -> SmallRng {
    SmallRng::seed_from_u64(0x5eed_0000 ^ tag)
}

/// Runs every replay the model's round executes, sets the per-layer
/// metrics, and returns the attribution formula for provenance.
pub fn attribute(model: &RoundModel<'_>, report: &mut Report) -> String {
    let m = model.m();
    let threads = model.threads;
    let budget = model.budget;
    let mut parts: Vec<(&'static str, f64)> = Vec::new();

    // fet_stats: the mean-field sampler (the graph source replaces it on
    // topology rounds).
    if model.graph.is_none() {
        let xs = model.rounds();
        let per_round = BATCH / xs.len();
        let ns = wall_ns_per_item(
            threads,
            per_round * xs.len(),
            budget,
            |t| (samplers(m, &xs), rng_for(t as u64)),
            |(samplers, rng)| {
                let rng: &mut dyn RngCore = rng;
                let mut acc = 0u64;
                for s in samplers.iter() {
                    for _ in 0..per_round {
                        acc += s.sample(&mut *rng);
                    }
                }
                acc
            },
        );
        report.set("stats.binomial_draw_ns", ns);
        parts.push(("stats.binomial_draw_ns", ns));
    }

    // fet_sim::fault: corruption of every observation at the workload's δ.
    let plan = FaultPlan::with_noise(model.noise).expect("noise is a probability");
    let corrupt_ns = wall_ns_per_item(
        threads,
        BATCH,
        budget,
        |t| {
            let mut rng = rng_for(100 + t as u64);
            (model.observation_counts(&mut rng, BATCH), rng)
        },
        |(counts, rng)| {
            let rng: &mut dyn RngCore = rng;
            counts
                .iter()
                .map(|&ones| u64::from(plan.corrupt_count(ones, m, &mut *rng)))
                .sum()
        },
    );
    report.set("fault.corrupt_ns_per_obs", corrupt_ns);
    if model.noise > 0.0 {
        report.set(
            "fault.corrupt_share_of_round",
            corrupt_ns / model.round_ns_per_agent,
        );
        parts.push(("fault.corrupt_ns_per_obs", corrupt_ns));
        let ns = wall_ns_per_item(
            threads,
            BATCH,
            budget,
            |t| rng_for(200 + t as u64),
            |rng| {
                let rng: &mut dyn RngCore = rng;
                (0..BATCH)
                    .map(|_| sample_binomial(u64::from(m), model.noise, &mut *rng))
                    .sum()
            },
        );
        report.set("stats.sample_binomial_ns", ns);
    }

    // fet_sim::sources + the isa Lemire kernel: graph neighbor draws.
    if let Some(graph) = model.graph {
        let n = graph.graph().n();
        let x = model.mean_x();
        let graph_plan = (model.noise > 0.0).then_some(&plan);
        let ns = wall_ns_per_item(
            threads,
            (n - 1) as usize / threads,
            budget,
            |t| {
                let mut rng = rng_for(300 + t as u64);
                let snapshot: Vec<Opinion> = (0..n)
                    .map(|_| Opinion::from(rng.gen::<f64>() < x))
                    .collect();
                (snapshot, rng, 0u64)
            },
            |(snapshot, rng, round)| {
                *round += 1;
                let shard = (n - 1) as usize / threads;
                let factory = GraphSourceFactory::new(
                    graph as &dyn Neighborhood,
                    snapshot.as_slice(),
                    graph_plan,
                    m,
                    1,
                    0x9e37,
                    *round,
                );
                let mut source = factory.source_for(0..shard);
                let rng: &mut dyn RngCore = rng;
                (0..shard)
                    .map(|_| u64::from(source.next_observation(&mut *rng).ones()))
                    .sum()
            },
        );
        report.set("sources.graph_obs_ns_per_agent", ns);
        parts.push(("sources.graph_obs_ns_per_agent", ns));

        let d = graph.graph().max_degree();
        let threshold = d.wrapping_neg() % d;
        let path = isa::active_path();
        let ns = wall_ns_per_item(
            1,
            4096,
            budget,
            |t| {
                let mut rng = rng_for(400 + t as u64);
                let words: Vec<[u64; 4]> = (0..4096)
                    .map(|_| std::array::from_fn(|_| rng.next_u64()))
                    .collect();
                words
            },
            |words| {
                let mut out = [0u32; 8];
                let mut acc = 0u64;
                for w in words.iter() {
                    let rejected =
                        isa::lemire8(path, std::hint::black_box(w), d, threshold, &mut out);
                    acc += u64::from(out[0]) + u64::from(rejected);
                }
                acc
            },
        );
        report.set("stats.lemire8_ns", ns);
    }

    // fet_core: the FET kernel with observations in hand.
    let protocol = FetProtocol::new(model.ell).expect("ell ≥ 1");
    let x = model.mean_x();
    let ns = wall_ns_per_item(
        threads,
        BATCH,
        budget,
        |t| {
            let mut rng = rng_for(500 + t as u64);
            let counts = model.observation_counts(&mut rng, BATCH);
            let observations: Vec<Observation> = counts
                .iter()
                .map(|&c| Observation::new(c, m).expect("count ≤ m"))
                .collect();
            let states: Vec<FetState> = (0..BATCH)
                .map(|_| protocol.init_state(Opinion::from(rng.gen::<f64>() < x), &mut rng))
                .collect();
            (states, observations, vec![Opinion::Zero; BATCH], rng, 0u64)
        },
        |(states, observations, outputs, rng, round)| {
            *round += 1;
            let ctx = RoundContext::new(*round);
            protocol.step_batch(states, observations, &ctx, rng, outputs);
            outputs.iter().map(|o| u64::from(o.is_one())).sum()
        },
    );
    report.set("core.fet_step_ns_per_agent", ns);
    parts.push(("core.fet_step_ns_per_agent", ns));

    // fet_core::bitplane: unpack → repack through the packed planes.
    if model.bit_plane {
        let ns = wall_ns_per_item(
            threads,
            BATCH,
            budget,
            |t| {
                let mut rng = rng_for(600 + t as u64);
                let mut aux = AuxPlane::for_planes(protocol.state_planes());
                let mut words = vec![0u64; BATCH / 64];
                for i in 0..BATCH {
                    let state = protocol.init_state(Opinion::from(rng.gen::<f64>() < x), &mut rng);
                    let (opinion, packed) = protocol.pack_state(&state);
                    words[i / 64] |= u64::from(opinion.is_one()) << (i % 64);
                    aux.push(packed);
                }
                (words, aux)
            },
            |(words, aux)| {
                let mut acc = 0u64;
                for (w, slot) in words.iter_mut().enumerate() {
                    let mut word = *slot;
                    for bit in 0..64 {
                        let idx = w * 64 + bit;
                        let opinion = Opinion::from((word >> bit) & 1 == 1);
                        let state = protocol.unpack_state(opinion, aux.get(idx));
                        let (opinion, packed) = protocol.pack_state(std::hint::black_box(&state));
                        word = (word & !(1 << bit)) | (u64::from(opinion.is_one()) << bit);
                        aux.set(idx, packed);
                        acc += u64::from(packed);
                    }
                    *slot = word;
                }
                acc
            },
        );
        report.set("core.bitplane_pack_ns_per_agent", ns);
        parts.push(("core.bitplane_pack_ns_per_agent", ns));
    }

    let attributed: f64 = parts.iter().map(|(_, ns)| ns).sum();
    report.set(
        "engine.unattributed_ns_per_agent",
        model.round_ns_per_agent - attributed,
    );
    let mut formula = String::from("engine.round_ns_per_agent =");
    for (name, _) in &parts {
        formula.push_str(&format!(" {name} +"));
    }
    formula.push_str(" engine.unattributed_ns_per_agent");
    formula
}
