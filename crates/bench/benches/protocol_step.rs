//! Micro-benchmark: one protocol step, per protocol — and
//! `Protocol::step_batch` over a slice against the hand-written per-agent
//! loop.
//!
//! Measures the per-agent per-round cost of the decision rule itself
//! (observation already in hand) — FET's hypergeometric split dominates
//! its step; the baselines are branch-only. `Protocol::step_batch` is the
//! provided per-`step` loop (no protocol overrides it; engine rounds run
//! `step_fused`), so the `protocol_step_batch` rows must read the same as
//! the loop rows.
//!
//! `fet_ell32` feeds one fixed observation to one fixed state, a pattern
//! the branch predictor learns. The `fet_step_fused_p*` rows step
//! 10⁵ agents at ℓ = 47 through `step_fused` over a slice source instead:
//! counts drawn from Bin(2ℓ, p) at p ∈ {0.05, 0.35, 0.9}, uniform stored
//! counts, so the split and the trend update see random data. Divide
//! ns/iter by 10⁵ for ns/agent.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fet_core::fet::{FetProtocol, FetState};
use fet_core::observation::Observation;
use fet_core::opinion::Opinion;
use fet_core::protocol::{ObservationSource, Protocol, RoundContext};
use fet_core::simple_trend::{SimpleTrendProtocol, SimpleTrendState};
use fet_protocols::majority::MajorityProtocol;
use fet_protocols::voter::VoterProtocol;
use fet_stats::binomial::BinomialSampler;
use fet_stats::rng::SeedTree;
use rand::RngCore;

fn bench_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_step");
    let ctx = RoundContext::new(0);

    let ell = 32u32;
    let fet = FetProtocol::new(ell).unwrap();
    let obs_fet = Observation::new(40, 2 * ell).unwrap();
    group.bench_function("fet_ell32", |b| {
        let mut rng = SeedTree::new(1).child("fet").rng();
        b.iter_batched(
            || FetState {
                opinion: Opinion::Zero,
                prev_count_second_half: 16,
            },
            |mut s| fet.step(&mut s, &obs_fet, &ctx, &mut rng),
            BatchSize::SmallInput,
        )
    });

    let st = SimpleTrendProtocol::new(ell).unwrap();
    let obs_st = Observation::new(20, ell).unwrap();
    group.bench_function("simple_trend_ell32", |b| {
        let mut rng = SeedTree::new(2).child("st").rng();
        b.iter_batched(
            || SimpleTrendState {
                opinion: Opinion::Zero,
                prev_count: 16,
            },
            |mut s| st.step(&mut s, &obs_st, &ctx, &mut rng),
            BatchSize::SmallInput,
        )
    });

    let voter = VoterProtocol::new();
    let obs_v = Observation::new(1, 1).unwrap();
    group.bench_function("voter", |b| {
        let mut rng = SeedTree::new(3).child("voter").rng();
        b.iter_batched(
            || Opinion::Zero,
            |mut s| voter.step(&mut s, &obs_v, &ctx, &mut rng),
            BatchSize::SmallInput,
        )
    });

    let maj = MajorityProtocol::new(ell).unwrap();
    let obs_m = Observation::new(20, ell).unwrap();
    group.bench_function("majority_ell32", |b| {
        let mut rng = SeedTree::new(4).child("maj").rng();
        b.iter_batched(
            || Opinion::Zero,
            |mut s| maj.step(&mut s, &obs_m, &ctx, &mut rng),
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

fn bench_step_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_step_batch");
    let ell = 32u32;
    let agents = 1_024usize;
    let fet = FetProtocol::new(ell).unwrap();
    let m = fet.samples_per_round();
    let ctx = RoundContext::new(0);
    let observations: Vec<Observation> = (0..agents)
        .map(|i| Observation::new((i as u32 * 13) % (m + 1), m).unwrap())
        .collect();
    let mut init_rng = SeedTree::new(7).child("batch-init").rng();
    let states: Vec<FetState> = (0..agents)
        .map(|_| fet.init_state(Opinion::Zero, &mut init_rng))
        .collect();

    group.bench_function("fet_per_agent_loop_1024", |b| {
        let mut rng = SeedTree::new(8).child("loop").rng();
        let mut states = states.clone();
        b.iter(|| {
            for (s, o) in states.iter_mut().zip(&observations) {
                fet.step(s, o, &ctx, &mut rng);
            }
        });
    });
    group.bench_function("fet_step_batch_1024", |b| {
        let mut rng = SeedTree::new(8).child("batch").rng();
        let mut states = states.clone();
        let mut outputs = vec![Opinion::Zero; agents];
        b.iter(|| {
            fet.step_batch(&mut states, &observations, &ctx, &mut rng, &mut outputs);
        });
    });

    let st = SimpleTrendProtocol::new(ell).unwrap();
    let obs_st: Vec<Observation> = (0..agents)
        .map(|i| Observation::new((i as u32 * 13) % (ell + 1), ell).unwrap())
        .collect();
    let st_states: Vec<SimpleTrendState> = (0..agents)
        .map(|_| st.init_state(Opinion::Zero, &mut init_rng))
        .collect();
    group.bench_function("simple_trend_per_agent_loop_1024", |b| {
        let mut rng = SeedTree::new(9).child("st-loop").rng();
        let mut states = st_states.clone();
        b.iter(|| {
            for (s, o) in states.iter_mut().zip(&obs_st) {
                st.step(s, o, &ctx, &mut rng);
            }
        });
    });
    group.bench_function("simple_trend_step_batch_1024", |b| {
        let mut rng = SeedTree::new(9).child("st-batch").rng();
        let mut states = st_states.clone();
        let mut outputs = vec![Opinion::Zero; agents];
        b.iter(|| {
            st.step_batch(&mut states, &obs_st, &ctx, &mut rng, &mut outputs);
        });
    });
    group.finish();
}

/// The FET kernel at scale: 10^5 agents, observations in hand.
fn bench_step_batch_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_step_batch_100k");
    let ell = 32u32;
    let agents = 100_000usize;
    let fet = FetProtocol::new(ell).unwrap();
    let m = fet.samples_per_round();
    let ctx = RoundContext::new(0);
    let observations: Vec<Observation> = (0..agents)
        .map(|i| Observation::new((i as u32 * 13) % (m + 1), m).unwrap())
        .collect();

    group.bench_function("fet_step_batch_100k", |b| {
        let mut init_rng = SeedTree::new(7).child("typed-init").rng();
        let mut rng = SeedTree::new(8).child("typed").rng();
        let mut states: Vec<FetState> = (0..agents)
            .map(|_| fet.init_state(Opinion::Zero, &mut init_rng))
            .collect();
        let mut outputs = vec![Opinion::Zero; agents];
        b.iter(|| {
            fet.step_batch(&mut states, &observations, &ctx, &mut rng, &mut outputs);
        });
    });
    group.finish();
}

/// Replays one observation per agent and draws nothing.
struct SliceSource<'a>(std::slice::Iter<'a, Observation>);

impl ObservationSource for SliceSource<'_> {
    fn next_observation(&mut self, _rng: &mut dyn RngCore) -> Observation {
        *self.0.next().expect("one observation per agent")
    }
}

/// FET's fused kernel on drawn counts: the split and the update at the
/// rates a round of that fraction of ones feeds them.
fn bench_step_fused(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_step_fused_100k");
    let agents = 100_000usize;
    let fet = FetProtocol::new(47).unwrap();
    let m = fet.samples_per_round();
    let ctx = RoundContext::new(0);
    let mut init_rng = SeedTree::new(10).child("fused-init").rng();
    let states: Vec<FetState> = (0..agents)
        .map(|_| fet.init_state(Opinion::Zero, &mut init_rng))
        .collect();
    for p in [0.05, 0.35, 0.9] {
        let sampler = BinomialSampler::new(u64::from(m), p).unwrap();
        let observations: Vec<Observation> = (0..agents)
            .map(|_| Observation::new(sampler.sample(&mut init_rng) as u32, m).unwrap())
            .collect();
        group.bench_function(format!("fet_step_fused_p{p}"), |b| {
            let mut rng = SeedTree::new(11).child("fused").rng();
            let mut outputs = vec![Opinion::Zero; agents];
            b.iter_batched(
                || states.clone(),
                |mut states| {
                    let mut source = SliceSource(observations.iter());
                    fet.step_fused(
                        &mut states,
                        &mut source,
                        &ctx,
                        &mut rng,
                        Opinion::One,
                        &mut outputs,
                    )
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_steps,
    bench_step_batch,
    bench_step_batch_large,
    bench_step_fused
);
criterion_main!(benches);
