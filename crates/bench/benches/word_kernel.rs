//! The bit-plane word-at-a-time threshold kernel, measured per round.
//!
//! `OpinionOnly` protocols whose update is a pure observation threshold
//! (voter: `m = 1`, threshold 1; 3-majority: `m = 3`, threshold 2) skip
//! the tile kernel (unpack 64 states → `step_fused` → repack) entirely:
//! the fused round asks the observation source for one 64-agent *word* of
//! threshold bits at a time and writes it straight into the opinion
//! plane, counting by popcount. This bench pins the win — the bar is
//! **word ≥ 2× the baseline at `n = 10⁷`**.
//!
//! The baseline is the *same* `BitPopulation` fused round forced down
//! the tile kernel by a delegating wrapper protocol whose
//! `opinion_threshold()` returns `None`. Both paths draw the identical
//! RNG stream (`next_threshold_word` is stream-identical to 64
//! `next_observation` calls by contract), so the bench isolates pure
//! kernel overhead: per-agent virtual dispatch and `Observation`
//! construction, plus the tile's unpack and repack, versus one virtual
//! call and one word store per 64 agents.
//!
//! Rows, per size `n ∈ {10⁶, 10⁷}`:
//!
//! * `voter_word` — `VoterProtocol` through the word kernel;
//! * `voter_per_agent` — the wrapper through the tile kernel (the row
//!   keeps the name it had when the baseline was a per-agent loop);
//! * `three_majority_word` / `three_majority_per_agent` — the same pair
//!   at `m = 3`, where sampler draws dominate and the kernel win shrinks;
//! * `plane_popcount` — one `BitPlane::count_ones` sweep over the n-bit
//!   plane, i.e. the *entire* per-word popcount reduction a word-kernel
//!   round performs. This row is the measured justification for NOT
//!   hand-vectorizing the popcount leg: it is orders of magnitude below
//!   the sampler-dominated round times above it.
//!
//! Numbers land in `docs/BENCHMARKS.md` (tier 2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fet_core::bitplane::BitPlane;
use fet_core::config::ProblemSpec;
use fet_core::erased::ErasedProtocol;
use fet_core::memory::MemoryFootprint;
use fet_core::observation::Observation;
use fet_core::opinion::Opinion;
use fet_core::protocol::{Protocol, RoundContext, StatePlanes};
use fet_protocols::three_majority::ThreeMajorityProtocol;
use fet_protocols::voter::VoterProtocol;
use fet_sim::engine::{Engine, ExecutionMode, Fidelity};
use fet_sim::init::InitialCondition;
use rand::RngCore;

/// Delegating wrapper that hides the inner protocol's
/// `opinion_threshold()`, forcing `BitPopulation` down the tile kernel
/// — the bench baseline. Stream-identical to the wrapped
/// protocol (the step rule and RNG usage are untouched).
#[derive(Debug, Clone, Copy)]
struct PerAgent<P>(P);

impl<P: Protocol> Protocol for PerAgent<P> {
    type State = P::State;

    fn name(&self) -> &str {
        "per-agent-baseline"
    }

    fn samples_per_round(&self) -> u32 {
        self.0.samples_per_round()
    }

    fn init_state(&self, opinion: Opinion, rng: &mut dyn RngCore) -> Self::State {
        self.0.init_state(opinion, rng)
    }

    fn step(
        &self,
        state: &mut Self::State,
        obs: &Observation,
        ctx: &RoundContext,
        rng: &mut dyn RngCore,
    ) -> Opinion {
        self.0.step(state, obs, ctx, rng)
    }

    fn output(&self, state: &Self::State) -> Opinion {
        self.0.output(state)
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        self.0.memory_footprint()
    }

    fn state_planes(&self) -> StatePlanes {
        self.0.state_planes()
    }

    // opinion_threshold() deliberately NOT forwarded: the default `None`
    // is the whole point of the wrapper.

    fn pack_state(&self, state: &Self::State) -> (Opinion, u8) {
        self.0.pack_state(state)
    }

    fn unpack_state(&self, opinion: Opinion, aux: u8) -> Self::State {
        self.0.unpack_state(opinion, aux)
    }
}

fn bitplane_engine<P>(protocol: P, n: u64) -> Engine
where
    P: Protocol + Clone + std::fmt::Debug + Send + Sync + 'static,
    P::State: 'static,
{
    let spec = ProblemSpec::single_source(n, Opinion::One).unwrap();
    let mut engine = Engine::new(
        ErasedProtocol::new(protocol)
            .bit_population()
            .expect("OpinionOnly protocols always pack"),
        spec,
        Fidelity::Binomial,
        InitialCondition::Random,
        42,
    )
    .unwrap();
    engine.set_execution_mode(ExecutionMode::Fused).unwrap();
    engine
}

fn bench_word_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("word_kernel_round");
    group.sample_size(10);
    for &n in &[1_000_000u64, 10_000_000] {
        group.bench_with_input(BenchmarkId::new("voter_word", n), &n, |b, &n| {
            let mut engine = bitplane_engine(VoterProtocol::new(), n);
            b.iter(|| engine.step());
        });
        group.bench_with_input(BenchmarkId::new("voter_per_agent", n), &n, |b, &n| {
            let mut engine = bitplane_engine(PerAgent(VoterProtocol::new()), n);
            b.iter(|| engine.step());
        });
        group.bench_with_input(BenchmarkId::new("three_majority_word", n), &n, |b, &n| {
            let mut engine = bitplane_engine(ThreeMajorityProtocol::new(), n);
            b.iter(|| engine.step());
        });
        group.bench_with_input(
            BenchmarkId::new("three_majority_per_agent", n),
            &n,
            |b, &n| {
                let mut engine = bitplane_engine(PerAgent(ThreeMajorityProtocol::new()), n);
                b.iter(|| engine.step());
            },
        );
        group.bench_with_input(BenchmarkId::new("plane_popcount", n), &n, |b, &n| {
            let mut plane = BitPlane::zeroed(n as usize);
            for i in (0..n as usize).step_by(3) {
                plane.set(i, Opinion::One);
            }
            b.iter(|| plane.count_ones());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_word_kernel);
criterion_main!(benches);
