//! The erased execution paths, measured at the engine level.
//!
//! One synchronous binomial-fidelity round — observation generation plus
//! the protocol dispatch plus counter folds — through each representation
//! and execution mode the workspace can run a protocol in:
//!
//! * `typed_fused` / `population_fused` — `Engine<TypedPopulation<_>>`
//!   and `Engine` over `Box<dyn DynPopulation>` (one virtual
//!   dispatch per round into the typed kernel) through the fused
//!   single-pass kernel: observations drawn on demand, outputs written in
//!   place, counters accumulated in the kernel, `O(1)` auxiliary memory.
//! * `typed_fused_parallel` / `population_fused_parallel` — the fused
//!   kernel work-sharded over 4 threads (`FET_BENCH_THREADS` overrides):
//!   per-shard split-RNG streams, one dispatch, per-shard counters
//!   reduced. On a single-core host this measures pure sharding/spawn
//!   overhead rather than speedup.
//! * `bitplane_fused` / `bitplane_fused_parallel` — the same fused rounds
//!   on the packed representation (`BitPopulation`: 1 bit/agent opinions
//!   plus a byte clock plane, popcount global counts). Stream-identical
//!   to the typed rows; the interesting number is the memory column in
//!   `docs/BENCHMARKS.md`, not the round time.
//!
//! These are the numbers recorded in `docs/BENCHMARKS.md`; the acceptance
//! bars are `population_fused / typed_fused ≤ ~1.05` and
//! `typed_fused / typed_fused_parallel ≥ 2` at `n = 10^7` with 4 threads
//! on a ≥ 4-core host (measured in `end_to_end_convergence`'s
//! `FET_BENCH_LARGE` episode).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fet_bench::announced_bench_threads;
use fet_core::config::{ell_for_population, ProblemSpec};
use fet_core::erased::ErasedProtocol;
use fet_core::fet::FetProtocol;
use fet_core::opinion::Opinion;
use fet_core::population::{Population, TypedPopulation};
use fet_sim::engine::{Engine, ExecutionMode, Fidelity};
use fet_sim::init::InitialCondition;

const SIZES: [u64; 3] = [1_024, 10_000, 100_000];

fn fet(n: u64) -> FetProtocol {
    FetProtocol::new(ell_for_population(n, 4.0)).unwrap()
}

/// A random-start binomial engine over `population` in `mode`.
fn engine<A: Population + ?Sized>(population: Box<A>, n: u64, mode: ExecutionMode) -> Engine<A> {
    let spec = ProblemSpec::single_source(n, Opinion::One).unwrap();
    let init = InitialCondition::Random;
    let mut engine = Engine::new(population, spec, Fidelity::Binomial, init, 42).unwrap();
    engine.set_execution_mode(mode).unwrap();
    engine
}

fn typed_engine(n: u64, mode: ExecutionMode) -> Engine<TypedPopulation<FetProtocol>> {
    engine(Box::new(TypedPopulation::new(fet(n))), n, mode)
}

fn population_engine(n: u64, mode: ExecutionMode) -> Engine {
    engine(ErasedProtocol::new(fet(n)).population(), n, mode)
}

fn bitplane_engine(n: u64, mode: ExecutionMode) -> Engine {
    let population = ErasedProtocol::new(fet(n))
        .bit_population()
        .expect("FET's clock fits the packed aux plane at bench sizes");
    engine(population, n, mode)
}

fn bench_round(c: &mut Criterion) {
    let threads = announced_bench_threads();
    let mut group = c.benchmark_group("erased_path_round");
    for &n in &SIZES {
        group.bench_with_input(BenchmarkId::new("typed_fused", n), &n, |b, &n| {
            let mut engine = typed_engine(n, ExecutionMode::Fused);
            b.iter(|| engine.step());
        });

        group.bench_with_input(BenchmarkId::new("population_fused", n), &n, |b, &n| {
            let mut engine = population_engine(n, ExecutionMode::Fused);
            b.iter(|| engine.step());
        });

        group.bench_with_input(BenchmarkId::new("bitplane_fused", n), &n, |b, &n| {
            let mut engine = bitplane_engine(n, ExecutionMode::Fused);
            b.iter(|| engine.step());
        });

        let parallel = ExecutionMode::FusedParallel { threads };

        group.bench_with_input(BenchmarkId::new("typed_fused_parallel", n), &n, |b, &n| {
            let mut engine = typed_engine(n, parallel);
            b.iter(|| engine.step());
        });

        group.bench_with_input(
            BenchmarkId::new("population_fused_parallel", n),
            &n,
            |b, &n| {
                let mut engine = population_engine(n, parallel);
                b.iter(|| engine.step());
            },
        );

        group.bench_with_input(
            BenchmarkId::new("bitplane_fused_parallel", n),
            &n,
            |b, &n| {
                let mut engine = bitplane_engine(n, parallel);
                b.iter(|| engine.step());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_round);
criterion_main!(benches);
