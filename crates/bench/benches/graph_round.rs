//! The graph (neighborhood) round, measured at the engine level: one
//! synchronous FET round on a random-regular expander through each
//! execution mode and storage.
//!
//! * `graph_fused` — the single-pass graph kernel: each agent's
//!   observation drawn on demand from its neighbors' round-start opinions
//!   (the persistent double buffer), update applied, output written in
//!   place, counters accumulated — no observation/output buffers.
//! * `graph_fused_parallel` — the same pass work-sharded by contiguous
//!   vertex range over the shared adjacency (`FET_BENCH_THREADS` shards,
//!   default 4). On a single-core host this measures pure sharding/spawn
//!   overhead rather than speedup.
//! * `graph_bitplane_fused` / `graph_bitplane_fused_parallel` — the same
//!   two fused passes on the packed `BitPopulation`, where the round-start
//!   double buffer is a 1-bit-per-agent plane snapshot instead of the
//!   byte buffer.
//!
//! Default sizes 10⁴ and 10⁵ at degree 32 (≈ 4·ln n at 10⁵ — the regime
//! where FET behaves like the complete graph); `FET_BENCH_LARGE=1` adds
//! the opt-in 10⁷ episode. At degree 32 every vertex has fewer neighbors
//! than its `m = 2ℓ` observations (74 at 10⁴, 94 at 10⁵), so it counts its
//! round-start 1-neighbors and draws one `Binomial(m, k/d)` variate.
//! Numbers are recorded in `docs/BENCHMARKS.md`.
//!
//! Three self-describing extras:
//!
//! * `graph_fused_d128` — the fused round at degree 128, above `m`, where
//!   every vertex draws its `m` neighbor indices through the 8-lane Lemire
//!   kernels. Beside `graph_fused` it times both sides of the count-or-draw
//!   rule.
//! * `graph_fused_{scalar,swar,avx2}` — the degree-128 fused round with the
//!   sampling kernel tier pinned per `fet_stats::isa` path (the SIMD
//!   acceptance rows; paths the host can't execute are skipped). The
//!   unpinned rows measure whatever `FET_SIMD`/detection selects.
//! * `graph_fused_parallel_pinned4` — the pinned 4-thread acceptance row,
//!   emitted automatically exactly when the host exposes ≥ 4 CPUs (the
//!   self-closing multicore guard: every run prints
//!   `host_parallelism=N`, and the ≥2×-at-4-threads table fills itself in
//!   the first time a multi-core host runs this bench).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fet_bench::{announced_bench_threads, report_host_parallelism};
use fet_core::config::ProblemSpec;
use fet_core::erased::ErasedProtocol;
use fet_core::fet::FetProtocol;
use fet_core::opinion::Opinion;
use fet_core::population::{Population, TypedPopulation};
use fet_sim::engine::{Engine, ExecutionMode, Fidelity};
use fet_sim::init::InitialCondition;
use fet_stats::isa::{self, IsaPath};
use fet_stats::rng::SeedTree;
use fet_topology::builders;
use fet_topology::graph::Graph;

const DEGREE: u32 = 32;
/// Above `m` at every default size, so vertices draw neighbor indices.
const DENSE_DEGREE: u32 = 128;

/// A random-start engine over `population` on `graph`, one source at
/// vertex 0.
fn graph_engine<A: Population + ?Sized>(population: Box<A>, graph: Graph) -> Engine<A> {
    let spec = ProblemSpec::single_source(u64::from(graph.n()), Opinion::One).expect("valid spec");
    Engine::new(
        population,
        spec,
        Fidelity::Agent,
        InitialCondition::Random,
        42,
    )
    .expect("valid engine")
    .with_neighborhood(Box::new(graph))
    .expect("an observable graph")
}

fn sizes() -> Vec<u32> {
    let mut sizes = vec![10_000u32, 100_000];
    if std::env::var("FET_BENCH_LARGE").is_ok() {
        sizes.push(10_000_000);
    }
    sizes
}

fn bench_graph_round(c: &mut Criterion) {
    let threads = announced_bench_threads();
    let host_cpus = report_host_parallelism();
    let mut group = c.benchmark_group("graph_round");
    let parallel = ExecutionMode::FusedParallel { threads };
    for &n in &sizes() {
        let mut rows: Vec<(String, ExecutionMode, Option<IsaPath>, u32)> = vec![
            ("graph_fused".into(), ExecutionMode::Fused, None, DEGREE),
            (
                "graph_fused_d128".into(),
                ExecutionMode::Fused,
                None,
                DENSE_DEGREE,
            ),
            ("graph_fused_parallel".into(), parallel, None, DEGREE),
        ];
        for path in IsaPath::available() {
            rows.push((
                format!("graph_fused_{}", path.name()),
                ExecutionMode::Fused,
                Some(path),
                DENSE_DEGREE,
            ));
        }
        // The self-closing multicore guard: the pinned 4-thread acceptance
        // row runs itself whenever the host can actually parallelize it.
        if host_cpus >= 4 {
            rows.push((
                "graph_fused_parallel_pinned4".into(),
                ExecutionMode::FusedParallel { threads: 4 },
                None,
                DEGREE,
            ));
        } else {
            eprintln!(
                "skipping graph_fused_parallel_pinned4: host_parallelism={host_cpus} < 4 \
                 (the row would measure scheduling overhead, not speedup)"
            );
        }
        for (label, mode, pin, degree) in &rows {
            group.bench_with_input(BenchmarkId::new(label.clone(), n), &n, |b, &n| {
                isa::force_path(*pin);
                let mut rng = SeedTree::new(17).child("graph-bench").rng();
                let graph =
                    builders::random_regular(n, *degree, &mut rng).expect("valid regular graph");
                let protocol = FetProtocol::for_population(u64::from(n), 4.0).expect("valid ℓ");
                let mut engine = graph_engine(Box::new(TypedPopulation::new(protocol)), graph);
                engine
                    .set_execution_mode(*mode)
                    .expect("graph-capable mode");
                b.iter(|| engine.step());
                isa::force_path(None);
            });
        }
        // The packed representation on the same expander: graph-fused and
        // graph-fused-parallel rounds on a `BitPopulation`, whose
        // round-start double buffer is the 1-bit plane snapshot.
        for (label, mode) in [
            ("graph_bitplane_fused", ExecutionMode::Fused),
            ("graph_bitplane_fused_parallel", parallel),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, &n| {
                let mut rng = SeedTree::new(17).child("graph-bench").rng();
                let graph =
                    builders::random_regular(n, DEGREE, &mut rng).expect("valid regular graph");
                let protocol = FetProtocol::for_population(u64::from(n), 4.0).expect("valid ℓ");
                let population = ErasedProtocol::new(protocol)
                    .bit_population()
                    .expect("FET's clock fits the packed aux plane at bench sizes");
                let mut engine = graph_engine(population, graph);
                engine.set_execution_mode(mode).expect("graph-capable mode");
                b.iter(|| engine.step());
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_graph_round);
criterion_main!(benches);
