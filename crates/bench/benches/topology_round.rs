//! Micro-benchmarks for the topology substrate: graph generation cost and
//! the per-round cost of neighbor-restricted sampling vs flat sampling,
//! both driven through the unified `Simulation` facade.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fet_sim::engine::Fidelity;
use fet_sim::init::InitialCondition;
use fet_sim::simulation::Simulation;
use fet_stats::rng::SeedTree;
use fet_topology::builders;

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_generation");
    // n = 10⁵ is the size of the benchmark's `graph-reg32-1e5` graph.
    for &n in &[1_000u32, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("erdos_renyi_m=16n", n), &n, |b, &n| {
            let p = 32.0 / f64::from(n);
            let mut rng = SeedTree::new(1).rng();
            b.iter(|| builders::erdos_renyi(n, p, &mut rng).expect("valid"));
        });
        group.bench_with_input(BenchmarkId::new("random_regular_d=32", n), &n, |b, &n| {
            let mut rng = SeedTree::new(2).rng();
            b.iter(|| builders::random_regular(n, 32, &mut rng).expect("valid"));
        });
        if n > 10_000 {
            continue;
        }
        group.bench_with_input(BenchmarkId::new("watts_strogatz_k=8", n), &n, |b, &n| {
            let mut rng = SeedTree::new(3).rng();
            b.iter(|| builders::watts_strogatz(n, 8, 0.1, &mut rng).expect("valid"));
        });
    }
    group.finish();
}

fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology_round");
    let n = 2_000u32;
    group.bench_function("facade_flat_agent_fidelity", |b| {
        let mut sim = Simulation::builder()
            .population(u64::from(n))
            .fidelity(Fidelity::Agent)
            .init(InitialCondition::Random)
            .seed(5)
            .build()
            .expect("valid");
        b.iter(|| sim.step());
    });
    group.bench_function("facade_topology_complete", |b| {
        let graph = builders::complete(n).expect("valid");
        let mut sim = Simulation::builder()
            .topology(graph)
            .init(InitialCondition::Random)
            .seed(7)
            .build()
            .expect("valid");
        b.iter(|| sim.step());
    });
    group.bench_function("facade_topology_regular_d32", |b| {
        let mut rng = SeedTree::new(9).rng();
        let graph = builders::random_regular(n, 32, &mut rng).expect("valid");
        let mut sim = Simulation::builder()
            .topology(graph)
            .init(InitialCondition::Random)
            .seed(11)
            .build()
            .expect("valid");
        b.iter(|| sim.step());
    });
    group.finish();
}

criterion_group!(benches, bench_generators, bench_rounds);
criterion_main!(benches);
