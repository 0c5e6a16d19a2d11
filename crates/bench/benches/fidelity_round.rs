//! Micro-benchmark: one full population round per fidelity.
//!
//! Quantifies the fidelity tower of DESIGN.md §4.2: literal `O(n·ℓ)`
//! sampling vs `O(n)` binomial counts vs the `O(ℓ)` aggregate chain — all
//! configured through the unified `Simulation` facade.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fet_sim::engine::Fidelity;
use fet_sim::fault::FaultPlan;
use fet_sim::init::InitialCondition;
use fet_sim::simulation::Simulation;

fn bench_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("fidelity_round");
    for &n in &[1_000u64, 10_000] {
        for fidelity in [Fidelity::Agent, Fidelity::Binomial] {
            // At n = 10⁴ each fidelity also runs under observation noise
            // δ = 10⁻⁶, beside its noise-free row: the cost of noise.
            let noises: &[f64] = if n == 10_000 { &[0.0, 1e-6] } else { &[0.0] };
            for &noise in noises {
                let label = if noise > 0.0 {
                    format!("{fidelity:?}_noise1e-6")
                } else {
                    format!("{fidelity:?}")
                };
                group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                    let mut sim = Simulation::builder()
                        .population(n)
                        .fidelity(fidelity)
                        .init(InitialCondition::Random)
                        .fault(FaultPlan::with_noise(noise).unwrap())
                        .seed(42)
                        .build()
                        .unwrap();
                    b.iter(|| sim.step());
                });
            }
        }
        group.bench_with_input(BenchmarkId::new("Aggregate", n), &n, |b, _| {
            let mut sim = Simulation::builder()
                .population(n)
                .fidelity(Fidelity::Aggregate)
                .init(InitialCondition::Random)
                .seed(42)
                .build()
                .unwrap();
            b.iter(|| sim.step());
        });
    }
    // Aggregate at a billion agents — the point of the O(ℓ) fidelity.
    group.bench_function("Aggregate/1e9", |b| {
        let mut sim = Simulation::builder()
            .population(1_000_000_000)
            .ell(83)
            .fidelity(Fidelity::Aggregate)
            .init(InitialCondition::FractionCorrect(0.4))
            .seed(7)
            .build()
            .unwrap();
        b.iter(|| sim.step());
    });
    group.finish();
}

criterion_group!(benches, bench_rounds);
criterion_main!(benches);
