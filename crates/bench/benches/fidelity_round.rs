//! Micro-benchmark: one full population round per fidelity.
//!
//! Quantifies the fidelity tower of fet-sim's crate docs: literal
//! `O(n·ℓ)` sampling vs `O(n)` binomial counts vs the `O(ℓ)` aggregate
//! chain — all configured through the unified `Simulation` facade.

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
            // δ = 10⁻⁶ and under sleepy agents at s = 0.2, beside its
            // fault-free row: the cost of each fault.
            let mut faults = vec![("", FaultPlan::none())];
            if n == 10_000 {
                faults.push(("_noise1e-6", FaultPlan::with_noise(1e-6).unwrap()));
                faults.push(("_sleep0.2", FaultPlan::with_sleep(0.2).unwrap()));
            }
            for (suffix, fault) in faults {
                let label = format!("{fidelity:?}{suffix}");
                group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                    let mut sim = Simulation::builder()
                        .population(n)
                        .fidelity(fidelity)
                        .init(InitialCondition::Random)
                        .fault(fault)
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
