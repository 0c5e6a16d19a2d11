//! Micro-benchmark: one Binomial FET round per regime of an episode, on
//! typed and on bit-plane storage.
//!
//! A `fet run` episode from the all-wrong start spends its first rounds
//! next to the all-zero consensus (x_t ≈ 10⁻⁵–10⁻³), a couple of rounds
//! mixed, and its last rounds at consensus, where a noisy run stays. Each
//! row times one round from a freshly built population in that regime
//! (the build is not timed), at n = 10⁵ and the default ℓ = 47:
//!
//! * `near-zero` — x = 5·10⁻⁴, unanimity probability `u ≈ 0.95`;
//! * `mixed` — x = 0.35, `u ≈ 0`;
//! * `consensus` — every agent correct, a degenerate law;
//! * `noisy-consensus` — every agent correct, δ = 10⁻⁶, `u ≈ 0.9999`.
//!
//! Divide the printed ns/iter by 10⁵ for ns/agent.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fet_sim::fault::FaultPlan;
use fet_sim::init::InitialCondition;
use fet_sim::simulation::{Simulation, Storage};

const N: u64 = 100_000;

fn bench_regimes(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_regime");
    let regimes = [
        ("near-zero", InitialCondition::FractionCorrect(5e-4), 0.0),
        ("mixed", InitialCondition::FractionCorrect(0.35), 0.0),
        ("consensus", InitialCondition::AllCorrect, 0.0),
        ("noisy-consensus", InitialCondition::AllCorrect, 1e-6),
    ];
    for (storage, label) in [(Storage::Typed, "typed"), (Storage::BitPlane, "bit-plane")] {
        for (regime, init, delta) in regimes {
            let mut seed = 0;
            group.bench_function(format!("{label}/{regime}"), |b| {
                b.iter_batched(
                    || {
                        seed += 1;
                        Simulation::builder()
                            .population(N)
                            .storage(storage)
                            .init(init)
                            .fault(FaultPlan::with_noise(delta).unwrap())
                            .seed(seed)
                            .build()
                            .unwrap()
                    },
                    |mut sim| {
                        sim.step();
                        sim
                    },
                    BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_regimes);
criterion_main!(benches);
