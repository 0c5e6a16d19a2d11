//! Macro-benchmark: full convergence runs from the all-wrong start.
//!
//! Wall-clock for one complete self-stabilization episode at several
//! scales, driven through the unified `Simulation` facade — the number a
//! downstream user of the library actually feels. The `typed_vs_registry`
//! pair at `n = 10^5` is the acceptance gauge for the population-erased
//! facade path: a registry-name run must stay within a few percent of the
//! typed `Engine<TypedPopulation<FetProtocol>>` run it is stream-identical to.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, SamplingMode};
use fet_bench::{announced_bench_threads, vm_rss_bytes};
use fet_core::config::{ell_for_population, ProblemSpec};
use fet_core::fet::FetProtocol;
use fet_core::opinion::Opinion;
use fet_core::population::TypedPopulation;
use fet_sim::convergence::ConvergenceCriterion;
use fet_sim::engine::{Engine, ExecutionMode, Fidelity};
use fet_sim::init::InitialCondition;
use fet_sim::observer::NullObserver;
use fet_sim::simulation::{Simulation, Storage};

fn bench_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_convergence");
    group.sampling_mode(SamplingMode::Flat);
    group.sample_size(10);

    for &n in &[500u64, 2_000] {
        group.bench_with_input(BenchmarkId::new("facade_binomial", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                Simulation::builder()
                    .population(n)
                    .seed(seed)
                    .max_rounds(1_000_000)
                    .build()
                    .unwrap()
                    .run()
            });
        });
    }
    for &n in &[100_000u64, 10_000_000] {
        group.bench_with_input(BenchmarkId::new("facade_aggregate", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                Simulation::builder()
                    .population(n)
                    .fidelity(Fidelity::Aggregate)
                    .seed(seed)
                    .max_rounds(10_000_000)
                    .build()
                    .unwrap()
                    .run()
            });
        });
    }
    group.finish();
}

/// Typed engine vs registry-name facade at `n = 10^5`: same protocol, same
/// seed schedule, same binomial fidelity — the two full-convergence numbers
/// whose ratio is the erased-path overhead.
fn bench_typed_vs_registry(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_convergence");
    group.sampling_mode(SamplingMode::Flat);
    group.sample_size(10);
    let n = 100_000u64;

    group.bench_with_input(BenchmarkId::new("engine_typed_binomial", n), &n, |b, &n| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let protocol = FetProtocol::new(ell_for_population(n, 4.0)).unwrap();
            let spec = ProblemSpec::single_source(n, Opinion::One).unwrap();
            let mut engine = Engine::new(
                Box::new(TypedPopulation::new(protocol)),
                spec,
                Fidelity::Binomial,
                InitialCondition::AllWrong,
                seed,
            )
            .unwrap();
            engine.run(1_000_000, ConvergenceCriterion::new(3), &mut NullObserver)
        });
    });
    group.bench_with_input(
        BenchmarkId::new("facade_registry_binomial", n),
        &n,
        |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                Simulation::builder()
                    .population(n)
                    .protocol_name("fet")
                    .seed(seed)
                    .max_rounds(1_000_000)
                    .build()
                    .unwrap()
                    .run()
            });
        },
    );
    group.finish();
}

/// Fused vs parallel-fused full-convergence runs at `n = 10^5` through
/// the facade (`FET_BENCH_THREADS` shards, default 4). With `FET_BENCH_LARGE=1`,
/// also one `n = 10^7` episode in each fused mode plus a single `n = 10^8`
/// bit-plane episode with RSS and rounds/s reporting — the bounded-memory
/// and ISSUE 4 speedup demonstration rows of `docs/BENCHMARKS.md`
/// (several minutes; excluded from default and CI budgets).
fn bench_fused_vs_parallel(c: &mut Criterion) {
    let threads = announced_bench_threads();
    let mut group = c.benchmark_group("end_to_end_convergence");
    group.sampling_mode(SamplingMode::Flat);
    group.sample_size(10);
    let n = 100_000u64;
    for (label, mode) in [
        ("facade_fused_binomial", ExecutionMode::Fused),
        (
            "facade_fused_parallel_binomial",
            ExecutionMode::FusedParallel { threads },
        ),
    ] {
        group.bench_with_input(BenchmarkId::new(label, n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                Simulation::builder()
                    .population(n)
                    .execution_mode(mode)
                    .seed(seed)
                    .max_rounds(1_000_000)
                    .build()
                    .unwrap()
                    .run()
            });
        });
    }
    if std::env::var_os("FET_BENCH_LARGE").is_some() {
        let n_large = 10_000_000u64;
        group.sample_size(2);
        for (label, mode) in [
            ("facade_fused_binomial", ExecutionMode::Fused),
            (
                "facade_fused_parallel_binomial",
                ExecutionMode::FusedParallel { threads },
            ),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n_large), &n_large, |b, &n| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let report = Simulation::builder()
                        .population(n)
                        .execution_mode(mode)
                        .seed(seed)
                        .max_rounds(1_000_000)
                        .build()
                        .unwrap()
                        .run();
                    assert!(report.converged(), "{report:?}");
                    report
                });
            });
        }
    }
    group.finish();
    if std::env::var_os("FET_BENCH_LARGE").is_some() {
        report_bitplane_large_episode(threads);
    }
}

/// One `n = 10⁸` mean-field FET self-stabilization episode on bit-plane
/// storage, reported outside criterion's timing loop (a single episode
/// *is* the artifact): rounds/s, the engine's resident state bytes, and
/// the host-measured VmRSS — the numbers behind the memory table in
/// `docs/BENCHMARKS.md`. The opinion planes are 2 bits/agent; the
/// assertion pins the engine's own accounting to that budget plus FET's
/// byte clock plane.
fn report_bitplane_large_episode(threads: u32) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let n = 100_000_000u64;
    // The population is freed inside `run()` (and the allocator returns
    // the mmap'd planes to the OS immediately), so an after-the-fact
    // VmRSS read misses the episode entirely — sample it while running.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak = vm_rss_bytes().unwrap_or(0);
            while !stop.load(Ordering::Relaxed) {
                if let Some(rss) = vm_rss_bytes() {
                    peak = peak.max(rss);
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            peak
        })
    };
    let start = std::time::Instant::now();
    let run = Simulation::builder()
        .population(n)
        .execution_mode(ExecutionMode::FusedParallel { threads })
        .storage(Storage::BitPlane)
        .seed(1)
        .max_rounds(1_000_000)
        .build()
        .expect("valid bit-plane configuration")
        .run();
    let secs = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let peak_rss = sampler.join().expect("sampler thread never panics");
    assert!(run.converged(), "n = 10^8 episode must converge: {run:?}");
    assert_eq!(run.storage, Storage::BitPlane);
    // Opinion storage ≤ 2 bits/agent (two 1-bit planes) + the 1-byte
    // clock plane; anything past ~1.25 bytes/agent means a plane leaked.
    let budget = 2 * n.div_ceil(8) + n;
    assert!(
        run.resident_bytes <= budget + budget / 8,
        "resident state {} bytes exceeds the packed budget {}",
        run.resident_bytes,
        budget
    );
    let rounds = run.report.rounds_run;
    println!(
        "bitplane_large_episode/{n}: converged at {:?} after {rounds} rounds in {secs:.1} s \
         ({:.2} rounds/s); resident state {} bytes ({:.3} bytes/agent); \
         peak VmRSS {:.0} MiB (sampled)",
        run.report.converged_at,
        rounds as f64 / secs,
        run.resident_bytes,
        run.resident_bytes as f64 / n as f64,
        peak_rss as f64 / (1024.0 * 1024.0),
    );
}

criterion_group!(
    benches,
    bench_convergence,
    bench_typed_vs_registry,
    bench_fused_vs_parallel
);
criterion_main!(benches);
