//! Episode-tier dispatch overhead: the `fet-sweep` runner against a bare
//! serial loop over the same episodes.
//!
//! Three variants over one 64-episode single-cell sweep (n = 200, fused
//! mean-field rounds — episodes short enough that scheduling cost is
//! visible):
//!
//! * `serial_loop` — the baseline: build + run each simulation in a plain
//!   `for` loop, no runner, no cache, no channel.
//! * `runner_1` — `run_sweep` with one worker: the full runner machinery
//!   (warm cache, merge loop, aggregates) on the calling thread. The
//!   ISSUE 6 acceptance bar is `runner_1 / serial_loop ≤ 1.05` — the
//!   dispatch layer must cost under 5% on top of the episodes themselves.
//! * `runner_4` — four workers claiming episodes from the job dispenser
//!   (`fet_core::pool::run_jobs`). On a multi-core host this should
//!   approach a 4× speedup; on a starved host (see the parallelism note
//!   this bench prints) it measures the thread, cursor and hand-over
//!   overhead instead.
//!
//! Numbers are recorded in `docs/BENCHMARKS.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use fet_bench::host_parallelism_note;
use fet_sim::engine::ExecutionMode;
use fet_sim::simulation::Simulation;
use fet_sweep::runner::{run_sweep, SweepOptions};
use fet_sweep::spec::SweepSpec;

const EPISODES: u64 = 64;
const N: u64 = 200;
const MAX_ROUNDS: u64 = 300;
const SEED_BASE: u64 = 7;

fn spec() -> SweepSpec {
    let mut s = SweepSpec::single_cell(N, SEED_BASE, EPISODES);
    s.max_rounds = Some(MAX_ROUNDS);
    s
}

fn serial_loop() -> u64 {
    let mut rounds = 0;
    for i in 0..EPISODES {
        let report = Simulation::builder()
            .population(N)
            .seed(SEED_BASE + i)
            .execution_mode(ExecutionMode::Fused)
            .max_rounds(MAX_ROUNDS)
            .build()
            .expect("valid episode")
            .run();
        rounds += report.report.rounds_run;
    }
    rounds
}

fn runner(workers: usize) -> u64 {
    let outcome = run_sweep(
        &spec(),
        &SweepOptions {
            workers,
            ..SweepOptions::default()
        },
    )
    .expect("sweep runs");
    outcome.records.iter().map(|r| r.report.rounds_run).sum()
}

fn bench_episode_sweep(c: &mut Criterion) {
    host_parallelism_note(4);
    // The runner must reproduce the serial loop's episodes exactly —
    // guard the comparison before timing it.
    let want = serial_loop();
    assert_eq!(runner(1), want, "runner(1) diverged from the serial loop");
    assert_eq!(runner(4), want, "runner(4) diverged from the serial loop");

    let mut group = c.benchmark_group("episode_sweep_64");
    group.bench_function("serial_loop", |b| b.iter(serial_loop));
    group.bench_function("runner_1", |b| b.iter(|| runner(1)));
    group.bench_function("runner_4", |b| b.iter(|| runner(4)));
    group.finish();
}

criterion_group!(benches, bench_episode_sweep);
criterion_main!(benches);
