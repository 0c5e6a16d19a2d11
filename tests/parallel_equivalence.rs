//! The parallel fused execution path's guarantees, checked from the
//! outside:
//!
//! 1. **Determinism / representation-independence** — a parallel fused
//!    run is keyed by `(seed, thread count)`: for one such pair, the typed
//!    engine, the facade's population-erased path, and the facade's
//!    **bit-plane** path (`.storage(Storage::BitPlane)`) replay
//!    **identical** trajectories, and none of them allocates per-round
//!    snapshot/observation/output buffers.
//! 2. **Statistical equivalence with the single-threaded fused path** —
//!    every shard draws from the same round-start mean-field samplers, so
//!    re-keying the RNG per shard changes the stream but not the law:
//!    convergence times (FET) and trajectory marginals (3-majority) must
//!    agree across seeds at both mean-field fidelities.
//!
//! Worker-count invariance per shard count is enforced at the kernel
//! level in `fet-core` and across processes by the CI determinism job
//! (`tests/determinism.rs` under different `FET_PARALLEL_WORKERS`).

use fet::prelude::*;
use fet::protocols::three_majority::ThreeMajorityProtocol;
use fet::sim::observer::TrajectoryRecorder;
use fet::stats::distance::ks_two_sample;
use fet::stats::summary::WelfordAccumulator;
use fet_core::config::{ell_for_population, ProblemSpec};
use fet_sim::convergence::ConvergenceReport;
use fet_sim::init::InitialCondition;
use fet_sim::observer::NullObserver;

const N: u64 = 250;
const SEED: u64 = 0x9A11;
const MAX_ROUNDS: u64 = 400;
const WINDOW: u64 = 3;
const THREADS: u32 = 3;

/// Runs a typed engine in the given mode, recording the trajectory and
/// asserting the parallel path's zero-scratch guarantee.
fn typed_trajectory<P>(
    protocol: P,
    mode: ExecutionMode,
    fidelity: Fidelity,
) -> (ConvergenceReport, Vec<f64>)
where
    P: Protocol + Clone + std::fmt::Debug + Send + Sync + 'static,
    P::State: 'static,
{
    let spec = ProblemSpec::single_source(N, Opinion::One).unwrap();
    let mut engine = Engine::new(
        Box::new(TypedPopulation::new(protocol)),
        spec,
        fidelity,
        InitialCondition::AllWrong,
        SEED,
    )
    .unwrap();
    engine.set_execution_mode(mode).unwrap();
    let mut rec = TrajectoryRecorder::new();
    let report = engine.run(MAX_ROUNDS, ConvergenceCriterion::new(WINDOW), &mut rec);
    if matches!(mode, ExecutionMode::FusedParallel { .. }) {
        assert_eq!(
            engine.round_scratch_bytes(),
            0,
            "parallel fused rounds must not allocate snapshot/obs/out buffers"
        );
    }
    (report, rec.into_fractions())
}

/// Runs the facade (population-erased) path by registry name, on the
/// requested storage representation.
fn facade_trajectory_on(
    name: &str,
    mode: ExecutionMode,
    storage: Storage,
) -> (ConvergenceReport, Vec<f64>) {
    let run = Simulation::builder()
        .population(N)
        .protocol_name(name)
        .seed(SEED)
        .max_rounds(MAX_ROUNDS)
        .stability_window(WINDOW)
        .execution_mode(mode)
        .storage(storage)
        .record_trajectory(true)
        .build()
        .unwrap()
        .run();
    assert_eq!(run.mode, mode);
    assert_eq!(run.storage, storage);
    (run.report, run.trajectory.expect("recording requested"))
}

fn facade_trajectory(name: &str, mode: ExecutionMode) -> (ConvergenceReport, Vec<f64>) {
    facade_trajectory_on(name, mode, Storage::Typed)
}

#[test]
fn fet_parallel_four_paths_identical_trajectories() {
    let ell = ell_for_population(N, 4.0);
    let mode = ExecutionMode::FusedParallel { threads: THREADS };
    let typed = typed_trajectory(FetProtocol::new(ell).unwrap(), mode, Fidelity::Binomial);
    let facade = facade_trajectory("fet", mode);
    let bits = facade_trajectory_on("fet", mode, Storage::BitPlane);
    assert_eq!(
        typed, facade,
        "typed vs population-erased parallel diverged"
    );
    assert_eq!(typed, bits, "typed vs bit-plane parallel diverged");
    assert!(typed.0.converged(), "{:?}", typed.0);
    // And the whole thing replays: same (seed, threads) ⇒ same stream.
    let again = typed_trajectory(FetProtocol::new(ell).unwrap(), mode, Fidelity::Binomial);
    assert_eq!(typed, again);
}

#[test]
fn three_majority_parallel_four_paths_identical_trajectories() {
    let mode = ExecutionMode::FusedParallel { threads: THREADS };
    let typed = typed_trajectory(ThreeMajorityProtocol::new(), mode, Fidelity::Binomial);
    let facade = facade_trajectory("3-majority", mode);
    let bits = facade_trajectory_on("3-majority", mode, Storage::BitPlane);
    assert_eq!(
        typed, facade,
        "typed vs population-erased parallel diverged"
    );
    assert_eq!(typed, bits, "typed vs bit-plane parallel diverged");
    assert_eq!(typed.1.len(), facade.1.len());
}

/// The single-threaded fused stream must be untouched by the parallel
/// machinery (it predates this PR), and each shard count must be its own
/// stream rather than an alias of another path.
#[test]
fn parallel_streams_are_distinct_but_fused_stream_is_preserved() {
    let ell = ell_for_population(N, 4.0);
    let fused = typed_trajectory(
        FetProtocol::new(ell).unwrap(),
        ExecutionMode::Fused,
        Fidelity::Binomial,
    );
    let par1 = typed_trajectory(
        FetProtocol::new(ell).unwrap(),
        ExecutionMode::FusedParallel { threads: 1 },
        Fidelity::Binomial,
    );
    let par2 = typed_trajectory(
        FetProtocol::new(ell).unwrap(),
        ExecutionMode::FusedParallel { threads: 2 },
        Fidelity::Binomial,
    );
    assert!(fused.0.converged() && par1.0.converged() && par2.0.converged());
    assert_ne!(
        fused.1, par1.1,
        "one shard still re-keys the RNG; it must not alias the fused stream"
    );
    assert_ne!(par1.1, par2.1, "shard counts key distinct streams");
}

/// FET convergence times under parallel vs single-threaded fused
/// execution, across seeds: equal distributions up to Monte-Carlo error at
/// both mean-field fidelities (mean comparison in pooled standard errors
/// plus a two-sample KS bound at α ≈ 10⁻³).
#[test]
fn fet_parallel_vs_fused_convergence_times_agree() {
    let n = 400u64;
    let ell = ell_for_population(n, 4.0);
    let reps = 60u64;
    for fidelity in [Fidelity::Binomial, Fidelity::WithoutReplacement] {
        let run = |mode: ExecutionMode, seed: u64| -> f64 {
            let spec = ProblemSpec::single_source(n, Opinion::One).unwrap();
            let mut engine = Engine::new(
                Box::new(TypedPopulation::new(FetProtocol::new(ell).unwrap())),
                spec,
                fidelity,
                InitialCondition::AllWrong,
                seed,
            )
            .unwrap();
            engine.set_execution_mode(mode).unwrap();
            let report = engine.run(20_000, ConvergenceCriterion::new(WINDOW), &mut NullObserver);
            report.converged_at.expect("FET converges at n = 400") as f64
        };
        let mut acc_f = WelfordAccumulator::new();
        let mut acc_p = WelfordAccumulator::new();
        let mut times_f = Vec::new();
        let mut times_p = Vec::new();
        for seed in 0..reps {
            let tf = run(ExecutionMode::Fused, seed);
            let tp = run(ExecutionMode::FusedParallel { threads: 4 }, seed);
            acc_f.push(tf);
            acc_p.push(tp);
            times_f.push(tf);
            times_p.push(tp);
        }
        let se = (acc_f.standard_error().powi(2) + acc_p.standard_error().powi(2)).sqrt();
        let diff = (acc_f.mean() - acc_p.mean()).abs();
        assert!(
            diff < 5.0 * se.max(0.1),
            "{fidelity:?}: mean t_con fused {} vs parallel {} (diff {diff}, se {se})",
            acc_f.mean(),
            acc_p.mean()
        );
        let ks = ks_two_sample(&times_f, &times_p).unwrap();
        let crit = 1.95 * (2.0 / reps as f64).sqrt();
        assert!(
            ks < crit,
            "{fidelity:?}: KS {ks} over critical {crit} for t_con distributions"
        );
    }
}

/// 3-majority equivalence on the trajectory marginal: the distribution of
/// `x_t` after a fixed number of rounds from the random start, across
/// seeds, at both mean-field fidelities.
#[test]
fn three_majority_parallel_vs_fused_trajectory_marginals_agree() {
    let n = 300u64;
    let rounds = 3u64;
    let reps = 200u64;
    for fidelity in [Fidelity::Binomial, Fidelity::WithoutReplacement] {
        let run = |mode: ExecutionMode, seed: u64| -> f64 {
            let spec = ProblemSpec::single_source(n, Opinion::One).unwrap();
            let mut engine = Engine::new(
                Box::new(TypedPopulation::new(ThreeMajorityProtocol::new())),
                spec,
                fidelity,
                InitialCondition::Random,
                seed,
            )
            .unwrap();
            engine.set_execution_mode(mode).unwrap();
            for _ in 0..rounds {
                engine.step();
            }
            engine.fraction_ones()
        };
        let xs_f: Vec<f64> = (0..reps).map(|s| run(ExecutionMode::Fused, s)).collect();
        let xs_p: Vec<f64> = (0..reps)
            .map(|s| run(ExecutionMode::FusedParallel { threads: 4 }, s))
            .collect();
        let ks = ks_two_sample(&xs_f, &xs_p).unwrap();
        let crit = 1.95 * (2.0 / reps as f64).sqrt();
        assert!(
            ks < crit,
            "{fidelity:?}: KS {ks} over critical {crit} for x_{rounds} marginals"
        );
    }
}
