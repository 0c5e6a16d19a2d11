//! The graph-fused execution path's guarantees, checked from the outside
//! (the neighborhood counterpart of `tests/fused_equivalence.rs` /
//! `tests/parallel_equivalence.rs`):
//!
//! 1. **Determinism / representation-independence** — a graph-fused run
//!    is its own deterministic stream: for one seed (and, for the
//!    parallel mode, one shard count), the typed engine, the facade's
//!    population-erased path, and the facade's bit-plane path
//!    (`.storage(Storage::BitPlane)`) replay **identical** trajectories,
//!    and the only auxiliary memory any of them keeps is the persistent
//!    round-start opinion double buffer (~1 byte/agent typed, 1 bit/agent
//!    packed).
//! 2. **Statistical equivalence across shard counts** — the sharded round
//!    samples exactly the single-threaded round's law (m neighbors with
//!    replacement, counted in the round-start snapshot) from re-keyed
//!    streams, so convergence times on a random-regular expander must
//!    agree across seeds between graph-fused and graph-fused-parallel
//!    execution (mean comparison in pooled standard errors plus a
//!    two-sample KS bound at α ≈ 10⁻³). The per-observation law itself is
//!    checked exactly in `tests/noise_law.rs`.

use fet::prelude::*;
use fet::sim::observer::TrajectoryRecorder;
use fet::stats::distance::ks_two_sample;
use fet::stats::summary::WelfordAccumulator;
use fet::topology::builders;
use fet::topology::graph::Graph;
use fet_core::config::{ell_for_population, ProblemSpec};
use fet_sim::convergence::ConvergenceReport;
use fet_sim::init::InitialCondition;
use fet_sim::observer::NullObserver;

const N: u32 = 250;
const DEGREE: u32 = 32;
const SEED: u64 = 0x66AF;
const MAX_ROUNDS: u64 = 600;
const WINDOW: u64 = 3;

/// The fixed expander instance shared by the identity tests (its own seed
/// lane, so the engine seed remains the run key).
fn expander(n: u32) -> Graph {
    let mut rng = SeedTree::new(0x9E0).child("graph-equivalence").rng();
    builders::random_regular(n, DEGREE, &mut rng).unwrap()
}

/// A typed engine on `expander(n)` from the all-wrong start, with the
/// source at vertex 0.
fn graph_engine<P>(protocol: P, n: u32, seed: u64) -> Engine<TypedPopulation<P>>
where
    P: Protocol + std::fmt::Debug + Send + Sync,
{
    let spec = ProblemSpec::single_source(u64::from(n), Opinion::One).unwrap();
    let population = Box::new(TypedPopulation::new(protocol));
    Engine::new(
        population,
        spec,
        Fidelity::Agent,
        InitialCondition::AllWrong,
        seed,
    )
    .unwrap()
    .with_neighborhood(Box::new(expander(n)))
    .unwrap()
}

/// Runs a typed graph engine in the given mode, recording the trajectory
/// and asserting the fused path's double-buffer-only memory guarantee.
fn typed_trajectory<P>(protocol: P, mode: ExecutionMode) -> (ConvergenceReport, Vec<f64>)
where
    P: Protocol + Clone + std::fmt::Debug + Send + Sync + 'static,
    P::State: 'static,
{
    let mut engine = graph_engine(protocol, N, SEED);
    engine.set_execution_mode(mode).unwrap();
    let mut rec = TrajectoryRecorder::new();
    let report = engine.run(MAX_ROUNDS, ConvergenceCriterion::new(WINDOW), &mut rec);
    assert_eq!(
        engine.round_scratch_bytes(),
        N as usize * std::mem::size_of::<Opinion>(),
        "graph-fused rounds keep the n-byte opinion double buffer and nothing else"
    );
    (report, rec.into_fractions())
}

/// Runs the facade (population-erased) path on the same graph instance,
/// on the requested storage representation.
fn facade_trajectory_on(
    name: &str,
    mode: ExecutionMode,
    storage: Storage,
) -> (ConvergenceReport, Vec<f64>) {
    let run = Simulation::builder()
        .topology(expander(N))
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
fn fet_graph_fused_four_paths_identical_trajectories() {
    let ell = ell_for_population(u64::from(N), 4.0);
    for mode in [
        ExecutionMode::Fused,
        ExecutionMode::FusedParallel { threads: 3 },
    ] {
        let typed = typed_trajectory(FetProtocol::new(ell).unwrap(), mode);
        let facade = facade_trajectory("fet", mode);
        let bits = facade_trajectory_on("fet", mode, Storage::BitPlane);
        assert_eq!(
            typed, facade,
            "{mode:?}: typed vs population-erased graph trajectories diverged"
        );
        assert_eq!(
            typed, bits,
            "{mode:?}: typed vs bit-plane graph trajectories diverged"
        );
        assert!(
            typed.0.converged(),
            "{mode:?}: Θ(log n)-degree expander must converge: {:?}",
            typed.0
        );
        // And the stream replays.
        let again = typed_trajectory(FetProtocol::new(ell).unwrap(), mode);
        assert_eq!(typed, again, "{mode:?}: replay diverged");
    }
}

/// The modes are distinct deterministic streams of one distribution:
/// graph-fused and each parallel shard count differ bitwise but never in
/// law.
#[test]
fn graph_modes_are_distinct_streams() {
    let ell = ell_for_population(u64::from(N), 4.0);
    let fused = typed_trajectory(FetProtocol::new(ell).unwrap(), ExecutionMode::Fused);
    let par1 = typed_trajectory(
        FetProtocol::new(ell).unwrap(),
        ExecutionMode::FusedParallel { threads: 1 },
    );
    let par2 = typed_trajectory(
        FetProtocol::new(ell).unwrap(),
        ExecutionMode::FusedParallel { threads: 2 },
    );
    assert_ne!(
        fused.1, par1.1,
        "one shard still re-keys the RNG; it must not alias the fused stream"
    );
    assert_ne!(par1.1, par2.1, "shard counts key distinct graph streams");
}

/// FET convergence times on the expander under graph-fused vs
/// graph-fused-parallel execution, across seeds: equal distributions up to
/// Monte-Carlo error.
#[test]
fn fet_graph_fused_vs_parallel_convergence_times_agree() {
    let n = 300u32;
    let reps = 40u64;
    let run = |mode: ExecutionMode, seed: u64| -> f64 {
        let protocol = FetProtocol::for_population(u64::from(n), 4.0).unwrap();
        let mut engine = graph_engine(protocol, n, seed);
        engine.set_execution_mode(mode).unwrap();
        let report = engine.run(20_000, ConvergenceCriterion::new(WINDOW), &mut NullObserver);
        report
            .converged_at
            .expect("FET converges on a Θ(log n)-degree expander") as f64
    };
    let collect = |mode: ExecutionMode| -> (WelfordAccumulator, Vec<f64>) {
        let mut acc = WelfordAccumulator::new();
        let mut times = Vec::new();
        for seed in 0..reps {
            let t = run(mode, seed);
            acc.push(t);
            times.push(t);
        }
        (acc, times)
    };
    let (acc_f, times_f) = collect(ExecutionMode::Fused);
    let (acc_p, times_p) = collect(ExecutionMode::FusedParallel { threads: 4 });
    let se = (acc_f.standard_error().powi(2) + acc_p.standard_error().powi(2)).sqrt();
    let diff = (acc_f.mean() - acc_p.mean()).abs();
    assert!(
        diff < 5.0 * se.max(0.1),
        "graph: mean t_con fused {} vs fused-parallel {} (diff {diff}, se {se})",
        acc_f.mean(),
        acc_p.mean()
    );
    let ks = ks_two_sample(&times_f, &times_p).unwrap();
    let crit = 1.95 * (2.0 / reps as f64).sqrt();
    assert!(
        ks < crit,
        "graph: KS {ks} over critical {crit} for t_con distributions"
    );
}

/// Faults compose with the graph source exactly as with the mean-field
/// one: noisy, retargeted and sleepy graph-fused runs replay and match the
/// facade.
#[test]
fn graph_fused_fault_plans_replay_and_match_facade() {
    let ell = ell_for_population(u64::from(N), 4.0);
    for fault in [
        FaultPlan::with_noise(0.05).unwrap(),
        FaultPlan::with_source_retarget(9, Opinion::Zero),
        FaultPlan::with_sleep(0.2).unwrap(),
    ] {
        let typed = || {
            let mut engine = graph_engine(FetProtocol::new(ell).unwrap(), N, SEED);
            engine.set_fault_plan(fault).unwrap();
            engine.set_execution_mode(ExecutionMode::Fused).unwrap();
            let mut rec = TrajectoryRecorder::new();
            engine.run(80, ConvergenceCriterion::new(WINDOW), &mut rec);
            rec.into_fractions()
        };
        let facade = Simulation::builder()
            .topology(expander(N))
            .seed(SEED)
            .fault(fault)
            .max_rounds(80)
            .execution_mode(ExecutionMode::Fused)
            .record_trajectory(true)
            .build()
            .unwrap()
            .run()
            .trajectory
            .expect("recording requested");
        assert_eq!(typed(), typed(), "{fault:?}: graph-fused replay diverged");
        assert_eq!(
            typed(),
            facade,
            "{fault:?}: typed vs facade graph-fused diverged"
        );
    }
}
