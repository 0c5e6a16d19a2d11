//! The fused execution path's two guarantees, checked from the outside:
//!
//! 1. **Determinism / representation-independence** — a fused run is its
//!    own deterministic stream: for one seed, the typed engine and
//!    the facade's population-erased path replay **identical** fused
//!    trajectories, and none of them allocates a per-round buffer beyond
//!    what its sampling rule reads (nothing on mean-field rounds, exactly
//!    the n-byte round-start double buffer on literal Agent rounds).
//! 2. **Statistical equivalence of the literal and binomial fidelities**
//!    — Agent rounds draw `m` uniform vertex indices per agent through the
//!    complete-graph index source, Binomial rounds draw the count from
//!    `Binomial(m, x_t)` (Observation 1); the code paths share nothing
//!    below the kernel, but with-replacement sampling has exactly the
//!    binomial law, so convergence times (FET) and trajectory marginals
//!    (3-majority) must agree across seeds.

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
const SEED: u64 = 0xF5_ED;
const MAX_ROUNDS: u64 = 400;
const WINDOW: u64 = 3;

/// Runs a typed engine in the given mode, recording the trajectory and
/// asserting the fused path's scratch guarantee: zero on mean-field
/// rounds, exactly the n-byte double buffer on Agent rounds.
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
    let double_buffer = if fidelity == Fidelity::Agent {
        N as usize * std::mem::size_of::<Opinion>()
    } else {
        0
    };
    assert_eq!(
        engine.round_scratch_bytes(),
        double_buffer,
        "{fidelity:?}: fused rounds keep only the snapshot their sources read"
    );
    (report, rec.into_fractions())
}

/// Runs the facade (population-erased) path by registry name in the given
/// mode.
fn facade_trajectory(name: &str, mode: ExecutionMode) -> (ConvergenceReport, Vec<f64>) {
    let run = Simulation::builder()
        .population(N)
        .protocol_name(name)
        .seed(SEED)
        .max_rounds(MAX_ROUNDS)
        .stability_window(WINDOW)
        .execution_mode(mode)
        .record_trajectory(true)
        .build()
        .unwrap()
        .run();
    assert_eq!(run.mode, mode);
    (run.report, run.trajectory.expect("recording requested"))
}

#[test]
fn fet_fused_three_paths_identical_trajectories() {
    let ell = ell_for_population(N, 4.0);
    let typed = typed_trajectory(
        FetProtocol::new(ell).unwrap(),
        ExecutionMode::Fused,
        Fidelity::Binomial,
    );
    let facade = facade_trajectory("fet", ExecutionMode::Fused);
    assert_eq!(typed, facade, "typed vs population-erased fused diverged");
    assert!(typed.0.converged(), "{:?}", typed.0);
}

#[test]
fn three_majority_fused_three_paths_identical_trajectories() {
    let typed = typed_trajectory(
        ThreeMajorityProtocol::new(),
        ExecutionMode::Fused,
        Fidelity::Binomial,
    );
    let facade = facade_trajectory("3-majority", ExecutionMode::Fused);
    assert_eq!(typed, facade, "typed vs population-erased fused diverged");
    assert_eq!(typed.1.len(), facade.1.len());
}

/// FET convergence times under Agent vs Binomial fidelity on fused
/// rounds, across seeds: equal distributions up to Monte-Carlo error.
/// Tested as a mean comparison in units of the pooled standard error plus
/// a two-sample KS bound at α ≈ 10⁻³.
#[test]
fn fet_fused_agent_vs_binomial_convergence_times_agree() {
    let n = 400u64;
    let ell = ell_for_population(n, 4.0);
    let reps = 60u64;
    let run = |fidelity: Fidelity, seed: u64| -> f64 {
        let spec = ProblemSpec::single_source(n, Opinion::One).unwrap();
        let mut engine = Engine::new(
            Box::new(TypedPopulation::new(FetProtocol::new(ell).unwrap())),
            spec,
            fidelity,
            InitialCondition::AllWrong,
            seed,
        )
        .unwrap();
        engine.set_execution_mode(ExecutionMode::Fused).unwrap();
        let report = engine.run(20_000, ConvergenceCriterion::new(WINDOW), &mut NullObserver);
        report.converged_at.expect("FET converges at n = 400") as f64
    };
    let mut acc_a = WelfordAccumulator::new();
    let mut acc_b = WelfordAccumulator::new();
    let mut times_a = Vec::new();
    let mut times_b = Vec::new();
    for seed in 0..reps {
        let ta = run(Fidelity::Agent, seed);
        let tb = run(Fidelity::Binomial, seed);
        acc_a.push(ta);
        acc_b.push(tb);
        times_a.push(ta);
        times_b.push(tb);
    }
    let se = (acc_a.standard_error().powi(2) + acc_b.standard_error().powi(2)).sqrt();
    let diff = (acc_a.mean() - acc_b.mean()).abs();
    assert!(
        diff < 5.0 * se.max(0.1),
        "mean t_con agent {} vs binomial {} (diff {diff}, se {se})",
        acc_a.mean(),
        acc_b.mean()
    );
    let ks = ks_two_sample(&times_a, &times_b).unwrap();
    let crit = 1.95 * (2.0 / reps as f64).sqrt();
    assert!(
        ks < crit,
        "KS {ks} over critical {crit} for t_con distributions"
    );
}

/// 3-majority has no source preference (convergence-to-correct is not
/// guaranteed), so equivalence is checked on the trajectory marginal: the
/// distribution of `x_t` after a fixed number of fused rounds from the
/// random start, across seeds, under Agent vs Binomial fidelity.
#[test]
fn three_majority_fused_agent_vs_binomial_trajectory_marginals_agree() {
    let n = 300u64;
    let rounds = 3u64;
    let reps = 200u64;
    let run = |fidelity: Fidelity, seed: u64| -> f64 {
        let spec = ProblemSpec::single_source(n, Opinion::One).unwrap();
        let mut engine = Engine::new(
            Box::new(TypedPopulation::new(ThreeMajorityProtocol::new())),
            spec,
            fidelity,
            InitialCondition::Random,
            seed,
        )
        .unwrap();
        engine.set_execution_mode(ExecutionMode::Fused).unwrap();
        for _ in 0..rounds {
            engine.step();
        }
        engine.fraction_ones()
    };
    let xs_a: Vec<f64> = (0..reps).map(|s| run(Fidelity::Agent, s)).collect();
    let xs_b: Vec<f64> = (0..reps).map(|s| run(Fidelity::Binomial, s)).collect();
    let ks = ks_two_sample(&xs_a, &xs_b).unwrap();
    let crit = 1.95 * (2.0 / reps as f64).sqrt();
    assert!(
        ks < crit,
        "KS {ks} over critical {crit} for x_{rounds} marginals"
    );
}
