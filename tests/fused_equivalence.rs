//! The fused execution path's two guarantees, checked from the outside:
//!
//! 1. **Determinism / representation-independence** — a fused run is its
//!    own deterministic stream: for one seed, the typed `Engine<P>` and
//!    the facade's population-erased path replay **identical** fused
//!    trajectories, and none of them allocates a per-round
//!    snapshot/observation/output buffer (`round_scratch_bytes() == 0`).
//! 2. **Statistical equivalence with the batched path** — fused rounds
//!    interleave RNG draws differently (per agent instead of
//!    observations-first), so fused and batched trajectories for one seed
//!    differ bitwise; but they sample the same per-round distribution, so
//!    convergence times (FET) and trajectory marginals (3-majority) must
//!    agree across seeds at both mean-field fidelities.

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
/// asserting the fused path's zero-scratch guarantee when applicable.
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
    let mut engine =
        Engine::new(protocol, spec, fidelity, InitialCondition::AllWrong, SEED).unwrap();
    engine.set_execution_mode(mode).unwrap();
    let mut rec = TrajectoryRecorder::new();
    let report = engine.run(MAX_ROUNDS, ConvergenceCriterion::new(WINDOW), &mut rec);
    if mode == ExecutionMode::Fused {
        assert_eq!(
            engine.round_scratch_bytes(),
            0,
            "fused rounds must not allocate snapshot/obs/out buffers"
        );
    }
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

/// The batched PR 2 stream must be untouched by the fused machinery:
/// forcing `Batched` replays exactly what `Auto` selected before the fused
/// path existed wherever batched is still the resolution (and the
/// batched/fused streams genuinely differ, i.e. the fused path is not
/// accidentally running the batched pipeline).
#[test]
fn batched_stream_is_preserved_and_distinct_from_fused() {
    let ell = ell_for_population(N, 4.0);
    let batched = typed_trajectory(
        FetProtocol::new(ell).unwrap(),
        ExecutionMode::Batched,
        Fidelity::Binomial,
    );
    let fused = typed_trajectory(
        FetProtocol::new(ell).unwrap(),
        ExecutionMode::Fused,
        Fidelity::Binomial,
    );
    assert!(batched.0.converged() && fused.0.converged());
    assert_ne!(
        batched.1, fused.1,
        "fused must be its own stream, not the batched pipeline renamed"
    );
    // Literal fidelity auto-resolves to batched: Auto and Batched agree.
    let auto_literal = typed_trajectory(
        FetProtocol::new(ell).unwrap(),
        ExecutionMode::Auto,
        Fidelity::Agent,
    );
    let forced_literal = typed_trajectory(
        FetProtocol::new(ell).unwrap(),
        ExecutionMode::Batched,
        Fidelity::Agent,
    );
    assert_eq!(auto_literal, forced_literal);
}

/// FET convergence times under fused vs batched execution, across seeds:
/// equal distributions up to Monte-Carlo error at both mean-field
/// fidelities. Tested as a mean comparison in units of the pooled standard
/// error plus a two-sample KS bound at α ≈ 10⁻³.
#[test]
fn fet_fused_vs_batched_convergence_times_agree() {
    let n = 400u64;
    let ell = ell_for_population(n, 4.0);
    let reps = 60u64;
    for fidelity in [Fidelity::Binomial, Fidelity::WithoutReplacement] {
        let run = |mode: ExecutionMode, seed: u64| -> f64 {
            let spec = ProblemSpec::single_source(n, Opinion::One).unwrap();
            let mut engine = Engine::new(
                FetProtocol::new(ell).unwrap(),
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
        let mut acc_b = WelfordAccumulator::new();
        let mut acc_f = WelfordAccumulator::new();
        let mut times_b = Vec::new();
        let mut times_f = Vec::new();
        for seed in 0..reps {
            let tb = run(ExecutionMode::Batched, seed);
            let tf = run(ExecutionMode::Fused, seed);
            acc_b.push(tb);
            acc_f.push(tf);
            times_b.push(tb);
            times_f.push(tf);
        }
        let se = (acc_b.standard_error().powi(2) + acc_f.standard_error().powi(2)).sqrt();
        let diff = (acc_b.mean() - acc_f.mean()).abs();
        assert!(
            diff < 5.0 * se.max(0.1),
            "{fidelity:?}: mean t_con batched {} vs fused {} (diff {diff}, se {se})",
            acc_b.mean(),
            acc_f.mean()
        );
        let ks = ks_two_sample(&times_b, &times_f).unwrap();
        let crit = 1.95 * (2.0 / reps as f64).sqrt();
        assert!(
            ks < crit,
            "{fidelity:?}: KS {ks} over critical {crit} for t_con distributions"
        );
    }
}

/// 3-majority has no source preference (convergence-to-correct is not
/// guaranteed), so equivalence is checked on the trajectory marginal: the
/// distribution of `x_t` after a fixed number of rounds from the random
/// start, across seeds, at both mean-field fidelities.
#[test]
fn three_majority_fused_vs_batched_trajectory_marginals_agree() {
    let n = 300u64;
    let rounds = 3u64;
    let reps = 200u64;
    for fidelity in [Fidelity::Binomial, Fidelity::WithoutReplacement] {
        let run = |mode: ExecutionMode, seed: u64| -> f64 {
            let spec = ProblemSpec::single_source(n, Opinion::One).unwrap();
            let mut engine = Engine::new(
                ThreeMajorityProtocol::new(),
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
        let xs_b: Vec<f64> = (0..reps).map(|s| run(ExecutionMode::Batched, s)).collect();
        let xs_f: Vec<f64> = (0..reps).map(|s| run(ExecutionMode::Fused, s)).collect();
        let ks = ks_two_sample(&xs_b, &xs_f).unwrap();
        let crit = 1.95 * (2.0 / reps as f64).sqrt();
        assert!(
            ks < crit,
            "{fidelity:?}: KS {ks} over critical {crit} for x_{rounds} marginals"
        );
    }
}
