//! End-to-end convergence: Theorem 1's promise exercised across starts,
//! fidelities, sizes, and the 0/1 symmetry.

use fet::core::opinion::Opinion;
use fet::sim::engine::Fidelity;
use fet::sim::init::InitialCondition;
use fet::sim::simulation::{RunReport, Simulation};

/// FET on `n` agents (binomial fidelity, the paper's `ℓ`) from `init`,
/// with the `x_t` trajectory recorded.
fn run_fet(n: u64, correct: Opinion, init: InitialCondition, seed: u64, window: u64) -> RunReport {
    Simulation::builder()
        .population(n)
        .correct(correct)
        .init(init)
        .seed(seed)
        .stability_window(window)
        .record_trajectory(true)
        .build()
        .expect("valid")
        .run()
}

fn trajectory(report: &RunReport) -> &[f64] {
    report.trajectory.as_deref().expect("trajectory recorded")
}

#[test]
fn converges_from_every_basic_initial_condition() {
    for init in [
        InitialCondition::AllWrong,
        InitialCondition::AllCorrect,
        InitialCondition::Random,
        InitialCondition::FractionCorrect(0.25),
    ] {
        let out = run_fet(500, Opinion::One, init, 11, 3);
        assert!(out.converged(), "init {init:?} failed: {:?}", out.report);
        assert_eq!(out.report.final_fraction_correct, 1.0);
    }
}

#[test]
fn both_fidelities_converge_and_stay() {
    for fidelity in [Fidelity::Agent, Fidelity::Binomial] {
        let mut sim = Simulation::builder()
            .population(400)
            .fidelity(fidelity)
            .seed(3)
            .stability_window(5)
            .max_rounds(50_000)
            .build()
            .expect("valid");
        let report = sim.run();
        assert!(report.converged(), "{fidelity:?}: {report:?}");
        // Consensus on the correct opinion is absorbing: keep stepping.
        for _ in 0..100 {
            sim.step();
            assert!(sim.all_correct(), "{fidelity:?} broke consensus");
        }
    }
}

#[test]
fn correct_zero_is_mirror_of_correct_one() {
    // The protocol is symmetric w.r.t. the source's opinion (§2): both
    // instances converge, and the final fractions mirror.
    let out1 = run_fet(300, Opinion::One, InitialCondition::AllWrong, 21, 3);
    let out0 = run_fet(300, Opinion::Zero, InitialCondition::AllWrong, 21, 3);
    assert!(out1.converged() && out0.converged());
    assert_eq!(trajectory(&out1).last(), Some(&1.0));
    assert_eq!(trajectory(&out0).last(), Some(&0.0));
}

#[test]
fn aggregate_chain_scales_to_huge_populations() {
    let report = Simulation::builder()
        .population(100_000_000)
        .fidelity(Fidelity::Aggregate)
        .seed(5)
        .max_rounds(1_000_000)
        .build()
        .expect("valid")
        .run();
    assert!(report.converged(), "{report:?}");
    // The paper's yardstick at n = 1e8: log^2.5 n ≈ 1527; the bounce makes
    // the all-wrong start far faster, but certainly within the yardstick.
    let t = report.converged_at().expect("converged");
    assert!(
        (t as f64) < (1e8f64).ln().powf(2.5),
        "t_con = {t} exceeds the paper's bound shape"
    );
}

#[test]
fn multi_source_instances_converge() {
    for k in [2u64, 8, 32] {
        let report = Simulation::builder()
            .population(10_000)
            .sources(k)
            .ell(37)
            .fidelity(Fidelity::Aggregate)
            .seed(k)
            .max_rounds(200_000)
            .build()
            .expect("valid")
            .run();
        assert!(report.converged(), "k = {k}: {report:?}");
    }
}

#[test]
fn experiment_runs_are_deterministic() {
    let a = run_fet(300, Opinion::One, InitialCondition::Random, 777, 3);
    let b = run_fet(300, Opinion::One, InitialCondition::Random, 777, 3);
    assert_eq!(a.report, b.report);
    assert_eq!(trajectory(&a), trajectory(&b));
}

#[test]
fn convergence_time_is_reported_at_streak_start() {
    let out = run_fet(300, Opinion::One, InitialCondition::AllWrong, 13, 8);
    let t = out.converged_at().expect("converged") as usize;
    let trajectory = trajectory(&out);
    // From t onward the trajectory must be pinned at 1.
    for (i, &x) in trajectory.iter().enumerate().skip(t) {
        assert_eq!(x, 1.0, "round {i} regressed after t_con = {t}");
    }
    // And at t−1 it was not yet 1.
    assert!(trajectory[t - 1] < 1.0);
}
