//! One-call experiment entry points.
//!
//! [`ExperimentSpec`] bundles everything a single convergence run needs —
//! population, protocol parameterization, fidelity, budgets, seed — behind
//! a builder, and [`run_fet_once`]/[`run_protocol_once`] execute it
//! through the unified [`Simulation`] facade. Prefer the facade directly for anything beyond a plain
//! single-run; this module remains as the stable one-call surface the
//! bench harness sweeps are written against.

use crate::convergence::{ConvergenceCriterion, ConvergenceReport};
use crate::engine::Fidelity;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::init::InitialCondition;
use crate::simulation::Simulation;
use fet_core::config::ProblemSpec;
use fet_core::fet::FetProtocol;
use fet_core::opinion::Opinion;
use fet_core::protocol::Protocol;
use std::fmt;

/// Default sample-size constant: `ℓ = ⌈c·ln n⌉` with `c = 4`.
pub use crate::simulation::DEFAULT_SAMPLE_CONSTANT;

/// Everything one convergence run needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentSpec {
    /// Population size.
    pub n: u64,
    /// Number of source agents.
    pub num_sources: u64,
    /// The correct opinion.
    pub correct: Opinion,
    /// Sample-size constant `c` in `ℓ = ⌈c·ln n⌉`.
    pub sample_constant: f64,
    /// Explicit `ℓ` override (wins over `sample_constant` when set).
    pub ell_override: Option<u32>,
    /// Observation-generation fidelity.
    pub fidelity: Fidelity,
    /// Round budget.
    pub max_rounds: u64,
    /// Consecutive all-correct rounds required to confirm convergence.
    pub stability_window: u64,
    /// Root seed.
    pub seed: u64,
    /// Fault plan (defaults to none).
    pub fault: FaultPlan,
}

impl ExperimentSpec {
    /// Starts a builder for a population of `n` agents.
    pub fn builder(n: u64) -> ExperimentSpecBuilder {
        ExperimentSpecBuilder::new(n)
    }

    /// The `ℓ` this spec resolves to.
    pub fn ell(&self) -> u32 {
        match self.ell_override {
            Some(e) => e,
            None => fet_core::config::ell_for_population(self.n, self.sample_constant),
        }
    }

    /// The problem instance.
    ///
    /// # Errors
    ///
    /// Propagates `ProblemSpec` validation failures as [`SimError::Core`].
    pub fn problem(&self) -> Result<ProblemSpec, SimError> {
        Ok(ProblemSpec::new(self.n, self.num_sources, self.correct)?)
    }

    /// The FET protocol instance this spec describes.
    ///
    /// # Errors
    ///
    /// Propagates protocol validation failures as [`SimError::Core`].
    pub fn fet(&self) -> Result<FetProtocol, SimError> {
        Ok(FetProtocol::new(self.ell())?)
    }

    /// The convergence criterion.
    pub fn criterion(&self) -> ConvergenceCriterion {
        ConvergenceCriterion::new(self.stability_window)
    }
}

/// Builder for [`ExperimentSpec`] (non-consuming, per C-BUILDER).
#[derive(Debug, Clone)]
pub struct ExperimentSpecBuilder {
    spec: ExperimentSpec,
}

impl ExperimentSpecBuilder {
    fn new(n: u64) -> Self {
        ExperimentSpecBuilder {
            spec: ExperimentSpec {
                n,
                num_sources: 1,
                correct: Opinion::One,
                sample_constant: DEFAULT_SAMPLE_CONSTANT,
                ell_override: None,
                fidelity: Fidelity::Binomial,
                max_rounds: crate::simulation::default_max_rounds(n),
                stability_window: 3,
                seed: 0,
                fault: FaultPlan::none(),
            },
        }
    }

    /// Sets the number of sources.
    pub fn num_sources(&mut self, k: u64) -> &mut Self {
        self.spec.num_sources = k;
        self
    }

    /// Sets the correct opinion.
    pub fn correct(&mut self, o: Opinion) -> &mut Self {
        self.spec.correct = o;
        self
    }

    /// Sets the sample constant `c` (ℓ = ⌈c·ln n⌉).
    pub fn sample_constant(&mut self, c: f64) -> &mut Self {
        self.spec.sample_constant = c;
        self
    }

    /// Overrides `ℓ` directly (e.g. for the constant-sample-size sweep).
    pub fn ell(&mut self, ell: u32) -> &mut Self {
        self.spec.ell_override = Some(ell);
        self
    }

    /// Sets the fidelity.
    pub fn fidelity(&mut self, f: Fidelity) -> &mut Self {
        self.spec.fidelity = f;
        self
    }

    /// Sets the round budget.
    pub fn max_rounds(&mut self, r: u64) -> &mut Self {
        self.spec.max_rounds = r;
        self
    }

    /// Sets the stability window.
    pub fn stability_window(&mut self, w: u64) -> &mut Self {
        self.spec.stability_window = w;
        self
    }

    /// Sets the root seed.
    pub fn seed(&mut self, s: u64) -> &mut Self {
        self.spec.seed = s;
        self
    }

    /// Sets the fault plan.
    pub fn fault(&mut self, f: FaultPlan) -> &mut Self {
        self.spec.fault = f;
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the population or protocol parameters are
    /// invalid, or when the fidelity is [`Fidelity::Aggregate`] — the
    /// one-call helpers drive per-agent engines whose protocol is only
    /// chosen at run time, so aggregate runs go through
    /// [`Simulation::builder`](crate::simulation::Simulation::builder)
    /// where the protocol's Observation 1 structure can be checked.
    pub fn build(&self) -> Result<ExperimentSpec, SimError> {
        self.spec.problem()?;
        self.spec.fet()?;
        if self.spec.fidelity == Fidelity::Aggregate {
            return Err(SimError::InvalidParameter {
                name: "fidelity",
                detail: "ExperimentSpec drives per-agent runs; use \
                         `Simulation::builder().fidelity(Fidelity::Aggregate)` instead"
                    .into(),
            });
        }
        Ok(self.spec)
    }
}

/// Outcome of one run: the convergence report plus the recorded `x_t`
/// trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Convergence result.
    pub report: ConvergenceReport,
    /// `x_t` per round, starting at round 0.
    pub trajectory: Vec<f64>,
}

impl RunOutcome {
    /// `true` when the run converged within budget.
    pub fn converged(&self) -> bool {
        self.report.converged()
    }
}

/// Runs FET once per `spec` from the given initial condition.
///
/// # Panics
///
/// Panics if the spec fails validation — build specs through
/// [`ExperimentSpec::builder`], which validates eagerly.
pub fn run_fet_once(spec: &ExperimentSpec, init: InitialCondition) -> RunOutcome {
    let protocol = spec.fet().expect("spec validated at build time");
    run_protocol_once(protocol, spec, init)
}

/// Runs an arbitrary protocol once per `spec` from the given initial
/// condition, through the unified [`Simulation`] facade.
///
/// # Panics
///
/// Panics if the spec fails validation.
pub fn run_protocol_once<P>(
    protocol: P,
    spec: &ExperimentSpec,
    init: InitialCondition,
) -> RunOutcome
where
    P: Protocol + Clone + fmt::Debug + Send + Sync + 'static,
    P::State: 'static,
{
    let mut sim = Simulation::builder()
        .population(spec.n)
        .sources(spec.num_sources)
        .correct(spec.correct)
        .protocol(protocol)
        .fidelity(spec.fidelity)
        .init(init)
        .fault(spec.fault)
        .seed(spec.seed)
        .max_rounds(spec.max_rounds)
        .stability_window(spec.stability_window)
        .record_trajectory(true)
        .build()
        .expect("spec validated at build time");
    let run = sim.run();
    RunOutcome {
        report: run.report,
        trajectory: run.trajectory.expect("trajectory recording requested"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sane() {
        let spec = ExperimentSpec::builder(1000).build().unwrap();
        assert_eq!(spec.num_sources, 1);
        assert_eq!(spec.correct, Opinion::One);
        assert!(spec.ell() >= 27, "ℓ = 4·ln(1000) ≈ 27.6 → 28");
        assert!(spec.max_rounds > 1000);
    }

    #[test]
    fn ell_override_wins() {
        let spec = ExperimentSpec::builder(1000).ell(5).build().unwrap();
        assert_eq!(spec.ell(), 5);
    }

    #[test]
    fn builder_rejects_bad_population() {
        assert!(ExperimentSpec::builder(1).build().is_err());
        assert!(ExperimentSpec::builder(10).num_sources(10).build().is_err());
    }

    #[test]
    fn builder_rejects_aggregate_fidelity() {
        // The one-call helpers would otherwise panic at run time with a
        // message claiming the spec was validated.
        let err = ExperimentSpec::builder(1_000)
            .fidelity(Fidelity::Aggregate)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("Simulation::builder"), "{err}");
    }

    #[test]
    fn run_fet_once_converges_and_records() {
        let spec = ExperimentSpec::builder(400).seed(21).build().unwrap();
        let outcome = run_fet_once(&spec, InitialCondition::AllWrong);
        assert!(outcome.converged(), "{:?}", outcome.report);
        assert_eq!(
            outcome.trajectory.len() as u64,
            outcome.report.rounds_run + 1
        );
        assert_eq!(*outcome.trajectory.last().unwrap(), 1.0);
        // Starts all-wrong: only the source holds 1.
        assert!((outcome.trajectory[0] - 1.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn identical_seeds_identical_outcomes() {
        let spec = ExperimentSpec::builder(300).seed(77).build().unwrap();
        let a = run_fet_once(&spec, InitialCondition::Random);
        let b = run_fet_once(&spec, InitialCondition::Random);
        assert_eq!(a, b);
    }

    #[test]
    fn correct_zero_round_trip() {
        let spec = ExperimentSpec::builder(300)
            .correct(Opinion::Zero)
            .seed(5)
            .build()
            .unwrap();
        let outcome = run_fet_once(&spec, InitialCondition::AllWrong);
        assert!(outcome.converged());
        assert_eq!(*outcome.trajectory.last().unwrap(), 0.0);
    }
}
