//! Asynchronous (population-protocol-style) execution.
//!
//! The paper's model is synchronous: every agent samples and updates each
//! round. Its related work, however, lives largely in *population
//! protocols* (Angluin et al.; Alistarh & Gelashvili), where a scheduler
//! activates one random agent per tick. This module runs FET-family
//! protocols under that scheduler as an extension study (experiment E17):
//! the activated agent draws its full `m`-sample and updates alone, and
//! time is counted in *parallel rounds* (`n` activations ≈ one round) to
//! stay comparable with the synchronous engine.
//!
//! Under asynchrony the "two consecutive rounds" that FET's trend estimate
//! relies on become "my previous activation vs now" — a per-agent clock
//! rather than a global one. **Measured finding (a negative result of this
//! reproduction):** FET does *not* converge under this scheduler. The
//! population oscillates around the middle indefinitely — in 300k parallel
//! rounds at `n ∈ {200, 1000}` it never once reaches consensus. The
//! synchronous round structure is load-bearing: the paper's Green-domain
//! sprint needs every agent to react to the *same* `(x_t, x_{t+1})` trend
//! simultaneously, and scattered per-agent references destroy that
//! coherent wave while near-consensus states leak at a constant
//! per-activation rate. (Exact consensus would still be absorbing — ties
//! keep — but it is unreachable.) Experiment E17 quantifies this.

use crate::convergence::{ConvergenceCriterion, ConvergenceDetector, ConvergenceReport};
use crate::error::SimError;
use crate::init::InitialCondition;
use fet_core::config::ProblemSpec;
use fet_core::observation::Observation;
use fet_core::opinion::Opinion;
use fet_core::population::DynPopulation;
use fet_core::protocol::RoundContext;
use fet_core::source::Source;
use fet_stats::rng::SeedTree;
use rand::rngs::SmallRng;
use rand::Rng;

/// Asynchronous engine: one uniformly random non-source agent activates
/// per tick.
///
/// The agents live in a population container (see
/// [`fet_core::population`]) — the same contiguous typed states the
/// synchronous engines use — and each activation is one
/// [`Population::step_agent`](fet_core::population::Population::step_agent)
/// call.
///
/// # Example
///
/// ```
/// use fet_core::config::ProblemSpec;
/// use fet_core::erased::ErasedProtocol;
/// use fet_core::fet::FetProtocol;
/// use fet_core::opinion::Opinion;
/// use fet_sim::asynchronous::AsyncEngine;
/// use fet_sim::convergence::ConvergenceCriterion;
/// use fet_sim::init::InitialCondition;
///
/// let spec = ProblemSpec::single_source(300, Opinion::One)?;
/// let protocol = ErasedProtocol::new(FetProtocol::for_population(300, 4.0)?);
/// let mut engine = AsyncEngine::new(protocol.population(), spec, InitialCondition::AllWrong, 5)?;
/// let report = engine.run_parallel_rounds(500, ConvergenceCriterion::new(3));
/// // The negative finding: asynchrony breaks FET (see module docs).
/// assert!(!report.converged());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AsyncEngine {
    population: Box<dyn DynPopulation>,
    spec: ProblemSpec,
    source: Source,
    outputs: Vec<Opinion>,
    ones_count: u64,
    rng: SmallRng,
    ticks: u64,
}

impl AsyncEngine {
    /// Creates the engine, filling the (empty) `population` with
    /// non-source agents: one opinion draw from `init`, then one state
    /// init, per agent in order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedPopulation`] when `n` does not fit in
    /// memory for per-agent simulation, and [`SimError::InvalidParameter`]
    /// when the container already holds agents.
    pub fn new(
        mut population: Box<dyn DynPopulation>,
        spec: ProblemSpec,
        init: InitialCondition,
        seed: u64,
    ) -> Result<Self, SimError> {
        if spec.n() > u32::MAX as u64 {
            return Err(SimError::UnsupportedPopulation {
                detail: format!("n = {} too large for the async engine", spec.n()),
            });
        }
        if !population.is_empty() {
            return Err(SimError::InvalidParameter {
                name: "population",
                detail: format!(
                    "expected an empty container, got {} pre-filled agents",
                    population.len()
                ),
            });
        }
        let mut rng = SeedTree::new(seed).child("async").rng();
        let n = spec.n() as usize;
        let num_sources = spec.num_sources() as usize;
        let source = Source::new(spec.correct());
        let mut outputs = Vec::with_capacity(n);
        population.reserve(n - num_sources);
        for _ in 0..num_sources {
            outputs.push(source.output());
        }
        for _ in num_sources..n {
            let opinion = init.draw(spec.correct(), &mut rng);
            outputs.push(population.push_agent(opinion, &mut rng));
        }
        let ones_count = outputs.iter().filter(|o| o.is_one()).count() as u64;
        Ok(AsyncEngine {
            population,
            spec,
            source,
            outputs,
            ones_count,
            rng,
            ticks: 0,
        })
    }

    /// The problem specification.
    pub fn spec(&self) -> &ProblemSpec {
        &self.spec
    }

    /// Total activations so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Elapsed time in parallel rounds (`ticks / n`).
    pub fn parallel_rounds(&self) -> u64 {
        self.ticks / self.spec.n()
    }

    /// Heap bytes resident in the per-agent state and output buffers.
    pub fn resident_state_bytes(&self) -> usize {
        self.population.resident_bytes() + self.outputs.capacity() * std::mem::size_of::<Opinion>()
    }

    /// The paper's `x_t` (fraction of ones over the whole population).
    pub fn fraction_ones(&self) -> f64 {
        self.ones_count as f64 / self.spec.n() as f64
    }

    /// `true` when every non-source agent decides the correct opinion.
    pub fn all_correct(&self) -> bool {
        self.population
            .count_correct_decisions(self.source.correct())
            == self.spec.num_non_sources()
    }

    /// Fraction of non-source agents currently deciding the correct
    /// opinion (an `O(n)` scan; intended for once-per-parallel-round use).
    pub fn fraction_correct(&self) -> f64 {
        self.population
            .count_correct_decisions(self.source.correct()) as f64
            / self.spec.num_non_sources() as f64
    }

    /// Activates one uniformly random non-source agent.
    pub fn tick(&mut self) {
        let n = self.outputs.len();
        let num_sources = self.spec.num_sources() as usize;
        let j = self.rng.gen_range(0..self.population.len());
        let agent_index = num_sources + j;
        let m = self.population.samples_per_round();
        let mut ones = 0u32;
        for _ in 0..m {
            let k = self.rng.gen_range(0..n);
            if self.outputs[k].is_one() {
                ones += 1;
            }
        }
        let obs = Observation::new(ones, m).expect("count bounded by sample size");
        let ctx = RoundContext::new(self.parallel_rounds());
        let before = self.outputs[agent_index];
        let after = self.population.step_agent(j, &obs, &ctx, &mut self.rng);
        self.outputs[agent_index] = after;
        match (before.is_one(), after.is_one()) {
            (false, true) => self.ones_count += 1,
            (true, false) => self.ones_count -= 1,
            _ => {}
        }
        self.ticks += 1;
    }

    /// Runs up to `max_parallel_rounds` (each = `n` activations), checking
    /// convergence once per parallel round.
    pub fn run_parallel_rounds(
        &mut self,
        max_parallel_rounds: u64,
        criterion: ConvergenceCriterion,
    ) -> ConvergenceReport {
        let n = self.spec.n();
        let mut detector = ConvergenceDetector::new(criterion);
        let mut round = self.parallel_rounds();
        let mut done = detector.observe(round, self.all_correct());
        while !done && round < max_parallel_rounds {
            for _ in 0..n {
                self.tick();
            }
            round = self.parallel_rounds();
            done = detector.observe(round, self.all_correct());
        }
        ConvergenceReport {
            converged_at: detector.converged_at(),
            rounds_run: round,
            final_fraction_correct: self.fraction_correct(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_core::erased::ErasedProtocol;
    use fet_core::fet::FetProtocol;

    fn spec(n: u64) -> ProblemSpec {
        ProblemSpec::single_source(n, Opinion::One).unwrap()
    }

    fn fet(protocol: FetProtocol) -> Box<dyn DynPopulation> {
        ErasedProtocol::new(protocol).population()
    }

    #[test]
    fn async_fet_fails_to_converge_the_negative_finding() {
        // The reproduction finding documented in the module docs: the
        // asynchronous scheduler breaks FET. Assert the measured behaviour
        // so any future change that *fixes* asynchrony shows up loudly.
        let protocol = FetProtocol::for_population(200, 4.0).unwrap();
        let mut e =
            AsyncEngine::new(fet(protocol), spec(200), InitialCondition::AllWrong, 3).unwrap();
        let report = e.run_parallel_rounds(20_000, ConvergenceCriterion::new(3));
        assert!(
            !report.converged(),
            "async FET unexpectedly converged — a finding changed: {report:?}"
        );
        // And it is genuinely wandering, not stuck at the start.
        assert!(report.final_fraction_correct > 0.02);
    }

    #[test]
    fn exact_consensus_is_absorbing_under_asynchrony() {
        // Even though consensus is unreachable under asynchrony, it IS
        // absorbing: at unanimity count′ = ℓ ≥ any stored count, so agents
        // adopt or keep 1 forever.
        let protocol = FetProtocol::for_population(150, 4.0).unwrap();
        let mut e =
            AsyncEngine::new(fet(protocol), spec(150), InitialCondition::AllCorrect, 5).unwrap();
        assert!((e.fraction_ones() - 1.0).abs() < 1e-12);
        for _ in 0..150 * 50 {
            e.tick();
            assert!((e.fraction_ones() - 1.0).abs() < 1e-12, "consensus broke");
        }
    }

    #[test]
    fn tick_counting() {
        let protocol = FetProtocol::new(4).unwrap();
        let mut e = AsyncEngine::new(fet(protocol), spec(10), InitialCondition::Random, 7).unwrap();
        for _ in 0..25 {
            e.tick();
        }
        assert_eq!(e.ticks(), 25);
        assert_eq!(e.parallel_rounds(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let protocol = FetProtocol::new(6).unwrap();
            let mut e =
                AsyncEngine::new(fet(protocol), spec(60), InitialCondition::Random, seed).unwrap();
            let r = e.run_parallel_rounds(5_000, ConvergenceCriterion::new(2));
            (r.converged_at, e.ticks())
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn oversized_population_rejected() {
        let protocol = FetProtocol::new(4).unwrap();
        let spec_big = ProblemSpec::single_source(1 << 40, Opinion::One).unwrap();
        assert!(matches!(
            AsyncEngine::new(fet(protocol), spec_big, InitialCondition::Random, 1),
            Err(SimError::UnsupportedPopulation { .. })
        ));
    }
}
