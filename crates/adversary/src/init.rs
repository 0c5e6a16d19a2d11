//! Hostile initial configurations for FET.
//!
//! The adversary sets, for every non-source agent, both the public opinion
//! `Y_0` and the stale counter `count″_{−1}` that FET will compare against
//! in round 0. Different stale values arm different traps:
//!
//! * `count″ = 0` with wrong opinions (**tie trap**): unanimous wrong
//!   samples give `count′ = 0 = count″`, a tie, which keeps the wrong
//!   opinion — the configuration only escapes through sightings of the
//!   source (the Cyan "bounce" of Lemma 4).
//! * `count″ = ℓ` with wrong opinions (**bounce suppressor**): in round 0,
//!   any agent that happens to see a few 1s still compares against the
//!   maximal stale count and adopts 0, wiping the first round of progress.
//! * anti-phase half-and-half (**oscillation primer**): half the agents
//!   hold 1 with `count″ = ℓ`, half hold 0 with `count″ = 0`, priming one
//!   synchronized flip of both groups.

pub use fet_sim::init::InitialCondition;

use fet_core::config::ProblemSpec;
use fet_core::fet::{FetProtocol, FetState};
use fet_core::opinion::Opinion;
use rand::Rng;

/// Builder of explicit FET state vectors for
/// [`fet_sim::engine::Engine::from_population`] (through
/// [`TypedPopulation::from_states`](fet_core::population::TypedPopulation::from_states)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetConfigurator {
    protocol: FetProtocol,
    spec: ProblemSpec,
}

impl FetConfigurator {
    /// Creates a configurator for the given protocol and problem instance.
    pub fn new(protocol: FetProtocol, spec: ProblemSpec) -> Self {
        FetConfigurator { protocol, spec }
    }

    /// Number of non-source states produced.
    pub fn len(&self) -> usize {
        self.spec.num_non_sources() as usize
    }

    /// `true` when the instance has no non-source agents (impossible by
    /// `ProblemSpec` validation; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every non-source agent in the same state.
    pub fn uniform(&self, opinion: Opinion, stale_count: u32) -> Vec<FetState> {
        assert!(
            stale_count <= self.protocol.ell(),
            "stale count {stale_count} exceeds ℓ = {}",
            self.protocol.ell()
        );
        vec![
            FetState {
                opinion,
                prev_count_second_half: stale_count
            };
            self.len()
        ]
    }

    /// The tie trap: unanimous wrong opinion, stale counts zero.
    pub fn tie_trap(&self) -> Vec<FetState> {
        self.uniform(!self.spec.correct(), 0)
    }

    /// The bounce suppressor: unanimous wrong opinion, stale counts
    /// maximal.
    pub fn bounce_suppressor(&self) -> Vec<FetState> {
        self.uniform(!self.spec.correct(), self.protocol.ell())
    }

    /// The oscillation primer: the first `⌈len/2⌉` agents hold 1 with
    /// maximal stale counts (primed to flip down), the rest hold 0 with
    /// zero stale counts (primed to flip up).
    pub fn oscillation_primer(&self) -> Vec<FetState> {
        let ell = self.protocol.ell();
        let len = self.len();
        let half = len.div_ceil(2);
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            if i < half {
                out.push(FetState {
                    opinion: Opinion::One,
                    prev_count_second_half: ell,
                });
            } else {
                out.push(FetState {
                    opinion: Opinion::Zero,
                    prev_count_second_half: 0,
                });
            }
        }
        out
    }

    /// Parameterized family used by the worst-case search: a fraction
    /// `frac_ones` of agents hold 1, and independently a fraction
    /// `frac_stale_high` carry the maximal stale count (the rest carry 0).
    ///
    /// # Panics
    ///
    /// Panics when either fraction lies outside `[0, 1]`.
    pub fn mixed<R: Rng + ?Sized>(
        &self,
        frac_ones: f64,
        frac_stale_high: f64,
        rng: &mut R,
    ) -> Vec<FetState> {
        assert!(
            (0.0..=1.0).contains(&frac_ones),
            "frac_ones out of range: {frac_ones}"
        );
        assert!(
            (0.0..=1.0).contains(&frac_stale_high),
            "frac_stale_high out of range: {frac_stale_high}"
        );
        let ell = self.protocol.ell();
        (0..self.len())
            .map(|_| {
                let opinion = if rng.gen::<f64>() < frac_ones {
                    Opinion::One
                } else {
                    Opinion::Zero
                };
                let stale = if rng.gen::<f64>() < frac_stale_high {
                    ell
                } else {
                    0
                };
                FetState {
                    opinion,
                    prev_count_second_half: stale,
                }
            })
            .collect()
    }

    /// Approximate placement of the chain at a target pair
    /// `(x_0, x_1) ≈ (frac_ones, target_x1)`.
    ///
    /// `x_0` is set exactly (up to rounding) through the opinions. `x_1` is
    /// steered by arming stale counts: agents meant to output 1 in round 1
    /// get `count″ = 0` (any positive `count′` flips them up), the others
    /// get `count″ = ℓ` (they flip down unless the sample is unanimous).
    /// The landing accuracy is within `O(tie probability)` of the target —
    /// exact placement is available in `fet_sim::aggregate` where the pair
    /// is a direct input.
    pub fn place_pair(&self, frac_ones_t0: f64, target_x1: f64) -> Vec<FetState> {
        assert!(
            (0.0..=1.0).contains(&frac_ones_t0),
            "frac_ones_t0 out of range"
        );
        assert!((0.0..=1.0).contains(&target_x1), "target_x1 out of range");
        let ell = self.protocol.ell();
        let len = self.len();
        let ones_now = (frac_ones_t0 * len as f64).round() as usize;
        let up_next = (target_x1 * len as f64).round() as usize;
        (0..len)
            .map(|i| FetState {
                opinion: if i < ones_now {
                    Opinion::One
                } else {
                    Opinion::Zero
                },
                // Cycle the "flip up" arming across the population so it is
                // uncorrelated with current opinions.
                prev_count_second_half: if (i * 7919) % len < up_next { 0 } else { ell },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_stats::rng::SeedTree;

    fn configurator() -> FetConfigurator {
        let spec = ProblemSpec::single_source(101, Opinion::One).unwrap();
        let protocol = FetProtocol::new(8).unwrap();
        FetConfigurator::new(protocol, spec)
    }

    #[test]
    fn uniform_configurations() {
        let c = configurator();
        let states = c.tie_trap();
        assert_eq!(states.len(), 100);
        assert!(states
            .iter()
            .all(|s| s.opinion == Opinion::Zero && s.prev_count_second_half == 0));
        let states = c.bounce_suppressor();
        assert!(states
            .iter()
            .all(|s| s.opinion == Opinion::Zero && s.prev_count_second_half == 8));
    }

    #[test]
    fn oscillation_primer_is_half_and_half() {
        let c = configurator();
        let states = c.oscillation_primer();
        let ones = states.iter().filter(|s| s.opinion == Opinion::One).count();
        assert_eq!(ones, 50);
        for s in &states {
            match s.opinion {
                Opinion::One => assert_eq!(s.prev_count_second_half, 8),
                Opinion::Zero => assert_eq!(s.prev_count_second_half, 0),
            }
        }
    }

    #[test]
    fn mixed_respects_fractions() {
        let c = configurator();
        let mut rng = SeedTree::new(3).child("mixed").rng();
        let states = c.mixed(0.7, 0.2, &mut rng);
        let ones = states.iter().filter(|s| s.opinion == Opinion::One).count() as f64 / 100.0;
        let high = states
            .iter()
            .filter(|s| s.prev_count_second_half == 8)
            .count() as f64
            / 100.0;
        assert!((ones - 0.7).abs() < 0.15, "ones fraction {ones}");
        assert!((high - 0.2).abs() < 0.15, "stale-high fraction {high}");
    }

    #[test]
    fn place_pair_sets_x0_exactly() {
        let c = configurator();
        let states = c.place_pair(0.3, 0.8);
        let ones = states.iter().filter(|s| s.opinion == Opinion::One).count();
        assert_eq!(ones, 30);
        let armed_up = states
            .iter()
            .filter(|s| s.prev_count_second_half == 0)
            .count();
        assert_eq!(armed_up, 80);
    }

    #[test]
    #[should_panic(expected = "exceeds ℓ")]
    fn uniform_validates_stale_count() {
        let c = configurator();
        let _ = c.uniform(Opinion::One, 9);
    }

    #[test]
    fn wrong_consensus_traps_hold_then_escape() {
        // Integration sanity: from both traps, FET still converges (that is
        // Theorem 1), but the bounce suppressor costs at least as much as a
        // benign random start in the median.
        use fet_core::population::TypedPopulation;
        use fet_sim::convergence::ConvergenceCriterion;
        use fet_sim::engine::{Engine, Fidelity};
        use fet_sim::observer::NullObserver;

        let spec = ProblemSpec::single_source(300, Opinion::One).unwrap();
        let protocol = FetProtocol::for_population(300, 4.0).unwrap();
        let c = FetConfigurator::new(protocol.clone(), spec);
        for states in [c.tie_trap(), c.bounce_suppressor(), c.oscillation_primer()] {
            let mut e = Engine::from_population(
                Box::new(TypedPopulation::from_states(protocol.clone(), states)),
                spec,
                Fidelity::Binomial,
                99,
            )
            .unwrap();
            let report = e.run(30_000, ConvergenceCriterion::new(3), &mut NullObserver);
            assert!(report.converged(), "trap defeated FET: {report:?}");
        }
    }
}
