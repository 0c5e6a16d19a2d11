//! The unpartitioned trend-following protocol from §1.3.
//!
//! The paper first presents a simpler algorithm before FET:
//!
//! ```text
//! Input: S_t(J_t)                 // opinions of ℓ sampled agents
//! count_t ← COUNT(S_t(J_t))
//! if      count_t > count_{t−1} then Y_{t+1} ← 1
//! else if count_t < count_{t−1} then Y_{t+1} ← 0
//! else                               Y_{t+1} ← Y_t
//! ```
//!
//! Its flaw (for the *analysis*, not necessarily the behavior): `count_t`
//! is used to compute both `Y_{t+1}` and `Y_{t+2}`, making consecutive
//! opinions dependent even conditionally on `(x_t, x_{t+1})` — e.g. a
//! 1-heavy sample at round `t` pushes `Y_{t+1}` toward 1 *and* `Y_{t+2}`
//! toward 0. FET's sample-splitting removes exactly this dependence. We keep
//! the simple variant so experiments can compare the two empirically
//! (the paper conjectures but does not prove that the simple variant works).

use crate::error::CoreError;
use crate::memory::{bits_for_count, MemoryFootprint};
use crate::observation::Observation;
use crate::opinion::Opinion;
use crate::protocol::{Protocol, RoundContext};
use rand::RngCore;

/// The unpartitioned trend protocol with sample size `ℓ`.
///
/// # Example
///
/// ```
/// use fet_core::simple_trend::SimpleTrendProtocol;
/// use fet_core::protocol::Protocol;
///
/// let p = SimpleTrendProtocol::new(16)?;
/// assert_eq!(p.samples_per_round(), 16); // ℓ, not 2ℓ
/// # Ok::<(), fet_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimpleTrendProtocol {
    ell: u32,
}

/// Per-agent state of the unpartitioned protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimpleTrendState {
    /// Current public opinion `Y_t`.
    pub opinion: Opinion,
    /// `count_{t−1}`: ones observed in the previous round, in `[0, ℓ]`.
    pub prev_count: u32,
}

impl SimpleTrendProtocol {
    /// Creates the protocol with sample size `ell`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroSampleSize`] when `ell == 0`.
    pub fn new(ell: u32) -> Result<Self, CoreError> {
        if ell == 0 {
            return Err(CoreError::ZeroSampleSize);
        }
        Ok(SimpleTrendProtocol { ell })
    }

    /// Creates the protocol with `ℓ = ⌈c·ln n⌉`, mirroring
    /// [`crate::fet::FetProtocol::for_population`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPopulation`] when `n < 2` or `c ≤ 0`.
    pub fn for_population(n: u64, c: f64) -> Result<Self, CoreError> {
        if n < 2 {
            return Err(CoreError::InvalidPopulation {
                detail: format!("population must have at least 2 agents, got {n}"),
            });
        }
        if c.is_nan() || c <= 0.0 {
            return Err(CoreError::InvalidPopulation {
                detail: format!("sample constant c must be positive, got {c}"),
            });
        }
        SimpleTrendProtocol::new(crate::config::ell_for_population(n, c))
    }

    /// The sample size `ℓ`.
    pub fn ell(&self) -> u32 {
        self.ell
    }
}

impl Protocol for SimpleTrendProtocol {
    type State = SimpleTrendState;

    fn name(&self) -> &str {
        "simple-trend"
    }

    fn samples_per_round(&self) -> u32 {
        self.ell
    }

    fn init_state(&self, opinion: Opinion, rng: &mut dyn RngCore) -> SimpleTrendState {
        let prev = (rng.next_u64() % u64::from(self.ell + 1)) as u32;
        SimpleTrendState {
            opinion,
            prev_count: prev,
        }
    }

    fn step(
        &self,
        state: &mut SimpleTrendState,
        obs: &Observation,
        _ctx: &RoundContext,
        _rng: &mut dyn RngCore,
    ) -> Opinion {
        assert_eq!(
            obs.sample_size(),
            self.ell,
            "simple-trend(ℓ={}) expects {} samples, observation has {}",
            self.ell,
            self.ell,
            obs.sample_size()
        );
        let count = obs.ones();
        let new_opinion = match count.cmp(&state.prev_count) {
            std::cmp::Ordering::Greater => Opinion::One,
            std::cmp::Ordering::Less => Opinion::Zero,
            std::cmp::Ordering::Equal => state.opinion,
        };
        state.opinion = new_opinion;
        state.prev_count = count;
        new_opinion
    }

    fn output(&self, state: &SimpleTrendState) -> Opinion {
        state.opinion
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        // One persisted count in [0, ℓ]; the fresh count is transient.
        let count_bits = bits_for_count(self.ell);
        MemoryFootprint::new(1, count_bits, count_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_stats::rng::SeedTree;

    fn rng(label: &str) -> rand::rngs::SmallRng {
        SeedTree::new(0x517).child(label).rng()
    }

    fn ctx() -> RoundContext {
        RoundContext::new(0)
    }

    #[test]
    fn step_is_deterministic_given_observation() {
        // Unlike FET there is no internal randomness: same state + same
        // observation ⇒ same outcome.
        let p = SimpleTrendProtocol::new(8).unwrap();
        let mut rng = rng("det");
        let obs = Observation::new(5, 8).unwrap();
        let mut s1 = SimpleTrendState {
            opinion: Opinion::Zero,
            prev_count: 3,
        };
        let mut s2 = s1;
        let o1 = p.step(&mut s1, &obs, &ctx(), &mut rng);
        let o2 = p.step(&mut s2, &obs, &ctx(), &mut rng);
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn truth_table() {
        let p = SimpleTrendProtocol::new(8).unwrap();
        let mut rng = rng("table");
        // Rising.
        let mut s = SimpleTrendState {
            opinion: Opinion::Zero,
            prev_count: 2,
        };
        assert_eq!(
            p.step(&mut s, &Observation::new(5, 8).unwrap(), &ctx(), &mut rng),
            Opinion::One
        );
        assert_eq!(s.prev_count, 5);
        // Falling.
        let mut s = SimpleTrendState {
            opinion: Opinion::One,
            prev_count: 6,
        };
        assert_eq!(
            p.step(&mut s, &Observation::new(1, 8).unwrap(), &ctx(), &mut rng),
            Opinion::Zero
        );
        // Tie keeps.
        for keep in [Opinion::Zero, Opinion::One] {
            let mut s = SimpleTrendState {
                opinion: keep,
                prev_count: 4,
            };
            assert_eq!(
                p.step(&mut s, &Observation::new(4, 8).unwrap(), &ctx(), &mut rng),
                keep
            );
        }
    }

    #[test]
    fn consecutive_dependence_artifact() {
        // The documented flaw: a high count at round t (count=8) followed by
        // a moderate one (count=4) forces Y back down even though the
        // moderate count is not low in absolute terms.
        let p = SimpleTrendProtocol::new(8).unwrap();
        let mut rng = rng("dep");
        let mut s = SimpleTrendState {
            opinion: Opinion::Zero,
            prev_count: 0,
        };
        assert_eq!(
            p.step(&mut s, &Observation::new(8, 8).unwrap(), &ctx(), &mut rng),
            Opinion::One
        );
        assert_eq!(
            p.step(&mut s, &Observation::new(4, 8).unwrap(), &ctx(), &mut rng),
            Opinion::Zero,
            "reusing count_t for both comparisons flips the opinion back"
        );
    }

    #[test]
    fn for_population_matches_fet_rule() {
        let p = SimpleTrendProtocol::for_population(1 << 16, 4.0).unwrap();
        assert_eq!(p.ell(), 45);
        assert!(SimpleTrendProtocol::for_population(1, 4.0).is_err());
    }

    #[test]
    #[should_panic(expected = "expects 8 samples")]
    fn wrong_sample_size_panics() {
        let p = SimpleTrendProtocol::new(8).unwrap();
        let mut rng = rng("bad");
        let mut s = p.init_state(Opinion::Zero, &mut rng);
        let _ = p.step(&mut s, &Observation::new(0, 16).unwrap(), &ctx(), &mut rng);
    }

    #[test]
    fn memory_is_half_of_fet_working_set() {
        let simple = SimpleTrendProtocol::new(32).unwrap();
        let m = simple.memory_footprint();
        assert_eq!(m.between_rounds_bits(), 7); // 1 + 6, same persisted size as FET
    }
}
