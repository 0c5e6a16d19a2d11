//! Sample-majority dynamics: adopt the majority opinion of `ℓ` samples.
//!
//! A natural "use the same budget as FET" baseline: with `ℓ = c·log n`
//! samples per round, majority converges to *whichever opinion holds the
//! population majority* in `O(log n)`-ish time — extremely fast, but it
//! steers toward the initial majority, not toward the source. From the
//! adversarial all-wrong start it therefore locks the *wrong* consensus
//! (the single source is powerless), which is exactly the failure mode
//! experiment E7 demonstrates.

use fet_core::error::CoreError;
use fet_core::memory::MemoryFootprint;
use fet_core::observation::Observation;
use fet_core::opinion::Opinion;
use fet_core::protocol::{Protocol, RoundContext};
use rand::RngCore;

/// Majority-of-`ℓ`-samples dynamics with keep-on-tie.
///
/// # Example
///
/// ```
/// use fet_protocols::majority::MajorityProtocol;
/// use fet_core::protocol::Protocol;
///
/// let m = MajorityProtocol::new(31)?;
/// assert_eq!(m.samples_per_round(), 31);
/// # Ok::<(), fet_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MajorityProtocol {
    ell: u32,
}

impl MajorityProtocol {
    /// Creates majority dynamics over `ell` samples per round.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroSampleSize`] when `ell == 0`.
    pub fn new(ell: u32) -> Result<Self, CoreError> {
        if ell == 0 {
            return Err(CoreError::ZeroSampleSize);
        }
        Ok(MajorityProtocol { ell })
    }

    /// The per-round sample size.
    pub fn ell(&self) -> u32 {
        self.ell
    }
}

impl Protocol for MajorityProtocol {
    type State = Opinion;

    fn name(&self) -> &str {
        "majority"
    }

    fn samples_per_round(&self) -> u32 {
        self.ell
    }

    fn init_state(&self, opinion: Opinion, _rng: &mut dyn RngCore) -> Opinion {
        opinion
    }

    fn step(
        &self,
        state: &mut Opinion,
        obs: &Observation,
        _ctx: &RoundContext,
        _rng: &mut dyn RngCore,
    ) -> Opinion {
        assert_eq!(
            obs.sample_size(),
            self.ell,
            "majority(ℓ={}) expects {} samples, observation has {}",
            self.ell,
            self.ell,
            obs.sample_size()
        );
        let twice = 2 * obs.ones();
        *state = match twice.cmp(&self.ell) {
            std::cmp::Ordering::Greater => Opinion::One,
            std::cmp::Ordering::Less => Opinion::Zero,
            std::cmp::Ordering::Equal => *state, // tie keeps
        };
        *state
    }

    fn output(&self, state: &Opinion) -> Opinion {
        *state
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        use fet_core::memory::bits_for_count;
        // No persistent internals; within a round it tallies a count.
        MemoryFootprint::new(1, 0, bits_for_count(self.ell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_stats::rng::SeedTree;

    fn ctx() -> RoundContext {
        RoundContext::new(0)
    }

    #[test]
    fn strict_majorities_win() {
        let m = MajorityProtocol::new(5).unwrap();
        let mut rng = SeedTree::new(3).child("maj").rng();
        let mut s = Opinion::Zero;
        assert_eq!(
            m.step(&mut s, &Observation::new(3, 5).unwrap(), &ctx(), &mut rng),
            Opinion::One
        );
        assert_eq!(
            m.step(&mut s, &Observation::new(2, 5).unwrap(), &ctx(), &mut rng),
            Opinion::Zero
        );
    }

    #[test]
    fn even_split_keeps() {
        let m = MajorityProtocol::new(4).unwrap();
        let mut rng = SeedTree::new(4).child("tie").rng();
        for keep in [Opinion::Zero, Opinion::One] {
            let mut s = keep;
            assert_eq!(
                m.step(&mut s, &Observation::new(2, 4).unwrap(), &ctx(), &mut rng),
                keep
            );
        }
    }

    #[test]
    fn zero_sample_size_rejected() {
        assert!(MajorityProtocol::new(0).is_err());
    }

    #[test]
    fn no_persistent_memory() {
        let m = MajorityProtocol::new(33).unwrap().memory_footprint();
        assert_eq!(m.persistent_bits(), 0);
        assert!(m.working_bits() > 0);
    }
}
