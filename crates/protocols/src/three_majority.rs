//! The 3-majority dynamic (Doerr et al. 2011).
//!
//! Sample three agents, adopt their majority opinion. The canonical
//! "power of two choices"-style consensus dynamic: converges to a
//! near-initial-majority consensus in `O(log n)` rounds w.h.p., tolerates
//! some adversarial corruption — but, like all plain consensus dynamics,
//! has no mechanism to prefer the *source's* opinion over the crowd's.

use fet_core::memory::MemoryFootprint;
use fet_core::observation::Observation;
use fet_core::opinion::Opinion;
use fet_core::protocol::{FusedCounters, ObservationSource, Protocol, RoundContext, StatePlanes};
use rand::RngCore;

/// 3-majority: adopt the majority among three uniformly sampled opinions.
///
/// With three binary samples a majority always exists, so unlike
/// [`crate::majority::MajorityProtocol`] there is no keep-on-tie branch and
/// the update is memoryless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreeMajorityProtocol;

impl ThreeMajorityProtocol {
    /// Creates the 3-majority protocol.
    pub fn new() -> Self {
        ThreeMajorityProtocol
    }
}

impl Protocol for ThreeMajorityProtocol {
    type State = Opinion;

    fn name(&self) -> &str {
        "3-majority"
    }

    fn samples_per_round(&self) -> u32 {
        3
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
            3,
            "3-majority expects exactly three samples"
        );
        *state = if obs.ones() >= 2 {
            Opinion::One
        } else {
            Opinion::Zero
        };
        *state
    }

    fn step_fused(
        &self,
        states: &mut [Opinion],
        source: &mut dyn ObservationSource,
        _ctx: &RoundContext,
        rng: &mut dyn RngCore,
        correct: Opinion,
        outputs: &mut [Opinion],
    ) -> FusedCounters {
        assert_eq!(states.len(), outputs.len(), "one output slot per agent");
        // Single-pass threshold kernel: draw, take the majority, count.
        let mut counters = FusedCounters::default();
        for (state, out) in states.iter_mut().zip(outputs.iter_mut()) {
            let obs = source.next_observation(rng);
            assert_eq!(
                obs.sample_size(),
                3,
                "3-majority expects exactly three samples"
            );
            *state = if obs.ones() >= 2 {
                Opinion::One
            } else {
                Opinion::Zero
            };
            *out = *state;
            counters.ones += u64::from(state.is_one());
            counters.correct += u64::from(*state == correct);
        }
        counters
    }

    fn has_fused_kernel(&self) -> bool {
        true
    }

    fn output(&self, state: &Opinion) -> Opinion {
        *state
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint::new(1, 0, 2)
    }

    fn state_planes(&self) -> StatePlanes {
        StatePlanes::OpinionOnly
    }

    fn opinion_threshold(&self) -> Option<u32> {
        // Majority of 3 is the threshold "≥ 2 of the sampled bits are
        // 1" — no state read, no step RNG. Unlocks the bit-plane
        // word-at-a-time kernel.
        Some(2)
    }

    fn pack_state(&self, state: &Opinion) -> (Opinion, u8) {
        (*state, 0)
    }

    fn unpack_state(&self, opinion: Opinion, _aux: u8) -> Opinion {
        opinion
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_stats::rng::SeedTree;

    #[test]
    fn majority_of_three() {
        let p = ThreeMajorityProtocol::new();
        let mut rng = SeedTree::new(5).child("3maj").rng();
        let ctx = RoundContext::new(0);
        let mut s = Opinion::Zero;
        for (ones, expect) in [
            (0u32, Opinion::Zero),
            (1, Opinion::Zero),
            (2, Opinion::One),
            (3, Opinion::One),
        ] {
            assert_eq!(
                p.step(&mut s, &Observation::new(ones, 3).unwrap(), &ctx, &mut rng),
                expect,
                "ones = {ones}"
            );
        }
    }

    #[test]
    fn update_is_memoryless() {
        // The outcome depends only on the observation, not on the state.
        let p = ThreeMajorityProtocol::new();
        let mut rng = SeedTree::new(6).child("mem").rng();
        let ctx = RoundContext::new(0);
        let obs = Observation::new(2, 3).unwrap();
        let mut a = Opinion::Zero;
        let mut b = Opinion::One;
        assert_eq!(
            p.step(&mut a, &obs, &ctx, &mut rng),
            p.step(&mut b, &obs, &ctx, &mut rng)
        );
    }
}
