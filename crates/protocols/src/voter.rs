//! The voter model: copy one uniformly sampled opinion.
//!
//! The most classical opinion dynamic (Liggett 1985). Reaches consensus on
//! *some* opinion — whichever side the random walk of the 1-count absorbs
//! at. With a stubborn source present the population does eventually agree
//! with the source in expectation `O(n)`-ish time (the walk can only absorb
//! at the source's side), but nothing poly-logarithmic: it is the contrast
//! baseline for "passive and simple, yet far too slow".

use fet_core::memory::MemoryFootprint;
use fet_core::observation::Observation;
use fet_core::opinion::Opinion;
use fet_core::protocol::{FusedCounters, ObservationSource, Protocol, RoundContext, StatePlanes};
use rand::RngCore;

/// The voter dynamic: each round, adopt the opinion of one random agent.
///
/// # Example
///
/// ```
/// use fet_protocols::voter::VoterProtocol;
/// use fet_core::protocol::Protocol;
///
/// let v = VoterProtocol::new();
/// assert_eq!(v.samples_per_round(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VoterProtocol;

impl VoterProtocol {
    /// Creates the voter protocol.
    pub fn new() -> Self {
        VoterProtocol
    }
}

impl Protocol for VoterProtocol {
    type State = Opinion;

    fn name(&self) -> &str {
        "voter"
    }

    fn samples_per_round(&self) -> u32 {
        1
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
        assert_eq!(obs.sample_size(), 1, "voter expects exactly one sample");
        *state = Opinion::from_bit_value(obs.ones() as u8);
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
        // Single-pass copy kernel: draw, adopt the observed bit, count.
        let mut counters = FusedCounters::default();
        for (state, out) in states.iter_mut().zip(outputs.iter_mut()) {
            let obs = source.next_observation(rng);
            assert_eq!(obs.sample_size(), 1, "voter expects exactly one sample");
            *state = Opinion::from_bit_value(obs.ones() as u8);
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
        MemoryFootprint::new(1, 0, 0)
    }

    fn state_planes(&self) -> StatePlanes {
        StatePlanes::OpinionOnly
    }

    fn opinion_threshold(&self) -> Option<u32> {
        // With m = 1 the copy rule IS a threshold: new opinion = 1 iff
        // the single observed bit is 1 — no state read, no step RNG.
        // Unlocks the bit-plane word-at-a-time kernel.
        Some(1)
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
    fn copies_the_sampled_opinion() {
        let v = VoterProtocol::new();
        let mut rng = SeedTree::new(1).child("voter").rng();
        let ctx = RoundContext::new(0);
        let mut s = Opinion::Zero;
        assert_eq!(
            v.step(&mut s, &Observation::new(1, 1).unwrap(), &ctx, &mut rng),
            Opinion::One
        );
        assert_eq!(
            v.step(&mut s, &Observation::new(0, 1).unwrap(), &ctx, &mut rng),
            Opinion::Zero
        );
    }

    #[test]
    fn zero_persistent_memory() {
        let m = VoterProtocol::new().memory_footprint();
        assert_eq!(m.persistent_bits(), 0);
        assert_eq!(m.between_rounds_bits(), 1);
    }

    #[test]
    #[should_panic(expected = "exactly one sample")]
    fn rejects_large_samples() {
        let v = VoterProtocol::new();
        let mut rng = SeedTree::new(2).child("bad").rng();
        let mut s = Opinion::Zero;
        let _ = v.step(
            &mut s,
            &Observation::new(1, 2).unwrap(),
            &RoundContext::new(0),
            &mut rng,
        );
    }
}
