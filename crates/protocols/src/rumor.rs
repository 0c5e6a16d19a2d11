//! Karp et al.'s PULL rumor spreading — and why it is not self-stabilizing.
//!
//! The classical algorithm (§1.4 of the paper): an *uninformed* agent
//! copies the opinion of the first agent it sees and considers itself
//! informed from then on; informed agents never change. From a clean start
//! (everyone uninformed, source informed) this floods the source's opinion
//! in `≈ 2 log n` rounds.
//!
//! In the self-stabilizing setting the adversary controls the `informed`
//! flag: initialize every agent to `informed = true` with the wrong
//! opinion, and the population is frozen on the wrong value forever — the
//! motivating failure that the paper cites ("non-source agents may be
//! initialized to 'think' that they have already been informed"). This
//! module exists so experiment E7 can reproduce that failure quantitatively.
//!
//! Note the protocol *is* passive (the copied message is the opinion bit
//! itself); what breaks is stabilization, not passivity.

use fet_core::memory::MemoryFootprint;
use fet_core::observation::Observation;
use fet_core::opinion::Opinion;
use fet_core::protocol::{Protocol, RoundContext};
use rand::RngCore;

/// Per-agent rumor-spreading state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RumorState {
    /// Current opinion.
    pub opinion: Opinion,
    /// Whether this agent believes it has been informed.
    pub informed: bool,
}

/// Copy-on-first-sight PULL rumor spreading, one sample per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RumorProtocol {
    /// When `true`, [`Protocol::init_state`] marks agents informed (the
    /// adversarial corruption); when `false`, agents start uninformed (the
    /// clean textbook start).
    pub corrupt_init: bool,
}

impl RumorProtocol {
    /// The clean textbook protocol: agents start uninformed.
    pub fn clean() -> Self {
        RumorProtocol {
            corrupt_init: false,
        }
    }

    /// The adversarially corrupted variant: agents start believing they
    /// are already informed.
    pub fn corrupted() -> Self {
        RumorProtocol { corrupt_init: true }
    }
}

impl Protocol for RumorProtocol {
    type State = RumorState;

    fn name(&self) -> &str {
        if self.corrupt_init {
            "rumor-corrupted"
        } else {
            "rumor"
        }
    }

    fn samples_per_round(&self) -> u32 {
        1
    }

    fn init_state(&self, opinion: Opinion, _rng: &mut dyn RngCore) -> RumorState {
        RumorState {
            opinion,
            informed: self.corrupt_init,
        }
    }

    fn step(
        &self,
        state: &mut RumorState,
        obs: &Observation,
        _ctx: &RoundContext,
        _rng: &mut dyn RngCore,
    ) -> Opinion {
        assert_eq!(
            obs.sample_size(),
            1,
            "rumor spreading expects exactly one sample"
        );
        if !state.informed {
            state.opinion = Opinion::from_bit_value(obs.ones() as u8);
            state.informed = true;
        }
        state.opinion
    }

    fn output(&self, state: &RumorState) -> Opinion {
        state.opinion
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint::new(1, 1, 1)
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
    fn uninformed_copies_and_locks() {
        let p = RumorProtocol::clean();
        let mut rng = SeedTree::new(13).child("rumor").rng();
        let mut s = RumorState {
            opinion: Opinion::Zero,
            informed: false,
        };
        assert_eq!(
            p.step(&mut s, &Observation::new(1, 1).unwrap(), &ctx(), &mut rng),
            Opinion::One
        );
        assert!(s.informed);
        // Once informed, nothing changes.
        assert_eq!(
            p.step(&mut s, &Observation::new(0, 1).unwrap(), &ctx(), &mut rng),
            Opinion::One
        );
    }

    #[test]
    fn corrupted_agents_are_frozen() {
        let p = RumorProtocol::corrupted();
        let mut rng = SeedTree::new(14).child("frozen").rng();
        let mut s = p.init_state(Opinion::Zero, &mut rng);
        assert!(s.informed);
        for _ in 0..20 {
            assert_eq!(
                p.step(&mut s, &Observation::new(1, 1).unwrap(), &ctx(), &mut rng),
                Opinion::Zero,
                "a corrupted-informed agent must never update"
            );
        }
    }

    #[test]
    fn names_distinguish_variants() {
        assert_ne!(
            RumorProtocol::clean().name(),
            RumorProtocol::corrupted().name()
        );
    }
}
