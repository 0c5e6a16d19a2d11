//! Undecided-state dynamics (Angluin, Aspnes & Eisenstat 2008).
//!
//! The classic third-state consensus dynamic: a decided agent that meets
//! the opposite opinion becomes *undecided*; an undecided agent adopts the
//! first opinion it sees. Known to reach majority consensus fast in
//! population models.
//!
//! **Passive-communication adaptation.** The original protocol communicates
//! three states; a binary public opinion cannot express "undecided". We keep
//! the protocol's internal logic intact and let an undecided agent keep
//! *displaying its previous opinion* (it must display something — passive
//! agents cannot opt out of being observed, §1.1). The decision reported to
//! the convergence detector is that same displayed bit. This is the natural
//! passive embedding, and its failure to beat FET is part of the point of
//! experiment E7.

use fet_core::memory::MemoryFootprint;
use fet_core::observation::Observation;
use fet_core::opinion::Opinion;
use fet_core::protocol::{Protocol, RoundContext};
use rand::RngCore;

/// Per-agent state: the displayed opinion plus the undecided flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UndecidedState {
    /// The displayed (and decided-upon) opinion.
    pub opinion: Opinion,
    /// Whether the agent is currently undecided.
    pub undecided: bool,
}

/// Undecided-state dynamics over one sample per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UndecidedProtocol;

impl UndecidedProtocol {
    /// Creates the protocol.
    pub fn new() -> Self {
        UndecidedProtocol
    }
}

impl Protocol for UndecidedProtocol {
    type State = UndecidedState;

    fn name(&self) -> &str {
        "undecided-state"
    }

    fn samples_per_round(&self) -> u32 {
        1
    }

    fn init_state(&self, opinion: Opinion, rng: &mut dyn RngCore) -> UndecidedState {
        // Self-stabilization: the undecided flag is arbitrary at time 0.
        UndecidedState {
            opinion,
            undecided: rng.next_u64() & 1 == 1,
        }
    }

    fn step(
        &self,
        state: &mut UndecidedState,
        obs: &Observation,
        _ctx: &RoundContext,
        _rng: &mut dyn RngCore,
    ) -> Opinion {
        assert_eq!(
            obs.sample_size(),
            1,
            "undecided-state expects exactly one sample"
        );
        let seen = Opinion::from_bit_value(obs.ones() as u8);
        if state.undecided {
            state.opinion = seen;
            state.undecided = false;
        } else if seen != state.opinion {
            state.undecided = true;
        }
        state.opinion
    }

    fn output(&self, state: &UndecidedState) -> Opinion {
        state.opinion
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        // One persistent flag beyond the opinion.
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

    fn obs(bit: u32) -> Observation {
        Observation::new(bit, 1).unwrap()
    }

    #[test]
    fn undecided_adopts_first_seen() {
        let p = UndecidedProtocol::new();
        let mut rng = SeedTree::new(7).child("usd").rng();
        let mut s = UndecidedState {
            opinion: Opinion::Zero,
            undecided: true,
        };
        assert_eq!(p.step(&mut s, &obs(1), &ctx(), &mut rng), Opinion::One);
        assert!(!s.undecided);
    }

    #[test]
    fn conflict_makes_undecided_but_display_unchanged() {
        let p = UndecidedProtocol::new();
        let mut rng = SeedTree::new(8).child("usd2").rng();
        let mut s = UndecidedState {
            opinion: Opinion::Zero,
            undecided: false,
        };
        let out = p.step(&mut s, &obs(1), &ctx(), &mut rng);
        assert_eq!(out, Opinion::Zero, "display persists through undecidedness");
        assert!(s.undecided);
    }

    #[test]
    fn agreement_is_stable() {
        let p = UndecidedProtocol::new();
        let mut rng = SeedTree::new(9).child("usd3").rng();
        let mut s = UndecidedState {
            opinion: Opinion::One,
            undecided: false,
        };
        for _ in 0..5 {
            assert_eq!(p.step(&mut s, &obs(1), &ctx(), &mut rng), Opinion::One);
            assert!(!s.undecided);
        }
    }

    #[test]
    fn full_cycle_zero_to_one() {
        // decided-0 → (sees 1) undecided → (sees 1) decided-1.
        let p = UndecidedProtocol::new();
        let mut rng = SeedTree::new(10).child("usd4").rng();
        let mut s = UndecidedState {
            opinion: Opinion::Zero,
            undecided: false,
        };
        p.step(&mut s, &obs(1), &ctx(), &mut rng);
        let out = p.step(&mut s, &obs(1), &ctx(), &mut rng);
        assert_eq!(out, Opinion::One);
        assert!(!s.undecided);
    }
}
