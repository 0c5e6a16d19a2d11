//! Parameterized FET variants for design ablations.
//!
//! Protocol 1 makes two specific design choices whose necessity the paper
//! does not isolate:
//!
//! 1. **keep-on-tie** — `count′_t = count″_{t−1} ⇒ Y_{t+1} = Y_t`. The
//!    absorbing consensus depends on it: at unanimity every comparison
//!    ties, and *keeping* is what pins the population.
//! 2. **sample splitting** — comparing a fresh half against a *stored
//!    stale half* rather than two fresh halves of the same round.
//!
//! [`FetVariant`] exposes both choices as parameters so the ablation
//! experiment (E16) can measure what breaks when they change. The paper's
//! FET is `FetVariant::new(ell, TieBreak::Keep, Memory::StaleHalf)`;
//! [`crate::fet::FetProtocol`] remains the canonical implementation (the
//! variant reproduces it bit-for-bit in distribution, which is tested).

use crate::error::CoreError;
use crate::memory::{bits_for_count, MemoryFootprint};
use crate::observation::Observation;
use crate::opinion::Opinion;
use crate::protocol::{Protocol, RoundContext};
use fet_stats::hypergeometric::split_sample;
use rand::RngCore;

/// What to do when the two compared counts are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TieBreak {
    /// Keep the current opinion (the paper's rule; preserves absorption).
    Keep,
    /// Flip a fair coin (destroys the absorbing consensus — agents at
    /// unanimity keep re-randomizing).
    Random,
    /// Always adopt 1 on ties (biased; breaks the 0↔1 symmetry).
    AdoptOne,
    /// Always adopt 0 on ties (biased the other way).
    AdoptZero,
}

impl TieBreak {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            TieBreak::Keep => "keep",
            TieBreak::Random => "random",
            TieBreak::AdoptOne => "adopt-1",
            TieBreak::AdoptZero => "adopt-0",
        }
    }
}

/// Which quantity the fresh count is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Memory {
    /// The stored second half of the *previous* round's sample (the
    /// paper's rule: a genuine trend estimate across rounds).
    StaleHalf,
    /// The second half of the *same* round's sample (memoryless: compares
    /// two i.i.d. counts, so there is no trend signal at all — a control
    /// arm showing that cross-round memory is the essential ingredient).
    FreshHalf,
}

impl Memory {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Memory::StaleHalf => "stale-half",
            Memory::FreshHalf => "fresh-half",
        }
    }
}

/// A parameterized FET-family protocol.
///
/// # Example
///
/// ```
/// use fet_core::variants::{FetVariant, TieBreak, Memory};
/// use fet_core::protocol::Protocol;
///
/// let canonical = FetVariant::new(16, TieBreak::Keep, Memory::StaleHalf)?;
/// assert_eq!(canonical.samples_per_round(), 32);
/// assert!(canonical.is_canonical());
/// # Ok::<(), fet_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FetVariant {
    ell: u32,
    tie_break: TieBreak,
    memory: Memory,
}

/// State of a [`FetVariant`] agent (same shape as the canonical
/// [`crate::fet::FetState`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FetVariantState {
    /// Current public opinion.
    pub opinion: Opinion,
    /// Stored count (unused under [`Memory::FreshHalf`] but kept so the
    /// memory footprint comparison is honest).
    pub stored_count: u32,
}

impl FetVariant {
    /// Creates a variant.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroSampleSize`] when `ell == 0`.
    pub fn new(ell: u32, tie_break: TieBreak, memory: Memory) -> Result<Self, CoreError> {
        if ell == 0 {
            return Err(CoreError::ZeroSampleSize);
        }
        Ok(FetVariant {
            ell,
            tie_break,
            memory,
        })
    }

    /// The half-sample size `ℓ`.
    pub fn ell(&self) -> u32 {
        self.ell
    }

    /// The tie-breaking rule.
    pub fn tie_break(&self) -> TieBreak {
        self.tie_break
    }

    /// The memory rule.
    pub fn memory(&self) -> Memory {
        self.memory
    }

    /// `true` when the variant coincides with the paper's Protocol 1.
    pub fn is_canonical(&self) -> bool {
        self.tie_break == TieBreak::Keep && self.memory == Memory::StaleHalf
    }

    /// Human-readable variant id, e.g. `fet[keep/stale-half]`.
    pub fn variant_label(&self) -> String {
        format!("fet[{}/{}]", self.tie_break.label(), self.memory.label())
    }
}

impl Protocol for FetVariant {
    type State = FetVariantState;

    fn name(&self) -> &str {
        "fet-variant"
    }

    fn samples_per_round(&self) -> u32 {
        2 * self.ell
    }

    fn init_state(&self, opinion: Opinion, rng: &mut dyn RngCore) -> FetVariantState {
        let stored = (rng.next_u64() % u64::from(self.ell + 1)) as u32;
        FetVariantState {
            opinion,
            stored_count: stored,
        }
    }

    fn step(
        &self,
        state: &mut FetVariantState,
        obs: &Observation,
        _ctx: &RoundContext,
        rng: &mut dyn RngCore,
    ) -> Opinion {
        assert_eq!(
            obs.sample_size(),
            self.samples_per_round(),
            "fet-variant(ℓ={}) expects {} samples, observation has {}",
            self.ell,
            self.samples_per_round(),
            obs.sample_size()
        );
        let (count_prime, count_second) =
            split_sample(u64::from(obs.ones()), u64::from(self.ell), rng);
        let reference = match self.memory {
            Memory::StaleHalf => u64::from(state.stored_count),
            Memory::FreshHalf => count_second,
        };
        let new_opinion = match count_prime.cmp(&reference) {
            std::cmp::Ordering::Greater => Opinion::One,
            std::cmp::Ordering::Less => Opinion::Zero,
            std::cmp::Ordering::Equal => match self.tie_break {
                TieBreak::Keep => state.opinion,
                TieBreak::Random => {
                    if rng.next_u64() & 1 == 1 {
                        Opinion::One
                    } else {
                        Opinion::Zero
                    }
                }
                TieBreak::AdoptOne => Opinion::One,
                TieBreak::AdoptZero => Opinion::Zero,
            },
        };
        state.opinion = new_opinion;
        state.stored_count = count_second as u32;
        new_opinion
    }

    fn output(&self, state: &FetVariantState) -> Opinion {
        state.opinion
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        let count_bits = bits_for_count(self.ell);
        match self.memory {
            Memory::StaleHalf => MemoryFootprint::new(1, count_bits, count_bits),
            // Fresh-half needs no persistent count at all.
            Memory::FreshHalf => MemoryFootprint::new(1, 0, 2 * count_bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fet::{FetProtocol, FetState};
    use fet_stats::rng::SeedTree;

    fn ctx() -> RoundContext {
        RoundContext::new(0)
    }

    #[test]
    fn construction_and_labels() {
        assert!(FetVariant::new(0, TieBreak::Keep, Memory::StaleHalf).is_err());
        let v = FetVariant::new(8, TieBreak::Random, Memory::FreshHalf).unwrap();
        assert_eq!(v.variant_label(), "fet[random/fresh-half]");
        assert!(!v.is_canonical());
        assert!(FetVariant::new(8, TieBreak::Keep, Memory::StaleHalf)
            .unwrap()
            .is_canonical());
    }

    #[test]
    fn canonical_variant_matches_fet_in_distribution() {
        // Identical seeds, identical observation streams: the canonical
        // variant and FetProtocol consume randomness identically, so their
        // trajectories coincide exactly.
        let ell = 8u32;
        let variant = FetVariant::new(ell, TieBreak::Keep, Memory::StaleHalf).unwrap();
        let fet = FetProtocol::new(ell).unwrap();
        let mut rng_a = SeedTree::new(42).child("a").rng();
        let mut rng_b = SeedTree::new(42).child("a").rng();
        let mut sa = FetVariantState {
            opinion: Opinion::Zero,
            stored_count: 3,
        };
        let mut sb = FetState {
            opinion: Opinion::Zero,
            prev_count_second_half: 3,
        };
        for ones in [0u32, 5, 9, 16, 12, 3, 8, 8, 1, 15] {
            let obs = Observation::new(ones, 16).unwrap();
            let oa = variant.step(&mut sa, &obs, &ctx(), &mut rng_a);
            let ob = fet.step(&mut sb, &obs, &ctx(), &mut rng_b);
            assert_eq!(oa, ob);
            assert_eq!(sa.stored_count, sb.prev_count_second_half);
        }
    }

    #[test]
    fn random_tie_break_leaves_unanimity() {
        // At unanimity with TieBreak::Random, agents re-randomize: the
        // all-ones configuration is NOT absorbing.
        let v = FetVariant::new(8, TieBreak::Random, Memory::StaleHalf).unwrap();
        let mut rng = SeedTree::new(7).child("rand").rng();
        let mut zeros = 0;
        for _ in 0..200 {
            let mut s = FetVariantState {
                opinion: Opinion::One,
                stored_count: 8,
            };
            let obs = Observation::new(16, 16).unwrap(); // unanimous ones
            if v.step(&mut s, &obs, &ctx(), &mut rng) == Opinion::Zero {
                zeros += 1;
            }
        }
        assert!(
            zeros > 50,
            "random tie-break should flip ~half: {zeros}/200"
        );
    }

    #[test]
    fn adopt_one_tie_break_pins_ones() {
        let v = FetVariant::new(4, TieBreak::AdoptOne, Memory::StaleHalf).unwrap();
        let mut rng = SeedTree::new(8).child("a1").rng();
        let mut s = FetVariantState {
            opinion: Opinion::Zero,
            stored_count: 4,
        };
        let obs = Observation::new(8, 8).unwrap();
        assert_eq!(v.step(&mut s, &obs, &ctx(), &mut rng), Opinion::One);
    }

    #[test]
    fn fresh_half_is_memoryless_in_effect() {
        // Under FreshHalf the comparison uses only this round's halves —
        // the stored count from the previous round must not influence the
        // outcome. Feed identical rng streams and observations with
        // different stored counts: outcomes coincide.
        let v = FetVariant::new(8, TieBreak::Keep, Memory::FreshHalf).unwrap();
        let obs = Observation::new(9, 16).unwrap();
        let mut rng_a = SeedTree::new(9).child("x").rng();
        let mut rng_b = SeedTree::new(9).child("x").rng();
        let mut sa = FetVariantState {
            opinion: Opinion::One,
            stored_count: 0,
        };
        let mut sb = FetVariantState {
            opinion: Opinion::One,
            stored_count: 8,
        };
        for _ in 0..20 {
            let oa = v.step(&mut sa, &obs, &ctx(), &mut rng_a);
            let ob = v.step(&mut sb, &obs, &ctx(), &mut rng_b);
            assert_eq!(oa, ob, "stored count leaked into a fresh-half comparison");
        }
    }

    #[test]
    fn memory_footprints_reflect_the_rule() {
        let stale = FetVariant::new(32, TieBreak::Keep, Memory::StaleHalf).unwrap();
        let fresh = FetVariant::new(32, TieBreak::Keep, Memory::FreshHalf).unwrap();
        assert_eq!(stale.memory_footprint().persistent_bits(), 6);
        assert_eq!(fresh.memory_footprint().persistent_bits(), 0);
    }
}
