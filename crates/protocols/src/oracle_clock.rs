//! The clock-assisted broadcast sketch from §1.4 of the paper.
//!
//! > "if all agents share the same notion of global time, then convergence
//! > can be achieved in `O(log n)` time w.h.p. even under passive
//! > communication. The idea is that agents divide the time horizon into
//! > phases of length `T = 4·log n`, \[each\] subdivided into 2 subphases of
//! > length `2·log n` each. In the first subphase of each phase, if a
//! > non-source agent observes an opinion 0, then it copies it as its new
//! > opinion, but if it sees 1 it ignores it. In the second subphase, it
//! > does the opposite."
//!
//! If the source supports 0, the first subphase of the first phase drives
//! everyone to 0 w.h.p. and nothing ever changes again; if the source
//! supports 1, the second subphase finishes the job. Either way:
//! `O(log n)` rounds, passive communication — *given clocks*.
//!
//! The clock here is the engine's round counter, i.e. an **oracle**. The
//! entire contribution of the prior self-stabilizing work (and the reason
//! FET exists) is that real agents don't have this oracle; this baseline
//! quantifies what the oracle is worth.

use fet_core::error::CoreError;
use fet_core::memory::MemoryFootprint;
use fet_core::observation::Observation;
use fet_core::opinion::Opinion;
use fet_core::protocol::{Protocol, RoundContext};
use rand::RngCore;

/// Clock-assisted two-subphase broadcast (§1.4), sampling one agent per
/// round.
///
/// # Example
///
/// ```
/// use fet_protocols::oracle_clock::OracleClockProtocol;
///
/// let p = OracleClockProtocol::for_population(1_000)?;
/// assert_eq!(p.subphase_len(), 2 * 7); // 2·⌈ln 1000⌉
/// # Ok::<(), fet_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OracleClockProtocol {
    subphase_len: u64,
}

impl OracleClockProtocol {
    /// Creates the protocol with an explicit subphase length (the paper's
    /// `2·log n`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroSampleSize`] when `subphase_len == 0`.
    pub fn new(subphase_len: u64) -> Result<Self, CoreError> {
        if subphase_len == 0 {
            return Err(CoreError::ZeroSampleSize);
        }
        Ok(OracleClockProtocol { subphase_len })
    }

    /// Creates the protocol with the paper's parameterization for `n`
    /// agents: subphases of `2⌈ln n⌉` rounds.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPopulation`] when `n < 2`.
    pub fn for_population(n: u64) -> Result<Self, CoreError> {
        if n < 2 {
            return Err(CoreError::InvalidPopulation {
                detail: format!("population must have at least 2 agents, got {n}"),
            });
        }
        let log = (n as f64).ln().ceil() as u64;
        OracleClockProtocol::new(2 * log.max(1))
    }

    /// Rounds per subphase.
    pub fn subphase_len(&self) -> u64 {
        self.subphase_len
    }

    /// Which opinion the current round is receptive to: subphase 0 adopts
    /// 0s, subphase 1 adopts 1s.
    pub fn receptive_to(&self, round: u64) -> Opinion {
        if (round / self.subphase_len).is_multiple_of(2) {
            Opinion::Zero
        } else {
            Opinion::One
        }
    }
}

impl Protocol for OracleClockProtocol {
    type State = Opinion;

    fn name(&self) -> &str {
        "oracle-clock"
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
        ctx: &RoundContext,
        _rng: &mut dyn RngCore,
    ) -> Opinion {
        assert_eq!(
            obs.sample_size(),
            1,
            "oracle-clock expects exactly one sample"
        );
        let seen = Opinion::from_bit_value(obs.ones() as u8);
        if seen == self.receptive_to(ctx.round()) {
            *state = seen;
        }
        *state
    }

    fn output(&self, state: &Opinion) -> Opinion {
        *state
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        // The oracle clock is *not* counted — that is the point of the
        // baseline; the honest cost of a self-stabilizing clock is what
        // Boczkowski/Bastide pay in their message bits.
        MemoryFootprint::new(1, 0, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fet_stats::rng::SeedTree;

    #[test]
    fn subphase_schedule() {
        let p = OracleClockProtocol::new(3).unwrap();
        // Rounds 0..3 adopt zeros, 3..6 adopt ones, 6..9 zeros again.
        assert_eq!(p.receptive_to(0), Opinion::Zero);
        assert_eq!(p.receptive_to(2), Opinion::Zero);
        assert_eq!(p.receptive_to(3), Opinion::One);
        assert_eq!(p.receptive_to(5), Opinion::One);
        assert_eq!(p.receptive_to(6), Opinion::Zero);
    }

    #[test]
    fn adopts_only_receptive_opinion() {
        let p = OracleClockProtocol::new(4).unwrap();
        let mut rng = SeedTree::new(11).child("oc").rng();
        let mut s = Opinion::One;
        // Round 0 (receptive to 0): seeing 1 is ignored; seeing 0 adopts.
        let r0 = RoundContext::new(0);
        assert_eq!(
            p.step(&mut s, &Observation::new(1, 1).unwrap(), &r0, &mut rng),
            Opinion::One
        );
        assert_eq!(
            p.step(&mut s, &Observation::new(0, 1).unwrap(), &r0, &mut rng),
            Opinion::Zero
        );
        // Round 4 (receptive to 1): the mirror behaviour.
        let r4 = RoundContext::new(4);
        assert_eq!(
            p.step(&mut s, &Observation::new(0, 1).unwrap(), &r4, &mut rng),
            Opinion::Zero
        );
        assert_eq!(
            p.step(&mut s, &Observation::new(1, 1).unwrap(), &r4, &mut rng),
            Opinion::One
        );
    }

    #[test]
    fn for_population_uses_ceil_log() {
        let p = OracleClockProtocol::for_population(1_000).unwrap();
        assert_eq!(p.subphase_len(), 14); // 2·⌈6.9⌉
        assert!(OracleClockProtocol::for_population(1).is_err());
    }
}
