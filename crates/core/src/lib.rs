//! # fet-core — self-stabilizing bit dissemination under passive communication
//!
//! The paper's primary contribution, as a library of pure protocol state
//! machines:
//!
//! * [`fet::FetProtocol`] — **Protocol 1, "Follow the Emerging Trend"**: the
//!   algorithm analyzed by Theorem 1 of the paper. Each round an agent
//!   observes `2ℓ` random opinions, partitions them uniformly into halves
//!   `S′_t`/`S″_t`, and compares this round's `count′_t` against last round's
//!   `count″_{t−1}`; it adopts 1 on a rise, 0 on a fall, and keeps its
//!   opinion on a tie.
//! * [`simple_trend::SimpleTrendProtocol`] — the unpartitioned variant
//!   described first in §1.3, whose analysis is obstructed by the
//!   `Y_{t+1}`/`Y_{t+2}` dependence (both read `count_t`); kept for the
//!   empirical comparison experiments.
//!
//! The **passive communication** restriction of the paper (§1.1–1.2) is
//! enforced *by construction*: the only per-round input a protocol receives
//! is an [`observation::Observation`], which carries nothing but the number
//! of 1-opinions among the sampled agents. There is no channel through which
//! an implementation could read identities, internal states, or extra
//! message bits.
//!
//! Protocols are pure state machines (init + step) with no knowledge of the
//! population; driving them against an actual population is the job of
//! `fet-sim`.
//!
//! # Example
//!
//! One FET step, by hand:
//!
//! ```
//! use fet_core::fet::FetProtocol;
//! use fet_core::observation::Observation;
//! use fet_core::opinion::Opinion;
//! use fet_core::protocol::{Protocol, RoundContext};
//! use rand::SeedableRng;
//!
//! let proto = FetProtocol::new(8).unwrap(); // ℓ = 8, samples 16 agents/round
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let mut state = proto.init_state(Opinion::Zero, &mut rng);
//!
//! // A strongly 1-leaning observation: 15 ones among 16 samples.
//! let obs = Observation::new(15, 16).unwrap();
//! let ctx = RoundContext::new(0);
//! proto.step(&mut state, &obs, &ctx, &mut rng);
//! // The stale count″ stored for the next round is at most ℓ:
//! assert!(state.prev_count_second_half <= 8);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod bitplane;
pub mod config;
pub mod erased;
pub mod error;
pub mod fet;
pub mod memory;
pub mod observation;
pub mod opinion;
pub mod pool;
pub mod population;
pub mod protocol;
pub mod shard;
pub mod simple_trend;
pub mod source;
pub mod variants;

pub use error::CoreError;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::config::ProblemSpec;
    pub use crate::erased::{DynProtocol, ErasedProtocol};
    pub use crate::error::CoreError;
    pub use crate::fet::{FetProtocol, FetState};
    pub use crate::memory::MemoryFootprint;
    pub use crate::observation::Observation;
    pub use crate::opinion::{AgentId, Opinion};
    pub use crate::population::{DynPopulation, Population, TypedPopulation};
    pub use crate::protocol::{Protocol, RoundContext};
    pub use crate::shard::{RoundStreams, ShardPlan, ShardSourceFactory};
    pub use crate::simple_trend::SimpleTrendProtocol;
    pub use crate::source::Source;
    pub use crate::variants::{FetVariant, Memory, TieBreak};
}
