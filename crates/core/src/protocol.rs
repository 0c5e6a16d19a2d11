//! The protocol abstraction: a pure per-agent state machine.
//!
//! A [`Protocol`] receives one [`Observation`] per round — the count of
//! 1-opinions among the agents it sampled — and updates its state. It never
//! sees agent identities, the round number's true meaning (unless the
//! protocol is explicitly clock-assisted), or the population size. This is
//! the paper's passive `PULL` model distilled to a trait.
//!
//! Protocols are *configuration* objects (e.g. "FET with ℓ = 32"): cheap to
//! clone, shared across all agents, with all per-agent data in the
//! associated [`Protocol::State`].

use crate::memory::MemoryFootprint;
use crate::observation::Observation;
use crate::opinion::Opinion;
use rand::RngCore;
use std::fmt;

/// Per-round oracle context passed to protocols.
///
/// The self-stabilizing setting gives agents *no* common clock; the FET
/// protocol and every passive baseline ignore this struct entirely. It
/// exists so that the clock-assisted broadcast sketch from §1.4 of the paper
/// (which *assumes* a shared notion of global time) can be expressed in the
/// same framework and compared against FET — the comparison that motivates
/// the paper's contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoundContext {
    round: u64,
}

impl RoundContext {
    /// Creates a context for the given global round number.
    pub fn new(round: u64) -> Self {
        RoundContext { round }
    }

    /// The global round number (an oracle; see the type-level docs).
    pub fn round(&self) -> u64 {
        self.round
    }
}

/// Streams per-agent observations into the fused round kernel
/// ([`Protocol::step_fused`]).
///
/// A source *draws* observation `i` on demand instead of materializing an
/// `O(n)` observation buffer: it encapsulates the sampling rule plus any
/// per-observation fault corruption, while the protocol stays in charge of
/// the state update. One virtual call per agent, zero auxiliary memory —
/// or fewer calls, when a kernel steps the agent runs a source reports
/// through [`ObservationSource::repeats`]. Two families exist:
///
/// * **mean-field** sources (binomial / without-replacement sampling on
///   the complete graph): an observation is a pure function of the round's
///   global 1-count and the RNG — no snapshot of the population is
///   consulted, and the source is position-oblivious.
/// * **positional** sources (neighborhood sampling on an explicit graph):
///   agent `i`'s observation reads the round-start opinions of `i`'s
///   neighbors, so the source carries an internal agent cursor that
///   advances once per draw. Positional sources are constructed knowing
///   the first agent they stream for (see
///   [`ShardSourceFactory`](crate::shard::ShardSourceFactory)).
pub trait ObservationSource {
    /// Draws the next agent's observation. Called exactly once per agent,
    /// in agent order over the stepped slice — implementations may consume
    /// `rng` (sampling, noise) and advance positional state, and the
    /// kernel interleaves these draws with its own per-agent RNG use, in
    /// agent order.
    fn next_observation(&mut self, rng: &mut dyn RngCore) -> Observation;

    /// Draws observations for `count ≤ 64` consecutive agents and returns
    /// a word whose bit `j` is 1 iff draw `j`'s 1-count is `≥ threshold` —
    /// the entry point of the word-at-a-time fused kernel for
    /// [`StatePlanes::OpinionOnly`] protocols with an
    /// [`opinion threshold`](Protocol::opinion_threshold).
    ///
    /// # Contract
    ///
    /// Must be **stream-identical** to `count` successive
    /// [`next_observation`](ObservationSource::next_observation) calls:
    /// the same `rng` draws in the same per-agent order, with positional
    /// state advanced exactly `count` agents. Bits at positions
    /// `count..64` of the returned word must be zero (the trailing plane
    /// word's padding invariant rides on this). The default loops
    /// `next_observation` and is identical by construction;
    /// `MeanFieldSource` overrides it to hoist the per-draw virtual call
    /// and sampler dispatch out of the loop — one virtual call per 64
    /// agents instead of one per agent.
    fn next_threshold_word(&mut self, rng: &mut dyn RngCore, count: u32, threshold: u32) -> u64 {
        debug_assert!(count as usize <= 64, "a word holds at most 64 draws");
        let mut word = 0u64;
        for j in 0..count {
            let obs = self.next_observation(rng);
            word |= u64::from(obs.ones() >= threshold) << j;
        }
        word
    }

    /// How many of the next agents, at most `max`, see the observation the
    /// last [`next_observation`](ObservationSource::next_observation) call
    /// returned again, without the source drawing anything for them. The
    /// source counts them as delivered: the caller steps them with that
    /// observation and does not call `next_observation` for them.
    ///
    /// # Contract
    ///
    /// Reporting `k` must be **stream-identical** to `k` further
    /// `next_observation` calls that each return the same observation and
    /// draw nothing. The default reports 0. The mean-field source reports
    /// the rest of a unanimous run in near-consensus binomial rounds
    /// (see `fet-sim`'s `MeanFieldSource`).
    fn repeats(&mut self, max: usize) -> usize {
        let _ = max;
        0
    }
}

/// Counters accumulated by one fused round pass ([`Protocol::step_fused`]).
///
/// These are exactly the two aggregates the synchronous round loop needs
/// each round; accumulating them inside the kernel is what lets the fused
/// path skip the engine's output-buffer fold entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FusedCounters {
    /// Number of agents in the stepped slice whose new output is 1.
    pub ones: u64,
    /// Number of agents in the stepped slice whose new output equals the
    /// `correct` opinion the kernel was given. Only meaningful for passive
    /// protocols (decision ≡ output); engines recount decisions for
    /// decoupled baselines.
    pub correct: u64,
}

impl std::ops::AddAssign for FusedCounters {
    /// Merges another slice's counters — the reduction the parallel
    /// fused round applies per shard. One impl, so a future counter
    /// field cannot be dropped at some reduction site.
    fn add_assign(&mut self, rhs: FusedCounters) {
        self.ones += rhs.ones;
        self.correct += rhs.correct;
    }
}

/// How a protocol's per-agent state can be packed into bit planes for
/// the bit-plane population representation
/// ([`BitPopulation`](crate::bitplane::BitPopulation)).
///
/// A protocol that declares a packed layout promises that its whole
/// [`Protocol::State`] round-trips through
/// [`Protocol::pack_state`]/[`Protocol::unpack_state`]: the public
/// opinion bit plus at most one auxiliary byte. The packed opinion bit
/// **is** the state's [`Protocol::output`] (and, because packing is
/// restricted to passive protocols, its decision too) — that identity is
/// what lets the container answer global 1-counts by popcount.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatePlanes {
    /// The state does not pack; only the unpacked typed container
    /// ([`TypedPopulation`](crate::population::TypedPopulation)) can hold
    /// it. The default.
    Unpacked,
    /// The state is exactly the public opinion (voter, 3-majority): one
    /// bit per agent, no auxiliary plane.
    OpinionOnly,
    /// The state is the public opinion plus one auxiliary value occupying
    /// exactly `bits ∈ [1, 8]` bits per agent (FET with `ℓ ≤ 255`: the
    /// clock `count″ ∈ [0, ℓ]` at `⌈log₂(ℓ+1)⌉` bits): one bit plane plus
    /// one interleaved bit-sliced aux plane (see
    /// [`AuxPlane`](crate::bitplane::AuxPlane)). `pack_state`/`unpack_state`
    /// keep their byte-valued signatures; the container stores only the
    /// low `bits` bits, so packed aux values must satisfy `aux < 2^bits`.
    OpinionPlusPacked {
        /// Bits per agent in the packed aux plane (`1..=8`).
        bits: u8,
    },
}

impl fmt::Display for StatePlanes {
    /// Compact layout label (`fet protocols` prints it): `unpacked`,
    /// `1b`, `1b+{bits}b`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatePlanes::Unpacked => write!(f, "unpacked"),
            StatePlanes::OpinionOnly => write!(f, "1b"),
            StatePlanes::OpinionPlusPacked { bits } => write!(f, "1b+{bits}b"),
        }
    }
}

/// A per-agent protocol: a pure state machine driven by passive
/// observations.
///
/// # Contract
///
/// * [`Protocol::samples_per_round`] agents are sampled uniformly at random
///   (with replacement) each round; the engine delivers their opinion count
///   as one [`Observation`].
/// * [`Protocol::step`] consumes the observation and updates the state;
///   the opinion it settles on becomes the agent's *public output* for the
///   next round (read back via [`Protocol::output`]).
/// * [`Protocol::init_state`] produces a state holding a *given* opinion
///   with all other internal variables drawn arbitrarily — the
///   self-stabilizing setting makes no promise about initial internals, and
///   adversaries (in `fet-adversary`) construct worse states directly.
///
/// # Panics
///
/// Implementations panic when handed an observation whose sample size does
/// not match [`Protocol::samples_per_round`]; the engine upholds this
/// invariant, and violating it indicates a harness bug.
pub trait Protocol {
    /// Per-agent state.
    type State: Clone + fmt::Debug + Send;

    /// Short human-readable protocol name (e.g. `"fet"`).
    fn name(&self) -> &str;

    /// Number of agents each agent samples per round (`2ℓ` for FET).
    fn samples_per_round(&self) -> u32;

    /// Creates a state with the given public opinion and arbitrary
    /// (randomized) internal variables.
    fn init_state(&self, opinion: Opinion, rng: &mut dyn RngCore) -> Self::State;

    /// Executes one round: consumes this round's observation, updates the
    /// state, and returns the new public opinion.
    fn step(
        &self,
        state: &mut Self::State,
        obs: &Observation,
        ctx: &RoundContext,
        rng: &mut dyn RngCore,
    ) -> Opinion;

    /// Executes one round for a contiguous slice of agents with the
    /// observations already in hand: `states[i]` consumes
    /// `observations[i]` and its new public opinion is written to
    /// `outputs[i]` — exactly `step` once per agent in slice order with
    /// the same RNG.
    ///
    /// The engines never call this; their rounds draw observations on
    /// demand through [`Protocol::step_fused`]. It is a convenience for
    /// callers that hold an observation buffer of their own.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ, or when any observation's
    /// sample size does not match [`Protocol::samples_per_round`].
    fn step_batch(
        &self,
        states: &mut [Self::State],
        observations: &[Observation],
        ctx: &RoundContext,
        rng: &mut dyn RngCore,
        outputs: &mut [Opinion],
    ) {
        assert_eq!(
            states.len(),
            observations.len(),
            "one observation per agent"
        );
        assert_eq!(states.len(), outputs.len(), "one output slot per agent");
        for ((state, obs), out) in states.iter_mut().zip(observations).zip(outputs.iter_mut()) {
            *out = self.step(state, obs, ctx, rng);
        }
    }

    /// Executes one *fused* round for a contiguous slice of agents: for
    /// each agent in slice order, draws its observation from `source`,
    /// applies the update, writes the new public opinion to `outputs[i]`,
    /// and accumulates the round counters — one pass, `O(1)` auxiliary
    /// memory (no observation or scratch buffers).
    ///
    /// The default implementation loops over [`Protocol::step`] and is
    /// always correct. Protocols with a hot decision rule (FET, voter,
    /// 3-majority) override it with a kernel that hoists per-observation
    /// validation and table lookups out of the loop; overrides **must**
    /// stay stream-identical to the default (same per-agent draw
    /// interleaving — observation, then update — and the same results for
    /// a given RNG state), so every representation of one protocol walks
    /// one fused stream. An override may step the agents a source reports
    /// through [`ObservationSource::repeats`] without asking for their
    /// observations, as long as their updates draw exactly what `step`
    /// would. See `fet-sim`'s engine docs for the execution-mode story.
    ///
    /// # Panics
    ///
    /// Panics when `outputs.len() != states.len()`, or when `source`
    /// yields an observation whose sample size does not match
    /// [`Protocol::samples_per_round`].
    fn step_fused(
        &self,
        states: &mut [Self::State],
        source: &mut dyn ObservationSource,
        ctx: &RoundContext,
        rng: &mut dyn RngCore,
        correct: Opinion,
        outputs: &mut [Opinion],
    ) -> FusedCounters {
        assert_eq!(states.len(), outputs.len(), "one output slot per agent");
        let mut counters = FusedCounters::default();
        for (state, out) in states.iter_mut().zip(outputs.iter_mut()) {
            let obs = source.next_observation(rng);
            let new_output = self.step(state, &obs, ctx, rng);
            *out = new_output;
            counters.ones += u64::from(new_output.is_one());
            counters.correct += u64::from(new_output == correct);
        }
        counters
    }

    /// `true` when this protocol ships a specialized single-pass
    /// [`Protocol::step_fused`] kernel (FET, voter, 3-majority), `false`
    /// when fused execution runs through the default per-agent loop. The
    /// fused *path* is available either way; this only reports whether the
    /// hot kernel was hand-written. Surfaced by `fet protocols`.
    fn has_fused_kernel(&self) -> bool {
        false
    }

    /// The public opinion currently output by this state — the bit other
    /// agents see when they sample this agent.
    fn output(&self, state: &Self::State) -> Opinion;

    /// The agent's *answer* to the dissemination problem.
    ///
    /// For passive-communication protocols this **is** the public output
    /// (the default). Decoupled baselines (which the paper proves cannot be
    /// passive) override it to expose an internal opinion distinct from the
    /// communicated bit.
    fn decision(&self, state: &Self::State) -> Opinion {
        self.output(state)
    }

    /// `true` when the communicated bit equals the decision bit for every
    /// reachable state — the defining property of passive communication.
    ///
    /// Defaults to `true`; decoupled baselines override.
    fn is_passive(&self) -> bool {
        true
    }

    /// The half-sample size `ℓ` for which Observation 1's aggregate
    /// `(x_t, x_{t+1})` chain is *exact* for this protocol, if any.
    ///
    /// Only FET qualifies today: its sample-splitting makes consecutive
    /// opinions conditionally independent given `(x_t, x_{t+1})`, which is
    /// precisely what lets the simulation collapse the whole population
    /// into two binomial draws per round. Protocols returning `None` cannot
    /// be run at the aggregate fidelity.
    fn aggregate_ell(&self) -> Option<u32> {
        None
    }

    /// Memory accounting for Theorem 1's `O(log ℓ)` bits claim.
    fn memory_footprint(&self) -> MemoryFootprint;

    /// Declares whether (and how) this protocol's state packs into
    /// bit planes — the descriptor the bit-plane population
    /// representation keys off. Defaults to [`StatePlanes::Unpacked`]
    /// (typed storage only, API unchanged).
    ///
    /// # Contract
    ///
    /// A protocol returning anything other than `Unpacked` must
    ///
    /// * be passive ([`Protocol::is_passive`] — the packed opinion bit
    ///   doubles as the decision bit);
    /// * implement [`Protocol::pack_state`]/[`Protocol::unpack_state`] as
    ///   mutual inverses over every state reachable from
    ///   [`Protocol::init_state`] and [`Protocol::step`];
    /// * pack the opinion bit as exactly [`Protocol::output`] of the
    ///   state.
    fn state_planes(&self) -> StatePlanes {
        StatePlanes::Unpacked
    }

    /// For [`StatePlanes::OpinionOnly`] protocols whose whole update rule
    /// is a pure threshold on the observation — new opinion `= 1` iff the
    /// observed 1-count is `≥ threshold`, consuming **no** randomness in
    /// [`Protocol::step`] — the threshold. `Some` unlocks the
    /// word-at-a-time fused kernel in the bit-plane representation: 64
    /// agents per plane-word write via
    /// [`ObservationSource::next_threshold_word`], bypassing the tile
    /// kernel (unpack 64 states, [`Protocol::step_fused`], repack) while
    /// remaining stream-identical to it.
    ///
    /// Voter (`m = 1`) returns `Some(1)`; 3-majority (`m = 3`) returns
    /// `Some(2)`. Defaults to `None` (tile kernel).
    ///
    /// # Contract
    ///
    /// A protocol returning `Some(t)` promises, for every reachable
    /// state: `step` sets the state's output to
    /// `Opinion::from(obs.ones() >= t)`, independent of the prior state,
    /// and draws nothing from its RNG — the two properties that make the
    /// word kernel's draw stream equal to the tile kernel's.
    fn opinion_threshold(&self) -> Option<u32> {
        None
    }

    /// Packs a state into `(opinion bit, auxiliary byte)` — the planes of
    /// [`StatePlanes`]. Protocols declaring [`StatePlanes::OpinionOnly`]
    /// return `(output, 0)`.
    ///
    /// # Panics
    ///
    /// The default panics: only protocols whose
    /// [`Protocol::state_planes`] is not `Unpacked` are packed, and those
    /// must override.
    fn pack_state(&self, state: &Self::State) -> (Opinion, u8) {
        let _ = state;
        panic!("protocol `{}` declares no packed state layout", self.name());
    }

    /// Reconstructs the state packed as `(opinion, aux)` by
    /// [`Protocol::pack_state`].
    ///
    /// # Panics
    ///
    /// The default panics, exactly as [`Protocol::pack_state`].
    fn unpack_state(&self, opinion: Opinion, aux: u8) -> Self::State {
        let _ = (opinion, aux);
        panic!("protocol `{}` declares no packed state layout", self.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_context_reports_round() {
        let ctx = RoundContext::new(17);
        assert_eq!(ctx.round(), 17);
    }

    // A minimal protocol used to exercise trait defaults.
    #[derive(Debug, Clone)]
    struct AlwaysOne;

    impl Protocol for AlwaysOne {
        type State = Opinion;

        fn name(&self) -> &str {
            "always-one"
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
            _obs: &Observation,
            _ctx: &RoundContext,
            _rng: &mut dyn RngCore,
        ) -> Opinion {
            *state = Opinion::One;
            *state
        }

        fn output(&self, state: &Opinion) -> Opinion {
            *state
        }

        fn memory_footprint(&self) -> MemoryFootprint {
            MemoryFootprint::new(1, 0, 0)
        }
    }

    #[test]
    fn default_decision_equals_output() {
        use rand::SeedableRng;
        let p = AlwaysOne;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        let s = p.init_state(Opinion::Zero, &mut rng);
        assert_eq!(p.decision(&s), p.output(&s));
        assert!(p.is_passive());
    }
}
