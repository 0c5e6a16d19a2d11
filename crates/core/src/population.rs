//! Type-erased *population containers*: the zero-copy erased hot path.
//!
//! Runtime protocol selection needs a type that hides a protocol's
//! `State`. This module erases at the granularity of the **population**,
//! not the agent. A [`TypedPopulation<P>`] owns one contiguous
//! `Vec<P::State>` next to its protocol configuration; the object-safe
//! [`Population`] / [`DynPopulation`] traits expose exactly the operations
//! the round loop needs (initialize agents, step the whole slice, read
//! outputs and decisions, account memory, clone for snapshots). A
//! runtime-selected protocol therefore pays **one** virtual dispatch per
//! round — straight into the typed [`Protocol::step_fused`] kernel — with
//! no per-round state buffer and no cloning. The states stay tiny and uniform (FET's is 8 bytes), exactly
//! the regime the 3-bit/noisy-PULL literature optimizes for, so one
//! contiguous buffer is also the cache-friendly layout.
//!
//! Two traits split the interface by what callers need:
//!
//! * [`Population`] — the round-loop surface, object-safe, with minimal
//!   bounds so fully generic engines can drive any `P: Protocol` without
//!   extra `where` clauses.
//! * [`DynPopulation`] — adds [`DynPopulation::clone_box`] (engines and
//!   trajectory snapshots are `Clone`), and is the type protocol factories
//!   hand out: `Box<dyn DynPopulation>`.
//!
//! # Example
//!
//! ```
//! use fet_core::erased::ErasedProtocol;
//! use fet_core::fet::FetProtocol;
//! use fet_core::observation::Observation;
//! use fet_core::opinion::Opinion;
//! use fet_core::population::Population;
//! use fet_core::protocol::{ObservationSource, RoundContext};
//! use fet_core::shard::{RoundStreams, ShardSourceFactory};
//! use rand::{RngCore, SeedableRng};
//!
//! /// Every agent sees 12 ones among its 16 samples.
//! struct TwelveOfSixteen;
//!
//! impl ObservationSource for TwelveOfSixteen {
//!     fn next_observation(&mut self, _rng: &mut dyn RngCore) -> Observation {
//!         Observation::new(12, 16).expect("12 ≤ 16")
//!     }
//! }
//!
//! impl ShardSourceFactory for TwelveOfSixteen {
//!     fn shard_source(&self, _range: std::ops::Range<usize>) -> Box<dyn ObservationSource + '_> {
//!         Box::new(TwelveOfSixteen)
//!     }
//! }
//!
//! // A runtime-selected protocol hands out a contiguous population…
//! let erased = ErasedProtocol::new(FetProtocol::new(8)?);
//! let mut population = erased.population();
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! for _ in 0..100 {
//!     population.push_agent(Opinion::Zero, &mut rng);
//! }
//!
//! // …and one round is a single dispatch into the typed fused kernel.
//! let mut out = vec![Opinion::Zero; 100];
//! let counters = population.step_round(
//!     &TwelveOfSixteen,
//!     &RoundContext::new(0),
//!     RoundStreams::Main(&mut rng),
//!     None,
//!     Opinion::One,
//!     Some(&mut out),
//! );
//! assert_eq!(counters.ones, out.iter().filter(|o| o.is_one()).count() as u64);
//! # Ok::<(), fet_core::CoreError>(())
//! ```

use crate::memory::MemoryFootprint;
use crate::observation::Observation;
use crate::opinion::Opinion;
use crate::protocol::{FusedCounters, Protocol, RoundContext};
use crate::shard::{self, RoundStreams, ShardSourceFactory, SleepLane};
use rand::RngCore;
use std::fmt;

/// The object-safe round-loop view of a set of agents running one protocol.
///
/// Agents are indexed `0..len()` in insertion order ([`push_agent`]); a
/// simulation engine keeps sources outside the population and maps indices
/// itself. The round method preserves the *sequential RNG semantics* of
/// [`Protocol::step_fused`]: stepping the population in one call draws the
/// same random stream as stepping agent by agent in index order.
///
/// Bounds are deliberately minimal (`Debug + Send + Sync`, no `Clone` —
/// `Sync` because the parallel fused round shares the protocol
/// configuration read-only across shard workers), so that a fully generic
/// engine can drive any `P: Protocol` through [`TypedPopulation`] without
/// inheriting clonability requirements; see [`DynPopulation`] for the
/// clonable, factory-facing extension.
///
/// [`push_agent`]: Population::push_agent
pub trait Population: fmt::Debug + Send {
    /// The protocol's name (see [`Protocol::name`]).
    fn protocol_name(&self) -> &str;

    /// Agents sampled per agent per round (see
    /// [`Protocol::samples_per_round`]).
    fn samples_per_round(&self) -> u32;

    /// `true` when the protocol communicates passively (see
    /// [`Protocol::is_passive`]).
    fn is_passive(&self) -> bool;

    /// Per-agent memory accounting (see [`Protocol::memory_footprint`]).
    fn memory_footprint(&self) -> MemoryFootprint;

    /// Number of agents currently in the population.
    fn len(&self) -> usize;

    /// `true` when the population holds no agents.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-allocates room for `additional` more agents.
    fn reserve(&mut self, additional: usize);

    /// Appends one agent initialized with the given public opinion and
    /// randomized internals (see [`Protocol::init_state`]), returning the
    /// new agent's public output.
    fn push_agent(&mut self, opinion: Opinion, rng: &mut dyn RngCore) -> Opinion;

    /// Executes one *fused* round for every agent: each agent's
    /// observation is drawn on demand from a shard source, its update
    /// applied, and the round counters accumulated in one pass —
    /// `O(1)` auxiliary memory (no observation buffer exists anywhere).
    /// This is the one synchronous round entry point; see the engine docs
    /// in `fet-sim` for how its streams are chosen.
    ///
    /// `streams` picks the execution:
    ///
    /// * [`RoundStreams::Main`] — the single-threaded round: the whole
    ///   population is shard 0 over `0..len()`, stepped with the given RNG
    ///   and `sources.shard_source(0..len())`.
    /// * [`RoundStreams::Sharded`] — the work-sharded round: the agents
    ///   split into `plan.shards()` word-aligned contiguous ranges, each
    ///   stepped with its own counter-derived RNG
    ///   ([`ShardPlan::rng_for_shard`](crate::shard::ShardPlan::rng_for_shard))
    ///   and its own source ([`ShardSourceFactory::shard_source`]) by up
    ///   to `plan.workers()` scoped OS threads, and the per-shard
    ///   [`FusedCounters`] reduced in shard order.
    ///
    /// `sleep`, present only in sleepy rounds, makes each sleeper keep its
    /// round-start state and output (see
    /// [`shard`](crate::shard#sleepy-rounds)).
    ///
    /// `outputs`, when present, receives every agent's new public opinion
    /// (index-aligned). Byte-addressed containers need it; containers
    /// whose own opinion storage is the output store
    /// ([`Population::supports_inplace_rounds`]) take `None`.
    ///
    /// # Determinism contract
    ///
    /// The resulting states, outputs, and counters are a pure function of
    /// the agent states, the source configuration, the sleep lane and the
    /// streams — for a plan, its `(stream, round, shard count)`, **never**
    /// `plan.workers()`, thread scheduling, or how a shard's range is
    /// sub-chunked (each shard is one sequential kernel pass). Typed and
    /// bit-plane containers of one protocol walk identical streams because
    /// they dispatch into kernels with the same per-agent draw order.
    ///
    /// # Panics
    ///
    /// Panics when `outputs` has a length other than [`Population::len`],
    /// when a byte-addressed container gets `None`, when a source yields
    /// an observation whose sample size does not match
    /// [`Population::samples_per_round`], or when a shard worker panics.
    fn step_round(
        &mut self,
        sources: &dyn ShardSourceFactory,
        ctx: &RoundContext,
        streams: RoundStreams<'_>,
        sleep: Option<&SleepLane>,
        correct: Opinion,
        outputs: Option<&mut [Opinion]>,
    ) -> FusedCounters;

    /// Executes one round for the single agent `idx` (the asynchronous
    /// scheduler's activation).
    ///
    /// # Panics
    ///
    /// Panics when `idx ≥ len()`.
    fn step_agent(
        &mut self,
        idx: usize,
        obs: &Observation,
        ctx: &RoundContext,
        rng: &mut dyn RngCore,
    ) -> Opinion;

    /// Rewrites agent `idx` to a fresh protocol-initial state holding
    /// `opinion`, drawing any initialization randomness from `rng` — the
    /// fault-schedule state-corruption hook. Every container draws the
    /// same stream for the same protocol, so a corruption event is
    /// bit-identical across storage representations.
    ///
    /// # Panics
    ///
    /// Panics when `idx ≥ len()`.
    fn corrupt_agent(&mut self, idx: usize, opinion: Opinion, rng: &mut dyn RngCore);

    /// The public output of agent `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx ≥ len()`.
    fn output_of(&self, idx: usize) -> Opinion;

    /// The decision of agent `idx` (see [`Protocol::decision`]).
    ///
    /// # Panics
    ///
    /// Panics when `idx ≥ len()`.
    fn decision_of(&self, idx: usize) -> Opinion;

    /// Number of agents whose decision equals `correct` — one typed loop
    /// behind a single dispatch, so engines keep their per-round virtual
    /// call count constant.
    fn count_correct_decisions(&self, correct: Opinion) -> u64;

    /// Writes every agent's public output into `out` (index-aligned).
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != len()`.
    fn write_outputs(&self, out: &mut [Opinion]);

    /// Number of agents whose public output is `One`. The default walks
    /// [`Population::output_of`]; bit-plane containers answer by popcount.
    fn count_output_ones(&self) -> u64 {
        (0..self.len())
            .filter(|&i| self.output_of(i).is_one())
            .count() as u64
    }

    /// Resident heap bytes of the agent state storage (capacity, not
    /// length — what the allocator actually holds). `0` when the
    /// container does not account for itself.
    fn resident_bytes(&self) -> usize {
        0
    }

    /// `true` when the container's own opinion storage is the output
    /// store, so [`Population::step_round`] runs with `outputs: None` and
    /// engines keep no byte output buffer. Only bit-plane containers do:
    /// their opinion plane *is* the output store.
    fn supports_inplace_rounds(&self) -> bool {
        false
    }

    /// Copies the opinion plane word-for-word into `snapshot`, which must
    /// hold exactly `len().div_ceil(64)` words. Only meaningful when
    /// [`Population::supports_inplace_rounds`] is `true`; the default
    /// panics.
    fn write_opinion_words(&self, snapshot: &mut [u64]) {
        let _ = snapshot;
        panic!(
            "population `{}` has no packed opinion plane",
            self.protocol_name()
        );
    }
}

/// A clonable [`Population`] — the type protocol factories hand out.
///
/// Splitting `clone_box` into a subtrait keeps [`Population`] free of
/// `Clone` bounds for fully generic engine code while letting runtime
/// containers (`Box<dyn DynPopulation>`) participate in `Clone` engines and
/// trajectory snapshots.
pub trait DynPopulation: Population {
    /// Clones the population (protocol configuration and all agent states)
    /// behind a box.
    fn clone_box(&self) -> Box<dyn DynPopulation>;
}

impl Clone for Box<dyn DynPopulation> {
    fn clone(&self) -> Self {
        // Explicit deref: resolve against the underlying population, not a
        // (hypothetical) blanket impl on the box itself.
        (**self).clone_box()
    }
}

/// One contiguous `Vec<P::State>` next to its protocol configuration — the
/// canonical [`Population`] implementation.
///
/// This is the representation behind every execution path: typed engines
/// own one directly (monomorphized, zero dispatch), while runtime-selected
/// protocols hold the same struct behind `Box<dyn DynPopulation>` (one
/// dispatch per round). Typed accessors ([`TypedPopulation::states`],
/// [`TypedPopulation::states_mut`], …) remain available for adversarial
/// state surgery.
#[derive(Debug, Clone)]
pub struct TypedPopulation<P: Protocol> {
    protocol: P,
    states: Vec<P::State>,
}

impl<P: Protocol> TypedPopulation<P> {
    /// An empty population running `protocol`.
    pub fn new(protocol: P) -> Self {
        TypedPopulation {
            protocol,
            states: Vec::new(),
        }
    }

    /// A population over explicitly provided states — the adversarial
    /// entry point.
    pub fn from_states(protocol: P, states: Vec<P::State>) -> Self {
        TypedPopulation { protocol, states }
    }

    /// The protocol configuration.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The contiguous agent states, read-only.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Mutable access to the agent states for adversarial surgery. Engine
    /// callers must refresh their cached counters afterwards.
    pub fn states_mut(&mut self) -> &mut [P::State] {
        &mut self.states
    }

    /// Replaces the state of agent `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn set_state(&mut self, idx: usize, state: P::State) {
        self.states[idx] = state;
    }
}

impl<P> Population for TypedPopulation<P>
where
    P: Protocol + fmt::Debug + Send + Sync,
{
    fn protocol_name(&self) -> &str {
        self.protocol.name()
    }

    fn samples_per_round(&self) -> u32 {
        self.protocol.samples_per_round()
    }

    fn is_passive(&self) -> bool {
        self.protocol.is_passive()
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        self.protocol.memory_footprint()
    }

    fn len(&self) -> usize {
        self.states.len()
    }

    fn reserve(&mut self, additional: usize) {
        self.states.reserve(additional);
    }

    fn push_agent(&mut self, opinion: Opinion, rng: &mut dyn RngCore) -> Opinion {
        let state = self.protocol.init_state(opinion, rng);
        let output = self.protocol.output(&state);
        self.states.push(state);
        output
    }

    fn corrupt_agent(&mut self, idx: usize, opinion: Opinion, rng: &mut dyn RngCore) {
        self.states[idx] = self.protocol.init_state(opinion, rng);
    }

    fn step_round(
        &mut self,
        sources: &dyn ShardSourceFactory,
        ctx: &RoundContext,
        streams: RoundStreams<'_>,
        sleep: Option<&SleepLane>,
        correct: Opinion,
        outputs: Option<&mut [Opinion]>,
    ) -> FusedCounters {
        let outputs = outputs.expect("byte-addressed populations write round outputs to a slice");
        let n = self.states.len();
        assert_eq!(outputs.len(), n, "one output slot per agent");
        let protocol = &self.protocol;
        shard::run_round(
            (&mut self.states[..], outputs),
            n,
            sources,
            streams,
            |(states, out), range, source, rng| match sleep.map(|lane| lane.masks(range.start)) {
                None => protocol.step_fused(states, source, ctx, rng, correct, out),
                // Sleepy rounds step the slice in 64-agent tiles.
                Some(mut masks) => {
                    let mut counters = FusedCounters::default();
                    for (states, out) in states.chunks_mut(64).zip(out.chunks_mut(64)) {
                        counters += shard::step_tile_keeping(
                            protocol, states, &mut masks, source, ctx, rng, correct, out,
                        );
                    }
                    counters
                }
            },
        )
    }

    fn step_agent(
        &mut self,
        idx: usize,
        obs: &Observation,
        ctx: &RoundContext,
        rng: &mut dyn RngCore,
    ) -> Opinion {
        self.protocol.step(&mut self.states[idx], obs, ctx, rng)
    }

    fn output_of(&self, idx: usize) -> Opinion {
        self.protocol.output(&self.states[idx])
    }

    fn decision_of(&self, idx: usize) -> Opinion {
        self.protocol.decision(&self.states[idx])
    }

    fn count_correct_decisions(&self, correct: Opinion) -> u64 {
        self.states
            .iter()
            .filter(|s| self.protocol.decision(s) == correct)
            .count() as u64
    }

    fn write_outputs(&self, out: &mut [Opinion]) {
        assert_eq!(out.len(), self.states.len(), "one output slot per agent");
        for (slot, state) in out.iter_mut().zip(&self.states) {
            *slot = self.protocol.output(state);
        }
    }

    fn count_output_ones(&self) -> u64 {
        self.states
            .iter()
            .filter(|s| self.protocol.output(s).is_one())
            .count() as u64
    }

    fn resident_bytes(&self) -> usize {
        self.states.capacity() * std::mem::size_of::<P::State>()
    }
}

impl<P> DynPopulation for TypedPopulation<P>
where
    P: Protocol + Clone + fmt::Debug + Send + Sync + 'static,
    P::State: 'static,
{
    fn clone_box(&self) -> Box<dyn DynPopulation> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fet::FetProtocol;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::SmallRng {
        rand::rngs::SmallRng::seed_from_u64(0x90B)
    }

    fn filled(n: usize) -> (TypedPopulation<FetProtocol>, rand::rngs::SmallRng) {
        let mut pop = TypedPopulation::new(FetProtocol::new(8).unwrap());
        let mut r = rng();
        pop.reserve(n);
        for _ in 0..n {
            pop.push_agent(Opinion::Zero, &mut r);
        }
        (pop, r)
    }

    #[test]
    fn push_agent_matches_init_state_stream() {
        let proto = FetProtocol::new(8).unwrap();
        let mut r1 = rng();
        let mut r2 = rng();
        let (pop, _) = {
            let mut pop = TypedPopulation::new(proto);
            for _ in 0..5 {
                pop.push_agent(Opinion::One, &mut r1);
            }
            (pop, ())
        };
        let direct: Vec<_> = (0..5)
            .map(|_| {
                FetProtocol::new(8)
                    .unwrap()
                    .init_state(Opinion::One, &mut r2)
            })
            .collect();
        assert_eq!(pop.states(), &direct[..]);
    }

    #[test]
    fn counters_and_outputs_agree() {
        let (pop, _) = filled(12);
        let mut out = vec![Opinion::One; 12];
        pop.write_outputs(&mut out);
        let ones = out.iter().filter(|o| o.is_one()).count() as u64;
        assert_eq!(pop.count_correct_decisions(Opinion::One), ones);
        assert_eq!(
            pop.count_correct_decisions(Opinion::Zero),
            12 - ones,
            "FET decisions are its outputs"
        );
        for (i, o) in out.iter().enumerate() {
            assert_eq!(pop.output_of(i), *o);
            assert_eq!(pop.decision_of(i), *o);
        }
    }

    #[test]
    fn clone_box_is_independent() {
        let (pop, mut r) = filled(6);
        let boxed: Box<dyn DynPopulation> = pop.clone_box();
        let mut copy = boxed.clone();
        for i in 0..6 {
            copy.step_agent(
                i,
                &Observation::new(16, 16).unwrap(),
                &RoundContext::new(0),
                &mut r,
            );
        }
        // The original is untouched by stepping the clone.
        let mut orig_out = vec![Opinion::Zero; 6];
        pop.write_outputs(&mut orig_out);
        let mut boxed_out = vec![Opinion::Zero; 6];
        boxed.write_outputs(&mut boxed_out);
        assert_eq!(orig_out, boxed_out);
        assert_eq!(copy.len(), 6);
    }

    /// Draws uniform observations from the shard RNG, so any stream
    /// perturbation shows up in states and outputs.
    struct UniformSourceFactory {
        m: u32,
    }

    struct UniformSource {
        m: u32,
    }

    impl crate::protocol::ObservationSource for UniformSource {
        fn next_observation(&mut self, rng: &mut dyn rand::RngCore) -> Observation {
            Observation::new(rng.next_u32() % (self.m + 1), self.m).unwrap()
        }
    }

    impl crate::shard::ShardSourceFactory for UniformSourceFactory {
        fn shard_source(
            &self,
            _range: std::ops::Range<usize>,
        ) -> Box<dyn crate::protocol::ObservationSource + '_> {
            Box::new(UniformSource { m: self.m })
        }
    }

    #[test]
    fn parallel_fused_is_worker_invariant_and_matches_sequential_shards() {
        let ctx = RoundContext::new(0);
        let m = FetProtocol::new(8).unwrap().samples_per_round();
        let factory = UniformSourceFactory { m };
        for n in [0usize, 1, 5, 97] {
            for shards in [1u32, 2, 3, 7, 16] {
                // Reference: process the shards sequentially, each with its
                // plan-derived RNG and a fresh source — the stream the
                // parallel dispatch must reproduce under any worker count.
                let (mut reference, _) = filled(n);
                let plan1 = crate::shard::ShardPlan::new(shards, 1, 0xDEAD, 9);
                let mut ref_out = vec![Opinion::Zero; n];
                let mut ref_counters = crate::protocol::FusedCounters::default();
                for s in 0..shards {
                    let range = plan1.shard_range(n, s);
                    let mut rng = plan1.rng_for_shard(s);
                    let mut source = UniformSource { m };
                    let c = reference.protocol.clone().step_fused(
                        &mut reference.states[range.clone()],
                        &mut source,
                        &ctx,
                        &mut rng,
                        Opinion::One,
                        &mut ref_out[range],
                    );
                    ref_counters += c;
                }
                for workers in [1u32, 2, 5] {
                    let (mut pop, _) = filled(n);
                    let plan = crate::shard::ShardPlan::new(shards, workers, 0xDEAD, 9);
                    let mut out = vec![Opinion::Zero; n];
                    let counters = pop.step_round(
                        &factory,
                        &ctx,
                        RoundStreams::Sharded(&plan),
                        None,
                        Opinion::One,
                        Some(&mut out),
                    );
                    assert_eq!(
                        pop.states(),
                        reference.states(),
                        "n={n} shards={shards} workers={workers}: states diverged"
                    );
                    assert_eq!(out, ref_out, "n={n} shards={shards} workers={workers}");
                    assert_eq!(counters, ref_counters);
                    assert_eq!(
                        counters.ones,
                        out.iter().filter(|o| o.is_one()).count() as u64
                    );
                }
            }
        }
    }
}
