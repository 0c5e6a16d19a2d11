//! Observation sources: every fused observation draw, one abstraction.
//!
//! The fused round kernels ([`Protocol::step_fused`]) never see buffers —
//! they pull each agent's [`Observation`] from an
//! [`ObservationSource`] on demand. This module is where the engine's
//! sources live, one per sampling rule:
//!
//! * [`MeanFieldSource`] — the complete-graph shortcuts
//!   ([`Fidelity::Binomial`] / [`Fidelity::WithoutReplacement`]): an
//!   observation is a pure function of the round-start global 1-count and
//!   the RNG, so the source is just the round's sampler configuration.
//! * [`GraphSource`] — literal index sampling over the round-start
//!   snapshot: agent `i` samples `m` vertices uniformly **with
//!   replacement** and counts 1-opinions. On an explicit [`Neighborhood`]
//!   the draws range over `i`'s adjacency list; on the complete graph
//!   ([`Fidelity::Agent`], [`GraphSourceFactory::complete`]) over every
//!   vertex, self and sources included. The source is *positional*: it
//!   carries a vertex cursor that advances once per draw, so it must be
//!   constructed knowing the first vertex it streams for.
//!
//! Both sources apply observation noise — folded into the law of binomial
//! draws, through [`FaultPlan::corrupt_count`] on hypergeometric and index
//! draws — and both come with a [`ShardSourceFactory`] — the one way a
//! fused round obtains its sources — so every shard gets a private source
//! (the single-threaded round is shard 0 over the whole population):
//! [`MeanFieldSourceFactory`]
//! ignores the shard range (mean-field draws are position-oblivious),
//! [`GraphSourceFactory`] aligns the cursor with the shard's first agent.
//! Either way a source's draws are a pure function of the round
//! configuration and the shard plan — never of worker scheduling — which
//! is what keeps parallel graph and Agent rounds on the
//! `(seed, shard count)` determinism contract.
//!
//! Funneling *all* on-demand draws through this one abstraction is what
//! made the vectorized sampling tier slot in without touching any kernel:
//! [`GraphSource`] speculates eight Lemire index lanes per step through
//! the [`fet_stats::isa`] path kernels (replaying the speculated words
//! through the reference loop on the rare rejection), and
//! [`MeanFieldSource`]'s block path inherits the per-path alias kernels
//! from [`BinomialSampler::try_sample_block`]. Every path consumes the
//! RNG streams identically — the chosen ISA never enters the stream (see
//! docs/DETERMINISM.md).
//!
//! [`BinomialSampler::try_sample_block`]: fet_stats::binomial::BinomialSampler::try_sample_block
//!
//! [`Protocol::step_fused`]: fet_core::protocol::Protocol::step_fused
//! [`Fidelity::Agent`]: crate::engine::Fidelity::Agent
//! [`Fidelity::Binomial`]: crate::engine::Fidelity::Binomial
//! [`Fidelity::WithoutReplacement`]: crate::engine::Fidelity::WithoutReplacement

use crate::fault::FaultPlan;
use crate::neighborhood::Neighborhood;
use fet_core::observation::Observation;
use fet_core::opinion::Opinion;
use fet_core::protocol::ObservationSource;
use fet_core::shard::ShardSourceFactory;
use fet_stats::isa::{self, IsaPath};
use fet_stats::rng::{counter_split, counter_stream_base};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::ops::Range;

/// The round's mean-field sampler: one of the two exact per-agent
/// shortcuts for complete-graph sampling, each carrying the round's
/// observation noise in the one way its law allows.
#[derive(Debug, Clone, Copy)]
pub enum MeanFieldSampler<'a> {
    /// `Binomial(m, p)` — with-replacement sampling. Noise is part of the
    /// law: when every observed bit flips independently with probability
    /// `δ`, an observed bit is a 1 with probability
    /// `p = x_t(1 − δ) + (1 − x_t)δ`, and the engine builds the sampler at
    /// that `p` (at `x_t` itself when `δ = 0`).
    Binomial(&'a fet_stats::binomial::BinomialSampler),
    /// `Hypergeometric(n, ones_t, m)` — without-replacement sampling,
    /// followed by per-observation corruption
    /// ([`FaultPlan::corrupt_count`]) when observation noise is active.
    Hypergeometric(
        &'a fet_stats::hypergeometric::Hypergeometric,
        Option<&'a FaultPlan>,
    ),
}

/// The engine's [`ObservationSource`] for mean-field fused rounds: the
/// fidelity's per-round sampler, noise included, delivered one
/// observation at a time so no buffer ever exists. A binomial observation
/// costs one sampler draw whatever the noise level.
#[derive(Debug)]
pub struct MeanFieldSource<'a> {
    pub(crate) sampler: MeanFieldSampler<'a>,
    pub(crate) m: u32,
}

impl ObservationSource for MeanFieldSource<'_> {
    fn next_observation(&mut self, rng: &mut dyn RngCore) -> Observation {
        let seen = match self.sampler {
            MeanFieldSampler::Binomial(sampler) => sampler.sample(rng) as u32,
            MeanFieldSampler::Hypergeometric(h, noise) => {
                noisy(noise, h.sample(rng) as u32, self.m, rng)
            }
        };
        Observation::new(seen, self.m).expect("corrupt_count preserves the bound")
    }

    /// The word-at-a-time override behind the bit-plane threshold kernel:
    /// hoists the sampler match out of the per-draw loop, so the
    /// `count ≤ 64` draws cost one virtual call total instead of one each.
    /// **Stream-identical** to `count` successive
    /// [`MeanFieldSource::next_observation`] calls by construction — the
    /// same sampler and corruption draws from the same `rng` in the same
    /// order; only the [`Observation`] wrapper and dispatch overhead are
    /// elided.
    fn next_threshold_word(&mut self, rng: &mut dyn RngCore, count: u32, threshold: u32) -> u64 {
        debug_assert!(count as usize <= 64, "a word holds at most 64 draws");
        let mut word = 0u64;
        match self.sampler {
            MeanFieldSampler::Binomial(sampler) => {
                // Fast path: one `fill_bytes` block for all `count` draws
                // (exact-stream — see `AliasTable::try_sample_block`);
                // falls back to per-draw sampling when the round's alias
                // table isn't block-eligible.
                let mut draws = [0usize; 64];
                let draws = &mut draws[..count as usize];
                if sampler.try_sample_block(rng, draws) {
                    for (j, &seen) in draws.iter().enumerate() {
                        word |= u64::from(seen as u32 >= threshold) << j;
                    }
                } else {
                    for j in 0..count {
                        word |= u64::from(sampler.sample(rng) as u32 >= threshold) << j;
                    }
                }
            }
            MeanFieldSampler::Hypergeometric(h, noise) => {
                for j in 0..count {
                    let seen = noisy(noise, h.sample(rng) as u32, self.m, rng);
                    word |= u64::from(seen >= threshold) << j;
                }
            }
        }
        word
    }
}

/// `ones` after the round's observation noise, when there is any.
#[inline]
fn noisy(noise: Option<&FaultPlan>, ones: u32, m: u32, rng: &mut dyn RngCore) -> u32 {
    match noise {
        Some(fault) => fault.corrupt_count(ones, m, rng),
        None => ones,
    }
}

/// The engine's [`ShardSourceFactory`] for mean-field fused rounds:
/// hands every shard a private [`MeanFieldSource`] over the *shared,
/// round-start* sampler configuration. Sharing is read-only (the samplers
/// are built from the round-start 1-count and never mutated), so shards
/// sample the same per-round distribution as the single-threaded fused
/// path while drawing from their own RNG streams. The shard range is
/// ignored: mean-field draws are position-oblivious.
#[derive(Debug)]
pub struct MeanFieldSourceFactory<'a> {
    /// The round's sampler, built from the round-start 1-count.
    pub sampler: MeanFieldSampler<'a>,
    /// Observations per agent.
    pub m: u32,
}

impl ShardSourceFactory for MeanFieldSourceFactory<'_> {
    fn shard_source(&self, _range: Range<usize>) -> Box<dyn ObservationSource + '_> {
        Box::new(MeanFieldSource {
            sampler: self.sampler,
            m: self.m,
        })
    }
}

/// A read-only, vertex-indexed view of the round-start opinions — the
/// one abstraction graph sampling reads through, whatever the engine's
/// storage representation.
///
/// Byte-addressed engines snapshot all `n` opinions into a `Vec<Opinion>`
/// (1 byte/agent); bit-plane engines word-copy the population's packed
/// opinion plane (1 bit/agent) and handle the source prefix
/// arithmetically — source vertices occupy the lowest ids and all hold
/// the round's source output, so the snapshot plane stays a straight
/// word copy of the stepped agents. Both views answer the only question
/// sampling ever asks: *was vertex `v` a 1 at round start?*
#[derive(Debug, Clone, Copy)]
pub enum SnapshotView<'a> {
    /// One `Opinion` per vertex, vertex-id indexed — the byte-addressed
    /// double buffer.
    Bytes(&'a [Opinion]),
    /// Packed 64 opinions/word. Vertices `0..num_sources` are sources
    /// (all showing `source_output` this round); stepped agents follow,
    /// bit `v - num_sources` of the plane.
    Bits {
        /// The opinion every source vertex shows this round.
        source_output: Opinion,
        /// Number of source vertices (the lowest vertex ids).
        num_sources: u32,
        /// The stepped agents' round-start opinion plane words.
        words: &'a [u64],
    },
}

impl SnapshotView<'_> {
    /// `true` iff vertex `vertex` held opinion 1 at round start.
    #[inline]
    pub fn is_one(&self, vertex: u32) -> bool {
        match *self {
            SnapshotView::Bytes(snapshot) => snapshot[vertex as usize].is_one(),
            SnapshotView::Bits {
                source_output,
                num_sources,
                words,
            } => {
                if vertex < num_sources {
                    source_output.is_one()
                } else {
                    let idx = (vertex - num_sources) as usize;
                    ((words[idx / 64] >> (idx % 64)) & 1) == 1
                }
            }
        }
    }
}

impl<'a> From<&'a [Opinion]> for SnapshotView<'a> {
    fn from(snapshot: &'a [Opinion]) -> Self {
        SnapshotView::Bytes(snapshot)
    }
}

impl<'a> From<&'a Vec<Opinion>> for SnapshotView<'a> {
    fn from(snapshot: &'a Vec<Opinion>) -> Self {
        SnapshotView::Bytes(snapshot)
    }
}

impl<'a, const N: usize> From<&'a [Opinion; N]> for SnapshotView<'a> {
    fn from(snapshot: &'a [Opinion; N]) -> Self {
        SnapshotView::Bytes(snapshot)
    }
}

/// The engine's [`ObservationSource`] for literal index sampling: for
/// each successive agent, samples `m` vertices uniformly **with
/// replacement** — from the agent's adjacency list on an explicit
/// [`Neighborhood`], from all `n` vertices on the complete graph — counts
/// 1-opinions in the round-start snapshot, and applies per-observation
/// fault corruption, delivered one observation at a time so no
/// observation buffer ever exists.
///
/// The source is positional: construction fixes the first vertex it
/// streams for, and the cursor advances once per draw. The snapshot it
/// reads is the engine's *round-start opinion double buffer* (all `n`
/// vertices, sources included), so the fused round preserves the
/// synchronous semantics — every observation reads round-`t` outputs even
/// though the kernel writes round-`t+1` outputs in place.
///
/// # The owned index stream
///
/// The kernel hands sources a `&mut dyn RngCore`, so every word drawn
/// from it costs a truly opaque virtual call — at `m = 2ℓ` index draws
/// per agent, that call (and the instruction-level parallelism it
/// forfeits inside the sampling loop) would dominate an observation.
/// A graph source therefore owns a **concrete** [`SmallRng`] for its
/// index draws, seeded by a counter-based split of the engine's dedicated
/// `graph-index` stream and the source's first agent index
/// ([`fet_stats::rng::counter_split`]): the generator state lives in
/// registers across the whole sampling loop, and each 64-bit word yields
/// **two** index lanes.
/// The kernel's `rng` is still what fault corruption draws from, so the
/// shard-keyed update stream is untouched. Determinism is preserved
/// exactly: the index stream is a pure function of
/// `(engine seed, round, first agent)` — never of worker scheduling.
#[derive(Debug)]
pub struct GraphSource<'a> {
    /// The adjacency structure; `None` is the complete graph.
    neighborhood: Option<&'a dyn Neighborhood>,
    /// Vertex count — the complete graph's draw range.
    population: u32,
    snapshot: SnapshotView<'a>,
    fault: Option<&'a FaultPlan>,
    m: u32,
    /// The vertex the next draw streams for.
    vertex: u32,
    /// The owned index-draw generator (see the type-level docs).
    index_rng: SmallRng,
}

impl<'a> GraphSource<'a> {
    /// A source streaming observations for vertices `first_vertex..`, in
    /// order, drawing neighbor indices from the stream seeded by
    /// `index_seed`. `snapshot` holds the round-start output of **every**
    /// vertex (sources included, vertex-id indexed); `fault` should be
    /// `Some` only when observation noise is active.
    ///
    /// Every streamed vertex must have at least one neighbor (the PULL
    /// model cannot deliver an observation to an isolated vertex —
    /// engines reject such structures up front via
    /// [`crate::neighborhood::ensure_observable`]); drawing for an
    /// isolated vertex panics.
    pub fn new(
        neighborhood: &'a dyn Neighborhood,
        snapshot: impl Into<SnapshotView<'a>>,
        fault: Option<&'a FaultPlan>,
        m: u32,
        first_vertex: u32,
        index_seed: u64,
    ) -> Self {
        GraphSource {
            neighborhood: Some(neighborhood),
            population: neighborhood.population(),
            snapshot: snapshot.into(),
            fault,
            m,
            vertex: first_vertex,
            index_rng: SmallRng::seed_from_u64(index_seed),
        }
    }
}

impl ObservationSource for GraphSource<'_> {
    fn next_observation(&mut self, rng: &mut dyn RngCore) -> Observation {
        let raw_ones = match self.neighborhood {
            Some(neighborhood) => {
                let neighbors = neighborhood.neighbors_of(self.vertex);
                debug_assert!(
                    !neighbors.is_empty(),
                    "vertex {} has no neighbors to observe (see ensure_observable)",
                    self.vertex
                );
                let d = u32::try_from(neighbors.len()).expect("degree < n fits u32");
                if d == 1 {
                    // A degree-1 vertex observes its one neighbor m times:
                    // unanimous by construction, no randomness to draw.
                    u32::from(self.snapshot.is_one(neighbors[0])) * self.m
                } else {
                    sample_neighbor_ones(
                        isa::active_path(),
                        &mut self.index_rng,
                        self.snapshot,
                        neighbors,
                        d,
                        self.m,
                    )
                }
            }
            None => sample_neighbor_ones(
                isa::active_path(),
                &mut self.index_rng,
                self.snapshot,
                EveryVertex,
                self.population,
                self.m,
            ),
        };
        self.vertex += 1;
        let seen = noisy(self.fault, raw_ones, self.m, rng);
        Observation::new(seen, self.m).expect("corrupt_count preserves the bound")
    }
}

/// Maps a draw `k ∈ [0, d)` to the vertex it observes: the two draw
/// ranges of [`GraphSource`]. Each index kernel is instantiated once per
/// implementation, so the adjacency-list instantiation is exactly the
/// neighbor-sampling loop and the complete graph pays no lookup at all.
trait DrawTargets: Copy {
    fn vertex(self, k: u32) -> u32;
}

/// An adjacency list: draw `k` observes `neighbors[k]`.
impl DrawTargets for &[u32] {
    #[inline(always)]
    fn vertex(self, k: u32) -> u32 {
        self[k as usize]
    }
}

/// The complete graph: draw `k` observes vertex `k`.
#[derive(Debug, Clone, Copy)]
struct EveryVertex;

impl DrawTargets for EveryVertex {
    #[inline(always)]
    fn vertex(self, k: u32) -> u32 {
        k
    }
}

/// The scalar loop's lane source: two 32-bit lanes per RNG word, low half
/// first — optionally replaying words the vector path already pulled, so
/// a rejected speculation resumes the *reference* stream mid-word without
/// re-drawing anything.
struct LaneFeed<'r> {
    buffered: [u64; 4],
    buffered_len: usize,
    next_buffered: usize,
    word: u64,
    lanes: u32,
    rng: &'r mut SmallRng,
}

impl<'r> LaneFeed<'r> {
    fn fresh(rng: &'r mut SmallRng) -> Self {
        LaneFeed {
            buffered: [0; 4],
            buffered_len: 0,
            next_buffered: 0,
            word: 0,
            lanes: 0,
            rng,
        }
    }

    fn replaying(words: [u64; 4], rng: &'r mut SmallRng) -> Self {
        LaneFeed {
            buffered: words,
            buffered_len: 4,
            next_buffered: 0,
            word: 0,
            lanes: 0,
            rng,
        }
    }

    #[inline]
    fn next_lane(&mut self) -> u32 {
        if self.lanes == 0 {
            self.word = if self.next_buffered < self.buffered_len {
                let word = self.buffered[self.next_buffered];
                self.next_buffered += 1;
                word
            } else {
                self.rng.next_u64()
            };
            self.lanes = 2;
        }
        let lane = self.word as u32;
        self.word >>= 32;
        self.lanes -= 1;
        lane
    }
}

/// The reference index-draw loop: `count` with-replacement draws mapped
/// into `[0, d)` by Lemire's multiply-with-rejection — a lane is rejected
/// iff the low half of `lane · d` falls below `2³² mod d` (never, when
/// `d` is a power of two; rare otherwise) — counting 1-opinions of the
/// drawn targets in the round-start snapshot.
fn scalar_draws<T: DrawTargets>(
    feed: &mut LaneFeed<'_>,
    snapshot: SnapshotView<'_>,
    targets: T,
    d: u32,
    threshold: u32,
    count: u32,
) -> u32 {
    let mut ones = 0u32;
    for _ in 0..count {
        let idx = loop {
            let lane = feed.next_lane();
            let wide = u64::from(lane) * u64::from(d);
            if (wide as u32) >= threshold {
                break (wide >> 32) as u32;
            }
        };
        ones += u32::from(snapshot.is_one(targets.vertex(idx)));
    }
    ones
}

/// One agent's `m` index draws over `d` targets through the selected ISA
/// path. Word and lane state is per-agent — fresh on entry, leftover
/// lanes discarded on return — exactly as the scalar loop always behaved.
///
/// The vector tiers speculate: eight draws consume exactly four RNG words
/// when no lane is rejected, so a group of eight is computed from four
/// words pulled up front. Any rejection (impossible for power-of-two
/// `d`, probability `≈ 8·(2³² mod d)/2³²` per group otherwise) replays
/// those same four words through the reference loop, which then finishes
/// the agent scalar — the consumed stream is bit-identical to
/// [`IsaPath::Scalar`] in every case.
fn sample_neighbor_ones<T: DrawTargets>(
    path: IsaPath,
    rng: &mut SmallRng,
    snapshot: SnapshotView<'_>,
    targets: T,
    d: u32,
    m: u32,
) -> u32 {
    let threshold = d.wrapping_neg() % d; // 2³² mod d
    match path {
        IsaPath::Scalar => scalar_draws(
            &mut LaneFeed::fresh(rng),
            snapshot,
            targets,
            d,
            threshold,
            m,
        ),
        IsaPath::Swar => vector_draws(isa::lemire8_swar, rng, snapshot, targets, d, threshold, m),
        IsaPath::Avx2 => {
            #[cfg(all(target_arch = "x86_64", not(fet_no_simd)))]
            {
                if isa::avx2_available() {
                    // SAFETY: AVX2 availability checked at runtime just above.
                    return unsafe { vector_draws_avx2(rng, snapshot, targets, d, threshold, m) };
                }
            }
            vector_draws(isa::lemire8_swar, rng, snapshot, targets, d, threshold, m)
        }
    }
}

/// The speculative vector loop, generic over the 8-lane Lemire kernel so
/// each ISA tier instantiates it with its kernel *inlined* — the AVX2
/// feature boundary then sits once per agent ([`vector_draws_avx2`]), not
/// once per 8 draws, which is the difference between winning and losing
/// to the scalar loop on short degree draws.
#[inline(always)]
fn vector_draws<T: DrawTargets>(
    lemire8: impl Fn(&[u64; 4], u32, u32, &mut [u32; 8]) -> u8,
    rng: &mut SmallRng,
    snapshot: SnapshotView<'_>,
    targets: T,
    d: u32,
    threshold: u32,
    m: u32,
) -> u32 {
    let mut ones = 0u32;
    let mut remaining = m;
    let mut idx8 = [0u32; 8];
    while remaining >= 8 {
        let words = [
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ];
        let rejections = lemire8(&words, d, threshold, &mut idx8);
        if rejections == 0 {
            for &idx in &idx8 {
                ones += u32::from(snapshot.is_one(targets.vertex(idx)));
            }
            remaining -= 8;
        } else {
            let mut feed = LaneFeed::replaying(words, rng);
            return ones + scalar_draws(&mut feed, snapshot, targets, d, threshold, remaining);
        }
    }
    ones + scalar_draws(
        &mut LaneFeed::fresh(rng),
        snapshot,
        targets,
        d,
        threshold,
        remaining,
    )
}

/// [`vector_draws`] compiled as one AVX2 region per agent, with the raw
/// AVX2 kernel inlined into it (closures inherit the enclosing function's
/// target features).
///
/// # Safety
///
/// The CPU must support AVX2 (check [`isa::avx2_available`]).
#[cfg(all(target_arch = "x86_64", not(fet_no_simd)))]
#[target_feature(enable = "avx2")]
unsafe fn vector_draws_avx2<T: DrawTargets>(
    rng: &mut SmallRng,
    snapshot: SnapshotView<'_>,
    targets: T,
    d: u32,
    threshold: u32,
    m: u32,
) -> u32 {
    vector_draws(
        |words, d, threshold, out| unsafe { isa::lemire8_avx2_unchecked(words, d, threshold, out) },
        rng,
        snapshot,
        targets,
        d,
        threshold,
        m,
    )
}

/// The engine's [`ShardSourceFactory`] for index-sampling rounds — graph
/// runs ([`GraphSourceFactory::new`]) and the literal Agent fidelity on
/// the complete graph ([`GraphSourceFactory::complete`]): hands every
/// shard a [`GraphSource`] whose cursor starts at the shard's first agent
/// and whose index stream is seeded by
/// [`counter_split`]`(round_base, range.start)`. The adjacency structure
/// and the round-start snapshot
/// are shared read-only across workers; each shard's draws depend only on
/// its range and the round base, so these shard streams are
/// worker-invariant exactly like the mean-field ones. The single-threaded
/// fused round uses the same factory with the full range `0..n`.
#[derive(Debug)]
pub struct GraphSourceFactory<'a> {
    /// The adjacency structure; `None` is the complete graph.
    neighborhood: Option<&'a dyn Neighborhood>,
    /// Vertex count — the complete graph's draw range.
    population: u32,
    snapshot: SnapshotView<'a>,
    fault: Option<&'a FaultPlan>,
    m: u32,
    /// Vertex id of agent 0 of the stepped slice (= the number of source
    /// agents, which occupy the lowest vertex ids).
    vertex_base: u32,
    /// The round's index-stream base (see [`GraphSourceFactory::new`]).
    round_base: u64,
}

impl<'a> GraphSourceFactory<'a> {
    /// A factory for one round on `neighborhood`. `vertex_base` is the
    /// vertex id of the first stepped (non-source) agent; shard ranges are
    /// offsets on top of it. `index_stream` is the engine's run-level
    /// `graph-index` seed lane and `round` the global round index:
    /// together they form the round's counter-derived index-stream base,
    /// from which each shard's seed splits purely by its range start.
    pub fn new(
        neighborhood: &'a dyn Neighborhood,
        snapshot: impl Into<SnapshotView<'a>>,
        fault: Option<&'a FaultPlan>,
        m: u32,
        vertex_base: u32,
        index_stream: u64,
        round: u64,
    ) -> Self {
        let mut factory = GraphSourceFactory::complete(
            neighborhood.population(),
            snapshot,
            fault,
            m,
            vertex_base,
            index_stream,
            round,
        );
        factory.neighborhood = Some(neighborhood);
        factory
    }

    /// A factory for one round on the complete graph of `n` vertices —
    /// the literal [`Fidelity::Agent`](crate::engine::Fidelity::Agent)
    /// model: every agent draws `m` vertices uniformly with replacement
    /// from all `n`, itself and the sources included. Arguments as in
    /// [`GraphSourceFactory::new`].
    pub fn complete(
        n: u32,
        snapshot: impl Into<SnapshotView<'a>>,
        fault: Option<&'a FaultPlan>,
        m: u32,
        vertex_base: u32,
        index_stream: u64,
        round: u64,
    ) -> Self {
        GraphSourceFactory {
            neighborhood: None,
            population: n,
            snapshot: snapshot.into(),
            fault,
            m,
            vertex_base,
            round_base: counter_stream_base(index_stream, round),
        }
    }

    /// Builds the shard source for `range` without boxing
    /// ([`ShardSourceFactory::shard_source`] boxes the same source).
    pub fn source_for(&self, range: Range<usize>) -> GraphSource<'_> {
        GraphSource {
            neighborhood: self.neighborhood,
            population: self.population,
            snapshot: self.snapshot,
            fault: self.fault,
            m: self.m,
            vertex: self.vertex_base
                + u32::try_from(range.start).expect("n is validated to fit u32"),
            index_rng: SmallRng::seed_from_u64(counter_split(self.round_base, range.start as u64)),
        }
    }
}

impl ShardSourceFactory for GraphSourceFactory<'_> {
    fn shard_source(&self, range: Range<usize>) -> Box<dyn ObservationSource + '_> {
        Box::new(self.source_for(range))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A two-vertex graph where vertex 1 sees only vertex 0.
    #[derive(Debug, Clone)]
    struct Funnel;

    impl Neighborhood for Funnel {
        fn population(&self) -> u32 {
            2
        }
        fn neighbors_of(&self, vertex: u32) -> &[u32] {
            match vertex {
                0 => &[1],
                _ => &[0],
            }
        }
        fn clone_box(&self) -> Box<dyn Neighborhood> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn graph_source_counts_snapshot_ones_along_the_cursor() {
        let snapshot = [Opinion::One, Opinion::Zero];
        let mut rng = SmallRng::seed_from_u64(1);
        let mut source = GraphSource::new(&Funnel, &snapshot, None, 3, 0, 11);
        // Vertex 0 sees only vertex 1 (a zero), vertex 1 only vertex 0 (a
        // one): unanimous counts either way, independent of the RNG.
        assert_eq!(source.next_observation(&mut rng).ones(), 0);
        assert_eq!(source.next_observation(&mut rng).ones(), 3);
    }

    #[test]
    fn graph_factory_aligns_the_cursor_with_the_shard_range() {
        let snapshot = [Opinion::One, Opinion::Zero];
        let factory = GraphSourceFactory::new(&Funnel, &snapshot, None, 2, 0, 9, 3);
        let mut rng = SmallRng::seed_from_u64(2);
        // A shard starting at agent 1 streams vertex 1 first.
        let mut source = factory.shard_source(1..2);
        assert_eq!(source.next_observation(&mut rng).ones(), 2);
    }

    #[test]
    fn bit_view_reads_source_prefix_and_packed_plane() {
        let words = [0b101u64];
        let view = SnapshotView::Bits {
            source_output: Opinion::One,
            num_sources: 2,
            words: &words,
        };
        // Sources answer arithmetically…
        assert!(view.is_one(0));
        assert!(view.is_one(1));
        // …stepped agents from the packed plane, offset by the prefix.
        assert!(view.is_one(2));
        assert!(!view.is_one(3));
        assert!(view.is_one(4));
    }

    #[test]
    fn graph_source_reads_identically_through_either_view() {
        // Vertex 1's only neighbor is vertex 0 — a source in the bits
        // view, a plain snapshot slot in the bytes view.
        let snapshot = [Opinion::One, Opinion::Zero];
        let bits = SnapshotView::Bits {
            source_output: Opinion::One,
            num_sources: 1,
            words: &[0b0],
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let mut by_bytes = GraphSource::new(&Funnel, &snapshot, None, 3, 1, 11);
        let mut by_bits = GraphSource::new(&Funnel, bits, None, 3, 1, 11);
        assert_eq!(
            by_bytes.next_observation(&mut rng).ones(),
            by_bits.next_observation(&mut rng).ones(),
        );
    }

    /// A complete graph on `n` vertices: every vertex has degree `n − 1`.
    #[derive(Debug, Clone)]
    struct Complete(Vec<Vec<u32>>);

    impl Complete {
        fn new(n: u32) -> Self {
            Complete(
                (0..n)
                    .map(|v| (0..n).filter(|&u| u != v).collect())
                    .collect(),
            )
        }
    }

    impl Neighborhood for Complete {
        fn population(&self) -> u32 {
            self.0.len() as u32
        }
        fn neighbors_of(&self, vertex: u32) -> &[u32] {
            &self.0[vertex as usize]
        }
        fn clone_box(&self) -> Box<dyn Neighborhood> {
            Box::new(self.clone())
        }
    }

    /// Every ISA path draws the same indices from the same words, leaves
    /// the owned generator in the same state, and counts the same ones —
    /// on adjacency lists and on the complete graph, across
    /// rejection-prone (d = 3, 5, 7) and rejection-free (d = 4, 8) draw
    /// ranges, and across draw counts that exercise the vector groups, the
    /// rejection replay, and the scalar tail. The complete graph's draws
    /// are also exactly those of the identity adjacency list `0..n`.
    #[test]
    fn neighbor_sampling_paths_are_stream_identical() {
        /// The count, and the next word of the generator afterwards.
        fn run(seed: u64, draw: impl Fn(&mut SmallRng) -> u32) -> (u32, u64) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let ones = draw(&mut rng);
            (ones, rng.next_u64())
        }
        for d in [3u32, 4, 7] {
            let graph = Complete::new(d + 1);
            let neighbors = graph.neighbors_of(0);
            let identity: Vec<u32> = (0..=d).collect();
            let snapshot: Vec<Opinion> = (0..=d)
                .map(|v| {
                    if v % 2 == 0 {
                        Opinion::One
                    } else {
                        Opinion::Zero
                    }
                })
                .collect();
            let view = SnapshotView::Bytes(&snapshot);
            for m in [1u32, 7, 8, 9, 16, 21, 64] {
                let seed = 0xFEED ^ (u64::from(d) << 8) ^ u64::from(m);
                let csr = |path| {
                    run(seed, |rng| {
                        sample_neighbor_ones(path, rng, view, neighbors, d, m)
                    })
                };
                let complete = |path| {
                    run(seed, |rng| {
                        sample_neighbor_ones(path, rng, view, EveryVertex, d + 1, m)
                    })
                };
                let identity_list = run(seed, |rng| {
                    sample_neighbor_ones(IsaPath::Scalar, rng, view, &identity[..], d + 1, m)
                });
                assert_eq!(
                    complete(IsaPath::Scalar),
                    identity_list,
                    "n={} m={m}: the complete graph must draw as the identity list",
                    d + 1
                );
                for path in IsaPath::available() {
                    assert_eq!(
                        csr(path),
                        csr(IsaPath::Scalar),
                        "d={d} m={m} {path:?}: count or word consumption diverged"
                    );
                    assert_eq!(
                        complete(path),
                        complete(IsaPath::Scalar),
                        "complete n={} m={m} {path:?}: count or word consumption diverged",
                        d + 1
                    );
                }
            }
        }
    }

    #[test]
    fn complete_source_reads_every_vertex_through_either_view() {
        // Unanimous snapshots give unanimous counts whatever is drawn; the
        // bits view answers the source prefix arithmetically.
        let ones = [Opinion::One; 70];
        let bits = SnapshotView::Bits {
            source_output: Opinion::One,
            num_sources: 3,
            words: &[u64::MAX, 0b111],
        };
        let mut rng = SmallRng::seed_from_u64(4);
        for view in [SnapshotView::Bytes(&ones), bits] {
            let factory = GraphSourceFactory::complete(70, view, None, 9, 3, 5, 1);
            let mut source = factory.shard_source(10..20);
            for _ in 0..10 {
                assert_eq!(source.next_observation(&mut rng).ones(), 9);
            }
        }
        let zeros = [Opinion::Zero; 70];
        let factory = GraphSourceFactory::complete(70, &zeros, None, 9, 3, 5, 1);
        let mut source = factory.source_for(0..70);
        assert_eq!(source.next_observation(&mut rng).ones(), 0);
    }

    #[test]
    fn index_streams_are_pure_in_round_and_range() {
        // Same (stream, round, range) ⇒ same draws; different rounds or
        // range starts ⇒ different streams.
        let a = GraphSourceFactory::new(&Funnel, &[Opinion::One, Opinion::Zero], None, 2, 0, 9, 3);
        let b = GraphSourceFactory::new(&Funnel, &[Opinion::One, Opinion::Zero], None, 2, 0, 9, 3);
        let c = GraphSourceFactory::new(&Funnel, &[Opinion::One, Opinion::Zero], None, 2, 0, 9, 4);
        assert_eq!(a.round_base, b.round_base);
        assert_ne!(a.round_base, c.round_base);
        assert_ne!(
            counter_split(a.round_base, 0),
            counter_split(a.round_base, 1)
        );
    }
}
