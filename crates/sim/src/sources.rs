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
//! * [`GraphSource`] — observation over the round-start snapshot: agent
//!   `i` observes `m` vertices drawn uniformly **with replacement** and
//!   counts 1-opinions. On the complete graph ([`Fidelity::Agent`],
//!   [`GraphSourceFactory::complete`]) it draws the `m` vertices from all
//!   `n`, self and sources included. On an explicit [`Neighborhood`] the
//!   draws range over `i`'s adjacency list, and a vertex of degree
//!   `d ≤ m` takes the count path instead: it counts its `k` 1-neighbors
//!   (`d` reads, no more than it would draw) and draws its count from
//!   `Binomial(m, k/d)`, which is exactly the law of `m` with-replacement
//!   draws over its neighbors. The source is *positional*: it carries a
//!   vertex cursor that advances once per observation, so it must be
//!   constructed knowing the first vertex it streams for.
//!
//! Both sources apply observation noise — folded into the law of
//! mean-field binomial draws, through [`FaultPlan::corrupt_count`] on
//! hypergeometric and graph observations — and both come with a
//! [`ShardSourceFactory`] — the one way a fused round obtains its
//! sources — so every shard gets a private source (the single-threaded
//! round is shard 0 over the whole population): [`MeanFieldSourceFactory`]
//! ignores the shard range (mean-field draws are position-oblivious),
//! [`GraphSourceFactory`] aligns the cursor with the shard's first agent.
//! Either way a source's draws are a pure function of the round
//! configuration and the shard plan — never of worker scheduling — which
//! is what keeps parallel graph and Agent rounds on the
//! `(seed, shard count)` determinism contract.
//!
//! Funneling *all* on-demand draws through this one abstraction is what
//! made the vectorized sampling tier slot in without touching any kernel:
//! [`GraphSource`]'s index draws speculate eight Lemire lanes per step
//! through the [`fet_stats::isa`] path kernels (replaying the speculated
//! words through the reference loop on the rare rejection), its count path
//! draws one scalar alias sample per vertex on every path, and
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
use fet_stats::binomial::{AliasTable, BinomialSampler};
use fet_stats::error::{check_probability, StatsError};
use fet_stats::isa::{self, IsaPath};
use fet_stats::rng::{counter_split, counter_stream_base};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// The unanimity probability `u` at and above which a binomial round
/// hands out unanimous runs instead of drawing every agent's count (see
/// [`BinomialRound`]).
///
/// Break-even, measured: one FET round at `n = 10⁵`, `ℓ = 47`, built with
/// the rule forced on and forced off, at `u` from 0.05 to 0.99 (2-vCPU
/// x86-64 host, typed and bit-plane storage), costs the same both ways
/// near `u = 0.5` (35–42 ns/agent). Below it the run and conditioned draws
/// cost more than the per-agent draws they replace (1.1–1.5× at
/// `u ≤ 0.3`); at `u = 0.9` the runs cost 0.3–0.6× (typed 8–10 against
/// 18–27 ns/agent). The threshold keeps a wide margin above the break-even,
/// so no round where the rule could lose takes it, and only rounds at or
/// next to consensus re-key (docs/DETERMINISM.md).
pub const UNANIMOUS_RUN_THRESHOLD: f64 = 0.9;

/// One round's `Binomial(m, p′)` observation law, in the form the
/// mean-field source draws it.
///
/// Let `u = max((1 − p′)^m, p′^m)` be the probability that an agent's `m`
/// observed bits are unanimous. Below [`UNANIMOUS_RUN_THRESHOLD`] every
/// observation is one draw from the `Binomial(m, p′)` sampler. At or above
/// it the agents come in runs: a geometric number of agents, with
/// `P(run ≥ k) = u^k`, see the likelier unanimous count (0 when `p′ ≤ ½`,
/// `m` above), and the agent after the run draws its count from
/// `Binomial(m, p′)` conditioned on not being that one. Each agent then
/// still sees an independent `Binomial(m, p′)` count, while a run costs
/// one draw, however long it is, and its agents cost none. A degenerate
/// law (`p′ ∈ {0, 1}`) is one run that never ends and draws nothing,
/// exactly as its sampler always did.
///
/// The rule is a fixed function of `(m, p′)`, so it never depends on
/// storage, shard count or ISA path.
#[derive(Debug, Clone)]
pub struct BinomialRound {
    draw: BinomialDraw,
}

#[derive(Debug, Clone)]
enum BinomialDraw {
    /// `u` below the threshold: one sampler draw per agent.
    EachAgent(BinomialSampler),
    /// `u` at or above it: unanimous runs.
    Runs(UnanimousRuns),
}

/// The near-consensus form of a [`BinomialRound`].
#[derive(Debug, Clone)]
struct UnanimousRuns {
    /// The count every run repeats: 0 when `p′ ≤ ½`, `m` above.
    count: u32,
    /// `ln u`; exactly 0 for a degenerate law, whose one run never ends.
    ln_u: f64,
    /// The smallest count of the conditioned law.
    first: u32,
    /// The conditioned law over the counts `first..first + m`; `None`
    /// when it is a single count (`m = 1`) or never drawn (a degenerate
    /// law).
    rest: Option<AliasTable>,
}

impl BinomialRound {
    /// The law `Binomial(m, p)` of one round.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] when `p ∉ [0, 1]`.
    pub fn new(m: u32, p: f64) -> Result<Self, StatsError> {
        check_probability("p", p)?;
        // u through its logarithm, so a tiny p′ does not round u up to 1.
        let (count, ln_u) = if p <= 0.5 {
            (0, f64::from(m) * (-p).ln_1p())
        } else {
            (m, f64::from(m) * p.ln())
        };
        let draw = if ln_u < UNANIMOUS_RUN_THRESHOLD.ln() {
            BinomialDraw::EachAgent(BinomialSampler::new(u64::from(m), p)?)
        } else {
            let first = if count == 0 { 1 } else { 0 };
            let rest = (ln_u < 0.0 && m > 1).then(|| conditioned_table(m, p, count));
            BinomialDraw::Runs(UnanimousRuns {
                count,
                ln_u,
                first,
                rest,
            })
        };
        Ok(BinomialRound { draw })
    }

    /// `true` when this round hands out unanimous runs (`u` at or above
    /// [`UNANIMOUS_RUN_THRESHOLD`]).
    pub fn draws_runs(&self) -> bool {
        matches!(self.draw, BinomialDraw::Runs(_))
    }
}

/// `Binomial(m, p)` conditioned on not being the unanimous `count`, as an
/// alias table over the other `m` counts in ascending order. The weights
/// run outward from the count next to `count` by the pmf's ratio
/// recurrence, relative to that count's mass, so they neither overflow nor
/// lose the whole law to underflow however small `min(p, 1 − p)` is: in
/// the run regime every step away from `count` shrinks the mass.
fn conditioned_table(m: u32, p: f64, count: u32) -> AliasTable {
    // Steps away from `count`: weight of distance k + 1 from weight of k.
    let odds = if count == 0 {
        p / (1.0 - p)
    } else {
        (1.0 - p) / p
    };
    let mut weights = Vec::with_capacity(m as usize);
    let mut weight = 1.0;
    for k in 1..=m {
        weights.push(weight);
        weight *= f64::from(m - k) / f64::from(k + 1) * odds;
    }
    if count == m {
        weights.reverse();
    }
    AliasTable::new(&weights).expect("the count next to the unanimous one has weight 1")
}

impl UnanimousRuns {
    /// The length of the next run: geometric with `P(run ≥ k) = u^k`, from
    /// one 53-bit uniform on `(0, 1]`. Kept out of line, like
    /// [`FaultPlan::corrupt_count`]'s skip loop: it runs once per run, not
    /// once per agent.
    #[inline(never)]
    fn run_length(&self, rng: &mut dyn RngCore) -> u64 {
        if self.ln_u == 0.0 {
            return u64::MAX;
        }
        let uniform = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
        // Saturates at u64::MAX for runs past any population.
        (uniform.ln() / self.ln_u) as u64
    }

    /// The count of the agent that ends a run.
    fn rest(&self, rng: &mut dyn RngCore) -> u32 {
        match &self.rest {
            Some(table) => self.first + table.sample(rng) as u32,
            None => self.first,
        }
    }
}

/// The round's mean-field sampler: one of the two exact per-agent
/// shortcuts for complete-graph sampling, each carrying the round's
/// observation noise in the one way its law allows.
#[derive(Debug, Clone, Copy)]
pub enum MeanFieldSampler<'a> {
    /// `Binomial(m, p)` — with-replacement sampling. Noise is part of the
    /// law: when every observed bit flips independently with probability
    /// `δ`, an observed bit is a 1 with probability
    /// `p = x_t(1 − δ) + (1 − x_t)δ`, and the engine builds the round's
    /// law at that `p` (at `x_t` itself when `δ = 0`).
    Binomial(&'a BinomialRound),
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
/// observation at a time so no buffer ever exists. Whatever the noise
/// level, a binomial observation costs one sampler draw, except in
/// near-consensus rounds, where an agent inside a unanimous run costs
/// none and [`ObservationSource::repeats`] reports the rest of the run
/// (see [`BinomialRound`]).
#[derive(Debug)]
pub struct MeanFieldSource<'a> {
    pub(crate) sampler: MeanFieldSampler<'a>,
    pub(crate) m: u32,
    /// In a run round: how many more agents see the run's count before
    /// the next conditioned draw; `None` when the next agent starts a new
    /// run.
    run: Option<u64>,
}

impl<'a> MeanFieldSource<'a> {
    /// A source drawing `m`-observation counts from `sampler`.
    pub(crate) fn new(sampler: MeanFieldSampler<'a>, m: u32) -> Self {
        MeanFieldSource {
            sampler,
            m,
            run: None,
        }
    }

    /// The next agent's count in a run round.
    #[inline]
    fn next_in_runs(&mut self, runs: &UnanimousRuns, rng: &mut dyn RngCore) -> u32 {
        let left = match self.run.take() {
            Some(left) => left,
            None => runs.run_length(rng),
        };
        if left > 0 {
            self.run = Some(left - 1);
            runs.count
        } else {
            runs.rest(rng)
        }
    }
}

impl ObservationSource for MeanFieldSource<'_> {
    fn next_observation(&mut self, rng: &mut dyn RngCore) -> Observation {
        let seen = match self.sampler {
            MeanFieldSampler::Binomial(round) => match &round.draw {
                BinomialDraw::EachAgent(sampler) => sampler.sample(rng) as u32,
                BinomialDraw::Runs(runs) => self.next_in_runs(runs, rng),
            },
            MeanFieldSampler::Hypergeometric(h, noise) => {
                noisy(noise, h.sample(rng) as u32, self.m, rng)
            }
        };
        Observation::new(seen, self.m).expect("corrupt_count preserves the bound")
    }

    /// The word-at-a-time override behind the bit-plane threshold kernel:
    /// hoists the sampler match out of the per-draw loop, so the
    /// `count ≤ 64` draws cost one virtual call total instead of one each,
    /// and sets a run's bits in one mask. **Stream-identical** to `count`
    /// successive [`MeanFieldSource::next_observation`] calls by
    /// construction — the same run, sampler and corruption draws from the
    /// same `rng` in the same order; only the [`Observation`] wrapper and
    /// dispatch overhead are elided.
    fn next_threshold_word(&mut self, rng: &mut dyn RngCore, count: u32, threshold: u32) -> u64 {
        debug_assert!(count as usize <= 64, "a word holds at most 64 draws");
        let mut word = 0u64;
        match self.sampler {
            MeanFieldSampler::Binomial(round) => match &round.draw {
                BinomialDraw::EachAgent(sampler) => {
                    // Fast path: one `fill_bytes` block for all `count`
                    // draws (exact-stream — see
                    // `AliasTable::try_sample_block`); falls back to
                    // per-draw sampling when the round's alias table isn't
                    // block-eligible.
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
                BinomialDraw::Runs(runs) => {
                    // One agent's count, then the rest of its run inside
                    // the word, set with one mask.
                    let mut j = 0u32;
                    while j < count {
                        let bit = u64::from(self.next_in_runs(runs, rng) >= threshold);
                        let span = 1 + self.repeats((count - j - 1) as usize) as u32;
                        word |= bit * ((u64::MAX >> (64 - span)) << j);
                        j += span;
                    }
                }
            },
            MeanFieldSampler::Hypergeometric(h, noise) => {
                for j in 0..count {
                    let seen = noisy(noise, h.sample(rng) as u32, self.m, rng);
                    word |= u64::from(seen >= threshold) << j;
                }
            }
        }
        word
    }

    /// The rest of the current unanimous run, up to `max` agents. Only a
    /// run round has runs; its run count is still `Some` exactly when the
    /// last observation was the run's unanimous count.
    fn repeats(&mut self, max: usize) -> usize {
        match &mut self.run {
            Some(left) => {
                let repeats = (*left).min(max as u64);
                *left -= repeats;
                repeats as usize
            }
            None => 0,
        }
    }

    /// In a run round, the next `agents` agents when the current run
    /// covers them all. A run that has not started yet draws its length
    /// here, where the next agent's [`MeanFieldSource::next_observation`]
    /// would draw it, and keeps it when the run ends short of the tile.
    /// Every other round declines and draws nothing.
    fn unanimous_run(&mut self, rng: &mut dyn RngCore, agents: usize) -> Option<Observation> {
        let MeanFieldSampler::Binomial(round) = self.sampler else {
            return None;
        };
        let BinomialDraw::Runs(runs) = &round.draw else {
            return None;
        };
        let left = *self.run.get_or_insert_with(|| runs.run_length(rng));
        self.run = Some(left.checked_sub(agents as u64)?);
        Some(Observation::new(runs.count, self.m).expect("a unanimous count is in range"))
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
        Box::new(MeanFieldSource::new(self.sampler, self.m))
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

    /// How many of `vertices` held opinion 1 at round start.
    #[inline]
    fn count_ones(&self, vertices: &[u32]) -> u32 {
        vertices.iter().map(|&v| u32::from(self.is_one(v))).sum()
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

/// The count path's samplers for one observation size `m`, shared by every
/// graph source in the process, like `fet_core::fet`'s split tables. Slot
/// `d` holds `Binomial(m, k/d)` for `k = 0..=d`. It is built the first time
/// any source meets a vertex of degree `d ≤ m`, and kept for the life of
/// the process. `k ∈ {0, d}` are degenerate and draw nothing; the rest are
/// alias tables of `m + 1` entries: 31 tables, about 80 KB, at
/// `(m, d) = (94, 32)`.
struct CountTables {
    /// Indexed by degree `0..=m`. Slot 0 is never built: no round reaches
    /// an isolated vertex ([`crate::neighborhood::ensure_observable`]).
    by_degree: Box<[OnceLock<Box<[BinomialSampler]>>]>,
}

impl fmt::Debug for CountTables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The samplers are derived data; printing their alias tables would
        // drown every source's debug dump.
        f.debug_struct("CountTables")
            .field("m", &(self.by_degree.len() - 1))
            .finish_non_exhaustive()
    }
}

impl CountTables {
    /// The process-wide tables for `m` observations per agent: one lock of
    /// the cache, taken when a graph factory or source is built. Sources
    /// then read their slots without locking.
    fn shared(m: u32) -> &'static CountTables {
        static TABLES: OnceLock<Mutex<HashMap<u32, &'static CountTables>>> = OnceLock::new();
        let tables = TABLES.get_or_init(|| Mutex::new(HashMap::new()));
        let mut guard = tables.lock().expect("count-table cache poisoned");
        guard.entry(m).or_insert_with(|| {
            let by_degree = (0..=m).map(|_| OnceLock::new()).collect();
            Box::leak(Box::new(CountTables { by_degree }))
        })
    }

    /// `Binomial(m, k/d)` for `k = 0..=d`, where `1 ≤ d ≤ m`.
    #[inline]
    fn samplers(&self, d: u32) -> &[BinomialSampler] {
        self.by_degree[d as usize].get_or_init(|| {
            let m = (self.by_degree.len() - 1) as u64;
            (0..=d)
                .map(|k| {
                    BinomialSampler::new(m, f64::from(k) / f64::from(d))
                        .expect("a vertex with neighbors has k/d in [0, 1]")
                })
                .collect()
        })
    }
}

/// What a [`GraphSource`] observes.
#[derive(Debug, Clone, Copy)]
enum Targets<'a> {
    /// An explicit adjacency structure, with the count path's samplers for
    /// the round's `m`.
    Graph(&'a dyn Neighborhood, &'static CountTables),
    /// The complete graph on this many vertices.
    Complete(u32),
}

/// The engine's [`ObservationSource`] for graph and literal Agent rounds:
/// for each successive agent, the number of 1-opinions among `m` vertices
/// sampled uniformly **with replacement** from the round-start snapshot —
/// from the agent's adjacency list on an explicit [`Neighborhood`], from
/// all `n` vertices on the complete graph — after per-observation fault
/// corruption, delivered one observation at a time so no observation
/// buffer ever exists.
///
/// # Counting or drawing
///
/// A vertex of degree `d ≤ m` on an explicit [`Neighborhood`] counts its
/// `k` round-start 1-neighbors (`d` reads) and draws its count from
/// `Binomial(m, k/d)`: exactly the law of `m` with-replacement picks among
/// `d` neighbors, at one alias draw instead of `m` index draws. The `d + 1`
/// samplers of each `(m, d)` are built once per process and shared by every
/// round, shard and engine. A vertex of degree `d > m` draws its `m`
/// neighbor indices, and so does every agent on the complete graph — the
/// literal Agent fidelity, which tests use as the reference. The rule is a
/// fixed function of `(d, m)`: a vertex counts exactly when it reads no
/// more neighbors than it would draw.
///
/// The source is positional: construction fixes the first vertex it
/// streams for, and the cursor advances once per observation. The snapshot
/// it reads is the engine's *round-start opinion double buffer* (all `n`
/// vertices, sources included), so the fused round preserves the
/// synchronous semantics — every observation reads round-`t` outputs even
/// though the kernel writes round-`t+1` outputs in place.
///
/// # The owned draw stream
///
/// The kernel hands sources a `&mut dyn RngCore`, so every word drawn
/// from it costs a truly opaque virtual call — at `m = 2ℓ` index draws
/// per agent, that call (and the instruction-level parallelism it
/// forfeits inside the sampling loop) would dominate an observation.
/// A graph source therefore owns a **concrete** [`SmallRng`] for its
/// draws, seeded by a counter-based split of the engine's dedicated
/// `graph-index` stream and the source's first agent index
/// ([`fet_stats::rng::counter_split`]): the generator state lives in
/// registers across the whole sampling loop, each 64-bit word yields
/// **two** index lanes, and a counting vertex's alias draw comes from the
/// same generator. The kernel's `rng` is still what fault corruption draws
/// from, so the shard-keyed update stream is untouched. Determinism is
/// preserved exactly: the draw stream is a pure function of
/// `(engine seed, round, first agent)` — never of worker scheduling,
/// storage or ISA path.
#[derive(Debug)]
pub struct GraphSource<'a> {
    targets: Targets<'a>,
    snapshot: SnapshotView<'a>,
    fault: Option<&'a FaultPlan>,
    m: u32,
    /// The vertex the next observation streams for.
    vertex: u32,
    /// The owned draw generator (see the type-level docs).
    index_rng: SmallRng,
}

impl<'a> GraphSource<'a> {
    /// A source streaming observations for vertices `first_vertex..`, in
    /// order, drawing from the stream seeded by `index_seed`. `snapshot`
    /// holds the round-start output of **every** vertex (sources included,
    /// vertex-id indexed); `fault` should be `Some` only when observation
    /// noise is active.
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
            targets: Targets::Graph(neighborhood, CountTables::shared(m)),
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
        let raw_ones = match self.targets {
            Targets::Graph(neighborhood, counts) => {
                let neighbors = neighborhood.neighbors_of(self.vertex);
                debug_assert!(
                    !neighbors.is_empty(),
                    "vertex {} has no neighbors to observe (see ensure_observable)",
                    self.vertex
                );
                let d = u32::try_from(neighbors.len()).expect("degree < n fits u32");
                if d <= self.m {
                    let k = self.snapshot.count_ones(neighbors);
                    counts.samplers(d)[k as usize].sample(&mut self.index_rng) as u32
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
            Targets::Complete(n) => sample_neighbor_ones(
                isa::active_path(),
                &mut self.index_rng,
                self.snapshot,
                EveryVertex,
                n,
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

/// The engine's [`ShardSourceFactory`] for graph and literal Agent
/// rounds — graph runs ([`GraphSourceFactory::new`]) and the literal Agent
/// fidelity on the complete graph ([`GraphSourceFactory::complete`]): hands
/// every shard a [`GraphSource`] whose cursor starts at the shard's first
/// agent and whose draw stream is seeded by
/// [`counter_split`]`(round_base, range.start)`. The adjacency structure,
/// the round-start snapshot and the count path's samplers are shared
/// read-only across workers; each shard's draws depend only on its range
/// and the round base, so these shard streams are worker-invariant exactly
/// like the mean-field ones. The single-threaded fused round uses the same
/// factory with the full range `0..n`.
#[derive(Debug)]
pub struct GraphSourceFactory<'a> {
    targets: Targets<'a>,
    snapshot: SnapshotView<'a>,
    fault: Option<&'a FaultPlan>,
    m: u32,
    /// Vertex id of agent 0 of the stepped slice (= the number of source
    /// agents, which occupy the lowest vertex ids).
    vertex_base: u32,
    /// The round's draw-stream base (see [`GraphSourceFactory::new`]).
    round_base: u64,
}

impl<'a> GraphSourceFactory<'a> {
    /// A factory for one round on `neighborhood`. `vertex_base` is the
    /// vertex id of the first stepped (non-source) agent; shard ranges are
    /// offsets on top of it. `index_stream` is the engine's run-level
    /// `graph-index` seed lane and `round` the global round index:
    /// together they form the round's counter-derived draw-stream base,
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
        factory.targets = Targets::Graph(neighborhood, CountTables::shared(m));
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
            targets: Targets::Complete(n),
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
            targets: self.targets,
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
    use fet_stats::hypergeometric::Hypergeometric;
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

    /// Near-consensus laws on both unanimous sides, `m = 1` (whose
    /// conditioned law is one count), and the two degenerate laws.
    const RUN_LAWS: [(u32, f64); 6] = [
        (1, 0.03),
        (3, 0.01),
        (3, 0.995),
        (12, 0.004),
        (12, 0.0),
        (12, 1.0),
    ];

    #[test]
    fn run_rounds_take_the_threshold_at_the_unanimity_probability() {
        for (m, p) in RUN_LAWS {
            assert!(
                BinomialRound::new(m, p).unwrap().draws_runs(),
                "m={m} p={p}"
            );
        }
        for m in [1u32, 12, 94] {
            // u = (1 − p)^m just below and just above the threshold, and
            // the mirror image u = p^m.
            for (u, runs) in [(0.89, false), (0.91, true)] {
                let p = 1.0 - f64::powf(u, 1.0 / f64::from(m));
                for p in [p, 1.0 - p] {
                    assert_eq!(BinomialRound::new(m, p).unwrap().draws_runs(), runs);
                }
            }
        }
        assert!(BinomialRound::new(12, 1.5).is_err());
    }

    /// The word kernel's run path draws exactly what successive
    /// observations draw, across runs that end inside a word and runs
    /// that span words, at every word length.
    #[test]
    fn threshold_words_replay_successive_observations_in_run_rounds() {
        for (m, p) in RUN_LAWS {
            let round = BinomialRound::new(m, p).unwrap();
            let sampler = MeanFieldSampler::Binomial(&round);
            for threshold in [1, m.div_ceil(2), m] {
                let mut by_word = MeanFieldSource::new(sampler, m);
                let mut by_draw = MeanFieldSource::new(sampler, m);
                let mut word_rng = SmallRng::seed_from_u64(u64::from(m) ^ p.to_bits());
                let mut draw_rng = word_rng.clone();
                let untouched = word_rng.clone().next_u64();
                for count in (0..400).map(|i| [64, 17, 1, 63, 64, 5][i % 6]) {
                    let word = by_word.next_threshold_word(&mut word_rng, count, threshold);
                    let expected = (0..count).fold(0u64, |word, j| {
                        let ones = by_draw.next_observation(&mut draw_rng).ones();
                        word | (u64::from(ones >= threshold) << j)
                    });
                    assert_eq!(word, expected, "m={m} p={p} threshold={threshold}");
                }
                let next = word_rng.next_u64();
                assert_eq!(next, draw_rng.next_u64(), "m={m} p={p}");
                // Only a degenerate law's one endless run draws nothing.
                assert_eq!(next != untouched, p > 0.0 && p < 1.0, "m={m} p={p}");
            }
        }
    }

    /// Reporting repeats is stream-identical to drawing those agents' observations one by one.
    #[test]
    fn repeats_replay_successive_observations() {
        let noisy = FaultPlan::with_noise(0.01).unwrap();
        let hypergeometric = Hypergeometric::new(50, 1, 12).unwrap();
        let runs = BinomialRound::new(12, 0.004).unwrap();
        let each = BinomialRound::new(12, 0.3).unwrap();
        for sampler in [
            MeanFieldSampler::Binomial(&runs),
            MeanFieldSampler::Binomial(&each),
            MeanFieldSampler::Hypergeometric(&hypergeometric, Some(&noisy)),
        ] {
            let mut skipping = MeanFieldSource::new(sampler, 12);
            let mut drawing = MeanFieldSource::new(sampler, 12);
            let mut skip_rng = SmallRng::seed_from_u64(17);
            let mut draw_rng = skip_rng.clone();
            let (mut seen, mut repeated) = (Vec::new(), 0);
            for max in (0..2_000).map(|i| i % 9) {
                let ones = skipping.next_observation(&mut skip_rng).ones();
                let repeats = skipping.repeats(max);
                assert!(repeats <= max);
                repeated += repeats;
                seen.extend(std::iter::repeat_n(ones, 1 + repeats));
            }
            let drawn: Vec<u32> = (0..seen.len())
                .map(|_| drawing.next_observation(&mut draw_rng).ones())
                .collect();
            assert_eq!(seen, drawn, "{sampler:?}");
            assert_eq!(skip_rng.next_u64(), draw_rng.next_u64());
            let reports = matches!(sampler, MeanFieldSampler::Binomial(r) if r.draws_runs());
            assert_eq!(repeated > 0, reports, "{sampler:?}");
        }
    }

    /// A whole-tile answer from `unanimous_run`, plus the
    /// `next_observation` calls after it, replays plain `next_observation`
    /// calls: the same observations and the same RNG position. Cases: a
    /// pending run whose length is drawn at the tile start, a run ending
    /// exactly on the tile's last agent, a run one agent short, and a
    /// degenerate law's endless run; then a walk over many tiles, as the
    /// bit-plane kernel asks. Per-agent binomial and hypergeometric rounds
    /// decline and draw nothing.
    #[test]
    fn unanimous_runs_replay_successive_observations() {
        const TILE: usize = 64;
        // u = (1 − p)^12 ≈ 0.994: runs average ~170 agents.
        let runs = BinomialRound::new(12, 0.0005).unwrap();
        let endless = BinomialRound::new(12, 1.0).unwrap();
        let replay = |round: &BinomialRound, pending: Option<u64>, seed: u64| {
            let sampler = MeanFieldSampler::Binomial(round);
            let mut asking = MeanFieldSource::new(sampler, 12);
            let mut drawing = MeanFieldSource::new(sampler, 12);
            asking.run = pending;
            drawing.run = pending;
            let mut ask_rng = SmallRng::seed_from_u64(seed);
            let mut draw_rng = ask_rng.clone();
            let answer = asking.unanimous_run(&mut ask_rng, TILE);
            let mut seen = match answer {
                Some(obs) => vec![obs.ones(); TILE],
                None => Vec::new(),
            };
            while seen.len() < 3 * TILE {
                seen.push(asking.next_observation(&mut ask_rng).ones());
            }
            let drawn: Vec<u32> = (0..seen.len())
                .map(|_| drawing.next_observation(&mut draw_rng).ones())
                .collect();
            assert_eq!(seen, drawn, "pending={pending:?} seed={seed}");
            assert_eq!(ask_rng.next_u64(), draw_rng.next_u64());
            answer.map(|obs| (obs.ones(), obs.sample_size()))
        };
        let drawn_here: Vec<_> = (0..200).map(|seed| replay(&runs, None, seed)).collect();
        assert!(drawn_here.contains(&Some((0, 12))) && drawn_here.contains(&None));
        for seed in 0..20 {
            assert_eq!(replay(&runs, Some(TILE as u64), seed), Some((0, 12)));
            assert_eq!(replay(&runs, Some(TILE as u64 - 1), seed), None);
            assert_eq!(replay(&endless, None, seed), Some((12, 12)));
        }

        // Many tiles in a row, a short trailing tile among them.
        let sampler = MeanFieldSampler::Binomial(&runs);
        let mut asking = MeanFieldSource::new(sampler, 12);
        let mut drawing = MeanFieldSource::new(sampler, 12);
        let mut ask_rng = SmallRng::seed_from_u64(99);
        let mut draw_rng = ask_rng.clone();
        let (mut seen, mut answered) = (Vec::new(), 0);
        for agents in (0..300).map(|i| [TILE, TILE, 17][i % 3]) {
            match asking.unanimous_run(&mut ask_rng, agents) {
                Some(obs) => {
                    answered += 1;
                    seen.extend(std::iter::repeat_n(obs.ones(), agents));
                }
                None => {
                    seen.extend((0..agents).map(|_| asking.next_observation(&mut ask_rng).ones()))
                }
            }
        }
        let drawn: Vec<u32> = (0..seen.len())
            .map(|_| drawing.next_observation(&mut draw_rng).ones())
            .collect();
        assert_eq!(seen, drawn);
        assert_eq!(ask_rng.next_u64(), draw_rng.next_u64());
        assert!(answered > 0 && answered < 300, "{answered} tiles answered");

        let each = BinomialRound::new(12, 0.3).unwrap();
        let hypergeometric = Hypergeometric::new(50, 1, 12).unwrap();
        let noisy = FaultPlan::with_noise(0.01).unwrap();
        for sampler in [
            MeanFieldSampler::Binomial(&each),
            MeanFieldSampler::Hypergeometric(&hypergeometric, Some(&noisy)),
        ] {
            let mut source = MeanFieldSource::new(sampler, 12);
            let mut rng = SmallRng::seed_from_u64(5);
            let untouched = rng.clone().next_u64();
            assert!(
                source.unanimous_run(&mut rng, TILE).is_none(),
                "{sampler:?}"
            );
            assert_eq!(rng.next_u64(), untouched, "{sampler:?} drew");
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
    fn count_tables_are_built_once_per_m_and_degree() {
        let tables = CountTables::shared(7);
        assert!(std::ptr::eq(tables, CountTables::shared(7)));
        let samplers = tables.samplers(3);
        assert!(std::ptr::eq(samplers, tables.samplers(3)));
        assert_eq!(samplers.len(), 4);
        for (k, sampler) in samplers.iter().enumerate() {
            assert_eq!((sampler.n(), sampler.p()), (7, k as f64 / 3.0));
        }
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
