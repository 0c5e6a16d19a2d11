//! Bit-plane packed populations: 1 bit/agent opinion storage plus a
//! packed auxiliary plane.
//!
//! The paper's regime is huge anonymous populations with a few bits of
//! state per agent — at `n = 10⁸`–`10⁹` even one byte per opinion is the
//! memory-bandwidth bottleneck (see `docs/BENCHMARKS.md`). This module
//! packs the public opinion plane 64 agents per `u64` word
//! ([`BitPlane`]), with a protocol's remaining per-agent state — FET's
//! stored `count″ ∈ [0, ℓ]` — in a parallel auxiliary plane
//! ([`AuxPlane`]) of exactly the width the protocol declares
//! ([`StatePlanes`]):
//!
//! * [`StatePlanes::OpinionOnly`] — width 0: the aux plane holds no words
//!   (voter, 3-majority);
//! * [`StatePlanes::OpinionPlusPacked`]`{ bits }` — exactly `bits ∈ [1, 8]`
//!   bits per agent in interleaved bit-sliced words. For FET with `ℓ = 5`
//!   this is 3 bits/agent — ~375 MB at `n = 10⁹` instead of a byte
//!   plane's 1 GB.
//!
//! # Packability contract
//!
//! A protocol opts in by returning a non-`Unpacked`
//! [`StatePlanes`] descriptor and
//! implementing [`Protocol::pack_state`]/[`Protocol::unpack_state`] as
//! mutual inverses whose packed opinion bit **is** the state's
//! [`Protocol::output`]. Packing is restricted to *passive* protocols
//! (decision ≡ output), which is what lets the container answer both the
//! global 1-count and the correct-decision count by popcount. Protocols
//! declaring a packed aux width promise `aux < 2^bits` for every
//! reachable state — the planes store only the low `bits` bits.
//!
//! # Tile kernel
//!
//! A bit-plane round is a storage adapter around the protocol's own fused
//! kernel. For each 64-agent plane word it loads the opinion word and the
//! word's 64 aux values into a stack tile of unpacked states, runs
//! [`Protocol::step_fused`] on the tile — the kernel
//! [`TypedPopulation`](crate::population::TypedPopulation) runs over its
//! state slice — and stores the tile back. The aux load and store move a
//! whole word group at a time: the group's slice words are gathered one
//! byte per slice word into 8×8 bit matrices and transposed with three
//! delta swaps. The tile lives on the stack, so a round allocates nothing.
//!
//! In a sleepy round each tile steps under its keep mask instead (see
//! [`shard`](crate::shard#sleepy-rounds)).
//!
//! In sleep-free rounds, [`StatePlanes::OpinionOnly`] protocols whose
//! update is a pure threshold on the observation
//! ([`Protocol::opinion_threshold`] is `Some`) skip the tile: the fused
//! round asks the source for one *threshold word* per 64 agents
//! ([`ObservationSource::next_threshold_word`]) and writes it straight
//! into the opinion plane, counting by popcount. The mean-field source
//! overrides the word draw to hoist its per-draw virtual dispatch,
//! sampler match, and fault check out of the loop, which is where the
//! measured ≥ 2× per-round win over the tile kernel comes from
//! (`fet-bench`'s `word_kernel`).
//!
//! # Trajectory identity
//!
//! [`Protocol::step_fused`] consumes observations and randomness exactly
//! as per-agent [`Protocol::step`] calls in agent order would — the
//! kernel contract every representation shares — and the tile hands it
//! the agents in plane order, so the tile boundary never enters the
//! stream. The word-at-a-time kernel draws the very same observation
//! stream 64 agents at a time (see the contract on
//! [`ObservationSource::next_threshold_word`]). A bit-plane run is
//! therefore **bit-identical** to the typed and population-erased runs
//! of the same `(seed, shard count)` — the property
//! `tests/erasure_equivalence.rs` checks — and the aux-plane width never
//! enters the stream.
//!
//! # Word-aligned sharding
//!
//! The parallel fused round carves the planes with `split_at_mut`, so
//! shard boundaries must not split a plane word.
//! [`ShardPlan::shard_range`](crate::shard::ShardPlan::shard_range)
//! guarantees range starts that are multiples of 64 agents for every
//! population size and shard count, which is word-aligned for **every**
//! plane width at once: 64 agents are 1 opinion word and exactly `bits`
//! interleaved aux words.
//! [`Population::step_round`] relies on it.

use crate::memory::MemoryFootprint;
use crate::observation::Observation;
use crate::opinion::Opinion;
use crate::population::{DynPopulation, Population};
use crate::protocol::{FusedCounters, ObservationSource, Protocol, RoundContext, StatePlanes};
use crate::shard::{self, RoundStreams, ShardSlices, ShardSourceFactory, SleepLane};
use rand::RngCore;
use std::fmt;
use std::ops::Range;

/// Bits per plane word.
pub const WORD_BITS: usize = 64;

/// A dense bit vector packed 64 bits per `u64` word — the opinion plane.
///
/// Invariant: bits at positions `len()..` in the trailing word are zero,
/// so [`BitPlane::count_ones`] is a straight popcount over the words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitPlane {
    words: Vec<u64>,
    len: usize,
}

impl BitPlane {
    /// An empty plane.
    pub fn new() -> Self {
        BitPlane::default()
    }

    /// A plane of `bits` zero bits.
    pub fn zeroed(bits: usize) -> Self {
        BitPlane {
            words: vec![0; bits.div_ceil(WORD_BITS)],
            len: bits,
        }
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pre-allocates room for `additional` more bits.
    pub fn reserve(&mut self, additional: usize) {
        let want = (self.len + additional).div_ceil(WORD_BITS);
        self.words.reserve(want.saturating_sub(self.words.len()));
    }

    /// Appends the low `count ≤ 64` bits of `word` as one new word. The
    /// plane must end on a word boundary, and the bits of `word` past
    /// `count` must be zero.
    fn push_word(&mut self, word: u64, count: usize) {
        debug_assert!(self.len.is_multiple_of(WORD_BITS), "plane ends mid-word");
        debug_assert!(
            count == WORD_BITS || word >> count == 0,
            "bits past the count"
        );
        self.words.push(word);
        self.len += count;
    }

    /// Appends one bit.
    pub fn push(&mut self, opinion: Opinion) {
        let bit = self.len % WORD_BITS;
        if bit == 0 {
            self.words.push(0);
        }
        let word = self.words.last_mut().expect("word pushed above");
        *word |= u64::from(opinion.is_one()) << bit;
        self.len += 1;
    }

    /// The bit at `idx` as an [`Opinion`].
    ///
    /// # Panics
    ///
    /// Panics when `idx ≥ len()`.
    #[inline]
    pub fn get(&self, idx: usize) -> Opinion {
        assert!(idx < self.len, "bit index {idx} out of {}", self.len);
        Opinion::from(((self.words[idx / WORD_BITS] >> (idx % WORD_BITS)) & 1) == 1)
    }

    /// Sets the bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics when `idx ≥ len()`.
    #[inline]
    pub fn set(&mut self, idx: usize, opinion: Opinion) {
        assert!(idx < self.len, "bit index {idx} out of {}", self.len);
        let mask = 1u64 << (idx % WORD_BITS);
        let word = &mut self.words[idx / WORD_BITS];
        *word = (*word & !mask) | (u64::from(opinion.is_one()) * mask);
    }

    /// Number of 1-bits — one popcount per word, no per-bit walk.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The packed words, read-only. The trailing word's bits past
    /// [`BitPlane::len`] are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The packed words, mutable. Callers must preserve the
    /// trailing-bits-zero invariant.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Heap bytes the word storage holds (capacity, not length).
    pub fn resident_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// The auxiliary plane of a [`BitPopulation`]: a dense vector of
/// `bits`-bit values, at the width the protocol's [`StatePlanes`]
/// declares (`0 ≤ bits ≤ 8`; FET's clock at `⌈log₂(ℓ+1)⌉` bits), in an
/// **interleaved bit-sliced** layout.
///
/// Agents are grouped 64 per word-group; group `g` occupies words
/// `g·bits .. (g+1)·bits`, and word `g·bits + j` holds **bit `j`** of
/// the values of agents `g·64 .. g·64+64` (agent `a`'s slice lives at
/// bit position `a mod 64` of each of its group's words). Interleaving
/// keeps a group's words adjacent in memory — sequential kernel walks
/// touch one cache line pair per group — and makes the plane carve at
/// any 64-agent boundary with a single `split_at_mut`, exactly like the
/// opinion plane. A zero-width plane ([`StatePlanes::OpinionOnly`])
/// holds no words and reads 0.
///
/// Invariant: bit positions for agents `len()..` of the trailing group
/// are zero in every slice word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuxPlane {
    bits: u8,
    words: Vec<u64>,
    len: usize,
}

impl AuxPlane {
    /// An empty plane at the aux width a protocol's [`StatePlanes`]
    /// declares: 0 bits for [`StatePlanes::OpinionOnly`], `bits` for
    /// [`StatePlanes::OpinionPlusPacked`].
    ///
    /// # Panics
    ///
    /// Panics for [`StatePlanes::Unpacked`] (no packed layout exists) and
    /// for packed widths outside `1..=8` (wider aux values do not fit
    /// [`Protocol::pack_state`]'s byte).
    pub fn for_planes(planes: StatePlanes) -> AuxPlane {
        let bits = match planes {
            StatePlanes::Unpacked => panic!("Unpacked states have no aux plane"),
            StatePlanes::OpinionOnly => 0,
            StatePlanes::OpinionPlusPacked { bits } => {
                assert!(
                    (1..=8).contains(&bits),
                    "packed aux width {bits} out of 1..=8"
                );
                bits
            }
        };
        AuxPlane {
            bits,
            words: Vec::new(),
            len: 0,
        }
    }

    /// Bits per stored value.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pre-allocates room for `additional` more values.
    pub fn reserve(&mut self, additional: usize) {
        let want = (self.len + additional).div_ceil(WORD_BITS) * self.bits as usize;
        self.words.reserve(want.saturating_sub(self.words.len()));
    }

    /// Appends one value.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `value ≥ 2^bits`; release builds
    /// store the low `bits` bits.
    pub fn push(&mut self, value: u8) {
        if self.len.is_multiple_of(WORD_BITS) {
            self.words
                .extend(std::iter::repeat_n(0, self.bits as usize));
        }
        let idx = self.len;
        self.len += 1;
        self.set(idx, value);
    }

    /// Appends the first `count ≤ 64` values of `tile` as one new word
    /// group, written whole by the tile store — the bulk counterpart of
    /// [`AuxPlane::push`], which costs one read-modify-write per slice
    /// word per value. The plane must end on a group boundary, and the
    /// slots past `count` must be zero.
    fn push_tile(&mut self, tile: &[u8; WORD_BITS], count: usize) {
        debug_assert!(self.len.is_multiple_of(WORD_BITS), "plane ends mid-group");
        let group = self.len / WORD_BITS;
        self.words
            .resize(self.words.len() + usize::from(self.bits), 0);
        self.len += count;
        self.slice_mut().store_tile(group, count, tile);
    }

    /// The value at `idx`, gathered one bit per slice word.
    ///
    /// # Panics
    ///
    /// Panics when `idx ≥ len()`.
    #[inline]
    pub fn get(&self, idx: usize) -> u8 {
        assert!(idx < self.len, "aux index {idx} out of {}", self.len);
        let base = (idx / WORD_BITS) * self.bits as usize;
        let bit = idx % WORD_BITS;
        let mut value = 0u8;
        for j in 0..self.bits as usize {
            value |= (((self.words[base + j] >> bit) & 1) as u8) << j;
        }
        value
    }

    /// Sets the value at `idx`, one read-modify-write per slice word.
    ///
    /// # Panics
    ///
    /// Panics when `idx ≥ len()` (and, in debug builds, when
    /// `value ≥ 2^bits`).
    #[inline]
    pub fn set(&mut self, idx: usize, value: u8) {
        assert!(idx < self.len, "aux index {idx} out of {}", self.len);
        debug_assert!(
            u32::from(value) < (1u32 << self.bits),
            "value {value} out of {} bits",
            self.bits
        );
        let base = (idx / WORD_BITS) * self.bits as usize;
        let mask = 1u64 << (idx % WORD_BITS);
        for j in 0..self.bits as usize {
            let word = &mut self.words[base + j];
            *word = (*word & !mask) | (u64::from((value >> j) & 1) * mask);
        }
    }

    /// The interleaved slice words, read-only (see the type docs for the
    /// layout).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes the word storage holds (capacity, not length).
    pub fn resident_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// A mutable whole-plane view for the round kernels.
    fn slice_mut(&mut self) -> AuxSliceMut<'_> {
        AuxSliceMut {
            bits: usize::from(self.bits),
            words: &mut self.words,
        }
    }
}

/// A mutable view of (part of) an aux plane's slice words, indexed
/// relative to the view's first agent — the per-shard unit the parallel
/// round hands each worker.
struct AuxSliceMut<'a> {
    bits: usize,
    words: &'a mut [u64],
}

impl<'a> AuxSliceMut<'a> {
    /// Splits off the view of the first `agents` agents, returning
    /// `(head, tail)`.
    ///
    /// When the tail is non-empty, `agents` must be a multiple of 64 —
    /// the word-group alignment every plane width shares, which
    /// [`ShardPlan::shard_range`](crate::shard::ShardPlan::shard_range)
    /// guarantees for shard boundaries.
    fn split_for_agents(self, agents: usize) -> (AuxSliceMut<'a>, AuxSliceMut<'a>) {
        let AuxSliceMut { bits, words } = self;
        let at = agents.div_ceil(WORD_BITS) * bits;
        debug_assert!(at == words.len() || agents.is_multiple_of(WORD_BITS));
        let (head, tail) = words.split_at_mut(at);
        (
            AuxSliceMut { bits, words: head },
            AuxSliceMut { bits, words: tail },
        )
    }

    /// Loads the packed values of plane word `w`'s agents — agents
    /// `64·w .. 64·w + 64` of this view — into `tile`. Slots past the
    /// plane's length read its zero padding.
    #[inline]
    fn load_tile(&self, w: usize, tile: &mut [u8; WORD_BITS]) {
        // Row j of column k's 8×8 bit matrix is byte k of slice word j:
        // bit j of agents 8k..8k+8. Transposed, byte i is agent 8k+i's
        // whole value.
        let mut columns = [0u64; 8];
        for (j, &word) in self.words[w * self.bits..(w + 1) * self.bits]
            .iter()
            .enumerate()
        {
            for (k, column) in columns.iter_mut().enumerate() {
                *column |= ((word >> (8 * k)) & 0xFF) << (8 * j);
            }
        }
        for (column, values) in columns.iter().zip(tile.chunks_exact_mut(8)) {
            values.copy_from_slice(&transpose_8x8(*column).to_le_bytes());
        }
    }

    /// Stores `tile` back as the packed values of plane word `w`'s agents,
    /// the inverse of [`AuxSliceMut::load_tile`]. Slots past `in_word`
    /// must be zero: they land in the trailing word's padding, which stays
    /// zero. Values keep their low `bits` bits, as the per-agent setters do.
    #[inline]
    fn store_tile(&mut self, w: usize, in_word: usize, tile: &[u8; WORD_BITS]) {
        debug_assert!(
            tile[in_word..].iter().all(|&v| v == 0),
            "tile padding not zero"
        );
        let mut slices = [0u64; 8];
        for (k, values) in tile.chunks_exact(8).enumerate() {
            let column = transpose_8x8(u64::from_le_bytes(
                values.try_into().expect("8-agent column"),
            ));
            for (j, slice) in slices.iter_mut().enumerate() {
                *slice |= ((column >> (8 * j)) & 0xFF) << (8 * k);
            }
        }
        self.words[w * self.bits..(w + 1) * self.bits].copy_from_slice(&slices[..self.bits]);
    }
}

/// Transposes the 8×8 bit matrix in `x` — row `r` is byte `r`, column `c`
/// is bit `c` of that byte — with three delta swaps (2×2, 4×4, then 8×8
/// blocks). The transpose is its own inverse.
#[inline(always)]
fn transpose_8x8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// One shard's piece of a bit-plane population: its opinion words, its
/// aux plane view, and (when the caller asked for them) its output slots.
struct PlaneSlices<'a> {
    words: &'a mut [u64],
    aux: AuxSliceMut<'a>,
    outputs: Option<&'a mut [Opinion]>,
}

impl ShardSlices for PlaneSlices<'_> {
    /// Shard ranges start on 64-agent boundaries, which is a whole-word
    /// boundary for every plane width — opinion words and interleaved
    /// slice groups alike — so the splits land exactly between shards.
    fn split_at_agent(self, agents: usize) -> (Self, Self) {
        let at = agents.div_ceil(WORD_BITS);
        debug_assert!(
            at == self.words.len() || agents.is_multiple_of(WORD_BITS),
            "a shard boundary at agent {agents} splits a word"
        );
        let (words, words_rest) = self.words.split_at_mut(at);
        let (aux, aux_rest) = self.aux.split_for_agents(agents);
        let (outputs, outputs_rest) = match self.outputs {
            Some(out) => {
                let (head, tail) = out.split_at_mut(agents);
                (Some(head), Some(tail))
            }
            None => (None, None),
        };
        (
            PlaneSlices {
                words,
                aux,
                outputs,
            },
            PlaneSlices {
                words: words_rest,
                aux: aux_rest,
                outputs: outputs_rest,
            },
        )
    }
}

/// The word-at-a-time fused kernel for opinion-only threshold protocols
/// (voter, 3-majority): one
/// [`ObservationSource::next_threshold_word`] draw and one plane-word
/// write per 64 agents, counters by popcount. Stream-identical to the
/// tile kernel ([`step_packed_slice`]) by the source contract (the same
/// observations are drawn in the same per-agent order; the protocols
/// consume no step randomness), and faster, since the source hoists its
/// dispatch out of the word.
///
/// The popcount/store reduction here is deliberately *not* routed
/// through `fet_stats::isa`'s explicit-SIMD tiers: it is one
/// `count_ones` + one store per 64 agents against ≥ 64 sampler draws
/// for the same agents, and the `word_kernel` bench's `plane_popcount`
/// row measures the whole reduction at well under 1% of a round — the
/// vectorized-sampling PR measured it and dropped this leg (see
/// docs/BENCHMARKS.md, "SIMD sampling kernels").
fn step_threshold_words(
    words: &mut [u64],
    len: usize,
    source: &mut dyn ObservationSource,
    rng: &mut dyn RngCore,
    threshold: u32,
    correct: Opinion,
    mut outputs: Option<&mut [Opinion]>,
) -> FusedCounters {
    let mut counters = FusedCounters::default();
    let mut idx = 0usize;
    for word_slot in words.iter_mut() {
        if idx >= len {
            break;
        }
        let in_word = (len - idx).min(WORD_BITS);
        let word = source.next_threshold_word(rng, in_word as u32, threshold);
        debug_assert!(
            in_word == WORD_BITS || word >> in_word == 0,
            "threshold word has bits past the drawn count"
        );
        *word_slot = word;
        let ones = u64::from(word.count_ones());
        counters.ones += ones;
        counters.correct += if correct.is_one() {
            ones
        } else {
            in_word as u64 - ones
        };
        if let Some(out) = outputs.as_deref_mut() {
            for bit in 0..in_word {
                out[idx + bit] = Opinion::from(((word >> bit) & 1) == 1);
            }
        }
        idx += in_word;
    }
    counters
}

/// Steps the agents `range` of the population, held in a packed plane
/// slice pair, drawing observations from `source`: the tile kernel behind
/// every `BitPopulation` round (see the [module docs](self)), or the
/// word-at-a-time kernel for opinion-only threshold protocols in sleep-free
/// rounds. `outputs`, when present, receives the new opinions index-aligned
/// (`None` on the in-place paths — the plane itself is the output store).
#[allow(clippy::too_many_arguments)]
fn step_packed_slice<P: Protocol>(
    protocol: &P,
    piece: PlaneSlices<'_>,
    range: Range<usize>,
    sleep: Option<&SleepLane>,
    source: &mut dyn ObservationSource,
    ctx: &RoundContext,
    rng: &mut dyn RngCore,
    correct: Opinion,
) -> FusedCounters {
    let PlaneSlices {
        words,
        mut aux,
        mut outputs,
    } = piece;
    let (len, mut masks) = (range.len(), sleep.map(|lane| lane.masks(range.start)));
    debug_assert!(words.len() >= len.div_ceil(WORD_BITS));
    if let Some(out) = outputs.as_deref() {
        assert_eq!(out.len(), len, "one output slot per agent");
    }
    if let (0, Some(threshold), None) = (aux.bits, protocol.opinion_threshold(), sleep) {
        return step_threshold_words(words, len, source, rng, threshold, correct, outputs);
    }
    let mut states: [P::State; WORD_BITS] =
        std::array::from_fn(|_| protocol.unpack_state(Opinion::Zero, 0));
    let mut values = [0u8; WORD_BITS];
    let mut tile_outputs = [Opinion::Zero; WORD_BITS];
    let mut counters = FusedCounters::default();
    for (w, word_slot) in words[..len.div_ceil(WORD_BITS)].iter_mut().enumerate() {
        let start = w * WORD_BITS;
        let in_word = (len - start).min(WORD_BITS);
        let states = &mut states[..in_word];
        aux.load_tile(w, &mut values);
        let opinions = *word_slot;
        for (bit, state) in states.iter_mut().enumerate() {
            let opinion = Opinion::from(((opinions >> bit) & 1) == 1);
            *state = protocol.unpack_state(opinion, values[bit]);
        }
        let out = match outputs.as_deref_mut() {
            Some(out) => &mut out[start..start + in_word],
            None => &mut tile_outputs[..in_word],
        };
        counters += match masks.as_mut() {
            None => protocol.step_fused(states, source, ctx, rng, correct, out),
            Some(masks) => {
                shard::step_tile_keeping(protocol, states, masks, source, ctx, rng, correct, out)
            }
        };
        let mut word = 0u64;
        for (bit, state) in states.iter().enumerate() {
            let (opinion, value) = protocol.pack_state(state);
            debug_assert_eq!(
                opinion, out[bit],
                "pack_state's opinion bit must be the state's output"
            );
            word |= u64::from(opinion.is_one()) << bit;
            values[bit] = value;
        }
        values[in_word..].fill(0);
        *word_slot = word;
        aux.store_tile(w, in_word, &values);
    }
    counters
}

/// A [`Population`] storing its agents as packed planes: one opinion bit
/// per agent in a [`BitPlane`] plus the protocol's auxiliary plane
/// ([`AuxPlane`], bit-sliced at the width the protocol's [`StatePlanes`]
/// declares).
///
/// Construction requires a packable protocol — see the
/// [module docs](self) for the contract. Every [`Population`] entry
/// point is implemented, so the container drops into byte-addressed
/// engines unchanged; [`Population::step_round`] with `outputs: None`
/// additionally lets bit-aware engines skip the per-agent output buffer
/// entirely.
#[derive(Clone)]
pub struct BitPopulation<P: Protocol> {
    protocol: P,
    planes: StatePlanes,
    opinions: BitPlane,
    aux: AuxPlane,
}

impl<P: Protocol + fmt::Debug> fmt::Debug for BitPopulation<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BitPopulation")
            .field("protocol", &self.protocol)
            .field("planes", &self.planes)
            .field("len", &self.opinions.len())
            .finish()
    }
}

impl<P: Protocol> BitPopulation<P> {
    /// An empty bit-plane population running `protocol`.
    ///
    /// # Panics
    ///
    /// Panics when the protocol is not packable: its
    /// [`Protocol::state_planes`] is [`StatePlanes::Unpacked`], or it is
    /// not passive ([`Protocol::is_passive`]), or it declares a packed
    /// aux width outside `1..=8`. Callers selecting storage at runtime
    /// should gate on those first (the erased layer's
    /// [`bit_population`](crate::erased::ErasedProtocol::bit_population)
    /// does, returning `None`).
    pub fn new(protocol: P) -> Self {
        let planes = protocol.state_planes();
        assert!(
            planes != StatePlanes::Unpacked,
            "protocol `{}` declares no packed state layout",
            protocol.name()
        );
        assert!(
            protocol.is_passive(),
            "protocol `{}` is not passive; bit-plane storage equates decisions with the packed \
             opinion bit",
            protocol.name()
        );
        let aux = AuxPlane::for_planes(planes);
        BitPopulation {
            protocol,
            planes,
            opinions: BitPlane::new(),
            aux,
        }
    }

    /// A population packing explicitly provided states — the adversarial
    /// entry point, mirroring
    /// [`TypedPopulation::from_states`](crate::population::TypedPopulation::from_states).
    ///
    /// # Panics
    ///
    /// Panics when the protocol is not packable (see
    /// [`BitPopulation::new`]) or when a state does not survive
    /// [`Protocol::pack_state`].
    pub fn from_states(protocol: P, states: &[P::State]) -> Self {
        let mut pop = BitPopulation::new(protocol);
        pop.opinions.reserve(states.len());
        pop.aux.reserve(states.len());
        let mut states = states.iter();
        pop.extend_packed(states.len(), |protocol| {
            protocol.pack_state(states.next().expect("one state per agent"))
        });
        pop
    }

    /// Appends `count` agents, each packed by `next`, in agent order. Whole
    /// 64-agent groups are staged on the stack and written as one opinion
    /// word and one aux tile; a partial trailing group left by earlier
    /// pushes is finished agent by agent first.
    fn extend_packed(&mut self, count: usize, mut next: impl FnMut(&P) -> (Opinion, u8)) {
        let mut left = count;
        while left > 0 && !self.opinions.len().is_multiple_of(WORD_BITS) {
            let (opinion, aux) = next(&self.protocol);
            self.opinions.push(opinion);
            self.aux.push(aux);
            left -= 1;
        }
        let mut values = [0u8; WORD_BITS];
        while left > 0 {
            let in_word = left.min(WORD_BITS);
            let mut word = 0u64;
            for (bit, value) in values[..in_word].iter_mut().enumerate() {
                let (opinion, aux) = next(&self.protocol);
                word |= u64::from(opinion.is_one()) << bit;
                *value = aux;
            }
            values[in_word..].fill(0);
            self.opinions.push_word(word, in_word);
            self.aux.push_tile(&values, in_word);
            left -= in_word;
        }
    }

    /// The protocol configuration.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The packed plane layout this container uses.
    pub fn planes(&self) -> StatePlanes {
        self.planes
    }

    /// The packed opinion plane, read-only.
    pub fn opinion_plane(&self) -> &BitPlane {
        &self.opinions
    }

    /// The auxiliary plane, read-only (zero-width for
    /// [`StatePlanes::OpinionOnly`] protocols).
    pub fn aux_plane(&self) -> &AuxPlane {
        &self.aux
    }

    /// Agent `idx`'s packed auxiliary value (0 for opinion-only
    /// layouts) — the byte [`Protocol::unpack_state`] receives.
    pub fn aux_value(&self, idx: usize) -> u8 {
        self.aux.get(idx)
    }

    fn unpack(&self, idx: usize) -> P::State {
        self.protocol
            .unpack_state(self.opinions.get(idx), self.aux.get(idx))
    }

    fn repack(&mut self, idx: usize, state: &P::State) {
        let (opinion, aux) = self.protocol.pack_state(state);
        self.opinions.set(idx, opinion);
        self.aux.set(idx, aux);
    }
}

impl<P> Population for BitPopulation<P>
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
        self.opinions.len()
    }

    fn reserve(&mut self, additional: usize) {
        self.opinions.reserve(additional);
        self.aux.reserve(additional);
    }

    fn push_agent(&mut self, opinion: Opinion, rng: &mut dyn RngCore) -> Opinion {
        let state = self.protocol.init_state(opinion, rng);
        let output = self.protocol.output(&state);
        let (packed_opinion, packed_aux) = self.protocol.pack_state(&state);
        debug_assert_eq!(packed_opinion, output);
        self.opinions.push(packed_opinion);
        self.aux.push(packed_aux);
        output
    }

    fn push_agents(
        &mut self,
        count: usize,
        opinion: &mut dyn FnMut(&mut dyn RngCore) -> Opinion,
        rng: &mut dyn RngCore,
    ) {
        self.extend_packed(count, |protocol| {
            let state = protocol.init_state(opinion(rng), rng);
            let packed = protocol.pack_state(&state);
            debug_assert_eq!(packed.0, protocol.output(&state));
            packed
        });
    }

    fn corrupt_agent(&mut self, idx: usize, opinion: Opinion, rng: &mut dyn RngCore) {
        // Same protocol draw stream as the typed container, then repack:
        // corruption events stay bit-identical across representations.
        let state = self.protocol.init_state(opinion, rng);
        self.repack(idx, &state);
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
        let n = self.opinions.len();
        if let Some(out) = outputs.as_deref() {
            assert_eq!(out.len(), n, "one output slot per agent");
        }
        let BitPopulation {
            protocol,
            opinions,
            aux,
            ..
        } = self;
        let planes = PlaneSlices {
            words: opinions.words_mut(),
            aux: aux.slice_mut(),
            outputs,
        };
        let protocol = &*protocol;
        shard::run_round(planes, n, sources, streams, |piece, range, source, rng| {
            step_packed_slice(protocol, piece, range, sleep, source, ctx, rng, correct)
        })
    }

    fn step_agent(
        &mut self,
        idx: usize,
        obs: &Observation,
        ctx: &RoundContext,
        rng: &mut dyn RngCore,
    ) -> Opinion {
        let mut state = self.unpack(idx);
        let new = self.protocol.step(&mut state, obs, ctx, rng);
        self.repack(idx, &state);
        new
    }

    fn output_of(&self, idx: usize) -> Opinion {
        self.opinions.get(idx)
    }

    fn decision_of(&self, idx: usize) -> Opinion {
        // Packing is restricted to passive protocols: decision ≡ output
        // ≡ the stored bit.
        self.opinions.get(idx)
    }

    fn count_correct_decisions(&self, correct: Opinion) -> u64 {
        let ones = self.opinions.count_ones();
        if correct.is_one() {
            ones
        } else {
            self.opinions.len() as u64 - ones
        }
    }

    fn write_outputs(&self, out: &mut [Opinion]) {
        assert_eq!(out.len(), self.opinions.len(), "one output slot per agent");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.opinions.get(i);
        }
    }

    fn count_output_ones(&self) -> u64 {
        self.opinions.count_ones()
    }

    fn resident_bytes(&self) -> usize {
        self.opinions.resident_bytes() + self.aux.resident_bytes()
    }

    fn supports_inplace_rounds(&self) -> bool {
        true
    }

    fn write_opinion_words(&self, snapshot: &mut [u64]) {
        snapshot.copy_from_slice(self.opinions.words());
    }
}

impl<P> DynPopulation for BitPopulation<P>
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
    use crate::population::TypedPopulation;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::SmallRng {
        rand::rngs::SmallRng::seed_from_u64(0xB17)
    }

    fn filled_pair(
        ell: u32,
        n: usize,
    ) -> (TypedPopulation<FetProtocol>, BitPopulation<FetProtocol>) {
        let proto = FetProtocol::new(ell).unwrap();
        let mut typed = TypedPopulation::new(proto.clone());
        let mut bits = BitPopulation::new(proto);
        let mut rt = rng();
        let mut rb = rng();
        for i in 0..n {
            let opinion = Opinion::from(i % 3 == 0);
            assert_eq!(
                typed.push_agent(opinion, &mut rt),
                bits.push_agent(opinion, &mut rb)
            );
        }
        (typed, bits)
    }

    #[test]
    fn plane_push_get_set_count() {
        let mut plane = BitPlane::new();
        for i in 0..130 {
            plane.push(Opinion::from(i % 5 == 0));
        }
        assert_eq!(plane.len(), 130);
        assert_eq!(plane.words().len(), 3);
        for i in 0..130 {
            assert_eq!(plane.get(i), Opinion::from(i % 5 == 0));
        }
        let scalar = (0..130).filter(|i| i % 5 == 0).count() as u64;
        assert_eq!(plane.count_ones(), scalar);
        plane.set(129, Opinion::One);
        plane.set(0, Opinion::Zero);
        assert_eq!(plane.get(129), Opinion::One);
        assert_eq!(plane.get(0), Opinion::Zero);
        // Trailing bits stay zero: the popcount matches a scalar recount.
        let recount = (0..130).filter(|&i| plane.get(i).is_one()).count() as u64;
        assert_eq!(plane.count_ones(), recount);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn plane_get_bounds_checked() {
        let plane = BitPlane::zeroed(64);
        let _ = plane.get(64);
    }

    /// The planes descriptor of a `bits`-wide aux plane: opinion-only at
    /// width 0, packed otherwise.
    fn planes_of_width(bits: u8) -> StatePlanes {
        match bits {
            0 => StatePlanes::OpinionOnly,
            bits => StatePlanes::OpinionPlusPacked { bits },
        }
    }

    #[test]
    fn sliced_plane_push_get_set_all_widths() {
        for bits in 0..=8u8 {
            let max = (1u32 << bits) as usize;
            let mut plane = AuxPlane::for_planes(planes_of_width(bits));
            for i in 0..131 {
                plane.push((i % max) as u8);
            }
            assert_eq!(plane.len(), 131);
            assert_eq!(plane.words().len(), 3 * bits as usize);
            for i in 0..131 {
                assert_eq!(plane.get(i), (i % max) as u8, "bits={bits} idx={i}");
            }
            plane.set(130, (max - 1) as u8);
            plane.set(64, 0);
            assert_eq!(plane.get(130), (max - 1) as u8);
            assert_eq!(plane.get(64), 0);
            assert_eq!(plane.get(65), (65 % max) as u8, "bits={bits} neighbor");
        }
    }

    #[test]
    #[should_panic(expected = "out of 1..=8")]
    fn sliced_plane_rejects_wide_values() {
        let _ = AuxPlane::for_planes(StatePlanes::OpinionPlusPacked { bits: 9 });
    }

    #[test]
    fn aux_plane_width_is_the_declared_width() {
        for bits in 0..=8 {
            assert_eq!(AuxPlane::for_planes(planes_of_width(bits)).bits(), bits);
        }
        // FET packs its clock at ⌈log₂(ℓ+1)⌉ bits for every byte-sized ℓ.
        for ell in 1..=255u32 {
            let planes = FetProtocol::new(ell).unwrap().state_planes();
            let want = (u32::BITS - ell.leading_zeros()) as u8;
            assert_eq!(AuxPlane::for_planes(planes).bits(), want, "ell={ell}");
        }
    }

    #[test]
    fn push_agent_matches_typed_stream() {
        // ℓ = 5, 8 and 200 pack 3-, 4- and 8-bit clocks. All three walk
        // the typed stream.
        for ell in [5, 8, 200] {
            let (typed, bits) = filled_pair(ell, 97);
            for i in 0..97 {
                assert_eq!(typed.output_of(i), bits.output_of(i));
                assert_eq!(
                    typed.states()[i],
                    bits.protocol()
                        .unpack_state(bits.opinion_plane().get(i), bits.aux_value(i)),
                    "ell={ell} agent {i} state diverged through pack/unpack"
                );
            }
            assert_eq!(typed.count_output_ones(), bits.count_output_ones());
        }
    }

    /// The staged bulk fill writes the planes and draws the stream that as
    /// many single pushes would, after a prefix that ends mid-group or on
    /// a group boundary.
    #[test]
    fn push_agents_matches_single_pushes() {
        let opinion = |rng: &mut dyn RngCore| Opinion::from(rng.next_u32().is_multiple_of(3));
        for ell in [5, 8, 200] {
            let proto = FetProtocol::new(ell).unwrap();
            for prefix in [0, 1, 37, 64] {
                for count in [0, 1, 63, 64, 65, 200] {
                    let mut single = BitPopulation::new(proto.clone());
                    let mut bulk = BitPopulation::new(proto.clone());
                    let (mut rs, mut rb) = (rng(), rng());
                    for _ in 0..prefix + count {
                        let o = opinion(&mut rs);
                        single.push_agent(o, &mut rs);
                    }
                    for _ in 0..prefix {
                        let o = opinion(&mut rb);
                        bulk.push_agent(o, &mut rb);
                    }
                    bulk.push_agents(count, &mut |r: &mut dyn RngCore| opinion(r), &mut rb);
                    let case = format!("ell={ell} prefix={prefix} count={count}");
                    assert_eq!(bulk.opinion_plane(), single.opinion_plane(), "{case}");
                    assert_eq!(bulk.aux_plane(), single.aux_plane(), "{case}");
                    assert_eq!(rb.next_u64(), rs.next_u64(), "{case}");
                }
            }
        }
    }

    #[test]
    fn fused_round_matches_typed_population() {
        use crate::population::Population;
        struct Uniform {
            m: u32,
        }
        impl ObservationSource for Uniform {
            fn next_observation(&mut self, rng: &mut dyn RngCore) -> Observation {
                Observation::new(rng.next_u32() % (self.m + 1), self.m).unwrap()
            }
        }
        impl ShardSourceFactory for Uniform {
            fn shard_source(
                &self,
                _range: std::ops::Range<usize>,
            ) -> Box<dyn ObservationSource + '_> {
                Box::new(Uniform { m: self.m })
            }
        }
        for ell in [5, 8, 200] {
            let (mut typed, mut bits) = filled_pair(ell, 77);
            let m = typed.samples_per_round();
            let ctx = RoundContext::new(3);
            let mut rt = rand::rngs::SmallRng::seed_from_u64(42);
            let mut rb = rand::rngs::SmallRng::seed_from_u64(42);
            let mut out_t = vec![Opinion::Zero; 77];
            let mut out_b = vec![Opinion::Zero; 77];
            let source = Uniform { m };
            let ct = typed.step_round(
                &source,
                &ctx,
                RoundStreams::Main(&mut rt),
                None,
                Opinion::One,
                Some(&mut out_t),
            );
            let cb = bits.step_round(
                &source,
                &ctx,
                RoundStreams::Main(&mut rb),
                None,
                Opinion::One,
                Some(&mut out_b),
            );
            assert_eq!(out_t, out_b, "ell={ell}");
            assert_eq!(ct, cb, "ell={ell}");
            // And the in-place round walks the very same stream.
            let (_, mut bits2) = filled_pair(ell, 77);
            let mut r2 = rand::rngs::SmallRng::seed_from_u64(42);
            let c2 = bits2.step_round(
                &source,
                &ctx,
                RoundStreams::Main(&mut r2),
                None,
                Opinion::One,
                None,
            );
            assert_eq!(c2, cb, "ell={ell}");
            for (i, &out) in out_b.iter().enumerate() {
                assert_eq!(bits2.output_of(i), out, "ell={ell}");
            }
        }
    }

    #[test]
    fn correct_decision_popcount_matches_scalar() {
        let (typed, bits) = filled_pair(8, 130);
        for correct in [Opinion::Zero, Opinion::One] {
            assert_eq!(
                typed.count_correct_decisions(correct),
                bits.count_correct_decisions(correct)
            );
        }
    }

    #[test]
    #[should_panic(expected = "declares no packed state layout")]
    fn unpackable_protocol_is_rejected() {
        // ℓ = 300 overflows the byte-valued pack, so FET falls back to
        // Unpacked.
        let _ = BitPopulation::new(FetProtocol::new(300).unwrap());
    }

    #[test]
    fn resident_bytes_counts_packed_planes() {
        // ℓ = 5 → 1-bit opinion + 3-bit sliced clock: 4 bits/agent.
        let (_, bits) = filled_pair(5, 200);
        let want = bits.opinion_plane().resident_bytes();
        assert!(bits.resident_bytes() >= want);
        // Strictly under a byte per agent, far under the typed state.
        assert!(bits.resident_bytes() < 200);
        assert!(bits.resident_bytes() < 200 * std::mem::size_of::<crate::fet::FetState>());
    }

    #[test]
    fn tile_store_of_load_is_identity_and_keeps_padding_zero() {
        // Loads are checked against per-agent `get`, stores against a plane
        // pushed agent by agent (whose padding is zero), so a wrong
        // transpose, a dropped bit or dirty padding all fail here.
        let mut r = rng();
        for bits in 0..=8 {
            let planes = planes_of_width(bits);
            let max = 1u64 << bits;
            for len in [1usize, 63, 64, 65, 130] {
                let pushed = |values: &[u8]| {
                    let mut plane = AuxPlane::for_planes(planes);
                    values.iter().for_each(|&v| plane.push(v));
                    plane
                };
                let mut draw = || {
                    (0..len)
                        .map(|_| (r.next_u64() % max) as u8)
                        .collect::<Vec<_>>()
                };
                let (old, new) = (draw(), draw());
                let mut plane = pushed(&old);
                assert_eq!(plane.words().len(), len.div_ceil(WORD_BITS) * bits as usize);
                let mut tile = [0u8; WORD_BITS];
                let mut view = plane.slice_mut();
                for (w, old) in old.chunks(WORD_BITS).enumerate() {
                    view.load_tile(w, &mut tile);
                    assert_eq!(&tile[..old.len()], old, "{planes} len={len} word {w}");
                    assert!(
                        tile[old.len()..].iter().all(|&v| v == 0),
                        "{planes} len={len} word {w}: padding reads zero"
                    );
                    view.store_tile(w, old.len(), &tile);
                }
                assert_eq!(plane, pushed(&old), "{planes} len={len}: store∘load");
                let mut view = plane.slice_mut();
                for (w, new) in new.chunks(WORD_BITS).enumerate() {
                    tile = [0; WORD_BITS];
                    tile[..new.len()].copy_from_slice(new);
                    view.store_tile(w, new.len(), &tile);
                }
                assert_eq!(plane, pushed(&new), "{planes} len={len}");
            }
        }
    }
}
