//! Work-sharding for the parallel fused round: deterministic split-RNG
//! streams over contiguous agent ranges.
//!
//! The fused round kernel ([`Protocol::step_fused`]) is a single
//! accumulate-as-you-go pass over the contiguous state buffer, which shards
//! naturally by agent range — *if* each shard gets an independent random
//! stream. Threading one sequential RNG through concurrently executing
//! shards would make the trajectory depend on scheduling; instead every
//! shard draws from its own generator, seeded by a **counter-based split**
//! of `(stream seed, round, shard index)` through the same SplitMix64
//! finalizer the workspace's `SeedTree` uses. No RNG state ever crosses a
//! shard boundary, so:
//!
//! * the trajectory is a pure function of `(seed, shard count)` — workers
//!   (OS threads), scheduling, and shard-to-worker assignment cannot
//!   perturb it;
//! * within one shard the kernel is an ordinary sequential pass, so
//!   processing a shard's range in any sub-chunking (one call, or several
//!   calls over consecutive sub-slices sharing the shard's RNG) replays the
//!   identical stream — the *chunking-invariance* half of the determinism
//!   contract;
//! * the per-shard streams are statistically independent of each other and
//!   of the engine's main stream (different SplitMix64 lanes), so the
//!   parallel path samples the same per-round distribution as the
//!   single-threaded fused path — equal in law, not bitwise.
//!
//! [`ShardPlan`] carries the partition (shard count, balanced contiguous
//! ranges) and the per-round stream base; [`ShardSourceFactory`] lets an
//! engine hand each shard a private observation source without any
//! observation buffer existing. [`RoundStreams`] picks between the plan
//! and the engine's main RNG (the single-threaded fused round, which is
//! shard 0 over the whole population). [`SleepLane`], present only in
//! sleepy rounds, marks the agents that sleep through the round. All four
//! are consumed by
//! [`Population::step_round`](crate::population::Population::step_round),
//! whose containers only carve their storage into per-shard pieces and
//! hand them to this module's one shard runner, which dispatches the
//! pieces through [`pool::run_jobs`](crate::pool::run_jobs) and reduces
//! their counters in shard order.
//!
//! # Sleepy rounds
//!
//! Given the round-start configuration each agent's next output is an
//! independent Bernoulli (the paper's Observation 1), and sleeping with
//! probability `s` only mixes it with "keep". So a sleepy round is the
//! fused round under a keep mask: `step_tile_keeping` steps a 64-agent
//! tile through [`Protocol::step_fused`], then gives each sleeper back its
//! round-start state and output. Sleepers draw and discard their
//! observation, which is equal in law and keeps every stream, positional
//! sources included, where a sleep-free round leaves it.
//!
//! [`Protocol::step_fused`]: crate::protocol::Protocol::step_fused

use crate::opinion::Opinion;
use crate::protocol::{FusedCounters, ObservationSource, Protocol, RoundContext};
use fet_stats::rng::{counter_split, counter_stream_base};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::ops::Range;

/// Builds one shard's private observation source.
///
/// The parallel fused round gives every shard its own RNG *and* its own
/// observation source: mean-field observations are a pure function of the
/// round-start global 1-count and the RNG, so a source is just the round's
/// sampler configuration — cheap to instantiate per shard, and never
/// shared across threads (each [`ObservationSource`] is `&mut` inside its
/// shard). The factory itself is shared read-only across workers, hence
/// the `Sync` bound.
///
/// The factory is told which contiguous **agent range** the source will
/// stream for. Mean-field sources ignore it (every agent samples the same
/// global distribution), but *positional* sources — neighborhood sampling,
/// where agent `i`'s observation depends on who agent `i` can see — use
/// `range.start` to align their internal cursor with the shard's first
/// agent. The range is always the one [`ShardPlan::shard_range`] produced
/// for the shard, so a source's draws are a pure function of
/// `(configuration, shard count)` — never of worker scheduling.
pub trait ShardSourceFactory: Sync {
    /// Creates a fresh observation source for the shard covering `range`
    /// (agent indices within the stepped slice). Called once per shard per
    /// round, from the worker thread that runs the shard; the source will
    /// be asked for exactly `range.len()` observations, in agent order.
    fn shard_source(&self, range: Range<usize>) -> Box<dyn ObservationSource + '_>;
}

/// The partition and stream base for one parallel fused round.
///
/// A plan splits `n` agents into [`ShardPlan::shards`] contiguous,
/// **word-aligned** ranges (the `⌈n/64⌉` bit-plane words are balanced
/// across shards, earlier shards take the remainder; see
/// [`ShardPlan::shard_range`]) and assigns shard `s` the RNG
/// [`ShardPlan::rng_for_shard`]`(s)` —
/// seeded by the workspace's canonical counter split
/// ([`fet_stats::rng::counter_stream_base`] over `(stream, round)`, then
/// [`fet_stats::rng::counter_split`] per shard index), a pure derivation
/// with no sequential dependence between rounds or shards.
/// [`ShardPlan::workers`] caps the OS threads that execute the shards; it
/// is **not** part of the stream derivation, which is what makes
/// trajectories reproducible across machines with different core counts
/// for a fixed shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: u32,
    workers: u32,
    round_state: u64,
}

impl ShardPlan {
    /// Creates the plan for one round.
    ///
    /// `stream` is the run-level parallel stream seed (derived once per
    /// engine, independent of the engine's main RNG), `round` the global
    /// round index. Zero `shards` or `workers` are clamped to 1.
    pub fn new(shards: u32, workers: u32, stream: u64, round: u64) -> Self {
        ShardPlan {
            shards: shards.max(1),
            workers: workers.max(1),
            round_state: counter_stream_base(stream, round),
        }
    }

    /// Number of RNG stream partitions. Determines the trajectory (together
    /// with the stream seed); see the [module docs](self).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Maximum OS threads used to execute the shards. Never affects the
    /// trajectory.
    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// The deterministic RNG for shard `s` this round.
    ///
    /// Pure in `(stream, round, s)`: any worker may call it, in any order,
    /// any number of times.
    pub fn rng_for_shard(&self, s: u32) -> SmallRng {
        SmallRng::seed_from_u64(counter_split(self.round_state, u64::from(s)))
    }

    /// The contiguous agent range of shard `s` in a population of `n`
    /// agents.
    ///
    /// Ranges are **word-aligned**: the `⌈n/64⌉` plane words are balanced
    /// across the shards (word counts differ by at most one, earlier
    /// shards take the remainder) and converted back to agent indices, so
    /// every non-empty range starts on a multiple of 64 and only the last
    /// non-empty range may end mid-word (at `n`, where empty trailing
    /// shards then sit). This is what lets bit-plane
    /// populations carve their packed planes with
    /// `split_at_mut` — no shard boundary ever splits a plane word, for
    /// **any** plane width at once: a 64-agent boundary is 1 opinion-plane
    /// word and exactly `bits` interleaved bit-sliced aux words (one
    /// 64-agent slice group). Byte-addressed containers accept any
    /// consecutive partition unchanged. Trailing shards are empty when
    /// there are fewer words than shards.
    ///
    /// Like the shard count itself, the exact partition is part of the
    /// trajectory's keyed determinism contract: a pure function of
    /// `(n, shards, s)`, never of workers or scheduling.
    pub fn shard_range(&self, n: usize, s: u32) -> Range<usize> {
        const WORD: usize = 64;
        let shards = self.shards as usize;
        let s = s as usize;
        debug_assert!(s < shards, "shard index {s} out of {shards}");
        let words = n.div_ceil(WORD);
        let base = words / shards;
        let rem = words % shards;
        let start_w = s * base + s.min(rem);
        let len_w = base + usize::from(s < rem);
        let start = (start_w * WORD).min(n);
        let end = ((start_w + len_w) * WORD).min(n);
        start..end
    }
}

/// The random streams one fused round draws from.
pub enum RoundStreams<'a> {
    /// One stream for the whole population: the single-threaded fused
    /// round, run as shard 0 over `0..n` on the engine's main RNG.
    Main(&'a mut dyn RngCore),
    /// One counter-split stream per shard of the plan
    /// ([`ShardPlan::rng_for_shard`]), executed by up to
    /// [`ShardPlan::workers`] scoped threads.
    Sharded(&'a ShardPlan),
}

impl std::fmt::Debug for RoundStreams<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundStreams::Main(_) => f.write_str("RoundStreams::Main"),
            RoundStreams::Sharded(plan) => {
                f.debug_tuple("RoundStreams::Sharded").field(plan).finish()
            }
        }
    }
}

/// One round's sleep lane (see the [module docs](self#sleepy-rounds)):
/// every agent sleeps with probability `prob`, drawn from a run-level seed
/// split by `(round, shard range start)` with the shard RNGs' counter
/// split, so never by workers or scheduling.
#[derive(Debug, Clone, Copy)]
pub struct SleepLane {
    prob: f64,
    round_base: u64,
}

impl SleepLane {
    /// The lane of round `round`, from the run-level sleep seed `stream`.
    pub fn new(prob: f64, stream: u64, round: u64) -> Self {
        SleepLane {
            prob,
            round_base: counter_stream_base(stream, round),
        }
    }

    /// The keep masks of the shard whose range starts at agent `start`, in
    /// agent order: each call masks the next `agents ≤ 64` agents, bit `j`
    /// set when agent `j` sleeps.
    pub(crate) fn masks(&self, start: usize) -> impl FnMut(usize) -> u64 {
        let prob = self.prob;
        let mut rng = SmallRng::seed_from_u64(counter_split(self.round_base, start as u64));
        move |agents| {
            (0..agents).fold(0, |mask, j| {
                mask | (u64::from(rng.gen::<f64>() < prob) << j)
            })
        }
    }
}

/// Steps a tile of at most 64 agents through [`Protocol::step_fused`],
/// then gives every agent that sleeps under the tile's keep mask back its
/// round-start state and output; the counters count the outputs left.
#[allow(clippy::too_many_arguments)]
pub(crate) fn step_tile_keeping<P: Protocol>(
    protocol: &P,
    states: &mut [P::State],
    masks: &mut impl FnMut(usize) -> u64,
    source: &mut dyn ObservationSource,
    ctx: &RoundContext,
    rng: &mut dyn RngCore,
    correct: Opinion,
    outputs: &mut [Opinion],
) -> FusedCounters {
    let keep = masks(states.len());
    let kept: [Option<P::State>; 64] =
        std::array::from_fn(|j| ((keep >> j) & 1 == 1).then(|| states[j].clone()));
    protocol.step_fused(states, source, ctx, rng, correct, outputs);
    for (j, state) in kept.into_iter().enumerate() {
        if let Some(state) = state {
            outputs[j] = protocol.output(&state);
            states[j] = state;
        }
    }
    let ones = outputs.iter().filter(|o| o.is_one()).count() as u64;
    let correct = outputs.iter().filter(|&&o| o == correct).count() as u64;
    FusedCounters { ones, correct }
}

/// Agent storage a fused round can carve into disjoint per-shard pieces.
pub(crate) trait ShardSlices: Send + Sized {
    /// Splits off the first `agents` agents, returning `(head, tail)`.
    /// Shard boundaries come from [`ShardPlan::shard_range`], so `agents`
    /// is a multiple of 64 whenever the tail is non-empty.
    fn split_at_agent(self, agents: usize) -> (Self, Self);
}

impl<T: Send> ShardSlices for &mut [T] {
    fn split_at_agent(self, agents: usize) -> (Self, Self) {
        self.split_at_mut(agents)
    }
}

impl<A: ShardSlices, B: ShardSlices> ShardSlices for (A, B) {
    fn split_at_agent(self, agents: usize) -> (Self, Self) {
        let (a, a_rest) = self.0.split_at_agent(agents);
        let (b, b_rest) = self.1.split_at_agent(agents);
        ((a, b), (a_rest, b_rest))
    }
}

/// Runs one fused round over the `n` agents held in `storage`: the shard
/// runner behind every [`Population::step_round`](crate::population::Population::step_round).
///
/// `step(piece, range, source, rng)` steps one storage piece, the agents
/// `range` of the population, with that shard's observation source and RNG.
/// Under [`RoundStreams::Main`] the whole storage is one piece over `0..n`
/// stepped with the main RNG. Under [`RoundStreams::Sharded`] the storage
/// is carved along [`ShardPlan::shard_range`], every non-empty shard gets
/// [`ShardPlan::rng_for_shard`] and a fresh
/// [`ShardSourceFactory::shard_source`] for its range, and the per-shard
/// counters are reduced in shard order — so the result never depends on
/// the worker count or on which worker finished first.
///
/// # Panics
///
/// Propagates the panic of a shard's `step`.
pub(crate) fn run_round<S, F>(
    storage: S,
    n: usize,
    sources: &dyn ShardSourceFactory,
    streams: RoundStreams<'_>,
    step: F,
) -> FusedCounters
where
    S: ShardSlices,
    F: Fn(S, Range<usize>, &mut dyn ObservationSource, &mut dyn RngCore) -> FusedCounters + Sync,
{
    let plan = match streams {
        RoundStreams::Main(rng) => {
            let mut source = sources.shard_source(0..n);
            return step(storage, 0..n, source.as_mut(), rng);
        }
        RoundStreams::Sharded(plan) => plan,
    };
    // Carve the storage into per-shard pieces once; disjointness is what
    // lets the shards run concurrently without any synchronization on the
    // hot path.
    let mut jobs: Vec<(u32, Range<usize>, S)> = Vec::with_capacity(plan.shards() as usize);
    let mut rest = storage;
    for s in 0..plan.shards() {
        let range = plan.shard_range(n, s);
        if range.is_empty() {
            continue;
        }
        let (piece, tail) = rest.split_at_agent(range.len());
        rest = tail;
        jobs.push((s, range, piece));
    }
    // Each shard's counters land in that shard's slot and are reduced in
    // shard order, so the totals cannot depend on which worker finished
    // first.
    let mut per_shard = vec![FusedCounters::default(); plan.shards() as usize];
    crate::pool::run_jobs(
        jobs,
        plan.workers() as usize,
        |(s, range, piece)| {
            let mut rng = plan.rng_for_shard(s);
            let mut source = sources.shard_source(range.clone());
            (s, step(piece, range, source.as_mut(), &mut rng))
        },
        |(s, counters)| {
            per_shard[s as usize] = counters;
            true
        },
    );
    let mut totals = FusedCounters::default();
    for c in per_shard {
        totals += c;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn ranges_partition_the_population_word_aligned() {
        for n in [0usize, 1, 2, 5, 63, 64, 65, 100, 101, 128, 1000, 4099] {
            for shards in [1u32, 2, 3, 7, 16] {
                let plan = ShardPlan::new(shards, 1, 42, 0);
                let words = n.div_ceil(64);
                let mut next = 0usize;
                for s in 0..shards {
                    let r = plan.shard_range(n, s);
                    assert_eq!(r.start, next, "n={n} shards={shards} s={s}");
                    next = r.end;
                    // Every non-empty range starts on a word boundary
                    // (empty trailing ranges sit at n, wherever that is)…
                    if !r.is_empty() {
                        assert_eq!(r.start % 64, 0, "n={n} shards={shards} s={s}");
                    }
                    // …and word counts are balanced: they differ by at
                    // most one across shards.
                    let r_words = r.end.div_ceil(64) - r.start / 64;
                    assert!(
                        r_words <= words / shards as usize + 1,
                        "n={n} shards={shards} s={s}: {r_words} words"
                    );
                }
                assert_eq!(next, n, "ranges must cover exactly [0, n)");
            }
        }
    }

    #[test]
    fn boundaries_align_for_every_plane_width() {
        // A shard boundary at a multiple of 64 agents falls on a whole
        // number of plane words for every plane the bit-plane container
        // uses: opinion words (64 agents) and interleaved bit-sliced aux
        // groups (64 agents spread over `bits` consecutive words). The
        // split arithmetic each plane applies must therefore be exact at
        // every non-final boundary.
        for n in [64usize, 65, 129, 1000, 4099] {
            for shards in [2u32, 3, 7] {
                let plan = ShardPlan::new(shards, 1, 42, 0);
                for s in 0..shards {
                    let r = plan.shard_range(n, s);
                    if r.is_empty() || r.end == n {
                        continue; // the final range may end mid-word
                    }
                    assert!(r.start.is_multiple_of(64) && r.end.is_multiple_of(64));
                    // Bit-sliced plane: group = 64 agents = `bits` words,
                    // so the word split `len/64 · bits` is exact for all
                    // widths.
                    for bits in 0usize..=8 {
                        assert_eq!(
                            (r.len() / 64) * bits,
                            r.len() * bits / 64,
                            "n={n} shards={shards} s={s} bits={bits}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_small_populations_leave_trailing_shards_empty() {
        // Three agents all share word 0, so shard 0 takes the whole
        // population and the other shards come back empty — word
        // alignment refuses to split the agents' shared `u64`.
        let plan = ShardPlan::new(8, 8, 1, 0);
        for s in 0..8 {
            let r = plan.shard_range(3, s);
            assert_eq!(r.len(), if s == 0 { 3 } else { 0 });
        }
        // With two words and eight shards, the second word goes to
        // shard 1.
        for s in 0..8 {
            let r = plan.shard_range(100, s);
            let want = match s {
                0 => 0..64,
                1 => 64..100,
                _ => 100..100,
            };
            assert_eq!(r, want, "s={s}");
        }
    }

    #[test]
    fn shard_rngs_are_counter_based_and_distinct() {
        let plan = ShardPlan::new(4, 2, 7, 3);
        // Pure: same (stream, round, shard) ⇒ same stream, in any order.
        let a: Vec<u64> = (0..4).map(|s| plan.rng_for_shard(s).next_u64()).collect();
        let b: Vec<u64> = (0..4)
            .rev()
            .map(|s| plan.rng_for_shard(s).next_u64())
            .collect();
        assert_eq!(a, b.into_iter().rev().collect::<Vec<_>>());
        // Distinct across shards, rounds, and streams.
        for s in 1..4 {
            assert_ne!(a[0], a[s as usize]);
        }
        assert_ne!(
            plan.rng_for_shard(0).next_u64(),
            ShardPlan::new(4, 2, 7, 4).rng_for_shard(0).next_u64()
        );
        assert_ne!(
            plan.rng_for_shard(0).next_u64(),
            ShardPlan::new(4, 2, 8, 3).rng_for_shard(0).next_u64()
        );
    }

    #[test]
    fn workers_do_not_enter_the_stream_derivation() {
        let one = ShardPlan::new(4, 1, 99, 5);
        let many = ShardPlan::new(4, 64, 99, 5);
        for s in 0..4 {
            assert_eq!(
                one.rng_for_shard(s).next_u64(),
                many.rng_for_shard(s).next_u64()
            );
        }
    }

    #[test]
    fn keep_masks_sleep_at_the_lane_probability() {
        let mut masks = SleepLane::new(0.3, 9, 4).masks(0);
        let tiles = 800u32;
        let slept: u32 = (0..tiles).map(|_| masks(64).count_ones()).sum();
        let frac = f64::from(slept) / f64::from(tiles * 64);
        assert!((frac - 0.3).abs() < 0.01, "sleep fraction {frac}");
        assert_eq!(masks(5) >> 5, 0, "bits past the tile stay clear");
        assert_eq!(SleepLane::new(1.0, 9, 4).masks(0)(64), u64::MAX);
        assert_eq!(SleepLane::new(0.0, 9, 4).masks(0)(64), 0);
    }

    #[test]
    fn keep_masks_are_pure_in_round_and_range_start() {
        let draw = |lane: SleepLane, start: usize| lane.masks(start)(64);
        let lane = SleepLane::new(0.5, 7, 3);
        assert_eq!(draw(lane, 64), draw(lane, 64));
        assert_ne!(draw(lane, 0), draw(lane, 64));
        assert_ne!(draw(lane, 0), draw(SleepLane::new(0.5, 7, 4), 0));
        assert_ne!(draw(lane, 0), draw(SleepLane::new(0.5, 8, 3), 0));
    }

    /// Observations drawn uniformly from the kernel RNG, so any difference
    /// in what a tile draws shows up downstream.
    struct Uniform(u32);

    impl ObservationSource for Uniform {
        fn next_observation(&mut self, rng: &mut dyn RngCore) -> crate::observation::Observation {
            crate::observation::Observation::new(rng.next_u32() % (self.0 + 1), self.0).unwrap()
        }
    }

    #[test]
    fn masked_tiles_restore_sleepers_and_draw_like_unmasked_tiles() {
        let protocol = crate::fet::FetProtocol::new(8).unwrap();
        let ctx = RoundContext::new(0);
        let mut init = SmallRng::seed_from_u64(1);
        let start: Vec<_> = (0..50)
            .map(|i| protocol.init_state(Opinion::from(i % 3 == 0), &mut init))
            .collect();
        let lane = SleepLane::new(0.3, 5, 0);
        let keep = lane.masks(0)(50);
        assert!(
            keep != 0 && keep != (1 << 50) - 1,
            "the tile needs both kinds"
        );
        let step = |lane: Option<SleepLane>| {
            let mut states = start.clone();
            let mut outputs = vec![Opinion::Zero; 50];
            let mut rng = SmallRng::seed_from_u64(2);
            let mut source = Uniform(protocol.samples_per_round());
            let (s, r, c, o) = (&mut states, &mut rng, Opinion::One, &mut outputs);
            let counters = match lane {
                Some(lane) => {
                    let masks = &mut lane.masks(0);
                    step_tile_keeping(&protocol, s, masks, &mut source, &ctx, r, c, o)
                }
                None => protocol.step_fused(s, &mut source, &ctx, r, c, o),
            };
            (states, outputs, counters, rng.next_u64())
        };
        let (awake, awake_out, _, awake_next) = step(None);
        let (masked, masked_out, counters, masked_next) = step(Some(lane));
        assert_eq!(
            masked_next, awake_next,
            "sleepers must draw like awake agents"
        );
        for j in 0..50 {
            if (keep >> j) & 1 == 1 {
                assert_eq!(masked[j], start[j], "sleeper {j} moved");
                assert_eq!(masked_out[j], protocol.output(&start[j]));
            } else {
                assert_eq!(masked[j], awake[j], "awake agent {j}");
                assert_eq!(masked_out[j], awake_out[j]);
            }
        }
        let ones = masked_out.iter().filter(|o| o.is_one()).count() as u64;
        assert_eq!(
            counters,
            FusedCounters {
                ones,
                correct: ones
            }
        );
    }

    #[test]
    fn zero_inputs_are_clamped() {
        let plan = ShardPlan::new(0, 0, 0, 0);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.workers(), 1);
        assert_eq!(plan.shard_range(10, 0), 0..10);
    }

    #[test]
    fn stream_derivation_is_pinned() {
        // Fixed vectors (from the published SplitMix64 reference) guard
        // the counter-split recipe against drift: every parallel
        // trajectory in the workspace is keyed by these values.
        assert_eq!(counter_stream_base(0, 0), 0);
        assert_eq!(counter_stream_base(0, 1), 0xE220_A839_7B1D_CDAF);
        assert_eq!(
            counter_split(0, 0),
            fet_stats::rng::splitmix64_mix(0x5692_161D_100B_05E5)
        );
    }
}
