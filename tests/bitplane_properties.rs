//! Property-based tests pinning the bit-plane representation.
//!
//! The bit-plane contract has four legs, each fuzzed here over population
//! sizes that stress word boundaries (`n = 1`, `n < 64`, `n` not a
//! multiple of 64) and shard counts that would split mid-word if ranges
//! were agent-balanced instead of word-aligned:
//!
//! * **plane correctness** — push/get/set round-trip through the packed
//!   words, and `count_ones` (a popcount) equals a scalar recount;
//! * **representation equivalence** — a `BitPopulation` fused round
//!   (sequential, parallel, and the in-place variants) writes the same
//!   outputs, counters, and final decisions as a `TypedPopulation`
//!   driven by the identical streams, for every `ℓ ≤ 255` — so every
//!   bit-sliced clock-plane width from 1 to 8 bits goes through the tile
//!   kernel's load and store;
//! * **popcount invariant** — after *every* round,
//!   `count_output_ones()` equals the scalar `output_of` recount;
//! * **clock-plane round trip** — FET's `pack_state`/`unpack_state` are
//!   mutually inverse over the whole `(opinion, count ∈ [0, ℓ])` domain
//!   for every byte-sized `ℓ`;
//! * **packed-aux round trip** — the bit-sliced aux plane stores and
//!   returns every clock value at every width, for every `ℓ ≤ 255` at
//!   word-boundary lengths, and a `BitPopulation` over any such `ℓ`
//!   stays stream-identical to the typed container;
//! * **word-kernel equivalence** — the word-at-a-time threshold kernel
//!   (voter, 3-majority) produces the same trajectory, counters, and
//!   popcounts as the tile kernel (the protocol's fused kernel over 64
//!   unpacked states per plane word), sequentially and sharded;
//! * **unanimous tiles** — a tile that one unanimous run covers steps on
//!   its packed words (FET's `step_unanimous_tile`), or through the fused
//!   kernel for a protocol without that hook, and leaves the planes, the
//!   counters and the RNG exactly where the typed container's round does.

use fet::prelude::*;
use fet_core::bitplane::{AuxPlane, BitPlane, BitPopulation};
use fet_core::fet::FetState;
use fet_core::memory::MemoryFootprint;
use fet_core::observation::Observation;
use fet_core::protocol::{ObservationSource, RoundContext, StatePlanes};
use fet_protocols::three_majority::ThreeMajorityProtocol;
use fet_protocols::voter::VoterProtocol;
use proptest::prelude::*;
use rand::RngCore;
use rand::SeedableRng;

/// Delegating wrapper that hides the inner protocol's
/// `opinion_threshold()`, forcing `BitPopulation` down the tile kernel.
/// The step rule and RNG usage are untouched, so the wrapper is the
/// stream-identical baseline the word kernel must match.
#[derive(Debug, Clone, Copy)]
struct PerAgent<P>(P);

impl<P: Protocol> Protocol for PerAgent<P> {
    type State = P::State;

    fn name(&self) -> &str {
        "per-agent-baseline"
    }

    fn samples_per_round(&self) -> u32 {
        self.0.samples_per_round()
    }

    fn init_state(&self, opinion: Opinion, rng: &mut dyn RngCore) -> Self::State {
        self.0.init_state(opinion, rng)
    }

    fn step(
        &self,
        state: &mut Self::State,
        obs: &Observation,
        ctx: &RoundContext,
        rng: &mut dyn RngCore,
    ) -> Opinion {
        self.0.step(state, obs, ctx, rng)
    }

    fn output(&self, state: &Self::State) -> Opinion {
        self.0.output(state)
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        self.0.memory_footprint()
    }

    fn state_planes(&self) -> StatePlanes {
        self.0.state_planes()
    }

    // opinion_threshold() deliberately NOT forwarded: the default `None`
    // is the whole point of the wrapper.

    fn pack_state(&self, state: &Self::State) -> (Opinion, u8) {
        self.0.pack_state(state)
    }

    fn unpack_state(&self, opinion: Opinion, aux: u8) -> Self::State {
        self.0.unpack_state(opinion, aux)
    }
}

/// A deterministic mean-field-like source: draws from the round RNG, so
/// any stream divergence between representations is visible immediately.
struct UniformSource {
    m: u32,
}

impl ObservationSource for UniformSource {
    fn next_observation(&mut self, rng: &mut dyn RngCore) -> Observation {
        Observation::new(rng.next_u32() % (self.m + 1), self.m).unwrap()
    }
}

struct UniformFactory {
    m: u32,
}

impl ShardSourceFactory for UniformFactory {
    fn shard_source(&self, _range: std::ops::Range<usize>) -> Box<dyn ObservationSource + '_> {
        Box::new(UniformSource { m: self.m })
    }
}

/// How the agents of one 64-agent tile observe in a [`TileScript`] round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tile {
    /// Every agent sees count 0.
    Zeros,
    /// Every agent sees count `m`.
    Ones,
    /// Every agent draws a uniform count from the round RNG.
    Mixed,
}

/// A positional source playing a per-tile script. It hands each unanimous
/// tile whole to the bit-plane kernel through `unanimous_run`, and the
/// same agents to the typed kernel as runs through `repeats`, so both
/// kernels walk one stream; mixed tiles draw, so a kernel that loses its
/// place in the RNG stream shows in the states.
struct TileScript<'a> {
    tiles: &'a [Tile],
    m: u32,
    /// The next agent to observe.
    next: usize,
    /// The last observation's count, when the script made it unanimous.
    last: Option<u32>,
    answered: &'a std::sync::atomic::AtomicUsize,
}

impl TileScript<'_> {
    fn scripted(&self, agent: usize) -> Option<u32> {
        match self.tiles[agent / 64] {
            Tile::Zeros => Some(0),
            Tile::Ones => Some(self.m),
            Tile::Mixed => None,
        }
    }
}

impl ObservationSource for TileScript<'_> {
    fn next_observation(&mut self, rng: &mut dyn RngCore) -> Observation {
        self.last = self.scripted(self.next);
        self.next += 1;
        let ones = self.last.unwrap_or_else(|| rng.next_u32() % (self.m + 1));
        Observation::new(ones, self.m).unwrap()
    }

    fn reports_runs(&self) -> bool {
        true
    }

    fn repeats(&mut self, max: usize) -> usize {
        let mut repeats = 0;
        while repeats < max && self.last.is_some() && self.scripted(self.next) == self.last {
            self.next += 1;
            repeats += 1;
        }
        repeats
    }

    fn unanimous_run(&mut self, _rng: &mut dyn RngCore, agents: usize) -> Option<Observation> {
        assert_eq!(self.next % 64, 0, "asked in the middle of a tile");
        let ones = self.scripted(self.next)?;
        self.next += agents;
        self.last = Some(ones);
        self.answered
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Some(Observation::new(ones, self.m).unwrap())
    }
}

struct TileScriptFactory {
    tiles: Vec<Tile>,
    m: u32,
    answered: std::sync::atomic::AtomicUsize,
}

impl ShardSourceFactory for TileScriptFactory {
    fn shard_source(&self, range: std::ops::Range<usize>) -> Box<dyn ObservationSource + '_> {
        Box::new(TileScript {
            tiles: &self.tiles,
            m: self.m,
            next: range.start,
            last: None,
            answered: &self.answered,
        })
    }
}

/// Fills both representations from the same opinion sequence and the same
/// per-agent init stream, so they start bit-identical.
fn twin_populations(
    ell: u32,
    n: usize,
    seed: u64,
) -> (TypedPopulation<FetProtocol>, BitPopulation<FetProtocol>) {
    let mut typed = TypedPopulation::new(FetProtocol::new(ell).unwrap());
    let mut bits = BitPopulation::new(FetProtocol::new(ell).unwrap());
    let mut rng_a = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut rng_b = rand::rngs::SmallRng::seed_from_u64(seed);
    for i in 0..n {
        let opinion = if i % 3 == 0 {
            Opinion::One
        } else {
            Opinion::Zero
        };
        typed.push_agent(opinion, &mut rng_a);
        bits.push_agent(opinion, &mut rng_b);
    }
    (typed, bits)
}

/// Population sizes that stress word boundaries: 1, sub-word, exactly one
/// word, one-past, and larger non-multiples of 64.
fn boundary_sizes(extra: usize) -> Vec<usize> {
    let mut sizes = vec![1, 2, 63, 64, 65, 127, 128, 129, 200, extra.max(1)];
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

proptest! {
    /// Plane level: push/get round-trips arbitrary bit patterns across
    /// word boundaries; set flips survive; count_ones is the scalar count.
    #[test]
    fn bit_plane_push_get_set_roundtrip(
        len in 1usize..300,
        pattern_seed in any::<u64>(),
        flips in 0usize..20,
    ) {
        let mut pattern_rng = rand::rngs::SmallRng::seed_from_u64(pattern_seed);
        let pattern: Vec<bool> = (0..len).map(|_| pattern_rng.next_u64() & 1 == 1).collect();
        let mut plane = BitPlane::new();
        for &b in &pattern {
            plane.push(Opinion::from(b));
        }
        prop_assert_eq!(plane.len(), pattern.len());
        let mut mirror = pattern.clone();
        for _ in 0..flips {
            let idx = pattern_rng.next_u64() as usize % mirror.len();
            mirror[idx] = !mirror[idx];
            plane.set(idx, Opinion::from(mirror[idx]));
        }
        for (i, &b) in mirror.iter().enumerate() {
            prop_assert_eq!(plane.get(i), Opinion::from(b), "bit {}", i);
        }
        let scalar = mirror.iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(plane.count_ones(), scalar);
        // The word storage is exactly ⌈n/64⌉ words; bits past `len` in
        // the last word stay zero (push never smears).
        prop_assert_eq!(plane.words().len(), mirror.len().div_ceil(64));
        if !mirror.len().is_multiple_of(64) {
            let tail = plane.words()[mirror.len() / 64] >> (mirror.len() % 64);
            prop_assert_eq!(tail, 0, "tail bits past len must stay clear");
        }
    }

    /// Round level: sequential fused rounds on twin populations driven by
    /// identical streams stay bit-identical — outputs, counters, packed
    /// decisions, and the popcount-vs-scalar-recount invariant after
    /// every round. `ℓ` spans every clock-plane width.
    #[test]
    fn fused_rounds_match_typed_and_keep_popcount_exact(
        extra_n in 1usize..400,
        ell in 1u32..=255,
        seed in 0u64..500,
        rounds in 1u64..5,
    ) {
        for n in boundary_sizes(extra_n) {
            let (mut typed, mut bits) = twin_populations(ell, n, seed);
            let m = typed.samples_per_round();
            let mut rng_a = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xBEEF);
            let mut rng_b = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xBEEF);
            for round in 0..rounds {
                let ctx = RoundContext::new(round);
                let mut out_a = vec![Opinion::Zero; n];
                let mut out_b = vec![Opinion::Zero; n];
                let ca = typed.step_round(
            &UniformFactory { m },
            &ctx,
            RoundStreams::Main(&mut rng_a),
            None,
            Opinion::One,
            Some(&mut out_a),
        );
                let cb = bits.step_round(
            &UniformFactory { m },
            &ctx,
            RoundStreams::Main(&mut rng_b),
            None,
            Opinion::One,
            Some(&mut out_b),
        );
                prop_assert_eq!(&out_a, &out_b, "n={} round={}", n, round);
                prop_assert_eq!(ca, cb);
                // Popcount global count ≡ scalar recount, every round.
                let scalar = (0..n)
                    .filter(|&i| bits.output_of(i).is_one())
                    .count() as u64;
                prop_assert_eq!(bits.count_output_ones(), scalar);
                prop_assert_eq!(cb.ones, scalar);
            }
            for i in 0..n {
                prop_assert_eq!(typed.output_of(i), bits.output_of(i));
                prop_assert_eq!(typed.decision_of(i), bits.decision_of(i));
            }
            prop_assert_eq!(
                typed.count_correct_decisions(Opinion::One),
                bits.count_correct_decisions(Opinion::One)
            );
        }
    }

    /// Shard level: parallel rounds whose agent-balanced split would land
    /// mid-word (arbitrary shard counts against boundary-stressing sizes)
    /// match the typed container and the in-place round — word-aligned
    /// ranges change nothing but where the split falls, at every
    /// clock-plane width.
    #[test]
    fn parallel_rounds_match_across_representations_and_entry_points(
        extra_n in 1usize..400,
        ell in 1u32..=255,
        shards in 2u32..12,
        workers in 1u32..5,
        stream in 0u64..300,
    ) {
        for n in boundary_sizes(extra_n) {
            let plan = ShardPlan::new(shards, workers, stream, 1);
            let ctx = RoundContext::new(1);
            let (mut typed, mut bits) = twin_populations(ell, n, stream);
            let (_, mut bits_inplace) = twin_populations(ell, n, stream);
            let m = typed.samples_per_round();
            let factory = UniformFactory { m };
            let mut out_a = vec![Opinion::Zero; n];
            let mut out_b = vec![Opinion::Zero; n];
            let ca = typed.step_round(&factory, &ctx, RoundStreams::Sharded(&plan), None, Opinion::One, Some(&mut out_a));
            let cb = bits.step_round(&factory, &ctx, RoundStreams::Sharded(&plan), None, Opinion::One, Some(&mut out_b));
            let ci = bits_inplace.step_round(&factory, &ctx, RoundStreams::Sharded(&plan), None, Opinion::One, None);
            prop_assert_eq!(&out_a, &out_b, "n={} shards={}", n, shards);
            prop_assert_eq!(ca, cb);
            prop_assert_eq!(cb, ci, "the in-place round must reduce the same counters");
            for i in 0..n {
                prop_assert_eq!(bits.output_of(i), bits_inplace.output_of(i), "agent {}", i);
                prop_assert_eq!(typed.output_of(i), bits.output_of(i), "agent {}", i);
            }
            prop_assert_eq!(bits.count_output_ones(), ca.ones);
        }
    }

    /// State level: FET's clock plane survives the byte round trip over
    /// the whole domain — every `ℓ ≤ 255`, every stored count in
    /// `[0, ℓ]`, both opinions.
    #[test]
    fn fet_clock_plane_pack_unpack_roundtrip(ell in 1u32..=255) {
        let protocol = FetProtocol::new(ell).unwrap();
        for count in 0..=ell {
            for opinion in [Opinion::Zero, Opinion::One] {
                let state = protocol.unpack_state(opinion, count as u8);
                let (packed_opinion, packed_aux) = protocol.pack_state(&state);
                prop_assert_eq!(packed_opinion, opinion);
                prop_assert_eq!(u32::from(packed_aux), count);
                prop_assert_eq!(protocol.output(&state), opinion);
            }
        }
    }

    /// Container level, full `ℓ` range: a `BitPopulation` built from the
    /// same init stream as a `TypedPopulation` holds bit-identical
    /// opinions and packed clocks, whichever aux width `ℓ` selects
    /// (`⌈log₂(ℓ+1)⌉` bits, from 1 to 8).
    #[test]
    fn bit_population_matches_typed_for_any_ell(
        ell in 1u32..=255,
        extra_n in 1usize..200,
        seed in 0u64..500,
    ) {
        for n in [63usize, 64, 65, extra_n.max(1)] {
            let (typed, bits) = twin_populations(ell, n, seed);
            let protocol = FetProtocol::new(ell).unwrap();
            for i in 0..n {
                let (opinion, aux) = protocol.pack_state(&typed.states()[i]);
                prop_assert_eq!(bits.opinion_plane().get(i), opinion, "agent {}", i);
                prop_assert_eq!(bits.aux_value(i), aux, "agent {} ell {}", i, ell);
            }
        }
    }

    /// Kernel level: the word-at-a-time threshold kernel (voter `m = 1`
    /// threshold 1, 3-majority `m = 3` threshold 2) is bit-identical to
    /// the tile kernel — outputs, counters, and popcounts — across
    /// word-boundary sizes, multiple rounds, and the sharded parallel
    /// entry point.
    #[test]
    fn word_kernel_matches_per_agent_kernel(
        extra_n in 1usize..400,
        seed in 0u64..500,
        rounds in 1u64..4,
        shards in 2u32..8,
    ) {
        for n in [1usize, 63, 64, 65, 129, extra_n.max(1)] {
            word_kernel_case(VoterProtocol::new(), n, seed, rounds, shards);
            word_kernel_case(ThreeMajorityProtocol::new(), n, seed, rounds, shards);
        }
    }

    /// Word-path level: tiles inside one unanimous run of count 0 or `m`
    /// step on their packed words (FET), or through the fused kernel over
    /// the run's observation (the [`PerAgent`] wrapper, which has no word
    /// rule). Both leave the opinion plane, every stored clock, the
    /// counters and the RNG's next word where the typed container's round
    /// does: at every clock width, at word-boundary sizes with a partial
    /// trailing tile, in sequential and 3-shard rounds, in place and with
    /// per-agent outputs.
    #[test]
    fn unanimous_tiles_step_on_packed_words_like_typed_rounds(
        extra_n in 1usize..400,
        ell in 1u32..=255,
        seed in any::<u64>(),
    ) {
        for n in boundary_sizes(extra_n) {
            unanimous_tile_case(ell, n, seed);
        }
    }
}

/// One unanimous-tile case: two scripted rounds (the second meets the
/// clocks the first stored, so ties at both counts come up) from explicit
/// states whose clocks favour the tie values 0 and `ℓ`, in each of the
/// four round shapes, on a typed container, a FET bit-plane container and
/// a bit-plane container of the hook-less [`PerAgent`] wrapper.
fn unanimous_tile_case(ell: u32, n: usize, seed: u64) {
    let fet = FetProtocol::new(ell).unwrap();
    let m = fet.samples_per_round();
    let mut script_rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let states: Vec<FetState> = (0..n)
        .map(|_| FetState {
            opinion: Opinion::from(script_rng.next_u32() & 1 == 1),
            prev_count_second_half: match script_rng.next_u32() % 3 {
                0 => 0,
                1 => ell,
                _ => script_rng.next_u32() % (ell + 1),
            },
        })
        .collect();
    let scripts: Vec<TileScriptFactory> = (0..2)
        .map(|_| TileScriptFactory {
            tiles: (0..n.div_ceil(64))
                .map(|_| {
                    [
                        Tile::Zeros,
                        Tile::Ones,
                        Tile::Mixed,
                        Tile::Zeros,
                        Tile::Ones,
                    ][script_rng.next_u32() as usize % 5]
                })
                .collect(),
            m,
            answered: Default::default(),
        })
        .collect();
    for (sharded, in_place) in [(false, false), (false, true), (true, false), (true, true)] {
        let case = format!("ell={ell} n={n} seed={seed} sharded={sharded} in_place={in_place}");
        let mut typed = TypedPopulation::from_states(fet.clone(), states.clone());
        let mut word = BitPopulation::from_states(fet.clone(), &states);
        let mut hookless = BitPopulation::from_states(PerAgent(fet.clone()), &states);
        let rngs: [rand::rngs::SmallRng; 3] =
            std::array::from_fn(|_| rand::rngs::SmallRng::seed_from_u64(seed ^ 0x5C21));
        let [mut rng_t, mut rng_w, mut rng_h] = rngs;
        for (round, script) in scripts.iter().enumerate() {
            let ctx = RoundContext::new(round as u64);
            let plan = sharded.then(|| ShardPlan::new(3, 2, seed, round as u64));
            let streams = |rng| match &plan {
                Some(plan) => RoundStreams::Sharded(plan),
                None => RoundStreams::Main(rng),
            };
            let mut out_t = vec![Opinion::Zero; n];
            let mut out_w = vec![Opinion::Zero; n];
            let mut out_h = vec![Opinion::Zero; n];
            let ct = typed.step_round(
                script,
                &ctx,
                streams(&mut rng_t),
                None,
                Opinion::One,
                Some(&mut out_t),
            );
            let (out_w_slot, out_h_slot) = if in_place {
                (None, None)
            } else {
                (Some(&mut out_w[..]), Some(&mut out_h[..]))
            };
            let cw = word.step_round(
                script,
                &ctx,
                streams(&mut rng_w),
                None,
                Opinion::One,
                out_w_slot,
            );
            let ch = hookless.step_round(
                script,
                &ctx,
                streams(&mut rng_h),
                None,
                Opinion::One,
                out_h_slot,
            );
            assert_eq!(cw, ct, "{case} round={round}: counters");
            assert_eq!(ch, ct, "{case} round={round}: hook-less counters");
            if !in_place {
                assert_eq!(out_w, out_t, "{case} round={round}");
                assert_eq!(out_h, out_t, "{case} round={round}");
            }
            // Planes packed from the typed states, padding included.
            let packed = BitPopulation::from_states(fet.clone(), typed.states());
            for (label, planes) in [
                ("word", word.opinion_plane()),
                ("hook-less", hookless.opinion_plane()),
            ] {
                assert_eq!(
                    planes,
                    packed.opinion_plane(),
                    "{case} round={round}: {label} opinions"
                );
            }
            assert_eq!(
                word.aux_plane(),
                packed.aux_plane(),
                "{case} round={round}: clocks"
            );
            assert_eq!(
                hookless.aux_plane(),
                packed.aux_plane(),
                "{case} round={round}: hook-less clocks"
            );
            for (i, state) in typed.states().iter().enumerate() {
                assert_eq!(
                    u32::from(word.aux_value(i)),
                    state.prev_count_second_half,
                    "{case} agent {i}"
                );
            }
        }
        assert_eq!(
            rng_w.next_u64(),
            rng_t.clone().next_u64(),
            "{case}: RNG position"
        );
        assert_eq!(
            rng_h.next_u64(),
            rng_t.next_u64(),
            "{case}: hook-less RNG position"
        );
    }
    for script in &scripts {
        let unanimous = script.tiles.iter().any(|&tile| tile != Tile::Mixed);
        let answered = script.answered.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(answered > 0, unanimous, "ell={ell} n={n}: tiles answered");
    }
}

/// One word-kernel equivalence case: steps a word-path population and a
/// tile-kernel twin (the [`PerAgent`] wrapper) through `rounds` fused
/// rounds plus one sharded round from identical streams and asserts
/// bit-identity at every level.
fn word_kernel_case<P>(protocol: P, n: usize, seed: u64, rounds: u64, shards: u32)
where
    P: Protocol + Copy + std::fmt::Debug + Send + Sync,
{
    let m = protocol.samples_per_round();
    let mut word = BitPopulation::new(protocol);
    let mut scalar = BitPopulation::new(PerAgent(protocol));
    let mut rng_a = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut rng_b = rand::rngs::SmallRng::seed_from_u64(seed);
    for i in 0..n {
        let opinion = Opinion::from(i % 5 == 0);
        word.push_agent(opinion, &mut rng_a);
        scalar.push_agent(opinion, &mut rng_b);
    }
    let mut rng_a = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xFACE);
    let mut rng_b = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xFACE);
    for round in 0..rounds {
        let ctx = RoundContext::new(round);
        let mut out_a = vec![Opinion::Zero; n];
        let mut out_b = vec![Opinion::Zero; n];
        let ca = word.step_round(
            &UniformFactory { m },
            &ctx,
            RoundStreams::Main(&mut rng_a),
            None,
            Opinion::One,
            Some(&mut out_a),
        );
        let cb = scalar.step_round(
            &UniformFactory { m },
            &ctx,
            RoundStreams::Main(&mut rng_b),
            None,
            Opinion::One,
            Some(&mut out_b),
        );
        prop_assert_eq!(&out_a, &out_b, "n={} round={}", n, round);
        prop_assert_eq!(ca, cb);
        let recount = (0..n).filter(|&i| word.output_of(i).is_one()).count() as u64;
        prop_assert_eq!(word.count_output_ones(), recount);
        prop_assert_eq!(ca.ones, recount);
    }
    // One sharded round on top: the word kernel must respect shard
    // boundaries exactly like the tile kernel.
    let plan = ShardPlan::new(shards, 2, seed, rounds);
    let ctx = RoundContext::new(rounds);
    let factory = UniformFactory { m };
    let ca = word.step_round(
        &factory,
        &ctx,
        RoundStreams::Sharded(&plan),
        None,
        Opinion::One,
        None,
    );
    let cb = scalar.step_round(
        &factory,
        &ctx,
        RoundStreams::Sharded(&plan),
        None,
        Opinion::One,
        None,
    );
    prop_assert_eq!(ca, cb, "sharded n={}", n);
    for i in 0..n {
        prop_assert_eq!(word.output_of(i), scalar.output_of(i), "agent {}", i);
    }
}

/// The packed aux plane, exhaustively: every `ℓ ≤ 255` (covering every
/// sliced width from 1 to 8 bits) stores and returns every clock value
/// in `[0, ℓ]` at the word-boundary lengths `n ∈ {63, 64, 65}`, through
/// both `push` and `set`. Pinned outside the
/// fuzzer so no width can rotate out of coverage.
#[test]
fn packed_aux_planes_roundtrip_every_ell() {
    for ell in 1u32..=255 {
        let planes = FetProtocol::new(ell).unwrap().state_planes();
        for n in [63usize, 64, 65] {
            let mut plane = AuxPlane::for_planes(planes);
            for i in 0..n {
                plane.push((i as u32 % (ell + 1)) as u8);
            }
            for i in 0..n {
                assert_eq!(
                    u32::from(plane.get(i)),
                    i as u32 % (ell + 1),
                    "push ell={ell} n={n} i={i}"
                );
            }
            // Overwrite in place with the reversed sequence; neighbours
            // within the same word must be unaffected.
            for i in 0..n {
                plane.set(i, ((n - 1 - i) as u32 % (ell + 1)) as u8);
            }
            for i in 0..n {
                assert_eq!(
                    u32::from(plane.get(i)),
                    (n - 1 - i) as u32 % (ell + 1),
                    "set ell={ell} n={n} i={i}"
                );
            }
        }
    }
}

/// Engine level: voter and 3-majority through real mean-field rounds —
/// the bit-plane engine (word kernel via `MeanFieldSource`'s
/// `next_threshold_word` override) tracks the typed-population engine
/// (per-observation draws) round for round, so the override provably
/// never perturbs the stream.
#[test]
fn word_kernel_engines_track_typed_engines() {
    use fet_core::config::ProblemSpec;
    use fet_core::erased::ErasedProtocol;
    use fet_sim::init::InitialCondition;

    fn check<P>(protocol: P)
    where
        P: Protocol + Clone + std::fmt::Debug + Send + Sync + 'static,
        P::State: 'static,
    {
        let spec = ProblemSpec::single_source(500, Opinion::One).unwrap();
        let erased = ErasedProtocol::new(protocol);
        let mut typed = Engine::new(
            erased.population(),
            spec,
            Fidelity::Binomial,
            InitialCondition::Random,
            77,
        )
        .unwrap();
        let mut bits = Engine::new(
            erased.bit_population().expect("OpinionOnly packs"),
            spec,
            Fidelity::Binomial,
            InitialCondition::Random,
            77,
        )
        .unwrap();
        typed.set_execution_mode(ExecutionMode::Fused).unwrap();
        bits.set_execution_mode(ExecutionMode::Fused).unwrap();
        assert!(bits.uses_bit_storage());
        for round in 0..30 {
            typed.step();
            bits.step();
            assert_eq!(
                typed.collect_outputs(),
                bits.collect_outputs(),
                "round {round}"
            );
        }
    }

    check(VoterProtocol::new());
    check(ThreeMajorityProtocol::new());
}

/// The explicit degenerate sizes from the issue, pinned outside the
/// fuzzer so they can never rotate out of coverage: n = 1, n < 64, and n
/// not a multiple of 64, through a full engine-free round each.
#[test]
fn pinned_word_boundary_sizes_step_correctly() {
    for n in [1usize, 5, 63, 64, 65, 100, 129] {
        let (mut typed, mut bits) = twin_populations(4, n, 99);
        let m = typed.samples_per_round();
        let ctx = RoundContext::new(0);
        let mut rng_a = rand::rngs::SmallRng::seed_from_u64(7);
        let mut rng_b = rand::rngs::SmallRng::seed_from_u64(7);
        let mut out_a = vec![Opinion::Zero; n];
        let mut out_b = vec![Opinion::Zero; n];
        typed.step_round(
            &UniformFactory { m },
            &ctx,
            RoundStreams::Main(&mut rng_a),
            None,
            Opinion::One,
            Some(&mut out_a),
        );
        bits.step_round(
            &UniformFactory { m },
            &ctx,
            RoundStreams::Main(&mut rng_b),
            None,
            Opinion::One,
            Some(&mut out_b),
        );
        assert_eq!(out_a, out_b, "n={n}");
        assert_eq!(
            bits.count_output_ones(),
            out_b.iter().filter(|o| o.is_one()).count() as u64,
            "n={n}"
        );
    }
}
