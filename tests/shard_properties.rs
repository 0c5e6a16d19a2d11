//! Property-based tests for shard-boundary correctness of the parallel
//! fused round.
//!
//! The determinism contract has three legs, each exercised here over
//! arbitrary (odd, including tiny) population sizes and shard counts —
//! 1, 2, 3, 7, the host's core count, and fuzzed values, including the
//! degenerate `n < shards` case:
//!
//! * **worker invariance** — for a fixed shard count, any worker count
//!   produces identical states, outputs, and counters;
//! * **chunking invariance** — processing one shard's range as several
//!   consecutive sub-slices sharing the shard's RNG replays the one-call
//!   kernel exactly (the kernel is a sequential pass, so slicing cannot
//!   move draws across agents);
//! * **counter correctness** — the reduced per-shard counters equal a
//!   recount of the written outputs, and shard ranges partition `[0, n)`.
//!
//! The graph-fused round adds a fourth leg: **range alignment** of the
//! positional `GraphSource` — every shard's source must start streaming
//! at exactly the shard's first vertex, over arbitrarily *irregular* CSR
//! layouts (stars with degree-1 leaves, cycles, paths with degree-1
//! endpoints), odd population sizes, and the degenerate `n < threads`
//! case.

use fet::prelude::*;
use fet::sim::observer::TrajectoryRecorder;
use fet_core::config::ProblemSpec;
use fet_core::observation::Observation;
use fet_core::protocol::{FusedCounters, ObservationSource, RoundContext};
use fet_sim::init::InitialCondition;
use proptest::prelude::*;
use rand::RngCore;
use rand::SeedableRng;

/// Shard counts of interest: the fixed panel plus the host's parallelism.
fn shard_counts() -> Vec<u32> {
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get() as u32);
    let mut counts = vec![1, 2, 3, 7, cpus];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// A deterministic mean-field-like source: draws from the shard RNG, so
/// stream perturbations are visible in every downstream byte.
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

fn filled_population(ell: u32, n: usize, seed: u64) -> TypedPopulation<FetProtocol> {
    let mut pop = TypedPopulation::new(FetProtocol::new(ell).unwrap());
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    for i in 0..n {
        let opinion = if i % 2 == 0 {
            Opinion::Zero
        } else {
            Opinion::One
        };
        pop.push_agent(opinion, &mut rng);
    }
    pop
}

proptest! {
    /// Kernel level: for every shard count (panel + fuzzed) over odd
    /// population sizes, any worker count and any sub-chunking of the
    /// shard ranges produce identical states, outputs, and counters.
    #[test]
    fn parallel_kernel_is_worker_and_chunking_invariant(
        half_n in 0usize..120,
        extra_shards in 1u32..12,
        workers in 1u32..6,
        stream in 0u64..1000,
        chunk in 1usize..13,
    ) {
        let n = 2 * half_n + 1; // odd by construction, as small as 1
        let ell = 4u32;
        let m = FetProtocol::new(ell).unwrap().samples_per_round();
        let ctx = RoundContext::new(0);
        let mut counts = shard_counts();
        counts.push(extra_shards);
        for shards in counts {
            let plan = ShardPlan::new(shards, workers, stream, 2);
            // Reference: each shard's range processed as consecutive
            // sub-chunks of `chunk` agents sharing the shard RNG — the
            // maximally re-chunked sequential execution.
            let mut reference = filled_population(ell, n, stream);
            let mut ref_out = vec![Opinion::Zero; n];
            let mut ref_counters = FusedCounters::default();
            let protocol = FetProtocol::new(ell).unwrap();
            for s in 0..shards {
                let range = plan.shard_range(n, s);
                let mut rng = plan.rng_for_shard(s);
                let mut source = UniformSource { m };
                let mut at = range.start;
                while at < range.end {
                    let end = (at + chunk).min(range.end);
                    let c = protocol.step_fused(
                        &mut reference.states_mut()[at..end],
                        &mut source,
                        &ctx,
                        &mut rng,
                        Opinion::One,
                        &mut ref_out[at..end],
                    );
                    ref_counters += c;
                    at = end;
                }
            }
            // Parallel dispatch under the given worker count.
            let mut pop = filled_population(ell, n, stream);
            let factory = UniformFactory { m };
            let mut out = vec![Opinion::Zero; n];
            let counters = pop.step_round(
                &factory,
                &ctx,
                RoundStreams::Sharded(&plan),
                None,
                Opinion::One,
                Some(&mut out),
            );
            prop_assert_eq!(
                pop.states(), reference.states(),
                "n={} shards={} workers={} chunk={}: states diverged", n, shards, workers, chunk
            );
            prop_assert_eq!(&out, &ref_out);
            prop_assert_eq!(counters, ref_counters);
            prop_assert_eq!(
                counters.ones,
                out.iter().filter(|o| o.is_one()).count() as u64
            );
            prop_assert_eq!(
                counters.correct,
                out.iter().filter(|&&o| o == Opinion::One).count() as u64
            );
        }
    }

    /// Engine level: the degenerate `n < threads` case runs, replays, and
    /// keeps the zero-scratch guarantee for arbitrary oversized shard
    /// counts.
    #[test]
    fn oversharded_engines_replay(
        n in 3u64..20,
        threads in 8u32..40,
        seed in 0u64..200,
    ) {
        let run = || {
            let spec = ProblemSpec::single_source(n, Opinion::One).unwrap();
            let mut engine = Engine::new(
                FetProtocol::new(2).unwrap(),
                spec,
                Fidelity::Binomial,
                InitialCondition::Random,
                seed,
            )
            .unwrap();
            engine
                .set_execution_mode(ExecutionMode::FusedParallel { threads })
                .unwrap();
            let mut rec = TrajectoryRecorder::new();
            engine.run(40, ConvergenceCriterion::new(3), &mut rec);
            assert_eq!(engine.round_scratch_bytes(), 0);
            rec.into_fractions()
        };
        prop_assert_eq!(run(), run());
    }

    /// Kernel level, graph leg: the parallel dispatch with range-aligned
    /// `GraphSource`s replays the sequential shard-by-shard reference over
    /// irregular CSR layouts — so no shard can start its cursor at the
    /// wrong vertex, whatever the degree sequence or the `n`/`shards`
    /// ratio.
    #[test]
    fn graph_parallel_kernel_aligns_source_ranges(
        half_n in 2usize..60,
        shards in 1u32..20,
        workers in 1u32..6,
        stream in 0u64..500,
        kind in 0u32..3,
    ) {
        let n_total = (2 * half_n + 1) as u32; // odd, ≥ 5 vertices
        let graph = irregular_graph(kind, n_total);
        let num_sources = 1usize; // vertex 0 is the source
        let n = n_total as usize - num_sources;
        let ell = 3u32;
        let protocol = FetProtocol::new(ell).unwrap();
        let m = protocol.samples_per_round();
        let ctx = RoundContext::new(1);
        // A fixed, non-uniform round-start snapshot over all vertices.
        let snapshot: Vec<Opinion> = (0..n_total)
            .map(|v| if v % 3 == 0 { Opinion::One } else { Opinion::Zero })
            .collect();
        let factory = fet_sim::sources::GraphSourceFactory::new(
            &graph,
            &snapshot,
            None,
            m,
            num_sources as u32,
            stream ^ 0xA5A5,
            4,
        );
        let plan = ShardPlan::new(shards, workers, stream, 4);
        // Reference: shards processed sequentially, each with its
        // plan-derived RNG and its range-aligned source.
        let mut reference = filled_population(ell, n, stream);
        let mut ref_out = vec![Opinion::Zero; n];
        let mut ref_counters = FusedCounters::default();
        for s in 0..shards {
            let range = plan.shard_range(n, s);
            let mut rng = plan.rng_for_shard(s);
            let mut source = fet_core::shard::ShardSourceFactory::shard_source(
                &factory,
                range.clone(),
            );
            let c = protocol.step_fused(
                &mut reference.states_mut()[range.clone()],
                source.as_mut(),
                &ctx,
                &mut rng,
                Opinion::One,
                &mut ref_out[range],
            );
            ref_counters += c;
        }
        // Parallel dispatch under the given worker count.
        let mut pop = filled_population(ell, n, stream);
        let mut out = vec![Opinion::Zero; n];
        let counters = pop.step_round(
            &factory,
            &ctx,
            RoundStreams::Sharded(&plan),
            None,
            Opinion::One,
            Some(&mut out),
        );
        prop_assert_eq!(
            pop.states(), reference.states(),
            "kind={} n={} shards={} workers={}: states diverged", kind, n, shards, workers
        );
        prop_assert_eq!(&out, &ref_out);
        prop_assert_eq!(counters, ref_counters);
        prop_assert_eq!(counters.ones, out.iter().filter(|o| o.is_one()).count() as u64);
    }

    /// Engine level, graph leg: full graph-fused-parallel runs over
    /// irregular layouts replay per (seed, shards) and match the facade —
    /// including `n < threads`.
    #[test]
    fn graph_parallel_engines_replay_over_irregular_layouts(
        half_n in 3usize..25,
        threads in 1u32..24,
        seed in 0u64..100,
        kind in 0u32..3,
    ) {
        let n = (2 * half_n + 1) as u32;
        let run = || {
            let mut engine = Engine::with_neighborhood(
                FetProtocol::new(2).unwrap(),
                Box::new(irregular_graph(kind, n)),
                1,
                Opinion::One,
                InitialCondition::Random,
                seed,
            )
            .unwrap();
            engine
                .set_execution_mode(ExecutionMode::FusedParallel { threads })
                .unwrap();
            let mut rec = TrajectoryRecorder::new();
            engine.run(15, ConvergenceCriterion::new(3), &mut rec);
            rec.into_fractions()
        };
        prop_assert_eq!(run(), run());
    }
}

/// Irregular CSR layouts for the graph legs: a star (hub degree `n−1`,
/// leaves degree 1), a cycle (uniform degree 2), and a path (degree-1
/// endpoints) — the shapes whose adjacency slices differ most across a
/// shard boundary.
fn irregular_graph(kind: u32, n: u32) -> fet::topology::graph::Graph {
    use fet::topology::{builders, graph::Graph};
    match kind {
        0 => builders::star(n).unwrap(),
        1 => builders::ring_lattice(n, 1).unwrap(),
        _ => {
            let edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
            Graph::from_edges(n, &edges).unwrap()
        }
    }
}
