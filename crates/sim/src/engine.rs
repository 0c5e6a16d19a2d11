//! The synchronous round engine.
//!
//! Implements the paper's execution model: in every round each non-source
//! agent observes the opinion bits of `m = samples_per_round()` agents
//! chosen uniformly at random **with replacement** from the whole
//! population, then updates its state through the protocol. All updates
//! within a round are synchronous (they read the round-`t` outputs).
//!
//! Two exact fidelities are provided (see the crate docs): literal index
//! sampling ([`Fidelity::Agent`]) and the distributionally identical
//! per-agent binomial shortcut ([`Fidelity::Binomial`]), which exploits the
//! fact that a with-replacement sample of size `m` from a population with
//! 1-fraction `x` contains `Binomial(m, x)` ones. The `O(ℓ)`-per-round
//! aggregate chain lives in [`crate::aggregate`].
//!
//! # One engine type, two instantiations
//!
//! The round mechanics — snapshotting, observation generation, fault
//! injection, the protocol dispatch, counter folding — are written once,
//! generically over [`Population`] (the object-safe contiguous-state
//! container from `fet-core`), and [`Engine<A>`] owns the container as a
//! `Box<A>`. Two instantiations matter:
//!
//! * `Engine<TypedPopulation<P>>` — the typed engine. Every population
//!   call monomorphizes away, and typed state access
//!   ([`Engine::states`], [`Engine::set_state`], …) serves adversarial
//!   surgery.
//! * `Engine` (the default, `Engine<dyn DynPopulation>`) — the
//!   runtime-selected engine. The container is built by
//!   [`ErasedProtocol::population`](fet_core::erased::ErasedProtocol::population)
//!   or the `fet-protocols` registry (typed states or packed bit planes),
//!   and each round pays exactly one virtual dispatch.
//!
//! Both share every line of round code, so their random streams are
//! identical by construction: a facade run selected by registry name
//! reproduces a typed run bit for bit given the same seed. Every
//! constructor ([`Engine::new`] fills an empty container,
//! [`Engine::from_population`] takes a filled one) composes with
//! [`Engine::with_neighborhood`].
//!
//! # Round implementations: fused and parallel fused
//!
//! Every synchronous round is one [`Population::step_round`]
//! dispatch, which draws each agent's observation from an on-demand
//! source, applies the update, writes the output, and accumulates the
//! round counters in **one pass** — no observation buffer, no output
//! scratch. The source depends on the sampling rule:
//!
//! * the mean-field fidelities ([`Fidelity::Binomial`],
//!   [`Fidelity::WithoutReplacement`]) draw from the round's global
//!   sampler, and the round keeps `O(1)` auxiliary memory;
//! * literal index sampling — [`Fidelity::Agent`] on the complete graph,
//!   and every [`Neighborhood`] run — reads the round-start opinions of
//!   the drawn vertices from a **persistent double buffer** (~1
//!   byte/agent, or 1 bit/agent on bit-plane populations; allocated once
//!   and rotated each round — still no per-round buffer and no
//!   typed-state clone).
//!
//! [`ExecutionMode`] picks how that dispatch executes ([`RoundStreams`]):
//!
//! * **fused** — single-threaded, on the engine's main RNG;
//! * **fused-parallel** — work-sharded: the population splits into
//!   `threads` balanced contiguous agent ranges, every shard runs the
//!   fused pass against the *round-start* state (global 1-count, or the
//!   shared opinion double buffer) with an independent RNG stream derived
//!   by a counter-based split of `(seed, round, shard index)` (see
//!   [`fet_core::shard`]), and the per-shard counters reduce into the
//!   round totals. Scoped OS threads, no `O(n)` auxiliary memory beyond
//!   the double buffer.
//!
//! [`ExecutionMode::Auto`] (the default) parallelizes above
//! [`FUSED_PARALLEL_AUTO_MIN_N`] agents when the host has more than one
//! core, and runs single-threaded otherwise. Sleepy-agent faults
//! ([`FaultPlan::sleep_prob`]) are a keep mask over the same round (see
//! [`fet_core::shard`]), in every mode and on both storages.
//!
//! **Stream-compatibility caveat:** the parallel path re-keys the draws
//! per shard, so the modes are *distinct deterministic streams* of the
//! same distribution: a fused run replays bit-for-bit against any other
//! fused run of the same seed — across typed, population and bit-plane
//! representations — and a parallel run replays bit-for-bit for a fixed
//! `(seed, thread count)` regardless of how many OS threads actually
//! execute it (the shard *count* keys the stream; the worker count never
//! does, which is what the CI determinism job enforces by re-running the
//! identity suite under different `FET_PARALLEL_WORKERS`). Fused and
//! parallel-fused (per shard count) trajectories for one seed agree
//! statistically, not bitwise (`tests/parallel_equivalence.rs` enforces
//! this), and so do [`Fidelity::Agent`] and [`Fidelity::Binomial`]
//! (`tests/fused_equivalence.rs`, `tests/noise_law.rs`).

use crate::convergence::{
    ConvergenceCriterion, ConvergenceDetector, ConvergenceReport, RecoveryRecord, RecoveryTracker,
};
use crate::error::SimError;
use crate::fault::{FaultEvent, FaultPlan, FaultSchedule};
use crate::init::InitialCondition;
use crate::neighborhood::{ensure_observable, Neighborhood};
use crate::observer::{RoundObserver, RoundSnapshot};
use crate::sources::{
    BinomialRound, GraphSourceFactory, MeanFieldSampler, MeanFieldSourceFactory, SnapshotView,
};
use fet_core::bitplane::BitPlane;
use fet_core::config::ProblemSpec;
use fet_core::opinion::Opinion;
use fet_core::population::{DynPopulation, Population, TypedPopulation};
use fet_core::protocol::{Protocol, RoundContext};
use fet_core::shard::{RoundStreams, ShardPlan, ShardSourceFactory, SleepLane};
use fet_core::source::Source;
use fet_stats::hypergeometric::Hypergeometric;
use fet_stats::rng::{counter_split, counter_stream_base, SeedTree};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt;

/// How per-agent observations are generated.
///
/// [`Fidelity::Agent`] and [`Fidelity::Binomial`] sample *exactly* the
/// paper's with-replacement model and differ only in cost.
/// [`Fidelity::WithoutReplacement`] is a deliberate model variation for
/// robustness experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// Literal sampling: draw `m` uniform agent indices, read their output
    /// bits. `O(n·m)` per round.
    Agent,
    /// Distributional shortcut: draw each agent's observed count from
    /// `Binomial(m, x_t)` directly. `O(n)` per round (plus protocol work).
    Binomial,
    /// Model variation — sampling **without** replacement: each agent's
    /// count is `Hypergeometric(n, ones_t, m)`, i.e. it scans `m`
    /// *distinct* agents. The paper assumes with-replacement sampling
    /// (which makes Observation 1's binomial identity exact); this
    /// fidelity measures how much of the behaviour that assumption
    /// carries. For `m ≪ n` the two are statistically close (variance
    /// shrinks by the factor `(n−m)/(n−1)`), so convergence shapes should
    /// match — which experiment E10's drift harness confirms.
    WithoutReplacement,
    /// Population-level shortcut: simulate only the `(x_t, x_{t+1})` chain
    /// of Observation 1 — `O(ℓ)` per round, *independent of `n`*, and
    /// distributionally exact for FET. Handled by
    /// [`crate::aggregate::AggregateFetChain`] via the `Simulation` facade
    /// ([`crate::simulation`]); the per-agent engines reject it because
    /// they have no per-agent states to drive at this fidelity.
    Aggregate,
}

/// How the synchronous fused round executes (see the [module docs](self)
/// for the fused/parallel trade-off and the stream-compatibility caveat).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Select automatically: the fused round, parallelized above
    /// [`FUSED_PARALLEL_AUTO_MIN_N`] agents when more than one core is
    /// available (and the protocol admits sharding). The default.
    ///
    /// Note: because the auto-parallel shard count follows the host's
    /// core count, trajectories of `Auto` runs above the threshold are
    /// reproducible per machine class, not across arbitrary machines; pin
    /// [`ExecutionMode::FusedParallel`] for cross-machine replays.
    #[default]
    Auto,
    /// Force the single-threaded fused kernel, on the engine's main RNG.
    Fused,
    /// Force the work-sharded parallel fused kernel with `threads` shards
    /// (and at most that many worker threads; `FET_PARALLEL_WORKERS`
    /// overrides the worker count without touching the stream). Rejected
    /// for `threads == 0`.
    /// The trajectory is keyed by `(seed, threads)`: same thread count ⇒
    /// bit-identical replay on any host.
    FusedParallel {
        /// Shard count — the RNG stream partition, and the worker-thread
        /// cap.
        threads: u32,
    },
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionMode::Auto => f.write_str("auto"),
            ExecutionMode::Fused => f.write_str("fused"),
            ExecutionMode::FusedParallel { threads } => {
                write!(f, "fused-parallel({threads})")
            }
        }
    }
}

/// Population size above which [`ExecutionMode::Auto`] parallelizes the
/// fused round (when the host has more than one core). Below it, per-round
/// thread-spawn overhead outweighs the sharded work.
pub const FUSED_PARALLEL_AUTO_MIN_N: u64 = 2_000_000;

/// Shard-count cap for auto-selected parallelism: beyond this, per-shard
/// work at [`FUSED_PARALLEL_AUTO_MIN_N`] no longer amortizes spawn costs,
/// and the auto stream stays comparable across common host sizes.
const FUSED_PARALLEL_AUTO_MAX_THREADS: u32 = 8;

/// [`ExecutionMode::Auto`]'s selection rule, as a pure function of the
/// round's shard count (`None` = the single-threaded fused round): the
/// parallel fused round once the population clears
/// [`FUSED_PARALLEL_AUTO_MIN_N`] on a multi-core host, and the
/// single-threaded fused kernel otherwise.
fn auto_round_impl(auto_threads: u32, n: u64) -> Option<u32> {
    (auto_threads > 1 && n >= FUSED_PARALLEL_AUTO_MIN_N).then_some(auto_threads)
}

fn checked_n(spec: &ProblemSpec) -> Result<usize, SimError> {
    let n = spec.n();
    if n > (u32::MAX as u64) {
        return Err(SimError::UnsupportedPopulation {
            detail: format!("n = {n} exceeds per-agent simulation limits; use the aggregate chain"),
        });
    }
    Ok(n as usize)
}

fn check_fidelity(samples_per_round: u32, fidelity: Fidelity, n: usize) -> Result<(), SimError> {
    if fidelity == Fidelity::Aggregate {
        return Err(SimError::InvalidParameter {
            name: "fidelity",
            detail: "the aggregate fidelity has no per-agent states; run it through \
                     `Simulation::builder()` (or `AggregateFetChain` directly)"
                .into(),
        });
    }
    if fidelity == Fidelity::WithoutReplacement
        && usize::try_from(samples_per_round).expect("u32 fits usize") > n
    {
        return Err(SimError::InvalidParameter {
            name: "fidelity",
            detail: format!(
                "without-replacement sampling needs m ≤ n, got m = {samples_per_round} and n = {n}"
            ),
        });
    }
    Ok(())
}

/// Validates the `FET_SIMD` kernel-tier override. The tier resolves
/// lazily, on a run's first tiered draw — every fused round draws through
/// one — and [`fet_stats::isa::active_path`] panics on a bad value, so
/// engines check it at construction instead.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] naming the variable for a
/// misspelled tier, or `avx2` forced where AVX2 cannot execute.
fn check_isa_override() -> Result<(), SimError> {
    fet_stats::isa::env_override()
        .map(|_| ())
        .map_err(|detail| SimError::InvalidParameter {
            name: "FET_SIMD",
            detail,
        })
}

/// Parses the `FET_PARALLEL_WORKERS` worker-count override (`None` when
/// unset). The value caps the OS threads a parallel round spawns and never
/// enters the stream; `0` is clamped to one worker by [`ShardPlan::new`].
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] naming the variable when the
/// value is not a `u32`.
fn parse_parallel_workers(raw: Option<&str>) -> Result<Option<u32>, SimError> {
    raw.map(|value| {
        value.parse().map_err(|_| SimError::InvalidParameter {
            name: "FET_PARALLEL_WORKERS",
            detail: format!("must be a u32 worker count, got `{value}`"),
        })
    })
    .transpose()
}

/// Everything a synchronous engine is *besides* its agents: the problem
/// instance, the sampling machinery, the fault plan, the cached output
/// bits and counters, and the round loop itself.
///
/// All round methods are generic over [`Population`], so every
/// instantiation of [`Engine`] — a monomorphized [`TypedPopulation<P>`] or
/// a `dyn DynPopulation` — consumes identical random streams.
#[derive(Debug, Clone)]
struct EngineCore {
    spec: ProblemSpec,
    source: Source,
    fidelity: Fidelity,
    mode: ExecutionMode,
    neighborhood: Option<Box<dyn Neighborhood>>,
    fault: FaultPlan,
    /// Round-sorted fault-schedule events still to fire;
    /// [`EngineCore::next_event`] indexes the first pending one. Empty
    /// unless a [`FaultSchedule`] was installed.
    schedule_events: Vec<FaultEvent>,
    next_event: usize,
    /// Active noise burst: `(first round after the burst, flip level to
    /// restore)`.
    burst_restore: Option<(u64, f64)>,
    /// Dedicated RNG lane for fault-schedule side effects (the state
    /// corruption draws). Fault-free runs never touch it, so installing
    /// an event-free schedule leaves every other stream bit-identical.
    fault_stream: u64,
    /// Per-event recovery bookkeeping, fed once per executed round.
    recovery: RecoveryTracker,
    outputs: Vec<Opinion>,
    /// The round-start opinion double buffer of index-sampling rounds
    /// (Agent fidelity and neighborhood runs; empty on mean-field runs).
    snapshot: Vec<Opinion>,
    /// `true` when the population stores opinions as packed bit planes
    /// ([`Population::supports_inplace_rounds`]): the engine then keeps
    /// **no** byte-addressed `outputs` buffer at all — the population's
    /// own opinion plane is the output store, fused rounds run with
    /// `outputs: None`, and index-sampling rounds double-buffer
    /// round-start opinions in [`EngineCore::bit_snapshot`] (1 bit/agent
    /// instead of 1 byte/agent).
    bit_store: bool,
    /// The round-start opinion plane copy for bit-plane index-sampling
    /// rounds (word-copied from the population each round; empty on
    /// mean-field runs and on byte-addressed populations).
    bit_snapshot: BitPlane,
    ones_count: u64,
    correct_decisions: u64,
    rng: SmallRng,
    round: u64,
    /// Run-level seed for the parallel fused round's split-RNG streams —
    /// a separate `SeedTree` lane, so enabling parallelism never perturbs
    /// the main engine stream (fused trajectories are unchanged).
    parallel_stream: u64,
    /// Run-level seed lane for literal index draws (Agent fidelity and
    /// neighborhood runs): every
    /// [`crate::sources::GraphSource`]'s owned index stream splits from
    /// `(this, round, shard range start)` — again without ever consuming
    /// the main engine RNG.
    graph_index_stream: u64,
    /// Run-level seed lane of sleepy rounds' keep masks, split like
    /// `graph_index_stream` ([`SleepLane`]).
    sleep_stream: u64,
    /// Host core count (capped), cached for [`ExecutionMode::Auto`]'s
    /// parallel selection.
    auto_threads: u32,
    /// Worker-thread override from `FET_PARALLEL_WORKERS` (a CI/testing
    /// knob: caps the OS threads actually spawned without touching the
    /// shard count, hence without touching the stream), parsed once at
    /// construction. A malformed value is kept as its error: runs that
    /// never shard ignore it, and every constructor and
    /// [`EngineCore::set_mode`] return it once the run can resolve to a
    /// parallel round ([`EngineCore::check_parallel_workers`]) — a
    /// parallel run never silently ignores it (CI's determinism job
    /// depends on the two worker counts differing).
    parallel_workers: Result<Option<u32>, SimError>,
}

impl EngineCore {
    /// Creates the core and fills `pop` with non-source agents drawn from
    /// `init` (one opinion draw then one state init per agent, in agent
    /// order — the random stream every construction path shares).
    fn construct<A: Population + ?Sized>(
        pop: &mut A,
        spec: ProblemSpec,
        fidelity: Fidelity,
        init: InitialCondition,
        seed: u64,
    ) -> Result<Self, SimError> {
        let mut rng = SeedTree::new(seed).child("engine").rng();
        let n = checked_n(&spec)?;
        check_fidelity(pop.samples_per_round(), fidelity, n)?;
        check_isa_override()?;
        let num_sources = spec.num_sources() as usize;
        let source = Source::new(spec.correct());
        // Bit-plane populations keep no byte output buffer: the opinion
        // plane itself is the output store. The construction RNG stream
        // (one draw + one init per agent, in order) is shared either way.
        pop.reserve(n - num_sources);
        let correct = spec.correct();
        pop.push_agents(
            n - num_sources,
            &mut |rng: &mut dyn RngCore| init.draw(correct, rng),
            &mut rng,
        );
        let mut outputs = Vec::new();
        if !pop.supports_inplace_rounds() {
            outputs.resize(n, source.output());
            pop.write_outputs(&mut outputs[num_sources..]);
        }
        Ok(Self::assemble(
            pop, spec, source, fidelity, outputs, rng, seed,
        ))
    }

    /// Creates the core over an already-filled population (the adversarial
    /// entry point).
    fn construct_filled<A: Population + ?Sized>(
        pop: &mut A,
        spec: ProblemSpec,
        fidelity: Fidelity,
        seed: u64,
    ) -> Result<Self, SimError> {
        let rng = SeedTree::new(seed).child("engine").rng();
        let n = checked_n(&spec)?;
        check_fidelity(pop.samples_per_round(), fidelity, n)?;
        check_isa_override()?;
        let num_sources = spec.num_sources() as usize;
        if pop.len() != n - num_sources {
            return Err(SimError::InvalidParameter {
                name: "states",
                detail: format!(
                    "expected {} non-source states, got {}",
                    n - num_sources,
                    pop.len()
                ),
            });
        }
        let source = Source::new(spec.correct());
        let outputs = if pop.supports_inplace_rounds() {
            Vec::new()
        } else {
            let mut outputs = vec![source.output(); n];
            pop.write_outputs(&mut outputs[num_sources..]);
            outputs
        };
        Ok(Self::assemble(
            pop, spec, source, fidelity, outputs, rng, seed,
        ))
    }

    fn assemble<A: Population + ?Sized>(
        pop: &A,
        spec: ProblemSpec,
        source: Source,
        fidelity: Fidelity,
        outputs: Vec<Opinion>,
        rng: SmallRng,
        seed: u64,
    ) -> Self {
        let ones_count =
            spec.num_sources() * u64::from(source.output().is_one()) + pop.count_output_ones();
        let correct_decisions = pop.count_correct_decisions(source.correct());
        EngineCore {
            spec,
            source,
            fidelity,
            mode: ExecutionMode::Auto,
            neighborhood: None,
            fault: FaultPlan::none(),
            schedule_events: Vec::new(),
            next_event: 0,
            burst_restore: None,
            fault_stream: SeedTree::new(seed).child("fault-schedule").seed(),
            recovery: RecoveryTracker::new(ConvergenceCriterion::default()),
            outputs,
            // The double buffer starts unallocated; mean-field rounds
            // never read it, so they never allocate it — the
            // `O(1)`-auxiliary-memory guarantee `round_scratch_bytes`
            // reports on.
            snapshot: Vec::new(),
            bit_store: pop.supports_inplace_rounds(),
            bit_snapshot: BitPlane::new(),
            ones_count,
            correct_decisions,
            rng,
            round: 0,
            parallel_stream: SeedTree::new(seed).child("engine-parallel").seed(),
            graph_index_stream: SeedTree::new(seed).child("graph-index").seed(),
            sleep_stream: SeedTree::new(seed).child("sleep").seed(),
            auto_threads: std::thread::available_parallelism()
                .map_or(1, |p| p.get() as u32)
                .min(FUSED_PARALLEL_AUTO_MAX_THREADS),
            parallel_workers: parse_parallel_workers(
                std::env::var("FET_PARALLEL_WORKERS").ok().as_deref(),
            ),
        }
    }

    fn fraction_ones(&self) -> f64 {
        self.ones_count as f64 / self.spec.n() as f64
    }

    fn fraction_correct(&self) -> f64 {
        self.correct_decisions as f64 / self.spec.num_non_sources() as f64
    }

    fn all_correct(&self) -> bool {
        self.correct_decisions == self.spec.num_non_sources()
    }

    /// Re-derives outputs and counters from the population's states.
    fn refresh_caches<A: Population + ?Sized>(&mut self, pop: &A) {
        let num_sources = self.spec.num_sources() as usize;
        if !self.bit_store {
            for i in 0..num_sources {
                self.outputs[i] = self.source.output();
            }
            pop.write_outputs(&mut self.outputs[num_sources..]);
        }
        self.ones_count =
            num_sources as u64 * u64::from(self.source.output().is_one()) + pop.count_output_ones();
        self.correct_decisions = pop.count_correct_decisions(self.source.correct());
    }

    /// `true` when observations are a pure function of the round's global
    /// 1-count — the precondition for skipping the round-start snapshot
    /// entirely (mean-field fused rounds keep no opinion buffer at all).
    fn mean_field(&self) -> bool {
        self.neighborhood.is_none() && self.fidelity != Fidelity::Agent
    }

    /// The shard count a round runs under the current mode (`None` = the
    /// single-threaded fused round).
    fn resolve_round_impl(&self) -> Option<u32> {
        match self.mode {
            ExecutionMode::Fused => None,
            ExecutionMode::FusedParallel { threads } => Some(threads),
            ExecutionMode::Auto => auto_round_impl(self.auto_threads, self.spec.n()),
        }
    }

    /// Installs an execution mode, rejecting the parallel mode for zero
    /// threads.
    fn set_mode(&mut self, mode: ExecutionMode) -> Result<(), SimError> {
        if let ExecutionMode::FusedParallel { threads } = mode {
            if threads == 0 {
                return Err(SimError::InvalidParameter {
                    name: "mode",
                    detail: "offending axis: threads — fused-parallel needs at least one thread"
                        .into(),
                });
            }
        }
        let previous = std::mem::replace(&mut self.mode, mode);
        if let Err(e) = self.check_parallel_workers() {
            self.mode = previous;
            return Err(e);
        }
        Ok(())
    }

    /// Returns the `FET_PARALLEL_WORKERS` parse error when the current
    /// configuration can resolve to a parallel round; runs that never
    /// shard ignore the variable.
    fn check_parallel_workers(&self) -> Result<(), SimError> {
        match (self.resolve_round_impl(), &self.parallel_workers) {
            (Some(_), Err(e)) => Err(e.clone()),
            _ => Ok(()),
        }
    }

    /// Bytes of per-round auxiliary buffers currently allocated (the
    /// round-start opinion snapshot). Stays `0` for runs whose every round
    /// went through the mean-field fused path — the measurable form of its
    /// `O(1)`-auxiliary-memory guarantee. Index-sampling runs (Agent
    /// fidelity, neighborhoods) report exactly the persistent opinion
    /// double buffer (~1 byte/agent, allocated once, rotated thereafter —
    /// or ~1 **bit**/agent on bit-plane populations, whose round-start
    /// snapshot is a packed word plane).
    fn scratch_bytes(&self) -> usize {
        self.snapshot.capacity() * std::mem::size_of::<Opinion>()
            + self.bit_snapshot.resident_bytes()
    }

    /// Fires every schedule event due at the start of the current round.
    /// Runs before the round's snapshot rotation, so trend switches and
    /// state corruption are visible to this round's observations in every
    /// execution mode and storage representation.
    fn apply_schedule<A: Population + ?Sized>(&mut self, pop: &mut A) {
        if let Some((end, restore)) = self.burst_restore {
            if self.round >= end {
                self.fault.flip_prob = restore;
                self.burst_restore = None;
            }
        }
        while let Some(&event) = self.schedule_events.get(self.next_event) {
            if event.round() > self.round {
                break;
            }
            self.next_event += 1;
            if event.round() < self.round {
                // Installed mid-run after its round already passed: never
                // fires (firing late would desynchronize replays).
                continue;
            }
            self.recovery.on_event(self.round, event.kind());
            match event {
                FaultEvent::TrendSwitch { correct, .. } => {
                    self.source.retarget(correct);
                    self.refresh_caches(pop);
                }
                FaultEvent::NoiseChange { flip_prob, .. } => {
                    self.fault.flip_prob = flip_prob;
                    self.burst_restore = None;
                }
                FaultEvent::NoiseBurst {
                    rounds, flip_prob, ..
                } => {
                    self.burst_restore =
                        Some((self.round.saturating_add(rounds), self.fault.flip_prob));
                    self.fault.flip_prob = flip_prob;
                }
                FaultEvent::StateCorruption { fraction, .. } => {
                    self.corrupt_states(pop, fraction);
                }
            }
        }
    }

    /// Rewrites a Bernoulli(`fraction`) subset of non-source agents to
    /// fresh protocol-initial states with uniformly random opinions. All
    /// randomness comes from the dedicated `fault-schedule` counter lane,
    /// keyed by `(round, event index)` — deterministic per seed and
    /// independent of execution mode, shard count, and storage.
    fn corrupt_states<A: Population + ?Sized>(&mut self, pop: &mut A, fraction: f64) {
        if fraction <= 0.0 {
            return;
        }
        let base = counter_stream_base(self.fault_stream, self.round);
        let mut rng = SmallRng::seed_from_u64(counter_split(base, self.next_event as u64));
        for idx in 0..pop.len() {
            if rng.gen::<f64>() < fraction {
                let opinion = if rng.gen::<bool>() {
                    Opinion::One
                } else {
                    Opinion::Zero
                };
                pop.corrupt_agent(idx, opinion, &mut rng);
            }
        }
        self.refresh_caches(pop);
    }

    /// `true` once every schedule event has fired and the last one's
    /// recovery record has confirmed re-stabilization (or there was no
    /// schedule at all). [`EngineCore::run`] keeps stepping until this
    /// holds, so pre-switch convergence cannot end the run early.
    fn schedule_settled(&self) -> bool {
        self.next_event >= self.schedule_events.len() && self.recovery.is_settled()
    }

    /// Installs a fault schedule: the base plan replaces the current
    /// [`FaultPlan`], events are armed from the top, and recovery records
    /// are cleared.
    fn set_schedule(&mut self, schedule: &FaultSchedule) {
        self.fault = schedule.base();
        self.schedule_events = schedule.events().to_vec();
        self.next_event = 0;
        self.burst_restore = None;
        self.recovery.reset();
    }

    /// Executes one synchronous round (see [`Engine::step`]).
    fn step<A: Population + ?Sized>(&mut self, pop: &mut A) {
        self.apply_schedule(pop);
        // Legacy one-shot environment change: the correct bit itself flips.
        if let Some(new_correct) = self.fault.retarget_at(self.round) {
            self.source.retarget(new_correct);
            self.refresh_caches(pop);
        }
        if !self.mean_field() {
            // Index-sampling rounds write outputs in place while the
            // source still reads round-start opinions: rotate the
            // persistent double buffer instead of copying — or, on
            // bit-plane populations, word-copy the packed opinion plane
            // into the 1 bit/agent word snapshot.
            if self.bit_store {
                self.refresh_bit_snapshot(pop);
            } else {
                self.rotate_opinion_buffer();
            }
        }
        self.step_fused_round(pop, self.resolve_round_impl());
        self.round += 1;
        self.recovery.observe(self.round, self.all_correct());
    }

    /// Rotates the round-start opinion double buffer for index-sampling
    /// rounds: after the swap, `snapshot` holds the round-`t` outputs for
    /// the sources to read, and `outputs` is the write target the kernel
    /// fills completely (the source prefix is re-stamped here; every
    /// non-source slot is overwritten by the fused pass). No copy, no
    /// allocation after the buffer exists — the ~1 byte/agent `snapshot`
    /// vector is the *only* persistent auxiliary memory of index-sampling
    /// execution.
    fn rotate_opinion_buffer(&mut self) {
        if self.snapshot.len() != self.outputs.len() {
            // First index-sampling round: materialize the second buffer once.
            self.snapshot.clone_from(&self.outputs);
        }
        std::mem::swap(&mut self.snapshot, &mut self.outputs);
        let num_sources = self.spec.num_sources() as usize;
        let output = self.source.output();
        for slot in &mut self.outputs[..num_sources] {
            *slot = output;
        }
    }

    /// The bit-plane analogue of [`EngineCore::rotate_opinion_buffer`]:
    /// word-copies the population's packed opinion plane into the
    /// persistent round-start snapshot (1 bit/agent, allocated once).
    /// Index sources then read it through [`SnapshotView::Bits`] while
    /// the in-place kernel overwrites the population plane.
    fn refresh_bit_snapshot<A: Population + ?Sized>(&mut self, pop: &A) {
        if self.bit_snapshot.len() != pop.len() {
            self.bit_snapshot = BitPlane::zeroed(pop.len());
        }
        pop.write_opinion_words(self.bit_snapshot.words_mut());
    }

    /// The round's mean-field sampler, binomial or hypergeometric by
    /// fidelity: one `O(m)` table per round, shared by every shard.
    ///
    /// The binomial law carries the round's observation noise: when
    /// each observed bit flips independently with probability `δ`, an
    /// observed bit is a 1 with probability `x_t(1 − δ) + (1 − x_t)δ`, so
    /// a noisy observation is *exactly* `Binomial(m, x_t(1 − δ) +
    /// (1 − x_t)δ)` and no round path corrupts binomial draws afterwards.
    /// Near consensus the law hands out unanimous runs ([`BinomialRound`]).
    fn round_samplers(&self, m: u32) -> (Option<BinomialRound>, Option<Hypergeometric>) {
        // Sized from the spec, not the byte output buffer — bit-plane
        // populations keep no such buffer.
        let n = self.spec.n() as usize;
        let x_t = self.ones_count as f64 / n as f64;
        match self.fidelity {
            Fidelity::Binomial => {
                let delta = self.fault.flip_prob;
                // At δ = 0 this is `x_t` bit for bit: `x·1 = x`,
                // `(1 − x)·0 = +0` and `x + 0 = x` for `x ≥ 0`.
                let p = x_t * (1.0 - delta) + (1.0 - x_t) * delta;
                (
                    Some(
                        BinomialRound::new(m, p)
                            .expect("a convex combination of probabilities lies in [0, 1]"),
                    ),
                    None,
                )
            }
            Fidelity::WithoutReplacement => (
                None,
                Some(
                    Hypergeometric::new(n as u64, self.ones_count, u64::from(m))
                        .expect("m ≤ n is validated at engine construction"),
                ),
            ),
            Fidelity::Agent | Fidelity::Aggregate => unreachable!("mean-field fidelities only"),
        }
    }

    /// The fused round path: one [`Population::step_round`] dispatch draws
    /// each agent's observation, applies the update, writes the output in
    /// place, and hands back the round counters — a single pass.
    ///
    /// With `shards = None` the round runs on the engine's main RNG as one
    /// shard over the whole population. With `Some(shards)` it is
    /// work-sharded: `shards` contiguous ranges, each under its own
    /// counter-derived RNG stream (never the engine RNG — the main stream
    /// is untouched by parallel rounds), executed by `min(shards,
    /// FET_PARALLEL_WORKERS if set)` workers, which never affects the
    /// trajectory.
    ///
    /// Every shard gets a private source over shared round-start state: on
    /// mean-field rounds the round's global sampler (`O(1)` auxiliary
    /// memory); on index-sampling rounds — a neighborhood, or the literal
    /// [`Fidelity::Agent`] on the complete graph — a range-aligned
    /// [`crate::sources::GraphSource`] over the round-start opinion double
    /// buffer (the only auxiliary memory, ~1 byte/agent — or 1 bit/agent on
    /// bit-plane populations — rotated, never reallocated, each round).
    /// Under sleepy-agent faults the round also carries a [`SleepLane`].
    fn step_fused_round<A: Population + ?Sized>(&mut self, pop: &mut A, shards: Option<u32>) {
        let num_sources = self.spec.num_sources() as usize;
        let num_sources_u32 = u32::try_from(num_sources).expect("num_sources < n fits u32");
        let m = pop.samples_per_round();
        let ctx = RoundContext::new(self.round);
        let correct = self.source.correct();
        let fault = (self.fault.flip_prob > 0.0).then_some(&self.fault);
        let graph_factory;
        let mean_field_factory;
        let samplers;
        let sources: &dyn ShardSourceFactory = if self.mean_field() {
            samplers = self.round_samplers(m);
            let sampler = match &samplers {
                (Some(s), _) => MeanFieldSampler::Binomial(s),
                (_, Some(h)) => MeanFieldSampler::Hypergeometric(h, fault),
                _ => unreachable!("mean-field rounds build a sampler"),
            };
            mean_field_factory = MeanFieldSourceFactory { sampler, m };
            &mean_field_factory
        } else {
            let view = if self.bit_store {
                SnapshotView::Bits {
                    source_output: self.source.output(),
                    num_sources: num_sources_u32,
                    words: self.bit_snapshot.words(),
                }
            } else {
                SnapshotView::Bytes(&self.snapshot)
            };
            let (stream, round) = (self.graph_index_stream, self.round);
            graph_factory = match self.neighborhood.as_deref() {
                Some(nb) => {
                    GraphSourceFactory::new(nb, view, fault, m, num_sources_u32, stream, round)
                }
                None => {
                    let n = u32::try_from(self.spec.n()).expect("n is validated to fit u32");
                    GraphSourceFactory::complete(n, view, fault, m, num_sources_u32, stream, round)
                }
            };
            &graph_factory
        };
        let plan;
        let streams = match shards {
            Some(shards) => {
                let workers = self
                    .parallel_workers
                    .as_ref()
                    .expect("FET_PARALLEL_WORKERS is validated before a parallel round resolves")
                    .unwrap_or(shards);
                plan = ShardPlan::new(shards, workers, self.parallel_stream, self.round);
                RoundStreams::Sharded(&plan)
            }
            None => RoundStreams::Main(&mut self.rng),
        };
        let sleep = (self.fault.sleep_prob > 0.0)
            .then(|| SleepLane::new(self.fault.sleep_prob, self.sleep_stream, self.round));
        let outputs = (!self.bit_store).then(|| &mut self.outputs[num_sources..]);
        let counters = pop.step_round(sources, &ctx, streams, sleep.as_ref(), correct, outputs);
        self.ones_count =
            num_sources as u64 * u64::from(self.source.output().is_one()) + counters.ones;
        // Passive protocols (decision ≡ output) take the count folded out
        // of the outputs; decoupled baselines are recounted from their
        // states. The guard catches a protocol that overrides `decision()`
        // but not `is_passive()`.
        let passive = pop.is_passive();
        debug_assert!(
            !passive || counters.correct == pop.count_correct_decisions(correct),
            "protocol `{}` reports is_passive() but decision() != output()",
            pop.protocol_name()
        );
        self.correct_decisions = if passive {
            counters.correct
        } else {
            pop.count_correct_decisions(correct)
        };
    }

    /// Runs until convergence is confirmed or `max_rounds` have executed.
    fn run<A, O>(
        &mut self,
        pop: &mut A,
        max_rounds: u64,
        criterion: ConvergenceCriterion,
        observer: &mut O,
    ) -> ConvergenceReport
    where
        A: Population + ?Sized,
        O: RoundObserver + ?Sized,
    {
        self.recovery.set_criterion(criterion);
        let mut detector = ConvergenceDetector::new(criterion);
        observer.on_round(self.snapshot_now());
        let mut done = detector.observe(self.round, self.all_correct());
        while (!done || !self.schedule_settled()) && self.round < max_rounds {
            self.step(pop);
            observer.on_round(self.snapshot_now());
            done = detector.observe(self.round, self.all_correct());
        }
        ConvergenceReport {
            converged_at: detector.converged_at(),
            rounds_run: self.round,
            final_fraction_correct: self.fraction_correct(),
        }
    }

    fn snapshot_now(&self) -> RoundSnapshot {
        RoundSnapshot {
            round: self.round,
            fraction_ones: self.fraction_ones(),
            fraction_correct: self.fraction_correct(),
        }
    }
}

/// A population of agents running one protocol, plus the round loop.
///
/// Agent indices `[0, num_sources)` are sources; the rest run the protocol
/// and live in the owned container `A`: a [`TypedPopulation<P>`] for the
/// typed engine, or `dyn DynPopulation` (the default, and what the
/// `Simulation` facade runs) for a runtime-selected one. See the
/// [module docs](self).
///
/// # Example
///
/// ```
/// use fet_core::config::ProblemSpec;
/// use fet_core::erased::ErasedProtocol;
/// use fet_core::fet::FetProtocol;
/// use fet_core::opinion::Opinion;
/// use fet_core::population::TypedPopulation;
/// use fet_sim::convergence::ConvergenceCriterion;
/// use fet_sim::engine::{Engine, Fidelity};
/// use fet_sim::init::InitialCondition;
/// use fet_sim::observer::NullObserver;
///
/// let spec = ProblemSpec::single_source(300, Opinion::One)?;
/// let proto = FetProtocol::for_population(300, 4.0)?;
/// let typed = Box::new(TypedPopulation::new(proto.clone()));
/// let mut engine = Engine::new(typed, spec, Fidelity::Binomial, InitialCondition::AllWrong, 7)?;
/// let report = engine.run(5_000, ConvergenceCriterion::default(), &mut NullObserver);
/// assert!(report.converged());
///
/// // The same run on a runtime-selected container replays it bit for bit.
/// let erased = ErasedProtocol::new(proto).population();
/// let mut engine = Engine::new(erased, spec, Fidelity::Binomial, InitialCondition::AllWrong, 7)?;
/// assert_eq!(engine.run(5_000, ConvergenceCriterion::default(), &mut NullObserver), report);
/// assert_eq!(engine.protocol_name(), "fet");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Engine<A: Population + ?Sized = dyn DynPopulation> {
    population: Box<A>,
    core: EngineCore,
}

impl<A: Population + ?Sized> Clone for Engine<A>
where
    Box<A>: Clone,
{
    fn clone(&self) -> Self {
        Engine {
            population: self.population.clone(),
            core: self.core.clone(),
        }
    }
}

impl<A: Population + ?Sized> Engine<A> {
    /// Creates an engine over an empty container, filling it with
    /// non-source agents whose opinions are drawn from `init` and whose
    /// internal variables the protocol randomizes (one opinion draw then
    /// one state init per agent, in agent order — the same random stream
    /// for every container).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedPopulation`] when `n` does not fit in
    /// addressable memory for per-agent simulation, and
    /// [`SimError::InvalidParameter`] when the container already holds
    /// agents, when [`Fidelity::WithoutReplacement`] is requested with a
    /// sample size exceeding the population, when `FET_SIMD` names no
    /// usable kernel tier, or when `FET_PARALLEL_WORKERS` is malformed and
    /// the default mode resolves to a parallel round (see
    /// [`Engine::set_execution_mode`]).
    pub fn new(
        mut population: Box<A>,
        spec: ProblemSpec,
        fidelity: Fidelity,
        init: InitialCondition,
        seed: u64,
    ) -> Result<Self, SimError> {
        if !population.is_empty() {
            return Err(SimError::InvalidParameter {
                name: "population",
                detail: format!(
                    "expected an empty container, got {} pre-filled agents",
                    population.len()
                ),
            });
        }
        let core = EngineCore::construct(population.as_mut(), spec, fidelity, init, seed)?;
        core.check_parallel_workers()?;
        Ok(Engine { population, core })
    }

    /// Creates an engine over a container already filled with the
    /// non-source states — the entry point for adversarial configurations
    /// (see [`TypedPopulation::from_states`]) and for replaying explicit
    /// states on bit-plane storage (see
    /// [`fet_core::bitplane::BitPopulation::from_states`]).
    ///
    /// # Errors
    ///
    /// As [`Engine::new`], except that the container must hold exactly the
    /// `n − num_sources` non-source agents.
    pub fn from_population(
        mut population: Box<A>,
        spec: ProblemSpec,
        fidelity: Fidelity,
        seed: u64,
    ) -> Result<Self, SimError> {
        let core = EngineCore::construct_filled(population.as_mut(), spec, fidelity, seed)?;
        core.check_parallel_workers()?;
        Ok(Engine { population, core })
    }

    /// Restricts each agent's observations to an explicit communication
    /// structure instead of the whole population. Sources occupy vertices
    /// `[0, num_sources)`; sampling is literal, so the engine must have
    /// been built with [`Fidelity::Agent`]. On bit-plane containers the
    /// round-start double buffer is the packed 1 bit/agent word snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when some vertex has no
    /// neighbors, when the vertex count differs from the spec's `n`, or
    /// when the fidelity is not [`Fidelity::Agent`].
    pub fn with_neighborhood(
        mut self,
        neighborhood: Box<dyn Neighborhood>,
    ) -> Result<Self, SimError> {
        ensure_observable(neighborhood.as_ref())?;
        let (vertices, n) = (neighborhood.population(), self.core.spec.n());
        if u64::from(vertices) != n {
            return Err(SimError::InvalidParameter {
                name: "topology",
                detail: format!("the structure has {vertices} vertices but the spec has n = {n}"),
            });
        }
        if self.core.fidelity != Fidelity::Agent {
            return Err(SimError::InvalidParameter {
                name: "fidelity",
                detail: format!(
                    "neighbor sampling is literal; {:?} fidelity applies to the complete graph \
                     only",
                    self.core.fidelity
                ),
            });
        }
        self.core.neighborhood = Some(neighborhood);
        Ok(self)
    }

    /// Installs a fault plan (replacing any previous plan).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] (name `fault`) when a
    /// probability knob lies outside `[0, 1]` ([`FaultPlan::validate`]);
    /// the previous plan then stays installed.
    pub fn set_fault_plan(&mut self, fault: FaultPlan) -> Result<(), SimError> {
        fault.validate()?;
        self.core.fault = fault;
        Ok(())
    }

    /// Installs a round-indexed fault schedule: its base plan replaces
    /// the current [`FaultPlan`], and its events fire at the start of
    /// their rounds during [`Engine::step`] / [`Engine::run`]. Replaces
    /// any previous schedule and clears its recovery records.
    ///
    /// # Errors
    ///
    /// As [`Engine::set_fault_plan`], for the schedule's base plan (a
    /// [`FaultSchedule::from_plan`] schedule carries it unchecked).
    pub fn set_fault_schedule(&mut self, schedule: &FaultSchedule) -> Result<(), SimError> {
        schedule.base().validate()?;
        self.core.set_schedule(schedule);
        Ok(())
    }

    /// Per-event recovery records accumulated so far (one per fired
    /// schedule event, in firing order; the last may still be open).
    pub fn recovery_records(&self) -> &[RecoveryRecord] {
        self.core.recovery.records()
    }

    /// Selects how the fused round executes (default
    /// [`ExecutionMode::Auto`]). See the [module docs](self) for the
    /// fused/parallel trade-off and the stream-compatibility caveat:
    /// changing the *resolved* shard count changes the run's RNG streams,
    /// so fused and parallel runs of one seed are distinct (each
    /// individually deterministic) trajectories.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for
    /// [`ExecutionMode::FusedParallel`] with zero threads or a protocol
    /// that opts out of parallel sharding. Also returns it, naming
    /// `FET_PARALLEL_WORKERS`, when that variable is malformed and the
    /// mode can resolve to a parallel round; the mode is then unchanged.
    pub fn set_execution_mode(&mut self, mode: ExecutionMode) -> Result<(), SimError> {
        self.core.set_mode(mode)
    }

    /// The configured execution mode.
    pub fn execution_mode(&self) -> ExecutionMode {
        self.core.mode
    }

    /// Bytes of per-round auxiliary round buffers currently allocated (the
    /// round-start opinion snapshot). `0` for as long as every executed
    /// round has gone through the mean-field fused path — the measurable
    /// form of its `O(1)`-auxiliary-memory guarantee; Agent-fidelity and
    /// graph runs report exactly the persistent opinion double buffer
    /// (~1 byte/agent, or ~1 bit/agent on bit-plane containers).
    pub fn round_scratch_bytes(&self) -> usize {
        self.core.scratch_bytes()
    }

    /// The running protocol's name.
    pub fn protocol_name(&self) -> &str {
        self.population.protocol_name()
    }

    /// Agents sampled per agent per round.
    pub fn samples_per_round(&self) -> u32 {
        self.population.samples_per_round()
    }

    /// The population container (for memory accounting and inspection).
    pub fn population(&self) -> &A {
        &self.population
    }

    /// The problem specification this engine was built with.
    ///
    /// Note: a fault plan may retarget the source mid-run; the *current*
    /// correct opinion is [`Engine::correct`], not `spec().correct()`.
    pub fn spec(&self) -> &ProblemSpec {
        &self.core.spec
    }

    /// The current correct opinion (tracks mid-run retargeting).
    pub fn correct(&self) -> Opinion {
        self.core.source.correct()
    }

    /// Current round index (0 before any [`Engine::step`]).
    pub fn round(&self) -> u64 {
        self.core.round
    }

    /// The paper's `x_t`: fraction of all agents (sources included)
    /// currently outputting opinion 1.
    pub fn fraction_ones(&self) -> f64 {
        self.core.fraction_ones()
    }

    /// Fraction of non-source agents whose *decision* equals the correct
    /// opinion.
    pub fn fraction_correct(&self) -> f64 {
        self.core.fraction_correct()
    }

    /// `true` when every non-source agent decides correctly.
    pub fn all_correct(&self) -> bool {
        self.core.all_correct()
    }

    /// `true` when the engine drives a bit-plane population through the
    /// in-place fused kernels (no byte output buffer exists; see
    /// [`Engine::collect_outputs`]).
    pub fn uses_bit_storage(&self) -> bool {
        self.core.bit_store
    }

    /// Public outputs of all agents (index `< num_sources` are sources).
    ///
    /// # Panics
    ///
    /// Panics on bit-plane storage, which keeps no byte output buffer —
    /// use [`Engine::collect_outputs`] (allocating) or read the population
    /// directly.
    pub fn outputs(&self) -> &[Opinion] {
        assert!(
            !self.core.bit_store,
            "bit-plane runs keep no byte output buffer; use collect_outputs()"
        );
        &self.core.outputs
    }

    /// The current outputs of all agents, materialized into a fresh
    /// `Vec` — works on every storage representation (sources occupy
    /// indices `< num_sources`). Allocates; meant for inspection and
    /// equivalence tests, not hot paths.
    pub fn collect_outputs(&self) -> Vec<Opinion> {
        let num_sources = self.core.spec.num_sources() as usize;
        let mut out = vec![self.core.source.output(); self.core.spec.n() as usize];
        self.population.write_outputs(&mut out[num_sources..]);
        out
    }

    /// Executes one synchronous round.
    ///
    /// The round is one fused pass over the container
    /// ([`Protocol::step_fused`]): each agent's observation is drawn on
    /// demand, its update applied, and the round counters folded in the
    /// same pass. Under sleepy-agent faults each sleeper then keeps its
    /// round-start state and output.
    pub fn step(&mut self) {
        self.core.step(self.population.as_mut());
    }

    /// Runs until convergence is confirmed or `max_rounds` have executed.
    ///
    /// The observer receives round 0 (the initial configuration) and every
    /// round thereafter.
    pub fn run<O: RoundObserver + ?Sized>(
        &mut self,
        max_rounds: u64,
        criterion: ConvergenceCriterion,
        observer: &mut O,
    ) -> ConvergenceReport {
        self.core
            .run(self.population.as_mut(), max_rounds, criterion, observer)
    }
}

impl<P> Engine<TypedPopulation<P>>
where
    P: Protocol + fmt::Debug + Send + Sync,
{
    /// The protocol configuration.
    pub fn protocol(&self) -> &P {
        self.population.protocol()
    }

    /// Non-source agent states (read-only).
    pub fn states(&self) -> &[P::State] {
        self.population.states()
    }

    /// Replaces the state of non-source agent `idx` (0-based among
    /// non-sources) and refreshes cached counters. Adversary entry point.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn set_state(&mut self, idx: usize, state: P::State) {
        self.population.set_state(idx, state);
        self.refresh_caches();
    }

    /// Re-derives outputs and counters from the states — call after bulk
    /// state surgery through [`Engine::states_mut`].
    pub fn refresh_caches(&mut self) {
        self.core.refresh_caches(self.population.as_ref());
    }

    /// Mutable access to non-source states for adversarial surgery.
    /// Callers **must** invoke [`Engine::refresh_caches`] afterwards.
    pub fn states_mut(&mut self) -> &mut [P::State] {
        self.population.states_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEventKind;
    use crate::neighborhood::tests::Ring;
    use crate::observer::{NullObserver, TrajectoryRecorder};
    use fet_core::bitplane::BitPopulation;
    use fet_core::erased::ErasedProtocol;
    use fet_core::fet::{FetProtocol, FetState};

    fn spec(n: u64) -> ProblemSpec {
        ProblemSpec::single_source(n, Opinion::One).unwrap()
    }

    fn typed(ell: u32) -> Box<TypedPopulation<FetProtocol>> {
        Box::new(TypedPopulation::new(FetProtocol::new(ell).unwrap()))
    }

    /// An engine on `neighborhood` with `num_sources` sources of opinion 1,
    /// built the way the facade builds graph runs.
    fn graph_engine<A: Population + ?Sized>(
        population: Box<A>,
        neighborhood: Box<dyn Neighborhood>,
        num_sources: u64,
        init: InitialCondition,
        seed: u64,
    ) -> Engine<A> {
        let n = u64::from(neighborhood.population());
        let spec = ProblemSpec::new(n, num_sources, Opinion::One).unwrap();
        Engine::new(population, spec, Fidelity::Agent, init, seed)
            .unwrap()
            .with_neighborhood(neighborhood)
            .unwrap()
    }

    #[test]
    fn engine_rejects_mismatched_states() {
        let p = FetProtocol::new(4).unwrap();
        let err = Engine::from_population(
            Box::new(TypedPopulation::from_states(p, vec![])),
            spec(10),
            Fidelity::Agent,
            1,
        );
        assert!(matches!(err, Err(SimError::InvalidParameter { .. })));
    }

    #[test]
    fn initial_condition_all_wrong_sets_x0() {
        let e = Engine::new(
            typed(4),
            spec(100),
            Fidelity::Agent,
            InitialCondition::AllWrong,
            3,
        )
        .unwrap();
        // Only the source holds 1.
        assert!((e.fraction_ones() - 0.01).abs() < 1e-12);
        assert_eq!(e.fraction_correct(), 0.0);
        assert!(!e.all_correct());
    }

    #[test]
    fn initial_condition_all_correct_is_absorbing_for_fet() {
        let mut e = Engine::new(
            typed(8),
            spec(200),
            Fidelity::Agent,
            InitialCondition::AllCorrect,
            5,
        )
        .unwrap();
        // The all-correct configuration must persist: every sample is
        // unanimous, every comparison ties once the stale counts settle.
        // The very first round may flip agents whose adversarial stale
        // count differs from ℓ; run a couple of rounds then require
        // stability.
        for _ in 0..3 {
            e.step();
        }
        let x_after_settle = e.fraction_ones();
        for _ in 0..10 {
            e.step();
        }
        assert_eq!(e.fraction_ones(), x_after_settle);
        assert!(
            x_after_settle > 0.9,
            "population should stay near consensus"
        );
    }

    #[test]
    fn fet_converges_small_population_all_fidelities() {
        for fidelity in [
            Fidelity::Agent,
            Fidelity::Binomial,
            Fidelity::WithoutReplacement,
        ] {
            let p = FetProtocol::for_population(300, 4.0).unwrap();
            let mut e = Engine::new(
                Box::new(TypedPopulation::new(p)),
                spec(300),
                fidelity,
                InitialCondition::AllWrong,
                11,
            )
            .unwrap();
            let report = e.run(20_000, ConvergenceCriterion::new(5), &mut NullObserver);
            assert!(report.converged(), "{fidelity:?} failed: {report:?}");
            assert_eq!(report.final_fraction_correct, 1.0);
        }
    }

    #[test]
    fn without_replacement_rejects_oversized_samples() {
        // 2ℓ = 64 samples from a population of 20 cannot be distinct.
        let err = Engine::new(
            typed(32),
            spec(20),
            Fidelity::WithoutReplacement,
            InitialCondition::AllWrong,
            1,
        );
        assert!(matches!(
            err,
            Err(SimError::InvalidParameter {
                name: "fidelity",
                ..
            })
        ));
    }

    #[test]
    fn without_replacement_consensus_is_absorbing() {
        // Every sample from a unanimous population is unanimous whether or
        // not indices repeat, so the absorbing argument carries over.
        let p = FetProtocol::for_population(200, 4.0).unwrap();
        let mut e = Engine::new(
            Box::new(TypedPopulation::new(p)),
            spec(200),
            Fidelity::WithoutReplacement,
            InitialCondition::AllWrong,
            41,
        )
        .unwrap();
        let report = e.run(20_000, ConvergenceCriterion::new(3), &mut NullObserver);
        assert!(report.converged(), "{report:?}");
        for _ in 0..200 {
            e.step();
            assert!(
                e.all_correct(),
                "absorbing state violated at round {}",
                e.round()
            );
        }
    }

    #[test]
    fn converged_state_is_absorbing() {
        let p = FetProtocol::for_population(200, 4.0).unwrap();
        let mut e = Engine::new(
            Box::new(TypedPopulation::new(p)),
            spec(200),
            Fidelity::Binomial,
            InitialCondition::AllWrong,
            13,
        )
        .unwrap();
        let report = e.run(20_000, ConvergenceCriterion::new(3), &mut NullObserver);
        assert!(report.converged());
        // Keep stepping: consensus on the correct opinion must never break.
        for _ in 0..200 {
            e.step();
            assert!(
                e.all_correct(),
                "absorbing state violated at round {}",
                e.round()
            );
        }
    }

    #[test]
    fn observer_sees_initial_round_and_monotone_round_numbers() {
        let mut e = Engine::new(
            typed(6),
            spec(50),
            Fidelity::Agent,
            InitialCondition::Random,
            17,
        )
        .unwrap();
        let mut rec = TrajectoryRecorder::new();
        let report = e.run(50, ConvergenceCriterion::new(2), &mut rec);
        assert_eq!(rec.fractions().len() as u64, report.rounds_run + 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut e = Engine::new(
                typed(8),
                spec(120),
                Fidelity::Agent,
                InitialCondition::Random,
                seed,
            )
            .unwrap();
            let mut rec = TrajectoryRecorder::new();
            e.run(300, ConvergenceCriterion::new(2), &mut rec);
            rec.into_fractions()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100), "different seeds should differ");
    }

    #[test]
    fn correct_zero_instance_converges_to_zero() {
        let spec0 = ProblemSpec::single_source(300, Opinion::Zero).unwrap();
        let p = FetProtocol::for_population(300, 4.0).unwrap();
        let mut e = Engine::new(
            Box::new(TypedPopulation::new(p)),
            spec0,
            Fidelity::Binomial,
            InitialCondition::AllWrong,
            23,
        )
        .unwrap();
        let report = e.run(20_000, ConvergenceCriterion::new(5), &mut NullObserver);
        assert!(report.converged(), "{report:?}");
        assert!((e.fraction_ones() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn set_state_refreshes_counters() {
        let mut e = Engine::new(
            typed(4),
            spec(10),
            Fidelity::Agent,
            InitialCondition::AllCorrect,
            29,
        )
        .unwrap();
        assert!(e.all_correct());
        e.set_state(
            0,
            FetState {
                opinion: Opinion::Zero,
                prev_count_second_half: 0,
            },
        );
        assert!(!e.all_correct());
        assert!((e.fraction_ones() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn source_retarget_mid_run_restabilizes() {
        let p = FetProtocol::for_population(300, 4.0).unwrap();
        let mut e = Engine::new(
            Box::new(TypedPopulation::new(p)),
            spec(300),
            Fidelity::Binomial,
            InitialCondition::AllCorrect,
            31,
        )
        .unwrap();
        e.set_fault_plan(FaultPlan::with_source_retarget(10, Opinion::Zero))
            .unwrap();
        // After round 10 the correct bit is Zero; the population must
        // re-converge to all-zero despite starting all-one.
        let mut converged_to_zero = false;
        for _ in 0..20_000 {
            e.step();
            if e.correct() == Opinion::Zero && e.all_correct() {
                converged_to_zero = true;
                break;
            }
        }
        assert!(
            converged_to_zero,
            "population failed to re-stabilize after retarget"
        );
        assert_eq!(e.fraction_ones(), 0.0);
    }

    // ---- the erased instantiation: the facade's hot path ----

    fn fet_population(ell: u32) -> Box<dyn fet_core::population::DynPopulation> {
        ErasedProtocol::new(FetProtocol::new(ell).unwrap()).population()
    }

    /// Every fidelity, with and without faults: the population-erased
    /// engine must replay the typed engine's trajectory bit for bit.
    #[test]
    fn population_engine_is_stream_identical_to_typed() {
        let cases: Vec<(Fidelity, FaultPlan)> = vec![
            (Fidelity::Agent, FaultPlan::none()),
            (Fidelity::Binomial, FaultPlan::none()),
            (Fidelity::WithoutReplacement, FaultPlan::none()),
            (Fidelity::Binomial, FaultPlan::with_noise(0.03).unwrap()),
            (Fidelity::Binomial, FaultPlan::with_sleep(0.2).unwrap()),
            (
                Fidelity::Binomial,
                FaultPlan::with_source_retarget(5, Opinion::Zero),
            ),
        ];
        for (fidelity, fault) in cases {
            let mut typed =
                Engine::new(typed(8), spec(150), fidelity, InitialCondition::Random, 77).unwrap();
            typed.set_fault_plan(fault).unwrap();
            let mut erased = Engine::new(
                fet_population(8),
                spec(150),
                fidelity,
                InitialCondition::Random,
                77,
            )
            .unwrap();
            erased.set_fault_plan(fault).unwrap();
            let mut rec_t = TrajectoryRecorder::new();
            let mut rec_e = TrajectoryRecorder::new();
            let rt = typed.run(120, ConvergenceCriterion::new(3), &mut rec_t);
            let re = erased.run(120, ConvergenceCriterion::new(3), &mut rec_e);
            assert_eq!(rt, re, "{fidelity:?}/{fault:?} reports diverged");
            assert_eq!(
                rec_t.into_fractions(),
                rec_e.into_fractions(),
                "{fidelity:?}/{fault:?} trajectories diverged"
            );
            assert_eq!(typed.outputs(), erased.outputs());
        }
    }

    #[test]
    fn population_engine_on_a_ring_matches_typed() {
        let mut typed = graph_engine(
            typed(3),
            Box::new(Ring::new(60)),
            2,
            InitialCondition::AllWrong,
            19,
        );
        let mut erased = graph_engine(
            fet_population(3),
            Box::new(Ring::new(60)),
            2,
            InitialCondition::AllWrong,
            19,
        );
        for _ in 0..40 {
            typed.step();
            erased.step();
        }
        assert_eq!(typed.outputs(), erased.outputs());
        assert_eq!(typed.fraction_correct(), erased.fraction_correct());
    }

    #[test]
    fn new_rejects_prefilled_containers() {
        let mut rng = SeedTree::new(1).child("prefill").rng();
        let mut erased = fet_population(4);
        erased.push_agent(Opinion::Zero, &mut rng);
        let mut typed = typed(4);
        typed.push_agent(Opinion::Zero, &mut rng);
        let errors = [
            Engine::new(
                erased,
                spec(10),
                Fidelity::Agent,
                InitialCondition::AllWrong,
                1,
            )
            .err(),
            Engine::new(
                typed,
                spec(10),
                Fidelity::Agent,
                InitialCondition::AllWrong,
                1,
            )
            .err(),
        ];
        for err in errors {
            assert!(
                matches!(
                    err,
                    Some(SimError::InvalidParameter {
                        name: "population",
                        ..
                    })
                ),
                "{err:?}"
            );
        }
    }

    /// `with_neighborhood` checks the structure against the engine it
    /// joins: every vertex observable, one vertex per agent, literal
    /// sampling.
    #[test]
    fn with_neighborhood_rejects_mismatched_structures() {
        let engine = |fidelity| {
            Engine::new(typed(3), spec(60), fidelity, InitialCondition::AllWrong, 1).unwrap()
        };
        let mut isolated = Ring::new(60);
        isolated.links[7].clear();
        let cases: [(Fidelity, Box<dyn Neighborhood>, &str); 3] = [
            (Fidelity::Agent, Box::new(isolated), "topology"),
            (Fidelity::Agent, Box::new(Ring::new(61)), "topology"),
            (Fidelity::Binomial, Box::new(Ring::new(60)), "fidelity"),
        ];
        for (fidelity, neighborhood, axis) in cases {
            match engine(fidelity).with_neighborhood(neighborhood) {
                Err(SimError::InvalidParameter { name, .. }) => assert_eq!(name, axis),
                other => panic!("expected a `{axis}` error, got {other:?}"),
            }
        }
    }

    /// Out-of-range fault plans are rejected on both instantiations, and
    /// the previous plan stays installed.
    #[test]
    fn fault_setters_reject_out_of_range_plans() {
        let mut typed = Engine::new(
            typed(4),
            spec(60),
            Fidelity::Agent,
            InitialCondition::AllWrong,
            1,
        )
        .unwrap();
        let mut erased = Engine::new(
            fet_population(4),
            spec(60),
            Fidelity::Binomial,
            InitialCondition::AllWrong,
            1,
        )
        .unwrap();
        let bad = [
            FaultPlan {
                flip_prob: 1.5,
                ..FaultPlan::none()
            },
            FaultPlan {
                flip_prob: f64::NAN,
                ..FaultPlan::none()
            },
            FaultPlan {
                sleep_prob: -1.0,
                ..FaultPlan::none()
            },
        ];
        for plan in bad {
            assert!(typed.set_fault_plan(plan).is_err(), "{plan:?}");
            assert!(erased.set_fault_plan(plan).is_err(), "{plan:?}");
            let schedule = FaultSchedule::from_plan(plan);
            assert!(typed.set_fault_schedule(&schedule).is_err(), "{plan:?}");
        }
        typed.step();
        erased.step();
        assert_eq!(typed.round(), 1);
    }

    // ---- the fused execution mode ----

    /// Fused rounds replay bit for bit across the typed and
    /// population-erased instantiations, for every per-agent fidelity and
    /// every fault plan (noise, sleep, retargeting).
    #[test]
    fn fused_is_stream_identical_across_typed_and_population_engines() {
        let cases: Vec<(Fidelity, FaultPlan)> = vec![
            (Fidelity::Binomial, FaultPlan::none()),
            (Fidelity::WithoutReplacement, FaultPlan::none()),
            (Fidelity::Agent, FaultPlan::none()),
            (Fidelity::Agent, FaultPlan::with_noise(0.03).unwrap()),
            (Fidelity::Agent, FaultPlan::with_sleep(0.2).unwrap()),
            (Fidelity::Binomial, FaultPlan::with_noise(0.03).unwrap()),
            (
                Fidelity::Binomial,
                FaultPlan::with_source_retarget(5, Opinion::Zero),
            ),
        ];
        for (fidelity, fault) in cases {
            let mut typed =
                Engine::new(typed(8), spec(150), fidelity, InitialCondition::Random, 77).unwrap();
            typed.set_fault_plan(fault).unwrap();
            typed.set_execution_mode(ExecutionMode::Fused).unwrap();
            let mut erased = Engine::new(
                fet_population(8),
                spec(150),
                fidelity,
                InitialCondition::Random,
                77,
            )
            .unwrap();
            erased.set_fault_plan(fault).unwrap();
            erased.set_execution_mode(ExecutionMode::Fused).unwrap();
            let mut rec_t = TrajectoryRecorder::new();
            let mut rec_e = TrajectoryRecorder::new();
            let rt = typed.run(120, ConvergenceCriterion::new(3), &mut rec_t);
            let re = erased.run(120, ConvergenceCriterion::new(3), &mut rec_e);
            assert_eq!(rt, re, "{fidelity:?}/{fault:?} fused reports diverged");
            assert_eq!(
                rec_t.into_fractions(),
                rec_e.into_fractions(),
                "{fidelity:?}/{fault:?} fused trajectories diverged"
            );
            assert_eq!(typed.outputs(), erased.outputs());
        }
    }

    /// Auto mode runs mean-field rounds through the fused kernel: the
    /// round-start snapshot is never allocated.
    #[test]
    fn auto_mode_runs_mean_field_rounds_with_zero_scratch() {
        let mut auto = Engine::new(
            typed(6),
            spec(300),
            Fidelity::Binomial,
            InitialCondition::AllWrong,
            3,
        )
        .unwrap();
        assert_eq!(auto.execution_mode(), ExecutionMode::Auto);
        for _ in 0..20 {
            auto.step();
        }
        assert_eq!(
            auto.round_scratch_bytes(),
            0,
            "mean-field fused rounds must not allocate a snapshot"
        );
    }

    /// Literal Agent rounds read the round-start opinions of every vertex:
    /// they keep exactly the n-byte double buffer, in every fused mode.
    #[test]
    fn agent_rounds_keep_exactly_the_double_buffer() {
        for mode in [
            ExecutionMode::Auto,
            ExecutionMode::Fused,
            ExecutionMode::FusedParallel { threads: 3 },
        ] {
            let mut literal = Engine::new(
                typed(4),
                spec(100),
                Fidelity::Agent,
                InitialCondition::AllWrong,
                9,
            )
            .unwrap();
            literal.set_execution_mode(mode).unwrap();
            for _ in 0..5 {
                literal.step();
            }
            assert_eq!(literal.round_scratch_bytes(), 100, "{mode:?}");
        }
    }

    // ---- graph-fused execution ----

    /// Graph rounds replay bit for bit across the typed and
    /// population-erased instantiations in every fused mode, and `Auto` now
    /// resolves graph rounds to the fused single pass (same stream as
    /// forcing `Fused`).
    #[test]
    fn graph_fused_is_stream_identical_across_typed_and_population_engines() {
        for mode in [
            ExecutionMode::Auto,
            ExecutionMode::Fused,
            ExecutionMode::FusedParallel { threads: 3 },
        ] {
            let mut typed = graph_engine(
                typed(3),
                Box::new(Ring::new(61)),
                2,
                InitialCondition::AllWrong,
                19,
            );
            typed.set_execution_mode(mode).unwrap();
            let mut erased = graph_engine(
                fet_population(3),
                Box::new(Ring::new(61)),
                2,
                InitialCondition::AllWrong,
                19,
            );
            erased.set_execution_mode(mode).unwrap();
            for _ in 0..40 {
                typed.step();
                erased.step();
            }
            assert_eq!(typed.outputs(), erased.outputs(), "{mode:?}");
            assert_eq!(typed.fraction_correct(), erased.fraction_correct());
        }
    }

    /// `Auto` and forced `Fused` are the same stream on graphs.
    #[test]
    fn graph_auto_resolves_to_fused() {
        let run = |mode: ExecutionMode| {
            let mut e = graph_engine(
                typed(3),
                Box::new(Ring::new(60)),
                2,
                InitialCondition::Random,
                23,
            );
            e.set_execution_mode(mode).unwrap();
            let mut rec = TrajectoryRecorder::new();
            e.run(60, ConvergenceCriterion::new(3), &mut rec);
            rec.into_fractions()
        };
        assert_eq!(
            run(ExecutionMode::Auto),
            run(ExecutionMode::Fused),
            "Auto must resolve graph rounds to fused"
        );
    }

    /// Graph-fused rounds keep exactly the persistent opinion double
    /// buffer (~1 byte/agent) and allocate nothing else per round.
    #[test]
    fn graph_fused_scratch_is_exactly_the_double_buffer() {
        let n = 80usize;
        let mut fused = graph_engine(
            typed(3),
            Box::new(Ring::new(n as u32)),
            2,
            InitialCondition::AllWrong,
            7,
        );
        fused.set_execution_mode(ExecutionMode::Fused).unwrap();
        for _ in 0..20 {
            fused.step();
        }
        assert_eq!(
            fused.round_scratch_bytes(),
            n * std::mem::size_of::<Opinion>(),
            "graph-fused keeps the n-byte double buffer and nothing else"
        );
    }

    /// The graph-fused family must satisfy the absorbing guarantee end to
    /// end.
    #[test]
    fn graph_fused_converges_and_absorbs_on_the_complete_ring() {
        // A dense ring (every vertex sees half the ring) behaves like the
        // complete graph: FET must converge and stay converged.
        let n = 120u32;
        let links: Vec<Vec<u32>> = (0..n)
            .map(|v| (1..=n / 2).map(|d| (v + d) % n).collect())
            .collect();
        #[derive(Debug, Clone)]
        struct Dense {
            links: Vec<Vec<u32>>,
        }
        impl Neighborhood for Dense {
            fn population(&self) -> u32 {
                self.links.len() as u32
            }
            fn neighbors_of(&self, vertex: u32) -> &[u32] {
                &self.links[vertex as usize]
            }
            fn clone_box(&self) -> Box<dyn Neighborhood> {
                Box::new(self.clone())
            }
        }
        let mut e = graph_engine(
            Box::new(TypedPopulation::new(
                FetProtocol::for_population(u64::from(n), 4.0).unwrap(),
            )),
            Box::new(Dense { links }),
            1,
            InitialCondition::AllWrong,
            13,
        );
        e.set_execution_mode(ExecutionMode::Fused).unwrap();
        let report = e.run(20_000, ConvergenceCriterion::new(3), &mut NullObserver);
        assert!(report.converged(), "{report:?}");
        for _ in 0..100 {
            e.step();
            assert!(e.all_correct(), "graph-fused absorbing state violated");
        }
    }

    /// The fused path's end-to-end guarantees: convergence from the
    /// all-wrong start, absorbing once converged.
    #[test]
    fn fused_converged_state_is_absorbing() {
        let p = FetProtocol::for_population(200, 4.0).unwrap();
        let mut e = Engine::new(
            Box::new(TypedPopulation::new(p)),
            spec(200),
            Fidelity::Binomial,
            InitialCondition::AllWrong,
            13,
        )
        .unwrap();
        e.set_execution_mode(ExecutionMode::Fused).unwrap();
        let report = e.run(20_000, ConvergenceCriterion::new(3), &mut NullObserver);
        assert!(report.converged(), "{report:?}");
        for _ in 0..200 {
            e.step();
            assert!(e.all_correct(), "fused absorbing state violated");
        }
        assert_eq!(e.round_scratch_bytes(), 0);
    }

    // ---- the parallel fused execution mode ----

    /// Parallel fused rounds replay bit for bit across the typed and
    /// population-erased instantiations for a fixed (seed, thread count), for
    /// every per-agent fidelity and every fault plan.
    #[test]
    fn fused_parallel_is_stream_identical_across_typed_and_population_engines() {
        let cases: Vec<(Fidelity, FaultPlan)> = vec![
            (Fidelity::Binomial, FaultPlan::none()),
            (Fidelity::WithoutReplacement, FaultPlan::none()),
            (Fidelity::Agent, FaultPlan::none()),
            (Fidelity::Binomial, FaultPlan::with_noise(0.03).unwrap()),
            (
                Fidelity::WithoutReplacement,
                FaultPlan::with_sleep(0.2).unwrap(),
            ),
            (
                Fidelity::Binomial,
                FaultPlan::with_source_retarget(5, Opinion::Zero),
            ),
        ];
        let mode = ExecutionMode::FusedParallel { threads: 3 };
        for (fidelity, fault) in cases {
            let mut typed =
                Engine::new(typed(8), spec(151), fidelity, InitialCondition::Random, 77).unwrap();
            typed.set_fault_plan(fault).unwrap();
            typed.set_execution_mode(mode).unwrap();
            let mut erased = Engine::new(
                fet_population(8),
                spec(151),
                fidelity,
                InitialCondition::Random,
                77,
            )
            .unwrap();
            erased.set_fault_plan(fault).unwrap();
            erased.set_execution_mode(mode).unwrap();
            let mut rec_t = TrajectoryRecorder::new();
            let mut rec_e = TrajectoryRecorder::new();
            let rt = typed.run(120, ConvergenceCriterion::new(3), &mut rec_t);
            let re = erased.run(120, ConvergenceCriterion::new(3), &mut rec_e);
            assert_eq!(rt, re, "{fidelity:?}/{fault:?} parallel reports diverged");
            assert_eq!(
                rec_t.into_fractions(),
                rec_e.into_fractions(),
                "{fidelity:?}/{fault:?} parallel trajectories diverged"
            );
            assert_eq!(typed.outputs(), erased.outputs());
        }
    }

    /// The shard count keys the parallel stream: different thread counts
    /// are distinct (statistically equivalent) trajectories, while the
    /// same count replays exactly.
    #[test]
    fn fused_parallel_stream_is_keyed_by_shard_count() {
        let run = |threads: u32| {
            let mut e = Engine::new(
                typed(8),
                spec(150),
                Fidelity::Binomial,
                InitialCondition::Random,
                5,
            )
            .unwrap();
            e.set_execution_mode(ExecutionMode::FusedParallel { threads })
                .unwrap();
            let mut rec = TrajectoryRecorder::new();
            e.run(60, ConvergenceCriterion::new(3), &mut rec);
            rec.into_fractions()
        };
        assert_eq!(run(2), run(2), "fixed (seed, threads) must replay");
        assert_ne!(
            run(1),
            run(2),
            "shard counts are distinct deterministic streams"
        );
        // threads = 1 is still the *sharded* stream (counter-derived shard
        // RNG), not the sequential fused stream.
        let mut fused = Engine::new(
            typed(8),
            spec(150),
            Fidelity::Binomial,
            InitialCondition::Random,
            5,
        )
        .unwrap();
        fused.set_execution_mode(ExecutionMode::Fused).unwrap();
        let mut rec = TrajectoryRecorder::new();
        fused.run(60, ConvergenceCriterion::new(3), &mut rec);
        assert_ne!(run(1), rec.into_fractions());
    }

    #[test]
    fn fused_parallel_mode_rejects_only_zero_threads() {
        for fidelity in [Fidelity::Agent, Fidelity::Binomial] {
            let mut e =
                Engine::new(typed(4), spec(60), fidelity, InitialCondition::AllWrong, 1).unwrap();
            assert!(matches!(
                e.set_execution_mode(ExecutionMode::FusedParallel { threads: 0 }),
                Err(SimError::InvalidParameter { name: "mode", .. })
            ));
            e.set_execution_mode(ExecutionMode::FusedParallel { threads: 4 })
                .unwrap();
            e.set_execution_mode(ExecutionMode::Fused).unwrap();
        }
    }

    /// The parallel path inherits the fused guarantees: zero round
    /// scratch, convergence from the all-wrong start, absorbing once
    /// converged — including the degenerate n < threads case.
    #[test]
    fn fused_parallel_converges_with_zero_scratch() {
        let p = FetProtocol::for_population(200, 4.0).unwrap();
        let mut e = Engine::new(
            Box::new(TypedPopulation::new(p)),
            spec(200),
            Fidelity::Binomial,
            InitialCondition::AllWrong,
            13,
        )
        .unwrap();
        e.set_execution_mode(ExecutionMode::FusedParallel { threads: 4 })
            .unwrap();
        let report = e.run(20_000, ConvergenceCriterion::new(3), &mut NullObserver);
        assert!(report.converged(), "{report:?}");
        for _ in 0..100 {
            e.step();
            assert!(e.all_correct(), "parallel absorbing state violated");
        }
        assert_eq!(e.round_scratch_bytes(), 0);

        // n = 6 agents over 16 shards: trailing shards are empty.
        let mut tiny = Engine::new(
            typed(2),
            spec(6),
            Fidelity::Binomial,
            InitialCondition::AllWrong,
            3,
        )
        .unwrap();
        tiny.set_execution_mode(ExecutionMode::FusedParallel { threads: 16 })
            .unwrap();
        for _ in 0..50 {
            tiny.step();
        }
        assert_eq!(tiny.round_scratch_bytes(), 0);
    }

    #[test]
    fn auto_selection_parallelizes_only_large_rounds() {
        use super::auto_round_impl;
        assert_eq!(auto_round_impl(8, FUSED_PARALLEL_AUTO_MIN_N - 1), None);
        assert_eq!(
            auto_round_impl(1, FUSED_PARALLEL_AUTO_MIN_N),
            None,
            "single-core hosts never pay thread-spawn overhead"
        );
        assert_eq!(auto_round_impl(4, FUSED_PARALLEL_AUTO_MIN_N), Some(4));
    }

    // ---- bit-plane storage ----

    fn fet_bit_population(ell: u32) -> Box<dyn fet_core::population::DynPopulation> {
        ErasedProtocol::new(FetProtocol::new(ell).unwrap())
            .bit_population()
            .expect("small-ℓ FET is packable")
    }

    /// Bit-plane engines replay the typed engine's fused trajectories bit
    /// for bit — binomial and literal Agent rounds, both fused modes, with
    /// and without noise, sleep and retargeting.
    #[test]
    fn bit_population_engine_is_stream_identical_in_every_fused_mode() {
        let cases: Vec<(Fidelity, ExecutionMode, FaultPlan)> = vec![
            (Fidelity::Binomial, ExecutionMode::Fused, FaultPlan::none()),
            (
                Fidelity::Binomial,
                ExecutionMode::Fused,
                FaultPlan::with_noise(0.03).unwrap(),
            ),
            (
                Fidelity::Binomial,
                ExecutionMode::Fused,
                FaultPlan::with_source_retarget(5, Opinion::Zero),
            ),
            (
                Fidelity::Binomial,
                ExecutionMode::FusedParallel { threads: 3 },
                FaultPlan::none(),
            ),
            (
                Fidelity::Agent,
                ExecutionMode::Fused,
                FaultPlan::with_noise(0.03).unwrap(),
            ),
            (
                Fidelity::Agent,
                ExecutionMode::FusedParallel { threads: 3 },
                FaultPlan::none(),
            ),
            (
                Fidelity::Binomial,
                ExecutionMode::Fused,
                FaultPlan::with_sleep(0.3).unwrap(),
            ),
            (
                Fidelity::Agent,
                ExecutionMode::FusedParallel { threads: 3 },
                FaultPlan::with_sleep(0.3).unwrap(),
            ),
        ];
        for (fidelity, mode, fault) in cases {
            let mut typed =
                Engine::new(typed(8), spec(150), fidelity, InitialCondition::Random, 77).unwrap();
            typed.set_fault_plan(fault).unwrap();
            typed.set_execution_mode(mode).unwrap();
            let mut bits = Engine::new(
                fet_bit_population(8),
                spec(150),
                fidelity,
                InitialCondition::Random,
                77,
            )
            .unwrap();
            assert!(bits.uses_bit_storage());
            bits.set_fault_plan(fault).unwrap();
            bits.set_execution_mode(mode).unwrap();
            let mut rec_t = TrajectoryRecorder::new();
            let mut rec_b = TrajectoryRecorder::new();
            let rt = typed.run(120, ConvergenceCriterion::new(3), &mut rec_t);
            let rb = bits.run(120, ConvergenceCriterion::new(3), &mut rec_b);
            assert_eq!(rt, rb, "{fidelity:?}/{mode:?}/{fault:?} reports diverged");
            assert_eq!(
                rec_t.into_fractions(),
                rec_b.into_fractions(),
                "{fidelity:?}/{mode:?}/{fault:?} trajectories diverged"
            );
            assert_eq!(typed.outputs(), bits.collect_outputs().as_slice());
        }
    }

    /// When every agent sleeps, a round changes nothing, in every mode and
    /// on both storages, although each agent still draws and updates.
    #[test]
    fn rounds_where_every_agent_sleeps_keep_every_state() {
        for mode in [
            ExecutionMode::Fused,
            ExecutionMode::FusedParallel { threads: 3 },
        ] {
            for fidelity in [Fidelity::Agent, Fidelity::Binomial] {
                let mut typed =
                    Engine::new(typed(8), spec(150), fidelity, InitialCondition::Random, 77)
                        .unwrap();
                typed.set_execution_mode(mode).unwrap();
                typed
                    .set_fault_plan(FaultPlan::with_sleep(1.0).unwrap())
                    .unwrap();
                let (states, outputs) = (typed.states().to_vec(), typed.outputs().to_vec());
                let mut bits = Engine::new(
                    fet_bit_population(8),
                    spec(150),
                    fidelity,
                    InitialCondition::Random,
                    77,
                )
                .unwrap();
                bits.set_execution_mode(mode).unwrap();
                bits.set_fault_plan(FaultPlan::with_sleep(1.0).unwrap())
                    .unwrap();
                for _ in 0..5 {
                    typed.step();
                    bits.step();
                }
                assert_eq!(typed.states(), states, "{mode:?}/{fidelity:?}");
                assert_eq!(typed.outputs(), outputs, "{mode:?}/{fidelity:?}");
                assert_eq!(bits.collect_outputs(), outputs, "{mode:?}/{fidelity:?}");
                assert_eq!(typed.fraction_correct(), bits.fraction_correct());
            }
        }
    }

    /// Graph rounds on bit-plane storage read the packed word snapshot
    /// through the same index stream as the byte double buffer: the
    /// trajectories are bit-identical across storage representations.
    #[test]
    fn bit_population_engine_on_a_ring_matches_typed() {
        for mode in [
            ExecutionMode::Fused,
            ExecutionMode::FusedParallel { threads: 3 },
        ] {
            let mut typed = graph_engine(
                typed(3),
                Box::new(Ring::new(151)),
                2,
                InitialCondition::AllWrong,
                19,
            );
            typed.set_execution_mode(mode).unwrap();
            let mut bits = graph_engine(
                fet_bit_population(3),
                Box::new(Ring::new(151)),
                2,
                InitialCondition::AllWrong,
                19,
            );
            bits.set_execution_mode(mode).unwrap();
            for _ in 0..40 {
                typed.step();
                bits.step();
            }
            assert_eq!(
                typed.outputs(),
                bits.collect_outputs().as_slice(),
                "{mode:?}"
            );
            assert_eq!(typed.fraction_correct(), bits.fraction_correct());
        }
    }

    /// Bit-plane runs keep no byte output buffer, so the byte output
    /// accessor panics.
    #[test]
    fn bit_storage_outputs_accessor_panics() {
        let e = Engine::new(
            fet_bit_population(4),
            spec(60),
            Fidelity::Agent,
            InitialCondition::AllWrong,
            1,
        )
        .unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = e.outputs();
        }));
        assert!(caught.is_err(), "outputs() must panic on bit storage");
    }

    /// Mean-field bit rounds keep zero auxiliary memory; Agent and graph
    /// bit rounds keep exactly the ⌈stepped/64⌉-word round-start snapshot
    /// — 1 bit/agent where the byte engine keeps 1 byte/agent.
    #[test]
    fn bit_storage_scratch_is_the_word_snapshot() {
        let mut mean_field = Engine::new(
            fet_bit_population(6),
            spec(300),
            Fidelity::Binomial,
            InitialCondition::AllWrong,
            3,
        )
        .unwrap();
        for _ in 0..10 {
            mean_field.step();
        }
        assert_eq!(mean_field.round_scratch_bytes(), 0);

        let mut literal = Engine::new(
            fet_bit_population(6),
            spec(300),
            Fidelity::Agent,
            InitialCondition::AllWrong,
            3,
        )
        .unwrap();
        for _ in 0..10 {
            literal.step();
        }
        assert_eq!(
            literal.round_scratch_bytes(),
            299usize.div_ceil(64) * std::mem::size_of::<u64>()
        );

        let mut ring = graph_engine(
            fet_bit_population(3),
            Box::new(Ring::new(640)),
            2,
            InitialCondition::AllWrong,
            7,
        );
        ring.set_execution_mode(ExecutionMode::Fused).unwrap();
        for _ in 0..10 {
            ring.step();
        }
        assert_eq!(
            ring.round_scratch_bytes(),
            638usize.div_ceil(64) * std::mem::size_of::<u64>(),
            "graph bit rounds keep the packed word snapshot and nothing else"
        );
    }

    #[test]
    fn population_engine_clones_run_independently() {
        let mut a = Engine::new(
            fet_population(6),
            spec(80),
            Fidelity::Binomial,
            InitialCondition::AllWrong,
            5,
        )
        .unwrap();
        let mut b = a.clone();
        let ra = a.run(2_000, ConvergenceCriterion::new(3), &mut NullObserver);
        let rb = b.run(2_000, ConvergenceCriterion::new(3), &mut NullObserver);
        assert_eq!(ra, rb, "clone must replay the original's stream");
    }

    /// An event-free schedule must leave every random stream untouched:
    /// the run replays a plain fault-plan run bit for bit.
    #[test]
    fn event_free_schedule_is_stream_identical_to_plan() {
        let base = FaultPlan::with_noise(0.02).unwrap();
        let mut plain = Engine::new(
            typed(8),
            spec(150),
            Fidelity::Binomial,
            InitialCondition::Random,
            99,
        )
        .unwrap();
        plain.set_fault_plan(base).unwrap();
        let mut scheduled = Engine::new(
            typed(8),
            spec(150),
            Fidelity::Binomial,
            InitialCondition::Random,
            99,
        )
        .unwrap();
        scheduled
            .set_fault_schedule(&FaultSchedule::from_plan(base))
            .unwrap();
        let mut rec_p = TrajectoryRecorder::new();
        let mut rec_s = TrajectoryRecorder::new();
        let rp = plain.run(200, ConvergenceCriterion::new(3), &mut rec_p);
        let rs = scheduled.run(200, ConvergenceCriterion::new(3), &mut rec_s);
        assert_eq!(rp, rs, "reports diverged");
        assert_eq!(rec_p.into_fractions(), rec_s.into_fractions());
        assert_eq!(plain.outputs(), scheduled.outputs());
        assert!(scheduled.recovery_records().is_empty());
    }

    /// Repeated trend switches each produce a recovery record, and the
    /// run keeps stepping past pre-switch convergence to measure them.
    #[test]
    fn trend_switches_yield_per_switch_recovery_records() {
        let mut e = Engine::new(
            Box::new(TypedPopulation::new(
                FetProtocol::for_population(300, 4.0).unwrap(),
            )),
            spec(300),
            Fidelity::Binomial,
            InitialCondition::AllCorrect,
            21,
        )
        .unwrap();
        let schedule = FaultSchedule::new(
            FaultPlan::none(),
            vec![
                FaultEvent::TrendSwitch {
                    round: 40,
                    correct: Opinion::Zero,
                },
                FaultEvent::TrendSwitch {
                    round: 1_000,
                    correct: Opinion::One,
                },
            ],
        )
        .unwrap();
        e.set_fault_schedule(&schedule).unwrap();
        let report = e.run(40_000, ConvergenceCriterion::new(5), &mut NullObserver);
        let records = e.recovery_records();
        assert_eq!(records.len(), 2, "{records:?}");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.kind, FaultEventKind::TrendSwitch);
            let adapted = r.adaptation_latency();
            assert!(adapted.is_some(), "switch {i} never adapted: {records:?}");
            let restab = r.restabilization_time();
            assert!(
                restab.is_some(),
                "switch {i} never restabilized: {records:?}"
            );
            assert!(
                restab >= adapted,
                "switch {i} restabilized before adapting: {records:?}"
            );
        }
        assert_eq!(records[0].event_round, 40);
        assert_eq!(records[1].event_round, 1_000);
        assert!(
            report.rounds_run > 1_000,
            "run must outlive the last switch: {report:?}"
        );
        assert_eq!(report.final_fraction_correct, 1.0);
    }

    /// State corruption rewrites the chosen fraction deterministically:
    /// typed byte storage and bit-plane storage replay the same
    /// post-corruption trajectory in every fused mode.
    #[test]
    fn state_corruption_is_stream_identical_across_storages() {
        let schedule = FaultSchedule::new(
            FaultPlan::with_noise(0.01).unwrap(),
            vec![
                FaultEvent::StateCorruption {
                    round: 10,
                    fraction: 0.4,
                },
                FaultEvent::NoiseBurst {
                    round: 25,
                    rounds: 5,
                    flip_prob: 0.3,
                },
                FaultEvent::NoiseChange {
                    round: 60,
                    flip_prob: 0.0,
                },
            ],
        )
        .unwrap();
        for mode in [
            ExecutionMode::Fused,
            ExecutionMode::FusedParallel { threads: 3 },
        ] {
            let mut typed = Engine::new(
                typed(8),
                spec(150),
                Fidelity::Binomial,
                InitialCondition::Random,
                77,
            )
            .unwrap();
            typed.set_execution_mode(mode).unwrap();
            typed.set_fault_schedule(&schedule).unwrap();
            let mut bits = Engine::new(
                fet_bit_population(8),
                spec(150),
                Fidelity::Binomial,
                InitialCondition::Random,
                77,
            )
            .unwrap();
            bits.set_execution_mode(mode).unwrap();
            bits.set_fault_schedule(&schedule).unwrap();
            let mut rec_t = TrajectoryRecorder::new();
            let mut rec_b = TrajectoryRecorder::new();
            let rt = typed.run(120, ConvergenceCriterion::new(3), &mut rec_t);
            let rb = bits.run(120, ConvergenceCriterion::new(3), &mut rec_b);
            assert_eq!(rt, rb, "{mode:?} reports diverged");
            assert_eq!(
                rec_t.into_fractions(),
                rec_b.into_fractions(),
                "{mode:?} trajectories diverged"
            );
            assert_eq!(typed.outputs(), bits.collect_outputs().as_slice());
            assert_eq!(typed.recovery_records(), bits.recovery_records());
            assert_eq!(typed.recovery_records().len(), 3);
        }
    }

    /// A noise burst restores the pre-burst flip level when its window
    /// ends, and a plain noise change cancels a pending restore.
    #[test]
    fn noise_burst_window_restores_base_level() {
        let mut e = Engine::new(
            Box::new(TypedPopulation::new(
                FetProtocol::for_population(300, 4.0).unwrap(),
            )),
            spec(300),
            Fidelity::Binomial,
            InitialCondition::AllCorrect,
            9,
        )
        .unwrap();
        let schedule = FaultSchedule::new(
            FaultPlan::none(),
            vec![FaultEvent::NoiseBurst {
                round: 5,
                rounds: 10,
                flip_prob: 1.0,
            }],
        )
        .unwrap();
        e.set_fault_schedule(&schedule).unwrap();
        for _ in 0..5 {
            e.step();
        }
        assert!(e.fraction_correct() > 0.9, "pre-burst consensus lost");
        e.step(); // burst round: every observation flips
        assert!(
            e.fraction_correct() < 0.5,
            "flip_prob = 1 must scramble the population, got {}",
            e.fraction_correct()
        );
        let report = e.run(20_000, ConvergenceCriterion::new(5), &mut NullObserver);
        assert!(
            report.converged(),
            "noise must vanish after the burst window: {report:?}"
        );
        let records = e.recovery_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind, FaultEventKind::NoiseBurst);
        assert!(records[0].restabilized_at.is_some());
    }

    #[test]
    fn malformed_worker_override_fails_only_runs_that_shard() {
        assert_eq!(parse_parallel_workers(None), Ok(None));
        assert_eq!(parse_parallel_workers(Some("4")), Ok(Some(4)));
        for bad in ["bogus", "", "-1", "4.5", "99999999999"] {
            assert!(parse_parallel_workers(Some(bad)).is_err(), "`{bad}`");
        }
        let mut engine = Engine::new(
            typed(6),
            spec(200),
            Fidelity::Binomial,
            InitialCondition::AllWrong,
            5,
        )
        .unwrap();
        engine.core.parallel_workers = parse_parallel_workers(Some("bogus"));
        let err = engine
            .set_execution_mode(ExecutionMode::FusedParallel { threads: 2 })
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("`FET_PARALLEL_WORKERS`: must be a u32 worker count, got `bogus`"),
            "{err}"
        );
        assert_eq!(engine.execution_mode(), ExecutionMode::Auto);
        engine.set_execution_mode(ExecutionMode::Fused).unwrap();
        engine.step();
    }

    /// `Engine::from_population` replays the same explicit states on typed
    /// and bit-plane containers bit for bit: on the complete graph, and —
    /// through `with_neighborhood` — on a ring in both fused modes.
    #[test]
    fn from_population_replays_explicit_states_on_every_container() {
        let protocol = FetProtocol::new(4).unwrap();
        let states: Vec<FetState> = (0..149)
            .map(|i| {
                let opinion = if i % 3 == 0 {
                    Opinion::One
                } else {
                    Opinion::Zero
                };
                FetState {
                    opinion,
                    prev_count_second_half: (i % 5) as u32,
                }
            })
            .collect();
        let typed = |fidelity| {
            let container = TypedPopulation::from_states(protocol.clone(), states.clone());
            Engine::from_population(Box::new(container), spec(150), fidelity, 31).unwrap()
        };
        let bits = |fidelity| {
            let container = BitPopulation::from_states(protocol.clone(), &states);
            Engine::from_population(Box::new(container), spec(150), fidelity, 31).unwrap()
        };
        let (mut t, mut b) = (typed(Fidelity::Binomial), bits(Fidelity::Binomial));
        let mut rec_t = TrajectoryRecorder::new();
        let mut rec_b = TrajectoryRecorder::new();
        let rt = t.run(120, ConvergenceCriterion::new(3), &mut rec_t);
        let rb = b.run(120, ConvergenceCriterion::new(3), &mut rec_b);
        assert_eq!(rt, rb);
        assert_eq!(rec_t.into_fractions(), rec_b.into_fractions());
        assert_eq!(t.outputs(), b.collect_outputs().as_slice());

        for mode in [
            ExecutionMode::Fused,
            ExecutionMode::FusedParallel { threads: 3 },
        ] {
            let ring = || Box::new(Ring::new(150));
            let mut t = typed(Fidelity::Agent).with_neighborhood(ring()).unwrap();
            let mut b = bits(Fidelity::Agent).with_neighborhood(ring()).unwrap();
            assert!(b.uses_bit_storage());
            t.set_execution_mode(mode).unwrap();
            b.set_execution_mode(mode).unwrap();
            let mut rec_t = TrajectoryRecorder::new();
            let mut rec_b = TrajectoryRecorder::new();
            let rt = t.run(40, ConvergenceCriterion::new(3), &mut rec_t);
            let rb = b.run(40, ConvergenceCriterion::new(3), &mut rec_b);
            assert_eq!(rt, rb, "{mode:?}");
            assert_eq!(rec_t.into_fractions(), rec_b.into_fractions(), "{mode:?}");
            assert_eq!(t.outputs(), b.collect_outputs().as_slice(), "{mode:?}");
            assert_eq!(
                t.round(),
                40,
                "{mode:?}: a ring run must not converge this fast"
            );
        }
    }
}
