//! The unified `Simulation` facade: one validated builder over every way
//! this workspace can run a protocol.
//!
//! The workspace grew five bespoke entry points — `Engine::<P>::new`, the
//! neighbor-sampling engine, `AsyncEngine`, `AggregateFetChain`, and the
//! `ExperimentSpec` helpers — each re-wired by hand in the CLI, every
//! example, and every experiment binary. [`Simulation::builder`] replaces
//! that wiring with one fluent, validated configuration surface:
//!
//! * **protocol** — a typed instance, an [`ErasedProtocol`], or a registry
//!   name (`"fet"`, `"voter"`, `"3-majority"`, … — see
//!   [`fet_protocols::registry::ProtocolRegistry`]); defaults to FET at the
//!   paper's `ℓ = ⌈c·ln n⌉`.
//! * **fidelity** — [`Fidelity::Agent`], [`Fidelity::Binomial`],
//!   [`Fidelity::WithoutReplacement`], or [`Fidelity::Aggregate`] (the
//!   `O(ℓ)`-per-round Observation 1 chain, FET only).
//! * **communication structure** — the complete graph, or any
//!   [`Neighborhood`] (e.g. a `fet_topology::graph::Graph`).
//! * **scheduler** — synchronous rounds ([`Scheduler::Synchronous`]) or the
//!   population-protocol-style random-activation scheduler
//!   ([`Scheduler::Asynchronous`]).
//! * **execution mode** — how a synchronous round's fused single-pass
//!   kernel executes: [`ExecutionMode::Auto`] (default; work-sharded
//!   across threads above an `n` threshold on multi-core hosts), or force
//!   one with [`ExecutionMode::Fused`] / [`ExecutionMode::FusedParallel`].
//! * **fault plan, initial condition, convergence criterion, budgets,
//!   seed, trajectory recording** — one method each.
//!
//! Every combination is validated in [`SimulationBuilder::build`];
//! incompatible selections (aggregate + topology, without-replacement with
//! `m > n`, …) fail there with a specific [`SimError`], never at run time.
//! Running yields a uniform [`RunReport`] regardless of the execution
//! strategy chosen underneath.
//!
//! Synchronous runs — however the protocol was chosen — execute on the
//! [`PopulationEngine`]: the protocol handle builds a type-erased
//! *population container* (one contiguous buffer of concrete states, see
//! [`fet_core::population`]) and every round dispatches once into the typed
//! fused kernel. A registry-name run is therefore stream-identical to, and
//! within a few percent of, the equivalent typed `Engine<P>` run.
//! Asynchronous runs step the same kind of container, one agent per
//! activation.
//!
//! # Example
//!
//! ```
//! use fet_sim::simulation::Simulation;
//!
//! // FET, binomial fidelity, worst-case start — the default everything.
//! let report = Simulation::builder()
//!     .population(1_000)
//!     .seed(42)
//!     .build()?
//!     .run();
//! assert!(report.converged());
//!
//! // Same instance through the registry, by name.
//! let voter = Simulation::builder()
//!     .population(200)
//!     .protocol_name("voter")
//!     .max_rounds(500)
//!     .build()?
//!     .run();
//! assert_eq!(voter.protocol, "voter");
//! # Ok::<(), fet_sim::SimError>(())
//! ```

use crate::aggregate::AggregateFetChain;
use crate::asynchronous::AsyncEngine;
use crate::convergence::{
    ConvergenceCriterion, ConvergenceDetector, ConvergenceReport, RecoveryRecord,
};
use crate::engine::{ExecutionMode, Fidelity, PopulationEngine};
use crate::error::SimError;
use crate::fault::{FaultPlan, FaultSchedule};
use crate::init::InitialCondition;
use crate::neighborhood::Neighborhood;
use crate::observer::{NullObserver, RoundObserver, RoundSnapshot, TrajectoryRecorder};
use fet_core::config::{ell_for_population, ProblemSpec};
use fet_core::erased::ErasedProtocol;
use fet_core::fet::FetProtocol;
use fet_core::opinion::Opinion;
use fet_core::protocol::Protocol;
use fet_protocols::registry::{ProtocolParams, ProtocolRegistry};
use fet_stats::binomial::sample_binomial;
use fet_stats::rng::SeedTree;
use std::fmt;

/// When agents act relative to one another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheduler {
    /// The paper's model: every agent observes and updates each round.
    Synchronous,
    /// Population-protocol-style: one random agent activates per tick;
    /// time is counted in parallel rounds (`n` ticks each). Note the
    /// reproduction's negative finding: FET does **not** converge under
    /// this scheduler (see [`crate::asynchronous`]).
    Asynchronous,
}

/// Default sample-size constant `c` in `ℓ = ⌈c·ln n⌉`.
pub const DEFAULT_SAMPLE_CONSTANT: f64 = 4.0;

/// Population size at which [`Storage::Auto`] switches a packable
/// synchronous run to bit-plane storage. Below it the byte
/// representation's ~8 bytes/agent are immaterial and the typed buffer
/// stays the familiar default; above it the packed planes cut resident
/// opinion storage 8× (64×, for opinion-only protocols).
pub const BIT_PLANE_AUTO_MIN_N: u64 = 10_000_000;

/// How the synchronous engine stores per-agent state (orthogonal to
/// [`ExecutionMode`], which picks how a round *executes*).
///
/// Bit-plane storage packs opinions 64 agents per `u64` word, plus a
/// packed auxiliary plane for protocols like FET that carry a small
/// counter: exactly `⌈log₂(ℓ+1)⌉` bits per agent (a nibble or
/// interleaved bit-sliced plane — 3 bits/agent at `ℓ = 5`), or one byte
/// per agent when the counter needs all 8 bits — see
/// [`fet_core::bitplane`]. Rounds run through the in-place fused
/// kernels; opinion-only threshold protocols (voter, 3-majority)
/// additionally take the word-at-a-time kernel, 64 agents per plane
/// write. It requires a *packable, passive* protocol
/// ([`fet_core::protocol::Protocol::state_planes`]) and the synchronous
/// scheduler with a per-agent fidelity; [`SimulationBuilder::build`]
/// validates both. Trajectories are
/// **bit-identical** to the typed representation for the same `(seed,
/// execution mode, shard count)` — storage never perturbs the stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Storage {
    /// Select automatically: bit-plane when the protocol is packable,
    /// the configuration supports it, and `n ≥` [`BIT_PLANE_AUTO_MIN_N`];
    /// the typed byte representation otherwise. The default.
    #[default]
    Auto,
    /// One typed state per agent in a contiguous buffer — the byte
    /// representation every PR before bit planes used.
    Typed,
    /// Packed bit planes: 1 bit/agent opinion plus the protocol's packed
    /// auxiliary plane
    /// ([`fet_core::protocol::StatePlanes::OpinionPlusPacked`] bits,
    /// [`StatePlanes::OpinionPlusByte`](fet_core::protocol::StatePlanes::OpinionPlusByte)
    /// bytes, or nothing for opinion-only protocols). Rejected at build
    /// time when the protocol or configuration cannot support it.
    BitPlane,
}

impl fmt::Display for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Storage::Auto => f.write_str("auto"),
            Storage::Typed => f.write_str("typed"),
            Storage::BitPlane => f.write_str("bit-plane"),
        }
    }
}

/// Generous default budget: `200·ln²n` rounds, far above the paper's
/// `O(log^{5/2} n)` expectation at practical sizes while still bounded.
pub fn default_max_rounds(n: u64) -> u64 {
    let ln = (n.max(2) as f64).ln();
    (200.0 * ln * ln).ceil() as u64
}

/// Uniform outcome of one run, whatever ran underneath.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Name of the protocol that ran.
    pub protocol: String,
    /// Agents observed per agent per round (the protocol's `m`; `2ℓ` for
    /// FET).
    pub samples_per_round: u32,
    /// Population size.
    pub n: u64,
    /// Fidelity the run used.
    pub fidelity: Fidelity,
    /// Execution mode the run was configured with ([`ExecutionMode::Auto`]
    /// resolves to the single-threaded or the work-sharded fused kernel;
    /// the aggregate and asynchronous runners have one implementation
    /// each).
    pub mode: ExecutionMode,
    /// Scheduler the run used.
    pub scheduler: Scheduler,
    /// The storage representation the run resolved to — never
    /// [`Storage::Auto`]; [`Storage::BitPlane`] exactly when the
    /// synchronous engine drove packed planes, [`Storage::Typed`]
    /// otherwise (including the aggregate and asynchronous runners,
    /// which keep no packable per-agent planes).
    pub storage: Storage,
    /// Heap bytes resident in the per-agent state container at report
    /// time (`0` for the aggregate chain, which keeps no per-agent
    /// states) — the number the packed planes shrink to
    /// `1 + ⌈log₂(ℓ+1)⌉` bits/agent for FET (16× under the typed buffer
    /// at `ℓ = 5`) and to 1 bit/agent for opinion-only protocols.
    pub resident_bytes: u64,
    /// Convergence outcome. Under [`Scheduler::Asynchronous`] the rounds
    /// are parallel rounds (`n` activations each).
    pub report: ConvergenceReport,
    /// The `x_t` trajectory, when recording was requested.
    pub trajectory: Option<Vec<f64>>,
    /// Per-event recovery records, one per fired fault-schedule event in
    /// firing order. Empty unless a [`FaultSchedule`] with events ran.
    /// `None` milestones mean the run never recovered before the next
    /// event or the round budget — expected under persistent noise.
    pub recovery: Vec<RecoveryRecord>,
}

impl RunReport {
    /// `true` when the run converged within budget.
    pub fn converged(&self) -> bool {
        self.report.converged()
    }

    /// `t_con`, if the run converged.
    pub fn converged_at(&self) -> Option<u64> {
        self.report.converged_at
    }
}

enum Runner {
    /// The synchronous hot path: the generic round loop over a type-erased
    /// *population container* (one contiguous typed state buffer — no
    /// per-round state buffer or clone), stream-identical to the typed
    /// `Engine<P>` for the same seed.
    Sync(Box<PopulationEngine>),
    /// The per-activation scheduler: one agent of the same population
    /// container steps per tick.
    Async(Box<AsyncEngine>),
    Aggregate(AggregateFetChain),
}

impl fmt::Debug for Runner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Runner::Sync(_) => f.write_str("Runner::Sync"),
            Runner::Async(_) => f.write_str("Runner::Async"),
            Runner::Aggregate(_) => f.write_str("Runner::Aggregate"),
        }
    }
}

/// A fully configured, ready-to-run simulation.
///
/// Construct through [`Simulation::builder`]; run with [`Simulation::run`]
/// or [`Simulation::run_observed`]. The simulation owns its state, so
/// repeated `run` calls continue from where the previous one stopped
/// (useful for warm-up / measurement phases).
#[derive(Debug)]
pub struct Simulation {
    runner: Runner,
    protocol_name: String,
    samples_per_round: u32,
    n: u64,
    fidelity: Fidelity,
    mode: ExecutionMode,
    scheduler: Scheduler,
    storage: Storage,
    criterion: ConvergenceCriterion,
    max_rounds: u64,
    record_trajectory: bool,
}

impl Simulation {
    /// Starts a builder with the workspace defaults: FET at
    /// `ℓ = ⌈4·ln n⌉`, binomial fidelity, complete graph, synchronous
    /// scheduler, all-wrong initial condition, no faults, seed 0.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::new()
    }

    /// The paper's `x_t`: fraction of agents currently outputting 1.
    pub fn fraction_ones(&self) -> f64 {
        match &self.runner {
            Runner::Sync(e) => e.fraction_ones(),
            Runner::Async(e) => e.fraction_ones(),
            Runner::Aggregate(c) => c.fractions().1,
        }
    }

    /// Fraction of non-source agents currently deciding correctly.
    pub fn fraction_correct(&self) -> f64 {
        match &self.runner {
            Runner::Sync(e) => e.fraction_correct(),
            Runner::Async(e) => e.fraction_correct(),
            Runner::Aggregate(c) => c.fraction_correct(),
        }
    }

    /// Rounds executed so far (parallel rounds under the async scheduler).
    pub fn round(&self) -> u64 {
        match &self.runner {
            Runner::Sync(e) => e.round(),
            Runner::Async(e) => e.parallel_rounds(),
            Runner::Aggregate(c) => c.round(),
        }
    }

    /// The current correct opinion (tracks mid-run source retargeting).
    pub fn correct(&self) -> Opinion {
        match &self.runner {
            Runner::Sync(e) => e.correct(),
            Runner::Async(e) => e.spec().correct(),
            Runner::Aggregate(c) => c.spec().correct(),
        }
    }

    /// `true` when every non-source agent currently decides correctly.
    pub fn all_correct(&self) -> bool {
        match &self.runner {
            Runner::Sync(e) => e.all_correct(),
            Runner::Async(e) => e.all_correct(),
            Runner::Aggregate(c) => c.all_correct(),
        }
    }

    /// Advances one round (one parallel round — `n` activations — under
    /// the async scheduler) without convergence bookkeeping. For manual
    /// drive loops; [`Simulation::run`] is the usual entry point.
    pub fn step(&mut self) {
        match &mut self.runner {
            Runner::Sync(e) => e.step(),
            Runner::Async(e) => {
                for _ in 0..e.spec().n() {
                    e.tick();
                }
            }
            Runner::Aggregate(c) => c.step(),
        }
    }

    /// Replaces the fault plan mid-run — e.g. scheduling a source
    /// retarget relative to a convergence round that is only known after a
    /// first [`Simulation::run`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for the aggregate and
    /// asynchronous runners, which do not execute fault plans.
    pub fn set_fault_plan(&mut self, fault: FaultPlan) -> Result<(), SimError> {
        match &mut self.runner {
            Runner::Sync(e) => {
                e.set_fault_plan(fault);
                Ok(())
            }
            Runner::Async(_) | Runner::Aggregate(_) => Err(SimError::InvalidParameter {
                name: "fault",
                detail: "fault plans are a synchronous per-agent engine feature".into(),
            }),
        }
    }

    /// Installs a round-indexed fault schedule mid-run (see
    /// [`PopulationEngine::set_fault_schedule`]); event rounds are
    /// absolute, so events scheduled before the current round never fire.
    ///
    /// # Errors
    ///
    /// As [`Simulation::set_fault_plan`].
    pub fn set_fault_schedule(&mut self, schedule: &FaultSchedule) -> Result<(), SimError> {
        match &mut self.runner {
            Runner::Sync(e) => {
                e.set_fault_schedule(schedule);
                Ok(())
            }
            Runner::Async(_) | Runner::Aggregate(_) => Err(SimError::InvalidParameter {
                name: "fault",
                detail: "fault schedules are a synchronous per-agent engine feature".into(),
            }),
        }
    }

    /// Per-event recovery records accumulated so far (empty for runners
    /// without fault schedules).
    pub fn recovery_records(&self) -> &[RecoveryRecord] {
        match &self.runner {
            Runner::Sync(e) => e.recovery_records(),
            Runner::Async(_) | Runner::Aggregate(_) => &[],
        }
    }

    /// Runs to convergence or budget, reporting the outcome.
    pub fn run(&mut self) -> RunReport {
        self.run_observed(&mut NullObserver)
    }

    /// Runs to convergence or budget, feeding every round snapshot
    /// (including round 0) to `observer`.
    pub fn run_observed(&mut self, observer: &mut dyn RoundObserver) -> RunReport {
        let mut recorder = self.record_trajectory.then(TrajectoryRecorder::new);
        let report = {
            let mut fanout = |snapshot: RoundSnapshot| {
                if let Some(rec) = recorder.as_mut() {
                    rec.on_round(snapshot);
                }
                observer.on_round(snapshot);
            };
            let criterion = self.criterion;
            let max_rounds = self.max_rounds;
            match &mut self.runner {
                Runner::Sync(engine) => engine.run(max_rounds, criterion, &mut fanout),
                Runner::Async(engine) => run_async(engine, max_rounds, criterion, &mut fanout),
                Runner::Aggregate(chain) => {
                    run_aggregate(chain, max_rounds, criterion, &mut fanout)
                }
            }
        };
        RunReport {
            protocol: self.protocol_name.clone(),
            samples_per_round: self.samples_per_round,
            n: self.n,
            fidelity: self.fidelity,
            mode: self.mode,
            scheduler: self.scheduler,
            storage: self.storage,
            resident_bytes: self.resident_bytes(),
            report,
            trajectory: recorder.map(TrajectoryRecorder::into_fractions),
            recovery: self.recovery_records().to_vec(),
        }
    }

    /// Heap bytes resident in the per-agent state container right now.
    pub fn resident_bytes(&self) -> u64 {
        match &self.runner {
            Runner::Sync(e) => e.population().resident_bytes() as u64,
            Runner::Async(e) => e.resident_state_bytes() as u64,
            Runner::Aggregate(_) => 0,
        }
    }

    /// The storage representation this simulation resolved to (never
    /// [`Storage::Auto`]).
    pub fn storage(&self) -> Storage {
        self.storage
    }
}

/// Drives the async engine in parallel rounds, with observer snapshots.
fn run_async(
    engine: &mut AsyncEngine,
    max_parallel_rounds: u64,
    criterion: ConvergenceCriterion,
    observer: &mut dyn RoundObserver,
) -> ConvergenceReport {
    let n = engine.spec().n();
    let mut detector = ConvergenceDetector::new(criterion);
    let mut round = engine.parallel_rounds();
    let snapshot = |engine: &AsyncEngine, round| RoundSnapshot {
        round,
        fraction_ones: engine.fraction_ones(),
        fraction_correct: engine.fraction_correct(),
    };
    observer.on_round(snapshot(engine, round));
    let mut done = detector.observe(round, engine.all_correct());
    while !done && round < max_parallel_rounds {
        for _ in 0..n {
            engine.tick();
        }
        round = engine.parallel_rounds();
        observer.on_round(snapshot(engine, round));
        done = detector.observe(round, engine.all_correct());
    }
    ConvergenceReport {
        converged_at: detector.converged_at(),
        rounds_run: round,
        final_fraction_correct: engine.fraction_correct(),
    }
}

/// Drives the aggregate chain round by round, with observer snapshots.
fn run_aggregate(
    chain: &mut AggregateFetChain,
    max_rounds: u64,
    criterion: ConvergenceCriterion,
    observer: &mut dyn RoundObserver,
) -> ConvergenceReport {
    let mut detector = ConvergenceDetector::new(criterion);
    let snapshot = |chain: &AggregateFetChain| RoundSnapshot {
        round: chain.round(),
        fraction_ones: chain.fractions().1,
        fraction_correct: chain.fraction_correct(),
    };
    observer.on_round(snapshot(chain));
    let mut done = detector.observe(chain.round(), chain.all_correct());
    while !done && chain.round() < max_rounds {
        chain.step();
        observer.on_round(snapshot(chain));
        done = detector.observe(chain.round(), chain.all_correct());
    }
    ConvergenceReport {
        converged_at: detector.converged_at(),
        rounds_run: chain.round(),
        final_fraction_correct: chain.fraction_correct(),
    }
}

#[derive(Debug)]
enum ProtocolChoice {
    /// FET at the resolved `ℓ`.
    Default,
    /// Resolved through the registry at build time.
    Named(String),
    /// A caller-supplied instance.
    Instance(ErasedProtocol),
}

/// Fluent, validated configuration for [`Simulation`].
///
/// Consuming builder: each method takes and returns `self`, ending in
/// [`SimulationBuilder::build`]. See the [module docs](self) for the
/// selection axes and an example.
#[derive(Debug)]
pub struct SimulationBuilder {
    n: Option<u64>,
    num_sources: u64,
    correct: Opinion,
    seed: u64,
    sample_constant: f64,
    ell_override: Option<u32>,
    protocol: ProtocolChoice,
    registry: Option<ProtocolRegistry>,
    fidelity: Option<Fidelity>,
    mode: ExecutionMode,
    scheduler: Scheduler,
    storage: Storage,
    topology: Option<Box<dyn Neighborhood>>,
    init: InitialCondition,
    fault: FaultPlan,
    schedule: Option<FaultSchedule>,
    max_rounds: Option<u64>,
    stability_window: u64,
    record_trajectory: bool,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        SimulationBuilder::new()
    }
}

impl SimulationBuilder {
    fn new() -> Self {
        SimulationBuilder {
            n: None,
            num_sources: 1,
            correct: Opinion::One,
            seed: 0,
            sample_constant: DEFAULT_SAMPLE_CONSTANT,
            ell_override: None,
            protocol: ProtocolChoice::Default,
            registry: None,
            fidelity: None,
            mode: ExecutionMode::Auto,
            scheduler: Scheduler::Synchronous,
            storage: Storage::Auto,
            topology: None,
            init: InitialCondition::AllWrong,
            fault: FaultPlan::none(),
            schedule: None,
            max_rounds: None,
            stability_window: 3,
            record_trajectory: false,
        }
    }

    /// Sets the population size (required unless a topology provides it).
    pub fn population(mut self, n: u64) -> Self {
        self.n = Some(n);
        self
    }

    /// Sets the number of source agents (default 1).
    pub fn sources(mut self, k: u64) -> Self {
        self.num_sources = k;
        self
    }

    /// Sets the correct opinion (default [`Opinion::One`]).
    pub fn correct(mut self, o: Opinion) -> Self {
        self.correct = o;
        self
    }

    /// Sets the root seed (default 0).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the sample constant `c` in `ℓ = ⌈c·ln n⌉` (default 4.0).
    pub fn sample_constant(mut self, c: f64) -> Self {
        self.sample_constant = c;
        self
    }

    /// Overrides `ℓ` directly (wins over the sample constant).
    pub fn ell(mut self, ell: u32) -> Self {
        self.ell_override = Some(ell);
        self
    }

    /// Runs a specific protocol instance.
    pub fn protocol<P>(mut self, protocol: P) -> Self
    where
        P: Protocol + Clone + fmt::Debug + Send + Sync + 'static,
        P::State: 'static,
    {
        self.protocol = ProtocolChoice::Instance(ErasedProtocol::new(protocol));
        self
    }

    /// Runs an already-erased protocol instance.
    pub fn protocol_erased(mut self, protocol: ErasedProtocol) -> Self {
        self.protocol = ProtocolChoice::Instance(protocol);
        self
    }

    /// Selects the protocol by registry name at build time (built-in
    /// registry unless [`SimulationBuilder::registry`] supplies another).
    pub fn protocol_name(mut self, name: impl Into<String>) -> Self {
        self.protocol = ProtocolChoice::Named(name.into());
        self
    }

    /// Uses a custom protocol registry for name resolution.
    pub fn registry(mut self, registry: ProtocolRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Sets the observation fidelity (default [`Fidelity::Binomial`] on
    /// the complete graph, [`Fidelity::Agent`] with a topology).
    pub fn fidelity(mut self, f: Fidelity) -> Self {
        self.fidelity = Some(f);
        self
    }

    /// Sets how the synchronous fused round executes (default
    /// [`ExecutionMode::Auto`]: parallelized above an `n` threshold on
    /// multi-core hosts). Forcing [`ExecutionMode::Fused`] or
    /// [`ExecutionMode::FusedParallel`] is validated in
    /// [`SimulationBuilder::build`]: both require a synchronous per-agent
    /// run, and the parallel mode additionally a non-zero thread count
    /// and a
    /// [`parallel_eligible`](fet_core::protocol::Protocol::parallel_eligible)
    /// protocol. Note the stream caveat in [`crate::engine`]'s docs: each
    /// mode (and each parallel shard count) is its own deterministic
    /// stream per seed.
    pub fn execution_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the scheduler (default [`Scheduler::Synchronous`]).
    pub fn scheduler(mut self, s: Scheduler) -> Self {
        self.scheduler = s;
        self
    }

    /// Selects the per-agent storage representation (default
    /// [`Storage::Auto`]): the contiguous typed buffer, or packed bit
    /// planes — 1 bit/agent opinion plus, for protocols like FET that
    /// carry a small per-agent counter, 1 byte/agent of auxiliary state
    /// (see [`fet_core::bitplane`]).
    ///
    /// Storage is orthogonal to [`SimulationBuilder::execution_mode`]: it
    /// changes where states live, never which random stream the round
    /// draws — trajectories are bit-identical across representations for
    /// the same `(seed, mode, shard count)`. Forcing
    /// [`Storage::BitPlane`] is validated in
    /// [`SimulationBuilder::build`]: it requires a packable passive
    /// protocol ([`fet_core::protocol::Protocol::state_planes`]) and the
    /// synchronous scheduler with a per-agent fidelity.
    pub fn storage(mut self, s: Storage) -> Self {
        self.storage = s;
        self
    }

    /// Restricts each agent's observations to an explicit communication
    /// structure (e.g. a `fet_topology::graph::Graph`). Implies
    /// [`Fidelity::Agent`] (neighbor sampling is literal — an explicit
    /// non-agent fidelity is a build error); the population size is taken
    /// from the structure.
    pub fn topology(self, topology: impl Neighborhood + 'static) -> Self {
        self.topology_boxed(Box::new(topology))
    }

    /// Boxed-topology variant of [`SimulationBuilder::topology`].
    pub fn topology_boxed(mut self, topology: Box<dyn Neighborhood>) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the initial condition (default [`InitialCondition::AllWrong`]).
    pub fn init(mut self, init: InitialCondition) -> Self {
        self.init = init;
        self
    }

    /// Installs a fault plan (default none).
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Installs a round-indexed fault schedule (default none). Wins over
    /// [`SimulationBuilder::fault`]: the schedule's base plan becomes the
    /// run's fault plan and its events fire at the start of their rounds.
    pub fn fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Sets the round budget (default `200·ln²n`).
    pub fn max_rounds(mut self, r: u64) -> Self {
        self.max_rounds = Some(r);
        self
    }

    /// Sets the convergence stability window (default 3).
    pub fn stability_window(mut self, w: u64) -> Self {
        self.stability_window = w;
        self
    }

    /// Records the `x_t` trajectory into the [`RunReport`] (default off).
    pub fn record_trajectory(mut self, record: bool) -> Self {
        self.record_trajectory = record;
        self
    }

    fn invalid(name: &'static str, detail: impl Into<String>) -> SimError {
        SimError::InvalidParameter {
            name,
            detail: detail.into(),
        }
    }

    /// Validates the configuration and assembles the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for incompatible selections
    /// — topology with a non-agent fidelity or the async scheduler,
    /// aggregate fidelity with a protocol lacking the Observation 1
    /// structure / with faults / with the async scheduler,
    /// without-replacement sampling with `m > n`, an unknown registry name,
    /// a malformed `FET_SIMD` (or `avx2` forced on a host without it) on a
    /// synchronous per-agent run — and [`SimError::Core`] for invalid
    /// instance parameters.
    pub fn build(self) -> Result<Simulation, SimError> {
        let n = match (self.n, self.topology.as_ref()) {
            (Some(n), Some(t)) if n != u64::from(t.population()) => {
                return Err(Self::invalid(
                    "population",
                    format!(
                        "population {n} disagrees with the topology's {} vertices",
                        t.population()
                    ),
                ));
            }
            (_, Some(t)) => u64::from(t.population()),
            (Some(n), None) => n,
            (None, None) => {
                return Err(Self::invalid(
                    "population",
                    "set .population(n) or provide a topology",
                ));
            }
        };
        let ell = match self.ell_override {
            Some(e) => e,
            None => {
                if !(self.sample_constant.is_finite() && self.sample_constant > 0.0) {
                    return Err(Self::invalid(
                        "sample_constant",
                        format!("must be positive and finite, got {}", self.sample_constant),
                    ));
                }
                ell_for_population(n, self.sample_constant)
            }
        };
        let protocol = match &self.protocol {
            ProtocolChoice::Default => ErasedProtocol::new(FetProtocol::new(ell)?),
            ProtocolChoice::Named(name) => {
                let builtins;
                let registry = match self.registry.as_ref() {
                    Some(r) => r,
                    None => {
                        builtins = ProtocolRegistry::with_builtins();
                        &builtins
                    }
                };
                registry
                    .build(name, &ProtocolParams::with_ell(n, ell))
                    .map_err(|e| Self::invalid("protocol", e.to_string()))?
            }
            ProtocolChoice::Instance(p) => p.clone(),
        };
        let spec = ProblemSpec::new(n, self.num_sources, self.correct)?;
        let max_rounds = self.max_rounds.unwrap_or_else(|| default_max_rounds(n));
        let criterion = ConvergenceCriterion::new(self.stability_window);
        let fidelity = self.fidelity.unwrap_or(
            if self.topology.is_some() || self.scheduler == Scheduler::Asynchronous {
                Fidelity::Agent
            } else {
                Fidelity::Binomial
            },
        );
        // The fault plan the run actually executes: a schedule's base
        // plan wins over `.fault()` (the schedule's events ride on top).
        let effective_fault = self
            .schedule
            .as_ref()
            .map_or(self.fault, FaultSchedule::base);
        let faulty =
            !effective_fault.is_none() || self.schedule.as_ref().is_some_and(|s| !s.is_trivial());
        if self.scheduler == Scheduler::Asynchronous {
            if fidelity != Fidelity::Agent {
                return Err(Self::invalid(
                    "scheduler",
                    format!(
                        "the asynchronous scheduler samples literally; {fidelity:?} fidelity \
                         applies to synchronous rounds only"
                    ),
                ));
            }
            if faulty {
                return Err(Self::invalid(
                    "fault",
                    "fault plans and schedules are a synchronous-engine feature",
                ));
            }
        }

        if self.topology.is_some() {
            if self.scheduler == Scheduler::Asynchronous {
                return Err(Self::invalid(
                    "topology",
                    "the asynchronous scheduler runs on the complete graph only",
                ));
            }
            if !matches!(fidelity, Fidelity::Agent) {
                return Err(Self::invalid(
                    "topology",
                    format!(
                        "neighbor sampling is literal; {fidelity:?} fidelity applies to the \
                         complete graph only (use Fidelity::Agent or drop the topology)"
                    ),
                ));
            }
        }
        if fidelity == Fidelity::Aggregate {
            if self.scheduler == Scheduler::Asynchronous {
                return Err(Self::invalid(
                    "fidelity",
                    "the aggregate chain models synchronous rounds only",
                ));
            }
            if faulty {
                return Err(Self::invalid(
                    "fidelity",
                    "fault plans and schedules need per-agent state; use agent or binomial \
                     fidelity",
                ));
            }
        }
        if self.mode != ExecutionMode::Auto {
            // The fused/parallel choice exists only for the synchronous
            // per-agent engine; other runners have a single implementation.
            if self.scheduler == Scheduler::Asynchronous || fidelity == Fidelity::Aggregate {
                return Err(Self::invalid(
                    "mode",
                    format!(
                        "execution mode `{}` applies to synchronous per-agent runs; the \
                         aggregate chain and the asynchronous scheduler have one \
                         implementation each (use ExecutionMode::Auto)",
                        self.mode
                    ),
                ));
            }
            if matches!(self.mode, ExecutionMode::FusedParallel { threads: 0 }) {
                return Err(Self::invalid(
                    "mode",
                    "offending axis: threads — fused-parallel needs at least one thread",
                ));
            }
            if matches!(self.mode, ExecutionMode::FusedParallel { .. })
                && !protocol.parallel_eligible()
            {
                return Err(Self::invalid(
                    "mode",
                    format!(
                        "offending axis: protocol — `{}` opts out of parallel sharding",
                        protocol.name()
                    ),
                ));
            }
        }

        // Storage is a synchronous per-agent engine axis riding the fused
        // rounds; every requirement is checkable here, so forcing bit
        // planes fails at build time with the offending axis named.
        let bit_plane_obstacle: Option<String> = if self.scheduler == Scheduler::Asynchronous {
            Some(
                "offending axis: scheduler — the asynchronous runner steps one agent per \
                 activation on typed storage; bit planes serve the synchronous fused rounds"
                    .into(),
            )
        } else if fidelity == Fidelity::Aggregate {
            Some(
                "offending axis: fidelity — the aggregate chain keeps no per-agent states \
                 to pack"
                    .into(),
            )
        } else if protocol.bit_population().is_none() {
            Some(format!(
                "offending axis: protocol — `{}` has no packed-plane representation \
                 (its state_planes layout is Unpacked)",
                protocol.name()
            ))
        } else {
            None
        };
        let storage = match self.storage {
            Storage::Typed => Storage::Typed,
            Storage::BitPlane => match bit_plane_obstacle {
                Some(detail) => return Err(Self::invalid("storage", detail)),
                None => Storage::BitPlane,
            },
            Storage::Auto => {
                if bit_plane_obstacle.is_none() && n >= BIT_PLANE_AUTO_MIN_N {
                    Storage::BitPlane
                } else {
                    Storage::Typed
                }
            }
        };

        let runner = match (self.scheduler, fidelity) {
            (Scheduler::Synchronous, Fidelity::Aggregate) => {
                let chain_ell = protocol.aggregate_ell().ok_or_else(|| {
                    Self::invalid(
                        "fidelity",
                        format!(
                            "protocol `{}` has no exact aggregate chain (Observation 1 \
                             holds for FET only)",
                            protocol.name()
                        ),
                    )
                })?;
                let ones = initial_ones(&spec, self.init, self.seed);
                Runner::Aggregate(AggregateFetChain::new(
                    spec, chain_ell, ones, ones, self.seed,
                )?)
            }
            (Scheduler::Asynchronous, _) => Runner::Async(Box::new(AsyncEngine::new(
                protocol.population(),
                spec,
                self.init,
                self.seed,
            )?)),
            (Scheduler::Synchronous, per_agent) => {
                // The factory-produced handle hands out a population
                // container — contiguous typed states, or packed bit
                // planes when the storage axis resolved there; the engine
                // fills it once and every round after dispatches straight
                // into the typed kernel. The representation never enters
                // the random stream.
                let population = match storage {
                    Storage::BitPlane => protocol
                        .bit_population()
                        .expect("packability validated by the storage axis above"),
                    _ => protocol.population(),
                };
                let mut engine = match self.topology {
                    Some(topology) => PopulationEngine::with_neighborhood(
                        population,
                        topology,
                        u32::try_from(self.num_sources).map_err(|_| {
                            Self::invalid("sources", "topology engines index sources as u32")
                        })?,
                        self.correct,
                        self.init,
                        self.seed,
                    )?,
                    None => {
                        PopulationEngine::new(population, spec, per_agent, self.init, self.seed)?
                    }
                };
                match &self.schedule {
                    Some(schedule) => engine.set_fault_schedule(schedule),
                    None => engine.set_fault_plan(self.fault),
                }
                // Mode compatibility is validated above; what is left is
                // a malformed `FET_PARALLEL_WORKERS` on a run that shards.
                engine.set_execution_mode(self.mode)?;
                Runner::Sync(Box::new(engine))
            }
        };

        Ok(Simulation {
            protocol_name: protocol.name().to_string(),
            samples_per_round: protocol.samples_per_round(),
            n,
            fidelity,
            mode: self.mode,
            scheduler: self.scheduler,
            storage,
            criterion,
            max_rounds,
            record_trajectory: self.record_trajectory,
            runner,
        })
    }
}

/// Maps an [`InitialCondition`] to the whole-population 1-count the
/// aggregate chain starts from (sources included).
fn initial_ones(spec: &ProblemSpec, init: InitialCondition, seed: u64) -> u64 {
    let k = spec.num_sources();
    let non_sources = spec.num_non_sources();
    let sources_one = match spec.correct() {
        Opinion::One => k,
        Opinion::Zero => 0,
    };
    let p_one = |p_correct: f64| match spec.correct() {
        Opinion::One => p_correct,
        Opinion::Zero => 1.0 - p_correct,
    };
    match init {
        InitialCondition::AllWrong => {
            sources_one + non_sources * u64::from(spec.correct() == Opinion::Zero)
        }
        InitialCondition::AllCorrect => {
            sources_one + non_sources * u64::from(spec.correct() == Opinion::One)
        }
        InitialCondition::FractionCorrect(p) => {
            let mut rng = SeedTree::new(seed).child("aggregate-init").rng();
            sources_one + sample_binomial(non_sources, p_one(p), &mut rng)
        }
        InitialCondition::Random => {
            let mut rng = SeedTree::new(seed).child("aggregate-init").rng();
            sources_one + sample_binomial(non_sources, 0.5, &mut rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_build_converges() {
        let mut sim = Simulation::builder()
            .population(400)
            .seed(7)
            .build()
            .unwrap();
        let report = sim.run();
        assert!(report.converged(), "{report:?}");
        assert_eq!(report.protocol, "fet");
        assert_eq!(report.n, 400);
        assert_eq!(report.report.final_fraction_correct, 1.0);
        assert!(report.trajectory.is_none());
    }

    #[test]
    fn trajectory_recording_through_builder() {
        let mut sim = Simulation::builder()
            .population(300)
            .seed(3)
            .record_trajectory(true)
            .build()
            .unwrap();
        let report = sim.run();
        let traj = report.trajectory.expect("recording requested");
        assert_eq!(traj.len() as u64, report.report.rounds_run + 1);
        assert!((traj[0] - 1.0 / 300.0).abs() < 1e-12, "all-wrong start");
        assert_eq!(*traj.last().unwrap(), 1.0);
    }

    #[test]
    fn aggregate_fidelity_runs_large_populations() {
        let mut sim = Simulation::builder()
            .population(1_000_000)
            .fidelity(Fidelity::Aggregate)
            .seed(5)
            .build()
            .unwrap();
        let report = sim.run();
        assert!(report.converged(), "{report:?}");
        assert_eq!(report.fidelity, Fidelity::Aggregate);
    }

    #[test]
    fn registry_name_selects_protocol() {
        for name in ["voter", "majority", "3-majority"] {
            let sim = Simulation::builder()
                .population(100)
                .protocol_name(name)
                .max_rounds(50)
                .build()
                .unwrap();
            assert_eq!(sim.protocol_name, name);
        }
    }

    #[test]
    fn unknown_protocol_name_is_a_build_error() {
        let err = Simulation::builder()
            .population(100)
            .protocol_name("frobnicate")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("unknown protocol"), "{err}");
    }

    #[test]
    fn without_replacement_oversampling_is_a_build_error() {
        // 2ℓ = 64 samples from 20 agents cannot be distinct.
        let err = Simulation::builder()
            .population(20)
            .ell(32)
            .fidelity(Fidelity::WithoutReplacement)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("without-replacement"), "{err}");
    }

    #[test]
    fn execution_mode_axis_builds_and_converges() {
        for mode in [
            ExecutionMode::Auto,
            ExecutionMode::Fused,
            ExecutionMode::FusedParallel { threads: 2 },
        ] {
            for fidelity in [Fidelity::Binomial, Fidelity::Agent] {
                let mut sim = Simulation::builder()
                    .population(300)
                    .seed(7)
                    .fidelity(fidelity)
                    .execution_mode(mode)
                    .build()
                    .unwrap();
                let report = sim.run();
                assert!(report.converged(), "{mode:?}/{fidelity:?}: {report:?}");
                assert_eq!(report.mode, mode);
            }
        }
    }

    #[test]
    fn fused_mode_rejects_incompatible_configurations() {
        // Aggregate and async runners have one implementation each.
        for (fidelity, scheduler) in [
            (Some(Fidelity::Aggregate), Scheduler::Synchronous),
            (None, Scheduler::Asynchronous),
        ] {
            let mut b = Simulation::builder()
                .population(100)
                .scheduler(scheduler)
                .execution_mode(ExecutionMode::Fused);
            if let Some(f) = fidelity {
                b = b.fidelity(f);
            }
            let err = b.build().unwrap_err();
            assert!(err.to_string().contains("mode"), "{err}");
        }
    }

    #[test]
    fn fused_parallel_mode_is_validated_at_build_time() {
        // Zero threads is meaningless.
        let err = Simulation::builder()
            .population(100)
            .execution_mode(ExecutionMode::FusedParallel { threads: 0 })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("thread"), "{err}");
    }

    #[test]
    fn fused_parallel_facade_replays_per_seed_and_thread_count() {
        let run = || {
            Simulation::builder()
                .population(300)
                .seed(21)
                .execution_mode(ExecutionMode::FusedParallel { threads: 3 })
                .record_trajectory(true)
                .build()
                .unwrap()
                .run()
        };
        let a = run();
        let b = run();
        assert!(a.converged(), "{a:?}");
        assert_eq!(a, b, "fixed (seed, threads) facade runs must replay");
    }

    #[test]
    fn aggregate_rejects_non_fet_protocols() {
        let err = Simulation::builder()
            .population(1_000)
            .protocol_name("voter")
            .fidelity(Fidelity::Aggregate)
            .build()
            .unwrap_err();
        assert!(
            err.to_string().contains("no exact aggregate chain"),
            "{err}"
        );
    }

    #[test]
    fn aggregate_rejects_fault_plans() {
        let err = Simulation::builder()
            .population(1_000)
            .fidelity(Fidelity::Aggregate)
            .fault(FaultPlan::with_noise(0.05).unwrap())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("per-agent state"), "{err}");
    }

    #[test]
    fn async_scheduler_reports_the_negative_finding() {
        let mut sim = Simulation::builder()
            .population(150)
            .scheduler(Scheduler::Asynchronous)
            .fidelity(Fidelity::Agent)
            .max_rounds(300)
            .seed(11)
            .build()
            .unwrap();
        let report = sim.run();
        assert!(
            !report.converged(),
            "async FET should not converge: {report:?}"
        );
        assert_eq!(report.scheduler, Scheduler::Asynchronous);
    }

    #[test]
    fn initial_ones_matches_conditions() {
        let spec = ProblemSpec::single_source(1_000, Opinion::One).unwrap();
        assert_eq!(initial_ones(&spec, InitialCondition::AllWrong, 0), 1);
        assert_eq!(initial_ones(&spec, InitialCondition::AllCorrect, 0), 1_000);
        let half = initial_ones(&spec, InitialCondition::Random, 1);
        assert!(
            (400..=600).contains(&half),
            "binomial(999, 0.5) draw: {half}"
        );
        let spec0 = ProblemSpec::single_source(1_000, Opinion::Zero).unwrap();
        assert_eq!(initial_ones(&spec0, InitialCondition::AllWrong, 0), 999);
        assert_eq!(initial_ones(&spec0, InitialCondition::AllCorrect, 0), 0);
    }

    #[test]
    fn storage_axis_is_trajectory_invisible() {
        // The representation equivalence contract at facade level: for a
        // fixed (seed, fidelity, mode), typed and bit-plane storage
        // produce the same trajectory, report, and convergence round —
        // the packed planes never enter the stream.
        for (fidelity, mode) in [
            (Fidelity::Binomial, ExecutionMode::Fused),
            (
                Fidelity::Binomial,
                ExecutionMode::FusedParallel { threads: 3 },
            ),
            (Fidelity::Agent, ExecutionMode::Fused),
            (Fidelity::Agent, ExecutionMode::FusedParallel { threads: 3 }),
        ] {
            let run = |storage: Storage| {
                Simulation::builder()
                    .population(350)
                    .seed(13)
                    .fidelity(fidelity)
                    .execution_mode(mode)
                    .storage(storage)
                    .record_trajectory(true)
                    .build()
                    .unwrap()
                    .run()
            };
            let typed = run(Storage::Typed);
            let bits = run(Storage::BitPlane);
            assert!(typed.converged(), "{fidelity:?}/{mode:?}: {typed:?}");
            assert_eq!(typed.storage, Storage::Typed);
            assert_eq!(bits.storage, Storage::BitPlane);
            assert_eq!(typed.trajectory, bits.trajectory, "{fidelity:?}/{mode:?}");
            assert_eq!(typed.report, bits.report, "{fidelity:?}/{mode:?}");
            // And the representation actually shrinks resident state:
            // ~16 bytes/agent typed FET vs 1 bit + 1 byte packed.
            assert!(
                bits.resident_bytes * 4 < typed.resident_bytes,
                "{fidelity:?}/{mode:?}: {} !< {}",
                bits.resident_bytes,
                typed.resident_bytes
            );
        }
    }

    #[test]
    fn storage_auto_resolves_typed_below_the_threshold() {
        let sim = Simulation::builder().population(500).build().unwrap();
        assert_eq!(sim.storage(), Storage::Typed);
        // The aggregate and async runners always report typed storage.
        let sim = Simulation::builder()
            .population(1_000_000)
            .fidelity(Fidelity::Aggregate)
            .build()
            .unwrap();
        assert_eq!(sim.storage(), Storage::Typed);
    }

    #[test]
    fn bit_plane_storage_rejects_incompatible_configurations() {
        let base = || {
            Simulation::builder()
                .population(200)
                .storage(Storage::BitPlane)
        };
        for (what, builder) in [
            ("aggregate fidelity", base().fidelity(Fidelity::Aggregate)),
            (
                "async scheduler",
                base()
                    .scheduler(Scheduler::Asynchronous)
                    .fidelity(Fidelity::Agent),
            ),
        ] {
            let err = builder.build().unwrap_err();
            assert!(
                err.to_string().contains("storage") && err.to_string().contains("offending axis"),
                "{what}: {err}"
            );
        }
        // An unpackable protocol (voter keeps OpinionOnly planes — that
        // IS packable; majority's tie-breaking state is too; use a big
        // ell so FET's count no longer fits the auxiliary byte).
        let err = Simulation::builder()
            .population(200)
            .ell(300)
            .storage(Storage::BitPlane)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("packed-plane"), "{err}");
    }

    #[test]
    fn bit_plane_storage_through_a_topology() {
        use crate::neighborhood::tests::Ring;
        let run = |storage: Storage| {
            Simulation::builder()
                .topology(Ring::new(180))
                .seed(23)
                .max_rounds(400)
                .storage(storage)
                .record_trajectory(true)
                .build()
                .unwrap()
                .run()
        };
        let typed = run(Storage::Typed);
        let bits = run(Storage::BitPlane);
        assert_eq!(typed.trajectory, bits.trajectory);
        assert_eq!(typed.report, bits.report);
        assert_eq!(bits.storage, Storage::BitPlane);
    }

    #[test]
    fn simulation_state_persists_across_runs() {
        let mut sim = Simulation::builder()
            .population(300)
            .seed(9)
            .build()
            .unwrap();
        let first = sim.run();
        assert!(first.converged());
        // A second run starts from the converged configuration.
        let second = sim.run();
        assert_eq!(second.report.final_fraction_correct, 1.0);
    }
}
