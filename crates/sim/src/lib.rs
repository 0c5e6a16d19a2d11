//! # fet-sim — PULL-model simulation engine
//!
//! Drives `fet-core` protocols against an actual population, implementing
//! the paper's model (§1.2): synchronous rounds; each agent observes the
//! opinions of uniformly random agents (with replacement); one or more
//! source agents constantly output the correct opinion; all non-source
//! agents start from arbitrary states. The one per-agent engine,
//! [`engine::Engine`], also runs the population-protocol scheduler that
//! activates one random agent at a time
//! ([`engine::Scheduler::Asynchronous`], experiment E17).
//!
//! ## Three fidelities
//!
//! Sampling with replacement makes every per-round observation count an
//! exact `Binomial(m, x_t)` draw — the identity on which the paper's own
//! Observation 1 rests. The engine exploits this at three levels:
//!
//! | fidelity | what is simulated | cost/round | use |
//! |---|---|---|---|
//! | [`engine::Fidelity::Agent`]    | literal index sampling | `O(n·m)` | ground truth |
//! | [`engine::Fidelity::Binomial`] | per-agent binomial counts | `O(n)`+ | large populations |
//! | [`aggregate::AggregateFetChain`] | the `(x_t, x_{t+1})` chain of Observation 1 | `O(ℓ)` | `n` up to `10^9` |
//!
//! The first two are *distributionally identical* by construction; the third
//! is identical for FET specifically (it is Observation 1 executed
//! literally). Property tests in this crate and integration tests at the
//! workspace root verify the agreement empirically.
//!
//! ## Other services
//!
//! * [`convergence`] — detecting `t_con` (first round from which every
//!   non-source agent holds the correct opinion, sustained).
//! * [`observer`] — round hooks and trajectory recording.
//! * [`init`] — basic initial conditions (the advanced adversarial ones
//!   live in `fet-adversary`).
//! * [`fault`] — extension features: observation noise, sleepy agents,
//!   mid-run source retargeting.
//! * [`batch`] — deterministic multi-threaded replication.
//!
//! # Example
//!
//! The one-stop entry point is the [`simulation::Simulation`] builder;
//! per-agent runs execute on the one engine, [`engine::Engine`], over a
//! zero-copy type-erased population container:
//!
//! ```
//! use fet_sim::simulation::Simulation;
//!
//! let report = Simulation::builder()
//!     .population(300)
//!     .seed(7)
//!     .build()?
//!     .run();
//! assert!(report.converged());
//! assert_eq!(report.protocol, "fet");
//! # Ok::<(), fet_sim::SimError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod aggregate;
pub mod batch;
pub mod convergence;
pub mod engine;
pub mod error;
pub mod fault;
pub mod init;
pub mod neighborhood;
pub mod observer;
pub mod simulation;
pub mod sources;

pub use error::SimError;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::aggregate::AggregateFetChain;
    pub use crate::batch::{parallel_map, BatchSummary};
    pub use crate::convergence::{ConvergenceCriterion, ConvergenceReport};
    pub use crate::engine::{Engine, ExecutionMode, Fidelity, Scheduler};
    pub use crate::error::SimError;
    pub use crate::fault::FaultPlan;
    pub use crate::init::InitialCondition;
    pub use crate::neighborhood::Neighborhood;
    pub use crate::observer::{NullObserver, RoundObserver, TrajectoryRecorder};
    pub use crate::simulation::{RunReport, Simulation, SimulationBuilder, Storage};
    pub use crate::sources::{GraphSource, GraphSourceFactory};
}
