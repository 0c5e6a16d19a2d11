//! # fet — self-stabilizing bit dissemination under passive communication
//!
//! Facade crate for the reproduction of *Korman & Vacus, "Early Adapting to
//! Trends: Self-Stabilizing Information Spread using Passive Communication"*
//! (PODC 2022, arXiv:2203.11522). Re-exports the whole workspace:
//!
//! * [`core`] — the paper's contribution: the **FET** protocol
//!   (*Follow the Emerging Trend*, Protocol 1), its unpartitioned variant,
//!   and the object-safe [`core::erased`] layer for runtime protocol
//!   selection.
//! * [`sim`] — the per-agent engine, the aggregate chain and the unified
//!   [`sim::simulation::Simulation`] builder facade (agent-level,
//!   binomial, without-replacement, and aggregate fidelities; synchronous
//!   and asynchronous schedulers on one engine; topologies; fault plans).
//! * [`protocols`] — baseline opinion dynamics plus the runtime
//!   [`protocols::registry::ProtocolRegistry`] (`"fet"`, `"voter"`,
//!   `"3-majority"`, …).
//! * [`analysis`] — state-space domains (Fig. 1a/2), drift, Markov solver,
//!   lemma numerics.
//! * [`adversary`] — adversarial initial configurations and the §1.2
//!   impossibility construction.
//! * [`topology`] — graphs + the neighbor-sampling engine (the
//!   fully-connected assumption, relaxed); graphs plug into the facade via
//!   `Simulation::builder().topology(graph)`.
//! * [`stats`] — probability substrate.
//! * [`plot`] — terminal plotting and CSV export.
//! * [`sweep`] — the throughput tier: episode-parallel parameter sweeps
//!   on the workspace's one job dispenser, kill/resume manifests, and the
//!   `fet serve` daemon.
//! * [`gauntlet`] — the robustness tier: multi-protocol fault-schedule
//!   sweeps with per-switch recovery reports and adaptation-latency
//!   heatmaps (`fet gauntlet`).
//!
//! # Quickstart
//!
//! Run FET from the worst adversarial start (unanimous wrong opinion) and
//! watch it self-stabilize:
//!
//! ```
//! use fet::prelude::*;
//!
//! let report = Simulation::builder()
//!     .population(1_000)
//!     .init(InitialCondition::AllWrong)
//!     .seed(42)
//!     .build()
//!     .expect("valid configuration")
//!     .run();
//! assert!(report.converged());
//! ```
//!
//! The same builder is the entry point for everything beyond a plain
//! single run (other protocols, fidelities, topologies, schedulers, fault
//! plans):
//!
//! ```
//! use fet::prelude::*;
//!
//! let report = Simulation::builder()
//!     .population(1_000)
//!     .protocol_name("fet") // any registry name: "voter", "3-majority", …
//!     .seed(42)
//!     .build()
//!     .expect("valid configuration")
//!     .run();
//! assert!(report.converged());
//! ```

pub use fet_adversary as adversary;
pub use fet_analysis as analysis;
pub use fet_core as core;
pub use fet_gauntlet as gauntlet;
pub use fet_plot as plot;
pub use fet_protocols as protocols;
pub use fet_sim as sim;
pub use fet_stats as stats;
pub use fet_sweep as sweep;
pub use fet_topology as topology;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use fet_adversary::init::InitialCondition;
    pub use fet_core::erased::{DynProtocol, ErasedProtocol};
    pub use fet_core::fet::FetProtocol;
    pub use fet_core::opinion::Opinion;
    pub use fet_core::population::{DynPopulation, Population, TypedPopulation};
    pub use fet_core::protocol::Protocol;
    pub use fet_core::shard::{RoundStreams, ShardPlan, ShardSourceFactory};
    pub use fet_gauntlet::{run_gauntlet, GauntletOptions, GauntletSpec};
    pub use fet_protocols::registry::{ProtocolParams, ProtocolRegistry};
    pub use fet_sim::convergence::{ConvergenceCriterion, ConvergenceReport};
    pub use fet_sim::engine::{Engine, ExecutionMode, Fidelity, Scheduler};
    pub use fet_sim::fault::{FaultEvent, FaultPlan, FaultSchedule};
    pub use fet_sim::neighborhood::Neighborhood;
    pub use fet_sim::simulation::{RunReport, Simulation, SimulationBuilder, Storage};
    pub use fet_stats::rng::SeedTree;
    pub use fet_sweep::runner::{run_sweep, SweepOptions, SweepOutcome};
    pub use fet_sweep::spec::SweepSpec;
    pub use fet_topology::graph::{Diameter, Graph, GraphStats};
}
