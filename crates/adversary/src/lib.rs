//! # fet-adversary — adversarial initial configurations and impossibility
//!
//! Self-stabilization is a universally quantified promise: convergence from
//! *every* initial configuration, including those crafted by an adversary
//! who controls both the public opinions and all internal protocol
//! variables of the non-source agents (§1.2 of the paper). This crate is
//! that adversary:
//!
//! * [`init`] — canonical hostile configurations for FET (wrong consensus
//!   with tie-maximizing or bounce-suppressing stale counts, anti-phase
//!   oscillation primers, targeted `(x_0, x_1)` placement) plus re-exports
//!   of the benign conditions from `fet-sim`.
//! * [`search`] — empirical worst-case search over a parameterized family
//!   of initial configurations: grid sweep + local refinement on measured
//!   convergence time.
//! * [`conflict`] — honest conflicting stubborn emitters (`k₀` constant
//!   zeros vs `k₁` constant ones): the ergodic regime beyond the
//!   impossibility, measured by long-run occupancy.
//! * [`impossibility`] — the §1.2 two-scenario construction showing that
//!   *majority* bit-dissemination (conflicting sources) cannot be solved
//!   under passive communication: after copying internal states from a
//!   converged honest-majority run, every observation is unanimous and the
//!   population is provably frozen on the wrong opinion.
//!
//! # Example
//!
//! Even the tie trap — unanimous wrong opinions with tie-forcing stale
//! counts — cannot stop FET (Theorem 1 quantifies over it):
//!
//! ```
//! use fet_adversary::init::FetConfigurator;
//! use fet_core::config::ProblemSpec;
//! use fet_core::fet::FetProtocol;
//! use fet_core::opinion::Opinion;
//! use fet_core::population::TypedPopulation;
//! use fet_sim::convergence::ConvergenceCriterion;
//! use fet_sim::engine::{Engine, Fidelity};
//! use fet_sim::observer::NullObserver;
//!
//! let spec = ProblemSpec::single_source(300, Opinion::One)?;
//! let protocol = FetProtocol::for_population(300, 4.0)?;
//! let hostile = FetConfigurator::new(protocol.clone(), spec).tie_trap();
//! let hostile = Box::new(TypedPopulation::from_states(protocol, hostile));
//! let mut engine = Engine::from_population(hostile, spec, Fidelity::Binomial, 7)?;
//! let report = engine.run(20_000, ConvergenceCriterion::new(3), &mut NullObserver);
//! assert!(report.converged(), "self-stabilization beats the tie trap");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod conflict;
pub mod impossibility;
pub mod init;
pub mod search;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::conflict::{ConflictEngine, ConflictOutcome};
    pub use crate::impossibility::{ImpossibilityOutcome, ImpossibilityScenario};
    pub use crate::init::{FetConfigurator, InitialCondition};
    pub use crate::search::{AdversaryPoint, SearchOutcome, WorstCaseSearch};
}
