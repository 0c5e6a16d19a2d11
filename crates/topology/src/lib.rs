//! # fet-topology — PULL protocols on non-complete graphs
//!
//! The paper (§1.2) assumes a *fully-connected* population: every agent
//! samples uniformly from everyone. This crate relaxes that assumption so
//! the workspace can measure which topological properties FET's
//! trend-following actually needs (experiment E18, a §5-style extension):
//!
//! * [`graph`] — simple undirected graphs in CSR form, with degree /
//!   connectivity / diameter metrics ([`graph::GraphStats`]).
//! * [`builders`] — generators bracketing the complete graph: `K_n`
//!   itself, sparse expanders (Erdős–Rényi, random-regular), the tunable
//!   Watts–Strogatz family, and pathological extremes (ring, star,
//!   barbell).
//!
//! A [`graph::Graph`] is a `fet_sim::neighborhood::Neighborhood`: hand it
//! to `Simulation::builder().topology(graph)` or
//! `fet_sim::engine::Engine::with_neighborhood` and each agent samples
//! (with replacement) from its *neighbors* instead of the whole
//! population.
//!
//! ## What E18 finds
//!
//! FET keeps self-stabilizing on graphs that are *locally well-mixed with
//! enough degree* — dense Erdős–Rényi, random `d`-regular with
//! `d = Θ(log n)` — because each agent's observed count still
//! concentrates around a neighborhood average that tracks the global
//! `x_t`. Fixed degree does **not** scale: a degree-16 small world
//! converges at `n = 256` but stalls at `n = 2000` in a quenched
//! disordered state (each agent's neighborhood average is frozen noise
//! decoupled from the global trend). The star with the source at the hub
//! freezes outright — unanimous observations carry no trend, so ties lock
//! round-1 opinions — and bisection bottlenecks (barbell) slow the spread.
//! The star result is a crisp illustration of the mechanism: FET consumes
//! *temporal differences* of observations, so an observation stream with
//! no variance carries no information.
//!
//! # Example
//!
//! ```
//! use fet_stats::rng::SeedTree;
//! use fet_topology::builders;
//!
//! let mut rng = SeedTree::new(1).rng();
//! let graph = builders::random_regular(256, 16, &mut rng)?;
//! assert!(graph.is_connected());
//! assert_eq!(graph.min_degree(), 16);
//! assert_eq!(graph.max_degree(), 16);
//! # Ok::<(), fet_topology::error::TopologyError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod builders;
pub mod error;
pub mod graph;

pub use error::TopologyError;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::builders;
    pub use crate::error::TopologyError;
    pub use crate::graph::{Diameter, Graph, GraphStats};
}
