//! Undirected graphs in compressed sparse row (CSR) form.
//!
//! The paper's model (§1.2) assumes a *fully-connected* network: every
//! agent samples uniformly from the whole population. This module provides
//! the substrate for relaxing that assumption — agents sample uniformly
//! (with replacement) from their *neighbors* instead — so the workspace can
//! measure how much of FET's behaviour survives on sparse topologies
//! (experiment E18).
//!
//! Graphs are simple (no self-loops, no parallel edges) and undirected;
//! each adjacency list is sorted, which makes membership queries
//! `O(log deg)` and keeps generators honest (duplicates would be visible).

use crate::error::TopologyError;
use std::collections::VecDeque;

/// An immutable simple undirected graph in CSR form.
///
/// Vertex ids are `u32` in `[0, n)`. Construction is through
/// [`Graph::from_edges`] or the generators in [`crate::builders`].
///
/// # Example
///
/// ```
/// use fet_topology::graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.is_connected());
/// # Ok::<(), fet_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    neighbors: Vec<u32>,
}

impl Graph {
    /// Builds a graph on `n` vertices from an edge list.
    ///
    /// Self-loops and duplicate edges (in either orientation) are rejected
    /// rather than silently dropped: generators in this crate are expected
    /// to produce simple graphs, and a duplicate signals a bug.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::VertexOutOfRange`] if an endpoint is `>= n`.
    /// * [`TopologyError::InvalidParameter`] for `n = 0`, a self-loop, or a
    ///   duplicate edge.
    pub fn from_edges(n: u32, edges: &[(u32, u32)]) -> Result<Self, TopologyError> {
        if n == 0 {
            return Err(TopologyError::InvalidParameter {
                name: "n",
                detail: "graph must have at least one vertex".into(),
            });
        }
        let nu = n as usize;
        let mut degree = vec![0usize; nu];
        for &(a, b) in edges {
            for v in [a, b] {
                if v >= n {
                    return Err(TopologyError::VertexOutOfRange { vertex: v, n });
                }
            }
            if a == b {
                return Err(TopologyError::InvalidParameter {
                    name: "edges",
                    detail: format!("self-loop at vertex {a}"),
                });
            }
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(nu + 1);
        offsets.push(0usize);
        for v in 0..nu {
            offsets.push(offsets[v] + degree[v]);
        }
        let mut neighbors = vec![0u32; offsets[nu]];
        let mut cursor = offsets.clone();
        for &(a, b) in edges {
            neighbors[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            neighbors[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        for v in 0..nu {
            let list = &mut neighbors[offsets[v]..offsets[v + 1]];
            list.sort_unstable();
            if list.windows(2).any(|w| w[0] == w[1]) {
                return Err(TopologyError::InvalidParameter {
                    name: "edges",
                    detail: format!("duplicate edge incident to vertex {v}"),
                });
            }
        }
        Ok(Graph { offsets, neighbors })
    }

    /// Assembles a graph from CSR arrays a generator filled in place.
    ///
    /// The caller guarantees what [`Graph::from_edges`] establishes: every
    /// row strictly ascending, in range and free of its own vertex, and
    /// every edge present in both of its rows. Debug builds re-check the
    /// rows.
    pub(crate) fn from_csr(offsets: Vec<usize>, neighbors: Vec<u32>) -> Graph {
        let graph = Graph { offsets, neighbors };
        debug_assert_eq!(graph.offsets.last(), Some(&graph.neighbors.len()));
        debug_assert!((0..graph.n()).all(|v| {
            let row = graph.neighbors(v);
            row.windows(2).all(|w| w[0] < w[1]) && row.iter().all(|&w| w != v && w < graph.n())
        }));
        graph
    }

    /// Number of vertices.
    pub fn n(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> u64 {
        (self.neighbors.len() / 2) as u64
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn degree(&self, v: u32) -> u32 {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as u32
    }

    /// The sorted adjacency list of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// `true` if `{a, b}` is an edge. `O(log deg(a))`.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        a < self.n() && b < self.n() && self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Smallest vertex degree.
    pub fn min_degree(&self) -> u32 {
        (0..self.n()).map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Largest vertex degree.
    pub fn max_degree(&self) -> u32 {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average vertex degree (`2·|E| / n`).
    pub fn mean_degree(&self) -> f64 {
        self.neighbors.len() as f64 / self.n() as f64
    }

    /// BFS distances from `src`; unreachable vertices get `u32::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `src >= n`.
    pub fn bfs_distances(&self, src: u32) -> Vec<u32> {
        assert!(src < self.n(), "bfs source {src} out of range");
        let mut dist = vec![u32::MAX; self.n() as usize];
        dist[src as usize] = 0;
        let mut queue = VecDeque::from([src]);
        while let Some(v) = queue.pop_front() {
            let dv = dist[v as usize];
            for &w in self.neighbors(v) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dv + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// `true` when the graph has a single connected component.
    pub fn is_connected(&self) -> bool {
        self.bfs_distances(0).iter().all(|&d| d != u32::MAX)
    }

    /// Number of connected components.
    pub fn connected_components(&self) -> u32 {
        let nu = self.n() as usize;
        let mut seen = vec![false; nu];
        let mut components = 0;
        for start in 0..nu {
            if seen[start] {
                continue;
            }
            components += 1;
            seen[start] = true;
            let mut queue = VecDeque::from([start as u32]);
            while let Some(v) = queue.pop_front() {
                for &w in self.neighbors(v) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        queue.push_back(w);
                    }
                }
            }
        }
        components
    }

    /// Eccentricity of `src` (largest BFS distance), or `None` when some
    /// vertex is unreachable.
    pub fn eccentricity(&self, src: u32) -> Option<u32> {
        let dist = self.bfs_distances(src);
        let max = *dist.iter().max().expect("graph has at least one vertex");
        (max != u32::MAX).then_some(max)
    }

    /// Exact diameter via all-pairs BFS — `O(n·(n + m))`, intended for the
    /// moderate `n` used in experiments. `None` when disconnected.
    pub fn diameter(&self) -> Option<u32> {
        let mut best = 0;
        for v in 0..self.n() {
            best = best.max(self.eccentricity(v)?);
        }
        Some(best)
    }

    /// Swaps the identities of vertices `a` and `b`, preserving the edge
    /// structure. Experiments use this to move the source agent (which the
    /// engine pins at vertex 0) onto a structurally interesting vertex —
    /// e.g. a star leaf instead of the hub.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    #[must_use]
    pub fn with_swapped(&self, a: u32, b: u32) -> Graph {
        assert!(a < self.n() && b < self.n(), "swap endpoints out of range");
        if a == b {
            return self.clone();
        }
        let relabel = |v: u32| {
            if v == a {
                b
            } else if v == b {
                a
            } else {
                v
            }
        };
        let mut edges = Vec::with_capacity(self.num_edges() as usize);
        for v in 0..self.n() {
            for &w in self.neighbors(v) {
                if v < w {
                    edges.push((relabel(v), relabel(w)));
                }
            }
        }
        Graph::from_edges(self.n(), &edges).expect("relabeling preserves simplicity")
    }

    /// Iterates over all undirected edges as `(min, max)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n()).flat_map(move |v| {
            self.neighbors(v)
                .iter()
                .filter_map(move |&w| (v < w).then_some((v, w)))
        })
    }

    /// Ensures no vertex is isolated — required by the PULL engine.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::IsolatedVertex`] naming the first isolated
    /// vertex.
    pub fn ensure_no_isolated_vertex(&self) -> Result<(), TopologyError> {
        for v in 0..self.n() {
            if self.degree(v) == 0 {
                return Err(TopologyError::IsolatedVertex { vertex: v });
            }
        }
        Ok(())
    }

    /// The raw CSR offset array: `csr_offsets()[v]..csr_offsets()[v + 1]`
    /// indexes [`Graph::csr_neighbors`] for vertex `v` (length `n + 1`).
    ///
    /// Together with [`Graph::csr_neighbors`] this exposes the whole
    /// adjacency structure as two borrows — what shard workers of the
    /// graph-fused round read concurrently (through an
    /// `Arc<Graph>`-backed `Neighborhood`) without cloning anything.
    pub fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated sorted adjacency lists (see
    /// [`Graph::csr_offsets`]).
    pub fn csr_neighbors(&self) -> &[u32] {
        &self.neighbors
    }
}

/// Graphs plug straight into the unified `Simulation` facade:
/// `Simulation::builder().topology(graph)` runs any protocol with
/// neighbor-restricted sampling.
impl fet_sim::neighborhood::Neighborhood for Graph {
    fn population(&self) -> u32 {
        self.n()
    }

    fn neighbors_of(&self, vertex: u32) -> &[u32] {
        self.neighbors(vertex)
    }

    fn clone_box(&self) -> Box<dyn fet_sim::neighborhood::Neighborhood> {
        Box::new(self.clone())
    }
}

/// The shared-adjacency form of a [`Graph`]: an `Arc`-backed
/// `Neighborhood` whose `clone_box` is a reference-count bump instead of
/// an `O(n + m)` CSR copy.
///
/// Engines handed this form share one adjacency structure across engine
/// clones (trajectory snapshots, batch replication), their own boxed
/// copy, and graph-fused shard workers, without any duplication.
///
/// # Example
///
/// ```
/// use fet_sim::neighborhood::Neighborhood;
/// use fet_topology::graph::{Graph, SharedGraph};
/// use std::sync::Arc;
///
/// let g = Arc::new(Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])?);
/// let shared = SharedGraph::new(Arc::clone(&g));
/// let boxed = shared.clone_box(); // no CSR copy, just a refcount bump
/// assert_eq!(boxed.neighbors_of(1), g.neighbors(1));
/// # Ok::<(), fet_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SharedGraph(std::sync::Arc<Graph>);

impl SharedGraph {
    /// Wraps an already-shared graph.
    pub fn new(graph: std::sync::Arc<Graph>) -> Self {
        SharedGraph(graph)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.0
    }
}

impl From<Graph> for SharedGraph {
    fn from(graph: Graph) -> Self {
        SharedGraph(std::sync::Arc::new(graph))
    }
}

impl fet_sim::neighborhood::Neighborhood for SharedGraph {
    fn population(&self) -> u32 {
        self.0.n()
    }

    fn neighbors_of(&self, vertex: u32) -> &[u32] {
        self.0.neighbors(vertex)
    }

    fn clone_box(&self) -> Box<dyn fet_sim::neighborhood::Neighborhood> {
        Box::new(self.clone())
    }
}

/// Largest vertex count for which [`GraphStats::of`] computes the exact
/// diameter. The exact pass runs one BFS per vertex, `O(n·(n + m))`; above
/// this size the stats report the double-sweep lower bound instead.
pub const EXACT_DIAMETER_MAX_N: u32 = 2048;

/// A graph diameter as [`GraphStats`] reports it: exact, a lower bound, or
/// infinite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diameter {
    /// The exact diameter.
    Exact(u32),
    /// A lower bound: the eccentricity of the far end of a double sweep
    /// (BFS from vertex 0, then BFS from the farthest vertex it found).
    /// Exact on trees and cycles.
    AtLeast(u32),
    /// The graph is disconnected.
    Disconnected,
}

impl Diameter {
    /// The diameter of `g`: [`Diameter::Exact`] when
    /// `g.n() ≤` [`EXACT_DIAMETER_MAX_N`], else the double-sweep
    /// [`Diameter::AtLeast`] bound — two BFS passes, `O(n + m)`.
    pub fn of(g: &Graph) -> Diameter {
        if g.n() <= EXACT_DIAMETER_MAX_N {
            return g.diameter().map_or(Diameter::Disconnected, Diameter::Exact);
        }
        let from_zero = g.bfs_distances(0);
        if from_zero.contains(&u32::MAX) {
            return Diameter::Disconnected;
        }
        let far = (0..g.n())
            .max_by_key(|&v| from_zero[v as usize])
            .expect("graph has at least one vertex");
        Diameter::AtLeast(g.eccentricity(far).expect("connected graph"))
    }
}

impl std::fmt::Display for Diameter {
    /// `4`, `≥4` or `∞`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Diameter::Exact(d) => write!(f, "{d}"),
            Diameter::AtLeast(d) => write!(f, "≥{d}"),
            Diameter::Disconnected => write!(f, "∞"),
        }
    }
}

/// Summary statistics of a graph's degree sequence and connectivity.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub n: u32,
    /// Number of undirected edges.
    pub edges: u64,
    /// Minimum degree.
    pub min_degree: u32,
    /// Maximum degree.
    pub max_degree: u32,
    /// Mean degree.
    pub mean_degree: f64,
    /// Number of connected components.
    pub components: u32,
    /// Diameter: exact up to [`EXACT_DIAMETER_MAX_N`] vertices, a lower
    /// bound above (see [`Diameter::of`]).
    pub diameter: Diameter,
}

impl GraphStats {
    /// Computes the full summary for `g`: linear in the graph's size, plus
    /// an all-pairs BFS for the exact diameter when
    /// `n ≤` [`EXACT_DIAMETER_MAX_N`].
    pub fn of(g: &Graph) -> GraphStats {
        GraphStats {
            n: g.n(),
            edges: g.num_edges(),
            min_degree: g.min_degree(),
            max_degree: g.max_degree(),
            mean_degree: g.mean_degree(),
            components: g.connected_components(),
            diameter: Diameter::of(g),
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} m={} deg[{}..{}] mean={:.2} comps={} diam{}{}",
            self.n,
            self.edges,
            self.min_degree,
            self.max_degree,
            self.mean_degree,
            self.components,
            if matches!(self.diameter, Diameter::AtLeast(_)) {
                ""
            } else {
                "="
            },
            self.diameter,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn from_edges_builds_sorted_adjacency() {
        let g = Graph::from_edges(4, &[(3, 0), (0, 1), (2, 0)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn rejects_zero_vertices() {
        let err = Graph::from_edges(0, &[]);
        assert!(matches!(
            err,
            Err(TopologyError::InvalidParameter { name: "n", .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_endpoint() {
        let err = Graph::from_edges(3, &[(0, 3)]);
        assert!(matches!(
            err,
            Err(TopologyError::VertexOutOfRange { vertex: 3, n: 3 })
        ));
    }

    #[test]
    fn rejects_self_loop_and_duplicate() {
        assert!(Graph::from_edges(3, &[(1, 1)]).is_err());
        assert!(Graph::from_edges(3, &[(0, 1), (1, 0)]).is_err());
        assert!(Graph::from_edges(3, &[(0, 1), (0, 1)]).is_err());
    }

    #[test]
    fn single_vertex_graph_is_connected_but_isolated() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.connected_components(), 1);
        assert!(matches!(
            g.ensure_no_isolated_vertex(),
            Err(TopologyError::IsolatedVertex { vertex: 0 })
        ));
    }

    #[test]
    fn has_edge_is_symmetric_and_correct() {
        let g = path(5);
        assert!(g.has_edge(1, 2));
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 9)); // out of range is just `false`
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(5);
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.bfs_distances(2), vec![2, 1, 0, 1, 2]);
        assert_eq!(g.eccentricity(2), Some(2));
        assert_eq!(g.diameter(), Some(4));
    }

    #[test]
    fn stats_diameter_is_exact_up_to_the_cap_and_a_bound_above() {
        let small = path(EXACT_DIAMETER_MAX_N);
        assert_eq!(
            GraphStats::of(&small).diameter,
            Diameter::Exact(EXACT_DIAMETER_MAX_N - 1)
        );
        assert!(GraphStats::of(&small).to_string().contains("diam=2047"));
        // The double sweep is exact on a cycle: 0 → 2500 → 2500.
        let cycle = crate::builders::ring_lattice(5000, 1).unwrap();
        let stats = GraphStats::of(&cycle);
        assert_eq!(stats.diameter, Diameter::AtLeast(2500));
        assert!(stats.to_string().contains("diam≥2500"), "{stats}");
        let split = Graph::from_edges(EXACT_DIAMETER_MAX_N + 2, &[(0, 1)]).unwrap();
        assert_eq!(Diameter::of(&split), Diameter::Disconnected);
        let tiny = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(GraphStats::of(&tiny).to_string().contains("diam=∞"));
    }

    #[test]
    fn disconnected_graph_reports_components_and_no_diameter() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.connected_components(), 2);
        assert_eq!(g.diameter(), None);
        assert_eq!(g.eccentricity(0), None);
    }

    #[test]
    fn with_swapped_preserves_structure() {
        // Star with hub 0; after swapping 0 and 3, the hub is vertex 3.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let h = g.with_swapped(0, 3);
        assert_eq!(h.degree(3), 3);
        assert_eq!(h.degree(0), 1);
        assert_eq!(h.num_edges(), g.num_edges());
        assert!(h.is_connected());
        // Swapping a vertex with itself is the identity.
        assert_eq!(g.with_swapped(2, 2), g);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = path(6);
        let edges: Vec<(u32, u32)> = g.edges().collect();
        assert_eq!(edges.len() as u64, g.num_edges());
        for (a, b) in edges {
            assert!(a < b);
            assert!(g.has_edge(a, b));
        }
    }

    #[test]
    fn stats_summarize_path() {
        let s = GraphStats::of(&path(5));
        assert_eq!(s.n, 5);
        assert_eq!(s.edges, 4);
        assert_eq!(s.min_degree, 1);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.components, 1);
        assert_eq!(s.diameter, Diameter::Exact(4));
        assert!(s.to_string().contains("diam=4"));
    }
}
