//! Graph generators.
//!
//! Each generator returns a simple undirected [`Graph`]. Randomized
//! generators take an explicit RNG (workspace convention: determinism by
//! construction, see `fet_stats::rng::SeedTree`).
//!
//! The menagerie is chosen to bracket the paper's fully-connected
//! assumption (§1.2):
//!
//! * [`complete`] — the paper's model, as a sanity anchor;
//! * [`erdos_renyi`] / [`random_regular`] — sparse expanders, the natural
//!   "well-mixed but not complete" relaxations;
//! * [`watts_strogatz`] — tunable between lattice and expander;
//! * [`ring_lattice`], [`star`], [`barbell`] — pathological extremes
//!   (high diameter, observation bottleneck, bisection bottleneck) where
//!   trend-following should degrade or fail.

use crate::error::TopologyError;
use crate::graph::Graph;
use rand::Rng;

/// The complete graph `K_n` — the paper's own communication model.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidParameter`] for `n < 2` (a single agent
/// has nobody to observe).
pub fn complete(n: u32) -> Result<Graph, TopologyError> {
    if n < 2 {
        return Err(TopologyError::InvalidParameter {
            name: "n",
            detail: format!("complete graph needs n ≥ 2, got {n}"),
        });
    }
    let mut edges = Vec::with_capacity((n as usize * (n as usize - 1)) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            edges.push((a, b));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Ring lattice: vertices on a cycle, each adjacent to its `k` nearest
/// neighbors on both sides (degree `2k`). `k = 1` is the plain cycle.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidParameter`] unless `1 ≤ k` and
/// `2k + 1 ≤ n` (otherwise far-side neighbors wrap into duplicates).
pub fn ring_lattice(n: u32, k: u32) -> Result<Graph, TopologyError> {
    if k == 0 {
        return Err(TopologyError::InvalidParameter {
            name: "k",
            detail: "ring lattice needs k ≥ 1".into(),
        });
    }
    if 2 * k + 1 > n {
        return Err(TopologyError::InvalidParameter {
            name: "k",
            detail: format!("ring lattice needs 2k + 1 ≤ n, got k = {k}, n = {n}"),
        });
    }
    let mut edges = Vec::with_capacity(n as usize * k as usize);
    for v in 0..n {
        for j in 1..=k {
            edges.push((v, (v + j) % n));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Star `K_{1,n-1}` with the hub at vertex 0.
///
/// Every leaf observes only the hub — the most extreme observation
/// bottleneck. With the source pinned at the hub, FET's trend signal is
/// constant for leaves, so ties freeze their opinions (experiment E18
/// measures exactly this).
///
/// # Errors
///
/// Returns [`TopologyError::InvalidParameter`] for `n < 2`.
pub fn star(n: u32) -> Result<Graph, TopologyError> {
    if n < 2 {
        return Err(TopologyError::InvalidParameter {
            name: "n",
            detail: format!("star needs n ≥ 2, got {n}"),
        });
    }
    let edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
    Graph::from_edges(n, &edges)
}

/// Barbell: two disjoint cliques of size `clique` joined by `bridges`
/// disjoint edges (vertex `i` of the left clique to vertex `i` of the
/// right, for `i < bridges`). A bisection bottleneck: information must
/// funnel through the bridge edges.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidParameter`] unless `clique ≥ 2` and
/// `1 ≤ bridges ≤ clique`.
pub fn barbell(clique: u32, bridges: u32) -> Result<Graph, TopologyError> {
    if clique < 2 {
        return Err(TopologyError::InvalidParameter {
            name: "clique",
            detail: format!("barbell needs clique ≥ 2, got {clique}"),
        });
    }
    if bridges == 0 || bridges > clique {
        return Err(TopologyError::InvalidParameter {
            name: "bridges",
            detail: format!("barbell needs 1 ≤ bridges ≤ clique, got {bridges}"),
        });
    }
    let n = 2 * clique;
    let mut edges = Vec::new();
    for side in [0, clique] {
        for a in 0..clique {
            for b in (a + 1)..clique {
                edges.push((side + a, side + b));
            }
        }
    }
    for i in 0..bridges {
        edges.push((i, clique + i));
    }
    Graph::from_edges(n, &edges)
}

/// Erdős–Rényi `G(n, p)`: each of the `n(n-1)/2` possible edges present
/// independently with probability `p`.
///
/// Uses geometric skipping, so the cost is `O(n + m)` rather than `O(n²)`:
/// the skipped-to ranks only grow, so a row cursor maps each one to its
/// edge `(a, b)` without revisiting earlier rows, and since the edges
/// arrive ascending in `(a, b)`, each row is built already sorted.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidParameter`] for `n < 2` or `p ∉ [0, 1]`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: u32, p: f64, rng: &mut R) -> Result<Graph, TopologyError> {
    if n < 2 {
        return Err(TopologyError::InvalidParameter {
            name: "n",
            detail: format!("G(n, p) needs n ≥ 2, got {n}"),
        });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(TopologyError::InvalidParameter {
            name: "p",
            detail: format!("edge probability must be in [0, 1], got {p}"),
        });
    }
    if p >= 1.0 {
        return complete(n);
    }
    let nu = n as usize;
    // The upper half of the CSR: each vertex's neighbors above it,
    // ascending, row after row (`upper_len[v]` of them for vertex v).
    let mut upper: Vec<u32> = Vec::new();
    let mut upper_len = vec![0u32; nu];
    if p > 0.0 {
        // Geometric skipping over the lexicographic edge enumeration
        // (Batagelj–Brandes): jump ahead by Geometric(p) positions. The
        // cursor is row `a`, whose edges (a, a+1..n) start at rank `row_start`.
        let ln_q = (1.0 - p).ln();
        let total = (n as u64) * (n as u64 - 1) / 2;
        let (mut a, mut row_start) = (0u32, 0u64);
        let mut pos: u64 = 0;
        let mut first = true;
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let skip = (u.ln() / ln_q).floor() as u64;
            pos = if first {
                skip
            } else {
                pos.saturating_add(skip + 1)
            };
            first = false;
            if pos >= total {
                break;
            }
            while pos - row_start >= u64::from(n - a - 1) {
                row_start += u64::from(n - a - 1);
                a += 1;
            }
            upper.push(a + 1 + (pos - row_start) as u32);
            upper_len[a as usize] += 1;
        }
    }
    // Row v is its lower neighbors, then its upper row. The lower ones are
    // the u < v whose upper rows hold v: the walk below writes them in
    // ascending u, all before it reaches v.
    let mut offsets = vec![0usize; nu + 1];
    for &w in &upper {
        offsets[w as usize + 1] += 1;
    }
    for v in 0..nu {
        offsets[v + 1] += offsets[v] + upper_len[v] as usize;
    }
    // Each row's next free lower slot.
    let mut cursor = offsets[..nu].to_vec();
    let mut neighbors = vec![0u32; 2 * upper.len()];
    let mut rest = upper.as_slice();
    for (v, &len) in upper_len.iter().enumerate() {
        let (row, tail) = rest.split_at(len as usize);
        rest = tail;
        neighbors[offsets[v + 1] - row.len()..offsets[v + 1]].copy_from_slice(row);
        for &w in row {
            neighbors[cursor[w as usize]] = v as u32;
            cursor[w as usize] += 1;
        }
    }
    Ok(Graph::from_csr(offsets, neighbors))
}

/// Maximum restart attempts for [`random_regular`] before giving up.
const REGULAR_MAX_ATTEMPTS: u32 = 100;

/// Random `d`-regular graph via Steger–Wormald incremental pairing:
/// half-edge stubs are matched one pair at a time, re-drawing any pair
/// that would create a self-loop or parallel edge, and restarting from
/// scratch on the (rare) dead end where only forbidden pairs remain.
///
/// Unlike wholesale configuration-model rejection — whose acceptance
/// probability `≈ exp(-(d²-1)/4)` collapses already at `d ≈ 10` — this
/// procedure succeeds in practice for any `d` up to `Θ(n^{1/3})` and
/// beyond, and produces a distribution asymptotically close to uniform
/// over simple `d`-regular graphs (Steger & Wormald, 1999).
///
/// Pairs land directly in the CSR rows: vertex `v` owns the `d` slots
/// `[v·d, v·d + d)` and a fill count, a drawn pair is a duplicate iff one
/// endpoint already sits in the other's row, and an accepted pair appends
/// to both rows, which are sorted in place at the end. The duplicate check
/// scans the filled part of the shorter row. The working set is the stubs
/// plus the rows, `≈ 8·n·d` bytes, and the draws are unchanged from a hash
/// set of taken pairs: the same graph and the same RNG position after the
/// call.
///
/// # Errors
///
/// Returns [`TopologyError::InvalidParameter`] unless `1 ≤ d < n` and
/// `n·d` is even, and [`TopologyError::GenerationFailed`] if the restart
/// budget is exhausted.
pub fn random_regular<R: Rng + ?Sized>(
    n: u32,
    d: u32,
    rng: &mut R,
) -> Result<Graph, TopologyError> {
    if d == 0 || d >= n {
        return Err(TopologyError::InvalidParameter {
            name: "d",
            detail: format!("random regular graph needs 1 ≤ d < n, got d = {d}, n = {n}"),
        });
    }
    if !(n as u64 * d as u64).is_multiple_of(2) {
        return Err(TopologyError::InvalidParameter {
            name: "d",
            detail: format!("n·d must be even, got n = {n}, d = {d}"),
        });
    }
    let du = d as usize;
    let mut rows = vec![0u32; n as usize * du];
    let mut fill = vec![0u32; n as usize];
    let mut stubs = Vec::with_capacity(rows.len());
    'attempt: for _ in 0..REGULAR_MAX_ATTEMPTS {
        stubs.clear();
        stubs.extend((0..n).flat_map(|v| std::iter::repeat_n(v, du)));
        fill.fill(0);
        while stubs.len() > 1 {
            // A pair is admissible unless it is a self-loop or duplicate.
            // If no admissible pair exists among the remaining stubs we
            // are at a dead end; detect it by bounding the redraw count.
            let budget = 100 + stubs.len() * stubs.len();
            let mut found = false;
            for _ in 0..budget {
                let i = rng.gen_range(0..stubs.len());
                let j = rng.gen_range(0..stubs.len());
                if i == j {
                    continue;
                }
                let (a, b) = (stubs[i] as usize, stubs[j] as usize);
                if a == b {
                    continue;
                }
                let (v, w) = if fill[a] <= fill[b] { (a, b) } else { (b, a) };
                if rows[v * du..][..fill[v] as usize].contains(&(w as u32)) {
                    continue;
                }
                let (fa, fb) = (fill[a] as usize, fill[b] as usize);
                rows[a * du + fa] = b as u32;
                fill[a] += 1;
                rows[b * du + fb] = a as u32;
                fill[b] += 1;
                // Remove the two stubs (larger index first).
                let (hi, lo) = (i.max(j), i.min(j));
                stubs.swap_remove(hi);
                stubs.swap_remove(lo);
                found = true;
                break;
            }
            if !found {
                continue 'attempt;
            }
        }
        for row in rows.chunks_exact_mut(du) {
            row.sort_unstable();
        }
        let offsets = (0..=n as usize).map(|v| v * du).collect();
        return Ok(Graph::from_csr(offsets, rows));
    }
    Err(TopologyError::GenerationFailed {
        generator: "random_regular",
        attempts: REGULAR_MAX_ATTEMPTS,
    })
}

/// Watts–Strogatz small world: start from [`ring_lattice`]`(n, k)` and
/// rewire the far endpoint of each lattice edge with probability `beta`
/// to a uniform non-duplicate target. `beta = 0` is the lattice;
/// `beta = 1` approaches (but is not exactly) `G(n, p)`.
///
/// Edge count is preserved exactly (`n·k`); degrees are not.
///
/// # Errors
///
/// Propagates [`ring_lattice`]'s parameter requirements, plus
/// [`TopologyError::InvalidParameter`] for `beta ∉ [0, 1]`.
pub fn watts_strogatz<R: Rng + ?Sized>(
    n: u32,
    k: u32,
    beta: f64,
    rng: &mut R,
) -> Result<Graph, TopologyError> {
    if !(0.0..=1.0).contains(&beta) {
        return Err(TopologyError::InvalidParameter {
            name: "beta",
            detail: format!("rewiring probability must be in [0, 1], got {beta}"),
        });
    }
    // Validate (n, k) through the lattice constructor.
    ring_lattice(n, k)?;
    let mut adjacency: Vec<std::collections::BTreeSet<u32>> =
        vec![std::collections::BTreeSet::new(); n as usize];
    let insert = |adj: &mut Vec<std::collections::BTreeSet<u32>>, a: u32, b: u32| {
        adj[a as usize].insert(b);
        adj[b as usize].insert(a);
    };
    for v in 0..n {
        for j in 1..=k {
            insert(&mut adjacency, v, (v + j) % n);
        }
    }
    for v in 0..n {
        for j in 1..=k {
            let w = (v + j) % n;
            if !rng.gen_bool(beta) {
                continue;
            }
            // Choose a replacement target that keeps the graph simple.
            // Skip the rewire when v is already adjacent to everyone.
            if adjacency[v as usize].len() as u32 == n - 1 {
                continue;
            }
            let t = loop {
                let t = rng.gen_range(0..n);
                if t != v && !adjacency[v as usize].contains(&t) {
                    break t;
                }
            };
            adjacency[v as usize].remove(&w);
            adjacency[w as usize].remove(&v);
            insert(&mut adjacency, v, t);
        }
    }
    let mut edges = Vec::new();
    for v in 0..n {
        for &w in &adjacency[v as usize] {
            if v < w {
                edges.push((v, w));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphStats;
    use fet_stats::rng::SeedTree;

    #[test]
    fn complete_graph_shape() {
        let g = complete(7).unwrap();
        assert_eq!(g.num_edges(), 21);
        assert_eq!(g.min_degree(), 6);
        assert_eq!(g.max_degree(), 6);
        assert_eq!(g.diameter(), Some(1));
        assert!(complete(1).is_err());
    }

    #[test]
    fn ring_lattice_shape() {
        let g = ring_lattice(10, 2).unwrap();
        assert_eq!(g.num_edges(), 20);
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.max_degree(), 4);
        assert!(g.is_connected());
        // Cycle of length 12 has diameter 6.
        assert_eq!(ring_lattice(12, 1).unwrap().diameter(), Some(6));
        assert!(ring_lattice(5, 0).is_err());
        assert!(ring_lattice(4, 2).is_err(), "2k + 1 > n must be rejected");
    }

    #[test]
    fn star_shape() {
        let g = star(9).unwrap();
        assert_eq!(g.degree(0), 8);
        for v in 1..9 {
            assert_eq!(g.degree(v), 1);
        }
        assert_eq!(g.diameter(), Some(2));
        assert!(star(1).is_err());
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(5, 2).unwrap();
        assert_eq!(g.n(), 10);
        // Two K5 (10 edges each) plus 2 bridges.
        assert_eq!(g.num_edges(), 22);
        assert!(g.is_connected());
        assert!(g.has_edge(0, 5) && g.has_edge(1, 6));
        assert!(!g.has_edge(2, 7));
        assert!(barbell(1, 1).is_err());
        assert!(barbell(4, 0).is_err());
        assert!(barbell(4, 5).is_err());
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = SeedTree::new(7).rng();
        let empty = erdos_renyi(20, 0.0, &mut rng).unwrap();
        assert_eq!(empty.num_edges(), 0);
        let full = erdos_renyi(20, 1.0, &mut rng).unwrap();
        assert_eq!(full.num_edges(), 190);
        assert!(erdos_renyi(20, 1.5, &mut rng).is_err());
        assert!(erdos_renyi(20, -0.1, &mut rng).is_err());
        assert!(erdos_renyi(1, 0.5, &mut rng).is_err());
    }

    #[test]
    fn erdos_renyi_edge_count_concentrates() {
        let mut rng = SeedTree::new(11).rng();
        let n = 200u32;
        let p = 0.1;
        let total = (n as f64) * (n as f64 - 1.0) / 2.0;
        let mean = p * total;
        // Binomial(total, p): 5σ band around the mean.
        let sigma = (total * p * (1.0 - p)).sqrt();
        for _ in 0..5 {
            let g = erdos_renyi(n, p, &mut rng).unwrap();
            let m = g.num_edges() as f64;
            assert!(
                (m - mean).abs() < 5.0 * sigma,
                "edge count {m} too far from mean {mean} (σ = {sigma})"
            );
        }
    }

    #[test]
    fn random_regular_is_regular_and_simple() {
        let mut rng = SeedTree::new(13).rng();
        for &(n, d) in &[(30u32, 3u32), (40, 4), (64, 6)] {
            let g = random_regular(n, d, &mut rng).unwrap();
            assert_eq!(g.min_degree(), d);
            assert_eq!(g.max_degree(), d);
            assert_eq!(g.num_edges(), (n as u64 * d as u64) / 2);
        }
    }

    #[test]
    fn random_regular_rejects_bad_parameters() {
        let mut rng = SeedTree::new(17).rng();
        assert!(random_regular(10, 0, &mut rng).is_err());
        assert!(random_regular(10, 10, &mut rng).is_err());
        assert!(
            random_regular(5, 3, &mut rng).is_err(),
            "n·d odd must be rejected"
        );
    }

    #[test]
    fn watts_strogatz_preserves_edge_count() {
        let mut rng = SeedTree::new(19).rng();
        for &beta in &[0.0, 0.1, 0.5, 1.0] {
            let g = watts_strogatz(50, 3, beta, &mut rng).unwrap();
            assert_eq!(g.num_edges(), 150, "beta = {beta}");
        }
        assert!(watts_strogatz(50, 3, 1.01, &mut rng).is_err());
    }

    #[test]
    fn watts_strogatz_beta_zero_is_the_lattice() {
        let mut rng = SeedTree::new(23).rng();
        let ws = watts_strogatz(30, 2, 0.0, &mut rng).unwrap();
        let lattice = ring_lattice(30, 2).unwrap();
        assert_eq!(ws, lattice);
    }

    #[test]
    fn watts_strogatz_shrinks_diameter() {
        let mut rng = SeedTree::new(29).rng();
        let lattice = ring_lattice(200, 2).unwrap();
        let ws = watts_strogatz(200, 2, 0.3, &mut rng).unwrap();
        let (dl, dw) = (lattice.diameter().unwrap(), ws.diameter());
        if let Some(dw) = dw {
            assert!(
                dw < dl,
                "rewiring should shorten the diameter: lattice {dl}, ws {dw}"
            );
        }
        // (A disconnected rewire is possible in principle; the seed above
        // keeps it connected, which the assertion below pins down.)
        assert!(ws.is_connected());
    }

    #[test]
    fn stats_display_smoke() {
        let g = barbell(4, 1).unwrap();
        let s = GraphStats::of(&g);
        assert_eq!(s.components, 1);
        assert!(s.to_string().contains("n=8"));
    }
}
