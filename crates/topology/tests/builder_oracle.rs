//! Oracle tests for the randomized builders: `random_regular` and
//! `erdos_renyi` against reference copies of their earlier
//! implementations, kept here verbatim in behavior.
//!
//! The references are the straightforward forms: random-regular pairing
//! that checks duplicates in a hash set and scatters an edge list through
//! [`Graph::from_edges`], and G(n, p) that maps every skipped-to rank to
//! its edge by walking the rows from vertex 0. The builders must return
//! the same `Result` (`==` graphs, or the same error) *and* leave their
//! RNG at the same position, checked by the next `u64` each RNG yields.

use fet_stats::rng::SeedTree;
use fet_topology::builders::{erdos_renyi, random_regular};
use fet_topology::graph::Graph;
use fet_topology::TopologyError;
use proptest::prelude::*;
use rand::{Rng, RngCore};

mod reference {
    use super::*;
    use std::collections::HashSet;

    /// Steger–Wormald pairing with a hash set of taken pairs and an edge
    /// list scattered through `Graph::from_edges`.
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
        let all_stubs: Vec<u32> = (0..n)
            .flat_map(|v| std::iter::repeat_n(v, d as usize))
            .collect();
        'attempt: for _ in 0..100 {
            let mut stubs = all_stubs.clone();
            let mut taken: HashSet<(u32, u32)> = HashSet::new();
            let mut edges = Vec::new();
            while stubs.len() > 1 {
                let budget = 100 + stubs.len() * stubs.len();
                let mut found = false;
                for _ in 0..budget {
                    let i = rng.gen_range(0..stubs.len());
                    let j = rng.gen_range(0..stubs.len());
                    if i == j {
                        continue;
                    }
                    let (a, b) = (stubs[i], stubs[j]);
                    if a == b {
                        continue;
                    }
                    let key = (a.min(b), a.max(b));
                    if taken.contains(&key) {
                        continue;
                    }
                    taken.insert(key);
                    edges.push(key);
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
            return Graph::from_edges(n, &edges);
        }
        Err(TopologyError::GenerationFailed {
            generator: "random_regular",
            attempts: 100,
        })
    }

    /// G(n, p) by geometric skipping, each rank mapped to its edge by a
    /// walk over the rows from vertex 0.
    pub fn erdos_renyi<R: Rng + ?Sized>(
        n: u32,
        p: f64,
        rng: &mut R,
    ) -> Result<Graph, TopologyError> {
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
            return fet_topology::builders::complete(n);
        }
        let mut edges = Vec::new();
        if p > 0.0 {
            let ln_q = (1.0 - p).ln();
            let total = (n as u64) * (n as u64 - 1) / 2;
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
                edges.push(edge_at(n as u64, pos));
            }
        }
        Graph::from_edges(n, &edges)
    }

    fn edge_at(n: u64, mut rank: u64) -> (u32, u32) {
        let mut a = 0u64;
        loop {
            let row = n - a - 1;
            if rank < row {
                return (a as u32, (a + 1 + rank) as u32);
            }
            rank -= row;
            a += 1;
        }
    }
}

/// Runs `build` and `oracle` on twin RNGs from `seed` and asserts the same
/// `Result` and the same next RNG word.
fn assert_matches_oracle<B, O>(label: &str, seed: u64, build: B, oracle: O)
where
    B: FnOnce(&mut rand::rngs::SmallRng) -> Result<Graph, TopologyError>,
    O: FnOnce(&mut rand::rngs::SmallRng) -> Result<Graph, TopologyError>,
{
    let mut rng = SeedTree::new(seed).rng();
    let mut oracle_rng = SeedTree::new(seed).rng();
    let got = build(&mut rng);
    let want = oracle(&mut oracle_rng);
    assert_eq!(got, want, "{label} (seed {seed}): results differ");
    assert_eq!(
        rng.next_u64(),
        oracle_rng.next_u64(),
        "{label} (seed {seed}): RNG positions differ"
    );
}

fn check_regular(n: u32, d: u32, seed: u64) {
    assert_matches_oracle(
        &format!("random_regular({n}, {d})"),
        seed,
        |rng| random_regular(n, d, rng),
        |rng| reference::random_regular(n, d, rng),
    );
}

proptest! {
    #[test]
    fn random_regular_matches_the_hash_set_oracle(
        seed in any::<u64>(),
        n in 2u32..=300,
        d_draw in any::<u32>(),
    ) {
        // d ∈ [1, n); odd n·d (about a quarter of the cases) must fail the
        // same way, without drawing. Above n = 64 the draw stays at
        // d ≤ n/2: denser targets dead-end and restart dozens of times, and
        // one such case alone costs seconds in a debug build.
        let d_max = if n <= 64 { n - 1 } else { n / 2 };
        check_regular(n, 1 + d_draw % d_max, seed);
    }

    #[test]
    fn erdos_renyi_matches_the_row_walk_oracle(
        seed in any::<u64>(),
        n in 2u32..=300,
        p in 0.0f64..=1.0,
    ) {
        assert_matches_oracle(
            &format!("erdos_renyi({n}, {p})"),
            seed,
            |rng| erdos_renyi(n, p, rng),
            |rng| reference::erdos_renyi(n, p, rng),
        );
    }
}

#[test]
fn dead_end_prone_regular_graphs_match_the_oracle() {
    // Near-complete targets dead-end and restart the pairing.
    for n in 3u32..=12 {
        for d in [n - 1, n - 2] {
            for seed in 0..8 {
                check_regular(n, d, seed);
            }
        }
    }
    // K_32 minus a perfect matching dead-ends on every attempt, so the
    // restart budget runs out: the error and the RNG position after it.
    let mut rng = SeedTree::new(0).rng();
    assert_eq!(
        random_regular(32, 30, &mut rng),
        Err(TopologyError::GenerationFailed {
            generator: "random_regular",
            attempts: 100,
        })
    );
    check_regular(32, 30, 0);
}

#[test]
fn parameter_errors_match_the_oracle() {
    for (n, d) in [(10, 0), (10, 10), (5, 3), (2, 2), (7, 1)] {
        check_regular(n, d, 1);
    }
    for (n, p) in [(1, 0.5), (20, -0.1), (20, 1.5), (20, 0.0), (20, 1.0)] {
        assert_matches_oracle(
            &format!("erdos_renyi({n}, {p})"),
            3,
            |rng| erdos_renyi(n, p, rng),
            |rng| reference::erdos_renyi(n, p, rng),
        );
    }
}
