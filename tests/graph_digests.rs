//! Cross-commit graph digests: every randomized graph the sweep and the
//! stream digests build, pinned to the bytes it had when the table was
//! recorded.
//!
//! Each case hashes (FNV-1a) the graph's CSR offsets, its CSR neighbors
//! and the next word of the construction RNG after the builder returns.
//! So a builder rewrite that keeps the table passes returns `==` graphs
//! *and* leaves the RNG where it was, which is what keeps every stream
//! drawn after a graph build (and every graph-leg digest in
//! `tests/stream_digests.rs`) unmoved.
//!
//! Cases: [`TopologySpec::build`] for `regular`, `er` and `smallworld` at
//! n ∈ {640, 10⁴}, plus `random_regular(640, 8)` and
//! `random_regular(640, 63)` from `tests/stream_digests.rs`'s seed. The
//! spec cases rebuild the graph directly from the spec's RNG lane too, so
//! the RNG position is hashed and the spec's mapping onto the builder is
//! checked in the same pass. About 1 s in a debug build.
//!
//! On a mismatch the failure message lists every case's current digest in
//! table form.

use fet::prelude::*;
use fet::sweep::spec::TopologySpec;
use fet::topology::builders;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// `tests/stream_digests.rs`'s seed: its graph legs build these graphs.
const SEED: u64 = 0x5EED_D16E;
/// Degree parameter of every spec case.
const DEGREE: u32 = 16;
/// Rewiring probability of the `smallworld` cases.
const BETA: f64 = 0.1;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn feed(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The digest of a graph and the next word of the RNG that built it.
fn digest(graph: &Graph, rng: &mut impl RngCore) -> u64 {
    let mut h = Fnv::new();
    for &offset in graph.csr_offsets() {
        h.feed(offset as u64);
    }
    for &w in graph.csr_neighbors() {
        h.feed(u64::from(w));
    }
    h.feed(rng.next_u64());
    h.0
}

/// A spec case: the graph [`TopologySpec::build`] returns, checked `==`
/// against the builder run directly on the spec's RNG lane, whose next
/// word joins the digest.
fn spec_digest(name: &str, n: u32) -> u64 {
    let spec = TopologySpec {
        graph: name.to_string(),
        degree: DEGREE,
        beta: BETA,
        seed: SEED,
    };
    let built = spec.build(n).expect("valid spec");
    let mut rng = SeedTree::new(SEED).child("sweep-graph").child(name).rng();
    let direct = match name {
        "regular" => builders::random_regular(n, DEGREE, &mut rng),
        "er" => builders::erdos_renyi(n, f64::from(DEGREE) / f64::from(n), &mut rng),
        _ => builders::watts_strogatz(n, DEGREE, BETA, &mut rng),
    }
    .expect("valid parameters");
    assert_eq!(
        built, direct,
        "{name}/{n}: TopologySpec::build must be the builder on its lane"
    );
    digest(&direct, &mut rng)
}

/// `random_regular(640, degree)` from `tests/stream_digests.rs`'s RNG.
fn stream_graph_digest(degree: u32) -> u64 {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let graph = builders::random_regular(640, degree, &mut rng).expect("640·degree is even");
    digest(&graph, &mut rng)
}

fn current_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for name in ["regular", "er", "smallworld"] {
        for n in [640, 10_000] {
            out.push((format!("spec/{name}/{n}"), spec_digest(name, n)));
        }
    }
    for degree in [8, 63] {
        out.push((
            format!("random_regular/640/{degree}"),
            stream_graph_digest(degree),
        ));
    }
    out
}

/// Recorded before the random-regular and Erdős–Rényi builders moved to
/// in-place CSR construction; that rewrite changed no digest.
const RECORDED: &[(&str, u64)] = &[
    ("spec/regular/640", 0x81F70AC7B3DD49E1),
    ("spec/regular/10000", 0x5F6EC39570AC3231),
    ("spec/er/640", 0x024A77B64678C492),
    ("spec/er/10000", 0xA92C51C9B68856A7),
    ("spec/smallworld/640", 0xCB227746F1479CB6),
    ("spec/smallworld/10000", 0x63ABC877C7E0D547),
    ("random_regular/640/8", 0x83BBB76F49B1A071),
    ("random_regular/640/63", 0xFEFA8CCDA4DED1EC),
];

#[test]
fn every_graph_matches_its_recorded_digest() {
    let current = current_digests();
    let table: String = current
        .iter()
        .map(|(label, d)| format!("    (\"{label}\", 0x{d:016X}),\n"))
        .collect();
    assert_eq!(
        current.len(),
        RECORDED.len(),
        "case count changed; current table:\n{table}"
    );
    for ((label, d), (want_label, want)) in current.iter().zip(RECORDED) {
        assert_eq!(
            (label.as_str(), *d),
            (*want_label, *want),
            "graph digest moved; current table:\n{table}"
        );
    }
}
