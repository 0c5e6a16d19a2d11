//! ISA-path stream identity, as a process-level contract.
//!
//! The vectorized sampling tier (`fet_stats::isa`) promises that the
//! chosen kernel path — scalar reference, SWAR, or AVX2 — never enters
//! the random stream: trajectories are bit-identical across forced paths
//! per `(seed, mode, storage, shard count)`. This suite pins that matrix
//! in process by forcing each available path programmatically; CI pins it
//! across processes by running the `determinism` suite under
//! `FET_SIMD=scalar` and `FET_SIMD=avx2` and byte-diffing the trajectory
//! dumps.
//!
//! Word-level consumption identity (the stronger statement: each kernel
//! leaves the generators in exactly the same state) is pinned one level
//! down, where the generators are visible: `fet_stats::binomial`'s
//! `block_paths_are_bit_identical` and `fet_sim::sources`'s
//! `neighbor_sampling_paths_are_stream_identical`.
//!
//! Path forcing is global process state, so every test here serializes on
//! one lock; the assertions themselves are safe against outside observers
//! precisely because all paths compute identical results.

use fet::prelude::*;
use fet_stats::isa::{self, IsaPath};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

const SEED: u64 = 0x51D3;
const MAX_ROUNDS: u64 = 120;

fn path_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn regular_graph(n: u32, degree: u32, seed: u64) -> fet::topology::graph::Graph {
    let mut rng = fet::stats::rng::SeedTree::new(seed)
        .child("simd-graph")
        .rng();
    fet::topology::builders::random_regular(n, degree, &mut rng).unwrap()
}

/// A complete-graph run: `Binomial` exercises the alias block kernels,
/// `Agent` the Lemire index kernels over every vertex.
#[allow(clippy::too_many_arguments)]
fn complete_graph_trajectory(
    path: IsaPath,
    fidelity: Fidelity,
    n: u64,
    seed: u64,
    mode: ExecutionMode,
    storage: Storage,
    max_rounds: u64,
) -> Vec<f64> {
    isa::force_path(Some(path));
    Simulation::builder()
        .population(n)
        .seed(seed)
        .fidelity(fidelity)
        .max_rounds(max_rounds)
        .execution_mode(mode)
        .storage(storage)
        .record_trajectory(true)
        .build()
        .unwrap()
        .run()
        .trajectory
        .expect("recording requested")
}

fn graph_trajectory(
    path: IsaPath,
    graph: &fet::topology::graph::Graph,
    seed: u64,
    mode: ExecutionMode,
    storage: Storage,
    max_rounds: u64,
) -> Vec<f64> {
    isa::force_path(Some(path));
    Simulation::builder()
        .topology(graph.clone())
        .seed(seed)
        .max_rounds(max_rounds)
        .execution_mode(mode)
        .storage(storage)
        .record_trajectory(true)
        .build()
        .unwrap()
        .run()
        .trajectory
        .expect("recording requested")
}

/// The pinned matrix: forced path × (mean-field, literal Agent, graph) ×
/// (Fused, FusedParallel) × (Typed, BitPlane) — every cell must replay
/// the scalar reference bit for bit.
#[test]
fn trajectories_bit_identical_across_forced_paths() {
    let _guard = path_lock();
    // Degree 24 is non-power-of-two on purpose: the graph leg exercises
    // Lemire rejections (2³² mod 24 ≠ 0), not just the rejection-free
    // power-of-two shortcut.
    let graph = regular_graph(300, 24, 0x6AF2);
    let modes = [
        ("fused", ExecutionMode::Fused),
        (
            "fused-parallel",
            ExecutionMode::FusedParallel { threads: 3 },
        ),
    ];
    let storages = [("typed", Storage::Typed), ("bit-plane", Storage::BitPlane)];
    for (mode_label, mode) in modes {
        for (storage_label, storage) in storages {
            // n = 300 keeps the Agent leg's draw range rejection-prone too.
            let complete = |path, fidelity| {
                complete_graph_trajectory(path, fidelity, 300, SEED, mode, storage, MAX_ROUNDS)
            };
            let mf_reference = complete(IsaPath::Scalar, Fidelity::Binomial);
            let agent_reference = complete(IsaPath::Scalar, Fidelity::Agent);
            let graph_reference =
                graph_trajectory(IsaPath::Scalar, &graph, SEED, mode, storage, MAX_ROUNDS);
            assert!(
                mf_reference.len() > 3 && agent_reference.len() > 3 && graph_reference.len() > 3,
                "degenerate run would make the matrix vacuous"
            );
            for forced in IsaPath::available() {
                let mf = complete(forced, Fidelity::Binomial);
                assert_eq!(
                    mf, mf_reference,
                    "mean-field {mode_label}/{storage_label}: {forced:?} diverged from scalar"
                );
                let agent = complete(forced, Fidelity::Agent);
                assert_eq!(
                    agent, agent_reference,
                    "agent {mode_label}/{storage_label}: {forced:?} diverged from scalar"
                );
                let graph_traj = graph_trajectory(forced, &graph, SEED, mode, storage, MAX_ROUNDS);
                assert_eq!(
                    graph_traj, graph_reference,
                    "graph {mode_label}/{storage_label}: {forced:?} diverged from scalar"
                );
            }
        }
    }
    isa::force_path(None);
}

proptest! {
    /// Fuzzed corner of the same contract: random populations, seeds,
    /// shard counts, and (non-power-of-two-degree) graphs — every
    /// available path replays the scalar reference exactly.
    #[test]
    fn fuzzed_runs_bit_identical_across_paths(
        half_n in 30u64..90,
        seed in 0u64..1_000_000,
        shards in 1u32..5,
        degree_bump in 0u32..4,
    ) {
        let _guard = path_lock();
        let n = 2 * half_n + 1;
        let mode = ExecutionMode::FusedParallel { threads: shards };
        let reference = complete_graph_trajectory(
            IsaPath::Scalar,
            Fidelity::Binomial,
            n,
            seed,
            mode,
            Storage::BitPlane,
            30,
        );
        // Odd degrees keep the Lemire rejection path live (2³² mod d ≠ 0);
        // the graph population is even so n·d stays even.
        let degree = 2 * degree_bump + 9;
        let graph = regular_graph(2 * half_n as u32, degree, seed ^ 0xD1CE);
        let graph_reference =
            graph_trajectory(IsaPath::Scalar, &graph, seed, mode, Storage::Typed, 30);
        for forced in IsaPath::available() {
            let mf = complete_graph_trajectory(
                forced,
                Fidelity::Binomial,
                n,
                seed,
                mode,
                Storage::BitPlane,
                30,
            );
            prop_assert_eq!(&mf, &reference, "mean-field n={} {:?}", n, forced);
            let gt = graph_trajectory(forced, &graph, seed, mode, Storage::Typed, 30);
            prop_assert_eq!(&gt, &graph_reference, "graph n={} d={} {:?}", n, degree, forced);
        }
        isa::force_path(None);
    }
}
