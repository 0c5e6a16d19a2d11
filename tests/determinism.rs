//! Cross-thread-count determinism of the parallel fused path, as a
//! process-level contract.
//!
//! The parallel stream is keyed by `(seed, shard count)`; the number of
//! worker OS threads that executes the shards must never matter. This
//! suite pins a matrix of shard counts × fidelities × fault plans and
//! checks, inside one process, that the typed and facade representations
//! replay each other bit for bit and that repeated runs replay themselves.
//!
//! The cross-*process* half is driven by CI's `determinism` job: it runs
//! this suite twice — `FET_PARALLEL_WORKERS=1` and `FET_PARALLEL_WORKERS=4`
//! (the engine honors the variable as a worker-count override that never
//! enters the stream derivation) — with `FET_DETERMINISM_DUMP` pointing at
//! a file, and diffs the two serialized trajectory dumps. Any scheduling
//! or worker-count leak into the stream shows up as a diff.
//!
//! The **graph leg** does the same for neighborhood runs: parallel
//! graph-fused rounds shard the vertex range and read adjacency + the
//! round-start opinion buffer through range-aligned `GraphSource`s, so
//! their streams must be exactly as worker-invariant as the mean-field
//! ones. `graph_parallel_stream_identity_matrix` serializes
//! random-regular-graph trajectories to `FET_DETERMINISM_DUMP_GRAPH` for
//! the same cross-worker-count byte-diff, on two graphs: degree 24, below
//! the sample size `m = 46`, where vertices count their neighbors, and odd
//! degree 47, above it, where they draw neighbor indices through the Lemire
//! kernels with rejections live. The literal Agent fidelity reads
//! the same kind of source over the complete graph, so its `agent` and
//! `noisy-agent` cases ride the mean-field matrix and its dumps. Sleepy
//! rounds draw their keep masks from a lane split by shard range, like the
//! graph draws, so a `sleepy` case rides the mean-field, bit-plane and
//! graph matrices.

use fet::prelude::*;
use fet::sim::observer::TrajectoryRecorder;
use fet_core::config::{ell_for_population, ProblemSpec};
use fet_sim::fault::FaultPlan;
use fet_sim::init::InitialCondition;
use std::fmt::Write as _;

const N: u64 = 300;
const SEED: u64 = 0xD373;
const MAX_ROUNDS: u64 = 200;
const SHARD_COUNTS: [u32; 5] = [1, 2, 3, 4, 7];
/// Graph degrees below and above the sample size `m = 2ℓ`, with labels.
const GRAPHS: [(&str, u32); 2] = [("", 24), ("dense-", 47)];

/// The determinism matrix: every case must replay per (seed, shards).
fn cases() -> Vec<(&'static str, Fidelity, FaultPlan)> {
    vec![
        ("binomial", Fidelity::Binomial, FaultPlan::none()),
        (
            "without-replacement",
            Fidelity::WithoutReplacement,
            FaultPlan::none(),
        ),
        (
            "noise",
            Fidelity::Binomial,
            FaultPlan::with_noise(0.02).unwrap(),
        ),
        (
            "retarget",
            Fidelity::Binomial,
            FaultPlan::with_source_retarget(7, Opinion::Zero),
        ),
        ("agent", Fidelity::Agent, FaultPlan::none()),
        (
            "noisy-agent",
            Fidelity::Agent,
            FaultPlan::with_noise(0.02).unwrap(),
        ),
        (
            "sleepy",
            Fidelity::Binomial,
            FaultPlan::with_sleep(0.2).unwrap(),
        ),
    ]
}

fn typed_trajectory(shards: u32, fidelity: Fidelity, fault: FaultPlan) -> Vec<f64> {
    let ell = ell_for_population(N, 4.0);
    let spec = ProblemSpec::single_source(N, Opinion::One).unwrap();
    let mut engine = Engine::new(
        Box::new(TypedPopulation::new(FetProtocol::new(ell).unwrap())),
        spec,
        fidelity,
        InitialCondition::AllWrong,
        SEED,
    )
    .unwrap();
    engine.set_fault_plan(fault).unwrap();
    engine
        .set_execution_mode(ExecutionMode::FusedParallel { threads: shards })
        .unwrap();
    let mut rec = TrajectoryRecorder::new();
    engine.run(MAX_ROUNDS, ConvergenceCriterion::new(3), &mut rec);
    rec.into_fractions()
}

fn facade_trajectory(shards: u32, fidelity: Fidelity, fault: FaultPlan) -> Vec<f64> {
    Simulation::builder()
        .population(N)
        .seed(SEED)
        .fidelity(fidelity)
        .fault(fault)
        .max_rounds(MAX_ROUNDS)
        .execution_mode(ExecutionMode::FusedParallel { threads: shards })
        .record_trajectory(true)
        .build()
        .unwrap()
        .run()
        .trajectory
        .expect("recording requested")
}

/// Shortest-round-trip (`{:?}`) f64 formatting: byte-identical text for
/// bit-identical trajectories, so dumps diff cleanly across processes.
fn render(label: &str, shards: u32, traj: &[f64]) -> String {
    let mut line = format!("shards={shards} case={label} traj=");
    for x in traj {
        write!(line, "{x:?},").unwrap();
    }
    line.push('\n');
    line
}

/// The in-process matrix: representation identity + replay identity per
/// (shard count, case), serialized for CI's cross-worker-count diff.
#[test]
fn parallel_stream_identity_matrix() {
    let mut dump = String::new();
    let workers = std::env::var("FET_PARALLEL_WORKERS").unwrap_or_else(|_| "unset".into());
    for shards in SHARD_COUNTS {
        for (label, fidelity, fault) in cases() {
            let typed = typed_trajectory(shards, fidelity, fault);
            let facade = facade_trajectory(shards, fidelity, fault);
            assert_eq!(
                typed, facade,
                "shards={shards} case={label} (workers={workers}): \
                 typed vs facade trajectories diverged"
            );
            let again = typed_trajectory(shards, fidelity, fault);
            assert_eq!(
                typed, again,
                "shards={shards} case={label} (workers={workers}): replay diverged"
            );
            dump.push_str(&render(label, shards, &typed));
        }
    }
    // Distinct shard counts must be distinct streams (same distribution,
    // different interleaving) — a constant trajectory would make the
    // cross-worker diff vacuous.
    assert_ne!(
        typed_trajectory(1, Fidelity::Binomial, FaultPlan::none()),
        typed_trajectory(2, Fidelity::Binomial, FaultPlan::none()),
    );
    if let Ok(path) = std::env::var("FET_DETERMINISM_DUMP") {
        std::fs::write(&path, dump).expect("write determinism dump");
    }
}

// ---- the graph leg ----

/// A fixed random-regular instance for the graph matrix (built from its
/// own seed lane so the engine seed stays the run key).
fn regular_graph(degree: u32) -> fet::topology::graph::Graph {
    let mut rng = fet::stats::rng::SeedTree::new(0x6AF)
        .child("determinism-graph")
        .rng();
    fet::topology::builders::random_regular(N as u32, degree, &mut rng).unwrap()
}

fn graph_typed_trajectory(degree: u32, shards: u32, fault: FaultPlan) -> Vec<f64> {
    let ell = ell_for_population(N, 4.0);
    let spec = ProblemSpec::single_source(N, Opinion::One).unwrap();
    let population = Box::new(TypedPopulation::new(FetProtocol::new(ell).unwrap()));
    let mut engine = Engine::new(
        population,
        spec,
        Fidelity::Agent,
        InitialCondition::AllWrong,
        SEED,
    )
    .unwrap()
    .with_neighborhood(Box::new(regular_graph(degree)))
    .unwrap();
    engine.set_fault_plan(fault).unwrap();
    engine
        .set_execution_mode(ExecutionMode::FusedParallel { threads: shards })
        .unwrap();
    let mut rec = TrajectoryRecorder::new();
    engine.run(MAX_ROUNDS, ConvergenceCriterion::new(3), &mut rec);
    rec.into_fractions()
}

fn graph_facade_trajectory(degree: u32, shards: u32, fault: FaultPlan) -> Vec<f64> {
    Simulation::builder()
        .topology(regular_graph(degree))
        .seed(SEED)
        .fault(fault)
        .max_rounds(MAX_ROUNDS)
        .execution_mode(ExecutionMode::FusedParallel { threads: shards })
        .record_trajectory(true)
        .build()
        .unwrap()
        .run()
        .trajectory
        .expect("recording requested")
}

/// The graph-mode determinism matrix: parallel graph-fused trajectories
/// must be keyed by `(seed, shard count)` alone — identical across the
/// typed and facade representations, across repeated runs, and (via CI's
/// byte-diff of the serialized dump) across worker counts.
#[test]
fn graph_parallel_stream_identity_matrix() {
    let graph_cases: Vec<(&str, FaultPlan)> = vec![
        ("plain", FaultPlan::none()),
        ("noise", FaultPlan::with_noise(0.02).unwrap()),
        (
            "retarget",
            FaultPlan::with_source_retarget(7, Opinion::Zero),
        ),
        ("sleepy", FaultPlan::with_sleep(0.2).unwrap()),
    ];
    let m = 2 * ell_for_population(N, 4.0);
    let [(_, degree), (_, dense_degree)] = GRAPHS;
    assert!(
        degree <= m && dense_degree > m,
        "the graphs must straddle m = {m}"
    );
    let mut dump = String::new();
    let workers = std::env::var("FET_PARALLEL_WORKERS").unwrap_or_else(|_| "unset".into());
    for shards in SHARD_COUNTS {
        for (prefix, degree) in GRAPHS {
            for (case, fault) in &graph_cases {
                let label = format!("{prefix}{case}");
                let typed = graph_typed_trajectory(degree, shards, *fault);
                let facade = graph_facade_trajectory(degree, shards, *fault);
                assert_eq!(
                    typed, facade,
                    "graph shards={shards} case={label} (workers={workers}): \
                     typed vs facade trajectories diverged"
                );
                let again = graph_typed_trajectory(degree, shards, *fault);
                assert_eq!(
                    typed, again,
                    "graph shards={shards} case={label} (workers={workers}): replay diverged"
                );
                dump.push_str(&render(&label, shards, &typed));
            }
        }
    }
    for (_, degree) in GRAPHS {
        assert_ne!(
            graph_typed_trajectory(degree, 1, FaultPlan::none()),
            graph_typed_trajectory(degree, 2, FaultPlan::none()),
            "graph shard counts must key distinct streams (degree {degree})"
        );
    }
    if let Ok(path) = std::env::var("FET_DETERMINISM_DUMP_GRAPH") {
        std::fs::write(&path, dump).expect("write graph determinism dump");
    }
}

// ---- the bit-plane leg ----

fn bitplane_facade_trajectory(
    shards: u32,
    fidelity: Fidelity,
    fault: FaultPlan,
    storage: Storage,
) -> Vec<f64> {
    Simulation::builder()
        .population(N)
        .seed(SEED)
        .fidelity(fidelity)
        .fault(fault)
        .max_rounds(MAX_ROUNDS)
        .execution_mode(ExecutionMode::FusedParallel { threads: shards })
        .storage(storage)
        .record_trajectory(true)
        .build()
        .unwrap()
        .run()
        .trajectory
        .expect("recording requested")
}

/// The storage-representation determinism matrix: bit-plane parallel
/// trajectories must be byte-identical to typed-storage ones for every
/// `(seed, shard count)` — in process against `Storage::Typed`, across
/// repeated runs, and (via CI's byte-diff of the serialized dump, against
/// the typed `FET_DETERMINISM_DUMP` file's shared cases and across worker
/// counts) out of process. Mean-field and graph legs both.
#[test]
fn bitplane_parallel_stream_identity_matrix() {
    let mut dump = String::new();
    let workers = std::env::var("FET_PARALLEL_WORKERS").unwrap_or_else(|_| "unset".into());
    for shards in SHARD_COUNTS {
        for (label, fidelity, fault) in cases() {
            let typed = bitplane_facade_trajectory(shards, fidelity, fault, Storage::Typed);
            let bits = bitplane_facade_trajectory(shards, fidelity, fault, Storage::BitPlane);
            assert_eq!(
                typed, bits,
                "shards={shards} case={label} (workers={workers}): \
                 typed vs bit-plane trajectories diverged"
            );
            let again = bitplane_facade_trajectory(shards, fidelity, fault, Storage::BitPlane);
            assert_eq!(
                bits, again,
                "shards={shards} case={label} (workers={workers}): bit-plane replay diverged"
            );
            dump.push_str(&render(label, shards, &bits));
        }
        // Graph legs: the 1-bit round-start snapshot must feed the shard
        // sources exactly as the byte double buffer does, whether vertices
        // count their neighbors or draw them.
        for (prefix, degree) in GRAPHS {
            let graph_typed = graph_typed_trajectory(degree, shards, FaultPlan::none());
            let graph_bits = Simulation::builder()
                .topology(regular_graph(degree))
                .seed(SEED)
                .max_rounds(MAX_ROUNDS)
                .execution_mode(ExecutionMode::FusedParallel { threads: shards })
                .storage(Storage::BitPlane)
                .record_trajectory(true)
                .build()
                .unwrap()
                .run()
                .trajectory
                .expect("recording requested");
            assert_eq!(
                graph_typed, graph_bits,
                "{prefix}graph shards={shards} (workers={workers}): typed vs bit-plane diverged"
            );
            dump.push_str(&render(
                &format!("{prefix}graph-plain"),
                shards,
                &graph_bits,
            ));
        }
    }
    if let Ok(path) = std::env::var("FET_DETERMINISM_DUMP_BITPLANE") {
        std::fs::write(&path, dump).expect("write bit-plane determinism dump");
    }
}

// ---- the packed-clock leg ----

fn packed_clock_trajectory(shards: u32, ell: u32, storage: Storage) -> Vec<f64> {
    Simulation::builder()
        .population(N)
        .ell(ell)
        .seed(SEED)
        .max_rounds(MAX_ROUNDS)
        .execution_mode(ExecutionMode::FusedParallel { threads: shards })
        .storage(storage)
        .record_trajectory(true)
        .build()
        .unwrap()
        .run()
        .trajectory
        .expect("recording requested")
}

/// The packed-aux determinism matrix: every bit-sliced clock-plane
/// width from 1 to 8 bits (`ℓ = 47` → 6 bits is the benchmark's layout
/// at n = 10⁵; `ℓ = 65` → 7 bits is what `fet run --n 10000000` packs)
/// must replay the typed-storage trajectory bit for bit per
/// `(seed, shard count)`. The plane width is pure representation; it
/// must never enter the stream. Serialized to
/// `FET_DETERMINISM_DUMP_PACKED` for CI's cross-worker-count byte-diff.
#[test]
fn packed_clock_stream_identity_matrix() {
    // (label, ell) → aux width exercised; see `FetProtocol::state_planes`.
    let ells = [
        ("sliced-3b", 5u32),
        ("sliced-6b", 47),
        ("sliced-7b", 65),
        ("sliced-4b", 12),
        ("sliced-8b", 200),
        ("sliced-1b", 1),
        ("sliced-2b", 2),
        ("sliced-5b", 20),
    ];
    let mut dump = String::new();
    let workers = std::env::var("FET_PARALLEL_WORKERS").unwrap_or_else(|_| "unset".into());
    for shards in SHARD_COUNTS {
        for (label, ell) in ells {
            let typed = packed_clock_trajectory(shards, ell, Storage::Typed);
            let packed = packed_clock_trajectory(shards, ell, Storage::BitPlane);
            assert_eq!(
                typed, packed,
                "shards={shards} case={label} (workers={workers}): \
                 typed vs packed-clock trajectories diverged"
            );
            let again = packed_clock_trajectory(shards, ell, Storage::BitPlane);
            assert_eq!(
                packed, again,
                "shards={shards} case={label} (workers={workers}): packed replay diverged"
            );
            dump.push_str(&render(label, shards, &packed));
        }
    }
    if let Ok(path) = std::env::var("FET_DETERMINISM_DUMP_PACKED") {
        std::fs::write(&path, dump).expect("write packed-clock determinism dump");
    }
}
