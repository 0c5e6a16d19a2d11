//! Cross-commit stream digests: every execution path's random stream,
//! pinned to the bytes it produced when the digests were recorded.
//!
//! The other identity suites compare paths *with each other* inside one
//! build (typed vs erased, worker counts, ISA tiers), which cannot notice a
//! change that moves every path at once. This suite hashes each round's
//! [`RoundSnapshot`] (round index plus the bit patterns of `x_t` and the
//! fraction correct) for a matrix of
//! {binomial, without-replacement, literal Agent, random-regular graph of
//! degree below and above the sample size `m`} ×
//! {fused, fused-parallel with 1 and 3 shards} × {typed, bit-plane}, plus
//! one asynchronous run, sleepy binomial runs (default mode, and
//! {fused, fused-parallel with 3 shards} × {typed, bit-plane}), one
//! fault-schedule run, one noisy run per sampling rule and a noisy sleepy
//! binomial run, and compares the FNV-1a digests
//! against the table below. A refactor of the round machinery must leave
//! every digest unchanged; a deliberate stream re-key updates the table in
//! the same change and says so in docs/DETERMINISM.md.
//!
//! On a mismatch the failure message lists every case's current digest in
//! table form.

use fet::prelude::*;
use fet::sim::observer::{RoundObserver, RoundSnapshot};
use fet::topology::builders::random_regular;
use rand::SeedableRng;

const N: u64 = 640;
const SEED: u64 = 0x5EED_D16E;
const MAX_ROUNDS: u64 = 150;
/// Degree of the `graph` legs: below `m = 52`, so every vertex counts its
/// neighbors and draws `Binomial(m, k/d)`.
const GRAPH_DEGREE: u32 = 8;
/// Degree of the `graph-dense` legs: above `m = 52`, so every vertex draws
/// its `m` neighbor indices; odd, so Lemire rejections occur.
const DENSE_GRAPH_DEGREE: u32 = 63;
/// Flip probability of the noisy legs.
const NOISE: f64 = 0.02;

/// FNV-1a over every snapshot's round and the bit patterns of its two
/// fractions.
struct SnapshotDigest(u64);

impl SnapshotDigest {
    fn feed(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl RoundObserver for SnapshotDigest {
    fn on_round(&mut self, snapshot: RoundSnapshot) {
        self.feed(snapshot.round);
        self.feed(snapshot.fraction_ones.to_bits());
        self.feed(snapshot.fraction_correct.to_bits());
    }
}

/// A run observing the population one way: a complete-graph fidelity
/// (`binomial`, `without-replacement`, `agent`) or a random-regular
/// `graph` or `graph-dense`.
fn observed(kind: &str) -> SimulationBuilder {
    let base = Simulation::builder()
        .seed(SEED)
        .max_rounds(MAX_ROUNDS)
        .stability_window(3);
    let degree = match kind {
        "binomial" => return base.population(N).fidelity(Fidelity::Binomial),
        "without-replacement" => return base.population(N).fidelity(Fidelity::WithoutReplacement),
        "agent" => return base.population(N).fidelity(Fidelity::Agent),
        "graph" => GRAPH_DEGREE,
        _ => DENSE_GRAPH_DEGREE,
    };
    let mut rng = rand::rngs::SmallRng::seed_from_u64(SEED);
    let graph =
        random_regular(N as u32, degree, &mut rng).expect("N·degree is even and degree < N");
    base.topology(graph)
}

fn digest(builder: SimulationBuilder) -> u64 {
    let mut sim = builder.build().expect("every digest case is a valid build");
    let mut digest = SnapshotDigest(0xCBF2_9CE4_8422_2325);
    sim.run_observed(&mut digest);
    digest.0
}

fn storage_label(storage: Storage) -> &'static str {
    if storage == Storage::BitPlane {
        "bits"
    } else {
        "typed"
    }
}

/// Every case of the matrix, labelled, with its current digest.
fn current_digests() -> Vec<(String, u64)> {
    let modes = [
        ("fused", ExecutionMode::Fused),
        ("parallel-1", ExecutionMode::FusedParallel { threads: 1 }),
        ("parallel-3", ExecutionMode::FusedParallel { threads: 3 }),
    ];
    let sleepy =
        || observed("binomial").fault(FaultPlan::with_sleep(0.2).expect("valid sleep probability"));
    let mut cases = Vec::new();
    for kind in [
        "binomial",
        "without-replacement",
        "agent",
        "graph",
        "graph-dense",
    ] {
        for (mode_label, mode) in modes {
            for storage in [Storage::Typed, Storage::BitPlane] {
                cases.push((
                    format!("{kind}/{mode_label}/{}", storage_label(storage)),
                    digest(observed(kind).execution_mode(mode).storage(storage)),
                ));
            }
        }
    }
    cases.push((
        "async".into(),
        digest(
            Simulation::builder()
                .population(200)
                .seed(SEED)
                .scheduler(Scheduler::Asynchronous)
                .max_rounds(40),
        ),
    ));
    cases.push(("sleepy".into(), digest(sleepy())));
    for (mode_label, mode) in [modes[0], modes[2]] {
        for storage in [Storage::Typed, Storage::BitPlane] {
            cases.push((
                format!("sleepy/{mode_label}/{}", storage_label(storage)),
                digest(sleepy().execution_mode(mode).storage(storage)),
            ));
        }
    }
    let schedule = FaultSchedule::new(
        FaultPlan::with_noise(0.002).expect("valid flip probability"),
        vec![
            FaultEvent::TrendSwitch {
                round: 12,
                correct: Opinion::Zero,
            },
            FaultEvent::NoiseBurst {
                round: 30,
                rounds: 4,
                flip_prob: 0.05,
            },
            FaultEvent::StateCorruption {
                round: 45,
                fraction: 0.3,
            },
        ],
    )
    .expect("sorted, valid events");
    cases.push((
        "fault-schedule".into(),
        digest(
            observed("binomial")
                .execution_mode(ExecutionMode::Fused)
                .fault_schedule(schedule),
        ),
    ));
    // Observation noise reaches each sampling rule its own way: folded
    // into the binomial law, through `corrupt_count` everywhere else.
    for (kind, mode_label, mode, storage) in [
        ("binomial", "fused", ExecutionMode::Fused, Storage::BitPlane),
        (
            "without-replacement",
            "fused",
            ExecutionMode::Fused,
            Storage::Typed,
        ),
        ("graph", "fused", ExecutionMode::Fused, Storage::Typed),
        ("agent", "fused", ExecutionMode::Fused, Storage::Typed),
    ] {
        cases.push((
            format!("noisy/{kind}/{mode_label}/{}", storage_label(storage)),
            digest(
                observed(kind)
                    .execution_mode(mode)
                    .storage(storage)
                    .fault(FaultPlan::with_noise(NOISE).expect("valid flip probability")),
            ),
        ));
    }
    cases.push((
        "noisy/sleepy".into(),
        digest(observed("binomial").fault(FaultPlan {
            sleep_prob: 0.2,
            ..FaultPlan::with_noise(NOISE).expect("valid flip probability")
        })),
    ));
    cases
}

/// Digests recorded before the round pipeline was consolidated onto one
/// fused entry point — except `fault-schedule` and the `noisy/` legs,
/// recorded when observation noise was folded into the binomial round law
/// and `FaultPlan::corrupt_count` became a geometric skip; the `agent/`
/// and `noisy/agent/` legs, recorded when the literal Agent fidelity moved
/// from the batched pipeline onto fused rounds over the complete-graph
/// index source; and the `graph/` and `noisy/graph/` legs, recorded when
/// vertices of degree `d ≤ m` began drawing `Binomial(m, k/d)` from their
/// neighbor count; and the `sleepy` legs, recorded when sleepy rounds moved
/// from the per-agent loop onto fused rounds under a keep mask. The
/// `binomial/`, `sleepy` and `fault-schedule` legs were recorded again when
/// Binomial rounds whose unanimity probability reaches
/// `UNANIMOUS_RUN_THRESHOLD` began handing out unanimous runs (each re-key
/// is listed in docs/DETERMINISM.md). The `graph-dense/` legs, added with
/// the neighbor-count change, match what the index draws produced before
/// it.
const RECORDED: &[(&str, u64)] = &[
    ("binomial/fused/typed", 0x66B40B4B2C73CAEF),
    ("binomial/fused/bits", 0x66B40B4B2C73CAEF),
    ("binomial/parallel-1/typed", 0x83EB608A4B030125),
    ("binomial/parallel-1/bits", 0x83EB608A4B030125),
    ("binomial/parallel-3/typed", 0x80303F961BF3F95C),
    ("binomial/parallel-3/bits", 0x80303F961BF3F95C),
    ("without-replacement/fused/typed", 0x15C0B393325FDF54),
    ("without-replacement/fused/bits", 0x15C0B393325FDF54),
    ("without-replacement/parallel-1/typed", 0xAF5B5F10B55E6543),
    ("without-replacement/parallel-1/bits", 0xAF5B5F10B55E6543),
    ("without-replacement/parallel-3/typed", 0x3DF3249E62A4A599),
    ("without-replacement/parallel-3/bits", 0x3DF3249E62A4A599),
    ("agent/fused/typed", 0x1C04A0B814B520ED),
    ("agent/fused/bits", 0x1C04A0B814B520ED),
    ("agent/parallel-1/typed", 0xAF56992BF426B023),
    ("agent/parallel-1/bits", 0xAF56992BF426B023),
    ("agent/parallel-3/typed", 0xF9A5AA937797B923),
    ("agent/parallel-3/bits", 0xF9A5AA937797B923),
    ("graph/fused/typed", 0xEC0067E33DFA1457),
    ("graph/fused/bits", 0xEC0067E33DFA1457),
    ("graph/parallel-1/typed", 0x8C159AC820B56045),
    ("graph/parallel-1/bits", 0x8C159AC820B56045),
    ("graph/parallel-3/typed", 0x8DD114314B8DCA1A),
    ("graph/parallel-3/bits", 0x8DD114314B8DCA1A),
    ("graph-dense/fused/typed", 0xECB00735B2ABB623),
    ("graph-dense/fused/bits", 0xECB00735B2ABB623),
    ("graph-dense/parallel-1/typed", 0x48843A5D7180900E),
    ("graph-dense/parallel-1/bits", 0x48843A5D7180900E),
    ("graph-dense/parallel-3/typed", 0x2E4AEDFA87E35261),
    ("graph-dense/parallel-3/bits", 0x2E4AEDFA87E35261),
    ("async", 0x13734C7E19126BAC),
    ("sleepy", 0x587994E56A06BBD1),
    ("sleepy/fused/typed", 0x587994E56A06BBD1),
    ("sleepy/fused/bits", 0x587994E56A06BBD1),
    ("sleepy/parallel-3/typed", 0x60CA9F3EB1ED3BFC),
    ("sleepy/parallel-3/bits", 0x60CA9F3EB1ED3BFC),
    ("fault-schedule", 0x4637F228ED320709),
    ("noisy/binomial/fused/bits", 0x48406B686CAC7D5D),
    ("noisy/without-replacement/fused/typed", 0x2C2285985658677F),
    ("noisy/graph/fused/typed", 0x52F86701BE66C097),
    ("noisy/agent/fused/typed", 0xBEDEDB849F5FC6DB),
    ("noisy/sleepy", 0xF69D039153C8693E),
];

#[test]
fn every_stream_matches_its_recorded_digest() {
    let current = current_digests();
    let table: String = current
        .iter()
        .map(|(label, d)| format!("    (\"{label}\", 0x{d:016X}),\n"))
        .collect();
    let labels: Vec<&str> = current.iter().map(|(l, _)| l.as_str()).collect();
    let recorded: Vec<&str> = RECORDED.iter().map(|(l, _)| *l).collect();
    assert_eq!(
        labels, recorded,
        "case list changed; current table:\n{table}"
    );
    for ((label, got), (_, want)) in current.iter().zip(RECORDED) {
        assert_eq!(
            got, want,
            "stream of `{label}` moved; current table:\n{table}"
        );
    }
}
