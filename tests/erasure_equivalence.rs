//! The erased-execution guarantees, checked from the outside:
//!
//! 1. The typed engine, the population-erased facade path
//!    (`Simulation::builder().protocol_name(..)`), and the **bit-plane**
//!    facade path (`.storage(Storage::BitPlane)`) replay **identical**
//!    trajectories for the same seed — representation (erasure *and*
//!    packing) never touches the random stream.
//! 2. A registry-name facade run performs **zero per-round state clones**
//!    (the defining property of the contiguous population container).
//! 3. A bit-plane run allocates **no more than** the equivalent typed run
//!    while stepping (the packed planes are persistent; rounds touch them
//!    in place), measured with a counting allocator.
//! 4. The guarantees are protocol-independent: exercised for `fet` and
//!    `3-majority`.

use fet::prelude::*;
use fet::protocols::three_majority::ThreeMajorityProtocol;
use fet::sim::observer::TrajectoryRecorder;
use fet::sim::simulation::Storage;
use fet_core::config::ell_for_population;
use fet_core::config::ProblemSpec;
use fet_core::memory::MemoryFootprint;
use fet_core::observation::Observation;
use fet_core::protocol::RoundContext;
use rand::RngCore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts heap allocations per thread, so concurrently running tests in
/// this binary never pollute each other's measurements (the engines under
/// test run single-threaded in `Fused` mode).
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: the TLS slot may already be torn down during thread
        // exit; allocation accounting just stops then.
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

const N: u64 = 250;
const SEED: u64 = 0xE0_1D;
const MAX_ROUNDS: u64 = 400;
const WINDOW: u64 = 3;

/// Runs the typed engine exactly as the facade would configure it.
fn typed_trajectory<P>(protocol: P) -> (ConvergenceReport, Vec<f64>)
where
    P: Protocol + Clone + std::fmt::Debug + Send + Sync + 'static,
    P::State: 'static,
{
    let spec = ProblemSpec::single_source(N, Opinion::One).unwrap();
    let mut engine = Engine::new(
        Box::new(TypedPopulation::new(protocol)),
        spec,
        Fidelity::Binomial,
        InitialCondition::AllWrong,
        SEED,
    )
    .unwrap();
    let mut rec = TrajectoryRecorder::new();
    let report = engine.run(MAX_ROUNDS, ConvergenceCriterion::new(WINDOW), &mut rec);
    (report, rec.into_fractions())
}

/// Runs the facade (population-erased) path by registry name, on the
/// requested storage representation.
fn facade_trajectory_on(name: &str, storage: Storage) -> (ConvergenceReport, Vec<f64>) {
    let run = Simulation::builder()
        .population(N)
        .protocol_name(name)
        .seed(SEED)
        .max_rounds(MAX_ROUNDS)
        .stability_window(WINDOW)
        .storage(storage)
        .record_trajectory(true)
        .build()
        .unwrap()
        .run();
    assert_eq!(run.storage, storage, "requested representation must stick");
    (run.report, run.trajectory.expect("recording requested"))
}

fn facade_trajectory(name: &str) -> (ConvergenceReport, Vec<f64>) {
    facade_trajectory_on(name, Storage::Typed)
}

#[test]
fn fet_four_paths_identical_trajectories() {
    let ell = ell_for_population(N, 4.0);
    let typed = typed_trajectory(FetProtocol::new(ell).unwrap());
    let facade = facade_trajectory("fet");
    let bits = facade_trajectory_on("fet", Storage::BitPlane);
    assert_eq!(typed, facade, "typed vs population-erased diverged");
    assert_eq!(typed, bits, "typed vs bit-plane diverged");
    assert!(typed.0.converged(), "{:?}", typed.0);
}

#[test]
fn three_majority_four_paths_identical_trajectories() {
    let typed = typed_trajectory(ThreeMajorityProtocol::new());
    let facade = facade_trajectory("3-majority");
    let bits = facade_trajectory_on("3-majority", Storage::BitPlane);
    assert_eq!(typed, facade, "typed vs population-erased diverged");
    assert_eq!(typed, bits, "typed vs bit-plane diverged");
    // 3-majority has no stubborn-source guarantee; we only require the
    // paths to walk the same trajectory, converged or not.
    assert_eq!(typed.1.len(), facade.1.len());
}

/// Bit-plane rounds must not out-allocate typed rounds: the planes are
/// persistent and rounds step them in place, so any allocation left is the
/// shared per-round machinery (the binomial sampler), identical on both
/// representations. Measured on this thread only — single-threaded `Fused`
/// mode keeps all engine work here.
#[test]
fn bit_plane_rounds_allocate_no_more_than_typed_rounds() {
    let run_counting = |storage: Storage| {
        let mut sim = Simulation::builder()
            .population(N)
            .seed(SEED)
            .max_rounds(60)
            .execution_mode(ExecutionMode::Fused)
            .storage(storage)
            .build()
            .unwrap();
        let before = allocs_on_this_thread();
        let report = sim.run();
        let allocs = allocs_on_this_thread() - before;
        (report, allocs)
    };
    let (typed_report, typed_allocs) = run_counting(Storage::Typed);
    let (bits_report, bits_allocs) = run_counting(Storage::BitPlane);
    assert_eq!(
        typed_report.report, bits_report.report,
        "same rounds must have run on both representations"
    );
    assert!(bits_report.report.rounds_run >= 5, "probe must step");
    assert!(
        bits_allocs <= typed_allocs,
        "bit-plane path allocated more than typed ({bits_allocs} > {typed_allocs}) \
         over {} rounds",
        bits_report.report.rounds_run
    );
}

// ---- zero-clone regression probe ----

static STATE_CLONES: AtomicUsize = AtomicUsize::new(0);

/// A state whose `Clone` is instrumented: any per-round re-materialization
/// of the state buffer (the legacy boxed path's overhead) is counted.
#[derive(Debug)]
struct ProbeState {
    opinion: Opinion,
}

impl Clone for ProbeState {
    fn clone(&self) -> Self {
        STATE_CLONES.fetch_add(1, Ordering::Relaxed);
        ProbeState {
            opinion: self.opinion,
        }
    }
}

/// A minimal follow-the-sample protocol carrying the probe state.
#[derive(Debug, Clone)]
struct CloneProbeProtocol;

impl Protocol for CloneProbeProtocol {
    type State = ProbeState;

    fn name(&self) -> &str {
        "clone-probe"
    }

    fn samples_per_round(&self) -> u32 {
        1
    }

    fn init_state(&self, opinion: Opinion, _rng: &mut dyn RngCore) -> ProbeState {
        ProbeState { opinion }
    }

    fn step(
        &self,
        state: &mut ProbeState,
        obs: &Observation,
        _ctx: &RoundContext,
        _rng: &mut dyn RngCore,
    ) -> Opinion {
        state.opinion = if obs.ones() > 0 {
            Opinion::One
        } else {
            Opinion::Zero
        };
        state.opinion
    }

    fn output(&self, state: &ProbeState) -> Opinion {
        state.opinion
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint::new(1, 0, 0)
    }
}

/// A registry-name facade run must never clone agent states: the
/// population container steps its contiguous buffer in place. (Before the
/// population container, the erased path cloned every state twice per
/// round — this test would have counted tens of thousands.)
#[test]
fn registry_name_run_performs_zero_per_round_state_clones() {
    let mut registry = ProtocolRegistry::empty();
    registry.register("clone-probe", |_| {
        Ok(ErasedProtocol::new(CloneProbeProtocol))
    });
    let mut sim = Simulation::builder()
        .population(200)
        .registry(registry)
        .protocol_name("clone-probe")
        .seed(11)
        .max_rounds(50)
        .build()
        .unwrap();
    let before = STATE_CLONES.load(Ordering::SeqCst);
    let report = sim.run();
    let after = STATE_CLONES.load(Ordering::SeqCst);
    assert!(report.report.rounds_run > 0, "probe must actually step");
    assert_eq!(
        after - before,
        0,
        "population-erased path must not clone states ({} rounds ran)",
        report.report.rounds_run
    );
}
