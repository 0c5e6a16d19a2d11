//! Timing and process-counter helpers shared by every workload.

use fet_sim::observer::{RoundObserver, RoundSnapshot};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used so far, summed over all its threads,
/// exited ones included. Time the host takes a vCPU away (steal) and time
/// other processes hold a core are not in it, so CPU-time differences
/// measure the program's own work on a shared host.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds of one measured stretch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    /// Wall seconds since the start.
    pub fn wall_s(&self) -> f64 {
        secs(self.wall)
    }

    /// Process CPU seconds since the start.
    pub fn cpu_s(&self) -> f64 {
        (cpu_s() - self.cpu).max(0.0)
    }
}

/// Logical cores the host offers (`host_parallelism` in provenance).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Process-wide counters from `/proc/self/stat`: minor page faults and
/// system CPU time (all threads).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub minor_faults: u64,
    pub sys_s: f64,
}

impl ProcStat {
    /// The counters now (zeros where `/proc` is unavailable).
    pub fn now() -> ProcStat {
        let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
            return ProcStat::default();
        };
        // Fields after the parenthesised command name, which may itself
        // contain spaces: state is field 3, minflt field 10, stime 15.
        let Some(rest) = text.rfind(')').map(|i| &text[i + 2..]) else {
            return ProcStat::default();
        };
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| fields.get(i - 3).and_then(|v| v.parse::<u64>().ok());
        // /proc reports CPU time in USER_HZ, which is 100 on Linux.
        ProcStat {
            minor_faults: field(10).unwrap_or(0),
            sys_s: field(15).unwrap_or(0) as f64 / 100.0,
        }
    }

    /// Counter growth since `earlier`.
    pub fn since(self, earlier: ProcStat) -> ProcStat {
        ProcStat {
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            sys_s: (self.sys_s - earlier.sys_s).max(0.0),
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A span per round, recorded from outside the engine through the public
/// observer hook: the time between consecutive round snapshots is one
/// `Simulation::step` plus the run loop's convergence bookkeeping.
#[derive(Debug)]
pub struct RoundSpans {
    last: Instant,
    /// Wall seconds of each executed round.
    pub rounds_s: Vec<f64>,
    /// `x_t` at every snapshot, round 0 included.
    pub x_t: Vec<f64>,
}

impl RoundSpans {
    pub fn new() -> RoundSpans {
        RoundSpans {
            last: Instant::now(),
            rounds_s: Vec::new(),
            x_t: Vec::new(),
        }
    }

    /// The round-start `x_t` of every executed round.
    pub fn round_start_x(&self) -> &[f64] {
        &self.x_t[..self.rounds_s.len()]
    }
}

impl RoundObserver for RoundSpans {
    fn on_round(&mut self, snapshot: RoundSnapshot) {
        let now = Instant::now();
        if snapshot.round > 0 {
            self.rounds_s.push((now - self.last).as_secs_f64());
        }
        self.x_t.push(snapshot.fraction_ones);
        self.last = now;
    }
}

/// Wall ns per agent-round over every round in `spans`, for `n` agents.
pub fn round_ns_per_agent<'a>(spans: impl IntoIterator<Item = &'a RoundSpans>, n: u64) -> f64 {
    let (mut seconds, mut rounds) = (0.0, 0);
    for s in spans {
        seconds += s.rounds_s.iter().sum::<f64>();
        rounds += s.rounds_s.len();
    }
    seconds * 1e9 / (rounds.max(1) as f64 * n as f64)
}

/// Wall-clock nanoseconds per item of `pass`, run concurrently on
/// `threads` threads. Each thread builds its own state with `make`
/// (untimed), then all threads run the same number of passes over
/// `items` items each, sized so the timed part lasts about `budget`.
/// Running on the workload's resolved thread count puts the replay on the
/// same wall-clock footing as the round it is compared with.
pub fn wall_ns_per_item<S>(
    threads: usize,
    items: usize,
    budget: Duration,
    make: impl Fn(usize) -> S + Sync,
    pass: impl Fn(&mut S) -> u64 + Sync,
) -> f64 {
    let threads = threads.max(1);
    let passes = {
        let mut probe = make(0);
        std::hint::black_box(pass(&mut probe));
        let start = Instant::now();
        std::hint::black_box(pass(&mut probe));
        let one = start.elapsed().as_secs_f64().max(1e-9);
        ((budget.as_secs_f64() / one).ceil() as usize).clamp(1, 1_000_000)
    };
    let barrier = Barrier::new(threads + 1);
    let wall = std::thread::scope(|scope| {
        for t in 0..threads {
            let (barrier, make, pass) = (&barrier, &make, &pass);
            scope.spawn(move || {
                let mut state = make(t);
                barrier.wait();
                let mut acc = 0u64;
                for _ in 0..passes {
                    acc = acc.wrapping_add(pass(&mut state));
                }
                std::hint::black_box(acc);
                barrier.wait();
            });
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait();
        start.elapsed().as_secs_f64()
    });
    wall * 1e9 / (passes * items * threads) as f64
}
