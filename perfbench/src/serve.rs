//! `serve-small`: an in-process `SweepServer` on an ephemeral port with
//! `min(2, nproc)` workers and a closed loop of one client connection at a
//! time. The client sends its next request only after the previous answer
//! completes: `POST /sweep` of 8 episodes at n = 2000, two with binomial
//! fidelity for each one with `"fidelity": "agent"` (the batched pipeline),
//! each followed by a `GET /status` probe. Episodes are tiny, so the
//! daemon, spec parsing and record JSON dominate. Set-up is
//! `SweepServer::bind` with its shutdown, repeated through the run.

use crate::gauntlet::record_json_us;
use crate::measure::{
    host_parallelism, median, round_ns_per_agent, secs, ProcStat, RoundSpans, Stopwatch,
};
use crate::replay::{self, RoundModel};
use crate::report::{latency_ms, Loop, Op, Report};
use crate::Ctx;
use fet_stats::rng::SeedTree;
use fet_sweep::{EpisodeRecord, Json, SweepServer, SweepSpec, WarmCache};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const N: u64 = 2_000;
const EPISODES: u64 = 8;

/// The two submission kinds: 0 is binomial fidelity, 1 the literal agent
/// fidelity (which runs the batched pipeline).
fn spec_text(kind: u64, base: u64) -> String {
    let fidelity = if kind == 0 {
        ""
    } else {
        r#""fidelity": "agent", "mode": "batched", "#
    };
    format!(r#"{{"n": [{N}], {fidelity}"seeds": {{"base": {base}, "count": {EPISODES}}}}}"#)
}

/// One HTTP exchange, timed from connect to end of stream.
struct Response {
    status: u16,
    /// Body lines (NDJSON records then the footer, or one JSON object).
    lines: Vec<String>,
    /// Seconds from connect to the first body line.
    first_line_s: f64,
    total_s: f64,
}

fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let start = Instant::now();
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(io)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(io)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(io)? == 0 || line.trim_end().is_empty() {
            break;
        }
    }
    let mut lines = Vec::new();
    let mut first_line_s = 0.0;
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(io)? == 0 {
            break;
        }
        if lines.is_empty() {
            first_line_s = secs(start);
        }
        lines.push(line.trim_end().to_string());
    }
    Ok(Response {
        status,
        lines,
        first_line_s,
        total_s: secs(start),
    })
}

/// What the client saw besides the operations themselves.
#[derive(Default)]
struct ClientLog {
    /// POST latencies by submission kind (binomial, agent).
    post_s: [Vec<f64>; 2],
    /// (first record, first record → footer) seconds of each submission.
    streams: Vec<(f64, f64)>,
    status_s: Vec<f64>,
    queue_depth_max: u64,
    non_200: u64,
}

struct Serve<'a> {
    ctx: &'a Ctx,
    addr: SocketAddr,
    workers: usize,
}

impl Serve<'_> {
    fn base(&self, k: u64) -> u64 {
        SeedTree::new(self.ctx.seed)
            .child("serve")
            .child_indexed("post", k)
            .seed()
            % (1 << 40)
    }

    /// One `POST /sweep` of the given kind, checked, then a `/status`
    /// probe. Returns the episodes and the `Σ n · rounds` delivered.
    fn post(
        &self,
        report: &mut Report,
        log: &mut ClientLog,
        kind: u64,
        base: u64,
    ) -> Result<(u64, u64), String> {
        let expected = if self.ctx.break_check {
            EPISODES + 1
        } else {
            EPISODES
        };
        let post = exchange(self.addr, "POST", "/sweep", &spec_text(kind, base))?;
        let footer = post.lines.last().and_then(|l| Json::parse(l).ok());
        let done = footer.as_ref().and_then(|f| f.get("done")?.as_bool());
        let delivered = footer.as_ref().and_then(|f| f.get("episodes")?.as_u64());
        let records = &post.lines[..post.lines.len().saturating_sub(1)];
        let mut agent_rounds = 0;
        for line in records {
            let record = Json::parse(line).ok();
            let field = |outer: &str, inner: &str| {
                record
                    .as_ref()
                    .and_then(|r| r.get(outer)?.get(inner)?.as_u64())
            };
            agent_rounds +=
                field("cell", "n").unwrap_or(0) * field("report", "rounds_run").unwrap_or(0);
        }
        log.non_200 += u64::from(post.status != 200);
        report.check(
            post.status == 200
                && done == Some(true)
                && delivered == Some(expected)
                && records.len() as u64 == expected,
            || {
                format!(
                    "POST kind {kind}: status {}, done {done:?}, episodes {delivered:?} \
                     of {expected}, {} record lines",
                    post.status,
                    records.len()
                )
            },
        );
        log.post_s[kind as usize].push(post.total_s);
        log.streams
            .push((post.first_line_s, post.total_s - post.first_line_s));

        let status = exchange(self.addr, "GET", "/status", "")?;
        let depth = status
            .lines
            .first()
            .and_then(|l| Json::parse(l).ok())
            .and_then(|s| s.get("queue_depth")?.as_u64());
        log.non_200 += u64::from(status.status != 200);
        report.check(status.status == 200 && depth.is_some(), || {
            format!(
                "GET /status: status {}, queue_depth {depth:?}",
                status.status
            )
        });
        log.status_s.push(status.total_s);
        log.queue_depth_max = log.queue_depth_max.max(depth.unwrap_or(0));
        Ok((records.len() as u64, agent_rounds))
    }

    /// The closed loop until the phase time is spent: each request is sent
    /// when the previous answer completed. One operation is two binomial
    /// submissions and one agent submission, each followed by a `/status`
    /// probe, so every operation carries the same 2:1 mix. Between
    /// operations, a fresh server is bound whenever a set-up repetition is
    /// due.
    fn closed_loop(&self, report: &mut Report, first: u64) -> Result<(Loop, ClientLog), String> {
        let mut run = Loop::default();
        let mut log = ClientLog::default();
        let start = Instant::now();
        let mut k = first;
        while run.ops.is_empty() || secs(start) < self.ctx.phase_s() {
            let began = Stopwatch::start();
            let (mut episodes, mut agent_rounds) = (0, 0);
            for kind in [0, 0, 1] {
                let (e, ar) = self.post(report, &mut log, kind, self.base(k))?;
                k += 1;
                episodes += e;
                agent_rounds += ar;
            }
            let (latency_s, cpu_s) = (began.wall_s(), began.cpu_s());
            run.push(Op {
                latency_s,
                run_s: latency_s,
                cpu_s,
                episodes,
                agent_rounds,
            });
            if run.setup_due() {
                // A bind and its drop, which joins the server's threads:
                // only then has every thread the bind started spent all
                // its CPU time. The join itself waits for an accept poll,
                // asleep.
                let start = Stopwatch::start();
                drop(bind(self.workers)?);
                run.setup_cpu_s.push(start.cpu_s());
            }
        }
        run.wall_s = secs(start);
        Ok((run, log))
    }
}

/// `SweepServer::bind` on an ephemeral port.
fn bind(workers: usize) -> Result<SweepServer, String> {
    SweepServer::bind("127.0.0.1:0", workers).map_err(|e| e.to_string())
}

/// How the run's median cost follows the host probe (see RATIONALE.md).
const SENSITIVITY: f64 = 0.4;

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let workers = host_parallelism().min(2);
    let server = bind(workers)?;
    let serve = Serve {
        ctx,
        addr: server.local_addr(),
        workers,
    };
    let binomial = SweepSpec::parse(&spec_text(0, 0)).map_err(|e| e.to_string())?;
    let sim = binomial
        .build_simulation(0, &WarmCache::new())
        .map_err(|e| e.to_string())?;
    report.provenance("n", Json::Int(N as i64));
    report.provenance(
        "ell",
        Json::Int(i64::from(binomial.cell_ell(&binomial.episode(0).0))),
    );
    report.provenance("storage", Json::Str(sim.storage().to_string()));
    report.provenance(
        "mode",
        Json::Str(format!("{} (binomial), batched (agent)", binomial.mode)),
    );
    report.provenance("episodes_per_post", Json::Int(EPISODES as i64));
    report.provenance("workers", Json::Int(workers as i64));
    drop(sim);

    if !ctx.trace {
        let (run, log) = serve.closed_loop(report, 0)?;
        report.end_to_end(&run, SENSITIVITY);
        report.provenance(
            "post_ms_p50_by_kind",
            Json::object([
                ("binomial", Json::Float(median(&log.post_s[0]) * 1e3)),
                ("agent", Json::Float(median(&log.post_s[1]) * 1e3)),
            ]),
        );
        return Ok(());
    }

    let before = ProcStat::now();
    let (untraced, _) = serve.closed_loop(report, 0)?;
    let proc = ProcStat::now().since(before);
    let (traced, log) = serve.closed_loop(report, 1_000_000)?;
    drop(server);

    let (p50, p90, _) = latency_ms(&log.post_s.concat());
    report.set("serve.roundtrip_ms_p50", p50);
    report.set("serve.roundtrip_ms_p90", p90);
    let first_record: Vec<f64> = log.streams.iter().map(|s| s.0).collect();
    let to_footer: Vec<f64> = log.streams.iter().map(|s| s.1).collect();
    report.set("serve.status_ms_p50", median(&log.status_s) * 1e3);
    report.set("serve.first_record_ms", median(&first_record) * 1e3);
    report.set("serve.first_record_to_footer_ms", median(&to_footer) * 1e3);
    report.set("serve.queue_depth_max", log.queue_depth_max as f64);
    report.set("serve.non_200", log.non_200 as f64);
    let episodes = untraced.episodes() as f64;
    report.set("proc.minor_faults", proc.minor_faults as f64 / episodes);
    report.set("proc.sys_s", proc.sys_s / episodes);
    report.set(
        "trace.overhead_agent_rounds_per_s",
        traced.agent_rounds_per_s() - untraced.agent_rounds_per_s(),
    );
    sweep_layer(ctx, report, &traced, workers as f64)
}

/// The sweep and engine layers under the daemon, replayed in-process on
/// the daemon's own submission kinds.
fn sweep_layer(ctx: &Ctx, report: &mut Report, traced: &Loop, workers: f64) -> Result<(), String> {
    let cache = WarmCache::new();
    let mut parse_s = Vec::new();
    let mut episode_s = Vec::new();
    let mut build_s = Vec::new();
    let mut records = Vec::new();
    let mut spans = Vec::new();
    let mut resident = 0;
    for k in 0..if ctx.smoke { 2 } else { 6 } {
        for kind in 0..2 {
            let text = spec_text(kind, 10_000 * k);
            let start = Instant::now();
            let spec = SweepSpec::parse(&text).map_err(|e| e.to_string())?;
            parse_s.push(secs(start));
            for e in 0..spec.episode_count() {
                let start = Instant::now();
                records.push(spec.run_episode(e, &cache).map_err(|e| e.to_string())?);
                episode_s.push(secs(start));
                if kind == 0 {
                    let start = Instant::now();
                    let mut sim = spec
                        .build_simulation(e, &cache)
                        .map_err(|e| e.to_string())?;
                    build_s.push(secs(start));
                    let mut round_spans = RoundSpans::new();
                    resident = sim.run_observed(&mut round_spans).resident_bytes;
                    spans.push(round_spans);
                }
            }
        }
    }
    let round_ns = round_ns_per_agent(&spans, N);
    let roundtrip = median(&traced.ops.iter().map(|o| o.latency_s).collect::<Vec<_>>());
    let records_rounds: f64 = records
        .iter()
        .map(|r: &EpisodeRecord| r.report.rounds_run as f64)
        .sum();

    report.set("sweep.spec_parse_us", median(&parse_s) * 1e6);
    report.set("sweep.episode_ms_p50", median(&episode_s) * 1e3);
    report.set(
        "sweep.dispatch_overhead_ratio",
        roundtrip * workers / (EPISODES as f64 * median(&episode_s)),
    );
    report.set("sweep.record_json_us", record_json_us(&records));
    report.set("engine.build_s", median(&build_s));
    report.set("engine.round_ns_per_agent", round_ns);
    report.set("engine.typed_round_ns_per_agent", round_ns);
    report.set(
        "engine.rounds_per_episode",
        records_rounds / records.len() as f64,
    );
    report.set("core.state_bytes_per_agent", resident as f64 / N as f64);
    let spec = SweepSpec::parse(&spec_text(0, 0)).map_err(|e| e.to_string())?;
    let cell = spec.episode(0).0;
    let formula = replay::attribute(
        &RoundModel {
            ell: spec.cell_ell(&cell),
            x_t: spans[0].round_start_x(),
            noise: 0.0,
            bit_plane: false,
            threads: 1,
            graph: None,
            round_ns_per_agent: round_ns,
            budget: ctx.replay_budget(),
        },
        report,
    );
    report.provenance("attribution", Json::Str(formula));
    Ok(())
}
