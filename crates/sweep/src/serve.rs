//! `fet serve`: a long-running sweep daemon over hand-rolled HTTP/1.1.
//!
//! The daemon multiplexes any number of client-submitted sweeps onto one
//! shared worker pool and one shared [`WarmCache`]. Protocol:
//!
//! * `POST /sweep` with a spec document as the body — validates the spec
//!   (`400` with a JSON error on failure), then streams newline-delimited
//!   JSON: one [`EpisodeRecord`] line per completed episode in completion
//!   order, then a `{"done": true, …}` footer. The response uses
//!   `Connection: close`; the stream *is* the result.
//! * `GET /status` — one JSON object: queue depth, active submissions,
//!   completed-episode and throughput counters, worker count.
//!
//! **Fairness policy.** Workers claim one episode at a time, round-robin
//! across active submissions. A submission's episodes are claimed in
//! episode-index order, so two concurrent clients each see steady
//! progress — a big sweep cannot starve a small one behind it, and a
//! small sweep finishes in time proportional to its own size. Episode
//! results are pure functions of the submission's spec, so multiplexing
//! never changes what any client receives, only when.
//!
//! A disconnected client (failed write) cancels its submission's queued
//! episodes; in-flight ones finish and are discarded.

use crate::cache::WarmCache;
use crate::error::SweepError;
use crate::json::Json;
use crate::spec::{EpisodeRecord, SweepSpec};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest accepted `POST /sweep` body. Specs are small JSON documents;
/// the cap exists so a bogus `Content-Length` cannot make the daemon
/// allocate unbounded memory.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest accepted request or header line, line ending included. Each
/// line is read through a cap one byte past it, so a client that never
/// sends `\n` cannot grow a line without bound.
const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header lines accepted in one request.
const MAX_HEADERS: usize = 64;

/// One client-submitted sweep.
struct Submission {
    id: u64,
    spec: Arc<SweepSpec>,
    /// Episodes not yet claimed, in index order.
    pending: VecDeque<u64>,
    /// Episodes claimed but not yet delivered.
    outstanding: usize,
    /// Channel to the connection handler streaming this submission.
    tx: mpsc::Sender<EpisodeRecord>,
}

#[derive(Default)]
struct Queue {
    submissions: Vec<Submission>,
    /// Round-robin cursor over `submissions`.
    cursor: usize,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    work_ready: Condvar,
    cache: WarmCache,
    completed: AtomicU64,
    submitted: AtomicU64,
    workers: usize,
}

/// A bound, running daemon. Dropping it shuts the pool and listener down.
pub struct SweepServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl SweepServer {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, or port `0` for an
    /// ephemeral port) and starts `workers` episode workers plus an
    /// accept loop.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] when the address cannot be bound.
    pub fn bind(addr: &str, workers: usize) -> Result<SweepServer, SweepError> {
        let workers = workers.max(1);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            work_ready: Condvar::new(),
            cache: WarmCache::new(),
            completed: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            workers,
        });
        let mut threads = Vec::with_capacity(workers + 1);
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || accept_loop(&listener, &shared)));
        }
        Ok(SweepServer {
            addr: local,
            shared,
            threads,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks the calling thread until the process is killed — the
    /// `fet serve` foreground mode.
    pub fn run_forever(&self) -> ! {
        loop {
            std::thread::park();
        }
    }
}

impl Drop for SweepServer {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("queue poisoned");
            q.shutdown = true;
            // Dropping the submissions drops their senders, so any
            // connection handler blocked on its stream unblocks too.
            q.submissions.clear();
        }
        self.shared.work_ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.queue.lock().expect("queue poisoned").shutdown {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                // One thread per connection: connections are few (this is
                // a lab daemon, not an internet service) and each may
                // block on streaming for the lifetime of a sweep.
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &shared);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return,
        }
    }
}

/// One worker: claim one episode round-robin, run it, deliver it.
fn worker_loop(shared: &Shared) {
    loop {
        let claimed = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if q.shutdown {
                    return;
                }
                if let Some(claim) = claim_next(&mut q) {
                    break claim;
                }
                q = shared.work_ready.wait(q).expect("queue poisoned");
            }
        };
        let (id, spec, episode, tx) = claimed;
        let result = spec.run_episode(episode, &shared.cache);
        let mut q = shared.queue.lock().expect("queue poisoned");
        let Some(pos) = q.submissions.iter().position(|s| s.id == id) else {
            continue; // cancelled while we ran
        };
        q.submissions[pos].outstanding -= 1;
        let delivered = match result {
            Ok(record) => tx.send(record).is_ok(),
            // A validated spec cannot fail per-episode; if it somehow
            // does, dropping the channel signals the client via a short
            // stream (footer count < expected).
            Err(_) => false,
        };
        if delivered {
            shared.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            q.submissions[pos].pending.clear();
        }
        if q.submissions[pos].pending.is_empty() && q.submissions[pos].outstanding == 0 {
            q.submissions.remove(pos); // drops the primary sender → EOF for the handler
        }
    }
}

type Claim = (u64, Arc<SweepSpec>, u64, mpsc::Sender<EpisodeRecord>);

/// Round-robin over submissions with queued episodes; one episode per
/// claim is the fairness granularity.
fn claim_next(q: &mut Queue) -> Option<Claim> {
    let len = q.submissions.len();
    for step in 0..len {
        let i = (q.cursor + step) % len;
        if let Some(episode) = q.submissions[i].pending.pop_front() {
            q.submissions[i].outstanding += 1;
            q.cursor = (i + 1) % len;
            let s = &q.submissions[i];
            return Some((s.id, Arc::clone(&s.spec), episode, s.tx.clone()));
        }
    }
    None
}

/// Reads one line of at most [`MAX_LINE_BYTES`] bytes, newline included;
/// `None` when the line runs past the limit.
fn read_bounded_line(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_line(&mut line)?;
    Ok((line.len() <= MAX_LINE_BYTES).then_some(line))
}

/// Answers 431 with a JSON error naming the header limit that was hit.
fn reject_header(stream: &mut TcpStream, what: String) -> std::io::Result<()> {
    let err = Json::object([("error", Json::Str(what))]).to_string();
    respond(stream, 431, "application/json", &err)
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let Some(request_line) = read_bounded_line(&mut reader)? else {
        return reject_header(
            &mut stream,
            format!("request line exceeds the {MAX_LINE_BYTES}-byte limit"),
        );
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let mut content_length = 0usize;
    let mut bad_length = None;
    let mut headers = 0usize;
    loop {
        let Some(line) = read_bounded_line(&mut reader)? else {
            return reject_header(
                &mut stream,
                format!("header line exceeds the {MAX_LINE_BYTES}-byte limit"),
            );
        };
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return reject_header(
                &mut stream,
                format!("request has more than the {MAX_HEADERS}-header limit"),
            );
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            match v.parse() {
                Ok(length) => content_length = length,
                Err(_) => bad_length = Some(v.to_string()),
            }
        }
    }
    if let Some(value) = bad_length {
        let err = Json::object([(
            "error",
            Json::Str(format!(
                "Content-Length must be a non-negative byte count, got `{value}`"
            )),
        )])
        .to_string();
        return respond(&mut stream, 400, "application/json", &err);
    }
    match (method.as_str(), path.as_str()) {
        ("GET", "/status") => {
            let body = status_json(shared).to_string();
            respond(&mut stream, 200, "application/json", &body)
        }
        ("POST", "/sweep") => {
            if content_length > MAX_BODY_BYTES {
                let err = Json::object([(
                    "error",
                    Json::Str(format!(
                        "request body of {content_length} bytes exceeds the \
                         {MAX_BODY_BYTES}-byte limit"
                    )),
                )])
                .to_string();
                return respond(&mut stream, 413, "application/json", &err);
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body)?;
            let text = String::from_utf8_lossy(&body);
            match SweepSpec::parse(&text) {
                Err(e) => {
                    let err = Json::object([("error", Json::Str(e.to_string()))]).to_string();
                    respond(&mut stream, 400, "application/json", &err)
                }
                Ok(spec) => stream_sweep(&mut stream, shared, spec),
            }
        }
        ("GET", _) | ("POST", _) => respond(
            &mut stream,
            404,
            "application/json",
            &Json::object([("error", Json::Str("unknown path".into()))]).to_string(),
        ),
        _ => respond(
            &mut stream,
            405,
            "application/json",
            &Json::object([("error", Json::Str("method not allowed".into()))]).to_string(),
        ),
    }
}

/// Enqueues a submission and streams its results as NDJSON.
fn stream_sweep(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    spec: SweepSpec,
) -> std::io::Result<()> {
    let expected = spec.episode_count();
    let (tx, rx) = mpsc::channel();
    let id = shared.submitted.fetch_add(1, Ordering::Relaxed);
    {
        let mut q = shared.queue.lock().expect("queue poisoned");
        q.submissions.push(Submission {
            id,
            spec: Arc::new(spec),
            pending: (0..expected).collect(),
            outstanding: 0,
            tx,
        });
    }
    shared.work_ready.notify_all();

    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut delivered = 0u64;
    let mut converged = 0u64;
    // The loop ends when the worker pool removes the submission (all
    // episodes delivered) and the last sender drops.
    while let Ok(record) = rx.recv() {
        delivered += 1;
        if record.report.converged_at.is_some() {
            converged += 1;
        }
        let line = record.to_json().to_string();
        if writeln!(stream, "{line}")
            .and_then(|()| stream.flush())
            .is_err()
        {
            // Client went away: stop reading; pending episodes are
            // cancelled by the next failed worker send.
            drop(rx);
            return Ok(());
        }
    }
    let footer = Json::object([
        ("done", Json::Bool(delivered == expected)),
        ("episodes", Json::Int(delivered as i64)),
        ("expected", Json::Int(expected as i64)),
        ("converged", Json::Int(converged as i64)),
    ])
    .to_string();
    writeln!(stream, "{footer}")?;
    stream.flush()
}

fn status_json(shared: &Shared) -> Json {
    let q = shared.queue.lock().expect("queue poisoned");
    let queued: usize = q.submissions.iter().map(|s| s.pending.len()).sum();
    let in_flight: usize = q.submissions.iter().map(|s| s.outstanding).sum();
    Json::object([
        ("queue_depth", Json::Int(queued as i64)),
        ("in_flight", Json::Int(in_flight as i64)),
        ("active_submissions", Json::Int(q.submissions.len() as i64)),
        (
            "submitted",
            Json::Int(shared.submitted.load(Ordering::Relaxed) as i64),
        ),
        (
            "completed_episodes",
            Json::Int(shared.completed.load(Ordering::Relaxed) as i64),
        ),
        ("workers", Json::Int(shared.workers as i64)),
        (
            "protocols_cached",
            Json::Int(shared.cache.protocols_cached() as i64),
        ),
        (
            "graphs_cached",
            Json::Int(shared.cache.graphs_cached() as i64),
        ),
    ])
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Method Not Allowed",
    };
    write!(
        stream,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_answers_before_any_submission() {
        let server = SweepServer::bind("127.0.0.1:0", 1).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        write!(conn, "GET /status HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("\"queue_depth\":0"), "{response}");
    }

    #[test]
    fn oversized_body_is_rejected_before_allocation() {
        let server = SweepServer::bind("127.0.0.1:0", 1).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        write!(
            conn,
            "POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 100000000000\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
    }

    #[test]
    fn malformed_content_length_is_rejected_by_name() {
        for value in ["abc", "-5", "12x"] {
            let server = SweepServer::bind("127.0.0.1:0", 1).unwrap();
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            write!(
                conn,
                "POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: {value}\r\n\r\n"
            )
            .unwrap();
            let mut response = String::new();
            conn.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 400"), "{value}: {response}");
            assert!(
                response.contains("Content-Length must be a non-negative byte count"),
                "{value}: {response}"
            );
        }
    }

    /// Sends `request` — ending exactly where the server stops reading, so
    /// no unread byte makes its close a reset — and returns the answer.
    fn answer_to(request: &[u8]) -> String {
        let server = SweepServer::bind("127.0.0.1:0", 1).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(request).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn overlong_request_line_is_431() {
        let mut request = b"GET /".to_vec();
        request.resize(MAX_LINE_BYTES + 1, b'a');
        let response = answer_to(&request);
        assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
        assert!(
            response.contains("request line exceeds the 8192-byte limit"),
            "{response}"
        );
    }

    #[test]
    fn overlong_header_line_is_431() {
        let mut request = b"GET /status HTTP/1.1\r\n".to_vec();
        let header_start = request.len();
        request.extend_from_slice(b"X-Long: ");
        request.resize(header_start + MAX_LINE_BYTES + 1, b'a');
        let response = answer_to(&request);
        assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
        assert!(
            response.contains("header line exceeds the 8192-byte limit"),
            "{response}"
        );
    }

    #[test]
    fn too_many_headers_are_431() {
        let mut request = b"GET /status HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            request.extend_from_slice(format!("X-H{i}: 1\r\n").as_bytes());
        }
        let response = answer_to(&request);
        assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
        assert!(
            response.contains("more than the 64-header limit"),
            "{response}"
        );
    }

    #[test]
    fn unknown_path_is_404() {
        let server = SweepServer::bind("127.0.0.1:0", 1).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        write!(conn, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    }
}
