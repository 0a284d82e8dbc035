//! Dependency-free TCP serving of a [`DslogService`].
//!
//! [`NetServer::spawn`] binds a [`std::net::TcpListener`] and serves the
//! full `serve` command set (`define` / `ingest` / `query` / `commit` /
//! `stats` / `history` / `quit`, plus `shutdown`) to many concurrent clients over a
//! line protocol: one request per line, one JSON object per response line
//! (the crates registry is unreachable in the target environment, so both
//! the protocol framing and the JSON emitter are vendored here — they are
//! a few dozen lines each).
//!
//! ## Protocol
//!
//! Requests are whitespace-separated words; responses are single-line
//! JSON, `{"ok":true,...}` on success and `{"ok":false,"error":"..."}` on
//! failure (a failed command leaves the session open — only transport
//! problems close it):
//!
//! | request                         | success payload |
//! |---------------------------------|-----------------|
//! | `define NAME:3x2`               | `{"ok":true,"defined":"NAME","shape":[3,2]}` |
//! | `ingest IN OUT 0,0;1,2`         | `{"ok":true,"edges":1,"rows":2,"pending_edges":n}` (+ `"auto_commit"`) |
//! | `query B,A 1;2`                 | `{"ok":true,"hops":1,"cells":n,"boxes":[[[lo,hi],...],...]}` |
//! | `query B,A 1;2 stats`           | same, plus a trailing `"stats"` object (see below) |
//! | `query_batch B,A 1;2\|3`        | `{"ok":true,"hops":1,"results":[{"cells":n,"boxes":[...]},...]}` |
//! | `query_batch B,A 1\|2 stats`    | same, plus a trailing `"stats"` object |
//! | `commit`                        | `{"ok":true,"generation":g,"incremental":b,"files_written":w,"files_reused":r,"bytes_written":n}` |
//! | `stats`                         | `{"ok":true,"arrays":..,"edges":..,"failed_commits":..,"epoch":..,...}` |
//! | `history`                       | `{"ok":true,"records":n,"log":[{"op":1,"actor":"...","kind":"...",...},...]}` |
//! | `quit`                          | `{"ok":true,"closing":"session"}`, then closes the connection |
//! | `shutdown`                      | `{"ok":true,"closing":"server"}`, then stops the whole server |
//!
//! `ingest` rows are inline (`;`-separated rows of `,`-separated indices,
//! output attributes first — the same row layout as the CSV format):
//! network clients must not depend on paths in the server's filesystem.
//! `query_batch` takes `|`-separated queries, each a `query` cell spec;
//! the whole batch runs as one deduplicated sweep against one snapshot
//! (see [`DslogService::query_batch`]), and `results` come back in
//! request order.
//!
//! The optional trailing `stats` word asks for per-query execution
//! statistics: `"stats":{"rows_probed":n,"rows_matched":n,"plan":"...",
//! "hops":[{"probed":n,"matched":n,"boxes":n,"indexed":b,"threads":t},..]}`.
//! `plan` is the planner decision label (`path_order` / `composite`), or
//! `off` when the planner is disabled. Responses without the `stats` word
//! are byte-identical to the previous protocol version.
//!
//! ## Framing
//!
//! Every response is exactly one line: the JSON object, then a single
//! `'\n'`, with no other newline inside it (strings are escaped). A
//! session renders each response into one buffer it reuses across
//! requests and hands the whole line to the socket in **one write**.
//! With `TCP_NODELAY` set, a response normally leaves as one segment, so
//! a client's line read wakes once per response rather than once for the
//! JSON and again for a lone newline.
//!
//! ## Admission control and backpressure
//!
//! The server runs a **bounded worker pool** ([`ServeOptions::workers`]
//! threads); each worker owns one session at a time. Accepted connections
//! beyond the pool wait in a **bounded queue**
//! ([`ServeOptions::queue_depth`]); past that, new connections are turned
//! away immediately with `{"ok":false,"error":"server busy..."}` instead
//! of piling up. Per-session limits keep one misbehaving client from
//! starving the rest:
//!
//! - request lines are capped at [`ServeOptions::max_line_bytes`], newline
//!   included — an oversized frame gets one error response and the
//!   connection is closed (the byte-budget discipline of the persistence
//!   layer's hostile-input handling, applied to the wire);
//! - responses are written under [`ServeOptions::write_timeout`] — a
//!   reader that stops draining its socket is disconnected, not buffered
//!   for;
//! - reads poll at [`ServeOptions::poll_interval`] so idle sessions
//!   notice server shutdown promptly.
//!
//! Queries inherit the service's epoch-snapshot guarantee: N sessions
//! querying while others ingest and commit never block each other on the
//! storage layer (see [`crate::service`] module docs).
//!
//! ```no_run
//! use dslog::net::{NetServer, ServeOptions};
//! use dslog::service::{AutoCommitPolicy, DslogService};
//! use std::sync::Arc;
//!
//! let service = Arc::new(DslogService::new(
//!     dslog::api::Dslog::new(),
//!     AutoCommitPolicy::manual(),
//! ));
//! let server = NetServer::spawn(
//!     Arc::clone(&service),
//!     "127.0.0.1:0", // OS-assigned port; see `server.local_addr()`
//!     ServeOptions::default(),
//! )
//! .unwrap();
//! println!("listening on {}", server.local_addr());
//! server.join(); // blocks until a client sends `shutdown`
//! ```

use crate::api::QueryResult;
use crate::error::Result;
use crate::query::QueryStats;
use crate::service::{BatchReport, DslogService, IngestJob, ServiceStats};
use crate::storage::persist::CommitReport;
use crate::table::LineageTable;
use dslog_sync::{ranks, Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sizing and backpressure knobs for [`NetServer::spawn`]. The defaults
/// suit a small interactive deployment; benchmarks and tests scale
/// `workers` to the offered concurrency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker threads == sessions served concurrently.
    pub workers: usize,
    /// Accepted connections allowed to wait for a free worker before new
    /// arrivals are rejected as busy. Total admitted connections are
    /// therefore bounded by `workers + queue_depth`.
    pub queue_depth: usize,
    /// Hard cap on one request line (newline included). Oversized frames
    /// get one error response and the connection is closed.
    pub max_line_bytes: usize,
    /// How long a response write may block on a slow reader before the
    /// session is dropped.
    pub write_timeout: Duration,
    /// Socket read timeout; idle sessions wake this often to check for
    /// server shutdown. Liveness/latency knob only — a session is never
    /// closed just for being idle.
    pub poll_interval: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 8,
            queue_depth: 16,
            max_line_bytes: 1 << 20,
            write_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(200),
        }
    }
}

/// Counters for one server's lifetime, all monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections handed to a worker (served to completion or still live).
    pub accepted: u64,
    /// Connections turned away because `workers + queue_depth` were in use.
    pub rejected_busy: u64,
    /// Request lines that exceeded `max_line_bytes`.
    pub oversized_frames: u64,
    /// Requests answered (ok or error), across all sessions.
    pub requests: u64,
}

struct NetShared {
    service: Arc<DslogService>,
    opts: ServeOptions,
    /// Accepted-but-unclaimed sockets; bounded by `opts.queue_depth`
    /// (admission control happens in the acceptor, not here). Rank
    /// `net.queue` (5) — never co-held with any service lock: the guard
    /// is dropped before `serve_session` runs.
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    /// Sessions currently inside a worker. Written under `queue`'s lock
    /// (claim) so the acceptor's admission check sees a consistent
    /// queued+busy total; the end-of-session decrement is lock-free.
    busy: AtomicU64,
    stop: AtomicBool,
    accepted: AtomicU64,
    rejected_busy: AtomicU64,
    oversized_frames: AtomicU64,
    requests: AtomicU64,
}

impl NetShared {
    fn new(service: Arc<DslogService>, opts: ServeOptions) -> Self {
        Self {
            service,
            opts,
            queue: Mutex::new(&ranks::NET_QUEUE, VecDeque::new()),
            queue_cv: Condvar::new(),
            busy: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            oversized_frames: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            oversized_frames: self.oversized_frames.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
        }
    }
}

/// A running TCP front-end over a shared [`DslogService`]. Dropping the
/// handle (or calling [`join`](NetServer::join) after a client's
/// `shutdown`) stops the acceptor and all workers; the service itself is
/// NOT shut down — the owner decides when to run the final commit via
/// [`DslogService::shutdown`].
pub struct NetServer {
    shared: Arc<NetShared>,
    local_addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:7171"`, or port `0` for an
    /// OS-assigned port) and start the acceptor + worker pool.
    pub fn spawn(
        service: Arc<DslogService>,
        addr: impl ToSocketAddrs,
        opts: ServeOptions,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| crate::error::DslogError::io("bind listener", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| crate::error::DslogError::io("resolve bound address", e))?;
        let shared = Arc::new(NetShared::new(service, opts));
        // Sanctioned worker pool (see lint-allow.txt): every handle is
        // joined by NetServer::join/Drop. A failed spawn (thread limit,
        // OOM) aborts startup cleanly — already-started workers see the
        // stop flag and exit.
        let mut workers = Vec::with_capacity(opts.workers.max(1));
        for i in 0..opts.workers.max(1) {
            let shared_for_worker = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("dslog-net-worker-{i}"))
                .spawn(move || worker_loop(&shared_for_worker));
            match handle {
                Ok(h) => workers.push(h),
                Err(e) => {
                    stop_workers(&shared, &mut workers);
                    return Err(crate::error::DslogError::io("spawn worker thread", e));
                }
            }
        }
        let acceptor = {
            let shared_for_acceptor = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name("dslog-net-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared_for_acceptor));
            match handle {
                Ok(h) => h,
                Err(e) => {
                    stop_workers(&shared, &mut workers);
                    return Err(crate::error::DslogError::io("spawn acceptor thread", e));
                }
            }
        };
        Ok(Self {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port `0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> NetStats {
        self.shared.stats()
    }

    /// Whether a `shutdown` request has been received (or
    /// [`stop`](NetServer::stop) called).
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Ask the server to stop, without waiting for the threads.
    pub fn stop(&self) {
        request_stop(&self.shared, self.local_addr);
    }

    /// Block until the server stops — a client sends `shutdown`, or
    /// another thread calls [`stop`](NetServer::stop) — then join every
    /// thread and return the lifetime stats. Sessions already admitted
    /// are served to their next poll tick; queued-but-unclaimed sockets
    /// are closed unserved.
    pub fn join(mut self) -> NetStats {
        self.join_threads();
        self.shared.stats()
    }

    fn join_threads(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
            for worker in self.workers.drain(..) {
                let _ = worker.join();
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
        self.join_threads();
    }
}

/// Abort a partially-started pool: flip the stop flag, wake everyone,
/// and join the workers that did start.
fn stop_workers(shared: &NetShared, workers: &mut Vec<std::thread::JoinHandle<()>>) {
    shared.stop.store(true, Ordering::Release);
    shared.queue_cv.notify_all();
    for worker in workers.drain(..) {
        let _ = worker.join();
    }
}

/// Flip the stop flag and unblock everyone: workers via the condvar,
/// the acceptor via a throwaway self-connection (blocking `accept` has
/// no portable cancellation — a dead-end connect is the std-only way to
/// wake it).
fn request_stop(shared: &NetShared, addr: SocketAddr) {
    if shared.stop.swap(true, Ordering::AcqRel) {
        return;
    }
    shared.queue_cv.notify_all();
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

fn accept_loop(listener: &TcpListener, shared: &NetShared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if shared.stop.load(Ordering::Acquire) => break,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::Acquire) {
            break; // the wake-up self-connection lands here
        }
        // Admission control: waiting + in-flight sessions together are
        // bounded by `workers + queue_depth`; everything past that is
        // turned away now rather than left to pile up.
        let cap = shared.opts.workers.max(1) + shared.opts.queue_depth;
        let mut queue = shared.queue.lock();
        if queue.len() as u64 + shared.busy.load(Ordering::Acquire) >= cap as u64 {
            drop(queue);
            shared.rejected_busy.fetch_add(1, Ordering::Relaxed);
            reject_busy(stream, shared.opts);
            continue;
        }
        queue.push_back(stream);
        drop(queue);
        shared.queue_cv.notify_one();
    }
    // Unserved queue entries are closed by the drop below.
    shared.queue.lock().clear();
    shared.queue_cv.notify_all();
}

/// Best-effort busy response on a connection that was never admitted.
fn reject_busy(mut stream: TcpStream, opts: ServeOptions) {
    let _ = stream.set_write_timeout(Some(opts.write_timeout.min(Duration::from_secs(1))));
    let _ = stream.write_all(
        b"{\"ok\":false,\"error\":\"server busy: connection limit reached, retry later\"}\n",
    );
}

fn worker_loop(shared: &NetShared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(stream) = queue.pop_front() {
                    shared.busy.fetch_add(1, Ordering::Release);
                    break stream;
                }
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.queue_cv.wait(queue);
            }
        };
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        let _ = serve_session(stream, shared);
        shared.busy.fetch_sub(1, Ordering::Release);
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
    }
}

/// What one request line asked the session loop to do next.
enum SessionFlow {
    Continue,
    CloseSession,
    StopServer,
}

/// Drive one client connection to completion: read request lines (capped,
/// polled), execute, respond one JSON line each. Returns on EOF, `quit`,
/// `shutdown`, transport errors, or server stop.
fn serve_session(stream: TcpStream, shared: &NetShared) -> std::io::Result<()> {
    // Operation-log attribution for this session's mutating commands.
    let actor = stream
        .peer_addr()
        .map_or_else(|_| "net".to_string(), |a| format!("net:{a}"));
    stream.set_read_timeout(Some(shared.opts.poll_interval))?;
    stream.set_write_timeout(Some(shared.opts.write_timeout))?;
    stream.set_nodelay(true).ok(); // request/response; don't batch
    let mut out = Responder::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    if let SessionFlow::StopServer = run_session(&mut reader, &mut out, shared, &actor)? {
        request_stop(shared, reader.get_ref().local_addr()?);
    }
    Ok(())
}

/// The session loop proper, over any line source and response sink.
/// Returns how the session ended: [`SessionFlow::StopServer`] after a
/// `shutdown` request, [`SessionFlow::CloseSession`] otherwise.
fn run_session<R: BufRead, W: Write>(
    reader: &mut R,
    out: &mut Responder<W>,
    shared: &NetShared,
    actor: &str,
) -> std::io::Result<SessionFlow> {
    let mut line = Vec::new();
    loop {
        line.clear();
        match read_line_bounded(reader, shared.opts.max_line_bytes, &mut line)? {
            LineRead::Eof => return Ok(SessionFlow::CloseSession),
            LineRead::TimedOut => {
                if shared.stop.load(Ordering::Acquire) {
                    return Ok(SessionFlow::CloseSession);
                }
                continue;
            }
            LineRead::TooLong => {
                shared.oversized_frames.fetch_add(1, Ordering::Relaxed);
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let max = shared.opts.max_line_bytes;
                let _ = out.respond(|buf| {
                    json_err(
                        buf,
                        &format!("request line exceeds {max} bytes; closing connection"),
                    )
                });
                // Cannot resync mid-frame: drop the session.
                return Ok(SessionFlow::CloseSession);
            }
            LineRead::Line => {}
        }
        let text = String::from_utf8_lossy(&line);
        let text = text.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        match out.respond(|buf| execute(&shared.service, text, actor, buf))? {
            SessionFlow::Continue => {}
            flow => return Ok(flow),
        }
    }
}

/// A session's response sink. Every response is rendered into one buffer
/// that lives as long as the session, gets its `'\n'`, and goes to the
/// writer in a single `write_all`: one send per response, so the client's
/// line read wakes once, with the whole line.
struct Responder<W> {
    out: W,
    buf: String,
}

/// Buffer capacity a session keeps between responses; one huge response
/// (a long `history`) does not pin its size for the session's lifetime.
const RETAINED_RESPONSE_BYTES: usize = 64 << 10;

impl<W: Write> Responder<W> {
    fn new(out: W) -> Self {
        Self {
            out,
            buf: String::new(),
        }
    }

    /// Render one response with `render` and write it as one line.
    fn respond<T>(&mut self, render: impl FnOnce(&mut String) -> T) -> std::io::Result<T> {
        self.buf.clear();
        let value = render(&mut self.buf);
        self.buf.push('\n');
        let written = self.out.write_all(self.buf.as_bytes());
        self.buf.clear();
        self.buf.shrink_to(RETAINED_RESPONSE_BYTES);
        written.map(|()| value)
    }
}

enum LineRead {
    Line,
    Eof,
    TooLong,
    TimedOut,
}

/// Read one `\n`-terminated line into `buf` (newline stripped), never
/// retaining more than `max - 1` bytes: `max` caps the frame *including*
/// its newline. A frame that hits the cap reports [`LineRead::TooLong`]
/// without waiting for its newline (the overflow is left unread — the
/// caller closes the connection). A read timeout with NO partial data is
/// a poll tick; mid-line timeouts keep waiting so slow-but-live writers
/// aren't corrupted by the poll interval.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    max: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    let max_content = max.saturating_sub(1);
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if buf.is_empty() {
                    return Ok(LineRead::TimedOut);
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line // unterminated final line
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if buf.len() + take > max_content {
            return Ok(LineRead::TooLong);
        }
        buf.extend_from_slice(&chunk[..take]);
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            return Ok(LineRead::Line);
        }
    }
}

/// Execute one request line against the service, rendering the response
/// (success or error JSON, no newline) into `out`, and return what the
/// session does next. Mutating commands install `actor` as the
/// operation-log attribution before they run (last writer wins across
/// concurrent sessions — the label is advisory, not a serialization
/// point).
fn execute(service: &DslogService, line: &str, actor: &str, out: &mut String) -> SessionFlow {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().unwrap_or_default();
    let args: Vec<&str> = parts.collect();
    if matches!(cmd, "define" | "ingest" | "commit") {
        service.set_actor(actor);
    }
    let start = out.len();
    let outcome = match (cmd, args.as_slice()) {
        ("define", [spec]) => cmd_define(service, spec, out),
        ("ingest", [in_name, out_name, rows]) => {
            cmd_ingest(service, in_name, out_name, rows, out)
        }
        ("query", [path, cells]) => cmd_query(service, path, cells, false, out),
        ("query", [path, cells, "stats"]) => cmd_query(service, path, cells, true, out),
        ("query_batch", [path, queries]) => cmd_query_batch(service, path, queries, false, out),
        ("query_batch", [path, queries, "stats"]) => {
            cmd_query_batch(service, path, queries, true, out)
        }
        ("commit", []) => cmd_commit(service, out),
        ("stats", []) => {
            render_stats(out, &service.stats());
            Ok(())
        }
        ("history", []) => cmd_history(service, out),
        ("quit" | "exit", []) => {
            out.push_str("{\"ok\":true,\"closing\":\"session\"}");
            return SessionFlow::CloseSession;
        }
        ("shutdown", []) => {
            out.push_str("{\"ok\":true,\"closing\":\"server\"}");
            return SessionFlow::StopServer;
        }
        _ => Err(format!(
            "bad request `{line}`; expected define/ingest/query/query_batch/commit/stats/history/quit/shutdown"
        )),
    };
    if let Err(e) = outcome {
        out.truncate(start); // drop anything rendered before the failure
        json_err(out, &e);
    }
    SessionFlow::Continue
}

// The `cmd_*` and `render_*` helpers append to `out`; a failing command's
// partial output is dropped by `execute`. `write!` into a `String` cannot
// fail, so its `fmt::Result` is ignored throughout.

fn cmd_define(
    service: &DslogService,
    spec: &str,
    out: &mut String,
) -> std::result::Result<(), String> {
    let (name, shape) = parse_array_spec(spec)?;
    service
        .define_array(&name, &shape)
        .map_err(|e| e.to_string())?;
    let _ = write!(
        out,
        "{{\"ok\":true,\"defined\":{},\"shape\":",
        JsonStr(&name)
    );
    push_array(out, &shape, |out, d| {
        let _ = write!(out, "{d}");
    });
    out.push('}');
    Ok(())
}

fn cmd_ingest(
    service: &DslogService,
    in_name: &str,
    out_name: &str,
    rows: &str,
    out: &mut String,
) -> std::result::Result<(), String> {
    let (in_shape, out_shape) = service
        .with_db(|db| {
            Ok::<_, crate::error::DslogError>((
                db.storage().array(in_name)?.shape.clone(),
                db.storage().array(out_name)?.shape.clone(),
            ))
        })
        .map_err(|e| e.to_string())?;
    let table = parse_inline_rows(rows, out_shape.len(), in_shape.len())?;
    let report = service
        .ingest_batch(vec![IngestJob::new(in_name, out_name, table)])
        .map_err(|e| e.to_string())?;
    render_batch(out, &report);
    Ok(())
}

fn cmd_query(
    service: &DslogService,
    path_spec: &str,
    cells_spec: &str,
    with_stats: bool,
    out: &mut String,
) -> std::result::Result<(), String> {
    let path: Vec<&str> = path_spec.split(',').map(str::trim).collect();
    let cells = parse_cells(cells_spec)?;
    if cells.is_empty() {
        return Err("no query cells given".to_string());
    }
    let result = service.query(&path, &cells).map_err(|e| e.to_string())?;
    let _ = write!(
        out,
        "{{\"ok\":true,\"hops\":{},\"cells\":{},\"boxes\":",
        result.hops,
        result.cells.volume()
    );
    render_boxes(out, &result);
    if with_stats {
        out.push_str(",\"stats\":");
        render_query_stats(out, &result.stats);
    }
    out.push('}');
    Ok(())
}

fn cmd_query_batch(
    service: &DslogService,
    path_spec: &str,
    queries_spec: &str,
    with_stats: bool,
    out: &mut String,
) -> std::result::Result<(), String> {
    let path: Vec<&str> = path_spec.split(',').map(str::trim).collect();
    let mut queries = Vec::new();
    for spec in queries_spec.split('|') {
        let cells = parse_cells(spec)?;
        if cells.is_empty() {
            return Err("empty query in batch".to_string());
        }
        queries.push(cells);
    }
    if queries.is_empty() {
        return Err("no queries given".to_string());
    }
    let results = service
        .query_batch(&path, &queries)
        .map_err(|e| e.to_string())?;
    // All batch members share one sweep, so hops/stats are batch-wide.
    let hops = results.first().map_or(0, |r| r.hops);
    let _ = write!(out, "{{\"ok\":true,\"hops\":{hops},\"results\":");
    push_array(out, &results, |out, result| {
        let _ = write!(out, "{{\"cells\":{},\"boxes\":", result.cells.volume());
        render_boxes(out, result);
        out.push('}');
    });
    if with_stats {
        out.push_str(",\"stats\":");
        render_query_stats(
            out,
            results.first().map_or(&QueryStats::default(), |r| &r.stats),
        );
    }
    out.push('}');
    Ok(())
}

fn cmd_commit(service: &DslogService, out: &mut String) -> std::result::Result<(), String> {
    let report = service.commit().map_err(|e| e.to_string())?;
    render_commit(out, &report);
    Ok(())
}

/// The bound directory's operation log, oldest record first.
fn cmd_history(service: &DslogService, out: &mut String) -> std::result::Result<(), String> {
    let records = service.history().map_err(|e| e.to_string())?;
    let _ = write!(out, "{{\"ok\":true,\"records\":{},\"log\":", records.len());
    push_array(out, &records, |out, r| {
        let _ = write!(
            out,
            "{{\"op\":{},\"timestamp_ms\":{},\"actor\":{},\"kind\":{},\"detail\":{},\
             \"gen_before\":{},\"gen_after\":{}}}",
            r.op_id,
            r.timestamp_ms,
            JsonStr(&r.actor),
            JsonStr(r.kind.name()),
            JsonStr(&r.kind.describe()),
            r.gen_before,
            r.gen_after
        );
    });
    out.push('}');
    Ok(())
}

/// Append `[item,item,...]`, each item rendered by `item`.
fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// Append `[[[lo,hi],...],...]` for the result's box set.
fn render_boxes(out: &mut String, result: &QueryResult) {
    push_array(out, result.cells.boxes(), |out, b| {
        push_array(out, b, |out, ivl| {
            let _ = write!(out, "[{},{}]", ivl.lo, ivl.hi);
        });
    });
}

/// The `"stats"` object for `query ... stats` / `query_batch ... stats`.
fn render_query_stats(out: &mut String, stats: &QueryStats) {
    let plan = stats.plan.as_ref().map_or("off", |p| p.decision.label());
    let _ = write!(
        out,
        "{{\"rows_probed\":{},\"rows_matched\":{},\"plan\":{},\"hops\":",
        stats.hops.iter().map(|h| h.rows_probed).sum::<usize>(),
        stats.hops.iter().map(|h| h.rows_matched).sum::<usize>(),
        JsonStr(plan),
    );
    push_array(out, &stats.hops, |out, h| {
        let _ = write!(
            out,
            "{{\"probed\":{},\"matched\":{},\"boxes\":{},\"indexed\":{},\"threads\":{}}}",
            h.rows_probed, h.rows_matched, h.boxes_emitted, h.used_index, h.threads
        );
    });
    out.push('}');
}

fn render_commit(out: &mut String, report: &CommitReport) {
    let _ = write!(
        out,
        "{{\"ok\":true,\"generation\":{},\"incremental\":{},\"files_written\":{},\
         \"files_reused\":{},\"bytes_written\":{}}}",
        report.generation,
        report.incremental,
        report.files_written,
        report.files_reused,
        report.bytes_written
    );
}

fn render_batch(out: &mut String, report: &BatchReport) {
    let _ = write!(
        out,
        "{{\"ok\":true,\"edges\":{},\"rows\":{},\"pending_edges\":{}",
        report.edges, report.rows, report.pending_edges
    );
    match &report.auto_commit {
        Some(Ok(commit)) => {
            out.push_str(",\"auto_commit\":");
            render_commit(out, commit);
        }
        Some(Err(e)) => {
            out.push_str(",\"auto_commit\":");
            json_err(out, &e.to_string());
        }
        None => {}
    }
    out.push('}');
}

fn render_stats(out: &mut String, s: &ServiceStats) {
    let _ = write!(
        out,
        "{{\"ok\":true,\"arrays\":{},\"edges\":{},\"pending_edges\":{},\"edges_ingested\":{},\
         \"queries\":{},\"commits\":{},\"auto_commits\":{},\"failed_commits\":{},\
         \"last_commit_error\":{},\"epoch\":{},\"generation\":{},\"compactions\":{},\
         \"config\":",
        s.arrays,
        s.edges,
        s.pending_edges,
        s.edges_ingested,
        s.queries,
        s.commits,
        s.auto_commits,
        s.failed_commits,
        OrNull(s.last_commit_error.as_deref().map(JsonStr)),
        s.epoch,
        OrNull(s.generation),
        s.compactions,
    );
    render_config(out, &s.config);
    out.push('}');
}

/// The effective served-database configuration as a JSON object (the
/// `"config"` field of a `stats` response).
fn render_config(out: &mut String, c: &crate::api::DslogConfig) {
    let _ = write!(
        out,
        "{{\"lazy\":{},\"as_of\":{},\"gzip\":{},\"wal_actor\":{},\"wal_retention\":{},\
         \"compress\":{{\"fast\":{},\"parallel\":{}}},\
         \"query\":{{\"merge\":{},\"use_index\":{},\"parallel\":{},\"use_planner\":{}}},\
         \"composite\":{{\"hit_threshold\":{}}},\
         \"auto_compact_generations\":{}}}",
        c.lazy,
        OrNull(c.as_of),
        OrNull(c.gzip),
        JsonStr(&c.wal_actor),
        c.wal_retention,
        c.compress.fast,
        c.compress.parallel,
        c.query.merge,
        c.query.use_index,
        c.query.parallel,
        c.query.use_planner,
        c.composite_policy.hit_threshold,
        OrNull(c.maintenance.auto_compact_generations)
    );
}

/// Append `{"ok":false,"error":...}` with the message JSON-escaped.
fn json_err(out: &mut String, message: &str) {
    let _ = write!(out, "{{\"ok\":false,\"error\":{}}}", JsonStr(message));
}

/// Minimal JSON string encoder (quotes, backslash, control chars),
/// formatted straight into the output.
struct JsonStr<'a>(&'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// JSON `null` for `None`, the value itself otherwise.
struct OrNull<T>(Option<T>);

impl<T: fmt::Display> fmt::Display for OrNull<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("null"),
        }
    }
}

/// `NAME:3x2` → `("NAME", [3, 2])`. Scalar arrays use `NAME:1`.
fn parse_array_spec(spec: &str) -> std::result::Result<(String, Vec<usize>), String> {
    let (name, dims) = spec
        .split_once(':')
        .ok_or_else(|| format!("array spec `{spec}` must be NAME:3x2"))?;
    if name.is_empty() {
        return Err(format!("array spec `{spec}` has an empty name"));
    }
    let shape = dims
        .split('x')
        .map(|d| {
            d.parse::<usize>()
                .ok()
                .filter(|&d| d > 0)
                .ok_or_else(|| format!("bad dimension `{d}` in array spec `{spec}`"))
        })
        .collect::<std::result::Result<Vec<_>, _>>()?;
    Ok((name.to_string(), shape))
}

/// `1;2,3` → `[[1], [2, 3]]` (rows of `,`-separated indices).
fn parse_cells(spec: &str) -> std::result::Result<Vec<Vec<i64>>, String> {
    spec.split(';')
        .filter(|cell| !cell.trim().is_empty())
        .map(|cell| {
            cell.split(',')
                .map(|v| {
                    v.trim()
                        .parse::<i64>()
                        .map_err(|_| format!("bad index `{}` in `{spec}`", v.trim()))
                })
                .collect()
        })
        .collect()
}

/// Inline lineage rows: `;`-separated rows of `,`-separated indices,
/// output attributes first then input attributes (the CSV row layout).
fn parse_inline_rows(
    spec: &str,
    out_arity: usize,
    in_arity: usize,
) -> std::result::Result<LineageTable, String> {
    let rows = parse_cells(spec)?;
    if rows.is_empty() {
        return Err("ingest needs at least one row".to_string());
    }
    let mut table = LineageTable::new(out_arity, in_arity);
    for row in &rows {
        if row.len() != out_arity + in_arity {
            return Err(format!(
                "row has {} values; edge needs {} output + {} input indices",
                row.len(),
                out_arity,
                in_arity
            ));
        }
        table.push_row(row);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Dslog;
    use crate::service::AutoCommitPolicy;

    fn test_service() -> Arc<DslogService> {
        let mut db = Dslog::new();
        db.define_array("A", &[8]).unwrap();
        db.define_array("B", &[8]).unwrap();
        Arc::new(DslogService::new(db, AutoCommitPolicy::manual()))
    }

    fn spawn_test_server(opts: ServeOptions) -> (Arc<DslogService>, NetServer) {
        let service = test_service();
        let server = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0", opts).unwrap();
        (service, server)
    }

    fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let writer = stream.try_clone().unwrap();
        (BufReader::new(stream), writer)
    }

    fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, req: &str) -> String {
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim().to_string()
    }

    /// Send one request and return the raw response line, `'\n'` included.
    fn roundtrip_raw(
        reader: &mut BufReader<TcpStream>,
        writer: &mut TcpStream,
        req: &str,
    ) -> String {
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    /// Golden response bytes. Responses without the `stats` word are
    /// byte-identical across protocol versions, so these pins must never
    /// change to accommodate a rendering refactor.
    #[test]
    fn golden_response_bytes() {
        let (_service, server) = spawn_test_server(ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        });
        let (mut r, mut w) = connect(server.local_addr());
        // Mutations over the wire are attributed to the peer address, which
        // `stats` reports as the current `wal_actor`.
        let actor = format!("net:{}", w.local_addr().unwrap());
        let mut send = |req: &str| roundtrip_raw(&mut r, &mut w, req);
        assert_eq!(
            send("define M:4x4"),
            "{\"ok\":true,\"defined\":\"M\",\"shape\":[4,4]}\n"
        );
        assert_eq!(
            send("define N:4"),
            "{\"ok\":true,\"defined\":\"N\",\"shape\":[4]}\n"
        );
        assert!(
            send("ingest M N 0,0,0;0,0,1;0,2,3;1,1,1;1,3,0;1,3,1;1,3,2").contains("\"ok\":true")
        );
        assert!(send("ingest A B 0,1;1,2;2,3").contains("\"ok\":true"));
        // `query` with several 2-D boxes.
        assert_eq!(
            send("query N,M 0;1"),
            "{\"ok\":true,\"hops\":1,\"cells\":7,\
             \"boxes\":[[[0,0],[0,1]],[[1,1],[1,1]],[[2,2],[3,3]],[[3,3],[0,2]]]}\n"
        );
        // `query ... stats`.
        assert_eq!(
            send("query B,A 1 stats"),
            "{\"ok\":true,\"hops\":1,\"cells\":1,\"boxes\":[[[2,2]]],\
             \"stats\":{\"rows_probed\":1,\"rows_matched\":1,\"plan\":\"path_order\",\
             \"hops\":[{\"probed\":1,\"matched\":1,\"boxes\":1,\"indexed\":true,\"threads\":1}]}}\n"
        );
        // `query_batch` with an empty member result.
        assert_eq!(
            send("query_batch B,A 1|7|0;2"),
            "{\"ok\":true,\"hops\":1,\"results\":[{\"cells\":1,\"boxes\":[[[2,2]]]},\
             {\"cells\":0,\"boxes\":[]},{\"cells\":2,\"boxes\":[[[1,1]],[[3,3]]]}]}\n"
        );
        // `stats`, with its `config` object.
        assert_eq!(
            send("stats"),
            format!(
                "{{\"ok\":true,\"arrays\":4,\"edges\":2,\"pending_edges\":2,\"edges_ingested\":2,\
                 \"queries\":5,\"commits\":0,\"auto_commits\":0,\"failed_commits\":0,\
                 \"last_commit_error\":null,\"epoch\":4,\"generation\":null,\"compactions\":0,\
                 \"config\":{{\"lazy\":false,\"as_of\":null,\"gzip\":null,\"wal_actor\":\"{actor}\",\
                 \"wal_retention\":0,\"compress\":{{\"fast\":true,\"parallel\":true}},\
                 \"query\":{{\"merge\":true,\"use_index\":true,\"parallel\":true,\"use_planner\":true}},\
                 \"composite\":{{\"hit_threshold\":3}},\
                 \"auto_compact_generations\":null}}}}\n"
            )
        );
        // An error whose message holds a quote, a backslash and control
        // characters (the request line is echoed back in the message).
        assert_eq!(
            send("bogus \"q\\\u{1}\tz"),
            "{\"ok\":false,\"error\":\"bad request `bogus \\\"q\\\\\\u0001\\tz`; \
             expected define/ingest/query/query_batch/commit/stats/history/quit/shutdown\"}\n"
        );
        server.stop();
        server.join();
    }

    /// A response sink that records every `write` call separately.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Run one in-memory session over `script`; return how it ended and
    /// every write call it made.
    fn run_script(shared: &NetShared, script: &str) -> (SessionFlow, Vec<String>) {
        let mut out = Responder::new(CountingWriter::default());
        let flow = run_session(&mut script.as_bytes(), &mut out, shared, "test").unwrap();
        let writes = out.out.writes.into_iter();
        (
            flow,
            writes.map(|w| String::from_utf8(w).unwrap()).collect(),
        )
    }

    /// Every write is one whole response: a single `'\n'`, at the end.
    fn assert_one_line_per_write(writes: &[String]) {
        for w in writes {
            assert!(w.ends_with('\n'), "{w:?}");
            assert_eq!(w.matches('\n').count(), 1, "{w:?}");
        }
    }

    #[test]
    fn every_response_is_one_write() {
        let dir = std::env::temp_dir().join(format!("dslog-net-framing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Dslog::new();
        db.define_array("A", &[8]).unwrap();
        db.define_array("B", &[8]).unwrap();
        db.save(&dir, false).unwrap();
        let service = Arc::new(DslogService::new(db, AutoCommitPolicy::manual()));
        let shared = NetShared::new(Arc::clone(&service), ServeOptions::default());

        let script = "define C:8\ningest A B 0,1;1,2;2,3\nquery B,A 1\nquery B,A 1 stats\n\
                      query_batch B,A 1|7\nstats\ncommit\nhistory\nquery NOPE,A 1\nbogus\n\
                      quit\nstats\n";
        let (flow, writes) = run_script(&shared, script);
        assert!(matches!(flow, SessionFlow::CloseSession));
        assert_one_line_per_write(&writes);
        let expect_prefix = [
            "{\"ok\":true,\"defined\"",
            "{\"ok\":true,\"edges\":1",
            "{\"ok\":true,\"hops\":1,\"cells\":1,",
            "{\"ok\":true,\"hops\":1,\"cells\":1,",
            "{\"ok\":true,\"hops\":1,\"results\"",
            "{\"ok\":true,\"arrays\":3",
            "{\"ok\":true,\"generation\":",
            "{\"ok\":true,\"records\":",
            "{\"ok\":false,\"error\":",
            "{\"ok\":false,\"error\":\"bad request",
            "{\"ok\":true,\"closing\":\"session\"}",
        ];
        assert_eq!(writes.len(), expect_prefix.len(), "{writes:?}");
        for (w, prefix) in writes.iter().zip(expect_prefix) {
            assert!(w.starts_with(prefix), "{w:?} vs {prefix:?}");
        }
        assert!(writes[3].contains(",\"stats\":{"), "{}", writes[3]);

        let (flow, writes) = run_script(&shared, "shutdown\nstats\n");
        assert!(matches!(flow, SessionFlow::StopServer));
        assert_eq!(writes, ["{\"ok\":true,\"closing\":\"server\"}\n"]);

        let small = NetShared::new(
            service,
            ServeOptions {
                max_line_bytes: 16,
                ..ServeOptions::default()
            },
        );
        let (flow, writes) = run_script(&small, "query B,A 1;2;3;4;5;6\nstats\n");
        assert!(matches!(flow, SessionFlow::CloseSession));
        assert_eq!(
            writes,
            ["{\"ok\":false,\"error\":\"request line exceeds 16 bytes; closing connection\"}\n"]
        );
        assert_eq!(small.stats().oversized_frames, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `max_line_bytes` caps the frame with its newline: `max - 1` content
    /// bytes are served, `max` content bytes are refused.
    #[test]
    fn max_line_bytes_counts_the_newline() {
        let shared = NetShared::new(
            test_service(),
            ServeOptions {
                max_line_bytes: 6,
                ..ServeOptions::default()
            },
        );
        // "stats\n" is exactly 6 bytes.
        let (_, writes) = run_script(&shared, "stats\n");
        assert_eq!(writes.len(), 1);
        assert!(
            writes[0].starts_with("{\"ok\":true,\"arrays\":2"),
            "{writes:?}"
        );
        // "stats \n" is 7: one byte over, although it trims to `stats`.
        let (_, writes) = run_script(&shared, "stats \n");
        assert_eq!(
            writes,
            ["{\"ok\":false,\"error\":\"request line exceeds 6 bytes; closing connection\"}\n"]
        );
        assert_eq!(shared.stats().oversized_frames, 1);
    }

    #[test]
    fn session_roundtrip_and_shutdown() {
        let (_service, server) = spawn_test_server(ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        });
        let (mut reader, mut writer) = connect(server.local_addr());
        assert_eq!(
            roundtrip(&mut reader, &mut writer, "define C:8"),
            "{\"ok\":true,\"defined\":\"C\",\"shape\":[8]}"
        );
        let resp = roundtrip(&mut reader, &mut writer, "ingest A B 0,1;1,2;2,3");
        assert!(
            resp.contains("\"ok\":true") && resp.contains("\"rows\":3"),
            "{resp}"
        );
        let resp = roundtrip(&mut reader, &mut writer, "query B,A 1");
        assert!(resp.contains("\"boxes\":[[[2,2]]]"), "{resp}");
        // Errors keep the session alive.
        let resp = roundtrip(&mut reader, &mut writer, "query NOPE,A 1");
        assert!(resp.starts_with("{\"ok\":false"), "{resp}");
        let resp = roundtrip(&mut reader, &mut writer, "stats");
        assert!(resp.contains("\"edges\":1"), "{resp}");
        // The effective configuration rides along as a "config" object.
        assert!(
            resp.contains("\"config\":{\"lazy\":")
                && resp.contains("\"auto_compact_generations\":"),
            "{resp}"
        );
        assert_eq!(
            roundtrip(&mut reader, &mut writer, "shutdown"),
            "{\"ok\":true,\"closing\":\"server\"}"
        );
        let stats = server.join();
        assert_eq!(stats.accepted, 1);
        assert!(stats.requests >= 6);
    }

    #[test]
    fn query_batch_and_stats_responses() {
        let (_service, server) = spawn_test_server(ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        });
        let (mut reader, mut writer) = connect(server.local_addr());
        let resp = roundtrip(&mut reader, &mut writer, "ingest A B 0,1;1,2;2,3");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        // Batch results come back in request order, one entry per query.
        let resp = roundtrip(&mut reader, &mut writer, "query_batch B,A 1|2|7");
        assert!(
            resp.contains("\"results\":[{\"cells\":1,\"boxes\":[[[2,2]]]},{\"cells\":1,\"boxes\":[[[3,3]]]},{\"cells\":0,\"boxes\":[]}]"),
            "{resp}"
        );
        // The stats word appends a stats object with a planner label.
        let resp = roundtrip(&mut reader, &mut writer, "query B,A 1 stats");
        assert!(resp.contains("\"boxes\":[[[2,2]]]"), "{resp}");
        assert!(
            resp.contains("\"stats\":{\"rows_probed\":") && resp.contains("\"plan\":\""),
            "{resp}"
        );
        let resp = roundtrip(&mut reader, &mut writer, "query_batch B,A 1|2 stats");
        assert!(resp.contains("\"stats\":{"), "{resp}");
        // Malformed batches are rejected without killing the session.
        let resp = roundtrip(&mut reader, &mut writer, "query_batch B,A 1||2");
        assert!(resp.starts_with("{\"ok\":false"), "{resp}");
        assert!(roundtrip(&mut reader, &mut writer, "stats").contains("\"ok\":true"));
        server.stop();
        server.join();
    }

    #[test]
    fn oversized_frame_rejected_and_connection_closed() {
        let (_service, server) = spawn_test_server(ServeOptions {
            workers: 1,
            max_line_bytes: 64,
            ..ServeOptions::default()
        });
        let (mut reader, mut writer) = connect(server.local_addr());
        let big = format!("query B,A {}", "1;".repeat(200));
        let resp = roundtrip(&mut reader, &mut writer, &big);
        assert!(resp.contains("exceeds 64 bytes"), "{resp}");
        let mut end = String::new();
        assert_eq!(reader.read_line(&mut end).unwrap(), 0, "expected EOF");
        assert_eq!(server.stats().oversized_frames, 1);
        server.stop();
        server.join();
    }

    #[test]
    fn history_and_failure_fields_over_the_wire() {
        let dir = std::env::temp_dir().join(format!("dslog-net-hist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Dslog::new();
        db.define_array("A", &[8]).unwrap();
        db.define_array("B", &[8]).unwrap();
        db.save(&dir, false).unwrap();
        let service = Arc::new(DslogService::new(db, AutoCommitPolicy::manual()));
        let server = NetServer::spawn(
            Arc::clone(&service),
            "127.0.0.1:0",
            ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let (mut reader, mut writer) = connect(server.local_addr());
        let resp = roundtrip(&mut reader, &mut writer, "ingest A B 0,1;1,2");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let resp = roundtrip(&mut reader, &mut writer, "commit");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let resp = roundtrip(&mut reader, &mut writer, "history");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"kind\":\"ingest\""), "{resp}");
        assert!(resp.contains("\"kind\":\"commit\""), "{resp}");
        // The ingest came in over the wire, so its log record is
        // attributed to the network peer.
        assert!(resp.contains("\"actor\":\"net:"), "{resp}");
        let resp = roundtrip(&mut reader, &mut writer, "stats");
        assert!(resp.contains("\"failed_commits\":0"), "{resp}");
        assert!(resp.contains("\"last_commit_error\":null"), "{resp}");
        server.stop();
        server.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn busy_rejection_past_admission_bound() {
        let (_service, server) = spawn_test_server(ServeOptions {
            workers: 1,
            queue_depth: 0,
            ..ServeOptions::default()
        });
        // Occupy the only worker with a live session.
        let (mut r1, mut w1) = connect(server.local_addr());
        assert!(roundtrip(&mut r1, &mut w1, "stats").contains("\"ok\":true"));
        // Next connection exceeds workers + queue_depth and is turned away.
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        let busy = loop {
            let (mut r2, _w2) = connect(server.local_addr());
            let mut line = String::new();
            r2.read_line(&mut line).unwrap();
            if line.contains("server busy") {
                break line;
            }
            // The first session may not have been claimed yet; retry.
            assert!(std::time::Instant::now() < deadline, "never saw busy");
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(busy.contains("\"ok\":false"), "{busy}");
        assert!(server.stats().rejected_busy >= 1);
        // The admitted session still works.
        assert!(roundtrip(&mut r1, &mut w1, "stats").contains("\"ok\":true"));
        server.stop();
        server.join();
    }
}
