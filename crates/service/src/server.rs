//! The llhsc-service daemon: a TCP accept loop, a fixed worker pool
//! and the request dispatcher.
//!
//! One thread accepts connections and feeds them through an mpsc
//! channel to `workers` handler threads; each handler serves its
//! connection to completion (the protocol is line-oriented, several
//! requests may share a connection). All workers share one
//! [`ServiceCache`], so a check result computed for any client is a
//! cache hit for every later identical request.
//!
//! Shutdown (`shutdown` op or [`ServerHandle::shutdown`]) is graceful:
//! the accept loop stops taking new connections, queued and in-flight
//! connections are served to completion, then the workers exit and
//! [`ServerHandle::join`] returns.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use llhsc::family::FamilyStats;
use llhsc::{CheckOptions, Pipeline, PipelineCache, ProgressSink, SessionStats, SolverStats};
use llhsc_obs::{
    chrome_trace_of, FlightRecord, FlightRecorder, Logger, Registry, SpanRecord, TraceCtx, Tracer,
};

use crate::analytics::{
    analytics_key, count_model, count_params_key, sample_model, sample_params_key, AnalyticsOutcome,
};
use crate::cache::{CachedTreeCheck, ServiceCache, ServiceStats};
use crate::check::check_tree_with;
use crate::json::Json;
use crate::progress::RequestProgress;
use crate::proto::{
    analytics_frame, build_family_frame, build_ok_frame, build_rejected_frame, check_frame,
    error_frame, flightdump_frame, metrics_frame, ping_frame, shutdown_frame, Request,
};
use crate::report::{check_report_json, session_json, solver_json};

/// Bucket bounds (µs) of the per-op request-latency histogram:
/// exponential, ×4 per bucket from 100µs to ~6.6s, so sub-millisecond
/// pings and multi-second solver-bound builds both land in buckets that
/// still resolve (the old decade ladder collapsed everything between
/// 100ms and 10s into two buckets).
const DURATION_BOUNDS_US: [u64; 9] = [
    100, 400, 1_600, 6_400, 25_600, 102_400, 409_600, 1_638_400, 6_553_600,
];

/// How long each read of the lingering close after an oversized request
/// waits for more of the client's input.
const LINGER_TIMEOUT: Duration = Duration::from_secs(1);

/// How much of the client's remaining input the lingering close
/// discards at most.
const LINGER_MAX_BYTES: u64 = 64 * 1024 * 1024;

/// How the daemon is brought up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Hard cap on one request line, in bytes; longer requests are
    /// answered with an error frame and the connection is closed once
    /// the client stops sending (or after a bounded wait).
    pub max_request_bytes: usize,
    /// Latency (µs) at or above which a request counts as *slow*: its
    /// span tree is dumped to `slow_trace_dir` as a Chrome-trace file,
    /// a warn line carrying the trace ID is logged, and the latency
    /// histogram records an exemplar linking the offending bucket to
    /// that trace ID. `0` captures every request (useful in CI);
    /// `u64::MAX` disables capture.
    pub slow_request_us: u64,
    /// Directory receiving `llhsc-slow-<trace_id>.trace.json` dumps.
    pub slow_trace_dir: PathBuf,
    /// Ring size of the always-on flight recorder (`flightdump` op).
    pub flight_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_request_bytes: 16 * 1024 * 1024,
            slow_request_us: 1_000_000,
            slow_trace_dir: std::env::temp_dir(),
            flight_capacity: 256,
        }
    }
}

/// Daemon-wide fresh work: solver counters, solver-session reuse and
/// family-mode counters. Fresh checks and builds only — cache hits
/// replay a stored result without solver work and add nothing.
type Totals = (SolverStats, SessionStats, FamilyStats);

/// Everything the worker threads share.
struct ServiceState {
    cache: ServiceCache,
    stats: ServiceStats,
    totals: Mutex<Totals>,
    metrics: Registry,
    logger: Logger,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    workers: usize,
    /// Startup stamp prefixing every trace ID, so IDs from different
    /// daemon incarnations don't collide in aggregated logs.
    trace_epoch: u64,
    /// Per-request sequence number, the trace-ID suffix.
    trace_seq: AtomicU64,
    /// The always-on recent-request ring (`flightdump` op).
    flight: FlightRecorder,
    /// Slow-capture threshold (µs); see [`ServerConfig::slow_request_us`].
    slow_request_us: u64,
    /// Where slow-request Chrome traces are written.
    slow_trace_dir: PathBuf,
    /// Daemon start time (`llhsc_uptime_seconds`).
    started: Instant,
    /// Live progress of in-flight solver-bearing requests, keyed by
    /// trace ID; surfaced as the `stats` op's `"active"` array.
    active: Mutex<BTreeMap<String, Arc<RequestProgress>>>,
}

impl ServiceState {
    /// Flags shutdown and pokes the accept loop awake with a throwaway
    /// connection (it blocks in `accept`, so a flag alone is invisible).
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
    }

    /// The next request's trace ID, echoed in the response envelope and
    /// in every log line about the request.
    fn next_trace_id(&self) -> String {
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        format!("{:08x}-{seq:06}", self.trace_epoch)
    }

    fn active_lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<RequestProgress>>> {
        self.active.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn totals(&self) -> std::sync::MutexGuard<'_, Totals> {
        self.totals.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Folds one fresh run's solver and session work into the totals.
    fn add_work(&self, solver: &SolverStats, session: &SessionStats) {
        let mut totals = self.totals();
        totals.0.merge(solver);
        totals.1.merge(session);
    }
}

/// Registers a request in the live-progress table for its lifetime;
/// deregistration happens on drop so every exit path (including error
/// frames) cleans up.
struct ActiveRequest<'a> {
    state: &'a ServiceState,
    progress: Arc<RequestProgress>,
}

impl<'a> ActiveRequest<'a> {
    fn begin(state: &'a ServiceState, trace_id: &str, op: &str) -> ActiveRequest<'a> {
        let progress = Arc::new(RequestProgress::new(trace_id, op));
        state
            .active_lock()
            .insert(trace_id.to_string(), Arc::clone(&progress));
        ActiveRequest { state, progress }
    }
}

impl Drop for ActiveRequest<'_> {
    fn drop(&mut self) {
        self.state.active_lock().remove(self.progress.trace_id());
    }
}

/// A running daemon.
pub struct ServerHandle {
    state: Arc<ServiceState>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Initiates graceful shutdown: stop accepting, drain, exit.
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Whether shutdown was requested (by [`ServerHandle::shutdown`] or
    /// a `shutdown` op from any client).
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the accept loop and every worker to finish. Does not
    /// itself initiate shutdown — call [`ServerHandle::shutdown`] first
    /// (or let a client send the `shutdown` op).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Binds the listener and spawns the accept loop and worker pool.
///
/// # Errors
///
/// Propagates the bind failure (address in use, permission, …).
pub fn start(config: &ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let trace_epoch = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs() & 0xffff_ffff)
        .unwrap_or(0);
    let state = Arc::new(ServiceState {
        cache: ServiceCache::new(),
        stats: ServiceStats::default(),
        totals: Mutex::default(),
        metrics: Registry::new(),
        logger: Logger::from_env("llhsc-service"),
        shutdown: AtomicBool::new(false),
        local_addr,
        workers,
        trace_epoch,
        trace_seq: AtomicU64::new(0),
        flight: FlightRecorder::new(config.flight_capacity.max(1)),
        slow_request_us: config.slow_request_us,
        slow_trace_dir: config.slow_trace_dir.clone(),
        started: Instant::now(),
        active: Mutex::new(BTreeMap::new()),
    });
    state
        .logger
        .info(&format!("listening on {local_addr} ({workers} workers)"));
    let max_request_bytes = config.max_request_bytes;

    let (tx, rx) = mpsc::channel::<(Instant, TcpStream)>();
    let rx = Arc::new(Mutex::new(rx));
    let mut threads = Vec::with_capacity(workers + 1);

    {
        let state = Arc::clone(&state);
        threads.push(std::thread::spawn(move || {
            for conn in listener.incoming() {
                if state.shutdown.load(Ordering::SeqCst) {
                    break; // wake-up connection or late client: drop it
                }
                let Ok(stream) = conn else { continue };
                state.stats.connections.fetch_add(1, Ordering::Relaxed);
                if tx.send((Instant::now(), stream)).is_err() {
                    break;
                }
            }
            // Dropping the sender lets the workers drain and exit.
        }));
    }

    for _ in 0..workers {
        let state = Arc::clone(&state);
        let rx = Arc::clone(&rx);
        threads.push(std::thread::spawn(move || loop {
            let conn = rx.lock().expect("queue lock").recv();
            match conn {
                Ok((queued_at, stream)) => {
                    let wait = queued_at.elapsed();
                    state
                        .stats
                        .record_queue_wait(u64::try_from(wait.as_micros()).unwrap_or(u64::MAX));
                    serve_connection(&state, stream, max_request_bytes);
                }
                Err(_) => break, // accept loop gone and queue drained
            }
        }));
    }

    Ok(ServerHandle { state, threads })
}

/// One request line, capped at `max` bytes.
enum Line {
    /// A complete line (without the terminator).
    Text(String),
    /// The client closed the connection.
    Eof,
    /// The line exceeded `max` bytes.
    TooLong,
}

fn read_request_line(reader: &mut impl BufRead, max: usize) -> io::Result<Line> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return if line.is_empty() {
                Ok(Line::Eof)
            } else {
                // EOF in the middle of a line: take it as sent.
                Ok(text_or_too_long(line, max))
            };
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            return Ok(text_or_too_long(line, max));
        }
        line.extend_from_slice(available);
        let n = available.len();
        reader.consume(n);
        if line.len() > max {
            return Ok(Line::TooLong);
        }
    }
}

fn text_or_too_long(line: Vec<u8>, max: usize) -> Line {
    if line.len() > max {
        Line::TooLong
    } else {
        Line::Text(String::from_utf8_lossy(&line).into_owned())
    }
}

/// Sends one response frame, its `\n` included, in a single write. With
/// `TCP_NODELAY` on, the frame leaves at once; a frame written in pieces
/// on a Nagle socket waits for the client's delayed ACK (~40 ms) after
/// the first piece.
fn send_frame(mut stream: &TcpStream, frame: &Json) -> io::Result<()> {
    stream.write_all(format!("{frame}\n").as_bytes())
}

/// Closes a connection whose remaining input is unframed garbage. Closing
/// a socket with unread input makes the kernel send a reset, which can
/// destroy the error frame before the client reads it. So half-close
/// after the frame, then discard what the client still sends (at most
/// [`LINGER_MAX_BYTES`], each read waiting at most [`LINGER_TIMEOUT`])
/// before the socket is dropped.
fn linger_close(stream: &TcpStream, reader: &mut impl Read) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(LINGER_TIMEOUT));
    let _ = io::copy(&mut reader.take(LINGER_MAX_BYTES), &mut io::sink());
}

fn serve_connection(state: &ServiceState, stream: TcpStream, max_request_bytes: usize) {
    state.stats.in_flight.fetch_add(1, Ordering::Relaxed);
    let in_flight = state.metrics.gauge(
        "llhsc_connections_in_flight",
        "Connections currently being served.",
        &[],
    );
    in_flight.inc();
    // Every frame is whole (`send_frame`): holding it back for a
    // coalescing ACK only adds latency.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(&stream);
    loop {
        let line = match read_request_line(&mut reader, max_request_bytes) {
            Ok(Line::Text(l)) => l,
            Ok(Line::Eof) => break,
            Ok(Line::TooLong) => {
                state.stats.requests.fetch_add(1, Ordering::Relaxed);
                state.stats.errors.fetch_add(1, Ordering::Relaxed);
                state
                    .metrics
                    .counter(
                        "llhsc_requests_total",
                        "Requests handled.",
                        &[("op", "oversized")],
                    )
                    .inc();
                let trace_id = state.next_trace_id();
                state.logger.warn(&format!(
                    "{trace_id} request exceeds max request size ({max_request_bytes} bytes)"
                ));
                let mut frame = error_frame(format!(
                    "request exceeds max request size ({max_request_bytes} bytes)"
                ));
                if let Json::Obj(map) = &mut frame {
                    map.insert("trace_id".to_string(), Json::Str(trace_id));
                }
                let _ = send_frame(&stream, &frame);
                linger_close(&stream, &mut reader);
                break; // the rest of the stream is unframed garbage
            }
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        state.stats.requests.fetch_add(1, Ordering::Relaxed);
        let trace_id = state.next_trace_id();
        let started = Instant::now();
        let (mut response, op, spans) = respond(state, &line, &trace_id);
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let failed = response.get("ok").and_then(Json::as_bool) == Some(false);
        if failed {
            state.stats.errors.fetch_add(1, Ordering::Relaxed);
            state
                .metrics
                .counter(
                    "llhsc_request_errors_total",
                    "Requests answered with an error frame.",
                    &[],
                )
                .inc();
        }
        state
            .metrics
            .counter("llhsc_requests_total", "Requests handled.", &[("op", op)])
            .inc();
        let latency = state.metrics.histogram(
            "llhsc_request_duration_us",
            "Request handling latency in microseconds.",
            &[("op", op)],
            &DURATION_BOUNDS_US,
        );
        let slow = elapsed_us >= state.slow_request_us;
        if slow {
            // The exemplar ties the offending bucket to this
            // request's trace ID, which also names the dump file.
            latency.observe_exemplar(elapsed_us, &trace_id);
            dump_slow_trace(state, &trace_id, op, elapsed_us, spans.as_deref());
        } else {
            latency.observe(elapsed_us);
        }
        state.flight.record(FlightRecord {
            seq: 0,
            trace_id: trace_id.clone(),
            op: op.to_string(),
            dur_us: elapsed_us,
            slow,
            error: failed,
        });
        if let Json::Obj(map) = &mut response {
            map.insert("trace_id".to_string(), Json::Str(trace_id.clone()));
        }
        if failed {
            let error = response
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error");
            state.logger.warn(&format!(
                "{trace_id} {op} failed in {elapsed_us}us: {error}"
            ));
        } else {
            state
                .logger
                .debug(&format!("{trace_id} {op} ok in {elapsed_us}us"));
        }
        if send_frame(&stream, &response).is_err() {
            break;
        }
    }
    state.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
    in_flight.sub(1);
}

/// Writes a slow request's span tree to
/// `<slow_trace_dir>/llhsc-slow-<trace_id>.trace.json` and logs a warn
/// line naming the trace ID. A request that recorded no span tree of
/// its own (ping, stats, a cache hit, …) dumps one span named after the
/// op and lasting its `elapsed_us`, so every capture is a well-formed,
/// non-empty Chrome trace of the request's own time.
fn dump_slow_trace(
    state: &ServiceState,
    trace_id: &str,
    op: &str,
    elapsed_us: u64,
    spans: Option<&[SpanRecord]>,
) {
    let trace_json = match spans {
        Some(spans) if !spans.is_empty() => chrome_trace_of(spans),
        _ => {
            let tracer = Tracer::wall();
            tracer.end(tracer.begin(op, None));
            let mut spans = tracer.spans();
            spans[0].dur_us = Some(elapsed_us);
            chrome_trace_of(&spans)
        }
    };
    let path = state
        .slow_trace_dir
        .join(format!("llhsc-slow-{trace_id}.trace.json"));
    let threshold = state.slow_request_us;
    match std::fs::write(&path, trace_json) {
        Ok(()) => state.logger.warn(&format!(
            "{trace_id} {op} slow request: {elapsed_us}us >= {threshold}us, trace dumped to {}",
            path.display()
        )),
        Err(e) => state.logger.warn(&format!(
            "{trace_id} {op} slow request: {elapsed_us}us >= {threshold}us, trace dump failed: {e}"
        )),
    }
}

/// The options of one solver-bearing request: always traced on the
/// wall clock (the span tree goes into the cache entry and the
/// slow-request dump), heartbeating into the request's live progress.
fn request_options(tracer: &Arc<Tracer>, progress: &Arc<RequestProgress>) -> CheckOptions {
    CheckOptions {
        trace: Some(TraceCtx::new(Arc::clone(tracer))),
        progress: Some(Arc::clone(progress) as Arc<dyn ProgressSink>),
        ..CheckOptions::default()
    }
}

/// Parses and executes one request line. Returns the response frame,
/// the op name used for metrics labels and log lines, and the span tree
/// the request recorded, if any (fed to slow-request capture). A cache
/// hit records none: the cached spans timed the fresh run.
fn respond(
    state: &ServiceState,
    line: &str,
    trace_id: &str,
) -> (Json, &'static str, Option<Vec<SpanRecord>>) {
    let parsed = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => return (error_frame(e.to_string()), "invalid", None),
    };
    let request = match Request::from_json(&parsed) {
        Ok(r) => r,
        Err(e) => return (error_frame(e), "invalid", None),
    };
    match request {
        Request::Ping => (ping_frame(), "ping", None),
        Request::Stats => (stats_frame(state), "stats", None),
        Request::Metrics => (metrics_frame(metrics_text(state)), "metrics", None),
        Request::Flightdump => (
            flightdump_frame(
                &state.flight.snapshot(),
                state.flight.total(),
                state.flight.capacity(),
            ),
            "flightdump",
            None,
        ),
        Request::Shutdown => {
            state.request_shutdown();
            (shutdown_frame(), "shutdown", None)
        }
        Request::Check { dts, report } => {
            let active = ActiveRequest::begin(state, trace_id, "check");
            let progress = Arc::clone(&active.progress);
            progress.set_phase("parse");
            let (frame, spans) = match llhsc_dts::parse(&dts) {
                Err(e) => (error_frame(format!("parse: {e}")), None),
                Ok(tree) => {
                    let key = tree.stable_hash();
                    progress.set_phase("check");
                    let (check, cached) = match state.cache.get_tree(key) {
                        Some(hit) => (hit, true),
                        None => {
                            // Always traced: the span tree goes into the
                            // cached entry so a later `report: true` hit
                            // replays it.
                            let tracer = Arc::new(Tracer::wall());
                            let (outcome, _) =
                                check_tree_with(&tree, &request_options(&tracer, &progress));
                            state.add_work(&outcome.solver, &outcome.session);
                            let fresh = CachedTreeCheck {
                                report: outcome.report,
                                stats: outcome.stats,
                                solver: outcome.solver,
                                session: outcome.session,
                                spans: tracer.spans(),
                            };
                            state.cache.put_tree(key, fresh.clone());
                            (fresh, false)
                        }
                    };
                    progress.set_phase("render");
                    let doc = report.then(|| {
                        check_report_json(
                            &check.report,
                            &check.stats,
                            &check.solver,
                            &check.session,
                            &check.spans,
                            None,
                        )
                    });
                    let frame = check_frame(&check.report, cached, doc);
                    (frame, (!cached).then_some(check.spans))
                }
            };
            (frame, "check", spans)
        }
        Request::Count { model, params } => {
            let _active = ActiveRequest::begin(state, trace_id, "count");
            let (frame, spans) =
                serve_analytics(state, "count", &model, &count_params_key(&params), |tc| {
                    llhsc_fm::parse_model(&model)
                        .map(|fm| count_model(&fm, &params, Some(tc)))
                        .map_err(|e| format!("model.fm: {e}"))
                });
            (frame, "count", spans)
        }
        Request::Sample { model, k, seed } => {
            let _active = ActiveRequest::begin(state, trace_id, "sample");
            let (frame, spans) =
                serve_analytics(state, "sample", &model, &sample_params_key(k, seed), |tc| {
                    llhsc_fm::parse_model(&model)
                        .map(|fm| sample_model(&fm, k, seed, Some(tc)))
                        .map_err(|e| format!("model.fm: {e}"))
                });
            (frame, "sample", spans)
        }
        Request::Build(b) => {
            let active = ActiveRequest::begin(state, trace_id, "build");
            let progress = Arc::clone(&active.progress);
            progress.set_phase("parse");
            let (frame, spans) = match b.to_pipeline_input() {
                Err(e) => (error_frame(e), None),
                Ok(input) if b.family => {
                    // Family-level verification: one lifted solver query
                    // per rule family over the whole product line, the
                    // verdict content-addressed in the family cache.
                    progress.set_phase("family");
                    let tracer = Arc::new(Tracer::wall());
                    let mode = llhsc::family::CheckMode::Family;
                    let key = llhsc::family::family_key(&input, mode, false);
                    let frame = match state.cache.get(llhsc::CacheClass::Family, key) {
                        Some(llhsc::CacheEntry::Family(Ok(report))) => {
                            build_family_frame(&report, true)
                        }
                        Some(llhsc::CacheEntry::Family(Err(diagnostics))) => {
                            build_rejected_frame(&llhsc::PipelineError { diagnostics })
                        }
                        _ => {
                            let mut checker = llhsc::family::FamilyChecker::with_options(
                                &request_options(&tracer, &progress),
                            );
                            match checker.check(&input, mode) {
                                Ok(report) => {
                                    state.add_work(&report.stats.solver, &report.stats.session);
                                    state.totals().2.merge(&report.stats);
                                    state.cache.put(
                                        llhsc::CacheClass::Family,
                                        key,
                                        llhsc::CacheEntry::Family(Ok(report.clone())),
                                    );
                                    build_family_frame(&report, false)
                                }
                                Err(e) => {
                                    state.cache.put(
                                        llhsc::CacheClass::Family,
                                        key,
                                        llhsc::CacheEntry::Family(Err(e.diagnostics.clone())),
                                    );
                                    build_rejected_frame(&e)
                                }
                            }
                        }
                    };
                    (frame, Some(tracer.spans()))
                }
                Ok(input) => {
                    progress.set_phase("pipeline");
                    let tracer = Arc::new(Tracer::wall());
                    let pipeline = Pipeline {
                        options: request_options(&tracer, &progress),
                    };
                    let frame = match pipeline.run_cached(&input, Some(&state.cache)) {
                        Ok(out) => {
                            state.add_work(&out.solver_stats, &out.session_stats);
                            build_ok_frame(&out, &tracer)
                        }
                        Err(e) => build_rejected_frame(&e),
                    };
                    (frame, Some(tracer.spans()))
                }
            };
            (frame, "build", spans)
        }
    }
}

/// Computes or replays a `count`/`sample` answer. The analytics cache
/// is keyed on (op, model source, canonical parameters), so a warm
/// repeat performs zero solver calls and returns byte-identical `text`
/// and `doc` fields; only the frame's `cached` flag differs.
fn serve_analytics(
    state: &ServiceState,
    op: &str,
    model: &str,
    params_key: &str,
    compute: impl FnOnce(&TraceCtx) -> Result<AnalyticsOutcome, String>,
) -> (Json, Option<Vec<SpanRecord>>) {
    let key = analytics_key(op, model, params_key);
    if let Some(hit) = state.cache.get_analytics(key) {
        return (analytics_frame(op, &hit, true), None);
    }
    // The count/sample machinery records one span per XOR-hash cell,
    // annotated with `xor_constraints` and `cells` counters.
    let tracer = Arc::new(Tracer::wall());
    let ctx = TraceCtx::new(Arc::clone(&tracer));
    match compute(&ctx) {
        Err(e) => (error_frame(e), None),
        Ok(outcome) => {
            state.totals().0.solves += outcome.solves;
            state
                .metrics
                .counter(
                    "llhsc_count_solves_total",
                    "SAT-solver invocations spent on analytics (count/sample) ops.",
                    &[("op", op)],
                )
                .add(outcome.solves);
            state
                .metrics
                .counter(
                    "llhsc_count_xor_constraints_total",
                    "Random XOR parity constraints encoded by analytics ops.",
                    &[("op", op)],
                )
                .add(outcome.xor_constraints);
            state
                .metrics
                .counter(
                    "llhsc_count_cells_total",
                    "XOR-hash cells enumerated by analytics ops.",
                    &[("op", op)],
                )
                .add(
                    tracer
                        .spans()
                        .iter()
                        .filter(|s| s.name == "count_cell" || s.name == "sample_cell")
                        .count() as u64,
                );
            state.cache.put_analytics(key, outcome.clone());
            (analytics_frame(op, &outcome, false), Some(tracer.spans()))
        }
    }
}

fn stats_frame(state: &ServiceState) -> Json {
    let cache = Json::Obj(
        state
            .cache
            .counters()
            .into_iter()
            .map(|(name, hits, misses, evictions)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("hits", hits.into()),
                        ("misses", misses.into()),
                        ("evictions", evictions.into()),
                    ]),
                )
            })
            .collect(),
    );
    // In-flight solver-bearing requests with their live heartbeat
    // state. The stats request itself is never registered, so an idle
    // daemon answers `"active": []`.
    let active = Json::Arr(
        state
            .active_lock()
            .values()
            .map(|p| {
                let s = p.snapshot();
                Json::obj([
                    ("trace_id", s.trace_id.as_str().into()),
                    ("op", s.op.as_str().into()),
                    ("phase", s.phase.as_str().into()),
                    ("heartbeats", s.heartbeats.into()),
                    ("conflicts", s.conflicts.into()),
                    ("trail_depth", s.trail_depth.into()),
                    ("restarts", s.restarts.into()),
                    ("learnt", s.learnt.into()),
                    ("proof_steps", s.proof_steps.into()),
                ])
            })
            .collect(),
    );
    let s = &state.stats;
    let totals = *state.totals();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("workers", state.workers.into()),
        ("active", active),
        ("requests", s.requests.load(Ordering::Relaxed).into()),
        ("errors", s.errors.load(Ordering::Relaxed).into()),
        ("connections", s.connections.load(Ordering::Relaxed).into()),
        ("in_flight", s.in_flight.load(Ordering::Relaxed).into()),
        (
            "queue_wait_us_total",
            s.queue_wait_us_total.load(Ordering::Relaxed).into(),
        ),
        (
            "queue_wait_us_max",
            s.queue_wait_us_max.load(Ordering::Relaxed).into(),
        ),
        ("cache", cache),
        ("solver", solver_json(&totals.0)),
        ("session", session_json(&totals.1)),
    ])
}

/// Renders the Prometheus exposition: event-site series (per-op request
/// counts, latency histograms, error count) live in the registry
/// already; monotone counters kept elsewhere (connections, queue waits,
/// cache hits/misses/evictions per class, accumulated solver work) are
/// synced in via `record_max` at scrape time, which is exact for
/// counters that only grow.
fn metrics_text(state: &ServiceState) -> String {
    let m = &state.metrics;
    let s = &state.stats;
    // Version as a label, value constantly 1 — the standard Prometheus
    // idiom for joining build metadata onto other series.
    m.gauge(
        "llhsc_build_info",
        "Build metadata; the value is always 1.",
        &[("version", env!("CARGO_PKG_VERSION"))],
    )
    .record_max(1);
    m.gauge(
        "llhsc_uptime_seconds",
        "Seconds since the daemon started.",
        &[],
    )
    .record_max(state.started.elapsed().as_secs());
    m.counter("llhsc_connections_total", "Connections accepted.", &[])
        .record_max(s.connections.load(Ordering::Relaxed));
    m.counter(
        "llhsc_queue_wait_us_total",
        "Total accept-queue wait in microseconds.",
        &[],
    )
    .record_max(s.queue_wait_us_total.load(Ordering::Relaxed));
    m.gauge(
        "llhsc_queue_wait_us_max",
        "Longest single accept-queue wait in microseconds.",
        &[],
    )
    .record_max(s.queue_wait_us_max.load(Ordering::Relaxed));
    for (class, hits, misses, evictions) in state.cache.counters() {
        m.counter(
            "llhsc_cache_hits_total",
            "Cache hits per class.",
            &[("class", class)],
        )
        .record_max(hits);
        m.counter(
            "llhsc_cache_misses_total",
            "Cache misses per class.",
            &[("class", class)],
        )
        .record_max(misses);
        m.counter(
            "llhsc_cache_evictions_total",
            "Cache entries evicted per class, least recently used first.",
            &[("class", class)],
        )
        .record_max(evictions);
    }
    let (solver, session, family) = *state.totals();
    let sync = |name: &str, help: &str, value: u64| {
        m.counter(name, help, &[]).record_max(value);
    };
    sync(
        "llhsc_solver_solves_total",
        "SAT-solver invocations performed (fresh work only).",
        solver.solves,
    );
    sync(
        "llhsc_solver_decisions_total",
        "SAT-solver decisions taken (fresh work only).",
        solver.decisions,
    );
    sync(
        "llhsc_solver_propagations_total",
        "SAT-solver literals propagated (fresh work only).",
        solver.propagations,
    );
    sync(
        "llhsc_solver_conflicts_total",
        "SAT-solver conflicts analysed (fresh work only).",
        solver.conflicts,
    );
    sync(
        "llhsc_solver_restarts_total",
        "SAT-solver restarts performed (fresh work only).",
        solver.restarts,
    );
    sync(
        "llhsc_session_slices_created_total",
        "Solver-session constraint slices encoded for the first time.",
        session.slices_created,
    );
    sync(
        "llhsc_session_slices_reused_total",
        "Solver-session slice registrations served from the shared context.",
        session.slices_reused,
    );
    sync(
        "llhsc_session_asserts_encoded_total",
        "Solver-session assertions that reached the solver.",
        session.asserts_encoded,
    );
    sync(
        "llhsc_session_asserts_reused_total",
        "Solver-session assertions skipped as already encoded.",
        session.asserts_reused,
    );
    sync(
        "llhsc_session_checks_total",
        "Assumption-guarded checks discharged against shared contexts.",
        session.checks,
    );
    sync(
        "llhsc_family_obligations_lifted_total",
        "Obligation sites encoded into lifted family-level queries.",
        family.obligations_lifted,
    );
    sync(
        "llhsc_family_solves_total",
        "Family-level satisfiability queries issued (one per rule family).",
        family.family_solves,
    );
    sync(
        "llhsc_family_witnesses_extracted_total",
        "Satisfiable family verdicts turned into witness configurations.",
        family.witnesses_extracted,
    );
    sync(
        "llhsc_family_products_checked_total",
        "Products derived and checked by family-mode runs (witness replays).",
        family.products_checked,
    );
    m.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    #[test]
    fn ping_and_graceful_shutdown() {
        let handle = start(&ServerConfig::default()).expect("server starts");
        let addr = handle.local_addr().to_string();
        let pong = client::request(&addr, &Json::obj([("op", "ping".into())])).unwrap();
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        let bye = client::request(&addr, &Json::obj([("op", "shutdown".into())])).unwrap();
        assert_eq!(bye.get("op").and_then(Json::as_str), Some("shutdown"));
        handle.join();
    }

    #[test]
    fn metrics_trace_ids_and_report_parity() {
        let handle = start(&ServerConfig::default()).expect("server starts");
        let addr = handle.local_addr().to_string();
        let dts = "/ { #address-cells = <1>; #size-cells = <1>;\n\
                   \x20   memory@1000 { device_type = \"memory\"; reg = <0x1000 0x1000>; }; };";
        let check_req = Json::obj([
            ("op", "check".into()),
            ("dts", dts.into()),
            ("report", Json::Bool(true)),
        ]);

        let first = client::request(&addr, &check_req).unwrap();
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        assert!(first.get("trace_id").and_then(Json::as_str).is_some());
        let report = first.get("report").expect("report doc");
        assert_eq!(report.get("kind").and_then(Json::as_str), Some("check"));

        // The daemon's report document is byte-identical to the local
        // builder's.
        let tracer = Arc::new(Tracer::wall());
        let (local, _) = check_tree_with(
            &llhsc_dts::parse(dts).unwrap(),
            &CheckOptions {
                trace: Some(TraceCtx::new(Arc::clone(&tracer))),
                ..CheckOptions::default()
            },
        );
        let local_doc = check_report_json(
            &local.report,
            &local.stats,
            &local.solver,
            &local.session,
            &tracer.spans(),
            None,
        );
        assert_eq!(report.to_string(), local_doc.to_string());

        // A cache hit replays the identical report under a new trace ID.
        let second = client::request(&addr, &check_req).unwrap();
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(
            second.get("report").map(ToString::to_string),
            Some(local_doc.to_string())
        );
        assert_ne!(first.get("trace_id"), second.get("trace_id"));

        let metrics = client::request(&addr, &Json::obj([("op", "metrics".into())])).unwrap();
        let text = metrics
            .get("text")
            .and_then(Json::as_str)
            .expect("metrics text");
        assert!(
            text.contains("llhsc_requests_total{op=\"check\"} 2"),
            "{text}"
        );
        assert!(text.contains("# TYPE llhsc_request_duration_us histogram"));
        assert!(text.contains("llhsc_cache_hits_total{class=\"tree_check\"} 1"));
        assert!(text.contains("llhsc_cache_misses_total{class=\"tree_check\"} 1"));

        // The stats op and the Prometheus text agree on solver totals.
        let stats = client::request(&addr, &Json::obj([("op", "stats".into())])).unwrap();
        let solves = stats
            .get("solver")
            .and_then(|s| s.get("solves"))
            .and_then(Json::as_int)
            .expect("solver totals in stats");
        assert!(solves > 0, "fresh check must solve");
        assert!(
            text.contains(&format!("llhsc_solver_solves_total {solves}")),
            "{text}"
        );

        handle.shutdown();
        handle.join();
    }

    #[test]
    fn count_and_sample_ops_cache_and_replay() {
        let handle = start(&ServerConfig::default()).expect("server starts");
        let addr = handle.local_addr().to_string();
        let solves = |addr: &str| {
            client::request(addr, &Json::obj([("op", "stats".into())]))
                .unwrap()
                .get("solver")
                .and_then(|s| s.get("solves"))
                .and_then(Json::as_int)
                .expect("solver totals")
        };

        let count_req = Json::obj([
            ("op", "count".into()),
            ("model", llhsc::quadcore::MODEL.into()),
        ]);
        let first = client::request(&addr, &count_req).unwrap();
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
        let doc = first.get("doc").expect("count doc");
        assert_eq!(doc.get("models").and_then(Json::as_int), Some(60));
        assert_eq!(doc.get("method").and_then(Json::as_str), Some("exact"));
        let after_fresh = solves(&addr);
        assert!(after_fresh > 0, "fresh count must solve");

        // Warm repeat: byte-identical answer, zero additional solver
        // calls — only the cached flag differs.
        let second = client::request(&addr, &count_req).unwrap();
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(first.get("text"), second.get("text"));
        assert_eq!(
            first.get("doc").map(ToString::to_string),
            second.get("doc").map(ToString::to_string)
        );
        assert_eq!(solves(&addr), after_fresh);

        let sample_req = Json::obj([
            ("op", "sample".into()),
            ("model", llhsc::quadcore::MODEL.into()),
            ("k", 5u64.into()),
            ("seed", 7u64.into()),
        ]);
        let fresh = client::request(&addr, &sample_req).unwrap();
        assert_eq!(fresh.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(
            fresh
                .get("doc")
                .and_then(|d| d.get("returned"))
                .and_then(Json::as_int),
            Some(5)
        );
        let replay = client::request(&addr, &sample_req).unwrap();
        assert_eq!(replay.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(fresh.get("text"), replay.get("text"));

        // A bad model is a protocol error, not a cached verdict.
        let bad = client::request(
            &addr,
            &Json::obj([("op", "count".into()), ("model", "not a model".into())]),
        )
        .unwrap();
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));

        let metrics = client::request(&addr, &Json::obj([("op", "metrics".into())])).unwrap();
        let text = metrics
            .get("text")
            .and_then(Json::as_str)
            .expect("metrics text");
        assert!(
            text.contains("llhsc_count_solves_total{op=\"count\"}"),
            "{text}"
        );
        assert!(
            text.contains("llhsc_cache_hits_total{class=\"analytics\"} 2"),
            "{text}"
        );

        handle.shutdown();
        handle.join();
    }

    #[test]
    fn slow_capture_dumps_one_trace_per_offending_request() {
        let dir = std::env::temp_dir().join(format!("llhsc-slowcap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let handle = start(&ServerConfig {
            slow_request_us: 0, // every request is an outlier
            slow_trace_dir: dir.clone(),
            ..ServerConfig::default()
        })
        .expect("server starts");
        let addr = handle.local_addr().to_string();
        let dts = "/ { #address-cells = <1>; #size-cells = <1>;\n\
                   \x20   memory@1000 { device_type = \"memory\"; reg = <0x1000 0x1000>; };\n\
                   \x20   uart@2000 { reg = <0x2000 0x1000>; }; };";
        let check_req = Json::obj([("op", "check".into()), ("dts", dts.into())]);

        let first = client::request(&addr, &check_req).unwrap();
        let tid1 = first
            .get("trace_id")
            .and_then(Json::as_str)
            .expect("trace id")
            .to_string();
        let second = client::request(&addr, &check_req).unwrap();
        let tid2 = second
            .get("trace_id")
            .and_then(Json::as_str)
            .expect("trace id")
            .to_string();
        assert_ne!(tid1, tid2);

        // Exactly one dump per offending request, named by its trace
        // ID and timing that request: the fresh check dumps its span
        // tree, the cache hit one span (checked against the flight ring
        // below).
        let dumped = |tid: &str| -> Vec<(String, i64)> {
            let path = dir.join(format!("llhsc-slow-{tid}.trace.json"));
            let dump = std::fs::read_to_string(path).expect("dump written");
            let dump = Json::parse(&dump).expect("dump is valid JSON");
            let spans = dump.as_arr().expect("Chrome trace is an array").iter();
            spans
                .map(|s| (s.get("name").and_then(Json::as_str).unwrap().to_string(), s))
                .map(|(name, s)| (name, s.get("dur").and_then(Json::as_int).unwrap()))
                .collect()
        };
        let fresh = dumped(&tid1);
        assert!(
            fresh.iter().any(|(n, dur)| n == "check" && *dur > 0),
            "{fresh:?}"
        );
        assert!(fresh.iter().any(|(n, _)| n == "solve"), "{fresh:?}");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            2,
            "one dump per slow request, none extra"
        );

        // The latency histogram links the offending bucket to a
        // captured outlier's trace ID via an exemplar.
        let metrics = client::request(&addr, &Json::obj([("op", "metrics".into())])).unwrap();
        let text = metrics
            .get("text")
            .and_then(Json::as_str)
            .expect("metrics text");
        assert!(
            text.contains(&format!("trace_id=\"{tid2}\"")),
            "exemplar names the outlier: {text}"
        );

        // The flight ring remembers both requests and flags them slow.
        let dump = client::request(&addr, &Json::obj([("op", "flightdump".into())])).unwrap();
        assert_eq!(dump.get("ok"), Some(&Json::Bool(true)));
        let records = dump.get("records").and_then(Json::as_arr).expect("records");
        for tid in [&tid1, &tid2] {
            assert!(
                records.iter().any(|r| {
                    r.get("trace_id").and_then(Json::as_str) == Some(tid.as_str())
                        && r.get("slow") == Some(&Json::Bool(true))
                        && r.get("op").and_then(Json::as_str) == Some("check")
                }),
                "flight ring misses {tid}: {records:?}"
            );
        }
        let hit = records
            .iter()
            .find(|r| r.get("trace_id").and_then(Json::as_str) == Some(tid2.as_str()))
            .and_then(|r| r.get("dur_us")?.as_int())
            .expect("the hit's latency");
        assert_eq!(dumped(&tid2), [("check".to_string(), hit)]);

        handle.shutdown();
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_active_array_build_info_and_uptime() {
        let handle = start(&ServerConfig::default()).expect("server starts");
        let addr = handle.local_addr().to_string();

        // An idle daemon has no in-flight solver-bearing requests (the
        // stats op itself is never registered).
        let stats = client::request(&addr, &Json::obj([("op", "stats".into())])).unwrap();
        assert_eq!(
            stats.get("active").map(ToString::to_string),
            Some("[]".to_string())
        );

        let metrics = client::request(&addr, &Json::obj([("op", "metrics".into())])).unwrap();
        let text = metrics
            .get("text")
            .and_then(Json::as_str)
            .expect("metrics text");
        assert!(
            text.contains(&format!(
                "llhsc_build_info{{version=\"{}\"}} 1",
                env!("CARGO_PKG_VERSION")
            )),
            "{text}"
        );
        assert!(text.contains("# TYPE llhsc_uptime_seconds gauge"), "{text}");

        // Fast requests under the default 1s threshold never dump.
        let flight = client::request(&addr, &Json::obj([("op", "flightdump".into())])).unwrap();
        let records = flight
            .get("records")
            .and_then(Json::as_arr)
            .expect("records");
        assert!(
            records
                .iter()
                .all(|r| r.get("slow") == Some(&Json::Bool(false))),
            "{records:?}"
        );

        handle.shutdown();
        handle.join();
    }

    #[test]
    fn malformed_and_oversized_requests_get_error_frames() {
        let handle = start(&ServerConfig {
            max_request_bytes: 64,
            ..ServerConfig::default()
        })
        .expect("server starts");
        let addr = handle.local_addr().to_string();

        let bad = client::request_raw(&addr, "this is not json").unwrap();
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));

        let huge = format!(r#"{{"op":"check","dts":"{}"}}"#, "x".repeat(200));
        let too_big = client::request_raw(&addr, &huge).unwrap();
        assert!(too_big
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("max request size")));

        handle.shutdown();
        handle.join();
    }

    #[test]
    fn a_request_far_past_the_limit_still_gets_its_error_frame() {
        let handle = start(&ServerConfig {
            max_request_bytes: 64,
            ..ServerConfig::default()
        })
        .expect("server starts");
        let addr = handle.local_addr().to_string();

        // 4 MB is far more than the socket buffers hold, so the client
        // is still sending when the server answers; the lingering close
        // keeps that from turning into a connection reset.
        let huge = format!(r#"{{"op":"check","dts":"{}"}}"#, "x".repeat(4 << 20));
        let too_big = client::request_raw(&addr, &huge).expect("error frame, not a reset");
        assert_eq!(too_big.get("ok"), Some(&Json::Bool(false)));
        assert!(too_big
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("max request size")));

        // The daemon is unharmed.
        let pong = client::request(&addr, &Json::obj([("op", "ping".into())])).unwrap();
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn pings_on_one_connection_do_not_wait_for_delayed_acks() {
        let handle = start(&ServerConfig::default()).expect("server starts");
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(&stream);
        let started = Instant::now();
        for _ in 0..20 {
            (&stream).write_all(b"{\"op\":\"ping\"}\n").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let pong = Json::parse(response.trim_end()).unwrap();
            assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        }
        // A frame written in pieces on a Nagle socket waits ~40 ms for
        // the client's delayed ACK, so 20 such round trips take ~800 ms.
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(200),
            "20 pings took {elapsed:?}"
        );
        drop(reader);
        drop(stream);
        handle.shutdown();
        handle.join();
    }
}
