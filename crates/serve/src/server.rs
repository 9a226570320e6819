//! The decision server: a reader thread fans frames out to a pool of
//! decision workers over a shared queue.
//!
//! Topology (all on [`billcap_rt::run_workers`], so no thread outlives
//! the call):
//!
//! ```text
//!  reader (worker 0) ──frames──▶ Mutex<VecDeque> ──▶ workers 1..=N
//!      │ answers control frames                        │ per-worker DecisionEngines
//!      ▼                                               ▼
//!  ServerTelemetry ◀──latency/counters  Mutex<W> ◀──response frames──┘
//! ```
//!
//! * Each worker owns one [`DecisionEngine`] per pricing policy, so
//!   model reuse never crosses threads and needs no locking. The
//!   engine's [`system_fingerprint`] is hashed once, when the engine is
//!   created; cache keys reuse it.
//! * The decision cache (optional) is shared: one hour solved by any
//!   worker is a hit for every worker. It holds rendered response
//!   bodies, not decisions: a miss renders its answer exactly once
//!   ([`render_decision_body`]) and a hit splices the request id in
//!   front of the stored bytes ([`render_decision_frame`]).
//! * The reader reads through a [`BufReader`]; every response frame,
//!   header included, leaves in one `write_all`.
//! * Malformed requests get an in-band `error` response and the stream
//!   continues; framing errors (truncation, oversized length) poison
//!   the stream — the server emits one final `error` frame and shuts
//!   down cleanly. Neither ever panics a worker.
//!
//! ## Telemetry
//!
//! A [`ServerTelemetry`] instance accompanies every serve call (one
//! per *process* under [`serve_unix`], so counters survive across
//! connections). It is the server's only ledger: every count it keeps
//! is one row of one table, a name and a tier over one atomic, and
//! scrapes, the metrics stream, [`ServeStats`] and `health` all read
//! that table. The tier splits observability in two:
//!
//! * **Exact work counters** (`serve.requests`, `serve.decisions`,
//!   `serve.cache.*`, `serve.frame_errors`,
//!   `core.engine.rebuilds_unique`, …) count events that are a pure
//!   function of the request stream — bitwise reproducible across
//!   thread counts on a fixed replay. Unique rebuilds are counted as
//!   the cardinality of the set of (policy, structure fingerprint)
//!   pairs drained from every engine
//!   ([`DecisionEngine::drain_built_keys`]). A fingerprint covers the
//!   step and its kept price levels only (caps are synced values, not
//!   structure), so models of two policies can share one; the policy
//!   in the key keeps them apart. The *set* is schedule-invariant even
//!   though which worker built what is not.
//! * **Advisory signals** — the engines' raw LRU totals, failed
//!   response and metrics-stream writes, windowed latency histograms
//!   (enqueue-to-respond and solve-only, microseconds), queue-depth
//!   gauges, uptime — depend on the schedule, the client or the clock
//!   and may differ run to run. Scrapes export them as gauges.
//!
//! In-band `{"op":"metrics"}` / `{"op":"health"}` control frames
//! ([`crate::protocol::ControlMsg`]) are answered by the *reader*
//! thread, never queued, so a scrape observes the workers instead of
//! competing with them. Every `window_requests` data frames the reader
//! rotates the latency windows and, when a metrics stream is
//! configured, writes one [`MetricsDoc`] JSONL line straight to it; a
//! failed write counts in `serve.stream_write_failed` and degrades
//! `health`.
//!
//! Responses are written in completion order; clients correlate by
//! `id`. Every response body is bitwise-identical to an in-process
//! one-shot decision
//! ([`billcap_core::BillCapper::decide_hour`]) on the same request: the
//! workers' retained engines decide exactly like one-shot engines (the
//! engine's bitwise contract), and a cache hit replays a body rendered
//! from such a decision.

use crate::protocol::{
    read_frame, render_decision_body, render_decision_frame, write_frame, ControlMsg, FrameError,
    Request, Response, MAX_FRAME,
};
use billcap_core::{
    system_fingerprint, CapperConfig, DataCenterSystem, DecisionCache, DecisionEngine, DecisionKey,
    EngineStats,
};
use billcap_obs::{MetricsDoc, QuantileSummary, Stopwatch, WindowedHistogram};
use billcap_rt::run_workers;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufReader, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Bucket upper bounds for the latency histograms, microseconds.
/// Solves land around 10²–10³ µs; the tail buckets catch stalls.
const LATENCY_BOUNDS_US: [f64; 12] = [
    50.0, 100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0, 100_000.0,
    500_000.0,
];

/// Queue depth beyond which a `health` scrape reports degradation.
const HEALTH_QUEUE_WARN: usize = 4096;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Decision workers (the reader thread is extra). Minimum 1.
    pub workers: usize,
    /// Share finished decisions through a [`DecisionCache`].
    pub cache: bool,
    /// Capacity of the shared decision cache.
    pub cache_capacity: usize,
    /// The capper settings every decision engine is built with
    /// (integral server counts).
    pub capper: CapperConfig,
    /// Record per-request latency and rotate metrics windows. Work
    /// counters are maintained regardless; this switch only gates the
    /// wall-clock instrumentation (the measurable overhead).
    pub telemetry: bool,
    /// Rotate the latency windows every this many data frames
    /// (logical tick — deterministic on a replay). `0` disables
    /// rotation (and therefore streaming).
    pub window_requests: u64,
    /// Number of retained latency windows (ring size `W`).
    pub latency_windows: usize,
    /// Append one metrics JSONL line per window rotation to this file,
    /// created by [`ServerTelemetry::open`].
    pub metrics_stream: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: billcap_rt::num_threads(),
            cache: true,
            cache_capacity: DecisionCache::DEFAULT_CAPACITY,
            capper: CapperConfig::default(),
            telemetry: true,
            window_requests: 64,
            latency_windows: 8,
            metrics_stream: None,
        }
    }
}

/// What one [`serve`] call processed: how far its [`ServerTelemetry`]
/// work counters moved over the call. Calls that share one telemetry
/// must not overlap for the counts to be the call's own;
/// [`serve_unix`] serves its connections one at a time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Frames received and dispatched to workers.
    pub requests: u64,
    /// Decision responses written.
    pub decisions: u64,
    /// Error responses written (malformed requests, solver errors).
    pub errors: u64,
    /// Decisions answered from the shared cache.
    pub cache_hits: u64,
    /// Cache lookups that fell through to a fresh solve.
    pub cache_misses: u64,
    /// Decisions evicted by the cache's FIFO bound.
    pub cache_evictions: u64,
    /// The framing error that terminated the stream, if any.
    pub frame_error: Option<String>,
}

/// Latency windows rotated together on the reader's logical tick.
struct LatencyWindows {
    /// Enqueue-to-respond latency, µs.
    request_us: WindowedHistogram,
    /// `decide_hour` solve time alone, µs.
    solve_us: WindowedHistogram,
}

/// Continuous-telemetry state for a server. One instance per [`serve`]
/// call, or one per *process* under [`serve_unix`] so counters and
/// latency windows accumulate across connections.
///
/// All counter updates happen before the corresponding response frame
/// is written, so a client that has read `N` decision responses and
/// then scrapes sees counters covering at least those `N`.
pub struct ServerTelemetry {
    epoch: Stopwatch,
    enabled: bool,
    latency: Mutex<LatencyWindows>,
    stream: Option<Mutex<std::fs::File>>,
    /// (policy, structure fingerprint) of every engine step model
    /// built, across all workers. The set is thread-count-invariant;
    /// see the module docs.
    engine_keys: Mutex<HashSet<(usize, u64)>>,
    /// One slot per [`LEDGER`] row.
    counts: [AtomicU64; LEDGER.len()],
}

/// A count the server keeps: its slot in [`ServerTelemetry`]'s ledger.
#[derive(Clone, Copy)]
enum Count {
    Requests,
    Control,
    Decisions,
    Errors,
    FrameErrors,
    CacheHits,
    CacheMisses,
    CacheEvictions,
    RebuildsUnique,
    EngineHits,
    EngineMisses,
    EngineEvictions,
    WriteFailed,
    StreamWriteFailed,
}

/// How a scrape exports a count.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// A pure function of the request stream, bitwise equal across
    /// thread counts: a [`MetricsDoc`] counter.
    Exact,
    /// Moved by the schedule or the client: a [`MetricsDoc`] gauge.
    Advisory,
}

/// Every count the server keeps, in [`Count`] order: a new count is
/// one key and one row.
const LEDGER: [(Count, &str, Tier); 14] = {
    use Count::*;
    use Tier::*;
    [
        (Requests, "serve.requests", Exact),
        (Control, "serve.control", Exact),
        (Decisions, "serve.decisions", Exact),
        (Errors, "serve.errors", Exact),
        (FrameErrors, "serve.frame_errors", Exact),
        (CacheHits, "serve.cache.hit", Exact),
        (CacheMisses, "serve.cache.miss", Exact),
        (CacheEvictions, "serve.cache.evict", Exact),
        (RebuildsUnique, "core.engine.rebuilds_unique", Exact),
        (EngineHits, "core.engine.cache.hit", Advisory),
        (EngineMisses, "core.engine.cache.miss", Advisory),
        (EngineEvictions, "core.engine.cache.evict", Advisory),
        (WriteFailed, "serve.write_failed", Advisory),
        (StreamWriteFailed, "serve.stream_write_failed", Advisory),
    ]
};

impl ServerTelemetry {
    /// Fresh telemetry configured from `cfg`, with no stream attached.
    fn new(cfg: &ServeConfig) -> Self {
        let windows = cfg.latency_windows.max(1);
        Self {
            epoch: Stopwatch::start(),
            enabled: cfg.telemetry,
            latency: Mutex::new(LatencyWindows {
                request_us: WindowedHistogram::new(&LATENCY_BOUNDS_US, windows),
                solve_us: WindowedHistogram::new(&LATENCY_BOUNDS_US, windows),
            }),
            stream: None,
            engine_keys: Mutex::new(HashSet::new()),
            counts: [const { AtomicU64::new(0) }; LEDGER.len()],
        }
    }

    /// Fresh telemetry configured from `cfg`, writing to the JSONL file
    /// `cfg.metrics_stream` names, when it names one: the one place a
    /// server opens its metrics stream. A file that cannot be created
    /// is an error naming its path.
    pub fn open(cfg: &ServeConfig) -> std::io::Result<Self> {
        let mut tele = Self::new(cfg);
        if let Some(path) = &cfg.metrics_stream {
            let file = std::fs::File::create(path).map_err(|e| {
                std::io::Error::new(e.kind(), format!("metrics stream {}: {e}", path.display()))
            })?;
            tele.stream = Some(Mutex::new(file));
        }
        Ok(tele)
    }

    /// Whether wall-clock instrumentation is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `n` to a count; adding zero touches no shared cache line.
    fn add(&self, count: Count, n: u64) {
        if n > 0 {
            self.counts[count as usize].fetch_add(n, Ordering::SeqCst);
        }
    }

    fn get(&self, count: Count) -> u64 {
        self.counts[count as usize].load(Ordering::SeqCst)
    }

    fn record_request_us(&self, us: f64) {
        lock(&self.latency).request_us.record(us);
    }

    fn record_solve_us(&self, us: f64) {
        lock(&self.latency).solve_us.record(us);
    }
}

struct Queue {
    /// Frames with their enqueue stamp (present iff telemetry is on).
    frames: VecDeque<(Vec<u8>, Option<Stopwatch>)>,
    done: bool,
}

struct Shared<'t, W: Write> {
    queue: Mutex<Queue>,
    available: Condvar,
    writer: Mutex<W>,
    /// Rendered decision bodies ([`render_decision_body`]), keyed like
    /// decisions: a hit splices its id in front and never re-renders.
    cache: Option<Mutex<DecisionCache<Box<[u8]>>>>,
    tele: &'t ServerTelemetry,
    frame_error: Mutex<Option<String>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<'t, W: Write> Shared<'t, W> {
    /// One connection's state: an empty queue and, when `cfg` asks for
    /// one, an empty decision cache.
    fn new(cfg: &ServeConfig, writer: W, tele: &'t ServerTelemetry) -> Self {
        Self {
            queue: Mutex::new(Queue {
                frames: VecDeque::new(),
                done: false,
            }),
            available: Condvar::new(),
            writer: Mutex::new(writer),
            cache: cfg
                .cache
                .then(|| Mutex::new(DecisionCache::new(cfg.cache_capacity))),
            tele,
            frame_error: Mutex::new(None),
        }
    }

    /// Sends a response that has no direct renderer (errors, metrics,
    /// health) through its `Value` tree, still as one write.
    fn respond(&self, response: &Response) {
        let count = match response {
            Response::Decision(_) => Some(Count::Decisions),
            Response::Error { .. } => Some(Count::Errors),
            Response::Metrics { .. } | Response::Health { .. } => None,
        };
        let mut frame = Vec::new();
        let rendered = write_frame(&mut frame, response.to_value().render().as_bytes());
        self.send(count, rendered.map(|()| frame.as_slice()));
    }

    /// Writes one rendered frame (header included) with a single
    /// `write_all`, after moving the exact counter it answers for.
    fn send(&self, count: Option<Count>, frame: std::io::Result<&[u8]>) {
        // Counters move *before* the frame is written so a scrape
        // issued after reading N responses always covers those N.
        if let Some(count) = count {
            self.tele.add(count, 1);
        }
        let ok = frame.and_then(|bytes| {
            let mut w = lock(&self.writer);
            w.write_all(bytes).and_then(|()| w.flush())
        });
        if ok.is_err() {
            // The client is gone; keep draining the queue so the call
            // terminates, but stop pretending writes matter.
            self.tele.add(Count::WriteFailed, 1);
        }
    }
}

/// Builds the degradation reasons a `health` scrape reports.
fn health_reasons(queue_depth: usize, stream_write_failed: u64, frame_errors: u64) -> Vec<String> {
    let mut reasons = Vec::new();
    if frame_errors > 0 {
        reasons.push(format!("{frame_errors} stream framing error(s)"));
    }
    if queue_depth > HEALTH_QUEUE_WARN {
        reasons.push(format!(
            "queue depth {queue_depth} exceeds {HEALTH_QUEUE_WARN}"
        ));
    }
    if stream_write_failed > 0 {
        reasons.push(format!(
            "metrics stream dropped {stream_write_failed} line(s) on failed writes"
        ));
    }
    reasons
}

/// Assembles the versioned metrics document from the telemetry state
/// and the current connection's queue.
fn build_doc<W: Write>(
    cfg: &ServeConfig,
    shared: &Shared<'_, W>,
    queue_depth: usize,
) -> MetricsDoc {
    let t = shared.tele;
    let (tick, request_q, solve_q) = {
        let lat = lock(&t.latency);
        (
            lat.request_us.tick(),
            QuantileSummary::from_histogram(&lat.request_us.merged()),
            QuantileSummary::from_histogram(&lat.solve_us.merged()),
        )
    };
    let mut doc = MetricsDoc::new(tick, t.epoch.elapsed_ns());
    for ((_, name, tier), n) in LEDGER.iter().zip(&t.counts) {
        let n = n.load(Ordering::SeqCst);
        match tier {
            Tier::Exact => {
                doc.counters.insert((*name).into(), n);
            }
            Tier::Advisory => {
                doc.gauges.insert((*name).into(), n as f64);
            }
        }
    }
    doc.gauges
        .insert("serve.queue_depth".into(), queue_depth as f64);
    doc.gauges
        .insert("serve.workers".into(), cfg.workers.max(1) as f64);
    if let Some(cache) = &shared.cache {
        doc.gauges
            .insert("serve.cache.len".into(), lock(cache).len() as f64);
    }
    doc.latency.insert("request_us".into(), request_q);
    doc.latency.insert("solve_us".into(), solve_q);
    doc
}

/// Answers a control frame from the reader thread.
fn answer_control<W: Write>(cfg: &ServeConfig, shared: &Shared<'_, W>, ctl: ControlMsg) {
    let depth = lock(&shared.queue).frames.len();
    match ctl {
        ControlMsg::Metrics { id } => {
            let doc = build_doc(cfg, shared, depth);
            shared.respond(&Response::Metrics { id, doc });
        }
        ControlMsg::Health { id } => {
            let reasons = health_reasons(
                depth,
                shared.tele.get(Count::StreamWriteFailed),
                shared.tele.get(Count::FrameErrors),
            );
            shared.respond(&Response::Health {
                id,
                ok: reasons.is_empty(),
                reasons,
            });
        }
    }
}

/// One window rotation: write the completed window to the metrics
/// stream as one JSONL line (when a stream is attached), then advance
/// the ring.
fn emit_window<W: Write>(cfg: &ServeConfig, shared: &Shared<'_, W>) {
    let tele = shared.tele;
    if let Some(stream) = &tele.stream {
        let depth = lock(&shared.queue).frames.len();
        let mut line = build_doc(cfg, shared, depth).render_json();
        line.push('\n');
        let mut out = lock(stream);
        if out
            .write_all(line.as_bytes())
            .and_then(|()| out.flush())
            .is_err()
        {
            tele.add(Count::StreamWriteFailed, 1);
        }
    }
    let mut lat = lock(&tele.latency);
    lat.request_us.rotate();
    lat.solve_us.rotate();
}

/// Runs the server over an arbitrary transport until the reader hits
/// end-of-stream (or a framing error), then drains the queue and
/// returns. Panics never escape worker threads for malformed input —
/// every bad request is answered in-band.
///
/// Telemetry is created fresh for this call and writes no metrics
/// stream. To stream metrics, or to share telemetry across calls (as
/// [`serve_unix`] does per process), build it with
/// [`ServerTelemetry::open`] and call [`serve_with`].
///
/// # Panics
///
/// Panics when `cfg.metrics_stream` is set: opening the stream can fail,
/// and only [`ServerTelemetry::open`] returns that error.
pub fn serve<R, W>(cfg: &ServeConfig, reader: R, writer: W) -> ServeStats
where
    R: Read + Send,
    W: Write + Send,
{
    assert!(
        cfg.metrics_stream.is_none(),
        "serve writes no metrics stream: open one with ServerTelemetry::open and call serve_with"
    );
    serve_with(cfg, reader, writer, &ServerTelemetry::new(cfg))
}

/// [`serve`] against caller-owned telemetry. Counters and latency
/// windows in `tele` accumulate across calls; the returned
/// [`ServeStats`] is what they gained during this call.
pub fn serve_with<R, W>(
    cfg: &ServeConfig,
    reader: R,
    writer: W,
    tele: &ServerTelemetry,
) -> ServeStats
where
    R: Read + Send,
    W: Write + Send,
{
    let workers = cfg.workers.max(1);
    let start = tele.counts.each_ref().map(|n| n.load(Ordering::SeqCst));
    let shared = Shared::new(cfg, writer, tele);
    let reader_slot: Mutex<Option<R>> = Mutex::new(Some(reader));

    run_workers(workers + 1, |w| {
        if w == 0 {
            run_reader(cfg, &shared, &reader_slot);
        } else {
            run_decider(cfg, &shared);
        }
    });

    // Flush the tail window: work recorded since the last rotation
    // boundary (or everything, when rotation never fired) would
    // otherwise never reach the stream. The pool has joined, so this
    // final line carries the connection's complete counters and the
    // latency retained in the window ring — a deterministic
    // end-of-stream summary.
    if tele.enabled() && tele.stream.is_some() {
        emit_window(cfg, &shared);
    }

    let moved = |count: Count| tele.get(count) - start[count as usize];
    ServeStats {
        requests: moved(Count::Requests),
        decisions: moved(Count::Decisions),
        errors: moved(Count::Errors),
        cache_hits: moved(Count::CacheHits),
        cache_misses: moved(Count::CacheMisses),
        cache_evictions: moved(Count::CacheEvictions),
        frame_error: shared
            .frame_error
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
    }
}

fn run_reader<R: Read, W: Write>(
    cfg: &ServeConfig,
    shared: &Shared<'_, W>,
    reader_slot: &Mutex<Option<R>>,
) {
    // Buffered: a burst of small request frames costs one `read` call,
    // not two per frame (header, then payload).
    let mut reader = match lock(reader_slot).take() {
        Some(r) => BufReader::new(r),
        None => return,
    };
    let instrumented = shared.tele.enabled();
    let mut data_frames: u64 = 0;
    loop {
        match read_frame(&mut reader, MAX_FRAME) {
            Ok(Some(frame)) => {
                if ControlMsg::maybe_control(&frame) {
                    match ControlMsg::parse(&frame) {
                        Ok(Some(ctl)) => {
                            shared.tele.add(Count::Control, 1);
                            answer_control(cfg, shared, ctl);
                            continue;
                        }
                        Ok(None) => {} // no "op" key after all: ordinary request
                        Err(message) => {
                            shared.respond(&Response::Error {
                                id: None,
                                message: format!("bad control frame: {message}"),
                            });
                            continue;
                        }
                    }
                }
                shared.tele.add(Count::Requests, 1);
                data_frames += 1;
                let stamp = instrumented.then(Stopwatch::start);
                lock(&shared.queue).frames.push_back((frame, stamp));
                shared.available.notify_one();
                if instrumented
                    && cfg.window_requests > 0
                    && data_frames.is_multiple_of(cfg.window_requests)
                {
                    emit_window(cfg, shared);
                }
            }
            Ok(None) => break,
            Err(e) => {
                // The stream lost its frame boundaries: answer with one
                // terminal error and stop reading. Queued requests are
                // still served.
                let message = match &e {
                    FrameError::Io(io) => format!("stream error: {io}"),
                    other => format!("protocol error: {other}"),
                };
                shared.tele.add(Count::FrameErrors, 1);
                *lock(&shared.frame_error) = Some(message.clone());
                shared.respond(&Response::Error { id: None, message });
                break;
            }
        }
    }
    lock(&shared.queue).done = true;
    shared.available.notify_all();
}

/// A worker's engine and its system's fingerprint.
struct EngineState {
    engine: DecisionEngine,
    /// [`system_fingerprint`] of the engine's system, hashed once at
    /// creation: cache keys reuse it instead of re-hashing the spec.
    fingerprint: u64,
}

fn run_decider<W: Write>(cfg: &ServeConfig, shared: &Shared<'_, W>) {
    let mut engines: HashMap<usize, EngineState> = HashMap::new();
    // One response buffer per worker, reused for every frame.
    let mut out = Vec::new();
    loop {
        let entry = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(f) = q.frames.pop_front() {
                    break Some(f);
                }
                if q.done {
                    break None;
                }
                q = shared
                    .available
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((frame, stamp)) = entry else { break };
        handle_request(cfg, shared, &mut engines, &mut out, &frame, stamp);
    }
}

/// Drains the engine's LRU stats and built structure keys into the
/// shared telemetry; `policy` is the engine's pricing policy. Draining
/// is unconditional so the engine's built-key buffer stays bounded on
/// long-lived servers.
fn sync_engine_telemetry(tele: &ServerTelemetry, policy: usize, state: &mut EngineState) {
    let EngineStats {
        hits,
        misses,
        evictions,
    } = state.engine.drain_cache_stats();
    tele.add(Count::EngineHits, hits);
    tele.add(Count::EngineMisses, misses);
    tele.add(Count::EngineEvictions, evictions);
    let keys = state.engine.drain_built_keys();
    if !keys.is_empty() {
        let mut seen = lock(&tele.engine_keys);
        let new = keys
            .into_iter()
            .filter(|&k| seen.insert((policy, k)))
            .count();
        tele.add(Count::RebuildsUnique, new as u64);
    }
}

fn handle_request<W: Write>(
    cfg: &ServeConfig,
    shared: &Shared<'_, W>,
    engines: &mut HashMap<usize, EngineState>,
    out: &mut Vec<u8>,
    frame: &[u8],
    stamp: Option<Stopwatch>,
) {
    handle_request_inner(cfg, shared, engines, out, frame);
    if let Some(sw) = stamp {
        shared
            .tele
            .record_request_us(sw.elapsed_ns() as f64 / 1_000.0);
    }
}

/// Answers one data frame. A decision is rendered once, on the miss
/// that solves it; a cache hit copies the stored body behind a fresh id
/// into `out` and formats no float.
fn handle_request_inner<W: Write>(
    cfg: &ServeConfig,
    shared: &Shared<'_, W>,
    engines: &mut HashMap<usize, EngineState>,
    out: &mut Vec<u8>,
    frame: &[u8],
) {
    let mut span = billcap_obs::span("serve.request");
    let req = match Request::parse(frame) {
        Ok(r) => r,
        Err(e) => {
            span.field("error", 1.0);
            drop(span);
            shared.respond(&Response::Error {
                id: e.id,
                message: e.message,
            });
            return;
        }
    };
    span.field("id", req.id as f64);
    span.field("policy", req.policy as f64);

    let state = engines.entry(req.policy).or_insert_with(|| {
        let system = DataCenterSystem::paper_system(req.policy);
        let e = DecisionEngine::new(system, cfg.capper.clone());
        EngineState {
            fingerprint: system_fingerprint(e.system()),
            engine: e,
        }
    });

    let key = shared.cache.as_ref().map(|_| {
        DecisionKey::with_fingerprint(
            state.fingerprint,
            cfg.capper.integral_servers,
            req.offered,
            req.premium_offered,
            &req.background_mw,
            req.hourly_budget,
        )
    });
    if let (Some(cache), Some(key)) = (&shared.cache, &key) {
        let hit = lock(cache)
            .get(key)
            .map(|body| render_decision_frame(out, req.id, true, body));
        if let Some(rendered) = hit {
            shared.tele.add(Count::CacheHits, 1);
            span.field("cached", 1.0);
            drop(span);
            shared.send(Some(Count::Decisions), rendered.map(|()| out.as_slice()));
            return;
        }
        shared.tele.add(Count::CacheMisses, 1);
    }

    let solve_watch = shared.tele.enabled().then(Stopwatch::start);
    let result = state.engine.decide_hour(
        req.offered,
        req.premium_offered,
        &req.background_mw,
        req.hourly_budget,
    );
    if let Some(sw) = solve_watch {
        shared
            .tele
            .record_solve_us(sw.elapsed_ns() as f64 / 1_000.0);
    }
    sync_engine_telemetry(shared.tele, req.policy, state);

    match result {
        Ok(decision) => {
            span.field("cost", decision.allocation.total_cost);
            span.field("solves", decision.trace.solves as f64);
            drop(span);
            let body = render_decision_body(&decision);
            let rendered = render_decision_frame(out, req.id, false, &body);
            if let (Some(cache), Some(key)) = (&shared.cache, key) {
                let evicted = lock(cache).insert(key, body);
                shared.tele.add(Count::CacheEvictions, evicted);
            }
            shared.send(Some(Count::Decisions), rendered.map(|()| out.as_slice()));
        }
        Err(e) => {
            span.field("error", 1.0);
            drop(span);
            shared.respond(&Response::Error {
                id: Some(req.id),
                message: format!("decision failed: {e}"),
            });
        }
    }
}

/// Binds a Unix socket at `path` and serves connections sequentially
/// (each connection gets the full worker pool). With `once`, returns
/// after the first connection closes — the mode the tests and the CLI's
/// one-shot invocations use. A pre-existing socket file at `path` is
/// replaced.
///
/// One [`ServerTelemetry`] spans every connection, so a later `watch`
/// connection scrapes counters and latency windows accumulated by
/// earlier replay connections.
#[cfg(unix)]
pub fn serve_unix(
    cfg: &ServeConfig,
    path: &std::path::Path,
    once: bool,
) -> std::io::Result<Vec<ServeStats>> {
    use std::os::unix::net::UnixListener;
    let tele = ServerTelemetry::open(cfg)?;
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    let mut all = Vec::new();
    loop {
        let (stream, _addr) = listener.accept()?;
        let reader = stream.try_clone()?;
        all.push(serve_with(cfg, reader, stream, &tele));
        if once {
            return Ok(all);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::DecisionMsg;
    use billcap_core::BillCapper;
    use std::io::Cursor;

    fn one_worker() -> ServeConfig {
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }
    }

    fn encode(requests: &[Request]) -> Vec<u8> {
        let mut buf = Vec::new();
        for r in requests {
            write_frame(&mut buf, r.to_value().render().as_bytes()).unwrap();
        }
        buf
    }

    /// Raw response payloads, in write order.
    fn payloads(out: &[u8]) -> Vec<String> {
        let mut cur = Cursor::new(out.to_vec());
        let mut all = Vec::new();
        while let Some(frame) = read_frame(&mut cur, MAX_FRAME).unwrap() {
            all.push(String::from_utf8(frame).unwrap());
        }
        all
    }

    fn responses(out: &[u8]) -> Vec<Response> {
        payloads(out)
            .iter()
            .map(|p| Response::parse(p.as_bytes()).unwrap())
            .collect()
    }

    fn request(id: u64) -> Request {
        Request {
            id,
            policy: 1,
            offered: 5e8,
            premium_offered: 3e8,
            background_mw: vec![330.0, 410.0, 280.0],
            hourly_budget: f64::INFINITY,
        }
    }

    #[test]
    fn serves_a_decision_matching_the_fresh_capper() {
        let input = encode(&[request(42)]);
        let mut out = Vec::new();
        let stats = serve(&one_worker(), Cursor::new(input), &mut out);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.decisions, 1);
        assert_eq!(stats.errors, 0);
        let rs = responses(&out);
        assert_eq!(rs.len(), 1);
        let sys = DataCenterSystem::paper_system(1);
        let expected = BillCapper::default()
            .decide_hour(&sys, 5e8, 3e8, &[330.0, 410.0, 280.0], f64::INFINITY)
            .unwrap();
        match &rs[0] {
            Response::Decision(msg) => {
                assert_eq!(msg.id, 42);
                assert!(!msg.cached);
                msg.bitwise_matches(&expected).unwrap();
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn repeated_request_hits_the_cache_and_stays_bitwise() {
        let input = encode(&[request(1), request(2), request(3)]);
        let mut out = Vec::new();
        let stats = serve(&one_worker(), Cursor::new(input), &mut out);
        assert_eq!(stats.decisions, 3);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_evictions, 0);
        let sys = DataCenterSystem::paper_system(1);
        let expected = BillCapper::default()
            .decide_hour(&sys, 5e8, 3e8, &[330.0, 410.0, 280.0], f64::INFINITY)
            .unwrap();
        let mut cached_seen = 0;
        for r in responses(&out) {
            match r {
                Response::Decision(msg) => {
                    msg.bitwise_matches(&expected).unwrap();
                    cached_seen += usize::from(msg.cached);
                }
                other => panic!("got {other:?}"),
            }
        }
        assert_eq!(cached_seen, 2);
    }

    #[test]
    fn hit_frame_equals_miss_frame_but_for_the_cached_flag() {
        let input = encode(&[request(7), request(7)]);
        let mut out = Vec::new();
        let stats = serve(&one_worker(), Cursor::new(input), &mut out);
        assert_eq!((stats.cache_misses, stats.cache_hits), (1, 1));
        let frames = payloads(&out);
        assert_eq!(frames.len(), 2);
        assert!(frames[0].contains("\"cached\":false"));
        assert!(frames[1].contains("\"cached\":true"));
        assert_eq!(
            frames[1].replacen("\"cached\":true", "\"cached\":false", 1),
            frames[0]
        );
        // And the miss frame is exactly the client-side `Value` render.
        let sys = DataCenterSystem::paper_system(1);
        let d = BillCapper::default()
            .decide_hour(&sys, 5e8, 3e8, &[330.0, 410.0, 280.0], f64::INFINITY)
            .unwrap();
        assert_eq!(
            frames[0],
            Response::Decision(DecisionMsg::from_decision(7, &d, false))
                .to_value()
                .render()
        );
    }

    /// Counts `write` calls; accepts every byte it is offered.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_frame_is_one_write() {
        // Misses, hits, an in-band error and both control replies.
        let mut input = encode(&[request(1), request(2), request(3)]);
        let mut other = request(4);
        other.offered = 4e8;
        write_frame(&mut input, other.to_value().render().as_bytes()).unwrap();
        write_frame(&mut input, b"{\"id\":5,\"policy\":99}").unwrap();
        for ctl in [
            ControlMsg::Metrics { id: Some(6) },
            ControlMsg::Health { id: None },
        ] {
            write_frame(&mut input, ctl.to_value().render().as_bytes()).unwrap();
        }
        let mut w = CountingWriter::default();
        let stats = serve(&one_worker(), Cursor::new(input), &mut w);
        assert_eq!((stats.decisions, stats.errors), (4, 1));
        assert_eq!((stats.cache_misses, stats.cache_hits), (2, 2));
        let frames = responses(&w.bytes);
        assert_eq!(frames.len(), 7);
        assert_eq!(w.writes, frames.len(), "one write call per frame");
    }

    #[test]
    fn bounded_cache_counts_exactly_and_resolves_evicted_keys_identically() {
        let cfg = ServeConfig {
            workers: 1,
            cache_capacity: 4,
            ..ServeConfig::default()
        };
        let distinct: Vec<Request> = (0..10u64)
            .map(|i| {
                let mut r = request(i);
                r.offered += i as f64;
                r
            })
            .collect();
        // Ten distinct hours, all ten again (FIFO order makes every one
        // a miss: each was evicted before its repeat), then the four
        // the cache still holds.
        let mut stream = distinct.clone();
        stream.extend(distinct.iter().cloned());
        stream.extend(distinct[6..].iter().cloned());
        let mut input = encode(&stream);
        write_frame(
            &mut input,
            ControlMsg::Metrics { id: None }
                .to_value()
                .render()
                .as_bytes(),
        )
        .unwrap();
        let mut out = Vec::new();
        let stats = serve(&cfg, Cursor::new(input), &mut out);
        assert_eq!(stats.decisions, 24);
        assert_eq!(stats.cache_misses, 20);
        assert_eq!(stats.cache_evictions, 16);
        assert_eq!(stats.cache_hits, 4);

        let mut frames = payloads(&out);
        let scrape = frames
            .iter()
            .position(|f| f.contains("\"metrics\""))
            .unwrap();
        let doc = match Response::parse(frames.remove(scrape).as_bytes()).unwrap() {
            Response::Metrics { doc, .. } => doc,
            other => panic!("got {other:?}"),
        };
        assert!(doc.gauges["serve.cache.len"] <= 4.0);
        // One worker answers in request order.
        assert_eq!(frames.len(), 24);
        for i in 0..10 {
            assert!(frames[i].contains("\"cached\":false"));
            assert_eq!(frames[10 + i], frames[i], "re-solved hour {i}");
        }
        for (i, hit) in frames[20..].iter().enumerate() {
            assert_eq!(
                hit.replacen("\"cached\":true", "\"cached\":false", 1),
                frames[6 + i]
            );
        }
    }

    #[test]
    fn malformed_request_gets_an_error_and_the_stream_continues() {
        let mut input = Vec::new();
        write_frame(&mut input, b"{\"id\":10,\"policy\":99}").unwrap();
        write_frame(&mut input, request(11).to_value().render().as_bytes()).unwrap();
        let mut out = Vec::new();
        let stats = serve(&one_worker(), Cursor::new(input), &mut out);
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.decisions, 1);
        assert_eq!(stats.errors, 1);
        let rs = responses(&out);
        let error = rs
            .iter()
            .find_map(|r| match r {
                Response::Error { id, message } => Some((*id, message.clone())),
                _ => None,
            })
            .expect("one error response");
        assert_eq!(error.0, Some(10));
        assert!(
            rs.iter()
                .any(|r| matches!(r, Response::Decision(m) if m.id == 11)),
            "valid request after the bad one must still be answered"
        );
    }

    #[test]
    fn truncated_stream_reports_a_frame_error_but_serves_queued_work() {
        let mut input = encode(&[request(1)]);
        input.extend_from_slice(&[0, 0]); // half a header
        let mut out = Vec::new();
        let stats = serve(&one_worker(), Cursor::new(input), &mut out);
        assert_eq!(stats.decisions, 1);
        assert!(stats.frame_error.is_some());
        assert!(responses(&out)
            .iter()
            .any(|r| matches!(r, Response::Error { id: None, .. })));
    }

    #[test]
    fn multi_worker_answers_every_request() {
        let requests: Vec<Request> = (0..12).map(request).collect();
        let input = encode(&requests);
        let cfg = ServeConfig {
            workers: 4,
            cache: false,
            ..ServeConfig::default()
        };
        let mut out = Vec::new();
        let stats = serve(&cfg, Cursor::new(input), &mut out);
        assert_eq!(stats.decisions, 12);
        let mut ids: Vec<u64> = responses(&out)
            .into_iter()
            .map(|r| match r {
                Response::Decision(m) => m.id,
                other => panic!("got {other:?}"),
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<u64>>());
    }

    #[test]
    fn metrics_frame_is_answered_in_band() {
        // Three decide requests then a metrics scrape. The reader has
        // enqueued (and counted) all three data frames before it can
        // read the scrape, so `serve.requests` is exact even though the
        // decisions may still be in flight at scrape time.
        let mut input = encode(&[request(1), request(2), request(3)]);
        write_frame(
            &mut input,
            ControlMsg::Metrics { id: Some(99) }
                .to_value()
                .render()
                .as_bytes(),
        )
        .unwrap();
        let mut out = Vec::new();
        let stats = serve(&one_worker(), Cursor::new(input), &mut out);
        assert_eq!(stats.requests, 3, "control frames are not data requests");
        assert_eq!(stats.decisions, 3);
        let doc = responses(&out)
            .into_iter()
            .find_map(|r| match r {
                Response::Metrics { id, doc } => {
                    assert_eq!(id, Some(99));
                    Some(doc)
                }
                _ => None,
            })
            .expect("a metrics response");
        assert_eq!(doc.version, billcap_obs::METRICS_VERSION);
        assert_eq!(doc.counters["serve.requests"], 3);
        assert_eq!(doc.counters["serve.control"], 1);
        assert!(doc.counters.contains_key("core.engine.rebuilds_unique"));
        assert!(doc.latency.contains_key("request_us"));
        assert!(doc.latency.contains_key("solve_us"));
    }

    #[test]
    fn health_frame_reports_ok_on_a_quiet_server() {
        let mut input = Vec::new();
        write_frame(
            &mut input,
            ControlMsg::Health { id: None }
                .to_value()
                .render()
                .as_bytes(),
        )
        .unwrap();
        let mut out = Vec::new();
        let stats = serve(&one_worker(), Cursor::new(input), &mut out);
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.decisions, 0);
        match responses(&out).as_slice() {
            [Response::Health { ok, reasons, .. }] => {
                assert!(*ok, "unexpected degradation: {reasons:?}");
                assert!(reasons.is_empty());
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn unknown_control_op_is_answered_with_an_error() {
        let mut input = Vec::new();
        write_frame(&mut input, br#"{"op":"reboot"}"#).unwrap();
        let mut out = Vec::new();
        let stats = serve(&one_worker(), Cursor::new(input), &mut out);
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.errors, 1);
        assert!(responses(&out)
            .iter()
            .any(|r| matches!(r, Response::Error { message, .. } if message.contains("control"))));
    }

    #[test]
    fn health_reasons_cover_every_degradation() {
        assert!(health_reasons(0, 0, 0).is_empty());
        let degraded = health_reasons(HEALTH_QUEUE_WARN + 1, 2, 1);
        assert_eq!(degraded.len(), 3);
        assert!(degraded[0].contains("framing"));
        assert!(degraded[1].contains("queue depth"));
        assert!(degraded[2].contains("dropped 2"));
    }

    #[test]
    fn window_rotation_streams_parseable_metrics_lines() {
        let path = std::env::temp_dir().join(format!(
            "billcap-metrics-stream-{}.jsonl",
            std::process::id()
        ));
        let cfg = ServeConfig {
            workers: 1,
            window_requests: 2,
            metrics_stream: Some(path.clone()),
            ..ServeConfig::default()
        };
        let input = encode(&(0..5).map(request).collect::<Vec<_>>());
        let mut out = Vec::new();
        let tele = ServerTelemetry::open(&cfg).unwrap();
        let stats = serve_with(&cfg, Cursor::new(input), &mut out, &tele);
        assert_eq!(stats.decisions, 5);

        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let docs: Vec<MetricsDoc> = text
            .lines()
            .map(|l| MetricsDoc::parse_json(l).unwrap())
            .collect();
        // Rotations fire after data frames 2 and 4, and the tail
        // window (request 5 plus everything the deciders finished
        // after the last boundary) is flushed at end of stream.
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[0].tick, 0);
        assert_eq!(docs[1].tick, 1);
        assert_eq!(docs[1].counters["serve.requests"], 4);
        let last = &docs[2];
        assert_eq!(last.tick, 2);
        assert_eq!(last.counters["serve.requests"], 5);
        assert_eq!(last.counters["serve.decisions"], 5);
        // The pool joined before the final flush: the summary line
        // carries every latency observation. All five requests repeat
        // the same hour, so only the first actually solves — solve-only
        // latency excludes cache hits by design.
        assert_eq!(last.latency["request_us"].count, 5);
        assert_eq!(last.latency["solve_us"].count, 1);
        assert_eq!(last.counters["serve.cache.hit"], 4);
    }

    #[test]
    fn telemetry_disabled_still_counts_work_exactly() {
        let cfg = ServeConfig {
            workers: 1,
            telemetry: false,
            ..ServeConfig::default()
        };
        let mut input = encode(&[request(1), request(2)]);
        write_frame(
            &mut input,
            ControlMsg::Metrics { id: None }
                .to_value()
                .render()
                .as_bytes(),
        )
        .unwrap();
        let mut out = Vec::new();
        let stats = serve(&cfg, Cursor::new(input), &mut out);
        assert_eq!(stats.decisions, 2);
        assert_eq!(stats.cache_hits, 1);
        let doc = responses(&out)
            .into_iter()
            .find_map(|r| match r {
                Response::Metrics { doc, .. } => Some(doc),
                _ => None,
            })
            .expect("a metrics response");
        // Work counters stay exact with instrumentation off...
        assert_eq!(doc.counters["serve.requests"], 2);
        // ...only the wall-clock series go quiet.
        assert_eq!(doc.latency["request_us"].count, 0);
        assert_eq!(doc.latency["solve_us"].count, 0);
        assert_eq!(doc.tick, 0);
    }

    /// Connects to a `serve_unix` socket that another thread is about
    /// to bind, retrying until a wall-clock deadline. On give-up it
    /// connects once more and drops the connection, so a server that
    /// bound late returns from `accept` instead of hanging the test.
    #[cfg(unix)]
    fn connect_before_deadline(path: &std::path::Path) -> std::os::unix::net::UnixStream {
        use std::os::unix::net::UnixStream;
        const DEADLINE_NS: u64 = 30_000_000_000;
        let clock = Stopwatch::start();
        loop {
            match UnixStream::connect(path) {
                Ok(s) => return s,
                Err(_) if clock.elapsed_ns() < DEADLINE_NS => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(e) => {
                    drop(UnixStream::connect(path));
                    panic!("connect to {} within 30 s: {e}", path.display());
                }
            }
        }
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip() {
        use std::io::Write as _;
        let dir = std::env::temp_dir();
        let path = dir.join(format!("billcap-serve-test-{}.sock", std::process::id()));
        let path_clone = path.clone();
        let cfg = one_worker();
        // Client on a second thread via the workspace pool: connect,
        // send one request, read one response, close.
        let result: Mutex<Option<Response>> = Mutex::new(None);
        let server_stats: Mutex<Vec<ServeStats>> = Mutex::new(Vec::new());
        run_workers(2, |w| {
            if w == 0 {
                let stats = serve_unix(&cfg, &path_clone, true).unwrap();
                *lock(&server_stats) = stats;
            } else {
                let stream = connect_before_deadline(&path);
                let mut writer = stream.try_clone().unwrap();
                write_frame(&mut writer, request(5).to_value().render().as_bytes()).unwrap();
                writer.flush().unwrap();
                let mut reader = stream;
                let frame = read_frame(&mut reader, MAX_FRAME).unwrap().unwrap();
                *lock(&result) = Some(Response::parse(&frame).unwrap());
                drop(reader);
                drop(writer);
            }
        });
        let _ = std::fs::remove_file(&path);
        match lock(&result).take() {
            Some(Response::Decision(m)) => assert_eq!(m.id, 5),
            other => panic!("got {other:?}"),
        }
        assert_eq!(lock(&server_stats)[0].decisions, 1);
    }

    /// The acceptance shape in miniature: a client that has read every
    /// decision response and then scrapes sees counters equal to the
    /// final [`ServeStats`].
    #[cfg(unix)]
    #[test]
    fn scrape_after_all_responses_matches_serve_stats() {
        use std::io::Write as _;
        let path =
            std::env::temp_dir().join(format!("billcap-serve-scrape-{}.sock", std::process::id()));
        let path_clone = path.clone();
        let cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let scraped: Mutex<Option<MetricsDoc>> = Mutex::new(None);
        let server_stats: Mutex<Vec<ServeStats>> = Mutex::new(Vec::new());
        run_workers(2, |w| {
            if w == 0 {
                let stats = serve_unix(&cfg, &path_clone, true).unwrap();
                *lock(&server_stats) = stats;
            } else {
                let stream = connect_before_deadline(&path);
                let mut writer = stream.try_clone().unwrap();
                let mut reader = stream;
                // Distinct requests (no cache hits), answered out of
                // order is fine — read until all six are in.
                for id in 0..6u64 {
                    let mut r = request(id);
                    r.offered += id as f64; // distinct keys
                    write_frame(&mut writer, r.to_value().render().as_bytes()).unwrap();
                }
                writer.flush().unwrap();
                for _ in 0..6 {
                    let frame = read_frame(&mut reader, MAX_FRAME).unwrap().unwrap();
                    match Response::parse(&frame).unwrap() {
                        Response::Decision(_) => {}
                        other => panic!("got {other:?}"),
                    }
                }
                // All responses read: the scrape must show final totals.
                write_frame(
                    &mut writer,
                    ControlMsg::Metrics { id: Some(1) }
                        .to_value()
                        .render()
                        .as_bytes(),
                )
                .unwrap();
                writer.flush().unwrap();
                let frame = read_frame(&mut reader, MAX_FRAME).unwrap().unwrap();
                match Response::parse(&frame).unwrap() {
                    Response::Metrics { doc, .. } => *lock(&scraped) = Some(doc),
                    other => panic!("got {other:?}"),
                }
            }
        });
        let _ = std::fs::remove_file(&path);
        let doc = lock(&scraped).take().expect("scrape arrived");
        let stats = lock(&server_stats)[0].clone();
        assert_eq!(doc.counters["serve.requests"], stats.requests);
        assert_eq!(doc.counters["serve.decisions"], stats.decisions);
        assert_eq!(doc.counters["serve.errors"], stats.errors);
        assert_eq!(doc.counters["serve.cache.hit"], stats.cache_hits);
        assert_eq!(doc.counters["serve.cache.miss"], stats.cache_misses);
        assert_eq!(doc.counters["serve.cache.evict"], stats.cache_evictions);
        assert_eq!(stats.decisions, 6);
    }

    /// [`serve_unix`] keeps one telemetry for all its connections: each
    /// connection's [`ServeStats`] counts only its own work, and a scrape
    /// on a later connection counts every earlier one.
    #[test]
    fn sequential_connections_on_one_telemetry_count_their_own_work() {
        let cfg = ServeConfig {
            workers: 1,
            cache_capacity: 2,
            ..ServeConfig::default()
        };
        let tele = ServerTelemetry::new(&cfg);
        let hour = |id: u64, k: u64| {
            let mut r = request(id);
            r.offered += k as f64;
            r
        };
        // Three distinct hours and a repeat of the last: the third insert
        // evicts the first.
        let first = encode(&[hour(1, 0), hour(2, 1), hour(3, 2), hour(4, 2)]);
        let a = serve_with(&cfg, Cursor::new(first), Vec::new(), &tele);
        // A fresh connection's cache: one miss, one hit, one bad frame.
        let mut second = encode(&[hour(5, 0), hour(6, 0)]);
        write_frame(&mut second, b"{\"id\":7,\"policy\":99}").unwrap();
        let b = serve_with(&cfg, Cursor::new(second), Vec::new(), &tele);
        let counts = |s: &ServeStats| {
            [
                s.requests,
                s.decisions,
                s.errors,
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions,
            ]
        };
        assert_eq!(counts(&a), [4, 4, 0, 1, 3, 1]);
        assert_eq!(counts(&b), [3, 2, 1, 1, 1, 0]);

        let mut scrape = Vec::new();
        let metrics = ControlMsg::Metrics { id: Some(8) }.to_value().render();
        write_frame(&mut scrape, metrics.as_bytes()).unwrap();
        let mut out = Vec::new();
        let c = serve_with(&cfg, Cursor::new(scrape), &mut out, &tele);
        assert_eq!(c, ServeStats::default(), "a scrape is no work");
        let doc = match responses(&out).as_slice() {
            [Response::Metrics { doc, .. }] => doc.clone(),
            other => panic!("got {other:?}"),
        };
        let scraped = [
            "serve.requests",
            "serve.decisions",
            "serve.errors",
            "serve.cache.hit",
            "serve.cache.miss",
            "serve.cache.evict",
        ]
        .map(|name| doc.counters[name]);
        let both: Vec<u64> = counts(&a)
            .iter()
            .zip(counts(&b))
            .map(|(x, y)| x + y)
            .collect();
        assert_eq!(scraped.to_vec(), both);
    }

    /// Answers `ctl` frames on a fresh connection to `tele`, after any
    /// earlier connection's pool has joined.
    fn control_replies(
        cfg: &ServeConfig,
        tele: &ServerTelemetry,
        ctl: &[ControlMsg],
    ) -> Vec<Response> {
        let mut input = Vec::new();
        for c in ctl {
            write_frame(&mut input, c.to_value().render().as_bytes()).unwrap();
        }
        let mut out = Vec::new();
        serve_with(cfg, Cursor::new(input), &mut out, tele);
        responses(&out)
    }

    fn scrape(cfg: &ServeConfig, tele: &ServerTelemetry) -> MetricsDoc {
        match control_replies(cfg, tele, &[ControlMsg::Metrics { id: None }]).as_slice() {
            [Response::Metrics { doc, .. }] => doc.clone(),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn every_ledger_row_has_a_unique_name_and_reaches_build_doc_once() {
        let cfg = one_worker();
        let tele = ServerTelemetry::new(&cfg);
        for (i, (count, _, _)) in LEDGER.into_iter().enumerate() {
            assert_eq!(count as usize, i, "row {i} is out of key order");
            tele.add(count, i as u64 + 1);
        }
        let names: std::collections::BTreeSet<&str> = LEDGER.iter().map(|row| row.1).collect();
        assert_eq!(names.len(), LEDGER.len(), "a name is used twice");

        let doc = build_doc(&cfg, &Shared::new(&cfg, Vec::new(), &tele), 0);
        for (i, (_, name, tier)) in LEDGER.into_iter().enumerate() {
            let n = i as u64 + 1;
            let found = (doc.counters.get(name), doc.gauges.get(name));
            match tier {
                Tier::Exact => assert_eq!(found, (Some(&n), None), "{name}"),
                Tier::Advisory => assert_eq!(found, (None, Some(&(n as f64))), "{name}"),
            }
        }
        // Every exact counter in a scrape is a ledger row.
        let exact = LEDGER.iter().filter(|row| row.2 == Tier::Exact).count();
        assert_eq!(doc.counters.len(), exact);
    }

    /// Refuses every write, like a socket whose client hung up.
    struct HungUpWriter;

    impl Write for HungUpWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failed_response_writes_show_in_a_later_scrape() {
        let cfg = one_worker();
        let tele = ServerTelemetry::new(&cfg);
        let mut input = encode(&[request(1), request(2)]);
        write_frame(&mut input, b"{\"id\":3,\"policy\":99}").unwrap();
        let lost = serve_with(&cfg, Cursor::new(input), HungUpWriter, &tele);
        assert_eq!((lost.decisions, lost.errors), (2, 1));

        let doc = scrape(&cfg, &tele);
        assert_eq!(doc.gauges["serve.write_failed"], 3.0);
        assert_eq!(doc.gauges["serve.stream_write_failed"], 0.0);
        assert_eq!(doc.counters["serve.decisions"], 2);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_full_metrics_stream_shows_in_scrapes_and_degrades_health() {
        let cfg = ServeConfig {
            workers: 1,
            window_requests: 1,
            metrics_stream: Some("/dev/full".into()),
            ..ServeConfig::default()
        };
        let tele = ServerTelemetry::open(&cfg).unwrap();
        let stats = serve_with(
            &cfg,
            Cursor::new(encode(&[request(1), request(2)])),
            Vec::new(),
            &tele,
        );
        assert_eq!(stats.decisions, 2, "a lost metrics line loses no decision");

        let replies = control_replies(
            &cfg,
            &tele,
            &[
                ControlMsg::Metrics { id: None },
                ControlMsg::Health { id: None },
            ],
        );
        match replies.as_slice() {
            [Response::Metrics { doc, .. }, Response::Health { ok, reasons, .. }] => {
                assert!(doc.gauges["serve.stream_write_failed"] > 0.0);
                assert!(!ok);
                assert!(
                    reasons.iter().any(|r| r.contains("metrics stream")),
                    "{reasons:?}"
                );
            }
            other => panic!("got {other:?}"),
        }
    }

    /// Models of two pricing policies can share a structure
    /// fingerprint, so unique rebuilds are counted per policy: the same
    /// hours under policies 1 and 2 build as many distinct models as
    /// the two policies do apart.
    #[test]
    fn unique_rebuilds_count_each_policy_apart() {
        let cfg = ServeConfig {
            workers: 1,
            cache: false,
            ..ServeConfig::default()
        };
        let hours = |policy: usize| -> Vec<Request> {
            (0..6u64)
                .map(|i| Request {
                    policy,
                    background_mw: vec![330.0 - 40.0 * i as f64, 410.0, 280.0 + 30.0 * i as f64],
                    hourly_budget: if i % 2 == 0 { f64::INFINITY } else { 2_000.0 },
                    ..request(i)
                })
                .collect()
        };
        let unique = |requests: &[Request]| {
            let tele = ServerTelemetry::new(&cfg);
            let stats = serve_with(&cfg, Cursor::new(encode(requests)), Vec::new(), &tele);
            assert_eq!(stats.errors, 0);
            scrape(&cfg, &tele).counters["core.engine.rebuilds_unique"]
        };
        let (one, two) = (unique(&hours(1)), unique(&hours(2)));
        assert!(one > 0 && two > 0);
        let both: Vec<Request> = hours(1).into_iter().chain(hours(2)).collect();
        assert_eq!(unique(&both), one + two);
    }
}
