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
//!  ServerTelemetry ◀──latency/counters  Mutex<W> ◀──batches of frames─┘
//! ```
//!
//! * Each worker owns one [`DecisionEngine`] per pricing policy, so
//!   model reuse never crosses threads and needs no locking. The
//!   engine's [`system_fingerprint`] is hashed once, when the engine is
//!   created; cache keys reuse it.
//! * The decision cache (optional) is shared: one hour solved by any
//!   worker is a hit for every worker. It holds rendered response
//!   bodies, not decisions: a miss renders its whole frame once, into
//!   the decider's reused buffer, and keeps a copy of the id-free body
//!   (the bytes of [`render_decision_body`]); a hit splices the request
//!   id in front of the stored bytes ([`render_decision_frame`]).
//! * The reader reads through a [`BufReader`]. Each decider gathers
//!   its answered frames, whole and with their headers, in one reused
//!   batch and writes the batch in one `write_all` under the writer
//!   mutex: before it blocks on an empty queue, once the batch holds
//!   16 KiB (`BATCH_BYTES`), and when it exits. So a burst costs one write
//!   per batch, and a lone request in flight still leaves at once. The
//!   reader's control replies are written at once, one frame each.
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
//!   response and metrics-stream writes, the count of response
//!   writes, windowed latency histograms (from enqueue to the write of
//!   the answer's batch, and solve-only, microseconds), queue-depth
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
//! Responses are written in completion order (one worker's frames,
//! errors included, leave in the order it answered them); clients
//! correlate by `id`. Every response body is bitwise-identical to an
//! in-process one-shot decision
//! ([`billcap_core::BillCapper::decide_hour`]) on the same request: the
//! workers' retained engines decide exactly like one-shot engines (the
//! engine's bitwise contract), and a cache hit replays a body rendered
//! from such a decision.
//!
//! [`render_decision_body`]: crate::protocol::render_decision_body

use crate::protocol::{
    finish_frame, read_frame, render_decision_frame, render_fresh_decision_frame, ControlMsg,
    FrameError, Request, Response, MAX_FRAME,
};
use billcap_core::{
    system_fingerprint, DataCenterSystem, DecisionCache, DecisionEngine, DecisionKey, EngineStats,
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

/// A decider writes its batch once the batch holds this many bytes, so
/// a deep queue cannot hold answers back without bound; a frame larger
/// than the bound (up to [`MAX_FRAME`]) is written as soon as it joins.
/// On serve bursts 16 KiB gave more throughput than 4 or 8 KiB.
const BATCH_BYTES: usize = 16 * 1024;

/// Server tuning knobs: workers, the shared decision cache and
/// telemetry. The decision engines themselves take no settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Decision workers (the reader thread is extra). Minimum 1.
    pub workers: usize,
    /// Share finished decisions through a [`DecisionCache`].
    pub cache: bool,
    /// Capacity of the shared decision cache.
    pub cache_capacity: usize,
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
    /// Latency from enqueue to the write of the answer's batch, µs.
    request_us: WindowedHistogram,
    /// `decide_hour` solve time alone, µs.
    solve_us: WindowedHistogram,
}

/// Continuous-telemetry state for a server. One instance per [`serve`]
/// call, or one per *process* under [`serve_unix`] so counters and
/// latency windows accumulate across connections.
///
/// Every counter a response frame answers for moves when the frame
/// joins its decider's batch, before the batch is written, so a client
/// that has read `N` decision responses and then scrapes sees counters
/// covering at least those `N`.
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
    ResponseWrites,
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
const LEDGER: [(Count, &str, Tier); 15] = {
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
        (ResponseWrites, "serve.response_writes", Advisory),
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

    /// Ends the `request_us` of every stamped request, under one lock.
    fn record_request_us(&self, stamps: &[Stopwatch]) {
        let mut lat = lock(&self.latency);
        for sw in stamps {
            lat.request_us.record(sw.elapsed_ns() as f64 / 1_000.0);
        }
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
    /// Rendered decision bodies (the bytes of
    /// [`render_decision_body`](crate::protocol::render_decision_body)),
    /// keyed like decisions: a hit splices its id in front and never
    /// re-renders.
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

    /// Answers from the reader thread (control replies, a bad control
    /// frame, the terminal framing error): a one-frame batch, written
    /// at once.
    fn respond(&self, response: &Response) {
        let mut batch = Batch::default();
        batch.push_response(self.tele, response);
        batch.flush(self);
    }
}

/// Response frames, whole and with their headers, waiting to leave in
/// one write. Each decider reuses one; the reader's replies go out in
/// one-frame batches.
#[derive(Default)]
struct Batch {
    bytes: Vec<u8>,
    /// Frames in `bytes`.
    frames: u64,
    /// Enqueue stamps of the requests answered since the last flush:
    /// their `request_us` ends when the batch has been written.
    stamps: Vec<Stopwatch>,
}

impl Batch {
    /// Adds one rendered frame, after moving the exact counter it
    /// answers for.
    fn push(
        &mut self,
        tele: &ServerTelemetry,
        count: Option<Count>,
        frame: std::io::Result<&[u8]>,
    ) {
        // Counters move when the frame joins the batch, before it is
        // written, so a scrape issued after reading N responses always
        // covers those N.
        if let Some(count) = count {
            tele.add(count, 1);
        }
        match frame {
            Ok(bytes) => {
                self.bytes.extend_from_slice(bytes);
                self.frames += 1;
            }
            // A frame that cannot be rendered is lost like one whose
            // write failed.
            Err(_) => tele.add(Count::WriteFailed, 1),
        }
    }

    /// Adds a response that has no direct renderer (errors, metrics,
    /// health), after moving the exact counter it answers for: its
    /// `Value` tree is rendered straight onto the end of the batch,
    /// behind a header filled in once the payload's length is known. A
    /// payload over [`MAX_FRAME`], which no reader accepts, is cut off
    /// again and lost like a frame whose write failed.
    fn push_response(&mut self, tele: &ServerTelemetry, response: &Response) {
        let count = match response {
            Response::Decision(_) => Some(Count::Decisions),
            Response::Error { .. } => Some(Count::Errors),
            Response::Metrics { .. } | Response::Health { .. } => None,
        };
        if let Some(count) = count {
            tele.add(count, 1);
        }
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&[0; 4]);
        response.to_value().render_into(&mut self.bytes);
        let fits = self.bytes.len() - start - 4 <= MAX_FRAME;
        if fits && finish_frame(&mut self.bytes[start..]).is_ok() {
            self.frames += 1;
        } else {
            self.bytes.truncate(start);
            tele.add(Count::WriteFailed, 1);
        }
    }

    fn is_empty(&self) -> bool {
        self.frames == 0 && self.stamps.is_empty()
    }

    /// Writes every frame in the batch with one `write_all` under the
    /// writer mutex, then ends its requests' `request_us`: the one
    /// place a response reaches the transport.
    fn flush<W: Write>(&mut self, shared: &Shared<'_, W>) {
        if self.frames > 0 {
            shared.tele.add(Count::ResponseWrites, 1);
            let ok = {
                let mut w = lock(&shared.writer);
                w.write_all(&self.bytes).and_then(|()| w.flush())
            };
            if ok.is_err() {
                // The client is gone; keep draining the queue so the
                // call terminates, and count every frame it lost.
                shared.tele.add(Count::WriteFailed, self.frames);
            }
            self.bytes.clear();
            self.frames = 0;
        }
        if !self.stamps.is_empty() {
            shared.tele.record_request_us(&self.stamps);
            self.stamps.clear();
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
            run_decider(&shared);
        }
    });

    // Flush the tail window: work recorded since the last rotation
    // boundary (or everything, when rotation never fired) would
    // otherwise never reach the stream. The pool has joined, so this
    // final line carries the connection's complete counters and the
    // latency retained in the window ring — a deterministic
    // end-of-stream summary. A connection that sent no request (a
    // `billcap watch` session, control frames only) did no work to
    // flush: it writes no line and leaves the ring as it was.
    let moved = |count: Count| tele.get(count) - start[count as usize];
    if tele.enabled() && tele.stream.is_some() && moved(Count::Requests) > 0 {
        emit_window(cfg, &shared);
    }

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

fn run_decider<W: Write>(shared: &Shared<'_, W>) {
    let mut engines: HashMap<usize, EngineState> = HashMap::new();
    // One decision-frame buffer and one batch per worker, reused for
    // every frame.
    let mut out = Vec::new();
    let mut batch = Batch::default();
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
                if !batch.is_empty() {
                    // Write before blocking: a closed-loop client sends
                    // nothing more until it has these answers.
                    drop(q);
                    batch.flush(shared);
                    q = lock(&shared.queue);
                    continue;
                }
                q = shared
                    .available
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((frame, stamp)) = entry else { break };
        handle_request(shared, &mut engines, &mut out, &mut batch, &frame);
        // The request's `request_us` ends when its batch is written.
        batch.stamps.extend(stamp);
        if batch.bytes.len() >= BATCH_BYTES {
            batch.flush(shared);
        }
    }
    batch.flush(shared);
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

/// Answers one data frame into `batch`. A decision is rendered once,
/// on the miss that solves it; a cache hit copies the stored body
/// behind a fresh id into `out` and formats no float.
fn handle_request<W: Write>(
    shared: &Shared<'_, W>,
    engines: &mut HashMap<usize, EngineState>,
    out: &mut Vec<u8>,
    batch: &mut Batch,
    frame: &[u8],
) {
    let mut span = billcap_obs::span("serve.request");
    let req = match Request::parse(frame) {
        Ok(r) => r,
        Err(e) => {
            span.field("error", 1.0);
            drop(span);
            batch.push_response(
                shared.tele,
                &Response::Error {
                    id: e.id,
                    message: e.message,
                },
            );
            return;
        }
    };
    span.field("id", req.id as f64);
    span.field("policy", req.policy as f64);

    let state = engines.entry(req.policy).or_insert_with(|| {
        let system = DataCenterSystem::paper_system(req.policy);
        let e = DecisionEngine::new(system);
        EngineState {
            fingerprint: system_fingerprint(e.system()),
            engine: e,
        }
    });

    let key = shared.cache.as_ref().map(|_| {
        DecisionKey::with_fingerprint(
            state.fingerprint,
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
            batch.push(
                shared.tele,
                Some(Count::Decisions),
                rendered.map(|()| out.as_slice()),
            );
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
            let rendered = render_fresh_decision_frame(out, req.id, &decision);
            if let (Some(cache), Some(key), Ok(body)) = (&shared.cache, key, &rendered) {
                let evicted = lock(cache).insert(key, Box::from(&out[*body..]));
                shared.tele.add(Count::CacheEvictions, evicted);
            }
            batch.push(
                shared.tele,
                Some(Count::Decisions),
                rendered.map(|_| out.as_slice()),
            );
        }
        Err(e) => {
            span.field("error", 1.0);
            drop(span);
            batch.push_response(
                shared.tele,
                &Response::Error {
                    id: Some(req.id),
                    message: format!("decision failed: {e}"),
                },
            );
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
    use crate::protocol::{write_frame, DecisionMsg};
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

    /// Records where every `write` call ends; accepts every byte it is
    /// offered.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        /// End offset in `bytes` of each `write` call.
        writes: Vec<usize>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            self.writes.push(self.bytes.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The `start..end` byte span of every frame in `bytes`.
    fn frame_spans(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut spans = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let header: [u8; 4] = bytes[at..at + 4].try_into().unwrap();
            let end = at + 4 + u32::from_be_bytes(header) as usize;
            spans.push(at..end);
            at = end;
        }
        spans
    }

    #[test]
    fn every_response_frame_lies_whole_inside_one_write() {
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
        let cfg = one_worker();
        let tele = ServerTelemetry::new(&cfg);
        let mut w = CountingWriter::default();
        let stats = serve_with(&cfg, Cursor::new(input), &mut w, &tele);
        assert_eq!((stats.decisions, stats.errors), (4, 1));
        assert_eq!((stats.cache_misses, stats.cache_hits), (2, 2));
        assert_eq!(responses(&w.bytes).len(), 7);
        for span in frame_spans(&w.bytes) {
            // The write that carries a frame's first byte carries its last.
            let first = w.writes.partition_point(|&end| end <= span.start);
            assert!(
                span.end <= w.writes[first],
                "frame {span:?} torn across writes ending at {:?}",
                w.writes
            );
        }
        assert!(
            w.writes.len() <= 7,
            "more writes than frames: {:?}",
            w.writes
        );
        assert_eq!(tele.get(Count::ResponseWrites), w.writes.len() as u64);
    }

    /// Whatever the schedule, no write carries more than one frame past
    /// the batch bound.
    #[test]
    fn no_write_runs_past_the_batch_bound_by_more_than_one_frame() {
        // One miss, then cache hits that a single worker answers in
        // bursts while the reader fills the queue.
        let input = encode(&(0..100).map(request).collect::<Vec<_>>());
        let mut w = CountingWriter::default();
        let stats = serve(&one_worker(), Cursor::new(input), &mut w);
        assert_eq!(stats.decisions, 100);
        let spans = frame_spans(&w.bytes);
        let largest = spans.iter().map(|s| s.len()).max().unwrap();
        let mut start = 0;
        for &end in &w.writes {
            assert!(
                end - start < BATCH_BYTES + largest,
                "a {}-byte write",
                end - start
            );
            start = end;
        }
    }

    #[test]
    fn a_failed_batch_write_counts_every_frame_it_lost() {
        let cfg = one_worker();
        let tele = ServerTelemetry::new(&cfg);
        let shared = Shared::new(&cfg, HungUpWriter, &tele);
        let mut batch = Batch::default();
        for id in 0..3 {
            batch.push_response(
                &tele,
                &Response::Error {
                    id: Some(id),
                    message: "lost".into(),
                },
            );
        }
        assert_eq!(tele.get(Count::Errors), 3, "counted on joining the batch");
        assert_eq!(tele.get(Count::ResponseWrites), 0);
        batch.flush(&shared);
        assert!(batch.is_empty());
        assert_eq!(tele.get(Count::ResponseWrites), 1);
        assert_eq!(tele.get(Count::WriteFailed), 3);
    }

    /// Error, metrics and health replies rendered in place are the
    /// frames `write_frame` makes of their `Value` rendering, byte for
    /// byte; a payload over `MAX_FRAME` is cut back off and counted lost.
    #[test]
    fn replies_render_in_place_into_their_exact_frames() {
        let cfg = one_worker();
        let tele = ServerTelemetry::new(&cfg);
        tele.add(Count::Decisions, 5);
        let shared = Shared::new(&cfg, Vec::new(), &tele);
        let replies = [
            Response::Error {
                id: Some(7),
                message: "decision failed: \"quoted\"\n\u{e9}".into(),
            },
            Response::Error {
                id: None,
                message: String::new(),
            },
            Response::Metrics {
                id: Some(3),
                doc: build_doc(&cfg, &shared, 2),
            },
            Response::Health {
                id: None,
                ok: false,
                reasons: vec!["queue deep".into(), "stream failing".into()],
            },
        ];
        let mut batch = Batch::default();
        let mut expected = Vec::new();
        for reply in &replies {
            batch.push_response(&tele, reply);
            write_frame(&mut expected, reply.to_value().render().as_bytes()).unwrap();
        }
        assert_eq!(batch.bytes, expected);
        assert_eq!((batch.frames, tele.get(Count::Errors)), (4, 2));

        let oversized = Response::Error {
            id: Some(8),
            message: "x".repeat(MAX_FRAME),
        };
        batch.push_response(&tele, &oversized);
        assert_eq!(batch.bytes, expected, "the oversized frame is cut off");
        assert_eq!((batch.frames, tele.get(Count::Errors)), (4, 3));
        assert_eq!(tele.get(Count::WriteFailed), 1);
    }

    /// Sleeps in every `write` call, like the socket of a slow client.
    struct SlowWriter;

    impl Write for SlowWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::thread::sleep(std::time::Duration::from_millis(25));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A request's `request_us` ends when the batch carrying its answer
    /// has been written, so time spent writing shows in it.
    #[test]
    fn request_latency_ends_when_the_answer_is_written() {
        let cfg = one_worker();
        let tele = ServerTelemetry::new(&cfg);
        serve_with(&cfg, Cursor::new(encode(&[request(1)])), SlowWriter, &tele);
        let latency = &scrape(&cfg, &tele).latency["request_us"];
        assert_eq!(latency.count, 1);
        assert!(latency.mean >= 25_000.0, "{latency:?}");
    }

    /// At every `write` call, checks that the exact counters already
    /// cover every frame written so far, this call's frames included.
    struct ScrapingWriter<'t> {
        tele: &'t ServerTelemetry,
        bytes: Vec<u8>,
    }

    impl Write for ScrapingWriter<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            let seen = responses(&self.bytes);
            let count = |decision: bool| {
                seen.iter()
                    .filter(|r| match r {
                        Response::Decision(_) => decision,
                        Response::Error { .. } => !decision,
                        _ => false,
                    })
                    .count() as u64
            };
            assert!(self.tele.get(Count::Decisions) >= count(true));
            assert!(self.tele.get(Count::Errors) >= count(false));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn exact_counters_cover_every_frame_before_it_is_written() {
        let cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let tele = ServerTelemetry::new(&cfg);
        let mut input = encode(
            &(0..24)
                .map(|i| {
                    let mut r = request(i);
                    r.offered += (i % 6) as f64;
                    r
                })
                .collect::<Vec<_>>(),
        );
        write_frame(&mut input, b"{\"id\":30,\"policy\":99}").unwrap();
        let mut w = ScrapingWriter {
            tele: &tele,
            bytes: Vec::new(),
        };
        let stats = serve_with(&cfg, Cursor::new(input), &mut w, &tele);
        assert_eq!((stats.decisions, stats.errors), (24, 1));
        assert_eq!(responses(&w.bytes).len(), 25);
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

    /// A connection that carries only control frames (a `billcap
    /// watch` session) moves no request counter: it appends no line to
    /// the metrics stream and leaves the latency ring where it was.
    #[test]
    fn control_only_connections_leave_the_stream_and_ring_alone() {
        let path =
            std::env::temp_dir().join(format!("billcap-control-only-{}.jsonl", std::process::id()));
        let cfg = ServeConfig {
            workers: 1,
            metrics_stream: Some(path.clone()),
            ..ServeConfig::default()
        };
        let tele = ServerTelemetry::open(&cfg).unwrap();
        let ring = |tele: &ServerTelemetry| {
            let lat = lock(&tele.latency);
            (
                lat.request_us.tick(),
                lat.request_us.merged().count,
                lat.solve_us.merged().count,
            )
        };
        let stats = serve_with(
            &cfg,
            Cursor::new(encode(&[request(1), request(2)])),
            Vec::new(),
            &tele,
        );
        assert_eq!(stats.decisions, 2);
        let (text, before) = (std::fs::read_to_string(&path).unwrap(), ring(&tele));
        assert_eq!(
            text.lines().count(),
            1,
            "the working connection's tail line"
        );
        assert_eq!(before.1, 2, "the ring holds both requests");

        let replies = control_replies(
            &cfg,
            &tele,
            &[
                ControlMsg::Metrics { id: None },
                ControlMsg::Health { id: None },
            ],
        );
        assert_eq!(replies.len(), 2);
        let after = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(after, text, "a control-only connection wrote a stream line");
        assert_eq!(
            ring(&tele),
            before,
            "a control-only connection moved the ring"
        );
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
                // An answer that never comes fails the test, not hangs it.
                stream
                    .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                    .unwrap();
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
                stream
                    .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                    .unwrap();
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

    /// Runs `client` against [`serve_with`] over a connected socket
    /// pair. The client's end reads with a timeout, so an answer that
    /// never comes fails the test instead of hanging it, and each thread
    /// owns its end: when either returns or panics, the other sees
    /// end-of-stream.
    #[cfg(unix)]
    fn over_socket_pair(
        cfg: &ServeConfig,
        tele: &ServerTelemetry,
        client: impl Fn(std::os::unix::net::UnixStream) + Sync,
    ) -> ServeStats {
        let (server, near) = std::os::unix::net::UnixStream::pair().unwrap();
        near.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let ends = [Mutex::new(Some(server)), Mutex::new(Some(near))];
        let stats = Mutex::new(None);
        run_workers(2, |w| {
            let stream = lock(&ends[w]).take().unwrap();
            if w == 0 {
                *lock(&stats) = Some(serve_with(cfg, &stream, &stream, tele));
            } else {
                client(stream);
            }
        });
        stats.into_inner().unwrap().expect("the server returned")
    }

    /// A closed-loop client sends one request, reads its answer and
    /// only then sends the next. It gets every answer because a decider
    /// writes its batch before it blocks on an empty queue, and with one
    /// request in flight every frame is written on its own.
    #[cfg(unix)]
    #[test]
    fn a_closed_loop_client_gets_every_answer_before_it_sends_again() {
        for workers in [1, 4] {
            let cfg = ServeConfig {
                workers,
                ..ServeConfig::default()
            };
            let tele = ServerTelemetry::new(&cfg);
            let stats = over_socket_pair(&cfg, &tele, |mut stream| {
                for id in 0..50u64 {
                    // Five distinct hours, so most answers are cache hits.
                    let mut r = request(id);
                    r.offered += (id % 5) as f64;
                    write_frame(&mut stream, r.to_value().render().as_bytes()).unwrap();
                    let frame = read_frame(&mut stream, MAX_FRAME)
                        .unwrap_or_else(|e| panic!("answer {id} with {workers} workers: {e}"))
                        .expect("an answer before end of stream");
                    match Response::parse(&frame).unwrap() {
                        Response::Decision(m) => assert_eq!(m.id, id),
                        other => panic!("got {other:?}"),
                    }
                }
            });
            assert_eq!((stats.decisions, stats.cache_hits), (50, 45));
            assert_eq!(tele.get(Count::ResponseWrites), 50, "{workers} workers");
        }
    }

    /// One worker answers a pipelined stream in request order, errors
    /// included, however its frames are batched.
    #[cfg(unix)]
    #[test]
    fn one_worker_answers_a_pipelined_stream_in_request_order() {
        let cfg = one_worker();
        let tele = ServerTelemetry::new(&cfg);
        let mut other = request(2);
        other.offered = 4e8;
        let mut input = encode(&[request(1), other.clone(), request(3)]);
        other.id = 4;
        write_frame(&mut input, other.to_value().render().as_bytes()).unwrap();
        write_frame(&mut input, b"{\"id\":5,\"policy\":99}").unwrap();
        input.extend(encode(&[request(6)]));
        let answers: Mutex<Vec<(Option<u64>, &str)>> = Mutex::new(Vec::new());
        let stats = over_socket_pair(&cfg, &tele, |mut stream| {
            stream.write_all(&input).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            while let Some(frame) = read_frame(&mut stream, MAX_FRAME).unwrap() {
                lock(&answers).push(match Response::parse(&frame).unwrap() {
                    Response::Decision(m) => (Some(m.id), if m.cached { "hit" } else { "miss" }),
                    Response::Error { id, .. } => (id, "error"),
                    other => panic!("got {other:?}"),
                });
            }
        });
        assert_eq!((stats.decisions, stats.errors), (5, 1));
        assert_eq!(
            lock(&answers).as_slice(),
            [
                (Some(1), "miss"),
                (Some(2), "miss"),
                (Some(3), "hit"),
                (Some(4), "hit"),
                (Some(5), "error"),
                (Some(6), "hit"),
            ]
        );
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
