//! The [`Recorder`]: thread-local collection, RAII span guards, and
//! merge-on-flush aggregation.
//!
//! Each [`Recorder`] owns a shared aggregate behind one mutex. Threads
//! never touch that mutex on the hot path: every recording call goes to
//! a thread-local [`Collector`] keyed by recorder id, and the collector
//! merges its batch into the shared aggregate when the thread exits
//! (its `Drop`) or when the owning thread calls [`Recorder::flush`] /
//! [`Recorder::snapshot`]. This pairs naturally with `billcap-rt`'s
//! scoped worker pools: workers join before the pool call returns, so
//! their collectors have dropped — and merged — by the time the caller
//! snapshots.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{GaugeStat, HistogramSnapshot, SpanEvent, TraceSnapshot};

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// State shared by a recorder and all its thread-local collectors.
pub(crate) struct SharedRec {
    id: u64,
    epoch: Instant,
    agg: Mutex<TraceSnapshot>,
    next_thread: AtomicU64,
}

thread_local! {
    static COLLECTORS: RefCell<Vec<Collector>> = const { RefCell::new(Vec::new()) };
}

/// Per-thread buffered state for one recorder.
struct Collector {
    shared: Arc<SharedRec>,
    thread: u64,
    next_seq: u64,
    /// Open span paths on this thread, innermost last.
    stack: Vec<String>,
    buf: TraceSnapshot,
}

impl Collector {
    fn new(shared: Arc<SharedRec>) -> Self {
        let thread = shared.next_thread.fetch_add(1, Ordering::Relaxed);
        Self {
            shared,
            thread,
            next_seq: 0,
            stack: Vec::new(),
            buf: TraceSnapshot::default(),
        }
    }

    /// Moves everything buffered (plus any open spans, counted as
    /// orphans when `final_drop`) into the shared aggregate.
    fn drain(&mut self, final_drop: bool) {
        if final_drop {
            self.buf.orphans += self.stack.len() as u64;
            self.stack.clear();
        }
        if self.buf.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.buf);
        let mut agg = self.shared.agg.lock().unwrap_or_else(|e| e.into_inner());
        agg.merge(&batch);
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.drain(true);
    }
}

/// Runs `f` on this thread's collector for `shared`, creating it on
/// first use.
fn with_collector<R>(shared: &Arc<SharedRec>, f: impl FnOnce(&mut Collector) -> R) -> R {
    COLLECTORS.with(|cell| {
        let mut list = cell.borrow_mut();
        if let Some(c) = list.iter_mut().find(|c| c.shared.id == shared.id) {
            return f(c);
        }
        list.push(Collector::new(Arc::clone(shared)));
        let c = list.last_mut().expect("just pushed"); // detlint-allow(L001): pushed on the previous line
        f(c)
    })
}

/// A trace/metric recorder.
///
/// Cheap to clone (`Arc` inside); clones share the same aggregate.
/// Recording methods buffer into a thread-local collector and are
/// lock-free with respect to other threads.
#[derive(Clone)]
pub struct Recorder {
    shared: Arc<SharedRec>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("id", &self.shared.id)
            .finish()
    }
}

impl Recorder {
    /// Creates a fresh, empty recorder. Its epoch (the zero point for
    /// span `start_ns` values) is the moment of creation.
    pub fn new() -> Self {
        Self {
            shared: Arc::new(SharedRec {
                id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
                // detlint-allow(D003): advisory telemetry epoch; durations never feed decision output
                epoch: Instant::now(),
                agg: Mutex::new(TraceSnapshot::default()),
                next_thread: AtomicU64::new(0),
            }),
        }
    }

    /// Opens a span named `name`, nested under any span already open on
    /// this thread. The span closes (and records its duration) when the
    /// returned guard drops.
    pub fn span(&self, name: &str) -> Span {
        // detlint-allow(D003): span timing is advisory telemetry, excluded from replay digests
        let start = Instant::now();
        let (path, start_ns) = with_collector(&self.shared, |c| {
            let path = if let Some(parent) = c.stack.last() {
                format!("{parent}/{name}")
            } else {
                name.to_string()
            };
            c.stack.push(path.clone());
            (path, self.shared.epoch.elapsed().as_nanos() as u64)
        });
        Span {
            inner: Some(SpanInner {
                shared: Arc::clone(&self.shared),
                start,
                start_ns,
                path,
                fields: Vec::new(),
            }),
        }
    }

    /// Adds `delta` to the counter `name`.
    pub fn counter(&self, name: &str, delta: u64) {
        with_collector(&self.shared, |c| {
            *c.buf.counters.entry(name.to_string()).or_insert(0) += delta;
        });
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge(&self, name: &str, value: f64) {
        with_collector(&self.shared, |c| {
            c.buf
                .gauges
                .entry(name.to_string())
                .and_modify(|g| g.set(value))
                .or_insert_with(|| GaugeStat::single(value));
        });
    }

    /// Records `value` into the histogram `name` with the default
    /// bucket bounds ([`crate::DEFAULT_BOUNDS`]).
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_with(name, value, crate::DEFAULT_BOUNDS);
    }

    /// Records `value` into the histogram `name`, creating it with the
    /// given bucket upper bounds on first use. Later calls for the same
    /// name ignore `bounds` (the first creation wins), so use one bound
    /// set per name.
    pub fn observe_with(&self, name: &str, value: f64, bounds: &[f64]) {
        with_collector(&self.shared, |c| {
            c.buf
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| HistogramSnapshot::new(bounds))
                .observe(value);
        });
    }

    /// Merges this thread's buffered data into the shared aggregate
    /// without closing open spans.
    pub fn flush(&self) {
        with_collector(&self.shared, |c| c.drain(false));
    }

    /// Flushes this thread, then returns a merged copy of everything
    /// recorded so far, with events sorted deterministically.
    ///
    /// Other threads' buffered-but-unflushed data is included only once
    /// those threads have exited or flushed; with `billcap-rt` scoped
    /// pools that is guaranteed by the time the pool call returns.
    pub fn snapshot(&self) -> TraceSnapshot {
        self.flush();
        let mut snap = self
            .shared
            .agg
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        snap.sort_events();
        snap
    }

    /// Clears the shared aggregate and this thread's buffer. Other
    /// threads' unflushed buffers (if any) survive a reset.
    pub fn reset(&self) {
        with_collector(&self.shared, |c| {
            c.buf = TraceSnapshot::default();
            c.buf.orphans = 0;
        });
        *self.shared.agg.lock().unwrap_or_else(|e| e.into_inner()) = TraceSnapshot::default();
    }
}

pub(crate) struct SpanInner {
    shared: Arc<SharedRec>,
    start: Instant,
    start_ns: u64,
    path: String,
    fields: Vec<(String, f64)>,
}

/// RAII guard for an open span; created by [`Recorder::span`] (or the
/// global [`crate::span`]). Records the span on drop.
///
/// A disabled span (from the global API with tracing off) is inert:
/// every method is a no-op and drop records nothing.
pub struct Span {
    pub(crate) inner: Option<SpanInner>,
}

impl Span {
    /// A span that records nothing.
    pub(crate) fn disabled() -> Self {
        Span { inner: None }
    }

    /// True when this span will record on drop.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a numeric field to the span's completion event.
    pub fn field(&mut self, name: &str, value: f64) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((name.to_string(), value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_ns = inner.start.elapsed().as_nanos() as u64;
        with_collector(&inner.shared, |c| {
            // Well-nested drops pop our own path. If an enclosing scope
            // dropped out of order (e.g. a span was moved and outlived
            // its parent), count orphans rather than corrupt the stack.
            if let Some(pos) = c.stack.iter().rposition(|p| *p == inner.path) {
                c.buf.orphans += (c.stack.len() - pos - 1) as u64;
                c.stack.truncate(pos);
            }
            // Not found: the span was already force-popped (and counted
            // as an orphan) by an enclosing out-of-order drop, or it
            // migrated threads; either way only the stats are recorded.
            c.buf
                .spans
                .entry(inner.path.clone())
                .or_default()
                .record(dur_ns);
            let seq = c.next_seq;
            c.next_seq += 1;
            c.buf.events.push(SpanEvent {
                path: inner.path,
                thread: c.thread,
                seq,
                start_ns: inner.start_ns,
                dur_ns,
                fields: inner.fields,
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = Recorder::new();
        r.counter("a", 1);
        r.counter("a", 2);
        r.counter("b", 5);
        let snap = r.snapshot();
        assert_eq!(snap.counters["a"], 3);
        assert_eq!(snap.counters["b"], 5);
        assert_eq!(snap.orphans, 0);
    }

    #[test]
    fn spans_nest_into_paths() {
        let r = Recorder::new();
        {
            let _outer = r.span("hour");
            {
                let mut inner = r.span("step1");
                inner.field("nodes", 7.0);
            }
            let _inner2 = r.span("step2");
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans["hour"].count, 1);
        assert_eq!(snap.spans["hour/step1"].count, 1);
        assert_eq!(snap.spans["hour/step2"].count, 1);
        assert_eq!(snap.orphans, 0);
        // Events carry fields and are sorted by start time: hour starts
        // first but *completes* last; sorting is by start_ns.
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.events[0].path, "hour");
        let step1 = snap.events.iter().find(|e| e.path == "hour/step1").unwrap();
        assert_eq!(step1.fields, vec![("nodes".to_string(), 7.0)]);
    }

    #[test]
    fn sibling_spans_reuse_parent_prefix() {
        let r = Recorder::new();
        {
            let _a = r.span("outer");
            for _ in 0..3 {
                let _b = r.span("inner");
            }
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans["outer/inner"].count, 3);
        assert!(snap.spans["outer/inner"].min_ns <= snap.spans["outer/inner"].max_ns);
        assert!(snap.spans["outer"].total_ns >= snap.spans["outer/inner"].total_ns);
    }

    #[test]
    fn out_of_order_drop_counts_orphans() {
        let r = Recorder::new();
        let outer = r.span("outer");
        let inner = r.span("inner");
        // Drop the parent first: the child is force-popped as an orphan.
        drop(outer);
        drop(inner);
        let snap = r.snapshot();
        assert_eq!(snap.orphans, 1);
        // Both spans still record durations.
        assert_eq!(snap.spans["outer"].count, 1);
    }

    #[test]
    fn gauges_and_histograms() {
        let r = Recorder::new();
        r.gauge("depth", 3.0);
        r.gauge("depth", 1.0);
        r.observe_with("lat", 4.0, &[1.0, 5.0]);
        r.observe_with("lat", 9.0, &[1.0, 5.0]);
        let snap = r.snapshot();
        assert_eq!(snap.gauges["depth"].last, 1.0);
        assert_eq!(snap.gauges["depth"].max, 3.0);
        assert_eq!(snap.histograms["lat"].counts, vec![0, 1, 1]);
    }

    #[test]
    fn reset_clears_state() {
        let r = Recorder::new();
        r.counter("a", 1);
        let _ = r.snapshot();
        r.reset();
        assert!(r.snapshot().is_empty());
        r.counter("a", 2);
        assert_eq!(r.snapshot().counters["a"], 2);
    }

    #[test]
    fn recorders_are_isolated() {
        let a = Recorder::new();
        let b = Recorder::new();
        a.counter("x", 1);
        b.counter("x", 10);
        assert_eq!(a.snapshot().counters["x"], 1);
        assert_eq!(b.snapshot().counters["x"], 10);
    }

    #[test]
    fn plain_thread_merges_on_exit() {
        let r = Recorder::new();
        let r2 = r.clone();
        std::thread::spawn(move || {
            let _s = r2.span("worker");
            r2.counter("work", 4);
        })
        .join()
        .unwrap();
        let snap = r.snapshot();
        assert_eq!(snap.counters["work"], 4);
        assert_eq!(snap.spans["worker"].count, 1);
        assert_eq!(snap.orphans, 0);
        // The worker was the first thread to touch the recorder.
        assert_eq!(snap.events[0].thread, 0);
    }
}
