//! # billcap-obs
//!
//! In-repo observability for the `billcap` workspace: hierarchical
//! spans with monotonic timing, counters, gauges and fixed-bucket
//! histograms, collected per thread and merged on flush, with JSONL and
//! human-readable table exporters. Zero external dependencies, like the
//! rest of the workspace.
//!
//! ## Model
//!
//! * A [`Recorder`] owns one trace. Recording calls buffer into a
//!   thread-local collector (no cross-thread locking on the hot path);
//!   collectors merge into the recorder's aggregate when their thread
//!   exits or the recorder is flushed. This composes with
//!   `billcap-rt`'s scoped worker pools: workers join before the pool
//!   call returns, so a [`Recorder::snapshot`] taken afterwards sees
//!   every worker's data.
//! * [`Span`]s are RAII guards. Spans opened while another span is open
//!   on the same thread nest under it, producing `/`-joined paths such
//!   as `hour/step1/mip`. Numeric fields can be attached per span.
//! * Counters are monotone sums, gauges keep last/min/max, histograms
//!   use fixed upper-inclusive bucket bounds
//!   (see [`metrics::HistogramSnapshot`]).
//!
//! ## Activation
//!
//! Library code records through the *global* recorder via the
//! free functions ([`span`], [`counter`], [`gauge`], [`observe`], …).
//! These are no-ops until a binary turns tracing on with
//! [`set_enabled`] (the `billcap` CLI does so for `--trace` and
//! `BILLCAP_TRACE`; no library reads the environment). The disabled
//! fast path is a single relaxed atomic load, so instrumented hot
//! loops cost effectively nothing by default.
//!
//! ## Example
//!
//! ```
//! // Instance API: always records, independent of `set_enabled`.
//! let rec = billcap_obs::Recorder::new();
//! {
//!     let mut hour = rec.span("hour");
//!     hour.field("cost", 1234.5);
//!     {
//!         let _solve = rec.span("mip"); // nests -> path "hour/mip"
//!         rec.counter("milp.bnb.nodes", 42);
//!     }
//!     rec.observe("milp.bnb.queue_depth", 3.0);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.counters["milp.bnb.nodes"], 42);
//! assert_eq!(snap.spans["hour/mip"].count, 1);
//! assert_eq!(snap.orphans, 0);
//!
//! // Export as JSONL (one record per line) and parse it back.
//! let jsonl = billcap_obs::export::to_jsonl(&snap);
//! let back = billcap_obs::export::parse_jsonl(&jsonl).unwrap();
//! assert_eq!(back, snap);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod metrics;
mod recorder;
pub mod stopwatch;
pub mod telemetry;

pub use metrics::{GaugeStat, HistogramSnapshot, SpanEvent, SpanStats, TraceSnapshot};
pub use recorder::{Recorder, Span};
pub use stopwatch::Stopwatch;
pub use telemetry::{MetricsDoc, QuantileSummary, WindowedHistogram, METRICS_VERSION};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Default histogram bucket bounds used by [`Recorder::observe`] and
/// the global [`observe`].
pub use metrics::DEFAULT_BOUNDS;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether global tracing is enabled: a single relaxed atomic load,
/// cheap enough for hot loops. Off until [`set_enabled`] turns it on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns global tracing on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-wide recorder behind the free functions. Created on
/// first use; exposed so callers can snapshot/reset it directly.
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

/// Opens a span on the global recorder, or an inert span when tracing
/// is disabled (see [`enabled`]).
pub fn span(name: &str) -> Span {
    if enabled() {
        global().span(name)
    } else {
        Span::disabled()
    }
}

/// Adds to a counter on the global recorder (no-op when disabled).
pub fn counter(name: &str, delta: u64) {
    if enabled() {
        global().counter(name, delta);
    }
}

/// Sets a gauge on the global recorder (no-op when disabled).
pub fn gauge(name: &str, value: f64) {
    if enabled() {
        global().gauge(name, value);
    }
}

/// Records a histogram observation with [`DEFAULT_BOUNDS`] on the
/// global recorder (no-op when disabled).
pub fn observe(name: &str, value: f64) {
    if enabled() {
        global().observe(name, value);
    }
}

/// Records a histogram observation with explicit bucket bounds on the
/// global recorder (no-op when disabled). The bounds are fixed by the
/// first observation of each name.
pub fn observe_with(name: &str, value: f64, bounds: &[f64]) {
    if enabled() {
        global().observe_with(name, value, bounds);
    }
}

/// Flushes this thread's buffered data into the global aggregate.
pub fn flush() {
    global().flush();
}

/// Snapshot of the global recorder (flushes this thread first).
pub fn snapshot() -> TraceSnapshot {
    global().snapshot()
}

/// Clears the global recorder's aggregate and this thread's buffer.
pub fn reset() {
    global().reset();
}

#[cfg(test)]
mod tests {
    // The enabled-state and global-recorder behavior is process-global,
    // so it is exercised in the dedicated integration tests
    // (tests/global_api.rs) where each test binary is its own process.
    // Here we only check the pure helpers.

    #[test]
    fn disabled_span_is_inert() {
        let mut s = crate::Span::disabled();
        assert!(!s.is_enabled());
        s.field("x", 1.0); // must not panic
    }
}
