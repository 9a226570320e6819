//! Continuous-telemetry building blocks: windowed histograms for
//! *recent* latency quantiles and the versioned metrics document
//! scraped over the wire by `billcap-serve`'s `metrics` control frame.
//!
//! Everything here is plain data; the policy questions (what to
//! record, when to rotate, where to write) belong to the server that
//! owns these objects.

use crate::json::Value;
use crate::metrics::HistogramSnapshot;
use std::collections::BTreeMap;

/// Version of the JSON metrics document ([`MetricsDoc`]). Bumped on
/// any incompatible schema change; consumers must check it.
pub const METRICS_VERSION: u64 = 1;

/// A ring of fixed-bucket histograms rotated on a logical tick.
///
/// Observations land in the *current* window; [`rotate`](Self::rotate)
/// advances the ring and clears the window it re-enters, so
/// [`merged`](Self::merged) always covers the last `W` windows —
/// recent behavior, not lifetime averages. Rotation is driven by a
/// logical tick chosen by the owner (e.g. every N requests), never by
/// wall time, so the window contents are deterministic on a replay.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    ring: Vec<HistogramSnapshot>,
    head: usize,
    tick: u64,
}

impl WindowedHistogram {
    /// A ring of `windows` empty histograms sharing `bounds`.
    ///
    /// # Panics
    /// Panics if `windows == 0` or `bounds` are invalid (see
    /// [`HistogramSnapshot::new`]).
    pub fn new(bounds: &[f64], windows: usize) -> Self {
        assert!(windows >= 1, "need at least one window");
        Self {
            ring: vec![HistogramSnapshot::new(bounds); windows],
            head: 0,
            tick: 0,
        }
    }

    /// Records one observation into the current window.
    pub fn record(&mut self, v: f64) {
        self.ring[self.head].observe(v);
    }

    /// Advances the logical tick: the oldest window is cleared and
    /// becomes the new current window.
    pub fn rotate(&mut self) {
        self.tick += 1;
        self.head = (self.head + 1) % self.ring.len();
        let bounds = std::mem::take(&mut self.ring[self.head].bounds);
        self.ring[self.head] = HistogramSnapshot::new(&bounds);
    }

    /// Number of completed rotations.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Ring size `W`.
    pub fn window_count(&self) -> usize {
        self.ring.len()
    }

    /// The window currently receiving observations.
    pub fn current(&self) -> &HistogramSnapshot {
        &self.ring[self.head]
    }

    /// All `W` retained windows merged into one histogram.
    pub fn merged(&self) -> HistogramSnapshot {
        let mut m = HistogramSnapshot::new(&self.ring[self.head].bounds);
        for h in &self.ring {
            m.merge(h);
        }
        m
    }
}

/// Quantile summary of one latency histogram, in the unit the
/// histogram was recorded in (`billcap-serve` records microseconds).
///
/// Non-finite inputs are sanitized to `0.0` so the summary always
/// renders as plain JSON numbers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuantileSummary {
    /// Bucketed observations in the summarized histogram.
    pub count: u64,
    /// Estimated median (bucket upper bound; see
    /// [`HistogramSnapshot::quantile`]).
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Largest finite observation (`0.0` when empty).
    pub max: f64,
    /// Mean of finite observations (`0.0` when empty).
    pub mean: f64,
}

impl QuantileSummary {
    /// Summarizes a histogram (typically a
    /// [`WindowedHistogram::merged`] view).
    pub fn from_histogram(h: &HistogramSnapshot) -> Self {
        let fin = |v: f64| if v.is_finite() { v } else { 0.0 };
        Self {
            count: h.count,
            p50: fin(h.quantile(0.50).unwrap_or(0.0)),
            p95: fin(h.quantile(0.95).unwrap_or(0.0)),
            p99: fin(h.quantile(0.99).unwrap_or(0.0)),
            max: fin(h.max),
            mean: fin(h.mean().unwrap_or(0.0)),
        }
    }

    fn to_value(self) -> Value {
        Value::Obj(vec![
            ("count".into(), Value::Int(self.count as i64)),
            ("p50".into(), Value::Float(self.p50)),
            ("p95".into(), Value::Float(self.p95)),
            ("p99".into(), Value::Float(self.p99)),
            ("max".into(), Value::Float(self.max)),
            ("mean".into(), Value::Float(self.mean)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(Self {
            count: need_u64(v, "count")?,
            p50: need_f64(v, "p50")?,
            p95: need_f64(v, "p95")?,
            p99: need_f64(v, "p99")?,
            max: need_f64(v, "max")?,
            mean: need_f64(v, "mean")?,
        })
    }
}

fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn need_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

/// The versioned metrics document returned by the server's `metrics`
/// control frame and streamed (one per window rotation) to the trace
/// sink.
///
/// `counters` hold exact *work* counts — deterministic across thread
/// counts on a fixed replay. `gauges` and `latency` carry wall-time
/// and occupancy signals, which are advisory only.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsDoc {
    /// Schema version; always [`METRICS_VERSION`] for documents
    /// produced by this crate.
    pub version: u64,
    /// Logical window-rotation tick at scrape time.
    pub tick: u64,
    /// Nanoseconds since the server's telemetry epoch (advisory).
    pub uptime_ns: u64,
    /// Exact work counters by name (e.g. `serve.requests`).
    pub counters: BTreeMap<String, u64>,
    /// Advisory gauges by name (last-set value).
    pub gauges: BTreeMap<String, f64>,
    /// Windowed latency summaries by series name (e.g. `request`,
    /// `solve`), in microseconds.
    pub latency: BTreeMap<String, QuantileSummary>,
}

impl MetricsDoc {
    /// A fresh document stamped with the current schema version.
    pub fn new(tick: u64, uptime_ns: u64) -> Self {
        Self {
            version: METRICS_VERSION,
            tick,
            uptime_ns,
            ..Self::default()
        }
    }

    /// The document as a JSON value. Non-finite gauge values are
    /// sanitized to `0.0`.
    pub fn to_value(&self) -> Value {
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::Int(*v as i64)))
                .collect(),
        );
        let gauges = Value::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| {
                    let g = if v.is_finite() { *v } else { 0.0 };
                    (k.clone(), Value::Float(g))
                })
                .collect(),
        );
        let latency = Value::Obj(
            self.latency
                .iter()
                .map(|(k, q)| (k.clone(), q.to_value()))
                .collect(),
        );
        Value::Obj(vec![
            ("version".into(), Value::Int(self.version as i64)),
            ("tick".into(), Value::Int(self.tick as i64)),
            ("uptime_ns".into(), Value::Int(self.uptime_ns as i64)),
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("latency".into(), latency),
        ])
    }

    /// Parses a document, rejecting unknown schema versions.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let version = need_u64(v, "version")?;
        if version != METRICS_VERSION {
            return Err(format!(
                "unsupported metrics version {version} (expected {METRICS_VERSION})"
            ));
        }
        let mut doc = MetricsDoc::new(need_u64(v, "tick")?, need_u64(v, "uptime_ns")?);
        match v.get("counters") {
            Some(Value::Obj(pairs)) => {
                for (k, cv) in pairs {
                    let n = cv
                        .as_u64()
                        .ok_or_else(|| format!("non-integer counter {k:?}"))?;
                    doc.counters.insert(k.clone(), n);
                }
            }
            _ => return Err("missing counters object".into()),
        }
        match v.get("gauges") {
            Some(Value::Obj(pairs)) => {
                for (k, gv) in pairs {
                    let n = gv
                        .as_f64()
                        .ok_or_else(|| format!("non-numeric gauge {k:?}"))?;
                    doc.gauges.insert(k.clone(), n);
                }
            }
            _ => return Err("missing gauges object".into()),
        }
        match v.get("latency") {
            Some(Value::Obj(pairs)) => {
                for (k, qv) in pairs {
                    doc.latency
                        .insert(k.clone(), QuantileSummary::from_value(qv)?);
                }
            }
            _ => return Err("missing latency object".into()),
        }
        Ok(doc)
    }

    /// One-line JSON rendering (suitable for JSONL streaming).
    pub fn render_json(&self) -> String {
        self.to_value().render()
    }

    /// Parses a rendering produced by [`render_json`](Self::render_json).
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        Self::from_value(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_histogram_forgets_old_windows() {
        let mut w = WindowedHistogram::new(&[1.0, 10.0], 3);
        w.record(0.5);
        w.rotate();
        w.record(5.0);
        w.rotate();
        w.record(50.0);
        assert_eq!(w.tick(), 2);
        assert_eq!(w.window_count(), 3);
        assert_eq!(w.merged().count, 3);
        assert_eq!(w.merged().counts, vec![1, 1, 1]);
        // One more rotation evicts the first window's 0.5.
        w.rotate();
        let m = w.merged();
        assert_eq!(m.count, 2);
        assert_eq!(m.counts, vec![0, 1, 1]);
        assert_eq!(w.current().count, 0);
        // W rotations with no recording drain everything.
        w.rotate();
        w.rotate();
        w.rotate();
        assert_eq!(w.merged().count, 0);
        assert_eq!(w.tick(), 6);
    }

    #[test]
    fn windowed_histogram_single_window_resets_on_rotate() {
        let mut w = WindowedHistogram::new(&[1.0], 1);
        w.record(0.5);
        assert_eq!(w.merged().count, 1);
        w.rotate();
        assert_eq!(w.merged().count, 0);
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn windowed_histogram_rejects_zero_windows() {
        WindowedHistogram::new(&[1.0], 0);
    }

    #[test]
    fn metrics_doc_round_trips() {
        let mut doc = MetricsDoc::new(7, 123_456);
        doc.counters.insert("serve.requests".into(), 168);
        doc.counters.insert("serve.cache.miss".into(), 168);
        doc.gauges.insert("serve.queue_depth".into(), 3.0);
        let mut h = HistogramSnapshot::new(&[100.0, 1000.0, 10_000.0]);
        h.observe(50.0);
        h.observe(700.0);
        h.observe(700.0);
        doc.latency
            .insert("solve".into(), QuantileSummary::from_histogram(&h));

        let text = doc.render_json();
        let back = MetricsDoc::parse_json(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.latency["solve"].count, 3);
        assert_eq!(back.latency["solve"].p50, 1000.0);
        assert_eq!(back.latency["solve"].max, 700.0);
    }

    #[test]
    fn metrics_doc_rejects_wrong_version_and_garbage() {
        let mut doc = MetricsDoc::new(0, 0);
        doc.version = METRICS_VERSION + 1;
        let text = doc.render_json();
        let err = MetricsDoc::parse_json(&text).unwrap_err();
        assert!(err.contains("unsupported metrics version"), "{err}");
        assert!(MetricsDoc::parse_json("not json").is_err());
        assert!(MetricsDoc::parse_json("{\"version\":1}").is_err());
    }

    #[test]
    fn quantile_summary_sanitizes_empty_histogram() {
        let q = QuantileSummary::from_histogram(&HistogramSnapshot::new(&[1.0]));
        assert_eq!(q, QuantileSummary::default());
    }
}
