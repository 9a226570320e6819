//! Metric data types: counters, gauges, histograms, span statistics and
//! the [`TraceSnapshot`] aggregate they merge into.
//!
//! All types here are plain data with deterministic merge semantics —
//! the [`Recorder`](crate::Recorder) owns the concurrency story and
//! merges per-thread instances of these types under a single lock on
//! flush.

use std::collections::BTreeMap;

/// Last-write-wins gauge with running min/max and a set count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStat {
    /// Most recently set value (by merge order on flush).
    pub last: f64,
    /// Smallest value ever set.
    pub min: f64,
    /// Largest value ever set.
    pub max: f64,
    /// Number of times the gauge was set.
    pub sets: u64,
}

impl GaugeStat {
    /// A gauge observed exactly once with value `v`.
    pub fn single(v: f64) -> Self {
        Self {
            last: v,
            min: v,
            max: v,
            sets: 1,
        }
    }

    /// Records another set of the gauge.
    pub fn set(&mut self, v: f64) {
        self.last = v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sets += 1;
    }

    /// Merges another gauge's history into this one. The other gauge is
    /// treated as the later writer, so its `last` wins.
    pub fn merge(&mut self, other: &GaugeStat) {
        self.last = other.last;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sets += other.sets;
    }
}

/// Default histogram bucket upper bounds, a log-ish scale that suits
/// both counts (nodes, iterations, queue depths) and small magnitudes.
pub const DEFAULT_BOUNDS: &[f64] = &[
    0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
];

/// A fixed-bucket histogram.
///
/// `bounds` are finite, strictly ascending upper bounds. Bucket `i`
/// (for `i < bounds.len()`) covers `(bounds[i-1], bounds[i]]` — upper
/// bounds are *inclusive* — and the final bucket at index
/// `bounds.len()` is the overflow bucket `(bounds.last(), +inf)`.
///
/// ## Edge cases (all deterministic, none panic)
///
/// * A value exactly equal to `bounds[i]` lands in bucket `i`
///   (upper-inclusive).
/// * `-0.0` compares equal to `0.0`, so with a `0.0` bound it lands in
///   that bound's bucket, same as `+0.0`.
/// * `NaN` is counted in the dedicated [`invalid`](Self::invalid)
///   tally — never bucketed, never added to `sum`/`count`/`min`/`max`,
///   never silently dropped.
/// * `+inf` lands in the overflow bucket and `-inf` in the first
///   bucket; both increment `count` but are excluded from
///   `sum`/`min`/`max` so those stay finite (and the JSONL round-trip,
///   which encodes non-finite min/max as `null`, stays lossless).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite, strictly ascending bucket upper bounds.
    pub bounds: Vec<f64>,
    /// `bounds.len() + 1` counts; the last is the overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all finite observed values.
    pub sum: f64,
    /// Number of bucketed observations (finite and `±inf`).
    pub count: u64,
    /// Smallest finite observed value (`f64::INFINITY` when none).
    pub min: f64,
    /// Largest finite observed value (`f64::NEG_INFINITY` when none).
    pub max: f64,
    /// `NaN` observations: counted here instead of any bucket.
    pub invalid: u64,
}

impl HistogramSnapshot {
    /// An empty histogram with the given bucket upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty, non-finite, or not strictly
    /// ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "histogram bounds must be strictly ascending");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            invalid: 0,
        }
    }

    /// Records one observation. See the type docs for the boundary,
    /// `-0.0`, `NaN` and `±inf` rules.
    pub fn observe(&mut self, v: f64) {
        if v.is_nan() {
            self.invalid += 1;
            return;
        }
        // partition_point over `v > *b` finds the first bound >= v, i.e.
        // the upper-inclusive bucket; values above the last bound land
        // in the overflow bucket at index bounds.len(). `+inf` exceeds
        // every finite bound (overflow) and `-inf` none (first bucket).
        let idx = self.bounds.partition_point(|b| v > *b);
        self.counts[idx] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Mean of finite observed values, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Total observations including `NaN`s routed to `invalid`.
    pub fn observations(&self) -> u64 {
        self.count + self.invalid
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) of bucketed
    /// observations, or `None` when empty.
    ///
    /// The estimate is the upper bound of the bucket containing the
    /// rank-`ceil(q * count)` observation — deterministic and
    /// conservative (never below the true quantile for in-range data).
    /// When the rank falls in the overflow bucket, returns the largest
    /// finite observed value, or the last bound if none exists.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i < self.bounds.len() {
                    self.bounds[i]
                } else if self.max.is_finite() {
                    self.max
                } else {
                    // Only +inf landed in overflow; saturate at the
                    // last (finite) bound so callers always get a
                    // renderable number.
                    self.bounds[self.bounds.len() - 1]
                });
            }
        }
        None
    }

    /// Merges another histogram with identical bounds into this one.
    ///
    /// # Panics
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.invalid += other.invalid;
    }
}

/// Aggregate statistics for all completed spans sharing one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total wall time across them, in nanoseconds.
    pub total_ns: u64,
    /// Shortest span, in nanoseconds (`u64::MAX` when `count == 0`).
    pub min_ns: u64,
    /// Longest span, in nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    /// Records one completed span of duration `dur_ns`.
    pub fn record(&mut self, dur_ns: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        self.min_ns = if self.count == 1 {
            dur_ns
        } else {
            self.min_ns.min(dur_ns)
        };
        self.max_ns = self.max_ns.max(dur_ns);
    }

    /// Merges another path's aggregate into this one.
    pub fn merge(&mut self, other: &SpanStats) {
        if other.count == 0 {
            return;
        }
        self.min_ns = if self.count == 0 {
            other.min_ns
        } else {
            self.min_ns.min(other.min_ns)
        };
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// One completed span instance, for the JSONL event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Full `/`-joined span path (e.g. `"hour/step1/mip"`).
    pub path: String,
    /// Recorder-assigned thread ordinal (0 = first thread seen).
    pub thread: u64,
    /// Per-thread sequence number, monotone in span *completion* order.
    pub seq: u64,
    /// Start time in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
    /// Numeric fields attached via [`crate::Span::field`].
    pub fields: Vec<(String, f64)>,
}

/// A merged view of everything a recorder has collected.
///
/// Produced by [`crate::Recorder::snapshot`]; all maps are `BTreeMap`s
/// so iteration (and therefore export) order is deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, GaugeStat>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Aggregated span statistics by full path.
    pub spans: BTreeMap<String, SpanStats>,
    /// Individual span completion events, sorted by
    /// `(start_ns, thread, seq)`.
    pub events: Vec<SpanEvent>,
    /// Spans that were dropped while still open (collector torn down
    /// mid-span) or closed out of order. Zero in a healthy run.
    pub orphans: u64,
}

impl TraceSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
            && self.events.is_empty()
            && self.orphans == 0
    }

    /// Merges another snapshot into this one (used when per-thread
    /// collectors flush into the shared aggregate).
    pub fn merge(&mut self, other: &TraceSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges
                .entry(k.clone())
                .and_modify(|g| g.merge(v))
                .or_insert(*v);
        }
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(h) => h.merge(v),
                None => {
                    self.histograms.insert(k.clone(), v.clone());
                }
            }
        }
        for (k, v) in &other.spans {
            self.spans.entry(k.clone()).or_default().merge(v);
        }
        self.events.extend(other.events.iter().cloned());
        self.orphans += other.orphans;
    }

    /// Sorts the event stream by `(start_ns, thread, seq)` so export
    /// order is deterministic regardless of merge order.
    pub fn sort_events(&mut self) {
        self.events.sort_by_key(|e| (e.start_ns, e.thread, e.seq));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries_are_upper_inclusive() {
        let mut h = HistogramSnapshot::new(&[1.0, 5.0, 10.0]);
        // Exactly on a bound -> that bucket (upper-inclusive).
        h.observe(1.0);
        h.observe(5.0);
        h.observe(10.0);
        assert_eq!(h.counts, vec![1, 1, 1, 0]);
        // Just above a bound -> next bucket.
        h.observe(1.0000001);
        assert_eq!(h.counts, vec![1, 2, 1, 0]);
        // Below the first bound -> first bucket.
        h.observe(0.0);
        h.observe(-3.0);
        assert_eq!(h.counts, vec![3, 2, 1, 0]);
        // Above the last bound -> overflow.
        h.observe(10.5);
        h.observe(1e12);
        assert_eq!(h.counts, vec![3, 2, 1, 2]);
        assert_eq!(h.count, 8);
        assert_eq!(h.min, -3.0);
        assert_eq!(h.max, 1e12);
    }

    #[test]
    fn histogram_negative_zero_lands_in_zero_bound_bucket() {
        let mut h = HistogramSnapshot::new(&[0.0, 1.0]);
        h.observe(-0.0);
        h.observe(0.0);
        // -0.0 == 0.0, so both take the upper-inclusive 0.0 bucket.
        assert_eq!(h.counts, vec![2, 0, 0]);
        assert_eq!(h.count, 2);
        assert_eq!(h.invalid, 0);
    }

    #[test]
    fn histogram_nan_counts_as_invalid_never_bucketed() {
        let mut h = HistogramSnapshot::new(&[1.0, 5.0]);
        h.observe(f64::NAN);
        h.observe(-f64::NAN);
        assert_eq!(h.invalid, 2);
        assert_eq!(h.counts, vec![0, 0, 0]);
        assert_eq!(h.count, 0);
        assert_eq!(h.sum, 0.0);
        assert_eq!(h.min, f64::INFINITY); // untouched sentinels
        assert_eq!(h.max, f64::NEG_INFINITY);
        assert_eq!(h.observations(), 2);
        // A later finite observation is unpolluted by the NaNs.
        h.observe(3.0);
        assert_eq!(h.mean(), Some(3.0));
        assert_eq!(h.min, 3.0);
        assert_eq!(h.max, 3.0);
    }

    #[test]
    fn histogram_infinities_bucket_but_stay_out_of_sum_min_max() {
        let mut h = HistogramSnapshot::new(&[1.0, 5.0]);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        h.observe(2.0);
        assert_eq!(h.counts, vec![1, 1, 1]); // -inf first, 2.0 mid, +inf overflow
        assert_eq!(h.count, 3);
        assert_eq!(h.invalid, 0);
        assert_eq!(h.sum, 2.0);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 2.0);
    }

    #[test]
    fn histogram_quantile_returns_bucket_upper_bound() {
        let mut h = HistogramSnapshot::new(&[1.0, 5.0, 10.0]);
        for _ in 0..90 {
            h.observe(0.5);
        }
        for _ in 0..9 {
            h.observe(3.0);
        }
        h.observe(7.0);
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(0.95), Some(5.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
        assert_eq!(h.quantile(0.0), Some(1.0)); // rank clamps to 1
        assert_eq!(h.quantile(1.5), None);
        assert_eq!(h.quantile(f64::NAN), None);
        assert_eq!(HistogramSnapshot::new(&[1.0]).quantile(0.5), None);

        // Overflow-bucket quantile reports the largest finite value...
        h.observe(250.0);
        for _ in 0..200 {
            h.observe(11.0);
        }
        assert_eq!(h.quantile(1.0), Some(250.0));
        // ...and saturates at the last bound when only +inf overflowed.
        let mut inf_only = HistogramSnapshot::new(&[1.0, 5.0]);
        inf_only.observe(f64::INFINITY);
        assert_eq!(inf_only.quantile(1.0), Some(5.0));
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = HistogramSnapshot::new(&[1.0, 2.0]);
        let mut b = HistogramSnapshot::new(&[1.0, 2.0]);
        a.observe(0.5);
        a.observe(1.5);
        b.observe(1.5);
        b.observe(9.0);
        a.merge(&b);
        assert_eq!(a.counts, vec![1, 2, 1]);
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 0.5 + 1.5 + 1.5 + 9.0);
        assert_eq!(a.min, 0.5);
        assert_eq!(a.max, 9.0);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = HistogramSnapshot::new(&[1.0]);
        let b = HistogramSnapshot::new(&[2.0]);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        HistogramSnapshot::new(&[2.0, 1.0]);
    }

    #[test]
    fn gauge_tracks_min_max_last() {
        let mut g = GaugeStat::single(5.0);
        g.set(2.0);
        g.set(8.0);
        assert_eq!(g.last, 8.0);
        assert_eq!(g.min, 2.0);
        assert_eq!(g.max, 8.0);
        assert_eq!(g.sets, 3);

        let other = GaugeStat::single(-1.0);
        g.merge(&other);
        assert_eq!(g.last, -1.0);
        assert_eq!(g.min, -1.0);
        assert_eq!(g.max, 8.0);
        assert_eq!(g.sets, 4);
    }

    #[test]
    fn span_stats_record_and_merge() {
        let mut s = SpanStats::default();
        s.record(10);
        s.record(30);
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 40);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);

        let mut t = SpanStats::default();
        t.record(5);
        s.merge(&t);
        assert_eq!(s.count, 3);
        assert_eq!(s.min_ns, 5);

        let empty = SpanStats::default();
        s.merge(&empty);
        assert_eq!(s.count, 3);

        let mut fresh = SpanStats::default();
        fresh.merge(&s);
        assert_eq!(fresh, s);
    }

    #[test]
    fn snapshot_merge_combines_everything() {
        let mut a = TraceSnapshot::default();
        a.counters.insert("n".into(), 2);
        a.gauges.insert("g".into(), GaugeStat::single(1.0));
        let mut ha = HistogramSnapshot::new(&[1.0]);
        ha.observe(0.5);
        a.histograms.insert("h".into(), ha);
        let mut sa = SpanStats::default();
        sa.record(7);
        a.spans.insert("p".into(), sa);

        let mut b = TraceSnapshot::default();
        b.counters.insert("n".into(), 3);
        b.counters.insert("m".into(), 1);
        b.orphans = 1;
        b.events.push(SpanEvent {
            path: "p".into(),
            thread: 1,
            seq: 0,
            start_ns: 5,
            dur_ns: 2,
            fields: vec![],
        });

        a.merge(&b);
        assert_eq!(a.counters["n"], 5);
        assert_eq!(a.counters["m"], 1);
        assert_eq!(a.orphans, 1);
        assert_eq!(a.events.len(), 1);
        assert!(!a.is_empty());
        assert!(TraceSnapshot::default().is_empty());
    }

    #[test]
    fn sort_events_orders_by_start_thread_seq() {
        let mut s = TraceSnapshot::default();
        let ev = |start: u64, thread: u64, seq: u64| SpanEvent {
            path: "x".into(),
            thread,
            seq,
            start_ns: start,
            dur_ns: 0,
            fields: vec![],
        };
        s.events = vec![ev(5, 0, 1), ev(1, 1, 0), ev(5, 0, 0), ev(1, 0, 0)];
        s.sort_events();
        let order: Vec<(u64, u64, u64)> = s
            .events
            .iter()
            .map(|e| (e.start_ns, e.thread, e.seq))
            .collect();
        assert_eq!(order, vec![(1, 0, 0), (1, 1, 0), (5, 0, 0), (5, 0, 1)]);
    }
}
