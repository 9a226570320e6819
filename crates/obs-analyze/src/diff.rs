//! Run-to-run trace comparison.
//!
//! [`diff_snapshots`] compares two [`TraceSnapshot`]s metric by metric
//! and classifies each as regressed / improved / new / missing /
//! changed / unchanged under configurable relative and absolute
//! thresholds. Wall-clock metrics (span totals, histogram means over
//! durations) are judged with the *time* thresholds — they are noisy,
//! especially on shared single-core machines — while work metrics
//! (counters, span counts, histogram counts) are deterministic for a
//! fixed seed and get the tighter *count* thresholds.

use billcap_obs::TraceSnapshot;

/// What kind of metric a [`DiffEntry`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A span path's total wall time (`total_ns`), time thresholds.
    SpanTime,
    /// A span path's completion count, count thresholds.
    SpanCount,
    /// A monotone counter, count thresholds.
    Counter,
    /// A histogram's observation count, count thresholds.
    HistogramCount,
    /// A histogram's mean value, time thresholds.
    HistogramMean,
    /// A gauge's last value; direction-less, classified [`DiffClass::Changed`].
    Gauge,
    /// A benchmark median from a perf trajectory, time thresholds.
    Bench,
}

impl MetricKind {
    /// True for metrics measured in wall-clock time, which jitter
    /// between runs and machines. Gates use this to decide whether a
    /// regression may be downgraded to a warning: work metrics
    /// (counters, span/histogram counts) are deterministic for a fixed
    /// seed, so a regression in one is never noise.
    pub fn is_wall_clock(self) -> bool {
        matches!(
            self,
            MetricKind::SpanTime | MetricKind::HistogramMean | MetricKind::Bench
        )
    }

    fn label(self) -> &'static str {
        match self {
            MetricKind::SpanTime => "span.time",
            MetricKind::SpanCount => "span.count",
            MetricKind::Counter => "counter",
            MetricKind::HistogramCount => "hist.count",
            MetricKind::HistogramMean => "hist.mean",
            MetricKind::Gauge => "gauge",
            MetricKind::Bench => "bench",
        }
    }
}

/// Classification of one compared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffClass {
    /// Grew past the threshold — for time and work metrics, more is worse.
    Regressed,
    /// Shrank past the threshold.
    Improved,
    /// Present only in the current run.
    New,
    /// Present only in the base run.
    Missing,
    /// Direction-less metric (gauge) moved past the threshold.
    Changed,
    /// Within the threshold.
    Unchanged,
}

/// Thresholds for [`diff_snapshots`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffConfig {
    /// Relative threshold for wall-clock metrics (0.10 = 10 %).
    pub time_rel: f64,
    /// Absolute floor for wall-clock deltas, in nanoseconds; changes
    /// smaller than this never classify, however large relatively.
    pub time_abs_ns: f64,
    /// Relative threshold for work metrics (0.0 = exact).
    pub count_rel: f64,
    /// Absolute floor for work-metric deltas.
    pub count_abs: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self {
            time_rel: 0.10,
            time_abs_ns: 1.0e6, // ignore sub-millisecond wobble
            count_rel: 0.0,
            count_abs: 0.0,
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Which facet of the trace this row compares.
    pub kind: MetricKind,
    /// Metric name (span path, counter/gauge/histogram name).
    pub name: String,
    /// Base-run value (0 for [`DiffClass::New`]).
    pub base: f64,
    /// Current-run value (0 for [`DiffClass::Missing`]).
    pub current: f64,
    /// Classification under the configured thresholds.
    pub class: DiffClass,
}

impl DiffEntry {
    /// Relative change in percent, when both sides exist and the base
    /// is non-zero.
    fn delta_pct(&self) -> Option<f64> {
        (matches!(
            self.class,
            DiffClass::Regressed | DiffClass::Improved | DiffClass::Changed | DiffClass::Unchanged
        ) && self.base != 0.0)
            .then(|| 100.0 * (self.current - self.base) / self.base)
    }
}

/// The result of comparing two runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiffReport {
    /// Every compared metric, including unchanged ones.
    pub entries: Vec<DiffEntry>,
}

impl DiffReport {
    /// Entries with the given classification.
    pub(crate) fn with_class(&self, class: DiffClass) -> Vec<&DiffEntry> {
        self.entries.iter().filter(|e| e.class == class).collect()
    }

    /// Regressed entries, the gate signal.
    pub fn regressed(&self) -> Vec<&DiffEntry> {
        self.with_class(DiffClass::Regressed)
    }

    /// True when at least one metric regressed.
    pub fn has_regressions(&self) -> bool {
        self.entries.iter().any(|e| e.class == DiffClass::Regressed)
    }

    /// One-line summary (`3 regressed, 1 improved, 0 new, ...`).
    pub fn summary(&self) -> String {
        let count = |c| self.with_class(c).len();
        format!(
            "{} regressed, {} improved, {} new, {} missing, {} changed, {} unchanged",
            count(DiffClass::Regressed),
            count(DiffClass::Improved),
            count(DiffClass::New),
            count(DiffClass::Missing),
            count(DiffClass::Changed),
            count(DiffClass::Unchanged),
        )
    }

    /// Human-readable report: the summary plus one row per non-unchanged
    /// metric, regressions first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.summary());
        out.push('\n');
        let order = [
            DiffClass::Regressed,
            DiffClass::Missing,
            DiffClass::New,
            DiffClass::Changed,
            DiffClass::Improved,
        ];
        for class in order {
            for e in self.with_class(class) {
                let delta = e
                    .delta_pct()
                    .map(|p| format!("{p:+.1}%"))
                    .unwrap_or_else(|| "-".into());
                out.push_str(&format!(
                    "  {:<10} {:<12} {:<40} base {:>14.1}  cur {:>14.1}  {}\n",
                    format!("{:?}", class).to_lowercase(),
                    e.kind.label(),
                    e.name,
                    e.base,
                    e.current,
                    delta
                ));
            }
        }
        out
    }
}

fn thresholds(kind: MetricKind, cfg: &DiffConfig) -> (f64, f64) {
    match kind {
        MetricKind::SpanTime | MetricKind::HistogramMean | MetricKind::Bench => {
            (cfg.time_rel, cfg.time_abs_ns)
        }
        MetricKind::SpanCount | MetricKind::Counter | MetricKind::HistogramCount => {
            (cfg.count_rel, cfg.count_abs)
        }
        MetricKind::Gauge => (cfg.count_rel, cfg.count_abs),
    }
}

/// Classifies one `(base, current)` pair under the kind's thresholds.
pub(crate) fn classify(kind: MetricKind, base: f64, current: f64, cfg: &DiffConfig) -> DiffClass {
    let (rel, abs) = thresholds(kind, cfg);
    let delta = current - base;
    let past = delta.abs() > abs && delta.abs() > rel * base.abs();
    if !past || delta == 0.0 {
        return DiffClass::Unchanged;
    }
    match kind {
        MetricKind::Gauge => DiffClass::Changed,
        _ if delta > 0.0 => DiffClass::Regressed,
        _ => DiffClass::Improved,
    }
}

fn compare<'a, K, I, J>(
    report: &mut DiffReport,
    kind: MetricKind,
    base: I,
    cur: J,
    cfg: &DiffConfig,
) where
    K: Ord + std::fmt::Display + ?Sized + 'a,
    I: IntoIterator<Item = (&'a K, f64)>,
    J: IntoIterator<Item = (&'a K, f64)>,
{
    use std::collections::BTreeMap;
    let base: BTreeMap<&K, f64> = base.into_iter().collect();
    let mut cur: BTreeMap<&K, f64> = cur.into_iter().collect();
    for (name, b) in &base {
        match cur.remove(name) {
            Some(c) => report.entries.push(DiffEntry {
                kind,
                name: name.to_string(),
                base: *b,
                current: c,
                class: classify(kind, *b, c, cfg),
            }),
            None => report.entries.push(DiffEntry {
                kind,
                name: name.to_string(),
                base: *b,
                current: 0.0,
                class: DiffClass::Missing,
            }),
        }
    }
    for (name, c) in cur {
        report.entries.push(DiffEntry {
            kind,
            name: name.to_string(),
            base: 0.0,
            current: c,
            class: DiffClass::New,
        });
    }
}

/// Compares two trace snapshots.
///
/// Span paths are compared twice — total wall time (time thresholds)
/// and completion count (count thresholds) — counters once, histograms
/// twice (count and mean), and gauges on their last value.
pub fn diff_snapshots(base: &TraceSnapshot, cur: &TraceSnapshot, cfg: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();
    compare(
        &mut report,
        MetricKind::SpanTime,
        base.spans.iter().map(|(k, s)| (k, s.total_ns as f64)),
        cur.spans.iter().map(|(k, s)| (k, s.total_ns as f64)),
        cfg,
    );
    compare(
        &mut report,
        MetricKind::SpanCount,
        base.spans.iter().map(|(k, s)| (k, s.count as f64)),
        cur.spans.iter().map(|(k, s)| (k, s.count as f64)),
        cfg,
    );
    compare(
        &mut report,
        MetricKind::Counter,
        base.counters.iter().map(|(k, v)| (k, *v as f64)),
        cur.counters.iter().map(|(k, v)| (k, *v as f64)),
        cfg,
    );
    compare(
        &mut report,
        MetricKind::HistogramCount,
        base.histograms.iter().map(|(k, h)| (k, h.count as f64)),
        cur.histograms.iter().map(|(k, h)| (k, h.count as f64)),
        cfg,
    );
    compare(
        &mut report,
        MetricKind::HistogramMean,
        base.histograms
            .iter()
            .map(|(k, h)| (k, h.mean().unwrap_or(0.0))),
        cur.histograms
            .iter()
            .map(|(k, h)| (k, h.mean().unwrap_or(0.0))),
        cfg,
    );
    compare(
        &mut report,
        MetricKind::Gauge,
        base.gauges.iter().map(|(k, g)| (k, g.last)),
        cur.gauges.iter().map(|(k, g)| (k, g.last)),
        cfg,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use billcap_obs::{GaugeStat, SpanStats};

    fn snap(total_ns: u64, nodes: u64, gauge: f64) -> TraceSnapshot {
        let mut s = TraceSnapshot::default();
        s.spans.insert(
            "hour".into(),
            SpanStats {
                count: 168,
                total_ns,
                min_ns: 1,
                max_ns: total_ns,
            },
        );
        s.counters.insert("milp.bnb.nodes".into(), nodes);
        s.gauges
            .insert("core.capper.budget_slack".into(), GaugeStat::single(gauge));
        s
    }

    #[test]
    fn identical_snapshots_have_no_regressions() {
        let a = snap(1_000_000_000, 5000, -3.0);
        let r = diff_snapshots(&a, &a.clone(), &DiffConfig::default());
        assert!(!r.has_regressions());
        assert!(r.entries.iter().all(|e| e.class == DiffClass::Unchanged));
        assert!(r.summary().starts_with("0 regressed"));
    }

    #[test]
    fn slower_span_past_threshold_regresses() {
        let a = snap(1_000_000_000, 5000, -3.0);
        let b = snap(1_200_000_000, 5000, -3.0);
        let r = diff_snapshots(&a, &b, &DiffConfig::default());
        let reg = r.regressed();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].kind, MetricKind::SpanTime);
        assert_eq!(reg[0].name, "hour");
        assert!((reg[0].delta_pct().unwrap() - 20.0).abs() < 1e-9);
        // The reverse direction is an improvement, not a regression.
        let r = diff_snapshots(&b, &a, &DiffConfig::default());
        assert!(!r.has_regressions());
        assert_eq!(r.with_class(DiffClass::Improved).len(), 1);
    }

    #[test]
    fn small_time_wobble_is_absorbed_by_thresholds() {
        let a = snap(1_000_000_000, 5000, -3.0);
        let b = snap(1_050_000_000, 5000, -3.0); // +5% < 10% default
        let r = diff_snapshots(&a, &b, &DiffConfig::default());
        assert!(!r.has_regressions());
        // Sub-absolute-floor changes never classify even at huge rel.
        let a = snap(1_000, 1, 0.0);
        let b = snap(2_000, 1, 0.0); // +100% but only 1µs
        let r = diff_snapshots(&a, &b, &DiffConfig::default());
        assert!(!r.has_regressions());
    }

    #[test]
    fn counter_inflation_regresses_exactly() {
        let a = snap(1_000_000_000, 5000, -3.0);
        let b = snap(1_000_000_000, 5001, -3.0);
        let r = diff_snapshots(&a, &b, &DiffConfig::default());
        let reg = r.regressed();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].kind, MetricKind::Counter);
    }

    #[test]
    fn new_and_missing_metrics_are_reported() {
        let a = snap(1_000_000_000, 5000, -3.0);
        let mut b = a.clone();
        b.counters.remove("milp.bnb.nodes");
        b.counters.insert("milp.bnb.solves".into(), 1);
        let r = diff_snapshots(&a, &b, &DiffConfig::default());
        assert_eq!(r.with_class(DiffClass::Missing).len(), 1);
        assert_eq!(r.with_class(DiffClass::New).len(), 1);
        assert!(!r.has_regressions());
        let rendered = r.render();
        assert!(rendered.contains("missing"));
        assert!(rendered.contains("milp.bnb.nodes"));
    }

    #[test]
    fn gauge_movement_is_neutral() {
        let a = snap(1_000_000_000, 5000, -3.0);
        let b = snap(1_000_000_000, 5000, 7.0);
        let r = diff_snapshots(&a, &b, &DiffConfig::default());
        assert!(!r.has_regressions());
        assert_eq!(r.with_class(DiffClass::Changed).len(), 1);
    }
}
