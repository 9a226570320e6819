//! Time-series analysis of a streamed metrics log.
//!
//! The decision server's telemetry stream is a JSONL file: one
//! [`MetricsDoc`] per rotated window, tick-ordered. [`MetricsSeries`]
//! parses that log back into per-window series — cumulative counters,
//! per-window counter deltas, gauges, and latency quantile summaries —
//! and [`SloSpec`] evaluates a service-level objective against a
//! latency series with an error-budget ("burn") semantics:
//!
//! ```text
//! <series>.<quantile><=<threshold_us> [over <N>] [allow <frac>]
//! ```
//!
//! e.g. `request_us.p99<=5000 over 12 allow 0.1` — over the last 12
//! windows, the p99 of `request_us` must stay within 5000µs in at
//! least 90% of the windows that carried data. Windows with no
//! observations are skipped, never counted as violations.

use billcap_obs::json::Value;
use billcap_obs::{MetricsDoc, QuantileSummary};

/// A tick-ordered sequence of metrics documents, one per window.
#[derive(Debug, Clone, Default)]
pub struct MetricsSeries {
    /// The parsed documents, in file order.
    pub docs: Vec<MetricsDoc>,
}

impl MetricsSeries {
    /// Parses a JSONL metrics log (one [`MetricsDoc`] per non-blank
    /// line). Errors carry the 1-based line number.
    pub fn parse_jsonl(text: &str) -> Result<Self, String> {
        let mut docs = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let doc = MetricsDoc::parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            docs.push(doc);
        }
        Ok(Self { docs })
    }

    /// Number of windows in the series.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the series holds no windows.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Cumulative values of a counter, one entry per window (0 where
    /// the window does not carry the counter).
    pub fn counter(&self, name: &str) -> Vec<u64> {
        self.docs
            .iter()
            .map(|d| d.counters.get(name).copied().unwrap_or(0))
            .collect()
    }

    /// Per-window increments of a counter (saturating, so a counter
    /// reset between windows reads as a zero delta rather than a
    /// wrap-around).
    pub fn counter_deltas(&self, name: &str) -> Vec<u64> {
        let cum = self.counter(name);
        let mut prev = 0u64;
        cum.iter()
            .map(|&c| {
                let d = c.saturating_sub(prev);
                prev = c;
                d
            })
            .collect()
    }

    /// Gauge values, one entry per window (NaN where absent, so gaps
    /// stay visible instead of reading as zero).
    pub fn gauge(&self, name: &str) -> Vec<f64> {
        self.docs
            .iter()
            .map(|d| d.gauges.get(name).copied().unwrap_or(f64::NAN))
            .collect()
    }

    /// Latency summaries for a series, one entry per window that
    /// carries it, paired with the window index.
    pub fn latency(&self, name: &str) -> Vec<(usize, QuantileSummary)> {
        self.docs
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.latency.get(name).map(|q| (i, *q)))
            .collect()
    }
}

/// A quantile (or summary statistic) of a latency series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantile {
    /// Median.
    P50,
    /// 95th percentile.
    P95,
    /// 99th percentile.
    P99,
    /// Largest observation.
    Max,
    /// Arithmetic mean.
    Mean,
}

impl Quantile {
    /// Parses `p50` / `p95` / `p99` / `max` / `mean`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "p50" => Ok(Self::P50),
            "p95" => Ok(Self::P95),
            "p99" => Ok(Self::P99),
            "max" => Ok(Self::Max),
            "mean" => Ok(Self::Mean),
            other => Err(format!(
                "unknown quantile '{other}' (expected p50, p95, p99, max, or mean)"
            )),
        }
    }

    /// The statistic's name as it appears in a spec.
    pub fn name(self) -> &'static str {
        match self {
            Self::P50 => "p50",
            Self::P95 => "p95",
            Self::P99 => "p99",
            Self::Max => "max",
            Self::Mean => "mean",
        }
    }

    /// Extracts this statistic from a summary.
    fn of(self, q: &QuantileSummary) -> f64 {
        match self {
            Self::P50 => q.p50,
            Self::P95 => q.p95,
            Self::P99 => q.p99,
            Self::Max => q.max,
            Self::Mean => q.mean,
        }
    }
}

/// A service-level objective over a latency series.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Latency series name (e.g. `request_us`).
    pub series: String,
    /// Which statistic of each window to test.
    pub quantile: Quantile,
    /// Upper bound, in the series' native unit (microseconds for the
    /// server's `*_us` series).
    pub threshold: f64,
    /// Evaluate only the last `N` windows (`None` = the whole log).
    pub over: Option<usize>,
    /// Fraction of data-carrying windows allowed to violate before the
    /// verdict flips (the error budget). Default 0.
    pub allow: f64,
}

impl SloSpec {
    /// Parses `<series>.<quantile><=<threshold>[ over <N>][ allow <frac>]`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut tokens = spec.split_whitespace();
        let head = tokens.next().ok_or_else(|| "empty SLO spec".to_string())?;
        let (target, threshold) = head
            .split_once("<=")
            .ok_or_else(|| format!("'{head}': expected <series>.<quantile><=<threshold>"))?;
        let (series, quantile) = target
            .rsplit_once('.')
            .ok_or_else(|| format!("'{target}': expected <series>.<quantile>"))?;
        if series.is_empty() {
            return Err(format!("'{target}': empty series name"));
        }
        let quantile = Quantile::parse(quantile)?;
        let threshold: f64 = threshold
            .parse()
            .map_err(|_| format!("'{threshold}' is not a number"))?;
        if !threshold.is_finite() || threshold < 0.0 {
            return Err(format!("threshold {threshold} must be finite and >= 0"));
        }

        let mut over = None;
        let mut allow = 0.0f64;
        while let Some(word) = tokens.next() {
            let arg = tokens
                .next()
                .ok_or_else(|| format!("'{word}' needs a value"))?;
            match word {
                "over" => {
                    let n: usize = arg
                        .parse()
                        .map_err(|_| format!("over '{arg}' is not an integer"))?;
                    if n == 0 {
                        return Err("over 0 evaluates nothing".into());
                    }
                    over = Some(n);
                }
                "allow" => {
                    let f: f64 = arg
                        .parse()
                        .map_err(|_| format!("allow '{arg}' is not a number"))?;
                    if !(0.0..=1.0).contains(&f) {
                        return Err(format!("allow {f} must be within [0, 1]"));
                    }
                    allow = f;
                }
                other => return Err(format!("unknown SLO clause '{other}'")),
            }
        }
        Ok(Self {
            series: series.to_string(),
            quantile,
            threshold,
            over,
            allow,
        })
    }

    /// The canonical spec string this was parsed from.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}.{}<={}",
            self.series,
            self.quantile.name(),
            self.threshold
        );
        if let Some(n) = self.over {
            s.push_str(&format!(" over {n}"));
        }
        if self.allow > 0.0 {
            s.push_str(&format!(" allow {}", self.allow));
        }
        s
    }

    /// Evaluates the objective against a series.
    pub fn evaluate(&self, series: &MetricsSeries) -> SloReport {
        let start = self
            .over
            .map(|n| series.docs.len().saturating_sub(n))
            .unwrap_or(0);
        let mut windows = 0usize;
        let mut violations = 0usize;
        let mut worst = f64::NAN;
        for doc in &series.docs[start..] {
            let Some(q) = doc.latency.get(&self.series) else {
                continue;
            };
            if q.count == 0 {
                continue; // no observations: not evidence either way
            }
            let v = self.quantile.of(q);
            windows += 1;
            if worst.is_nan() || v > worst {
                worst = v;
            }
            if v > self.threshold {
                violations += 1;
            }
        }
        let burn = if windows == 0 {
            0.0
        } else {
            violations as f64 / windows as f64
        };
        SloReport {
            spec: self.render(),
            windows,
            violations,
            burn,
            worst,
            ok: burn <= self.allow,
        }
    }
}

/// The outcome of evaluating an [`SloSpec`] against a series.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The canonical spec string evaluated.
    pub spec: String,
    /// Windows that carried observations and were tested.
    pub windows: usize,
    /// Windows whose statistic exceeded the threshold.
    pub violations: usize,
    /// `violations / windows` (0 when no window carried data).
    pub burn: f64,
    /// Worst observed value of the statistic (NaN when no data).
    pub worst: f64,
    /// Whether the burn stayed within the allowed fraction.
    pub ok: bool,
}

impl SloReport {
    /// Machine-readable verdict document.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("slo".into(), Value::Str(self.spec.clone())),
            ("windows".into(), Value::Int(self.windows as i64)),
            ("violations".into(), Value::Int(self.violations as i64)),
            ("burn".into(), Value::Float(self.burn)),
            (
                "worst".into(),
                if self.worst.is_nan() {
                    Value::Null
                } else {
                    Value::Float(self.worst)
                },
            ),
            (
                "verdict".into(),
                Value::Str(if self.ok { "ok" } else { "violated" }.into()),
            ),
        ])
    }

    /// Renders the verdict as one compact JSON line.
    pub fn render_json(&self) -> String {
        self.to_value().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use billcap_obs::metrics::HistogramSnapshot;
    use billcap_obs::WindowedHistogram;

    /// A doc whose `request_us` summary is built from real histogram
    /// observations around `center_us`.
    fn doc(tick: u64, requests: u64, center_us: f64) -> MetricsDoc {
        let mut d = MetricsDoc::new(tick, tick * 1_000_000);
        d.counters.insert("serve.requests".into(), requests);
        d.gauges.insert("serve.queue_depth".into(), 2.0);
        let mut h = WindowedHistogram::new(&[100.0, 1_000.0, 10_000.0, 100_000.0], 1);
        for i in 0..20 {
            h.record(center_us + i as f64);
        }
        d.latency.insert(
            "request_us".into(),
            QuantileSummary::from_histogram(&h.merged()),
        );
        d
    }

    fn log(centers: &[f64]) -> MetricsSeries {
        let text: String = centers
            .iter()
            .enumerate()
            .map(|(i, &c)| doc(i as u64, (i as u64 + 1) * 16, c).render_json() + "\n")
            .collect();
        MetricsSeries::parse_jsonl(&text).unwrap()
    }

    #[test]
    fn jsonl_round_trips_counters_gauges_and_latency() {
        let s = log(&[200.0, 300.0, 400.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.counter("serve.requests"), vec![16, 32, 48]);
        assert_eq!(s.counter_deltas("serve.requests"), vec![16, 16, 16]);
        assert!(s.gauge("serve.queue_depth").iter().all(|&g| g == 2.0));
        assert!(s.gauge("missing").iter().all(|g| g.is_nan()));
        assert_eq!(s.latency("request_us").len(), 3);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let mut text = doc(0, 16, 200.0).render_json();
        text.push('\n');
        text.push_str("{not json");
        let err = MetricsSeries::parse_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 2:"), "got: {err}");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("\n{}\n\n", doc(0, 16, 200.0).render_json());
        assert_eq!(MetricsSeries::parse_jsonl(&text).unwrap().len(), 1);
    }

    #[test]
    fn spec_grammar_round_trips() {
        let spec = SloSpec::parse("request_us.p99<=5000 over 12 allow 0.1").unwrap();
        assert_eq!(spec.series, "request_us");
        assert_eq!(spec.quantile, Quantile::P99);
        assert_eq!(spec.threshold, 5000.0);
        assert_eq!(spec.over, Some(12));
        assert_eq!(spec.allow, 0.1);
        assert_eq!(spec.render(), "request_us.p99<=5000 over 12 allow 0.1");

        let bare = SloSpec::parse("solve_us.max<=250.5").unwrap();
        assert_eq!(bare.over, None);
        assert_eq!(bare.allow, 0.0);
        assert_eq!(bare.render(), "solve_us.max<=250.5");
    }

    #[test]
    fn spec_grammar_rejects_junk() {
        for bad in [
            "",
            "request_us.p99",
            "request_us<=5000",
            ".p99<=5000",
            "request_us.p42<=5000",
            "request_us.p99<=fast",
            "request_us.p99<=-1",
            "request_us.p99<=inf",
            "request_us.p99<=5000 over",
            "request_us.p99<=5000 over 0",
            "request_us.p99<=5000 over x",
            "request_us.p99<=5000 allow 1.5",
            "request_us.p99<=5000 sideways 3",
        ] {
            assert!(SloSpec::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn clean_baseline_passes() {
        let s = log(&[200.0, 250.0, 300.0, 280.0]);
        let report = SloSpec::parse("request_us.p99<=100000")
            .unwrap()
            .evaluate(&s);
        assert!(report.ok);
        assert_eq!(report.windows, 4);
        assert_eq!(report.violations, 0);
        assert_eq!(report.burn, 0.0);
        let json = report.render_json();
        assert!(json.contains("\"verdict\":\"ok\""), "got: {json}");
    }

    #[test]
    fn injected_violation_is_flagged() {
        // One window's latency jumps past the threshold bucket.
        let s = log(&[200.0, 200.0, 50_000.0, 200.0]);
        let report = SloSpec::parse("request_us.p99<=10000")
            .unwrap()
            .evaluate(&s);
        assert!(!report.ok);
        assert_eq!(report.windows, 4);
        assert_eq!(report.violations, 1);
        assert!(report.worst > 10_000.0);
        assert!(report.render_json().contains("\"verdict\":\"violated\""));
    }

    #[test]
    fn allow_fraction_tolerates_budgeted_burn() {
        let s = log(&[200.0, 200.0, 50_000.0, 200.0]);
        let report = SloSpec::parse("request_us.p99<=10000 allow 0.25")
            .unwrap()
            .evaluate(&s);
        assert_eq!(report.violations, 1);
        assert!(report.ok, "1/4 burn is within the 0.25 budget");
    }

    #[test]
    fn over_restricts_to_the_tail() {
        // The violation is old history; the last two windows are clean.
        let s = log(&[50_000.0, 200.0, 200.0]);
        let tail = SloSpec::parse("request_us.p99<=10000 over 2")
            .unwrap()
            .evaluate(&s);
        assert!(tail.ok);
        assert_eq!(tail.windows, 2);
        let full = SloSpec::parse("request_us.p99<=10000")
            .unwrap()
            .evaluate(&s);
        assert!(!full.ok);
    }

    #[test]
    fn windows_without_observations_are_skipped() {
        let mut empty = MetricsDoc::new(0, 0);
        empty.latency.insert(
            "request_us".into(),
            QuantileSummary::from_histogram(&HistogramSnapshot::new(&[100.0])),
        );
        let text = format!(
            "{}\n{}\n",
            empty.render_json(),
            doc(1, 16, 200.0).render_json()
        );
        let s = MetricsSeries::parse_jsonl(&text).unwrap();
        let report = SloSpec::parse("request_us.p99<=10000")
            .unwrap()
            .evaluate(&s);
        assert_eq!(report.windows, 1, "the empty window must not count");
        assert!(report.ok);
    }

    #[test]
    fn missing_series_yields_zero_windows_and_passes() {
        let s = log(&[200.0]);
        let report = SloSpec::parse("absent_us.p50<=1").unwrap().evaluate(&s);
        assert_eq!(report.windows, 0);
        assert_eq!(report.burn, 0.0);
        assert!(report.ok);
        assert!(report.render_json().contains("\"worst\":null"));
    }
}
