//! The benched performance trajectory: a committed JSON baseline
//! (`BENCH_solver.json`) produced from `crates/bench` results plus
//! trace aggregates, and the gate that compares a fresh run against it.
//!
//! The baseline carries machine metadata so a regression on a different
//! machine class is recognizable as an apples-to-oranges comparison;
//! the CI gate runs warn-only for exactly that reason (see DESIGN.md
//! §"Trace analysis").

use crate::diff::{classify, DiffClass, DiffConfig, DiffEntry, DiffReport, MetricKind};
use billcap_obs::json::{JsonError, Value};
use billcap_obs::TraceSnapshot;

/// One benchmark's recorded timing.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Stable benchmark name (`step1_milp_by_sites/13`).
    pub name: String,
    /// Median ns/iteration — the headline, robust to scheduler noise.
    pub median_ns: f64,
    /// Fastest sample, ns/iteration.
    pub min_ns: f64,
    /// Mean ns/iteration.
    pub mean_ns: f64,
    /// Samples collected.
    pub samples: u64,
    /// Iterations per sample.
    pub iters_per_sample: u64,
}

/// Deterministic work aggregates from a traced reference run — these
/// regress only when the *algorithm* changes, never from timer noise.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceAggregates {
    /// Hours in the reference run.
    pub hours: u64,
    /// Total branch-and-bound nodes across the run.
    pub bnb_nodes: u64,
    /// Total simplex iterations across the run.
    pub lp_iterations: u64,
    /// Total wall ns in `hour` spans.
    pub hour_total_ns: u64,
    /// Total wall ns in `hour/step1` spans (cost minimization).
    pub step1_total_ns: u64,
    /// Total wall ns in `hour/step2` spans (throughput maximization).
    pub step2_total_ns: u64,
    /// Total wall ns in MILP solve spans under step 1.
    pub mip_total_ns: u64,
    /// Retained-model rebuilds in the decision engine (`core.engine.
    /// rebuilds`). The allocation-reuse contract keeps this far below
    /// the hour count; a jump means cap/level keys are churning and
    /// models are being rebuilt per hour again.
    pub engine_rebuilds: u64,
}

impl TraceAggregates {
    /// Extracts the aggregates from a traced run's snapshot.
    pub fn from_snapshot(snap: &TraceSnapshot) -> Self {
        let span_total = |path: &str| snap.spans.get(path).map(|s| s.total_ns).unwrap_or(0);
        Self {
            hours: snap.counters.get("sim.hours").copied().unwrap_or(0),
            bnb_nodes: snap.counters.get("milp.bnb.nodes").copied().unwrap_or(0),
            lp_iterations: snap
                .counters
                .get("milp.lp.iterations")
                .copied()
                .unwrap_or(0),
            hour_total_ns: span_total("hour"),
            step1_total_ns: span_total("hour/step1"),
            step2_total_ns: span_total("hour/step2"),
            mip_total_ns: span_total("hour/step1/mip"),
            engine_rebuilds: snap
                .counters
                .get("core.engine.rebuilds")
                .copied()
                .unwrap_or(0),
        }
    }
}

/// Where the baseline was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// Available hardware threads.
    pub threads: u64,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
}

impl Machine {
    /// Detects the current machine.
    fn detect() -> Self {
        Self {
            threads: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        }
    }
}

/// A full performance-trajectory record (the `BENCH_solver.json` schema).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchTrajectory {
    /// Format version; bumped on breaking schema changes.
    pub schema_version: u64,
    /// Machine the numbers were measured on.
    pub machine: Machine,
    /// Benchmark medians, in registration order.
    pub benches: Vec<BenchPoint>,
    /// Work aggregates from the traced reference run.
    pub aggregates: TraceAggregates,
}

/// Current schema version written by [`BenchTrajectory::render_json`].
/// v2 added `aggregates.engine_rebuilds` (the retained-model rebuild
/// counter recorded by the allocation-reuse hot path).
const SCHEMA_VERSION: u64 = 2;

fn err(message: impl Into<String>) -> JsonError {
    JsonError {
        line: 0,
        offset: 0,
        message: message.into(),
    }
}

fn get_u64(v: &Value, key: &str) -> Result<u64, JsonError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| err(format!("missing or non-integer field {key:?}")))
}

fn get_f64(v: &Value, key: &str) -> Result<f64, JsonError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| err(format!("missing or non-numeric field {key:?}")))
}

fn get_str(v: &Value, key: &str) -> Result<String, JsonError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| err(format!("missing or non-string field {key:?}")))
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl BenchTrajectory {
    /// Assembles a trajectory for the current machine.
    pub fn new(benches: Vec<BenchPoint>, aggregates: TraceAggregates) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            machine: Machine::detect(),
            benches,
            aggregates,
        }
    }

    /// Renders as pretty-stable JSON (one bench per line, diff-friendly).
    pub fn render_json(&self) -> String {
        let benches = Value::Arr(
            self.benches
                .iter()
                .map(|b| {
                    obj(vec![
                        ("name", Value::Str(b.name.clone())),
                        ("median_ns", Value::Float(b.median_ns)),
                        ("min_ns", Value::Float(b.min_ns)),
                        ("mean_ns", Value::Float(b.mean_ns)),
                        ("samples", Value::Int(b.samples as i64)),
                        ("iters_per_sample", Value::Int(b.iters_per_sample as i64)),
                    ])
                })
                .collect(),
        );
        let a = &self.aggregates;
        let doc = obj(vec![
            ("type", Value::Str("bench_trajectory".into())),
            ("schema_version", Value::Int(self.schema_version as i64)),
            (
                "machine",
                obj(vec![
                    ("threads", Value::Int(self.machine.threads as i64)),
                    ("os", Value::Str(self.machine.os.clone())),
                    ("arch", Value::Str(self.machine.arch.clone())),
                ]),
            ),
            ("benches", benches),
            (
                "aggregates",
                obj(vec![
                    ("hours", Value::Int(a.hours as i64)),
                    ("bnb_nodes", Value::Int(a.bnb_nodes as i64)),
                    ("lp_iterations", Value::Int(a.lp_iterations as i64)),
                    ("hour_total_ns", Value::Int(a.hour_total_ns as i64)),
                    ("step1_total_ns", Value::Int(a.step1_total_ns as i64)),
                    ("step2_total_ns", Value::Int(a.step2_total_ns as i64)),
                    ("mip_total_ns", Value::Int(a.mip_total_ns as i64)),
                    ("engine_rebuilds", Value::Int(a.engine_rebuilds as i64)),
                ]),
            ),
        ]);
        // Re-indent the compact rendering lightly: one top-level key per
        // line and one bench per line keeps `git diff` reviewable.
        let mut out = String::new();
        out.push_str("{\n");
        if let Value::Obj(pairs) = &doc {
            for (i, (k, v)) in pairs.iter().enumerate() {
                let sep = if i + 1 < pairs.len() { "," } else { "" };
                if k == "benches" {
                    out.push_str("  \"benches\": [\n");
                    if let Value::Arr(items) = v {
                        for (j, item) in items.iter().enumerate() {
                            let bsep = if j + 1 < items.len() { "," } else { "" };
                            out.push_str(&format!("    {}{}\n", item.render(), bsep));
                        }
                    }
                    out.push_str(&format!("  ]{sep}\n"));
                } else {
                    out.push_str(&format!(
                        "  {}: {}{}\n",
                        Value::Str(k.clone()).render(),
                        v.render(),
                        sep
                    ));
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Parses a trajectory back from JSON.
    pub fn parse_json(text: &str) -> Result<Self, JsonError> {
        let doc = Value::parse(text)?;
        if get_str(&doc, "type")? != "bench_trajectory" {
            return Err(err("not a bench_trajectory document"));
        }
        let machine = doc.get("machine").ok_or_else(|| err("missing machine"))?;
        let benches = doc
            .get("benches")
            .and_then(Value::as_arr)
            .ok_or_else(|| err("missing benches array"))?
            .iter()
            .map(|b| {
                Ok(BenchPoint {
                    name: get_str(b, "name")?,
                    median_ns: get_f64(b, "median_ns")?,
                    min_ns: get_f64(b, "min_ns")?,
                    mean_ns: get_f64(b, "mean_ns")?,
                    samples: get_u64(b, "samples")?,
                    iters_per_sample: get_u64(b, "iters_per_sample")?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let a = doc
            .get("aggregates")
            .ok_or_else(|| err("missing aggregates"))?;
        Ok(Self {
            schema_version: get_u64(&doc, "schema_version")?,
            machine: Machine {
                threads: get_u64(machine, "threads")?,
                os: get_str(machine, "os")?,
                arch: get_str(machine, "arch")?,
            },
            benches,
            aggregates: TraceAggregates {
                hours: get_u64(a, "hours")?,
                bnb_nodes: get_u64(a, "bnb_nodes")?,
                lp_iterations: get_u64(a, "lp_iterations")?,
                hour_total_ns: get_u64(a, "hour_total_ns")?,
                step1_total_ns: get_u64(a, "step1_total_ns")?,
                step2_total_ns: get_u64(a, "step2_total_ns")?,
                mip_total_ns: get_u64(a, "mip_total_ns")?,
                engine_rebuilds: get_u64(a, "engine_rebuilds")?,
            },
        })
    }
}

/// Gate thresholds. Timing uses `time_rel` (generous — bench medians on
/// shared runners jitter), work counts use `count_rel` (tight — node
/// and iteration counts are deterministic for fixed seeds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Relative threshold on bench medians and phase wall times.
    pub time_rel: f64,
    /// Absolute ns floor under which timing deltas are ignored.
    pub time_abs_ns: f64,
    /// Relative threshold on work counters.
    pub count_rel: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            time_rel: 0.25,
            time_abs_ns: 50_000.0, // 50µs floor on per-iteration medians
            count_rel: 0.02,
        }
    }
}

/// Compares a current trajectory against the committed baseline.
///
/// Bench medians gate on `time_rel`; the traced week's exact work
/// counters (B&B nodes, LP iterations, hours, engine rebuilds) gate on
/// `count_rel`. The traced week's wall-clock sums (`*_total_ns`) are
/// not judged: each is one run, and a loaded machine moves a single run
/// far past a threshold set for 15-sample medians. A bench present on
/// only one side is reported as new/missing, never as a regression.
pub fn gate(base: &BenchTrajectory, cur: &BenchTrajectory, cfg: &GateConfig) -> DiffReport {
    let dc = DiffConfig {
        time_rel: cfg.time_rel,
        time_abs_ns: cfg.time_abs_ns,
        count_rel: cfg.count_rel,
        count_abs: 0.0,
    };
    let mut report = DiffReport::default();
    fn push(
        report: &mut DiffReport,
        dc: &DiffConfig,
        kind: MetricKind,
        name: &str,
        b: f64,
        c: f64,
    ) {
        report.entries.push(DiffEntry {
            kind,
            name: name.to_string(),
            base: b,
            current: c,
            class: classify(kind, b, c, dc),
        });
    }

    for b in &base.benches {
        match cur.benches.iter().find(|c| c.name == b.name) {
            Some(c) => push(
                &mut report,
                &dc,
                MetricKind::Bench,
                &b.name,
                b.median_ns,
                c.median_ns,
            ),
            None => report.entries.push(DiffEntry {
                kind: MetricKind::Bench,
                name: b.name.clone(),
                base: b.median_ns,
                current: 0.0,
                class: DiffClass::Missing,
            }),
        }
    }
    for c in &cur.benches {
        if !base.benches.iter().any(|b| b.name == c.name) {
            report.entries.push(DiffEntry {
                kind: MetricKind::Bench,
                name: c.name.clone(),
                base: 0.0,
                current: c.median_ns,
                class: DiffClass::New,
            });
        }
    }

    let (ab, ac) = (&base.aggregates, &cur.aggregates);
    push(
        &mut report,
        &dc,
        MetricKind::Counter,
        "aggregates.bnb_nodes",
        ab.bnb_nodes as f64,
        ac.bnb_nodes as f64,
    );
    push(
        &mut report,
        &dc,
        MetricKind::Counter,
        "aggregates.lp_iterations",
        ab.lp_iterations as f64,
        ac.lp_iterations as f64,
    );
    push(
        &mut report,
        &dc,
        MetricKind::Counter,
        "aggregates.hours",
        ab.hours as f64,
        ac.hours as f64,
    );
    push(
        &mut report,
        &dc,
        MetricKind::Counter,
        "aggregates.engine_rebuilds",
        ab.engine_rebuilds as f64,
        ac.engine_rebuilds as f64,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchTrajectory {
        BenchTrajectory {
            schema_version: SCHEMA_VERSION,
            machine: Machine {
                threads: 4,
                os: "linux".into(),
                arch: "x86_64".into(),
            },
            benches: vec![
                BenchPoint {
                    name: "step1_milp_by_sites/13".into(),
                    median_ns: 2.5e6,
                    min_ns: 2.2e6,
                    mean_ns: 2.6e6,
                    samples: 15,
                    iters_per_sample: 20,
                },
                BenchPoint {
                    name: "decide_hour/paper".into(),
                    median_ns: 8.1e5,
                    min_ns: 7.9e5,
                    mean_ns: 8.3e5,
                    samples: 15,
                    iters_per_sample: 60,
                },
            ],
            aggregates: TraceAggregates {
                hours: 168,
                bnb_nodes: 5000,
                lp_iterations: 40000,
                hour_total_ns: 1_500_000_000,
                step1_total_ns: 1_100_000_000,
                step2_total_ns: 300_000_000,
                mip_total_ns: 900_000_000,
                engine_rebuilds: 12,
            },
        }
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let text = t.render_json();
        let back = BenchTrajectory::parse_json(&text).unwrap();
        assert_eq!(back, t);
        assert!(BenchTrajectory::parse_json("{\"type\":\"other\"}").is_err());
        assert!(BenchTrajectory::parse_json("not json").is_err());
    }

    #[test]
    fn identical_trajectories_pass_the_gate() {
        let t = sample();
        let r = gate(&t, &t.clone(), &GateConfig::default());
        assert!(!r.has_regressions(), "{}", r.render());
    }

    #[test]
    fn slowdown_past_threshold_fails_the_gate() {
        let base = sample();
        let mut cur = base.clone();
        cur.benches[0].median_ns *= 1.5; // +50% > 25% default
        let r = gate(&base, &cur, &GateConfig::default());
        assert!(r.has_regressions());
        assert_eq!(r.regressed()[0].name, "step1_milp_by_sites/13");
        // Mild jitter stays under the gate.
        let mut mild = base.clone();
        mild.benches[0].median_ns *= 1.1;
        assert!(!gate(&base, &mild, &GateConfig::default()).has_regressions());
    }

    #[test]
    fn node_inflation_fails_the_gate() {
        let base = sample();
        let mut cur = base.clone();
        cur.aggregates.bnb_nodes = (base.aggregates.bnb_nodes as f64 * 1.10) as u64;
        let r = gate(&base, &cur, &GateConfig::default());
        assert!(r.has_regressions());
        assert!(r
            .regressed()
            .iter()
            .any(|e| e.name == "aggregates.bnb_nodes"));
    }

    /// The traced week's wall-clock sums are single runs and never
    /// regress the gate, however far they move; its work counters do.
    #[test]
    fn single_run_wall_sums_are_not_judged() {
        let base = sample();
        let mut cur = base.clone();
        cur.aggregates.hour_total_ns *= 2;
        cur.aggregates.step1_total_ns *= 2;
        cur.aggregates.step2_total_ns *= 2;
        cur.aggregates.mip_total_ns *= 2;
        let r = gate(&base, &cur, &GateConfig::default());
        assert!(!r.has_regressions(), "{}", r.render());
        assert!(!r.entries.iter().any(|e| e.name.ends_with("_total_ns")));
        cur.aggregates.bnb_nodes = (base.aggregates.bnb_nodes as f64 * 1.10) as u64;
        let r = gate(&base, &cur, &GateConfig::default());
        let regressed: Vec<&str> = r.regressed().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(regressed, ["aggregates.bnb_nodes"]);
    }

    #[test]
    fn renamed_bench_is_missing_plus_new_not_regressed() {
        let base = sample();
        let mut cur = base.clone();
        cur.benches[1].name = "decide_hour/renamed".into();
        let r = gate(&base, &cur, &GateConfig::default());
        assert!(!r.has_regressions());
        assert_eq!(r.with_class(DiffClass::Missing).len(), 1);
        assert_eq!(r.with_class(DiffClass::New).len(), 1);
    }

    #[test]
    fn aggregates_from_snapshot_reads_counters_and_spans() {
        let mut snap = TraceSnapshot::default();
        snap.counters.insert("sim.hours".into(), 168);
        snap.counters.insert("milp.bnb.nodes".into(), 123);
        snap.counters.insert("milp.lp.iterations".into(), 456);
        snap.counters.insert("core.engine.rebuilds".into(), 7);
        snap.spans.insert(
            "hour".into(),
            billcap_obs::SpanStats {
                count: 168,
                total_ns: 99,
                min_ns: 0,
                max_ns: 9,
            },
        );
        let a = TraceAggregates::from_snapshot(&snap);
        assert_eq!(a.hours, 168);
        assert_eq!(a.bnb_nodes, 123);
        assert_eq!(a.lp_iterations, 456);
        assert_eq!(a.hour_total_ns, 99);
        assert_eq!(a.step1_total_ns, 0);
        assert_eq!(a.engine_rebuilds, 7);
    }
}
