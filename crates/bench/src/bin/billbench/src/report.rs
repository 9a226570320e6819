//! The metric catalogue and the result of one workload run.
//!
//! Every metric the benchmark prints is declared here once, with its
//! unit. `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` at the
//! repository root (a unit test keeps the two in step); a workload that
//! does not exercise a layer leaves that layer's metrics unset, and the
//! per-layer output reports them as 0.

use billcap_obs::json::Value;
use std::collections::BTreeMap;

/// One metric: name, unit, and whether larger values are better.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees. Every workload reports all four; the
/// README's metric table gives each one's meaning per workload.
pub const END_TO_END: [MetricDef; 4] = [
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
    lower("p50_ms", "ms"),
    higher("rate_per_s", "1/s"),
];

/// Single-layer metrics, reported by traced runs (`--trace 1`).
pub const PER_LAYER: [MetricDef; 48] = [
    lower("protocol.decode_ns", "ns"),
    lower("protocol.render_ns", "ns"),
    lower("protocol.req_bytes", "B"),
    lower("protocol.resp_bytes", "B"),
    lower("server.request_us_p50", "us"),
    lower("server.request_us_p99", "us"),
    lower("server.solve_us_p50", "us"),
    lower("server.solve_us_p99", "us"),
    lower("server.backlog_max", "count"),
    higher("server.requests", "count"),
    higher("server.decisions", "count"),
    lower("server.errors", "count"),
    higher("cache.hit_ratio", "ratio"),
    lower("cache.evictions", "count"),
    lower("engine.rebuilds_per_kh", "1/kh"),
    higher("engine.model_hit_ratio", "ratio"),
    lower("engine.evictions", "count"),
    lower("capper.step1_self_us", "us"),
    lower("capper.step2_self_us", "us"),
    lower("capper.step3_self_us", "us"),
    higher("capper.within_budget", "count"),
    lower("capper.throttled", "count"),
    lower("capper.premium_override", "count"),
    lower("milp.mip_self_us", "us"),
    lower("milp.solves", "count"),
    lower("milp.bnb_nodes", "count"),
    lower("milp.lp_iterations", "count"),
    lower("milp.factorizations", "count"),
    lower("milp.bound_flips", "count"),
    lower("milp.warm_starts", "count"),
    lower("milp.degenerate_pivots", "count"),
    lower("sim.hour_self_us", "us"),
    lower("sim.unattributed_pct", "%"),
    higher("pool.items_max", "count"),
    higher("pool.items_min", "count"),
    lower("latency.tail_ms", "ms"),
    lower("loadgen.lag_p99_us", "us"),
    higher("loadgen.sent", "count"),
    higher("loadgen.answered", "count"),
    lower("loadgen.p50_lo_ms", "ms"),
    lower("loadgen.p50_hi_ms", "ms"),
    lower("loadgen.p99_hi_ms", "ms"),
    higher("loadgen.max_rate_rps", "1/s"),
    lower("loadgen.invalid_phases", "count"),
    lower("obs.trace_overhead_pct", "%"),
    lower("bench.oracle_s", "s"),
    higher("bench.speed_factor", "ratio"),
    higher("ledger.coverage_pct", "%"),
];

/// The catalogue entry for `name`.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Problems kept per run; a run that fails thousands of requests
/// needs the first few messages, not all of them.
const MAX_PROBLEMS: usize = 20;

/// What one workload run measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: requests sent, or repetitions run.
    pub attempted: u64,
    /// Operations that failed: errors, unanswered requests, and outputs
    /// that differ from the oracle.
    pub failed: u64,
    /// Failed checks, described. Any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Lines for the human report (phase tables, caveats).
    pub notes: Vec<String>,
    /// Measured metric values by catalogue name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a metric. Names outside the catalogue and non-finite
    /// values are bugs in the benchmark and fail the run.
    pub fn set(&mut self, name: &str, value: f64) {
        if lookup(name).is_none() {
            self.problem(format!("metric {name:?} is not in the catalogue"));
        } else if !value.is_finite() {
            self.problem(format!("metric {name} measured as {value}"));
        } else {
            self.values.insert(name.to_string(), value);
        }
    }

    /// Records a failed check.
    pub fn problem(&mut self, message: impl Into<String>) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(message.into());
        }
    }

    /// Adds a line to the human report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Folds another run's counts and problems into this one.
    pub fn absorb(&mut self, attempted: u64, failed: u64, problems: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        for p in problems {
            self.problem(p);
        }
    }

    /// The full record a workload child prints for its parent.
    pub fn to_child_json(&self) -> String {
        let strs = |v: &[String]| Value::Arr(v.iter().map(|s| Value::Str(s.clone())).collect());
        Value::Obj(vec![
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            ("problems".into(), strs(&self.problems)),
            ("notes".into(), strs(&self.notes)),
            (
                "values".into(),
                Value::Obj(
                    self.values
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Float(*v)))
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Parses [`Outcome::to_child_json`].
    pub fn from_child_json(text: &str) -> Result<Outcome, String> {
        let v = Value::parse(text).map_err(|e| format!("child result is not JSON: {e}"))?;
        let count = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("child result lacks {key:?}"))
        };
        let strs = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Value::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|s| s.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut values = BTreeMap::new();
        if let Some(Value::Obj(pairs)) = v.get("values") {
            for (k, x) in pairs {
                let x = x
                    .as_f64()
                    .ok_or_else(|| format!("metric {k} is not a number"))?;
                values.insert(k.clone(), x);
            }
        }
        Ok(Outcome {
            attempted: count("attempted")?,
            failed: count("failed")?,
            problems: strs("problems"),
            notes: strs("notes"),
            values,
        })
    }

    /// The result line of one run: `correct`, `attempted`, `failed`, and
    /// every metric of the chosen group with its unit. A missing
    /// end-to-end metric makes the run incorrect; an unset per-layer
    /// metric belongs to a layer the workload does not exercise and
    /// reads 0.
    pub fn result_json(&mut self, per_layer: bool) -> String {
        let group: &[MetricDef] = if per_layer { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(group.len());
        for m in group {
            let value = match self.values.get(m.name) {
                Some(v) => *v,
                None if per_layer => 0.0,
                None => {
                    self.problem(format!("end-to-end metric {} was not measured", m.name));
                    continue;
                }
            };
            metrics.push((
                m.name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            ));
        }
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Int(self.attempted.max(1) as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` fits the metric-name grammar: `[A-Za-z0-9_.-]+`,
    /// starting with a letter or digit, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in ["p50_ms", "cache.hit_ratio", "a-b.c_9", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/y",
            "ümlaut",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for m in &all {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                m.name
            );
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
    }

    /// `BENCHMARK.json` names, units and directions match the catalogue.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        for (key, group) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Value::as_arr).expect(key);
            assert_eq!(listed.len(), group.len(), "{key} length");
            for (entry, m) in listed.iter().zip(group) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(m.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(entry.get("better").and_then(Value::as_str), Some(better));
            }
        }
    }

    #[test]
    fn unset_per_layer_metrics_read_zero_but_end_to_end_must_exist() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.5);
        let line = o.result_json(true);
        assert!(
            line.contains("\"cache.hit_ratio\":{\"value\":0.0"),
            "{line}"
        );
        assert!(o.correct());
        let line = o.result_json(false);
        assert!(line.starts_with("{\"correct\":false"), "{line}");
    }

    #[test]
    fn child_json_round_trips() {
        let mut o = Outcome {
            attempted: 12,
            failed: 1,
            ..Outcome::default()
        };
        o.set("p50_ms", 1.25);
        o.set("no.such_metric", 1.0);
        o.note("phase lo ok");
        let back = Outcome::from_child_json(&o.to_child_json()).unwrap();
        assert_eq!(back.attempted, 12);
        assert_eq!(back.failed, 1);
        assert_eq!(back.values["p50_ms"], 1.25);
        assert_eq!(back.problems.len(), 1);
        assert_eq!(back.notes, ["phase lo ok"]);
    }
}
