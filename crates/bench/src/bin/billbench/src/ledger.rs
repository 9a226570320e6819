//! The per-layer ledger of a traced pass: which layer's own code the
//! traced time went to, from the program's existing `billcap_obs` spans
//! plus the benchmark's `rep` span around each repetition.
//!
//! Self time is a span's duration minus what its child spans cover
//! ([`Profile`] does that arithmetic), so the layers' self times add up
//! to the profiled root. Time in a span the table below does not name
//! is left out of the sum, and the check that the layers cover the root
//! within 5% catches it.

use crate::report::Outcome;
use billcap_obs::json::Value;
use billcap_obs::TraceSnapshot;
use billcap_obs_analyze::{to_collapsed, Profile};
use std::path::Path;

/// Span name → layer. `rep` is the benchmark's own span around one
/// repetition, so its self time is the repetition time no program span
/// names; `risk_run` is the risk engine's fan-out, whose self time is
/// the caller waiting for the pool.
const LAYERS: [(&str, &str); 8] = [
    ("rep", "bench.unattributed"),
    ("risk_run", "rt.pool"),
    ("serve.request", "serve.request"),
    ("hour", "sim.hour"),
    ("step1", "capper.step1"),
    ("step2", "capper.step2"),
    ("step3", "capper.step3"),
    ("mip", "milp.mip"),
];

/// Allowed gap between the named layers' self times and the root.
const COVERAGE_TOLERANCE: f64 = 0.05;

/// One row of the ledger.
struct Row {
    layer: &'static str,
    span: &'static str,
    spans: u64,
    self_ns: u64,
    inclusive_ns: u64,
}

/// Builds the ledger from a traced pass, checks that it covers the
/// root, writes `layers.json` and a collapsed flame file under `dir`,
/// and records the per-layer metrics. Counts are divided by `per`, the
/// number of repetitions the pass ran (1 for a serve pass).
pub fn record_traced(o: &mut Outcome, snap: &TraceSnapshot, per: f64, dir: &Path, workload: &str) {
    let profile = Profile::from_snapshot(snap);
    let root_ns = profile.root().inclusive_ns;
    let mut rows: Vec<Row> = LAYERS
        .iter()
        .map(|&(span, layer)| Row {
            layer,
            span,
            spans: 0,
            self_ns: 0,
            inclusive_ns: 0,
        })
        .collect();
    let mut unnamed_ns = 0u64;
    for node in &profile.nodes[1..] {
        match rows.iter_mut().find(|r| r.span == node.name) {
            Some(r) => {
                r.spans += node.count;
                r.self_ns += node.self_ns;
                r.inclusive_ns += node.inclusive_ns;
            }
            None => unnamed_ns += node.self_ns,
        }
    }
    let named_ns: u64 = rows.iter().map(|r| r.self_ns).sum();
    let coverage = named_ns as f64 / root_ns.max(1) as f64;
    if root_ns == 0 {
        o.problem(format!("{workload}: the traced pass recorded no spans"));
    } else if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        o.problem(format!(
            "{workload}: layer self times cover {:.1}% of the profiled root ({unnamed_ns} ns in unnamed spans)",
            100.0 * coverage
        ));
    }
    if snap.orphans > 0 {
        o.problem(format!("{workload}: {} orphaned spans", snap.orphans));
    }

    let row = |span: &str| {
        rows.iter()
            .find(|r| r.span == span)
            .expect("span in LAYERS")
    };
    // Every fresh decision runs step 1 exactly once.
    let decisions = row("step1").spans;
    let per_decision_us = |span: &str| {
        if decisions == 0 {
            0.0
        } else {
            row(span).self_ns as f64 / decisions as f64 / 1e3
        }
    };
    o.set("capper.step1_self_us", per_decision_us("step1"));
    o.set("capper.step2_self_us", per_decision_us("step2"));
    o.set("capper.step3_self_us", per_decision_us("step3"));
    o.set("milp.mip_self_us", per_decision_us("mip"));
    o.set("sim.hour_self_us", per_decision_us("hour"));
    let rep = row("rep");
    if rep.inclusive_ns > 0 {
        o.set(
            "sim.unattributed_pct",
            100.0 * rep.self_ns as f64 / rep.inclusive_ns as f64,
        );
    }
    o.set("ledger.coverage_pct", 100.0 * coverage);

    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0) as f64;
    for (metric, key) in [
        ("milp.solves", "milp.bnb.solves"),
        ("milp.bnb_nodes", "milp.bnb.nodes"),
        ("milp.lp_iterations", "milp.lp.iterations"),
        ("milp.factorizations", "milp.lp.factorizations"),
        ("milp.bound_flips", "milp.lp.bound_flips"),
        ("milp.warm_starts", "milp.lp.warm_starts"),
        ("milp.degenerate_pivots", "milp.lp.degenerate_pivots"),
        ("capper.within_budget", "core.capper.within_budget"),
        ("capper.throttled", "core.capper.throttled"),
        ("capper.premium_override", "core.capper.premium_override"),
        ("engine.evictions", "core.engine.cache.evict"),
    ] {
        o.set(metric, counter(key) / per);
    }
    if decisions > 0 {
        o.set(
            "engine.rebuilds_per_kh",
            1e3 * counter("core.engine.rebuilds") / decisions as f64,
        );
    }
    let lookups = counter("core.engine.cache.hit") + counter("core.engine.cache.miss");
    if lookups > 0.0 {
        o.set(
            "engine.model_hit_ratio",
            counter("core.engine.cache.hit") / lookups,
        );
    }
    if let Some(g) = snap.gauges.get("rt.pool.worker_items") {
        o.set("pool.items_max", g.max);
        o.set("pool.items_min", g.min);
    }

    let layers_json = Value::Obj(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("root_ns".into(), Value::Int(root_ns as i64)),
        ("named_ns".into(), Value::Int(named_ns as i64)),
        ("unnamed_ns".into(), Value::Int(unnamed_ns as i64)),
        ("coverage_pct".into(), Value::Float(100.0 * coverage)),
        ("repetitions".into(), Value::Float(per)),
        (
            "layers".into(),
            Value::Arr(
                rows.iter()
                    .map(|r| {
                        Value::Obj(vec![
                            ("layer".into(), Value::Str(r.layer.into())),
                            ("span".into(), Value::Str(r.span.into())),
                            ("spans".into(), Value::Int(r.spans as i64)),
                            ("self_ns".into(), Value::Int(r.self_ns as i64)),
                            (
                                "share_pct".into(),
                                Value::Float(100.0 * r.self_ns as f64 / root_ns.max(1) as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counters".into(),
            Value::Obj(
                snap.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Int(*v as i64)))
                    .collect(),
            ),
        ),
    ]);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join("layers.json"), layers_json.render() + "\n"))
        .and_then(|()| std::fs::write(dir.join("flame.folded"), to_collapsed(&profile)));
    match written {
        Ok(()) => o.note(format!("ledger written to {}", dir.display())),
        Err(e) => o.problem(format!("writing the ledger under {}: {e}", dir.display())),
    }
    o.note(format!(
        "ledger ({} µs traced, {:.1}% named):",
        root_ns / 1000,
        100.0 * coverage
    ));
    for r in &rows {
        if r.spans > 0 {
            o.note(format!(
                "  {:<20} {:>9} spans {:>12} µs self {:>6.1}%",
                r.layer,
                r.spans,
                r.self_ns / 1000,
                100.0 * r.self_ns as f64 / root_ns.max(1) as f64
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use billcap_obs::SpanStats;

    fn stats(count: u64, total_ns: u64) -> SpanStats {
        SpanStats {
            count,
            total_ns,
            min_ns: total_ns / count,
            max_ns: total_ns / count,
        }
    }

    fn snapshot(extra: Option<(&str, u64)>) -> TraceSnapshot {
        let mut snap = TraceSnapshot::default();
        snap.spans.insert("rep".into(), stats(2, 1000));
        snap.spans.insert("rep/hour".into(), stats(4, 900));
        snap.spans.insert("rep/hour/step1".into(), stats(4, 600));
        snap.spans
            .insert("rep/hour/step1/mip".into(), stats(6, 400));
        if let Some((path, ns)) = extra {
            snap.spans.insert(path.into(), stats(1, ns));
        }
        snap.counters.insert("milp.bnb.solves".into(), 6);
        snap.counters.insert("core.engine.rebuilds".into(), 2);
        snap
    }

    fn dir(test: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("billbench-ledger-{test}-{}", std::process::id()))
    }

    #[test]
    fn self_times_of_named_layers_cover_the_root() {
        let mut o = Outcome::default();
        let dir = dir("covered");
        record_traced(&mut o, &snapshot(None), 2.0, &dir, "t");
        assert!(o.problems.is_empty(), "{:?}", o.problems);
        assert_eq!(o.values["ledger.coverage_pct"], 100.0);
        // 100 ns of the 1000 ns repetitions are outside every hour.
        assert_eq!(o.values["sim.unattributed_pct"], 10.0);
        // Per decision (4 step-1 spans): mip self 100 ns, step-1 self 50 ns.
        assert_eq!(o.values["milp.mip_self_us"], 0.1);
        assert_eq!(o.values["capper.step1_self_us"], 0.05);
        assert_eq!(o.values["milp.solves"], 3.0);
        assert_eq!(o.values["engine.rebuilds_per_kh"], 500.0);
        let json = std::fs::read_to_string(dir.join("layers.json")).unwrap();
        assert!(json.contains("\"layer\":\"milp.mip\""), "{json}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unnamed_spans_fail_the_coverage_check() {
        let mut o = Outcome::default();
        let dir = dir("unnamed");
        let snap = snapshot(Some(("rep/hour/new_layer", 200)));
        record_traced(&mut o, &snap, 2.0, &dir, "t");
        assert!(
            o.problems.iter().any(|p| p.contains("cover")),
            "{:?}",
            o.problems
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
