//! Acceptance tests for the trace-analysis subsystem: a traced run's
//! profile must account for exactly the time and work the run reports,
//! the flamegraph export must round-trip losslessly, identical-seed
//! runs must diff clean, and injected regressions must trip the gate.
//!
//! The traced runs live in one `#[test]` because the global recorder
//! and the enable flag are process-wide state.

use billcap::obs;
use billcap::obs_analyze::{
    diff_snapshots, gate, parse_collapsed, to_collapsed, BenchPoint, BenchTrajectory, DiffConfig,
    GateConfig, Profile, TraceAggregates,
};
use billcap::sim::{run_month, MonthlyReport, Scenario, Strategy};

const HOURS: usize = 168;

fn week_scenario(seed: u64) -> Scenario {
    Scenario::paper_default(1, seed).first_hours(HOURS)
}

fn traced_run(seed: u64) -> (obs::TraceSnapshot, MonthlyReport) {
    obs::set_enabled(true);
    obs::reset();
    let report = run_month(&week_scenario(seed), Strategy::CostCapping, Some(80_000.0)).unwrap();
    let snap = obs::snapshot();
    obs::set_enabled(false);
    (snap, report)
}

#[test]
fn profile_flame_and_diff_round_trip_a_traced_week() {
    let (snap_a, report) = traced_run(42);
    let (snap_b, _) = traced_run(42);

    // --- Profile: the synthetic root accounts for all top-level spans.
    let profile = Profile::from_snapshot(&snap_a);
    let top_level_sum: u64 = snap_a
        .spans
        .iter()
        .filter(|(path, _)| !path.contains('/'))
        .map(|(_, s)| s.total_ns)
        .sum();
    assert_eq!(profile.root().inclusive_ns, top_level_sum);
    assert_eq!(profile.node("hour").unwrap().count, HOURS as u64);
    // The hot path descends from the root through `hour` into the solver.
    let hot: Vec<&str> = profile.hot_path().iter().map(|n| n.path.as_str()).collect();
    assert_eq!(hot.first().copied(), Some("hour"));

    // --- Work aggregates agree with the MonthlyReport (both sides are
    // fed by the same MipStats, so equality is exact).
    let agg = TraceAggregates::from_snapshot(&snap_a);
    assert_eq!(agg.hours as usize, report.traced_hours());
    assert_eq!(agg.bnb_nodes as usize, report.total_bnb_nodes());
    assert_eq!(agg.lp_iterations as usize, report.total_lp_iterations());
    assert!(agg.hour_total_ns >= agg.step1_total_ns);

    // --- Flamegraph stacks re-parse to the same totals, node for node.
    let folded = to_collapsed(&profile);
    let back = parse_collapsed(&folded).expect("collapsed stacks parse");
    assert_eq!(back.root().inclusive_ns, profile.root().inclusive_ns);
    for node in profile.hot_path() {
        let twin = back.node(&node.path).expect("node survives round trip");
        assert_eq!(twin.inclusive_ns, node.inclusive_ns, "at {}", node.path);
        assert_eq!(twin.self_ns, node.self_ns, "at {}", node.path);
    }

    // --- Two identical-seed runs diff clean: work counters are
    // bit-identical (exact thresholds), wall times only have to stay
    // within a deliberately generous window.
    let cfg = DiffConfig {
        time_rel: 5.0,
        time_abs_ns: 50.0e6,
        ..DiffConfig::default()
    };
    let report_ab = diff_snapshots(&snap_a, &snap_b, &cfg);
    assert!(
        !report_ab.has_regressions(),
        "identical-seed runs must not regress:\n{}",
        report_ab.render()
    );

    // --- Injected span slowdown past both thresholds is caught. A 10x
    // slowdown alone clears `time_rel` but can stay under `time_abs_ns`
    // when the week runs fast (an optimized build), so the injection
    // also adds twice the absolute threshold. It slows the baseline run
    // itself, so `10·a + 2·time_abs_ns` against `a` clears both
    // thresholds whatever either traced week's wall clock was.
    let mut slowed = snap_a.clone();
    if let Some(s) = slowed.spans.get_mut("hour") {
        s.total_ns = s.total_ns * 10 + 2 * cfg.time_abs_ns as u64;
    }
    let report_slow = diff_snapshots(&snap_a, &slowed, &cfg);
    assert!(report_slow.has_regressions());
    assert!(
        report_slow.regressed().iter().any(|e| e.name == "hour"),
        "{}",
        report_slow.render()
    );

    // --- Injected counter inflation is caught exactly.
    let mut inflated = snap_a.clone();
    *inflated.counters.get_mut("milp.bnb.nodes").unwrap() *= 2;
    let report_inflated = diff_snapshots(&snap_a, &inflated, &cfg);
    assert!(report_inflated
        .regressed()
        .iter()
        .any(|e| e.name == "milp.bnb.nodes"));

    // --- The trajectory gate: a baseline built from this run passes
    // against itself and fails once a bench median slows past the
    // threshold or the node count inflates.
    let bench = BenchPoint {
        name: "decide_hour/paper".into(),
        median_ns: 2.0e6,
        min_ns: 1.8e6,
        mean_ns: 2.1e6,
        samples: 15,
        iters_per_sample: 25,
    };
    let base = BenchTrajectory::new(vec![bench.clone()], agg.clone());
    assert!(!gate(&base, &base.clone(), &GateConfig::default()).has_regressions());

    let mut slow_traj = base.clone();
    slow_traj.benches[0].median_ns *= 2.0;
    assert!(gate(&base, &slow_traj, &GateConfig::default()).has_regressions());

    let mut inflated_traj = base.clone();
    inflated_traj.aggregates.bnb_nodes *= 2;
    assert!(gate(&base, &inflated_traj, &GateConfig::default()).has_regressions());

    // --- The JSONL on-disk form feeds the same pipeline: parse back and
    // re-profile to identical totals.
    let jsonl = obs::export::to_jsonl(&snap_a);
    let reparsed = obs::export::parse_jsonl(&jsonl).expect("jsonl parses");
    let reprofile = Profile::from_snapshot(&reparsed);
    assert_eq!(reprofile.root().inclusive_ns, profile.root().inclusive_ns);
}
