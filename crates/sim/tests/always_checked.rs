//! Every capper solve is certified and every capping decision audited,
//! with no config: the exact counter `core.audit.solves` equals the
//! solves the month runners and the risk engine ran, and
//! `core.audit.plans` equals their capping decisions (Min-Only baseline
//! hours are not audited). Both hold in a release build as in a debug
//! one.
//!
//! This test owns its process: it turns global tracing on and reads the
//! process-wide counters, so no other test may share the binary.

use billcap_obs::TraceSnapshot;
use billcap_sim::{
    run_month_fresh, run_month_scratch, MonthScratch, RiskConfig, RiskEngine, Scenario, Strategy,
};

/// The `(core.audit.solves, core.audit.plans)` counters since the last
/// call, and the step spans (one per capper solve) in the same window.
fn checks() -> (u64, u64, u64) {
    let snap: TraceSnapshot = billcap_obs::snapshot();
    billcap_obs::reset();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let step_spans = snap
        .spans
        .iter()
        .filter(|(path, _)| {
            let leaf = path.rsplit('/').next().unwrap_or(path);
            matches!(leaf, "step1" | "step2" | "step3")
        })
        .map(|(_, s)| s.count)
        .sum();
    (
        counter("core.audit.solves"),
        counter("core.audit.plans"),
        step_spans,
    )
}

#[test]
fn month_runs_and_risk_samples_are_always_checked() {
    let hours = 48;
    let scenario = Scenario::paper_default(1, 42).first_hours(hours);
    let budget = Some(Scenario::STRINGENT_BUDGET * 48.0 / 720.0);
    let mut scratch = MonthScratch::new();
    billcap_obs::set_enabled(true);
    billcap_obs::reset();
    let reused = run_month_scratch(
        &scenario,
        Strategy::CostCapping,
        budget,
        false,
        None,
        &mut scratch,
    )
    .expect("scratch month");
    let reused_checks = checks();
    let fresh = run_month_fresh(&scenario, Strategy::CostCapping, budget, false, None)
        .expect("fresh month");
    let fresh_checks = checks();
    let solves: u64 = reused
        .hours
        .iter()
        .flat_map(|h| h.trace)
        .map(|t| t.solves as u64)
        .sum();
    assert!(solves > hours as u64, "some hour must reach step 2");
    let expected = (solves, hours as u64, solves);
    assert_eq!(reused_checks, expected, "scratch run");
    assert_eq!(fresh_checks, expected, "fresh run");
    assert_eq!(reused.total_cost().to_bits(), fresh.total_cost().to_bits());

    run_month_scratch(
        &scenario,
        Strategy::MinOnlyAvg,
        None,
        false,
        None,
        &mut scratch,
    )
    .expect("baseline month");
    assert_eq!(checks(), (0, 0, 0), "a baseline month is not the capper's");

    let risk = RiskConfig {
        samples: 2,
        hours: 24,
        threads: 2,
        ..RiskConfig::default()
    };
    let decisions = (risk.samples * risk.hours) as u64;
    RiskEngine::new(risk).run().expect("risk run");
    let (solves, plans, step_spans) = checks();
    assert!(solves >= decisions, "risk run: {solves} solves");
    assert_eq!((solves, plans), (step_spans, decisions), "risk run");
    billcap_obs::set_enabled(false);
}
