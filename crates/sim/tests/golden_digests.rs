//! Golden digests pinned across commits.
//!
//! The scratch-vs-fresh and thread-count differentials run the current
//! solver on both sides, so a change that moves every decision by the
//! same ulp passes them all. These digests were computed once and are
//! compared against fixed constants: a refactor of the solver, capper or
//! simulator that claims to keep decisions bit-identical must leave
//! them untouched. A change that moves decisions on purpose updates the
//! constants and says why.

use billcap_sim::{
    run_month_scratch, MonthScratch, RiskConfig, RiskEngine, Scenario, ScheduleSpec, Strategy,
};

/// FNV-1a (64-bit) over the hourly `realized_cost` bit patterns of the
/// seed-42, 720-hour Policy-1 month at the $1.5 M budget.
const MONTH_COST_DIGEST: u64 = 0x2c54_144d_7c12_e33b;

/// `RiskSummary::digest` of the seed-42 risk run: 4 samples × 168 h,
/// a $350 k budget, afternoon caps derated by up to 25%.
const RISK_DERATE_DIGEST: &str = "e5e3759b6c5b76a0";

/// One FNV-1a step over a 64-bit word, fed as two 32-bit halves (the
/// same fold `RiskSummary::digest` uses).
fn fnv(h: u64, x: u64) -> u64 {
    let mut h = h;
    for shift in [0u32, 32] {
        h = (h ^ ((x >> shift) & 0xffff_ffff)).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[test]
fn stringent_month_costs_match_the_golden_digest() {
    assert_eq!(Scenario::STRINGENT_BUDGET, 1.5e6);
    let scenario = Scenario::paper_default(1, 42);
    let report = run_month_scratch(
        &scenario,
        Strategy::CostCapping,
        Some(Scenario::STRINGENT_BUDGET),
        false,
        None,
        &mut MonthScratch::new(),
    )
    .expect("month runs");
    assert_eq!(report.hours.len(), 720);
    let digest = report.hours.iter().fold(0xcbf2_9ce4_8422_2325, |h, hour| {
        fnv(h, hour.realized_cost.to_bits())
    });
    assert_eq!(
        digest, MONTH_COST_DIGEST,
        "hourly costs moved: digest {digest:#018x}"
    );
}

#[test]
fn derated_risk_summary_matches_the_golden_digest() {
    let config = RiskConfig {
        samples: 4,
        hours: 168,
        threads: 1,
        root_seed: 42,
        monthly_budget: Some(350_000.0),
        schedule: ScheduleSpec::Derate { depth: 0.25 },
        ..RiskConfig::default()
    };
    let (_, summary) = RiskEngine::new(config).run().expect("risk run");
    assert_eq!(summary.digest(), RISK_DERATE_DIGEST);
}

/// Tracing records spans and counters around every solve, but never
/// feeds back into one: with global tracing on, both digests hold.
#[test]
fn tracing_never_moves_a_decision() {
    billcap_obs::set_enabled(true);
    stringent_month_costs_match_the_golden_digest();
    derated_risk_summary_matches_the_golden_digest();
    billcap_obs::set_enabled(false);
}
