//! The month runner's and the risk engine's `audit` switch reaches every
//! capper solve: each solve of an audited run is linted and certified,
//! which the exact counter `core.audit.solves` records. A run with
//! `audit` off checks its solves only when `CapperConfig::default()`
//! does (debug builds), and a reused `MonthScratch` does not carry one
//! run's setting into the next.
//!
//! This test owns its process: it turns global tracing on and reads the
//! process-wide counter, so no other test may share the binary.

use billcap_core::CapperConfig;
use billcap_sim::{
    run_month_fresh, run_month_scratch, MonthScratch, RiskConfig, RiskEngine, Scenario, Strategy,
};

fn audited_solves() -> u64 {
    let snap = billcap_obs::snapshot();
    billcap_obs::reset();
    snap.counters.get("core.audit.solves").copied().unwrap_or(0)
}

#[test]
fn month_runs_and_risk_samples_honour_the_audit_switch() {
    let mut scenario = Scenario::paper_default(1, 42);
    scenario.workload = scenario.workload.slice(0, 48);
    scenario.background = scenario.background.iter().map(|b| b.slice(0, 48)).collect();
    let budget = Some(Scenario::STRINGENT_BUDGET * 48.0 / 720.0);
    let mut scratch = MonthScratch::new();
    billcap_obs::set_enabled(true);
    billcap_obs::reset();
    for audit in [true, false, true] {
        let checked = audit || CapperConfig::default().audit;
        let reused = run_month_scratch(
            &scenario,
            Strategy::CostCapping,
            budget,
            audit,
            None,
            &mut scratch,
        )
        .expect("scratch month");
        let reused_checks = audited_solves();
        let fresh = run_month_fresh(&scenario, Strategy::CostCapping, budget, audit, None)
            .expect("fresh month");
        let fresh_checks = audited_solves();
        let solves: usize = reused
            .hours
            .iter()
            .flat_map(|h| h.trace)
            .map(|t| t.solves)
            .sum();
        assert!(solves > 48, "some hour must reach step 2");
        let expected = if checked { solves as u64 } else { 0 };
        assert_eq!(reused_checks, expected, "scratch run, audit {audit}");
        assert_eq!(fresh_checks, expected, "fresh run, audit {audit}");
        assert_eq!(reused.total_cost().to_bits(), fresh.total_cost().to_bits());

        let risk = RiskConfig {
            samples: 2,
            hours: 24,
            threads: 2,
            audit,
            ..RiskConfig::default()
        };
        RiskEngine::new(risk).run().expect("risk run");
        assert_eq!(audited_solves() > 0, checked, "risk run, audit {audit}");
    }
    billcap_obs::set_enabled(false);
}
