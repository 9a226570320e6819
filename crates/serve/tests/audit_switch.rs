//! The server's decision engines take their per-solve checks from
//! `ServeConfig::capper`. With `audit` on, every MILP solve is linted
//! and certified, which the exact counter `core.audit.solves` records;
//! with it off, in either build profile, no solve is. The answers are
//! the same either way.
//!
//! This test owns its process: it turns global tracing on and reads the
//! process-wide counter, so no other test may share the binary.

use billcap_core::CapperConfig;
use billcap_serve::{build_plan, run_replay, verify_replay, ServeConfig};

#[test]
fn serve_engines_honour_the_audit_switch() {
    let plan = build_plan(1, 42, 24, Some(40_000.0)).expect("plan");
    let solves: usize = plan.expected.iter().map(|d| d.trace.solves).sum();
    assert!(solves > plan.requests.len(), "some hour must reach step 2");
    billcap_obs::set_enabled(true);
    for audit in [true, false] {
        billcap_obs::reset();
        let cfg = ServeConfig {
            workers: 2,
            cache: false,
            capper: CapperConfig {
                audit,
                ..CapperConfig::default()
            },
            ..ServeConfig::default()
        };
        let outcome = run_replay(&cfg, &plan).expect("replay");
        verify_replay(&plan, &outcome).expect("decisions match the fresh capper");
        let audited = billcap_obs::snapshot()
            .counters
            .get("core.audit.solves")
            .copied()
            .unwrap_or(0);
        let expected = if audit { solves as u64 } else { 0 };
        assert_eq!(audited, expected, "audit {audit}");
    }
    billcap_obs::set_enabled(false);
}
