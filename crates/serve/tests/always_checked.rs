//! The server's decision engines check every answer with no config:
//! each MILP solve is certified, which the exact counter
//! `core.audit.solves` records, and each decision is audited against
//! the paper's invariants, which `core.audit.plans` records. Both hold
//! in a release build as in a debug one, across two decider workers.
//!
//! This test owns its process: it turns global tracing on and reads the
//! process-wide counters, so no other test may share the binary.

use billcap_serve::{build_plan, run_replay, verify_replay, ServeConfig};

#[test]
fn serve_engines_check_every_solve_and_decision() {
    let plan = build_plan(1, 42, 24, Some(40_000.0)).expect("plan");
    let solves: usize = plan.expected.iter().map(|d| d.trace.solves).sum();
    assert!(solves > plan.requests.len(), "some hour must reach step 2");
    billcap_obs::set_enabled(true);
    billcap_obs::reset();
    let cfg = ServeConfig {
        workers: 2,
        cache: false,
        ..ServeConfig::default()
    };
    let outcome = run_replay(&cfg, &plan).expect("replay");
    verify_replay(&plan, &outcome).expect("decisions match the fresh capper");
    let snap = billcap_obs::snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("core.audit.solves"), solves as u64);
    assert_eq!(counter("core.audit.plans"), plan.requests.len() as u64);
    billcap_obs::set_enabled(false);
}
