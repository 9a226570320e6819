//! The step optimizers are one-shot fronts over the decision engine's
//! step path, so their work shows in the engine's exact counters: one
//! [`CostMinimizer::solve`] or [`ThroughputMaximizer::solve`] call
//! builds one model (`core.engine.rebuilds`) and certifies one solve
//! (`core.audit.solves`), in a release build as in a debug one.
//!
//! This test owns its process: it turns global tracing on and reads the
//! process-wide counters, so no other test may share the binary.

use billcap_core::{CostMinimizer, DataCenterSystem, ThroughputMaximizer};

/// The `(core.engine.rebuilds, core.audit.solves)` counters since the
/// last call.
fn counters() -> (u64, u64) {
    let snap = billcap_obs::snapshot();
    billcap_obs::reset();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    (
        counter("core.engine.rebuilds"),
        counter("core.audit.solves"),
    )
}

#[test]
fn each_optimizer_call_builds_and_certifies_one_model() {
    let sys = DataCenterSystem::paper_system(1);
    let bg = [330.0, 410.0, 280.0];
    billcap_obs::set_enabled(true);
    billcap_obs::reset();
    let min = CostMinimizer::default()
        .solve(&sys, 4e8, &bg)
        .expect("step 1");
    assert_eq!(counters(), (1, 1), "one minimizer call");
    let max = ThroughputMaximizer::default()
        .solve(&sys, 4e8, &bg, 0.8 * min.total_cost)
        .expect("step 2");
    assert!(max.total_lambda < 4e8, "the budget binds");
    assert_eq!(counters(), (1, 1), "one maximizer call");
    // A refused input builds and certifies nothing.
    let mut bad = sys.clone();
    bad.sites[0].power_cap_mw = f64::NAN;
    assert!(CostMinimizer::default().solve(&bad, 4e8, &bg).is_err());
    assert!(ThroughputMaximizer::default()
        .solve(&bad, 4e8, &bg, 1e4)
        .is_err());
    assert_eq!(counters(), (0, 0), "refused inputs");
    // The optimizers keep no state: a repeat call builds again.
    let minimizer = CostMinimizer::default();
    for _ in 0..3 {
        minimizer.solve(&sys, 4e8, &bg).expect("step 1");
    }
    assert_eq!(counters(), (3, 3), "three calls");
    billcap_obs::set_enabled(false);
}
