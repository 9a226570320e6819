//! Tests for the process-global recorder and enabled-state switch.
//!
//! These live in their own integration-test binary (own process) so
//! they fully control the global state; a static mutex serializes the
//! tests within the binary.

use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

#[test]
fn disabled_by_default_records_nothing() {
    let _g = LOCK.lock().unwrap();
    // Tracing starts off, but another test may have flipped the
    // switch; force a known state.
    billcap_obs::set_enabled(false);
    billcap_obs::reset();

    assert!(!billcap_obs::enabled());
    {
        let mut s = billcap_obs::span("hour");
        assert!(!s.is_enabled());
        s.field("x", 1.0);
    }
    billcap_obs::counter("c", 5);
    billcap_obs::gauge("g", 1.0);
    billcap_obs::observe("h", 2.0);
    assert!(billcap_obs::snapshot().is_empty());
}

#[test]
fn enabled_records_through_free_functions() {
    let _g = LOCK.lock().unwrap();
    billcap_obs::set_enabled(true);
    billcap_obs::reset();

    {
        let mut s = billcap_obs::span("hour");
        assert!(s.is_enabled());
        s.field("cost", 9.5);
        let _inner = billcap_obs::span("mip");
        billcap_obs::counter("milp.bnb.nodes", 3);
    }
    billcap_obs::gauge("budget.slack", -1.0);
    billcap_obs::observe_with("depth", 2.0, &[1.0, 4.0]);

    let snap = billcap_obs::snapshot();
    assert_eq!(snap.counters["milp.bnb.nodes"], 3);
    assert_eq!(snap.spans["hour"].count, 1);
    assert_eq!(snap.spans["hour/mip"].count, 1);
    assert_eq!(snap.gauges["budget.slack"].last, -1.0);
    assert_eq!(snap.histograms["depth"].counts, vec![0, 1, 0]);
    assert_eq!(snap.orphans, 0);

    billcap_obs::set_enabled(false);
    billcap_obs::reset();
}

#[test]
fn toggling_mid_run_drops_only_disabled_records() {
    let _g = LOCK.lock().unwrap();
    billcap_obs::set_enabled(true);
    billcap_obs::reset();

    billcap_obs::counter("kept", 1);
    billcap_obs::set_enabled(false);
    billcap_obs::counter("dropped", 1);
    billcap_obs::set_enabled(true);
    billcap_obs::counter("kept", 1);

    let snap = billcap_obs::snapshot();
    assert_eq!(snap.counters.get("kept"), Some(&2));
    assert_eq!(snap.counters.get("dropped"), None);

    billcap_obs::set_enabled(false);
    billcap_obs::reset();
}
