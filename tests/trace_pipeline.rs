//! End-to-end trace consistency: a traced week-long simulation must emit
//! a snapshot whose spans, counters and histograms agree with the
//! `MonthlyReport` the run returns — the trace is an *account* of the
//! run, not an independent estimate.
//!
//! Everything lives in one `#[test]` because the global recorder and the
//! enable flag are process-wide state.

use billcap::core::CapSchedule;
use billcap::obs;
use billcap::sim::{run_month, run_month_scratch, MonthScratch, Scenario, Strategy};

fn hour_field(fields: &[(String, f64)], name: &str) -> Option<f64> {
    fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

#[test]
fn traced_week_is_consistent_with_report() {
    // One-week scenario with a budget so tight that every hour takes
    // the premium override, and is below step 1's certified cost floor:
    // every hour skips step 1 and solves step 3 alone.
    let scenario = Scenario::paper_default(1, 42).first_hours(168);

    obs::set_enabled(true);
    obs::reset();
    let report = run_month(&scenario, Strategy::CostCapping, Some(80_000.0)).unwrap();
    let snap = obs::snapshot();
    obs::set_enabled(false);

    // Span accounting: one "hour" span per simulated hour, each nesting
    // the capper's step spans and the MILP solve spans; nothing orphaned.
    assert_eq!(snap.orphans, 0, "unbalanced spans");
    assert_eq!(snap.spans["hour"].count, 168);
    assert_eq!(snap.counters["sim.hours"], 168);
    assert_eq!(snap.counters["core.capper.step1_bounded"], 168);
    assert!(!snap.spans.contains_key("hour/step1"));

    // Outcome counters partition the hours.
    let outcome_total: u64 = [
        "core.capper.within_budget",
        "core.capper.throttled",
        "core.capper.premium_override",
    ]
    .iter()
    .map(|k| snap.counters.get(*k).copied().unwrap_or(0))
    .sum();
    assert_eq!(outcome_total, 168);

    // The B&B node counter must equal the per-hour traces the report
    // carries (both are fed by the same MipStats).
    assert_eq!(report.traced_hours(), 168);
    assert_eq!(
        snap.counters["milp.bnb.nodes"] as usize,
        report.total_bnb_nodes()
    );
    assert_eq!(
        snap.counters["milp.lp.iterations"] as usize,
        report.total_lp_iterations()
    );
    // Every step-3 model of the week has a dual-feasible cold start that
    // crashes its six equality rows, and no solve needs Bland's rule or
    // finds its updated duals stale at exit (the step-1 week below pins
    // the pivot-kernel work).
    assert_eq!(snap.counters["milp.lp.phase1_starts"], 0);
    assert_eq!(snap.counters["milp.lp.crash_columns"], 1008);
    assert_eq!(snap.counters["milp.lp.bland_switches"], 0);
    assert_eq!(snap.counters["milp.lp.exit_dual_violations"], 0);
    // The $80k budget is below the premium load's cost in every hour:
    // each hour prices the premium load (step 3), finds it over budget
    // and overrides, so step 2 never runs. The week's one
    // DecisionEngine keeps one MipWorkspace for every solve: all but the
    // engine's first reuse it.
    assert_eq!(snap.counters["core.capper.premium_override"], 168);
    assert_eq!(snap.spans["hour/step3"].count, 168);
    assert!(snap.spans.contains_key("hour/step3/mip"));
    assert!(!snap.spans.contains_key("hour/step2"));
    assert_eq!(
        snap.counters["milp.bnb.solves"] - snap.counters["milp.lp.workspace_reuses"],
        1
    );

    // Per-hour span fields sum to the report's aggregates.
    let hour_events: Vec<_> = snap.events.iter().filter(|e| e.path == "hour").collect();
    assert_eq!(hour_events.len(), 168);
    let traced_cost: f64 = hour_events
        .iter()
        .map(|e| hour_field(&e.fields, "cost").expect("cost field"))
        .sum();
    assert!(
        (traced_cost - report.total_cost()).abs() < 1e-6 * report.total_cost(),
        "traced cost {traced_cost} vs report {}",
        report.total_cost()
    );
    let traced_premium: f64 = hour_events
        .iter()
        .map(|e| hour_field(&e.fields, "premium_served").expect("premium field"))
        .sum();
    let report_premium: f64 = report.hours.iter().map(|h| h.premium_served).sum();
    assert!((traced_premium - report_premium).abs() < 1e-6 * report_premium);

    // Each hour event names the price level chosen at every site, and it
    // matches the histogram's total observation count (one per site-hour).
    let sites = scenario.system.len();
    for e in &hour_events {
        for i in 0..sites {
            assert!(
                hour_field(&e.fields, &format!("level_s{i}")).is_some(),
                "missing level_s{i} on hour event"
            );
        }
    }
    let hist = &snap.histograms["core.capper.price_level"];
    assert_eq!(hist.count as usize, 168 * sites);

    // The JSONL exporter round-trips the whole snapshot losslessly.
    let jsonl = obs::export::to_jsonl(&snap);
    let back = obs::export::parse_jsonl(&jsonl).expect("parseable JSONL");
    assert_eq!(back, snap);

    // An unbudgeted week: every hour fits, so step 1 is the only step
    // and its floor never applies.
    obs::set_enabled(true);
    obs::reset();
    run_month(&scenario, Strategy::CostCapping, None).unwrap();
    let snap = obs::snapshot();
    obs::set_enabled(false);
    assert_eq!(snap.orphans, 0, "unbalanced spans");
    assert_eq!(snap.spans["hour/step1"].count, 168);
    assert!(snap.spans.contains_key("hour/step1/mip"));
    assert_eq!(snap.counters["core.capper.within_budget"], 168);
    assert_eq!(snap.counters.get("core.capper.step1_bounded"), None);
    // Every step-1 model of the week has a dual-feasible cold start: the
    // revised simplex never needs its dual phase 1.
    assert_eq!(snap.counters["milp.lp.phase1_starts"], 0);
    // Every cold start crashes its equality rows onto zero-cost columns
    // (the `one_level_i` binaries, and each site's `lam_i` in its power
    // row), so no pivot is spent bringing them in at ratio 0.
    assert_eq!(snap.counters["milp.lp.crash_columns"], 1008);
    // Pivot-kernel work, exact: a pivot updates x_B and the duals, so
    // it costs one FTRAN for the entering column (plus one more when the
    // ratio test flips bounds) and one BTRAN for the leaving row.
    // Rebuilds happen at each LP start and exit (x_B and the duals) and
    // after each mid-solve refactorization. The ratios below take the
    // start and exit rebuilds out, so they measure per-pivot work however
    // few pivots a start takes: every x_B rebuild not owed to a
    // refactorization, and two dual rebuilds per start (at most one on
    // the first pivot, one at exit). Recomputing both every pivot
    // (`refactor_every: 1`) reads above 2 FTRANs and 1.6 BTRANs here.
    let pivots = snap.counters["milp.lp.iterations"];
    assert_eq!(pivots, 802);
    let ftrans = snap.counters["milp.lp.ftran_calls"];
    let btrans = snap.counters["milp.lp.btran_calls"];
    let xb_refreshes = snap.counters["milp.lp.xb_refreshes"];
    assert_eq!(ftrans, 1502);
    assert_eq!(btrans, 1354);
    assert_eq!(xb_refreshes, 541);
    let refactorizations = snap.counters["milp.lp.refactorizations"];
    let starts = snap.counters["milp.lp.factorizations"] - refactorizations;
    let kernel_ftrans = ftrans - (xb_refreshes - refactorizations);
    let kernel_btrans = btrans - 2 * starts;
    assert!(kernel_ftrans * 10 <= pivots * 15);
    assert!(kernel_btrans * 10 <= pivots * 12);
    // No solve of the week needed Bland's rule, and the fresh duals at
    // every exit agreed with the updated ones.
    assert_eq!(snap.counters["milp.lp.bland_switches"], 0);
    assert_eq!(snap.counters["milp.lp.exit_dual_violations"], 0);

    // A derated week: the caps move every afternoon hour, but they are
    // values of the retained models, so the engine builds only once per
    // distinct kept-level key and never evicts.
    let base_caps: Vec<f64> = scenario
        .system
        .sites
        .iter()
        .map(|s| s.power_cap_mw)
        .collect();
    let sched = CapSchedule::derating(&base_caps, 168, 0.25, 42);
    obs::set_enabled(true);
    obs::reset();
    run_month_scratch(
        &scenario,
        Strategy::CostCapping,
        Some(80_000.0),
        false,
        Some(&sched),
        &mut MonthScratch::new(),
    )
    .unwrap();
    let snap = obs::snapshot();
    obs::set_enabled(false);
    // Exact work counters: a model rebuilt on a cap move (rather than
    // synced) shows up here as extra rebuilds and evictions. Every hour
    // overrides again under step 1's floor, so only the cost-min model
    // is ever built, and it serves one lookup (step 3's) per hour.
    assert_eq!(snap.counters["core.capper.step1_bounded"], 168);
    assert_eq!(snap.counters["core.engine.rebuilds"], 11);
    assert_eq!(snap.counters["core.engine.cache.hit"], 157);
    assert_eq!(snap.counters.get("core.engine.cache.evict"), None);
}
