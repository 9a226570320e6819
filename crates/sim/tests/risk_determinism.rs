//! Risk-engine determinism contract, end to end.
//!
//! The engine promises bitwise-identical distributions at any thread
//! count, and the scratch-reuse month loop promises bitwise equality
//! with the fresh-allocation oracle. These tests exercise both through
//! the public API only (no `pub(crate)` helpers), including the
//! degenerate corners: one sample, all-identical seeds, and a cap
//! schedule plus starvation budget that forces the two-step path every
//! hour.

use billcap_core::{CapSchedule, HourOutcome};
use billcap_sim::{
    run_month_fresh, run_month_scratch, MonthScratch, RiskConfig, RiskEngine, RiskSample, Scenario,
    ScheduleSpec, Strategy,
};

fn quick_config(samples: usize) -> RiskConfig {
    RiskConfig {
        samples,
        hours: 48,
        monthly_budget: Some(Scenario::STRINGENT_BUDGET * 48.0 / 720.0),
        ..RiskConfig::default()
    }
}

fn assert_bitwise(a: &[RiskSample], b: &[RiskSample], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: sample count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.seed, y.seed, "{ctx}: sample {} seed", x.index);
        for (name, l, r) in [
            ("capper_bill", x.capper_bill, y.capper_bill),
            ("min_only_bill", x.min_only_bill, y.min_only_bill),
            ("savings_ratio", x.savings_ratio, y.savings_ratio),
            (
                "violation_magnitude",
                x.violation_magnitude,
                y.violation_magnitude,
            ),
            (
                "premium_miss_rate",
                x.premium_miss_rate,
                y.premium_miss_rate,
            ),
            (
                "premium_throughput",
                x.premium_throughput,
                y.premium_throughput,
            ),
            (
                "ordinary_throughput",
                x.ordinary_throughput,
                y.ordinary_throughput,
            ),
        ] {
            assert_eq!(
                l.to_bits(),
                r.to_bits(),
                "{ctx}: sample {} {name}: {l} vs {r}",
                x.index
            );
        }
        assert_eq!(x.hourly_violations, y.hourly_violations, "{ctx}");
        assert_eq!(x.violates_budget, y.violates_budget, "{ctx}");
    }
}

#[test]
fn summaries_are_bitwise_identical_across_thread_counts() {
    let mut digests = Vec::new();
    let mut all_samples = Vec::new();
    for threads in [1, 2, 4] {
        let mut cfg = quick_config(6);
        cfg.threads = threads;
        cfg.schedule = ScheduleSpec::Derate { depth: 0.2 };
        let (samples, summary) = RiskEngine::new(cfg).run().unwrap();
        digests.push(summary.digest());
        all_samples.push(samples);
    }
    assert_eq!(digests[0], digests[1], "threads 1 vs 2");
    assert_eq!(digests[0], digests[2], "threads 1 vs 4");
    assert_bitwise(&all_samples[0], &all_samples[1], "threads 1 vs 2");
    assert_bitwise(&all_samples[0], &all_samples[2], "threads 1 vs 4");
}

#[test]
fn scratch_loop_matches_fresh_oracle_on_risk_scenarios() {
    // The scratch path reuses one engine across three different months
    // (different seeds => different workloads, same system); each must
    // match a from-scratch fresh run bitwise — allocation reuse is an
    // accelerator, never an approximation.
    let mut scratch = MonthScratch::new();
    for seed in [11u64, 12, 13] {
        let s = Scenario::paper_default(1, seed).first_hours(72);
        let base: Vec<f64> = s.system.sites.iter().map(|x| x.power_cap_mw).collect();
        let sched = CapSchedule::derating(&base, 72, 0.25, seed);
        let budget = Some(Scenario::STRINGENT_BUDGET * 72.0 / 720.0);

        let reused = run_month_scratch(
            &s,
            Strategy::CostCapping,
            budget,
            true,
            Some(&sched),
            &mut scratch,
        )
        .unwrap();
        let fresh = run_month_fresh(&s, Strategy::CostCapping, budget, true, Some(&sched)).unwrap();
        assert_eq!(reused.hours.len(), fresh.hours.len());
        for (a, b) in reused.hours.iter().zip(&fresh.hours) {
            assert_eq!(
                a.realized_cost.to_bits(),
                b.realized_cost.to_bits(),
                "seed {seed} hour {}: scratch {} vs fresh {}",
                a.hour,
                a.realized_cost,
                b.realized_cost
            );
            assert_eq!(a.lambda, b.lambda, "seed {seed} hour {}", a.hour);
            assert_eq!(a.power_mw, b.power_mw, "seed {seed} hour {}", a.hour);
            assert_eq!(a.outcome, b.outcome, "seed {seed} hour {}", a.hour);
        }
    }
}

#[test]
fn month_start_resets_the_caps_a_derated_month_left() {
    // One scratch serves a derated month, a flat month of the same
    // system, then a month of another system. The month loop resets the
    // retained engine's caps once, at month start, so the flat month
    // matches the fresh oracle only if that reset undoes the derated
    // month's last hour.
    const HOURS: usize = 72;
    let budget = Some(Scenario::STRINGENT_BUDGET * HOURS as f64 / 720.0);
    let policy1 = Scenario::paper_default(1, 42).first_hours(HOURS);
    let policy2 = Scenario::paper_default(2, 42).first_hours(HOURS);
    let base: Vec<f64> = policy1
        .system
        .sites
        .iter()
        .map(|x| x.power_cap_mw)
        .collect();
    let derate = CapSchedule::derating(&base, HOURS, 0.3, 42);
    let mut scratch = MonthScratch::new();
    for (name, s, sched) in [
        ("derated policy 1", &policy1, Some(&derate)),
        ("flat policy 1", &policy1, None),
        ("policy 2", &policy2, None),
    ] {
        let reused =
            run_month_scratch(s, Strategy::CostCapping, budget, false, sched, &mut scratch)
                .unwrap();
        let fresh = run_month_fresh(s, Strategy::CostCapping, budget, false, sched).unwrap();
        assert_eq!(reused.hours.len(), HOURS, "{name}");
        assert_eq!(fresh.hours.len(), HOURS, "{name}");
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for (a, b) in reused.hours.iter().zip(&fresh.hours) {
            let h = a.hour;
            assert_eq!(
                a.realized_cost.to_bits(),
                b.realized_cost.to_bits(),
                "{name} hour {h}: scratch {} vs fresh {}",
                a.realized_cost,
                b.realized_cost
            );
            assert_eq!(bits(&a.lambda), bits(&b.lambda), "{name} hour {h}");
            assert_eq!(bits(&a.power_mw), bits(&b.power_mw), "{name} hour {h}");
            assert_eq!(a.outcome, b.outcome, "{name} hour {h}");
        }
    }
}

#[test]
fn cap_schedule_is_respected_in_every_audited_hour() {
    let mut cfg = quick_config(2);
    cfg.threads = 2;
    cfg.schedule = ScheduleSpec::Derate { depth: 0.3 };
    let (samples, _) = RiskEngine::new(cfg).run().unwrap();
    // The per-hour plan audit (power caps among its invariants) ran
    // inside every sample; a violation would have failed the run.
    // Spot-check the samples came back populated.
    assert_eq!(samples.len(), 2);
    for s in &samples {
        assert!(s.capper_bill.is_finite() && s.capper_bill > 0.0);
    }
}

#[test]
fn single_sample_run_degenerates_cleanly() {
    let mut cfg = quick_config(1);
    cfg.threads = 4; // more workers than samples
    let (samples, summary) = RiskEngine::new(cfg).run().unwrap();
    assert_eq!(samples.len(), 1);
    assert_eq!(summary.samples, 1);
    let s = &samples[0];
    // Every quantile of a one-sample distribution is that sample.
    for q in [
        summary.bill.p50,
        summary.bill.p95,
        summary.bill.p99,
        summary.bill.mean,
        summary.bill.min,
        summary.bill.max,
    ] {
        assert_eq!(q.to_bits(), s.capper_bill.to_bits());
    }
}

#[test]
fn identical_seeds_collapse_the_distribution() {
    let mut cfg = quick_config(4);
    cfg.threads = 2;
    let engine = RiskEngine::new(cfg);
    let (samples, summary) = engine.run_with_seeds(&[777, 777, 777, 777]).unwrap();
    for s in &samples[1..] {
        assert_eq!(s.capper_bill.to_bits(), samples[0].capper_bill.to_bits());
        assert_eq!(
            s.min_only_bill.to_bits(),
            samples[0].min_only_bill.to_bits()
        );
    }
    assert_eq!(summary.bill.min.to_bits(), summary.bill.max.to_bits());
    assert_eq!(
        summary.savings_ratio.p50.to_bits(),
        summary.savings_ratio.p99.to_bits()
    );
}

#[test]
fn starvation_budget_forces_the_two_step_path_every_hour() {
    // A $1 budget can never cover step 1's minimum cost, so every hour
    // must take the step-2 (throttle) or step-3 (premium override)
    // branch — and the audit must still sanction each of them.
    let s = Scenario::paper_default(1, 42).first_hours(48);
    let base: Vec<f64> = s.system.sites.iter().map(|x| x.power_cap_mw).collect();
    let sched = CapSchedule::derating(&base, 48, 0.3, 42);
    let mut scratch = MonthScratch::new();
    let r = run_month_scratch(
        &s,
        Strategy::CostCapping,
        Some(1.0),
        true,
        Some(&sched),
        &mut scratch,
    )
    .unwrap();
    assert_eq!(r.hours.len(), 48);
    for h in &r.hours {
        assert_ne!(
            h.outcome,
            Some(HourOutcome::WithinBudget),
            "hour {}: a $1 budget cannot be within budget",
            h.hour
        );
    }
    // And the degenerate month still matches the fresh oracle.
    let fresh = run_month_fresh(&s, Strategy::CostCapping, Some(1.0), true, Some(&sched)).unwrap();
    for (a, b) in r.hours.iter().zip(&fresh.hours) {
        assert_eq!(a.realized_cost.to_bits(), b.realized_cost.to_bits());
        assert_eq!(a.outcome, b.outcome);
    }
}
