//! The hourly simulation loop.
//!
//! One month loop holds the paper's budget feedback:
//! each hour's realized bill goes to the [`Budgeter`], which turns it
//! into the next hour's budget. At month start the loop resolves its
//! strategy into one decider, and every hour asks that decider:
//!
//! * the capper on a retained [`DecisionEngine`] (build-once /
//!   mutate-values MILPs) kept in a caller-owned [`MonthScratch`], so a
//!   Monte-Carlo worker pays model construction once per fleet, not
//!   once per hour × sample. [`run_month`] and [`run_month_scratch`]
//!   decide this way;
//! * the capper on a one-shot engine built for every hour, which
//!   [`run_month_fresh`] uses as the reference. The retained engine
//!   must match it bitwise on every decision (the engine's contract),
//!   which `tests/risk_determinism.rs` enforces;
//! * Min-Only on its own copy of the system.
//!
//! Every entry point accepts an optional [`CapSchedule`] that re-caps
//! every site at every hour; the engine's plan audit and the realized
//! billing always see the hour's capped system. Every capping hour is
//! checked by the engine itself: each solve certified, each decision
//! audited against the paper's invariants (a failure ends the month
//! with [`CoreError::Audit`]). Baselines are not audited: they break the
//! capper's invariants by design.

use crate::metrics::{HourRecord, HourTrace, MonthlyReport};
use crate::scenario::Scenario;
use billcap_core::{
    evaluate_allocation, system_fingerprint, CapSchedule, CoreError, DataCenterSystem,
    DecisionEngine, MinOnly, PriceAssumption,
};
use billcap_workload::{Budgeter, HOURS_PER_WEEK};

/// The strategies the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's two-step bill capping algorithm.
    CostCapping,
    /// Min-Only with average step prices assumed constant.
    MinOnlyAvg,
    /// Min-Only with the lowest step price assumed constant.
    MinOnlyLow,
}

impl Strategy {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::CostCapping => "Cost Capping",
            Strategy::MinOnlyAvg => "Min-Only (Avg)",
            Strategy::MinOnlyLow => "Min-Only (Low)",
        }
    }

    /// All three strategies, in the paper's presentation order.
    pub const ALL: [Strategy; 3] = [
        Strategy::CostCapping,
        Strategy::MinOnlyAvg,
        Strategy::MinOnlyLow,
    ];
}

/// Reusable per-worker month-run state: the retained decision engine
/// (keyed on the system it was built for) and the per-hour background
/// buffer. One scratch per worker; a 10k-sample Monte-Carlo run then
/// builds MILP structures a handful of times instead of 20k× per
/// sample.
///
/// Reuse is bitwise-safe: the engine's rebuild key covers everything
/// structural (the kept price levels) and every value, per-site caps
/// included, is rewritten to the hour's inputs before a solve, so a
/// decision never depends on what the scratch decided before —
/// `run_month_scratch` with a reused scratch equals [`run_month_fresh`]
/// bit for bit.
#[derive(Default)]
pub struct MonthScratch {
    /// Retained engine plus the fingerprint of the base system it was
    /// built from (caps may be schedule-mutated between hours; the
    /// fingerprint always describes the *uncapped* base spec).
    engine: Option<(u64, DecisionEngine)>,
    /// Reusable hour-sized background-demand vector.
    background: Vec<f64>,
}

impl MonthScratch {
    /// An empty scratch; everything is built lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Returns the retained engine for `system`, (re)building it when the
/// scratch last served a different system, and resetting any cap
/// mutation a previous month's schedule left behind. Runs once per
/// month: neither input changes within one.
fn ensure_engine<'a>(
    slot: &'a mut Option<(u64, DecisionEngine)>,
    system: &DataCenterSystem,
) -> &'a mut DecisionEngine {
    let fp = system_fingerprint(system);
    if !matches!(slot, Some((have, _)) if *have == fp) {
        let engine = DecisionEngine::new(system.clone());
        *slot = Some((fp, engine));
    } else if let Some((_, engine)) = slot.as_mut() {
        let caps: Vec<f64> = system.sites.iter().map(|s| s.power_cap_mw).collect();
        engine.set_site_caps(&caps);
    }
    match slot.as_mut() {
        Some((_, engine)) => engine,
        None => unreachable!("slot filled above"),
    }
}

/// Simulates the evaluation month under `strategy`.
///
/// `monthly_budget` applies only to Cost Capping (the baselines are
/// budget-unaware by design — that is the paper's point). Costs recorded
/// are *realized* costs: every strategy's allocation is billed under the
/// true step prices and the full power model.
pub fn run_month(
    scenario: &Scenario,
    strategy: Strategy,
    monthly_budget: Option<f64>,
) -> Result<MonthlyReport, CoreError> {
    month_loop(
        scenario,
        strategy,
        monthly_budget,
        None,
        &mut MonthScratch::new(),
        false,
    )
}

/// The production month loop: retained models, reused buffers, optional
/// time-varying caps. See the module docs for the scratch-reuse
/// contract. The schedule (when present) re-caps every site each hour;
/// the capper's models, its plan audit, and the realized billing all see
/// the capped system.
///
/// `_audit` is ignored: every solve is certified and every decision
/// audited in every build. The argument stays only because the
/// end-to-end benchmark passes it; the benchmark change that merges the
/// month entry points (ROADMAP item 12) removes it.
pub fn run_month_scratch(
    scenario: &Scenario,
    strategy: Strategy,
    monthly_budget: Option<f64>,
    _audit: bool,
    cap_schedule: Option<&CapSchedule>,
    scratch: &mut MonthScratch,
) -> Result<MonthlyReport, CoreError> {
    month_loop(
        scenario,
        strategy,
        monthly_budget,
        cap_schedule,
        scratch,
        false,
    )
}

/// The reference month: [`run_month_scratch`]'s loop with every hour
/// decided by a one-shot engine built for that hour, which builds its
/// models from scratch. The differential oracle
/// for [`run_month_scratch`]; semantics, including the optional cap
/// schedule and the ignored `_audit`, are identical.
pub fn run_month_fresh(
    scenario: &Scenario,
    strategy: Strategy,
    monthly_budget: Option<f64>,
    _audit: bool,
    cap_schedule: Option<&CapSchedule>,
) -> Result<MonthlyReport, CoreError> {
    month_loop(
        scenario,
        strategy,
        monthly_budget,
        cap_schedule,
        &mut MonthScratch::new(),
        true,
    )
}

/// How a month decides its hours, resolved once at month start.
enum Decider<'a> {
    /// The capper on the scratch's retained engine, its caps reset to
    /// the base system's.
    Retained(&'a mut DecisionEngine),
    /// The capper on a one-shot engine built for every hour.
    Fresh,
    /// Min-Only on its own copy of the system, re-capped every hour.
    MinOnly(Box<MinOnly>, DataCenterSystem),
}

/// The month loop behind every entry point. With `one_shot` set the
/// capper decides each hour on a fresh engine.
fn month_loop(
    scenario: &Scenario,
    strategy: Strategy,
    monthly_budget: Option<f64>,
    cap_schedule: Option<&CapSchedule>,
    scratch: &mut MonthScratch,
    one_shot: bool,
) -> Result<MonthlyReport, CoreError> {
    let horizon = scenario.horizon();
    let mut budgeter = make_budgeter(scenario, strategy, monthly_budget, horizon)?;
    let MonthScratch { engine, background } = scratch;
    let min_only =
        |prices| Decider::MinOnly(Box::new(MinOnly::new(prices)), scenario.system.clone());
    let mut decider = match strategy {
        Strategy::CostCapping if one_shot => Decider::Fresh,
        Strategy::CostCapping => Decider::Retained(ensure_engine(engine, &scenario.system)),
        Strategy::MinOnlyAvg => min_only(PriceAssumption::Average),
        Strategy::MinOnlyLow => min_only(PriceAssumption::Lowest),
    };

    let mut hours = Vec::with_capacity(horizon);
    // detlint-hot-start(month hour loop): this loop runs 720× per
    // Monte-Carlo sample; per-hour allocations belong in MonthScratch.
    for t in 0..horizon {
        let offered = scenario.workload.at(t);
        scenario.background_at_into(t, background);
        let hour = Hour {
            t,
            offered,
            premium: scenario.split.premium(offered),
            ordinary: scenario.split.ordinary(offered),
            background,
        };

        let record = match &mut decider {
            Decider::Retained(engine) => capping_hour(engine, &hour, cap_schedule, &mut budgeter)?,
            Decider::Fresh => {
                let mut engine = DecisionEngine::new(scenario.system.clone());
                capping_hour(&mut engine, &hour, cap_schedule, &mut budgeter)?
            }
            Decider::MinOnly(min_only, sys) => {
                if let Some(sched) = cap_schedule {
                    sched.apply(sys, t);
                }
                min_only_hour(&hour, sys, min_only)?
            }
        };
        hours.push(record);
    }
    // detlint-hot-end

    Ok(finish_report(strategy, monthly_budget, hours))
}

/// One hour's inputs.
struct Hour<'a> {
    t: usize,
    offered: f64,
    premium: f64,
    ordinary: f64,
    /// Background demand per site (MW).
    background: &'a [f64],
}

/// Budgeter construction: only Cost Capping with a monthly budget gets
/// one. A budget that is not positive, a month without hours and a
/// history shorter than a week are refused as
/// [`CoreError::InvalidInput`], before [`Budgeter::from_history`] would
/// panic on them.
fn make_budgeter(
    scenario: &Scenario,
    strategy: Strategy,
    monthly_budget: Option<f64>,
    horizon: usize,
) -> Result<Option<Budgeter>, CoreError> {
    let (Strategy::CostCapping, Some(budget)) = (strategy, monthly_budget) else {
        return Ok(None);
    };
    let refuse = |msg: String| Err(CoreError::InvalidInput(msg));
    if budget.is_nan() || budget <= 0.0 {
        return refuse(format!("monthly budget must be positive, got {budget}"));
    }
    if horizon == 0 {
        return refuse("a budgeted month needs at least one hour".into());
    }
    if scenario.history.len() < HOURS_PER_WEEK {
        return refuse(format!(
            "a budgeted month needs at least {HOURS_PER_WEEK} hours of history, got {}",
            scenario.history.len()
        ));
    }
    Ok(Some(Budgeter::from_history(
        budget,
        &scenario.history,
        horizon,
    )))
}

fn finish_report(
    strategy: Strategy,
    monthly_budget: Option<f64>,
    hours: Vec<HourRecord>,
) -> MonthlyReport {
    MonthlyReport {
        strategy_name: strategy.name().to_string(),
        monthly_budget: match strategy {
            Strategy::CostCapping => monthly_budget,
            _ => None,
        },
        hours,
    }
}

/// One Cost Capping hour on `engine`: re-cap it for the hour, decide,
/// then bill the decision under the true prices, feed the budgeter and
/// assemble the record.
fn capping_hour(
    engine: &mut DecisionEngine,
    hour: &Hour,
    cap_schedule: Option<&CapSchedule>,
    budgeter: &mut Option<Budgeter>,
) -> Result<HourRecord, CoreError> {
    if let Some(sched) = cap_schedule {
        engine.set_site_caps(sched.caps_at(hour.t));
    }
    let hourly_budget = budgeter
        .as_ref()
        .map(Budgeter::hourly_budget)
        .unwrap_or(f64::INFINITY);
    let t_start = billcap_obs::Stopwatch::start();
    let mut hour_span = billcap_obs::span("hour");
    let decision =
        engine.decide_hour(hour.offered, hour.premium, hour.background, hourly_budget)?;
    let realized = evaluate_allocation(
        engine.system(),
        &decision.allocation.lambda,
        hour.background,
    );
    if let Some(b) = budgeter.as_mut() {
        b.record_spend(realized.total_cost);
    }
    let carryover = budgeter.as_ref().map(Budgeter::carryover);
    if hour_span.is_enabled() {
        hour_span.field("hour", hour.t as f64);
        hour_span.field("cost", realized.total_cost);
        hour_span.field("solves", decision.trace.solves as f64);
        hour_span.field("nodes", decision.trace.nodes as f64);
        hour_span.field(
            "outcome",
            match decision.outcome {
                billcap_core::HourOutcome::WithinBudget => 0.0,
                billcap_core::HourOutcome::Throttled => 1.0,
                billcap_core::HourOutcome::PremiumOverride => 2.0,
            },
        );
        hour_span.field("premium_served", decision.premium_served);
        hour_span.field("ordinary_served", decision.ordinary_served);
        if let Some(c) = carryover {
            hour_span.field("carry", c);
        }
        for (i, &k) in decision.allocation.level.iter().enumerate() {
            hour_span.field(&format!("level_s{i}"), k as f64);
        }
        billcap_obs::counter("sim.hours", 1);
    }
    drop(hour_span);
    let trace = HourTrace {
        wall_ns: t_start.elapsed_ns(),
        solves: decision.trace.solves,
        nodes: decision.trace.nodes,
        lp_iterations: decision.trace.lp_iterations,
        carryover,
    };
    Ok(HourRecord {
        hour: hour.t,
        offered: hour.offered,
        premium_offered: hour.premium,
        ordinary_offered: hour.ordinary,
        premium_served: decision.premium_served,
        ordinary_served: decision.ordinary_served,
        realized_cost: realized.total_cost,
        believed_cost: decision.allocation.total_cost,
        hourly_budget: budgeter.is_some().then_some(decision.budget),
        outcome: Some(decision.outcome),
        lambda: decision.allocation.lambda,
        power_mw: realized.power_mw,
        price: realized.price,
        trace: Some(trace),
    })
}

/// One baseline (Min-Only) hour. Min-Only
/// serves everything it physically can, budget or not; extreme flash
/// crowds get the same capacity clamp the capper applies.
fn min_only_hour(
    hour: &Hour,
    system: &DataCenterSystem,
    min_only: &mut MinOnly,
) -> Result<HourRecord, CoreError> {
    let capacity = system.total_capacity();
    let admitted = hour.offered.min(capacity);
    let decision = min_only.solve(system, admitted)?;
    let realized = evaluate_allocation(system, &decision.lambda, hour.background);
    let premium_served = hour.premium.min(admitted);
    Ok(HourRecord {
        hour: hour.t,
        offered: hour.offered,
        premium_offered: hour.premium,
        ordinary_offered: hour.ordinary,
        premium_served,
        ordinary_served: admitted - premium_served,
        realized_cost: realized.total_cost,
        believed_cost: decision.believed_cost,
        hourly_budget: None,
        outcome: None,
        lambda: decision.lambda,
        power_mw: realized.power_mw,
        price: realized.price,
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    /// A one-week scenario keeps unit tests fast; full months run in the
    /// experiment suite and benchmarks.
    fn short_scenario() -> Scenario {
        Scenario::paper_default(1, 42).first_hours(168)
    }

    #[test]
    fn unbudgeted_capping_serves_everything() {
        let s = short_scenario();
        let r = run_month(&s, Strategy::CostCapping, None).unwrap();
        assert_eq!(r.hours.len(), 168);
        assert!((r.premium_throughput() - 1.0).abs() < 1e-9);
        assert!((r.ordinary_throughput() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capping_beats_baselines_on_cost() {
        let s = short_scenario();
        let capping = run_month(&s, Strategy::CostCapping, None).unwrap();
        let avg = run_month(&s, Strategy::MinOnlyAvg, None).unwrap();
        let low = run_month(&s, Strategy::MinOnlyLow, None).unwrap();
        assert!(
            capping.total_cost() < avg.total_cost(),
            "capping {} vs avg {}",
            capping.total_cost(),
            avg.total_cost()
        );
        assert!(
            capping.total_cost() < low.total_cost(),
            "capping {} vs low {}",
            capping.total_cost(),
            low.total_cost()
        );
    }

    #[test]
    fn budgeted_run_records_budgets_and_premium_is_safe() {
        let s = short_scenario();
        // A deliberately tight weekly-scale budget.
        let r = run_month(&s, Strategy::CostCapping, Some(80_000.0)).unwrap();
        assert!((r.premium_throughput() - 1.0).abs() < 1e-9);
        assert!(r.hours.iter().all(|h| h.hourly_budget.is_some()));
        // Under a tight budget at least some ordinary traffic is shed.
        assert!(r.ordinary_throughput() < 1.0);
    }

    #[test]
    fn a_budget_the_budgeter_cannot_spread_is_refused() {
        let s = short_scenario();
        let refused = |r: Result<MonthlyReport, CoreError>| matches!(r, Err(CoreError::InvalidInput(m)) if m.contains("budget"));
        for budget in [0.0, f64::NAN, -1.0] {
            let b = Some(budget);
            assert!(refused(run_month(&s, Strategy::CostCapping, b)), "{budget}");
            let fresh = run_month_fresh(&s, Strategy::CostCapping, b, false, None);
            assert!(refused(fresh), "{budget}");
            let mut scratch = MonthScratch::new();
            let reused = run_month_scratch(&s, Strategy::CostCapping, b, false, None, &mut scratch);
            assert!(refused(reused), "{budget}");
        }
        let mut short_history = s.clone();
        short_history.history = short_history.history.slice(0, 100);
        assert!(refused(run_month(
            &short_history,
            Strategy::CostCapping,
            Some(1e6)
        )));
        let empty = s.first_hours(0);
        assert!(refused(run_month(&empty, Strategy::CostCapping, Some(1e6))));
        // An unbudgeted empty month has nothing to refuse.
        let r = run_month(&empty, Strategy::CostCapping, None).unwrap();
        assert!(r.hours.is_empty());
    }

    #[test]
    fn baselines_ignore_budgets() {
        let s = short_scenario();
        let r = run_month(&s, Strategy::MinOnlyAvg, Some(1.0)).unwrap();
        assert_eq!(r.monthly_budget, None);
        assert!((r.ordinary_throughput() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn believed_vs_realized_gap_direction() {
        // Min-Only (Low) underestimates its bill; Cost Capping's believed
        // (linearized) cost is within a fraction of a percent of realized.
        let s = short_scenario();
        let low = run_month(&s, Strategy::MinOnlyLow, None).unwrap();
        assert!(low.total_believed_cost() < low.total_cost());
        let capping = run_month(&s, Strategy::CostCapping, None).unwrap();
        let rel =
            (capping.total_believed_cost() - capping.total_cost()).abs() / capping.total_cost();
        assert!(rel < 0.01, "capping believed-vs-real gap {rel}");
    }

    /// Bitwise equality of two monthly reports on everything
    /// deterministic (wall-clock ns excluded).
    pub(crate) fn assert_reports_bitwise_equal(a: &MonthlyReport, b: &MonthlyReport, ctx: &str) {
        assert_eq!(a.strategy_name, b.strategy_name, "{ctx}: strategy");
        assert_eq!(a.hours.len(), b.hours.len(), "{ctx}: hours");
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for (x, y) in a.hours.iter().zip(&b.hours) {
            let h = x.hour;
            assert_eq!(x.hour, y.hour, "{ctx}: hour index");
            assert_eq!(
                x.offered.to_bits(),
                y.offered.to_bits(),
                "{ctx} h{h}: offered"
            );
            assert_eq!(
                x.premium_served.to_bits(),
                y.premium_served.to_bits(),
                "{ctx} h{h}: premium_served"
            );
            assert_eq!(
                x.ordinary_served.to_bits(),
                y.ordinary_served.to_bits(),
                "{ctx} h{h}: ordinary_served"
            );
            assert_eq!(
                x.realized_cost.to_bits(),
                y.realized_cost.to_bits(),
                "{ctx} h{h}: realized_cost"
            );
            assert_eq!(
                x.believed_cost.to_bits(),
                y.believed_cost.to_bits(),
                "{ctx} h{h}: believed_cost"
            );
            assert_eq!(
                x.hourly_budget.map(f64::to_bits),
                y.hourly_budget.map(f64::to_bits),
                "{ctx} h{h}: hourly_budget"
            );
            assert_eq!(x.outcome, y.outcome, "{ctx} h{h}: outcome");
            assert_eq!(bits(&x.lambda), bits(&y.lambda), "{ctx} h{h}: lambda");
            assert_eq!(bits(&x.power_mw), bits(&y.power_mw), "{ctx} h{h}: power");
            assert_eq!(bits(&x.price), bits(&y.price), "{ctx} h{h}: price");
            let (tx, ty) = (&x.trace, &y.trace);
            assert_eq!(tx.is_some(), ty.is_some(), "{ctx} h{h}: trace presence");
            if let (Some(tx), Some(ty)) = (tx, ty) {
                assert_eq!(tx.solves, ty.solves, "{ctx} h{h}: solves");
                assert_eq!(tx.nodes, ty.nodes, "{ctx} h{h}: nodes");
                assert_eq!(tx.lp_iterations, ty.lp_iterations, "{ctx} h{h}: lp iters");
                assert_eq!(
                    tx.carryover.map(f64::to_bits),
                    ty.carryover.map(f64::to_bits),
                    "{ctx} h{h}: carryover"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_run_bitwise() {
        let s = short_scenario();
        let mut scratch = MonthScratch::new();
        for strategy in Strategy::ALL {
            for budget in [None, Some(80_000.0)] {
                let ctx = format!("{} budget={budget:?}", strategy.name());
                let fresh = run_month_fresh(&s, strategy, budget, false, None).unwrap();
                // The same scratch serves every run — reuse must not leak.
                let reused =
                    run_month_scratch(&s, strategy, budget, false, None, &mut scratch).unwrap();
                assert_reports_bitwise_equal(&reused, &fresh, &ctx);
            }
        }
    }

    #[test]
    fn cap_schedule_flows_into_decisions_and_audit() {
        let s = short_scenario();
        let base: Vec<f64> = s.system.sites.iter().map(|x| x.power_cap_mw).collect();
        let sched = billcap_core::CapSchedule::derating(&base, 168, 0.35, 42);
        let mut scratch = MonthScratch::new();
        let capped = run_month_scratch(
            &s,
            Strategy::CostCapping,
            None,
            false,
            Some(&sched),
            &mut scratch,
        )
        .unwrap();
        // The derate must actually bind somewhere: the capped month's
        // dispatch differs from the flat-cap month's.
        let flat =
            run_month_scratch(&s, Strategy::CostCapping, None, false, None, &mut scratch).unwrap();
        assert!(
            capped
                .hours
                .iter()
                .zip(&flat.hours)
                .any(|(a, b)| a.lambda != b.lambda),
            "a 35% afternoon derate should move at least one hour's dispatch"
        );
        // And the scratch path matches the fresh path under the schedule.
        let fresh = run_month_fresh(&s, Strategy::CostCapping, None, false, Some(&sched)).unwrap();
        assert_reports_bitwise_equal(&capped, &fresh, "capped month");
    }

    #[test]
    fn cap_schedule_respected_in_every_hours_audit() {
        let s = short_scenario();
        let base: Vec<f64> = s.system.sites.iter().map(|x| x.power_cap_mw).collect();
        let sched = billcap_core::CapSchedule::derating(&base, 168, 0.35, 7);
        let mut scratch = MonthScratch::new();
        let r = run_month_scratch(
            &s,
            Strategy::CostCapping,
            Some(80_000.0),
            false,
            Some(&sched),
            &mut scratch,
        )
        .unwrap();
        // First-principles re-check outside the engine's plan audit:
        // every hour's realized per-site power obeys that hour's
        // scheduled cap. Realized power bills whole servers (ceil) and
        // whole switches, so it can sit a hair above the linearized
        // power the MILP held to the cap; the tolerance covers that
        // rounding at a binding cap. The largest overshoot in this
        // month is 1.21e-5 relative (hour 131, site 1: 55.22639 MW
        // against a 55.22573 MW cap; hour 105 is at 1.09e-5), and at
        // most 1.3e-5 over the whole 144-month corpus, so 1e-4 is
        // still a ceiling.
        for h in &r.hours {
            let caps = sched.caps_at(h.hour);
            for (i, &p) in h.power_mw.iter().enumerate() {
                assert!(
                    p <= caps[i] * (1.0 + 1e-4),
                    "hour {} site {i}: power {p} MW exceeds scheduled cap {} MW",
                    h.hour,
                    caps[i]
                );
            }
        }
    }

    #[test]
    fn baselines_respect_cap_schedules_too() {
        let s = short_scenario();
        let base: Vec<f64> = s.system.sites.iter().map(|x| x.power_cap_mw).collect();
        let sched = billcap_core::CapSchedule::derating(&base, 168, 0.35, 42);
        let mut scratch = MonthScratch::new();
        let capped = run_month_scratch(
            &s,
            Strategy::MinOnlyAvg,
            None,
            false,
            Some(&sched),
            &mut scratch,
        )
        .unwrap();
        let fresh = run_month_fresh(&s, Strategy::MinOnlyAvg, None, false, Some(&sched)).unwrap();
        assert_reports_bitwise_equal(&capped, &fresh, "capped baseline");
        // The capped system shrinks deliverable capacity, so the
        // baseline's admissions must react to the schedule.
        let flat = run_month_fresh(&s, Strategy::MinOnlyAvg, None, false, None).unwrap();
        assert!(
            capped
                .hours
                .iter()
                .zip(&flat.hours)
                .any(|(a, b)| a.lambda != b.lambda),
            "the derate should move at least one baseline hour's dispatch"
        );
    }
}
