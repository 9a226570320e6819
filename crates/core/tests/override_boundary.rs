//! The premium-override boundary (paper Section III): an hour whose
//! step-1 cost busts the budget prices the premium load alone (step 3)
//! and overrides only when that minimum cost still exceeds the budget.
//! A budget below step 1's certified cost floor skips step 1, since it
//! would bust the budget for certain; every other solve runs as before.
//! Every solve here is certified and every decision audited, as they
//! all are.

use billcap_core::{
    step1_cost_floor, Allocation, BillCapper, CostMinimizer, DataCenterSystem, HourDecision,
    HourOutcome,
};

const OFFERED: f64 = 8e8;
const PREMIUM: f64 = 0.8 * OFFERED;
const BACKGROUND: [f64; 3] = [330.0, 410.0, 280.0];

fn decide(budget: f64) -> HourDecision {
    BillCapper::default()
        .decide_hour(
            &DataCenterSystem::paper_system(1),
            OFFERED,
            PREMIUM,
            &BACKGROUND,
            budget,
        )
        .unwrap_or_else(|e| panic!("budget {budget}: {e}"))
}

/// Certified minimum cost of serving `lambda` alone.
fn min_cost(lambda: f64) -> Allocation {
    CostMinimizer::default()
        .solve(&DataCenterSystem::paper_system(1), lambda, &BACKGROUND)
        .expect("certified min-cost solve")
}

/// Every float of an allocation's dispatch, prices and costs by bit
/// pattern, with its server counts and price levels.
fn bits(a: &Allocation) -> (Vec<u64>, &[u64], &[usize]) {
    let floats = a
        .lambda
        .iter()
        .chain(&a.power_mw)
        .chain(&a.price)
        .chain(&a.cost)
        .chain([&a.total_cost, &a.total_lambda])
        .map(|v| v.to_bits())
        .collect();
    (floats, &a.servers, &a.level)
}

fn served(d: &HourDecision) -> f64 {
    d.premium_served + d.ordinary_served
}

/// Step 1's certified cost floor for the offered load.
fn floor() -> f64 {
    step1_cost_floor(&DataCenterSystem::paper_system(1), OFFERED, &BACKGROUND)
        .expect("a floor for the paper system")
}

/// Whether `d` skipped step 1 on its cost floor, checked against the
/// solves its outcome takes: 1 within budget, 3 throttled, 2 overridden,
/// one fewer without step 1.
fn step1_bounded(d: &HourDecision) -> bool {
    let full = match d.outcome {
        HourOutcome::WithinBudget => 1,
        HourOutcome::Throttled => 3,
        HourOutcome::PremiumOverride => 2,
    };
    let bounded = d.trace.step1_ns == 0;
    assert_eq!(d.trace.solves, full - usize::from(bounded), "{d:?}");
    bounded
}

#[test]
fn starvation_budget_overrides_with_the_step3_optimum() {
    // Below what the sites pay carrying no load at all.
    let base_cost = min_cost(0.0).total_cost;
    assert!(base_cost > 0.0);
    let budget = 0.5 * base_cost;
    let d = decide(budget);
    assert_eq!(d.outcome, HourOutcome::PremiumOverride);
    let step3 = min_cost(PREMIUM);
    assert_eq!(bits(&d.allocation), bits(&step3), "the step-3 optimum");
    assert!(d.cost() > budget);
    assert!(d.violates_budget());
    assert_eq!(d.premium_served, PREMIUM);
    assert_eq!(d.ordinary_served, 0.0);
    // The budget is under step 1's floor, so step 3 is the one solve;
    // step 2 never runs.
    assert!(budget < floor());
    assert_eq!(d.trace.solves, 1);
    assert_eq!(d.trace.step1_ns, 0);
    assert_eq!(d.trace.step2_ns, 0);
}

#[test]
fn the_step3_cost_is_the_override_boundary() {
    let premium_cost = min_cost(PREMIUM).total_cost;
    let full_cost = min_cost(OFFERED).total_cost;
    assert!(premium_cost < full_cost);
    let below = premium_cost.next_down();
    let above = premium_cost.next_up();

    // One ulp short of the premium load's minimum cost: override, and
    // the one-ulp overrun is a budget violation. The offered load's
    // floor lies above the premium load's cost here, so step 3 is the
    // hour's only solve.
    let d = decide(below);
    assert_eq!(d.outcome, HourOutcome::PremiumOverride);
    assert_eq!(bits(&d.allocation), bits(&min_cost(PREMIUM)));
    assert!(d.cost() > d.budget);
    assert!(d.violates_budget());
    assert_eq!(d.trace.solves, 1);

    // At the cost and one ulp above it the premium load fits, so step 2
    // throttles ordinary traffic and admits at least the premium load.
    for budget in [premium_cost, above] {
        let d = decide(budget);
        assert_eq!(d.outcome, HourOutcome::Throttled, "budget {budget}");
        assert_eq!(d.trace.solves, 2, "budget {budget}");
        assert!(served(&d) >= PREMIUM, "budget {budget}");
        assert!(!d.violates_budget(), "budget {budget}");
    }

    // A larger budget never serves less.
    let base_cost = min_cost(0.0).total_cost;
    let floor = floor();
    assert!(premium_cost < floor && floor < full_cost);
    let budgets = [
        0.5 * base_cost,
        below,
        premium_cost,
        above,
        0.5 * (premium_cost + full_cost),
        0.5 * (floor + full_cost),
        full_cost,
        f64::INFINITY,
    ];
    let decisions: Vec<HourDecision> = budgets.iter().map(|&b| decide(b)).collect();
    for (pair, budget) in decisions.windows(2).zip(&budgets[1..]) {
        assert!(
            served(&pair[1]) >= served(&pair[0]),
            "budget {budget} serves {} after {}",
            served(&pair[1]),
            served(&pair[0])
        );
    }
    assert_eq!(decisions[5].outcome, HourOutcome::Throttled);
    assert_eq!(decisions[6].outcome, HourOutcome::WithinBudget);
    assert_eq!(served(&decisions[7]), OFFERED);

    // Step 1 is skipped exactly where the budget is below its floor:
    // every budget of the ladder under the floor, not the throttled
    // one between the floor and the full cost (three solves).
    let bounded: Vec<bool> = decisions.iter().map(step1_bounded).collect();
    assert_eq!(bounded, [true, true, true, true, true, false, false, false]);
    for (&budget, &b) in budgets.iter().zip(&bounded) {
        assert_eq!(b, budget < floor, "budget {budget}");
    }
}
