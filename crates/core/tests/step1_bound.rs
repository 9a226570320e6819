//! Step 1's certified cost floor ([`step1_cost_floor`]): a lower bound on
//! the cost of any step-1 solve, less a margin for the solver's
//! feasibility tolerance. The decision engine skips step 1 when the
//! hour's budget is below the floor, so the floor must never exceed a
//! cost step 1 returns, it must refuse inputs it cannot vouch for, and a
//! skipped step 1 must leave the decision exactly as it was.

use billcap_core::{
    step1_cost_floor, Allocation, BillCapper, CapSchedule, CostMinimizer, DataCenterSystem,
    HourDecision, HourOutcome, ThroughputMaximizer,
};
use billcap_market::StepPolicy;

/// Hour `h` of a day-long sweep: the offered and premium rates and a
/// background that drags sites across price breakpoints.
fn hour(h: usize) -> (f64, f64, Vec<f64>) {
    let t = h as f64;
    let offered = 4e8 + 3e8 * (t / 23.0);
    let background = vec![
        330.0 + 10.0 * t,
        410.0 + 2.0 * t,
        280.0 + 25.0 * (t * 0.7).sin().abs() * t.min(8.0),
    ];
    (offered, 0.6 * offered, background)
}

/// The paper system under `policy`, re-capped for hour `h` by an
/// afternoon derate when `derated`.
fn system(policy: usize, derated: bool, h: usize) -> DataCenterSystem {
    let mut sys = DataCenterSystem::paper_system(policy);
    if derated {
        let base: Vec<f64> = sys.sites.iter().map(|s| s.power_cap_mw).collect();
        CapSchedule::derating(&base, 24, 0.35, 42).apply(&mut sys, h);
    }
    sys
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

/// Every sweep hour under Policies 1–3, flat and derated caps: the
/// floor is at most the certified minimum cost of the offered load, and
/// close enough under it that a spent budget (zero or less) always
/// clears it.
#[test]
fn floor_never_exceeds_the_certified_step1_cost() {
    let mut cases = 0;
    let mut loosest: f64 = 1.0;
    let minimizer = CostMinimizer::default();
    for policy in 1..=3 {
        for derated in [false, true] {
            for h in 0..24 {
                let sys = system(policy, derated, h);
                let (offered, _, bg) = hour(h);
                let ctx = format!("policy {policy} derated {derated} hour {h}");
                let floor = step1_cost_floor(&sys, offered, &bg).expect(&ctx);
                let cost = minimizer.solve(&sys, offered, &bg).expect(&ctx).total_cost;
                assert!(floor <= cost, "{ctx}: floor {floor} over cost {cost}");
                assert!(floor > 0.0, "{ctx}: floor {floor}");
                loosest = loosest.min(floor / cost);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 3 * 2 * 24);
    assert!(loosest > 0.4, "floor as low as {loosest} of the cost");
}

/// What the engine decided before it had a floor, rebuilt from the
/// optimizers: step 1 busts `budget` (checked), step 3 prices the
/// premium load, and step 2 throttles when that fits.
fn unbounded_decision(
    sys: &DataCenterSystem,
    (offered, premium, bg): (f64, f64, &[f64]),
    budget: f64,
) -> (HourOutcome, Allocation) {
    let minimizer = CostMinimizer::default();
    let step1 = minimizer.solve(sys, offered, bg).unwrap();
    assert!(step1.total_cost > budget, "step 1 fits {budget}");
    let step3 = minimizer.solve(sys, premium, bg).unwrap();
    if step3.total_cost > budget {
        return (HourOutcome::PremiumOverride, step3);
    }
    let step2 = ThroughputMaximizer::default()
        .solve(sys, offered, bg, budget)
        .unwrap();
    (HourOutcome::Throttled, step2)
}

/// A budget one ulp under the floor skips step 1 and decides exactly
/// what the three-step path decides, bit for bit: with the sweep's
/// premium share, and with every request guaranteed, where step 3
/// solves step 1's own load. At the floor itself step 1 runs again and
/// the all-guaranteed decision is unchanged but for that solve.
#[test]
fn a_budget_under_the_floor_decides_like_the_full_path() {
    let mut outcomes = [0usize; 2];
    let capper = BillCapper::default();
    for policy in 1..=3 {
        for derated in [false, true] {
            for h in 0..24 {
                let sys = system(policy, derated, h);
                let (offered, premium, bg) = hour(h);
                let ctx = format!("policy {policy} derated {derated} hour {h}");
                let floor = step1_cost_floor(&sys, offered, &bg).unwrap();
                let budget = floor.next_down();
                let decide = |premium: f64, budget: f64| -> HourDecision {
                    capper
                        .decide_hour(&sys, offered, premium, &bg, budget)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"))
                };

                let d = decide(premium, budget);
                let (outcome, alloc) = unbounded_decision(&sys, (offered, premium, &bg), budget);
                assert_eq!(d.outcome, outcome, "{ctx}");
                assert_eq!(bits(&d.allocation), bits(&alloc), "{ctx}");
                let throttled = outcome == HourOutcome::Throttled;
                // Step 3, and step 2 when throttled.
                let solves = 1 + usize::from(throttled);
                assert_eq!(d.trace.solves, solves, "{ctx}: step 1 skipped");
                assert_eq!(d.trace.step1_ns, 0, "{ctx}");
                outcomes[usize::from(throttled)] += 1;

                let all = decide(offered, budget);
                let step1 = CostMinimizer::default().solve(&sys, offered, &bg).unwrap();
                assert_eq!(all.outcome, HourOutcome::PremiumOverride, "{ctx}");
                assert_eq!(bits(&all.allocation), bits(&step1), "{ctx}");
                assert_eq!(all.trace.solves, 1, "{ctx}");

                let at_floor = decide(offered, floor);
                assert_eq!(at_floor.outcome, HourOutcome::PremiumOverride, "{ctx}");
                assert_eq!(bits(&at_floor.allocation), bits(&step1), "{ctx}");
                assert_eq!(at_floor.trace.solves, 2, "{ctx}: step 1 ran");
            }
        }
    }
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "both outcomes under the floor, got {outcomes:?} (override, throttled)"
    );
}

/// No floor for a negative or non-finite price, a non-finite input or a
/// background of the wrong length: those hours still run step 1.
#[test]
fn no_floor_for_inputs_it_cannot_vouch_for() {
    let sys = DataCenterSystem::paper_system(1);
    let bg = [330.0, 410.0, 280.0];
    assert!(step1_cost_floor(&sys, 6e8, &bg).is_some());

    // A price on the level that holds each site's idle point.
    for price in [-1.0, f64::NAN, f64::INFINITY] {
        let mut priced = sys.clone();
        let policy = &priced.policies.policies[0];
        let mut prices = policy.prices().to_vec();
        prices[0] = price;
        priced.policies.policies[0] =
            StepPolicy::new_unchecked(policy.breakpoints().to_vec(), prices);
        assert_eq!(
            step1_cost_floor(&priced, 6e8, &[100.0, 410.0, 280.0]),
            None,
            "price {price}"
        );
    }

    for lambda in [f64::NAN, f64::INFINITY, -1.0] {
        assert_eq!(step1_cost_floor(&sys, lambda, &bg), None, "lambda {lambda}");
    }
    for d in [f64::NAN, f64::INFINITY] {
        assert_eq!(
            step1_cost_floor(&sys, 6e8, &[330.0, d, 280.0]),
            None,
            "background {d}"
        );
    }
    for cap in [f64::NAN, f64::INFINITY] {
        let mut capped = sys.clone();
        capped.sites[2].power_cap_mw = cap;
        assert_eq!(step1_cost_floor(&capped, 6e8, &bg), None, "cap {cap}");
    }
    assert_eq!(step1_cost_floor(&sys, 6e8, &bg[..2]), None);
    assert_eq!(
        step1_cost_floor(&sys, 6e8, &[330.0, 410.0, 280.0, 300.0]),
        None
    );

    // A NaN cap fails the decision at step 1, whatever the budget.
    let mut capped = sys.clone();
    capped.sites[2].power_cap_mw = f64::NAN;
    let capper = BillCapper::default();
    for budget in [-1e6, 0.0, 1.0] {
        assert!(capper.decide_hour(&capped, 6e8, 3e8, &bg, budget).is_err());
    }
}
