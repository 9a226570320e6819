//! Integration tests for the certification layer: the MILP certificate
//! checker ([`billcap::milp::certify_solution`]) and the first-principles
//! plan auditor ([`billcap::core::PlanAuditor`]) must accept everything
//! the real pipeline produces — optimizer allocations, capper decisions
//! across all three hour outcomes, full audited month simulations — and
//! reject deliberately corrupted artifacts of every class the paper's
//! invariants rule out. A discrete-event G/G/m simulation cross-validates
//! the Allen–Cunneen model the auditor recomputes response times with.

use billcap::core::{
    BillCapper, CostMinimizer, DataCenterSystem, HourOutcome, PlanAuditor, PlanViolation,
    ThroughputMaximizer,
};
use billcap::milp::{certify_solution, ConstraintOp, MipSolver, Model, Sense};
use billcap::queueing::{GgmModel, QueueSim};
use billcap::rt::{Rng, Xoshiro256pp};
use billcap::sim::{run_month, Scenario, Strategy};

fn system() -> DataCenterSystem {
    DataCenterSystem::paper_system(1)
}

/// Every genuine optimizer output and capper decision over seeded random
/// hours must pass both audit layers. This is the "existing experiment
/// outputs certify" half of the contract; corruption rejection is below.
#[test]
fn genuine_pipeline_outputs_audit_clean() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA0D1);
    let sys = system();
    let auditor = PlanAuditor::default();
    let capper = BillCapper::default();
    for case in 0..24 {
        let lambda = rng.random_f64_in(1e7, 1.2e9);
        let d: Vec<f64> = (0..3).map(|_| rng.random_f64_in(150.0, 650.0)).collect();

        let alloc = CostMinimizer::default().solve(&sys, lambda, &d).unwrap();
        let report = auditor.audit_allocation(&sys, &alloc, &d);
        assert!(report.passed(), "case {case}: minimizer {report}");

        let budget = rng.random_f64_in(0.3, 1.2) * alloc.total_cost;
        if let Ok(max) = ThroughputMaximizer::default().solve(&sys, lambda, &d, budget) {
            let report = auditor.audit_allocation(&sys, &max, &d);
            assert!(report.passed(), "case {case}: maximizer {report}");
        }

        let premium = rng.random_f64_in(0.1, 0.9) * lambda;
        let dec = capper
            .decide_hour(&sys, lambda, premium, &d, budget)
            .unwrap();
        let report = auditor.audit_decision(&sys, &dec, &d);
        assert!(report.passed(), "case {case} ({:?}): {report}", dec.outcome);
    }
}

/// A full week of the simulated month is clean under a budget tight
/// enough to exercise all three hour outcomes: the engine audits every
/// hour's plan, and a failed audit would end the run with an error.
#[test]
fn audited_simulation_week_is_clean() {
    let s = Scenario::paper_default(1, 7).first_hours(168);
    let r = run_month(&s, Strategy::CostCapping, Some(80_000.0)).unwrap();
    // The tight budget must actually constrain some hours, so the audit
    // exercised more than the easy WithinBudget invariants.
    assert!(
        r.hours
            .iter()
            .any(|h| h.outcome != Some(HourOutcome::WithinBudget)),
        "budget not tight"
    );
}

/// Each corruption class from the paper's invariant list is rejected with
/// the matching violation, starting from a genuine decision.
#[test]
fn corrupted_plans_are_rejected() {
    let sys = system();
    let d = vec![330.0, 410.0, 280.0];
    let auditor = PlanAuditor::default();
    let dec = BillCapper::default()
        .decide_hour(&sys, 8e8, 0.8 * 8e8, &d, f64::INFINITY)
        .unwrap();
    assert!(auditor.audit_decision(&sys, &dec, &d).passed());

    // 1. Wrong price level: claim the cheaper adjacent step without
    //    moving any power.
    let mut bad = dec.clone();
    let k = bad.allocation.level[0].saturating_sub(1);
    bad.allocation.level[0] = k;
    let (_, _, price) = sys.policy(0).levels().nth(k).unwrap();
    bad.allocation.price[0] = price;
    bad.allocation.cost[0] = price * bad.allocation.power_mw[0];
    bad.allocation.total_cost = bad.allocation.cost.iter().sum();
    let report = auditor.audit_decision(&sys, &bad, &d);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::PriceLevel { .. })),
        "{report}"
    );

    // 2. QoS violation: a loaded site on a skeleton crew of servers.
    let mut bad = dec.clone();
    let busiest = (0..sys.len())
        .max_by(|&a, &b| bad.allocation.lambda[a].total_cmp(&bad.allocation.lambda[b]))
        .unwrap();
    bad.allocation.servers[busiest] =
        (bad.allocation.lambda[busiest] / sys.sites[busiest].queue.service_rate) as u64;
    let report = auditor.audit_decision(&sys, &bad, &d);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::ResponseTime { .. })),
        "{report}"
    );

    // 3. Budget bust without the premium exception: the hour claims
    //    WithinBudget while spending double its budget.
    let mut bad = dec.clone();
    bad.budget = bad.cost() * 0.5;
    assert_eq!(bad.outcome, HourOutcome::WithinBudget);
    let report = auditor.audit_decision(&sys, &bad, &d);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::BudgetExceeded { .. })),
        "{report}"
    );

    // 4. Infeasible power split: power shifted between sites with the
    //    request rates unchanged breaks the affine power identity twice.
    let mut bad = dec.clone();
    bad.allocation.power_mw[0] += 12.0;
    bad.allocation.power_mw[1] -= 12.0;
    let report = auditor.audit_decision(&sys, &bad, &d);
    let identity = report
        .violations
        .iter()
        .filter(|v| matches!(v, PlanViolation::PowerIdentity { .. }))
        .count();
    assert!(identity >= 2, "{report}");

    // 5. Premium shed: half the premium traffic silently dropped.
    let mut bad = dec.clone();
    bad.premium_served = 0.5 * bad.premium_offered;
    bad.ordinary_served = 0.0;
    let report = auditor.audit_decision(&sys, &bad, &d);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::PremiumShed { .. })),
        "{report}"
    );

    // 6. Over-admission: serving traffic nobody offered.
    let mut bad = dec.clone();
    bad.ordinary_served = bad.offered; // premium + offered > offered
    let report = auditor.audit_decision(&sys, &bad, &d);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::OverAdmission { .. })),
        "{report}"
    );
}

/// Solver outputs certify; a stale dual certificate — duals carried over
/// from a tighter instance — does not.
#[test]
fn certification_accepts_fresh_and_rejects_stale_duals() {
    let build = |rhs: f64| {
        let mut m = Model::new("cert_lp", Sense::Maximize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        let y = m.add_cont("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", vec![(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint("c2", vec![(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_constraint("c3", vec![(x, 3.0), (y, 2.0)], ConstraintOp::Le, rhs);
        m.set_objective(vec![(x, 3.0), (y, 5.0)], 0.0);
        m
    };
    let tight = build(18.0);
    let loose = build(30.0);
    let tight_sol = MipSolver::default().solve(&tight).unwrap();
    let mut loose_sol = MipSolver::default().solve(&loose).unwrap();
    assert!(certify_solution(&tight, &tight_sol).certified());
    assert!(certify_solution(&loose, &loose_sol).certified());

    // Splice the tight instance's duals into the loosened solve: the
    // binding pattern changed, so duality/complementary slackness breaks.
    loose_sol.duals = tight_sol.duals.clone();
    let report = certify_solution(&loose, &loose_sol);
    assert!(!report.certified(), "stale duals certified: {report}");

    // And a MILP from the same family certifies end to end.
    let mut m = build(30.0);
    let z = m.add_var("z", billcap::milp::VarType::Integer, 0.0, 3.0);
    m.add_constraint("c4", vec![(z, 1.0)], ConstraintOp::Le, 2.0);
    let sol = MipSolver::default().solve(&m).unwrap();
    assert!(certify_solution(&m, &sol).certified());
}

/// The DES ground truth validates the Allen–Cunneen recomputation the
/// auditor relies on, at the utilization regime the paper's sizing rule
/// produces (ρ near 1, where the simplified and full forms converge).
#[test]
fn des_cross_validates_allen_cunneen_response_time() {
    let model = GgmModel::new(1.0, 1.0, 1.0);
    let target = 1.5; // 1.5x the bare service time, like the paper's Rs
    for (lambda, seed) in [(9.0f64, 31u64), (24.0, 32), (46.0, 33)] {
        let n = model.min_servers(lambda, target).unwrap();
        let analytic = model.response_time_full(n, lambda).unwrap();
        let sim = QueueSim::ggm(n, lambda, 1.0, 1.0, 1.0, seed).run(200_000);
        let rel = (analytic - sim.mean_response).abs() / sim.mean_response;
        // The paper reports the approximation within ~15% of simulation;
        // at M/M/m it is exact up to sampling noise, so hold a tighter band.
        assert!(
            rel < 0.05,
            "lambda {lambda}: analytic {analytic} vs sim {} (rel {rel})",
            sim.mean_response
        );
        // The sizing the auditor re-derives must actually meet the target
        // in the exact simulation, not just in the formula.
        assert!(
            sim.mean_response <= target * 1.02,
            "lambda {lambda}: simulated R {} misses target {target}",
            sim.mean_response
        );
    }
}
