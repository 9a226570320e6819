//! Static-analysis subsystem end to end: the model linter (M0xx) and
//! spec linter (S0xx) against a zoo of deliberately corrupted inputs,
//! the committed example systems staying Error-free, and the headline
//! payoff — root bound propagation shrinking the branch-and-bound tree
//! over the one-week reference workload's step models without changing
//! any optimum.

#![forbid(unsafe_code)]

use billcap_core::{lint_system, Allocation, CostMinimizer, DataCenterSystem, ThroughputMaximizer};
use billcap_market::{PricingPolicySet, StepPolicy};
use billcap_milp::{lint_model, ConstraintOp, Model, Sense, Severity, VarType};
use billcap_sim::Scenario;

/// A well-formed toy model to corrupt per test, with its two variables.
fn clean_model() -> (Model, billcap_milp::VarId, billcap_milp::VarId) {
    let mut m = Model::new("toy", Sense::Minimize);
    let x = m.add_cont("x", 0.0, 10.0);
    let y = m.add_cont("y", 0.0, 10.0);
    m.add_constraint("sum", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 12.0);
    m.set_objective(vec![(x, 2.0), (y, 3.0)], 0.0);
    (m, x, y)
}

fn codes(model: &Model) -> Vec<&'static str> {
    lint_model(model).findings.iter().map(|f| f.code).collect()
}

// ---------------------------------------------------------------------
// Corruption classes: each class of broken input maps to a stable code.
// ---------------------------------------------------------------------

/// Class 1 — loose big-M: an indicator row whose M dwarfs the variable's
/// own bound.
#[test]
fn corruption_loose_big_m_is_m002() {
    let mut m = Model::new("bigm", Sense::Minimize);
    let q = m.add_cont("q", 0.0, 5.0);
    let z = m.add_var("z", VarType::Binary, 0.0, 1.0);
    m.add_constraint("ind", vec![(q, 1.0), (z, -1e7)], ConstraintOp::Le, 0.0);
    m.set_objective(vec![(q, 1.0)], 0.0);
    assert!(codes(&m).contains(&"M002"), "{}", lint_model(&m));
}

/// Class 2 — broken exactly-one: a selection row whose participant is
/// not binary-like.
#[test]
fn corruption_broken_exactly_one_is_m003() {
    let mut m = Model::new("sel", Sense::Minimize);
    let z0 = m.add_var("z0", VarType::Binary, 0.0, 1.0);
    let z1 = m.add_cont("z1", 0.0, 10.0); // continuous, wide bounds
    m.add_constraint("one", vec![(z0, 1.0), (z1, 1.0)], ConstraintOp::Eq, 1.0);
    m.set_objective(vec![(z0, 1.0)], 0.0);
    let report = lint_model(&m);
    assert!(report.has("M003"));
    assert!(!report.is_clean());
}

/// Class 3 — contradictory parallel rows (same left-hand side, empty
/// right-hand-side interval) and its benign cousin, the duplicate row.
#[test]
fn corruption_contradictory_and_duplicate_rows_are_m004() {
    let (mut m, x, _) = clean_model();
    m.add_constraint("ge", vec![(x, 1.0)], ConstraintOp::Ge, 8.0);
    m.add_constraint("le", vec![(x, 1.0)], ConstraintOp::Le, 2.0);
    let report = lint_model(&m);
    let f = report
        .findings
        .iter()
        .find(|f| f.code == "M004")
        .expect("M004");
    assert_eq!(f.severity, Severity::Error, "{f}");

    let (mut m, x, _) = clean_model();
    m.add_constraint("dup1", vec![(x, 1.0)], ConstraintOp::Le, 7.0);
    m.add_constraint("dup2", vec![(x, 2.0)], ConstraintOp::Le, 14.0); // scaled copy
    let report = lint_model(&m);
    let f = report
        .findings
        .iter()
        .find(|f| f.code == "M004")
        .expect("M004");
    assert_eq!(f.severity, Severity::Warning, "{f}");
}

/// Class 4 — dangling variable: declared but referenced by neither a
/// constraint nor the objective.
#[test]
fn corruption_dangling_variable_is_m005() {
    let (mut m, _, _) = clean_model();
    let _loose = m.add_cont("loose", 0.0, 1.0);
    assert!(codes(&m).contains(&"M005"), "{}", lint_model(&m));
}

/// Class 5 — statically infeasible bounds, provable by propagation
/// without a single simplex pivot.
#[test]
fn corruption_static_infeasibility_is_m007() {
    let (mut m, x, y) = clean_model();
    // x + y <= 12 (from clean_model) but each must exceed 7.
    m.add_constraint("x_hi", vec![(x, 1.0)], ConstraintOp::Ge, 7.0);
    m.add_constraint("y_hi", vec![(y, 1.0)], ConstraintOp::Ge, 7.0);
    let report = lint_model(&m);
    assert!(report.has("M007"), "{report}");
    assert!(!report.is_clean());
}

/// Class 6 — non-monotone step-price breakpoints.
#[test]
fn corruption_non_monotone_breakpoints_is_s001() {
    let mut sys = DataCenterSystem::paper_system(1);
    sys.policies.policies[0] =
        StepPolicy::new_unchecked(vec![300.0, 100.0], vec![10.0, 20.0, 30.0]);
    let report = lint_system(&sys);
    assert!(report.has("S001"), "{report}");
    assert!(!report.is_clean());
}

/// Class 7 — budget weights that do not sum to 1.
#[test]
fn corruption_bad_budget_weights_is_s003() {
    let report = billcap_core::lint_budget_weights(&[0.3, 0.3, 0.3]);
    assert!(report.has("S003"));
    assert!(!report.is_clean());
}

/// Class 8 — power cap below the site's idle (QoS headroom) draw.
#[test]
fn corruption_cap_below_idle_power_is_s006() {
    let mut sys = DataCenterSystem::paper_system(1);
    sys.sites[0].power_cap_mw = 1e-6;
    let report = lint_system(&sys);
    assert!(report.has("S006"), "{report}");
    assert!(!report.is_clean());
}

/// Class 9 — premium fraction outside (0, 1].
#[test]
fn corruption_premium_fraction_is_s004() {
    assert!(!billcap_core::lint_premium_fraction(-0.2).is_clean());
    assert!(!billcap_core::lint_premium_fraction(7.0).is_clean());
}

// ---------------------------------------------------------------------
// Committed inputs stay Error-free.
// ---------------------------------------------------------------------

#[test]
fn committed_systems_have_zero_error_findings() {
    for policy in 0..4 {
        let sys = DataCenterSystem::paper_system(policy);
        let report = lint_system(&sys);
        assert!(report.is_clean(), "policy {policy}:\n{report}");
    }
    for (sites, levels) in [(2usize, 2usize), (5, 5), (10, 10)] {
        let report = lint_system(&DataCenterSystem::synthetic(sites, levels));
        assert!(report.is_clean(), "synthetic {sites}x{levels}:\n{report}");
    }
    let report = lint_system(&Scenario::paper_default(1, 42).system);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn pricing_policy_set_constructors_are_clean() {
    // The paper simulates three data centers; `paper_policy` is defined
    // for dc in 0..3, so that's the largest set we can build.
    for n in [1usize, 2, 3] {
        for set in [
            PricingPolicySet::policy0(n),
            PricingPolicySet::policy1(n),
            PricingPolicySet::policy2(n),
            PricingPolicySet::policy3(n),
        ] {
            for (i, p) in set.policies.iter().enumerate() {
                assert!(
                    StepPolicy::try_new(p.breakpoints().to_vec(), p.prices().to_vec()).is_ok(),
                    "policy {i} of a committed set fails validation"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The payoff: root bound propagation shrinks the search on the
// one-week reference workload without changing any optimum.
// ---------------------------------------------------------------------

#[test]
fn propagation_reduces_bnb_nodes_on_reference_week() {
    let scenario = Scenario::paper_default(1, 42);
    let hours = 168;
    let budget_per_hour = Scenario::STRINGENT_BUDGET / 720.0;

    let (min_with, max_with) = (CostMinimizer::default(), ThroughputMaximizer::default());
    let mut min_without = CostMinimizer::default();
    let mut max_without = ThroughputMaximizer::default();
    min_without.solver.root_propagation = false;
    max_without.solver.root_propagation = false;

    let mut nodes = [0usize; 2];
    let mut iters = [0usize; 2];
    let mut count = |a: &Allocation, b: &Allocation| {
        for (i, alloc) in [a, b].into_iter().enumerate() {
            let stats = alloc.stats.as_ref().expect("a MIP solve");
            nodes[i] += stats.nodes;
            iters[i] += stats.trace.lp.iterations;
        }
    };
    let same = |x: f64, y: f64| (x - y).abs() <= 1e-6 * x.abs().max(1.0);
    for h in 0..hours {
        let offered = scenario.workload.values()[h];
        let background: Vec<f64> = scenario.background.iter().map(|b| b.values()[h]).collect();
        let sys = &scenario.system;

        // The hour's step-1 model: the same minimum cost either way.
        let a = min_with.solve(sys, offered, &background).expect("step 1");
        let b = min_without
            .solve(sys, offered, &background)
            .expect("step 1");
        assert!(
            same(a.total_cost, b.total_cost),
            "hour {h} step 1: cost {} vs {}",
            a.total_cost,
            b.total_cost
        );
        count(&a, &b);

        // The hour's step-2 model: the same maximum throughput.
        let a = max_with.solve(sys, offered, &background, budget_per_hour);
        let b = max_without.solve(sys, offered, &background, budget_per_hour);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert!(
                    same(a.total_lambda, b.total_lambda),
                    "hour {h} step 2: admitted {} vs {}",
                    a.total_lambda,
                    b.total_lambda
                );
                count(&a, &b);
            }
            (a, b) => assert_eq!(a.err(), b.err(), "hour {h} step 2: verdicts"),
        }
    }

    let ([nodes_with, nodes_without], [iters_with, iters_without]) = (nodes, iters);
    assert!(
        nodes_with < nodes_without,
        "propagation must shrink the tree: {nodes_with} vs {nodes_without} nodes"
    );
    assert!(
        iters_with < iters_without,
        "fewer nodes must also mean less simplex work: \
         {iters_with} vs {iters_without} LP iterations"
    );
}
