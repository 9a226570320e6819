//! Step 2: throughput maximization within a cost budget (paper Section V).
//!
//! Invoked when the minimized cost exceeds the hour's budget but the
//! premium load alone fits it: maximize the admitted request rate
//! `Σλ_i ≤ λ` subject to `Σ cost_i ≤ Cs`, reusing the piecewise-price
//! linearization of step 1. Admission control applies only to ordinary
//! customers — the decider ([`crate::DecisionEngine`]) prices the premium
//! rate first (a premium-only cost minimization) and overrides the budget
//! without running this step when even that cannot fit.

use crate::engine::EngineCore;
use crate::error::CoreError;
use crate::minimize::{build_piecewise_core, Allocation, PiecewiseVars, RATE_SCALE};
use crate::spec::DataCenterSystem;
use billcap_milp::{ConstraintOp, MipSolver, Model, Sense, VarId};

/// Builds the Step-2 model: the piecewise core with the `offered` row
/// (`Σλ_i ≤ lambda`), the `budget` row (`Σ r_ik q_ik ≤ budget`) and the
/// admitted-rate objective.
pub(crate) fn throughput_max_model(
    system: &DataCenterSystem,
    lambda: f64,
    background_mw: &[f64],
    budget: f64,
) -> (Model, PiecewiseVars) {
    let mut m = Model::new("throughput_max", Sense::Maximize);
    // Admit at most the offered workload (paper: the total assigned
    // requests may not exceed the arrivals).
    let offered = ("offered", ConstraintOp::Le, lambda / RATE_SCALE);
    let mut vars = build_piecewise_core(&mut m, system, background_mw, offered);
    // Budget: sum of r_ik * q_ik <= Cs over the reachable levels.
    let cost_terms: Vec<(VarId, f64)> = vars
        .levels
        .iter()
        .flatten()
        .map(|&(_, r, q, _)| (q, r))
        .collect();
    vars.budget_row = Some(m.num_constraints());
    m.add_constraint("budget", cost_terms, ConstraintOp::Le, budget.max(0.0));
    // Objective: total admitted rate.
    m.set_objective(vars.lam.iter().map(|&v| (v, 1.0)).collect(), 0.0);
    (m, vars)
}

/// The Step-2 optimizer: a one-shot front over the decision engine's
/// step path, like [`crate::CostMinimizer`]. Each call builds the step
/// model on a fresh engine core, lints it, solves it with
/// [`Self::solver`] and certifies the solution (see [`crate::audit`]).
#[derive(Debug, Clone, Default)]
pub struct ThroughputMaximizer {
    /// The MILP solver.
    pub solver: MipSolver,
}

impl ThroughputMaximizer {
    /// Maximizes admitted throughput under `budget` ($/hour) for offered
    /// workload `lambda` (requests/hour) and background demand
    /// `background_mw`. The returned allocation may admit less than
    /// `lambda`; it never costs more than `budget`. A background without
    /// one entry per site or with a negative or non-finite entry, or a
    /// power cap that is not finite or sits below a site's base power, is
    /// refused before any model is built.
    pub fn solve(
        &self,
        system: &DataCenterSystem,
        lambda: f64,
        background_mw: &[f64],
        budget: f64,
    ) -> Result<Allocation, CoreError> {
        EngineCore::new(self.solver.clone()).maximize(system, lambda, background_mw, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize::CostMinimizer;
    use crate::spec::DataCenterSystem;

    fn background() -> Vec<f64> {
        vec![330.0, 410.0, 280.0]
    }

    #[test]
    fn generous_budget_admits_everything() {
        let sys = DataCenterSystem::paper_system(1);
        let lambda = 4e8;
        let alloc = ThroughputMaximizer::default()
            .solve(&sys, lambda, &background(), 1e9)
            .unwrap();
        assert!((alloc.total_lambda - lambda).abs() / lambda < 1e-6);
    }

    #[test]
    fn tight_budget_caps_cost() {
        let sys = DataCenterSystem::paper_system(1);
        let lambda = 8e8;
        // Find the unconstrained minimum cost, then offer half as budget.
        let min_alloc = CostMinimizer::default()
            .solve(&sys, lambda, &background())
            .unwrap();
        let budget = 0.5 * min_alloc.total_cost;
        let alloc = ThroughputMaximizer::default()
            .solve(&sys, lambda, &background(), budget)
            .unwrap();
        assert!(
            alloc.total_cost <= budget * (1.0 + 1e-6),
            "cost {} over budget {budget}",
            alloc.total_cost
        );
        assert!(alloc.total_lambda < lambda);
        assert!(alloc.total_lambda > 0.0);
    }

    #[test]
    fn throughput_monotone_in_budget() {
        let sys = DataCenterSystem::paper_system(1);
        let lambda = 8e8;
        let d = background();
        let min_cost = CostMinimizer::default()
            .solve(&sys, lambda, &d)
            .unwrap()
            .total_cost;
        let mut prev = -1.0;
        for frac in [0.2, 0.4, 0.6, 0.8, 1.0] {
            let alloc = ThroughputMaximizer::default()
                .solve(&sys, lambda, &d, frac * min_cost)
                .unwrap();
            assert!(
                alloc.total_lambda >= prev - 1e-3,
                "throughput decreased at budget fraction {frac}"
            );
            prev = alloc.total_lambda;
        }
        // At the full minimized cost, everything is admitted.
        assert!((prev - lambda).abs() / lambda < 1e-6);
    }

    #[test]
    fn zero_budget_serves_nothing_beyond_base() {
        // Base (QoS headroom) power still costs a little, so a zero budget
        // admits zero throughput only if base power is billed within it;
        // the formulation treats base power as unavoidable, so the solver
        // must squeeze throughput to zero and may still report base cost.
        let sys = DataCenterSystem::paper_system(1);
        let alloc = ThroughputMaximizer::default()
            .solve(&sys, 5e8, &background(), 0.0)
            .err();
        // Budget 0 < unavoidable base-power cost: infeasible is the honest
        // answer; the capper handles it by falling back to premium-only
        // minimization.
        assert!(alloc.is_some());
    }

    #[test]
    fn dimension_mismatch_detected() {
        let sys = DataCenterSystem::paper_system(1);
        let r = ThroughputMaximizer::default().solve(&sys, 1e8, &[100.0], 1e6);
        assert!(matches!(r, Err(CoreError::Dimension { .. })));
    }

    #[test]
    fn budget_binding_is_tight() {
        // When the budget binds, spending should be close to the budget
        // (the optimizer wrings out every dollar) — the paper reports
        // 98.5 % budget utilization.
        let sys = DataCenterSystem::paper_system(1);
        let lambda = 8e8;
        let d = background();
        let min_cost = CostMinimizer::default()
            .solve(&sys, lambda, &d)
            .unwrap()
            .total_cost;
        let budget = 0.6 * min_cost;
        let alloc = ThroughputMaximizer::default()
            .solve(&sys, lambda, &d, budget)
            .unwrap();
        assert!(
            alloc.total_cost > 0.9 * budget,
            "only used {} of {budget}",
            alloc.total_cost
        );
    }
}
