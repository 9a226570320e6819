//! The Min-Only baseline (paper Section VII-A).
//!
//! Min-Only is the state-of-the-art electricity-cost minimizer the paper
//! compares against. It differs from Cost Capping in three ways:
//!
//! 1. **Price taker**: it assumes its routing cannot move prices, using a
//!    constant price per location — either the average of the step prices
//!    (*Min-Only (Avg)*) or the lowest step price (*Min-Only (Low)*).
//! 2. **Server-only power**: it ignores networking and cooling in its
//!    objective.
//! 3. **No budget awareness**: it always serves all requests, whatever the
//!    bill.
//!
//! Its decisions are an LP (constant prices ⇒ no binaries), solved on the
//! revised simplex through [`MipSolver`]'s pure-LP path. What it
//! actually *pays* is computed by [`crate::evaluate_allocation`] under the
//! true step prices and full power model. Feasibility (QoS, site power
//! caps) is enforced with the true limits so that the comparison isolates
//! the objective's blind spots rather than letting the baseline cheat
//! physics.

use crate::error::CoreError;
use crate::spec::DataCenterSystem;
use billcap_milp::{ConstraintOp, MipSolver, MipWorkspace, Model, Sense};

/// Which constant price Min-Only assumes per location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriceAssumption {
    /// Mean of the location's step prices — *Min-Only (Avg)*.
    Average,
    /// Lowest step price — *Min-Only (Low)*.
    Lowest,
}

/// A Min-Only decision: the allocation it chose and the cost it *believed*
/// it would pay (realized cost is computed separately).
#[derive(Debug, Clone, PartialEq)]
pub struct MinOnlyDecision {
    /// Requests/hour dispatched to each site.
    pub lambda: Vec<f64>,
    /// The cost Min-Only predicted under its constant-price, server-only
    /// model ($ for the hour).
    pub believed_cost: f64,
}

/// The Min-Only baseline optimizer.
#[derive(Debug, Clone)]
pub struct MinOnly {
    /// The constant-price model the baseline believes in.
    pub assumption: PriceAssumption,
    solver: MipSolver,
    /// Kept between hours, so a month of solves stops allocating solver
    /// buffers after the first.
    ws: MipWorkspace,
}

impl MinOnly {
    /// Creates a baseline with the given price assumption.
    pub fn new(assumption: PriceAssumption) -> Self {
        Self {
            assumption,
            solver: MipSolver::default(),
            ws: MipWorkspace::default(),
        }
    }

    /// The constant price Min-Only assumes for site `i` ($/MWh).
    fn assumed_price(&self, system: &DataCenterSystem, i: usize) -> f64 {
        match self.assumption {
            PriceAssumption::Average => system.policy(i).avg_price(),
            PriceAssumption::Lowest => system.policy(i).min_price(),
        }
    }

    /// Chooses an allocation for `lambda` requests/hour.
    pub fn solve(
        &mut self,
        system: &DataCenterSystem,
        lambda: f64,
    ) -> Result<MinOnlyDecision, CoreError> {
        let capacity = system.total_capacity();
        if lambda > capacity {
            return Err(CoreError::InsufficientCapacity {
                demanded: lambda,
                capacity,
            });
        }
        let scale = crate::minimize::RATE_SCALE;
        let mut m = Model::new("min_only", Sense::Minimize);
        let mut obj = Vec::with_capacity(system.len());
        let mut lam_vars = Vec::with_capacity(system.len());
        let mut believed_base = 0.0;
        for (i, site) in system.sites.iter().enumerate() {
            let lam = m.add_cont(format!("lam_{i}"), 0.0, site.max_rate() / scale);
            // Believed cost: assumed price * server-only power.
            let price = self.assumed_price(system, i);
            let server_mw_per_mreq =
                site.power.server_only_watts_per_server() / site.queue.service_rate / 1e6 * scale;
            obj.push((lam, price * server_mw_per_mreq));
            // Server-only base power (QoS headroom machines).
            let headroom = site
                .queue
                .qos_headroom(site.response_target)
                .expect("validated spec"); // detlint-allow(L001): spec checked at construction
            believed_base += price * site.power.server_only_watts_per_server() * headroom / 1e6;
            lam_vars.push(lam);
        }
        m.add_constraint(
            "demand",
            lam_vars.iter().map(|&v| (v, 1.0)).collect(),
            ConstraintOp::Eq,
            lambda / scale,
        );
        m.set_objective(obj, believed_base);
        let (sol, _) = self.solver.solve_in(&m, None, &mut self.ws)?;
        Ok(MinOnlyDecision {
            lambda: lam_vars.iter().map(|&v| sol.value(v) * scale).collect(),
            believed_cost: sol.objective,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate_allocation;
    use crate::minimize::CostMinimizer;
    use crate::spec::DataCenterSystem;

    fn background() -> Vec<f64> {
        vec![330.0, 410.0, 280.0]
    }

    #[test]
    fn serves_all_demand() {
        let sys = DataCenterSystem::paper_system(1);
        let lambda = 6e8;
        let d = MinOnly::new(PriceAssumption::Average)
            .solve(&sys, lambda)
            .unwrap();
        let total: f64 = d.lambda.iter().sum();
        assert!((total - lambda).abs() / lambda < 1e-6);
    }

    #[test]
    fn assumed_prices_match_paper_reductions() {
        let sys = DataCenterSystem::paper_system(1);
        let avg = MinOnly::new(PriceAssumption::Average);
        let low = MinOnly::new(PriceAssumption::Lowest);
        // Paper: DC1 avg = 16.98, low = 10.00.
        assert!((avg.assumed_price(&sys, 0) - 16.98).abs() < 1e-9);
        assert!((low.assumed_price(&sys, 0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn capping_never_pays_more_than_min_only() {
        // The headline comparison (paper Fig. 3): billed at true prices,
        // Cost Capping's allocation is at most as expensive as Min-Only's.
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        for lambda in [2e8, 5e8, 8e8] {
            let capping = CostMinimizer::default().solve(&sys, lambda, &d).unwrap();
            let capping_real = evaluate_allocation(&sys, &capping.lambda, &d);
            for assumption in [PriceAssumption::Average, PriceAssumption::Lowest] {
                let mo = MinOnly::new(assumption).solve(&sys, lambda).unwrap();
                let mo_real = evaluate_allocation(&sys, &mo.lambda, &d);
                assert!(
                    capping_real.total_cost <= mo_real.total_cost * (1.0 + 1e-4),
                    "lambda {lambda} {assumption:?}: capping {} > minonly {}",
                    capping_real.total_cost,
                    mo_real.total_cost
                );
            }
        }
    }

    #[test]
    fn believed_cost_underestimates_reality() {
        // Min-Only's model blindness: the realized bill exceeds its own
        // prediction (it ignores cooling, networking, and price steps).
        let sys = DataCenterSystem::paper_system(1);
        let lambda = 6e8;
        let mo = MinOnly::new(PriceAssumption::Lowest)
            .solve(&sys, lambda)
            .unwrap();
        let real = evaluate_allocation(&sys, &mo.lambda, &background());
        assert!(
            real.total_cost > mo.believed_cost,
            "real {} <= believed {}",
            real.total_cost,
            mo.believed_cost
        );
    }

    #[test]
    fn low_assumption_prefers_cheapest_min_price_site() {
        let sys = DataCenterSystem::paper_system(1);
        let mo = MinOnly::new(PriceAssumption::Lowest)
            .solve(&sys, 1e8)
            .unwrap();
        // Unit believed cost per request = min_price * sp/mu; find argmin.
        let unit = |i: usize| {
            sys.policy(i).min_price() * sys.sites[i].power.server_only_watts_per_server()
                / sys.sites[i].queue.service_rate
        };
        let best = (0..3)
            .min_by(|&a, &b| unit(a).partial_cmp(&unit(b)).unwrap())
            .unwrap();
        assert!(
            mo.lambda[best] > 0.99e8,
            "expected site {best} to take the load: {:?}",
            mo.lambda
        );
    }

    #[test]
    fn over_capacity_rejected() {
        let sys = DataCenterSystem::paper_system(1);
        assert!(matches!(
            MinOnly::new(PriceAssumption::Average).solve(&sys, 1e13),
            Err(CoreError::InsufficientCapacity { .. })
        ));
    }
}
