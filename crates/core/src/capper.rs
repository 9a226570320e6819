//! The bill capper's hour decision (paper Section III): its types, its
//! input rules and [`BillCapper`], the one-shot front over
//! [`DecisionEngine`].
//!
//! Each invocation period (hour):
//!
//! 1. Run the cost minimizer. If the minimized cost fits the hour's
//!    budget, enforce that allocation — every request (premium and
//!    ordinary) is served.
//! 2. Otherwise maximize throughput under the budget. If the achievable
//!    throughput covers at least the premium rate, serve all premium
//!    plus as much ordinary traffic as the budget allows.
//! 3. If even premium traffic cannot fit, re-run the cost minimizer on
//!    the premium rate alone and knowingly violate the hour's budget:
//!    premium QoS is the revenue source and is never sacrificed.
//!
//! [`DecisionEngine`] is the only implementation of these steps. A
//! [`BillCapper`] holds nothing but its [`CapperConfig`]: every call
//! builds an engine for the system it is given, decides, and drops it.

use crate::engine::DecisionEngine;
use crate::error::CoreError;
use crate::minimize::Allocation;
use crate::spec::DataCenterSystem;

/// Tuning knobs for the capper: the one place its settings live. The
/// binaries build it from their flags and pass it down; no library
/// reads the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapperConfig {
    /// Model server counts as integers inside the MILPs.
    pub integral_servers: bool,
    /// Check every solve: the pre-solve model lint refuses a model with
    /// Error-severity findings ([`CoreError::Lint`]), and the solution
    /// must pass [`billcap_milp::certify_solution`]
    /// ([`CoreError::Audit`]). Neither check changes a decision. On by
    /// default in debug builds, so the test suite runs checked; off by
    /// default in release builds, where it costs time on every hour.
    pub audit: bool,
}

impl Default for CapperConfig {
    fn default() -> Self {
        Self {
            integral_servers: false,
            audit: cfg!(debug_assertions),
        }
    }
}

/// Which branch of the algorithm produced the hour's decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HourOutcome {
    /// Step 1 fit the budget: everything served.
    WithinBudget,
    /// Step 2 throttled ordinary traffic to fit the budget.
    Throttled,
    /// Premium alone busts the budget: premium served, budget violated.
    PremiumOverride,
}

/// Per-hour solver effort, collected unconditionally by
/// [`DecisionEngine::decide_hour`].
///
/// Wall-clock fields are machine-dependent; the node/iteration counts are
/// deterministic (see [`billcap_milp::SolveTrace`]). A step that was
/// not run (step 2 and 3 are skipped when the budget fits) reports zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecisionTrace {
    /// Wall time of step 1 (cost minimization), nanoseconds.
    pub step1_ns: u64,
    /// Wall time of step 2 (throughput maximization), nanoseconds.
    pub step2_ns: u64,
    /// Wall time of step 3 (premium-only re-minimization), nanoseconds.
    pub step3_ns: u64,
    /// MILP solves performed this hour (1–3).
    pub solves: usize,
    /// Branch-and-bound nodes across all solves this hour.
    pub nodes: usize,
    /// Simplex iterations across all solves this hour.
    pub lp_iterations: usize,
}

impl DecisionTrace {
    pub(crate) fn absorb(&mut self, alloc: &Allocation) {
        self.solves += 1;
        if let Some(stats) = &alloc.stats {
            self.nodes += stats.nodes;
            self.lp_iterations += stats.trace.lp.iterations;
        }
    }
}

/// The decision for one invocation period.
#[derive(Debug, Clone, PartialEq)]
pub struct HourDecision {
    /// The enforced workload allocation.
    pub allocation: Allocation,
    /// Which branch of the algorithm produced the decision.
    pub outcome: HourOutcome,
    /// Requests/hour offered by customers (after any capacity clamp).
    pub offered: f64,
    /// Premium portion of the offered rate.
    pub premium_offered: f64,
    /// Premium requests served (always equals `premium_offered`).
    pub premium_served: f64,
    /// Ordinary requests served.
    pub ordinary_served: f64,
    /// The hour's budget the decision was made against ($).
    pub budget: f64,
    /// Solver effort spent reaching this decision.
    pub trace: DecisionTrace,
}

impl HourDecision {
    /// Cost of the enforced allocation ($ for the hour).
    pub fn cost(&self) -> f64 {
        self.allocation.total_cost
    }

    /// True when the enforced cost exceeds the hour's budget (only possible
    /// under [`HourOutcome::PremiumOverride`]).
    pub fn violates_budget(&self) -> bool {
        self.cost() > self.budget * (1.0 + 1e-9)
    }
}

/// Checks one hour's inputs before any model is built: the offered and
/// premium rates finite and non-negative, premium no more than offered,
/// every background demand finite and non-negative, and a budget that
/// is a number above `−∞` (`+∞` means uncapped). A bad input is
/// [`CoreError::InvalidInput`]. Every decision runs this check first;
/// the decision server runs it on each request as it parses it.
pub fn validate_hour_inputs(
    offered: f64,
    premium_offered: f64,
    background_mw: &[f64],
    hourly_budget: f64,
) -> Result<(), CoreError> {
    let invalid = |msg: String| Err(CoreError::InvalidInput(msg));
    if !offered.is_finite() || offered < 0.0 {
        return invalid(format!("offered rate {offered} must be finite and >= 0"));
    }
    if !premium_offered.is_finite() || premium_offered < 0.0 {
        return invalid(format!(
            "premium rate {premium_offered} must be finite and >= 0"
        ));
    }
    if premium_offered > offered {
        return invalid(format!(
            "premium rate {premium_offered} exceeds offered rate {offered}"
        ));
    }
    for (i, d) in background_mw.iter().enumerate() {
        if !d.is_finite() || *d < 0.0 {
            return invalid(format!("background[{i}] = {d} must be finite and >= 0"));
        }
    }
    if hourly_budget.is_nan() || hourly_budget == f64::NEG_INFINITY {
        return invalid("budget must be a finite number or null".into());
    }
    Ok(())
}

/// The bill capper for callers that decide one hour at a time: a
/// [`CapperConfig`] and nothing else. Each decision builds a
/// [`DecisionEngine`] for the system it is given and drops it
/// afterwards, so no state carries from one call to the next. A caller
/// that decides hour after hour for one system keeps a
/// [`DecisionEngine`] instead and skips the rebuilds; the decisions are
/// the same bit for bit.
#[derive(Debug, Clone, Default)]
pub struct BillCapper {
    /// The settings every decision's engine is built with.
    pub config: CapperConfig,
}

impl BillCapper {
    /// Builds a capper from a config.
    pub fn new(config: CapperConfig) -> Self {
        Self { config }
    }

    /// Decides one hour's allocation for `system`: what
    /// [`DecisionEngine::decide_hour`] decides with the same inputs, on a
    /// one-shot engine.
    pub fn decide_hour(
        &self,
        system: &DataCenterSystem,
        offered: f64,
        premium_offered: f64,
        background_mw: &[f64],
        hourly_budget: f64,
    ) -> Result<HourDecision, CoreError> {
        DecisionEngine::new(system.clone(), self.config.clone()).decide_hour(
            offered,
            premium_offered,
            background_mw,
            hourly_budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DataCenterSystem;

    fn background() -> Vec<f64> {
        vec![330.0, 410.0, 280.0]
    }

    fn capper() -> BillCapper {
        BillCapper::default()
    }

    #[test]
    fn abundant_budget_serves_everything() {
        let sys = DataCenterSystem::paper_system(1);
        let d = capper()
            .decide_hour(&sys, 6e8, 4.8e8, &background(), 1e9)
            .unwrap();
        assert_eq!(d.outcome, HourOutcome::WithinBudget);
        assert_eq!(d.premium_served, 4.8e8);
        assert!((d.ordinary_served - 1.2e8).abs() < 1.0);
        assert!(!d.violates_budget());
    }

    #[test]
    fn tight_budget_throttles_ordinary_only() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let offered = 8e8;
        let premium = 0.8 * offered;
        let full_cost = capper()
            .decide_hour(&sys, offered, premium, &d, f64::INFINITY)
            .unwrap()
            .cost();
        // Budget between the premium-only cost and the full cost.
        let budget = 0.93 * full_cost;
        let dec = capper()
            .decide_hour(&sys, offered, premium, &d, budget)
            .unwrap();
        assert_eq!(dec.outcome, HourOutcome::Throttled);
        assert_eq!(dec.premium_served, premium);
        assert!(dec.ordinary_served < offered - premium);
        assert!(dec.cost() <= budget * (1.0 + 1e-6));
        assert!(!dec.violates_budget());
    }

    #[test]
    fn starvation_budget_triggers_premium_override() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let offered = 8e8;
        let premium = 0.8 * offered;
        let dec = capper()
            .decide_hour(&sys, offered, premium, &d, 1.0) // $1 budget
            .unwrap();
        assert_eq!(dec.outcome, HourOutcome::PremiumOverride);
        assert_eq!(dec.premium_served, premium);
        assert_eq!(dec.ordinary_served, 0.0);
        assert!(dec.violates_budget());
    }

    #[test]
    fn premium_is_never_shed() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        for budget in [1.0, 500.0, 2000.0, 1e9] {
            let dec = capper().decide_hour(&sys, 7e8, 5.6e8, &d, budget).unwrap();
            assert_eq!(dec.premium_served, 5.6e8, "budget {budget}");
        }
    }

    #[test]
    fn capacity_clamp_sheds_ordinary_first() {
        let sys = DataCenterSystem::paper_system(1);
        let capacity = sys.total_capacity();
        let offered = 2.0 * capacity;
        let premium = 0.4 * capacity;
        let dec = capper()
            .decide_hour(&sys, offered, premium, &background(), f64::INFINITY)
            .unwrap();
        assert_eq!(dec.premium_served, premium);
        assert!(dec.offered <= capacity * (1.0 + 1e-9));
        assert!(dec.ordinary_served <= capacity - premium + 1e-3);
    }

    #[test]
    fn premium_beyond_capacity_is_an_error() {
        let sys = DataCenterSystem::paper_system(1);
        let capacity = sys.total_capacity();
        assert!(matches!(
            capper().decide_hour(&sys, 3.0 * capacity, 1.5 * capacity, &background(), 1e9),
            Err(CoreError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn throttled_cost_uses_budget_efficiently() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let offered = 8e8;
        let premium = 0.8 * offered;
        let full_cost = capper()
            .decide_hour(&sys, offered, premium, &d, f64::INFINITY)
            .unwrap()
            .cost();
        let budget = 0.9 * full_cost;
        let dec = capper()
            .decide_hour(&sys, offered, premium, &d, budget)
            .unwrap();
        if dec.outcome == HourOutcome::Throttled {
            assert!(
                dec.cost() > 0.85 * budget,
                "left too much budget unused: {} of {budget}",
                dec.cost()
            );
        }
    }
}
