//! The two-step bill capper (paper Section III).
//!
//! Each invocation period (hour):
//!
//! 1. Run [`CostMinimizer`]. If the minimized cost fits the hour's budget,
//!    enforce that allocation — every request (premium and ordinary) is
//!    served.
//! 2. Otherwise run [`ThroughputMaximizer`] under the budget. If the
//!    achievable throughput covers at least the premium rate, serve all
//!    premium plus as much ordinary traffic as the budget allows.
//! 3. If even premium traffic cannot fit, re-run the cost minimizer on the
//!    premium rate alone and knowingly violate the hour's budget: premium
//!    QoS is the revenue source and is never sacrificed.

use crate::error::CoreError;
use crate::maximize::ThroughputMaximizer;
use crate::minimize::{Allocation, CostMinimizer};
use crate::spec::DataCenterSystem;
use billcap_milp::{MipSolver, SolveError};
use billcap_obs::Stopwatch;

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
/// [`BillCapper::decide_hour`].
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
    fn absorb(&mut self, alloc: &Allocation) {
        self.solves += 1;
        if let Some(stats) = &alloc.stats {
            self.nodes += stats.nodes;
            self.lp_iterations += stats.lp_iterations;
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

/// The bill-capping orchestrator.
#[derive(Debug, Clone)]
pub struct BillCapper {
    /// The step-1 (and step-3) cost minimizer.
    pub minimizer: CostMinimizer,
    /// The step-2 throughput maximizer.
    pub maximizer: ThroughputMaximizer,
}

impl Default for BillCapper {
    fn default() -> Self {
        Self::new(CapperConfig::default())
    }
}

impl BillCapper {
    /// Builds a capper from a config.
    pub fn new(config: CapperConfig) -> Self {
        Self {
            minimizer: CostMinimizer {
                solver: MipSolver::default(),
                integral_servers: config.integral_servers,
                audit: config.audit,
            },
            maximizer: ThroughputMaximizer {
                solver: MipSolver::default(),
                integral_servers: config.integral_servers,
                audit: config.audit,
            },
        }
    }

    /// Decides one hour's allocation.
    ///
    /// `offered` is the total arrival rate, `premium_offered` the premium
    /// share (`<= offered`), `background_mw` the regional non-DC demand,
    /// and `hourly_budget` the budgeter's allotment for this hour.
    ///
    /// If the offered load exceeds deliverable capacity (an extreme flash
    /// crowd), ordinary traffic is shed first to bring it within capacity;
    /// premium beyond capacity is an error.
    pub fn decide_hour(
        &self,
        system: &DataCenterSystem,
        offered: f64,
        premium_offered: f64,
        background_mw: &[f64],
        hourly_budget: f64,
    ) -> Result<HourDecision, CoreError> {
        let mut backend = FreshBackend {
            minimizer: &self.minimizer,
            maximizer: &self.maximizer,
        };
        decide_hour_impl(
            &mut backend,
            system,
            offered,
            premium_offered,
            background_mw,
            hourly_budget,
        )
    }
}

/// How [`decide_hour_impl`] obtains the two optimization steps. The
/// reference implementation ([`FreshBackend`]) builds a fresh MILP per
/// call; [`crate::DecisionEngine`] mutates retained models in place. Both
/// must produce bitwise-identical allocations on identical inputs.
pub(crate) trait HourBackend {
    /// Step 1/3: cost-minimize serving `lambda` requests/hour.
    fn minimize(
        &mut self,
        system: &DataCenterSystem,
        lambda: f64,
        background_mw: &[f64],
    ) -> Result<Allocation, CoreError>;

    /// Step 2: maximize admitted throughput within `budget`.
    fn maximize(
        &mut self,
        system: &DataCenterSystem,
        lambda: f64,
        background_mw: &[f64],
        budget: f64,
    ) -> Result<Allocation, CoreError>;
}

/// Backend that rebuilds each model from scratch (the original behavior).
struct FreshBackend<'a> {
    minimizer: &'a CostMinimizer,
    maximizer: &'a ThroughputMaximizer,
}

impl HourBackend for FreshBackend<'_> {
    fn minimize(
        &mut self,
        system: &DataCenterSystem,
        lambda: f64,
        background_mw: &[f64],
    ) -> Result<Allocation, CoreError> {
        self.minimizer.solve(system, lambda, background_mw)
    }

    fn maximize(
        &mut self,
        system: &DataCenterSystem,
        lambda: f64,
        background_mw: &[f64],
        budget: f64,
    ) -> Result<Allocation, CoreError> {
        self.maximizer.solve(system, lambda, background_mw, budget)
    }
}

/// The three-step capping algorithm, generic over how each MILP is
/// produced. Shared verbatim between [`BillCapper::decide_hour`] and
/// [`crate::DecisionEngine::decide_hour`] so the control flow (and thus
/// every comparison and arithmetic op on the way to a decision) cannot
/// drift between them.
pub(crate) fn decide_hour_impl<B: HourBackend + ?Sized>(
    backend: &mut B,
    system: &DataCenterSystem,
    offered: f64,
    premium_offered: f64,
    background_mw: &[f64],
    hourly_budget: f64,
) -> Result<HourDecision, CoreError> {
    assert!(
        premium_offered <= offered + 1e-9,
        "premium rate cannot exceed the total"
    );
    let capacity = system.total_capacity();
    if premium_offered > capacity {
        return Err(CoreError::InsufficientCapacity {
            demanded: premium_offered,
            capacity,
        });
    }
    // Capacity clamp: shed un-servable ordinary traffic up front.
    let offered = offered.min(capacity);
    let mut trace = DecisionTrace::default();

    // Step 1: cost minimization over the whole offered load.
    let t0 = Stopwatch::start();
    let mut span1 = billcap_obs::span("step1");
    let step1 = backend.minimize(system, offered, background_mw)?;
    span1.field("cost", step1.total_cost);
    drop(span1);
    trace.step1_ns = t0.elapsed_ns();
    trace.absorb(&step1);
    if step1.total_cost <= hourly_budget {
        record_outcome(HourOutcome::WithinBudget, &step1, hourly_budget);
        return Ok(HourDecision {
            outcome: HourOutcome::WithinBudget,
            offered,
            premium_offered,
            premium_served: premium_offered,
            ordinary_served: offered - premium_offered,
            budget: hourly_budget,
            allocation: step1,
            trace,
        });
    }

    // Step 2: throughput maximization within the budget.
    let t0 = Stopwatch::start();
    let mut span2 = billcap_obs::span("step2");
    let step2 = match backend.maximize(system, offered, background_mw, hourly_budget) {
        Ok(a) => Some(a),
        // A budget below the unavoidable base-power cost is infeasible;
        // treat as zero achievable throughput.
        Err(CoreError::Solver(SolveError::Infeasible)) => None,
        Err(e) => return Err(e),
    };
    if let Some(a) = &step2 {
        span2.field("admitted", a.total_lambda);
    }
    drop(span2);
    trace.step2_ns = t0.elapsed_ns();
    if let Some(step2) = step2 {
        trace.absorb(&step2);
        if step2.total_lambda >= premium_offered - 1e-6 {
            let ordinary = (step2.total_lambda - premium_offered).max(0.0);
            record_outcome(HourOutcome::Throttled, &step2, hourly_budget);
            return Ok(HourDecision {
                outcome: HourOutcome::Throttled,
                offered,
                premium_offered,
                premium_served: premium_offered,
                ordinary_served: ordinary,
                budget: hourly_budget,
                allocation: step2,
                trace,
            });
        }
    }

    // Premium override: serve premium at minimum cost, budget be damned.
    let t0 = Stopwatch::start();
    let mut span3 = billcap_obs::span("step3");
    let step3 = backend.minimize(system, premium_offered, background_mw)?;
    span3.field("cost", step3.total_cost);
    drop(span3);
    trace.step3_ns = t0.elapsed_ns();
    trace.absorb(&step3);
    record_outcome(HourOutcome::PremiumOverride, &step3, hourly_budget);
    Ok(HourDecision {
        outcome: HourOutcome::PremiumOverride,
        offered,
        premium_offered,
        premium_served: premium_offered,
        ordinary_served: 0.0,
        budget: hourly_budget,
        allocation: step3,
        trace,
    })
}

/// Emits the per-hour outcome counters, the budget-slack gauge, and the
/// price-level-selection histogram when tracing is enabled.
fn record_outcome(outcome: HourOutcome, alloc: &Allocation, budget: f64) {
    if !billcap_obs::enabled() {
        return;
    }
    let name = match outcome {
        HourOutcome::WithinBudget => "core.capper.within_budget",
        HourOutcome::Throttled => "core.capper.throttled",
        HourOutcome::PremiumOverride => "core.capper.premium_override",
    };
    billcap_obs::counter(name, 1);
    if budget.is_finite() {
        billcap_obs::gauge("core.capper.budget_slack", budget - alloc.total_cost);
    }
    // One observation per site-hour: which price level the site landed in.
    const LEVEL_BOUNDS: [f64; 5] = [0.0, 1.0, 2.0, 3.0, 4.0];
    for &k in &alloc.level {
        billcap_obs::observe_with("core.capper.price_level", k as f64, &LEVEL_BOUNDS);
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
