//! Per-hour records and monthly aggregates.

use billcap_core::HourOutcome;

/// Compensated (Neumaier/Kahan–Babuška) summation.
///
/// Every monthly aggregate and every risk-engine reduction sums through
/// this one function, for two reasons. First, *unification*: the sim
/// runner, the trace pipeline, and the risk engine used to (or could)
/// re-derive totals independently; routing them through
/// [`MonthlyReport`]'s accessors — which all call this — keeps one
/// definition of "the monthly bill". Second, *stability*: compensation
/// makes the result far less sensitive to magnitude disparities, and —
/// because inputs always arrive in index order (the worker pool returns
/// results in input order at every thread count) — the exact same
/// floating-point operations run regardless of the worker count,
/// which is what makes risk summaries bitwise-reproducible.
pub(crate) fn stable_sum<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut sum = 0.0f64;
    let mut comp = 0.0f64; // running compensation for lost low-order bits
    for x in values {
        let t = sum + x;
        comp += if sum.abs() >= x.abs() {
            (sum - t) + x
        } else {
            (x - t) + sum
        };
        sum = t;
    }
    sum + comp
}

/// Solver-effort and budget-state observability for one simulated hour.
///
/// Collected by the runner for Cost Capping hours (baselines solve a
/// single LP and are not traced). Wall time is machine-dependent; the
/// node/iteration counts are deterministic for sequential solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourTrace {
    /// Wall time of the whole hour's decision + evaluation (ns).
    pub wall_ns: u64,
    /// MILP solves the capper ran this hour (1–3).
    pub solves: usize,
    /// Branch-and-bound nodes across those solves.
    pub nodes: usize,
    /// Simplex iterations across those solves.
    pub lp_iterations: usize,
    /// The budgeter's intra-week carry-over balance *after* the hour was
    /// billed ($); `None` when no budget was in force.
    pub carryover: Option<f64>,
}

/// What happened in one simulated hour.
#[derive(Debug, Clone, PartialEq)]
pub struct HourRecord {
    pub hour: usize,
    /// Offered arrival rates (requests/hour).
    pub offered: f64,
    pub premium_offered: f64,
    pub ordinary_offered: f64,
    /// Served (admitted, QoS-met) rates.
    pub premium_served: f64,
    pub ordinary_served: f64,
    /// Cost actually billed at true prices ($).
    pub realized_cost: f64,
    /// Cost the strategy believed it would pay ($).
    pub believed_cost: f64,
    /// The budgeter's allotment, when a budget was in force.
    pub hourly_budget: Option<f64>,
    /// Which branch of the capper ran (None for baselines).
    pub outcome: Option<HourOutcome>,
    /// Per-site dispatch (requests/hour).
    pub lambda: Vec<f64>,
    /// Per-site realized power (MW).
    pub power_mw: Vec<f64>,
    /// Per-site realized price ($/MWh).
    pub price: Vec<f64>,
    /// Solver-effort trace (`None` for baselines).
    pub trace: Option<HourTrace>,
}

impl HourRecord {
    /// True when the realized cost exceeded the hour's budget.
    pub fn violates_budget(&self) -> bool {
        self.hourly_budget
            .is_some_and(|b| self.realized_cost > b * (1.0 + 1e-9))
    }
}

/// A month of simulation under one strategy and budget.
#[derive(Debug, Clone, PartialEq)]
pub struct MonthlyReport {
    pub strategy_name: String,
    pub monthly_budget: Option<f64>,
    pub hours: Vec<HourRecord>,
}

impl MonthlyReport {
    /// Total realized electricity bill ($). The *single* derivation of
    /// the monthly bill: the runner, the trace pipeline, and the risk
    /// engine all read this accessor (compensated summation, see
    /// `stable_sum`) rather than re-summing hour records themselves.
    pub fn total_cost(&self) -> f64 {
        stable_sum(self.hours.iter().map(|h| h.realized_cost))
    }

    /// Total cost the strategy believed it was incurring ($).
    #[cfg(test)]
    pub(crate) fn total_believed_cost(&self) -> f64 {
        stable_sum(self.hours.iter().map(|h| h.believed_cost))
    }

    /// Served / offered for premium traffic (1.0 = all served).
    pub fn premium_throughput(&self) -> f64 {
        let offered = stable_sum(self.hours.iter().map(|h| h.premium_offered));
        if offered == 0.0 {
            return 1.0;
        }
        stable_sum(self.hours.iter().map(|h| h.premium_served)) / offered
    }

    /// Served / offered for ordinary traffic.
    pub fn ordinary_throughput(&self) -> f64 {
        let offered = stable_sum(self.hours.iter().map(|h| h.ordinary_offered));
        if offered == 0.0 {
            return 1.0;
        }
        stable_sum(self.hours.iter().map(|h| h.ordinary_served)) / offered
    }

    /// Total budget over-run across violating hours ($): how *much* the
    /// realized bill exceeded hourly budgets, not just how often.
    pub fn violation_magnitude(&self) -> f64 {
        stable_sum(self.hours.iter().filter_map(|h| {
            h.hourly_budget
                .map(|b| (h.realized_cost - b).max(0.0))
                .filter(|&m| m > 0.0)
        }))
    }

    /// Hours whose realized cost exceeded their hourly budget.
    pub fn hourly_violations(&self) -> usize {
        self.hours.iter().filter(|h| h.violates_budget()).count()
    }

    /// Realized bill relative to the monthly budget (1.0 = exactly on
    /// budget); `None` when no budget was in force.
    pub fn budget_utilization(&self) -> Option<f64> {
        self.monthly_budget.map(|b| self.total_cost() / b)
    }

    /// True when the monthly bill exceeded the monthly budget.
    pub fn violates_monthly_budget(&self) -> bool {
        self.budget_utilization().is_some_and(|u| u > 1.0 + 1e-9)
    }

    /// Hours that carried a solver-effort trace.
    pub fn traced_hours(&self) -> usize {
        self.hours.iter().filter(|h| h.trace.is_some()).count()
    }

    /// Total branch-and-bound nodes across all traced hours.
    pub fn total_bnb_nodes(&self) -> usize {
        self.hours
            .iter()
            .filter_map(|h| h.trace.as_ref())
            .map(|t| t.nodes)
            .sum()
    }

    /// Total simplex iterations across all traced hours.
    pub fn total_lp_iterations(&self) -> usize {
        self.hours
            .iter()
            .filter_map(|h| h.trace.as_ref())
            .map(|t| t.lp_iterations)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cost: f64, budget: Option<f64>) -> HourRecord {
        HourRecord {
            hour: 0,
            offered: 100.0,
            premium_offered: 80.0,
            ordinary_offered: 20.0,
            premium_served: 80.0,
            ordinary_served: 10.0,
            realized_cost: cost,
            believed_cost: cost * 0.9,
            hourly_budget: budget,
            outcome: None,
            lambda: vec![],
            power_mw: vec![],
            price: vec![],
            trace: None,
        }
    }

    #[test]
    fn aggregates() {
        let r = MonthlyReport {
            strategy_name: "test".into(),
            monthly_budget: Some(100.0),
            hours: vec![record(30.0, Some(40.0)), record(50.0, Some(40.0))],
        };
        assert_eq!(r.total_cost(), 80.0);
        assert_eq!(r.hourly_violations(), 1);
        assert_eq!(r.budget_utilization(), Some(0.8));
        assert!(!r.violates_monthly_budget());
        assert_eq!(r.premium_throughput(), 1.0);
        assert_eq!(r.ordinary_throughput(), 0.5);
    }

    #[test]
    fn monthly_violation() {
        let r = MonthlyReport {
            strategy_name: "test".into(),
            monthly_budget: Some(70.0),
            hours: vec![record(30.0, None), record(50.0, None)],
        };
        assert!(r.violates_monthly_budget());
        assert_eq!(r.hourly_violations(), 0);
    }

    #[test]
    fn no_budget_means_no_utilization() {
        let r = MonthlyReport {
            strategy_name: "test".into(),
            monthly_budget: None,
            hours: vec![record(30.0, None)],
        };
        assert_eq!(r.budget_utilization(), None);
        assert!(!r.violates_monthly_budget());
    }

    #[test]
    fn empty_throughputs_default_to_one() {
        let r = MonthlyReport {
            strategy_name: "t".into(),
            monthly_budget: None,
            hours: vec![],
        };
        assert_eq!(r.premium_throughput(), 1.0);
        assert_eq!(r.ordinary_throughput(), 1.0);
    }

    #[test]
    fn stable_sum_matches_naive_on_small_inputs() {
        let xs = [30.0, 50.0, 20.5];
        assert_eq!(stable_sum(xs.iter().copied()), 100.5);
        assert_eq!(stable_sum(std::iter::empty()), 0.0);
        assert_eq!(stable_sum(std::iter::once(7.25)), 7.25);
    }

    #[test]
    fn stable_sum_recovers_cancelled_bits() {
        // Classic Neumaier case: naive summation loses the 1.0 entirely.
        let xs = [1.0, 1e100, 1.0, -1e100];
        assert_eq!(stable_sum(xs.iter().copied()), 2.0);
        let naive: f64 = xs.iter().sum();
        assert_eq!(naive, 0.0, "naive summation should lose the small terms");
    }

    #[test]
    fn stable_sum_is_order_deterministic() {
        // Same order in, same bits out — repeated evaluation is pure.
        let xs: Vec<f64> = (0..1000)
            .map(|i| (i as f64) * 0.1 + 1e12 / (i + 1) as f64)
            .collect();
        let a = stable_sum(xs.iter().copied());
        let b = stable_sum(xs.iter().copied());
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn violation_magnitude_sums_overruns_only() {
        let r = MonthlyReport {
            strategy_name: "t".into(),
            monthly_budget: Some(100.0),
            hours: vec![
                record(30.0, Some(40.0)), // under budget: no contribution
                record(50.0, Some(40.0)), // $10 over
                record(70.0, None),       // no budget in force
            ],
        };
        assert_eq!(r.violation_magnitude(), 10.0);
    }
}
