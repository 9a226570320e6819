//! First-principles audit of capper output (the paper's invariants).
//!
//! The bill capper ([`crate::DecisionEngine`]) promises a lot: every site stays under its power
//! cap, response times meet the G/G/m target, the billed price level is
//! the one the actual regional load lands in, budgets hold except for the
//! premium-overrun hour, and premium traffic is never shed. All of that
//! is enforced *inside* the MILP, so a formulation bug would produce
//! confidently wrong plans if nothing re-derived them.
//!
//! [`PlanAuditor`] re-derives each invariant without the MILP:
//!
//! * **Power caps** — `p_i ≤ Ps_i` straight from the spec.
//! * **Response time** — an independent Allen–Cunneen recomputation at
//!   the *integer* server counts the local optimizer would start.
//! * **Power identity** — `p_i` agrees with the site's affine power model
//!   at `λ_i` (a made-up power split cannot certify).
//! * **Step pricing** — the binary-selected level's price matches the
//!   policy, and the actual load `p_i + d_i` lies inside that level
//!   (up to the formulation's deliberate breakpoint margin).
//! * **Cost arithmetic** — `cost_i = price_i · p_i` and the totals add up.
//! * **Decision invariants** — premium always served, served ≤ offered,
//!   conservation between the allocation and the served split, and
//!   budget compliance with the [`HourOutcome::PremiumOverride`]
//!   exception.
//!
//! Companion to [`billcap_milp::certify_solution`], which checks the
//! *solver's* arithmetic; this module checks the *formulation* against
//! the paper. Both run in every build, on every path: every capper solve
//! is certified, and [`crate::DecisionEngine`] audits every decision it
//! makes before returning it, so the month loop, the risk engine, the
//! decision server and [`crate::BillCapper`] all get the same checks
//! once. The model lint and the certificate each have one call site, the
//! engine's step path: it lints each step model once, when it builds it,
//! and certifies every solve. [`crate::CostMinimizer`]
//! and [`crate::ThroughputMaximizer`] are one-shot fronts over that path,
//! so each of their calls builds, lints and certifies one model.

use crate::capper::{HourDecision, HourOutcome};
use crate::error::CoreError;
use crate::minimize::{Allocation, BREAKPOINT_MARGIN_MW};
use crate::spec::DataCenterSystem;
use billcap_milp::{certify_solution, Model, Solution, SolveError};
use std::fmt;

/// Refuses a freshly built model that [`billcap_milp::lint_gate`] finds
/// Error-severity defects in; the gate runs only the checks that can
/// file one, and formats nothing for a clean model. A model whose *only*
/// Error finding is the `M007` static-infeasibility proof maps to
/// [`SolveError::Infeasible`], the error the solver itself would
/// return; any other Error finding becomes [`CoreError::Lint`]. A model
/// that fails [`Model::validate`] (which the gate also files under
/// `M007`) gets the solver's own error, [`SolveError::InvalidModel`].
pub(crate) fn lint_built(model: &Model) -> Result<(), CoreError> {
    let errors = billcap_milp::lint_gate(model);
    if errors.is_empty() {
        return Ok(());
    }
    model.validate()?;
    if errors.iter().all(|f| f.code == "M007") {
        return Err(CoreError::Solver(SolveError::Infeasible));
    }
    let errors: Vec<String> = errors.iter().map(|f| f.to_string()).collect();
    Err(CoreError::Lint(errors.join("; ")))
}

/// Solves `model` with `solve` and certifies the solution. A solution
/// whose certificate fails becomes a hard [`CoreError::Audit`]: a solve
/// whose arithmetic cannot be verified must not become a dispatch plan.
/// Each certified solution bumps the exact counter `core.audit.solves`.
pub(crate) fn checked_solve(
    model: &Model,
    solve: impl FnOnce() -> Result<Solution, SolveError>,
) -> Result<Solution, CoreError> {
    let sol = solve()?;
    let report = certify_solution(model, &sol);
    if !report.certified() {
        return Err(CoreError::Audit(format!(
            "solve '{}' failed certification: {report}",
            model.name
        )));
    }
    if billcap_obs::enabled() {
        billcap_obs::counter("core.audit.solves", 1);
    }
    Ok(sol)
}

/// Audits a decision against the paper's invariants on `system` (its
/// caps as decided) and `background_mw`. A failed audit is a hard
/// [`CoreError::Audit`]; each passed one bumps the exact counter
/// `core.audit.plans`.
pub(crate) fn audited_plan(
    system: &DataCenterSystem,
    decision: &HourDecision,
    background_mw: &[f64],
) -> Result<(), CoreError> {
    let report = PlanAuditor.audit_decision(system, decision, background_mw);
    if !report.passed() {
        return Err(CoreError::Audit(format!("hour plan: {report}")));
    }
    if billcap_obs::enabled() {
        billcap_obs::counter("core.audit.plans", 1);
    }
    Ok(())
}

/// One violated paper invariant found by the [`PlanAuditor`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanViolation {
    /// A per-site vector has the wrong length.
    Dimension {
        /// Which vector is mis-sized.
        what: String,
        /// Expected length (the number of sites).
        expected: usize,
        /// Actual length found.
        got: usize,
    },
    /// A reported quantity is NaN/infinite or negative where it cannot be.
    BadValue {
        /// Which quantity is bad.
        what: String,
        /// The offending value.
        value: f64,
    },
    /// Site power exceeds the supplier-imposed cap `Ps_i`.
    PowerCap {
        /// Site index.
        site: usize,
        /// Reported power draw (MW).
        power_mw: f64,
        /// The site's cap (MW).
        cap_mw: f64,
    },
    /// The reported power disagrees with the site's power model at `λ_i`.
    PowerIdentity {
        /// Site index.
        site: usize,
        /// Power the plan reports (MW).
        reported_mw: f64,
        /// Power the site model computes for the assigned rate (MW).
        expected_mw: f64,
    },
    /// Allen–Cunneen response time at the started servers misses `Rs_i`.
    ResponseTime {
        /// Site index.
        site: usize,
        /// Achieved mean response time (seconds).
        response: f64,
        /// The site's QoS target (seconds).
        target: f64,
    },
    /// More servers than the site hosts.
    ServerInventory {
        /// Site index.
        site: usize,
        /// Servers the plan starts.
        servers: u64,
        /// Servers the site actually hosts.
        max_servers: u64,
    },
    /// The reported price level index does not exist in the policy.
    UnknownLevel {
        /// Site index.
        site: usize,
        /// The nonexistent level index.
        level: usize,
    },
    /// The reported price is not the policy's price for the reported level.
    PriceValue {
        /// Site index.
        site: usize,
        /// Reported level index.
        level: usize,
        /// Price the plan reports ($/MWh).
        reported: f64,
        /// The policy's price for that level ($/MWh).
        expected: f64,
    },
    /// The actual regional load `p_i + d_i` lies outside the reported level.
    PriceLevel {
        /// Site index.
        site: usize,
        /// Reported level index.
        level: usize,
        /// Actual regional load (MW).
        load_mw: f64,
        /// Level lower breakpoint (MW).
        lo_mw: f64,
        /// Level upper breakpoint (MW).
        hi_mw: f64,
    },
    /// `cost_i != price_i * p_i`, or the totals do not add up.
    CostArithmetic {
        /// Which cost identity failed.
        what: String,
        /// Cost the plan reports ($).
        reported: f64,
        /// Cost recomputed from prices and powers ($).
        expected: f64,
    },
    /// Premium traffic was shed — never allowed by the paper.
    PremiumShed {
        /// Premium rate offered (requests/hour).
        offered: f64,
        /// Premium rate served (requests/hour).
        served: f64,
    },
    /// Served traffic exceeds what was offered.
    OverAdmission {
        /// Total rate served (requests/hour).
        served: f64,
        /// Total rate offered (requests/hour).
        offered: f64,
    },
    /// The allocation's admitted rate disagrees with the served split.
    Conservation {
        /// Rate the allocation admits (requests/hour).
        allocated: f64,
        /// Premium + ordinary served (requests/hour).
        served: f64,
    },
    /// Cost exceeds the hour's budget outside the premium-override hour.
    BudgetExceeded {
        /// Enforced cost ($).
        cost: f64,
        /// The hour's budget ($).
        budget: f64,
        /// The outcome branch that produced the decision.
        outcome: HourOutcome,
    },
    /// A within-budget hour failed to serve the full offered load.
    UnderServed {
        /// Total rate offered (requests/hour).
        offered: f64,
        /// Total rate served (requests/hour).
        served: f64,
    },
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanViolation::Dimension {
                what,
                expected,
                got,
            } => write!(f, "{what} has length {got}, expected {expected}"),
            PlanViolation::BadValue { what, value } => write!(f, "{what} = {value} is invalid"),
            PlanViolation::PowerCap {
                site,
                power_mw,
                cap_mw,
            } => write!(f, "site {site}: power {power_mw} MW exceeds cap {cap_mw} MW"),
            PlanViolation::PowerIdentity {
                site,
                reported_mw,
                expected_mw,
            } => write!(
                f,
                "site {site}: reported power {reported_mw} MW but the power model gives {expected_mw} MW"
            ),
            PlanViolation::ResponseTime {
                site,
                response,
                target,
            } => write!(
                f,
                "site {site}: response time {response:.3e} h exceeds target {target:.3e} h"
            ),
            PlanViolation::ServerInventory {
                site,
                servers,
                max_servers,
            } => write!(f, "site {site}: {servers} servers > inventory {max_servers}"),
            PlanViolation::UnknownLevel { site, level } => {
                write!(f, "site {site}: price level {level} does not exist")
            }
            PlanViolation::PriceValue {
                site,
                level,
                reported,
                expected,
            } => write!(
                f,
                "site {site}: reported price {reported} but level {level} costs {expected}"
            ),
            PlanViolation::PriceLevel {
                site,
                level,
                load_mw,
                lo_mw,
                hi_mw,
            } => write!(
                f,
                "site {site}: load {load_mw} MW outside level {level} [{lo_mw}, {hi_mw}) MW"
            ),
            PlanViolation::CostArithmetic {
                what,
                reported,
                expected,
            } => write!(f, "{what}: reported {reported} but recomputed {expected}"),
            PlanViolation::PremiumShed { offered, served } => write!(
                f,
                "premium shed: {served} of {offered} req/h served"
            ),
            PlanViolation::OverAdmission { served, offered } => {
                write!(f, "served {served} req/h exceeds offered {offered} req/h")
            }
            PlanViolation::Conservation { allocated, served } => write!(
                f,
                "allocation admits {allocated} req/h but the served split sums to {served} req/h"
            ),
            PlanViolation::BudgetExceeded {
                cost,
                budget,
                outcome,
            } => write!(
                f,
                "cost {cost} exceeds budget {budget} under outcome {outcome:?}"
            ),
            PlanViolation::UnderServed { offered, served } => write!(
                f,
                "within-budget hour served {served} of {offered} req/h"
            ),
        }
    }
}

/// The outcome of auditing an allocation or an hour decision.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// Every violated invariant.
    pub violations: Vec<PlanViolation>,
    /// Number of individual invariant checks performed.
    pub checks: usize,
}

impl AuditReport {
    /// True when every checked invariant holds.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    fn check(&mut self, ok: bool, v: impl FnOnce() -> PlanViolation) {
        self.checks += 1;
        if !ok {
            self.violations.push(v());
        }
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.passed() {
            return write!(f, "audit passed ({} checks)", self.checks);
        }
        write!(
            f,
            "{} of {} checks failed: ",
            self.violations.len(),
            self.checks
        )?;
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Relative tolerance for cost and rate comparisons.
const REL_TOL: f64 = 1e-6;
/// Relative tolerance for the affine-power identity `p = a·λ + b`,
/// relative to `1 + a·λ + b`. A certified solve meets the power row
/// `Σ_k q_k − a·lam = b` to within `t·(1 + 2p)` MW, where `t = 10⁻⁶` is
/// the certificate's primal tolerance (equal to [`REL_TOL`]) and `2p`
/// bounds the row's magnitude; and `t·(1 + 2p) ≤ 2t·(1 + p)`, as the
/// margin of `minimize::cost_floor` derives.
const POWER_REL_TOL: f64 = 2.0 * REL_TOL;
/// Slack (MW) allowed around a price level's interval. Covers the
/// formulation's deliberate breakpoint margin
/// (`minimize::BREAKPOINT_MARGIN_MW`) plus the idle-site widening (a
/// site's base power, a few kW).
const LEVEL_MARGIN_MW: f64 = 2.0 * BREAKPOINT_MARGIN_MW;
/// Relative slack on the response-time target.
const QOS_REL_TOL: f64 = 1e-9;

/// Audits capper output against the paper's invariants, recomputed from
/// first principles (no MILP involved). See the module docs for the list.
/// It holds no settings: its tolerances are fixed. Build it with
/// [`PlanAuditor::default`].
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct PlanAuditor;

impl PlanAuditor {
    /// Audits a single allocation (either optimizer's output) against the
    /// per-site invariants: power caps, the power identity, Allen–Cunneen
    /// response time, server inventory, step-pricing consistency and cost
    /// arithmetic.
    pub fn audit_allocation(
        &self,
        system: &DataCenterSystem,
        alloc: &Allocation,
        background_mw: &[f64],
    ) -> AuditReport {
        let mut report = AuditReport::default();
        let n = system.len();
        for (what, len) in [
            ("lambda", alloc.lambda.len()),
            ("servers", alloc.servers.len()),
            ("power_mw", alloc.power_mw.len()),
            ("price", alloc.price.len()),
            ("level", alloc.level.len()),
            ("cost", alloc.cost.len()),
            ("background_mw", background_mw.len()),
        ] {
            report.check(len == n, || PlanViolation::Dimension {
                what: what.to_string(),
                expected: n,
                got: len,
            });
        }
        if !report.passed() {
            return report; // per-site indexing would be meaningless
        }

        let mut total_cost = 0.0;
        let mut total_lambda = 0.0;
        for (i, site) in system.sites.iter().enumerate() {
            let lam = alloc.lambda[i];
            let p = alloc.power_mw[i];
            let servers = alloc.servers[i];

            report.check(lam.is_finite() && lam >= -REL_TOL, || {
                PlanViolation::BadValue {
                    what: format!("site {i} lambda"),
                    value: lam,
                }
            });
            report.check(p.is_finite() && p >= -REL_TOL, || PlanViolation::BadValue {
                what: format!("site {i} power"),
                value: p,
            });
            if !(lam.is_finite() && p.is_finite()) {
                continue;
            }

            // Power cap p_i <= Ps_i.
            let cap = site.power_cap_mw;
            report.check(p <= cap * (1.0 + REL_TOL) + 1e-6, || {
                PlanViolation::PowerCap {
                    site: i,
                    power_mw: p,
                    cap_mw: cap,
                }
            });

            // Power identity: the reported power must come from the site's
            // own power model at lam — a fabricated split cannot pass.
            let expected_p = site.power_for_rate_mw(lam);
            report.check(
                (p - expected_p).abs() <= POWER_REL_TOL * (1.0 + expected_p),
                || PlanViolation::PowerIdentity {
                    site: i,
                    reported_mw: p,
                    expected_mw: expected_p,
                },
            );

            // Server inventory and the independent Allen–Cunneen check at
            // the integer server count actually started.
            report.check(servers <= site.max_servers, || {
                PlanViolation::ServerInventory {
                    site: i,
                    servers,
                    max_servers: site.max_servers,
                }
            });
            let target = site.response_target;
            report.check(
                site.queue
                    .meets_target(servers, lam, target * (1.0 + QOS_REL_TOL)),
                || PlanViolation::ResponseTime {
                    site: i,
                    response: site
                        .queue
                        .response_time(servers, lam)
                        .unwrap_or(f64::INFINITY),
                    target,
                },
            );

            // Step-pricing consistency: reported level exists, its price is
            // the reported price, and the actual regional load lands in it.
            let k = alloc.level[i];
            let policy = system.policy(i);
            match policy.levels().nth(k) {
                None => report.check(false, || PlanViolation::UnknownLevel { site: i, level: k }),
                Some((lo, hi, price)) => {
                    report.check(
                        (alloc.price[i] - price).abs() <= REL_TOL * (1.0 + price),
                        || PlanViolation::PriceValue {
                            site: i,
                            level: k,
                            reported: alloc.price[i],
                            expected: price,
                        },
                    );
                    let load = p + background_mw[i];
                    report.check(
                        load >= lo - LEVEL_MARGIN_MW && load <= hi + LEVEL_MARGIN_MW,
                        || PlanViolation::PriceLevel {
                            site: i,
                            level: k,
                            load_mw: load,
                            lo_mw: lo,
                            hi_mw: hi,
                        },
                    );
                }
            }

            // Cost arithmetic: cost_i = price_i * p_i.
            let expected_cost = alloc.price[i] * p;
            report.check(
                (alloc.cost[i] - expected_cost).abs() <= REL_TOL * (1.0 + expected_cost.abs()),
                || PlanViolation::CostArithmetic {
                    what: format!("site {i} cost"),
                    reported: alloc.cost[i],
                    expected: expected_cost,
                },
            );
            total_cost += alloc.cost[i];
            total_lambda += lam;
        }

        report.check(
            (alloc.total_cost - total_cost).abs() <= REL_TOL * (1.0 + total_cost.abs()),
            || PlanViolation::CostArithmetic {
                what: "total cost".to_string(),
                reported: alloc.total_cost,
                expected: total_cost,
            },
        );
        report.check(
            (alloc.total_lambda - total_lambda).abs() <= REL_TOL * (1.0 + total_lambda),
            || PlanViolation::CostArithmetic {
                what: "total lambda".to_string(),
                reported: alloc.total_lambda,
                expected: total_lambda,
            },
        );
        report
    }

    /// Audits a full hour decision: the underlying allocation plus the
    /// decision-level invariants (premium-always-served, conservation,
    /// admission, and budget compliance with the premium-overrun
    /// exception).
    pub fn audit_decision(
        &self,
        system: &DataCenterSystem,
        decision: &HourDecision,
        background_mw: &[f64],
    ) -> AuditReport {
        let mut report = self.audit_allocation(system, &decision.allocation, background_mw);

        let served = decision.premium_served + decision.ordinary_served;
        let rate_tol = REL_TOL * (1.0 + decision.offered);

        // Premium is never shed (the paper's revenue-protection rule).
        report.check(
            decision.premium_served >= decision.premium_offered - rate_tol,
            || PlanViolation::PremiumShed {
                offered: decision.premium_offered,
                served: decision.premium_served,
            },
        );
        // Cannot serve traffic nobody offered.
        report.check(served <= decision.offered + rate_tol, || {
            PlanViolation::OverAdmission {
                served,
                offered: decision.offered,
            }
        });
        // The served split must be the allocation actually dispatched.
        report.check(
            (decision.allocation.total_lambda - served).abs() <= rate_tol,
            || PlanViolation::Conservation {
                allocated: decision.allocation.total_lambda,
                served,
            },
        );
        // Budget compliance, with the premium-override exception.
        let cost = decision.cost();
        let budget_ok = cost <= decision.budget * (1.0 + REL_TOL) + REL_TOL;
        report.check(
            budget_ok || decision.outcome == HourOutcome::PremiumOverride,
            || PlanViolation::BudgetExceeded {
                cost,
                budget: decision.budget,
                outcome: decision.outcome,
            },
        );
        // A within-budget hour serves everything offered.
        if decision.outcome == HourOutcome::WithinBudget {
            report.check(served >= decision.offered - rate_tol, || {
                PlanViolation::UnderServed {
                    offered: decision.offered,
                    served,
                }
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capper::BillCapper;
    use crate::minimize::CostMinimizer;
    use crate::spec::DataCenterSystem;

    fn background() -> Vec<f64> {
        vec![330.0, 410.0, 280.0]
    }

    /// The certificate check refuses a solution whose values were moved
    /// after the solve, as [`CoreError::Audit`], and passes the genuine
    /// one.
    #[test]
    fn checked_solve_refuses_a_corrupted_solution() {
        let sys = DataCenterSystem::paper_system(1);
        let (m, vars) = crate::minimize::cost_min_model(&sys, 5e8, &background());
        let sol = billcap_milp::MipSolver::default().solve(&m).unwrap();
        assert!(checked_solve(&m, || Ok(sol.clone())).is_ok());
        let mut bad = sol.clone();
        bad.values[vars.lam[0].index()] += 1.0;
        match checked_solve(&m, || Ok(bad)) {
            Err(CoreError::Audit(msg)) => assert!(msg.contains("certification"), "{msg}"),
            r => panic!("a corrupted solution must be refused: {r:?}"),
        }
        let mut bad = sol;
        bad.objective *= 0.9;
        assert!(matches!(
            checked_solve(&m, || Ok(bad)),
            Err(CoreError::Audit(_))
        ));
    }

    /// The engine's plan audit refuses a decision that sheds premium or
    /// busts its budget outside an override, as [`CoreError::Audit`],
    /// and passes the genuine one.
    #[test]
    fn audited_plan_refuses_a_corrupted_decision() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let dec = BillCapper::default()
            .decide_hour(&sys, 8e8, 0.8 * 8e8, &d, f64::INFINITY)
            .unwrap();
        assert_eq!(audited_plan(&sys, &dec, &d), Ok(()));
        let mut shed = dec.clone();
        shed.premium_served = 0.5 * shed.premium_offered;
        let mut over = dec.clone();
        over.budget = 0.5 * over.cost();
        let mut capped = sys.clone();
        capped.sites[0].power_cap_mw = 0.5 * dec.allocation.power_mw[0];
        for (what, sys, bad) in [
            ("shed", &sys, &shed),
            ("over", &sys, &over),
            ("cap", &capped, &dec),
        ] {
            match audited_plan(sys, bad, &d) {
                Err(CoreError::Audit(msg)) => assert!(msg.contains("hour plan"), "{msg}"),
                r => panic!("{what}: a corrupted plan must be refused: {r:?}"),
            }
        }
    }

    #[test]
    fn genuine_allocation_passes() {
        let sys = DataCenterSystem::paper_system(1);
        let alloc = CostMinimizer::default()
            .solve(&sys, 5e8, &background())
            .unwrap();
        let report = PlanAuditor::default().audit_allocation(&sys, &alloc, &background());
        assert!(report.passed(), "{report}");
        assert!(report.checks > 20);
    }

    #[test]
    fn genuine_decisions_pass_across_outcomes() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let capper = BillCapper::default();
        let auditor = PlanAuditor::default();
        let offered = 8e8;
        let premium = 0.8 * offered;
        let full_cost = capper
            .decide_hour(&sys, offered, premium, &d, f64::INFINITY)
            .unwrap()
            .cost();
        for budget in [f64::INFINITY, 0.93 * full_cost, 1.0] {
            let dec = capper
                .decide_hour(&sys, offered, premium, &d, budget)
                .unwrap();
            let report = auditor.audit_decision(&sys, &dec, &d);
            assert!(report.passed(), "budget {budget}: {report}");
        }
    }

    #[test]
    fn power_cap_violation_is_caught() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let alloc = CostMinimizer::default().solve(&sys, 5e8, &d).unwrap();
        let mut bad = alloc.clone();
        bad.power_mw[0] = sys.sites[0].power_cap_mw + 5.0;
        let report = PlanAuditor::default().audit_allocation(&sys, &bad, &d);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::PowerCap { site: 0, .. })));
    }

    #[test]
    fn wrong_price_level_is_caught() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let alloc = CostMinimizer::default().solve(&sys, 5e8, &d).unwrap();
        let mut bad = alloc.clone();
        // Claim a cheaper adjacent level without moving any power.
        bad.level[0] = alloc.level[0].saturating_sub(1);
        bad.price[0] = sys
            .policy(0)
            .levels()
            .nth(bad.level[0])
            .map(|(_, _, r)| r)
            .unwrap();
        bad.cost[0] = bad.price[0] * bad.power_mw[0];
        bad.total_cost = bad.cost.iter().sum();
        let report = PlanAuditor::default().audit_allocation(&sys, &bad, &d);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, PlanViolation::PriceLevel { site: 0, .. })),
            "{report}"
        );
    }

    #[test]
    fn qos_violation_is_caught() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let alloc = CostMinimizer::default().solve(&sys, 5e8, &d).unwrap();
        let mut bad = alloc.clone();
        // Pretend a loaded site runs on a skeleton crew.
        let busiest = (0..sys.len())
            .max_by(|&a, &b| bad.lambda[a].total_cmp(&bad.lambda[b]))
            .unwrap();
        bad.servers[busiest] = (bad.lambda[busiest] / sys.sites[busiest].queue.service_rate) as u64;
        let report = PlanAuditor::default().audit_allocation(&sys, &bad, &d);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, PlanViolation::ResponseTime { .. })),
            "{report}"
        );
    }

    #[test]
    fn fabricated_power_split_is_caught() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let alloc = CostMinimizer::default().solve(&sys, 5e8, &d).unwrap();
        let mut bad = alloc.clone();
        // Shift claimed power between sites while keeping rates: the
        // affine power identity breaks at both ends.
        bad.power_mw[0] += 10.0;
        bad.power_mw[1] -= 10.0;
        let report = PlanAuditor::default().audit_allocation(&sys, &bad, &d);
        let identity_violations = report
            .violations
            .iter()
            .filter(|v| matches!(v, PlanViolation::PowerIdentity { .. }))
            .count();
        assert!(identity_violations >= 2, "{report}");
    }

    #[test]
    fn small_power_shift_between_sites_is_caught() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let alloc = CostMinimizer::default().solve(&sys, 5e8, &d).unwrap();
        assert!(PlanAuditor.audit_allocation(&sys, &alloc, &d).passed());
        // Move 0.1 MW of claimed power from site 1 to site 2 and re-bill
        // both: the totals, caps, price levels and cost arithmetic all
        // still hold, so only the power identity can catch the shift.
        let mut bad = alloc.clone();
        bad.power_mw[1] -= 0.1;
        bad.power_mw[2] += 0.1;
        for i in [1, 2] {
            bad.cost[i] = bad.price[i] * bad.power_mw[i];
        }
        bad.total_cost = bad.cost.iter().sum();
        let report = PlanAuditor.audit_allocation(&sys, &bad, &d);
        let identity_sites: Vec<usize> = report
            .violations
            .iter()
            .filter_map(|v| match v {
                PlanViolation::PowerIdentity { site, .. } => Some(*site),
                _ => None,
            })
            .collect();
        assert_eq!(identity_sites, [1, 2], "{report}");
        assert_eq!(report.violations.len(), 2, "{report}");
    }

    #[test]
    fn budget_bust_without_premium_exception_is_caught() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let capper = BillCapper::default();
        let dec = capper
            .decide_hour(&sys, 8e8, 0.8 * 8e8, &d, f64::INFINITY)
            .unwrap();
        let mut bad = dec.clone();
        bad.budget = bad.cost() * 0.5; // claims WithinBudget while over it
        let report = PlanAuditor::default().audit_decision(&sys, &bad, &d);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, PlanViolation::BudgetExceeded { .. })),
            "{report}"
        );

        // The same overrun under PremiumOverride is the sanctioned
        // exception and passes the budget check.
        let genuine_override = capper.decide_hour(&sys, 8e8, 0.8 * 8e8, &d, 1.0).unwrap();
        assert_eq!(genuine_override.outcome, HourOutcome::PremiumOverride);
        let report = PlanAuditor::default().audit_decision(&sys, &genuine_override, &d);
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn premium_shed_is_caught() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let dec = BillCapper::default()
            .decide_hour(&sys, 8e8, 0.8 * 8e8, &d, f64::INFINITY)
            .unwrap();
        let mut bad = dec.clone();
        bad.premium_served = 0.5 * bad.premium_offered;
        let report = PlanAuditor::default().audit_decision(&sys, &bad, &d);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, PlanViolation::PremiumShed { .. })));
    }
}
