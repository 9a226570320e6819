//! Step 1: electricity-cost minimization (paper Section IV).
//!
//! Decision: per-site request rates `λ_i` with `Σλ_i = λ`, minimizing
//! `Σ Pr_i(p_i + d_i) · p_i` subject to site power caps and the G/G/m
//! response-time constraint. Power is affine in the rate
//! (`p_i = a_i λ_i + b_i`, from the linearized server/switch/cooling
//! chain), so the only nonlinearity is the step pricing policy. It is
//! linearized with the standard piecewise-affine technique the paper cites:
//!
//! * one binary `z_{ik}` per site `i` and price level `k`, with
//!   `Σ_k z_{ik} = 1`;
//! * one level-restricted power variable `q_{ik} >= 0` with
//!   `max(lo_k − d_i, 0)·z_{ik} <= q_{ik} <= min(hi_k − d_i, Ps_i)·z_{ik}`,
//!   so only the active level's variable can be nonzero and the regional
//!   load `p_i + d_i` must actually lie in that level;
//! * `Σ_k q_{ik} = p_i`, making the objective `Σ_{ik} r_{ik} q_{ik}`
//!   exactly the billed cost.
//!
//! Internally rates are scaled to millions of requests/hour so all MILP
//! coefficients sit within a few orders of magnitude of one.

use crate::engine::EngineCore;
use crate::error::CoreError;
use crate::spec::{DataCenterSpec, DataCenterSystem};
use billcap_market::StepPolicy;
use billcap_milp::{ConstraintOp, MipSolver, MipStats, Model, Sense, VarId};

/// Rate unit used inside the MILPs: one million requests/hour.
pub(crate) const RATE_SCALE: f64 = 1e6;

/// Slack kept below every price breakpoint (MW) so that ceil-rounded
/// realized power cannot tip a region into the next price level.
pub(crate) const BREAKPOINT_MARGIN_MW: f64 = 0.01;

/// A workload allocation decided by one of the optimizers.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Requests/hour dispatched to each site.
    pub lambda: Vec<f64>,
    /// Active servers started by each site's local optimizer.
    pub servers: Vec<u64>,
    /// Site power draw (MW) under the linearized model.
    pub power_mw: Vec<f64>,
    /// Electricity price ($/MWh) each site pays at the resulting load.
    pub price: Vec<f64>,
    /// Price level index selected at each site.
    pub level: Vec<usize>,
    /// Site electricity cost ($ for the hour).
    pub cost: Vec<f64>,
    /// Total cost ($ for the hour).
    pub total_cost: f64,
    /// Total admitted rate (requests/hour).
    pub total_lambda: f64,
    /// Branch-and-bound statistics of the MILP solve that produced this
    /// allocation. `None` when the allocation was not produced by a single
    /// MIP solve (e.g. the hierarchical decomposition, which stitches
    /// together many regional solves).
    pub stats: Option<MipStats>,
}

/// Shared MILP scaffolding between the two steps.
pub(crate) struct PiecewiseVars {
    pub lam: Vec<VarId>,
    /// Per site: the *reachable* price levels as
    /// `(level index, price, q var, z var)`. Levels the region can never
    /// land in (background already past them, or unreachable within the
    /// power cap) are pruned before the MILP sees them, which keeps the
    /// binary count small.
    pub levels: Vec<Vec<(usize, f64, VarId, VarId)>>,
    /// Per site and kept level (same order as `levels`): the row indices
    /// of its `lvl_hi` and `lvl_lo` interval rows. The first kept level
    /// has no `lvl_lo` row (`None`): its floor is 0 by construction (see
    /// [`site_level_params`]), so the row would read `q ≥ 0`, which the
    /// variable's bound already says.
    pub lvl_rows: Vec<Vec<(usize, Option<usize>)>>,
    /// The row index of the step's rate row, `Σ lam_i` against the
    /// offered rate: `demand` (step 1) or `offered` (step 2).
    pub rate_row: usize,
    /// The row index of step 2's `budget` row; `None` in a step-1 model.
    pub budget_row: Option<usize>,
}

/// One kept price level of a site at a given background demand, reduced to
/// the numbers the MILP actually uses: the `z` coefficients of the
/// `lvl_hi` / `lvl_lo` interval rows.
///
/// Both the from-scratch builder ([`build_piecewise_core`]) and the
/// retained-model value sync ([`crate::engine::DecisionEngine`]) derive these
/// from this one function, so the two paths produce float-for-float
/// identical models whenever the kept-level sets match — the bitwise
/// reproducibility of the decision server rides on that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LevelParam {
    /// Price level index within the site's policy.
    pub k: usize,
    /// Price ($/MWh) of the level.
    pub price: f64,
    /// Coefficient of `z` in `lvl_hi_{i}_{k}`: `q + zcoef_hi * z <= 0`.
    pub zcoef_hi: f64,
    /// Coefficient of `z` in `lvl_lo_{i}_{k}`: `q + zcoef_lo * z >= 0`.
    pub zcoef_lo: f64,
}

/// The variable bounds a site's power cap `Ps_i` writes into the MILP,
/// outside level pruning and the `lvl_hi` coefficients (both of which
/// [`site_level_params`] already covers).
///
/// The from-scratch builder ([`build_piecewise_core`]) and the engine's
/// cap sync ([`crate::engine::DecisionEngine::set_site_caps`]) both take
/// these from this one function, so a synced model carries the same
/// floats as a fresh build for the same caps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SiteCapValues {
    /// Upper bound of `lam_{i}` (Mreq/h): the site's [`DataCenterSpec::max_rate`].
    pub lam_ub: f64,
    /// Upper bound of every `q_{i}_{k}` (MW).
    pub q_ub: f64,
}

/// Computes the cap-dependent bounds of `site`.
pub(crate) fn site_cap_values(site: &DataCenterSpec) -> SiteCapValues {
    SiteCapValues {
        lam_ub: site.max_rate() / RATE_SCALE,
        q_ub: site.power_cap_mw.max(0.0),
    }
}

/// Computes the kept (non-pruned) price levels of `site` under `policy`
/// with background demand `d`, and their interval-row coefficients.
///
/// Two facts make rows of [`build_piecewise_core`] redundant, so it does
/// not emit them. Both assume what every model build has checked first
/// (the engine's `HourLevels` and [`crate::capper::validate_caps`]): `d`
/// is finite and at least 0, and the cap is finite and at least the
/// site's base power `b ≥ 0`.
///
/// * **The first kept level holds the background, and its floor is 0.**
///   The levels tile `[0, ∞)` in increasing order, so exactly one level
///   has `lo ≤ d < hi` (`holds_zero`), and it is always kept. Any lower
///   level has `hi ≤ lo_holding ≤ d`, so its ceiling is
///   `u ≤ hi − BREAKPOINT_MARGIN_MW − d < 0` (the `min` with the cap
///   can only lower it) and, not holding the background, it is pruned. The holding
///   level's floor is `l = max(lo − d, 0) = 0` since `lo ≤ d`. So the
///   first entry of the result has `zcoef_lo == 0`, and its `lvl_lo` row
///   would read `q ≥ 0`: the variable's own lower bound.
/// * **Every kept ceiling is at most the cap.** `u = min(hi − margin − d,
///   cap)`, and the idle-site widening below is clamped at the cap (it
///   can still reach the base power, since `cap ≥ b`). With `Σ_k z_k = 1`
///   and `z ≥ 0`, the `lvl_hi` rows give
///   `Σ_k q_k ≤ Σ_k u_k·z_k ≤ max_k u_k ≤ cap`, in the LP relaxation as
///   well as at integral `z`: a separate `Σ_k q_k ≤ cap` row is implied.
pub(crate) fn site_level_params(
    site: &DataCenterSpec,
    policy: &StepPolicy,
    d: f64,
) -> Vec<LevelParam> {
    let b = site.base_power_mw();
    let cap = site.power_cap_mw;
    let mut out = Vec::new();
    for (k, (lo, hi, price)) in policy.levels().enumerate() {
        // Safety margin below each breakpoint: the MILP's linearized
        // power under-counts the realized draw by up to a few switches'
        // worth (ceil rounding), so sitting *exactly* on a breakpoint
        // would get billed at the next level. 10 kW of slack dwarfs the
        // rounding error at negligible cost.
        let hi_safe = if hi.is_finite() {
            hi - BREAKPOINT_MARGIN_MW
        } else {
            hi
        };
        let u = (hi_safe - d).min(cap);
        let l = (lo - d).max(0.0);
        // Prune levels the site can never land in: the region is
        // already past the level (u <= 0, but keep the level holding
        // the zero-power point so an idle site stays representable),
        // or the level starts beyond what the power cap can reach.
        let holds_zero = lo <= d && d < hi;
        // If the background sits inside the breakpoint margin, an idle
        // site must still be representable: widen this level's ceiling
        // just enough for the base (QoS headroom) power, but never past
        // the cap (which is at least the base power).
        let u = if holds_zero {
            u.max(b + 1e-3).min(cap)
        } else {
            u
        };
        let reachable = u > 0.0 && l <= cap;
        if !(reachable || holds_zero) {
            continue;
        }
        out.push(LevelParam {
            k,
            price,
            // u may be negative, forbidding positive power in a level
            // kept only for the zero point.
            zcoef_hi: -u.max(0.0),
            zcoef_lo: -l,
        });
    }
    out
}

/// The feasibility tolerance [`cost_floor`]'s margin grants every row
/// and bound of a returned solve, relative to `1 + |magnitude|`: the
/// certificate's primal tolerance ([`billcap_milp::certify_solution`]),
/// ten times the revised simplex's absolute one on these pre-scaled
/// models.
const FLOOR_TOL: f64 = billcap_milp::PRIMAL_TOL;

/// A certified floor under the cost of any step-1 solve that serves
/// `lambda` requests/hour on the model built from `params` (the kept
/// levels [`site_level_params`] derives for the hour), or `None` when
/// it cannot vouch for one.
///
/// **The bound.** For site `i` let `r_i` be its cheapest kept price,
/// `a_i = mw_per_request · RATE_SCALE`, `b_i` its base power and
/// `ub_i = max_rate / RATE_SCALE` the `lam_i` upper bound. Every point
/// of the model has `q ≥ 0`, so it costs
/// `Σ_k r_ik·q_ik ≥ Σ_i r_i·Σ_k q_ik = Σ_i r_i·(b_i + a_i·lam_i)`: the
/// power row makes `Σ_k q_ik = a_i·lam_i + b_i`. Over `lam_i ∈ [0, ub_i]`
/// with `Σ lam_i = Λ = lambda / RATE_SCALE`
/// across the `n` sites, the right side is least when the sites fill in increasing
/// `c_i = r_i·a_i`, each up to `ub_i`: `lb` is `Σ r_i·b_i` plus that
/// fractional knapsack.
///
/// **The margin.** [`extract_allocation`] bills each site
/// `price × Σ_k max(q_ik, 0)`, where the price is a kept one, so at least
/// `r_i`, and the clamp only adds: the recomputed cost never undercuts
/// `Σ r_i·Σ_k q_ik`. Branch-and-bound's gap only returns a costlier
/// feasible point. What can undercut `lb` is a returned point that meets
/// each row and bound only to within `t·(1 + |magnitude|)`,
/// `t = FLOOR_TOL`:
/// * site `i`'s power row can fall short by `t·(1 + 2·p_i)` MW, with
///   `p_i ≤ b_i + a_i·ub_i`, each MW at `r_i`;
/// * the demand row can fall short by `t·(1 + 2Λ)`, each `lam_i` bound
///   give by `t·(1 + ub_i)`, and each rate unit so moved saves at most
///   `c_max = max_i c_i`.
///
/// Summed, with `W = Σ_i r_i·(b_i + a_i·ub_i) + c_max·(Λ + Σ_i ub_i)`
/// the dollar scale of every term (`W ≥ lb`), no solve returns less than
/// `lb − margin` where
///
/// `margin = t·2W + t·(Σ_i r_i + c_max·(1 + 2n))`:
///
/// a relative part, `2t` of the scale, which also swamps the rounding of
/// these `O(n)` float operations, and an absolute part, one unit of each
/// row's absolute tolerance at its price. The floor is `lb − margin`.
///
/// No floor when a kept price is negative or non-finite, a power cap or
/// any term is non-finite, `lambda` is negative, or `params` does not
/// have one entry per site: those hours keep running step 1, and so
/// every error path stays as it was.
pub(crate) fn cost_floor(
    system: &DataCenterSystem,
    params: &[Vec<LevelParam>],
    lambda: f64,
) -> Option<f64> {
    if params.len() != system.len() || !lambda.is_finite() || lambda < 0.0 {
        return None;
    }
    // (c_i, ub_i) per site for the knapsack, and the sums that need no
    // order.
    let mut fill = Vec::with_capacity(params.len());
    let (mut base_cost, mut full_cost, mut price_sum, mut ub_sum) = (0.0, 0.0, 0.0, 0.0);
    let mut c_max: f64 = 0.0;
    for (site, levels) in system.sites.iter().zip(params) {
        let mut r = f64::INFINITY;
        for p in levels {
            if !p.price.is_finite() || p.price < 0.0 {
                return None;
            }
            r = r.min(p.price);
        }
        let (a, b) = (site.mw_per_request() * RATE_SCALE, site.base_power_mw());
        let ub = site_cap_values(site).lam_ub;
        let c = r * a;
        if ![r, a, b, ub, c, site.power_cap_mw]
            .iter()
            .all(|v| v.is_finite())
        {
            return None;
        }
        base_cost += r * b;
        full_cost += r * (b + a * ub);
        price_sum += r;
        ub_sum += ub;
        c_max = c_max.max(c);
        fill.push((c, ub));
    }
    fill.sort_by(|x, y| x.0.total_cmp(&y.0));
    let demand = lambda / RATE_SCALE;
    let (mut left, mut lb) = (demand, base_cost);
    for (c, ub) in fill {
        if left <= 0.0 {
            break;
        }
        let take = left.min(ub);
        lb += c * take;
        left -= take;
    }
    let scale = full_cost + c_max * (demand + ub_sum);
    let n = system.len() as f64;
    let margin = FLOOR_TOL * 2.0 * scale + FLOOR_TOL * (price_sum + c_max * (1.0 + 2.0 * n));
    let floor = lb - margin;
    floor.is_finite().then_some(floor)
}

/// A certified floor under the minimum cost of serving `lambda`
/// requests/hour against `background_mw` ([`CostMinimizer::solve`]
/// never returns less), or `None` when no floor can be vouched for: a
/// negative or non-finite price, a non-finite input, or a background
/// without one entry per site. The bound is `Σ r_i·b_i` plus a
/// fractional knapsack over the sites' cheapest kept prices, less a
/// margin for the solver's feasibility tolerance; both are derived at
/// `cost_floor` in this module. The decision engine skips step 1 when
/// the hour's budget is below this floor, since step 1 would bust it
/// for certain.
pub fn step1_cost_floor(
    system: &DataCenterSystem,
    lambda: f64,
    background_mw: &[f64],
) -> Option<f64> {
    if background_mw.len() != system.len() || background_mw.iter().any(|d| !d.is_finite()) {
        return None;
    }
    cost_floor(system, &level_params(system, background_mw), lambda)
}

/// Per-site kept-level parameters for one hour's background vector
/// (one entry per site; `background_mw` must have as many).
pub(crate) fn level_params(
    system: &DataCenterSystem,
    background_mw: &[f64],
) -> Vec<Vec<LevelParam>> {
    system
        .sites
        .iter()
        .enumerate()
        .map(|(i, site)| site_level_params(site, system.policy(i), background_mw[i]))
        .collect()
}

/// Builds the common variables and constraints of both optimization steps:
/// rate bounds, the power identity, level selection, level-interval
/// restrictions and, last, the step's rate row `Σ lam_i op rate`, with
/// `(name, op, rate)` from `rate_row`. Returns the variable handles and
/// row indices.
///
/// The model carries no row the others imply ([`site_level_params`]
/// proves both cases): the first kept level of a site has no `lvl_lo`
/// row, and there is no `Σ_k q_ik ≤ cap` row. The cap reaches the model
/// through the `lvl_hi` ceilings and the `q` bounds alone.
pub(crate) fn build_piecewise_core(
    m: &mut Model,
    system: &DataCenterSystem,
    background_mw: &[f64],
    rate_row: (&str, ConstraintOp, f64),
) -> PiecewiseVars {
    let n = system.len();
    let mut lam = Vec::with_capacity(n);
    let mut site_levels = Vec::with_capacity(n);
    let mut lvl_rows = Vec::with_capacity(n);

    for (i, site) in system.sites.iter().enumerate() {
        let d = background_mw[i];
        let a = site.mw_per_request() * RATE_SCALE; // MW per Mreq/h
        let b = site.base_power_mw();
        let caps = site_cap_values(site);
        let lam_i = m.add_cont(format!("lam_{i}"), 0.0, caps.lam_ub);

        let mut levels_i = Vec::new();
        let mut rows_i = Vec::new();
        for (slot, p) in site_level_params(site, system.policy(i), d)
            .into_iter()
            .enumerate()
        {
            let k = p.k;
            let q = m.add_cont(format!("q_{i}_{k}"), 0.0, caps.q_ub);
            let z = m.add_binary(format!("z_{i}_{k}"));
            // q <= u * z.
            let hi = m.num_constraints();
            m.add_constraint(
                format!("lvl_hi_{i}_{k}"),
                vec![(q, 1.0), (z, p.zcoef_hi)],
                ConstraintOp::Le,
                0.0,
            );
            // q >= l * z, except on the first kept level, where l = 0.
            let lo = (slot > 0).then(|| {
                m.add_constraint(
                    format!("lvl_lo_{i}_{k}"),
                    vec![(q, 1.0), (z, p.zcoef_lo)],
                    ConstraintOp::Ge,
                    0.0,
                );
                hi + 1
            });
            rows_i.push((hi, lo));
            levels_i.push((k, p.price, q, z));
        }
        debug_assert!(!levels_i.is_empty(), "policy levels tile [0, inf)");
        // Exactly one active level.
        m.add_constraint(
            format!("one_level_{i}"),
            levels_i.iter().map(|&(_, _, _, z)| (z, 1.0)).collect(),
            ConstraintOp::Eq,
            1.0,
        );
        // Power identity: sum_k q_ik - a * lam_i = b.
        let mut terms: Vec<(VarId, f64)> = levels_i.iter().map(|&(_, _, q, _)| (q, 1.0)).collect();
        terms.push((lam_i, -a));
        m.add_constraint(format!("power_{i}"), terms, ConstraintOp::Eq, b);
        // Site power cap: no row of its own. Each level's ceiling is at
        // most the cap and exactly one level is active, so the `lvl_hi`
        // rows already hold Σ_k q_ik (the site's power, a_i·lam_i + b_i)
        // to the cap.

        lam.push(lam_i);
        site_levels.push(levels_i);
        lvl_rows.push(rows_i);
    }

    let (name, op, rate) = rate_row;
    let rate_row = m.num_constraints();
    m.add_constraint(name, lam.iter().map(|&v| (v, 1.0)).collect(), op, rate);

    PiecewiseVars {
        lam,
        levels: site_levels,
        lvl_rows,
        rate_row,
        budget_row: None,
    }
}

/// Extracts an [`Allocation`] from a solved piecewise model.
pub(crate) fn extract_allocation(
    system: &DataCenterSystem,
    vars: &PiecewiseVars,
    sol: &billcap_milp::Solution,
) -> Allocation {
    let n = system.len();
    let mut lambda = Vec::with_capacity(n);
    let mut servers = Vec::with_capacity(n);
    let mut power_mw = Vec::with_capacity(n);
    let mut price = Vec::with_capacity(n);
    let mut level = Vec::with_capacity(n);
    let mut cost = Vec::with_capacity(n);
    let mut total_cost = 0.0;
    let mut total_lambda = 0.0;

    for i in 0..n {
        let lam = sol.value(vars.lam[i]).max(0.0) * RATE_SCALE;
        let p: f64 = vars.levels[i]
            .iter()
            .map(|&(_, _, q, _)| sol.value(q).max(0.0))
            .sum();
        let &(k, r, _, _) = vars.levels[i]
            .iter()
            .find(|&&(_, _, _, z)| sol.try_int_value(z) == Some(1))
            .expect("exactly one level is active"); // detlint-allow(L001): one_level row guarantees it
        let c = r * p;
        lambda.push(lam);
        servers.push(system.sites[i].servers_for_rate(lam));
        power_mw.push(p);
        price.push(r);
        level.push(k);
        cost.push(c);
        total_cost += c;
        total_lambda += lam;
    }

    Allocation {
        lambda,
        servers,
        power_mw,
        price,
        level,
        cost,
        total_cost,
        total_lambda,
        stats: sol.mip,
    }
}

/// Builds the Step-1 model: the piecewise core, the `demand` row
/// (`Σλ_i = lambda`, paper eq. 2a) and the billed-cost objective.
pub(crate) fn cost_min_model(
    system: &DataCenterSystem,
    lambda: f64,
    background_mw: &[f64],
) -> (Model, PiecewiseVars) {
    let mut m = Model::new("cost_min", Sense::Minimize);
    let demand = ("demand", ConstraintOp::Eq, lambda / RATE_SCALE);
    let vars = build_piecewise_core(&mut m, system, background_mw, demand);
    // Objective: sum of r_ik * q_ik over the reachable levels.
    let obj: Vec<(VarId, f64)> = vars
        .levels
        .iter()
        .flatten()
        .map(|&(_, r, q, _)| (q, r))
        .collect();
    m.set_objective(obj, 0.0);
    (m, vars)
}

/// The Step-1 optimizer: a one-shot front over the decision engine's
/// step path, as [`crate::BillCapper`] is over a whole decision. Each
/// call builds the step model on a fresh engine core, lints it, solves
/// it with [`Self::solver`] and certifies the solution (see
/// [`crate::audit`]).
#[derive(Debug, Clone, Default)]
pub struct CostMinimizer {
    /// The MILP solver.
    pub solver: MipSolver,
}

impl CostMinimizer {
    /// Minimizes the hour's electricity cost for total workload `lambda`
    /// (requests/hour) with per-site background demand `background_mw`.
    /// Inputs are checked as a decision checks them: a background without
    /// one entry per site or with a negative or non-finite entry, a
    /// workload over capacity, or a power cap that is not finite or sits
    /// below a site's base power is refused before any model is built.
    pub fn solve(
        &self,
        system: &DataCenterSystem,
        lambda: f64,
        background_mw: &[f64],
    ) -> Result<Allocation, CoreError> {
        EngineCore::new(self.solver.clone()).minimize(system, lambda, background_mw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DataCenterSystem;

    fn background() -> Vec<f64> {
        vec![330.0, 410.0, 280.0]
    }

    #[test]
    fn serves_exactly_the_demand() {
        let sys = DataCenterSystem::paper_system(1);
        let lambda = 4e8;
        let alloc = CostMinimizer::default()
            .solve(&sys, lambda, &background())
            .unwrap();
        assert!((alloc.total_lambda - lambda).abs() / lambda < 1e-6);
    }

    #[test]
    fn respects_power_caps() {
        let sys = DataCenterSystem::paper_system(1);
        let alloc = CostMinimizer::default()
            .solve(&sys, 9e8, &background())
            .unwrap();
        for (i, &p) in alloc.power_mw.iter().enumerate() {
            assert!(
                p <= sys.sites[i].power_cap_mw + 1e-6,
                "site {i}: {p} MW over cap"
            );
        }
    }

    #[test]
    fn selected_price_matches_policy_at_realized_load() {
        let sys = DataCenterSystem::paper_system(1);
        let d = background();
        let alloc = CostMinimizer::default().solve(&sys, 6e8, &d).unwrap();
        for (i, &di) in d.iter().enumerate() {
            let expected = sys.policy(i).price_at(alloc.power_mw[i] + di);
            assert!(
                (alloc.price[i] - expected).abs() < 1e-9,
                "site {i}: milp price {} vs policy {expected}",
                alloc.price[i]
            );
        }
    }

    #[test]
    fn power_identity_holds() {
        let sys = DataCenterSystem::paper_system(1);
        let alloc = CostMinimizer::default()
            .solve(&sys, 5e8, &background())
            .unwrap();
        for i in 0..3 {
            let expected = sys.sites[i].power_for_rate_mw(alloc.lambda[i]);
            assert!(
                (alloc.power_mw[i] - expected).abs() < 1e-6,
                "site {i}: {} vs {expected}",
                alloc.power_mw[i]
            );
        }
    }

    #[test]
    fn cost_is_sum_of_site_costs() {
        let sys = DataCenterSystem::paper_system(1);
        let alloc = CostMinimizer::default()
            .solve(&sys, 5e8, &background())
            .unwrap();
        let sum: f64 = alloc.cost.iter().sum();
        assert!((alloc.total_cost - sum).abs() < 1e-9);
        for i in 0..3 {
            assert!((alloc.cost[i] - alloc.price[i] * alloc.power_mw[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn over_capacity_demand_is_rejected() {
        let sys = DataCenterSystem::paper_system(1);
        let result = CostMinimizer::default().solve(&sys, 1e12, &background());
        assert!(matches!(
            result,
            Err(CoreError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn avoids_pushing_a_region_over_a_price_step() {
        // With one site near a breakpoint, the optimizer should prefer
        // spilling load elsewhere if that is cheaper overall than paying
        // the stepped-up price on the whole draw.
        let sys = DataCenterSystem::paper_system(1);
        // Site 0 background sits just below its 450-MW breakpoint.
        let d = vec![445.0, 410.0, 280.0];
        let alloc = CostMinimizer::default().solve(&sys, 6e8, &d).unwrap();
        // The chosen price at site 0 must still be consistent; and total
        // cost must beat (or match) the naive proportional split.
        let naive_share = 2e8;
        let naive_cost: f64 = (0..3)
            .map(|i| {
                let p = sys.sites[i].power_for_rate_mw(naive_share);
                sys.policy(i).price_at(p + d[i]) * p
            })
            .sum();
        assert!(
            alloc.total_cost <= naive_cost + 1e-6,
            "optimizer {} worse than naive {naive_cost}",
            alloc.total_cost
        );
    }

    #[test]
    fn flat_policy_zero_reduces_to_cheapest_rate_dispatch() {
        // Under Policy 0 prices don't move, so cost is linear and the
        // optimizer fills the cheapest-$/request sites first.
        let sys = DataCenterSystem::paper_system(0);
        let alloc = CostMinimizer::default()
            .solve(&sys, 3e8, &background())
            .unwrap();
        // $/req of site i = flat price * a_i; compute and verify the cheapest
        // site is saturated or carries everything.
        let mut unit: Vec<(usize, f64)> = (0..3)
            .map(|i| {
                (
                    i,
                    sys.policy(i).price_at(0.0) * sys.sites[i].mw_per_request(),
                )
            })
            .collect();
        unit.sort_by(|x, y| x.1.partial_cmp(&y.1).unwrap());
        let cheapest = unit[0].0;
        let second = unit[1].0;
        let max_cheapest = sys.sites[cheapest].max_rate();
        if 3e8 <= max_cheapest {
            assert!(
                (alloc.lambda[cheapest] - 3e8).abs() < 1e3,
                "cheapest site should take everything"
            );
        } else {
            assert!((alloc.lambda[cheapest] - max_cheapest).abs() < 1e3);
            assert!(alloc.lambda[second] > 0.0);
        }
    }

    #[test]
    fn zero_workload_costs_only_base_power() {
        let sys = DataCenterSystem::paper_system(1);
        let alloc = CostMinimizer::default()
            .solve(&sys, 0.0, &background())
            .unwrap();
        assert!(alloc.total_lambda.abs() < 1e-9);
        // Only the QoS headroom servers draw power: a few kW per site.
        assert!(alloc.total_cost < 50.0, "cost {}", alloc.total_cost);
    }
}
