//! Solver-independent certification of LP/MILP solutions.
//!
//! The branch-and-bound solver is hand-rolled, and every bill-capping
//! decision rests on it. This module re-derives, from the [`Model`] and a
//! returned [`Solution`] alone, everything the solver *claims*:
//!
//! * **Primal feasibility** — variable bounds and every constraint row,
//!   with the same magnitude-scaled tolerance the solver itself uses,
//!   plus `|coeff| * INT_TOL` per integer term (the branch-and-bound
//!   snaps near-integral values to exact integers without re-adjusting
//!   the continuous variables, displacing binding rows by exactly that
//!   much).
//! * **Integrality** — integer/binary variables sit within
//!   `crate::INT_TOL` of an integer.
//! * **Objective honesty** — the reported objective equals the objective
//!   re-evaluated at the returned point.
//! * **Bound consistency** — the dual bound in [`MipStats::best_bound`]
//!   lies on the correct side of the objective, and the reported
//!   [`MipStats::gap`] matches the gap implied by objective and bound.
//! * **Dual certificates** (LP solves) — sign conventions per constraint
//!   sense, complementary slackness, dual feasibility of the implied
//!   reduced costs, and weak/strong duality through the bounded-variable
//!   dual objective.
//!
//! LP verdicts that return no solution are proved the same way.
//! `certify_infeasible` checks a Farkas row: a combination of the rows
//! whose right-hand side lies outside the reach of its left-hand side
//! over the variable and slack boxes. `certify_unbounded` checks an
//! improving ray inside the model's recession cone and a feasible point
//! to start it from.
//!
//! Nothing here calls the solver: a corrupted or stale solution cannot
//! certify itself. The result is a structured [`CertifyReport`] listing
//! each violated invariant with its slack magnitude, not a bare bool.
//!
//! [`MipStats::best_bound`]: crate::MipStats::best_bound
//! [`MipStats::gap`]: crate::MipStats::gap

use crate::model::{Constraint, ConstraintOp, Model, Sense, VarType};
use crate::solution::{Solution, Status};
use crate::INT_TOL;
use std::fmt;

// The certificate's tolerances. They are deliberately looser than the
// solver's internal `1e-9` working tolerance: certification asks "is
// this answer trustworthy", not "did the final pivot converge to
// machine precision".

/// Primal feasibility tolerance, scaled by row/bound magnitude: a row
/// or bound may be missed by `PRIMAL_TOL·(1 + magnitude)`. It is ten
/// times the revised simplex's absolute primal tolerance (`1e-7`) on
/// the pre-scaled capper models.
pub const PRIMAL_TOL: f64 = 1e-6;
/// Dual feasibility / complementary-slackness tolerance.
const DUAL_TOL: f64 = 1e-6;
/// Slack allowed between the reported gap and the gap implied by
/// `objective` and `best_bound`.
const GAP_REPORT_TOL: f64 = 1e-6;
/// A Farkas-row coefficient no larger than this share of the terms
/// that sum to it is float cancellation, not a column it can move.
const CANCEL_TOL: f64 = 1e-9;

/// One violated invariant, with the magnitude of the violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// `values` has the wrong length for the model.
    Dimension {
        /// The model's variable count.
        expected: usize,
        /// The solution's value count.
        got: usize,
    },
    /// A variable value (or the objective) is NaN/infinite.
    NonFinite {
        /// What carried the bad value (variable name or "objective").
        what: String,
        /// The non-finite value itself.
        value: f64,
    },
    /// A variable sits outside its bounds by `slack`.
    Bound {
        /// Variable index.
        var: usize,
        /// Variable name.
        name: String,
        /// Offending value.
        value: f64,
        /// Lower bound.
        lb: f64,
        /// Upper bound.
        ub: f64,
        /// Distance outside the bound interval.
        slack: f64,
    },
    /// An integer/binary variable is fractional by `distance`.
    Integrality {
        /// Variable index.
        var: usize,
        /// Variable name.
        name: String,
        /// Offending (fractional) value.
        value: f64,
        /// Distance to the nearest integer.
        distance: f64,
    },
    /// A constraint row is violated by `slack` (beyond tolerance).
    Constraint {
        /// Constraint index.
        index: usize,
        /// Constraint name.
        name: String,
        /// Evaluated left-hand side at the solution.
        lhs: f64,
        /// Comparison operator.
        op: ConstraintOp,
        /// Right-hand-side constant.
        rhs: f64,
        /// Violation magnitude beyond tolerance.
        slack: f64,
    },
    /// The reported objective differs from the objective re-evaluated at
    /// the returned point.
    Objective {
        /// Objective claimed by the solution.
        reported: f64,
        /// Objective re-evaluated at the returned point.
        recomputed: f64,
        /// Absolute difference.
        error: f64,
    },
    /// The dual bound lies on the wrong side of the objective
    /// (a minimization bound above the objective, or vice versa).
    BoundSide {
        /// Objective of the solution.
        objective: f64,
        /// Reported dual bound.
        best_bound: f64,
        /// How far the bound sits on the wrong side.
        excess: f64,
    },
    /// The reported gap disagrees with `|objective - best_bound|`.
    GapMismatch {
        /// Gap claimed in [`crate::MipStats`].
        reported: f64,
        /// Gap implied by objective and best bound.
        implied: f64,
    },
    /// A solution claiming optimality carries a non-trivial gap.
    OptimalWithGap {
        /// The non-trivial gap reported.
        gap: f64,
    },
    /// The dual vector has the wrong length.
    DualCount {
        /// The model's constraint count.
        expected: usize,
        /// The solution's dual count.
        got: usize,
    },
    /// A dual has the wrong sign for its constraint sense.
    DualSign {
        /// Constraint index.
        index: usize,
        /// Constraint name.
        name: String,
        /// Offending dual value.
        dual: f64,
    },
    /// A nonzero dual on a slack (inactive) constraint.
    ComplementarySlackness {
        /// Constraint index.
        index: usize,
        /// Constraint name.
        name: String,
        /// Nonzero dual on the inactive row.
        dual: f64,
        /// The row's (nonzero) slack.
        slack: f64,
    },
    /// The reduced cost implied by the duals has the wrong sign for the
    /// variable's position against its bounds.
    DualFeasibility {
        /// Variable index.
        var: usize,
        /// Variable name.
        name: String,
        /// Offending reduced cost.
        reduced_cost: f64,
    },
    /// Weak/strong duality fails: the dual objective reconstructed from
    /// the duals does not match the primal objective.
    Duality {
        /// Primal objective.
        primal: f64,
        /// Dual objective reconstructed from the duals.
        dual: f64,
        /// Absolute difference beyond tolerance.
        error: f64,
    },
    /// A Farkas row proves nothing: the right-hand side it combines
    /// lies within (or too close to) the range its left-hand side
    /// reaches over the variable and slack boxes. Values are for the
    /// row scaled to a largest entry of 1.
    Farkas {
        /// `ρ·b`.
        rhs: f64,
        /// Least `ρ·[A I]·(x, s)` over the boxes.
        lo: f64,
        /// Greatest `ρ·[A I]·(x, s)` over the boxes.
        hi: f64,
    },
    /// A ray leaves the recession cone of a variable's bounds or of a
    /// constraint row (values for the ray scaled to a largest entry
    /// of 1).
    RayCone {
        /// The variable or constraint, by kind and name.
        what: String,
        /// How far outside the cone.
        slack: f64,
    },
    /// A ray does not improve the objective.
    RayObjective {
        /// Objective change per unit step in minimization space, for
        /// the ray scaled to a largest entry of 1 (an improving ray has
        /// a negative slope).
        slope: f64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Dimension { expected, got } => {
                write!(f, "solution has {got} values for {expected} variables")
            }
            Violation::NonFinite { what, value } => write!(f, "{what} is non-finite ({value})"),
            Violation::Bound {
                name,
                value,
                lb,
                ub,
                slack,
                ..
            } => write!(
                f,
                "variable '{name}' = {value} outside [{lb}, {ub}] by {slack:.3e}"
            ),
            Violation::Integrality {
                name,
                value,
                distance,
                ..
            } => write!(
                f,
                "integer variable '{name}' = {value} is fractional by {distance:.3e}"
            ),
            Violation::Constraint {
                name,
                lhs,
                op,
                rhs,
                slack,
                ..
            } => {
                let sym = match op {
                    ConstraintOp::Le => "<=",
                    ConstraintOp::Ge => ">=",
                    ConstraintOp::Eq => "==",
                };
                write!(
                    f,
                    "constraint '{name}': {lhs} {sym} {rhs} violated by {slack:.3e}"
                )
            }
            Violation::Objective {
                reported,
                recomputed,
                error,
            } => write!(
                f,
                "objective reported {reported} but re-evaluates to {recomputed} (error {error:.3e})"
            ),
            Violation::BoundSide {
                objective,
                best_bound,
                excess,
            } => write!(
                f,
                "dual bound {best_bound} on the wrong side of objective {objective} by {excess:.3e}"
            ),
            Violation::GapMismatch { reported, implied } => {
                write!(f, "reported gap {reported:.3e} vs implied {implied:.3e}")
            }
            Violation::OptimalWithGap { gap } => {
                write!(f, "solution claims optimality with gap {gap:.3e}")
            }
            Violation::DualCount { expected, got } => {
                write!(f, "{got} duals for {expected} constraints")
            }
            Violation::DualSign { name, dual, .. } => {
                write!(f, "dual of constraint '{name}' has wrong sign ({dual})")
            }
            Violation::ComplementarySlackness {
                name, dual, slack, ..
            } => write!(
                f,
                "constraint '{name}' is slack by {slack:.3e} yet carries dual {dual}"
            ),
            Violation::DualFeasibility {
                name, reduced_cost, ..
            } => write!(
                f,
                "variable '{name}' has dual-infeasible reduced cost {reduced_cost:.3e}"
            ),
            Violation::Duality {
                primal,
                dual,
                error,
            } => write!(
                f,
                "duality gap: primal {primal} vs dual objective {dual} (error {error:.3e})"
            ),
            Violation::Farkas { rhs, lo, hi } => write!(
                f,
                "Farkas row proves nothing: its rhs {rhs} is within reach [{lo}, {hi}]"
            ),
            Violation::RayCone { what, slack } => {
                write!(f, "ray leaves the cone of {what} by {slack:.3e}")
            }
            Violation::RayObjective { slope } => {
                write!(f, "ray changes the objective by {slope:.3e}: not improving")
            }
        }
    }
}

/// The outcome of certifying a solution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CertifyReport {
    /// Every violated invariant, with slack magnitudes.
    pub violations: Vec<Violation>,
    /// Number of individual invariant checks performed.
    pub checks: usize,
}

impl CertifyReport {
    /// True when every checked invariant holds.
    pub fn certified(&self) -> bool {
        self.violations.is_empty()
    }

    fn fail(&mut self, v: Violation) {
        self.violations.push(v);
    }

    fn check(&mut self, ok: bool, v: impl FnOnce() -> Violation) {
        self.checks += 1;
        if !ok {
            self.fail(v());
        }
    }
}

impl fmt::Display for CertifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.certified() {
            return write!(f, "certified ({} checks)", self.checks);
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

/// Total `|coefficient|` mass of a row's integer/binary terms: the row's
/// worst-case displacement per unit of integrality tolerance when the
/// branch-and-bound snaps near-integral values to exact integers.
fn int_coeff_mass(model: &Model, c: &Constraint) -> f64 {
    c.terms
        .iter()
        .filter(|&&(v, _)| {
            matches!(
                model.variables()[v.index()].var_type,
                VarType::Integer | VarType::Binary
            )
        })
        .map(|&(_, coeff)| coeff.abs())
        .sum()
}

/// Whether `values` has one entry per variable of `model`; records the
/// check.
fn fits(model: &Model, values: &[f64], report: &mut CertifyReport) -> bool {
    let n = model.num_vars();
    report.check(values.len() == n, || Violation::Dimension {
        expected: n,
        got: values.len(),
    });
    values.len() == n
}

/// Evaluates a constraint row and its magnitude scale at a point.
fn row_eval(c: &Constraint, values: &[f64]) -> (f64, f64) {
    let mut lhs = 0.0;
    let mut max_term = 0.0f64;
    for &(v, coeff) in &c.terms {
        let term = coeff * values[v.index()];
        lhs += term;
        max_term = max_term.max(term.abs());
    }
    (lhs, 1.0 + c.rhs.abs().max(max_term))
}

/// Certifies `sol` against `model`: primal feasibility, integrality,
/// objective honesty, MIP bound consistency, and (when duals are present)
/// the full dual certificate. See the module docs for the invariant list.
pub fn certify_solution(model: &Model, sol: &Solution) -> CertifyReport {
    let mut report = CertifyReport::default();
    if !fits(model, &sol.values, &mut report) {
        return report; // nothing else is meaningful
    }
    report.check(sol.objective.is_finite(), || Violation::NonFinite {
        what: "objective".to_string(),
        value: sol.objective,
    });
    check_primal(model, &sol.values, &mut report);

    // --- objective honesty ---
    let recomputed = model.eval_objective(&sol.values);
    let obj_err = (sol.objective - recomputed).abs();
    report.check(obj_err <= PRIMAL_TOL * (1.0 + recomputed.abs()), || {
        Violation::Objective {
            reported: sol.objective,
            recomputed,
            error: obj_err,
        }
    });

    // --- MIP bound consistency ---
    if let Some(stats) = sol.mip {
        let scale = 1.0 + sol.objective.abs();
        let excess = match model.sense {
            Sense::Minimize => stats.best_bound - sol.objective,
            Sense::Maximize => sol.objective - stats.best_bound,
        };
        // The dual bound may pass the objective only by float noise
        // (plus the solver's own relative gap tolerance).
        report.check(excess <= PRIMAL_TOL * scale, || Violation::BoundSide {
            objective: sol.objective,
            best_bound: stats.best_bound,
            excess,
        });
        let implied = stats.implied_gap(sol.objective);
        report.check(
            (stats.gap - implied).abs() <= GAP_REPORT_TOL || excess.abs() <= PRIMAL_TOL * scale,
            || Violation::GapMismatch {
                reported: stats.gap,
                implied,
            },
        );
        if sol.status == Status::Optimal {
            report.check(stats.gap <= GAP_REPORT_TOL, || Violation::OptimalWithGap {
                gap: stats.gap,
            });
        }
    }

    // --- dual certificate (LP solves) ---
    if let Some(duals) = &sol.duals {
        audit_duals(model, sol, duals, &mut report);
    }

    report
}

/// Primal feasibility of `values` (one per variable): finite values,
/// bounds, integrality and every constraint row.
fn check_primal(model: &Model, values: &[f64], report: &mut CertifyReport) {
    for (i, var) in model.variables().iter().enumerate() {
        let x = values[i];
        report.check(x.is_finite(), || Violation::NonFinite {
            what: format!("variable '{}'", var.name),
            value: x,
        });
        if !x.is_finite() {
            continue;
        }
        let bound_tol = PRIMAL_TOL
            * (1.0
                + finite_or(var.lb, 0.0)
                    .abs()
                    .max(finite_or(var.ub, 0.0).abs()));
        let slack = (var.lb - x).max(x - var.ub).max(0.0);
        report.check(slack <= bound_tol, || Violation::Bound {
            var: i,
            name: var.name.clone(),
            value: x,
            lb: var.lb,
            ub: var.ub,
            slack,
        });
        if matches!(var.var_type, VarType::Integer | VarType::Binary) {
            let distance = (x - x.round()).abs();
            report.check(distance <= INT_TOL, || Violation::Integrality {
                var: i,
                name: var.name.clone(),
                value: x,
                distance,
            });
        }
    }

    // --- primal feasibility: constraint rows ---
    for (i, c) in model.constraints().iter().enumerate() {
        let (lhs, scale) = row_eval(c, values);
        // Integer variables are only trusted to int_tol (the
        // branch-and-bound snaps near-integral LP values to round()
        // without re-adjusting the continuous variables), so every row
        // inherits up to |a_j| * int_tol of displacement per integer
        // term on top of the magnitude-scaled float tolerance.
        let t = PRIMAL_TOL * scale + INT_TOL * int_coeff_mass(model, c);
        let slack = match c.op {
            ConstraintOp::Le => lhs - c.rhs,
            ConstraintOp::Ge => c.rhs - lhs,
            ConstraintOp::Eq => (lhs - c.rhs).abs(),
        };
        report.check(slack <= t, || Violation::Constraint {
            index: i,
            name: c.name.clone(),
            lhs,
            op: c.op,
            rhs: c.rhs,
            slack,
        });
    }
}

fn finite_or(x: f64, fallback: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        fallback
    }
}

/// Audits an LP dual vector: sign conventions, complementary slackness,
/// dual feasibility of reduced costs, and weak/strong duality.
///
/// Everything is done in *minimization space* (`key = sign * objective`):
/// there a `<=` row's dual is non-positive, a `>=` row's non-negative,
/// and the bounded-variable dual objective never exceeds the primal.
fn audit_duals(model: &Model, sol: &Solution, duals: &[f64], report: &mut CertifyReport) {
    let m = model.num_constraints();
    report.check(duals.len() == m, || Violation::DualCount {
        expected: m,
        got: duals.len(),
    });
    if duals.len() != m {
        return;
    }
    let sign = model.sense.sign();

    // Sign conventions and complementary slackness, row by row.
    for (i, (c, &d)) in model.constraints().iter().zip(duals).enumerate() {
        let y = sign * d; // dual in minimization space
        let (lhs, scale) = row_eval(c, &sol.values);
        let dual_tol = DUAL_TOL * (1.0 + y.abs());
        let wrong_sign = match c.op {
            ConstraintOp::Le => y > dual_tol,
            ConstraintOp::Ge => y < -dual_tol,
            ConstraintOp::Eq => false,
        };
        report.check(!wrong_sign, || Violation::DualSign {
            index: i,
            name: c.name.clone(),
            dual: d,
        });
        if !matches!(c.op, ConstraintOp::Eq) {
            let row_slack = (lhs - c.rhs).abs();
            let active = row_slack <= PRIMAL_TOL * scale;
            report.check(y.abs() <= DUAL_TOL || active, || {
                Violation::ComplementarySlackness {
                    index: i,
                    name: c.name.clone(),
                    dual: d,
                    slack: row_slack,
                }
            });
        }
    }

    // Reduced costs in minimization space:
    // rc_j = sign*c_j - sum_i y_i A_ij.
    let mut rc: Vec<f64> = vec![0.0; model.num_vars()];
    let mut rc_scale: Vec<f64> = vec![1.0; model.num_vars()];
    for &(v, coeff) in model.objective() {
        rc[v.index()] += sign * coeff;
        rc_scale[v.index()] += coeff.abs();
    }
    for (c, &d) in model.constraints().iter().zip(duals) {
        let y = sign * d;
        for &(v, coeff) in &c.terms {
            rc[v.index()] -= y * coeff;
            rc_scale[v.index()] += (y * coeff).abs();
        }
    }

    // Dual feasibility: the reduced cost must "push" the variable against
    // the bound it sits at. Fixed variables (lb == ub) are exempt.
    let mut dual_obj = sign * model.objective_constant();
    for (c, &d) in model.constraints().iter().zip(duals) {
        dual_obj += sign * d * c.rhs;
    }
    let mut dual_obj_ok = true;
    for (j, var) in model.variables().iter().enumerate() {
        let x = sol.values[j];
        let bound_tol = PRIMAL_TOL
            * (1.0
                + finite_or(var.lb, 0.0)
                    .abs()
                    .max(finite_or(var.ub, 0.0).abs()))
            + PRIMAL_TOL;
        let at_lb = var.lb.is_finite() && x - var.lb <= bound_tol;
        let at_ub = var.ub.is_finite() && var.ub - x <= bound_tol;
        let t = DUAL_TOL * rc_scale[j];
        let feasible = match (at_lb, at_ub) {
            (true, true) => true, // (near-)fixed variable: any reduced cost
            (true, false) => rc[j] >= -t,
            (false, true) => rc[j] <= t,
            (false, false) => rc[j].abs() <= t,
        };
        report.check(feasible, || Violation::DualFeasibility {
            var: j,
            name: var.name.clone(),
            reduced_cost: rc[j],
        });
        // Bounded-variable dual objective: positive reduced costs bind at
        // the lower bound, negative at the upper.
        if rc[j] > t {
            if var.lb.is_finite() {
                dual_obj += rc[j] * var.lb;
            } else {
                dual_obj_ok = false;
            }
        } else if rc[j] < -t {
            if var.ub.is_finite() {
                dual_obj += rc[j] * var.ub;
            } else {
                dual_obj_ok = false;
            }
        } else {
            // Near-zero reduced cost: absorb the float dust where the
            // variable actually sits so noise cannot accumulate.
            dual_obj += rc[j] * x;
        }
    }

    // Weak + strong duality (minimization space): the dual objective is a
    // lower bound on, and at optimality equals, the primal objective.
    if dual_obj_ok {
        let primal = sign * sol.objective;
        let scale = 1.0 + primal.abs().max(dual_obj.abs());
        let error = (primal - dual_obj).abs();
        report.check(error <= DUAL_TOL * scale * 10.0, || Violation::Duality {
            primal: sol.objective,
            dual: sign * dual_obj,
            error,
        });
    }
}

/// The box of row `c`'s slack `s = b − a·x`: `≤` rows keep it
/// non-negative, `≥` rows non-positive, `=` rows at 0.
fn slack_box(c: &Constraint) -> (f64, f64) {
    match c.op {
        ConstraintOp::Le => (0.0, f64::INFINITY),
        ConstraintOp::Ge => (f64::NEG_INFINITY, 0.0),
        ConstraintOp::Eq => (0.0, 0.0),
    }
}

/// The reach of `coef · z` over `z ∈ [l, u]`, added to `range`; `|coef|
/// ≤ noise` reaches nothing. Returns the larger magnitude of its finite
/// ends, for the tolerance.
fn reach(range: &mut (f64, f64), coef: f64, (l, u): (f64, f64), noise: f64) -> f64 {
    if coef.abs() <= noise {
        return 0.0;
    }
    let (a, b) = (coef * l, coef * u);
    range.0 += a.min(b);
    range.1 += a.max(b);
    finite_or(a, 0.0).abs().max(finite_or(b, 0.0).abs())
}

/// Certifies that `model` has no feasible point, from a Farkas row
/// `rho` (one multiplier per constraint, such as
/// [`crate::RevisedEngine::farkas_row`]) and nothing else.
///
/// Every feasible `(x, s)` satisfies `ρ·A·x + ρ·s = ρ·b`, where `s` is
/// the slack vector `b − A·x`. So if `ρ·b` lies outside the range that
/// `ρ·[A I]·(x, s)` reaches over the variable bounds and the slack boxes,
/// no point is feasible. The row is scaled to a largest entry of 1, and
/// `ρ·b` must clear the range by more than the primal tolerance scaled by
/// the largest term, the same margin [`certify_solution`] grants a
/// point. A column whose coefficient cancels to within 1e-9 of
/// its terms reaches nothing.
pub(crate) fn certify_infeasible(model: &Model, rho: &[f64]) -> CertifyReport {
    let mut report = CertifyReport::default();
    let m = model.num_constraints();
    report.check(rho.len() == m, || Violation::DualCount {
        expected: m,
        got: rho.len(),
    });
    let largest = rho.iter().fold(0.0f64, |a, r| a.max(r.abs()));
    report.check(largest.is_finite(), || Violation::NonFinite {
        what: "Farkas row".to_string(),
        value: largest,
    });
    if rho.len() != m || !largest.is_finite() {
        return report;
    }
    let unit = if largest > 0.0 { 1.0 / largest } else { 1.0 };

    let n = model.num_vars();
    let mut coef = vec![0.0; n];
    let mut mass = vec![0.0; n];
    let mut rhs = 0.0;
    let mut range = (0.0, 0.0);
    let mut magnitude = 0.0f64;
    for (c, &r) in model.constraints().iter().zip(rho) {
        let r = r * unit;
        for &(v, a) in &c.terms {
            coef[v.index()] += r * a;
            mass[v.index()] += (r * a).abs();
        }
        rhs += r * c.rhs;
        magnitude = magnitude.max((r * c.rhs).abs());
        magnitude = magnitude.max(reach(&mut range, r, slack_box(c), CANCEL_TOL));
    }
    for (j, var) in model.variables().iter().enumerate() {
        let noise = CANCEL_TOL * mass[j];
        magnitude = magnitude.max(reach(&mut range, coef[j], (var.lb, var.ub), noise));
    }
    let clearance = (rhs - range.1).max(range.0 - rhs);
    report.check(clearance > PRIMAL_TOL * (1.0 + magnitude), || {
        Violation::Farkas {
            rhs,
            lo: range.0,
            hi: range.1,
        }
    });
    report
}

/// Certifies that `model`'s objective improves without bound, from an
/// improving ray and a feasible point, with no solver.
///
/// `point` must pass the primal checks of [`certify_solution`]. The ray,
/// scaled to a largest entry of 1, must stay in the recession cone of
/// every variable's bounds and every row (within the primal tolerance),
/// and must lower the objective in minimization space by more than the
/// dual tolerance per unit step. Then `point + t·ray` is feasible for
/// every `t ≥ 0` and its objective passes any bound.
pub(crate) fn certify_unbounded(model: &Model, ray: &[f64], point: &[f64]) -> CertifyReport {
    let mut report = CertifyReport::default();
    if !fits(model, point, &mut report) || !fits(model, ray, &mut report) {
        return report;
    }
    check_primal(model, point, &mut report);

    let largest = ray.iter().fold(0.0f64, |a, d| a.max(d.abs()));
    report.check(largest.is_finite(), || Violation::NonFinite {
        what: "ray".to_string(),
        value: largest,
    });
    if !largest.is_finite() {
        return report;
    }
    let unit = if largest > 0.0 { 1.0 / largest } else { 1.0 };
    let d = |j: usize| ray[j] * unit;

    for (j, var) in model.variables().iter().enumerate() {
        let lo = if var.lb.is_finite() { -d(j) } else { 0.0 };
        let hi = if var.ub.is_finite() { d(j) } else { 0.0 };
        let slack = lo.max(hi);
        report.check(slack <= PRIMAL_TOL, || Violation::RayCone {
            what: format!("variable '{}'", var.name),
            slack,
        });
    }
    for c in model.constraints() {
        let (mut activity, mut scale) = (0.0, 1.0f64);
        for &(v, a) in &c.terms {
            activity += a * d(v.index());
            scale = scale.max((a * d(v.index())).abs());
        }
        let slack = match c.op {
            ConstraintOp::Le => activity,
            ConstraintOp::Ge => -activity,
            ConstraintOp::Eq => activity.abs(),
        };
        report.check(slack <= PRIMAL_TOL * scale, || Violation::RayCone {
            what: format!("constraint '{}'", c.name),
            slack,
        });
    }

    let sign = model.sense.sign();
    let (mut slope, mut scale) = (0.0, 1.0f64);
    for &(v, c) in model.objective() {
        slope += sign * c * d(v.index());
        scale = scale.max((c * d(v.index())).abs());
    }
    report.check(slope < -DUAL_TOL * scale, || Violation::RayObjective {
        slope,
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::MipSolver;
    use crate::model::{ConstraintOp, Model, Sense};
    use crate::revised::{RevisedEngine, RevisedError, RevisedOptions, UnboundedRay};
    use crate::solution::{Solution, Status};

    fn knapsack() -> Model {
        let mut m = Model::new("knap", Sense::Maximize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constraint(
            "w",
            vec![(a, 3.0), (b, 4.0), (c, 2.0)],
            ConstraintOp::Le,
            6.0,
        );
        m.set_objective(vec![(a, 10.0), (b, 13.0), (c, 7.0)], 0.0);
        m
    }

    fn textbook_lp() -> Model {
        // max 3x + 5y; x <= 4, 2y <= 12, 3x + 2y <= 18.
        let mut m = Model::new("lp", Sense::Maximize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        let y = m.add_cont("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", vec![(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint("c2", vec![(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_constraint("c3", vec![(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        m.set_objective(vec![(x, 3.0), (y, 5.0)], 0.0);
        m
    }

    #[test]
    fn genuine_mip_solution_certifies() {
        let m = knapsack();
        let sol = MipSolver::default().solve(&m).unwrap();
        let report = certify_solution(&m, &sol);
        assert!(report.certified(), "{report}");
        assert!(report.checks > 5);
    }

    /// The branch-and-bound snaps near-integral LP values to `round()`
    /// without re-adjusting continuous variables, so a binding row with a
    /// big integer coefficient can end up displaced by up to
    /// `|coeff| * INT_TOL`. Certification must tolerate exactly that
    /// (observed in the wild: an indicator row `q - 65 z <= 0` binding at
    /// `z = 4.9e-8`, snapped to 0, leaving `q = 3.2e-6`), while anything
    /// beyond the snap allowance still fails.
    #[test]
    fn integer_snap_displacement_is_tolerated_but_no_more() {
        let mut m = Model::new("snap", Sense::Maximize);
        let q = m.add_cont("q", 0.0, 100.0);
        let z = m.add_binary("z");
        m.add_constraint("ind", vec![(q, 1.0), (z, -65.0)], ConstraintOp::Le, 0.0);
        m.set_objective(vec![(q, 1.0)], 0.0);

        // z sat at 4.9e-8 pre-snap; q kept the binding-row value.
        let mut snapped = MipSolver::default().solve(&m).unwrap();
        snapped.mip = None; // no stats to cross-check against the edit
        snapped.values = vec![65.0 * 4.9e-8, 0.0];
        snapped.objective = 65.0 * 4.9e-8;
        let report = certify_solution(&m, &snapped);
        assert!(report.certified(), "{report}");

        // Ten times the whole-row snap allowance is a real violation.
        let mut beyond = snapped.clone();
        beyond.values = vec![65.0 * INT_TOL * 10.0, 0.0];
        beyond.objective = 65.0 * INT_TOL * 10.0;
        let report = certify_solution(&m, &beyond);
        assert!(!report.certified(), "must reject {report}");

        // A row with no integer terms gets no allowance at all.
        let mut lp = Model::new("cont", Sense::Maximize);
        let x = lp.add_cont("x", 0.0, 100.0);
        lp.add_constraint("ub", vec![(x, 1.0)], ConstraintOp::Le, 0.0);
        lp.set_objective(vec![(x, 1.0)], 0.0);
        let mut drift = MipSolver::default().solve(&lp).unwrap();
        drift.duals = None; // the primal row check is the subject here
        drift.values = vec![3.2e-6];
        drift.objective = 3.2e-6;
        assert!(!certify_solution(&lp, &drift).certified());
    }

    #[test]
    fn genuine_lp_solution_with_duals_certifies() {
        let m = textbook_lp();
        let sol = MipSolver::default().solve(&m).unwrap();
        assert!(sol.duals.is_some());
        let report = certify_solution(&m, &sol);
        assert!(report.certified(), "{report}");
    }

    #[test]
    fn revised_lp_duals_certify() {
        // A box-bounded version of the textbook LP so the revised engine's
        // dual cold start exists; the duals must survive the full audit
        // (signs, complementary slackness, strong duality).
        let mut m = Model::new("lp_boxed", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 100.0);
        let y = m.add_cont("y", 0.0, 100.0);
        m.add_constraint("c1", vec![(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint("c2", vec![(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_constraint("c3", vec![(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        m.set_objective(vec![(x, 3.0), (y, 5.0)], 0.0);
        let mut engine = RevisedEngine::new(&m, RevisedOptions::default());
        assert!(engine.cold_startable());
        let r = engine.solve(None).expect("boxed textbook LP solves");
        let sol = Solution {
            status: Status::Optimal,
            objective: m.eval_objective(&r.values),
            values: r.values,
            iterations: r.stats.iterations,
            degenerate: r.stats.degenerate,
            mip: None,
            duals: Some(r.duals),
        };
        let report = certify_solution(&m, &sol);
        assert!(
            report.certified(),
            "revised duals failed the audit: {report}"
        );
    }

    #[test]
    fn revised_mip_path_duals_certify() {
        // End-to-end: a continuous model through MipSolver's pure-LP path
        // rides the revised engine and must return duals that
        // certify.
        let mut m = Model::new("pure_lp", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("cover", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 4.0);
        m.set_objective(vec![(x, 2.0), (y, 3.0)], 0.0);
        let sol = MipSolver::default().solve(&m).unwrap();
        assert!(sol.duals.is_some(), "pure-LP path must surface duals");
        let report = certify_solution(&m, &sol);
        assert!(report.certified(), "{report}");
    }

    #[test]
    fn minimize_lp_duals_certify() {
        let mut m = Model::new("min", Sense::Minimize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        let y = m.add_cont("y", 0.0, f64::INFINITY);
        m.add_constraint("cover", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 4.0);
        m.add_constraint("tie", vec![(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        m.set_objective(vec![(x, 2.0), (y, 3.0)], 5.0);
        let sol = MipSolver::default().solve(&m).unwrap();
        let report = certify_solution(&m, &sol);
        assert!(report.certified(), "{report}");
    }

    #[test]
    fn corrupted_value_breaks_constraint() {
        let m = knapsack();
        let mut sol = MipSolver::default().solve(&m).unwrap();
        // Claim every item is taken: violates the knapsack row.
        sol.values = vec![1.0, 1.0, 1.0];
        let report = certify_solution(&m, &sol);
        assert!(!report.certified());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Constraint { .. })));
    }

    #[test]
    fn fractional_binary_is_rejected() {
        let m = knapsack();
        let mut sol = MipSolver::default().solve(&m).unwrap();
        sol.values[0] = 0.5;
        let report = certify_solution(&m, &sol);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Integrality { .. })));
    }

    #[test]
    fn objective_lie_is_rejected() {
        let m = knapsack();
        let mut sol = MipSolver::default().solve(&m).unwrap();
        sol.objective += 3.0;
        let report = certify_solution(&m, &sol);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Objective { .. })));
    }

    #[test]
    fn wrong_side_bound_is_rejected() {
        let m = knapsack();
        let mut sol = MipSolver::default().solve(&m).unwrap();
        // A maximization dual bound below the incumbent is a lie.
        let stats = sol.mip.as_mut().unwrap();
        stats.best_bound = sol.objective - 5.0;
        let report = certify_solution(&m, &sol);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::BoundSide { .. })));
    }

    #[test]
    fn gap_lie_is_rejected() {
        let m = knapsack();
        let mut sol = MipSolver::default().solve(&m).unwrap();
        let stats = sol.mip.as_mut().unwrap();
        stats.best_bound = sol.objective + 4.0; // bound claims slack remains
        stats.gap = 0.0; // ... while the gap claims none
        let report = certify_solution(&m, &sol);
        assert!(!report.certified());
    }

    #[test]
    fn stale_duals_are_rejected() {
        // Duals taken from a *different* rhs violate complementary
        // slackness / duality at the new optimum.
        let m = textbook_lp();
        let sol = MipSolver::default().solve(&m).unwrap();

        let mut loosened = Model::new("lp2", Sense::Maximize);
        let x = loosened.add_cont("x", 0.0, f64::INFINITY);
        let y = loosened.add_cont("y", 0.0, f64::INFINITY);
        loosened.add_constraint("c1", vec![(x, 1.0)], ConstraintOp::Le, 4.0);
        loosened.add_constraint("c2", vec![(y, 2.0)], ConstraintOp::Le, 12.0);
        loosened.add_constraint("c3", vec![(x, 3.0), (y, 2.0)], ConstraintOp::Le, 30.0);
        loosened.set_objective(vec![(x, 3.0), (y, 5.0)], 0.0);
        let mut fresh = MipSolver::default().solve(&loosened).unwrap();
        fresh.duals = sol.duals.clone(); // stale certificate
        let report = certify_solution(&loosened, &fresh);
        assert!(!report.certified(), "stale duals must not certify");
    }

    #[test]
    fn wrong_dual_sign_is_rejected() {
        let m = textbook_lp();
        let mut sol = MipSolver::default().solve(&m).unwrap();
        let duals = sol.duals.as_mut().unwrap();
        duals[1] = -duals[1].max(1.0); // a maximization <= row dual must be >= 0
        let report = certify_solution(&m, &sol);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DualSign { .. })));
    }

    /// `x + y <= 2` and `x >= floor` over `x, y` in `[0, 10]`: infeasible
    /// for a floor above 2, and then only both rows together prove it.
    fn floored_lp(floor: f64) -> Model {
        let mut m = Model::new("floored", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("cap", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 2.0);
        m.add_constraint("floor", vec![(x, 1.0)], ConstraintOp::Ge, floor);
        m.set_objective(vec![(x, 1.0), (y, 1.0)], 0.0);
        m
    }

    /// The engine's Farkas row of `m`, which must end infeasible.
    fn farkas_row(m: &Model) -> Vec<f64> {
        let mut engine = RevisedEngine::new(m, RevisedOptions::default());
        match engine.solve(None) {
            Err(RevisedError::Infeasible { .. }) => {}
            other => panic!("expected an infeasible verdict, got {other:?}"),
        }
        engine.farkas_row().expect("an infeasible verdict").to_vec()
    }

    #[test]
    fn farkas_row_certifies_and_tampered_rows_do_not() {
        let m = floored_lp(3.0);
        let rho = farkas_row(&m);
        let report = certify_infeasible(&m, &rho);
        assert!(report.certified(), "{report}");

        // The proof is the row up to scale, of either sign.
        let flipped: Vec<f64> = rho.iter().map(|r| -3.0 * r).collect();
        assert!(certify_infeasible(&m, &flipped).certified());
        // Zeroing, negating or doubling one entry leaves the right-hand
        // side within reach.
        let mut tampered = vec![vec![0.0; rho.len()]];
        for i in 0..rho.len() {
            for k in [0.0, -1.0, 2.0] {
                let mut one = rho.clone();
                one[i] *= k;
                tampered.push(one);
            }
        }
        for bad in tampered {
            let report = certify_infeasible(&m, &bad);
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::Farkas { .. })),
                "{bad:?} must not certify: {report}"
            );
        }
        assert!(!certify_infeasible(&m, &rho[1..]).certified());
        let mut nan = rho.clone();
        nan[0] = f64::NAN;
        assert!(!certify_infeasible(&m, &nan).certified());
    }

    #[test]
    fn a_feasible_model_has_no_farkas_row() {
        // With the floor at 1, x = 1 is feasible: neither the infeasible
        // twin's proof nor any row in a sweep certifies.
        let m = floored_lp(1.0);
        let rho = farkas_row(&floored_lp(3.0));
        assert!(!certify_infeasible(&m, &rho).certified());
        for a in [-2.0, -1.0, 0.0, 1.0, 2.0] {
            for b in [-2.0, -1.0, 0.0, 1.0, 2.0] {
                assert!(!certify_infeasible(&m, &[a, b]).certified());
            }
        }
    }

    /// Unbounded: max `x + y` s.t. `x − y <= 1`, `x, y >= 0`.
    fn unbounded_lp() -> Model {
        let mut m = Model::new("unbounded", Sense::Maximize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        let y = m.add_cont("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", vec![(x, 1.0), (y, -1.0)], ConstraintOp::Le, 1.0);
        m.set_objective(vec![(x, 1.0), (y, 1.0)], 0.0);
        m
    }

    #[test]
    fn unbounded_ray_and_point_certify_and_tampered_ones_do_not() {
        let m = unbounded_lp();
        let mut engine = RevisedEngine::new(&m, RevisedOptions::default());
        let Err(RevisedError::Unbounded { ray, stats }) = engine.solve(None) else {
            panic!("expected an unbounded verdict");
        };
        let UnboundedRay {
            direction: ray,
            point,
        } = *ray;
        assert_eq!(stats.phase1_starts, 1);
        assert!(engine.farkas_row().is_none());
        let report = certify_unbounded(&m, &ray, &point);
        assert!(report.certified(), "ray {ray:?} point {point:?}: {report}");

        let has = |report: &CertifyReport, pick: fn(&Violation) -> bool| {
            report.violations.iter().any(pick)
        };
        // The reversed ray worsens the objective and leaves y's cone.
        let back: Vec<f64> = ray.iter().map(|d| -d).collect();
        let report = certify_unbounded(&m, &back, &point);
        assert!(has(&report, |v| matches!(
            v,
            Violation::RayObjective { .. }
        )));
        assert!(has(&report, |v| matches!(v, Violation::RayCone { .. })));
        // Along x alone the ray leaves the row's cone.
        let report = certify_unbounded(&m, &[1.0, 0.0], &point);
        assert!(has(&report, |v| matches!(v, Violation::RayCone { .. })));
        // A zero ray improves nothing.
        let report = certify_unbounded(&m, &[0.0, 0.0], &point);
        assert!(has(&report, |v| matches!(
            v,
            Violation::RayObjective { .. }
        )));
        // An infeasible point fails the primal check.
        let report = certify_unbounded(&m, &ray, &[5.0, 0.0]);
        assert!(has(&report, |v| matches!(v, Violation::Constraint { .. })));
        let report = certify_unbounded(&m, &ray, &[-1.0, 0.0]);
        assert!(has(&report, |v| matches!(v, Violation::Bound { .. })));
        assert!(!certify_unbounded(&m, &ray, &point[1..]).certified());
    }

    #[test]
    fn dimension_mismatch_short_circuits() {
        let m = knapsack();
        let mut sol = MipSolver::default().solve(&m).unwrap();
        sol.values.pop();
        let report = certify_solution(&m, &sol);
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(report.violations[0], Violation::Dimension { .. }));
    }

    #[test]
    fn report_display_mentions_failures() {
        let m = knapsack();
        let mut sol = MipSolver::default().solve(&m).unwrap();
        sol.values[1] = 7.0;
        let report = certify_solution(&m, &sol);
        let text = report.to_string();
        assert!(text.contains("checks failed"), "{text}");
        let ok = certify_solution(&m, &MipSolver::default().solve(&m).unwrap());
        assert!(ok.to_string().starts_with("certified"));
    }
}
