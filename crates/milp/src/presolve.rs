//! Presolve: problem reductions applied before the simplex/branch-and-bound.
//!
//! Four classic, always-safe reductions run to a fixpoint:
//!
//! 1. **Singleton rows** (`a·x ⋈ b` with one variable) become bound
//!    updates and are dropped.
//! 2. **Fixed variables** (`lb == ub`) are substituted into every row and
//!    removed from the model.
//! 3. **Empty rows** are checked for consistency and dropped (an
//!    inconsistent one proves infeasibility without any simplex work).
//! 4. **Activity-based bound propagation** across multi-term rows: each
//!    row's minimum activity implies a bound on every participating
//!    variable (e.g. the big-M row `q − u·z ≤ 0` with `z ∈ [0, 1]`
//!    implies `q ≤ u`). See [`propagate_bounds`], which is also exposed
//!    standalone for the branch-and-bound root and the model linter.
//!
//! The result keeps a mapping back to the original variable space so the
//! reduced model's solution can be [`PresolveResult::restore`]d. The
//! reductions preserve the optimal objective exactly; the property tests
//! verify `solve(presolve(m)) == solve(m)` on random integer programs.

use crate::error::SolveError;
use crate::model::{ConstraintOp, Model, VarId, VarType};
use crate::INT_TOL;

/// Cap on propagation sweeps: geometric bound chains (`x ≤ αy`, `y ≤ αx`)
/// converge but can take many rounds; the cap keeps presolve O(rows).
const PROP_MAX_ROUNDS: usize = 32;

/// Relative improvement a propagated bound must achieve to be applied.
/// Doubles as the safety slack added to continuous tightenings so float
/// round-off in the activity sums can never cut off the true optimum.
const PROP_EPS: f64 = 1e-7;

/// Outcome of presolving a model.
#[derive(Debug, Clone)]
pub struct PresolveResult {
    /// The reduced model (possibly identical to the input).
    pub reduced: Model,
    /// For each reduced-model variable, the original variable it maps to.
    pub kept: Vec<VarId>,
    /// Original variables eliminated by fixing, with their values.
    pub fixed: Vec<(VarId, f64)>,
    /// Number of constraints removed.
    pub dropped_rows: usize,
    /// Bound tightenings contributed by activity-based propagation
    /// (beyond singleton-row folds and integer rounding).
    pub propagated: usize,
    /// Total number of original variables.
    original_vars: usize,
}

impl PresolveResult {
    /// Lifts a reduced-model solution vector back to the original
    /// variable space.
    pub fn restore(&self, reduced_values: &[f64]) -> Vec<f64> {
        assert_eq!(reduced_values.len(), self.kept.len(), "solution size");
        let mut out = vec![0.0; self.original_vars];
        for (&orig, &v) in self.kept.iter().zip(reduced_values) {
            out[orig.index()] = v;
        }
        for &(orig, v) in &self.fixed {
            out[orig.index()] = v;
        }
        out
    }
}

/// Outcome of standalone activity-based bound propagation
/// ([`propagate_bounds`]).
#[derive(Debug, Clone)]
pub struct Propagation {
    /// Propagated `(lb, ub)` per variable, indexed by [`VarId::index`].
    /// Always at least as tight as the model's declared bounds; integer
    /// bounds are rounded inward.
    pub bounds: Vec<(f64, f64)>,
    /// Individual bound tightenings applied (beyond integer rounding).
    pub tightened: usize,
    /// Sweeps over the rows until the fixpoint (or the round cap).
    pub rounds: usize,
}

/// `≤`-normalized rows over variable *indices*, packed end to end: row
/// `r` is `terms[start[r]..start[r + 1]]` with right-hand side `rhs[r]`.
/// A `Ge` constraint is stored negated and an `Eq` constraint as both
/// directions, so the propagation pass only ever reasons about minimum
/// activity against an upper bound. [`clear`](Self::clear) empties the
/// rows and keeps the capacity; it must run before the first
/// [`push`](Self::push).
#[derive(Debug, Clone, Default)]
struct LeRows {
    start: Vec<usize>,
    terms: Vec<(usize, f64)>,
    rhs: Vec<f64>,
}

impl LeRows {
    fn clear(&mut self) {
        self.start.clear();
        self.start.push(0);
        self.terms.clear();
        self.rhs.clear();
    }

    /// Appends constraint `terms op rhs` as one or two `≤` rows.
    fn push<I>(&mut self, terms: I, op: ConstraintOp, rhs: f64)
    where
        I: Iterator<Item = (usize, f64)> + Clone,
    {
        let mut row = |terms: I, negate: bool| {
            if negate {
                self.terms.extend(terms.map(|(v, c)| (v, -c)));
                self.rhs.push(-rhs);
            } else {
                self.terms.extend(terms);
                self.rhs.push(rhs);
            }
            self.start.push(self.terms.len());
        };
        match op {
            ConstraintOp::Le => row(terms, false),
            ConstraintOp::Ge => row(terms, true),
            ConstraintOp::Eq => {
                row(terms.clone(), false);
                row(terms, true);
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = (&[(usize, f64)], f64)> {
        self.start
            .windows(2)
            .zip(&self.rhs)
            .map(|(w, &rhs)| (&self.terms[w[0]..w[1]], rhs))
    }
}

/// One propagation sweep: for every `≤`-row, the row's minimum activity
/// with one variable removed bounds that variable. Returns whether any
/// bound was tightened; `Err(Infeasible)` when a variable's domain
/// empties (a static infeasibility proof — no simplex ran).
fn propagate_pass(
    rows: &LeRows,
    lb: &mut [f64],
    ub: &mut [f64],
    is_int: &[bool],
    tightened: &mut usize,
) -> Result<bool, SolveError> {
    let tol = 1e-9;
    let mut changed = false;
    for (terms, rhs) in rows.iter() {
        // Minimum activity split into its finite part and the number of
        // −∞ contributions: with two or more, no variable's residual is
        // finite and the row propagates nothing.
        let mut finite_sum = 0.0;
        let mut neg_inf = 0usize;
        for &(j, a) in terms {
            let mc = if a > 0.0 { a * lb[j] } else { a * ub[j] };
            if mc == f64::NEG_INFINITY {
                neg_inf += 1;
            } else {
                finite_sum += mc;
            }
        }
        if neg_inf > 1 || !finite_sum.is_finite() {
            continue;
        }
        for &(j, a) in terms {
            if a == 0.0 {
                continue;
            }
            let mc = if a > 0.0 { a * lb[j] } else { a * ub[j] };
            let residual = if mc == f64::NEG_INFINITY {
                finite_sum // j owns the single infinite contribution
            } else if neg_inf > 0 {
                continue; // another variable's contribution is −∞
            } else {
                finite_sum - mc
            };
            // a·x_j ≤ rhs − residual.
            let bound = (rhs - residual) / a;
            if !bound.is_finite() {
                continue;
            }
            if a > 0.0 {
                let new_ub = if is_int[j] {
                    (bound + INT_TOL).floor()
                } else {
                    bound + PROP_EPS * bound.abs().max(1.0)
                };
                let improves = if ub[j].is_finite() {
                    new_ub < ub[j] - PROP_EPS * ub[j].abs().max(1.0)
                } else {
                    new_ub.is_finite()
                };
                if improves {
                    ub[j] = new_ub;
                    *tightened += 1;
                    changed = true;
                    if lb[j] > ub[j] + tol {
                        return Err(SolveError::Infeasible);
                    }
                }
            } else {
                let new_lb = if is_int[j] {
                    (bound - INT_TOL).ceil()
                } else {
                    bound - PROP_EPS * bound.abs().max(1.0)
                };
                let improves = if lb[j].is_finite() {
                    new_lb > lb[j] + PROP_EPS * lb[j].abs().max(1.0)
                } else {
                    new_lb.is_finite()
                };
                if improves {
                    lb[j] = new_lb;
                    *tightened += 1;
                    changed = true;
                    if lb[j] > ub[j] + tol {
                        return Err(SolveError::Infeasible);
                    }
                }
            }
        }
    }
    Ok(changed)
}

/// Activity-based bound propagation over the whole model, standalone.
///
/// Every returned bound is *implied* by the declared bounds plus the
/// constraints, so replacing the declared bounds with the propagated
/// ones changes neither the feasible set nor the optimum — it only
/// shrinks the LP relaxation. The branch-and-bound root uses this (see
/// [`crate::MipSolver::root_propagation`]) and the model linter reports
/// it as the `M007` static-infeasibility check.
///
/// Returns [`SolveError::Infeasible`] when propagation empties a
/// variable's domain: a proof of infeasibility with zero simplex work.
pub fn propagate_bounds(model: &Model) -> Result<Propagation, SolveError> {
    propagate_bounds_with(model, &model.var_bounds())
}

/// [`propagate_bounds`] from an explicit starting box instead of the
/// model's declared bounds. `bounds` must be at least as tight as the
/// declared bounds (a branch-and-bound node's box always is); the
/// returned bounds are implied by `bounds` plus the constraints, so a
/// node may substitute them for its own box without changing the set of
/// integer-feasible completions.
pub fn propagate_bounds_with(
    model: &Model,
    bounds: &[(f64, f64)],
) -> Result<Propagation, SolveError> {
    model.validate()?;
    let mut buf = PropBuffers::default();
    let (tightened, rounds) = propagate_from(model, bounds, &mut buf)?;
    Ok(Propagation {
        bounds: buf.lb.iter().copied().zip(buf.ub.iter().copied()).collect(),
        tightened,
        rounds,
    })
}

/// The arrays of one propagation run, kept between solves by a
/// [`crate::branch::MipWorkspace`]. [`propagate_from`] clears and
/// refills every one before reading it; after a successful run `lb` and
/// `ub` hold the propagated bounds.
#[derive(Debug, Clone, Default)]
pub(crate) struct PropBuffers {
    rows: LeRows,
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
    is_int: Vec<bool>,
}

/// [`propagate_bounds_with`] for a model the caller has already
/// validated (the branch-and-bound root), into `buf`'s arrays: the
/// propagated bounds land in `buf.lb` / `buf.ub`, and the return value
/// is `(tightenings, rounds)` as in [`Propagation`].
pub(crate) fn propagate_from(
    model: &Model,
    bounds: &[(f64, f64)],
    buf: &mut PropBuffers,
) -> Result<(usize, usize), SolveError> {
    debug_assert_eq!(bounds.len(), model.num_vars());
    let PropBuffers {
        rows,
        lb,
        ub,
        is_int,
    } = buf;
    lb.clear();
    lb.extend(bounds.iter().map(|&(l, _)| l));
    ub.clear();
    ub.extend(bounds.iter().map(|&(_, u)| u));
    is_int.clear();
    is_int.extend(
        model
            .variables()
            .iter()
            .map(|v| matches!(v.var_type, VarType::Integer | VarType::Binary)),
    );
    // Integer bounds rounded inward first (not counted as tightenings).
    for j in 0..lb.len() {
        if is_int[j] {
            if lb[j].is_finite() {
                lb[j] = (lb[j] - INT_TOL).ceil();
            }
            if ub[j].is_finite() {
                ub[j] = (ub[j] + INT_TOL).floor();
            }
            if lb[j] > ub[j] {
                return Err(SolveError::Infeasible);
            }
        }
    }
    rows.clear();
    for c in model.constraints() {
        rows.push(c.terms.iter().map(|&(v, co)| (v.index(), co)), c.op, c.rhs);
    }
    let mut tightened = 0usize;
    let mut rounds = 0usize;
    while rounds < PROP_MAX_ROUNDS && propagate_pass(rows, lb, ub, is_int, &mut tightened)? {
        rounds += 1;
    }
    Ok((tightened, rounds))
}

/// Applies the reductions to a fixpoint. Returns
/// [`SolveError::Infeasible`] when a reduction proves infeasibility.
pub fn presolve(model: &Model) -> Result<PresolveResult, SolveError> {
    model.validate()?;
    // Working copies of bounds and rows in the ORIGINAL variable space.
    let mut lb: Vec<f64> = model.variables().iter().map(|v| v.lb).collect();
    let mut ub: Vec<f64> = model.variables().iter().map(|v| v.ub).collect();
    let is_int: Vec<bool> = model
        .variables()
        .iter()
        .map(|v| matches!(v.var_type, VarType::Integer | VarType::Binary))
        .collect();
    #[derive(Clone)]
    struct Row {
        name: String,
        terms: Vec<(usize, f64)>,
        op: ConstraintOp,
        rhs: f64,
        alive: bool,
    }
    let mut rows: Vec<Row> = model
        .constraints()
        .iter()
        .map(|c| Row {
            name: c.name.clone(),
            terms: c.terms.iter().map(|&(v, co)| (v.index(), co)).collect(),
            op: c.op,
            rhs: c.rhs,
            alive: true,
        })
        .collect();
    let mut fixed_value: Vec<Option<f64>> = vec![None; model.num_vars()];
    let tol = 1e-9;
    let mut prop_rounds = 0usize;
    let mut prop_tightened = 0usize;
    let mut le_rows = LeRows::default();

    let mut changed = true;
    while changed {
        changed = false;

        // Integer bound rounding + fixed-variable detection.
        for i in 0..lb.len() {
            if fixed_value[i].is_some() {
                continue;
            }
            if is_int[i] {
                let rl = if lb[i].is_finite() {
                    (lb[i] - INT_TOL).ceil()
                } else {
                    lb[i]
                };
                let ru = if ub[i].is_finite() {
                    (ub[i] + INT_TOL).floor()
                } else {
                    ub[i]
                };
                if rl != lb[i] || ru != ub[i] {
                    lb[i] = rl;
                    ub[i] = ru;
                    changed = true;
                }
            }
            if lb[i] > ub[i] + tol {
                return Err(SolveError::Infeasible);
            }
            if (ub[i] - lb[i]).abs() <= tol {
                fixed_value[i] = Some(lb[i]);
                changed = true;
            }
        }

        // Substitute fixed variables into rows; handle singleton/empty rows.
        for row in rows.iter_mut().filter(|r| r.alive) {
            // Substitution.
            let before = row.terms.len();
            let mut rhs = row.rhs;
            row.terms.retain(|&(v, co)| {
                if let Some(x) = fixed_value[v] {
                    rhs -= co * x;
                    false
                } else {
                    true
                }
            });
            if row.terms.len() != before {
                row.rhs = rhs;
                changed = true;
            }

            match row.terms.as_slice() {
                [] => {
                    // Empty row: verify and drop.
                    let ok = match row.op {
                        ConstraintOp::Le => 0.0 <= row.rhs + tol,
                        ConstraintOp::Ge => 0.0 >= row.rhs - tol,
                        ConstraintOp::Eq => row.rhs.abs() <= tol,
                    };
                    if !ok {
                        return Err(SolveError::Infeasible);
                    }
                    row.alive = false;
                    changed = true;
                }
                &[(v, co)] if co.abs() > tol => {
                    // Singleton row: fold into the variable's bounds.
                    let bound = row.rhs / co;
                    let op = if co > 0.0 {
                        row.op
                    } else {
                        match row.op {
                            ConstraintOp::Le => ConstraintOp::Ge,
                            ConstraintOp::Ge => ConstraintOp::Le,
                            ConstraintOp::Eq => ConstraintOp::Eq,
                        }
                    };
                    match op {
                        ConstraintOp::Le => {
                            if bound < ub[v] {
                                ub[v] = bound;
                                changed = true;
                            }
                        }
                        ConstraintOp::Ge => {
                            if bound > lb[v] {
                                lb[v] = bound;
                                changed = true;
                            }
                        }
                        ConstraintOp::Eq => {
                            if bound < lb[v] - tol || bound > ub[v] + tol {
                                return Err(SolveError::Infeasible);
                            }
                            lb[v] = bound;
                            ub[v] = bound;
                            changed = true;
                        }
                    }
                    row.alive = false;
                }
                _ => {}
            }
        }

        // Activity-based bound propagation across the surviving
        // multi-term rows: tightened bounds feed the next iteration's
        // singleton/fixed-variable rules (a propagated `lb == ub` fixes
        // the variable on the following sweep).
        if prop_rounds < PROP_MAX_ROUNDS {
            le_rows.clear();
            for row in rows.iter().filter(|r| r.alive && r.terms.len() >= 2) {
                le_rows.push(row.terms.iter().copied(), row.op, row.rhs);
            }
            if propagate_pass(&le_rows, &mut lb, &mut ub, &is_int, &mut prop_tightened)? {
                prop_rounds += 1;
                changed = true;
            }
        }
    }

    // Assemble the reduced model.
    let mut reduced = Model::new(format!("{}:presolved", model.name), model.sense);
    let mut kept: Vec<VarId> = Vec::new();
    let mut new_id: Vec<Option<VarId>> = vec![None; model.num_vars()];
    for (i, v) in model.variables().iter().enumerate() {
        if fixed_value[i].is_some() {
            continue;
        }
        let id = reduced.add_var(v.name.clone(), v.var_type, lb[i], ub[i]);
        new_id[i] = Some(id);
        kept.push(VarId::from_index(i));
    }
    let mut dropped_rows = 0;
    for row in &rows {
        if !row.alive {
            dropped_rows += 1;
            continue;
        }
        let terms: Vec<(VarId, f64)> = row
            .terms
            .iter()
            .map(|&(v, co)| (new_id[v].expect("unfixed var kept"), co)) // detlint-allow(L001): kept vars are renumbered
            .collect();
        reduced.add_constraint(row.name.clone(), terms, row.op, row.rhs);
    }
    // Objective: substitute fixed variables into the constant.
    let mut obj_terms: Vec<(VarId, f64)> = Vec::new();
    let mut obj_const = model.objective_constant();
    for &(v, co) in model.objective() {
        match fixed_value[v.index()] {
            Some(x) => obj_const += co * x,
            None => obj_terms.push((new_id[v.index()].expect("kept"), co)), // detlint-allow(L001): kept vars are renumbered
        }
    }
    reduced.set_objective(obj_terms, obj_const);

    let fixed = fixed_value
        .iter()
        .enumerate()
        .filter_map(|(i, x)| x.map(|x| (VarId::from_index(i), x)))
        .collect();
    Ok(PresolveResult {
        reduced,
        kept,
        fixed,
        dropped_rows,
        propagated: prop_tightened,
        original_vars: model.num_vars(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::LpSolver;
    use crate::{MipSolver, Sense};

    #[test]
    fn singleton_rows_become_bounds() {
        let mut m = Model::new("s", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 100.0);
        let y = m.add_cont("y", 0.0, 100.0);
        m.add_constraint("cx", vec![(x, 2.0)], ConstraintOp::Le, 10.0); // x <= 5
        m.add_constraint("cy", vec![(y, -1.0)], ConstraintOp::Le, -3.0); // y >= 3
        m.add_constraint("joint", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 20.0);
        m.set_objective(vec![(x, 1.0), (y, 1.0)], 0.0);
        let p = presolve(&m).unwrap();
        assert_eq!(p.reduced.num_constraints(), 1);
        assert_eq!(p.dropped_rows, 2);
        let v = &p.reduced.variables()[0];
        assert_eq!((v.lb, v.ub), (0.0, 5.0));
        let w = &p.reduced.variables()[1];
        assert_eq!(w.lb, 3.0);
        // Propagation additionally bounds y through the joint row:
        // y <= 20 - min(x) = 20 (plus the continuous safety slack).
        assert!(w.ub >= 20.0 && w.ub < 20.01, "y ub {}", w.ub);
        assert!(p.propagated >= 1);
    }

    #[test]
    fn fixed_variables_are_substituted() {
        let mut m = Model::new("f", Sense::Minimize);
        let x = m.add_cont("x", 7.0, 7.0); // fixed
        let y = m.add_cont("y", 0.0, 100.0);
        m.add_constraint("c", vec![(x, 2.0), (y, 1.0)], ConstraintOp::Ge, 20.0);
        m.set_objective(vec![(x, 3.0), (y, 1.0)], 0.0);
        let p = presolve(&m).unwrap();
        assert_eq!(p.reduced.num_vars(), 1);
        assert_eq!(p.fixed, vec![(x, 7.0)]);
        // Row became y >= 6 (singleton) and was folded into bounds.
        assert_eq!(p.reduced.num_constraints(), 0);
        assert_eq!(p.reduced.variables()[0].lb, 6.0);
        // Objective constant absorbed 3 * 7.
        assert_eq!(p.reduced.objective_constant(), 21.0);
        let _ = y;
    }

    #[test]
    fn detects_infeasible_singleton_chain() {
        let mut m = Model::new("inf", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        m.add_constraint("lo", vec![(x, 1.0)], ConstraintOp::Ge, 8.0);
        m.add_constraint("hi", vec![(x, 1.0)], ConstraintOp::Le, 3.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        assert_eq!(presolve(&m).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn detects_empty_row_contradiction() {
        let mut m = Model::new("empty", Sense::Minimize);
        let x = m.add_cont("x", 2.0, 2.0); // fixed at 2
        m.add_constraint("c", vec![(x, 1.0)], ConstraintOp::Ge, 5.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        assert_eq!(presolve(&m).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn propagate_with_tighter_box_sees_node_bounds() {
        // x + y <= 6 with the model box [0, 10]^2: the declared bounds
        // propagate to x, y <= 6, but a node that already branched y >= 4
        // implies x <= 2 — visible only through the explicit-box entry
        // point.
        let mut m = Model::new("node", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 6.0);
        m.set_objective(vec![(x, 1.0), (y, 1.0)], 0.0);
        let close = |got: (f64, f64), want: (f64, f64)| {
            assert!(
                (got.0 - want.0).abs() < 1e-5 && (got.1 - want.1).abs() < 1e-5,
                "{got:?} != {want:?}"
            );
        };
        let root = propagate_bounds(&m).unwrap();
        close(root.bounds[x.index()], (0.0, 6.0));
        let node = propagate_bounds_with(&m, &[(0.0, 10.0), (4.0, 10.0)]).unwrap();
        close(node.bounds[x.index()], (0.0, 2.0));
        close(node.bounds[y.index()], (4.0, 6.0));
    }

    #[test]
    fn integer_bounds_round_inward() {
        let mut m = Model::new("int", Sense::Maximize);
        let x = m.add_var("x", VarType::Integer, 0.3, 4.7);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let p = presolve(&m).unwrap();
        let v = &p.reduced.variables()[0];
        assert_eq!((v.lb, v.ub), (1.0, 4.0));
    }

    #[test]
    fn restore_reassembles_full_solution() {
        let mut m = Model::new("r", Sense::Maximize);
        let x = m.add_cont("x", 5.0, 5.0); // fixed
        let y = m.add_cont("y", 0.0, 10.0);
        let z = m.add_cont("z", 0.0, 10.0);
        m.add_constraint("c", vec![(y, 1.0), (z, 1.0)], ConstraintOp::Le, 8.0);
        m.set_objective(vec![(x, 1.0), (y, 2.0), (z, 1.0)], 0.0);
        let p = presolve(&m).unwrap();
        let sol = LpSolver::default().solve(&p.reduced).unwrap();
        let full = p.restore(&sol.values);
        assert_eq!(full.len(), 3);
        assert_eq!(full[x.index()], 5.0);
        assert!(m.is_feasible(&full, 1e-7));
        // Total objective including the fixed part.
        let obj = m.eval_objective(&full);
        assert!((obj - (5.0 + 16.0)).abs() < 1e-9, "obj {obj}");
    }

    #[test]
    fn restore_mixes_fixed_kept_and_singleton_bounded_vars() {
        // Four variables exercising every restore path at once: one fixed
        // by declaration, one fixed by an equality singleton row, one
        // whose bounds come from a folded singleton row, one untouched.
        let mut m = Model::new("mix", Sense::Maximize);
        let a = m.add_cont("a", 2.0, 2.0); // fixed by bounds
        let b = m.add_cont("b", 0.0, 50.0); // fixed by the eq row below
        let c = m.add_cont("c", 0.0, 100.0); // singleton-bounded to <= 9
        let d = m.add_var("d", VarType::Integer, 0.0, 6.0); // kept
        m.add_constraint("fix_b", vec![(b, 3.0)], ConstraintOp::Eq, 12.0); // b = 4
        m.add_constraint("cap_c", vec![(c, 2.0)], ConstraintOp::Le, 18.0); // c <= 9
        m.add_constraint(
            "joint",
            vec![(a, 1.0), (b, 1.0), (c, 1.0), (d, 1.0)],
            ConstraintOp::Le,
            17.0,
        );
        m.set_objective(vec![(a, 1.0), (b, 1.0), (c, 2.0), (d, 3.0)], 0.0);
        let p = presolve(&m).unwrap();
        // a and b were eliminated; c and d survive with folded bounds.
        assert_eq!(p.reduced.num_vars(), 2);
        let mut fixed = p.fixed.clone();
        fixed.sort_by_key(|&(v, _)| v.index());
        assert_eq!(fixed, vec![(a, 2.0), (b, 4.0)]);
        assert_eq!(p.kept, vec![c, d]);
        let sol = MipSolver::default().solve(&p.reduced).unwrap();
        let full = p.restore(&sol.values);
        assert_eq!(full.len(), 4);
        assert_eq!(full[a.index()], 2.0);
        assert_eq!(full[b.index()], 4.0);
        assert!(m.is_feasible(&full, 1e-6));
        // Direct solve agrees with solve-reduced-then-restore.
        let direct = MipSolver::default().solve(&m).unwrap();
        assert!((m.eval_objective(&full) - direct.objective).abs() < 1e-9);
    }

    #[test]
    fn presolved_milp_preserves_optimum() {
        // max 10a + 13b + 7c with a forced and a bounded-away variable.
        let mut m = Model::new("mip", Sense::Maximize);
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constraint("force_a", vec![(a, 1.0)], ConstraintOp::Ge, 1.0);
        m.add_constraint(
            "w",
            vec![(a, 3.0), (b, 4.0), (c, 2.0)],
            ConstraintOp::Le,
            6.0,
        );
        m.set_objective(vec![(a, 10.0), (b, 13.0), (c, 7.0)], 0.0);
        let direct = MipSolver::default().solve(&m).unwrap();
        let p = presolve(&m).unwrap();
        assert!(p.reduced.num_vars() < 3, "a should be fixed by presolve");
        let reduced_sol = MipSolver::default().solve(&p.reduced).unwrap();
        let full = p.restore(&reduced_sol.values);
        let obj = m.eval_objective(&full);
        assert!((obj - direct.objective).abs() < 1e-9);
        assert!(m.is_feasible(&full, 1e-6));
    }

    #[test]
    fn propagation_tightens_big_m_row() {
        // q - 400 z <= 0 with z binary implies q <= 400, far below q's
        // declared ub of 1000 (the step-price level rows have exactly
        // this shape).
        let mut m = Model::new("bigm", Sense::Maximize);
        let q = m.add_cont("q", 0.0, 1000.0);
        let z = m.add_binary("z");
        m.add_constraint("lvl_hi", vec![(q, 1.0), (z, -400.0)], ConstraintOp::Le, 0.0);
        m.set_objective(vec![(q, 1.0)], 0.0);
        let prop = propagate_bounds(&m).unwrap();
        assert!(prop.tightened >= 1);
        let (_, qu) = prop.bounds[q.index()];
        assert!(qu <= 400.0 + 1e-3, "q ub {qu} not tightened to 400");
    }

    #[test]
    fn propagation_proves_infeasibility_statically() {
        // x + y >= 25 with x <= 10, y <= 10 can never hold.
        let mut m = Model::new("inf", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 25.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        assert_eq!(propagate_bounds(&m).unwrap_err(), SolveError::Infeasible);
        // presolve reaches the same verdict through its propagation rule.
        assert_eq!(presolve(&m).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn propagation_derives_finite_bounds_from_infinite_domains() {
        // x free, x + y <= 8 with y >= 3  =>  x <= 5.
        let mut m = Model::new("free", Sense::Maximize);
        let x = m.add_cont("x", f64::NEG_INFINITY, f64::INFINITY);
        let y = m.add_cont("y", 3.0, 100.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 8.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let prop = propagate_bounds(&m).unwrap();
        let (_, xu) = prop.bounds[x.index()];
        assert!((xu - 5.0).abs() < 1e-3, "x ub {xu}");
        // y's contribution stays -inf-free; x's lb is still -inf (no row
        // bounds it from below).
        assert_eq!(prop.bounds[x.index()].0, f64::NEG_INFINITY);

        // As an equality the row propagates in both directions from one
        // packed pair of `≤` rows; with a second row feeding back, the
        // result is pinned bit for bit (values from the per-row
        // normalization this packing replaced).
        let mut m = Model::new("free_eq", Sense::Maximize);
        let x = m.add_cont("x", f64::NEG_INFINITY, f64::INFINITY);
        let y = m.add_cont("y", 3.0, 100.0);
        let k = m.add_var("k", VarType::Integer, 0.0, 50.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 8.0);
        m.add_constraint("d", vec![(k, 2.0), (x, -1.0)], ConstraintOp::Le, 3.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let prop = propagate_bounds(&m).unwrap();
        let bits: Vec<(u64, u64)> = prop
            .bounds
            .iter()
            .map(|&(l, u)| (l.to_bits(), u.to_bits()))
            .collect();
        assert_eq!(
            bits,
            vec![
                (0xc008_0000_2843_ebe8, 0x4014_0000_218d_ef41), // x ∈ [-3, 5] + slack
                (0x4008_0000_0000_0000, 0x4026_0000_2ef9_e8a0), // y ∈ [3, 11] + slack
                (0x8000_0000_0000_0000, 0x4010_0000_0000_0000), // k ∈ [-0, 4]
            ]
        );
        assert_eq!((prop.tightened, prop.rounds), (5, 2));
    }

    #[test]
    fn propagation_rounds_integer_bounds() {
        // 3k <= 10 with k integer  =>  k <= 3.
        let mut m = Model::new("int", Sense::Maximize);
        let k = m.add_var("k", VarType::Integer, 0.0, 100.0);
        let x = m.add_cont("x", 0.0, 1.0);
        m.add_constraint("c", vec![(k, 3.0), (x, 1.0)], ConstraintOp::Le, 10.0);
        m.set_objective(vec![(k, 1.0)], 0.0);
        let prop = propagate_bounds(&m).unwrap();
        assert_eq!(prop.bounds[k.index()].1, 3.0);
    }

    #[test]
    fn propagation_preserves_milp_optimum() {
        use crate::MipSolver;
        // Same big-M structure the optimizers build; solving with and
        // without root propagation must agree exactly.
        let mut m = Model::new("opt", Sense::Minimize);
        let q0 = m.add_cont("q0", 0.0, 500.0);
        let q1 = m.add_cont("q1", 0.0, 500.0);
        let z0 = m.add_binary("z0");
        let z1 = m.add_binary("z1");
        m.add_constraint("hi0", vec![(q0, 1.0), (z0, -200.0)], ConstraintOp::Le, 0.0);
        m.add_constraint("hi1", vec![(q1, 1.0), (z1, -450.0)], ConstraintOp::Le, 0.0);
        m.add_constraint("lo1", vec![(q1, 1.0), (z1, -200.0)], ConstraintOp::Ge, 0.0);
        m.add_constraint("one", vec![(z0, 1.0), (z1, 1.0)], ConstraintOp::Eq, 1.0);
        m.add_constraint("dem", vec![(q0, 1.0), (q1, 1.0)], ConstraintOp::Ge, 180.0);
        m.set_objective(vec![(q0, 30.0), (q1, 45.0)], 0.0);
        let with = MipSolver::default().solve(&m).unwrap();
        let without = MipSolver {
            root_propagation: false,
            ..Default::default()
        }
        .solve(&m)
        .unwrap();
        assert_eq!(with.objective, without.objective);
        assert!(m.is_feasible(&with.values, 1e-6));
    }

    #[test]
    fn noop_on_irreducible_models() {
        let mut m = Model::new("noop", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 2.0)], ConstraintOp::Ge, 4.0);
        m.set_objective(vec![(x, 1.0), (y, 1.0)], 0.0);
        let p = presolve(&m).unwrap();
        assert_eq!(p.reduced.num_vars(), 2);
        assert_eq!(p.reduced.num_constraints(), 1);
        assert_eq!(p.dropped_rows, 0);
    }
}
