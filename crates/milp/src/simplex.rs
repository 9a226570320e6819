//! Dense two-phase primal simplex.
//!
//! The solver converts a [`Model`] into standard form
//! `min c'y  s.t.  Ay = b, y >= 0, b >= 0`:
//!
//! * a variable with a finite lower bound is shifted (`y = x - lb`);
//! * a variable with only a finite upper bound is flipped (`y = ub - x`);
//! * a free variable is split (`x = y+ - y-`);
//! * finite upper bounds become explicit `y <= ub - lb` rows;
//! * `<=` rows gain slacks, `>=` rows gain surpluses plus artificials,
//!   `==` rows gain artificials.
//!
//! Phase 1 minimizes the artificial sum; phase 2 optimizes the true
//! objective with artificials barred from entering. Pricing is Dantzig
//! (most negative reduced cost) with an automatic, permanent switch to
//! Bland's rule once the iteration count suggests cycling, which guarantees
//! termination on degenerate instances.

use crate::error::SolveError;
use crate::model::{ConstraintOp, Model, Sense};
use crate::solution::{Solution, Status};
use crate::TOL;

/// Column-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pricing {
    /// Most negative reduced cost; fast in practice, may cycle on
    /// degenerate problems (the solver falls back to Bland automatically).
    Dantzig,
    /// Bland's smallest-index rule; slower but provably terminating.
    Bland,
}

/// Configurable LP solver.
#[derive(Debug, Clone)]
pub struct LpSolver {
    /// Numerical tolerance for feasibility/optimality tests.
    pub tol: f64,
    /// Hard cap on simplex pivots per phase.
    pub max_iterations: usize,
    /// Initial pricing rule.
    pub pricing: Pricing,
    /// Iteration count after which Dantzig pricing permanently degrades to
    /// Bland's rule (anti-cycling safeguard).
    pub bland_after: usize,
    /// Consecutive degenerate pivots (ratio-test step ~zero) after which
    /// pricing permanently degrades to Bland's rule. Catches cycling long
    /// before the `bland_after` total-iteration trigger fires: a cycle is
    /// by definition an unbroken run of degenerate pivots, while healthy
    /// solves rarely chain more than a handful. Mirrors the revised
    /// engine's [`crate::revised::RevisedOptions::bland_after_degenerate`].
    pub bland_after_degenerate: usize,
}

impl Default for LpSolver {
    fn default() -> Self {
        Self {
            tol: TOL,
            max_iterations: 200_000,
            pricing: Pricing::Dantzig,
            bland_after: 20_000,
            bland_after_degenerate: 64,
        }
    }
}

/// How an original model variable maps into standard-form columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = y[col] + shift`
    Shifted { col: usize, shift: f64 },
    /// `x = shift - y[col]`
    Flipped { col: usize, shift: f64 },
    /// `x = y[pos] - y[neg]`
    Free { pos: usize, neg: usize },
}

/// A standard-form row before slack/artificial augmentation.
struct StdRow {
    coeffs: Vec<(usize, f64)>, // (column, coefficient)
    op: ConstraintOp,
    rhs: f64,
}

struct Tableau {
    /// `rows x (cols + 1)`; last entry of each row is the rhs.
    a: Vec<Vec<f64>>,
    /// Basis variable (column index) per row.
    basis: Vec<usize>,
    /// Phase-2 reduced-cost row (`cols + 1` wide; last entry = -objective).
    cost: Vec<f64>,
    /// Phase-1 reduced-cost row, present while artificials may be nonzero.
    cost1: Option<Vec<f64>>,
    cols: usize,
    /// First artificial column; columns `>= art_start` may never enter.
    art_start: usize,
}

impl Tableau {
    fn pivot(&mut self, r: usize, c: usize) {
        let piv = self.a[r][c];
        debug_assert!(piv.abs() > 0.0);
        let inv = 1.0 / piv;
        for v in self.a[r].iter_mut() {
            *v *= inv;
        }
        // Clone of the pivot row is avoided by split borrows below.
        for i in 0..self.a.len() {
            if i == r {
                continue;
            }
            let factor = self.a[i][c];
            if factor != 0.0 {
                let (row_i, row_r) = if i < r {
                    let (lo, hi) = self.a.split_at_mut(r);
                    (&mut lo[i], &hi[0])
                } else {
                    let (lo, hi) = self.a.split_at_mut(i);
                    (&mut hi[0], &lo[r])
                };
                for (vi, vr) in row_i.iter_mut().zip(row_r.iter()) {
                    *vi -= factor * vr;
                }
                // Clamp tiny residue so degenerate zeros stay exactly zero.
                row_i[c] = 0.0;
            }
        }
        let factor = self.cost[c];
        if factor != 0.0 {
            let row_r = &self.a[r];
            for (v, vr) in self.cost.iter_mut().zip(row_r.iter()) {
                *v -= factor * vr;
            }
            self.cost[c] = 0.0;
        }
        if let Some(cost1) = self.cost1.as_mut() {
            let factor = cost1[c];
            if factor != 0.0 {
                let row_r = &self.a[r];
                for (v, vr) in cost1.iter_mut().zip(row_r.iter()) {
                    *v -= factor * vr;
                }
                cost1[c] = 0.0;
            }
        }
        self.basis[r] = c;
    }

    fn rhs(&self, r: usize) -> f64 {
        self.a[r][self.cols]
    }
}

impl LpSolver {
    /// Solves the continuous relaxation of `model` (integrality is ignored).
    pub fn solve(&self, model: &Model) -> Result<Solution, SolveError> {
        model.validate()?;

        // --- 1. map variables to non-negative standard-form columns ---
        let mut maps = Vec::with_capacity(model.num_vars());
        let mut next_col = 0usize;
        let mut ub_rows: Vec<(usize, f64)> = Vec::new(); // y[col] <= bound
        for v in model.variables() {
            if v.lb.is_finite() {
                let col = next_col;
                next_col += 1;
                maps.push(VarMap::Shifted { col, shift: v.lb });
                if v.ub.is_finite() {
                    ub_rows.push((col, v.ub - v.lb));
                }
            } else if v.ub.is_finite() {
                let col = next_col;
                next_col += 1;
                maps.push(VarMap::Flipped { col, shift: v.ub });
            } else {
                let pos = next_col;
                let neg = next_col + 1;
                next_col += 2;
                maps.push(VarMap::Free { pos, neg });
            }
        }
        let struct_cols = next_col;

        // --- 2. transform constraint rows ---
        let mut rows: Vec<StdRow> = Vec::with_capacity(model.num_constraints() + ub_rows.len());
        for c in model.constraints() {
            let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len() + 1);
            let mut rhs = c.rhs;
            for &(vid, coeff) in &c.terms {
                match maps[vid.index()] {
                    VarMap::Shifted { col, shift } => {
                        rhs -= coeff * shift;
                        push_coeff(&mut coeffs, col, coeff);
                    }
                    VarMap::Flipped { col, shift } => {
                        rhs -= coeff * shift;
                        push_coeff(&mut coeffs, col, -coeff);
                    }
                    VarMap::Free { pos, neg } => {
                        push_coeff(&mut coeffs, pos, coeff);
                        push_coeff(&mut coeffs, neg, -coeff);
                    }
                }
            }
            rows.push(StdRow {
                coeffs,
                op: c.op,
                rhs,
            });
        }
        for &(col, bound) in &ub_rows {
            rows.push(StdRow {
                coeffs: vec![(col, 1.0)],
                op: ConstraintOp::Le,
                rhs: bound,
            });
        }

        // --- 3. objective in standard-form columns (always minimize) ---
        let obj_sign = match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut c_std = vec![0.0; struct_cols];
        for &(vid, coeff) in model.objective() {
            let coeff = coeff * obj_sign;
            match maps[vid.index()] {
                VarMap::Shifted { col, .. } => c_std[col] += coeff,
                VarMap::Flipped { col, .. } => c_std[col] -= coeff,
                VarMap::Free { pos, neg } => {
                    c_std[pos] += coeff;
                    c_std[neg] -= coeff;
                }
            }
        }

        // --- 4. augment with slacks/artificials, b >= 0 ---
        let m = rows.len();
        // Count slack columns first so the layout is [struct | slack | art].
        let mut num_slack = 0usize;
        for row in &rows {
            // A row negated to make rhs non-negative flips Le<->Ge.
            let op = effective_op(row);
            if matches!(op, ConstraintOp::Le | ConstraintOp::Ge) {
                num_slack += 1;
            }
        }
        let slack_start = struct_cols;
        let art_start = slack_start + num_slack;
        // Upper bound on artificials: one per row.
        let mut a: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut basis = vec![usize::MAX; m];
        let mut next_slack = slack_start;
        let mut next_art = art_start;
        let total_cols_max = art_start + m;
        // Per original constraint: (column, sign) such that the optimal
        // dual (in minimization space) is `sign * cost_row[column]` — the
        // slack/surplus/artificial column of that row carries `-y_i`,
        // `+y_i` and `-y_i` respectively in the reduced-cost row, with an
        // extra flip when the row was negated for a non-negative rhs.
        let mut dual_sources: Vec<(usize, f64)> = Vec::with_capacity(model.num_constraints());
        for (i, row) in rows.iter().enumerate() {
            let mut dense = vec![0.0; total_cols_max + 1];
            let neg = row.rhs < 0.0;
            let sign = if neg { -1.0 } else { 1.0 };
            for &(col, coeff) in &row.coeffs {
                dense[col] += sign * coeff;
            }
            dense[total_cols_max] = sign * row.rhs;
            let op = effective_op(row);
            let dual_source = match op {
                ConstraintOp::Le => {
                    dense[next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                    (next_slack - 1, -1.0)
                }
                ConstraintOp::Ge => {
                    dense[next_slack] = -1.0;
                    next_slack += 1;
                    dense[next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                    (next_slack - 1, 1.0)
                }
                ConstraintOp::Eq => {
                    dense[next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                    (next_art - 1, -1.0)
                }
            };
            if i < model.num_constraints() {
                dual_sources.push((dual_source.0, dual_source.1 * sign));
            }
            a.push(dense);
        }
        let total_cols = next_art;
        // Shrink rows to the used width (rhs moves to index total_cols).
        for row in &mut a {
            let rhs = row[total_cols_max];
            row.truncate(total_cols);
            row.push(rhs);
        }
        let has_artificials = next_art > art_start;

        // Phase-2 cost row.
        let mut cost = vec![0.0; total_cols + 1];
        cost[..struct_cols].copy_from_slice(&c_std);
        // Phase-1 cost row: sum of artificial columns = 1 each.
        let cost1 = if has_artificials {
            let mut c1 = vec![0.0; total_cols + 1];
            c1[art_start..total_cols].fill(1.0);
            Some(c1)
        } else {
            None
        };

        let mut t = Tableau {
            a,
            basis,
            cost,
            cost1,
            cols: total_cols,
            art_start,
        };

        // Canonicalize cost rows w.r.t. the initial basis (only artificials
        // carry phase-1 cost; slacks carry no cost in either phase).
        for r in 0..m {
            let b = t.basis[r];
            if b >= art_start {
                if let Some(cost1) = t.cost1.as_mut() {
                    let row = &t.a[r];
                    for (v, vr) in cost1.iter_mut().zip(row.iter()) {
                        *v -= vr;
                    }
                }
            }
        }

        let mut iterations = 0usize;
        let mut degenerate = 0usize;

        // --- 5. phase 1 ---
        if has_artificials {
            self.optimize(&mut t, true, &mut iterations, &mut degenerate)?;
            let phase1_obj =
                // detlint-allow(L001): artificials imply a phase-1 cost row
                -t.cost1.as_ref().expect("phase-1 cost row")[total_cols];
            if phase1_obj > 1e-7 {
                return Err(SolveError::Infeasible);
            }
            // Drive remaining basic artificials out of the basis.
            let mut r = 0;
            while r < t.a.len() {
                if t.basis[r] >= art_start {
                    let mut pivoted = false;
                    for j in 0..art_start {
                        if t.a[r][j].abs() > self.tol {
                            t.pivot(r, j);
                            pivoted = true;
                            break;
                        }
                    }
                    if !pivoted {
                        // Redundant row: remove it.
                        t.a.remove(r);
                        t.basis.remove(r);
                        continue;
                    }
                }
                r += 1;
            }
            t.cost1 = None;
        }

        // --- 6. phase 2 ---
        self.optimize(&mut t, false, &mut iterations, &mut degenerate)?;

        // --- 7. extract primal values ---
        let mut y = vec![0.0; total_cols];
        for (r, &b) in t.basis.iter().enumerate() {
            y[b] = t.rhs(r);
        }
        let mut values = vec![0.0; model.num_vars()];
        for (i, map) in maps.iter().enumerate() {
            values[i] = match *map {
                VarMap::Shifted { col, shift } => y[col] + shift,
                VarMap::Flipped { col, shift } => shift - y[col],
                VarMap::Free { pos, neg } => y[pos] - y[neg],
            };
        }
        let objective = model.eval_objective(&values);

        // --- 8. extract duals (shadow prices) ---
        // In minimization space the reduced-cost row carries the negated
        // dual under each row's slack (see `dual_sources`); converting to
        // the model's own sense multiplies by `obj_sign` so that
        // `duals[i] = d(objective)/d(rhs_i)` in the model's sense.
        let duals = dual_sources
            .iter()
            .map(|&(col, sign)| {
                let d = sign * t.cost[col];
                // Snap float dust to zero for inactive constraints.
                let d = if d.abs() < self.tol { 0.0 } else { d };
                d * obj_sign
            })
            .collect();

        Ok(Solution {
            status: Status::Optimal,
            objective,
            values,
            iterations,
            degenerate,
            mip: None,
            duals: Some(duals),
        })
    }

    /// Runs primal simplex pivots on `t` until optimality for the active
    /// cost row (`phase1` selects which row prices the columns).
    /// `degenerate` accumulates pivots whose ratio-test step was ~zero.
    fn optimize(
        &self,
        t: &mut Tableau,
        phase1: bool,
        iterations: &mut usize,
        degenerate: &mut usize,
    ) -> Result<(), SolveError> {
        let cols = t.cols;
        // Anti-cycling: a run of `bland_after_degenerate` consecutive
        // degenerate pivots flips pricing to Bland's rule for the rest of
        // this phase (sticky — Bland guarantees termination, so once
        // cycling is suspected there is no reason to switch back).
        let mut consecutive_degenerate = 0usize;
        let mut sticky_bland = false;
        loop {
            if *iterations >= self.max_iterations {
                return Err(SolveError::IterationLimit {
                    iterations: *iterations,
                });
            }
            let bland = matches!(self.pricing, Pricing::Bland)
                || sticky_bland
                || *iterations >= self.bland_after;
            // Entering column. Artificials may enter only in phase 1.
            let limit = if phase1 { cols } else { t.art_start };
            let cost_row: &[f64] = if phase1 {
                t.cost1.as_ref().expect("phase-1 cost row") // detlint-allow(L001): phase1 implies the row
            } else {
                &t.cost
            };
            let mut entering: Option<usize> = None;
            if bland {
                for (j, &cj) in cost_row.iter().enumerate().take(limit) {
                    if cj < -self.tol {
                        entering = Some(j);
                        break;
                    }
                }
            } else {
                let mut best = -self.tol;
                for (j, &cj) in cost_row.iter().enumerate().take(limit) {
                    if cj < best {
                        best = cj;
                        entering = Some(j);
                    }
                }
            }
            let Some(c) = entering else {
                return Ok(()); // optimal for this phase
            };

            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..t.a.len() {
                let arc = t.a[r][c];
                if arc > self.tol {
                    let ratio = t.rhs(r) / arc;
                    let better = ratio < best_ratio - self.tol
                        || (ratio < best_ratio + self.tol
                            && leave.is_some_and(|lr| t.basis[r] < t.basis[lr]));
                    if better || leave.is_none() {
                        if ratio < best_ratio {
                            best_ratio = ratio;
                        }
                        leave = Some(r);
                    }
                }
            }
            let Some(r) = leave else {
                return Err(SolveError::Unbounded);
            };
            if best_ratio <= self.tol {
                *degenerate += 1;
                consecutive_degenerate += 1;
                if consecutive_degenerate >= self.bland_after_degenerate {
                    sticky_bland = true;
                }
            } else {
                consecutive_degenerate = 0;
            }
            t.pivot(r, c);
            *iterations += 1;
        }
    }
}

fn push_coeff(coeffs: &mut Vec<(usize, f64)>, col: usize, coeff: f64) {
    if let Some(entry) = coeffs.iter_mut().find(|(c, _)| *c == col) {
        entry.1 += coeff;
    } else {
        coeffs.push((col, coeff));
    }
}

fn effective_op(row: &StdRow) -> ConstraintOp {
    if row.rhs < 0.0 {
        match row.op {
            ConstraintOp::Le => ConstraintOp::Ge,
            ConstraintOp::Ge => ConstraintOp::Le,
            ConstraintOp::Eq => ConstraintOp::Eq,
        }
    } else {
        row.op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, VarType};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_max_lp() {
        // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => obj 36 at (2, 6)
        let mut m = Model::new("dantzig", Sense::Maximize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        let y = m.add_cont("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", vec![(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint("c2", vec![(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_constraint("c3", vec![(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        m.set_objective(vec![(x, 3.0), (y, 5.0)], 0.0);
        let s = LpSolver::default().solve(&m).unwrap();
        assert_close(s.objective, 36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn min_with_ge_constraints_uses_phase1() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 => obj at (4, 0)? cost 8 vs (1,3): 11.
        let mut m = Model::new("ge", Sense::Minimize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        let y = m.add_cont("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 4.0);
        m.add_constraint("c2", vec![(x, 1.0)], ConstraintOp::Ge, 1.0);
        m.set_objective(vec![(x, 2.0), (y, 3.0)], 0.0);
        let s = LpSolver::default().solve(&m).unwrap();
        assert_close(s.objective, 8.0);
        assert_close(s.value(x), 4.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y  s.t. x + 2y == 6, x - y == 0  => x = y = 2, obj 4
        let mut m = Model::new("eq", Sense::Minimize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        let y = m.add_cont("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", vec![(x, 1.0), (y, 2.0)], ConstraintOp::Eq, 6.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 0.0);
        m.set_objective(vec![(x, 1.0), (y, 1.0)], 0.0);
        let s = LpSolver::default().solve(&m).unwrap();
        assert_close(s.objective, 4.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new("inf", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 1.0);
        m.add_constraint("c1", vec![(x, 1.0)], ConstraintOp::Ge, 2.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        assert_eq!(LpSolver::default().solve(&m), Err(SolveError::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new("unb", Sense::Maximize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        m.set_objective(vec![(x, 1.0)], 0.0);
        assert_eq!(LpSolver::default().solve(&m), Err(SolveError::Unbounded));
    }

    #[test]
    fn negative_lower_bounds_are_shifted() {
        // min x  s.t. x >= -5  => x = -5
        let mut m = Model::new("shift", Sense::Minimize);
        let x = m.add_cont("x", -5.0, 5.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let s = LpSolver::default().solve(&m).unwrap();
        assert_close(s.value(x), -5.0);
    }

    #[test]
    fn flipped_variable_with_only_upper_bound() {
        // max x  s.t. x <= 3 (lb = -inf)  => x = 3
        let mut m = Model::new("flip", Sense::Maximize);
        let x = m.add_cont("x", f64::NEG_INFINITY, 3.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let s = LpSolver::default().solve(&m).unwrap();
        assert_close(s.value(x), 3.0);
    }

    #[test]
    fn free_variable_split() {
        // min |ish|: min y s.t. y >= x - 2, y >= 2 - x, x free.
        // Any x in [?]: optimum y = 0 at x = 2.
        let mut m = Model::new("free", Sense::Minimize);
        let x = m.add_cont("x", f64::NEG_INFINITY, f64::INFINITY);
        let y = m.add_cont("y", 0.0, f64::INFINITY);
        m.add_constraint("a", vec![(y, 1.0), (x, -1.0)], ConstraintOp::Ge, -2.0);
        m.add_constraint("b", vec![(y, 1.0), (x, 1.0)], ConstraintOp::Ge, 2.0);
        m.set_objective(vec![(y, 1.0)], 0.0);
        let s = LpSolver::default().solve(&m).unwrap();
        assert_close(s.objective, 0.0);
        assert_close(s.value(x), 2.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate example (Beale's cycling LP under Dantzig).
        let mut m = Model::new("beale", Sense::Minimize);
        let x1 = m.add_cont("x1", 0.0, f64::INFINITY);
        let x2 = m.add_cont("x2", 0.0, f64::INFINITY);
        let x3 = m.add_cont("x3", 0.0, f64::INFINITY);
        let x4 = m.add_cont("x4", 0.0, f64::INFINITY);
        m.add_constraint(
            "c1",
            vec![(x1, 0.25), (x2, -8.0), (x3, -1.0), (x4, 9.0)],
            ConstraintOp::Le,
            0.0,
        );
        m.add_constraint(
            "c2",
            vec![(x1, 0.5), (x2, -12.0), (x3, -0.5), (x4, 3.0)],
            ConstraintOp::Le,
            0.0,
        );
        m.add_constraint("c3", vec![(x3, 1.0)], ConstraintOp::Le, 1.0);
        m.set_objective(vec![(x1, -0.75), (x2, 150.0), (x3, -0.02), (x4, 6.0)], 0.0);
        let s = LpSolver::default().solve(&m).unwrap();
        // Optimum: x3 = 1 makes c2 allow x1 = 1 (0.5*1 - 0.5*1 = 0), giving
        // -0.75 - 0.02 = -0.77; x2/x4 only increase cost.
        assert_close(s.objective, -0.77);
        assert!(m.is_feasible(&s.values, 1e-7));
    }

    #[test]
    fn bland_pricing_gives_same_optimum() {
        let mut m = Model::new("b", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 12.0);
        m.set_objective(vec![(x, 1.0), (y, 2.0)], 0.0);
        let solver = LpSolver {
            pricing: Pricing::Bland,
            ..Default::default()
        };
        let s = solver.solve(&m).unwrap();
        assert_close(s.objective, 22.0); // y = 10, x = 2
    }

    #[test]
    fn objective_constant_is_respected() {
        let mut m = Model::new("k", Sense::Minimize);
        let x = m.add_cont("x", 1.0, 2.0);
        m.set_objective(vec![(x, 1.0)], 100.0);
        let s = LpSolver::default().solve(&m).unwrap();
        assert_close(s.objective, 101.0);
    }

    #[test]
    fn empty_model_is_trivially_optimal() {
        let m = Model::new("empty", Sense::Minimize);
        let s = LpSolver::default().solve(&m).unwrap();
        assert_eq!(s.values.len(), 0);
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn redundant_equality_rows_are_handled() {
        // x + y == 2 stated twice; min x  => x = 0, y = 2.
        let mut m = Model::new("red", Sense::Minimize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        let y = m.add_cont("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 2.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 2.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let s = LpSolver::default().solve(&m).unwrap();
        assert_close(s.objective, 0.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // -x <= -3  (i.e. x >= 3); min x => 3.
        let mut m = Model::new("neg", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        m.add_constraint("c", vec![(x, -1.0)], ConstraintOp::Le, -3.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let s = LpSolver::default().solve(&m).unwrap();
        assert_close(s.value(x), 3.0);
    }

    #[test]
    fn solution_is_feasible_for_model() {
        let mut m = Model::new("feas", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 7.0);
        let y = m.add_cont("y", 1.0, 9.0);
        m.add_constraint("c1", vec![(x, 2.0), (y, 1.0)], ConstraintOp::Le, 10.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, 3.0)], ConstraintOp::Le, 15.0);
        m.set_objective(vec![(x, 1.0), (y, 1.0)], 0.0);
        let s = LpSolver::default().solve(&m).unwrap();
        assert!(m.is_feasible(&s.values, 1e-7));
    }

    /// Finite-difference check of the duals: perturb each constraint's rhs
    /// and compare the objective change against the reported shadow price.
    fn check_duals_by_perturbation(m: &Model) {
        let solver = LpSolver::default();
        let base = solver.solve(m).unwrap();
        let duals = base.duals.clone().expect("LP solve returns duals");
        let eps = 1e-4;
        for (i, d) in duals.iter().enumerate() {
            // Rebuild with the perturbed rhs (Model has no rhs mutator by
            // design; rebuilding keeps the test honest).
            let mut pert = Model::new("pert", m.sense);
            for v in m.variables() {
                pert.add_var(v.name.clone(), v.var_type, v.lb, v.ub);
            }
            for (j, c) in m.constraints().iter().enumerate() {
                let rhs = if j == i { c.rhs + eps } else { c.rhs };
                pert.add_constraint(c.name.clone(), c.terms.clone(), c.op, rhs);
            }
            pert.set_objective(m.objective().to_vec(), m.objective_constant());
            let p = solver.solve(&pert).unwrap();
            let fd = (p.objective - base.objective) / eps;
            assert!(
                (fd - d).abs() < 1e-4,
                "constraint {i}: finite diff {fd} vs dual {d}"
            );
        }
    }

    #[test]
    fn duals_max_problem_textbook() {
        // max 3x + 5y; x <= 4, 2y <= 12, 3x + 2y <= 18.
        // Known duals: (0, 3/2, 1).
        let mut m = Model::new("duals", Sense::Maximize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        let y = m.add_cont("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", vec![(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint("c2", vec![(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_constraint("c3", vec![(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        m.set_objective(vec![(x, 3.0), (y, 5.0)], 0.0);
        let s = LpSolver::default().solve(&m).unwrap();
        let d = s.duals.unwrap();
        assert!((d[0] - 0.0).abs() < 1e-9, "{d:?}");
        assert!((d[1] - 1.5).abs() < 1e-9, "{d:?}");
        assert!((d[2] - 1.0).abs() < 1e-9, "{d:?}");
        check_duals_by_perturbation(&m);
    }

    #[test]
    fn duals_min_problem_with_ge_and_eq() {
        // min 2x + 3y; x + y >= 4 (dual 2: x is marginal), x - y == 1.
        let mut m = Model::new("duals2", Sense::Minimize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        let y = m.add_cont("y", 0.0, f64::INFINITY);
        m.add_constraint("cover", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 4.0);
        m.add_constraint("tie", vec![(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        m.set_objective(vec![(x, 2.0), (y, 3.0)], 0.0);
        check_duals_by_perturbation(&m);
    }

    #[test]
    fn duals_satisfy_strong_duality() {
        // b'y == optimal objective when all variables have zero lower
        // bounds and no upper bounds (pure standard form).
        let mut m = Model::new("strong", Sense::Minimize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        let y = m.add_cont("y", 0.0, f64::INFINITY);
        let z = m.add_cont("z", 0.0, f64::INFINITY);
        m.add_constraint(
            "r1",
            vec![(x, 1.0), (y, 2.0), (z, 1.0)],
            ConstraintOp::Ge,
            10.0,
        );
        m.add_constraint("r2", vec![(x, 2.0), (y, 1.0)], ConstraintOp::Ge, 8.0);
        m.set_objective(vec![(x, 3.0), (y, 4.0), (z, 5.0)], 0.0);
        let s = LpSolver::default().solve(&m).unwrap();
        let d = s.duals.unwrap();
        let dual_obj = 10.0 * d[0] + 8.0 * d[1];
        assert!(
            (dual_obj - s.objective).abs() < 1e-8,
            "dual {dual_obj} vs primal {}",
            s.objective
        );
    }

    #[test]
    fn negated_row_duals_are_correct() {
        // -x <= -3 is x >= 3 in disguise; its shadow price must match the
        // undisguised formulation's.
        let mut m1 = Model::new("neg", Sense::Minimize);
        let x1 = m1.add_cont("x", 0.0, 10.0);
        m1.add_constraint("c", vec![(x1, -1.0)], ConstraintOp::Le, -3.0);
        m1.set_objective(vec![(x1, 2.0)], 0.0);
        check_duals_by_perturbation(&m1);
        let d1 = LpSolver::default().solve(&m1).unwrap().duals.unwrap()[0];
        // d(obj)/d(rhs): rhs -3 -> -3+eps means x >= 3-eps, obj 2*(3-eps):
        // derivative -2.
        assert!((d1 + 2.0).abs() < 1e-9, "{d1}");
    }

    #[test]
    fn integrality_is_ignored_by_lp() {
        let mut m = Model::new("relax", Sense::Maximize);
        let x = m.add_var("x", VarType::Integer, 0.0, f64::INFINITY);
        m.add_constraint("c", vec![(x, 2.0)], ConstraintOp::Le, 3.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let s = LpSolver::default().solve(&m).unwrap();
        assert_close(s.value(x), 1.5);
    }
}
