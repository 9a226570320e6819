//! Activity-based bound propagation, the model linter's static
//! analysis.
//!
//! Each row's minimum activity implies a bound on every participating
//! variable (e.g. the big-M row `q − u·z ≤ 0` with `z ∈ [0, 1]` implies
//! `q ≤ u`), and sweeps repeat to a fixpoint. A singleton row folds into
//! its variable's bounds the same way, and an emptied domain is a static
//! proof of infeasibility. [`propagate_bounds`] runs it on a model's
//! declared bounds for the linter's `M007` and `M009` checks. The
//! solver does not run it: on the capper's models its sweeps cost more
//! time than the branch-and-bound nodes they saved.

use crate::error::SolveError;
use crate::model::{ConstraintOp, Model, VarType};
use crate::INT_TOL;

/// Cap on propagation sweeps: geometric bound chains (`x ≤ αy`, `y ≤ αx`)
/// converge but can take many rounds; the cap keeps propagation O(rows).
const PROP_MAX_ROUNDS: usize = 32;

/// Relative improvement a propagated bound must achieve to be applied.
/// Doubles as the safety slack added to continuous tightenings so float
/// round-off in the activity sums can never cut off the true optimum.
const PROP_EPS: f64 = 1e-7;

/// Outcome of standalone activity-based bound propagation
/// ([`propagate_bounds`]).
#[derive(Debug, Clone)]
pub struct Propagation {
    /// Propagated `(lb, ub)` per variable, indexed by
    /// [`crate::VarId::index`].
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
/// activity against an upper bound.
struct LeRows {
    start: Vec<usize>,
    terms: Vec<(usize, f64)>,
    rhs: Vec<f64>,
}

impl LeRows {
    /// Every constraint of `model`.
    fn of(model: &Model) -> Self {
        let mut rows = LeRows {
            start: vec![0],
            terms: Vec::new(),
            rhs: Vec::new(),
        };
        for c in model.constraints() {
            rows.push(c.terms.iter().map(|&(v, co)| (v.index(), co)), c.op, c.rhs);
        }
        rows
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

/// Activity-based bound propagation over the whole model.
///
/// Every returned bound is *implied* by the declared bounds plus the
/// constraints, so replacing the declared bounds with the propagated
/// ones changes neither the feasible set nor the optimum — it only
/// shrinks the LP relaxation. The model linter reports an emptied
/// domain as `M007` and reads the propagated box for `M009`.
///
/// Returns [`SolveError::Infeasible`] when propagation empties a
/// variable's domain: a proof of infeasibility with zero simplex work.
pub fn propagate_bounds(model: &Model) -> Result<Propagation, SolveError> {
    model.validate()?;
    let (mut lb, mut ub): (Vec<f64>, Vec<f64>) = model.var_bounds().into_iter().unzip();
    let is_int: Vec<bool> = model
        .variables()
        .iter()
        .map(|v| matches!(v.var_type, VarType::Integer | VarType::Binary))
        .collect();
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
    let rows = LeRows::of(model);
    let mut tightened = 0usize;
    let mut rounds = 0usize;
    while rounds < PROP_MAX_ROUNDS
        && propagate_pass(&rows, &mut lb, &mut ub, &is_int, &mut tightened)?
    {
        rounds += 1;
    }
    Ok(Propagation {
        bounds: lb.into_iter().zip(ub).collect(),
        tightened,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sense;

    #[test]
    fn singleton_rows_become_bounds() {
        let mut m = Model::new("s", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 100.0);
        let y = m.add_cont("y", 0.0, 100.0);
        m.add_constraint("cx", vec![(x, 2.0)], ConstraintOp::Le, 10.0); // x <= 5
        m.add_constraint("cy", vec![(y, -1.0)], ConstraintOp::Le, -3.0); // y >= 3
        m.add_constraint("joint", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 20.0);
        m.set_objective(vec![(x, 1.0), (y, 1.0)], 0.0);
        let prop = propagate_bounds(&m).unwrap();
        // Continuous tightenings carry the PROP_EPS safety slack.
        let (xl, xu) = prop.bounds[x.index()];
        assert!(xl == 0.0 && (5.0..5.01).contains(&xu), "x in [{xl}, {xu}]");
        // y >= 3 from its singleton row; y <= 20 - min(x) = 20 through
        // the joint row.
        let (yl, yu) = prop.bounds[y.index()];
        assert!(yl > 2.99 && yl <= 3.0, "y lb {yl}");
        assert!((20.0..20.01).contains(&yu), "y ub {yu}");
        assert!(prop.tightened >= 3);
    }

    #[test]
    fn singleton_contradictions_prove_infeasibility() {
        // x >= 8 and x <= 3.
        let mut m = Model::new("inf", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        m.add_constraint("lo", vec![(x, 1.0)], ConstraintOp::Ge, 8.0);
        m.add_constraint("hi", vec![(x, 1.0)], ConstraintOp::Le, 3.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        assert_eq!(propagate_bounds(&m).unwrap_err(), SolveError::Infeasible);
        // x fixed at 2 by its bounds, x >= 5 by a row.
        let mut m = Model::new("fixed", Sense::Minimize);
        let x = m.add_cont("x", 2.0, 2.0);
        m.add_constraint("c", vec![(x, 1.0)], ConstraintOp::Ge, 5.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        assert_eq!(propagate_bounds(&m).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn a_tighter_declared_bound_propagates_through_a_row() {
        // x + y <= 6 with the box [0, 10]^2 propagates to x, y <= 6; with
        // y declared in [4, 10] instead, the same row implies x <= 2.
        let model = |y_lb: f64| {
            let mut m = Model::new("box", Sense::Maximize);
            let x = m.add_cont("x", 0.0, 10.0);
            let y = m.add_cont("y", y_lb, 10.0);
            m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 6.0);
            m.set_objective(vec![(x, 1.0), (y, 1.0)], 0.0);
            m
        };
        let close = |got: (f64, f64), want: (f64, f64)| {
            assert!(
                (got.0 - want.0).abs() < 1e-5 && (got.1 - want.1).abs() < 1e-5,
                "{got:?} != {want:?}"
            );
        };
        let wide = propagate_bounds(&model(0.0)).unwrap();
        close(wide.bounds[0], (0.0, 6.0));
        let tight = propagate_bounds(&model(4.0)).unwrap();
        close(tight.bounds[0], (0.0, 2.0));
        close(tight.bounds[1], (4.0, 6.0));
    }

    #[test]
    fn integer_bounds_round_inward() {
        let mut m = Model::new("int", Sense::Maximize);
        let x = m.add_var("x", VarType::Integer, 0.3, 4.7);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let prop = propagate_bounds(&m).unwrap();
        assert_eq!(prop.bounds[x.index()], (1.0, 4.0));
        // Rounding is not counted as a tightening.
        assert_eq!(prop.tightened, 0);
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
        // Same big-M structure the optimizers build. The linter reads the
        // propagated box as implied by the rows, so the MILP optimum must
        // lie inside it, and solving over that box instead of the
        // declared one must find the same optimum.
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
        let declared = MipSolver::default().solve(&m).unwrap();
        assert!(m.is_feasible(&declared.values, 1e-6));
        let prop = propagate_bounds(&m).unwrap();
        assert!(prop.tightened >= 1);
        let mut boxed = m.clone();
        for (j, (&x, &(lb, ub))) in declared.values.iter().zip(&prop.bounds).enumerate() {
            assert!(
                lb - 1e-9 <= x && x <= ub + 1e-9,
                "var {j}: {x} outside [{lb}, {ub}]"
            );
            boxed.set_var_bounds(crate::VarId::from_index(j), lb, ub);
        }
        let within = MipSolver::default().solve(&boxed).unwrap();
        assert!((within.objective - declared.objective).abs() < 1e-9);
    }

    #[test]
    fn noop_on_irreducible_models() {
        let mut m = Model::new("noop", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 2.0)], ConstraintOp::Ge, 4.0);
        m.set_objective(vec![(x, 1.0), (y, 1.0)], 0.0);
        let prop = propagate_bounds(&m).unwrap();
        assert_eq!(prop.bounds, vec![(0.0, 10.0), (0.0, 10.0)]);
        assert_eq!((prop.tightened, prop.rounds), (0, 0));
    }
}
