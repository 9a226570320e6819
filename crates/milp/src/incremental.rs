//! Build-once / mutate-between-solves model reuse.
//!
//! The bill-capping decision loop solves the *same shaped* MILP every
//! hour: the variables, constraint rows and sparsity pattern are fixed
//! by the data-center spec, while the numbers (demand RHS, budget RHS,
//! level-power coefficients, prices) change with the hour. Rebuilding
//! the [`Model`] from scratch per decision wastes most of the solve
//! budget at bill-capping sizes; this module keeps one model alive and
//! rewrites only values between solves.
//!
//! Two layers:
//!
//! * [`IncrementalModel`] wraps a [`Model`] with a row-name index and a
//!   *structural hash* — a fingerprint of everything value-only
//!   mutation cannot change (sense, variable names/integrality,
//!   constraint names/operators/term patterns, objective term pattern).
//!   The mutators it exposes are exactly the value-only ones, so the
//!   hash is computed once and stays valid for the model's lifetime.
//! * [`IncrementalSolver`] drives [`MipSolver::solve_in`] in a
//!   [`MipWorkspace`] it keeps, so the solver's buffers (standard form,
//!   LU and eta arrays, propagation rows) are refilled rather than
//!   rebuilt each solve, and optionally carries the root relaxation's
//!   optimal basis from one solve to the next. The basis is only
//!   replayed when the structural hash matches the solve that produced
//!   it, and the root warm start
//!   re-proves dual feasibility (see
//!   [`RevisedEngine::solve_warm_verified`]) — a stale or hostile basis
//!   costs a cold start, never a wrong answer.
//!
//! Basis reuse is **off by default**: with alternative optima a warm
//! root can terminate on a different optimal basis than a cold solve,
//! which perturbs values in the last ulp. Callers that need decisions
//! bitwise-identical to a fresh build (the serve daemon's differential
//! guarantee) keep it off and still skip the model rebuild; callers
//! that only need optimal objectives opt in for the extra speed.
//!
//! [`RevisedEngine::solve_warm_verified`]: crate::revised::RevisedEngine::solve_warm_verified

use crate::branch::{MipSolver, MipWorkspace};
use crate::error::SolveError;
use crate::model::{ConstraintOp, Model, Sense, VarId, VarType};
use crate::revised::BasisState;
use crate::solution::Solution;
use std::collections::HashMap;

/// 64-bit FNV-1a, the workspace's zero-dep fingerprint hash.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_str(&mut self, s: &str) {
        // Length-prefixed so ("ab","c") and ("a","bc") hash apart.
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }
}

fn op_tag(op: ConstraintOp) -> u64 {
    match op {
        ConstraintOp::Le => 0,
        ConstraintOp::Ge => 1,
        ConstraintOp::Eq => 2,
    }
}

fn var_type_tag(t: VarType) -> u64 {
    match t {
        VarType::Continuous => 0,
        VarType::Integer => 1,
        VarType::Binary => 2,
    }
}

/// Fingerprint of a model's *structure*: everything the value-only
/// mutators cannot change. Two models with equal hashes have identical
/// variable lists (names + integrality), constraint skeletons (names,
/// operators, term variable patterns) and objective term patterns —
/// so a basis, row index or solver symbolic state computed for one is
/// shape-compatible with the other.
pub fn structural_hash(model: &Model) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(match model.sense {
        Sense::Minimize => 0,
        Sense::Maximize => 1,
    });
    h.write_u64(model.num_vars() as u64);
    for v in model.variables() {
        h.write_str(&v.name);
        h.write_u64(var_type_tag(v.var_type));
    }
    h.write_u64(model.num_constraints() as u64);
    for c in model.constraints() {
        h.write_str(&c.name);
        h.write_u64(op_tag(c.op));
        h.write_u64(c.terms.len() as u64);
        for &(v, _) in &c.terms {
            h.write_u64(v.index() as u64);
        }
    }
    h.write_u64(model.objective().len() as u64);
    for &(v, _) in model.objective() {
        h.write_u64(v.index() as u64);
    }
    h.0
}

/// A [`Model`] frozen in shape, open in values.
///
/// Construction validates the model and indexes constraint rows by
/// name; afterwards only the value-only mutators are reachable, so the
/// [`structural_hash`](Self::structural_hash) computed here never goes
/// stale.
#[derive(Debug, Clone)]
pub struct IncrementalModel {
    model: Model,
    rows: HashMap<String, usize>,
    hash: u64,
}

impl IncrementalModel {
    /// Wraps a built model. Errors if the model fails
    /// [`Model::validate`] or two constraints share a name (the row
    /// index would be ambiguous).
    pub fn new(model: Model) -> Result<Self, SolveError> {
        model.validate()?;
        let mut rows = HashMap::with_capacity(model.num_constraints());
        for (i, c) in model.constraints().iter().enumerate() {
            if rows.insert(c.name.clone(), i).is_some() {
                return Err(SolveError::InvalidModel(format!(
                    "duplicate constraint name '{}'",
                    c.name
                )));
            }
        }
        let hash = structural_hash(&model);
        Ok(Self { model, rows, hash })
    }

    /// The wrapped model (read-only; mutate through the methods below).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The structure fingerprint (see [`structural_hash`]).
    pub fn structural_hash(&self) -> u64 {
        self.hash
    }

    /// Index of the named constraint row.
    pub fn row(&self, name: &str) -> Option<usize> {
        self.rows.get(name).copied()
    }

    fn row_index(&self, name: &str) -> Result<usize, SolveError> {
        self.row(name)
            .ok_or_else(|| SolveError::InvalidModel(format!("no constraint named '{name}'")))
    }

    /// Replaces the right-hand side of the named row.
    pub fn set_rhs(&mut self, row: &str, rhs: f64) -> Result<(), SolveError> {
        if !rhs.is_finite() {
            return Err(SolveError::InvalidModel(format!(
                "non-finite rhs {rhs} for row '{row}'"
            )));
        }
        let idx = self.row_index(row)?;
        self.model.set_constraint_rhs(idx, rhs)
    }

    /// [`Self::set_rhs`] by row index (see [`Self::row`]) — the
    /// hot-loop variant that skips the name lookup. An index past the
    /// last row is an error.
    pub fn set_rhs_at(&mut self, idx: usize, rhs: f64) -> Result<(), SolveError> {
        if !rhs.is_finite() {
            return Err(SolveError::InvalidModel(format!(
                "non-finite rhs {rhs} for row #{idx}"
            )));
        }
        self.model.set_constraint_rhs(idx, rhs)
    }

    /// Replaces the coefficient of `v` in the named row. The term must
    /// already exist — value-only mutation cannot add nonzeros.
    pub fn set_coeff(&mut self, row: &str, v: VarId, coeff: f64) -> Result<(), SolveError> {
        if !coeff.is_finite() {
            return Err(SolveError::InvalidModel(format!(
                "non-finite coefficient {coeff} for row '{row}'"
            )));
        }
        let idx = self.row_index(row)?;
        self.model.set_constraint_coeff(idx, v, coeff)
    }

    /// [`Self::set_coeff`] by row index (see [`Self::row`]) — the
    /// hot-loop variant that skips the name lookup. Same contract: the
    /// term must already exist.
    pub fn set_coeff_at(&mut self, idx: usize, v: VarId, coeff: f64) -> Result<(), SolveError> {
        if !coeff.is_finite() {
            return Err(SolveError::InvalidModel(format!(
                "non-finite coefficient {coeff} for row #{idx}"
            )));
        }
        self.model.set_constraint_coeff(idx, v, coeff)
    }

    /// Replaces the objective coefficient of `v` (term must exist).
    pub fn set_objective_coeff(&mut self, v: VarId, coeff: f64) -> Result<(), SolveError> {
        if !coeff.is_finite() {
            return Err(SolveError::InvalidModel(format!(
                "non-finite objective coefficient {coeff}"
            )));
        }
        self.model.set_objective_coeff(v, coeff)
    }

    /// Replaces the bounds of `v`. Bounds are values, not structure:
    /// the revised engine already treats them as per-solve state.
    pub fn set_var_bounds(&mut self, v: VarId, lb: f64, ub: f64) -> Result<(), SolveError> {
        if lb.is_nan() || ub.is_nan() || lb > ub {
            return Err(SolveError::InvalidModel(format!(
                "invalid bounds [{lb}, {ub}] for variable #{}",
                v.index()
            )));
        }
        self.model.set_var_bounds(v, lb, ub);
        Ok(())
    }
}

/// A [`MipSolver`] plus the state it keeps between solves: a
/// [`MipWorkspace`] and, optionally, the cross-solve warm-start basis
/// for one recurring model shape.
///
/// Every solve runs in the kept workspace, so the solver refills its
/// buffers instead of allocating them. With
/// [`reuse_basis`](Self::reuse_basis) off (the default) the solves are
/// bitwise-identical to [`MipSolver::solve`] on the same model values —
/// the savings come from not rebuilding the model and from the kept
/// workspace, neither of which changes a float. With it on, each solve
/// seeds the root relaxation from the previous solve's root-optimal basis
/// (verified for dual feasibility, cold-started on rejection) and the
/// optimum is unchanged, though tie-breaking among alternative optima
/// may differ in the last ulp.
#[derive(Debug, Clone)]
pub struct IncrementalSolver {
    /// The underlying branch-and-bound solver.
    pub solver: MipSolver,
    /// Carry the root basis across solves. Off by default; see above.
    pub reuse_basis: bool,
    basis: Option<BasisState>,
    hash: Option<u64>,
    ws: MipWorkspace,
}

impl IncrementalSolver {
    /// Wraps `solver` with basis reuse off.
    pub fn new(solver: MipSolver) -> Self {
        Self {
            solver,
            reuse_basis: false,
            basis: None,
            hash: None,
            ws: MipWorkspace::default(),
        }
    }

    /// Solves the current values of `im`, managing the carried basis.
    ///
    /// The stored basis is replayed only when `im`'s structural hash
    /// matches the solve that produced it; on mismatch (the caller
    /// switched to a differently shaped model) it is dropped rather
    /// than risk feeding the engine a shape-incompatible status vector.
    pub fn solve(&mut self, im: &IncrementalModel) -> Result<Solution, SolveError> {
        if !self.reuse_basis {
            return self
                .solver
                .solve_in(im.model(), None, &mut self.ws)
                .map(|(sol, _)| sol);
        }
        if self.hash != Some(im.structural_hash()) {
            self.basis = None;
        }
        let (sol, basis) = self
            .solver
            .solve_in(im.model(), self.basis.as_ref(), &mut self.ws)?;
        self.basis = basis;
        self.hash = Some(im.structural_hash());
        Ok(sol)
    }

    /// Drops the carried basis (e.g. after an error path left it suspect).
    pub fn reset(&mut self) {
        self.basis = None;
        self.hash = None;
    }

    /// Whether a basis is currently carried (test/diagnostic hook).
    pub fn has_basis(&self) -> bool {
        self.basis.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Sense};

    fn lp() -> Model {
        let mut m = Model::new("inc", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 3.0);
        let y = m.add_cont("y", 0.0, 3.0);
        m.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, 3.0)], ConstraintOp::Le, 6.0);
        m.set_objective(vec![(x, 3.0), (y, 2.0)], 0.0);
        m
    }

    #[test]
    fn hash_ignores_values_and_sees_structure() {
        let base = structural_hash(&lp());
        let mut m = lp();
        let x = VarId::from_index(0);
        m.set_constraint_rhs(0, 9.0).unwrap();
        m.set_constraint_coeff(1, x, 2.5).unwrap();
        m.set_objective_coeff(x, -1.0).unwrap();
        m.set_var_bounds(x, 1.0, 2.0);
        assert_eq!(
            structural_hash(&m),
            base,
            "value edits must not move the hash"
        );

        let mut extra_row = lp();
        extra_row.add_constraint("c3", vec![(x, 1.0)], ConstraintOp::Ge, 0.0);
        assert_ne!(structural_hash(&extra_row), base);

        let mut renamed = Model::new("inc", Sense::Maximize);
        let x2 = renamed.add_cont("x", 0.0, 3.0);
        let y2 = renamed.add_cont("y", 0.0, 3.0);
        renamed.add_constraint("other", vec![(x2, 1.0), (y2, 1.0)], ConstraintOp::Le, 4.0);
        renamed.add_constraint("c2", vec![(x2, 1.0), (y2, 3.0)], ConstraintOp::Le, 6.0);
        renamed.set_objective(vec![(x2, 3.0), (y2, 2.0)], 0.0);
        assert_ne!(structural_hash(&renamed), base);
    }

    #[test]
    fn duplicate_row_names_are_rejected() {
        let mut m = lp();
        let x = VarId::from_index(0);
        m.add_constraint("c1", vec![(x, 1.0)], ConstraintOp::Le, 1.0);
        assert!(IncrementalModel::new(m).is_err());
    }

    #[test]
    fn named_mutators_hit_the_right_row() {
        let mut im = IncrementalModel::new(lp()).unwrap();
        let y = VarId::from_index(1);
        im.set_rhs("c2", 9.0).unwrap();
        im.set_coeff("c1", y, 2.0).unwrap();
        assert_eq!(im.model().constraints()[1].rhs, 9.0);
        assert_eq!(im.model().constraints()[0].terms[1], (y, 2.0));
        assert!(im.set_rhs("nope", 1.0).is_err());
        assert!(im.set_rhs("c1", f64::NAN).is_err());
        assert!(im.set_var_bounds(y, 2.0, 1.0).is_err());
    }

    #[test]
    fn indexed_rhs_matches_named_rhs_and_rejects_bad_input() {
        let mut named = IncrementalModel::new(lp()).unwrap();
        let mut indexed = IncrementalModel::new(lp()).unwrap();
        for (row, rhs) in [("c1", 2.5), ("c2", -0.0), ("c1", 1e-300)] {
            named.set_rhs(row, rhs).unwrap();
            let idx = indexed.row(row).unwrap();
            indexed.set_rhs_at(idx, rhs).unwrap();
            let bits = |im: &IncrementalModel| {
                im.model()
                    .constraints()
                    .iter()
                    .map(|c| c.rhs.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&indexed), bits(&named), "row {row} rhs {rhs}");
        }
        let before = indexed.model().constraints()[0].rhs.to_bits();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(indexed.set_rhs_at(0, bad).is_err(), "rhs {bad}");
        }
        assert_eq!(indexed.model().constraints()[0].rhs.to_bits(), before);
        assert!(indexed.set_rhs_at(2, 1.0).is_err());
        assert!(indexed.set_rhs_at(usize::MAX, 1.0).is_err());
        assert_eq!(indexed.structural_hash(), structural_hash(&lp()));
    }

    #[test]
    fn exact_mode_matches_fresh_solves_bitwise() {
        let mut im = IncrementalModel::new(lp()).unwrap();
        let mut inc = IncrementalSolver::new(MipSolver::default());
        for rhs in [4.0, 2.5, 6.0, 1.0] {
            im.set_rhs("c1", rhs).unwrap();
            let a = inc.solve(&im).unwrap();
            let mut fresh = lp();
            fresh.set_constraint_rhs(0, rhs).unwrap();
            let b = MipSolver::default().solve(&fresh).unwrap();
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.values, b.values);
            assert!(!inc.has_basis(), "exact mode must not carry state");
        }
    }

    #[test]
    fn basis_reuse_carries_and_resets() {
        let mut im = IncrementalModel::new(lp()).unwrap();
        let mut inc = IncrementalSolver::new(MipSolver::default());
        inc.reuse_basis = true;
        let first = inc.solve(&im).unwrap();
        assert!(inc.has_basis());
        im.set_rhs("c1", 3.0).unwrap();
        let second = inc.solve(&im).unwrap();
        let mut fresh = lp();
        fresh.set_constraint_rhs(0, 3.0).unwrap();
        let oracle = MipSolver::default().solve(&fresh).unwrap();
        assert!((second.objective - oracle.objective).abs() < 1e-9);
        assert!((first.objective - 11.0).abs() < 1e-6);
        inc.reset();
        assert!(!inc.has_basis());
    }
}
