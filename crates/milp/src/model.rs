//! Model builder: variables, bounds, integrality, constraints, objective.

use crate::error::SolveError;

/// Opaque handle to a variable within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in the model's variable list (also the index
    /// into [`crate::Solution::values`]).
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds a handle from a raw index. The caller must ensure the index
    /// refers to a variable of the model it is used with; out-of-range
    /// handles are caught by [`Model::validate`].
    pub fn from_index(i: usize) -> Self {
        VarId(i)
    }
}

/// Integrality class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarType {
    /// Real-valued variable.
    Continuous,
    /// Integer-valued variable.
    Integer,
    /// Binary variable; equivalent to `Integer` with bounds clamped to `[0, 1]`.
    Binary,
}

/// A decision variable.
#[derive(Debug, Clone)]
pub struct Variable {
    /// Human-readable name, used in diagnostics and LP export.
    pub name: String,
    /// Continuous, integer or binary.
    pub var_type: VarType,
    /// Lower bound (may be `-inf`).
    pub lb: f64,
    /// Upper bound (may be `+inf`).
    pub ub: f64,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// A linear constraint `sum(coeff * var) op rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Human-readable name, used in diagnostics and LP export.
    pub name: String,
    /// `(variable, coefficient)` pairs of the linear expression.
    pub terms: Vec<(VarId, f64)>,
    /// Comparison operator against [`Constraint::rhs`].
    pub op: ConstraintOp,
    /// Right-hand-side constant.
    pub rhs: f64,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Find the smallest objective value.
    Minimize,
    /// Find the largest objective value.
    Maximize,
}

impl Sense {
    /// `1` for [`Sense::Minimize`], `−1` for [`Sense::Maximize`]: the
    /// factor that turns an objective into its minimization-space key.
    pub(crate) fn sign(self) -> f64 {
        match self {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        }
    }
}

/// A mixed-integer linear program under construction.
///
/// The model is self-describing: variables carry names, bounds and
/// integrality; constraints carry names for diagnostics. Solving is done by
/// [`crate::MipSolver`] (an LP optimum with duals, or an integer-feasible
/// optimum).
#[derive(Debug, Clone)]
pub struct Model {
    /// Model name, used in diagnostics and LP export.
    pub name: String,
    /// Optimization direction.
    pub sense: Sense,
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
    objective: Vec<(VarId, f64)>,
    objective_constant: f64,
}

impl Model {
    /// Creates an empty model with the given optimization sense.
    pub fn new(name: impl Into<String>, sense: Sense) -> Self {
        Self {
            name: name.into(),
            sense,
            variables: Vec::new(),
            constraints: Vec::new(),
            objective: Vec::new(),
            objective_constant: 0.0,
        }
    }

    /// Adds a variable and returns its handle.
    ///
    /// Binary variables have their bounds clamped into `[0, 1]`.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        var_type: VarType,
        lb: f64,
        ub: f64,
    ) -> VarId {
        let (lb, ub) = match var_type {
            VarType::Binary => (lb.max(0.0), ub.min(1.0)),
            _ => (lb, ub),
        };
        self.variables.push(Variable {
            name: name.into(),
            var_type,
            lb,
            ub,
        });
        VarId(self.variables.len() - 1)
    }

    /// Convenience: a continuous variable on `[lb, ub]`.
    pub fn add_cont(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> VarId {
        self.add_var(name, VarType::Continuous, lb, ub)
    }

    /// Convenience: a binary variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        self.add_var(name, VarType::Binary, 0.0, 1.0)
    }

    /// Adds a constraint from raw terms.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: Vec<(VarId, f64)>,
        op: ConstraintOp,
        rhs: f64,
    ) {
        self.constraints.push(Constraint {
            name: name.into(),
            terms,
            op,
            rhs,
        });
    }

    /// Sets the objective from raw terms plus a constant offset.
    pub fn set_objective(&mut self, terms: Vec<(VarId, f64)>, constant: f64) {
        self.objective = terms;
        self.objective_constant = constant;
    }

    /// Tightens the bounds of an existing variable (used by branch-and-bound).
    pub fn set_var_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        let var = &mut self.variables[v.0];
        var.lb = lb;
        var.ub = ub;
    }

    /// Replaces the right-hand side of constraint `idx`.
    ///
    /// Value-only mutation: the constraint's terms, operator and name are
    /// untouched, so a solver-side structural cache (sparsity pattern,
    /// factorization symbolics, a carried basis) stays valid. A
    /// non-finite `rhs`, which [`Model::validate`] would reject, is an
    /// error and leaves the row as it was.
    pub fn set_constraint_rhs(&mut self, idx: usize, rhs: f64) -> Result<(), SolveError> {
        let c = self
            .constraints
            .get_mut(idx)
            .ok_or_else(|| SolveError::InvalidModel(format!("no constraint #{idx}")))?;
        if !rhs.is_finite() {
            return Err(SolveError::InvalidModel(format!(
                "non-finite rhs {rhs} for constraint '{}'",
                c.name
            )));
        }
        c.rhs = rhs;
        Ok(())
    }

    /// Replaces the coefficient of `v` in constraint `idx`.
    ///
    /// The term must already exist: introducing a new nonzero would change
    /// the sparsity pattern, which value-only mutation promises not to do.
    /// A non-finite `coeff` is an error too. Errors name the constraint so
    /// misuse is diagnosable.
    pub fn set_constraint_coeff(
        &mut self,
        idx: usize,
        v: VarId,
        coeff: f64,
    ) -> Result<(), SolveError> {
        let c = self
            .constraints
            .get_mut(idx)
            .ok_or_else(|| SolveError::InvalidModel(format!("no constraint #{idx}")))?;
        if !coeff.is_finite() {
            return Err(SolveError::InvalidModel(format!(
                "non-finite coefficient {coeff} for constraint '{}'",
                c.name
            )));
        }
        match c.terms.iter_mut().find(|(var, _)| *var == v) {
            Some((_, old)) => {
                *old = coeff;
                Ok(())
            }
            None => Err(SolveError::InvalidModel(format!(
                "constraint '{}' has no term on variable #{}; value-only \
                 mutation cannot add nonzeros",
                c.name, v.0
            ))),
        }
    }

    /// Replaces the objective coefficient of `v`. Like
    /// [`set_constraint_coeff`](Self::set_constraint_coeff), the term must
    /// already exist in the objective and `coeff` must be finite.
    pub fn set_objective_coeff(&mut self, v: VarId, coeff: f64) -> Result<(), SolveError> {
        if !coeff.is_finite() {
            return Err(SolveError::InvalidModel(format!(
                "non-finite objective coefficient {coeff}"
            )));
        }
        match self.objective.iter_mut().find(|(var, _)| *var == v) {
            Some((_, old)) => {
                *old = coeff;
                Ok(())
            }
            None => Err(SolveError::InvalidModel(format!(
                "objective has no term on variable #{}; value-only mutation \
                 cannot add nonzeros",
                v.0
            ))),
        }
    }

    /// The variables of the model.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// The constraints of the model.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The linear objective terms.
    pub fn objective(&self) -> &[(VarId, f64)] {
        &self.objective
    }

    /// The constant term of the objective.
    pub fn objective_constant(&self) -> f64 {
        self.objective_constant
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The `(lb, ub)` box of every variable, indexed like
    /// [`Model::variables`]. This is the per-node state branch-and-bound
    /// carries and the revised engine's [`set_var_bounds`] input shape.
    ///
    /// [`set_var_bounds`]: crate::revised::RevisedEngine::set_var_bounds
    pub(crate) fn var_bounds(&self) -> Vec<(f64, f64)> {
        self.variables.iter().map(|v| (v.lb, v.ub)).collect()
    }

    /// Indices of integer/binary variables.
    pub fn integer_vars(&self) -> Vec<VarId> {
        self.variables
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v.var_type, VarType::Integer | VarType::Binary))
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// Validates structural invariants: bound ordering, finite constraint
    /// data, and in-range variable references.
    pub fn validate(&self) -> Result<(), SolveError> {
        for (i, v) in self.variables.iter().enumerate() {
            if v.lb > v.ub {
                return Err(SolveError::InvalidModel(format!(
                    "variable '{}' (#{i}) has lb {} > ub {}",
                    v.name, v.lb, v.ub
                )));
            }
            if v.lb.is_nan() || v.ub.is_nan() {
                return Err(SolveError::InvalidModel(format!(
                    "variable '{}' (#{i}) has NaN bound",
                    v.name
                )));
            }
        }
        let n = self.variables.len();
        for c in &self.constraints {
            if !c.rhs.is_finite() {
                return Err(SolveError::InvalidModel(format!(
                    "constraint '{}' has non-finite rhs {}",
                    c.name, c.rhs
                )));
            }
            for &(v, coeff) in &c.terms {
                if v.0 >= n {
                    return Err(SolveError::InvalidModel(format!(
                        "constraint '{}' references unknown variable #{}",
                        c.name, v.0
                    )));
                }
                if !coeff.is_finite() {
                    return Err(SolveError::InvalidModel(format!(
                        "constraint '{}' has non-finite coefficient on '{}'",
                        c.name, self.variables[v.0].name
                    )));
                }
            }
        }
        for &(v, coeff) in &self.objective {
            if v.0 >= n {
                return Err(SolveError::InvalidModel(format!(
                    "objective references unknown variable #{}",
                    v.0
                )));
            }
            if !coeff.is_finite() {
                return Err(SolveError::InvalidModel(
                    "objective has non-finite coefficient".to_string(),
                ));
            }
        }
        Ok(())
    }

    /// Evaluates the objective at a point.
    pub(crate) fn eval_objective(&self, values: &[f64]) -> f64 {
        self.objective_constant
            + self
                .objective
                .iter()
                .map(|&(v, c)| c * values[v.0])
                // detlint-allow(D006): sequential fixed-order objective dot product; bitwise-stable
                .sum::<f64>()
    }

    /// Checks primal feasibility of a point within tolerance `tol`
    /// (bounds, integrality for integer variables, and all constraints).
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.variables.len() {
            return false;
        }
        for (i, v) in self.variables.iter().enumerate() {
            let x = values[i];
            if x < v.lb - tol || x > v.ub + tol {
                return false;
            }
            if matches!(v.var_type, VarType::Integer | VarType::Binary)
                && (x - x.round()).abs() > crate::INT_TOL.max(tol)
            {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, coeff)| coeff * values[v.0]).sum();
            // Scale tolerance with the magnitude of the row to be robust on
            // rows with large coefficients (e.g. MW-scale power balances).
            let scale = 1.0
                + c.rhs.abs().max(
                    c.terms
                        .iter()
                        .map(|&(v, coeff)| (coeff * values[v.0]).abs())
                        .fold(0.0, f64::max),
                );
            let t = tol * scale;
            let ok = match c.op {
                ConstraintOp::Le => lhs <= c.rhs + t,
                ConstraintOp::Ge => lhs >= c.rhs - t,
                ConstraintOp::Eq => (lhs - c.rhs).abs() <= t,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_bounds_are_clamped() {
        let mut m = Model::new("t", Sense::Minimize);
        let b = m.add_var("b", VarType::Binary, -5.0, 5.0);
        assert_eq!(m.variables()[b.index()].lb, 0.0);
        assert_eq!(m.variables()[b.index()].ub, 1.0);
    }

    #[test]
    fn validate_rejects_inverted_bounds() {
        let mut m = Model::new("t", Sense::Minimize);
        m.add_cont("x", 2.0, 1.0);
        assert!(matches!(m.validate(), Err(SolveError::InvalidModel(_))));
    }

    #[test]
    fn validate_rejects_foreign_var() {
        let mut m = Model::new("t", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 1.0);
        m.add_constraint("c", vec![(VarId(5), 1.0)], ConstraintOp::Le, 1.0);
        let _ = x;
        assert!(matches!(m.validate(), Err(SolveError::InvalidModel(_))));
    }

    #[test]
    fn validate_rejects_nan_coefficient() {
        let mut m = Model::new("t", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 1.0);
        m.add_constraint("c", vec![(x, f64::NAN)], ConstraintOp::Le, 1.0);
        assert!(m.validate().is_err());
    }

    #[test]
    fn feasibility_checks_bounds_constraints_integrality() {
        let mut m = Model::new("t", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let k = m.add_var("k", VarType::Integer, 0.0, 10.0);
        m.add_constraint("c", vec![(x, 1.0), (k, 1.0)], ConstraintOp::Le, 8.0);
        assert!(m.is_feasible(&[3.0, 4.0], 1e-9));
        assert!(!m.is_feasible(&[3.0, 6.0], 1e-9)); // violates constraint
        assert!(!m.is_feasible(&[-1.0, 0.0], 1e-9)); // violates bound
        assert!(!m.is_feasible(&[3.0, 0.5], 1e-9)); // violates integrality
        assert!(!m.is_feasible(&[3.0], 1e-9)); // wrong dimension
    }

    #[test]
    fn eval_objective_includes_constant() {
        let mut m = Model::new("t", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 10.0);
        m.set_objective(vec![(x, 2.0)], 7.0);
        assert_eq!(m.eval_objective(&[3.0]), 13.0);
    }

    #[test]
    fn value_mutators_rewrite_in_place() {
        let mut m = Model::new("t", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 2.0)], ConstraintOp::Le, 5.0);
        m.set_objective(vec![(x, 3.0)], 0.0);
        m.set_constraint_rhs(0, 7.0).unwrap();
        m.set_constraint_coeff(0, y, 4.0).unwrap();
        m.set_objective_coeff(x, 9.0).unwrap();
        assert_eq!(m.constraints()[0].rhs, 7.0);
        assert_eq!(m.constraints()[0].terms, vec![(x, 1.0), (y, 4.0)]);
        assert_eq!(m.objective(), &[(x, 9.0)]);
    }

    #[test]
    fn value_mutators_reject_missing_targets() {
        let mut m = Model::new("t", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("c", vec![(x, 1.0)], ConstraintOp::Le, 5.0);
        m.set_objective(vec![(x, 3.0)], 0.0);
        assert!(m.set_constraint_rhs(1, 0.0).is_err());
        assert!(m.set_constraint_rhs(usize::MAX, 0.0).is_err());
        assert!(m.set_constraint_coeff(0, y, 1.0).is_err());
        assert!(m.set_objective_coeff(y, 1.0).is_err());
    }

    /// Row-indexed RHS writes land on their row only, keep every bit
    /// (signed zero and subnormals included), and reject the non-finite
    /// values `validate` would, leaving the model untouched.
    #[test]
    fn value_mutators_write_exact_bits_and_reject_non_finite_values() {
        let mut m = Model::new("t", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 3.0);
        let y = m.add_cont("y", 0.0, 3.0);
        m.add_constraint("c1", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, 3.0)], ConstraintOp::Le, 6.0);
        m.set_objective(vec![(x, 3.0), (y, 2.0)], 0.0);
        let rhs_bits = |m: &Model| {
            m.constraints()
                .iter()
                .map(|c| c.rhs.to_bits())
                .collect::<Vec<_>>()
        };
        for (row, rhs) in [(0, 2.5_f64), (1, -0.0), (0, 1e-300)] {
            let mut expected = rhs_bits(&m);
            expected[row] = rhs.to_bits();
            m.set_constraint_rhs(row, rhs).unwrap();
            assert_eq!(rhs_bits(&m), expected, "row {row} rhs {rhs}");
        }
        let before = m.clone();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(m.set_constraint_rhs(0, bad).is_err(), "rhs {bad}");
            assert!(m.set_constraint_coeff(1, y, bad).is_err(), "coeff {bad}");
            assert!(m.set_objective_coeff(x, bad).is_err(), "objective {bad}");
        }
        assert_eq!(rhs_bits(&m), rhs_bits(&before));
        assert_eq!(m.constraints()[1].terms, before.constraints()[1].terms);
        assert_eq!(m.objective(), before.objective());
        m.validate().unwrap();
    }

    #[test]
    fn integer_vars_lists_integers_and_binaries() {
        let mut m = Model::new("t", Sense::Minimize);
        let _x = m.add_cont("x", 0.0, 1.0);
        let k = m.add_var("k", VarType::Integer, 0.0, 5.0);
        let b = m.add_binary("b");
        assert_eq!(m.integer_vars(), vec![k, b]);
    }
}
