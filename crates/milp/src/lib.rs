//! # billcap-milp
//!
//! A self-contained linear-programming and mixed-integer-linear-programming
//! solver, built for the `billcap` reproduction of *Electricity Bill Capping
//! for Cloud-Scale Data Centers that Impact the Power Markets* (ICPP 2012).
//!
//! The paper solves its two optimization problems (cost minimization and
//! throughput maximization within a budget) with `lp_solve`, a C library
//! using branch-and-bound over a simplex LP solver. This crate provides the
//! same capability in pure Rust:
//!
//! * [`Model`] — a named-variable model builder with bounds, integrality,
//!   linear constraints and a linear objective.
//! * [`revised`] — the LP engine: a sparse revised simplex over CSC
//!   storage ([`sparse`]) and an LU-factorized basis ([`basis`]), with
//!   bounded variables, a dual phase 1 that starts any model, and a dual
//!   entry point that lets branch-and-bound warm-start each child from
//!   its parent's basis.
//! * [`branch`] — [`MipSolver`]: pure LPs solve directly on the revised
//!   engine; models with integer variables run a sequential best-bound
//!   branch-and-bound over its relaxations from the declared bounds,
//!   branching on the most fractional binary variable first and, once
//!   every binary is integral, on the most fractional general integer
//!   variable.
//! * [`presolve`] — activity-based bound propagation
//!   ([`propagate_bounds`]), the static analysis behind the linter's
//!   `M007` infeasibility proofs; the solver does not run it.
//! * [`certify`] — solver-free proofs: [`certify_solution`] checks an
//!   answer (primal feasibility, integrality and, for LPs, the duals);
//!   the module's crate-private checkers prove an infeasible verdict from
//!   a Farkas row and an unbounded one from an improving ray with a
//!   feasible point.
//! * [`oracle`] — the exhaustive test oracle [`brute_force_solve`]: it
//!   enumerates integer assignments and solves each residual LP on the
//!   revised engine, certifying every answer. No solve path reaches it.
//!
//! The problem sizes produced by the bill-capping formulation are small
//! (hundreds of rows at the reference scale), and the constraint matrices
//! are sparse with box-bounded variables — exactly the shape the revised
//! simplex exploits. [`MipSolver::warm_start`] set to `false` forces cold
//! starts everywhere, the differential oracle for the warm-start
//! protocol.
//!
//! ## Example
//!
//! ```
//! use billcap_milp::{Model, Sense, VarType, ConstraintOp, MipSolver};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x <= 2,  x,y integer >= 0
//! let mut m = Model::new("example", Sense::Maximize);
//! let x = m.add_var("x", VarType::Integer, 0.0, f64::INFINITY);
//! let y = m.add_var("y", VarType::Integer, 0.0, f64::INFINITY);
//! m.add_constraint("cap", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
//! m.add_constraint("xcap", vec![(x, 1.0)], ConstraintOp::Le, 2.0);
//! m.set_objective(vec![(x, 3.0), (y, 2.0)], 0.0);
//!
//! let sol = MipSolver::default().solve(&m).unwrap();
//! assert!((sol.objective - 10.0).abs() < 1e-6); // x = 2, y = 2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basis;
pub mod branch;
pub mod certify;
pub mod error;
pub mod io;
pub mod lint;
pub mod model;
pub mod oracle;
pub mod presolve;
pub mod revised;
pub mod solution;
pub mod sparse;

pub use basis::BasisFactorization;
pub use branch::{MipSolver, MipWorkspace};
pub use certify::{certify_solution, CertifyReport, Violation, PRIMAL_TOL};
pub use error::SolveError;
pub use io::{parse_lp, write_lp};
pub use lint::{lint_gate, lint_model, Finding, LintReport, ModelStats, Severity};
pub use model::{Constraint, ConstraintOp, Model, Sense, VarId, VarType, Variable};
pub use oracle::brute_force_solve;
pub use presolve::{propagate_bounds, Propagation};
pub use revised::{
    BasisState, ColStatus, RevisedEngine, RevisedError, RevisedOptions, RevisedSolution,
    RevisedStats, UnboundedRay,
};
pub use solution::{MipStats, Solution, SolveTrace, Status};
pub use sparse::CscMat;

/// Default integrality tolerance: a value within `INT_TOL` of an integer is
/// accepted as integral by the branch-and-bound search.
const INT_TOL: f64 = 1e-6;

/// Relative optimality gap at which branch-and-bound stops: the search
/// returns its incumbent once the best open bound is within `GAP_TOL`
/// of it (relative to `max(1, |incumbent|)`), and prunes nodes by the
/// same slack.
const GAP_TOL: f64 = 1e-9;
