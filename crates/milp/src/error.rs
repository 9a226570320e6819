//! Error types for the LP/MILP solvers.

use std::fmt;

/// Errors produced while building or solving a model.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The constraint set admits no feasible point.
    Infeasible,
    /// The objective can be improved without bound over the feasible region.
    Unbounded,
    /// The simplex iteration limit was reached before convergence.
    IterationLimit {
        /// Pivots performed before giving up.
        iterations: usize,
    },
    /// The simplex met a singular or unstable basis it could not
    /// recover from by refactorizing or restarting cold.
    Numerical,
    /// The branch-and-bound node limit was reached before any
    /// incumbent was found. A search that has an incumbent at the limit
    /// returns it instead, as `Ok` with [`crate::Status::Feasible`].
    NodeLimit {
        /// Nodes expanded before giving up.
        nodes: usize,
    },
    /// The model itself is malformed (e.g. a variable with `lb > ub`,
    /// or a constraint referencing a variable from another model).
    InvalidModel(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "model is infeasible"),
            SolveError::Unbounded => write!(f, "model is unbounded"),
            SolveError::IterationLimit { iterations } => {
                write!(
                    f,
                    "simplex iteration limit reached ({iterations} iterations)"
                )
            }
            SolveError::Numerical => write!(f, "simplex basis is numerically singular"),
            SolveError::NodeLimit { nodes } => {
                write!(f, "branch-and-bound node limit reached ({nodes} nodes)")
            }
            SolveError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(SolveError::Infeasible.to_string(), "model is infeasible");
        assert_eq!(SolveError::Unbounded.to_string(), "model is unbounded");
        assert!(SolveError::IterationLimit { iterations: 7 }
            .to_string()
            .contains('7'));
        assert!(SolveError::Numerical.to_string().contains("singular"));
        assert!(SolveError::NodeLimit { nodes: 42 }
            .to_string()
            .contains("42"));
        assert!(SolveError::InvalidModel("bad".into())
            .to_string()
            .contains("bad"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(SolveError::Infeasible, SolveError::Infeasible);
        assert_ne!(SolveError::Infeasible, SolveError::Unbounded);
    }
}
