//! Solver output types.

use crate::model::VarId;
use crate::revised::RevisedStats;
use crate::INT_TOL;

/// Quality of a returned solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Proven optimal (within tolerance).
    Optimal,
    /// Integer-feasible but optimality not proven (e.g. the node limit was
    /// reached while an incumbent existed).
    Feasible,
}

/// Deterministic search-shape counters from a branch-and-bound solve.
///
/// Collected unconditionally (the counters are a handful of integer
/// increments per node, far below LP-solve cost) so every [`MipStats`]
/// carries them regardless of whether tracing is enabled. Counts hold
/// no timing, so they stay comparable across machines, and the search
/// is sequential, so every count is the same on every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveTrace {
    /// Nodes discarded because their relaxation bound could not beat the
    /// incumbent (both pre-LP pops and post-LP bound prunes).
    pub pruned_by_bound: usize,
    /// Nodes whose LP relaxation was infeasible.
    pub pruned_infeasible: usize,
    /// Times a new incumbent replaced (or first established) the best
    /// known integer solution.
    pub incumbent_updates: usize,
    /// Deepest expanded node.
    pub max_depth: usize,
    /// Largest open-node frontier observed.
    pub max_frontier: usize,
    /// LP solves that started from a carried basis (the parent's, or a
    /// previous solve's verified root basis) instead of a cold
    /// all-slack basis.
    pub warm_starts: usize,
    /// 1 when the solve started on a [`crate::branch::MipWorkspace`]
    /// an earlier solve had used, else 0: summed over a run, the solves
    /// that skipped growing their buffers from empty.
    pub workspace_reuses: usize,
    /// The LP engine's work counters, summed over every revised solve
    /// the search ran: node relaxations, infeasible nodes and warm
    /// attempts that failed and were retried cold.
    pub lp: RevisedStats,
}

/// Search statistics from a MIP solve.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MipStats {
    /// Branch-and-bound nodes whose LP relaxation was solved.
    pub nodes: usize,
    /// Best dual bound at termination (equals the objective when optimal).
    pub best_bound: f64,
    /// Relative optimality gap `|obj - bound| / max(1, |obj|)`.
    pub gap: f64,
    /// Search-shape counters (prunes, incumbent updates, depth, …).
    pub trace: SolveTrace,
}

impl MipStats {
    /// The gap implied by an objective value and [`MipStats::best_bound`],
    /// using the same normalization as the reported [`MipStats::gap`].
    /// Certification compares the two to catch stale or fabricated stats.
    pub(crate) fn implied_gap(&self, objective: f64) -> f64 {
        (objective - self.best_bound).abs() / objective.abs().max(1.0)
    }
}

/// A primal solution to an LP or MILP.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Whether the solution is proven optimal.
    pub status: Status,
    /// Objective value in the model's own sense (a `Maximize` model reports
    /// the maximized value).
    pub objective: f64,
    /// Variable values, indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// Simplex iterations used (for an LP) or accumulated (for a MIP).
    pub iterations: usize,
    /// Degenerate simplex pivots among [`Solution::iterations`] — ratio-test
    /// steps that changed the basis without moving the objective. A high
    /// ratio signals a degenerate instance (and explains Bland fallbacks).
    pub degenerate: usize,
    /// Search statistics. Every [`crate::MipSolver`] solve sets them, a
    /// pure LP too (one node, its optimum as the bound); `None` marks a
    /// solution that did not come from a search, such as a brute-force
    /// oracle's LP answer or one built by hand.
    pub mip: Option<MipStats>,
    /// Constraint duals (shadow prices) in the model's sense:
    /// `duals[i] = d(objective)/d(rhs_i)`. Populated by LP solves;
    /// `None` for MIP solutions (integer programs have no LP duals).
    pub duals: Option<Vec<f64>>,
}

impl Solution {
    /// Value of a variable in this solution.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// Value of a variable as an integer, or `None` when it is farther than
    /// `INT_TOL` from any integer (or non-finite). Auditors use this so a
    /// fractional binary is reported instead of silently rounded.
    pub fn try_int_value(&self, v: VarId) -> Option<i64> {
        let x = self.values[v.index()];
        if x.is_finite() && (x - x.round()).abs() <= INT_TOL {
            Some(x.round() as i64)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let s = Solution {
            status: Status::Optimal,
            objective: 1.5,
            values: vec![0.999999999, 2.0],
            iterations: 3,
            degenerate: 0,
            mip: None,
            duals: None,
        };
        assert_eq!(s.value(VarId(1)), 2.0);
        assert_eq!(s.try_int_value(VarId(0)), Some(1));
    }

    #[test]
    fn try_int_value_accepts_near_integers_only() {
        let s = Solution {
            status: Status::Optimal,
            objective: 0.0,
            values: vec![0.999999999, 0.4, f64::NAN],
            iterations: 0,
            degenerate: 0,
            mip: None,
            duals: None,
        };
        assert_eq!(s.try_int_value(VarId(0)), Some(1));
        assert_eq!(s.try_int_value(VarId(1)), None);
        assert_eq!(s.try_int_value(VarId(2)), None);
    }

    #[test]
    fn implied_gap_matches_definition() {
        let stats = MipStats {
            nodes: 1,
            best_bound: 90.0,
            gap: 0.1,
            trace: SolveTrace::default(),
        };
        assert!((stats.implied_gap(100.0) - 0.1).abs() < 1e-12);
        // Small objectives normalize by 1, not by |obj|.
        let small = MipStats {
            best_bound: 0.90,
            ..stats
        };
        assert!((small.implied_gap(0.95) - 0.05).abs() < 1e-12);
    }
}
