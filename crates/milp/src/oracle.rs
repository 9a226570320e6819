//! Exhaustive brute-force oracle for tiny MILPs.
//!
//! Differential testing needs a second, independent answer to compare the
//! branch-and-bound solver against. For models with a handful of bounded
//! integer variables the honest way to get one is exhaustion: enumerate
//! every integer assignment, check feasibility (solving the residual LP
//! when continuous variables remain), and keep the best.
//!
//! The residual LPs run on the same revised simplex as `MipSolver`, but
//! the oracle trusts none of its answers: each optimum must certify with
//! its duals, each infeasible verdict with its Farkas row and each
//! unbounded verdict with its ray and point (see [`crate::certify`]).
//! An answer that fails its certificate makes the oracle refuse with
//! [`SolveError::InvalidModel`], so its reference role rests on proofs,
//! not on a second solver. For pure-integer models it evaluates
//! constraints directly and never touches the simplex at all.
//! Enumeration is capped at `DEFAULT_MAX_COMBINATIONS` assignments
//! (16 binaries): this is a test oracle, not a solver.

use crate::certify::{certify_infeasible, certify_solution, certify_unbounded, CertifyReport};
use crate::error::SolveError;
use crate::model::Model;
use crate::revised::{RevisedEngine, RevisedError, RevisedOptions};
use crate::solution::{MipStats, Solution, Status};
use crate::INT_TOL;

/// Row tolerance of the direct feasibility check on a pure-integer
/// assignment.
const FEAS_TOL: f64 = 1e-9;

/// Default cap on enumerated integer assignments (2^16 ≈ 16 binaries).
const DEFAULT_MAX_COMBINATIONS: u64 = 1 << 16;

/// Solves `model` by exhaustive enumeration with the default combination
/// cap. See `brute_force_solve_capped`.
pub fn brute_force_solve(model: &Model) -> Result<Solution, SolveError> {
    brute_force_solve_capped(model, DEFAULT_MAX_COMBINATIONS)
}

/// A certified answer to one LP: its optimum with duals, or the verdict
/// its certificate proves. An answer whose certificate fails is
/// refused.
fn certified_lp(model: &Model) -> Result<Solution, SolveError> {
    let mut engine = RevisedEngine::new(model, RevisedOptions::default());
    let (verdict, report) = match engine.solve(None) {
        Ok(r) => {
            let sol = Solution {
                status: Status::Optimal,
                objective: model.eval_objective(&r.values),
                values: r.values,
                iterations: r.stats.iterations,
                degenerate: r.stats.degenerate,
                mip: None,
                duals: Some(r.duals),
            };
            let report = certify_solution(model, &sol);
            (Ok(sol), report)
        }
        Err(RevisedError::Infeasible { .. }) => {
            let rho = engine.farkas_row().unwrap_or_default();
            (Err(SolveError::Infeasible), certify_infeasible(model, rho))
        }
        Err(RevisedError::Unbounded { ray, .. }) => (
            Err(SolveError::Unbounded),
            certify_unbounded(model, &ray.direction, &ray.point),
        ),
        Err(RevisedError::IterationLimit { stats }) => {
            return Err(SolveError::IterationLimit {
                iterations: stats.iterations,
            })
        }
        Err(RevisedError::Numerical { .. }) => return Err(SolveError::Numerical),
    };
    if report.certified() {
        verdict
    } else {
        Err(refused(&verdict, &report))
    }
}

/// The oracle's refusal of an LP answer that failed its certificate.
fn refused(verdict: &Result<Solution, SolveError>, report: &CertifyReport) -> SolveError {
    let what = match verdict {
        Ok(_) => "optimum".to_string(),
        Err(e) => format!("verdict '{e}'"),
    };
    SolveError::InvalidModel(format!(
        "brute-force oracle cannot certify the LP {what}: {report}"
    ))
}

/// Solves `model` by enumerating every assignment of its integer variables
/// (which must all have finite bounds), solving the residual LP when
/// continuous variables remain and evaluating constraints directly when
/// not. Ties are broken toward the first assignment in odometer order, so
/// the result is deterministic. Every LP answer is certified first.
///
/// Errors with [`SolveError::InvalidModel`] when an integer variable is
/// unbounded, the assignment count exceeds `max_combinations` or an LP
/// answer fails its certificate, and with [`SolveError::Infeasible`] when
/// no assignment is feasible.
pub(crate) fn brute_force_solve_capped(
    model: &Model,
    max_combinations: u64,
) -> Result<Solution, SolveError> {
    model.validate()?;
    let int_vars = model.integer_vars();

    if int_vars.is_empty() {
        let mut sol = certified_lp(model)?;
        sol.mip = Some(MipStats {
            nodes: 1,
            best_bound: sol.objective,
            gap: 0.0,
            trace: Default::default(),
        });
        return Ok(sol);
    }

    // Integer domains, rounded inward from the (possibly fractional) bounds.
    let mut domains: Vec<(i64, i64)> = Vec::with_capacity(int_vars.len());
    let mut combinations: u64 = 1;
    for &v in &int_vars {
        let var = &model.variables()[v.index()];
        if !var.lb.is_finite() || !var.ub.is_finite() {
            return Err(SolveError::InvalidModel(format!(
                "brute-force oracle needs finite bounds on integer variable '{}'",
                var.name
            )));
        }
        let lo = (var.lb - INT_TOL).ceil() as i64;
        let hi = (var.ub + INT_TOL).floor() as i64;
        if lo > hi {
            return Err(SolveError::Infeasible);
        }
        combinations = combinations
            .checked_mul((hi - lo + 1) as u64)
            .filter(|&c| c <= max_combinations)
            .ok_or_else(|| {
                SolveError::InvalidModel(format!(
                    "brute-force oracle: more than {max_combinations} integer assignments"
                ))
            })?;
        domains.push((lo, hi));
    }

    let has_continuous = model.num_vars() > int_vars.len();
    let sign = model.sense.sign();

    let mut work = model.clone();
    let mut assignment: Vec<i64> = domains.iter().map(|&(lo, _)| lo).collect();
    let mut best: Option<(f64, Vec<f64>)> = None;
    let mut nodes = 0usize;
    let mut lp_iterations = 0usize;

    loop {
        nodes += 1;
        let candidate: Option<Vec<f64>> = if has_continuous {
            // Fix the integers and solve the residual LP over the rest.
            for (k, &v) in int_vars.iter().enumerate() {
                let x = assignment[k] as f64;
                work.set_var_bounds(v, x, x);
            }
            match certified_lp(&work) {
                Ok(s) => {
                    lp_iterations += s.iterations;
                    Some(s.values)
                }
                Err(SolveError::Infeasible) => None,
                Err(e) => return Err(e),
            }
        } else {
            let mut values = vec![0.0; model.num_vars()];
            for (k, &v) in int_vars.iter().enumerate() {
                values[v.index()] = assignment[k] as f64;
            }
            model.is_feasible(&values, FEAS_TOL).then_some(values)
        };
        if let Some(values) = candidate {
            let key = sign * model.eval_objective(&values);
            if best.as_ref().is_none_or(|(bk, _)| key < *bk) {
                best = Some((key, values));
            }
        }

        // Odometer increment over the integer domains.
        let mut pos = 0;
        loop {
            if pos == assignment.len() {
                let (key, values) = best.ok_or(SolveError::Infeasible)?;
                let objective = sign * key;
                return Ok(Solution {
                    status: Status::Optimal,
                    objective,
                    values,
                    iterations: lp_iterations,
                    degenerate: 0,
                    mip: Some(MipStats {
                        nodes,
                        best_bound: objective,
                        gap: 0.0,
                        trace: Default::default(),
                    }),
                    duals: None,
                });
            }
            if assignment[pos] < domains[pos].1 {
                assignment[pos] += 1;
                break;
            }
            assignment[pos] = domains[pos].0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::MipSolver;
    use crate::model::{ConstraintOp, Sense, VarType};

    #[test]
    fn oracle_matches_solver_on_knapsack() {
        let mut m = Model::new("knap", Sense::Maximize);
        let items: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        let weights = [3.0, 4.0, 2.0, 5.0, 1.0, 6.0];
        let values = [10.0, 13.0, 7.0, 16.0, 2.0, 19.0];
        m.add_constraint(
            "w",
            items.iter().copied().zip(weights).collect(),
            ConstraintOp::Le,
            10.0,
        );
        m.set_objective(items.iter().copied().zip(values).collect(), 0.0);
        let oracle = brute_force_solve(&m).unwrap();
        let solver = MipSolver::default().solve(&m).unwrap();
        assert!((oracle.objective - solver.objective).abs() < 1e-9);
    }

    #[test]
    fn oracle_solves_mixed_integer_models() {
        // max x + 10 b  s.t.  x + 4 b <= 5,  x continuous in [0, 4].
        let mut m = Model::new("mixed", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 4.0);
        let b = m.add_binary("b");
        m.add_constraint("c", vec![(x, 1.0), (b, 4.0)], ConstraintOp::Le, 5.0);
        m.set_objective(vec![(x, 1.0), (b, 10.0)], 0.0);
        let sol = brute_force_solve(&m).unwrap();
        // b = 1 leaves x = 1: objective 11 beats b = 0's 4.
        assert!((sol.objective - 11.0).abs() < 1e-9, "{}", sol.objective);
        assert!((sol.value(b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn oracle_handles_general_integers() {
        // min 2j + 3k  s.t.  j + k >= 4, integers in [0, 5].
        let mut m = Model::new("gen", Sense::Minimize);
        let j = m.add_var("j", VarType::Integer, 0.0, 5.0);
        let k = m.add_var("k", VarType::Integer, 0.0, 5.0);
        m.add_constraint("cover", vec![(j, 1.0), (k, 1.0)], ConstraintOp::Ge, 4.0);
        m.set_objective(vec![(j, 2.0), (k, 3.0)], 1.0);
        let sol = brute_force_solve(&m).unwrap();
        assert!((sol.objective - 9.0).abs() < 1e-9); // j = 4, k = 0, +1
    }

    #[test]
    fn oracle_reports_infeasible() {
        let mut m = Model::new("inf", Sense::Minimize);
        let b = m.add_binary("b");
        m.add_constraint("c", vec![(b, 1.0)], ConstraintOp::Ge, 2.0);
        m.set_objective(vec![(b, 1.0)], 0.0);
        assert!(matches!(brute_force_solve(&m), Err(SolveError::Infeasible)));
    }

    #[test]
    fn oracle_rejects_unbounded_integers_and_blowups() {
        let mut m = Model::new("unb", Sense::Minimize);
        m.add_var("k", VarType::Integer, 0.0, f64::INFINITY);
        m.set_objective(vec![], 0.0);
        assert!(matches!(
            brute_force_solve(&m),
            Err(SolveError::InvalidModel(_))
        ));

        let mut big = Model::new("big", Sense::Minimize);
        for i in 0..8 {
            big.add_binary(format!("b{i}"));
        }
        big.set_objective(vec![], 0.0);
        assert!(matches!(
            brute_force_solve_capped(&big, 100),
            Err(SolveError::InvalidModel(_))
        ));
    }

    #[test]
    fn oracle_refuses_a_verdict_it_cannot_certify() {
        // x in [0, 1] with x >= 1 + 5e-7: the engine calls it infeasible
        // (its feasibility tolerance is 1e-7), but x = 1 misses the row
        // by less than the certificate's primal tolerance, so no Farkas
        // row clears it and the oracle refuses.
        let hair = |floor: f64| {
            let mut m = Model::new("hair", Sense::Minimize);
            let x = m.add_cont("x", 0.0, 1.0);
            m.add_constraint("floor", vec![(x, 1.0)], ConstraintOp::Ge, floor);
            m.set_objective(vec![(x, 1.0)], 0.0);
            m
        };
        let m = hair(1.0 + 5e-7);
        let mut engine = RevisedEngine::new(&m, RevisedOptions::default());
        assert!(matches!(
            engine.solve(None),
            Err(RevisedError::Infeasible { .. })
        ));
        let x_one = Solution {
            status: Status::Optimal,
            objective: 1.0,
            values: vec![1.0],
            iterations: 0,
            degenerate: 0,
            mip: None,
            duals: None,
        };
        assert!(certify_solution(&m, &x_one).certified());
        let refused = |m: &Model| match brute_force_solve(m) {
            Err(SolveError::InvalidModel(msg)) => {
                assert!(msg.contains("cannot certify"), "{msg}");
                assert!(msg.contains("infeasible"), "{msg}");
            }
            other => panic!("expected a refusal, got {other:?}"),
        };
        refused(&m);
        // The same LP as each residual of a mixed model.
        let mut mixed = hair(1.0 + 5e-7);
        let b = mixed.add_binary("b");
        mixed.set_objective(vec![(b, 1.0)], 0.0);
        refused(&mixed);
        // A clear miss certifies.
        assert!(matches!(
            brute_force_solve(&hair(1.1)),
            Err(SolveError::Infeasible)
        ));
    }

    #[test]
    fn oracle_certifies_unbounded_verdicts() {
        // max x + y s.t. x - y <= 1: the ray and point check, alone and
        // as the residual of a mixed model.
        let mut m = Model::new("unb", Sense::Maximize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        let y = m.add_cont("y", 0.0, f64::INFINITY);
        m.add_constraint("c", vec![(x, 1.0), (y, -1.0)], ConstraintOp::Le, 1.0);
        m.set_objective(vec![(x, 1.0), (y, 1.0)], 0.0);
        assert_eq!(brute_force_solve(&m), Err(SolveError::Unbounded));
        m.add_binary("b");
        assert_eq!(brute_force_solve(&m), Err(SolveError::Unbounded));
    }

    #[test]
    fn pure_lp_passthrough_gets_mip_stats() {
        let mut m = Model::new("lp", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 3.0);
        m.set_objective(vec![(x, 2.0)], 0.0);
        let sol = brute_force_solve(&m).unwrap();
        assert!((sol.objective - 6.0).abs() < 1e-9);
        let stats = sol.mip.unwrap();
        assert_eq!(stats.nodes, 1);
        assert_eq!(stats.gap, 0.0);
    }
}
