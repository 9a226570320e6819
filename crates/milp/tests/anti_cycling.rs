//! Anti-cycling regression tests for the revised dual simplex.
//!
//! The engine switches to Bland's rule, for the rest of a solve, after
//! `bland_after_degenerate` consecutive degenerate pivots (a pivot whose
//! dual step is ~0). These tests pin where that trigger does and does
//! not fire, and check every optimum against its certificate.

use billcap_milp::{
    certify_solution, ConstraintOp, MipSolver, MipWorkspace, Model, RevisedOptions, Sense, Solution,
};

/// Solves the LP `m` through `MipSolver` on an engine with `opts`,
/// asserts the optimum certifies with its duals, and returns it.
fn certified(m: &Model, opts: RevisedOptions) -> Solution {
    let mut ws = MipWorkspace::with_lp_options(opts);
    let (sol, _) = MipSolver::default()
        .solve_in(m, None, &mut ws)
        .expect("solvable");
    assert!(sol.duals.is_some(), "a pure LP returns its duals");
    let report = certify_solution(m, &sol);
    assert!(report.certified(), "{report}");
    sol
}

/// Beale (1955): min -0.75 x1 + 150 x2 - 0.02 x3 + 6 x4, the canonical
/// instance on which the *primal* simplex with Dantzig pricing cycles.
/// Optimum -0.77 at x1 = 1, x3 = 1. The box is far from binding
/// (x1 <= x3 <= 1 via c2/c3); its finite bounds give the negative-cost
/// columns a dual-feasible cold place.
fn beale_boxed() -> Model {
    let mut m = Model::new("beale", Sense::Minimize);
    let x1 = m.add_cont("x1", 0.0, 1e3);
    let x2 = m.add_cont("x2", 0.0, 1e3);
    let x3 = m.add_cont("x3", 0.0, 1e3);
    let x4 = m.add_cont("x4", 0.0, 1e3);
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
    m
}

/// Beale's LP does not cycle the dual simplex: from the all-slack start
/// the engine takes two non-degenerate pivots to the optimum, so the
/// Bland trigger never fires, even at a threshold of 1.
#[test]
fn revised_solves_beale_in_two_nondegenerate_pivots() {
    let model = beale_boxed();
    for after in [1, 8, 64] {
        let sol = certified(
            &model,
            RevisedOptions {
                bland_after_degenerate: after,
                ..RevisedOptions::default()
            },
        );
        assert!((sol.objective - -0.77).abs() < 1e-9, "{}", sol.objective);
        let lp = sol.mip.expect("stats").trace.lp;
        assert_eq!(
            (lp.iterations, lp.degenerate, lp.bland_switches),
            (2, 0, 0),
            "threshold {after}"
        );
    }
}

/// Beale's LP dual in `blocks` independent copies, `min Σ u3` subject to
/// `Aᵀu >= −c`, `u >= 0`, with each copy's first row scaled by 4. Only
/// `u3` is priced, so a pivot that brings in `u1` or `u2` has a zero
/// dual step. The scaled first rows are the most violated at the start,
/// so the dual simplex repairs all of them, two degenerate pivots per
/// copy, before it prices any `u3`. Optimum `0.77 · blocks`.
fn beale_dual_blocks(blocks: usize) -> Model {
    let mut m = Model::new("beale_dual", Sense::Minimize);
    let mut objective = Vec::new();
    for b in 0..blocks {
        let u1 = m.add_cont(format!("u1_{b}"), 0.0, f64::INFINITY);
        let u2 = m.add_cont(format!("u2_{b}"), 0.0, f64::INFINITY);
        let u3 = m.add_cont(format!("u3_{b}"), 0.0, f64::INFINITY);
        m.add_constraint(
            format!("x1_{b}"),
            vec![(u1, 1.0), (u2, 2.0)],
            ConstraintOp::Ge,
            3.0,
        );
        m.add_constraint(
            format!("x2_{b}"),
            vec![(u1, -8.0), (u2, -12.0)],
            ConstraintOp::Ge,
            -150.0,
        );
        m.add_constraint(
            format!("x3_{b}"),
            vec![(u1, -1.0), (u2, -0.5), (u3, 1.0)],
            ConstraintOp::Ge,
            0.02,
        );
        m.add_constraint(
            format!("x4_{b}"),
            vec![(u1, 9.0), (u2, 3.0)],
            ConstraintOp::Ge,
            -6.0,
        );
        objective.push((u3, 1.0));
    }
    m.set_objective(objective, 0.0);
    m
}

/// Eight copies of Beale's dual run 16 consecutive degenerate pivots, so
/// the default threshold of 16 switches the solve to Bland's rule, which
/// still reaches the certified optimum. A threshold one higher never
/// switches.
#[test]
fn beale_dual_blocks_trip_the_default_bland_trigger() {
    let model = beale_dual_blocks(8);
    let k = RevisedOptions::default().bland_after_degenerate;
    assert_eq!(k, 16, "the test sizes its run to the default threshold");
    for (after, switches) in [(k, 1), (k + 1, 0)] {
        let sol = certified(
            &model,
            RevisedOptions {
                bland_after_degenerate: after,
                ..RevisedOptions::default()
            },
        );
        assert!(
            (sol.objective - 8.0 * 0.77).abs() < 1e-9,
            "{}",
            sol.objective
        );
        let lp = sol.mip.expect("stats").trace.lp;
        assert!(
            lp.degenerate >= k,
            "only {} degenerate pivots",
            lp.degenerate
        );
        assert_eq!(lp.bland_switches, switches, "threshold {after}");
    }
}
