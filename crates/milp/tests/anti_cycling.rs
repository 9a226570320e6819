//! Anti-cycling regression tests.
//!
//! Beale's classic LP cycles forever under textbook Dantzig pricing with a
//! naive ratio test: every pivot is degenerate and after six pivots the
//! tableau repeats. The solvers must escape via the consecutive-degenerate
//! Bland trigger alone — these tests disable the total-iteration fallback
//! (`bland_after = usize::MAX`) and cap `max_iterations` low enough that an
//! actual cycle would hit the limit instead of terminating.

use billcap_milp::{ConstraintOp, LpSolver, Model, Pricing, RevisedEngine, RevisedOptions, Sense};

/// Beale (1955): min -0.75 x1 + 150 x2 - 0.02 x3 + 6 x4, the canonical
/// cycling instance. Optimum -0.77 at x1 = 1, x3 = 1.
fn beale() -> Model {
    beale_with_ub(f64::INFINITY)
}

/// Beale's LP with a large finite box. The constraints bind long before
/// the box does (x1 <= x3 <= 1 via c2/c3), so the optimum is unchanged;
/// the finite bounds are what the revised engine's dual cold start needs
/// to place the negative-cost columns.
fn beale_boxed() -> Model {
    beale_with_ub(1e3)
}

fn beale_with_ub(ub: f64) -> Model {
    let mut m = Model::new("beale", Sense::Minimize);
    let x1 = m.add_cont("x1", 0.0, ub);
    let x2 = m.add_cont("x2", 0.0, ub);
    let x3 = m.add_cont("x3", 0.0, ub);
    let x4 = m.add_cont("x4", 0.0, ub);
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

#[test]
fn dense_escapes_beale_via_degenerate_trigger_alone() {
    // With the total-iteration trigger off, only the consecutive-degenerate
    // trigger stands between Dantzig pricing and the iteration limit.
    let solver = LpSolver {
        pricing: Pricing::Dantzig,
        bland_after: usize::MAX,
        max_iterations: 2_000,
        ..Default::default()
    };
    let s = solver
        .solve(&beale())
        .expect("must terminate at the optimum");
    assert!(
        (s.objective - -0.77).abs() < 1e-9,
        "objective {} != -0.77",
        s.objective
    );
    assert!(m_is_feasible(&s.values));
    // The escape is observable: the degenerate-pivot counter must have
    // registered the run that tripped the trigger.
    assert!(s.degenerate > 0, "expected degenerate pivots on Beale's LP");
}

fn m_is_feasible(values: &[f64]) -> bool {
    beale().is_feasible(values, 1e-7)
}

#[test]
fn dense_trigger_threshold_is_respected() {
    // A tiny threshold must still reach the same optimum (Bland from the
    // first degenerate run onward), just possibly in more pivots.
    let eager = LpSolver {
        bland_after: usize::MAX,
        bland_after_degenerate: 1,
        max_iterations: 2_000,
        ..Default::default()
    };
    let s = eager
        .solve(&beale())
        .expect("bland-from-the-start terminates");
    assert!((s.objective - -0.77).abs() < 1e-9);
}

#[test]
fn revised_escapes_beale_via_degenerate_trigger_alone() {
    // Same property for the sparse revised engine: its sticky Bland mode
    // kicks in after `bland_after_degenerate` consecutive degenerate
    // pivots, well under the iteration cap.
    let model = beale_boxed();
    let opts = RevisedOptions {
        max_iterations: 2_000,
        bland_after_degenerate: 8,
        ..RevisedOptions::default()
    };
    let mut engine = RevisedEngine::new(&model, opts);
    assert!(
        engine.cold_startable(),
        "boxed beale admits a dual cold start"
    );
    let sol = engine.solve(None).expect("must terminate at the optimum");
    let obj: f64 = model.eval_objective(&sol.values);
    assert!((obj - -0.77).abs() < 1e-9, "objective {obj} != -0.77");
}

#[test]
fn dense_and_revised_agree_on_beale() {
    let model = beale_boxed();
    let dense = LpSolver::default().solve(&model).expect("dense solves");
    let mut engine = RevisedEngine::new(&model, RevisedOptions::default());
    let revised = engine.solve(None).expect("revised solves");
    let robj = model.eval_objective(&revised.values);
    assert!(
        (dense.objective - robj).abs() < 1e-9,
        "dense {} vs revised {robj}",
        dense.objective
    );
}
