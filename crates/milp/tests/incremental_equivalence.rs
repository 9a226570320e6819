//! Mutate-in-place equivalence: edit-then-solve must equal
//! rebuild-then-solve.
//!
//! 256 seeded (model, mutation-sequence) cases. Each case draws a small
//! mixed-integer program, keeps one [`Model`] whose values are edited in
//! place through its row-indexed setters, and mirrors every mutation
//! into a plain spec that is rebuilt from scratch each step. After every
//! mutation both paths are solved and compared:
//!
//! * **No carried basis** (what the decision engine does): the mutated
//!   model is float-for-float identical to the rebuilt one, so the
//!   solutions must match *bitwise* (objective bits and every value),
//!   and infeasibility verdicts must agree.
//! * **Carried root basis**: each solve hands the previous solve's root
//!   basis to [`MipSolver::solve_in`]. It may land on a different vertex
//!   among alternative optima, so objectives are compared within
//!   tolerance and both solutions must pass the independent
//!   [`certify_solution`] checker (primal feasibility, integrality,
//!   objective honesty, bound consistency).
//!
//! A kept [`MipWorkspace`] is held to the same bitwise standard: one
//! workspace solves models that change shape and fail in every way a
//! solve can, and each result equals a fresh-workspace solve.
//!
//! Mutation kinds cover the whole value surface — RHS, matrix
//! coefficients, objective coefficients, variable bounds — plus targeted
//! RHS moves that flip a row from binding to slack (and back) at the
//! current optimum, the case where a stale basis is most tempting.

use billcap_milp::{
    certify_solution, BasisState, ConstraintOp, MipSolver, MipWorkspace, Model, Sense, Solution,
    SolveError, SolveTrace, VarId, VarType,
};
use billcap_rt::{Rng, Xoshiro256pp};
use std::cell::{Cell, RefCell};

const CASES: usize = 256;
const MUTATIONS_PER_CASE: usize = 6;

/// The value state of one instance: everything a mutation can touch.
/// `build()` reconstructs a fresh [`Model`] in a fixed order, so two
/// builds from equal states are float-for-float identical.
#[derive(Debug, Clone)]
struct SpecState {
    n: usize,
    integer: Vec<bool>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    a: Vec<Vec<f64>>,
    rhs: Vec<f64>,
    c: Vec<f64>,
}

impl SpecState {
    fn random(rng: &mut Xoshiro256pp) -> Self {
        let n = rng.random_usize_in(1, 3);
        let m = rng.random_usize_in(1, 3);
        let integer = (0..n).map(|_| rng.random_f64_in(0.0, 1.0) < 0.6).collect();
        let ub: Vec<f64> = (0..n).map(|_| rng.random_i64_in(1, 4) as f64).collect();
        let a = (0..m)
            .map(|_| (0..n).map(|_| rng.random_i64_in(-3, 5) as f64).collect())
            .collect();
        // b >= 0 keeps x = 0 feasible at the start; mutations may later
        // make the instance infeasible, which both paths must agree on.
        let rhs = (0..m).map(|_| rng.random_i64_in(0, 20) as f64).collect();
        let c = (0..n).map(|_| rng.random_i64_in(-5, 5) as f64).collect();
        Self {
            n,
            integer,
            lb: vec![0.0; n],
            ub,
            a,
            rhs,
            c,
        }
    }

    fn build(&self) -> Model {
        let mut m = Model::new("inc-eq", Sense::Maximize);
        let vars: Vec<_> = (0..self.n)
            .map(|j| {
                let vt = if self.integer[j] {
                    VarType::Integer
                } else {
                    VarType::Continuous
                };
                m.add_var(format!("x{j}"), vt, self.lb[j], self.ub[j])
            })
            .collect();
        for (i, row) in self.a.iter().enumerate() {
            m.add_constraint(
                format!("c{i}"),
                vars.iter().zip(row).map(|(&v, &aij)| (v, aij)).collect(),
                ConstraintOp::Le,
                self.rhs[i],
            );
        }
        m.set_objective(
            vars.iter().zip(&self.c).map(|(&v, &cj)| (v, cj)).collect(),
            0.0,
        );
        m
    }
}

/// One value-only edit, applied identically to the kept model and the
/// rebuild spec.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Rhs { row: usize, rhs: f64 },
    Coeff { row: usize, var: usize, coeff: f64 },
    Objective { var: usize, coeff: f64 },
    Bounds { var: usize, lb: f64, ub: f64 },
}

impl Mutation {
    /// Draws a random edit; `last_values` (the previous optimum, if any)
    /// enables the binding↔slack RHS flips.
    fn random(rng: &mut Xoshiro256pp, spec: &SpecState, last_values: Option<&[f64]>) -> Self {
        let kind = rng.random_usize_in(0, 5);
        match kind {
            0 => Mutation::Rhs {
                row: rng.random_usize_in(0, spec.rhs.len() - 1),
                rhs: rng.random_i64_in(0, 20) as f64,
            },
            1 => Mutation::Coeff {
                row: rng.random_usize_in(0, spec.rhs.len() - 1),
                var: rng.random_usize_in(0, spec.n - 1),
                coeff: rng.random_i64_in(-3, 5) as f64,
            },
            2 => Mutation::Objective {
                var: rng.random_usize_in(0, spec.n - 1),
                coeff: rng.random_i64_in(-5, 5) as f64,
            },
            3 => {
                let var = rng.random_usize_in(0, spec.n - 1);
                let lb = rng.random_i64_in(0, 1) as f64;
                let ub = rng.random_i64_in(lb as i64, 4) as f64;
                Mutation::Bounds { var, lb, ub }
            }
            _ => {
                // Binding↔slack flip: move a row's rhs exactly onto the
                // current optimum's activity (slack → binding) or well
                // past it (binding → slack). Falls back to a plain RHS
                // draw when no optimum is available.
                let row = rng.random_usize_in(0, spec.rhs.len() - 1);
                match last_values {
                    Some(x) => {
                        let activity: f64 =
                            spec.a[row].iter().zip(x).map(|(aij, xj)| aij * xj).sum();
                        let rhs = if kind == 4 {
                            activity // make the row exactly binding
                        } else {
                            activity + rng.random_i64_in(1, 5) as f64 // clearly slack
                        };
                        Mutation::Rhs { row, rhs }
                    }
                    None => Mutation::Rhs {
                        row,
                        rhs: rng.random_i64_in(0, 20) as f64,
                    },
                }
            }
        }
    }

    fn apply(self, spec: &mut SpecState, m: &mut Model) {
        match self {
            Mutation::Rhs { row, rhs } => {
                spec.rhs[row] = rhs;
                m.set_constraint_rhs(row, rhs).expect("row exists");
            }
            Mutation::Coeff { row, var, coeff } => {
                spec.a[row][var] = coeff;
                m.set_constraint_coeff(row, VarId::from_index(var), coeff)
                    .expect("dense rows: every term exists");
            }
            Mutation::Objective { var, coeff } => {
                spec.c[var] = coeff;
                m.set_objective_coeff(VarId::from_index(var), coeff)
                    .expect("dense objective: every term exists");
            }
            Mutation::Bounds { var, lb, ub } => {
                spec.lb[var] = lb;
                spec.ub[var] = ub;
                m.set_var_bounds(VarId::from_index(var), lb, ub);
            }
        }
    }
}

/// Runs `check` against `CASES` seeded instances, reporting the failing
/// case index and spec on panic (same harness as `randomized_milp.rs`).
fn for_random_cases(seed: u64, check: impl Fn(&mut Xoshiro256pp, SpecState)) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    for case in 0..CASES {
        let spec = SpecState::random(&mut rng);
        let snapshot = spec.clone();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&mut rng, spec)));
        if let Err(e) = result {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            panic!("case {case} failed starting from {snapshot:?}: {msg}");
        }
    }
}

/// No carried basis: mutate-then-solve in a kept workspace is bitwise
/// identical to rebuild-then-solve after every mutation, including
/// agreeing on infeasibility.
#[test]
fn exact_mode_matches_rebuild_bitwise() {
    let solver = MipSolver::default();
    for_random_cases(0xA100, |rng, mut spec| {
        let mut kept = spec.build();
        let mut ws = MipWorkspace::default();
        let mut last_values: Option<Vec<f64>> = None;
        for step in 0..MUTATIONS_PER_CASE {
            let mutation = Mutation::random(rng, &spec, last_values.as_deref());
            mutation.apply(&mut spec, &mut kept);
            let fresh = spec.build();
            let a = solver.solve_in(&kept, None, &mut ws).map(|(sol, _)| sol);
            let b = solver.solve(&fresh);
            match (&a, &b) {
                (Ok(sa), Ok(sb)) => {
                    assert_eq!(
                        sa.objective.to_bits(),
                        sb.objective.to_bits(),
                        "step {step} ({mutation:?}): objective {} vs {}",
                        sa.objective,
                        sb.objective
                    );
                    assert_eq!(
                        sa.values, sb.values,
                        "step {step} ({mutation:?}): values diverged"
                    );
                    let report = certify_solution(&fresh, sb);
                    assert!(
                        report.certified(),
                        "step {step}: rebuild solution fails certification: {:?}",
                        report.violations
                    );
                    last_values = Some(sb.values.clone());
                }
                (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {
                    last_values = None;
                }
                _ => panic!("step {step} ({mutation:?}): outcomes diverged: {a:?} vs {b:?}"),
            }
        }
    });
}

/// Carried root basis: each solve starts its root from the previous
/// successful solve's root basis, which never changes the optimum.
/// Objectives match the rebuild oracle within tolerance and every
/// returned solution passes independent certification.
#[test]
fn basis_reuse_preserves_the_optimum() {
    let solver = MipSolver::default();
    for_random_cases(0xA200, |rng, mut spec| {
        let mut kept = spec.build();
        let mut ws = MipWorkspace::default();
        let mut basis: Option<BasisState> = None;
        let mut last_values: Option<Vec<f64>> = None;
        for step in 0..MUTATIONS_PER_CASE {
            let mutation = Mutation::random(rng, &spec, last_values.as_deref());
            mutation.apply(&mut spec, &mut kept);
            let fresh = spec.build();
            let a = solver
                .solve_in(&kept, basis.as_ref(), &mut ws)
                .map(|(sol, root)| {
                    basis = root;
                    sol
                });
            let b = solver.solve(&fresh);
            match (&a, &b) {
                (Ok(sa), Ok(sb)) => {
                    let scale = sb.objective.abs().max(1.0);
                    assert!(
                        (sa.objective - sb.objective).abs() <= 1e-7 * scale,
                        "step {step} ({mutation:?}): warm {} vs rebuild {}",
                        sa.objective,
                        sb.objective
                    );
                    for (label, model, sol) in [("warm", &kept, sa), ("rebuild", &fresh, sb)] {
                        let report = certify_solution(model, sol);
                        assert!(
                            report.certified(),
                            "step {step}: {label} solution fails certification: {:?}",
                            report.violations
                        );
                    }
                    last_values = Some(sb.values.clone());
                }
                (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {
                    last_values = None;
                }
                _ => panic!("step {step} ({mutation:?}): outcomes diverged: {a:?} vs {b:?}"),
            }
        }
    });
}

/// A plain solve (no carried basis) of a model mutated in place is
/// bitwise identical to a solve of the same model rebuilt from scratch:
/// pure mutate-vs-rebuild equivalence, objective and value vector.
/// Both solutions must also certify against their models.
#[test]
fn solver_matches_rebuild_on_mutated_models() {
    let solver = MipSolver::default();
    for_random_cases(0xA300, |rng, mut spec| {
        let mut kept = spec.build();
        for _ in 0..MUTATIONS_PER_CASE {
            let mutation = Mutation::random(rng, &spec, None);
            mutation.apply(&mut spec, &mut kept);
        }
        let fresh = spec.build();
        let a = solver.solve(&kept);
        let b = solver.solve(&fresh);
        match (&a, &b) {
            (Ok(sa), Ok(sb)) => {
                assert_eq!(sa.objective.to_bits(), sb.objective.to_bits());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&sa.values), bits(&sb.values), "values diverged");
                for (label, model, sol) in [("mutated", &kept, sa), ("rebuild", &fresh, sb)] {
                    let report = certify_solution(model, sol);
                    assert!(
                        report.certified(),
                        "{label} solution fails certification: {:?}",
                        report.violations
                    );
                }
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            _ => panic!("outcomes diverged: {a:?} vs {b:?}"),
        }
    });
}

/// Asserts a solve in a kept workspace returned exactly what a solve in
/// a fresh one did: status, objective, values and duals bit for bit,
/// every `MipStats` counter, and equal errors. `workspace_reuses`
/// differs by design (the kept workspace was used before), so it is
/// checked separately and left out of the comparison.
fn assert_same_outcome(
    ctx: &str,
    kept: &Result<Solution, SolveError>,
    fresh: &Result<Solution, SolveError>,
    reused: bool,
) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (k, f) = match (kept, fresh) {
        (Ok(k), Ok(f)) => (k, f),
        (Err(ek), Err(ef)) => {
            assert_eq!(ek, ef, "{ctx}: errors differ");
            return;
        }
        _ => panic!("{ctx}: outcomes diverged: {kept:?} vs {fresh:?}"),
    };
    assert_eq!(k.status, f.status, "{ctx}: status");
    assert_eq!(
        k.objective.to_bits(),
        f.objective.to_bits(),
        "{ctx}: objective"
    );
    assert_eq!(bits(&k.values), bits(&f.values), "{ctx}: values");
    assert_eq!(k.iterations, f.iterations, "{ctx}: iterations");
    assert_eq!(k.degenerate, f.degenerate, "{ctx}: degenerate pivots");
    assert_eq!(
        k.duals.as_deref().map(bits),
        f.duals.as_deref().map(bits),
        "{ctx}: duals"
    );
    let (km, fm) = (k.mip.expect("stats"), f.mip.expect("stats"));
    assert_eq!(km.trace.workspace_reuses, usize::from(reused), "{ctx}");
    assert_eq!(fm.trace.workspace_reuses, 0, "{ctx}: fresh workspace");
    assert_eq!(km.nodes, fm.nodes, "{ctx}: nodes");
    assert_eq!(
        km.trace.lp.iterations, fm.trace.lp.iterations,
        "{ctx}: lp iterations"
    );
    assert_eq!(
        km.best_bound.to_bits(),
        fm.best_bound.to_bits(),
        "{ctx}: bound"
    );
    assert_eq!(km.gap.to_bits(), fm.gap.to_bits(), "{ctx}: gap");
    let trace = SolveTrace {
        workspace_reuses: 0,
        ..km.trace
    };
    assert_eq!(trace, fm.trace, "{ctx}: trace counters");
}

/// `n` variables (integers in [0, 3] at even indices, continuous in
/// [0, 2.5] at odd ones) under `rows` packing rows with fractional
/// coefficients, so the relaxation is fractional and the search
/// branches. Shapes grow and shrink with `n` and `rows`.
fn packing(n: usize, rows: usize) -> Model {
    let mut m = Model::new(format!("pack{n}x{rows}"), Sense::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|j| {
            if j % 2 == 0 {
                m.add_var(format!("x{j}"), VarType::Integer, 0.0, 3.0)
            } else {
                m.add_cont(format!("x{j}"), 0.0, 2.5)
            }
        })
        .collect();
    for r in 0..rows {
        let terms = vars
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, 1.0 + ((j * 7 + r * 3) % 5) as f64 * 0.5))
            .collect();
        let rhs = 2.0 + n as f64 * 0.9 + r as f64;
        m.add_constraint(format!("r{r}"), terms, ConstraintOp::Le, rhs);
    }
    m.set_objective(
        vars.iter()
            .enumerate()
            .map(|(j, &v)| (v, 1.0 + ((j * 5 + 2) % 7) as f64))
            .collect(),
        0.0,
    );
    m
}

/// Two integers whose sum must lie in [2.5, 2.7]: the relaxation is
/// feasible, so branch-and-bound itself proves infeasibility.
fn integer_infeasible() -> Model {
    let mut m = Model::new("int-infeasible", Sense::Minimize);
    let x = m.add_var("x", VarType::Integer, 0.0, 3.0);
    let y = m.add_var("y", VarType::Integer, 0.0, 3.0);
    m.add_constraint("lo", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 2.5);
    m.add_constraint("hi", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 2.7);
    m.set_objective(vec![(x, 1.0), (y, 2.0)], 0.0);
    m
}

/// Six binaries with `2·Σx = 5`: every root vertex is fractional and no
/// integer point exists, so a one-node search ends in `NodeLimit`.
fn odd_parity() -> Model {
    let mut m = Model::new("parity", Sense::Maximize);
    let xs: Vec<_> = (0..6).map(|i| m.add_binary(format!("b{i}"))).collect();
    m.add_constraint(
        "sum",
        xs.iter().map(|&v| (v, 2.0)).collect(),
        ConstraintOp::Eq,
        5.0,
    );
    m.set_objective(xs.iter().map(|&v| (v, 1.0)).collect(), 0.0);
    m
}

/// A pure LP (no integer variable): the solve returns duals.
fn pure_lp(n: usize) -> Model {
    let mut m = Model::new(format!("lp{n}"), Sense::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|j| m.add_cont(format!("y{j}"), 0.0, 3.0))
        .collect();
    m.add_constraint(
        "all",
        vars.iter().map(|&v| (v, 1.0)).collect(),
        ConstraintOp::Le,
        n as f64 + 0.5,
    );
    m.add_constraint(
        "tilt",
        vars.iter()
            .enumerate()
            .map(|(j, &v)| (v, 1.0 + j as f64))
            .collect(),
        ConstraintOp::Le,
        2.0 * n as f64,
    );
    m.set_objective(
        vars.iter()
            .enumerate()
            .map(|(j, &v)| (v, 3.0 - j as f64 * 0.5))
            .collect(),
        0.0,
    );
    m
}

/// An infeasible pure LP (`x ≤ 1` against `x ≥ 2`).
fn lp_infeasible() -> Model {
    let mut m = Model::new("lp-infeasible", Sense::Minimize);
    let x = m.add_cont("x", 0.0, 1.0);
    m.add_constraint("hi", vec![(x, 1.0)], ConstraintOp::Ge, 2.0);
    m.set_objective(vec![(x, 1.0)], 0.0);
    m
}

/// Two free variables bounded only jointly (`x ± z`), so root
/// propagation cannot give either a finite bound: no dual-feasible cold
/// start exists and the root starts with the revised engine's dual
/// phase 1. The relaxation's `y = 1.5` makes it branch.
fn free_variable() -> Model {
    let mut m = Model::new("free", Sense::Minimize);
    let x = m.add_cont("x", f64::NEG_INFINITY, f64::INFINITY);
    let z = m.add_cont("z", f64::NEG_INFINITY, f64::INFINITY);
    let y = m.add_var("y", VarType::Integer, 0.0, 5.0);
    let w = m.add_cont("w", 0.0, 1.0);
    m.add_constraint("sum", vec![(x, 1.0), (z, 1.0)], ConstraintOp::Ge, 3.0);
    m.add_constraint("diff", vec![(x, 1.0), (z, -1.0)], ConstraintOp::Ge, 1.0);
    m.add_constraint("cover", vec![(y, 1.0), (w, 1.0)], ConstraintOp::Ge, 1.5);
    m.set_objective(vec![(x, 1.0), (y, 0.6), (w, 1.0)], 0.0);
    m
}

/// One workspace solves a sequence of models that grow and shrink,
/// fail (infeasible, node limit), skip branching (pure LP) and start
/// with the dual phase 1 (free variable), twice over. Every result equals a
/// fresh-workspace solve bit for bit, so nothing an earlier solve — or
/// its error path — left in the workspace leaks into the next one.
#[test]
fn one_workspace_serves_changing_shapes_and_error_paths() {
    let default = MipSolver::default();
    let one_node = MipSolver {
        max_nodes: 1,
        ..MipSolver::default()
    };
    let steps: Vec<(Model, &MipSolver)> = vec![
        (packing(2, 1), &default),
        (packing(7, 5), &default),
        (integer_infeasible(), &default),
        (packing(4, 2), &default),
        (odd_parity(), &one_node),
        (pure_lp(3), &default),
        (free_variable(), &default),
        (packing(9, 6), &default),
        (lp_infeasible(), &default),
        (packing(1, 1), &default),
        (pure_lp(5), &default),
    ];
    let mut ws = MipWorkspace::default();
    let mut solves = 0usize;
    for pass in 0..2 {
        for (model, solver) in &steps {
            let ctx = format!("pass {pass}, {}", model.name);
            let kept = solver.solve_in(model, None, &mut ws).map(|(s, _)| s);
            let fresh = solver.solve(&model.clone());
            assert_same_outcome(&ctx, &kept, &fresh, solves > 0);
            solves += 1;
        }
    }
    // The sequence covers what it claims to.
    let fresh = |i: usize| steps[i].1.solve(&steps[i].0);
    assert!(fresh(1).is_ok_and(|s| s.mip.expect("stats").nodes > 1));
    assert_eq!(fresh(2), Err(SolveError::Infeasible));
    assert_eq!(fresh(4), Err(SolveError::NodeLimit { nodes: 1 }));
    assert!(fresh(5).is_ok_and(|s| s.duals.is_some()));
    // The free-variable model starts with the dual phase 1 once; its
    // children warm-start from their parents' bases.
    assert!(fresh(6).is_ok_and(|s| {
        let stats = s.mip.expect("stats");
        stats.nodes > 1
            && stats.trace.lp.phase1_starts == 1
            && stats.trace.warm_starts == stats.nodes - 1
    }));
    assert_eq!(fresh(8), Err(SolveError::Infeasible));
}

/// The random mutation stream of the tests above, every case and step
/// through one shared workspace: shapes change from case to case, and
/// each solve still equals a fresh-workspace solve bit for bit.
#[test]
fn one_workspace_matches_fresh_solves_across_random_cases() {
    let solver = MipSolver::default();
    let ws = RefCell::new(MipWorkspace::default());
    let solves = Cell::new(0usize);
    for_random_cases(0xA400, |rng, mut spec| {
        let mut model = spec.build();
        for step in 0..MUTATIONS_PER_CASE {
            let mutation = Mutation::random(rng, &spec, None);
            mutation.apply(&mut spec, &mut model);
            let kept = solver
                .solve_in(&model, None, &mut ws.borrow_mut())
                .map(|(s, _)| s);
            let fresh = solver.solve(&spec.build());
            assert_same_outcome(&format!("step {step}"), &kept, &fresh, solves.get() > 0);
            solves.set(solves.get() + 1);
        }
    });
}
