//! Incremental-model equivalence: mutate-then-solve must equal
//! rebuild-then-solve.
//!
//! 256 seeded (model, mutation-sequence) cases. Each case draws a small
//! mixed-integer program, wraps one copy in an [`IncrementalModel`] and
//! mirrors every mutation into a plain spec that is rebuilt from scratch
//! each step. After every mutation both paths are solved and compared:
//!
//! * **Exact mode** (no basis reuse — the serve daemon's default): the
//!   mutated model is float-for-float identical to the rebuilt one, so
//!   the solutions must match *bitwise* (objective bits and every value),
//!   and infeasibility verdicts must agree.
//! * **Basis-reuse mode**: the carried root basis may land on a different
//!   vertex among alternative optima, so objectives are compared within
//!   tolerance and both solutions must pass the independent
//!   [`certify_solution`] checker (primal feasibility, integrality,
//!   objective honesty, bound consistency).
//!
//! Mutation kinds cover the whole value surface — RHS, matrix
//! coefficients, objective coefficients, variable bounds — plus targeted
//! RHS moves that flip a row from binding to slack (and back) at the
//! current optimum, the case where a stale basis is most tempting.

use billcap_milp::{
    certify_solution, ConstraintOp, IncrementalModel, IncrementalSolver, MipSolver, Model, Sense,
    SolveError, VarId, VarType,
};
use billcap_rt::{Rng, Xoshiro256pp};

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

/// One value-only edit, applied identically to the incremental model and
/// the rebuild spec.
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

    fn apply(self, spec: &mut SpecState, im: &mut IncrementalModel) {
        match self {
            Mutation::Rhs { row, rhs } => {
                spec.rhs[row] = rhs;
                im.set_rhs(&format!("c{row}"), rhs).expect("row exists");
            }
            Mutation::Coeff { row, var, coeff } => {
                spec.a[row][var] = coeff;
                im.set_coeff(&format!("c{row}"), VarId::from_index(var), coeff)
                    .expect("dense rows: every term exists");
            }
            Mutation::Objective { var, coeff } => {
                spec.c[var] = coeff;
                im.set_objective_coeff(VarId::from_index(var), coeff)
                    .expect("dense objective: every term exists");
            }
            Mutation::Bounds { var, lb, ub } => {
                spec.lb[var] = lb;
                spec.ub[var] = ub;
                im.set_var_bounds(VarId::from_index(var), lb, ub)
                    .expect("ordered bounds");
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

/// Exact mode: mutate-then-solve is bitwise identical to
/// rebuild-then-solve after every mutation, including agreeing on
/// infeasibility.
#[test]
fn exact_mode_matches_rebuild_bitwise() {
    for_random_cases(0xA100, |rng, mut spec| {
        let mut im = IncrementalModel::new(spec.build()).expect("valid model");
        let hash = im.structural_hash();
        let mut inc = IncrementalSolver::new(MipSolver::default());
        let mut last_values: Option<Vec<f64>> = None;
        for step in 0..MUTATIONS_PER_CASE {
            let mutation = Mutation::random(rng, &spec, last_values.as_deref());
            mutation.apply(&mut spec, &mut im);
            assert_eq!(
                im.structural_hash(),
                hash,
                "step {step}: value mutation moved the structural hash"
            );
            let fresh = spec.build();
            let a = inc.solve(&im);
            let b = MipSolver::default().solve(&fresh);
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

/// Basis-reuse mode: the carried root basis never changes the optimum.
/// Objectives match the rebuild oracle within tolerance and every
/// returned solution passes independent certification.
#[test]
fn basis_reuse_preserves_the_optimum() {
    for_random_cases(0xA200, |rng, mut spec| {
        let mut im = IncrementalModel::new(spec.build()).expect("valid model");
        let mut warm = IncrementalSolver::new(MipSolver::default());
        warm.reuse_basis = true;
        let mut last_values: Option<Vec<f64>> = None;
        for step in 0..MUTATIONS_PER_CASE {
            let mutation = Mutation::random(rng, &spec, last_values.as_deref());
            mutation.apply(&mut spec, &mut im);
            let fresh = spec.build();
            let a = warm.solve(&im);
            let b = MipSolver::default().solve(&fresh);
            match (&a, &b) {
                (Ok(sa), Ok(sb)) => {
                    let scale = sb.objective.abs().max(1.0);
                    assert!(
                        (sa.objective - sb.objective).abs() <= 1e-7 * scale,
                        "step {step} ({mutation:?}): warm {} vs rebuild {}",
                        sa.objective,
                        sb.objective
                    );
                    for (label, model, sol) in [("warm", im.model(), sa), ("rebuild", &fresh, sb)] {
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
        let mut im = IncrementalModel::new(spec.build()).expect("valid model");
        for _ in 0..MUTATIONS_PER_CASE {
            let mutation = Mutation::random(rng, &spec, None);
            mutation.apply(&mut spec, &mut im);
        }
        let fresh = spec.build();
        let a = solver.solve(im.model());
        let b = solver.solve(&fresh);
        match (&a, &b) {
            (Ok(sa), Ok(sb)) => {
                assert_eq!(sa.objective.to_bits(), sb.objective.to_bits());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&sa.values), bits(&sb.values), "values diverged");
                for (label, model, sol) in [("mutated", im.model(), sa), ("rebuild", &fresh, sb)] {
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
