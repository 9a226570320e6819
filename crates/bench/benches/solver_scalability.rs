//! Solver scalability (paper Section IV-C): step-1 MILP solve time versus
//! data-center count at 5 price levels and 1e8 requests, plus solver
//! variants and a raw simplex solve. The paper reports lp_solve finishing within ~2 ms for 13 sites; this
//! bench records the equivalent numbers for the in-tree solver.

use billcap_core::CostMinimizer;
use billcap_milp::MipSolver;
use billcap_rt::Harness;
use billcap_sim::experiments::synthetic_system;
use std::hint::black_box;

fn backgrounds(n: usize) -> Vec<f64> {
    (0..n).map(|i| 330.0 + 40.0 * (i % 3) as f64).collect()
}

fn bench_step1_by_sites(h: &mut Harness) {
    for n in [3usize, 5, 8, 13] {
        let system = synthetic_system(n);
        let d = backgrounds(n);
        let minimizer = CostMinimizer::default();
        h.bench(&format!("step1_milp_by_sites/{n}"), || {
            let alloc = minimizer
                .solve(black_box(&system), black_box(1e8), black_box(&d))
                .expect("feasible");
            black_box(alloc.total_cost)
        });
    }
}

fn bench_step1_by_load(h: &mut Harness) {
    let system = synthetic_system(3);
    let d = backgrounds(3);
    let minimizer = CostMinimizer::default();
    for lambda in [1e7, 1e8, 5e8, 1.2e9] {
        h.bench(&format!("step1_milp_by_load/{lambda:.0e}"), || {
            let alloc = minimizer
                .solve(black_box(&system), black_box(lambda), black_box(&d))
                .expect("feasible");
            black_box(alloc.total_cost)
        });
    }
}

fn bench_solver_variants(h: &mut Harness) {
    let system = synthetic_system(3);
    let d = backgrounds(3);

    let minimizer = CostMinimizer::default();
    h.bench("solver_variants/best_bound", || {
        minimizer.solve(&system, 5e8, &d).unwrap().total_cost
    });
}

fn bench_raw_simplex(h: &mut Harness) {
    // A dense LP of the size a 13-site relaxation produces, to separate
    // simplex cost from branch-and-bound overhead (a model with no
    // integer variables never branches).
    use billcap_milp::{ConstraintOp, Model, Sense};
    let mut m = Model::new("raw", Sense::Minimize);
    let n = 60;
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_cont(format!("x{i}"), 0.0, 100.0))
        .collect();
    for r in 0..40 {
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, ((r * 7 + j * 3) % 11) as f64 - 3.0))
            .collect();
        m.add_constraint(format!("c{r}"), terms, ConstraintOp::Le, 50.0 + r as f64);
    }
    m.set_objective(
        vars.iter()
            .enumerate()
            .map(|(j, &v)| (v, ((j % 13) as f64) - 6.0))
            .collect(),
        0.0,
    );
    let solver = MipSolver::default();
    h.bench("raw_simplex_60x40", || {
        solver.solve(black_box(&m)).unwrap().objective
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_step1_by_sites(&mut h);
    bench_step1_by_load(&mut h);
    bench_solver_variants(&mut h);
    bench_raw_simplex(&mut h);
    h.finish();
}
