//! Differential test suite: branch-and-bound vs the brute-force oracle.
//!
//! Seeded random small MILPs are solved by exhaustive enumeration
//! ([`billcap_milp::brute_force_solve`]) and by `MipSolver`, and seeded
//! LPs by `MipSolver`'s revised simplex and the dense tableau oracle
//! ([`billcap_milp::LpSolver`]). Every feasible answer must agree on the
//! objective, infeasibility and unboundedness verdicts must coincide, and
//! every returned solution must pass the independent certificate checker.
//! Instances reproduce exactly from the seed — no external fuzzing
//! framework involved.

mod generators;

use billcap_milp::{
    brute_force_solve, certify_solution, ConstraintOp, LpSolver, MipSolver, MipWorkspace, Model,
    RevisedOptions, Sense, Solution, SolveError,
};
use billcap_rt::{Rng, Xoshiro256pp};
use generators::{random_general_lp, random_lp, random_model};

/// Number of seeded instances per suite (the acceptance bar is 200 across
/// the suite; each of the two fuzz tests runs this many on its own).
const CASES: usize = 220;

fn assert_certified(m: &Model, sol: &Solution, what: &str, tag: usize) {
    let report = certify_solution(m, sol);
    assert!(
        report.certified(),
        "case {tag}: {what} solution failed certification: {report}"
    );
}

/// Oracle vs branch-and-bound over seeded instances.
#[test]
fn solver_matches_oracle() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xD1FF);
    let mut feasible = 0usize;
    let mut infeasible = 0usize;
    for tag in 0..CASES {
        let m = random_model(&mut rng, tag);
        let oracle = brute_force_solve(&m);
        let seq = MipSolver::default().solve(&m);
        match (&oracle, &seq) {
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {
                infeasible += 1;
            }
            (Ok(o), Ok(s)) => {
                feasible += 1;
                let tol = 1e-6 * (1.0 + o.objective.abs());
                assert!(
                    (o.objective - s.objective).abs() <= tol,
                    "case {tag}: oracle {} vs solver {}\n{m:?}",
                    o.objective,
                    s.objective
                );
                assert_certified(&m, o, "oracle", tag);
                assert_certified(&m, s, "solver", tag);
            }
            (o, s) => panic!(
                "case {tag}: oracle and solver disagree on feasibility: {o:?} vs {s:?}\n{m:?}"
            ),
        }
    }
    // The generator must exercise both verdicts, and mostly feasible ones.
    assert!(
        feasible >= CASES / 2,
        "only {feasible}/{CASES} instances feasible"
    );
    assert!(infeasible > 0, "no infeasible instances generated");
}

/// Pure-binary knapsack-style instances hit the oracle's no-simplex path
/// and stress tie-breaking: many optima share the objective value.
#[test]
fn pure_binary_instances_agree_with_oracle() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xBEEF);
    for tag in 0..CASES {
        let mut m = Model::new(format!("knap_{tag}"), Sense::Maximize);
        let n = rng.random_usize_in(3, 8);
        let items: Vec<_> = (0..n).map(|j| m.add_binary(format!("b{j}"))).collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.random_i64_in(1, 9) as f64).collect();
        let cap = rng.random_i64_in(3, 20) as f64;
        m.add_constraint(
            "w",
            items.iter().copied().zip(weights).collect(),
            ConstraintOp::Le,
            cap,
        );
        m.set_objective(
            items
                .iter()
                .map(|&v| (v, rng.random_i64_in(0, 10) as f64))
                .collect(),
            0.0,
        );
        let oracle = brute_force_solve(&m).expect("x = 0 is always feasible");
        let sol = MipSolver::default()
            .solve(&m)
            .expect("x = 0 is always feasible");
        assert!(
            (oracle.objective - sol.objective).abs() <= 1e-9 * (1.0 + oracle.objective.abs()),
            "case {tag}: oracle {} vs solver {}",
            oracle.objective,
            sol.objective
        );
        assert_certified(&m, &sol, "solver", tag);
    }
}

/// The dense tableau oracle vs `MipSolver`'s revised simplex on one LP:
/// verdicts must coincide, objectives must agree within certificate
/// tolerance, and both optima (the revised one with its duals) must
/// certify. Returns the shared verdict.
fn compare_with_dense(m: &Model, tag: usize) -> Result<(), SolveError> {
    let dense = LpSolver::default().solve(m);
    let revised = MipSolver::default().solve(m);
    match (&dense, &revised) {
        (Err(d), Err(r)) if d == r => Err(d.clone()),
        (Ok(d), Ok(r)) => {
            let tol = 1e-6 * (1.0 + d.objective.abs());
            assert!(
                (d.objective - r.objective).abs() <= tol,
                "case {tag}: dense {} vs revised {}\n{m:?}",
                d.objective,
                r.objective
            );
            assert_certified(m, d, "dense LP", tag);
            assert!(
                r.duals.is_some(),
                "case {tag}: revised LP solution carries no duals"
            );
            assert_certified(m, r, "revised LP", tag);
            Ok(())
        }
        (d, r) => panic!("case {tag}: dense and revised disagree: {d:?} vs {r:?}\n{m:?}"),
    }
}

/// Dense two-phase simplex vs sparse revised simplex on seeded box-bounded
/// LPs: feasibility verdicts must coincide, objectives must agree within
/// certificate tolerance, and both solutions (duals included) must pass
/// the independent certificate checker.
#[test]
fn dense_and_revised_lps_agree_and_certify() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EED);
    let mut feasible = 0usize;
    let mut infeasible = 0usize;
    for tag in 0..CASES {
        match compare_with_dense(&random_lp(&mut rng, tag), tag) {
            Ok(()) => feasible += 1,
            Err(SolveError::Infeasible) => infeasible += 1,
            Err(e) => panic!("case {tag}: a box-bounded LP cannot end in {e}"),
        }
    }
    assert!(
        feasible >= CASES / 2,
        "only {feasible}/{CASES} LPs feasible"
    );
    assert!(infeasible > 0, "no infeasible LPs generated");
}

/// The same comparison on LPs with free, lower-only and upper-only
/// variables in both senses: every verdict (optimal, infeasible,
/// unbounded) must occur, and the revised engine's dual phase 1 must
/// have started some of them.
#[test]
fn general_lps_agree_with_the_dense_oracle() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x6E4E);
    let (mut optimal, mut infeasible, mut unbounded, mut phase1) = (0usize, 0, 0, 0);
    for tag in 0..CASES {
        let m = random_general_lp(&mut rng, tag);
        match compare_with_dense(&m, tag) {
            Ok(()) => optimal += 1,
            Err(SolveError::Infeasible) => infeasible += 1,
            Err(SolveError::Unbounded) => unbounded += 1,
            Err(e) => panic!("case {tag}: unexpected {e}\n{m:?}"),
        }
        if let Ok(sol) = MipSolver::default().solve(&m) {
            phase1 += sol.mip.expect("stats").trace.lp.phase1_starts;
        }
    }
    assert!(
        optimal >= CASES / 4,
        "only {optimal}/{CASES} general LPs optimal"
    );
    assert!(infeasible > 0, "no infeasible general LPs generated");
    assert!(unbounded > 0, "no unbounded general LPs generated");
    assert!(phase1 > 0, "no optimal general LP needed the dual phase 1");
}

/// Warm-started vs cold-started branch-and-bound vs the brute-force
/// oracle on seeded MILPs: the three must agree on feasibility and
/// (within certificate tolerance) on the optimal objective, and every
/// incumbent must certify. The cold path is the oracle for warm starts
/// on random models; `billcap-core`'s engine tests run the same check
/// on the capper's own models.
#[test]
fn warm_cold_and_dense_mips_agree_and_certify() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x30A7);
    let mut feasible = 0usize;
    for tag in 0..CASES {
        let m = random_model(&mut rng, tag);
        let warm = MipSolver {
            warm_start: true,
            ..MipSolver::default()
        }
        .solve(&m);
        let cold = MipSolver {
            warm_start: false,
            ..MipSolver::default()
        }
        .solve(&m);
        let oracle = brute_force_solve(&m);
        match (&warm, &cold, &oracle) {
            (
                Err(SolveError::Infeasible),
                Err(SolveError::Infeasible),
                Err(SolveError::Infeasible),
            ) => {}
            (Ok(w), Ok(c), Ok(o)) => {
                feasible += 1;
                let tol = 1e-6 * (1.0 + o.objective.abs());
                assert!(
                    (w.objective - o.objective).abs() <= tol,
                    "case {tag}: warm {} vs oracle {}\n{m:?}",
                    w.objective,
                    o.objective
                );
                assert!(
                    (c.objective - o.objective).abs() <= tol,
                    "case {tag}: cold {} vs oracle {}\n{m:?}",
                    c.objective,
                    o.objective
                );
                assert_certified(&m, w, "warm-start", tag);
                assert_certified(&m, c, "cold-start", tag);
                assert_certified(&m, o, "oracle", tag);
            }
            (w, c, o) => panic!(
                "case {tag}: configurations disagree on feasibility: \
                 warm {w:?} vs cold {c:?} vs oracle {o:?}\n{m:?}"
            ),
        }
    }
    assert!(
        feasible >= CASES / 2,
        "only {feasible}/{CASES} instances feasible"
    );
}

/// Solves `m` by default — the revised simplex updates `x_B` and the
/// duals between refactorizations — and with `refactor_every: 1`, which
/// refactorizes after every pivot and so rebuilds both each time. The
/// two must reach the same verdict and status, objectives within 1e-9
/// relative, and certified solutions. Returns whether `m` had an
/// optimum.
fn updates_match_rebuilds(m: &Model, tag: usize) -> bool {
    let solver = MipSolver::default();
    let updated = solver.solve(m);
    let mut ws = MipWorkspace::with_lp_options(RevisedOptions {
        refactor_every: 1,
        ..RevisedOptions::default()
    });
    let rebuilt = solver.solve_in(m, None, &mut ws).map(|(sol, _)| sol);
    match (&updated, &rebuilt) {
        (Ok(u), Ok(r)) => {
            assert_eq!(u.status, r.status, "case {tag}: status\n{m:?}");
            let tol = 1e-9 * u.objective.abs().max(1.0);
            assert!(
                (u.objective - r.objective).abs() <= tol,
                "case {tag}: updated {} vs rebuilt {}\n{m:?}",
                u.objective,
                r.objective
            );
            assert_certified(m, u, "updated", tag);
            assert_certified(m, r, "rebuilt", tag);
            // Every pivot was followed by a refactorization and rebuild.
            let lp = r.mip.expect("stats").trace.lp;
            assert!(lp.refactorizations >= lp.iterations, "case {tag}");
            assert!(lp.xb_refreshes > lp.iterations, "case {tag}");
            true
        }
        (Err(u), Err(r)) if u == r => false,
        (u, r) => panic!("case {tag}: updated {u:?} vs rebuilt {r:?}\n{m:?}"),
    }
}

/// [`updates_match_rebuilds`] over the seeded MILPs, box-bounded LPs and
/// general LPs of the suites above.
#[test]
fn pivot_updates_agree_with_per_pivot_rebuilds() {
    let mut optimal = 0usize;
    let mut rng = Xoshiro256pp::seed_from_u64(0xD1FF);
    for tag in 0..CASES {
        optimal += usize::from(updates_match_rebuilds(&random_model(&mut rng, tag), tag));
    }
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EED);
    for tag in 0..CASES {
        optimal += usize::from(updates_match_rebuilds(&random_lp(&mut rng, tag), tag));
    }
    let mut rng = Xoshiro256pp::seed_from_u64(0x6E4E);
    for tag in 0..CASES {
        optimal += usize::from(updates_match_rebuilds(
            &random_general_lp(&mut rng, tag),
            tag,
        ));
    }
    assert!(optimal >= CASES, "only {optimal} of {} optimal", 3 * CASES);
}

/// The certifier must reject what the solver never produced: a corrupted
/// incumbent smuggled into an otherwise-genuine solution.
#[test]
fn certifier_rejects_cross_instance_solutions() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xCAFE);
    let mut rejected = 0usize;
    let mut attempts = 0usize;
    let solver = MipSolver::default();
    for tag in 0..40 {
        let a = random_model(&mut rng, 1000 + tag);
        let b = random_model(&mut rng, 2000 + tag);
        let (Ok(sa), Ok(sb)) = (solver.solve(&a), solver.solve(&b)) else {
            continue;
        };
        if sa.values.len() != sb.values.len() || sa.objective.to_bits() == sb.objective.to_bits() {
            continue;
        }
        // Same dimension, different optimum: b's solution claimed for a
        // must trip at least one certificate check.
        attempts += 1;
        if !certify_solution(&a, &sb).certified() {
            rejected += 1;
        }
    }
    assert!(attempts >= 5, "generator produced too few comparable pairs");
    assert!(
        rejected * 10 >= attempts * 9,
        "only {rejected}/{attempts} foreign solutions rejected"
    );
}
