//! Randomized property tests: the simplex/branch-and-bound stack against
//! brute-force enumeration on small bounded integer programs, plus
//! feasibility and relaxation-bound invariants on random LPs.
//!
//! Cases are drawn from a seeded [`billcap_rt`] generator, so every run
//! checks the exact same instances — failures reproduce by construction,
//! with no external property-testing framework required.

use billcap_milp::{
    parse_lp, propagate_bounds, write_lp, ConstraintOp, MipSolver, Model, Sense, SolveError,
    VarType,
};
use billcap_rt::{Rng, Xoshiro256pp};

const CASES: usize = 256;

/// A small random integer program: `max c'x  s.t.  Ax <= b, 0 <= x <= ubound`.
#[derive(Debug, Clone)]
struct SmallIp {
    n: usize,
    a: Vec<Vec<f64>>,
    b: Vec<f64>,
    c: Vec<f64>,
    ubound: i64,
}

impl SmallIp {
    /// Draws an instance; `b >= 0`, so `x = 0` is always feasible.
    fn random(rng: &mut Xoshiro256pp) -> Self {
        let n = rng.random_usize_in(1, 3);
        let m = rng.random_usize_in(1, 3);
        let ubound = rng.random_i64_in(1, 4);
        let a = (0..m)
            .map(|_| (0..n).map(|_| rng.random_i64_in(-3, 5) as f64).collect())
            .collect();
        let b = (0..m).map(|_| rng.random_i64_in(0, 20) as f64).collect();
        let c = (0..n).map(|_| rng.random_i64_in(-5, 5) as f64).collect();
        Self { n, a, b, c, ubound }
    }
}

/// Exhaustive optimum of a `SmallIp` (x = 0 is always feasible since b >= 0).
fn brute_force(ip: &SmallIp) -> f64 {
    let mut best = f64::NEG_INFINITY;
    let points = (ip.ubound + 1).pow(ip.n as u32);
    for code in 0..points {
        let mut x = Vec::with_capacity(ip.n);
        let mut rem = code;
        for _ in 0..ip.n {
            x.push((rem % (ip.ubound + 1)) as f64);
            rem /= ip.ubound + 1;
        }
        let feasible = ip.a.iter().zip(&ip.b).all(|(row, &bi)| {
            row.iter().zip(&x).map(|(aij, xj)| aij * xj).sum::<f64>() <= bi + 1e-9
        });
        if feasible {
            let obj: f64 = ip.c.iter().zip(&x).map(|(cj, xj)| cj * xj).sum();
            best = best.max(obj);
        }
    }
    best
}

fn build_model(ip: &SmallIp, integer: bool) -> Model {
    let mut m = Model::new("prop", Sense::Maximize);
    let vt = if integer {
        VarType::Integer
    } else {
        VarType::Continuous
    };
    let vars: Vec<_> = (0..ip.n)
        .map(|j| m.add_var(format!("x{j}"), vt, 0.0, ip.ubound as f64))
        .collect();
    for (i, (row, &bi)) in ip.a.iter().zip(&ip.b).enumerate() {
        m.add_constraint(
            format!("c{i}"),
            vars.iter().zip(row).map(|(&v, &aij)| (v, aij)).collect(),
            ConstraintOp::Le,
            bi,
        );
    }
    m.set_objective(
        vars.iter().zip(&ip.c).map(|(&v, &cj)| (v, cj)).collect(),
        0.0,
    );
    m
}

/// Runs `check` against `CASES` seeded instances, reporting the failing
/// case index and instance on panic.
fn for_random_ips(seed: u64, check: impl Fn(&mut Xoshiro256pp, &SmallIp)) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    for case in 0..CASES {
        let ip = SmallIp::random(&mut rng);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&mut rng, &ip)));
        if let Err(e) = result {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            panic!("case {case} failed on {ip:?}: {msg}");
        }
    }
}

/// Branch-and-bound matches exhaustive enumeration exactly.
#[test]
fn mip_matches_brute_force() {
    for_random_ips(0x1000, |_, ip| {
        let expected = brute_force(ip);
        let model = build_model(ip, true);
        let sol = MipSolver::default().solve(&model).expect("x=0 is feasible");
        assert!(
            (sol.objective - expected).abs() < 1e-6,
            "mip {} != brute {}",
            sol.objective,
            expected
        );
        assert!(model.is_feasible(&sol.values, 1e-6));
    });
}

/// The LP relaxation is an upper bound on the integer optimum, and the
/// LP solution is primal feasible for the relaxed model.
#[test]
fn lp_relaxation_bounds_mip() {
    for_random_ips(0x2000, |_, ip| {
        let int_model = build_model(ip, true);
        let rel_model = build_model(ip, false);
        let mip = MipSolver::default().solve(&int_model).unwrap();
        let lp = MipSolver::default().solve(&rel_model).unwrap();
        assert!(
            lp.objective >= mip.objective - 1e-6,
            "lp {} < mip {}",
            lp.objective,
            mip.objective
        );
        assert!(rel_model.is_feasible(&lp.values, 1e-6));
    });
}

/// Scaling the objective scales the optimum; translating constraints'
/// rhs upward (looser) never decreases a maximization optimum.
#[test]
fn objective_scaling_and_rhs_monotonicity() {
    for_random_ips(0x3000, |rng, ip| {
        let k = rng.random_f64_in(1.0, 5.0);
        let model = build_model(ip, false);
        let base = MipSolver::default().solve(&model).unwrap();

        let mut scaled = build_model(ip, false);
        scaled.set_objective(
            model
                .objective()
                .to_vec()
                .into_iter()
                .map(|(v, c)| (v, c * k))
                .collect(),
            0.0,
        );
        let s = MipSolver::default().solve(&scaled).unwrap();
        assert!((s.objective - k * base.objective).abs() < 1e-6 * (1.0 + base.objective.abs() * k));

        let mut looser = ip.clone();
        for bi in &mut looser.b {
            *bi += 1.0;
        }
        let loose_model = build_model(&looser, false);
        let l = MipSolver::default().solve(&loose_model).unwrap();
        assert!(l.objective >= base.objective - 1e-7);
    });
}

/// Bound propagation on models that actually trigger it: the base
/// instance is decorated with a fixed variable coupled into a multi-term
/// row, a singleton row tightening a bound, and a big-M indicator row.
/// Propagation must tighten something without moving the fixed variable.
/// The linter reads the propagated box as implied by the rows, so the
/// MILP optimum must lie inside it, and solving over that box instead of
/// the declared bounds must find the same optimum.
#[test]
fn milp_optimum_lies_in_the_propagated_box_with_fixed_singleton_and_bigm_rows() {
    for_random_ips(0x7000, |rng, ip| {
        let mut model = build_model(ip, true);
        let vars: Vec<_> = (0..ip.n).map(billcap_milp::VarId::from_index).collect();

        // A variable fixed by declaration, coupled to the others so its
        // substitution rewrites a multi-term row's rhs.
        let fv = rng.random_i64_in(0, 3) as f64;
        let fixed = model.add_var("fixed", VarType::Integer, fv, fv);
        let mut coupling: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        coupling.push((fixed, 1.0));
        let slack = rng.random_i64_in(0, 10) as f64;
        model.add_constraint(
            "couple",
            coupling,
            ConstraintOp::Le,
            fv + ip.ubound as f64 * ip.n as f64 + slack,
        );

        // A singleton row tightening the first variable's upper bound.
        let cap = rng.random_i64_in(0, ip.ubound) as f64;
        model.add_constraint("single", vec![(vars[0], 2.0)], ConstraintOp::Le, 2.0 * cap);

        // A big-M indicator `q <= M z` with M far below q's declared
        // bound — the shape the propagation pass tightens (q <= M). M is
        // kept modest on purpose: an M near 1/INT_TOL lets the LP park z
        // at an "integral" sliver and round to an infeasible point,
        // which is exactly what lint code M002 warns about.
        let m_coef = rng.random_i64_in(2, 10) as f64;
        let q = model.add_var("q", VarType::Integer, 0.0, 100.0);
        let z = model.add_var("z", VarType::Binary, 0.0, 1.0);
        model.add_constraint("bigm", vec![(q, 1.0), (z, -m_coef)], ConstraintOp::Le, 0.0);
        let mut obj = model.objective().to_vec();
        obj.push((q, 1.0));
        model.set_objective(obj, 0.0);

        let direct = MipSolver::default().solve(&model).expect("x=0, z=0 works");
        let prop = propagate_bounds(&model).expect("a feasible point exists");
        assert!(
            prop.tightened >= 1,
            "the big-M row must trigger at least one propagated tightening"
        );
        assert_eq!(prop.bounds[fixed.index()], (fv, fv), "fixed variable moved");
        assert!(model.is_feasible(&direct.values, 1e-6));

        let mut boxed = model.clone();
        for (j, (&x, &(lb, ub))) in direct.values.iter().zip(&prop.bounds).enumerate() {
            assert!(
                lb - 1e-6 <= x && x <= ub + 1e-6,
                "the optimum's var {j} = {x} lies outside the propagated [{lb}, {ub}]"
            );
            boxed.set_var_bounds(billcap_milp::VarId::from_index(j), lb, ub);
        }
        let within = MipSolver::default().solve(&boxed).unwrap();
        assert!(
            (within.objective - direct.objective).abs() < 1e-6,
            "the propagated box changed the optimum: {} vs {}",
            direct.objective,
            within.objective
        );
    });
}

/// LP-format round trip preserves the optimum on random models.
#[test]
fn lp_format_roundtrip_preserves_optimum() {
    for_random_ips(0x5000, |_, ip| {
        let model = build_model(ip, true);
        let direct = MipSolver::default().solve(&model).unwrap();
        let parsed = parse_lp(&write_lp(&model)).expect("own output parses");
        let back = MipSolver::default().solve(&parsed).unwrap();
        assert!(
            (back.objective - direct.objective).abs() < 1e-6,
            "roundtrip {} vs direct {}",
            back.objective,
            direct.objective
        );
    });
}

/// Adding an equality `sum(x) == t` for a feasible integer `t` keeps the
/// model solvable and the solution honours the equality.
#[test]
fn equality_pinning() {
    for_random_ips(0x6000, |rng, ip| {
        let t = rng.random_i64_in(0, 2);
        let mut model = build_model(ip, true);
        let vars: Vec<_> = (0..ip.n).map(billcap_milp::VarId::from_index).collect();
        model.add_constraint(
            "pin",
            vars.iter().map(|&v| (v, 1.0)).collect(),
            ConstraintOp::Eq,
            t as f64,
        );
        match MipSolver::default().solve(&model) {
            Ok(sol) => {
                let total: f64 = sol.values.iter().sum();
                assert!((total - t as f64).abs() < 1e-6);
                assert!(model.is_feasible(&sol.values, 1e-6));
            }
            Err(SolveError::Infeasible) => {} // legitimately infeasible
            Err(e) => panic!("unexpected: {e}"),
        }
    });
}
