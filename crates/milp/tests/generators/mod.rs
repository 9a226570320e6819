//! Seeded random model generators shared by the differential suites:
//! small MILPs, box-bounded LPs and general LPs. Each draws its
//! instance from the caller's RNG, so a seed reproduces a sequence.

use billcap_milp::{ConstraintOp, Model, Sense, VarId, VarType};
use billcap_rt::{Rng, Xoshiro256pp};

/// Draws a random small MILP. Roughly half the instances are pure-integer
/// (the oracle then never touches the simplex), the rest mix in bounded
/// continuous variables; senses, operators and signs all vary. `Ge`/`Eq`
/// rows make a fraction of instances infeasible on purpose.
pub fn random_model(rng: &mut Xoshiro256pp, tag: usize) -> Model {
    let sense = if rng.random::<bool>() {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut m = Model::new(format!("diff_{tag}"), sense);
    let n_bin = rng.random_usize_in(2, 5);
    let n_int = rng.random_usize_in(0, 2);
    let n_cont = rng.random_usize_in(0, 2);
    let mut vars = Vec::new();
    for j in 0..n_bin {
        vars.push(m.add_binary(format!("b{j}")));
    }
    for j in 0..n_int {
        let ub = rng.random_i64_in(1, 3) as f64;
        vars.push(m.add_var(format!("k{j}"), VarType::Integer, 0.0, ub));
    }
    for j in 0..n_cont {
        let ub = rng.random_f64_in(1.0, 6.0);
        vars.push(m.add_cont(format!("x{j}"), 0.0, ub));
    }
    let rows = rng.random_usize_in(1, 4);
    for r in 0..rows {
        let mut terms = Vec::new();
        for &v in &vars {
            if rng.random::<f64>() < 0.8 {
                terms.push((v, rng.random_i64_in(-4, 6) as f64));
            }
        }
        if terms.is_empty() {
            continue;
        }
        let op = match rng.random_below(10) {
            0..=6 => ConstraintOp::Le,
            7..=8 => ConstraintOp::Ge,
            _ => ConstraintOp::Eq,
        };
        let rhs = match op {
            // b >= 0-ish keeps a healthy share of Le-only instances feasible.
            ConstraintOp::Le => rng.random_i64_in(0, 12) as f64,
            ConstraintOp::Ge => rng.random_i64_in(-2, 6) as f64,
            ConstraintOp::Eq => rng.random_i64_in(0, 4) as f64,
        };
        m.add_constraint(format!("r{r}"), terms, op, rhs);
    }
    let obj: Vec<_> = vars
        .iter()
        .map(|&v| (v, rng.random_i64_in(-5, 7) as f64))
        .collect();
    m.set_objective(obj, rng.random_i64_in(-3, 3) as f64);
    m
}

/// Draws a random box-bounded *continuous* LP: every variable has finite
/// bounds, so the revised engine cold-starts without a phase 1.
pub fn random_lp(rng: &mut Xoshiro256pp, tag: usize) -> Model {
    let sense = if rng.random::<bool>() {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut m = Model::new(format!("lp_{tag}"), sense);
    let n = rng.random_usize_in(2, 6);
    let vars: Vec<_> = (0..n)
        .map(|j| {
            let lb = rng.random_f64_in(-3.0, 0.0);
            let ub = lb + rng.random_f64_in(0.5, 8.0);
            m.add_cont(format!("x{j}"), lb, ub)
        })
        .collect();
    add_random_rows(rng, &mut m, &vars);
    m.set_objective(
        vars.iter()
            .map(|&v| (v, rng.random_i64_in(-5, 7) as f64))
            .collect(),
        rng.random_i64_in(-3, 3) as f64,
    );
    m
}

/// Up to four random rows over `vars` with small integer coefficients,
/// mixed operators and right-hand sides.
fn add_random_rows(rng: &mut Xoshiro256pp, m: &mut Model, vars: &[VarId]) {
    let rows = rng.random_usize_in(1, 4);
    for r in 0..rows {
        let mut terms = Vec::new();
        for &v in vars {
            if rng.random::<f64>() < 0.8 {
                terms.push((v, rng.random_i64_in(-4, 6) as f64));
            }
        }
        if terms.is_empty() {
            continue;
        }
        let op = match rng.random_below(10) {
            0..=6 => ConstraintOp::Le,
            7..=8 => ConstraintOp::Ge,
            _ => ConstraintOp::Eq,
        };
        let rhs = rng.random_i64_in(-2, 10) as f64;
        m.add_constraint(format!("r{r}"), terms, op, rhs);
    }
}

/// Draws a random *general* continuous LP: each variable is free,
/// lower-bounded only, upper-bounded only or boxed, so many instances
/// have no dual-feasible cold placement and start with the revised
/// engine's dual phase 1, and a share are unbounded.
pub fn random_general_lp(rng: &mut Xoshiro256pp, tag: usize) -> Model {
    let sense = if rng.random::<bool>() {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut m = Model::new(format!("general_{tag}"), sense);
    let n = rng.random_usize_in(1, 5);
    let vars: Vec<_> = (0..n)
        .map(|j| {
            let lb = rng.random_i64_in(-3, 1) as f64;
            let ub = lb + rng.random_i64_in(1, 6) as f64;
            let (lb, ub) = match rng.random_below(4) {
                0 => (f64::NEG_INFINITY, f64::INFINITY),
                1 => (lb, f64::INFINITY),
                2 => (f64::NEG_INFINITY, ub),
                _ => (lb, ub),
            };
            m.add_cont(format!("x{j}"), lb, ub)
        })
        .collect();
    add_random_rows(rng, &mut m, &vars);
    m.set_objective(
        vars.iter()
            .map(|&v| (v, rng.random_i64_in(-5, 5) as f64))
            .collect(),
        rng.random_i64_in(-3, 3) as f64,
    );
    m
}
