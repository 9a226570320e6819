//! Static model analyzer: pre-solve diagnostics with stable codes.
//!
//! [`lint_model`] inspects a [`Model`] *without solving it* and returns a
//! [`LintReport`] of stable-coded findings (`M0xx`), each carrying a
//! severity, a `model:row`/`model:var` location, and a one-line
//! actionable message. The checks target the failure modes of the
//! bill-capping MILPs — loose big-M segment rows, broken exactly-one
//! level selection, contradictory duplicated rows — plus the generic
//! model smells (dangling variables, extreme coefficient ranges) that
//! precede silent wrong answers.
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | M001 | Warning | row coefficient range exceeds 1e8 (ill-conditioned) |
//! | M002 | Warning | big-M row is looser than the bounded variable needs |
//! | M003 | Error   | exactly-one row over non-binary participants |
//! | M004 | Error/Warning/Info | contradictory (Error), redundant (Warning) or range (Info) parallel rows |
//! | M005 | Warning | variable appears in no constraint and no objective |
//! | M006 | Info    | continuous variable is implied integral |
//! | M007 | Error   | bounds are statically infeasible (propagation proof) |
//! | M008 | Error   | objective is statically unbounded |
//! | M009 | Info    | bound propagation tightened N bounds |
//! | M010 | Info    | model dimensions and conditioning summary |
//!
//! Severities gate behavior: `Error` findings mean the model is broken
//! and solving it wastes work or returns garbage; `Warning` findings
//! deserve a look; `Info` findings are structural facts. Only the
//! structural validation and M003, M004 (its contradiction case), M007
//! and M008 can file an `Error`. [`lint_gate`] runs just those checks
//! and returns their `Error` findings, formatting nothing for a clean
//! model; the capper's decision engine runs it on every model it builds
//! and refuses one it finds fault with (see `billcap-core`).
//! [`lint_model`] runs the same checks through the gate, then adds the
//! advisory ones.

use crate::model::{ConstraintOp, Model, VarType};
use crate::presolve::propagate_bounds;
use crate::SolveError;
use billcap_obs::json::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Row coefficient dynamic range (`max|a| / min|a|`) above which M001
/// fires: beyond ~1e8 a double's 15–16 significant digits leave under
/// half the mantissa for the smaller coefficient during pivoting.
const ROW_RANGE_WARN: f64 = 1e8;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Structural fact, no action needed.
    Info,
    /// Suspicious; worth a look but the model is solvable.
    Warning,
    /// The model is broken: solving it wastes work or returns garbage.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One diagnostic produced by a linter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable code (`M0xx` for model lints, `S0xx` for spec lints).
    pub code: &'static str,
    /// How serious the finding is.
    pub severity: Severity,
    /// Where: `model:row`/`model:var` for model lints, a spec field path
    /// (`sites[0].power_cap_mw`) for spec lints.
    pub location: String,
    /// One-line actionable message.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [{}] {}",
            self.location, self.severity, self.code, self.message
        )
    }
}

impl Finding {
    /// The finding as a JSON object (one line of the JSONL export).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("code".into(), Value::Str(self.code.into())),
            ("severity".into(), Value::Str(self.severity.to_string())),
            ("location".into(), Value::Str(self.location.clone())),
            ("message".into(), Value::Str(self.message.clone())),
        ])
    }
}

/// Dimensions and conditioning statistics of a linted model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelStats {
    /// Variables.
    pub vars: usize,
    /// Integer and binary variables.
    pub int_vars: usize,
    /// Constraints.
    pub rows: usize,
    /// Nonzero constraint coefficients.
    pub nonzeros: usize,
    /// Smallest nonzero |coefficient| across all rows (0 when empty).
    pub min_abs_coeff: f64,
    /// Largest |coefficient| across all rows (0 when empty).
    pub max_abs_coeff: f64,
}

impl ModelStats {
    /// `max|a| / min|a|` over the whole matrix (1 when empty): a cheap
    /// proxy for how much precision the simplex can lose to scaling.
    fn dynamic_range(&self) -> f64 {
        if self.min_abs_coeff > 0.0 {
            self.max_abs_coeff / self.min_abs_coeff
        } else {
            1.0
        }
    }
}

/// Result of linting one model: findings plus summary statistics.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// All findings, in code order (M001 … M010).
    pub findings: Vec<Finding>,
    /// Model dimensions and conditioning.
    pub stats: ModelStats,
}

impl LintReport {
    /// Findings at [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// Whether the report carries no `Error`-severity finding.
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Whether any finding carries `code`.
    pub fn has(&self, code: &str) -> bool {
        self.findings.iter().any(|f| f.code == code)
    }

    /// The findings as JSONL (one object per line), matching the
    /// billcap-obs export conventions.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_json().render());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        Ok(())
    }
}

/// Lints `model` without solving it. Never fails: a model too malformed
/// to analyze (e.g. out-of-range variable references) is itself reported
/// as an `Error` finding.
pub fn lint_model(model: &Model) -> LintReport {
    let stats = compute_stats(model);
    let mut findings = Vec::new();
    let mut advisory = Vec::new();
    if refusing_checks(model, &mut findings, Some(&mut advisory)) {
        check_row_ranges(model, &mut advisory);
        check_big_m(model, &mut advisory);
        check_dangling(model, &mut advisory);
        check_implied_integrality(model, &mut advisory);
        advisory.push(Finding {
            code: "M010",
            severity: Severity::Info,
            location: model.name.clone(),
            message: format!(
                "{} vars ({} integer), {} rows, {} nonzeros, coefficient range {:.1e}",
                stats.vars,
                stats.int_vars,
                stats.rows,
                stats.nonzeros,
                stats.dynamic_range()
            ),
        });
        findings.append(&mut advisory);
        // Stable, so findings of one code keep their check order.
        findings.sort_by_key(|f| f.code);
    }
    LintReport { findings, stats }
}

/// The checks that can refuse `model`: structural validation (filed
/// under `M007`), `M003`, `M004`'s contradiction case, `M007` and
/// `M008`. Returns their `Error` findings; for a clean model that is an
/// empty vector, and no finding is formatted. [`lint_model`] runs these
/// same checks and adds the advisory ones.
pub fn lint_gate(model: &Model) -> Vec<Finding> {
    let mut errors = Vec::new();
    refusing_checks(model, &mut errors, None);
    errors
}

/// Runs the refusing checks, pushing their `Error` findings onto
/// `errors` and, when `advisory` is given, the `Warning` and `Info`
/// findings the same passes yield (M004's duplicates and ranges, M009)
/// onto it. Returns whether `model` passed structural validation; the
/// other checks run only on a valid model.
fn refusing_checks(
    model: &Model,
    errors: &mut Vec<Finding>,
    mut advisory: Option<&mut Vec<Finding>>,
) -> bool {
    if let Err(e) = model.validate() {
        errors.push(Finding {
            code: "M007",
            severity: Severity::Error,
            location: model.name.clone(),
            message: format!("model fails structural validation: {e}"),
        });
        return false;
    }
    check_exactly_one(model, errors);
    check_parallel_rows(model, errors, advisory.as_deref_mut());
    check_propagation(model, errors, advisory);
    true
}

fn compute_stats(model: &Model) -> ModelStats {
    let mut min_abs = f64::INFINITY;
    let mut max_abs: f64 = 0.0;
    let mut nonzeros = 0usize;
    for c in model.constraints() {
        for &(_, a) in &c.terms {
            if a != 0.0 && a.is_finite() {
                nonzeros += 1;
                min_abs = min_abs.min(a.abs());
                max_abs = max_abs.max(a.abs());
            }
        }
    }
    ModelStats {
        vars: model.num_vars(),
        int_vars: model.integer_vars().len(),
        rows: model.num_constraints(),
        nonzeros,
        min_abs_coeff: if nonzeros > 0 { min_abs } else { 0.0 },
        max_abs_coeff: max_abs,
    }
}

/// M001: per-row coefficient dynamic range.
fn check_row_ranges(model: &Model, findings: &mut Vec<Finding>) {
    for c in model.constraints() {
        let (mut min_abs, mut max_abs) = (f64::INFINITY, 0.0f64);
        for &(_, a) in &c.terms {
            if a != 0.0 {
                min_abs = min_abs.min(a.abs());
                max_abs = max_abs.max(a.abs());
            }
        }
        if max_abs > 0.0 && max_abs / min_abs > ROW_RANGE_WARN {
            findings.push(Finding {
                code: "M001",
                severity: Severity::Warning,
                location: format!("{}:{}", model.name, c.name),
                message: format!(
                    "coefficient range {:.1e} (|a| in [{min_abs:.3e}, {max_abs:.3e}]) \
                     risks precision loss; rescale the row's units",
                    max_abs / min_abs
                ),
            });
        }
    }
}

/// M002: two-term big-M rows `x − M·z ≤ 0` (binary `z`) where `M`
/// exceeds what `x`'s own upper bound already enforces.
fn check_big_m(model: &Model, findings: &mut Vec<Finding>) {
    let vars = model.variables();
    for c in model.constraints() {
        if c.op != ConstraintOp::Le || c.rhs.abs() > 1e-9 || c.terms.len() != 2 {
            continue;
        }
        // Identify the (positive continuous, negative binary) pair.
        let (pos, neg) = match (c.terms[0], c.terms[1]) {
            ((x, a), (z, b)) if a > 0.0 && b < 0.0 => ((x, a), (z, b)),
            ((z, b), (x, a)) if a > 0.0 && b < 0.0 => ((x, a), (z, b)),
            _ => continue,
        };
        let (xv, a) = pos;
        let (zv, b) = neg;
        if vars[zv.index()].var_type != VarType::Binary {
            continue;
        }
        let big_m = -b / a; // row is a·x ≤ (−b)·z, i.e. x ≤ M·z
        let x_ub = vars[xv.index()].ub;
        if x_ub.is_finite() && big_m > x_ub * (1.0 + 1e-9) && x_ub > 0.0 {
            findings.push(Finding {
                code: "M002",
                severity: Severity::Warning,
                location: format!("{}:{}", model.name, c.name),
                message: format!(
                    "big-M {big_m:.6} is looser than ub({}) = {x_ub:.6}; \
                     tighten M to the variable bound for a stronger relaxation",
                    vars[xv.index()].name
                ),
            });
        }
    }
}

/// M003: rows `Σ z_j = 1` with unit coefficients whose participants are
/// not all binary — the exactly-one level selection silently breaks.
fn check_exactly_one(model: &Model, findings: &mut Vec<Finding>) {
    let vars = model.variables();
    for c in model.constraints() {
        if c.op != ConstraintOp::Eq || (c.rhs - 1.0).abs() > 1e-9 || c.terms.len() < 2 {
            continue;
        }
        if !c.terms.iter().all(|&(_, a)| (a - 1.0).abs() < 1e-9) {
            continue;
        }
        for &(v, _) in &c.terms {
            let var = &vars[v.index()];
            let binary_like = matches!(var.var_type, VarType::Binary)
                || (matches!(var.var_type, VarType::Integer) && var.lb >= 0.0 && var.ub <= 1.0);
            if !binary_like {
                findings.push(Finding {
                    code: "M003",
                    severity: Severity::Error,
                    location: format!("{}:{}", model.name, c.name),
                    message: format!(
                        "exactly-one row includes non-binary '{}' \
                         ({:?} in [{}, {}]); selection semantics are broken",
                        var.name, var.var_type, var.lb, var.ub
                    ),
                });
            }
        }
    }
}

/// M004: rows with identical normalized coefficient vectors.
/// Contradictory pairs make the model infeasible in a way that surfaces
/// as a deep simplex failure instead of a message (an `Error`, pushed
/// onto `errors`). The other pairs go to `advisory`, when given: a pair
/// where one row implies the other wastes pivots (a `Warning`), while a
/// `≤`/`≥` pair whose intervals meet is a range that needs both rows
/// (`Info`).
fn check_parallel_rows(
    model: &Model,
    errors: &mut Vec<Finding>,
    mut advisory: Option<&mut Vec<Finding>>,
) {
    // Normalize each row: terms sorted by variable, scaled so the first
    // coefficient is +1. The scale flips Le/Ge when negative.
    type Key = Vec<(usize, u64)>;
    let mut groups: BTreeMap<Key, Vec<(usize, ConstraintOp, f64)>> = BTreeMap::new();
    for (ci, c) in model.constraints().iter().enumerate() {
        let mut terms: Vec<(usize, f64)> = c
            .terms
            .iter()
            .filter(|&&(_, a)| a != 0.0)
            .map(|&(v, a)| (v.index(), a))
            .collect();
        if terms.is_empty() {
            continue;
        }
        terms.sort_by_key(|&(v, _)| v);
        let scale = terms[0].1;
        let op = if scale > 0.0 {
            c.op
        } else {
            match c.op {
                ConstraintOp::Le => ConstraintOp::Ge,
                ConstraintOp::Ge => ConstraintOp::Le,
                ConstraintOp::Eq => ConstraintOp::Eq,
            }
        };
        let key: Key = terms
            .iter()
            .map(|&(v, a)| (v, (a / scale).to_bits()))
            .collect();
        groups.entry(key).or_default().push((ci, op, c.rhs / scale));
    }
    for rows in groups.values() {
        // Intersect the intervals each row imposes on the shared
        // expression; an empty intersection is a static contradiction.
        for w in rows.windows(2) {
            let (i, op_a, rhs_a) = w[0];
            let (j, op_b, rhs_b) = w[1];
            let interval = |op: ConstraintOp, r: f64| match op {
                ConstraintOp::Le => (f64::NEG_INFINITY, r),
                ConstraintOp::Ge => (r, f64::INFINITY),
                ConstraintOp::Eq => (r, r),
            };
            let (lo_a, hi_a) = interval(op_a, rhs_a);
            let (lo_b, hi_b) = interval(op_b, rhs_b);
            let (lo, hi) = (lo_a.max(lo_b), hi_a.min(hi_b));
            let tol = 1e-9 * rhs_a.abs().max(rhs_b.abs()).max(1.0);
            let name_i = &model.constraints()[i].name;
            let location = || format!("{}:{}", model.name, model.constraints()[j].name);
            if lo > hi + tol {
                errors.push(Finding {
                    code: "M004",
                    severity: Severity::Error,
                    location: location(),
                    message: format!(
                        "contradicts parallel row '{name_i}' \
                         (same coefficients, incompatible right-hand sides); \
                         the model is infeasible"
                    ),
                });
                continue;
            }
            let Some(advisory) = advisory.as_deref_mut() else {
                continue;
            };
            let range = matches!(
                (op_a, op_b),
                (ConstraintOp::Le, ConstraintOp::Ge) | (ConstraintOp::Ge, ConstraintOp::Le)
            );
            if range {
                advisory.push(Finding {
                    code: "M004",
                    severity: Severity::Info,
                    location: location(),
                    message: format!(
                        "forms a range with parallel row '{name_i}': together they \
                         hold the scaled expression in [{lo}, {hi}], and neither \
                         implies the other; keep both"
                    ),
                });
            } else {
                advisory.push(Finding {
                    code: "M004",
                    severity: Severity::Warning,
                    location: location(),
                    message: format!(
                        "duplicates row '{name_i}' (parallel coefficients, and one \
                         row implies the other); drop the implied one"
                    ),
                });
            }
        }
    }
}

/// M005: variables referenced by no constraint and no objective term.
fn check_dangling(model: &Model, findings: &mut Vec<Finding>) {
    let mut used = vec![false; model.num_vars()];
    for c in model.constraints() {
        for &(v, a) in &c.terms {
            if a != 0.0 {
                used[v.index()] = true;
            }
        }
    }
    for &(v, a) in model.objective() {
        if a != 0.0 {
            used[v.index()] = true;
        }
    }
    for (i, var) in model.variables().iter().enumerate() {
        if !used[i] {
            findings.push(Finding {
                code: "M005",
                severity: Severity::Warning,
                location: format!("{}:{}", model.name, var.name),
                message: "variable appears in no constraint or objective; \
                          remove it or wire it in"
                    .into(),
            });
        }
    }
}

/// M006: continuous variables that take integer values at every vertex
/// — all their rows are equalities with integer data over otherwise
/// integer variables — could be declared integer for free.
fn check_implied_integrality(model: &Model, findings: &mut Vec<Finding>) {
    let vars = model.variables();
    let is_intlike = |i: usize| matches!(vars[i].var_type, VarType::Integer | VarType::Binary);
    'outer: for (i, var) in vars.iter().enumerate() {
        if is_intlike(i) {
            continue;
        }
        let mut appears = false;
        for c in model.constraints() {
            let mine: Vec<&(crate::model::VarId, f64)> = c
                .terms
                .iter()
                .filter(|&&(v, a)| v.index() == i && a != 0.0)
                .collect();
            if mine.is_empty() {
                continue;
            }
            appears = true;
            // Needs: equality row, own coefficient ±1, all data integral,
            // every other participant integer-typed.
            let own_unit = mine.iter().all(|&&(_, a)| (a.abs() - 1.0).abs() < 1e-12);
            let integral_data = c.rhs.fract().abs() < 1e-12
                && c.terms.iter().all(|&(_, a)| a.fract().abs() < 1e-12);
            let others_integer = c
                .terms
                .iter()
                .filter(|&&(v, a)| v.index() != i && a != 0.0)
                .all(|&(v, _)| is_intlike(v.index()));
            if c.op != ConstraintOp::Eq || !own_unit || !integral_data || !others_integer {
                continue 'outer;
            }
        }
        if appears {
            findings.push(Finding {
                code: "M006",
                severity: Severity::Info,
                location: format!("{}:{}", model.name, var.name),
                message: "continuous variable is integral at every vertex \
                          (unit coefficients in all-integer equality rows); \
                          declaring it integer costs nothing"
                    .into(),
            });
        }
    }
}

/// M007/M008/M009: activity-based bound propagation. A propagation-time
/// infeasibility is a static proof the solver would otherwise discover
/// through simplex failures (M007); a still-infinite improving-direction
/// bound on an unconstrained objective variable proves unboundedness
/// (M008). Both are `Error`s, pushed onto `errors`; the tightening
/// summary (M009, `Info`) goes to `advisory`, when given.
fn check_propagation(
    model: &Model,
    errors: &mut Vec<Finding>,
    advisory: Option<&mut Vec<Finding>>,
) {
    let prop = match propagate_bounds(model) {
        Ok(p) => p,
        Err(SolveError::Infeasible) => {
            errors.push(Finding {
                code: "M007",
                severity: Severity::Error,
                location: model.name.clone(),
                message: "bounds are statically infeasible: propagating row \
                          activities empties a variable's domain before any \
                          simplex work"
                    .into(),
            });
            return;
        }
        Err(e) => {
            errors.push(Finding {
                code: "M007",
                severity: Severity::Error,
                location: model.name.clone(),
                message: format!("bound propagation failed: {e}"),
            });
            return;
        }
    };
    if let Some(advisory) = advisory {
        if prop.tightened > 0 {
            advisory.push(Finding {
                code: "M009",
                severity: Severity::Info,
                location: model.name.clone(),
                message: format!(
                    "bound propagation tightened {} bound(s) in {} round(s); \
                     the rows imply a tighter box than the declared bounds",
                    prop.tightened, prop.rounds
                ),
            });
        }
    }

    // M008: a variable that no constraint touches, pushed toward an
    // infinite bound by the objective, makes the model unbounded (when
    // feasible at all — M007 covers the infeasible case).
    let mut constrained = vec![false; model.num_vars()];
    for c in model.constraints() {
        for &(v, a) in &c.terms {
            if a != 0.0 {
                constrained[v.index()] = true;
            }
        }
    }
    for &(v, coeff) in model.objective() {
        if coeff == 0.0 || constrained[v.index()] {
            continue;
        }
        let (lb, ub) = prop.bounds[v.index()];
        let improving_to_inf = match model.sense {
            crate::model::Sense::Maximize => {
                (coeff > 0.0 && ub == f64::INFINITY) || (coeff < 0.0 && lb == f64::NEG_INFINITY)
            }
            crate::model::Sense::Minimize => {
                (coeff > 0.0 && lb == f64::NEG_INFINITY) || (coeff < 0.0 && ub == f64::INFINITY)
            }
        };
        if improving_to_inf {
            errors.push(Finding {
                code: "M008",
                severity: Severity::Error,
                location: format!("{}:{}", model.name, model.variables()[v.index()].name),
                message: "objective is statically unbounded: the variable is \
                          unconstrained and its improving direction has no \
                          finite bound"
                    .into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    fn codes(r: &LintReport) -> Vec<&'static str> {
        r.findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn clean_model_has_no_errors() {
        let mut m = Model::new("clean", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 10.0);
        let z = m.add_binary("z");
        m.add_constraint("c", vec![(x, 1.0), (z, 2.0)], ConstraintOp::Le, 8.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let r = lint_model(&m);
        assert!(r.is_clean(), "{r}");
        assert!(r.has("M010"));
    }

    #[test]
    fn flags_extreme_row_range() {
        let mut m = Model::new("range", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 1.0);
        let y = m.add_cont("y", 0.0, 1.0);
        m.add_constraint("bad", vec![(x, 1e9), (y, 1.0)], ConstraintOp::Le, 1.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let r = lint_model(&m);
        assert!(r.has("M001"), "{r}");
        assert!(r.is_clean()); // warning, not error
    }

    #[test]
    fn flags_loose_big_m() {
        let mut m = Model::new("bigm", Sense::Minimize);
        let q = m.add_cont("q", 0.0, 100.0);
        let z = m.add_binary("z");
        // M = 5000 dwarfs ub(q) = 100.
        m.add_constraint(
            "lvl_hi",
            vec![(q, 1.0), (z, -5000.0)],
            ConstraintOp::Le,
            0.0,
        );
        m.set_objective(vec![(q, 1.0)], 0.0);
        let r = lint_model(&m);
        assert!(r.has("M002"), "{r}");
    }

    #[test]
    fn flags_broken_exactly_one() {
        let mut m = Model::new("sos", Sense::Minimize);
        let z0 = m.add_binary("z0");
        let z1 = m.add_cont("z1", 0.0, 5.0); // not binary!
        m.add_constraint("one", vec![(z0, 1.0), (z1, 1.0)], ConstraintOp::Eq, 1.0);
        m.set_objective(vec![(z0, 1.0)], 0.0);
        let r = lint_model(&m);
        assert!(r.has("M003"), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn flags_duplicate_and_contradictory_rows() {
        let mut m = Model::new("dup", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("a", vec![(x, 1.0), (y, 2.0)], ConstraintOp::Le, 8.0);
        m.add_constraint("b", vec![(x, 2.0), (y, 4.0)], ConstraintOp::Le, 16.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let r = lint_model(&m);
        let dup: Vec<_> = r.findings.iter().filter(|f| f.code == "M004").collect();
        assert_eq!(dup.len(), 1, "{r}");
        assert_eq!(dup[0].severity, Severity::Warning);

        // Contradictory: same expression forced to two different values.
        let mut m = Model::new("contra", Sense::Minimize);
        let x = m.add_cont("x", f64::NEG_INFINITY, f64::INFINITY);
        let y = m.add_cont("y", f64::NEG_INFINITY, f64::INFINITY);
        m.add_constraint("a", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 3.0);
        m.add_constraint("b", vec![(x, -1.0), (y, -1.0)], ConstraintOp::Eq, -7.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let r = lint_model(&m);
        assert!(
            r.findings
                .iter()
                .any(|f| f.code == "M004" && f.severity == Severity::Error),
            "{r}"
        );
    }

    #[test]
    fn flags_dangling_variable() {
        let mut m = Model::new("dangle", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let _unused = m.add_cont("ghost", 0.0, 1.0);
        m.add_constraint("c", vec![(x, 1.0)], ConstraintOp::Ge, 1.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let r = lint_model(&m);
        let f = r.findings.iter().find(|f| f.code == "M005").expect("M005");
        assert!(f.location.ends_with("ghost"), "{}", f.location);
    }

    #[test]
    fn flags_implied_integrality() {
        let mut m = Model::new("impl", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let k = m.add_var("k", VarType::Integer, 0.0, 10.0);
        m.add_constraint("eq", vec![(x, 1.0), (k, -2.0)], ConstraintOp::Eq, 3.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let r = lint_model(&m);
        assert!(r.has("M006"), "{r}");
    }

    #[test]
    fn flags_static_infeasibility() {
        let mut m = Model::new("inf", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 25.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let r = lint_model(&m);
        assert!(r.has("M007"), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn flags_static_unboundedness() {
        let mut m = Model::new("unb", Sense::Maximize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let r = lint_model(&m);
        // x is both dangling (M005) and the unboundedness witness (M008).
        assert!(r.has("M008"), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn reports_propagation_summary() {
        let mut m = Model::new("prop", Sense::Maximize);
        let q = m.add_cont("q", 0.0, 1000.0);
        let z = m.add_binary("z");
        m.add_constraint("hi", vec![(q, 1.0), (z, -400.0)], ConstraintOp::Le, 0.0);
        m.set_objective(vec![(q, 1.0)], 0.0);
        let r = lint_model(&m);
        assert!(r.has("M009"), "{r}");
    }

    #[test]
    fn jsonl_round_trips_through_obs_parser() {
        let mut m = Model::new("json", Sense::Maximize);
        let x = m.add_cont("x", 0.0, f64::INFINITY);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let r = lint_model(&m);
        let jsonl = r.to_jsonl();
        let mut n = 0;
        for line in jsonl.lines() {
            let v = Value::parse(line).expect("valid JSON line");
            assert!(v.get("code").is_some() && v.get("severity").is_some());
            n += 1;
        }
        assert_eq!(n, r.findings.len());
    }

    #[test]
    fn invalid_model_reports_instead_of_panicking() {
        let mut m = Model::new("bad", Sense::Minimize);
        let x = m.add_cont("x", 0.0, 1.0);
        m.add_constraint(
            "c",
            vec![(crate::model::VarId::from_index(7), 1.0)],
            ConstraintOp::Le,
            1.0,
        );
        m.set_objective(vec![(x, 1.0)], 0.0);
        let r = lint_model(&m);
        assert!(r.has("M007") && !r.is_clean());
        let _ = codes(&r);
    }

    #[test]
    fn optimizer_models_lint_clean_is_checked_in_core() {
        // The real cost_min/throughput models are linted in
        // billcap-core's tests, where they can be built; here just make
        // sure a representative piecewise structure passes.
        let mut m = Model::new("piecewise", Sense::Minimize);
        let lam = m.add_cont("lam_0", 0.0, 1.2);
        let q0 = m.add_cont("q_0_0", 0.0, 450.0);
        let q1 = m.add_cont("q_0_1", 0.0, 550.0);
        let z0 = m.add_binary("z_0_0");
        let z1 = m.add_binary("z_0_1");
        m.add_constraint(
            "lvl_hi_0_0",
            vec![(q0, 1.0), (z0, -449.0)],
            ConstraintOp::Le,
            0.0,
        );
        m.add_constraint(
            "lvl_hi_0_1",
            vec![(q1, 1.0), (z1, -550.0)],
            ConstraintOp::Le,
            0.0,
        );
        m.add_constraint(
            "lvl_lo_0_1",
            vec![(q1, 1.0), (z1, -120.0)],
            ConstraintOp::Ge,
            0.0,
        );
        m.add_constraint(
            "one_level_0",
            vec![(z0, 1.0), (z1, 1.0)],
            ConstraintOp::Eq,
            1.0,
        );
        m.add_constraint(
            "power_0",
            vec![(q0, 1.0), (q1, 1.0), (lam, -430.0)],
            ConstraintOp::Eq,
            0.004,
        );
        m.add_constraint("demand", vec![(lam, 1.0)], ConstraintOp::Eq, 0.9);
        m.set_objective(vec![(q0, 30.0), (q1, 45.0)], 0.0);
        let r = lint_model(&m);
        assert!(r.is_clean(), "{r}");
        assert!(!r.has("M004"), "{r}");
        assert!(lint_gate(&m).is_empty());
    }

    /// A `≤`/`≥` pair whose intervals meet is a range: both rows are
    /// needed, so it is reported as Info, not as a duplicate. Pinned
    /// (`l = u`) is the capper's case: `q − 120·z` held to exactly 0.
    #[test]
    fn parallel_le_ge_pair_is_a_range() {
        for (lo_rhs, hi_rhs) in [(0.0, 0.0), (-5.0, 3.0)] {
            let mut m = Model::new("range", Sense::Minimize);
            let q = m.add_cont("q", 0.0, 120.0);
            let z = m.add_binary("z");
            m.add_constraint("hi", vec![(q, 1.0), (z, -120.0)], ConstraintOp::Le, hi_rhs);
            m.add_constraint("lo", vec![(q, 1.0), (z, -120.0)], ConstraintOp::Ge, lo_rhs);
            m.set_objective(vec![(q, 1.0)], 0.0);
            let r = lint_model(&m);
            let m004: Vec<_> = r.findings.iter().filter(|f| f.code == "M004").collect();
            assert_eq!(m004.len(), 1, "{r}");
            assert_eq!(m004[0].severity, Severity::Info, "{r}");
            assert!(m004[0].message.contains("range"), "{r}");
            assert!(r.is_clean() && lint_gate(&m).is_empty(), "{r}");
        }
    }

    /// A parallel pair where one row implies the other (same direction,
    /// or an equality inside the other's interval) is a duplicate.
    #[test]
    fn parallel_implied_pair_is_a_duplicate() {
        let pairs = [
            (ConstraintOp::Le, 8.0, ConstraintOp::Le, 9.0),
            (ConstraintOp::Ge, 1.0, ConstraintOp::Ge, 1.0),
            (ConstraintOp::Eq, 4.0, ConstraintOp::Le, 6.0),
            (ConstraintOp::Eq, 4.0, ConstraintOp::Eq, 4.0),
        ];
        for (op_a, rhs_a, op_b, rhs_b) in pairs {
            let mut m = Model::new("dup", Sense::Minimize);
            let x = m.add_cont("x", 0.0, 10.0);
            let y = m.add_cont("y", 0.0, 10.0);
            m.add_constraint("a", vec![(x, 1.0), (y, 1.0)], op_a, rhs_a);
            m.add_constraint("b", vec![(x, 1.0), (y, 1.0)], op_b, rhs_b);
            m.set_objective(vec![(x, 1.0)], 0.0);
            let r = lint_model(&m);
            let m004: Vec<_> = r.findings.iter().filter(|f| f.code == "M004").collect();
            assert_eq!(m004.len(), 1, "{op_a:?} {op_b:?}: {r}");
            assert_eq!(m004[0].severity, Severity::Warning, "{r}");
            assert!(m004[0].message.contains("duplicates"), "{r}");
        }
    }

    /// The gate files exactly the Error findings of the full lint, and
    /// nothing for a model with only advisory findings.
    #[test]
    fn gate_returns_exactly_the_full_lints_errors() {
        let mut models = Vec::new();
        // Advisory findings only: a loose big-M, a dangling variable.
        let mut m = Model::new("advisory", Sense::Minimize);
        let q = m.add_cont("q", 0.0, 100.0);
        let z = m.add_binary("z");
        let _ghost = m.add_cont("ghost", 0.0, 1.0);
        m.add_constraint("hi", vec![(q, 1.0), (z, -5000.0)], ConstraintOp::Le, 0.0);
        m.set_objective(vec![(q, 1.0)], 0.0);
        models.push(m);
        // Every refusing check: M003, M004 contradiction, M007, M008.
        let mut m = Model::new("broken", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 10.0);
        let y = m.add_cont("y", 0.0, 10.0);
        let w = m.add_cont("w", 0.0, f64::INFINITY);
        let z0 = m.add_binary("z0");
        let z1 = m.add_cont("z1", 0.0, 5.0);
        m.add_constraint("one", vec![(z0, 1.0), (z1, 1.0)], ConstraintOp::Eq, 1.0);
        m.add_constraint("a", vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 25.0);
        m.add_constraint("b", vec![(x, 2.0), (y, 2.0)], ConstraintOp::Le, 4.0);
        m.set_objective(vec![(x, 1.0), (w, 1.0)], 0.0);
        models.push(m);
        // Structurally invalid.
        let mut m = Model::new("invalid", Sense::Minimize);
        m.add_constraint(
            "c",
            vec![(crate::model::VarId::from_index(3), 1.0)],
            ConstraintOp::Le,
            1.0,
        );
        models.push(m);
        let mut codes_seen = Vec::new();
        for m in &models {
            let full = lint_model(m);
            let gate = lint_gate(m);
            let errors: Vec<&Finding> = full.errors().collect();
            assert_eq!(gate.iter().collect::<Vec<_>>(), errors, "{}", m.name);
            codes_seen.extend(gate.iter().map(|f| f.code));
        }
        assert!(lint_gate(&models[0]).is_empty());
        for code in ["M003", "M004", "M007"] {
            assert!(codes_seen.contains(&code), "{code}: {codes_seen:?}");
        }
        // M008 needs a feasible box; w alone on a clean model.
        let mut m = Model::new("unb", Sense::Maximize);
        let w = m.add_cont("w", 0.0, f64::INFINITY);
        m.set_objective(vec![(w, 1.0)], 0.0);
        let gate = lint_gate(&m);
        assert_eq!(gate.len(), 1);
        assert_eq!(gate[0].code, "M008");
    }
}
