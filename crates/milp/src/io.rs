//! CPLEX LP-format serialization.
//!
//! `lp_solve` users inspect models as text; this module provides the same
//! workflow for `billcap-milp`: [`write_lp`] renders a [`Model`] in the
//! (widely supported) CPLEX LP format and [`parse_lp`] reads the subset
//! this crate writes, so models round-trip exactly and can be checked
//! against external solvers.
//!
//! Supported subset: a single linear objective, linear constraints with
//! `<=`, `>=`, `=`, a `Bounds` section (including `free` and one- or
//! two-sided bounds), and `General`/`Binary` integrality sections.

use crate::error::SolveError;
use crate::model::{ConstraintOp, Model, Sense, VarId, VarType};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Renders a model in CPLEX LP format.
pub fn write_lp(model: &Model) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\\ Problem: {}", model.name);
    out.push_str(match model.sense {
        Sense::Minimize => "Minimize\n",
        Sense::Maximize => "Maximize\n",
    });
    out.push_str(" obj:");
    if model.objective().is_empty() && model.objective_constant() == 0.0 {
        out.push_str(" 0");
    } else {
        write_terms(&mut out, model, model.objective());
        if model.objective_constant() != 0.0 {
            let _ = write!(out, " {:+}", model.objective_constant());
        }
    }
    out.push('\n');

    out.push_str("Subject To\n");
    for (i, c) in model.constraints().iter().enumerate() {
        let name = sanitize(&c.name, &format!("c{i}"));
        let _ = write!(out, " {name}:");
        if c.terms.is_empty() {
            out.push_str(" 0");
        } else {
            write_terms(&mut out, model, &c.terms);
        }
        let op = match c.op {
            ConstraintOp::Le => "<=",
            ConstraintOp::Ge => ">=",
            ConstraintOp::Eq => "=",
        };
        let _ = writeln!(out, " {op} {}", fmt_num(c.rhs));
    }

    out.push_str("Bounds\n");
    for (i, v) in model.variables().iter().enumerate() {
        let name = var_name(model, VarId(i));
        match (v.lb.is_finite(), v.ub.is_finite()) {
            (true, true) => {
                let _ = writeln!(out, " {} <= {name} <= {}", fmt_num(v.lb), fmt_num(v.ub));
            }
            (true, false) => {
                let _ = writeln!(out, " {name} >= {}", fmt_num(v.lb));
            }
            (false, true) => {
                let _ = writeln!(out, " -inf <= {name} <= {}", fmt_num(v.ub));
            }
            (false, false) => {
                let _ = writeln!(out, " {name} free");
            }
        }
    }

    let generals: Vec<String> = model
        .variables()
        .iter()
        .enumerate()
        .filter(|(_, v)| v.var_type == VarType::Integer)
        .map(|(i, _)| var_name(model, VarId(i)))
        .collect();
    if !generals.is_empty() {
        out.push_str("General\n");
        for g in generals {
            let _ = writeln!(out, " {g}");
        }
    }
    let binaries: Vec<String> = model
        .variables()
        .iter()
        .enumerate()
        .filter(|(_, v)| v.var_type == VarType::Binary)
        .map(|(i, _)| var_name(model, VarId(i)))
        .collect();
    if !binaries.is_empty() {
        out.push_str("Binary\n");
        for b in binaries {
            let _ = writeln!(out, " {b}");
        }
    }
    out.push_str("End\n");
    out
}

/// Parses the LP subset produced by [`write_lp`].
pub fn parse_lp(text: &str) -> Result<Model, SolveError> {
    #[derive(PartialEq)]
    enum Section {
        Preamble,
        Objective,
        Constraints,
        Bounds,
        General,
        Binary,
        End,
    }
    let mut section = Section::Preamble;
    let mut sense = Sense::Minimize;
    let mut name = "parsed".to_string();
    // Collected as text first: variables are declared implicitly by use.
    let mut obj_line = String::new();
    let mut constraint_lines: Vec<String> = Vec::new();
    let mut bound_lines: Vec<String> = Vec::new();
    let mut general_names: Vec<String> = Vec::new();
    let mut binary_names: Vec<String> = Vec::new();

    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('\\') {
            if let Some(n) = rest.trim().strip_prefix("Problem:") {
                name = n.trim().to_string();
            }
            continue;
        }
        let lower = line.to_ascii_lowercase();
        match lower.as_str() {
            "minimize" | "min" => {
                sense = Sense::Minimize;
                section = Section::Objective;
                continue;
            }
            "maximize" | "max" => {
                sense = Sense::Maximize;
                section = Section::Objective;
                continue;
            }
            "subject to" | "st" | "s.t." => {
                section = Section::Constraints;
                continue;
            }
            "bounds" => {
                section = Section::Bounds;
                continue;
            }
            "general" | "generals" | "gen" => {
                section = Section::General;
                continue;
            }
            "binary" | "binaries" | "bin" => {
                section = Section::Binary;
                continue;
            }
            "end" => {
                section = Section::End;
                continue;
            }
            _ => {}
        }
        match section {
            Section::Objective => {
                obj_line.push(' ');
                obj_line.push_str(line);
            }
            Section::Constraints => constraint_lines.push(line.to_string()),
            Section::Bounds => bound_lines.push(line.to_string()),
            Section::General => general_names.push(line.to_string()),
            Section::Binary => binary_names.push(line.to_string()),
            Section::Preamble | Section::End => {
                return Err(SolveError::InvalidModel(format!(
                    "unexpected content outside sections: {line:?}"
                )))
            }
        }
    }

    // First pass: discover variable names in order of first appearance.
    let mut var_order: Vec<String> = Vec::new();
    let mut var_index: HashMap<String, usize> = HashMap::new();
    let mut discover = |expr: &str| {
        for token in expr.split_whitespace() {
            let t = token.trim_matches(|c: char| c == '+' || c == '-');
            if t.is_empty() || t.parse::<f64>().is_ok() {
                continue;
            }
            if is_ident(t) && !var_index.contains_key(t) {
                var_index.insert(t.to_string(), var_order.len());
                var_order.push(t.to_string());
            }
        }
    };
    let obj_expr = obj_line
        .split_once(':')
        .map(|(_, e)| e.to_string())
        .unwrap_or_else(|| obj_line.clone());
    discover(&strip_relation(&obj_expr).0);
    for line in &constraint_lines {
        let body = line
            .split_once(':')
            .map(|(_, e)| e.to_string())
            .unwrap_or_else(|| line.clone());
        discover(&strip_relation(&body).0);
    }

    let mut model = Model::new(name, sense);
    let mut ids: HashMap<String, VarId> = HashMap::new();
    for vname in &var_order {
        let vt = if binary_names.iter().any(|b| b == vname) {
            VarType::Binary
        } else if general_names.iter().any(|g| g == vname) {
            VarType::Integer
        } else {
            VarType::Continuous
        };
        // LP-format default bounds: [0, +inf).
        let id = model.add_var(vname.clone(), vt, 0.0, f64::INFINITY);
        ids.insert(vname.clone(), id);
    }

    // Objective.
    let (expr, _, _) = strip_relation(&obj_expr);
    let (terms, constant) = parse_expr(&expr, &ids)?;
    model.set_objective(terms, constant);

    // Constraints.
    for line in &constraint_lines {
        let (cname, body) = match line.split_once(':') {
            Some((n, b)) => (n.trim().to_string(), b.to_string()),
            None => (format!("c{}", model.num_constraints()), line.clone()),
        };
        let (expr, op, rhs) = strip_relation(&body);
        let op = op.ok_or_else(|| {
            SolveError::InvalidModel(format!("constraint without relation: {line:?}"))
        })?;
        let rhs: f64 = rhs
            .trim()
            .parse()
            .map_err(|e| SolveError::InvalidModel(format!("bad rhs in {line:?}: {e}")))?;
        let (terms, constant) = parse_expr(&expr, &ids)?;
        model.add_constraint(cname, terms, op, rhs - constant);
    }

    // Bounds.
    for line in &bound_lines {
        apply_bound_line(&mut model, &ids, line)?;
    }
    // Binary bounds are implied.
    for b in &binary_names {
        if let Some(&id) = ids.get(b) {
            model.set_var_bounds(id, 0.0, 1.0);
        }
    }

    model.validate()?;
    Ok(model)
}

fn write_terms(out: &mut String, model: &Model, terms: &[(VarId, f64)]) {
    for &(v, coeff) in terms {
        let name = var_name(model, v);
        if coeff >= 0.0 {
            let _ = write!(out, " + {} {name}", fmt_num(coeff));
        } else {
            let _ = write!(out, " - {} {name}", fmt_num(-coeff));
        }
    }
}

fn var_name(model: &Model, v: VarId) -> String {
    sanitize(
        &model.variables()[v.index()].name,
        &format!("x{}", v.index()),
    )
}

/// LP-format identifiers cannot contain spaces or operators; fall back to
/// a positional name when the model's name is unusable.
fn sanitize(name: &str, fallback: &str) -> String {
    if !name.is_empty() && is_ident(name) {
        name.to_string()
    } else {
        fallback.to_string()
    }
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    s.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        && !s.eq_ignore_ascii_case("free")
}

fn fmt_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x}")
    } else {
        format!("{x:?}")
    }
}

/// Splits `lhs REL rhs`; returns `(lhs, Some(op), rhs)` or the whole text
/// with no relation.
fn strip_relation(s: &str) -> (String, Option<ConstraintOp>, String) {
    for (pat, op) in [
        ("<=", ConstraintOp::Le),
        (">=", ConstraintOp::Ge),
        ("=<", ConstraintOp::Le),
        ("=>", ConstraintOp::Ge),
        ("=", ConstraintOp::Eq),
    ] {
        if let Some(pos) = s.find(pat) {
            let lhs = s[..pos].to_string();
            let rhs = s[pos + pat.len()..].to_string();
            return (lhs, Some(op), rhs);
        }
    }
    (s.to_string(), None, String::new())
}

/// Parses `+ 3 x - y + 2.5` style expressions into terms + constant.
fn parse_expr(
    expr: &str,
    ids: &HashMap<String, VarId>,
) -> Result<(Vec<(VarId, f64)>, f64), SolveError> {
    let mut terms: Vec<(VarId, f64)> = Vec::new();
    let mut constant = 0.0;
    let mut sign = 1.0;
    let mut pending: Option<f64> = None;
    for token in expr.split_whitespace() {
        match token {
            "+" => {
                flush(&mut pending, &mut constant, sign);
                sign = 1.0;
            }
            "-" => {
                flush(&mut pending, &mut constant, sign);
                sign = -1.0;
            }
            _ => {
                // Leading sign glued to the token.
                let (tok_sign, tok) = match token.strip_prefix('-') {
                    Some(rest) => (-1.0, rest),
                    None => (1.0, token.strip_prefix('+').unwrap_or(token)),
                };
                if let Ok(num) = tok.parse::<f64>() {
                    flush(&mut pending, &mut constant, sign);
                    pending = Some(tok_sign * num);
                } else if let Some(&id) = ids.get(tok) {
                    let coeff = sign * tok_sign * pending.take().unwrap_or(1.0);
                    terms.push((id, coeff));
                    sign = 1.0;
                } else if tok.is_empty() {
                    continue;
                } else {
                    return Err(SolveError::InvalidModel(format!(
                        "unknown token {token:?} in expression"
                    )));
                }
            }
        }
    }
    flush(&mut pending, &mut constant, sign);
    // Merge duplicate variables.
    let mut merged: Vec<(VarId, f64)> = Vec::new();
    for (v, c) in terms {
        if let Some(e) = merged.iter_mut().find(|(mv, _)| *mv == v) {
            e.1 += c;
        } else {
            merged.push((v, c));
        }
    }
    Ok((merged, constant))
}

fn flush(pending: &mut Option<f64>, constant: &mut f64, sign: f64) {
    if let Some(num) = pending.take() {
        *constant += sign * num;
    }
}

fn apply_bound_line(
    model: &mut Model,
    ids: &HashMap<String, VarId>,
    line: &str,
) -> Result<(), SolveError> {
    let lower = line.to_ascii_lowercase();
    if let Some(pos) = lower.find(" free") {
        let vname = line[..pos].trim();
        let &id = ids
            .get(vname)
            .ok_or_else(|| SolveError::InvalidModel(format!("unknown variable {vname:?}")))?;
        model.set_var_bounds(id, f64::NEG_INFINITY, f64::INFINITY);
        return Ok(());
    }
    let parts: Vec<&str> = line.split("<=").map(str::trim).collect();
    match parts.as_slice() {
        // lo <= x <= hi
        [lo, mid, hi] => {
            let &id = ids
                .get(*mid)
                .ok_or_else(|| SolveError::InvalidModel(format!("unknown variable {mid:?}")))?;
            let lo = parse_bound(lo)?;
            let hi = parse_bound(hi)?;
            model.set_var_bounds(id, lo, hi);
            Ok(())
        }
        // x <= hi
        [name, hi] => {
            let &id = ids
                .get(*name)
                .ok_or_else(|| SolveError::InvalidModel(format!("unknown variable {name:?}")))?;
            let hi = parse_bound(hi)?;
            let lb = model.variables()[id.index()].lb;
            model.set_var_bounds(id, lb, hi);
            Ok(())
        }
        _ => {
            // x >= lo
            if let Some((name, lo)) = line.split_once(">=") {
                let name = name.trim();
                let &id = ids.get(name).ok_or_else(|| {
                    SolveError::InvalidModel(format!("unknown variable {name:?}"))
                })?;
                let lo = parse_bound(lo.trim())?;
                let ub = model.variables()[id.index()].ub;
                model.set_var_bounds(id, lo, ub);
                Ok(())
            } else {
                Err(SolveError::InvalidModel(format!(
                    "unparseable bound line: {line:?}"
                )))
            }
        }
    }
}

fn parse_bound(s: &str) -> Result<f64, SolveError> {
    match s.to_ascii_lowercase().as_str() {
        "-inf" | "-infinity" => Ok(f64::NEG_INFINITY),
        "inf" | "+inf" | "infinity" | "+infinity" => Ok(f64::INFINITY),
        other => other
            .parse()
            .map_err(|e| SolveError::InvalidModel(format!("bad bound {s:?}: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MipSolver;

    fn sample_model() -> Model {
        let mut m = Model::new("sample", Sense::Maximize);
        let x = m.add_cont("x", 0.0, 4.0);
        let y = m.add_var("y", VarType::Integer, 0.0, f64::INFINITY);
        let z = m.add_binary("z");
        let w = m.add_cont("w", f64::NEG_INFINITY, f64::INFINITY);
        m.add_constraint(
            "cap",
            vec![(x, 1.0), (y, 2.0), (z, -1.5)],
            ConstraintOp::Le,
            10.0,
        );
        m.add_constraint("tie", vec![(x, 1.0), (w, -1.0)], ConstraintOp::Eq, 0.0);
        m.add_constraint("floor", vec![(y, 1.0), (w, 0.5)], ConstraintOp::Ge, 1.0);
        m.set_objective(vec![(x, 3.0), (y, 2.0), (z, 1.0), (w, -0.5)], 4.0);
        m
    }

    #[test]
    fn writes_all_sections() {
        let lp = write_lp(&sample_model());
        for needle in [
            "Maximize",
            "Subject To",
            "Bounds",
            "General",
            "Binary",
            "End",
            "w free",
        ] {
            assert!(lp.contains(needle), "missing {needle} in:\n{lp}");
        }
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let m = sample_model();
        let parsed = parse_lp(&write_lp(&m)).unwrap();
        assert_eq!(parsed.sense, m.sense);
        assert_eq!(parsed.num_vars(), m.num_vars());
        assert_eq!(parsed.num_constraints(), m.num_constraints());
        for (a, b) in m.variables().iter().zip(parsed.variables()) {
            assert_eq!(a.var_type, b.var_type, "{}", a.name);
            assert_eq!(a.lb, b.lb, "{}", a.name);
            assert_eq!(a.ub, b.ub, "{}", a.name);
        }
    }

    #[test]
    fn roundtrip_preserves_optimum() {
        let m = sample_model();
        let parsed = parse_lp(&write_lp(&m)).unwrap();
        let a = MipSolver::default().solve(&m).unwrap();
        let b = MipSolver::default().solve(&parsed).unwrap();
        assert!(
            (a.objective - b.objective).abs() < 1e-9,
            "{} vs {}",
            a.objective,
            b.objective
        );
    }

    #[test]
    fn parses_handwritten_lp() {
        let text = "\
\\ Problem: hand
Minimize
 obj: 2 a + 3 b
Subject To
 c1: a + b >= 4
Bounds
 a >= 0
 b >= 0
End
";
        let m = parse_lp(text).unwrap();
        let s = MipSolver::default().solve(&m).unwrap();
        assert!((s.objective - 8.0).abs() < 1e-9);
    }

    #[test]
    fn objective_constant_roundtrips() {
        let mut m = Model::new("k", Sense::Minimize);
        let x = m.add_cont("x", 1.0, 5.0);
        m.set_objective(vec![(x, 1.0)], 100.0);
        let parsed = parse_lp(&write_lp(&m)).unwrap();
        let s = MipSolver::default().solve(&parsed).unwrap();
        assert!((s.objective - 101.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_lp("this is not an lp").is_err());
        // An operator token that is neither a number nor a known variable.
        assert!(parse_lp("Minimize\n obj: 2 ** x\nEnd\n").is_err());
        // A constraint with no relation.
        assert!(parse_lp("Minimize\n obj: 0\nSubject To\n c: 1 2 3\nEnd\n").is_err());
    }

    #[test]
    fn unnamed_constraint_gets_positional_name() {
        let mut m = Model::new("n", Sense::Minimize);
        let x = m.add_cont("x with spaces", 0.0, 1.0);
        m.add_constraint("name with spaces", vec![(x, 1.0)], ConstraintOp::Le, 1.0);
        m.set_objective(vec![(x, 1.0)], 0.0);
        let lp = write_lp(&m);
        assert!(lp.contains("x0"), "{lp}");
        assert!(lp.contains("c0:"), "{lp}");
        // And the sanitized form still parses.
        parse_lp(&lp).unwrap();
    }
}
