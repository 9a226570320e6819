//! `billcap solve-lp` through the real binary on LP files whose models
//! have no dual-feasible cold placement: a `Maximize` objective over
//! default `[0, ∞)` bounds and a `free` variable. The revised simplex
//! starts them with its dual phase 1, so the printed optimum and the
//! unbounded verdict both come from that path.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Writes `text` to a file unique to this test process and runs
/// `billcap solve-lp` on it.
fn solve_lp(name: &str, text: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("billcap_solve_lp_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path: PathBuf = dir.join(name);
    std::fs::write(&path, text).expect("write LP file");
    let out = Command::new(env!("CARGO_BIN_EXE_billcap"))
        .arg("solve-lp")
        .arg(&path)
        .stdin(Stdio::null())
        .output()
        .expect("spawn billcap");
    let _ = std::fs::remove_file(&path);
    out
}

/// The number after `prefix` on the first stdout line that starts with it.
fn printed(stdout: &str, prefix: &str) -> f64 {
    stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line in {stdout:?}"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{prefix:?} value in {stdout:?}: {e}"))
}

#[test]
fn maximize_with_default_bounds_and_a_free_variable_prints_the_optimum() {
    // max 3x + 2y − z with z ≥ x − 1 free: z = x − 1 leaves 2(x + y) + 1,
    // and x + y ≤ 4, x + 3y ≤ 6, x ≤ 3 meet only at x = 3, y = 1.
    let out = solve_lp(
        "free_max.lp",
        "Maximize\n obj: 3 x + 2 y - z\nSubject To\n c1: x + y <= 4\n \
         c2: x + 3 y <= 6\n c3: z - x >= -1\nBounds\n x <= 3\n z free\nEnd\n",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "solve-lp failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("status: Optimal"), "{stdout}");
    for (prefix, want) in [
        ("objective:", 9.0),
        ("x =", 3.0),
        ("y =", 1.0),
        ("z =", 2.0),
    ] {
        let got = printed(&stdout, prefix);
        assert!((got - want).abs() < 1e-9, "{prefix} {got}, want {want}");
    }
}

#[test]
fn unbounded_file_fails_with_the_verdict() {
    // x − y ≤ 1 lets x and y grow together without limit.
    let out = solve_lp(
        "unbounded.lp",
        "Maximize\n obj: x + y\nSubject To\n c1: x - y <= 1\nEnd\n",
    );
    assert!(!out.status.success(), "an unbounded model must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("model is unbounded"), "stderr {stderr:?}");
}

#[test]
fn printed_answers_are_certified() {
    // The free-variable LP above and a small knapsack MILP: each printed
    // answer passed `certify_solution`, duals included for the LP.
    for (name, text, objective) in [
        (
            "certified_free_max.lp",
            "Maximize\n obj: 3 x + 2 y - z\nSubject To\n c1: x + y <= 4\n \
             c2: x + 3 y <= 6\n c3: z - x >= -1\nBounds\n x <= 3\n z free\nEnd\n",
            9.0,
        ),
        (
            "certified_knapsack.lp",
            "Maximize\n obj: 10 a + 13 b + 7 c\nSubject To\n w: 3 a + 4 b + 2 c <= 6\n\
             Binary\n a\n b\n c\nEnd\n",
            20.0,
        ),
    ] {
        let out = solve_lp(name, text);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!((printed(&stdout, "objective:") - objective).abs() < 1e-9);
        let checks = stdout
            .lines()
            .find_map(|l| l.strip_prefix("certified: "))
            .and_then(|rest| rest.strip_suffix(" checks"))
            .unwrap_or_else(|| panic!("{name}: no certified line in {stdout:?}"));
        let checks: usize = checks.parse().expect("a check count");
        assert!(checks > 5, "{name}: {checks} checks");
    }
}
