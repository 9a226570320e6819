//! Golden-file tests: every D-, L- and U-code fires on the seeded fixture
//! tree with byte-exact output, the JSONL export is stable, the
//! unreachable taint stays silent, the layering rules keep their scopes
//! and waivers, and — the self-host gate — the real workspace is
//! detlint-clean in deny mode.

use detlint::analyze::{analyze, default_roots, Report, RootSpec};
use detlint::report::{to_jsonl, Code, ALL_CODES};
use std::path::{Path, PathBuf};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn fixture_report() -> Report {
    let root = manifest_dir().join("fixtures/ws");
    let roots = [
        RootSpec::parse("Engine::decide"),
        RootSpec::parse("missing_root"),
    ];
    analyze(&root, &roots).expect("fixture analysis succeeds")
}

fn golden(name: &str) -> String {
    let path = manifest_dir().join("fixtures/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read golden {}: {e}", path.display()))
}

fn rendered_block(report: &Report, code: Code) -> String {
    let mut out = String::new();
    for f in report.findings.iter().filter(|f| f.code == code) {
        out.push_str(&f.render());
        out.push('\n');
    }
    out
}

/// Each code must fire on the fixture and match its golden render.
#[test]
fn every_code_fires_and_matches_golden() {
    let report = fixture_report();
    for code in ALL_CODES {
        let block = rendered_block(&report, code);
        assert!(
            !block.is_empty(),
            "{code:?} did not fire on the seeded fixture"
        );
        let expected = golden(&format!("{}.txt", code.as_str()));
        assert_eq!(
            block,
            expected,
            "{code:?} render drifted from fixtures/golden/{}.txt",
            code.as_str()
        );
    }
}

/// The JSONL export is byte-stable against its golden file.
#[test]
fn jsonl_export_matches_golden() {
    let report = fixture_report();
    assert_eq!(to_jsonl(&report.findings), golden("findings.jsonl"));
}

/// A taint site in a function no root reaches must not be reported.
#[test]
fn unreachable_taint_is_silent() {
    let report = fixture_report();
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.chain.contains("dead_clock")),
        "dead_clock is unreachable and must not be reported"
    );
    // The site exists (beta::dead_clock reads SystemTime), so silence
    // must come from reachability, not from a missed pattern: point the
    // root set at it and the D003 fires.
    let root = manifest_dir().join("fixtures/ws");
    let report = analyze(&root, &[RootSpec::parse("dead_clock")]).unwrap();
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == Code::D003 && f.function == "beta::dead_clock"),
        "dead_clock's wall-clock read should fire once it is a root"
    );
}

/// A used waiver with a reason suppresses its site without any D008.
#[test]
fn reasoned_waiver_suppresses_without_noise() {
    let report = fixture_report();
    // The `blessed` D006 site (alpha lib.rs line 22) is waived with a
    // reason: no D006 there, and no D008 about that waiver line.
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.file.ends_with("alpha/src/lib.rs") && f.line == 22),
        "the reasoned waiver's site must be fully quiet"
    );
}

/// The layering rules keep their scopes and waiver semantics. In
/// gamma's library: the waived unwraps on lines 8 and 10 are quiet, the
/// stale L002 waiver on line 19 is a D008, only the two unwaived
/// allocations inside the hot region fire, and the test module from
/// line 41 trips nothing — its L001 waiver included. In gamma's binary
/// L001 is off, yet its waiver counts as used. The `rt` crate may read
/// the clock and spawn threads.
#[test]
fn layering_rules_keep_their_scopes() {
    let report = fixture_report();
    let in_file = |file: &str| -> Vec<(Code, usize)> {
        report
            .findings
            .iter()
            .filter(|f| f.file == file)
            .map(|f| (f.code, f.line))
            .collect()
    };
    assert_eq!(
        in_file("crates/gamma/src/lib.rs"),
        [
            (Code::D008, 19),
            (Code::L001, 11),
            (Code::L003, 16),
            (Code::L005, 29),
            (Code::L005, 30)
        ]
    );
    assert_eq!(in_file("crates/gamma/src/bin/tool.rs"), [(Code::L004, 1)]);
    assert_eq!(in_file("crates/rt/src/lib.rs"), []);
}

/// Findings arrive sorted by (code, file, line).
#[test]
fn findings_are_sorted() {
    let report = fixture_report();
    let keys: Vec<_> = report
        .findings
        .iter()
        .map(|f| (f.code, f.file.clone(), f.line))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

/// Self-host gate: the billcap workspace itself is detlint-clean in
/// deny mode with the default root set — every real finding has been
/// fixed or waived with a reason.
#[test]
fn the_workspace_is_detlint_clean() {
    let ws = manifest_dir().join("../..");
    let ws = ws.canonicalize().unwrap_or(ws);
    assert!(
        Path::new(&ws).join("Cargo.toml").is_file(),
        "workspace root not found"
    );
    let report = analyze(&ws, &default_roots()).expect("workspace analysis succeeds");
    assert!(
        report.findings.is_empty(),
        "workspace has detlint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the analysis actually saw the workspace, not an empty dir.
    assert!(
        report.files > 50,
        "suspiciously few files: {}",
        report.files
    );
    assert!(
        report.waivers > 0,
        "expected reasoned waivers in the workspace"
    );
}
