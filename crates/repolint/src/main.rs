//! Source-level correctness gates for the billcap workspace.
//!
//! A zero-dependency lexical linter that enforces the repository's
//! layering rules — the properties `cargo clippy` cannot see because
//! they are *policy*, not language:
//!
//! * `unwrap` — no `.unwrap()` / `.expect(` in library code. Panics
//!   belong to callers (binaries, tests); libraries return `Result`.
//! * `timing` — no `Instant::now` / `SystemTime` outside `billcap-obs`
//!   and `billcap-rt`. Wall-clock reads make runs non-reproducible, so
//!   they are confined to the observability/runtime layer (library code
//!   measures through `billcap_obs::Stopwatch`).
//! * `thread-spawn` — no `std::thread::spawn` outside `billcap-rt`.
//!   Parallelism goes through the runtime crate's scoped pools so
//!   worker counts, panics and trace merging stay managed.
//! * `forbid-unsafe` — every crate root carries
//!   `#![forbid(unsafe_code)]`.
//! * `hot-alloc` — no `Vec::new()` / `vec![` inside a region marked
//!   `// repolint-hot-start(label)` … `// repolint-hot-end`. Hot
//!   regions are per-hour simulation loops that run hundreds of
//!   thousands of times per Monte-Carlo run, and the solver loops
//!   inside each hour (the dual-simplex pivot loop, the
//!   branch-and-bound node loop); allocations there belong in a
//!   reusable scratch (see `MonthScratch` in `billcap-sim`) or in
//!   buffers set up before the loop.
//!
//! Test code (`#[cfg(test)]` items, tracked by brace depth) is exempt
//! from the first three rules. A deliberate exception is waived with a
//! trailing or preceding comment:
//!
//! ```text
//! // repolint-allow(unwrap): length checked two lines above
//! ```
//!
//! Waivers are themselves linted (`stale-waiver`): a `repolint-allow`
//! whose pattern no longer matches anything suppresses nothing and is
//! reported at its own line, so refactors cannot leave dead waivers
//! behind. A waiver counts as used when its *pattern* matches, even if
//! the rule does not apply to that file — moving a waived line between
//! library and binary code does not make the waiver stale. Doc comments
//! (`///`, `//!`) never mint waivers, so documentation may show the
//! syntax (as above) without creating one.
//!
//! Usage: `repolint [workspace-root]` — prints `path:line: [rule] msg`
//! per violation and exits non-zero if any were found.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

/// Crates whose library code may read the wall clock.
const TIMING_ALLOWED: &[&str] = &["obs", "rt", "repolint"];
/// Crates whose library code may spawn raw threads.
const SPAWN_ALLOWED: &[&str] = &["rt"];

fn main() {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    match run(&root) {
        Ok(violations) => {
            if violations.is_empty() {
                println!("repolint: clean");
            } else {
                for v in &violations {
                    println!("{v}");
                }
                println!("repolint: {} violation(s)", violations.len());
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("repolint: {e}");
            std::process::exit(2);
        }
    }
}

fn run(root: &Path) -> Result<Vec<String>, String> {
    let mut crates: Vec<(String, PathBuf)> = Vec::new();
    // The workspace crates plus the root `billcap` package.
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir).map_err(|e| {
        format!(
            "{}: {e} (run from the workspace root)",
            crates_dir.display()
        )
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.join("Cargo.toml").is_file() {
            let name = entry.file_name().to_string_lossy().into_owned();
            crates.push((name, path));
        }
    }
    crates.sort();
    crates.push(("billcap".to_string(), root.to_path_buf()));

    let mut violations = Vec::new();
    for (name, dir) in &crates {
        check_crate(root, name, dir, &mut violations)?;
    }
    Ok(violations)
}

fn check_crate(
    root: &Path,
    name: &str,
    dir: &Path,
    violations: &mut Vec<String>,
) -> Result<(), String> {
    let src = dir.join("src");
    let lib = src.join("lib.rs");
    let is_library = lib.is_file();

    // forbid-unsafe: every crate root (lib.rs, main.rs, each src/bin/*.rs).
    let mut roots: Vec<PathBuf> = [lib, src.join("main.rs")]
        .into_iter()
        .filter(|p| p.is_file())
        .collect();
    if let Ok(bins) = std::fs::read_dir(src.join("bin")) {
        for b in bins.flatten() {
            let p = b.path();
            if p.extension().is_some_and(|e| e == "rs") {
                roots.push(p);
            }
        }
    }
    for crate_root in &roots {
        let text = std::fs::read_to_string(crate_root).map_err(|e| e.to_string())?;
        if !text.contains("#![forbid(unsafe_code)]") {
            violations.push(format!(
                "{}:1: [forbid-unsafe] crate root lacks #![forbid(unsafe_code)]",
                rel(root, crate_root)
            ));
        }
    }

    let mut files = Vec::new();
    collect_rs_files(&src, &mut files)?;
    files.sort();
    for file in &files {
        let in_bin = file
            .strip_prefix(&src)
            .ok()
            .is_some_and(|p| p.starts_with("bin") || p == Path::new("main.rs"));
        let text = std::fs::read_to_string(file).map_err(|e| e.to_string())?;
        let unwrap_applies = is_library && !in_bin;
        let timing_applies = !TIMING_ALLOWED.contains(&name);
        let spawn_applies = !SPAWN_ALLOWED.contains(&name);
        check_file(
            &rel(root, file),
            &text,
            unwrap_applies,
            timing_applies,
            spawn_applies,
            violations,
        );
    }
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(());
    };
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A `repolint-allow` waiver and the line it was written on.
#[derive(Clone)]
struct Waiver {
    /// The waived rule name.
    rule: String,
    /// 1-based line the waiver comment sits on (its origin, even when
    /// the waiver carries forward to the next code line).
    line: usize,
}

/// One source line after lexical stripping.
struct CodeLine {
    /// Line number (1-based).
    number: usize,
    /// The code with string/char literals blanked and comments removed.
    code: String,
    /// Rules waived on this line via `repolint-allow(...)` comments
    /// (here or on the directly preceding line).
    waived: Vec<Waiver>,
    /// Whether the line is inside a `#[cfg(test)]` item.
    in_test: bool,
    /// Whether the line is inside a `repolint-hot-start` … `-hot-end`
    /// region (marker lines inclusive).
    hot: bool,
}

fn check_file(
    path: &str,
    text: &str,
    unwrap_applies: bool,
    timing_applies: bool,
    spawn_applies: bool,
    violations: &mut Vec<String>,
) {
    use std::collections::{BTreeMap, BTreeSet};

    let lines = lex(text);
    // Every waiver minted in the file, keyed by (origin line, rule),
    // with whether its origin sits in test code (test waivers are inert
    // and exempt from staleness).
    let mut registry: BTreeMap<(usize, String), bool> = BTreeMap::new();
    for line in &lines {
        for w in &line.waived {
            registry
                .entry((w.line, w.rule.clone()))
                .or_insert(line.in_test);
        }
    }
    let mut used: BTreeSet<(usize, String)> = BTreeSet::new();

    for line in &lines {
        // Which rule patterns match this line, independent of whether
        // the rule applies here: a waiver over a matching pattern is
        // "used" even when the rule is off for this file, so moving a
        // waived line between library and binary code never strands it.
        let mut matched: Vec<&str> = Vec::new();
        if line.code.contains(".unwrap()") || line.code.contains(".expect(") {
            matched.push("unwrap");
        }
        if line.code.contains("Instant::now") || line.code.contains("SystemTime") {
            matched.push("timing");
        }
        if line.code.contains("thread::spawn") {
            matched.push("thread-spawn");
        }
        if line.hot && (line.code.contains("Vec::new()") || line.code.contains("vec![")) {
            matched.push("hot-alloc");
        }
        for rule in &matched {
            for w in &line.waived {
                if w.rule == *rule {
                    used.insert((w.line, w.rule.clone()));
                }
            }
        }
        if line.in_test {
            continue;
        }
        let waived = |rule: &str| line.waived.iter().any(|w| w.rule == rule);
        let mut report = |rule: &str, message: &str| {
            if !waived(rule) {
                violations.push(format!("{path}:{}: [{rule}] {message}", line.number));
            }
        };
        if unwrap_applies && matched.contains(&"unwrap") {
            report(
                "unwrap",
                "unwrap()/expect() in library code; return a Result or waive with a reason",
            );
        }
        if timing_applies && matched.contains(&"timing") {
            report(
                "timing",
                "wall-clock read outside billcap-obs/billcap-rt; use billcap_obs::Stopwatch",
            );
        }
        if spawn_applies && matched.contains(&"thread-spawn") {
            report(
                "thread-spawn",
                "raw thread outside billcap-rt; use the runtime crate's scoped pools",
            );
        }
        if matched.contains(&"hot-alloc") {
            report(
                "hot-alloc",
                "allocation inside a marked hot loop; hoist it into a reusable \
                 scratch buffer (see MonthScratch) or waive with a reason",
            );
        }
    }

    // Stale-waiver hygiene: a waiver that suppressed nothing is itself
    // a violation, reported at its own line.
    for ((line, rule), in_test) in &registry {
        if !in_test && !used.contains(&(*line, rule.clone())) {
            violations.push(format!(
                "{path}:{line}: [stale-waiver] repolint-allow({rule}) suppresses nothing; remove it"
            ));
        }
    }
}

/// Lexes a file into [`CodeLine`]s: strips `//` comments, `/* */` block
/// comments, string/char literals (so braces and pattern text inside
/// them are invisible), and tracks `#[cfg(test)]` items by brace depth.
fn lex(text: &str) -> Vec<CodeLine> {
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    // While `Some(d)`, we are inside a `#[cfg(test)]` item whose body
    // opened at depth `d`; lines are test code until depth returns to `d`.
    let mut test_until: Option<i64> = None;
    // A `#[cfg(test)]` attribute was seen; the next `{` opens its body.
    let mut pending_test = false;
    let mut in_block_comment = false;
    let mut prev_waivers: Vec<Waiver> = Vec::new();
    // While true, lines are inside a `repolint-hot-start` region.
    let mut in_hot = false;

    for (idx, raw) in text.lines().enumerate() {
        let in_test_at_start = test_until.is_some();
        let hot_at_start = in_hot;
        let mut hot_started = false;
        let mut hot_ended = false;
        let mut code = String::new();
        let mut waivers = prev_waivers.clone();
        let mut chars = raw.chars().peekable();
        while let Some(c) = chars.next() {
            if in_block_comment {
                if c == '*' && chars.peek() == Some(&'/') {
                    chars.next();
                    in_block_comment = false;
                }
                continue;
            }
            match c {
                '/' if chars.peek() == Some(&'/') => {
                    // Line comment: scan it for waiver and hot-region
                    // directives, drop the rest. Doc comments (`///`,
                    // `//!`) are prose and never mint waivers, so the
                    // documented example above stays inert.
                    chars.next();
                    let comment: String = chars.collect();
                    let is_doc = comment.starts_with('/') || comment.starts_with('!');
                    if !is_doc {
                        if let Some(pos) = comment.find("repolint-allow(") {
                            let tail = &comment[pos + "repolint-allow(".len()..];
                            if let Some(end) = tail.find(')') {
                                waivers.push(Waiver {
                                    rule: tail[..end].trim().to_string(),
                                    line: idx + 1,
                                });
                            }
                        }
                    }
                    // Region directives must *lead* the comment, so prose
                    // that merely mentions them (like this file's docs)
                    // stays inert.
                    let directive = comment.trim_start_matches(['/', '!']).trim_start();
                    if directive.starts_with("repolint-hot-start") {
                        hot_started = true;
                    }
                    if directive.starts_with("repolint-hot-end") {
                        hot_ended = true;
                    }
                    break;
                }
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    in_block_comment = true;
                }
                '"' => {
                    // String literal: skip to the unescaped closing quote.
                    code.push('"');
                    let mut escaped = false;
                    for s in chars.by_ref() {
                        if escaped {
                            escaped = false;
                        } else if s == '\\' {
                            escaped = true;
                        } else if s == '"' {
                            break;
                        }
                    }
                    code.push('"');
                }
                '\'' => {
                    // Char literal or lifetime. A char literal closes within
                    // a few characters; a lifetime has no closing quote.
                    let lookahead: String = chars.clone().take(3).collect();
                    let mut la = lookahead.chars();
                    match (la.next(), la.next(), la.next()) {
                        (Some('\\'), _, _) => {
                            // Escaped char literal: consume through the quote.
                            for s in chars.by_ref() {
                                if s == '\'' {
                                    break;
                                }
                            }
                        }
                        (Some(_), Some('\''), _) => {
                            chars.next();
                            chars.next();
                        }
                        _ => {} // lifetime: keep lexing normally
                    }
                    code.push('\'');
                }
                _ => code.push(c),
            }
        }

        if code.contains("#[cfg(test)]") {
            pending_test = true;
        }
        // Apply brace deltas, catching where a pending test body opens.
        // A test body that opens *and* closes on this line (single-line
        // `mod t { ... }`) still marks the whole line as test code.
        let mut touched_test = false;
        for c in code.chars() {
            match c {
                '{' => {
                    if pending_test && test_until.is_none() {
                        test_until = Some(depth);
                        pending_test = false;
                        touched_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_until.is_some_and(|d| depth <= d) {
                        test_until = None;
                    }
                }
                _ => {}
            }
        }

        // Waivers written on their own comment line apply to the next line.
        prev_waivers = if code.trim().is_empty() {
            waivers.clone()
        } else {
            Vec::new()
        };

        // Hot-region markers take effect on their own line too: a start
        // marker trailing code marks that line hot, an end marker's line
        // is still inside the region.
        if hot_started {
            in_hot = true;
        }
        let hot = hot_at_start || in_hot;
        if hot_ended {
            in_hot = false;
        }

        out.push(CodeLine {
            number: idx + 1,
            code,
            waived: waivers,
            in_test: in_test_at_start || test_until.is_some() || touched_test,
            hot,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex_codes(src: &str) -> Vec<(usize, String, bool)> {
        lex(src)
            .into_iter()
            .map(|l| (l.number, l.code, l.in_test))
            .collect()
    }

    #[test]
    fn strips_line_comments_and_strings() {
        let ls = lex_codes("let x = \"Instant::now\"; // Instant::now\n");
        assert_eq!(ls[0].1, "let x = \"\"; ");
    }

    #[test]
    fn tracks_cfg_test_blocks() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let ls = lex_codes(src);
        assert!(!ls[0].2, "a() is not test code");
        assert!(ls[3].2, "body of tests mod is test code");
        assert!(ls[4].2, "closing brace line still test code");
        assert!(!ls[5].2, "c() after the mod is not test code");
    }

    #[test]
    fn format_string_braces_do_not_corrupt_depth() {
        let src = "#[cfg(test)]\nmod t {\n  let s = format!(\"{x:.3}}}\");\n}\nfn after() {}\n";
        let ls = lex_codes(src);
        assert!(!ls[4].2, "braces inside strings must not end the block");
    }

    #[test]
    fn waivers_apply_same_line_and_preceding_line() {
        let src = "\
a.unwrap(); // repolint-allow(unwrap): checked above
// repolint-allow(unwrap): also fine
b.unwrap();
c.unwrap();
";
        let mut v = Vec::new();
        check_file("f.rs", src, true, true, true, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("f.rs:4:"));
    }

    #[test]
    fn rules_fire_outside_tests_only() {
        let src = "\
fn lib() { x.unwrap(); let t = Instant::now(); thread::spawn(f); }
#[cfg(test)]
mod tests { fn t() { y.unwrap(); Instant::now(); thread::spawn(g); } }
";
        let mut v = Vec::new();
        check_file("f.rs", src, true, true, true, &mut v);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|s| s.contains("f.rs:1:")));
    }

    #[test]
    fn char_literals_and_lifetimes_lex() {
        let src = "fn f<'a>(x: &'a str) { if c == '{' { } }\n";
        let ls = lex_codes(src);
        // The '{' char literal must not unbalance the braces.
        let mut depth = 0i64;
        for c in ls[0].1.chars() {
            if c == '{' {
                depth += 1;
            }
            if c == '}' {
                depth -= 1;
            }
        }
        assert_eq!(depth, 0, "{:?}", ls[0].1);
    }

    #[test]
    fn hot_regions_flag_allocations() {
        let src = "\
fn cold() { let a = Vec::new(); }
// repolint-hot-start(hour loop)
fn hot() {
    let b = Vec::new();
    let c = vec![1, 2];
    // repolint-allow(hot-alloc): filled once, reused after
    let d = vec![0.0; n];
}
// repolint-hot-end
fn cold_again() { let e = vec![3]; }
";
        let mut v = Vec::new();
        check_file("f.rs", src, false, false, false, &mut v);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(
            v[0].contains("f.rs:4:") && v[0].contains("hot-alloc"),
            "{v:?}"
        );
        assert!(v[1].contains("f.rs:5:"), "{v:?}");
    }

    #[test]
    fn hot_markers_in_strings_are_inert() {
        // The directive only counts inside comments: a string literal
        // mentioning the marker must not open a region.
        let src = "let s = \"repolint-hot-start\";\nlet v = Vec::new();\n";
        let mut v = Vec::new();
        check_file("f.rs", src, false, false, false, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn stale_waivers_are_reported() {
        let src = "\
a.unwrap(); // repolint-allow(unwrap): checked above
// repolint-allow(timing): nothing below reads the clock any more
let x = 1;
";
        let mut v = Vec::new();
        check_file("f.rs", src, true, true, true, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].starts_with("f.rs:2:") && v[0].contains("[stale-waiver]"),
            "{v:?}"
        );
    }

    #[test]
    fn waiver_over_matching_pattern_is_used_even_when_rule_is_off() {
        // unwrap does not apply (binary code), but the pattern matches:
        // the waiver is not stale, and nothing else fires.
        let src = "a.unwrap(); // repolint-allow(unwrap): startup path, panic is fine\n";
        let mut v = Vec::new();
        check_file("f.rs", src, false, true, true, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn waivers_in_test_code_are_exempt_from_staleness() {
        let src = "\
#[cfg(test)]
mod tests {
    // repolint-allow(unwrap): test scaffolding
    fn t() {}
}
";
        let mut v = Vec::new();
        check_file("f.rs", src, true, true, true, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn doc_comments_do_not_mint_waivers() {
        // A doc comment showing the waiver syntax must not create a
        // (necessarily stale) waiver.
        let src = "\
//! ```text
//! // repolint-allow(unwrap): length checked two lines above
//! ```
fn f() {}
";
        let mut v = Vec::new();
        check_file("f.rs", src, true, true, true, &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn the_workspace_is_clean() {
        // When executed from the workspace (as cargo test does), the
        // repository itself must pass its own gate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let violations = run(&root).expect("workspace scan");
        assert!(violations.is_empty(), "{}", violations.join("\n"));
    }
}
