//! Layering pass (L001–L005, listed in the crate docs): per-file
//! source rules that the compiler cannot check because they are
//! repository policy, not language.
//!
//! Panics belong to callers (binaries, tests), so library code returns
//! `Result`. Wall-clock reads make runs non-reproducible, so library
//! code measures through `billcap_obs::Stopwatch`. Parallelism goes
//! through `billcap-rt`'s scoped pools, which manage worker counts,
//! panics and trace merging. Hot regions ([`Line::hot`]) mark per-hour
//! simulation loops and the solver loops inside each hour; allocations
//! there belong in a reusable scratch (`MonthScratch` in `billcap-sim`)
//! or in buffers set up before the loop.
//!
//! Unlike D001–D006 these rules are not reachability-gated: they check
//! every line of every file. Library code is everything under `src/`
//! except `main.rs` and `src/bin/**`; crate roots are `lib.rs`,
//! `main.rs` and each `src/bin/*.rs`. `#[cfg(test)]` code is exempt
//! from the line rules. A waiver counts as used when its rule's
//! pattern matches the line, even where the rule is off, so moving a
//! waived line between library and binary code never strands it. An
//! L-code waiver written in test code is never stale.

use crate::lex::{Line, Waiver};
use crate::report::{Code, Finding};
use std::path::Path;

/// Crates whose library code may read the wall clock.
const TIMING_ALLOWED: [&str; 2] = ["obs", "rt"];
/// Crates whose library code may spawn raw threads.
const SPAWN_ALLOWED: [&str; 1] = ["rt"];

/// The line rules and their messages.
const LINE_RULES: [(Code, &str); 4] = [
    (
        Code::L001,
        "unwrap()/expect() in library code; return a Result or waive with a reason",
    ),
    (
        Code::L002,
        "wall-clock read outside billcap-obs/billcap-rt; use billcap_obs::Stopwatch",
    ),
    (
        Code::L003,
        "raw thread outside billcap-rt; use the runtime crate's scoped pools",
    ),
    (
        Code::L005,
        "allocation inside a marked hot loop; hoist it into a reusable scratch buffer \
         (see MonthScratch) or waive with a reason",
    ),
];

/// Whether `line` matches `code`'s pattern, whether or not the rule
/// applies to the file.
fn matches(code: Code, line: &Line) -> bool {
    let c = line.code.as_str();
    match code {
        Code::L001 => c.contains(".unwrap()") || c.contains(".expect("),
        Code::L002 => c.contains("Instant::now") || c.contains("SystemTime"),
        Code::L003 => c.contains("thread::spawn"),
        Code::L005 => line.hot && (c.contains("Vec::new()") || c.contains("vec![")),
        _ => false,
    }
}

/// Whether a file at `in_src` below a crate's `src/` belongs to a
/// binary target rather than the library.
pub(crate) fn in_bin(in_src: &Path) -> bool {
    in_src.starts_with("bin") || in_src == Path::new("main.rs")
}

/// Checks one lexed file of crate `krate`. `in_src` is its path below
/// the crate's `src/`, and `has_lib` says whether the crate has a
/// `src/lib.rs`. Pushes findings and returns the waivers the rules used.
pub(crate) fn check_file<'a>(
    krate: &str,
    has_lib: bool,
    in_src: &Path,
    file: &str,
    text: &str,
    lines: &'a [Line],
    findings: &mut Vec<Finding>,
) -> Vec<&'a Waiver> {
    let in_bin = in_bin(in_src);
    let is_root = in_src == Path::new("lib.rs")
        || in_src == Path::new("main.rs")
        || in_src.parent() == Some(Path::new("bin"));
    if is_root && !text.contains("#![forbid(unsafe_code)]") {
        findings.push(Finding::at(
            Code::L004,
            file,
            1,
            "crate root lacks #![forbid(unsafe_code)]".into(),
        ));
    }
    let applies = |code: Code| match code {
        Code::L001 => has_lib && !in_bin,
        Code::L002 => !TIMING_ALLOWED.contains(&krate),
        Code::L003 => !SPAWN_ALLOWED.contains(&krate),
        _ => true,
    };

    let mut used = Vec::new();
    for line in lines {
        for (code, message) in LINE_RULES {
            let hit = matches(code, line);
            let mut waived = false;
            for w in line.waivers.iter().filter(|w| w.code == code.as_str()) {
                waived = true;
                if hit || (line.in_test && w.line == line.number) {
                    used.push(w);
                }
            }
            if hit && !waived && !line.in_test && applies(code) {
                findings.push(Finding::at(code, file, line.number, message.into()));
            }
        }
    }
    used
}
