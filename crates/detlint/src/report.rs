//! Finding codes, the finding record, and the text / JSONL renderers.
//!
//! Codes are stable: tooling (CI annotations, waiver comments, golden
//! files) keys on them, so a code is never renumbered or reused once
//! shipped. Renders are fully deterministic — findings are sorted by
//! `(code, file, line)` before display and the JSONL writer is
//! hand-rolled so no map ordering can leak into the bytes.

use std::fmt;

/// A stable finding code: `Dxxx` for determinism, `Lxxx` for the
/// per-file layering rules, `Uxxx` for the workspace's public surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Iteration over a `HashMap`/`HashSet` on a determinism-critical path.
    D001,
    /// Default `RandomState` hashing keyed into output.
    D002,
    /// Wall-clock read (`Instant::now`, `SystemTime::now`).
    D003,
    /// Environment read (`env::var`, `env::args`, ...).
    D004,
    /// Thread-identity read (`thread::current`).
    D005,
    /// Float reduction not routed through a compensated summation.
    D006,
    /// A declared determinism root matched no parsed symbol.
    D007,
    /// Waiver hygiene: stale waiver or waiver without a reason.
    D008,
    /// `.unwrap()` / `.expect(` in library code.
    L001,
    /// Wall-clock read outside `billcap-obs` / `billcap-rt`.
    L002,
    /// Raw `thread::spawn` outside `billcap-rt`.
    L003,
    /// Crate root without `#![forbid(unsafe_code)]`.
    L004,
    /// Allocation inside a marked hot region.
    L005,
    /// A library `pub fn`/`pub const` named nowhere outside its library.
    U001,
}

/// All codes, in order.
pub const ALL_CODES: [Code; 14] = [
    Code::D001,
    Code::D002,
    Code::D003,
    Code::D004,
    Code::D005,
    Code::D006,
    Code::D007,
    Code::D008,
    Code::L001,
    Code::L002,
    Code::L003,
    Code::L004,
    Code::L005,
    Code::U001,
];

impl Code {
    /// The canonical `Dxxx` / `Lxxx` / `Uxxx` string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::D001 => "D001",
            Code::D002 => "D002",
            Code::D003 => "D003",
            Code::D004 => "D004",
            Code::D005 => "D005",
            Code::D006 => "D006",
            Code::D007 => "D007",
            Code::D008 => "D008",
            Code::L001 => "L001",
            Code::L002 => "L002",
            Code::L003 => "L003",
            Code::L004 => "L004",
            Code::L005 => "L005",
            Code::U001 => "U001",
        }
    }

    /// Short rule name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Code::D001 => "hash-iter",
            Code::D002 => "random-hash",
            Code::D003 => "wall-clock",
            Code::D004 => "env-read",
            Code::D005 => "thread-id",
            Code::D006 => "float-reduction",
            Code::D007 => "root-missing",
            Code::D008 => "waiver-hygiene",
            Code::L001 => "unwrap",
            Code::L002 => "timing",
            Code::L003 => "thread-spawn",
            Code::L004 => "forbid-unsafe",
            Code::L005 => "hot-alloc",
            Code::U001 => "unused-pub",
        }
    }

    /// Parses a `Dxxx` / `Lxxx` / `Uxxx` string.
    pub fn parse(s: &str) -> Option<Code> {
        ALL_CODES.iter().copied().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The finding code.
    pub code: Code,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number of the site.
    pub line: usize,
    /// Path of the enclosing function (`crate::Type::fn`), or the
    /// declared root for D007; empty for D008, the L-codes and U001.
    pub function: String,
    /// Human-readable description of the site.
    pub message: String,
    /// The determinism root this site is reachable from.
    pub root: String,
    /// Call chain from the root to the tainted function, `a -> b -> c`.
    pub chain: String,
}

impl Finding {
    /// A finding tied to a line only: no function, root or chain.
    pub fn at(code: Code, file: &str, line: usize, message: String) -> Finding {
        Finding {
            code,
            file: file.to_string(),
            line,
            function: String::new(),
            message,
            root: String::new(),
            chain: String::new(),
        }
    }

    /// Canonical one-line text render.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}: [{}/{}] {}",
            self.file,
            self.line,
            self.code,
            self.code.name(),
            self.message
        );
        if !self.function.is_empty() {
            s.push_str(&format!(" (in {})", self.function));
        }
        if !self.chain.is_empty() {
            s.push_str(&format!(
                "\n    reachable from {}: {}",
                self.root, self.chain
            ));
        }
        s
    }
}

/// Sorts findings into the canonical `(code, file, line)` order.
pub(crate) fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.code, a.file.as_str(), a.line, a.message.as_str()).cmp(&(
            b.code,
            b.file.as_str(),
            b.line,
            b.message.as_str(),
        ))
    });
}

/// Escapes a string for a JSON value.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as JSONL, one object per line, keys in fixed order.
pub fn to_jsonl(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            concat!(
                "{{\"code\":\"{}\",\"rule\":\"{}\",\"file\":\"{}\",",
                "\"line\":{},\"function\":\"{}\",\"message\":\"{}\",",
                "\"root\":\"{}\",\"chain\":\"{}\"}}\n"
            ),
            f.code,
            f.code.name(),
            json_escape(&f.file),
            f.line,
            json_escape(&f.function),
            json_escape(&f.message),
            json_escape(&f.root),
            json_escape(&f.chain),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            code: Code::D001,
            file: "crates/milp/src/lint.rs".into(),
            line: 373,
            function: "milp::check_parallel_rows".into(),
            message: "iteration over HashMap `groups` via .values()".into(),
            root: "decide_hour".into(),
            chain: "decide_hour -> lint -> check_parallel_rows".into(),
        }
    }

    #[test]
    fn codes_round_trip() {
        for c in ALL_CODES {
            assert_eq!(Code::parse(c.as_str()), Some(c));
        }
        assert_eq!(Code::parse("D999"), None);
    }

    #[test]
    fn render_includes_location_code_and_chain() {
        let r = finding().render();
        assert!(r.starts_with("crates/milp/src/lint.rs:373: [D001/hash-iter]"));
        assert!(r.contains("reachable from decide_hour"));
    }

    #[test]
    fn jsonl_escapes_and_keeps_key_order() {
        let mut f = finding();
        f.message = "quote \" and \\ back".into();
        let j = to_jsonl(&[f]);
        assert!(j.starts_with("{\"code\":\"D001\",\"rule\":\"hash-iter\","));
        assert!(j.contains("quote \\\" and \\\\ back"));
        assert!(j.ends_with("}\n"));
    }

    #[test]
    fn sort_orders_by_code_then_file_then_line() {
        let mut fs = vec![
            Finding {
                code: Code::D003,
                file: "b.rs".into(),
                line: 1,
                ..finding()
            },
            Finding {
                code: Code::D001,
                file: "z.rs".into(),
                line: 9,
                ..finding()
            },
            Finding {
                code: Code::D001,
                file: "z.rs".into(),
                line: 2,
                ..finding()
            },
        ];
        sort_findings(&mut fs);
        assert_eq!(
            fs.iter().map(|f| (f.code, f.line)).collect::<Vec<_>>(),
            vec![(Code::D001, 2), (Code::D001, 9), (Code::D003, 1)]
        );
    }
}
