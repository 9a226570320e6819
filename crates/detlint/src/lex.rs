//! Lexical pass: strips comments and literals, tracks `#[cfg(test)]`
//! regions by brace depth and hot regions by marker comments, and
//! collects `detlint-allow` waivers.
//!
//! The downstream passes only ever look at [`Line::code`], so string
//! literals can never fake a call, a brace, or a taint token, and
//! comments can never hide one. A string literal that spans lines
//! blanks every line up to its closing quote. Waiver directives are
//! recognized in plain `//` comments only — doc comments (`///`, `//!`)
//! are prose and stay inert, so documentation may *mention* a waiver
//! without minting one.

/// A waiver: `// detlint-allow(D003): reason`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// The waived finding code, e.g. `"D003"`.
    pub code: String,
    /// The rationale after the colon. Empty when the author omitted it
    /// (which is itself a D008 finding).
    pub reason: String,
    /// 1-based line the waiver comment sits on.
    pub line: usize,
}

/// One source line after lexical stripping.
#[derive(Debug, Clone)]
pub struct Line {
    /// 1-based line number.
    pub number: usize,
    /// The code with string/char literals blanked and comments removed.
    pub code: String,
    /// Waivers in effect on this line (written here or on the directly
    /// preceding comment line).
    pub waivers: Vec<Waiver>,
    /// Whether the line is inside a `#[cfg(test)]` item.
    pub in_test: bool,
    /// Whether the line is inside a hot region, from a comment leading
    /// with `detlint-hot-start(label)` to one leading with
    /// `detlint-hot-end`, marker lines included.
    pub hot: bool,
}

/// Parses `detlint-allow(CODE): reason` out of a comment body.
fn parse_waiver(comment: &str, line: usize) -> Option<Waiver> {
    let pos = comment.find("detlint-allow(")?;
    let tail = &comment[pos + "detlint-allow(".len()..];
    let end = tail.find(')')?;
    let code = tail[..end].trim().to_string();
    let rest = &tail[end + 1..];
    let reason = rest
        .strip_prefix(':')
        .map(|r| r.trim().to_string())
        .unwrap_or_default();
    Some(Waiver { code, reason, line })
}

/// Skips the body of a string literal up to its unescaped closing
/// quote; false when the line ends first.
fn skip_string(chars: &mut impl Iterator<Item = char>) -> bool {
    let mut escaped = false;
    for s in chars {
        if escaped {
            escaped = false;
        } else if s == '\\' {
            escaped = true;
        } else if s == '"' {
            return true;
        }
    }
    false
}

/// Lexes a file into [`Line`]s.
pub(crate) fn lex(text: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    // While `Some(d)`, we are inside a `#[cfg(test)]` item whose body
    // opened at depth `d`.
    let mut test_until: Option<i64> = None;
    // A `#[cfg(test)]` attribute was seen; the next `{` opens its body.
    let mut pending_test = false;
    let mut in_block_comment = false;
    // A string literal opened on an earlier line is still open.
    let mut in_string = false;
    let mut prev_waivers: Vec<Waiver> = Vec::new();
    let mut in_hot = false;

    for (idx, raw) in text.lines().enumerate() {
        let number = idx + 1;
        let in_test_at_start = test_until.is_some();
        let (mut hot_started, mut hot_ended) = (false, false);
        let mut code = String::new();
        let mut waivers = prev_waivers.clone();
        let mut chars = raw.chars().peekable();
        if in_string {
            in_string = !skip_string(&mut chars);
        }
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
                    chars.next();
                    let comment: String = chars.collect();
                    // `///` and `//!` are documentation, not directives.
                    let is_doc = comment.starts_with('/') || comment.starts_with('!');
                    if !is_doc {
                        if let Some(w) = parse_waiver(&comment, number) {
                            waivers.push(w);
                        }
                    }
                    // Hot-region markers must lead the comment, so prose
                    // that merely mentions them stays inert.
                    let directive = comment.trim_start_matches(['/', '!']).trim_start();
                    hot_started |= directive.starts_with("detlint-hot-start");
                    hot_ended |= directive.starts_with("detlint-hot-end");
                    break;
                }
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    in_block_comment = true;
                }
                '"' => {
                    code.push_str("\"\"");
                    in_string = !skip_string(&mut chars);
                }
                '\'' => {
                    // Char literal or lifetime. A char literal closes
                    // within a few characters; a lifetime has no close.
                    let lookahead: String = chars.clone().take(3).collect();
                    let mut la = lookahead.chars();
                    match (la.next(), la.next(), la.next()) {
                        (Some('\\'), _, _) => {
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

        // Waivers written on their own comment line apply to the next
        // code line as well; a blank line ends the carry.
        prev_waivers = if code.trim().is_empty() && !raw.trim().is_empty() {
            waivers.clone()
        } else {
            Vec::new()
        };

        // A start marker trailing code marks its own line hot; an end
        // marker's line is still inside the region.
        in_hot |= hot_started;
        let hot = in_hot;
        in_hot &= !hot_ended;

        out.push(Line {
            number,
            code,
            waivers,
            in_test: in_test_at_start || test_until.is_some() || touched_test,
            hot,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_strings_and_comments() {
        let ls = lex("let x = \"Instant::now\"; // Instant::now\n");
        assert_eq!(ls[0].code, "let x = \"\"; ");
    }

    #[test]
    fn waiver_with_reason_parses() {
        let ls = lex("foo(); // detlint-allow(D003): advisory only\n");
        assert_eq!(ls[0].waivers.len(), 1);
        assert_eq!(ls[0].waivers[0].code, "D003");
        assert_eq!(ls[0].waivers[0].reason, "advisory only");
        assert_eq!(ls[0].waivers[0].line, 1);
    }

    #[test]
    fn waiver_without_reason_has_empty_reason() {
        let ls = lex("foo(); // detlint-allow(D001)\n");
        assert_eq!(ls[0].waivers[0].reason, "");
    }

    #[test]
    fn waiver_on_preceding_line_carries_forward() {
        let ls = lex("// detlint-allow(D004): config switch\nread_env();\n");
        assert_eq!(ls[1].waivers.len(), 1);
        assert_eq!(ls[1].waivers[0].line, 1);
    }

    #[test]
    fn a_blank_line_ends_the_carry() {
        let ls = lex("// detlint-allow(D004): config switch\n\nread_env();\n");
        assert!(ls[2].waivers.is_empty(), "{:?}", ls[2].waivers);
        let ls = lex("// detlint-allow(D004): config switch\n   \nread_env();\n");
        assert!(ls[2].waivers.is_empty(), "a whitespace-only line is blank");
    }

    #[test]
    fn doc_comments_do_not_mint_waivers() {
        let ls = lex("/// use `// detlint-allow(D001): why` to waive\nfn f() {}\n");
        assert!(ls[0].waivers.is_empty());
        assert!(ls[1].waivers.is_empty());
        let ls = lex("//! ```text\n//! // detlint-allow(L001): shown\n//! ```\nfn f() {}\n");
        assert!(ls.iter().all(|l| l.waivers.is_empty()));
    }

    #[test]
    fn cfg_test_regions_are_tracked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod t {\n  fn b() {}\n}\nfn c() {}\n";
        let ls = lex(src);
        assert!(!ls[0].in_test);
        assert!(ls[3].in_test);
        assert!(ls[4].in_test);
        assert!(!ls[5].in_test);
    }

    #[test]
    fn format_string_braces_do_not_corrupt_depth() {
        let src = "#[cfg(test)]\nmod t {\n  let s = format!(\"{x:.3}}}\");\n}\nfn after() {}\n";
        let ls = lex(src);
        assert!(
            !ls[4].in_test,
            "braces inside strings must not end the block"
        );
    }

    #[test]
    fn char_literals_and_lifetimes_lex() {
        let ls = lex("fn f<'a>(x: &'a str) { if c == '{' { } }\n");
        let opens = ls[0].code.matches('{').count();
        assert_eq!(opens, ls[0].code.matches('}').count(), "{:?}", ls[0].code);
    }

    #[test]
    fn strings_spanning_lines_stay_blank() {
        let src = "let s = \"head\n    .unwrap() {\n  tail\";\nfn f() {}\n";
        let ls = lex(src);
        assert_eq!(ls[0].code, "let s = \"\"");
        assert_eq!(ls[1].code, "", "a continuation line is not code");
        assert_eq!(ls[2].code, ";");
        // The `{` inside the string opened nothing: a test region that
        // starts after it still closes on its own brace.
        let ls = lex(&format!(
            "#[cfg(test)]\nmod t {{\n{src}}}\nfn after() {{}}\n"
        ));
        assert!(ls[5].in_test);
        assert!(!ls[7].in_test, "{:?}", ls[7]);
    }

    #[test]
    fn hot_regions_span_their_markers() {
        let src = "\
fn cold() {}
// detlint-hot-start(hour loop)
let b = Vec::new();
// detlint-hot-end
fn cold_again() {}
let x = 1; // detlint-hot-start(trailing)
";
        let hot: Vec<bool> = lex(src).iter().map(|l| l.hot).collect();
        assert_eq!(hot, [false, true, true, true, false, true]);
    }

    #[test]
    fn hot_markers_outside_leading_comments_are_inert() {
        let src = "let s = \"detlint-hot-start\";\n// see detlint-hot-start\nlet v = Vec::new();\n";
        assert!(lex(src).iter().all(|l| !l.hot));
    }
}
