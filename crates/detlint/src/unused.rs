//! Unused-pub pass (U001): a `pub fn`, `pub const fn` or `pub const` in
//! a library crate whose name no code outside that library mentions.
//!
//! rustc's `dead_code` lint cannot see these: a `pub` item of a library
//! is reachable by definition. The pass is a token scan over the lexed
//! lines, so comments, strings and doc examples never count as a
//! mention, while a call, a path in a `use`, and a function passed as a
//! value all do. "Outside" is every file that is not part of the
//! item's library target: other crates' `src/` (their binaries
//! included), the crate's own `src/bin/**` and `main.rs`, and the
//! `tests/`, `examples/` and `benches/` of the root package and of each
//! crate. The library's own unit tests are inside, so an item only they
//! name is flagged.
//!
//! Types are out of scope: a public signature can need a public type
//! that no other crate names. The scan matches names, not paths, so a
//! name shared with any outside mention (`new`, `len`) is never flagged;
//! the rule under-reports and never fires on an item in use.

use crate::lex::{Line, Waiver};
use crate::parse::tokens;
use std::collections::HashMap;

/// Where a token has been seen.
#[derive(Clone, Copy, PartialEq)]
enum Seen {
    /// Only in the library of this crate (index into the crate list).
    Only(usize),
    /// Somewhere outside a single library.
    Wide,
}

/// Token mentions across the workspace.
#[derive(Default)]
pub(crate) struct Mentions {
    seen: HashMap<String, Seen>,
}

impl Mentions {
    /// Records the tokens of `lines`; `library` is the crate whose
    /// library target the file belongs to, `None` for any other file.
    pub(crate) fn add(&mut self, library: Option<usize>, lines: &[Line]) {
        let seen = library.map_or(Seen::Wide, Seen::Only);
        for line in lines {
            for (_, tok) in tokens(&line.code) {
                match self.seen.get_mut(tok) {
                    Some(s) if *s != seen => *s = Seen::Wide,
                    Some(_) => {}
                    None => {
                        self.seen.insert(tok.to_string(), seen);
                    }
                }
            }
        }
    }

    /// Whether `name` occurs anywhere outside the library of `krate`.
    pub(crate) fn outside(&self, name: &str, krate: usize) -> bool {
        self.seen.get(name).is_some_and(|&s| s != Seen::Only(krate))
    }
}

/// One item in U001's scope.
pub(crate) struct PubItem {
    /// The item's name.
    pub name: String,
    /// The declaration's 1-based line.
    pub line: usize,
    /// The U001 waiver in effect on the declaration, if any.
    pub waiver: Option<Waiver>,
}

/// The `pub fn`, `pub const fn` and `pub const` declarations of one
/// library file, outside `#[cfg(test)]` code.
pub(crate) fn pub_items(lines: &[Line]) -> Vec<PubItem> {
    let mut out = Vec::new();
    for line in lines.iter().filter(|l| !l.in_test) {
        let mut words = line.code.split_whitespace();
        if words.next() != Some("pub") {
            continue;
        }
        let word = match (words.next(), words.next()) {
            (Some("const"), Some("fn")) => words.next(),
            (Some("fn" | "const"), word) => word,
            _ => continue,
        };
        if let Some(&(0, name)) = word.map(tokens).as_deref().and_then(<[_]>::first) {
            if name != "_" {
                out.push(PubItem {
                    name: name.to_string(),
                    line: line.number,
                    waiver: line.waivers.iter().find(|w| w.code == "U001").cloned(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn names(src: &str) -> Vec<String> {
        let lines = lex(src);
        pub_items(&lines).iter().map(|i| i.name.clone()).collect()
    }

    #[test]
    fn scope_is_pub_fns_and_consts() {
        let src = "\
pub fn a() {}
pub const fn b() -> u8 { 0 }
pub const C: u8 = 1;
pub(crate) fn d() {}
pub struct E;
fn f() {}
    pub fn g(&self) {}
pub use x::h;
#[cfg(test)]
mod tests {
    pub fn t() {}
}
";
        assert_eq!(names(src), ["a", "b", "C", "g"]);
    }

    #[test]
    fn a_mention_in_another_library_or_file_counts() {
        let mut m = Mentions::default();
        m.add(Some(0), &lex("pub fn own() {} fn x() { own(); shared(); }"));
        m.add(Some(1), &lex("fn y() { shared(); xs.map(passed); }"));
        m.add(None, &lex("fn main() { from_bin(); } // own()"));
        m.add(Some(0), &lex("pub fn passed() {} pub fn from_bin() {}"));
        assert!(!m.outside("own", 0), "comments are not mentions");
        assert!(m.outside("shared", 0));
        assert!(m.outside("passed", 0), "a fn passed as a value counts");
        assert!(m.outside("from_bin", 0));
        assert!(!m.outside("nowhere", 0));
    }
}
