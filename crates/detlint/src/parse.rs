//! Item pass: a lightweight Rust item parser producing a per-crate
//! symbol table.
//!
//! The parser is *lexical*, not grammatical: it walks the stripped
//! [`crate::lex::Line`]s of a file, tracks brace depth, and recognizes
//! `mod` / `impl` / `trait` / `fn` item declarations by their leading
//! keyword tokens. Every function (free, method, trait default) becomes
//! a [`Symbol`] carrying its signature header and body lines, tagged
//! with the enclosing impl/trait type. That is enough for the
//! conservative call graph in [`crate::analyze`](mod@crate::analyze): over-approximation is
//! always safe there, so the parser prefers "attach the line to the
//! innermost open function" over full expression parsing.
//!
//! `use` declarations are also collected (last segment → full path) so
//! free-function calls can prefer an exact cross-crate target before
//! falling back to match-by-name.

use crate::lex::{Line, Waiver};
use std::collections::HashMap;

/// One line of a function body (stripped code + active waivers).
#[derive(Debug, Clone)]
pub struct BodyLine {
    /// 1-based line number in the file.
    pub number: usize,
    /// Stripped code.
    pub code: String,
    /// Waivers in effect on this line.
    pub waivers: Vec<Waiver>,
}

/// A parsed function.
#[derive(Debug, Clone)]
pub struct Symbol {
    /// Crate directory name (e.g. `core`), or `billcap` for the root.
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Enclosing `impl`/`trait` self type, when the fn is a method.
    pub impl_type: Option<String>,
    /// The function's simple name.
    pub name: String,
    /// Whether the fn sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// Signature text accumulated up to the opening brace.
    pub header: String,
    /// Body lines, declaration line included.
    pub body: Vec<BodyLine>,
    /// Module path inside the crate (nested `mod` names).
    pub modules: Vec<String>,
}

impl Symbol {
    /// `crate::module::Type::name`-style display path.
    pub fn path(&self) -> String {
        let mut parts = vec![self.crate_name.clone()];
        parts.extend(self.modules.iter().cloned());
        if let Some(t) = &self.impl_type {
            parts.push(t.clone());
        }
        parts.push(self.name.clone());
        parts.join("::")
    }
}

/// Everything the parser extracts from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// Parsed functions.
    pub symbols: Vec<Symbol>,
    /// `use` imports: simple name → full path (`Foo` → `billcap_milp::Foo`).
    pub imports: HashMap<String, String>,
    /// Identifiers declared with a `HashMap`/`HashSet` type anywhere in
    /// the file (struct fields, params, locals).
    pub hash_idents: Vec<String>,
    /// Every waiver written in the file, at its origin line.
    pub waivers: Vec<Waiver>,
}

/// What kind of item a pending declaration opens.
#[derive(Debug, Clone, PartialEq)]
enum Decl {
    Mod(String),
    Trait(String),
    /// Header text accumulated until the opening brace.
    Impl(String),
    /// (name, symbol header accumulated until the opening brace).
    Fn(String, String),
}

/// An open brace-delimited item context.
#[derive(Debug)]
enum Ctx {
    Mod { name: String, open_depth: i64 },
    TypeBlock { ty: String, open_depth: i64 },
    Fn { sym: usize, open_depth: i64 },
}

/// Splits stripped code into identifier tokens with byte columns.
pub(crate) fn tokens(code: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    for (i, c) in code.char_indices() {
        if c.is_alphanumeric() || c == '_' {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(s) = start.take() {
            out.push((s, &code[s..i]));
        }
    }
    if let Some(s) = start {
        out.push((s, &code[s..]));
    }
    out
}

/// Extracts the self type from an accumulated `impl` header: the last
/// path segment of the type after `for` (trait impls) or of the first
/// type otherwise, generics stripped.
fn impl_self_type(header: &str) -> Option<String> {
    // Drop the generic parameter list right after `impl`.
    let mut rest = header.trim_start();
    rest = rest.strip_prefix("impl")?;
    let rest = skip_generics(rest.trim_start());
    // `impl Trait for Type {` → take the part after ` for `.
    let type_part = match rest.find(" for ") {
        Some(p) => &rest[p + 5..],
        None => rest,
    };
    let type_part = type_part
        .split(['{', '<'])
        .next()
        .unwrap_or("")
        .trim()
        .trim_end_matches("where")
        .trim();
    let seg = type_part.rsplit("::").next().unwrap_or("").trim();
    let seg: String = seg
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if seg.is_empty() {
        None
    } else {
        Some(seg)
    }
}

/// Skips a balanced `<...>` generic list at the start of `s`.
fn skip_generics(s: &str) -> &str {
    if !s.starts_with('<') {
        return s;
    }
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return s[i + 1..].trim_start();
                }
            }
            _ => {}
        }
    }
    s
}

/// Whether a `fn` token at this position declares an item (as opposed
/// to a `fn(...)` pointer type): the next token must be an identifier.
fn fn_name_after(code: &str, fn_end: usize) -> Option<String> {
    let rest = code[fn_end..].trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name)
    }
}

/// Collects identifiers declared with a hash-ordered collection type on
/// this line: `name: ... HashMap<...>` / `let name = HashSet::new()`.
fn hash_decls(code: &str, out: &mut Vec<String>) {
    if !code.contains("HashMap") && !code.contains("HashSet") {
        return;
    }
    // `name : Type` declarations where Type mentions HashMap/HashSet
    // before the next declaration boundary.
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b':' {
            continue;
        }
        // Skip `::` path separators.
        if i + 1 < bytes.len() && bytes[i + 1] == b':' {
            continue;
        }
        if i > 0 && bytes[i - 1] == b':' {
            continue;
        }
        let name_end = code[..i].trim_end();
        let name: String = name_end
            .chars()
            .rev()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect::<String>()
            .chars()
            .rev()
            .collect();
        if name.is_empty() {
            continue;
        }
        let ty = &code[i + 1..];
        let ty_end = ty.find([';', '=']).map(|p| &ty[..p]).unwrap_or(ty);
        if ty_end.contains("HashMap") || ty_end.contains("HashSet") {
            out.push(name);
        }
    }
    // `let [mut] name = HashMap::new()` without a type annotation.
    if let Some(pos) = code.find("let ") {
        let rest = code[pos + 4..].trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            let after = &rest[name.len()..];
            if !after.trim_start().starts_with(':')
                && (after.contains("HashMap::") || after.contains("HashSet::"))
            {
                out.push(name);
            }
        }
    }
}

/// Parses a `use` declaration into (simple name → full path) pairs.
/// Handles plain paths, `as` renames, and one level of `{a, b as c}`
/// grouping — the forms rustfmt produces in this workspace.
fn parse_use(code: &str, imports: &mut HashMap<String, String>) {
    let rest = code.trim_start();
    let Some(rest) = rest
        .strip_prefix("pub use ")
        .or_else(|| rest.strip_prefix("use "))
    else {
        return;
    };
    let rest = rest.trim_end().trim_end_matches(';');
    let (prefix, names) = match rest.find('{') {
        Some(p) if rest.ends_with('}') => (
            rest[..p].to_string(),
            rest[p + 1..rest.len() - 1].to_string(),
        ),
        Some(_) => return, // multi-line use group: skip conservatively
        None => (String::new(), rest.to_string()),
    };
    for item in names.split(',') {
        let item = item.trim();
        if item.is_empty() || item == "*" {
            continue;
        }
        let (path, alias) = match item.find(" as ") {
            Some(p) => (item[..p].trim(), Some(item[p + 4..].trim())),
            None => (item, None),
        };
        let full = format!("{prefix}{path}");
        let simple = alias
            .unwrap_or_else(|| path.rsplit("::").next().unwrap_or(path))
            .to_string();
        if !simple.is_empty() && simple != "self" {
            imports.insert(simple, full);
        }
    }
}

/// Parses one file's lexed lines into symbols, imports, hash-typed
/// identifier declarations, and the waiver registry.
pub(crate) fn parse_file(crate_name: &str, file: &str, lines: &[Line]) -> FileItems {
    let mut items = FileItems::default();
    let mut depth: i64 = 0;
    let mut ctx: Vec<Ctx> = Vec::new();
    let mut pending: Option<Decl> = None;
    let mut seen_waivers: Vec<(usize, String)> = Vec::new();

    for line in lines {
        let code = line.code.as_str();
        hash_decls(code, &mut items.hash_idents);
        if code.trim_start().starts_with("use ") || code.trim_start().starts_with("pub use ") {
            parse_use(code, &mut items.imports);
        }
        for w in &line.waivers {
            if !seen_waivers.contains(&(w.line, w.code.clone())) {
                seen_waivers.push((w.line, w.code.clone()));
                items.waivers.push(w.clone());
            }
        }

        // Accumulate a pending impl/fn header until its brace opens.
        if let Some(Decl::Impl(h) | Decl::Fn(_, h)) = &mut pending {
            h.push(' ');
            h.push_str(code);
        }

        // Scan for item declarations on this line, in order.
        let toks = tokens(code);
        let mut decls: Vec<(usize, Decl)> = Vec::new();
        for (ti, &(col, tok)) in toks.iter().enumerate() {
            match tok {
                "fn" => {
                    if let Some(name) = fn_name_after(code, col + 2) {
                        decls.push((col, Decl::Fn(name, code[col..].to_string())));
                    }
                }
                // Only a leading `impl` declares an item; `-> impl
                // Trait` and `impl Fn(...)` bounds appear mid-line.
                "impl" if ti == 0 => {
                    decls.push((col, Decl::Impl(code[col..].to_string())));
                }
                "mod" | "trait" => {
                    let leading = ti == 0
                        || toks[..ti]
                            .iter()
                            .all(|&(_, t)| matches!(t, "pub" | "crate" | "super" | "in"));
                    if leading {
                        if let Some(name) = toks.get(ti + 1).map(|&(_, n)| n.to_string()) {
                            decls.push((
                                col,
                                if tok == "mod" {
                                    Decl::Mod(name)
                                } else {
                                    Decl::Trait(name)
                                },
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
        let mut decl_iter = decls.into_iter().peekable();

        // Walk the braces, opening/closing contexts.
        for (col, c) in code.char_indices() {
            // Promote any declaration that starts before this position.
            while decl_iter.peek().is_some_and(|&(dc, _)| dc < col) {
                let (_, d) = decl_iter.next().unwrap_or((0, Decl::Mod(String::new())));
                // A later decl on the same line replaces an unopened
                // earlier one only if the earlier one already closed
                // with `;` — handled below. Otherwise queue it.
                pending = Some(d);
            }
            match c {
                '{' => {
                    match pending.take() {
                        Some(Decl::Mod(name)) => ctx.push(Ctx::Mod {
                            name,
                            open_depth: depth,
                        }),
                        Some(Decl::Trait(ty)) => ctx.push(Ctx::TypeBlock {
                            ty,
                            open_depth: depth,
                        }),
                        Some(Decl::Impl(header)) => {
                            let ty = impl_self_type(&header).unwrap_or_default();
                            ctx.push(Ctx::TypeBlock {
                                ty,
                                open_depth: depth,
                            });
                        }
                        Some(Decl::Fn(name, header)) => {
                            let impl_type = ctx.iter().rev().find_map(|c| match c {
                                Ctx::TypeBlock { ty, .. } if !ty.is_empty() => Some(ty.clone()),
                                _ => None,
                            });
                            let modules = ctx
                                .iter()
                                .filter_map(|c| match c {
                                    Ctx::Mod { name, .. } => Some(name.clone()),
                                    _ => None,
                                })
                                .collect();
                            let header_end = header.find('{').map(|p| header[..p].to_string());
                            items.symbols.push(Symbol {
                                crate_name: crate_name.to_string(),
                                file: file.to_string(),
                                impl_type,
                                name,
                                is_test: line.in_test,
                                header: header_end.unwrap_or(header),
                                body: Vec::new(),
                                modules,
                            });
                            ctx.push(Ctx::Fn {
                                sym: items.symbols.len() - 1,
                                open_depth: depth,
                            });
                        }
                        None => {}
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    while ctx.last().is_some_and(|c| {
                        let od = match c {
                            Ctx::Mod { open_depth, .. }
                            | Ctx::TypeBlock { open_depth, .. }
                            | Ctx::Fn { open_depth, .. } => *open_depth,
                        };
                        depth <= od
                    }) {
                        ctx.pop();
                    }
                }
                ';' => {
                    // A semicolon closes an unopened declaration
                    // (trait method signature, `mod name;`).
                    pending = None;
                }
                _ => {}
            }
        }
        // Declarations after the last brace stay pending for the next line.
        if let Some((_, d)) = decl_iter.next() {
            pending = Some(d);
        }

        // Attribute the line to the innermost open function.
        if let Some(sym) = ctx.iter().rev().find_map(|c| match c {
            Ctx::Fn { sym, .. } => Some(*sym),
            _ => None,
        }) {
            items.symbols[sym].body.push(BodyLine {
                number: line.number,
                code: line.code.clone(),
                waivers: line.waivers.clone(),
            });
        }
    }
    items.hash_idents.sort();
    items.hash_idents.dedup();
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse(src: &str) -> FileItems {
        parse_file("demo", "src/lib.rs", &lex(src))
    }

    #[test]
    fn free_and_method_fns_are_found() {
        let src = "\
pub fn free(x: u64) -> u64 {
    x + 1
}
impl Engine {
    pub fn decide(&self) -> f64 {
        self.solve()
    }
}
impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Ok(())
    }
}
";
        let items = parse(src);
        let names: Vec<(Option<&str>, &str)> = items
            .symbols
            .iter()
            .map(|s| (s.impl_type.as_deref(), s.name.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![
                (None, "free"),
                (Some("Engine"), "decide"),
                (Some("Engine"), "fmt"),
            ]
        );
        assert_eq!(items.symbols[1].path(), "demo::Engine::decide");
    }

    #[test]
    fn bodies_attach_to_the_innermost_fn() {
        let src = "\
fn outer() {
    let x = 1;
    fn inner() {
        let y = 2;
    }
    let z = 3;
}
";
        let items = parse(src);
        let outer = &items.symbols[0];
        let inner = &items.symbols[1];
        assert!(outer.body.iter().any(|l| l.code.contains("let x")));
        assert!(outer.body.iter().any(|l| l.code.contains("let z")));
        assert!(!outer.body.iter().any(|l| l.code.contains("let y")));
        assert!(inner.body.iter().any(|l| l.code.contains("let y")));
    }

    #[test]
    fn multi_line_signatures_keep_their_header() {
        let src = "\
pub fn decide_hour(
    &mut self,
    offered: f64,
    background: &HashMap<String, f64>,
) -> Result<(), Error> {
    Ok(())
}
";
        let items = parse(src);
        assert_eq!(items.symbols.len(), 1);
        let s = &items.symbols[0];
        assert_eq!(s.name, "decide_hour");
        assert!(s.header.contains("offered: f64"));
        assert!(s.header.contains("background"));
    }

    #[test]
    fn trait_method_signatures_do_not_become_symbols() {
        let src = "\
trait Backend {
    fn solve(&self) -> f64;
    fn name(&self) -> &str {
        \"default\"
    }
}
";
        let items = parse(src);
        let names: Vec<&str> = items.symbols.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["name"]);
        assert_eq!(items.symbols[0].impl_type.as_deref(), Some("Backend"));
    }

    #[test]
    fn impl_self_type_handles_generics_and_for() {
        assert_eq!(impl_self_type("impl Engine {"), Some("Engine".into()));
        assert_eq!(
            impl_self_type("impl<T: Ord> Wrap<T> {"),
            Some("Wrap".into())
        );
        assert_eq!(
            impl_self_type("impl<W: Write> Shared<'_, W> {"),
            Some("Shared".into())
        );
        assert_eq!(
            impl_self_type("impl fmt::Debug for Recorder {"),
            Some("Recorder".into())
        );
    }

    #[test]
    fn return_position_impl_is_not_a_decl() {
        let src = "\
fn make() -> impl Iterator<Item = u64> {
    (0..3).map(|x| x)
}
fn after() {}
";
        let items = parse(src);
        let names: Vec<&str> = items.symbols.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["make", "after"]);
        assert!(items.symbols[1].impl_type.is_none());
    }

    #[test]
    fn hash_idents_cover_fields_params_and_lets() {
        let src = "\
struct S {
    engine_keys: Mutex<HashSet<u64>>,
    plain: Vec<u64>,
}
fn f(rows: &HashMap<String, usize>, xs: &[f64]) {
    let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
    let bare = HashSet::new();
    let not_hash = Vec::new();
}
";
        let items = parse(src);
        assert_eq!(
            items.hash_idents,
            vec!["bare", "engine_keys", "groups", "rows"]
        );
    }

    #[test]
    fn use_imports_resolve_names() {
        let src = "\
use billcap_milp::{Model, Sense as Dir};
use std::collections::HashMap;
pub use crate::engine::DecisionEngine;
";
        let items = parse(src);
        assert_eq!(items.imports["Model"], "billcap_milp::Model");
        assert_eq!(items.imports["Dir"], "billcap_milp::Sense");
        assert_eq!(items.imports["HashMap"], "std::collections::HashMap");
        assert_eq!(
            items.imports["DecisionEngine"],
            "crate::engine::DecisionEngine"
        );
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "\
fn lib() {}
#[cfg(test)]
mod tests {
    #[test]
    fn check() {}
}
";
        let items = parse(src);
        assert!(!items.symbols[0].is_test);
        assert!(items.symbols[1].is_test);
        assert_eq!(items.symbols[1].modules, vec!["tests".to_string()]);
    }
}
