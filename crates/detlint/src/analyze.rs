//! Analysis passes: crate discovery, the per-file layering rules, the
//! unused-pub scan, conservative call graph, taint scan, reachability
//! from determinism roots, and waiver hygiene.
//!
//! The call graph is a deliberate over-approximation: a method call
//! `.name(...)` links to *every* workspace function called `name`, a
//! qualified call `Type::name(...)` prefers the typed symbol index and
//! falls back to match-by-name, and bare calls consult the file's `use`
//! imports before the same fallback. Over-approximation is sound here
//! because findings are only emitted for taint *sites* — an extra edge
//! can at worst mark one more function reachable, never invent a site.

use crate::layering;
use crate::lex::{lex, Waiver};
use crate::parse::{parse_file, BodyLine, Symbol};
use crate::report::{sort_findings, Code, Finding};
use crate::unused::{pub_items, Mentions, PubItem};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};

/// A declared determinism root: optionally typed (`Type::name`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootSpec {
    /// The impl/trait type the fn must belong to, when given.
    pub type_name: Option<String>,
    /// The function name.
    pub name: String,
}

impl RootSpec {
    /// Parses `name` or `Type::name`.
    pub fn parse(s: &str) -> RootSpec {
        match s.rsplit_once("::") {
            Some((t, n)) => RootSpec {
                type_name: Some(t.to_string()),
                name: n.to_string(),
            },
            None => RootSpec {
                type_name: None,
                name: s.to_string(),
            },
        }
    }

    /// Canonical display form.
    pub fn display(&self) -> String {
        match &self.type_name {
            Some(t) => format!("{}::{}", t, self.name),
            None => self.name.clone(),
        }
    }
}

/// The default root set for the billcap workspace: every function whose
/// output is covered by a bitwise-replay or digest contract.
pub fn default_roots() -> Vec<RootSpec> {
    [
        "DecisionEngine::decide_hour",
        "BillCapper::decide_hour",
        "DecisionKey::new",
        "DecisionKey::with_fingerprint",
        "system_fingerprint",
        "render_decision_frame",
        "render_decision_body",
        "run_month",
        "run_month_fresh",
        "run_month_scratch",
        "RiskEngine::run",
        "RiskEngine::run_with_seeds",
        "RiskSummary::from_samples",
        "RiskSummary::digest",
        "run_decider",
        "handle_request",
        "build_plan",
        "run_replay",
        "verify_replay",
    ]
    .iter()
    .map(|s| RootSpec::parse(s))
    .collect()
}

/// Analysis summary: findings plus graph statistics for the report
/// footer.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by `(code, file, line)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Number of parsed functions.
    pub symbols: usize,
    /// Number of call-graph edges.
    pub edges: usize,
    /// Number of functions reachable from the root set.
    pub reachable: usize,
    /// Number of waivers found across the workspace.
    pub waivers: usize,
}

/// A discovered crate source tree.
struct CrateSrc {
    /// Directory name (`milp`), or the package name for the root crate.
    name: String,
    /// Absolute path to the crate's `src/`.
    src: PathBuf,
}

/// Reads the `name = "..."` of the first `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
        } else if in_package {
            if let Some(rest) = t.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Discovers crates under `root`: the root package (if any) plus every
/// `crates/*/` directory with a manifest and a `src/`.
fn discover_crates(root: &Path) -> Result<Vec<CrateSrc>, String> {
    let mut out = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    if let Ok(text) = fs::read_to_string(&root_manifest) {
        if let Some(name) = package_name(&text) {
            let src = root.join("src");
            if src.is_dir() {
                out.push(CrateSrc { name, src });
            }
        }
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let src = dir.join("src");
            if dir.join("Cargo.toml").is_file() && src.is_dir() {
                let name = dir
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                out.push(CrateSrc { name, src });
            }
        }
    }
    if out.is_empty() {
        return Err(format!("no crates found under {}", root.display()));
    }
    Ok(out)
}

/// Collects `.rs` files under `dir`, depth-first, in sorted order.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Workspace-relative display path with `/` separators.
fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Rust keywords that can precede `(` without being calls.
const KEYWORDS: [&str; 18] = [
    "if", "while", "for", "match", "return", "fn", "loop", "in", "as", "move", "mut", "ref", "let",
    "where", "dyn", "box", "break", "continue",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s) || s == "impl" || s == "pub" || s == "use" || s == "else"
}

/// A call site extracted from one line.
#[derive(Debug, PartialEq)]
pub(crate) struct CallSite {
    /// Callee name.
    pub name: String,
    /// Qualifier: `None` = bare call, `Some("")` = method call,
    /// `Some(ty)` = `ty::name(...)`.
    pub qualifier: Option<String>,
}

/// Trailing identifier of `s`, with its start byte.
fn trailing_ident(s: &str) -> Option<(usize, &str)> {
    let end = s.len();
    let start = s
        .char_indices()
        .rev()
        .take_while(|(_, c)| c.is_alphanumeric() || *c == '_')
        .last()
        .map(|(i, _)| i)?;
    let ident = &s[start..end];
    if ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some((start, ident))
}

/// Extracts call sites from a stripped line.
pub(crate) fn calls_on_line(code: &str) -> Vec<CallSite> {
    let mut out = Vec::new();
    for (pos, c) in code.char_indices() {
        if c != '(' {
            continue;
        }
        let mut head = &code[..pos];
        // Skip back over a turbofish `::<...>` so `f::<T>(x)` still
        // resolves to `f`.
        if head.ends_with('>') {
            let mut depth = 0i32;
            let mut cut = None;
            for (i, ch) in head.char_indices().rev() {
                match ch {
                    '>' => depth += 1,
                    '<' => {
                        depth -= 1;
                        if depth == 0 {
                            cut = Some(i);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            match cut {
                Some(i) if head[..i].ends_with("::") => head = &head[..i - 2],
                _ => continue,
            }
        }
        if head.ends_with('!') {
            continue; // macro invocation
        }
        let Some((start, name)) = trailing_ident(head) else {
            continue;
        };
        if is_keyword(name) {
            continue;
        }
        let before = &head[..start];
        let site = if before.ends_with('.') {
            CallSite {
                name: name.to_string(),
                qualifier: Some(String::new()),
            }
        } else if let Some(stripped) = before.strip_suffix("::") {
            let q = trailing_ident(stripped)
                .map(|(_, q)| q.to_string())
                .unwrap_or_default();
            CallSite {
                name: name.to_string(),
                qualifier: Some(q),
            }
        } else {
            CallSite {
                name: name.to_string(),
                qualifier: None,
            }
        };
        out.push(site);
    }
    out
}

/// Methods whose receiver ordering leaks hash-map insertion order.
const HASH_ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
    "into_iter",
];

/// Identifier declarations in one function (params and lets), with
/// whether each has a hash-ordered type. Later lets shadow earlier ones.
fn fn_local_decls(sym: &Symbol) -> BTreeMap<String, bool> {
    let mut out = BTreeMap::new();
    // Params: `name: Type` pairs in the signature header.
    let header = sym.header.as_str();
    let bytes = header.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b':' {
            continue;
        }
        if (i + 1 < bytes.len() && bytes[i + 1] == b':') || (i > 0 && bytes[i - 1] == b':') {
            continue;
        }
        let Some((_, name)) = trailing_ident(header[..i].trim_end()) else {
            continue;
        };
        let ty = &header[i + 1..];
        let ty = ty.split([',', ')']).next().unwrap_or(ty);
        out.insert(
            name.to_string(),
            ty.contains("HashMap") || ty.contains("HashSet"),
        );
    }
    // Body lets, in order (shadowing overwrites).
    for line in &sym.body {
        let code = line.code.as_str();
        let Some(pos) = code.find("let ") else {
            continue;
        };
        let rest = code[pos + 4..].trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
        if let Some(tuple) = rest.strip_prefix('(') {
            // Tuple pattern: `let (rows, vals) = expr` declares each
            // binding with the expression's hash-ness.
            let Some(close) = tuple.find(')') else {
                continue;
            };
            let after = &tuple[close + 1..];
            let is_hash = after.contains("HashMap") || after.contains("HashSet");
            for part in tuple[..close].split(',') {
                let name = part.trim().trim_start_matches("mut ").trim();
                if !name.is_empty()
                    && name != "_"
                    && name.chars().all(|c| c.is_alphanumeric() || c == '_')
                {
                    out.insert(name.to_string(), is_hash);
                }
            }
            continue;
        }
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() || name == "_" {
            continue;
        }
        let after = &rest[name.len()..];
        out.insert(name, after.contains("HashMap") || after.contains("HashSet"));
    }
    out
}

/// Whether `ident` names a hash-ordered collection at this use site.
/// `is_field` is true for `x.ident.iter()`-style accesses, which bypass
/// the local-declaration table.
fn is_hash_ident(
    ident: &str,
    is_field: bool,
    locals: &BTreeMap<String, bool>,
    file_hash: &BTreeSet<String>,
) -> bool {
    if !is_field {
        if let Some(&h) = locals.get(ident) {
            return h;
        }
    }
    file_hash.contains(ident)
}

/// One detected taint site (before waiver filtering).
struct Site {
    code: Code,
    line: usize,
    message: String,
}

/// Scans a function body for taint sites.
fn taint_sites(
    sym: &Symbol,
    locals: &BTreeMap<String, bool>,
    file_hash: &BTreeSet<String>,
) -> Vec<Site> {
    let mut sites = Vec::new();
    let name_lc = sym.name.to_ascii_lowercase();
    let compensated = name_lc.contains("stable_sum") || name_lc.contains("neumaier");
    for line in &sym.body {
        let code = line.code.as_str();
        scan_hash_iter(code, line.number, locals, file_hash, &mut sites);
        if code.contains("RandomState")
            || code.contains("DefaultHasher")
            || code.contains("BuildHasherDefault")
            || code.contains(".build_hasher(")
        {
            sites.push(Site {
                code: Code::D002,
                line: line.number,
                message: "default RandomState hashing reachable from a decision path".into(),
            });
        }
        if code.contains("Instant::now") || code.contains("SystemTime::now") {
            sites.push(Site {
                code: Code::D003,
                line: line.number,
                message: "wall-clock read on a determinism-critical path".into(),
            });
        }
        if code.contains("env::var") || code.contains("env::args") || code.contains("env::vars") {
            sites.push(Site {
                code: Code::D004,
                line: line.number,
                message: "environment read on a determinism-critical path".into(),
            });
        }
        if code.contains("thread::current") {
            sites.push(Site {
                code: Code::D005,
                line: line.number,
                message: "thread-identity read on a determinism-critical path".into(),
            });
        }
        if !compensated && !code.contains("stable_sum") {
            scan_float_reduction(code, line.number, &mut sites);
        }
    }
    sites
}

/// D001: hash-ordered iteration, via adapter methods or `for ... in`.
fn scan_hash_iter(
    code: &str,
    number: usize,
    locals: &BTreeMap<String, bool>,
    file_hash: &BTreeSet<String>,
    sites: &mut Vec<Site>,
) {
    for m in HASH_ITER_METHODS {
        let pat = format!(".{m}(");
        let mut from = 0;
        while let Some(p) = code[from..].find(&pat) {
            let at = from + p;
            from = at + pat.len();
            let Some((start, ident)) = trailing_ident(&code[..at]) else {
                continue;
            };
            let is_field = code[..start].ends_with('.');
            if is_hash_ident(ident, is_field, locals, file_hash) {
                sites.push(Site {
                    code: Code::D001,
                    line: number,
                    message: format!("iteration over hash-ordered `{ident}` via .{m}()"),
                });
            }
        }
    }
    // `for pat in [&][mut ]ident {`
    if let Some(fp) = code.find("for ") {
        if let Some(ip) = code[fp..].find(" in ") {
            let expr = &code[fp + ip + 4..];
            let expr = expr.split('{').next().unwrap_or(expr).trim();
            let expr = expr.trim_start_matches('&');
            let expr = expr.strip_prefix("mut ").unwrap_or(expr).trim();
            if !expr.is_empty()
                && expr
                    .chars()
                    .all(|c| c.is_alphanumeric() || c == '_' || c == '.')
            {
                let ident = expr.rsplit('.').next().unwrap_or(expr);
                let is_field = expr.contains('.');
                if is_hash_ident(ident, is_field, locals, file_hash) {
                    sites.push(Site {
                        code: Code::D001,
                        line: number,
                        message: format!("iteration over hash-ordered `{ident}` via for-in"),
                    });
                }
            }
        }
    }
}

/// D006: uncompensated float reductions.
fn scan_float_reduction(code: &str, number: usize, sites: &mut Vec<Site>) {
    let turbofish = code.contains(".sum::<f64>()") || code.contains(".sum::<f32>()");
    let bare = code.contains(".sum()") && (code.contains("f64") || code.contains("f32"));
    if turbofish || bare {
        sites.push(Site {
            code: Code::D006,
            line: number,
            message: "float `.sum()` not routed through a compensated summation".into(),
        });
    }
    if let Some(p) = code.find("fold(0.0") {
        if code[p..].contains('+') {
            sites.push(Site {
                code: Code::D006,
                line: number,
                message: "float `fold(0.0, ..+..)` not routed through a compensated summation"
                    .into(),
            });
        }
    }
}

/// A waiver's registry entry, tracking whether it suppressed anything.
struct WaiverEntry {
    file: String,
    waiver: Waiver,
    used: bool,
}

/// Marks the registry entry of waiver `w` in `file` as used.
fn mark_used(waiver_reg: &mut [WaiverEntry], file: &str, w: &Waiver) {
    for entry in waiver_reg.iter_mut() {
        if entry.file == file && entry.waiver.line == w.line && entry.waiver.code == w.code {
            entry.used = true;
        }
    }
}

/// Runs the full analysis over the workspace at `root`.
pub fn analyze(root: &Path, roots: &[RootSpec]) -> Result<Report, String> {
    let crates = discover_crates(root)?;

    // Pass 1+2: lex and parse every file.
    let mut symbols: Vec<Symbol> = Vec::new();
    let mut file_imports: Vec<(String, HashMap<String, String>)> = Vec::new();
    // Hash-typed identifier declarations are scoped per *file*: struct
    // fields in this workspace are iterated in their defining file, and
    // a wider (per-crate) scope lets a `rows: HashMap` field in one
    // module taint an unrelated `rows: &[usize]` in another.
    let mut file_hash: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut waiver_reg: Vec<WaiverEntry> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut files = 0usize;
    let mut mentions = Mentions::default();
    // U001's scope: (crate index, file, item) for each library item.
    let mut pub_decls: Vec<(usize, String, PubItem)> = Vec::new();
    for (ci, c) in crates.iter().enumerate() {
        let has_lib = c.src.join("lib.rs").is_file();
        let mut paths = Vec::new();
        rs_files(&c.src, &mut paths);
        for path in paths {
            let text =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let rel = rel_path(root, &path);
            let lines = lex(&text);
            let items = parse_file(&c.name, &rel, &lines);
            let in_src = path.strip_prefix(&c.src).unwrap_or(&path);
            let used =
                layering::check_file(&c.name, has_lib, in_src, &rel, &text, &lines, &mut findings);
            files += 1;
            if has_lib && !layering::in_bin(in_src) {
                mentions.add(Some(ci), &lines);
                pub_decls.extend(pub_items(&lines).into_iter().map(|i| (ci, rel.clone(), i)));
            } else {
                mentions.add(None, &lines);
            }
            file_hash
                .entry(rel.clone())
                .or_default()
                .extend(items.hash_idents.iter().cloned());
            for w in items.waivers {
                waiver_reg.push(WaiverEntry {
                    file: rel.clone(),
                    used: used.contains(&&w),
                    waiver: w,
                });
            }
            symbols.extend(items.symbols);
            file_imports.push((rel, items.imports));
        }
    }

    // Every other file is outside every library: the tests, examples
    // and benches of the root package and of each crate.
    let mut dirs: BTreeSet<&Path> = crates.iter().filter_map(|c| c.src.parent()).collect();
    dirs.insert(root);
    let mut outer = Vec::new();
    for dir in dirs {
        for sub in ["tests", "examples", "benches"] {
            rs_files(&dir.join(sub), &mut outer);
        }
    }
    for path in outer {
        let text =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        mentions.add(None, &lex(&text));
        files += 1;
    }

    // U001: library items named nowhere outside their library.
    for (ci, file, item) in &pub_decls {
        if mentions.outside(&item.name, *ci) {
            continue;
        }
        match &item.waiver {
            Some(w) => mark_used(&mut waiver_reg, file, w),
            None => findings.push(Finding::at(
                Code::U001,
                file,
                item.line,
                format!(
                    "`{}` is public but named nowhere outside the `{}` library; \
                     drop `pub`, delete it, or waive with a reason",
                    item.name, crates[*ci].name
                ),
            )),
        }
    }

    // Symbol indices.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut by_typed: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
    for (i, s) in symbols.iter().enumerate() {
        by_name.entry(&s.name).or_default().push(i);
        if let Some(t) = &s.impl_type {
            by_typed
                .entry((t.as_str(), s.name.as_str()))
                .or_default()
                .push(i);
        }
    }
    let imports_of: HashMap<&str, &HashMap<String, String>> =
        file_imports.iter().map(|(f, m)| (f.as_str(), m)).collect();
    // Package idents (`billcap_milp`) → crate directory names.
    let pkg_of_crate: HashMap<String, String> = {
        let mut m = HashMap::new();
        for c in &crates {
            m.insert(
                format!("billcap_{}", c.name.replace('-', "_")),
                c.name.clone(),
            );
            m.insert(c.name.replace('-', "_"), c.name.clone());
        }
        m
    };

    // Pass 3: conservative call graph.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); symbols.len()];
    for (i, sym) in symbols.iter().enumerate() {
        let imports = imports_of.get(sym.file.as_str()).copied();
        for line in &sym.body {
            for call in calls_on_line(&line.code) {
                let targets: Vec<usize> = match &call.qualifier {
                    Some(q) if q.is_empty() => {
                        // Method call: any workspace fn with this name.
                        by_name.get(call.name.as_str()).cloned().unwrap_or_default()
                    }
                    Some(q) => {
                        let ty = if q == "Self" {
                            sym.impl_type.clone().unwrap_or_else(|| q.clone())
                        } else {
                            q.clone()
                        };
                        match by_typed.get(&(ty.as_str(), call.name.as_str())) {
                            Some(v) => v.clone(),
                            None => by_name.get(call.name.as_str()).cloned().unwrap_or_default(),
                        }
                    }
                    None => {
                        // Bare call: prefer the imported crate's fn.
                        let all = by_name.get(call.name.as_str()).cloned().unwrap_or_default();
                        let preferred: Vec<usize> = imports
                            .and_then(|im| im.get(call.name.as_str()))
                            .and_then(|path| path.split("::").next())
                            .and_then(|seg| pkg_of_crate.get(seg))
                            .map(|krate| {
                                all.iter()
                                    .copied()
                                    .filter(|&t| &symbols[t].crate_name == krate)
                                    .collect()
                            })
                            .unwrap_or_default();
                        if preferred.is_empty() {
                            all
                        } else {
                            preferred
                        }
                    }
                };
                edges[i].extend(targets);
            }
        }
        edges[i].sort_unstable();
        edges[i].dedup();
    }
    let edge_count: usize = edges.iter().map(Vec::len).sum();

    // Pass 4: resolve roots; BFS reachability with predecessor chains.
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut pred: Vec<Option<usize>> = vec![None; symbols.len()];
    let mut origin: Vec<Option<usize>> = vec![None; symbols.len()];
    let mut reached: Vec<bool> = vec![false; symbols.len()];
    let mut root_display: Vec<String> = Vec::new();
    for spec in roots {
        let matches: Vec<usize> = symbols
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                !s.is_test
                    && s.name == spec.name
                    && spec
                        .type_name
                        .as_ref()
                        .is_none_or(|t| s.impl_type.as_deref() == Some(t.as_str()))
            })
            .map(|(i, _)| i)
            .collect();
        if matches.is_empty() {
            findings.push(Finding {
                code: Code::D007,
                file: "(root-set)".into(),
                line: 0,
                function: spec.display(),
                message: format!(
                    "declared determinism root `{}` matched no workspace function",
                    spec.display()
                ),
                root: String::new(),
                chain: String::new(),
            });
            continue;
        }
        let ridx = root_display.len();
        root_display.push(spec.display());
        for m in matches {
            if !reached[m] {
                reached[m] = true;
                origin[m] = Some(ridx);
                queue.push_back(m);
            }
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &edges[u] {
            if !reached[v] && !symbols[v].is_test {
                reached[v] = true;
                pred[v] = Some(u);
                origin[v] = origin[u];
                queue.push_back(v);
            }
        }
    }
    let reachable_count = reached.iter().filter(|&&r| r).count();

    // Pass 5: taint scan + waiver matching.
    let empty_hash = BTreeSet::new();
    for (i, sym) in symbols.iter().enumerate() {
        let locals = fn_local_decls(sym);
        let hashes = file_hash.get(&sym.file).unwrap_or(&empty_hash);
        for site in taint_sites(sym, &locals, hashes) {
            // A matching waiver on the site's line suppresses it and
            // counts as used even when the fn is currently unreachable —
            // waivers must not go stale under reachability churn.
            let line_waivers: Vec<&Waiver> = sym
                .body
                .iter()
                .filter(|l| l.number == site.line)
                .flat_map(|l: &BodyLine| l.waivers.iter())
                .collect();
            let mut waived = false;
            for w in line_waivers {
                if w.code == site.code.as_str() {
                    waived = true;
                    mark_used(&mut waiver_reg, &sym.file, w);
                }
            }
            if waived || !reached[i] || sym.is_test {
                continue;
            }
            // Chain from the root to this symbol.
            let mut chain_syms = vec![i];
            let mut cur = i;
            while let Some(p) = pred[cur] {
                chain_syms.push(p);
                cur = p;
            }
            chain_syms.reverse();
            let chain = chain_syms
                .iter()
                .map(|&s| symbols[s].path())
                .collect::<Vec<_>>()
                .join(" -> ");
            let root = origin[i]
                .map(|r| root_display[r].clone())
                .unwrap_or_default();
            findings.push(Finding {
                code: site.code,
                file: sym.file.clone(),
                line: site.line,
                function: sym.path(),
                message: site.message,
                root,
                chain,
            });
        }
    }

    // Pass 6: waiver hygiene.
    for entry in &waiver_reg {
        let w = &entry.waiver;
        let mut hygiene = |message: String| {
            findings.push(Finding::at(Code::D008, &entry.file, w.line, message));
        };
        if Code::parse(&w.code).is_none() {
            hygiene(format!("waiver names unknown code `{}`", w.code));
            continue;
        }
        if !entry.used {
            hygiene(format!(
                "stale waiver: detlint-allow({}) suppresses nothing",
                w.code
            ));
        }
        if w.reason.is_empty() {
            hygiene(format!(
                "waiver detlint-allow({}) carries no reason",
                w.code
            ));
        }
    }

    sort_findings(&mut findings);
    Ok(Report {
        findings,
        files,
        symbols: symbols.len(),
        edges: edge_count,
        reachable: reachable_count,
        waivers: waiver_reg.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_are_classified() {
        let calls = calls_on_line("let x = solve(a).digest(); DecisionKey::new(k)");
        assert_eq!(
            calls,
            vec![
                CallSite {
                    name: "solve".into(),
                    qualifier: None
                },
                CallSite {
                    name: "digest".into(),
                    qualifier: Some(String::new())
                },
                CallSite {
                    name: "new".into(),
                    qualifier: Some("DecisionKey".into())
                },
            ]
        );
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        assert!(calls_on_line("println!(x); if (a) {}").is_empty());
        assert!(calls_on_line("assert_eq!(a, b);").is_empty());
    }

    #[test]
    fn turbofish_calls_resolve_to_the_fn() {
        let calls = calls_on_line("stable_sum::<f64>(&xs)");
        assert_eq!(
            calls,
            vec![CallSite {
                name: "stable_sum".into(),
                qualifier: None
            }]
        );
        // Turbofish on a method keeps the method name.
        let calls = calls_on_line("it.collect::<Vec<_>>()");
        assert_eq!(
            calls,
            vec![CallSite {
                name: "collect".into(),
                qualifier: Some(String::new())
            }]
        );
    }

    #[test]
    fn root_spec_parses_typed_and_bare() {
        let r = RootSpec::parse("RiskEngine::run");
        assert_eq!(r.type_name.as_deref(), Some("RiskEngine"));
        assert_eq!(r.name, "run");
        assert_eq!(r.display(), "RiskEngine::run");
        let b = RootSpec::parse("run_month");
        assert!(b.type_name.is_none());
    }

    #[test]
    fn float_reduction_detection() {
        let mut sites = Vec::new();
        scan_float_reduction("let t = xs.iter().sum::<f64>();", 1, &mut sites);
        assert_eq!(sites.len(), 1);
        sites.clear();
        // Sequential usize sum: no float marker, no finding.
        scan_float_reduction("let n: usize = counts.iter().sum();", 2, &mut sites);
        assert!(sites.is_empty());
        // fold with max, not +: no finding.
        scan_float_reduction("xs.iter().fold(0.0, f64::max)", 3, &mut sites);
        assert!(sites.is_empty());
        scan_float_reduction("xs.iter().fold(0.0, |a, b| a + b)", 4, &mut sites);
        assert_eq!(sites.len(), 1);
    }

    #[test]
    fn hash_iter_respects_local_overrides() {
        let locals: BTreeMap<String, bool> = [("rows".to_string(), false)].into_iter().collect();
        let file_hash: BTreeSet<String> = ["rows".to_string()].into_iter().collect();
        let mut sites = Vec::new();
        // Local `rows` is a slice: the crate-level hash field must not
        // shadow it.
        scan_hash_iter("for r in rows.iter() {", 1, &locals, &file_hash, &mut sites);
        assert!(sites.is_empty());
        // Field access bypasses locals.
        scan_hash_iter("self.rows.iter()", 2, &locals, &file_hash, &mut sites);
        assert_eq!(sites.len(), 1);
    }
}
