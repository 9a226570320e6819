//! detlint: the billcap workspace's source linter — per-file layering
//! rules and a call-graph-aware determinism analysis over one lexer.
//!
//! Every subsystem since the decision server stakes its correctness on
//! bitwise determinism — the serve differential replay, the risk-engine
//! digest, thread-count-invariant telemetry counters. Those contracts
//! are enforced *dynamically* by tests; detlint proves the complement
//! *statically*: no nondeterminism source is reachable from a declared
//! decision root. Alongside, it enforces the layering policy the
//! compiler cannot see (L001–L005) and keeps the public surface to what
//! another crate calls (U001).
//!
//! # Passes
//!
//! 1. **Lex** (`lex`): strip comments and literals, track
//!    `#[cfg(test)]` and hot regions, collect
//!    `// detlint-allow(code): reason` waivers. The layering rules run
//!    on these lines, file by file.
//! 2. **Parse** (`parse`): a lightweight item parser producing a
//!    per-crate symbol table (fns, impls, `use` imports, hash-typed
//!    identifier declarations).
//! 3. **Graph** ([`analyze`](mod@analyze)): a conservative call graph across all
//!    workspace crates. Method calls link by name, qualified calls
//!    prefer the typed index, bare calls consult `use` imports.
//!    Over-approximation is sound: an extra edge can only mark more
//!    functions reachable, never invent a taint site.
//! 4. **Taint + reachability**: mark nondeterminism sources and report
//!    those reachable from the determinism roots, with the call chain.
//! 5. **Unused pub** (`unused`): collect every identifier token of the
//!    workspace by the library it sits in, and report each library
//!    `pub fn`/`pub const` whose name no other file mentions.
//!
//! # Finding codes
//!
//! | code | rule            | fires on                                        |
//! |------|-----------------|-------------------------------------------------|
//! | D001 | hash-iter       | iteration over `HashMap`/`HashSet`              |
//! | D002 | random-hash     | `RandomState`/`DefaultHasher` keyed into output |
//! | D003 | wall-clock      | `Instant::now` / `SystemTime::now`              |
//! | D004 | env-read        | `env::var` / `env::args` / `env::vars`          |
//! | D005 | thread-id       | `thread::current`                               |
//! | D006 | float-reduction | float `.sum()` / `fold(0.0, +)` not using a     |
//! |      |                 | compensated summation                           |
//! | D007 | root-missing    | a declared root matched no workspace function   |
//! | D008 | waiver-hygiene  | stale waiver, unknown code, or missing reason   |
//! | L001 | unwrap          | `.unwrap()` / `.expect(` in library code        |
//! | L002 | timing          | `Instant::now` / `SystemTime` outside obs, rt   |
//! | L003 | thread-spawn    | `thread::spawn` outside rt                      |
//! | L004 | forbid-unsafe   | crate root without `#![forbid(unsafe_code)]`    |
//! | L005 | hot-alloc       | `Vec::new()` / `vec![` inside a hot region      |
//! | U001 | unused-pub      | library `pub fn`/`pub const` named nowhere      |
//! |      |                 | outside its library                             |
//!
//! The L-codes are per-file and not reachability-gated; their scopes
//! and exemptions are documented in the `layering` module. U001 is a
//! token scan over every file of the workspace; its scope is documented
//! in the `unused` module.
//!
//! D001–D006 findings are *reachability-gated*: a taint site in a
//! function no decision root can reach is not reported. Waivers are
//! not gated — a waiver that suppresses a site in a currently
//! unreachable function still counts as used, so refactors that move a
//! function out of a decision path do not instantly turn its waivers
//! into D008 noise.
//!
//! # Waivers
//!
//! `// detlint-allow(D003): advisory wall-clock telemetry` on the site
//! line or the directly preceding comment line, for any code. The
//! reason after the colon is mandatory (D008 otherwise); doc comments
//! never mint waivers, so documentation may show the syntax without
//! waiving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
mod layering;
mod lex;
mod parse;
pub mod report;
mod unused;

pub use analyze::{analyze, default_roots, Report, RootSpec};
pub use report::{to_jsonl, Code, Finding};
