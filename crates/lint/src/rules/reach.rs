//! Rule `reach`: a `pub` item stays `pub` only while something outside its
//! crate names it.
//!
//! rustc's `dead_code` lint skips the `pub` items of a library crate, so no
//! build sees an unused `pub fn`. This rule closes the gap: an item
//! declared `pub` (`fn`, `struct`, `enum`, `trait`, `type`, `const`,
//! `static`, `union`) outside `#[cfg(test)]` in a crate's non-bin `src/`
//! is a finding when its name appears as an identifier token in no scanned
//! file outside that `src/` — another crate, a bin under `src/bin`, a
//! `tests/`, `benches/` or `examples/` tree, or `benchmark/src`. Once such
//! an item is narrowed to `pub(crate)`, rustc reports it as soon as its own
//! crate stops using it. `pub use` and `pub mod` are not items here.
//!
//! Names are matched as tokens, not resolved as paths, so a name another
//! crate also uses may hide a finding; it never invents one. Comments and
//! string contents are not callers.
//!
//! Exempt: a type named in the signature of one of its own crate's
//! `pub fn`s or in a `pub` field or variant of its own crate (narrowing it
//! would only trade this finding for a `private_interfaces` warning), and a
//! `pub const` in a file the `surface` rule reads whose value is a `/v1`
//! route template, plus `TRIPLE_ENDPOINTS` (the rule reads both as text).

use std::collections::{BTreeSet, HashMap};

use crate::lexer::{Token, TokenKind};
use crate::report::Finding;
use crate::rules::surface::SERVED_FILES;
use crate::rules::{gated, live_tokens};
use crate::scan::{SourceFile, Workspace};

const RULE: &str = "reach";

/// Keywords that open an item a `pub` can precede.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "union",
];

/// One `pub` item declaration; `at` is the index of its name.
struct Decl<'a> {
    kind: &'a str,
    name: &'a str,
    line: u32,
    at: usize,
}

#[must_use]
pub(crate) fn check(ws: &Workspace) -> Vec<Finding> {
    // Identifier -> the crates whose non-bin `src/` names it; `outside`
    // holds the identifiers any other scanned file names.
    let mut home_names: HashMap<&str, BTreeSet<&str>> = HashMap::new();
    let mut outside: BTreeSet<&str> = BTreeSet::new();
    for f in &ws.files {
        let home = is_home(f);
        for t in f.tokens.iter().filter(|t| t.kind == TokenKind::Ident) {
            let name = t.text(&f.text);
            if home {
                home_names
                    .entry(name)
                    .or_default()
                    .insert(f.crate_name.as_str());
            } else {
                outside.insert(name);
            }
        }
    }
    let named_elsewhere = |name: &str, krate: &str| {
        outside.contains(name)
            || home_names
                .get(name)
                .is_some_and(|crates| crates.iter().any(|c| *c != krate))
    };

    let mut exempt: HashMap<&str, BTreeSet<&str>> = HashMap::new();
    let mut decls: Vec<(&SourceFile, Decl)> = Vec::new();
    for f in ws.files.iter().filter(|f| is_home(f)) {
        let sig = live_tokens(f);
        let exposed = exempt.entry(f.crate_name.as_str()).or_default();
        for (i, t) in sig.iter().enumerate() {
            if t.text(&f.text) != "pub" {
                continue;
            }
            let d = decl(&sig, &f.text, i);
            exposed.extend(exposed_names(&sig, &f.text, i, d.as_ref()));
            if let Some(d) = d {
                if is_route_template(f, &sig, &d) {
                    exposed.insert(d.name);
                }
                decls.push((f, d));
            }
        }
    }

    let mut findings = Vec::new();
    for (f, d) in decls {
        let krate = f.crate_name.as_str();
        if named_elsewhere(d.name, krate) || exempt.get(krate).is_some_and(|e| e.contains(d.name)) {
            continue;
        }
        findings.extend(gated(
            f,
            RULE,
            d.line,
            format!(
                "`pub {} {}` ({}:{}) has no caller outside crate `{krate}`: narrow it to \
                 `pub(crate)` or private, then delete it if rustc reports it unused",
                d.kind, d.name, f.rel, d.line
            ),
        ));
    }
    findings
}

/// A crate's non-bin `src/`: `crates/<name>/src/…` minus `src/bin/` and
/// `src/main.rs`.
fn is_home(f: &SourceFile) -> bool {
    let mut parts = f.rel.split('/');
    parts.next() == Some("crates")
        && parts.next().is_some()
        && parts.next() == Some("src")
        && !matches!(parts.next(), Some("bin" | "main.rs"))
}

/// The item a bare `pub` at significant index `i` declares, if any:
/// `pub(…)`, `pub use`, `pub mod` and `pub` fields are not items.
fn decl<'a>(sig: &[&Token], text: &'a str, i: usize) -> Option<Decl<'a>> {
    let at = |j: usize| sig.get(j).map_or("", |t| t.text(text));
    let mut j = i + 1;
    // Qualifiers: `const fn`, `unsafe`, `async`, `extern "C"`.
    while matches!(at(j), "unsafe" | "async" | "extern")
        || (at(j) == "const" && matches!(at(j + 1), "fn" | "unsafe" | "async" | "extern"))
        || (at(j - 1) == "extern" && sig.get(j).is_some_and(|t| t.kind == TokenKind::Str))
    {
        j += 1;
    }
    let (kind, name) = (at(j), sig.get(j + 1)?);
    (ITEM_KEYWORDS.contains(&kind) && name.kind == TokenKind::Ident).then(|| Decl {
        kind,
        name: name.text(text),
        line: sig[i].line,
        at: j + 1,
    })
}

/// Identifiers the bare `pub` at `i` exposes to other crates: a `pub fn`'s
/// signature through its `where` clause, a `pub enum`'s variants, or a
/// `pub` field's type (named or tuple). Other items expose nothing here.
fn exposed_names<'a>(sig: &[&Token], text: &'a str, i: usize, d: Option<&Decl>) -> Vec<&'a str> {
    let at = |j: usize| sig.get(j).map_or("", |t| t.text(text));
    // Where the exposed tokens start, and what ends them at depth 0.
    let (start, ends): (usize, &[&str]) = match d.map(|d| (d.kind, d.at)) {
        Some(("fn", name)) => (name + 1, &["{", ";"]),
        Some(("enum", name)) => match (name..sig.len()).find(|&j| at(j) == "{") {
            Some(open) => (open + 1, &["}"]),
            None => return Vec::new(),
        },
        Some(_) => return Vec::new(),
        None if matches!(at(i + 1), "(" | "use" | "mod" | "extern" | "crate") => return Vec::new(),
        None => (i + 1, &[",", ")", "}"]),
    };
    let mut out = Vec::new();
    let mut depth = 0i32;
    for (j, t) in sig.iter().enumerate().skip(start) {
        let s = t.text(text);
        match s {
            _ if depth == 0 && ends.contains(&s) => break,
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ">" if at(j - 1) != "-" => depth -= 1,
            _ if t.kind == TokenKind::Ident => out.push(s),
            _ => {}
        }
    }
    out
}

/// A `pub const` the `surface` rule reads: `TRIPLE_ENDPOINTS`, or a `/v1`
/// route template, in one of the files that define the served surface.
fn is_route_template(f: &SourceFile, sig: &[&Token], d: &Decl) -> bool {
    if d.kind != "const" || !SERVED_FILES.contains(&f.rel.as_str()) {
        return false;
    }
    d.name == "TRIPLE_ENDPOINTS"
        || sig
            .iter()
            .skip(d.at)
            .take_while(|t| t.text(&f.text) != ";")
            .any(|t| t.kind == TokenKind::Str && t.text(&f.text).starts_with("\"/v1"))
}
