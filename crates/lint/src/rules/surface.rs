//! Rule `surface`: the versioned HTTP surface and the span registry stay
//! consistent across tiers.
//!
//! **Routes** — the served set is parsed from `crates/serve/src/routes.rs`
//! (exact `/v1/...` literals plus the `TRIPLE_ENDPOINTS` const, which
//! expands to `/v1/<endpoint>/<device>/<scale>/<workload>`) and
//! `crates/gateway/src/server.rs` (the routes the gateway answers
//! locally; everything else it forwards to the same serve surface).
//! Every `/v1` string a client, bin, bench, or test consumes must match:
//! an exact served literal, or a five-segment triple path whose endpoint
//! is in `TRIPLE_ENDPOINTS`. Query strings are ignored and `format!`
//! interpolations (`{device}`) are wildcards.
//!
//! **Spans** — every literal passed to `.child("...")` outside test code
//! must appear in `SPAN_NAMES` in `crates/obs/src/trace.rs`, the one
//! documented registry (its runtime twin is a `debug_assert!` in
//! `SpanCtx::child`).

use std::collections::BTreeSet;

use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::rules::{gated, live_tokens, unquote};
use crate::scan::{SourceFile, Workspace};

const RULE: &str = "surface";

/// Files that *define* the surface; their literals are served, not
/// consumed.
pub(crate) const SERVED_FILES: &[&str] =
    &["crates/serve/src/routes.rs", "crates/gateway/src/server.rs"];

#[must_use]
pub(crate) fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    check_routes(ws, &mut findings);
    check_spans(ws, &mut findings);
    findings
}

fn check_routes(ws: &Workspace, findings: &mut Vec<Finding>) {
    let mut served: BTreeSet<String> = BTreeSet::new();
    let mut endpoints: Vec<String> = Vec::new();
    for f in &ws.files {
        if !SERVED_FILES.contains(&f.rel.as_str()) {
            continue;
        }
        let sig = live_tokens(f);
        let text = f.text.as_str();
        for (i, t) in sig.iter().enumerate() {
            if matches!(t.kind, TokenKind::Str) {
                let lit = unquote(t.text(text));
                if lit.starts_with("/v1") && !lit.contains(' ') {
                    served.insert(lit.to_owned());
                }
            }
            if t.text(text) == "TRIPLE_ENDPOINTS" && endpoints.is_empty() {
                endpoints = const_strings(&sig, text, i);
            }
        }
    }
    if served.is_empty() {
        // No serving tier in this workspace; nothing to cross-check.
        return;
    }

    for f in &ws.files {
        if SERVED_FILES.contains(&f.rel.as_str()) {
            continue;
        }
        if !consumes_routes(f) {
            continue;
        }
        let text = f.text.as_str();
        for t in f.tokens.iter().filter(|t| matches!(t.kind, TokenKind::Str)) {
            let lit = unquote(t.text(text));
            if !lit.starts_with("/v1") || lit.contains(' ') {
                continue;
            }
            let path = lit.split('?').next().unwrap_or(lit);
            if !is_served(path, &served, &endpoints) {
                findings.extend(gated(
                    f,
                    RULE,
                    t.line,
                    format!(
                        "path {lit:?} is not served by serve::routes or gateway::server \
                         (served: exact /v1 literals plus /v1/{{{}}}/<device>/<scale>/<workload>)",
                        endpoints.join("|")
                    ),
                ));
            }
        }
    }
}

/// Consumers of the `/v1` surface: the serving crates themselves (their
/// clients, bins, benches, and tests) and the top-level `tests/` and
/// `examples/` trees. `obs` is excluded — span tags there mention paths
/// without consuming them.
fn consumes_routes(f: &SourceFile) -> bool {
    matches!(
        f.crate_name.as_str(),
        "serve" | "gateway" | "tests" | "examples"
    )
}

/// Does `path` match the served surface?
fn is_served(path: &str, served: &BTreeSet<String>, endpoints: &[String]) -> bool {
    if served.contains(path) {
        return true;
    }
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    if segments.len() == 5 && segments.first() == Some(&"v1") {
        let endpoint = segments.get(1).copied().unwrap_or("");
        return endpoint.contains('{') || endpoints.iter().any(|e| e == endpoint);
    }
    // A non-triple path with interpolated segments may match any served
    // literal of the same shape.
    served.iter().any(|s| wildcard_eq(path, s))
}

/// Segment-wise equality where a `{…}` segment on either side matches
/// anything: consumers interpolate into concrete served paths, and served
/// route templates (`/v1/store/record/{key}`) cover concrete consumed
/// paths.
fn wildcard_eq(consumed: &str, served: &str) -> bool {
    let a: Vec<&str> = consumed.trim_matches('/').split('/').collect();
    let b: Vec<&str> = served.trim_matches('/').split('/').collect();
    a.len() == b.len()
        && a.iter()
            .zip(&b)
            .all(|(ca, cb)| ca == cb || ca.contains('{') || cb.contains('{'))
}

fn check_spans(ws: &Workspace, findings: &mut Vec<Finding>) {
    let mut registry: Vec<String> = Vec::new();
    for f in &ws.files {
        if f.rel.ends_with("obs/src/trace.rs") {
            let sig = live_tokens(f);
            let text = f.text.as_str();
            for (i, t) in sig.iter().enumerate() {
                if t.text(text) == "SPAN_NAMES" {
                    registry = const_strings(&sig, text, i);
                    break;
                }
            }
        }
    }
    if registry.is_empty() {
        // No registry in this workspace; nothing to enforce.
        return;
    }
    for f in ws.files.iter().filter(|f| !f.in_test_dir) {
        let sig = live_tokens(f);
        let text = f.text.as_str();
        for i in 0..sig.len() {
            if sig[i].text(text) == "."
                && sig.get(i + 1).is_some_and(|t| t.text(text) == "child")
                && sig.get(i + 2).is_some_and(|t| t.text(text) == "(")
                && sig
                    .get(i + 3)
                    .is_some_and(|t| matches!(t.kind, TokenKind::Str))
            {
                let name = unquote(sig[i + 3].text(text));
                if !registry.iter().any(|r| r == name) {
                    findings.extend(gated(
                        f,
                        RULE,
                        sig[i + 3].line,
                        format!(
                            "span name {name:?} is not in obs::trace::SPAN_NAMES; add it to \
                             the registry or reuse an existing name"
                        ),
                    ));
                }
            }
        }
    }
}

/// The string literals of a `const NAME: … = ["a", "b", …];` item, given
/// the significant-token index of `NAME`. Skips the type ascription
/// (which may itself contain `;`, as in `[&str; 4]`) by scanning to the
/// `=` first; returns empty for a *use* site (`NAME.contains(…)`), so
/// callers retry on the next occurrence.
fn const_strings(sig: &[&crate::lexer::Token], text: &str, name_idx: usize) -> Vec<String> {
    let mut i = name_idx + 1;
    // Find the initializer `=`; a `.` or `(` first means this is a use
    // site, not the definition.
    loop {
        match sig.get(i).map(|t| t.text(text)) {
            Some("=") => break,
            Some("." | "(") | None => return Vec::new(),
            _ => i += 1,
        }
    }
    let mut out = Vec::new();
    for t in sig.iter().skip(i + 1) {
        match t.kind {
            TokenKind::Str => out.push(unquote(t.text(text)).to_owned()),
            TokenKind::Punct if t.text(text) == ";" => break,
            _ => {}
        }
    }
    out
}
