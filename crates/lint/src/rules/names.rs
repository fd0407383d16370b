//! Rule `names`: metric-name hygiene across the workspace.
//!
//! Every `registry.counter(…)`, `.gauge(…)`, and `.histogram(…)`
//! registration in non-test code is collected — the name is either a
//! string literal or the literal inside `&format!("…")`, with `{i}`
//! interpolations normalized to a wildcard. Checks:
//!
//! * names match `^cactus_[a-z0-9_]+$` (snake_case under one namespace,
//!   so dashboards can glob `cactus_*`);
//! * counter names end in `_total` (the monotonic-counter convention;
//!   gauges MAY use `_total` when they mirror an upstream counter);
//! * each normalized name is registered at exactly one site workspace-wide
//!   — two registrations of one name silently share (or clobber) a series.

use std::collections::BTreeMap;

use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::rules::{gated, live_tokens, unquote};
use crate::scan::Workspace;

const RULE: &str = "names";

const KINDS: &[&str] = &["counter", "gauge", "histogram"];

#[must_use]
pub(crate) fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    // normalized name -> first registration site (file, line).
    let mut seen: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for f in ws.files.iter().filter(|f| !f.in_test_dir) {
        let sig = live_tokens(f);
        let text = f.text.as_str();
        for i in 0..sig.len() {
            if sig[i].text(text) != "." {
                continue;
            }
            let Some(kind) = sig
                .get(i + 1)
                .map(|t| t.text(text))
                .filter(|k| KINDS.contains(k))
            else {
                continue;
            };
            if sig.get(i + 2).is_none_or(|t| t.text(text) != "(") {
                continue;
            }
            // First argument: `"name"` or `&format!("name_{i}")`.
            let lit = if sig
                .get(i + 3)
                .is_some_and(|t| matches!(t.kind, TokenKind::Str))
            {
                Some(sig[i + 3])
            } else if sig.get(i + 3).is_some_and(|t| t.text(text) == "&")
                && sig.get(i + 4).is_some_and(|t| t.text(text) == "format")
                && sig.get(i + 5).is_some_and(|t| t.text(text) == "!")
                && sig.get(i + 6).is_some_and(|t| t.text(text) == "(")
                && sig
                    .get(i + 7)
                    .is_some_and(|t| matches!(t.kind, TokenKind::Str))
            {
                Some(sig[i + 7])
            } else {
                None
            };
            let Some(lit) = lit else { continue };
            let raw = unquote(lit.text(text));
            let name = normalize(raw);

            if !well_formed(&name) {
                findings.extend(gated(
                    f,
                    RULE,
                    lit.line,
                    format!("metric name {raw:?} does not match ^cactus_[a-z0-9_]+$"),
                ));
            }
            if kind == "counter" && !name.ends_with("_total") {
                findings.extend(gated(
                    f,
                    RULE,
                    lit.line,
                    format!("counter {raw:?} must end in _total (monotonic-counter convention)"),
                ));
            }
            if let Some((first_file, first_line)) = seen.get(&name) {
                findings.extend(gated(
                    f,
                    RULE,
                    lit.line,
                    format!(
                        "metric name {raw:?} is already registered at {first_file}:{first_line}; \
                         metric names must be unique workspace-wide"
                    ),
                ));
            } else {
                seen.insert(name, (f.rel.clone(), lit.line));
            }
        }
    }
    findings
}

/// Replace each `{…}` interpolation with the wildcard `*`, so
/// `cactus_gateway_backend_{i}_state` compares as one family.
fn normalize(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut depth = 0usize;
    for c in raw.chars() {
        match c {
            '{' => {
                depth += 1;
                if depth == 1 {
                    out.push('*');
                }
            }
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// `cactus_` prefix, then lowercase snake_case (the `*` wildcard stands
/// for an interpolated index).
fn well_formed(name: &str) -> bool {
    let Some(rest) = name.strip_prefix("cactus_") else {
        return false;
    };
    !rest.is_empty()
        && rest
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '*')
}
