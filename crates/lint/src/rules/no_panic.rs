//! Rule `no_panic`: daemon paths must not contain panic sites.
//!
//! Applies to non-test code in the `serve`, `gateway`, `obs`, and
//! `simindex` crates (the similarity index runs inside serve workers)
//! plus the `gpu` files the daemon's cold-simulate path enters through: the
//! engine pool and the launch engine (which resolves memory traffic through
//! `cache::hierarchy` → `cache::analytic`; the trace-driven simulator and
//! its trace generator are the test oracle, and no daemon links them).
//! A panic in any of these unwinds a worker thread and silently shrinks
//! the pool, so fallible paths must return errors instead. Flagged shapes:
//!
//! * `.unwrap()` / `.expect(…)`
//! * `panic!(…)`
//! * indexing with an integer literal (`xs[0]`) — a hidden bounds panic
//!
//! The escape hatch is `// lint:allow(no_panic, reason)` on the same or
//! preceding line; an allow without a reason is itself a finding.

use crate::report::Finding;
use crate::rules::{gated_at, live_tokens, stmt_line};
use crate::scan::{SourceFile, Workspace};

const RULE: &str = "no_panic";

/// Crates whose whole `src/` tree is a daemon path.
const DAEMON_CRATES: &[&str] = &["serve", "gateway", "obs", "simindex", "store", "wir"];

/// Individual `gpu` files on the daemon's cold-simulate path: the engine
/// pool and the launch engine it hands out.
const DAEMON_FILES: &[&str] = &["crates/gpu/src/pool.rs", "crates/gpu/src/engine.rs"];

fn applies(f: &SourceFile) -> bool {
    if f.in_test_dir {
        return false;
    }
    if DAEMON_FILES.contains(&f.rel.as_str()) {
        return true;
    }
    DAEMON_CRATES.contains(&f.crate_name.as_str()) && f.rel.contains("/src/")
}

/// Run the rule over every daemon-path file in the workspace.
#[must_use]
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in ws.files.iter().filter(|f| applies(f)) {
        let sig = live_tokens(f);
        let text = f.text.as_str();
        for i in 0..sig.len() {
            let hit: Option<(u32, String)> = if sig[i].text(text) == "." {
                match sig.get(i + 1).map(|t| t.text(text)) {
                    Some("unwrap")
                        if sig.get(i + 2).is_some_and(|t| t.text(text) == "(")
                            && sig.get(i + 3).is_some_and(|t| t.text(text) == ")") =>
                    {
                        Some((
                            sig[i + 1].line,
                            "`.unwrap()` on a daemon path; return an error (or \
                             lint:allow(no_panic, reason) if provably infallible)"
                                .to_owned(),
                        ))
                    }
                    Some("expect") if sig.get(i + 2).is_some_and(|t| t.text(text) == "(") => {
                        Some((
                            sig[i + 1].line,
                            "`.expect(…)` on a daemon path; return an error (or \
                             lint:allow(no_panic, reason) if provably infallible)"
                                .to_owned(),
                        ))
                    }
                    _ => None,
                }
            } else if sig[i].text(text) == "panic"
                && sig.get(i + 1).is_some_and(|t| t.text(text) == "!")
            {
                Some((
                    sig[i].line,
                    "`panic!` on a daemon path; return an error (or \
                     lint:allow(no_panic, reason) if unreachable by construction)"
                        .to_owned(),
                ))
            } else if is_literal_index(&sig, text, i) {
                Some((
                    sig[i].line,
                    format!(
                        "indexing with literal {} on a daemon path can panic; use \
                         `.get({})` (or lint:allow(no_panic, reason))",
                        sig[i + 1].text(text),
                        sig[i + 1].text(text)
                    ),
                ))
            } else {
                None
            };
            if let Some((line, message)) = hit {
                // The allow comment may sit on the hit line, the line
                // above, or at the head of a rustfmt-wrapped statement.
                findings.extend(gated_at(
                    f,
                    RULE,
                    &[line, stmt_line(&sig, text, i)],
                    message,
                ));
            }
        }
    }
    findings
}

/// `expr[<int>]`: an open bracket preceded by an expression tail (ident,
/// `)`, or `]`) whose bracket group is exactly one integer literal.
fn is_literal_index(sig: &[&crate::lexer::Token], text: &str, i: usize) -> bool {
    if sig[i].text(text) != "[" || i == 0 {
        return false;
    }
    let prev = sig[i - 1];
    let prev_is_expr_tail = matches!(prev.kind, crate::lexer::TokenKind::Ident)
        && !matches!(
            prev.text(text),
            "return" | "break" | "in" | "match" | "if" | "else"
        )
        || matches!(prev.text(text), ")" | "]");
    if !prev_is_expr_tail {
        return false;
    }
    matches!(
        sig.get(i + 1).map(|t| t.kind),
        Some(crate::lexer::TokenKind::Int)
    ) && sig.get(i + 2).is_some_and(|t| t.text(text) == "]")
}
