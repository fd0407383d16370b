//! # cactus-wir — the declarative workload IR
//!
//! Every Cactus family describes the same things: a set of kernels (launch
//! geometry, instruction mix, access streams), a schedule that launches
//! them, and — for irregular workloads — input-dependent kernel selection.
//! This crate makes that shape declarative: a small text format
//! ("workload IR") parsed by a hand-rolled, total, panic-free parser in
//! the `cactus-lint` lexer tradition, validated by a **multi-pass static
//! analyzer** ([`check`](fn@check)), and executed against `cactus_gpu`'s
//! engine by a deterministic interpreter ([`exec`]).
//!
//! The validator is the load-bearing piece: `POST /v1/workloads` on
//! `cactus-serve` accepts definitions from the network, so nothing
//! executes until all six passes come back clean — parse, type/shape,
//! geometry-vs-catalog bounds, selection totality and termination, static
//! resource-cost ceilings, and determinism (no unseeded randomness).
//! Findings mirror `cactus-lint`: a pass name, a 1-based line, and a
//! message, renderable as text or JSON.
//!
//! [`capture`] closes the loop with the hardcoded families: run any
//! existing workload into a `Vec<KernelDesc>` launch sink and lift that
//! stream into canonical IR, which the interpreter replays
//! bit-identically (see `tests/equivalence.rs`).

pub mod ast;
pub mod capture;
pub mod check;
pub mod eval;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod printer;

pub use ast::WorkloadDef;
pub use check::{analyze, check, PASSES};
pub use exec::{run, ExecError};
pub use parser::parse;
pub use printer::print;

/// On-disk / on-wire format version for stored definitions. Bumped when
/// the grammar changes incompatibly; `cactus-serve` keys stored
/// definitions on it so old text is re-validated rather than trusted.
pub const FORMAT_VERSION: u32 = 1;

/// One validator diagnostic: the pass that produced it, the 1-based
/// source line it points at, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Producing pass, one of [`PASSES`].
    pub pass: &'static str,
    /// 1-based line in the definition text.
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {} [{}] {}", self.line, self.pass, self.message)
    }
}

impl Finding {
    /// Render as a JSON object: `{"pass":…,"line":…,"message":…}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"pass\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(self.pass),
            self.line,
            json_escape(&self.message)
        )
    }
}

/// Render findings as `file:line: [pass] message` lines.
#[must_use]
pub fn render_text(file: &str, findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!("{file}:{}: [{}] {}\n", f.line, f.pass, f.message));
    }
    out
}

/// Render findings as a JSON document:
/// `{"file":…,"findings":[…],"total":N}`.
#[must_use]
pub fn render_json(file: &str, findings: &[Finding]) -> String {
    let mut out = format!("{{\"file\":\"{}\",\"findings\":[", json_escape(file));
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&f.to_json());
    }
    out.push_str(&format!("],\"total\":{}}}", findings.len()));
    out
}

/// Escape a string for embedding in a JSON string literal.
#[must_use]
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_render_escaped_json() {
        let findings = vec![Finding {
            pass: "types",
            line: 3,
            message: "unknown variable `a\"b\\c`".to_owned(),
        }];
        let json = render_json("defs/x.wir", &findings);
        assert!(json.contains("\\\"b\\\\c"), "{json}");
        assert!(json.contains("\"total\":1"));
        // No raw quote survives inside the message string.
        let msg_start = json.find("\"message\":\"").map(|i| i + 11).unwrap_or(0);
        let rest = &json[msg_start..];
        let end = rest
            .char_indices()
            .scan(false, |escaped, (i, c)| {
                if *escaped {
                    *escaped = false;
                    Some(None)
                } else if c == '\\' {
                    *escaped = true;
                    Some(None)
                } else if c == '"' {
                    Some(Some(i))
                } else {
                    Some(None)
                }
            })
            .flatten()
            .next();
        assert!(end.is_some());
    }

    #[test]
    fn text_rendering_is_line_accurate() {
        let findings = vec![Finding {
            pass: "geometry",
            line: 12,
            message: "bad".to_owned(),
        }];
        assert_eq!(
            render_text("a.wir", &findings),
            "a.wir:12: [geometry] bad\n"
        );
    }
}
