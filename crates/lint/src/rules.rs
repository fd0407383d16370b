//! The five rule families. Each module exposes
//! `check(&Workspace) -> Vec<Finding>`.

pub mod forbid;
pub mod lock_order;
pub mod names;
pub mod reach;
pub mod surface;

use crate::lexer::Token;
use crate::report::Finding;
use crate::scan::{Allow, SourceFile};

/// Strip the quotes (and any raw-string `r#` sigils) off a string-literal
/// token's text, returning the payload between the outermost quotes.
#[must_use]
pub(crate) fn unquote(text: &str) -> &str {
    let Some(open) = text.find('"') else {
        return text;
    };
    let Some(close) = text.rfind('"') else {
        return text;
    };
    if close > open {
        text.get(open + 1..close).unwrap_or("")
    } else {
        ""
    }
}

/// Route a raw hit through the file's `lint:allow` comments: suppressed
/// hits return `None`, an allow comment without a reason becomes its own
/// finding, everything else reports as-is.
pub(crate) fn gated(
    f: &SourceFile,
    rule: &'static str,
    line: u32,
    message: String,
) -> Option<Finding> {
    gated_at(f, rule, &[line], message)
}

/// Like [`gated`], but the allow comment may sit at any of `lines` (or
/// the line above one) — pass both the hit line and the first line of the
/// enclosing statement so rustfmt-wrapped chains stay annotatable. The
/// finding reports at `lines[0]`.
pub(crate) fn gated_at(
    f: &SourceFile,
    rule: &'static str,
    lines: &[u32],
    message: String,
) -> Option<Finding> {
    let line = lines.first().copied().unwrap_or(0);
    let verdicts: Vec<Allow> = lines.iter().map(|&l| f.allow(rule, l)).collect();
    if verdicts.contains(&Allow::Granted) {
        return None;
    }
    if verdicts.contains(&Allow::MissingReason) {
        return Some(Finding::new(
            rule,
            &f.rel,
            line,
            format!("lint:allow({rule}) must give a reason: lint:allow({rule}, why-this-is-safe)"),
        ));
    }
    Some(Finding::new(rule, &f.rel, line, message))
}

/// Line of the first token of the statement containing significant-token
/// index `i`: the token after the closest preceding `;`, `{`, or `}`.
pub(crate) fn stmt_line(sig: &[&Token], text: &str, i: usize) -> u32 {
    let mut j = i;
    while j > 0 {
        if matches!(sig[j - 1].text(text), ";" | "{" | "}") {
            break;
        }
        j -= 1;
    }
    sig.get(j).map_or(0, |t| t.line)
}

/// Significant tokens of `f` outside `#[cfg(test)]` regions. Test items
/// are brace-balanced, so dropping them keeps the stream well-nested.
pub(crate) fn live_tokens(f: &SourceFile) -> Vec<&Token> {
    f.tokens
        .iter()
        .filter(|t| !t.is_trivia() && !f.in_test_region(t.start))
        .collect()
}
