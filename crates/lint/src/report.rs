//! Findings and the two output formats of the `cactus-lint` binary.
//!
//! `text` is the human format (`file:line: [rule] message`, one per line);
//! `json` is a stable machine format for CI, hand-rolled so the crate
//! stays dependency-free.

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule: a `forbid` row's name (`no_panic`, …), `lock_order`,
    /// `surface`, `names`, or `reach`.
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line of the offending token (or the first site of a cycle).
    pub line: u32,
    pub message: String,
}

impl Finding {
    #[must_use]
    pub(crate) fn new(rule: &'static str, file: &str, line: u32, message: String) -> Self {
        Self {
            rule,
            file: file.to_owned(),
            line,
            message,
        }
    }
}

/// Sort findings for deterministic output: by file, line, rule, message.
pub(crate) fn sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
}

/// Render findings in the human format, one per line, with a summary tail.
#[must_use]
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }
    if findings.is_empty() {
        out.push_str("cactus-lint: no findings\n");
    } else {
        out.push_str(&format!("cactus-lint: {} finding(s)\n", findings.len()));
    }
    out
}

/// Render findings as a JSON document:
/// `{"findings":[{"rule":…,"file":…,"line":…,"message":…}],"count":N}`.
#[must_use]
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
            json_str(f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        ));
    }
    out.push_str(&format!("],\"count\":{}}}\n", findings.len()));
    out
}

/// Escape a string per JSON rules.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_format_is_file_line_rule_message() {
        let f = vec![Finding::new(
            "no_panic",
            "crates/serve/src/x.rs",
            7,
            "unwrap".into(),
        )];
        let text = render_text(&f);
        assert!(text.contains("crates/serve/src/x.rs:7: [no_panic] unwrap"));
        assert!(text.contains("1 finding(s)"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let f = vec![Finding::new(
            "names",
            "a.rs",
            1,
            "dup \"x\"\npath\\here".into(),
        )];
        let json = render_json(&f);
        assert!(json.contains("\\\"x\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\\\\here"));
        assert!(json.contains("\"count\":1"));
    }

    /// Pin the full JSON document for a hostile message byte for byte.
    /// `json_str` already escaped correctly when this was written; this
    /// exact-output regression exists so any future change to the escape
    /// table (or a switch to a shared helper) that breaks `--format json`
    /// for quotes, backslashes, or control characters fails loudly here
    /// instead of producing unparseable CI output.
    #[test]
    fn json_document_with_hostile_message_is_exactly_escaped() {
        let f = vec![Finding::new(
            "surface",
            "crates/a b/src/x.rs",
            3,
            "quote \" backslash \\ newline \n tab \t cr \r esc \u{1b} done".into(),
        )];
        assert_eq!(
            render_json(&f),
            "{\"findings\":[{\"rule\":\"surface\",\"file\":\"crates/a b/src/x.rs\",\
             \"line\":3,\"message\":\"quote \\\" backslash \\\\ newline \\n tab \\t \
             cr \\r esc \\u001b done\"}],\"count\":1}\n"
        );
        // And the empty document stays a constant.
        assert_eq!(render_json(&[]), "{\"findings\":[],\"count\":0}\n");
    }

    #[test]
    fn sort_is_stable_by_file_then_line() {
        let mut f = vec![
            Finding::new("names", "b.rs", 2, "m".into()),
            Finding::new("names", "a.rs", 9, "m".into()),
            Finding::new("names", "a.rs", 3, "m".into()),
        ];
        sort(&mut f);
        assert_eq!(
            f.iter()
                .map(|x| (x.file.as_str(), x.line))
                .collect::<Vec<_>>(),
            vec![("a.rs", 3), ("a.rs", 9), ("b.rs", 2)]
        );
    }
}
