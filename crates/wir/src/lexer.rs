//! Total lexer for the workload IR.
//!
//! Follows the `cactus-lint` lexer tradition: hand-rolled, std-only, and
//! *total* — every input byte lands in exactly one token or in trivia
//! (whitespace and `#` line comments), and malformed bytes become
//! `TokenKind::Error` tokens instead of aborting the scan. The parser
//! turns `Error` tokens into line-accurate findings.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Keyword or name: `[A-Za-z_][A-Za-z0-9_]*`.
    Ident,
    /// Unsigned integer literal, optionally with `_` separators.
    Int,
    /// Floating literal: digits, a dot, digits (`0.35`).
    Float,
    /// Double-quoted string with `\\`, `\"`, `\n`, `\t` escapes.
    Str,
    /// Punctuation or operator; multi-character operators (`->`, `<=`,
    /// `>=`, `==`, `!=`) are single tokens.
    Punct,
    /// A byte sequence the lexer could not classify (stray `@`, an
    /// unterminated string, …).
    Error,
}

/// One token: a classification plus a byte span into the source and the
/// 1-based line it starts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub(crate) kind: TokenKind,
    pub start: usize,
    pub end: usize,
    pub line: u32,
}

impl Token {
    /// The token's text, sliced out of the source it was lexed from.
    #[must_use]
    pub(crate) fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

/// Lex `src` into tokens. Never fails: each unknown character becomes one
/// [`TokenKind::Error`] token and the scan continues after it.
///
/// One pass over the bytes: each token's extent is one run scan
/// ([`run`]), and the vector is sized for the corpus's densest text up
/// front, so a definition lexes into one allocation.
#[must_use]
pub(crate) fn lex(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::with_capacity(bytes.len() / BYTES_PER_TOKEN + 1);
    let mut i = 0usize;
    let mut line = 1u32;
    while let Some(&b) = bytes.get(i) {
        let start = i;
        let start_line = line;
        let kind = match b {
            b'\n' => {
                line += 1;
                i += 1;
                continue;
            }
            b' ' | b'\t' | b'\r' | b'\x0c' => {
                i += 1;
                continue;
            }
            b'#' => {
                i += run(bytes, i, |c| c != b'\n');
                continue;
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                i += run(bytes, i, is_ident_byte);
                TokenKind::Ident
            }
            b'0'..=b'9' => {
                i += run(bytes, i, is_digit_byte);
                match bytes.get(i..i + 2) {
                    Some([b'.', d]) if d.is_ascii_digit() => {
                        i += 1 + run(bytes, i + 1, is_digit_byte);
                        TokenKind::Float
                    }
                    _ => TokenKind::Int,
                }
            }
            b'"' => {
                i += 1;
                loop {
                    i += run(bytes, i, |c| !matches!(c, b'"' | b'\\' | b'\n'));
                    match bytes.get(i) {
                        Some(b'"') => {
                            i += 1;
                            break TokenKind::Str;
                        }
                        // The escaped byte may itself be a newline (a
                        // string continued across lines); count it so
                        // every later token still reports the right line.
                        Some(b'\\') => match bytes.get(i + 1) {
                            Some(&escaped) => {
                                line += u32::from(escaped == b'\n');
                                i += 2;
                            }
                            None => i += 1,
                        },
                        _ => break TokenKind::Error,
                    }
                }
            }
            b'-' | b'<' | b'>' | b'=' | b'!'
                if matches!(
                    (b, bytes.get(i + 1)),
                    (b'-', Some(b'>')) | (b'<' | b'>' | b'=' | b'!', Some(b'='))
                ) =>
            {
                i += 2;
                TokenKind::Punct
            }
            b'{' | b'}' | b'(' | b')' | b';' | b',' | b'=' | b'<' | b'>' | b'+' | b'-' | b'*'
            | b'/' | b'%' => {
                i += 1;
                TokenKind::Punct
            }
            _ => {
                // Outside a string every token ends on a character
                // boundary, so `b` starts a character: cover all of it,
                // never one byte of a multi-byte one.
                i += src
                    .get(i..)
                    .and_then(|rest| rest.chars().next())
                    .map_or(1, char::len_utf8);
                TokenKind::Error
            }
        };
        tokens.push(Token {
            kind,
            start,
            end: i,
            line: start_line,
        });
    }
    tokens
}

/// Source bytes per token in the densest committed definition or capture,
/// rounded down: [`lex`]'s capacity, so real text never regrows the vector.
const BYTES_PER_TOKEN: usize = 4;

/// Length of the run of bytes from `i` on that `keep` accepts.
fn run(bytes: &[u8], i: usize, keep: impl Fn(u8) -> bool) -> usize {
    bytes
        .get(i..)
        .map_or(0, |rest| rest.iter().take_while(|&&c| keep(c)).count())
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_digit_byte(b: u8) -> bool {
    b.is_ascii_digit() || b == b'_'
}

/// Decode the escapes inside a `TokenKind::Str` token's text (including
/// its surrounding quotes). Unknown escapes pass the escaped byte through.
#[must_use]
pub fn unescape(raw: &str) -> String {
    let inner = raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(raw);
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// Escape a string for emission inside double quotes (printer inverse of
/// [`unescape`]).
#[must_use]
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

/// The byte-at-a-time lexer [`lex`] replaced, kept as its oracle.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Token, TokenKind};

    /// Lex `src` into tokens. Never fails: each unknown character becomes one
    /// [`TokenKind::Error`] token and the scan continues after it.
    #[must_use]
    pub(crate) fn lex(src: &str) -> Vec<Token> {
        let bytes = src.as_bytes();
        let mut tokens = Vec::new();
        let mut i = 0usize;
        let mut line = 1u32;
        while i < bytes.len() {
            let b = byte_at(bytes, i);
            if b == b'\n' {
                line += 1;
                i += 1;
                continue;
            }
            if b.is_ascii_whitespace() {
                i += 1;
                continue;
            }
            if b == b'#' {
                while i < bytes.len() && byte_at(bytes, i) != b'\n' {
                    i += 1;
                }
                continue;
            }
            let start = i;
            let start_line = line;
            let kind = if b.is_ascii_alphabetic() || b == b'_' {
                while i < bytes.len() && is_ident_byte(byte_at(bytes, i)) {
                    i += 1;
                }
                TokenKind::Ident
            } else if b.is_ascii_digit() {
                while i < bytes.len() && is_digit_byte(byte_at(bytes, i)) {
                    i += 1;
                }
                if i < bytes.len()
                    && byte_at(bytes, i) == b'.'
                    && i + 1 < bytes.len()
                    && byte_at(bytes, i + 1).is_ascii_digit()
                {
                    i += 1;
                    while i < bytes.len() && is_digit_byte(byte_at(bytes, i)) {
                        i += 1;
                    }
                    TokenKind::Float
                } else {
                    TokenKind::Int
                }
            } else if b == b'"' {
                i += 1;
                let mut closed = false;
                while i < bytes.len() {
                    let c = byte_at(bytes, i);
                    if c == b'\\' && i + 1 < bytes.len() {
                        // The escaped byte may itself be a newline (a string
                        // continued across lines); count it so every later
                        // token still reports the right line.
                        if byte_at(bytes, i + 1) == b'\n' {
                            line += 1;
                        }
                        i += 2;
                        continue;
                    }
                    if c == b'"' {
                        i += 1;
                        closed = true;
                        break;
                    }
                    if c == b'\n' {
                        break;
                    }
                    i += 1;
                }
                if closed {
                    TokenKind::Str
                } else {
                    TokenKind::Error
                }
            } else if is_two_byte_op(bytes, i) {
                i += 2;
                TokenKind::Punct
            } else if is_punct_byte(b) {
                i += 1;
                TokenKind::Punct
            } else {
                // Outside a string every token ends on a character boundary,
                // so `b` starts a character: cover all of it, never one byte
                // of a multi-byte one.
                i += src
                    .get(i..)
                    .and_then(|rest| rest.chars().next())
                    .map_or(1, char::len_utf8);
                TokenKind::Error
            };
            tokens.push(Token {
                kind,
                start,
                end: i,
                line: start_line,
            });
        }
        tokens
    }

    fn byte_at(bytes: &[u8], i: usize) -> u8 {
        bytes.get(i).copied().unwrap_or(0)
    }

    fn is_ident_byte(b: u8) -> bool {
        b.is_ascii_alphanumeric() || b == b'_'
    }

    fn is_digit_byte(b: u8) -> bool {
        b.is_ascii_digit() || b == b'_'
    }

    fn is_two_byte_op(bytes: &[u8], i: usize) -> bool {
        let a = byte_at(bytes, i);
        let b = byte_at(bytes, i + 1);
        matches!(
            (a, b),
            (b'-', b'>') | (b'<', b'=') | (b'>', b'=') | (b'=', b'=') | (b'!', b'=')
        )
    }

    fn is_punct_byte(b: u8) -> bool {
        matches!(
            b,
            b'{' | b'}'
                | b'('
                | b')'
                | b';'
                | b','
                | b'='
                | b'<'
                | b'>'
                | b'+'
                | b'-'
                | b'*'
                | b'/'
                | b'%'
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_tile_the_non_trivia_input() {
        let src = "workload \"g\" { seed 42; launch grid(8, 256); x -> 1.5 }\n# c\n";
        let toks = lex(src);
        assert!(!toks.is_empty());
        for t in &toks {
            assert!(t.start < t.end, "{t:?}");
            assert_ne!(t.kind, TokenKind::Error, "{:?}", t.text(src));
        }
        let arrow = toks.iter().find(|t| t.text(src) == "->");
        assert!(arrow.is_some());
        let float = toks.iter().find(|t| t.kind == TokenKind::Float);
        assert_eq!(float.map(|t| t.text(src)), Some("1.5"));
    }

    #[test]
    fn line_numbers_are_one_based_and_accurate() {
        let src = "a\nb\n\n  c";
        let toks = lex(src);
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn escaped_newline_inside_a_string_still_counts_the_line() {
        // `"ab\` + newline + `cd"` lexes as one Str token; the skipped
        // newline must still advance the line counter so the token after
        // the string reports line 2, not 1.
        let src = "\"ab\\\ncd\" after";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].text(src), "after");
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn unknown_bytes_and_open_strings_become_error_tokens() {
        let src = "@ \"open";
        let toks = lex(src);
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokenKind::Error);
        assert_eq!(toks[1].kind, TokenKind::Error);
    }

    #[test]
    fn a_non_ascii_character_outside_a_string_is_one_error_token() {
        let src = "workload \"x\" { é 🌵 }";
        let toks = lex(src);
        let errors: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Error)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(errors, ["é", "🌵"]);
    }

    #[test]
    fn escape_round_trips_through_unescape() {
        for s in ["plain", "a\"b", "back\\slash", "nl\nnl", "tab\there"] {
            let quoted = format!("\"{}\"", escape(s));
            assert_eq!(unescape(&quoted), s);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Any text of the grammar's bytes, quotes, escapes, line breaks,
        /// unlexable bytes and multi-byte characters lexes as it did.
        #[test]
        fn tokens_are_the_reference_lexers(
            pieces in proptest::prop::collection::vec(
                proptest::sample::select(&[
                    "a", "_", "k0", "7", "1_0", ".", "5", " ", "\t", "\r", "\n", "#", "\"",
                    "\\", "{", "}", "(", ")", ";", ",", "=", "<", ">", "!", "-", "+", "*",
                    "/", "%", "@", "$", "é", "🌵", "\u{b}", "\u{c}",
                ]),
                0..48,
            ),
        ) {
            let src = pieces.concat();
            proptest::prop_assert_eq!(lex(&src), reference::lex(&src), "{:?}", src);
        }
    }
}
