//! A small, panic-free Rust lexer.
//!
//! The rules downstream need token *shapes* — identifiers, punctuation,
//! string/comment boundaries, brace structure — not full parse trees, so
//! this lexer does exactly that much: it understands line and nested block
//! comments, plain/byte/raw strings, char-vs-lifetime disambiguation, and
//! nothing else. Every byte of input lands in exactly one token
//! (whitespace and comments are tokens too), so concatenating the token
//! spans reconstructs the source verbatim — the round-trip property the
//! proptest file pins down, and the reason rule code can trust spans as
//! line/column anchors.
//!
//! Totality is load-bearing: the lexer must accept *arbitrary* bytes
//! (truncated files, non-UTF-8 escapes inside strings, unterminated
//! literals) without panicking, because a linter that crashes on weird
//! input silently stops guarding the tree.

/// What a token is, as coarsely as the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Spaces, tabs, newlines.
    Whitespace,
    /// `// …` (newline not included).
    LineComment,
    /// `/* … */`, nesting-aware; unterminated runs to EOF.
    BlockComment,
    /// Identifier or keyword.
    Ident,
    /// `'a` in generics/references.
    Lifetime,
    /// Numeric literal chain (`0`, `42u64`, `0xFF`; `1.5` lexes as
    /// Int/Punct/Int, which is fine for span purposes).
    Int,
    /// `"…"` or `b"…"`, backslash-escape aware; unterminated runs to EOF.
    Str,
    /// `r"…"`, `r#"…"#`, `br#"…"#`; unterminated runs to EOF.
    RawStr,
    /// `'x'`, `'\n'`, `b'x'`.
    Char,
    /// A single punctuation character.
    Punct,
    /// Anything else (stray non-UTF8-adjacent or unclassifiable byte).
    Unknown,
}

/// One token: a kind plus its byte span and the 1-based line it starts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub(crate) kind: TokenKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset past the last byte, exclusive.
    pub end: usize,
    /// 1-based source line of `start`.
    pub line: u32,
}

impl Token {
    /// The token's text. Returns `""` rather than panicking if the span is
    /// somehow out of bounds.
    #[must_use]
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        src.get(self.start..self.end).unwrap_or("")
    }

    /// Whitespace or comment — insignificant to every rule except the
    /// `lint:allow` scanner (which reads comments).
    #[must_use]
    pub(crate) fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }
}

/// The character at byte offset `i`, if `i` is in bounds on a char
/// boundary.
fn char_at(src: &str, i: usize) -> Option<char> {
    src.get(i..).and_then(|s| s.chars().next())
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Scan forward from `i` while `pred` holds; returns the first offset where
/// it does not.
fn scan_while(src: &str, mut i: usize, pred: impl Fn(char) -> bool) -> usize {
    while let Some(c) = char_at(src, i) {
        if !pred(c) {
            break;
        }
        i += c.len_utf8();
    }
    i
}

/// End of a `"`-delimited string whose opening quote is at `open` (the
/// offset *after* the quote is passed in); backslash escapes the next
/// character; unterminated strings run to EOF.
fn scan_string(src: &str, mut i: usize) -> usize {
    while let Some(c) = char_at(src, i) {
        i += c.len_utf8();
        match c {
            '\\' => {
                if let Some(esc) = char_at(src, i) {
                    i += esc.len_utf8();
                }
            }
            '"' => return i,
            _ => {}
        }
    }
    i
}

/// Try to match a raw-string opener (`r`, `br`, optionally `#`s, then `"`)
/// at `i`. Returns the offset past the closing delimiter on success.
fn scan_raw_string(src: &str, i: usize) -> Option<usize> {
    let mut j = i;
    match char_at(src, j)? {
        'r' => j += 1,
        'b' => {
            j += 1;
            if char_at(src, j)? != 'r' {
                return None;
            }
            j += 1;
        }
        _ => return None,
    }
    let mut hashes = 0usize;
    while char_at(src, j) == Some('#') {
        hashes += 1;
        j += 1;
    }
    if char_at(src, j)? != '"' {
        return None;
    }
    j += 1;
    // Scan for `"` followed by `hashes` `#`s.
    while let Some(c) = char_at(src, j) {
        j += c.len_utf8();
        if c == '"' {
            let mut k = j;
            let mut seen = 0usize;
            while seen < hashes && char_at(src, k) == Some('#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
        }
    }
    Some(j) // unterminated: runs to EOF
}

/// End of a nested block comment whose `/*` opener starts at `i` (pass the
/// offset after the opener); unterminated comments run to EOF.
fn scan_block_comment(src: &str, mut i: usize) -> usize {
    let mut depth = 1usize;
    while let Some(c) = char_at(src, i) {
        if c == '*' && char_at(src, i + 1) == Some('/') {
            i += 2;
            depth -= 1;
            if depth == 0 {
                return i;
            }
        } else if c == '/' && char_at(src, i + 1) == Some('*') {
            i += 2;
            depth += 1;
        } else {
            i += c.len_utf8();
        }
    }
    i
}

/// Lex `src` completely. Total: never panics, and the returned tokens
/// tile the input exactly (`concat(token spans) == src`).
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while let Some(c) = char_at(src, i) {
        let start = i;
        let start_line = line;
        let kind = match c {
            c if c.is_whitespace() => {
                i = scan_while(src, i, char::is_whitespace);
                TokenKind::Whitespace
            }
            '/' if char_at(src, i + 1) == Some('/') => {
                i = scan_while(src, i, |c| c != '\n');
                TokenKind::LineComment
            }
            '/' if char_at(src, i + 1) == Some('*') => {
                i = scan_block_comment(src, i + 2);
                TokenKind::BlockComment
            }
            '"' => {
                i = scan_string(src, i + 1);
                TokenKind::Str
            }
            'r' | 'b' if scan_raw_string(src, i).is_some() => {
                // Checked above; fall back to a single char if it vanished
                // (it cannot, but stay total).
                i = scan_raw_string(src, i).unwrap_or(i + 1);
                TokenKind::RawStr
            }
            'b' if char_at(src, i + 1) == Some('"') => {
                i = scan_string(src, i + 2);
                TokenKind::Str
            }
            'b' if char_at(src, i + 1) == Some('\'') => {
                i = scan_char_or_lifetime(src, i + 1).0;
                TokenKind::Char
            }
            '\'' => {
                let (end, kind) = scan_char_or_lifetime(src, i);
                i = end;
                kind
            }
            c if c.is_ascii_digit() => {
                i = scan_while(src, i, is_ident_continue);
                TokenKind::Int
            }
            c if is_ident_start(c) => {
                i = scan_while(src, i, is_ident_continue);
                TokenKind::Ident
            }
            c if c.is_ascii_punctuation() => {
                i += 1;
                TokenKind::Punct
            }
            c => {
                i += c.len_utf8();
                TokenKind::Unknown
            }
        };
        // Guarantee forward progress even if a scanner misbehaved.
        if i <= start {
            i = start + c.len_utf8();
        }
        line += src.get(start..i).map_or(0, |t| {
            u32::try_from(t.bytes().filter(|&b| b == b'\n').count()).unwrap_or(0)
        });
        tokens.push(Token {
            kind,
            start,
            end: i,
            line: start_line,
        });
    }
    tokens
}

/// Disambiguate `'` at `i`: `'x'` / `'\n'` are [`TokenKind::Char`], `'a`
/// followed by more ident (and no closing quote) is a
/// [`TokenKind::Lifetime`]. Returns (end offset, kind).
fn scan_char_or_lifetime(src: &str, i: usize) -> (usize, TokenKind) {
    let mut j = i + 1; // past the opening quote
    match char_at(src, j) {
        Some('\\') => {
            j += 1;
            if let Some(esc) = char_at(src, j) {
                j += esc.len_utf8();
            }
            if char_at(src, j) == Some('\'') {
                j += 1;
            }
            (j, TokenKind::Char)
        }
        Some(c) if char_at(src, j + c.len_utf8()) == Some('\'') => {
            (j + c.len_utf8() + 1, TokenKind::Char)
        }
        Some(c) if is_ident_start(c) => {
            (scan_while(src, j, is_ident_continue), TokenKind::Lifetime)
        }
        _ => (j, TokenKind::Punct), // lone quote
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src)
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    fn round_trips(src: &str) {
        let rebuilt: String = lex(src).iter().map(|t| t.text(src)).collect();
        assert_eq!(rebuilt, src);
    }

    #[test]
    fn basic_items_round_trip() {
        let src = "fn main() { let x = 1; } // done\n";
        round_trips(src);
        let k = kinds(src);
        assert_eq!(k[0], (TokenKind::Ident, "fn"));
        assert!(k.contains(&(TokenKind::Int, "1")));
    }

    #[test]
    fn strings_hide_their_contents() {
        let src = r#"let s = "not // a comment { } \" done";"#;
        round_trips(src);
        let strs: Vec<_> = kinds(src)
            .into_iter()
            .filter(|(k, _)| *k == TokenKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains("not // a comment"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = "let s = r#\"quote \" inside\"#; let b = br\"bytes\";";
        round_trips(src);
        let raws: Vec<_> = kinds(src)
            .into_iter()
            .filter(|(k, _)| *k == TokenKind::RawStr)
            .collect();
        assert_eq!(raws.len(), 2);
        assert!(raws[0].1.contains("quote \" inside"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still outer */ b";
        round_trips(src);
        let k = kinds(src);
        assert_eq!(k, vec![(TokenKind::Ident, "a"), (TokenKind::Ident, "b")]);
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "let c = 'x'; let e = '\\n'; fn f<'a>(v: &'a str) {}";
        round_trips(src);
        let k = kinds(src);
        assert!(k.contains(&(TokenKind::Char, "'x'")));
        assert!(k.contains(&(TokenKind::Char, "'\\n'")));
        assert!(k.contains(&(TokenKind::Lifetime, "'a")));
    }

    #[test]
    fn unterminated_forms_run_to_eof_without_panic() {
        for src in ["\"never closed", "r#\"raw forever", "/* open", "'", "b\"x"] {
            round_trips(src);
            assert!(!lex(src).is_empty());
        }
    }

    #[test]
    fn lines_are_tracked() {
        let src = "a\nb\n  c";
        let sig: Vec<_> = lex(src).into_iter().filter(|t| !t.is_trivia()).collect();
        assert_eq!(sig[0].line, 1);
        assert_eq!(sig[1].line, 2);
        assert_eq!(sig[2].line, 3);
    }

    #[test]
    fn byte_strings_and_keywords_starting_with_b_and_r() {
        let src = "break; return; b\"bytes\"; r\"raw\";";
        round_trips(src);
        let k = kinds(src);
        assert_eq!(k[0], (TokenKind::Ident, "break"));
        assert_eq!(k[2], (TokenKind::Ident, "return"));
        assert!(k.contains(&(TokenKind::Str, "b\"bytes\"")));
        assert!(k.contains(&(TokenKind::RawStr, "r\"raw\"")));
    }
}
