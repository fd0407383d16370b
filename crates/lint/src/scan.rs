//! Workspace scanning: find the `.rs` files, lex them, and annotate each
//! with the facts every rule needs — which byte ranges are `#[cfg(test)]`
//! items (a whole file when its parent declares it `#[cfg(test)] mod
//! name;`), whether the file lives in a test/bench/example tree, and where
//! the `// lint:allow(rule, reason)` escape hatches are.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Token, TokenKind};

/// Outcome of checking a finding against the allow comments around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Allow {
    /// No allow comment applies; report the finding.
    No,
    /// `// lint:allow(rule, reason)` with a non-empty reason covers it.
    Granted,
    /// An allow comment names the rule but gives no reason — itself a
    /// finding (the escape hatch requires justification).
    MissingReason,
}

/// One parsed `lint:allow` comment.
#[derive(Debug, Clone)]
struct AllowComment {
    line: u32,
    rule: String,
    has_reason: bool,
}

/// One lexed source file plus the derived context rules share.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute path (for reading); findings report `rel`.
    pub path: PathBuf,
    /// Path relative to the scanned root, `/`-separated.
    pub rel: String,
    /// `crates/<name>/…` → `<name>`; otherwise the first path component
    /// (`tests`, `examples`).
    pub crate_name: String,
    pub text: String,
    pub tokens: Vec<Token>,
    /// Byte ranges of `#[cfg(test)]` items (attribute through closing
    /// brace or semicolon); the whole file when its parent gates it.
    pub test_regions: Vec<(usize, usize)>,
    /// Lives under a `tests/`, `benches/`, or `examples/` directory.
    pub in_test_dir: bool,
    allows: Vec<AllowComment>,
}

impl SourceFile {
    fn from_text(path: PathBuf, rel: String, text: String) -> Self {
        let tokens = lex(&text);
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or_else(|| rel.split('/').next().unwrap_or(""))
            .to_owned();
        let in_test_dir = rel
            .split('/')
            .any(|c| c == "tests" || c == "benches" || c == "examples");
        let test_regions = find_test_regions(&text, &tokens);
        let allows = find_allows(&text, &tokens);
        Self {
            path,
            rel,
            crate_name,
            text,
            tokens,
            test_regions,
            in_test_dir,
            allows,
        }
    }

    /// Whether byte `offset` falls inside a `#[cfg(test)]` item.
    #[must_use]
    pub(crate) fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| offset >= start && offset < end)
    }

    /// Check the allow comments for `rule` on `line` or the line above it.
    #[must_use]
    pub(crate) fn allow(&self, rule: &str, line: u32) -> Allow {
        let mut verdict = Allow::No;
        for a in &self.allows {
            if a.rule == rule && (a.line == line || a.line + 1 == line) {
                if a.has_reason {
                    return Allow::Granted;
                }
                verdict = Allow::MissingReason;
            }
        }
        verdict
    }
}

/// All scanned files under one root.
#[derive(Debug)]
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
}

/// Directories never lexed: build output, vendored shims (not our code),
/// lint fixtures (deliberately bad), VCS internals.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git"];

/// Directories a text walk skips: build output and lint fixtures. Vendored
/// shims are read, since a tombstone there is as live as anywhere.
const TEXT_SKIP_DIRS: &[&str] = &["target", "fixtures"];

impl Workspace {
    /// Scan every `.rs` file under `root`, skipping `SKIP_DIRS` and
    /// hidden directories. Files are sorted by relative path so findings
    /// are deterministic.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk failures; unreadable or non-UTF-8 files
    /// are skipped rather than failing the whole scan.
    pub fn scan(root: &Path) -> io::Result<Self> {
        let mut paths = Vec::new();
        walk(root, SKIP_DIRS, &mut paths)?;
        paths.retain(|p| p.to_string_lossy().ends_with(".rs"));
        paths.sort();
        let mut files = Vec::new();
        for path in paths {
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            let rel = rel_path(root, &path);
            files.push(SourceFile::from_text(path, rel, text));
        }
        let gated: Vec<String> = files.iter().flat_map(gated_modules).collect();
        for f in &mut files {
            let in_gated = gated.iter().any(|m| {
                f.rel
                    .strip_prefix(m.as_str())
                    .is_some_and(|rest| rest == ".rs" || rest.starts_with('/'))
            });
            if in_gated {
                f.test_regions = vec![(0, f.text.len())];
            }
        }
        Ok(Self {
            root: root.to_path_buf(),
            files,
        })
    }

    /// Every file at or under root-relative `rel`, of any type, as
    /// `(relative path, absolute path)`: a missing path yields none, and a
    /// directory walk skips [`TEXT_SKIP_DIRS`] and hidden directories.
    pub(crate) fn text_files(&self, rel: &str) -> io::Result<Vec<(String, PathBuf)>> {
        let start = self.root.join(rel);
        let mut paths = Vec::new();
        if start.is_dir() {
            walk(&start, TEXT_SKIP_DIRS, &mut paths)?;
        } else if start.is_file() {
            paths.push(start);
        }
        Ok(paths
            .into_iter()
            .map(|p| (rel_path(&self.root, &p), p))
            .collect())
    }
}

/// `path` relative to `root`, `/`-separated.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Collect every file under `dir`, skipping `skip` and hidden directories.
fn walk(dir: &Path, skip: &[&str], out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if skip.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, skip, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// Find `#[cfg(test)]` attributes and extend each over the item it gates
/// (through any stacked attributes, to the matching close brace or the
/// terminating semicolon).
fn find_test_regions(text: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_trivia()).collect();
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        if is_cfg_test_attr(text, &sig, i) {
            let start = sig[i].start;
            // Skip to the `]` closing this attribute.
            let mut j = skip_attr(text, &sig, i);
            // Skip any further stacked attributes.
            while j < sig.len() && sig[j].text(text) == "#" {
                j = skip_attr(text, &sig, j);
            }
            // The item body: first `{` at bracket depth 0 opens a
            // brace-matched region; a `;` at depth 0 ends a braceless item,
            // and a `,` or an unmatched closing bracket ends a gated field,
            // argument or match arm.
            let mut depth_paren = 0i32;
            let mut depth_angle = 0i32;
            let mut end = text.len();
            while j < sig.len() {
                match sig[j].text(text) {
                    "(" | "[" => depth_paren += 1,
                    "<" => depth_angle += 1,
                    ">" if depth_angle > 0 && sig[j - 1].text(text) != "-" => depth_angle -= 1,
                    ")" | "]" | "}" if depth_paren == 0 => {
                        end = sig[j].start;
                        break;
                    }
                    ")" | "]" => depth_paren -= 1,
                    "{" if depth_paren == 0 => {
                        end = match_brace(text, &sig, j);
                        break;
                    }
                    ";" if depth_paren == 0 => {
                        end = sig[j].end;
                        break;
                    }
                    "," if depth_paren == 0 && depth_angle == 0 => {
                        end = sig[j].end;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            regions.push((start, end));
            i = j;
        }
        i += 1;
    }
    regions
}

/// The root-relative module paths (without `.rs`) that `f` declares with
/// `#[cfg(test)] mod name;`. Such a module compiles only under test, and so
/// does every file in it: `<path>.rs`, `<path>/mod.rs` and its submodules
/// under `<path>/`.
fn gated_modules(f: &SourceFile) -> Vec<String> {
    let text = f.text.as_str();
    let sig: Vec<&Token> = f.tokens.iter().filter(|t| !t.is_trivia()).collect();
    let word = |j: usize| sig.get(j).map(|t| t.text(text));
    // A crate root or `mod.rs` keeps its modules beside it; `foo.rs` keeps
    // them under `foo/`.
    let (parent, file) = f.rel.rsplit_once('/').unwrap_or(("", f.rel.as_str()));
    let dir = if matches!(file, "lib.rs" | "main.rs" | "mod.rs")
        || parent.rsplit('/').next() == Some("bin")
    {
        parent
    } else {
        f.rel.strip_suffix(".rs").unwrap_or(&f.rel)
    };
    let mut out = Vec::new();
    for i in 0..sig.len() {
        if !is_cfg_test_attr(text, &sig, i) {
            continue;
        }
        let mut j = skip_attr(text, &sig, i);
        while word(j) == Some("#") {
            j = skip_attr(text, &sig, j);
        }
        if word(j) == Some("pub") {
            j += 1;
            if word(j) == Some("(") {
                while word(j).is_some_and(|w| w != ")") {
                    j += 1;
                }
                j += 1;
            }
        }
        if let (Some("mod"), Some(name), Some(";")) = (word(j), word(j + 1), word(j + 2)) {
            out.push(if dir.is_empty() {
                name.to_owned()
            } else {
                format!("{dir}/{name}")
            });
        }
    }
    out
}

/// Does `#` at significant-token index `i` open a `#[cfg(test)]`-style
/// attribute (any attribute whose bracket group contains `cfg` … `test`)?
fn is_cfg_test_attr(text: &str, sig: &[&Token], i: usize) -> bool {
    if sig.get(i).is_none_or(|t| t.text(text) != "#") {
        return false;
    }
    if sig.get(i + 1).is_none_or(|t| t.text(text) != "[") {
        return false;
    }
    let mut saw_cfg = false;
    let mut depth = 0i32;
    for t in sig.iter().skip(i + 1) {
        match t.text(text) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            "cfg" => saw_cfg = true,
            // `#[cfg(not(test))]` gates *non*-test code.
            "not" => return false,
            "test" if saw_cfg => return true,
            _ => {}
        }
    }
    false
}

/// Index just past the `]` closing the attribute whose `#` is at `i`.
fn skip_attr(text: &str, sig: &[&Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i + 1;
    while j < sig.len() {
        match sig[j].text(text) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Byte offset past the `}` matching the `{` at significant index `open`.
fn match_brace(text: &str, sig: &[&Token], open: usize) -> usize {
    let mut depth = 0i32;
    for t in sig.iter().skip(open) {
        match t.text(text) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return t.end;
                }
            }
            _ => {}
        }
    }
    text.len()
}

/// Parse every `lint:allow(rule, reason)` comment in the file.
fn find_allows(text: &str, tokens: &[Token]) -> Vec<AllowComment> {
    let mut out = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let comment = t.text(text);
        let Some(at) = comment.find("lint:allow(") else {
            continue;
        };
        let inside = &comment[at + "lint:allow(".len()..];
        let inside = inside.rfind(')').map_or(inside, |p| &inside[..p]);
        let (rule, reason) = match inside.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inside.trim(), ""),
        };
        if rule.is_empty() {
            continue;
        }
        out.push(AllowComment {
            line: t.line,
            rule: rule.to_owned(),
            has_reason: !reason.is_empty(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_text(
            PathBuf::from("mem.rs"),
            "crates/x/src/mem.rs".into(),
            src.into(),
        )
    }

    #[test]
    fn cfg_test_region_covers_the_mod() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = file(src);
        assert_eq!(f.test_regions.len(), 1);
        let unwrap_at = src.find("unwrap").unwrap_or(0);
        assert!(f.in_test_region(unwrap_at));
        assert!(!f.in_test_region(src.find("live").unwrap_or(0)));
        assert!(!f.in_test_region(src.find("after").unwrap_or(0)));
    }

    #[test]
    fn cfg_all_test_counts_too() {
        let src = "#[cfg(all(test, unix))]\nmod t { }\nfn live() {}\n";
        let f = file(src);
        assert_eq!(f.test_regions.len(), 1);
        assert!(!f.in_test_region(src.find("live").unwrap_or(0)));
    }

    #[test]
    fn cfg_test_field_ends_at_its_comma() {
        let src = "struct S {\n    #[cfg(test)]\n    torn: Vec<(u8, u8)>,\n    live: u8,\n}\nfn after() {}\n";
        let f = file(src);
        assert_eq!(f.test_regions.len(), 1);
        assert!(f.in_test_region(src.find("torn").unwrap_or(0)));
        assert!(!f.in_test_region(src.find("live").unwrap_or(0)));
        assert!(!f.in_test_region(src.find("after").unwrap_or(0)));
    }

    #[test]
    fn gated_mod_declarations_name_their_files() {
        let at = |rel: &str, src: &str| {
            gated_modules(&SourceFile::from_text(
                PathBuf::from("mem.rs"),
                rel.into(),
                src.into(),
            ))
        };
        let src = "mod live;\n#[cfg(test)]\nmod observables;\n#[cfg(test)]\npub(crate) mod oracle;\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(
            at("crates/md/src/lib.rs", src),
            ["crates/md/src/observables", "crates/md/src/oracle"]
        );
        assert_eq!(
            at("crates/md/src/fft.rs", src),
            ["crates/md/src/fft/observables", "crates/md/src/fft/oracle"]
        );
        assert_eq!(
            at("crates/x/src/bin/tool.rs", src),
            ["crates/x/src/bin/observables", "crates/x/src/bin/oracle"]
        );
    }

    #[test]
    fn allow_with_reason_is_granted_on_same_and_next_line() {
        let src = "// lint:allow(no_panic, constant fits)\nlet x = y.unwrap();\n";
        let f = file(src);
        assert_eq!(f.allow("no_panic", 2), Allow::Granted);
        assert_eq!(f.allow("no_panic", 1), Allow::Granted);
        assert_eq!(f.allow("no_panic", 3), Allow::No);
        assert_eq!(f.allow("lock_order", 2), Allow::No);
    }

    #[test]
    fn allow_without_reason_is_flagged() {
        let src = "let x = y.unwrap(); // lint:allow(no_panic)\n";
        let f = file(src);
        assert_eq!(f.allow("no_panic", 1), Allow::MissingReason);
    }

    #[test]
    fn crate_name_and_test_dir_derivation() {
        let f = SourceFile::from_text(
            PathBuf::from("x.rs"),
            "crates/serve/tests/integration.rs".into(),
            String::new(),
        );
        assert_eq!(f.crate_name, "serve");
        assert!(f.in_test_dir);
        let g = SourceFile::from_text(PathBuf::from("y.rs"), "tests/e2e.rs".into(), String::new());
        assert_eq!(g.crate_name, "tests");
        assert!(g.in_test_dir);
    }
}
