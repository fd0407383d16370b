//! Recursive-descent parser for the workload IR.
//!
//! Total and panic-free: the first syntax error aborts the parse with a
//! line-accurate [`Finding`] whose pass is `"parse"`. Nesting depth is
//! bounded so adversarial submissions (serve accepts bodies up to 8 MiB)
//! cannot blow the worker stack.

use crate::ast::{
    ClassDef, CmpOp, Cond, Expr, GeomKind, KernelDef, LaunchSpec, Param, PatternSpec, ScaleBlock,
    Stmt, StreamSpec, WorkloadDef,
};
use crate::lexer::{lex, unescape, Token, TokenKind};
use crate::Finding;
use std::marker::PhantomData;

/// Maximum statement/expression nesting depth. Far above any legitimate
/// definition; exists so a pathological submission errors instead of
/// overflowing the stack.
const MAX_DEPTH: u32 = 64;

/// Parse one workload definition. The entire input must be consumed.
pub fn parse(src: &str) -> Result<WorkloadDef, Finding> {
    parse_tokens::<Digits>(src, lex(src))
}

/// Parse `toks`, lexed from `src`, reading literals with `L`.
fn parse_tokens<L: Literals>(src: &str, toks: Vec<Token>) -> Result<WorkloadDef, Finding> {
    let mut p = Parser::<L> {
        src,
        toks,
        pos: 0,
        depth: 0,
        literals: PhantomData,
    };
    let def = p.workload()?;
    if let Some(t) = p.peek() {
        return Err(p.err_at(t.line, "trailing input after workload definition"));
    }
    Ok(def)
}

/// How the text of an `Int` or `Float` token (digits, `_` separators, and
/// for a float one `.`) becomes a number; `None` when it is out of range.
/// The tests also run the parser on the readers [`Digits`] replaced.
trait Literals {
    fn int(text: &str) -> Option<u64>;
    fn float(text: &str) -> Option<f64>;
}

/// Reads literals in place: an integer digit by digit with checked
/// arithmetic, a float straight from its text. Only a float spelled with
/// `_`, which the printer never writes, is copied to drop them.
struct Digits;

impl Literals for Digits {
    fn int(text: &str) -> Option<u64> {
        text.bytes().filter(|&b| b != b'_').try_fold(0u64, |v, b| {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                return None;
            }
            v.checked_mul(10)?.checked_add(u64::from(digit))
        })
    }

    fn float(text: &str) -> Option<f64> {
        let v = if text.contains('_') {
            text.replace('_', "").parse::<f64>()
        } else {
            text.parse::<f64>()
        };
        v.ok().filter(|v| v.is_finite())
    }
}

struct Parser<'a, L> {
    src: &'a str,
    toks: Vec<Token>,
    pos: usize,
    depth: u32,
    literals: PhantomData<L>,
}

impl<'a, L: Literals> Parser<'a, L> {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn peek_text(&self) -> &'a str {
        self.peek().map(|t| t.text(self.src)).unwrap_or("")
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).copied();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Line for "here" diagnostics: the current token's line, or the last
    /// token's line at end of input.
    fn here(&self) -> u32 {
        self.peek()
            .or_else(|| self.toks.last())
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn err_at(&self, line: u32, message: impl Into<String>) -> Finding {
        Finding {
            pass: "parse",
            line,
            message: message.into(),
        }
    }

    fn err_here(&self, message: impl Into<String>) -> Finding {
        let msg = message.into();
        let found = match self.peek() {
            Some(t) if t.kind == TokenKind::Error => {
                format!("{msg} (found unlexable input `{}`)", t.text(self.src))
            }
            Some(t) => format!("{msg} (found `{}`)", t.text(self.src)),
            None => format!("{msg} (found end of input)"),
        };
        self.err_at(self.here(), found)
    }

    fn expect_punct(&mut self, p: &str) -> Result<Token, Finding> {
        match self.peek().copied() {
            Some(t) if t.kind == TokenKind::Punct && t.text(self.src) == p => {
                self.pos += 1;
                Ok(t)
            }
            _ => Err(self.err_here(format!("expected `{p}`"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<Token, Finding> {
        match self.peek().copied() {
            Some(t) if t.kind == TokenKind::Ident && t.text(self.src) == kw => {
                self.pos += 1;
                Ok(t)
            }
            _ => Err(self.err_here(format!("expected `{kw}`"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        self.peek()
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text(self.src) == kw)
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, u32), Finding> {
        match self.peek() {
            Some(t) if t.kind == TokenKind::Ident => {
                let out = (t.text(self.src).to_owned(), t.line);
                self.pos += 1;
                Ok(out)
            }
            _ => Err(self.err_here(format!("expected {what}"))),
        }
    }

    fn expect_str(&mut self, what: &str) -> Result<(String, u32), Finding> {
        match self.peek() {
            Some(t) if t.kind == TokenKind::Str => {
                let out = (unescape(t.text(self.src)), t.line);
                self.pos += 1;
                Ok(out)
            }
            _ => Err(self.err_here(format!("expected a quoted {what}"))),
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<(u64, u32), Finding> {
        match self.peek() {
            Some(t) if t.kind == TokenKind::Int => {
                let line = t.line;
                match L::int(t.text(self.src)) {
                    Some(v) => {
                        self.pos += 1;
                        Ok((v, line))
                    }
                    None => Err(self.err_at(line, format!("{what} literal out of range"))),
                }
            }
            _ => Err(self.err_here(format!("expected an integer {what}"))),
        }
    }

    /// Float position: accepts `Float` or `Int` tokens (the printer always
    /// emits the canonical `Float` spelling).
    fn expect_float(&mut self, what: &str) -> Result<(f64, u32), Finding> {
        match self.peek() {
            Some(t) if t.kind == TokenKind::Float || t.kind == TokenKind::Int => {
                let line = t.line;
                match L::float(t.text(self.src)) {
                    Some(v) => {
                        self.pos += 1;
                        Ok((v, line))
                    }
                    None => Err(self.err_at(line, format!("{what} literal out of range"))),
                }
            }
            _ => Err(self.err_here(format!("expected a number for {what}"))),
        }
    }

    fn enter(&mut self) -> Result<(), Finding> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err_here("nesting too deep"));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    fn workload(&mut self) -> Result<WorkloadDef, Finding> {
        let header = self.expect_keyword("workload")?;
        let (name, _) = self.expect_str("workload name")?;
        self.expect_punct("{")?;
        let mut def = WorkloadDef {
            name,
            line: header.line,
            seed: None,
            params: Vec::new(),
            scales: Vec::new(),
            classes: Vec::new(),
            kernels: Vec::new(),
            phases: Vec::new(),
            run: Vec::new(),
            run_line: header.line,
        };
        let mut saw_run = false;
        loop {
            if self.peek_text() == "}" {
                self.bump();
                break;
            }
            match self.peek_text() {
                "seed" => {
                    let kw = self.expect_keyword("seed")?;
                    if def.seed.is_some() {
                        return Err(self.err_at(kw.line, "duplicate `seed` declaration"));
                    }
                    let (v, line) = self.expect_int("seed")?;
                    self.expect_punct(";")?;
                    def.seed = Some((v, line));
                }
                "param" => {
                    self.expect_keyword("param")?;
                    let (name, line) = self.expect_ident("a parameter name")?;
                    self.expect_punct("=")?;
                    let expr = self.expr()?;
                    self.expect_punct(";")?;
                    def.params.push(Param { name, expr, line });
                }
                "scale" => {
                    self.expect_keyword("scale")?;
                    let (name, line) = self.expect_ident("a scale name")?;
                    self.expect_punct("{")?;
                    let mut vars = Vec::new();
                    while self.peek_text() != "}" {
                        let (vname, vline) = self.expect_ident("a scale variable name")?;
                        self.expect_punct("=")?;
                        let expr = self.expr()?;
                        self.expect_punct(";")?;
                        vars.push(Param {
                            name: vname,
                            expr,
                            line: vline,
                        });
                    }
                    self.expect_punct("}")?;
                    def.scales.push(ScaleBlock { name, vars, line });
                }
                "class" => {
                    self.expect_keyword("class")?;
                    let (name, line) = self.expect_ident("a class name")?;
                    let cond = if self.at_keyword("when") {
                        self.bump();
                        Some(self.cond()?)
                    } else if self.at_keyword("else") {
                        self.bump();
                        None
                    } else {
                        return Err(self.err_here("expected `when <cond>` or `else`"));
                    };
                    self.expect_punct(";")?;
                    def.classes.push(ClassDef { name, cond, line });
                }
                "kernel" => {
                    def.kernels.push(self.kernel()?);
                }
                "phase" => {
                    self.expect_keyword("phase")?;
                    let (name, line) = self.expect_ident("a phase name")?;
                    self.expect_punct("{")?;
                    let body = self.stmts()?;
                    def.phases.push((name, body, line));
                }
                "run" => {
                    let kw = self.expect_keyword("run")?;
                    if saw_run {
                        return Err(self.err_at(kw.line, "duplicate `run` block"));
                    }
                    saw_run = true;
                    def.run_line = kw.line;
                    self.expect_punct("{")?;
                    def.run = self.stmts()?;
                }
                _ => {
                    return Err(self.err_here(
                        "expected `seed`, `param`, `scale`, `class`, `kernel`, `phase`, `run`, or `}`",
                    ));
                }
            }
        }
        Ok(def)
    }

    fn kernel(&mut self) -> Result<KernelDef, Finding> {
        let kw = self.expect_keyword("kernel")?;
        let (id, _) = self.expect_ident("a kernel identifier")?;
        self.expect_punct("{")?;
        let mut k = KernelDef {
            id,
            name: None,
            taxonomy: None,
            launch: None,
            mix: Vec::new(),
            streams: Vec::new(),
            depend: None,
            line: kw.line,
        };
        loop {
            match self.peek_text() {
                "}" => {
                    self.bump();
                    break;
                }
                "name" => {
                    let field = self.expect_keyword("name")?;
                    if k.name.is_some() {
                        return Err(self.err_at(field.line, "duplicate `name` field"));
                    }
                    let (s, _) = self.expect_str("kernel name")?;
                    self.expect_punct(";")?;
                    k.name = Some(s);
                }
                "taxonomy" => {
                    let field = self.expect_keyword("taxonomy")?;
                    if k.taxonomy.is_some() {
                        return Err(self.err_at(field.line, "duplicate `taxonomy` field"));
                    }
                    let (tag, line) = self.expect_ident("a taxonomy tag")?;
                    self.expect_punct(";")?;
                    k.taxonomy = Some((tag, line));
                }
                "launch" => {
                    let field = self.expect_keyword("launch")?;
                    if k.launch.is_some() {
                        return Err(self.err_at(field.line, "duplicate `launch` field"));
                    }
                    let kind = if self.at_keyword("grid") {
                        self.bump();
                        GeomKind::Grid
                    } else if self.at_keyword("linear") {
                        self.bump();
                        GeomKind::Linear
                    } else {
                        return Err(self.err_here("expected `grid` or `linear`"));
                    };
                    self.expect_punct("(")?;
                    let a = self.expr()?;
                    self.expect_punct(",")?;
                    let b = self.expr()?;
                    self.expect_punct(")")?;
                    let regs = if self.at_keyword("regs") {
                        self.bump();
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    let smem = if self.at_keyword("smem") {
                        self.bump();
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    self.expect_punct(";")?;
                    k.launch = Some(LaunchSpec {
                        kind,
                        a,
                        b,
                        regs,
                        smem,
                        line: field.line,
                    });
                }
                "mix" => {
                    self.expect_keyword("mix")?;
                    self.expect_punct("{")?;
                    while self.peek_text() != "}" {
                        let (class, line) = self.expect_ident("a mix class")?;
                        self.expect_punct("=")?;
                        let expr = self.expr()?;
                        self.expect_punct(";")?;
                        k.mix.push((class, expr, line));
                    }
                    self.expect_punct("}")?;
                }
                "read" | "write" => {
                    let write = self.peek_text() == "write";
                    let field = match self.bump() {
                        Some(t) => t,
                        None => return Err(self.err_here("expected a stream direction")),
                    };
                    self.expect_keyword("accesses")?;
                    let accesses = self.expr()?;
                    self.expect_keyword("tpa")?;
                    let (tpa, _) = self.expect_float("tpa")?;
                    self.expect_keyword("pattern")?;
                    let pattern = self.pattern()?;
                    self.expect_punct(";")?;
                    k.streams.push(StreamSpec {
                        write,
                        accesses,
                        tpa,
                        pattern,
                        line: field.line,
                    });
                }
                "depend" => {
                    let field = self.expect_keyword("depend")?;
                    if k.depend.is_some() {
                        return Err(self.err_at(field.line, "duplicate `depend` field"));
                    }
                    let (v, line) = self.expect_float("depend")?;
                    self.expect_punct(";")?;
                    k.depend = Some((v, line));
                }
                _ => {
                    return Err(self.err_here(
                        "expected `name`, `taxonomy`, `launch`, `mix`, `read`, `write`, \
                         `depend`, or `}`",
                    ));
                }
            }
        }
        Ok(k)
    }

    fn pattern(&mut self) -> Result<PatternSpec, Finding> {
        match self.peek_text() {
            "streaming" => {
                self.bump();
                Ok(PatternSpec::Streaming)
            }
            "random" => {
                self.bump();
                self.expect_punct("(")?;
                let working_set = self.expr()?;
                self.expect_punct(")")?;
                Ok(PatternSpec::Random { working_set })
            }
            "sweep" => {
                self.bump();
                self.expect_punct("(")?;
                let working_set = self.expr()?;
                self.expect_punct(",")?;
                let sweeps = self.expr()?;
                self.expect_punct(")")?;
                Ok(PatternSpec::Sweep {
                    working_set,
                    sweeps,
                })
            }
            "hotcold" => {
                self.bump();
                self.expect_punct("(")?;
                let (hot_fraction, _) = self.expect_float("hot fraction")?;
                self.expect_punct(",")?;
                let hot = self.expr()?;
                self.expect_punct(",")?;
                let cold = self.expr()?;
                self.expect_punct(")")?;
                Ok(PatternSpec::HotCold {
                    hot_fraction,
                    hot,
                    cold,
                })
            }
            "broadcast" => {
                self.bump();
                self.expect_punct("(")?;
                let bytes = self.expr()?;
                self.expect_punct(")")?;
                Ok(PatternSpec::Broadcast { bytes })
            }
            _ => Err(self.err_here(
                "expected an access pattern: `streaming`, `random(ws)`, `sweep(ws, n)`, \
                 `hotcold(f, hot, cold)`, or `broadcast(bytes)`",
            )),
        }
    }

    /// Statement list up to and including the closing `}`.
    fn stmts(&mut self) -> Result<Vec<Stmt>, Finding> {
        self.enter()?;
        let mut out = Vec::new();
        loop {
            if self.peek_text() == "}" {
                self.bump();
                break;
            }
            out.push(self.stmt()?);
        }
        self.leave();
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, Finding> {
        match self.peek_text() {
            "launch" => {
                let kw = self.expect_keyword("launch")?;
                let (kernel, _) = self.expect_ident("a kernel identifier")?;
                self.expect_punct(";")?;
                Ok(Stmt::Launch {
                    kernel,
                    line: kw.line,
                })
            }
            "phase" => {
                let kw = self.expect_keyword("phase")?;
                let (phase, _) = self.expect_ident("a phase identifier")?;
                self.expect_punct(";")?;
                Ok(Stmt::Call {
                    phase,
                    line: kw.line,
                })
            }
            "repeat" => {
                let kw = self.expect_keyword("repeat")?;
                let count = self.expr()?;
                self.expect_punct("{")?;
                let body = self.stmts()?;
                Ok(Stmt::Repeat {
                    count,
                    body,
                    line: kw.line,
                })
            }
            "select" => {
                let kw = self.expect_keyword("select")?;
                self.expect_keyword("on")?;
                self.expect_keyword("class")?;
                self.expect_punct("{")?;
                self.enter()?;
                let mut arms = Vec::new();
                while self.peek_text() != "}" {
                    let (class, _) = self.expect_ident("a class name")?;
                    self.expect_punct("->")?;
                    let stmt = self.stmt()?;
                    arms.push((class, stmt));
                }
                self.leave();
                self.expect_punct("}")?;
                Ok(Stmt::Select {
                    arms,
                    line: kw.line,
                })
            }
            _ => Err(self.err_here("expected `launch`, `phase`, `repeat`, `select`, or `}`")),
        }
    }

    fn cond(&mut self) -> Result<Cond, Finding> {
        let lhs = self.expr()?;
        let op = match self.peek_text() {
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            "==" => CmpOp::Eq,
            "!=" => CmpOp::Ne,
            _ => return Err(self.err_here("expected a comparison operator")),
        };
        self.bump();
        let rhs = self.expr()?;
        Ok(Cond { lhs, op, rhs })
    }

    fn expr(&mut self) -> Result<Expr, Finding> {
        self.enter()?;
        let mut lhs = self.term()?;
        loop {
            let op = self.peek_text();
            if op != "+" && op != "-" {
                break;
            }
            let add = op == "+";
            self.bump();
            let rhs = self.term()?;
            lhs = if add {
                Expr::Add(Box::new(lhs), Box::new(rhs))
            } else {
                Expr::Sub(Box::new(lhs), Box::new(rhs))
            };
        }
        self.leave();
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, Finding> {
        let mut lhs = self.factor()?;
        loop {
            let op = self.peek_text();
            if op != "*" && op != "/" && op != "%" {
                break;
            }
            let which = match op {
                "*" => 0u8,
                "/" => 1,
                _ => 2,
            };
            self.bump();
            let rhs = self.factor()?;
            lhs = match which {
                0 => Expr::Mul(Box::new(lhs), Box::new(rhs)),
                1 => Expr::Div(Box::new(lhs), Box::new(rhs)),
                _ => Expr::Mod(Box::new(lhs), Box::new(rhs)),
            };
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Expr, Finding> {
        match self.peek() {
            Some(t) if t.kind == TokenKind::Int => {
                let (v, _) = self.expect_int("literal")?;
                Ok(Expr::Int(v))
            }
            Some(t) if t.kind == TokenKind::Ident => {
                let (name, _) = self.expect_ident("a variable")?;
                Ok(Expr::Var(name))
            }
            Some(t) if t.kind == TokenKind::Punct && t.text(self.src) == "(" => {
                self.bump();
                self.enter()?;
                let e = self.expr()?;
                self.leave();
                self.expect_punct(")")?;
                Ok(e)
            }
            _ => Err(self.err_here("expected an integer, a variable, or `(`")),
        }
    }
}

/// The parser as it was before [`Digits`]: the same grammar over the
/// reference lexer's tokens, reading each literal through a copy without
/// its `_` separators. The oracle of the tests that compare parses.
#[cfg(test)]
pub(crate) mod reference {
    use super::{parse_tokens, Literals};
    use crate::ast::WorkloadDef;
    use crate::lexer::reference::lex;
    use crate::Finding;

    pub(super) struct Replace;

    impl Literals for Replace {
        fn int(text: &str) -> Option<u64> {
            text.replace('_', "").parse::<u64>().ok()
        }

        fn float(text: &str) -> Option<f64> {
            match text.replace('_', "").parse::<f64>() {
                Ok(v) if v.is_finite() => Some(v),
                _ => None,
            }
        }
    }

    pub(crate) fn parse(src: &str) -> Result<WorkloadDef, Finding> {
        parse_tokens::<Replace>(src, lex(src))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
workload "mini" {
  seed 7;
  param n = 1024;
  kernel k0 {
    name "axpy";
    launch linear(n, 256);
    mix { fp32 = n / 32; }
    read accesses n / 32 tpa 4.0 pattern streaming;
    depend 0.5;
  }
  run {
    repeat 3 { launch k0; }
  }
}
"#;

    #[test]
    fn parses_a_minimal_definition() {
        let def = parse(MINI).expect("parse");
        assert_eq!(def.name, "mini");
        assert_eq!(def.seed.map(|(v, _)| v), Some(7));
        assert_eq!(def.kernels.len(), 1);
        assert_eq!(def.kernels[0].name.as_deref(), Some("axpy"));
        assert_eq!(def.run.len(), 1);
    }

    #[test]
    fn syntax_errors_are_line_accurate() {
        let src = "workload \"x\" {\n  seed 1\n}";
        let err = parse(src).expect_err("missing semicolon");
        assert_eq!(err.pass, "parse");
        assert_eq!(err.line, 3, "{err:?}"); // `}` found where `;` expected
        assert!(err.message.contains("expected `;`"), "{}", err.message);
    }

    #[test]
    fn duplicate_run_blocks_are_rejected() {
        let src = "workload \"x\" { run { } run { } }";
        let err = parse(src).expect_err("dup run");
        assert!(err.message.contains("duplicate `run`"), "{}", err.message);
    }

    #[test]
    fn unlexable_input_is_quoted_whole_in_the_finding() {
        let err = parse("workload \"x\" { é }").expect_err("stray character");
        assert!(
            err.message.ends_with("(found unlexable input `é`)"),
            "{}",
            err.message
        );
    }

    #[test]
    fn deep_nesting_is_bounded_not_fatal() {
        let mut src = String::from("workload \"x\" { run { ");
        for _ in 0..200 {
            src.push_str("repeat 2 { ");
        }
        let err = parse(&src).expect_err("deep nesting");
        assert!(err.message.contains("nesting too deep"), "{}", err.message);
    }

    /// One literal token's text: digits and `_` after a leading digit, and
    /// for a float a `.` before a digit; long enough to pass `u64::MAX`.
    fn literal() -> impl proptest::prelude::Strategy<Value = String> {
        use proptest::prelude::*;
        let part = || {
            prop::collection::vec(
                prop_oneof![
                    Just('_'),
                    (0u32..10).prop_map(|d| char::from(b'0' + d as u8))
                ],
                0..24,
            )
        };
        (0u32..10, part(), proptest::option::of((0u32..10, part()))).prop_map(
            |(lead, int, frac)| {
                let mut text = char::from(b'0' + lead as u8).to_string();
                text.extend(int);
                if let Some((first, rest)) = frac {
                    text.push('.');
                    text.push(char::from(b'0' + first as u8));
                    text.extend(rest);
                }
                text
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// The in-place readers read every literal as the copying ones did.
        #[test]
        fn literals_read_as_the_reference_reads_them(text in literal()) {
            use reference::Replace;
            proptest::prop_assert_eq!(Digits::int(&text), Replace::int(&text), "{}", text);
            let (new, old) = (Digits::float(&text), Replace::float(&text));
            proptest::prop_assert_eq!(new.map(f64::to_bits), old.map(f64::to_bits), "{}", text);
        }
    }

    #[test]
    fn integer_literals_end_at_u64_max() {
        for (text, value) in [
            ("18446744073709551615", Some(u64::MAX)),
            ("18_446_744_073_709_551_615", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("99999999999999999999", None),
            ("0_0", Some(0)),
        ] {
            assert_eq!(Digits::int(text), value, "{text}");
            assert_eq!(reference::Replace::int(text), value, "{text}");
        }
    }
}
