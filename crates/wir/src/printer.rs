//! Canonical printer for the workload IR.
//!
//! Produces the normal form the round-trip property is stated over:
//! `print(parse(print(ast))) == print(ast)` for every AST, and
//! `print(parse(src)) == src` for any `src` already in canonical form.
//! Binary expressions are fully parenthesized, floats are printed with
//! Rust's shortest exact round-trip formatting (`{:?}`), and two-space
//! indentation is used throughout.

use crate::ast::{Cond, Expr, GeomKind, KernelDef, PatternSpec, Stmt, WorkloadDef};
use crate::lexer::escape;
use std::fmt::Write as _;

/// Render a definition in canonical form.
#[must_use]
pub fn print(def: &WorkloadDef) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workload \"{}\" {{", escape(&def.name));
    if let Some((seed, _)) = def.seed {
        let _ = writeln!(out, "  seed {seed};");
    }
    for p in &def.params {
        let _ = writeln!(out, "  param {} = {};", p.name, expr(&p.expr));
    }
    for s in &def.scales {
        let _ = writeln!(out, "  scale {} {{", s.name);
        for v in &s.vars {
            let _ = writeln!(out, "    {} = {};", v.name, expr(&v.expr));
        }
        let _ = writeln!(out, "  }}");
    }
    for c in &def.classes {
        match &c.cond {
            Some(cond) => {
                let _ = writeln!(out, "  class {} when {};", c.name, cond_str(cond));
            }
            None => {
                let _ = writeln!(out, "  class {} else;", c.name);
            }
        }
    }
    for k in &def.kernels {
        kernel(&mut out, k);
    }
    for (name, body, _) in &def.phases {
        let _ = writeln!(out, "  phase {name} {{");
        for s in body {
            stmt(&mut out, s, 2);
        }
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "  run {{");
    for s in &def.run {
        stmt(&mut out, s, 2);
    }
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");
    out
}

fn kernel(out: &mut String, k: &KernelDef) {
    let _ = writeln!(out, "  kernel {} {{", k.id);
    if let Some(name) = &k.name {
        let _ = writeln!(out, "    name \"{}\";", escape(name));
    }
    if let Some((tag, _)) = &k.taxonomy {
        let _ = writeln!(out, "    taxonomy {tag};");
    }
    if let Some(l) = &k.launch {
        let kind = match l.kind {
            GeomKind::Grid => "grid",
            GeomKind::Linear => "linear",
        };
        let mut line = format!("    launch {kind}({}, {})", expr(&l.a), expr(&l.b));
        if let Some(r) = &l.regs {
            let _ = write!(line, " regs {}", expr(r));
        }
        if let Some(s) = &l.smem {
            let _ = write!(line, " smem {}", expr(s));
        }
        let _ = writeln!(out, "{line};");
    }
    if !k.mix.is_empty() {
        let _ = writeln!(out, "    mix {{");
        for (class, e, _) in &k.mix {
            let _ = writeln!(out, "      {class} = {};", expr(e));
        }
        let _ = writeln!(out, "    }}");
    }
    for s in &k.streams {
        let dir = if s.write { "write" } else { "read" };
        let _ = writeln!(
            out,
            "    {dir} accesses {} tpa {:?} pattern {};",
            expr(&s.accesses),
            s.tpa,
            pattern(&s.pattern)
        );
    }
    if let Some((d, _)) = k.depend {
        let _ = writeln!(out, "    depend {d:?};");
    }
    let _ = writeln!(out, "  }}");
}

fn pattern(p: &PatternSpec) -> String {
    match p {
        PatternSpec::Streaming => "streaming".to_owned(),
        PatternSpec::Random { working_set } => format!("random({})", expr(working_set)),
        PatternSpec::Sweep {
            working_set,
            sweeps,
        } => format!("sweep({}, {})", expr(working_set), expr(sweeps)),
        PatternSpec::HotCold {
            hot_fraction,
            hot,
            cold,
        } => format!("hotcold({hot_fraction:?}, {}, {})", expr(hot), expr(cold)),
        PatternSpec::Broadcast { bytes } => format!("broadcast({})", expr(bytes)),
    }
}

fn stmt(out: &mut String, s: &Stmt, indent: usize) {
    let pad = "  ".repeat(indent);
    match s {
        Stmt::Launch { kernel, .. } => {
            let _ = writeln!(out, "{pad}launch {kernel};");
        }
        Stmt::Call { phase, .. } => {
            let _ = writeln!(out, "{pad}phase {phase};");
        }
        Stmt::Repeat { count, body, .. } => {
            let _ = writeln!(out, "{pad}repeat {} {{", expr(count));
            for inner in body {
                stmt(out, inner, indent + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Select { arms, .. } => {
            let _ = writeln!(out, "{pad}select on class {{");
            for (class, arm) in arms {
                // Simple arms stay inline; block arms open on the arrow line.
                match arm {
                    Stmt::Launch { kernel, .. } => {
                        let _ = writeln!(out, "{pad}  {class} -> launch {kernel};");
                    }
                    Stmt::Call { phase, .. } => {
                        let _ = writeln!(out, "{pad}  {class} -> phase {phase};");
                    }
                    nested => {
                        let mut sub = String::new();
                        stmt(&mut sub, nested, indent + 1);
                        let trimmed = sub.trim_start_matches(' ');
                        let _ = write!(out, "{pad}  {class} -> {trimmed}");
                    }
                }
            }
            let _ = writeln!(out, "{pad}}}");
        }
    }
}

fn cond_str(c: &Cond) -> String {
    format!("{} {} {}", expr(&c.lhs), c.op.as_str(), expr(&c.rhs))
}

/// Fully parenthesized expression rendering.
#[must_use]
pub(crate) fn expr(e: &Expr) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Var(name) => name.clone(),
        Expr::Add(a, b) => format!("({} + {})", expr(a), expr(b)),
        Expr::Sub(a, b) => format!("({} - {})", expr(a), expr(b)),
        Expr::Mul(a, b) => format!("({} * {})", expr(a), expr(b)),
        Expr::Div(a, b) => format!("({} / {})", expr(a), expr(b)),
        Expr::Mod(a, b) => format!("({} % {})", expr(a), expr(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn canonical_form_is_a_fixed_point() {
        let src = r#"
workload "fix" {
  seed 3;
  param n = 4096;
  scale tiny {
    steps = 2;
  }
  class low when (n % 7) < 3;
  class rest else;
  kernel k0 {
    name "gather";
    taxonomy memory;
    launch grid((n / 256), 256) regs 40 smem 1024;
    mix {
      int = (n * 2);
      load = (n / 32);
    }
    read accesses (n / 32) tpa 8.0 pattern random((n * 4));
    depend 0.35;
  }
  phase body {
    select on class {
      low -> launch k0;
      rest -> repeat 2 {
        launch k0;
      }
    }
  }
  run {
    repeat steps {
      phase body;
    }
  }
}
"#;
        let def = parse(src).expect("parse");
        let once = print(&def);
        let twice = print(&parse(&once).expect("reparse"));
        assert_eq!(once, twice);
    }

    #[test]
    fn floats_print_shortest_exact() {
        assert_eq!(format!("{:?}", 0.35_f64), "0.35");
        assert_eq!(format!("{:?}", 4.0_f64), "4.0");
    }
}
