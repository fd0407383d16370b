//! Expression evaluation shared by the validator and the interpreter.
//!
//! All arithmetic runs in `i128` with explicit overflow, division-by-zero,
//! and unknown-variable errors — never a panic. An `Env` is built once
//! per (definition, scale) pair: parameters first (each may reference the
//! ones before it), then the chosen scale block's variables (which may
//! reference parameters and earlier variables in the same block).

use crate::ast::{CmpOp, Cond, Expr, WorkloadDef};

/// Evaluation environment: name → value bindings in declaration order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Env {
    vars: Vec<(String, i128)>,
}

impl Env {
    /// Look up a binding.
    #[must_use]
    pub(crate) fn get(&self, name: &str) -> Option<i128> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Bind (or shadow) a name.
    pub(crate) fn set(&mut self, name: &str, value: i128) {
        self.vars.push((name.to_owned(), value));
    }
}

/// Build the environment for `def` under the named scale (`None` when the
/// definition declares no scale blocks). Errors carry the line of the
/// binding that failed.
pub(crate) fn build_env(def: &WorkloadDef, scale: Option<&str>) -> Result<Env, (u32, String)> {
    let mut env = Env::default();
    for p in &def.params {
        let v = eval(&p.expr, &env).map_err(|e| (p.line, format!("param {}: {e}", p.name)))?;
        env.set(&p.name, v);
    }
    if def.scales.is_empty() {
        if let Some(name) = scale {
            return Err((
                def.line,
                format!("workload declares no scales but scale `{name}` was requested"),
            ));
        }
        return Ok(env);
    }
    let Some(name) = scale else {
        return Err((def.line, "a scale name is required".to_owned()));
    };
    let Some(block) = def.scale(name) else {
        let known: Vec<&str> = def.scales.iter().map(|s| s.name.as_str()).collect();
        return Err((
            def.line,
            format!(
                "workload does not define scale `{name}` (declared: {})",
                known.join(", ")
            ),
        ));
    };
    for v in &block.vars {
        let val = eval(&v.expr, &env).map_err(|e| (v.line, format!("scale {name}: {e}",)))?;
        env.set(&v.name, val);
    }
    Ok(env)
}

/// Evaluate an expression. Errors are human-readable fragments suitable
/// for embedding in a finding message.
pub(crate) fn eval(e: &Expr, env: &Env) -> Result<i128, String> {
    match e {
        Expr::Int(v) => Ok(i128::from(*v)),
        Expr::Var(name) => env
            .get(name)
            .ok_or_else(|| format!("unknown variable `{name}`")),
        Expr::Add(a, b) => bin(e, env, a, b),
        Expr::Sub(a, b) => bin(e, env, a, b),
        Expr::Mul(a, b) => bin(e, env, a, b),
        Expr::Div(a, b) => bin(e, env, a, b),
        Expr::Mod(a, b) => bin(e, env, a, b),
    }
}

fn bin(e: &Expr, env: &Env, a: &Expr, b: &Expr) -> Result<i128, String> {
    let x = eval(a, env)?;
    let y = eval(b, env)?;
    let out = match e {
        Expr::Add(..) => x.checked_add(y),
        Expr::Sub(..) => x.checked_sub(y),
        Expr::Mul(..) => x.checked_mul(y),
        Expr::Div(..) => {
            if y == 0 {
                return Err("division by zero".to_owned());
            }
            x.checked_div(y)
        }
        Expr::Mod(..) => {
            if y == 0 {
                return Err("modulo by zero".to_owned());
            }
            x.checked_rem(y)
        }
        Expr::Int(_) | Expr::Var(_) => Some(x),
    };
    out.ok_or_else(|| "arithmetic overflow".to_owned())
}

/// Evaluate into `u64`, rejecting negative results.
pub(crate) fn eval_u64(e: &Expr, env: &Env) -> Result<u64, String> {
    let v = eval(e, env)?;
    u64::try_from(v).map_err(|_| format!("value {v} is out of range (expected 0..2^64)"))
}

/// Evaluate into `u32`, rejecting negative or oversized results.
pub(crate) fn eval_u32(e: &Expr, env: &Env) -> Result<u32, String> {
    let v = eval(e, env)?;
    u32::try_from(v).map_err(|_| format!("value {v} is out of range (expected 0..2^32)"))
}

/// Evaluate a class condition under an environment.
pub(crate) fn eval_cond(c: &Cond, env: &Env) -> Result<bool, String> {
    let l = eval(&c.lhs, env)?;
    let r = eval(&c.rhs, env)?;
    Ok(match c.op {
        CmpOp::Lt => l < r,
        CmpOp::Le => l <= r,
        CmpOp::Gt => l > r,
        CmpOp::Ge => l >= r,
        CmpOp::Eq => l == r,
        CmpOp::Ne => l != r,
    })
}

/// Every variable name an expression references, appended to `out`.
pub(crate) fn collect_vars<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
    match e {
        Expr::Int(_) => {}
        Expr::Var(name) => out.push(name.as_str()),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) | Expr::Mod(a, b) => {
            collect_vars(a, out);
            collect_vars(b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn params_see_earlier_params_and_scales_see_params() {
        let def = parse(
            "workload \"e\" { param a = 6; param b = a * 7; \
             scale t { c = b + 1; } run { } }",
        )
        .expect("parse");
        let env = build_env(&def, Some("t")).expect("env");
        assert_eq!(env.get("b"), Some(42));
        assert_eq!(env.get("c"), Some(43));
    }

    #[test]
    fn division_by_zero_and_overflow_are_errors() {
        let env = Env::default();
        let div = Expr::Div(Box::new(Expr::Int(1)), Box::new(Expr::Int(0)));
        assert!(eval(&div, &env).is_err());
        let big = Expr::Int(u64::MAX);
        let mul = Expr::Mul(
            Box::new(Expr::Mul(Box::new(big.clone()), Box::new(big.clone()))),
            Box::new(Expr::Mul(Box::new(big.clone()), Box::new(big))),
        );
        assert!(eval(&mul, &env).is_err());
    }

    #[test]
    fn scale_selection_is_validated() {
        let def = parse("workload \"e\" { scale t { n = 1; } run { } }").expect("parse");
        assert!(build_env(&def, Some("t")).is_ok());
        assert!(build_env(&def, Some("missing")).is_err());
        assert!(build_env(&def, None).is_err());
        let flat = parse("workload \"f\" { run { } }").expect("parse");
        assert!(build_env(&flat, None).is_ok());
        assert!(build_env(&flat, Some("t")).is_err());
    }
}
