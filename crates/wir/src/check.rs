//! The multi-pass static validator.
//!
//! Six passes run in a fixed order and the analysis stops at the first
//! pass that produces findings, so every diagnostic is reported by the
//! *earliest* pass competent to see it:
//!
//! 1. `parse` — syntax (reported by [`crate::parser::parse`], surfaced
//!    through [`analyze`]).
//! 2. `types` — name resolution, duplicate declarations, mix-class and
//!    taxonomy vocabulary, literal ranges (`tpa`, `depend`, hot fraction).
//! 3. `geometry` — launch geometry and bounds against the device catalog:
//!    every kernel must be launchable on at least one catalog device, and
//!    every expression must evaluate under every declared scale.
//! 4. `selection` — kernel-selection totality (each `select` covers every
//!    declared class, the class set has exactly one `else`) and
//!    termination (the phase-call graph is acyclic).
//! 5. `cost` — static resource estimation (launches, warp instructions,
//!    bytes moved) against fixed ceilings, without unrolling.
//! 6. `determinism` — stochastic access patterns require a `seed`.
//!
//! Passes 2–6 are pure functions of the AST; none executes the workload.

use crate::ast::{KernelDef, PatternSpec, Stmt, WorkloadDef, MIX_CLASSES, TAXONOMIES};
use crate::eval::{build_env, collect_vars, eval, eval_u32, eval_u64, Env};
use crate::parser::parse;
use crate::Finding;
use std::collections::{HashMap, HashSet};

/// Pass names, in execution order.
pub const PASSES: [&str; 6] = [
    "parse",
    "types",
    "geometry",
    "selection",
    "cost",
    "determinism",
];

/// Ceilings for the static cost pass. The defaults admit every shipped
/// family at profile scale with head-room while rejecting definitions
/// whose simulation would monopolize a serve worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CostCeilings {
    /// Maximum kernel launches per run.
    max_launches: u64,
    /// Maximum total warp instructions across the run.
    max_warp_instructions: u64,
    /// Maximum total bytes moved across the run.
    max_bytes: u64,
}

impl Default for CostCeilings {
    fn default() -> Self {
        CostCeilings {
            max_launches: 1_000_000,
            max_warp_instructions: 100_000_000_000_000,
            max_bytes: 1_000_000_000_000_000,
        }
    }
}

/// Parse and validate in one step: the entry point serve and the CLI use.
pub fn analyze(src: &str) -> Result<WorkloadDef, Vec<Finding>> {
    let def = parse(src).map_err(|f| vec![f])?;
    let findings = check(&def);
    if findings.is_empty() {
        Ok(def)
    } else {
        Err(findings)
    }
}

/// Validate a parsed definition. Returns the findings of the first pass
/// that produced any (or none if all passes are clean).
#[must_use]
pub fn check(def: &WorkloadDef) -> Vec<Finding> {
    check_with(def, &CostCeilings::default())
}

/// [`check`] under explicit ceilings, which only this module's tests
/// tighten.
fn check_with(def: &WorkloadDef, ceilings: &CostCeilings) -> Vec<Finding> {
    let passes: [fn(&WorkloadDef, &CostCeilings) -> Vec<Finding>; 5] =
        [types, geometry, selection, cost, determinism];
    for pass in passes {
        let findings = pass(def, ceilings);
        if !findings.is_empty() {
            return findings;
        }
    }
    Vec::new()
}

fn finding(pass: &'static str, line: u32, message: impl Into<String>) -> Finding {
    Finding {
        pass,
        line,
        message: message.into(),
    }
}

// ---------------------------------------------------------------- types --

fn types(def: &WorkloadDef, _ceilings: &CostCeilings) -> Vec<Finding> {
    const PASS: &str = "types";
    let mut out = Vec::new();
    let mut seen: HashMap<String, &'static str> = HashMap::new();
    let mut dup = |out: &mut Vec<Finding>, kind: &'static str, name: &str, line: u32| {
        // Distinct namespaces would be defensible, but one flat namespace
        // keeps `launch x;` vs `phase x;` confusions impossible.
        if let Some(prev) = seen.insert(name.to_owned(), kind) {
            out.push(finding(
                PASS,
                line,
                format!("duplicate declaration `{name}` (already declared as a {prev})"),
            ));
        }
    };
    for p in &def.params {
        dup(&mut out, "param", &p.name, p.line);
    }
    for s in &def.scales {
        dup(&mut out, "scale", &s.name, s.line);
        let mut vars = HashSet::new();
        for v in &s.vars {
            if !vars.insert(v.name.as_str()) {
                out.push(finding(
                    PASS,
                    v.line,
                    format!("duplicate variable `{}` in scale `{}`", v.name, s.name),
                ));
            }
        }
    }
    for c in &def.classes {
        dup(&mut out, "class", &c.name, c.line);
    }
    for k in &def.kernels {
        dup(&mut out, "kernel", &k.id, k.line);
    }
    for (name, _, line) in &def.phases {
        dup(&mut out, "phase", name, *line);
    }

    // Variable resolution. Params see earlier params; scale vars see params
    // and earlier vars of the same block; everything else sees the full
    // environment of *every* scale.
    let params: HashSet<&str> = def.params.iter().map(|p| p.name.as_str()).collect();
    let mut earlier: HashSet<&str> = HashSet::new();
    for p in &def.params {
        check_vars(&mut out, &p.expr, &earlier, p.line, "param", &p.name);
        earlier.insert(p.name.as_str());
    }
    for s in &def.scales {
        let mut scope: HashSet<&str> = params.clone();
        for v in &s.vars {
            check_vars(&mut out, &v.expr, &scope, v.line, "scale variable", &v.name);
            scope.insert(v.name.as_str());
        }
    }
    // (var, scope description) pairs for full-environment expressions.
    let scopes: Vec<(Option<&str>, HashSet<&str>)> = if def.scales.is_empty() {
        vec![(None, params.clone())]
    } else {
        def.scales
            .iter()
            .map(|s| {
                let mut scope = params.clone();
                scope.extend(s.vars.iter().map(|v| v.name.as_str()));
                (Some(s.name.as_str()), scope)
            })
            .collect()
    };
    let check_full = |out: &mut Vec<Finding>, e: &crate::ast::Expr, line: u32, what: String| {
        let mut vars = Vec::new();
        collect_vars(e, &mut vars);
        let mut reported = HashSet::new();
        for v in vars {
            if !reported.insert(v) {
                continue;
            }
            for (scale, scope) in &scopes {
                if !scope.contains(v) {
                    let place = match scale {
                        Some(s) => format!(" in scale `{s}`"),
                        None => String::new(),
                    };
                    out.push(finding(
                        PASS,
                        line,
                        format!("{what}: unknown variable `{v}`{place}"),
                    ));
                    break;
                }
            }
        }
    };
    for c in &def.classes {
        if let Some(cond) = &c.cond {
            let what = format!("class `{}` condition", c.name);
            check_full(&mut out, &cond.lhs, c.line, what.clone());
            check_full(&mut out, &cond.rhs, c.line, what);
        }
    }
    for k in &def.kernels {
        let mut exprs: Vec<(&crate::ast::Expr, u32)> = Vec::new();
        if let Some(l) = &k.launch {
            exprs.push((&l.a, l.line));
            exprs.push((&l.b, l.line));
            if let Some(r) = &l.regs {
                exprs.push((r, l.line));
            }
            if let Some(s) = &l.smem {
                exprs.push((s, l.line));
            }
        }
        for (class, e, line) in &k.mix {
            if !MIX_CLASSES.contains(&class.as_str()) {
                out.push(finding(
                    PASS,
                    *line,
                    format!(
                        "kernel `{}`: unknown mix class `{class}` (expected one of {})",
                        k.id,
                        MIX_CLASSES.join(", ")
                    ),
                ));
            }
            exprs.push((e, *line));
        }
        let mut mix_seen = HashSet::new();
        for (class, _, line) in &k.mix {
            if !mix_seen.insert(class.as_str()) {
                out.push(finding(
                    PASS,
                    *line,
                    format!("kernel `{}`: duplicate mix class `{class}`", k.id),
                ));
            }
        }
        if let Some((tag, line)) = &k.taxonomy {
            if !TAXONOMIES.contains(&tag.as_str()) {
                out.push(finding(
                    PASS,
                    *line,
                    format!(
                        "kernel `{}`: unknown taxonomy `{tag}` (expected one of {})",
                        k.id,
                        TAXONOMIES.join(", ")
                    ),
                ));
            }
        }
        for s in &k.streams {
            if !(1.0..=32.0).contains(&s.tpa) {
                out.push(finding(
                    PASS,
                    s.line,
                    format!(
                        "kernel `{}`: tpa {:?} outside [1, 32] (transactions per warp access)",
                        k.id, s.tpa
                    ),
                ));
            }
            if let PatternSpec::HotCold { hot_fraction, .. } = &s.pattern {
                if !(0.0..=1.0).contains(hot_fraction) {
                    out.push(finding(
                        PASS,
                        s.line,
                        format!(
                            "kernel `{}`: hot fraction {hot_fraction:?} outside [0, 1]",
                            k.id
                        ),
                    ));
                }
            }
            exprs.push((&s.accesses, s.line));
            match &s.pattern {
                PatternSpec::Streaming => {}
                PatternSpec::Random { working_set } => exprs.push((working_set, s.line)),
                PatternSpec::Sweep {
                    working_set,
                    sweeps,
                } => {
                    exprs.push((working_set, s.line));
                    exprs.push((sweeps, s.line));
                }
                PatternSpec::HotCold { hot, cold, .. } => {
                    exprs.push((hot, s.line));
                    exprs.push((cold, s.line));
                }
                PatternSpec::Broadcast { bytes } => exprs.push((bytes, s.line)),
            }
        }
        if let Some((d, line)) = k.depend {
            if !(0.0..=1.0).contains(&d) {
                out.push(finding(
                    PASS,
                    line,
                    format!("kernel `{}`: depend {d:?} outside [0, 1]", k.id),
                ));
            }
        }
        for (e, line) in exprs {
            check_full(&mut out, e, line, format!("kernel `{}`", k.id));
        }
    }

    // Statement references and repeat-count variables.
    let kernels: HashSet<&str> = def.kernels.iter().map(|k| k.id.as_str()).collect();
    let phases: HashSet<&str> = def.phases.iter().map(|(n, _, _)| n.as_str()).collect();
    let classes: HashSet<&str> = def.classes.iter().map(|c| c.name.as_str()).collect();
    let walk = |out: &mut Vec<Finding>, body: &[Stmt]| {
        let mut stack: Vec<&Stmt> = body.iter().collect();
        while let Some(s) = stack.pop() {
            match s {
                Stmt::Launch { kernel, line } => {
                    if !kernels.contains(kernel.as_str()) {
                        out.push(finding(PASS, *line, format!("unknown kernel `{kernel}`")));
                    }
                }
                Stmt::Call { phase, line } => {
                    if !phases.contains(phase.as_str()) {
                        out.push(finding(PASS, *line, format!("unknown phase `{phase}`")));
                    }
                }
                Stmt::Repeat { count, body, line } => {
                    check_full(out, count, *line, "repeat count".to_owned());
                    stack.extend(body.iter());
                }
                Stmt::Select { arms, line } => {
                    for (class, arm) in arms {
                        if !classes.contains(class.as_str()) {
                            out.push(finding(
                                PASS,
                                *line,
                                format!("select arm references undeclared class `{class}`"),
                            ));
                        }
                        stack.push(arm);
                    }
                }
            }
        }
    };
    for (_, body, _) in &def.phases {
        walk(&mut out, body);
    }
    walk(&mut out, &def.run);
    if def.run.is_empty() {
        out.push(finding(
            PASS,
            def.run_line,
            "run block is empty or missing — the workload launches nothing",
        ));
    }
    out
}

fn check_vars(
    out: &mut Vec<Finding>,
    e: &crate::ast::Expr,
    scope: &HashSet<&str>,
    line: u32,
    kind: &str,
    name: &str,
) {
    let mut vars = Vec::new();
    collect_vars(e, &mut vars);
    let mut reported = HashSet::new();
    for v in vars {
        if !scope.contains(v) && reported.insert(v) {
            out.push(finding(
                "types",
                line,
                format!(
                    "{kind} `{name}`: unknown variable `{v}` (only earlier bindings are visible)"
                ),
            ));
        }
    }
}

// ------------------------------------------------------------- geometry --

/// The loosest limits across the device catalog: a kernel must be
/// launchable on at least one modeled device.
fn catalog_limits() -> (u32, u32, u32) {
    let mut max_tpb = 32u32;
    let mut max_regs = 0u32;
    let mut max_smem = 0u32;
    for entry in cactus_gpu::CATALOG {
        let d = entry.device();
        max_tpb = max_tpb.max(d.max_threads_per_block);
        max_regs = max_regs.max(d.registers_per_sm);
        max_smem = max_smem.max(d.shared_mem_per_sm);
    }
    (max_tpb, max_regs, max_smem)
}

fn geometry(def: &WorkloadDef, _ceilings: &CostCeilings) -> Vec<Finding> {
    const PASS: &str = "geometry";
    let mut out = Vec::new();
    let (max_tpb, max_regs, max_smem) = catalog_limits();
    for (scale, env) in scale_envs(def, &mut out, PASS) {
        let ctx = |what: &str| match scale.as_deref() {
            Some(s) => format!("{what} (scale `{s}`)"),
            None => what.to_owned(),
        };
        for k in &def.kernels {
            if let Some(l) = &k.launch {
                let a = eval_u64(&l.a, &env);
                let b = eval_u64(&l.b, &env);
                match (&a, &b) {
                    (Ok(a), Ok(b)) => {
                        let tpb = *b;
                        if *a == 0 {
                            out.push(finding(
                                PASS,
                                l.line,
                                ctx(&format!(
                                    "kernel `{}`: launch size must be at least 1",
                                    k.id
                                )),
                            ));
                        }
                        if !(32..=u64::from(max_tpb)).contains(&tpb) {
                            out.push(finding(
                                PASS,
                                l.line,
                                ctx(&format!(
                                    "kernel `{}`: threads_per_block {tpb} outside [32, {max_tpb}] \
                                     — not launchable on any catalog device",
                                    k.id
                                )),
                            ));
                        } else {
                            if let Some(r) = &l.regs {
                                match eval_u32(r, &env) {
                                    Ok(regs) => {
                                        if regs < 16 {
                                            out.push(finding(
                                                PASS,
                                                l.line,
                                                ctx(&format!(
                                                    "kernel `{}`: registers_per_thread {regs} \
                                                     below the model's floor of 16",
                                                    k.id
                                                )),
                                            ));
                                        } else if u64::from(regs) * tpb > u64::from(max_regs) {
                                            out.push(finding(
                                                PASS,
                                                l.line,
                                                ctx(&format!(
                                                    "kernel `{}`: {regs} regs × {tpb} threads = {} \
                                                     exceeds every catalog register file (max {max_regs})",
                                                    k.id,
                                                    u64::from(regs) * tpb
                                                )),
                                            ));
                                        }
                                    }
                                    Err(e) => out.push(finding(
                                        PASS,
                                        l.line,
                                        ctx(&format!("kernel `{}`: regs: {e}", k.id)),
                                    )),
                                }
                            }
                            if let Some(s) = &l.smem {
                                match eval_u32(s, &env) {
                                    Ok(smem) => {
                                        if smem > max_smem {
                                            out.push(finding(
                                                PASS,
                                                l.line,
                                                ctx(&format!(
                                                    "kernel `{}`: shared_mem_per_block {smem} \
                                                     exceeds every catalog device (max {max_smem})",
                                                    k.id
                                                )),
                                            ));
                                        }
                                    }
                                    Err(e) => out.push(finding(
                                        PASS,
                                        l.line,
                                        ctx(&format!("kernel `{}`: smem: {e}", k.id)),
                                    )),
                                }
                            }
                        }
                    }
                    _ => {
                        for r in [a, b] {
                            if let Err(e) = r {
                                out.push(finding(
                                    PASS,
                                    l.line,
                                    ctx(&format!("kernel `{}`: launch geometry: {e}", k.id)),
                                ));
                            }
                        }
                    }
                }
            }
            for (_, e, line) in &k.mix {
                if let Err(e) = eval_u64(e, &env) {
                    out.push(finding(
                        PASS,
                        *line,
                        ctx(&format!("kernel `{}`: mix: {e}", k.id)),
                    ));
                }
            }
            for s in &k.streams {
                if let Err(e) = eval_u64(&s.accesses, &env) {
                    out.push(finding(
                        PASS,
                        s.line,
                        ctx(&format!("kernel `{}`: accesses: {e}", k.id)),
                    ));
                }
                let mut footprints: Vec<(&str, &crate::ast::Expr)> = Vec::new();
                match &s.pattern {
                    PatternSpec::Streaming => {}
                    PatternSpec::Random { working_set } => {
                        footprints.push(("working set", working_set));
                    }
                    PatternSpec::Sweep {
                        working_set,
                        sweeps,
                    } => {
                        footprints.push(("working set", working_set));
                        footprints.push(("sweep count", sweeps));
                    }
                    PatternSpec::HotCold { hot, cold, .. } => {
                        footprints.push(("hot bytes", hot));
                        footprints.push(("cold bytes", cold));
                    }
                    PatternSpec::Broadcast { bytes } => footprints.push(("broadcast bytes", bytes)),
                }
                for (what, e) in footprints {
                    match eval_u64(e, &env) {
                        Ok(0) => out.push(finding(
                            PASS,
                            s.line,
                            ctx(&format!(
                                "kernel `{}`: {what} must be at least 1 (a zero-byte footprint \
                                 degenerates the cache model)",
                                k.id
                            )),
                        )),
                        Ok(_) => {}
                        Err(e) => out.push(finding(
                            PASS,
                            s.line,
                            ctx(&format!("kernel `{}`: {what}: {e}", k.id)),
                        )),
                    }
                }
            }
        }
        // Class conditions must also evaluate under every scale.
        for c in &def.classes {
            if let Some(cond) = &c.cond {
                for e in [&cond.lhs, &cond.rhs] {
                    if let Err(e) = eval(e, &env) {
                        out.push(finding(
                            PASS,
                            c.line,
                            ctx(&format!("class `{}` condition: {e}", c.name)),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Build one environment per declared scale (or a single scale-less one),
/// converting build failures into findings for `pass`.
fn scale_envs(
    def: &WorkloadDef,
    out: &mut Vec<Finding>,
    pass: &'static str,
) -> Vec<(Option<String>, Env)> {
    let mut envs = Vec::new();
    if def.scales.is_empty() {
        match build_env(def, None) {
            Ok(env) => envs.push((None, env)),
            Err((line, msg)) => out.push(finding(pass, line, msg)),
        }
        return envs;
    }
    for s in &def.scales {
        match build_env(def, Some(&s.name)) {
            Ok(env) => envs.push((Some(s.name.clone()), env)),
            Err((line, msg)) => out.push(finding(pass, line, msg)),
        }
    }
    envs
}

// ------------------------------------------------------------ selection --

fn selection(def: &WorkloadDef, _ceilings: &CostCeilings) -> Vec<Finding> {
    const PASS: &str = "selection";
    let mut out = Vec::new();
    if !def.classes.is_empty() {
        let elses: Vec<&crate::ast::ClassDef> =
            def.classes.iter().filter(|c| c.cond.is_none()).collect();
        if elses.is_empty() {
            if let Some(first) = def.classes.first() {
                out.push(finding(
                    PASS,
                    first.line,
                    "class set has no `else` class — selection is not total over inputs",
                ));
            }
        }
        for extra in elses.iter().skip(1) {
            out.push(finding(
                PASS,
                extra.line,
                format!("multiple `else` classes (`{}` is redundant)", extra.name),
            ));
        }
    }

    // Every select must cover the full class set exactly once.
    let class_names: Vec<&str> = def.classes.iter().map(|c| c.name.as_str()).collect();
    let mut bodies: Vec<&[Stmt]> = vec![&def.run];
    for (_, body, _) in &def.phases {
        bodies.push(body);
    }
    for body in bodies {
        let mut stack: Vec<&Stmt> = body.iter().collect();
        while let Some(s) = stack.pop() {
            match s {
                Stmt::Select { arms, line } => {
                    if def.classes.is_empty() {
                        out.push(finding(
                            PASS,
                            *line,
                            "select used but the workload declares no classes",
                        ));
                    } else {
                        let mut seen = HashSet::new();
                        for (class, _) in arms {
                            if !seen.insert(class.as_str()) {
                                out.push(finding(
                                    PASS,
                                    *line,
                                    format!("duplicate select arm for class `{class}`"),
                                ));
                            }
                        }
                        for class in &class_names {
                            if !seen.contains(class) {
                                out.push(finding(
                                    PASS,
                                    *line,
                                    format!("select does not cover class `{class}`"),
                                ));
                            }
                        }
                    }
                    stack.extend(arms.iter().map(|(_, arm)| arm));
                }
                Stmt::Repeat { body, .. } => stack.extend(body.iter()),
                Stmt::Launch { .. } | Stmt::Call { .. } => {}
            }
        }
    }

    // Phase-call graph must be acyclic (termination).
    let names: Vec<&str> = def.phases.iter().map(|(n, _, _)| n.as_str()).collect();
    let mut edges: HashMap<&str, Vec<&str>> = HashMap::new();
    for (name, body, _) in &def.phases {
        let mut callees = Vec::new();
        let mut stack: Vec<&Stmt> = body.iter().collect();
        while let Some(s) = stack.pop() {
            match s {
                Stmt::Call { phase, .. } => callees.push(phase.as_str()),
                Stmt::Repeat { body, .. } => stack.extend(body.iter()),
                Stmt::Select { arms, .. } => stack.extend(arms.iter().map(|(_, arm)| arm)),
                Stmt::Launch { .. } => {}
            }
        }
        edges.insert(name.as_str(), callees);
    }
    let mut state: HashMap<&str, u8> = HashMap::new(); // 0 new, 1 visiting, 2 done
    for root in &names {
        if cycle_from(root, &edges, &mut state, &mut Vec::new()) {
            if let Some((_, _, line)) = def.phases.iter().find(|(n, _, _)| n == root) {
                out.push(finding(
                    PASS,
                    *line,
                    format!("phase `{root}` participates in a call cycle — execution would not terminate"),
                ));
            }
            break; // one cycle report is enough; later phases share it
        }
    }
    out
}

fn cycle_from<'a>(
    node: &'a str,
    edges: &HashMap<&'a str, Vec<&'a str>>,
    state: &mut HashMap<&'a str, u8>,
    path: &mut Vec<&'a str>,
) -> bool {
    match state.get(node) {
        Some(1) => return true,
        Some(2) => return false,
        _ => {}
    }
    if path.len() > 256 {
        return true; // defensive bound; real cycles are caught above
    }
    state.insert(node, 1);
    path.push(node);
    let mut cyclic = false;
    if let Some(callees) = edges.get(node) {
        for callee in callees {
            if edges.contains_key(callee) && cycle_from(callee, edges, state, path) {
                cyclic = true;
                break;
            }
        }
    }
    path.pop();
    state.insert(node, if cyclic { 1 } else { 2 });
    cyclic
}

// ----------------------------------------------------------------- cost --

#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    launches: u128,
    warp_instructions: u128,
    bytes: u128,
}

impl Cost {
    fn add(self, other: Cost) -> Cost {
        Cost {
            launches: self.launches.saturating_add(other.launches),
            warp_instructions: self
                .warp_instructions
                .saturating_add(other.warp_instructions),
            bytes: self.bytes.saturating_add(other.bytes),
        }
    }

    fn scale(self, n: u128) -> Cost {
        Cost {
            launches: self.launches.saturating_mul(n),
            warp_instructions: self.warp_instructions.saturating_mul(n),
            bytes: self.bytes.saturating_mul(n),
        }
    }

    fn max(self, other: Cost) -> Cost {
        Cost {
            launches: self.launches.max(other.launches),
            warp_instructions: self.warp_instructions.max(other.warp_instructions),
            bytes: self.bytes.max(other.bytes),
        }
    }

    fn is_zero(self) -> bool {
        self.launches == 0 && self.warp_instructions == 0 && self.bytes == 0
    }
}

fn cost(def: &WorkloadDef, ceilings: &CostCeilings) -> Vec<Finding> {
    const PASS: &str = "cost";
    let mut out = Vec::new();
    for (scale, env) in scale_envs(def, &mut out, PASS) {
        let label = scale
            .as_deref()
            .map(|s| format!("scale `{s}`: "))
            .unwrap_or_default();
        // Per-launch cost of each kernel, mirroring KernelDesc::build's
        // reconciliation of declared streams into the instruction mix.
        let mut per_kernel: HashMap<&str, Cost> = HashMap::new();
        for k in &def.kernels {
            per_kernel.insert(k.id.as_str(), kernel_cost(k, &env, &mut out, &label));
        }
        let mut memo: HashMap<&str, Cost> = HashMap::new();
        let total = body_cost(
            def,
            &def.run,
            &env,
            &per_kernel,
            &mut memo,
            &mut out,
            &label,
            0,
        );
        if total.launches > u128::from(ceilings.max_launches) {
            out.push(finding(
                PASS,
                def.run_line,
                format!(
                    "{label}estimated {} kernel launches exceeds the ceiling of {} (max_launches)",
                    total.launches, ceilings.max_launches
                ),
            ));
        }
        if total.warp_instructions > u128::from(ceilings.max_warp_instructions) {
            out.push(finding(
                PASS,
                def.run_line,
                format!(
                    "{label}estimated {} warp instructions exceeds the ceiling of {} \
                     (max_warp_instructions)",
                    total.warp_instructions, ceilings.max_warp_instructions
                ),
            ));
        }
        if total.bytes > u128::from(ceilings.max_bytes) {
            out.push(finding(
                PASS,
                def.run_line,
                format!(
                    "{label}estimated {} bytes moved exceeds the ceiling of {} (max_bytes)",
                    total.bytes, ceilings.max_bytes
                ),
            ));
        }
    }
    out
}

fn kernel_cost(k: &KernelDef, env: &Env, out: &mut Vec<Finding>, label: &str) -> Cost {
    const PASS: &str = "cost";
    let mut mix_total = 0u128;
    let mut load = 0u128;
    let mut store = 0u128;
    for (class, e, _) in &k.mix {
        if let Ok(v) = eval_u64(e, env) {
            let v = u128::from(v);
            mix_total = mix_total.saturating_add(v);
            match class.as_str() {
                "load" => load = load.saturating_add(v),
                "store" => store = store.saturating_add(v),
                _ => {}
            }
        }
    }
    let mut read = 0u128;
    let mut write = 0u128;
    let mut bytes = 0f64;
    for s in &k.streams {
        if let Ok(accesses) = eval_u64(&s.accesses, env) {
            let a = u128::from(accesses);
            if s.write {
                write = write.saturating_add(a);
            } else {
                read = read.saturating_add(a);
            }
            bytes += accesses as f64 * s.tpa * 32.0;
        }
    }
    // KernelDesc::build raises mix.load/store to the stream-declared sums.
    let raised = read
        .saturating_sub(load)
        .saturating_add(write.saturating_sub(store));
    if !bytes.is_finite() || bytes < 0.0 {
        out.push(finding(
            PASS,
            k.line,
            format!("{label}kernel `{}`: byte estimate is not finite", k.id),
        ));
        bytes = 0.0;
    }
    Cost {
        launches: 1,
        warp_instructions: mix_total.saturating_add(raised),
        bytes: bytes as u128,
    }
}

#[allow(clippy::too_many_arguments)]
fn body_cost<'a>(
    def: &'a WorkloadDef,
    body: &'a [Stmt],
    env: &Env,
    per_kernel: &HashMap<&str, Cost>,
    memo: &mut HashMap<&'a str, Cost>,
    out: &mut Vec<Finding>,
    label: &str,
    depth: u32,
) -> Cost {
    const PASS: &str = "cost";
    if depth > 64 {
        return Cost::default(); // cycles are a selection-pass finding
    }
    let mut total = Cost::default();
    for s in body {
        let c = match s {
            Stmt::Launch { kernel, .. } => {
                per_kernel.get(kernel.as_str()).copied().unwrap_or_default()
            }
            Stmt::Call { phase, .. } => {
                if let Some(c) = memo.get(phase.as_str()) {
                    *c
                } else if let Some((name, inner, _)) =
                    def.phases.iter().find(|(n, _, _)| n == phase)
                {
                    let c = body_cost(def, inner, env, per_kernel, memo, out, label, depth + 1);
                    memo.insert(name.as_str(), c);
                    c
                } else {
                    Cost::default()
                }
            }
            Stmt::Repeat { count, body, line } => {
                let n = match eval(count, env) {
                    Ok(n) if n >= 0 => n as u128,
                    Ok(n) => {
                        out.push(finding(
                            PASS,
                            *line,
                            format!("{label}repeat count evaluates to {n} (must be non-negative)"),
                        ));
                        0
                    }
                    Err(e) => {
                        out.push(finding(PASS, *line, format!("{label}repeat count: {e}")));
                        0
                    }
                };
                let inner = body_cost(def, body, env, per_kernel, memo, out, label, depth + 1);
                // A loop that does no modeled work is never legitimate: it
                // scores 0 against every ceiling however large `n` is, yet
                // the interpreter would still walk all n iterations.
                if n > 0 && inner.is_zero() {
                    out.push(finding(
                        PASS,
                        *line,
                        format!(
                            "{label}repeat of {n} iteration(s) has a zero-cost body: the loop \
                             does no modeled work, so its count evades every cost ceiling"
                        ),
                    ));
                }
                inner.scale(n)
            }
            Stmt::Select { arms, .. } => {
                // Static bound: the worst arm.
                let mut worst = Cost::default();
                for (_, arm) in arms {
                    let c = body_cost(
                        def,
                        std::slice::from_ref(arm),
                        env,
                        per_kernel,
                        memo,
                        out,
                        label,
                        depth + 1,
                    );
                    worst = worst.max(c);
                }
                worst
            }
        };
        total = total.add(c);
    }
    total
}

// ---------------------------------------------------------- determinism --

fn determinism(def: &WorkloadDef, _ceilings: &CostCeilings) -> Vec<Finding> {
    const PASS: &str = "determinism";
    let mut out = Vec::new();
    if def.seed.is_some() {
        return out;
    }
    for k in &def.kernels {
        for s in &k.streams {
            if matches!(
                s.pattern,
                PatternSpec::Random { .. } | PatternSpec::HotCold { .. }
            ) {
                out.push(finding(
                    PASS,
                    s.line,
                    format!(
                        "kernel `{}`: stochastic access pattern requires a top-level `seed` \
                         declaration for reproducible profiles",
                        k.id
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) {
        let def = parse(src).expect("parse");
        let findings = check(&def);
        assert!(findings.is_empty(), "{findings:?}");
    }

    fn first_pass(src: &str) -> (String, Vec<Finding>) {
        match analyze(src) {
            Ok(_) => (String::new(), Vec::new()),
            Err(findings) => {
                let pass = findings
                    .first()
                    .map(|f| f.pass.to_owned())
                    .unwrap_or_default();
                assert!(
                    findings.iter().all(|f| f.pass == pass),
                    "mixed passes: {findings:?}"
                );
                (pass, findings)
            }
        }
    }

    const CLEAN: &str = r#"
workload "clean" {
  seed 9;
  param n = 65536;
  scale tiny { steps = 2; }
  scale profile { steps = 8; }
  class sparse when n < 1024;
  class dense else;
  kernel gather {
    launch linear(n, 256) regs 32;
    mix { int = n / 16; }
    read accesses n / 32 tpa 8.0 pattern random(n * 4);
  }
  kernel dense_k {
    launch grid(n / 256, 256);
    mix { fp32 = n * 4; }
    read accesses n / 32 tpa 4.0 pattern streaming;
  }
  phase step {
    select on class {
      sparse -> launch gather;
      dense -> launch dense_k;
    }
  }
  run { repeat steps { phase step; } }
}
"#;

    #[test]
    fn clean_definition_has_zero_findings() {
        ok(CLEAN);
    }

    #[test]
    fn each_pass_fires_on_its_own_defect() {
        // types: unknown kernel.
        let (pass, _) = first_pass("workload \"t\" { run { launch nope; } }");
        assert_eq!(pass, "types");
        // geometry: threads per block out of range.
        let (pass, _) =
            first_pass("workload \"g\" { kernel k { launch grid(1, 2048); } run { launch k; } }");
        assert_eq!(pass, "geometry");
        // selection: missing else.
        let (pass, _) = first_pass(
            "workload \"s\" { param n = 4; class a when n < 2; kernel k { } \
             run { select on class { a -> launch k; } } }",
        );
        assert_eq!(pass, "selection");
        // cost: launch-count ceiling.
        let (pass, _) =
            first_pass("workload \"c\" { kernel k { } run { repeat 2000000 { launch k; } } }");
        assert_eq!(pass, "cost");
        // determinism: unseeded randomness.
        let (pass, _) = first_pass(
            "workload \"d\" { kernel k { read accesses 8 tpa 4.0 pattern random(4096); } \
             run { launch k; } }",
        );
        assert_eq!(pass, "determinism");
    }

    #[test]
    fn cost_rejects_repeats_with_zero_cost_bodies() {
        // The `repeat 0` inner loop zeroes the outer body's estimate, so
        // the outer count would sail under every ceiling while the
        // interpreter still walks ~10^18 iterations.
        let (pass, findings) = first_pass(
            "workload \"z\" { kernel k { } \
             run { repeat 9000000000000000000 { repeat 0 { launch k; } } } }",
        );
        assert_eq!(pass, "cost", "{findings:?}");
        assert!(
            findings.iter().any(|f| f.message.contains("zero-cost")),
            "{findings:?}"
        );
    }

    #[test]
    fn phase_cycles_are_a_selection_finding() {
        let (pass, findings) = first_pass(
            "workload \"cyc\" { kernel k { } \
             phase a { phase b; } phase b { phase a; } \
             run { phase a; } }",
        );
        assert_eq!(pass, "selection", "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("cycle")));
    }

    #[test]
    fn cost_ceilings_are_configurable() {
        let src =
            "workload \"cc\" { kernel k { mix { int = 10; } } run { repeat 10 { launch k; } } }";
        let def = parse(src).expect("parse");
        assert!(check(&def).is_empty());
        let tight = CostCeilings {
            max_launches: 5,
            ..CostCeilings::default()
        };
        let findings = check_with(&def, &tight);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pass, "cost");
        assert!(findings[0].message.contains("max_launches"));
    }

    #[test]
    fn select_cost_takes_the_worst_arm() {
        let src = r#"
workload "sel" {
  param n = 1;
  class a when n < 2;
  class b else;
  kernel cheap { mix { int = 1; } }
  kernel pricey { mix { int = 100; } }
  run {
    select on class {
      a -> launch cheap;
      b -> launch pricey;
    }
  }
}
"#;
        let def = parse(src).expect("parse");
        let tight = CostCeilings {
            max_warp_instructions: 50,
            ..CostCeilings::default()
        };
        let findings = check_with(&def, &tight);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("warp instructions"));
    }
}
