//! The IR interpreter: walks a validated definition's schedule and sends
//! each launch to a [`LaunchSink`], the same stream a hardcoded workload
//! runner sends. The sink is how that stream leaves the interpreter: an
//! engine prices it into the runner's `LaunchRecord` trace, a
//! `Vec<KernelDesc>` keeps it as descriptors.
//!
//! Execution is meant to follow a clean [`crate::check`](fn@crate::check)
//! run; it still defends itself (launch budget, step budget, recursion
//! bound, evaluation errors surfaced as [`ExecError`]) so a library caller
//! skipping validation cannot wedge or panic a daemon worker. The step budget is
//! the backstop the launch budget can't be: a repeat whose body launches
//! nothing (`repeat HUGE { repeat 0 { launch k; } }`) never decrements the
//! launch budget, so iterations themselves are metered too.

use crate::ast::{GeomKind, KernelDef, PatternSpec, Stmt, WorkloadDef};
use crate::eval::{build_env, eval, eval_cond, eval_u32, eval_u64, Env};
use cactus_gpu::prelude::{
    AccessPattern, AccessStream, Direction, InstructionMix, KernelDesc, LaunchConfig, LaunchSink,
};
use std::collections::HashMap;

/// Hard backstop on launches per execution, independent of the (softer)
/// cost-pass ceiling.
pub(crate) const MAX_LAUNCHES: u64 = 10_000_000;

/// Hard backstop on interpreter steps per execution: every statement
/// executed and every repeat iteration entered charges one step, so loops
/// whose bodies launch nothing still terminate in bounded time.
pub(crate) const MAX_STEPS: u64 = 50_000_000;

/// Maximum phase-call nesting during execution.
const MAX_DEPTH: u32 = 64;

/// Execution failure: line-tagged so serve can report it like a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Execute `def` into `gpu` under the named scale (ignored when the
/// definition declares no scales). Returns the number of kernel launches
/// issued.
pub fn run(
    def: &WorkloadDef,
    scale: Option<&str>,
    gpu: &mut dyn LaunchSink,
) -> Result<u64, ExecError> {
    run_with_limits(def, scale, gpu, MAX_LAUNCHES, MAX_STEPS)
}

/// [`run`] with explicit launch and step budgets, which only this
/// module's tests tighten.
fn run_with_limits(
    def: &WorkloadDef,
    scale: Option<&str>,
    gpu: &mut dyn LaunchSink,
    launches: u64,
    steps: u64,
) -> Result<u64, ExecError> {
    let requested = if def.scales.is_empty() { None } else { scale };
    let env = build_env(def, requested).map_err(|(line, message)| ExecError { line, message })?;

    // Input-dependent kernel selection: the first class whose `when`
    // condition holds wins; otherwise the declared `else` class.
    let mut chosen: Option<&str> = None;
    for c in &def.classes {
        if let Some(cond) = &c.cond {
            let hit = eval_cond(cond, &env).map_err(|message| ExecError {
                line: c.line,
                message: format!("class `{}`: {message}", c.name),
            })?;
            if hit {
                chosen = Some(c.name.as_str());
                break;
            }
        }
    }
    if chosen.is_none() {
        chosen = def
            .classes
            .iter()
            .find(|c| c.cond.is_none())
            .map(|c| c.name.as_str());
    }

    // Build each kernel's descriptor once; the environment is fixed for
    // the whole run.
    let mut descs: HashMap<&str, KernelDesc> = HashMap::new();
    for k in &def.kernels {
        descs.insert(k.id.as_str(), build_desc(k, &env)?);
    }

    let mut budget = Budget {
        launched: 0,
        limit: launches,
        steps: 0,
        step_limit: steps,
    };
    exec_body(def, &def.run, &env, chosen, &descs, gpu, &mut budget, 0)?;
    Ok(budget.launched)
}

struct Budget {
    launched: u64,
    limit: u64,
    steps: u64,
    step_limit: u64,
}

impl Budget {
    /// Charge one interpreter step (a statement executed or a repeat
    /// iteration entered) against the step budget.
    fn step(&mut self, line: u32) -> Result<(), ExecError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(ExecError {
                line,
                message: format!(
                    "execution step budget of {} exhausted (loop whose body launches nothing?)",
                    self.step_limit
                ),
            });
        }
        Ok(())
    }
}

fn stmt_line(s: &Stmt) -> u32 {
    match s {
        Stmt::Launch { line, .. }
        | Stmt::Call { line, .. }
        | Stmt::Repeat { line, .. }
        | Stmt::Select { line, .. } => *line,
    }
}

fn build_desc(k: &KernelDef, env: &Env) -> Result<KernelDesc, ExecError> {
    let err = |line: u32, message: String| ExecError { line, message };
    let name = k.name.clone().unwrap_or_else(|| k.id.clone());
    let mut builder = KernelDesc::builder(name);
    if let Some(l) = &k.launch {
        let a = eval_u64(&l.a, env).map_err(|e| err(l.line, e))?;
        let b = eval_u64(&l.b, env).map_err(|e| err(l.line, e))?;
        let tpb = u32::try_from(b).unwrap_or(u32::MAX);
        let mut launch = match l.kind {
            GeomKind::Grid => LaunchConfig::new(a, tpb),
            GeomKind::Linear => LaunchConfig::linear(a, tpb),
        };
        if let Some(r) = &l.regs {
            launch = launch.with_registers(eval_u32(r, env).map_err(|e| err(l.line, e))?);
        }
        if let Some(s) = &l.smem {
            launch = launch.with_shared_mem(eval_u32(s, env).map_err(|e| err(l.line, e))?);
        }
        builder = builder.launch(launch);
    }
    if !k.mix.is_empty() {
        let mut mix = InstructionMix::default();
        for (class, e, line) in &k.mix {
            let v = eval_u64(e, env).map_err(|e| err(*line, e))?;
            match class.as_str() {
                "fp32" => mix.fp32 += v,
                "special" => mix.special += v,
                "int" => mix.int += v,
                "branch" => mix.branch += v,
                "load" => mix.load += v,
                "store" => mix.store += v,
                "shared" => mix.shared += v,
                "sync" => mix.sync += v,
                "misc" => mix.misc += v,
                other => {
                    return Err(err(*line, format!("unknown mix class `{other}`")));
                }
            }
        }
        builder = builder.mix(mix);
    }
    for s in &k.streams {
        let accesses = eval_u64(&s.accesses, env).map_err(|e| err(s.line, e))?;
        let pattern = match &s.pattern {
            PatternSpec::Streaming => AccessPattern::Streaming,
            PatternSpec::Random { working_set } => AccessPattern::RandomUniform {
                working_set_bytes: eval_u64(working_set, env).map_err(|e| err(s.line, e))?,
            },
            PatternSpec::Sweep {
                working_set,
                sweeps,
            } => AccessPattern::Sweep {
                working_set_bytes: eval_u64(working_set, env).map_err(|e| err(s.line, e))?,
                sweeps: eval_u32(sweeps, env).map_err(|e| err(s.line, e))?,
            },
            PatternSpec::HotCold {
                hot_fraction,
                hot,
                cold,
            } => AccessPattern::HotCold {
                hot_fraction: *hot_fraction,
                hot_bytes: eval_u64(hot, env).map_err(|e| err(s.line, e))?,
                cold_bytes: eval_u64(cold, env).map_err(|e| err(s.line, e))?,
            },
            PatternSpec::Broadcast { bytes } => AccessPattern::Broadcast {
                bytes: eval_u64(bytes, env).map_err(|e| err(s.line, e))?,
            },
        };
        builder = builder.stream(AccessStream {
            direction: if s.write {
                Direction::Write
            } else {
                Direction::Read
            },
            warp_accesses: accesses,
            transactions_per_access: s.tpa,
            pattern,
        });
    }
    if let Some((d, _)) = k.depend {
        builder = builder.dependency_fraction(d);
    }
    Ok(builder.build())
}

#[allow(clippy::too_many_arguments)]
fn exec_body(
    def: &WorkloadDef,
    body: &[Stmt],
    env: &Env,
    class: Option<&str>,
    descs: &HashMap<&str, KernelDesc>,
    gpu: &mut dyn LaunchSink,
    budget: &mut Budget,
    depth: u32,
) -> Result<(), ExecError> {
    if depth > MAX_DEPTH {
        return Err(ExecError {
            line: def.run_line,
            message: "phase nesting too deep (cycle?)".to_owned(),
        });
    }
    for s in body {
        budget.step(stmt_line(s))?;
        match s {
            Stmt::Launch { kernel, line } => {
                let Some(desc) = descs.get(kernel.as_str()) else {
                    return Err(ExecError {
                        line: *line,
                        message: format!("unknown kernel `{kernel}`"),
                    });
                };
                if budget.launched >= budget.limit {
                    return Err(ExecError {
                        line: *line,
                        message: format!("launch budget of {} exhausted", budget.limit),
                    });
                }
                gpu.launch(desc);
                budget.launched += 1;
            }
            Stmt::Call { phase, line } => {
                let Some(inner) = def.phase(phase) else {
                    return Err(ExecError {
                        line: *line,
                        message: format!("unknown phase `{phase}`"),
                    });
                };
                exec_body(def, inner, env, class, descs, gpu, budget, depth + 1)?;
            }
            Stmt::Repeat { count, body, line } => {
                let n = eval(count, env).map_err(|message| ExecError {
                    line: *line,
                    message,
                })?;
                let n = u64::try_from(n).map_err(|_| ExecError {
                    line: *line,
                    message: format!("repeat count evaluates to {n} (must be non-negative)"),
                })?;
                for _ in 0..n {
                    // Each iteration is a step of its own: an empty (or
                    // zero-cost) body must not let the loop spin for free.
                    budget.step(*line)?;
                    exec_body(def, body, env, class, descs, gpu, budget, depth + 1)?;
                }
            }
            Stmt::Select { arms, line } => {
                let Some(active) = class else {
                    return Err(ExecError {
                        line: *line,
                        message: "select used but no input class is active".to_owned(),
                    });
                };
                let Some((_, arm)) = arms.iter().find(|(name, _)| name == active) else {
                    return Err(ExecError {
                        line: *line,
                        message: format!("select has no arm for class `{active}`"),
                    });
                };
                exec_body(
                    def,
                    std::slice::from_ref(arm),
                    env,
                    class,
                    descs,
                    gpu,
                    budget,
                    depth + 1,
                )?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use cactus_gpu::{Device, Gpu};

    const SELECTING: &str = r#"
workload "sel" {
  param n = 4096;
  scale lo { deg = 2; }
  scale hi { deg = 64; }
  class sparse when deg < 8;
  class dense else;
  kernel a { mix { int = 10; } }
  kernel b { mix { fp32 = 10; } }
  run {
    repeat 2 {
      select on class {
        sparse -> launch a;
        dense -> launch b;
      }
    }
  }
}
"#;

    #[test]
    fn selection_dispatches_on_the_scale_environment() {
        let def = parse(SELECTING).expect("parse");
        let mut gpu = Gpu::new(Device::rtx3080());
        let n = run(&def, Some("lo"), &mut gpu).expect("run lo");
        assert_eq!(n, 2);
        assert!(gpu.records().iter().all(|r| r.name == "a"));
        let mut gpu = Gpu::new(Device::rtx3080());
        run(&def, Some("hi"), &mut gpu).expect("run hi");
        assert!(gpu.records().iter().all(|r| r.name == "b"));
    }

    #[test]
    fn execution_is_deterministic() {
        let def = parse(SELECTING).expect("parse");
        let mut g1 = Gpu::new(Device::rtx3080());
        let mut g2 = Gpu::new(Device::rtx3080());
        run(&def, Some("hi"), &mut g1).expect("run");
        run(&def, Some("hi"), &mut g2).expect("run");
        assert_eq!(g1.records(), g2.records());
    }

    #[test]
    fn launch_budget_is_enforced() {
        let src = "workload \"big\" { kernel k { } run { repeat 100 { launch k; } } }";
        let def = parse(src).expect("parse");
        let mut gpu = Gpu::new(Device::rtx3080());
        let err = run_with_limits(&def, None, &mut gpu, 10, MAX_STEPS).expect_err("budget");
        assert!(err.message.contains("launch budget"), "{err}");
        assert_eq!(gpu.records().len(), 10);
    }

    #[test]
    fn step_budget_stops_loops_that_never_launch() {
        // A zero-cost body scores 0 against every cost ceiling and never
        // decrements the launch budget, so only the step budget stands
        // between this repeat and ~10^18 iterations on a serving engine.
        let src = "workload \"spin\" { kernel k { } \
                   run { repeat 9000000000000000000 { repeat 0 { launch k; } } } }";
        let def = parse(src).expect("parse");
        let mut gpu = Gpu::new(Device::rtx3080());
        let err = run_with_limits(&def, None, &mut gpu, 10, 1_000).expect_err("step budget");
        assert!(err.message.contains("step budget"), "{err}");
        assert_eq!(gpu.records().len(), 0, "nothing may have launched");
    }

    /// A stream wider than one divergent instruction reaches the model as
    /// written: lbm's 152 B-per-thread read captures as `tpa 152.0`,
    /// validates, and replays to the native kernel's record.
    #[test]
    fn a_152_byte_stream_replays_to_its_native_record() {
        let threads = 1 << 16;
        let native = KernelDesc::builder("wide")
            .launch(LaunchConfig::linear(threads, 256))
            .stream(AccessStream::read(threads, 152, AccessPattern::Streaming))
            .build();
        let text = crate::capture::capture("wide", std::slice::from_ref(&native));
        assert!(text.contains(" tpa 152.0 "), "{text}");
        let def = crate::check::analyze(&text).expect("a 152-transaction stream validates");
        let mut expected = Gpu::new(Device::rtx3080());
        expected.launch(&native);
        let mut replay = Gpu::new(Device::rtx3080());
        run(&def, None, &mut replay).expect("replay");
        assert_eq!(replay.records(), expected.records());
    }

    #[test]
    fn scale_is_ignored_for_scaleless_definitions() {
        let src = "workload \"flat\" { kernel k { mix { int = 1; } } run { launch k; } }";
        let def = parse(src).expect("parse");
        let mut gpu = Gpu::new(Device::rtx3080());
        assert_eq!(run(&def, Some("profile"), &mut gpu), Ok(1));
    }
}
