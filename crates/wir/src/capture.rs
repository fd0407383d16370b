//! Lift an executed kernel trace into canonical IR text.
//!
//! A derivation's launch stream leaves it through a
//! `cactus_gpu::LaunchSink`; run into a `Vec<KernelDesc>`, it is the list
//! of every launched [`KernelDesc`]. [`capture`] dedups that list into
//! kernel declarations (captured traces reuse one kernel *name* across
//! differently shaped launches, so declarations get fresh ids and a
//! `name "…"` override) and run-length-encodes the schedule into `repeat`
//! blocks, then renders the
//! resulting [`WorkloadDef`] with the one printer, [`crate::printer`]. The
//! output validates with zero findings and replays bit-identically through
//! [`crate::exec`] — see `tests/equivalence.rs`.

use cactus_gpu::prelude::{AccessPattern, AccessStream, Direction, KernelDesc};

use crate::ast::{
    Expr, GeomKind, KernelDef, LaunchSpec, PatternSpec, Stmt, StreamSpec, WorkloadDef, MIX_CLASSES,
};

/// Render a captured trace as a complete workload definition: a
/// [`WorkloadDef`] of literals, through [`crate::printer::print`].
#[must_use]
pub fn capture(name: &str, descs: &[KernelDesc]) -> String {
    // Dedup by full structural equality, first-appearance order.
    let mut unique: Vec<&KernelDesc> = Vec::new();
    let mut schedule: Vec<usize> = Vec::with_capacity(descs.len());
    for d in descs {
        schedule.push(unique.iter().position(|u| *u == d).unwrap_or_else(|| {
            unique.push(d);
            unique.len() - 1
        }));
    }
    // The engine's pattern model is analytic, so replay is exactly
    // reproducible; the seed satisfies the determinism pass and keeps the
    // contract visible in the text.
    let stochastic = unique.iter().flat_map(|d| d.streams()).any(|s| {
        matches!(
            s.pattern,
            AccessPattern::RandomUniform { .. } | AccessPattern::HotCold { .. }
        )
    });
    let kernels: Vec<KernelDef> = unique
        .iter()
        .enumerate()
        .map(|(i, d)| kernel_def(kernel_id(i, d.name()), d))
        .collect();
    // Run-length-encode consecutive identical launches.
    let run = schedule
        .chunk_by(|a, b| a == b)
        .filter_map(|same| {
            let launch = Stmt::Launch {
                kernel: kernels.get(*same.first()?)?.id.clone(),
                line: 0,
            };
            Some(match same.len() {
                1 => launch,
                n => Stmt::Repeat {
                    count: Expr::Int(n as u64),
                    body: vec![launch],
                    line: 0,
                },
            })
        })
        .collect();
    crate::printer::print(&WorkloadDef {
        name: name.to_owned(),
        seed: stochastic.then_some((0, 0)),
        kernels,
        run,
        ..WorkloadDef::default()
    })
}

/// One captured kernel as literals: every launch field, the non-zero mix
/// classes, each stream, and the dependency fraction.
fn kernel_def(id: String, d: &KernelDesc) -> KernelDef {
    let l = d.launch();
    let m = d.mix();
    let counts = [
        m.fp32, m.special, m.int, m.branch, m.load, m.store, m.shared, m.sync, m.misc,
    ];
    KernelDef {
        id,
        name: Some(d.name().to_owned()),
        launch: Some(LaunchSpec {
            kind: GeomKind::Grid,
            a: Expr::Int(l.grid_blocks),
            b: Expr::Int(l.threads_per_block.into()),
            regs: Some(Expr::Int(l.registers_per_thread.into())),
            smem: Some(Expr::Int(l.shared_mem_per_block.into())),
            line: 0,
        }),
        mix: MIX_CLASSES
            .iter()
            .zip(counts)
            .filter(|&(_, v)| v > 0)
            .map(|(class, v)| ((*class).to_owned(), Expr::Int(v), 0))
            .collect(),
        streams: d.streams().iter().map(stream_spec).collect(),
        depend: Some((d.dependency_fraction(), 0)),
        ..KernelDef::default()
    }
}

fn stream_spec(s: &AccessStream) -> StreamSpec {
    let pattern = match s.pattern {
        AccessPattern::Streaming => PatternSpec::Streaming,
        AccessPattern::RandomUniform { working_set_bytes } => PatternSpec::Random {
            working_set: Expr::Int(working_set_bytes),
        },
        AccessPattern::Sweep {
            working_set_bytes,
            sweeps,
        } => PatternSpec::Sweep {
            working_set: Expr::Int(working_set_bytes),
            sweeps: Expr::Int(sweeps.into()),
        },
        AccessPattern::HotCold {
            hot_fraction,
            hot_bytes,
            cold_bytes,
        } => PatternSpec::HotCold {
            hot_fraction,
            hot: Expr::Int(hot_bytes),
            cold: Expr::Int(cold_bytes),
        },
        AccessPattern::Broadcast { bytes } => PatternSpec::Broadcast {
            bytes: Expr::Int(bytes),
        },
    };
    StreamSpec {
        write: matches!(s.direction, Direction::Write),
        accesses: Expr::Int(s.warp_accesses),
        tpa: s.transactions_per_access,
        pattern,
        line: 0,
    }
}

/// Schedule identifier for the `i`-th unique kernel: `k<i>_<sanitized>`.
fn kernel_id(i: usize, name: &str) -> String {
    let keep = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let san: String = name
        .chars()
        .take(32)
        .map(|c| if keep(c) { c.to_ascii_lowercase() } else { '_' })
        .collect();
    if san.is_empty() {
        format!("k{i}")
    } else {
        format!("k{i}_{san}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::parser::parse;
    use cactus_gpu::prelude::{AccessStream, InstructionMix, KernelDesc, LaunchConfig};

    fn sample() -> Vec<KernelDesc> {
        let a = KernelDesc::builder("alpha")
            .launch(LaunchConfig::new(64, 256))
            .mix(InstructionMix::elementwise(1 << 14, 2))
            .stream(AccessStream::read(1 << 14, 4, AccessPattern::Streaming))
            .build();
        let b = KernelDesc::builder("beta")
            .launch(LaunchConfig::new(32, 128).with_registers(48))
            .stream(AccessStream::read(
                1 << 12,
                8,
                AccessPattern::RandomUniform {
                    working_set_bytes: 1 << 20,
                },
            ))
            .build();
        vec![a.clone(), a.clone(), a, b]
    }

    #[test]
    fn capture_validates_clean_and_rle_compresses() {
        let text = capture("sample", &sample());
        assert!(text.contains("repeat 3"), "{text}");
        assert!(text.contains("seed 0;"), "{text}");
        let def = parse(&text).expect("parse");
        assert!(check(&def).is_empty(), "{text}");
    }

    #[test]
    fn capture_replays_to_an_identical_trace() {
        use cactus_gpu::{Device, Gpu};
        let descs = sample();
        let mut native = Gpu::new(Device::rtx3080());
        for d in &descs {
            native.launch(d);
        }
        let text = capture("sample", &descs);
        let def = parse(&text).expect("parse");
        let mut replay = Gpu::new(Device::rtx3080());
        crate::exec::run(&def, None, &mut replay).expect("exec");
        assert_eq!(native.records(), replay.records());
    }

    #[test]
    fn ids_are_sanitized_and_unique() {
        assert_eq!(kernel_id(0, "nbnxn kernel!"), "k0_nbnxn_kernel_");
        assert_eq!(kernel_id(3, ""), "k3");
    }
}
