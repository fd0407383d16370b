//! `suite-local`: the simulated set with no sockets — each triple as
//! `Workload::run` on a fresh `Gpu` plus `Profile::from_records`, and the
//! shipped workload definitions through `wir::run`. The same `gpu` and host
//! layers `cold-sweep` reaches through the fleet, used directly, so a
//! fleet-side change predicts no movement here.

use cactus_core::SuiteScale;
use cactus_profiler::{store as profile_store, Profile};
use cactus_store::Store;
use cactus_wir::WorkloadDef;

use crate::catalog::SUITE_LOCAL;
use crate::estimator::{permutation, BodyDigest, Samples, SplitMix64};
use crate::fleet::ratio;
use crate::host::timed;
use crate::ops::{scale_slug, sim_triples, Triple, SIM_DEVICES, WIR_DEFS};
use crate::probes::{fresh_gpu, run_native, span_cost_ns, SimProbes, WirProbes};
use crate::report::Report;
use crate::trace::Trace;
use crate::{e2e_metrics, noise_metrics, passes_for, rounds_for, Run};

/// Ops between two repetitions of the set-up.
const SETUP_EVERY: usize = 8;
/// Kernel launches of one pass: the workloads are deterministic, so any
/// other count means the pass did not run what it says.
const LAUNCHES_PER_PASS: usize = 9_225;

enum Op {
    Native(Triple),
    Wir {
        def: usize,
        device: &'static str,
        scale: SuiteScale,
    },
}

impl Op {
    fn label(&self) -> String {
        match self {
            Op::Native(t) => t.key(),
            Op::Wir { def, device, scale } => {
                format!("{device}/{}/wir:{}", scale_slug(*scale), WIR_DEFS[*def].0)
            }
        }
    }
}

/// Parse and check the shipped definitions and build one engine per catalog
/// device: everything a process must do before its first simulation.
fn set_up() -> Vec<WorkloadDef> {
    let defs = WIR_DEFS
        .iter()
        .map(|(name, source)| {
            let def = cactus_wir::parse(source)
                .unwrap_or_else(|f| panic!("shipped {name}.wir does not parse: {f}"));
            let findings = cactus_wir::check(&def);
            assert!(findings.is_empty(), "shipped {name}.wir: {findings:?}");
            def
        })
        .collect();
    for id in cactus_gpu::catalog::device_ids() {
        std::hint::black_box(fresh_gpu(id));
    }
    defs
}

fn ops(defs: &[WorkloadDef]) -> Vec<Op> {
    let mut all: Vec<Op> = sim_triples().into_iter().map(Op::Native).collect();
    for (def, d) in defs.iter().enumerate() {
        // A captured definition declares no scales and ignores the argument.
        let scales: &[SuiteScale] = if d.scales.is_empty() {
            &[SuiteScale::Tiny]
        } else {
            &[SuiteScale::Tiny, SuiteScale::Small]
        };
        for device in SIM_DEVICES {
            all.extend(scales.iter().map(|&scale| Op::Wir { def, device, scale }));
        }
    }
    all
}

/// Run one op to its profile; returns the profile, the launch count, and the
/// span `(start_ns, dur_ns)`.
fn run_op(op: &Op, defs: &[WorkloadDef]) -> (Profile, usize, u64, u64) {
    let ((profile, launches), start, dur) = timed(|| {
        let gpu = match op {
            Op::Native(t) => {
                let mut gpu = fresh_gpu(t.device);
                run_native(t, &mut gpu);
                gpu
            }
            Op::Wir { def, device, scale } => {
                let mut gpu = fresh_gpu(device);
                cactus_wir::run(&defs[*def], Some(scale_slug(*scale)), &mut gpu)
                    .expect("shipped definition executes");
                gpu
            }
        };
        (Profile::from_records(gpu.records()), gpu.records().len())
    });
    (profile, launches, start, dur)
}

/// What every pass must reproduce — per op, the first profile document seen
/// — the seed's stream of per-pass orders, and the floor of the set-up, which
/// is repeated after every [`SETUP_EVERY`]-th op: it takes half a
/// millisecond, and a block of repetitions at the start of the run would all
/// see whichever state the machine was in for that tenth of a second.
struct Expected {
    texts: Vec<Option<String>>,
    orders: SplitMix64,
    setup_ns: u64,
}

impl Expected {
    /// One pass, in an order of its own; `sink(op, start_ns, dur_ns)` gets
    /// every op whose profile is the one first seen for it.
    fn pass(
        &mut self,
        report: &mut Report,
        ops: &[Op],
        defs: &[WorkloadDef],
        mut sink: impl FnMut(usize, u64, u64),
    ) {
        let mut launches = 0;
        let order = permutation(ops.len(), &mut self.orders);
        for (k, i) in order.into_iter().enumerate() {
            let (profile, n, start, dur) = run_op(&ops[i], defs);
            launches += n;
            let text = profile_store::write_profile(&profile);
            report.attempted += 1;
            if *self.texts[i].get_or_insert_with(|| text.clone()) == text {
                sink(i, start, dur);
            } else {
                report.failed += 1;
            }
            if k.is_multiple_of(SETUP_EVERY) {
                self.setup_ns = self.setup_ns.min(timed(set_up).2);
            }
        }
        report.check(launches == LAUNCHES_PER_PASS, || {
            format!("suite-local: {launches} launches in a pass, recorded {LAUNCHES_PER_PASS}")
        });
    }
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let (defs, _, setup_ns) = timed(set_up);
    let ops = ops(&defs);
    let mut expected = Expected {
        texts: vec![None; ops.len()],
        orders: SplitMix64::new(run.seed),
        setup_ns,
    };
    let mut samples = Samples::new(ops.len());

    if run.trace {
        traced(run, report, &ops, &defs, &mut expected, &mut samples)?;
    } else {
        for _ in 0..passes_for(run, SUITE_LOCAL.nominal_pass_s) {
            samples.begin_pass();
            expected.pass(report, &ops, &defs, |op, s, d| samples.record(op, s, d));
        }
        e2e_metrics(report, &samples, 1.0);
    }
    noise_metrics(report, &samples);
    report.metric("setup_s", expected.setup_ns as f64 / 1e9);
    report.metric("gpu.launches_per_pass", LAUNCHES_PER_PASS as f64);

    let mut digest = BodyDigest::default();
    for (op, text) in ops.iter().zip(&expected.texts) {
        digest.add(&op.label(), text.as_deref().unwrap_or_default().as_bytes());
    }
    report.note(format!("body_digest {digest}"));
    Ok(())
}

/// The traced run: rounds of a `native` pass (exactly an untraced one; there
/// is no tracing to switch on, so `harness.trace_overhead` reads 0) and a
/// `probe` pass that replays each triple's captured descriptor stream, which
/// splits the native floor into host derivation and device-model evaluation.
fn traced(
    run: &Run,
    report: &mut Report,
    ops: &[Op],
    defs: &[WorkloadDef],
    expected: &mut Expected,
    samples: &mut Samples,
) -> Result<(), String> {
    // The probe pass replays descriptor streams: a twentieth of a native one.
    let rounds = rounds_for(run, SUITE_LOCAL.nominal_pass_s * 1.2);
    let mut trace = Trace::new(ops.len());
    let native = trace.series("native", "pass");
    let mut sim = SimProbes::new(&mut trace, ops.len(), "probe");
    let wir = WirProbes::new(&mut trace, "probe");

    for round in 0..rounds as u32 {
        samples.begin_pass();
        expected.pass(report, ops, defs, |op, s, d| {
            samples.record(op, s, d);
            trace.record(native, op, round, s, d);
        });

        let scratch_dir = run.work.fresh("scratch").map_err(|e| e.to_string())?;
        let scratch = Store::open(&scratch_dir).map_err(|e| e.to_string())?;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Native(t) => sim.run(&mut trace, &scratch, i, round, t, "profile", false),
                Op::Wir { def, device, scale } => {
                    let parsed = wir.validate(&mut trace, i, round, WIR_DEFS[*def].1);
                    wir.exec(
                        &mut trace,
                        i,
                        round,
                        &parsed,
                        *scale,
                        &mut fresh_gpu(device),
                    );
                }
            }
        }
    }

    let native_ms = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Native(_)))
        .filter_map(|(i, _)| trace.floor(native, i))
        .sum::<u64>() as f64
        / 1e6;
    let us = |id| trace.floors(id).median_us();
    let sum_ms = |id| trace.floors(id).sum_ns() as f64 / 1e6;
    let model = sum_ms(sim.replay);
    report.metric("gpu.model_eval_ms", model);
    report.metric("gpu.model_eval_nomemo_ms", sum_ms(sim.replay_nomemo));
    report.metric("host.derive_ms", native_ms - model);
    report.metric("profiler.from_records_us", us(sim.from_records));
    report.metric(
        "gpu.memo.hit_ratio",
        ratio(
            sim.memo_hits as f64,
            (sim.memo_hits + sim.memo_misses) as f64,
        ),
    );
    report.metric("store.append_us", us(sim.append));
    report.metric(
        "store.bytes_per_record",
        ratio(sim.record_bytes as f64, sim.records as f64),
    );
    report.metric("wir.parse_us", us(wir.parse));
    report.metric("wir.check_us", us(wir.check));
    report.metric("wir.exec_us", us(wir.exec));
    report.metric("obs.span_us", span_cost_ns(8) / 1e3);
    report.note(format!(
        "chain (ms per pass, sums of per-op floors over the native triples): native \
         {native_ms:.3} ~ host.derive {:.3} + gpu.model_eval {model:.3}",
        native_ms - model
    ));

    let labels: Vec<String> = ops.iter().map(Op::label).collect();
    let file = trace
        .write(&format!("suite-local-seed{}", run.seed), &labels)
        .map_err(|e| format!("trace file: {e}"))?;
    report.note(format!("floored spans written to {}", file.display()));
    Ok(())
}
