//! Export kernel-launch traces as `cactus-wir` captures — the paper's
//! future-work deliverable ("instruction traces compatible with
//! state-of-the-art GPU simulators"). The one writer of committed
//! captures:
//!
//! * `results/traces/<name>.wir` — each Cactus workload at Small scale and
//!   each Parboil/Rodinia/Tango benchmark at `cactus_suites::Scale::Tiny`
//!   (the scale `/v1/profile/<device>/small/<benchmark>` serves);
//! * `crates/wir/defs/{gms,gst,dcg}.wir` — those three Cactus workloads at
//!   Tiny scale, the shipped definitions.
//!
//! A capture name keeps only the characters a workload name may hold, so
//! `b+tree` is written as `btree`. Before writing, each capture is checked
//! to validate with zero findings and to replay through `cactus_wir::run`
//! to the native run's launch records, bit for bit.

use cactus_bench::header;
use cactus_core::{suite, workloads, SuiteScale};
use cactus_gpu::{Device, Gpu};
use std::path::Path;

fn main() {
    header("Exporting kernel traces (cactus-wir captures)");
    let traces = Path::new("results/traces");
    std::fs::create_dir_all(traces).expect("create results/traces");
    for w in suite() {
        let name = w.abbr.to_lowercase();
        export(traces, &name, |gpu| w.run(gpu, SuiteScale::Small));
    }
    for b in cactus_suites::all() {
        let name: String = b
            .name
            .chars()
            .filter(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_' || *c == '-')
            .collect();
        export(traces, &name, |gpu| b.run(gpu, cactus_suites::Scale::Tiny));
    }
    let defs = Path::new("crates/wir/defs");
    for abbr in ["GMS", "GST", "DCG"] {
        let w = workloads::by_abbr(abbr).expect("a Cactus workload");
        export(defs, &abbr.to_lowercase(), |gpu| {
            w.run(gpu, SuiteScale::Tiny)
        });
    }
    println!(
        "\nRe-check with `cactus-wir-check results/traces/*.wir`; replay with `cactus_wir::run`."
    );
}

/// Capture `run` on an RTX 3080, self-check the capture, and write it to
/// `dir/<name>.wir`.
fn export(dir: &Path, name: &str, run: impl FnOnce(&mut Gpu)) {
    let mut gpu = Gpu::new(Device::rtx3080());
    gpu.enable_desc_log();
    run(&mut gpu);
    let descs = gpu.take_desc_log();
    let text = cactus_wir::capture::capture(name, &descs);

    let def = cactus_wir::parse(&text).expect("capture must parse");
    let findings = cactus_wir::check(&def);
    assert!(findings.is_empty(), "{name}: {findings:?}");
    let mut replay = Gpu::new(Device::rtx3080());
    cactus_wir::run(&def, None, &mut replay).expect("capture must replay");
    assert_eq!(replay.records(), gpu.records(), "{name}: replay differs");

    let path = dir.join(format!("{name}.wir"));
    std::fs::write(&path, &text).expect("write trace");
    println!(
        "{name:<13} {:>7} launches {:>10} bytes -> {}",
        descs.len(),
        text.len(),
        path.display()
    );
}
