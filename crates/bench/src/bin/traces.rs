//! Export Cactus kernel-launch traces as `cactus-wir` captures — the
//! paper's future-work deliverable ("instruction traces compatible with
//! state-of-the-art GPU simulators"). Writes one definition per workload
//! under `results/traces/` and verifies that each one validates with zero
//! findings and replays through `cactus_wir::run` to the native run's
//! launch records, bit for bit.

use cactus_bench::header;
use cactus_core::{suite, SuiteScale};
use cactus_gpu::{Device, Gpu};

fn main() {
    let dir = std::path::Path::new("results/traces");
    std::fs::create_dir_all(dir).expect("create results/traces");

    header("Exporting Cactus kernel traces (cactus-wir captures)");
    for w in suite() {
        let mut gpu = Gpu::new(Device::rtx3080());
        gpu.enable_desc_log();
        w.run(&mut gpu, SuiteScale::Small);
        let descs = gpu.take_desc_log();
        let name = w.abbr.to_lowercase();
        let text = cactus_wir::capture::capture(&name, &descs);

        // Self-check: the capture is a clean definition that replays to
        // exactly the records the native run produced.
        let def = cactus_wir::parse(&text).expect("capture must parse");
        let findings = cactus_wir::check(&def);
        assert!(findings.is_empty(), "{}: {findings:?}", w.abbr);
        let mut replay = Gpu::new(Device::rtx3080());
        cactus_wir::run(&def, None, &mut replay).expect("capture must replay");
        assert_eq!(
            replay.records(),
            gpu.records(),
            "{}: replay differs",
            w.abbr
        );

        let path = dir.join(format!("{name}.wir"));
        std::fs::write(&path, &text).expect("write trace");
        println!(
            "{:<5} {:>7} launches {:>10} bytes -> {}",
            w.abbr,
            descs.len(),
            text.len(),
            path.display()
        );
    }
    println!(
        "\nRe-check with `cactus-wir-check results/traces/*.wir`; replay with `cactus_wir::run`."
    );
}
