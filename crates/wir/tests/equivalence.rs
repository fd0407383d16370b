//! Engine-equivalence of the shipped family definitions.
//!
//! The committed `defs/{gms,gst,dcg}.wir` files are *captures*: the
//! hardcoded runner executes at tiny scale with the engine's descriptor
//! log enabled and the trace is lifted into canonical IR. These tests pin
//! that relationship in both directions:
//!
//! * the committed text is byte-identical to a fresh capture (so the
//!   shipped defs can never drift from the runners they mirror — regen
//!   with `CACTUS_WIR_REGEN=1 cargo test -p cactus-wir --test equivalence`);
//! * interpreting the committed text on a fresh engine reproduces the
//!   hardcoded runner's `LaunchRecord` trace **bit-identically**, so
//!   IR-served profiles inherit `MODEL_VERSION` discipline unchanged.

use cactus_core::SuiteScale;
use cactus_gpu::prelude::{Gpu, KernelDesc, LaunchRecord};
use cactus_gpu::Device;
use std::path::PathBuf;

/// (IR workload name, hardcoded family abbr) pairs for the captured defs.
const FAMILIES: [(&str, &str); 3] = [("gms", "GMS"), ("gst", "GST"), ("dcg", "DCG")];

fn def_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("defs/{name}.wir"))
}

/// Run the hardcoded family at tiny scale, returning its trace and the
/// launched descriptors.
fn run_native(abbr: &str) -> (Vec<LaunchRecord>, Vec<KernelDesc>) {
    let workload = cactus_core::workloads::by_abbr(abbr).expect("workload");
    let mut gpu = Gpu::new(Device::rtx3080());
    gpu.enable_desc_log();
    workload.run(&mut gpu, SuiteScale::Tiny);
    let descs = gpu.take_desc_log();
    (gpu.records().to_vec(), descs)
}

#[test]
fn committed_defs_match_fresh_captures() {
    let regen = std::env::var("CACTUS_WIR_REGEN").is_ok();
    for (name, abbr) in FAMILIES {
        let (_, descs) = run_native(abbr);
        let text = cactus_wir::capture::capture(name, &descs);
        let path = def_path(name);
        if regen {
            std::fs::write(&path, &text).expect("write def");
            continue;
        }
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (run with CACTUS_WIR_REGEN=1)", path.display()));
        assert_eq!(
            committed,
            text,
            "{abbr}: committed {} has drifted from the hardcoded runner; \
             regenerate with CACTUS_WIR_REGEN=1",
            path.display()
        );
    }
}

#[test]
fn interpreted_defs_replay_native_traces_bit_identically() {
    for (name, abbr) in FAMILIES {
        let (native, _) = run_native(abbr);
        let text = std::fs::read_to_string(def_path(name)).expect("committed def");
        let def = cactus_wir::parse(&text).expect("parse");
        assert!(cactus_wir::check(&def).is_empty(), "{abbr} must validate");
        let mut gpu = Gpu::new(Device::rtx3080());
        cactus_wir::run(&def, None, &mut gpu).expect("exec");
        let replayed = gpu.records().to_vec();
        assert_eq!(native.len(), replayed.len(), "{abbr}: launch count differs");
        // LaunchRecord derives PartialEq over name, metrics, and timing:
        // equality here is bit-for-bit profile equivalence.
        assert_eq!(native, replayed, "{abbr}: trace differs");
    }
}

#[test]
fn profiles_from_interpreted_traces_match_native_profiles() {
    for (name, abbr) in FAMILIES {
        let (native, _) = run_native(abbr);
        let text = std::fs::read_to_string(def_path(name)).expect("committed def");
        let def = cactus_wir::parse(&text).expect("parse");
        let mut gpu = Gpu::new(Device::rtx3080());
        cactus_wir::run(&def, None, &mut gpu).expect("exec");
        let native_profile = cactus_profiler::Profile::from_records(&native);
        let ir_profile = cactus_profiler::Profile::from_records(gpu.records());
        assert_eq!(
            format!("{native_profile:?}"),
            format!("{ir_profile:?}"),
            "{abbr}: aggregated profile differs"
        );
    }
}
