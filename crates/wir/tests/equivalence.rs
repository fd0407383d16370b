//! Capture exactness: a `cactus-wir` capture is a lossless,
//! device-independent form of the launch stream it was lifted from.
//!
//! For every Cactus workload, every Parboil/Rodinia/Tango benchmark and
//! every shipped definition at `tiny`, one test per catalog device checks
//! that the capture text equals the first device's, validates with no
//! finding, and replays through `cactus_wir::run` to the native run's
//! `LaunchRecord`s bit for bit, so IR-served profiles inherit
//! `MODEL_VERSION` discipline unchanged.
//!
//! The committed `defs/{gms,gst,dcg}.wir` are such captures, written by
//! `cargo run --release -p cactus-bench --bin traces`; tests check that
//! they equal a fresh one, and that the committed text replays to its
//! workload's native records and aggregated profile on rtx-3080.

use cactus_core::SuiteScale;
use cactus_gpu::prelude::{Gpu, LaunchRecord};
use cactus_gpu::{Device, CATALOG};
use std::path::PathBuf;
use std::sync::OnceLock;

fn defs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("defs")
}

/// A workload whose capture must be exact: its capture name and its run
/// at `tiny`.
type Workload = (String, Box<dyn Fn(&mut Gpu)>);

/// Every Cactus workload, every Parboil/Rodinia/Tango benchmark and every
/// shipped definition, each at `tiny`. A benchmark's capture name keeps
/// only the characters a workload name may hold (`b+tree` → `btree`).
fn workloads() -> Vec<Workload> {
    let mut all: Vec<Workload> = Vec::new();
    for w in cactus_core::workloads::suite() {
        let run = move |gpu: &mut Gpu| w.run(gpu, SuiteScale::Tiny);
        all.push((w.abbr.to_lowercase(), Box::new(run)));
    }
    for b in cactus_suites::all() {
        let name = b
            .name
            .chars()
            .filter(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_' || *c == '-')
            .collect();
        let run = move |gpu: &mut Gpu| b.run(gpu, cactus_suites::Scale::Tiny);
        all.push((name, Box::new(run)));
    }
    let mut defs: Vec<PathBuf> = std::fs::read_dir(defs_dir())
        .expect("defs dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "wir"))
        .collect();
    defs.sort();
    for path in defs {
        let text = std::fs::read_to_string(&path).expect("read def");
        let def = cactus_wir::parse(&text).expect("a shipped def parses");
        let run = move |gpu: &mut Gpu| {
            cactus_wir::run(&def, Some("tiny"), gpu).expect("a shipped def runs");
        };
        let name = path.file_stem().expect("stem").to_string_lossy();
        all.push((format!("def-{name}"), Box::new(run)));
    }
    all
}

/// Run `workload` on a fresh engine for `device`: its capture and its
/// native launch records.
fn capture_on(device: Device, (name, run): &Workload) -> (String, Vec<LaunchRecord>) {
    let mut gpu = Gpu::new(device);
    gpu.enable_desc_log();
    run(&mut gpu);
    let text = cactus_wir::capture::capture(name, &gpu.take_desc_log());
    (text, gpu.records().to_vec())
}

/// Every workload's name and capture on the first catalog device, in
/// [`workloads`] order: the text every other device's capture must equal.
fn reference_captures() -> &'static [(String, String)] {
    static CAPTURES: OnceLock<Vec<(String, String)>> = OnceLock::new();
    CAPTURES.get_or_init(|| {
        let device = CATALOG[0].device();
        workloads()
            .iter()
            .map(|w| (w.0.clone(), capture_on(device.clone(), w).0))
            .collect()
    })
}

/// On catalog device `id`, every workload's capture equals the reference
/// text, validates with no finding, and replays to the native records.
fn captures_are_exact_on(id: &str) {
    let entry = cactus_gpu::by_id(id).expect("catalog device");
    let workloads = workloads();
    let mut faults = Vec::new();
    let mut inexact = 0;
    for (w, (name, reference)) in workloads.iter().zip(reference_captures()) {
        let before = faults.len();
        let (text, native) = capture_on(entry.device(), w);
        if text != *reference {
            faults.push(format!("{name}: capture differs from {}'s", CATALOG[0].id));
        }
        let def = cactus_wir::parse(&text).expect("a capture parses");
        for f in cactus_wir::check(&def) {
            faults.push(format!("{name}: {f}"));
        }
        let mut replay = Gpu::new(entry.device());
        cactus_wir::run(&def, None, &mut replay).expect("a capture replays");
        if replay.records() != native.as_slice() {
            faults.push(format!("{name}: replay differs from the native records"));
        }
        inexact += usize::from(faults.len() > before);
    }
    assert!(
        faults.is_empty(),
        "{id}: {inexact} of {} captures are not exact:\n{}",
        workloads.len(),
        faults.join("\n")
    );
}

/// The committed `defs/{gms,gst,dcg}.wir` are the `tiny` captures of
/// their Cactus workloads, byte for byte.
#[test]
fn committed_defs_match_fresh_captures() {
    for name in ["gms", "gst", "dcg"] {
        let path = defs_dir().join(format!("{name}.wir"));
        let committed = std::fs::read_to_string(&path).expect("committed def");
        let (_, fresh) = reference_captures()
            .iter()
            .find(|(n, _)| n == name)
            .expect("a Cactus workload");
        assert!(
            committed == *fresh,
            "{} has drifted from the native run; regenerate it with \
             `cargo run --release -p cactus-bench --bin traces`",
            path.display()
        );
    }
}

/// The native `tiny` run of Cactus workload `abbr` on rtx-3080, and the
/// replay of its committed definition on a fresh rtx-3080 engine.
fn native_and_committed_replay(abbr: &str) -> (Vec<LaunchRecord>, Vec<LaunchRecord>) {
    let workload = cactus_core::workloads::by_abbr(abbr).expect("workload");
    let mut gpu = Gpu::new(Device::rtx3080());
    workload.run(&mut gpu, SuiteScale::Tiny);
    let path = defs_dir().join(format!("{}.wir", abbr.to_lowercase()));
    let text = std::fs::read_to_string(&path).expect("committed def");
    let def = cactus_wir::parse(&text).expect("parse");
    assert!(cactus_wir::check(&def).is_empty(), "{abbr} must validate");
    let mut replay = Gpu::new(Device::rtx3080());
    cactus_wir::run(&def, None, &mut replay).expect("exec");
    (gpu.records().to_vec(), replay.records().to_vec())
}

/// Replaying a committed definition reproduces its workload's native
/// records, read from the file rather than from a fresh capture.
#[test]
fn interpreted_defs_replay_native_traces_bit_identically() {
    for abbr in ["GMS", "GST", "DCG"] {
        let (native, replayed) = native_and_committed_replay(abbr);
        assert_eq!(native.len(), replayed.len(), "{abbr}: launch count differs");
        // LaunchRecord derives PartialEq over name, metrics, and timing:
        // equality here is bit-for-bit profile equivalence.
        assert_eq!(native, replayed, "{abbr}: trace differs");
    }
}

/// The profile aggregated from a committed definition's replay equals
/// the native one.
#[test]
fn profiles_from_interpreted_traces_match_native_profiles() {
    for abbr in ["GMS", "GST", "DCG"] {
        let (native, replayed) = native_and_committed_replay(abbr);
        let native_profile = cactus_profiler::Profile::from_records(&native);
        let ir_profile = cactus_profiler::Profile::from_records(&replayed);
        assert_eq!(
            format!("{native_profile:?}"),
            format!("{ir_profile:?}"),
            "{abbr}: aggregated profile differs"
        );
    }
}

#[test]
fn each_catalog_device_has_a_capture_test() {
    let ids: Vec<&str> = CATALOG.iter().map(|e| e.id).collect();
    assert_eq!(
        ids,
        [
            "rtx-3080",
            "rtx-3060",
            "rtx-2080-ti",
            "a100",
            "gtx-1080",
            "uhd-630"
        ]
    );
}

#[test]
fn captures_are_exact_on_rtx_3080() {
    captures_are_exact_on("rtx-3080");
}

#[test]
fn captures_are_exact_on_rtx_3060() {
    captures_are_exact_on("rtx-3060");
}

#[test]
fn captures_are_exact_on_rtx_2080_ti() {
    captures_are_exact_on("rtx-2080-ti");
}

#[test]
fn captures_are_exact_on_a100() {
    captures_are_exact_on("a100");
}

#[test]
fn captures_are_exact_on_gtx_1080() {
    captures_are_exact_on("gtx-1080");
}

#[test]
fn captures_are_exact_on_uhd_630() {
    captures_are_exact_on("uhd-630");
}
