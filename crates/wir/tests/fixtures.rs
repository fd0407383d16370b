//! Seeded-defect corpus and shipped-definition hygiene.
//!
//! Every file under `tests/fixtures/` carries a `# expect <pass> <line>`
//! header and is crafted to trip **exactly one** validator pass. Because
//! `check` stops at the first pass with findings, asserting the pass
//! name here proves both that the intended pass fires *and* that no
//! earlier pass does. The second half of the file asserts the inverse for
//! `defs/*.wir`: the four shipped family definitions validate with zero
//! findings and the GNN definition actually dispatches both select arms.

use cactus_gpu::{Device, Gpu};
use cactus_wir::{analyze, PASSES};
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn defs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("defs")
}

/// Parse the `# expect <pass> <line>` header of a fixture.
fn expectation(src: &str, name: &str) -> (String, u32) {
    let first = src.lines().next().unwrap_or_default();
    let mut parts = first
        .strip_prefix("# expect ")
        .unwrap_or_else(|| panic!("{name}: missing `# expect <pass> <line>` header"))
        .split_whitespace();
    let pass = parts.next().expect("pass name").to_owned();
    let line: u32 = parts
        .next()
        .and_then(|l| l.parse().ok())
        .unwrap_or_else(|| panic!("{name}: malformed expect header"));
    (pass, line)
}

#[test]
fn every_pass_has_a_fixture_and_each_fixture_trips_only_its_pass() {
    let mut covered: Vec<String> = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(fixture_dir())
        .expect("fixtures dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "wir"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), PASSES.len(), "one fixture per pass");
    for path in entries {
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        let src = std::fs::read_to_string(&path).expect("read fixture");
        let (pass, line) = expectation(&src, &name);
        assert!(
            PASSES.contains(&pass.as_str()),
            "{name}: unknown pass `{pass}`"
        );
        let findings = analyze(&src)
            .err()
            .unwrap_or_else(|| panic!("{name}: expected findings, validated clean"));
        assert!(!findings.is_empty(), "{name}: no findings");
        for f in &findings {
            assert_eq!(
                f.pass, pass,
                "{name}: finding from pass `{}` (expected only `{pass}`): {f}",
                f.pass
            );
        }
        assert!(
            findings.iter().any(|f| f.line == line),
            "{name}: no finding at line {line}: {findings:?}"
        );
        covered.push(pass);
    }
    covered.sort_unstable();
    let mut want: Vec<String> = PASSES.iter().map(|p| (*p).to_owned()).collect();
    want.sort_unstable();
    assert_eq!(
        covered, want,
        "fixture corpus must cover every pass exactly once"
    );
}

#[test]
fn shipped_definitions_validate_with_zero_findings() {
    let mut names: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(defs_dir()).expect("defs dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|e| e != "wir") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("read def");
        let def = analyze(&src)
            .unwrap_or_else(|f| panic!("{}: expected zero findings, got {f:?}", path.display()));
        names.push(def.name.clone());
    }
    names.sort_unstable();
    assert_eq!(
        names,
        ["dcg", "gms", "gnn", "gst"],
        "the four shipped families"
    );
}

#[test]
fn gnn_scales_dispatch_both_gather_variants() {
    let src = std::fs::read_to_string(defs_dir().join("gnn.wir")).expect("gnn def");
    let def = analyze(&src).expect("gnn validates");
    // tiny: average degree 8 < 16 -> low_degree; profile: degree 32 -> high.
    for (scale, expect, absent) in [
        ("tiny", "gnn_gather_local", "gnn_gather_scatter"),
        ("profile", "gnn_gather_scatter", "gnn_gather_local"),
    ] {
        let mut gpu = Gpu::new(Device::rtx3080());
        cactus_wir::run(&def, Some(scale), &mut gpu).expect("exec");
        let names: Vec<&str> = gpu.records().iter().map(|r| r.name.as_str()).collect();
        assert!(
            names.contains(&expect),
            "{scale}: missing {expect}: {names:?}"
        );
        assert!(!names.contains(&absent), "{scale}: unexpected {absent}");
        assert!(names.contains(&"gnn_gemm") && names.contains(&"gnn_softmax"));
    }
    // Same definition, same scale, fresh engines: identical traces.
    let mut a = Gpu::new(Device::rtx3080());
    let mut b = Gpu::new(Device::rtx3080());
    cactus_wir::run(&def, Some("small"), &mut a).expect("exec");
    cactus_wir::run(&def, Some("small"), &mut b).expect("exec");
    assert_eq!(a.records(), b.records(), "gnn replay must be deterministic");
}
