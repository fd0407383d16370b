//! Rule tests against seeded-bad fixture workspaces, plus the self-check
//! that keeps the live workspace clean.
//!
//! Each fixture under `tests/fixtures/` is a miniature workspace laid out
//! like the real one (`crates/<name>/src/…`), scanned from its own root.
//! The real scan never sees them: `Workspace::scan` skips `fixtures`
//! directories.

use std::path::PathBuf;

use cactus_lint::{run_all, Finding, Workspace};

fn fixture(name: &str) -> Vec<Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let ws = Workspace::scan(&root).expect("fixture scans");
    run_all(&ws)
}

fn by_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn no_panic_fires_on_each_shape_with_file_and_line() {
    let findings = fixture("ws_no_panic");
    let hits = by_rule(&findings, "no_panic");
    // The launch engine is in scope by path (the gpu crate as a whole is
    // not a daemon crate)…
    assert!(
        hits.iter()
            .any(|f| f.file == "crates/gpu/src/engine.rs" && f.line == 5),
        "daemon-file unwrap missed: {findings:?}"
    );
    // …while gpu files off the cold-simulate path stay exempt.
    assert!(
        hits.iter().all(|f| f.file != "crates/gpu/src/occupancy.rs"),
        "off-path gpu file wrongly in scope: {findings:?}"
    );
    let hits: Vec<_> = hits
        .into_iter()
        .filter(|f| f.file == "crates/serve/src/main.rs")
        .collect();
    let lines: Vec<u32> = hits.iter().map(|f| f.line).collect();
    // unwrap, expect, panic!, literal index, allow-without-reason.
    assert_eq!(lines, vec![4, 8, 12, 16, 25], "findings: {findings:?}");
    assert!(
        hits[0].message.contains("unwrap"),
        "message names the shape: {}",
        hits[0].message
    );
    assert!(
        hits[4].message.contains("must give a reason"),
        "reasonless allow is its own finding: {}",
        hits[4].message
    );
    // The annotated unwrap (line 21), the variable index (line 29), and
    // the #[cfg(test)] unwrap produced nothing.
    assert!(!lines.contains(&21) && !lines.contains(&29));
}

/// One seeded hit per `forbid` row outside `no_panic`, each at its own
/// file and line; the allowed trig line, test-only fused arithmetic and the
/// exempt files beside each hit stay quiet.
#[test]
fn forbid_rows_fire_with_file_and_line() {
    let findings = fixture("ws_forbid");
    let got: Vec<(&str, &str, u32)> = findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("one_perf_ruler", "DESIGN.md", 3),
            ("cache_oracle", "crates/bench/src/bin/fig2.rs", 3),
            ("store_internals", "crates/bench/src/lib.rs", 4),
            ("one_csv_codec", "crates/gateway/src/compare.rs", 4),
            ("one_daemon_loop", "crates/gateway/src/server.rs", 3),
            ("one_repair_decision", "crates/gateway/src/server.rs", 6),
            ("one_backend_path", "crates/gateway/src/server.rs", 10),
            ("no_tick_loop", "crates/gateway/src/server.rs", 15),
            ("fft_arith", "crates/md/src/fft.rs", 9),
            ("per_cpu_code", "crates/md/src/fft.rs", 19),
            ("pme_arith", "crates/md/src/pme.rs", 4),
            ("ffi_home", "crates/serve/src/client.rs", 4),
            ("one_http_codec", "crates/serve/src/client.rs", 8),
            // The test module's engine is not a hit.
            ("launch_sink", "crates/suites/src/lib.rs", 6),
            // After the test module: scoped by the item, not by the
            // file's first test attribute.
            ("tensor_arith", "crates/tensor/src/tensor.rs", 12),
            ("one_trace_format", "results/fig1.txt", 2),
            ("one_perf_ruler", "vendor/criterion", 0),
        ],
        "findings: {findings:?}"
    );
    assert!(
        findings[8].message.contains("`mul_add`"),
        "message names the match: {}",
        findings[8].message
    );
}

/// Comments, string contents and test modules never trip a token row.
#[test]
fn forbid_ignores_comments_strings_and_test_code() {
    let findings = fixture("ws_forbid_clean");
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn lock_cycle_is_reported_with_both_sites() {
    let findings = fixture("ws_lock_cycle");
    let hits = by_rule(&findings, "lock_order");
    assert_eq!(hits.len(), 1, "exactly one AB/BA cycle: {findings:?}");
    let f = hits[0];
    assert_eq!(f.file, "crates/gateway/src/lib.rs");
    assert!(
        f.message.contains("gateway.alpha") && f.message.contains("gateway.beta"),
        "cycle names both locks: {}",
        f.message
    );
    assert!(
        f.message.matches("crates/gateway/src/lib.rs:").count() >= 2,
        "cycle lists a file:line per edge: {}",
        f.message
    );
    // The drop()-separated sequential function contributed no edge, so
    // there is no second cycle.
    assert!(findings.iter().all(|f| f.rule == "lock_order"));
}

#[test]
fn duplicate_and_malformed_metric_names_fire() {
    let findings = fixture("ws_dup_metric");
    let hits = by_rule(&findings, "names");
    assert_eq!(hits.len(), 3, "dup + unsuffixed + unprefixed: {findings:?}");
    assert_eq!(hits[0].line, 6);
    assert!(
        hits[0].message.contains("already registered")
            && hits[0].message.contains("crates/serve/src/metrics.rs:5"),
        "duplicate points at the first site: {}",
        hits[0].message
    );
    assert_eq!(hits[1].line, 7);
    assert!(hits[1].message.contains("_total"), "{}", hits[1].message);
    assert_eq!(hits[2].line, 8);
    assert!(
        hits[2].message.contains("cactus_"),
        "prefix violation named: {}",
        hits[2].message
    );
}

#[test]
fn client_route_drift_fires_and_valid_paths_pass() {
    let findings = fixture("ws_route_drift");
    let hits = by_rule(&findings, "surface");
    let lines: Vec<u32> = hits.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![7, 8], "typo + unserved endpoint: {findings:?}");
    for f in &hits {
        assert_eq!(f.file, "crates/serve/src/client.rs");
    }
    assert!(
        hits[0].message.contains("/v1/workload"),
        "{}",
        hits[0].message
    );
    assert!(
        hits[1].message.contains("/v1/roofline"),
        "endpoint outside TRIPLE_ENDPOINTS: {}",
        hits[1].message
    );
}

#[test]
fn rogue_span_name_fires() {
    let findings = fixture("ws_span");
    let hits = by_rule(&findings, "surface");
    assert_eq!(hits.len(), 1, "one rogue span: {findings:?}");
    assert_eq!(hits[0].file, "crates/serve/src/server.rs");
    assert_eq!(hits[0].line, 5);
    assert!(
        hits[0].message.contains("serve.rogue") && hits[0].message.contains("SPAN_NAMES"),
        "{}",
        hits[0].message
    );
}

/// A `pub` item only its own crate calls, and one another crate names only
/// in a comment, are findings; a `pub(crate)` item, a `pub` item in test
/// code, a type only a `pub fn` signature names and an item another crate's
/// `tests/` names are not.
#[test]
fn reach_flags_pub_items_nothing_outside_names() {
    let findings = fixture("ws_reach");
    let got: Vec<(&str, &str, u32)> = findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("reach", "crates/alpha/src/lib.rs", 4),
            ("reach", "crates/alpha/src/lib.rs", 9),
        ],
        "findings: {findings:?}"
    );
    assert!(
        findings[0].message.contains("`pub fn only_here`")
            && findings[0].message.contains("crates/alpha/src/lib.rs:4")
            && findings[0]
                .message
                .contains("no caller outside crate `alpha`"),
        "message names the item, its site and its crate: {}",
        findings[0].message
    );
}

/// The live workspace must stay clean: this is the same check CI runs via
/// `cargo run -p cactus-lint`, kept here so `cargo test` alone catches
/// regressions.
#[test]
fn live_workspace_has_no_findings() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::scan(&root).expect("workspace scans");
    assert!(
        ws.files
            .iter()
            .any(|f| f.rel == "crates/serve/src/routes.rs"),
        "sanity: the scan saw the serving tier"
    );
    let findings = run_all(&ws);
    assert!(
        findings.is_empty(),
        "live workspace must lint clean:\n{}",
        cactus_lint::report::render_text(&findings)
    );
}
