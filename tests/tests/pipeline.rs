//! End-to-end pipeline tests: workload → profile → roofline → correlation
//! → FAMD → clustering, plus determinism and conservation checks across
//! crate boundaries.

use cactus_analysis::famd::Famd;
use cactus_analysis::hclust;
use cactus_analysis::matrix::Matrix;
use cactus_analysis::roofline::Roofline;
use cactus_core::SuiteScale;
use cactus_gpu::metrics::MetricId;
use cactus_gpu::{Device, Gpu};
use cactus_profiler::report::SummaryRow;
use cactus_profiler::Profile;

/// The full Figure 9 pipeline runs end-to-end on real (tiny-scale) data
/// and produces a sane clustering.
#[test]
fn full_characterization_pipeline() {
    let r = Roofline::for_device(&Device::rtx3080());

    // Profile two structurally different workloads.
    let mut rows = Vec::new();
    let mut intensity = Vec::new();
    let mut bound = Vec::new();
    let mut labels = Vec::new();
    for abbr in ["GMS", "GRU", "SPT"] {
        let p = cactus_core::run(abbr, SuiteScale::Tiny);
        for k in p.dominant_kernels(0.7) {
            labels.push(format!("{abbr}/{}", k.name));
            rows.push(
                MetricId::TABLE_IV
                    .iter()
                    .map(|&id| k.metrics.get(id))
                    .collect::<Vec<f64>>(),
            );
            intensity.push(
                r.intensity_class(k.metrics.instruction_intensity)
                    .label()
                    .to_owned(),
            );
            bound.push(r.boundedness_class(k.metrics.gips).label().to_owned());
        }
    }
    let n = rows.len();
    assert!(n >= 6, "need a population to cluster, got {n}");
    let data = Matrix::from_rows(n, 13, rows.into_iter().flatten().collect());

    let famd = Famd::fit(&data, &[intensity, bound]);
    let dims = famd.dims_for_ratio(0.85).max(2);
    let coords = famd.coordinates(dims);
    assert_eq!(coords.rows(), n);

    let dend = hclust::cluster(&coords);
    let k = 3.min(n);
    let assignment = dend.cut(k);
    assert_eq!(assignment.len(), n);
    let distinct: std::collections::BTreeSet<usize> = assignment.iter().copied().collect();
    assert_eq!(distinct.len(), k, "cut must produce {k} clusters");
}

/// The same workload with the same seed produces the identical profile
/// (the whole stack is deterministic).
#[test]
fn profiles_are_deterministic() {
    let a = cactus_core::run("LMC", SuiteScale::Tiny);
    let b = cactus_core::run("LMC", SuiteScale::Tiny);
    assert_eq!(a.total_warp_instructions(), b.total_warp_instructions());
    assert_eq!(a.kernel_count(), b.kernel_count());
    assert!((a.total_time_s() - b.total_time_s()).abs() < 1e-15);
    for (ka, kb) in a.kernels().iter().zip(b.kernels()) {
        assert_eq!(ka.name, kb.name);
        assert_eq!(ka.invocations, kb.invocations);
    }
}

/// Profile totals equal the sum over the raw execution trace.
#[test]
fn profile_conserves_the_trace() {
    let mut gpu = Gpu::new(Device::rtx3080());
    cactus_core::workloads::by_abbr("GRU")
        .unwrap()
        .run(&mut gpu, SuiteScale::Tiny);
    let trace_time: f64 = gpu.records().iter().map(|r| r.metrics.duration_s).sum();
    let trace_insts: u64 = gpu
        .records()
        .iter()
        .map(|r| r.metrics.warp_instructions)
        .sum();
    let p = Profile::from_records(gpu.records());
    assert!((p.total_time_s() - trace_time).abs() < 1e-12);
    assert_eq!(p.total_warp_instructions(), trace_insts);
    assert!((p.total_time_s() - gpu.total_gpu_time_s()).abs() < 1e-12);
}

/// Table I rows are internally consistent for every workload.
#[test]
fn table1_rows_are_consistent() {
    for (w, p) in cactus_core::run_suite(SuiteScale::Tiny) {
        let row = SummaryRow::from_profile(w.abbr, &p);
        assert!(row.kernels_70 >= 1);
        assert!(row.kernels_70 <= row.kernels_100);
        assert!(row.total_warp_instructions > 0);
        assert!(row.weighted_avg_warp_instructions > 0.0);
        assert!(
            row.weighted_avg_warp_instructions <= row.total_warp_instructions as f64,
            "{}: weighted average exceeds total",
            w.abbr
        );
    }
}

/// Roofline sanity across every kernel of the suite: no kernel exceeds the
/// compute roof or the memory roof at its intensity.
#[test]
fn no_kernel_breaks_the_roofline() {
    let r = Roofline::for_device(&Device::rtx3080());
    for (w, p) in cactus_core::run_suite(SuiteScale::Tiny) {
        for k in p.kernels() {
            let roof = r.roof(k.metrics.instruction_intensity);
            assert!(
                k.metrics.gips <= roof * 1.02,
                "{}/{}: {} GIPS above its {roof} roof",
                w.abbr,
                k.name,
                k.metrics.gips
            );
        }
    }
}

/// Every kernel metric stays in its documented range across the suite.
#[test]
fn metrics_stay_in_range() {
    let device = Device::rtx3080();
    for (w, p) in cactus_core::run_suite(SuiteScale::Tiny) {
        for k in p.kernels() {
            let m = &k.metrics;
            let ctx = format!("{}/{}", w.abbr, k.name);
            for (name, v) in [
                ("l1", m.l1_hit_rate),
                ("l2", m.l2_hit_rate),
                ("sm_eff", m.sm_efficiency),
                ("ldst", m.ldst_utilization),
                ("sp", m.sp_utilization),
                ("br", m.fraction_branches),
                ("ldst_frac", m.fraction_ldst),
                ("stall_exec", m.execution_stall),
                ("stall_pipe", m.pipe_stall),
                ("stall_sync", m.sync_stall),
                ("stall_mem", m.memory_stall),
            ] {
                assert!((0.0..=1.0).contains(&v), "{ctx}: {name} = {v}");
            }
            assert!(m.warp_occupancy <= f64::from(device.max_warps_per_sm));
            assert!(m.duration_s > 0.0, "{ctx}");
            assert!(m.gips >= 0.0 && m.gips.is_finite(), "{ctx}");
        }
    }
}
