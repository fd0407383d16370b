//! The paper's Observations 1–12, asserted end-to-end at test scale.
//! (Profile-scale reproductions, with the exact paper-vs-measured numbers,
//! live in the `cactus-bench` binaries and EXPERIMENTS.md.)

use std::collections::BTreeSet;

use cactus_analysis::correlation::CorrelationMatrix;
use cactus_analysis::roofline::{Intensity, Roofline};
use cactus_core::{Domain, SuiteScale};
use cactus_gpu::metrics::KernelMetrics;
use cactus_gpu::{Device, Gpu};
use cactus_profiler::Profile;
use cactus_suites::Scale;

/// Tiny scale: fast, structurally faithful (kernel sets, input
/// sensitivity).
fn cactus_profiles() -> Vec<(String, Profile)> {
    cactus_core::run_suite(SuiteScale::Tiny)
        .into_iter()
        .map(|(w, p)| (w.abbr.to_owned(), p))
        .collect()
}

/// Small scale: large enough for the roofline/time-distribution shapes
/// (tiny inputs are launch-overhead dominated).
fn cactus_profiles_small() -> Vec<(String, Profile)> {
    cactus_core::run_suite(SuiteScale::Small)
        .into_iter()
        .map(|(w, p)| (w.abbr.to_owned(), p))
        .collect()
}

/// The PRT computational cores are small even at profile scale, so the
/// comparison suites always run with their representative kernel sizes.
fn prt_profiles() -> Vec<(String, Profile)> {
    cactus_suites::all()
        .into_iter()
        .map(|b| {
            let mut gpu = Gpu::new(Device::rtx3080());
            b.run(&mut gpu, Scale::Profile);
            (b.name.to_owned(), Profile::from_records(gpu.records()))
        })
        .collect()
}

/// Observations 1 & 2: Cactus workloads execute many more kernels than the
/// traditional suites — up to multiple tens for the ML apps.
#[test]
fn obs_1_2_cactus_executes_many_more_kernels() {
    let cactus = cactus_profiles();
    let prt = prt_profiles();

    let cactus_avg: f64 = cactus
        .iter()
        .map(|(_, p)| p.kernel_count() as f64)
        .sum::<f64>()
        / cactus.len() as f64;
    let prt_avg: f64 = prt
        .iter()
        .map(|(_, p)| p.kernel_count() as f64)
        .sum::<f64>()
        / prt.len() as f64;
    assert!(
        cactus_avg > 3.0 * prt_avg,
        "cactus avg {cactus_avg:.1} vs PRT avg {prt_avg:.1}"
    );

    // ML workloads: multiple tens of kernels.
    for abbr in ["DCG", "NST", "RFL", "SPT", "LGT"] {
        let (_, p) = cactus.iter().find(|(a, _)| a == abbr).unwrap();
        assert!(p.kernel_count() >= 18, "{abbr}: {}", p.kernel_count());
    }
    // No PRT benchmark comes close.
    assert!(prt.iter().all(|(_, p)| p.kernel_count() <= 6));
}

/// Observation 3: the same code base executes different kernels for
/// different inputs.
#[test]
fn obs_3_input_sensitivity() {
    let kernels = |abbr: &str| -> BTreeSet<String> {
        cactus_core::run(abbr, SuiteScale::Tiny)
            .kernels()
            .iter()
            .map(|k| k.name.clone())
            .collect()
    };
    let lmr = kernels("LMR");
    let lmc = kernels("LMC");
    assert!(
        !lmr.is_subset(&lmc) && !lmc.is_subset(&lmr),
        "LAMMPS inputs"
    );
    let gst = kernels("GST");
    let gru = kernels("GRU");
    assert!(gru.is_subset(&gst) || !gst.is_subset(&gru), "BFS inputs");
    assert_ne!(gst, gru);
}

/// Observation 4: PRT workloads are unambiguous — kernels on one side of
/// the roofline elbow — except `lud` and `alexnet`.
#[test]
fn obs_4_prt_unambiguous_rooflines() {
    let r = Roofline::for_device(&Device::rtx3080());
    for (name, p) in prt_profiles() {
        let classes: BTreeSet<Intensity> = p
            .kernels()
            .iter()
            .map(|k| r.intensity_class(k.metrics.instruction_intensity))
            .collect();
        if name == "lud" || name == "alexnet" {
            assert_eq!(classes.len(), 2, "{name} should be the mixed exception");
        } else {
            assert_eq!(classes.len(), 1, "{name} should be single-sided");
        }
    }
}

/// Observation 5: the Cactus applications are primarily memory-intensive
/// in aggregate, with GMS the compute-side case.
#[test]
fn obs_5_cactus_aggregate_memory_intensive() {
    let r = Roofline::for_device(&Device::rtx3080());
    let mut memory = 0;
    for (abbr, p) in cactus_profiles_small() {
        let m = p.aggregate_metrics();
        let class = r.intensity_class(m.instruction_intensity);
        if abbr == "GMS" {
            assert_eq!(class, Intensity::ComputeIntensive, "GMS is compute-side");
        } else if class == Intensity::MemoryIntensive {
            memory += 1;
        }
    }
    assert!(memory >= 7, "only {memory}/9 non-GMS apps memory-intensive");
}

/// Observation 6: Cactus workloads mix memory- and compute-intensive
/// kernels within a single application.
#[test]
fn obs_6_cactus_mixes_kernel_classes() {
    let r = Roofline::for_device(&Device::rtx3080());
    let mut mixed = 0;
    for (_, p) in cactus_profiles_small() {
        let classes: BTreeSet<Intensity> = p
            .kernels()
            .iter()
            .map(|k| r.intensity_class(k.metrics.instruction_intensity))
            .collect();
        if classes.len() > 1 {
            mixed += 1;
        }
    }
    assert!(mixed >= 4, "only {mixed}/10 Cactus apps mix kernel classes");
}

/// Observation 7: every ML app except LGT mixes compute- and
/// memory-intensive kernels.
#[test]
fn obs_7_ml_apps_but_lgt_mix_kernel_classes() {
    let r = Roofline::for_device(&Device::rtx3080());
    for (w, p) in cactus_core::run_suite(SuiteScale::Small) {
        if w.domain != Domain::MachineLearning {
            continue;
        }
        let classes: BTreeSet<Intensity> = p
            .kernels()
            .iter()
            .map(|k| r.intensity_class(k.metrics.instruction_intensity))
            .collect();
        assert_eq!(
            classes.len() > 1,
            w.abbr != "LGT",
            "{}: kernel classes {classes:?}",
            w.abbr
        );
    }
}

/// Observation 9: Cactus's primary metrics correlate with at least as many
/// underlying metrics as PRT's.
#[test]
fn obs_9_cactus_behaviour_is_more_complex() {
    let collect = |profiles: &[(String, Profile)]| -> Vec<KernelMetrics> {
        profiles
            .iter()
            .flat_map(|(_, p)| p.kernels().iter().map(|k| k.metrics))
            .collect()
    };
    let mc = CorrelationMatrix::primary_vs_table_iv(&collect(&cactus_profiles_small()));
    let mp = CorrelationMatrix::primary_vs_table_iv(&collect(&prt_profiles()));
    assert!(
        mc.total_correlated() >= mp.total_correlated(),
        "Cactus {} vs PRT {}",
        mc.total_correlated(),
        mp.total_correlated()
    );
}

/// Figure 2's backbone: every PRT workload reaches 70% of its GPU time
/// within three kernels; most within one.
#[test]
fn fig2_prt_time_concentration() {
    let mut one = 0;
    for (name, p) in prt_profiles() {
        let k = p.kernels_for_fraction(0.7);
        assert!(k <= 3, "{name}: {k} kernels for 70%");
        if k == 1 {
            one += 1;
        }
    }
    assert!(one >= 18, "only {one}/32 single-kernel-dominated");
}

/// Figure 3's backbone: the Cactus ML workloads need many kernels to reach
/// 70% of GPU time.
#[test]
fn fig3_cactus_time_dispersion() {
    for (abbr, p) in cactus_profiles() {
        if ["DCG", "NST", "SPT", "LGT"].contains(&abbr.as_str()) {
            let k = p.kernels_for_fraction(0.7);
            assert!(k >= 5, "{abbr}: only {k} kernels for 70%");
        }
    }
}
