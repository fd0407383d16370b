//! # cactus-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation. Each `cargo run --release -p cactus-bench --bin
//! <target>` prints the corresponding rows/series; `cargo bench -p
//! cactus-bench --bench simulator` checks the cache model's cost contract
//! (analytic vs trace-driven), a ratio timed in one process.
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `table1` | Table I — Cactus suite execution characteristics |
//! | `table2` | Table II — system setup |
//! | `table3` | Table III — comparison benchmarks |
//! | `table4` | Table IV — collected metrics |
//! | `fig1` | Figure 1 — benchmark-suite popularity survey |
//! | `fig2` | Figure 2 — PRT GPU-time distribution |
//! | `fig3` | Figure 3 — Cactus cumulative kernel-time distribution |
//! | `fig4` | Figure 4 — PRT rooflines |
//! | `fig5` | Figure 5 — Cactus per-application roofline |
//! | `fig6` | Figure 6 — molecular + graph per-kernel rooflines |
//! | `fig7` | Figure 7 — ML per-kernel rooflines |
//! | `fig8` | Figure 8 — correlation analysis |
//! | `fig9` | Figure 9 — FAMD + Ward dendrogram |

pub mod store;

use cactus_analysis::roofline::{Roofline, RooflinePoint};
use cactus_core::{SuiteScale, Workload};
use cactus_gpu::engine::MemoStats;
use cactus_gpu::metrics::KernelMetrics;
use cactus_gpu::{Device, Gpu};
use cactus_profiler::{KernelStats, Profile};
use cactus_suites::{Benchmark, Scale};

/// A profiled workload, tagged with its origin.
#[derive(Debug, Clone)]
pub struct ProfiledWorkload {
    /// Display name (Cactus abbreviation or suite benchmark name).
    pub name: String,
    /// Suite the workload came from (`"Cactus"`, `"Parboil"`, …).
    pub suite: String,
    /// The aggregated profile.
    pub profile: Profile,
    /// Launch-memoization counters from the simulation that produced the
    /// profile; `None` when the profile was loaded from the store (no
    /// simulation ran, so there is nothing to count).
    pub memo: Option<MemoStats>,
}

impl ProfiledWorkload {
    /// The dominant kernels covering ≥70 % of GPU time.
    #[must_use]
    pub fn dominant(&self) -> &[KernelStats] {
        self.profile.dominant_kernels(0.7)
    }
}

/// Run the full Cactus suite at profile scale. Fans out one workload per
/// worker thread ([`cactus_gpu::par`]); identical output to
/// [`cactus_profiles_serial`].
#[must_use]
pub fn cactus_profiles() -> Vec<ProfiledWorkload> {
    cactus_core::run_suite_with_stats(SuiteScale::Profile)
        .into_iter()
        .map(
            |(w, profile, memo): (Workload, Profile, MemoStats)| ProfiledWorkload {
                name: w.abbr.to_owned(),
                suite: "Cactus".to_owned(),
                profile,
                memo: Some(memo),
            },
        )
        .collect()
}

/// [`cactus_profiles`] on the calling thread only.
#[must_use]
pub fn cactus_profiles_serial() -> Vec<ProfiledWorkload> {
    cactus_core::run_suite_serial(SuiteScale::Profile)
        .into_iter()
        .map(|(w, profile): (Workload, Profile)| ProfiledWorkload {
            name: w.abbr.to_owned(),
            suite: "Cactus".to_owned(),
            profile,
            memo: None,
        })
        .collect()
}

/// Run the Parboil/Rodinia/Tango comparison benchmarks at profile scale.
/// Each benchmark simulates on its own device and worker thread; identical
/// output to [`prt_profiles_serial`].
#[must_use]
pub fn prt_profiles() -> Vec<ProfiledWorkload> {
    cactus_gpu::par::parallel_map(cactus_suites::all(), profile_prt_benchmark)
}

/// [`prt_profiles`] on the calling thread only.
#[must_use]
pub fn prt_profiles_serial() -> Vec<ProfiledWorkload> {
    cactus_suites::all()
        .into_iter()
        .map(profile_prt_benchmark)
        .collect()
}

fn profile_prt_benchmark(b: Benchmark) -> ProfiledWorkload {
    let mut gpu = Gpu::new(Device::rtx3080());
    b.run(&mut gpu, Scale::Profile);
    ProfiledWorkload {
        name: b.name.to_owned(),
        suite: b.suite.name().to_owned(),
        profile: Profile::from_records(gpu.records()),
        memo: Some(gpu.memo_stats()),
    }
}

/// All per-kernel metric records of a set of profiled workloads, tagged
/// `workload/kernel`.
#[must_use]
pub fn all_kernel_metrics(profiles: &[ProfiledWorkload]) -> Vec<(String, KernelMetrics)> {
    profiles
        .iter()
        .flat_map(|p| {
            p.profile
                .kernels()
                .iter()
                .map(move |k| (format!("{}/{}", p.name, k.name), k.metrics))
        })
        .collect()
}

/// Dominant-kernel metric records (≥70 % coverage sets), tagged.
#[must_use]
pub fn dominant_kernel_metrics(
    profiles: &[ProfiledWorkload],
) -> Vec<(String, String, KernelMetrics, f64)> {
    profiles
        .iter()
        .flat_map(|p| {
            let total = p.profile.total_time_s();
            p.dominant().iter().map(move |k| {
                (
                    p.name.clone(),
                    k.name.clone(),
                    k.metrics,
                    k.time_share(total),
                )
            })
        })
        .collect()
}

/// The reference roofline model (RTX-3080 class).
#[must_use]
pub fn roofline() -> Roofline {
    Roofline::for_device(&Device::rtx3080())
}

/// Build roofline points from per-kernel stats of one profile.
#[must_use]
pub fn kernel_points(p: &ProfiledWorkload) -> Vec<RooflinePoint> {
    let total = p.profile.total_time_s();
    p.profile
        .kernels()
        .iter()
        .map(|k| {
            RooflinePoint::from_metrics(
                format!("{}/{}", p.name, k.name),
                &k.metrics,
                k.time_share(total),
            )
        })
        .collect()
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Format a roofline classification row.
#[must_use]
pub fn roofline_row(r: &Roofline, label: &str, m: &KernelMetrics, share: f64) -> String {
    format!(
        "{:<44} {:>8.2} {:>9.2} {:>8.1}% {:>9} {:>10}",
        label,
        m.instruction_intensity,
        m.gips,
        share * 100.0,
        r.intensity_class(m.instruction_intensity).label(),
        r.boundedness_class(m.gips).label(),
    )
}

/// The roofline table header matching [`roofline_row`].
#[must_use]
pub fn roofline_header() -> String {
    format!(
        "{:<44} {:>8} {:>9} {:>9} {:>9} {:>10}",
        "Kernel", "II", "GIPS", "Time", "Class", "Bound"
    )
}
