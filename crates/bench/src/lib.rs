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
//!
//! Every profile a fig/table bin reads comes from [`resolve`]: the same
//! [`ProfileService`] the `cactus-serve` daemon answers `/v1/profile`
//! with, opened on [`cactus_store::default_dir`]. A stored record at the
//! current record version is a hit; a missing, stale or unparseable one
//! is simulated and appended on its own, so the next run (and a daemon
//! started on the same directory) loads it. Point `CACTUS_PROFILE_STORE`
//! at an empty directory for a fully simulated run.

use cactus_analysis::roofline::{Roofline, RooflinePoint};
use cactus_gpu::metrics::KernelMetrics;
use cactus_gpu::Device;
use cactus_profiler::{KernelStats, Profile};
use cactus_serve::service::{ProfileService, Triple};

/// The device every fig/table set is resolved on (the paper's platform).
const DEVICE: &str = "rtx-3080";

/// The scale every fig/table set is resolved at, as the serving key spells
/// it.
const SCALE: &str = "profile";

/// A profiled workload, tagged with its origin.
#[derive(Debug, Clone)]
pub struct ProfiledWorkload {
    /// Display name (Cactus abbreviation or suite benchmark name).
    pub name: String,
    /// Suite the workload came from (`"Cactus"`, `"Parboil"`, …).
    pub suite: String,
    /// The aggregated profile.
    pub profile: Profile,
}

impl ProfiledWorkload {
    /// The dominant kernels covering ≥70 % of GPU time.
    #[must_use]
    pub fn dominant(&self) -> &[KernelStats] {
        self.profile.dominant_kernels(0.7)
    }
}

/// Resolve `(device, scale, workload)` triples to profiles, in input
/// order, through one [`ProfileService`] on [`cactus_store::default_dir`]
/// ([`resolve_on`] that service).
///
/// The store admits one process per directory. When another one (a
/// running daemon, say) holds it, the triples resolve through a service on
/// a fresh directory under [`std::env::temp_dir`], removed before this
/// returns — simulated, not cached — with a note on stderr.
///
/// # Panics
///
/// As [`resolve_on`], and if the fresh directory cannot be opened either.
#[must_use]
pub fn resolve(triples: &[(&str, &str, &str)]) -> Vec<Profile> {
    match ProfileService::new(Some(cactus_store::default_dir())) {
        Ok(service) => resolve_on(&service, triples),
        Err(e) => {
            eprintln!("profile store: {e}; simulating without caching");
            let dir = std::env::temp_dir().join(format!("cactus-bench-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let service = ProfileService::new(Some(dir.clone()))
                .unwrap_or_else(|e| panic!("scratch profile store: {e}"));
            let profiles = resolve_on(&service, triples);
            drop(service);
            let _ = std::fs::remove_dir_all(dir);
            profiles
        }
    }
}

/// Resolve `triples` through `service`, in input order: each triple is a
/// store hit, or one simulation appended to the store on its own. The
/// triples fan out across [`cactus_gpu::par`] worker threads, and the
/// store gets one compaction check at the end.
///
/// # Panics
///
/// Panics if a triple does not name a catalog device, scale and workload
/// that `service` models, or if its simulation fails.
#[must_use]
pub fn resolve_on(service: &ProfileService, triples: &[(&str, &str, &str)]) -> Vec<Profile> {
    let profiles = cactus_gpu::par::parallel_map(triples.to_vec(), |(device, scale, workload)| {
        let triple = Triple::resolve(device, scale, workload).unwrap_or_else(|e| panic!("{e}"));
        let (resolved, _) = service
            .profile(&triple, None)
            .unwrap_or_else(|e| panic!("{}: {e}", triple.key()));
        resolved.profile.clone()
    });
    if let Err(e) = service.store().maybe_compact() {
        eprintln!("profile store: compaction failed: {e}");
    }
    profiles
}

/// [`resolve`] every `(suite, name)` member at [`DEVICE`]/[`SCALE`].
fn resolve_members(members: Vec<(String, String)>) -> Vec<ProfiledWorkload> {
    let triples: Vec<(&str, &str, &str)> = members
        .iter()
        .map(|(_, name)| (DEVICE, SCALE, name.as_str()))
        .collect();
    let profiles = resolve(&triples);
    members
        .into_iter()
        .zip(profiles)
        .map(|((suite, name), profile)| ProfiledWorkload {
            name,
            suite,
            profile,
        })
        .collect()
}

/// The Cactus suite (Table I) at profile scale on the RTX 3080, in Table I
/// order.
#[must_use]
pub fn cactus_profiles() -> Vec<ProfiledWorkload> {
    resolve_members(
        cactus_core::suite()
            .into_iter()
            .map(|w| ("Cactus".to_owned(), w.abbr.to_owned()))
            .collect(),
    )
}

/// The Parboil/Rodinia/Tango comparison benchmarks (Table III) at profile
/// scale on the RTX 3080, in catalog order.
#[must_use]
pub fn prt_profiles() -> Vec<ProfiledWorkload> {
    resolve_members(
        cactus_suites::all()
            .into_iter()
            .map(|b| (b.suite.name().to_owned(), b.name.to_owned()))
            .collect(),
    )
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
