//! # cactus-core
//!
//! The Cactus benchmark suite (Naderan-Tahan & Eeckhout, IISWC 2021): ten
//! widely-used, real-life, multi-kernel GPU-compute workloads selected
//! *top-down* from three domains (paper Table I):
//!
//! | Abbr | Domain | Workload |
//! |---|---|---|
//! | GMS | Molecular | Gromacs-style NPT equilibration (protein + solvent) |
//! | LMR | Molecular | LAMMPS-style rhodopsin-class protein simulation |
//! | LMC | Molecular | LAMMPS-style colloid suspension |
//! | GST | Graph | Gunrock-style BFS on a social network |
//! | GRU | Graph | Gunrock-style BFS on a road network |
//! | DCG | ML | DCGAN training (Celeb-A-like) |
//! | NST | ML | Neural-style transfer |
//! | RFL | ML | Deep-Q reinforcement learning (flappy bird) |
//! | SPT | ML | Spatial-transformer network (MNIST-like) |
//! | LGT | ML | Seq2seq translation with attention |
//!
//! Each workload really computes (MD forces, BFS distances, training
//! losses) while launching its production-stack kernel sequence on the
//! [`cactus_gpu`] device model; [`run`] returns the resulting
//! [`cactus_profiler::Profile`].

pub mod scale;
pub mod workloads;

pub use scale::SuiteScale;
pub use workloads::{suite, Domain, Workload};

use cactus_gpu::{Device, Gpu};
use cactus_profiler::Profile;

/// Run one workload by abbreviation on a fresh RTX-3080-class device and
/// return its profile.
///
/// # Panics
///
/// Panics if the abbreviation is unknown.
#[must_use]
pub fn run(abbr: &str, scale: SuiteScale) -> Profile {
    let w = workloads::by_abbr(abbr).unwrap_or_else(|| panic!("unknown Cactus workload {abbr:?}"));
    let mut gpu = Gpu::new(Device::rtx3080());
    w.run(&mut gpu, scale);
    Profile::from_records(gpu.records())
}

/// Run the whole suite on the calling thread, each workload on its own
/// fresh device, and produce one `(workload, profile)` pair per row of
/// Table I, in order. The reference the determinism tests compare fan-outs
/// against; the fig/table bins resolve through the profile store instead.
#[must_use]
pub fn run_suite(scale: SuiteScale) -> Vec<(Workload, Profile)> {
    suite()
        .into_iter()
        .map(|w| {
            let mut gpu = Gpu::new(Device::rtx3080());
            w.run(&mut gpu, scale);
            let p = Profile::from_records(gpu.records());
            (w, p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_ten_workloads_in_three_domains() {
        let s = suite();
        assert_eq!(s.len(), 10);
        assert_eq!(
            s.iter().filter(|w| w.domain == Domain::Molecular).count(),
            3
        );
        assert_eq!(s.iter().filter(|w| w.domain == Domain::Graph).count(), 2);
        assert_eq!(
            s.iter()
                .filter(|w| w.domain == Domain::MachineLearning)
                .count(),
            5
        );
    }

    #[test]
    fn abbreviations_match_table_i() {
        let abbrs: Vec<&str> = suite().iter().map(|w| w.abbr).collect();
        assert_eq!(
            abbrs,
            ["GMS", "LMR", "LMC", "GST", "GRU", "DCG", "NST", "RFL", "SPT", "LGT"]
        );
    }

    #[test]
    fn every_workload_runs_at_tiny_scale() {
        for w in suite() {
            let p = run(w.abbr, SuiteScale::Tiny);
            assert!(p.kernel_count() > 0, "{}", w.abbr);
            assert!(p.total_time_s() > 0.0, "{}", w.abbr);
            assert!(p.total_warp_instructions() > 0, "{}", w.abbr);
        }
    }

    /// Observation 1/2: Cactus workloads execute many more kernels than
    /// the traditional suites — a dozen and up to multiple tens.
    #[test]
    fn workloads_are_multi_kernel() {
        for w in suite() {
            let p = run(w.abbr, SuiteScale::Tiny);
            // At tiny scale the road-network BFS only ramps through 4 of
            // its 8 kernel variants; profile scale exercises all of them.
            assert!(
                p.kernel_count() >= 4,
                "{}: only {} kernels",
                w.abbr,
                p.kernel_count()
            );
        }
    }

    /// Observation 3: same code base, different input → different kernels
    /// (LMR vs LMC share LAMMPS; GST vs GRU share the BFS code).
    #[test]
    fn input_sensitivity() {
        let kernels = |abbr: &str| -> std::collections::BTreeSet<String> {
            run(abbr, SuiteScale::Tiny)
                .kernels()
                .iter()
                .map(|k| k.name.clone())
                .collect()
        };
        assert_ne!(kernels("LMR"), kernels("LMC"));
        assert_ne!(kernels("GST"), kernels("GRU"));
    }

    #[test]
    #[should_panic(expected = "unknown Cactus workload")]
    fn unknown_abbr_panics() {
        let _ = run("XXX", SuiteScale::Tiny);
    }
}
