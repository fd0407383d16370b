//! # cactus-suites
//!
//! The 32 comparison benchmarks of the paper's Table III — Parboil (11),
//! Rodinia (18) and Tango (3) — implemented as real algorithm cores at
//! reduced scale, each launching its published kernel decomposition on the
//! [`cactus_gpu`] device model.
//!
//! These benchmarks are the paper's foil: bottom-up, kernel-centric
//! programs that spend ≥70 % of GPU time in one or two kernels (Figure 2)
//! and sit unambiguously on one side of the roofline elbow (Figure 4),
//! with `lud` (one memory- plus one compute-intensive kernel) and Tango's
//! `alexnet` as the only mixed cases. The kernel names and decompositions
//! follow the original suites' sources.

pub mod common;
pub mod parboil;
pub mod rodinia;
pub mod tango;

use cactus_gpu::LaunchSink;

/// Which suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Parboil (UIUC, 2012).
    Parboil,
    /// Rodinia (Virginia, 2009).
    Rodinia,
    /// Tango (2019 DNN suite, no CuDNN).
    Tango,
}

impl Suite {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Suite::Parboil => "Parboil",
            Suite::Rodinia => "Rodinia",
            Suite::Tango => "Tango",
        }
    }
}

/// Benchmark scale: test-sized or profile-sized inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Small inputs for unit tests.
    Tiny,
    /// The harness profiling scale.
    Profile,
}

/// One registered comparison benchmark.
pub struct Benchmark {
    /// Benchmark name as used in the paper (e.g. `"sgemm"`).
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    runner: fn(&mut dyn LaunchSink, Scale),
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .finish()
    }
}

impl Benchmark {
    /// Execute the benchmark, launching its kernels into `gpu`.
    pub fn run(&self, gpu: &mut dyn LaunchSink, scale: Scale) {
        (self.runner)(gpu, scale);
    }
}

/// All 32 Table III benchmarks, Parboil then Rodinia then Tango.
#[must_use]
pub fn all() -> Vec<Benchmark> {
    let mut v = Vec::with_capacity(33);
    v.extend(parboil::benchmarks());
    v.extend(rodinia::benchmarks());
    v.extend(tango::benchmarks());
    v
}

/// Look up one benchmark by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::{Device, Gpu};
    use cactus_profiler::Profile;

    #[test]
    fn table_iii_benchmark_counts() {
        // Table III lists 11 + 18 + 3 = 32 benchmarks; the paper's prose
        // rounds the Figure 2 population to "31 workloads".
        let benches = all();
        assert_eq!(benches.len(), 32);
        assert_eq!(
            benches.iter().filter(|b| b.suite == Suite::Parboil).count(),
            11
        );
        assert_eq!(
            benches.iter().filter(|b| b.suite == Suite::Rodinia).count(),
            18
        );
        assert_eq!(
            benches.iter().filter(|b| b.suite == Suite::Tango).count(),
            3
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = all().iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 32);
    }

    #[test]
    fn every_benchmark_runs_and_launches_kernels() {
        for b in all() {
            let mut gpu = Gpu::new(Device::rtx3080());
            b.run(&mut gpu, Scale::Tiny);
            assert!(!gpu.records().is_empty(), "{} launched no kernels", b.name);
            let p = Profile::from_records(gpu.records());
            assert!(p.total_time_s() > 0.0, "{}", b.name);
        }
    }

    /// The headline Figure 2 property: the suites concentrate GPU time in
    /// very few kernels — ~70 % of the workloads reach 70 % of their time
    /// with a single kernel, and none needs more than three.
    #[test]
    fn kernel_time_is_concentrated() {
        let mut one = 0;
        let mut two = 0;
        let mut three = 0;
        for b in all() {
            let mut gpu = Gpu::new(Device::rtx3080());
            b.run(&mut gpu, Scale::Profile);
            let p = Profile::from_records(gpu.records());
            match p.kernels_for_fraction(0.7) {
                1 => one += 1,
                2 => two += 1,
                3 => three += 1,
                n => panic!("{}: {n} kernels for 70% — too dispersed", b.name),
            }
        }
        assert!(one >= 20, "only {one} single-kernel-dominated workloads");
        assert!(two >= 5, "two-kernel: {two}");
        assert!(three <= 3, "three-kernel: {three}");
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("sgemm").is_some());
        assert!(by_name("lud").is_some());
        assert!(by_name("nonexistent").is_none());
    }
}
