//! Figure 2: GPU-time distribution for the Parboil, Rodinia and Tango
//! benchmarks — existing suites spend the majority of their time in one or
//! just a few kernels.

use cactus_bench::{header, prt_profiles};

fn main() {
    header("Figure 2: PRT GPU-time distribution (top kernels per benchmark)");
    let profiles = prt_profiles();

    println!(
        "{:<16} {:<9} {:>7} {:>7} {:>7} {:>9}",
        "Benchmark", "Suite", "k1", "k1+k2", "k1..k3", "70% set"
    );
    let mut need = [0usize; 4]; // 1, 2, 3, >3 kernels for 70%
    for p in &profiles {
        let cdf = p.profile.cumulative_distribution();
        let at = |i: usize| cdf.get(i).copied().unwrap_or(1.0);
        let k70 = p.profile.kernels_for_fraction(0.7);
        need[k70.min(4) - 1] += 1;
        println!(
            "{:<16} {:<9} {:>6.1}% {:>6.1}% {:>6.1}% {:>9}",
            p.name,
            p.suite,
            100.0 * at(0),
            100.0 * at(1),
            100.0 * at(2),
            k70
        );
    }
    let total = profiles.len();
    println!(
        "\nPaper's claim: ~70% of workloads reach 70% of GPU time with ONE kernel\n\
         (23/31), ~25% with two (7/31), and only two need three.\n\
         Measured: {}/{total} with one, {}/{total} with two, {}/{total} with three, {}/{total} need more.",
        need[0], need[1], need[2], need[3]
    );
}
