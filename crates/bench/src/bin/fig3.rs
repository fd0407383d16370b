//! Figure 3: cumulative distribution of GPU time spent in the most
//! dominant kernels of the Cactus workloads.

use cactus_bench::{cactus_profiles, header};

fn main() {
    header("Figure 3: Cactus cumulative kernel-time distribution");
    println!("Entry k = fraction of GPU time covered by the k most dominant kernels.\n");
    let profiles = cactus_profiles();

    print!("{:<5}", "k");
    for p in &profiles {
        print!("{:>7}", p.name);
    }
    println!();
    for k in 0..14 {
        print!("{:<5}", k + 1);
        for p in &profiles {
            let cdf = p.profile.cumulative_distribution();
            let v = cdf.get(k).copied().unwrap_or(1.0);
            print!("{:>7.3}", v);
        }
        println!();
    }

    header("Kernel counts (Table I cross-check)");
    println!(
        "{:<6} {:>12} {:>12} {:>12}",
        "Bench", "Kernels100%", "Kernels70%", "Kernels90%"
    );
    for p in &profiles {
        println!(
            "{:<6} {:>12} {:>12} {:>12}",
            p.name,
            p.profile.kernel_count(),
            p.profile.kernels_for_fraction(0.7),
            p.profile.kernels_for_fraction(0.9),
        );
    }
}
