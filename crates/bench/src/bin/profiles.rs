//! Populate the shared profile store: resolve the Cactus suite and the
//! Parboil/Rodinia/Tango comparison set through the store under
//! `results/profiles/` (or `CACTUS_PROFILE_STORE`), simulating only the
//! members it does not hold, so every fig/table binary that follows (and a
//! `cactus-serve` started on the same directory) loads instead of
//! re-simulating. The closing `manifest digest` line covers every live
//! record's key, version and bytes — equal digests mean identical store
//! contents.

use cactus_bench::{cactus_profiles, header, prt_profiles, ProfiledWorkload};

fn main() {
    header("Profile store");
    let dir = cactus_store::default_dir();
    println!("store: {}", dir.display());

    let report = |set: &str, profiles: &[ProfiledWorkload]| {
        let kernels: usize = profiles.iter().map(|p| p.profile.kernel_count()).sum();
        let time_s: f64 = profiles.iter().map(|p| p.profile.total_time_s()).sum();
        println!(
            "{set:<8} {:>3} workloads, {kernels:>4} distinct kernels, {time_s:>9.3} s simulated GPU time",
            profiles.len()
        );
    };

    report("cactus", &cactus_profiles());
    report("prt", &prt_profiles());
    match cactus_store::Store::open(dir) {
        Ok(store) => println!(
            "manifest digest {:016x}",
            cactus_store::manifest_digest(&store.entries())
        ),
        Err(e) => println!("manifest digest unavailable: {e}"),
    }
}
