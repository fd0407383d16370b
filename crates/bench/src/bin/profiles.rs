//! Populate the shared profile store: simulate the Cactus suite and the
//! Parboil/Rodinia/Tango comparison set once (in parallel) and append the
//! profiles to the `cactus-store` under `results/profiles/`, so every
//! fig/table binary that follows (and a `cactus-serve` started on the same
//! directory) loads instead of re-simulating. Pass `--no-cache` (or set
//! `CACTUS_NO_CACHE=1`) to force fresh simulation even when the store is
//! warm. The closing `manifest digest` line covers every live record's
//! key, version and bytes — equal digests mean identical store contents.

use cactus_bench::store::{self, cactus_profiles_cached, prt_profiles_cached};
use cactus_bench::{header, ProfiledWorkload};
use cactus_profiler::report;

fn main() {
    header("Profile store");
    let dir = cactus_store::default_dir();
    println!(
        "store: {}\nno-cache: {}",
        dir.display(),
        store::no_cache_requested()
    );

    let report = |set: &str, profiles: &[ProfiledWorkload]| {
        let kernels: usize = profiles.iter().map(|p| p.profile.kernel_count()).sum();
        let time_s: f64 = profiles.iter().map(|p| p.profile.total_time_s()).sum();
        println!(
            "{set:<8} {:>3} workloads, {kernels:>4} distinct kernels, {time_s:>9.3} s simulated GPU time",
            profiles.len()
        );
    };

    let start = std::time::Instant::now();
    let cactus = cactus_profiles_cached();
    let prt = prt_profiles_cached();
    report("cactus", &cactus);
    report("prt", &prt);
    println!("ready in {:.2} s", start.elapsed().as_secs_f64());
    match cactus_store::Store::open(dir) {
        Ok(store) => println!("manifest digest {:016x}", store.manifest_digest()),
        Err(e) => println!("manifest digest unavailable: {e}"),
    }

    // Launch-memoization effectiveness for whatever was freshly simulated
    // this run (store-loaded sets report `store`).
    let memo_rows: Vec<(String, Option<cactus_gpu::engine::MemoStats>)> = cactus
        .iter()
        .chain(prt.iter())
        .map(|p| (p.name.clone(), p.memo))
        .collect();
    println!("\n{}", report::render_memo_table(&memo_rows));
}
