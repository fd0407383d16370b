//! Developer tool: print the per-kernel breakdown of one or more Cactus
//! workloads (by abbreviation) or Parboil/Rodinia/Tango benchmarks (by
//! name; a `prt:` prefix is accepted and ignored) at profile scale on the
//! RTX 3080, resolved through the profile store. Used to verify and tune
//! the GPU-time distributions.

use cactus_bench::resolve;
use cactus_profiler::report;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let targets = if args.is_empty() {
        vec!["LMR".to_owned()]
    } else {
        args
    };
    let triples: Vec<(&str, &str, &str)> = targets
        .iter()
        .map(|t| ("rtx-3080", "profile", t.strip_prefix("prt:").unwrap_or(t)))
        .collect();
    for (t, profile) in targets.iter().zip(resolve(&triples)) {
        println!("\n=== {t} ===");
        print!("{}", report::render_kernel_table(&profile));
        println!(
            "kernels: {}  70% set: {}  total {:.4} ms",
            profile.kernel_count(),
            profile.kernels_for_fraction(0.7),
            profile.total_time_s() * 1e3
        );
    }
}
