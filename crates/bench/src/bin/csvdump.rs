//! Dump the per-kernel data files behind the figures (the counterpart of
//! the paper artifact's `data/` directory) as CSV under `results/csv/`.

use cactus_bench::{cactus_profiles, header, prt_profiles};
use cactus_profiler::csv;

fn main() {
    let dir = std::path::Path::new("results/csv");
    std::fs::create_dir_all(dir).expect("create results/csv");

    header("Dumping per-kernel CSV data files");
    let cactus = cactus_profiles();
    let prt = prt_profiles();

    let mut cactus_doc = format!("{}\n", csv::kernel_header());
    for p in &cactus {
        csv::push_kernel_rows(&mut cactus_doc, &p.name, &p.profile);
    }
    std::fs::write(dir.join("cactus_kernels.csv"), &cactus_doc).expect("write");
    println!("cactus_kernels.csv: {} lines", cactus_doc.lines().count());

    let mut prt_doc = format!("{}\n", csv::kernel_header());
    for p in &prt {
        csv::push_kernel_rows(&mut prt_doc, &p.name, &p.profile);
    }
    std::fs::write(dir.join("prt_kernels.csv"), &prt_doc).expect("write");
    println!("prt_kernels.csv: {} lines", prt_doc.lines().count());
}
