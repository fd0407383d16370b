//! Figure 7: rooflines for the Cactus machine-learning workloads —
//! (a) all kernels by benchmark, (b) all kernels by time contribution,
//! (c) dominant kernels. The ML apps show wide kernel diversity, with many
//! dominant kernels bound by memory bandwidth (near the memory roof).

use cactus_bench::{
    cactus_profiles, header, kernel_points, roofline, roofline_header, roofline_row,
};

const ML: [&str; 5] = ["DCG", "NST", "RFL", "SPT", "LGT"];

fn main() {
    let r = roofline();
    let profiles = cactus_profiles();
    let ml: Vec<_> = profiles
        .iter()
        .filter(|p| ML.contains(&p.name.as_str()))
        .collect();

    header("Figure 7(a): all ML kernels by benchmark");
    let mut points = Vec::new();
    for p in &ml {
        let mem = p
            .profile
            .kernels()
            .iter()
            .filter(|k| {
                r.intensity_class(k.metrics.instruction_intensity)
                    == cactus_analysis::roofline::Intensity::MemoryIntensive
            })
            .count();
        println!(
            "{:<5} {} kernels ({} memory-side, {} compute-side)",
            p.name,
            p.profile.kernel_count(),
            mem,
            p.profile.kernel_count() - mem
        );
        points.extend(kernel_points(p));
    }
    println!("\n{}", r.render_chart(&points));

    header("Figure 7(b): kernels by contribution (share of app GPU time)");
    let mut small = 0usize;
    let mut total_kernels = 0usize;
    for p in &ml {
        let total = p.profile.total_time_s();
        for k in p.profile.kernels() {
            total_kernels += 1;
            if k.time_share(total) < 0.10 {
                small += 1;
            }
        }
    }
    println!(
        "{small}/{total_kernels} ML kernels each contribute <10% of their app's time\n\
         (paper: 'a large fraction of the kernels contribute by less than 10%')."
    );

    header("Figure 7(c): dominant ML kernels (>=70% of app time)");
    println!("{}", roofline_header());
    let mut near_roof = [0usize; 3]; // tolerance 0.35 / 0.5 / 0.7
    let mut dominant_total = 0usize;
    for p in &ml {
        let total = p.profile.total_time_s();
        for k in p.dominant() {
            println!(
                "{}",
                roofline_row(
                    &r,
                    &format!("{}/{}", p.name, k.name),
                    &k.metrics,
                    k.time_share(total)
                )
            );
            dominant_total += 1;
            let pt = cactus_analysis::roofline::RooflinePoint::from_metrics("", &k.metrics, 1.0);
            for (slot, tol) in near_roof.iter_mut().zip([0.35, 0.5, 0.7]) {
                if r.near_memory_roof(&pt, tol) {
                    *slot += 1;
                }
            }
        }
    }
    println!(
        "\nObservation 8 check: dominant ML kernels within 35%/50%/70% of the memory \
         roof: {}/{}/{} of {dominant_total}\n(the reproduction's smaller tensors sit \
         further below the roof than the paper's full-scale batches; the memory-side \
         classification itself is scale-robust).",
        near_roof[0], near_roof[1], near_roof[2]
    );
}
