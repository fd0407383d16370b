//! Figure 6: rooflines for the Cactus molecular-simulation and
//! graph-analytics workloads — (a) all MD kernels, (b) all graph kernels,
//! (c) the dominant kernels of both groups. These applications mix memory-
//! and compute-intensive kernels, unlike the traditional suites.

use cactus_analysis::roofline::Intensity;
use cactus_bench::{
    cactus_profiles, header, kernel_points, roofline, roofline_header, roofline_row,
};

fn main() {
    let r = roofline();
    let profiles = cactus_profiles();
    let md: Vec<_> = profiles
        .iter()
        .filter(|p| ["GMS", "LMR", "LMC"].contains(&p.name.as_str()))
        .collect();
    let graph: Vec<_> = profiles
        .iter()
        .filter(|p| ["GST", "GRU"].contains(&p.name.as_str()))
        .collect();

    for (title, group) in [
        ("(a) molecular simulation", &md),
        ("(b) graph analytics", &graph),
    ] {
        header(&format!("Figure 6{title}: all kernels"));
        println!("{}", roofline_header());
        let mut points = Vec::new();
        for p in group {
            let total = p.profile.total_time_s();
            for k in p.profile.kernels() {
                println!(
                    "{}",
                    roofline_row(
                        &r,
                        &format!("{}/{}", p.name, k.name),
                        &k.metrics,
                        k.time_share(total)
                    )
                );
            }
            points.extend(kernel_points(p));
        }
        println!("\n{}", r.render_chart(&points));
    }

    header("Figure 6(c): dominant kernels (>=70% of app time)");
    println!("{}", roofline_header());
    for p in md.iter().chain(graph.iter()) {
        let total = p.profile.total_time_s();
        let mut classes = std::collections::BTreeSet::new();
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
            classes.insert(r.intensity_class(k.metrics.instruction_intensity));
        }
        println!(
            "  -> {} dominant kernels span {} roofline class(es)",
            p.dominant().len(),
            classes.len()
        );
    }

    header("Observation 6 check");
    let mut any_mixed = false;
    for p in &md {
        let classes: std::collections::BTreeSet<Intensity> = p
            .profile
            .kernels()
            .iter()
            .map(|k| r.intensity_class(k.metrics.instruction_intensity))
            .collect();
        if classes.len() > 1 {
            any_mixed = true;
        }
    }
    println!(
        "Cactus MD workloads mix memory- and compute-intensive kernels: {}",
        if any_mixed { "HOLDS" } else { "VIOLATED" }
    );
}
