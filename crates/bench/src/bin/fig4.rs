//! Figure 4: roofline model for (a) Parboil, (b) Rodinia and (c) Tango.
//! Most workloads are unambiguous — all kernels on one side of the elbow —
//! with `lud` and `alexnet` the mixed exceptions.

use cactus_bench::{header, kernel_points, prt_profiles, roofline, roofline_header, roofline_row};

fn main() {
    let r = roofline();
    let profiles = prt_profiles();

    let mut mixed = Vec::new();
    for suite in ["Parboil", "Rodinia", "Tango"] {
        header(&format!("Figure 4: {suite} per-kernel roofline"));
        println!("{}", roofline_header());
        let mut points = Vec::new();
        for p in profiles.iter().filter(|p| p.suite == suite) {
            let total = p.profile.total_time_s();
            let mut classes = std::collections::BTreeSet::new();
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
                classes.insert(r.intensity_class(k.metrics.instruction_intensity));
            }
            if classes.len() > 1 {
                mixed.push(p.name.clone());
            }
            points.extend(kernel_points(p));
        }
        println!("\n{}", r.render_chart(&points));
    }

    header("Observation 4 check");
    println!(
        "Workloads with kernels on BOTH sides of the elbow: {mixed:?}\n\
         (paper: only lud from Rodinia and alexnet from Tango are mixed)"
    );
    let mixed_of_interest: Vec<&String> = mixed
        .iter()
        .filter(|m| m.as_str() != "lud" && m.as_str() != "alexnet")
        .collect();
    println!(
        "Unexpected mixed workloads: {}",
        if mixed_of_interest.is_empty() {
            "none — HOLDS".to_owned()
        } else {
            format!("{mixed_of_interest:?}")
        }
    );
}
