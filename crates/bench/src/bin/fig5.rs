//! Figure 5: roofline model for the Cactus workloads — one aggregate point
//! per application across all of its kernels.

use cactus_analysis::roofline::RooflinePoint;
use cactus_bench::{cactus_profiles, header, roofline, roofline_header, roofline_row};

fn main() {
    header("Figure 5: Cactus per-application roofline (aggregate over all kernels)");
    let r = roofline();
    let profiles = cactus_profiles();

    println!("{}", roofline_header());
    let mut points = Vec::new();
    let mut memory_side = 0;
    for p in &profiles {
        let m = p.profile.aggregate_metrics();
        println!("{}", roofline_row(&r, &p.name, &m, 1.0));
        if r.intensity_class(m.instruction_intensity)
            == cactus_analysis::roofline::Intensity::MemoryIntensive
        {
            memory_side += 1;
        }
        points.push(RooflinePoint::from_metrics(p.name.clone(), &m, 1.0));
    }
    println!(
        "\nObservation 5 check: {memory_side}/{} applications are memory-intensive \
         (paper: most, with GMS the clear compute-side case).",
        profiles.len()
    );
    println!("\n{}", r.render_chart(&points));
}
