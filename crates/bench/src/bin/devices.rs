//! Cross-device study (the paper's future work: "evaluating Cactus across
//! a broader range of GPU platforms"): resolve the Cactus suite at `small`
//! scale on four catalog devices spanning Pascal → Ampere-HPC and compare
//! aggregate roofline positions and speedups.

use cactus_analysis::roofline::Roofline;
use cactus_bench::{header, resolve};
use cactus_core::suite;
use cactus_gpu::{by_id, Device};
use cactus_profiler::Profile;

/// Catalog ids of the compared devices; the last is the speedup numerator.
const DEVICES: [&str; 4] = ["gtx-1080", "rtx-2080-ti", "rtx-3080", "a100"];

fn main() {
    let devices: Vec<Device> = DEVICES
        .iter()
        .map(|id| by_id(id).expect("catalog device").device())
        .collect();
    let workloads = suite();
    let triples: Vec<(&str, &str, &str)> = workloads
        .iter()
        .flat_map(|w| DEVICES.iter().map(move |&d| (d, "small", w.abbr)))
        .collect();
    // One row of per-device profiles per workload, in Table I order.
    let profiles = resolve(&triples);
    let rows: Vec<&[Profile]> = profiles.chunks(DEVICES.len()).collect();

    header("Cross-device study: Cactus aggregate GPU time (ms) per device");
    print!("{:<6}", "Bench");
    for d in &devices {
        print!("{:>13}", d.name);
    }
    println!("{:>12}", "A100/1080");

    let mut per_device_time = vec![0.0f64; devices.len()];
    for (w, row) in workloads.iter().zip(&rows) {
        print!("{:<6}", w.abbr);
        for (total, p) in per_device_time.iter_mut().zip(row.iter()) {
            *total += p.total_time_s();
            print!("{:>13.4}", p.total_time_s() * 1e3);
        }
        println!(
            "{:>11.2}x",
            row[0].total_time_s() / row[3].total_time_s().max(1e-12)
        );
    }
    print!("{:<6}", "TOTAL");
    for t in &per_device_time {
        print!("{:>13.4}", t * 1e3);
    }
    println!(
        "{:>11.2}x",
        per_device_time[0] / per_device_time[3].max(1e-12)
    );

    header("Roofline geometry per device");
    println!(
        "{:<13} {:>10} {:>11} {:>9}",
        "Device", "peak GIPS", "GTXN/s", "elbow"
    );
    for d in &devices {
        println!(
            "{:<13} {:>10.1} {:>11.2} {:>9.2}",
            d.name,
            d.peak_gips(),
            d.peak_gtxn_per_s(),
            d.elbow_intensity()
        );
    }

    header("Class stability: does the memory/compute verdict survive a device change?");
    let rooflines: Vec<Roofline> = devices.iter().map(Roofline::for_device).collect();
    let mut flips = 0;
    for (w, row) in workloads.iter().zip(&rows) {
        let classes: Vec<&str> = row
            .iter()
            .zip(&rooflines)
            .map(|(p, r)| {
                r.intensity_class(p.aggregate_metrics().instruction_intensity)
                    .label()
            })
            .collect();
        let stable = classes.windows(2).all(|w| w[0] == w[1]);
        if !stable {
            flips += 1;
        }
        println!(
            "{:<6} {:?}{}",
            w.abbr,
            classes,
            if stable {
                ""
            } else {
                "  <- class flips across devices"
            }
        );
    }
    println!(
        "\n{flips}/10 workloads change aggregate class across devices — the elbow\n\
         moves with the compute/bandwidth ratio, so borderline workloads (the\n\
         LAMMPS pair) flip while the clearly memory- or compute-bound ones hold."
    );
}
