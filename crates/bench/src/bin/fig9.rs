//! Figure 9: FAMD + Ward hierarchical clustering of the dominant kernels
//! from Cactus vs. Parboil/Rodinia/Tango — (dis)similarity in the workload
//! space. Cactus kernels populate more clusters, including some almost
//! exclusively.

use std::collections::BTreeMap;

use cactus_analysis::famd::Famd;
use cactus_analysis::hclust;
use cactus_analysis::matrix::Matrix;
use cactus_bench::{cactus_profiles, dominant_kernel_metrics, header, prt_profiles, roofline};
use cactus_gpu::metrics::MetricId;

fn main() {
    let r = roofline();
    let cactus = cactus_profiles();
    let prt = prt_profiles();

    // Collect the dominant kernels of every workload from both pools.
    let mut labels: Vec<String> = Vec::new(); // "workload/kernel"
    let mut origins: Vec<&'static str> = Vec::new(); // "Cactus" | "PRT"
    let mut workloads: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut qual_intensity: Vec<String> = Vec::new();
    let mut qual_bound: Vec<String> = Vec::new();

    for (set, origin) in [(&cactus, "Cactus"), (&prt, "PRT")] {
        for (w, k, m, _share) in dominant_kernel_metrics(set) {
            labels.push(format!("{w}/{k}"));
            workloads.push(w);
            origins.push(origin);
            rows.push(MetricId::TABLE_IV.iter().map(|&id| m.get(id)).collect());
            qual_intensity.push(
                r.intensity_class(m.instruction_intensity)
                    .label()
                    .to_owned(),
            );
            qual_bound.push(r.boundedness_class(m.gips).label().to_owned());
        }
    }

    let n = rows.len();
    let p = MetricId::TABLE_IV.len();
    let data = Matrix::from_rows(n, p, rows.into_iter().flatten().collect());

    // FAMD: quantitative Table IV metrics + the two roofline labels.
    let famd = Famd::fit(&data, &[qual_intensity.clone(), qual_bound.clone()]);
    let dims = famd.dims_for_ratio(0.85).max(2);
    let coords = famd.coordinates(dims);
    header(&format!(
        "Figure 9: FAMD ({} encoded cols -> {dims} dims @ 85% variance) + Ward clustering of {n} dominant kernels",
        famd.encoded_cols()
    ));

    // Ward clustering, cut into the paper's six primary clusters.
    let dend = hclust::cluster(&coords);
    let assignment = dend.cut(6);

    // Cluster composition.
    let mut by_cluster: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for (i, &c) in assignment.iter().enumerate() {
        let e = by_cluster.entry(c).or_insert((0, 0));
        if origins[i] == "Cactus" {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }
    println!(
        "\n{:<9} {:>8} {:>6} {:>17}",
        "Cluster", "Cactus", "PRT", "Cactus share"
    );
    let mut cactus_dominated = 0;
    for (c, (ca, pr)) in &by_cluster {
        let share = *ca as f64 / (ca + pr) as f64;
        if share >= 0.6 {
            cactus_dominated += 1;
        }
        println!(
            "#{:<8} {ca:>8} {pr:>6} {share:>16.0}%",
            c + 1,
            share = share * 100.0
        );
    }
    println!(
        "\nObservation 12 check: {cactus_dominated}/6 clusters are Cactus-dominated \
         (paper: clusters #2 and #4 primarily Cactus)."
    );

    // Per-workload cluster spread (Observation 11).
    header("Dominant-kernel cluster spread per workload");
    let mut spread: BTreeMap<&str, std::collections::BTreeSet<usize>> = BTreeMap::new();
    for (i, w) in workloads.iter().enumerate() {
        spread.entry(w.as_str()).or_default().insert(assignment[i]);
    }
    let mut cactus_multi = 0usize;
    let mut cactus_apps = 0usize;
    let mut prt_multi = 0usize;
    let mut prt_apps = 0usize;
    for (w, clusters) in &spread {
        let is_cactus = cactus.iter().any(|p| p.name == *w);
        if is_cactus {
            cactus_apps += 1;
            if clusters.len() > 1 {
                cactus_multi += 1;
            }
            println!(
                "{:<16} {} cluster(s) {:?} [Cactus]",
                w,
                clusters.len(),
                clusters
            );
        } else {
            prt_apps += 1;
            if clusters.len() > 2 {
                prt_multi += 1;
            }
        }
    }
    println!(
        "\nObservation 10/11 check: {cactus_multi}/{cactus_apps} Cactus workloads spread \
         dominant kernels across multiple clusters;\n{prt_multi}/{prt_apps} PRT workloads \
         need more than two clusters (paper: none do)."
    );

    // The dendrogram itself (trimmed to the merge skeleton for readability).
    header("Dendrogram (text rendering)");
    let rendered = dend.render(&labels);
    for line in rendered.lines().take(120) {
        println!("{line}");
    }
    if rendered.lines().count() > 120 {
        println!("… ({} more lines)", rendered.lines().count() - 120);
    }
}
