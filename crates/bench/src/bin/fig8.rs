//! Figure 8: |Pearson correlation| of the four primary metrics against the
//! Table IV metrics, Cactus vs. Parboil/Rodinia/Tango. Cactus's execution
//! behaviour is more complex: its primary metrics correlate with more
//! underlying metrics.

use cactus_analysis::correlation::CorrelationMatrix;
use cactus_bench::{all_kernel_metrics, cactus_profiles, header, prt_profiles};
use cactus_gpu::metrics::KernelMetrics;

fn main() {
    let cactus: Vec<KernelMetrics> = all_kernel_metrics(&cactus_profiles())
        .into_iter()
        .map(|(_, m)| m)
        .collect();
    let prt: Vec<KernelMetrics> = all_kernel_metrics(&prt_profiles())
        .into_iter()
        .map(|(_, m)| m)
        .collect();

    let mc = CorrelationMatrix::primary_vs_table_iv(&cactus);
    let mp = CorrelationMatrix::primary_vs_table_iv(&prt);

    header(&format!("Figure 8(a): Cactus ({} kernels)", cactus.len()));
    print!("{}", mc.render());

    header(&format!(
        "Figure 8(b): Parboil/Rodinia/Tango ({} kernels)",
        prt.len()
    ));
    print!("{}", mp.render());

    header("Observation 9 check: correlated-metric counts per primary metric");
    println!("{:<24} {:>8} {:>8}", "Primary metric", "Cactus", "PRT");
    for (i, id) in mc.rows().iter().enumerate() {
        println!(
            "{:<24} {:>8} {:>8}",
            id.name(),
            mc.correlated_count(i),
            mp.correlated_count(i)
        );
    }
    println!(
        "Totals: Cactus {} vs PRT {} — execution behaviour is more complex in Cactus: {}",
        mc.total_correlated(),
        mp.total_correlated(),
        if mc.total_correlated() > mp.total_correlated() {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
}
