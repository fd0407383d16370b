//! Table I: the Cactus benchmark suite — benchmarks, inputs, and basic
//! execution characteristics.

use cactus_bench::{cactus_profiles, header};
use cactus_core::suite;
use cactus_profiler::report::{render_summary_table, SummaryRow};

fn main() {
    header("Table I: Cactus suite execution characteristics (profile scale)");
    println!(
        "(Inputs are scaled for CPU-hosted execution; see DESIGN.md §7 for the\n\
         paper-input → reproduction-input mapping. Shapes — kernel counts and\n\
         their 70% sets — are the reproduced quantities.)\n"
    );
    let rows: Vec<SummaryRow> = cactus_profiles()
        .iter()
        .map(|p| SummaryRow::from_profile(&p.name, &p.profile))
        .collect();
    print!("{}", render_summary_table(&rows));

    header("Workload descriptions");
    for w in suite() {
        println!(
            "{:<4} {:<17} {:<38} {}",
            w.abbr,
            w.domain.name(),
            w.name,
            w.dataset
        );
    }
}
