//! Table I-style summary rows and human-readable profile reports.

use crate::Profile;

/// One Table I row: a benchmark's basic execution characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryRow {
    /// Benchmark abbreviation (e.g. `"GMS"`).
    pub abbr: String,
    /// Total warp instructions.
    pub total_warp_instructions: u64,
    /// Weighted average warp instructions per kernel.
    pub weighted_avg_warp_instructions: f64,
    /// Number of kernels accounting for 100 % of GPU time.
    pub kernels_100: usize,
    /// Number of kernels accounting for ≥70 % of GPU time.
    pub kernels_70: usize,
    /// Total GPU time in seconds.
    pub total_time_s: f64,
}

impl SummaryRow {
    /// Build the row for one benchmark's profile.
    #[must_use]
    pub fn from_profile(abbr: impl Into<String>, profile: &Profile) -> Self {
        Self {
            abbr: abbr.into(),
            total_warp_instructions: profile.total_warp_instructions(),
            weighted_avg_warp_instructions: profile.weighted_avg_warp_instructions(),
            kernels_100: profile.kernel_count(),
            kernels_70: profile.kernels_for_fraction(0.7),
            total_time_s: profile.total_time_s(),
        }
    }
}

/// Format an instruction count the way Table I does (e.g. `306 B`, `43 M`,
/// `40 K`).
#[must_use]
pub fn human_count(n: f64) -> String {
    let a = n.abs();
    if a >= 1e9 {
        format!("{:.1} B", n / 1e9)
    } else if a >= 1e6 {
        format!("{:.1} M", n / 1e6)
    } else if a >= 1e3 {
        format!("{:.1} K", n / 1e3)
    } else {
        format!("{n:.0}")
    }
}

/// Render a set of summary rows as a fixed-width text table.
#[must_use]
pub fn render_summary_table(rows: &[SummaryRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6} {:>16} {:>22} {:>12} {:>12} {:>12}\n",
        "Bench", "Warp insts", "W.avg insts/kernel", "Kernels100%", "Kernels70%", "GPU time (s)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<6} {:>16} {:>22} {:>12} {:>12} {:>12.4}\n",
            r.abbr,
            human_count(r.total_warp_instructions as f64),
            human_count(r.weighted_avg_warp_instructions),
            r.kernels_100,
            r.kernels_70,
            r.total_time_s,
        ));
    }
    out
}

/// Render a per-kernel breakdown of a profile (name, invocations, time
/// share, GIPS, instruction intensity), in dominance order.
#[must_use]
pub fn render_kernel_table(profile: &Profile) -> String {
    let total = profile.total_time_s();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:>8} {:>9} {:>9} {:>9}\n",
        "Kernel", "Invoc.", "Time %", "GIPS", "II"
    ));
    for k in profile.kernels() {
        out.push_str(&format!(
            "{:<44} {:>8} {:>8.2}% {:>9.2} {:>9.2}\n",
            truncate(&k.name, 44),
            k.invocations,
            100.0 * k.time_share(total),
            k.metrics.gips,
            k.metrics.instruction_intensity,
        ));
    }
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_owned()
    } else {
        format!("{}…", &s[..n.saturating_sub(1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::prelude::*;

    fn profile() -> Profile {
        let mut gpu = Gpu::new(Device::rtx3080());
        for (name, n) in [("alpha", 1u64 << 24), ("beta", 1 << 20)] {
            let k = KernelDesc::builder(name)
                .launch(LaunchConfig::linear(n, 256))
                .stream(AccessStream::read(n, 4, AccessPattern::Streaming))
                .build();
            gpu.launch(&k);
        }
        Profile::from_records(gpu.records())
    }

    #[test]
    fn summary_row_reflects_profile() {
        let p = profile();
        let row = SummaryRow::from_profile("TST", &p);
        assert_eq!(row.abbr, "TST");
        assert_eq!(row.kernels_100, 2);
        assert!(row.kernels_70 <= 2);
        assert_eq!(row.total_warp_instructions, p.total_warp_instructions());
    }

    #[test]
    fn human_count_formats() {
        assert_eq!(human_count(306e9), "306.0 B");
        assert_eq!(human_count(43e6), "43.0 M");
        assert_eq!(human_count(40e3), "40.0 K");
        assert_eq!(human_count(17.0), "17");
    }

    #[test]
    fn tables_render_every_row() {
        let p = profile();
        let row = SummaryRow::from_profile("TST", &p);
        let t = render_summary_table(&[row]);
        assert!(t.contains("TST"));
        let kt = render_kernel_table(&p);
        assert!(kt.contains("alpha"));
        assert!(kt.contains("beta"));
    }

    #[test]
    fn truncate_handles_long_names() {
        let long = "k".repeat(100);
        let t = truncate(&long, 10);
        assert!(t.chars().count() <= 10);
    }
}
