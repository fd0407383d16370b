//! The Figure 8 correlation analysis: |PCC| of the four primary metrics
//! against the Table IV metrics across a population of kernels.

use cactus_gpu::metrics::{KernelMetrics, MetricId};

use crate::stats::{self, CorrelationBand};

/// A rows × columns matrix of Pearson correlation coefficients between
/// metric pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationMatrix {
    rows: Vec<MetricId>,
    cols: Vec<MetricId>,
    values: Vec<Vec<f64>>,
}

impl CorrelationMatrix {
    /// Compute the correlation of each `rows` metric against each `cols`
    /// metric over the kernel population.
    #[must_use]
    pub(crate) fn compute(kernels: &[KernelMetrics], rows: &[MetricId], cols: &[MetricId]) -> Self {
        let series = |id: MetricId| -> Vec<f64> { kernels.iter().map(|k| k.get(id)).collect() };
        let values = rows
            .iter()
            .map(|&r| {
                let rs = series(r);
                cols.iter()
                    .map(|&c| stats::pearson(&rs, &series(c)))
                    .collect()
            })
            .collect();
        Self {
            rows: rows.to_vec(),
            cols: cols.to_vec(),
            values,
        }
    }

    /// The paper's Figure 8 configuration: primary metrics (GIPS,
    /// instruction intensity, SM efficiency, warp occupancy) vs. the Table
    /// IV metrics.
    #[must_use]
    pub fn primary_vs_table_iv(kernels: &[KernelMetrics]) -> Self {
        Self::compute(kernels, &MetricId::PRIMARY, &MetricId::TABLE_IV)
    }

    /// Row metric ids.
    #[must_use]
    pub fn rows(&self) -> &[MetricId] {
        &self.rows
    }

    /// Banding of the coefficient at (row, col).
    #[must_use]
    pub(crate) fn band(&self, row: usize, col: usize) -> CorrelationBand {
        CorrelationBand::of(self.values[row][col])
    }

    /// Number of columns a row metric is correlated with (weakly or
    /// strongly), excluding the trivial self-pair — this is the count the
    /// paper compares between Cactus and PRT ("GIPS is correlated with 7
    /// performance metrics for Cactus versus only 4 for PRT").
    #[must_use]
    pub fn correlated_count(&self, row: usize) -> usize {
        self.cols
            .iter()
            .enumerate()
            .filter(|&(c, &col_id)| col_id != self.rows[row] && self.band(row, c).is_correlated())
            .count()
    }

    /// Total correlated cells across all rows (self-pairs excluded).
    #[must_use]
    pub fn total_correlated(&self) -> usize {
        (0..self.rows.len()).map(|r| self.correlated_count(r)).sum()
    }

    /// Render the matrix in the Figure 8 style: one glyph per cell
    /// (`#` strong, `+` weak, `.` none), with |PCC| values.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<24}", ""));
        for c in &self.cols {
            out.push_str(&format!("{:>6}", abbreviate(c.name())));
        }
        out.push('\n');
        for (r, row_id) in self.rows.iter().enumerate() {
            out.push_str(&format!("{:<24}", row_id.name()));
            for c in 0..self.cols.len() {
                let v = self.values[r][c].abs();
                let glyph = if self.cols[c] == *row_id {
                    '='
                } else {
                    self.band(r, c).glyph()
                };
                out.push_str(&format!(" {glyph}{v:4.2}"));
            }
            out.push('\n');
        }
        out.push_str("'#' strong (|PCC|>=0.5), '+' weak (>=0.2), '.' none, '=' self\n");
        out
    }
}

fn abbreviate(name: &str) -> String {
    let letters: String = name
        .split_whitespace()
        .map(|w| w.chars().next().unwrap_or('?'))
        .collect();
    letters.chars().take(5).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic kernel population where GIPS is a linear function of
    /// occupancy and independent of branch fraction.
    fn population() -> Vec<KernelMetrics> {
        (0..20)
            .map(|i| {
                let x = f64::from(i);
                KernelMetrics {
                    gips: 2.0 * x + 1.0,
                    warp_occupancy: x,
                    sm_efficiency: 1.0 - x / 40.0,
                    instruction_intensity: 5.0,
                    fraction_branches: if i % 2 == 0 { 0.1 } else { 0.9 },
                    ..KernelMetrics::default()
                }
            })
            .collect()
    }

    #[test]
    fn detects_strong_and_absent_correlations() {
        let m = CorrelationMatrix::compute(
            &population(),
            &[MetricId::Gips],
            &[
                MetricId::WarpOccupancy,
                MetricId::SmEfficiency,
                MetricId::FractionBranches,
                MetricId::InstructionIntensity,
            ],
        );
        assert!((m.values[0][0] - 1.0).abs() < 1e-9, "gips vs occupancy");
        assert!(
            (m.values[0][1] + 1.0).abs() < 1e-9,
            "gips vs sm eff (negative)"
        );
        assert_eq!(m.band(0, 0), CorrelationBand::Strong);
        assert_eq!(m.band(0, 1), CorrelationBand::Strong);
        assert_eq!(m.band(0, 2), CorrelationBand::None);
        // Constant intensity → zero correlation.
        assert_eq!(m.band(0, 3), CorrelationBand::None);
        assert_eq!(m.correlated_count(0), 2);
    }

    #[test]
    fn self_pairs_are_excluded_from_counts() {
        let m = CorrelationMatrix::compute(
            &population(),
            &[MetricId::WarpOccupancy],
            &[MetricId::WarpOccupancy, MetricId::Gips],
        );
        // Occupancy vs itself is perfect but not counted.
        assert_eq!(m.correlated_count(0), 1);
    }

    #[test]
    fn figure8_shape() {
        let m = CorrelationMatrix::primary_vs_table_iv(&population());
        assert_eq!(m.rows().len(), 4);
        assert_eq!(m.cols.len(), 13);
        let txt = m.render();
        assert!(txt.contains("GIPS"));
        assert!(txt.contains('='));
    }

    #[test]
    fn total_correlated_sums_rows() {
        let m = CorrelationMatrix::primary_vs_table_iv(&population());
        let sum: usize = (0..4).map(|r| m.correlated_count(r)).sum();
        assert_eq!(m.total_correlated(), sum);
    }
}
