//! Basic descriptive statistics and the Pearson correlation coefficient.

/// Arithmetic mean; 0 for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance; 0 for slices with fewer than two elements.
#[must_use]
pub(crate) fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
#[must_use]
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Pearson Correlation Coefficient between two equal-length series.
///
/// Returns 0 when either series is constant (no linear relationship can be
/// measured) or the series are shorter than two points.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
#[must_use]
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "series must have equal length");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    (cov / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0)
}

/// The paper's Figure 8 banding of |PCC| values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum CorrelationBand {
    /// `0 ≤ |PCC| < 0.2` — no correlation (white in Figure 8).
    None,
    /// `0.2 ≤ |PCC| < 0.5` — weak correlation (gray).
    Weak,
    /// `0.5 ≤ |PCC| ≤ 1` — strong correlation (black).
    Strong,
}

impl CorrelationBand {
    /// Classify a correlation coefficient by its absolute value.
    #[must_use]
    pub(crate) fn of(pcc: f64) -> Self {
        let a = pcc.abs();
        if a >= 0.5 {
            CorrelationBand::Strong
        } else if a >= 0.2 {
            CorrelationBand::Weak
        } else {
            CorrelationBand::None
        }
    }

    /// Is this band at least weak (the paper counts "correlated (strongly
    /// or weakly)" metrics)?
    #[must_use]
    pub(crate) fn is_correlated(&self) -> bool {
        !matches!(self, CorrelationBand::None)
    }

    /// Single-character glyph used in text renderings of Figure 8:
    /// `#` strong, `+` weak, `.` none.
    #[must_use]
    pub(crate) fn glyph(&self) -> char {
        match self {
            CorrelationBand::Strong => '#',
            CorrelationBand::Weak => '+',
            CorrelationBand::None => '.',
        }
    }
}

/// Standardize a series to zero mean and unit (population) standard
/// deviation; constant series map to all-zeros.
#[must_use]
pub fn zscore(xs: &[f64]) -> Vec<f64> {
    let m = mean(xs);
    let s = std_dev(xs);
    if s <= 0.0 {
        return vec![0.0; xs.len()];
    }
    xs.iter().map(|x| (x - m) / s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn perfect_correlations() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -3.0 * x).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_has_zero_correlation() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [1.0, 2.0, 3.0];
        assert_eq!(pearson(&xs, &ys), 0.0);
    }

    #[test]
    fn uncorrelated_orthogonal_series() {
        let xs = [1.0, -1.0, 1.0, -1.0];
        let ys = [1.0, 1.0, -1.0, -1.0];
        assert!(pearson(&xs, &ys).abs() < 1e-12);
    }

    #[test]
    fn banding_thresholds() {
        assert_eq!(CorrelationBand::of(0.0), CorrelationBand::None);
        assert_eq!(CorrelationBand::of(0.19), CorrelationBand::None);
        assert_eq!(CorrelationBand::of(0.2), CorrelationBand::Weak);
        assert_eq!(CorrelationBand::of(-0.3), CorrelationBand::Weak);
        assert_eq!(CorrelationBand::of(0.5), CorrelationBand::Strong);
        assert_eq!(CorrelationBand::of(-1.0), CorrelationBand::Strong);
        assert!(CorrelationBand::Weak.is_correlated());
        assert!(!CorrelationBand::None.is_correlated());
    }

    #[test]
    fn zscore_standardizes() {
        let z = zscore(&[2.0, 4.0, 6.0, 8.0]);
        assert!(mean(&z).abs() < 1e-12);
        assert!((std_dev(&z) - 1.0).abs() < 1e-12);
        assert_eq!(zscore(&[3.0, 3.0]), vec![0.0, 0.0]);
    }
}
