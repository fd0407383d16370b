//! Principal Component Analysis on standardized observations.

use crate::matrix::{eigen_symmetric, Matrix};

/// Result of a PCA.
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    /// Explained variance per component, descending.
    pub explained_variance: Vec<f64>,
    /// Component loadings: columns are principal axes in feature space.
    pub components: Matrix,
    /// Observations projected onto the principal axes (scores),
    /// `n_observations × n_components`.
    pub scores: Matrix,
}

impl Pca {
    /// Fraction of total variance explained by the first `k` components.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn explained_ratio(&self, k: usize) -> f64 {
        let total: f64 = self.explained_variance.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.explained_variance.iter().take(k).sum::<f64>() / total
    }

    /// The number of components needed to explain at least `ratio` of the
    /// variance.
    #[must_use]
    pub fn components_for_ratio(&self, ratio: f64) -> usize {
        let total: f64 = self.explained_variance.iter().sum();
        if total <= 0.0 {
            return 0;
        }
        let mut acc = 0.0;
        for (i, v) in self.explained_variance.iter().enumerate() {
            acc += v / total;
            if acc >= ratio - 1e-12 {
                return i + 1;
            }
        }
        self.explained_variance.len()
    }

    /// Scores truncated to the first `k` components.
    #[must_use]
    pub fn truncated_scores(&self, k: usize) -> Matrix {
        let k = k.min(self.scores.cols());
        let mut out = Matrix::zeros(self.scores.rows(), k);
        for r in 0..self.scores.rows() {
            for c in 0..k {
                out[(r, c)] = self.scores[(r, c)];
            }
        }
        out
    }
}

/// Run PCA on an already centered/scaled data matrix.
#[must_use]
pub fn fit_centered(z: &Matrix) -> Pca {
    let cov = z.covariance();
    let eig = eigen_symmetric(&cov);
    let scores = z.matmul(&eig.vectors);
    Pca {
        explained_variance: eig.values.iter().map(|&v| v.max(0.0)).collect(),
        components: eig.vectors,
        scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    /// Run PCA on a data matrix (rows = observations, columns = features),
    /// standardizing each column to zero mean and unit variance first
    /// (correlation-matrix PCA). Constant columns contribute nothing.
    fn fit_standardized(data: &Matrix) -> Pca {
        let (n, p) = (data.rows(), data.cols());
        // Standardize columns.
        let mut z = Matrix::zeros(n, p);
        for c in 0..p {
            let col = data.col(c);
            let zc = stats::zscore(&col);
            for (r, v) in zc.into_iter().enumerate() {
                z[(r, c)] = v;
            }
        }
        fit_centered(&z)
    }

    /// Two perfectly correlated features → one component carries all
    /// variance.
    #[test]
    fn collinear_features_collapse_to_one_component() {
        let data = Matrix::from_rows(
            5,
            2,
            vec![1.0, 2.0, 2.0, 4.0, 3.0, 6.0, 4.0, 8.0, 5.0, 10.0],
        );
        let pca = fit_standardized(&data);
        assert!(pca.explained_ratio(1) > 0.999);
        assert_eq!(pca.components_for_ratio(0.95), 1);
    }

    #[test]
    fn independent_features_need_both_components() {
        let data = Matrix::from_rows(4, 2, vec![1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0, -1.0]);
        let pca = fit_standardized(&data);
        assert!((pca.explained_ratio(1) - 0.5).abs() < 1e-9);
        assert_eq!(pca.components_for_ratio(0.95), 2);
    }

    #[test]
    fn scores_have_matching_shape() {
        let data = Matrix::from_rows(6, 3, (0..18).map(f64::from).collect());
        let pca = fit_standardized(&data);
        assert_eq!(pca.scores.rows(), 6);
        assert_eq!(pca.scores.cols(), 3);
        let t = pca.truncated_scores(2);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(3, 1)], pca.scores[(3, 1)]);
    }

    #[test]
    fn constant_column_is_harmless() {
        let data = Matrix::from_rows(4, 2, vec![7.0, 1.0, 7.0, 2.0, 7.0, 3.0, 7.0, 4.0]);
        let pca = fit_standardized(&data);
        // All variance on one axis; the constant column adds none.
        assert!(pca.explained_ratio(1) > 0.999);
    }

    #[test]
    fn explained_variances_are_nonnegative_and_descending() {
        let data = Matrix::from_rows(
            5,
            3,
            vec![
                1.0, 5.0, 2.0, //
                2.0, 3.0, 8.0, //
                3.0, 8.0, 1.0, //
                4.0, 2.0, 9.0, //
                5.0, 7.0, 3.0,
            ],
        );
        let pca = fit_standardized(&data);
        for w in pca.explained_variance.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(pca.explained_variance.iter().all(|&v| v >= 0.0));
    }
}
