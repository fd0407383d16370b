//! A small dense-matrix kit with a cyclic-Jacobi symmetric eigensolver.
//!
//! The analysis pipeline only ever decomposes feature-covariance matrices
//! (tens of rows), so a dependency-free O(n³) Jacobi solver is the right
//! tool: simple, numerically robust for symmetric matrices, and exact
//! enough for factor extraction.

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    #[must_use]
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// One row as a slice.
    #[must_use]
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One column, copied.
    #[must_use]
    pub(crate) fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out[(r, c)] += a * other[(k, c)];
                }
            }
        }
        out
    }

    /// Covariance matrix of the columns (observations are rows), using the
    /// population normalization `1/n`.
    #[must_use]
    pub(crate) fn covariance(&self) -> Matrix {
        let n = self.rows.max(1) as f64;
        let means: Vec<f64> = (0..self.cols)
            .map(|c| self.col(c).iter().sum::<f64>() / n)
            .collect();
        let mut cov = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut s = 0.0;
                for r in 0..self.rows {
                    s += (self[(r, i)] - means[i]) * (self[(r, j)] - means[j]);
                }
                let v = s / n;
                cov[(i, j)] = v;
                cov[(j, i)] = v;
            }
        }
        cov
    }

    /// Maximum absolute off-diagonal element (square matrices).
    fn max_offdiag(&self) -> f64 {
        let mut m = 0.0f64;
        for r in 0..self.rows {
            for c in 0..self.cols {
                if r != c {
                    m = m.max(self[(r, c)].abs());
                }
            }
        }
        m
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Eigendecomposition of a symmetric matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Eigen {
    /// Eigenvalues, sorted descending.
    pub values: Vec<f64>,
    /// Eigenvectors as matrix columns, in the order of `values`.
    pub vectors: Matrix,
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// # Panics
///
/// Panics if the matrix is not square.
#[must_use]
pub fn eigen_symmetric(a: &Matrix) -> Eigen {
    assert_eq!(a.rows, a.cols, "matrix must be square");
    let n = a.rows;
    let mut m = a.clone();
    let mut v = Matrix::identity(n);

    const MAX_SWEEPS: usize = 100;
    const TOL: f64 = 1e-12;
    for _ in 0..MAX_SWEEPS {
        if m.max_offdiag() < TOL {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < TOL {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // Apply the rotation to rows/cols p, q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Sort by eigenvalue descending.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        m[(j, j)]
            .partial_cmp(&m[(i, i)])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_c, &old_c) in order.iter().enumerate() {
        for r in 0..n {
            vectors[(r, new_c)] = v[(r, old_c)];
        }
    }
    Eigen { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn index_and_row_col() {
        let m = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn transpose_and_matmul() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let at = a.transpose();
        assert_eq!(at.rows(), 3);
        assert_eq!(at[(2, 1)], 6.0);
        let p = a.matmul(&at); // 2x2
        assert!(approx(p[(0, 0)], 14.0));
        assert!(approx(p[(0, 1)], 32.0));
        assert!(approx(p[(1, 1)], 77.0));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn eigen_diagonal_matrix() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = 5.0;
        a[(2, 2)] = 3.0;
        let e = eigen_symmetric(&a);
        assert!(approx(e.values[0], 5.0));
        assert!(approx(e.values[1], 3.0));
        assert!(approx(e.values[2], 1.0));
    }

    #[test]
    fn eigen_2x2_known() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = eigen_symmetric(&a);
        assert!(approx(e.values[0], 3.0));
        assert!(approx(e.values[1], 1.0));
        // Eigenvector for 3 is (1,1)/√2 up to sign.
        let v0 = e.vectors.col(0);
        assert!(approx(v0[0].abs(), 1.0 / 2.0f64.sqrt()));
        assert!(approx(v0[1].abs(), 1.0 / 2.0f64.sqrt()));
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        let a = Matrix::from_rows(
            4,
            4,
            vec![
                4.0, 1.0, 0.5, 0.0, //
                1.0, 3.0, 0.2, 0.1, //
                0.5, 0.2, 2.0, 0.3, //
                0.0, 0.1, 0.3, 1.0,
            ],
        );
        let e = eigen_symmetric(&a);
        // A ≈ V Λ Vᵀ
        let n = 4;
        let mut lambda = Matrix::zeros(n, n);
        for i in 0..n {
            lambda[(i, i)] = e.values[i];
        }
        let recon = e.vectors.matmul(&lambda).matmul(&e.vectors.transpose());
        for r in 0..n {
            for c in 0..n {
                assert!(
                    (recon[(r, c)] - a[(r, c)]).abs() < 1e-8,
                    "({r},{c}): {} vs {}",
                    recon[(r, c)],
                    a[(r, c)]
                );
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(3, 3, vec![2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0]);
        let e = eigen_symmetric(&a);
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!((vtv[(r, c)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn covariance_of_correlated_columns() {
        // Column 1 = 2 × column 0 → cov matrix rank 1.
        let m = Matrix::from_rows(4, 2, vec![1.0, 2.0, 2.0, 4.0, 3.0, 6.0, 4.0, 8.0]);
        let cov = m.covariance();
        assert!(approx(cov[(0, 0)], 1.25));
        assert!(approx(cov[(0, 1)], 2.5));
        assert!(approx(cov[(1, 1)], 5.0));
        let e = eigen_symmetric(&cov);
        assert!(e.values[1].abs() < 1e-9, "rank-1 covariance");
    }
}
