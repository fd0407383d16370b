//! Factor Analysis of Mixed Data (FAMD).
//!
//! FAMD generalizes PCA to tables mixing quantitative and qualitative
//! variables (the paper uses the FactoMineR implementation): quantitative
//! columns are standardized as in PCA; each qualitative variable is one-hot
//! encoded, each indicator column scaled by `1/√p` (where `p` is the
//! category's proportion) as in multiple correspondence analysis, and
//! centered. A plain PCA of the combined matrix then extracts the principal
//! dimensions. The first few dimensions act as a denoised feature space for
//! the hierarchical clustering of Figure 9.
//!
//! Fitting and transforming are split: [`Famd::fit`] learns a reusable
//! [`FamdModel`] — the frozen normalization statistics (per-column mean/std,
//! per-category proportions) plus the principal axes — and keeps the
//! training scores for the figure pipelines. [`FamdModel::encode`] projects
//! any later observation into the same space, bit-identically to the scores
//! the fit produced for its own rows, so an online index
//! (`cactus-simindex`) and the batch figure generators share one encoder.

use std::collections::BTreeMap;

use crate::matrix::Matrix;
use crate::pca::{self, Pca};
use crate::stats;

/// Frozen normalization statistics for one quantitative column.
#[derive(Debug, Clone, PartialEq)]
struct ColumnStats {
    mean: f64,
    std: f64,
}

/// One retained category of a qualitative variable. Categories with
/// `p ∈ {0, 1}` are dropped at fit time (a constant indicator carries no
/// information), so every stored proportion is strictly inside `(0, 1)`.
#[derive(Debug, Clone, PartialEq)]
struct Category {
    label: String,
    p: f64,
}

/// The reusable half of a FAMD fit: frozen normalization statistics and the
/// principal axes, without the training scores. [`FamdModel::encode`]
/// projects a new observation into the fitted space; the result for a
/// training row is bit-identical to the score row [`Famd::fit`] computed.
#[derive(Debug, Clone, PartialEq)]
pub struct FamdModel {
    quant: Vec<ColumnStats>,
    quals: Vec<Vec<Category>>,
    /// Principal axes: columns are components in encoded-column space.
    components: Matrix,
    explained_variance: Vec<f64>,
}

impl FamdModel {
    /// Number of encoded columns (quantitative + retained indicators).
    #[must_use]
    pub fn encoded_cols(&self) -> usize {
        self.quant.len() + self.quals.iter().map(Vec::len).sum::<usize>()
    }

    /// Explained variance per principal dimension, descending.
    #[must_use]
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Number of dimensions needed to retain `ratio` of the variance (same
    /// rule as [`Pca::components_for_ratio`]).
    #[must_use]
    pub fn dims_for_ratio(&self, ratio: f64) -> usize {
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

    /// Encode one observation (`quant_row` in fit column order, `qual_row`
    /// one label per fitted qualitative variable) into the normalized
    /// indicator space — z-scores against the frozen means/stds, scaled
    /// centered indicators against the frozen proportions. An unseen
    /// category encodes as "none of the retained indicators" (all
    /// `-p·scale` terms), which is exactly how a dropped constant category
    /// encoded at fit time.
    #[must_use]
    pub fn encode_raw(&self, quant_row: &[f64], qual_row: &[&str]) -> Vec<f64> {
        let mut z = Vec::with_capacity(self.encoded_cols());
        for (stats, &x) in self.quant.iter().zip(quant_row) {
            z.push(if stats.std > 0.0 {
                (x - stats.mean) / stats.std
            } else {
                0.0
            });
        }
        for (categories, &label) in self.quals.iter().zip(qual_row) {
            for category in categories {
                // Identical arithmetic to the fit-time encoding so training
                // rows reproduce bit-exactly.
                let p = category.p;
                let scale = 1.0 / p.sqrt();
                let mean = p * scale;
                let ind = if label == category.label { 1.0 } else { 0.0 };
                z.push(ind * scale - mean);
            }
        }
        z
    }

    /// Project one observation onto the principal dimensions: the frozen
    /// encoding of [`FamdModel::encode_raw`] followed by the fitted axes.
    /// For a row the model was fitted on, this reproduces the corresponding
    /// [`Famd::coordinates`] row bit-for-bit.
    ///
    /// `quant_row` and `qual_row` shorter than the fitted column counts
    /// encode the missing entries as if absent (mean / unseen category);
    /// extra entries are ignored.
    #[must_use]
    pub fn encode(&self, quant_row: &[f64], qual_row: &[&str]) -> Vec<f64> {
        let z = self.encode_raw(quant_row, qual_row);
        let dims = self.components.cols();
        let mut out = vec![0.0; dims];
        // Mirror Matrix::matmul exactly (k-ascending accumulation with the
        // zero-skip) so encoded coordinates match fit-time scores bitwise.
        for (k, &a) in z.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (c, slot) in out.iter_mut().enumerate() {
                *slot += a * self.components[(k, c)];
            }
        }
        out
    }

    /// [`FamdModel::encode`] truncated to the first `k` dimensions.
    #[must_use]
    pub fn encode_truncated(&self, quant_row: &[f64], qual_row: &[&str], k: usize) -> Vec<f64> {
        let mut coords = self.encode(quant_row, qual_row);
        coords.truncate(k);
        coords
    }
}

/// A fitted FAMD: the reusable [`FamdModel`] plus the training scores the
/// figure pipelines read back.
#[derive(Debug, Clone, PartialEq)]
pub struct Famd {
    pca: Pca,
    model: FamdModel,
}

impl Famd {
    /// Fit FAMD to `quant` (rows = observations, columns = quantitative
    /// variables) and `qual` (one entry per qualitative variable; each entry
    /// holds one category label per observation).
    ///
    /// # Panics
    ///
    /// Panics if any qualitative column's length differs from the number of
    /// observations.
    #[must_use]
    pub fn fit(quant: &Matrix, qual: &[Vec<String>]) -> Self {
        let n = quant.rows();
        for col in qual {
            assert_eq!(col.len(), n, "qualitative column length mismatch");
        }

        // Freeze the normalization statistics, then encode through them —
        // the one encoding path shared with later queries.
        let quant_stats: Vec<ColumnStats> = (0..quant.cols())
            .map(|c| {
                let col = quant.col(c);
                ColumnStats {
                    mean: stats::mean(&col),
                    std: stats::std_dev(&col),
                }
            })
            .collect();

        let mut quals = Vec::with_capacity(qual.len());
        for col in qual {
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for v in col {
                *counts.entry(v.as_str()).or_insert(0) += 1;
            }
            let categories: Vec<Category> = counts
                .into_iter()
                .filter_map(|(label, count)| {
                    let p = count as f64 / n as f64;
                    // Constant indicator carries no information.
                    (p > 0.0 && p < 1.0).then(|| Category {
                        label: label.to_owned(),
                        p,
                    })
                })
                .collect();
            quals.push(categories);
        }

        let stats_model = FamdModel {
            quant: quant_stats,
            quals,
            components: Matrix::zeros(0, 0), // filled after the PCA below
            explained_variance: Vec::new(),
        };

        let cols = stats_model.encoded_cols();
        let mut z = Matrix::zeros(n, cols);
        for r in 0..n {
            let quant_row = quant.row(r);
            let qual_row: Vec<&str> = qual.iter().map(|col| col[r].as_str()).collect();
            for (c, v) in stats_model
                .encode_raw(quant_row, &qual_row)
                .into_iter()
                .enumerate()
            {
                z[(r, c)] = v;
            }
        }

        let pca = pca::fit_centered(&z);
        let model = FamdModel {
            components: pca.components.clone(),
            explained_variance: pca.explained_variance.clone(),
            ..stats_model
        };
        Famd { pca, model }
    }

    /// The underlying PCA of the encoded table.
    #[must_use]
    pub fn pca(&self) -> &Pca {
        &self.pca
    }

    /// The reusable encoder: frozen normalization statistics + axes.
    #[must_use]
    pub fn model(&self) -> &FamdModel {
        &self.model
    }

    /// Extract the encoder, dropping the training scores.
    #[must_use]
    pub fn into_model(self) -> FamdModel {
        self.model
    }

    /// Number of encoded columns (quantitative + scaled indicators).
    #[must_use]
    pub fn encoded_cols(&self) -> usize {
        self.model.encoded_cols()
    }

    /// Observation coordinates on the first `k` principal dimensions — the
    /// denoised feature vectors handed to hierarchical clustering.
    #[must_use]
    pub fn coordinates(&self, k: usize) -> Matrix {
        self.pca.truncated_scores(k)
    }

    /// Number of dimensions needed to retain `ratio` of the variance.
    #[must_use]
    pub fn dims_for_ratio(&self, ratio: f64) -> usize {
        self.pca.components_for_ratio(ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn quantitative_only_reduces_to_pca() {
        let quant = Matrix::from_rows(4, 2, vec![1.0, 2.0, 2.0, 4.0, 3.0, 6.0, 4.0, 8.0]);
        let famd = Famd::fit(&quant, &[]);
        assert_eq!(famd.encoded_cols(), 2);
        assert!(famd.pca().explained_ratio(1) > 0.999);
    }

    #[test]
    fn qualitative_variable_separates_groups() {
        // Two groups with identical quantitative values but different
        // labels: the qualitative variable must drive the first dimension.
        let quant = Matrix::from_rows(6, 1, vec![1.0; 6]);
        let qual = vec![labels(&["a", "a", "a", "b", "b", "b"])];
        let famd = Famd::fit(&quant, &qual);
        let coords = famd.coordinates(1);
        // Same-label observations coincide; different labels are separated.
        assert!((coords[(0, 0)] - coords[(1, 0)]).abs() < 1e-9);
        assert!((coords[(3, 0)] - coords[(4, 0)]).abs() < 1e-9);
        assert!((coords[(0, 0)] - coords[(3, 0)]).abs() > 0.5);
    }

    #[test]
    fn constant_category_is_dropped() {
        let quant = Matrix::from_rows(3, 1, vec![1.0, 2.0, 3.0]);
        let qual = vec![labels(&["x", "x", "x"])];
        let famd = Famd::fit(&quant, &qual);
        // Only the quantitative column survives encoding.
        assert_eq!(famd.encoded_cols(), 1);
    }

    #[test]
    fn mixed_data_dimensions() {
        let quant = Matrix::from_rows(5, 2, vec![1.0, 9.0, 2.0, 7.0, 3.0, 5.0, 4.0, 3.0, 5.0, 1.0]);
        let qual = vec![
            labels(&["m", "m", "c", "c", "c"]),
            labels(&["bw", "lat", "bw", "lat", "bw"]),
        ];
        let famd = Famd::fit(&quant, &qual);
        // 2 quant + 2 + 2 indicator columns.
        assert_eq!(famd.encoded_cols(), 6);
        let k = famd.dims_for_ratio(0.9);
        assert!((1..=6).contains(&k));
        let coords = famd.coordinates(k);
        assert_eq!(coords.rows(), 5);
        assert_eq!(coords.cols(), k);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_qual_length_panics() {
        let quant = Matrix::from_rows(3, 1, vec![1.0, 2.0, 3.0]);
        let qual = vec![labels(&["a", "b"])];
        let _ = Famd::fit(&quant, &qual);
    }

    /// The fixed mixed table used by the encoder equivalence/golden tests.
    fn golden_table() -> (Matrix, Vec<Vec<String>>) {
        let quant = Matrix::from_rows(
            6,
            2,
            vec![
                1.0, 10.0, //
                2.0, 8.0, //
                3.0, 9.0, //
                4.0, 3.0, //
                5.0, 2.0, //
                6.0, 1.0,
            ],
        );
        let qual = vec![
            labels(&["m", "m", "m", "c", "c", "c"]),
            labels(&["bw", "lat", "bw", "lat", "bw", "lat"]),
        ];
        (quant, qual)
    }

    /// `FamdModel::encode` must reproduce every training score row
    /// bit-for-bit: the index and the figure pipeline share one space.
    #[test]
    fn encode_reproduces_training_scores_bitwise() {
        let (quant, qual) = golden_table();
        let famd = Famd::fit(&quant, &qual);
        let scores = &famd.pca().scores;
        for r in 0..quant.rows() {
            let qual_row: Vec<&str> = qual.iter().map(|col| col[r].as_str()).collect();
            let coords = famd.model().encode(quant.row(r), &qual_row);
            assert_eq!(coords.len(), scores.cols());
            for (c, &v) in coords.iter().enumerate() {
                assert!(
                    v.to_bits() == scores[(r, c)].to_bits(),
                    "row {r} dim {c}: encode {v:e} != score {:e}",
                    scores[(r, c)]
                );
            }
        }
    }

    /// Golden pin of encoded coordinates on the fixed table: any change to
    /// the normalization, encoding order, or eigensolver shows up here.
    #[test]
    fn golden_encoded_coordinates() {
        let (quant, qual) = golden_table();
        let model = Famd::fit(&quant, &qual).into_model();
        assert_eq!(model.encoded_cols(), 6);
        let got = model.encode_truncated(&[1.0, 10.0], &["m", "bw"], 2);
        let want = [2.338_355_692_388_738, 0.332_547_753_665_701_94];
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-9, "got {g}, want {w}");
        }
        // A novel observation lands between the fitted groups.
        let mid = model.encode_truncated(&[3.5, 5.5], &["m", "bw"], 2);
        assert!(mid[0].abs() < want[0].abs());
    }

    /// Unseen categories encode like a dropped constant category: all
    /// retained indicators read "absent".
    #[test]
    fn unseen_category_encodes_as_absent() {
        let (quant, qual) = golden_table();
        let model = Famd::fit(&quant, &qual).into_model();
        let unseen = model.encode_raw(&[1.0, 10.0], &["nope", "bw"]);
        let seen = model.encode_raw(&[1.0, 10.0], &["m", "bw"]);
        assert_eq!(unseen.len(), seen.len());
        // The quantitative part is unchanged; within the first qualitative
        // block the "m" indicator (categories are BTreeMap-ordered: c at
        // column 2, m at column 3) must not fire for the unseen label.
        assert_eq!(unseen[0], seen[0]);
        assert_eq!(unseen[1], seen[1]);
        assert_eq!(unseen[2], seen[2], "\"c\" indicator is absent in both");
        assert!(unseen[3] < seen[3], "indicator must not fire for unseen");
    }
}
