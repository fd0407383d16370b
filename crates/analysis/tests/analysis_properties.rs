//! Property tests over the analysis crate: Pearson invariances, Jacobi
//! eigendecomposition correctness on random symmetric matrices, clustering
//! invariants, and roofline monotonicity.

use cactus_analysis::famd::Famd;
use cactus_analysis::hclust;
use cactus_analysis::matrix::{eigen_symmetric, Matrix};
use cactus_analysis::roofline::Roofline;
use cactus_analysis::stats;
use cactus_gpu::Device;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pearson is symmetric, bounded, and invariant under positive affine
    /// transforms.
    #[test]
    fn pearson_invariances(
        xs in prop::collection::vec(-100.0f64..100.0, 5..40),
        scale in 0.1f64..50.0,
        offset in -100.0f64..100.0,
    ) {
        let ys: Vec<f64> = xs.iter().rev().copied().collect();
        let pcc = stats::pearson(&xs, &ys);
        prop_assert!((-1.0..=1.0).contains(&pcc));
        prop_assert!((pcc - stats::pearson(&ys, &xs)).abs() < 1e-12);

        let xs_t: Vec<f64> = xs.iter().map(|x| x * scale + offset).collect();
        let pcc_t = stats::pearson(&xs_t, &ys);
        prop_assert!((pcc - pcc_t).abs() < 1e-6, "{pcc} vs {pcc_t}");

        // Negative scaling flips the sign.
        let xs_n: Vec<f64> = xs.iter().map(|x| -x * scale).collect();
        prop_assert!((stats::pearson(&xs_n, &ys) + pcc).abs() < 1e-6);
    }

    /// Jacobi reconstructs random symmetric matrices: A ≈ V Λ Vᵀ with
    /// orthonormal V and trace preservation.
    #[test]
    fn eigen_reconstructs_random_symmetric(
        vals in prop::collection::vec(-5.0f64..5.0, 36),
    ) {
        let n = 6;
        let raw = Matrix::from_rows(n, n, vals);
        // Symmetrize.
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = 0.5 * (raw[(i, j)] + raw[(j, i)]);
            }
        }
        let e = eigen_symmetric(&a);

        // Trace = sum of eigenvalues.
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let eig_sum: f64 = e.values.iter().sum();
        prop_assert!((trace - eig_sum).abs() < 1e-8, "{trace} vs {eig_sum}");

        // Reconstruction.
        let mut lambda = Matrix::zeros(n, n);
        for i in 0..n {
            lambda[(i, i)] = e.values[i];
        }
        let recon = e.vectors.matmul(&lambda).matmul(&e.vectors.transpose());
        for i in 0..n {
            for j in 0..n {
                prop_assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-7);
            }
        }

        // Orthonormality.
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((vtv[(i, j)] - expect).abs() < 1e-8);
            }
        }
    }

    /// Cutting a Ward dendrogram at k produces exactly min(k, n) non-empty
    /// clusters.
    #[test]
    fn dendrogram_cut_cardinality(
        coords in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 2..20),
        k in 1usize..8,
    ) {
        let n = coords.len();
        let data = Matrix::from_rows(
            n,
            2,
            coords.iter().flat_map(|&(x, y)| [x, y]).collect(),
        );
        let labels = hclust::cluster(&data).cut(k);
        prop_assert_eq!(labels.len(), n);
        let distinct: std::collections::BTreeSet<usize> = labels.iter().copied().collect();
        // Coincident points can still be separated by the cut, so the
        // cardinality is exactly min(k, n).
        prop_assert_eq!(distinct.len(), k.min(n));
    }

    /// The roofline is monotone in intensity and capped at peak.
    #[test]
    fn roofline_monotone(ii_a in 0.0f64..1e4, ii_b in 0.0f64..1e4) {
        let r = Roofline::for_device(&Device::rtx3080());
        let (lo, hi) = if ii_a < ii_b { (ii_a, ii_b) } else { (ii_b, ii_a) };
        prop_assert!(r.roof(lo) <= r.roof(hi) + 1e-9);
        prop_assert!(r.roof(hi) <= r.peak_gips() + 1e-9);
    }

    /// z-scored data has zero mean and unit variance (or is all-zero for
    /// constant input).
    #[test]
    fn zscore_properties(xs in prop::collection::vec(-1e3f64..1e3, 3..50)) {
        let z = stats::zscore(&xs);
        prop_assert_eq!(z.len(), xs.len());
        prop_assert!(stats::mean(&z).abs() < 1e-9);
        let sd = stats::std_dev(&z);
        prop_assert!(sd.abs() < 1e-9 || (sd - 1.0).abs() < 1e-9);
    }
}

/// 64-bit FNV-1a over every merge's `(a, b, size, height bits)`, in merge
/// order: equal digests mean bit-identical dendrograms.
fn dendrogram_digest(dend: &hclust::Dendrogram) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in dend.merges() {
        for word in [m.a as u64, m.b as u64, m.size as u64, m.height.to_bits()] {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The ablation bin's planted table: 60 rows in two groups, signal in the
/// first 3 of 13 columns, deterministic noise everywhere.
fn planted_table() -> (Matrix, Vec<Vec<String>>) {
    let (n, p) = (60, 13);
    let mut data = Vec::with_capacity(n * p);
    for i in 0..n {
        let center = if i < n / 2 { -1.0 } else { 1.0 };
        for j in 0..p {
            let signal = if j < 3 { center } else { 0.0 };
            let noise = ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5;
            data.push(signal + 1.5 * noise);
        }
    }
    let qual = vec![(0..n)
        .map(|i| if i < n / 2 { "memory" } else { "compute" }.to_owned())
        .collect()];
    (Matrix::from_rows(n, p, data), qual)
}

/// A similarity-index-sized corpus: 256 kernels (the local re-cluster cap)
/// of 13 metrics plus two roofline-style labels, FAMD-encoded and truncated
/// at 85 % explained variance, exactly as the index's encoder is fitted.
fn encoder_corpus() -> Matrix {
    let (n, p) = (256, 13);
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut data = Vec::with_capacity(n * p);
    let mut intensity = Vec::with_capacity(n);
    let mut bound = Vec::with_capacity(n);
    for i in 0..n {
        let family = (i % 4) as f64;
        for j in 0..p {
            data.push(family * (1.0 + j as f64 * 0.25) + next());
        }
        intensity.push(if i % 4 < 2 { "memory" } else { "compute" }.to_owned());
        bound.push(if i % 3 == 0 { "bandwidth" } else { "latency" }.to_owned());
    }
    let famd = Famd::fit(&Matrix::from_rows(n, p, data), &[intensity, bound]);
    famd.coordinates(famd.dims_for_ratio(0.85).max(2))
}

/// Ward dendrogram bits on the ablation table (raw and FAMD-denoised, as
/// `ablation` clusters it) and on the encoder-sized corpus through the
/// precomputed-distance entry point the index's re-cluster uses.
#[test]
fn ward_dendrogram_goldens() {
    let (quant, qual) = planted_table();
    let raw = hclust::cluster(&quant);
    let famd = Famd::fit(&quant, &qual);
    let denoised = hclust::cluster(&famd.coordinates(famd.dims_for_ratio(0.7).max(2)));
    let corpus = hclust::cluster_distances(&hclust::euclidean_distances(&encoder_corpus()));
    let got = [
        dendrogram_digest(&raw),
        dendrogram_digest(&denoised),
        dendrogram_digest(&corpus),
    ];
    assert_eq!(
        (
            raw.merges().len(),
            denoised.merges().len(),
            corpus.merges().len()
        ),
        (59, 59, 255)
    );
    let want = [
        0x78fe_21de_0956_5ae0,
        0x7a23_2d07_8749_eaa3,
        0x5ef9_25a8_b141_4ced,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}
