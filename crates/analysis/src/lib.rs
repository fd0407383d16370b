//! # cactus-analysis
//!
//! The paper's characterization methodology (Section V), reproduced as a
//! library:
//!
//! * [`roofline`] — the instruction roofline model (Figures 4–7): GIPS vs.
//!   warp instructions per DRAM transaction, with the qualitative labels the
//!   paper derives from it (memory- vs. compute-intensive, bandwidth- vs.
//!   latency-bound).
//! * [`stats`] + [`correlation`] — Pearson correlation of the four primary
//!   metrics against the Table IV metrics, with the paper's banding
//!   (|PCC| < 0.2 none, < 0.5 weak, ≥ 0.5 strong) behind Figure 8.
//! * [`matrix`] — a small dense-matrix kit with a cyclic-Jacobi symmetric
//!   eigensolver (no external linear-algebra dependency).
//! * [`pca`] and [`famd`] — principal component analysis and Factor
//!   Analysis of Mixed Data (quantitative + qualitative variables), the
//!   denoising front-end of the paper's clustering.
//! * [`hclust`] — agglomerative hierarchical clustering with Ward's
//!   linkage (Lance–Williams updates) and dendrogram utilities behind
//!   Figure 9.
//! * [`survey`] — the Figure 1 literature-survey dataset.

pub mod correlation;
pub mod famd;
pub mod hclust;
pub mod matrix;
pub mod pca;
pub mod roofline;
pub mod stats;
pub mod survey;
