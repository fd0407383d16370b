//! The feature pipeline: kernel metrics → normalized FAMD coordinates.
//!
//! Mirrors the Figure 9 batch pipeline exactly: the quantitative row is
//! the 13 Table IV metrics, the two qualitative variables are the roofline
//! intensity and boundedness labels, and the fitted [`FamdModel`] carries
//! the frozen normalization statistics so query-time encoding is
//! bit-identical to index-time encoding. An [`Encoder`] is
//! fitted once on a seed corpus and then projects any later profile — or
//! an inline [`MetricId::ALL`]-order vector — into the same truncated
//! principal space the index stores.

use cactus_analysis::famd::{Famd, FamdModel};
use cactus_analysis::matrix::Matrix;
use cactus_analysis::roofline::Roofline;
use cactus_gpu::metrics::{KernelMetrics, MetricId};

use std::fmt;

/// Length of an inline query vector: [`MetricId::ALL`] order (GIPS,
/// instruction intensity, then the 13 Table IV metrics).
pub const VECTOR_DIMS: usize = MetricId::ALL.len();

/// Variance ratio the truncated space must retain (the Figure 9 cut).
const VARIANCE_RATIO: f64 = 0.85;

/// Why an inline vector could not be encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// Vector length is not [`VECTOR_DIMS`].
    WrongLen {
        /// Offered length.
        got: usize,
    },
    /// A coordinate was NaN or infinite.
    NonFinite,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::WrongLen { got } => {
                write!(f, "metric vector has {got} values, want {VECTOR_DIMS}")
            }
            EncodeError::NonFinite => write!(f, "metric vector has a NaN or infinite value"),
        }
    }
}

/// The quantitative FAMD row for one kernel: Table IV metric values.
#[must_use]
pub fn metric_row(m: &KernelMetrics) -> Vec<f64> {
    MetricId::TABLE_IV.iter().map(|&id| m.get(id)).collect()
}

/// The qualitative FAMD row for one kernel: roofline intensity and
/// boundedness labels.
#[must_use]
pub fn qual_row(m: &KernelMetrics, roofline: &Roofline) -> [&'static str; 2] {
    [
        roofline.intensity_class(m.instruction_intensity).label(),
        roofline.boundedness_class(m.gips).label(),
    ]
}

/// A frozen encoder: fitted FAMD model + the roofline used for the
/// qualitative labels + the truncation depth. Everything the index needs
/// to put new profiles into the space it was built in.
pub struct Encoder {
    model: FamdModel,
    roofline: Roofline,
    dims: usize,
}

impl Encoder {
    /// Fit the pipeline on a seed corpus of kernel metrics, mirroring the
    /// Figure 9 table construction (Table IV quant + roofline quals),
    /// truncated at 85% explained variance with a floor of 2 dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty — there is no space to fit.
    #[must_use]
    pub fn fit(roofline: Roofline, corpus: &[KernelMetrics]) -> Self {
        assert!(!corpus.is_empty(), "cannot fit an encoder on zero kernels");
        let n = corpus.len();
        let p = MetricId::TABLE_IV.len();
        let data: Vec<f64> = corpus.iter().flat_map(metric_row).collect();
        let quant = Matrix::from_rows(n, p, data);
        let mut qual_intensity = Vec::with_capacity(n);
        let mut qual_bound = Vec::with_capacity(n);
        for m in corpus {
            let [intensity, bound] = qual_row(m, &roofline);
            qual_intensity.push(intensity.to_owned());
            qual_bound.push(bound.to_owned());
        }
        let famd = Famd::fit(&quant, &[qual_intensity, qual_bound]);
        let dims = famd.dims_for_ratio(VARIANCE_RATIO).max(2);
        Self {
            model: famd.into_model(),
            roofline,
            dims,
        }
    }

    /// The underlying frozen model.
    #[must_use]
    pub fn model(&self) -> &FamdModel {
        &self.model
    }

    /// Truncated dimensionality of the encoded space — what the index
    /// stores.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Encode one kernel's metrics into the truncated FAMD space.
    #[must_use]
    pub fn encode_metrics(&self, m: &KernelMetrics) -> Vec<f64> {
        let quant = metric_row(m);
        let qual = qual_row(m, &self.roofline);
        self.model.encode_truncated(&quant, &qual, self.dims)
    }

    /// Encode an inline [`MetricId::ALL`]-order vector (the `/v1/similar`
    /// `vector=` query form). Produces bit-identical coordinates to
    /// [`Encoder::encode_metrics`] on the equivalent metrics record.
    ///
    /// # Errors
    ///
    /// Rejects wrong-length and non-finite vectors.
    pub fn encode_vector(&self, v: &[f64]) -> Result<Vec<f64>, EncodeError> {
        if v.len() != VECTOR_DIMS {
            return Err(EncodeError::WrongLen { got: v.len() });
        }
        if v.iter().any(|x| !x.is_finite()) {
            return Err(EncodeError::NonFinite);
        }
        let gips = v.first().copied().unwrap_or(0.0);
        let intensity = v.get(1).copied().unwrap_or(0.0);
        let quant = v.get(2..).unwrap_or(&[]);
        let qual = [
            self.roofline.intensity_class(intensity).label(),
            self.roofline.boundedness_class(gips).label(),
        ];
        Ok(self.model.encode_truncated(quant, &qual, self.dims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::device::Device;

    fn test_roofline() -> Roofline {
        Roofline::for_device(&Device::rtx3080())
    }

    /// A deterministic synthetic corpus spanning both roofline classes.
    fn corpus(n: usize) -> Vec<KernelMetrics> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                KernelMetrics {
                    gips: 1.0 + 400.0 * t,
                    instruction_intensity: 0.5 + 40.0 * t,
                    warp_occupancy: 8.0 + 24.0 * t,
                    sm_efficiency: 0.3 + 0.6 * t,
                    l1_hit_rate: 0.2 + 0.5 * t,
                    l2_hit_rate: 0.4 + 0.3 * t,
                    dram_read_throughput_gbps: 50.0 + 500.0 * (1.0 - t),
                    ldst_utilization: 0.1 + 0.6 * (1.0 - t),
                    sp_utilization: 0.1 + 0.7 * t,
                    fraction_branches: 0.05 + 0.1 * t,
                    fraction_ldst: 0.1 + 0.3 * (1.0 - t),
                    execution_stall: 0.2 + 0.3 * t,
                    pipe_stall: 0.05 + 0.1 * t,
                    sync_stall: 0.02 + 0.05 * t,
                    memory_stall: 0.3 * (1.0 - t),
                    ..KernelMetrics::default()
                }
            })
            .collect()
    }

    #[test]
    fn fit_retains_at_least_two_dims() {
        let enc = Encoder::fit(test_roofline(), &corpus(20));
        assert!(enc.dims() >= 2);
        assert!(enc.dims() <= enc.model().encoded_cols());
    }

    #[test]
    fn vector_form_matches_metrics_form_bitwise() {
        let enc = Encoder::fit(test_roofline(), &corpus(20));
        for m in corpus(7) {
            let a = enc.encode_metrics(&m);
            let b = enc.encode_vector(&m.vector()).expect("encode vector");
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn rejects_malformed_vectors() {
        let enc = Encoder::fit(test_roofline(), &corpus(10));
        assert_eq!(
            enc.encode_vector(&[1.0, 2.0]),
            Err(EncodeError::WrongLen { got: 2 })
        );
        let mut v = vec![0.5; VECTOR_DIMS];
        if let Some(slot) = v.get_mut(3) {
            *slot = f64::NAN;
        }
        assert_eq!(enc.encode_vector(&v), Err(EncodeError::NonFinite));
    }
}
