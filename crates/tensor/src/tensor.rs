//! Dense `f32` tensors with row-major layout.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense row-major `f32` tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Tensor filled with one value.
    #[must_use]
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![value; shape.iter().product()],
        }
    }

    /// Tensor from explicit data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` doesn't match the shape's element count.
    #[must_use]
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length must match shape"
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Gaussian(0, `std`) tensor from a seeded RNG (Box–Muller).
    #[must_use]
    pub fn randn(shape: &[usize], std: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(1e-7..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Uniform(lo, hi) tensor from a seeded RNG.
    #[must_use]
    pub fn uniform(shape: &[usize], lo: f32, hi: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: (0..n).map(|_| rng.gen_range(lo..hi)).collect(),
        }
    }

    /// Shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat data slice.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterpret with a new shape of the same element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    #[must_use]
    pub fn reshaped(&self, shape: &[usize]) -> Self {
        assert_eq!(
            self.len(),
            shape.iter().product::<usize>(),
            "reshape must preserve element count"
        );
        Self {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Element at a 2-D index (row-major).
    #[must_use]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.shape[1] + c]
    }

    /// Element at a 4-D index (NCHW).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        let (_, ch, hh, ww) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * ch + c) * hh + h) * ww + w]
    }

    /// Sum of elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of elements (0 for empty tensors).
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute element (0 for empty tensors).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Bytes occupied by the data.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.sum(), 0.0);
        let f = Tensor::full(&[4], 2.5);
        assert_eq!(f.sum(), 10.0);
    }

    #[test]
    fn from_vec_and_indexing() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.at2(0, 2), 3.0);
        assert_eq!(t.at2(1, 0), 4.0);
        let t4 = Tensor::from_vec(&[1, 2, 2, 2], (0..8).map(|i| i as f32).collect());
        assert_eq!(t4.at4(0, 1, 1, 0), 6.0);
    }

    #[test]
    #[should_panic(expected = "data length must match shape")]
    fn from_vec_validates() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn randn_statistics() {
        let t = Tensor::randn(&[10_000], 1.0, 1);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        let var: f32 =
            t.data().iter().map(|x| x * x).sum::<f32>() / t.len() as f32 - t.mean().powi(2);
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn randn_is_deterministic() {
        assert_eq!(Tensor::randn(&[16], 1.0, 5), Tensor::randn(&[16], 1.0, 5));
    }

    #[test]
    fn uniform_bounds() {
        let t = Tensor::uniform(&[1000], -2.0, 3.0, 9);
        assert!(t.data().iter().all(|&x| (-2.0..3.0).contains(&x)));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let r = t.reshaped(&[4]);
        assert_eq!(r.shape(), &[4]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn max_abs_and_bytes() {
        let t = Tensor::from_vec(&[3], vec![-5.0, 2.0, 4.0]);
        assert_eq!(t.max_abs(), 5.0);
        assert_eq!(t.bytes(), 12);
    }
}
