//! `SPT` — Spatial Transformer Network training on MNIST-like digits
//! (Jaderberg et al.; the paper trains the official PyTorch STN tutorial
//! with SGD).
//!
//! A localization CNN regresses a per-sample affine transform (initialized
//! to the identity), the differentiable grid sampler straightens the input,
//! and a small CNN classifies the result. Trained end-to-end with SGD on
//! softmax cross-entropy.

use cactus_gpu::LaunchSink;

use crate::apps::dcgan::MlScale;
use crate::datasets;
use crate::graph::{Graph, VarId};
use crate::layers::{Conv2d, Linear};
use crate::optim::{Optimizer, Sgd};
use crate::tensor::Tensor;

/// The STN training application.
#[derive(Debug)]
pub struct SpatialTransformer {
    scale: MlScale,
    // Localization network.
    loc_conv1: Conv2d,
    loc_conv2: Conv2d,
    loc_fc1: Linear,
    loc_fc2: Linear,
    // Classifier.
    cls_conv: Conv2d,
    cls_fc1: Linear,
    cls_fc2: Linear,
    opt: Sgd,
    images: Tensor,
    labels: Vec<usize>,
    iteration: u64,
}

impl SpatialTransformer {
    /// Build the app at the given scale (image side must be divisible
    /// by 4).
    #[must_use]
    pub fn new(scale: MlScale, seed: u64) -> Self {
        let s = scale.image;
        let s4 = s / 4;
        let (images, labels) = datasets::mnist_like(scale.batch * 8, s, seed + 10);

        // Final affine layer: zero weights, identity bias — the canonical
        // STN initialization.
        let mut loc_fc2 = Linear::new(24, 6, seed + 3);
        for v in loc_fc2.weight.data_mut() {
            *v = 0.0;
        }
        loc_fc2
            .bias
            .data_mut()
            .copy_from_slice(&[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);

        Self {
            scale,
            loc_conv1: Conv2d::new(1, 16, 5, 1, 2, seed),
            loc_conv2: Conv2d::new(16, 32, 5, 1, 2, seed + 1),
            loc_fc1: Linear::new(32 * s4 * s4, 24, seed + 2),
            loc_fc2,
            cls_conv: Conv2d::new(1, 32, 5, 1, 2, seed + 4),
            cls_fc1: Linear::new(32 * (s / 2) * (s / 2), 64, seed + 5),
            cls_fc2: Linear::new(64, 10, seed + 6),
            opt: Sgd::new(0.01, 0.9),
            images,
            labels,
            iteration: 0,
        }
    }

    fn batch(&self) -> (Tensor, Vec<usize>) {
        let b = self.scale.batch;
        let s = self.scale.image;
        let total = self.labels.len();
        let start = (self.iteration as usize * b) % (total - b).max(1);
        let img = s * s;
        (
            Tensor::from_vec(
                &[b, 1, s, s],
                self.images.data()[start * img..(start + b) * img].to_vec(),
            ),
            self.labels[start..start + b].to_vec(),
        )
    }

    fn forward(&mut self, g: &mut Graph, gpu: &mut dyn LaunchSink, x: VarId) -> VarId {
        let b = self.scale.batch;
        let s = self.scale.image;
        let s4 = s / 4;

        // Localization: predict theta.
        let l1 = self.loc_conv1.forward(g, gpu, x);
        let p1 = g.maxpool2d(gpu, l1, 2);
        let r1 = g.relu(gpu, p1);
        let l2 = self.loc_conv2.forward(g, gpu, r1);
        let p2 = g.maxpool2d(gpu, l2, 2);
        let r2 = g.relu(gpu, p2);
        let flat = g.reshape(r2, &[b, 32 * s4 * s4]);
        let h = self.loc_fc1.forward(g, gpu, flat);
        let hr = g.relu(gpu, h);
        let theta = self.loc_fc2.forward(g, gpu, hr);

        // Sample the straightened image.
        let warped = g.spatial_transform(gpu, x, theta, s, s);

        // Classify.
        let c = self.cls_conv.forward(g, gpu, warped);
        let cp = g.maxpool2d(gpu, c, 2);
        let cr = g.relu(gpu, cp);
        let cflat = g.reshape(cr, &[b, 32 * (s / 2) * (s / 2)]);
        let f1 = self.cls_fc1.forward(g, gpu, cflat);
        let fr = g.relu(gpu, f1);
        let dropped = g.dropout(gpu, fr, 0.3, 777 + self.iteration);
        self.cls_fc2.forward(g, gpu, dropped)
    }

    /// One SGD training iteration; returns the cross-entropy loss.
    pub fn train_iteration(&mut self, gpu: &mut dyn LaunchSink) -> f32 {
        let (images, labels) = self.batch();
        let mut g = Graph::new();
        let x = g.input(images);
        let logits = self.forward(&mut g, gpu, x);
        let loss = g.softmax_cross_entropy(gpu, logits, &labels);
        g.backward(gpu, loss);

        self.opt.begin_step();
        self.loc_conv1.update(&g, &mut self.opt, gpu);
        self.loc_conv2.update(&g, &mut self.opt, gpu);
        self.loc_fc1.update(&g, &mut self.opt, gpu);
        self.loc_fc2.update(&g, &mut self.opt, gpu);
        self.cls_conv.update(&g, &mut self.opt, gpu);
        self.cls_fc1.update(&g, &mut self.opt, gpu);
        self.cls_fc2.update(&g, &mut self.opt, gpu);

        self.iteration += 1;
        g.value(loss).data()[0]
    }

    /// Run the configured iterations; returns the loss series.
    pub fn run(&mut self, gpu: &mut dyn LaunchSink) -> Vec<f32> {
        (0..self.scale.iterations)
            .map(|_| self.train_iteration(gpu))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::kernel::KernelDesc;
    use std::collections::BTreeSet;

    #[test]
    fn stn_trains_and_loss_decreases() {
        let mut launches = Vec::new();
        let mut app = SpatialTransformer::new(
            MlScale {
                batch: 8,
                image: 12,
                iterations: 25,
            },
            1,
        );
        let losses = app.run(&mut launches);
        assert!(losses.iter().all(|l| l.is_finite()));
        let head: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(tail < head, "loss should fall: {head} → {tail}");
    }

    #[test]
    fn stn_uses_grid_sampler_kernels() {
        let mut launches = Vec::new();
        let mut app = SpatialTransformer::new(MlScale::tiny(), 2);
        let _ = app.train_iteration(&mut launches);
        let names: BTreeSet<&str> = launches.iter().map(KernelDesc::name).collect();
        assert!(names.contains("grid_sampler_2d_kernel"));
        assert!(names.contains("grid_sampler_2d_backward_kernel"));
        assert!(names.contains("affine_grid_generator_kernel"));
        assert!(names.iter().any(|n| n.contains("sgd")));
    }

    #[test]
    fn theta_starts_at_identity() {
        let app = SpatialTransformer::new(MlScale::tiny(), 3);
        // With zero loc_fc2 weights the predicted theta equals the bias.
        assert_eq!(app.loc_fc2.bias.data(), &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
    }
}
