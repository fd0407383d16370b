//! `NST` — Neural Style transfer (Gatys et al.): optimize an *image* so
//! that its deep features match a content image while its feature Gram
//! matrices match a style image.
//!
//! The paper's version extracts features with pretrained VGG-19; here the
//! extractor is a fixed randomly-initialized CNN with instance
//! normalization — random convolutional features are known to support
//! style transfer, and what the benchmark measures (the kernel population
//! of repeated forward/backward passes through a conv stack plus Gram-matrix
//! GEMMs) is unchanged by the weights' provenance (see DESIGN.md).

use cactus_gpu::LaunchSink;

use crate::apps::dcgan::MlScale;
use crate::datasets;
use crate::graph::{Graph, VarId};
use crate::optim::{Adam, Optimizer};
use crate::tensor::Tensor;

/// Fixed feature-extractor weights (not trained).
#[derive(Debug, Clone)]
struct FeatureNet {
    w1: Tensor, // [8, 3, 3, 3]
    w2: Tensor, // [16, 8, 3, 3]
    w3: Tensor, // [24, 16, 3, 3]
    gamma: [Tensor; 2],
    beta: [Tensor; 2],
}

impl FeatureNet {
    fn new(seed: u64) -> Self {
        Self {
            w1: Tensor::randn(&[32, 3, 3, 3], 0.35, seed),
            w2: Tensor::randn(&[64, 32, 3, 3], 0.1, seed + 1),
            w3: Tensor::randn(&[96, 64, 3, 3], 0.07, seed + 2),
            gamma: [Tensor::full(&[32], 1.0), Tensor::full(&[64], 1.0)],
            beta: [Tensor::zeros(&[32]), Tensor::zeros(&[64])],
        }
    }

    /// Forward through the fixed extractor; returns (shallow, mid, deep)
    /// feature maps.
    fn forward(
        &self,
        g: &mut Graph,
        gpu: &mut dyn LaunchSink,
        img: VarId,
    ) -> (VarId, VarId, VarId) {
        let w1 = g.input(self.w1.clone());
        let c1 = g.conv2d(gpu, img, w1, 1, 1);
        let g1 = g.input(self.gamma[0].clone());
        let b1 = g.input(self.beta[0].clone());
        let n1 = g.instancenorm2d(gpu, c1, g1, b1);
        let f1 = g.relu(gpu, n1);

        let p1 = g.maxpool2d(gpu, f1, 2);
        let w2 = g.input(self.w2.clone());
        let c2 = g.conv2d(gpu, p1, w2, 1, 1);
        let g2 = g.input(self.gamma[1].clone());
        let b2 = g.input(self.beta[1].clone());
        let n2 = g.instancenorm2d(gpu, c2, g2, b2);
        let f2 = g.relu(gpu, n2);

        let p2 = g.maxpool2d(gpu, f2, 2);
        let w3 = g.input(self.w3.clone());
        let c3 = g.conv2d(gpu, p2, w3, 1, 1);
        let f3 = g.relu(gpu, c3);
        (f1, f2, f3)
    }
}

/// Gram matrix of an `[1, c, h, w]` feature map: `F·Fᵀ / (c·h·w)`.
fn gram(g: &mut Graph, gpu: &mut dyn LaunchSink, feat: VarId) -> VarId {
    let shape = g.value(feat).shape().to_vec();
    let (c, h, w) = (shape[1], shape[2], shape[3]);
    let flat = g.reshape(feat, &[c, h * w]);
    let flat_t = g.transpose2d(gpu, flat);
    let gm = g.matmul(gpu, flat, flat_t);
    g.scale(gpu, gm, 1.0 / (c * h * w) as f32)
}

/// The neural-style application.
#[derive(Debug)]
pub struct NeuralStyle {
    scale: MlScale,
    net: FeatureNet,
    /// The optimized image (the "parameter" of this workload).
    pub image: Tensor,
    content_feat: Tensor,
    style_grams: [Tensor; 2],
    style_weight: f32,
    opt: Adam,
}

impl NeuralStyle {
    /// Build the app: precomputes the content features and style Grams.
    #[must_use]
    pub fn new(scale: MlScale, seed: u64) -> Self {
        let net = FeatureNet::new(seed);
        let content = datasets::content_image(scale.image, seed + 10);
        let style = datasets::style_image(scale.image, seed + 11);

        // Precompute the fixed targets with a scratch graph; their
        // launches are not part of the workload's stream.
        let mut scratch = Vec::new();
        let gpu = &mut scratch;

        let mut g = Graph::new();
        let cimg = g.input(content.clone());
        let (_, _, c3) = net.forward(&mut g, gpu, cimg);
        let content_feat = g.value(c3).clone();

        let mut g = Graph::new();
        let simg = g.input(style);
        let (s1, s2, _) = net.forward(&mut g, gpu, simg);
        let gm1 = gram(&mut g, gpu, s1);
        let gm2 = gram(&mut g, gpu, s2);
        let style_grams = [g.value(gm1).clone(), g.value(gm2).clone()];

        Self {
            scale,
            net,
            image: content, // initialize from the content image
            content_feat,
            style_grams,
            style_weight: 50.0,
            opt: Adam::new(0.02),
        }
    }

    /// One optimization iteration; returns the combined loss.
    pub fn train_iteration(&mut self, gpu: &mut dyn LaunchSink) -> f32 {
        let mut g = Graph::new();
        let img = g.param(self.image.clone());
        let (f1, f2, f3) = self.net.forward(&mut g, gpu, img);

        // Content term.
        let target_c = g.input(self.content_feat.clone());
        let content_loss = g.mse_loss(gpu, f3, target_c);

        // Style terms.
        let gm1 = gram(&mut g, gpu, f1);
        let t1 = g.input(self.style_grams[0].clone());
        let s1 = g.mse_loss(gpu, gm1, t1);
        let gm2 = gram(&mut g, gpu, f2);
        let t2 = g.input(self.style_grams[1].clone());
        let s2 = g.mse_loss(gpu, gm2, t2);
        let style_sum = g.add(gpu, s1, s2);
        let style_loss = g.scale(gpu, style_sum, self.style_weight);

        let total = g.add(gpu, content_loss, style_loss);
        g.backward(gpu, total);

        self.opt.begin_step();
        let grad = g.grad(img).expect("image gradient").clone();
        self.opt.update(gpu, &mut self.image, &grad);
        g.value(total).data()[0]
    }

    /// Run the configured iterations; returns the loss trajectory.
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
    fn style_loss_decreases() {
        let mut launches = Vec::new();
        let mut app = NeuralStyle::new(
            MlScale {
                batch: 1,
                image: 16,
                iterations: 15,
            },
            1,
        );
        let losses = app.run(&mut launches);
        assert!(losses.iter().all(|l| l.is_finite()));
        // Iteration 0 starts exactly at the content image (near-zero
        // content loss); Adam's first step trades it for style loss, and
        // the combined objective then descends steadily.
        assert!(
            losses.last().unwrap() < &losses[1],
            "loss {losses:?} should decrease after warm-up"
        );
    }

    #[test]
    fn style_kernels_include_gram_gemms_and_instance_norm() {
        let mut launches = Vec::new();
        let mut app = NeuralStyle::new(MlScale::tiny(), 2);
        let _ = app.train_iteration(&mut launches);
        let names: BTreeSet<&str> = launches.iter().map(KernelDesc::name).collect();
        assert!(names
            .iter()
            .any(|n| n.contains("sgemm") || n.contains("gemv")));
        assert!(names.iter().any(|n| n.contains("batch_norm")));
        assert!(names.iter().any(|n| n.contains("winograd")));
        assert!(names.len() >= 20, "{} kernels", names.len());
    }

    #[test]
    fn image_actually_changes() {
        let mut launches = Vec::new();
        let mut app = NeuralStyle::new(MlScale::tiny(), 3);
        let before = app.image.clone();
        let _ = app.train_iteration(&mut launches);
        let delta: f32 = app
            .image
            .data()
            .iter()
            .zip(before.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(delta > 0.0, "optimizer must move the image");
    }
}
