//! `DCG` — DCGAN training on a Celeb-A-like image distribution
//! (Radford et al., the paper's first PyTorch workload).
//!
//! Generator: latent → linear → reshape → [BN + ReLU + transposed conv] ×2
//! → tanh. Discriminator: [strided conv + LeakyReLU (+BN)] ×2 → linear →
//! logit. Standard alternating BCE training with Adam(β₁ = 0.5), the fake
//! batch detached for the discriminator step.

use cactus_gpu::LaunchSink;

use crate::datasets;
use crate::graph::Graph;
use crate::layers::{Conv2d, ConvTranspose2d, Linear, Norm2d};
use crate::optim::{Adam, Optimizer};
use crate::tensor::Tensor;

/// Scale knobs for the ML training apps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlScale {
    /// Batch size.
    pub batch: usize,
    /// Image side (must be divisible by 4 here).
    pub image: usize,
    /// Training iterations to profile.
    pub iterations: usize,
}

impl MlScale {
    /// Test-sized scale.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            batch: 2,
            image: 8,
            iterations: 2,
        }
    }
}

/// Per-iteration losses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GanLosses {
    /// Discriminator loss (real + fake halves).
    pub d_loss: f32,
    /// Generator loss.
    pub g_loss: f32,
}

/// The DCGAN training application.
#[derive(Debug)]
pub struct Dcgan {
    scale: MlScale,
    z_dim: usize,
    // Generator.
    g_fc: Linear,
    g_bn0: Norm2d,
    g_up1: ConvTranspose2d,
    g_bn1: Norm2d,
    g_up2: ConvTranspose2d,
    // Discriminator.
    d_conv1: Conv2d,
    d_conv2: Conv2d,
    d_bn: Norm2d,
    d_fc: Linear,
    opt_g: Adam,
    opt_d: Adam,
    data: Tensor,
    iteration: u64,
}

impl Dcgan {
    /// Build the app at the given scale.
    #[must_use]
    pub fn new(scale: MlScale, seed: u64) -> Self {
        let s4 = scale.image / 4;
        let (ngf, ndf, z_dim) = (32, 32, 64);
        Self {
            scale,
            z_dim,
            g_fc: Linear::new(z_dim, 2 * ngf * s4 * s4, seed),
            g_bn0: Norm2d::batch(2 * ngf),
            g_up1: ConvTranspose2d::new(2 * ngf, ngf, 4, 2, 1, seed + 1),
            g_bn1: Norm2d::batch(ngf),
            g_up2: ConvTranspose2d::new(ngf, 3, 4, 2, 1, seed + 2),
            d_conv1: Conv2d::new(3, ndf, 4, 2, 1, seed + 3),
            d_conv2: Conv2d::new(ndf, 2 * ndf, 4, 2, 1, seed + 4),
            d_bn: Norm2d::batch(2 * ndf),
            d_fc: Linear::new(2 * ndf * s4 * s4, 1, seed + 5),
            opt_g: Adam::with_betas(2e-3, 0.5, 0.999),
            opt_d: Adam::with_betas(2e-3, 0.5, 0.999),
            data: datasets::celeba_like(scale.batch * 4, scale.image, seed + 10),
            iteration: 0,
        }
    }

    fn real_batch(&self) -> Tensor {
        let b = self.scale.batch;
        let img = 3 * self.scale.image * self.scale.image;
        let n_total = self.data.shape()[0];
        let start = (self.iteration as usize * b) % n_total.saturating_sub(b).max(1);
        Tensor::from_vec(
            &[b, 3, self.scale.image, self.scale.image],
            self.data.data()[start * img..(start + b) * img].to_vec(),
        )
    }

    fn generator_forward(
        &mut self,
        g: &mut Graph,
        gpu: &mut dyn LaunchSink,
        z: Tensor,
    ) -> crate::VarId {
        let b = self.scale.batch;
        let s4 = self.scale.image / 4;
        let zin = g.input(z);
        let fc = self.g_fc.forward(g, gpu, zin);
        let shaped = g.reshape(fc, &[b, 64, s4, s4]);
        let n0 = self.g_bn0.forward(g, gpu, shaped);
        let r0 = g.relu(gpu, n0);
        let u1 = self.g_up1.forward(g, gpu, r0);
        let n1 = self.g_bn1.forward(g, gpu, u1);
        let r1 = g.relu(gpu, n1);
        let u2 = self.g_up2.forward(g, gpu, r1);
        g.tanh(gpu, u2)
    }

    fn discriminator_forward(
        &mut self,
        g: &mut Graph,
        gpu: &mut dyn LaunchSink,
        x: crate::VarId,
    ) -> crate::VarId {
        let b = self.scale.batch;
        let s4 = self.scale.image / 4;
        let c1 = self.d_conv1.forward(g, gpu, x);
        let l1 = g.leaky_relu(gpu, c1, 0.2);
        let c2 = self.d_conv2.forward(g, gpu, l1);
        let n2 = self.d_bn.forward(g, gpu, c2);
        let l2 = g.leaky_relu(gpu, n2, 0.2);
        let flat = g.reshape(l2, &[b, 64 * s4 * s4]);
        self.d_fc.forward(g, gpu, flat)
    }

    /// One alternating D/G training iteration.
    pub fn train_iteration(&mut self, gpu: &mut dyn LaunchSink) -> GanLosses {
        let b = self.scale.batch;
        let seed = 1000 + self.iteration;

        // ---- Discriminator step (fake batch detached) -------------------
        let mut g = Graph::new();
        let z = Tensor::randn(&[b, self.z_dim], 1.0, seed);
        let fake = self.generator_forward(&mut g, gpu, z.clone());
        let fake_detached = g.input(g.value(fake).clone());

        let real = g.input(self.real_batch());
        let d_real = self.discriminator_forward(&mut g, gpu, real);
        let loss_real = g.bce_with_logits(gpu, d_real, Tensor::full(&[b, 1], 1.0));
        let d_fake = self.discriminator_forward(&mut g, gpu, fake_detached);
        let loss_fake = g.bce_with_logits(gpu, d_fake, Tensor::zeros(&[b, 1]));
        let d_loss = g.add(gpu, loss_real, loss_fake);
        g.backward(gpu, d_loss);
        self.opt_d.begin_step();
        self.d_conv1.update(&g, &mut self.opt_d, gpu);
        self.d_conv2.update(&g, &mut self.opt_d, gpu);
        self.d_bn.update(&g, &mut self.opt_d, gpu);
        self.d_fc.update(&g, &mut self.opt_d, gpu);
        let d_loss_v = g.value(d_loss).data()[0];

        // ---- Generator step ----------------------------------------------
        let mut g = Graph::new();
        let fake = self.generator_forward(&mut g, gpu, z);
        let d_out = self.discriminator_forward(&mut g, gpu, fake);
        let g_loss = g.bce_with_logits(gpu, d_out, Tensor::full(&[b, 1], 1.0));
        g.backward(gpu, g_loss);
        self.opt_g.begin_step();
        self.g_fc.update(&g, &mut self.opt_g, gpu);
        self.g_bn0.update(&g, &mut self.opt_g, gpu);
        self.g_up1.update(&g, &mut self.opt_g, gpu);
        self.g_bn1.update(&g, &mut self.opt_g, gpu);
        self.g_up2.update(&g, &mut self.opt_g, gpu);
        let g_loss_v = g.value(g_loss).data()[0];

        self.iteration += 1;
        GanLosses {
            d_loss: d_loss_v,
            g_loss: g_loss_v,
        }
    }

    /// Run the configured number of iterations; returns the final losses.
    pub fn run(&mut self, gpu: &mut dyn LaunchSink) -> GanLosses {
        let mut last = GanLosses {
            d_loss: 0.0,
            g_loss: 0.0,
        };
        for _ in 0..self.scale.iterations {
            last = self.train_iteration(gpu);
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::kernel::KernelDesc;
    use std::collections::BTreeSet;

    #[test]
    fn dcgan_trains_without_nan() {
        let mut launches = Vec::new();
        let mut app = Dcgan::new(MlScale::tiny(), 1);
        let losses = app.run(&mut launches);
        assert!(losses.d_loss.is_finite() && losses.d_loss > 0.0);
        assert!(losses.g_loss.is_finite() && losses.g_loss > 0.0);
    }

    #[test]
    fn dcgan_executes_many_distinct_kernels() {
        let mut launches = Vec::new();
        let mut app = Dcgan::new(MlScale::tiny(), 2);
        let _ = app.train_iteration(&mut launches);
        let names: BTreeSet<&str> = launches.iter().map(KernelDesc::name).collect();
        // GAN training exercises convT (dgrad engine), conv, BN, BCE,
        // tanh/leaky-relu fwd+bwd, GEMMs and Adam.
        assert!(names.len() >= 25, "only {} kernels: {names:?}", names.len());
        assert!(names.iter().any(|n| n.contains("dgrad")));
        assert!(names.iter().any(|n| n.contains("adam")));
        assert!(names.iter().any(|n| n.contains("batch_norm")));
        assert!(names.iter().any(|n| n.contains("binary_cross_entropy")));
    }

    #[test]
    fn generator_improves_against_fixed_discriminator_target() {
        let mut launches = Vec::new();
        let mut app = Dcgan::new(
            MlScale {
                batch: 4,
                image: 8,
                iterations: 10,
            },
            3,
        );
        let mut losses = Vec::new();
        for _ in 0..10 {
            losses.push(app.train_iteration(&mut launches));
        }
        // Adversarial losses stay bounded (no divergence).
        assert!(losses.iter().all(|l| l.d_loss < 20.0 && l.g_loss < 20.0));
    }
}
