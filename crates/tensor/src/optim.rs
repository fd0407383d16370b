//! Optimizers: SGD with momentum and Adam, each lowering to its fused
//! update kernel.
//!
//! Optimizer state is keyed by the order of [`Optimizer::update`] calls
//! within a step (`begin_step` resets the slot counter), so applications
//! must update their layers in a fixed order every iteration — the same
//! contract PyTorch's parameter groups impose.

use cactus_gpu::Gpu;

use crate::kernels;
use crate::tensor::Tensor;

/// Common optimizer interface.
pub trait Optimizer {
    /// Start a new optimization step (resets the per-step slot counter and
    /// advances time-dependent state such as Adam's bias correction).
    fn begin_step(&mut self);
    /// Apply the gradient to one parameter tensor.
    fn update(&mut self, gpu: &mut Gpu, param: &mut Tensor, grad: &Tensor);
    /// Consume a slot without updating (parameter had no gradient this
    /// step). Keeps slot keying stable.
    fn skip(&mut self);
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
    slot: usize,
}

impl Sgd {
    /// SGD with the given learning rate and momentum coefficient.
    #[must_use]
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
            slot: 0,
        }
    }
}

impl Optimizer for Sgd {
    fn begin_step(&mut self) {
        self.slot = 0;
    }

    fn update(&mut self, gpu: &mut Gpu, param: &mut Tensor, grad: &Tensor) {
        assert_eq!(param.len(), grad.len(), "param/grad size");
        if self.velocity.len() <= self.slot {
            self.velocity.resize(self.slot + 1, Vec::new());
        }
        let (lr, momentum) = (self.lr, self.momentum);
        let v = &mut self.velocity[self.slot];
        if v.len() != param.len() {
            *v = vec![0.0; param.len()];
        }
        for ((p, &g), vel) in param
            .data_mut()
            .iter_mut()
            .zip(grad.data())
            .zip(v.iter_mut())
        {
            *vel = momentum * *vel + g;
            *p -= lr * *vel;
        }
        kernels::sgd_step(gpu, param.len());
        self.slot += 1;
    }

    fn skip(&mut self) {
        self.slot += 1;
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    slot: usize,
}

impl Adam {
    /// Adam with the given learning rate and the standard betas
    /// (0.9, 0.999).
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999)
    }

    /// Adam with explicit betas (DCGAN uses β₁ = 0.5).
    #[must_use]
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Self {
        Self {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
            slot: 0,
        }
    }
}

impl Optimizer for Adam {
    fn begin_step(&mut self) {
        self.slot = 0;
        self.t += 1;
    }

    fn update(&mut self, gpu: &mut Gpu, param: &mut Tensor, grad: &Tensor) {
        assert_eq!(param.len(), grad.len(), "param/grad size");
        if self.m.len() <= self.slot {
            self.m.resize(self.slot + 1, Vec::new());
            self.v.resize(self.slot + 1, Vec::new());
        }
        if self.m[self.slot].len() != param.len() {
            self.m[self.slot] = vec![0.0; param.len()];
            self.v[self.slot] = vec![0.0; param.len()];
        }
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let t = self.t.max(1) as i32;
        let bc1 = 1.0 - beta1.powi(t);
        let bc2 = 1.0 - beta2.powi(t);
        let (m, v) = (&mut self.m[self.slot], &mut self.v[self.slot]);
        let moments = m.iter_mut().zip(v.iter_mut());
        for ((p, &g), (m, v)) in param.data_mut().iter_mut().zip(grad.data()).zip(moments) {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + eps);
        }
        kernels::adam_step(gpu, param.len());
        self.slot += 1;
    }

    fn skip(&mut self) {
        self.slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::Device;

    fn gpu() -> Gpu {
        Gpu::new(Device::rtx3080())
    }

    /// Minimize f(x) = (x − 3)² with each optimizer.
    fn minimize(opt: &mut dyn Optimizer, iters: usize) -> f32 {
        let mut gpu = gpu();
        let mut x = Tensor::from_vec(&[1], vec![0.0]);
        for _ in 0..iters {
            let g = Tensor::from_vec(&[1], vec![2.0 * (x.data()[0] - 3.0)]);
            opt.begin_step();
            opt.update(&mut gpu, &mut x, &g);
        }
        x.data()[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0);
        let x = minimize(&mut opt, 100);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::new(0.05, 0.9);
        let x = minimize(&mut opt, 200);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.2);
        let x = minimize(&mut opt, 200);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn slots_track_multiple_params() {
        let mut gpu = gpu();
        let mut opt = Adam::new(0.1);
        let mut a = Tensor::from_vec(&[2], vec![0.0, 0.0]);
        let mut b = Tensor::from_vec(&[3], vec![0.0, 0.0, 0.0]);
        for _ in 0..5 {
            opt.begin_step();
            opt.update(&mut gpu, &mut a, &Tensor::full(&[2], 1.0));
            opt.update(&mut gpu, &mut b, &Tensor::full(&[3], -1.0));
        }
        assert!(a.data()[0] < 0.0);
        assert!(b.data()[0] > 0.0);
    }

    #[test]
    fn skip_preserves_slot_alignment() {
        let mut gpu = gpu();
        let mut opt = Sgd::new(0.1, 0.9);
        let mut a = Tensor::from_vec(&[1], vec![0.0]);
        let mut b = Tensor::from_vec(&[1], vec![0.0]);
        // Step 1: update both.
        opt.begin_step();
        opt.update(&mut gpu, &mut a, &Tensor::full(&[1], 1.0));
        opt.update(&mut gpu, &mut b, &Tensor::full(&[1], 1.0));
        // Step 2: skip a, update b — b's momentum must continue, not a's.
        let b_before = b.data()[0];
        opt.begin_step();
        opt.skip();
        opt.update(&mut gpu, &mut b, &Tensor::full(&[1], 1.0));
        // With momentum 0.9 and two accumulated gradients, b moves more
        // than a fresh slot would (0.1 · (0.9 + 1) vs 0.1 · 1).
        assert!((b_before - b.data()[0]) > 0.15);
    }

    #[test]
    fn optimizers_launch_their_kernels() {
        let mut g = gpu();
        let mut adam = Adam::new(0.1);
        let mut p = Tensor::zeros(&[64]);
        adam.begin_step();
        adam.update(&mut g, &mut p, &Tensor::full(&[64], 0.1));
        assert!(g.records().iter().any(|r| r.name.contains("adam")));
    }
}
