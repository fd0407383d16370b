//! Neural-network layers: parameter containers with forward methods that
//! register their parameters on the current tape and remember the resulting
//! ids so gradients can be applied after `backward`.
//!
//! The usage contract per training iteration is PyTorch-like:
//!
//! 1. build a fresh [`Graph`], call each layer's `forward`,
//! 2. compute a loss, call [`Graph::backward`],
//! 3. `opt.begin_step()`, then call each layer's `update` in a fixed order.

use cactus_gpu::LaunchSink;

use crate::graph::{Graph, VarId};
use crate::optim::Optimizer;
use crate::tensor::Tensor;

fn update_param(
    g: &Graph,
    opt: &mut dyn Optimizer,
    gpu: &mut dyn LaunchSink,
    id: Option<VarId>,
    param: &mut Tensor,
) {
    match id.and_then(|i| g.grad(i).cloned()) {
        Some(grad) => opt.update(gpu, param, &grad),
        None => opt.skip(),
    }
}

/// Fully connected layer `[in] → [out]` with bias.
#[derive(Debug, Clone)]
pub(crate) struct Linear {
    /// Weight `[in, out]`.
    pub weight: Tensor,
    /// Bias `[out]`.
    pub bias: Tensor,
    w_id: Option<VarId>,
    b_id: Option<VarId>,
}

impl Linear {
    /// Xavier-initialized linear layer.
    #[must_use]
    pub(crate) fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let std = (2.0 / (in_dim + out_dim) as f32).sqrt();
        Self {
            weight: Tensor::randn(&[in_dim, out_dim], std, seed),
            bias: Tensor::zeros(&[out_dim]),
            w_id: None,
            b_id: None,
        }
    }

    /// Forward `x[n,in] → [n,out]`.
    pub(crate) fn forward(&mut self, g: &mut Graph, gpu: &mut dyn LaunchSink, x: VarId) -> VarId {
        let w = g.param(self.weight.clone());
        let b = g.param(self.bias.clone());
        self.w_id = Some(w);
        self.b_id = Some(b);
        let y = g.matmul(gpu, x, w);
        g.add_bias_rows(gpu, y, b)
    }

    /// Apply accumulated gradients.
    pub(crate) fn update(&mut self, g: &Graph, opt: &mut dyn Optimizer, gpu: &mut dyn LaunchSink) {
        update_param(g, opt, gpu, self.w_id.take(), &mut self.weight);
        update_param(g, opt, gpu, self.b_id.take(), &mut self.bias);
    }
}

/// 2-D convolution layer.
#[derive(Debug, Clone)]
pub(crate) struct Conv2d {
    /// Weight `[oc, ic, k, k]`.
    pub weight: Tensor,
    /// Bias `[oc]`.
    pub bias: Tensor,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
    w_id: Option<VarId>,
    b_id: Option<VarId>,
}

impl Conv2d {
    /// He-initialized convolution.
    #[must_use]
    pub(crate) fn new(
        ic: usize,
        oc: usize,
        k: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        let std = (2.0 / (ic * k * k) as f32).sqrt();
        Self {
            weight: Tensor::randn(&[oc, ic, k, k], std, seed),
            bias: Tensor::zeros(&[oc]),
            stride,
            pad,
            w_id: None,
            b_id: None,
        }
    }

    /// Forward NCHW convolution.
    pub(crate) fn forward(&mut self, g: &mut Graph, gpu: &mut dyn LaunchSink, x: VarId) -> VarId {
        let w = g.param(self.weight.clone());
        let b = g.param(self.bias.clone());
        self.w_id = Some(w);
        self.b_id = Some(b);
        let y = g.conv2d(gpu, x, w, self.stride, self.pad);
        g.add_bias_nchw(gpu, y, b)
    }

    /// Apply accumulated gradients.
    pub(crate) fn update(&mut self, g: &Graph, opt: &mut dyn Optimizer, gpu: &mut dyn LaunchSink) {
        update_param(g, opt, gpu, self.w_id.take(), &mut self.weight);
        update_param(g, opt, gpu, self.b_id.take(), &mut self.bias);
    }
}

/// Transposed 2-D convolution layer (upsampling).
#[derive(Debug, Clone)]
pub(crate) struct ConvTranspose2d {
    /// Weight `[ic, oc, k, k]`.
    pub weight: Tensor,
    /// Bias `[oc]`.
    pub bias: Tensor,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
    w_id: Option<VarId>,
    b_id: Option<VarId>,
}

impl ConvTranspose2d {
    /// He-initialized transposed convolution.
    #[must_use]
    pub(crate) fn new(
        ic: usize,
        oc: usize,
        k: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        let std = (2.0 / (ic * k * k) as f32).sqrt();
        Self {
            weight: Tensor::randn(&[ic, oc, k, k], std, seed),
            bias: Tensor::zeros(&[oc]),
            stride,
            pad,
            w_id: None,
            b_id: None,
        }
    }

    /// Forward NCHW transposed convolution.
    pub(crate) fn forward(&mut self, g: &mut Graph, gpu: &mut dyn LaunchSink, x: VarId) -> VarId {
        let w = g.param(self.weight.clone());
        let b = g.param(self.bias.clone());
        self.w_id = Some(w);
        self.b_id = Some(b);
        let y = g.conv_transpose2d(gpu, x, w, self.stride, self.pad);
        g.add_bias_nchw(gpu, y, b)
    }

    /// Apply accumulated gradients.
    pub(crate) fn update(&mut self, g: &Graph, opt: &mut dyn Optimizer, gpu: &mut dyn LaunchSink) {
        update_param(g, opt, gpu, self.w_id.take(), &mut self.weight);
        update_param(g, opt, gpu, self.b_id.take(), &mut self.bias);
    }
}

/// Batch normalization layer.
#[derive(Debug, Clone)]
pub(crate) struct Norm2d {
    /// Scale `[c]`.
    pub gamma: Tensor,
    /// Shift `[c]`.
    pub beta: Tensor,
    g_id: Option<VarId>,
    b_id: Option<VarId>,
}

impl Norm2d {
    /// Batch normalization over `c` channels.
    #[must_use]
    pub(crate) fn batch(c: usize) -> Self {
        Self {
            gamma: Tensor::full(&[c], 1.0),
            beta: Tensor::zeros(&[c]),
            g_id: None,
            b_id: None,
        }
    }

    /// Forward normalization.
    pub(crate) fn forward(&mut self, g: &mut Graph, gpu: &mut dyn LaunchSink, x: VarId) -> VarId {
        let gamma = g.param(self.gamma.clone());
        let beta = g.param(self.beta.clone());
        self.g_id = Some(gamma);
        self.b_id = Some(beta);
        g.batchnorm2d(gpu, x, gamma, beta)
    }

    /// Apply accumulated gradients.
    pub(crate) fn update(&mut self, g: &Graph, opt: &mut dyn Optimizer, gpu: &mut dyn LaunchSink) {
        update_param(g, opt, gpu, self.g_id.take(), &mut self.gamma);
        update_param(g, opt, gpu, self.b_id.take(), &mut self.beta);
    }
}

/// Token-embedding layer.
#[derive(Debug, Clone)]
pub(crate) struct Embedding {
    /// Table `[vocab, dim]`.
    pub table: Tensor,
    t_id: Option<VarId>,
}

impl Embedding {
    /// Gaussian-initialized embedding table.
    #[must_use]
    pub(crate) fn new(vocab: usize, dim: usize, seed: u64) -> Self {
        Self {
            table: Tensor::randn(&[vocab, dim], 0.1, seed),
            t_id: None,
        }
    }

    /// Gather `indices` → `[len, dim]`.
    pub(crate) fn forward(
        &mut self,
        g: &mut Graph,
        gpu: &mut dyn LaunchSink,
        indices: &[usize],
    ) -> VarId {
        let t = g.param(self.table.clone());
        self.t_id = Some(t);
        g.embedding(gpu, t, indices)
    }

    /// Apply accumulated gradients.
    pub(crate) fn update(&mut self, g: &Graph, opt: &mut dyn Optimizer, gpu: &mut dyn LaunchSink) {
        update_param(g, opt, gpu, self.t_id.take(), &mut self.table);
    }
}

/// A GRU cell built from the framework's primitive ops (matmul, sigmoid,
/// tanh, Hadamard products), as PyTorch does without the fused cuDNN RNN.
#[derive(Debug, Clone)]
pub(crate) struct GruCell {
    /// Update-gate input weights.
    pub wz: Linear,
    /// Update-gate hidden weights.
    pub uz: Linear,
    /// Reset-gate input weights.
    pub wr: Linear,
    /// Reset-gate hidden weights.
    pub ur: Linear,
    /// Candidate input weights.
    pub wh: Linear,
    /// Candidate hidden weights.
    pub uh: Linear,
}

impl GruCell {
    /// A GRU cell `[in] → [hidden]`.
    #[must_use]
    pub(crate) fn new(in_dim: usize, hidden: usize, seed: u64) -> Self {
        Self {
            wz: Linear::new(in_dim, hidden, seed),
            uz: Linear::new(hidden, hidden, seed + 1),
            wr: Linear::new(in_dim, hidden, seed + 2),
            ur: Linear::new(hidden, hidden, seed + 3),
            wh: Linear::new(in_dim, hidden, seed + 4),
            uh: Linear::new(hidden, hidden, seed + 5),
        }
    }

    /// One step: `h' = h̃ + z ⊙ (h − h̃)`.
    pub(crate) fn forward(
        &mut self,
        g: &mut Graph,
        gpu: &mut dyn LaunchSink,
        x: VarId,
        h: VarId,
    ) -> VarId {
        let z_in = self.wz.forward(g, gpu, x);
        let z_h = self.uz.forward(g, gpu, h);
        let z_pre = g.add(gpu, z_in, z_h);
        let z = g.sigmoid(gpu, z_pre);

        let r_in = self.wr.forward(g, gpu, x);
        let r_h = self.ur.forward(g, gpu, h);
        let r_pre = g.add(gpu, r_in, r_h);
        let r = g.sigmoid(gpu, r_pre);

        let rh = g.mul(gpu, r, h);
        let c_in = self.wh.forward(g, gpu, x);
        let c_h = self.uh.forward(g, gpu, rh);
        let c_pre = g.add(gpu, c_in, c_h);
        let c = g.tanh(gpu, c_pre);

        // h' = c + z·(h − c)
        let h_minus_c = g.sub(gpu, h, c);
        let gated = g.mul(gpu, z, h_minus_c);
        g.add(gpu, c, gated)
    }

    /// Apply accumulated gradients (fixed order: z, r, h gates).
    pub(crate) fn update(&mut self, g: &Graph, opt: &mut dyn Optimizer, gpu: &mut dyn LaunchSink) {
        self.wz.update(g, opt, gpu);
        self.uz.update(g, opt, gpu);
        self.wr.update(g, opt, gpu);
        self.ur.update(g, opt, gpu);
        self.wh.update(g, opt, gpu);
        self.uh.update(g, opt, gpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;

    /// A linear layer must be able to fit y = 2x + 1.
    #[test]
    fn linear_fits_affine_function() {
        let mut launches = Vec::new();
        let mut layer = Linear::new(1, 1, 42);
        let mut opt = Sgd::new(0.05, 0.0);
        let mut last_loss = f32::INFINITY;
        for step in 0..300 {
            let mut g = Graph::new();
            let xs = Tensor::from_vec(&[4, 1], vec![-1.0, 0.0, 1.0, 2.0]);
            let ys = Tensor::from_vec(&[4, 1], vec![-1.0, 1.0, 3.0, 5.0]);
            let x = g.input(xs);
            let y = g.input(ys);
            let pred = layer.forward(&mut g, &mut launches, x);
            let loss = g.mse_loss(&mut launches, pred, y);
            g.backward(&mut launches, loss);
            opt.begin_step();
            layer.update(&g, &mut opt, &mut launches);
            last_loss = g.value(loss).data()[0];
            if step % 100 == 0 {
                assert!(last_loss.is_finite());
            }
        }
        assert!(last_loss < 1e-3, "loss {last_loss}");
        assert!((layer.weight.data()[0] - 2.0).abs() < 0.05);
        assert!((layer.bias.data()[0] - 1.0).abs() < 0.05);
    }

    #[test]
    fn conv_layer_shapes() {
        let mut launches = Vec::new();
        let mut g = Graph::new();
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 7);
        let x = g.input(Tensor::randn(&[2, 3, 8, 8], 1.0, 1));
        let y = conv.forward(&mut g, &mut launches, x);
        assert_eq!(g.value(y).shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn conv_transpose_upsamples() {
        let mut launches = Vec::new();
        let mut g = Graph::new();
        let mut convt = ConvTranspose2d::new(8, 4, 4, 2, 1, 7);
        let x = g.input(Tensor::randn(&[2, 8, 4, 4], 1.0, 1));
        let y = convt.forward(&mut g, &mut launches, x);
        assert_eq!(g.value(y).shape(), &[2, 4, 8, 8]);
    }

    #[test]
    fn gru_cell_output_is_bounded_blend() {
        let mut launches = Vec::new();
        let mut g = Graph::new();
        let mut cell = GruCell::new(4, 6, 11);
        let x = g.input(Tensor::randn(&[3, 4], 1.0, 2));
        let h = g.input(Tensor::zeros(&[3, 6]));
        let h2 = cell.forward(&mut g, &mut launches, x, h);
        assert_eq!(g.value(h2).shape(), &[3, 6]);
        // With h = 0 the new state is (1−z)·tanh(...) ∈ (−1, 1).
        assert!(g.value(h2).max_abs() < 1.0);
    }

    #[test]
    fn gru_gradients_reach_all_gates() {
        let mut launches = Vec::new();
        let mut g = Graph::new();
        let mut cell = GruCell::new(3, 5, 13);
        let x = g.input(Tensor::randn(&[2, 3], 1.0, 3));
        let h = g.input(Tensor::randn(&[2, 5], 0.5, 4));
        let h2 = cell.forward(&mut g, &mut launches, x, h);
        let loss = g.mean(&mut launches, h2);
        g.backward(&mut launches, loss);
        let mut opt = Sgd::new(0.1, 0.0);
        opt.begin_step();
        // Must not panic and must consume 12 slots (6 linears × w,b).
        cell.update(&g, &mut opt, &mut launches);
    }

    #[test]
    fn norm_layer_roundtrip() {
        let mut launches = Vec::new();
        let mut g = Graph::new();
        let mut bn = Norm2d::batch(4);
        let x = g.input(Tensor::randn(&[2, 4, 4, 4], 3.0, 5));
        let y = bn.forward(&mut g, &mut launches, x);
        assert!(g.value(y).mean().abs() < 1e-4);
    }
}
