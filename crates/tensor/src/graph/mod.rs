//! Tape-based autograd.
//!
//! A [`Graph`] is an arena of value nodes plus a tape of executed ops. Each
//! op's forward method computes the real result on CPU *and* launches the
//! kernels a PyTorch/cuDNN stack would launch for that op (via
//! [`crate::kernels`]); [`Graph::backward`] replays the tape in reverse,
//! accumulating gradients and launching the corresponding backward kernels
//! (dgrad/wgrad engines, `*_backward` elementwise variants, …).

pub mod conv;

mod backward;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cactus_gpu::Gpu;

use crate::kernels;
use crate::tensor::Tensor;

/// Handle to a node in the graph.
pub type VarId = usize;

/// Whether a normalization op normalizes per-channel over the batch
/// (batch norm) or per-sample-and-channel (instance norm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormScope {
    /// Normalize over (N, H, W) per channel.
    Batch,
    /// Normalize over (H, W) per sample and channel.
    Instance,
}

#[derive(Debug, Clone)]
struct Node {
    value: Tensor,
    grad: Option<Tensor>,
}

#[derive(Debug, Clone)]
enum Op {
    MatMul {
        a: VarId,
        b: VarId,
    },
    Add {
        a: VarId,
        b: VarId,
    },
    Sub {
        a: VarId,
        b: VarId,
    },
    Mul {
        a: VarId,
        b: VarId,
    },
    Scale {
        a: VarId,
        factor: f32,
    },
    AddBiasRows {
        a: VarId,
        bias: VarId,
    },
    AddBiasNchw {
        a: VarId,
        bias: VarId,
    },
    Relu {
        a: VarId,
    },
    LeakyRelu {
        a: VarId,
        slope: f32,
    },
    Tanh {
        a: VarId,
    },
    Sigmoid {
        a: VarId,
    },
    Dropout {
        a: VarId,
        mask: Vec<f32>,
    },
    Reshape {
        a: VarId,
        old_shape: Vec<usize>,
    },
    Transpose2d {
        a: VarId,
    },
    SumRows {
        a: VarId,
    },
    SoftmaxRows {
        a: VarId,
        probs: Tensor,
    },
    MulColBroadcast {
        a: VarId,
        col: VarId,
    },
    ConcatCols {
        a: VarId,
        b: VarId,
        ca: usize,
        cb: usize,
    },
    SliceCols {
        a: VarId,
        start: usize,
        end: usize,
    },
    Conv2d {
        x: VarId,
        w: VarId,
        stride: usize,
        pad: usize,
    },
    ConvT2d {
        x: VarId,
        w: VarId,
        stride: usize,
        pad: usize,
    },
    MaxPool {
        x: VarId,
        k: usize,
        argmax: Vec<usize>,
    },
    Norm {
        x: VarId,
        gamma: VarId,
        beta: VarId,
        scope: NormScope,
        xhat: Tensor,
        inv_std: Vec<f32>,
    },
    SoftmaxCe {
        logits: VarId,
        probs: Tensor,
        targets: Vec<usize>,
    },
    BceLogits {
        logits: VarId,
        targets: Tensor,
    },
    Mse {
        a: VarId,
        b: VarId,
    },
    Mean {
        a: VarId,
    },
    Embedding {
        table: VarId,
        indices: Vec<usize>,
    },
    SpatialTransform {
        x: VarId,
        theta: VarId,
        oh: usize,
        ow: usize,
    },
}

#[derive(Debug, Clone)]
struct OpRecord {
    op: Op,
    out: VarId,
}

/// The autograd graph/tape.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    tape: Vec<OpRecord>,
}

impl Graph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a non-trainable input.
    pub fn input(&mut self, value: Tensor) -> VarId {
        self.push_node(value)
    }

    /// Register a trainable parameter.
    pub fn param(&mut self, value: Tensor) -> VarId {
        self.push_node(value)
    }

    fn push_node(&mut self, value: Tensor) -> VarId {
        self.nodes.push(Node { value, grad: None });
        self.nodes.len() - 1
    }

    fn push_op(&mut self, op: Op, value: Tensor) -> VarId {
        let out = self.push_node(value);
        self.tape.push(OpRecord { op, out });
        out
    }

    /// Value of a node.
    #[must_use]
    pub fn value(&self, id: VarId) -> &Tensor {
        &self.nodes[id].value
    }

    /// Overwrite a node's value in place (used by optimizers and
    /// environment feeds). Shape must match.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn set_value(&mut self, id: VarId, value: Tensor) {
        assert_eq!(
            self.nodes[id].value.shape(),
            value.shape(),
            "set_value must preserve shape"
        );
        self.nodes[id].value = value;
    }

    /// Gradient accumulated at a node, if any.
    #[must_use]
    pub fn grad(&self, id: VarId) -> Option<&Tensor> {
        self.nodes[id].grad.as_ref()
    }

    /// Number of nodes currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph holds no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn acc_grad(&mut self, id: VarId, g: Tensor) {
        match &mut self.nodes[id].grad {
            Some(existing) => {
                for (e, v) in existing.data_mut().iter_mut().zip(g.data()) {
                    *e += v;
                }
            }
            slot @ None => *slot = Some(g),
        }
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `[m,k] × [k,n] → [m,n]`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul(&mut self, gpu: &mut Gpu, a: VarId, b: VarId) -> VarId {
        let (av, bv) = (&self.nodes[a].value, &self.nodes[b].value);
        let (m, k) = (av.shape()[0], av.shape()[1]);
        let (k2, n) = (bv.shape()[0], bv.shape()[1]);
        assert_eq!(k, k2, "matmul inner dimensions");
        let mut out = Tensor::zeros(&[m, n]);
        matmul_into(av, bv, &mut out, false, false);
        kernels::gemm(gpu, m, n, k, false, false);
        self.push_op(Op::MatMul { a, b }, out)
    }

    // ------------------------------------------------------------------
    // Elementwise
    // ------------------------------------------------------------------

    /// Elementwise sum of same-shape tensors.
    pub fn add(&mut self, gpu: &mut Gpu, a: VarId, b: VarId) -> VarId {
        let out = zip_same(&self.nodes[a].value, &self.nodes[b].value, |x, y| x + y);
        kernels::elementwise(gpu, "add", out.len(), 2, 1);
        self.push_op(Op::Add { a, b }, out)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, gpu: &mut Gpu, a: VarId, b: VarId) -> VarId {
        let out = zip_same(&self.nodes[a].value, &self.nodes[b].value, |x, y| x - y);
        kernels::elementwise(gpu, "sub", out.len(), 2, 1);
        self.push_op(Op::Sub { a, b }, out)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, gpu: &mut Gpu, a: VarId, b: VarId) -> VarId {
        let out = zip_same(&self.nodes[a].value, &self.nodes[b].value, |x, y| x * y);
        kernels::elementwise(gpu, "mul", out.len(), 2, 1);
        self.push_op(Op::Mul { a, b }, out)
    }

    /// Multiply by a scalar.
    pub fn scale(&mut self, gpu: &mut Gpu, a: VarId, factor: f32) -> VarId {
        let out = map_tensor(&self.nodes[a].value, |x| x * factor);
        kernels::elementwise(gpu, "mul_scalar", out.len(), 1, 1);
        self.push_op(Op::Scale { a, factor }, out)
    }

    /// Add a `[f]` bias to every row of a `[n,f]` matrix.
    pub fn add_bias_rows(&mut self, gpu: &mut Gpu, a: VarId, bias: VarId) -> VarId {
        let av = &self.nodes[a].value;
        let bv = &self.nodes[bias].value;
        let (n, f) = (av.shape()[0], av.shape()[1]);
        assert_eq!(bv.len(), f, "bias width");
        let mut out = av.clone();
        for r in 0..n {
            for c in 0..f {
                out.data_mut()[r * f + c] += bv.data()[c];
            }
        }
        kernels::elementwise(gpu, "add", out.len(), 2, 1);
        self.push_op(Op::AddBiasRows { a, bias }, out)
    }

    /// Add a `[c]` bias to every channel of an NCHW tensor.
    pub fn add_bias_nchw(&mut self, gpu: &mut Gpu, a: VarId, bias: VarId) -> VarId {
        let av = &self.nodes[a].value;
        let bv = &self.nodes[bias].value;
        let (n, c, h, w) = conv::dims4(av);
        assert_eq!(bv.len(), c, "bias width");
        let mut out = av.clone();
        for b in 0..n {
            for ch in 0..c {
                let add = bv.data()[ch];
                let base = (b * c + ch) * h * w;
                for i in 0..h * w {
                    out.data_mut()[base + i] += add;
                }
            }
        }
        kernels::elementwise(gpu, "add", out.len(), 2, 1);
        self.push_op(Op::AddBiasNchw { a, bias }, out)
    }

    /// ReLU.
    pub fn relu(&mut self, gpu: &mut Gpu, a: VarId) -> VarId {
        let out = map_tensor(&self.nodes[a].value, |x| x.max(0.0));
        kernels::elementwise(gpu, "relu", out.len(), 1, 1);
        self.push_op(Op::Relu { a }, out)
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, gpu: &mut Gpu, a: VarId, slope: f32) -> VarId {
        let out = map_tensor(
            &self.nodes[a].value,
            |x| if x > 0.0 { x } else { slope * x },
        );
        kernels::elementwise(gpu, "leaky_relu", out.len(), 1, 2);
        self.push_op(Op::LeakyRelu { a, slope }, out)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, gpu: &mut Gpu, a: VarId) -> VarId {
        let out = map_tensor(&self.nodes[a].value, f32::tanh);
        kernels::elementwise(gpu, "tanh", out.len(), 1, 3);
        self.push_op(Op::Tanh { a }, out)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, gpu: &mut Gpu, a: VarId) -> VarId {
        let out = map_tensor(&self.nodes[a].value, |x| 1.0 / (1.0 + (-x).exp()));
        kernels::elementwise(gpu, "sigmoid", out.len(), 1, 3);
        self.push_op(Op::Sigmoid { a }, out)
    }

    /// Training-mode dropout with keep-scale `1/(1−p)`.
    pub fn dropout(&mut self, gpu: &mut Gpu, a: VarId, p: f32, seed: u64) -> VarId {
        let p = p.clamp(0.0, 0.95);
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 1.0 / (1.0 - p);
        let mask: Vec<f32> = (0..self.nodes[a].value.len())
            .map(|_| if rng.gen::<f32>() < p { 0.0 } else { scale })
            .collect();
        let av = &self.nodes[a].value;
        let mut out = av.clone();
        for (o, m) in out.data_mut().iter_mut().zip(&mask) {
            *o *= m;
        }
        kernels::elementwise(gpu, "dropout", out.len(), 1, 2);
        self.push_op(Op::Dropout { a, mask }, out)
    }

    /// Reshape (a view; no kernel).
    pub fn reshape(&mut self, a: VarId, shape: &[usize]) -> VarId {
        let old_shape = self.nodes[a].value.shape().to_vec();
        let out = self.nodes[a].value.reshaped(shape);
        self.push_op(Op::Reshape { a, old_shape }, out)
    }

    /// Matrix transpose `[m,n] → [n,m]`.
    pub fn transpose2d(&mut self, gpu: &mut Gpu, a: VarId) -> VarId {
        let av = &self.nodes[a].value;
        let (m, n) = (av.shape()[0], av.shape()[1]);
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data_mut()[j * m + i] = av.data()[i * n + j];
            }
        }
        kernels::copy(gpu, "transpose", out.len());
        self.push_op(Op::Transpose2d { a }, out)
    }

    /// Row-wise sum: `[n,f] → [n,1]`.
    pub fn sum_rows(&mut self, gpu: &mut Gpu, a: VarId) -> VarId {
        let av = &self.nodes[a].value;
        let (n, f) = (av.shape()[0], av.shape()[1]);
        let mut out = Tensor::zeros(&[n, 1]);
        for r in 0..n {
            out.data_mut()[r] = av.data()[r * f..(r + 1) * f].iter().sum();
        }
        kernels::reduce(gpu, "row_sum", av.len());
        self.push_op(Op::SumRows { a }, out)
    }

    /// Row-wise softmax over a `[n,f]` matrix (attention weights).
    pub fn softmax_rows(&mut self, gpu: &mut Gpu, a: VarId) -> VarId {
        let av = &self.nodes[a].value;
        let (n, f) = (av.shape()[0], av.shape()[1]);
        let mut probs = Tensor::zeros(&[n, f]);
        for r in 0..n {
            let row = &av.data()[r * f..(r + 1) * f];
            let maxv = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let exps: Vec<f32> = row.iter().map(|&x| (x - maxv).exp()).collect();
            let z: f32 = exps.iter().sum();
            for (c, e) in exps.iter().enumerate() {
                probs.data_mut()[r * f + c] = e / z;
            }
        }
        kernels::softmax(gpu, n, f, false, false);
        let out = probs.clone();
        self.push_op(Op::SoftmaxRows { a, probs }, out)
    }

    /// Multiply every column of `[n,f]` by the `[n,1]` column vector.
    pub fn mul_col_broadcast(&mut self, gpu: &mut Gpu, a: VarId, col: VarId) -> VarId {
        let av = &self.nodes[a].value;
        let cv = &self.nodes[col].value;
        let (n, f) = (av.shape()[0], av.shape()[1]);
        assert_eq!(cv.shape(), &[n, 1], "column vector shape");
        let mut out = av.clone();
        for r in 0..n {
            let s = cv.data()[r];
            for c in 0..f {
                out.data_mut()[r * f + c] *= s;
            }
        }
        kernels::elementwise(gpu, "mul", out.len(), 2, 1);
        self.push_op(Op::MulColBroadcast { a, col }, out)
    }

    /// Concatenate two matrices along columns: `[n,ca] ++ [n,cb] → [n,ca+cb]`.
    pub fn concat_cols(&mut self, gpu: &mut Gpu, a: VarId, b: VarId) -> VarId {
        let av = &self.nodes[a].value;
        let bv = &self.nodes[b].value;
        let (n, ca) = (av.shape()[0], av.shape()[1]);
        let (n2, cb) = (bv.shape()[0], bv.shape()[1]);
        assert_eq!(n, n2, "concat row counts");
        let mut out = Tensor::zeros(&[n, ca + cb]);
        for r in 0..n {
            out.data_mut()[r * (ca + cb)..r * (ca + cb) + ca]
                .copy_from_slice(&av.data()[r * ca..(r + 1) * ca]);
            out.data_mut()[r * (ca + cb) + ca..(r + 1) * (ca + cb)]
                .copy_from_slice(&bv.data()[r * cb..(r + 1) * cb]);
        }
        kernels::copy(gpu, "concat", out.len());
        self.push_op(Op::ConcatCols { a, b, ca, cb }, out)
    }

    /// Take columns `start..end` of a `[n,f]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the column range is out of bounds or empty.
    pub fn slice_cols(&mut self, gpu: &mut Gpu, a: VarId, start: usize, end: usize) -> VarId {
        let av = &self.nodes[a].value;
        let (n, f) = (av.shape()[0], av.shape()[1]);
        assert!(
            start < end && end <= f,
            "invalid column range {start}..{end} of {f}"
        );
        let width = end - start;
        let mut out = Tensor::zeros(&[n, width]);
        for r in 0..n {
            out.data_mut()[r * width..(r + 1) * width]
                .copy_from_slice(&av.data()[r * f + start..r * f + end]);
        }
        kernels::copy(gpu, "slice", out.len());
        self.push_op(Op::SliceCols { a, start, end }, out)
    }

    // ------------------------------------------------------------------
    // Convolution family
    // ------------------------------------------------------------------

    /// 2-D convolution: `x[n,ic,h,w] ⊛ w[oc,ic,kh,kw]`.
    pub fn conv2d(
        &mut self,
        gpu: &mut Gpu,
        x: VarId,
        w: VarId,
        stride: usize,
        pad: usize,
    ) -> VarId {
        let (xv, wv) = (&self.nodes[x].value, &self.nodes[w].value);
        let out = conv::conv_fwd(xv, wv, stride, pad);
        let s = conv_shape(xv, wv, &out);
        kernels::conv2d_fwd(gpu, &s);
        self.push_op(Op::Conv2d { x, w, stride, pad }, out)
    }

    /// Transposed 2-D convolution: `x[n,ci,h,w]`, `w[ci,co,kh,kw]`.
    pub fn conv_transpose2d(
        &mut self,
        gpu: &mut Gpu,
        x: VarId,
        w: VarId,
        stride: usize,
        pad: usize,
    ) -> VarId {
        let xv = &self.nodes[x].value;
        let wv = &self.nodes[w].value;
        let (_, _, h, ww) = conv::dims4(xv);
        let (_, _, kh, kw) = conv::dims4(wv);
        let oh = (h - 1) * stride + kh - 2 * pad;
        let ow = (ww - 1) * stride + kw - 2 * pad;
        let out = conv::conv_dgrad(xv, wv, stride, pad, (oh, ow));
        let s = conv_shape(xv, wv, &out);
        kernels::conv2d_dgrad(gpu, &s);
        self.push_op(Op::ConvT2d { x, w, stride, pad }, out)
    }

    /// Max pooling with square window `k` and stride `k`.
    pub fn maxpool2d(&mut self, gpu: &mut Gpu, x: VarId, k: usize) -> VarId {
        let xv = &self.nodes[x].value;
        let (n, c, h, w) = conv::dims4(xv);
        let (oh, ow) = (h / k, w / k);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = vec![0usize; out.len()];
        for b in 0..n {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for ky in 0..k {
                            for kx in 0..k {
                                let idx = ((b * c + ch) * h + oy * k + ky) * w + ox * k + kx;
                                let v = xv.data()[idx];
                                if v > best {
                                    best = v;
                                    best_idx = idx;
                                }
                            }
                        }
                        let oidx = ((b * c + ch) * oh + oy) * ow + ox;
                        out.data_mut()[oidx] = best;
                        argmax[oidx] = best_idx;
                    }
                }
            }
        }
        kernels::maxpool(gpu, out.len(), k * k, false);
        self.push_op(Op::MaxPool { x, k, argmax }, out)
    }

    // ------------------------------------------------------------------
    // Normalization
    // ------------------------------------------------------------------

    /// Batch normalization (training mode, batch statistics).
    pub fn batchnorm2d(&mut self, gpu: &mut Gpu, x: VarId, gamma: VarId, beta: VarId) -> VarId {
        self.norm_impl(gpu, x, gamma, beta, NormScope::Batch)
    }

    /// Instance normalization (per sample and channel).
    pub fn instancenorm2d(&mut self, gpu: &mut Gpu, x: VarId, gamma: VarId, beta: VarId) -> VarId {
        self.norm_impl(gpu, x, gamma, beta, NormScope::Instance)
    }

    fn norm_impl(
        &mut self,
        gpu: &mut Gpu,
        x: VarId,
        gamma: VarId,
        beta: VarId,
        scope: NormScope,
    ) -> VarId {
        const EPS: f32 = 1e-5;
        let xv = self.nodes[x].value.clone();
        let gv = self.nodes[gamma].value.clone();
        let bv = self.nodes[beta].value.clone();
        let (n, c, h, w) = conv::dims4(&xv);
        let hw = h * w;

        let groups: Vec<Vec<usize>> = match scope {
            NormScope::Batch => (0..c)
                .map(|ch| {
                    (0..n)
                        .flat_map(|b| {
                            let base = (b * c + ch) * hw;
                            (0..hw).map(move |i| base + i)
                        })
                        .collect()
                })
                .collect(),
            NormScope::Instance => (0..n * c)
                .map(|g| {
                    let base = g * hw;
                    (0..hw).map(|i| base + i).collect()
                })
                .collect(),
        };

        let mut xhat = Tensor::zeros(xv.shape());
        let mut out = Tensor::zeros(xv.shape());
        let mut inv_std = Vec::with_capacity(groups.len());
        for (g, idxs) in groups.iter().enumerate() {
            let m = idxs.len() as f32;
            let mean: f32 = idxs.iter().map(|&i| xv.data()[i]).sum::<f32>() / m;
            let var: f32 = idxs
                .iter()
                .map(|&i| (xv.data()[i] - mean).powi(2))
                .sum::<f32>()
                / m;
            let istd = 1.0 / (var + EPS).sqrt();
            inv_std.push(istd);
            let ch = match scope {
                NormScope::Batch => g,
                NormScope::Instance => g % c,
            };
            for &i in idxs {
                let xh = (xv.data()[i] - mean) * istd;
                xhat.data_mut()[i] = xh;
                out.data_mut()[i] = gv.data()[ch] * xh + bv.data()[ch];
            }
        }
        kernels::batchnorm_fwd(gpu, n, c, hw);
        self.push_op(
            Op::Norm {
                x,
                gamma,
                beta,
                scope,
                xhat,
                inv_std,
            },
            out,
        )
    }

    // ------------------------------------------------------------------
    // Losses
    // ------------------------------------------------------------------

    /// Fused softmax + cross-entropy over `[n, classes]` logits; returns a
    /// scalar mean loss.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the batch size.
    pub fn softmax_cross_entropy(
        &mut self,
        gpu: &mut Gpu,
        logits: VarId,
        targets: &[usize],
    ) -> VarId {
        let lv = &self.nodes[logits].value;
        let (n, c) = (lv.shape()[0], lv.shape()[1]);
        assert_eq!(targets.len(), n, "one target per row");
        let mut probs = Tensor::zeros(&[n, c]);
        let mut loss = 0.0f32;
        for r in 0..n {
            let row = &lv.data()[r * c..(r + 1) * c];
            let maxv = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let exps: Vec<f32> = row.iter().map(|&x| (x - maxv).exp()).collect();
            let z: f32 = exps.iter().sum();
            for (col, e) in exps.iter().enumerate() {
                probs.data_mut()[r * c + col] = e / z;
            }
            loss -= (probs.at2(r, targets[r]).max(1e-12)).ln();
        }
        loss /= n as f32;
        kernels::softmax(gpu, n, c, false, true);
        kernels::reduce(gpu, "nll", n);
        self.push_op(
            Op::SoftmaxCe {
                logits,
                probs,
                targets: targets.to_vec(),
            },
            Tensor::from_vec(&[1], vec![loss]),
        )
    }

    /// Binary cross-entropy on logits against a same-shape target tensor;
    /// returns a scalar mean loss.
    pub fn bce_with_logits(&mut self, gpu: &mut Gpu, logits: VarId, targets: Tensor) -> VarId {
        let lv = &self.nodes[logits].value;
        assert_eq!(lv.shape(), targets.shape(), "target shape");
        let mut loss = 0.0f32;
        for (&z, &y) in lv.data().iter().zip(targets.data()) {
            loss += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
        }
        loss /= lv.len() as f32;
        kernels::elementwise(gpu, "binary_cross_entropy_logits", lv.len(), 2, 5);
        kernels::reduce(gpu, "mean", lv.len());
        self.push_op(
            Op::BceLogits { logits, targets },
            Tensor::from_vec(&[1], vec![loss]),
        )
    }

    /// Mean-squared-error between two same-shape tensors (scalar output).
    pub fn mse_loss(&mut self, gpu: &mut Gpu, a: VarId, b: VarId) -> VarId {
        let av = &self.nodes[a].value;
        let bv = &self.nodes[b].value;
        assert_eq!(av.shape(), bv.shape(), "mse shapes");
        let loss: f32 = av
            .data()
            .iter()
            .zip(bv.data())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            / av.len() as f32;
        kernels::elementwise(gpu, "mse", av.len(), 2, 2);
        kernels::reduce(gpu, "mean", av.len());
        self.push_op(Op::Mse { a, b }, Tensor::from_vec(&[1], vec![loss]))
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&mut self, gpu: &mut Gpu, a: VarId) -> VarId {
        let m = self.nodes[a].value.mean();
        kernels::reduce(gpu, "mean", self.nodes[a].value.len());
        self.push_op(Op::Mean { a }, Tensor::from_vec(&[1], vec![m]))
    }

    // ------------------------------------------------------------------
    // Lookup & sampling
    // ------------------------------------------------------------------

    /// Embedding lookup: gather `indices` rows from a `[vocab, dim]` table.
    pub fn embedding(&mut self, gpu: &mut Gpu, table: VarId, indices: &[usize]) -> VarId {
        let tv = &self.nodes[table].value;
        let (vocab, dim) = (tv.shape()[0], tv.shape()[1]);
        let mut out = Tensor::zeros(&[indices.len(), dim]);
        for (r, &idx) in indices.iter().enumerate() {
            assert!(idx < vocab, "index {idx} out of vocabulary {vocab}");
            out.data_mut()[r * dim..(r + 1) * dim]
                .copy_from_slice(&tv.data()[idx * dim..(idx + 1) * dim]);
        }
        kernels::embedding_fwd(gpu, indices.len(), dim, vocab);
        self.push_op(
            Op::Embedding {
                table,
                indices: indices.to_vec(),
            },
            out,
        )
    }

    /// Spatial-transformer sampling: apply per-sample affine transforms
    /// `theta[n, 6]` to `x[n,c,h,w]`, producing an `[n,c,oh,ow]` output by
    /// bilinear interpolation (zero padding outside the input).
    pub fn spatial_transform(
        &mut self,
        gpu: &mut Gpu,
        x: VarId,
        theta: VarId,
        oh: usize,
        ow: usize,
    ) -> VarId {
        let xv = &self.nodes[x].value;
        let tv = &self.nodes[theta].value;
        let (n, c, h, w) = conv::dims4(xv);
        assert_eq!(tv.shape(), &[n, 6], "theta must be [n, 6]");
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        for b in 0..n {
            let th = &tv.data()[b * 6..(b + 1) * 6];
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let (u, v) = normalized_coords(ox, oy, ow, oh);
                        let xs = th[0] * u + th[1] * v + th[2];
                        let ys = th[3] * u + th[4] * v + th[5];
                        let val = bilinear_sample(xv, b, ch, xs, ys, h, w);
                        out.data_mut()[((b * c + ch) * oh + oy) * ow + ox] = val;
                    }
                }
            }
        }
        kernels::affine_grid(gpu, n * oh * ow);
        kernels::grid_sample(gpu, out.len(), xv.bytes(), false);
        self.push_op(Op::SpatialTransform { x, theta, oh, ow }, out)
    }
}

// -----------------------------------------------------------------------
// Shared math helpers (also used by backward.rs)
// -----------------------------------------------------------------------

/// Launch geometry of a convolution with input `xv`, weights `wv` and
/// output (or output gradient) `out`.
pub(crate) fn conv_shape(xv: &Tensor, wv: &Tensor, out: &Tensor) -> kernels::ConvShape {
    let (n, c, _, _) = conv::dims4(xv);
    let (_, _, kh, kw) = conv::dims4(wv);
    let (_, oc, oh, ow) = conv::dims4(out);
    kernels::ConvShape {
        n,
        c,
        oc,
        kh,
        kw,
        oh,
        ow,
        // The kernel-selection sizing works on output geometry; the
        // effective stride of the lowered implicit-GEMM is 1.
        stride: 1,
    }
}

pub(crate) fn map_tensor(t: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    Tensor::from_vec(t.shape(), t.data().iter().map(|&x| f(x)).collect())
}

pub(crate) fn zip_same(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "shape mismatch");
    Tensor::from_vec(
        a.shape(),
        a.data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| f(x, y))
            .collect(),
    )
}

/// `out = A·B` with optional transposes; `out` must be pre-shaped.
pub(crate) fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor, ta: bool, tb: bool) {
    let (am, ak) = (a.shape()[0], a.shape()[1]);
    let (bm, bk) = (b.shape()[0], b.shape()[1]);
    let (m, k) = if ta { (ak, am) } else { (am, ak) };
    let (k2, n) = if tb { (bk, bm) } else { (bm, bk) };
    assert_eq!(k, k2, "inner dimensions");
    assert_eq!(out.shape(), &[m, n], "output shape");
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    od.fill(0.0);
    for i in 0..m {
        for p in 0..k {
            let av = if ta { ad[p * ak + i] } else { ad[i * ak + p] };
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                let bv = if tb { bd[j * bk + p] } else { bd[p * bk + j] };
                od[i * n + j] += av * bv;
            }
        }
    }
}

pub(crate) fn normalized_coords(ox: usize, oy: usize, ow: usize, oh: usize) -> (f32, f32) {
    let u = if ow > 1 {
        2.0 * ox as f32 / (ow - 1) as f32 - 1.0
    } else {
        0.0
    };
    let v = if oh > 1 {
        2.0 * oy as f32 / (oh - 1) as f32 - 1.0
    } else {
        0.0
    };
    (u, v)
}

/// Bilinear sample at normalized coords `(xs, ys)` ∈ [-1,1]², zero outside.
pub(crate) fn bilinear_sample(
    x: &Tensor,
    b: usize,
    ch: usize,
    xs: f32,
    ys: f32,
    h: usize,
    w: usize,
) -> f32 {
    let px = (xs + 1.0) / 2.0 * (w - 1) as f32;
    let py = (ys + 1.0) / 2.0 * (h - 1) as f32;
    let x0 = px.floor() as isize;
    let y0 = py.floor() as isize;
    let fx = px - x0 as f32;
    let fy = py - y0 as f32;
    let c = x.shape()[1];
    let fetch = |xx: isize, yy: isize| -> f32 {
        if xx < 0 || yy < 0 || xx >= w as isize || yy >= h as isize {
            0.0
        } else {
            x.data()[((b * c + ch) * h + yy as usize) * w + xx as usize]
        }
    };
    fetch(x0, y0) * (1.0 - fx) * (1.0 - fy)
        + fetch(x0 + 1, y0) * fx * (1.0 - fy)
        + fetch(x0, y0 + 1) * (1.0 - fx) * fy
        + fetch(x0 + 1, y0 + 1) * fx * fy
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_gpu::Device;

    fn gpu() -> Gpu {
        Gpu::new(Device::rtx3080())
    }

    #[test]
    fn matmul_known_values() {
        let mut g = Graph::new();
        let mut gp = gpu();
        let a = g.input(Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let b = g.input(Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]));
        let c = g.matmul(&mut gp, a, b);
        assert_eq!(g.value(c).data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn elementwise_values() {
        let mut g = Graph::new();
        let mut gp = gpu();
        let a = g.input(Tensor::from_vec(&[3], vec![-1.0, 0.0, 2.0]));
        let r = g.relu(&mut gp, a);
        assert_eq!(g.value(r).data(), &[0.0, 0.0, 2.0]);
        let l = g.leaky_relu(&mut gp, a, 0.1);
        assert_eq!(g.value(l).data(), &[-0.1, 0.0, 2.0]);
        let s = g.sigmoid(&mut gp, a);
        assert!((g.value(s).data()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_ce_of_uniform_logits_is_log_c() {
        let mut g = Graph::new();
        let mut gp = gpu();
        let logits = g.input(Tensor::zeros(&[4, 10]));
        let loss = g.softmax_cross_entropy(&mut gp, logits, &[0, 1, 2, 3]);
        assert!((g.value(loss).data()[0] - 10.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn embedding_gathers_rows() {
        let mut g = Graph::new();
        let mut gp = gpu();
        let table = g.param(Tensor::from_vec(
            &[3, 2],
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        ));
        let e = g.embedding(&mut gp, table, &[2, 0]);
        assert_eq!(g.value(e).data(), &[4.0, 5.0, 0.0, 1.0]);
    }

    #[test]
    fn identity_spatial_transform_reproduces_input() {
        let mut g = Graph::new();
        let mut gp = gpu();
        let x = g.input(Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        // Identity affine: [1 0 0; 0 1 0].
        let theta = g.input(Tensor::from_vec(
            &[1, 6],
            vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        ));
        let y = g.spatial_transform(&mut gp, x, theta, 2, 2);
        for (a, b) in g.value(y).data().iter().zip(g.value(x).data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn maxpool_picks_maxima() {
        let mut g = Graph::new();
        let mut gp = gpu();
        let x = g.input(Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]));
        let y = g.maxpool2d(&mut gp, x, 2);
        assert_eq!(g.value(y).data(), &[5.0]);
    }

    #[test]
    fn batchnorm_normalizes() {
        let mut g = Graph::new();
        let mut gp = gpu();
        let x = g.input(Tensor::randn(&[4, 3, 4, 4], 5.0, 1));
        let gamma = g.param(Tensor::full(&[3], 1.0));
        let beta = g.param(Tensor::zeros(&[3]));
        let y = g.batchnorm2d(&mut gp, x, gamma, beta);
        let yv = g.value(y);
        assert!(yv.mean().abs() < 1e-4, "mean {}", yv.mean());
        let var: f32 = yv.data().iter().map(|v| v * v).sum::<f32>() / yv.len() as f32;
        assert!((var - 1.0).abs() < 1e-2, "var {var}");
    }

    #[test]
    fn concat_cols_layout() {
        let mut g = Graph::new();
        let mut gp = gpu();
        let a = g.input(Tensor::from_vec(&[2, 1], vec![1.0, 3.0]));
        let b = g.input(Tensor::from_vec(&[2, 2], vec![9.0, 8.0, 7.0, 6.0]));
        let c = g.concat_cols(&mut gp, a, b);
        assert_eq!(g.value(c).data(), &[1.0, 9.0, 8.0, 3.0, 7.0, 6.0]);
    }
}
