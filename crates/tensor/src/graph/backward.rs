//! The reverse pass: per-op gradient math plus backward-kernel lowering.

use cactus_gpu::LaunchSink;

use super::conv;
use super::{bilinear_sample, conv_shape, map_tensor, matmul_into, normalized_coords, zip_same};
use super::{Graph, NormScope, Op, VarId};
use crate::kernels;
use crate::tensor::Tensor;

impl Graph {
    /// Run backpropagation from a scalar `loss` node, accumulating
    /// gradients on every upstream node and launching the backward kernels
    /// of each op.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&mut self, gpu: &mut dyn LaunchSink, loss: VarId) {
        assert_eq!(self.nodes[loss].value.len(), 1, "loss must be scalar");
        self.acc_grad(loss, Tensor::full(&[1], 1.0));

        // The ops only touch `nodes`: the tape is lent out for the pass
        // rather than cloned op by op.
        let tape = std::mem::take(&mut self.tape);
        for rec in tape.iter().rev() {
            let Some(gout) = self.nodes[rec.out].grad.clone() else {
                continue;
            };
            self.backward_op(gpu, &rec.op, &gout, rec.out);
        }
        self.tape = tape;
    }

    #[allow(clippy::too_many_lines)]
    fn backward_op(&mut self, gpu: &mut dyn LaunchSink, op: &Op, gout: &Tensor, out: VarId) {
        match op {
            Op::MatMul { a, b } => {
                let av = self.nodes[*a].value.clone();
                let bv = self.nodes[*b].value.clone();
                let (m, k) = (av.shape()[0], av.shape()[1]);
                let n = bv.shape()[1];
                // dA = dC · Bᵀ
                let mut da = Tensor::zeros(&[m, k]);
                matmul_into(gout, &bv, &mut da, false, true);
                kernels::gemm(gpu, m, k, n, false, true);
                // dB = Aᵀ · dC
                let mut db = Tensor::zeros(&[k, n]);
                matmul_into(&av, gout, &mut db, true, false);
                kernels::gemm(gpu, k, n, m, true, false);
                self.acc_grad(*a, da);
                self.acc_grad(*b, db);
            }
            Op::Add { a, b } => {
                kernels::elementwise(gpu, "add_backward", gout.len(), 1, 0);
                self.acc_grad(*a, gout.clone());
                self.acc_grad(*b, gout.clone());
            }
            Op::Sub { a, b } => {
                kernels::elementwise(gpu, "sub_backward", gout.len(), 1, 0);
                self.acc_grad(*a, gout.clone());
                self.acc_grad(*b, map_tensor(gout, |x| -x));
            }
            Op::Mul { a, b } => {
                let av = self.nodes[*a].value.clone();
                let bv = self.nodes[*b].value.clone();
                kernels::elementwise(gpu, "mul_backward", gout.len(), 2, 1);
                self.acc_grad(*a, zip_same(gout, &bv, |g, y| g * y));
                self.acc_grad(*b, zip_same(gout, &av, |g, x| g * x));
            }
            Op::Scale { a, factor } => {
                kernels::elementwise(gpu, "mul_scalar_backward", gout.len(), 1, 1);
                let f = *factor;
                self.acc_grad(*a, map_tensor(gout, |g| g * f));
            }
            Op::AddBiasRows { a, bias } => {
                let (n, f) = (gout.shape()[0], gout.shape()[1]);
                let mut db = Tensor::zeros(&[f]);
                for r in 0..n {
                    for c in 0..f {
                        db.data_mut()[c] += gout.data()[r * f + c];
                    }
                }
                kernels::reduce(gpu, "bias_grad", gout.len());
                self.acc_grad(*a, gout.clone());
                self.acc_grad(*bias, db);
            }
            Op::AddBiasNchw { a, bias } => {
                let (n, c, h, w) = conv::dims4(gout);
                let mut db = Tensor::zeros(&[c]);
                for b in 0..n {
                    for ch in 0..c {
                        let base = (b * c + ch) * h * w;
                        db.data_mut()[ch] += gout.data()[base..base + h * w].iter().sum::<f32>();
                    }
                }
                kernels::reduce(gpu, "bias_grad", gout.len());
                self.acc_grad(*a, gout.clone());
                self.acc_grad(*bias, db);
            }
            Op::Relu { a } => {
                let av = self.nodes[*a].value.clone();
                kernels::elementwise(gpu, "relu_backward", gout.len(), 2, 1);
                self.acc_grad(
                    *a,
                    zip_same(gout, &av, |g, x| if x > 0.0 { g } else { 0.0 }),
                );
            }
            Op::LeakyRelu { a, slope } => {
                let av = self.nodes[*a].value.clone();
                let s = *slope;
                kernels::elementwise(gpu, "leaky_relu_backward", gout.len(), 2, 1);
                self.acc_grad(
                    *a,
                    zip_same(gout, &av, |g, x| if x > 0.0 { g } else { s * g }),
                );
            }
            Op::Tanh { a } => {
                // d tanh = 1 − tanh²; the forward output is saved on the
                // out node.
                let yv = self.nodes[out].value.clone();
                kernels::elementwise(gpu, "tanh_backward", gout.len(), 2, 2);
                self.acc_grad(*a, zip_same(gout, &yv, |g, y| g * (1.0 - y * y)));
            }
            Op::Sigmoid { a } => {
                let yv = self.nodes[out].value.clone();
                kernels::elementwise(gpu, "sigmoid_backward", gout.len(), 2, 2);
                self.acc_grad(*a, zip_same(gout, &yv, |g, y| g * y * (1.0 - y)));
            }
            Op::Dropout { a, mask } => {
                kernels::elementwise(gpu, "masked_scale", gout.len(), 2, 1);
                let g = Tensor::from_vec(
                    gout.shape(),
                    gout.data().iter().zip(mask).map(|(&g, &m)| g * m).collect(),
                );
                self.acc_grad(*a, g);
            }
            Op::Reshape { a, old_shape } => {
                self.acc_grad(*a, gout.reshaped(old_shape));
            }
            Op::Transpose2d { a } => {
                let (m, n) = (gout.shape()[0], gout.shape()[1]);
                let mut ga = Tensor::zeros(&[n, m]);
                for i in 0..m {
                    for j in 0..n {
                        ga.data_mut()[j * m + i] = gout.data()[i * n + j];
                    }
                }
                kernels::copy(gpu, "transpose", gout.len());
                self.acc_grad(*a, ga);
            }
            Op::SumRows { a } => {
                let (n, f) = {
                    let s = self.nodes[*a].value.shape();
                    (s[0], s[1])
                };
                let mut ga = Tensor::zeros(&[n, f]);
                for r in 0..n {
                    let g = gout.data()[r];
                    for c in 0..f {
                        ga.data_mut()[r * f + c] = g;
                    }
                }
                kernels::elementwise(gpu, "fill_backward", n * f, 1, 0);
                self.acc_grad(*a, ga);
            }
            Op::SoftmaxRows { a, probs } => {
                let (n, f) = (probs.shape()[0], probs.shape()[1]);
                let mut ga = Tensor::zeros(&[n, f]);
                for r in 0..n {
                    let dot: f32 = (0..f)
                        .map(|c| gout.data()[r * f + c] * probs.data()[r * f + c])
                        .sum();
                    for c in 0..f {
                        let p = probs.data()[r * f + c];
                        ga.data_mut()[r * f + c] = p * (gout.data()[r * f + c] - dot);
                    }
                }
                kernels::softmax(gpu, n, f, true, false);
                self.acc_grad(*a, ga);
            }
            Op::MulColBroadcast { a, col } => {
                let av = self.nodes[*a].value.clone();
                let cv = self.nodes[*col].value.clone();
                let (n, f) = (av.shape()[0], av.shape()[1]);
                let mut ga = Tensor::zeros(&[n, f]);
                let mut gc = Tensor::zeros(&[n, 1]);
                for r in 0..n {
                    let s = cv.data()[r];
                    let mut acc = 0.0f32;
                    for c in 0..f {
                        ga.data_mut()[r * f + c] = gout.data()[r * f + c] * s;
                        acc += gout.data()[r * f + c] * av.data()[r * f + c];
                    }
                    gc.data_mut()[r] = acc;
                }
                kernels::elementwise(gpu, "mul_backward", n * f, 2, 1);
                self.acc_grad(*a, ga);
                self.acc_grad(*col, gc);
            }
            Op::ConcatCols { a, b, ca, cb } => {
                let n = gout.shape()[0];
                let mut ga = Tensor::zeros(&[n, *ca]);
                let mut gb = Tensor::zeros(&[n, *cb]);
                let stride = ca + cb;
                for r in 0..n {
                    ga.data_mut()[r * ca..(r + 1) * ca]
                        .copy_from_slice(&gout.data()[r * stride..r * stride + ca]);
                    gb.data_mut()[r * cb..(r + 1) * cb]
                        .copy_from_slice(&gout.data()[r * stride + ca..(r + 1) * stride]);
                }
                kernels::copy(gpu, "split", gout.len());
                self.acc_grad(*a, ga);
                self.acc_grad(*b, gb);
            }
            Op::SliceCols { a, start, end } => {
                let (n, f) = {
                    let s = self.nodes[*a].value.shape();
                    (s[0], s[1])
                };
                let width = end - start;
                let mut ga = Tensor::zeros(&[n, f]);
                for r in 0..n {
                    ga.data_mut()[r * f + start..r * f + end]
                        .copy_from_slice(&gout.data()[r * width..(r + 1) * width]);
                }
                kernels::copy(gpu, "slice", gout.len());
                self.acc_grad(*a, ga);
            }
            Op::Conv2d { x, w, stride, pad } => {
                let (dx, dw, s) = {
                    let (xv, wv) = (&self.nodes[*x].value, &self.nodes[*w].value);
                    let (_, _, h, ww_) = conv::dims4(xv);
                    let (_, _, kh, kw) = conv::dims4(wv);
                    (
                        conv::conv_dgrad(gout, wv, *stride, *pad, (h, ww_)),
                        conv::conv_wgrad(xv, gout, *stride, *pad, (kh, kw)),
                        conv_shape(xv, wv, gout),
                    )
                };
                kernels::conv2d_dgrad(gpu, &s);
                kernels::conv2d_wgrad(gpu, &s);
                self.acc_grad(*x, dx);
                self.acc_grad(*w, dw);
            }
            Op::ConvT2d { x, w, stride, pad } => {
                let (dx, dw, s) = {
                    let (xv, wv) = (&self.nodes[*x].value, &self.nodes[*w].value);
                    let (_, _, kh, kw) = conv::dims4(wv);
                    // dX of a transposed conv is a plain forward conv of dout.
                    (
                        conv::conv_fwd(gout, wv, *stride, *pad),
                        conv::conv_wgrad(gout, xv, *stride, *pad, (kh, kw)),
                        conv_shape(xv, wv, gout),
                    )
                };
                kernels::conv2d_fwd(gpu, &s);
                kernels::conv2d_wgrad(gpu, &s);
                self.acc_grad(*x, dx);
                self.acc_grad(*w, dw);
            }
            Op::MaxPool { x, k, argmax } => {
                let mut dx = Tensor::zeros(self.nodes[*x].value.shape());
                for (o, &src) in argmax.iter().enumerate() {
                    dx.data_mut()[src] += gout.data()[o];
                }
                kernels::maxpool(gpu, gout.len(), k * k, true);
                self.acc_grad(*x, dx);
            }
            Op::Norm {
                x,
                gamma,
                beta,
                scope,
                xhat,
                inv_std,
            } => {
                let gv = self.nodes[*gamma].value.clone();
                let (n, c, h, w) = conv::dims4(xhat);
                let hw = h * w;
                let mut dgamma = Tensor::zeros(&[c]);
                let mut dbeta = Tensor::zeros(&[c]);
                let mut dx = Tensor::zeros(xhat.shape());

                let groups: Vec<(usize, Vec<usize>)> = match scope {
                    NormScope::Batch => (0..c)
                        .map(|ch| {
                            (
                                ch,
                                (0..n)
                                    .flat_map(|b| {
                                        let base = (b * c + ch) * hw;
                                        (0..hw).map(move |i| base + i)
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                    NormScope::Instance => (0..n * c)
                        .map(|g| {
                            let base = g * hw;
                            (g % c, (0..hw).map(|i| base + i).collect())
                        })
                        .collect(),
                };

                for (gi, (ch, idxs)) in groups.iter().enumerate() {
                    let m = idxs.len() as f32;
                    let istd = inv_std[gi];
                    let gamma_c = gv.data()[*ch];
                    let mut sum_dy = 0.0f32;
                    let mut sum_dy_xhat = 0.0f32;
                    for &i in idxs {
                        let dy = gout.data()[i];
                        sum_dy += dy;
                        sum_dy_xhat += dy * xhat.data()[i];
                        dgamma.data_mut()[*ch] += dy * xhat.data()[i];
                        dbeta.data_mut()[*ch] += dy;
                    }
                    for &i in idxs {
                        let dy = gout.data()[i];
                        dx.data_mut()[i] =
                            gamma_c * istd / m * (m * dy - sum_dy - xhat.data()[i] * sum_dy_xhat);
                    }
                }
                kernels::batchnorm_bwd(gpu, n, c, hw);
                self.acc_grad(*x, dx);
                self.acc_grad(*gamma, dgamma);
                self.acc_grad(*beta, dbeta);
            }
            Op::SoftmaxCe {
                logits,
                probs,
                targets,
            } => {
                let (n, c) = (probs.shape()[0], probs.shape()[1]);
                let scale = gout.data()[0] / n as f32;
                let mut dl = probs.clone();
                for (r, &t) in targets.iter().enumerate() {
                    dl.data_mut()[r * c + t] -= 1.0;
                }
                for v in dl.data_mut() {
                    *v *= scale;
                }
                kernels::softmax(gpu, n, c, true, true);
                self.acc_grad(*logits, dl);
            }
            Op::BceLogits { logits, targets } => {
                let lv = self.nodes[*logits].value.clone();
                let scale = gout.data()[0] / lv.len() as f32;
                let dl = Tensor::from_vec(
                    lv.shape(),
                    lv.data()
                        .iter()
                        .zip(targets.data())
                        .map(|(&z, &y)| (1.0 / (1.0 + (-z).exp()) - y) * scale)
                        .collect(),
                );
                kernels::elementwise(gpu, "binary_cross_entropy_backward", lv.len(), 2, 3);
                self.acc_grad(*logits, dl);
            }
            Op::Mse { a, b } => {
                let av = self.nodes[*a].value.clone();
                let bv = self.nodes[*b].value.clone();
                let scale = 2.0 * gout.data()[0] / av.len() as f32;
                kernels::elementwise(gpu, "mse_backward", av.len(), 2, 2);
                self.acc_grad(*a, zip_same(&av, &bv, |x, y| (x - y) * scale));
                self.acc_grad(*b, zip_same(&av, &bv, |x, y| (y - x) * scale));
            }
            Op::Mean { a } => {
                let len = self.nodes[*a].value.len();
                let g = gout.data()[0] / len as f32;
                kernels::elementwise(gpu, "fill_backward", len, 1, 1);
                self.acc_grad(*a, Tensor::full(self.nodes[*a].value.shape(), g));
            }
            Op::Embedding { table, indices } => {
                let tv_shape = self.nodes[*table].value.shape().to_vec();
                let dim = tv_shape[1];
                let mut dt = Tensor::zeros(&tv_shape);
                for (r, &idx) in indices.iter().enumerate() {
                    for d in 0..dim {
                        dt.data_mut()[idx * dim + d] += gout.data()[r * dim + d];
                    }
                }
                kernels::embedding_bwd(gpu, indices.len(), dim, tv_shape[0]);
                self.acc_grad(*table, dt);
            }
            Op::SpatialTransform { x, theta, oh, ow } => {
                let xv = self.nodes[*x].value.clone();
                let tv = self.nodes[*theta].value.clone();
                let (n, c, h, w) = conv::dims4(&xv);
                let mut dx = Tensor::zeros(xv.shape());
                let mut dtheta = Tensor::zeros(tv.shape());
                const EPS: f32 = 1e-3;

                for b in 0..n {
                    let th = &tv.data()[b * 6..(b + 1) * 6];
                    for ch in 0..c {
                        for oy in 0..*oh {
                            for ox in 0..*ow {
                                let g = gout.data()[((b * c + ch) * oh + oy) * ow + ox];
                                if g == 0.0 {
                                    continue;
                                }
                                let (u, v) = normalized_coords(ox, oy, *ow, *oh);
                                let xs = th[0] * u + th[1] * v + th[2];
                                let ys = th[3] * u + th[4] * v + th[5];

                                // dL/dx: scatter the bilinear weights.
                                scatter_bilinear(&mut dx, b, ch, xs, ys, h, w, g);

                                // dL/dθ via the sample-position derivatives
                                // (central differences of the interpolant).
                                let ds_dx = (bilinear_sample(&xv, b, ch, xs + EPS, ys, h, w)
                                    - bilinear_sample(&xv, b, ch, xs - EPS, ys, h, w))
                                    / (2.0 * EPS);
                                let ds_dy = (bilinear_sample(&xv, b, ch, xs, ys + EPS, h, w)
                                    - bilinear_sample(&xv, b, ch, xs, ys - EPS, h, w))
                                    / (2.0 * EPS);
                                let dt = &mut dtheta.data_mut()[b * 6..(b + 1) * 6];
                                dt[0] += g * ds_dx * u;
                                dt[1] += g * ds_dx * v;
                                dt[2] += g * ds_dx;
                                dt[3] += g * ds_dy * u;
                                dt[4] += g * ds_dy * v;
                                dt[5] += g * ds_dy;
                            }
                        }
                    }
                }
                kernels::grid_sample(gpu, gout.len(), xv.bytes(), true);
                self.acc_grad(*x, dx);
                self.acc_grad(*theta, dtheta);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn scatter_bilinear(
    dx: &mut Tensor,
    b: usize,
    ch: usize,
    xs: f32,
    ys: f32,
    h: usize,
    w: usize,
    g: f32,
) {
    let px = (xs + 1.0) / 2.0 * (w - 1) as f32;
    let py = (ys + 1.0) / 2.0 * (h - 1) as f32;
    let x0 = px.floor() as isize;
    let y0 = py.floor() as isize;
    let fx = px - x0 as f32;
    let fy = py - y0 as f32;
    let c = dx.shape()[1];
    let mut put = |xx: isize, yy: isize, weight: f32| {
        if xx >= 0 && yy >= 0 && xx < w as isize && yy < h as isize {
            dx.data_mut()[((b * c + ch) * h + yy as usize) * w + xx as usize] += g * weight;
        }
    };
    put(x0, y0, (1.0 - fx) * (1.0 - fy));
    put(x0 + 1, y0, fx * (1.0 - fy));
    put(x0, y0 + 1, (1.0 - fx) * fy);
    put(x0 + 1, y0 + 1, fx * fy);
}
