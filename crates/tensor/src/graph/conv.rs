//! Pure-CPU convolution arithmetic shared by `Conv2d` and
//! `ConvTranspose2d` (forward, backward-data and backward-filter are the
//! same three routines with roles swapped).
//!
//! All three lower to one register-blocked GEMM, as cuDNN's implicit-GEMM
//! engines do:
//!
//! * forward: `out = W[oc × (c,ky,kx)] · im2col(x)[(c,ky,kx) × (b,oy,ox)]`;
//! * backward-filter, one image at a time:
//!   `dw += dout[b][oc × (oy,ox)] · im2col(x[b])ᵀ`;
//! * backward-data, one stride phase at a time:
//!   `dx = W'[ic × (o,ky,kx)] · gather(dout)[(o,ky,kx) × (b,iy,ix)]`, where a
//!   phase is the input pixels `(iy, ix)` with one value of
//!   `((iy + pad) mod s, (ix + pad) mod s)` and the taps that reach them.
//!
//! Every output element is the sum the direct loops formed, term for term
//! and in the same order, so every bit is theirs (DESIGN.md §5h).

use crate::tensor::Tensor;

/// Rows of the register tile.
const MR: usize = 4;
/// Columns of the register tile: two SSE2 vectors.
const NR: usize = 8;

/// Output spatial size of a strided, padded convolution.
#[must_use]
pub(crate) fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (input + 2 * pad - kernel) / stride + 1
}

/// Valid `ox` range for a kernel column: every `ox` in `lo..hi` maps to an
/// in-bounds input column `ix = ox·stride + kx − pad`.
#[inline]
fn ox_range(ow: usize, ww: usize, stride: usize, pad: usize, kx: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(kx).div_ceil(stride);
    let hi = if ww + pad > kx {
        ((ww + pad - kx - 1) / stride + 1).min(ow)
    } else {
        0
    };
    (lo.min(hi), hi)
}

/// The `r` in `0..len` with `0 ≤ base + r < bound`.
fn span(base: isize, len: usize, bound: usize) -> (usize, usize) {
    let hi = (bound as isize - base).clamp(0, len as isize) as usize;
    ((-base).clamp(0, hi as isize) as usize, hi)
}

/// Lanes `lane..lane + len` of a `B` panel that hold pixels `(b, r, c)` to
/// `(b, r, c + len − 1)` of a batch: one pixel row's worth of columns.
#[derive(Clone, Copy)]
struct Run {
    lane: usize,
    b: usize,
    r: usize,
    c: usize,
    len: usize,
}

/// Cut columns `j0..j0 + width` of a `(b, r, c)`-ordered pixel index with
/// `rows × cols` pixels per image into [`Run`]s.
fn runs(j0: usize, width: usize, rows: usize, cols: usize, out: &mut Vec<Run>) {
    out.clear();
    let mut j = j0;
    while j < j0 + width {
        let (row, c) = (j / cols, j % cols);
        let len = (cols - c).min(j0 + width - j);
        out.push(Run {
            lane: j - j0,
            b: row / rows,
            r: row % rows,
            c,
            len,
        });
        j += len;
    }
}

/// One convolution's geometry: input `[·, ic, h, w]`, kernel `kh × kw`,
/// output `oh × ow`.
#[derive(Clone, Copy)]
struct Geom {
    ic: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    stride: usize,
    pad: usize,
}

impl Geom {
    /// Rows of `im2col`: one per `(c, ky, kx)` tap.
    fn taps(&self) -> usize {
        self.ic * self.kh * self.kw
    }

    /// The `B` panel of `im2col(x)` over the batch `x` whose columns are the
    /// output pixels `(b, oy, ox)` listed by `runs`: tap `(c,ky,kx)` at
    /// `panel[tap·NR..]`. Taps that fall in the padding keep the zeros
    /// `panel` holds.
    fn im2col_panel(&self, x: &[f32], runs: &[Run], panel: &mut [f32]) {
        let (s, pad) = (self.stride, self.pad);
        let rows = panel.chunks_exact_mut(NR);
        let taps = (0..self.ic)
            .flat_map(|c| (0..self.kh).flat_map(move |ky| (0..self.kw).map(move |kx| (c, ky, kx))));
        for (row, (c, ky, kx)) in rows.zip(taps) {
            let (oy_lo, oy_hi) = ox_range(self.oh, self.h, s, pad, ky);
            let (lo, hi) = ox_range(self.ow, self.w, s, pad, kx);
            for run in runs {
                let (a, z) = (run.c.max(lo), (run.c + run.len).min(hi));
                if run.r < oy_lo || run.r >= oy_hi || a >= z {
                    continue;
                }
                let iy = run.r * s + ky - pad;
                let src = &x[((run.b * self.ic + c) * self.h + iy) * self.w + a * s + kx - pad..];
                let dst = &mut row[run.lane + a - run.c..][..z - a];
                for (d, &v) in dst.iter_mut().zip(src.iter().step_by(s)) {
                    *d = v;
                }
            }
        }
    }

    /// The `B` panel of `im2col(x)ᵀ` for one image `x[ic, h, w]` whose columns
    /// are the taps `t0..t0 + width`: pixel `oy·ow + ox` at `panel[pixel·NR..]`,
    /// tap `t0 + l` in lane `l`. Padded taps keep the zeros `panel` holds.
    fn im2col_t_panel(&self, x: &[f32], t0: usize, width: usize, panel: &mut [f32]) {
        let (s, pad) = (self.stride, self.pad);
        for lane in 0..width {
            let t = t0 + lane;
            let (c, ky, kx) = (t / (self.kh * self.kw), t / self.kw % self.kh, t % self.kw);
            let (oy_lo, oy_hi) = ox_range(self.oh, self.h, s, pad, ky);
            let (lo, hi) = ox_range(self.ow, self.w, s, pad, kx);
            if lo == hi {
                continue;
            }
            for oy in oy_lo..oy_hi {
                let src = &x[(c * self.h + oy * s + ky - pad) * self.w + lo * s + kx - pad..];
                let dst = panel[(oy * self.ow + lo) * NR + lane..]
                    .iter_mut()
                    .step_by(NR);
                for (d, &v) in dst.zip(src.iter().step_by(s)).take(hi - lo) {
                    *d = v;
                }
            }
        }
    }
}

/// `c[i·ldc + j] += Σₚ A[i][p]·B[p][j]` for `i < m`, `j < width`: `A`
/// row-major (row `i` at `a[i·k..][..k]`), `B` one `k × NR` panel (row `p`
/// at `b[p·NR..]`, zero past `width`). Each element is accumulated over `p`
/// in increasing order from `+0.0`, one rounded multiply and one rounded add
/// per term, then added to `c` once.
fn gemm_panel(m: usize, a: &[f32], b: &[f32], c: &mut [f32], ldc: usize, width: usize) {
    let k = b.len() / NR;
    if k == 0 {
        return;
    }
    for (ip, rows) in a[..m * k].chunks(MR * k).enumerate() {
        let mut store = |acc: &[[f32; NR]]| {
            for (ii, sums) in acc.iter().enumerate() {
                let row = &mut c[(ip * MR + ii) * ldc..][..width];
                for (d, &v) in row.iter_mut().zip(sums) {
                    *d += v;
                }
            }
        };
        // A short last block of rows runs only its live rows.
        match rows.len() / k {
            1 => store(&tile::<1>(rows, b)),
            2 => store(&tile::<2>(rows, b)),
            3 => store(&tile::<3>(rows, b)),
            _ => store(&tile::<MR>(rows, b)),
        }
    }
}

/// One `R × NR` register tile (`R ≤ MR`): the `R` rows of `A` at `a`
/// against a `B` panel.
#[inline(always)]
fn tile<const R: usize>(a: &[f32], b: &[f32]) -> [[f32; NR]; R] {
    let (b, _) = b.as_chunks::<NR>();
    let k = b.len();
    let rows: [&[f32]; R] = std::array::from_fn(|i| &a[i * k..][..k]);
    let mut acc = [[0.0f32; NR]; R];
    for (p, bp) in b.iter().enumerate() {
        let [b0, b1, b2, b3, b4, b5, b6, b7] = *bp;
        for (s, row) in acc.iter_mut().zip(&rows) {
            let ai = row[p];
            s[0] += ai * b0;
            s[1] += ai * b1;
            s[2] += ai * b2;
            s[3] += ai * b3;
            s[4] += ai * b4;
            s[5] += ai * b5;
            s[6] += ai * b6;
            s[7] += ai * b7;
        }
    }
    acc
}

/// Forward convolution: `x[n,ic,h,w] ⊛ w[oc,ic,kh,kw] → [n,oc,oh,ow]`.
///
/// One GEMM over the whole batch, `W[oc × (c,ky,kx)]` times the `im2col`
/// of every image side by side (columns `(b, oy, ox)`), packed `NR`
/// columns at a time.
#[must_use]
pub(crate) fn conv_fwd(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
    let (n, ic, h, ww) = dims4(x);
    let (oc, ic2, kh, kw) = dims4(w);
    assert_eq!(ic, ic2, "channel mismatch");
    let g = Geom {
        ic,
        h,
        w: ww,
        kh,
        kw,
        oh: conv_out_dim(h, kh, stride, pad),
        ow: conv_out_dim(ww, kw, stride, pad),
        stride,
        pad,
    };
    let (k, p) = (g.taps(), g.oh * g.ow);
    let cols = n * p;
    let mut c = vec![0.0; oc * cols];
    let (mut panel, mut run_buf) = (Vec::new(), Vec::new());
    for j0 in (0..cols).step_by(NR) {
        let width = NR.min(cols - j0);
        runs(j0, width, g.oh, g.ow, &mut run_buf);
        panel.clear();
        panel.resize(k * NR, 0.0);
        g.im2col_panel(x.data(), &run_buf, &mut panel);
        gemm_panel(oc, w.data(), &panel, &mut c[j0..], cols, width);
    }

    let mut out = Tensor::zeros(&[n, oc, g.oh, g.ow]);
    for (b, img) in out.data_mut().chunks_exact_mut(oc * p).enumerate() {
        for (o, plane) in img.chunks_exact_mut(p).enumerate() {
            plane.copy_from_slice(&c[o * cols + b * p..][..p]);
        }
    }
    out
}

/// Backward-data: gradient w.r.t. the convolution input.
/// `dout[n,oc,oh,ow]`, `w[oc,ic,kh,kw]` → `dx[n,ic,h,w]`.
///
/// One GEMM per stride phase `(py, px)`: the input pixels with
/// `(iy + pad) mod s = py` and `(ix + pad) mod s = px` are reached only by
/// the taps with `ky mod s = py` and `kx mod s = px`, each through exactly
/// one `(oy, ox)`; any other tap would multiply a padding zero.
#[must_use]
pub(crate) fn conv_dgrad(
    dout: &Tensor,
    w: &Tensor,
    stride: usize,
    pad: usize,
    input_hw: (usize, usize),
) -> Tensor {
    let (n, oc, oh, ow) = dims4(dout);
    let (oc2, ic, kh, kw) = dims4(w);
    assert_eq!(oc, oc2, "channel mismatch");
    let (h, ww) = input_hw;
    let s = stride;
    let mut dx = Tensor::zeros(&[n, ic, h, ww]);
    let (mut a, mut c) = (Vec::new(), Vec::new());
    let (mut panel, mut run_buf) = (Vec::new(), Vec::new());
    for py in 0..s {
        // The phase's first input row, how many rows it has, and the output
        // row its tap `ky` reads for the first of them.
        let iy0 = (py + s - pad % s) % s;
        let ny = h.saturating_sub(iy0).div_ceil(s);
        let oy0 = |ky: usize| ((iy0 + pad) / s) as isize - (ky / s) as isize;
        for px in 0..s {
            let ix0 = (px + s - pad % s) % s;
            let nx = ww.saturating_sub(ix0).div_ceil(s);
            let ox0 = |kx: usize| ((ix0 + pad) / s) as isize - (kx / s) as isize;
            let (kys, kxs) = ((py..kh).step_by(s), (px..kw).step_by(s));
            let taps = oc * kys.len() * kxs.len();
            let (pix, cols) = (ny * nx, n * ny * nx);
            if taps == 0 || cols == 0 {
                continue;
            }

            // A = W'[c][(o, ky, kx)] = w[o][c][ky][kx].
            a.clear();
            a.resize(ic * taps, 0.0);
            for (ci, row) in a.chunks_exact_mut(taps).enumerate() {
                let mut t = row.iter_mut();
                for o in 0..oc {
                    let block = &w.data()[(o * ic + ci) * kh * kw..][..kh * kw];
                    for ky in kys.clone() {
                        let taps_of_ky = block[ky * kw + px..(ky + 1) * kw].iter().step_by(s);
                        for (&v, d) in taps_of_ky.zip(t.by_ref()) {
                            *d = v;
                        }
                    }
                }
            }
            c.clear();
            c.resize(ic * cols, 0.0);

            // B[(o, ky, kx)][(b, ry, rx)] = dout[b][o][oy0(ky) + ry][ox0(kx) + rx],
            // zero off the map.
            for j0 in (0..cols).step_by(NR) {
                let width = NR.min(cols - j0);
                runs(j0, width, ny, nx, &mut run_buf);
                panel.clear();
                panel.resize(taps * NR, 0.0);
                let (rows, _) = panel.as_chunks_mut::<NR>();
                for run in &run_buf {
                    let mut t = rows.iter_mut();
                    for o in 0..oc {
                        let plane = &dout.data()[(run.b * oc + o) * oh * ow..][..oh * ow];
                        for ky in kys.clone() {
                            let oy = oy0(ky) + run.r as isize;
                            let line = (0..oh as isize)
                                .contains(&oy)
                                .then(|| &plane[oy as usize * ow..][..ow]);
                            for (kx, row) in kxs.clone().zip(t.by_ref()) {
                                let ox = ox0(kx) + run.c as isize;
                                let (lo, hi) = span(ox, run.len, ow);
                                if let (Some(line), true) = (line, lo < hi) {
                                    let src = (ox + lo as isize) as usize;
                                    row[run.lane + lo..run.lane + hi]
                                        .copy_from_slice(&line[src..src + hi - lo]);
                                }
                            }
                        }
                    }
                }
                gemm_panel(ic, &a, &panel, &mut c[j0..], cols, width);
            }

            for (b, img) in dx.data_mut().chunks_exact_mut(ic * h * ww).enumerate() {
                for (ci, plane) in img.chunks_exact_mut(h * ww).enumerate() {
                    for ry in 0..ny {
                        let dst = plane[(iy0 + ry * s) * ww + ix0..].iter_mut().step_by(s);
                        for (d, &v) in dst.zip(&c[ci * cols + b * pix + ry * nx..][..nx]) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Backward-filter: gradient w.r.t. the convolution weights.
/// `x[n,ic,h,w]`, `dout[n,oc,oh,ow]` → `dw[oc,ic,kh,kw]`.
///
/// One GEMM per image, `dout[b][oc × (oy,ox)] · im2col(x[b])ᵀ`, added into
/// `dw` image by image: the batch cannot join the reduction, because each
/// image's sum is rounded before it is added.
#[must_use]
pub(crate) fn conv_wgrad(
    x: &Tensor,
    dout: &Tensor,
    stride: usize,
    pad: usize,
    kernel_hw: (usize, usize),
) -> Tensor {
    let (n, ic, h, ww) = dims4(x);
    let (n2, oc, oh, ow) = dims4(dout);
    assert_eq!(n, n2, "batch mismatch");
    let (kh, kw) = kernel_hw;
    let g = Geom {
        ic,
        h,
        w: ww,
        kh,
        kw,
        oh,
        ow,
        stride,
        pad,
    };
    let (k, p) = (g.taps(), oh * ow);
    let mut dw = Tensor::zeros(&[oc, ic, kh, kw]);
    let mut panel = Vec::new();
    let images = x.data().chunks_exact(ic * h * ww);
    for (img, d) in images.zip(dout.data().chunks_exact(oc * p)) {
        for j0 in (0..k).step_by(NR) {
            let width = NR.min(k - j0);
            panel.clear();
            panel.resize(p * NR, 0.0);
            g.im2col_t_panel(img, j0, width, &mut panel);
            gemm_panel(oc, d, &panel, &mut dw.data_mut()[j0..], k, width);
        }
    }
    dw
}

/// Unpack a 4-D shape.
///
/// # Panics
///
/// Panics if the tensor is not 4-D.
#[must_use]
pub(crate) fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    let s = t.shape();
    assert_eq!(s.len(), 4, "expected a 4-D tensor, got {s:?}");
    (s[0], s[1], s[2], s[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row-kernel loops the GEMM replaced, verbatim: the oracle every
    /// bit of the lowering is checked against.
    mod reference {
        use super::super::{conv_out_dim, dims4, ox_range};
        use crate::tensor::Tensor;

        pub fn conv_fwd(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
            let (n, ic, h, ww) = dims4(x);
            let (oc, ic2, kh, kw) = dims4(w);
            assert_eq!(ic, ic2, "channel mismatch");
            let oh = conv_out_dim(h, kh, stride, pad);
            let ow = conv_out_dim(ww, kw, stride, pad);
            let mut out = Tensor::zeros(&[n, oc, oh, ow]);
            let xd = x.data();
            let wd = w.data();
            let od = out.data_mut();
            for b in 0..n {
                for o in 0..oc {
                    let oplane = &mut od[(b * oc + o) * oh * ow..(b * oc + o + 1) * oh * ow];
                    for c in 0..ic {
                        let xplane = &xd[(b * ic + c) * h * ww..(b * ic + c + 1) * h * ww];
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let wk = wd[((o * ic + c) * kh + ky) * kw + kx];
                                let (lo, hi) = ox_range(ow, ww, stride, pad, kx);
                                for oy in 0..oh {
                                    let iy = (oy * stride + ky) as isize - pad as isize;
                                    if iy < 0 || iy >= h as isize {
                                        continue;
                                    }
                                    let xrow = &xplane[iy as usize * ww..(iy as usize + 1) * ww];
                                    let orow = &mut oplane[oy * ow..oy * ow + ow];
                                    let base = kx as isize - pad as isize;
                                    for (ox, out_v) in orow[lo..hi].iter_mut().enumerate() {
                                        let ix = ((ox + lo) * stride) as isize + base;
                                        *out_v += wk * xrow[ix as usize];
                                    }
                                }
                            }
                        }
                    }
                }
            }
            out
        }

        pub fn conv_dgrad(
            dout: &Tensor,
            w: &Tensor,
            stride: usize,
            pad: usize,
            input_hw: (usize, usize),
        ) -> Tensor {
            let (n, oc, oh, ow) = dims4(dout);
            let (oc2, ic, kh, kw) = dims4(w);
            assert_eq!(oc, oc2, "channel mismatch");
            let (h, ww) = input_hw;
            let mut dx = Tensor::zeros(&[n, ic, h, ww]);
            let dd = dout.data();
            let wd = w.data();
            let xd = dx.data_mut();
            for b in 0..n {
                for o in 0..oc {
                    let dplane = &dd[(b * oc + o) * oh * ow..(b * oc + o + 1) * oh * ow];
                    for c in 0..ic {
                        let xplane = &mut xd[(b * ic + c) * h * ww..(b * ic + c + 1) * h * ww];
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let wk = wd[((o * ic + c) * kh + ky) * kw + kx];
                                let (lo, hi) = ox_range(ow, ww, stride, pad, kx);
                                for oy in 0..oh {
                                    let iy = (oy * stride + ky) as isize - pad as isize;
                                    if iy < 0 || iy >= h as isize {
                                        continue;
                                    }
                                    let xrow =
                                        &mut xplane[iy as usize * ww..(iy as usize + 1) * ww];
                                    let drow = &dplane[oy * ow..oy * ow + ow];
                                    let base = kx as isize - pad as isize;
                                    for (ox, &g) in drow[lo..hi].iter().enumerate() {
                                        let ix = ((ox + lo) * stride) as isize + base;
                                        xrow[ix as usize] += g * wk;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            dx
        }

        pub fn conv_wgrad(
            x: &Tensor,
            dout: &Tensor,
            stride: usize,
            pad: usize,
            kernel_hw: (usize, usize),
        ) -> Tensor {
            let (n, ic, h, ww) = dims4(x);
            let (n2, oc, oh, ow) = dims4(dout);
            assert_eq!(n, n2, "batch mismatch");
            let (kh, kw) = kernel_hw;
            let mut dw = Tensor::zeros(&[oc, ic, kh, kw]);
            let xd = x.data();
            let dd = dout.data();
            let wd = dw.data_mut();
            for b in 0..n {
                for o in 0..oc {
                    let dplane = &dd[(b * oc + o) * oh * ow..(b * oc + o + 1) * oh * ow];
                    for c in 0..ic {
                        let xplane = &xd[(b * ic + c) * h * ww..(b * ic + c + 1) * h * ww];
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let (lo, hi) = ox_range(ow, ww, stride, pad, kx);
                                let base = kx as isize - pad as isize;
                                let mut acc = 0.0f32;
                                for oy in 0..oh {
                                    let iy = (oy * stride + ky) as isize - pad as isize;
                                    if iy < 0 || iy >= h as isize {
                                        continue;
                                    }
                                    let xrow = &xplane[iy as usize * ww..(iy as usize + 1) * ww];
                                    let drow = &dplane[oy * ow..oy * ow + ow];
                                    for (ox, &g) in drow[lo..hi].iter().enumerate() {
                                        let ix = ((ox + lo) * stride) as isize + base;
                                        acc += g * xrow[ix as usize];
                                    }
                                }
                                wd[((o * ic + c) * kh + ky) * kw + kx] += acc;
                            }
                        }
                    }
                }
            }
            dw
        }
    }

    /// Gaussian values with a sprinkling of `+0.0` and `−0.0`.
    fn input(shape: &[usize], seed: u64) -> Tensor {
        let mut t = Tensor::randn(shape, 1.0, seed);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            match i % 11 {
                3 => *v = 0.0,
                7 => *v = -0.0,
                _ => {}
            }
        }
        t
    }

    fn assert_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
        }
    }

    /// `Conv2d(ic → oc, k, stride, pad)` on `x[n, ic, h, w]`: forward,
    /// backward-data and backward-filter against the reference, bit for bit.
    fn conv_layer(
        n: usize,
        ic: usize,
        oc: usize,
        hw: (usize, usize),
        k: usize,
        s: usize,
        p: usize,
    ) {
        let what = format!(
            "conv {ic}→{oc} k{k} s{s} p{p} on [{n}, {ic}, {}, {}]",
            hw.0, hw.1
        );
        let x = input(&[n, ic, hw.0, hw.1], 1);
        let w = input(&[oc, ic, k, k], 2);
        let (oh, ow) = (conv_out_dim(hw.0, k, s, p), conv_out_dim(hw.1, k, s, p));
        let dout = input(&[n, oc, oh, ow], 3);
        assert_bits(
            &conv_fwd(&x, &w, s, p),
            &reference::conv_fwd(&x, &w, s, p),
            &what,
        );
        assert_bits(
            &conv_dgrad(&dout, &w, s, p, hw),
            &reference::conv_dgrad(&dout, &w, s, p, hw),
            &format!("{what} dgrad"),
        );
        assert_bits(
            &conv_wgrad(&x, &dout, s, p, (k, k)),
            &reference::conv_wgrad(&x, &dout, s, p, (k, k)),
            &format!("{what} wgrad"),
        );
    }

    /// `ConvTranspose2d(ci → co, k, stride, pad)` on `x[n, ci, h, w]`, the
    /// three routines in the roles `Graph` gives them.
    fn conv_t_layer(n: usize, ci: usize, co: usize, h: usize, k: usize, s: usize, p: usize) {
        let what = format!("convT {ci}→{co} k{k} s{s} p{p} on [{n}, {ci}, {h}, {h}]");
        let x = input(&[n, ci, h, h], 4);
        let w = input(&[ci, co, k, k], 5);
        let oh = (h - 1) * s + k - 2 * p;
        let gout = input(&[n, co, oh, oh], 6);
        assert_bits(
            &conv_dgrad(&x, &w, s, p, (oh, oh)),
            &reference::conv_dgrad(&x, &w, s, p, (oh, oh)),
            &what,
        );
        assert_bits(
            &conv_fwd(&gout, &w, s, p),
            &reference::conv_fwd(&gout, &w, s, p),
            &format!("{what} dx"),
        );
        assert_bits(
            &conv_wgrad(&gout, &x, s, p, (k, k)),
            &reference::conv_wgrad(&gout, &x, s, p, (k, k)),
            &format!("{what} dw"),
        );
    }

    #[test]
    fn dcgan_layers_match_the_reference_bit_for_bit() {
        // `tiny` (batch 2, 8×8 images) and `small` (batch 4, 16×16).
        for (n, img) in [(2, 8), (4, 16)] {
            conv_t_layer(n, 64, 32, img / 4, 4, 2, 1);
            conv_t_layer(n, 32, 3, img / 2, 4, 2, 1);
            conv_layer(n, 3, 32, (img, img), 4, 2, 1);
            conv_layer(n, 32, 64, (img / 2, img / 2), 4, 2, 1);
        }
    }

    #[test]
    fn neural_style_layers_match_the_reference_bit_for_bit() {
        for img in [8, 16] {
            conv_layer(1, 3, 32, (img, img), 3, 1, 1);
            conv_layer(1, 32, 64, (img / 2, img / 2), 3, 1, 1);
            conv_layer(1, 64, 96, (img / 4, img / 4), 3, 1, 1);
        }
    }

    #[test]
    fn dqn_layers_match_the_reference_bit_for_bit() {
        // Replay minibatches and the batch-1 acting passes.
        for (n, img) in [(2, 8), (1, 8), (4, 16), (1, 16)] {
            conv_layer(n, 1, 16, (img, img), 4, 2, 1);
            conv_layer(n, 16, 32, (img / 2, img / 2), 3, 1, 1);
        }
    }

    #[test]
    fn spatial_transformer_layers_match_the_reference_bit_for_bit() {
        for (n, img) in [(2, 8), (4, 16)] {
            conv_layer(n, 1, 16, (img, img), 5, 1, 2);
            conv_layer(n, 16, 32, (img / 2, img / 2), 5, 1, 2);
            conv_layer(n, 1, 32, (img, img), 5, 1, 2);
        }
    }

    #[test]
    fn odd_shapes_match_the_reference_bit_for_bit() {
        // m < MR, n < NR, ic = 3, non-square inputs.
        conv_layer(1, 3, 2, (3, 2), 3, 1, 1);
        conv_layer(3, 2, 5, (7, 6), 3, 2, 0);
        conv_layer(2, 3, 7, (9, 5), 4, 2, 1);
        // 1×1 kernels; at stride 2 three of four dgrad phases have no tap.
        conv_layer(2, 5, 3, (4, 4), 1, 1, 0);
        conv_layer(2, 5, 3, (5, 5), 1, 2, 0);
        // Stride 3, a kernel narrower than the stride, padding wider than
        // some phases.
        conv_layer(2, 2, 3, (8, 7), 2, 3, 1);
        conv_layer(1, 4, 9, (6, 6), 5, 3, 2);
        conv_t_layer(2, 3, 5, 3, 3, 2, 1);
        conv_t_layer(1, 6, 2, 4, 5, 3, 2);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1×1 kernel of weight 1: convolution is the identity.
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let y = conv_fwd(&x, &w, 1, 0);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // All-ones 3×3 input, all-ones 3×3 kernel, pad 1: center = 9,
        // edges = 6, corners = 4.
        let x = Tensor::full(&[1, 1, 3, 3], 1.0);
        let w = Tensor::full(&[1, 1, 3, 3], 1.0);
        let y = conv_fwd(&x, &w, 1, 1);
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.at4(0, 0, 1, 1), 9.0);
        assert_eq!(y.at4(0, 0, 0, 1), 6.0);
        assert_eq!(y.at4(0, 0, 0, 0), 4.0);
    }

    #[test]
    fn stride_two_downsamples() {
        let x = Tensor::from_vec(&[1, 1, 4, 4], (0..16).map(|i| i as f32).collect());
        let w = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let y = conv_fwd(&x, &w, 2, 0);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn dgrad_matches_finite_difference() {
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, 1);
        let w = Tensor::randn(&[3, 2, 3, 3], 0.5, 2);
        let dout = Tensor::randn(&[1, 3, 2, 2], 1.0, 3);
        let dx = conv_dgrad(&dout, &w, 1, 0, (4, 4));

        let eps = 1e-3f32;
        for idx in [0usize, 7, 15, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let loss = |xx: &Tensor| -> f32 {
                conv_fwd(xx, &w, 1, 0)
                    .data()
                    .iter()
                    .zip(dout.data())
                    .map(|(a, b)| a * b)
                    .sum()
            };
            let numeric = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[idx]).abs() < 1e-2,
                "idx {idx}: numeric {numeric} vs analytic {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn wgrad_matches_finite_difference() {
        let x = Tensor::randn(&[2, 2, 5, 5], 1.0, 4);
        let w = Tensor::randn(&[2, 2, 3, 3], 0.5, 5);
        let dout = Tensor::randn(&[2, 2, 3, 3], 1.0, 6);
        let dw = conv_wgrad(&x, &dout, 1, 0, (3, 3));

        let eps = 1e-3f32;
        for idx in [0usize, 5, 17, 35] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let loss = |ww: &Tensor| -> f32 {
                conv_fwd(&x, ww, 1, 0)
                    .data()
                    .iter()
                    .zip(dout.data())
                    .map(|(a, b)| a * b)
                    .sum()
            };
            let numeric = (loss(&wp) - loss(&wm)) / (2.0 * eps);
            assert!(
                (numeric - dw.data()[idx]).abs() < 2e-2,
                "idx {idx}: numeric {numeric} vs analytic {}",
                dw.data()[idx]
            );
        }
    }

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(32, 3, 1, 1), 32);
        assert_eq!(conv_out_dim(32, 4, 2, 1), 16);
        assert_eq!(conv_out_dim(28, 5, 1, 0), 24);
    }
}
