//! In-crate radix-2 complex FFT (1-D and 3-D), the numerical core of the
//! PME reciprocal-space solver.
//!
//! Everything runs on an `FftPlan`: the bit-reversal swaps and every
//! stage's twiddle factors are tabulated once per length, and a transform
//! is table look-ups and butterflies only. There is one kernel, the *row
//! pass*: a block of `n` rows of `width` cells, transformed along the row
//! index, so that all `width` lines advance together under one twiddle with
//! unit-stride inner loops. It does two radix-2 stages per sweep over the
//! block, and it skips every butterfly group whose rows are all `+0.0`. A
//! 1-D line is the `width = 1` case; the PME solve keeps its grids' real
//! and imaginary parts in separate arrays and runs every axis as row passes
//! (Z on Z lines copied into the columns of a block by
//! `lines_to_columns`). All of these reorder *which cell* is computed
//! when, or skip a computation whose result is already stored: every cell
//! still sees the operations, operands and order of a per-line transform,
//! bit for bit.

use std::f64::consts::PI;

/// A complex number as `(re, im)`.
pub(crate) type Complex = (f64, f64);

#[inline(always)]
fn cmul(a: Complex, b: Complex) -> Complex {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// One radix-2 butterfly on cells `i` and `j`: `(u, v) ← (u + v·w, u − v·w)`.
#[inline(always)]
fn butterfly(x: &mut [Complex], i: usize, j: usize, w: Complex) {
    let a = x[i];
    let t = cmul(x[j], w);
    x[i] = (a.0 + t.0, a.1 + t.1);
    x[j] = (a.0 - t.0, a.1 - t.1);
}

/// Whether any cell is live. A cell is dead when both components are
/// `+0.0` (bit pattern 0; `−0.0` is live): a butterfly of two dead cells
/// writes two dead cells.
fn is_live(re: &[f64], im: &[f64]) -> bool {
    re.iter()
        .zip(im)
        .any(|(r, i)| r.to_bits() | i.to_bits() != 0)
}

/// `R` rows of `width` cells, `gap` rows apart, the first at row `first`.
fn rows<const R: usize>(
    data: &mut [f64],
    first: usize,
    gap: usize,
    width: usize,
) -> [&mut [f64]; R] {
    let mut rest = &mut data[first * width..];
    std::array::from_fn(|_| {
        let (row, tail) = std::mem::take(&mut rest).split_at_mut(width);
        let skip = ((gap - 1) * width).min(tail.len());
        rest = &mut tail[skip..];
        row
    })
}

/// Copy the `n`-cell lines `lines[j]` of `grid` (a whole grid whose Z line
/// `(x, y)` is line `x·n + y`) into column `j` of the
/// `n × m` `block` (`m = lines.len()`, `lines` ascending), one 2×2 tile
/// (two lines, two cells) per step.
pub(crate) fn lines_to_columns(grid: &[f64], lines: &[usize], block: &mut [f64], n: usize) {
    let m = lines.len();
    for (p, pair) in lines.chunks(2).enumerate() {
        let j = 2 * p;
        let a = &grid[pair[0] * n..][..n];
        if let [_, yb] = *pair {
            let cells = a.chunks_exact(2).zip(grid[yb * n..][..n].chunks_exact(2));
            for (rows, (a, b)) in block.chunks_exact_mut(2 * m).zip(cells) {
                let (r0, r1) = rows.split_at_mut(m);
                (r0[j], r0[j + 1]) = (a[0], b[0]);
                (r1[j], r1[j + 1]) = (a[1], b[1]);
            }
        } else {
            for (row, &v) in block.chunks_exact_mut(m).zip(a) {
                row[j] = v;
            }
        }
    }
}

/// The crate's one butterfly loop: one group of `R` rows, cell by cell.
/// `R = 2` is one stage at distance `h` on rows `(k, k + h)` under `w[0]`;
/// `R = 4` is the radix-2² group on rows `(k, k + h, k + 2h, k + 3h)`:
/// stage `h` on `(0, 1)` and `(2, 3)` under `w[0]`, then stage `2h` on
/// `(0, 2)` under `w[1]` and `(1, 3)` under `w[2]`. `scale`, the inverse's
/// 1/n, multiplies each cell right after its last butterfly.
#[inline(always)]
fn butterfly_rows<const R: usize>(
    re: [&mut [f64]; R],
    im: [&mut [f64]; R],
    w: [Complex; 3],
    scale: Option<f64>,
) {
    // Written out row by row: `R` is a constant, and a debug build would
    // otherwise pay a loop per cell and row.
    let width = re[0].len();
    for c in 0..width {
        let mut x = [
            (re[0][c], im[0][c]),
            (re[1][c], im[1][c]),
            (0.0, 0.0),
            (0.0, 0.0),
        ];
        if R == 4 {
            x[2] = (re[2][c], im[2][c]);
            x[3] = (re[3][c], im[3][c]);
        }
        butterfly(&mut x, 0, 1, w[0]);
        if R == 4 {
            butterfly(&mut x, 2, 3, w[0]);
            butterfly(&mut x, 0, 2, w[1]);
            butterfly(&mut x, 1, 3, w[2]);
        }
        if let Some(s) = scale {
            for v in &mut x {
                *v = (v.0 * s, v.1 * s);
            }
        }
        (re[0][c], im[0][c]) = x[0];
        (re[1][c], im[1][c]) = x[1];
        if R == 4 {
            (re[2][c], im[2][c]) = x[2];
            (re[3][c], im[3][c]) = x[3];
        }
    }
}

/// Precomputed tables for radix-2 transforms of one length.
#[derive(Debug, Clone)]
pub(crate) struct FftPlan {
    n: usize,
    /// The `(i, j)` pairs, `i < j`, the bit-reversal permutation exchanges.
    swaps: Vec<(usize, usize)>,
    /// Per direction (`[forward, inverse]`), the stages' twiddles back to
    /// back: the stage that butterflies at distance `half` owns
    /// `[half − 1, 2·half − 1)`.
    twiddles: [Vec<Complex>; 2],
}

impl FftPlan {
    /// Tabulate a length-`n` transform.
    ///
    /// A stage's twiddles come from the `w ← w·wlen` recurrence off one
    /// `(cos, sin)` evaluation — not from a `cos`/`sin` per entry — because
    /// that recurrence is what defines the model's bits.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    #[must_use]
    pub(crate) fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let mut swaps = Vec::new();
        // A single point has nothing to reverse (and no bit to shift by).
        if n > 1 {
            let bits = n.trailing_zeros();
            for i in 0..n {
                let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
                if i < j {
                    swaps.push((i, j));
                }
            }
        }
        let twiddles = [-1.0, 1.0].map(|sign: f64| {
            let mut table = Vec::with_capacity(n - 1);
            let mut len = 2;
            while len <= n {
                let ang = sign * 2.0 * PI / len as f64;
                // lint:allow(fft_arith, the one trig line: each stage's (cos, sin) seeds its table)
                let wlen = (ang.cos(), ang.sin());
                let mut w: Complex = (1.0, 0.0);
                for _ in 0..len / 2 {
                    table.push(w);
                    w = cmul(w, wlen);
                }
                len <<= 1;
            }
            table
        });
        Self { n, swaps, twiddles }
    }

    /// The twiddles of the stage that butterflies at distance `half`.
    fn stage(&self, half: usize, inverse: bool) -> &[Complex] {
        &self.twiddles[usize::from(inverse)][half - 1..2 * half - 1]
    }

    /// Transform one contiguous line in place (a `width = 1` row pass).
    /// `inverse` applies the conjugate transform *and* the 1/n
    /// normalization. Test-only: production PME runs [`FftPlan::row_pass`]
    /// on whole blocks.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not as long as the plan was tabulated for.
    #[cfg(test)]
    pub(crate) fn transform(&self, data: &mut [Complex], inverse: bool) {
        assert_eq!(data.len(), self.n, "line length must match the plan");
        if self.n <= 1 {
            return;
        }
        let mut re: Vec<f64> = data.iter().map(|c| c.0).collect();
        let mut im: Vec<f64> = data.iter().map(|c| c.1).collect();
        self.row_pass(&mut re, &mut im, inverse, &mut vec![false; self.n]);
        for (c, v) in data.iter_mut().zip(re.into_iter().zip(im)) {
            *c = v;
        }
    }

    /// The row pass: transform `re`/`im`, read as `n` rows of
    /// `width = len / n` cells, along the row index. `live` holds one flag
    /// per row: whether the row has a live cell. A group of rows that are
    /// all dead is skipped (its butterflies would write the `+0.0` already
    /// there); every row a computed group writes is live afterwards.
    pub(crate) fn row_pass(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        inverse: bool,
        live: &mut [bool],
    ) {
        let n = self.n;
        let width = re.len() / n;
        assert!(
            re.len() == n * width && im.len() == re.len() && live.len() >= n,
            "block must hold one row per point"
        );
        if n <= 1 || width == 0 {
            return;
        }
        let live = &mut live[..n];
        for (k, flag) in live.iter_mut().enumerate() {
            let cells = k * width..(k + 1) * width;
            *flag = is_live(&re[cells.clone()], &im[cells]);
        }
        for &(i, j) in &self.swaps {
            if live[i] || live[j] {
                for part in [&mut *re, &mut *im] {
                    let (head, tail) = part.split_at_mut(j * width);
                    head[i * width..(i + 1) * width].swap_with_slice(&mut tail[..width]);
                }
                live.swap(i, j);
            }
        }
        let mut half = 1;
        while half < n {
            let fused = 4 * half <= n;
            let next = if fused { 4 * half } else { 2 * half };
            let scale = (inverse && next == n).then(|| 1.0 / n as f64);
            for block in (0..n).step_by(next) {
                for k in 0..half {
                    let first = block + k;
                    let group = if fused { 4 } else { 2 };
                    let members = (0..group).map(|r| first + r * half);
                    if !members.clone().any(|row| live[row]) {
                        continue;
                    }
                    for row in members {
                        live[row] = true;
                    }
                    let w = self.stage(half, inverse)[k];
                    if fused {
                        let w2 = self.stage(2 * half, inverse);
                        butterfly_rows::<4>(
                            rows(re, first, half, width),
                            rows(im, first, half, width),
                            [w, w2[k], w2[k + half]],
                            scale,
                        );
                    } else {
                        butterfly_rows::<2>(
                            rows(re, first, half, width),
                            rows(im, first, half, width),
                            [w; 3],
                            scale,
                        );
                    }
                }
            }
            half = next;
        }
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT of one line, tabulating a
/// plan per call: the tests' entry point. `inverse` applies the conjugate
/// transform *and* the 1/n normalization.
///
/// # Panics
///
/// Panics if the length is not a power of two.
#[cfg(test)]
pub(crate) fn fft_inplace(data: &mut [Complex], inverse: bool) {
    FftPlan::new(data.len()).transform(data, inverse);
}

#[cfg(test)]
pub(crate) mod reference {
    //! The transforms this module had before, kept verbatim as `to_bits`
    //! oracles: the original per-line `fft_inplace` and three-loop `Grid3::fft`
    //! (trig per stage, twiddles by recurrence per block), and the planned
    //! line/row transforms and interleaved `Grid3` that replaced them.

    use super::{cmul, Complex, FftPlan, PI};

    /// One radix-2 butterfly: `(u, v) ← (u + v·w, u − v·w)`.
    #[inline]
    fn butterfly(u: &mut Complex, v: &mut Complex, w: Complex) {
        let a = *u;
        let t = cmul(*v, w);
        *u = (a.0 + t.0, a.1 + t.1);
        *v = (a.0 - t.0, a.1 - t.1);
    }

    impl FftPlan {
        /// Transform one contiguous line in place. `inverse` applies the
        /// conjugate transform *and* the 1/n normalization.
        pub(crate) fn reference_transform(&self, data: &mut [Complex], inverse: bool) {
            let n = self.n;
            assert_eq!(data.len(), n, "line length must match the plan");
            if n <= 1 {
                return;
            }
            for &(i, j) in &self.swaps {
                data.swap(i, j);
            }
            let mut half = 1;
            while half < n {
                let stage = self.stage(half, inverse);
                for block in data.chunks_exact_mut(2 * half) {
                    let (lo, hi) = block.split_at_mut(half);
                    for ((u, v), &w) in lo.iter_mut().zip(hi).zip(stage) {
                        butterfly(u, v, w);
                    }
                }
                half <<= 1;
            }
            if inverse {
                normalize(data, n);
            }
        }

        /// Transform `data`, read as `n` rows of `row` cells, along the row
        /// index: `row` interleaved lines at once, each butterfly pairing two
        /// whole rows under one twiddle.
        pub(crate) fn reference_transform_rows(
            &self,
            data: &mut [Complex],
            row: usize,
            inverse: bool,
        ) {
            let n = self.n;
            assert_eq!(data.len(), n * row, "block must hold one row per point");
            if n <= 1 {
                return;
            }
            for &(i, j) in &self.swaps {
                let (head, tail) = data.split_at_mut(j * row);
                head[i * row..(i + 1) * row].swap_with_slice(&mut tail[..row]);
            }
            let mut half = 1;
            while half < n {
                let stage = self.stage(half, inverse);
                for block in data.chunks_exact_mut(2 * half * row) {
                    let (lo, hi) = block.split_at_mut(half * row);
                    for ((us, vs), &w) in lo
                        .chunks_exact_mut(row)
                        .zip(hi.chunks_exact_mut(row))
                        .zip(stage)
                    {
                        for (u, v) in us.iter_mut().zip(vs) {
                            butterfly(u, v, w);
                        }
                    }
                }
                half <<= 1;
            }
            if inverse {
                normalize(data, n);
            }
        }
    }

    /// The inverse transform's 1/n, applied to every cell.
    fn normalize(data: &mut [Complex], n: usize) {
        let inv_n = 1.0 / n as f64;
        for x in data {
            x.0 *= inv_n;
            x.1 *= inv_n;
        }
    }

    /// A cubic complex grid with FFT transforms along every axis.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct Grid3 {
        n: usize,
        pub(crate) data: Vec<Complex>,
    }

    impl Grid3 {
        /// A zeroed `n × n × n` grid.
        pub(crate) fn new(n: usize) -> Self {
            assert!(n.is_power_of_two(), "grid side must be a power of two");
            Self {
                n,
                data: vec![(0.0, 0.0); n * n * n],
            }
        }

        fn idx(&self, x: usize, y: usize, z: usize) -> usize {
            (x * self.n + y) * self.n + z
        }

        /// Read one cell.
        pub(crate) fn get(&self, x: usize, y: usize, z: usize) -> Complex {
            self.data[self.idx(x, y, z)]
        }

        /// Write one cell.
        pub(crate) fn set(&mut self, x: usize, y: usize, z: usize, v: Complex) {
            let i = self.idx(x, y, z);
            self.data[i] = v;
        }

        /// Add into one cell.
        pub(crate) fn add(&mut self, x: usize, y: usize, z: usize, v: f64) {
            let i = self.idx(x, y, z);
            self.data[i].0 += v;
        }

        /// Zero the grid.
        pub(crate) fn clear(&mut self) {
            self.data.fill((0.0, 0.0));
        }

        /// The planned 3-D transform of before split storage.
        pub(crate) fn fft_planned(&mut self, plan: &FftPlan, inverse: bool) {
            let n = self.n;
            // Z lines are contiguous.
            for line in self.data.chunks_exact_mut(n) {
                plan.reference_transform(line, inverse);
            }
            // Y: within each x-slab, the n rows of n cells.
            for slab in self.data.chunks_exact_mut(n * n) {
                plan.reference_transform_rows(slab, n, inverse);
            }
            // X: the n planes of n² cells.
            plan.reference_transform_rows(&mut self.data, n * n, inverse);
        }
    }

    /// The per-line `fft_inplace` this module had before the plan, kept
    /// verbatim: trig per stage, twiddles by recurrence per block. It
    /// defines the bits the planned path must reproduce.
    pub(crate) fn fft_inplace(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        if n <= 1 {
            return;
        }

        // Bit-reversal permutation.
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i as u32).reverse_bits() >> (32 - bits);
            let j = j as usize;
            if i < j {
                data.swap(i, j);
            }
        }

        // Butterflies.
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * PI / len as f64;
            let wlen = (ang.cos(), ang.sin());
            let half = len / 2;
            for start in (0..n).step_by(len) {
                let mut w: Complex = (1.0, 0.0);
                for k in 0..half {
                    let u = data[start + k];
                    let v = cmul(data[start + k + half], w);
                    data[start + k] = (u.0 + v.0, u.1 + v.1);
                    data[start + k + half] = (u.0 - v.0, u.1 - v.1);
                    w = cmul(w, wlen);
                }
            }
            len <<= 1;
        }

        if inverse {
            let inv_n = 1.0 / n as f64;
            for x in data.iter_mut() {
                x.0 *= inv_n;
                x.1 *= inv_n;
            }
        }
    }

    /// The gather/transform/scatter `Grid3::fft` of before the plan, kept
    /// verbatim over [`fft_inplace`].
    pub(crate) fn grid_fft(g: &mut Grid3, inverse: bool) {
        let n = g.n;
        let mut line = vec![(0.0, 0.0); n];

        // Z lines are contiguous.
        for x in 0..n {
            for y in 0..n {
                let base = g.idx(x, y, 0);
                line.copy_from_slice(&g.data[base..base + n]);
                fft_inplace(&mut line, inverse);
                g.data[base..base + n].copy_from_slice(&line);
            }
        }
        // Y lines.
        for x in 0..n {
            for z in 0..n {
                for (y, slot) in line.iter_mut().enumerate() {
                    *slot = g.data[g.idx(x, y, z)];
                }
                fft_inplace(&mut line, inverse);
                for (y, &v) in line.iter().enumerate() {
                    let i = g.idx(x, y, z);
                    g.data[i] = v;
                }
            }
        }
        // X lines.
        for y in 0..n {
            for z in 0..n {
                for (x, slot) in line.iter_mut().enumerate() {
                    *slot = g.data[g.idx(x, y, z)];
                }
                fft_inplace(&mut line, inverse);
                for (x, &v) in line.iter().enumerate() {
                    let i = g.idx(x, y, z);
                    g.data[i] = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The three input families the oracle has always run on, `len` cells
    /// each: dense complex; sparse real, as cloud-in-cell spreading leaves a
    /// grid; and zeros of both signs around a few values.
    fn oracle_inputs(len: usize) -> [Vec<Complex>; 3] {
        let dense = (0..len)
            .map(|i| ((i as f64 * 0.37).sin() * 3.0, (i as f64 * 0.11).cos() - 0.4))
            .collect();
        let sparse_real = (0..len)
            .map(|i| match i % 7 {
                0 => (0.25 + i as f64 * 0.001, 0.0),
                3 => (-0.75, 0.0),
                _ => (0.0, 0.0),
            })
            .collect();
        let signed_zeros = (0..len)
            .map(|i| match i % 5 {
                0 => (-0.0, 0.0),
                1 => (0.0, -0.0),
                2 => (-0.0, -0.0),
                3 => (1.5, -0.0),
                _ => (0.0, 0.0),
            })
            .collect();
        [dense, sparse_real, signed_zeros]
    }

    /// Side-`n` grids the skips fire on: live cells in two x-slabs only
    /// (as `lattice_base` fills x slowest), three single live Z lines (one
    /// live row per Y pass), a single live cell, and lines whose only live
    /// cells are `−0.0`.
    fn sparse_grids(n: usize) -> [Vec<Complex>; 4] {
        let cell = |x: usize, y: usize, z: usize| (x * n + y) * n + z;
        let value = |i: usize| ((i as f64 * 0.29).cos() * 2.0 - 0.5, 0.0);
        let mut slabs = vec![(0.0, 0.0); n * n * n];
        for x in [1 % n, n / 2] {
            for y in 0..n {
                for z in 0..n {
                    if (y + 2 * z) % 3 == 0 {
                        slabs[cell(x, y, z)] = value(cell(x, y, z));
                    }
                }
            }
        }
        let mut lines = vec![(0.0, 0.0); n * n * n];
        for (x, y) in [(0, 0), (n - 1, n / 2), (n / 2, n - 1)] {
            for z in 0..n {
                lines[cell(x, y, z)] = value(z + 1);
            }
        }
        let mut point = vec![(0.0, 0.0); n * n * n];
        point[cell(n - 1, n - 1, n / 2)] = (0.75, -1.25);
        let mut negative_zeros = vec![(0.0, 0.0); n * n * n];
        negative_zeros[cell(0, n / 2, 0)] = (-0.0, 0.0);
        negative_zeros[cell(n / 2, 0, n - 1)] = (0.0, -0.0);
        negative_zeros[cell(n - 1, n - 1, n - 1)] = (-0.5, 0.0);
        [slabs, lines, point, negative_zeros]
    }

    fn bits(data: &[Complex]) -> Vec<(u64, u64)> {
        data.iter()
            .map(|&(re, im)| (re.to_bits(), im.to_bits()))
            .collect()
    }

    #[test]
    fn planned_line_transform_is_bit_identical_to_the_reference() {
        for n in [1, 2, 4, 8, 16, 32, 64] {
            let plan = FftPlan::new(n);
            for input in oracle_inputs(n) {
                for inverse in [false, true] {
                    let mut want = input.clone();
                    reference::fft_inplace(&mut want, inverse);
                    let mut planned = input.clone();
                    plan.transform(&mut planned, inverse);
                    assert_eq!(bits(&planned), bits(&want), "n={n} inverse={inverse}");
                    let mut one_shot = input.clone();
                    fft_inplace(&mut one_shot, inverse);
                    assert_eq!(bits(&one_shot), bits(&want), "n={n} inverse={inverse}");
                }
            }
        }
    }

    #[test]
    fn planned_grid_transform_is_bit_identical_to_the_reference() {
        // A 3-D transform as row passes over split storage (Z one line at a
        // time, Y per x-slab at width n, X over the whole grid at width n²),
        // and the interleaved planned transform `pme::reference` runs on,
        // against the per-line original.
        for n in [1, 2, 4, 8, 16, 32] {
            let plan = FftPlan::new(n);
            let mut live = vec![false; n];
            let inputs = oracle_inputs(n * n * n).into_iter().chain(sparse_grids(n));
            for (family, input) in inputs.enumerate() {
                for inverse in [false, true] {
                    let mut per_line = reference::Grid3::new(n);
                    per_line.data.copy_from_slice(&input);
                    let mut interleaved = per_line.clone();
                    reference::grid_fft(&mut per_line, inverse);
                    interleaved.fft_planned(&plan, inverse);
                    let want = bits(&per_line.data);
                    let at = format!("n={n} family={family} inverse={inverse}");
                    assert_eq!(bits(&interleaved.data), want, "{at}");

                    let mut re: Vec<f64> = input.iter().map(|c| c.0).collect();
                    let mut im: Vec<f64> = input.iter().map(|c| c.1).collect();
                    for (re, im) in re.chunks_exact_mut(n).zip(im.chunks_exact_mut(n)) {
                        plan.row_pass(re, im, inverse, &mut live);
                    }
                    for (re, im) in re.chunks_exact_mut(n * n).zip(im.chunks_exact_mut(n * n)) {
                        plan.row_pass(re, im, inverse, &mut live);
                    }
                    plan.row_pass(&mut re, &mut im, inverse, &mut live);
                    let rows: Vec<Complex> = re.into_iter().zip(im).collect();
                    assert_eq!(bits(&rows), want, "{at}");
                }
            }
        }
    }

    #[test]
    fn the_row_pass_matches_per_line_transforms_for_every_live_row_pattern() {
        let n = 8;
        let width = 3;
        let plan = FftPlan::new(n);
        let mut live = vec![false; n];
        for pattern in 0u32..1 << n {
            // Row k is live iff bit k is set; one live row holds only −0.0.
            let cell = |k: usize, c: usize| -> Complex {
                if pattern & (1 << k) == 0 {
                    (0.0, 0.0)
                } else if k == 5 {
                    (-0.0, 0.0)
                } else {
                    let t = (k * width + c) as f64;
                    ((t * 0.61).sin(), (t * 0.23).cos() - 0.5)
                }
            };
            for inverse in [false, true] {
                let mut re: Vec<f64> = (0..n * width)
                    .map(|i| cell(i / width, i % width).0)
                    .collect();
                let mut im: Vec<f64> = (0..n * width)
                    .map(|i| cell(i / width, i % width).1)
                    .collect();
                plan.row_pass(&mut re, &mut im, inverse, &mut live);
                for c in 0..width {
                    let mut want: Vec<Complex> = (0..n).map(|k| cell(k, c)).collect();
                    reference::fft_inplace(&mut want, inverse);
                    let got: Vec<Complex> = (0..n)
                        .map(|k| (re[k * width + c], im[k * width + c]))
                        .collect();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "pattern={pattern:#010b} line={c} inverse={inverse}"
                    );
                }
            }
        }
    }

    #[test]
    fn an_empty_block_is_a_no_op() {
        // Zero rows' worth of cells (a slab without live Z lines, PME with
        // no gathered column) transforms nothing and does not panic.
        let plan = FftPlan::new(8);
        for inverse in [false, true] {
            plan.row_pass(&mut [], &mut [], inverse, &mut [false; 8]);
        }
    }

    #[test]
    fn a_single_point_is_left_untouched() {
        // Not even the inverse's multiply by 1/1 runs.
        let nan = f64::from_bits(0x7ff0_0000_0000_0001);
        for inverse in [false, true] {
            let mut d = vec![(nan, -0.0)];
            fft_inplace(&mut d, inverse);
            assert_eq!(bits(&d), vec![(nan.to_bits(), (-0.0f64).to_bits())]);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut d = vec![(0.0, 0.0); 8];
        d[0] = (1.0, 0.0);
        fft_inplace(&mut d, false);
        for &(re, im) in &d {
            assert!((re - 1.0).abs() < 1e-12 && im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_roundtrip_restores_signal() {
        let mut d: Vec<Complex> = (0..64)
            .map(|i| ((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let orig = d.clone();
        fft_inplace(&mut d, false);
        fft_inplace(&mut d, true);
        for (a, b) in d.iter().zip(&orig) {
            assert!((a.0 - b.0).abs() < 1e-10 && (a.1 - b.1).abs() < 1e-10);
        }
    }

    #[test]
    fn fft_of_single_tone_peaks_at_its_bin() {
        let n = 32;
        let k = 5;
        let mut d: Vec<Complex> = (0..n)
            .map(|i| {
                let phase = 2.0 * PI * k as f64 * i as f64 / n as f64;
                (phase.cos(), phase.sin())
            })
            .collect();
        fft_inplace(&mut d, false);
        for (bin, &(re, im)) in d.iter().enumerate() {
            let mag = (re * re + im * im).sqrt();
            if bin == k {
                assert!((mag - n as f64).abs() < 1e-9);
            } else {
                assert!(mag < 1e-9, "bin {bin} has magnitude {mag}");
            }
        }
    }

    #[test]
    fn parseval_holds() {
        let mut d: Vec<Complex> = (0..128).map(|i| ((i as f64).sin(), 0.0)).collect();
        let time_energy: f64 = d.iter().map(|&(r, i)| r * r + i * i).sum();
        fft_inplace(&mut d, false);
        let freq_energy: f64 = d.iter().map(|&(r, i)| r * r + i * i).sum::<f64>() / d.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut d = vec![(0.0, 0.0); 6];
        fft_inplace(&mut d, false);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// FFT roundtrip restores arbitrary signals, and Parseval holds.
        #[test]
        fn fft_roundtrip_and_parseval(
            values in prop::collection::vec(-10.0f64..10.0, 64)
        ) {
            let mut data: Vec<Complex> = values.iter().map(|&v| (v, -v * 0.5)).collect();
            let orig = data.clone();
            let time_energy: f64 = data.iter().map(|&(r, i)| r * r + i * i).sum();

            fft_inplace(&mut data, false);
            let freq_energy: f64 =
                data.iter().map(|&(r, i)| r * r + i * i).sum::<f64>() / data.len() as f64;
            prop_assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));

            fft_inplace(&mut data, true);
            for (a, b) in data.iter().zip(&orig) {
                prop_assert!((a.0 - b.0).abs() < 1e-8 && (a.1 - b.1).abs() < 1e-8);
            }
        }
    }
}
