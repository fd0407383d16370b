//! In-crate radix-2 complex FFT (1-D and 3-D), the numerical core of the
//! PME reciprocal-space solver.
//!
//! Everything runs on an [`FftPlan`]: the bit-reversal swaps and every
//! stage's twiddle factors are tabulated once per length, and a transform
//! is table look-ups and butterflies only. The 3-D transform butterflies
//! whole rows (Y) and whole planes (X) against each other, so all lines of
//! an axis advance together under one twiddle with unit-stride inner loops.
//! Both are reorderings of *which line* runs when: every cell still sees
//! the operations, operands and order of a per-line transform, bit for bit.

use std::f64::consts::PI;

/// A complex number as `(re, im)`.
pub type Complex = (f64, f64);

fn cmul(a: Complex, b: Complex) -> Complex {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// One radix-2 butterfly: `(u, v) ← (u + v·w, u − v·w)`.
#[inline]
fn butterfly(u: &mut Complex, v: &mut Complex, w: Complex) {
    let a = *u;
    let t = cmul(*v, w);
    *u = (a.0 + t.0, a.1 + t.1);
    *v = (a.0 - t.0, a.1 - t.1);
}

/// Precomputed tables for radix-2 transforms of one length.
#[derive(Debug, Clone)]
pub struct FftPlan {
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
    pub fn new(n: usize) -> Self {
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

    /// Transform one contiguous line in place. `inverse` applies the
    /// conjugate transform *and* the 1/n normalization.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not as long as the plan was tabulated for.
    pub fn transform(&self, data: &mut [Complex], inverse: bool) {
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
    fn transform_rows(&self, data: &mut [Complex], row: usize, inverse: bool) {
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

/// In-place iterative radix-2 Cooley–Tukey FFT. `inverse` applies the
/// conjugate transform *and* the 1/n normalization. Tabulates a plan per
/// call; callers that transform repeatedly keep an [`FftPlan`].
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft_inplace(data: &mut [Complex], inverse: bool) {
    FftPlan::new(data.len()).transform(data, inverse);
}

/// A cubic complex grid with FFT transforms along every axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3 {
    n: usize,
    data: Vec<Complex>,
}

impl Grid3 {
    /// A zeroed `n × n × n` grid.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "grid side must be a power of two");
        Self {
            n,
            data: vec![(0.0, 0.0); n * n * n],
        }
    }

    /// Grid side length.
    #[must_use]
    pub fn side(&self) -> usize {
        self.n
    }

    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (x * self.n + y) * self.n + z
    }

    /// Read one cell.
    #[must_use]
    pub fn get(&self, x: usize, y: usize, z: usize) -> Complex {
        self.data[self.idx(x, y, z)]
    }

    /// Write one cell.
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: Complex) {
        let i = self.idx(x, y, z);
        self.data[i] = v;
    }

    /// Add into one cell.
    pub fn add(&mut self, x: usize, y: usize, z: usize, v: f64) {
        let i = self.idx(x, y, z);
        self.data[i].0 += v;
    }

    /// Zero the grid.
    pub fn clear(&mut self) {
        self.data.fill((0.0, 0.0));
    }

    /// Forward (or inverse) 3-D FFT, applied axis by axis. Tabulates a
    /// plan per call; see [`fft_planned`](Self::fft_planned).
    pub fn fft(&mut self, inverse: bool) {
        self.fft_planned(&FftPlan::new(self.n), inverse);
    }

    /// [`fft`](Self::fft) on a caller-kept plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan's length is not the grid side.
    pub fn fft_planned(&mut self, plan: &FftPlan, inverse: bool) {
        let n = self.n;
        // Z lines are contiguous.
        for line in self.data.chunks_exact_mut(n) {
            plan.transform(line, inverse);
        }
        // Y: within each x-slab, the n rows of n cells.
        for slab in self.data.chunks_exact_mut(n * n) {
            plan.transform_rows(slab, n, inverse);
        }
        // X: the n planes of n² cells.
        plan.transform_rows(&mut self.data, n * n, inverse);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-line `fft_inplace` this module had before the plan, kept
    /// verbatim: trig per stage, twiddles by recurrence per block. It
    /// defines the bits the planned path must reproduce.
    fn reference_fft_inplace(data: &mut [Complex], inverse: bool) {
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
    /// verbatim over [`reference_fft_inplace`].
    fn reference_grid_fft(g: &mut Grid3, inverse: bool) {
        let n = g.n;
        let mut line = vec![(0.0, 0.0); n];

        // Z lines are contiguous.
        for x in 0..n {
            for y in 0..n {
                let base = g.idx(x, y, 0);
                line.copy_from_slice(&g.data[base..base + n]);
                reference_fft_inplace(&mut line, inverse);
                g.data[base..base + n].copy_from_slice(&line);
            }
        }
        // Y lines.
        for x in 0..n {
            for z in 0..n {
                for (y, slot) in line.iter_mut().enumerate() {
                    *slot = g.data[g.idx(x, y, z)];
                }
                reference_fft_inplace(&mut line, inverse);
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
                reference_fft_inplace(&mut line, inverse);
                for (x, &v) in line.iter().enumerate() {
                    let i = g.idx(x, y, z);
                    g.data[i] = v;
                }
            }
        }
    }

    /// The three input families the oracle runs on, `len` cells each:
    /// dense complex; sparse real, as cloud-in-cell spreading leaves a
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
                    reference_fft_inplace(&mut want, inverse);
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
        for n in [1, 2, 4, 8, 16, 32] {
            let plan = FftPlan::new(n);
            for input in oracle_inputs(n * n * n) {
                for inverse in [false, true] {
                    let mut want = Grid3::new(n);
                    want.data.copy_from_slice(&input);
                    let mut planned = want.clone();
                    let mut one_shot = want.clone();
                    reference_grid_fft(&mut want, inverse);
                    planned.fft_planned(&plan, inverse);
                    one_shot.fft(inverse);
                    assert_eq!(
                        bits(&planned.data),
                        bits(&want.data),
                        "n={n} inverse={inverse}"
                    );
                    assert_eq!(
                        bits(&one_shot.data),
                        bits(&want.data),
                        "n={n} inverse={inverse}"
                    );
                }
            }
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

    #[test]
    fn grid3_roundtrip() {
        let mut g = Grid3::new(8);
        g.set(1, 2, 3, (2.5, 0.0));
        g.set(7, 0, 4, (-1.0, 0.5));
        let orig = g.clone();
        g.fft(false);
        g.fft(true);
        for x in 0..8 {
            for y in 0..8 {
                for z in 0..8 {
                    let a = g.get(x, y, z);
                    let b = orig.get(x, y, z);
                    assert!((a.0 - b.0).abs() < 1e-10 && (a.1 - b.1).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn grid3_dc_bin_is_total_mass() {
        let mut g = Grid3::new(4);
        g.add(0, 0, 0, 3.0);
        g.add(2, 1, 3, 4.0);
        g.fft(false);
        let dc = g.get(0, 0, 0);
        assert!((dc.0 - 7.0).abs() < 1e-10);
    }
}
