//! Particle-Mesh-Ewald-style reciprocal-space electrostatics.
//!
//! The classic PP-PM decomposition: cloud-in-cell (trilinear) charge
//! spreading onto a cubic grid, a spectral Poisson solve with the Ewald
//! Green's function `4π·exp(−k²/4α²)/(V·k²)`, spectral differentiation for
//! the field (`E(k) = −i·k·φ(k)`), inverse FFTs, and trilinear force
//! gathering. Combined with the erfc-damped real-space term in
//! [`crate::forces::lj_coulomb_cut`], the total Coulomb interaction is
//! α-independent — the property the test suite checks.
//!
//! A [`PmeWorkspace`] holds the transform plan, the grids and the tables,
//! so an evaluation allocates nothing. The charge grid is real, so its
//! spectrum is Hermitian and the solve keeps only the half `kz ≤ n/2`
//! (`h = n/2 + 1` planes, cell `(x·n + y)·h + kz`): the forward transform,
//! the spectral loop and the inverse X pass touch about half the cells of
//! a whole grid. The Green's function is a product of per-axis Gaussians,
//! tabulated once per call on the folded octant. The inverse runs X → Y →
//! Z on two half grids, the potential `φ` and `Ex`: X over the whole of
//! both; then, on the x-slabs the force gather reads, `Ey = −i·ky·φ` is
//! formed and all three are Y-transformed; Z runs only on the gathered Z
//! lines, each extended to its full Hermitian spectrum, with `Ex + i·Ey`
//! in one column and `Ez = −i·kz·φ` in the next.

use std::f64::consts::PI;
use std::ops::Range;

use crate::fft::{lines_to_columns, FftPlan};
use crate::system::{ParticleSystem, Vec3};

/// PME parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmeParams {
    /// Grid points per box edge (power of two).
    pub grid: usize,
    /// Ewald splitting parameter.
    pub alpha: f64,
}

impl Default for PmeParams {
    fn default() -> Self {
        Self {
            grid: 32,
            alpha: 0.8,
        }
    }
}

/// [`PmeWorkspace::slot`] of a Z line no stencil holds.
const UNMARKED: usize = usize::MAX;

/// The reciprocal-space solver: the parameters plus every buffer an
/// evaluation touches, so that after construction a call allocates nothing.
#[derive(Debug, Clone)]
pub struct PmeWorkspace {
    params: PmeParams,
    plan: FftPlan,
    /// The real charge grid, cell `(x·n + y)·n + z`: `+0.0` off the marked
    /// Z lines, which are the only ones a call clears and spreads into.
    rho: Vec<f64>,
    /// The charge's half spectrum, then the potential `φ`, then `φ`
    /// X-transformed (and Y-transformed on the gathered x-slabs).
    phi: Cells,
    /// `Ex` on the half grid, transformed alongside `phi`.
    ex: Cells,
    /// `Ey` of one x-slab: `n` rows (`y`) of `h` cells.
    ey: Cells,
    /// `n` rows of one cell per column: the forward Z pass's `m` columns,
    /// one per marked line, then the inverse's `2m` (`Ex + i·Ey` of line
    /// `lines[j]` in column `2j`, its `Ez` in `2j + 1`).
    block: Cells,
    /// `kvec(m)` for every grid index, refilled per call (the box breathes
    /// under a barostat).
    kvec: Vec<f64>,
    /// `exp(−kvec(m)²/4α²)` for `m ≤ n/2`, refilled per call.
    gauss: Vec<f64>,
    /// The Green's function on the folded octant `(n/2 + 1)³`, refilled per
    /// call. `k²` is even in every component and `kvec(n − m) = −kvec(m)`
    /// exactly, so the entry at `(fold(x), fold(y), fold(z))` serves
    /// `(x, y, z)` (see [`fold`]).
    green: Vec<f64>,
    /// Per Z line `(x, y)` (`x·n + y`): its index in `lines` when a charged
    /// particle's stencil holds it, [`UNMARKED`] otherwise.
    slot: Vec<usize>,
    /// The stencils' Z lines in increasing order: the only lines the Z
    /// passes transform, on the only x-slabs the Y passes do.
    lines: Vec<usize>,
    /// The row pass's liveness flags, one per row.
    live: Vec<bool>,
}

/// Complex cells in split storage.
#[derive(Debug, Clone)]
struct Cells {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Cells {
    fn new(len: usize) -> Self {
        Self {
            re: vec![0.0; len],
            im: vec![0.0; len],
        }
    }

    /// Row-pass `cells`: `n` rows of `cells.len() / n`.
    fn row_pass(&mut self, cells: Range<usize>, plan: &FftPlan, inverse: bool, live: &mut [bool]) {
        let (re, im) = (&mut self.re[cells.clone()], &mut self.im[cells]);
        plan.row_pass(re, im, inverse, live);
    }
}

/// Cloud-in-cell weights of one coordinate given in grid units, already
/// wrapped to `[0, n)`.
fn cic(coord: f64, n: usize) -> [(usize, f64); 2] {
    let i0 = coord.floor() as usize % n;
    let frac = coord - coord.floor();
    [(i0, 1.0 - frac), ((i0 + 1) % n, frac)]
}

/// Per-axis cloud-in-cell weights of a position.
fn cic3(p: &Vec3, l: f64, n: usize) -> [[(usize, f64); 2]; 3] {
    let nf = n as f64;
    p.map(|c| cic(c.rem_euclid(l) / l * nf, n))
}

/// Where the folded octant keeps grid index `m` of an `n`-point axis.
fn fold(m: usize, n: usize) -> usize {
    if m > n / 2 {
        n - m
    } else {
        m
    }
}

/// The spectral derivative factor of grid index `m` (wave number `k`) of an
/// `n`-point axis: `k`, but zero on the Nyquist index `n/2`. There `kvec`
/// is not negated under `m → n − m`, so `−i·k·φ` would be anti-Hermitian
/// along that axis and invert to a purely imaginary field, which in exact
/// arithmetic contributes nothing to the real force. Zeroing it keeps every
/// field component Hermitian, which both the half spectrum and the packed
/// `Ex + i·Ey` column assume. (At `n = 1` the Nyquist index is 0, whose
/// `kvec` is `−2π/L`, not 0.)
fn derivative(m: usize, k: f64, n: usize) -> f64 {
    if m == n / 2 {
        0.0
    } else {
        k
    }
}

impl PmeWorkspace {
    /// Allocate the grids and tabulate the transform.
    ///
    /// # Panics
    ///
    /// Panics if `params.grid` is not a power of two.
    #[must_use]
    pub fn new(params: PmeParams) -> Self {
        let n = params.grid;
        let h = n / 2 + 1;
        Self {
            params,
            plan: FftPlan::new(n),
            rho: vec![0.0; n * n * n],
            phi: Cells::new(n * n * h),
            ex: Cells::new(n * n * h),
            ey: Cells::new(n * h),
            // Room for two columns per Z line; a call touches `n × 2m`.
            block: Cells::new(2 * n * n * n),
            kvec: vec![0.0; n],
            gauss: vec![0.0; h],
            green: vec![0.0; h * h * h],
            slot: vec![UNMARKED; n * n],
            lines: Vec::with_capacity(n * n),
            live: vec![false; n],
        }
    }

    /// Evaluate the reciprocal-space Ewald contribution, accumulating
    /// forces into `sys.forces`; returns the energy (including the
    /// self-energy correction).
    pub fn reciprocal(&mut self, sys: &mut ParticleSystem) -> f64 {
        let n = self.params.grid;
        let l = sys.box_len;
        let mut energy = self.spectrum(sys);

        // Self-energy correction (constant in positions).
        let q2_sum: f64 = sys.charges.iter().map(|q| q * q).sum();
        energy -= self.params.alpha / PI.sqrt() * q2_sum;

        let m = self.lines.len();
        if m == 0 {
            return energy;
        }
        self.invert();

        // --- Gather: interpolate at the particles. Our inverse FFT divides
        // by n³; the spectral sum has no such factor, so scale back.
        let scale = (n * n * n) as f64;
        let (re, im) = (&self.block.re, &self.block.im);
        for idx in 0..sys.len() {
            let q = sys.charges[idx];
            if q == 0.0 {
                continue;
            }
            let [wx, wy, wz] = cic3(&sys.positions[idx], l, n);
            let mut e_here = [0.0; 3];
            for &(ix, wx) in &wx {
                for &(iy, wy) in &wy {
                    let column = 2 * self.slot[ix * n + iy];
                    for &(iz, wz) in &wz {
                        let w = wx * wy * wz;
                        let cell = iz * 2 * m + column;
                        let e = [re[cell], im[cell], re[cell + 1]];
                        for (sum, e) in e_here.iter_mut().zip(e) {
                            *sum += w * e * scale;
                        }
                    }
                }
            }
            for a in 0..3 {
                sys.forces[idx][a] += q * e_here[a];
            }
        }

        energy
    }

    /// Spread the charges, transform them to the half spectrum and
    /// overwrite it with `φ`, filling `ex` with `Ex`; returns the k-space
    /// energy. Marks the Z lines the gather will read.
    fn spectrum(&mut self, sys: &ParticleSystem) -> f64 {
        let n = self.params.grid;
        let h = n / 2 + 1;
        let half = n / 2;
        let alpha = self.params.alpha;
        let l = sys.box_len;
        let volume = l * l * l;

        // --- Spread: cloud-in-cell charge assignment -------------------
        // The stencils' (x, y) lines are the only Z lines the gather reads,
        // and the only ones holding charge.
        for &line in &self.lines {
            self.slot[line] = UNMARKED;
            self.rho[line * n..][..n].fill(0.0);
        }
        self.lines.clear();
        for (p, &q) in sys.positions.iter().zip(&sys.charges) {
            if q == 0.0 {
                continue;
            }
            let [wx, wy, wz] = cic3(p, l, n);
            for &(ix, _) in &wx {
                for &(iy, _) in &wy {
                    let line = ix * n + iy;
                    if self.slot[line] == UNMARKED {
                        self.slot[line] = self.lines.len();
                        self.lines.push(line);
                    }
                }
            }
            for &(ix, wx) in &wx {
                for &(iy, wy) in &wy {
                    for &(iz, wz) in &wz {
                        self.rho[(ix * n + iy) * n + iz] += q * wx * wy * wz;
                    }
                }
            }
        }
        self.lines.sort_unstable();
        for (j, &line) in self.lines.iter().enumerate() {
            self.slot[line] = j;
        }

        // --- Forward, real to half-complex: Z on the marked lines (a
        // complex transform of the real line, of which `kz ≤ n/2` is kept:
        // the rest is its conjugate mirror), Y on their x-slabs, X over the
        // whole half grid.
        let m = self.lines.len();
        let (re, im) = (&mut self.block.re[..n * m], &mut self.block.im[..n * m]);
        lines_to_columns(&self.rho, &self.lines, re, n);
        im.fill(0.0);
        self.plan.row_pass(re, im, false, &mut self.live);
        self.phi.re.fill(0.0);
        self.phi.im.fill(0.0);
        for kz in 0..h {
            let row = kz * m..(kz + 1) * m;
            let cells = self.block.re[row.clone()].iter().zip(&self.block.im[row]);
            for (&line, (&re, &im)) in self.lines.iter().zip(cells) {
                (self.phi.re[line * h + kz], self.phi.im[line * h + kz]) = (re, im);
            }
        }
        for slab_lines in self.lines.chunk_by(|a, b| a / n == b / n) {
            let x = slab_lines[0] / n;
            let slab = x * n * h..(x + 1) * n * h;
            self.phi.row_pass(slab, &self.plan, false, &mut self.live);
        }
        self.phi
            .row_pass(0..n * n * h, &self.plan, false, &mut self.live);

        // --- Green's function: `exp(−k²/4α²)` is the product of one
        // Gaussian per axis, so a call evaluates `n/2 + 1` `exp`.
        for (i, k) in self.kvec.iter_mut().enumerate() {
            let wrapped = if i >= half {
                i as isize - n as isize
            } else {
                i as isize
            };
            *k = 2.0 * PI * wrapped as f64 / l;
        }
        let folded = &self.kvec[..h];
        for (g, &k) in self.gauss.iter_mut().zip(folded) {
            *g = (-(k * k) / (4.0 * alpha * alpha)).exp();
        }
        // The DC entry is a division by zero; it is never read.
        let c = 4.0 * PI / volume;
        let mut entries = self.green.iter_mut();
        for (&kx, &gx) in folded.iter().zip(&self.gauss) {
            for (&ky, &gy) in folded.iter().zip(&self.gauss) {
                let (kxy2, gxy) = (kx * kx + ky * ky, gx * gy);
                for ((&kz, &gz), g) in folded.iter().zip(&self.gauss).zip(&mut entries) {
                    *g = c * (gxy * gz) / (kxy2 + kz * kz);
                }
            }
        }

        // --- Spectral loop, one Z line at a time: `φ = g·ρ = (pr, pi)`
        // over `ρ` in place, and `Ex = −i·kx·φ = (pi·kx, −pr·kx)`. The
        // planes `kz = 0` and `n/2` are their own mirrors; every other
        // plane also stands for its mirror `n − kz`, so its energy counts
        // twice.
        let kvec = &self.kvec[..n];
        let mut energy = 0.0;
        for (x, &kx) in kvec.iter().enumerate() {
            let dx = derivative(x, kx, n);
            for (y, &ky) in kvec.iter().enumerate() {
                let kxy2 = kx * kx + ky * ky;
                let green_row = &self.green[(fold(x, n) * h + fold(y, n)) * h..][..h];
                // `[..h]` lets the cell indices below go unchecked.
                let start = (x * n + y) * h;
                let (p_re, p_im) = (
                    &mut self.phi.re[start..][..h],
                    &mut self.phi.im[start..][..h],
                );
                let (x_re, x_im) = (&mut self.ex.re[start..][..h], &mut self.ex.im[start..][..h]);
                for z in 0..h {
                    let kz = kvec[z];
                    if kxy2 + kz * kz <= 0.0 {
                        // The grids are reused: the DC cell holds the last
                        // call's real-space field until it is zeroed.
                        (p_re[z], p_im[z], x_re[z], x_im[z]) = (0.0, 0.0, 0.0, 0.0);
                        continue;
                    }
                    let g = green_row[z];
                    let (sr, si) = (p_re[z], p_im[z]);
                    let weight = if z == 0 || z == half { 0.5 } else { 1.0 };
                    energy += weight * g * (sr * sr + si * si);
                    let (pr, pi) = (g * sr, g * si);
                    (p_re[z], p_im[z]) = (pr, pi);
                    (x_re[z], x_im[z]) = (pi * dx, -pr * dx);
                }
            }
        }
        energy
    }

    /// The inverse, X → Y → Z, pruned to what the gather reads: leaves the
    /// real-space `Ex + i·Ey` and `Ez` of line `lines[j]` in columns `2j`
    /// and `2j + 1` of the `n × 2m` block.
    fn invert(&mut self) {
        let n = self.params.grid;
        let h = n / 2 + 1;
        let width = 2 * self.lines.len();
        let kvec = &self.kvec[..n];
        let plan = &self.plan;
        self.ex.row_pass(0..n * n * h, plan, true, &mut self.live);
        self.phi.row_pass(0..n * n * h, plan, true, &mut self.live);
        for slab_lines in self.lines.chunk_by(|a, b| a / n == b / n) {
            let x = slab_lines[0] / n;
            let slab = x * n * h..(x + 1) * n * h;
            // `Ey = −i·ky·φ = (pi·ky, −pr·ky)`: `ky` is constant along x,
            // so it commutes with the X transform.
            let phi = (&self.phi.re[slab.clone()], &self.phi.im[slab.clone()]);
            let rows = self
                .ey
                .re
                .chunks_exact_mut(h)
                .zip(self.ey.im.chunks_exact_mut(h));
            let from = phi.0.chunks_exact(h).zip(phi.1.chunks_exact(h));
            for (y, ((e_re, e_im), (p_re, p_im))) in rows.zip(from).enumerate() {
                let dy = derivative(y, kvec[y], n);
                for z in 0..h {
                    (e_re[z], e_im[z]) = (p_im[z] * dy, -p_re[z] * dy);
                }
            }
            self.ex.row_pass(slab.clone(), plan, true, &mut self.live);
            self.ey.row_pass(0..n * h, plan, true, &mut self.live);
            self.phi.row_pass(slab.clone(), plan, true, &mut self.live);

            // Z: each line's full spectrum, `kz > n/2` the conjugate of
            // `n − kz`; `Ez = −i·kz·φ = (pi·kz, −pr·kz)`.
            for &line in slab_lines {
                let column = 2 * self.slot[line];
                let row = line % n * h;
                let at = slab.start + row;
                let ex = (&self.ex.re[at..][..h], &self.ex.im[at..][..h]);
                let ey = (&self.ey.re[row..][..h], &self.ey.im[row..][..h]);
                let phi = (&self.phi.re[at..][..h], &self.phi.im[at..][..h]);
                for kz in 0..n {
                    let (k, conj) = if kz < h { (kz, 1.0) } else { (n - kz, -1.0) };
                    let dz = derivative(k, kvec[k], n);
                    let (xr, xi) = (ex.0[k], conj * ex.1[k]);
                    let (yr, yi) = (ey.0[k], conj * ey.1[k]);
                    let (zr, zi) = (phi.1[k] * dz, conj * (-phi.0[k] * dz));
                    let cell = kz * width + column;
                    (self.block.re[cell], self.block.im[cell]) = (xr - yi, xi + yr);
                    (self.block.re[cell + 1], self.block.im[cell + 1]) = (zr, zi);
                }
            }
        }
        self.block
            .row_pass(0..n * width, plan, true, &mut self.live);
    }
}

#[cfg(test)]
mod reference {
    //! `PmeWorkspace` as it was before split storage and pruned transforms,
    //! kept verbatim over the interleaved reference grid as the oracle:
    //! three separate whole-spectrum field grids, each inverted whole (it
    //! returned the energy inside a struct that also echoed the grid side),
    //! and the Green's function as one `exp` per cell. Its energy and
    //! forces bound the half-spectrum solve's.

    use std::f64::consts::PI;

    use super::{cic3, PmeParams};
    use crate::fft::reference::Grid3;
    use crate::fft::FftPlan;
    use crate::system::ParticleSystem;

    /// The Ewald Green's function `4π·exp(−k²/4α²)/(V·k²)`.
    pub(super) fn green(k2: f64, alpha: f64, volume: f64) -> f64 {
        4.0 * PI * (-k2 / (4.0 * alpha * alpha)).exp() / (volume * k2)
    }

    pub(super) struct PmeWorkspace {
        params: PmeParams,
        plan: FftPlan,
        rho: Grid3,
        /// After a call, the three real-space field components, whole.
        pub(super) field: [Grid3; 3],
        kvec: Vec<f64>,
        green: Vec<f64>,
    }

    impl PmeWorkspace {
        pub(super) fn new(params: PmeParams) -> Self {
            let n = params.grid;
            let folded = n / 2 + 1;
            Self {
                params,
                rho: Grid3::new(n),
                field: [Grid3::new(n), Grid3::new(n), Grid3::new(n)],
                plan: FftPlan::new(n),
                kvec: vec![0.0; n],
                green: vec![0.0; folded * folded * folded],
            }
        }

        fn green_index(&self, x: usize, y: usize, z: usize) -> usize {
            let half = self.params.grid / 2;
            let fold = |m: usize| if m > half { self.params.grid - m } else { m };
            (fold(x) * (half + 1) + fold(y)) * (half + 1) + fold(z)
        }

        pub(super) fn reciprocal(&mut self, sys: &mut ParticleSystem) -> f64 {
            let n = self.params.grid;
            let alpha = self.params.alpha;
            let l = sys.box_len;
            let volume = l * l * l;

            // --- Spread: cloud-in-cell charge assignment -------------------
            self.rho.clear();
            for (p, &q) in sys.positions.iter().zip(&sys.charges) {
                if q == 0.0 {
                    continue;
                }
                let [wx, wy, wz] = cic3(p, l, n);
                for &(ix, wx) in &wx {
                    for &(iy, wy) in &wy {
                        for &(iz, wz) in &wz {
                            self.rho.add(ix, iy, iz, q * wx * wy * wz);
                        }
                    }
                }
            }

            // --- Solve: forward FFT, Green's function, spectral gradient ---
            self.rho.fft_planned(&self.plan, false);

            let half = n / 2;
            for (m, k) in self.kvec.iter_mut().enumerate() {
                let wrapped = if m >= half {
                    m as isize - n as isize
                } else {
                    m as isize
                };
                *k = 2.0 * PI * wrapped as f64 / l;
            }
            // The DC entry is a division by zero; it is never read.
            let folded = &self.kvec[..=half];
            let mut entries = self.green.iter_mut();
            for &kx in folded {
                for &ky in folded {
                    for (&kz, g) in folded.iter().zip(&mut entries) {
                        *g = green(kx * kx + ky * ky + kz * kz, alpha, volume);
                    }
                }
            }

            let mut energy = 0.0;
            for x in 0..n {
                let kx = self.kvec[x];
                for y in 0..n {
                    let ky = self.kvec[y];
                    for z in 0..n {
                        let kz = self.kvec[z];
                        let k2 = kx * kx + ky * ky + kz * kz;
                        if k2 <= 0.0 {
                            // The grids are reused: the DC cell holds the last
                            // call's real-space field until it is zeroed.
                            for f in &mut self.field {
                                f.set(x, y, z, (0.0, 0.0));
                            }
                            continue;
                        }
                        let g = self.green[self.green_index(x, y, z)];
                        let (sr, si) = self.rho.get(x, y, z);
                        energy += 0.5 * g * (sr * sr + si * si);
                        let (pr, pi) = (g * sr, g * si);
                        // E(k) = −i k φ(k): (−i)(pr + i·pi) k = (pi − i·pr) k
                        let ks = [kx, ky, kz];
                        for (axis, f) in self.field.iter_mut().enumerate() {
                            f.set(x, y, z, (pi * ks[axis], -pr * ks[axis]));
                        }
                    }
                }
            }

            // Self-energy correction (constant in positions).
            let q2_sum: f64 = sys.charges.iter().map(|q| q * q).sum();
            energy -= alpha / PI.sqrt() * q2_sum;

            // --- Gather: inverse FFT the field grids, interpolate at particles
            // Our inverse FFT divides by n³; the spectral sum has no such
            // factor, so scale back.
            let scale = (n * n * n) as f64;
            for f in &mut self.field {
                f.fft_planned(&self.plan, true);
            }

            for idx in 0..sys.len() {
                let q = sys.charges[idx];
                if q == 0.0 {
                    continue;
                }
                let [wx, wy, wz] = cic3(&sys.positions[idx], l, n);
                let mut e_here = [0.0; 3];
                for &(ix, wx) in &wx {
                    for &(iy, wy) in &wy {
                        for &(iz, wz) in &wz {
                            let w = wx * wy * wz;
                            for (axis, f) in self.field.iter().enumerate() {
                                e_here[axis] += w * f.get(ix, iy, iz).0 * scale;
                            }
                        }
                    }
                }
                for a in 0..3 {
                    sys.forces[idx][a] += q * e_here[a];
                }
            }

            energy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces;
    use crate::neighbor::NeighborList;
    use crate::system::SystemBuilder;

    /// A big empty box with two opposite unit charges at distance `r`.
    fn dipole_system(r: f64) -> ParticleSystem {
        let mut sys = SystemBuilder::new(2).density(0.001).build_lj_fluid();
        let c = sys.box_len / 2.0;
        sys.positions[0] = [c - r / 2.0, c, c];
        sys.positions[1] = [c + r / 2.0, c, c];
        sys.charges[0] = 1.0;
        sys.charges[1] = -1.0;
        sys.clear_forces();
        sys
    }

    /// Total Ewald force on particle 0 (real erfc part + reciprocal part).
    fn total_coulomb_force_x(r: f64, alpha: f64, grid: usize) -> f64 {
        let mut sys = dipole_system(r);
        let cutoff = sys.box_len / 2.0 * 0.99;
        let nl = NeighborList::build(&sys, cutoff, 0.0);
        // Real-space part only (LJ contributes too, but identically for
        // both alphas; subtract it out).
        let mut lj_only = dipole_system(r);
        let _ = forces::lj_cut(&mut lj_only, &nl, cutoff);

        let _ = forces::lj_coulomb_cut(&mut sys, &nl, cutoff, alpha);
        let _ = PmeWorkspace::new(PmeParams { grid, alpha }).reciprocal(&mut sys);
        sys.forces[0][0] - lj_only.forces[0][0]
    }

    #[test]
    fn folded_greens_function_is_the_direct_expression_within_1e_13() {
        // The two sides round the argument `−k²/4α²` differently (one sum
        // of squares, or three per-axis terms), and `exp` turns an absolute
        // error `δ` of its argument into a relative error `δ`. An argument
        // `a` rounds to within about `a · 2⁻⁵²`, so the bound grows with
        // |k|: at this test's largest, the corner (15, 15, 15) of n = 32 at
        // density 0.3 with `a` ≈ 290, that is ≈ 6.5e-14. The product of
        // three `exp` adds only a few ulps. Measured worst: 5.7e-14, there.
        let alpha = 0.8;
        for (n, density) in [1, 2, 8, 32]
            .into_iter()
            .flat_map(|n| [(n, 0.3), (n, 0.05)])
        {
            let mut sys = SystemBuilder::new(64)
                .density(density)
                .build_protein_like(0.3);
            let mut ws = PmeWorkspace::new(PmeParams { grid: n, alpha });
            let _ = ws.reciprocal(&mut sys);

            let l = sys.box_len;
            let volume = l * l * l;
            let kvec = |m: usize| -> f64 {
                let m = m as isize;
                let half = (n / 2) as isize;
                let wrapped = if m >= half { m - n as isize } else { m };
                2.0 * PI * wrapped as f64 / l
            };
            let side = n / 2 + 1;
            for x in 0..n {
                for y in 0..n {
                    for z in 0..n {
                        let k2 = kvec(x) * kvec(x) + kvec(y) * kvec(y) + kvec(z) * kvec(z);
                        if k2 <= 0.0 {
                            continue;
                        }
                        let g = reference::green(k2, alpha, volume);
                        let folded = ws.green[(fold(x, n) * side + fold(y, n)) * side + fold(z, n)];
                        let at = format!("n={n} ({x}, {y}, {z}): {folded} vs {g}");
                        assert!((folded - g).abs() <= 1e-13 * g, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_reused_workspace_matches_a_fresh_one_bit_for_bit() {
        let params = PmeParams::default();
        let mut sys = SystemBuilder::new(300).build_protein_like(0.15);
        let mut reused = PmeWorkspace::new(params);
        for round in 0..4 {
            // Move the particles and breathe the box between calls, as a
            // barostatted run does.
            for (i, p) in sys.positions.iter_mut().enumerate() {
                p[i % 3] += 0.013 * (round + 1) as f64;
            }
            sys.box_len *= 1.0 + 0.002 * round as f64;

            let mut fresh_sys = sys.clone();
            sys.clear_forces();
            fresh_sys.clear_forces();
            let a = reused.reciprocal(&mut sys);
            let b = PmeWorkspace::new(params).reciprocal(&mut fresh_sys);
            assert_eq!(a.to_bits(), b.to_bits(), "round {round}");
            for (fa, fb) in sys.forces.iter().zip(&fresh_sys.forces) {
                assert_eq!(fa.map(f64::to_bits), fb.map(f64::to_bits), "round {round}");
            }
        }
    }

    /// The layouts of `tests/golden.rs`'s reciprocal digests: GMS's `tiny`
    /// chain (charged particles in a few x-slabs), a fluid with every
    /// particle charged, one ± pair, and charges exactly on grid points and
    /// on the wrap edge.
    fn layouts() -> [ParticleSystem; 4] {
        let chain = SystemBuilder::new(300)
            .density(0.7)
            .seed(42)
            .build_protein_like(0.15);
        let mut fluid = SystemBuilder::new(300)
            .density(0.7)
            .seed(45)
            .build_lj_fluid();
        for (i, q) in fluid.charges.iter_mut().enumerate() {
            *q = if i % 2 == 0 { 0.5 } else { -0.5 };
        }
        let mut on_grid = SystemBuilder::new(7).build_lj_fluid();
        on_grid.box_len = 8.0;
        on_grid.positions = vec![
            [0.0, 0.0, 0.0],
            [4.0, 4.0, 4.0],
            [8.0, 2.0, 8.0],
            [0.25, 7.75, 3.0],
            [-0.0, 6.0, 0.5],
            [7.0, 1.0, -8.0],
            [-1e-17, 4.0, 2.0],
        ];
        on_grid.charges = vec![1.0, -1.0, -0.5, 0.5, -0.25, 0.25, -0.75];
        [chain, fluid, dipole_system(3.0), on_grid]
    }

    /// The largest force component's magnitude.
    fn max_force(sys: &ParticleSystem) -> f64 {
        sys.forces
            .iter()
            .flatten()
            .fold(0.0, |max, f| f.abs().max(max))
    }

    /// Asserts `energy` lies within `1e-12` of the oracle's k-space sum:
    /// the total cancels against the self term, which both sides subtract
    /// identically.
    fn assert_energy_matches(energy: f64, oracle: f64, sys: &ParticleSystem, alpha: f64, at: &str) {
        let q2_sum: f64 = sys.charges.iter().map(|q| q * q).sum();
        let k_space = oracle + alpha / PI.sqrt() * q2_sum;
        let at = format!("{at}: energy {energy} vs {oracle}");
        assert!((energy - oracle).abs() <= 1e-12 * k_space.abs(), "{at}");
    }

    /// `rounds` evaluations on one reused workspace and one reused oracle,
    /// moving the particles and breathing the box between calls; asserts
    /// the k-space energy within `1e-12` of the oracle's and every force
    /// within `1e-12·max|f|` of the oracle's.
    fn assert_matches_the_reference(start: &ParticleSystem, params: PmeParams, rounds: usize) {
        let mut ws = PmeWorkspace::new(params);
        let mut oracle = reference::PmeWorkspace::new(params);
        let mut sys = start.clone();
        for round in 0..rounds {
            for (i, p) in sys.positions.iter_mut().enumerate() {
                p[i % 3] += 0.37 * round as f64;
            }
            sys.box_len *= 1.0 + 0.002 * round as f64;
            sys.clear_forces();
            let mut want = sys.clone();
            let at = format!("n={} round={round}", params.grid);
            let energy = ws.reciprocal(&mut sys);
            let oracle_energy = oracle.reciprocal(&mut want);
            assert_energy_matches(energy, oracle_energy, &sys, params.alpha, &at);
            let tolerance = 1e-12 * max_force(&want);
            for (got, want) in sys.forces.iter().zip(&want.forces) {
                for (g, w) in got.iter().zip(want) {
                    assert!((g - w).abs() <= tolerance, "{at}: {got:?} vs {want:?}");
                }
            }
        }
    }

    #[test]
    fn reciprocal_matches_the_reference_on_every_layout() {
        for sys in layouts() {
            for grid in [1, 2, 8, 32] {
                assert_matches_the_reference(&sys, PmeParams { grid, alpha: 0.8 }, 4);
            }
        }
    }

    #[test]
    fn at_grids_1_and_2_every_field_mode_is_nyquist_and_no_force_acts() {
        // Every mode of a 1- or 2-point grid other than DC has the Nyquist
        // index n/2 on some axis, and its other axes' kvec are 0: the
        // field components are zero. The oracle's are purely imaginary
        // (the ±1 twiddles keep the transformed charge real), so the real
        // part its gather reads is ±0 as well. Without the Nyquist zeroing
        // the packed Ey would leak into Ex here.
        for start in layouts() {
            for grid in [1, 2] {
                let params = PmeParams { grid, alpha: 0.8 };
                let (mut sys, mut want) = (start.clone(), start.clone());
                let energy = PmeWorkspace::new(params).reciprocal(&mut sys);
                let oracle = reference::PmeWorkspace::new(params).reciprocal(&mut want);
                assert_energy_matches(energy, oracle, &sys, params.alpha, &format!("n={grid}"));
                for f in sys.forces.iter().chain(&want.forces).flatten() {
                    assert!(*f == 0.0, "n={grid}: {f}");
                }
            }
        }
    }

    #[test]
    fn the_packed_grid_inverts_to_the_two_separate_fields() {
        // With every Z line marked, the block holds the whole real-space
        // field: `Ex + i·Ey` in one column, with `Ey` formed from `φ` after
        // the X pass, and `Ez` formed from `φ` in the Z pass in the next.
        // Against the oracle's three fields inverted separately, in every
        // cell, not only in those the gather reads.
        for start in layouts() {
            for grid in [8, 32] {
                let n = grid;
                let params = PmeParams { grid, alpha: 0.8 };
                let mut ws = PmeWorkspace::new(params);
                let _ = ws.spectrum(&start);
                ws.lines.clear();
                ws.lines.extend(0..n * n);
                for (j, &line) in ws.lines.iter().enumerate() {
                    ws.slot[line] = j;
                }
                ws.invert();

                let mut oracle = reference::PmeWorkspace::new(params);
                let _ = oracle.reciprocal(&mut start.clone());
                let fields = &oracle.field;
                let max = fields
                    .iter()
                    .flat_map(|f| &f.data)
                    .fold(0.0, |m: f64, c| c.0.abs().max(m));
                assert!(max > 0.0, "n={grid}: the layout has a field");
                let block = &ws.block;
                for (line, (x, y)) in (0..n).flat_map(|x| (0..n).map(move |y| (x, y))).enumerate() {
                    for z in 0..n {
                        let cell = z * 2 * n * n + 2 * line;
                        let got = [block.re[cell], block.im[cell], block.re[cell + 1]];
                        let want = fields.each_ref().map(|f| f.get(x, y, z).0);
                        let at = format!("n={grid} ({x}, {y}, {z}): {got:?} vs {want:?}");
                        for (g, w) in got.iter().zip(want) {
                            assert!((g - w).abs() <= 1e-12 * max, "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grids_of_64_and_128_match_the_reference() {
        // No mark or line list is sized for a fixed grid.
        for (grid, rounds) in [(64, 2), (128, 1)] {
            assert_matches_the_reference(
                &dipole_system(3.0),
                PmeParams { grid, alpha: 0.8 },
                rounds,
            );
        }
    }

    #[test]
    fn a_system_without_charge_gets_only_the_self_energy() {
        // Zero charged particles: nothing spread, no line to transform.
        let mut sys = SystemBuilder::new(64).build_lj_fluid();
        let energy = PmeWorkspace::new(PmeParams::default()).reciprocal(&mut sys);
        assert_eq!(energy.to_bits(), 0.0f64.to_bits());
        assert!(sys.forces.iter().flatten().all(|f| f.to_bits() == 0));
        assert_matches_the_reference(&sys, PmeParams::default(), 2);
    }

    #[test]
    fn a_reused_workspace_keeps_its_buffer_capacities() {
        // Every buffer is sized by `new`: no call grows one, whatever
        // lines and slabs it finds marked.
        let capacities = |ws: &PmeWorkspace| {
            let grids =
                [&ws.phi, &ws.ex, &ws.ey, &ws.block].map(|c| [&c.re, &c.im].map(Vec::capacity));
            let tables = [&ws.rho, &ws.kvec, &ws.gauss, &ws.green].map(Vec::capacity);
            let lines = [&ws.slot, &ws.lines].map(Vec::capacity);
            (grids, tables, lines, ws.live.capacity())
        };
        let mut ws = PmeWorkspace::new(PmeParams::default());
        let before = capacities(&ws);
        for mut sys in layouts().into_iter().chain(layouts()) {
            let _ = ws.reciprocal(&mut sys);
            assert_eq!(capacities(&ws), before);
        }
    }

    #[test]
    fn reciprocal_energy_is_bounded_below_by_self_energy() {
        let mut sys = dipole_system(3.0);
        let energy = PmeWorkspace::new(PmeParams::default()).reciprocal(&mut sys);
        // The k-space sum is non-negative; only the self term is negative.
        let self_term = -PmeParams::default().alpha / PI.sqrt() * 2.0;
        assert!(energy >= self_term - 1e-9, "{energy}");
    }

    #[test]
    fn opposite_charges_attract() {
        let fx = total_coulomb_force_x(3.0, 0.7, 32);
        // Particle 0 sits at −x of particle 1; attraction pulls it to +x.
        assert!(fx > 0.0, "force {fx}");
    }

    #[test]
    fn ewald_total_is_alpha_independent() {
        let f1 = total_coulomb_force_x(3.0, 0.6, 32);
        let f2 = total_coulomb_force_x(3.0, 1.0, 32);
        let rel = (f1 - f2).abs() / f1.abs().max(1e-12);
        assert!(rel < 0.08, "alpha=0.6 → {f1}, alpha=1.0 → {f2}");
    }

    #[test]
    fn ewald_approximates_bare_coulomb_in_large_box() {
        let r = 2.0;
        let fx = total_coulomb_force_x(r, 0.8, 32);
        let bare = 1.0 / (r * r);
        let rel = (fx - bare).abs() / bare;
        assert!(rel < 0.15, "ewald {fx} vs bare {bare}");
    }

    #[test]
    fn forces_sum_to_zero() {
        let mut sys = SystemBuilder::new(64).build_protein_like(0.3);
        sys.clear_forces();
        let _ = PmeWorkspace::new(PmeParams::default()).reciprocal(&mut sys);
        let mut net = [0.0; 3];
        for f in &sys.forces {
            for a in 0..3 {
                net[a] += f[a];
            }
        }
        for a in 0..3 {
            assert!(net[a].abs() < 1e-8, "net force {net:?}");
        }
    }

    #[test]
    fn neutral_system_has_finite_energy() {
        let mut sys = SystemBuilder::new(128).build_protein_like(0.25);
        sys.clear_forces();
        let energy = PmeWorkspace::new(PmeParams {
            grid: 16,
            alpha: 0.8,
        })
        .reciprocal(&mut sys);
        assert!(energy.is_finite());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_grid_panics() {
        let mut sys = dipole_system(2.0);
        let _ = PmeWorkspace::new(PmeParams {
            grid: 20,
            alpha: 0.8,
        })
        .reciprocal(&mut sys);
    }
}
