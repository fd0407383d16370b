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
//! A [`PmeWorkspace`] holds the transform plan, the charge grid, the field
//! grids and the transform scratch, so an evaluation allocates nothing;
//! the Green's function is tabulated once per call on the folded octant of
//! the grid. The three real field components travel as two complex grids,
//! `Ex + i·Ey` and `Ez`, and their inverse runs X → Y → Z: X over the whole
//! grids, Y only on the x-slabs and Z only on the Z lines the force gather
//! reads.

use std::f64::consts::PI;

use crate::fft::{lines_to_columns, FftPlan, FftScratch, Grid3};
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
    rho: Grid3,
    /// `Ex + i·Ey`, then `Ez`.
    fields: [Field; 2],
    /// `kvec(m)` for every grid index, refilled per call (the box breathes
    /// under a barostat).
    kvec: Vec<f64>,
    /// The Green's function on the folded octant `(n/2 + 1)³`, refilled per
    /// call. `k²` is even in every component and `kvec(n − m) = −kvec(m)`
    /// exactly, so the entry at `(fold(x), fold(y), fold(z))` is the very
    /// `f64` the direct expression gives at `(x, y, z)` (see [`fold`]).
    green: Vec<f64>,
    /// Per Z line `(x, y)` (`x·n + y`): its column in the fields' blocks
    /// when a charged particle's stencil holds it, [`UNMARKED`] otherwise.
    slot: Vec<usize>,
    /// The stencils' Z lines in increasing order: the only lines the
    /// inverse Z pass transforms, on the only x-slabs the Y pass does.
    lines: Vec<usize>,
    scratch: FftScratch,
}

/// One complex field, from the spectral loop to the gather: the whole grid
/// the spectral loop fills and the X and Y passes transform in place, and
/// the `n × m` block the Z pass finishes the `m` gathered Z lines in (row
/// `z`, column `j` is cell `z` of line `lines[j]`).
#[derive(Debug, Clone)]
struct Field {
    re: Vec<f64>,
    im: Vec<f64>,
    block_re: Vec<f64>,
    block_im: Vec<f64>,
}

impl Field {
    fn new(n: usize) -> Self {
        // Room for every Z line in the block; a call touches `n × m` cells.
        let cells = n * n * n;
        Self {
            re: vec![0.0; cells],
            im: vec![0.0; cells],
            block_re: vec![0.0; cells],
            block_im: vec![0.0; cells],
        }
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

/// The Ewald Green's function `4π·exp(−k²/4α²)/(V·k²)`.
fn green(k2: f64, alpha: f64, volume: f64) -> f64 {
    4.0 * PI * (-k2 / (4.0 * alpha * alpha)).exp() / (volume * k2)
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
        let folded = n / 2 + 1;
        Self {
            params,
            rho: Grid3::new(n),
            fields: [Field::new(n), Field::new(n)],
            plan: FftPlan::new(n),
            kvec: vec![0.0; n],
            green: vec![0.0; folded * folded * folded],
            slot: vec![UNMARKED; n * n],
            lines: Vec::with_capacity(n * n),
            scratch: FftScratch::new(n),
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

        // --- Inverse: X over both whole grids, Y on the stencils' x-slabs,
        // Z on their lines (copied into the block, which the gather reads).
        let m = self.lines.len();
        if m == 0 {
            return energy;
        }
        for f in &mut self.fields {
            self.plan
                .transform_rows(&mut f.re, &mut f.im, true, &mut self.scratch);
            for slab_lines in self.lines.chunk_by(|a, b| a / n == b / n) {
                let x = slab_lines[0] / n;
                let slab = x * n * n..(x + 1) * n * n;
                let (re, im) = (&mut f.re[slab.clone()], &mut f.im[slab]);
                self.plan.transform_rows(re, im, true, &mut self.scratch);
            }
            let (re, im) = (&mut f.block_re[..n * m], &mut f.block_im[..n * m]);
            lines_to_columns(&f.re, &self.lines, re, n);
            lines_to_columns(&f.im, &self.lines, im, n);
            self.plan.transform_rows(re, im, true, &mut self.scratch);
        }

        // --- Gather: interpolate at the particles. Our inverse FFT divides
        // by n³; the spectral sum has no such factor, so scale back.
        let scale = (n * n * n) as f64;
        let [exy, ez] = &self.fields;
        for idx in 0..sys.len() {
            let q = sys.charges[idx];
            if q == 0.0 {
                continue;
            }
            let [wx, wy, wz] = cic3(&sys.positions[idx], l, n);
            let mut e_here = [0.0; 3];
            for &(ix, wx) in &wx {
                for &(iy, wy) in &wy {
                    let column = self.slot[ix * n + iy];
                    for &(iz, wz) in &wz {
                        let w = wx * wy * wz;
                        let cell = iz * m + column;
                        let e = [exy.block_re[cell], exy.block_im[cell], ez.block_re[cell]];
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

    /// Spread the charges, transform them and fill the two field grids with
    /// the spectral gradient; returns the k-space energy. Marks the Z lines
    /// the gather will read.
    fn spectrum(&mut self, sys: &ParticleSystem) -> f64 {
        let n = self.params.grid;
        let alpha = self.params.alpha;
        let l = sys.box_len;
        let volume = l * l * l;

        // --- Spread: cloud-in-cell charge assignment -------------------
        // The stencils' (x, y) lines are the only Z lines the gather reads.
        for &line in &self.lines {
            self.slot[line] = UNMARKED;
        }
        self.lines.clear();
        self.rho.clear();
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
                        self.rho.add(ix, iy, iz, q * wx * wy * wz);
                    }
                }
            }
        }
        self.lines.sort_unstable();
        for (column, &line) in self.lines.iter().enumerate() {
            self.slot[line] = column;
        }

        // --- Solve: forward FFT, Green's function ----------------------
        self.rho.transform(&self.plan, false, &mut self.scratch);

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

        // --- Spectral gradient, packed, cell by cell in x→y→z order (the
        // order `energy` is summed in). `E(k) = −i·k·φ(k)` is
        // `(pi − i·pr)·k` per axis, so the two grids get
        // `Ex + i·Ey = (pi·kx + pr·ky, pi·ky − pr·kx)` and
        // `Ez = (pi·kz, −pr·kz)`. On its own axis's Nyquist index `n/2`
        // each derivative factor is zeroed: `kvec` is not negated under
        // `m → n − m` there, so that plane of the component is
        // anti-Hermitian and inverts to a purely imaginary field, which
        // the real part the gather reads drops in exact arithmetic —
        // packed, it would land in the partner's slot. (At `n = 1` the
        // Nyquist index is 0, whose `kvec` is `−2π/L`, not 0.)
        let derivative = |m: usize, k: f64| if m == half { 0.0 } else { k };
        let (rho_re, rho_im) = self.rho.cells();
        let [exy, ez] = &mut self.fields;
        let kvec = &self.kvec[..n];
        let side = half + 1;
        let mut energy = 0.0;
        for (x, &kx) in kvec.iter().enumerate() {
            let dx = derivative(x, kx);
            for (y, &ky) in kvec.iter().enumerate() {
                let dy = derivative(y, ky);
                let kxy2 = kx * kx + ky * ky;
                let green_row = &self.green[(fold(x, n) * side + fold(y, n)) * side..][..side];
                // One Z line; `[..n]` lets the cell indices below go unchecked.
                let start = (x * n + y) * n;
                let (sr, si) = (&rho_re[start..][..n], &rho_im[start..][..n]);
                let (xy_re, xy_im) = (&mut exy.re[start..][..n], &mut exy.im[start..][..n]);
                let (z_re, z_im) = (&mut ez.re[start..][..n], &mut ez.im[start..][..n]);
                for z in 0..n {
                    let kz = kvec[z];
                    if kxy2 + kz * kz <= 0.0 {
                        // The grids are reused: the DC cell holds the last
                        // call's real-space field until it is zeroed.
                        (xy_re[z], xy_im[z], z_re[z], z_im[z]) = (0.0, 0.0, 0.0, 0.0);
                        continue;
                    }
                    let g = green_row[fold(z, n)];
                    let (sr, si) = (sr[z], si[z]);
                    energy += 0.5 * g * (sr * sr + si * si);
                    let (pr, pi) = (g * sr, g * si);
                    let dz = derivative(z, kz);
                    (xy_re[z], xy_im[z]) = (pi * dx + pr * dy, pi * dy - pr * dx);
                    (z_re[z], z_im[z]) = (pi * dz, -pr * dz);
                }
            }
        }
        energy
    }
}

#[cfg(test)]
mod reference {
    //! `PmeWorkspace` as it was before split storage and pruned transforms,
    //! kept verbatim over the interleaved reference grid as the oracle:
    //! three separate field grids, each inverted whole (it returned the
    //! energy inside a struct that also echoed the grid side). Its energy
    //! is the `to_bits` oracle; its forces bound the packed inverse's.

    use std::f64::consts::PI;

    use super::{cic3, green, PmeParams};
    use crate::fft::reference::Grid3;
    use crate::fft::FftPlan;
    use crate::system::ParticleSystem;

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
    fn folded_greens_function_has_the_direct_expressions_bits() {
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

            // The per-cell expressions of before the fold, verbatim.
            let l = sys.box_len;
            let volume = l * l * l;
            let kvec = |m: usize| -> f64 {
                let m = m as isize;
                let half = (n / 2) as isize;
                let wrapped = if m >= half { m - n as isize } else { m };
                2.0 * PI * wrapped as f64 / l
            };
            for x in 0..n {
                let kx = kvec(x);
                for y in 0..n {
                    let ky = kvec(y);
                    for z in 0..n {
                        let kz = kvec(z);
                        let k2 = kx * kx + ky * ky + kz * kz;
                        if k2 <= 0.0 {
                            continue;
                        }
                        let g = 4.0 * PI * (-k2 / (4.0 * alpha * alpha)).exp() / (volume * k2);
                        let side = n / 2 + 1;
                        let folded = ws.green[(fold(x, n) * side + fold(y, n)) * side + fold(z, n)];
                        assert_eq!(folded.to_bits(), g.to_bits(), "n={n} ({x}, {y}, {z})");
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

    /// `rounds` evaluations on one reused workspace and one reused oracle,
    /// moving the particles and breathing the box between calls; asserts
    /// the energy has the oracle's bits and every force lies within
    /// `1e-12·max|f|` of the oracle's.
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
            assert_eq!(
                energy.to_bits(),
                oracle.reciprocal(&mut want).to_bits(),
                "{at}"
            );
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
        // packed fields are zero. The oracle's are purely imaginary (the
        // ±1 twiddles keep the transformed charge real), so the real part
        // its gather reads is ±0 as well. Without the Nyquist zeroing the
        // packed Ey would leak into Ex here.
        for start in layouts() {
            for grid in [1, 2] {
                let params = PmeParams { grid, alpha: 0.8 };
                let (mut sys, mut want) = (start.clone(), start.clone());
                let energy = PmeWorkspace::new(params).reciprocal(&mut sys);
                let oracle = reference::PmeWorkspace::new(params).reciprocal(&mut want);
                assert_eq!(energy.to_bits(), oracle.to_bits(), "n={grid}");
                for f in sys.forces.iter().chain(&want.forces).flatten() {
                    assert!(*f == 0.0, "n={grid}: {f}");
                }
            }
        }
    }

    #[test]
    fn the_packed_grid_inverts_to_the_two_separate_fields() {
        // `Ex + i·Ey` inverted whole as one grid, against the oracle's Ex
        // and Ey inverted as two: the real part is Ex and the imaginary
        // part Ey in every cell, not only in those the gather reads.
        for start in layouts() {
            for grid in [8, 32] {
                let params = PmeParams { grid, alpha: 0.8 };
                let mut ws = PmeWorkspace::new(params);
                let _ = ws.spectrum(&start);
                let mut packed = crate::fft::reference::Grid3::new(grid);
                let exy = &ws.fields[0];
                for (cell, v) in packed.data.iter_mut().zip(exy.re.iter().zip(&exy.im)) {
                    *cell = (*v.0, *v.1);
                }
                packed.fft_planned(&ws.plan, true);

                let mut oracle = reference::PmeWorkspace::new(params);
                let _ = oracle.reciprocal(&mut start.clone());
                let [ex, ey, _] = &oracle.field;
                let max = ex
                    .data
                    .iter()
                    .chain(&ey.data)
                    .fold(0.0, |m: f64, c| c.0.abs().max(m));
                assert!(max > 0.0, "n={grid}: the layout has a field");
                let cells = packed.data.iter().zip(ex.data.iter().zip(&ey.data));
                for (i, (got, (x, y))) in cells.enumerate() {
                    let at = format!("n={grid} cell {i}: {got:?} vs ({}, {})", x.0, y.0);
                    assert!((got.0 - x.0).abs() <= 1e-12 * max, "{at}");
                    assert!((got.1 - y.0).abs() <= 1e-12 * max, "{at}");
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
            let fields = ws
                .fields
                .each_ref()
                .map(|f| [&f.re, &f.im, &f.block_re, &f.block_im].map(Vec::capacity));
            let tables = [&ws.kvec, &ws.green].map(Vec::capacity);
            let lines = [&ws.slot, &ws.lines].map(Vec::capacity);
            (ws.scratch.capacities(), fields, tables, lines)
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
