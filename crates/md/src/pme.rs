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
//! buffers and the transform scratch, so an evaluation allocates nothing;
//! the Green's function is tabulated once per call on the folded octant of
//! the grid. The field is built and inverse-transformed one x-slab at a
//! time, and the gather reads it only on the X lines through the particles'
//! stencils, so the last inverse pass runs on those lines alone.

use std::f64::consts::PI;

use crate::fft::{FftPlan, FftScratch, Grid3};
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

/// The reciprocal-space solver: the parameters plus every buffer an
/// evaluation touches, so that after construction a call allocates nothing.
#[derive(Debug, Clone)]
pub struct PmeWorkspace {
    params: PmeParams,
    plan: FftPlan,
    rho: Grid3,
    field: [Field; 3],
    /// `kvec(m)` for every grid index, refilled per call (the box breathes
    /// under a barostat).
    kvec: Vec<f64>,
    /// The Green's function on the folded octant `(n/2 + 1)³`, refilled per
    /// call. `k²` is even in every component and `kvec(n − m) = −kvec(m)`
    /// exactly, so the entry at `(fold(x), fold(y), fold(z))` is the very
    /// `f64` the direct expression gives at `(x, y, z)` (see [`fold`]).
    green: Vec<f64>,
    /// Per `(y, z)` column (`y·n + z`): whether a charged particle's
    /// stencil covers it. All `false` between calls.
    covered: Vec<bool>,
    /// The covered columns in increasing order: the X lines the gather
    /// reads, and the only ones the inverse X pass transforms.
    columns: Vec<usize>,
    /// Per covered column, its index in `columns` (stale elsewhere).
    slot: Vec<usize>,
    scratch: FftScratch,
}

/// One field component, from the spectral loop to the gather: the x-slab
/// the spectral loop fills and the Z and Y passes transform in place, and
/// the `n × m` block of the `m` gathered columns (row `x` copied out of
/// slab `x`) that the X pass finishes.
#[derive(Debug, Clone)]
struct Field {
    slab_re: Vec<f64>,
    slab_im: Vec<f64>,
    block_re: Vec<f64>,
    block_im: Vec<f64>,
}

impl Field {
    fn new(n: usize) -> Self {
        Self {
            slab_re: vec![0.0; n * n],
            slab_im: vec![0.0; n * n],
            // Room for every column; a call touches its `n × m` cells only.
            block_re: vec![0.0; n * n * n],
            block_im: vec![0.0; n * n * n],
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
            field: [Field::new(n), Field::new(n), Field::new(n)],
            plan: FftPlan::new(n),
            kvec: vec![0.0; n],
            green: vec![0.0; folded * folded * folded],
            covered: vec![false; n * n],
            columns: Vec::with_capacity(n * n),
            slot: vec![0; n * n],
            scratch: FftScratch::new(n),
        }
    }

    /// Evaluate the reciprocal-space Ewald contribution, accumulating
    /// forces into `sys.forces`; returns the energy (including the
    /// self-energy correction).
    pub fn reciprocal(&mut self, sys: &mut ParticleSystem) -> f64 {
        let n = self.params.grid;
        let alpha = self.params.alpha;
        let l = sys.box_len;
        let volume = l * l * l;

        // --- Spread: cloud-in-cell charge assignment -------------------
        // The stencils' (y, z) columns are the only X lines the gather
        // below reads.
        self.rho.clear();
        for (p, &q) in sys.positions.iter().zip(&sys.charges) {
            if q == 0.0 {
                continue;
            }
            let [wx, wy, wz] = cic3(p, l, n);
            for &(iy, _) in &wy {
                for &(iz, _) in &wz {
                    self.covered[iy * n + iz] = true;
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
        self.columns.clear();
        for (column, covered) in self.covered.iter_mut().enumerate() {
            if std::mem::take(covered) {
                self.slot[column] = self.columns.len();
                self.columns.push(column);
            }
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

        // --- Spectral gradient, then each field's inverse Z and Y passes,
        // one x-slab at a time: cell by cell in x→y→z order (the order
        // `energy` is summed in), the slab transformed while it is hot and
        // its cells of the gathered columns kept as row x of the block.
        let m = self.columns.len();
        let (rho_re, rho_im) = self.rho.cells();
        let mut energy = 0.0;
        for (x, &kx) in self.kvec.iter().enumerate() {
            let slab = x * n * n..(x + 1) * n * n;
            let (rho_re, rho_im) = (&rho_re[slab.clone()], &rho_im[slab]);
            let [fx, fy, fz] = &mut self.field;
            let mut i = 0;
            for (y, &ky) in self.kvec.iter().enumerate() {
                let green_row = &self.green[(fold(x, n) * (half + 1) + fold(y, n)) * (half + 1)..];
                for (z, &kz) in self.kvec.iter().enumerate() {
                    let k2 = kx * kx + ky * ky + kz * kz;
                    if k2 <= 0.0 {
                        // The slabs are reused: the DC cell holds the last
                        // slab's real-space field until it is zeroed.
                        for f in [&mut *fx, &mut *fy, &mut *fz] {
                            (f.slab_re[i], f.slab_im[i]) = (0.0, 0.0);
                        }
                        i += 1;
                        continue;
                    }
                    let g = green_row[fold(z, n)];
                    let (sr, si) = (rho_re[i], rho_im[i]);
                    energy += 0.5 * g * (sr * sr + si * si);
                    let (pr, pi) = (g * sr, g * si);
                    // E(k) = −i k φ(k): (−i)(pr + i·pi) k = (pi − i·pr) k
                    (fx.slab_re[i], fx.slab_im[i]) = (pi * kx, -pr * kx);
                    (fy.slab_re[i], fy.slab_im[i]) = (pi * ky, -pr * ky);
                    (fz.slab_re[i], fz.slab_im[i]) = (pi * kz, -pr * kz);
                    i += 1;
                }
            }
            for f in &mut self.field {
                let (re, im) = (&mut f.slab_re, &mut f.slab_im);
                self.plan.transform_slab(re, im, true, &mut self.scratch);
                let row = x * m..(x + 1) * m;
                let cells = f.block_re[row.clone()].iter_mut().zip(&mut f.block_im[row]);
                for ((cell_re, cell_im), &column) in cells.zip(&self.columns) {
                    (*cell_re, *cell_im) = (re[column], im[column]);
                }
            }
        }

        // Self-energy correction (constant in positions).
        let q2_sum: f64 = sys.charges.iter().map(|q| q * q).sum();
        energy -= alpha / PI.sqrt() * q2_sum;

        // --- Gather: the X pass on the gathered columns, interpolate at
        // the particles. Our inverse FFT divides by n³; the spectral sum
        // has no such factor, so scale back.
        let scale = (n * n * n) as f64;
        for f in &mut self.field {
            let (re, im) = (&mut f.block_re[..n * m], &mut f.block_im[..n * m]);
            self.plan.transform_rows(re, im, true, &mut self.scratch);
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
                        let cell = ix * m + self.slot[iy * n + iz];
                        for (axis, f) in self.field.iter().enumerate() {
                            e_here[axis] += w * f.block_re[cell] * scale;
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

#[cfg(test)]
mod reference {
    //! `PmeWorkspace` as it was before split storage and pruned transforms,
    //! kept verbatim over the interleaved reference grid as the `to_bits`
    //! oracle (it returned the energy inside a struct that also echoed the
    //! grid side).

    use std::f64::consts::PI;

    use super::{cic3, green, PmeParams};
    use crate::fft::reference::Grid3;
    use crate::fft::FftPlan;
    use crate::system::ParticleSystem;

    pub(super) struct PmeWorkspace {
        params: PmeParams,
        plan: FftPlan,
        rho: Grid3,
        field: [Grid3; 3],
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

    /// `rounds` evaluations on one reused workspace and one reused oracle,
    /// moving the particles and breathing the box between calls; asserts
    /// the energy and every force have the oracle's bits.
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
            for (got, want) in sys.forces.iter().zip(&want.forces) {
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{at}");
            }
        }
    }

    #[test]
    fn reciprocal_is_bit_identical_to_the_reference_on_every_layout() {
        for sys in layouts() {
            for grid in [1, 2, 8, 32] {
                assert_matches_the_reference(&sys, PmeParams { grid, alpha: 0.8 }, 4);
            }
        }
    }

    #[test]
    fn grids_of_64_and_128_match_the_reference() {
        // No liveness flag or column set is sized for a fixed grid.
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
        // Zero charged particles: nothing spread, zero columns to finish.
        let mut sys = SystemBuilder::new(64).build_lj_fluid();
        let energy = PmeWorkspace::new(PmeParams::default()).reciprocal(&mut sys);
        assert_eq!(energy.to_bits(), 0.0f64.to_bits());
        assert!(sys.forces.iter().flatten().all(|f| f.to_bits() == 0));
        assert_matches_the_reference(&sys, PmeParams::default(), 2);
    }

    #[test]
    fn a_reused_workspace_keeps_its_buffer_capacities() {
        // Every buffer is sized by `new`: no call grows one, whatever
        // columns, lines and slabs it finds live.
        let capacities = |ws: &PmeWorkspace| {
            let fields = ws
                .field
                .each_ref()
                .map(|f| [&f.slab_re, &f.slab_im, &f.block_re, &f.block_im].map(Vec::capacity));
            let tables = [&ws.kvec, &ws.green].map(Vec::capacity);
            let columns = [&ws.columns, &ws.slot].map(Vec::capacity);
            (
                ws.scratch.capacities(),
                fields,
                tables,
                columns,
                ws.covered.capacity(),
            )
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
