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
//! A [`PmeWorkspace`] holds the transform plan, the charge grid and the
//! three field grids, so an evaluation allocates nothing; the Green's
//! function is tabulated once per call on the folded octant of the grid.

use std::f64::consts::PI;

use crate::fft::{FftPlan, Grid3};
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

/// Result of one reciprocal-space evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmeResult {
    /// Reciprocal-space energy (includes the self-energy correction).
    pub energy: f64,
    /// Grid side used.
    pub grid: usize,
}

/// The reciprocal-space solver: the parameters plus every buffer an
/// evaluation touches, so that after construction a call allocates nothing.
#[derive(Debug, Clone)]
pub struct PmeWorkspace {
    params: PmeParams,
    plan: FftPlan,
    rho: Grid3,
    field: [Grid3; 3],
    /// `kvec(m)` for every grid index, refilled per call (the box breathes
    /// under a barostat).
    kvec: Vec<f64>,
    /// The Green's function on the folded octant `(n/2 + 1)³`, refilled per
    /// call. `k²` is even in every component and `kvec(n − m) = −kvec(m)`
    /// exactly, so the entry at `(fold(x), fold(y), fold(z))` is the very
    /// `f64` the direct expression gives at `(x, y, z)`.
    green: Vec<f64>,
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
            field: [Grid3::new(n), Grid3::new(n), Grid3::new(n)],
            plan: FftPlan::new(n),
            kvec: vec![0.0; n],
            green: vec![0.0; folded * folded * folded],
        }
    }

    /// Where `green` keeps the entry of grid cell `(x, y, z)`.
    fn green_index(&self, x: usize, y: usize, z: usize) -> usize {
        let half = self.params.grid / 2;
        let fold = |m: usize| if m > half { self.params.grid - m } else { m };
        (fold(x) * (half + 1) + fold(y)) * (half + 1) + fold(z)
    }

    /// Evaluate the reciprocal-space Ewald contribution, accumulating
    /// forces into `sys.forces`.
    pub fn reciprocal(&mut self, sys: &mut ParticleSystem) -> PmeResult {
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

        PmeResult { energy, grid: n }
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
                        let folded = ws.green[ws.green_index(x, y, z)];
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
            assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "round {round}");
            for (fa, fb) in sys.forces.iter().zip(&fresh_sys.forces) {
                assert_eq!(fa.map(f64::to_bits), fb.map(f64::to_bits), "round {round}");
            }
        }
    }

    #[test]
    fn reciprocal_energy_is_bounded_below_by_self_energy() {
        let mut sys = dipole_system(3.0);
        let r = PmeWorkspace::new(PmeParams::default()).reciprocal(&mut sys);
        // The k-space sum is non-negative; only the self term is negative.
        let self_term = -PmeParams::default().alpha / PI.sqrt() * 2.0;
        assert!(r.energy >= self_term - 1e-9, "{}", r.energy);
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
        let r = PmeWorkspace::new(PmeParams {
            grid: 16,
            alpha: 0.8,
        })
        .reciprocal(&mut sys);
        assert!(r.energy.is_finite());
        assert_eq!(r.grid, 16);
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
