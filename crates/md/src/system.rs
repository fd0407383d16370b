//! Particle systems and synthetic system builders.
//!
//! All quantities are in reduced Lennard-Jones units (σ = ε = m = 1); the
//! paper's observations depend on workload *structure*, not on physical
//! unit systems.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A 3-vector.
pub type Vec3 = [f64; 3];

/// Round to the nearest integer (ties to even) in two additions.
///
/// Valid for |x| < 2⁵¹. On the baseline x86-64 target `f64::round()` lowers
/// to a libm call — far too expensive for something executed three times
/// per examined pair — while adding and subtracting 1.5·2⁵² forces the FPU
/// to drop the fraction bits in round-to-nearest mode.
#[inline]
fn nearest(x: f64) -> f64 {
    const SHIFT: f64 = 1.5 * (1u64 << 52) as f64;
    (x + SHIFT) - SHIFT
}

/// Minimum-image displacement from `pi` to `pj` in a cubic box.
///
/// Takes the box reciprocal explicitly so pair loops hoist the division out
/// of their hot path (one multiply per axis instead of one divide).
#[inline]
#[must_use]
pub(crate) fn min_image_disp(pi: &Vec3, pj: &Vec3, box_len: f64, inv_box: f64) -> Vec3 {
    let mut d = [0.0; 3];
    for a in 0..3 {
        let x = pj[a] - pi[a];
        d[a] = x - box_len * nearest(x * inv_box);
    }
    d
}

/// A harmonic bond between two particles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Bond {
    /// First particle index.
    pub i: u32,
    /// Second particle index.
    pub j: u32,
    /// Equilibrium length.
    pub r0: f64,
    /// Spring constant.
    pub k: f64,
}

/// A harmonic angle between three particles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Angle {
    /// Outer particle.
    pub i: u32,
    /// Center particle.
    pub j: u32,
    /// Outer particle.
    pub k_idx: u32,
    /// Equilibrium angle in radians.
    pub theta0: f64,
    /// Spring constant.
    pub k: f64,
}

/// A periodic cubic simulation box filled with particles.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleSystem {
    /// Positions.
    pub positions: Vec<Vec3>,
    /// Velocities.
    pub velocities: Vec<Vec3>,
    /// Per-particle force accumulators.
    pub forces: Vec<Vec3>,
    /// Partial charges (all zero for apolar systems).
    pub charges: Vec<f64>,
    /// Per-particle masses.
    pub masses: Vec<f64>,
    /// LJ diameter per particle (1.0 for solvent, larger for colloids).
    pub sigmas: Vec<f64>,
    /// Cubic box edge length.
    pub box_len: f64,
    /// Harmonic bonds.
    pub(crate) bonds: Vec<Bond>,
    /// Harmonic angles.
    pub(crate) angles: Vec<Angle>,
}

impl ParticleSystem {
    /// Number of particles.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when any particle carries charge (decides whether PME runs).
    #[must_use]
    pub(crate) fn is_charged(&self) -> bool {
        self.charges.iter().any(|&q| q.abs() > 1e-12)
    }

    /// Minimum-image displacement from `i` to `j`.
    #[must_use]
    pub fn min_image(&self, i: usize, j: usize) -> Vec3 {
        min_image_disp(
            &self.positions[i],
            &self.positions[j],
            self.box_len,
            1.0 / self.box_len,
        )
    }

    /// Instantaneous kinetic energy.
    #[must_use]
    pub(crate) fn kinetic_energy(&self) -> f64 {
        self.velocities
            .iter()
            .zip(&self.masses)
            .map(|(v, &m)| 0.5 * m * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))
            .sum()
    }

    /// Instantaneous temperature (3N degrees of freedom, k_B = 1).
    #[must_use]
    pub fn temperature(&self) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        2.0 * self.kinetic_energy() / (3.0 * n as f64)
    }

    /// Total momentum.
    #[must_use]
    pub(crate) fn total_momentum(&self) -> Vec3 {
        let mut p = [0.0; 3];
        for (v, &m) in self.velocities.iter().zip(&self.masses) {
            for a in 0..3 {
                p[a] += m * v[a];
            }
        }
        p
    }

    /// Zero all force accumulators.
    pub fn clear_forces(&mut self) {
        for f in &mut self.forces {
            *f = [0.0; 3];
        }
    }

    /// Wrap all positions back into the periodic box.
    pub fn wrap_positions(&mut self) {
        let l = self.box_len;
        for p in &mut self.positions {
            for a in 0..3 {
                p[a] -= l * (p[a] / l).floor();
            }
        }
    }

    /// Remove center-of-mass momentum (so thermostats don't feed drift).
    pub(crate) fn remove_com_momentum(&mut self) {
        let p = self.total_momentum();
        let m_total: f64 = self.masses.iter().sum();
        if m_total <= 0.0 {
            return;
        }
        let v_com = [p[0] / m_total, p[1] / m_total, p[2] / m_total];
        for v in &mut self.velocities {
            for a in 0..3 {
                v[a] -= v_com[a];
            }
        }
    }
}

/// Builder for synthetic systems.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    n: usize,
    density: f64,
    temperature: f64,
    seed: u64,
}

impl SystemBuilder {
    /// Start a builder for `n` particles.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            density: 0.8,
            temperature: 1.0,
            seed: 42,
        }
    }

    /// Number density (particles per unit volume).
    #[must_use]
    pub fn density(mut self, d: f64) -> Self {
        self.density = d.max(1e-6);
        self
    }

    /// Initial temperature.
    #[must_use]
    pub fn temperature(mut self, t: f64) -> Self {
        self.temperature = t.max(0.0);
        self
    }

    /// RNG seed.
    #[must_use]
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// A plain LJ fluid on a perturbed lattice: uncharged, unbonded.
    #[must_use]
    pub fn build_lj_fluid(&self) -> ParticleSystem {
        let mut sys = self.lattice_base();
        sys.remove_com_momentum();
        sys
    }

    /// A solvated-protein-like system: a bonded, charged chain embedded in
    /// neutralizing solvent — the GMS / LMR input class. Roughly
    /// `chain_fraction` of particles form the chain.
    #[must_use]
    pub fn build_protein_like(&self, chain_fraction: f64) -> ParticleSystem {
        let mut sys = self.lattice_base();
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(1));
        let chain_len = ((self.n as f64) * chain_fraction.clamp(0.0, 0.5)) as usize;

        // Alternate +/- partial charges along the chain, neutralized by the
        // solvent.
        let mut charge_sum = 0.0;
        for i in 0..chain_len {
            let q = if i % 2 == 0 { 0.4 } else { -0.4 };
            sys.charges[i] = q;
            charge_sum += q;
        }
        // A few charged solvent ions to make the system interestingly polar
        // but neutral.
        let ions = 32.min(self.n - chain_len);
        for i in 0..ions {
            let idx = chain_len + i;
            let q = if i % 2 == 0 { 1.0 } else { -1.0 };
            sys.charges[idx] = q;
            charge_sum += q;
        }
        // Neutralize any residue on the last ion.
        if ions > 0 {
            sys.charges[chain_len + ions - 1] -= charge_sum;
        }

        // Chain connectivity: bonds + angles.
        for i in 1..chain_len {
            sys.bonds.push(Bond {
                i: (i - 1) as u32,
                j: i as u32,
                r0: 1.0,
                k: 100.0,
            });
        }
        for i in 2..chain_len {
            sys.angles.push(Angle {
                i: (i - 2) as u32,
                j: (i - 1) as u32,
                k_idx: i as u32,
                theta0: std::f64::consts::PI * (100.0 + rng.gen_range(0.0..20.0)) / 180.0,
                k: 20.0,
            });
        }
        sys.remove_com_momentum();
        sys
    }

    /// A colloid suspension: a small number of large particles (σ = 4) in a
    /// solvent bath — the LMC input class. Uncharged, unbonded.
    #[must_use]
    pub fn build_colloid(&self, colloid_fraction: f64) -> ParticleSystem {
        let mut sys = self.lattice_base();
        let n_colloid = ((self.n as f64) * colloid_fraction.clamp(0.0, 0.3)) as usize;
        for i in 0..n_colloid {
            sys.sigmas[i] = 4.0;
            sys.masses[i] = 64.0;
        }
        sys.remove_com_momentum();
        sys
    }

    fn lattice_base(&self) -> ParticleSystem {
        let n = self.n;
        let box_len = (n as f64 / self.density).cbrt();
        let per_side = (n as f64).cbrt().ceil() as usize;
        let spacing = box_len / per_side as f64;
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut positions = Vec::with_capacity(n);
        'fill: for x in 0..per_side {
            for y in 0..per_side {
                for z in 0..per_side {
                    if positions.len() >= n {
                        break 'fill;
                    }
                    let jitter = 0.1 * spacing;
                    positions.push([
                        (x as f64 + 0.5) * spacing + rng.gen_range(-jitter..jitter),
                        (y as f64 + 0.5) * spacing + rng.gen_range(-jitter..jitter),
                        (z as f64 + 0.5) * spacing + rng.gen_range(-jitter..jitter),
                    ]);
                }
            }
        }

        let scale = self.temperature.sqrt();
        let velocities: Vec<Vec3> = (0..n)
            .map(|_| {
                [
                    rng.gen_range(-1.0..1.0) * scale,
                    rng.gen_range(-1.0..1.0) * scale,
                    rng.gen_range(-1.0..1.0) * scale,
                ]
            })
            .collect();

        ParticleSystem {
            positions,
            velocities,
            forces: vec![[0.0; 3]; n],
            charges: vec![0.0; n],
            masses: vec![1.0; n],
            sigmas: vec![1.0; n],
            box_len,
            bonds: Vec::new(),
            angles: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lj_fluid_shape() {
        let sys = SystemBuilder::new(100).build_lj_fluid();
        assert_eq!(sys.len(), 100);
        assert!(!sys.is_charged());
        assert!(sys.bonds.is_empty());
        assert!(sys.box_len > 0.0);
    }

    #[test]
    fn com_momentum_is_removed() {
        let sys = SystemBuilder::new(64).temperature(2.0).build_lj_fluid();
        let p = sys.total_momentum();
        assert!(p.iter().all(|&x| x.abs() < 1e-9), "{p:?}");
    }

    #[test]
    fn protein_like_is_charged_and_neutral() {
        let sys = SystemBuilder::new(500).build_protein_like(0.2);
        assert!(sys.is_charged());
        assert!(sys.charges.iter().sum::<f64>().abs() < 1e-9);
        assert_eq!(sys.bonds.len(), 99);
        assert_eq!(sys.angles.len(), 98);
    }

    #[test]
    fn colloid_has_two_species() {
        let sys = SystemBuilder::new(200).build_colloid(0.1);
        let big = sys.sigmas.iter().filter(|&&s| s > 1.0).count();
        assert_eq!(big, 20);
        assert!(!sys.is_charged());
    }

    #[test]
    fn min_image_respects_periodicity() {
        let mut sys = SystemBuilder::new(8).density(0.1).build_lj_fluid();
        sys.positions[0] = [0.1, 0.0, 0.0];
        sys.positions[1] = [sys.box_len - 0.1, 0.0, 0.0];
        let d = sys.min_image(0, 1);
        assert!((d[0] + 0.2).abs() < 1e-9, "wrapped distance, got {}", d[0]);
    }

    #[test]
    fn temperature_tracks_velocities() {
        let mut sys = SystemBuilder::new(64).build_lj_fluid();
        for v in &mut sys.velocities {
            *v = [1.0, 0.0, 0.0];
        }
        // KE = n/2, T = 2·KE/(3n) = 1/3.
        assert!((sys.temperature() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_positions_keeps_in_box() {
        let mut sys = SystemBuilder::new(27).build_lj_fluid();
        sys.positions[0] = [-1.0, sys.box_len + 2.0, 0.5];
        sys.wrap_positions();
        for p in &sys.positions {
            for a in 0..3 {
                assert!(p[a] >= 0.0 && p[a] < sys.box_len);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SystemBuilder::new(50).seed(9).build_lj_fluid();
        let b = SystemBuilder::new(50).seed(9).build_lj_fluid();
        assert_eq!(a, b);
    }
}
