//! Pair and bonded force fields.
//!
//! Three pair styles mirror the production codes the paper runs:
//!
//! * [`lj_cut`] — plain truncated-shifted Lennard-Jones (solvent-solvent).
//! * [`lj_coulomb_cut`] — CHARMM-style LJ plus short-range (erfc-damped)
//!   Coulomb, the real-space half of an Ewald/PME decomposition.
//! * [`colloid`] — size-asymmetric LJ with per-pair σ mixing, a compact
//!   stand-in for LAMMPS' integrated-Hamaker colloid style.
//!
//! All kernels accumulate Newton's-third-law symmetric forces and return
//! potential energies, so conservation properties are testable.

use crate::neighbor::NeighborList;
use crate::system::{min_image_disp, ParticleSystem};

/// Result of a force evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ForceStats {
    /// Potential energy accumulated by this evaluation.
    pub potential_energy: f64,
    /// Number of pairs actually inside the cutoff.
    pub pairs_in_cutoff: u64,
    /// Number of pairs examined (neighbor-list entries).
    pub pairs_examined: u64,
}

/// Truncated-and-shifted LJ over the half neighbor list.
#[must_use]
pub fn lj_cut(sys: &mut ParticleSystem, nl: &NeighborList, cutoff: f64) -> ForceStats {
    let rc2 = cutoff * cutoff;
    let mut stats = ForceStats::default();
    let box_len = sys.box_len;
    let inv_box = 1.0 / box_len;
    let n = sys.positions.len();
    // Split borrows: positions/sigmas read-only, forces written.
    let positions = &sys.positions;
    let sigmas = &sys.sigmas;
    let forces = &mut sys.forces;
    // One bounds proof for the whole evaluation: every neighbor index the
    // list stores is < num_particles, and all per-particle arrays have
    // that length, so the inner loop can use unchecked indexing.
    assert_eq!(nl.num_particles(), n, "list built for a different system");
    assert!(sigmas.len() == n && forces.len() == n);
    for i in 0..n {
        let pi = positions[i];
        let sigma_i = sigmas[i];
        let neigh = nl.neighbors_of(i);
        stats.pairs_examined += neigh.len() as u64;
        // Accumulate particle i's force locally; one read-modify-write per
        // particle instead of one per pair.
        let mut fi = [0.0f64; 3];
        for &j in neigh {
            let j = j as usize;
            // SAFETY: j < num_particles == n == length of every array,
            // asserted above.
            let (pj, sigma_j) = unsafe { (positions.get_unchecked(j), *sigmas.get_unchecked(j)) };
            let d = min_image_disp(&pi, pj, box_len, inv_box);
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if r2 >= rc2 || r2 <= 0.0 {
                continue;
            }
            stats.pairs_in_cutoff += 1;
            let sigma = 0.5 * (sigma_i + sigma_j);
            // One reciprocal per pair; both the σ²/r² ratio and the F/r
            // denominator reuse it.
            let inv_r2 = 1.0 / r2;
            let s2 = sigma * sigma * inv_r2;
            let s6 = s2 * s2 * s2;
            let s12 = s6 * s6;
            // F/r magnitude; ε = 1.
            let f_over_r = 24.0 * (2.0 * s12 - s6) * inv_r2;
            stats.potential_energy += 4.0 * (s12 - s6);
            // SAFETY: as above.
            let fj = unsafe { forces.get_unchecked_mut(j) };
            for a in 0..3 {
                let f = f_over_r * d[a];
                fi[a] -= f;
                fj[a] += f;
            }
        }
        let f = &mut forces[i];
        for a in 0..3 {
            f[a] += fi[a];
        }
    }
    stats
}

/// CHARMM-style LJ + erfc-damped short-range Coulomb (the real-space part
/// of Ewald with splitting parameter `alpha`).
#[must_use]
pub fn lj_coulomb_cut(
    sys: &mut ParticleSystem,
    nl: &NeighborList,
    cutoff: f64,
    alpha: f64,
) -> ForceStats {
    let rc2 = cutoff * cutoff;
    let mut stats = ForceStats::default();
    let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();
    let box_len = sys.box_len;
    let inv_box = 1.0 / box_len;
    let n = sys.positions.len();
    let positions = &sys.positions;
    let sigmas = &sys.sigmas;
    let charges = &sys.charges;
    let forces = &mut sys.forces;
    // One bounds proof for the whole evaluation (see `lj_cut`).
    assert_eq!(nl.num_particles(), n, "list built for a different system");
    assert!(sigmas.len() == n && charges.len() == n && forces.len() == n);
    for i in 0..n {
        let pi = positions[i];
        let sigma_i = sigmas[i];
        let q_i = charges[i];
        let neigh = nl.neighbors_of(i);
        stats.pairs_examined += neigh.len() as u64;
        let mut fi = [0.0f64; 3];
        for &j in neigh {
            let j = j as usize;
            // SAFETY: j < num_particles == n == length of every array,
            // asserted above.
            let (pj, sigma_j) = unsafe { (positions.get_unchecked(j), *sigmas.get_unchecked(j)) };
            let d = min_image_disp(&pi, pj, box_len, inv_box);
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if r2 >= rc2 || r2 <= 0.0 {
                continue;
            }
            stats.pairs_in_cutoff += 1;
            let sigma = 0.5 * (sigma_i + sigma_j);
            let inv_r2 = 1.0 / r2;
            let s2 = sigma * sigma * inv_r2;
            let s6 = s2 * s2 * s2;
            let s12 = s6 * s6;
            let mut f_over_r = 24.0 * (2.0 * s12 - s6) * inv_r2;
            stats.potential_energy += 4.0 * (s12 - s6);

            // `q_i == 0` rows skip the charge load entirely (predictable
            // per-row); charged pairs share one exp(-α²r²) between erfc
            // and the real-space force term instead of computing it twice.
            if q_i != 0.0 {
                // SAFETY: as above.
                let qq = q_i * unsafe { *charges.get_unchecked(j) };
                if qq.abs() > 0.0 {
                    let r = r2.sqrt();
                    let x = alpha * r;
                    let gauss = (-x * x).exp();
                    let erfc_ar = erfc_scaled(x) * gauss;
                    let inv_r = 1.0 / r;
                    let coul_e = qq * erfc_ar * inv_r;
                    stats.potential_energy += coul_e;
                    f_over_r += qq * (erfc_ar * inv_r + two_over_sqrt_pi * alpha * gauss) * inv_r2;
                }
            }
            // SAFETY: as above.
            let fj = unsafe { forces.get_unchecked_mut(j) };
            for a in 0..3 {
                let f = f_over_r * d[a];
                fi[a] -= f;
                fj[a] += f;
            }
        }
        let f = &mut forces[i];
        for a in 0..3 {
            f[a] += fi[a];
        }
    }
    stats
}

/// Colloid pair style: LJ with arithmetic σ mixing, so that big-big,
/// big-small and small-small pairs interact at their proper contact
/// distances (the size asymmetry is what makes the LAMMPS colloid input's
/// kernel mix different from rhodopsin's).
#[must_use]
pub fn colloid(sys: &mut ParticleSystem, nl: &NeighborList, cutoff_factor: f64) -> ForceStats {
    let mut stats = ForceStats::default();
    let box_len = sys.box_len;
    let inv_box = 1.0 / box_len;
    let n = sys.positions.len();
    let positions = &sys.positions;
    let sigmas = &sys.sigmas;
    let forces = &mut sys.forces;
    // One bounds proof for the whole evaluation (see `lj_cut`).
    assert_eq!(nl.num_particles(), n, "list built for a different system");
    assert!(sigmas.len() == n && forces.len() == n);
    for i in 0..n {
        let pi = positions[i];
        let sigma_i = sigmas[i];
        let neigh = nl.neighbors_of(i);
        stats.pairs_examined += neigh.len() as u64;
        let mut fi = [0.0f64; 3];
        for &j in neigh {
            let j = j as usize;
            // SAFETY: j < num_particles == n == length of every array,
            // asserted above.
            let (pj, sigma_j) = unsafe { (positions.get_unchecked(j), *sigmas.get_unchecked(j)) };
            let d = min_image_disp(&pi, pj, box_len, inv_box);
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            let sigma = 0.5 * (sigma_i + sigma_j);
            let rc = cutoff_factor * sigma;
            if r2 >= rc * rc || r2 <= 0.0 {
                continue;
            }
            stats.pairs_in_cutoff += 1;
            let inv_r2 = 1.0 / r2;
            let s2 = sigma * sigma * inv_r2;
            let s6 = s2 * s2 * s2;
            let s12 = s6 * s6;
            let f_over_r = 24.0 * (2.0 * s12 - s6) * inv_r2;
            stats.potential_energy += 4.0 * (s12 - s6);
            // SAFETY: as above.
            let fj = unsafe { forces.get_unchecked_mut(j) };
            for a in 0..3 {
                let f = f_over_r * d[a];
                fi[a] -= f;
                fj[a] += f;
            }
        }
        let f = &mut forces[i];
        for a in 0..3 {
            f[a] += fi[a];
        }
    }
    stats
}

/// Harmonic bond forces. Returns the bonded potential energy.
#[must_use]
pub(crate) fn bonds(sys: &mut ParticleSystem) -> f64 {
    let mut energy = 0.0;
    let box_len = sys.box_len;
    let inv_box = 1.0 / box_len;
    // Split borrows: the bond table and positions are read-only while the
    // forces are written, so no clone of the table is needed.
    let positions = &sys.positions;
    let forces = &mut sys.forces;
    for b in &sys.bonds {
        let (i, j) = (b.i as usize, b.j as usize);
        let d = min_image_disp(&positions[i], &positions[j], box_len, inv_box);
        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        if r <= 0.0 {
            continue;
        }
        let dr = r - b.r0;
        energy += 0.5 * b.k * dr * dr;
        let f_over_r = b.k * dr / r;
        for a in 0..3 {
            let f = f_over_r * d[a];
            forces[i][a] += f;
            forces[j][a] -= f;
        }
    }
    energy
}

/// Harmonic angle forces. Returns the angular potential energy.
#[must_use]
pub(crate) fn angles(sys: &mut ParticleSystem) -> f64 {
    let mut energy = 0.0;
    let box_len = sys.box_len;
    let inv_box = 1.0 / box_len;
    let positions = &sys.positions;
    let forces = &mut sys.forces;
    for t in &sys.angles {
        let (i, j, k) = (t.i as usize, t.j as usize, t.k_idx as usize);
        let d1 = min_image_disp(&positions[j], &positions[i], box_len, inv_box);
        let d2 = min_image_disp(&positions[j], &positions[k], box_len, inv_box);
        let r1 = (d1[0] * d1[0] + d1[1] * d1[1] + d1[2] * d1[2]).sqrt();
        let r2 = (d2[0] * d2[0] + d2[1] * d2[1] + d2[2] * d2[2]).sqrt();
        if r1 <= 0.0 || r2 <= 0.0 {
            continue;
        }
        let cos_t = ((d1[0] * d2[0] + d1[1] * d2[1] + d1[2] * d2[2]) / (r1 * r2)).clamp(-1.0, 1.0);
        let theta = cos_t.acos();
        let dtheta = theta - t.theta0;
        energy += 0.5 * t.k * dtheta * dtheta;

        // Gradient of θ w.r.t. the outer positions.
        let sin_t = (1.0 - cos_t * cos_t).sqrt().max(1e-8);
        let coeff = -t.k * dtheta / sin_t;
        for a in 0..3 {
            let g1 = (d2[a] / (r1 * r2) - cos_t * d1[a] / (r1 * r1)) * coeff;
            let g2 = (d1[a] / (r1 * r2) - cos_t * d2[a] / (r2 * r2)) * coeff;
            forces[i][a] += g1;
            forces[k][a] += g2;
            forces[j][a] -= g1 + g2;
        }
    }
    energy
}

/// Scaled complement `erfc(x) / exp(-x²)` for `x ≥ 0` — the rational
/// factor of Abramowitz–Stegun 7.1.26. Hot loops that already need the
/// Gaussian multiply it back in, sharing one `exp` per pair.
#[inline]
#[must_use]
pub(crate) fn erfc_scaled(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.3275911 * x);
    t * (0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))))
}

/// Complementary error function (Abramowitz–Stegun 7.1.26, |ε| ≤ 1.5e-7).
#[must_use]
#[cfg(test)]
pub(crate) fn erfc(x: f64) -> f64 {
    let ax = x.abs();
    let value = erfc_scaled(ax) * (-ax * ax).exp();
    if x < 0.0 {
        2.0 - value
    } else {
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{Bond, SystemBuilder};

    fn net_force(sys: &ParticleSystem) -> [f64; 3] {
        let mut f = [0.0; 3];
        for fi in &sys.forces {
            for a in 0..3 {
                f[a] += fi[a];
            }
        }
        f
    }

    #[test]
    fn lj_forces_sum_to_zero() {
        let mut sys = SystemBuilder::new(150).density(0.8).build_lj_fluid();
        let nl = NeighborList::build(&sys, 2.5, 0.3);
        sys.clear_forces();
        let stats = lj_cut(&mut sys, &nl, 2.5);
        assert!(stats.pairs_in_cutoff > 0);
        let f = net_force(&sys);
        assert!(f.iter().all(|&x| x.abs() < 1e-9), "{f:?}");
    }

    #[test]
    fn lj_force_is_repulsive_at_short_range() {
        let mut sys = SystemBuilder::new(2).density(0.01).build_lj_fluid();
        sys.positions[0] = [1.0, 1.0, 1.0];
        sys.positions[1] = [1.9, 1.0, 1.0]; // r = 0.9 < 2^{1/6}: repulsive
        let nl = NeighborList::build(&sys, 2.5, 0.0);
        sys.clear_forces();
        let _ = lj_cut(&mut sys, &nl, 2.5);
        assert!(sys.forces[0][0] < 0.0, "pushed apart");
        assert!(sys.forces[1][0] > 0.0);
    }

    #[test]
    fn coulomb_attracts_opposite_charges() {
        let mut sys = SystemBuilder::new(2).density(0.001).build_lj_fluid();
        sys.positions[0] = [5.0, 5.0, 5.0];
        sys.positions[1] = [7.0, 5.0, 5.0]; // r = 2: LJ negligible-ish
        sys.charges[0] = 1.0;
        sys.charges[1] = -1.0;
        let nl = NeighborList::build(&sys, 3.0, 0.0);

        sys.clear_forces();
        let _ = lj_cut(&mut sys, &nl, 3.0);
        let lj_only = sys.forces[0][0];

        sys.clear_forces();
        let _ = lj_coulomb_cut(&mut sys, &nl, 3.0, 0.3);
        let with_coulomb = sys.forces[0][0];
        // Attraction pulls particle 0 toward +x compared to LJ alone.
        assert!(with_coulomb > lj_only, "{with_coulomb} vs {lj_only}");
    }

    #[test]
    fn colloid_contact_distance_scales_with_sigma() {
        let mut sys = SystemBuilder::new(8).density(0.001).build_colloid(0.3);
        // Particles 0 (σ=4) and 1 (σ=4): contact σ_ij = 4. Box edge is 20;
        // the six solvent spectators sit ≥ 7 from the pair and each other.
        sys.positions[0] = [10.0, 10.0, 10.0];
        sys.positions[1] = [13.0, 10.0, 10.0]; // r = 3 < 4: strong repulsion
        let spectators = [
            [15.0, 15.0, 15.0],
            [5.0, 15.0, 15.0],
            [15.0, 5.0, 15.0],
            [15.0, 15.0, 5.0],
            [5.0, 5.0, 15.0],
            [15.0, 5.0, 5.0],
        ];
        for (i, p) in spectators.iter().enumerate() {
            sys.positions[i + 2] = *p;
        }
        let nl = NeighborList::build(&sys, 10.0, 0.0);
        sys.clear_forces();
        let stats = colloid(&mut sys, &nl, 2.5);
        assert!(stats.pairs_in_cutoff >= 1);
        assert!(sys.forces[0][0] < -1.0, "big spheres repel at r < σ");
    }

    #[test]
    fn bond_restores_equilibrium() {
        let mut sys = SystemBuilder::new(8).density(0.01).build_lj_fluid();
        sys.positions[0] = [2.0, 2.0, 2.0];
        sys.positions[1] = [4.0, 2.0, 2.0]; // stretched: r=2, r0=1
        sys.bonds = vec![Bond {
            i: 0,
            j: 1,
            r0: 1.0,
            k: 10.0,
        }];
        sys.clear_forces();
        let e = bonds(&mut sys);
        assert!((e - 5.0).abs() < 1e-9); // ½·10·1²
        assert!(sys.forces[0][0] > 0.0, "pulled together");
        assert!(sys.forces[1][0] < 0.0);
        let f = net_force(&sys);
        assert!(f.iter().all(|&x| x.abs() < 1e-9));
    }

    #[test]
    fn angles_conserve_net_force() {
        let sys0 = SystemBuilder::new(300).build_protein_like(0.3);
        let mut sys = sys0;
        sys.clear_forces();
        let e = angles(&mut sys);
        assert!(e >= 0.0);
        let f = net_force(&sys);
        assert!(f.iter().all(|&x| x.abs() < 1e-8), "{f:?}");
    }

    #[test]
    fn erfc_matches_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!(erfc(3.0) < 1e-4);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
    }
}
