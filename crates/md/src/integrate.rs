//! Velocity-Verlet integration and Berendsen-style couplings.

use crate::system::ParticleSystem;

/// First velocity-Verlet half-kick plus drift: `v += f/m·dt/2; x += v·dt`.
pub(crate) fn verlet_first_half(sys: &mut ParticleSystem, dt: f64) {
    for i in 0..sys.len() {
        let inv_m = 1.0 / sys.masses[i];
        for a in 0..3 {
            sys.velocities[i][a] += 0.5 * dt * sys.forces[i][a] * inv_m;
            sys.positions[i][a] += dt * sys.velocities[i][a];
        }
    }
    sys.wrap_positions();
}

/// Second velocity-Verlet half-kick: `v += f/m·dt/2` with the new forces.
pub(crate) fn verlet_second_half(sys: &mut ParticleSystem, dt: f64) {
    for i in 0..sys.len() {
        let inv_m = 1.0 / sys.masses[i];
        for a in 0..3 {
            sys.velocities[i][a] += 0.5 * dt * sys.forces[i][a] * inv_m;
        }
    }
}

/// Berendsen thermostat: rescale velocities toward `target_t` with coupling
/// ratio `dt/tau`. Returns the scale factor applied.
pub fn berendsen_thermostat(sys: &mut ParticleSystem, target_t: f64, dt_over_tau: f64) -> f64 {
    let t = sys.temperature();
    if t <= 0.0 {
        return 1.0;
    }
    let lambda = (1.0 + dt_over_tau * (target_t / t - 1.0)).max(0.0).sqrt();
    for v in &mut sys.velocities {
        for a in 0..3 {
            v[a] *= lambda;
        }
    }
    lambda
}

/// Berendsen-style barostat: isotropically rescale the box and positions
/// toward `target_virial_pressure` using the instantaneous ideal-gas +
/// virial estimate. Returns the linear box scale factor.
pub(crate) fn berendsen_barostat(
    sys: &mut ParticleSystem,
    virial: f64,
    target_pressure: f64,
    dt_over_tau: f64,
) -> f64 {
    let volume = sys.box_len.powi(3);
    let n = sys.len() as f64;
    let pressure = (n * sys.temperature() + virial / 3.0) / volume;
    let mu = (1.0 - dt_over_tau * (target_pressure - pressure)).cbrt();
    let mu = mu.clamp(0.99, 1.01); // keep volume moves gentle
    sys.box_len *= mu;
    for p in &mut sys.positions {
        for a in 0..3 {
            p[a] *= mu;
        }
    }
    mu
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces;
    use crate::neighbor::NeighborList;
    use crate::system::SystemBuilder;

    /// Full NVE step for the tests.
    fn nve_step(sys: &mut ParticleSystem, dt: f64, cutoff: f64) -> f64 {
        verlet_first_half(sys, dt);
        sys.clear_forces();
        let nl = NeighborList::build(sys, cutoff, 0.4);
        let stats = forces::lj_cut(sys, &nl, cutoff);
        verlet_second_half(sys, dt);
        stats.potential_energy
    }

    #[test]
    fn nve_conserves_energy_approximately() {
        let mut sys = SystemBuilder::new(125)
            .density(0.6)
            .temperature(0.8)
            .seed(5)
            .build_lj_fluid();
        // Initial forces + energy.
        sys.clear_forces();
        let nl = NeighborList::build(&sys, 2.5, 0.4);
        let mut pe = forces::lj_cut(&mut sys, &nl, 2.5).potential_energy;
        let e0 = pe + sys.kinetic_energy();

        for _ in 0..100 {
            pe = nve_step(&mut sys, 0.002, 2.5);
        }
        let e1 = pe + sys.kinetic_energy();
        let drift = (e1 - e0).abs() / e0.abs().max(1.0);
        assert!(drift < 0.05, "energy drift {drift}: {e0} → {e1}");
    }

    #[test]
    fn nve_conserves_momentum() {
        let mut sys = SystemBuilder::new(64).density(0.5).build_lj_fluid();
        sys.clear_forces();
        for _ in 0..50 {
            let _ = nve_step(&mut sys, 0.002, 2.5);
        }
        let p = sys.total_momentum();
        assert!(p.iter().all(|&x| x.abs() < 1e-6), "{p:?}");
    }

    #[test]
    fn thermostat_moves_temperature_toward_target() {
        let mut sys = SystemBuilder::new(216).temperature(2.0).build_lj_fluid();
        let t0 = sys.temperature();
        for _ in 0..50 {
            let _ = berendsen_thermostat(&mut sys, 1.0, 0.1);
        }
        let t1 = sys.temperature();
        assert!((t1 - 1.0).abs() < (t0 - 1.0).abs(), "{t0} → {t1}");
        assert!((t1 - 1.0).abs() < 0.05);
    }

    #[test]
    fn thermostat_scale_is_identity_at_target() {
        let mut sys = SystemBuilder::new(64).temperature(1.0).build_lj_fluid();
        let t = sys.temperature();
        let lambda = berendsen_thermostat(&mut sys, t, 0.1);
        assert!((lambda - 1.0).abs() < 1e-12);
    }

    #[test]
    fn barostat_rescales_box_and_positions_together() {
        let mut sys = SystemBuilder::new(64).build_lj_fluid();
        let l0 = sys.box_len;
        let frac0 = sys.positions[10][0] / l0;
        let mu = berendsen_barostat(&mut sys, 0.0, 100.0, 0.01);
        assert!(mu > 0.98 && mu < 1.02);
        assert!((sys.box_len - l0 * mu).abs() < 1e-12);
        let frac1 = sys.positions[10][0] / sys.box_len;
        assert!((frac0 - frac1).abs() < 1e-12, "fractional coords preserved");
    }
}
