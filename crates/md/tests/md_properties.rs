//! Property tests over the MD substrate: neighbor lists vs. brute force,
//! Newton's third law for every pair style, and thermostat contraction.

use cactus_md::forces;
use cactus_md::integrate;
use cactus_md::neighbor::NeighborList;
use cactus_md::system::{ParticleSystem, SystemBuilder};

use proptest::prelude::*;

fn net_force(sys: &ParticleSystem) -> [f64; 3] {
    let mut f = [0.0; 3];
    for fi in &sys.forces {
        for a in 0..3 {
            f[a] += fi[a];
        }
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cell-list neighbor search finds exactly the brute-force pair
    /// set for arbitrary densities and cutoffs.
    #[test]
    fn neighbor_list_matches_brute_force(
        n in 20usize..120,
        density in 0.05f64..0.9,
        cutoff in 1.2f64..3.0,
        seed in 0u64..500,
    ) {
        let sys = SystemBuilder::new(n).density(density).seed(seed).build_lj_fluid();
        let nl = NeighborList::build(&sys, cutoff, 0.2);
        let r2 = (cutoff + 0.2) * (cutoff + 0.2);
        let mut brute = std::collections::BTreeSet::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = sys.min_image(i, j);
                if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < r2 {
                    brute.insert((i as u32, j as u32));
                }
            }
        }
        let mut listed = std::collections::BTreeSet::new();
        for i in 0..n {
            for &j in nl.neighbors_of(i) {
                listed.insert((i as u32, j));
            }
        }
        prop_assert_eq!(listed, brute);
    }

    /// Newton's third law: every pair style produces zero net force.
    #[test]
    fn forces_conserve_momentum(
        n in 30usize..150,
        density in 0.2f64..0.8,
        seed in 0u64..500,
        style in 0usize..3,
    ) {
        let mut sys = match style {
            0 => SystemBuilder::new(n).density(density).seed(seed).build_lj_fluid(),
            1 => SystemBuilder::new(n).density(density).seed(seed).build_protein_like(0.2),
            _ => SystemBuilder::new(n).density(density).seed(seed).build_colloid(0.1),
        };
        sys.clear_forces();
        let nl = NeighborList::build(&sys, 2.5, 0.3);
        let _ = match style {
            0 => forces::lj_cut(&mut sys, &nl, 2.5),
            1 => forces::lj_coulomb_cut(&mut sys, &nl, 2.5, 0.8),
            _ => forces::colloid(&mut sys, &nl, 1.2),
        };
        let f = net_force(&sys);
        // Relative tolerance: overlapping colloid spheres produce huge
        // individual forces, so the cancellation error scales with them.
        let scale: f64 = sys
            .forces
            .iter()
            .map(|fi| fi[0].abs() + fi[1].abs() + fi[2].abs())
            .sum::<f64>()
            .max(1.0);
        for a in 0..3 {
            prop_assert!(f[a].abs() < 1e-10 * scale, "net force {f:?} vs scale {scale}");
        }
    }

    /// The Berendsen thermostat contracts the temperature toward the
    /// target from either side.
    #[test]
    fn thermostat_contracts(
        t0 in 0.3f64..3.0,
        target in 0.3f64..3.0,
        seed in 0u64..100,
    ) {
        let mut sys = SystemBuilder::new(100).temperature(t0).seed(seed).build_lj_fluid();
        let before = (sys.temperature() - target).abs();
        let _ = integrate::berendsen_thermostat(&mut sys, target, 0.2);
        let after = (sys.temperature() - target).abs();
        prop_assert!(after <= before + 1e-12, "{before} -> {after}");
    }

    /// Wrapping positions puts every coordinate in the box without moving
    /// any particle by a non-multiple of the box length.
    #[test]
    fn wrap_is_a_lattice_translation(
        shift in -3.0f64..3.0,
        seed in 0u64..100,
    ) {
        let mut sys = SystemBuilder::new(27).seed(seed).build_lj_fluid();
        let l = sys.box_len;
        let orig = sys.positions.clone();
        for p in &mut sys.positions {
            p[0] += shift * l;
        }
        sys.wrap_positions();
        for (p, o) in sys.positions.iter().zip(&orig) {
            // x coordinate: the wrap must undo the shift up to a whole
            // number of box lengths; y/z were untouched.
            let dx = (p[0] - (o[0] + shift * l)) / l;
            prop_assert!((dx - dx.round()).abs() < 1e-9, "dx {dx}");
            for a in 0..3 {
                prop_assert!(p[a] >= 0.0 && p[a] < l);
            }
            for a in 1..3 {
                let d = (p[a] - o[a]) / l;
                prop_assert!((d - d.round()).abs() < 1e-9);
            }
        }
    }
}
