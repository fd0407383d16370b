//! Test-only physical observables of an MD trajectory: the radial
//! distribution function g(r) and the mean-squared displacement, computed
//! on the CPU with no kernel lowering. They check that the engine's forces
//! act: a dense LJ fluid must show its first solvation shell near r = σ,
//! and particles must move off their start.

use crate::system::{ParticleSystem, Vec3};

/// g(r) of `sys` up to `r_max` in `bins` bins (bin `i` covers
/// `[i·dr, (i+1)·dr)`), normalized by the ideal-gas shell population of the
/// half pair list.
fn radial_distribution(sys: &ParticleSystem, r_max: f64, bins: usize) -> Vec<f64> {
    let n = sys.len();
    let dr = r_max / bins as f64;
    let mut counts = vec![0u64; bins];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = sys.min_image(i, j);
            let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            if r < r_max {
                counts[(r / dr) as usize] += 1;
            }
        }
    }
    let density = n as f64 / sys.box_len.powi(3);
    counts
        .iter()
        .enumerate()
        .map(|(b, &c)| {
            let (r_lo, r_hi) = (b as f64 * dr, (b + 1) as f64 * dr);
            let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
            c as f64 / (0.5 * n as f64 * density * shell)
        })
        .collect()
}

/// Mean-squared displacement of the current positions relative to
/// `reference`, each component folded to its minimum image (valid over
/// windows shorter than a box crossing).
fn mean_squared_displacement(sys: &ParticleSystem, reference: &[Vec3]) -> f64 {
    assert_eq!(reference.len(), sys.len(), "snapshot length");
    let l = sys.box_len;
    sys.positions
        .iter()
        .zip(reference)
        .map(|(p, r)| {
            (0..3)
                .map(|a| {
                    let d = p[a] - r[a];
                    let d = d - l * (d / l).round();
                    d * d
                })
                .sum::<f64>()
        })
        .sum::<f64>()
        / sys.len().max(1) as f64
}

mod tests {
    use super::*;
    use crate::engine::{MdConfig, MdEngine, Thermostat};
    use crate::system::SystemBuilder;
    use cactus_gpu::{Device, Gpu};

    fn gpu() -> Gpu {
        Gpu::new(Device::rtx3080())
    }

    #[test]
    fn equilibrated_lj_fluid_has_first_shell_near_sigma() {
        let sys = SystemBuilder::new(400)
            .density(0.7)
            .temperature(1.0)
            .seed(5)
            .build_lj_fluid();
        let config = MdConfig {
            thermostat: Some(Thermostat {
                target: 1.0,
                coupling: 0.1,
            }),
            ..MdConfig::default()
        };
        let mut engine = MdEngine::new(sys, config);
        let _ = engine.run(&mut gpu(), 60);

        let (bins, r_max) = (30, 3.0);
        let g = radial_distribution(engine.system(), r_max, bins);
        let (peak, height) =
            g.iter().enumerate().fold(
                (0, 0.0),
                |best, (b, &v)| if v > best.1 { (b, v) } else { best },
            );
        let r_peak = (peak as f64 + 0.5) * r_max / bins as f64;
        assert!(
            (0.9..1.6).contains(&r_peak),
            "first solvation shell at {r_peak}"
        );
        assert!(height > 1.3, "peak height {height}");
        // Core exclusion: g(r) ~ 0 inside the repulsive core.
        assert!(g[2] < 0.1, "core bin g = {}", g[2]);
    }

    #[test]
    fn msd_grows_under_dynamics_and_is_zero_at_start() {
        let sys = SystemBuilder::new(200)
            .density(0.5)
            .temperature(1.5)
            .seed(7)
            .build_lj_fluid();
        let reference = sys.positions.clone();
        let mut engine = MdEngine::new(sys, MdConfig::default());
        let zero = mean_squared_displacement(engine.system(), &reference);
        assert!(zero.abs() < 1e-12);
        let _ = engine.run(&mut gpu(), 30);
        let later = mean_squared_displacement(engine.system(), &reference);
        assert!(later > 1e-4, "particles must move, MSD = {later}");
    }
}
