//! The 11 Parboil benchmarks (Stratton et al. 2012), each with a real
//! reduced-scale computational core and the kernel decomposition of the
//! original CUDA sources.

use cactus_gpu::LaunchSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{compute_kernel, gather_kernel, reduction_kernel, streaming_kernel};
use crate::{Benchmark, Scale, Suite};

fn n_of(scale: Scale, tiny: usize, profile: usize) -> usize {
    match scale {
        Scale::Tiny => tiny,
        Scale::Profile => profile,
    }
}

/// Registry of the Parboil benchmarks.
#[must_use]
pub(crate) fn benchmarks() -> Vec<Benchmark> {
    let b = |name, runner| Benchmark {
        name,
        suite: Suite::Parboil,
        runner,
    };
    vec![
        b("bfs", bfs),
        b("cutcp", cutcp),
        b("histo", histo),
        b("lbm", lbm),
        b("mri-gridding", mri_gridding),
        b("mri-q", mri_q),
        b("sad", sad),
        b("sgemm", sgemm),
        b("spmv", spmv),
        b("stencil", stencil),
        b("tpacf", tpacf),
    ]
}

/// Parboil `bfs` (1 M-node queue-based BFS): one dominant gather kernel
/// per BFS phase plus a small single-block variant for tiny frontiers.
fn bfs(gpu: &mut dyn LaunchSink, scale: Scale) {
    let n = n_of(scale, 1 << 10, 1 << 18);
    // Real core: BFS over a synthetic out-degree-4 ring-with-chords graph.
    let mut dist = vec![-1i32; n];
    let mut frontier = vec![0usize];
    dist[0] = 0;
    let mut edges_relaxed = 0u64;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in &[(u + 1) % n, (u + 7) % n, (u + 61) % n, (u * 2 + 1) % n] {
                edges_relaxed += 1;
                if dist[v] < 0 {
                    dist[v] = dist[u] + 1;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    assert!(dist.iter().all(|&d| d >= 0), "graph is connected");
    gpu.launch(&gather_kernel(
        "BFS_kernel_multi_block",
        edges_relaxed,
        2,
        (n * 16) as u64,
        1,
    ));
    gpu.launch(&gather_kernel(
        "BFS_in_GPU_kernel",
        (edges_relaxed / 20).max(32),
        2,
        (n * 16) as u64,
        1,
    ));
}

/// `cutcp`: cutoff Coulombic potential on a lattice — a single
/// compute-dense kernel.
fn cutcp(gpu: &mut dyn LaunchSink, scale: Scale) {
    let atoms = n_of(scale, 64, 1024);
    let grid = n_of(scale, 16, 48);
    let mut rng = StdRng::seed_from_u64(11);
    let pts: Vec<[f32; 3]> = (0..atoms)
        .map(|_| [rng.gen(), rng.gen(), rng.gen()])
        .collect();
    // Real core: potential on a (subsampled) lattice.
    let sub = grid.min(12);
    let mut acc = 0.0f32;
    for x in 0..sub {
        for y in 0..sub {
            for z in 0..sub {
                let p = [
                    x as f32 / sub as f32,
                    y as f32 / sub as f32,
                    z as f32 / sub as f32,
                ];
                for a in &pts {
                    let d2 = (p[0] - a[0]).powi(2) + (p[1] - a[1]).powi(2) + (p[2] - a[2]).powi(2);
                    if d2 < 0.25 {
                        acc += 1.0 / d2.sqrt().max(1e-3);
                    }
                }
            }
        }
    }
    assert!(acc.is_finite());
    let lattice_points = (grid * grid * grid) as u64;
    gpu.launch(&compute_kernel(
        "cuda_cutoff_potential_lattice6overlap",
        lattice_points,
        (atoms as u64 / 2).max(64),
        (atoms * 16) as u64,
    ));
}

/// `histo`: a 4-kernel histogram pipeline, all memory-intensive.
fn histo(gpu: &mut dyn LaunchSink, scale: Scale) {
    let n = n_of(scale, 1 << 12, 1 << 22);
    let mut rng = StdRng::seed_from_u64(12);
    let mut bins = [0u32; 256];
    for _ in 0..n.min(1 << 16) {
        bins[rng.gen_range(0..256usize)] += 1;
    }
    assert_eq!(bins.iter().sum::<u32>() as usize, n.min(1 << 16));
    let n = n as u64;
    gpu.launch(&streaming_kernel("histo_prescan_kernel", n / 64, 4, 1, 2));
    gpu.launch(&streaming_kernel(
        "histo_intermediates_kernel",
        n / 8,
        8,
        8,
        2,
    ));
    gpu.launch(&gather_kernel("histo_main_kernel", n, 1, 1 << 20, 2));
    gpu.launch(&streaming_kernel("histo_final_kernel", n / 16, 8, 4, 2));
}

/// `lbm`: lattice-Boltzmann stream-collide, one bandwidth-bound kernel.
fn lbm(gpu: &mut dyn LaunchSink, scale: Scale) {
    let side = n_of(scale, 8, 64);
    // Real core: one D3Q19-ish relaxation step on a small grid.
    let cells = side * side * side;
    let mut f = vec![1.0f32; cells];
    for i in 0..cells {
        let up = if i >= side { f[i - side] } else { f[i] };
        f[i] = 0.9 * f[i] + 0.1 * up;
    }
    assert!(f.iter().all(|v| v.is_finite()));
    let big_cells = n_of(scale, 1 << 12, 1 << 21) as u64;
    // 19 distributions in + out per cell = ~152 B each way.
    gpu.launch(&streaming_kernel(
        "performStreamCollide_kernel",
        big_cells,
        152,
        152,
        40,
    ));
}

/// `mri-gridding`: binning + gridding scatter, memory-dominant.
fn mri_gridding(gpu: &mut dyn LaunchSink, scale: Scale) {
    let samples = n_of(scale, 1 << 10, 1 << 19);
    let grid = 64usize;
    let mut rng = StdRng::seed_from_u64(13);
    let mut g = vec![0.0f32; grid * grid];
    for _ in 0..samples.min(1 << 14) {
        let x = rng.gen_range(0..grid);
        let y = rng.gen_range(0..grid);
        g[y * grid + x] += rng.gen::<f32>();
    }
    assert!(g.iter().sum::<f32>() > 0.0);
    let s = samples as u64;
    gpu.launch(&streaming_kernel("binning_kernel", s, 16, 8, 6));
    gpu.launch(&gather_kernel(
        "gridding_GPU",
        s,
        6,
        (grid * grid * grid * 8) as u64,
        24,
    ));
    gpu.launch(&reduction_kernel("reorder_kernel", s / 4));
}

/// `mri-q`: Q-matrix computation, compute-dense trigonometric kernels.
fn mri_q(gpu: &mut dyn LaunchSink, scale: Scale) {
    let voxels = n_of(scale, 1 << 10, 1 << 17);
    let k_samples = n_of(scale, 64, 2048);
    // Real core (subsampled): Q accumulation with sin/cos.
    let mut q = 0.0f32;
    for v in 0..voxels.min(256) {
        for k in 0..k_samples.min(64) {
            let phase = (v * k) as f32 * 1e-3;
            q += phase.cos() + phase.sin();
        }
    }
    assert!(q.is_finite());
    gpu.launch(&compute_kernel(
        "ComputePhiMag_GPU",
        k_samples as u64,
        320,
        (k_samples * 8) as u64,
    ));
    gpu.launch(&compute_kernel(
        "ComputeQ_GPU",
        voxels as u64,
        (k_samples as u64 * 4).min(8192),
        (k_samples * 12) as u64,
    ));
}

/// `sad`: sum-of-absolute-differences over macroblocks, streaming.
fn sad(gpu: &mut dyn LaunchSink, scale: Scale) {
    let w = n_of(scale, 32, 1920);
    let h = n_of(scale, 32, 1072);
    // Real core: SAD of one 16×16 block pair.
    let mut rng = StdRng::seed_from_u64(14);
    let a: Vec<i32> = (0..256).map(|_| rng.gen_range(0..255)).collect();
    let b: Vec<i32> = (0..256).map(|_| rng.gen_range(0..255)).collect();
    let s: i32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
    assert!(s >= 0);
    let blocks = (w / 16 * h / 16) as u64;
    gpu.launch(&streaming_kernel("mb_sad_calc", blocks * 41, 64, 8, 48));
    gpu.launch(&streaming_kernel("larger_sad_calc_8", blocks * 8, 16, 8, 6));
    gpu.launch(&streaming_kernel(
        "larger_sad_calc_16",
        blocks * 2,
        16,
        8,
        6,
    ));
}

/// `sgemm`: one tiled compute-bound GEMM kernel.
fn sgemm(gpu: &mut dyn LaunchSink, scale: Scale) {
    let n = n_of(scale, 24, 128);
    // Real core: C = A·B, checked against a second ordering.
    let mut rng = StdRng::seed_from_u64(15);
    let a: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let b: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut c = vec![0.0f32; n * n];
    for i in 0..n {
        for k in 0..n {
            let av = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += av * b[k * n + j];
            }
        }
    }
    // Spot check one element.
    let direct: f32 = (0..n).map(|k| a[k] * b[k * n]).sum();
    assert!((c[0] - direct).abs() < 1e-3);

    let big = n_of(scale, 128, 1024) as u64;
    gpu.launch(&compute_kernel(
        "mysgemmNT",
        big * big,
        big / 2,
        big * big * 8,
    ));
}

/// `spmv`: JDS sparse matrix-vector product, irregular gather.
fn spmv(gpu: &mut dyn LaunchSink, scale: Scale) {
    let rows = n_of(scale, 1 << 10, 1 << 19);
    // Real core: CSR SpMV on a small banded matrix.
    let small = rows.min(2048);
    let x: Vec<f32> = (0..small).map(|i| i as f32 * 0.01).collect();
    let mut y = vec![0.0f32; small];
    for (r, yr) in y.iter_mut().enumerate() {
        for d in 0..8usize {
            let c = (r + d * 13) % small;
            *yr += 0.5 * x[c];
        }
    }
    assert!(y.iter().all(|v| v.is_finite()));
    gpu.launch(&gather_kernel(
        "spmv_jds_naive",
        rows as u64,
        8,
        (rows * 12) as u64,
        8,
    ));
}

/// `stencil`: 7-point 3-D Jacobi stencil, one bandwidth-bound kernel.
fn stencil(gpu: &mut dyn LaunchSink, scale: Scale) {
    let side = n_of(scale, 10, 64);
    // Real core: one sweep, checked for the interior average property.
    let n3 = side * side * side;
    let a = vec![1.0f32; n3];
    let mut out = vec![0.0f32; n3];
    let idx = |x: usize, y: usize, z: usize| (z * side + y) * side + x;
    for z in 1..side - 1 {
        for y in 1..side - 1 {
            for x in 1..side - 1 {
                out[idx(x, y, z)] = (a[idx(x - 1, y, z)]
                    + a[idx(x + 1, y, z)]
                    + a[idx(x, y - 1, z)]
                    + a[idx(x, y + 1, z)]
                    + a[idx(x, y, z - 1)]
                    + a[idx(x, y, z + 1)])
                    / 6.0
                    - a[idx(x, y, z)];
            }
        }
    }
    assert!(
        out[idx(2, 2, 2)].abs() < 1e-6,
        "uniform field has zero residual"
    );
    let big = n_of(scale, 1 << 12, 1 << 21) as u64;
    gpu.launch(&streaming_kernel("block2D_hybrid_coarsen_x", big, 32, 4, 8));
}

/// `tpacf`: two-point angular correlation, compute-dense histogramming.
fn tpacf(gpu: &mut dyn LaunchSink, scale: Scale) {
    let points = n_of(scale, 128, 4096);
    let mut rng = StdRng::seed_from_u64(16);
    let pts: Vec<[f32; 3]> = (0..points.min(256))
        .map(|_| {
            let theta: f32 = rng.gen_range(0.0..std::f32::consts::PI);
            let phi: f32 = rng.gen_range(0.0..2.0 * std::f32::consts::PI);
            [
                theta.sin() * phi.cos(),
                theta.sin() * phi.sin(),
                theta.cos(),
            ]
        })
        .collect();
    let mut hist = [0u32; 32];
    for (i, a) in pts.iter().enumerate() {
        for b in pts.iter().skip(i + 1) {
            let dot = (a[0] * b[0] + a[1] * b[1] + a[2] * b[2]).clamp(-1.0, 1.0);
            let bin = ((dot + 1.0) * 15.9) as usize;
            hist[bin.min(31)] += 1;
        }
    }
    let pairs_small = pts.len() * (pts.len() - 1) / 2;
    assert_eq!(hist.iter().sum::<u32>() as usize, pairs_small);
    let p = points as u64;
    gpu.launch(&compute_kernel("gen_hists", p * p / 64, 96, p * 12));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cactus_analysis::roofline::{Intensity, Roofline};
    use cactus_gpu::{Device, Gpu};
    use cactus_profiler::Profile;

    fn profile_of(name: &str) -> (Profile, Roofline) {
        let mut gpu = Gpu::new(Device::rtx3080());
        crate::by_name(name).unwrap().run(&mut gpu, Scale::Profile);
        let r = Roofline::for_device(&Device::rtx3080());
        (Profile::from_records(gpu.records()), r)
    }

    #[test]
    fn sgemm_is_compute_intensive_single_kernel() {
        let (p, r) = profile_of("sgemm");
        assert_eq!(p.kernel_count(), 1);
        let m = &p.kernels()[0].metrics;
        assert_eq!(
            r.intensity_class(m.instruction_intensity),
            Intensity::ComputeIntensive
        );
    }

    #[test]
    fn lbm_and_stencil_are_memory_intensive() {
        for name in ["lbm", "stencil"] {
            let (p, r) = profile_of(name);
            let m = &p.kernels()[0].metrics;
            assert_eq!(
                r.intensity_class(m.instruction_intensity),
                Intensity::MemoryIntensive,
                "{name}"
            );
        }
    }

    #[test]
    fn histo_kernels_are_all_memory_side() {
        let (p, r) = profile_of("histo");
        assert_eq!(p.kernel_count(), 4);
        for k in p.kernels() {
            assert_eq!(
                r.intensity_class(k.metrics.instruction_intensity),
                Intensity::MemoryIntensive,
                "{}",
                k.name
            );
        }
    }

    #[test]
    fn bfs_dominated_by_one_kernel() {
        let (p, _) = profile_of("bfs");
        assert_eq!(p.kernels_for_fraction(0.7), 1);
    }

    #[test]
    fn mri_q_compute_kernel_dominates() {
        let (p, r) = profile_of("mri-q");
        assert_eq!(p.kernels()[0].name, "ComputeQ_GPU");
        assert_eq!(
            r.intensity_class(p.kernels()[0].metrics.instruction_intensity),
            Intensity::ComputeIntensive
        );
    }
}
