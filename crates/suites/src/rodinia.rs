//! The 18 Rodinia benchmarks used in Table III (Che et al. 2009), each
//! with a real reduced-scale computational core and the kernel
//! decomposition of the original CUDA sources.

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

/// Registry of the Rodinia benchmarks.
#[must_use]
pub(crate) fn benchmarks() -> Vec<Benchmark> {
    let b = |name, runner| Benchmark {
        name,
        suite: Suite::Rodinia,
        runner,
    };
    vec![
        b("b+tree", btree),
        b("backprop", backprop),
        b("bfs-rodinia", bfs),
        b("cfd", cfd),
        b("dwt2d", dwt2d),
        b("gaussian", gaussian),
        b("heartwall", heartwall),
        b("hotspot3d", hotspot3d),
        b("huffman", huffman),
        b("kmeans", kmeans),
        b("lavamd", lavamd),
        b("leukocyte", leukocyte),
        b("lud", lud),
        b("nn", nn),
        b("nw", nw),
        b("pathfinder", pathfinder),
        b("srad_v1", srad),
        b("streamcluster", streamcluster),
    ]
}

/// `b+tree`: bulk key lookups — per the paper, all kernels
/// compute-intensive (pointer chasing resolved in on-chip caches).
fn btree(gpu: &mut dyn LaunchSink, scale: Scale) {
    let keys = n_of(scale, 256, 1 << 16);
    // Real core: build a sorted array "tree" and binary-search it.
    let table: Vec<u32> = (0..1024u32).map(|i| i * 3).collect();
    let mut found = 0;
    for k in 0..keys.min(4096) {
        if table.binary_search(&((k as u32 * 3) % 3072)).is_ok() {
            found += 1;
        }
    }
    assert!(found > 0);
    let k64 = keys as u64;
    gpu.launch(&compute_kernel("findK", k64, 180, 1 << 18));
    gpu.launch(&compute_kernel("findRangeK", k64 / 3, 200, 1 << 18));
}

/// `backprop`: two memory-bound layer kernels.
fn backprop(gpu: &mut dyn LaunchSink, scale: Scale) {
    let units = n_of(scale, 1 << 10, 1 << 20);
    // Real core: one forward + weight-adjust pass on a 16→4 layer.
    let mut rng = StdRng::seed_from_u64(21);
    let w: Vec<f32> = (0..64).map(|_| rng.gen_range(-0.5..0.5)).collect();
    let x: Vec<f32> = (0..16).map(|_| rng.gen()).collect();
    let mut out = [0.0f32; 4];
    for (o, outv) in out.iter_mut().enumerate() {
        for (i, xv) in x.iter().enumerate() {
            *outv += w[o * 16 + i] * xv;
        }
        *outv = 1.0 / (1.0 + (-*outv).exp());
    }
    assert!(out.iter().all(|v| (0.0..1.0).contains(v)));
    let u = units as u64;
    gpu.launch(&streaming_kernel("bpnn_layerforward_CUDA", u, 24, 4, 8));
    gpu.launch(&streaming_kernel("bpnn_adjust_weights_cuda", u, 20, 8, 6));
}

/// Rodinia `bfs`: two memory-bound frontier kernels.
fn bfs(gpu: &mut dyn LaunchSink, scale: Scale) {
    let n = n_of(scale, 1 << 10, 1 << 20);
    // Real core mirrors Parboil's but with the Rodinia two-kernel shape.
    let mut visited = vec![false; n.min(1 << 14)];
    let mut frontier = vec![0usize];
    visited[0] = true;
    let vn = visited.len();
    while let Some(u) = frontier.pop() {
        for &v in &[(u + 1) % vn, (u + 17) % vn] {
            if !visited[v] {
                visited[v] = true;
                frontier.push(v);
            }
        }
    }
    assert!(visited.iter().all(|&v| v));
    let n = n as u64;
    gpu.launch(&gather_kernel("Kernel", n * 3, 2, n * 16, 1));
    gpu.launch(&streaming_kernel("Kernel2", n, 6, 2, 1));
}

/// `cfd`: unstructured Euler solver — flux kernel dominates, compute side.
fn cfd(gpu: &mut dyn LaunchSink, scale: Scale) {
    let cells = n_of(scale, 1 << 10, 1 << 18);
    // Real core: a flux update on a 1-D tube.
    let m = cells.min(4096);
    let mut rho = vec![1.0f32; m];
    for i in 1..m - 1 {
        rho[i] += 0.1 * (rho[i - 1] - 2.0 * rho[i] + rho[i + 1]);
    }
    assert!(rho.iter().all(|v| v.is_finite()));
    let c = cells as u64;
    gpu.launch(&compute_kernel("cuda_compute_step_factor", c, 260, c * 20));
    gpu.launch(&compute_kernel("cuda_compute_flux", c, 300, c * 80));
    gpu.launch(&compute_kernel("cuda_time_step", c, 240, c * 24));
}

/// `dwt2d`: 5/3 wavelet, memory-bound.
fn dwt2d(gpu: &mut dyn LaunchSink, scale: Scale) {
    let side = n_of(scale, 32, 2048);
    // Real core: one 1-D Haar pass; perfectly reconstructible.
    let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.3).sin()).collect();
    let lo: Vec<f32> = x.chunks(2).map(|c| (c[0] + c[1]) / 2.0).collect();
    let hi: Vec<f32> = x.chunks(2).map(|c| (c[0] - c[1]) / 2.0).collect();
    let recon0 = lo[0] + hi[0];
    assert!((recon0 - x[0]).abs() < 1e-6);
    let px = (side * side) as u64;
    gpu.launch(&streaming_kernel("fdwt53Kernel", px, 12, 8, 6));
}

/// `gaussian` (4 K): elimination with a dominant memory-bound Fan2.
fn gaussian(gpu: &mut dyn LaunchSink, scale: Scale) {
    let n = n_of(scale, 16, 512);
    // Real core: eliminate a small SPD-ish system and verify the result.
    let m = 8usize;
    let mut a = vec![0.0f64; m * m];
    let mut rhs = vec![0.0f64; m];
    for i in 0..m {
        a[i * m + i] = 4.0;
        if i + 1 < m {
            a[i * m + i + 1] = 1.0;
            a[(i + 1) * m + i] = 1.0;
        }
        rhs[i] = i as f64;
    }
    let a0 = a.clone();
    let r0 = rhs.clone();
    for k in 0..m {
        for i in k + 1..m {
            let f = a[i * m + k] / a[k * m + k];
            for j in k..m {
                a[i * m + j] -= f * a[k * m + j];
            }
            rhs[i] -= f * rhs[k];
        }
    }
    let mut x = vec![0.0f64; m];
    for i in (0..m).rev() {
        let mut s = rhs[i];
        for j in i + 1..m {
            s -= a[i * m + j] * x[j];
        }
        x[i] = s / a[i * m + i];
    }
    for i in 0..m {
        let resid: f64 = (0..m).map(|j| a0[i * m + j] * x[j]).sum::<f64>() - r0[i];
        assert!(resid.abs() < 1e-9, "row {i} residual {resid}");
    }
    // The original launches Fan1/Fan2 per elimination column.
    let n64 = n as u64;
    let cols = n_of(scale, 4, 24) as u64;
    for _ in 0..cols {
        gpu.launch(&streaming_kernel("Fan1", n64, 8, 4, 2));
        gpu.launch(&streaming_kernel("Fan2", n64 * n64 / cols, 12, 4, 2));
    }
}

/// `heartwall`: one large compute-bound tracking kernel.
fn heartwall(gpu: &mut dyn LaunchSink, scale: Scale) {
    let points = n_of(scale, 64, 4096);
    // Real core: template matching by normalized correlation on a strip.
    let t: Vec<f32> = (0..32).map(|i| (i as f32).sin()).collect();
    let s: Vec<f32> = (0..64).map(|i| ((i + 3) as f32).sin()).collect();
    let mut best = (0usize, f32::MIN);
    for off in 0..32 {
        let score: f32 = t.iter().zip(&s[off..off + 32]).map(|(a, b)| a * b).sum();
        if score > best.1 {
            best = (off, score);
        }
    }
    assert!(best.1.is_finite());
    gpu.launch(&compute_kernel(
        "heartwall_kernel",
        points as u64 * 64,
        250,
        1 << 20,
    ));
}

/// `hotspot3d`: thermal stencil, memory-bound.
fn hotspot3d(gpu: &mut dyn LaunchSink, scale: Scale) {
    let side = n_of(scale, 16, 256);
    let m = side.min(16);
    let mut temp = vec![60.0f32; m * m];
    for i in m + 1..m * m - m - 1 {
        temp[i] = 0.25 * (temp[i - 1] + temp[i + 1] + temp[i - m] + temp[i + m]);
    }
    assert!(temp.iter().all(|v| (0.0..100.0).contains(v)));
    let cells = (side * side * 8) as u64;
    let steps = n_of(scale, 2, 8);
    for _ in 0..steps {
        gpu.launch(&streaming_kernel("hotspotOpt1", cells, 28, 4, 10));
    }
}

/// `huffman`: VLC encoding, memory-side kernels.
fn huffman(gpu: &mut dyn LaunchSink, scale: Scale) {
    let n = n_of(scale, 1 << 10, 1 << 21);
    // Real core: canonical prefix encode/decode of a tiny alphabet.
    let code = [(0b0u32, 1u32), (0b10, 2), (0b110, 3), (0b111, 3)];
    let symbols = [0usize, 1, 2, 3, 0, 0, 2];
    let mut bits = 0u64;
    for &s in &symbols {
        bits += u64::from(code[s].1);
    }
    assert_eq!(bits, 1 + 2 + 3 + 3 + 1 + 1 + 3);
    let n = n as u64;
    gpu.launch(&gather_kernel("histo_kernel", n, 1, 1 << 16, 1));
    gpu.launch(&streaming_kernel("vlc_encode_kernel_sm64huff", n, 8, 4, 6));
    gpu.launch(&reduction_kernel("pack2", n / 8));
}

/// `kmeans`: both kernels memory-intensive (paper Observation 4).
fn kmeans(gpu: &mut dyn LaunchSink, scale: Scale) {
    let points = n_of(scale, 1 << 10, 1 << 20);
    let dims = 16u64;
    let k = 8usize;
    // Real core: two Lloyd iterations on 2-D points, centers must move
    // toward the data mean.
    let mut rng = StdRng::seed_from_u64(23);
    let data: Vec<[f32; 2]> = (0..512)
        .map(|i| {
            let c = if i % 2 == 0 { 0.0 } else { 10.0 };
            [c + rng.gen_range(-1.0..1.0), c + rng.gen_range(-1.0..1.0)]
        })
        .collect();
    let mut centers = [[1.0f32, 1.0], [9.0, 9.0]];
    for _ in 0..2 {
        let mut sums = [[0.0f32; 2]; 2];
        let mut counts = [0usize; 2];
        for p in &data {
            let d0 = (p[0] - centers[0][0]).powi(2) + (p[1] - centers[0][1]).powi(2);
            let d1 = (p[0] - centers[1][0]).powi(2) + (p[1] - centers[1][1]).powi(2);
            let a = usize::from(d1 < d0);
            sums[a][0] += p[0];
            sums[a][1] += p[1];
            counts[a] += 1;
        }
        for (c, (s, n)) in centers.iter_mut().zip(sums.iter().zip(&counts)) {
            if *n > 0 {
                c[0] = s[0] / *n as f32;
                c[1] = s[1] / *n as f32;
            }
        }
    }
    assert!(centers[0][0] < 2.0 && centers[1][0] > 8.0, "{centers:?}");
    let p = points as u64;
    gpu.launch(&streaming_kernel(
        "kmeansPoint",
        p,
        (dims * 4 + k as u64 * 8) as u32,
        4,
        (dims * u64::try_from(k).unwrap() / 4).max(8),
    ));
    gpu.launch(&streaming_kernel("invert_mapping", p, 8, 8, 1));
}

/// `lavamd`: particle interactions within boxes, one compute kernel.
fn lavamd(gpu: &mut dyn LaunchSink, scale: Scale) {
    let boxes = n_of(scale, 8, 1000);
    let per_box = 100u64;
    // Real core: forces between particles of two boxes.
    let mut rng = StdRng::seed_from_u64(24);
    let pts: Vec<[f32; 3]> = (0..64).map(|_| [rng.gen(), rng.gen(), rng.gen()]).collect();
    let mut f = 0.0f32;
    for a in &pts[..32] {
        for b in &pts[32..] {
            let d2: f32 = (0..3).map(|i| (a[i] - b[i]).powi(2)).sum();
            f += (-2.0 * d2).exp();
        }
    }
    assert!(f > 0.0);
    gpu.launch(&compute_kernel(
        "kernel_gpu_cuda",
        boxes as u64 * per_box,
        27 * per_box / 2,
        boxes as u64 * per_box * 16,
    ));
}

/// `leukocyte`: cell tracking — compute-dense kernels.
fn leukocyte(gpu: &mut dyn LaunchSink, scale: Scale) {
    let cells = n_of(scale, 4, 36);
    let frame_px = n_of(scale, 1 << 10, 1 << 18) as u64;
    // Real core: gradient-inverse-coefficient-of-variation on a patch.
    let patch: Vec<f32> = (0..64).map(|i| (i as f32 * 0.2).cos()).collect();
    let mean: f32 = patch.iter().sum::<f32>() / 64.0;
    let var: f32 = patch.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 64.0;
    assert!(var > 0.0);
    gpu.launch(&compute_kernel("GICOV_kernel", frame_px, 280, frame_px * 4));
    gpu.launch(&compute_kernel(
        "dilate_kernel",
        frame_px,
        230,
        frame_px * 4,
    ));
    gpu.launch(&compute_kernel(
        "IMGVF_kernel",
        cells as u64 * 4096,
        300,
        1 << 18,
    ));
}

/// `lud`: the paper's mixed-behaviour exception — a memory-intensive
/// diagonal/perimeter phase plus a compute-intensive internal phase.
fn lud(gpu: &mut dyn LaunchSink, scale: Scale) {
    let n = n_of(scale, 8, 2048);
    // Real core: LU-factorize a small diagonally-dominant matrix and
    // verify L·U reconstructs it.
    let m = 6usize;
    let mut a = vec![0.0f64; m * m];
    for i in 0..m {
        for j in 0..m {
            a[i * m + j] = if i == j {
                10.0
            } else {
                1.0 / (1.0 + (i + j) as f64)
            };
        }
    }
    let orig = a.clone();
    for k in 0..m {
        for i in k + 1..m {
            a[i * m + k] /= a[k * m + k];
            for j in k + 1..m {
                a[i * m + j] -= a[i * m + k] * a[k * m + j];
            }
        }
    }
    for i in 0..m {
        for j in 0..m {
            let mut s = 0.0;
            for k in 0..=i.min(j) {
                let l = if k == i { 1.0 } else { a[i * m + k] };
                let u = a[k * m + j];
                s += if k <= j { l * u } else { 0.0 };
            }
            assert!((s - orig[i * m + j]).abs() < 1e-9, "({i},{j})");
        }
    }
    let blocks = (n / 16) as u64;
    for _ in 0..n_of(scale, 2, 6) {
        gpu.launch(&streaming_kernel("lud_diagonal", 16 * 16, 16, 16, 8));
        gpu.launch(&streaming_kernel("lud_perimeter", blocks * 256, 24, 12, 10));
        gpu.launch(&compute_kernel(
            "lud_internal",
            blocks * blocks * 256,
            64,
            (n * 16) as u64,
        ));
    }
}

/// `nn`: nearest neighbor, one streaming distance kernel.
fn nn(gpu: &mut dyn LaunchSink, scale: Scale) {
    let records = n_of(scale, 1 << 10, 1 << 21);
    // Real core: Euclidean nearest among a handful.
    let target = [3.0f32, 4.0];
    let cands = [[0.0f32, 0.0], [3.0, 4.1], [10.0, 10.0]];
    let nearest = cands
        .iter()
        .enumerate()
        .min_by(|a, b| {
            let da = (a.1[0] - target[0]).powi(2) + (a.1[1] - target[1]).powi(2);
            let db = (b.1[0] - target[0]).powi(2) + (b.1[1] - target[1]).powi(2);
            da.partial_cmp(&db).unwrap()
        })
        .unwrap()
        .0;
    assert_eq!(nearest, 1);
    gpu.launch(&streaming_kernel("euclid", records as u64, 8, 4, 5));
}

/// `nw`: Needleman–Wunsch DP, two anti-diagonal memory-side kernels.
fn nw(gpu: &mut dyn LaunchSink, scale: Scale) {
    let n = n_of(scale, 64, 4096);
    // Real core: align "GATTACA" vs "GCATGCU" with match=1, indel/mis=-1.
    let (s1, s2) = (b"GATTACA", b"GCATGCU");
    let (l1, l2) = (s1.len(), s2.len());
    let mut dp = vec![0i32; (l1 + 1) * (l2 + 1)];
    for i in 0..=l1 {
        dp[i * (l2 + 1)] = -(i as i32);
    }
    for j in 0..=l2 {
        dp[j] = -(j as i32);
    }
    for i in 1..=l1 {
        for j in 1..=l2 {
            let m = if s1[i - 1] == s2[j - 1] { 1 } else { -1 };
            dp[i * (l2 + 1) + j] = (dp[(i - 1) * (l2 + 1) + j - 1] + m)
                .max(dp[(i - 1) * (l2 + 1) + j] - 1)
                .max(dp[i * (l2 + 1) + j - 1] - 1);
        }
    }
    assert_eq!(
        dp[l1 * (l2 + 1) + l2],
        0,
        "known NW score of GATTACA/GCATGCU"
    );
    let cells = (n * n) as u64;
    gpu.launch(&streaming_kernel(
        "needle_cuda_shared_1",
        cells / 2,
        12,
        4,
        4,
    ));
    gpu.launch(&streaming_kernel(
        "needle_cuda_shared_2",
        cells / 2,
        12,
        4,
        4,
    ));
}

/// `pathfinder`: row-by-row DP, one memory-side kernel.
fn pathfinder(gpu: &mut dyn LaunchSink, scale: Scale) {
    let cols = n_of(scale, 1 << 10, 1 << 20);
    // Real core: min-path DP over a small grid.
    let grid = [[1, 3, 1], [1, 5, 1], [4, 2, 1]];
    let mut row = grid[0];
    for r in 1..3 {
        let prev = row;
        for c in 0..3usize {
            let best = prev[c]
                .min(if c > 0 { prev[c - 1] } else { i32::MAX })
                .min(if c < 2 { prev[c + 1] } else { i32::MAX });
            row[c] = grid[r][c] + best;
        }
    }
    assert_eq!(*row.iter().min().unwrap(), 3);
    let steps = n_of(scale, 2, 6);
    for _ in 0..steps {
        gpu.launch(&streaming_kernel("dynproc_kernel", cols as u64, 12, 4, 4));
    }
}

/// `srad_v1`: all four kernels memory-intensive (paper Observation 4).
fn srad(gpu: &mut dyn LaunchSink, scale: Scale) {
    let px = n_of(scale, 1 << 10, 1 << 21) as u64;
    // Real core: one SRAD diffusion update on a small image.
    let m = 16usize;
    let img = vec![1.0f32; m * m];
    let mut out = img.clone();
    for i in m..m * m - m {
        let dn = img[i - m] - img[i];
        let ds = img[i + m] - img[i];
        out[i] = img[i] + 0.1 * (dn + ds);
    }
    assert!(
        (out[m * 8] - 1.0).abs() < 1e-6,
        "uniform image is a fixed point"
    );
    gpu.launch(&streaming_kernel("prepare_kernel", px, 8, 8, 2));
    gpu.launch(&reduction_kernel("reduce_kernel", px));
    gpu.launch(&streaming_kernel("srad_kernel", px, 24, 8, 12));
    gpu.launch(&streaming_kernel("srad2_kernel", px, 20, 8, 10));
}

/// `streamcluster`: cost evaluation, memory-side.
fn streamcluster(gpu: &mut dyn LaunchSink, scale: Scale) {
    let points = n_of(scale, 1 << 10, 1 << 18);
    let dims = 32u32;
    // Real core: assignment cost of points to one median.
    let mut rng = StdRng::seed_from_u64(25);
    let pts: Vec<f32> = (0..256).map(|_| rng.gen()).collect();
    let cost: f32 = pts.iter().map(|p| (p - 0.5).abs()).sum();
    assert!(cost > 0.0);
    let steps = n_of(scale, 2, 5);
    for _ in 0..steps {
        gpu.launch(&streaming_kernel(
            "kernel_compute_cost",
            points as u64,
            dims * 4,
            4,
            u64::from(dims) * 3,
        ));
    }
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

    /// The paper's LUD exception: one kernel on each side of the elbow.
    #[test]
    fn lud_mixes_memory_and_compute_kernels() {
        let (p, r) = profile_of("lud");
        let classes: std::collections::BTreeSet<_> = p
            .kernels()
            .iter()
            .map(|k| r.intensity_class(k.metrics.instruction_intensity))
            .collect();
        assert!(classes.contains(&Intensity::MemoryIntensive));
        assert!(classes.contains(&Intensity::ComputeIntensive));
    }

    #[test]
    fn kmeans_and_srad_kernels_are_all_memory_side() {
        for name in ["kmeans", "srad_v1"] {
            let (p, r) = profile_of(name);
            for k in p.kernels() {
                assert_eq!(
                    r.intensity_class(k.metrics.instruction_intensity),
                    Intensity::MemoryIntensive,
                    "{name}/{}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn btree_kernels_are_all_compute_side() {
        let (p, r) = profile_of("b+tree");
        for k in p.kernels() {
            assert_eq!(
                r.intensity_class(k.metrics.instruction_intensity),
                Intensity::ComputeIntensive,
                "{}",
                k.name
            );
        }
    }

    #[test]
    fn gaussian_fan2_dominates() {
        let (p, _) = profile_of("gaussian");
        assert_eq!(p.kernels()[0].name, "Fan2");
        assert!(p.kernels()[0].invocations > 1, "per-column launches");
    }

    #[test]
    fn heartwall_is_single_kernel() {
        let (p, _) = profile_of("heartwall");
        assert_eq!(p.kernel_count(), 1);
        assert_eq!(p.kernels_for_fraction(0.7), 1);
    }
}
