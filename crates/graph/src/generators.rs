//! Graph generators for the two Cactus BFS input classes.
//!
//! * [`social_network`] — an R-MAT graph (Chakrabarti et al.) with the
//!   skewed degree distribution and small diameter of the paper's
//!   SOC-Twitter10 input.
//! * [`road_network`] — a 2-D lattice with occasional diagonal shortcuts,
//!   matching the low, uniform degree (~2.4 mean in Road-USA) and the very
//!   large diameter that makes road BFS latency-bound.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::csr::CsrGraph;

/// R-MAT generator: `2^scale` vertices, `edge_factor * 2^scale` directed
/// edges, with the canonical (a, b, c, d) = (0.57, 0.19, 0.19, 0.05)
/// partition probabilities used for social-network-like graphs.
///
/// # Panics
///
/// Panics if `scale ≥ 32`.
#[must_use]
pub fn rmat(scale: u32, edge_factor: u32, seed: u64) -> CsrGraph {
    let (a, b, c) = (0.57, 0.19, 0.19);
    assert!(scale < 32, "scale must be < 32");
    let n = 1u32 << scale;
    let m = u64::from(edge_factor) * u64::from(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let ab = a + b;
    let abc = a + b + c;
    let mut edges = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let mut u = 0u32;
        let mut v = 0u32;
        for bit in (0..scale).rev() {
            // Branchless quadrant pick: with thresholds t1 = r ≥ a,
            // t2 = r ≥ a+b, t3 = r ≥ a+b+c, the quadrant bits are
            // du = t2 and dv = t1 ^ t2 ^ t3 — same draw, same quadrant
            // as the cascaded compare, but nothing for the predictor to
            // miss on a uniformly random `r`.
            let r: f64 = rng.gen();
            let t1 = u32::from(r >= a);
            let t2 = u32::from(r >= ab);
            let t3 = u32::from(r >= abc);
            u |= t2 << bit;
            v |= (t1 ^ t2 ^ t3) << bit;
        }
        edges.push((u, v));
    }
    CsrGraph::from_edges_undirected(n, &edges)
}

/// Social-network-class input for the `GST` workload: R-MAT scaled down
/// from the paper's SOC-Twitter10 (21 M vertices / 265 M edges) while
/// preserving the degree skew and tiny diameter.
#[must_use]
pub fn social_network(scale: u32, seed: u64) -> CsrGraph {
    rmat(scale, 16, seed)
}

/// Road-network-class input for the `GRU` workload: a `width × height`
/// 4-connected lattice with a `shortcut_fraction` of extra diagonal edges,
/// scaled down from Road-USA (23 M vertices / 28 M edges, mean degree 2.4)
/// while preserving the huge diameter.
#[must_use]
pub fn road_network(width: u32, height: u32, seed: u64) -> CsrGraph {
    let n = width * height;
    let idx = |x: u32, y: u32| y * width + x;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity((n as usize) * 2);
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                edges.push((idx(x, y), idx(x + 1, y)));
            }
            if y + 1 < height {
                edges.push((idx(x, y), idx(x, y + 1)));
            }
            // Occasional diagonal shortcut, mimicking highway links.
            if x + 1 < width && y + 1 < height && rng.gen_bool(0.05) {
                edges.push((idx(x, y), idx(x + 1, y + 1)));
            }
        }
    }
    CsrGraph::from_edges_undirected(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_has_requested_size() {
        let g = rmat(10, 8, 42);
        assert_eq!(g.num_vertices(), 1024);
        // Undirected insertion roughly doubles, minus self-loops.
        assert!(g.num_edges() >= 8 * 1024);
        assert!(g.num_edges() <= 2 * 8 * 1024);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(12, 16, 7);
        // Power-law-ish: max degree far above the mean.
        assert!(
            g.max_degree() as f64 > 10.0 * g.mean_degree(),
            "max {} mean {}",
            g.max_degree(),
            g.mean_degree()
        );
    }

    #[test]
    fn rmat_is_deterministic_per_seed() {
        assert_eq!(rmat(8, 4, 1), rmat(8, 4, 1));
        assert_ne!(rmat(8, 4, 1), rmat(8, 4, 2));
    }

    #[test]
    fn road_network_has_low_uniform_degree() {
        let g = road_network(64, 64, 3);
        assert_eq!(g.num_vertices(), 4096);
        let mean = g.mean_degree();
        assert!(mean > 3.0 && mean < 4.5, "mean degree {mean}");
        assert!(g.max_degree() <= 8);
    }

    #[test]
    fn road_network_is_connected_grid() {
        // Every vertex reachable: check degree ≥ 2 except corners.
        let g = road_network(10, 10, 1);
        for v in 0..g.num_vertices() {
            assert!(g.out_degree(v) >= 2, "vertex {v}");
        }
    }
}
