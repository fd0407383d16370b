//! Cell-list assisted Verlet neighbor lists.

use crate::system::ParticleSystem;

/// A half neighbor list (each pair stored once, `i < j`), built through a
/// linked-cell binning pass — the standard O(N) MD neighbor search.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborList {
    /// CSR-style offsets into `neighbors` per particle.
    offsets: Vec<u32>,
    /// Flattened neighbor indices.
    neighbors: Vec<u32>,
    /// Cutoff + skin distance used for the build.
    cutoff: f64,
    /// Particle count of the system the list was built for.
    num_particles: usize,
    /// Number of cells per box edge during the build.
    cells_per_side: usize,
}

impl NeighborList {
    /// Build a half list with the given interaction `cutoff` and Verlet
    /// `skin`.
    ///
    /// # Panics
    ///
    /// Panics if `cutoff + skin` is not positive.
    #[must_use]
    pub fn build(sys: &ParticleSystem, cutoff: f64, skin: f64) -> Self {
        let r = cutoff + skin;
        assert!(r > 0.0, "cutoff + skin must be positive");
        let r2 = r * r;
        Self::build_impl(sys, r, |_, _, d2| d2 < r2)
    }

    /// Build a half list with a per-pair radius `cutoff_factor · σᵢⱼ +
    /// skin`, where `σᵢⱼ = (σᵢ + σⱼ)/2` — the "multi" list used by
    /// size-asymmetric styles (LAMMPS colloid). Binning still uses the
    /// largest pair's range, but small-small pairs are only stored out to
    /// their own short cutoff, which shrinks the list by an order of
    /// magnitude in dilute colloid mixtures.
    ///
    /// # Panics
    ///
    /// Panics if the largest pair radius is not positive.
    #[must_use]
    pub fn build_multi(sys: &ParticleSystem, cutoff_factor: f64, skin: f64) -> Self {
        let max_sigma = sys.sigmas.iter().fold(1.0f64, |m, &s| m.max(s));
        let r = cutoff_factor * max_sigma + skin;
        assert!(r > 0.0, "max pair radius must be positive");
        let sigmas = &sys.sigmas;
        Self::build_impl(sys, r, |i, j, d2| {
            let rr = cutoff_factor * 0.5 * (sigmas[i as usize] + sigmas[j as usize]) + skin;
            d2 < rr * rr
        })
    }

    fn build_impl(sys: &ParticleSystem, r: f64, accept: impl Fn(u32, u32, f64) -> bool) -> Self {
        let n = sys.len();
        let l = sys.box_len;
        let cells_per_side = ((l / r).floor() as usize).max(1);
        let cell_len = l / cells_per_side as f64;
        let n_cells = cells_per_side * cells_per_side * cells_per_side;

        // Bin particles into counting-sort CSR bins: one counts pass, one
        // prefix sum, one scatter — no per-cell `Vec` churn.
        let cell_of = |p: &[f64; 3]| -> usize {
            let mut idx = 0usize;
            for a in 0..3 {
                let mut c = (p[a].rem_euclid(l) / cell_len) as usize;
                if c >= cells_per_side {
                    c = cells_per_side - 1;
                }
                idx = idx * cells_per_side + c;
            }
            idx
        };
        let mut particle_cell = vec![0u32; n];
        let mut bin_offsets = vec![0u32; n_cells + 1];
        for (i, p) in sys.positions.iter().enumerate() {
            let c = cell_of(p);
            particle_cell[i] = c as u32;
            bin_offsets[c + 1] += 1;
        }
        for c in 0..n_cells {
            bin_offsets[c + 1] += bin_offsets[c];
        }
        let mut bin_cursor = bin_offsets.clone();
        let mut binned = vec![0u32; n];
        for i in 0..n {
            let c = particle_cell[i] as usize;
            binned[bin_cursor[c] as usize] = i as u32;
            bin_cursor[c] += 1;
        }
        let bin_of =
            |c: usize| -> &[u32] { &binned[bin_offsets[c] as usize..bin_offsets[c + 1] as usize] };

        let positions = &sys.positions;
        let inv_box = 1.0 / l;

        // Pair discovery emits (lo, hi) candidate pairs; a counting sort
        // by `lo` stitches them into i-ordered CSR afterwards.
        let cps = cells_per_side as isize;
        let cell_index = |x: isize, y: isize, z: isize| -> usize {
            let w = |v: isize| -> usize { v.rem_euclid(cps) as usize };
            (w(x) * cells_per_side + w(y)) * cells_per_side + w(z)
        };
        let mut pair_lo: Vec<u32> = Vec::new();
        let mut pair_hi: Vec<u32> = Vec::new();
        let check =
            |i: u32, j: u32, pi: &[f64; 3], pair_lo: &mut Vec<u32>, pair_hi: &mut Vec<u32>| {
                let d = crate::system::min_image_disp(pi, &positions[j as usize], l, inv_box);
                let d2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                if accept(i, j, d2) {
                    pair_lo.push(i.min(j));
                    pair_hi.push(i.max(j));
                }
            };
        if cells_per_side >= 3 {
            // Half stencil: each cell scans itself plus the 13 "forward"
            // neighbor offsets, so every cell pair — and therefore every
            // particle pair — is examined exactly once. Requires ≥ 3 cells
            // per side; below that, wrapped neighbor cells coincide.
            const FORWARD: [(isize, isize, isize); 13] = [
                (0, 0, 1),
                (0, 1, -1),
                (0, 1, 0),
                (0, 1, 1),
                (1, -1, -1),
                (1, -1, 0),
                (1, -1, 1),
                (1, 0, -1),
                (1, 0, 0),
                (1, 0, 1),
                (1, 1, -1),
                (1, 1, 0),
                (1, 1, 1),
            ];
            for x in 0..cps {
                for y in 0..cps {
                    for z in 0..cps {
                        let hb = bin_of(cell_index(x, y, z));
                        for (p, &i) in hb.iter().enumerate() {
                            let pi = positions[i as usize];
                            for &j in &hb[p + 1..] {
                                check(i, j, &pi, &mut pair_lo, &mut pair_hi);
                            }
                        }
                        for &(dx, dy, dz) in &FORWARD {
                            let ob = bin_of(cell_index(x + dx, y + dy, z + dz));
                            for &i in hb {
                                let pi = positions[i as usize];
                                for &j in ob {
                                    check(i, j, &pi, &mut pair_lo, &mut pair_hi);
                                }
                            }
                        }
                    }
                }
            }
        } else {
            // Tiny grids: full stencil with deduplication (wrapping makes
            // neighbor cells coincide), filtering to j > i.
            let mut cells = Vec::with_capacity(27);
            for x in 0..cps {
                for y in 0..cps {
                    for z in 0..cps {
                        let home = cell_index(x, y, z);
                        cells.clear();
                        for dx in -1..=1 {
                            for dy in -1..=1 {
                                for dz in -1..=1 {
                                    let c = cell_index(x + dx, y + dy, z + dz);
                                    if !cells.contains(&c) {
                                        cells.push(c);
                                    }
                                }
                            }
                        }
                        for &i in bin_of(home) {
                            let pi = positions[i as usize];
                            for &c in &cells {
                                for &j in bin_of(c) {
                                    if j > i {
                                        check(i, j, &pi, &mut pair_lo, &mut pair_hi);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        // Counting sort by the low particle id: CSR with each pair stored
        // once on its lower-numbered endpoint.
        let mut offsets = vec![0u32; n + 1];
        for &lo in &pair_lo {
            offsets[lo as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; pair_hi.len()];
        for (&lo, &hi) in pair_lo.iter().zip(&pair_hi) {
            neighbors[cursor[lo as usize] as usize] = hi;
            cursor[lo as usize] += 1;
        }

        Self {
            offsets,
            neighbors,
            cutoff: r,
            num_particles: n,
            cells_per_side,
        }
    }

    /// Neighbors of particle `i` (indices `> i` only — half list).
    #[must_use]
    pub fn neighbors_of(&self, i: usize) -> &[u32] {
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Particle count of the system the list was built for. Every stored
    /// neighbor index is `< num_particles()`.
    #[must_use]
    pub fn num_particles(&self) -> usize {
        self.num_particles
    }

    /// Total number of stored pairs.
    #[must_use]
    pub fn num_pairs(&self) -> u64 {
        self.neighbors.len() as u64
    }

    /// Cells per box edge used during binning (a proxy for the binning
    /// kernel's footprint).
    #[must_use]
    pub fn cells_per_side(&self) -> usize {
        self.cells_per_side
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemBuilder;

    /// Brute-force pair enumeration for validation.
    fn brute_force_pairs(sys: &ParticleSystem, r: f64) -> std::collections::BTreeSet<(u32, u32)> {
        let mut out = std::collections::BTreeSet::new();
        let r2 = r * r;
        for i in 0..sys.len() {
            for j in (i + 1)..sys.len() {
                let d = sys.min_image(i, j);
                if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < r2 {
                    out.insert((i as u32, j as u32));
                }
            }
        }
        out
    }

    fn list_pairs(nl: &NeighborList, n: usize) -> std::collections::BTreeSet<(u32, u32)> {
        let mut out = std::collections::BTreeSet::new();
        for i in 0..n {
            for &j in nl.neighbors_of(i) {
                out.insert((i as u32, j));
            }
        }
        out
    }

    #[test]
    fn matches_brute_force() {
        let sys = SystemBuilder::new(200)
            .density(0.7)
            .seed(3)
            .build_lj_fluid();
        let nl = NeighborList::build(&sys, 2.5, 0.3);
        assert_eq!(
            list_pairs(&nl, sys.len()),
            brute_force_pairs(&sys, 2.8),
            "cell list must agree with brute force"
        );
    }

    #[test]
    fn matches_brute_force_on_sparse_system() {
        // Low density → few cells per side (exercises cell wrapping).
        let sys = SystemBuilder::new(60)
            .density(0.05)
            .seed(8)
            .build_lj_fluid();
        let nl = NeighborList::build(&sys, 2.5, 0.5);
        assert_eq!(list_pairs(&nl, sys.len()), brute_force_pairs(&sys, 3.0));
    }

    #[test]
    fn multi_list_matches_per_pair_brute_force() {
        let sys = SystemBuilder::new(250)
            .density(0.4)
            .seed(11)
            .build_colloid(0.2);
        let (factor, skin) = (1.6, 0.4);
        let nl = NeighborList::build_multi(&sys, factor, skin);
        let mut expect = std::collections::BTreeSet::new();
        for i in 0..sys.len() {
            for j in (i + 1)..sys.len() {
                let d = sys.min_image(i, j);
                let rr = factor * 0.5 * (sys.sigmas[i] + sys.sigmas[j]) + skin;
                if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < rr * rr {
                    expect.insert((i as u32, j as u32));
                }
            }
        }
        assert_eq!(list_pairs(&nl, sys.len()), expect);
    }

    #[test]
    fn multi_list_is_subset_of_max_radius_list() {
        let sys = SystemBuilder::new(200)
            .density(0.4)
            .seed(5)
            .build_colloid(0.2);
        let max_sigma = sys.sigmas.iter().fold(1.0f64, |m, &s| m.max(s));
        let full = NeighborList::build(&sys, 1.6 * max_sigma, 0.4);
        let multi = NeighborList::build_multi(&sys, 1.6, 0.4);
        let full_pairs = list_pairs(&full, sys.len());
        assert!(
            list_pairs(&multi, sys.len()).is_subset(&full_pairs),
            "multi list may only drop pairs, never invent them"
        );
        assert!(multi.num_pairs() < full.num_pairs());
    }

    #[test]
    fn half_list_stores_each_pair_once() {
        let sys = SystemBuilder::new(100).build_lj_fluid();
        let nl = NeighborList::build(&sys, 2.5, 0.3);
        for i in 0..sys.len() {
            for &j in nl.neighbors_of(i) {
                assert!(j as usize > i);
            }
        }
    }

    #[test]
    fn pair_count_scales_with_cutoff() {
        let sys = SystemBuilder::new(300).density(0.8).build_lj_fluid();
        let small = NeighborList::build(&sys, 1.5, 0.0).num_pairs();
        let large = NeighborList::build(&sys, 3.0, 0.0).num_pairs();
        assert!(large > 4 * small, "small {small}, large {large}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_cutoff_panics() {
        let sys = SystemBuilder::new(8).build_lj_fluid();
        let _ = NeighborList::build(&sys, 0.0, 0.0);
    }
}
