//! Compressed sparse row graphs.

/// A directed graph in CSR form. Vertices are `u32` ids; edges are stored
/// as a flat adjacency array indexed by per-vertex offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Build from an edge list. Self-loops are kept; duplicate edges are
    /// kept (they occur in real R-MAT data). Edges pointing at vertices
    /// ≥ `num_vertices` are rejected.
    ///
    /// # Panics
    ///
    /// Panics if any edge endpoint is out of range.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn from_edges(num_vertices: u32, edges: &[(u32, u32)]) -> Self {
        let n = num_vertices as usize;
        let mut degree = vec![0u64; n];
        for &(u, v) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge out of range");
            degree[u as usize] += 1;
        }
        let mut offsets = vec![0u64; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(u, v) in edges {
            let slot = cursor[u as usize];
            targets[slot as usize] = v;
            cursor[u as usize] += 1;
        }
        Self { offsets, targets }
    }

    /// Build an undirected graph from an edge list (each edge inserted in
    /// both directions).
    ///
    /// Scatters both directions straight from the input list — same CSR as
    /// doubling the edge list and calling the test-only `from_edges`, without
    /// materializing the doubled list.
    #[must_use]
    pub fn from_edges_undirected(num_vertices: u32, edges: &[(u32, u32)]) -> Self {
        let n = num_vertices as usize;
        let mut degree = vec![0u64; n];
        for &(u, v) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge out of range");
            degree[u as usize] += 1;
            if u != v {
                degree[v as usize] += 1;
            }
        }
        let mut offsets = vec![0u64; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; offsets[n] as usize];
        for &(u, v) in edges {
            let slot = cursor[u as usize];
            targets[slot as usize] = v;
            cursor[u as usize] += 1;
            if u != v {
                let slot = cursor[v as usize];
                targets[slot as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        Self { offsets, targets }
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    #[must_use]
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-degree of a vertex.
    #[must_use]
    pub fn out_degree(&self, v: u32) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Neighbors of a vertex.
    #[must_use]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Mean out-degree.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn mean_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / f64::from(self.num_vertices())
        }
    }

    /// Maximum out-degree.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn max_degree(&self) -> u64 {
        (0..self.num_vertices())
            .map(|v| self.out_degree(v))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn basic_shape() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[3]);
    }

    #[test]
    fn undirected_doubles_edges() {
        let g = CsrGraph::from_edges_undirected(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn undirected_matches_doubled_edge_list() {
        // The direct two-direction scatter must be indistinguishable from
        // materializing the doubled list (duplicates, self-loops and all).
        let edges = [(0, 1), (1, 2), (2, 2), (0, 1), (3, 0), (1, 0)];
        let mut both = Vec::new();
        for &(u, v) in &edges {
            both.push((u, v));
            if u != v {
                both.push((v, u));
            }
        }
        assert_eq!(
            CsrGraph::from_edges_undirected(4, &edges),
            CsrGraph::from_edges(4, &both)
        );
    }

    #[test]
    fn self_loop_is_inserted_once_in_undirected() {
        let g = CsrGraph::from_edges_undirected(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.out_degree(0), 2); // loop + edge
        assert_eq!(g.out_degree(1), 1);
    }

    #[test]
    fn degree_statistics() {
        let g = diamond();
        assert!((g.mean_degree() - 1.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    #[should_panic(expected = "edge out of range")]
    fn out_of_range_edge_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.mean_degree(), 0.0);
    }
}
