//! Agglomerative hierarchical clustering with Ward's minimum-variance
//! linkage (the paper's Figure 9 method), updated in Lance–Williams form,
//! plus dendrogram utilities.

use crate::matrix::Matrix;

/// One merge step: clusters `a` and `b` join at `height` into a new node.
///
/// Node ids follow the scipy convention: leaves are `0..n`, and the `i`-th
/// merge creates node `n + i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First merged node id.
    pub a: usize,
    /// Second merged node id.
    pub b: usize,
    /// Cophenetic height of the merge.
    pub height: f64,
    /// Number of leaves under the new node.
    pub size: usize,
}

/// The full merge tree of a clustering run.
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Merge steps in the order they were performed.
    #[must_use]
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Cut the tree into (at most) `k` clusters; returns one label in
    /// `0..k` per leaf. Labels are assigned in order of first appearance.
    #[must_use]
    pub fn cut(&self, k: usize) -> Vec<usize> {
        let k = k.clamp(1, self.n.max(1));
        let mut parent: Vec<usize> = (0..self.n + self.merges.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        // Apply all but the last k-1 merges.
        let applied = self.merges.len().saturating_sub(k - 1);
        for (i, m) in self.merges.iter().take(applied).enumerate() {
            let node = self.n + i;
            let ra = find(&mut parent, m.a);
            let rb = find(&mut parent, m.b);
            parent[ra] = node;
            parent[rb] = node;
        }
        // Relabel roots densely in order of first appearance.
        let mut labels = Vec::with_capacity(self.n);
        let mut remap: Vec<(usize, usize)> = Vec::new();
        for leaf in 0..self.n {
            let root = find(&mut parent, leaf);
            let label = match remap.iter().find(|&&(r, _)| r == root) {
                Some(&(_, l)) => l,
                None => {
                    let l = remap.len();
                    remap.push((root, l));
                    l
                }
            };
            labels.push(label);
        }
        labels
    }

    /// Render the tree as an indented text dendrogram with the given leaf
    /// labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the number of leaves.
    #[must_use]
    pub fn render(&self, labels: &[String]) -> String {
        assert_eq!(labels.len(), self.n, "one label per leaf required");
        if self.n == 0 {
            return String::new();
        }
        if self.merges.is_empty() {
            return format!("{}\n", labels[0]);
        }
        let root = self.n + self.merges.len() - 1;
        let mut out = String::new();
        self.render_node(root, 0, labels, &mut out);
        out
    }

    fn render_node(&self, node: usize, depth: usize, labels: &[String], out: &mut String) {
        let indent = "  ".repeat(depth);
        if node < self.n {
            out.push_str(&format!("{indent}- {}\n", labels[node]));
        } else {
            let m = &self.merges[node - self.n];
            out.push_str(&format!("{indent}+ h={:.3} (n={})\n", m.height, m.size));
            self.render_node(m.a, depth + 1, labels, out);
            self.render_node(m.b, depth + 1, labels, out);
        }
    }
}

/// Euclidean distance matrix between the rows of `points`.
#[must_use]
pub fn euclidean_distances(points: &Matrix) -> Vec<Vec<f64>> {
    let n = points.rows();
    let mut d = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let mut s = 0.0;
            for c in 0..points.cols() {
                let diff = points[(i, c)] - points[(j, c)];
                s += diff * diff;
            }
            let dist = s.sqrt();
            d[i][j] = dist;
            d[j][i] = dist;
        }
    }
    d
}

/// Ward-cluster the rows of `points`.
#[must_use]
pub fn cluster(points: &Matrix) -> Dendrogram {
    cluster_distances(&euclidean_distances(points))
}

/// Ward-cluster from a precomputed symmetric Euclidean distance matrix.
/// Merge heights are Euclidean (the square root of the Ward criterion).
///
/// # Panics
///
/// Panics if the distance matrix is not square.
#[must_use]
pub fn cluster_distances(dist: &[Vec<f64>]) -> Dendrogram {
    let n = dist.len();
    for row in dist {
        assert_eq!(row.len(), n, "distance matrix must be square");
    }
    if n == 0 {
        return Dendrogram {
            n: 0,
            merges: Vec::new(),
        };
    }

    // Ward operates on squared distances (Lance–Williams form).
    let mut d: Vec<Vec<f64>> = dist
        .iter()
        .map(|row| row.iter().map(|&v| v * v).collect())
        .collect();

    let mut active: Vec<usize> = (0..n).collect(); // index into d
    let mut node_of: Vec<usize> = (0..n).collect(); // dendrogram node id
    let mut sizes: Vec<usize> = vec![1; n];
    let mut merges = Vec::with_capacity(n.saturating_sub(1));

    while active.len() > 1 {
        // Find the closest active pair.
        let (mut bi, mut bj, mut best) = (0usize, 1usize, f64::INFINITY);
        for (ai, &i) in active.iter().enumerate() {
            for &j in &active[ai + 1..] {
                if d[i][j] < best {
                    best = d[i][j];
                    bi = i;
                    bj = j;
                }
            }
        }

        let (ni, nj) = (sizes[bi] as f64, sizes[bj] as f64);
        // Lance–Williams update of distances from the merged cluster
        // (stored in slot bi) to every other active cluster.
        for &k in &active {
            if k == bi || k == bj {
                continue;
            }
            let nk = sizes[k] as f64;
            let t = ni + nj + nk;
            let (ai_, aj_, beta) = ((ni + nk) / t, (nj + nk) / t, -nk / t);
            let new = ai_ * d[bi][k] + aj_ * d[bj][k] + beta * d[bi][bj];
            d[bi][k] = new;
            d[k][bi] = new;
        }

        let height = best.max(0.0).sqrt();
        let new_size = sizes[bi] + sizes[bj];
        merges.push(Merge {
            a: node_of[bi],
            b: node_of[bj],
            height,
            size: new_size,
        });
        node_of[bi] = n + merges.len() - 1;
        sizes[bi] = new_size;
        active.retain(|&x| x != bj);
    }

    Dendrogram { n, merges }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Matrix {
        // Two tight groups far apart.
        Matrix::from_rows(
            6,
            2,
            vec![
                0.0, 0.0, //
                0.1, 0.0, //
                0.0, 0.1, //
                10.0, 10.0, //
                10.1, 10.0, //
                10.0, 10.1,
            ],
        )
    }

    #[test]
    fn cut_two_blobs_into_two_clusters() {
        let labels = cluster(&two_blobs()).cut(2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[3], labels[5]);
        assert_ne!(labels[0], labels[3]);
    }

    /// Every Ward merge on `two_blobs`, bit for bit: `(a, b, size, height)`.
    #[test]
    fn ward_two_blobs_golden() {
        let got: Vec<(usize, usize, usize, u64)> = cluster(&two_blobs())
            .merges()
            .iter()
            .map(|m| (m.a, m.b, m.size, m.height.to_bits()))
            .collect();
        let want: [(usize, usize, usize, u64); 5] = [
            (3, 4, 2, 0x3fb9_9999_9999_9980),
            (0, 1, 2, 0x3fb9_9999_9999_999a),
            (6, 5, 3, 0x3fc0_8654_a2d4_f6ca),
            (7, 2, 3, 0x3fc0_8654_a2d4_f6db),
            (9, 8, 6, 0x4038_7eb1_990b_697a),
        ];
        assert_eq!(got, want, "{got:#x?}");
    }

    #[test]
    fn merge_count_and_sizes() {
        let dend = cluster(&two_blobs());
        assert_eq!(dend.n, 6);
        assert_eq!(dend.merges().len(), 5);
        assert_eq!(dend.merges().last().unwrap().size, 6);
    }

    #[test]
    fn heights_are_monotone_for_monotone_linkages() {
        let dend = cluster(&two_blobs());
        for w in dend.merges().windows(2) {
            assert!(
                w[1].height >= w[0].height - 1e-9,
                "{} then {}",
                w[0].height,
                w[1].height
            );
        }
    }

    #[test]
    fn cut_one_cluster_labels_everything_zero() {
        let dend = cluster(&two_blobs());
        let labels = dend.cut(1);
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn cut_n_clusters_gives_singletons() {
        let dend = cluster(&two_blobs());
        let labels = dend.cut(6);
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn single_point_dendrogram() {
        let m = Matrix::from_rows(1, 2, vec![1.0, 2.0]);
        let dend = cluster(&m);
        assert_eq!(dend.n, 1);
        assert!(dend.merges().is_empty());
        assert_eq!(dend.cut(3), vec![0]);
        assert!(dend.render(&["only".to_owned()]).contains("only"));
    }

    #[test]
    fn render_contains_all_labels() {
        let dend = cluster(&two_blobs());
        let labels: Vec<String> = (0..6).map(|i| format!("k{i}")).collect();
        let txt = dend.render(&labels);
        for l in &labels {
            assert!(txt.contains(l.as_str()), "missing {l}");
        }
    }

    #[test]
    fn ward_prefers_compact_merges() {
        // A chain of points: single linkage chains them; Ward splits
        // 4 points into balanced 2+2 at k=2.
        let m = Matrix::from_rows(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        let dend = cluster(&m);
        let labels = dend.cut(2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn distance_matrix_is_symmetric_with_zero_diagonal() {
        let d = euclidean_distances(&two_blobs());
        for i in 0..6 {
            assert_eq!(d[i][i], 0.0);
            for j in 0..6 {
                assert!((d[i][j] - d[j][i]).abs() < 1e-12);
            }
        }
    }
}
