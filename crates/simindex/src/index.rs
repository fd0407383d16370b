//! The pruned exact nearest-neighbor index.
//!
//! Vectors are partitioned into coarse cells: k-means-style centroids over
//! the stored coordinates (deterministically seeded, a fixed number of
//! Lloyd iterations). Each entry caches its distance to its cell centroid
//! and each cell its radius (max member distance). A query computes the
//! distance to every centroid — there are only ~√n of them — and then
//! visits cells in ascending centroid distance, maintaining the current
//! k-best set:
//!
//! * **cell prune**: if `d(q, c) − radius(c)` exceeds the current kth-best
//!   distance, no member of the cell can enter the result — skip them all;
//! * **member prune**: the triangle inequality gives
//!   `d(q, p) ≥ |d(q, c) − d(p, c)|`, both terms already known — skip `p`
//!   when that lower bound exceeds the kth-best distance.
//!
//! Both prunes compare against `kth + ε·(1 + kth)` (see `prune_margin`):
//! the bound and the true distance are each computed with a few ulps of
//! rounding, and the margin keeps a point whose float lower bound lands
//! fractionally above the kth distance from being wrongly skipped. A
//! never-pruned point is scored with the *same* distance function brute
//! force uses and admitted under the same `(distance, id)` order, so the
//! pruned result is **bit-identical** to [`SimIndex::brute_force`] — the
//! property tests assert exact equality, and the bench asserts the probe
//! fraction stays under 25% at 100k vectors.

use std::collections::BTreeMap;
use std::fmt;

/// Lloyd refinement passes when (re)building the cell partition. Cells only
/// steer pruning — correctness never depends on their quality — so a few
/// fixed passes beat iterating to convergence.
const LLOYD_ITERS: usize = 8;

/// Entries at the last partition build below which we rebuild on every
/// insert (building is O(n√n); tiny indexes rebuild for free).
const MIN_PARTITION: usize = 32;

/// Relative + absolute slack added to the kth-best distance before either
/// prune fires, covering the rounding of the distance computations on both
/// sides of the comparison. Anything inside the margin is probed and judged
/// by its exact distance, so the margin can only add probes, never wrong
/// results.
fn prune_margin(kth: f64) -> f64 {
    1e-9 * (1.0 + kth) + 1e-12
}

/// Why an insert or query was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// Vector length differs from the index dimensionality.
    DimMismatch {
        /// Offered vector length.
        got: usize,
        /// Index dimensionality.
        want: usize,
    },
    /// A coordinate was NaN or infinite.
    NonFinite,
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::DimMismatch { got, want } => {
                write!(f, "vector has {got} dims, index holds {want}")
            }
            IndexError::NonFinite => write!(f, "vector has a NaN or infinite coordinate"),
        }
    }
}

/// One search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    /// Stored profile id.
    pub id: String,
    /// Euclidean distance to the query.
    pub dist: f64,
}

/// Outcome of one pruned search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The exact k nearest neighbors, ascending by `(distance, id)`.
    pub neighbors: Vec<Neighbor>,
    /// Stored vectors whose full distance was computed.
    pub probed: usize,
    /// Stored vectors skipped by a cell- or member-level prune.
    pub pruned: usize,
}

/// Cumulative index counters (monotonic; mirrors into registry metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Stored vectors.
    pub size: usize,
    /// Coarse cells in the current partition.
    pub cells: usize,
    /// Searches answered.
    pub queries: u64,
    /// Full distance computations across all searches.
    pub probes: u64,
    /// Vectors skipped by pruning across all searches.
    pub pruned: u64,
    /// Vectors inserted (idempotent re-inserts not counted).
    pub inserts: u64,
    /// Cell-partition rebuilds.
    pub repartitions: u64,
}

struct Entry {
    id: String,
    v: Vec<f64>,
    /// Cell this entry belongs to.
    cell: usize,
    /// Cached distance to the cell centroid.
    d_c: f64,
}

struct Cell {
    centroid: Vec<f64>,
    members: Vec<usize>,
    /// Max member distance to the centroid.
    radius: f64,
}

/// The index: a mutable, slot-addressed store of id'd vectors plus the
/// coarse-cell partition that accelerates exact search. Slots are stable —
/// entries are never removed — so external structures (clusters, proxy
/// sets) may hold slot numbers.
pub struct SimIndex {
    dim: usize,
    entries: Vec<Entry>,
    by_id: BTreeMap<String, usize>,
    cells: Vec<Cell>,
    /// Entry count when the partition was last rebuilt; doubling it
    /// triggers the next rebuild.
    rebuilt_at: usize,
    stats: IndexStats,
}

impl SimIndex {
    /// An empty index over `dim`-dimensional vectors.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            entries: Vec::new(),
            by_id: BTreeMap::new(),
            cells: Vec::new(),
            rebuilt_at: 0,
            stats: IndexStats::default(),
        }
    }

    /// Stored vectors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `id` is stored.
    #[must_use]
    pub fn contains(&self, id: &str) -> bool {
        self.by_id.contains_key(id)
    }

    /// The id stored at `slot`.
    #[must_use]
    pub(crate) fn id(&self, slot: usize) -> Option<&str> {
        self.entries.get(slot).map(|e| e.id.as_str())
    }

    /// The vector stored at `slot`.
    #[must_use]
    pub(crate) fn vector(&self, slot: usize) -> Option<&[f64]> {
        self.entries.get(slot).map(|e| e.v.as_slice())
    }

    /// Every stored id, in slot order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.id.as_str())
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            size: self.entries.len(),
            cells: self.cells.len(),
            ..self.stats
        }
    }

    /// Insert one vector under `id`. Returns the entry's slot and whether
    /// it was newly inserted: re-inserting an existing id is an idempotent
    /// no-op keeping the stored vector (profile ids are content-addressed
    /// upstream — same id, same metrics).
    ///
    /// # Errors
    ///
    /// Rejects wrong-dimension and non-finite vectors.
    pub fn insert(&mut self, id: &str, v: &[f64]) -> Result<(usize, bool), IndexError> {
        self.validate(v)?;
        if let Some(&slot) = self.by_id.get(id) {
            return Ok((slot, false));
        }
        let slot = self.entries.len();
        self.by_id.insert(id.to_owned(), slot);

        // Assign to the nearest existing cell so search stays exact between
        // partition rebuilds; the radius grows to keep the cell bound true.
        let (cell, d_c) = self.nearest_cell(v).map_or((0, 0.0), |(cell, d)| (cell, d));
        self.entries.push(Entry {
            id: id.to_owned(),
            v: v.to_vec(),
            cell,
            d_c,
        });
        if let Some(c) = self.cells.get_mut(cell) {
            c.members.push(slot);
            if d_c > c.radius {
                c.radius = d_c;
            }
        }
        self.stats.inserts += 1;

        // Rebuild the partition when the index has doubled since the last
        // build: cell count tracks √n and centroids follow the data.
        if self.cells.is_empty() || self.entries.len() >= self.rebuilt_at.max(MIN_PARTITION) * 2 {
            self.rebuild_partition();
        }
        Ok((slot, true))
    }

    /// Exact k-nearest-neighbor search with cell and triangle-inequality
    /// pruning. The result equals [`SimIndex::brute_force`] bit-for-bit.
    ///
    /// # Errors
    ///
    /// Rejects wrong-dimension and non-finite queries.
    pub fn search(&mut self, q: &[f64], k: usize) -> Result<SearchResult, IndexError> {
        self.validate(q)?;
        self.stats.queries += 1;
        if k == 0 || self.entries.is_empty() {
            return Ok(SearchResult {
                neighbors: Vec::new(),
                probed: 0,
                pruned: 0,
            });
        }

        // Distance to every centroid, cells ordered nearest-first so the
        // k-best set tightens before the far cells are considered.
        let mut order: Vec<(f64, usize)> = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| (dist(q, &c.centroid), i))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut best = Best::new(k);
        let mut probed = 0usize;
        let mut pruned = 0usize;
        for &(d_qc, ci) in &order {
            let Some(cell) = self.cells.get(ci) else {
                continue;
            };
            let kth = best.kth();
            if d_qc - cell.radius > kth + prune_margin(kth) {
                pruned += cell.members.len();
                continue;
            }
            for &slot in &cell.members {
                let Some(entry) = self.entries.get(slot) else {
                    continue;
                };
                let kth = best.kth();
                let lower = (d_qc - entry.d_c).abs();
                if lower > kth + prune_margin(kth) {
                    pruned += 1;
                    continue;
                }
                probed += 1;
                best.offer(dist(q, &entry.v), slot, &self.entries);
            }
        }
        self.stats.probes += probed as u64;
        self.stats.pruned += pruned as u64;
        Ok(SearchResult {
            neighbors: best.into_neighbors(&self.entries),
            probed,
            pruned,
        })
    }

    /// Reference k-NN: score every stored vector, order by `(distance, id)`.
    /// The pruned search must match this exactly; the bench also measures it
    /// as the unpruned baseline.
    ///
    /// # Errors
    ///
    /// Rejects wrong-dimension and non-finite queries.
    pub fn brute_force(&self, q: &[f64], k: usize) -> Result<Vec<Neighbor>, IndexError> {
        self.validate(q)?;
        let mut best = Best::new(k);
        for (slot, entry) in self.entries.iter().enumerate() {
            best.offer(dist(q, &entry.v), slot, &self.entries);
        }
        Ok(best.into_neighbors(&self.entries))
    }

    fn validate(&self, v: &[f64]) -> Result<(), IndexError> {
        if v.len() != self.dim {
            return Err(IndexError::DimMismatch {
                got: v.len(),
                want: self.dim,
            });
        }
        if v.iter().any(|x| !x.is_finite()) {
            return Err(IndexError::NonFinite);
        }
        Ok(())
    }

    fn nearest_cell(&self, v: &[f64]) -> Option<(usize, f64)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (i, dist(v, &c.centroid)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// Rebuild the coarse partition: √n centroids seeded from evenly spaced
    /// entries (deterministic — no RNG), a fixed number of Lloyd passes,
    /// then cache memberships, centroid distances, and radii.
    fn rebuild_partition(&mut self) {
        let n = self.entries.len();
        if n == 0 {
            self.cells.clear();
            self.rebuilt_at = 0;
            return;
        }
        let k = ((n as f64).sqrt().floor() as usize).clamp(1, n);
        let mut centroids: Vec<Vec<f64>> = (0..k)
            .map(|i| {
                let slot = (i * n) / k;
                self.entries
                    .get(slot)
                    .map_or_else(|| vec![0.0; self.dim], |e| e.v.clone())
            })
            .collect();

        let mut assignment = vec![0usize; n];
        for _ in 0..LLOYD_ITERS {
            for (slot, entry) in self.entries.iter().enumerate() {
                let nearest = centroids
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (i, dist(&entry.v, c)))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .map_or(0, |(i, _)| i);
                if let Some(a) = assignment.get_mut(slot) {
                    *a = nearest;
                }
            }
            let mut sums = vec![vec![0.0; self.dim]; k];
            let mut counts = vec![0usize; k];
            for (slot, entry) in self.entries.iter().enumerate() {
                let a = assignment.get(slot).copied().unwrap_or(0);
                if let (Some(sum), Some(count)) = (sums.get_mut(a), counts.get_mut(a)) {
                    for (s, &x) in sum.iter_mut().zip(&entry.v) {
                        *s += x;
                    }
                    *count += 1;
                }
            }
            for ((centroid, sum), &count) in centroids.iter_mut().zip(&sums).zip(&counts) {
                if count > 0 {
                    // An emptied cell keeps its old centroid; it simply
                    // attracts nothing until the next rebuild.
                    for (c, &s) in centroid.iter_mut().zip(sum) {
                        *c = s / count as f64;
                    }
                }
            }
        }

        self.cells = centroids
            .into_iter()
            .map(|centroid| Cell {
                centroid,
                members: Vec::new(),
                radius: 0.0,
            })
            .collect();
        for (slot, entry) in self.entries.iter_mut().enumerate() {
            let a = assignment.get(slot).copied().unwrap_or(0);
            entry.cell = a;
            if let Some(cell) = self.cells.get_mut(a) {
                entry.d_c = dist(&entry.v, &cell.centroid);
                cell.members.push(slot);
                if entry.d_c > cell.radius {
                    cell.radius = entry.d_c;
                }
            }
        }
        self.rebuilt_at = n;
        self.stats.repartitions += 1;
    }
}

/// Euclidean distance. One definition shared by pruned search, brute
/// force, clustering, and proxy selection — bit-identical comparisons
/// everywhere.
#[must_use]
pub(crate) fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// The current k-best set: at most `k` slots ordered by `(distance, id)`.
/// Kept as a small unsorted vector with a tracked worst element — k is
/// bounded (≤ 50 on the API) so linear maintenance beats heap constants.
struct Best {
    k: usize,
    /// `(distance, slot)` candidates, unsorted.
    items: Vec<(f64, usize)>,
}

impl Best {
    fn new(k: usize) -> Self {
        Self {
            k,
            items: Vec::with_capacity(k.min(64)),
        }
    }

    /// Current kth-best distance (`∞` while the set is underfull).
    fn kth(&self) -> f64 {
        if self.items.len() < self.k {
            f64::INFINITY
        } else {
            self.items
                .iter()
                .map(|&(d, _)| d)
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Offer one candidate; replaces the worst member when full and the
    /// candidate orders strictly before it by `(distance, id)`.
    fn offer(&mut self, d: f64, slot: usize, entries: &[Entry]) {
        if self.k == 0 {
            return;
        }
        if self.items.len() < self.k {
            self.items.push((d, slot));
            return;
        }
        let Some(worst_at) = self
            .items
            .iter()
            .enumerate()
            .max_by(|a, b| cmp_cand(*a.1, *b.1, entries))
            .map(|(i, _)| i)
        else {
            return;
        };
        let Some(&worst) = self.items.get(worst_at) else {
            return;
        };
        if cmp_cand((d, slot), worst, entries) == std::cmp::Ordering::Less {
            if let Some(item) = self.items.get_mut(worst_at) {
                *item = (d, slot);
            }
        }
    }

    fn into_neighbors(self, entries: &[Entry]) -> Vec<Neighbor> {
        let mut items = self.items;
        items.sort_by(|&a, &b| cmp_cand(a, b, entries));
        items
            .into_iter()
            .filter_map(|(d, slot)| {
                entries.get(slot).map(|e| Neighbor {
                    id: e.id.clone(),
                    dist: d,
                })
            })
            .collect()
    }
}

/// Deterministic candidate order: ascending distance, ties by id.
fn cmp_cand(a: (f64, usize), b: (f64, usize), entries: &[Entry]) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then_with(|| {
        let ida = entries.get(a.1).map(|e| e.id.as_str()).unwrap_or("");
        let idb = entries.get(b.1).map(|e| e.id.as_str()).unwrap_or("");
        ida.cmp(idb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_index(n: usize, dim: usize) -> SimIndex {
        let mut idx = SimIndex::new(dim);
        for i in 0..n {
            // Deterministic scatter with repeated values so exact distance
            // ties occur.
            let v: Vec<f64> = (0..dim)
                .map(|d| ((i * 7 + d * 13) % 10) as f64 * 0.25)
                .collect();
            idx.insert(&format!("id{i:04}"), &v).expect("insert");
        }
        idx
    }

    #[test]
    fn pruned_matches_brute_force_exactly() {
        let mut idx = grid_index(300, 4);
        for probe in 0..20 {
            let q: Vec<f64> = (0..4).map(|d| ((probe * 3 + d) % 9) as f64 * 0.3).collect();
            let brute = idx.brute_force(&q, 7).expect("brute");
            let pruned = idx.search(&q, 7).expect("search");
            assert_eq!(pruned.neighbors, brute, "probe {probe}");
        }
        let s = idx.stats();
        assert!(s.pruned > 0, "pruning never fired: {s:?}");
        assert_eq!(s.queries, 20);
    }

    #[test]
    fn k_larger_than_index_returns_everything() {
        let mut idx = grid_index(5, 3);
        let q = vec![0.0; 3];
        let got = idx.search(&q, 50).expect("search");
        assert_eq!(got.neighbors.len(), 5);
        assert_eq!(got.neighbors, idx.brute_force(&q, 50).expect("brute"));
    }

    #[test]
    fn insert_is_idempotent_by_id() {
        let mut idx = SimIndex::new(2);
        let (slot_a, fresh_a) = idx.insert("a", &[1.0, 2.0]).expect("insert");
        let (slot_b, fresh_b) = idx.insert("a", &[9.0, 9.0]).expect("reinsert");
        assert!(fresh_a);
        assert!(!fresh_b);
        assert_eq!(slot_a, slot_b);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.vector(slot_a), Some(&[1.0, 2.0][..]));
        assert_eq!(idx.stats().inserts, 1);
    }

    #[test]
    fn search_stays_exact_between_rebuilds() {
        // Insert past a rebuild, then keep inserting without triggering the
        // next one: the fresh entries joined existing cells and must still
        // be found.
        let mut idx = SimIndex::new(2);
        for i in 0..70 {
            let v = [f64::from(i % 8), f64::from(i / 8)];
            idx.insert(&format!("p{i:03}"), &v).expect("insert");
        }
        let rebuilds = idx.stats().repartitions;
        idx.insert("late", &[100.0, 100.0]).expect("insert far");
        assert_eq!(idx.stats().repartitions, rebuilds, "no rebuild yet");
        let got = idx.search(&[101.0, 101.0], 1).expect("search");
        let ids: Vec<&str> = got.neighbors.iter().map(|n| n.id.as_str()).collect();
        assert_eq!(ids, ["late"]);
    }

    #[test]
    fn rejects_bad_vectors() {
        let mut idx = SimIndex::new(3);
        assert_eq!(
            idx.insert("x", &[1.0, 2.0]),
            Err(IndexError::DimMismatch { got: 2, want: 3 })
        );
        assert_eq!(
            idx.insert("x", &[1.0, f64::NAN, 0.0]),
            Err(IndexError::NonFinite)
        );
        assert!(idx.search(&[1.0, 2.0], 3).is_err());
        assert!(idx.brute_force(&[f64::INFINITY, 0.0, 0.0], 1).is_err());
    }

    #[test]
    fn empty_and_k0_are_empty() {
        let mut idx = SimIndex::new(2);
        assert!(idx
            .search(&[0.0, 0.0], 3)
            .expect("empty")
            .neighbors
            .is_empty());
        idx.insert("a", &[1.0, 1.0]).expect("insert");
        assert!(idx.search(&[0.0, 0.0], 0).expect("k0").neighbors.is_empty());
    }
}
