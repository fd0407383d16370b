//! Incremental cluster maintenance over the indexed vectors.
//!
//! The batch pipeline (Figure 9) clusters all profiles at once with Ward
//! linkage. Online, a full rebuild per insert would be O(n³); instead each
//! new vector joins its nearest cluster centroid (or spawns a new cluster
//! when nothing is within `spawn_radius`), centroids track the running
//! mean, and a per-cluster staleness counter bounds how far a centroid may
//! drift before the cluster is re-examined. When the counter trips, a
//! **bounded local re-cluster** runs Ward (`hclust::cluster_distances`)
//! over just that cluster's members and splits it in two if the cut found
//! two genuinely separated families; otherwise the exact centroid is
//! recomputed and the cluster kept. Either way the maintenance cost is
//! local — no other cluster is touched — and the member lists always stay
//! a partition of the assigned slots (property-tested).

use cactus_analysis::hclust;

use crate::index::{dist, SimIndex};

/// Tuning knobs for [`ClusterSet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// A vector farther than this from every centroid spawns a new
    /// cluster.
    pub spawn_radius: f64,
    /// Joins a cluster absorbs before its local re-cluster runs.
    pub staleness_limit: u32,
    /// Member count above which the local re-cluster skips the O(m²) Ward
    /// pass and only recomputes the exact centroid — keeps maintenance
    /// bounded no matter how large one cluster grows.
    pub local_cap: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            // FAMD coordinates are variance-scaled; 1.0 ≈ one principal
            // standard deviation, a conservative family boundary.
            spawn_radius: 1.0,
            staleness_limit: 16,
            local_cap: 256,
        }
    }
}

/// What [`ClusterSet::assign`] did with the vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Cluster the slot now belongs to.
    pub cluster: usize,
    /// Whether a new cluster was spawned for it.
    pub spawned: bool,
    /// Whether the join tripped a local re-cluster.
    pub reclustered: bool,
}

struct Cluster {
    /// Running-mean centroid (exact again after each re-cluster).
    centroid: Vec<f64>,
    /// Slots in this cluster.
    members: Vec<usize>,
    /// Joins since the last re-cluster.
    stale: u32,
}

/// The online partition: every assigned slot belongs to exactly one
/// cluster. Operates on vectors owned by a [`SimIndex`] (slots are stable
/// there), so assignment and re-clustering borrow the index read-only.
pub struct ClusterSet {
    dim: usize,
    clusters: Vec<Cluster>,
    /// `slot → cluster` for every assigned slot, sorted by slot.
    slot_cluster: Vec<(usize, usize)>,
    config: ClusterConfig,
    reclusters: u64,
}

impl ClusterSet {
    /// An empty partition over `dim`-dimensional vectors.
    #[must_use]
    pub fn new(dim: usize, config: ClusterConfig) -> Self {
        Self {
            dim,
            clusters: Vec::new(),
            slot_cluster: Vec::new(),
            config,
            reclusters: 0,
        }
    }

    /// Number of clusters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether no vector has been assigned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Local re-clusters run so far.
    #[must_use]
    pub fn reclusters(&self) -> u64 {
        self.reclusters
    }

    /// Slots assigned so far.
    #[must_use]
    pub fn assigned(&self) -> usize {
        self.slot_cluster.len()
    }

    /// Members of cluster `c`, in join order.
    #[must_use]
    pub fn members(&self, c: usize) -> &[usize] {
        self.clusters.get(c).map_or(&[], |cl| cl.members.as_slice())
    }

    /// Centroid of cluster `c`.
    #[must_use]
    pub fn centroid(&self, c: usize) -> &[f64] {
        self.clusters
            .get(c)
            .map_or(&[], |cl| cl.centroid.as_slice())
    }

    /// Cluster of an assigned slot.
    #[must_use]
    pub fn cluster_of(&self, slot: usize) -> Option<usize> {
        self.slot_cluster
            .binary_search_by_key(&slot, |&(s, _)| s)
            .ok()
            .and_then(|i| self.slot_cluster.get(i))
            .map(|&(_, c)| c)
    }

    /// Assign `slot` (already stored in `index`) to the partition:
    /// nearest-centroid join, spawn past `spawn_radius`, bounded local
    /// re-cluster when the joined cluster goes stale. Re-assigning an
    /// already-assigned slot is a no-op reporting its current cluster.
    pub fn assign(&mut self, index: &SimIndex, slot: usize) -> Assignment {
        if let Some(cluster) = self.cluster_of(slot) {
            return Assignment {
                cluster,
                spawned: false,
                reclustered: false,
            };
        }
        let Some(v) = index.vector(slot) else {
            // Unknown slot: nothing to partition.
            return Assignment {
                cluster: usize::MAX,
                spawned: false,
                reclustered: false,
            };
        };

        let nearest = self
            .clusters
            .iter()
            .enumerate()
            .map(|(i, c)| (i, dist(v, &c.centroid)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        let (cluster, spawned) = match nearest {
            Some((c, d)) if d <= self.config.spawn_radius => (c, false),
            _ => {
                self.clusters.push(Cluster {
                    centroid: v.to_vec(),
                    members: Vec::new(),
                    stale: 0,
                });
                (self.clusters.len() - 1, true)
            }
        };

        // Record the mapping before any re-cluster: the re-cluster may move
        // this very slot into the split-off cluster and must win.
        self.record(slot, cluster);
        let mut stale = false;
        if let Some(cl) = self.clusters.get_mut(cluster) {
            cl.members.push(slot);
            let m = cl.members.len() as f64;
            // Running mean: exact for the sequence of joins, drifts from
            // the true mean only through re-assignments a re-cluster fixes.
            for (c, &x) in cl.centroid.iter_mut().zip(v) {
                *c += (x - *c) / m;
            }
            if !spawned {
                cl.stale += 1;
                stale = cl.stale >= self.config.staleness_limit;
            }
        }
        let reclustered = stale;
        if stale {
            self.recluster(index, cluster);
        }
        Assignment {
            cluster,
            spawned,
            reclustered,
        }
    }

    /// Bounded local re-cluster of one stale cluster: Ward over its
    /// members, split in two when that tightens the radius, else recompute
    /// the exact centroid. Never touches any other cluster.
    fn recluster(&mut self, index: &SimIndex, cluster: usize) {
        self.reclusters += 1;
        let Some(cl) = self.clusters.get_mut(cluster) else {
            return;
        };
        cl.stale = 0;
        let members = cl.members.clone();
        if members.len() < 4 || members.len() > self.config.local_cap {
            // Too small to split meaningfully, or past the bound where the
            // O(m²) Ward pass would no longer be "local": fall back to an
            // exact centroid refresh.
            let centroid = mean_of(index, &members, self.dim);
            if let Some(cl) = self.clusters.get_mut(cluster) {
                cl.centroid = centroid;
            }
            return;
        }

        let points: Vec<&[f64]> = members.iter().filter_map(|&s| index.vector(s)).collect();
        if points.len() != members.len() {
            return;
        }
        let n = points.len();
        let mut d = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let Some((a, b)) = points.get(i).zip(points.get(j)) else {
                    continue;
                };
                let dd = dist(a, b);
                if let Some(row) = d.get_mut(i).and_then(|r| r.get_mut(j)) {
                    *row = dd;
                }
                if let Some(row) = d.get_mut(j).and_then(|r| r.get_mut(i)) {
                    *row = dd;
                }
            }
        }
        let labels = hclust::cluster_distances(&d).cut(2);

        let mut keep: Vec<usize> = Vec::new();
        let mut split: Vec<usize> = Vec::new();
        for (&slot, &label) in members.iter().zip(&labels) {
            if label == 0 {
                keep.push(slot);
            } else {
                split.push(slot);
            }
        }
        let parent_centroid = mean_of(index, &members, self.dim);
        let keep_centroid = mean_of(index, &keep, self.dim);
        let split_centroid = mean_of(index, &split, self.dim);
        let separation = dist(&keep_centroid, &split_centroid);
        let spread =
            radius_of(index, &keep, &keep_centroid) + radius_of(index, &split, &split_centroid);

        // Accept the split only when the Ward cut found two genuinely
        // separated families — centroids farther apart than twice the
        // children's combined spread. A merely diffuse cluster (any spread
        // "tightens" under a cut) stays whole with its exact centroid
        // restored.
        if keep.is_empty() || split.is_empty() || separation <= 2.0 * spread {
            if let Some(cl) = self.clusters.get_mut(cluster) {
                cl.centroid = parent_centroid;
            }
            return;
        }
        if let Some(cl) = self.clusters.get_mut(cluster) {
            cl.members = keep;
            cl.centroid = keep_centroid;
        }
        let new_cluster = self.clusters.len();
        for &slot in &split {
            self.record(slot, new_cluster);
        }
        self.clusters.push(Cluster {
            centroid: split_centroid,
            members: split,
            stale: 0,
        });
    }

    /// Point `slot` at `cluster` in the sorted map (insert or overwrite).
    fn record(&mut self, slot: usize, cluster: usize) {
        match self.slot_cluster.binary_search_by_key(&slot, |&(s, _)| s) {
            Ok(i) => {
                if let Some(entry) = self.slot_cluster.get_mut(i) {
                    entry.1 = cluster;
                }
            }
            Err(i) => self.slot_cluster.insert(i, (slot, cluster)),
        }
    }
}

/// Exact mean of the member vectors (zeros when empty).
fn mean_of(index: &SimIndex, members: &[usize], dim: usize) -> Vec<f64> {
    let mut mean = vec![0.0; dim];
    let mut count = 0usize;
    for &slot in members {
        if let Some(v) = index.vector(slot) {
            count += 1;
            for (m, &x) in mean.iter_mut().zip(v) {
                *m += x;
            }
        }
    }
    if count > 0 {
        for m in &mut mean {
            *m /= count as f64;
        }
    }
    mean
}

/// Max member distance to `centroid` (0 when empty).
fn radius_of(index: &SimIndex, members: &[usize], centroid: &[f64]) -> f64 {
    members
        .iter()
        .filter_map(|&slot| index.vector(slot))
        .map(|v| dist(v, centroid))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(set: &ClusterSet, index: &SimIndex) {
        let mut seen: Vec<usize> = (0..set.len())
            .flat_map(|c| set.members(c).to_vec())
            .collect();
        seen.sort_unstable();
        let expect: Vec<usize> = (0..index.len()).collect();
        assert_eq!(seen, expect, "members must partition the assigned slots");
        for slot in 0..index.len() {
            let c = set.cluster_of(slot).expect("assigned");
            assert!(set.members(c).contains(&slot));
        }
    }

    #[test]
    fn two_families_form_two_clusters() {
        let mut index = SimIndex::new(2);
        let mut set = ClusterSet::new(2, ClusterConfig::default());
        for i in 0..8 {
            let base = if i % 2 == 0 { 0.0 } else { 10.0 };
            let v = [base + (i as f64) * 0.01, base];
            let (slot, _) = index.insert(&format!("k{i}"), &v).expect("insert");
            set.assign(&index, slot);
        }
        assert_eq!(set.len(), 2);
        assert_partition(&set, &index);
    }

    #[test]
    fn staleness_triggers_local_recluster_and_splits() {
        let mut index = SimIndex::new(1);
        let mut set = ClusterSet::new(
            1,
            ClusterConfig {
                spawn_radius: 100.0, // everything joins one cluster
                staleness_limit: 8,
                local_cap: 256,
            },
        );
        // Two tight groups, far apart, fed into one over-broad cluster:
        // the re-cluster must split them.
        for i in 0..12 {
            let v = [if i % 2 == 0 { 0.0 } else { 50.0 } + (i as f64) * 0.001];
            let (slot, _) = index.insert(&format!("k{i}"), &v).expect("insert");
            set.assign(&index, slot);
        }
        assert!(set.reclusters() >= 1, "staleness never tripped");
        assert_eq!(set.len(), 2, "re-cluster should split the two families");
        assert_partition(&set, &index);
    }

    #[test]
    fn recluster_keeps_tight_cluster_whole() {
        let mut index = SimIndex::new(1);
        let mut set = ClusterSet::new(
            1,
            ClusterConfig {
                spawn_radius: 100.0,
                staleness_limit: 8,
                local_cap: 256,
            },
        );
        for i in 0..10 {
            let v = [(i as f64) * 0.001];
            let (slot, _) = index.insert(&format!("k{i}"), &v).expect("insert");
            set.assign(&index, slot);
        }
        assert!(set.reclusters() >= 1);
        assert_eq!(set.len(), 1, "a tight family must not be split");
        assert_partition(&set, &index);
    }

    #[test]
    fn assign_is_idempotent_per_slot() {
        let mut index = SimIndex::new(2);
        let mut set = ClusterSet::new(2, ClusterConfig::default());
        let (slot, _) = index.insert("a", &[1.0, 1.0]).expect("insert");
        let first = set.assign(&index, slot);
        let again = set.assign(&index, slot);
        assert!(first.spawned);
        assert_eq!(again.cluster, first.cluster);
        assert!(!again.spawned && !again.reclustered);
        assert_eq!(set.assigned(), 1);
    }

    #[test]
    fn oversized_cluster_refreshes_centroid_without_ward() {
        let mut index = SimIndex::new(1);
        let mut set = ClusterSet::new(
            1,
            ClusterConfig {
                spawn_radius: 1000.0,
                staleness_limit: 4,
                local_cap: 3, // force the cheap path
            },
        );
        for i in 0..6 {
            let (slot, _) = index.insert(&format!("k{i}"), &[i as f64]).expect("insert");
            set.assign(&index, slot);
        }
        assert!(set.reclusters() >= 1);
        assert_eq!(set.len(), 1);
        assert_partition(&set, &index);
    }
}
