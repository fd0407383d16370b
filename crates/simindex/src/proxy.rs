//! Greedy proxy-subset selection — "which benchmarks do you actually need
//! to run".
//!
//! Given the current partition, pick a small set of stored kernels such
//! that every cluster centroid has a selected kernel within `budget`. This
//! is set cover (NP-hard); the classic greedy — repeatedly take the kernel
//! covering the most still-uncovered centroids, ties broken by id — gives
//! the standard ln(n) approximation and is deterministic. Candidates are
//! all stored kernels while the index is small; past `MEDOID_CUTOFF`
//! only each cluster's medoid is considered, which keeps selection
//! O(clusters²) instead of O(n·clusters) on a large index. A centroid no
//! candidate reaches within the budget falls back to its own cluster
//! medoid, so the returned set always covers every cluster.

use crate::cluster::ClusterSet;
use crate::index::{dist, SimIndex};

/// Index size above which only cluster medoids are candidates.
const MEDOID_CUTOFF: usize = 2048;

/// One selected proxy kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Proxy {
    /// Stored profile id.
    pub id: String,
    /// Slot in the index.
    pub slot: usize,
    /// Clusters this kernel covers (centroid within budget, or its own
    /// cluster as fallback).
    pub covers: Vec<usize>,
}

/// Select a proxy subset covering every cluster centroid within `budget`.
/// Deterministic: candidate order and tie-breaks depend only on the stored
/// ids.
#[must_use]
pub fn select(index: &SimIndex, clusters: &ClusterSet, budget: f64) -> Vec<Proxy> {
    let k = clusters.len();
    if k == 0 {
        return Vec::new();
    }

    let candidates: Vec<usize> = if index.len() <= MEDOID_CUTOFF {
        (0..index.len()).collect()
    } else {
        (0..k).filter_map(|c| medoid(index, clusters, c)).collect()
    };

    // coverage[cand] = clusters within budget of that candidate.
    let coverage: Vec<Vec<usize>> = candidates
        .iter()
        .map(|&slot| {
            let Some(v) = index.vector(slot) else {
                return Vec::new();
            };
            (0..k)
                .filter(|&c| dist(v, clusters.centroid(c)) <= budget)
                .collect()
        })
        .collect();

    let mut covered = vec![false; k];
    let mut picked: Vec<Proxy> = Vec::new();
    loop {
        // Greedy step: the candidate covering the most uncovered clusters.
        let best = candidates
            .iter()
            .zip(&coverage)
            .map(|(&slot, covers)| {
                let gain = covers
                    .iter()
                    .filter(|&&c| !covered.get(c).copied().unwrap_or(true))
                    .count();
                (gain, slot, covers)
            })
            .filter(|&(gain, _, _)| gain > 0)
            .max_by(|a, b| {
                a.0.cmp(&b.0)
                    .then_with(|| id_of(index, b.1).cmp(id_of(index, a.1)))
            });
        let Some((_, slot, covers)) = best else {
            break;
        };
        let newly: Vec<usize> = covers
            .iter()
            .copied()
            .filter(|&c| !covered.get(c).copied().unwrap_or(true))
            .collect();
        for &c in &newly {
            if let Some(flag) = covered.get_mut(c) {
                *flag = true;
            }
        }
        picked.push(Proxy {
            id: id_of(index, slot).to_owned(),
            slot,
            covers: newly,
        });
    }

    // Budget-unreachable clusters fall back to their own medoid so the
    // subset is always a full cover.
    for c in 0..k {
        if covered.get(c).copied().unwrap_or(true) {
            continue;
        }
        if let Some(slot) = medoid(index, clusters, c) {
            picked.push(Proxy {
                id: id_of(index, slot).to_owned(),
                slot,
                covers: vec![c],
            });
        }
    }
    picked
}

/// The member closest to its cluster centroid, ties by id.
fn medoid(index: &SimIndex, clusters: &ClusterSet, c: usize) -> Option<usize> {
    let centroid = clusters.centroid(c);
    clusters
        .members(c)
        .iter()
        .filter_map(|&slot| index.vector(slot).map(|v| (slot, dist(v, centroid))))
        .min_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then_with(|| id_of(index, a.0).cmp(id_of(index, b.0)))
        })
        .map(|(slot, _)| slot)
}

fn id_of(index: &SimIndex, slot: usize) -> &str {
    index.id(slot).unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    fn build(points: &[(&str, f64, f64)]) -> (SimIndex, ClusterSet) {
        let mut index = SimIndex::new(2);
        let mut clusters = ClusterSet::new(2, ClusterConfig::default());
        for &(id, x, y) in points {
            let (slot, _) = index.insert(id, &[x, y]).expect("insert");
            clusters.assign(&index, slot);
        }
        (index, clusters)
    }

    #[test]
    fn one_central_kernel_covers_nearby_clusters() {
        // Three families close together; a generous budget lets one kernel
        // proxy for all of them.
        let (index, clusters) = build(&[
            ("a", 0.0, 0.0),
            ("b", 2.0, 0.0),
            ("c", 0.0, 2.0),
            ("mid", 1.0, 1.0),
        ]);
        let picked = select(&index, &clusters, 10.0);
        assert_eq!(picked.len(), 1);
        let total: usize = picked.iter().map(|p| p.covers.len()).sum();
        assert_eq!(total, clusters.len());
    }

    #[test]
    fn tight_budget_needs_one_proxy_per_cluster() {
        let (index, clusters) = build(&[("a", 0.0, 0.0), ("b", 10.0, 0.0), ("c", 0.0, 10.0)]);
        assert_eq!(clusters.len(), 3);
        let picked = select(&index, &clusters, 0.5);
        assert_eq!(picked.len(), 3);
        let mut covered: Vec<usize> = picked.iter().flat_map(|p| p.covers.clone()).collect();
        covered.sort_unstable();
        assert_eq!(covered, vec![0, 1, 2], "every cluster covered exactly once");
    }

    #[test]
    fn impossible_budget_falls_back_to_medoids() {
        let (index, clusters) = build(&[("a", 0.0, 0.0), ("b", 10.0, 0.0)]);
        let picked = select(&index, &clusters, 0.0);
        // Budget 0 still covers: each cluster's medoid sits on (or defines)
        // its centroid for singleton clusters.
        let mut covered: Vec<usize> = picked.iter().flat_map(|p| p.covers.clone()).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..clusters.len()).collect::<Vec<_>>());
    }

    #[test]
    fn selection_is_deterministic() {
        let pts = [
            ("a", 0.0, 0.0),
            ("b", 0.1, 0.0),
            ("c", 5.0, 5.0),
            ("d", 5.1, 5.0),
        ];
        let (i1, c1) = build(&pts);
        let (i2, c2) = build(&pts);
        assert_eq!(select(&i1, &c1, 1.0), select(&i2, &c2, 1.0));
    }

    #[test]
    fn empty_partition_selects_nothing() {
        let index = SimIndex::new(2);
        let clusters = ClusterSet::new(2, ClusterConfig::default());
        assert!(select(&index, &clusters, 1.0).is_empty());
    }
}
