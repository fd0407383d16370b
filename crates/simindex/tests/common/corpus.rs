//! The clustered corpus and the exactness check that `tests/index_props.rs`
//! (10 k vectors) and `benches/simindex.rs` (100 k vectors) both state the
//! pruning contract on. Each includes this file with `#[path]`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cactus_simindex::SimIndex;

/// Dimensions of a corpus vector.
pub const DIM: usize = 6;
/// Behavioral families in the corpus — mirrors the paper's finding that
/// real workloads concentrate into a handful of clusters.
const FAMILIES: usize = 24;

/// Deterministic clustered corpus: `FAMILIES` centers in a box, each
/// vector a center plus small uniform jitter.
pub fn corpus(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f64>> = (0..FAMILIES)
        .map(|_| (0..DIM).map(|_| rng.gen_range(-4.0..4.0)).collect())
        .collect();
    (0..n)
        .map(|i| {
            centers[i % FAMILIES]
                .iter()
                .map(|&c| c + rng.gen_range(-0.25..0.25))
                .collect()
        })
        .collect()
}

/// An index holding `points` from empty, under ids `k000000`, `k000001`, ….
pub fn build(points: &[Vec<f64>]) -> SimIndex {
    let mut index = SimIndex::new(DIM);
    for (i, v) in points.iter().enumerate() {
        index.insert(&format!("k{i:06}"), v).expect("insert");
    }
    index
}

/// Search every query for its `k` nearest neighbors, asserting that the
/// pruned search returns exactly the brute-force result and that every
/// stored vector is either probed or pruned. Returns the fraction of the
/// store probed, averaged over the queries.
pub fn exact_probe_fraction(index: &mut SimIndex, queries: &[Vec<f64>], k: usize) -> f64 {
    let mut probed = 0usize;
    for q in queries {
        let pruned = index.search(q, k).expect("search");
        let brute = index.brute_force(q, k).expect("brute");
        assert_eq!(pruned.neighbors, brute, "pruned search must be exact");
        assert_eq!(
            pruned.probed + pruned.pruned,
            index.len(),
            "every stored vector is either probed or pruned"
        );
        probed += pruned.probed;
    }
    probed as f64 / (queries.len() * index.len()) as f64
}
