//! Property tests over the similarity index — the exactness contract.
//!
//! * **Exactness** — across random dimensions, population sizes (spanning
//!   several cell-partition rebuilds), and k, the pruned coarse-cell
//!   search returns *exactly* the brute-force k-NN set: same ids, same
//!   order, bit-identical distances. Coordinates are drawn from a coarse
//!   grid so exact distance ties are common, exercising the deterministic
//!   `(distance, id)` tie-break.
//! * **Conservation** — an interleaved insert → search → assign
//!   (re-cluster) workload never loses or duplicates a stored profile id:
//!   the index keeps one slot per id and the cluster member lists remain
//!   an exact partition of the assigned slots.
//! * **Pruning budget** — on the bench's clustered corpus at 10 000
//!   vectors the exact search probes under 25% of the store (the 100 k
//!   scale of the same contract is `benches/simindex.rs`).

use proptest::prelude::*;

use cactus_simindex::{ClusterConfig, ClusterSet, SimIndex};

#[path = "common/corpus.rs"]
mod corpus;

/// A coarse-grid coordinate: multiples of 0.25 in [-2, 2], so distinct
/// points frequently sit at exactly equal distances from a query.
fn grid_coord() -> impl Strategy<Value = f64> {
    (-8i32..9).prop_map(|ticks| f64::from(ticks) * 0.25)
}

fn grid_vector(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(grid_coord(), dim..dim + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pruned_search_equals_brute_force(
        dim in 1usize..7,
        seeds in prop::collection::vec(prop::collection::vec(-8i32..9, 1..7), 20..220),
        queries in prop::collection::vec(prop::collection::vec(-8i32..9, 1..7), 1..12),
        k in 1usize..12,
    ) {
        let mut index = SimIndex::new(dim);
        for (i, seed) in seeds.iter().enumerate() {
            let v: Vec<f64> = (0..dim)
                .map(|d| f64::from(seed[d % seed.len()] + (d as i32)) * 0.25)
                .collect();
            index.insert(&format!("id{i:05}"), &v).expect("insert");
        }
        for (qi, seed) in queries.iter().enumerate() {
            let q: Vec<f64> = (0..dim)
                .map(|d| f64::from(seed[d % seed.len()]) * 0.25)
                .collect();
            let brute = index.brute_force(&q, k).expect("brute");
            let pruned = index.search(&q, k).expect("search");
            prop_assert_eq!(
                &pruned.neighbors, &brute,
                "query {} diverged (dim {}, n {}, k {})", qi, dim, seeds.len(), k
            );
            prop_assert_eq!(pruned.probed + pruned.pruned, index.len());
        }
    }

    #[test]
    fn insert_search_recluster_conserves_ids(
        vectors in prop::collection::vec(grid_vector(3), 1..120),
        staleness_limit in 2u32..10,
        spawn_ticks in 1u32..20,
    ) {
        let mut index = SimIndex::new(3);
        let mut clusters = ClusterSet::new(3, ClusterConfig {
            spawn_radius: f64::from(spawn_ticks) * 0.25,
            staleness_limit,
            local_cap: 64,
        });
        for (i, v) in vectors.iter().enumerate() {
            let id = format!("k{i:04}");
            let (slot, fresh) = index.insert(&id, v).expect("insert");
            prop_assert!(fresh);
            clusters.assign(&index, slot);
            // Interleave searches so pruning runs against partitions of
            // every vintage.
            if i % 7 == 0 {
                let got = index.search(v, 1).expect("search");
                prop_assert_eq!(got.neighbors.first().map(|n| n.dist), Some(0.0));
            }
        }

        // The index holds exactly one slot per inserted id.
        let mut ids: Vec<&str> = index.ids().collect();
        ids.sort_unstable();
        let expect: Vec<String> = (0..vectors.len()).map(|i| format!("k{i:04}")).collect();
        prop_assert_eq!(index.len(), vectors.len());
        prop_assert_eq!(&ids, &expect.iter().map(String::as_str).collect::<Vec<_>>());

        // Cluster member lists partition the assigned slots: every slot in
        // exactly one cluster, none lost, none duplicated.
        let mut members: Vec<usize> = (0..clusters.len())
            .flat_map(|c| clusters.members(c).to_vec())
            .collect();
        members.sort_unstable();
        let slots: Vec<usize> = (0..index.len()).collect();
        prop_assert_eq!(&members, &slots, "cluster members must partition the slots");
        for slot in 0..index.len() {
            let c = clusters.cluster_of(slot).expect("slot assigned");
            prop_assert!(clusters.members(c).contains(&slot));
        }
        prop_assert_eq!(clusters.assigned(), index.len());
    }
}

#[test]
fn pruned_search_stays_exact_within_its_probe_budget_at_10k() {
    let mut index = corpus::build(&corpus::corpus(10_000, 7));
    let queries = corpus::corpus(256, 1312);
    let fraction = corpus::exact_probe_fraction(&mut index, &queries, 10);
    assert!(
        fraction < 0.25,
        "pruned search probed {:.1}% of {} vectors (budget 25%)",
        fraction * 100.0,
        index.len()
    );
}
