//! The similarity index at 100 k vectors. Four floors are printed:
//!
//! * `build-100k` — insert 100 k clustered vectors from empty, including
//!   every doubling repartition along the way.
//! * `query-pruned-100k` — k-NN through the coarse-cell index with
//!   triangle-inequality pruning.
//! * `query-brute-100k` — the same queries scored against every stored
//!   vector (the exactness baseline the pruned path must match).
//! * `insert-incremental` — steady-state inserts of fresh vectors into the
//!   built index (nearest-cell assignment, no rebuild).
//!
//! The contract is asserted, on the 100 000-vector index before anything
//! else is inserted: averaged over the query batch, the pruned search
//! probes fewer than 25% of the stored vectors while returning exactly the
//! brute-force result. The 10 k-vector version of the same contract runs in
//! tier-1 (`tests/index_props.rs`).

use std::hint::black_box;
use std::time::Instant;

#[path = "../tests/common/corpus.rs"]
mod corpus;

use corpus::{build, corpus, exact_probe_fraction};

const N: usize = 100_000;
const K: usize = 10;
const QUERIES: usize = 256;
/// Fresh vectors per timed `insert-incremental` sample.
const INSERT_BATCH: usize = 1024;
const INSERT_SAMPLES: usize = 4;

/// Seconds the fastest of `samples` calls of `routine` took.
fn floor_secs<R>(samples: usize, mut routine: impl FnMut() -> R) -> f64 {
    (0..samples).fold(f64::INFINITY, |floor, _| {
        let start = Instant::now();
        black_box(routine());
        floor.min(start.elapsed().as_secs_f64())
    })
}

fn main() {
    let points = corpus(N, 7);
    let queries = corpus(QUERIES, 1312);
    let per_query = 1e6 / QUERIES as f64;

    let build_s = floor_secs(3, || build(black_box(&points)).len());
    println!("simindex/build-100k          {build_s:>10.3} s");

    let mut index = build(&points);
    let pruned_s = floor_secs(5, || {
        for q in &queries {
            black_box(index.search(black_box(q), K).expect("search"));
        }
    });
    println!(
        "simindex/query-pruned-100k   {:>10.1} us/query",
        pruned_s * per_query
    );
    let brute_s = floor_secs(3, || {
        for q in &queries {
            black_box(index.brute_force(black_box(q), K).expect("brute"));
        }
    });
    println!(
        "simindex/query-brute-100k    {:>10.1} us/query",
        brute_s * per_query
    );

    // The contract: pruned == brute force exactly, probing <25% of the store.
    let before = index.stats();
    let fraction = exact_probe_fraction(&mut index, &queries, K);
    let after = index.stats();
    println!(
        "simindex verification: {} vectors in {} cells | probe fraction {:.2}% \
         | probes {} pruned {} over {} queries",
        after.size,
        after.cells,
        fraction * 100.0,
        after.probes - before.probes,
        after.pruned - before.pruned,
        after.queries - before.queries,
    );
    assert_eq!(after.size, N, "the contract is stated at 100k vectors");
    assert!(
        fraction < 0.25,
        "pruned search probed {:.1}% of {} vectors (budget 25%)",
        fraction * 100.0,
        index.len()
    );

    // Every timed insert is a fresh clustered vector under a fresh id: one
    // batch per sample.
    let fresh = corpus(INSERT_BATCH * INSERT_SAMPLES, 2024);
    let mut batches = fresh.chunks(INSERT_BATCH);
    let mut next_id = N;
    let insert_s = floor_secs(INSERT_SAMPLES, || {
        for v in batches.next().expect("one batch per sample") {
            index
                .insert(&format!("x{next_id:07}"), black_box(v))
                .expect("insert");
            next_id += 1;
        }
    });
    println!(
        "simindex/insert-incremental  {:>10.1} us/insert",
        insert_s * 1e6 / INSERT_BATCH as f64
    );
}
