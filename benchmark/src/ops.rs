//! The fixed sets of triples and paths the workloads are made of. The seed
//! permutes op order and picks views; it never changes the set of triples.
//! On the simulating workloads the order is drawn afresh for every pass: a
//! heavy op leaves cold caches (and, through the gateway, a hedged copy of
//! itself still running) behind, and an op that followed it in every pass
//! would have that in its floor for one seed and not for the next.

use cactus_core::SuiteScale;
use cactus_serve::routes::TRIPLE_ENDPOINTS;

use crate::estimator::{permutation, SplitMix64};

/// `GET`s per `hot-read` pass. Short passes, many of them: what a run can do
/// against a machine that is slow for a minute at a time is give every op as
/// many chances at a fast moment as the run length allows.
pub const HOT_OPS: usize = 2048;

/// One `(device, scale, workload)` triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Triple {
    pub device: &'static str,
    pub scale: SuiteScale,
    pub workload: String,
}

#[must_use]
pub fn scale_slug(scale: SuiteScale) -> &'static str {
    match scale {
        SuiteScale::Tiny => "tiny",
        SuiteScale::Small => "small",
        SuiteScale::Profile => "profile",
    }
}

impl Triple {
    /// The store key and the tail of every route of this triple.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}",
            self.device,
            scale_slug(self.scale),
            self.workload
        )
    }

    #[must_use]
    pub fn path(&self, view: &str) -> String {
        format!("/v1/{view}/{}", self.key())
    }
}

fn devices() -> Vec<&'static str> {
    cactus_gpu::catalog::device_ids()
}

fn cactus_at(device: &'static str, scale: SuiteScale) -> impl Iterator<Item = Triple> {
    cactus_core::suite().into_iter().map(move |w| Triple {
        device,
        scale,
        workload: w.abbr.to_owned(),
    })
}

/// 10 Cactus × 6 devices at `tiny`: `hot-read`'s 60 triples.
#[must_use]
pub fn hot_triples() -> Vec<Triple> {
    devices()
        .into_iter()
        .flat_map(|d| cactus_at(d, SuiteScale::Tiny))
        .collect()
}

/// The 32 Parboil/Rodinia/Tango benchmarks at `tiny` on `device`.
fn comparison_at(device: &'static str) -> impl Iterator<Item = Triple> {
    cactus_suites::all().into_iter().map(move |b| Triple {
        device,
        scale: SuiteScale::Tiny,
        workload: b.name.to_owned(),
    })
}

/// `store-read`'s set: `hot-read`'s triples plus the comparison benchmarks on
/// every device, 252 triples and so 1008 paths, ~336 per backend — beyond each
/// backend's 256-entry LRU.
#[must_use]
pub fn store_triples() -> Vec<Triple> {
    let mut out = hot_triples();
    out.extend(devices().into_iter().flat_map(comparison_at));
    out
}

/// The devices of the simulated set: the catalog's largest part, the paper's,
/// and its smallest. The host physics of a workload is the same on every
/// device, so each further device buys another sample of the same 90 ms step
/// at the price of a pass a third longer, and a run gets its steadiness from
/// the number of passes.
pub const SIM_DEVICES: [&str; 3] = ["a100", "rtx-3080", "uhd-630"];

/// The simulated set of `cold-sweep` and `suite-local`: Cactus and the
/// comparison benchmarks at `tiny` on [`SIM_DEVICES`], 126 triples — 30 where
/// host derivation is nearly all of the cost and 96 that simulate in
/// microseconds and so cost what the path around a simulation costs. The
/// `small` scale is left out: it doubles a pass.
#[must_use]
pub fn sim_triples() -> Vec<Triple> {
    SIM_DEVICES
        .into_iter()
        .flat_map(|d| cactus_at(d, SuiteScale::Tiny).chain(comparison_at(d)))
        .collect()
}

/// Every view of every triple, triple-major.
#[must_use]
pub fn all_views(triples: &[Triple]) -> Vec<String> {
    triples
        .iter()
        .flat_map(|t| TRIPLE_ENDPOINTS.iter().map(|v| t.path(v)))
        .collect()
}

/// `hot-read`: [`HOT_OPS`] path indices — the path set repeated to length,
/// then permuted — so every seed issues the same multiset of requests.
#[must_use]
pub fn hot_ops(paths: usize, seed: u64) -> Vec<usize> {
    let order = permutation(HOT_OPS, &mut SplitMix64::new(seed));
    order.into_iter().map(|i| i % paths).collect()
}

/// `store-read`: one seeded order over the path set, the same in every pass,
/// so a path's reuse distance on its backend is that backend's whole share
/// of the set.
#[must_use]
pub fn store_ops(paths: usize, seed: u64) -> Vec<usize> {
    permutation(paths, &mut SplitMix64::new(seed))
}

/// The shipped workload definitions, by file stem.
pub const WIR_DEFS: [(&str, &str); 4] = [
    ("gms", include_str!("../../crates/wir/defs/gms.wir")),
    ("gst", include_str!("../../crates/wir/defs/gst.wir")),
    ("dcg", include_str!("../../crates/wir/defs/dcg.wir")),
    ("gnn", include_str!("../../crates/wir/defs/gnn.wir")),
];

/// The definition `cold-sweep` submits.
#[must_use]
pub fn gnn_source() -> &'static str {
    WIR_DEFS[3].1
}

/// The submitted `gnn` workload on [`SIM_DEVICES`] at `tiny` and `small`.
#[must_use]
pub fn gnn_triples() -> Vec<Triple> {
    SIM_DEVICES
        .into_iter()
        .flat_map(|device| {
            [SuiteScale::Tiny, SuiteScale::Small].map(|scale| Triple {
                device,
                scale,
                workload: "gnn".to_owned(),
            })
        })
        .collect()
}

/// One seeded view per op.
#[must_use]
pub fn views(n: usize, rng: &mut SplitMix64) -> Vec<&'static str> {
    (0..n)
        .map(|_| TRIPLE_ENDPOINTS[rng.below(TRIPLE_ENDPOINTS.len())])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_sizes_are_the_documented_ones() {
        assert_eq!(hot_triples().len(), 60);
        assert_eq!(all_views(&hot_triples()).len(), 240);
        assert_eq!(store_triples().len(), 252);
        assert_eq!(all_views(&store_triples()).len(), 1008);
        assert_eq!(sim_triples().len(), 126);
        assert_eq!(gnn_triples().len(), 6);
        for d in SIM_DEVICES {
            assert!(devices().contains(&d), "{d} is in the catalog");
        }
    }

    #[test]
    fn seeds_permute_ops_but_never_change_the_multiset() {
        let mut one = hot_ops(240, 1);
        let mut two = hot_ops(240, 2);
        assert_ne!(one, two);
        one.sort_unstable();
        two.sort_unstable();
        assert_eq!(one, two);

        let mut cycle = store_ops(1008, 7);
        cycle.sort_unstable();
        assert_eq!(
            cycle,
            (0..1008).collect::<Vec<_>>(),
            "each path once per pass"
        );
    }

    #[test]
    fn store_key_and_routes_agree_with_the_served_shape() {
        let t = &hot_triples()[0];
        assert_eq!(t.key(), "rtx-3080/tiny/GMS");
        assert_eq!(t.path("kernels"), "/v1/kernels/rtx-3080/tiny/GMS");
    }
}
