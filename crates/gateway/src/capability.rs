//! Per-backend modeled-device capability map.
//!
//! Each `cactus-serve` backend advertises the catalog devices it models on
//! `/v1/healthz` (`ok\ndevices a b c\n`). The gateway records that set here
//! — once synchronously at startup and again on every successful active
//! probe — and the router consults it so that a request for device `d` is
//! only ever routed to, failed over to, hedged against, or replicated onto
//! a backend that models `d`.
//!
//! A backend whose set has never been observed (it was down at startup and
//! probing is disabled) is treated **optimistically** as capable of
//! everything: routing it a request it cannot serve yields a well-formed
//! `404` envelope from the backend itself, whereas withholding traffic from
//! a capable-but-unobserved backend would be an availability loss.

use std::collections::BTreeSet;

use cactus_obs::lock::{rank, RankedMutex};

/// Which catalog devices each backend slot models. `None` = never observed.
#[derive(Debug)]
pub struct CapabilityMap {
    sets: RankedMutex<Vec<Option<BTreeSet<String>>>>,
}

impl CapabilityMap {
    /// An all-unknown map for `n` backends.
    #[must_use]
    pub(crate) fn new(n: usize) -> Self {
        Self {
            sets: RankedMutex::new(rank::CAPABILITY, "gateway.capability", vec![None; n]),
        }
    }

    /// Record the advertised device set for backend `i` (idempotent).
    pub(crate) fn record(&self, i: usize, devices: Vec<String>) {
        let mut sets = self.sets.lock();
        if let Some(slot) = sets.get_mut(i) {
            *slot = Some(devices.into_iter().collect());
        }
    }

    /// Does backend `i` model `device`? Unknown backends answer `true`.
    #[must_use]
    pub(crate) fn capable(&self, i: usize, device: &str) -> bool {
        let sets = self.sets.lock();
        match sets.get(i) {
            Some(Some(set)) => set.contains(device),
            _ => true,
        }
    }

    /// The observed device set for backend `i`, sorted; `None` if unknown.
    #[must_use]
    pub fn devices(&self, i: usize) -> Option<Vec<String>> {
        let sets = self.sets.lock();
        sets.get(i)?.as_ref().map(|s| s.iter().cloned().collect())
    }

    /// Union of every observed set — what the fleet as a whole can serve.
    /// `None` when no backend has been observed yet.
    #[must_use]
    pub(crate) fn fleet_devices(&self) -> Option<Vec<String>> {
        let sets = self.sets.lock();
        let mut union = BTreeSet::new();
        let mut observed = false;
        for set in sets.iter().flatten() {
            observed = true;
            union.extend(set.iter().cloned());
        }
        observed.then(|| union.into_iter().collect())
    }
}

/// Extract the catalog device id a request targets, if the path addresses
/// one: triple endpoints (`/v1/<ep>/<device>/<scale>/<workload>`), the
/// similarity endpoint (`/v1/similar?device=...`), and store record pushes
/// (`/v1/store/record/<device>/<scale>/<workload>`). Borrowed from
/// `target`: the gateway parses it once per forward and allocates nothing.
#[must_use]
pub(crate) fn device_for_target(target: &str) -> Option<&str> {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    // Seven slots tell every shape below from a longer path.
    let mut segs = path.trim_matches('/').split('/');
    let segs: [Option<&str>; 7] = std::array::from_fn(|_| segs.next());
    match segs {
        [Some("v1"), Some("similar"), None, ..] => query?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == "device" && !v.is_empty()).then_some(v)
        }),
        [Some("v1"), Some("store"), Some("record"), Some(device), Some(_), Some(_), None] => {
            Some(device)
        }
        [Some("v1"), Some(ep), Some(device), Some(_), Some(_), None, None]
            if ep != "store" && ep != "compare" =>
        {
            Some(device)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_backends_are_optimistically_capable() {
        let map = CapabilityMap::new(2);
        assert!(map.capable(0, "rtx-3080"));
        assert!(map.capable(1, "uhd-630"));
        assert_eq!(map.devices(0), None);
        assert_eq!(map.fleet_devices(), None);
    }

    #[test]
    fn recorded_sets_gate_capability() {
        let map = CapabilityMap::new(3);
        map.record(0, vec!["rtx-3080".into(), "a100".into()]);
        map.record(1, vec!["uhd-630".into()]);
        assert!(map.capable(0, "rtx-3080"));
        assert!(!map.capable(0, "uhd-630"));
        assert!(map.capable(1, "uhd-630"));
        assert!(map.capable(2, "uhd-630"), "slot 2 is still unknown");
        assert_eq!(
            map.devices(0),
            Some(vec!["a100".to_owned(), "rtx-3080".to_owned()])
        );
        assert_eq!(
            map.fleet_devices(),
            Some(vec![
                "a100".to_owned(),
                "rtx-3080".to_owned(),
                "uhd-630".to_owned()
            ])
        );
    }

    #[test]
    fn record_replaces_and_ignores_out_of_range() {
        let map = CapabilityMap::new(1);
        map.record(0, vec!["a100".into()]);
        map.record(0, vec!["gtx-1080".into()]);
        assert!(!map.capable(0, "a100"));
        assert!(map.capable(0, "gtx-1080"));
        map.record(7, vec!["a100".into()]); // out of range: no panic
    }

    #[test]
    fn device_extraction_covers_the_routed_surface() {
        for (target, want) in [
            ("/v1/profile/rtx-3080/profile/GMS", Some("rtx-3080")),
            ("/v1/roofline/uhd-630/tiny/BFS", Some("uhd-630")),
            ("/v1/kernels/a100/profile/GMS", Some("a100")),
            ("/v1/dominant/a100/profile/GMS", Some("a100")),
            ("/v1/store/record/rtx-3060/tiny/GMS", Some("rtx-3060")),
            ("/v1/similar?device=rtx-3080&scale=tiny", Some("rtx-3080")),
            ("/v1/similar?scale=tiny", None),
            ("/v1/compare/profile/GMS?devices=a,b", None),
            ("/v1/healthz", None),
            ("/v1/devices", None),
            ("/v1/store/manifest", None),
        ] {
            assert_eq!(device_for_target(target), want, "target {target}");
        }
    }
}
