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
}
