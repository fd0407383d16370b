//! The named device catalog.
//!
//! Every device the model can simulate is registered here under a stable
//! string id. The id — not the marketing name — is the unit of currency
//! across the stack: profile stores key their on-disk layout on it, the
//! serving tier resolves URL path segments against it, and the gateway's
//! capability map routes `(device, scale, workload)` requests only to
//! backends that model the id. Renaming an id is a breaking change; add a
//! new entry instead.
//!
//! Each entry also carries a per-device revision, bumped whenever that
//! device's descriptor changes without a global [`MODEL_VERSION`] bump.
//! Stored profile records are stamped with both, folded into one number by
//! [`CatalogEntry::record_version`] — the one function that decides which
//! record is current — so retuning one device invalidates only that
//! device's stored profiles.

use crate::device::Device;
use crate::MODEL_VERSION;

/// One catalog row: a stable id, a per-device descriptor revision, and the
/// preset constructor.
#[derive(Debug, Clone, Copy)]
pub struct CatalogEntry {
    /// Stable lowercase id, e.g. `"rtx-3080"`. Appears in URLs and on-disk
    /// store paths; never renamed.
    pub id: &'static str,
    /// Per-device descriptor revision; bumped when this device's parameters
    /// change. Combines with the global [`MODEL_VERSION`] into
    /// [`record_version`](Self::record_version).
    pub rev: u32,
    /// Preset constructor for the descriptor.
    pub build: fn() -> Device,
}

impl CatalogEntry {
    /// Build this entry's device descriptor.
    #[must_use]
    pub fn device(&self) -> Device {
        (self.build)()
    }

    /// Human-readable version tag (the `/v1/devices` column): the global
    /// model version plus this device's descriptor revision, e.g. `"2.1"`.
    #[must_use]
    pub fn store_version(&self) -> String {
        format!("{MODEL_VERSION}.{}", self.rev)
    }

    /// The version stamped on this device's profile records in the durable
    /// store, and the only one a reader accepts as current: the global
    /// model version and this device's revision folded into one `u32`
    /// (e.g. `2001`). A `MODEL_VERSION` bump invalidates every device's
    /// records, a `rev` bump only this device's.
    #[must_use]
    pub fn record_version(&self) -> u32 {
        MODEL_VERSION * 1000 + self.rev
    }
}

/// Every modeled device, in catalog order. The order is part of the public
/// surface: `/v1/devices` pages and default fleet assignments iterate it.
pub const CATALOG: &[CatalogEntry] = &[
    CatalogEntry {
        id: "rtx-3080",
        rev: 1,
        build: Device::rtx3080,
    },
    CatalogEntry {
        id: "rtx-3060",
        rev: 1,
        build: Device::rtx3060,
    },
    CatalogEntry {
        id: "rtx-2080-ti",
        rev: 1,
        build: Device::rtx2080ti,
    },
    CatalogEntry {
        id: "a100",
        rev: 1,
        build: Device::a100,
    },
    CatalogEntry {
        id: "gtx-1080",
        rev: 1,
        build: Device::gtx1080,
    },
    CatalogEntry {
        id: "uhd-630",
        rev: 1,
        build: Device::uhd630,
    },
];

/// Look up a catalog entry by id (ASCII case-insensitive).
#[must_use]
pub fn by_id(id: &str) -> Option<&'static CatalogEntry> {
    CATALOG
        .iter()
        .find(|entry| entry.id.eq_ignore_ascii_case(id))
}

/// All catalog ids, in catalog order.
#[must_use]
pub fn device_ids() -> Vec<&'static str> {
    CATALOG.iter().map(|entry| entry.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_lowercase_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for entry in CATALOG {
            assert!(seen.insert(entry.id), "duplicate id {}", entry.id);
            assert_eq!(entry.id, entry.id.to_ascii_lowercase());
            assert!(entry
                .id
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
        }
        // The founding ids never disappear.
        for id in ["rtx-3080", "rtx-3060", "uhd-630", "rtx-2080-ti"] {
            assert!(by_id(id).is_some(), "{id} missing from catalog");
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_rejects_unknowns() {
        assert_eq!(by_id("RTX-3080").map(|e| e.id), Some("rtx-3080"));
        assert!(by_id("rtx-9090").is_none());
        assert!(by_id("").is_none());
    }

    #[test]
    fn entries_build_their_named_device() {
        for entry in CATALOG {
            let device = entry.device();
            assert!(device.peak_gips() > 0.0, "{}", entry.id);
        }
    }

    #[test]
    fn store_version_combines_global_and_per_device() {
        let entry = by_id("rtx-3080").expect("catalog entry");
        assert_eq!(entry.store_version(), format!("{MODEL_VERSION}.1"));
        assert_eq!(entry.record_version(), MODEL_VERSION * 1000 + 1);
    }
}
