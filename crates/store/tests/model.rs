//! Model-based property test: random append/get/compact/reopen
//! interleavings over `cactus-store` behave exactly like a `HashMap`.
//!
//! Each case drives one store through a random op sequence against a
//! `HashMap<String, (u32, Vec<u8>)>` model:
//!
//! * `Append(key, version, value)` — both sides record the new value.
//! * `Get(key)` — the store must return exactly the model's entry.
//! * `Compact` — must be invisible to reads.
//! * `Reopen` — drop the store, recover from disk, and keep going; the
//!   rebuilt index must agree with the model (durability of every
//!   admitted append).
//!
//! Small segment thresholds force frequent rotation so the sequences
//! cross many segment boundaries, and the final sweep checks every key
//! ever touched plus the manifest entry count.

use proptest::prelude::*;

use cactus_store::{Store, StoreOptions};

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Clone)]
enum Op {
    Append(u32, u32, u32),
    Get(u32),
    Compact,
    Reopen,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..12, 0u32..4, 0u32..200).prop_map(|(k, v, val)| Op::Append(k, v, val)),
        (0u32..14).prop_map(Op::Get),
        Just(Op::Compact),
        Just(Op::Reopen),
    ]
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn case_dir() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cactus-store-model-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn key_of(k: u32) -> String {
    format!("dev/scale/workload-{k}")
}

fn value_of(k: u32, version: u32, val: u32) -> Vec<u8> {
    // Vary the length so records straddle rotation thresholds.
    let mut v = format!("key={k} version={version} payload=").into_bytes();
    v.extend(std::iter::repeat_n(val as u8, val as usize));
    v
}

fn opts() -> StoreOptions {
    StoreOptions {
        segment_max_bytes: 512,
        compact_min_dead_bytes: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_interleavings_match_a_hashmap_model(
        ops in prop::collection::vec(op(), 1..120),
    ) {
        let dir = case_dir();
        let mut store = Store::open_with(&dir, opts()).expect("open");
        let mut model: HashMap<String, (u32, Vec<u8>)> = HashMap::new();

        for o in &ops {
            match o {
                Op::Append(k, version, val) => {
                    let key = key_of(*k);
                    let value = value_of(*k, *version, *val);
                    store.append(&key, *version, &value).expect("append");
                    model.insert(key, (*version, value));
                }
                Op::Get(k) => {
                    let key = key_of(*k);
                    let got = store.get(&key).expect("get");
                    let want = model.get(&key);
                    prop_assert_eq!(
                        got.is_some(),
                        want.is_some(),
                        "store/model presence diverged on {}",
                        key
                    );
                    if let (Some(rec), Some((version, value))) = (got, want) {
                        prop_assert_eq!(rec.version, *version);
                        prop_assert_eq!(&rec.value, value);
                    }
                }
                Op::Compact => {
                    store.compact().expect("compact");
                }
                Op::Reopen => {
                    drop(store);
                    store = Store::open_with(&dir, opts()).expect("reopen");
                }
            }
        }

        // Final sweep: everything in the model is readable, the live
        // record count and manifest agree with the model's size.
        for (key, (version, value)) in &model {
            let rec = store.get(key).expect("get").expect("model key present");
            prop_assert_eq!(rec.version, *version);
            prop_assert_eq!(&rec.value, value);
        }
        let stats = store.stats();
        prop_assert_eq!(stats.live_records as usize, model.len());
        prop_assert_eq!(store.entries().len(), model.len());

        // And once more through recovery, so every case ends with a
        // durability check.
        drop(store);
        let store = Store::open_with(&dir, opts()).expect("final reopen");
        for (key, (version, value)) in &model {
            let rec = store.get(key).expect("get").expect("durable");
            prop_assert_eq!(rec.version, *version);
            prop_assert_eq!(&rec.value, value);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
