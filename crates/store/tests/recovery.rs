//! Segment recovery on arbitrary damage: after any truncation or any
//! single-byte change of one segment file, `Store::open` recovers without
//! panicking, and what survives of each segment is a prefix of that
//! segment's appends, byte for byte — never an altered, reordered or
//! invented record. A damaged *sealed* segment loses the valid records
//! after the damage too; the fleet's anti-entropy refills them from a
//! replica.

use proptest::prelude::*;

use cactus_store::{Store, StoreOptions};

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::LazyLock;

/// One append: key, version, value.
type Append = (String, u32, Vec<u8>);

/// Per segment file in id order: its name, its bytes and the appends it
/// holds.
type Segments = Vec<(String, Vec<u8>, Vec<Append>)>;

/// Small segments, so the pristine store spans several of them.
fn opts() -> StoreOptions {
    StoreOptions {
        segment_max_bytes: 300,
        compact_min_dead_bytes: u64::MAX,
    }
}

fn case_dir(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "cactus-store-recovery-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every segment file's name and length, in segment-id order.
fn segment_files(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<(u64, String, u64)> = fs::read_dir(dir.join("segments"))
        .expect("segments dir")
        .filter_map(|e| {
            let e = e.ok()?;
            let name = e.file_name().into_string().ok()?;
            let id = name
                .strip_prefix("seg-")?
                .strip_suffix(".log")?
                .parse()
                .ok()?;
            Some((id, name, e.metadata().ok()?.len()))
        })
        .collect();
    files.sort_unstable();
    files
        .into_iter()
        .map(|(_, name, len)| (name, len))
        .collect()
}

/// The pristine store's segments (found by which file each append grew),
/// kept in memory so every case starts from a fresh copy.
static PRISTINE: LazyLock<Segments> = LazyLock::new(|| {
    let dir = case_dir("pristine");
    let store = Store::open_with(&dir, opts()).expect("open pristine");
    let mut segments: Vec<(String, Vec<Append>)> = Vec::new();
    for i in 0..14u32 {
        let key = format!("rtx-3080/tiny/w{i}");
        // Lengths vary so records straddle the rotation threshold.
        let value: Vec<u8> = (0..(17 * i % 90 + 3)).map(|b| (b * 7 + i) as u8).collect();
        let before = segment_files(&dir);
        store.append(&key, i % 3, &value).expect("append");
        let (grown, _) = segment_files(&dir)
            .into_iter()
            .find(|f| !before.contains(f))
            .expect("one segment grew");
        match segments.last_mut() {
            Some((name, appends)) if *name == grown => appends.push((key, i % 3, value)),
            _ => segments.push((grown, vec![(key, i % 3, value)])),
        }
    }
    drop(store);
    assert!(segments.len() >= 3, "the fixture spans several segments");
    let segments = segments
        .into_iter()
        .map(|(name, appends)| {
            let bytes = fs::read(dir.join("segments").join(&name)).expect("read segment");
            (name, bytes, appends)
        })
        .collect();
    let _ = fs::remove_dir_all(&dir);
    segments
});

/// A store directory holding the pristine segments, `edit`ed.
fn copy_of_pristine(edit: impl Fn(&str, &mut Vec<u8>)) -> PathBuf {
    let dir = case_dir("case");
    fs::create_dir_all(dir.join("segments")).expect("case dir");
    for (name, bytes, _) in PRISTINE.iter() {
        let mut bytes = bytes.clone();
        edit(name, &mut bytes);
        fs::write(dir.join("segments").join(name), bytes).expect("write segment");
    }
    dir
}

#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Cut the segment to `at % (len + 1)` bytes.
    Truncate(usize),
    /// XOR the byte at `at % len` with a nonzero mask.
    Flip(usize, u8),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0usize..4096).prop_map(Damage::Truncate),
        (0usize..4096, 1u32..256).prop_map(|(at, mask)| Damage::Flip(at, mask as u8)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn damaged_segments_recover_to_a_prefix_of_their_appends(
        segment in 0usize..16,
        damage in damage(),
    ) {
        let segments = &*PRISTINE;
        let victim = segments[segment % segments.len()].0.as_str();
        let dir = copy_of_pristine(|name, bytes| {
            if name != victim {
                return;
            }
            match damage {
                Damage::Truncate(at) => bytes.truncate(at % (bytes.len() + 1)),
                Damage::Flip(at, mask) => {
                    let at = at % bytes.len();
                    bytes[at] ^= mask;
                }
            }
        });

        let store = Store::open_with(&dir, opts()).expect("damaged store opens");
        let mut survivors = 0;
        for (name, _, appends) in segments {
            let got: Vec<Option<(u32, Vec<u8>)>> = appends
                .iter()
                .map(|(key, _, _)| {
                    let record = store.get(key).expect("surviving records read");
                    record.map(|r| (r.version, r.value))
                })
                .collect();
            let kept = got.iter().take_while(|r| r.is_some()).count();
            prop_assert!(
                got[kept..].iter().all(Option::is_none),
                "{name}: survivors are not a prefix"
            );
            for ((_, version, value), back) in appends.iter().zip(&got[..kept]) {
                prop_assert_eq!(back, &Some((*version, value.clone())), "{} altered a record", name);
            }
            if name != victim {
                prop_assert_eq!(kept, appends.len(), "{} was not damaged", name);
            }
            survivors += kept;
        }
        prop_assert_eq!(store.entries().len(), survivors, "no record is invented");
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The pristine fixture itself reopens whole.
#[test]
fn the_undamaged_fixture_reopens_whole() {
    let dir = copy_of_pristine(|_, _| {});
    let store = Store::open_with(&dir, opts()).expect("open copy");
    let appends: usize = PRISTINE.iter().map(|(_, _, a)| a.len()).sum();
    assert_eq!(store.entries().len(), appends);
    assert_eq!(store.stats().truncations, 0);
    drop(store);
    let _ = fs::remove_dir_all(&dir);
}
