//! The read path's contract: the slice-by-8 CRC computes the values the
//! bytewise loop did (so segments are interchangeable with every earlier
//! binary's), a `get` is one positional read on a kept-open handle, readers
//! never lose a race with compaction, and none of that weakened the
//! corruption check.

use proptest::prelude::*;

use cactus_store::{crc32, Store, StoreOptions};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

/// The byte-at-a-time CRC-32 every binary before this one shipped: the
/// oracle for [`crc32`] and for hand-written segments.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut crc = u32::MAX;
    for &b in data {
        crc = table[usize::from((crc as u8) ^ b)] ^ (crc >> 8);
    }
    !crc
}

/// One record in the documented on-disk format, checksummed by the oracle.
fn record_bytes(key: &str, version: u32, value: &[u8]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(key.len() as u16).to_le_bytes());
    payload.extend_from_slice(key.as_bytes());
    payload.extend_from_slice(&version.to_le_bytes());
    payload.extend_from_slice(value);
    let mut record = Vec::new();
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32_bytewise(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cactus-store-read-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn value_of(i: usize, round: u32) -> Vec<u8> {
    // Lengths straddle the eight-byte CRC step and the rotation threshold.
    let mut v = format!("key-{i} round-{round} ").into_bytes();
    v.extend(std::iter::repeat_n(b'x', 3 + 37 * i));
    v
}

#[test]
fn ieee_vectors() {
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(
        crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
    assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every length 0..=4099 is reachable and every start alignment 0..8 is
    /// taken on every case, so the word loop, its tail and their seam are
    /// all crossed at each offset into an allocation.
    #[test]
    fn slice_by_8_equals_the_bytewise_reference(
        bytes in prop::collection::vec(0u32..256, 0..4100usize),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let mut padded = vec![0xA5u8; 8];
        padded.extend_from_slice(&bytes);
        for align in 0..8 {
            let window = &padded[8 - align..];
            prop_assert_eq!(crc32(window), crc32_bytewise(window), "align {}", align);
        }
    }
}

/// The format did not move: a segment laid out by hand with the old CRC
/// opens and verifies, and what this binary appends checks out against the
/// old CRC record by record.
#[test]
fn segments_are_interchangeable_with_the_bytewise_binary() {
    let dir = temp_dir("format");
    fs::create_dir_all(dir.join("segments")).expect("mkdir");
    let mut log = Vec::new();
    for i in 0..20 {
        log.extend(record_bytes(&format!("dev/tiny/w{i}"), 7, &value_of(i, 0)));
    }
    log.extend(record_bytes("dev/tiny/w3", 8, b"superseded in place"));
    fs::write(dir.join("segments/seg-0.log"), &log).expect("write segment");

    let store = Store::open(&dir).expect("open");
    let stats = store.stats();
    assert_eq!((stats.live_records, stats.dead_records), (20, 1));
    assert_eq!(stats.truncations, 0);
    for i in 0..20 {
        let rec = store
            .get(&format!("dev/tiny/w{i}"))
            .expect("get")
            .expect("live");
        if i == 3 {
            assert_eq!(
                (rec.version, rec.value.as_slice()),
                (8, &b"superseded in place"[..])
            );
        } else {
            assert_eq!((rec.version, rec.value), (7, value_of(i, 0)));
        }
    }

    store
        .append("dev/tiny/new", 9, &value_of(5, 1))
        .expect("append");
    drop(store);
    let on_disk = fs::read(dir.join("segments/seg-0.log")).expect("read back");
    let mut expected = log;
    expected.extend(record_bytes("dev/tiny/new", 9, &value_of(5, 1)));
    assert_eq!(
        on_disk, expected,
        "appended bytes are the old binary's bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `syscr` of the calling thread, when the kernel accounts for it.
fn read_syscalls() -> Option<u64> {
    let io = fs::read_to_string("/proc/thread-self/io").ok()?;
    io.lines()
        .find_map(|l| l.strip_prefix("syscr: "))
        .and_then(|n| n.parse().ok())
}

/// A warm `get` is one read syscall — no open, seek, second read or close.
/// (The earlier path made two reads per get; `strace` is not assumed.)
#[test]
fn a_warm_get_is_one_read_syscall() {
    let Some(_) = read_syscalls() else {
        eprintln!("skipped: /proc/thread-self/io is not available");
        return;
    };
    let dir = temp_dir("syscr");
    let store = Store::open(&dir).expect("open");
    let keys: Vec<String> = (0..10).map(|i| format!("dev/tiny/w{i}")).collect();
    for (i, key) in keys.iter().enumerate() {
        store.append(key, 1, &value_of(i, 0)).expect("append");
    }
    for key in &keys {
        assert!(store.get(key).expect("warm-up get").is_some());
    }
    // What taking two samples costs in reads by itself.
    let a = read_syscalls().expect("sample");
    let b = read_syscalls().expect("sample");
    let sampling = b - a;

    let before = read_syscalls().expect("sample");
    for n in 0..1000 {
        let rec = store.get(&keys[n % keys.len()]).expect("get");
        assert!(rec.is_some());
    }
    let after = read_syscalls().expect("sample");
    assert_eq!(after - before - sampling, 1000);
    let _ = fs::remove_dir_all(&dir);
}

/// Descriptors this process holds on `seg-*` files under `dir` (deleted
/// ones included: the kernel keeps their name with a suffix).
fn segment_fds(dir: &Path) -> Option<usize> {
    let segments = dir.join("segments").canonicalize().ok()?;
    let fds = fs::read_dir("/proc/self/fd").ok()?;
    Some(
        fds.filter_map(|e| fs::read_link(e.ok()?.path()).ok())
            .filter(|target| {
                target.parent() == Some(segments.as_path())
                    && target
                        .file_name()
                        .is_some_and(|n| n.to_string_lossy().starts_with("seg-"))
            })
            .count(),
    )
}

fn segment_files(dir: &Path) -> usize {
    fs::read_dir(dir.join("segments"))
        .expect("segments dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
        .count()
}

/// Readers never lose to compaction: with the handle taken in the same lock
/// acquisition as the location, a victim unlinked mid-read still yields the
/// record, so there is nothing to retry and nothing to fail.
#[test]
fn readers_race_supersedes_and_compaction_without_a_single_error() {
    const KEYS: usize = 12;
    const READERS: usize = 4;
    let dir = temp_dir("race");
    let store = Store::open_with(
        &dir,
        StoreOptions {
            segment_max_bytes: 1024,
            compact_min_dead_bytes: 1,
        },
    )
    .expect("open");
    let keys: Vec<String> = (0..KEYS).map(|i| format!("dev/tiny/w{i}")).collect();
    for (i, key) in keys.iter().enumerate() {
        store.append(key, 0, &value_of(i, 0)).expect("seed");
    }

    let stop = AtomicBool::new(false);
    let round = AtomicU64::new(0);
    let reads = AtomicU64::new(0);
    let start = Barrier::new(READERS + 1);
    let failures: Vec<String> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut failures = Vec::new();
                    start.wait();
                    while !stop.load(Ordering::SeqCst) {
                        for (i, key) in keys.iter().enumerate() {
                            // The key held every round from the one
                            // published before the get to the one being
                            // written after it, and nothing else.
                            let floor = round.load(Ordering::SeqCst);
                            let got = store.get(key);
                            let ceil = round.load(Ordering::SeqCst) + 1;
                            match got {
                                Ok(Some(rec))
                                    if (floor..=ceil).contains(&u64::from(rec.version))
                                        && rec.value == value_of(i, rec.version) => {}
                                other => failures.push(format!("{key}: {other:?}")),
                            }
                            reads.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    failures
                })
            })
            .collect();

        start.wait();
        let mut compactions = 0;
        // At least 20 passes, and keep going until the readers have had
        // real overlap with them.
        while compactions < 20 || reads.load(Ordering::Relaxed) < 4000 {
            let next = round.load(Ordering::SeqCst) + 1;
            for (i, key) in keys.iter().enumerate() {
                store
                    .append(key, next as u32, &value_of(i, next as u32))
                    .expect("supersede");
            }
            round.store(next, Ordering::SeqCst);
            let report = store.compact().expect("compact");
            assert!(report.victims > 0, "every round leaves dead records");
            compactions += 1;
        }
        stop.store(true, Ordering::SeqCst);
        readers
            .into_iter()
            .flat_map(|r| r.join().expect("reader thread"))
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} failed gets, first: {}",
        failures.len(),
        failures[0]
    );

    // Nothing leaked: one retained handle per segment the index holds (the
    // pass sealed the active segment, so no append handle is open), and no
    // segment file the index does not know.
    let segments = store.stats().segments as usize;
    assert_eq!(segment_files(&dir), segments);
    match segment_fds(&dir) {
        Some(fds) => assert_eq!(fds, segments),
        None => eprintln!("fd count skipped: /proc/self/fd is not available"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A byte flipped in a sealed segment after open — behind the kept-open
/// handle's back — is still caught by the per-get checksum.
#[test]
fn a_byte_flipped_after_open_is_invalid_data() {
    let dir = temp_dir("flip");
    let store = Store::open(&dir).expect("open");
    store
        .append("dev/tiny/a", 1, &value_of(4, 0))
        .expect("append");
    store
        .append("dev/tiny/b", 1, &value_of(6, 0))
        .expect("append");
    assert!(store.get("dev/tiny/a").expect("clean get").is_some());

    let path = dir.join("segments/seg-0.log");
    let mut bytes = fs::read(&path).expect("read segment");
    bytes[40] ^= 0x01; // inside a's value
    fs::write(&path, &bytes).expect("write segment back");

    let err = store.get("dev/tiny/a").expect_err("corruption is an error");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("checksum mismatch"), "{err}");
    assert!(
        store.get("dev/tiny/b").expect("untouched record").is_some(),
        "the neighbour still verifies"
    );
    let _ = fs::remove_dir_all(&dir);
}
