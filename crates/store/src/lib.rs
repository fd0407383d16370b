//! `cactus-store` — the durable embedded profile store.
//!
//! An append-only, log-structured key/value store purpose-built for the
//! serving tier's profile corpus. Values are opaque byte strings (in
//! practice the bit-exact `cactus-profiler` text encoding); keys are the
//! serving triple `device/scale/workload`; every record carries a `u32`
//! model version so superseded simulator outputs can be dropped by
//! compaction.
//!
//! # On-disk format
//!
//! A store directory holds `segments/seg-<id>.log` files plus the
//! `segments/LOCK` file an open [`Store`] holds an exclusive advisory lock
//! on. Each segment is a sequence of records:
//!
//! ```text
//! [len: u32 le][crc: u32 le][payload: len bytes]
//! payload = [key_len: u16 le][key bytes][version: u32 le][value bytes]
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload. Records never span segments,
//! and sealed segments are immutable, so **log order across the store is
//! segment-id order** — the recovery scan replays segments in ascending id
//! and lets the last record for a key win.
//!
//! # Invariants
//!
//! * **Single writer:** at most one [`Store`] is open on a directory at a
//!   time, in this process or any other — a second [`Store::open`] fails
//!   instead of interleaving records with the first (the fig/table bins
//!   and `cactus-serve` share [`default_dir`]).
//! * **Write-ahead ordering:** a record is `fdatasync`'d to its segment
//!   *before* the in-memory index admits it. A crash can lose the tail of
//!   the log but never yields an index entry without durable bytes.
//! * **Torn-tail recovery:** the opening scan truncates each segment at
//!   the first short or CRC-mismatching record; everything before the
//!   truncation point is intact by construction.
//! * **Compaction replay safety:** a compaction pass holds the writer
//!   lock end to end. It seals the active segment `A`, copies the live
//!   records of dead-heavy sealed segments (all ids `< A`) into a fresh
//!   segment `N > A`, and directs future appends to `N+1`. A live record
//!   in a victim has, by definition of live, no newer record anywhere —
//!   so replaying `victims … A, N, N+1` last-wins is equivalent to the
//!   pre-compaction log.
//!
//! # Read path
//!
//! The index keeps one read-only handle per segment on disk, next to that
//! segment's accounting and under the same `STORE_INDEX` lock: opened by
//! the recovery scan, when an append creates the next active segment, and
//! for a compaction's output; dropped when compaction drops the victim.
//! [`Store::get`] takes the key's location and its segment's handle in one
//! lock acquisition, then reads header and payload with one positional read
//! (`pread`) outside the lock and verifies length, checksum and key.
//!
//! A reader therefore never sees a deleted file: it holds the handle it was
//! given, an unlinked victim's bytes stay readable through it, and a sealed
//! segment is immutable, so the record it was pointed at is still the
//! record it reads — the key's live value when the index was probed. The
//! one-retry loop `get` used to run for "compaction deleted the file under
//! me" is unreachable and is gone; an error from `get` is a real I/O error
//! or corruption.
//!
//! Open descriptors are bounded by the segment count — `live_bytes /
//! segment_max_bytes + 1` sealed-or-active segments after a compaction
//! (the shipped corpus of 756 triples is ≈ 2.5 MB: one segment), plus the
//! writer's append handle and `LOCK`. There is no cap to configure.
//! Positional reads come from `std::os::unix::fs::FileExt`.
//!
//! Lock ranks: the active-segment writer holds `STORE_WRITER` (42) and
//! nests the `STORE_INDEX` (45) lock inside it, so index admission happens
//! in append order; readers take only `STORE_INDEX`.

use cactus_obs::lock::{rank, RankedMutex};

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::{self, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
#[cfg(test)]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Record header: `len` + `crc`, both little-endian `u32`s.
const HEADER_BYTES: u64 = 8;

/// Upper bound on one payload; anything larger in a segment is treated as
/// corruption by the recovery scan.
const MAX_PAYLOAD_BYTES: u32 = 64 << 20;

/// First line of a rendered manifest.
pub(crate) const MANIFEST_HEADER: &str = "cactus-store manifest v1";

/// The store root the fig/table bins and an unconfigured `cactus-serve`
/// share: the `CACTUS_PROFILE_STORE` environment variable if set, else
/// `results/profiles/` under the workspace root.
#[must_use]
pub fn default_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CACTUS_PROFILE_STORE") {
        return PathBuf::from(dir);
    }
    // crates/store/ → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(
            || PathBuf::from("results/profiles"),
            |ws| ws.join("results/profiles"),
        )
}

/// Tuning knobs for [`Store::open_with`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_max_bytes: u64,
    /// [`Store::maybe_compact`] fires once dead bytes across sealed
    /// segments reach this threshold.
    pub compact_min_dead_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            segment_max_bytes: 4 << 20,
            compact_min_dead_bytes: 256 << 10,
        }
    }
}

/// One stored record, as returned by [`Store::get`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Model version the value was produced under.
    pub version: u32,
    /// Opaque value bytes.
    pub value: Vec<u8>,
    /// CRC-32 of the record payload — doubles as a cheap value digest in
    /// manifests.
    pub crc: u32,
}

/// One manifest entry: the current version+digest for a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Record key.
    pub key: String,
    /// Model version of the live record.
    pub version: u32,
    /// Payload CRC of the live record.
    pub crc: u32,
}

/// The manifest's `k\t<key>\t<version>\t<crc>` lines: what its digest
/// covers.
fn manifest_lines(entries: &[Entry]) -> String {
    let line = |e: &Entry| format!("k\t{}\t{}\t{:08x}\n", e.key, e.version, e.crc);
    entries.iter().map(line).collect()
}

/// FNV-1a over `entries`' manifest lines: two replicas holding the same
/// live records have the same digest, whatever their segment layout.
#[must_use]
pub fn manifest_digest(entries: &[Entry]) -> u64 {
    fnv1a64(manifest_lines(entries).as_bytes())
}

/// Render a manifest page: `MANIFEST_HEADER`, `digest <hex>`,
/// `entries <n>`, then one `k` line per entry. Inverse of
/// [`parse_manifest`] for keys without a tab or a line break, which
/// [`Store::append`] refuses.
#[must_use]
pub fn write_manifest(entries: &[Entry]) -> String {
    let (lines, n) = (manifest_lines(entries), entries.len());
    let digest = fnv1a64(lines.as_bytes());
    format!("{MANIFEST_HEADER}\ndigest {digest:016x}\nentries {n}\n{lines}")
}

/// The entries of a page [`write_manifest`] rendered. `None` when the
/// header is wrong or any `k` line is malformed — a partial parse could
/// make the gateway's repair pass conclude records exist that don't.
#[must_use]
pub fn parse_manifest(text: &str) -> Option<Vec<Entry>> {
    let mut lines = text.lines();
    if lines.next()? != MANIFEST_HEADER {
        return None;
    }
    lines
        .filter(|l| !l.is_empty() && !l.starts_with("digest ") && !l.starts_with("entries "))
        .map(|line| {
            let ["k", key, version, crc] = line.split('\t').collect::<Vec<_>>()[..] else {
                return None;
            };
            let (version, crc) = (version.parse().ok()?, u32::from_str_radix(crc, 16).ok()?);
            Some(Entry {
                key: key.to_owned(),
                version,
                crc,
            })
        })
        .collect()
}

/// Point-in-time store counters for the metrics scrape and `/v1/store/statz`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Segments currently on disk (sealed + active).
    pub segments: u64,
    /// Records the index points at.
    pub live_records: u64,
    /// Superseded records awaiting compaction.
    pub dead_records: u64,
    /// Bytes owned by live records (headers included).
    pub live_bytes: u64,
    /// Bytes owned by superseded records.
    pub dead_bytes: u64,
    /// Appends admitted since open.
    pub appends: u64,
    /// Gets served since open.
    pub gets: u64,
    /// Compaction passes that copied or dropped at least one segment.
    pub compactions: u64,
    /// Torn tails truncated by the recovery scan at open.
    pub truncations: u64,
}

/// What one [`Store::compact`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Sealed segments rewritten or dropped.
    pub victims: usize,
    /// Live records copied into the compaction segment.
    pub copied: usize,
    /// Bytes reclaimed (victim sizes minus the compaction segment).
    pub reclaimed_bytes: u64,
}

/// Location of the live record for a key.
#[derive(Debug, Clone, Copy)]
struct Loc {
    segment: u64,
    offset: u64,
    /// Payload length (record occupies `HEADER_BYTES + len`).
    len: u32,
    version: u32,
    crc: u32,
}

/// One segment on disk: its accounting and the read handle every
/// [`Store::get`] into it shares, both maintained under the index lock.
#[derive(Debug)]
struct Segment {
    live_records: u64,
    dead_records: u64,
    live_bytes: u64,
    dead_bytes: u64,
    sealed: bool,
    /// Read-only handle; a reader clones the `Arc` and reads outside the lock.
    file: Arc<File>,
}

impl Segment {
    fn new(file: File, sealed: bool) -> Self {
        Self {
            live_records: 0,
            dead_records: 0,
            live_bytes: 0,
            dead_bytes: 0,
            sealed,
            file: Arc::new(file),
        }
    }

    /// `old`, a record of this segment, was superseded.
    fn retire(&mut self, old: &Loc) {
        let bytes = record_bytes_of(old);
        self.live_records -= 1;
        self.live_bytes -= bytes;
        self.dead_records += 1;
        self.dead_bytes += bytes;
    }
}

#[derive(Default)]
struct IndexState {
    map: HashMap<String, Loc>,
    segments: BTreeMap<u64, Segment>,
}

impl IndexState {
    /// Point `key` at `loc` (a record of a segment already in `segments`)
    /// and move whatever it superseded to its segment's dead column.
    fn admit(&mut self, key: String, loc: Loc) {
        if let Some(seg) = self.segments.get_mut(&loc.segment) {
            seg.live_records += 1;
            seg.live_bytes += record_bytes_of(&loc);
        }
        if let Some(old) = self.map.insert(key, loc) {
            if let Some(seg) = self.segments.get_mut(&old.segment) {
                seg.retire(&old);
            }
        }
    }
}

struct WriterState {
    /// Open active segment: file, id, byte offset of the next record.
    active: Option<(File, u64, u64)>,
    /// Next segment id to allocate (monotonic, never reused).
    next_id: u64,
}

/// The embedded store. All methods take `&self`; the store is shared
/// across serve workers behind an `Arc`.
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    writer: RankedMutex<WriterState>,
    index: RankedMutex<IndexState>,
    appends: AtomicU64,
    gets: AtomicU64,
    compactions: AtomicU64,
    truncations: AtomicU64,
    /// Test-only fault: the next append writes a torn prefix and errors.
    #[cfg(test)]
    torn_append_armed: AtomicBool,
    /// `segments/LOCK`, exclusively locked for this store's life; the lock
    /// goes with the file when the store drops (or its process dies).
    _lock: File,
}

impl Store {
    /// Open (or create) a store rooted at `dir` with default options.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the recovery scan.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Open (or create) a store rooted at `dir`.
    ///
    /// Takes the directory's single-writer lock, then scans
    /// `dir/segments/` in segment-id order rebuilding the index,
    /// truncating any torn tail left by a crashed writer.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::ResourceBusy`] naming `dir` when another `Store`
    /// (in this process or any other) has it open; otherwise propagates
    /// filesystem errors from the recovery scan.
    pub fn open_with(dir: impl Into<PathBuf>, opts: StoreOptions) -> io::Result<Self> {
        let dir = dir.into();
        let segments = dir.join("segments");
        fs::create_dir_all(&segments)?;
        let lock = File::create(segments.join("LOCK"))?;
        match lock.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                return Err(io::Error::new(
                    io::ErrorKind::ResourceBusy,
                    format!(
                        "store directory {} is already open (one writer per directory)",
                        dir.display()
                    ),
                ));
            }
            Err(TryLockError::Error(e)) => return Err(e),
        }
        let store = Self {
            dir,
            opts,
            writer: RankedMutex::new(
                rank::STORE_WRITER,
                "store.writer",
                WriterState {
                    active: None,
                    next_id: 0,
                },
            ),
            index: RankedMutex::new(rank::STORE_INDEX, "store.index", IndexState::default()),
            appends: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            truncations: AtomicU64::new(0),
            #[cfg(test)]
            torn_append_armed: AtomicBool::new(false),
            _lock: lock,
        };
        store.recover()?;
        Ok(store)
    }

    /// The store root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segments_dir(&self) -> PathBuf {
        self.dir.join("segments")
    }

    fn segment_path(&self, id: u64) -> PathBuf {
        self.segments_dir().join(format!("seg-{id}.log"))
    }

    /// Replay every segment in id order, truncating torn tails and
    /// building the last-wins index.
    fn recover(&self) -> io::Result<()> {
        let mut ids: Vec<u64> = Vec::new();
        for entry in fs::read_dir(self.segments_dir())? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix("seg-"))
                .and_then(|n| n.strip_suffix(".log"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            ids.push(id);
        }
        ids.sort_unstable();

        let mut index = IndexState::default();
        for &id in &ids {
            let path = self.segment_path(id);
            // The handle the scan reads through is the one readers keep.
            let mut file = File::open(&path)?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            let (valid_len, records) = scan_segment(&bytes);
            if (valid_len as usize) < bytes.len() {
                // Torn tail: a crashed writer got partway through a
                // record. Drop the invalid suffix so the segment is
                // append-clean again.
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(valid_len)?;
                f.sync_data()?;
                self.truncations.fetch_add(1, Ordering::Relaxed);
            }
            index.segments.insert(id, Segment::new(file, true));
            for rec in records {
                let loc = Loc {
                    segment: id,
                    offset: rec.offset,
                    len: rec.len,
                    version: rec.version,
                    crc: rec.crc,
                };
                index.admit(rec.key.to_owned(), loc);
            }
        }

        // The highest-id segment stays active; everything below is sealed.
        let mut writer = self.writer.lock();
        if let Some(&last) = ids.last() {
            writer.next_id = last + 1;
            let file = OpenOptions::new()
                .append(true)
                .open(self.segment_path(last))?;
            let offset = file.metadata()?.len();
            if let Some(seg) = index.segments.get_mut(&last) {
                seg.sealed = false;
            }
            writer.active = Some((file, last, offset));
        }
        *self.index.lock() = index;
        Ok(())
    }

    /// Durably append `value` under `key` at `version`, superseding any
    /// prior record for the key. The record is fsync'd before the index
    /// admits it.
    ///
    /// # Errors
    ///
    /// `InvalidInput`, before any byte is written, for a key holding a tab
    /// or a line break: its manifest `k` line would not parse back, and
    /// the whole manifest with it. Otherwise propagates filesystem errors;
    /// on error the index is unchanged (the bytes may still be on disk and
    /// are dropped by the next recovery scan if torn, or harmlessly
    /// replayed if complete).
    pub fn append(&self, key: &str, version: u32, value: &[u8]) -> io::Result<()> {
        if key.contains(['\t', '\r', '\n']) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("key {key:?} holds a tab or a line break"),
            ));
        }
        let (record, crc) = encode_record(key, version, value)?;
        let len = (record.len() - HEADER_BYTES as usize) as u32;

        let mut writer = self.writer.lock();
        // Rotate when the active segment is over the size threshold.
        if let Some((file, id, offset)) = writer.active.take() {
            if offset >= self.opts.segment_max_bytes {
                file.sync_data()?;
                let mut index = self.index.lock();
                if let Some(seg) = index.segments.get_mut(&id) {
                    seg.sealed = true;
                }
            } else {
                writer.active = Some((file, id, offset));
            }
        }
        if writer.active.is_none() {
            let id = writer.next_id;
            writer.next_id += 1;
            let path = self.segment_path(id);
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            let reader = File::open(&path)?;
            self.index
                .lock()
                .segments
                .insert(id, Segment::new(reader, false));
            writer.active = Some((file, id, 0));
        }
        let Some((file, id, offset)) = writer.active.as_mut() else {
            return Err(io::Error::other("store writer lost its active segment"));
        };

        #[cfg(test)]
        if self.torn_append_armed.swap(false, Ordering::Relaxed) {
            // Test-only fault: crash mid-record. Write a prefix, force it
            // to disk, and fail without admitting the record — exactly the
            // state a power cut during `write_all` leaves behind.
            let half = record.len() / 2;
            file.write_all(record.get(..half).unwrap_or(&record))?;
            file.sync_data()?;
            return Err(io::Error::other("injected torn append"));
        }

        file.write_all(&record)?;
        file.sync_data()?;
        let loc = Loc {
            segment: *id,
            offset: *offset,
            len,
            version,
            crc,
        };
        *offset += record.len() as u64;

        // Index admission happens inside the writer lock so index order
        // matches log order.
        self.index.lock().admit(key.to_owned(), loc);
        drop(writer);
        self.appends.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Read the live record for `key`, verifying its length, checksum and
    /// key: one index probe, one positional read (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and reports checksum mismatches as
    /// [`io::ErrorKind::InvalidData`].
    pub fn get(&self, key: &str) -> io::Result<Option<Record>> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        let (loc, file) = {
            let index = self.index.lock();
            let Some(loc) = index.map.get(key) else {
                return Ok(None);
            };
            let Some(seg) = index.segments.get(&loc.segment) else {
                return Err(io::Error::other("index entry without its segment"));
            };
            (*loc, Arc::clone(&seg.file))
        };
        let RawRecord {
            mut bytes,
            version,
            value_at,
        } = read_record(&file, &loc, key)?;
        // The value is the record's tail: shift it to the front of the
        // buffer it was read into instead of copying it out.
        bytes.drain(..value_at);
        Ok(Some(Record {
            version,
            value: bytes,
            crc: loc.crc,
        }))
    }

    /// Every live `(key, version, crc)` sorted by key.
    #[must_use]
    pub fn entries(&self) -> Vec<Entry> {
        let index = self.index.lock();
        let mut out: Vec<Entry> = index
            .map
            .iter()
            .map(|(k, loc)| Entry {
                key: k.clone(),
                version: loc.version,
                crc: loc.crc,
            })
            .collect();
        drop(index);
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let index = self.index.lock();
        let mut s = StoreStats {
            segments: index.segments.len() as u64,
            ..StoreStats::default()
        };
        for info in index.segments.values() {
            s.live_records += info.live_records;
            s.dead_records += info.dead_records;
            s.live_bytes += info.live_bytes;
            s.dead_bytes += info.dead_bytes;
        }
        drop(index);
        s.appends = self.appends.load(Ordering::Relaxed);
        s.gets = self.gets.load(Ordering::Relaxed);
        s.compactions = self.compactions.load(Ordering::Relaxed);
        s.truncations = self.truncations.load(Ordering::Relaxed);
        s
    }

    /// Compact if dead bytes have crossed the configured threshold.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the compaction pass.
    pub fn maybe_compact(&self) -> io::Result<Option<CompactReport>> {
        let dead = {
            let index = self.index.lock();
            index
                .segments
                .values()
                .filter(|i| i.sealed)
                .map(|i| i.dead_bytes)
                .sum::<u64>()
        };
        if dead < self.opts.compact_min_dead_bytes {
            return Ok(None);
        }
        self.compact().map(Some)
    }

    /// One compaction pass: rewrite sealed segments containing superseded
    /// records into a fresh segment holding only their live records, then
    /// delete them. Holds the writer lock end to end (appends queue behind
    /// it); readers are only briefly blocked for the index repoint.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the index still points at
    /// valid records (victim files are only deleted after the repoint).
    pub fn compact(&self) -> io::Result<CompactReport> {
        let mut writer = self.writer.lock();

        // Seal the active segment so the compaction output strictly
        // follows every segment it copies from (see module docs).
        if let Some((file, id, _)) = writer.active.take() {
            file.sync_data()?;
            let mut index = self.index.lock();
            if let Some(seg) = index.segments.get_mut(&id) {
                seg.sealed = true;
            }
        }

        let active_floor = writer.next_id;
        let victims: BTreeMap<u64, Arc<File>> = {
            let index = self.index.lock();
            index
                .segments
                .iter()
                .filter(|(&id, seg)| {
                    id < active_floor
                        && seg.sealed
                        && (seg.dead_records > 0 || seg.live_records == 0)
                })
                .map(|(&id, seg)| (id, Arc::clone(&seg.file)))
                .collect()
        };
        if victims.is_empty() {
            return Ok(CompactReport::default());
        }

        let compact_id = writer.next_id;
        writer.next_id += 1;

        // Live records to carry over, each with its victim's handle, in
        // (segment, offset) log order.
        let mut moves: Vec<(String, Loc, &File)> = {
            let index = self.index.lock();
            index
                .map
                .iter()
                .filter_map(|(k, loc)| Some((k.clone(), *loc, &**victims.get(&loc.segment)?)))
                .collect()
        };
        moves.sort_by_key(|(_, loc, _)| (loc.segment, loc.offset));

        let mut victim_bytes = 0u64;
        for file in victims.values() {
            victim_bytes += file.metadata()?.len();
        }

        // Records move as the bytes they are: same header, same payload.
        let mut new_locs: Vec<(String, Loc)> = Vec::with_capacity(moves.len());
        let mut out_len = 0u64;
        let mut output = None;
        if !moves.is_empty() {
            let path = self.segment_path(compact_id);
            let mut out = OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&path)?;
            for (key, loc, file) in moves {
                let record = read_record(file, &loc, &key)?.bytes;
                out.write_all(&record)?;
                let moved = Loc {
                    segment: compact_id,
                    offset: out_len,
                    ..loc
                };
                out_len += record.len() as u64;
                new_locs.push((key, moved));
            }
            out.sync_data()?;
            output = Some(Segment::new(File::open(&path)?, true));
        }
        let copied = new_locs.len();

        {
            let mut index = self.index.lock();
            if let Some(segment) = output {
                index.segments.insert(compact_id, segment);
                for (key, loc) in new_locs {
                    index.admit(key, loc);
                }
            }
            // Dropping a victim drops the index's handle on it; a reader
            // that already cloned the handle finishes on the unlinked file.
            for v in victims.keys() {
                index.segments.remove(v);
            }
        }
        for &v in victims.keys() {
            fs::remove_file(self.segment_path(v))?;
        }
        drop(writer);

        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(CompactReport {
            victims: victims.len(),
            copied,
            reclaimed_bytes: victim_bytes.saturating_sub(out_len),
        })
    }

    /// Arm the test-only torn-append fault: the next [`Store::append`]
    /// writes half its record, syncs, and errors — simulating a crash
    /// mid-write for the recovery tests.
    #[doc(hidden)]
    #[cfg(test)]
    pub(crate) fn arm_torn_append(&self) {
        self.torn_append_armed.store(true, Ordering::Relaxed);
    }
}

/// A record decoded by the recovery scan.
struct ScannedRecord<'a> {
    offset: u64,
    len: u32,
    crc: u32,
    key: &'a str,
    version: u32,
}

/// Walk one segment's bytes; returns the byte length of the valid prefix
/// and the records inside it. Stops at the first short, oversized, or
/// checksum-mismatching record.
fn scan_segment(bytes: &[u8]) -> (u64, Vec<ScannedRecord<'_>>) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + HEADER_BYTES as usize) {
        let len = le_u32(header);
        let crc = le_u32(header.get(4..).unwrap_or(&[]));
        if len > MAX_PAYLOAD_BYTES {
            break;
        }
        let start = pos + HEADER_BYTES as usize;
        let Some(payload) = bytes.get(start..start + len as usize) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Ok((key, version, _)) = decode_payload(payload) else {
            break;
        };
        let Ok(key) = std::str::from_utf8(key) else {
            break;
        };
        records.push(ScannedRecord {
            offset: pos as u64,
            len,
            crc,
            key,
            version,
        });
        pos = start + len as usize;
    }
    (pos as u64, records)
}

/// A record as it sits in its segment, verified by [`read_record`].
struct RawRecord {
    /// Header and payload.
    bytes: Vec<u8>,
    version: u32,
    /// Where the value starts in `bytes`; it runs to the end.
    value_at: usize,
}

/// Read the whole record at `loc` — header and payload — with one
/// positional read, and verify its length and checksum against the index
/// and the header, and its key against `key`.
fn read_record(file: &File, loc: &Loc, key: &str) -> io::Result<RawRecord> {
    let mut bytes = vec![0u8; HEADER_BYTES as usize + loc.len as usize];
    file.read_exact_at(&mut bytes, loc.offset)?;
    let (header, payload) = bytes.split_at(HEADER_BYTES as usize);
    let crc = le_u32(header.get(4..).unwrap_or(&[]));
    if le_u32(header) != loc.len || crc != loc.crc {
        return Err(invalid(format!(
            "record header mismatch for {key:?} in seg-{}",
            loc.segment
        )));
    }
    if crc32(payload) != crc {
        return Err(invalid(format!(
            "record checksum mismatch for {key:?} in seg-{}",
            loc.segment
        )));
    }
    let (got_key, version, value) = decode_payload(payload)?;
    if got_key != key.as_bytes() {
        return Err(invalid(format!(
            "index pointed {key:?} at a record for {:?}",
            String::from_utf8_lossy(got_key)
        )));
    }
    let value_at = bytes.len() - value.len();
    Ok(RawRecord {
        bytes,
        version,
        value_at,
    })
}

fn record_bytes_of(loc: &Loc) -> u64 {
    HEADER_BYTES + u64::from(loc.len)
}

/// One whole record for the log — header, then the payload it checksums —
/// and that checksum.
fn encode_record(key: &str, version: u32, value: &[u8]) -> io::Result<(Vec<u8>, u32)> {
    let key_bytes = key.as_bytes();
    if key_bytes.len() > usize::from(u16::MAX) {
        return Err(invalid(format!("key too long ({} bytes)", key_bytes.len())));
    }
    let total = 2 + key_bytes.len() + 4 + value.len();
    if total > MAX_PAYLOAD_BYTES as usize {
        return Err(invalid(format!("value too large ({} bytes)", value.len())));
    }
    let mut record = Vec::with_capacity(HEADER_BYTES as usize + total);
    record.extend_from_slice(&(total as u32).to_le_bytes());
    record.extend_from_slice(&[0; 4]);
    record.extend_from_slice(&(key_bytes.len() as u16).to_le_bytes());
    record.extend_from_slice(key_bytes);
    record.extend_from_slice(&version.to_le_bytes());
    record.extend_from_slice(value);
    let crc = crc32(record.get(HEADER_BYTES as usize..).unwrap_or(&[]));
    if let Some(slot) = record.get_mut(4..HEADER_BYTES as usize) {
        slot.copy_from_slice(&crc.to_le_bytes());
    }
    Ok((record, crc))
}

/// Split a payload into `(key, version, value)`, borrowing key and value.
/// The key is bytes here: the scan checks it is UTF-8 before indexing it,
/// and a read compares it with the key it was asked for.
fn decode_payload(payload: &[u8]) -> io::Result<(&[u8], u32, &[u8])> {
    let key_len = payload
        .get(..2)
        .map(|b| usize::from(le_u16(b)))
        .ok_or_else(|| invalid("payload shorter than key length".to_owned()))?;
    let key = payload
        .get(2..2 + key_len)
        .ok_or_else(|| invalid("payload shorter than key".to_owned()))?;
    let vstart = 2 + key_len;
    let version = payload
        .get(vstart..vstart + 4)
        .map(le_u32)
        .ok_or_else(|| invalid("payload shorter than version".to_owned()))?;
    Ok((key, version, payload.get(vstart + 4..).unwrap_or(&[])))
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `u32` from the first four little-endian bytes of `b`, zero-extending a
/// short slice — callers always pass exactly-sized views, this shape just
/// keeps the decode path free of panicking indexing.
fn le_u32(b: &[u8]) -> u32 {
    let mut raw = [0u8; 4];
    for (d, s) in raw.iter_mut().zip(b) {
        *d = *s;
    }
    u32::from_le_bytes(raw)
}

/// `u16` little-endian counterpart of [`le_u32`].
fn le_u16(b: &[u8]) -> u16 {
    let mut raw = [0u8; 2];
    for (d, s) in raw.iter_mut().zip(b) {
        *d = *s;
    }
    u16::from_le_bytes(raw)
}

/// The CRC-32 polynomial, reflected: bit 31 is the coefficient of `x^0`.
const CRC_POLY: u32 = 0xEDB8_8320;

/// The classic byte-at-a-time CRC-32 table: entry `b` is the CRC of byte `b`.
const CRC_BYTE_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Slice-by-8 lookup tables for [`crc32`] (8 KB of rodata): entry `[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, which is what lets
/// eight input bytes fold in one step.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [CRC_BYTE_TABLE; 8];
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = CRC_BYTE_TABLE[(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// `a·b mod P` over GF(2), both operands in the reflected order of
/// [`CRC_POLY`] (bit 31 is the coefficient of `x^0`). The carry-less
/// product, four bits of `a` per step, holds `x^d` at bit `62 − d`; one
/// bit up, its high word is the part of degree `< 32` and its low word
/// `h` the part `x^32·h`, which four zero-byte folds reduce mod P.
const fn crc_mul(a: u32, b: u32) -> u32 {
    let mut multiples = [0u64; 16];
    let mut k = 1;
    while k < 16 {
        multiples[k] = if k % 2 == 0 {
            multiples[k / 2] << 1
        } else {
            multiples[k - 1] ^ b as u64
        };
        k += 1;
    }
    let mut product = 0u64;
    let mut n = 0;
    while n < 8 {
        product ^= multiples[((a >> (4 * n)) & 15) as usize] << (4 * n);
        n += 1;
    }
    let product = product << 1;
    let (high, low) = ((product >> 32) as u32, product as u32);
    let [t0, t1, t2, t3, ..] = &CRC_TABLES;
    high ^ t3[(low & 0xFF) as usize]
        ^ t2[((low >> 8) & 0xFF) as usize]
        ^ t1[((low >> 16) & 0xFF) as usize]
        ^ t0[(low >> 24) as usize]
}

/// `x^(2^k) mod P` for `k` in `0..32` (zlib's `x2n_table`). The powers
/// repeat with period 32 (`x^(2^32) = x mod P`), so `k` wraps.
static CRC_X2N: [u32; 32] = {
    let mut table = [1 << 30; 32]; // x^1
    let mut k = 1;
    while k < 32 {
        table[k] = crc_mul(table[k - 1], table[k - 1]);
        k += 1;
    }
    let [x, .., x_2_31] = table;
    assert!(crc_mul(x_2_31, x_2_31) == x, "x^(2^32) = x mod P");
    table
};

/// `x^(8n) mod P`: what appending `n` zero bytes multiplies a CRC register
/// by (zlib's `x2nmodp(n, 3)`).
fn crc_shift_op(mut n: usize) -> u32 {
    let mut op = 1 << 31; // x^0
    let mut k = 3;
    while n != 0 {
        if n & 1 == 1 {
            op = crc_mul(CRC_X2N[k & 31], op);
        }
        n >>= 1;
        k += 1;
    }
    op
}

/// Fold `data` into the CRC register `crc` (no pre- or post-inversion):
/// eight bytes per step, then the tail a byte at a time.
fn crc_fold(mut crc: u32, data: &[u8]) -> u32 {
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        crc = crc_fold_word(crc, w);
    }
    let [t0, ..] = &CRC_TABLES;
    for &b in tail {
        crc = t0[usize::from(crc as u8 ^ b)] ^ (crc >> 8);
    }
    crc
}

/// One slice-by-8 step.
#[inline(always)]
fn crc_fold_word(crc: u32, word: &[u8; 8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let at = |table: &[u32; 256], word: u64, shift: u32| table[usize::from((word >> shift) as u8)];
    let w = u64::from_le_bytes(*word) ^ u64::from(crc);
    at(t7, w, 0)
        ^ at(t6, w, 8)
        ^ at(t5, w, 16)
        ^ at(t4, w, 24)
        ^ at(t3, w, 32)
        ^ at(t2, w, 40)
        ^ at(t1, w, 48)
        ^ at(t0, w, 56)
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`); the values
/// are those of the bytewise table loop.
///
/// The leading `24·L` bytes are three lanes of `L` eight-byte words,
/// folded slice-by-8 side by side in one loop so that the three lanes'
/// lookup chains overlap. The lanes are then joined with the CRC's shift
/// operator (zlib's `crc32_combine`), and the last `< 24` bytes are
/// folded onto the joined register. Under 24 bytes the lanes are empty:
/// the shift is `x^0` and the whole input is that tail.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let words = data.as_chunks::<8>().0;
    let lane = words.len() / 3;
    let (a, rest) = words.split_at(lane);
    let (b, c) = rest.split_at(lane);
    let (mut x, mut y, mut z) = (u32::MAX, 0, 0);
    for ((wa, wb), wc) in a.iter().zip(b).zip(&c[..lane]) {
        x = crc_fold_word(x, wa);
        y = crc_fold_word(y, wb);
        z = crc_fold_word(z, wc);
    }
    // The register after lanes a and b, then after all three: each time
    // the register so far is shifted past the next lane's 8·L bytes.
    let op = crc_shift_op(8 * lane);
    let crc = crc_mul(op, crc_mul(op, x) ^ y) ^ z;
    !crc_fold(crc, &data[24 * lane..])
}

/// FNV-1a, 64-bit: the manifest digest, a submitted definition's digest
/// in serve's profile keys, and the gateway ring's hash before its
/// finalizer.
#[must_use]
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_store_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cactus-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_opts() -> StoreOptions {
        StoreOptions {
            segment_max_bytes: 256,
            compact_min_dead_bytes: 1,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_refuses_a_key_the_manifest_cannot_carry() {
        let dir = temp_store_dir("manifest-key");
        let store = Store::open_with(&dir, small_opts()).expect("open");
        store.append("a/b/c", 1, b"kept").expect("append");
        let before = store.stats();
        for key in ["a\tb", "a\rb", "a\nb"] {
            let err = store.append(key, 1, b"x").expect_err("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{key:?}");
        }
        assert_eq!(store.stats(), before, "nothing written");
        assert!(parse_manifest(&write_manifest(&store.entries())).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_get_roundtrip_and_versions() {
        let dir = temp_store_dir("roundtrip");
        let store = Store::open_with(&dir, small_opts()).expect("open");
        store.append("a/b/c", 2, b"hello").expect("append");
        let rec = store.get("a/b/c").expect("get").expect("present");
        assert_eq!(rec.version, 2);
        assert_eq!(rec.value, b"hello");
        assert!(store.get("missing").expect("get").is_none());

        store.append("a/b/c", 3, b"world").expect("supersede");
        let rec = store.get("a/b/c").expect("get").expect("present");
        assert_eq!(rec.version, 3);
        assert_eq!(rec.value, b"world");
        let s = store.stats();
        assert_eq!(s.live_records, 1);
        assert_eq!(s.dead_records, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_rebuilds_the_index() {
        let dir = temp_store_dir("reopen");
        {
            let store = Store::open_with(&dir, small_opts()).expect("open");
            for i in 0..50u32 {
                store
                    .append(&format!("key-{i}"), 1, format!("value-{i}").as_bytes())
                    .expect("append");
            }
            store.append("key-7", 2, b"updated").expect("update");
        }
        let store = Store::open_with(&dir, small_opts()).expect("reopen");
        assert_eq!(store.stats().live_records, 50);
        let rec = store.get("key-7").expect("get").expect("present");
        assert_eq!(rec.version, 2);
        assert_eq!(rec.value, b"updated");
        assert!(store.stats().segments > 1, "rotation under small threshold");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_is_truncated_on_reopen() {
        let dir = temp_store_dir("torn");
        {
            let store = Store::open_with(&dir, small_opts()).expect("open");
            store.append("committed", 1, b"durable").expect("append");
            store.arm_torn_append();
            let err = store.append("torn", 1, b"never admitted").unwrap_err();
            assert!(err.to_string().contains("injected torn append"));
            assert!(store.get("torn").expect("get").is_none());
        }
        let store = Store::open_with(&dir, small_opts()).expect("reopen");
        assert_eq!(store.stats().truncations, 1, "tail was torn and truncated");
        assert!(store.get("torn").expect("get").is_none());
        let rec = store.get("committed").expect("get").expect("present");
        assert_eq!(rec.value, b"durable");
        // The truncated segment accepts appends again.
        store.append("after", 1, b"clean tail").expect("append");
        drop(store);
        let store2 = Store::open_with(&dir, small_opts()).expect("reopen again");
        assert_eq!(store2.stats().truncations, 0);
        assert!(store2.get("after").expect("get").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_open_on_a_live_store_errors_until_drop() {
        let dir = temp_store_dir("lock");
        let store = Store::open_with(&dir, small_opts()).expect("open");
        store.append("k", 1, b"v").expect("append");
        let Err(err) = Store::open_with(&dir, small_opts()) else {
            panic!("a second handle on a live store must be refused");
        };
        assert_eq!(err.kind(), io::ErrorKind::ResourceBusy);
        assert!(
            err.to_string().contains(&dir.display().to_string()),
            "error names the directory: {err}"
        );
        drop(store);
        let reopened = Store::open_with(&dir, small_opts()).expect("open after drop");
        assert!(reopened.get("k").expect("get").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_superseded_records_and_preserves_live() {
        let dir = temp_store_dir("compact");
        let store = Store::open_with(&dir, small_opts()).expect("open");
        for round in 0..5u32 {
            for i in 0..10u32 {
                store
                    .append(
                        &format!("key-{i}"),
                        round,
                        format!("round-{round}-value-{i}").as_bytes(),
                    )
                    .expect("append");
            }
        }
        let before = store.stats();
        assert!(before.dead_records > 0);
        let report = store.compact().expect("compact");
        assert!(report.victims > 0);
        assert!(report.reclaimed_bytes > 0);
        let after = store.stats();
        assert_eq!(after.live_records, 10);
        assert!(after.dead_bytes < before.dead_bytes);
        for i in 0..10u32 {
            let rec = store.get(&format!("key-{i}")).expect("get").expect("live");
            assert_eq!(rec.version, 4);
            assert_eq!(rec.value, format!("round-4-value-{i}").as_bytes());
        }
        // Recovery after compaction sees the same state.
        drop(store);
        let store = Store::open_with(&dir, small_opts()).expect("reopen");
        for i in 0..10u32 {
            let rec = store.get(&format!("key-{i}")).expect("get").expect("live");
            assert_eq!(rec.version, 4);
        }
        // Appends after compaction land in a segment newer than the
        // compaction output, so replay order still last-wins.
        store.append("key-3", 9, b"newest").expect("append");
        drop(store);
        let store = Store::open_with(&dir, small_opts()).expect("reopen 2");
        assert_eq!(store.get("key-3").expect("get").expect("live").version, 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_a_round_tripped_manifest() {
        let text = "cactus-store manifest v1\ndigest 00000000deadbeef\nentries 2\nk\ta/b/c\t2\t0000abcd\nk\tx/y/z\t1\tffffffff\n";
        let entries = parse_manifest(text).expect("parse");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].key, "a/b/c");
        assert_eq!(entries[0].version, 2);
        assert_eq!(entries[0].crc, 0x0000_abcd);
        assert_eq!(entries[1].crc, 0xffff_ffff);
    }

    #[test]
    fn rejects_malformed_manifests() {
        assert!(parse_manifest("not a manifest\n").is_none());
        assert!(
            parse_manifest("cactus-store manifest v1\nk\tonly-key\n").is_none(),
            "short k line"
        );
        assert!(
            parse_manifest("cactus-store manifest v1\nk\ta\tnot-a-number\t00000000\n").is_none(),
            "bad version"
        );
        assert!(
            parse_manifest("cactus-store manifest v1\nk\ta\t1\tzzzz\n").is_none(),
            "bad crc"
        );
        let empty =
            parse_manifest("cactus-store manifest v1\ndigest cbf29ce484222325\nentries 0\n");
        assert_eq!(empty.expect("empty manifest parses"), Vec::new());
    }

    /// Keys over the renderer tests' alphabet less the manifest's two
    /// separators, tab and line break (no served key holds either).
    fn any_key() -> impl Strategy<Value = String> {
        let alphabet = ['a', 'Z', '_', '7', ' ', '/', '\r', '\\', ',', '"', 'é'];
        prop::collection::vec(proptest::sample::select(&alphabet), 0..12)
            .prop_map(|chars| chars.into_iter().collect())
    }

    fn any_text() -> impl Strategy<Value = String> {
        let alphabet = ['a', 'k', '7', ' ', '\t', '\n', '\\', ',', '"', 'é'];
        prop::collection::vec(proptest::sample::select(&alphabet), 0..24)
            .prop_map(|chars| chars.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_manifest_inverts_write_manifest(
            raw in prop::collection::vec((any_key(), 0u32..u32::MAX, 0u32..u32::MAX), 0..6),
        ) {
            let entries: Vec<Entry> = raw
                .into_iter()
                .map(|(key, version, crc)| Entry { key, version, crc })
                .collect();
            prop_assert_eq!(parse_manifest(&write_manifest(&entries)), Some(entries));
        }

        /// Arbitrary text, with and without the header, parses to `Some`
        /// or `None`.
        #[test]
        fn parsing_arbitrary_text_never_panics(text in any_text()) {
            let _ = parse_manifest(&text);
            let _ = parse_manifest(&format!("{MANIFEST_HEADER}\n{text}"));
        }
    }

    #[test]
    fn manifest_digest_tracks_content_not_layout() {
        let dir_a = temp_store_dir("manifest-a");
        let dir_b = temp_store_dir("manifest-b");
        let a = Store::open_with(&dir_a, small_opts()).expect("open a");
        let b = Store::open_with(&dir_b, small_opts()).expect("open b");
        // Same final content, different write orders and layouts.
        a.append("x", 1, b"one").expect("append");
        a.append("y", 1, b"two").expect("append");
        a.append("x", 2, b"three").expect("append");
        b.append("x", 2, b"three").expect("append");
        b.append("y", 1, b"two").expect("append");
        assert_eq!(manifest_digest(&a.entries()), manifest_digest(&b.entries()));
        a.compact().expect("compact");
        assert_eq!(manifest_digest(&a.entries()), manifest_digest(&b.entries()));
        let m = write_manifest(&a.entries());
        assert!(m.starts_with(MANIFEST_HEADER));
        assert!(m.contains("entries 2"));
        assert!(m.contains(&format!("digest {:016x}", manifest_digest(&a.entries()))));
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn oversized_keys_and_values_are_rejected() {
        let dir = temp_store_dir("limits");
        let store = Store::open_with(&dir, small_opts()).expect("open");
        let long_key = "k".repeat(usize::from(u16::MAX) + 1);
        assert!(store.append(&long_key, 1, b"v").is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
