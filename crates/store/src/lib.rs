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
//! Lock ranks: the active-segment writer holds `STORE_WRITER` (42) and
//! nests the `STORE_INDEX` (45) lock inside it, so index admission happens
//! in append order; readers take only `STORE_INDEX`.

use cactus_obs::lock::{rank, RankedMutex};

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Record header: `len` + `crc`, both little-endian `u32`s.
const HEADER_BYTES: u64 = 8;

/// Upper bound on one payload; anything larger in a segment is treated as
/// corruption by the recovery scan.
const MAX_PAYLOAD_BYTES: u32 = 64 << 20;

/// First line of a rendered manifest.
pub const MANIFEST_HEADER: &str = "cactus-store manifest v1";

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

/// Per-segment accounting, maintained under the index lock.
#[derive(Debug, Clone, Copy, Default)]
struct SegInfo {
    live_records: u64,
    dead_records: u64,
    live_bytes: u64,
    dead_bytes: u64,
    sealed: bool,
}

struct IndexState {
    map: HashMap<String, Loc>,
    segments: BTreeMap<u64, SegInfo>,
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
            index: RankedMutex::new(
                rank::STORE_INDEX,
                "store.index",
                IndexState {
                    map: HashMap::new(),
                    segments: BTreeMap::new(),
                },
            ),
            appends: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            truncations: AtomicU64::new(0),
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

        let mut map: HashMap<String, Loc> = HashMap::new();
        let mut segments: BTreeMap<u64, SegInfo> = BTreeMap::new();
        for &id in &ids {
            let path = self.segment_path(id);
            let bytes = fs::read(&path)?;
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
            let mut info = SegInfo::default();
            for rec in records {
                let record_bytes = HEADER_BYTES + u64::from(rec.len);
                info.live_records += 1;
                info.live_bytes += record_bytes;
                let loc = Loc {
                    segment: id,
                    offset: rec.offset,
                    len: rec.len,
                    version: rec.version,
                    crc: rec.crc,
                };
                if let Some(old) = map.insert(rec.key, loc) {
                    let old_bytes = HEADER_BYTES + u64::from(old.len);
                    if let Some(oi) = segments.get_mut(&old.segment) {
                        oi.live_records -= 1;
                        oi.live_bytes -= old_bytes;
                        oi.dead_records += 1;
                        oi.dead_bytes += old_bytes;
                    } else if old.segment == id {
                        info.live_records -= 1;
                        info.live_bytes -= record_bytes_of(&old);
                        info.dead_records += 1;
                        info.dead_bytes += record_bytes_of(&old);
                    }
                }
            }
            info.sealed = true;
            segments.insert(id, info);
        }

        // The highest-id segment stays active; everything below is sealed.
        let mut writer = self.writer.lock();
        if let Some(&last) = ids.last() {
            writer.next_id = last + 1;
            let file = OpenOptions::new()
                .append(true)
                .open(self.segment_path(last))?;
            let offset = file.metadata()?.len();
            if let Some(info) = segments.get_mut(&last) {
                info.sealed = false;
            }
            writer.active = Some((file, last, offset));
        }
        let mut index = self.index.lock();
        index.map = map;
        index.segments = segments;
        Ok(())
    }

    /// Durably append `value` under `key` at `version`, superseding any
    /// prior record for the key. The record is fsync'd before the index
    /// admits it.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the index is unchanged (the
    /// bytes may still be on disk and are dropped by the next recovery
    /// scan if torn, or harmlessly replayed if complete).
    pub fn append(&self, key: &str, version: u32, value: &[u8]) -> io::Result<()> {
        let payload = encode_payload(key, version, value)?;
        let crc = crc32(&payload);
        let len = payload.len() as u32;
        let mut record = Vec::with_capacity(payload.len() + HEADER_BYTES as usize);
        record.extend_from_slice(&len.to_le_bytes());
        record.extend_from_slice(&crc.to_le_bytes());
        record.extend_from_slice(&payload);

        let mut writer = self.writer.lock();
        // Rotate when the active segment is over the size threshold.
        if let Some((file, id, offset)) = writer.active.take() {
            if offset >= self.opts.segment_max_bytes {
                file.sync_data()?;
                let mut index = self.index.lock();
                if let Some(info) = index.segments.get_mut(&id) {
                    info.sealed = true;
                }
            } else {
                writer.active = Some((file, id, offset));
            }
        }
        if writer.active.is_none() {
            let id = writer.next_id;
            writer.next_id += 1;
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.segment_path(id))?;
            writer.active = Some((file, id, 0));
        }
        let Some((file, id, offset)) = writer.active.as_mut() else {
            return Err(io::Error::other("store writer lost its active segment"));
        };

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
        let mut index = self.index.lock();
        let seg = *id;
        let info = index.segments.entry(seg).or_default();
        info.live_records += 1;
        info.live_bytes += record.len() as u64;
        if let Some(old) = index.map.insert(key.to_owned(), loc) {
            let old_bytes = record_bytes_of(&old);
            if let Some(oi) = index.segments.get_mut(&old.segment) {
                oi.live_records -= 1;
                oi.live_bytes -= old_bytes;
                oi.dead_records += 1;
                oi.dead_bytes += old_bytes;
            }
        }
        drop(index);
        drop(writer);
        self.appends.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Read the live record for `key`, verifying its checksum.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and reports checksum mismatches as
    /// [`io::ErrorKind::InvalidData`].
    pub fn get(&self, key: &str) -> io::Result<Option<Record>> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        // A compaction pass can repoint the loc and delete the old file
        // between our index probe and the read; one retry re-probes.
        for attempt in 0..2 {
            let loc = {
                let index = self.index.lock();
                match index.map.get(key) {
                    Some(loc) => *loc,
                    None => return Ok(None),
                }
            };
            match self.read_record(&loc, key) {
                Ok(rec) => return Ok(Some(rec)),
                Err(e) if attempt == 0 => {
                    let _ = e; // retry once against a fresh loc
                }
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::other("store get retry fell through"))
    }

    fn read_record(&self, loc: &Loc, key: &str) -> io::Result<Record> {
        let mut file = File::open(self.segment_path(loc.segment))?;
        file.seek(SeekFrom::Start(loc.offset))?;
        let mut header = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut header)?;
        let len = le_u32(&header);
        let crc = le_u32(header.get(4..).unwrap_or(&[]));
        if len != loc.len || crc != loc.crc {
            return Err(invalid(format!(
                "record header mismatch for {key:?} in seg-{}",
                loc.segment
            )));
        }
        let mut payload = vec![0u8; len as usize];
        file.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            return Err(invalid(format!(
                "record checksum mismatch for {key:?} in seg-{}",
                loc.segment
            )));
        }
        let (got_key, version, value) = decode_payload(&payload)?;
        if got_key != key {
            return Err(invalid(format!(
                "index pointed {key:?} at a record for {got_key:?}"
            )));
        }
        Ok(Record {
            version,
            value,
            crc,
        })
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

    /// Render the manifest page: header, digest, entry count, then one
    /// `k\t<key>\t<version>\t<crc>` line per live key in sorted order. The
    /// digest is FNV-1a over the entry lines, so two replicas holding the
    /// same live records render the same digest.
    #[must_use]
    pub fn manifest(&self) -> String {
        let entries = self.entries();
        let mut body = String::new();
        for e in &entries {
            body.push_str(&format!("k\t{}\t{}\t{:08x}\n", e.key, e.version, e.crc));
        }
        let digest = fnv1a64(body.as_bytes());
        format!(
            "{MANIFEST_HEADER}\ndigest {digest:016x}\nentries {}\n{body}",
            entries.len()
        )
    }

    /// The manifest digest alone (see [`Store::manifest`]).
    #[must_use]
    pub fn manifest_digest(&self) -> u64 {
        let entries = self.entries();
        let mut body = String::new();
        for e in &entries {
            body.push_str(&format!("k\t{}\t{}\t{:08x}\n", e.key, e.version, e.crc));
        }
        fnv1a64(body.as_bytes())
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
            if let Some(info) = index.segments.get_mut(&id) {
                info.sealed = true;
            }
        }

        let active_floor = writer.next_id;
        let victims: Vec<u64> = {
            let index = self.index.lock();
            index
                .segments
                .iter()
                .filter(|(&id, info)| {
                    id < active_floor
                        && info.sealed
                        && (info.dead_records > 0 || info.live_records == 0)
                })
                .map(|(&id, _)| id)
                .collect()
        };
        if victims.is_empty() {
            return Ok(CompactReport::default());
        }

        let compact_id = writer.next_id;
        writer.next_id += 1;

        // Live records to carry over, in (segment, offset) log order.
        let mut moves: Vec<(String, Loc)> = {
            let index = self.index.lock();
            index
                .map
                .iter()
                .filter(|(_, loc)| victims.contains(&loc.segment))
                .map(|(k, loc)| (k.clone(), *loc))
                .collect()
        };
        moves.sort_by_key(|(_, loc)| (loc.segment, loc.offset));

        let mut victim_bytes = 0u64;
        for &v in &victims {
            victim_bytes += fs::metadata(self.segment_path(v))?.len();
        }

        let mut new_locs: Vec<(String, Loc)> = Vec::with_capacity(moves.len());
        let mut out_len = 0u64;
        if !moves.is_empty() {
            let mut out = OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(self.segment_path(compact_id))?;
            for (key, loc) in &moves {
                let rec = self.read_record(loc, key)?;
                let payload = encode_payload(key, rec.version, &rec.value)?;
                let mut buf = Vec::with_capacity(payload.len() + HEADER_BYTES as usize);
                buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                buf.extend_from_slice(&rec.crc.to_le_bytes());
                buf.extend_from_slice(&payload);
                out.write_all(&buf)?;
                new_locs.push((
                    key.clone(),
                    Loc {
                        segment: compact_id,
                        offset: out_len,
                        len: payload.len() as u32,
                        version: rec.version,
                        crc: rec.crc,
                    },
                ));
                out_len += buf.len() as u64;
            }
            out.sync_data()?;
        }

        {
            let mut index = self.index.lock();
            if !new_locs.is_empty() {
                let mut info = SegInfo {
                    sealed: true,
                    ..SegInfo::default()
                };
                for (_, loc) in &new_locs {
                    info.live_records += 1;
                    info.live_bytes += record_bytes_of(loc);
                }
                index.segments.insert(compact_id, info);
                for (key, loc) in new_locs {
                    index.map.insert(key, loc);
                }
            }
            for v in &victims {
                index.segments.remove(v);
            }
        }
        // Readers racing this deletion re-probe the index and land on the
        // compaction segment.
        for &v in &victims {
            fs::remove_file(self.segment_path(v))?;
        }
        drop(writer);

        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(CompactReport {
            victims: victims.len(),
            copied: moves.len(),
            reclaimed_bytes: victim_bytes.saturating_sub(out_len),
        })
    }

    /// Arm the test-only torn-append fault: the next [`Store::append`]
    /// writes half its record, syncs, and errors — simulating a crash
    /// mid-write for the recovery tests.
    #[doc(hidden)]
    pub fn arm_torn_append(&self) {
        self.torn_append_armed.store(true, Ordering::Relaxed);
    }
}

/// A record decoded by the recovery scan.
struct ScannedRecord {
    offset: u64,
    len: u32,
    crc: u32,
    key: String,
    version: u32,
}

/// Walk one segment's bytes; returns the byte length of the valid prefix
/// and the records inside it. Stops at the first short, oversized, or
/// checksum-mismatching record.
fn scan_segment(bytes: &[u8]) -> (u64, Vec<ScannedRecord>) {
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

fn record_bytes_of(loc: &Loc) -> u64 {
    HEADER_BYTES + u64::from(loc.len)
}

fn encode_payload(key: &str, version: u32, value: &[u8]) -> io::Result<Vec<u8>> {
    let key_bytes = key.as_bytes();
    if key_bytes.len() > usize::from(u16::MAX) {
        return Err(invalid(format!("key too long ({} bytes)", key_bytes.len())));
    }
    let total = 2 + key_bytes.len() + 4 + value.len();
    if total > MAX_PAYLOAD_BYTES as usize {
        return Err(invalid(format!("value too large ({} bytes)", value.len())));
    }
    let mut payload = Vec::with_capacity(total);
    payload.extend_from_slice(&(key_bytes.len() as u16).to_le_bytes());
    payload.extend_from_slice(key_bytes);
    payload.extend_from_slice(&version.to_le_bytes());
    payload.extend_from_slice(value);
    Ok(payload)
}

fn decode_payload(payload: &[u8]) -> io::Result<(String, u32, Vec<u8>)> {
    let key_len = payload
        .get(..2)
        .map(|b| usize::from(le_u16(b)))
        .ok_or_else(|| invalid("payload shorter than key length".to_owned()))?;
    let key = payload
        .get(2..2 + key_len)
        .ok_or_else(|| invalid("payload shorter than key".to_owned()))?;
    let key = std::str::from_utf8(key)
        .map_err(|_| invalid("record key is not UTF-8".to_owned()))?
        .to_owned();
    let vstart = 2 + key_len;
    let version = payload
        .get(vstart..vstart + 4)
        .map(le_u32)
        .ok_or_else(|| invalid("payload shorter than version".to_owned()))?;
    let value = payload.get(vstart + 4..).unwrap_or(&[]).to_vec();
    Ok((key, version, value))
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

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
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
    let mut crc = u32::MAX;
    for &b in data {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = TABLE[idx & 0xFF] ^ (crc >> 8);
    }
    !crc
}

/// FNV-1a, 64-bit — the manifest digest.
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
        assert_eq!(a.manifest_digest(), b.manifest_digest());
        a.compact().expect("compact");
        assert_eq!(a.manifest_digest(), b.manifest_digest());
        let m = a.manifest();
        assert!(m.starts_with(MANIFEST_HEADER));
        assert!(m.contains("entries 2"));
        assert!(m.contains(&format!("digest {:016x}", a.manifest_digest())));
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
