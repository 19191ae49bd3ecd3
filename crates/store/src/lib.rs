//! Crash-safe content-addressed store for finished CABA cell results.
//!
//! A sweep cell's result (a `StatsSummary` plus wall time, a few hundred
//! bytes) is a pure function of its key, so a store keyed by content hash
//! lets a killed sweep — or an entirely fresh process — pick up exactly
//! where a previous one left off, bit-identically. That only holds if the
//! store itself can never lie: a torn write, short read, or stale temp
//! file must surface as a *miss* (recompute) or a typed error, never as
//! corrupt bytes decoded into a result.
//!
//! # Entry container (format version 1)
//!
//! Every object is a sealed container reusing the `CABASNAP`
//! checksum-before-decode contract ([`caba_stats::checksum`]):
//!
//! | field    | encoding                 | purpose                      |
//! |----------|--------------------------|------------------------------|
//! | magic    | 8 raw bytes `"CABASTOR"` | file-type identification     |
//! | version  | `u32`                    | format evolution gate        |
//! | kind     | `u8`, always 1           | the one entry kind there is  |
//! | key      | `u64`                    | content hash, = the filename |
//! | label    | length-prefixed string   | human-readable provenance    |
//! | payload  | length-prefixed bytes    | caller bytes, opaque         |
//! | checksum | trailing `u64` (LE)      | FNV-1a over everything above |
//!
//! The checksum is verified **before** any field is decoded. The `key`
//! field is then cross-checked against both the filename and the
//! caller's request, so a valid entry renamed to the wrong name is also
//! caught.
//!
//! # On-disk layout
//!
//! ```text
//! <root>/
//!   objects/rs/<key:016x>.entry   cell results
//!   tmp/                          in-flight writes (pre-rename)
//!   quarantine/                   corrupt entries, moved — never deleted
//!   lru.log                       self-checksummed touch log, compacted in place
//! ```
//!
//! A store written when it also kept machine snapshots has an `sn`
//! directory beside `rs` and `touch sn` lines in its log. The store never
//! lists, reads, scrubs, evicts or deletes that directory, and the next
//! compaction or evicting GC rewrites the log without those lines.
//!
//! # Write discipline
//!
//! `put` writes the sealed container to `tmp/`, fsyncs the file,
//! `rename(2)`s it onto its final name, and fsyncs the parent directory.
//! A crash at any point leaves either the old state, a stale temp file
//! (swept by [`Store::scrub`]), or the complete new entry — never a torn
//! visible entry at the final name. Failed in-flight writes are cleaned
//! up best-effort; a failed cleanup again just leaves a stale temp.
//!
//! # Scrub and quarantine
//!
//! [`Store::scrub`] re-verifies every entry's checksum and header and
//! *moves* anything corrupt into `quarantine/` (preserving the bytes for
//! forensics — the store never deletes data it cannot prove is garbage).
//! Stale temp files are quarantined the same way. [`Store::gc`] is the
//! one legitimate deleter: an LRU sweep driven by the touch log that
//! evicts verified-live entries until the store fits its size cap, and
//! then rewrites the log to name only the entries it left.

pub mod fsio;
mod touchlog;

use caba_stats::checksum::{self, Fnv64};
use caba_stats::fxhash::FxHashSet;
use caba_stats::json;
use caba_stats::snap::{SnapError, SnapshotReader, SnapshotWriter};
pub use fsio::{FaultCounts, FaultFlags, FaultFs, FaultRates, RealFs, StoreFs};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use touchlog::{push_touch_line, Replay};

/// First bytes of every store entry.
pub const MAGIC: &[u8; 8] = b"CABASTOR";

/// Current entry format version. Bump on any layout change.
pub const FORMAT_VERSION: u32 = 1;

/// The kind byte every entry's header carries: 1, the tag result entries
/// were written with when the store also kept machine snapshots (0).
const RESULT_KIND: u8 = 1;

/// The identity of a machine snapshot: which machine, which program,
/// which design point, and how far it had run. Two snapshots with equal
/// keys are interchangeable bytes.
///
/// It, [`Store::put_snapshot`] and [`Store::get_snapshot`] exist only
/// because the benchmark in `benchmark/` calls them; once it stops
/// (ROADMAP items 6(b) and 11) all three go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapKey {
    /// Canonical configuration hash (`caba_sim::snapshot::config_hash`).
    pub config_hash: u64,
    /// Program/content hash. Callers must fold in anything the program
    /// hash alone does not cover (app name, data scale) — the store
    /// trusts this value as the full program identity.
    pub kernel_hash: u64,
    /// Design label the snapshot was taken on.
    pub design: String,
    /// Cycle the machine had reached.
    pub cycle: u64,
}

impl SnapKey {
    /// The content hash this snapshot files under.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.update(b"caba-snapkey-v1|");
        h.update(&self.config_hash.to_le_bytes());
        h.update(&self.kernel_hash.to_le_bytes());
        h.update(self.design.as_bytes());
        h.update(b"|");
        h.update(&self.cycle.to_le_bytes());
        h.finish()
    }

    /// Human-readable provenance recorded in the entry label.
    pub fn label(&self) -> String {
        format!(
            "snap cfg={:016x} krn={:016x} design={} cycle={}",
            self.config_hash, self.kernel_hash, self.design, self.cycle
        )
    }
}

/// Why a store operation failed. Corruption is *not* an error — corrupt
/// entries quarantine and read as misses — so every variant here is an
/// environmental failure the caller may want to retry or report.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed.
    Io {
        /// Which store operation failed (e.g. `"write temp"`, `"rename"`).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "store {op} failed on {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
        }
    }
}

fn ioerr(op: &'static str, path: &Path, source: io::Error) -> StoreError {
    StoreError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

/// One quarantined file in a [`ScrubReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// Path relative to the store root (e.g. `objects/rs/....entry`).
    pub rel_path: String,
    /// Why it was quarantined.
    pub reason: String,
}

/// Outcome of a [`Store::scrub`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Entries whose checksum and header verified.
    pub ok: u64,
    /// Files moved into `quarantine/` (corrupt entries + stale temps).
    pub quarantined: Vec<Quarantined>,
    /// Files that could not be scrubbed (I/O error mid-scrub); they are
    /// left in place for a later pass.
    pub skipped: Vec<Quarantined>,
}

impl ScrubReport {
    /// True when every entry verified and nothing needed quarantine.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.skipped.is_empty()
    }

    /// Serializes the report as JSON (dependency-free, like the sweep
    /// reports).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"ok\": ");
        json::write_u64(&mut s, self.ok);
        s.push_str(if self.is_clean() {
            ",\n  \"clean\": true"
        } else {
            ",\n  \"clean\": false"
        });
        for (key, items) in [
            (",\n  \"quarantined\": [", &self.quarantined),
            (",\n  \"skipped\": [", &self.skipped),
        ] {
            s.push_str(key);
            for (i, q) in items.iter().enumerate() {
                s.push_str(if i > 0 { ",\n" } else { "\n" });
                s.push_str("    {\"path\": \"");
                json::write_escaped(&mut s, &q.rel_path);
                s.push_str("\", \"reason\": \"");
                json::write_escaped(&mut s, &q.reason);
                s.push_str("\"}");
            }
            s.push_str(if items.is_empty() { "]" } else { "\n  ]" });
        }
        s.push_str("\n}\n");
        s
    }
}

/// Outcome of a [`Store::gc`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Store size before the sweep (entry bytes only).
    pub before_bytes: u64,
    /// Store size after the sweep.
    pub after_bytes: u64,
    /// Entry file names evicted, oldest first.
    pub evicted: Vec<String>,
    /// Evictions that failed (entry left in place).
    pub failed: u64,
}

impl GcReport {
    /// Serializes the report as JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"before_bytes\": ");
        json::write_u64(&mut s, self.before_bytes);
        s.push_str(",\n  \"after_bytes\": ");
        json::write_u64(&mut s, self.after_bytes);
        s.push_str(",\n  \"evicted\": [");
        for (i, name) in self.evicted.iter().enumerate() {
            s.push_str(if i > 0 { ", \"" } else { "\"" });
            json::write_escaped(&mut s, name);
            s.push('"');
        }
        s.push_str("],\n  \"failed\": ");
        json::write_u64(&mut s, self.failed);
        s.push_str("\n}\n");
        s
    }
}

/// A point-in-time inventory of the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Result entries on disk.
    pub results: u64,
    /// Total entry bytes.
    pub entry_bytes: u64,
    /// Files sitting in `quarantine/`.
    pub quarantined: u64,
    /// Stale files in `tmp/`.
    pub stale_temps: u64,
    /// Cache hits served by this `Store` handle (process-local).
    pub hits: u64,
    /// Cache misses served by this `Store` handle (process-local).
    pub misses: u64,
}

impl StoreStats {
    /// Serializes the stats as JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        for (key, n) in [
            ("{\n  \"results\": ", self.results),
            (",\n  \"entry_bytes\": ", self.entry_bytes),
            (",\n  \"quarantined\": ", self.quarantined),
            (",\n  \"stale_temps\": ", self.stale_temps),
            (",\n  \"hits\": ", self.hits),
            (",\n  \"misses\": ", self.misses),
        ] {
            s.push_str(key);
            json::write_u64(&mut s, n);
        }
        s.push_str("\n}\n");
        s
    }
}

struct Counters {
    /// Monotonic sequence for LRU touches and temp-file uniqueness.
    next_seq: u64,
    hits: u64,
    misses: u64,
}

/// What this handle knows of `lru.log` without reading it: enough to
/// decide, per touch, whether the log is due for compaction.
struct TouchLog {
    /// Lines in the log: counted at open and whenever this handle rewrites
    /// the log, plus this handle's appends.
    lines: u64,
    /// Keys of the entries the log names.
    live: FxHashSet<u64>,
    /// No compaction below this many lines: [`COMPACT_MIN_LINES`], raised
    /// past the current length after a failed attempt.
    compact_above: u64,
    /// The lines being appended, kept so a touch formats into it instead
    /// of a fresh `String`.
    pending: String,
}

impl TouchLog {
    /// The log was just read, or written, as `lines` lines naming `entries`.
    fn reset(&mut self, lines: u64, entries: impl Iterator<Item = u64>) {
        self.lines = lines;
        self.live = entries.collect();
    }
}

/// The store handle. All methods take `&self`; internal counters are
/// mutex-guarded so a handle can be shared across sweep worker threads.
///
/// Every directory and the log's path are joined once, at open, so a `get`
/// builds one path (its entry's) and a touch none.
pub struct Store {
    /// `objects/rs`, where every entry lives.
    objects: PathBuf,
    tmp: PathBuf,
    quarantine: PathBuf,
    lru_log: PathBuf,
    fs: Box<dyn StoreFs>,
    counters: Mutex<Counters>,
    touch_log: Mutex<TouchLog>,
}

const LRU_LOG: &str = "lru.log";

/// An entry's file name, `<key:016x>.entry`, without a `String`.
fn entry_file_name(key: u64) -> [u8; 22] {
    let mut name = *b"0000000000000000.entry";
    name[..16].copy_from_slice(&checksum::hex16(key));
    name
}

/// What one read call has found for one of its keys.
enum Read {
    /// The entry file's bytes, as read and not yet verified.
    Entry(Vec<u8>),
    /// A verified entry's payload.
    Hit(Vec<u8>),
    /// No entry, or a corrupt one, now quarantined.
    Miss,
    /// The entry could not be read.
    Failed(StoreError),
}

impl Read {
    /// The bytes of a read entry not yet verified.
    fn entry_bytes(&self) -> &[u8] {
        match self {
            Read::Entry(bytes) => bytes,
            _ => unreachable!("only a read entry is verified"),
        }
    }

    fn into_result(self) -> Result<Option<Vec<u8>>, StoreError> {
        match self {
            Read::Hit(payload) => Ok(Some(payload)),
            Read::Miss => Ok(None),
            Read::Failed(e) => Err(e),
            Read::Entry(_) => unreachable!("every read entry is settled"),
        }
    }
}

/// A verified entry's bytes trimmed, in place, down to its payload: the
/// last field, `payload_len` bytes ending where the checksum starts.
fn into_payload(mut bytes: Vec<u8>, payload_len: usize) -> Vec<u8> {
    let end = bytes.len() - 8;
    bytes.truncate(end);
    bytes.drain(..end - payload_len);
    bytes
}

/// A touch log this short is never compacted.
const COMPACT_MIN_LINES: u64 = 1024;
/// Nor is one holding fewer than this many lines per entry it names: a
/// store that mostly puts (a few touches per entry) never pays for a
/// compaction, one that mostly re-reads the same entries pays one replay
/// per `COMPACT_LINES_PER_ENTRY - 1` touches of each.
const COMPACT_LINES_PER_ENTRY: u64 = 8;

/// The key in an entry's file name (`<key:016x>.entry`).
fn entry_key(file_name: &str) -> Option<u64> {
    let hex = file_name.strip_suffix(".entry")?;
    u64::from_str_radix(hex, 16).ok()
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root` on the real
    /// filesystem.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with_fs(root, Box::new(RealFs))
    }

    /// Opens a store over an explicit filesystem — the seam the chaos
    /// tests use to thread a [`FaultFs`] underneath.
    pub fn open_with_fs(
        root: impl Into<PathBuf>,
        fs: Box<dyn StoreFs>,
    ) -> Result<Self, StoreError> {
        let root = root.into();
        let objects = root.join("objects").join("rs");
        let (tmp, quarantine) = (root.join("tmp"), root.join("quarantine"));
        for dir in [&objects, &tmp, &quarantine] {
            fs.create_dir_all(dir)
                .map_err(|e| ioerr("create dir", dir, e))?;
        }
        let mut store = Store {
            lru_log: root.join(LRU_LOG),
            objects,
            tmp,
            quarantine,
            fs,
            counters: Mutex::new(Counters {
                next_seq: 0,
                hits: 0,
                misses: 0,
            }),
            touch_log: Mutex::new(TouchLog {
                lines: 0,
                live: FxHashSet::default(),
                compact_above: COMPACT_MIN_LINES,
                pending: String::new(),
            }),
        };
        // Resume the touch sequence past anything already logged so new
        // touches sort after old ones.
        let replay = store.replay_touches();
        store.counters.get_mut().expect("store counters").next_seq =
            replay.max_seq.map_or(0, |s| s + 1);
        let log = store.touch_log.get_mut().expect("touch log");
        log.reset(replay.lines, replay.entries().iter().copied());
        Ok(store)
    }

    /// Cache hits served by this handle (process-local, for tests and
    /// sweep summaries).
    pub fn hit_count(&self) -> u64 {
        self.counters.lock().expect("store counters").hits
    }

    /// Cache misses served by this handle.
    pub fn miss_count(&self) -> u64 {
        self.counters.lock().expect("store counters").misses
    }

    /// `objects/rs/<key:016x>.entry`, in one allocation.
    fn entry_path(&self, key: u64) -> PathBuf {
        let dir = &self.objects;
        let name = entry_file_name(key);
        let mut path = PathBuf::with_capacity(dir.as_os_str().len() + 1 + name.len());
        path.push(dir);
        path.push(std::str::from_utf8(&name).expect("hex digits are ASCII"));
        path
    }

    fn bump_seq(&self) -> u64 {
        let mut c = self.counters.lock().expect("store counters");
        let s = c.next_seq;
        c.next_seq += 1;
        s
    }

    // ---- entry encode/decode -------------------------------------------

    fn encode_entry(key: u64, label: &str, payload: &[u8]) -> Vec<u8> {
        // Header, two length prefixes, and the checksum `seal` appends.
        let fixed = MAGIC.len() + 4 + 1 + 8 + 8 + 8 + 8;
        let mut w = SnapshotWriter::with_capacity(fixed + label.len() + payload.len());
        w.raw(MAGIC);
        w.u32(FORMAT_VERSION);
        w.u8(RESULT_KIND);
        w.u64(key);
        w.str(label);
        w.bytes(payload);
        checksum::seal(w.into_bytes())
    }

    /// Decodes a sealed entry, verifying checksum (first), magic,
    /// version, kind, and key. Returns `(label, payload)`, borrowed from
    /// `bytes`; the payload is the last field, so it ends where the
    /// checksum starts.
    fn decode_entry(bytes: &[u8], want_key: u64) -> Result<(&str, &[u8]), String> {
        let body = checksum::verify_sealed(bytes).ok_or("checksum mismatch")?;
        Self::decode_body(body, want_key)
    }

    /// [`decode_entry`](Self::decode_entry) of a body whose checksum has
    /// verified: magic, version, kind and key, then `(label, payload)`.
    fn decode_body(body: &[u8], want_key: u64) -> Result<(&str, &[u8]), String> {
        let mut r = SnapshotReader::new(body);
        let magic = r.raw(MAGIC.len()).map_err(|e| e.to_string())?;
        if magic != MAGIC {
            return Err("bad magic".to_string());
        }
        let version = r.u32().map_err(|e| e.to_string())?;
        if version != FORMAT_VERSION {
            return Err(format!("unsupported format version {version}"));
        }
        let kind = r.u8().map_err(|e| e.to_string())?;
        if kind != RESULT_KIND {
            return Err(format!("bad kind tag {kind}"));
        }
        let key = r.u64().map_err(|e| e.to_string())?;
        if key != want_key {
            return Err(format!("entry key {key:016x} filed under {want_key:016x}"));
        }
        let label = std::str::from_utf8(r.bytes().map_err(|e| e.to_string())?).map_err(|_| {
            SnapError::Invariant {
                what: "string is not UTF-8",
            }
            .to_string()
        })?;
        let payload = r.bytes().map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        Ok((label, payload))
    }

    // ---- put / get -----------------------------------------------------

    /// [`put_result`](Store::put_result) of a machine snapshot, under
    /// `key`'s hash and label. Kept only because `benchmark/` calls it,
    /// as it calls `Sweep::journal`; ROADMAP items 6(b) and 11 delete it.
    pub fn put_snapshot(&self, key: &SnapKey, snapshot_bytes: &[u8]) -> Result<(), StoreError> {
        self.put_result(key.hash(), &key.label(), snapshot_bytes)
    }

    /// [`get_result`](Store::get_result) of `key`'s hash. Kept only because
    /// `benchmark/` calls it; ROADMAP items 6(b) and 11 delete it.
    pub fn get_snapshot(&self, key: &SnapKey) -> Result<Option<Vec<u8>>, StoreError> {
        self.get_result(key.hash())
    }

    /// Stores a cell result under the caller's content key (the sweep
    /// cell key). Overwrites an existing entry atomically (same bytes by
    /// construction).
    pub fn put_result(&self, key: u64, label: &str, payload: &[u8]) -> Result<(), StoreError> {
        let sealed = Self::encode_entry(key, label, payload);
        let final_path = self.entry_path(key);
        let tmp_path = self
            .tmp
            .join(format!("rs-{key:016x}-{:08x}.tmp", self.bump_seq()));

        if let Err(e) = self.fs.write_sync(&tmp_path, &sealed) {
            // The temp may hold a torn prefix; try to clean it up. A
            // failed cleanup just leaves a stale temp for scrub.
            let _ = self.fs.remove_file(&tmp_path);
            return Err(ioerr("write temp", &tmp_path, e));
        }
        if let Err(e) = self.fs.rename(&tmp_path, &final_path) {
            let _ = self.fs.remove_file(&tmp_path);
            return Err(ioerr("rename", &final_path, e));
        }
        self.fs
            .sync_dir(&self.objects)
            .map_err(|e| ioerr("sync dir", &self.objects, e))?;
        self.touch(self.bump_seq(), [key].into_iter());
        Ok(())
    }

    /// Fetches a cell result. `Ok(None)` means miss — absent, or
    /// corrupt-and-quarantined. The one-key case of
    /// [`get_results`](Store::get_results).
    pub fn get_result(&self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let mut read = [Read::Miss];
        self.get_many(&[key], &mut read);
        let [read] = read;
        read.into_result()
    }

    /// Fetches many cell results in one call: element `i` is what
    /// [`get_result`](Store::get_result)`(keys[i])` would return, with the
    /// same hit and miss counts and the same repairs. The call verifies the
    /// entries' checksums four at a time, updates the counters once and
    /// appends every hit's touch line to `lru.log` in one `append_sync`;
    /// unless it quarantines an entry, those lines are the ones the
    /// one-key calls would have appended.
    pub fn get_results(&self, keys: &[u64]) -> Vec<Result<Option<Vec<u8>>, StoreError>> {
        let mut reads: Vec<Read> = keys.iter().map(|_| Read::Miss).collect();
        self.get_many(keys, &mut reads);
        reads.into_iter().map(Read::into_result).collect()
    }

    /// The store's one read path, for 1..n keys: `reads[i]` becomes what the
    /// store holds under `keys[i]`. Every entry is read, its checksum
    /// verified (four entries at a time) and its header checked. An entry
    /// that fails either is read once more, since the first read may have
    /// been short, and quarantined if it fails again. The counters move
    /// once, and the hits' touch lines, their sequences reserved in key
    /// order, go to `lru.log` in one append.
    fn get_many(&self, keys: &[u64], reads: &mut [Read]) {
        debug_assert_eq!(keys.len(), reads.len());
        for (read, &key) in reads.iter_mut().zip(keys) {
            *read = self.read_entry(key);
        }
        // Indices of read entries not yet verified: a group of four takes
        // four interleaved checksum chains, a remainder one chain each.
        let mut group = [0; 4];
        let mut grouped = 0;
        for i in 0..reads.len() {
            if !matches!(reads[i], Read::Entry(_)) {
                continue;
            }
            group[grouped] = i;
            grouped += 1;
            if grouped == 4 {
                let sums_ok = checksum::verify_sealed_x4(group.map(|i| reads[i].entry_bytes()))
                    .map(|body| body.is_some());
                for (&i, sum_ok) in group.iter().zip(sums_ok) {
                    self.settle(keys[i], &mut reads[i], sum_ok);
                }
                grouped = 0;
            }
        }
        for &i in &group[..grouped] {
            let sum_ok = checksum::verify_sealed(reads[i].entry_bytes()).is_some();
            self.settle(keys[i], &mut reads[i], sum_ok);
        }

        let hits = reads.iter().filter(|r| matches!(r, Read::Hit(_))).count() as u64;
        let misses = reads.iter().filter(|r| matches!(r, Read::Miss)).count() as u64;
        let first_seq = {
            let mut c = self.counters.lock().expect("store counters");
            c.hits += hits;
            c.misses += misses;
            c.next_seq += hits;
            c.next_seq - hits
        };
        if hits > 0 {
            let hit_keys = keys.iter().zip(&*reads);
            let hit_keys =
                hit_keys.filter_map(|(&key, r)| matches!(r, Read::Hit(_)).then_some(key));
            self.touch(first_seq, hit_keys);
        }
    }

    /// One read of `key`'s entry file: its bytes, unverified, or a miss
    /// when there is no such file.
    fn read_entry(&self, key: u64) -> Read {
        let path = self.entry_path(key);
        match self.fs.read(&path) {
            Ok(bytes) => Read::Entry(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Read::Miss,
            Err(e) => Read::Failed(ioerr("read", &path, e)),
        }
    }

    /// Turns a read entry into a hit, or repairs it. `sum_ok` says whether
    /// its checksum verified; a hit also needs its header to be this
    /// entry's. Anything else can be a transient short read, so the entry
    /// is read once more and decoded whole; two failures in a row mean the
    /// bytes on disk are corrupt, and the entry is quarantined (its bytes
    /// preserved) and reads as a miss.
    fn settle(&self, key: u64, read: &mut Read, sum_ok: bool) {
        let Read::Entry(bytes) = std::mem::replace(read, Read::Miss) else {
            unreachable!("only a read entry is settled");
        };
        let body = &bytes[..bytes.len().saturating_sub(8)];
        let first = match sum_ok {
            true => Self::decode_body(body, key).ok(),
            false => None,
        };
        if let Some((_, payload)) = first {
            let payload_len = payload.len();
            *read = Read::Hit(into_payload(bytes, payload_len));
            return;
        }
        *read = match self.read_entry(key) {
            Read::Entry(bytes) => match Self::decode_entry(&bytes, key) {
                Ok((_, payload)) => {
                    let payload_len = payload.len();
                    Read::Hit(into_payload(bytes, payload_len))
                }
                Err(_) => {
                    self.quarantine_file(&self.entry_path(key));
                    Read::Miss
                }
            },
            other => other,
        };
    }

    // ---- quarantine ----------------------------------------------------

    /// Moves `path` into `quarantine/`, never deleting. Best-effort: a
    /// failed move leaves the file where it is for the next scrub.
    fn quarantine_file(&self, path: &Path) -> bool {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unnamed".to_string());
        // Disambiguate collisions with the touch sequence rather than
        // overwriting previously quarantined bytes.
        let dest = self
            .quarantine
            .join(format!("{:08x}-{name}", self.bump_seq()));
        self.fs.rename(path, &dest).is_ok()
    }

    // ---- LRU touch log -------------------------------------------------

    /// Records a use of each of `keys` in the touch log: one line per key, with sequences from `first_seq` up, all in
    /// one append. Best-effort: the log is advisory (it only orders GC
    /// eviction), so an injected append fault must not fail the
    /// surrounding put/get, and costs only these touches.
    ///
    /// The log stays bounded: once it holds more than
    /// max([`COMPACT_MIN_LINES`], [`COMPACT_LINES_PER_ENTRY`] x the entries
    /// it names) lines, the append that crossed the line compacts it, so
    /// the log overshoots the trigger by less than one append's lines. This
    /// handle's appends and its compaction share one lock, so it never
    /// drops its own touches; a touch *another* handle appends between the
    /// compaction's replay and its rename is lost, which costs that entry
    /// some GC seniority and nothing else.
    fn touch(&self, first_seq: u64, keys: impl Iterator<Item = u64>) {
        let mut log = self.touch_log.lock().expect("touch log");
        let log = &mut *log;
        log.pending.clear();
        for (seq, key) in (first_seq..).zip(keys) {
            push_touch_line(&mut log.pending, key, seq);
            log.lines += 1;
            log.live.insert(key);
        }
        let _ = self.fs.append_sync(&self.lru_log, log.pending.as_bytes());
        let due = log
            .compact_above
            .max(COMPACT_LINES_PER_ENTRY * log.live.len() as u64);
        if log.lines > due {
            self.compact_touches(log);
        }
    }

    /// Rewrites the touch log as one line per entry, each carrying the
    /// entry's highest sequence — exactly what a replay makes of the long
    /// log, so GC order and the resumed sequence do not change. The replay
    /// also refreshes what this handle knows of the log, so it notices that
    /// another handle's GC shortened it. A failed rewrite doubles the
    /// trigger, so a disk that keeps failing costs one attempt per
    /// doubling, not one per touch.
    fn compact_touches(&self, log: &mut TouchLog) {
        let latest = self.replay_touches().latest_in_order();
        if !self.rewrite_touches(log, &latest) {
            log.compact_above = 2 * log.lines;
        }
    }

    /// Replaces the touch log with one line per entry of `entries` and, if
    /// that worked, makes `log` describe the new file. The new log is
    /// fsynced under `tmp/` and renamed over the old one: a crash leaves
    /// the old log, the new log, or the old log plus a stale temp for
    /// [`scrub`](Store::scrub) — each replayable. Any failure leaves the old
    /// log, and `log`, as they were.
    fn rewrite_touches(&self, log: &mut TouchLog, entries: &[(u64, u64)]) -> bool {
        let tmp_path = self.tmp.join(format!("lru-{:08x}.tmp", self.bump_seq()));
        // `append_sync` onto a fresh name, not `write_sync`: that call is
        // the store's object write, and a read-only workload makes none.
        // Fresh, because a crashed process may have left this very name.
        let _ = self.fs.remove_file(&tmp_path);
        let swapped = self
            .fs
            .append_sync(&tmp_path, touchlog::render(entries).as_bytes())
            .and_then(|()| self.fs.rename(&tmp_path, &self.lru_log));
        match swapped {
            Ok(()) => {
                log.reset(entries.len() as u64, entries.iter().map(|(key, _)| *key));
                log.compact_above = COMPACT_MIN_LINES;
            }
            Err(_) => {
                let _ = self.fs.remove_file(&tmp_path);
            }
        }
        swapped.is_ok()
    }

    /// Reads and replays the touch log as it is on disk now — another
    /// handle may have appended to it, or replaced it. An unreadable log
    /// replays as an empty one.
    fn replay_touches(&self) -> Replay {
        Replay::of(&self.fs.read(&self.lru_log).unwrap_or_default())
    }

    /// The file names in `objects/rs/`.
    fn list_objects(&self) -> Result<Vec<String>, StoreError> {
        let dir = &self.objects;
        self.fs.list(dir).map_err(|e| ioerr("list objects", dir, e))
    }

    // ---- scrub ---------------------------------------------------------

    /// Verifies every entry (checksum before decode, then header and
    /// key/filename agreement) and quarantines anything corrupt, plus
    /// all stale temp files. Never deletes.
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        let mut report = ScrubReport::default();
        let names = self.list_objects()?;
        for name in names {
            let rel = format!("objects/rs/{name}");
            let path = self.objects.join(&name);
            let Some(key) = entry_key(&name) else {
                self.scrub_out(&mut report, &path, rel, "unrecognized file name".into());
                continue;
            };
            // Read twice on decode failure, like `get`, so a
            // transient short read does not quarantine a good entry.
            let mut verdict: Result<(), String> = Err("unreadable".to_string());
            for _attempt in 0..2 {
                match self.fs.read(&path) {
                    Ok(bytes) => match Self::decode_entry(&bytes, key) {
                        Ok(_) => {
                            verdict = Ok(());
                            break;
                        }
                        Err(reason) => verdict = Err(reason),
                    },
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {
                        verdict = Ok(()); // raced away; nothing to scrub
                        break;
                    }
                    Err(e) => verdict = Err(format!("read failed: {e}")),
                }
            }
            match verdict {
                Ok(()) => report.ok += 1,
                Err(reason) => self.scrub_out(&mut report, &path, rel, reason),
            }
        }
        // Anything still in tmp/ is an in-flight write that never
        // committed: a crash artifact. Preserve it in quarantine.
        let temps = self
            .fs
            .list(&self.tmp)
            .map_err(|e| ioerr("list tmp", &self.tmp, e))?;
        for name in temps {
            let (path, rel) = (self.tmp.join(&name), format!("tmp/{name}"));
            self.scrub_out(&mut report, &path, rel, "stale temp file".into());
        }
        Ok(report)
    }

    /// Moves `path` into `quarantine/` and records it in `report` as
    /// `rel_path`: quarantined, or skipped if the move failed.
    fn scrub_out(&self, report: &mut ScrubReport, path: &Path, rel_path: String, reason: String) {
        if self.quarantine_file(path) {
            report.quarantined.push(Quarantined { rel_path, reason });
        } else {
            let reason = format!("{reason} (quarantine move failed)");
            report.skipped.push(Quarantined { rel_path, reason });
        }
    }

    // ---- gc ------------------------------------------------------------

    /// Evicts least-recently-used entries until total entry bytes fit
    /// under `cap_bytes`. The most recently touched entry is never
    /// evicted, even when it alone exceeds the cap. This is the store's
    /// only deletion path, so it is also where the touch log forgets: a
    /// sweep that evicted anything rewrites the log to name exactly the
    /// entries still on disk, or leaves it as it was if that fails.
    ///
    /// The sweep holds the touch-log lock from its replay to its rewrite,
    /// so this handle's own touches wait rather than get lost; a line
    /// another handle appends in between is lost, as under compaction.
    pub fn gc(&self, cap_bytes: u64) -> Result<GcReport, StoreError> {
        let mut log = self.touch_log.lock().expect("touch log");
        let replay = self.replay_touches();

        /// An entry file, with what eviction needs to know of it.
        struct Candidate {
            /// Last-touch sequence; 0 (oldest possible) if never touched.
            seq: u64,
            name: String,
            /// `None` for a name `scrub` would quarantine.
            key: Option<u64>,
            path: PathBuf,
            len: u64,
        }
        let names = self.list_objects()?;
        let mut entries: Vec<Candidate> = Vec::with_capacity(names.len());
        for name in names {
            let path = self.objects.join(&name);
            let len = match self.fs.file_len(&path) {
                Ok(Some(len)) => len,
                Ok(None) => continue,
                Err(e) => return Err(ioerr("stat", &path, e)),
            };
            let key = entry_key(&name);
            entries.push(Candidate {
                seq: key.and_then(|key| replay.seq_of(key)).unwrap_or(0),
                name,
                key,
                path,
                len,
            });
        }

        let mut report = GcReport {
            before_bytes: entries.iter().map(|e| e.len).sum(),
            ..GcReport::default()
        };
        report.after_bytes = report.before_bytes;

        // Oldest first; the name breaks ties so the order is deterministic.
        entries.sort_by(|a, b| (a.seq, &a.name).cmp(&(b.seq, &b.name)));

        // The newest entry survives unconditionally.
        let protect = entries.len().saturating_sub(1);
        let mut survivors: Vec<(u64, u64)> = Vec::new();
        for (i, e) in entries.iter().enumerate() {
            if report.after_bytes > cap_bytes && i < protect {
                if self.fs.remove_file(&e.path).is_ok() {
                    report.after_bytes -= e.len;
                    report.evicted.push(format!("rs/{}", e.name));
                    continue;
                }
                report.failed += 1;
            }
            survivors.extend(e.key.map(|key| (key, e.seq)));
        }
        if !report.evicted.is_empty() {
            self.rewrite_touches(&mut log, &survivors);
        }
        Ok(report)
    }

    // ---- stats ---------------------------------------------------------

    /// Takes inventory: entry counts and bytes, quarantine and temp
    /// backlog, plus this handle's hit/miss counters.
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let mut s = StoreStats::default();
        let names = self.list_objects()?;
        for name in &names {
            if let Ok(Some(len)) = self.fs.file_len(&self.objects.join(name)) {
                s.entry_bytes += len;
            }
        }
        s.results = names.len() as u64;
        s.quarantined = self
            .fs
            .list(&self.quarantine)
            .map_err(|e| ioerr("list quarantine", &self.quarantine, e))?
            .len() as u64;
        s.stale_temps = self
            .fs
            .list(&self.tmp)
            .map_err(|e| ioerr("list tmp", &self.tmp, e))?
            .len() as u64;
        let c = self.counters.lock().expect("store counters");
        s.hits = c.hits;
        s.misses = c.misses;
        Ok(s)
    }
}

/// Writes `bytes` to `path` with the store's crash-safe discipline:
/// write to a sibling temp file, fsync, atomically rename onto `path`,
/// fsync the parent directory. Readers see either the old contents or
/// the complete new contents — never a torn file.
///
/// This is the workspace-wide replacement for bare `fs::write` on
/// reports and benchmark outputs.
pub fn write_file_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let fs = RealFs;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs.create_dir_all(dir)?;
    }
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp-{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    if let Err(e) = fs.write_sync(&tmp, bytes) {
        let _ = fs.remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = fs.rename(&tmp, path) {
        let _ = fs.remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = dir {
        fs.sync_dir(dir)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsio::scratch_dir;

    fn quarantined(rel_path: &str, reason: &str) -> Quarantined {
        Quarantined {
            rel_path: rel_path.into(),
            reason: reason.into(),
        }
    }

    /// The text the `format!`-based emitter wrote, for a report with
    /// escapes in it and one with empty lists.
    #[test]
    fn scrub_reports_keep_their_json_bytes() {
        let report = ScrubReport {
            ok: 41,
            quarantined: vec![
                quarantined("objects/rs/00000000000000aa.entry", "checksum mismatch"),
                quarantined("tmp/x\"y.tmp", "stale temp\tfile"),
            ],
            skipped: vec![quarantined(
                "objects/rs/bad",
                "read: Permission denied (os error 13)",
            )],
        };
        assert_eq!(
            report.to_json(),
            "{\n  \"ok\": 41,\n  \"clean\": false,\n  \"quarantined\": [\n    \
             {\"path\": \"objects/rs/00000000000000aa.entry\", \"reason\": \"checksum mismatch\"},\n    \
             {\"path\": \"tmp/x\\\"y.tmp\", \"reason\": \"stale temp\\tfile\"}\n  ],\n  \
             \"skipped\": [\n    {\"path\": \"objects/rs/bad\", \
             \"reason\": \"read: Permission denied (os error 13)\"}\n  ]\n}\n"
        );
        let clean = ScrubReport {
            ok: 7,
            ..Default::default()
        };
        assert_eq!(
            clean.to_json(),
            "{\n  \"ok\": 7,\n  \"clean\": true,\n  \"quarantined\": [],\n  \"skipped\": []\n}\n"
        );
    }

    #[test]
    fn gc_reports_keep_their_json_bytes() {
        let report = GcReport {
            before_bytes: 123_456,
            after_bytes: 65_536,
            evicted: vec!["rs/00000000000000aa.entry".into(), "rs/\"q\".entry".into()],
            failed: 2,
        };
        assert_eq!(
            report.to_json(),
            "{\n  \"before_bytes\": 123456,\n  \"after_bytes\": 65536,\n  \
             \"evicted\": [\"rs/00000000000000aa.entry\", \"rs/\\\"q\\\".entry\"],\n  \
             \"failed\": 2\n}\n"
        );
        assert_eq!(
            GcReport::default().to_json(),
            "{\n  \"before_bytes\": 0,\n  \"after_bytes\": 0,\n  \"evicted\": [],\n  \"failed\": 0\n}\n"
        );
    }

    #[test]
    fn store_stats_keep_their_json_bytes() {
        let stats = StoreStats {
            results: 100,
            entry_bytes: 657_012,
            quarantined: 1,
            stale_temps: 0,
            hits: u64::MAX,
            misses: 10,
        };
        assert_eq!(
            stats.to_json(),
            "{\n  \"results\": 100,\n  \"entry_bytes\": 657012,\n  \
             \"quarantined\": 1,\n  \"stale_temps\": 0,\n  \"hits\": 18446744073709551615,\n  \
             \"misses\": 10\n}\n"
        );
    }

    fn snap_key(cycle: u64) -> SnapKey {
        SnapKey {
            config_hash: 0x1111_2222_3333_4444,
            kernel_hash: 0xAAAA_BBBB_CCCC_DDDD,
            design: "C.E.MC".to_string(),
            cycle,
        }
    }

    #[test]
    fn result_round_trip_and_reopen() {
        let dir = scratch_dir("rt-res");
        {
            let store = Store::open(&dir).unwrap();
            store
                .put_result(42, "cell CONS/Base", b"summary-bytes")
                .unwrap();
        }
        // A fresh handle — the cross-process warm-start path.
        let store = Store::open(&dir).unwrap();
        assert_eq!(
            store.get_result(42).unwrap(),
            Some(b"summary-bytes".to_vec())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let a = snap_key(1).hash();
        let b = snap_key(2).hash();
        let mut c_key = snap_key(1);
        c_key.design = "Base".to_string();
        assert_ne!(a, b);
        assert_ne!(a, c_key.hash());
    }

    #[test]
    fn corrupt_entry_reads_as_miss_and_quarantines() {
        let dir = scratch_dir("corrupt");
        let store = Store::open(&dir).unwrap();
        let key = snap_key(77);
        store.put_snapshot(&key, b"precious machine state").unwrap();

        // Flip one byte in the middle of the entry file.
        let path = dir
            .join("objects")
            .join("rs")
            .join(format!("{:016x}.entry", key.hash()));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        assert_eq!(store.get_snapshot(&key).unwrap(), None, "corrupt = miss");
        assert!(!path.exists(), "corrupt entry moved out of objects/");
        let stats = store.stats().unwrap();
        assert_eq!(stats.quarantined, 1, "bytes preserved in quarantine");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_renamed_to_wrong_key_is_caught() {
        let dir = scratch_dir("wrongkey");
        let store = Store::open(&dir).unwrap();
        let key = snap_key(1);
        store.put_snapshot(&key, b"payload").unwrap();
        // A valid entry, filed under a different key's name.
        let src = store.entry_path(key.hash());
        let other = snap_key(2);
        let dst = store.entry_path(other.hash());
        std::fs::rename(&src, &dst).unwrap();
        assert_eq!(store.get_snapshot(&other).unwrap(), None);
        assert_eq!(store.stats().unwrap().quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_quarantines_corrupt_and_stale_temps_without_data_loss() {
        let dir = scratch_dir("scrub");
        let store = Store::open(&dir).unwrap();
        let good = snap_key(1);
        let bad = snap_key(2);
        store.put_snapshot(&good, b"good payload").unwrap();
        store.put_snapshot(&bad, b"soon to be torn").unwrap();
        store.put_result(7, "cell", b"result payload").unwrap();

        // Tear the bad entry (truncate) and plant a stale temp.
        let bad_path = store.entry_path(bad.hash());
        let full = std::fs::read(&bad_path).unwrap();
        std::fs::write(&bad_path, &full[..full.len() / 2]).unwrap();
        std::fs::write(dir.join("tmp").join("rs-dead.tmp"), b"partial").unwrap();

        let report = store.scrub().unwrap();
        assert_eq!(report.ok, 2, "good snapshot + result verify");
        assert_eq!(report.quarantined.len(), 2, "torn entry + stale temp");
        assert!(report.skipped.is_empty());
        assert!(!report.is_clean());

        // No data loss: both quarantined files still exist with their bytes.
        let qdir = dir.join("quarantine");
        let qfiles: Vec<_> = std::fs::read_dir(&qdir).unwrap().collect();
        assert_eq!(qfiles.len(), 2);

        // The good entries still serve.
        assert_eq!(
            store.get_snapshot(&good).unwrap(),
            Some(b"good payload".to_vec())
        );
        assert_eq!(
            store.get_result(7).unwrap(),
            Some(b"result payload".to_vec())
        );

        // A second scrub is clean.
        let again = store.scrub().unwrap();
        assert!(again.is_clean());
        assert_eq!(again.ok, 2);

        // JSON report renders.
        let json = report.to_json();
        assert!(json.contains("\"quarantined\""));
        assert!(json.contains("stale temp file"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_lru_first_and_protects_newest() {
        let dir = scratch_dir("gc");
        let store = Store::open(&dir).unwrap();
        let payload = vec![1u8; 1000];
        let keys: Vec<SnapKey> = (0..4).map(snap_key).collect();
        for k in &keys {
            store.put_snapshot(k, &payload).unwrap();
        }
        // Touch key 0 again: it becomes the most recent.
        assert!(store.get_snapshot(&keys[0]).unwrap().is_some());

        let entry_len = std::fs::metadata(store.entry_path(keys[0].hash()))
            .unwrap()
            .len();

        // Cap fits two entries: evict the two oldest (keys 1 and 2).
        let report = store.gc(2 * entry_len).unwrap();
        assert_eq!(report.evicted.len(), 2);
        assert_eq!(report.failed, 0);
        assert!(store.get_snapshot(&keys[1]).unwrap().is_none());
        assert!(store.get_snapshot(&keys[2]).unwrap().is_none());
        assert!(
            store.get_snapshot(&keys[0]).unwrap().is_some(),
            "MRU survives"
        );
        assert!(store.get_snapshot(&keys[3]).unwrap().is_some());

        // Cap of zero still protects the newest entry.
        let report = store.gc(0).unwrap();
        assert!(report.after_bytes > 0, "newest entry never evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_order_survives_reopen() {
        let dir = scratch_dir("gc-reopen");
        let payload = vec![2u8; 500];
        let keys: Vec<SnapKey> = (0..3).map(snap_key).collect();
        {
            let store = Store::open(&dir).unwrap();
            for k in &keys {
                store.put_snapshot(k, &payload).unwrap();
            }
            assert!(store.get_snapshot(&keys[0]).unwrap().is_some());
        }
        // Fresh handle must see the same LRU order from the touch log.
        let store = Store::open(&dir).unwrap();
        let entry_len = std::fs::metadata(store.entry_path(keys[0].hash()))
            .unwrap()
            .len();
        let report = store.gc(2 * entry_len).unwrap();
        assert_eq!(report.evicted.len(), 1);
        assert!(
            store.get_snapshot(&keys[1]).unwrap().is_none(),
            "LRU evicted"
        );
        assert!(store.get_snapshot(&keys[0]).unwrap().is_some());
        assert!(store.get_snapshot(&keys[2]).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_lru_log_lines_are_skipped() {
        let dir = scratch_dir("lru-torn");
        let store = Store::open(&dir).unwrap();
        store.put_snapshot(&snap_key(1), b"x").unwrap();
        // Append garbage and a torn prefix of a valid-looking line.
        let log = dir.join(LRU_LOG);
        let mut bytes = std::fs::read(&log).unwrap();
        bytes.extend_from_slice(b"touch rs 00000000000000ff 00000000000000");
        std::fs::write(&log, &bytes).unwrap();
        // Reopen replays the log without error; the valid touch survives.
        let store = Store::open(&dir).unwrap();
        let replay = store.replay_touches();
        assert_eq!((replay.entries().len(), replay.lines), (1, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_file_atomic_round_trips_and_replaces() {
        let dir = scratch_dir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        write_file_atomic(&path, b"{\"v\": 1}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\": 1}");
        write_file_atomic(&path, b"{\"v\": 2}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\": 2}");
        // No temp residue.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name() != "report.json")
            .collect();
        assert!(leftovers.is_empty(), "no temp files left: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_under_forced_torn_write_is_typed_and_recoverable() {
        let dir = scratch_dir("torn-put");
        let fs = FaultFs::new(
            11,
            FaultRates {
                torn_write: 1.0,
                ..FaultRates::none()
            },
        );
        let store = Store::open_with_fs(&dir, Box::new(fs)).unwrap();
        let key = snap_key(5);
        let err = store.put_snapshot(&key, &vec![9u8; 2048]).unwrap_err();
        assert!(matches!(
            err,
            StoreError::Io {
                op: "write temp",
                ..
            }
        ));
        // The failed put never becomes visible at the final name.
        let clean = Store::open(&dir).unwrap();
        assert_eq!(clean.get_snapshot(&key).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- touch-log compaction --------------------------------------------

    /// Files in memory, so that tens of thousands of touches cost no
    /// fsyncs. Clones share the files: a second handle, or a `FaultFs`
    /// over it, sees what the first one wrote. The second field logs every
    /// call that reached it, with its path and the bytes it wrote.
    #[derive(Clone, Default)]
    struct MemFs(
        std::sync::Arc<Mutex<std::collections::BTreeMap<PathBuf, Vec<u8>>>>,
        std::sync::Arc<Mutex<Vec<String>>>,
    );

    impl MemFs {
        fn files(&self) -> std::sync::MutexGuard<'_, std::collections::BTreeMap<PathBuf, Vec<u8>>> {
            self.0.lock().unwrap()
        }

        fn log_call(&self, call: &str, path: &Path, bytes: impl fmt::Display) {
            let line = format!("{call} {} {bytes}", path.display());
            self.1.lock().unwrap().push(line);
        }

        fn calls(&self) -> Vec<String> {
            self.1.lock().unwrap().clone()
        }

        fn open(&self) -> Store {
            Store::open_with_fs("/mem", Box::new(self.clone())).unwrap()
        }

        fn open_faulted(&self, rates: FaultRates) -> Store {
            let fs = FaultFs::over(Box::new(self.clone()), 5, rates);
            Store::open_with_fs("/mem", Box::new(fs)).unwrap()
        }
    }

    fn not_found() -> io::Error {
        io::Error::from(io::ErrorKind::NotFound)
    }

    impl StoreFs for MemFs {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.log_call("read", path, 0);
            self.files().get(path).cloned().ok_or_else(not_found)
        }
        fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.log_call("write_sync", path, bytes.len());
            self.files().insert(path.to_path_buf(), bytes.to_vec());
            Ok(())
        }
        fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.log_call("append_sync", path, bytes.len());
            let mut files = self.files();
            files.entry(path.to_path_buf()).or_default().extend(bytes);
            Ok(())
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.log_call("rename", from, to.display());
            let mut files = self.files();
            let bytes = files.remove(from).ok_or_else(not_found)?;
            files.insert(to.to_path_buf(), bytes);
            Ok(())
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            self.log_call("sync_dir", dir, 0);
            Ok(())
        }
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            self.log_call("create_dir_all", dir, 0);
            Ok(())
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
            self.log_call("list", dir, 0);
            let files = self.files();
            let names = files.keys().filter(|p| p.parent() == Some(dir));
            Ok(names
                .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
                .collect())
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.log_call("remove_file", path, 0);
            self.files().remove(path).map(drop).ok_or_else(not_found)
        }
        fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
            self.log_call("file_len", path, 0);
            Ok(self.files().get(path).map(|b| b.len() as u64))
        }
    }

    /// A snapshot round-trips as a result entry. The two names make the
    /// calls of `put_result` and `get_result` on the same entry, path for
    /// path and byte for byte (the benchmark's exact `store.*` rows count
    /// them), and file it under its key's hash, with its key's label,
    /// touched as `rs`.
    #[test]
    fn snapshot_round_trip() {
        let key = snap_key(10_000);
        let (hash, label) = (key.hash(), key.label());
        let payload = vec![0x5A; 4096];
        let run = |as_snapshot: bool| {
            let fs = MemFs::default();
            let store = fs.open();
            let opened = fs.calls().len();
            if as_snapshot {
                assert_eq!(store.get_snapshot(&key).unwrap(), None);
                store.put_snapshot(&key, &payload).unwrap();
                assert_eq!(store.get_snapshot(&key).unwrap(), Some(payload.clone()));
            } else {
                assert_eq!(store.get_result(hash).unwrap(), None);
                store.put_result(hash, &label, &payload).unwrap();
                assert_eq!(store.get_result(hash).unwrap(), Some(payload.clone()));
            }
            assert_eq!((store.hit_count(), store.miss_count()), (1, 1));
            let files = fs.files().clone();
            (fs.calls().split_off(opened), files)
        };
        let (calls, files) = run(true);
        assert_eq!(run(false), (calls.clone(), files.clone()));
        // The miss reads; the put writes, renames, syncs the directory and
        // touches; the hit reads and touches.
        assert_eq!(calls.len(), 7, "{calls:?}");
        let entry = &files[Path::new(&format!("/mem/objects/rs/{hash:016x}.entry"))];
        let decoded = Store::decode_entry(entry, hash);
        assert_eq!(decoded, Ok((label.as_str(), &payload[..])));
        let log = String::from_utf8(files[Path::new("/mem/lru.log")].clone()).unwrap();
        let touch = format!("touch rs {hash:016x} ");
        assert_eq!(log.lines().filter(|l| l.starts_with(&touch)).count(), 2);
    }

    const ENTRIES: u64 = 10;

    /// `ENTRIES` results, then `gets` reads of them in a fixed scrambled
    /// order. Every read must hit, whatever the filesystem does to the log.
    fn put_then_reread(fs: &MemFs, reader: &Store, gets: u64) {
        let writer = fs.open();
        for key in 0..ENTRIES {
            writer.put_result(key, "cell", &[key as u8; 300]).unwrap();
        }
        for i in 0..gets {
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % ENTRIES;
            assert!(reader.get_result(key).unwrap().is_some(), "get {i}");
        }
    }

    fn log_len(fs: &MemFs) -> usize {
        fs.files()[Path::new("/mem/lru.log")].len()
    }

    #[test]
    fn rereading_a_few_entries_does_not_grow_the_touch_log() {
        let fs = MemFs::default();
        put_then_reread(&fs, &fs.open(), 50_000);
        assert!(log_len(&fs) < 128 * 1024, "{} bytes", log_len(&fs));
        let store = fs.open();
        assert_eq!(store.replay_touches().entries().len(), ENTRIES as usize);
        assert_eq!(store.stats().unwrap().stale_temps, 0);
    }

    #[test]
    fn gc_order_is_the_same_with_and_without_compaction() {
        // The control's renames all fail, so its log is never replaced.
        let (compacted, control) = (MemFs::default(), MemFs::default());
        put_then_reread(&compacted, &compacted.open(), 5_000);
        let no_rename = FaultRates {
            rename_fail: 1.0,
            ..FaultRates::none()
        };
        put_then_reread(&control, &control.open_faulted(no_rename), 5_000);
        assert!(log_len(&control) > 5_000 * 60, "the control log is whole");
        assert!(log_len(&compacted) < log_len(&control) / 4);

        let evictions = |fs: &MemFs| {
            let store = fs.open();
            // One more touch makes entry 3 the newest, whatever came before.
            assert!(store.get_result(3).unwrap().is_some());
            let all = store.gc(0).unwrap();
            assert!(store.get_result(3).unwrap().is_some(), "newest survives");
            all.evicted
        };
        let order = evictions(&compacted);
        assert_eq!(order.len() as u64, ENTRIES - 1);
        assert_eq!(order, evictions(&control));
    }

    #[test]
    fn a_reopened_handle_resumes_past_the_compacted_maximum() {
        let fs = MemFs::default();
        put_then_reread(&fs, &fs.open(), 2_000);
        assert!(log_len(&fs) < 1_100 * 62, "compacted at least once");
        let reopened = fs.open();
        let max_before = reopened.replay_touches().max_seq.unwrap();
        assert!(max_before >= 2_000, "the highest sequence survived");
        assert!(reopened.get_result(7).unwrap().is_some());
        let seq_of_7 = reopened.replay_touches().seq_of(7);
        assert_eq!(seq_of_7, Some(max_before + 1));
    }

    #[test]
    fn a_failed_compaction_leaves_the_old_log_and_a_temp_for_scrub() {
        for failing in [
            // Every append tears (the temp's too) and no cleanup works.
            FaultRates {
                torn_write: 1.0,
                cleanup_fail: 1.0,
                ..FaultRates::none()
            },
            // The temp is whole, but cannot be renamed or removed.
            FaultRates {
                rename_fail: 1.0,
                cleanup_fail: 1.0,
                ..FaultRates::none()
            },
        ] {
            let fs = MemFs::default();
            // A log one touch short of due, written without faults.
            put_then_reread(&fs, &fs.open(), COMPACT_MIN_LINES - ENTRIES);
            let before = fs.open().replay_touches().latest_in_order();
            assert_eq!(before.len() as u64, ENTRIES);

            let faulted = fs.open_faulted(failing);
            for i in 0..3 * COMPACT_MIN_LINES {
                let got = faulted.get_result(i % ENTRIES);
                assert!(matches!(got, Ok(Some(_))), "get {i}: {got:?}");
            }
            drop(faulted);

            // The old lines are all still there (later ones may be torn).
            let clean = fs.open();
            let after = clean.replay_touches();
            for (entry, seq) in before {
                let kept = after.seq_of(entry);
                assert!(kept >= Some(seq), "{entry:?}: {kept:?} < {seq}");
            }
            // Backed off: 1025, 2050 and 4100 lines, not every touch.
            let temps = clean.stats().unwrap().stale_temps;
            assert!((1..=3).contains(&temps), "{temps} temps");
            let report = clean.scrub().unwrap();
            assert_eq!(report.quarantined.len() as u64, temps);
            assert_eq!(clean.stats().unwrap().stale_temps, 0);
        }
    }
    // ---- one read call for many keys ----------------------------------

    fn log_appends(fs: &MemFs) -> u64 {
        let appends = |c: &&String| c.starts_with("append_sync /mem/lru.log ");
        fs.calls().iter().filter(appends).count() as u64
    }

    fn log_bytes(fs: &MemFs) -> Vec<u8> {
        fs.files()[Path::new("/mem/lru.log")].clone()
    }

    /// A result payload that differs per key and in length.
    fn payload_of(key: u64) -> Vec<u8> {
        vec![key as u8; 200 + (key as usize * 37) % 300]
    }

    /// `n` results, keys `0..n`, each under [`payload_of`].
    fn filled(n: u64) -> MemFs {
        let fs = MemFs::default();
        let store = fs.open();
        for key in 0..n {
            store.put_result(key, "cell", &payload_of(key)).unwrap();
        }
        fs
    }

    #[test]
    fn one_read_call_is_n_gets_with_one_append() {
        caba_stats::prop::check(0x000B_A7C4, 48, |rng| {
            let (batched, single) = (filled(24), filled(24));
            // Keys past 23 miss; a key may repeat.
            let n = 1 + rng.range_u64(40) as usize;
            let keys: Vec<u64> = (0..n).map(|_| rng.range_u64(30)).collect();
            let (b, s) = (batched.open(), single.open());
            let (b_appends, s_appends) = (log_appends(&batched), log_appends(&single));

            let got = b.get_results(&keys);
            let want: Vec<_> = keys.iter().map(|&k| s.get_result(k).unwrap()).collect();
            let got: Vec<_> = got.into_iter().map(Result::unwrap).collect();
            assert_eq!(got, want, "{keys:?}");
            for (key, got) in keys.iter().zip(&got) {
                assert_eq!(got.as_ref(), (*key < 24).then(|| payload_of(*key)).as_ref());
            }
            assert_eq!(b.hit_count(), s.hit_count());
            assert_eq!(b.miss_count(), s.miss_count());
            let hits = s.hit_count();
            assert_eq!(
                b.replay_touches().latest_in_order(),
                s.replay_touches().latest_in_order()
            );
            assert_eq!(log_bytes(&batched), log_bytes(&single));
            assert_eq!(log_appends(&batched) - b_appends, u64::from(hits > 0));
            assert_eq!(log_appends(&single) - s_appends, hits);
        });
        // No keys: nothing read, counted or appended.
        let fs = filled(4);
        let store = fs.open();
        let appends = log_appends(&fs);
        assert!(store.get_results(&[]).is_empty());
        assert_eq!((store.hit_count(), store.miss_count()), (0, 0));
        assert_eq!(log_appends(&fs), appends);
    }

    #[test]
    fn a_corrupt_entry_mid_call_is_quarantined_and_the_rest_served() {
        let fs = filled(12);
        let corrupt = fs
            .files()
            .keys()
            .find(|p| p.ends_with(format!("{:016x}.entry", 5)))
            .cloned();
        let corrupt = corrupt.expect("entry 5 is on disk");
        let mid = fs.files()[&corrupt].len() / 2;
        fs.files().get_mut(&corrupt).unwrap()[mid] ^= 0x10;

        let store = fs.open_faulted(FaultRates::none());
        let appends = log_appends(&fs);
        let keys: Vec<u64> = (0..12).collect();
        for (key, got) in keys.iter().zip(store.get_results(&keys)) {
            let want = (*key != 5).then(|| payload_of(*key));
            assert_eq!(got.unwrap(), want, "key {key}");
        }
        assert_eq!((store.hit_count(), store.miss_count()), (11, 1));
        assert_eq!(log_appends(&fs) - appends, 1);
        assert!(!fs.files().contains_key(&corrupt), "moved out of objects/");
        assert_eq!(store.stats().unwrap().quarantined, 1, "bytes preserved");
        let replay = store.replay_touches();
        assert_eq!(replay.entries().len(), 12, "the put lines stay");
    }

    #[test]
    fn short_reads_in_a_read_call_are_read_again() {
        let mut healed = 0;
        for seed in 0..32 {
            let fs = filled(16);
            let rates = FaultRates {
                short_read: 0.25,
                ..FaultRates::none()
            };
            let faulted = FaultFs::over(Box::new(fs.clone()), seed, rates);
            let counts = faulted.counts_handle();
            let store = Store::open_with_fs("/mem", Box::new(faulted)).unwrap();
            let before = counts.lock().unwrap().short_reads;
            let keys: Vec<u64> = (0..16).collect();
            let mut misses = 0;
            for (key, got) in keys.iter().zip(store.get_results(&keys)) {
                match got.unwrap() {
                    Some(payload) => assert_eq!(payload, payload_of(*key), "seed {seed}"),
                    None => misses += 1,
                }
            }
            // A miss is an entry read short twice, and it is quarantined;
            // any other short read was followed by a whole one.
            assert_eq!(store.miss_count(), misses, "seed {seed}");
            let stats = store.stats().unwrap();
            assert_eq!((stats.quarantined, stats.results), (misses, 16 - misses));
            let short = counts.lock().unwrap().short_reads - before;
            assert!(short >= 2 * misses, "seed {seed}");
            healed += short - 2 * misses;
        }
        assert!(healed > 0, "no short read was healed by a second read");
    }

    #[test]
    fn a_failed_or_torn_touch_append_fails_no_read() {
        let mut torn_mid_line = 0;
        for (seed, rates) in (0..8).flat_map(|seed| {
            [
                FaultRates {
                    torn_write: 1.0,
                    ..FaultRates::none()
                },
                FaultRates {
                    enospc: 1.0,
                    ..FaultRates::none()
                },
            ]
            .map(|rates| (seed, rates))
        }) {
            let fs = filled(10);
            let put_lines = fs.open().replay_touches().latest_in_order();
            let before = log_bytes(&fs).len();
            let faulted = FaultFs::over(Box::new(fs.clone()), seed, rates);
            let store = Store::open_with_fs("/mem", Box::new(faulted)).unwrap();
            let keys: Vec<u64> = (0..10).rev().collect();
            for (key, got) in keys.iter().zip(store.get_results(&keys)) {
                assert_eq!(got.unwrap(), Some(payload_of(*key)));
            }
            assert_eq!(store.hit_count(), 10);
            // The append landed a prefix of its ten lines. The replay keeps
            // the whole lines of it and skips the torn tail.
            let landed = log_bytes(&fs).len() - before;
            let (whole, torn) = (
                landed / touchlog::LINE_BYTES,
                !landed.is_multiple_of(touchlog::LINE_BYTES),
            );
            let replay = fs.open().replay_touches();
            assert_eq!(replay.lines, (10 + whole + usize::from(torn)) as u64);
            torn_mid_line += usize::from(torn && (1..9).contains(&whole));
            let first_seq = put_lines.iter().map(|(_, seq)| seq).max().unwrap() + 1;
            for (entry, put_seq) in put_lines {
                let at = keys.iter().position(|&k| k == entry).unwrap();
                let want = if at < whole {
                    first_seq + at as u64
                } else {
                    put_seq
                };
                assert_eq!(replay.seq_of(entry), Some(want), "{entry:?}");
            }
        }
        assert!(torn_mid_line > 0, "no append tore after a whole line");
    }

    // ---- one replay behind open, GC and compaction ----------------------

    fn log_lines(fs: &MemFs) -> usize {
        let files = fs.files();
        let log = &files[Path::new("/mem/lru.log")];
        log.iter().filter(|&&b| b == b'\n').count()
    }

    #[test]
    fn gc_makes_the_touch_log_forget_what_it_evicted() {
        let fs = MemFs::default();
        let store = fs.open();
        for key in 0..3_000 {
            store.put_result(key, "cell", &[7; 64]).unwrap();
            if key % 500 == 499 {
                assert_eq!(
                    store.gc(0).unwrap().evicted.len(),
                    500 - usize::from(key < 500)
                );
            }
        }
        // Six sweeps later the log names exactly the entry left on disk.
        let on_disk = fs.list(Path::new("/mem/objects/rs")).unwrap();
        assert_eq!(on_disk, [format!("{:016x}.entry", 2_999)]);
        let replay = store.replay_touches();
        assert_eq!(replay.entries(), [2_999]);
        assert_eq!(replay.lines, 1);
        // So re-reading it compacts at 1 024 lines, not at 8 x 3 000; a
        // reopened handle agrees.
        for reader in [store, fs.open()] {
            for _ in 0..30_000 {
                assert!(reader.get_result(2_999).unwrap().is_some());
            }
            assert!(log_lines(&fs) <= 1_024, "{} lines", log_lines(&fs));
        }
    }

    #[test]
    fn a_handle_heals_after_another_handles_gc() {
        let fs = MemFs::default();
        let user = fs.open();
        for key in 0..2_000 {
            user.put_result(key, "cell", &[7; 64]).unwrap();
        }
        assert_eq!(fs.open().gc(0).unwrap().evicted.len(), 1_999);
        assert_eq!(log_lines(&fs), 1);
        // `user` still counts 2 000 lines over 2 000 keys. Its next
        // compaction replays the log as it is now, and from then on the
        // log stays as short as its one entry allows.
        for _ in 0..40_000 {
            assert!(user.get_result(1_999).unwrap().is_some());
        }
        assert!(log_lines(&fs) <= 1_024, "{} lines", log_lines(&fs));
    }

    #[test]
    fn gc_order_is_the_same_whether_or_not_its_rewrite_lands() {
        // The control sweeps through a handle whose renames all fail, so
        // its log is never replaced.
        let no_rename = FaultRates {
            rename_fail: 1.0,
            ..FaultRates::none()
        };
        let history = |fs: &MemFs, sweeper: Store| {
            let writer = fs.open();
            let scrambled = |i: u64, keys: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % keys;
            for key in 0..20 {
                writer.put_result(key, "cell", &[key as u8; 100]).unwrap();
            }
            for i in 0..200 {
                assert!(writer.get_result(scrambled(i, 20)).unwrap().is_some());
            }
            let half = writer.stats().unwrap().entry_bytes / 2;
            let first = sweeper.gc(half).unwrap();
            assert_eq!((first.evicted.len(), first.failed), (10, 0));
            let lines_after_first = log_lines(fs);
            // Life goes on: new entries, and reads that hit or miss.
            for key in 20..26 {
                writer.put_result(key, "cell", &[key as u8; 100]).unwrap();
            }
            for i in 0..100 {
                writer.get_result(scrambled(i, 26)).unwrap();
            }
            let rest = fs.open().gc(0).unwrap();
            (first.evicted, rest.evicted, lines_after_first)
        };
        let (rewritten, control) = (MemFs::default(), MemFs::default());
        let with_rewrite = history(&rewritten, rewritten.open());
        let without = history(&control, control.open_faulted(no_rename));
        assert_eq!(with_rewrite.2, 10, "the survivors, one line each");
        assert_eq!(without.2, 220, "the control log is whole");
        assert_eq!(with_rewrite.0, without.0);
        assert_eq!(with_rewrite.1, without.1);
        assert_eq!(with_rewrite.1.len(), 15);
        assert_eq!(control.open().stats().unwrap().stale_temps, 0);
    }

    /// GC as it was before the replay: a linear search per entry over the
    /// names the reference replay formats. Returns every file as `(name,
    /// sequence)` in eviction order, how many of them go, and the bytes left.
    fn reference_gc(
        log: &[u8],
        files: &[(String, u64)],
        cap_bytes: u64,
    ) -> (Vec<(String, u64)>, usize, u64) {
        let (touches, _) = touchlog::read_touches(log);
        let seq_of = |name: &str| touches.iter().find(|(n, _)| n == name).map_or(0, |t| t.1);
        let mut entries: Vec<(u64, &str, u64)> = files
            .iter()
            .map(|(name, len)| (seq_of(name), name.as_str(), *len))
            .collect();
        entries.sort();
        let mut after: u64 = entries.iter().map(|e| e.2).sum();
        let mut evicted = 0;
        for (_, _, len) in &entries[..entries.len().saturating_sub(1)] {
            if after <= cap_bytes {
                break;
            }
            after -= len;
            evicted += 1;
        }
        let order = entries.iter().map(|e| (e.1.to_string(), e.0)).collect();
        (order, evicted, after)
    }

    #[test]
    fn gc_evicts_what_the_reference_evicts_on_random_stores() {
        use touchlog::tests::{oracle_name, random_keys, random_log};
        let (mut sweeps, mut evictions) = (0, 0);
        caba_stats::prop::check(0x6C_5EED, 1_000, |rng| {
            let fs = MemFs::default();
            let keys = random_keys(rng);
            let log = random_log(rng, &keys);
            // Some of the entries the log may name exist, with any length;
            // so may files that no log line can name.
            let mut files: Vec<(String, u64)> = Vec::new();
            for &key in &keys {
                if rng.chance(0.6) {
                    files.push((oracle_name(key), 1 + rng.range_u64(300)));
                }
            }
            if rng.chance(0.2) {
                files.push(("rs/notes.txt".into(), 40));
            }
            for (name, len) in &files {
                let path = Path::new("/mem/objects").join(name);
                fs.files().insert(path, vec![0; *len as usize]);
            }
            fs.files().insert("/mem/lru.log".into(), log.clone());
            let total: u64 = files.iter().map(|f| f.1).sum();
            let cap = rng.range_u64(total + 2);

            let report = fs.open().gc(cap).unwrap();
            let (order, gone, after) = reference_gc(&log, &files, cap);
            let evicted: Vec<&String> = order[..gone].iter().map(|e| &e.0).collect();
            assert_eq!(report.evicted.iter().collect::<Vec<_>>(), evicted);
            assert_eq!((report.before_bytes, report.after_bytes), (total, after));

            // The log afterwards: untouched if nothing went, else the
            // survivors a line can name, oldest first, with the
            // reference's sequences.
            let log_after = fs.files()[Path::new("/mem/lru.log")].clone();
            if evicted.is_empty() {
                assert_eq!(log_after, log);
            } else {
                let mut survivors = order[gone..].to_vec();
                survivors.retain(|(name, _)| name != "rs/notes.txt");
                let lines = survivors.len() as u64;
                assert_eq!(touchlog::read_touches(&log_after), (survivors, lines));
            }
            sweeps += 1;
            evictions += evicted.len();
        });
        assert!(
            evictions > 2 * sweeps,
            "{evictions} evictions in {sweeps} sweeps"
        );
    }

    /// Opening a store and sweeping it are linear in the touch log. The
    /// replaced replay searched a vector per line and per entry: on this
    /// store it took 56.8 s in a debug build (the profile `cargo test`
    /// runs) where this takes 0.84-1.0 s, and 13.6 s against 0.22-0.27 s in
    /// release, so each profile's bound is one it missed more than tenfold.
    #[test]
    fn open_and_gc_are_linear_in_the_touch_log() {
        const ENTRIES: u64 = 32_000;
        const TOUCHES_EACH: u64 = 4;
        let fs = MemFs::default();
        let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut log = String::new();
        for round in 0..TOUCHES_EACH {
            for i in 0..ENTRIES {
                push_touch_line(&mut log, key(i), round * ENTRIES + i);
            }
        }
        {
            let mut files = fs.files();
            for i in 0..ENTRIES {
                let name = format!("/mem/objects/rs/{:016x}.entry", key(i));
                files.insert(name.into(), vec![0; 100]);
            }
            files.insert("/mem/lru.log".into(), log.into_bytes());
        }
        let t0 = std::time::Instant::now();
        let store = fs.open();
        let report = store.gc(ENTRIES * 100 / 2).unwrap();
        let took = t0.elapsed();
        eprintln!(
            "open + gc over {} touch-log lines: {took:?}",
            ENTRIES * TOUCHES_EACH
        );
        assert_eq!(report.evicted.len() as u64, ENTRIES / 2);
        assert_eq!(report.evicted[0], format!("rs/{:016x}.entry", key(0)));
        assert_eq!(log_lines(&fs) as u64, ENTRIES / 2);
        let bound = if cfg!(debug_assertions) { 5.0 } else { 1.25 };
        assert!(took.as_secs_f64() < bound, "open + gc took {took:?}");
    }

    /// ROADMAP 4(c) in small: one handle puts and re-reads past several
    /// compactions while another sweeps the same root from another thread.
    #[test]
    fn a_user_and_a_sweeper_share_a_root_from_two_threads() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const ROUNDS: u64 = 60;
        const REREADS: u64 = 120;
        const RECENT: u64 = 8;
        let fs = MemFs::default();
        let (user, sweeper) = (fs.open(), fs.open());
        let payload = |key: u64| vec![key as u8; 200];
        let entry_len = Store::encode_entry(0, "cell", &payload(0)).len() as u64;
        let start = std::sync::Barrier::new(2);
        let done = AtomicBool::new(false);

        let (misses, evicted) = std::thread::scope(|s| {
            let using = s.spawn(|| {
                start.wait();
                let mut misses = Vec::new();
                for round in 0..ROUNDS {
                    // Every key is put once, so a miss can only be an eviction.
                    user.put_result(round, "cell", &payload(round)).unwrap();
                    for i in 0..REREADS {
                        let key = round.saturating_sub(i % RECENT);
                        match user.get_result(key).unwrap() {
                            Some(bytes) => assert_eq!(bytes, payload(key)),
                            None => misses.push(key),
                        }
                    }
                }
                done.store(true, Ordering::SeqCst);
                misses
            });
            let sweeping = s.spawn(|| {
                start.wait();
                let mut evicted = Vec::new();
                for sweep in 0.. {
                    // The last sweep starts after the user's last put, so
                    // it leaves at most RECENT + 2 entries however the two
                    // threads were scheduled.
                    let user_done = done.load(Ordering::SeqCst);
                    let report = sweeper.gc((RECENT + sweep % 3) * entry_len).unwrap();
                    assert_eq!(report.failed, 0);
                    assert!(report.after_bytes > 0 || report.before_bytes == 0);
                    evicted.extend(report.evicted);
                    if user_done && sweep >= 3 {
                        break;
                    }
                }
                evicted
            });
            let misses = using.join().expect("the user thread panicked");
            (
                misses,
                sweeping.join().expect("the sweeper thread panicked"),
            )
        });

        let name = touchlog::tests::oracle_name;
        for key in misses {
            assert!(evicted.contains(&name(key)), "{key} missed, never evicted");
        }
        for key in (0..ROUNDS).filter(|&key| !evicted.contains(&name(key))) {
            assert_eq!(user.get_result(key).unwrap(), Some(payload(key)), "{key}");
        }
        // 7 260 lines were appended; the compactions and sweeps kept up.
        assert!(log_lines(&fs) <= 1_025, "{} lines", log_lines(&fs));
        assert!(evicted.len() as u64 >= ROUNDS - RECENT - 3);

        // The sweeper learns which entry is newest from the file alone.
        let newest = (0..ROUNDS).rfind(|&key| !evicted.contains(&name(key)));
        let newest = newest.expect("the last sweep kept an entry");
        assert!(user.get_result(newest).unwrap().is_some());
        sweeper.gc(0).unwrap();
        assert_eq!(user.get_result(newest).unwrap(), Some(payload(newest)));
        assert!(sweeper.scrub().unwrap().is_clean());
        let fresh = fs.open().replay_touches();
        assert_eq!(fresh.entries(), [newest]);
        assert_eq!(fresh.lines as usize, log_lines(&fs));
    }
}
