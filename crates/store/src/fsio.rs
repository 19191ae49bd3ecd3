//! The filesystem seam under the store: a small trait over exactly the
//! operations the store performs, a passthrough [`RealFs`], and a seeded
//! deterministic [`FaultFs`] that injects the disk-misbehaviour classes a
//! durable store must survive — torn writes, short reads, `ENOSPC`,
//! failed renames, and failed cleanups that leave stale temp files.
//!
//! The injection model mirrors `caba_sim::fault`: every fault decision is
//! drawn from one [`Rng64`] stream derived from a single seed, so a given
//! seed produces a bit-identical fault schedule on any host. The chaos
//! test matrix sweeps seeds and asserts that **every** schedule either
//! round-trips cleanly or surfaces a typed error — never a panic, never a
//! corrupt entry decoded.
//!
//! Fault semantics (what a real kernel/disk can do to you):
//!
//! * **torn write** — a prefix of the bytes reaches the file, then the
//!   write errors (power cut mid-`write(2)`);
//! * **short read** — `read` *silently* returns a prefix of the file, so
//!   the caller's only defence is the checksum-before-decode contract;
//! * **ENOSPC** — the write fails with `StorageFull`, possibly after a
//!   partial write;
//! * **failed rename** — the atomic commit itself errors, leaving the
//!   temp file behind;
//! * **failed cleanup** — removing a temp file errors, modelling a crash
//!   between write and unlink: the stale temp stays for `scrub` to sweep.

use crate::{Store, StoreError};
use caba_stats::Rng64;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The filesystem operations the store performs. Durability-relevant
/// calls (`write_sync`, `append_sync`, `sync_dir`) fold the fsync into
/// the operation so an implementation cannot forget it.
pub trait StoreFs: Send + Sync {
    /// Reads the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates/truncates `path`, writes all bytes, and fsyncs the file.
    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Appends `bytes` to `path` (creating it if absent) and fsyncs.
    fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` onto `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Fsyncs a directory, making previously renamed entries durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// The file names (not paths) in `dir`, **sorted** for determinism.
    /// An absent directory lists as empty.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// The file's length in bytes, or `None` when it does not exist.
    fn file_len(&self, path: &Path) -> io::Result<Option<u64>>;
}

/// Straight passthrough to `std::fs` with the fsync discipline applied.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl StoreFs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fsync is a Unix concept; elsewhere the rename itself
        // is the best available commit point.
        #[cfg(unix)]
        {
            std::fs::File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let rd = match std::fs::read_dir(dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut names = Vec::new();
        for entry in rd {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        match std::fs::metadata(path) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Per-opportunity fault probabilities in `[0, 1]`, one per fault class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// A `write_sync`/`append_sync` lands only a prefix, then errors.
    pub torn_write: f64,
    /// A `read` silently returns a prefix of the file.
    pub short_read: f64,
    /// A `write_sync`/`append_sync` fails with `StorageFull` (possibly
    /// after a partial write).
    pub enospc: f64,
    /// A `rename` errors, leaving the source file behind.
    pub rename_fail: f64,
    /// A `remove_file` errors, leaving a stale temp file behind.
    pub cleanup_fail: f64,
}

impl FaultRates {
    /// No injection.
    pub fn none() -> Self {
        FaultRates {
            torn_write: 0.0,
            short_read: 0.0,
            enospc: 0.0,
            rename_fail: 0.0,
            cleanup_fail: 0.0,
        }
    }

    /// Every fault class at the same `rate` — the chaos-matrix default.
    pub fn uniform(rate: f64) -> Self {
        FaultRates {
            torn_write: rate,
            short_read: rate,
            enospc: rate,
            rename_fail: rate,
            cleanup_fail: rate,
        }
    }
}

/// The fault-injection flags `caba-sweep` and `caba-serve` both take,
/// `--store-fault-seed N` and `--store-fault-rate F`, under one rule:
/// either flag turns injection on, a missing one takes its default (seed
/// 0, rate [`FaultFlags::DEFAULT_RATE`]), the rate lies in `0..=1`, and
/// both need a store directory.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultFlags {
    seed: Option<u64>,
    rate: Option<f64>,
}

impl FaultFlags {
    /// The per-op rate of every fault class when only a seed is given.
    pub const DEFAULT_RATE: f64 = 0.05;

    /// Takes `value` for `flag`, one of the two flags.
    ///
    /// # Errors
    ///
    /// The message for another flag, a missing value, one that does not
    /// parse, or a rate outside `0..=1`.
    pub fn take(&mut self, flag: &str, value: Option<&str>) -> Result<(), String> {
        let v = value.ok_or_else(|| format!("{flag} requires a value"))?;
        let invalid = || format!("invalid value {v:?} for {flag}");
        match flag {
            "--store-fault-seed" => self.seed = Some(v.parse().map_err(|_| invalid())?),
            "--store-fault-rate" => {
                let rate: f64 = v.parse().map_err(|_| invalid())?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("{flag} must lie in 0..=1, got {rate}"));
                }
                self.rate = Some(rate);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
        Ok(())
    }

    /// The seed and rate to inject with, or `None` when neither flag was
    /// given.
    pub fn injection(&self) -> Option<(u64, f64)> {
        (self.seed.is_some() || self.rate.is_some()).then(|| {
            (
                self.seed.unwrap_or(0),
                self.rate.unwrap_or(Self::DEFAULT_RATE),
            )
        })
    }

    /// `Ok` when there is a store directory or no flag was given.
    ///
    /// # Errors
    ///
    /// The message naming the first flag given without `--store-dir`.
    pub fn check_store_dir(&self, has_store_dir: bool) -> Result<(), String> {
        let flag = match (self.seed, self.rate) {
            _ if has_store_dir => return Ok(()),
            (Some(_), _) => "--store-fault-seed",
            (None, Some(_)) => "--store-fault-rate",
            (None, None) => return Ok(()),
        };
        Err(format!("{flag} needs --store-dir"))
    }

    /// Opens the store at `dir`: over a [`FaultFs`] on the real filesystem
    /// when either flag was given, plainly otherwise.
    ///
    /// # Errors
    ///
    /// What [`Store::open_with_fs`] returns.
    pub fn open(&self, dir: &Path) -> Result<Store, StoreError> {
        match self.injection() {
            Some((seed, rate)) => {
                Store::open_with_fs(dir, Box::new(FaultFs::new(seed, FaultRates::uniform(rate))))
            }
            None => Store::open(dir),
        }
    }
}

/// How many times each fault class actually fired — the chaos tests use
/// this to prove the schedule exercised every class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Torn writes injected.
    pub torn_writes: u64,
    /// Short reads injected.
    pub short_reads: u64,
    /// `StorageFull` failures injected.
    pub enospc: u64,
    /// Failed renames injected.
    pub rename_fails: u64,
    /// Failed cleanups injected.
    pub cleanup_fails: u64,
}

impl FaultCounts {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.torn_writes + self.short_reads + self.enospc + self.rename_fails + self.cleanup_fails
    }
}

struct FaultState {
    rng: Rng64,
}

/// Dedicated RNG stream id for filesystem fault injection (disjoint from
/// the simulator's component streams in `caba_sim::fault::stream`).
const FS_STREAM: u64 = 0xF5;

/// A [`StoreFs`] wrapper injecting deterministic, seeded I/O faults into
/// an inner filesystem (by default [`RealFs`]).
///
/// Decisions are drawn in call order from a single stream, so a
/// single-threaded operation sequence under a given seed is bit-identical
/// across runs and hosts.
pub struct FaultFs {
    inner: Box<dyn StoreFs>,
    rates: FaultRates,
    state: Mutex<FaultState>,
    counts: Arc<Mutex<FaultCounts>>,
}

impl FaultFs {
    /// Injects into the real filesystem.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        Self::over(Box::new(RealFs), seed, rates)
    }

    /// Injects into an arbitrary inner filesystem.
    pub fn over(inner: Box<dyn StoreFs>, seed: u64, rates: FaultRates) -> Self {
        FaultFs {
            inner,
            rates,
            state: Mutex::new(FaultState {
                rng: Rng64::for_stream(seed, FS_STREAM),
            }),
            counts: Arc::new(Mutex::new(FaultCounts::default())),
        }
    }

    /// A live handle onto the injection counters, readable after the
    /// `FaultFs` itself has been boxed into a store.
    pub fn counts_handle(&self) -> Arc<Mutex<FaultCounts>> {
        Arc::clone(&self.counts)
    }

    /// Faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        *self.counts.lock().expect("fault counts lock")
    }

    fn injected(err: &'static str) -> io::Error {
        io::Error::other(format!("injected fault: {err}"))
    }

    /// Draws the fault decision for a write-shaped op: `Some((prefix_len,
    /// error))` when a fault fires.
    fn write_fault(&self, len: usize) -> Option<(usize, io::Error)> {
        let mut st = self.state.lock().expect("fault state lock");
        if st.rng.chance(self.rates.torn_write) {
            let keep = st.rng.range_u64(len as u64 + 1) as usize;
            drop(st);
            self.count(|c| c.torn_writes += 1);
            return Some((keep, Self::injected("torn write")));
        }
        if st.rng.chance(self.rates.enospc) {
            let keep = st.rng.range_u64(len as u64 + 1) as usize;
            drop(st);
            self.count(|c| c.enospc += 1);
            return Some((
                keep,
                io::Error::new(io::ErrorKind::StorageFull, "injected fault: ENOSPC"),
            ));
        }
        None
    }

    fn count(&self, f: impl FnOnce(&mut FaultCounts)) {
        f(&mut self.counts.lock().expect("fault counts lock"));
    }

    fn chance(&self, p: f64, count: impl FnOnce(&mut FaultCounts)) -> bool {
        let fired = self.state.lock().expect("fault state lock").rng.chance(p);
        if fired {
            self.count(count);
        }
        fired
    }
}

impl StoreFs for FaultFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read(path)?;
        // A short read is SILENT: the caller sees a prefix and must catch
        // it via the checksum-before-decode contract.
        if !bytes.is_empty() && self.chance(self.rates.short_read, |c| c.short_reads += 1) {
            let keep = {
                let mut st = self.state.lock().expect("fault state lock");
                st.rng.range_u64(bytes.len() as u64) as usize
            };
            bytes.truncate(keep);
        }
        Ok(bytes)
    }

    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if let Some((keep, err)) = self.write_fault(bytes.len()) {
            // Land the prefix so the torn file is observable on disk.
            let _ = self.inner.write_sync(path, &bytes[..keep]);
            return Err(err);
        }
        self.inner.write_sync(path, bytes)
    }

    fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if let Some((keep, err)) = self.write_fault(bytes.len()) {
            let _ = self.inner.append_sync(path, &bytes[..keep]);
            return Err(err);
        }
        self.inner.append_sync(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.chance(self.rates.rename_fail, |c| c.rename_fails += 1) {
            return Err(Self::injected("rename failed"));
        }
        self.inner.rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if self.chance(self.rates.cleanup_fail, |c| c.cleanup_fails += 1) {
            return Err(Self::injected("cleanup failed"));
        }
        self.inner.remove_file(path)
    }

    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        self.inner.file_len(path)
    }
}

/// A unique scratch directory under the system temp dir (test support).
pub fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    std::env::temp_dir().join(format!("caba-store-{tag}-{pid}-{n}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn either_fault_flag_turns_injection_on_and_the_other_takes_its_default() {
        let flags = |given: &[(&str, &str)]| {
            let mut f = FaultFlags::default();
            for (flag, value) in given {
                f.take(flag, Some(value)).expect("well-formed");
            }
            f
        };
        assert_eq!(flags(&[]).injection(), None);
        let seed = flags(&[("--store-fault-seed", "7")]);
        assert_eq!(seed.injection(), Some((7, FaultFlags::DEFAULT_RATE)));
        let rate = flags(&[("--store-fault-rate", "0.5")]);
        assert_eq!(rate.injection(), Some((0, 0.5)));
        let both = flags(&[("--store-fault-rate", "1"), ("--store-fault-seed", "3")]);
        assert_eq!(both.injection(), Some((3, 1.0)));
        // Rate 0 is still injection, at rates that never fire.
        let zero = flags(&[("--store-fault-rate", "0")]);
        assert_eq!(zero.injection(), Some((0, 0.0)));
        for f in [seed, rate, both, zero] {
            assert!(f.check_store_dir(true).is_ok());
            assert!(f
                .check_store_dir(false)
                .unwrap_err()
                .ends_with("needs --store-dir"));
        }
        assert!(flags(&[]).check_store_dir(false).is_ok());
        let mut f = FaultFlags::default();
        for rate in ["7", "nan", "-0.5", "inf", "1.0000001"] {
            let err = f.take("--store-fault-rate", Some(rate)).unwrap_err();
            assert!(err.contains("must lie in 0..=1"), "{rate}: {err}");
        }
        assert!(f.take("--store-dir", Some("x")).is_err());
        assert_eq!(f, FaultFlags::default(), "a rejected value is not kept");
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let dir = scratch_dir("fsio-det");
        RealFs.create_dir_all(&dir).unwrap();
        let run = |seed: u64| -> (Vec<bool>, FaultCounts) {
            let fs = FaultFs::new(seed, FaultRates::uniform(0.3));
            let mut oks = Vec::new();
            let p = dir.join(format!("det-{seed}.bin"));
            for i in 0..100u64 {
                let payload = i.to_le_bytes();
                oks.push(fs.write_sync(&p, &payload).is_ok());
                oks.push(fs.read(&p).is_ok());
                oks.push(fs.rename(&p, &p).is_ok());
            }
            (oks, fs.counts())
        };
        let (a, ca) = run(7);
        let (b, cb) = run(7);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(ca, cb);
        assert!(ca.total() > 0, "30% rates must fire in 300 ops");
        let (c, _) = run(8);
        assert_ne!(a, c, "different seed, different schedule");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_lands_a_prefix() {
        let dir = scratch_dir("fsio-torn");
        RealFs.create_dir_all(&dir).unwrap();
        let fs = FaultFs::new(
            1,
            FaultRates {
                torn_write: 1.0,
                ..FaultRates::none()
            },
        );
        let p = dir.join("torn.bin");
        let payload = vec![0xAB; 256];
        let err = fs.write_sync(&p, &payload).unwrap_err();
        assert!(err.to_string().contains("torn write"));
        let on_disk = RealFs.read(&p).unwrap();
        assert!(on_disk.len() < payload.len(), "a strict prefix landed");
        assert_eq!(&payload[..on_disk.len()], &on_disk[..]);
        assert_eq!(fs.counts().torn_writes, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_read_is_silent() {
        let dir = scratch_dir("fsio-short");
        RealFs.create_dir_all(&dir).unwrap();
        let p = dir.join("short.bin");
        RealFs.write_sync(&p, &[7u8; 100]).unwrap();
        let fs = FaultFs::new(
            2,
            FaultRates {
                short_read: 1.0,
                ..FaultRates::none()
            },
        );
        let got = fs.read(&p).expect("short read returns Ok");
        assert!(got.len() < 100, "prefix only");
        assert!(got.iter().all(|&b| b == 7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rename_leaves_the_source() {
        let dir = scratch_dir("fsio-rename");
        RealFs.create_dir_all(&dir).unwrap();
        let from = dir.join("a.tmp");
        let to = dir.join("a.entry");
        RealFs.write_sync(&from, b"x").unwrap();
        let fs = FaultFs::new(
            3,
            FaultRates {
                rename_fail: 1.0,
                ..FaultRates::none()
            },
        );
        assert!(fs.rename(&from, &to).is_err());
        assert_eq!(RealFs.file_len(&from).unwrap(), Some(1), "source intact");
        assert_eq!(RealFs.file_len(&to).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
