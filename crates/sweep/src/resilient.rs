//! The one path from a cell list to results ([`stream_cells`]: one store
//! read for the list, the misses fanned out), the one per-cell path it
//! hands the misses to, and the resume journal. A cell is looked up in
//! the durable store by [`CellSpec::content_hash`], otherwise simulated
//! with panic isolation and bounded retry, then persisted
//! ([`run_cell_stored`]). `Sweep::run` and `caba-serve`'s `/figure` reach
//! their cells through `stream_cells`, and a miss of either, like a
//! `/cell` miss, through `run_cell_stored`; `/cell` answers a stored cell
//! from the probe half ([`probe_store`]) alone.
//!
//! # Failure model
//!
//! A sweep cell can fail two ways. A **simulator error** ([`RunError`]:
//! timeout, hang, audit failure) is deterministic by construction — the
//! simulator is bit-reproducible, so retrying is pointless and the error is
//! reported immediately. A **panic** escaping the cell (a harness bug, or a
//! transient host fault) is caught and retried up to a bounded count; a
//! cell that succeeds on retry is *transient*, one that repeats the
//! identical panic is classified *deterministic*, and exhausted retries
//! with varying messages stay *undetermined*.
//!
//! Store faults degrade gracefully: a failed read means the cell
//! recomputes, a failed write means it will recompute next time — results
//! are never affected, only speed.
//!
//! # Resume journal
//!
//! A journaled sweep appends one line per finished cell to a file keyed by
//! [`CellSpec::sweep_hash`] (the canonicalized [`GpuConfig`] via
//! [`caba_sim::snapshot::config_hash`], which ignores the observability
//! and checkpoint knobs, plus the workload scale). Each line carries
//! its own checksum, so a line torn by a crash mid-write is skipped and
//! that cell simply re-runs. Restarting the same invocation re-runs *only*
//! cells absent from the journal; because every cell is bit-deterministic,
//! the resumed report is identical to an uninterrupted one.
//!
//! [`GpuConfig`]: caba_sim::GpuConfig
//! [`RunError`]: caba_sim::RunError

use crate::cell::{run_cell, CellSpec};
use crate::fanout::fan_out;
use crate::{CellResult, SweepCell};
use caba_sim::RunStats;
use caba_stats::checksum::{seal_line, verify_line};
use caba_stats::json;
use caba_stats::snap::{SnapshotReader, SnapshotState, SnapshotWriter};
use caba_store::{Store, StoreError};
use caba_workloads::app;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Why a cell could not produce statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureClass {
    /// A simulator error ([`RunError`](caba_sim::RunError)): deterministic
    /// by construction, never retried.
    SimError,
    /// The same panic repeated on retry: a deterministic harness bug.
    DeterministicPanic,
    /// Retries exhausted with differing messages: cause undetermined
    /// (possibly a transient host fault that kept moving).
    Undetermined,
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureClass::SimError => write!(f, "simulator error (deterministic)"),
            FailureClass::DeterministicPanic => write!(f, "repeated panic (deterministic)"),
            FailureClass::Undetermined => write!(f, "retries exhausted (undetermined)"),
        }
    }
}

/// A cell that failed every attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Classification of the failure.
    pub class: FailureClass,
    /// One message per attempt, oldest first.
    pub errors: Vec<String>,
}

impl fmt::Display for CellFailure {
    /// The classification and the last attempt's message.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let last = self.errors.last().map_or("?", String::as_str);
        write!(f, "{}: {last}", self.class)
    }
}

/// What the per-cell path ([`run_cell_stored`]) reports for one cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's result, or its classified failure.
    pub result: Result<CellResult, CellFailure>,
    /// Simulation attempts consumed: 0 when the store answered, 1 when the
    /// first try succeeded, more when a caught panic was retried.
    pub attempts: u32,
    /// Whether the result was restored from the durable store.
    pub from_store: bool,
}

impl CellOutcome {
    /// A result read back (from the store or the journal), not simulated.
    pub(crate) fn restored(
        spec: &CellSpec,
        stats: RunStats,
        wall_s: f64,
        from_store: bool,
    ) -> Self {
        CellOutcome {
            result: Ok(CellResult {
                cell: spec.cell(),
                stats,
                wall_s,
            }),
            attempts: 0,
            from_store,
        }
    }
}

/// Errors from journaled sweep execution.
#[derive(Debug)]
pub enum SweepError {
    /// Reading or writing the manifest failed.
    Io {
        /// The manifest path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The manifest belongs to a different sweep (configuration or scale
    /// changed since it was written).
    ManifestMismatch {
        /// Key recorded in the manifest header.
        found: u64,
        /// Key of the requested sweep.
        expected: u64,
    },
    /// One or more cells failed every attempt. The journal retains every
    /// completed cell, so a later `--resume` re-runs only these.
    CellsFailed(Vec<(SweepCell, CellFailure)>),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io { path, source } => {
                write!(f, "manifest {}: {source}", path.display())
            }
            SweepError::ManifestMismatch { found, expected } => write!(
                f,
                "manifest belongs to a different sweep (key {found:016x}, this sweep is \
                 {expected:016x}); delete it or point --resume elsewhere"
            ),
            SweepError::CellsFailed(cells) => {
                writeln!(f, "{} cell(s) failed every attempt:", cells.len())?;
                for (cell, failure) in cells {
                    writeln!(
                        f,
                        "  {} / {} @ {}x BW: {failure}",
                        cell.app,
                        cell.design.label(),
                        cell.bw_scale,
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// The one per-cell path: probe `store` by [`CellSpec::content_hash`];
/// on a miss simulate [`run_cell`] with panic isolation and up to
/// `retries` extra attempts (see the module docs for the classification
/// rules); persist a fresh result before returning, so a cell is durable
/// the moment it finishes, whatever its place in the output order.
///
/// `key` is `spec.content_hash()`. Both callers need it before the call
/// (the journal lookup, the single-flight key) and it is the costliest
/// step of a warm cell, so it is passed in rather than derived twice.
pub fn run_cell_stored(
    spec: &CellSpec,
    key: u64,
    retries: u32,
    store: Option<&Store>,
) -> CellOutcome {
    debug_assert_eq!(key, spec.content_hash(), "key must be the spec's own");
    if let Some(hit) = store.and_then(|store| probe_store(spec, key, store)) {
        return hit;
    }
    let (result, attempts) = simulate_with_retry(spec, retries);
    if let (Ok(r), Some(store)) = (&result, store) {
        let payload = encode_result_payload(&r.stats, r.wall_s);
        if let Err(e) = store.put_result(key, &spec.label(), &payload) {
            eprintln!("caba: store write for {} failed ({e})", spec.label());
        }
    }
    CellOutcome {
        result,
        attempts,
        from_store: false,
    }
}

/// The probe half of [`run_cell_stored`]: the cell's result restored from
/// `store`, or `None` when the store holds no entry for `key`, the read
/// fails (logged) or the payload does not decode. `key` is
/// `spec.content_hash()`. A caller that answers a hit at once (the
/// server, ahead of its single-flight) probes first and calls
/// `run_cell_stored` only on `None`.
pub fn probe_store(spec: &CellSpec, key: u64, store: &Store) -> Option<CellOutcome> {
    let payload = logged_read(spec, store.get_result(key))?;
    let (stats, wall_s) = decode_result_payload(&payload)?;
    Some(CellOutcome::restored(spec, stats, wall_s, true))
}

/// A row as [`stream_cells`] hands it to its sink.
// `T` is what `miss` returns, which holds a `CellOutcome` too in both
// callers: the variants are the same size where it matters.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum StreamedCell<T> {
    /// Restored from the store's one read.
    Stored(CellOutcome),
    /// What the caller's `miss` returned for a cell the store did not hold
    /// or held in a form that does not decode.
    Missed(T),
}

/// The one path from a cell list to results, shared by `Sweep::run` and
/// `caba-serve`'s `/figure`. Reads every cell in one store call
/// ([`Store::get_results`]); `keys[i]` is `specs[i]`'s content hash. Each
/// stored row reaches `sink(i, ..)` on the calling thread, in input order,
/// as soon as every earlier row has, and its payload is decoded only then,
/// so a streaming caller holds one decoded `RunStats` at a time. Every
/// other row goes to `miss(i)` through the ordered fan-out on up to `jobs`
/// workers, as does a stored payload that does not decode (on the calling
/// thread, when its turn comes). A list the store holds in full starts no
/// thread.
///
/// # Errors
///
/// The first `sink` error: delivery stops, and workers finish the cell
/// they hold and claim no more.
pub fn stream_cells<T: Send, E>(
    specs: &[CellSpec],
    keys: &[u64],
    store: Option<&Store>,
    jobs: usize,
    miss: impl Fn(usize) -> T + Sync,
    mut sink: impl FnMut(usize, StreamedCell<T>) -> Result<(), E>,
) -> Result<(), E> {
    debug_assert_eq!(specs.len(), keys.len());
    let mut stored: Vec<Option<Vec<u8>>> = match store {
        Some(store) => store
            .get_results(keys)
            .into_iter()
            .zip(specs)
            .map(|(read, spec)| logged_read(spec, read))
            .collect(),
        None => vec![None; specs.len()],
    };
    let cold: Vec<usize> = (0..specs.len()).filter(|&i| stored[i].is_none()).collect();
    // Delivers the stored rows from the first row not delivered yet up to
    // `end`, then the miss at `end`, if any.
    let mut next = 0;
    let mut deliver = |end: usize, missed: Option<T>| -> Result<(), E> {
        for i in next..end {
            let payload = stored[i].take().expect("a row that is not cold is stored");
            let row = match decode_result_payload(&payload) {
                Some((stats, wall_s)) => {
                    StreamedCell::Stored(CellOutcome::restored(&specs[i], stats, wall_s, true))
                }
                None => StreamedCell::Missed(miss(i)),
            };
            sink(i, row)?;
        }
        next = end + 1;
        missed.map_or(Ok(()), |value| sink(end, StreamedCell::Missed(value)))
    };
    fan_out(
        cold.len(),
        jobs,
        |j| miss(cold[j]),
        |j, value| deliver(cold[j], Some(value)),
    )?;
    deliver(specs.len(), None)
}

/// A store read of `spec`'s result, with a failed read logged and taken as
/// a miss: the cell is recomputed.
fn logged_read(spec: &CellSpec, read: Result<Option<Vec<u8>>, StoreError>) -> Option<Vec<u8>> {
    read.unwrap_or_else(|e| {
        eprintln!(
            "caba: store read for {} failed ({e}); recomputing",
            spec.label()
        );
        None
    })
}

/// [`run_cell`] under panic isolation; returns the result and the attempts
/// consumed.
fn simulate_with_retry(spec: &CellSpec, retries: u32) -> (Result<CellResult, CellFailure>, u32) {
    let fail = |class, errors| Err(CellFailure { class, errors });
    // Unknown app names repeat forever; fail immediately and typed
    // instead of letting `run_cell`'s panic burn the retry budget.
    if app(spec.app).is_none() {
        let errors = vec![format!("unknown app {}", spec.app)];
        return (fail(FailureClass::DeterministicPanic, errors), 1);
    }
    let mut errors: Vec<String> = Vec::new();
    for attempt in 1..=retries.saturating_add(1) {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_cell(spec))) {
            Ok(Ok(result)) => return (Ok(result), attempt),
            Ok(Err(run_err)) => {
                // The simulator is bit-deterministic: a RunError will
                // repeat identically, so there is nothing to retry.
                errors.push(run_err.to_string());
                return (fail(FailureClass::SimError, errors), attempt);
            }
            Err(payload) => {
                let msg = panic_message(&payload);
                let repeated = errors.last().is_some_and(|prev| *prev == msg);
                errors.push(msg);
                if repeated {
                    // The identical panic twice in a row: deterministic.
                    return (fail(FailureClass::DeterministicPanic, errors), attempt);
                }
            }
        }
    }
    let attempts = errors.len() as u32;
    (fail(FailureClass::Undetermined, errors), attempts)
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ----- resume manifest -----------------------------------------------------

const MANIFEST_HEADER: &str = "caba-sweep-manifest-v1";

fn encode_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn decode_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).ok())
        .collect()
}

/// Renders one journal line for a finished cell. The trailing checksum
/// covers the rest of the line, so a torn write is detected and skipped.
fn journal_line(key: u64, stats: &RunStats, wall_s: f64) -> String {
    let mut w = SnapshotWriter::new();
    stats.save(&mut w);
    seal_line(format!(
        "cell {key:016x} wall={:016x} stats={}",
        wall_s.to_bits(),
        encode_hex(&w.into_bytes())
    ))
}

/// Parses one journal line; `None` for anything malformed (including a
/// line torn by a crash mid-write).
fn parse_journal_line(line: &str) -> Option<(u64, RunStats, f64)> {
    // The journal has always let whitespace trail the checksum digits.
    let body = verify_line(line.trim_end())?;
    let rest = body.strip_prefix("cell ")?;
    let (key_s, rest) = rest.split_once(' ')?;
    let key = u64::from_str_radix(key_s, 16).ok()?;
    let rest = rest.strip_prefix("wall=")?;
    let (wall_s, rest) = rest.split_once(' ')?;
    let wall = f64::from_bits(u64::from_str_radix(wall_s, 16).ok()?);
    let stats_hex = rest.strip_prefix("stats=")?;
    let bytes = decode_hex(stats_hex)?;
    let mut r = SnapshotReader::new(&bytes);
    let stats = RunStats::load(&mut r).ok()?;
    r.finish().ok()?;
    Some((key, stats, wall))
}

/// An open resume journal: what earlier runs finished, and the file that
/// every newly finished cell is appended to.
pub(crate) struct Journal {
    done: HashMap<u64, (RunStats, f64)>,
    file: Mutex<std::fs::File>,
}

impl Journal {
    /// Opens the journal at `path` for the sweep keyed `sweep_hash`. An
    /// intact journal is appended to; a missing or empty file, or one whose
    /// header does not parse (torn by a crash), is truncated and started
    /// over with a fresh header.
    ///
    /// # Errors
    ///
    /// [`SweepError::ManifestMismatch`] if the journal belongs to a
    /// different sweep; [`SweepError::Io`] on I/O failures.
    pub(crate) fn open(path: &Path, sweep_hash: u64) -> Result<Journal, SweepError> {
        let io_err = |source| SweepError::Io {
            path: path.to_path_buf(),
            source,
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(io_err(e)),
        };
        let mut lines = text.lines();
        let header_key = lines.next().and_then(|header| {
            header
                .strip_prefix(MANIFEST_HEADER)
                .and_then(|r| r.trim().strip_prefix("key="))
                .filter(|k| k.len() == 16)
                .and_then(|k| u64::from_str_radix(k, 16).ok())
        });
        let mut open = std::fs::OpenOptions::new();
        let (done, prefix) = match header_key {
            Some(found) if found != sweep_hash => {
                return Err(SweepError::ManifestMismatch {
                    found,
                    expected: sweep_hash,
                })
            }
            Some(_) => {
                open.append(true);
                // Malformed lines (torn by a crash) are skipped: the cell
                // re-runs. A torn tail is closed off so the next line
                // does not land on it.
                let done = lines
                    .filter_map(parse_journal_line)
                    .map(|(key, stats, wall)| (key, (stats, wall)))
                    .collect();
                let prefix = if text.ends_with('\n') { "" } else { "\n" };
                (done, prefix.to_string())
            }
            None => {
                open.write(true).create(true).truncate(true);
                (
                    HashMap::new(),
                    format!("{MANIFEST_HEADER} key={sweep_hash:016x}\n"),
                )
            }
        };
        let mut file = open.open(path).map_err(io_err)?;
        file.write_all(prefix.as_bytes()).map_err(io_err)?;
        Ok(Journal {
            done,
            file: Mutex::new(file),
        })
    }

    /// The journaled result for cell `key`, if an earlier run finished it.
    pub(crate) fn get(&self, key: u64) -> Option<&(RunStats, f64)> {
        self.done.get(&key)
    }

    /// Appends a finished cell. One write per line; a crash tears at most
    /// the final line, which resume skips.
    pub(crate) fn append(&self, key: u64, stats: &RunStats, wall_s: f64) {
        let line = journal_line(key, stats, wall_s);
        let mut f = self.file.lock().expect("journal lock");
        let _ = f.write_all(line.as_bytes()).and_then(|()| f.flush());
    }
}

/// Encodes a finished cell result — the run's [`RunStats`] plus its wall
/// time — into the payload format the durable result store holds.
pub fn encode_result_payload(stats: &RunStats, wall_s: f64) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.f64(wall_s);
    stats.save(&mut w);
    w.into_bytes()
}

/// Decodes a result payload written by [`encode_result_payload`]; `None`
/// on any decode failure (the store already checksummed the container, so
/// a failure here means version skew, and the cell simply re-runs).
pub fn decode_result_payload(bytes: &[u8]) -> Option<(RunStats, f64)> {
    let mut r = SnapshotReader::new(bytes);
    let wall = r.f64().ok()?;
    let stats = RunStats::load(&mut r).ok()?;
    r.finish().ok()?;
    Some((stats, wall))
}

/// One line of the deterministic figure table for a finished cell:
/// app, design, bandwidth, and every derived rate from
/// [`RunStats::summary`] — no wall times, so the line is a pure function
/// of the cell's (bit-deterministic) statistics. [`figure_table`] and the
/// `caba-serve` streaming figure endpoint both emit exactly these bytes,
/// which is what makes the served table byte-identical to the offline one.
pub fn figure_table_line(cell: &SweepCell, stats: &RunStats) -> String {
    let mut line = String::with_capacity(TABLE_LINE_BYTES);
    push_figure_table_line(&mut line, cell, stats);
    line
}

/// Room for one [`figure_table_line`]: the default table's rows are 490-560
/// bytes.
const TABLE_LINE_BYTES: usize = 640;

/// [`figure_table_line`], appended to `out`: every field is written into
/// the caller's buffer, so a caller that reuses one buffer per table (the
/// server streaming a figure) allocates nothing per row.
pub fn push_figure_table_line(out: &mut String, cell: &SweepCell, stats: &RunStats) {
    out.push_str(cell.app);
    out.push('\t');
    out.push_str(cell.design.label());
    out.push('\t');
    push_display_f64(out, cell.bw_scale);
    out.push('\t');
    stats.summary().write_json(out);
    out.push('\n');
}

/// `x` as `{}` spells it (the shortest text that reads back as `x`). The
/// bandwidth scales a sweep runs (½, 1, 2) are multiples of 1/64 below
/// 2^20: their six-decimal form is exact and has at most 13 significant
/// digits, and a decimal that short is the shortest one for its `f64`, so
/// [`json::write_f64`] writes it. Any other value goes through `Display`.
fn push_display_f64(out: &mut String, x: f64) {
    if (x * 64.0).fract() == 0.0 && x.abs() < 1_048_576.0 {
        json::write_f64(out, x);
    } else {
        write!(out, "{x}").expect("writing to a String cannot fail");
    }
}

/// The deterministic figure table derived from sweep results: one line per
/// cell ([`figure_table_line`]), and no wall times. Two sweeps over the
/// same cells produce byte-identical tables — including a journaled sweep
/// resumed after a kill, a store-warm-started fresh process, or the table
/// served over HTTP by `caba-serve`.
pub fn figure_table(results: &[CellResult]) -> String {
    let mut s = String::with_capacity(TABLE_LINE_BYTES * results.len());
    for r in results {
        push_figure_table_line(&mut s, &r.cell, &r.stats);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignId, Sweep, SweepConfig};
    use caba_sim::snapshot::config_hash;
    use caba_sim::GpuConfig;
    use caba_stats::checksum::checksum64;

    fn tiny_sc() -> SweepConfig {
        SweepConfig {
            scale: 0.05,
            cfg: GpuConfig::small(),
        }
    }

    fn tiny_cells() -> Vec<SweepCell> {
        [
            ("CONS", DesignId::Base),
            ("CONS", DesignId::CabaBdi),
            ("BFS", DesignId::Base),
        ]
        .into_iter()
        .map(|(app, design)| SweepCell {
            app,
            design,
            bw_scale: 1.0,
        })
        .collect()
    }

    /// A fresh journal path unique to `tag`.
    fn scratch_journal(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("caba-test-{tag}-{:x}.txt", tiny_sc().sweep_hash()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn journaled(sc: &SweepConfig, manifest: &Path) -> Result<String, SweepError> {
        let run = Sweep::new(sc, tiny_cells())
            .jobs(2)
            .journal(manifest)
            .run()?;
        Ok(run.table())
    }

    #[test]
    fn keys_are_stable_and_config_sensitive() {
        let sc = tiny_sc();
        let cells = tiny_cells();
        let key = |sc: &SweepConfig, cell: &SweepCell| CellSpec::new(sc, *cell).content_hash();
        assert_eq!(key(&sc, &cells[0]), key(&sc, &cells[0]));
        assert_ne!(key(&sc, &cells[0]), key(&sc, &cells[1]));
        let mut other = sc;
        other.cfg.mshrs += 1;
        assert_ne!(key(&sc, &cells[0]), key(&other, &cells[0]));
        // Record-only knobs and the inert `intra_jobs` are canonicalized
        // away.
        let mut tolerated = sc;
        tolerated.cfg.intra_jobs = 4;
        tolerated.cfg.checkpoint_interval = 500;
        assert_eq!(sc.sweep_hash(), tolerated.sweep_hash());
    }

    /// Satellite pin: the resume journal, the durable store, and the
    /// `caba-serve` service all key cells by [`CellSpec::content_hash`] —
    /// one derivation, provably shared, and byte-compatible with the
    /// pre-refactor formula so stores written by earlier builds stay warm.
    /// The key streams its fields into the hasher; the formula `format!`s
    /// them. Checked on the tiny sweep and on random apps, designs, scales
    /// (any positive finite bits) and machines.
    #[test]
    fn keys_agree_across_journal_store_and_server() {
        let check = |sc: &SweepConfig, cell: SweepCell| {
            let spec = CellSpec::new(sc, cell);
            assert_eq!(sc.sweep_hash(), spec.sweep_hash());
            // The pre-refactor formulas, spelled out literally.
            let legacy_sweep = checksum64(
                format!("{:016x}|{:016x}", config_hash(&sc.cfg), sc.scale.to_bits()).as_bytes(),
            );
            let legacy_cell = checksum64(
                format!(
                    "{:016x}|{}|{}|{:016x}",
                    legacy_sweep,
                    cell.app,
                    cell.design.label(),
                    cell.bw_scale.to_bits()
                )
                .as_bytes(),
            );
            assert_eq!(spec.sweep_hash(), legacy_sweep, "{spec:?}");
            assert_eq!(spec.content_hash(), legacy_cell, "{spec:?}");
            assert_eq!(spec.content_hash_in(sc.sweep_hash()), legacy_cell);
        };
        for cell in tiny_cells() {
            check(&tiny_sc(), cell);
        }
        let apps = caba_workloads::all_apps();
        let positive = |bits: u64| f64::from_bits((bits % 0x7FF0_0000_0000_0000).max(1));
        caba_stats::prop::check(0x4E7_5EED, 300, |rng| {
            let mut sc = tiny_sc();
            sc.scale = positive(rng.next_u64());
            sc.cfg.mshrs = 1 + rng.range_u64(64) as usize;
            sc.cfg.fault.seed = rng.next_u64();
            let cell = SweepCell {
                app: apps[rng.range_u64(apps.len() as u64) as usize].name,
                design: DesignId::ALL[rng.range_u64(DesignId::ALL.len() as u64) as usize],
                bw_scale: positive(rng.next_u64()),
            };
            check(&sc, cell);
        });
    }

    /// A float as `json::write_f64` wrote it through `core::fmt`: the
    /// `{:.6}` text, trimmed.
    fn reference_f64(x: f64) -> String {
        if !x.is_finite() {
            return "null".to_string();
        }
        let s = format!("{x:.6}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }

    /// The summary object as `StatsSummary::write_json` rendered it through
    /// `io::Write`, one `format!`ed float and escaped slug at a time.
    fn reference_summary_json(s: &caba_sim::StatsSummary) -> String {
        use caba_stats::json::escape;
        use caba_stats::StallKind;
        let mut w = format!(
            "{{\"cycles\": {}, \"app_instructions\": {}, \"assist_instructions\": {}, \
             \"ipc\": {}, \"assist_fraction\": {}, \"l1_hit_rate\": {}, \
             \"l2_hit_rate\": {}, \"md_hit_rate\": {}, \"bandwidth_utilization\": {}, \
             \"icnt_flits\": {}, \"md_stall_cycles\": {}, \"assist_slots_stolen\": {}, \
             \"assist_slots_reclaimed\": {}, \"issue_fractions\": {{",
            s.cycles,
            s.app_instructions,
            s.assist_instructions,
            reference_f64(s.ipc),
            reference_f64(s.assist_fraction),
            reference_f64(s.l1_hit_rate),
            reference_f64(s.l2_hit_rate),
            reference_f64(s.md_hit_rate),
            reference_f64(s.bandwidth_utilization),
            s.icnt_flits,
            s.md_stall_cycles,
            s.assist_slots_stolen,
            s.assist_slots_reclaimed,
        );
        for (i, k) in StallKind::ALL.iter().enumerate() {
            if i > 0 {
                w.push_str(", ");
            }
            w.push_str(&format!(
                "\"{}\": {}",
                escape(k.slug()),
                reference_f64(s.issue_fractions[i])
            ));
        }
        w.push_str("}}");
        w
    }

    /// The `format!`-based row [`push_figure_table_line`] replaced.
    fn reference_table_line(cell: &SweepCell, stats: &RunStats) -> String {
        format!(
            "{}\t{}\t{}\t{}\n",
            cell.app,
            cell.design.label(),
            cell.bw_scale,
            reference_summary_json(&stats.summary())
        )
    }

    /// Counters from zero to 2^40, so that the summary's sums cannot
    /// overflow, and every issue bucket at a random weight.
    fn random_stats(rng: &mut caba_stats::Rng64) -> RunStats {
        let mut n = || match rng.range_u64(4) {
            0 => 0,
            1 => rng.range_u64(100),
            _ => rng.range_u64(1 << 40),
        };
        let mut s = RunStats {
            cycles: n(),
            app_instructions: n(),
            assist_instructions: n(),
            l1_hits: n(),
            l1_misses: n(),
            l2_hits: n(),
            l2_misses: n(),
            dram_busy_cycles: n(),
            dram_total_cycles: n(),
            icnt_flits: n(),
            md_lookups: n(),
            md_stall_cycles: n(),
            assist_slots_stolen: n(),
            assist_slots_reclaimed: n(),
            ..Default::default()
        };
        s.md_misses = rng.range_u64(s.md_lookups + 1);
        for k in caba_stats::StallKind::ALL {
            let weight = 1 << rng.range_u64(40);
            s.breakdown.record_n(k, rng.range_u64(weight));
        }
        s
    }

    #[test]
    fn table_lines_match_the_formatted_reference_on_random_stats() {
        let mut line = String::new();
        caba_stats::prop::check(0x7AB1E, 2_000, |rng| {
            let cell = SweepCell {
                app: ["CONS", "BFS", "MUM", "PVC"][rng.range_u64(4) as usize],
                design: DesignId::ALL[rng.range_u64(8) as usize],
                bw_scale: [0.5, 1.0, 2.0, rng.next_f64() * 4.0][rng.range_u64(4) as usize],
            };
            let stats = random_stats(rng);
            let want = reference_table_line(&cell, &stats);
            assert_eq!(figure_table_line(&cell, &stats), want);
            // Appended into a reused buffer, after what is already there.
            let before = line.len();
            push_figure_table_line(&mut line, &cell, &stats);
            assert_eq!(&line[before..], want.as_str());
            if line.len() > 4096 {
                line.clear();
            }
        });
        let results = [0.5, 1.0].map(|bw_scale| CellResult {
            cell: SweepCell {
                app: "CONS",
                design: DesignId::CabaBdi,
                bw_scale,
            },
            stats: RunStats {
                cycles: 9,
                app_instructions: 4,
                ..Default::default()
            },
            wall_s: 0.0,
        });
        let table: String = results
            .iter()
            .map(|r| reference_table_line(&r.cell, &r.stats))
            .collect();
        assert_eq!(figure_table(&results), table);
    }

    #[test]
    fn bandwidth_columns_spell_what_display_spells() {
        let mut out = String::new();
        let mut check = |x: f64| {
            out.clear();
            push_display_f64(&mut out, x);
            assert_eq!(out, x.to_string(), "{x:e}");
        };
        for x in [
            0.5,
            1.0,
            2.0,
            0.25,
            -0.0,
            1.0 / 64.0,
            1048575.984375,
            1048576.0,
            0.1,
        ] {
            check(x);
        }
        caba_stats::prop::check(0xB0_D15, 20_000, |rng| {
            let sixty_fourths = rng.range_u64(1 << 27) as f64 / 64.0;
            check(sixty_fourths);
            check(-sixty_fourths);
            // Seven binary places: six decimals would round these.
            check((2 * rng.range_u64(1 << 20) + 1) as f64 / 128.0);
            check(rng.next_f64() * 4.0);
            check(f64::from_bits(rng.next_u64()));
        });
    }

    #[test]
    fn journal_lines_round_trip_and_reject_corruption() {
        let stats = RunStats {
            cycles: 12345,
            l2_hits: 17,
            ..Default::default()
        };
        let line = journal_line(0xABCD, &stats, 1.5);
        let (key, back, wall) = parse_journal_line(line.trim_end()).expect("line parses");
        assert_eq!(key, 0xABCD);
        assert_eq!(back, stats);
        assert_eq!(wall, 1.5);
        // Any flipped character is rejected.
        let mut bad = line.trim_end().to_string();
        let mid = bad.len() / 2;
        bad.replace_range(
            mid..mid + 1,
            if &bad[mid..mid + 1] == "0" { "1" } else { "0" },
        );
        assert!(parse_journal_line(&bad).is_none());
        // A torn (truncated) line is rejected.
        assert!(parse_journal_line(&line[..line.len() / 2]).is_none());
    }

    #[test]
    fn unknown_app_is_deterministic_and_never_retried() {
        let mut spec = CellSpec::new(&tiny_sc(), tiny_cells()[0]);
        spec.app = "NOPE";
        let out = run_cell_stored(&spec, spec.content_hash(), 5, None);
        let failure = out.result.expect_err("unknown app fails");
        assert_eq!(failure.class, FailureClass::DeterministicPanic);
        assert_eq!(out.attempts, 1, "deterministic failures are not retried");
        assert!(!out.from_store);
    }

    #[test]
    fn journaled_sweep_resumes_without_rerunning() {
        let sc = tiny_sc();
        let cells = tiny_cells();
        let manifest = scratch_journal("manifest");

        // Full run from scratch.
        let full_table = journaled(&sc, &manifest).expect("sweep runs");

        // Kill simulation: drop the last journal line (plus a torn tail)
        // and resume. Only the dropped cell re-runs; the table is
        // byte-identical.
        let text = std::fs::read_to_string(&manifest).expect("manifest exists");
        let mut lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            1 + cells.len(),
            "header plus one line per cell"
        );
        lines.pop();
        let mut truncated = lines.join("\n");
        truncated.push_str("\ncell 0123torn");
        std::fs::write(&manifest, truncated).expect("truncate manifest");

        let resumed = journaled(&sc, &manifest).expect("resume runs");
        assert_eq!(resumed, full_table, "resumed table is byte-identical");
        // The re-run cell's line starts on a line of its own, not glued to
        // the torn tail: the journal is complete again.
        let text = std::fs::read_to_string(&manifest).expect("manifest exists");
        let intact = text.lines().filter_map(parse_journal_line).count();
        assert_eq!(intact, cells.len(), "{text}");

        // A different sweep refuses the manifest.
        let mut other = sc;
        other.scale = 0.1;
        let err = journaled(&other, &manifest).unwrap_err();
        assert!(matches!(err, SweepError::ManifestMismatch { .. }));
        let _ = std::fs::remove_file(&manifest);
    }

    #[test]
    fn result_payload_round_trips_and_rejects_trailing_bytes() {
        let stats = RunStats {
            cycles: 777,
            dram_bursts: 13,
            ..Default::default()
        };
        let bytes = encode_result_payload(&stats, 2.25);
        let (back, wall) = decode_result_payload(&bytes).expect("payload decodes");
        assert_eq!(back, stats);
        assert_eq!(wall, 2.25);
        let mut long = bytes.clone();
        long.push(0);
        assert!(
            decode_result_payload(&long).is_none(),
            "trailing bytes rejected"
        );
        assert!(decode_result_payload(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn store_warm_starts_a_fresh_process_and_backfills_the_journal() {
        let sc = tiny_sc();
        let cells = tiny_cells();
        let dir = caba_store::fsio::scratch_dir("resilient-warm");

        let store = Store::open(&dir).expect("store opens");
        let full = Sweep::new(&sc, cells.clone())
            .jobs(2)
            .store(&store)
            .run()
            .expect("stored sweep runs");
        assert_eq!(full.store_hits, 0);
        assert_eq!(store.hit_count(), 0);
        let table = full.table();
        drop(store);

        // A fresh Store over the same directory models a fresh process
        // with no journal: every cell restores from disk, and the journal
        // is backfilled into a complete standalone record.
        let store = Store::open(&dir).expect("store reopens");
        let manifest = dir.join("resume.journal");
        let restored = Sweep::new(&sc, cells.clone())
            .jobs(2)
            .journal(&manifest)
            .store(&store)
            .run()
            .expect("warm-started sweep runs");
        assert_eq!(restored.table(), table, "warm start is bit-identical");
        assert_eq!(restored.store_hits, cells.len(), "every cell restored");
        assert_eq!(store.hit_count() as usize, cells.len());
        let text = std::fs::read_to_string(&manifest).expect("journal exists");
        assert_eq!(
            text.lines().count(),
            1 + cells.len(),
            "header plus one backfilled line per restored cell"
        );

        // The backfilled journal alone (store detached) also resumes.
        assert_eq!(journaled(&sc, &manifest).expect("journal-only"), table);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faultfs_torn_journal_line_is_tolerated_on_resume() {
        use caba_store::{FaultFs, FaultRates, StoreFs};
        let sc = tiny_sc();
        let manifest = scratch_journal("torn-journal");
        let table = journaled(&sc, &manifest).expect("sweep runs");

        // Re-append the final journal line through a FaultFs whose torn
        // write is certain: the crash artifact is produced by the real
        // injection path, not hand truncation.
        let text = std::fs::read_to_string(&manifest).expect("manifest exists");
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().expect("at least one cell line").to_string();
        std::fs::write(&manifest, format!("{}\n", lines.join("\n"))).expect("rewrite");
        let ffs = FaultFs::new(
            11,
            FaultRates {
                torn_write: 1.0,
                ..FaultRates::none()
            },
        );
        let err = ffs
            .append_sync(&manifest, format!("{last}\n").as_bytes())
            .expect_err("the tear is certain");
        assert!(err.to_string().contains("torn write"));

        // Resume over the torn journal: the torn tail is skipped (or, if
        // the kept prefix happened to be the whole line, restored) and the
        // table is byte-identical either way.
        assert_eq!(journaled(&sc, &manifest).expect("resume runs"), table);
        let _ = std::fs::remove_file(&manifest);
    }

    #[test]
    fn faultfs_torn_manifest_header_resets_instead_of_mismatching() {
        use caba_store::{FaultFs, FaultRates, StoreFs};
        let sc = tiny_sc();
        let cells = tiny_cells();
        let manifest = scratch_journal("torn-header");
        let table = journaled(&sc, &manifest).expect("sweep runs");
        let header = std::fs::read_to_string(&manifest)
            .expect("manifest exists")
            .lines()
            .next()
            .expect("header line")
            .to_string();

        // An intact header for this sweep still mismatches another sweep.
        let mut other = sc;
        other.scale = 0.1;
        let err = journaled(&other, &manifest).unwrap_err();
        assert!(matches!(err, SweepError::ManifestMismatch { .. }));

        // Tear the header with real injection, picking the first seed
        // whose kept prefix ends inside the magic string so no key can
        // parse at all. That journal must read as empty — a fresh start,
        // not a mismatch and not a crash.
        std::fs::remove_file(&manifest).expect("clear manifest");
        for seed in 0.. {
            let ffs = FaultFs::new(
                seed,
                FaultRates {
                    torn_write: 1.0,
                    ..FaultRates::none()
                },
            );
            let _ = ffs.write_sync(&manifest, format!("{header}\n").as_bytes());
            let kept = std::fs::metadata(&manifest).map(|m| m.len()).unwrap_or(0);
            if kept > 0 && kept < MANIFEST_HEADER.len() as u64 {
                break;
            }
        }
        let rerun = journaled(&sc, &manifest).expect("torn header reads as an empty journal");
        assert_eq!(rerun, table);

        // The rewrite replaced the torn prefix instead of appending to it,
        // so a third run resumes from a journal that is whole again:
        // header, one line per cell, nothing re-run and nothing re-added.
        assert_eq!(journaled(&sc, &manifest).expect("third run"), table);
        let text = std::fs::read_to_string(&manifest).expect("manifest exists");
        assert_eq!(text.lines().next(), Some(header.as_str()), "{text}");
        assert_eq!(text.lines().count(), 1 + cells.len(), "{text}");

        // A tear inside the key leaves a shorter hex number, which must
        // read as torn too, not as some other sweep's journal.
        std::fs::write(&manifest, &header[..header.len() - 3]).expect("tear the key");
        assert_eq!(journaled(&sc, &manifest).expect("torn key"), table);
        let _ = std::fs::remove_file(&manifest);
    }

    #[test]
    fn chaotic_store_degrades_to_recompute_never_corrupts() {
        use caba_store::{FaultFs, FaultRates};
        let sc = tiny_sc();
        let cells = tiny_cells();
        let clean = Sweep::new(&sc, cells.clone()).jobs(2).run().expect("clean");
        let table = clean.table();
        for seed in 0..4 {
            let dir = caba_store::fsio::scratch_dir(&format!("resilient-chaos-{seed}"));
            let store = Store::open_with_fs(
                &dir,
                Box::new(FaultFs::new(seed, FaultRates::uniform(0.25))),
            )
            .expect("store opens");
            for pass in 0..2 {
                let got = Sweep::new(&sc, cells.clone())
                    .jobs(2)
                    .store(&store)
                    .run()
                    .expect("faulted store never fails the sweep");
                assert_eq!(
                    got.table(),
                    table,
                    "seed {seed} pass {pass}: store fault leaked into results"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
