//! The one way to run a sweep: a builder that layers parallelism and a
//! durable store over the one path from a cell list to results
//! ([`stream_cells`]) and the one per-cell path ([`run_cell_stored`]). A
//! killed sweep resumes by running it again over the same store.
//!
//! ```no_run
//! use caba_store::Store;
//! use caba_sweep::{Figure, Sweep, SweepConfig};
//!
//! let sc = SweepConfig::default();
//! let store = Store::open("/var/tmp/caba-store").expect("store");
//! let run = Sweep::new(&sc, Figure::Fig07.cells())
//!     .jobs(4)
//!     .store(&store)
//!     .run()
//!     .expect("sweep");
//! println!("{} cells, {} from the store", run.results.len(), run.store_hits);
//! ```

use crate::resilient::{run_cell_stored, stream_cells, CellOutcome, Journal, StreamedCell};
use crate::{CellResult, CellSpec, SweepCell, SweepConfig, SweepError};
use caba_store::Store;
use std::convert::Infallible;
use std::path::PathBuf;

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Per-cell results, in the builder's input order.
    pub results: Vec<CellResult>,
    /// Cells restored from the durable result store instead of simulated.
    pub store_hits: usize,
}

impl SweepRun {
    /// The deterministic figure table for these results
    /// ([`figure_table`](crate::figure_table)).
    pub fn table(&self) -> String {
        crate::figure_table(&self.results)
    }
}

/// Builder over the sweep executor. Construct with [`Sweep::new`], layer
/// options, then [`run`](Sweep::run).
///
/// | layer | method | effect |
/// |---|---|---|
/// | parallelism | [`jobs`](Sweep::jobs) | worker threads (default: host cores) |
/// | memoize, resume | [`store`](Sweep::store) | durable result store; only misses simulate |
/// | journal | [`journal`](Sweep::journal) | write-only record of every cell's result (the benchmark's) |
pub struct Sweep<'a> {
    sc: SweepConfig,
    cells: Vec<SweepCell>,
    jobs: usize,
    journal: Option<PathBuf>,
    store: Option<&'a Store>,
}

impl<'a> Sweep<'a> {
    /// A sweep over `cells` under the shared options `sc`, with default
    /// layers: host-core parallelism, no store, no journal.
    pub fn new(sc: &SweepConfig, cells: Vec<SweepCell>) -> Self {
        Sweep {
            sc: *sc,
            cells,
            jobs: crate::host_cores(),
            journal: None,
            store: None,
        }
    }

    /// Worker threads (clamped to at least 1).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Write-only journal: [`run`](Sweep::run) creates the file at `path`,
    /// replacing any file there, and appends one sealed line per cell,
    /// simulated or restored from the store. Nothing reads it back; only
    /// the benchmark's `persist_churn` calls it.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Memoize results in an already-open durable [`Store`]: results
    /// persisted by an *earlier process* warm-start this one
    /// bit-identically, and every newly finished cell is persisted.
    pub fn store(mut self, store: &'a Store) -> Self {
        self.store = Some(store);
        self
    }

    /// Executes the sweep; results return in **input order** for any
    /// `jobs`. Every cell goes through [`stream_cells`]: one store read for
    /// the whole list, then each cell the store did not answer is run
    /// through [`run_cell_stored`]. With a journal, a simulated cell's line
    /// is appended as it finishes and a stored cell's as it is delivered.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] before any cell runs if the journal cannot be
    /// created; [`SweepError::CellsFailed`] after the sweep if any cell
    /// failed (completed cells stay stored).
    pub fn run(self) -> Result<SweepRun, SweepError> {
        let specs: Vec<CellSpec> = self
            .cells
            .iter()
            .map(|c| CellSpec::new(&self.sc, *c))
            .collect();
        let sweep_hash = self.sc.sweep_hash();
        let keys: Vec<u64> = specs
            .iter()
            .map(|s| s.content_hash_in(sweep_hash))
            .collect();
        let journal = match &self.journal {
            Some(path) => Some(Journal::create(path, sweep_hash)?),
            None => None,
        };
        let mut run = SweepRun {
            results: Vec::with_capacity(specs.len()),
            store_hits: 0,
        };
        let mut failed = Vec::new();
        let miss = |i: usize| -> CellOutcome {
            let outcome = run_cell_stored(&specs[i], keys[i], self.store);
            if let (Ok(r), Some(journal)) = (&outcome.result, &journal) {
                journal.append(keys[i], &r.stats, r.wall_s);
            }
            outcome
        };
        let collected: Result<(), Infallible> =
            stream_cells(&specs, &keys, self.store, self.jobs, miss, |i, row| {
                let out = match row {
                    StreamedCell::Stored(out) => {
                        if let (Ok(r), Some(journal)) = (&out.result, &journal) {
                            journal.append(keys[i], &r.stats, r.wall_s);
                        }
                        out
                    }
                    StreamedCell::Missed(out) => out,
                };
                run.store_hits += out.from_store as usize;
                match out.result {
                    Ok(result) => run.results.push(result),
                    Err(failure) => failed.push((self.cells[i], failure)),
                }
                Ok(())
            });
        let Ok(()) = collected;
        if failed.is_empty() {
            Ok(run)
        } else {
            Err(SweepError::CellsFailed(failed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_result_payload, DesignId};
    use caba_sim::GpuConfig;
    use caba_stats::checksum::verify_line;
    use caba_store::{RealFs, StoreFs};
    use std::io;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn tiny_sc() -> SweepConfig {
        SweepConfig {
            scale: 0.05,
            cfg: GpuConfig::small(),
        }
    }

    fn cells_of(list: &[(&'static str, DesignId)]) -> Vec<SweepCell> {
        list.iter()
            .map(|&(app, design)| SweepCell {
                app,
                design,
                bw_scale: 1.0,
            })
            .collect()
    }

    /// The real filesystem, counting entry-file reads and `lru.log`
    /// appends.
    struct Counting(RealFs, Arc<[AtomicU64; 2]>);

    impl StoreFs for Counting {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            if path.extension().is_some_and(|e| e == "entry") {
                self.1[0].fetch_add(1, Ordering::SeqCst);
            }
            self.0.read(path)
        }
        fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.0.write_sync(path, bytes)
        }
        fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            if path.ends_with("lru.log") {
                self.1[1].fetch_add(1, Ordering::SeqCst);
            }
            self.0.append_sync(path, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.0.rename(from, to)
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            self.0.sync_dir(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            self.0.create_dir_all(dir)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
            self.0.list(dir)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            self.0.remove_file(path)
        }
        fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
            self.0.file_len(path)
        }
    }

    /// Stores `results` under their cells' keys, as an earlier run would.
    fn put_all(store: &Store, sc: &SweepConfig, results: &[CellResult]) {
        for r in results {
            let spec = CellSpec::new(sc, r.cell);
            let payload = encode_result_payload(&r.stats, r.wall_s);
            store
                .put_result(spec.content_hash(), &spec.label(), &payload)
                .expect("put");
        }
    }

    #[test]
    fn an_all_stored_sweep_is_one_store_read_and_one_touch_append() {
        let sc = tiny_sc();
        let cells = cells_of(&[
            ("CONS", DesignId::Base),
            ("CONS", DesignId::CabaBdi),
            ("BFS", DesignId::Base),
            ("BFS", DesignId::HwBdi),
            ("LPS", DesignId::Base),
        ]);
        let storeless = Sweep::new(&sc, cells.clone()).jobs(1).run().expect("run");
        let dir = caba_store::fsio::scratch_dir("sweep-one-read");
        put_all(&Store::open(&dir).expect("store"), &sc, &storeless.results);

        let counts = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let fs = Counting(RealFs, Arc::clone(&counts));
        let store = Store::open_with_fs(&dir, Box::new(fs)).expect("store reopens");
        let before = counts.each_ref().map(|c| c.load(Ordering::SeqCst));
        let warm = Sweep::new(&sc, cells.clone())
            .jobs(2)
            .store(&store)
            .run()
            .expect("warm run");
        let after = counts.each_ref().map(|c| c.load(Ordering::SeqCst));
        assert_eq!(after[0] - before[0], cells.len() as u64, "entry reads");
        assert_eq!(after[1] - before[1], 1, "lru.log appends");
        assert_eq!(warm.store_hits, cells.len());
        assert_eq!((store.hit_count(), store.miss_count()), (5, 0));
        assert_eq!(warm.results, storeless.results);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Stored, cold and undecodable rows in one list: the stored ones are
    /// restored, the rest simulate (a cold row reads the store twice, the
    /// list's read and the per-cell path's re-probe), and every cell is
    /// journaled once, whatever the job count: a header carrying the sweep
    /// hash, then one sealed line per cell, simulated or backfilled. A
    /// re-run replaces the journal, and so does a run over another sweep's.
    #[test]
    fn stored_cold_and_undecodable_rows_give_the_storeless_results() {
        let sc = tiny_sc();
        let cells = cells_of(&[
            ("CONS", DesignId::Base),
            ("BFS", DesignId::CabaBdi),
            ("MM", DesignId::HwBdi),
            ("LPS", DesignId::Base),
            ("CONS", DesignId::HwBdiMem),
        ]);
        let storeless = Sweep::new(&sc, cells.clone()).jobs(1).run().expect("run");
        let (stored, junk) = ([0, 2], 3);
        let key = |i: usize| CellSpec::new(&sc, cells[i]).content_hash();
        let header =
            |sc: &SweepConfig| format!("caba-sweep-manifest-v1 key={:016x}", sc.sweep_hash());
        let mut line_starts: Vec<String> = (0..cells.len())
            .map(|i| format!("cell {:016x} ", key(i)))
            .collect();
        line_starts.sort();
        for jobs in [1, 2] {
            let dir = caba_store::fsio::scratch_dir(&format!("sweep-mixed-{jobs}"));
            let store = Store::open(&dir).expect("store");
            let kept: Vec<CellResult> = stored.map(|i| storeless.results[i].clone()).into();
            put_all(&store, &sc, &kept);
            store
                .put_result(key(junk), "junk", b"not a payload")
                .expect("put junk");
            let (hits, misses) = (store.hit_count(), store.miss_count());
            let journal = dir.join("sweep.journal");
            let run = || {
                Sweep::new(&sc, cells.clone())
                    .jobs(jobs)
                    .store(&store)
                    .journal(&journal)
                    .run()
                    .expect("mixed run")
            };
            let mixed = run();
            assert_eq!(mixed.store_hits, stored.len(), "jobs {jobs}");
            for (m, s) in mixed.results.iter().zip(&storeless.results) {
                assert_eq!((m.cell, &m.stats), (s.cell, &s.stats), "jobs {jobs}");
            }
            assert_eq!(mixed.table(), storeless.table());
            // Two cold rows miss twice each; the junk row is read twice
            // (it decodes neither time) and then rewritten.
            assert_eq!(store.miss_count() - misses, 4, "jobs {jobs}");
            assert_eq!(store.hit_count() - hits, 4, "jobs {jobs}");
            let rewritten = store.get_result(key(junk)).expect("read").expect("stored");
            let (stats, _) = crate::decode_result_payload(&rewritten).expect("decodes");
            assert_eq!(stats, storeless.results[junk].stats, "jobs {jobs}");
            // The cell lines' bodies, sorted, once the header and every
            // seal check.
            let sealed_lines = || {
                let text = std::fs::read_to_string(&journal).expect("journal");
                let mut lines = text.lines();
                assert_eq!(lines.next(), Some(header(&sc).as_str()), "jobs {jobs}");
                let mut bodies: Vec<String> = lines
                    .map(|l| verify_line(l).expect("sealed").to_string())
                    .collect();
                bodies.sort();
                assert_eq!(bodies.len(), cells.len(), "jobs {jobs}");
                for (body, start) in bodies.iter().zip(&line_starts) {
                    assert!(body.starts_with(start), "jobs {jobs}: {body}");
                }
                bodies
            };
            let first = sealed_lines();
            // Now all stored: a re-run replaces the journal.
            assert_eq!(run().store_hits, cells.len());
            assert_eq!(sealed_lines(), first, "jobs {jobs}");
            // So does a run over another sweep's journal.
            let mut other = sc;
            other.scale = 0.1;
            let text = std::fs::read_to_string(&journal).expect("journal");
            let (_, tail) = text.split_once('\n').expect("a header line");
            std::fs::write(&journal, format!("{}\n{tail}", header(&other))).expect("rewrite");
            run();
            assert_eq!(sealed_lines(), first, "jobs {jobs}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn any_job_count_matches_serial_bit_for_bit() {
        let sc = tiny_sc();
        let cells = cells_of(&[
            ("CONS", DesignId::Base),
            ("BFS", DesignId::CabaBdi),
            ("MM", DesignId::HwBdi),
            ("LPS", DesignId::Base),
        ]);
        let serial = Sweep::new(&sc, cells.clone())
            .jobs(1)
            .run()
            .expect("serial");
        let parallel = Sweep::new(&sc, cells).jobs(4).run().expect("parallel");
        assert_eq!((serial.store_hits, parallel.store_hits), (0, 0));
        for (s, p) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(s.cell, p.cell);
            assert_eq!(s.stats, p.stats, "{:?}", s.cell);
        }
        assert_eq!(serial.table(), parallel.table());
    }
}
