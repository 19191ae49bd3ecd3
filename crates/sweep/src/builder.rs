//! The one way to run a sweep: a builder that layers parallelism, retry, a
//! resume journal and a durable store over the one per-cell path
//! ([`run_cell_stored`]) and the one ordered fan-out ([`fan_out`]).
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
//!     .journal("/var/tmp/fig07.journal")
//!     .run()
//!     .expect("sweep");
//! println!("{} cells, {} from the store", run.results.len(), run.store_hits);
//! ```

use crate::fanout::fan_out;
use crate::resilient::{run_cell_stored, CellOutcome, Journal};
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
/// | retry | [`retries`](Sweep::retries) | extra attempts after a caught panic |
/// | resume | [`journal`](Sweep::journal) | append-only manifest; re-runs only missing cells |
/// | memoize | [`store`](Sweep::store) | durable result store; only misses simulate |
pub struct Sweep<'a> {
    sc: SweepConfig,
    cells: Vec<SweepCell>,
    jobs: usize,
    retries: u32,
    journal: Option<PathBuf>,
    store: Option<&'a Store>,
}

impl<'a> Sweep<'a> {
    /// A sweep over `cells` under the shared options `sc`, with default
    /// layers: host-core parallelism, no retries, no journal, no store.
    pub fn new(sc: &SweepConfig, cells: Vec<SweepCell>) -> Self {
        Sweep {
            sc: *sc,
            cells,
            jobs: crate::host_cores(),
            retries: 0,
            journal: None,
            store: None,
        }
    }

    /// Worker threads (clamped to at least 1).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Extra attempts after a caught panic (simulator errors never retry).
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Append-only resume journal: cells already journaled are not re-run,
    /// newly finished cells flush immediately.
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
    /// `jobs`. A cell the journal covers is restored from it; any other
    /// goes through [`run_cell_stored`] and is journaled as it finishes —
    /// store-restored cells included, so the journal alone is a complete
    /// record of what is done.
    ///
    /// # Errors
    ///
    /// [`SweepError::ManifestMismatch`] before any cell runs if the journal
    /// belongs to a different sweep; [`SweepError::Io`] if it cannot be
    /// opened; [`SweepError::CellsFailed`] after the sweep if any cell
    /// failed every attempt (completed cells stay journaled and stored).
    pub fn run(self) -> Result<SweepRun, SweepError> {
        let specs: Vec<CellSpec> = self
            .cells
            .iter()
            .map(|c| CellSpec::new(&self.sc, *c))
            .collect();
        let sweep_hash = self.sc.sweep_hash();
        let journal = match &self.journal {
            Some(path) => Some(Journal::open(path, sweep_hash)?),
            None => None,
        };
        let mut run = SweepRun {
            results: Vec::with_capacity(specs.len()),
            store_hits: 0,
        };
        let mut failed = Vec::new();
        let cell = |i: usize| -> CellOutcome {
            let spec: &CellSpec = &specs[i];
            let key = spec.content_hash_in(sweep_hash);
            if let Some((stats, wall_s)) = journal.as_ref().and_then(|j| j.get(key)) {
                return CellOutcome::restored(spec, stats.clone(), *wall_s, false);
            }
            let outcome = run_cell_stored(spec, key, self.retries, self.store);
            if let (Ok(r), Some(journal)) = (&outcome.result, &journal) {
                journal.append(key, &r.stats, r.wall_s);
            }
            outcome
        };
        let collected: Result<(), Infallible> = fan_out(specs.len(), self.jobs, cell, |i, out| {
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
    use crate::DesignId;
    use caba_sim::GpuConfig;

    #[test]
    fn any_job_count_matches_serial_bit_for_bit() {
        let sc = SweepConfig {
            scale: 0.05,
            cfg: GpuConfig::small(),
        };
        let cells: Vec<SweepCell> = [
            ("CONS", DesignId::Base),
            ("BFS", DesignId::CabaBdi),
            ("MM", DesignId::HwBdi),
            ("LPS", DesignId::Base),
        ]
        .into_iter()
        .map(|(app, design)| SweepCell {
            app,
            design,
            bw_scale: 1.0,
        })
        .collect();
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
