//! Deterministic parallel sweep executor for figure regeneration.
//!
//! The paper's evaluation (Figures 7–13) is a matrix of `(application,
//! design, configuration)` cells, each an independent cycle-accurate run.
//! Runs share no state — `caba_workloads::run_app` builds a fresh [`Gpu`]
//! per cell — so the sweep is embarrassingly parallel. There is one path
//! from a cell list to results, shared by the `caba-sweep` CLI and the
//! `caba-serve` HTTP front:
//!
//! - [`stream_cells`]: the list — one store read for every cell, stored
//!   rows delivered in input order, the rest handed to the caller's `miss`
//!   on an ordered fan-out whose workers claim cell *indices* from a
//!   shared counter, so tables are **bit-identical and identically
//!   ordered** to a serial sweep regardless of completion order or worker
//!   count;
//! - [`run_cell_stored`]: one cell, the body of both callers' `miss` —
//!   store probe, else simulate once with panic isolation, then persist;
//! - [`Sweep`]: the builder over the two; a killed sweep resumes by
//!   running it again over the same store;
//! - [`Figure`]: the paper's eleven tables, each naming its cells and
//!   rendered from the results of cells that ran through [`Sweep`].
//!
//! [`Gpu`]: caba_sim::Gpu
//!
//! # Examples
//!
//! ```no_run
//! use caba_sweep::{Figure, Sweep, SweepConfig};
//!
//! let sc = SweepConfig { scale: 0.05, ..SweepConfig::default() };
//! let cells = Figure::Fig07.cells();
//! let run = Sweep::new(&sc, cells.clone()).jobs(8).run().expect("sweep");
//! assert_eq!(run.results.len(), cells.len());
//! ```

pub mod builder;
pub mod cell;
mod fanout;
pub mod paper;
pub mod resilient;

pub use builder::{Sweep, SweepRun};
pub use cell::{parse_positive, run_cell, CellSpec, ParseDesignError, ResolveError};
pub use paper::{Figure, ParseFigureError};
pub use resilient::{
    decode_result_payload, encode_result_payload, figure_table, figure_table_line, probe_store,
    push_figure_table_line, run_cell_stored, stream_cells, CellFailure, CellOutcome, StreamedCell,
    SweepError,
};

use caba_sim::{CabaMode, Design, GpuConfig, RunStats};

/// Names a design point of the run matrix: the eight [`Design`]s the
/// figures, the CLI and the server's URLs choose from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignId {
    /// Uncompressed baseline.
    Base,
    /// HW-BDI-Mem: dedicated logic, memory-bandwidth compression only.
    HwBdiMem,
    /// HW-BDI: dedicated logic, interconnect + memory compression.
    HwBdi,
    /// CABA-BDI: assist warps.
    CabaBdi,
    /// Ideal-BDI: no compression overheads.
    IdealBdi,
    /// CABA-FPC.
    CabaFpc,
    /// CABA-C-Pack.
    CabaCPack,
    /// CABA-BestOfAll.
    CabaBest,
}

impl DesignId {
    /// Every design point, in declaration order — the [`FromStr`]
    /// parse domain.
    ///
    /// [`FromStr`]: std::str::FromStr
    pub const ALL: [DesignId; 8] = [
        DesignId::Base,
        DesignId::HwBdiMem,
        DesignId::HwBdi,
        DesignId::CabaBdi,
        DesignId::IdealBdi,
        DesignId::CabaFpc,
        DesignId::CabaCPack,
        DesignId::CabaBest,
    ];

    /// The five designs of Figures 7–9.
    pub const FIG7: [DesignId; 5] = [
        DesignId::Base,
        DesignId::HwBdiMem,
        DesignId::HwBdi,
        DesignId::CabaBdi,
        DesignId::IdealBdi,
    ];

    /// Figure 10's columns: the Base cell each row normalizes against,
    /// then the four CABA algorithm variants.
    pub const FIG10: [DesignId; 5] = [
        DesignId::Base,
        DesignId::CabaFpc,
        DesignId::CabaBdi,
        DesignId::CabaCPack,
        DesignId::CabaBest,
    ];

    /// The design's label ([`Design::label`]), which cell keys hash.
    pub fn label(self) -> &'static str {
        self.make().label()
    }

    /// The design point.
    pub fn make(self) -> Design {
        match self {
            DesignId::Base => Design::Base,
            DesignId::HwBdiMem => Design::HwMemOnly,
            DesignId::HwBdi => Design::HwFull { ideal: false },
            DesignId::IdealBdi => Design::HwFull { ideal: true },
            DesignId::CabaBdi => Design::Caba(CabaMode::Bdi),
            DesignId::CabaFpc => Design::Caba(CabaMode::Fpc),
            DesignId::CabaCPack => Design::Caba(CabaMode::CPack),
            DesignId::CabaBest => Design::Caba(CabaMode::BestOfAll),
        }
    }
}

/// One sweep cell: an application under a design at a bandwidth scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCell {
    /// Application name (resolvable via [`caba_workloads::app`]).
    pub app: &'static str,
    /// The design point.
    pub design: DesignId,
    /// Bandwidth scale applied to the machine configuration (1.0 = stock).
    pub bw_scale: f64,
}

impl SweepCell {
    /// The cell as a hashable key: the bandwidth scale by its bits.
    pub fn key(&self) -> (&'static str, DesignId, u64) {
        (self.app, self.design, self.bw_scale.to_bits())
    }
}

/// Sweep-wide options shared by every cell.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Workload scale factor (grid/working-set size).
    pub scale: f64,
    /// The machine configuration (before per-cell bandwidth scaling).
    pub cfg: GpuConfig,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            scale: 0.5,
            cfg: GpuConfig::isca2015_scaled(),
        }
    }
}

/// Result of one cell: the run's statistics plus executor-measured wall
/// time.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell that produced this result.
    pub cell: SweepCell,
    /// The run's statistics (bit-identical to a serial run of the cell).
    pub stats: RunStats,
    /// Wall-clock seconds this cell took inside its worker.
    pub wall_s: f64,
}

/// The union of several figures' cells with duplicates removed (first
/// occurrence wins), preserving deterministic order.
pub fn dedup_cells(groups: &[Vec<SweepCell>]) -> Vec<SweepCell> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for g in groups {
        for &c in g {
            if seen.insert(c.key()) {
                out.push(c);
            }
        }
    }
    out
}

/// The host's available parallelism (logical cores visible to this
/// process), or 1 when the query fails. The default worker count, and
/// what the CLI clamps `--jobs` to before oversubscribing.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_is_every_app_at_three_bandwidths_on_base() {
        // Compute-bound apps included: the figure exists to contrast them.
        let fig01 = Figure::Fig01.cells();
        assert_eq!(fig01.len(), 90);
        assert!(fig01.iter().any(|c| c.app == "NQU"));
        assert!(fig01.iter().all(|c| c.design == DesignId::Base));
    }

    #[test]
    fn dedup_preserves_first_occurrence_order() {
        let groups = Figure::DEFAULT_SWEEP.map(Figure::cells);
        let union = dedup_cells(&groups);
        let f7 = &groups[0];
        assert_eq!(&union[..f7.len()], &f7[..], "fig07 cells lead the union");
        let mut seen = std::collections::HashSet::new();
        for c in &union {
            assert!(seen.insert(c.key()), "duplicate cell {c:?}");
        }
        // fig10 overlaps fig07 in Base and CABA-BDI; fig12 overlaps at 1x.
        let total: usize = groups.iter().map(Vec::len).sum();
        assert!(union.len() < total);
    }

    /// Cell keys hash these strings: a label that moved would re-key every
    /// stored result of its design. `make` is one value, `Debug` text
    /// included, in debug and release builds.
    #[test]
    fn each_design_id_is_labelled_by_its_design() {
        // Numbers every `Design` value; exhaustive, so a new variant, field
        // or CABA mode stops this compiling.
        let slot = |d: Design| match d {
            Design::Base => 0,
            Design::HwMemOnly => 1,
            Design::HwFull { ideal } => 2 + usize::from(ideal),
            Design::Caba(CabaMode::Bdi) => 4,
            Design::Caba(CabaMode::Fpc) => 5,
            Design::Caba(CabaMode::CPack) => 6,
            Design::Caba(CabaMode::BestOfAll) => 7,
        };
        let mut slots = DesignId::ALL.map(|d| slot(d.make()));
        slots.sort_unstable();
        assert_eq!(slots, [0, 1, 2, 3, 4, 5, 6, 7], "every Design, once each");
        let labels: std::collections::HashSet<_> = DesignId::ALL.map(DesignId::label).into();
        assert_eq!(labels.len(), DesignId::ALL.len(), "labels are distinct");
        for d in DesignId::ALL {
            assert_eq!(d.make().label(), d.label());
        }
        assert_eq!(
            DesignId::ALL.map(|d| format!("{:?}", d.make())),
            [
                "Base",
                "HwMemOnly",
                "HwFull { ideal: false }",
                "Caba(Bdi)",
                "HwFull { ideal: true }",
                "Caba(Fpc)",
                "Caba(CPack)",
                "Caba(BestOfAll)",
            ]
        );
        assert_eq!(
            DesignId::ALL.map(DesignId::label),
            [
                "Base",
                "HW-BDI-Mem",
                "HW-BDI",
                "CABA-BDI",
                "Ideal-BDI",
                "CABA-FPC",
                "CABA-CPack",
                "CABA-BestOfAll",
            ]
        );
    }
}
