//! The paper's eleven tables (Fig. 1, 2, 5, 7–13 and the §4.3.2 MD-cache
//! table): [`Figure`] names one, says which cells it needs under which
//! machine configurations, and renders it from their results.
//!
//! A renderer is a pure function of `&[CellResult]` and never simulates:
//! `caba-sweep paper NAME` runs the cells through [`Sweep`] like any other
//! sweep ([`text`]), so `--jobs`, `--scale` and `--store-dir` apply.
//! Absolute numbers are not expected to match the paper (the substrate is
//! a from-scratch simulator over synthetic stand-in workloads, see
//! DESIGN.md); the *shapes* are the reproduction target, and EXPERIMENTS.md
//! records paper-vs-measured for every table.

use crate::{dedup_cells, CellResult, DesignId, Sweep, SweepCell, SweepConfig};
use caba_compress::{average_burst_ratio, bdi, Algorithm, LineCompressor};
use caba_energy::energy;
use caba_sim::occupancy::occupancy;
use caba_sim::{Design, GpuConfig};
use caba_stats::table::{pct, speedup};
use caba_stats::{StallKind, Table};
use caba_store::Store;
use caba_workloads::{all_apps, app, eval_apps, AppClass};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// One table of the paper's evaluation, typed: a `Figure` either exists or
/// its name failed to parse — there is no half-resolved state to thread
/// through the CLI and the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Figure {
    /// Fig. 1: issue-slot breakdown at ½×/1×/2× bandwidth, all apps.
    Fig01,
    /// Fig. 2: statically unallocated registers (no simulation).
    Fig02,
    /// Fig. 5: the worked BDI example (no simulation).
    Fig05,
    /// Fig. 7: normalized performance of the five designs.
    Fig07,
    /// Fig. 8: memory-bandwidth utilization, the same runs as Fig. 7.
    Fig08,
    /// Fig. 9: normalized energy, the same runs as Fig. 7.
    Fig09,
    /// Fig. 10: speedup with FPC / BDI / C-Pack / BestOfAll.
    Fig10,
    /// Fig. 11: compression ratio per algorithm (no simulation).
    Fig11,
    /// Fig. 12: sensitivity to peak memory bandwidth.
    Fig12,
    /// Fig. 13: CABA-BDI against compressed L1 / L2 with 2× and 4× tags.
    Fig13,
    /// §4.3.2: metadata-cache hit rate under CABA-BDI.
    TabMd,
}

impl Figure {
    /// Every table, in the order `caba-sweep paper all` prints them — the
    /// [`FromStr`] parse domain.
    pub const ALL: [Figure; 11] = [
        Figure::Fig01,
        Figure::Fig02,
        Figure::Fig05,
        Figure::Fig07,
        Figure::Fig08,
        Figure::Fig09,
        Figure::Fig10,
        Figure::Fig11,
        Figure::Fig12,
        Figure::Fig13,
        Figure::TabMd,
    ];

    /// The figures a default `caba-sweep` invocation runs.
    pub const DEFAULT_SWEEP: [Figure; 3] = [Figure::Fig07, Figure::Fig10, Figure::Fig12];

    /// The canonical lowercase name (`"fig07"`, `"tab_md"`).
    pub fn name(self) -> &'static str {
        match self {
            Figure::Fig01 => "fig01",
            Figure::Fig02 => "fig02",
            Figure::Fig05 => "fig05",
            Figure::Fig07 => "fig07",
            Figure::Fig08 => "fig08",
            Figure::Fig09 => "fig09",
            Figure::Fig10 => "fig10",
            Figure::Fig11 => "fig11",
            Figure::Fig12 => "fig12",
            Figure::Fig13 => "fig13",
            Figure::TabMd => "tab_md",
        }
    }

    /// The heading `caba-sweep paper all` prints above the table.
    pub fn title(self) -> &'static str {
        match self {
            Figure::Fig01 => "Figure 1: issue-cycle breakdown at 1/2x, 1x, 2x bandwidth",
            Figure::Fig02 => "Figure 2: fraction of statically unallocated registers",
            Figure::Fig05 => "Figure 5: BDI compression of the PVC example line",
            Figure::Fig07 => "Figure 7: normalized performance (5 designs)",
            Figure::Fig08 => "Figure 8: memory bandwidth utilization",
            Figure::Fig09 => "Figure 9: normalized energy (+ §6.2 DRAM energy & power)",
            Figure::Fig10 => "Figure 10: speedup with different algorithms",
            Figure::Fig11 => "Figure 11: compression ratio per algorithm",
            Figure::Fig12 => "Figure 12: sensitivity to peak memory bandwidth",
            Figure::Fig13 => "Figure 13: selective cache compression",
            Figure::TabMd => "§4.3.2: metadata-cache hit rate",
        }
    }

    /// The cells this table needs under each of its machine configurations
    /// ([`configs`](Figure::configs)), in deterministic order: app-major,
    /// then bandwidth, then design. Empty for the tables that simulate
    /// nothing. The single source of every figure's cell matrix.
    pub fn cells(self) -> Vec<SweepCell> {
        let (apps, bws, designs): (_, &[f64], &[DesignId]) = match self {
            // Every app, the compute-bound ones the figure exists to
            // contrast included, on the uncompressed baseline.
            Figure::Fig01 => (all_apps(), &[0.5, 1.0, 2.0], &[DesignId::Base]),
            Figure::Fig02 | Figure::Fig05 | Figure::Fig11 => return Vec::new(),
            Figure::Fig07 | Figure::Fig08 | Figure::Fig09 => (eval_apps(), &[1.0], &DesignId::FIG7),
            Figure::Fig10 => (eval_apps(), &[1.0], &DesignId::FIG10),
            Figure::Fig12 => (
                eval_apps(),
                &[0.5, 1.0, 2.0],
                &[DesignId::Base, DesignId::CabaBdi],
            ),
            Figure::Fig13 | Figure::TabMd => (eval_apps(), &[1.0], &[DesignId::CabaBdi]),
        };
        let mut cells = Vec::new();
        for a in apps {
            for &bw_scale in bws {
                for &design in designs {
                    cells.push(SweepCell {
                        app: a.name,
                        design,
                        bw_scale,
                    });
                }
            }
        }
        cells
    }

    /// How many of [`cache_configs`] this table runs its cells under: the
    /// stock machine alone, or for Fig. 13 all five.
    pub fn configs(self) -> usize {
        match self {
            Figure::Fig13 => 5,
            _ => 1,
        }
    }

    /// Renders the table from the results of [`cells`](Figure::cells), in
    /// that order, once per configuration (configuration-major).
    ///
    /// # Errors
    ///
    /// [`SlotConservationError`] if a Fig. 1 cell's buckets do not account
    /// for every issue slot of the run.
    pub fn render(
        self,
        sc: &SweepConfig,
        results: &[CellResult],
    ) -> Result<Table, SlotConservationError> {
        let table = match self {
            Figure::Fig01 => fig01(results, (sc.cfg.num_sms * sc.cfg.schedulers_per_sm) as u64)?,
            Figure::Fig02 => fig02(),
            Figure::Fig05 => fig05(),
            Figure::Fig07 => fig07(results),
            Figure::Fig08 => fig08(results),
            Figure::Fig09 => fig09(results),
            Figure::Fig10 => fig10(results),
            Figure::Fig11 => fig11(sc.scale),
            Figure::Fig12 => fig12(results),
            Figure::Fig13 => fig13(results),
            Figure::TabMd => tab_md(results),
        };
        Ok(table)
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A figure name that did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFigureError(pub String);

impl fmt::Display for ParseFigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown figure {:?} (expected one of: ", self.0)?;
        for (i, fig) in Figure::ALL.iter().enumerate() {
            write!(f, "{}{fig}", if i > 0 { ", " } else { "" })?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for ParseFigureError {}

impl FromStr for Figure {
    type Err = ParseFigureError;

    /// Parses a canonical name (`"fig07"`), ASCII-case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Figure::ALL
            .into_iter()
            .find(|f| f.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseFigureError(s.to_string()))
    }
}

/// Fig. 13's machine configurations: `cfg` itself, then its L1 compressed
/// with 2× and 4× the tags, then its L2 with 2× and 4× the tags.
pub fn cache_configs(cfg: GpuConfig) -> [GpuConfig; 5] {
    let l1 = |factor| GpuConfig {
        l1: cfg.l1.with_tag_factor(factor),
        l1_compressed: true,
        ..cfg
    };
    let l2 = |factor| GpuConfig {
        l2: cfg.l2.with_tag_factor(factor),
        ..cfg
    };
    [cfg, l1(2), l1(4), l2(2), l2(4)]
}

/// The text `caba-sweep paper` prints for `tables`: every cell they need
/// runs once, in one sweep per machine configuration over the union of the
/// tables' cells (through `store` when given), and each table is rendered
/// from its own cells' results. With more than one table each goes under
/// its title.
///
/// # Errors
///
/// A sweep that failed, or a Fig. 1 cell that lost an issue slot.
pub fn text(
    sc: &SweepConfig,
    tables: &[Figure],
    jobs: usize,
    store: Option<&Store>,
) -> Result<String, Box<dyn Error>> {
    let mut done = HashMap::new();
    for (v, cfg) in cache_configs(sc.cfg).into_iter().enumerate() {
        let needed = tables.iter().filter(|t| v < t.configs());
        let groups: Vec<_> = needed.map(|t| t.cells()).collect();
        let cells = dedup_cells(&groups);
        if cells.is_empty() {
            continue;
        }
        eprintln!(
            "paper: {} cells at scale {} with {} jobs (machine configuration {v})",
            cells.len(),
            sc.scale,
            jobs
        );
        let mut sweep = Sweep::new(&SweepConfig { cfg, ..*sc }, cells).jobs(jobs);
        if let Some(store) = store {
            sweep = sweep.store(store);
        }
        for r in sweep.run()?.results {
            done.insert((v, r.cell.key()), r);
        }
    }
    let mut out = String::new();
    for t in tables {
        let cells = t.cells();
        let results: Vec<_> = (0..t.configs())
            .flat_map(|v| cells.iter().map(move |c| (v, c)))
            .map(|(v, c)| done[&(v, c.key())].clone())
            .collect();
        let table = t.render(sc, &results)?;
        if tables.len() > 1 {
            let rule = "=".repeat(64);
            out.push_str(&format!("\n{rule}\n{}\n{rule}\n", t.title()));
        }
        out.push_str(&table.to_string());
    }
    Ok(out)
}

/// A Fig. 1 cell whose taxonomy buckets do not sum to the issue slots that
/// elapsed: some slot was counted twice or not at all.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotConservationError {
    /// The offending cell.
    pub cell: SweepCell,
    /// What its buckets sum to.
    pub buckets: u64,
    /// `cycles × SMs × schedulers per SM`.
    pub slots: u64,
}

impl fmt::Display for SlotConservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slot conservation violated by {} @ {}x BW: buckets sum to {} but {} slots elapsed",
            self.cell.app, self.cell.bw_scale, self.buckets, self.slots
        )
    }
}

impl std::error::Error for SlotConservationError {}

fn mean(xs: &[f64]) -> f64 {
    caba_stats::arith_mean(xs).unwrap_or(0.0)
}

/// `base`'s cycles over `r`'s: the speedup of `r` normalized to `base`.
fn speedup_over(base: &CellResult, r: &CellResult) -> f64 {
    base.stats.cycles as f64 / r.stats.cycles as f64
}

/// `results` cut into one app's `width` consecutive cells at a time.
fn per_app(results: &[CellResult], width: usize) -> impl Iterator<Item = &[CellResult]> {
    results.chunks_exact(width).inspect(|c| {
        debug_assert!(c.iter().all(|r| r.cell.app == c[0].cell.app));
    })
}

/// One row per app — its name, then `fmt(column, value)` of each value —
/// closed by an `Average` row of the columns' arithmetic means.
fn averaged<'a>(
    cols: &[&str],
    rows: impl Iterator<Item = (&'a str, Vec<f64>)>,
    fmt: impl Fn(usize, f64) -> String,
) -> Table {
    let mut t = Table::with_columns(cols);
    let mut columns = vec![Vec::new(); cols.len() - 1];
    for (app, values) in rows {
        let mut row = vec![app.to_string()];
        for (i, (column, v)) in columns.iter_mut().zip(values).enumerate() {
            column.push(v);
            row.push(fmt(i, v));
        }
        t.row(row);
    }
    let mut row = vec!["Average".to_string()];
    row.extend(columns.iter().enumerate().map(|(i, c)| fmt(i, mean(c))));
    t.row(row);
    t
}

/// `"App"`, then the five designs of Figures 7–9 by their paper labels.
fn fig7_columns() -> Vec<&'static str> {
    let designs = DesignId::FIG7.iter().map(|d| d.label());
    std::iter::once("App").chain(designs).collect()
}

/// Fig. 1 from [`Figure::Fig01`]'s results, one column per taxonomy bucket in
/// [`StallKind::ALL`] order. `slots_per_cycle` is the machine's
/// `SMs × schedulers per SM`.
///
/// # Errors
///
/// [`SlotConservationError`] for the first cell whose buckets do not sum
/// to `cycles × slots_per_cycle`.
pub fn fig01(results: &[CellResult], slots_per_cycle: u64) -> Result<Table, SlotConservationError> {
    let mut cols = vec!["App", "Class", "BW"];
    cols.extend(StallKind::ALL.iter().map(|k| k.label()));
    let mut t = Table::with_columns(&cols);
    for r in results {
        let b = &r.stats.breakdown;
        let slots = r.stats.cycles * slots_per_cycle;
        if b.total() != slots {
            return Err(SlotConservationError {
                cell: r.cell,
                buckets: b.total(),
                slots,
            });
        }
        let class = match app(r.cell.app).map(|a| a.class) {
            Some(AppClass::ComputeBound) => "Comp",
            _ => "Mem",
        };
        let bw = match r.cell.bw_scale {
            0.5 => "1/2x".to_string(),
            bw => format!("{bw}x"),
        };
        let mut row = vec![r.cell.app.to_string(), class.to_string(), bw];
        row.extend(StallKind::ALL.iter().map(|&k| pct(b.fraction(k))));
        t.row(row);
    }
    Ok(t)
}

/// Fig. 2 (paper average: 24 % of the register file unallocated).
pub fn fig02() -> Table {
    let cfg = GpuConfig::isca2015();
    let mut t = Table::with_columns(&["App", "Blocks/SM", "Limiter", "Unallocated"]);
    let mut fracs = Vec::new();
    for app in all_apps() {
        let o = occupancy(&app.kernel(1.0), &cfg, 0);
        let f = o.unallocated_fraction(&cfg);
        fracs.push(f);
        t.row(vec![
            app.name.to_string(),
            o.blocks.to_string(),
            format!("{:?}", o.limiter),
            pct(f),
        ]);
    }
    t.row(vec![
        "Average".into(),
        String::new(),
        String::new(),
        pct(mean(&fracs)),
    ]);
    t
}

/// Fig. 5: the 64-byte PVC line compressing to 17 bytes.
pub fn fig05() -> Table {
    let values: [u64; 8] = [
        0x00,
        0x8_0001_d000,
        0x10,
        0x8_0001_d008,
        0x20,
        0x8_0001_d010,
        0x30,
        0x8_0001_d018,
    ];
    let line: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    let c = bdi::compress(&line).expect("figure 5 line compresses");
    let base = u64::from_le_bytes(c.payload[1..9].try_into().expect("8 bytes"));
    let mut t = Table::with_columns(&["Field", "Value"]);
    for (field, value) in [
        ("Uncompressed", format!("{} bytes", line.len())),
        ("Compressed", format!("{} bytes", c.size_bytes())),
        ("Saved", format!("{} bytes", line.len() - c.size_bytes())),
        ("Metadata (mask)", format!("{:#04x}", c.payload[0])),
        ("Base", format!("{base:#x}")),
        ("Deltas", format!("{:02x?}", &c.payload[9..])),
    ] {
        t.row(vec![field.into(), value]);
    }
    t
}

/// Fig. 7 from [`Figure::Fig07`]'s results: each design's speedup over the
/// app's Base cell.
pub fn fig07(results: &[CellResult]) -> Table {
    let rows = per_app(results, 5).map(|c| {
        let values = c.iter().map(|r| speedup_over(&c[0], r)).collect();
        (c[0].cell.app, values)
    });
    averaged(&fig7_columns(), rows, |_, v| speedup(v))
}

/// Fig. 8 from [`Figure::Fig07`]'s results.
pub fn fig08(results: &[CellResult]) -> Table {
    let rows = per_app(results, 5).map(|c| {
        let values = c.iter().map(|r| r.stats.bandwidth_utilization()).collect();
        (c[0].cell.app, values)
    });
    averaged(&fig7_columns(), rows, |_, v| pct(v))
}

/// Fig. 9 from [`Figure::Fig07`]'s results: energy normalized to Base, plus
/// CABA-BDI's §6.2 DRAM-power reduction and system-power overhead.
pub fn fig09(results: &[CellResult]) -> Table {
    let mut cols = fig7_columns();
    cols.extend(["CABA DRAM-E", "CABA Power"]);
    let rows = per_app(results, 5).map(|c| {
        let base = &c[0].stats;
        let base_e = energy(base, Design::Base);
        let mut values = Vec::with_capacity(7);
        let mut caba = [0.0; 2];
        for r in c {
            let (s, e) = (&r.stats, energy(&r.stats, r.cell.design.make()));
            values.push(e.total_nj() / base_e.total_nj());
            if r.cell.design == DesignId::CabaBdi {
                let dram_power =
                    e.dram_nj() / s.cycles as f64 / (base_e.dram_nj() / base.cycles as f64);
                let power = e.avg_power(s.cycles) / base_e.avg_power(base.cycles);
                caba = [1.0 - dram_power, power - 1.0];
            }
        }
        values.extend(caba);
        (c[0].cell.app, values)
    });
    averaged(&cols, rows, |i, v| match i {
        0..=4 => format!("{v:.3}"),
        5 => pct(v),
        _ => format!("{:+.1}%", v * 100.0),
    })
}

/// Fig. 10 from [`Figure::Fig10`]'s results: each algorithm's speedup over the
/// app's Base cell.
pub fn fig10(results: &[CellResult]) -> Table {
    let rows = per_app(results, 5).map(|c| {
        let values = c[1..].iter().map(|r| speedup_over(&c[0], r)).collect();
        (c[0].cell.app, values)
    });
    let cols = ["App", "CABA-FPC", "CABA-BDI", "CABA-CPack", "CABA-Best"];
    averaged(&cols, rows, |_, v| speedup(v))
}

/// Fig. 11: burst-granular compression ratio of each evaluation app's
/// input at workload scale `scale`.
pub fn fig11(scale: f64) -> Table {
    let apps = eval_apps();
    let rows = apps.iter().map(|app| {
        let lines = app.input_lines(scale);
        let ratio = |alg| average_burst_ratio(LineCompressor::Fixed(alg), &lines);
        let values = vec![
            ratio(Algorithm::Bdi),
            ratio(Algorithm::Fpc),
            ratio(Algorithm::CPack),
            average_burst_ratio(LineCompressor::BestOfAll, &lines),
        ];
        (app.name, values)
    });
    let cols = ["App", "BDI", "FPC", "C-Pack", "BestOfAll"];
    averaged(&cols, rows, |_, v| format!("{v:.2}"))
}

/// Fig. 12 from [`Figure::Fig12`]'s results, normalized to the 1×-Base cell
/// of the same app.
pub fn fig12(results: &[CellResult]) -> Table {
    let rows = per_app(results, 6).map(|c| {
        let values = c.iter().map(|r| speedup_over(&c[2], r)).collect();
        (c[0].cell.app, values)
    });
    let cols = [
        "App",
        "1/2x-Base",
        "1/2x-CABA",
        "1x-Base",
        "1x-CABA",
        "2x-Base",
        "2x-CABA",
    ];
    averaged(&cols, rows, |_, v| speedup(v))
}

/// Fig. 13 from the CABA-BDI cells' results under each of
/// [`cache_configs`], configuration-major, normalized to the stock machine.
pub fn fig13(results: &[CellResult]) -> Table {
    let apps = results.len() / 5;
    let rows = (0..apps).map(|i| {
        let values = (0..5)
            .map(|v| speedup_over(&results[i], &results[v * apps + i]))
            .collect();
        (results[i].cell.app, values)
    });
    let cols = [
        "App",
        "CABA-BDI",
        "CABA-L1-2x",
        "CABA-L1-4x",
        "CABA-L2-2x",
        "CABA-L2-4x",
    ];
    averaged(&cols, rows, |_, v| speedup(v))
}

/// The §4.3.2 MD-cache hit rate from the CABA-BDI cells' results (paper:
/// 85 % average). Apps with no MD lookups stay out of the average.
pub fn tab_md(results: &[CellResult]) -> Table {
    let mut t = Table::with_columns(&["App", "MD lookups", "MD hit rate"]);
    let mut rates = Vec::new();
    for r in results {
        let rate = r.stats.md_hit_rate();
        if r.stats.md_lookups > 0 {
            rates.push(rate);
        }
        let lookups = r.stats.md_lookups.to_string();
        t.row(vec![r.cell.app.to_string(), lookups, pct(rate)]);
    }
    t.row(vec!["Average".into(), String::new(), pct(mean(&rates))]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use caba_sim::RunStats;

    /// A finished cell with hand-made statistics.
    fn cell(app: &'static str, design: DesignId, bw_scale: f64, stats: RunStats) -> CellResult {
        let cell = SweepCell {
            app,
            design,
            bw_scale,
        };
        CellResult {
            cell,
            stats,
            wall_s: 0.0,
        }
    }

    fn cycles(cycles: u64) -> RunStats {
        RunStats {
            cycles,
            ..Default::default()
        }
    }

    /// `cells`' results, the i-th taking `cycles[i]` cycles.
    fn with_cycles(cells: Vec<SweepCell>, cycle_counts: &[u64]) -> Vec<CellResult> {
        let pairs = cells.into_iter().zip(cycle_counts);
        pairs
            .map(|(c, &n)| cell(c.app, c.design, c.bw_scale, cycles(n)))
            .collect()
    }

    /// The table's data rows, each split into its cells.
    fn rows(t: &Table) -> Vec<Vec<String>> {
        let text = t.to_string();
        let lines = text.lines().skip(2);
        lines
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect()
    }

    #[test]
    fn fig07_divides_base_cycles_and_averages_arithmetically() {
        let two_apps: Vec<_> = Figure::Fig07.cells().into_iter().take(10).collect();
        let results = with_cycles(
            two_apps,
            &[1000, 800, 500, 2000, 400, 300, 300, 100, 600, 150],
        );
        let got = rows(&fig07(&results));
        let expect = [
            ["BFS", "1.00x", "1.25x", "2.00x", "0.50x", "2.50x"],
            ["CONS", "1.00x", "1.00x", "3.00x", "0.50x", "2.00x"],
            // (1.25 + 1.00) / 2 = 1.125, not the geometric 1.118.
            ["Average", "1.00x", "1.12x", "2.50x", "0.50x", "2.25x"],
        ];
        assert_eq!(got, expect);
        let header = fig07(&results).to_string();
        assert!(header.starts_with("App      Base   HW-BDI-Mem  HW-BDI  CABA-BDI  Ideal-BDI"));
    }

    #[test]
    fn fig08_and_tab_md_report_rates_of_the_same_runs() {
        let busy = |busy, md_misses| RunStats {
            dram_busy_cycles: busy,
            dram_total_cycles: 1000,
            md_lookups: 200,
            md_misses,
            ..cycles(1000)
        };
        let mut results: Vec<_> = DesignId::FIG7
            .iter()
            .zip([100, 200, 300, 400, 500])
            .map(|(&d, b)| cell("BFS", d, 1.0, busy(b, 50)))
            .collect();
        let got = rows(&fig08(&results));
        assert_eq!(got[0], ["BFS", "10.0%", "20.0%", "30.0%", "40.0%", "50.0%"]);
        assert_eq!(got[1][1..], got[0][1..], "one app is its own average");

        // An app that never looked metadata up shows 0 % and stays out of
        // the average.
        results.truncate(1);
        results.push(cell("CONS", DesignId::CabaBdi, 1.0, cycles(1000)));
        let got = rows(&tab_md(&results));
        assert_eq!(got[0], ["BFS", "200", "75.0%"]);
        assert_eq!(got[1][..2], ["CONS", "0"]);
        assert_eq!(got[2], ["Average", "75.0%"]);
    }

    #[test]
    fn fig09_normalizes_energy_to_base_and_singles_out_caba() {
        let run = |n, bursts| RunStats {
            app_instructions: 10_000,
            dram_bursts: bursts,
            ..cycles(n)
        };
        let results: Vec<_> = DesignId::FIG7
            .iter()
            .map(|&d| match d {
                DesignId::CabaBdi => cell("BFS", d, 1.0, run(500, 100)),
                _ => cell("BFS", d, 1.0, run(1000, 400)),
            })
            .collect();
        let got = rows(&fig09(&results));
        assert_eq!(got[0].len(), 1 + 5 + 2);
        assert_eq!(got[0][1], "1.000", "Base is the unit");
        let caba: f64 = got[0][4].parse().expect("a ratio");
        assert!(caba < 1.0, "fewer bursts in fewer cycles cost less: {caba}");
        assert!(got[0][6].ends_with('%') && got[0][7].ends_with('%'));
        assert_eq!(got[1][1..], got[0][1..], "one app is its own average");
    }

    #[test]
    fn fig10_skips_the_base_column_it_normalizes_to() {
        let one_app: Vec<_> = Figure::Fig10.cells().into_iter().take(5).collect();
        let got = rows(&fig10(&with_cycles(one_app, &[900, 600, 450, 300, 1800])));
        assert_eq!(got[0], ["BFS", "1.50x", "2.00x", "3.00x", "0.50x"]);
    }

    #[test]
    fn fig12_normalizes_to_the_1x_base_cell_of_the_same_app() {
        let two_apps: Vec<_> = Figure::Fig12.cells().into_iter().take(12).collect();
        let counts = [
            2000, 1000, 1000, 500, 800, 400, // BFS: 1x-Base is 1000
            600, 300, 300, 150, 200, 100, // CONS: 1x-Base is 300
        ];
        let got = rows(&fig12(&with_cycles(two_apps, &counts)));
        let each = ["0.50x", "1.00x", "1.00x", "2.00x", "1.25x", "2.50x"];
        assert_eq!(got[0][1..], each);
        assert_eq!(
            got[1][1..],
            ["0.50x", "1.00x", "1.00x", "2.00x", "1.50x", "3.00x"]
        );
        assert_eq!(got[2][5..], ["1.38x", "2.75x"]);
    }

    #[test]
    fn fig13_reads_configuration_major_results() {
        let two_apps: Vec<_> = Figure::Fig13.cells().into_iter().take(2).collect();
        let five_configs: Vec<_> = (0..5).flat_map(|_| two_apps.clone()).collect();
        let counts = [1000, 600, 500, 600, 250, 300, 2000, 1200, 800, 400];
        let got = rows(&fig13(&with_cycles(five_configs, &counts)));
        assert_eq!(got[0], ["BFS", "1.00x", "2.00x", "4.00x", "0.50x", "1.25x"]);
        assert_eq!(
            got[1],
            ["CONS", "1.00x", "1.00x", "2.00x", "0.50x", "1.50x"]
        );
        assert_eq!(got[2][0..2], ["Average", "1.00x"]);
        // The five machines differ, and only in their cache tags.
        let cfgs = cache_configs(GpuConfig::isca2015_scaled());
        assert!(cfgs[1].l1_compressed && cfgs[2].l1_compressed && !cfgs[3].l1_compressed);
        assert_eq!(cfgs[3].l1, cfgs[0].l1);
        assert_ne!(cfgs[3].l2, cfgs[4].l2);
    }

    #[test]
    fn fig01_rejects_a_cell_that_lost_a_slot() {
        let run = |idle| {
            let mut stats = cycles(100);
            stats.breakdown.record_n(StallKind::IssuedApp, 150);
            stats.breakdown.record_n(StallKind::MemoryData, 50);
            stats.breakdown.record_n(StallKind::Idle, idle);
            stats
        };
        // 100 cycles on 2 SMs of 2 schedulers each: 400 slots.
        let good = [
            cell("CONS", DesignId::Base, 0.5, run(200)),
            cell("NQU", DesignId::Base, 2.0, run(200)),
        ];
        let got = rows(&fig01(&good, 4).expect("every slot is in a bucket"));
        assert_eq!(got[0][..5], ["CONS", "Mem", "1/2x", "37.5%", "0.0%"]);
        assert_eq!(got[1][..3], ["NQU", "Comp", "2x"]);

        let bad = [good[0].clone(), cell("NQU", DesignId::Base, 1.0, run(199))];
        let err = fig01(&bad, 4).expect_err("a slot is missing");
        assert_eq!((err.cell, err.buckets, err.slots), (bad[1].cell, 399, 400));
        assert!(err.to_string().contains("NQU @ 1x BW"), "{err}");
    }

    #[test]
    fn figures_round_trip_and_match_cell_lists() {
        // Runs per table: cells × machine configurations.
        let runs = [90, 0, 0, 100, 100, 100, 100, 0, 120, 20 * 5, 20];
        for (fig, runs) in Figure::ALL.into_iter().zip(runs) {
            for name in [fig.name(), &fig.name().to_ascii_uppercase()] {
                let parsed: Figure = name.parse().unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(parsed, fig);
            }
            assert_eq!(format!("{fig}"), fig.name());
            assert!(!fig.title().is_empty());
            assert_eq!(fig.cells(), fig.cells(), "{fig}");
            assert_eq!(fig.cells().len() * fig.configs(), runs, "{fig}");
        }
        // Figures 8 and 9 are other metrics of Figure 7's runs.
        assert_eq!(Figure::Fig08.cells(), Figure::Fig07.cells());
        assert_eq!(Figure::Fig09.cells(), Figure::Fig07.cells());
        let err = "fig99".parse::<Figure>().unwrap_err().to_string();
        assert!(
            err.contains("\"fig99\"") && err.contains("fig01, fig02, "),
            "{err}"
        );
        assert!(err.ends_with("fig13, tab_md)"), "{err}");
    }

    #[test]
    fn fig02_computes_average_in_paper_ballpark() {
        let t = fig02();
        // One row per app plus the average row.
        assert_eq!(t.len(), all_apps().len() + 1);
        assert!(t.to_string().contains("Average"));
    }

    #[test]
    fn fig05_matches_paper_numbers() {
        let s = fig05().to_string();
        assert!(s.contains("17 bytes"), "{s}");
        assert!(s.contains("47 bytes"), "{s}");
        assert!(s.contains("0x55"), "{s}");
        assert!(s.contains("0x80001d000"), "{s}");
    }

    #[test]
    fn fig11_shows_per_algorithm_diversity() {
        assert!(fig11(0.1).len() > 10);
    }
}
