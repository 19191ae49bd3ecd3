//! The figure-regeneration harness: one function per table/figure of the
//! paper's evaluation, each returning a [`Table`] with the same rows/series
//! the paper reports.
//!
//! Absolute numbers are not expected to match the paper (the substrate is a
//! from-scratch simulator and the workloads are synthetic stand-ins — see
//! `DESIGN.md`); the *shapes* are the reproduction target: who wins, by
//! roughly what factor, and where the crossovers fall. `EXPERIMENTS.md`
//! records paper-vs-measured for every figure.
//!
//! Run everything with `cargo bench -p caba-bench` (the `figures` bench
//! target), or a single figure with e.g.
//! `cargo run --release -p caba-bench --bin fig07_performance`.

use caba_compress::{average_best_ratio, average_burst_ratio, Algorithm};
use caba_energy::{energy, DesignKind};
use caba_sim::occupancy::occupancy;
use caba_sim::{Design, GpuConfig, RunStats};
use caba_stats::table::{pct, speedup};
use caba_stats::{StallKind, Table};
use caba_sweep::{CellResult, Sweep, SweepCell, SweepConfig};
use caba_workloads::{all_apps, eval_apps, run_app, AppClass, AppSpec};
use std::collections::HashMap;

// The design-point identifier lives in `caba-sweep` (the executor needs it
// to describe cells); re-exported here so existing harness code and the
// figure binaries keep their imports.
pub use caba_sweep::DesignId;

/// Worker-thread count for sweep-backed figures: `CABA_SWEEP_JOBS`, or the
/// machine's available parallelism.
pub fn sweep_jobs() -> usize {
    std::env::var("CABA_SWEEP_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

/// Harness options (tunable via environment for quick runs).
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Workload scale factor (`CABA_BENCH_SCALE`, default 0.5).
    pub scale: f64,
    /// The machine configuration for figure runs.
    pub cfg: GpuConfig,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        let scale = std::env::var("CABA_BENCH_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.5);
        HarnessConfig {
            scale,
            cfg: GpuConfig::isca2015_scaled(),
        }
    }
}

/// A cache of (application × design) simulation results shared by the
/// figures that report different metrics of the same runs (7, 8, 9 and the
/// MD-cache table).
#[derive(Debug, Default)]
pub struct RunMatrix {
    results: HashMap<(String, DesignId), RunStats>,
}

impl RunMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs (or returns the cached run of) `app` under `design`.
    pub fn get(&mut self, hc: &HarnessConfig, app: &AppSpec, design: DesignId) -> &RunStats {
        let key = (app.name.to_string(), design);
        if !self.results.contains_key(&key) {
            eprintln!("  running {} / {} ...", app.name, design.label());
            let stats = run_app(app, hc.cfg, design.make(), hc.scale)
                .unwrap_or_else(|e| panic!("{} / {}: {e}", app.name, design.label()));
            self.results.insert(key.clone(), stats);
        }
        &self.results[&key]
    }

    /// Pre-populates `eval_apps × designs` through the parallel sweep
    /// executor. Each cell runs `run_app` on a fresh GPU — the same entry
    /// point `get` uses — so a prefilled matrix yields byte-identical
    /// figures, just faster: later `get` calls hit the cache instead of
    /// simulating serially.
    pub fn prefill(&mut self, hc: &HarnessConfig, designs: &[DesignId], jobs: usize) {
        let cells: Vec<SweepCell> = eval_apps()
            .iter()
            .flat_map(|a| {
                designs.iter().map(|&design| SweepCell {
                    app: a.name,
                    design,
                    bw_scale: 1.0,
                })
            })
            .filter(|c| !self.results.contains_key(&(c.app.to_string(), c.design)))
            .collect();
        if cells.is_empty() {
            return;
        }
        eprintln!(
            "  prefilling {} cells over {jobs} worker(s) ...",
            cells.len()
        );
        let sc = SweepConfig {
            scale: hc.scale,
            cfg: hc.cfg,
        };
        for r in sweep(&sc, cells, jobs) {
            self.results
                .insert((r.cell.app.to_string(), r.cell.design), r.stats);
        }
    }
}

/// Runs `cells` through the sweep executor; a figure with a failed cell
/// has no meaningful table, so failure is fatal.
fn sweep(sc: &SweepConfig, cells: Vec<SweepCell>, jobs: usize) -> Vec<CellResult> {
    Sweep::new(sc, cells)
        .jobs(jobs)
        .run()
        .unwrap_or_else(|e| panic!("{e}"))
        .results
}

fn mean(xs: &[f64]) -> f64 {
    caba_stats::arith_mean(xs).unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// Figure 1: issue-cycle breakdown at ½×/1×/2× bandwidth, all 27 apps.
// ---------------------------------------------------------------------------

/// Regenerates Figure 1, one column per taxonomy bucket in
/// [`StallKind::ALL`] display order.
pub fn fig01_stall_breakdown(hc: &HarnessConfig) -> Table {
    let mut cols = vec!["App", "Class", "BW"];
    cols.extend(StallKind::ALL.iter().map(|k| k.label()));
    let mut t = Table::with_columns(&cols);
    for app in all_apps() {
        for (bw, name) in [(0.5, "1/2x"), (1.0, "1x"), (2.0, "2x")] {
            eprintln!("  fig1: {} @ {}BW", app.name, name);
            let cfg = hc.cfg.with_bandwidth_scale(bw);
            let s = run_app(&app, cfg, Design::Base, hc.scale)
                .unwrap_or_else(|e| panic!("{} {name}: {e}", app.name));
            let b = &s.breakdown;
            let mut row = vec![
                app.name.to_string(),
                match app.class {
                    AppClass::MemoryBound => "Mem".into(),
                    AppClass::ComputeBound => "Comp".into(),
                },
                name.to_string(),
            ];
            row.extend(StallKind::ALL.iter().map(|&k| pct(b.fraction(k))));
            t.row(row);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Figure 2: statically unallocated registers.
// ---------------------------------------------------------------------------

/// Regenerates Figure 2 (paper average: 24% of the register file
/// unallocated).
pub fn fig02_unallocated_registers() -> Table {
    let cfg = GpuConfig::isca2015();
    let mut t = Table::with_columns(&["App", "Blocks/SM", "Limiter", "Unallocated"]);
    let mut fracs = Vec::new();
    for app in all_apps() {
        let k = app.kernel(1.0);
        let o = occupancy(&k, &cfg, 0);
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

// ---------------------------------------------------------------------------
// Figure 5: the worked BDI example.
// ---------------------------------------------------------------------------

/// Regenerates Figure 5: the 64-byte PVC line compressing to 17 bytes.
pub fn fig05_bdi_example() -> Table {
    use caba_compress::{Bdi, Compressor};
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
    let mut line = Vec::new();
    for v in values {
        line.extend_from_slice(&v.to_le_bytes());
    }
    let c = Bdi::new()
        .compress(&line)
        .expect("figure 5 line compresses");
    let mut t = Table::with_columns(&["Field", "Value"]);
    t.row(vec!["Uncompressed".into(), format!("{} bytes", line.len())]);
    t.row(vec![
        "Compressed".into(),
        format!("{} bytes", c.size_bytes()),
    ]);
    t.row(vec![
        "Saved".into(),
        format!("{} bytes", line.len() - c.size_bytes()),
    ]);
    t.row(vec![
        "Metadata (mask)".into(),
        format!("{:#04x}", c.payload[0]),
    ]);
    t.row(vec![
        "Base".into(),
        format!(
            "{:#x}",
            u64::from_le_bytes(c.payload[1..9].try_into().expect("8 bytes"))
        ),
    ]);
    t.row(vec!["Deltas".into(), format!("{:02x?}", &c.payload[9..])]);
    t
}

// ---------------------------------------------------------------------------
// Figures 7–9 + MD-cache table: the five-design comparison.
// ---------------------------------------------------------------------------

/// Regenerates Figure 7 (normalized performance of the five designs).
///
/// The `eval_apps × FIG7` matrix is prefilled through the parallel sweep
/// executor (`CABA_SWEEP_JOBS` workers); the table itself is assembled
/// from the cached results and is byte-identical to the serial path.
pub fn fig07_performance(hc: &HarnessConfig, m: &mut RunMatrix) -> Table {
    m.prefill(hc, &DesignId::FIG7, sweep_jobs());
    let mut t = Table::with_columns(&[
        "App",
        "Base",
        "HW-BDI-Mem",
        "HW-BDI",
        "CABA-BDI",
        "Ideal-BDI",
    ]);
    let mut avgs: HashMap<DesignId, Vec<f64>> = HashMap::new();
    for app in eval_apps() {
        let base = m.get(hc, &app, DesignId::Base).cycles;
        let mut row = vec![app.name.to_string()];
        for d in DesignId::FIG7 {
            let s = m.get(hc, &app, d);
            let sp = base as f64 / s.cycles as f64;
            avgs.entry(d).or_default().push(sp);
            row.push(speedup(sp));
        }
        t.row(row);
    }
    let mut row = vec!["Average".to_string()];
    for d in DesignId::FIG7 {
        row.push(speedup(mean(&avgs[&d])));
    }
    t.row(row);
    t
}

/// Regenerates Figure 8 (memory bandwidth utilization).
pub fn fig08_bw_utilization(hc: &HarnessConfig, m: &mut RunMatrix) -> Table {
    let mut t = Table::with_columns(&[
        "App",
        "Base",
        "HW-BDI-Mem",
        "HW-BDI",
        "CABA-BDI",
        "Ideal-BDI",
    ]);
    let mut avgs: HashMap<DesignId, Vec<f64>> = HashMap::new();
    for app in eval_apps() {
        let mut row = vec![app.name.to_string()];
        for d in DesignId::FIG7 {
            let u = m.get(hc, &app, d).bandwidth_utilization();
            avgs.entry(d).or_default().push(u);
            row.push(pct(u));
        }
        t.row(row);
    }
    let mut row = vec!["Average".to_string()];
    for d in DesignId::FIG7 {
        row.push(pct(mean(&avgs[&d])));
    }
    t.row(row);
    t
}

/// Regenerates Figure 9 (normalized energy) plus the §6.2 DRAM-energy and
/// power observations.
pub fn fig09_energy(hc: &HarnessConfig, m: &mut RunMatrix) -> Table {
    let mut t = Table::with_columns(&[
        "App",
        "Base",
        "HW-BDI-Mem",
        "HW-BDI",
        "CABA-BDI",
        "Ideal-BDI",
        "CABA DRAM-E",
        "CABA Power",
    ]);
    let mut avgs: HashMap<DesignId, Vec<f64>> = HashMap::new();
    let mut dram_red = Vec::new();
    let mut pow_over = Vec::new();
    for app in eval_apps() {
        let base_s = m.get(hc, &app, DesignId::Base).clone();
        let base_e = energy(&base_s, DesignKind::Base);
        let mut row = vec![app.name.to_string()];
        let mut caba_metrics = (0.0f64, 0.0f64);
        for d in DesignId::FIG7 {
            let s = m.get(hc, &app, d).clone();
            let e = energy(&s, d.energy_kind());
            let norm = e.total_nj() / base_e.total_nj();
            avgs.entry(d).or_default().push(norm);
            row.push(format!("{norm:.3}"));
            if d == DesignId::CabaBdi {
                // §6.2: DRAM power reduction and system power overhead.
                let dram_power =
                    e.dram_nj() / s.cycles as f64 / (base_e.dram_nj() / base_s.cycles as f64);
                let power = e.avg_power(s.cycles) / base_e.avg_power(base_s.cycles);
                caba_metrics = (1.0 - dram_power, power - 1.0);
            }
        }
        dram_red.push(caba_metrics.0);
        pow_over.push(caba_metrics.1);
        row.push(pct(caba_metrics.0));
        row.push(format!("{:+.1}%", caba_metrics.1 * 100.0));
        t.row(row);
    }
    let mut row = vec!["Average".to_string()];
    for d in DesignId::FIG7 {
        row.push(format!("{:.3}", mean(&avgs[&d])));
    }
    row.push(pct(mean(&dram_red)));
    row.push(format!("{:+.1}%", mean(&pow_over) * 100.0));
    t.row(row);
    t
}

/// Regenerates the §4.3.2 MD-cache hit-rate result (paper: 85% average).
pub fn tab_md_cache(hc: &HarnessConfig, m: &mut RunMatrix) -> Table {
    let mut t = Table::with_columns(&["App", "MD lookups", "MD hit rate"]);
    let mut rates = Vec::new();
    for app in eval_apps() {
        let s = m.get(hc, &app, DesignId::CabaBdi);
        let r = s.md_hit_rate();
        if s.md_lookups > 0 {
            rates.push(r);
        }
        t.row(vec![app.name.to_string(), s.md_lookups.to_string(), pct(r)]);
    }
    t.row(vec!["Average".into(), String::new(), pct(mean(&rates))]);
    t
}

// ---------------------------------------------------------------------------
// Figures 10 & 11: algorithm flexibility.
// ---------------------------------------------------------------------------

/// Regenerates Figure 10 (speedup with FPC / BDI / C-Pack / BestOfAll).
///
/// Prefilled through the parallel sweep executor, like
/// [`fig07_performance`].
pub fn fig10_algorithms(hc: &HarnessConfig, m: &mut RunMatrix) -> Table {
    let designs = DesignId::FIG10;
    let mut prefill = vec![DesignId::Base];
    prefill.extend(DesignId::FIG10);
    m.prefill(hc, &prefill, sweep_jobs());
    let mut t = Table::with_columns(&["App", "CABA-FPC", "CABA-BDI", "CABA-CPack", "CABA-Best"]);
    let mut avgs: HashMap<DesignId, Vec<f64>> = HashMap::new();
    for app in eval_apps() {
        let base = m.get(hc, &app, DesignId::Base).cycles;
        let mut row = vec![app.name.to_string()];
        for d in designs {
            let s = m.get(hc, &app, d);
            let sp = base as f64 / s.cycles as f64;
            avgs.entry(d).or_default().push(sp);
            row.push(speedup(sp));
        }
        t.row(row);
    }
    let mut row = vec!["Average".to_string()];
    for d in designs {
        row.push(speedup(mean(&avgs[&d])));
    }
    t.row(row);
    t
}

/// Regenerates Figure 11 (compression ratio of each algorithm per app).
pub fn fig11_compression_ratio(hc: &HarnessConfig) -> Table {
    let mut t = Table::with_columns(&["App", "BDI", "FPC", "C-Pack", "BestOfAll"]);
    let mut sums = [0.0f64; 4];
    let apps = eval_apps();
    for app in &apps {
        let lines = app.input_lines(hc.scale);
        let bdi = average_burst_ratio(Algorithm::Bdi, &lines);
        let fpc = average_burst_ratio(Algorithm::Fpc, &lines);
        let cp = average_burst_ratio(Algorithm::CPack, &lines);
        let best = average_best_ratio(&lines);
        for (s, v) in sums.iter_mut().zip([bdi, fpc, cp, best]) {
            *s += v;
        }
        t.row(vec![
            app.name.to_string(),
            format!("{bdi:.2}"),
            format!("{fpc:.2}"),
            format!("{cp:.2}"),
            format!("{best:.2}"),
        ]);
    }
    let n = apps.len() as f64;
    t.row(vec![
        "Average".into(),
        format!("{:.2}", sums[0] / n),
        format!("{:.2}", sums[1] / n),
        format!("{:.2}", sums[2] / n),
        format!("{:.2}", sums[3] / n),
    ]);
    t
}

// ---------------------------------------------------------------------------
// Figure 12: bandwidth sensitivity.
// ---------------------------------------------------------------------------

/// Regenerates Figure 12 (½×/1×/2× bandwidth, Base vs CABA-BDI), averaged
/// over the evaluation set and normalized to 1×-Base.
///
/// The whole `apps × bandwidth × design` matrix runs through the parallel
/// sweep executor; rows normalize against each app's 1×-Base cell from
/// the same sweep, so the table is byte-identical to the serial path.
pub fn fig12_bw_sensitivity(hc: &HarnessConfig) -> Table {
    let mut t = Table::with_columns(&[
        "App",
        "1/2x-Base",
        "1/2x-CABA",
        "1x-Base",
        "1x-CABA",
        "2x-Base",
        "2x-CABA",
    ]);
    let sc = SweepConfig {
        scale: hc.scale,
        cfg: hc.cfg,
    };
    // Per app, in cell order: ½×-Base, ½×-CABA, 1×-Base, 1×-CABA,
    // 2×-Base, 2×-CABA — matching the table columns.
    let cells = caba_sweep::fig12_cells();
    let results = sweep(&sc, cells, sweep_jobs());
    let mut sums = [0.0f64; 6];
    let apps = eval_apps();
    for (app, chunk) in apps.iter().zip(results.chunks_exact(6)) {
        debug_assert!(chunk.iter().all(|r| r.cell.app == app.name));
        let base_1x = chunk[2].stats.cycles; // the 1×-Base cell
        let mut row = vec![app.name.to_string()];
        for (s, r) in sums.iter_mut().zip(chunk) {
            let v = base_1x as f64 / r.stats.cycles as f64;
            *s += v;
            row.push(speedup(v));
        }
        t.row(row);
    }
    let n = apps.len() as f64;
    let mut row = vec!["Average".to_string()];
    for s in sums {
        row.push(speedup(s / n));
    }
    t.row(row);
    t
}

// ---------------------------------------------------------------------------
// Figure 13: cache compression.
// ---------------------------------------------------------------------------

/// Regenerates Figure 13 (CABA-BDI vs compressed L1/L2 with 2×/4× tags),
/// normalized to CABA-BDI.
pub fn fig13_cache_compression(hc: &HarnessConfig, m: &mut RunMatrix) -> Table {
    let mut t = Table::with_columns(&[
        "App",
        "CABA-BDI",
        "CABA-L1-2x",
        "CABA-L1-4x",
        "CABA-L2-2x",
        "CABA-L2-4x",
    ]);
    type CfgTweak = Box<dyn Fn(GpuConfig) -> GpuConfig>;
    let variants: [(&str, CfgTweak); 4] = [
        (
            "L1-2x",
            Box::new(|mut c: GpuConfig| {
                c.l1 = c.l1.with_tag_factor(2);
                c.l1_compressed = true;
                c
            }),
        ),
        (
            "L1-4x",
            Box::new(|mut c: GpuConfig| {
                c.l1 = c.l1.with_tag_factor(4);
                c.l1_compressed = true;
                c
            }),
        ),
        (
            "L2-2x",
            Box::new(|mut c: GpuConfig| {
                c.l2 = c.l2.with_tag_factor(2);
                c
            }),
        ),
        (
            "L2-4x",
            Box::new(|mut c: GpuConfig| {
                c.l2 = c.l2.with_tag_factor(4);
                c
            }),
        ),
    ];
    let mut sums = [0.0f64; 4];
    let apps = eval_apps();
    for app in &apps {
        let caba = m.get(hc, app, DesignId::CabaBdi).cycles;
        let mut row = vec![app.name.to_string(), speedup(1.0)];
        for (i, (name, mk)) in variants.iter().enumerate() {
            eprintln!("  fig13: {} / {name}", app.name);
            let cfg = mk(hc.cfg);
            let s = run_app(app, cfg, DesignId::CabaBdi.make(), hc.scale)
                .unwrap_or_else(|e| panic!("{} {name}: {e}", app.name));
            let sp = caba as f64 / s.cycles as f64;
            sums[i] += sp;
            row.push(speedup(sp));
        }
        t.row(row);
    }
    let n = apps.len() as f64;
    let mut row = vec!["Average".to_string(), speedup(1.0)];
    for s in sums {
        row.push(speedup(s / n));
    }
    t.row(row);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_ids_round_trip() {
        for d in [
            DesignId::Base,
            DesignId::HwBdiMem,
            DesignId::HwBdi,
            DesignId::CabaBdi,
            DesignId::IdealBdi,
            DesignId::CabaFpc,
            DesignId::CabaCPack,
            DesignId::CabaBest,
        ] {
            let design = d.make();
            assert!(!d.label().is_empty());
            // Labels of the Design object align with the ids.
            if d == DesignId::CabaBest {
                assert_eq!(design.label(), "CABA-None");
            }
            let _ = d.energy_kind();
        }
    }

    #[test]
    fn fig02_computes_average_in_paper_ballpark() {
        let t = fig02_unallocated_registers();
        // One row per app plus the average row.
        assert_eq!(t.len(), all_apps().len() + 1);
        let rendered = t.to_string();
        assert!(rendered.contains("Average"));
    }

    #[test]
    fn fig05_matches_paper_numbers() {
        let t = fig05_bdi_example();
        let s = t.to_string();
        assert!(s.contains("17 bytes"), "{s}");
        assert!(s.contains("47 bytes"), "{s}");
        assert!(s.contains("0x55"), "{s}");
        assert!(s.contains("0x80001d000"), "{s}");
    }

    #[test]
    fn fig11_shows_per_algorithm_diversity() {
        let hc = HarnessConfig {
            scale: 0.1,
            cfg: GpuConfig::isca2015_scaled(),
        };
        let t = fig11_compression_ratio(&hc);
        assert!(t.len() > 10);
    }
}
