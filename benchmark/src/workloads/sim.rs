//! `sim_base` and `sim_caba`: one `run_cell` per op, single thread.
//!
//! `sim_base` is the cycle kernel alone (no compression, no assist warps)
//! over memory- and compute-bound apps and three bandwidth regimes.
//! `sim_caba` is the same kernel with assist-warp deployment, the three
//! subroutines, the MD cache and line compression on the memory path. A
//! `core` or `compress` change must move `sim_caba` and leave `sim_base`
//! flat; a cycle-kernel change moves both.

use super::best_of;
use crate::metrics::Metrics;
use crate::rng::Rng;
use crate::run::{Ctx, Passes, Steps, Workload};
use crate::trace::{self_ms_per_pass, Tracer};
use caba_compress::Algorithm;
use caba_sim::{MetricsLevel, RunError, RunStats};
use caba_stats::{geo_mean, IssueBreakdown, StallKind};
use caba_sweep::{run_cell, CellSpec, DesignId, SweepCell, SweepConfig};
use caba_workloads::{all_apps, eval_apps, prepare_app, AppClass, AppSpec, DEFAULT_MAX_CYCLES};
use std::hint::black_box;
use std::time::Instant;

/// Workload scales, chosen so that a pass takes 0.4 to 0.8 s on a 2-vCPU
/// host and every op is sampled 25 times or more in a 20 s run. The host
/// flips between a fast and a slow state several times a second, and an op
/// of a few milliseconds usually fits inside one state, so its minimum over
/// that many samples is the fast state's time. (Issue 13 proposed 0.25 and
/// 0.125 for a 30 to 45 s run; the driver's budget allows about 20 s.)
const BASE_SCALE: f64 = 0.05;
const CABA_SCALE: f64 = 0.02;
const SMOKE_SCALE: f64 = 0.05;

const CABA_DESIGNS: [DesignId; 4] = [
    DesignId::HwBdi,
    DesignId::CabaBdi,
    DesignId::CabaFpc,
    DesignId::CabaCPack,
];

/// Repetitions of each codec loop; the best one is reported.
const CODEC_REPS: usize = 9;

/// The paper's CABA-BDI speed-up over Base (Fig. 7 average).
const PAPER_CABA_BDI_SPEEDUP: f64 = 1.417;

pub struct Sim {
    caba: bool,
    specs: Vec<CellSpec>,
    apps: Vec<AppSpec>,
    /// Pass 0's statistics; every later pass must equal them bit for bit.
    reference: Vec<Option<RunStats>>,
    /// `Gpu::skip_stats` of each cell, from the traced passes.
    skips: Vec<(u64, u64)>,
}

/// The cells of a sim workload in seed order. The seed shuffles the order
/// only: every seed runs the same cells, so metrics compare across seeds.
pub fn op_list(workload: &str, seed: u64, smoke: bool) -> Vec<CellSpec> {
    let caba = workload == "sim_caba";
    let scale = match (smoke, caba) {
        (true, _) => SMOKE_SCALE,
        (false, false) => BASE_SCALE,
        (false, true) => CABA_SCALE,
    };
    let sc = SweepConfig {
        scale,
        ..SweepConfig::default()
    };
    let mut apps = if caba { eval_apps() } else { all_apps() };
    if smoke {
        apps.truncate(if caba { 2 } else { 3 });
    }
    let mut cells = Vec::new();
    for a in &apps {
        if caba {
            for design in CABA_DESIGNS {
                cells.push(SweepCell {
                    app: a.name,
                    design,
                    bw_scale: 1.0,
                });
            }
        } else {
            for bw_scale in [0.5, 1.0, 2.0] {
                cells.push(SweepCell {
                    app: a.name,
                    design: DesignId::Base,
                    bw_scale,
                });
            }
        }
    }
    Rng::new(seed).shuffle(&mut cells);
    cells.into_iter().map(|c| CellSpec::new(&sc, c)).collect()
}

/// Geometric mean that reads the same for every seed: the seed orders the
/// cells, and a floating-point sum depends on the order of its terms.
fn exact_geo_mean(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    geo_mean(&values).unwrap_or(0.0)
}

/// Whether assist warps run under `design` (HW-BDI compresses in logic).
fn assists(design: DesignId) -> bool {
    design != DesignId::Base && design != DesignId::HwBdi
}

fn app_of(spec: &CellSpec) -> AppSpec {
    caba_workloads::app(spec.app).expect("op lists are built from the registry")
}

/// One cell through the layer calls `run_cell` makes, with a span on each.
fn traced_cell(
    spec: &CellSpec,
    app: &AppSpec,
    tracer: &mut Tracer,
) -> (Result<RunStats, RunError>, (u64, u64)) {
    tracer.span("sweep.cell", |tr| {
        let cfg = spec.cfg.with_bandwidth_scale(spec.bw_scale);
        let (mut gpu, kernel) = tr.span("workloads.prepare", |_| {
            prepare_app(app, cfg, spec.design.make(), spec.scale)
        });
        let stats = tr.span("sim.run", |_| gpu.run(&kernel, DEFAULT_MAX_CYCLES));
        (stats, gpu.skip_stats())
    })
}

impl Workload for Sim {
    const SETUPS: usize = 15;

    fn setup(ctx: &Ctx, steps: &mut Steps) -> Result<Self, String> {
        let specs = steps.time(|| op_list(ctx.workload, ctx.seed, ctx.smoke));
        Ok(Sim {
            caba: ctx.workload == "sim_caba",
            apps: specs.iter().map(app_of).collect(),
            reference: vec![None; specs.len()],
            skips: vec![(0, 0); specs.len()],
            specs,
        })
    }

    fn ops(&self) -> usize {
        self.specs.len()
    }

    fn work_per_pass(&self) -> f64 {
        self.stats().map(|s| s.cycles).sum::<u64>() as f64
    }

    fn pass(&mut self, pass: u64, t: &mut [f64], tracer: &mut Tracer) -> usize {
        let mut failed = 0;
        let n = self.specs.len() as u64;
        for (i, spec) in self.specs.iter().enumerate() {
            tracer.set_op(pass * n + i as u64);
            let t0 = Instant::now();
            let stats = if tracer.is_on() {
                let (stats, skip) = traced_cell(spec, &self.apps[i], tracer);
                self.skips[i] = skip;
                stats
            } else {
                run_cell(spec).map(|r| r.stats)
            };
            t[i] = t0.elapsed().as_secs_f64();
            match (stats, &self.reference[i]) {
                (Ok(s), Some(r)) if s == *r => {}
                (Ok(s), None) => self.reference[i] = Some(s),
                _ => failed += 1,
            }
        }
        failed
    }

    /// The exercise/bypass split in exact counts.
    fn check(&mut self) -> Result<(), String> {
        for (spec, s) in self.specs.iter().zip(self.stats()) {
            let assists = assists(spec.design);
            if assists && s.assist_instructions == 0 {
                return Err(format!("{}: no assist instructions", spec.label()));
            }
            if !assists && s.assist_instructions != 0 {
                return Err(format!(
                    "{}: assist instructions without CABA",
                    spec.label()
                ));
            }
            if !self.caba && s.md_lookups != 0 {
                return Err(format!("{}: MD-cache accesses on Base", spec.label()));
            }
        }
        Ok(())
    }

    fn layers(&mut self, run: &Passes, m: &mut Metrics) -> Result<(), String> {
        let ms = self_ms_per_pass(&run.spans, self.specs.len());
        let (prepare, sim, cell) = (ms["workloads.prepare"], ms["sim.run"], ms["sweep.cell"]);
        m.set("workloads.prepare_ms", prepare);
        m.set("workloads.prepare_share", prepare / (prepare + sim + cell));
        m.set("sim.run_ms", sim);

        // Simulated cycles per host second by cell class, from per-op minima.
        let rate = |keep: &dyn Fn(&CellSpec, &AppSpec) -> bool| {
            let (mut cycles, mut secs) = (0u64, 0.0);
            for i in 0..self.specs.len() {
                if keep(&self.specs[i], &self.apps[i]) {
                    cycles += self.reference[i].as_ref().map_or(0, |s| s.cycles);
                    secs += run.t_op[i];
                }
            }
            if secs > 0.0 {
                cycles as f64 / secs
            } else {
                0.0
            }
        };
        m.set(
            "sim.base_cycles_per_s",
            rate(&|s, _| s.design == DesignId::Base),
        );
        m.set(
            "sim.hw_cycles_per_s",
            rate(&|s, _| s.design == DesignId::HwBdi),
        );
        m.set("sim.caba_cycles_per_s", rate(&|s, _| assists(s.design)));
        m.set(
            "sim.membound_cycles_per_s",
            rate(&|_, a| a.class == AppClass::MemoryBound),
        );
        m.set(
            "sim.computebound_cycles_per_s",
            rate(&|_, a| a.class == AppClass::ComputeBound),
        );
        m.set("sim.bw050_cycles_per_s", rate(&|s, _| s.bw_scale == 0.5));
        m.set("sim.bw200_cycles_per_s", rate(&|s, _| s.bw_scale == 2.0));

        let cycles: u64 = self.stats().map(|s| s.cycles).sum();
        let skipped: u64 = self.skips.iter().map(|s| s.0).sum();
        m.set("sim.skipped_cycle_share", skipped as f64 / cycles as f64);
        m.set(
            "sim.skip_events",
            self.skips.iter().map(|s| s.1).sum::<u64>() as f64,
        );
        self.config_ratios(run, m)?;

        // Exact simulated statistics, summed over the workload's cells.
        let sum = |f: &dyn Fn(&RunStats) -> u64| self.stats().map(f).sum::<u64>() as f64;
        let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        m.set(
            if self.caba {
                "model.cycles_sim_caba"
            } else {
                "model.cycles_sim_base"
            },
            cycles as f64,
        );
        let ipcs: Vec<f64> = self.stats().map(RunStats::ipc).collect();
        m.set("model.ipc_geomean", exact_geo_mean(ipcs));
        let mut slots = IssueBreakdown::new();
        for s in self.stats() {
            slots.merge(&s.breakdown);
        }
        for (name, kind) in [
            ("model.issue_app", StallKind::IssuedApp),
            ("model.issue_assist", StallKind::IssuedAssist),
            ("model.issue_memory", StallKind::MemoryData),
            ("model.issue_sync", StallKind::Synchronization),
            ("model.issue_scoreboard", StallKind::ScoreboardPipeline),
            ("model.issue_control", StallKind::ControlReconvergence),
            ("model.issue_idle", StallKind::Idle),
        ] {
            m.set(name, slots.fraction(kind));
        }
        let (l1h, l1m) = (sum(&|s| s.l1_hits), sum(&|s| s.l1_misses));
        let (l2h, l2m) = (sum(&|s| s.l2_hits), sum(&|s| s.l2_misses));
        let (mdl, mdm) = (sum(&|s| s.md_lookups), sum(&|s| s.md_misses));
        m.set("mem.l1_hit_rate", share(l1h, l1h + l1m));
        m.set("mem.l2_hit_rate", share(l2h, l2h + l2m));
        m.set("mem.md_hit_rate", share(mdl - mdm, mdl));
        m.set(
            "mem.dram_bw_util",
            share(sum(&|s| s.dram_busy_cycles), sum(&|s| s.dram_total_cycles)),
        );
        m.set("mem.icnt_flits", sum(&|s| s.icnt_flits));
        m.set("mem.md_stall_cycles", sum(&|s| s.md_stall_cycles));
        let (app_i, assist_i) = (
            sum(&|s| s.app_instructions),
            sum(&|s| s.assist_instructions),
        );
        m.set(
            "core.assist_instr_fraction",
            share(assist_i, app_i + assist_i),
        );
        m.set("core.assist_slots_stolen", sum(&|s| s.assist_slots_stolen));
        m.set(
            "core.assist_slots_reclaimed",
            sum(&|s| s.assist_slots_reclaimed),
        );

        if self.caba {
            self.speedups(m)?;
            self.codec_costs(m);
        }
        Ok(())
    }
}

impl Sim {
    fn stats(&self) -> impl Iterator<Item = &RunStats> {
        self.reference.iter().flatten()
    }

    /// Op indices, one per app: the app's first cell in list order.
    fn first_cell_of_each_app(&self) -> Vec<usize> {
        let mut seen = Vec::new();
        (0..self.specs.len())
            .filter(|&i| {
                let app = self.specs[i].app;
                let first = !seen.contains(&app);
                if first {
                    seen.push(app);
                }
                first
            })
            .collect()
    }

    /// The heaviest cell under two configuration knobs whose cost the
    /// roadmap asks about: `intra_jobs` 2 against 1, and the metric
    /// registry fully on against off. Neither may change the statistics.
    fn config_ratios(&self, run: &Passes, m: &mut Metrics) -> Result<(), String> {
        let heaviest = (0..self.specs.len())
            .max_by(|&a, &b| run.t_op[a].total_cmp(&run.t_op[b]))
            .expect("op lists are not empty");
        let (spec, app) = (&self.specs[heaviest], &self.apps[heaviest]);
        let mut intra2 = spec.cfg;
        intra2.intra_jobs = 2;
        let variants = [spec.cfg, intra2, spec.cfg.with_metrics(MetricsLevel::Full)];
        let mut best = [f64::INFINITY; 3];
        for _ in 0..3 {
            for (slot, cfg) in best.iter_mut().zip(variants) {
                let cfg = cfg.with_bandwidth_scale(spec.bw_scale);
                let (mut gpu, kernel) = prepare_app(app, cfg, spec.design.make(), spec.scale);
                let t0 = Instant::now();
                let stats = gpu.run(&kernel, DEFAULT_MAX_CYCLES);
                *slot = slot.min(t0.elapsed().as_secs_f64());
                if stats.ok().as_ref() != self.reference[heaviest].as_ref() {
                    return Err(format!(
                        "{}: a host-side knob changed RunStats",
                        spec.label()
                    ));
                }
            }
        }
        m.set("sim.intra2_ratio", best[1] / best[0]);
        m.set("sim.metrics_on_ratio", best[2] / best[0]);
        Ok(())
    }

    /// Simulated speed-up of each CABA design over Base, geomean over the
    /// eval apps. The Base cells run here, untimed.
    fn speedups(&self, m: &mut Metrics) -> Result<(), String> {
        let cycles_of = |app: &str, design: DesignId| {
            self.specs
                .iter()
                .zip(self.stats())
                .find(|(s, _)| s.app == app && s.design == design)
                .map(|(_, st)| st.cycles as f64)
        };
        let mut ratios = [Vec::new(), Vec::new(), Vec::new()];
        for i in self.first_cell_of_each_app() {
            let spec = &self.specs[i];
            let base = run_cell(&CellSpec {
                design: DesignId::Base,
                ..*spec
            })
            .map_err(|e| format!("{}/Base: {e}", spec.app))?
            .stats
            .cycles as f64;
            let designs = [DesignId::CabaBdi, DesignId::CabaFpc, DesignId::CabaCPack];
            for (slot, d) in ratios.iter_mut().zip(designs) {
                slot.push(base / cycles_of(spec.app, d).ok_or("missing CABA cell")?);
            }
        }
        let [bdi, fpc, cpack] = ratios.map(exact_geo_mean);
        m.set("core.caba_bdi_speedup", bdi);
        m.set("core.caba_fpc_speedup", fpc);
        m.set("core.caba_cpack_speedup", cpack);
        m.set(
            "core.caba_bdi_speedup_vs_paper",
            bdi / PAPER_CABA_BDI_SPEEDUP,
        );
        Ok(())
    }

    /// Host nanoseconds per 128 B line for each codec entry point, over
    /// the input lines of this workload's apps.
    fn codec_costs(&self, m: &mut Metrics) {
        let scale = self.specs[0].scale;
        let mut lines = Vec::new();
        for i in self.first_cell_of_each_app() {
            lines.extend(self.apps[i].input_lines(scale));
        }
        let per_line = |secs: f64, n: usize| secs * 1e9 / n.max(1) as f64;
        let names = [
            (
                Algorithm::Bdi,
                "compress.bdi_scan_ns",
                "compress.bdi_compress_ns",
                "compress.bdi_decompress_ns",
            ),
            (
                Algorithm::Fpc,
                "compress.fpc_scan_ns",
                "compress.fpc_compress_ns",
                "compress.fpc_decompress_ns",
            ),
            (
                Algorithm::CPack,
                "compress.cpack_scan_ns",
                "compress.cpack_compress_ns",
                "compress.cpack_decompress_ns",
            ),
        ];
        let mut best_bursts = vec![usize::MAX; lines.len()];
        for (alg, scan, compress, decompress) in names {
            let (t, _) = best_of(CODEC_REPS, || {
                for l in &lines {
                    black_box(alg.scan_line_size(black_box(l)));
                }
            });
            m.set(scan, per_line(t, lines.len()));
            let (t, packed) = best_of(CODEC_REPS, || {
                lines
                    .iter()
                    .map(|l| alg.compress_line(black_box(l)))
                    .collect::<Vec<_>>()
            });
            m.set(compress, per_line(t, lines.len()));
            let compressed: Vec<_> = packed.iter().flatten().collect();
            let mut buf = [0u8; caba_compress::LINE_SIZE];
            let (t, _) = best_of(CODEC_REPS, || {
                for c in &compressed {
                    black_box(alg.decompress_into(c, &mut buf).ok());
                }
            });
            m.set(decompress, per_line(t, compressed.len()));
            for (b, (p, l)) in best_bursts.iter_mut().zip(packed.iter().zip(&lines)) {
                let raw = l.len().div_ceil(caba_compress::BURST_BYTES).max(1);
                *b = (*b).min(p.as_ref().map_or(raw, |c| c.bursts()));
            }
        }
        let raw: usize = lines
            .iter()
            .map(|l| l.len().div_ceil(caba_compress::BURST_BYTES).max(1))
            .sum();
        m.set(
            "compress.best_ratio",
            raw as f64 / best_bursts.iter().sum::<usize>().max(1) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_the_order_and_only_the_order() {
        for w in ["sim_base", "sim_caba"] {
            let label = |v: &[CellSpec]| v.iter().map(CellSpec::label).collect::<Vec<_>>();
            let a = label(&op_list(w, 1, true));
            assert_eq!(a, label(&op_list(w, 1, true)), "{w}: same seed, same list");
            let b = label(&op_list(w, 2, true));
            assert_ne!(a, b, "{w}: another seed, another order");
            let (mut a, mut b) = (a, b);
            a.sort();
            b.sort();
            assert_eq!(a, b, "{w}: every seed runs the same cells");
        }
        assert_eq!(op_list("sim_base", 0, false).len(), all_apps().len() * 3);
        assert_eq!(op_list("sim_caba", 0, false).len(), eval_apps().len() * 4);
    }
}
