//! Golden regression and determinism tests for the sweep executor.
//!
//! The hot-path work (hashing, candidate caching, quiesced-component
//! skipping, bulk DRAM-clock catch-up) is only legal because it leaves
//! architectural state untouched. These tests pin that down two ways:
//! exact cycle/flit counts captured before the overhaul, and bit-identical
//! `RunStats` between serial and parallel sweeps.

use caba_sim::fault::FaultConfig;
use caba_sim::{Gpu, GpuConfig, RunError, RunStats};
use caba_stats::checksum64;
use caba_stats::snap::{SnapshotState, SnapshotWriter};
use caba_sweep::{run_cell, CellSpec, DesignId, Sweep, SweepCell, SweepConfig};
use caba_workloads::{app, prepare_app, run_app, DEFAULT_MAX_CYCLES};

/// Exact `(design, cycles, icnt_flits)` triples for CONS on
/// `GpuConfig::small()` at scale 0.05, captured from the pre-overhaul
/// simulator. Any drift here means an "optimization" changed simulated
/// behavior, not just wall-clock time.
const GOLDEN: [(DesignId, u64, u64); 7] = [
    (DesignId::Base, 2554, 3756),
    (DesignId::HwBdiMem, 1987, 3756),
    (DesignId::HwBdi, 1988, 2874),
    (DesignId::IdealBdi, 1987, 2874),
    (DesignId::CabaBdi, 2720, 2882),
    (DesignId::CabaFpc, 3081, 3537),
    (DesignId::CabaCPack, 2769, 3306),
];

const GOLDEN_APP_INSTRUCTIONS: u64 = 2496;

#[test]
fn golden_cycle_counts_are_stable() {
    let a = app("CONS").expect("CONS exists");
    for (design, cycles, flits) in GOLDEN {
        let stats = run_app(&a, caba_sim::GpuConfig::small(), design.make(), 0.05)
            .unwrap_or_else(|e| panic!("{}: {e}", design.label()));
        assert_eq!(
            stats.cycles,
            cycles,
            "{}: cycle count drifted",
            design.label()
        );
        assert_eq!(
            stats.icnt_flits,
            flits,
            "{}: interconnect flit count drifted",
            design.label()
        );
        assert_eq!(
            stats.app_instructions,
            GOLDEN_APP_INSTRUCTIONS,
            "{}: instruction count drifted",
            design.label()
        );
    }
}

/// The clocked end-of-cycle commit, pinned: in cycle *t* an SM sees
/// start-of-cycle memory plus its own writes, and other SMs see those writes
/// from *t + 1*. These two cells are the cheapest of the sweep that notice
/// when that breaks: hand the SM phase direct views, or let an SM read the
/// shared compression map for a line it wrote this cycle, and `icnt_flits`
/// moves by three on each.
#[test]
fn clocked_commit_is_pinned() {
    let sc = SweepConfig {
        scale: 0.05,
        ..SweepConfig::default()
    };
    for (app, cycles, flits) in [("LPS", 845, 3617), ("nw", 831, 3371)] {
        let cell = SweepCell {
            app,
            design: DesignId::HwBdi,
            bw_scale: 1.0,
        };
        let stats = run_cell(&CellSpec::new(&sc, cell))
            .expect("cell runs")
            .stats;
        assert_eq!(
            (stats.cycles, stats.icnt_flits),
            (cycles, flits),
            "{app}/HW-BDI: same-cycle stores leaked between SMs"
        );
    }
}

/// `checksum64` of the [`RunStats::save`] bytes of one cell on
/// `GpuConfig::small()` at scale 0.05 — every counter, not the three the
/// `GOLDEN` table names — plus the Fig. 1 conservation law
/// `Σ buckets == cycles × schedulers × SMs`.
fn stats_checksum(app_name: &str, design: DesignId, cfg: GpuConfig) -> u64 {
    let spec = app(app_name).unwrap_or_else(|| panic!("unknown app {app_name}"));
    let stats = run_app(&spec, cfg, design.make(), 0.05)
        .unwrap_or_else(|e| panic!("{app_name}/{}: {e}", design.label()));
    assert_eq!(
        stats.breakdown.total(),
        stats.cycles * (cfg.num_sms * cfg.schedulers_per_sm) as u64,
        "{app_name}/{}: taxonomy leaks slots",
        design.label()
    );
    let mut w = SnapshotWriter::new();
    stats.save(&mut w);
    checksum64(&w.into_bytes())
}

#[test]
fn every_counter_is_pinned() {
    // 3 apps x 3 designs covering every design family: bare baseline (no
    // compression map), dedicated-logic compression, and CABA assist warps
    // (per-SM controller forks, line store, staging traffic). The last cell
    // runs under fault injection: fault streams are keyed per component
    // (per-SM, per-partition, one crossbar stream drawn where requests and
    // responses merge), so injected drops and retransmissions land on the
    // same packets at the same cycles in every run.
    let small = GpuConfig::small();
    let mut faulty = small;
    faulty.fault = FaultConfig::recover(0xFA57_CAB4, 0.02);
    let pins = [
        ("CONS", DesignId::Base, small, 0xfb8e_75d8_70cc_4af2),
        ("CONS", DesignId::HwBdi, small, 0xb994_d636_9d22_4897),
        ("CONS", DesignId::CabaBdi, small, 0x88e1_4b4e_01ed_ea19),
        ("BFS", DesignId::Base, small, 0xfd71_0345_2fa1_b8ca),
        ("BFS", DesignId::HwBdi, small, 0x55f7_18e8_9a45_65e6),
        ("BFS", DesignId::CabaBdi, small, 0xdc43_521b_1ac6_908f),
        ("MM", DesignId::Base, small, 0x838f_0c24_0366_8b86),
        ("MM", DesignId::HwBdi, small, 0xc085_fb61_767d_87f2),
        ("MM", DesignId::CabaBdi, small, 0xa31f_1aa8_ef62_8a17),
        ("CONS", DesignId::CabaBdi, faulty, 0x61e8_be2b_96a6_c730),
    ];
    for (app_name, design, cfg, pin) in pins {
        assert_eq!(
            stats_checksum(app_name, design, cfg),
            pin,
            "{app_name}/{} (faults {}): a counter drifted",
            design.label(),
            cfg.fault.enabled
        );
    }
}

/// Runs `app_name` under `design` to a mid-run timeout at `split` cycles,
/// snapshots the machine, restores the snapshot into a **fresh** machine
/// (built with `resume_cfg`), and resumes to completion.
fn split_resume_stats(
    app_name: &str,
    design: DesignId,
    take_cfg: GpuConfig,
    resume_cfg: GpuConfig,
    split: u64,
) -> RunStats {
    let spec = app(app_name).unwrap_or_else(|| panic!("unknown app {app_name}"));
    let (mut warm, kernel) = prepare_app(&spec, take_cfg, design.make(), 0.05);
    match warm.run(&kernel, split) {
        Err(RunError::Timeout { cycles, .. }) => assert_eq!(cycles, split),
        other => panic!(
            "{app_name}/{}: expected a timeout at cycle {split}, got {other:?}",
            design.label()
        ),
    }
    let snap = warm.snapshot(&kernel);
    let mut resumed = Gpu::new(resume_cfg, design.make());
    resumed
        .restore(&kernel, &snap)
        .unwrap_or_else(|e| panic!("{app_name}/{}: restore: {e}", design.label()));
    resumed
        .resume(&kernel, DEFAULT_MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{app_name}/{}: resumed run: {e}", design.label()))
}

/// The checkpoint/restore determinism gate, pinned against the golden
/// table: a run snapshotted mid-flight, restored into a fresh machine,
/// and resumed must land on the **exact** pre-overhaul cycle and flit
/// counts for every design family — including the CABA designs, whose
/// controller state (assist-warp queues, line store, staging traffic)
/// travels through the snapshot.
#[test]
fn restored_runs_match_golden_pins_across_designs() {
    for (design, cycles, flits) in GOLDEN {
        let stats =
            split_resume_stats("CONS", design, GpuConfig::small(), GpuConfig::small(), 1000);
        assert_eq!(
            stats.cycles,
            cycles,
            "{}: restored run drifted from golden cycle count",
            design.label()
        );
        assert_eq!(
            stats.icnt_flits,
            flits,
            "{}: restored run drifted from golden flit count",
            design.label()
        );
        assert_eq!(
            stats.app_instructions,
            GOLDEN_APP_INSTRUCTIONS,
            "{}: restored run drifted from golden instruction count",
            design.label()
        );
    }
}

/// Restore determinism under fault injection: the injector's per-component
/// RNG streams travel through the snapshot, so a resumed run replays the
/// same drops and retransmissions as the unbroken one.
#[test]
fn restored_run_is_exact_under_fault_injection() {
    let mut cfg = GpuConfig::small();
    cfg.fault = FaultConfig::recover(0xFA57_CAB4, 0.02);
    let spec = app("CONS").expect("CONS exists");
    let unbroken = run_app(&spec, cfg, DesignId::CabaBdi.make(), 0.05).expect("unbroken run");
    assert!(
        unbroken.flit_retransmissions > 0,
        "fault config must actually inject"
    );
    let resumed = split_resume_stats("CONS", DesignId::CabaBdi, cfg, cfg, 1000);
    assert_eq!(resumed, unbroken);
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    // 3 apps x 3 designs, as a flat cell list. `RunStats` derives `Eq`, so
    // equality here is exact — every counter, not a tolerance check.
    let mut cells = Vec::new();
    for app in ["CONS", "BFS", "bfs"] {
        for design in [DesignId::Base, DesignId::CabaBdi, DesignId::CabaFpc] {
            cells.push(SweepCell {
                app,
                design,
                bw_scale: 1.0,
            });
        }
    }
    let sc = SweepConfig {
        scale: 0.05,
        ..SweepConfig::default()
    };
    let run = |jobs| Sweep::new(&sc, cells.clone()).jobs(jobs).run().unwrap();
    let (serial, parallel) = (run(1).results, run(4).results);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.cell, p.cell, "cell order must be stable");
        assert_eq!(
            s.stats,
            p.stats,
            "{} / {}: parallel RunStats diverged from serial",
            s.cell.app,
            s.cell.design.label()
        );
    }
}
