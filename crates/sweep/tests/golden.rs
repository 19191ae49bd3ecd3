//! Golden regression and determinism tests for the sweep executor.
//!
//! The hot-path work (hashing, candidate caching, quiesced-component
//! skipping, bulk DRAM-clock catch-up) is only legal because it leaves
//! architectural state untouched. These tests pin that down two ways:
//! exact cycle/flit counts captured before the overhaul, and bit-identical
//! `RunStats` between serial and parallel sweeps.

use caba_sim::fault::FaultConfig;
use caba_sim::{Gpu, GpuConfig, RunError, RunStats};
use caba_sweep::{DesignId, Sweep, SweepCell, SweepConfig};
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

/// Runs one `(app, design)` cell serially and under every tested intra-run
/// worker count, asserting exact `RunStats` equality (the struct derives
/// `Eq`, so every counter is compared, not a tolerance band).
fn assert_intra_deterministic(app_name: &str, design: DesignId, cfg: GpuConfig) {
    let spec = app(app_name).unwrap_or_else(|| panic!("unknown app {app_name}"));
    let mut serial_cfg = cfg;
    serial_cfg.intra_jobs = 1;
    let serial = run_app(&spec, serial_cfg, design.make(), 0.05)
        .unwrap_or_else(|e| panic!("{app_name}/{}: {e}", design.label()));
    for jobs in [2, 4] {
        let mut par_cfg = cfg;
        par_cfg.intra_jobs = jobs;
        let par = run_app(&spec, par_cfg, design.make(), 0.05)
            .unwrap_or_else(|e| panic!("{app_name}/{} @ intra_jobs={jobs}: {e}", design.label()));
        assert_eq!(
            serial,
            par,
            "{app_name}/{}: RunStats diverged at intra_jobs={jobs}",
            design.label()
        );
    }
}

#[test]
fn intra_jobs_is_bit_identical_to_serial() {
    // 3 apps x 3 designs covering every design family: bare baseline (no
    // compression map), dedicated-logic compression, and CABA assist warps
    // (per-SM controller forks, line store, staging traffic).
    for app_name in ["CONS", "BFS", "MM"] {
        for design in [DesignId::Base, DesignId::HwBdi, DesignId::CabaBdi] {
            assert_intra_deterministic(app_name, design, GpuConfig::small());
        }
    }
}

/// Figure 1 bucket totals must be bit-identical across intra-run worker
/// counts: the issue-slot taxonomy is recorded per scheduler inside the
/// sharded SM phase and merged at serial points in SM index order, so no
/// worker schedule may perturb a single bucket. Checked explicitly
/// per-bucket (not just through `RunStats` equality) together with the
/// conservation law `Σ buckets == cycles × schedulers × SMs`.
#[test]
fn fig01_bucket_totals_identical_across_intra_jobs() {
    use caba_stats::StallKind;
    let cfg = GpuConfig::small();
    let slots_per_cycle = (cfg.num_sms * cfg.schedulers_per_sm) as u64;
    for app_name in ["CONS", "BFS"] {
        for design in [DesignId::Base, DesignId::CabaBdi] {
            let spec = app(app_name).expect("known app");
            let mut reference = None;
            for jobs in [1, 2, 4] {
                let mut c = cfg;
                c.intra_jobs = jobs;
                let stats = run_app(&spec, c, design.make(), 0.05).unwrap_or_else(|e| {
                    panic!("{app_name}/{} @ intra_jobs={jobs}: {e}", design.label())
                });
                assert_eq!(
                    stats.breakdown.total(),
                    stats.cycles * slots_per_cycle,
                    "{app_name}/{} @ intra_jobs={jobs}: taxonomy leaks slots",
                    design.label()
                );
                match &reference {
                    None => reference = Some(stats.breakdown),
                    Some(r) => {
                        for k in StallKind::ALL {
                            assert_eq!(
                                stats.breakdown.count(k),
                                r.count(k),
                                "{app_name}/{} @ intra_jobs={jobs}: bucket {} diverged",
                                design.label(),
                                k.slug()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn intra_jobs_is_bit_identical_under_fault_injection() {
    // Fault streams are keyed per component (per-SM, per-partition, one
    // global crossbar stream drawn only at the serial merge points), so
    // injected drops/retransmissions must land on the same packets at the
    // same cycles regardless of worker count.
    let mut cfg = GpuConfig::small();
    cfg.fault = FaultConfig::recover(0xFA57_CAB4, 0.02);
    assert_intra_deterministic("CONS", DesignId::CabaBdi, cfg);
}

/// Runs `app_name` under `design` to a mid-run timeout at `split` cycles,
/// snapshots the machine, restores the snapshot into a **fresh** machine
/// (built with `resume_cfg`, which may differ in tolerated knobs such as
/// `intra_jobs`), and resumes to completion.
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

/// Restore determinism across intra-run worker counts: a snapshot taken
/// under one `intra_jobs` restores under another (the knob is
/// canonicalized out of the config hash) and still completes bit-identical
/// to the serial unbroken run.
#[test]
fn restored_run_is_exact_across_intra_jobs() {
    let spec = app("CONS").expect("CONS exists");
    let unbroken =
        run_app(&spec, GpuConfig::small(), DesignId::CabaBdi.make(), 0.05).expect("unbroken run");
    for (take_jobs, resume_jobs) in [(1, 2), (2, 4), (4, 1)] {
        let mut take_cfg = GpuConfig::small();
        take_cfg.intra_jobs = take_jobs;
        let mut resume_cfg = GpuConfig::small();
        resume_cfg.intra_jobs = resume_jobs;
        let resumed = split_resume_stats("CONS", DesignId::CabaBdi, take_cfg, resume_cfg, 1000);
        assert_eq!(
            resumed, unbroken,
            "snapshot @ intra_jobs={take_jobs} resumed @ intra_jobs={resume_jobs} diverged"
        );
    }
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
