//! The reference differential for the next-event engine. With
//! `time_skip` off, `Gpu::run` is the naive reference: every SM and
//! partition is cycled every cycle. With it on, a component is cycled only
//! once its next event has come, the cycles it slept through are settled
//! in bulk, and the clock jumps when nothing is due. The two must agree
//! **bit for bit**: byte-equal [`RunStats`] — including the Figure 1
//! issue-slot buckets — and byte-equal snapshots at any cycle, apart from
//! the engine's own skip counters.

use caba_sim::{CabaMode, Design, Gpu, GpuConfig, RunError, RunStats};
use caba_stats::StallKind;
use caba_workloads::{app, prepare_app};

const SCALE: f64 = 0.05;
const MAX: u64 = 50_000_000;

const BASE: Design = Design::Base;
const HW_BDI: Design = Design::HwFull { ideal: false };
const CABA_BDI: Design = Design::Caba(CabaMode::Bdi);

/// The three designs the engines treat differently: no compression
/// machinery at all, dedicated-logic compression (partition-side horizon
/// work), and assist warps (SM-side dormancy with live assist slots).
const DESIGNS: [Design; 3] = [BASE, HW_BDI, CABA_BDI];

/// Runs `app_name` to completion; returns its statistics and
/// `Gpu::skip_stats`.
fn run(
    app_name: &str,
    mut cfg: GpuConfig,
    design: Design,
    time_skip: bool,
) -> (RunStats, u64, u64) {
    let spec = app(app_name).expect(app_name);
    cfg.time_skip = time_skip;
    let (mut gpu, kernel) = prepare_app(&spec, cfg, design, SCALE);
    let stats = gpu.run(&kernel, MAX).expect("run completes");
    let (skipped, events) = gpu.skip_stats();
    (stats, skipped, events)
}

/// Every Fig. 1 bucket and every other counter must be identical on both
/// engines, across apps and designs; the slot totals must conserve
/// (`buckets == cycles x SMs x schedulers`) on both; and the clock must
/// actually jump somewhere, or this test proves nothing.
#[test]
fn time_skip_is_bit_invisible_across_apps_and_designs() {
    let cfg = GpuConfig::small();
    let slots_per_cycle = (cfg.num_sms * cfg.schedulers_per_sm) as u64;
    let mut total_skipped = 0;
    for app_name in ["CONS", "bfs", "MUM"] {
        for design in DESIGNS {
            let dname = design.label();
            let (on, skipped, events) = run(app_name, cfg, design, true);
            let (off, off_skipped, _) = run(app_name, cfg, design, false);
            assert_eq!(
                on, off,
                "{app_name}/{dname}: RunStats must not depend on time_skip"
            );
            assert_eq!(off_skipped, 0, "{app_name}/{dname}: skip off means none");
            for k in StallKind::ALL {
                assert_eq!(
                    on.breakdown.count(k),
                    off.breakdown.count(k),
                    "{app_name}/{dname}: Fig. 1 bucket {k} diverged"
                );
            }
            assert_eq!(
                on.breakdown.total(),
                on.cycles * slots_per_cycle,
                "{app_name}/{dname}: slot conservation broke (skip credit missing)"
            );
            assert!(
                skipped == 0 || events > 0,
                "{app_name}/{dname}: skipped cycles without skip events"
            );
            total_skipped += skipped;
        }
    }
    assert!(
        total_skipped > 0,
        "no cell ever skipped — the next-event clock never engaged"
    );
}

/// Snapshots taken at arbitrary cycles — including cycles an unbroken run
/// would jump clean over — must resume to the identical completion.
/// `RunStats` must match the reference exactly; the skip counters may
/// differ by precisely the restore contract: SM dormancy is recomputed,
/// never restored, so a split inside a skip span costs one real re-proof
/// cycle (skipped total one lower, the span cut into one extra event).
/// At least one probed split must land inside a span, proving the
/// mid-skip case is really covered.
#[test]
fn mid_skip_snapshot_resumes_bit_identically() {
    // `hs` under Base skips ~a quarter of its cycles in many short spans,
    // so the probe grid below reliably cuts at least one span in two.
    let spec = app("hs").expect("known app");
    let mut cfg = GpuConfig::small();
    cfg.time_skip = true;

    let (mut ref_gpu, kernel) = prepare_app(&spec, cfg, Design::Base, SCALE);
    let ref_stats = ref_gpu.run(&kernel, MAX).expect("reference completes");
    let (ref_skipped, ref_events) = ref_gpu.skip_stats();
    assert!(
        ref_skipped > 0,
        "reference run must skip for this test to bite"
    );

    let mut mid_skip_proven = false;
    for split in (1..64).map(|i| i * ref_stats.cycles / 64) {
        let (mut g1, _) = prepare_app(&spec, cfg, Design::Base, SCALE);
        match g1.run(&kernel, split) {
            Err(RunError::Timeout { cycles, .. }) => assert_eq!(cycles, split),
            other => panic!("split run must time out, got {other:?}"),
        }
        let bytes = g1.snapshot(&kernel);
        let mut g2 = Gpu::new(cfg, Design::Base);
        g2.restore(&kernel, &bytes)
            .expect("mid-run snapshot restores");
        assert_eq!(g2.cycle(), split);
        let resumed = g2.resume(&kernel, MAX).expect("resumed run completes");
        assert_eq!(resumed, ref_stats, "split at {split}: stats diverged");
        let (skipped, events) = g2.skip_stats();
        let cut = skipped == ref_skipped - 1 || events == ref_events + 1;
        let clean = skipped == ref_skipped && events == ref_events;
        assert!(
            clean || cut,
            "split at {split}: skipped {skipped}/{events} events vs \
             reference {ref_skipped}/{ref_events} — more than the one \
             dormancy re-proof cycle the restore contract allows"
        );
        if cut {
            // The timeout cut a span in two: this snapshot was mid-skip,
            // and the restored machine re-proved dormancy with one real
            // cycle before skipping the remainder of the span.
            mid_skip_proven = true;
        }
    }
    assert!(
        mid_skip_proven,
        "no probed split landed inside a skip span — move the probes"
    );
}

/// One differential cell: an app, a design, and the machine it runs on.
struct Cell {
    app: &'static str,
    design: Design,
    cfg: GpuConfig,
}

/// The four regimes the engines diverge on most easily: Base at half
/// bandwidth, where loads stall on full MSHR files in the SMs and the L2
/// slices (the re-probe sleep); dedicated-logic compression; assist warps;
/// and Base on `hs`, a compute-bound stencil, whose SMs mostly issue
/// beside stalled neighbours rather than sleep. Audits run every 61
/// cycles, so the Fig. 1 conservation check reads every SM, sleeping or
/// not, mid-run.
fn cells() -> [Cell; 4] {
    let mut cfg = GpuConfig::small();
    cfg.audit_interval = 61;
    [
        Cell {
            app: "CONS",
            design: BASE,
            cfg: cfg.with_bandwidth_scale(0.5),
        },
        Cell {
            app: "bfs",
            design: HW_BDI,
            cfg,
        },
        Cell {
            app: "MUM",
            design: CABA_BDI,
            cfg,
        },
        Cell {
            app: "hs",
            design: BASE,
            cfg,
        },
    ]
}

/// A snapshot without what may differ between the engines: the skip
/// counters (the payload's last two words) and the trailing checksum.
fn machine_bytes(snapshot: &[u8]) -> &[u8] {
    &snapshot[..snapshot.len() - 24]
}

/// Runs `cell` on one engine in 17 pieces, snapshotting at each of the
/// `cuts`, and returns the snapshots and the final statistics.
fn stepped(cell: &Cell, time_skip: bool, cuts: &[u64]) -> (Vec<Vec<u8>>, RunStats) {
    let spec = app(cell.app).expect(cell.app);
    let mut cfg = cell.cfg;
    cfg.time_skip = time_skip;
    let (mut gpu, kernel) = prepare_app(&spec, cfg, cell.design, SCALE);
    let mut snaps = Vec::new();
    for (i, &cut) in cuts.iter().enumerate() {
        let outcome = if i == 0 {
            gpu.run(&kernel, cut)
        } else {
            gpu.resume(&kernel, cut)
        };
        match outcome {
            Err(RunError::Timeout { cycles, .. }) => assert_eq!(cycles, cut),
            other => panic!("{}: the run must reach cut {cut}, got {other:?}", cell.app),
        }
        snaps.push(gpu.snapshot(&kernel));
    }
    let stats = gpu.resume(&kernel, MAX).expect("stepped run completes");
    if !time_skip {
        assert_eq!(gpu.skip_stats(), (0, 0), "the naive engine never skips");
    }
    (snaps, stats)
}

/// The naive engine and the next-event engine produce the same
/// `RunStats`, and the same machine snapshot for snapshot at 16 cuts
/// spread over each of the four cells; and a snapshot the naive engine
/// took resumes on the next-event engine to the same end.
#[test]
fn naive_and_next_event_engines_agree_on_stats_and_snapshots() {
    for cell in cells() {
        let (naive, _, _) = run(cell.app, cell.cfg, cell.design, false);
        let (event, _, _) = run(cell.app, cell.cfg, cell.design, true);
        assert_eq!(
            naive, event,
            "{}: RunStats must not depend on the engine",
            cell.app
        );
        assert!(naive.audits_run > 0, "{}: the audits never ran", cell.app);
        let cuts: Vec<u64> = (1..=16).map(|i| i * naive.cycles / 17).collect();
        let (naive_snaps, naive_end) = stepped(&cell, false, &cuts);
        let (event_snaps, event_end) = stepped(&cell, true, &cuts);
        assert_eq!(naive_end, naive, "{}: stepping the naive engine", cell.app);
        assert_eq!(
            event_end, naive,
            "{}: stepping the next-event engine",
            cell.app
        );
        for ((a, b), cut) in naive_snaps.iter().zip(&event_snaps).zip(&cuts) {
            assert_eq!(
                a.len(),
                b.len(),
                "{} at cycle {cut}: snapshot size",
                cell.app
            );
            assert!(
                machine_bytes(a) == machine_bytes(b),
                "{} at cycle {cut}: the engines' machines differ",
                cell.app
            );
        }

        let mut cfg = cell.cfg;
        cfg.time_skip = true;
        let spec = app(cell.app).expect(cell.app);
        let (mut gpu, kernel) = prepare_app(&spec, cfg, cell.design, SCALE);
        gpu.restore(&kernel, &naive_snaps[naive_snaps.len() / 2])
            .expect("a naive snapshot restores on the next-event engine");
        let resumed = gpu.resume(&kernel, MAX).expect("resumed run completes");
        assert_eq!(resumed, naive, "{}: naive snapshot resumed", cell.app);
    }
}
