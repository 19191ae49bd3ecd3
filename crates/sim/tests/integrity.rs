//! Integration tests for the simulation integrity layer: watchdog hang
//! forensics, structural invariant audits, and deterministic fault
//! injection in both recovery and silent-corruption modes.

mod kernels;

use caba_isa::{
    AluOp, CmpOp, Kernel, LaunchDims, Pred, ProgramBuilder, Reg, Space, Special, Src, Width,
};
use caba_sim::{
    Component, Design, FaultConfig, FaultMode, Gpu, GpuConfig, RunError, RunStats, WarpState,
};
use caba_stats::prop;
use kernels::{check_output, load_input, scale_kernel};

/// One 64-thread block, two warps. Warp 1 loads a value and consumes it
/// before the block barrier; warp 0 goes straight to the barrier. If warp
/// 1's load is lost, warp 0 waits forever — the canonical
/// lost-request-meets-barrier deadlock.
fn barrier_divergent_kernel(in_base: u64) -> Kernel {
    let mut b = ProgramBuilder::new();
    let (gid, addr, v) = (Reg(0), Reg(1), Reg(2));
    b.global_thread_id(gid);
    b.setp(Pred(0), CmpOp::GeU, Src::Reg(gid), Src::Imm(32));
    b.if_then(Pred(0), true, |b| {
        b.alu(AluOp::Shl, addr, Src::Reg(gid), Src::Imm(2));
        b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(0)));
        b.ld(Space::Global, Width::B4, v, Src::Reg(addr), 0);
        // Consume the load so warp 1 blocks on the fill *before* the
        // barrier, leaving warp 0 stranded there.
        b.alu(AluOp::Add, v, Src::Reg(v), Src::Imm(1));
    });
    b.bar();
    b.exit();
    Kernel::new("barrier-hang", b.build(), LaunchDims::new(1, 64)).with_params(vec![in_base])
}

/// The machine that wedges [`barrier_divergent_kernel`]: every crossbar
/// packet silently dropped, a 2 000-cycle watchdog, no audits (the
/// watchdog path alone).
fn wedging_config() -> GpuConfig {
    let mut cfg = GpuConfig::small();
    cfg.watchdog_window = 2_000;
    cfg.audit_interval = 0;
    cfg.fault = FaultConfig {
        enabled: true,
        seed: 9,
        mode: FaultMode::Silent,
        drop_flit_rate: 1.0,
        ..FaultConfig::disabled()
    };
    cfg
}

/// A silently dropped request plus a block barrier wedges the machine; the
/// watchdog must declare a hang long before the cycle budget and attach a
/// report that names both the stranded barrier warp and the lost read.
#[test]
fn watchdog_reports_barrier_hang_with_lost_request() {
    let mut gpu = Gpu::new(wedging_config(), Design::Base);
    load_input(&mut gpu, 64, 0x1_0000);
    let err = gpu
        .run(&barrier_divergent_kernel(0x1_0000), 1_000_000)
        .unwrap_err();

    let RunError::Hang {
        cycles,
        window,
        ref report,
    } = err
    else {
        panic!("expected a watchdog hang, got: {err}");
    };
    assert_eq!(window, 2_000);
    assert!(
        cycles < 50_000,
        "watchdog should fire shortly after the wedge, not at {cycles}"
    );
    assert_eq!(report.live_warps(), 2, "both warps still resident");
    assert_eq!(report.warps_at_barrier(), 1, "warp 0 stuck at the barrier");
    assert!(
        report.sms.iter().flat_map(|s| &s.warps).any(|w| matches!(
            w.state,
            WarpState::DataDependence {
                outstanding_loads: 1..
            }
        )),
        "warp 1 should be blocked on its lost load: {report}"
    );
    let (age, sm, line) = report
        .oldest_request
        .expect("the dropped read stays on the ledger");
    assert!(age > 0, "the lost read must have aged");
    assert_eq!(sm, 0, "single-block grid runs on SM 0");
    assert!(line >= 0x1_0000, "line {line:#x} should be in the input");

    let text = err.to_string();
    assert!(
        text.contains("at barrier"),
        "forensics name the barrier: {text}"
    );
    assert!(text.contains("oldest in-flight read"), "{text}");
}

/// A hang's replay traces its last watchdog window on a fresh machine as
/// a run traced from cycle 0 traces it. At `W = 2 000` the derived sample
/// interval is 1, and the replay's file holds exactly the full trace's
/// samples over `(H − W, H]` and its events from cycle `H − W` on (a
/// sample is stamped with the cycle after the one it covers, an event
/// with the cycle it happened in). The drops are retransmitted here, so
/// the wedged window is full of drop events, not silent.
#[test]
fn hang_replay_traces_the_last_window_as_a_run_traced_from_cycle_0() {
    use caba_sim::TraceConfig;

    let mut cfg = wedging_config();
    cfg.fault.mode = FaultMode::Recover;
    let kernel = barrier_divergent_kernel(0x1_0000);
    let load = |gpu: &mut Gpu| load_input(gpu, 64, 0x1_0000);
    let mut gpu = Gpu::new(cfg, Design::Base);
    load(&mut gpu);
    let err = gpu.run(&kernel, 1_000_000).unwrap_err();
    let RunError::Hang { ref report, .. } = err else {
        panic!("expected a hang, got: {err}");
    };
    assert_eq!(report.trace_path, None, "the run loop replays nothing");
    let hang = report.cycle;
    let path = gpu
        .replay_hang(&kernel, load)
        .expect("the replay writes a trace");

    let mut traced = Gpu::new(cfg.with_trace(TraceConfig::full(1)), Design::Base);
    load(&mut traced);
    let err = traced.run(&kernel, 1_000_000).unwrap_err();
    assert_eq!(err.report().map(|r| r.cycle), Some(hang), "{err}");
    let mut want = traced.take_trace().expect("tracing was on");
    let from = hang - cfg.watchdog_window;
    want.samples.retain(|s| s.cycle > from);
    want.events.retain(|e| e.cycle >= from);
    assert_eq!(want.samples.len() as u64, cfg.watchdog_window);
    assert!(!want.events.is_empty(), "the dropped packets are events");
    let got = std::fs::read_to_string(&path).expect("the trace file exists");
    std::fs::remove_file(&path).ok();
    assert!(got == want.to_chrome_json(), "the replay's trace differs");
}

/// `Gpu::start_trace` at a cycle boundary records from there on exactly
/// what a run traced from cycle 0 records, SM and partition events
/// included (fill corruptions and DRAM delays are buffered there), and the
/// run itself does not change.
#[test]
fn a_trace_started_mid_run_is_the_tail_of_a_trace_from_cycle_0() {
    use caba_sim::{TraceConfig, TraceEventKind};

    let n = 2048;
    let mut cfg = GpuConfig::small();
    cfg.fault = FaultConfig {
        corrupt_line_rate: 0.25,
        dram_delay_rate: 0.2,
        ..FaultConfig::recover(0xFA11, 0.05)
    };
    let kernel = scale_kernel(n, 0x1_0000, 0x8_0000);
    let gpu = |cfg: GpuConfig| {
        let design = Design::HwFull { ideal: false };
        let mut gpu = Gpu::new(cfg, design);
        load_input(&mut gpu, n, 0x1_0000);
        gpu
    };
    let mut traced = gpu(cfg.with_trace(TraceConfig::full(1)));
    let full = traced.run(&kernel, 4_000_000).expect("completes");
    let mut want = traced.take_trace().expect("tracing was on");

    let cut = 40;
    let mut late = gpu(cfg);
    assert!(matches!(
        late.run(&kernel, cut),
        Err(RunError::Timeout { .. })
    ));
    late.start_trace(TraceConfig::full(1));
    assert_eq!(late.resume(&kernel, 4_000_000), Ok(full));
    let got = late.take_trace().expect("tracing was started");
    want.samples.retain(|s| s.cycle > cut);
    want.events.retain(|e| e.cycle >= cut);
    let has = |f: fn(&TraceEventKind) -> bool| got.events.iter().any(|e| f(&e.kind));
    assert!(has(|k| matches!(k, TraceEventKind::FillCorrupt { .. })));
    assert!(has(|k| matches!(k, TraceEventKind::DramDelay { .. })));
    assert!(got == want, "the late trace is not the full one's tail");
}

/// With injection disabled, turning audits on must not change simulated
/// behavior at all: same timing, same traffic, zero violations.
#[test]
fn audits_are_invisible_on_a_healthy_run() {
    let n = 1024;
    let run = |audit_interval: u64| {
        let mut cfg = GpuConfig::small();
        cfg.audit_interval = audit_interval;
        let mut gpu = Gpu::new(cfg, Design::HwFull { ideal: false });
        load_input(&mut gpu, n, 0x1_0000);
        let stats = gpu
            .run(&scale_kernel(n, 0x1_0000, 0x8_0000), 1_000_000)
            .unwrap_or_else(|e| panic!("audit_interval={audit_interval}: {e}"));
        check_output(&gpu, n, 0x8_0000);
        stats
    };
    // Small runs finish in a few hundred cycles, so audit densely.
    let plain = run(0);
    let audited = run(32);
    assert_eq!(plain.audits_run, 0);
    assert!(audited.audits_run > 0, "audits must actually have run");
    for (name, a, b) in [
        ("cycles", plain.cycles, audited.cycles),
        (
            "app_instructions",
            plain.app_instructions,
            audited.app_instructions,
        ),
        (
            "assist_instructions",
            plain.assist_instructions,
            audited.assist_instructions,
        ),
        (
            "threads_retired",
            plain.threads_retired,
            audited.threads_retired,
        ),
        ("dram_bursts", plain.dram_bursts, audited.dram_bursts),
        ("icnt_flits", plain.icnt_flits, audited.icnt_flits),
        ("md_lookups", plain.md_lookups, audited.md_lookups),
    ] {
        assert_eq!(a, b, "audits changed `{name}`");
    }
}

/// In recovery mode every fault class fires, every one is counted, and the
/// run still completes with bit-correct output under full auditing.
#[test]
fn recover_mode_completes_correctly_and_counts_every_fault_class() {
    let n = 2048;
    let mut cfg = GpuConfig::small();
    cfg.audit_interval = 128;
    cfg.fault = FaultConfig {
        corrupt_line_rate: 0.25,
        dram_delay_rate: 0.2,
        ..FaultConfig::recover(0xFA11, 0.05)
    };
    let mut gpu = Gpu::new(cfg, Design::HwFull { ideal: false });
    load_input(&mut gpu, n, 0x1_0000);
    let stats = gpu
        .run(&scale_kernel(n, 0x1_0000, 0x8_0000), 4_000_000)
        .expect("recovery mode must complete");
    check_output(&gpu, n, 0x8_0000);

    assert!(stats.audits_run > 0, "audits ran through the whole run");
    assert!(stats.flits_dropped > 0, "crossbar drops fired");
    assert_eq!(
        stats.flit_retransmissions, stats.flits_dropped,
        "every dropped packet was retransmitted"
    );
    assert!(stats.dram_delay_faults > 0, "DRAM delays fired");
    assert!(stats.lines_corrupted > 0, "fill corruptions fired");
    assert_eq!(
        stats.corruptions_detected, stats.lines_corrupted,
        "every corruption was detected by round-trip verification"
    );
    assert_eq!(
        stats.corruption_refetches, stats.lines_corrupted,
        "every detected corruption triggered a refetch"
    );
}

/// Silently dropped packets must be caught by the conservation audit, with
/// each violation attributed to the crossbar direction that lost the
/// packet.
#[test]
fn silent_packet_drops_are_caught_naming_the_crossbar() {
    let mut cfg = GpuConfig::small();
    cfg.audit_interval = 64;
    cfg.fault = FaultConfig {
        enabled: true,
        seed: 0xD209,
        mode: FaultMode::Silent,
        drop_flit_rate: 0.1,
        ..FaultConfig::disabled()
    };
    let mut gpu = Gpu::new(cfg, Design::Base);
    load_input(&mut gpu, 1024, 0x1_0000);
    let err = gpu
        .run(&scale_kernel(1024, 0x1_0000, 0x8_0000), 1_000_000)
        .unwrap_err();
    let RunError::AuditFailed { cycle, violations } = err else {
        panic!("expected an audit failure, got: {err}");
    };
    assert!(cycle % 64 == 0, "audits run on the configured interval");
    assert!(!violations.is_empty());
    for v in &violations {
        assert!(
            matches!(
                v.component,
                Component::CrossbarRequest | Component::CrossbarResponse
            ),
            "drop must be pinned on a crossbar, not {}: {v}",
            v.component
        );
        assert!(v.detail.contains("line"), "detail names the line: {v}");
    }
}

/// Silently corrupted compressed lines must be caught by the round-trip
/// audit and attributed to the compression map.
#[test]
fn silent_corruption_is_caught_naming_the_compression_map() {
    let mut cfg = GpuConfig::small();
    cfg.audit_interval = 32;
    cfg.fault = FaultConfig {
        enabled: true,
        seed: 0xC0FF,
        mode: FaultMode::Silent,
        corrupt_line_rate: 1.0,
        ..FaultConfig::disabled()
    };
    let mut gpu = Gpu::new(cfg, Design::HwFull { ideal: false });
    load_input(&mut gpu, 1024, 0x1_0000);
    let err = gpu
        .run(&scale_kernel(1024, 0x1_0000, 0x8_0000), 1_000_000)
        .unwrap_err();
    let RunError::AuditFailed { violations, .. } = err else {
        panic!("expected an audit failure, got: {err}");
    };
    assert!(!violations.is_empty());
    assert!(
        violations
            .iter()
            .all(|v| v.component == Component::CompressionMap),
        "corruption must be pinned on the compression map: {violations:?}"
    );
}

/// The same seed produces bit-identical runs — timing, traffic, and every
/// fault counter — across repeated executions.
#[test]
fn fault_schedules_are_deterministic_per_seed() {
    fn fingerprint(s: &RunStats) -> [u64; 10] {
        [
            s.cycles,
            s.app_instructions,
            s.assist_instructions,
            s.threads_retired,
            s.dram_bursts,
            s.icnt_flits,
            s.flits_dropped,
            s.flit_retransmissions,
            s.dram_delay_faults,
            s.lines_corrupted,
        ]
    }
    prop::check(0xDE7E, 4, |rng| {
        let seed = rng.next_u64();
        let run = || {
            let mut cfg = GpuConfig::small();
            cfg.audit_interval = 128;
            cfg.fault = FaultConfig::recover(seed, 0.05);
            let mut gpu = Gpu::new(cfg, Design::HwFull { ideal: false });
            load_input(&mut gpu, 512, 0x1_0000);
            let stats = gpu
                .run(&scale_kernel(512, 0x1_0000, 0x8_0000), 2_000_000)
                .expect("recovery mode completes");
            check_output(&gpu, 512, 0x8_0000);
            stats
        };
        assert_eq!(
            fingerprint(&run()),
            fingerprint(&run()),
            "seed {seed:#x} must replay identically"
        );
    });
}

/// Invalid configurations are rejected as typed errors by `Gpu::try_new`
/// instead of surfacing as mid-run panics.
#[test]
fn try_new_rejects_invalid_configs() {
    let mut cfg = GpuConfig::small();
    cfg.fault = FaultConfig::recover(1, 1.5);
    let err = Gpu::try_new(cfg, Design::Base).map(|_| ()).unwrap_err();
    assert!(err.to_string().contains("outside [0, 1]"), "{err}");

    let mut cfg = GpuConfig::small();
    cfg.fault = FaultConfig::recover(1, 0.01);
    cfg.fault.dram_delay_cycles = cfg.watchdog_window;
    assert!(Gpu::try_new(cfg, Design::Base).is_err());

    assert!(Gpu::try_new(GpuConfig::small(), Design::Base).is_ok());
}

/// Full observability (event tracing + per-event metrics) is record-only:
/// an observed run under fault injection is bit-identical to a blind one,
/// the new taxonomy-conservation audit passes throughout, and the trace
/// carries the injected faults as instant events.
#[test]
fn observability_is_record_only_and_audits_conserve_slots() {
    use caba_sim::{MetricsLevel, TraceConfig, TraceEventKind};

    let n = 2048;
    let mut cfg = GpuConfig::small();
    cfg.audit_interval = 64;
    cfg.fault = FaultConfig {
        corrupt_line_rate: 0.25,
        dram_delay_rate: 0.2,
        ..FaultConfig::recover(0xFA11, 0.05)
    };
    let run = |cfg: GpuConfig| {
        let mut gpu = Gpu::new(cfg, Design::HwFull { ideal: false });
        load_input(&mut gpu, n, 0x1_0000);
        let stats = gpu
            .run(&scale_kernel(n, 0x1_0000, 0x8_0000), 4_000_000)
            .expect("recovery mode completes under full observability");
        check_output(&gpu, n, 0x8_0000);
        (stats, gpu)
    };

    let (blind, _) = run(cfg);
    let observed_cfg = cfg
        .with_trace(TraceConfig::full(16))
        .with_metrics(MetricsLevel::Full);
    let (stats, mut gpu) = run(observed_cfg);
    assert_eq!(blind, stats, "observability changed architectural state");

    // Conservation held at every audit (the run would have failed
    // otherwise) and at the end of the run.
    assert!(stats.audits_run > 0);
    let slots = (cfg.num_sms * cfg.schedulers_per_sm) as u64;
    assert_eq!(stats.breakdown.total(), stats.cycles * slots);

    // Every injected fault class shows up as instant events.
    let trace = gpu.take_trace().expect("tracing was on");
    assert!(!trace.samples.is_empty());
    let has = |f: fn(&TraceEventKind) -> bool| trace.events.iter().any(|e| f(&e.kind));
    assert!(
        has(|k| matches!(
            k,
            TraceEventKind::XbarDrop {
                retransmitted: true
            }
        )),
        "crossbar drops must be traced"
    );
    assert!(
        has(|k| matches!(k, TraceEventKind::FillCorrupt { .. })),
        "detected corruptions must be traced"
    );
    assert!(
        has(|k| matches!(k, TraceEventKind::DramDelay { .. })),
        "DRAM delay faults must be traced"
    );
    assert!(
        caba_stats::json::validate(&trace.to_chrome_json()).is_ok(),
        "fault-event trace must serialize to valid JSON"
    );

    // The metric snapshot exists, serializes to valid JSON too, and agrees
    // with the stats it derives from.
    let snap = gpu.metrics_snapshot(&stats).expect("metrics were on");
    caba_stats::json::validate(&snap.to_json()).expect("metric snapshot is valid JSON");
    assert_eq!(snap.get("run.cycles"), Some(stats.cycles));
    assert_eq!(
        snap.get("issued-app"),
        Some(stats.breakdown.count(caba_stats::StallKind::IssuedApp))
    );
}
