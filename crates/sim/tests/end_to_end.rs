//! End-to-end simulator tests: functional correctness of full kernel runs
//! and first-order timing sanity across design points.

mod kernels;

use caba_sim::{Design, Gpu, GpuConfig, RunError};
use kernels::{
    barrier_kernel, check_output, divergent_kernel, load_input, loop_kernel, scale_kernel,
};

#[test]
fn scale_kernel_correct_on_base() {
    let n = 512;
    let mut gpu = Gpu::new(GpuConfig::small(), Design::Base);
    load_input(&mut gpu, n, 0x1_0000);
    let stats = gpu
        .run(&scale_kernel(n, 0x1_0000, 0x2_0000), 500_000)
        .unwrap();
    check_output(&gpu, n, 0x2_0000);
    assert!(stats.cycles > 0);
    assert!(stats.app_instructions >= (n as u64 / 32) * 9);
    assert_eq!(stats.assist_instructions, 0);
    assert_eq!(stats.threads_retired, n as u64);
    assert!(stats.dram_bursts > 0);
    assert!(stats.icnt_flits > 0);
}

#[test]
fn scale_kernel_correct_on_hw_designs() {
    for design in [
        Design::HwMemOnly,
        Design::HwFull { ideal: false },
        Design::HwFull { ideal: true },
    ] {
        let n = 512;
        let label = design.label();
        let mut gpu = Gpu::new(GpuConfig::small(), design);
        load_input(&mut gpu, n, 0x1_0000);
        gpu.run(&scale_kernel(n, 0x1_0000, 0x2_0000), 500_000)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        check_output(&gpu, n, 0x2_0000);
    }
}

#[test]
fn compressed_design_moves_fewer_bursts() {
    // The input data (small sequential integers) is highly BDI-compressible,
    // so HW-BDI must transfer fewer DRAM bursts than Base for the same
    // kernel.
    let n = 2048;
    let mut base_gpu = Gpu::new(GpuConfig::small(), Design::Base);
    load_input(&mut base_gpu, n, 0x1_0000);
    let base = base_gpu
        .run(&scale_kernel(n, 0x1_0000, 0x8_0000), 1_000_000)
        .unwrap();

    let mut hw_gpu = Gpu::new(GpuConfig::small(), Design::HwFull { ideal: false });
    load_input(&mut hw_gpu, n, 0x1_0000);
    let hw = hw_gpu
        .run(&scale_kernel(n, 0x1_0000, 0x8_0000), 1_000_000)
        .unwrap();

    assert!(
        hw.dram_bursts < base.dram_bursts,
        "hw {} vs base {}",
        hw.dram_bursts,
        base.dram_bursts
    );
    assert!(hw.icnt_flits < base.icnt_flits);
    assert!(hw.md_lookups > 0, "MD cache consulted");
}

/// Loop kernel: sums array elements with a do-while loop.
#[test]
fn loop_kernel_runs_to_completion() {
    let iters = 16u64;
    let kernel = loop_kernel(iters, 0x1_0000, 0x9_0000);

    let mut gpu = Gpu::new(GpuConfig::small(), Design::Base);
    for i in 0..4096u64 {
        gpu.mem_mut().write_u32(0x1_0000 + i * 4, 1);
    }
    gpu.run(&kernel, 2_000_000).unwrap();
    // Each thread summed `iters` ones.
    for t in 0..(4 * 64) {
        assert_eq!(
            gpu.mem().read_u32(0x9_0000 + t * 4),
            iters as u32,
            "thread {t}"
        );
    }
}

/// Divergent kernel: threads with even gid write 1, odd write 2.
#[test]
fn divergent_kernel_is_correct() {
    let kernel = divergent_kernel(0xA_0000);
    let mut gpu = Gpu::new(GpuConfig::small(), Design::Base);
    gpu.run(&kernel, 200_000).unwrap();
    for t in 0..128u64 {
        let expect = if t % 2 == 0 { 1 } else { 2 };
        assert_eq!(gpu.mem().read_u32(0xA_0000 + t * 4), expect, "thread {t}");
    }
}

/// Barrier kernel: phase 1 writes shared memory, phase 2 reads a neighbour's
/// value — only correct if the barrier orders the phases.
#[test]
fn barrier_orders_block_phases() {
    let kernel = barrier_kernel(0xB_0000);
    let mut gpu = Gpu::new(GpuConfig::small(), Design::Base);
    let stats = gpu.run(&kernel, 500_000).unwrap();
    for blk in 0..3u64 {
        for t in 0..64u64 {
            let got = gpu.mem().read_u32(0xB_0000 + (blk * 64 + t) * 4);
            assert_eq!(got as u64, (t + 1) % 64, "block {blk} thread {t}");
        }
    }
    assert!(stats.shared_accesses > 0);
}

#[test]
fn timeout_reported_for_insufficient_budget() {
    let n = 512;
    let mut gpu = Gpu::new(GpuConfig::small(), Design::Base);
    load_input(&mut gpu, n, 0x1_0000);
    let err = gpu
        .run(&scale_kernel(n, 0x1_0000, 0x2_0000), 10)
        .unwrap_err();
    assert!(
        matches!(err, RunError::Timeout { cycles: 10, .. }),
        "expected a 10-cycle timeout, got: {err}"
    );
    // Even a plain timeout carries the forensic snapshot.
    let report = err.report().expect("timeout carries a hang report");
    assert_eq!(report.cycle, 10);
    assert!(
        report.live_warps() > 0,
        "work was resident when time ran out"
    );
}

#[test]
fn halved_bandwidth_hurts_memory_bound_kernel() {
    let n = 4096;
    // Random-ish (incompressible) data so compression can't mask the sweep.
    let run_with = |scale: f64| {
        let cfg = GpuConfig::small().with_bandwidth_scale(scale);
        let mut gpu = Gpu::new(cfg, Design::Base);
        let mut x = 7u64;
        for i in 0..n {
            x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(0xB);
            gpu.mem_mut().write_u32(0x1_0000 + i as u64 * 4, x as u32);
        }
        gpu.run(&scale_kernel(n, 0x1_0000, 0x40_0000), 4_000_000)
            .unwrap()
    };
    let half = run_with(0.5);
    let full = run_with(1.0);
    let twice = run_with(2.0);
    assert!(
        half.cycles > full.cycles,
        "half {} vs full {}",
        half.cycles,
        full.cycles
    );
    assert!(
        twice.cycles <= full.cycles,
        "twice {} vs full {}",
        twice.cycles,
        full.cycles
    );
    // Utilization must rank the same way.
    assert!(half.bandwidth_utilization() >= full.bandwidth_utilization() * 0.8);
}

#[test]
fn stall_breakdown_covers_all_cycles() {
    let n = 1024;
    let mut gpu = Gpu::new(GpuConfig::small(), Design::Base);
    load_input(&mut gpu, n, 0x1_0000);
    let stats = gpu
        .run(&scale_kernel(n, 0x1_0000, 0x2_0000), 1_000_000)
        .unwrap();
    // Breakdown records one slot per scheduler per SM per cycle.
    let cfg = GpuConfig::small();
    let slots = (cfg.num_sms * cfg.schedulers_per_sm) as u64;
    assert_eq!(stats.breakdown.total(), stats.cycles * slots);
    assert!(stats.breakdown.fraction(caba_stats::StallKind::IssuedApp) > 0.0);
    // Issued slots are exactly the app-issued slots on a non-CABA design.
    assert_eq!(
        stats.breakdown.issued(),
        stats.breakdown.count(caba_stats::StallKind::IssuedApp)
    );
}

#[test]
fn tracing_records_samples() {
    let n = 1024;
    let cfg = GpuConfig::small().with_trace(caba_sim::TraceConfig::full(32));
    let mut gpu = Gpu::new(cfg, Design::Base);
    load_input(&mut gpu, n, 0x1_0000);
    let stats = gpu
        .run(&scale_kernel(n, 0x1_0000, 0x2_0000), 1_000_000)
        .unwrap();
    let trace = gpu.take_trace().expect("tracing enabled");
    assert!(!trace.samples.is_empty());
    assert!(trace.samples.len() as u64 <= stats.cycles / 32 + 1);
    // Samples are in cycle order and cover per-SM counters.
    for w in trace.samples.windows(2) {
        assert!(w[0].cycle < w[1].cycle);
    }
    for s in &trace.samples {
        assert_eq!(s.app_issued.len(), cfg.num_sms);
        assert_eq!(s.stalls.len(), cfg.num_sms);
    }
    // Sampled stall deltas sum back to the run-total breakdown.
    let sampled: u64 = trace
        .samples
        .iter()
        .flat_map(|s| &s.stalls)
        .map(|b| b.total())
        .sum();
    assert!(sampled <= stats.breakdown.total());
    // The per-interval issue counts sum back to the run totals.
    let total: u64 = trace
        .samples
        .iter()
        .map(|s| s.app_issued.iter().sum::<u64>())
        .sum();
    assert!(total <= stats.app_instructions);
    let json = trace.to_chrome_json();
    assert!(json.contains("DRAM BW"));
    // Tracing is one-shot.
    assert!(gpu.take_trace().is_none());
}
