//! Checkpoint/restore integration tests: a snapshot taken mid-run, restored
//! into a fresh GPU, and resumed must be bit-identical to an unbroken run —
//! across designs and under fault injection — and a corrupted container
//! must be rejected with a typed error, never loaded.

mod kernels;

use caba_compress::Algorithm;
use caba_isa::{Kernel, LaunchDims, ProgramBuilder, Reg};
use caba_sim::fault::corrupt_snapshot;
use caba_sim::{Design, FaultConfig, Gpu, GpuConfig, RestoreError, RunError, RunStats};
use caba_stats::checksum64;
use kernels::{check_output, load_input, scale_kernel};

const MAX: u64 = 2_000_000;

const N: u32 = 1024;
const IN: u64 = 0x1_0000;
const OUT: u64 = 0x4_0000;

fn unbroken(cfg: GpuConfig, design: Design, kernel: &Kernel) -> (RunStats, Gpu) {
    let mut gpu = Gpu::new(cfg, design);
    load_input(&mut gpu, N, IN);
    let stats = gpu.run(kernel, MAX).expect("unbroken run completes");
    (stats, gpu)
}

/// Runs to a timeout at `split` cycles, snapshots, restores into a fresh
/// GPU built with `resume_cfg`, and resumes to completion.
fn split_and_resume(
    cfg: GpuConfig,
    resume_cfg: GpuConfig,
    design: Design,
    kernel: &Kernel,
    split: u64,
) -> (RunStats, Gpu) {
    let resumed_design = design.fork();
    let mut g1 = Gpu::new(cfg, design);
    load_input(&mut g1, N, IN);
    let err = g1.run(kernel, split).unwrap_err();
    assert!(
        matches!(err, RunError::Timeout { cycles, .. } if cycles == split),
        "split run must time out at the snapshot point, got: {err}"
    );
    // No load_input on the restored GPU: functional memory (inputs and all
    // intermediate state) comes from the snapshot alone.
    let bytes = g1.snapshot(kernel);
    let mut g2 = Gpu::new(resume_cfg, resumed_design);
    g2.restore(kernel, &bytes).expect("snapshot restores");
    assert_eq!(g2.cycle(), split);
    let stats = g2.resume(kernel, MAX).expect("resumed run completes");
    (stats, g2)
}

fn designs() -> Vec<Design> {
    vec![
        Design::Base,
        Design::HwMemOnly {
            alg: Algorithm::Bdi,
        },
        Design::HwFull {
            alg: Algorithm::Bdi,
            ideal: false,
        },
        Design::HwFull {
            alg: Algorithm::Bdi,
            ideal: true,
        },
    ]
}

#[test]
fn restore_resume_matches_unbroken_run_across_designs() {
    let cfg = GpuConfig::small();
    let kernel = scale_kernel(N, IN, OUT);
    for design in designs() {
        let label = design.label();
        let (full, _) = unbroken(cfg, design.fork(), &kernel);
        let split = full.cycles / 2;
        let (resumed, g2) = split_and_resume(cfg, cfg, design, &kernel, split);
        assert_eq!(
            resumed, full,
            "{label}: resumed stats must be bit-identical"
        );
        check_output(&g2, N, OUT);
    }
}

#[test]
fn in_place_resume_after_timeout_matches_unbroken_run() {
    let cfg = GpuConfig::small();
    let kernel = scale_kernel(N, IN, OUT);
    let (full, _) = unbroken(cfg, Design::Base, &kernel);
    let mut gpu = Gpu::new(cfg, Design::Base);
    load_input(&mut gpu, N, IN);
    assert!(matches!(
        gpu.run(&kernel, full.cycles / 3),
        Err(RunError::Timeout { .. })
    ));
    let resumed = gpu.resume(&kernel, MAX).expect("resume completes");
    assert_eq!(resumed, full);
    check_output(&gpu, N, OUT);
}

#[test]
fn restore_resume_is_exact_under_fault_injection() {
    let mut cfg = GpuConfig::small();
    cfg.fault = FaultConfig::recover(0xFA57_CAB4, 0.02);
    let kernel = scale_kernel(N, IN, OUT);
    let (full, _) = unbroken(cfg, Design::Base, &kernel);
    assert!(
        full.flit_retransmissions > 0,
        "fault injection must actually fire for this test to mean anything"
    );
    let (resumed, _) = split_and_resume(cfg, cfg, Design::Base, &kernel, full.cycles / 2);
    assert_eq!(
        resumed, full,
        "restored fault-injector RNG streams must continue exactly"
    );
}

#[test]
fn corrupted_snapshot_is_rejected_never_loaded() {
    let cfg = GpuConfig::small();
    let kernel = scale_kernel(N, IN, OUT);
    let mut g1 = Gpu::new(cfg, Design::Base);
    load_input(&mut g1, N, IN);
    let _ = g1.run(&kernel, 500);
    let pristine = g1.snapshot(&kernel);
    for seed in 0..64 {
        let mut bad = pristine.clone();
        let flipped = corrupt_snapshot(&mut bad, seed);
        assert!(flipped.is_some());
        let mut g2 = Gpu::new(cfg, Design::Base);
        assert_eq!(
            g2.restore(&kernel, &bad),
            Err(RestoreError::ChecksumMismatch),
            "seed {seed}: a bit-flipped snapshot must be rejected by checksum"
        );
        // The rejected restore must not have touched the machine.
        assert_eq!(g2.cycle(), 0);
    }
    // The pristine bytes still restore — the rejections above were real.
    let mut g2 = Gpu::new(cfg, Design::Base);
    g2.restore(&kernel, &pristine)
        .expect("pristine snapshot restores");
}

#[test]
fn truncated_snapshot_is_rejected() {
    let cfg = GpuConfig::small();
    let kernel = scale_kernel(N, IN, OUT);
    let mut g1 = Gpu::new(cfg, Design::Base);
    load_input(&mut g1, N, IN);
    let _ = g1.run(&kernel, 500);
    let bytes = g1.snapshot(&kernel);
    for len in [0, 7, 8, bytes.len() / 2, bytes.len() - 1] {
        let mut g2 = Gpu::new(cfg, Design::Base);
        assert!(
            g2.restore(&kernel, &bytes[..len]).is_err(),
            "truncation to {len} bytes must be rejected"
        );
    }
}

#[test]
fn header_mismatches_are_typed() {
    let cfg = GpuConfig::small();
    let kernel = scale_kernel(N, IN, OUT);
    let mut g1 = Gpu::new(cfg, Design::Base);
    load_input(&mut g1, N, IN);
    let _ = g1.run(&kernel, 500);
    let bytes = g1.snapshot(&kernel);

    // Different machine shape → ConfigHashMismatch.
    let mut other_cfg = cfg;
    other_cfg.mshrs += 1;
    let mut g = Gpu::new(other_cfg, Design::Base);
    assert_eq!(
        g.restore(&kernel, &bytes),
        Err(RestoreError::ConfigHashMismatch)
    );

    // Tolerated knobs (observability, the inert `intra_jobs`) do NOT
    // reject.
    let mut tolerant_cfg = cfg;
    tolerant_cfg.intra_jobs = 4;
    tolerant_cfg.observability = caba_sim::ObservabilityConfig {
        trace: Some(caba_sim::TraceConfig::full(1)),
        metrics: caba_sim::MetricsLevel::Full,
    };
    let mut g = Gpu::new(tolerant_cfg, Design::Base);
    g.restore(&kernel, &bytes)
        .expect("tolerated knobs must not reject a restore");

    // Different design point → DesignMismatch.
    let mut g = Gpu::new(
        cfg,
        Design::HwMemOnly {
            alg: Algorithm::Bdi,
        },
    );
    assert!(matches!(
        g.restore(&kernel, &bytes),
        Err(RestoreError::DesignMismatch { .. })
    ));

    // Different program → KernelMismatch.
    let mut b = ProgramBuilder::new();
    b.global_thread_id(Reg(0));
    b.exit();
    let other_kernel = Kernel::new("other", b.build(), LaunchDims::new(1, 64));
    let mut g = Gpu::new(cfg, Design::Base);
    assert_eq!(
        g.restore(&other_kernel, &bytes),
        Err(RestoreError::KernelMismatch)
    );

    // An unknown format version and the previous one, 2 (re-sealed so the
    // checksum passes, proving the version gate itself) → VersionMismatch.
    for found in [99u32, 2] {
        let mut vbytes = bytes.clone();
        let body_len = vbytes.len() - 8;
        vbytes[8..12].copy_from_slice(&found.to_le_bytes());
        let sum = checksum64(&vbytes[..body_len]);
        vbytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        let mut g = Gpu::new(cfg, Design::Base);
        assert_eq!(
            g.restore(&kernel, &vbytes),
            Err(RestoreError::VersionMismatch { found })
        );
    }
}

/// Serialize → restore → re-serialize must be byte-identical: restoring a
/// snapshot and immediately re-snapshotting the machine reproduces the
/// container bit for bit, for every design. This transitively pins the
/// round-trip property of every `SnapshotState` impl the machine embeds
/// (SMs, warps, hazard memos, caches, partitions, fault injector, stats).
#[test]
fn restore_resnapshot_is_byte_identical() {
    let cfg = GpuConfig::small();
    let kernel = scale_kernel(N, IN, OUT);
    for design in designs() {
        let label = design.label();
        let restored_design = design.fork();
        let mut g1 = Gpu::new(cfg, design);
        load_input(&mut g1, N, IN);
        g1.run(&kernel, 100).unwrap_err();
        let first = g1.snapshot(&kernel);
        let mut g2 = Gpu::new(cfg, restored_design);
        g2.restore(&kernel, &first).expect("snapshot restores");
        let second = g2.snapshot(&kernel);
        assert_eq!(first, second, "{label}: re-snapshot drifted");
    }
}

/// `RunStats` round-trips through its `SnapshotState` encoding
/// byte-identically, both for a real mid-run sample and under randomized
/// counter perturbations.
#[test]
fn run_stats_round_trip_is_byte_identical() {
    use caba_stats::{prop, SnapshotReader, SnapshotState, SnapshotWriter};
    let cfg = GpuConfig::small();
    let kernel = scale_kernel(N, IN, OUT);
    let (full, _) = unbroken(cfg, Design::Base, &kernel);
    prop::check(0x5EED_0006, prop::DEFAULT_CASES, |rng| {
        let mut stats = full.clone();
        // Perturb the plain counters the RNG can reach without knowing the
        // struct layout; the breakdown stays the real measured one.
        stats.cycles = rng.next_u64();
        stats.app_instructions = rng.next_u64();
        stats.threads_retired = rng.next_u64();
        stats.dram_bursts = rng.next_u64();
        stats.l2_hits = rng.next_u64();
        stats.l2_misses = rng.next_u64();
        stats.icnt_flits = rng.next_u64();
        stats.flit_retransmissions = rng.next_u64();
        let mut w = SnapshotWriter::new();
        stats.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let back = RunStats::load(&mut r).expect("stats load");
        r.finish().expect("no trailing bytes");
        assert_eq!(back, stats);
        let mut w2 = SnapshotWriter::new();
        back.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    });
}
