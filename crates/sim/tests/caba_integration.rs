//! End-to-end CABA tests: assist warps really run, really transform bytes,
//! and the design points order as the paper reports.

use caba_isa::{AluOp, Kernel, LaunchDims, ProgramBuilder, Reg, Space, Special, Src, Width};
use caba_sim::{CabaMode, Design, Gpu, GpuConfig, RunError};

/// Bandwidth-bound streaming reduction: each thread sums four strided
/// elements and stores one result. Load-dominated, coalesced, and with a
/// working set far beyond the (test-sized) L2 — the memory-bound regime of
/// the paper's evaluated applications.
fn copy_kernel(n: u32, in_base: u64, out_base: u64) -> Kernel {
    let mut b = ProgramBuilder::new();
    let (gid, addr, v, acc, idx) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));
    b.global_thread_id(gid);
    b.movi(acc, 0);
    for round in 0..4u64 {
        b.alu(AluOp::Add, idx, Src::Reg(gid), Src::Imm(round * 8192));
        b.alu(AluOp::Rem, idx, Src::Reg(idx), Src::Imm(n as u64));
        b.alu(AluOp::Shl, addr, Src::Reg(idx), Src::Imm(2));
        b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(0)));
        b.ld(Space::Global, Width::B4, v, Src::Reg(addr), 0);
        b.alu(AluOp::Add, acc, Src::Reg(acc), Src::Reg(v));
    }
    b.alu(AluOp::Shl, addr, Src::Reg(gid), Src::Imm(2));
    b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(1)));
    b.st(Space::Global, Width::B4, Src::Reg(acc), Src::Reg(addr), 0);
    b.exit();
    Kernel::new("copy", b.build(), LaunchDims::new(n.div_ceil(256), 256))
        .with_params(vec![in_base, out_base])
}

/// CABA-BDI checking every assist-warp result against the reference
/// compressor, in release builds too.
fn paranoid_bdi(cfg: GpuConfig) -> Gpu {
    let mut gpu = Gpu::new(cfg, Design::Caba(CabaMode::Bdi));
    gpu.set_paranoid(true);
    gpu
}

/// CPU reference for [`copy_kernel`].
fn expected_out(input: &[u32], gid: u32) -> u32 {
    let n = input.len() as u32;
    (0..4u32)
        .map(|r| input[((gid + r * 8192) % n) as usize])
        .fold(0u32, |a, v| a.wrapping_add(v))
}

fn load_compressible(gpu: &mut Gpu, n: u32, base: u64) {
    // Low-dynamic-range values: ideal for BDI.
    for i in 0..n {
        gpu.mem_mut()
            .write_u32(base + i as u64 * 4, 0x0BEE_0000 + (i % 200));
    }
}

fn check_copied(gpu: &Gpu, n: u32, base: u64) {
    let input: Vec<u32> = (0..n).map(|i| 0x0BEE_0000 + (i % 200)).collect();
    for i in 0..n {
        assert_eq!(
            gpu.mem().read_u32(base + i as u64 * 4),
            expected_out(&input, i),
            "element {i}"
        );
    }
}

/// Assist warps genuinely decompress data: with paranoid checks enabled,
/// every decompression subroutine's output is compared against the reference
/// decompressor, and the kernel's functional result must match Base.
#[test]
fn caba_bdi_runs_assist_warps_and_stays_correct() {
    let n = 16384;
    let mut gpu = paranoid_bdi(GpuConfig::small());
    load_compressible(&mut gpu, n, 0x1_0000);
    let stats = gpu
        .run(&copy_kernel(n, 0x1_0000, 0x40_0000), 8_000_000)
        .unwrap();
    check_copied(&gpu, n, 0x40_0000);

    assert!(stats.assist_launches > 0, "assist warps launched");
    assert!(stats.assist_instructions > 0, "assist instructions issued");
    assert!(stats.lines_decompressed > 0, "decompressions happened");
    assert!(stats.lines_compressed > 0, "compressions happened");
    assert!(stats.assist_fraction() > 0.0);
    let Design::Caba(_) = gpu.design() else {
        panic!("design preserved")
    };
}

#[test]
fn caba_bdi_saves_bandwidth_vs_base() {
    let n = 16384;
    let mut base = Gpu::new(GpuConfig::small(), Design::Base);
    load_compressible(&mut base, n, 0x1_0000);
    let sb = base
        .run(&copy_kernel(n, 0x1_0000, 0x40_0000), 8_000_000)
        .unwrap();

    let mut caba = Gpu::new(GpuConfig::small(), Design::Caba(CabaMode::Bdi));
    load_compressible(&mut caba, n, 0x1_0000);
    let sc = caba
        .run(&copy_kernel(n, 0x1_0000, 0x40_0000), 8_000_000)
        .unwrap();
    check_copied(&caba, n, 0x40_0000);

    assert!(
        sc.dram_bursts < sb.dram_bursts,
        "CABA bursts {} vs Base {}",
        sc.dram_bursts,
        sb.dram_bursts
    );
    assert!(sc.icnt_flits < sb.icnt_flits);
}

/// The paper's design-point ordering on a bandwidth-bound, compressible
/// workload: Ideal-BDI ≥ HW-BDI ≥ CABA-BDI > Base (within tolerance, since
/// CABA is occasionally within noise of HW, §6.1).
#[test]
fn design_point_ordering_matches_paper() {
    let n = 32768;
    let run = |design: Design| {
        let mut gpu = Gpu::new(GpuConfig::small(), design);
        load_compressible(&mut gpu, n, 0x1_0000);
        let s = gpu
            .run(&copy_kernel(n, 0x1_0000, 0x80_0000), 40_000_000)
            .unwrap();
        check_copied(&gpu, n, 0x80_0000);
        s
    };
    let base = run(Design::Base);
    let caba = run(Design::Caba(CabaMode::Bdi));
    let hw = run(Design::HwFull { ideal: false });
    let ideal = run(Design::HwFull { ideal: true });

    let sp = |s: &caba_sim::RunStats| base.cycles as f64 / s.cycles as f64;
    let (sp_caba, sp_hw, sp_ideal) = (sp(&caba), sp(&hw), sp(&ideal));
    // Every compressed design must beat Base on this workload.
    assert!(sp_caba > 1.0, "CABA speedup {sp_caba}");
    assert!(sp_hw > 1.0, "HW speedup {sp_hw}");
    assert!(sp_ideal > 1.0, "Ideal speedup {sp_ideal}");
    // Ideal and HW differ only by a 1-cycle fill latency; store-timing
    // divergence can swing either a few percent (the paper notes CABA can
    // even edge out Ideal occasionally, §6.1).
    assert!(sp_ideal >= sp_hw * 0.95, "ideal {sp_ideal} vs hw {sp_hw}");
    // CABA pays real assist-warp overhead: close to, but not wildly beyond,
    // the dedicated-hardware designs.
    assert!(sp_caba >= sp_hw * 0.75, "CABA {sp_caba} vs HW {sp_hw}");
    assert!(
        sp_caba <= sp_ideal * 1.10,
        "CABA {sp_caba} should not beat ideal {sp_ideal} by much"
    );
}

#[test]
fn caba_on_incompressible_data_is_functionally_safe() {
    let n = 8192;
    let mut gpu = paranoid_bdi(GpuConfig::small());
    let mut x = 17u64;
    for i in 0..n {
        x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x33);
        gpu.mem_mut().write_u32(0x1_0000 + i as u64 * 4, x as u32);
    }
    let input: Vec<u32> = (0..n)
        .map(|i| gpu.mem().read_u32(0x1_0000 + i as u64 * 4))
        .collect();
    let expect: Vec<u32> = (0..n).map(|i| expected_out(&input, i)).collect();
    let stats = gpu
        .run(&copy_kernel(n, 0x1_0000, 0x40_0000), 8_000_000)
        .unwrap();
    for (i, &e) in expect.iter().enumerate() {
        assert_eq!(gpu.mem().read_u32(0x40_0000 + i as u64 * 4), e, "elem {i}");
    }
    // Incompressible loads skip decompression entirely.
    assert_eq!(stats.lines_decompressed, 0);
}

#[test]
fn caba_fpc_and_cpack_run_correctly() {
    for mode in [CabaMode::Fpc, CabaMode::CPack, CabaMode::BestOfAll] {
        let name = mode.label();
        let n = 8192;
        let mut gpu = Gpu::new(GpuConfig::small(), Design::Caba(mode));
        load_compressible(&mut gpu, n, 0x1_0000);
        let stats = gpu
            .run(&copy_kernel(n, 0x1_0000, 0x40_0000), 4_000_000)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        check_copied(&gpu, n, 0x40_0000);
        assert!(stats.assist_launches > 0, "{name}");
    }
}

/// A tiny store buffer forces the §4.2.2 overflow path: lines released
/// uncompressed, counted, and still functionally correct.
#[test]
fn store_buffer_overflow_path() {
    let n = 16384;
    let mut cfg = GpuConfig::small();
    cfg.store_buffer = 1;
    cfg.awb_low_priority_entries = 1;
    let mut gpu = paranoid_bdi(cfg);
    load_compressible(&mut gpu, n, 0x1_0000);
    let stats = gpu
        .run(&copy_kernel(n, 0x1_0000, 0x40_0000), 40_000_000)
        .unwrap();
    check_copied(&gpu, n, 0x40_0000);
    assert!(
        stats.store_buffer_overflows > 0,
        "tiny buffer must overflow"
    );
}

/// Snapshots cut through assist bursts. A short CABA run is stopped at every
/// 7th cycle; each cut is restored into a fresh machine, which must write
/// the same bytes back and resume to the unbroken run's exact `RunStats`.
/// Restore re-derives the candidate lists wholesale where the running
/// machine kept them current by assist-only updates, so some cut has to land
/// in a stretch the assist-only path alone maintained — the per-SM
/// `(full rebuilds, assist-only updates)` counters say which do.
///
/// The same counters guard the mechanism without a clock: over the unbroken
/// run, full rebuilds are bounded by block launches and retires, however
/// many assist warps deploy.
fn cut_every_7th_cycle(mode: CabaMode) {
    let n = 4096u32;
    let cfg = GpuConfig::small();
    let kernel = copy_kernel(n, 0x1_0000, 0x40_0000);
    let fresh = || Gpu::new(cfg, Design::Caba(mode));

    let mut whole = fresh();
    load_compressible(&mut whole, n, 0x1_0000);
    let full = whole.run(&kernel, 1_000_000).unwrap();
    assert!(full.assist_launches > 50, "{}", full.assist_launches);
    let (rebuilds, updates) = whole
        .list_rebuilds()
        .iter()
        .fold((0, 0), |(r, u), sm| (r + sm.0, u + sm.1));
    let blocks = u64::from(kernel.dims().grid_dim);
    assert!(
        rebuilds <= 2 * blocks + cfg.num_sms as u64,
        "{rebuilds} full rebuilds for {blocks} blocks launched and retired"
    );
    assert!(
        updates > full.assist_launches / 2,
        "{updates} assist updates"
    );

    let mut stepped = fresh();
    load_compressible(&mut stepped, n, 0x1_0000);
    let mut before = stepped.list_rebuilds();
    let mut in_burst = 0;
    for cut in (7..).step_by(7) {
        let outcome = if cut == 7 {
            stepped.run(&kernel, cut)
        } else {
            stepped.resume(&kernel, cut)
        };
        match outcome {
            Ok(stats) => {
                assert_eq!(stats, full, "stepping in place");
                break;
            }
            Err(RunError::Timeout { .. }) => {}
            Err(e) => panic!("cut {cut}: {e}"),
        }
        let bytes = stepped.snapshot(&kernel);
        let mut restored = fresh();
        restored
            .restore(&kernel, &bytes)
            .expect("snapshot restores");
        assert!(restored.snapshot(&kernel) == bytes, "cut {cut} re-saves");
        let resumed = restored.resume(&kernel, 1_000_000).unwrap();
        assert_eq!(resumed, full, "resumed from cycle {cut}");

        let now = stepped.list_rebuilds();
        in_burst += usize::from(
            now.iter()
                .zip(&before)
                .any(|(n, b)| n.0 == b.0 && n.1 > b.1),
        );
        before = now;
    }
    assert!(in_burst > 10, "{in_burst} cuts inside assist bursts");
}

#[test]
fn snapshots_cut_through_caba_bdi_assist_bursts() {
    cut_every_7th_cycle(CabaMode::Bdi);
}

#[test]
fn snapshots_cut_through_caba_fpc_assist_bursts() {
    cut_every_7th_cycle(CabaMode::Fpc);
}

/// A snapshot taken with paranoid off holds no reference decompressions,
/// so it is shorter than a paranoid one cut at the same cycle while a BDI
/// fill is in flight. Restored into a paranoid machine, it runs to
/// completion and ends as the unbroken run does.
#[test]
fn a_snapshot_without_references_resumes_paranoid() {
    let n = 4096u32;
    let cfg = GpuConfig::small();
    let kernel = copy_kernel(n, 0x1_0000, 0x40_0000);
    let machine = |paranoid: bool| {
        let mut gpu = Gpu::new(cfg, Design::Caba(CabaMode::Bdi));
        gpu.set_paranoid(paranoid);
        load_compressible(&mut gpu, n, 0x1_0000);
        gpu
    };
    let full = machine(true).run(&kernel, 1_000_000).unwrap();
    let mut cuts_with_fills = 0;
    for k in 1..8 {
        let cut = full.cycles * k / 8;
        let snapshot = |paranoid: bool| {
            let mut gpu = machine(paranoid);
            assert!(gpu.run(&kernel, cut).is_err(), "cut {cut} is mid-run");
            gpu.snapshot(&kernel)
        };
        let (plain, checked) = (snapshot(false), snapshot(true));
        cuts_with_fills += usize::from(plain.len() < checked.len());
        let mut restored = paranoid_bdi(cfg);
        restored
            .restore(&kernel, &plain)
            .expect("snapshot restores");
        let resumed = restored.resume(&kernel, 1_000_000).unwrap();
        assert_eq!(resumed, full, "resumed from cycle {cut}");
        check_copied(&restored, n, 0x40_0000);
    }
    assert!(cuts_with_fills > 0, "no cut caught a BDI fill in flight");
}
