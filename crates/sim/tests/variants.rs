//! Design-variant and failure-injection tests: cache-compression modes
//! (Fig. 13), interconnect traffic differences between HW-BDI-Mem and
//! HW-BDI, and degenerate configurations that stress the throttling paths.

use caba_isa::{AluOp, Kernel, LaunchDims, ProgramBuilder, Reg, Space, Special, Src, Width};
use caba_sim::{Design, Gpu, GpuConfig};

/// Streaming read-heavy kernel over `n` 4-byte elements.
fn read_kernel(n: u32) -> Kernel {
    let mut b = ProgramBuilder::new();
    let (gid, addr, v, acc) = (Reg(0), Reg(1), Reg(2), Reg(3));
    b.global_thread_id(gid);
    b.movi(acc, 0);
    b.alu(AluOp::Mul, addr, Src::Reg(gid), Src::Imm(8));
    b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(0)));
    for r in 0..4 {
        b.ld(Space::Global, Width::B8, v, Src::Reg(addr), 0);
        b.alu(AluOp::Xor, acc, Src::Reg(acc), Src::Reg(v));
        if r < 3 {
            b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Imm(n as u64));
        }
    }
    b.alu(AluOp::Mul, addr, Src::Reg(gid), Src::Imm(4));
    b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(1)));
    b.st(Space::Global, Width::B4, Src::Reg(acc), Src::Reg(addr), 0);
    b.exit();
    let threads = (n / 8).max(256);
    Kernel::new("read", b.build(), LaunchDims::new(threads / 256, 256))
        .with_params(vec![0x10_0000, 0x800_0000])
}

fn load_compressible(gpu: &mut Gpu, words: u32) {
    for i in 0..words as u64 {
        gpu.mem_mut()
            .write_u32(0x10_0000 + i * 4, 0x1234_0000 + (i % 90) as u32);
    }
}

fn run(cfg: GpuConfig, design: Design, n: u32) -> caba_sim::RunStats {
    let mut gpu = Gpu::new(cfg, design);
    load_compressible(&mut gpu, n);
    gpu.run(&read_kernel(n), 50_000_000).expect("completes")
}

const N: u32 = 96 * 1024; // 384 KB of 4-byte words

#[test]
fn hw_mem_only_moves_full_lines_on_the_interconnect() {
    let cfg = GpuConfig::small();
    let mem_only = run(cfg, Design::HwMemOnly, N);
    let full = run(cfg, Design::HwFull { ideal: false }, N);
    // Same DRAM compression...
    let burst_ratio = mem_only.dram_bursts as f64 / full.dram_bursts as f64;
    assert!(
        (0.8..1.2).contains(&burst_ratio),
        "burst ratio {burst_ratio}"
    );
    // ...but HW-BDI-Mem sends uncompressed flits across the crossbar.
    assert!(
        mem_only.icnt_flits > full.icnt_flits,
        "mem-only {} vs full {}",
        mem_only.icnt_flits,
        full.icnt_flits
    );
}

#[test]
fn compressed_l2_with_extra_tags_raises_hit_rate() {
    // Fig. 13 (L2-4x): quadrupled tags + compressed residency lets more
    // lines fit the same data budget.
    let base_cfg = GpuConfig::small();
    let mut big_cfg = base_cfg;
    big_cfg.l2 = big_cfg.l2.with_tag_factor(4);
    let design = Design::HwFull { ideal: false };
    let plain = run(base_cfg, design, N);
    let tagged = run(big_cfg, design, N);
    assert!(
        tagged.l2_hit_rate() >= plain.l2_hit_rate(),
        "tagged {} vs plain {}",
        tagged.l2_hit_rate(),
        plain.l2_hit_rate()
    );
    assert!(tagged.dram_bursts <= plain.dram_bursts);
}

#[test]
fn compressed_l1_pays_decompression_on_hits() {
    // Fig. 13 (L1-2x) downside: frequent L1 hits now pay a decompression
    // penalty. With a hit-heavy kernel the penalty must be visible.
    let mut b = ProgramBuilder::new();
    let (gid, addr, v, acc, i) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));
    b.global_thread_id(gid);
    b.movi(acc, 0);
    b.movi(i, 0);
    // 16 repeated loads of the same (compressible) line region.
    for _ in 0..16 {
        b.alu(AluOp::And, addr, Src::Reg(gid), Src::Imm(31));
        b.alu(AluOp::Mul, addr, Src::Reg(addr), Src::Imm(4));
        b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(0)));
        b.ld(Space::Global, Width::B4, v, Src::Reg(addr), 0);
        b.alu(AluOp::Add, acc, Src::Reg(acc), Src::Reg(v));
    }
    b.alu(AluOp::Mul, addr, Src::Reg(gid), Src::Imm(4));
    b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(1)));
    b.st(Space::Global, Width::B4, Src::Reg(acc), Src::Reg(addr), 0);
    b.exit();
    let _ = i;
    let kernel = Kernel::new("hits", b.build(), LaunchDims::new(32, 256))
        .with_params(vec![0x10_0000, 0x800_0000]);

    let mut cfg_plain = GpuConfig::small();
    cfg_plain.l1_compressed = false;
    let mut cfg_comp = GpuConfig::small();
    cfg_comp.l1 = cfg_comp.l1.with_tag_factor(2);
    cfg_comp.l1_compressed = true;
    cfg_comp.l1_hit_decompress_penalty = 20;

    let design = Design::HwFull { ideal: false };
    let mut g1 = Gpu::new(cfg_plain, design);
    load_compressible(&mut g1, 1024);
    let plain = g1.run(&kernel, 50_000_000).unwrap();
    let mut g2 = Gpu::new(cfg_comp, design);
    load_compressible(&mut g2, 1024);
    let comp = g2.run(&kernel, 50_000_000).unwrap();
    assert!(plain.l1_hit_rate() > 0.5, "kernel must be hit-heavy");
    assert!(
        comp.cycles > plain.cycles,
        "compressed-L1 {} vs plain {}",
        comp.cycles,
        plain.cycles
    );
}

#[test]
fn tiny_mshr_and_lsu_still_complete() {
    // Failure injection: starved structural resources must throttle, not
    // deadlock.
    let mut cfg = GpuConfig::small();
    cfg.mshrs = 2;
    cfg.lsu_queue = 2;
    let stats = run(cfg, Design::Base, 16 * 1024);
    assert!(stats.cycles > 0);
    assert!(stats.threads_retired > 0);
}

#[test]
fn zero_latency_icnt_and_tiny_dram_queue_complete() {
    let mut cfg = GpuConfig::small();
    cfg.icnt_latency = 0;
    cfg.dram.queue_capacity = 2;
    let stats = run(cfg, Design::Base, 16 * 1024);
    assert!(stats.cycles > 0);
}

#[test]
fn single_sm_single_channel_machine_works() {
    let mut cfg = GpuConfig::small();
    cfg.num_sms = 1;
    cfg.num_channels = 1;
    let stats = run(cfg, Design::HwFull { ideal: false }, 16 * 1024);
    assert!(stats.cycles > 0);
    assert!(stats.dram_bursts > 0);
}
