//! Simulation integrity layer, end to end: audits on a healthy run, fault
//! injection with recovery, silent corruption caught by the audits, and a
//! watchdog hang report from a wedged machine.
//!
//! ```sh
//! cargo run --release --example integrity
//! ```

use caba::isa::{
    AluOp, CmpOp, Kernel, LaunchDims, Pred, ProgramBuilder, Reg, Space, Special, Src, Width,
};
use caba::sim::{Design, FaultConfig, FaultMode, Gpu, GpuConfig};

const IN: u64 = 0x1_0000;
const OUT: u64 = 0x8_0000;
const N: u32 = 2048;

/// out[i] = in[i] * 2.
fn scale_kernel() -> Kernel {
    let mut b = ProgramBuilder::new();
    let (gid, addr, v) = (Reg(0), Reg(1), Reg(2));
    b.global_thread_id(gid);
    b.alu(AluOp::Shl, addr, Src::Reg(gid), Src::Imm(2));
    b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(0)));
    b.ld(Space::Global, Width::B4, v, Src::Reg(addr), 0);
    b.alu(AluOp::Shl, v, Src::Reg(v), Src::Imm(1));
    b.alu(AluOp::Shl, addr, Src::Reg(gid), Src::Imm(2));
    b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(1)));
    b.st(Space::Global, Width::B4, Src::Reg(v), Src::Reg(addr), 0);
    b.exit();
    Kernel::new("scale", b.build(), LaunchDims::new(N.div_ceil(64), 64)).with_params(vec![IN, OUT])
}

/// Warp 1 consumes a load before the block barrier warp 0 waits at; lose
/// that load and the machine wedges.
fn barrier_kernel() -> Kernel {
    let mut b = ProgramBuilder::new();
    let (gid, addr, v) = (Reg(0), Reg(1), Reg(2));
    b.global_thread_id(gid);
    b.setp(Pred(0), CmpOp::GeU, Src::Reg(gid), Src::Imm(32));
    b.if_then(Pred(0), true, |b| {
        b.alu(AluOp::Shl, addr, Src::Reg(gid), Src::Imm(2));
        b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(0)));
        b.ld(Space::Global, Width::B4, v, Src::Reg(addr), 0);
        b.alu(AluOp::Add, v, Src::Reg(v), Src::Imm(1));
    });
    b.bar();
    b.exit();
    Kernel::new("barrier", b.build(), LaunchDims::new(1, 64)).with_params(vec![IN])
}

fn gpu_with(cfg: GpuConfig) -> Gpu {
    let mut gpu = Gpu::new(cfg, Design::HwFull { ideal: false });
    for i in 0..N {
        gpu.mem_mut().write_u32(IN + i as u64 * 4, 0x100 + i);
    }
    gpu
}

fn check_output(gpu: &Gpu) -> bool {
    (0..N).all(|i| gpu.mem().read_u32(OUT + i as u64 * 4) == (0x100 + i) * 2)
}

fn main() {
    // 1. Healthy run, audits on: invisible to timing, zero violations.
    let mut cfg = GpuConfig::small();
    cfg.audit_interval = 32;
    let mut gpu = gpu_with(cfg);
    let stats = gpu.run(&scale_kernel(), 1_000_000).expect("healthy run");
    println!(
        "[healthy + audits]   cycles={} audits_run={} output_correct={}",
        stats.cycles,
        stats.audits_run,
        check_output(&gpu)
    );

    // 2. All three fault classes with the recovery hardware modeled: the
    //    run completes bit-correct and every event is counted.
    let mut cfg = GpuConfig::small();
    cfg.audit_interval = 32;
    cfg.fault = FaultConfig {
        corrupt_line_rate: 0.25,
        dram_delay_rate: 0.2,
        ..FaultConfig::recover(0xFA11, 0.05)
    };
    let mut gpu = gpu_with(cfg);
    let stats = gpu.run(&scale_kernel(), 4_000_000).expect("recovery run");
    println!(
        "[faults, recover]    cycles={} dropped={} retransmitted={} dram_delayed={} \
         corrupted={} detected={} refetched={} output_correct={}",
        stats.cycles,
        stats.flits_dropped,
        stats.flit_retransmissions,
        stats.dram_delay_faults,
        stats.lines_corrupted,
        stats.corruptions_detected,
        stats.corruption_refetches,
        check_output(&gpu)
    );

    // 3. Silent corruption: broken hardware the audits must catch.
    let mut cfg = GpuConfig::small();
    cfg.audit_interval = 32;
    cfg.fault = FaultConfig {
        enabled: true,
        seed: 0xC0FF,
        mode: FaultMode::Silent,
        corrupt_line_rate: 1.0,
        ..FaultConfig::disabled()
    };
    let mut gpu = gpu_with(cfg);
    match gpu.run(&scale_kernel(), 1_000_000) {
        Ok(_) => println!("[silent corruption]  NOT CAUGHT (bug!)"),
        Err(e) => println!("[silent corruption]  caught:\n{e}"),
    }

    // 4. A lost request under a block barrier: the watchdog declares a
    //    hang and prints forensics instead of burning the cycle budget.
    let mut cfg = GpuConfig::small();
    cfg.watchdog_window = 2_000;
    cfg.fault = FaultConfig {
        enabled: true,
        seed: 9,
        mode: FaultMode::Silent,
        drop_flit_rate: 1.0,
        ..FaultConfig::disabled()
    };
    let mut gpu = gpu_with(cfg);
    match gpu.run(&barrier_kernel(), 1_000_000) {
        Ok(_) => println!("[lost req + barrier] NOT CAUGHT (bug!)"),
        Err(e) => println!("[lost req + barrier] caught:\n{e}"),
    }

    // 5. Nonsense configurations are typed errors, not mid-run panics.
    let mut cfg = GpuConfig::small();
    cfg.fault = FaultConfig::recover(1, 1.5);
    match Gpu::try_new(cfg, Design::Base) {
        Ok(_) => println!("[bad config]         NOT CAUGHT (bug!)"),
        Err(e) => println!("[bad config]         rejected: {e}"),
    }
}
