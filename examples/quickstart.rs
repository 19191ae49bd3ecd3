//! Quickstart: build a kernel, run it on the simulated GPU under the
//! baseline and under CABA-BDI, and compare what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use caba::isa::{AluOp, Kernel, LaunchDims, ProgramBuilder, Reg, Space, Special, Src, Width};
use caba::sim::{CabaMode, Design, Gpu, GpuConfig};

/// A bandwidth-bound kernel: each thread sums four grid-strided 8-byte
/// elements and stores a small result.
fn build_kernel(threads: u32, in_base: u64, out_base: u64) -> Kernel {
    let mut b = ProgramBuilder::new();
    let (gid, addr, v, acc) = (Reg(0), Reg(1), Reg(2), Reg(3));
    b.global_thread_id(gid);
    b.movi(acc, 0);
    b.alu(AluOp::Mul, addr, Src::Reg(gid), Src::Imm(8));
    b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(0)));
    for r in 0..4 {
        b.ld(Space::Global, Width::B8, v, Src::Reg(addr), 0);
        b.alu(AluOp::Add, acc, Src::Reg(acc), Src::Reg(v));
        if r < 3 {
            b.alu(
                AluOp::Add,
                addr,
                Src::Reg(addr),
                Src::Imm(threads as u64 * 8),
            );
        }
    }
    b.alu(AluOp::And, acc, Src::Reg(acc), Src::Imm(0xFFFF));
    b.alu(AluOp::Mul, addr, Src::Reg(gid), Src::Imm(4));
    b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(1)));
    b.st(Space::Global, Width::B4, Src::Reg(acc), Src::Reg(addr), 0);
    b.exit();
    Kernel::new("quickstart", b.build(), LaunchDims::new(threads / 256, 256))
        .with_params(vec![in_base, out_base])
}

fn main() {
    const THREADS: u32 = 32 * 1024;
    const IN: u64 = 0x10_0000;
    const OUT: u64 = 0x200_0000;
    let kernel = build_kernel(THREADS, IN, OUT);

    for (name, design) in [
        ("Base     ", Design::Base),
        ("CABA-BDI ", Design::Caba(CabaMode::Bdi)),
    ] {
        let mut gpu = Gpu::new(GpuConfig::isca2015_scaled(), design);
        // Compressible input: low-dynamic-range 32-bit values.
        for i in 0..(THREADS as u64 * 8) {
            gpu.mem_mut()
                .write_u32(IN + i * 4, 0x4000_0000 + (i % 97) as u32);
        }
        let stats = gpu.run(&kernel, 100_000_000).expect("kernel completes");
        println!(
            "{name} cycles={:<8} IPC={:<5.2} DRAM bursts={:<8} BW util={:>5.1}%  \
             assist warps={} ({} instructions)",
            stats.cycles,
            stats.ipc(),
            stats.dram_bursts,
            stats.bandwidth_utilization() * 100.0,
            stats.assist_launches,
            stats.assist_instructions,
        );
        // The functional result is identical regardless of design.
        println!(
            "          out[0..4] = {:?}",
            (0..4)
                .map(|i| gpu.mem().read_u32(OUT + i * 4))
                .collect::<Vec<_>>()
        );
    }
    println!("\nCABA moves fewer DRAM bursts (compressed lines) at the cost of");
    println!("assist-warp instructions executed in otherwise-idle issue slots.");
}
