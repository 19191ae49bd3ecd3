//! The kernels the integration tests run, and the input and output checks
//! of [`scale_kernel`], shared with the in-crate engine differential
//! (`src/sm/engine_diff.rs` includes this file by path). `Gpu` comes from
//! the includer: `caba_sim::Gpu` in a test crate, `crate::Gpu` in the
//! differential.
#![allow(dead_code)]

use super::Gpu;
use caba_isa::{
    AluOp, CmpOp, Kernel, LaunchDims, Pred, ProgramBuilder, Reg, Space, Special, Src, Width,
};

/// out[i] = in[i] * 2 for n elements (one element per thread).
pub fn scale_kernel(n: u32, in_base: u64, out_base: u64) -> Kernel {
    let mut b = ProgramBuilder::new();
    let (gid, addr, v) = (Reg(0), Reg(1), Reg(2));
    b.global_thread_id(gid);
    // addr = in_base + gid*4
    b.alu(AluOp::Shl, addr, Src::Reg(gid), Src::Imm(2));
    b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(0)));
    b.ld(Space::Global, Width::B4, v, Src::Reg(addr), 0);
    b.alu(AluOp::Shl, v, Src::Reg(v), Src::Imm(1));
    b.alu(AluOp::Shl, addr, Src::Reg(gid), Src::Imm(2));
    b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(1)));
    b.st(Space::Global, Width::B4, Src::Reg(v), Src::Reg(addr), 0);
    b.exit();
    let blocks = n.div_ceil(64);
    Kernel::new("scale", b.build(), LaunchDims::new(blocks, 64))
        .with_params(vec![in_base, out_base])
}

/// Writes `scale_kernel`'s input: element `i` is `0x100 + i`.
pub fn load_input(gpu: &mut Gpu, n: u32, base: u64) {
    for i in 0..n {
        gpu.mem_mut().write_u32(base + i as u64 * 4, 0x100 + i);
    }
}

/// Asserts that `scale_kernel` doubled every element of [`load_input`]'s.
pub fn check_output(gpu: &Gpu, n: u32, base: u64) {
    for i in 0..n {
        assert_eq!(
            gpu.mem().read_u32(base + i as u64 * 4),
            (0x100 + i) * 2,
            "element {i}"
        );
    }
}

/// Loop kernel: each of 4 x 64 threads sums `iters` array elements with a
/// do-while loop and stores the sum at `out_base`.
pub fn loop_kernel(iters: u64, in_base: u64, out_base: u64) -> Kernel {
    let mut b = ProgramBuilder::new();
    let (gid, i, acc, addr, v) = (Reg(0), Reg(1), Reg(2), Reg(3), Reg(4));
    b.global_thread_id(gid);
    b.movi(i, 0);
    b.movi(acc, 0);
    b.do_while(|b| {
        // addr = param0 + ((gid*iters + i) % 4096)*4
        b.alu(AluOp::Mul, addr, Src::Reg(gid), Src::Imm(iters));
        b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Reg(i));
        b.alu(AluOp::Rem, addr, Src::Reg(addr), Src::Imm(4096));
        b.alu(AluOp::Shl, addr, Src::Reg(addr), Src::Imm(2));
        b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(0)));
        b.ld(Space::Global, Width::B4, v, Src::Reg(addr), 0);
        b.alu(AluOp::Add, acc, Src::Reg(acc), Src::Reg(v));
        b.alu(AluOp::Add, i, Src::Reg(i), Src::Imm(1));
        b.setp(Pred(0), CmpOp::LtU, Src::Reg(i), Src::Imm(iters));
        Pred(0)
    });
    // out[gid] = acc
    b.alu(AluOp::Shl, addr, Src::Reg(gid), Src::Imm(2));
    b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(1)));
    b.st(Space::Global, Width::B4, Src::Reg(acc), Src::Reg(addr), 0);
    b.exit();
    Kernel::new("loop", b.build(), LaunchDims::new(4, 64)).with_params(vec![in_base, out_base])
}

/// Divergent kernel: of 2 x 64 threads, those with even gid write 1 at
/// `out_base`, odd ones 2.
pub fn divergent_kernel(out_base: u64) -> Kernel {
    let mut b = ProgramBuilder::new();
    let (gid, addr, v) = (Reg(0), Reg(1), Reg(2));
    b.global_thread_id(gid);
    b.alu(AluOp::And, v, Src::Reg(gid), Src::Imm(1));
    b.setp(Pred(0), CmpOp::Eq, Src::Reg(v), Src::Imm(0));
    b.if_then(Pred(0), true, |b| {
        b.movi(v, 1);
    });
    b.if_then(Pred(0), false, |b| {
        b.movi(v, 2);
    });
    b.alu(AluOp::Shl, addr, Src::Reg(gid), Src::Imm(2));
    b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(0)));
    b.st(Space::Global, Width::B4, Src::Reg(v), Src::Reg(addr), 0);
    b.exit();
    Kernel::new("diverge", b.build(), LaunchDims::new(2, 64)).with_params(vec![out_base])
}

/// Barrier kernel, 3 x 64 threads: phase 1 writes shared memory, phase 2
/// reads a neighbour's value — only correct if the barrier orders the
/// phases.
pub fn barrier_kernel(out_base: u64) -> Kernel {
    let mut b = ProgramBuilder::new();
    let (tid, addr, v) = (Reg(0), Reg(1), Reg(2));
    b.mov(tid, Src::Sp(Special::Tid));
    // shared[tid] = tid
    b.alu(AluOp::Shl, addr, Src::Reg(tid), Src::Imm(2));
    b.st(Space::Shared, Width::B4, Src::Reg(tid), Src::Reg(addr), 0);
    b.bar();
    // v = shared[(tid+1) % 64]
    b.alu(AluOp::Add, v, Src::Reg(tid), Src::Imm(1));
    b.alu(AluOp::Rem, v, Src::Reg(v), Src::Imm(64));
    b.alu(AluOp::Shl, addr, Src::Reg(v), Src::Imm(2));
    b.ld(Space::Shared, Width::B4, v, Src::Reg(addr), 0);
    // out[ctaid*64 + tid] = v
    b.global_thread_id(addr);
    b.alu(AluOp::Shl, addr, Src::Reg(addr), Src::Imm(2));
    b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(0)));
    b.st(Space::Global, Width::B4, Src::Reg(v), Src::Reg(addr), 0);
    b.exit();
    Kernel::new("barrier", b.build(), LaunchDims::new(3, 64))
        .with_params(vec![out_base])
        .with_shared_bytes(256)
}
