//! The per-lane interpreter that [`super::execute`] replaced, kept as the
//! reference for the differential test below. It re-matches operands and
//! opcodes for every lane and touches memory one byte at a time.

use super::{src_value, ThreadCtx};
use crate::warp::Warp;
use caba_isa::exec::{eval_alu, eval_cmp, eval_falu, eval_sfu, truncate};
use caba_isa::{Instr, Op, PBoolOp, Space, WARP_SIZE};
use caba_mem::{line_base, SharedMem};

/// What the old `ExecOutcome` reported (its never-read `exited` aside).
#[derive(Debug, Default)]
pub struct Outcome {
    pub lines_read: Vec<u64>,
    pub lines_written: Vec<u64>,
    pub shared_access: bool,
    pub dst: Option<caba_isa::Reg>,
    pub at_barrier: bool,
}

fn read_le(mem: &SharedMem<'_>, addr: u64, n: usize) -> u64 {
    (0..n).fold(0, |v, i| {
        v | (mem.read_u8(addr + i as u64) as u64) << (8 * i)
    })
}

fn write_le(mem: &mut SharedMem<'_>, addr: u64, n: usize, v: u64) {
    for i in 0..n {
        mem.write_u8(addr + i as u64, (v >> (8 * i)) as u8);
    }
}

fn push_line(lines: &mut Vec<u64>, addr: u64) {
    let base = line_base(addr);
    if !lines.contains(&base) {
        lines.push(base);
    }
}

pub fn execute(
    warp: &mut Warp,
    instr: &Instr,
    ctx: &ThreadCtx<'_>,
    mem: &mut SharedMem<'_>,
) -> Outcome {
    let mut out = Outcome::default();
    let exec = warp.exec_mask(instr);
    let active = warp.active_mask();

    let lanes = |mask: u32| (0..WARP_SIZE).filter(move |&l| mask >> l & 1 == 1);

    match instr.op {
        Op::Alu { op, dst, a, b } => {
            for l in lanes(exec) {
                let va = src_value(warp, ctx, a, l);
                let vb = src_value(warp, ctx, b, l);
                warp.set_reg(dst, l, eval_alu(op, va, vb));
            }
            out.dst = Some(dst);
            warp.advance_pc();
        }
        Op::FAlu { op, dst, a, b } => {
            for l in lanes(exec) {
                let va = src_value(warp, ctx, a, l);
                let vb = src_value(warp, ctx, b, l);
                warp.set_reg(dst, l, eval_falu(op, va, vb));
            }
            out.dst = Some(dst);
            warp.advance_pc();
        }
        Op::Sfu { op, dst, a } => {
            for l in lanes(exec) {
                let va = src_value(warp, ctx, a, l);
                warp.set_reg(dst, l, eval_sfu(op, va));
            }
            out.dst = Some(dst);
            warp.advance_pc();
        }
        Op::SetP { pred, cmp, a, b } => {
            for l in lanes(exec) {
                let va = src_value(warp, ctx, a, l);
                let vb = src_value(warp, ctx, b, l);
                warp.set_pred(pred, l, eval_cmp(cmp, va, vb));
            }
            warp.advance_pc();
        }
        Op::PBool { dst, op, a, b } => {
            for l in lanes(exec) {
                let va = warp.pred(a, l);
                let vb = warp.pred(b, l);
                let r = match op {
                    PBoolOp::And => va && vb,
                    PBoolOp::Or => va || vb,
                    PBoolOp::AndNot => va && !vb,
                    PBoolOp::Not => !va,
                    PBoolOp::Mov => va,
                };
                warp.set_pred(dst, l, r);
            }
            warp.advance_pc();
        }
        Op::VoteAll { dst, src } => {
            // Warp-wide AND over executing lanes — the global predicate
            // register of §4.1.2.
            let all = lanes(exec).all(|l| warp.pred(src, l));
            for l in lanes(exec) {
                warp.set_pred(dst, l, all);
            }
            warp.advance_pc();
        }
        Op::VoteAny { dst, src } => {
            let any = lanes(exec).any(|l| warp.pred(src, l));
            for l in lanes(exec) {
                warp.set_pred(dst, l, any);
            }
            warp.advance_pc();
        }
        Op::Ballot { dst, src } => {
            let mut mask = 0u32;
            for l in lanes(exec) {
                if warp.pred(src, l) {
                    mask |= 1 << l;
                }
            }
            for l in lanes(exec) {
                warp.set_reg(dst, l, mask as u64);
            }
            out.dst = Some(dst);
            warp.advance_pc();
        }
        Op::FindFirst { dst, src } => {
            let first = lanes(exec).find(|&l| warp.pred(src, l));
            for l in lanes(exec) {
                warp.set_pred(dst, l, Some(l) == first);
            }
            warp.advance_pc();
        }
        Op::Selp { dst, a, b, pred } => {
            for l in lanes(exec) {
                let v = if warp.pred(pred, l) {
                    src_value(warp, ctx, a, l)
                } else {
                    src_value(warp, ctx, b, l)
                };
                warp.set_reg(dst, l, v);
            }
            out.dst = Some(dst);
            warp.advance_pc();
        }
        Op::Ld {
            space,
            width,
            dst,
            addr,
            offset,
        } => {
            let n = width.bytes() as usize;
            for l in lanes(exec) {
                let base = src_value(warp, ctx, addr, l).wrapping_add_signed(offset);
                let ea = match space {
                    Space::Global => base,
                    Space::Shared => ctx.shared_base.wrapping_add(base),
                };
                let v = read_le(mem, ea, n);
                warp.set_reg(dst, l, v);
                if space == Space::Global {
                    push_line(&mut out.lines_read, ea);
                    if n > 1 {
                        push_line(&mut out.lines_read, ea + n as u64 - 1);
                    }
                }
            }
            out.shared_access = space == Space::Shared;
            out.dst = Some(dst);
            warp.advance_pc();
        }
        Op::St {
            space,
            width,
            src,
            addr,
            offset,
        } => {
            let n = width.bytes() as usize;
            for l in lanes(exec) {
                let base = src_value(warp, ctx, addr, l).wrapping_add_signed(offset);
                let ea = match space {
                    Space::Global => base,
                    Space::Shared => ctx.shared_base.wrapping_add(base),
                };
                let v = truncate(src_value(warp, ctx, src, l), n as u64);
                write_le(mem, ea, n, v);
                if space == Space::Global {
                    push_line(&mut out.lines_written, ea);
                    if n > 1 {
                        push_line(&mut out.lines_written, ea + n as u64 - 1);
                    }
                }
            }
            out.shared_access = space == Space::Shared;
            warp.advance_pc();
        }
        Op::LdPacked { k, dst, base } => {
            // Base comes from the first executing lane (warp-uniform).
            let first = lanes(exec).next();
            if let Some(fl) = first {
                let b = src_value(warp, ctx, base, fl);
                for l in lanes(exec) {
                    let ea = b + (l as u64) * k as u64;
                    warp.set_reg(dst, l, read_le(mem, ea, k as usize));
                }
                push_line(&mut out.lines_read, b);
                push_line(&mut out.lines_read, b + (WARP_SIZE as u64) * k as u64 - 1);
            }
            out.dst = Some(dst);
            warp.advance_pc();
        }
        Op::StPacked { k, src, base } => {
            let first = lanes(exec).next();
            if let Some(fl) = first {
                let b = src_value(warp, ctx, base, fl);
                for l in lanes(exec) {
                    let ea = b + (l as u64) * k as u64;
                    let v = truncate(src_value(warp, ctx, src, l), k as u64);
                    write_le(mem, ea, k as usize, v);
                }
                push_line(&mut out.lines_written, b);
                push_line(
                    &mut out.lines_written,
                    b + (WARP_SIZE as u64) * k as u64 - 1,
                );
            }
            warp.advance_pc();
        }
        Op::Bra { target, reconv } => {
            let next = warp.pc() + 1;
            // Guard lanes take the branch; exec already folds the guard in.
            let taken = if instr.guard.is_some() { exec } else { active };
            warp.take_branch(taken, target, next, reconv);
        }
        Op::Bar => {
            out.at_barrier = true;
            warp.at_barrier = true;
            warp.advance_pc();
        }
        Op::Exit => {
            warp.exit_lanes(exec);
            if !warp.done && exec != active {
                // Non-exiting lanes continue past the Exit.
                warp.advance_pc();
            }
        }
        Op::Nop => {
            warp.advance_pc();
        }
    }
    out
}

mod differential {
    use super::super::{execute as execute_rows, ExecOutcome};
    use super::*;
    use caba_isa::{AluOp, CmpOp, FAluOp, Pred, Reg, SfuOp, Special, Src, Width, NUM_PREGS};
    use caba_mem::{FuncMem, MemDelta, LINE_SIZE};
    use caba_stats::prop;
    use caba_stats::rng::Rng64;
    use caba_stats::snap::{SnapshotState, SnapshotWriter};

    const NREGS: u16 = 6;
    const SHARED_BASE: u64 = 0x8000_0000;
    /// Two bytes short of a page (and so a line) boundary: 4- and 8-byte
    /// accesses from here straddle it.
    const NEAR_PAGE_END: u64 = 0x1_0000 + 4096 - 2;

    fn pick<T: Copy>(rng: &mut Rng64, items: &[T]) -> T {
        items[rng.range_u64(items.len() as u64) as usize]
    }

    fn mask(rng: &mut Rng64) -> u32 {
        match rng.range_u64(5) {
            0 => 0,
            1 => u32::MAX,
            2 => 1 << rng.range_u64(32),
            _ => rng.next_u32(),
        }
    }

    fn addr_base(rng: &mut Rng64) -> u64 {
        pick(
            rng,
            &[0x1_0000, 0x1_0000 + 126, NEAR_PAGE_END, 0x2_0040, 0x40],
        )
    }

    fn src(rng: &mut Rng64) -> Src {
        match rng.range_u64(6) {
            0 => Src::Imm(pick(rng, &[0, 1, 63, 64, u64::MAX]).wrapping_add(rng.range_u64(3))),
            1 => Src::Imm(addr_base(rng)),
            2 => Src::Sp(pick(
                rng,
                &[
                    Special::Tid,
                    Special::Ctaid,
                    Special::Ntid,
                    Special::Nctaid,
                    Special::Lane,
                    Special::WarpInBlock,
                    Special::Param(0),
                    Special::Param(1),
                    Special::Param(9),
                ],
            )),
            _ => Src::Reg(reg(rng)),
        }
    }

    /// An operand for an address: never the `u64::MAX` immediates, whose
    /// `ea + n - 1` overflows (a debug-build panic on both sides).
    fn addr_src(rng: &mut Rng64) -> Src {
        match src(rng) {
            Src::Imm(_) => Src::Imm(addr_base(rng)),
            s => s,
        }
    }

    fn reg(rng: &mut Rng64) -> Reg {
        Reg(rng.range_u64(NREGS as u64) as u16)
    }

    fn pred(rng: &mut Rng64) -> Pred {
        Pred(rng.range_u64(NUM_PREGS as u64) as u8)
    }

    fn op(rng: &mut Rng64) -> Op {
        let space = pick(rng, &[Space::Global, Space::Shared]);
        let width = pick(rng, &[Width::B1, Width::B2, Width::B4, Width::B8]);
        // Half the accesses keep the register's line placement as built.
        let offset = match rng.chance(0.5) {
            true => 0,
            false => rng.range_u64(4200) as i64 - 16,
        };
        let k = pick(rng, &[1, 2, 4, 8]);
        let (dst, a, b, addr) = (reg(rng), src(rng), src(rng), addr_src(rng));
        match rng.range_u64(19) {
            0 => Op::Alu {
                op: pick(
                    rng,
                    &[
                        AluOp::Add,
                        AluOp::Sub,
                        AluOp::Mul,
                        AluOp::Min,
                        AluOp::Max,
                        AluOp::And,
                        AluOp::Or,
                        AluOp::Xor,
                        AluOp::Shl,
                        AluOp::Shr,
                        AluOp::Sar,
                        AluOp::Mov,
                        AluOp::Rem,
                        AluOp::Div,
                    ],
                ),
                dst,
                a,
                b,
            },
            1 => Op::FAlu {
                op: pick(
                    rng,
                    &[
                        FAluOp::FAdd,
                        FAluOp::FSub,
                        FAluOp::FMul,
                        FAluOp::F2I,
                        FAluOp::I2F,
                    ],
                ),
                dst,
                a,
                b,
            },
            2 => Op::Sfu {
                op: pick(
                    rng,
                    &[SfuOp::Rcp, SfuOp::Rsqrt, SfuOp::Sin, SfuOp::Ex2, SfuOp::Lg2],
                ),
                dst,
                a,
            },
            3 => Op::SetP {
                pred: pred(rng),
                cmp: pick(
                    rng,
                    &[
                        CmpOp::Eq,
                        CmpOp::Ne,
                        CmpOp::LtS,
                        CmpOp::LeS,
                        CmpOp::GtS,
                        CmpOp::GeS,
                        CmpOp::LtU,
                        CmpOp::GeU,
                    ],
                ),
                a,
                b,
            },
            4 => Op::PBool {
                dst: pred(rng),
                op: pick(
                    rng,
                    &[
                        PBoolOp::And,
                        PBoolOp::Or,
                        PBoolOp::AndNot,
                        PBoolOp::Not,
                        PBoolOp::Mov,
                    ],
                ),
                a: pred(rng),
                b: pred(rng),
            },
            5 => Op::VoteAll {
                dst: pred(rng),
                src: pred(rng),
            },
            6 => Op::VoteAny {
                dst: pred(rng),
                src: pred(rng),
            },
            7 => Op::Ballot {
                dst,
                src: pred(rng),
            },
            8 => Op::FindFirst {
                dst: pred(rng),
                src: pred(rng),
            },
            9 => Op::Selp {
                dst,
                a,
                b,
                pred: pred(rng),
            },
            10 | 11 => Op::Ld {
                space,
                width,
                dst,
                addr,
                offset,
            },
            12 | 13 => Op::St {
                space,
                width,
                src: b,
                addr,
                offset,
            },
            14 => Op::LdPacked { k, dst, base: addr },
            15 => Op::StPacked {
                k,
                src: b,
                base: addr,
            },
            16 => Op::Bra {
                target: rng.range_u64(12) as usize,
                reconv: rng.range_u64(12) as usize,
            },
            17 => pick(rng, &[Op::Bar, Op::Nop]),
            _ => Op::Exit,
        }
    }

    fn instr(rng: &mut Rng64) -> Instr {
        let op = op(rng);
        if rng.chance(0.4) {
            Instr::guarded(op, pred(rng), rng.chance(0.5))
        } else {
            Instr::new(op)
        }
    }

    /// A warp with random registers (address-like rows that walk across line
    /// and page boundaries, small integers, float bit patterns, noise),
    /// random predicates and, half the time, a diverged SIMT stack.
    ///
    /// Some address rows are built for the load/store fast paths: one
    /// address on every active lane and noise on the rest (so uniform only
    /// under the partial mask), at a page's last bytes a third of the time;
    /// and lanes packed into one line, or across exactly two.
    fn warp(rng: &mut Rng64) -> Warp {
        let active = mask(rng);
        let mut w = Warp::new(NREGS as usize, active);
        for r in 0..NREGS {
            let base = addr_base(rng);
            let stride = pick(rng, &[0, 1, 2, 4, 8, 64, 128, 4096]);
            let uniform = match rng.chance(1.0 / 3.0) {
                true => NEAR_PAGE_END + 2 - rng.range_u64(8),
                false => base,
            };
            let line = base & !(LINE_SIZE as u64 - 1);
            let (near, far) = (line + rng.range_u64(16), line + 64 + rng.range_u64(32));
            let kind = rng.range_u64(7);
            for l in 0..WARP_SIZE {
                let lane = l as u64;
                let v = match kind {
                    0 | 1 => base + lane * stride + rng.range_u64(2) * rng.range_u64(9),
                    2 => ((l as f32 - 7.5) * 1.25).to_bits() as u64,
                    3 if active >> l & 1 == 1 => uniform,
                    // Every lane inside one line's first 86 bytes.
                    4 => near + lane * rng.range_u64(3),
                    // From the middle of a line on, mostly into the next.
                    5 => far + lane * 2 * (1 + rng.range_u64(2)),
                    _ => rng.next_u64(),
                };
                w.set_reg(Reg(r), l, v);
            }
        }
        for p in 0..NUM_PREGS {
            w.write_pred(Pred(p as u8), u32::MAX, mask(rng));
        }
        if rng.chance(0.5) {
            w.take_branch(rng.next_u32() & active, 5, 1, 8);
        }
        w
    }

    fn memory(rng: &mut Rng64) -> FuncMem {
        let mut m = FuncMem::new();
        for base in [0x1_0000, 0x1_1000, 0x2_0000, SHARED_BASE + 0x1_0000] {
            if rng.chance(0.7) {
                m.load_image(base + rng.range_u64(64), &prop::bytes(rng, 3000));
            }
        }
        m
    }

    fn image(m: &FuncMem) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        m.save(&mut w);
        w.into_bytes()
    }

    fn assert_same(i: &Instr, new: &ExecOutcome, old: &Outcome, w_new: &Warp, w_old: &Warp) {
        assert_eq!(*new.lines_read, old.lines_read[..], "lines_read of {i:?}");
        assert_eq!(
            *new.lines_written,
            old.lines_written[..],
            "lines_written of {i:?}"
        );
        assert_eq!(
            (new.shared_access, new.dst, new.at_barrier),
            (old.shared_access, old.dst, old.at_barrier),
            "outcome of {i:?}"
        );
        // Debug prints registers, predicates, the whole SIMT stack, `done`
        // and `at_barrier`.
        assert_eq!(
            format!("{w_new:?}"),
            format!("{w_old:?}"),
            "warp after {i:?}"
        );
    }

    #[test]
    fn rows_match_the_per_lane_oracle() {
        prop::check(0xCABA_0014, 1500, |rng| {
            let params = [addr_base(rng), rng.next_u64()];
            let ctx = ThreadCtx {
                block_dim: 64,
                grid_dim: 4,
                params: &params[..rng.range_u64(3) as usize],
                ctaid: 2,
                warp_in_block: 1,
                shared_base: SHARED_BASE,
            };
            let (mut w_new, mut m_new) = (warp(rng), memory(rng));
            let (mut w_old, mut m_old) = (w_new.clone(), m_new.clone());
            let program: Vec<Instr> = (0..1 + rng.range_u64(4)).map(|_| instr(rng)).collect();
            let mut run = |new: &mut SharedMem<'_>, old: &mut SharedMem<'_>| {
                for i in &program {
                    if w_old.done {
                        break;
                    }
                    let o_new = execute_rows(&mut w_new, i, &ctx, new);
                    let o_old = execute(&mut w_old, i, &ctx, old);
                    assert_same(i, &o_new, &o_old, &w_new, &w_old);
                }
            };
            if rng.chance(0.5) {
                run(
                    &mut SharedMem::Direct(&mut m_new),
                    &mut SharedMem::Direct(&mut m_old),
                );
            } else {
                // This SM already wrote this cycle: a non-empty shadow.
                let (mut d_new, mut d_old) = (MemDelta::new(), MemDelta::new());
                let shadowed = prop::bytes(rng, 200);
                for (base, delta) in [(&m_new, &mut d_new), (&m_old, &mut d_old)] {
                    let mut view = SharedMem::Overlay { base, delta };
                    view.load_image(NEAR_PAGE_END - 100, &shadowed);
                    view.write_u32(0x2_0040, 0xDEAD_BEEF);
                }
                run(
                    &mut SharedMem::Overlay {
                        base: &m_new,
                        delta: &mut d_new,
                    },
                    &mut SharedMem::Overlay {
                        base: &m_old,
                        delta: &mut d_old,
                    },
                );
                d_new.commit(&mut m_new);
                d_old.commit(&mut m_old);
            }
            assert_eq!(m_new.resident_pages(), m_old.resident_pages());
            assert!(image(&m_new) == image(&m_old), "memory differs");
        });
    }
}
