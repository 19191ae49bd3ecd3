//! Functional execution of one instruction for one warp.
//!
//! Values are computed at issue time against the functional memory
//! ([`FuncMem`](caba_mem::FuncMem)); the timing model independently
//! schedules scoreboard release. The outcome reports everything the timing
//! model needs: which global lines were touched (already coalesced),
//! whether shared memory was accessed, and control-flow effects.

use crate::warp::Warp;
use caba_isa::exec::{alu_row, cmp_mask, falu_row, sfu_row, truncate, Row};
use caba_isa::{Instr, Op, PBoolOp, Space, Special, Src, WARP_SIZE};
use caba_mem::{line_base, SharedMem};

/// Per-warp launch context for special values.
#[derive(Debug, Clone)]
pub struct ThreadCtx<'a> {
    /// Threads per block.
    pub block_dim: u32,
    /// Blocks in the grid.
    pub grid_dim: u32,
    /// Kernel parameters.
    pub params: &'a [u64],
    /// This warp's block index.
    pub ctaid: u32,
    /// This warp's index within its block.
    pub warp_in_block: u32,
    /// Base address of this block's shared-memory window (shared-space
    /// addresses are offsets into it).
    pub shared_base: u64,
}

impl ThreadCtx<'_> {
    fn special(&self, s: Special, lane: usize) -> u64 {
        match s {
            Special::Tid => (self.warp_in_block as u64 * WARP_SIZE as u64) + lane as u64,
            Special::Ctaid => self.ctaid as u64,
            Special::Ntid => self.block_dim as u64,
            Special::Nctaid => self.grid_dim as u64,
            Special::Lane => lane as u64,
            Special::WarpInBlock => self.warp_in_block as u64,
            Special::Param(i) => self.params.get(i as usize).copied().unwrap_or(0),
        }
    }
}

/// Coalesced line addresses (deduplicated, in first-touch order), stored
/// inline: a warp instruction touches at most two lines per lane.
#[derive(Clone, Copy)]
pub struct LineList {
    len: u8,
    lines: [u64; 2 * WARP_SIZE],
}

impl Default for LineList {
    fn default() -> Self {
        LineList {
            len: 0,
            lines: [0; 2 * WARP_SIZE],
        }
    }
}

impl std::ops::Deref for LineList {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.lines[..self.len as usize]
    }
}

impl std::fmt::Debug for LineList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl LineList {
    /// Appends the line containing `addr` unless already listed.
    fn push(&mut self, addr: u64) {
        let base = line_base(addr);
        // Coalesced accesses repeat the newest line; check it first.
        if self.last() != Some(&base) && !self.contains(&base) {
            self.lines[self.len as usize] = base;
            self.len += 1;
        }
    }

    /// Lists the lines of the `n`-byte accesses at `addrs` in lanes `mask`.
    fn push_lanes(&mut self, mask: u32, addrs: &Row, n: u64) {
        for l in lanes(mask) {
            self.push(addrs[l]);
            if n > 1 {
                self.push(addrs[l] + n - 1);
            }
        }
    }
}

/// Everything the timing model needs to know about an executed instruction.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// Coalesced global line addresses read — each is one LSU line
    /// operation.
    pub lines_read: LineList,
    /// Coalesced global line addresses written.
    pub lines_written: LineList,
    /// True for shared-space (scratchpad) accesses.
    pub shared_access: bool,
    /// Destination register, when the instruction writes one.
    pub dst: Option<caba_isa::Reg>,
    /// The warp reached a barrier.
    pub at_barrier: bool,
}

fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    (0..WARP_SIZE).filter(move |&l| mask >> l & 1 == 1)
}

fn src_value(warp: &Warp, ctx: &ThreadCtx<'_>, s: Src, lane: usize) -> u64 {
    match s {
        Src::Reg(r) => warp.reg(r, lane),
        Src::Imm(v) => v,
        Src::Sp(sp) => ctx.special(sp, lane),
    }
}

/// Resolves an operand once for the whole warp.
fn src_row(warp: &Warp, ctx: &ThreadCtx<'_>, s: Src) -> Row {
    match s {
        Src::Reg(r) => *warp.reg_row(r),
        Src::Imm(v) => [v; WARP_SIZE],
        Src::Sp(sp) => std::array::from_fn(|l| ctx.special(sp, l)),
    }
}

/// Per-lane effective addresses of a `Ld`/`St`.
fn effective_addrs(warp: &Warp, ctx: &ThreadCtx<'_>, space: Space, addr: Src, offset: i64) -> Row {
    let window = match space {
        Space::Global => 0,
        Space::Shared => ctx.shared_base,
    };
    src_row(warp, ctx, addr).map(|a| window.wrapping_add(a.wrapping_add_signed(offset)))
}

/// Lane `l` of a packed access addresses `base + l·k`, with the base taken
/// from the first executing lane (warp-uniform).
fn packed_addrs(warp: &Warp, ctx: &ThreadCtx<'_>, base: Src, k: u8, exec: u32) -> Row {
    let b = src_value(warp, ctx, base, exec.trailing_zeros() as usize);
    std::array::from_fn(|l| b + l as u64 * k as u64)
}

/// Executes `instr` functionally for `warp`, updating registers, predicates,
/// control flow, and `mem`.
///
/// Operands resolve into warp-wide rows and every lane is computed; only the
/// lanes that execute (active ∧ guard) are written back.
///
/// Returns the [`ExecOutcome`] the timing model consumes. The caller is
/// responsible for charging latencies and, for global accesses, for driving
/// the memory hierarchy with `lines_read`/`lines_written`.
pub fn execute(
    warp: &mut Warp,
    instr: &Instr,
    ctx: &ThreadCtx<'_>,
    mem: &mut SharedMem<'_>,
) -> ExecOutcome {
    let mut out = ExecOutcome::default();
    execute_into(warp, instr, ctx, mem, &mut out);
    out
}

/// [`execute`] into caller-owned storage: the issue loop keeps one
/// [`ExecOutcome`] per SM rather than clearing and moving its two inline
/// line lists for every instruction.
pub fn execute_into(
    warp: &mut Warp,
    instr: &Instr,
    ctx: &ThreadCtx<'_>,
    mem: &mut SharedMem<'_>,
    out: &mut ExecOutcome,
) {
    let exec = warp.exec_mask(instr);
    let active = warp.active_mask();
    out.lines_read.len = 0;
    out.lines_written.len = 0;
    out.shared_access = false;
    out.at_barrier = false;
    out.dst = instr.dst_reg();

    match instr.op {
        Op::Alu { op, dst, a, b } => {
            let r = alu_row(op, &src_row(warp, ctx, a), &src_row(warp, ctx, b));
            warp.write_row(dst, exec, &r);
        }
        Op::FAlu { op, dst, a, b } => {
            let r = falu_row(op, &src_row(warp, ctx, a), &src_row(warp, ctx, b));
            warp.write_row(dst, exec, &r);
        }
        Op::Sfu { op, dst, a } => {
            let r = sfu_row(op, &src_row(warp, ctx, a));
            warp.write_row(dst, exec, &r);
        }
        Op::SetP { pred, cmp, a, b } => {
            let bits = cmp_mask(cmp, &src_row(warp, ctx, a), &src_row(warp, ctx, b));
            warp.write_pred(pred, exec, bits);
        }
        Op::PBool { dst, op, a, b } => {
            let va = warp.pred_mask(a, true, exec);
            let vb = warp.pred_mask(b, true, exec);
            let bits = match op {
                PBoolOp::And => va & vb,
                PBoolOp::Or => va | vb,
                PBoolOp::AndNot => va & !vb,
                PBoolOp::Not => !va,
                PBoolOp::Mov => va,
            };
            warp.write_pred(dst, exec, bits);
        }
        Op::VoteAll { dst, src } => {
            // Warp-wide AND over executing lanes — the global predicate
            // register of §4.1.2.
            let all = warp.pred_mask(src, true, exec) == exec;
            warp.write_pred(dst, exec, if all { exec } else { 0 });
        }
        Op::VoteAny { dst, src } => {
            let any = warp.pred_mask(src, true, exec) != 0;
            warp.write_pred(dst, exec, if any { exec } else { 0 });
        }
        Op::Ballot { dst, src } => {
            let ballot = warp.pred_mask(src, true, exec) as u64;
            warp.write_row(dst, exec, &[ballot; WARP_SIZE]);
        }
        Op::FindFirst { dst, src } => {
            let set = warp.pred_mask(src, true, exec);
            warp.write_pred(dst, exec, set & set.wrapping_neg());
        }
        Op::Selp { dst, a, b, pred } => {
            let (va, vb) = (src_row(warp, ctx, a), src_row(warp, ctx, b));
            let p = warp.pred_mask(pred, true, exec);
            let r = std::array::from_fn(|l| if p >> l & 1 == 1 { va[l] } else { vb[l] });
            warp.write_row(dst, exec, &r);
        }
        Op::Ld {
            space,
            width,
            dst,
            addr,
            offset,
        } => {
            let n = width.bytes() as usize;
            let ea = effective_addrs(warp, ctx, space, addr, offset);
            let mut r = [0; WARP_SIZE];
            mem.read_lanes(n, exec, &ea, &mut r);
            warp.write_row(dst, exec, &r);
            match space {
                Space::Global => out.lines_read.push_lanes(exec, &ea, n as u64),
                Space::Shared => out.shared_access = true,
            }
        }
        Op::St {
            space,
            width,
            src,
            addr,
            offset,
        } => {
            let n = width.bytes() as usize;
            let ea = effective_addrs(warp, ctx, space, addr, offset);
            let vals = src_row(warp, ctx, src).map(|v| truncate(v, n as u64));
            mem.write_lanes(n, exec, &ea, &vals);
            match space {
                Space::Global => out.lines_written.push_lanes(exec, &ea, n as u64),
                Space::Shared => out.shared_access = true,
            }
        }
        Op::LdPacked { k, dst, base } if exec != 0 => {
            let ea = packed_addrs(warp, ctx, base, k, exec);
            let mut r = [0; WARP_SIZE];
            mem.read_lanes(k as usize, exec, &ea, &mut r);
            warp.write_row(dst, exec, &r);
            out.lines_read.push(ea[0]);
            out.lines_read
                .push(ea[0] + (WARP_SIZE as u64) * k as u64 - 1);
        }
        Op::StPacked { k, src, base } if exec != 0 => {
            let ea = packed_addrs(warp, ctx, base, k, exec);
            let vals = src_row(warp, ctx, src).map(|v| truncate(v, k as u64));
            mem.write_lanes(k as usize, exec, &ea, &vals);
            out.lines_written.push(ea[0]);
            out.lines_written
                .push(ea[0] + (WARP_SIZE as u64) * k as u64 - 1);
        }
        Op::Bra { target, reconv } => {
            let next = warp.pc() + 1;
            // Guard lanes take the branch; exec already folds the guard in.
            let taken = if instr.guard.is_some() { exec } else { active };
            warp.take_branch(taken, target, next, reconv);
            return;
        }
        Op::Bar => {
            out.at_barrier = true;
            warp.at_barrier = true;
        }
        Op::Exit => {
            warp.exit_lanes(exec);
            if warp.done || exec == active {
                return;
            }
            // Non-exiting lanes continue past the Exit.
        }
        Op::LdPacked { .. } | Op::StPacked { .. } | Op::Nop => {}
    }
    warp.advance_pc();
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::FULL_MASK;
    use caba_isa::{AluOp, CmpOp, Pred, Reg, Width};
    use caba_mem::FuncMem;

    fn ctx(params: &[u64]) -> ThreadCtx<'_> {
        ThreadCtx {
            block_dim: 64,
            grid_dim: 4,
            params,
            ctaid: 2,
            warp_in_block: 1,
            shared_base: 0x8000_0000,
        }
    }

    fn alu(op: AluOp, dst: u16, a: Src, b: Src) -> Instr {
        Instr::new(Op::Alu {
            op,
            dst: Reg(dst),
            a,
            b,
        })
    }

    #[test]
    fn specials_resolve_per_lane() {
        let mut w = Warp::new(4, FULL_MASK);
        let mut m = FuncMem::new();
        let c = ctx(&[0xAA, 0xBB]);
        execute(
            &mut w,
            &alu(AluOp::Mov, 0, Src::Sp(Special::Tid), Src::Imm(0)),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        // warp_in_block=1 -> tids 32..64
        assert_eq!(w.reg(Reg(0), 0), 32);
        assert_eq!(w.reg(Reg(0), 31), 63);
        execute(
            &mut w,
            &alu(AluOp::Mov, 1, Src::Sp(Special::Param(1)), Src::Imm(0)),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        assert_eq!(w.reg(Reg(1), 5), 0xBB);
        execute(
            &mut w,
            &alu(AluOp::Mov, 2, Src::Sp(Special::Lane), Src::Imm(0)),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        assert_eq!(w.reg(Reg(2), 9), 9);
        assert_eq!(w.pc(), 3);
    }

    #[test]
    fn guarded_lanes_skip() {
        let mut w = Warp::new(2, FULL_MASK);
        let mut m = FuncMem::new();
        let c = ctx(&[]);
        w.set_pred(Pred(0), 3, true);
        let i = Instr::guarded(
            Op::Alu {
                op: AluOp::Mov,
                dst: Reg(0),
                a: Src::Imm(9),
                b: Src::Imm(0),
            },
            Pred(0),
            true,
        );
        execute(&mut w, &i, &c, &mut SharedMem::Direct(&mut m));
        assert_eq!(w.reg(Reg(0), 3), 9);
        assert_eq!(w.reg(Reg(0), 4), 0);
    }

    #[test]
    fn coalesced_load_touches_one_line() {
        let mut w = Warp::new(2, FULL_MASK);
        let mut m = FuncMem::new();
        for l in 0..32u64 {
            m.write_u32(0x1000 + l * 4, l as u32 * 10);
        }
        let c = ctx(&[]);
        // addr reg = 0x1000 + lane*4
        execute(
            &mut w,
            &alu(AluOp::Mov, 0, Src::Sp(Special::Lane), Src::Imm(0)),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        execute(
            &mut w,
            &alu(AluOp::Shl, 0, Src::Reg(Reg(0)), Src::Imm(2)),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        execute(
            &mut w,
            &alu(AluOp::Add, 0, Src::Reg(Reg(0)), Src::Imm(0x1000)),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        let out = execute(
            &mut w,
            &Instr::new(Op::Ld {
                space: Space::Global,
                width: Width::B4,
                dst: Reg(1),
                addr: Src::Reg(Reg(0)),
                offset: 0,
            }),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        assert_eq!(*out.lines_read, [0x1000]);
        assert_eq!(w.reg(Reg(1), 7), 70);
        assert_eq!(out.dst, Some(Reg(1)));
    }

    #[test]
    fn scattered_load_touches_many_lines() {
        let mut w = Warp::new(2, FULL_MASK);
        let mut m = FuncMem::new();
        let c = ctx(&[]);
        // addr = lane * 1024 -> 32 distinct lines
        execute(
            &mut w,
            &alu(AluOp::Mov, 0, Src::Sp(Special::Lane), Src::Imm(0)),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        execute(
            &mut w,
            &alu(AluOp::Shl, 0, Src::Reg(Reg(0)), Src::Imm(10)),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        let out = execute(
            &mut w,
            &Instr::new(Op::Ld {
                space: Space::Global,
                width: Width::B4,
                dst: Reg(1),
                addr: Src::Reg(Reg(0)),
                offset: 0,
            }),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        assert_eq!(out.lines_read.len(), 32);
    }

    #[test]
    fn shared_accesses_use_shared_window_and_no_lines() {
        let mut w = Warp::new(2, 1); // single lane
        let mut m = FuncMem::new();
        let c = ctx(&[]);
        let st = Instr::new(Op::St {
            space: Space::Shared,
            width: Width::B4,
            src: Src::Imm(77),
            addr: Src::Imm(16),
            offset: 0,
        });
        let out = execute(&mut w, &st, &c, &mut SharedMem::Direct(&mut m));
        assert!(out.shared_access);
        assert!(out.lines_written.is_empty());
        assert_eq!(m.read_u32(0x8000_0000 + 16), 77);
        let ld = Instr::new(Op::Ld {
            space: Space::Shared,
            width: Width::B4,
            dst: Reg(0),
            addr: Src::Imm(16),
            offset: 0,
        });
        let out = execute(&mut w, &ld, &c, &mut SharedMem::Direct(&mut m));
        assert!(out.shared_access);
        assert_eq!(w.reg(Reg(0), 0), 77);
    }

    #[test]
    fn packed_ops_round_trip() {
        let mut w = Warp::new(3, FULL_MASK);
        let mut m = FuncMem::new();
        let c = ctx(&[]);
        // Each lane holds lane*3 in r0; store 2 bytes per lane at 0x2000.
        execute(
            &mut w,
            &alu(AluOp::Mov, 0, Src::Sp(Special::Lane), Src::Imm(0)),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        execute(
            &mut w,
            &alu(AluOp::Mul, 0, Src::Reg(Reg(0)), Src::Imm(3)),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        let st = Instr::new(Op::StPacked {
            k: 2,
            src: Src::Reg(Reg(0)),
            base: Src::Imm(0x2000),
        });
        let out = execute(&mut w, &st, &c, &mut SharedMem::Direct(&mut m));
        assert_eq!(*out.lines_written, [0x2000]);
        let ld = Instr::new(Op::LdPacked {
            k: 2,
            dst: Reg(1),
            base: Src::Imm(0x2000),
        });
        execute(&mut w, &ld, &c, &mut SharedMem::Direct(&mut m));
        for l in 0..32 {
            assert_eq!(w.reg(Reg(1), l), (l as u64) * 3);
        }
    }

    #[test]
    fn vote_all_is_warp_wide_and() {
        let mut w = Warp::new(1, FULL_MASK);
        let mut m = FuncMem::new();
        let c = ctx(&[]);
        // P0 true except lane 13.
        for l in 0..32 {
            w.set_pred(Pred(0), l, l != 13);
        }
        execute(
            &mut w,
            &Instr::new(Op::VoteAll {
                dst: Pred(1),
                src: Pred(0),
            }),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        assert!(!w.pred(Pred(1), 0));
        execute(
            &mut w,
            &Instr::new(Op::VoteAny {
                dst: Pred(2),
                src: Pred(0),
            }),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        assert!(w.pred(Pred(2), 20));
    }

    #[test]
    fn setp_and_selp() {
        let mut w = Warp::new(2, FULL_MASK);
        let mut m = FuncMem::new();
        let c = ctx(&[]);
        execute(
            &mut w,
            &alu(AluOp::Mov, 0, Src::Sp(Special::Lane), Src::Imm(0)),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        execute(
            &mut w,
            &Instr::new(Op::SetP {
                pred: Pred(0),
                cmp: CmpOp::LtU,
                a: Src::Reg(Reg(0)),
                b: Src::Imm(16),
            }),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        execute(
            &mut w,
            &Instr::new(Op::Selp {
                dst: Reg(1),
                a: Src::Imm(1),
                b: Src::Imm(2),
                pred: Pred(0),
            }),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        assert_eq!(w.reg(Reg(1), 3), 1);
        assert_eq!(w.reg(Reg(1), 30), 2);
    }

    #[test]
    fn exit_retires_warp() {
        let mut w = Warp::new(1, FULL_MASK);
        let mut m = FuncMem::new();
        let c = ctx(&[]);
        execute(
            &mut w,
            &Instr::new(Op::Exit),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        assert!(w.done);
    }

    #[test]
    fn barrier_flags_warp() {
        let mut w = Warp::new(1, FULL_MASK);
        let mut m = FuncMem::new();
        let c = ctx(&[]);
        let out = execute(
            &mut w,
            &Instr::new(Op::Bar),
            &c,
            &mut SharedMem::Direct(&mut m),
        );
        assert!(out.at_barrier);
        assert!(w.at_barrier);
        assert_eq!(w.pc(), 1);
    }
}
