//! The SIMT instruction set executed by the CABA GPU model.
//!
//! The paper's assist warps are "a set of instructions issued into the core
//! pipelines … executed in lock-step across all the SIMT lanes, just like any
//! regular instruction, with an active mask to disable lanes as necessary"
//! (§3.2.1). To reproduce that faithfully we define a small PTX-like ISA that
//! both the synthetic application kernels (`caba-workloads`) and the CABA
//! compression/decompression subroutines (`caba_sim::caba`) are written in,
//! and that the simulator (`caba-sim`) executes functionally and times.
//!
//! Highlights relevant to the paper:
//!
//! * [`Op::VoteAll`] — the warp-wide AND of per-lane predicates ("global
//!   predicate register", §4.1.2) used by the BDI compression subroutine to
//!   check that *every* word in a cache line fits an encoding.
//! * [`Op::LdPacked`] / [`Op::StPacked`] — variable-size per-lane accesses
//!   `base + lane·k`, modelling the reuse of the coalescing/address-generation
//!   logic for variable-length compressed words (§4.1.3).
//! * Explicit reconvergence PCs on branches, so the simulator's SIMT stack
//!   mirrors a real post-dominator-based reconvergence mechanism.
//!
//! # Examples
//!
//! Build a one-instruction kernel that stores each thread's global id:
//!
//! ```
//! use caba_isa::{ProgramBuilder, Reg, Src, Special, Width, Space};
//!
//! let mut b = ProgramBuilder::new();
//! let tid = Reg(0);
//! let addr = Reg(1);
//! b.global_thread_id(tid);
//! b.alu(caba_isa::AluOp::Shl, addr, Src::Reg(tid), Src::Imm(2));
//! b.alu(caba_isa::AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(0)));
//! b.st(Space::Global, Width::B4, Src::Reg(tid), Src::Reg(addr), 0);
//! b.exit();
//! let program = b.build();
//! assert!(program.len() > 0);
//! ```

pub mod builder;
pub mod exec;
pub mod kernel;

pub use builder::{Label, ProgramBuilder};
pub use kernel::{Kernel, LaunchDims};

/// Number of threads (lanes) per warp, fixed at 32 as in Table 1.
pub const WARP_SIZE: usize = 32;

/// A per-lane general-purpose register index.
///
/// Registers are 64 bits wide in the model; 32-bit operations use the low
/// half. Kernels declare how many registers each thread needs — the same
/// number the compiler would report for occupancy calculations (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

/// A per-lane 1-bit predicate register index (four per thread, like PTX's
/// `%p0..%p3` subset we need).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred(pub u8);

/// Number of predicate registers per thread.
pub const NUM_PREGS: usize = 4;

/// Read-only per-thread special values (PTX special registers + kernel
/// parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Special {
    /// Thread index within its block.
    Tid,
    /// Block index within the grid.
    Ctaid,
    /// Threads per block.
    Ntid,
    /// Blocks in the grid.
    Nctaid,
    /// Lane index within the warp (0..32).
    Lane,
    /// Warp index within the block.
    WarpInBlock,
    /// Kernel launch parameter `n` (64-bit, e.g. an array base address).
    Param(u8),
}

/// An instruction source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// A general-purpose register.
    Reg(Reg),
    /// A 64-bit immediate.
    Imm(u64),
    /// A special value.
    Sp(Special),
}

impl From<Reg> for Src {
    fn from(r: Reg) -> Src {
        Src::Reg(r)
    }
}

/// Memory space of a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Off-chip global memory, cached in L1/L2.
    Global,
    /// On-chip per-block shared memory (scratchpad).
    Shared,
}

/// Access width of a load or store, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl Width {
    /// Width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::B1 => 1,
            Width::B2 => 2,
            Width::B4 => 4,
            Width::B8 => 8,
        }
    }

    /// The width that holds exactly `n` bytes, if any.
    pub fn from_bytes(n: u64) -> Option<Width> {
        match n {
            1 => Some(Width::B1),
            2 => Some(Width::B2),
            4 => Some(Width::B4),
            8 => Some(Width::B8),
            _ => None,
        }
    }
}

/// Integer/logical ALU operations (64-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low 64 bits).
    Mul,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount masked to 6 bits).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    /// Move `a` (ignores `b`).
    Mov,
    /// Unsigned remainder; `x % 0 == x` (so workloads can never fault).
    Rem,
    /// Unsigned division; `x / 0 == 0`.
    Div,
}

/// Single-precision float operations (on the low 32 bits of registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FAluOp {
    /// `a + b`.
    FAdd,
    /// `a - b`.
    FSub,
    /// `a * b`.
    FMul,
    /// Float-to-signed-int conversion (ignores `b`).
    F2I,
    /// Signed-int-to-float conversion (ignores `b`).
    I2F,
}

/// Special Function Unit operations — long-latency transcendental ops that
/// contribute to the data-dependence stalls the paper notes for `dmr` (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SfuOp {
    /// Approximate reciprocal.
    Rcp,
    /// Approximate reciprocal square root.
    Rsqrt,
    /// Sine.
    Sin,
    /// Base-2 exponential.
    Ex2,
    /// Base-2 logarithm.
    Lg2,
}

/// Comparison operator for [`Op::SetP`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    LtS,
    /// Signed less-or-equal.
    LeS,
    /// Signed greater-than.
    GtS,
    /// Signed greater-or-equal.
    GeS,
    /// Unsigned less-than.
    LtU,
    /// Unsigned greater-or-equal.
    GeU,
}

/// Boolean combination for predicate registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PBoolOp {
    /// `a & b`.
    And,
    /// `a | b`.
    Or,
    /// `a & !b`.
    AndNot,
    /// `!a` (ignores `b`).
    Not,
    /// Copy `a` (ignores `b`).
    Mov,
}

/// The operation performed by an [`Instr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Integer ALU operation `dst = op(a, b)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First operand.
        a: Src,
        /// Second operand.
        b: Src,
    },
    /// Float operation `dst = op(a, b)` on 32-bit lanes.
    FAlu {
        /// Operation.
        op: FAluOp,
        /// Destination register.
        dst: Reg,
        /// First operand.
        a: Src,
        /// Second operand.
        b: Src,
    },
    /// Special-function-unit operation `dst = op(a)`.
    Sfu {
        /// Operation.
        op: SfuOp,
        /// Destination register.
        dst: Reg,
        /// Operand.
        a: Src,
    },
    /// Predicate set `pred = a <cmp> b` per lane.
    SetP {
        /// Destination predicate.
        pred: Pred,
        /// Comparison.
        cmp: CmpOp,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
    },
    /// Predicate boolean combine `dst = op(a, b)` per lane.
    PBool {
        /// Destination predicate.
        dst: Pred,
        /// Operation.
        op: PBoolOp,
        /// First source predicate.
        a: Pred,
        /// Second source predicate (ignored by `Not`/`Mov`).
        b: Pred,
    },
    /// Warp-wide AND of `src` over *active* lanes, broadcast into `dst` of
    /// every active lane — the "global predicate register" of §4.1.2.
    VoteAll {
        /// Destination predicate (broadcast).
        dst: Pred,
        /// Source predicate.
        src: Pred,
    },
    /// Warp-wide OR of `src` over active lanes, broadcast into `dst`.
    VoteAny {
        /// Destination predicate (broadcast).
        dst: Pred,
        /// Source predicate.
        src: Pred,
    },
    /// Warp ballot (Fermi `__ballot()`): `dst` in every executing lane
    /// receives the 32-bit mask of executing lanes whose `src` predicate is
    /// true. The BDI compression subroutine uses this to materialize the
    /// base-select mask bytes of the payload (§4.1.2).
    Ballot {
        /// Destination register (broadcast mask).
        dst: Reg,
        /// Source predicate.
        src: Pred,
    },
    /// Priority-encoded vote: `dst` is true only in the lowest-indexed
    /// executing lane where `src` is true (derivable from the ballot
    /// network). Used to elect the explicit-base lane during compression.
    FindFirst {
        /// Destination predicate.
        dst: Pred,
        /// Source predicate.
        src: Pred,
    },
    /// Select `dst = pred ? a : b` per lane.
    Selp {
        /// Destination register.
        dst: Reg,
        /// Value when predicate is true.
        a: Src,
        /// Value when predicate is false.
        b: Src,
        /// Selector predicate.
        pred: Pred,
    },
    /// Load `dst = mem[addr + offset]`, zero-extended.
    Ld {
        /// Memory space.
        space: Space,
        /// Access width.
        width: Width,
        /// Destination register.
        dst: Reg,
        /// Address operand (per-lane).
        addr: Src,
        /// Constant byte offset.
        offset: i64,
    },
    /// Store `mem[addr + offset] = src` (low `width` bytes).
    St {
        /// Memory space.
        space: Space,
        /// Access width.
        width: Width,
        /// Value to store.
        src: Src,
        /// Address operand (per-lane).
        addr: Src,
        /// Constant byte offset.
        offset: i64,
    },
    /// Packed load: lane `i` loads `k` bytes at `base + i·k` (zero-extended).
    /// `k` may be 1, 2, 4 or 8. Models coalescer-assisted variable-width
    /// gathers used by compression subroutines (§4.1.3).
    LdPacked {
        /// Bytes per lane (1, 2, 4 or 8).
        k: u8,
        /// Destination register.
        dst: Reg,
        /// Warp-uniform base address (lane 0's value is used).
        base: Src,
    },
    /// Packed store: lane `i` stores the low `k` bytes at `base + i·k`.
    StPacked {
        /// Bytes per lane (1, 2, 4 or 8).
        k: u8,
        /// Value to store.
        src: Src,
        /// Warp-uniform base address (lane 0's value is used).
        base: Src,
    },
    /// Branch to `target`. If the instruction is guarded, lanes whose guard
    /// fails fall through, possibly diverging; `reconv` is the immediate
    /// post-dominator where the warp re-converges.
    Bra {
        /// Branch target PC.
        target: usize,
        /// Reconvergence PC.
        reconv: usize,
    },
    /// Block-wide barrier.
    Bar,
    /// Thread exit.
    Exit,
    /// No operation.
    Nop,
}

/// Functional-unit class an instruction issues to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// The 32-wide SP/ALU pipeline.
    Sp,
    /// The special function unit.
    Sfu,
    /// The load/store (memory) pipeline.
    Mem,
}

/// A guarded machine instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instr {
    /// The operation.
    pub op: Op,
    /// Optional guard: the instruction executes in a lane only when
    /// `pred == polarity` there. A guarded [`Op::Bra`] is a conditional
    /// branch.
    pub guard: Option<(Pred, bool)>,
}

impl Instr {
    /// An unguarded instruction.
    pub fn new(op: Op) -> Self {
        Instr { op, guard: None }
    }

    /// A guarded instruction (executes where `pred == polarity`).
    pub fn guarded(op: Op, pred: Pred, polarity: bool) -> Self {
        Instr {
            op,
            guard: Some((pred, polarity)),
        }
    }

    /// Which pipeline this instruction issues to.
    pub fn fu_class(&self) -> FuClass {
        match self.op {
            Op::Sfu { .. } => FuClass::Sfu,
            Op::Ld { .. } | Op::St { .. } | Op::LdPacked { .. } | Op::StPacked { .. } => {
                FuClass::Mem
            }
            _ => FuClass::Sp,
        }
    }

    /// True when this instruction steers control flow or computes the
    /// predicate/reconvergence state that does: branches, barriers, exits,
    /// and the predicate-producing machinery (`SetP`, `PBool`, votes,
    /// ballots, priority encode). The simulator's Fig. 1 accounting uses
    /// this to attribute scoreboard stalls on such instructions to the
    /// control-reconvergence bucket rather than the generic pipeline one.
    pub fn steers_control(&self) -> bool {
        matches!(
            self.op,
            Op::Bra { .. }
                | Op::Bar
                | Op::Exit
                | Op::SetP { .. }
                | Op::PBool { .. }
                | Op::VoteAll { .. }
                | Op::VoteAny { .. }
                | Op::Ballot { .. }
                | Op::FindFirst { .. }
        )
    }

    /// Destination register written by this instruction, if any.
    pub fn dst_reg(&self) -> Option<Reg> {
        match self.op {
            Op::Alu { dst, .. }
            | Op::FAlu { dst, .. }
            | Op::Sfu { dst, .. }
            | Op::Selp { dst, .. }
            | Op::Ld { dst, .. }
            | Op::Ballot { dst, .. }
            | Op::LdPacked { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Source registers read by this instruction, as a fixed-size array
    /// (`None` in unused positions), so the per-cycle scoreboard hazard check
    /// does not allocate.
    pub fn src_regs_fixed(&self) -> [Option<Reg>; 3] {
        fn reg(s: Src) -> Option<Reg> {
            match s {
                Src::Reg(r) => Some(r),
                _ => None,
            }
        }
        match self.op {
            Op::Alu { a, b, .. } | Op::FAlu { a, b, .. } | Op::SetP { a, b, .. } => {
                [reg(a), reg(b), None]
            }
            Op::Sfu { a, .. } => [reg(a), None, None],
            Op::Selp { a, b, .. } => [reg(a), reg(b), None],
            Op::Ld { addr, .. } => [reg(addr), None, None],
            Op::St { src, addr, .. } => [reg(src), reg(addr), None],
            Op::LdPacked { base, .. } => [reg(base), None, None],
            Op::StPacked { src, base, .. } => [reg(src), reg(base), None],
            Op::PBool { .. }
            | Op::VoteAll { .. }
            | Op::VoteAny { .. }
            | Op::Ballot { .. }
            | Op::FindFirst { .. }
            | Op::Bra { .. }
            | Op::Bar
            | Op::Exit
            | Op::Nop => [None; 3],
        }
    }

    /// Every register the instruction reads or writes.
    fn regs(&self) -> impl Iterator<Item = Reg> {
        let srcs = self.src_regs_fixed().into_iter();
        srcs.chain([self.dst_reg()]).flatten()
    }
}

/// What the issue stage asks of an instruction every time it considers it,
/// decoded once when the [`Program`] is built (the AWB stages assist-warp
/// instructions decoded the same way, §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueMeta {
    /// Bit `r` for every register `r < 64` the instruction reads or writes.
    regs: u64,
    /// It names a register at or above 64, which `regs` cannot hold.
    wide: bool,
    /// [`Instr::fu_class`].
    pub fu: FuClass,
    /// A shared-space `Ld`/`St`: it needs the memory issue slot but no
    /// line-op queue space.
    pub shared_space: bool,
    /// [`Instr::steers_control`].
    pub steers: bool,
}

impl IssueMeta {
    fn of(i: &Instr) -> Self {
        let (mut regs, mut wide) = (0, false);
        for Reg(r) in i.regs() {
            match r {
                0..64 => regs |= 1 << r,
                _ => wide = true,
            }
        }
        let shared_space = match i.op {
            Op::Ld { space, .. } | Op::St { space, .. } => space == Space::Shared,
            _ => false,
        };
        IssueMeta {
            regs,
            wide,
            fu: i.fu_class(),
            shared_space,
            steers: i.steers_control(),
        }
    }

    /// The scoreboard's answer for a warp whose pending bits for registers
    /// 0..64 are `pending_low`: whether a source or destination awaits an
    /// in-flight producer. `None` when the instruction names a register the
    /// word does not cover; the caller then checks the instruction itself.
    #[inline]
    pub fn hazard(&self, pending_low: u64) -> Option<bool> {
        (!self.wide).then_some(self.regs & pending_low != 0)
    }
}

/// A straight-line-addressable sequence of instructions (one kernel body or
/// one assist-warp subroutine).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    instrs: Vec<Instr>,
    // Both derived from `instrs` at construction: the scheduler reads a meta
    // for every candidate it considers, assist deployment reads `max_reg`
    // for every launch.
    metas: Vec<IssueMeta>,
    max_reg: u16,
}

impl Program {
    /// Creates a program from raw instructions.
    ///
    /// # Panics
    ///
    /// Panics if any branch target or reconvergence PC is out of range.
    pub fn new(instrs: Vec<Instr>) -> Self {
        for (pc, i) in instrs.iter().enumerate() {
            if let Op::Bra { target, reconv } = i.op {
                assert!(
                    target <= instrs.len() && reconv <= instrs.len(),
                    "instruction {pc}: branch target {target}/reconv {reconv} out of range"
                );
            }
        }
        let regs = instrs.iter().flat_map(Instr::regs);
        let max_reg = regs.map(|Reg(r)| r + 1).max().unwrap_or(0);
        let metas = instrs.iter().map(IssueMeta::of).collect();
        Program {
            instrs,
            metas,
            max_reg,
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instruction at `pc`, or `None` past the end.
    pub fn fetch(&self, pc: usize) -> Option<&Instr> {
        self.instrs.get(pc)
    }

    /// The issue metadata of the instruction at `pc`, or `None` past the
    /// end.
    #[inline]
    pub fn fetch_meta(&self, pc: usize) -> Option<IssueMeta> {
        self.metas.get(pc).copied()
    }

    /// All instructions.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Highest register index used, plus one (a lower bound on the register
    /// footprint a compiler would allocate).
    pub fn max_reg(&self) -> u16 {
        self.max_reg
    }

    /// Deterministic content hash over the instruction sequence.
    ///
    /// Snapshots identify in-flight programs by this hash instead of
    /// serializing instruction encodings: subroutine programs are enumerable
    /// from the controller at restore time, so a hash lookup reconstructs
    /// the exact `Arc<Program>`. Uses the repo's seed-free `FxHasher`, so the
    /// value is stable across runs and platforms.
    pub fn content_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = caba_stats::fxhash::FxHasher::default();
        self.instrs.len().hash(&mut h);
        for i in &self.instrs {
            i.hash(&mut h);
        }
        h.finish()
    }
}

impl caba_stats::snap::SnapshotState for Reg {
    fn save(&self, w: &mut caba_stats::snap::SnapshotWriter) {
        w.u16(self.0);
    }
    fn load(
        r: &mut caba_stats::snap::SnapshotReader<'_>,
    ) -> Result<Self, caba_stats::snap::SnapError> {
        Ok(Reg(r.u16()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_classification() {
        let ld = Instr::new(Op::Ld {
            space: Space::Global,
            width: Width::B4,
            dst: Reg(0),
            addr: Src::Reg(Reg(1)),
            offset: 0,
        });
        assert_eq!(ld.fu_class(), FuClass::Mem);

        let sfu = Instr::new(Op::Sfu {
            op: SfuOp::Rcp,
            dst: Reg(2),
            a: Src::Reg(Reg(0)),
        });
        assert_eq!(sfu.fu_class(), FuClass::Sfu);

        let add = Instr::new(Op::Alu {
            op: AluOp::Add,
            dst: Reg(0),
            a: Src::Reg(Reg(1)),
            b: Src::Imm(1),
        });
        assert_eq!(add.fu_class(), FuClass::Sp);
    }

    #[test]
    fn src_and_dst_registers() {
        let i = Instr::new(Op::St {
            space: Space::Global,
            width: Width::B4,
            src: Src::Reg(Reg(3)),
            addr: Src::Reg(Reg(4)),
            offset: 8,
        });
        assert_eq!(i.dst_reg(), None);
        assert_eq!(i.src_regs_fixed(), [Some(Reg(3)), Some(Reg(4)), None]);
    }

    #[test]
    fn max_reg_counts_sources_and_dests() {
        let p = Program::new(vec![
            Instr::new(Op::Alu {
                op: AluOp::Add,
                dst: Reg(7),
                a: Src::Reg(Reg(2)),
                b: Src::Imm(0),
            }),
            Instr::new(Op::Exit),
        ]);
        assert_eq!(p.max_reg(), 8);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn branch_out_of_range_panics() {
        Program::new(vec![Instr::new(Op::Bra {
            target: 99,
            reconv: 0,
        })]);
    }

    #[test]
    fn width_round_trip() {
        for w in [Width::B1, Width::B2, Width::B4, Width::B8] {
            assert_eq!(Width::from_bytes(w.bytes()), Some(w));
        }
        assert_eq!(Width::from_bytes(3), None);
    }

    #[test]
    fn control_steering_classification() {
        let control = [
            Op::Bra {
                target: 0,
                reconv: 0,
            },
            Op::Bar,
            Op::Exit,
            Op::SetP {
                pred: Pred(0),
                cmp: CmpOp::Eq,
                a: Src::Reg(Reg(0)),
                b: Src::Imm(0),
            },
            Op::PBool {
                dst: Pred(0),
                op: PBoolOp::And,
                a: Pred(0),
                b: Pred(1),
            },
            Op::VoteAll {
                dst: Pred(0),
                src: Pred(1),
            },
            Op::VoteAny {
                dst: Pred(0),
                src: Pred(1),
            },
            Op::Ballot {
                dst: Reg(0),
                src: Pred(0),
            },
            Op::FindFirst {
                dst: Pred(0),
                src: Pred(1),
            },
        ];
        for op in control {
            assert!(Instr::new(op).steers_control(), "{op:?}");
        }
        let data = [
            Op::Alu {
                op: AluOp::Add,
                dst: Reg(0),
                a: Src::Reg(Reg(1)),
                b: Src::Imm(1),
            },
            Op::Ld {
                space: Space::Global,
                width: Width::B4,
                dst: Reg(0),
                addr: Src::Reg(Reg(1)),
                offset: 0,
            },
            Op::Nop,
        ];
        for op in data {
            assert!(!Instr::new(op).steers_control(), "{op:?}");
        }
    }

    #[test]
    fn packed_ops_classify_as_global_mem() {
        let i = Instr::new(Op::LdPacked {
            k: 2,
            dst: Reg(0),
            base: Src::Reg(Reg(1)),
        });
        assert_eq!(i.fu_class(), FuClass::Mem);
    }
}
