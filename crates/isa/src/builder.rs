//! Ergonomic construction of [`Program`]s with labels and structured
//! control flow.

use crate::{
    AluOp, CmpOp, FAluOp, Instr, Op, PBoolOp, Pred, Program, Reg, SfuOp, Space, Special, Src, Width,
};

/// A forward-reference label handle produced by [`ProgramBuilder::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

#[derive(Debug, Clone, Copy)]
enum Fixup {
    Target,
    Reconv,
}

/// Builds a [`Program`] instruction by instruction.
///
/// Branch targets can be bound after the branch is emitted via [`Label`]s;
/// the structured helpers [`ProgramBuilder::if_then`] and
/// [`ProgramBuilder::do_while`] emit branches with correct reconvergence PCs
/// so the simulator's SIMT stack behaves like a post-dominator mechanism.
///
/// # Examples
///
/// ```
/// use caba_isa::{ProgramBuilder, Reg, Pred, Src, CmpOp, AluOp};
/// let mut b = ProgramBuilder::new();
/// let r = Reg(0);
/// b.movi(r, 0);
/// // r += 1 while r < 10
/// b.do_while(|b| {
///     b.alu(AluOp::Add, r, Src::Reg(r), Src::Imm(1));
///     b.setp(Pred(0), CmpOp::LtU, Src::Reg(r), Src::Imm(10));
///     Pred(0)
/// });
/// b.exit();
/// let p = b.build();
/// assert!(p.len() >= 4);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label, Fixup)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current program counter (index of the next emitted instruction).
    pub fn pc(&self) -> usize {
        self.instrs.len()
    }

    /// Creates an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current PC.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.pc());
    }

    /// Emits a raw instruction.
    pub fn push(&mut self, instr: Instr) -> usize {
        self.instrs.push(instr);
        self.instrs.len() - 1
    }

    // ----- straight-line instruction helpers ------------------------------

    /// Emits an integer ALU op.
    pub fn alu(&mut self, op: AluOp, dst: Reg, a: Src, b: Src) -> usize {
        self.push(Instr::new(Op::Alu { op, dst, a, b }))
    }

    /// Emits `dst = imm`.
    pub fn movi(&mut self, dst: Reg, imm: u64) -> usize {
        self.alu(AluOp::Mov, dst, Src::Imm(imm), Src::Imm(0))
    }

    /// Emits `dst = src` (register or special move).
    pub fn mov(&mut self, dst: Reg, src: Src) -> usize {
        self.alu(AluOp::Mov, dst, src, Src::Imm(0))
    }

    /// Emits a float op.
    pub fn falu(&mut self, op: FAluOp, dst: Reg, a: Src, b: Src) -> usize {
        self.push(Instr::new(Op::FAlu { op, dst, a, b }))
    }

    /// Emits an SFU op.
    pub fn sfu(&mut self, op: SfuOp, dst: Reg, a: Src) -> usize {
        self.push(Instr::new(Op::Sfu { op, dst, a }))
    }

    /// Emits a predicate-setting comparison.
    pub fn setp(&mut self, pred: Pred, cmp: CmpOp, a: Src, b: Src) -> usize {
        self.push(Instr::new(Op::SetP { pred, cmp, a, b }))
    }

    /// Emits a predicate boolean combine.
    pub fn pbool(&mut self, dst: Pred, op: PBoolOp, a: Pred, b: Pred) -> usize {
        self.push(Instr::new(Op::PBool { dst, op, a, b }))
    }

    /// Emits a warp-wide all-lanes vote (the global predicate of §4.1.2).
    pub fn vote_all(&mut self, dst: Pred, src: Pred) -> usize {
        self.push(Instr::new(Op::VoteAll { dst, src }))
    }

    /// Emits a warp-wide any-lane vote.
    pub fn vote_any(&mut self, dst: Pred, src: Pred) -> usize {
        self.push(Instr::new(Op::VoteAny { dst, src }))
    }

    /// Emits a warp ballot into a register.
    pub fn ballot(&mut self, dst: Reg, src: Pred) -> usize {
        self.push(Instr::new(Op::Ballot { dst, src }))
    }

    /// Emits a find-first-set-lane vote.
    pub fn find_first(&mut self, dst: Pred, src: Pred) -> usize {
        self.push(Instr::new(Op::FindFirst { dst, src }))
    }

    /// Emits a select.
    pub fn selp(&mut self, dst: Reg, a: Src, b: Src, pred: Pred) -> usize {
        self.push(Instr::new(Op::Selp { dst, a, b, pred }))
    }

    /// Emits a load.
    pub fn ld(&mut self, space: Space, width: Width, dst: Reg, addr: Src, offset: i64) -> usize {
        self.push(Instr::new(Op::Ld {
            space,
            width,
            dst,
            addr,
            offset,
        }))
    }

    /// Emits a store.
    pub fn st(&mut self, space: Space, width: Width, src: Src, addr: Src, offset: i64) -> usize {
        self.push(Instr::new(Op::St {
            space,
            width,
            src,
            addr,
            offset,
        }))
    }

    /// Emits a packed per-lane load (`k` bytes per lane from `base + lane·k`).
    pub fn ld_packed(&mut self, k: u8, dst: Reg, base: Src) -> usize {
        assert!(matches!(k, 1 | 2 | 4 | 8), "packed width must be 1/2/4/8");
        self.push(Instr::new(Op::LdPacked { k, dst, base }))
    }

    /// Emits a packed per-lane store.
    pub fn st_packed(&mut self, k: u8, src: Src, base: Src) -> usize {
        assert!(matches!(k, 1 | 2 | 4 | 8), "packed width must be 1/2/4/8");
        self.push(Instr::new(Op::StPacked { k, src, base }))
    }

    /// Emits a block barrier.
    pub fn bar(&mut self) -> usize {
        self.push(Instr::new(Op::Bar))
    }

    /// Emits a thread exit.
    pub fn exit(&mut self) -> usize {
        self.push(Instr::new(Op::Exit))
    }

    /// Emits a no-op.
    pub fn nop(&mut self) -> usize {
        self.push(Instr::new(Op::Nop))
    }

    /// Computes the global thread id `ctaid * ntid + tid` into `dst`.
    pub fn global_thread_id(&mut self, dst: Reg) -> usize {
        let first = self.alu(
            AluOp::Mul,
            dst,
            Src::Sp(Special::Ctaid),
            Src::Sp(Special::Ntid),
        );
        self.alu(AluOp::Add, dst, Src::Reg(dst), Src::Sp(Special::Tid));
        first
    }

    // ----- control flow ----------------------------------------------------

    /// Emits an unconditional branch to `label` (reconvergence at the
    /// target, which is correct for uniform jumps).
    pub fn jump(&mut self, label: Label) -> usize {
        let pc = self.push(Instr::new(Op::Bra {
            target: usize::MAX,
            reconv: usize::MAX,
        }));
        self.fixups.push((pc, label, Fixup::Target));
        self.fixups.push((pc, label, Fixup::Reconv));
        pc
    }

    /// Emits a conditional branch: lanes where `pred == polarity` jump to
    /// `target`; the warp reconverges at `reconv`.
    pub fn branch_if(&mut self, pred: Pred, polarity: bool, target: Label, reconv: Label) -> usize {
        let pc = self.push(Instr::guarded(
            Op::Bra {
                target: usize::MAX,
                reconv: usize::MAX,
            },
            pred,
            polarity,
        ));
        self.fixups.push((pc, target, Fixup::Target));
        self.fixups.push((pc, reconv, Fixup::Reconv));
        pc
    }

    /// Structured `if (pred == polarity) { body }`. The body executes in
    /// lanes where the condition holds; the warp reconverges after it.
    pub fn if_then<F: FnOnce(&mut Self)>(&mut self, pred: Pred, polarity: bool, body: F) {
        let end = self.label();
        // Lanes where the condition FAILS jump over the body.
        self.branch_if(pred, !polarity, end, end);
        body(self);
        self.bind(end);
    }

    /// Structured `do { body } while (pred)`, where `body` returns the loop
    /// predicate. Lanes exit as the predicate goes false and reconverge after
    /// the loop.
    pub fn do_while<F: FnOnce(&mut Self) -> Pred>(&mut self, body: F) {
        let top = self.label();
        let after = self.label();
        self.bind(top);
        let pred = body(self);
        self.branch_if(pred, true, top, after);
        self.bind(after);
    }

    /// Finalizes the program, resolving all labels.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn build(mut self) -> Program {
        for &(pc, label, fixup) in &self.fixups {
            let bound = self.labels[label.0]
                .unwrap_or_else(|| panic!("label {label:?} used at pc {pc} but never bound"));
            if let Op::Bra { target, reconv } = &mut self.instrs[pc].op {
                match fixup {
                    Fixup::Target => *target = bound,
                    Fixup::Reconv => *reconv = bound,
                }
            } else {
                unreachable!("fixup on non-branch");
            }
        }
        Program::new(self.instrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Op;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.nop();
        let done = b.label();
        b.branch_if(Pred(0), true, top, done);
        b.bind(done);
        b.exit();
        let p = b.build();
        match p.fetch(1).unwrap().op {
            Op::Bra { target, reconv } => {
                assert_eq!(target, 0);
                assert_eq!(reconv, 2);
            }
            _ => panic!("expected branch"),
        }
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.jump(l);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn if_then_emits_inverted_guarded_branch() {
        let mut b = ProgramBuilder::new();
        b.if_then(Pred(1), true, |b| {
            b.nop();
        });
        b.exit();
        let p = b.build();
        let br = p.fetch(0).unwrap();
        assert_eq!(br.guard, Some((Pred(1), false)));
        match br.op {
            Op::Bra { target, reconv } => {
                assert_eq!(target, 2);
                assert_eq!(reconv, 2);
            }
            _ => panic!("expected branch"),
        }
    }

    #[test]
    fn global_thread_id_uses_two_instructions() {
        let mut b = ProgramBuilder::new();
        b.global_thread_id(Reg(5));
        let p = b.build();
        assert_eq!(p.len(), 2);
        assert_eq!(p.max_reg(), 6);
    }

    #[test]
    #[should_panic(expected = "packed width")]
    fn bad_packed_width_panics() {
        let mut b = ProgramBuilder::new();
        b.ld_packed(3, Reg(0), Src::Imm(0));
    }
}
