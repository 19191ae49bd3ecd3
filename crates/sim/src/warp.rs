//! Warp contexts: registers, predicates, the SIMT reconvergence stack, and
//! the per-warp scoreboard.

use caba_isa::exec::Row;
use caba_isa::{Instr, IssueMeta, Pred, Reg, NUM_PREGS, WARP_SIZE};
use caba_stats::snap::{SnapError, SnapshotReader, SnapshotState, SnapshotWriter};

/// Full active mask (all 32 lanes).
pub const FULL_MASK: u32 = u32::MAX;

/// One SIMT stack entry: an execution path and where it reconverges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimtEntry {
    /// Program counter of this path.
    pub pc: usize,
    /// Lanes executing this path.
    pub mask: u32,
    /// PC at which this path merges into the entry below.
    pub reconv: usize,
}

/// A warp context: 32 threads executing in lock-step.
///
/// Both application warps and assist warps use this structure — the paper's
/// assist warps "share the same context as the regular warp" (§1); here the
/// shared context is modelled by allocating the assist warp's registers out
/// of the same SM register budget (accounted in
/// [`crate::occupancy`]) while keeping the storage separate. An SM holds
/// one per slot of its warp table and re-initialises it in place
/// ([`Warp::reset`]) for each warp it launches there; a slot that has
/// launched nothing holds the [`Default`] context, which allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Warp {
    simt: Vec<SimtEntry>,
    regs: Vec<[u64; WARP_SIZE]>,
    preds: [u32; NUM_PREGS],
    pending: Vec<u64>,
    /// Outstanding global-memory line fills for in-flight loads.
    pub outstanding_loads: u32,
    /// True while waiting at a block barrier.
    pub at_barrier: bool,
    /// True when every lane has exited.
    pub done: bool,
    /// Cycle of the last successful issue (GTO greedy bookkeeping).
    pub last_issue: u64,
    /// Instructions issued by this warp.
    pub issued: u64,
}

impl Warp {
    /// Creates a warp with `nregs` registers, starting at PC 0 with lanes
    /// `mask` active.
    pub fn new(nregs: usize, mask: u32) -> Self {
        let mut w = Warp::default();
        w.reset(nregs, mask);
        w
    }

    /// Returns the warp to exactly the state [`Warp::new`]`(nregs, mask)`
    /// builds, keeping its allocations: an SM launches every warp, app or
    /// assist, into its slot's context this way.
    pub fn reset(&mut self, nregs: usize, mask: u32) {
        self.simt.clear();
        self.simt.push(SimtEntry {
            pc: 0,
            mask,
            reconv: usize::MAX,
        });
        self.regs.clear();
        self.regs.resize(nregs, [0u64; WARP_SIZE]);
        self.preds = [0u32; NUM_PREGS];
        self.pending.clear();
        self.pending.resize(nregs.div_ceil(64), 0);
        self.outstanding_loads = 0;
        self.at_barrier = false;
        self.done = false;
        self.last_issue = 0;
        self.issued = 0;
    }

    /// Current program counter (top of the SIMT stack).
    pub fn pc(&self) -> usize {
        self.simt.last().map_or(usize::MAX, |e| e.pc)
    }

    /// Current active mask.
    pub fn active_mask(&self) -> u32 {
        self.simt.last().map_or(0, |e| e.mask)
    }

    /// Depth of the SIMT stack.
    pub fn simt_depth(&self) -> usize {
        self.simt.len()
    }

    /// Register value for `reg` in `lane`.
    ///
    /// # Panics
    ///
    /// Panics if the register or lane is out of range.
    pub fn reg(&self, reg: Reg, lane: usize) -> u64 {
        self.regs[reg.0 as usize][lane]
    }

    /// Sets `reg` in `lane`.
    pub fn set_reg(&mut self, reg: Reg, lane: usize, v: u64) {
        self.regs[reg.0 as usize][lane] = v;
    }

    /// All 32 lanes of `reg`.
    pub fn reg_row(&self, reg: Reg) -> &Row {
        &self.regs[reg.0 as usize]
    }

    /// Writes `row` into `reg` in the lanes of `mask`; other lanes keep
    /// their values.
    pub fn write_row(&mut self, reg: Reg, mask: u32, row: &Row) {
        let dst = &mut self.regs[reg.0 as usize];
        if mask == FULL_MASK {
            *dst = *row;
        } else {
            for (l, d) in dst.iter_mut().enumerate() {
                if mask >> l & 1 == 1 {
                    *d = row[l];
                }
            }
        }
    }

    /// Writes `bits` into predicate `p` in the lanes of `mask`.
    pub fn write_pred(&mut self, p: Pred, mask: u32, bits: u32) {
        let d = &mut self.preds[p.0 as usize];
        *d = *d & !mask | bits & mask;
    }

    /// Predicate `p` in `lane`.
    pub fn pred(&self, p: Pred, lane: usize) -> bool {
        self.preds[p.0 as usize] >> lane & 1 == 1
    }

    /// Sets predicate `p` in `lane`.
    pub fn set_pred(&mut self, p: Pred, lane: usize, v: bool) {
        if v {
            self.preds[p.0 as usize] |= 1 << lane;
        } else {
            self.preds[p.0 as usize] &= !(1 << lane);
        }
    }

    /// Bitmask of lanes (within `mask`) where `pred == polarity`.
    pub fn pred_mask(&self, p: Pred, polarity: bool, mask: u32) -> u32 {
        let bits = self.preds[p.0 as usize];
        let sel = if polarity { bits } else { !bits };
        sel & mask
    }

    /// Lanes that would execute `instr` right now (active ∧ guard).
    pub fn exec_mask(&self, instr: &Instr) -> u32 {
        let active = self.active_mask();
        match instr.guard {
            None => active,
            Some((p, pol)) => self.pred_mask(p, pol, active),
        }
    }

    // ----- scoreboard -------------------------------------------------------

    /// Marks `reg` as pending (a long-latency producer is in flight).
    pub fn mark_pending(&mut self, reg: Reg) {
        self.pending[reg.0 as usize / 64] |= 1 << (reg.0 % 64);
    }

    /// Clears the pending bit for `reg`.
    pub fn clear_pending(&mut self, reg: Reg) {
        self.pending[reg.0 as usize / 64] &= !(1 << (reg.0 % 64));
    }

    /// True if `reg` has a producer in flight.
    pub fn is_pending(&self, reg: Reg) -> bool {
        self.pending[reg.0 as usize / 64] >> (reg.0 % 64) & 1 == 1
    }

    /// True when `instr` cannot issue because a source or destination
    /// register awaits an in-flight producer (a data-dependence stall).
    pub fn hazard(&self, instr: &Instr) -> bool {
        if let Some(d) = instr.dst_reg() {
            if self.is_pending(d) {
                return true;
            }
        }
        instr
            .src_regs_fixed()
            .into_iter()
            .flatten()
            .any(|r| self.is_pending(r))
    }

    /// [`Warp::hazard`] answered from `instr`'s decoded `meta`: one AND
    /// against the first pending word. The instruction itself is read only
    /// when it names a register above 63.
    #[inline]
    pub(crate) fn hazard_at(&self, meta: IssueMeta, instr: &Instr) -> bool {
        let low = self.pending.first().copied().unwrap_or(0);
        meta.hazard(low).unwrap_or_else(|| self.hazard(instr))
    }

    /// True when any register is pending.
    pub fn any_pending(&self) -> bool {
        self.pending.iter().any(|&w| w != 0)
    }

    /// Registers whose pending bit is set (used by the scoreboard audit:
    /// every pending register must have a producer in flight).
    pub fn pending_regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.pending.iter().enumerate().flat_map(|(word, &bits)| {
            (0..64u16)
                .filter(move |b| bits >> b & 1 == 1)
                .map(move |b| Reg(word as u16 * 64 + b))
        })
    }

    // ----- control flow -----------------------------------------------------

    /// Pops merged paths: entries whose PC reached their reconvergence point.
    fn maybe_merge(&mut self) {
        while self.simt.len() > 1 {
            let top = *self.simt.last().expect("nonempty");
            if top.pc == top.reconv {
                self.simt.pop();
            } else {
                break;
            }
        }
    }

    /// Moves to the next sequential instruction.
    pub fn advance_pc(&mut self) {
        if let Some(top) = self.simt.last_mut() {
            top.pc += 1;
        }
        self.maybe_merge();
    }

    /// Applies a (possibly divergent) branch. `taken` must be a subset of
    /// the active mask; `next` is the fall-through PC.
    ///
    /// # Panics
    ///
    /// Panics if `taken` contains inactive lanes.
    pub fn take_branch(&mut self, taken: u32, target: usize, next: usize, reconv: usize) {
        let active = self.active_mask();
        assert_eq!(taken & !active, 0, "taken lanes must be active");
        if taken == 0 {
            if let Some(top) = self.simt.last_mut() {
                top.pc = next;
            }
        } else if taken == active {
            if let Some(top) = self.simt.last_mut() {
                top.pc = target;
            }
        } else {
            // Divergence: the current entry becomes the reconvergence
            // continuation; the two paths are pushed above it.
            let old_reconv = self.simt.last().expect("nonempty").reconv;
            if let Some(top) = self.simt.last_mut() {
                top.pc = reconv;
                top.reconv = old_reconv;
            }
            self.simt.push(SimtEntry {
                pc: next,
                mask: active & !taken,
                reconv,
            });
            self.simt.push(SimtEntry {
                pc: target,
                mask: taken,
                reconv,
            });
        }
        self.maybe_merge();
    }

    /// Retires `lanes` from the warp (Exit). When no lanes remain, the warp
    /// is done.
    pub fn exit_lanes(&mut self, lanes: u32) {
        for e in &mut self.simt {
            e.mask &= !lanes;
        }
        self.simt.retain(|e| e.mask != 0);
        if self.simt.is_empty() {
            self.done = true;
        } else {
            // The top entry may now be an empty merged path.
            self.maybe_merge();
        }
    }
}

impl SnapshotState for SimtEntry {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.pc);
        w.u32(self.mask);
        w.usize(self.reconv);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok(SimtEntry {
            pc: r.usize()?,
            mask: r.u32()?,
            reconv: r.usize()?,
        })
    }
}

impl SnapshotState for Warp {
    fn save(&self, w: &mut SnapshotWriter) {
        self.simt.save(w);
        self.regs.save(w);
        self.preds.save(w);
        self.pending.save(w);
        w.u32(self.outstanding_loads);
        w.bool(self.at_barrier);
        w.bool(self.done);
        w.u64(self.last_issue);
        w.u64(self.issued);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok(Warp {
            simt: Vec::<SimtEntry>::load(r)?,
            regs: Vec::<[u64; WARP_SIZE]>::load(r)?,
            preds: <[u32; NUM_PREGS]>::load(r)?,
            pending: Vec::<u64>::load(r)?,
            outstanding_loads: r.u32()?,
            at_barrier: r.bool()?,
            done: r.bool()?,
            last_issue: r.u64()?,
            issued: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caba_isa::{AluOp, Op, Src};

    fn add_instr(dst: u16, a: u16) -> Instr {
        Instr::new(Op::Alu {
            op: AluOp::Add,
            dst: Reg(dst),
            a: Src::Reg(Reg(a)),
            b: Src::Imm(1),
        })
    }

    #[test]
    fn registers_and_predicates() {
        let mut w = Warp::new(8, FULL_MASK);
        w.set_reg(Reg(3), 7, 42);
        assert_eq!(w.reg(Reg(3), 7), 42);
        assert_eq!(w.reg(Reg(3), 6), 0);
        w.set_pred(Pred(1), 5, true);
        assert!(w.pred(Pred(1), 5));
        w.set_pred(Pred(1), 5, false);
        assert!(!w.pred(Pred(1), 5));
    }

    #[test]
    fn pred_mask_polarity() {
        let mut w = Warp::new(1, FULL_MASK);
        w.set_pred(Pred(0), 0, true);
        w.set_pred(Pred(0), 2, true);
        assert_eq!(w.pred_mask(Pred(0), true, FULL_MASK), 0b101);
        assert_eq!(w.pred_mask(Pred(0), false, 0b111), 0b010);
    }

    #[test]
    fn scoreboard_hazards() {
        let mut w = Warp::new(70, FULL_MASK);
        assert!(!w.hazard(&add_instr(0, 1)));
        w.mark_pending(Reg(1));
        assert!(w.hazard(&add_instr(0, 1))); // source pending
        assert!(w.hazard(&add_instr(1, 2))); // dest pending (WAW)
        assert!(!w.hazard(&add_instr(2, 3)));
        assert!(w.is_pending(Reg(1)));
        assert!(w.any_pending());
        w.clear_pending(Reg(1));
        assert!(!w.any_pending());
        // Registers beyond 64 use the second pending word.
        w.mark_pending(Reg(65));
        assert!(w.is_pending(Reg(65)));
        assert!(!w.is_pending(Reg(1)));
    }

    /// The scheduler's check from decoded metadata is `hazard`, word
    /// boundary and the registers past it included. (`tests/issue_meta.rs`
    /// at the workspace root runs the same comparison over every shipped
    /// program and random instructions.)
    #[test]
    fn hazard_from_metadata_is_hazard() {
        let regs = [0u16, 1, 62, 63, 64, 65, 129];
        for &dst in &regs {
            for &a in &regs {
                let instr = add_instr(dst, a);
                let program = caba_isa::Program::new(vec![instr]);
                let meta = program.fetch_meta(0).expect("one instruction");
                for &pending in &regs {
                    let mut w = Warp::new(130, FULL_MASK);
                    assert!(!w.hazard_at(meta, &instr));
                    w.mark_pending(Reg(pending));
                    assert_eq!(
                        w.hazard_at(meta, &instr),
                        w.hazard(&instr),
                        "r{dst} = r{a} + 1 with r{pending} pending"
                    );
                }
            }
        }
    }

    fn saved(w: &Warp) -> Vec<u8> {
        let mut out = SnapshotWriter::new();
        w.save(&mut out);
        out.into_bytes()
    }

    #[test]
    fn reset_is_new() {
        let sizes = [1usize, 9, 64, 65, 130];
        for &from in &sizes {
            for &to in &sizes {
                let mut w = Warp::new(from, 0xFFFF);
                // Dirty every field `new` initialises.
                for r in [0, from - 1] {
                    w.write_row(Reg(r as u16), FULL_MASK, &[u64::MAX; WARP_SIZE]);
                    w.mark_pending(Reg(r as u16));
                }
                w.write_pred(Pred(3), FULL_MASK, 0xA5A5);
                w.take_branch(0x00FF, 7, 1, 9);
                w.outstanding_loads = 3;
                w.at_barrier = true;
                w.last_issue = 99;
                w.issued = 12;
                w.exit_lanes(0xFFFF);
                assert!(w.done);
                w.reset(to, 0x0F0F_0F0F);
                assert_eq!(
                    saved(&w),
                    saved(&Warp::new(to, 0x0F0F_0F0F)),
                    "{from} -> {to} registers"
                );
            }
        }
    }

    #[test]
    fn uniform_branches_do_not_grow_stack() {
        let mut w = Warp::new(1, FULL_MASK);
        w.take_branch(FULL_MASK, 10, 1, 20);
        assert_eq!(w.pc(), 10);
        assert_eq!(w.simt_depth(), 1);
        w.take_branch(0, 3, 11, 20);
        assert_eq!(w.pc(), 11);
        assert_eq!(w.simt_depth(), 1);
    }

    #[test]
    fn divergence_and_reconvergence() {
        let mut w = Warp::new(1, 0b1111);
        // Branch at pc 0: lanes 0-1 take to 5, lanes 2-3 fall to 1,
        // reconverge at 8.
        w.take_branch(0b0011, 5, 1, 8);
        assert_eq!(w.simt_depth(), 3);
        // Taken path first.
        assert_eq!(w.pc(), 5);
        assert_eq!(w.active_mask(), 0b0011);
        // Taken path runs 5,6,7 then merges at 8.
        w.advance_pc();
        w.advance_pc();
        w.advance_pc(); // pc==8 == reconv -> pop
        assert_eq!(w.pc(), 1);
        assert_eq!(w.active_mask(), 0b1100);
        // Fall-through path runs 1..8 then merges.
        for _ in 1..8 {
            w.advance_pc();
        }
        assert_eq!(w.pc(), 8);
        assert_eq!(w.active_mask(), 0b1111);
        assert_eq!(w.simt_depth(), 1);
    }

    #[test]
    fn nested_divergence() {
        let mut w = Warp::new(1, 0b1111);
        w.take_branch(0b0011, 10, 1, 20);
        assert_eq!(w.pc(), 10);
        // Nested divergence on the taken path.
        w.take_branch(0b0001, 15, 11, 18);
        assert_eq!(w.pc(), 15);
        assert_eq!(w.active_mask(), 0b0001);
        assert_eq!(w.simt_depth(), 5);
        // Inner taken path 15..18.
        w.advance_pc();
        w.advance_pc();
        w.advance_pc();
        assert_eq!(w.pc(), 11);
        assert_eq!(w.active_mask(), 0b0010);
        for _ in 11..18 {
            w.advance_pc();
        }
        // Inner merged: back at 18 with 0b0011.
        assert_eq!(w.pc(), 18);
        assert_eq!(w.active_mask(), 0b0011);
        w.advance_pc();
        w.advance_pc(); // 20 == outer reconv
        assert_eq!(w.pc(), 1);
        assert_eq!(w.active_mask(), 0b1100);
    }

    #[test]
    #[should_panic(expected = "taken lanes must be active")]
    fn inactive_taken_lanes_panic() {
        let mut w = Warp::new(1, 0b0001);
        w.take_branch(0b0010, 1, 2, 3);
    }

    #[test]
    fn exit_lanes_completes_warp() {
        let mut w = Warp::new(1, 0b1111);
        w.exit_lanes(0b0011);
        assert!(!w.done);
        assert_eq!(w.active_mask(), 0b1100);
        w.exit_lanes(0b1100);
        assert!(w.done);
        assert_eq!(w.active_mask(), 0);
        assert_eq!(w.pc(), usize::MAX);
    }

    #[test]
    fn partial_exit_within_divergence() {
        let mut w = Warp::new(1, 0b1111);
        w.take_branch(0b0011, 5, 1, 8);
        // Taken lanes exit inside their path.
        w.exit_lanes(0b0011);
        assert!(!w.done);
        // Stack unwinds to the fall-through path.
        assert_eq!(w.pc(), 1);
        assert_eq!(w.active_mask(), 0b1100);
    }
}
