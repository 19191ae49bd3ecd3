//! The streaming multiprocessor model: one warp table, two GTO schedulers,
//! SP/SFU/LSU pipelines, L1 + MSHRs, the store buffer, and the assist-warp
//! runtime (the AWC/AWT/AWB mechanics of §3.3–3.4).
//!
//! An assist warp is a warp. The SM keeps one table of warp contexts:
//! application warps in its first `warps_per_sm` slots, assist warps in
//! the `max_assist_warps` slots after them (the Assist Warp Table), each
//! slot's role saying which, if either, occupies it. Both kinds share one
//! consideration memo, one `head`, one issue path and one writeback path;
//! only the thread context, barrier arrival, the LSU operation kind,
//! the load count and retirement differ by role. A context stays in its
//! slot for the SM's lifetime and is re-initialised in place at block
//! launch and assist deploy.

use crate::assist::{
    AssistLaunch, AssistOutcome, AssistPriority, FillAction, SharedLineStore, StoreAction,
};
use crate::caba::CabaController;
use crate::config::{Design, GpuConfig};
use crate::exec::{execute_into, ExecOutcome, ThreadCtx};
use crate::fault::{stream, FaultInjector, FaultMode};
use crate::integrity::{Component, SmSnapshot, Violation, WarpSnapshot, WarpState};
use crate::lsu::{LineOp, LineOpKind, Lsu, WarpRef};
use crate::observe::{sim_metrics_schema, SimMetricIds};
use crate::trace::{TraceEvent, TraceEventKind};
use crate::warp::{Warp, FULL_MASK};
use caba_isa::{FuClass, Instr, IssueMeta, Kernel, Program, Reg, WARP_SIZE};
use caba_mem::{AccessOutcome, Cache, CompressionMap, Mshr, SharedMem, LINE_SIZE};
use caba_stats::snap::{SnapError, SnapshotReader, SnapshotState, SnapshotWriter};
use caba_stats::{FxHashMap, IssueBreakdown, MetricShard, StallKind};
use std::collections::VecDeque;

use std::sync::Arc;

/// Base of the shared-memory (scratchpad) address window in the unified
/// functional address space.
pub const SHARED_WINDOW_BASE: u64 = 0x4000_0000_0000;
/// Bytes reserved per block's shared window.
pub const SHARED_WINDOW_SIZE: u64 = 0x1_0000;
/// Base of the per-SM assist-warp staging regions.
pub const STAGING_BASE: u64 = 0x5000_0000_0000;
/// Bytes of staging per SM.
pub const STAGING_SIZE: u64 = 0x10_0000;

/// The state the SMs share, lent by the GPU for one SM's turn; the SM hands
/// it on to its controller's hooks. Memory and the line store sit behind
/// phase-aware views: overlay (start-of-cycle state plus this SM's own
/// writes) during the SM phase, direct during the fill phase. SM and
/// controller code is identical either way.
pub struct SharedState<'a> {
    /// Functional memory (staging regions live here too).
    pub mem: SharedMem<'a>,
    /// Reference compression map (compressed designs only).
    pub cmap: Option<&'a mut CompressionMap>,
    /// Per-line stored forms.
    pub line_store: SharedLineStore<'a>,
}

impl SharedState<'_> {
    /// Whether `addr`'s line is stored compressed, as this view sees it.
    fn stored_compressed(&mut self, addr: u64) -> bool {
        let cmap = self.cmap.as_deref_mut();
        self.line_store.is_stored_compressed(&self.mem, cmap, addr)
    }
}

/// An outbound memory request (SM → partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutReq {
    /// Line base address.
    pub addr: u64,
    /// Write (true) or read (false).
    pub is_write: bool,
    /// Interconnect flits this request occupies.
    pub flits: u32,
}

#[derive(Debug)]
struct Block {
    ctaid: u32,
    warp_slots: Vec<usize>,
    warps_done: usize,
    arrived: usize,
    regs: u32,
    shared: u32,
}

/// One warp context of the SM's warp table. A context lives in its slot
/// for the SM's lifetime: block launch and assist deploy re-initialise it
/// in place ([`Warp::reset`]), and `role` says what occupies it.
#[derive(Debug)]
struct Slot {
    warp: Warp,
    /// Launch order, for the oldest-first scan.
    age: u64,
    role: Role,
}

#[derive(Debug)]
enum Role {
    Free,
    App {
        block_slot: usize,
        ctaid: u32,
        warp_in_block: u32,
        /// Counted toward its block's completion (resources are freed at
        /// block granularity, so the slot stays occupied until the whole
        /// CTA retires).
        retired: bool,
    },
    Assist {
        program: Arc<Program>,
        priority: AssistPriority,
        tag: u64,
        parent: usize,
    },
}

#[derive(Debug, Clone, Copy)]
struct Ticket {
    slot: usize,
    dst: Option<Reg>,
    remaining: u32,
}

#[derive(Debug, Clone, Copy)]
struct Writeback {
    at: u64,
    slot: usize,
    reg: Option<Reg>,
}

/// See [`Sm::head`].
struct Head<'a> {
    meta: IssueMeta,
    hazard: bool,
    instr: &'a Instr,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueBlock {
    Hazard,
    MemStructural,
    ComputeStructural,
}

/// Why one blocked candidate could not issue this cycle, at full
/// resolution (hazards subdivided by what the missing operand is waiting
/// on). Folded across a scheduler's candidates by [`fold_verdict`] into the
/// slot's single Fig. 1 attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallVerdict {
    /// The candidate is parked at a block-wide barrier.
    Barrier,
    /// Scoreboard hazard on a register with an outstanding load (waiting
    /// for memory data).
    HazardMem,
    /// Scoreboard hazard on an operand of a control-steering instruction
    /// (branch/predicate/vote — reconvergence-determining work).
    HazardCtrl,
    /// Any other scoreboard hazard (in-pipeline producer not written back).
    HazardSb,
    /// The LSU issue slot or line-op queue is full.
    MemStructural,
    /// The SFU is not ready (initiation interval).
    ComputeStructural,
}

impl StallVerdict {
    /// Evidence strength: structural back-pressure (2) beats a scoreboard
    /// hazard (1) beats barrier parking (0).
    fn tier(self) -> u8 {
        match self {
            StallVerdict::Barrier => 0,
            StallVerdict::HazardMem | StallVerdict::HazardCtrl | StallVerdict::HazardSb => 1,
            StallVerdict::MemStructural | StallVerdict::ComputeStructural => 2,
        }
    }

    /// The Fig. 1 taxonomy bucket this verdict lands in.
    pub(crate) fn bucket(self) -> StallKind {
        match self {
            StallVerdict::Barrier => StallKind::Synchronization,
            StallVerdict::HazardMem | StallVerdict::MemStructural => StallKind::MemoryData,
            StallVerdict::HazardSb | StallVerdict::ComputeStructural => {
                StallKind::ScoreboardPipeline
            }
            StallVerdict::HazardCtrl => StallKind::ControlReconvergence,
        }
    }
}

/// Folds one blocked candidate's verdict into the scheduler slot's verdict.
///
/// The tiebreak rule, which Fig. 1 attribution depends on: **the first
/// blocked candidate in scheduler priority order wins within a tier**
/// (high-priority assists, then the greedy warp, then parents oldest-first,
/// then low-priority assists — the exact order [`Sm::schedule`] offers
/// candidates), and a later candidate only replaces the verdict when its
/// evidence tier is strictly higher (structural > hazard > barrier). This
/// generalizes the original rule — "first blocked candidate wins, with
/// structural evidence preferred over data-dependence" — so e.g. a slot
/// whose oldest blocked warp waits on a load is charged to memory even if a
/// younger candidate is SFU-blocked, but a slot where every runnable warp
/// is barrier-parked and one is pipe-blocked is charged to the pipeline.
pub(crate) fn fold_verdict(cur: Option<StallVerdict>, new: StallVerdict) -> Option<StallVerdict> {
    match cur {
        None => Some(new),
        Some(c) if new.tier() > c.tier() => Some(new),
        Some(c) => Some(c),
    }
}

/// Per-candidate consideration memo: what the last full evaluation of this
/// warp-table slot proved, valid until an invalidation point. A frozen SM
/// sleeps instead of re-scanning (DESIGN.md "Next-event clock"), but one
/// that is not frozen — a warp issuing while its neighbours wait —
/// re-visits every blocked candidate every cycle; the memo collapses each
/// revisit to a tag check ([`Sm::memo_blocks`]) instead of an instruction
/// fetch plus scoreboard scan.
///
/// Soundness rests on two facts. First, a non-issuing warp's pending
/// register set only *shrinks* (writebacks clear bits; only the warp's own
/// issue sets them), so "hazard-free with this head instruction" stays
/// true until the warp issues — the blocked-class tags survive writebacks.
/// Second, every tag's residual per-cycle condition (`MemBlocked`: the LSU
/// issue path, `SfuBlocked`: the SFU initiation interval) is re-evaluated
/// against live state on each visit, so a tag check resolves exactly as
/// the full evaluation would.
///
/// Invalidation points: the slot's own issue, a writeback clearing one of
/// its registers (hazard tags only), barrier release (barrier tags only),
/// and any candidate-list rebuild (all tags).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotMemo {
    /// No valid memo: run the full fetch + check.
    Unknown,
    /// Scoreboard-blocked with this classified verdict. Pinned until a
    /// writeback clears one of the warp's registers, exactly like the
    /// recomputed `IssueBlock::Hazard` path.
    Hazard(StallVerdict),
    /// Hazard-free with a memory-class head instruction: issues the cycle
    /// the LSU issue path opens (`shared` accesses need only the issue
    /// slot, global ones also line-op queue space).
    MemBlocked {
        /// Head instruction targets the shared-memory pipe.
        shared: bool,
    },
    /// Hazard-free with an SFU head instruction: issues once the SFU
    /// initiation interval elapses.
    SfuBlocked,
    /// All lanes exited; contributes nothing until the block retires and
    /// the candidate list is rebuilt.
    Done,
    /// Parked at a block-wide barrier: contributes the `Barrier` verdict
    /// until the barrier releases.
    Barrier,
}

/// Which of a scheduler's candidate lists [`Sm::scan_list`] walks: an
/// index into its entry of `Sm::cands`.
#[derive(Clone, Copy)]
enum ListKind {
    HiAssist,
    Parents,
    LowAssist,
}

/// One streaming multiprocessor.
pub struct Sm {
    id: usize,
    cfg: GpuConfig,
    design: Design,
    /// This SM's Assist Warp Controller: present exactly on a CABA design.
    caba: Option<CabaController>,
    blocks: Vec<Option<Block>>,
    /// The warp table: application warps in `0..warps_per_sm`, assist
    /// warps in the `max_assist_warps` slots after them (the AWT of §3.4).
    slots: Vec<Slot>,
    assist_pending: VecDeque<AssistLaunch>,
    writebacks: Vec<Writeback>,
    /// Earliest `at` in `writebacks` (`u64::MAX` when empty): the cycle
    /// before which `process_writebacks` has nothing to do, and the
    /// writeback term of the dormancy horizon. Derived; rebuilt on restore.
    wb_due: u64,
    tickets: Vec<Option<Ticket>>,
    free_tickets: Vec<usize>,
    lsu: Lsu,
    l1: Cache,
    mshr: Mshr<usize>,
    pending_decomp: FxHashMap<u64, Vec<usize>>,
    store_buffer: VecDeque<u64>,
    out_reqs: VecDeque<OutReq>,
    sfu_ready_at: u64,
    /// Per scheduler, the slot that issued last (GTO's greedy warp).
    greedy: Vec<Option<usize>>,
    used_regs: u32,
    used_shared: u32,
    age_seq: u64,
    /// `Some` entries in `blocks`, maintained at launch/retire so
    /// [`Sm::quiesced`] needs no scan.
    resident_block_count: usize,
    /// Occupied assist slots, maintained at deploy/finish.
    active_assist_count: usize,
    /// Low-priority assist slots, maintained at deploy/finish so
    /// the AWB partition check in [`Sm::deploy_assist`] needs no scan.
    low_assist_count: usize,
    /// The done set, one bit per slot, set for assist slots only: the
    /// slots that may be retirable. A slot joins when its warp exits at
    /// issue or a writeback lands on its exited warp;
    /// [`Sm::finish_assists`] empties the set. Derived: restore puts every
    /// exited assist in it.
    assist_done: Vec<u64>,
    /// High-priority entries in `assist_pending`, maintained at queue and
    /// deploy, so a queue full of gated low-priority launches costs O(1)
    /// per cycle instead of a scan.
    high_pending_count: usize,
    /// Monotonic count of blocks this SM has retired — the change signal
    /// behind the engine's CTA-dispatch gate. Launch capacity (block slot,
    /// warp slots, registers, shared memory) frees only at block
    /// retirement, so a blocked dispatch cannot unblock until this moves.
    /// Not serialized: restore conservatively reopens the gate.
    blocks_retired_total: u64,
    /// Per scheduler, its three candidate lists of slots, indexed by
    /// [`ListKind`] in issue-priority order: high-priority assists,
    /// occupied app-warp slots by age, low-priority assists. Block launch and retire (`cand_dirty`) re-derive all three; assist
    /// deploy and retire (`assist_dirty`) only wipe the memos: they splice
    /// the two assist lists themselves, so the parents' list and its sort
    /// are left alone. Done/at-barrier warps stay listed — `head` skips
    /// them exactly as the per-cycle rebuild used to, so cached scheduling
    /// is bit-identical.
    cands: Vec<[Vec<usize>; 3]>,
    cand_dirty: bool,
    assist_dirty: bool,
    /// Per-slot consideration memos (see [`SlotMemo`]), indexed like
    /// `slots`: what the last full evaluation proved about each candidate,
    /// so stalled-machine scans cost a tag check per candidate instead of
    /// a fetch + scoreboard scan. Cleared wholesale on any residency
    /// change, assist-side ones included (`wipe_memos`).
    memo: Vec<SlotMemo>,
    /// App warps that have fully exited but not yet been reaped; gates the
    /// per-cycle `reap_warps` slot scan.
    done_unreaped: u32,
    /// Next-event dormancy cache, recomputed at the end of every executed
    /// cycle: true when that cycle proved the SM frozen (nothing issued,
    /// drained, deployed, or retired; at most a stalled load re-probed the
    /// L1), so every following cycle until `wake` — or an external
    /// fill/launch/request pop, which clears the flag — would repeat it and
    /// the run loop need not execute them (see [`Sm::next_event`]). Never
    /// serialized: restore clears it and the next real cycle (identical to
    /// a skipped one by this very invariant) recomputes it.
    dormant: bool,
    /// The frozen cycle's one change was an L1 miss by the stalled LSU
    /// head (no MSHR or outbound slot free), which every skipped cycle
    /// repeats: [`Sm::settle`] credits one miss per cycle.
    reprobe: bool,
    /// Cycles before this one are accounted for, executed or credited by
    /// [`Sm::settle`]. Not serialized: restore sets it to the snapshot
    /// cycle, whose predecessors the snapshot already holds.
    settled: u64,
    /// [`Sm::next_event`] (`u64::MAX`: none): for a frozen SM the earliest
    /// writeback maturity or SFU readiness, else the next cycle unless the
    /// SM is empty. Recomputed at the end of every cycle and on every
    /// external input. Derived.
    wake: u64,
    /// The Fig. 1 bucket each scheduler slot resolved to in the last
    /// executed cycle; while frozen every subsequent cycle resolves the
    /// same way, so `settle` bulk-credits these.
    last_slots: Vec<StallKind>,
    /// Reusable sort scratch for `rebuild_candidates` (age, slot) pairs —
    /// avoids a heap allocation on every residency change.
    cand_scratch: Vec<(u64, usize)>,
    /// Full candidate rebuilds and assist-only list updates so far — host
    /// efficiency counters like `Gpu::skip_stats`, outside `RunStats` and
    /// the snapshot.
    parent_rebuilds: u64,
    assist_updates: u64,
    /// Reused outcome storage for `do_issue` (see [`execute_into`]).
    exec_out: ExecOutcome,
    injector: FaultInjector,
    /// Instant-event buffer, drained by the GPU tracer in SM index order.
    /// Empty unless `events_on` (set while a trace records).
    events: Vec<TraceEvent>,
    events_on: bool,
    /// Per-SM metric shard (`MetricsLevel::Full` only): typed ids plus
    /// dense storage, merged in SM index order at export.
    metrics: Option<(SimMetricIds, MetricShard)>,
    // statistics
    breakdown: IssueBreakdown,
    app_instructions: u64,
    assist_instructions: u64,
    shared_accesses: u64,
    threads_retired: u64,
    assist_launches: u64,
    store_buffer_overflows: u64,
    lines_compressed: u64,
    lines_decompressed: u64,
    lines_corrupted: u64,
    corruptions_detected: u64,
    corruption_refetches: u64,
    /// Issue slots taken by high-priority assist warps ahead of parent
    /// warps (the Fig. 13/14 "stolen slot" overhead).
    assist_slots_stolen: u64,
    /// Otherwise-idle issue slots reclaimed by low-priority assist warps
    /// (§3.2.3).
    assist_slots_reclaimed: u64,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("resident_warps", &self.resident_warps())
            .field("app_instructions", &self.app_instructions)
            .finish()
    }
}

impl Sm {
    /// Creates an idle SM running `design`, with its own controller on a
    /// CABA design.
    pub fn new(id: usize, cfg: GpuConfig, design: Design) -> Self {
        Sm {
            id,
            cfg,
            design,
            caba: match design {
                Design::Caba(mode) => Some(CabaController::new(
                    mode,
                    STAGING_BASE + id as u64 * STAGING_SIZE,
                )),
                _ => None,
            },
            blocks: (0..cfg.max_blocks_per_sm).map(|_| None).collect(),
            slots: (0..cfg.warps_per_sm + cfg.max_assist_warps)
                .map(|_| Slot {
                    warp: Warp::default(),
                    age: 0,
                    role: Role::Free,
                })
                .collect(),
            assist_pending: VecDeque::new(),
            writebacks: Vec::new(),
            wb_due: u64::MAX,
            tickets: Vec::new(),
            free_tickets: Vec::new(),
            lsu: Lsu::new(cfg.lsu_queue),
            l1: Cache::new(cfg.l1),
            mshr: Mshr::new(cfg.mshrs),
            pending_decomp: FxHashMap::default(),
            store_buffer: VecDeque::new(),
            out_reqs: VecDeque::new(),
            sfu_ready_at: 0,
            greedy: vec![None; cfg.schedulers_per_sm],
            used_regs: 0,
            used_shared: 0,
            age_seq: 0,
            resident_block_count: 0,
            active_assist_count: 0,
            low_assist_count: 0,
            assist_done: vec![0; (cfg.warps_per_sm + cfg.max_assist_warps).div_ceil(64)],
            high_pending_count: 0,
            blocks_retired_total: 0,
            cands: vec![Default::default(); cfg.schedulers_per_sm],
            // Empty lists are already what a rebuild of an empty SM makes,
            // so an SM that never holds a block never rebuilds: a cycle on
            // a quiesced SM then changes nothing a settled one does not.
            cand_dirty: false,
            assist_dirty: false,
            memo: vec![SlotMemo::Unknown; cfg.warps_per_sm + cfg.max_assist_warps],
            done_unreaped: 0,
            dormant: false,
            reprobe: false,
            settled: 0,
            wake: u64::MAX,
            last_slots: vec![StallKind::Idle; cfg.schedulers_per_sm],
            cand_scratch: Vec::new(),
            parent_rebuilds: 0,
            assist_updates: 0,
            exec_out: ExecOutcome::default(),
            injector: FaultInjector::for_stream(cfg.fault, stream::SM_BASE + id as u64),
            events: Vec::new(),
            events_on: cfg.observability.trace.is_some(),
            metrics: cfg.observability.metrics.enabled().then(|| {
                let (reg, ids) = sim_metrics_schema();
                (ids, reg.shard())
            }),
            breakdown: IssueBreakdown::new(),
            app_instructions: 0,
            assist_instructions: 0,
            shared_accesses: 0,
            threads_retired: 0,
            assist_launches: 0,
            store_buffer_overflows: 0,
            lines_compressed: 0,
            lines_decompressed: 0,
            lines_corrupted: 0,
            corruptions_detected: 0,
            corruption_refetches: 0,
            assist_slots_stolen: 0,
            assist_slots_reclaimed: 0,
        }
    }

    /// This SM's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Base address of this SM's staging region.
    pub fn staging_base(&self) -> u64 {
        STAGING_BASE + self.id as u64 * STAGING_SIZE
    }

    /// This SM's controller.
    ///
    /// # Panics
    ///
    /// Off a CABA design; only the CABA paths call it.
    fn controller(&mut self) -> &mut CabaController {
        self.caba.as_mut().expect("a CABA design has a controller")
    }

    /// Makes the controller, if any, check every BDI assist warp's result
    /// ([`crate::Gpu::set_paranoid`]).
    pub(crate) fn set_paranoid(&mut self, on: bool) {
        if let Some(c) = &mut self.caba {
            c.paranoid = on;
        }
    }

    /// Resident warps.
    pub fn resident_warps(&self) -> usize {
        self.slots[..self.cfg.warps_per_sm]
            .iter()
            .filter(|s| matches!(s.role, Role::App { .. }))
            .count()
    }

    /// Resident blocks.
    pub fn resident_blocks(&self) -> usize {
        debug_assert_eq!(
            self.resident_block_count,
            self.blocks.iter().filter(|b| b.is_some()).count()
        );
        self.resident_block_count
    }

    /// Tries to make block `ctaid` resident; true on success.
    pub fn try_launch_block(&mut self, ctaid: u32, kernel: &Kernel, extra_regs: u32) -> bool {
        let dims = kernel.dims();
        let warps_needed = dims.warps_per_block() as usize;
        let regs_needed = (kernel.regs_per_thread() + extra_regs) * dims.block_dim;
        let shared_needed = kernel.shared_bytes_per_block();

        let block_slot = match self.blocks.iter().position(|b| b.is_none()) {
            Some(s) => s,
            None => return false,
        };
        // All rejection checks run before any allocation or mutation: a
        // blocked dispatch retried every cycle stays heap-quiet, and the
        // next-event clock can rely on failed launches being pure.
        let free = |s: &Slot| matches!(s.role, Role::Free);
        let app_slots = &self.slots[..self.cfg.warps_per_sm];
        if app_slots.iter().filter(|s| free(s)).count() < warps_needed {
            return false;
        }
        if self.used_regs + regs_needed > self.cfg.regfile_per_sm {
            return false;
        }
        if self.used_shared + shared_needed > self.cfg.shared_per_sm {
            return false;
        }
        let free_warps: Vec<usize> = (0..self.cfg.warps_per_sm)
            .filter(|&i| free(&self.slots[i]))
            .take(warps_needed)
            .collect();

        let threads = dims.block_dim;
        for (wib, &slot) in free_warps.iter().enumerate() {
            // Last warp of an odd-sized block has a partial mask.
            let lane_lo = (wib as u32) * WARP_SIZE as u32;
            let lanes = threads.saturating_sub(lane_lo).min(WARP_SIZE as u32);
            let mask = if lanes >= 32 {
                u32::MAX
            } else {
                (1u32 << lanes) - 1
            };
            self.age_seq += 1;
            let s = &mut self.slots[slot];
            s.warp.reset(kernel.regs_per_thread().max(1) as usize, mask);
            s.age = self.age_seq;
            s.role = Role::App {
                block_slot,
                ctaid,
                warp_in_block: wib as u32,
                retired: false,
            };
        }
        self.blocks[block_slot] = Some(Block {
            ctaid,
            warp_slots: free_warps,
            warps_done: 0,
            arrived: 0,
            regs: regs_needed,
            shared: shared_needed,
        });
        self.used_regs += regs_needed;
        self.used_shared += shared_needed;
        self.resident_block_count += 1;
        self.cand_dirty = true;
        self.wake_up();
        true
    }

    /// True when nothing is executing or outstanding in this SM: it has no
    /// next event until a block is launched into it. All constituent
    /// checks are O(1) (maintained counters and queue lengths), so the GPU
    /// can consult this for its completion check, and the SM for its wake
    /// time, without scanning warp or assist slots.
    pub fn quiesced(&self) -> bool {
        self.resident_block_count == 0
            && self.active_assist_count == 0
            && self.assist_pending.is_empty()
            && self.writebacks.is_empty()
            && self.lsu.pending() == 0
            && self.mshr.outstanding() == 0
            && self.pending_decomp.is_empty()
            && self.store_buffer.is_empty()
            && self.out_reqs.is_empty()
    }

    /// Pops an outbound memory request (GPU drains into the crossbar).
    pub fn pop_request(&mut self) -> Option<OutReq> {
        let r = self.out_reqs.pop_front();
        if r.is_some() {
            // Draining a request can unblock a full-queue LSU stall.
            self.wake_up();
        }
        r
    }

    /// Peeks the next outbound request.
    pub fn peek_request(&self) -> Option<&OutReq> {
        self.out_reqs.front()
    }

    /// Requeues a request that could not enter the interconnect.
    pub fn push_request_front(&mut self, req: OutReq) {
        self.out_reqs.push_front(req);
        self.wake_up();
    }

    fn shared_base_for(&self, block_slot: usize) -> u64 {
        SHARED_WINDOW_BASE
            + ((self.id * self.cfg.max_blocks_per_sm + block_slot) as u64) * SHARED_WINDOW_SIZE
    }

    fn alloc_ticket(&mut self, t: Ticket) -> usize {
        if let Some(i) = self.free_tickets.pop() {
            self.tickets[i] = Some(t);
            i
        } else {
            self.tickets.push(Some(t));
            self.tickets.len() - 1
        }
    }

    fn resolve_ticket(&mut self, idx: usize, at: u64) {
        let done = {
            let t = self.tickets[idx].as_mut().expect("live ticket");
            t.remaining -= 1;
            t.remaining == 0
        };
        if done {
            let t = self.tickets[idx].take().expect("live ticket");
            self.free_tickets.push(idx);
            self.push_writeback(Writeback {
                at,
                slot: t.slot,
                reg: t.dst,
            });
            // An assist warp's count stays 0.
            let w = &mut self.slots[t.slot].warp;
            w.outstanding_loads = w.outstanding_loads.saturating_sub(1);
        }
    }

    fn push_writeback(&mut self, wb: Writeback) {
        self.wb_due = self.wb_due.min(wb.at);
        self.writebacks.push(wb);
    }

    fn process_writebacks(&mut self, now: u64) {
        if now < self.wb_due {
            return;
        }
        // The sweep below removes every matured entry; what it keeps is
        // the new earliest due time.
        let mut due = u64::MAX;
        let mut i = 0;
        while i < self.writebacks.len() {
            if self.writebacks[i].at > now {
                due = due.min(self.writebacks[i].at);
                i += 1;
            } else {
                let wb = self.writebacks.swap_remove(i);
                let s = &mut self.slots[wb.slot];
                let Some(r) = wb.reg.filter(|_| !matches!(s.role, Role::Free)) else {
                    continue;
                };
                s.warp.clear_pending(r);
                if s.warp.done && matches!(s.role, Role::Assist { .. }) {
                    self.assist_done[wb.slot / 64] |= 1 << (wb.slot % 64);
                }
                // Only hazard tags depend on pending bits; the blocked-class
                // tags stay hazard-free when bits clear and remain valid.
                if matches!(self.memo[wb.slot], SlotMemo::Hazard(_)) {
                    self.memo[wb.slot] = SlotMemo::Unknown;
                }
            }
        }
        self.wb_due = due;
    }

    // ----- assist warp runtime (AWC/AWT/AWB) -------------------------------

    /// Queues an assist-warp launch (AWT insertion, §3.4 Trigger).
    fn queue_assist(&mut self, launch: AssistLaunch) {
        if launch.priority == AssistPriority::High {
            self.high_pending_count += 1;
        }
        self.assist_pending.push_back(launch);
    }

    /// Deploys at most one pending assist warp per cycle (the AWC's
    /// round-robin deployment, §3.4).
    fn deploy_assist(&mut self, now: u64) {
        if self.assist_pending.is_empty() {
            return;
        }
        if self.active_assist_count == self.cfg.max_assist_warps {
            return;
        }
        // Low-priority assist warps are staged through the dedicated IB
        // partition, which has only `awb_low_priority_entries` slots (§3.3);
        // a gated low-priority launch must not block a high-priority one
        // behind it in the AWT.
        let low_ok = self.low_assist_count < self.cfg.awb_low_priority_entries;
        if !low_ok && self.high_pending_count == 0 {
            return;
        }
        let first = self.cfg.warps_per_sm;
        let slot = first
            + self.slots[first..]
                .iter()
                .position(|s| matches!(s.role, Role::Free))
                .expect("free slot exists: active count below capacity");
        let pos = self
            .assist_pending
            .iter()
            .position(|l| l.priority == AssistPriority::High || low_ok)
            .expect("deployable launch exists: high pending or low gate open");
        let launch = self.assist_pending.remove(pos).expect("position valid");
        if launch.priority == AssistPriority::High {
            self.high_pending_count -= 1;
        }
        self.age_seq += 1;
        let s = &mut self.slots[slot];
        s.warp
            .reset(launch.program.max_reg().max(1) as usize, launch.active_mask);
        for &(reg, val) in &launch.live_in {
            s.warp.write_row(reg, FULL_MASK, &[val; WARP_SIZE]);
        }
        s.age = self.age_seq;
        s.role = Role::Assist {
            program: launch.program,
            priority: launch.priority,
            tag: launch.tag,
            parent: launch.parent_warp,
        };
        let high_priority = launch.priority == AssistPriority::High;
        self.active_assist_count += 1;
        if launch.priority == AssistPriority::Low {
            self.low_assist_count += 1;
        }
        self.assist_launches += 1;
        self.assist_list(launch.priority, launch.parent_warp)
            .push(slot);
        self.assist_dirty = true;
        if self.events_on {
            self.events.push(TraceEvent {
                cycle: now,
                kind: TraceEventKind::AssistSpawn {
                    sm: self.id,
                    high_priority,
                },
            });
        }
        if let Some((ids, shard)) = &mut self.metrics {
            shard.inc(ids.assist_spawned);
            shard.set_max(ids.peak_active_assists, self.active_assist_count as u64);
        }
    }

    /// Retires the done set's ready slots in ascending slot order. A done
    /// slot with writebacks pending leaves the set; its last writeback puts
    /// it back.
    fn finish_assists(&mut self, now: u64, shared: &mut SharedState<'_>) {
        for word in 0..self.assist_done.len() {
            while self.assist_done[word] != 0 {
                let slot = word * 64 + self.assist_done[word].trailing_zeros() as usize;
                self.assist_done[word] &= self.assist_done[word] - 1;
                self.retire_assist(now, slot, shared);
            }
        }
    }

    /// Retires the assist warp in `slot` if it has exited with no
    /// writeback pending.
    fn retire_assist(&mut self, now: u64, slot: usize, shared: &mut SharedState<'_>) {
        let s = &mut self.slots[slot];
        let Role::Assist {
            priority,
            tag,
            parent,
            ..
        } = s.role
        else {
            return;
        };
        if !s.warp.done || s.warp.any_pending() {
            return;
        }
        s.role = Role::Free;
        self.active_assist_count -= 1;
        if priority == AssistPriority::Low {
            self.low_assist_count -= 1;
        }
        self.assist_list(priority, parent).retain(|&s| s != slot);
        self.assist_dirty = true;
        if self.events_on {
            self.events.push(TraceEvent {
                cycle: now,
                kind: TraceEventKind::AssistRetire { sm: self.id },
            });
        }
        if let Some((ids, shard)) = &mut self.metrics {
            shard.inc(ids.assist_retired);
        }
        // Only a controller launches assist warps.
        match self.controller().on_assist_complete(tag, shared) {
            AssistOutcome::FillComplete { addr } => {
                self.lines_decompressed += 1;
                self.complete_fill_waiters(now, addr, 1);
            }
            AssistOutcome::StoreRelease { addr } => {
                self.lines_compressed += 1;
                if let Some(pos) = self.store_buffer.iter().position(|&x| x == addr) {
                    self.store_buffer.remove(pos);
                }
                let size =
                    shared
                        .line_store
                        .stored_size(&shared.mem, shared.cmap.as_deref_mut(), addr);
                self.emit_write(addr, size);
            }
        }
    }

    fn emit_write(&mut self, addr: u64, size_bytes: usize) {
        let flits = size_bytes.div_ceil(caba_mem::icnt::FLIT_BYTES).max(1) as u32;
        self.out_reqs.push_back(OutReq {
            addr,
            is_write: true,
            flits,
        });
    }

    // ----- fills -----------------------------------------------------------

    /// Handles a read response arriving from the interconnect.
    pub fn handle_fill(&mut self, now: u64, addr: u64, shared: &mut SharedState<'_>) {
        // Fills land after the SM phase: cycle `now` is owed first. Then
        // this external input voids whatever the last cycle proved about
        // the SM being frozen.
        self.settle(now + 1);
        self.apply_fill(now, addr, shared);
        self.wake_up();
    }

    fn apply_fill(&mut self, now: u64, addr: u64, shared: &mut SharedState<'_>) {
        // Fault injection: a compressed line arriving at the SM may be
        // corrupted in transit. The fill boundary runs a round-trip check
        // (decompress and compare); in `Recover` mode a detected-corrupt
        // line is discarded and refetched (the MSHR waiters stay parked),
        // while `Silent` mode corrupts the cached compressed form in place
        // so the compression-map audit must catch it.
        if self.injector.active() {
            let compressed = shared.stored_compressed(addr);
            if compressed && self.injector.corrupt_fill() {
                match self.injector.mode() {
                    FaultMode::Recover => {
                        self.lines_corrupted += 1;
                        self.corruptions_detected += 1;
                        self.corruption_refetches += 1;
                        if self.events_on {
                            self.events.push(TraceEvent {
                                cycle: now,
                                kind: TraceEventKind::FillCorrupt { sm: self.id, addr },
                            });
                        }
                        self.out_reqs.push_back(OutReq {
                            addr,
                            is_write: false,
                            flits: 1,
                        });
                        return;
                    }
                    FaultMode::Silent => {
                        let truth = shared.mem.read_line(addr);
                        if let Some(line) =
                            shared.cmap.as_deref_mut().and_then(|c| c.cached_mut(addr))
                        {
                            if self.injector.corrupt_line(line, &truth) {
                                self.lines_corrupted += 1;
                            }
                        }
                    }
                }
            }
        }
        match self.design {
            Design::Base | Design::HwMemOnly => self.complete_fill_waiters(now, addr, 0),
            Design::HwFull { ideal } => {
                let compressed = shared.stored_compressed(addr);
                // Dedicated BDI logic decompresses in one cycle (§5).
                self.lines_decompressed += u64::from(compressed);
                let extra = u64::from(compressed && !ideal);
                self.complete_fill_waiters(now, addr, extra);
            }
            Design::Caba(_) => {
                let cmap = shared.cmap.as_deref_mut();
                let Some(stored) = shared.line_store.stored_compressed(&shared.mem, cmap, addr)
                else {
                    self.complete_fill_waiters(now, addr, 0);
                    return;
                };
                // Find a waiting parent warp for the trigger's warp ID. An
                // assist warp's loads are core-local and never wait here.
                let parent = self.mshr.complete(addr);
                let parent_warp = parent
                    .first()
                    .and_then(|&t| self.tickets[t].as_ref())
                    .map_or(0, |t| {
                        debug_assert!(
                            t.slot < self.cfg.warps_per_sm,
                            "a fill waits for an app warp"
                        );
                        t.slot
                    });
                match self
                    .controller()
                    .on_fill(parent_warp, addr, &stored, &mut shared.mem)
                {
                    FillAction::Complete { extra_latency } => {
                        self.lines_decompressed += 1;
                        self.l1.fill(addr, false, LINE_SIZE);
                        self.resolve_waiters(parent, now + self.cfg.l1_latency + extra_latency);
                    }
                    FillAction::Assist(launch) => {
                        // The waiters park under the line until the assist
                        // warp exits, in the list the MSHR handed over.
                        if let Some(ws) = self.pending_decomp.get_mut(&addr) {
                            ws.extend_from_slice(&parent);
                            self.mshr.recycle(parent);
                        } else {
                            self.pending_decomp.insert(addr, parent);
                        }
                        self.queue_assist(launch);
                    }
                }
            }
        }
    }

    fn complete_fill_waiters(&mut self, now: u64, addr: u64, extra: u64) {
        let size = LINE_SIZE; // L1 stores lines uncompressed (§4.2.1).
        self.l1.fill(addr, false, size);
        let waiters = self.mshr.complete(addr);
        self.resolve_waiters(waiters, now + self.cfg.l1_latency + extra);
        if let Some(ws) = self.pending_decomp.remove(&addr) {
            self.resolve_waiters(ws, now + self.cfg.l1_latency + extra);
        }
    }

    /// Resolves every ticket of a drained waiter list at `at` and hands the
    /// list back to the MSHR file it came from.
    fn resolve_waiters(&mut self, waiters: Vec<usize>, at: u64) {
        for &t in &waiters {
            self.resolve_ticket(t, at);
        }
        self.mshr.recycle(waiters);
    }

    // ----- LSU -------------------------------------------------------------

    fn lsu_cycle(&mut self, now: u64, shared: &mut SharedState<'_>) {
        let Some(op) = self.lsu.head().copied() else {
            return;
        };
        match op.kind {
            LineOpKind::AssistLocal { ticket } => {
                self.lsu.pop();
                if let Some(t) = ticket {
                    self.resolve_ticket(t, now + self.cfg.l1_latency);
                }
            }
            LineOpKind::Load { ticket } => {
                // A line already awaiting assist-warp decompression absorbs
                // new waiters directly (the load-replay buffering of Fig. 6).
                if let Some(ws) = self.pending_decomp.get_mut(&op.addr) {
                    ws.push(ticket);
                    self.lsu.pop();
                    return;
                }
                match self.l1.access(op.addr, false) {
                    AccessOutcome::Hit => {
                        self.lsu.pop();
                        let mut lat = self.cfg.l1_latency;
                        if self.cfg.l1_compressed {
                            let compressible = shared.stored_compressed(op.addr);
                            if compressible {
                                lat += self.cfg.l1_hit_decompress_penalty;
                            }
                        }
                        self.resolve_ticket(ticket, now + lat);
                    }
                    AccessOutcome::Miss => {
                        if self.mshr.pending(op.addr) {
                            self.mshr
                                .allocate(op.addr, ticket)
                                .expect("merge into pending entry");
                            self.lsu.pop();
                        } else if self.out_reqs.len() < 32 {
                            match self.mshr.allocate(op.addr, ticket) {
                                Ok(_) => {
                                    self.out_reqs.push_back(OutReq {
                                        addr: op.addr,
                                        is_write: false,
                                        flits: 1,
                                    });
                                    self.lsu.pop();
                                }
                                Err(_) => { /* MSHRs full: stall the LSU head. */ }
                            }
                        }
                        // else: outbound queue full, stall.
                    }
                }
            }
            LineOpKind::Store => {
                self.handle_store_line(op, shared);
            }
        }
    }

    fn handle_store_line(&mut self, op: LineOp, shared: &mut SharedState<'_>) {
        let addr = op.addr;
        // An assist warp's stores are core-local and never take this path.
        debug_assert!(
            matches!(op.warp, WarpRef::App(_)),
            "a store from an assist warp"
        );
        let parent_warp = self
            .slot_of(op.warp)
            .expect("the LSU names this SM's slots");
        match self.design {
            Design::Base | Design::HwMemOnly => {
                // HW-BDI-Mem compresses at the MC; the interconnect carries
                // the full line.
                self.lsu.pop();
                self.emit_write(addr, LINE_SIZE);
            }
            Design::HwFull { .. } => {
                // Dedicated core-side logic compresses (5-cycle pipeline, off
                // the critical path): the outgoing packet is compressed.
                self.lsu.pop();
                let size =
                    shared
                        .line_store
                        .stored_size(&shared.mem, shared.cmap.as_deref_mut(), addr);
                self.lines_compressed += u64::from(size < LINE_SIZE);
                self.emit_write(addr, size);
            }
            Design::Caba(_) => {
                if self.store_buffer.contains(&addr) {
                    // A compression assist is already in flight for this
                    // line; the newer store is coalesced into it.
                    self.lsu.pop();
                    return;
                }
                if self.store_buffer.len() >= self.cfg.store_buffer {
                    // Overflow: release uncompressed (§4.2.2 Ï).
                    self.lsu.pop();
                    self.store_buffer_overflows += 1;
                    shared.line_store.set_raw(addr);
                    self.emit_write(addr, LINE_SIZE);
                    return;
                }
                let action = self.controller().on_store(parent_warp, addr, shared);
                self.lsu.pop();
                match action {
                    StoreAction::PassThrough => {
                        shared.line_store.set_raw(addr);
                        self.emit_write(addr, LINE_SIZE);
                    }
                    StoreAction::Assist(launch) => {
                        self.store_buffer.push_back(addr);
                        self.queue_assist(launch);
                    }
                }
            }
        }
    }

    // ----- issue -----------------------------------------------------------

    /// What `slot` would issue next: the decoded metadata of its head
    /// instruction, the scoreboard's answer for it, and the instruction
    /// itself, which the issuing path alone reads. `None` for a free slot,
    /// an exited warp, one parked at a barrier (assist programs hold no
    /// barrier), or a PC past the program's end.
    fn head<'a>(&'a self, slot: usize, kernel: &'a Program) -> Option<Head<'a>> {
        let Slot { warp, role, .. } = &self.slots[slot];
        let program = match role {
            Role::Free => return None,
            Role::App { .. } => kernel,
            Role::Assist { program, .. } => program,
        };
        if warp.at_barrier || warp.done {
            return None;
        }
        let pc = warp.pc();
        let (meta, instr) = (program.fetch_meta(pc)?, program.fetch(pc)?);
        let hazard = warp.hazard_at(meta, instr);
        Some(Head {
            meta,
            hazard,
            instr,
        })
    }

    fn check_issue(
        &self,
        now: u64,
        meta: IssueMeta,
        hazard: bool,
        lsu_free: bool,
    ) -> Result<(), IssueBlock> {
        if hazard {
            return Err(IssueBlock::Hazard);
        }
        let open = match meta.fu {
            FuClass::Sp => return Ok(()),
            FuClass::Sfu => {
                return if now >= self.sfu_ready_at {
                    Ok(())
                } else {
                    Err(IssueBlock::ComputeStructural)
                }
            }
            // Shared accesses use the shared-memory pipe; they only need
            // the mem issue slot.
            FuClass::Mem if meta.shared_space => lsu_free,
            FuClass::Mem => lsu_free && self.lsu.can_accept(1),
        };
        if open {
            Ok(())
        } else {
            Err(IssueBlock::MemStructural)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn do_issue(
        &mut self,
        now: u64,
        slot: usize,
        instr: Instr,
        kernel: &Kernel,
        shared: &mut SharedState<'_>,
        lsu_used: &mut bool,
    ) {
        // Build the thread context.
        let (ctx, is_assist) = match self.slots[slot].role {
            Role::App {
                block_slot,
                ctaid,
                warp_in_block,
                ..
            } => (
                ThreadCtx {
                    block_dim: kernel.dims().block_dim,
                    grid_dim: kernel.dims().grid_dim,
                    params: kernel.params(),
                    ctaid,
                    warp_in_block,
                    shared_base: self.shared_base_for(block_slot),
                },
                false,
            ),
            Role::Assist { .. } => (
                ThreadCtx {
                    block_dim: WARP_SIZE as u32,
                    grid_dim: 1,
                    params: &[],
                    ctaid: 0,
                    warp_in_block: 0,
                    shared_base: self.staging_base(),
                },
                true,
            ),
            Role::Free => unreachable!("a free slot never issues"),
        };

        let warp = &mut self.slots[slot].warp;
        warp.issued += 1;
        warp.last_issue = now;
        execute_into(warp, &instr, &ctx, &mut shared.mem, &mut self.exec_out);
        // `head` never offers a done warp, so `done` here means this issue
        // exited the last lanes.
        if warp.done {
            if is_assist {
                self.assist_done[slot / 64] |= 1 << (slot % 64);
            } else {
                self.done_unreaped += 1;
            }
        }
        if is_assist {
            self.assist_instructions += 1;
        } else {
            self.app_instructions += 1;
        }

        // Shared-space accesses: fixed latency through the shared pipe.
        let dst = self.exec_out.dst;
        if self.exec_out.shared_access {
            self.shared_accesses += 1;
            *lsu_used = true;
            if let Some(dst) = dst {
                self.mark_pending_and_schedule(slot, dst, now + self.cfg.shared_latency);
            }
            return;
        }

        // Global memory operations go through the LSU.
        let warp_ref = self.warp_ref(slot);
        let lines_read = self.exec_out.lines_read.len();
        if lines_read != 0 {
            *lsu_used = true;
            if let Some(d) = dst {
                self.slots[slot].warp.mark_pending(d);
            }
            let ticket = self.alloc_ticket(Ticket {
                slot,
                dst,
                remaining: lines_read as u32,
            });
            // An assist warp's loads are core-local: it never waits on
            // memory, so its count stays 0.
            let kind = if is_assist {
                LineOpKind::AssistLocal {
                    ticket: Some(ticket),
                }
            } else {
                self.slots[slot].warp.outstanding_loads += 1;
                LineOpKind::Load { ticket }
            };
            for &addr in self.exec_out.lines_read.iter() {
                self.lsu.push(LineOp {
                    warp: warp_ref,
                    addr,
                    kind,
                });
            }
        } else if let Some(dst) = dst {
            // Pure compute result.
            let lat = match instr.fu_class() {
                FuClass::Sfu => {
                    self.sfu_ready_at = now + self.cfg.sfu_interval;
                    self.cfg.sfu_latency
                }
                _ => self.cfg.sp_latency,
            };
            self.mark_pending_and_schedule(slot, dst, now + lat);
        }

        if !self.exec_out.lines_written.is_empty() {
            *lsu_used = true;
            let kind = if is_assist {
                LineOpKind::AssistLocal { ticket: None }
            } else {
                LineOpKind::Store
            };
            for &addr in self.exec_out.lines_written.iter() {
                if !is_assist {
                    // Application stores change line contents: the stored
                    // form is stale, and so is the compression map's. The
                    // map needs no call here because this SM's look-ups
                    // bypass it for lines in its own shadow and the
                    // end-of-cycle commit invalidates them for everyone —
                    // which holds only under an overlay view.
                    debug_assert!(
                        shared.cmap.is_none() || matches!(shared.mem, SharedMem::Overlay { .. })
                    );
                    shared.line_store.clear(addr);
                }
                self.lsu.push(LineOp {
                    warp: warp_ref,
                    addr,
                    kind,
                });
            }
        }

        // Control effects.
        if self.exec_out.at_barrier {
            if let Role::App { block_slot, .. } = self.slots[slot].role {
                self.barrier_arrive(block_slot);
            }
        }
        // Exit shows as `warp.done`; such warps are reaped in `reap_warps`
        // once their in-flight loads drain, so stale writebacks can never
        // touch a reused slot.
    }

    fn mark_pending_and_schedule(&mut self, slot: usize, reg: Reg, at: u64) {
        self.slots[slot].warp.mark_pending(reg);
        self.push_writeback(Writeback {
            at,
            slot,
            reg: Some(reg),
        });
    }

    /// The name of `slot` in the LSU queue and on the snapshot wire.
    fn warp_ref(&self, slot: usize) -> WarpRef {
        let apps = self.cfg.warps_per_sm;
        if slot < apps {
            WarpRef::App(slot)
        } else {
            WarpRef::Assist(slot - apps)
        }
    }

    /// The slot `wr` names; an error for one outside this SM's table.
    fn slot_of(&self, wr: WarpRef) -> Result<usize, SnapError> {
        let apps = self.cfg.warps_per_sm;
        match wr {
            WarpRef::App(i) if i < apps => Ok(i),
            WarpRef::Assist(i) if i < self.cfg.max_assist_warps => Ok(apps + i),
            _ => Err(SnapError::Invariant {
                what: "warp slot out of range",
            }),
        }
    }

    fn barrier_arrive(&mut self, block_slot: usize) {
        let release = {
            let b = self.blocks[block_slot].as_mut().expect("resident block");
            b.arrived += 1;
            let live = b.warp_slots.len() - b.warps_done;
            b.arrived >= live
        };
        if release {
            self.barrier_release(block_slot);
        }
    }

    fn retire_warp(&mut self, block_slot: usize) {
        // Threads retired: all lanes of the warp's initial mask. For
        // simplicity we count 32 per warp (partial warps are rare in the
        // workloads).
        self.threads_retired += WARP_SIZE as u64;
        let block_done = {
            let b = self.blocks[block_slot].as_mut().expect("resident block");
            b.warps_done += 1;
            // A retiring warp may unblock a barrier.
            b.warps_done == b.warp_slots.len()
        };
        // Re-check barrier release.
        if !block_done {
            let (arrived, live) = {
                let b = self.blocks[block_slot].as_ref().expect("resident block");
                (b.arrived, b.warp_slots.len() - b.warps_done)
            };
            if live > 0 && arrived >= live {
                self.barrier_release(block_slot);
            }
        }
        if block_done {
            let b = self.blocks[block_slot].take().expect("resident block");
            self.resident_block_count -= 1;
            self.blocks_retired_total += 1;
            self.cand_dirty = true;
            for &s in &b.warp_slots {
                self.slots[s].role = Role::Free;
            }
            self.used_regs -= b.regs;
            self.used_shared -= b.shared;
        }
    }

    fn barrier_release(&mut self, block_slot: usize) {
        let slots = self.blocks[block_slot]
            .as_ref()
            .expect("resident block")
            .warp_slots
            .clone();
        for s in slots {
            self.slots[s].warp.at_barrier = false;
            if matches!(self.memo[s], SlotMemo::Barrier) {
                self.memo[s] = SlotMemo::Unknown;
            }
        }
        if let Some(b) = self.blocks[block_slot].as_mut() {
            b.arrived = 0;
        }
    }

    /// Rebuilds the per-scheduler candidate caches. Runs only when block
    /// residency changed since the last cycle; scheduling order is identical
    /// to rebuilding from scratch every cycle because slot ages are fixed at
    /// launch and dynamic skips (done, at-barrier) happen in `head` at
    /// consideration time.
    fn rebuild_candidates(&mut self) {
        self.wipe_memos();
        let nsched = self.cfg.schedulers_per_sm;
        for v in self.cands.iter_mut().flatten() {
            v.clear();
        }
        // One pass by age: each list takes one role, so it sees its own
        // slots in age order.
        let mut tmp = std::mem::take(&mut self.cand_scratch);
        tmp.clear();
        tmp.extend(
            self.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !matches!(s.role, Role::Free))
                .map(|(i, s)| (s.age, i)),
        );
        tmp.sort_unstable();
        for &(_, i) in &tmp {
            match self.slots[i].role {
                Role::App { .. } => self.cands[i % nsched][ListKind::Parents as usize].push(i),
                Role::Assist {
                    priority, parent, ..
                } => self.assist_list(priority, parent).push(i),
                Role::Free => unreachable!("filtered out"),
            }
        }
        self.cand_scratch = tmp;
        (self.cand_dirty, self.assist_dirty) = (false, false);
        self.parent_rebuilds += 1;
    }

    /// Every residency change, assist-side ones included, voids every memo:
    /// slots may have been reused since they were written. For the parents'
    /// memos on an assist event the wipe is more than hygiene, it is
    /// observable: a `Hazard(HazardMem)` memo written while a load was
    /// outstanding re-classifies to `HazardSb`/`HazardCtrl` once
    /// `resolve_ticket` has dropped `outstanding_loads` and before the
    /// writeback lands (the window `snap_load` documents), so skipping it
    /// moves Fig. 1 buckets.
    fn wipe_memos(&mut self) {
        self.memo.fill(SlotMemo::Unknown);
    }

    /// The list an assist warp of `priority` coupled to `parent` is offered
    /// from. Deploy appends to it (a new assist is the youngest) and retire
    /// removes from it, so the two assist lists are current at all times.
    fn assist_list(&mut self, priority: AssistPriority, parent: usize) -> &mut Vec<usize> {
        let which = match priority {
            AssistPriority::High => ListKind::HiAssist,
            AssistPriority::Low => ListKind::LowAssist,
        };
        &mut self.cands[parent % self.cfg.schedulers_per_sm][which as usize]
    }

    /// An assist deployed or retired and no block did: deploy and retire
    /// spliced the assist lists already and the parents' list stands, so
    /// all that is owed is the memo wipe.
    fn refresh_assist_candidates(&mut self) {
        self.wipe_memos();
        self.assist_dirty = false;
        self.assist_updates += 1;
    }

    /// Classifies a scoreboard hazard for `slot` blocked on an instruction
    /// into its [`StallVerdict`]: waiting on memory data when the warp has
    /// loads in flight, control-reconvergence when the blocked instruction
    /// `steers` control flow, otherwise a plain in-pipeline dependency.
    ///
    /// Assist warps never raise their `outstanding_loads` (their load
    /// tickets resolve straight to writebacks), so their hazards classify
    /// as pipeline/control stalls — a small, documented approximation
    /// (DESIGN.md "Observability").
    fn classify_hazard(&self, slot: usize, steers: bool) -> StallVerdict {
        if self.slots[slot].warp.outstanding_loads > 0 {
            StallVerdict::HazardMem
        } else if steers {
            StallVerdict::HazardCtrl
        } else {
            StallVerdict::HazardSb
        }
    }

    /// Offers `slot` the issue slot. Returns whether it issued; on a block,
    /// folds the stall reason into `verdict` via [`fold_verdict`] (first
    /// blocked candidate in priority order wins within an evidence tier).
    /// The memo tag check is inlined into every scan step, so a memoized
    /// blocked candidate costs no call into [`Sm::evaluate`].
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn consider(
        &mut self,
        now: u64,
        sched: usize,
        slot: usize,
        kernel: &Kernel,
        shared: &mut SharedState<'_>,
        lsu_used: &mut bool,
        verdict: &mut Option<StallVerdict>,
    ) -> bool {
        !self.memo_blocks(now, slot, *lsu_used, verdict)
            && self.evaluate(now, sched, slot, kernel, shared, lsu_used, verdict)
    }

    /// Whether `slot`'s memo alone proves it cannot issue this cycle; if so
    /// its stall reason is folded into `verdict` exactly as
    /// [`Sm::evaluate`] would fold it (see [`SlotMemo`] for the
    /// invariants). `Hazard`, `Done` and `Barrier` always decide;
    /// `MemBlocked` and `SfuBlocked` decide while their shared condition
    /// (the LSU issue path, the SFU interval) is closed, and fall through
    /// to a real issue once it opens.
    #[inline(always)]
    fn memo_blocks(
        &self,
        now: u64,
        slot: usize,
        lsu_used: bool,
        verdict: &mut Option<StallVerdict>,
    ) -> bool {
        let v = match self.memo[slot] {
            SlotMemo::Unknown => return false,
            SlotMemo::Done => return true,
            // The memo stores the classified verdict, so this folds
            // identically to the recomputed `IssueBlock::Hazard` path.
            SlotMemo::Hazard(h) => h,
            SlotMemo::Barrier => StallVerdict::Barrier,
            SlotMemo::MemBlocked { shared } => {
                if !lsu_used && (shared || self.lsu.can_accept(1)) {
                    return false;
                }
                StallVerdict::MemStructural
            }
            SlotMemo::SfuBlocked => {
                if now >= self.sfu_ready_at {
                    return false;
                }
                StallVerdict::ComputeStructural
            }
        };
        *verdict = fold_verdict(*verdict, v);
        true
    }

    /// The full evaluation behind [`Sm::consider`]: fetch,
    /// scoreboard/structural check, and issue on success. A block memoizes
    /// what it proved.
    #[allow(clippy::too_many_arguments)]
    fn evaluate(
        &mut self,
        now: u64,
        sched: usize,
        slot: usize,
        kernel: &Kernel,
        shared: &mut SharedState<'_>,
        lsu_used: &mut bool,
        verdict: &mut Option<StallVerdict>,
    ) -> bool {
        let Some(head) = self.head(slot, kernel.program()) else {
            // `head` skips done and barrier-parked warps. A live warp
            // parked at a barrier is the paper's synchronization stall.
            let w = &self.slots[slot].warp;
            self.memo[slot] = if w.at_barrier && !w.done {
                *verdict = fold_verdict(*verdict, StallVerdict::Barrier);
                SlotMemo::Barrier
            } else {
                SlotMemo::Done
            };
            return false;
        };
        let meta = head.meta;
        match self.check_issue(now, meta, head.hazard, !*lsu_used) {
            Ok(()) => {
                let instr = *head.instr;
                // The slot's state (PC, pending bits) is about to change:
                // whatever was memoized is void.
                self.memo[slot] = SlotMemo::Unknown;
                self.do_issue(now, slot, instr, kernel, shared, lsu_used);
                self.greedy[sched] = Some(slot);
                true
            }
            Err(block) => {
                let (memo, v) = match block {
                    IssueBlock::Hazard => {
                        let h = self.classify_hazard(slot, meta.steers);
                        (SlotMemo::Hazard(h), h)
                    }
                    IssueBlock::MemStructural => {
                        let shared = meta.shared_space;
                        (SlotMemo::MemBlocked { shared }, StallVerdict::MemStructural)
                    }
                    IssueBlock::ComputeStructural => {
                        (SlotMemo::SfuBlocked, StallVerdict::ComputeStructural)
                    }
                };
                self.memo[slot] = memo;
                *verdict = fold_verdict(*verdict, v);
                false
            }
        }
    }

    /// Offers one candidate list the issue slot in issue-priority order,
    /// skipping `skip_slot` (the greedy warp, offered separately). Returns
    /// whether a candidate issued; every candidate passed over folds its
    /// stall reason into `verdict`, in scan order.
    #[allow(clippy::too_many_arguments)]
    fn scan_list(
        &mut self,
        now: u64,
        sched: usize,
        which: ListKind,
        skip_slot: Option<usize>,
        kernel: &Kernel,
        shared: &mut SharedState<'_>,
        lsu_used: &mut bool,
        verdict: &mut Option<StallVerdict>,
    ) -> bool {
        let list = which as usize;
        for pos in 0..self.cands[sched][list].len() {
            let slot = self.cands[sched][list][pos];
            if skip_slot == Some(slot) {
                continue;
            }
            if self.consider(now, sched, slot, kernel, shared, lsu_used, verdict) {
                return true;
            }
        }
        false
    }

    fn schedule(
        &mut self,
        now: u64,
        kernel: &Kernel,
        shared: &mut SharedState<'_>,
        lsu_used: &mut bool,
    ) {
        if self.cand_dirty {
            self.rebuild_candidates();
        } else if self.assist_dirty {
            self.refresh_assist_candidates();
        }
        for sched in 0..self.cfg.schedulers_per_sm {
            let mut verdict: Option<StallVerdict> = None;

            // High-priority assist warps first (decompression precedes
            // parent execution, §3.2.3)...
            let mut issued = self.scan_list(
                now,
                sched,
                ListKind::HiAssist,
                None,
                kernel,
                shared,
                lsu_used,
                &mut verdict,
            );
            // A high-priority assist issuing ahead of parent warps is the
            // Fig. 13/14 "stolen" issue slot.
            let issued_hi = issued;

            // ...then parent warps greedy-then-oldest (GTO, Table 1): the
            // greedy warp first, then the rest oldest-first.
            if !issued {
                // The greedy warp is an app warp's slot, or none.
                let skip = self.greedy[sched].filter(|&g| g < self.cfg.warps_per_sm);
                if let Some(g) = skip {
                    let resident = matches!(self.slots[g].role, Role::App { .. });
                    if resident && g % self.cfg.schedulers_per_sm == sched {
                        issued =
                            self.consider(now, sched, g, kernel, shared, lsu_used, &mut verdict);
                    }
                }
                if !issued {
                    issued = self.scan_list(
                        now,
                        sched,
                        ListKind::Parents,
                        skip,
                        kernel,
                        shared,
                        lsu_used,
                        &mut verdict,
                    );
                }
            }

            // Low-priority assist warps: only in otherwise-idle slots — the
            // slot would otherwise be wasted on a stall, which is exactly
            // the "idle issue slot" the paper's low-priority assist warps
            // reclaim (§3.2.3).
            let issued_before_low = issued;
            if !issued {
                issued = self.scan_list(
                    now,
                    sched,
                    ListKind::LowAssist,
                    None,
                    kernel,
                    shared,
                    lsu_used,
                    &mut verdict,
                );
            }

            let slot = if issued {
                if issued_hi {
                    self.assist_slots_stolen += 1;
                    StallKind::IssuedAssist
                } else if !issued_before_low {
                    self.assist_slots_reclaimed += 1;
                    StallKind::IssuedAssist
                } else {
                    StallKind::IssuedApp
                }
            } else {
                verdict.map(StallVerdict::bucket).unwrap_or(StallKind::Idle)
            };
            self.breakdown.record(slot);
            self.last_slots[sched] = slot;
        }
    }

    // ----- main per-cycle entry --------------------------------------------

    /// Advances this SM by one cycle: settles any cycles it slept through
    /// ([`Sm::settle`]), runs the whole pipeline, and re-derives
    /// [`Sm::next_event`] from what the cycle changed.
    ///
    /// On a design with a compression map, `shared.mem` must be an overlay
    /// view whose delta the caller commits (invalidating what was written)
    /// before the next cycle: stores do not invalidate the map themselves.
    pub fn cycle(&mut self, now: u64, kernel: &Kernel, shared: &mut SharedState<'_>) {
        self.settle(now);
        let pre = self.activity_signature();
        let pre_misses = self.l1.misses();
        self.process_writebacks(now);
        self.reap_warps();
        self.finish_assists(now, shared);
        self.deploy_assist(now);
        let mut lsu_used = false;
        self.schedule(now, kernel, shared, &mut lsu_used);
        self.lsu_cycle(now, shared);
        if let Some((ids, shard)) = &mut self.metrics {
            shard.set_max(ids.peak_lsu_pending, self.lsu.pending() as u64);
        }
        self.settled = now + 1;
        self.update_dormancy(now, pre, pre_misses);
    }

    /// A cheap fingerprint of every SM-internal mutation path. Each way a
    /// cycle can change future behaviour — an issue, an LSU pop, a
    /// writeback landing, a reap, an assist deploy/finish, a store-buffer
    /// or decompression-queue drain, an outbound request, an L1 hit —
    /// moves at least one of these counters, so `pre == post` proves the
    /// cycle changed nothing but, possibly, the L1 miss count: a stalled
    /// LSU head (a miss with the MSHRs or the outbound queue full)
    /// re-probes the cache every cycle, which [`Sm::update_dormancy`]
    /// accounts for separately. Hazard-memo writes are deliberately
    /// excluded: the memoized fold is defined to resolve identically to
    /// the recomputed one, so they never change a verdict.
    fn activity_signature(&self) -> [u64; 12] {
        [
            self.app_instructions,
            self.assist_instructions,
            self.lsu.processed(),
            self.l1.hits(),
            self.writebacks.len() as u64,
            self.assist_pending.len() as u64,
            self.active_assist_count as u64,
            u64::from(self.done_unreaped),
            self.out_reqs.len() as u64,
            self.store_buffer.len() as u64,
            self.pending_decomp.len() as u64,
            self.assist_launches + self.threads_retired,
        ]
    }

    /// Decides whether the cycle just executed at `now` proved the SM
    /// frozen. It did when the activity signature is unchanged and the L1
    /// took at most one miss: that miss can only be the stalled LSU head
    /// re-probing, and it repeats every cycle until a fill frees an MSHR or
    /// the GPU drains the outbound queue — both external input, which wakes
    /// the SM. Until then the SM acts on its own only when a writeback
    /// matures or the SFU frees, which is its wake time.
    fn update_dormancy(&mut self, now: u64, pre: [u64; 12], pre_misses: u64) {
        let post = self.activity_signature();
        // An OR of XORs instead of `pre == post`, which compiles to a
        // `bcmp` call.
        let changed = pre.iter().zip(&post).fold(0, |d, (a, b)| d | (a ^ b));
        let misses = self.l1.misses() - pre_misses;
        if changed != 0 || misses > 1 {
            return self.wake_up();
        }
        self.dormant = true;
        self.reprobe = misses == 1;
        self.wake = self.wb_due.max(now + 1);
        if self.sfu_ready_at > now {
            self.wake = self.wake.min(self.sfu_ready_at);
        }
    }

    /// The next cycle at which this SM must be cycled, or `None` when only
    /// external input (a block launch, a fill, an outbound request popped)
    /// can change it. A frozen SM answers its dormancy horizon, an empty
    /// one `None`, any other SM the cycle after its last. Every cycle
    /// before the answer would repeat the last executed one (or, on an
    /// empty SM, record `Idle` slots), and [`Sm::settle`] accounts for
    /// them in bulk.
    pub fn next_event(&self) -> Option<u64> {
        (self.wake != u64::MAX).then_some(self.wake)
    }

    /// Whether cycle `now` must be executed rather than settled.
    pub fn due(&self, now: u64) -> bool {
        self.wake <= now
    }

    /// The SM is not frozen (external input arrived, or its last cycle
    /// changed something): it is due at its next cycle, unless it is empty.
    fn wake_up(&mut self) {
        self.dormant = false;
        self.wake = if self.quiesced() {
            u64::MAX
        } else {
            self.settled
        };
    }

    /// Accounts for every cycle before `upto` that was not executed: each
    /// scheduler re-records the bucket its slot resolved to in the last
    /// executed cycle (`Idle` on an empty SM), and a re-probing LSU head
    /// takes one L1 miss per cycle — exactly what executing them would have
    /// done. Owed before the SM is cycled, filled or launched into, and
    /// before anything reads it; a no-op when nothing is owed.
    pub fn settle(&mut self, upto: u64) {
        if upto <= self.settled {
            return;
        }
        let span = upto - self.settled;
        self.settled = upto;
        let frozen = self.dormant;
        debug_assert!(frozen || self.quiesced(), "settling cycles an SM was due");
        for sched in 0..self.cfg.schedulers_per_sm {
            let slot = if frozen {
                self.last_slots[sched]
            } else {
                StallKind::Idle
            };
            self.breakdown.record_n(slot, span);
        }
        if frozen && self.reprobe {
            self.l1.credit_misses(span);
        }
    }

    /// Retires warps whose lanes all exited and whose in-flight results have
    /// drained. Warp slots (and registers/shared memory) are released only
    /// when the *whole block* retires — freeing them per-warp would let a
    /// newly launched block be clobbered when the old block completes.
    fn reap_warps(&mut self) {
        if self.done_unreaped == 0 {
            return;
        }
        for slot in 0..self.cfg.warps_per_sm {
            let Slot { warp, role, .. } = &mut self.slots[slot];
            let Role::App {
                block_slot,
                retired,
                ..
            } = role
            else {
                continue;
            };
            if *retired || !warp.done || warp.any_pending() || warp.outstanding_loads != 0 {
                continue;
            }
            *retired = true;
            let bs = *block_slot;
            self.done_unreaped -= 1;
            self.retire_warp(bs);
        }
    }

    // ----- statistics ------------------------------------------------------

    /// `(full candidate rebuilds, assist-only list updates)` so far.
    pub(crate) fn list_rebuilds(&self) -> (u64, u64) {
        (self.parent_rebuilds, self.assist_updates)
    }

    /// Monotonic blocks-retired count (the CTA-dispatch gate signal).
    pub(crate) fn blocks_retired_total(&self) -> u64 {
        self.blocks_retired_total
    }

    /// Adds this SM's counters into `stats`.
    pub fn export_stats(&self, stats: &mut crate::stats::RunStats) {
        stats.app_instructions += self.app_instructions;
        stats.assist_instructions += self.assist_instructions;
        stats.breakdown.merge(&self.breakdown);
        stats.l1_hits += self.l1.hits();
        stats.l1_misses += self.l1.misses();
        stats.shared_accesses += self.shared_accesses;
        stats.threads_retired += self.threads_retired;
        stats.assist_launches += self.assist_launches;
        stats.store_buffer_overflows += self.store_buffer_overflows;
        stats.lines_compressed += self.lines_compressed;
        stats.lines_decompressed += self.lines_decompressed;
        stats.lines_corrupted += self.lines_corrupted;
        stats.corruptions_detected += self.corruptions_detected;
        stats.corruption_refetches += self.corruption_refetches;
        stats.assist_slots_stolen += self.assist_slots_stolen;
        stats.assist_slots_reclaimed += self.assist_slots_reclaimed;
    }

    /// This SM's metric shard (`MetricsLevel::Full` only); the GPU merges
    /// shards in SM index order at export.
    pub(crate) fn metric_shard(&self) -> Option<&MetricShard> {
        self.metrics.as_ref().map(|(_, s)| s)
    }

    /// Moves this SM's buffered instant events into `out` (called by the
    /// GPU tracer in SM index order).
    pub(crate) fn drain_events(&mut self, out: &mut Vec<TraceEvent>) {
        out.append(&mut self.events);
    }

    /// Records instant events from now on, dropping any still buffered (a
    /// new trace starts: [`crate::Gpu::start_trace`]).
    pub(crate) fn record_events(&mut self) {
        self.events_on = true;
        self.events.clear();
    }

    // ----- integrity layer --------------------------------------------------

    /// A value that strictly increases whenever this SM makes forward
    /// progress (used by the GPU watchdog).
    pub fn progress_signature(&self) -> u64 {
        self.app_instructions
            .wrapping_add(self.assist_instructions)
            .wrapping_add(self.lsu.processed())
            .wrapping_add(self.threads_retired)
    }

    /// Lines with an outstanding L1 MSHR entry.
    pub fn mshr_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.mshr.iter().map(|(addr, _)| addr)
    }

    /// True when a read of `addr` is still queued toward the interconnect.
    pub fn has_out_req(&self, addr: u64) -> bool {
        self.out_reqs.iter().any(|r| r.addr == addr && !r.is_write)
    }

    fn classify_warp(&self, now: u64, slot: usize, program: &Program) -> WarpState {
        let w = &self.slots[slot].warp;
        if w.done {
            return WarpState::Done;
        }
        if w.at_barrier {
            return WarpState::AtBarrier;
        }
        let Some(head) = self.head(slot, program) else {
            return WarpState::Ready;
        };
        match self.check_issue(now, head.meta, head.hazard, true) {
            Ok(()) => WarpState::Ready,
            Err(IssueBlock::Hazard) => WarpState::DataDependence {
                outstanding_loads: w.outstanding_loads,
            },
            Err(IssueBlock::MemStructural) => WarpState::MemoryStructural,
            Err(IssueBlock::ComputeStructural) => WarpState::ComputeStructural,
        }
    }

    /// Captures this SM's occupancy and per-warp state for a hang report.
    pub fn snapshot(&self, now: u64, kernel: &Kernel) -> SmSnapshot {
        let warps = self.slots[..self.cfg.warps_per_sm]
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s.role {
                Role::App {
                    ctaid,
                    retired: false,
                    ..
                } => Some(WarpSnapshot {
                    slot: i,
                    ctaid,
                    pc: s.warp.pc(),
                    active_mask: s.warp.active_mask(),
                    state: self.classify_warp(now, i, kernel.program()),
                }),
                _ => None,
            })
            .collect();
        SmSnapshot {
            id: self.id,
            warps,
            mshr_outstanding: self.mshr.outstanding(),
            mshr_capacity: self.mshr.capacity(),
            lsu_pending: self.lsu.pending(),
            store_buffer: self.store_buffer.len(),
            out_reqs: self.out_reqs.len(),
            assists_active: self.active_assist_count,
            pending_decomp: self.pending_decomp.len(),
        }
    }

    /// Checks this SM's structural invariants (occupancy bounds, scoreboard
    /// and SIMT-stack consistency), appending any violations to `out`.
    pub fn audit_into(&self, cycle: u64, out: &mut Vec<Violation>) {
        let component = Component::Sm(self.id);
        let mut flag = |detail: String| {
            out.push(Violation {
                cycle,
                component,
                detail,
            })
        };

        // Fig. 1 conservation: the seven taxonomy buckets are mutually
        // exclusive and exhaustive, so they must sum to exactly one record
        // per scheduler per elapsed cycle (the GPU settles every SM before
        // it audits, so this holds for SMs that slept too).
        let expected_slots = cycle.saturating_mul(self.cfg.schedulers_per_sm as u64);
        if self.breakdown.total() != expected_slots {
            flag(format!(
                "issue-slot taxonomy sums to {} but {} scheduler-slots have elapsed \
                 ({} cycles x {} schedulers)",
                self.breakdown.total(),
                expected_slots,
                cycle,
                self.cfg.schedulers_per_sm
            ));
        }

        if self.mshr.outstanding() > self.mshr.capacity() {
            flag(format!(
                "L1 MSHR holds {} lines, capacity {}",
                self.mshr.outstanding(),
                self.mshr.capacity()
            ));
        }
        if self.store_buffer.len() > self.cfg.store_buffer {
            flag(format!(
                "store buffer holds {} lines, capacity {}",
                self.store_buffer.len(),
                self.cfg.store_buffer
            ));
        }

        // Live load tickets per application warp slot.
        let mut ticket_loads: FxHashMap<usize, u32> = FxHashMap::default();
        for t in self.tickets.iter().flatten() {
            *ticket_loads.entry(t.slot).or_default() += 1;
        }
        for (slot, s) in self.slots[..self.cfg.warps_per_sm]
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.role, Role::App { .. }))
        {
            let warp = &s.warp;
            let tickets = ticket_loads.get(&slot).copied().unwrap_or(0);
            if warp.outstanding_loads != tickets {
                flag(format!(
                    "warp {slot} scoreboard counts {} outstanding loads but {} load tickets are live",
                    warp.outstanding_loads, tickets
                ));
            }
            if warp.done && warp.active_mask() != 0 {
                flag(format!(
                    "warp {slot} is done but still has active mask {:#010x}",
                    warp.active_mask()
                ));
            }
            if warp.simt_depth() > 64 {
                flag(format!(
                    "warp {slot} SIMT stack depth {} exceeds sanity bound 64",
                    warp.simt_depth()
                ));
            }
            for r in warp.pending_regs() {
                let has_producer = self
                    .writebacks
                    .iter()
                    .any(|wb| wb.slot == slot && wb.reg == Some(r))
                    || self
                        .tickets
                        .iter()
                        .flatten()
                        .any(|t| t.slot == slot && t.dst == Some(r));
                if !has_producer {
                    flag(format!(
                        "warp {slot} register r{} is pending with no producer in flight",
                        r.0
                    ));
                }
            }
        }

        for b in self.blocks.iter().flatten() {
            let live = b.warp_slots.len() - b.warps_done;
            if b.arrived > live {
                flag(format!(
                    "block cta {} counts {} barrier arrivals but only {} live warps",
                    b.ctaid, b.arrived, live
                ));
            }
        }
    }

    // ----- binary checkpoint (see [`crate::snapshot`]) ----------------------

    /// Serializes the SM's full architectural state. Config-derived
    /// geometry (slot counts, capacities) is not written — it is validated
    /// against the restore target's configuration by [`Sm::snap_load`].
    /// Derived scheduling state (candidate caches, residency counters) is
    /// recomputed on load, which is bit-identical to carrying it: the
    /// caches rebuild deterministically from slot ages. The hazard memos
    /// are carried, not recomputed — a memoized verdict can outlive the
    /// state it was classified from (see `snap_load`).
    pub(crate) fn snap_save(&self, w: &mut SnapshotWriter) {
        w.usize(self.blocks.len());
        for b in &self.blocks {
            match b {
                None => w.bool(false),
                Some(b) => {
                    w.bool(true);
                    w.u32(b.ctaid);
                    b.warp_slots.save(w);
                    w.usize(b.warps_done);
                    w.usize(b.arrived);
                    w.u32(b.regs);
                    w.u32(b.shared);
                }
            }
        }
        // The app range, then the assist range, each length-prefixed; a
        // free slot is one `false`.
        let (apps, assists) = self.slots.split_at(self.cfg.warps_per_sm);
        for range in [apps, assists] {
            w.usize(range.len());
            for s in range {
                w.bool(!matches!(s.role, Role::Free));
                match &s.role {
                    Role::Free => {}
                    Role::App {
                        block_slot,
                        ctaid,
                        warp_in_block,
                        retired,
                    } => {
                        s.warp.save(w);
                        w.usize(*block_slot);
                        w.u32(*ctaid);
                        w.u32(*warp_in_block);
                        w.u64(s.age);
                        w.bool(*retired);
                    }
                    Role::Assist {
                        program,
                        priority,
                        tag,
                        parent,
                    } => {
                        s.warp.save(w);
                        w.u64(program.content_hash());
                        priority.save(w);
                        w.u64(*tag);
                        w.u64(s.age);
                        w.usize(*parent);
                    }
                }
            }
        }
        w.usize(self.assist_pending.len());
        for l in &self.assist_pending {
            save_launch(l, w);
        }
        w.usize(self.writebacks.len());
        for wb in &self.writebacks {
            w.u64(wb.at);
            self.warp_ref(wb.slot).save(w);
            wb.reg.save(w);
        }
        w.usize(self.tickets.len());
        for t in &self.tickets {
            match t {
                None => w.bool(false),
                Some(t) => {
                    w.bool(true);
                    self.warp_ref(t.slot).save(w);
                    t.dst.save(w);
                    w.u32(t.remaining);
                }
            }
        }
        self.free_tickets.save(w);
        self.lsu.snap_save(w);
        self.l1.snap_save(w);
        self.mshr.snap_save(w);
        let mut decomp: Vec<u64> = self.pending_decomp.keys().copied().collect();
        decomp.sort_unstable();
        w.usize(decomp.len());
        for addr in decomp {
            w.u64(addr);
            self.pending_decomp[&addr].save(w);
        }
        self.store_buffer.save(w);
        self.out_reqs.save(w);
        w.u64(self.sfu_ready_at);
        // Both flags are set only ahead of the same cycle's `schedule`,
        // which clears them, so neither survives to the cycle boundary a
        // snapshot is taken at (DESIGN.md "Which event re-derives which
        // list").
        debug_assert!(!self.cand_dirty && !self.assist_dirty);
        save_slot_memo(&self.memo[..apps.len()], w);
        save_slot_memo(&self.memo[apps.len()..], w);
        w.usize(self.greedy.len());
        for g in &self.greedy {
            g.map(|s| self.warp_ref(s)).save(w);
        }
        w.u32(self.used_regs);
        w.u32(self.used_shared);
        w.u64(self.age_seq);
        self.injector.snap_save(w);
        // Metric shard, presence-prefixed: the config hash deliberately
        // excludes observability, so a restore target may collect metrics
        // the snapshot lacks (fresh zero shard kept) or vice versa
        // (decoded and discarded in `snap_load`).
        match &self.metrics {
            None => w.bool(false),
            Some((_, shard)) => {
                w.bool(true);
                shard.save(w);
            }
        }
        self.breakdown.save(w);
        w.u64(self.app_instructions);
        w.u64(self.assist_instructions);
        w.u64(self.shared_accesses);
        w.u64(self.threads_retired);
        w.u64(self.assist_launches);
        w.u64(self.store_buffer_overflows);
        w.u64(self.lines_compressed);
        w.u64(self.lines_decompressed);
        w.u64(self.lines_corrupted);
        w.u64(self.corruptions_detected);
        w.u64(self.corruption_refetches);
        w.u64(self.assist_slots_stolen);
        w.u64(self.assist_slots_reclaimed);
        // The design decides whether a controller follows.
        if let Some(c) = &self.caba {
            c.snap_save(w);
        }
    }

    /// Restores the SM in place from bytes written by [`Sm::snap_save`]
    /// at cycle `now`. Assist programs are stored by content hash and
    /// resolved against `programs` (kernel program + controller
    /// subroutines).
    ///
    /// # Errors
    ///
    /// Fails on malformed bytes, on geometry that does not match this SM's
    /// configuration, or on a program hash absent from `programs`.
    pub(crate) fn snap_load(
        &mut self,
        r: &mut SnapshotReader<'_>,
        programs: &FxHashMap<u64, Arc<Program>>,
        now: u64,
    ) -> Result<(), SnapError> {
        if r.usize()? != self.blocks.len() {
            return Err(SnapError::Invariant {
                what: "sm block slot count mismatch",
            });
        }
        for slot in self.blocks.iter_mut() {
            *slot = if r.bool()? {
                let b = Block {
                    ctaid: r.u32()?,
                    warp_slots: Vec::<usize>::load(r)?,
                    warps_done: r.usize()?,
                    arrived: r.usize()?,
                    regs: r.u32()?,
                    shared: r.u32()?,
                };
                if b.warp_slots.iter().any(|&s| s >= self.cfg.warps_per_sm) {
                    return Err(SnapError::Invariant {
                        what: "block warp slot out of range",
                    });
                }
                Some(b)
            } else {
                None
            };
        }
        let apps = self.cfg.warps_per_sm;
        if r.usize()? != apps {
            return Err(SnapError::Invariant {
                what: "sm warp slot count mismatch",
            });
        }
        for i in 0..self.slots.len() {
            if i == apps && r.usize()? != self.cfg.max_assist_warps {
                return Err(SnapError::Invariant {
                    what: "sm assist slot count mismatch",
                });
            }
            let s = &mut self.slots[i];
            if !r.bool()? {
                s.role = Role::Free;
                continue;
            }
            s.warp = Warp::load(r)?;
            if i < apps {
                let (block_slot, ctaid, warp_in_block) = (r.usize()?, r.u32()?, r.u32()?);
                s.age = r.u64()?;
                s.role = Role::App {
                    block_slot,
                    ctaid,
                    warp_in_block,
                    retired: r.bool()?,
                };
            } else {
                let program = programs
                    .get(&r.u64()?)
                    .cloned()
                    .ok_or(SnapError::Invariant {
                        what: "assist program hash not resolvable",
                    })?;
                let (priority, tag) = (AssistPriority::load(r)?, r.u64()?);
                s.age = r.u64()?;
                s.role = Role::Assist {
                    program,
                    priority,
                    tag,
                    parent: r.usize()?,
                };
            }
        }
        let n = r.seq_len("assist_pending", 2)?;
        self.assist_pending.clear();
        for _ in 0..n {
            self.assist_pending.push_back(load_launch(r, programs)?);
        }
        let n = r.seq_len("writebacks", 2)?;
        self.writebacks.clear();
        for _ in 0..n {
            self.writebacks.push(Writeback {
                at: r.u64()?,
                slot: self.slot_of(WarpRef::load(r)?)?,
                reg: Option::<Reg>::load(r)?,
            });
        }
        let n = r.seq_len("tickets", 1)?;
        self.tickets.clear();
        for _ in 0..n {
            self.tickets.push(if r.bool()? {
                Some(Ticket {
                    slot: self.slot_of(WarpRef::load(r)?)?,
                    dst: Option::<Reg>::load(r)?,
                    remaining: r.u32()?,
                })
            } else {
                None
            });
        }
        self.free_tickets = Vec::<usize>::load(r)?;
        if self.free_tickets.iter().any(|&i| i >= self.tickets.len()) {
            return Err(SnapError::Invariant {
                what: "free ticket index out of range",
            });
        }
        self.lsu.snap_load(r)?;
        self.l1.snap_load(r)?;
        self.mshr.snap_load(r)?;
        let n = r.seq_len("pending_decomp", 9)?;
        self.pending_decomp.clear();
        for _ in 0..n {
            let addr = r.u64()?;
            let waiters = Vec::<usize>::load(r)?;
            self.pending_decomp.insert(addr, waiters);
        }
        self.store_buffer = VecDeque::<u64>::load(r)?;
        self.out_reqs = VecDeque::<OutReq>::load(r)?;
        self.sfu_ready_at = r.u64()?;
        let mut memo = load_slot_memo(r, self.cfg.warps_per_sm)?;
        memo.extend(load_slot_memo(r, self.cfg.max_assist_warps)?);
        let greedy = Vec::<Option<WarpRef>>::load(r)?;
        if greedy.len() != self.cfg.schedulers_per_sm {
            return Err(SnapError::Invariant {
                what: "scheduler count mismatch",
            });
        }
        self.greedy = greedy
            .into_iter()
            .map(|g| g.map(|wr| self.slot_of(wr)).transpose())
            .collect::<Result<_, _>>()?;
        self.used_regs = r.u32()?;
        self.used_shared = r.u32()?;
        self.age_seq = r.u64()?;
        self.injector.snap_load(r)?;
        if r.bool()? {
            let shard = MetricShard::load(r)?;
            if let Some((_, s)) = &mut self.metrics {
                *s = shard;
            }
        }
        self.breakdown = IssueBreakdown::load(r)?;
        self.app_instructions = r.u64()?;
        self.assist_instructions = r.u64()?;
        self.shared_accesses = r.u64()?;
        self.threads_retired = r.u64()?;
        self.assist_launches = r.u64()?;
        self.store_buffer_overflows = r.u64()?;
        self.lines_compressed = r.u64()?;
        self.lines_decompressed = r.u64()?;
        self.lines_corrupted = r.u64()?;
        self.corruptions_detected = r.u64()?;
        self.corruption_refetches = r.u64()?;
        self.assist_slots_stolen = r.u64()?;
        self.assist_slots_reclaimed = r.u64()?;
        if let Some(c) = &mut self.caba {
            c.snap_load(r)?;
        }
        // Derived state: recomputed, never trusted from the wire.
        self.resident_block_count = self.blocks.iter().filter(|b| b.is_some()).count();
        (self.active_assist_count, self.low_assist_count) = (0, 0);
        // Conservative: a spurious member is free, a missed retire is not.
        self.assist_done.fill(0);
        for slot in apps..self.slots.len() {
            let s = &self.slots[slot];
            let Role::Assist { priority, .. } = s.role else {
                continue;
            };
            self.active_assist_count += 1;
            self.low_assist_count += usize::from(priority == AssistPriority::Low);
            if s.warp.done {
                self.assist_done[slot / 64] |= 1 << (slot % 64);
            }
        }
        self.high_pending_count = self
            .assist_pending
            .iter()
            .filter(|l| l.priority == AssistPriority::High)
            .count();
        self.done_unreaped = self.slots[..apps]
            .iter()
            .filter(|s| matches!(s.role, Role::App { retired: false, .. }) && s.warp.done)
            .count() as u32;
        // Candidate lists are a pure function of residency and slot ages,
        // so they rebuild rather than travel. The hazard memos are NOT
        // pure: a memoized verdict legitimately outlives the state it was
        // computed from (a fill drops `outstanding_loads` before the
        // writeback clears the pending bit and the memo), so recomputing
        // them can flip a Fig. 1 bucket for one cycle — they restore from
        // the wire. The rebuild leaves both dirty flags clear.
        self.rebuild_candidates();
        self.memo = memo;
        // The dormancy cache is recomputed, never restored: the next real
        // cycle is bit-identical to the skipped one it replaces, so losing
        // the cache costs one executed cycle and changes nothing else.
        self.settled = now;
        self.wake_up();
        self.wb_due = self
            .writebacks
            .iter()
            .map(|wb| wb.at)
            .min()
            .unwrap_or(u64::MAX);
        self.events.clear();
        Ok(())
    }

    /// The issue breakdown recorded so far.
    pub fn breakdown(&self) -> &IssueBreakdown {
        &self.breakdown
    }

    /// Instructions issued by application warps.
    pub fn app_instructions(&self) -> u64 {
        self.app_instructions
    }

    /// Instructions issued by assist warps.
    pub fn assist_instructions(&self) -> u64 {
        self.assist_instructions
    }
}

impl SnapshotState for OutReq {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(self.addr);
        w.bool(self.is_write);
        w.u32(self.flits);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok(OutReq {
            addr: r.u64()?,
            is_write: r.bool()?,
            flits: r.u32()?,
        })
    }
}

/// Serializes one queued assist launch; the program travels by content
/// hash (see [`caba_isa::Program::content_hash`]).
fn save_launch(l: &AssistLaunch, w: &mut SnapshotWriter) {
    w.u64(l.program.content_hash());
    w.usize(l.parent_warp);
    l.priority.save(w);
    // A length-prefixed sequence: the wire predates the inline pair.
    w.usize(l.live_in.len());
    for pair in &l.live_in {
        pair.save(w);
    }
    w.u32(l.active_mask);
    w.u64(l.tag);
}

/// Decodes one assist launch, resolving its program hash against the
/// restore-time program table.
fn load_launch(
    r: &mut SnapshotReader<'_>,
    programs: &FxHashMap<u64, Arc<Program>>,
) -> Result<AssistLaunch, SnapError> {
    let hash = r.u64()?;
    let program = programs.get(&hash).cloned().ok_or(SnapError::Invariant {
        what: "assist launch program hash not resolvable",
    })?;
    let parent_warp = r.usize()?;
    let priority = AssistPriority::load(r)?;
    if r.usize()? != 2 {
        return Err(SnapError::Invariant {
            what: "assist launch carries other than two live-ins",
        });
    }
    Ok(AssistLaunch {
        program,
        parent_warp,
        priority,
        live_in: [<(Reg, u64)>::load(r)?, <(Reg, u64)>::load(r)?],
        active_mask: r.u32()?,
        tag: r.u64()?,
    })
}

/// Encodes a hazard-memo vector: one byte per slot, `0` for no memo,
/// `tag + 1` for a memoized [`StallVerdict`].
fn save_slot_memo(memo: &[SlotMemo], w: &mut SnapshotWriter) {
    w.usize(memo.len());
    for m in memo {
        w.u8(match m {
            SlotMemo::Unknown => 0,
            SlotMemo::Hazard(v) => verdict_tag(*v) + 1,
            SlotMemo::MemBlocked { shared: false } => 7,
            SlotMemo::MemBlocked { shared: true } => 8,
            SlotMemo::SfuBlocked => 9,
            SlotMemo::Done => 10,
            SlotMemo::Barrier => 11,
        });
    }
}

/// Decodes a consideration-memo vector of exactly `expected` slots.
fn load_slot_memo(r: &mut SnapshotReader<'_>, expected: usize) -> Result<Vec<SlotMemo>, SnapError> {
    let n = r.seq_len("consideration memo", 1)?;
    if n != expected {
        return Err(SnapError::Invariant {
            what: "consideration memo slot count mismatch",
        });
    }
    let mut memo = Vec::with_capacity(n);
    for _ in 0..n {
        memo.push(match r.u8()? {
            0 => SlotMemo::Unknown,
            7 => SlotMemo::MemBlocked { shared: false },
            8 => SlotMemo::MemBlocked { shared: true },
            9 => SlotMemo::SfuBlocked,
            10 => SlotMemo::Done,
            11 => SlotMemo::Barrier,
            tag => SlotMemo::Hazard(verdict_from_tag(tag - 1)?),
        });
    }
    Ok(memo)
}

fn verdict_tag(v: StallVerdict) -> u8 {
    match v {
        StallVerdict::Barrier => 0,
        StallVerdict::HazardMem => 1,
        StallVerdict::HazardCtrl => 2,
        StallVerdict::HazardSb => 3,
        StallVerdict::MemStructural => 4,
        StallVerdict::ComputeStructural => 5,
    }
}

fn verdict_from_tag(tag: u8) -> Result<StallVerdict, SnapError> {
    Ok(match tag {
        0 => StallVerdict::Barrier,
        1 => StallVerdict::HazardMem,
        2 => StallVerdict::HazardCtrl,
        3 => StallVerdict::HazardSb,
        4 => StallVerdict::MemStructural,
        5 => StallVerdict::ComputeStructural,
        t => {
            return Err(SnapError::BadTag {
                what: "stall verdict",
                tag: t.into(),
            })
        }
    })
}

#[cfg(test)]
mod engine_diff;

#[cfg(test)]
mod tests {
    use super::*;
    use caba_isa::{Instr, LaunchDims, Op, Program};

    fn kernel(regs: u32, block: u32, grid: u32, shared: u32) -> Kernel {
        let p = Program::new(vec![Instr::new(Op::Exit)]);
        Kernel::new("k", p, LaunchDims::new(grid, block))
            .with_regs_per_thread(regs)
            .with_shared_bytes(shared)
    }

    #[test]
    fn launch_respects_block_limit() {
        let cfg = GpuConfig::isca2015();
        let mut sm = Sm::new(0, cfg, Design::Base);
        let k = kernel(8, 32, 100, 0);
        let mut launched = 0;
        while sm.try_launch_block(launched, &k, 0) {
            launched += 1;
        }
        assert_eq!(launched as usize, cfg.max_blocks_per_sm);
        assert_eq!(sm.resident_blocks(), cfg.max_blocks_per_sm);
        assert_eq!(sm.resident_warps(), cfg.max_blocks_per_sm);
    }

    #[test]
    fn launch_respects_warp_slots() {
        let cfg = GpuConfig::isca2015();
        let mut sm = Sm::new(0, cfg, Design::Base);
        // 512-thread blocks = 16 warps: only 3 fit in 48 slots.
        let k = kernel(8, 512, 100, 0);
        let mut launched = 0;
        while sm.try_launch_block(launched, &k, 0) {
            launched += 1;
        }
        assert_eq!(launched, 3);
        assert_eq!(sm.resident_warps(), 48);
    }

    #[test]
    fn launch_respects_register_budget() {
        let cfg = GpuConfig::isca2015();
        let mut sm = Sm::new(0, cfg, Design::Base);
        // 63 regs x 256 threads = 16128/block: two fit in 32768.
        let k = kernel(63, 256, 100, 0);
        let mut launched = 0;
        while sm.try_launch_block(launched, &k, 0) {
            launched += 1;
        }
        assert_eq!(launched, 2);
        // Assist-warp extra registers shrink occupancy further (§3.2.2).
        let mut sm2 = Sm::new(1, cfg, Design::Base);
        let mut launched2 = 0;
        while sm2.try_launch_block(launched2, &k, 64) {
            launched2 += 1;
        }
        assert!(launched2 < launched);
    }

    #[test]
    fn launch_respects_shared_memory() {
        let cfg = GpuConfig::isca2015();
        let mut sm = Sm::new(0, cfg, Design::Base);
        let k = kernel(8, 64, 100, 16 * 1024);
        let mut launched = 0;
        while sm.try_launch_block(launched, &k, 0) {
            launched += 1;
        }
        assert_eq!(launched, 2, "32 KB shared / 16 KB per block");
    }

    #[test]
    fn fresh_sm_is_quiesced_and_empty() {
        let sm = Sm::new(3, GpuConfig::small(), Design::Base);
        assert!(sm.quiesced());
        assert_eq!(sm.id(), 3);
        assert_eq!(sm.resident_warps(), 0);
        assert_eq!(sm.app_instructions(), 0);
        assert!(sm.breakdown().total() == 0);
        assert!(sm.staging_base() >= STAGING_BASE);
        assert!(format!("{sm:?}").contains("Sm"));
    }

    /// Pins the stall-verdict tiebreak (see [`fold_verdict`]): the first
    /// blocked candidate in scheduler priority order wins within a tier,
    /// and only strictly stronger evidence (structural > hazard > barrier)
    /// replaces an earlier verdict. If this rule drifts from the order
    /// `schedule` offers candidates in, Fig. 1 buckets are misattributed.
    #[test]
    fn verdict_fold_first_blocked_candidate_wins_within_tier() {
        use StallVerdict::*;
        // Empty verdicts are claimed by whatever comes first.
        for v in [Barrier, HazardMem, HazardCtrl, HazardSb, MemStructural] {
            assert_eq!(fold_verdict(None, v), Some(v));
        }
        // Within a tier the earlier (higher-priority) candidate wins.
        assert_eq!(fold_verdict(Some(HazardMem), HazardSb), Some(HazardMem));
        assert_eq!(fold_verdict(Some(HazardSb), HazardMem), Some(HazardSb));
        assert_eq!(fold_verdict(Some(HazardCtrl), HazardSb), Some(HazardCtrl));
        assert_eq!(
            fold_verdict(Some(MemStructural), ComputeStructural),
            Some(MemStructural)
        );
        assert_eq!(
            fold_verdict(Some(ComputeStructural), MemStructural),
            Some(ComputeStructural)
        );
        // A strictly stronger tier upgrades the verdict...
        assert_eq!(fold_verdict(Some(Barrier), HazardSb), Some(HazardSb));
        assert_eq!(
            fold_verdict(Some(HazardMem), MemStructural),
            Some(MemStructural)
        );
        assert_eq!(
            fold_verdict(Some(Barrier), ComputeStructural),
            Some(ComputeStructural)
        );
        // ...and a weaker one never downgrades it.
        assert_eq!(
            fold_verdict(Some(MemStructural), HazardMem),
            Some(MemStructural)
        );
        assert_eq!(fold_verdict(Some(HazardSb), Barrier), Some(HazardSb));
    }

    #[test]
    fn verdict_buckets_match_fig1_taxonomy() {
        use StallVerdict::*;
        assert_eq!(Barrier.bucket(), StallKind::Synchronization);
        assert_eq!(HazardMem.bucket(), StallKind::MemoryData);
        assert_eq!(MemStructural.bucket(), StallKind::MemoryData);
        assert_eq!(HazardSb.bucket(), StallKind::ScoreboardPipeline);
        assert_eq!(ComputeStructural.bucket(), StallKind::ScoreboardPipeline);
        assert_eq!(HazardCtrl.bucket(), StallKind::ControlReconvergence);
    }

    fn saved(sm: &Sm) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        sm.snap_save(&mut w);
        w.into_bytes()
    }

    /// Cycles `sm` at `now` on Base against `mem`, then drains its outbound
    /// queue the way the crossbar would, so only a full MSHR file can stall
    /// its loads.
    fn step(sm: &mut Sm, now: u64, k: &Kernel, mem: &mut caba_mem::FuncMem) {
        let mut store = crate::assist::LineStore::new();
        let mut shared = SharedState {
            mem: SharedMem::Direct(mem),
            cmap: None,
            line_store: SharedLineStore::Direct(&mut store),
        };
        sm.cycle(now, k, &mut shared);
        while sm.pop_request().is_some() {}
    }

    #[test]
    fn an_empty_sm_settles_to_idle_cycles() {
        let cfg = GpuConfig::small();
        let mut sm = Sm::new(0, cfg, Design::Base);
        assert_eq!(sm.next_event(), None, "an empty SM has no horizon");
        let mut cycled = Sm::new(0, cfg, Design::Base);
        let k = kernel(8, 32, 1, 0);
        let mut mem = caba_mem::FuncMem::new();
        for now in 0..5 {
            step(&mut cycled, now, &k, &mut mem);
        }
        sm.settle(5);
        assert_eq!(
            sm.breakdown().count(StallKind::Idle),
            5 * cfg.schedulers_per_sm as u64
        );
        assert_eq!(saved(&sm), saved(&cycled));
    }

    /// One warp loads 32 distinct lines through a two-entry MSHR file: the
    /// third line re-probes the L1 every cycle until a fill arrives, which
    /// never does here. The SM must then report not-due, and settling `k`
    /// cycles must leave exactly the bytes `k` executed cycles leave.
    #[test]
    fn an_mshr_full_stall_sleeps_and_settles_to_real_cycles() {
        use caba_isa::{AluOp, ProgramBuilder, Space, Src, Width};
        let mut cfg = GpuConfig::small();
        cfg.mshrs = 2;
        let mut b = ProgramBuilder::new();
        let (tid, addr, v) = (Reg(0), Reg(1), Reg(2));
        b.global_thread_id(tid);
        b.alu(AluOp::Shl, addr, Src::Reg(tid), Src::Imm(7));
        b.ld(Space::Global, Width::B4, v, Src::Reg(addr), 0x1_0000);
        b.alu(AluOp::Add, v, Src::Reg(v), Src::Imm(1));
        b.exit();
        let k = Kernel::new("stall", b.build(), caba_isa::LaunchDims::new(1, 32))
            .with_regs_per_thread(8);
        let (mut slept, mut cycled) =
            (Sm::new(0, cfg, Design::Base), Sm::new(0, cfg, Design::Base));
        let mut mem = caba_mem::FuncMem::new();
        for sm in [&mut slept, &mut cycled] {
            assert!(sm.try_launch_block(0, &k, 0));
        }
        let mut now = 0;
        while slept.next_event().is_some() {
            assert!(now < 200, "the load never stalled");
            step(&mut slept, now, &k, &mut mem);
            step(&mut cycled, now, &k, &mut mem);
            now += 1;
        }
        assert!(!slept.due(now), "only a fill can end the stall");
        assert_eq!(slept.mshr.outstanding(), cfg.mshrs);
        assert!(slept.reprobe);
        let misses = cycled.l1.misses();
        let k_cycles = 37;
        for c in now..now + k_cycles {
            step(&mut cycled, c, &k, &mut mem);
        }
        assert_eq!(
            cycled.l1.misses(),
            misses + k_cycles,
            "real cycles re-probe"
        );
        slept.settle(now + k_cycles);
        assert_eq!(saved(&slept), saved(&cycled));
        assert_eq!(slept.breakdown(), cycled.breakdown());
    }

    /// A slot's wire name maps back to it, and a name outside the table —
    /// which only a crafted snapshot can hold — is a typed error, not an
    /// index into the other range.
    #[test]
    fn warp_refs_name_the_table_slots_one_to_one() {
        let cfg = GpuConfig::isca2015();
        let sm = Sm::new(0, cfg, Design::Base);
        for slot in 0..cfg.warps_per_sm + cfg.max_assist_warps {
            assert_eq!(sm.slot_of(sm.warp_ref(slot)), Ok(slot));
        }
        assert_eq!(sm.warp_ref(cfg.warps_per_sm), WarpRef::Assist(0));
        for wr in [
            WarpRef::App(cfg.warps_per_sm),
            WarpRef::Assist(cfg.max_assist_warps),
        ] {
            assert!(sm.slot_of(wr).is_err(), "{wr:?} names no slot");
        }
    }

    #[test]
    fn partial_warp_gets_partial_mask() {
        let cfg = GpuConfig::isca2015();
        let mut sm = Sm::new(0, cfg, Design::Base);
        // 40-thread block: warp 0 full, warp 1 has 8 lanes.
        let k = kernel(8, 40, 1, 0);
        assert!(sm.try_launch_block(0, &k, 0));
        assert_eq!(sm.resident_warps(), 2);
        let w1 = &sm.slots[1].warp;
        assert_eq!(w1.active_mask().count_ones(), 8);
    }
}
