//! A memory partition: one L2 slice, the metadata cache, and one GDDR5
//! channel (the paper's 6 MCs each pair an L2 slice with a channel).

use crate::config::GpuConfig;
use crate::fault::{stream, FaultInjector};
use crate::integrity::{Component, PartitionSnapshot, Violation};
use crate::trace::{TraceEvent, TraceEventKind};
use caba_mem::{
    AccessOutcome, Cache, CompressionMap, DramChannel, DramRequest, FuncMem, MdCache, Mshr,
    LINE_SIZE,
};
use caba_stats::snap::{SnapError, SnapshotReader, SnapshotState, SnapshotWriter};
use std::collections::VecDeque;

use crate::assist::LineStore;

/// A request arriving at a partition from the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartReq {
    /// Requesting SM.
    pub sm: usize,
    /// Line base address.
    pub addr: u64,
    /// Write (true) or read (false).
    pub is_write: bool,
}

/// A read response leaving a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartResp {
    /// Destination SM.
    pub sm: usize,
    /// Line base address.
    pub addr: u64,
    /// Interconnect flits the response occupies.
    pub flits: u32,
}

/// Answers "how big is this line as stored / as transferred", consulting
/// the stored forms and the reference compression map. Built fresh by the
/// GPU each cycle from its owned state. Partitions read memory and stored
/// forms and never write them, so both are plain shared references.
pub struct SizeOracle<'a> {
    /// Functional memory.
    pub mem: &'a FuncMem,
    /// Reference compression map.
    pub cmap: Option<&'a mut CompressionMap>,
    /// Stored-form overrides.
    pub line_store: &'a LineStore,
    /// DRAM transfers compressed?
    pub mem_compressed: bool,
    /// Interconnect/L2 compressed?
    pub icnt_compressed: bool,
}

impl SizeOracle<'_> {
    fn stored_size(&mut self, addr: u64) -> usize {
        self.line_store
            .stored_size(self.mem, self.cmap.as_deref_mut(), addr)
    }

    /// DRAM bursts for a line transfer.
    pub fn dram_bursts(&mut self, addr: u64) -> u32 {
        if !self.mem_compressed {
            return (LINE_SIZE / caba_compress::BURST_BYTES) as u32;
        }
        let size = self.stored_size(addr);
        caba_compress::bursts_for_size(size, LINE_SIZE) as u32
    }

    /// Flits for a read response toward the core.
    pub fn resp_flits(&mut self, addr: u64) -> u32 {
        if !self.icnt_compressed {
            return (LINE_SIZE / caba_mem::icnt::FLIT_BYTES) as u32;
        }
        let size = self.stored_size(addr);
        caba_mem::icnt::flits_for(size)
    }

    /// Resident size of a line in the L2 slice (≥ 1 byte: an all-zero line
    /// compresses to a zero-byte payload but still occupies a tag).
    pub fn l2_size(&mut self, addr: u64) -> usize {
        if self.icnt_compressed {
            self.stored_size(addr).max(1)
        } else {
            LINE_SIZE
        }
    }
}

/// One L2-slice + MD-cache + DRAM-channel partition.
#[derive(Debug)]
pub struct Partition {
    id: usize,
    cfg: GpuConfig,
    l2: Cache,
    mshr: Mshr<usize>,
    md: Option<MdCache>,
    md_required: bool,
    dram: DramChannel,
    incoming: VecDeque<PartReq>,
    pending_resp: Vec<(u64, PartResp)>,
    resp_out: VecDeque<PartResp>,
    dram_retry: VecDeque<DramRequest>,
    next_req_id: u64,
    injector: FaultInjector,
    /// Fault-delayed DRAM requests: (release cycle, request).
    delayed: Vec<(u64, DramRequest)>,
    now: u64,
    /// The next GPU cycle this partition expects to be cycled at. Cycles
    /// the GPU does not execute are repaid by [`Partition::settle`] on the
    /// next real cycle or before anything reads the partition, so
    /// `dram_total_cycles` — the Figure 8 utilization denominator — stays
    /// bit-identical with an unskipped run.
    next_tick: u64,
    /// [`Partition::next_event`] as of the last cycle (`u64::MAX`: none),
    /// reset by [`Partition::push`]; the GPU cycles the partition only
    /// once this has come. Derived; recomputed on restore.
    wake: u64,
    /// The incoming head waits on a full MSHR file, so every cycle until
    /// `wake` re-probes the L2 for it: [`Partition::settle`] credits one
    /// miss per cycle.
    reprobe: bool,
    delay_faults: u64,
    /// DRAM channel-cycles spent fetching compression metadata (each MD
    /// miss issues one extra single-burst access, §4.3.2) — the Fig. 14
    /// metadata-overhead bucket.
    md_stall_cycles: u64,
    /// Instant-event buffer, drained by the GPU tracer in partition index
    /// order. Empty unless `events_on`.
    events: Vec<TraceEvent>,
    events_on: bool,
}

/// Request-id tag marking metadata-fetch DRAM accesses.
const MD_TAG: u64 = 1 << 63;

impl Partition {
    /// Creates a partition. `with_md` enables the §4.3.2 metadata cache
    /// (compressed-memory designs).
    pub fn new(id: usize, cfg: GpuConfig, with_md: bool) -> Self {
        Partition {
            id,
            cfg,
            l2: Cache::new(cfg.l2),
            mshr: Mshr::new(cfg.mshrs),
            md: (with_md && cfg.md_cache_enabled).then(MdCache::isca2015),
            md_required: with_md,
            dram: DramChannel::new(cfg.dram),
            incoming: VecDeque::new(),
            pending_resp: Vec::new(),
            resp_out: VecDeque::new(),
            dram_retry: VecDeque::new(),
            next_req_id: 0,
            injector: FaultInjector::for_stream(cfg.fault, stream::PARTITION_BASE + id as u64),
            delayed: Vec::new(),
            now: 0,
            next_tick: 0,
            wake: u64::MAX,
            reprobe: false,
            delay_faults: 0,
            md_stall_cycles: 0,
            events: Vec::new(),
            events_on: cfg.observability.trace.is_some(),
        }
    }

    /// The partition id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// True when a new request can be queued.
    pub fn can_accept(&self) -> bool {
        self.incoming.len() < 16
    }

    /// Queues an incoming request, which makes the partition due at once.
    /// The request goes behind any incoming head, so the cycles still owed
    /// to [`Partition::settle`] stay what they were.
    pub fn push(&mut self, req: PartReq) {
        self.incoming.push_back(req);
        self.wake = 0;
    }

    /// Pops a ready response. Popping the last one can move the
    /// partition's next event later, so the cached one is recomputed.
    pub fn pop_response(&mut self) -> Option<PartResp> {
        let r = self.resp_out.pop_front();
        if r.is_some() && self.resp_out.is_empty() {
            self.refresh_wake();
        }
        r
    }

    /// Requeues a response that could not enter the interconnect
    /// (back-pressure).
    pub fn push_response_front(&mut self, resp: PartResp) {
        self.resp_out.push_front(resp);
        self.wake = 0;
    }

    /// True when nothing is pending anywhere in the partition.
    pub fn quiesced(&self) -> bool {
        self.incoming.is_empty()
            && self.pending_resp.is_empty()
            && self.resp_out.is_empty()
            && self.dram_retry.is_empty()
            && self.delayed.is_empty()
            && self.mshr.outstanding() == 0
            && self.dram.idle()
    }

    fn push_dram(&mut self, req: DramRequest) {
        if let Some(hold) = self.injector.delay_dram() {
            // Fault injection: hold the request before it reaches the
            // channel, modeling a delayed DRAM response. Recoverable by
            // construction — the request is only late, never lost.
            self.delay_faults += 1;
            if self.events_on {
                self.events.push(TraceEvent {
                    cycle: self.now,
                    kind: TraceEventKind::DramDelay { partition: self.id },
                });
            }
            self.delayed.push((self.now + hold, req));
            return;
        }
        if let Err(r) = self.dram.push(req) {
            self.dram_retry.push_back(r);
        }
    }

    fn md_lookup(&mut self, addr: u64) {
        let miss = match self.md.as_mut() {
            Some(md) => !md.lookup(addr),
            // No MD cache: every access to compressed memory pays the
            // extra metadata fetch (the naive design §4.3.2 improves on).
            None => self.md_required,
        };
        if miss {
            // One extra DRAM access to fetch the metadata block (§4.3.2).
            self.md_stall_cycles += self.cfg.dram.burst_cycles;
            let id = MD_TAG | self.next_req_id;
            self.next_req_id += 1;
            self.push_dram(DramRequest {
                id,
                addr,
                bursts: 1,
                is_write: false,
            });
        }
    }

    /// Accounts for every cycle before `upto` the GPU did not execute. A
    /// partition is only left uncycled across cycles in which it provably
    /// does nothing — see [`Partition::next_event`] — and such a cycle
    /// advances the DRAM clock and, when the incoming head waits on a full
    /// MSHR file, re-probes the L2 for it (one miss, which moves nothing
    /// but the miss count and the replacement clock). Repaying both in bulk
    /// is bit-identical to having cycled it every skipped cycle. Call
    /// before cycling the partition and before reading it mid-run.
    pub fn settle(&mut self, upto: u64) {
        if upto > self.next_tick {
            let gap = upto - self.next_tick;
            self.dram.tick_gap(gap);
            if self.reprobe {
                self.l2.credit_misses(gap);
            }
            self.next_tick = upto;
            self.now = upto - 1;
        }
    }

    /// Whether the GPU must execute cycle `now` of this partition.
    pub fn due(&self, now: u64) -> bool {
        self.wake <= now
    }

    /// The cached [`Partition::next_event`], `None` meaning no horizon.
    pub fn wake(&self) -> Option<u64> {
        (self.wake != u64::MAX).then_some(self.wake)
    }

    fn refresh_wake(&mut self) {
        self.wake = self.next_event(self.next_tick).unwrap_or(u64::MAX);
        self.reprobe = self.head_stalled();
    }

    /// The incoming head is a read that misses the L2, is not already
    /// pending, and finds every MSHR taken: servicing it only re-probes the
    /// L2 and requeues it. Only a DRAM completion frees an MSHR, and new
    /// requests queue behind it, so the stall holds until the next DRAM
    /// event.
    fn head_stalled(&self) -> bool {
        self.incoming.front().is_some_and(|r| {
            !r.is_write && self.mshr.full() && !self.mshr.pending(r.addr) && !self.l2.probe(r.addr)
        })
    }

    /// The earliest GPU cycle at or after `next` — the next cycle the run
    /// loop will execute — at which cycling this partition does more than
    /// advance the DRAM clock (and re-probe for a stalled incoming head): a
    /// fault-delay or L2-latency timer expires, a DRAM transfer completes
    /// or a queued DRAM request becomes schedulable. `None` when fully
    /// quiesced; `Some(next)` when work is actionable immediately (requests
    /// to service, responses to hand the interconnect, DRAM pushes to
    /// retry). The run loop may leave this partition uncycled up to
    /// (exclusive of) the returned cycle and repay the span via
    /// [`Partition::settle`].
    pub fn next_event(&self, next: u64) -> Option<u64> {
        if self.quiesced() {
            return None;
        }
        if !self.resp_out.is_empty()
            || !self.dram_retry.is_empty()
            || (!self.incoming.is_empty() && !self.head_stalled())
        {
            return Some(next);
        }
        let mut at: Option<u64> = None;
        let fold = |t: u64, at: &mut Option<u64>| {
            *at = Some(at.map_or(t, |a: u64| a.min(t)));
        };
        for &(t, _) in &self.pending_resp {
            fold(t, &mut at);
        }
        for &(t, _) in &self.delayed {
            fold(t, &mut at);
        }
        if let Some(e) = self.dram.next_event() {
            // Channel cycle `e` is executed by the partition cycle at GPU
            // cycle `e - 1` (each partition cycle runs one channel cycle,
            // one ahead of the GPU clock).
            fold(e.saturating_sub(1), &mut at);
        }
        // An MSHR entry with no visible backing timer (shouldn't happen)
        // degrades to per-cycle polling rather than an unsound skip.
        Some(at.map_or(next, |t| t.max(next)))
    }

    /// Advances the partition one cycle.
    pub fn cycle(&mut self, now: u64, oracle: &mut SizeOracle<'_>) {
        self.settle(now);
        self.next_tick = now + 1;
        self.now = now;

        // Release fault-delayed requests whose hold expired (into the retry
        // queue so channel back-pressure still applies; no re-delay draw).
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                let (_, req) = self.delayed.swap_remove(i);
                self.dram_retry.push_back(req);
            } else {
                i += 1;
            }
        }

        // Retry DRAM pushes rejected by a full queue.
        while let Some(r) = self.dram_retry.pop_front() {
            if let Err(r) = self.dram.push(r) {
                self.dram_retry.push_front(r);
                break;
            }
        }

        // Service one incoming request.
        if let Some(req) = self.incoming.pop_front() {
            if req.is_write {
                self.md_lookup(req.addr);
                let size = oracle.l2_size(req.addr);
                let evictions = self.l2.fill(req.addr, true, size);
                for ev in evictions {
                    if ev.dirty {
                        let bursts = oracle.dram_bursts(ev.addr);
                        let id = self.next_req_id;
                        self.next_req_id += 1;
                        self.push_dram(DramRequest {
                            id,
                            addr: ev.addr,
                            bursts,
                            is_write: true,
                        });
                    }
                }
            } else {
                match self.l2.access(req.addr, false) {
                    AccessOutcome::Hit => {
                        let flits = oracle.resp_flits(req.addr);
                        self.pending_resp.push((
                            now + self.cfg.l2_latency,
                            PartResp {
                                sm: req.sm,
                                addr: req.addr,
                                flits,
                            },
                        ));
                    }
                    AccessOutcome::Miss => match self.mshr.allocate(req.addr, req.sm) {
                        Ok(true) => {
                            self.md_lookup(req.addr);
                            let bursts = oracle.dram_bursts(req.addr);
                            let id = self.next_req_id;
                            self.next_req_id += 1;
                            self.push_dram(DramRequest {
                                id,
                                addr: req.addr,
                                bursts,
                                is_write: false,
                            });
                        }
                        Ok(false) => { /* merged */ }
                        Err(sm) => {
                            // MSHRs full: retry next cycle.
                            self.incoming.push_front(PartReq {
                                sm,
                                addr: req.addr,
                                is_write: false,
                            });
                        }
                    },
                }
            }
        }

        // DRAM progress and completions.
        self.dram.cycle();
        while let Some(done) = self.dram.pop_completed() {
            if done.is_write || done.id & MD_TAG != 0 {
                continue;
            }
            let size = oracle.l2_size(done.addr);
            let evictions = self.l2.fill(done.addr, false, size);
            for ev in evictions {
                if ev.dirty {
                    let bursts = oracle.dram_bursts(ev.addr);
                    let id = self.next_req_id;
                    self.next_req_id += 1;
                    self.push_dram(DramRequest {
                        id,
                        addr: ev.addr,
                        bursts,
                        is_write: true,
                    });
                }
            }
            let flits = oracle.resp_flits(done.addr);
            let waiters = self.mshr.complete(done.addr);
            for &sm in &waiters {
                self.resp_out.push_back(PartResp {
                    sm,
                    addr: done.addr,
                    flits,
                });
            }
            self.mshr.recycle(waiters);
        }

        // Release L2-hit responses whose latency elapsed.
        let mut i = 0;
        while i < self.pending_resp.len() {
            if self.pending_resp[i].0 <= now {
                let (_, resp) = self.pending_resp.swap_remove(i);
                self.resp_out.push_back(resp);
            } else {
                i += 1;
            }
        }
        self.refresh_wake();
    }

    /// L2 hit count.
    pub fn l2_hits(&self) -> u64 {
        self.l2.hits()
    }

    /// L2 miss count.
    pub fn l2_misses(&self) -> u64 {
        self.l2.misses()
    }

    /// MD-cache lookup count (0 when disabled).
    pub fn md_lookups(&self) -> u64 {
        self.md.as_ref().map_or(0, |m| m.lookups())
    }

    /// MD-cache miss count.
    pub fn md_misses(&self) -> u64 {
        self.md.as_ref().map_or(0, |m| m.misses())
    }

    /// DRAM channel statistics.
    pub fn dram_stats(&self) -> caba_mem::DramStats {
        self.dram.stats()
    }

    /// DRAM requests held back by fault injection so far.
    pub fn delay_faults(&self) -> u64 {
        self.delay_faults
    }

    /// DRAM channel-cycles spent on compression-metadata fetches (one
    /// single-burst access per MD-cache miss, §4.3.2).
    pub fn md_stall_cycles(&self) -> u64 {
        self.md_stall_cycles
    }

    /// Moves this partition's buffered instant events into `out` (called by
    /// the GPU tracer in partition index order).
    pub(crate) fn drain_events(&mut self, out: &mut Vec<TraceEvent>) {
        out.append(&mut self.events);
    }

    /// Records instant events from now on, dropping any still buffered (a
    /// new trace starts: [`crate::Gpu::start_trace`]).
    pub(crate) fn record_events(&mut self) {
        self.events_on = true;
        self.events.clear();
    }

    /// True when this partition currently carries an in-flight read for
    /// `(sm, line)` — in the incoming queue, an MSHR entry with that SM as a
    /// waiter, a latency-pending L2 hit, or the response queue. Used by the
    /// request-conservation audit.
    pub fn carries_read(&self, sm: usize, line: u64) -> bool {
        self.incoming
            .iter()
            .any(|r| !r.is_write && r.sm == sm && r.addr == line)
            || self
                .mshr
                .iter()
                .any(|(addr, waiters)| addr == line && waiters.contains(&sm))
            || self
                .pending_resp
                .iter()
                .any(|(_, r)| r.sm == sm && r.addr == line)
            || self.resp_out.iter().any(|r| r.sm == sm && r.addr == line)
    }

    /// Checks this partition's occupancy-bound invariants.
    pub fn audit_into(&self, cycle: u64, out: &mut Vec<Violation>) {
        if self.mshr.outstanding() > self.mshr.capacity() {
            out.push(Violation {
                cycle,
                component: Component::Partition(self.id),
                detail: format!(
                    "L2 MSHR occupancy {} exceeds capacity {}",
                    self.mshr.outstanding(),
                    self.mshr.capacity()
                ),
            });
        }
        if self.incoming.len() > 16 {
            out.push(Violation {
                cycle,
                component: Component::Partition(self.id),
                detail: format!(
                    "incoming queue holds {} requests (bound 16)",
                    self.incoming.len()
                ),
            });
        }
    }

    // ----- binary checkpoint (see [`crate::snapshot`]) ----------------------

    /// Serializes the partition's full state (queues, L2/MD tags, MSHRs,
    /// DRAM channel, retry/delay buffers, fault RNG, counters). Geometry is
    /// config-derived and validated on load, not written.
    pub(crate) fn snap_save(&self, w: &mut SnapshotWriter) {
        self.l2.snap_save(w);
        self.mshr.snap_save(w);
        match &self.md {
            None => w.bool(false),
            Some(md) => {
                w.bool(true);
                md.snap_save(w);
            }
        }
        self.dram.snap_save(w);
        self.incoming.save(w);
        self.pending_resp.save(w);
        self.resp_out.save(w);
        self.dram_retry.save(w);
        w.u64(self.next_req_id);
        self.injector.snap_save(w);
        self.delayed.save(w);
        w.u64(self.now);
        w.u64(self.next_tick);
        w.u64(self.delay_faults);
        w.u64(self.md_stall_cycles);
    }

    /// Restores the partition in place from bytes written by
    /// [`Partition::snap_save`].
    ///
    /// # Errors
    ///
    /// Fails on malformed bytes or when the snapshot's MD-cache presence
    /// disagrees with this partition's configuration.
    pub(crate) fn snap_load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapError> {
        self.l2.snap_load(r)?;
        self.mshr.snap_load(r)?;
        if r.bool()? != self.md.is_some() {
            return Err(SnapError::Invariant {
                what: "md-cache presence mismatch",
            });
        }
        if let Some(md) = self.md.as_mut() {
            md.snap_load(r)?;
        }
        self.dram.snap_load(r)?;
        self.incoming = VecDeque::<PartReq>::load(r)?;
        self.pending_resp = Vec::<(u64, PartResp)>::load(r)?;
        self.resp_out = VecDeque::<PartResp>::load(r)?;
        self.dram_retry = VecDeque::<DramRequest>::load(r)?;
        self.next_req_id = r.u64()?;
        self.injector.snap_load(r)?;
        self.delayed = Vec::<(u64, DramRequest)>::load(r)?;
        self.now = r.u64()?;
        self.next_tick = r.u64()?;
        self.delay_faults = r.u64()?;
        self.md_stall_cycles = r.u64()?;
        self.refresh_wake();
        self.events.clear();
        Ok(())
    }

    /// Occupancy snapshot for hang forensics.
    pub fn snapshot(&self) -> PartitionSnapshot {
        let d = self.dram.stats();
        PartitionSnapshot {
            id: self.id,
            incoming: self.incoming.len(),
            mshr_outstanding: self.mshr.outstanding(),
            mshr_capacity: self.mshr.capacity(),
            resp_out: self.resp_out.len(),
            pending_resp: self.pending_resp.len(),
            dram_idle: self.dram.idle(),
            dram_reads: d.reads,
            dram_writes: d.writes,
            md_lookups: self.md_lookups(),
            md_misses: self.md_misses(),
            delayed_requests: self.delayed.len(),
        }
    }
}

impl SnapshotState for PartReq {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.sm);
        w.u64(self.addr);
        w.bool(self.is_write);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok(PartReq {
            sm: r.usize()?,
            addr: r.u64()?,
            is_write: r.bool()?,
        })
    }
}

impl SnapshotState for PartResp {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.sm);
        w.u64(self.addr);
        w.u32(self.flits);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok(PartResp {
            sm: r.usize()?,
            addr: r.u64()?,
            flits: r.u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assist::LineStore;
    use caba_compress::{Algorithm, LineCompressor};
    use caba_mem::{CompressionMap, FuncMem};

    fn oracle_parts() -> (FuncMem, CompressionMap, LineStore) {
        let mut mem = FuncMem::new();
        for i in 0..32u32 {
            mem.write_u32(i as u64 * 4, 0x7000 + i); // compressible line 0
        }
        let mut x = 99u64;
        for i in 0..16 {
            x = x.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
            mem.write_u64(4096 + i * 8, x); // incompressible line
        }
        (
            mem,
            CompressionMap::new(LineCompressor::Fixed(Algorithm::Bdi)),
            LineStore::new(),
        )
    }

    #[test]
    fn oracle_sizes() {
        let (mem, mut cmap, ls) = oracle_parts();
        let mut o = SizeOracle {
            mem: &mem,
            cmap: Some(&mut cmap),
            line_store: &ls,
            mem_compressed: true,
            icnt_compressed: true,
        };
        assert!(o.dram_bursts(0) < 4);
        assert_eq!(o.dram_bursts(4096), 4);
        assert!(o.resp_flits(0) < 4);
        assert!(o.l2_size(0) < LINE_SIZE);

        let mut base = SizeOracle {
            mem: &mem,
            cmap: None,
            line_store: &ls,
            mem_compressed: false,
            icnt_compressed: false,
        };
        assert_eq!(base.dram_bursts(0), 4);
        assert_eq!(base.resp_flits(0), 4);
        assert_eq!(base.l2_size(0), LINE_SIZE);
    }

    fn run_until_resp(
        part: &mut Partition,
        oracle: &mut SizeOracle<'_>,
        max: u64,
    ) -> Option<(u64, PartResp)> {
        for c in 0..max {
            part.cycle(c, oracle);
            if let Some(r) = part.pop_response() {
                return Some((c, r));
            }
        }
        None
    }

    #[test]
    fn read_miss_then_hit_is_faster() {
        let cfg = GpuConfig::small();
        let (mem, mut cmap, ls) = oracle_parts();
        let mut part = Partition::new(0, cfg, false);
        let mut oracle = SizeOracle {
            mem: &mem,
            cmap: Some(&mut cmap),
            line_store: &ls,
            mem_compressed: false,
            icnt_compressed: false,
        };
        part.push(PartReq {
            sm: 3,
            addr: 0,
            is_write: false,
        });
        let (t_miss, r) = run_until_resp(&mut part, &mut oracle, 500).expect("miss completes");
        assert_eq!(r.sm, 3);
        assert_eq!(r.flits, 4);
        // Second access: L2 hit.
        part.push(PartReq {
            sm: 3,
            addr: 0,
            is_write: false,
        });
        let start = t_miss;
        let mut hit_at = None;
        for c in start + 1..start + 500 {
            part.cycle(c, &mut oracle);
            if let Some(_r) = part.pop_response() {
                hit_at = Some(c - start);
                break;
            }
        }
        let t_hit = hit_at.expect("hit completes");
        assert!(t_hit < t_miss, "hit {t_hit} vs miss {t_miss}");
        assert_eq!(part.l2_hits(), 1);
        assert_eq!(part.l2_misses(), 1);
        assert!(part.quiesced());
    }

    #[test]
    fn same_line_requests_merge_in_mshr() {
        let cfg = GpuConfig::small();
        let (mem, mut cmap, ls) = oracle_parts();
        let mut part = Partition::new(0, cfg, false);
        let mut oracle = SizeOracle {
            mem: &mem,
            cmap: Some(&mut cmap),
            line_store: &ls,
            mem_compressed: false,
            icnt_compressed: false,
        };
        for sm in 0..3 {
            part.push(PartReq {
                sm,
                addr: 0,
                is_write: false,
            });
        }
        let mut resps = Vec::new();
        for c in 0..600 {
            part.cycle(c, &mut oracle);
            while let Some(r) = part.pop_response() {
                resps.push(r.sm);
            }
        }
        resps.sort_unstable();
        assert_eq!(resps, vec![0, 1, 2]);
        // Only one DRAM read despite three requesters.
        assert_eq!(part.dram_stats().reads, 1);
    }

    #[test]
    fn compressed_read_uses_fewer_bursts() {
        let cfg = GpuConfig::small();
        let (mem, mut cmap, ls) = oracle_parts();
        let mut part = Partition::new(0, cfg, true);
        let mut oracle = SizeOracle {
            mem: &mem,
            cmap: Some(&mut cmap),
            line_store: &ls,
            mem_compressed: true,
            icnt_compressed: true,
        };
        part.push(PartReq {
            sm: 0,
            addr: 0,
            is_write: false,
        });
        let (_, r) = run_until_resp(&mut part, &mut oracle, 500).expect("completes");
        assert!(r.flits < 4);
        assert!(part.dram_stats().bursts < 4 + 1); // compressed line (+ md?)
        assert_eq!(part.md_lookups(), 1);
    }

    #[test]
    fn writes_fill_l2_and_spill_dirty_victims() {
        let cfg = GpuConfig::small();
        let (mem, mut cmap, ls) = oracle_parts();
        let mut part = Partition::new(0, cfg, false);
        let mut oracle = SizeOracle {
            mem: &mem,
            cmap: Some(&mut cmap),
            line_store: &ls,
            mem_compressed: false,
            icnt_compressed: false,
        };
        // Fill one L2 set (16 ways, 64 sets): same set = stride sets*128.
        let stride = 64 * 128u64;
        for i in 0..17u64 {
            part.push(PartReq {
                sm: 0,
                addr: i * stride,
                is_write: true,
            });
        }
        for c in 0..2000 {
            part.cycle(c, &mut oracle);
        }
        // 17 dirty fills into a 16-way set force ≥1 writeback.
        assert!(part.dram_stats().writes >= 1);
    }
}
