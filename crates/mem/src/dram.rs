//! A GDDR5 DRAM channel: banks with row-buffer state machines, FR-FCFS
//! scheduling, and a burst-granular data bus.
//!
//! Table 1 of the paper gives the timing parameters (Hynix GDDR5 SGRAM):
//! `tCL = 12, tRP = 12, tRC = 40, tRAS = 28, tRCD = 12, tRRD = 6, tWR = 12`.
//! The paper's bandwidth-utilization metric — "the fraction of total DRAM
//! cycles that the DRAM data bus is busy" (§5) — is exactly
//! [`DramStats::bus_busy_cycles`] over elapsed cycles here. Compressed lines
//! transfer in 1–4 bursts instead of always 4, which is where every
//! bandwidth saving in Figures 7–12 comes from.

use caba_stats::snap::{SnapError, SnapshotReader, SnapshotState, SnapshotWriter};
use std::collections::VecDeque;

/// Timing and geometry of one DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Banks per channel.
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Activate-to-CAS delay.
    pub t_rcd: u64,
    /// Precharge latency.
    pub t_rp: u64,
    /// Minimum row-open time before precharge.
    pub t_ras: u64,
    /// CAS (column access) latency.
    pub t_cl: u64,
    /// Write recovery time.
    pub t_wr: u64,
    /// Activate-to-activate (different banks) delay.
    pub t_rrd: u64,
    /// Core cycles the data bus is busy per 32-byte burst. The ½×/2×
    /// bandwidth sweeps of Figures 1 and 12 scale this.
    pub burst_cycles: u64,
    /// Request queue capacity.
    pub queue_capacity: usize,
}

impl DramConfig {
    /// The paper's GDDR5 configuration (Table 1).
    pub fn isca2015() -> Self {
        DramConfig {
            banks: 16,
            row_bytes: 2048,
            t_rcd: 12,
            t_rp: 12,
            t_ras: 28,
            t_cl: 12,
            t_wr: 12,
            t_rrd: 6,
            burst_cycles: 2,
            queue_capacity: 32,
        }
    }

    /// Scales peak bandwidth by `factor` (0.5, 1.0, 2.0 in the paper's
    /// sweeps) by scaling the per-burst bus occupancy, rounded to a whole
    /// cycle: the machine runs `factor` times the bandwidth exactly only
    /// when [`scales_bandwidth_exactly`] accepts `factor`.
    ///
    /// [`scales_bandwidth_exactly`]: DramConfig::scales_bandwidth_exactly
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn with_bandwidth_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "bandwidth factor must be positive");
        let scaled = (self.burst_cycles as f64 / factor).round().max(1.0);
        self.burst_cycles = scaled as u64;
        self
    }

    /// Whether [`with_bandwidth_scale`](DramConfig::with_bandwidth_scale)
    /// runs exactly `factor` times this channel's bandwidth: `factor` is
    /// `burst_cycles / k` (that `f64` quotient, bit for bit) for a whole
    /// `k` from 1 to 2^32 - 1, and `k` is the scaled burst. With Table 1's
    /// 2-cycle burst that is `factor = 2/k` (2, 1, ⅔, ½, 0.4, …); the
    /// paper's ½×, 1× and 2× are exact.
    pub fn scales_bandwidth_exactly(&self, factor: f64) -> bool {
        let burst = self.burst_cycles as f64;
        let k = (burst / factor).round();
        (1.0..=u32::MAX as f64).contains(&k) && burst / k == factor
    }
}

/// One line-granularity DRAM request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramRequest {
    /// Caller-assigned identity, returned on completion.
    pub id: u64,
    /// Line base address.
    pub addr: u64,
    /// Bursts to transfer (1–4 for a 128 B line).
    pub bursts: u32,
    /// Write (true) or read (false).
    pub is_write: bool,
}

impl SnapshotState for DramRequest {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(self.id);
        w.u64(self.addr);
        w.u32(self.bursts);
        w.bool(self.is_write);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok(DramRequest {
            id: r.u64()?,
            addr: r.u64()?,
            bursts: r.u32()?,
            is_write: r.bool()?,
        })
    }
}

/// Counters exposed by a channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Cycles the data bus was transferring.
    pub bus_busy_cycles: u64,
    /// Elapsed channel cycles.
    pub total_cycles: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (precharge + activate needed).
    pub row_misses: u64,
    /// Reads serviced.
    pub reads: u64,
    /// Writes serviced.
    pub writes: u64,
    /// Bursts transferred.
    pub bursts: u64,
}

impl DramStats {
    /// Data-bus utilization so far (the Figure 8 metric).
    pub fn bus_utilization(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.bus_busy_cycles as f64 / self.total_cycles as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    ready_at: u64,
    activated_at: u64,
}

/// A queued request with its bank/row decode cached at enqueue time, so
/// the per-cycle FR-FCFS scan does no address arithmetic (two integer
/// divisions per entry otherwise). Derived fields only — the wire format
/// still carries bare [`DramRequest`]s and recomputes these on load.
#[derive(Debug, Clone)]
struct QueuedReq {
    req: DramRequest,
    bank: usize,
    row: u64,
}

/// One GDDR5 channel.
///
/// # Examples
///
/// ```
/// use caba_mem::{DramChannel, DramConfig, DramRequest};
/// let mut ch = DramChannel::new(DramConfig::isca2015());
/// ch.push(DramRequest { id: 1, addr: 0, bursts: 4, is_write: false }).unwrap();
/// let mut done = None;
/// for _ in 0..200 {
///     ch.cycle();
///     if let Some(r) = ch.pop_completed() { done = Some(r); break; }
/// }
/// assert_eq!(done.unwrap().id, 1);
/// ```
#[derive(Debug)]
pub struct DramChannel {
    cfg: DramConfig,
    now: u64,
    banks: Vec<Bank>,
    queue: VecDeque<QueuedReq>,
    in_flight: Vec<(u64, DramRequest)>,
    completed: VecDeque<DramRequest>,
    bus_free_at: u64,
    last_activate: u64,
    stats: DramStats,
}

impl DramChannel {
    /// Creates an idle channel.
    pub fn new(cfg: DramConfig) -> Self {
        DramChannel {
            cfg,
            now: 0,
            banks: vec![
                Bank {
                    open_row: None,
                    ready_at: 0,
                    activated_at: 0,
                };
                cfg.banks
            ],
            queue: VecDeque::new(),
            in_flight: Vec::new(),
            completed: VecDeque::new(),
            bus_free_at: 0,
            last_activate: 0,
            stats: DramStats::default(),
        }
    }

    /// The channel configuration.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Enqueues a request.
    ///
    /// # Errors
    ///
    /// Returns the request back when the queue is full (back-pressure).
    pub fn push(&mut self, req: DramRequest) -> Result<(), DramRequest> {
        if self.queue.len() >= self.cfg.queue_capacity {
            return Err(req);
        }
        let (bank, row) = self.bank_and_row(req.addr);
        self.queue.push_back(QueuedReq { req, bank, row });
        Ok(())
    }

    /// True when a new request can be accepted.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.cfg.queue_capacity
    }

    fn bank_and_row(&self, addr: u64) -> (usize, u64) {
        let line = addr / crate::LINE_SIZE as u64;
        let bank = (line % self.cfg.banks as u64) as usize;
        let row = addr / self.cfg.row_bytes;
        (bank, row)
    }

    /// Advances the channel by one cycle: FR-FCFS schedules at most one
    /// request, transfers progress, completions become poppable.
    pub fn cycle(&mut self) {
        self.now += 1;
        self.stats.total_cycles += 1;

        // Retire finished transfers.
        let now = self.now;
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 <= now {
                let (_, req) = self.in_flight.swap_remove(i);
                self.completed.push_back(req);
            } else {
                i += 1;
            }
        }

        // FR-FCFS: oldest row-hit first, else oldest ready request. The
        // scan only ever picks a request whose bank is ready, so when no
        // bank is (the common case on a saturated channel) skip it whole.
        if self.queue.is_empty() || !self.banks.iter().any(|b| b.ready_at <= now) {
            return;
        }
        let mut pick: Option<usize> = None;
        for (qi, q) in self.queue.iter().enumerate() {
            let b = &self.banks[q.bank];
            if b.ready_at > now {
                continue;
            }
            let row_hit = b.open_row == Some(q.row);
            if row_hit {
                pick = Some(qi);
                break;
            }
            if pick.is_none() {
                pick = Some(qi);
            }
        }
        let Some(qi) = pick else { return };
        let QueuedReq {
            req,
            bank: bank_idx,
            row,
        } = self.queue.remove(qi).expect("picked index valid");
        let bank = self.banks[bank_idx];

        // Command timing.
        let mut t = now.max(bank.ready_at);
        let row_hit = bank.open_row == Some(row);
        if !row_hit {
            if bank.open_row.is_some() {
                // Respect tRAS before precharging, then precharge.
                t = t.max(bank.activated_at + self.cfg.t_ras) + self.cfg.t_rp;
            }
            // Respect tRRD across banks, then activate.
            t = t.max(self.last_activate + self.cfg.t_rrd);
            self.last_activate = t;
            self.banks[bank_idx].activated_at = t;
            t += self.cfg.t_rcd;
            self.stats.row_misses += 1;
        } else {
            self.stats.row_hits += 1;
        }
        // CAS latency, then the data transfer on the shared bus.
        let cas_done = t + self.cfg.t_cl;
        let data_start = cas_done.max(self.bus_free_at);
        let transfer = req.bursts as u64 * self.cfg.burst_cycles;
        let data_end = data_start + transfer;
        self.bus_free_at = data_end;
        self.stats.bus_busy_cycles += transfer;
        self.stats.bursts += req.bursts as u64;
        let recovery = if req.is_write { self.cfg.t_wr } else { 0 };
        self.banks[bank_idx].ready_at = data_end + recovery;
        self.banks[bank_idx].open_row = Some(row);
        if req.is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.in_flight.push((data_end, req));
    }

    /// Advances `n` cycles across a span in which the channel provably does
    /// nothing: no in-flight transfer finishes and no queued request becomes
    /// schedulable at or before `now + n`. The channel need not be
    /// [`DramChannel::idle`]: it may hold future-dated work. Each skipped
    /// cycle only advances `now` and `total_cycles` (the Figure 8 utilization
    /// denominator). The caller (the next-event clock) must pick `n` from
    /// [`DramChannel::next_event`] so every skipped cycle would have been a
    /// pure clock tick, and so that the event cycle itself is still executed
    /// by a real [`DramChannel::cycle`] call.
    pub fn tick_gap(&mut self, n: u64) {
        debug_assert!(
            self.completed.is_empty(),
            "tick_gap with poppable completions"
        );
        debug_assert!(
            self.next_event().is_none_or(|at| at > self.now + n),
            "tick_gap overshoots the channel's next event"
        );
        self.now += n;
        self.stats.total_cycles += n;
    }

    /// The earliest future channel cycle at which a [`DramChannel::cycle`]
    /// call would do more than advance the clock: the next in-flight
    /// completion, or the first cycle a queued request's bank is ready.
    /// `None` when the channel is drained (any poppable completion counts as
    /// "now", conservatively reported as the current cycle).
    ///
    /// A queued request's bank becoming ready is a safe lower bound on when
    /// scheduling work happens: FR-FCFS only ever schedules a request whose
    /// bank has `ready_at <= now`, so until the minimum such time nothing can
    /// be picked and each cycle is a pure tick.
    pub fn next_event(&self) -> Option<u64> {
        if !self.completed.is_empty() {
            return Some(self.now);
        }
        let mut at: Option<u64> = self.in_flight.iter().map(|&(end, _)| end).min();
        for q in &self.queue {
            // A bank already ready means work next cycle.
            let ready = self.banks[q.bank].ready_at.max(self.now + 1);
            at = Some(at.map_or(ready, |a| a.min(ready)));
        }
        at
    }

    /// Pops a completed request, if any.
    pub fn pop_completed(&mut self) -> Option<DramRequest> {
        self.completed.pop_front()
    }

    /// True when no work is queued, in flight, or waiting to be popped.
    pub fn idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty() && self.completed.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Serializes the full channel state: clock, banks, queues, in-flight
    /// transfers, completions, bus/activate timestamps and counters. The
    /// config is not serialized (pinned by the snapshot container's config
    /// hash).
    pub fn snap_save(&self, w: &mut SnapshotWriter) {
        w.u64(self.now);
        w.usize(self.banks.len());
        for b in &self.banks {
            b.open_row.save(w);
            w.u64(b.ready_at);
            w.u64(b.activated_at);
        }
        w.usize(self.queue.len());
        for q in &self.queue {
            q.req.save(w);
        }
        self.in_flight.save(w);
        self.completed.save(w);
        w.u64(self.bus_free_at);
        w.u64(self.last_activate);
        w.u64(self.stats.bus_busy_cycles);
        w.u64(self.stats.total_cycles);
        w.u64(self.stats.row_hits);
        w.u64(self.stats.row_misses);
        w.u64(self.stats.reads);
        w.u64(self.stats.writes);
        w.u64(self.stats.bursts);
    }

    /// Restores channel state in place into a channel built with the same
    /// config.
    ///
    /// # Errors
    ///
    /// Fails when the serialized bank count disagrees with this channel's
    /// config or the bytes are malformed.
    pub fn snap_load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapError> {
        self.now = r.u64()?;
        let n_banks = r.usize()?;
        if n_banks != self.banks.len() {
            return Err(SnapError::Invariant {
                what: "dram bank count mismatch",
            });
        }
        for b in &mut self.banks {
            b.open_row = Option::<u64>::load(r)?;
            b.ready_at = r.u64()?;
            b.activated_at = r.u64()?;
        }
        let qlen = r.seq_len("VecDeque", 1)?;
        self.queue.clear();
        for _ in 0..qlen {
            let req = DramRequest::load(r)?;
            let (bank, row) = self.bank_and_row(req.addr);
            self.queue.push_back(QueuedReq { req, bank, row });
        }
        if self.queue.len() > self.cfg.queue_capacity {
            return Err(SnapError::Invariant {
                what: "dram queue exceeds capacity",
            });
        }
        self.in_flight = Vec::<(u64, DramRequest)>::load(r)?;
        self.completed = VecDeque::<DramRequest>::load(r)?;
        self.bus_free_at = r.u64()?;
        self.last_activate = r.u64()?;
        self.stats.bus_busy_cycles = r.u64()?;
        self.stats.total_cycles = r.u64()?;
        self.stats.row_hits = r.u64()?;
        self.stats.row_misses = r.u64()?;
        self.stats.reads = r.u64()?;
        self.stats.writes = r.u64()?;
        self.stats.bursts = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(ch: &mut DramChannel, max_cycles: u64) -> Vec<DramRequest> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            ch.cycle();
            while let Some(r) = ch.pop_completed() {
                out.push(r);
            }
            if ch.idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn single_read_completes_with_activate_latency() {
        let mut ch = DramChannel::new(DramConfig::isca2015());
        ch.push(DramRequest {
            id: 7,
            addr: 4096,
            bursts: 4,
            is_write: false,
        })
        .unwrap();
        let done = drain(&mut ch, 200);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 7);
        let s = ch.stats();
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 0);
        assert_eq!(s.bursts, 4);
        assert_eq!(s.bus_busy_cycles, 8);
    }

    #[test]
    fn row_hits_detected_for_same_row() {
        let mut ch = DramChannel::new(DramConfig::isca2015());
        // Same bank (line % 16): lines 0 and 16 share bank 0 and row 0/1.
        // Use two lines in the same 2KB row: lines 0 and 16 -> addr 0 and
        // 2048 are different rows. Same-row pairs on one bank need addresses
        // 0 and... bank = line % 16, row = addr / 2048; line 0 (addr 0) and
        // line 16 (addr 2048) are bank 0 but rows 0 and 1. With 16 banks and
        // 2KB rows a row only holds one line per bank out of each 32KB span;
        // so pick addr 0 and a repeat of addr 0's line... simplest: issue
        // the same line twice.
        for id in 0..2 {
            ch.push(DramRequest {
                id,
                addr: 0,
                bursts: 4,
                is_write: false,
            })
            .unwrap();
        }
        let done = drain(&mut ch, 400);
        assert_eq!(done.len(), 2);
        let s = ch.stats();
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 1);
    }

    #[test]
    fn compressed_transfer_uses_fewer_bus_cycles() {
        let mut a = DramChannel::new(DramConfig::isca2015());
        let mut b = DramChannel::new(DramConfig::isca2015());
        for i in 0..8u64 {
            a.push(DramRequest {
                id: i,
                addr: i * 128,
                bursts: 4,
                is_write: false,
            })
            .unwrap();
            b.push(DramRequest {
                id: i,
                addr: i * 128,
                bursts: 1,
                is_write: false,
            })
            .unwrap();
        }
        let da = drain(&mut a, 2000);
        let db = drain(&mut b, 2000);
        assert_eq!(da.len(), 8);
        assert_eq!(db.len(), 8);
        assert_eq!(a.stats().bus_busy_cycles, 8 * 4 * 2);
        assert_eq!(b.stats().bus_busy_cycles, 8 * 2);
        assert!(b.stats().bus_utilization() < a.stats().bus_utilization());
    }

    #[test]
    fn bandwidth_scaling_changes_burst_cycles() {
        let base = DramConfig::isca2015();
        assert_eq!(base.with_bandwidth_scale(2.0).burst_cycles, 1);
        assert_eq!(base.with_bandwidth_scale(0.5).burst_cycles, 4);
        assert_eq!(base.with_bandwidth_scale(1.0).burst_cycles, 2);
        for exact in [2.0, 1.0, 2.0 / 3.0, 0.5, 0.4, 0.25] {
            assert!(base.scales_bandwidth_exactly(exact), "{exact}");
        }
        for rounded in [4.0, 3.0, 1.2, 0.45, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(!base.scales_bandwidth_exactly(rounded), "{rounded}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_scale_panics() {
        let _ = DramConfig::isca2015().with_bandwidth_scale(0.0);
    }

    /// The horizon must be exact: ticking per-cycle up to (but not
    /// including) the reported event finds only pure clock ticks, and the
    /// event cycle itself does real work.
    #[test]
    fn next_event_matches_per_cycle_simulation() {
        let mut ch = DramChannel::new(DramConfig::isca2015());
        assert_eq!(ch.next_event(), None);
        ch.push(DramRequest {
            id: 1,
            addr: 4096,
            bursts: 4,
            is_write: false,
        })
        .unwrap();
        // Queued request on a ready bank: event is the very next cycle.
        assert_eq!(ch.next_event(), Some(1));
        ch.cycle(); // schedules; transfer now in flight
        let horizon = ch.next_event().expect("in-flight completion pending");
        let mut reference = DramChannel::new(DramConfig::isca2015());
        reference
            .push(DramRequest {
                id: 1,
                addr: 4096,
                bursts: 4,
                is_write: false,
            })
            .unwrap();
        reference.cycle();
        // Per-cycle reference: nothing completes before the horizon...
        while reference.stats().total_cycles + 1 < horizon {
            reference.cycle();
            assert!(reference.pop_completed().is_none());
        }
        // ...and the completion pops exactly at it.
        reference.cycle();
        assert!(reference.pop_completed().is_some());
        // Gap-skipping to just before the horizon then cycling once is
        // bit-identical: same completion, same counters.
        ch.tick_gap(horizon - 1 - ch.stats().total_cycles);
        ch.cycle();
        assert!(ch.pop_completed().is_some());
        assert_eq!(ch.stats(), reference.stats());
        assert_eq!(ch.next_event(), None);
    }

    #[test]
    fn next_event_respects_busy_bank_for_queued_request() {
        let mut ch = DramChannel::new(DramConfig::isca2015());
        ch.push(DramRequest {
            id: 0,
            addr: 0,
            bursts: 4,
            is_write: true,
        })
        .unwrap();
        // Complete and pop the write so only bank recovery remains.
        loop {
            ch.cycle();
            if ch.pop_completed().is_some() {
                break;
            }
        }
        // Same bank (same line address): the read cannot be scheduled until
        // the bank's write recovery (tWR) elapses.
        ch.push(DramRequest {
            id: 1,
            addr: 0,
            bursts: 1,
            is_write: false,
        })
        .unwrap();
        let now = ch.stats().total_cycles;
        let horizon = ch.next_event().expect("queued read pending");
        assert!(horizon > now + 1, "bank recovery must push the event out");
        // Skipping the gap then cycling once schedules the read exactly at
        // the horizon.
        ch.tick_gap(horizon - 1 - now);
        assert_eq!(ch.stats().reads, 0);
        ch.cycle();
        assert_eq!(ch.stats().reads, 1);
        assert_eq!(ch.stats().total_cycles, horizon);
    }

    #[test]
    fn queue_back_pressure() {
        let mut cfg = DramConfig::isca2015();
        cfg.queue_capacity = 2;
        let mut ch = DramChannel::new(cfg);
        let req = |id| DramRequest {
            id,
            addr: 0,
            bursts: 1,
            is_write: false,
        };
        assert!(ch.push(req(0)).is_ok());
        assert!(ch.push(req(1)).is_ok());
        assert!(!ch.can_accept());
        assert_eq!(ch.push(req(2)).unwrap_err().id, 2);
    }

    #[test]
    fn writes_counted_and_recover() {
        let mut ch = DramChannel::new(DramConfig::isca2015());
        ch.push(DramRequest {
            id: 0,
            addr: 0,
            bursts: 2,
            is_write: true,
        })
        .unwrap();
        let done = drain(&mut ch, 300);
        assert_eq!(done.len(), 1);
        assert_eq!(ch.stats().writes, 1);
        assert_eq!(ch.stats().reads, 0);
    }

    #[test]
    fn fr_fcfs_prefers_row_hit() {
        let mut ch = DramChannel::new(DramConfig::isca2015());
        // Open row for bank of addr 0 by completing one access first.
        ch.push(DramRequest {
            id: 0,
            addr: 0,
            bursts: 1,
            is_write: false,
        })
        .unwrap();
        let _ = drain(&mut ch, 200);
        // Now queue: a row-miss (same bank 0, different row: addr 2048*16)
        // then a row-hit (addr 64, same line 0 row).
        ch.push(DramRequest {
            id: 1,
            addr: 2048 * 16,
            bursts: 1,
            is_write: false,
        })
        .unwrap();
        ch.push(DramRequest {
            id: 2,
            addr: 0,
            bursts: 1,
            is_write: false,
        })
        .unwrap();
        let done = drain(&mut ch, 500);
        assert_eq!(done.len(), 2);
        // Row-hit id 2 should complete first despite arriving later.
        assert_eq!(done[0].id, 2);
        assert_eq!(done[1].id, 1);
    }
}
