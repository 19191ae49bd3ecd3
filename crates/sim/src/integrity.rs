//! Structural invariant audits and hang forensics.
//!
//! The integrity layer has three jobs, all wired into [`crate::Gpu::run`]:
//!
//! 1. **Forward-progress watchdog** — a signature of monotone progress
//!    counters (instructions issued, LSU ops drained, DRAM bursts, crossbar
//!    flit movement, threads retired) is sampled every cycle; if it does not
//!    change for [`crate::GpuConfig::watchdog_window`] cycles the run aborts
//!    with [`crate::RunError::Hang`] instead of burning the whole cycle
//!    budget.
//! 2. **Invariant audits** — every
//!    [`crate::GpuConfig::audit_interval`] cycles the whole machine is
//!    checked for request conservation (every in-flight read is carried by
//!    exactly the stage the ledger says it is in), occupancy bounds
//!    (MSHRs, store buffers, queues), scoreboard/SIMT-stack consistency,
//!    and compressed-line round-trip correctness. Any [`Violation`] aborts
//!    the run with [`crate::RunError::AuditFailed`].
//! 3. **Hang forensics** — both failure paths attach a [`HangReport`]
//!    snapshot (per-warp state with a Figure-1-style stall reason, per-SM
//!    queue occupancy, per-partition DRAM/MD-cache state, the oldest
//!    in-flight request) whose `Display` is designed to be read by a human
//!    debugging the wedge.

use std::fmt;

/// The component a violation is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// A streaming multiprocessor (L1/MSHR/scoreboard/SIMT state).
    Sm(usize),
    /// The request-direction crossbar (SM → memory partition).
    CrossbarRequest,
    /// The response-direction crossbar (memory partition → SM).
    CrossbarResponse,
    /// A memory partition (L2 slice, partition MSHRs, DRAM channel).
    Partition(usize),
    /// The reference compression map (cached compressed forms).
    CompressionMap,
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Component::Sm(i) => write!(f, "SM {i}"),
            Component::CrossbarRequest => write!(f, "request crossbar"),
            Component::CrossbarResponse => write!(f, "response crossbar"),
            Component::Partition(i) => write!(f, "partition {i}"),
            Component::CompressionMap => write!(f, "compression map"),
        }
    }
}

/// One structural invariant violation found by an audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle the audit ran.
    pub cycle: u64,
    /// Component the violation is attributed to.
    pub component: Component,
    /// Human-readable description of the broken invariant.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cycle {}] {}: {}",
            self.cycle, self.component, self.detail
        )
    }
}

/// Why a warp could not issue, in the Figure 1 taxonomy of the paper
/// (compute/memory structural stalls, data-dependence stalls, idle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// All lanes exited.
    Done,
    /// Waiting at a block-wide barrier.
    AtBarrier,
    /// Blocked on an unresolved register (data-dependence stall); carries
    /// the number of loads still outstanding.
    DataDependence {
        /// Loads in flight for this warp.
        outstanding_loads: u32,
    },
    /// Blocked on a busy memory pipeline (memory structural stall).
    MemoryStructural,
    /// Blocked on a busy compute pipeline (compute structural stall).
    ComputeStructural,
    /// Ready to issue (the scheduler just has not picked it).
    Ready,
}

impl fmt::Display for WarpState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarpState::Done => write!(f, "done"),
            WarpState::AtBarrier => write!(f, "at barrier"),
            WarpState::DataDependence { outstanding_loads } => {
                write!(
                    f,
                    "data-dependence stall ({outstanding_loads} loads in flight)"
                )
            }
            WarpState::MemoryStructural => write!(f, "memory structural stall"),
            WarpState::ComputeStructural => write!(f, "compute structural stall"),
            WarpState::Ready => write!(f, "ready"),
        }
    }
}

/// One live warp in a [`SmSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpSnapshot {
    /// Warp slot within the SM.
    pub slot: usize,
    /// Owning CTA id.
    pub ctaid: u32,
    /// Current PC.
    pub pc: usize,
    /// Active lane mask.
    pub active_mask: u32,
    /// Stall classification at snapshot time.
    pub state: WarpState,
}

/// Per-SM occupancy and warp state at hang time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SmSnapshot {
    /// SM id.
    pub id: usize,
    /// Live (unretired) warps.
    pub warps: Vec<WarpSnapshot>,
    /// Outstanding L1 MSHR lines / capacity.
    pub mshr_outstanding: usize,
    /// L1 MSHR capacity.
    pub mshr_capacity: usize,
    /// Line operations queued in the LSU.
    pub lsu_pending: usize,
    /// Lines held in the pending-store buffer.
    pub store_buffer: usize,
    /// Requests waiting to enter the interconnect.
    pub out_reqs: usize,
    /// Live assist warps.
    pub assists_active: usize,
    /// Lines whose fills wait on a decompression assist warp.
    pub pending_decomp: usize,
}

/// Per-partition occupancy at hang time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartitionSnapshot {
    /// Partition id.
    pub id: usize,
    /// Requests queued from the interconnect.
    pub incoming: usize,
    /// Outstanding L2 MSHR lines.
    pub mshr_outstanding: usize,
    /// L2 MSHR capacity.
    pub mshr_capacity: usize,
    /// Responses awaiting the interconnect.
    pub resp_out: usize,
    /// L2-hit responses still paying hit latency.
    pub pending_resp: usize,
    /// True when the DRAM channel has no work at all.
    pub dram_idle: bool,
    /// DRAM reads serviced so far.
    pub dram_reads: u64,
    /// DRAM writes serviced so far.
    pub dram_writes: u64,
    /// MD-cache lookups so far.
    pub md_lookups: u64,
    /// MD-cache misses so far.
    pub md_misses: u64,
    /// Fault-injected DRAM requests currently held in the delay queue.
    pub delayed_requests: usize,
}

/// A machine-state snapshot attached to watchdog/timeout failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangReport {
    /// Cycle the failure was declared.
    pub cycle: u64,
    /// Watchdog window in force (0 = disabled; timeout path).
    pub window: u64,
    /// CTAs dispatched so far.
    pub ctas_dispatched: usize,
    /// Total CTAs in the grid.
    pub grid_ctas: usize,
    /// Per-SM state.
    pub sms: Vec<SmSnapshot>,
    /// Per-partition state.
    pub partitions: Vec<PartitionSnapshot>,
    /// Packets inside the request crossbar.
    pub xbar_fwd_in_flight: usize,
    /// Packets inside the response crossbar.
    pub xbar_rsp_in_flight: usize,
    /// Oldest in-flight read: (age in cycles, issuing SM, line address).
    pub oldest_request: Option<(u64, usize, u64)>,
    /// Path of the forensics trace of a hang: the last watchdog window,
    /// re-executed with full tracing on a fresh machine
    /// ([`crate::Gpu::replay_hang`]). The run loop never sets it, so a
    /// report from [`crate::Gpu::run`] has none; `caba_workloads::run_app`
    /// replays every hang, never a timeout, and attaches it there.
    pub trace_path: Option<String>,
}

impl HangReport {
    /// Total live (unretired) warps across the machine.
    pub fn live_warps(&self) -> usize {
        self.sms.iter().map(|s| s.warps.len()).sum()
    }

    /// Live warps currently waiting at a barrier.
    pub fn warps_at_barrier(&self) -> usize {
        self.sms
            .iter()
            .flat_map(|s| s.warps.iter())
            .filter(|w| w.state == WarpState::AtBarrier)
            .count()
    }
}

impl fmt::Display for HangReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "hang report at cycle {} (watchdog window {}):",
            self.cycle, self.window
        )?;
        writeln!(
            f,
            "  grid: {}/{} CTAs dispatched, {} live warps ({} at barrier)",
            self.ctas_dispatched,
            self.grid_ctas,
            self.live_warps(),
            self.warps_at_barrier()
        )?;
        if let Some((age, sm, addr)) = self.oldest_request {
            writeln!(
                f,
                "  oldest in-flight read: line {addr:#x} from SM {sm}, {age} cycles old"
            )?;
        }
        writeln!(
            f,
            "  crossbars: {} request / {} response packets in flight",
            self.xbar_fwd_in_flight, self.xbar_rsp_in_flight
        )?;
        if let Some(path) = &self.trace_path {
            writeln!(f, "  forensics trace: {path}")?;
        }
        for sm in &self.sms {
            writeln!(
                f,
                "  SM {}: {} warps, MSHR {}/{}, LSU {} ops, store-buffer {}, \
                 {} out-reqs, {} assists, {} pending decompressions",
                sm.id,
                sm.warps.len(),
                sm.mshr_outstanding,
                sm.mshr_capacity,
                sm.lsu_pending,
                sm.store_buffer,
                sm.out_reqs,
                sm.assists_active,
                sm.pending_decomp
            )?;
            for w in &sm.warps {
                writeln!(
                    f,
                    "    warp {} (cta {}) pc={} mask={:#010x}: {}",
                    w.slot, w.ctaid, w.pc, w.active_mask, w.state
                )?;
            }
        }
        for p in &self.partitions {
            writeln!(
                f,
                "  partition {}: incoming {}, MSHR {}/{}, resp-out {}, pending-resp {}, \
                 dram {} (r {} / w {}), md {}/{} misses, {} delayed by faults",
                p.id,
                p.incoming,
                p.mshr_outstanding,
                p.mshr_capacity,
                p.resp_out,
                p.pending_resp,
                if p.dram_idle { "idle" } else { "busy" },
                p.dram_reads,
                p.dram_writes,
                p.md_misses,
                p.md_lookups,
                p.delayed_requests
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_names_component() {
        let v = Violation {
            cycle: 100,
            component: Component::CrossbarRequest,
            detail: "request for line 0x80 has no carrier".into(),
        };
        let s = v.to_string();
        assert!(s.contains("cycle 100"));
        assert!(s.contains("request crossbar"));
        assert!(s.contains("0x80"));
    }

    #[test]
    fn hang_report_display_is_readable() {
        let report = HangReport {
            cycle: 5000,
            window: 1000,
            ctas_dispatched: 2,
            grid_ctas: 4,
            sms: vec![SmSnapshot {
                id: 0,
                warps: vec![WarpSnapshot {
                    slot: 3,
                    ctaid: 1,
                    pc: 17,
                    active_mask: 0xFFFF_FFFF,
                    state: WarpState::AtBarrier,
                }],
                mshr_outstanding: 1,
                mshr_capacity: 32,
                ..Default::default()
            }],
            partitions: vec![PartitionSnapshot {
                id: 0,
                dram_idle: true,
                ..Default::default()
            }],
            xbar_fwd_in_flight: 0,
            xbar_rsp_in_flight: 0,
            oldest_request: Some((4200, 0, 0x1000)),
            trace_path: Some("/tmp/caba-hang.trace.json".into()),
        };
        let s = report.to_string();
        assert!(s.contains("forensics trace: /tmp/caba-hang.trace.json"));
        assert!(s.contains("cycle 5000"));
        assert!(s.contains("2/4 CTAs"));
        assert!(s.contains("at barrier"));
        assert!(s.contains("0x1000"));
        assert!(s.contains("MSHR 1/32"));
        assert_eq!(report.live_warps(), 1);
        assert_eq!(report.warps_at_barrier(), 1);
    }
}
