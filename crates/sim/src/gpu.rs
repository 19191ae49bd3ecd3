//! The whole-GPU model: SMs, two crossbars, memory partitions, the CTA
//! dispatcher, and the simulation integrity layer (forward-progress
//! watchdog, structural invariant audits, hang forensics).

use crate::assist::{LineStore, LineStoreDelta, SharedLineStore};
use crate::caba::CabaController;
use crate::config::{ConfigError, Design, GpuConfig};
use crate::fault::{stream, FaultInjector, FaultMode};
use crate::integrity::{Component, HangReport, Violation};
use crate::mempart::{PartReq, PartResp, Partition, SizeOracle};
use crate::observe::{sim_metrics_schema, ObservabilityConfig, TraceConfig};
use crate::sm::{SharedState, Sm};
use crate::snapshot::{self, RestoreError};
use crate::stats::RunStats;
use crate::trace::{ActivityTrace, Sample, TraceEvent, TraceEventKind, Tracer};
use caba_compress::{Algorithm, LineCompressor};
use caba_isa::{Kernel, Program};
use caba_mem::{CompressionMap, Crossbar, FuncMem, MemDelta, SharedMem, LINE_SIZE};
use caba_stats::snap::{SnapError, SnapshotReader, SnapshotState, SnapshotWriter};
use caba_stats::{FxHashMap, MetricsSnapshot, StallKind};
use std::fmt;
use std::sync::Arc;

/// Error returned by [`Gpu::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The kernel did not finish within the cycle budget.
    Timeout {
        /// Cycles simulated before giving up.
        cycles: u64,
        /// Machine state at the moment the budget ran out.
        report: Box<HangReport>,
    },
    /// The forward-progress watchdog saw no counter advance for a full
    /// window — the machine is wedged (usually a barrier deadlock or a lost
    /// request).
    Hang {
        /// Cycles simulated before the hang was declared.
        cycles: u64,
        /// The watchdog window that elapsed without progress.
        window: u64,
        /// Machine state at the moment the hang was declared.
        report: Box<HangReport>,
    },
    /// A structural invariant audit found violations.
    AuditFailed {
        /// Cycle the audit ran.
        cycle: u64,
        /// Every violation found, each naming the faulting component.
        violations: Vec<Violation>,
    },
}

impl RunError {
    /// The attached machine-state snapshot, when the failure carries one.
    pub fn report(&self) -> Option<&HangReport> {
        match self {
            RunError::Timeout { report, .. } | RunError::Hang { report, .. } => Some(report),
            RunError::AuditFailed { .. } => None,
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Timeout { cycles, report } => {
                writeln!(f, "kernel did not complete within {cycles} cycles")?;
                write!(f, "{report}")
            }
            RunError::Hang {
                cycles,
                window,
                report,
            } => {
                writeln!(
                    f,
                    "no forward progress for {window} cycles (aborted at cycle {cycles})"
                )?;
                write!(f, "{report}")
            }
            RunError::AuditFailed { cycle, violations } => {
                writeln!(
                    f,
                    "invariant audit at cycle {cycle} found {} violation(s):",
                    violations.len()
                )?;
                for v in violations {
                    writeln!(f, "  {v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Where an in-flight read currently is, per the request ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Between the SM and the partition (inside the request crossbar).
    RequestXbar,
    /// Inside the memory partition (queues, MSHRs, DRAM).
    Partition,
    /// Between the partition and the SM (inside the response crossbar).
    ResponseXbar,
}

#[derive(Debug, Clone, Copy)]
struct LedgerEntry {
    issued_at: u64,
    stage: Stage,
}

/// The simulated GPU.
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    design: Design,
    mem: FuncMem,
    cmap: Option<CompressionMap>,
    line_store: LineStore,
    sms: Vec<Sm>,
    /// The SM phase's writes to `mem` and `line_store`, held back until the
    /// end-of-cycle commit. Empty at every cycle boundary.
    mem_delta: MemDelta,
    ls_delta: LineStoreDelta,
    parts: Vec<Partition>,
    xbar_fwd: Crossbar<PartReq>,
    xbar_rsp: Crossbar<PartResp>,
    now: u64,
    tracer: Option<Tracer>,
    /// Every in-flight read, keyed by `(sm, line)`, with the stage the GPU
    /// last moved it into. The invariant audit checks that the recorded
    /// stage actually carries each request. Uses the deterministic in-repo
    /// [`FxHashMap`]: insert/remove runs on every memory access, and no
    /// iteration order escapes into architectural state (the audit sorts
    /// its violations).
    ledger: FxHashMap<(usize, u64), LedgerEntry>,
    xbar_injector: FaultInjector,
    audits_run: u64,
    flits_dropped: u64,
    flit_retransmissions: u64,
    /// Cycles the next-event clock jumped over instead of ticking, and how
    /// many distinct jumps it made. Serialized so a restored run reports
    /// the same totals; architectural state never depends on them.
    cycles_skipped: u64,
    skip_events: u64,
    /// CTA dispatch cursor. Lives on the machine (not the run loop) so a
    /// restored snapshot resumes dispatch exactly where it left off.
    next_cta: u32,
    /// Cycle the current run epoch started at. [`Gpu::run`] resets it to
    /// `now`; [`Gpu::resume`] continues the epoch, so cycle budgets,
    /// watchdog strides, and audit schedules count from the original start.
    run_start: u64,
}

impl Gpu {
    /// Builds a GPU for one design point.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` is inconsistent; use [`Gpu::try_new`] to handle
    /// [`ConfigError`] instead.
    pub fn new(cfg: GpuConfig, design: Design) -> Self {
        Self::try_new(cfg, design).unwrap_or_else(|e| panic!("invalid GpuConfig: {e}"))
    }

    /// Builds a GPU for one design point, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found by
    /// [`GpuConfig::validate`].
    pub fn try_new(cfg: GpuConfig, design: Design) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let cmap = Self::build_cmap(design);
        let with_md = design.mem_compressed();
        Ok(Gpu {
            cfg,
            mem: FuncMem::new(),
            cmap,
            line_store: LineStore::new(),
            sms: (0..cfg.num_sms).map(|i| Sm::new(i, cfg, design)).collect(),
            mem_delta: MemDelta::new(),
            ls_delta: LineStoreDelta::new(),
            parts: (0..cfg.num_channels)
                .map(|i| Partition::new(i, cfg, with_md))
                .collect(),
            xbar_fwd: Crossbar::new(cfg.num_sms, cfg.num_channels, cfg.icnt_latency),
            xbar_rsp: Crossbar::new(cfg.num_channels, cfg.num_sms, cfg.icnt_latency),
            now: 0,
            tracer: cfg.observability.trace.map(|t| Tracer::new(t, cfg.num_sms)),
            design,
            ledger: FxHashMap::default(),
            xbar_injector: FaultInjector::for_stream(cfg.fault, stream::CROSSBAR),
            audits_run: 0,
            flits_dropped: 0,
            flit_retransmissions: 0,
            cycles_skipped: 0,
            skip_events: 0,
            next_cta: 0,
            run_start: 0,
        })
    }

    /// The reference compression map for one design point — a pure
    /// memoization of per-line compressed forms, rebuilt from scratch by
    /// [`Gpu::restore`] rather than serialized.
    fn build_cmap(design: Design) -> Option<CompressionMap> {
        let selector = match design {
            Design::Base => return None,
            Design::HwMemOnly | Design::HwFull { .. } => LineCompressor::Fixed(Algorithm::Bdi),
            Design::Caba(mode) => mode.selector(),
        };
        Some(CompressionMap::new(selector))
    }

    /// Takes the recorded trace, if tracing was enabled
    /// ([`GpuConfig::with_trace`](crate::GpuConfig::with_trace)). Any
    /// instant events still buffered in SMs or partitions are drained
    /// first, so the trace is complete even when the run ends mid-interval.
    pub fn take_trace(&mut self) -> Option<ActivityTrace> {
        let mut tracer = self.tracer.take()?;
        for sm in &mut self.sms {
            sm.drain_events(&mut tracer.trace.events);
        }
        for p in &mut self.parts {
            p.drain_events(&mut tracer.trace.events);
        }
        Some(tracer.trace)
    }

    /// Assembles the metric snapshot for this run, or `None` when
    /// [`MetricsLevel::Off`](caba_stats::MetricsLevel) (the default — no
    /// registry exists and nothing was recorded). At `Full` the snapshot
    /// carries the per-event shard values (assist spawn/retire counts,
    /// occupancy high-water marks) merged across SMs in index order, then
    /// export-time entries derived from `stats`.
    pub fn metrics_snapshot(&self, stats: &RunStats) -> Option<MetricsSnapshot> {
        if !self.cfg.observability.metrics.enabled() {
            return None;
        }
        let (reg, _) = sim_metrics_schema();
        let merged = reg.merge_shards(self.sms.iter().filter_map(|s| s.metric_shard()));
        let mut snap = reg.snapshot(&merged);
        snap.push("run.cycles", stats.cycles);
        for k in StallKind::ALL {
            snap.push(k.slug(), stats.breakdown.count(k));
        }
        snap.push("assist.slots_stolen", stats.assist_slots_stolen);
        snap.push("assist.slots_reclaimed", stats.assist_slots_reclaimed);
        snap.push("md.stall_cycles", stats.md_stall_cycles);
        snap.push("dram.bursts", stats.dram_bursts);
        snap.push("icnt.flits", stats.icnt_flits);
        Some(snap)
    }

    fn trace_tick(&mut self) {
        match &self.tracer {
            Some(tr) if self.now - tr.last_cycle >= tr.interval => self.settle_all(),
            _ => return,
        }
        let tr = self.tracer.as_mut().expect("checked above");
        let mut app = Vec::with_capacity(self.sms.len());
        let mut assist = Vec::with_capacity(self.sms.len());
        let mut stalls = Vec::with_capacity(self.sms.len());
        for (i, sm) in self.sms.iter_mut().enumerate() {
            app.push(sm.app_instructions() - tr.last_app[i]);
            assist.push(sm.assist_instructions() - tr.last_assist[i]);
            stalls.push(sm.breakdown().delta(&tr.last_stalls[i]));
            tr.last_app[i] = sm.app_instructions();
            tr.last_assist[i] = sm.assist_instructions();
            tr.last_stalls[i] = *sm.breakdown();
            sm.drain_events(&mut tr.trace.events);
        }
        let (mut busy, mut total) = (0u64, 0u64);
        for p in &mut self.parts {
            let d = p.dram_stats();
            busy += d.bus_busy_cycles;
            total += d.total_cycles;
            p.drain_events(&mut tr.trace.events);
        }
        tr.trace.samples.push(Sample {
            cycle: self.now,
            app_issued: app,
            assist_issued: assist,
            stalls,
            dram_busy: busy - tr.last_dram_busy,
            dram_total: total - tr.last_dram_total,
        });
        tr.last_dram_busy = busy;
        tr.last_dram_total = total;
        tr.last_cycle = self.now;
    }

    /// The functional memory (read-only view).
    pub fn mem(&self) -> &FuncMem {
        &self.mem
    }

    /// The functional memory, mutable (for loading input images).
    pub fn mem_mut(&mut self) -> &mut FuncMem {
        &mut self.mem
    }

    /// Copies input data into device memory (the host→device transfer; with
    /// compressed designs the data is considered software-pre-compressed at
    /// this point, §4.3.1).
    pub fn load_image(&mut self, addr: u64, bytes: &[u8]) {
        self.mem.load_image(addr, bytes);
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The design point.
    pub fn design(&self) -> Design {
        self.design
    }

    /// Makes the CABA controllers check every BDI assist warp's result
    /// against the reference compressor, panicking on a mismatch. On by
    /// default in debug builds only; it changes no timing and no result.
    pub fn set_paranoid(&mut self, on: bool) {
        for sm in &mut self.sms {
            sm.set_paranoid(on);
        }
    }

    /// A value that changes whenever any part of the machine makes forward
    /// progress. Built from monotone counters only, so an unchanged value
    /// over a whole watchdog window proves the machine is wedged.
    fn progress_signature(&self) -> u64 {
        let mut sig = 0u64;
        for sm in &self.sms {
            sig = sig.wrapping_add(sm.progress_signature());
        }
        for p in &self.parts {
            let d = p.dram_stats();
            sig = sig
                .wrapping_add(p.l2_hits())
                .wrapping_add(p.l2_misses())
                .wrapping_add(d.bursts)
                .wrapping_add(d.reads)
                .wrapping_add(d.writes);
        }
        sig.wrapping_add(self.xbar_fwd.total_flits())
            .wrapping_add(self.xbar_rsp.total_flits())
    }

    /// Runs the full structural invariant audit.
    fn audit(&self, cycle: u64) -> Vec<Violation> {
        let mut out = Vec::new();

        // Request conservation: the stage the ledger last moved each read
        // into must actually carry it. The ledger is iterated in hash order
        // and only the (rare) violations are collected and sorted, instead
        // of materializing and sorting the whole ledger on every audit.
        let mut bad: Vec<(usize, u64, u64, Component)> = Vec::new();
        for (&(sm, line), entry) in &self.ledger {
            let (carried, component) = match entry.stage {
                Stage::RequestXbar => (
                    self.xbar_fwd
                        .in_flight()
                        .any(|r| !r.is_write && r.sm == sm && r.addr == line),
                    Component::CrossbarRequest,
                ),
                Stage::Partition => {
                    let dst = ((line / LINE_SIZE as u64) % self.parts.len() as u64) as usize;
                    (
                        self.parts[dst].carries_read(sm, line),
                        Component::Partition(dst),
                    )
                }
                Stage::ResponseXbar => (
                    self.xbar_rsp
                        .in_flight()
                        .any(|r| r.sm == sm && r.addr == line),
                    Component::CrossbarResponse,
                ),
            };
            if !carried {
                bad.push((sm, line, entry.issued_at, component));
            }
        }
        bad.sort_unstable_by_key(|&(sm, line, _, _)| (sm, line));
        for (sm, line, issued_at, component) in bad {
            out.push(Violation {
                cycle,
                component,
                detail: format!(
                    "read of line {line:#x} for SM {sm} (issued cycle {issued_at}) vanished"
                ),
            });
        }

        // SM-side conservation: every outstanding L1 MSHR line must still
        // have a carrier (queued at the SM or in the ledger).
        for sm in &self.sms {
            for line in sm.mshr_lines() {
                if !sm.has_out_req(line) && !self.ledger.contains_key(&(sm.id(), line)) {
                    out.push(Violation {
                        cycle,
                        component: Component::Sm(sm.id()),
                        detail: format!(
                            "L1 MSHR waits on line {line:#x} but no request is in flight"
                        ),
                    });
                }
            }
        }

        // Occupancy bounds and scoreboard/SIMT consistency.
        for sm in &self.sms {
            sm.audit_into(cycle, &mut out);
        }
        for p in &self.parts {
            p.audit_into(cycle, &mut out);
        }

        // Compressed-line round-trip verification.
        if let Some(cmap) = &self.cmap {
            for addr in cmap.audit_round_trips(&self.mem, 0) {
                out.push(Violation {
                    cycle,
                    component: Component::CompressionMap,
                    detail: format!(
                        "cached compressed form of line {addr:#x} no longer round-trips"
                    ),
                });
            }
        }
        out
    }

    /// Accounts for every cycle before `now` that an SM or partition slept
    /// through ([`Sm::settle`], [`Partition::settle`]), so that each reads
    /// as if it had been cycled every cycle. Owed before anything reads
    /// them: audits, trace samples, the watchdog, and every return from
    /// the run loop, so the machine is settled whenever
    /// [`Gpu::snapshot`] or [`Gpu::run`]'s caller can see it.
    fn settle_all(&mut self) {
        let now = self.now;
        for sm in &mut self.sms {
            sm.settle(now);
        }
        for p in &mut self.parts {
            p.settle(now);
        }
    }

    /// Builds the forensic snapshot attached to timeout/hang errors.
    fn hang_report(&self, kernel: &Kernel, ctas_dispatched: u32, grid: u32) -> HangReport {
        HangReport {
            cycle: self.now,
            window: self.cfg.watchdog_window,
            ctas_dispatched: ctas_dispatched as usize,
            grid_ctas: grid as usize,
            sms: self
                .sms
                .iter()
                .map(|s| s.snapshot(self.now, kernel))
                .collect(),
            partitions: self.parts.iter().map(|p| p.snapshot()).collect(),
            xbar_fwd_in_flight: self.xbar_fwd.in_flight().count(),
            xbar_rsp_in_flight: self.xbar_rsp.in_flight().count(),
            oldest_request: self
                .ledger
                .iter()
                .map(|(&(sm, line), e)| (self.now.saturating_sub(e.issued_at), sm, line))
                .max_by_key(|&(age, sm, line)| (age, sm, line)),
            trace_path: None,
        }
    }

    /// Hang forensics by replay: re-executes the last watchdog window
    /// before this machine's hang on a fresh machine with full tracing,
    /// and writes the Chrome-trace JSON to the system temp directory. Call
    /// it after [`Gpu::run`] returned [`RunError::Hang`] at cycle `H` with
    /// window `W`. `load` gives the fresh machine the inputs this one had
    /// when its run started. A run is a pure function of the machine, the
    /// configuration and the kernel, so the fresh machine runs untraced to
    /// `H − W` in this one's footsteps, and is traced over `(H − W, H]`
    /// only, one sample every `max(1, W / 1024)` cycles. Returns the
    /// written path, or `None` when this run did not start at cycle 0 or
    /// any replay step fails — forensics must never turn a hang into a
    /// panic.
    pub fn replay_hang(&self, kernel: &Kernel, load: impl FnOnce(&mut Gpu)) -> Option<String> {
        if self.run_start != 0 {
            return None;
        }
        let (hang, window) = (self.now, self.cfg.watchdog_window);
        let mut cfg = self.cfg;
        cfg.observability = ObservabilityConfig::default();
        let mut replay = Gpu::try_new(cfg, self.design).ok()?;
        load(&mut replay);
        // The timeout leaves the machine intact at the window's start.
        let Err(RunError::Timeout { .. }) = replay.run(kernel, hang.checked_sub(window)?) else {
            return None;
        };
        replay.start_trace(TraceConfig::full((window / 1024).max(1)));
        // The budget lands the replay's timeout on the hang cycle; its own
        // watchdog, whose baseline restarts at resume, can fire no earlier,
        // and a re-hang at the same cycle is equally final.
        match replay.resume(kernel, hang) {
            Err(RunError::Timeout { .. } | RunError::Hang { .. }) => {}
            _ => return None,
        }
        let trace = replay.take_trace()?;
        let path = std::env::temp_dir().join(format!(
            "caba-hang-{}-{}-c{hang}.trace.json",
            kernel.name(),
            self.design.label().to_lowercase()
        ));
        std::fs::write(&path, trace.to_chrome_json()).ok()?;
        Some(path.display().to_string())
    }

    /// Runs `kernel` to completion (or `max_cycles`) on the calling thread.
    /// The run is a pure function of the machine state, the configuration
    /// and the kernel: [`RunStats`] are bit-identical from run to run.
    ///
    /// # Errors
    ///
    /// * [`RunError::Timeout`] — the cycle budget ran out.
    /// * [`RunError::Hang`] — the forward-progress watchdog
    ///   ([`GpuConfig::watchdog_window`]) saw no progress for a full window;
    ///   the attached [`HangReport`] names every stalled warp and queue.
    /// * [`RunError::AuditFailed`] — a structural invariant audit
    ///   ([`GpuConfig::audit_interval`]) found violations.
    pub fn run(&mut self, kernel: &Kernel, max_cycles: u64) -> Result<RunStats, RunError> {
        self.next_cta = 0;
        self.run_start = self.now;
        self.cycles_skipped = 0;
        self.skip_events = 0;
        self.run_loop(kernel, max_cycles)
    }

    /// Continues a run — typically after [`Gpu::restore`], or after
    /// [`Gpu::run`] returned [`RunError::Timeout`] (the machine is left
    /// intact at the cycle boundary). Unlike `run`, the CTA dispatch cursor
    /// and the epoch start are *not* reset, and `max_cycles` counts from the
    /// original epoch start: `run(k, C)` to a timeout followed by
    /// `resume(k, M)` is bit-identical to an unbroken `run(k, M)`.
    ///
    /// # Errors
    ///
    /// As [`Gpu::run`].
    pub fn resume(&mut self, kernel: &Kernel, max_cycles: u64) -> Result<RunStats, RunError> {
        self.run_loop(kernel, max_cycles)
    }

    /// The cycle engine. With [`GpuConfig::time_skip`] it cycles an SM or
    /// partition only once its next event has come and jumps the clock
    /// when nothing is due; without, it is the naive reference and cycles
    /// every component every cycle (DESIGN.md "Next-event clock").
    fn run_loop(&mut self, kernel: &Kernel, max_cycles: u64) -> Result<RunStats, RunError> {
        let extra_regs = match self.design {
            Design::Caba(mode) => mode.extra_regs_per_thread(),
            _ => 0,
        };
        let grid = kernel.dims().grid_dim;
        let mut next_cta: u32 = self.next_cta;
        let start = self.run_start;
        let mut last_sig = self.progress_signature();
        // Watchdog baselines restart at every run/resume entry (`self.now`,
        // not the epoch start): the watchdog never mutates machine state, so
        // this only delays detection, never changes a completing run.
        let mut last_progress = self.now;
        // The progress signature scans every SM and partition, so it is
        // sampled every `wd_stride` cycles instead of every cycle. Hang
        // detection latency grows by at most one stride; completing runs
        // are bit-identical (the watchdog never mutates machine state).
        let wd_window = self.cfg.watchdog_window;
        let wd_stride = (wd_window / 8).max(1);
        let tracing = self.tracer.is_some();
        let time_skip = self.cfg.time_skip;
        // CTA-dispatch gate (step 1): open until a full round places
        // nothing, then reopened by any block retirement.
        let mut dispatch_open = true;
        let mut blocks_retired_seen: u64 = self.sms.iter().map(|s| s.blocks_retired_total()).sum();
        // The SMs executed this cycle, in index order.
        let mut cycled: Vec<usize> = Vec::with_capacity(self.sms.len());

        loop {
            let now = self.now;
            if now - start >= max_cycles {
                self.next_cta = next_cta;
                self.settle_all();
                return Err(RunError::Timeout {
                    cycles: max_cycles,
                    report: Box::new(self.hang_report(kernel, next_cta, grid)),
                });
            }

            // 1. CTA dispatch (round-robin over SMs). A launch
            //    attempt can only flip from rejected to accepted when a
            //    block retires somewhere (regs/shared/warp slots free only
            //    at block retirement, and failed attempts are pure), so
            //    after a round that placed nothing the walk stays closed
            //    until the SMs' retire total moves — identical launches,
            //    none of the per-cycle rejection scans.
            let mut launched_any = false;
            if next_cta < grid {
                let retired: u64 = self.sms.iter().map(|s| s.blocks_retired_total()).sum();
                if dispatch_open || retired != blocks_retired_seen {
                    blocks_retired_seen = retired;
                    'dispatch: while next_cta < grid {
                        let mut launched = false;
                        for sm in &mut self.sms {
                            if next_cta >= grid {
                                break;
                            }
                            sm.settle(now);
                            if sm.try_launch_block(next_cta, kernel, extra_regs) {
                                next_cta += 1;
                                launched = true;
                                launched_any = true;
                            }
                        }
                        if !launched {
                            break 'dispatch;
                        }
                    }
                    dispatch_open = launched_any;
                }
            }

            // 2. SM phase. Every due SM advances one cycle against an
            //    overlay view — start-of-cycle memory and line store plus
            //    its own writes — and its writes become visible to the
            //    *other* SMs only at the end-of-cycle commit, in SM index
            //    order: a clocked machine. (Direct views would leak
            //    same-cycle writes to higher-numbered SMs in sweep order —
            //    a simulation artifact no real crossbar exhibits.) An SM
            //    that is not due sleeps; it is settled when next touched.
            cycled.clear();
            for (i, sm) in self.sms.iter_mut().enumerate() {
                if time_skip && !sm.due(now) {
                    continue;
                }
                cycled.push(i);
                let mut shared = SharedState {
                    mem: SharedMem::Overlay {
                        base: &self.mem,
                        delta: &mut self.mem_delta,
                    },
                    cmap: self.cmap.as_mut(),
                    line_store: SharedLineStore::Overlay {
                        base: &self.line_store,
                        delta: &mut self.ls_delta,
                    },
                };
                sm.cycle(now, kernel, &mut shared);
                self.mem_delta.end_turn();
                self.ls_delta.end_turn();
            }
            self.commit_deltas();

            // 3. At most one request per SM enters the forward crossbar,
            //    in SM index order — the order crossbar admission, the
            //    fault-injection RNG stream and the request ledger see.
            //    Reads enter the request ledger here. Only an SM cycled
            //    this cycle can hold a request.
            self.merge_requests(now, &cycled);

            // 4. Crossbar → partitions. The output-port scan only runs when
            //    the crossbar actually holds delivered flits. A push makes
            //    its partition due.
            self.xbar_fwd.cycle();
            if self.xbar_fwd.delivered_pending() > 0 {
                for (p, part) in self.parts.iter_mut().enumerate() {
                    if part.can_accept() {
                        if let Some(req) = self.xbar_fwd.pop(p) {
                            if !req.is_write {
                                if let Some(e) = self.ledger.get_mut(&(req.sm, req.addr)) {
                                    e.stage = Stage::Partition;
                                }
                            }
                            part.push(req);
                        }
                    }
                }
            }

            // 5. Partition phase. Partitions only read memory and stored
            //    forms. A partition is cycled only once the wake time it
            //    cached after its last cycle has come; the cycles between
            //    only tick DRAM (and re-probe a stalled incoming head),
            //    which `Partition::settle` repays in bulk — timing-
            //    equivalent because FR-FCFS compares against the absolute
            //    `now`, not per-cycle deltas.
            let mut oracle = SizeOracle {
                mem: &self.mem,
                cmap: self.cmap.as_mut(),
                line_store: &self.line_store,
                mem_compressed: self.design.mem_compressed(),
                icnt_compressed: self.design.icnt_compressed(),
            };
            for part in &mut self.parts {
                if !time_skip || part.due(now) {
                    part.cycle(now, &mut oracle);
                }
            }

            // 6. At most one response per partition enters the response
            //    crossbar, in partition index order.
            self.merge_responses();

            // 7. Response crossbar → SM fills — direct views, each SM's own
            //    controller (fills may launch assist warps whose slots/tags
            //    live in it).
            self.xbar_rsp.cycle();
            if self.xbar_rsp.delivered_pending() > 0 {
                for i in 0..self.sms.len() {
                    while let Some(resp) = self.xbar_rsp.pop(i) {
                        self.ledger.remove(&(i, resp.addr));
                        let mut shared = SharedState {
                            mem: SharedMem::Direct(&mut self.mem),
                            cmap: self.cmap.as_mut(),
                            line_store: SharedLineStore::Direct(&mut self.line_store),
                        };
                        self.sms[i].handle_fill(now, resp.addr, &mut shared);
                    }
                }
            }

            self.now += 1;
            if tracing {
                self.trace_tick();
            }

            // Forward-progress watchdog (sampled every `wd_stride` cycles).
            if wd_window > 0 && (self.now - start).is_multiple_of(wd_stride) {
                self.settle_all();
                let sig = self.progress_signature();
                if sig != last_sig {
                    last_sig = sig;
                    last_progress = self.now;
                } else if self.now - last_progress >= wd_window {
                    self.next_cta = next_cta;
                    return Err(RunError::Hang {
                        cycles: self.now - start,
                        window: wd_window,
                        report: Box::new(self.hang_report(kernel, next_cta, grid)),
                    });
                }
            }

            // Structural invariant audits.
            if self.cfg.audit_interval > 0
                && (self.now - start).is_multiple_of(self.cfg.audit_interval)
            {
                self.audits_run += 1;
                self.settle_all();
                let violations = self.audit(self.now);
                if !violations.is_empty() {
                    self.next_cta = next_cta;
                    return Err(RunError::AuditFailed {
                        cycle: self.now,
                        violations,
                    });
                }
            }

            // 8. Completion check. Cheapest gates first: the dispatch
            //    cursor, then the in-flight read ledger (empty is implied
            //    by a fully drained machine, so this gate never delays
            //    completion), then the O(1) idle/quiesced flags.
            if next_cta >= grid
                && self.ledger.is_empty()
                && self.xbar_fwd.idle()
                && self.xbar_rsp.idle()
                && self.sms.iter().all(|s| s.quiesced())
                && self.parts.iter().all(|p| p.quiesced())
            {
                break;
            }

            // 9. Global jump. With both crossbars drained and CTA dispatch
            //    done or blocked on residency, nothing can happen before
            //    the earliest component wake time: jump the clock there.
            //    Sleeping components are settled when next touched (see
            //    DESIGN.md "Next-event clock"). The jump is capped so every
            //    audit / watchdog / trace-sample bottom and the timeout
            //    boundary still execute at their exact cycles —
            //    the jump is observable only as wall-clock. If no component
            //    has a wake time at all the machine is wedged; fall through
            //    to per-cycle ticking so the watchdog can prove it.
            if time_skip
                && (next_cta >= grid || !launched_any)
                && self.xbar_fwd.idle()
                && self.xbar_rsp.idle()
            {
                let sms = self.sms.iter().filter_map(Sm::next_event);
                let parts = self.parts.iter().filter_map(Partition::wake);
                if let Some(mut t) = sms.chain(parts).min() {
                    t = t.min(start.saturating_add(max_cycles));
                    if self.cfg.audit_interval > 0 {
                        // Audits fire at the bottom, after the increment:
                        // the bottom for boundary `b` belongs to executed
                        // cycle `b - 1`, so land no further than that.
                        let ai = self.cfg.audit_interval;
                        let b = self.now + (ai - (self.now - start) % ai);
                        t = t.min(b - 1);
                    }
                    if wd_window > 0 {
                        let s = self.now + (wd_stride - (self.now - start) % wd_stride);
                        t = t.min(s - 1);
                    }
                    if let Some(tr) = &self.tracer {
                        t = t.min((tr.last_cycle + tr.interval).saturating_sub(1));
                    }
                    if t > self.now {
                        let span = t - self.now;
                        self.xbar_fwd.skip(span);
                        self.xbar_rsp.skip(span);
                        self.now = t;
                        self.cycles_skipped += span;
                        self.skip_events += 1;
                    }
                }
            }
        }

        self.next_cta = next_cta;
        self.settle_all();
        Ok(self.collect_stats(self.now - start))
    }

    /// The end-of-cycle commit: lands the SM phase's memory writes (masked
    /// per byte, in SM index order, so two SMs touching different bytes of
    /// one line both land) and line-store changes, and invalidates every
    /// written line in the compression map — which only forces a pure
    /// memoization to recompute, so it is invisible to timing.
    fn commit_deltas(&mut self) {
        if let Some(cmap) = self.cmap.as_mut() {
            self.mem_delta
                .dirty_lines()
                .for_each(|l| cmap.invalidate(l));
        }
        self.mem_delta.commit(&mut self.mem);
        self.ls_delta.commit(&mut self.line_store);
    }

    /// Moves at most one request per SM into the forward crossbar, in SM
    /// index order. A request the crossbar cannot admit returns to the front
    /// of its SM's outbound queue. Only the SMs in `cycled` (ascending) are
    /// visited: an SM that slept through this cycle was left with an empty
    /// outbound queue, since popping a request or pushing one back wakes it.
    fn merge_requests(&mut self, now: u64, cycled: &[usize]) {
        debug_assert!(
            (0..self.sms.len())
                .filter(|i| !cycled.contains(i))
                .all(|i| self.sms[i].peek_request().is_none()),
            "a sleeping SM holds an outbound request"
        );
        for &i in cycled {
            let Some(req) = self.sms[i].pop_request() else {
                continue;
            };
            let dst = ((req.addr / LINE_SIZE as u64) % self.cfg.num_channels as u64) as usize;
            if !self.xbar_fwd.can_accept(dst) {
                self.sms[i].push_request_front(req);
                continue;
            }
            if self.xbar_injector.drop_packet() {
                self.flits_dropped += 1;
                let retransmitted = self.xbar_injector.mode() == FaultMode::Recover;
                if let Some(tr) = self.tracer.as_mut() {
                    tr.trace.events.push(TraceEvent {
                        cycle: now,
                        kind: TraceEventKind::XbarDrop { retransmitted },
                    });
                }
                match self.xbar_injector.mode() {
                    FaultMode::Recover => {
                        // Link-level retransmission: the packet returns to
                        // the SM and re-enters arbitration.
                        self.flit_retransmissions += 1;
                        self.sms[i].push_request_front(req);
                    }
                    FaultMode::Silent => {
                        if !req.is_write {
                            // The SM believes the read is in flight; the
                            // conservation audit must notice it is not.
                            self.ledger.insert(
                                (i, req.addr),
                                LedgerEntry {
                                    issued_at: now,
                                    stage: Stage::RequestXbar,
                                },
                            );
                        }
                    }
                }
                continue;
            }
            if let Err(e) = self.xbar_fwd.try_push(
                i,
                dst,
                PartReq {
                    sm: i,
                    addr: req.addr,
                    is_write: req.is_write,
                },
                req.flits,
            ) {
                debug_assert!(e.is_back_pressure(), "unexpected push error: {e}");
                self.sms[i].push_request_front(req);
                continue;
            }
            if !req.is_write {
                self.ledger.insert(
                    (i, req.addr),
                    LedgerEntry {
                        issued_at: now,
                        stage: Stage::RequestXbar,
                    },
                );
            }
        }
    }

    /// Moves at most one response per partition into the response crossbar,
    /// in partition index order; a response the crossbar cannot admit is
    /// held back in its partition (back-pressure).
    fn merge_responses(&mut self) {
        for p in 0..self.parts.len() {
            let Some(resp) = self.parts[p].pop_response() else {
                continue;
            };
            if !self.xbar_rsp.can_accept(resp.sm) {
                self.parts[p].push_response_front(resp);
                continue;
            }
            if self.xbar_injector.drop_packet() {
                self.flits_dropped += 1;
                let retransmitted = self.xbar_injector.mode() == FaultMode::Recover;
                if let Some(tr) = self.tracer.as_mut() {
                    tr.trace.events.push(TraceEvent {
                        cycle: self.now,
                        kind: TraceEventKind::XbarDrop { retransmitted },
                    });
                }
                match self.xbar_injector.mode() {
                    FaultMode::Recover => {
                        self.flit_retransmissions += 1;
                        self.parts[p].push_response_front(resp);
                    }
                    FaultMode::Silent => {
                        // The response vanishes at the crossbar port.
                        if let Some(e) = self.ledger.get_mut(&(resp.sm, resp.addr)) {
                            e.stage = Stage::ResponseXbar;
                        }
                    }
                }
                continue;
            }
            if let Some(e) = self.ledger.get_mut(&(resp.sm, resp.addr)) {
                e.stage = Stage::ResponseXbar;
            }
            let (src, dst, flits) = (p, resp.sm, resp.flits);
            if let Err(e) = self.xbar_rsp.try_push(src, dst, resp, flits) {
                debug_assert!(e.is_back_pressure(), "unexpected push error: {e}");
                self.parts[p].push_response_front(e.payload);
            }
        }
    }

    fn collect_stats(&self, cycles: u64) -> RunStats {
        let mut stats = RunStats {
            cycles,
            ..Default::default()
        };
        for sm in &self.sms {
            sm.export_stats(&mut stats);
        }
        for part in &self.parts {
            let d = part.dram_stats();
            stats.dram_busy_cycles += d.bus_busy_cycles;
            stats.dram_total_cycles += d.total_cycles;
            stats.dram_bursts += d.bursts;
            stats.dram_activates += d.row_misses;
            stats.l2_hits += part.l2_hits();
            stats.l2_misses += part.l2_misses();
            stats.md_lookups += part.md_lookups();
            stats.md_misses += part.md_misses();
            stats.md_stall_cycles += part.md_stall_cycles();
            stats.dram_delay_faults += part.delay_faults();
        }
        stats.icnt_flits = self.xbar_fwd.total_flits() + self.xbar_rsp.total_flits();
        stats.audits_run = self.audits_run;
        stats.flits_dropped = self.flits_dropped;
        stats.flit_retransmissions = self.flit_retransmissions;
        stats
    }

    /// The cycle counter. Advances across [`Gpu::run`]/[`Gpu::resume`]
    /// calls; a restored snapshot continues from the snapshot's cycle.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Next-event clock totals as `(cycles_skipped, skip_events)`: how many
    /// cycles the run loop jumped over instead of ticking, in how many
    /// distinct jumps. Serialized with the machine, so a restored run
    /// reports the same totals an unbroken one would. Deliberately *not*
    /// part of [`RunStats`]: skipping is bit-invisible to every
    /// architectural statistic, and the golden tests compare `RunStats`
    /// across runs with the knob on and off.
    pub fn skip_stats(&self) -> (u64, u64) {
        (self.cycles_skipped, self.skip_events)
    }

    /// Per SM, `(full candidate-list rebuilds, assist-only list updates)`
    /// since construction: block launch and retire pay for the first, assist
    /// deploy and retire only for the second. Host-efficiency counters like
    /// [`Gpu::skip_stats`], outside [`RunStats`] and the snapshot.
    #[doc(hidden)]
    pub fn list_rebuilds(&self) -> Vec<(u64, u64)> {
        self.sms.iter().map(|sm| sm.list_rebuilds()).collect()
    }

    /// Serializes the complete machine state — functional memory, every SM
    /// (warps, scoreboards, L1, MSHRs, store buffer, assist runtime), every
    /// partition (L2, MSHRs, MD cache, DRAM channel and retry/delay
    /// queues), both crossbars, the compressed-line store, per-SM CABA
    /// controller state, every fault-injection RNG stream, and the
    /// in-flight request ledger — into a versioned, checksummed container
    /// that [`Gpu::restore`] accepts.
    ///
    /// Must be called at a cycle boundary: between `run`/`resume` calls, or
    /// after [`RunError::Timeout`] (which leaves the machine intact at the
    /// boundary).
    pub fn snapshot(&self, kernel: &Kernel) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.raw(snapshot::MAGIC);
        w.u32(snapshot::FORMAT_VERSION);
        w.u64(snapshot::config_hash(&self.cfg));
        w.str(self.design.label());
        w.u64(kernel.program().content_hash());
        self.payload_save(&mut w);
        snapshot::seal(w)
    }

    /// Restores machine state from a [`Gpu::snapshot`] container into this
    /// GPU, which must have been built with an equivalent configuration
    /// (everything but the knobs [`snapshot::config_hash`] canonicalizes
    /// away), the same design point, and be given the same kernel.
    ///
    /// The container checksum is verified *before* any state is decoded —
    /// corrupt bytes are rejected with [`RestoreError::ChecksumMismatch`]
    /// and never loaded. A mid-payload decode error
    /// ([`RestoreError::Malformed`]) can only come from a version-skew bug,
    /// but it still leaves this GPU partially overwritten: discard it.
    ///
    /// # Errors
    ///
    /// Every [`RestoreError`] variant names the specific rejection.
    pub fn restore(&mut self, kernel: &Kernel, bytes: &[u8]) -> Result<(), RestoreError> {
        let body = snapshot::verify_sealed(bytes)?;
        let mut r = SnapshotReader::new(body);
        if r.raw(snapshot::MAGIC.len())? != snapshot::MAGIC {
            return Err(RestoreError::BadMagic);
        }
        let version = r.u32()?;
        if version != snapshot::FORMAT_VERSION {
            return Err(RestoreError::VersionMismatch { found: version });
        }
        if r.u64()? != snapshot::config_hash(&self.cfg) {
            return Err(RestoreError::ConfigHashMismatch);
        }
        let label = r.string()?;
        if label != self.design.label() {
            return Err(RestoreError::DesignMismatch { found: label });
        }
        if r.u64()? != kernel.program().content_hash() {
            return Err(RestoreError::KernelMismatch);
        }
        self.payload_load(&mut r)?;
        r.finish()?;
        Ok(())
    }

    /// Serializes everything [`Gpu::restore`] needs to continue the run.
    /// Deliberately absent: the compression map (a pure memoization,
    /// rebuilt empty), the tracer and event buffers (record-only), and the
    /// memory and line-store deltas (empty at every cycle boundary). Each
    /// SM carries its own controller.
    fn payload_save(&self, w: &mut SnapshotWriter) {
        w.u64(self.now);
        w.u64(self.run_start);
        w.u32(self.next_cta);
        self.mem.save(w);
        self.line_store.save(w);
        w.usize(self.sms.len());
        for sm in &self.sms {
            sm.snap_save(w);
        }
        w.usize(self.parts.len());
        for p in &self.parts {
            p.snap_save(w);
        }
        self.xbar_fwd.snap_save(w);
        self.xbar_rsp.snap_save(w);
        let mut ledger: Vec<(usize, u64, u64, u8)> = self
            .ledger
            .iter()
            .map(|(&(sm, line), e)| {
                let stage = match e.stage {
                    Stage::RequestXbar => 0u8,
                    Stage::Partition => 1,
                    Stage::ResponseXbar => 2,
                };
                (sm, line, e.issued_at, stage)
            })
            .collect();
        ledger.sort_unstable_by_key(|&(sm, line, _, _)| (sm, line));
        w.usize(ledger.len());
        for (sm, line, issued_at, stage) in ledger {
            w.usize(sm);
            w.u64(line);
            w.u64(issued_at);
            w.u8(stage);
        }
        self.xbar_injector.snap_save(w);
        w.u64(self.audits_run);
        w.u64(self.flits_dropped);
        w.u64(self.flit_retransmissions);
        w.u64(self.cycles_skipped);
        w.u64(self.skip_events);
    }

    fn payload_load(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapError> {
        let programs = self.program_table();
        self.now = r.u64()?;
        self.run_start = r.u64()?;
        if self.run_start > self.now {
            return Err(SnapError::Invariant {
                what: "run epoch starts after the snapshot cycle",
            });
        }
        self.next_cta = r.u32()?;
        self.mem = FuncMem::load(r)?;
        self.line_store = LineStore::load(r)?;
        if r.seq_len("SMs", 1)? != self.sms.len() {
            return Err(SnapError::Invariant {
                what: "SM count mismatch",
            });
        }
        for sm in &mut self.sms {
            sm.snap_load(r, &programs, self.now)?;
        }
        if r.seq_len("partitions", 1)? != self.parts.len() {
            return Err(SnapError::Invariant {
                what: "partition count mismatch",
            });
        }
        for p in &mut self.parts {
            p.snap_load(r)?;
        }
        self.xbar_fwd.snap_load(r)?;
        self.xbar_rsp.snap_load(r)?;
        self.ledger.clear();
        let n = r.seq_len("request ledger", 25)?;
        for _ in 0..n {
            let sm = r.usize()?;
            let line = r.u64()?;
            let issued_at = r.u64()?;
            let stage = match r.u8()? {
                0 => Stage::RequestXbar,
                1 => Stage::Partition,
                2 => Stage::ResponseXbar,
                tag => {
                    return Err(SnapError::BadTag {
                        what: "ledger stage",
                        tag: tag.into(),
                    })
                }
            };
            self.ledger
                .insert((sm, line), LedgerEntry { issued_at, stage });
        }
        self.xbar_injector.snap_load(r)?;
        self.audits_run = r.u64()?;
        self.flits_dropped = r.u64()?;
        self.flit_retransmissions = r.u64()?;
        self.cycles_skipped = r.u64()?;
        self.skip_events = r.u64()?;

        // Non-serialized runtime state: rebuild, drain, or re-baseline.
        self.cmap = Self::build_cmap(self.design);
        self.tracer = None;
        if let Some(trace) = self.cfg.observability.trace {
            self.start_trace(trace);
        }
        Ok(())
    }

    /// Starts a new activity trace at the current cycle, in place of any
    /// trace in progress. The per-SM and DRAM delta baselines are primed
    /// here, so the first sample covers only what runs after this call, not
    /// the whole history. Tracing is record-only: the run goes on exactly
    /// as it would untraced. Call it at a cycle boundary, as
    /// [`Gpu::snapshot`].
    pub fn start_trace(&mut self, trace: TraceConfig) {
        self.cfg.observability.trace = Some(trace);
        for sm in &mut self.sms {
            sm.record_events();
        }
        for p in &mut self.parts {
            p.record_events();
        }
        let mut tr = Tracer::new(trace, self.sms.len());
        for (i, sm) in self.sms.iter().enumerate() {
            tr.last_app[i] = sm.app_instructions();
            tr.last_assist[i] = sm.assist_instructions();
            tr.last_stalls[i] = *sm.breakdown();
        }
        for p in &self.parts {
            let d = p.dram_stats();
            tr.last_dram_busy += d.bus_busy_cycles;
            tr.last_dram_total += d.total_cycles;
        }
        tr.last_cycle = self.now;
        self.tracer = Some(tr);
    }

    /// Assist-subroutine programs reachable on this design, keyed by
    /// content hash — the table [`crate::sm::Sm`] resolves serialized
    /// program references against on load.
    fn program_table(&self) -> FxHashMap<u64, Arc<Program>> {
        let mut table = FxHashMap::default();
        if self.design.is_caba() {
            for p in CabaController::subroutine_programs() {
                table.insert(p.content_hash(), p);
            }
        }
        table
    }
}
