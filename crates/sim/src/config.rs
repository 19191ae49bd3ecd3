//! Simulated-system configuration (Table 1) and the evaluated design points.

use crate::assist::AssistController;
use crate::fault::FaultConfig;
use crate::observe::{ObservabilityConfig, TraceConfig};
use caba_compress::Algorithm;
use caba_mem::{CacheGeometry, DramConfig, LINE_SIZE};
use caba_stats::MetricsLevel;
use std::fmt;

/// Full GPU configuration. [`GpuConfig::isca2015`] reproduces Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Streaming multiprocessors (15).
    pub num_sms: usize,
    /// Warp slots per SM (48 → 1536 threads).
    pub warps_per_sm: usize,
    /// Maximum resident thread blocks per SM (8).
    pub max_blocks_per_sm: usize,
    /// Registers per SM (32768 = 128 KB).
    pub regfile_per_sm: u32,
    /// Shared memory per SM in bytes (32 KB).
    pub shared_per_sm: u32,
    /// Warp schedulers per SM (2). Each is greedy-then-oldest (GTO, Rogers
    /// et al. \[68\]): it keeps issuing from its last warp until that
    /// stalls, then falls back to the oldest ready warp.
    pub schedulers_per_sm: usize,
    /// SP (ALU) pipeline latency in cycles.
    pub sp_latency: u64,
    /// SFU latency in cycles (tens of cycles; source of `dmr`'s data-dep
    /// stalls, §2).
    pub sfu_latency: u64,
    /// SFU initiation interval (a new SFU op accepted every N cycles).
    pub sfu_interval: u64,
    /// L1 data cache geometry (16 KB, 4-way).
    pub l1: CacheGeometry,
    /// L1 hit latency.
    pub l1_latency: u64,
    /// Shared-memory (scratchpad) access latency.
    pub shared_latency: u64,
    /// L2 slice geometry per partition (768 KB / 6, 16-way).
    pub l2: CacheGeometry,
    /// L2 hit latency (partition side).
    pub l2_latency: u64,
    /// MSHR entries per L1 / per L2 slice.
    pub mshrs: usize,
    /// LSU line-operation queue depth.
    pub lsu_queue: usize,
    /// Pending-store buffer capacity in lines (§4.2.2 Î).
    pub store_buffer: usize,
    /// Crossbar traversal latency (each direction).
    pub icnt_latency: u64,
    /// Memory partitions / GDDR5 channels (6).
    pub num_channels: usize,
    /// GDDR5 channel configuration (Table 1 timings).
    pub dram: DramConfig,
    /// Maximum concurrently active assist warps per SM.
    pub max_assist_warps: usize,
    /// Low-priority Assist Warp Buffer partition entries (2, §3.3).
    pub awb_low_priority_entries: usize,
    /// Store lines compressed in the L1 (the `CABA-L1-{2x,4x}` variants of
    /// Figure 13; combine with a tag-multiplied L1 geometry).
    pub l1_compressed: bool,
    /// Extra latency charged on every L1 hit to a compressed line when
    /// `l1_compressed` is set (the frequent-decompression overhead that
    /// degrades hs and LPS in Figure 13).
    pub l1_hit_decompress_penalty: u64,
    /// Enable the §4.3.2 metadata cache at the memory controllers
    /// (compressed designs). Disabling it models the naive design whose
    /// every DRAM access pays a second metadata access.
    pub md_cache_enabled: bool,
    /// Forward-progress watchdog window in cycles: if no progress counter
    /// moves for this many consecutive cycles, `Gpu::run` aborts with
    /// [`crate::RunError::Hang`] carrying a
    /// [`crate::integrity::HangReport`]. 0 disables the watchdog.
    pub watchdog_window: u64,
    /// Run the structural invariant audits every N cycles (request
    /// conservation, occupancy bounds, scoreboard/SIMT consistency,
    /// compressed-line round trips). 0 disables auditing.
    pub audit_interval: u64,
    /// Deterministic fault injection (disabled by default).
    pub fault: FaultConfig,
    /// Observability: activity tracing and the metric registry. Record-only
    /// — no setting here may change timing — and fully off by default, so
    /// the cycle loop pays nothing unless asked.
    pub observability: ObservabilityConfig,
    /// Inert: nothing reads it. It once set the worker-thread count of a
    /// threaded cycle engine that never measured faster than this serial
    /// one and is gone (EXPERIMENTS.md "Intra-run sharding: the verdict").
    /// The field stays, canonicalized to 1 in
    /// [`crate::snapshot::config_hash`], because that hash covers the
    /// `Debug` text of this whole struct — dropping the field would re-key
    /// every stored result, journal and snapshot — and because the repo's
    /// benchmark still assigns it.
    pub intra_jobs: usize,
    /// The next-event engine: `Gpu::run` cycles an SM or partition only
    /// once its next event has come, credits the cycles it slept through
    /// in bulk (Fig. 1 stall buckets included), and jumps the clock when
    /// nothing is due. Off runs the naive reference engine, every SM and
    /// partition every cycle. Results are bit-identical either way, and so
    /// are snapshots but for the skip counters (DESIGN.md "Next-event
    /// clock"); the knob exists for A/B verification.
    pub time_skip: bool,
}

impl GpuConfig {
    /// The paper's simulated system (Table 1).
    pub fn isca2015() -> Self {
        GpuConfig {
            num_sms: 15,
            warps_per_sm: 48,
            max_blocks_per_sm: 8,
            regfile_per_sm: 32768,
            shared_per_sm: 32 * 1024,
            schedulers_per_sm: 2,
            sp_latency: 4,
            sfu_latency: 20,
            sfu_interval: 8,
            l1: CacheGeometry::l1_isca2015(),
            l1_latency: 4,
            shared_latency: 24,
            l2: CacheGeometry::l2_slice_isca2015(),
            l2_latency: 30,
            mshrs: 32,
            lsu_queue: 64,
            store_buffer: 16,
            icnt_latency: 4,
            num_channels: 6,
            dram: DramConfig::isca2015(),
            max_assist_warps: 48,
            awb_low_priority_entries: 2,
            l1_compressed: false,
            l1_hit_decompress_penalty: 10,
            md_cache_enabled: true,
            watchdog_window: 100_000,
            audit_interval: 0,
            fault: FaultConfig::disabled(),
            observability: ObservabilityConfig::default(),
            intra_jobs: 1,
            time_skip: true,
        }
    }

    /// A scaled-down configuration for fast unit tests: 5 SMs and 2
    /// channels (preserving the paper's 2.5 SM:MC ratio) with small L2
    /// slices so that modest working sets are DRAM-resident, putting small
    /// runs in the same memory-bound regime as the full machine.
    pub fn small() -> Self {
        let mut c = Self::isca2015();
        c.num_sms = 5;
        c.num_channels = 2;
        c.l2 = caba_mem::CacheGeometry::new(32 * 1024, 16, 128);
        c
    }

    /// The Table 1 machine with the L2 scaled down 8× (16 KB per slice).
    ///
    /// The synthetic workloads run footprints roughly 8× smaller than the
    /// paper's real inputs to keep simulations fast; scaling the L2 by the
    /// same factor preserves the L2-miss (DRAM-bound) regime that makes the
    /// paper's applications memory-bound. The figure-regeneration harness
    /// uses this configuration; see DESIGN.md.
    pub fn isca2015_scaled() -> Self {
        let mut c = Self::isca2015();
        c.l2 = caba_mem::CacheGeometry::new(16 * 1024, 16, 128);
        c
    }

    /// Scales peak DRAM bandwidth (the ½×/1×/2× sweeps of Figures 1 and 12).
    pub fn with_bandwidth_scale(mut self, factor: f64) -> Self {
        self.dram = self.dram.with_bandwidth_scale(factor);
        self
    }

    /// Enables activity tracing. Retrieve the recorded
    /// [`crate::ActivityTrace`] with [`crate::Gpu::take_trace`] after `run`.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.observability.trace = Some(trace);
        self
    }

    /// Sets the metric-registry level; [`crate::Gpu::metrics_snapshot`]
    /// returns `Some` when it is not [`MetricsLevel::Off`].
    pub fn with_metrics(mut self, level: MetricsLevel) -> Self {
        self.observability.metrics = level;
        self
    }

    /// Total threads resident per SM.
    pub fn threads_per_sm(&self) -> u32 {
        (self.warps_per_sm * caba_isa::WARP_SIZE) as u32
    }

    /// Checks the configuration for mistakes that would otherwise surface
    /// as panics or wedged machines deep inside a run. Called by
    /// [`crate::Gpu::new`], so a bad sensitivity-sweep configuration fails
    /// fast with a message naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn nonzero(field: &'static str, value: usize) -> Result<(), ConfigError> {
            if value == 0 {
                Err(ConfigError::Zero { field })
            } else {
                Ok(())
            }
        }
        nonzero("num_sms", self.num_sms)?;
        if self.observability.trace.is_some_and(|t| t.interval == 0) {
            return Err(ConfigError::Zero {
                field: "observability.trace.interval",
            });
        }
        nonzero("num_channels", self.num_channels)?;
        nonzero("warps_per_sm", self.warps_per_sm)?;
        nonzero("max_blocks_per_sm", self.max_blocks_per_sm)?;
        nonzero("schedulers_per_sm", self.schedulers_per_sm)?;
        nonzero("mshrs", self.mshrs)?;
        nonzero("lsu_queue", self.lsu_queue)?;
        nonzero("dram.banks", self.dram.banks)?;
        nonzero("dram.queue_capacity", self.dram.queue_capacity)?;
        for (field, geo) in [("l1", self.l1), ("l2", self.l2)] {
            if geo.line_size != LINE_SIZE {
                return Err(ConfigError::BadLineSize {
                    field,
                    line_size: geo.line_size,
                    expected: LINE_SIZE,
                });
            }
            if geo.ways == 0
                || geo.capacity % (geo.ways * geo.line_size) != 0
                || !geo.sets().is_power_of_two()
            {
                return Err(ConfigError::BadGeometry {
                    field,
                    capacity: geo.capacity,
                    ways: geo.ways,
                    line_size: geo.line_size,
                });
            }
        }
        if self.awb_low_priority_entries > self.max_assist_warps {
            return Err(ConfigError::AwbExceedsAssistWarps {
                awb: self.awb_low_priority_entries,
                max: self.max_assist_warps,
            });
        }
        for (field, value) in [
            ("sp_latency", self.sp_latency),
            ("l1_latency", self.l1_latency),
            ("sfu_interval", self.sfu_interval),
            ("dram.burst_cycles", self.dram.burst_cycles),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroLatency { field });
            }
        }
        for (field, rate) in [
            ("fault.drop_flit_rate", self.fault.drop_flit_rate),
            ("fault.dram_delay_rate", self.fault.dram_delay_rate),
            ("fault.corrupt_line_rate", self.fault.corrupt_line_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(ConfigError::BadRate { field, rate });
            }
        }
        if self.fault.enabled
            && self.fault.dram_delay_rate > 0.0
            && self.watchdog_window > 0
            && self.fault.dram_delay_cycles >= self.watchdog_window
        {
            return Err(ConfigError::DelayExceedsWatchdog {
                delay: self.fault.dram_delay_cycles,
                window: self.watchdog_window,
            });
        }
        Ok(())
    }
}

/// A rejected [`GpuConfig`], naming the offending field.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A structural count that must be at least 1 was zero.
    Zero {
        /// The offending field.
        field: &'static str,
    },
    /// A cache geometry uses a line size other than the simulator's.
    BadLineSize {
        /// The offending cache.
        field: &'static str,
        /// Configured line size.
        line_size: usize,
        /// Required line size.
        expected: usize,
    },
    /// A cache geometry is not line-size aligned / power-of-two sets.
    BadGeometry {
        /// The offending cache.
        field: &'static str,
        /// Configured capacity.
        capacity: usize,
        /// Configured associativity.
        ways: usize,
        /// Configured line size.
        line_size: usize,
    },
    /// The low-priority AWB partition cannot exceed the assist-warp table.
    AwbExceedsAssistWarps {
        /// Configured AWB low-priority entries.
        awb: usize,
        /// Configured max assist warps.
        max: usize,
    },
    /// A pipeline latency that must be at least one cycle was zero.
    ZeroLatency {
        /// The offending field.
        field: &'static str,
    },
    /// A fault-injection rate outside `[0, 1]`.
    BadRate {
        /// The offending field.
        field: &'static str,
        /// Configured rate.
        rate: f64,
    },
    /// Injected DRAM delays at least as long as the watchdog window would
    /// make every delay look like a hang.
    DelayExceedsWatchdog {
        /// Configured delay.
        delay: u64,
        /// Configured watchdog window.
        window: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Zero { field } => write!(f, "config field `{field}` must be non-zero"),
            ConfigError::BadLineSize {
                field,
                line_size,
                expected,
            } => write!(
                f,
                "config cache `{field}` has line size {line_size}, simulator requires {expected}"
            ),
            ConfigError::BadGeometry {
                field,
                capacity,
                ways,
                line_size,
            } => write!(
                f,
                "config cache `{field}` geometry {capacity}B/{ways}-way/{line_size}B lines is not \
                 line-aligned with power-of-two sets"
            ),
            ConfigError::AwbExceedsAssistWarps { awb, max } => write!(
                f,
                "awb_low_priority_entries ({awb}) exceeds max_assist_warps ({max})"
            ),
            ConfigError::ZeroLatency { field } => {
                write!(f, "config latency `{field}` must be at least 1 cycle")
            }
            ConfigError::BadRate { field, rate } => {
                write!(f, "fault rate `{field}` = {rate} is outside [0, 1]")
            }
            ConfigError::DelayExceedsWatchdog { delay, window } => write!(
                f,
                "fault.dram_delay_cycles ({delay}) must be below watchdog_window ({window})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Where (and whether) data compression happens — the five design points of
/// §6 plus the CABA variants.
pub enum Design {
    /// No compression anywhere.
    Base,
    /// `HW-BDI-Mem` style: dedicated logic at the memory controller; DRAM
    /// transfers are compressed, the interconnect and L2 are not.
    HwMemOnly {
        /// Compression algorithm implemented in the MC logic.
        alg: Algorithm,
    },
    /// `HW-BDI` / `Ideal-BDI` style: dedicated logic at the cores; L2, the
    /// interconnect and DRAM all carry compressed lines.
    HwFull {
        /// Compression algorithm implemented in core-side logic.
        alg: Algorithm,
        /// When true, compression/decompression latencies are zero
        /// (`Ideal-BDI`).
        ideal: bool,
    },
    /// CABA: compression and decompression run as assist warps; the policy
    /// object (from `caba-core`) decides subroutines, priorities, and
    /// throttling.
    Caba(Box<dyn AssistController + Send>),
}

impl Design {
    /// The compression algorithm in use, if any.
    pub fn algorithm(&self) -> Option<Algorithm> {
        match self {
            Design::Base => None,
            Design::HwMemOnly { alg } => Some(*alg),
            Design::HwFull { alg, .. } => Some(*alg),
            Design::Caba(c) => c.algorithm(),
        }
    }

    /// True when lines travel compressed across the interconnect (affects
    /// flit counts; `HW-BDI-Mem` decompresses at the MC so its interconnect
    /// traffic is uncompressed).
    pub fn icnt_compressed(&self) -> bool {
        matches!(self, Design::HwFull { .. } | Design::Caba(_))
    }

    /// True when DRAM transfers are compressed.
    pub fn mem_compressed(&self) -> bool {
        !matches!(self, Design::Base)
    }

    /// True when this is a CABA design.
    pub fn is_caba(&self) -> bool {
        matches!(self, Design::Caba(_))
    }

    /// A per-SM copy of this design point. Non-CABA designs are stateless
    /// value types; CABA forks a fresh controller with the same policy
    /// (tags and staging slots are per-SM namespaces, so forked controllers
    /// behave identically to one shared instance).
    pub fn fork(&self) -> Design {
        match self {
            Design::Base => Design::Base,
            Design::HwMemOnly { alg } => Design::HwMemOnly { alg: *alg },
            Design::HwFull { alg, ideal } => Design::HwFull {
                alg: *alg,
                ideal: *ideal,
            },
            Design::Caba(c) => Design::Caba(c.fork()),
        }
    }

    /// Short name for reports.
    pub fn label(&self) -> String {
        match self {
            Design::Base => "Base".to_string(),
            Design::HwMemOnly { alg } => format!("HW-{}-Mem", alg.name()),
            Design::HwFull { alg, ideal: false } => format!("HW-{}", alg.name()),
            Design::HwFull { alg, ideal: true } => format!("Ideal-{}", alg.name()),
            Design::Caba(c) => {
                format!("CABA-{}", c.algorithm().map(|a| a.name()).unwrap_or("None"))
            }
        }
    }
}

impl std::fmt::Debug for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Design({})", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants() {
        let c = GpuConfig::isca2015();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.warps_per_sm, 48);
        assert_eq!(c.threads_per_sm(), 1536);
        assert_eq!(c.max_blocks_per_sm, 8);
        assert_eq!(c.regfile_per_sm, 32768);
        assert_eq!(c.shared_per_sm, 32 * 1024);
        assert_eq!(c.schedulers_per_sm, 2);
        assert_eq!(c.num_channels, 6);
        assert_eq!(c.l1.capacity, 16 * 1024);
        assert_eq!(c.l1.ways, 4);
        assert_eq!(c.l2.capacity, 128 * 1024);
        assert_eq!(c.l2.ways, 16);
        // GDDR5 timings from Table 1.
        assert_eq!(c.dram.t_cl, 12);
        assert_eq!(c.dram.t_rp, 12);
        assert_eq!(c.dram.t_ras, 28);
        assert_eq!(c.dram.t_rcd, 12);
        assert_eq!(c.dram.t_rrd, 6);
        assert_eq!(c.dram.t_wr, 12);
        assert_eq!(c.dram.banks, 16);
    }

    #[test]
    fn stock_configs_validate() {
        assert_eq!(GpuConfig::isca2015().validate(), Ok(()));
        assert_eq!(GpuConfig::small().validate(), Ok(()));
        assert_eq!(GpuConfig::isca2015_scaled().validate(), Ok(()));
        assert_eq!(
            GpuConfig::small().with_bandwidth_scale(0.5).validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut c = GpuConfig::small();
        c.num_sms = 0;
        assert_eq!(c.validate(), Err(ConfigError::Zero { field: "num_sms" }));

        let mut c = GpuConfig::small();
        c.num_channels = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::Zero {
                field: "num_channels"
            })
        );

        let mut c = GpuConfig::small();
        c.awb_low_priority_entries = c.max_assist_warps + 1;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::AwbExceedsAssistWarps { .. })
        ));

        let mut c = GpuConfig::small();
        c.sp_latency = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroLatency {
                field: "sp_latency"
            })
        );

        let mut c = GpuConfig::small();
        c.fault.drop_flit_rate = 1.5;
        assert!(matches!(c.validate(), Err(ConfigError::BadRate { .. })));

        let mut c = GpuConfig::small();
        c.fault = crate::fault::FaultConfig::recover(1, 0.01);
        c.fault.dram_delay_cycles = c.watchdog_window;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::DelayExceedsWatchdog { .. })
        ));
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("watchdog_window"), "message: {msg}");
    }

    #[test]
    fn observability_builders_and_validation() {
        let c = GpuConfig::small()
            .with_trace(TraceConfig::full(128))
            .with_metrics(MetricsLevel::Full);
        assert_eq!(
            c.observability.trace,
            Some(TraceConfig {
                interval: 128,
                events: true
            })
        );
        assert!(c.observability.metrics.enabled());
        assert_eq!(c.validate(), Ok(()));

        let bad = GpuConfig::small().with_trace(TraceConfig::sampled(0));
        assert_eq!(
            bad.validate(),
            Err(ConfigError::Zero {
                field: "observability.trace.interval"
            })
        );
    }

    #[test]
    fn bandwidth_scaling() {
        let half = GpuConfig::isca2015().with_bandwidth_scale(0.5);
        assert_eq!(half.dram.burst_cycles, 4);
        let twice = GpuConfig::isca2015().with_bandwidth_scale(2.0);
        assert_eq!(twice.dram.burst_cycles, 1);
    }

    #[test]
    fn design_properties() {
        assert_eq!(Design::Base.label(), "Base");
        assert!(!Design::Base.mem_compressed());
        assert!(!Design::Base.icnt_compressed());
        let hw = Design::HwFull {
            alg: Algorithm::Bdi,
            ideal: false,
        };
        assert_eq!(hw.label(), "HW-BDI");
        assert!(hw.icnt_compressed());
        assert!(hw.mem_compressed());
        assert!(!hw.is_caba());
        let ideal = Design::HwFull {
            alg: Algorithm::Bdi,
            ideal: true,
        };
        assert_eq!(ideal.label(), "Ideal-BDI");
        let mem = Design::HwMemOnly {
            alg: Algorithm::Fpc,
        };
        assert_eq!(mem.label(), "HW-FPC-Mem");
        assert!(!mem.icnt_compressed());
        assert!(mem.mem_compressed());
        assert_eq!(mem.algorithm(), Some(Algorithm::Fpc));
        assert!(format!("{:?}", Design::Base).contains("Base"));
    }
}
