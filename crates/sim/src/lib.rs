//! A cycle-level, execution-driven GPGPU simulator — the substrate the CABA
//! paper evaluates on (GPGPU-Sim 3.2.1 with the Table 1 configuration),
//! rebuilt from scratch in Rust.
//!
//! # Architecture
//!
//! * [`GpuConfig`] — Table 1 parameters (15 SMs, 48 warps/SM, GTO schedulers,
//!   2 schedulers/SM, 16 KB L1, 768 KB L2 over 6 partitions, GDDR5 timing).
//! * [`Sm`] — one streaming multiprocessor: warp contexts with SIMT
//!   reconvergence stacks, scoreboards, two greedy-then-oldest schedulers,
//!   SP/SFU pipelines, a load-store unit with coalescing, an L1 with MSHRs,
//!   a store buffer, and the assist-warp runtime (AWT/AWB mechanics of §3.3,
//!   driven by the SM's [`CabaController`]).
//! * [`Gpu`] — SMs + two crossbars + memory partitions (L2 slice + MD cache
//!   plus GDDR5 channel each) + the CTA dispatcher; runs a [`Kernel`] to
//!   completion and reports [`RunStats`].
//! * [`Design`] — the eight evaluated design points of §6: `Base`,
//!   `HW-BDI-Mem`, `HW-BDI`, `Ideal-BDI` and `CABA-*` (a [`CabaMode`]);
//!   plain `Copy` data.
//! * [`caba`] — the CABA framework itself: the Assist Warp Controller and
//!   the Assist Warp Store of subroutines.
//! * [`integrity`]/[`fault`] — the simulation integrity layer: a
//!   forward-progress watchdog and structural invariant audits turn wedges
//!   and lost requests into typed [`RunError`]s with a [`HangReport`], and
//!   seeded fault injection ([`FaultConfig`]) proves the audits catch what
//!   they claim to.
//!
//! Execution is *functional-at-issue*: instruction values (including loaded
//! data) are computed against the functional memory when the instruction
//! issues, while the timing model independently decides when the scoreboard
//! releases. This mirrors GPGPU-Sim's performance-simulation mode and is
//! exact for data-race-free kernels, which all the workloads are.
//!
//! # Examples
//!
//! Run a trivial kernel on the baseline GPU:
//!
//! ```
//! use caba_isa::{Kernel, LaunchDims, ProgramBuilder, Reg, Src, Special, AluOp, Width, Space};
//! use caba_sim::{Design, Gpu, GpuConfig};
//!
//! let mut b = ProgramBuilder::new();
//! let (tid, addr) = (Reg(0), Reg(1));
//! b.global_thread_id(tid);
//! b.alu(AluOp::Shl, addr, Src::Reg(tid), Src::Imm(2));
//! b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(0)));
//! b.st(Space::Global, Width::B4, Src::Reg(tid), Src::Reg(addr), 0);
//! b.exit();
//! let kernel = Kernel::new("demo", b.build(), LaunchDims::new(4, 64))
//!     .with_params(vec![0x10000]);
//!
//! let mut gpu = Gpu::new(GpuConfig::isca2015(), Design::Base);
//! let stats = gpu.run(&kernel, 1_000_000).expect("kernel completes");
//! assert!(stats.cycles > 0);
//! assert_eq!(gpu.mem().read_u32(0x10000 + 4 * 37), 37);
//! ```

pub mod assist;
pub mod caba;
pub mod config;
pub mod exec;
pub mod fault;
pub mod gpu;
pub mod integrity;
pub mod lsu;
pub mod mempart;
pub mod observe;
pub mod occupancy;
pub mod sm;
pub mod snapshot;
pub mod stats;
pub mod trace;
pub mod warp;

pub use assist::{AssistLaunch, AssistOutcome, AssistPriority, FillAction, StoreAction};
pub use caba::{CabaController, CabaMode};
pub use config::{ConfigError, Design, GpuConfig};
pub use fault::{FaultConfig, FaultInjector, FaultMode};
pub use gpu::{Gpu, RunError};
pub use integrity::{
    Component, HangReport, PartitionSnapshot, SmSnapshot, Violation, WarpSnapshot, WarpState,
};
pub use observe::{ObservabilityConfig, TraceConfig};
pub use occupancy::OccupancyInfo;
pub use sm::Sm;
pub use snapshot::RestoreError;
pub use stats::{RunStats, StatsSummary};
pub use trace::{ActivityTrace, Sample, TraceEvent, TraceEventKind};
pub use warp::{SimtEntry, Warp};

pub use caba_compress::Algorithm;
pub use caba_isa::Kernel;
pub use caba_stats::{MetricsLevel, MetricsSnapshot, StallKind};
