//! **CABA** — the Core-Assisted Bottleneck Acceleration framework
//! (Vijaykumar et al., ISCA 2015), the primary contribution of the paper.
//!
//! CABA generates *assist warps* — short instruction subroutines that run on
//! otherwise-idle GPU core resources — to alleviate execution bottlenecks.
//! This crate supplies the framework's *policy* layer on top of the
//! mechanism in `caba-sim`:
//!
//! * [`AssistWarpStore`] — the on-chip store of assist-warp subroutines
//!   (§3.3), populated with generated programs:
//!   * genuine BDI decompression/compression subroutines written in the
//!     simulator's ISA ([`subroutines::bdi_decompress`],
//!     [`subroutines::bdi_compress`]) — the assist warps *really* transform
//!     the bytes, and the test suite proves their output matches the
//!     reference compressor bit for bit;
//!   * timing-representative subroutines for the serial FPC and C-Pack
//!     algorithms (§4.1.3; the tech report carries their details, so we
//!     model their instruction footprint while taking the functional result
//!     from the reference implementations).
//! * [`CabaController`] — the Assist Warp Controller policy: triggers
//!   decompression on compressed fills (high priority, §4.2.1), compression
//!   on store-buffer drains (low priority, §4.2.2), staging-slot management,
//!   and completion handling with optional paranoid verification.
//!
//! Compression is the only assist-warp use reproduced. The paper's §7 other
//! uses (memoization, prefetching) have no evaluation figure to check a
//! model against, so they are not modelled.
//!
//! # Examples
//!
//! Run a bandwidth-bound kernel under CABA-BDI:
//!
//! ```
//! use caba_core::CabaController;
//! use caba_compress::Algorithm;
//! use caba_sim::{Design, Gpu, GpuConfig};
//! use caba_isa::{Kernel, LaunchDims, ProgramBuilder, Reg, Src, Special, AluOp, Width, Space};
//!
//! let mut b = ProgramBuilder::new();
//! let (gid, addr, v) = (Reg(0), Reg(1), Reg(2));
//! b.global_thread_id(gid);
//! b.alu(AluOp::Shl, addr, Src::Reg(gid), Src::Imm(2));
//! b.alu(AluOp::Add, addr, Src::Reg(addr), Src::Sp(Special::Param(0)));
//! b.ld(Space::Global, Width::B4, v, Src::Reg(addr), 0);
//! b.exit();
//! let kernel = Kernel::new("read", b.build(), LaunchDims::new(4, 64))
//!     .with_params(vec![0x10000]);
//!
//! let design = Design::Caba(Box::new(CabaController::bdi()));
//! let mut gpu = Gpu::new(GpuConfig::small(), design);
//! for i in 0..256u64 {
//!     gpu.mem_mut().write_u32(0x10000 + i * 4, 0x400 + i as u32);
//! }
//! let stats = gpu.run(&kernel, 1_000_000).expect("completes");
//! assert!(stats.cycles > 0);
//! ```

pub mod controller;
pub mod subroutines;

pub use controller::{CabaController, CabaMode, CabaStats};
pub use subroutines::AssistWarpStore;
