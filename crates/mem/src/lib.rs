//! The GPU memory hierarchy substrate for the CABA simulator.
//!
//! The paper evaluates CABA on a Fermi-like memory system (Table 1): private
//! L1 data caches per SM, a 768 KB shared L2 spread over six memory
//! partitions, a crossbar interconnect between 15 SMs and 6 memory
//! controllers, and GDDR5 DRAM with FR-FCFS scheduling. No such substrate
//! exists in Rust, so this crate builds each piece:
//!
//! * [`FuncMem`] — sparse byte-addressable backing memory holding the
//!   *functional truth* of every global address. Execution correctness never
//!   depends on the timing model.
//! * [`CompressionMap`] — per-line compressed representations, produced by
//!   really running a compressor over current line bytes (and invalidated on
//!   writes). The DRAM burst counts and interconnect flit counts used by the
//!   timing model come from here, so bandwidth savings are earned, not
//!   assumed.
//! * [`Cache`] — set-associative tag array with LRU, dirty bits, and the
//!   tag-doubled *compressed cache* mode of Figure 13.
//! * [`Mshr`] — miss-status holding registers with same-line merging.
//! * [`MdCache`] — the 8 KB metadata cache of §4.3.2 that tells the memory
//!   controller how many bursts each compressed line needs.
//! * [`DramChannel`] — a GDDR5 channel: 16 banks, row-buffer state machine,
//!   FR-FCFS scheduling, burst-granular data-bus occupancy (the paper's
//!   bandwidth-utilization metric is busy-bus-cycles / total-cycles).
//! * [`Crossbar`] — the SM↔MC interconnect with 32 B flits.

pub mod cache;
pub mod dram;
pub mod func;
pub mod icnt;
pub mod mdcache;
pub mod overlay;

pub use cache::{AccessOutcome, Cache, CacheGeometry, Eviction, Mshr};
pub use dram::{DramChannel, DramConfig, DramRequest, DramStats};
pub use func::{CompressionMap, FuncMem};
pub use icnt::{Crossbar, Flit, PushError, PushErrorKind};
pub use mdcache::MdCache;
pub use overlay::{MemDelta, SharedMem};

/// Cache line size used throughout the hierarchy (bytes).
pub use caba_compress::LINE_SIZE;

/// Returns the line-aligned base address containing `addr`.
#[inline]
pub fn line_base(addr: u64) -> u64 {
    addr & !(LINE_SIZE as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_base_alignment() {
        assert_eq!(line_base(0), 0);
        assert_eq!(line_base(127), 0);
        assert_eq!(line_base(128), 128);
        assert_eq!(line_base(0x1234), 0x1200);
        assert_eq!(line_base(line_base(999)), line_base(999));
    }
}
