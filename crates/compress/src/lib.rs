//! Cache-line compression algorithms for the CABA framework.
//!
//! The paper implements three hardware compression algorithms as assist-warp
//! subroutines: **Base-Delta-Immediate** (BDI, Pekhimenko et al., PACT 2012),
//! **Frequent Pattern Compression** (FPC, Alameldeen & Wood, 2004) and
//! **C-Pack** (Chen et al., TVLSI 2010). This crate provides the reference
//! (software) implementations used by the dedicated-hardware design points
//! (`HW-BDI`, `HW-BDI-Mem`) and as the correctness oracle for the
//! assist-warp ISA subroutines in `caba-core`.
//!
//! Layout conventions follow §4.1.3 of the paper: all metadata needed to
//! decompress (the encoding, base-select masks, dictionary entries) is placed
//! at the head of the compressed line so decompression can be set up
//! up-front; the *encoding id itself* travels out-of-band (in the cache tag /
//! MD-cache metadata), which is why [`CompressedLine::encoding`] is a
//! separate field and not part of [`CompressedLine::payload`].
//!
//! # Examples
//!
//! ```
//! use caba_compress::{Bdi, Compressor};
//!
//! // A low-dynamic-range line compresses well with BDI.
//! let mut line = Vec::new();
//! for i in 0..16u32 {
//!     line.extend_from_slice(&(0x1000u32 + i).to_le_bytes());
//! }
//! let bdi = Bdi::new();
//! let c = bdi.compress(&line).expect("compressible");
//! assert!(c.size_bytes() < line.len());
//! assert_eq!(bdi.decompress(&c).unwrap(), line);
//! ```

pub mod bdi;
pub mod bits;
pub mod cpack;
pub mod fpc;

pub use bdi::{Bdi, BdiEncoding};
pub use cpack::CPack;
pub use fpc::Fpc;

use caba_stats::snap::{SnapError, SnapshotReader, SnapshotState, SnapshotWriter};
use std::fmt;

/// Default cache line size (bytes), matching GPGPU-Sim's 128 B lines and
/// the paper's "1–4 bursts in GDDR5".
pub const LINE_SIZE: usize = 128;

/// Size of one GDDR5 DRAM burst in bytes (§4.1.3: benefits of bandwidth
/// compression come at multiples of a 32 B burst).
pub const BURST_BYTES: usize = 32;

/// Identifies a compression algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// Base-Delta-Immediate.
    Bdi,
    /// Frequent Pattern Compression.
    Fpc,
    /// C-Pack (dictionary based).
    CPack,
}

impl Algorithm {
    /// All algorithms, in the order used by Figures 10 and 11.
    pub const ALL: [Algorithm; 3] = [Algorithm::Fpc, Algorithm::Bdi, Algorithm::CPack];

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Bdi => "BDI",
            Algorithm::Fpc => "FPC",
            Algorithm::CPack => "C-Pack",
        }
    }

    /// Compresses `line` with this algorithm via static dispatch.
    pub fn compress_line(self, line: &[u8]) -> Option<CompressedLine> {
        match self {
            Algorithm::Bdi => Bdi::new().compress(line),
            Algorithm::Fpc => Fpc::new().compress(line),
            Algorithm::CPack => CPack::new().compress(line),
        }
    }

    /// Decompresses `line` into a caller-provided scratch buffer via static
    /// dispatch. Returns the number of bytes written.
    ///
    /// # Errors
    ///
    /// Returns [`DecompressError`] when the payload is malformed or was
    /// produced by a different algorithm.
    pub fn decompress_into(
        self,
        line: &CompressedLine,
        out: &mut [u8],
    ) -> Result<usize, DecompressError> {
        match self {
            Algorithm::Bdi => Bdi::new().decompress_into(line, out),
            Algorithm::Fpc => Fpc::new().decompress_into(line, out),
            Algorithm::CPack => CPack::new().decompress_into(line, out),
        }
    }

    /// Exact compressed size [`Algorithm::compress_line`] would produce for
    /// `line`, or `None` when incompressible — without building a payload.
    ///
    /// Selectors like [`BestOfAll`] use this to pick a winner first and run
    /// the (allocating) payload build once, on the winner only.
    pub fn scan_line_size(self, line: &[u8]) -> Option<usize> {
        match self {
            Algorithm::Bdi => Bdi::new().scan_size(line),
            Algorithm::Fpc => Fpc::new().scan_size(line),
            Algorithm::CPack => CPack::new().scan_size(line),
        }
    }

    /// Decompression latency in cycles for a *dedicated hardware*
    /// implementation (the paper models 1 cycle for BDI, §5; FPC and C-Pack
    /// are serial and slower, §6.3).
    pub fn hw_decompress_latency(self) -> u64 {
        match self {
            Algorithm::Bdi => 1,
            Algorithm::Fpc => 5,
            Algorithm::CPack => 8,
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl SnapshotState for Algorithm {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(match self {
            Algorithm::Bdi => 0,
            Algorithm::Fpc => 1,
            Algorithm::CPack => 2,
        });
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(Algorithm::Bdi),
            1 => Ok(Algorithm::Fpc),
            2 => Ok(Algorithm::CPack),
            t => Err(SnapError::BadTag {
                what: "Algorithm",
                tag: t as u64,
            }),
        }
    }
}

impl SnapshotState for BdiEncoding {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(self.id());
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        let id = r.u8()?;
        BdiEncoding::from_id(id).ok_or(SnapError::BadTag {
            what: "BdiEncoding",
            tag: id as u64,
        })
    }
}

/// A compressed cache line.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompressedLine {
    /// The algorithm that produced this line.
    pub algorithm: Algorithm,
    /// Algorithm-specific encoding id (kept out-of-band in tag/MD metadata).
    pub encoding: u8,
    /// In-line payload: masks/dictionary metadata at the head, then data.
    pub payload: Vec<u8>,
    /// Uncompressed size in bytes.
    pub original_len: usize,
}

impl CompressedLine {
    /// Compressed size in bytes (in-line payload only; the encoding id lives
    /// in the out-of-band metadata the MD cache serves, §4.3.2).
    pub fn size_bytes(&self) -> usize {
        self.payload.len()
    }

    /// DRAM bursts needed to transfer this line (1..=line/32).
    pub fn bursts(&self) -> usize {
        bursts_for_size(self.size_bytes(), self.original_len)
    }

    /// Compression ratio in burst terms (uncompressed bursts / compressed
    /// bursts), the paper's Figure 11 metric.
    pub fn burst_ratio(&self) -> f64 {
        let uncompressed = self.original_len.div_ceil(BURST_BYTES).max(1);
        uncompressed as f64 / self.bursts() as f64
    }

    /// True when decompressing this line reproduces `expected` exactly.
    ///
    /// A decompression error (malformed payload, bad encoding) counts as a
    /// failed round trip rather than an abort: the integrity layer uses this
    /// to *detect* metadata/payload corruption, so corrupt inputs must be a
    /// `false`, never a panic.
    pub fn round_trips_to(&self, expected: &[u8]) -> bool {
        let mut line = [0u8; LINE_SIZE];
        let mut long = Vec::new();
        let buf = if self.original_len <= LINE_SIZE {
            &mut line[..]
        } else {
            long.resize(self.original_len, 0);
            &mut long[..]
        };
        match self.algorithm.decompress_into(self, buf) {
            Ok(n) => &buf[..n] == expected,
            Err(_) => false,
        }
    }
}

impl SnapshotState for CompressedLine {
    fn save(&self, w: &mut SnapshotWriter) {
        self.algorithm.save(w);
        w.u8(self.encoding);
        w.bytes(&self.payload);
        w.usize(self.original_len);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok(CompressedLine {
            algorithm: Algorithm::load(r)?,
            encoding: r.u8()?,
            payload: r.bytes()?.to_vec(),
            original_len: r.usize()?,
        })
    }
}

/// DRAM bursts needed for `size` compressed bytes of an `original_len` line.
pub fn bursts_for_size(size: usize, original_len: usize) -> usize {
    let max = original_len.div_ceil(BURST_BYTES).max(1);
    size.div_ceil(BURST_BYTES).clamp(1, max)
}

/// A cache-line compressor.
///
/// Implementations must be lossless: `decompress(compress(x)) == x` whenever
/// `compress` succeeds. `compress` returns `None` when the line does not
/// benefit (compressed size would be at least the original size) — the
/// caller then stores/transfers the line uncompressed.
pub trait Compressor {
    /// The algorithm identity.
    fn algorithm(&self) -> Algorithm;

    /// Attempts to compress `line`. Returns `None` for incompressible data.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `line.len()` is not a multiple of 8.
    fn compress(&self, line: &[u8]) -> Option<CompressedLine>;

    /// Decompresses `line` into a caller-provided scratch buffer (typically
    /// a stack `[u8; LINE_SIZE]`), returning the number of bytes written.
    /// This is the allocation-free primitive; [`Compressor::decompress`] is
    /// a convenience wrapper over it.
    ///
    /// # Errors
    ///
    /// Returns [`DecompressError`] when the payload is malformed, was
    /// produced by a different algorithm, or `out` is shorter than the
    /// decompressed line.
    fn decompress_into(
        &self,
        line: &CompressedLine,
        out: &mut [u8],
    ) -> Result<usize, DecompressError>;

    /// Decompresses a line produced by this compressor into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`DecompressError`] when the payload is malformed or was
    /// produced by a different algorithm.
    fn decompress(&self, line: &CompressedLine) -> Result<Vec<u8>, DecompressError> {
        let mut out = vec![0u8; line.original_len];
        let n = self.decompress_into(line, &mut out)?;
        out.truncate(n);
        Ok(out)
    }
}

/// Error decompressing a [`CompressedLine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// The line's algorithm tag does not match this compressor.
    WrongAlgorithm {
        /// Algorithm expected by the decompressor.
        expected: Algorithm,
        /// Algorithm recorded on the line.
        found: Algorithm,
    },
    /// The encoding id is not valid for this algorithm.
    BadEncoding(u8),
    /// The payload is truncated or otherwise malformed.
    Malformed(&'static str),
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::WrongAlgorithm { expected, found } => {
                write!(f, "expected {expected} line, found {found}")
            }
            DecompressError::BadEncoding(e) => write!(f, "invalid encoding id {e}"),
            DecompressError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for DecompressError {}

/// Compresses with every algorithm and keeps the smallest result — the
/// idealized `CABA-BestOfAll` selector of §6.3 (no selection overhead).
#[derive(Debug, Default)]
pub struct BestOfAll {
    _private: (),
}

impl BestOfAll {
    /// Creates the selector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Best compression across all algorithms, or `None` if nothing helps.
    ///
    /// Sizes each candidate with the allocation-free scan path and builds a
    /// payload only for the winner. Strict `<` keeps the historical
    /// `min_by_key` tie-break: the first minimal algorithm in
    /// [`Algorithm::ALL`] order wins.
    pub fn compress(&self, line: &[u8]) -> Option<CompressedLine> {
        let mut best: Option<(Algorithm, usize)> = None;
        for a in Algorithm::ALL {
            if let Some(size) = a.scan_line_size(line) {
                if best.is_none_or(|(_, s)| size < s) {
                    best = Some((a, size));
                }
            }
        }
        let (alg, size) = best?;
        let c = alg.compress_line(line);
        debug_assert_eq!(
            c.as_ref().map(|c| c.size_bytes()),
            Some(size),
            "{alg} scan size disagrees with compress"
        );
        c
    }
}

/// Measures the average burst-level compression ratio of `algorithm` over a
/// sequence of lines (Figure 11's per-application metric). Incompressible
/// lines count with ratio 1.
pub fn average_burst_ratio(algorithm: Algorithm, lines: &[Vec<u8>]) -> f64 {
    if lines.is_empty() {
        return 1.0;
    }
    let mut total_unc = 0usize;
    let mut total_comp = 0usize;
    for line in lines {
        let unc = line.len().div_ceil(BURST_BYTES).max(1);
        total_unc += unc;
        total_comp += algorithm
            .compress_line(line)
            .map(|c| c.bursts())
            .unwrap_or(unc);
    }
    total_unc as f64 / total_comp as f64
}

/// Average burst ratio of the best-of-all selector over `lines`.
pub fn average_best_ratio(lines: &[Vec<u8>]) -> f64 {
    if lines.is_empty() {
        return 1.0;
    }
    let best = BestOfAll::new();
    let mut total_unc = 0usize;
    let mut total_comp = 0usize;
    for line in lines {
        let unc = line.len().div_ceil(BURST_BYTES).max(1);
        total_unc += unc;
        total_comp += best.compress(line).map(|c| c.bursts()).unwrap_or(unc);
    }
    total_unc as f64 / total_comp as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_clamped() {
        assert_eq!(bursts_for_size(0, 128), 1);
        assert_eq!(bursts_for_size(17, 128), 1);
        assert_eq!(bursts_for_size(33, 128), 2);
        assert_eq!(bursts_for_size(128, 128), 4);
        assert_eq!(bursts_for_size(1000, 128), 4); // never worse than raw
        assert_eq!(bursts_for_size(10, 64), 1);
        assert_eq!(bursts_for_size(64, 64), 2);
    }

    #[test]
    fn algorithm_metadata() {
        assert_eq!(Algorithm::Bdi.name(), "BDI");
        assert_eq!(Algorithm::Bdi.hw_decompress_latency(), 1);
        assert!(Algorithm::CPack.hw_decompress_latency() > Algorithm::Bdi.hw_decompress_latency());
        assert_eq!(format!("{}", Algorithm::CPack), "C-Pack");
    }

    #[test]
    fn best_of_all_picks_minimum() {
        // Zero line: every algorithm nails it; best-of-all must be at least
        // as small as each individual one.
        let line = vec![0u8; LINE_SIZE];
        let best = BestOfAll::new().compress(&line).unwrap();
        for a in Algorithm::ALL {
            if let Some(c) = a.compress_line(&line) {
                assert!(best.size_bytes() <= c.size_bytes());
            }
        }
    }

    #[test]
    fn average_ratio_of_incompressible_is_one() {
        // High-entropy line: mix of large primes, unlikely to compress.
        let mut line = Vec::with_capacity(LINE_SIZE);
        let mut x: u64 = 0x9E3779B97F4A7C15;
        while line.len() < LINE_SIZE {
            x = x.wrapping_mul(0xD1342543DE82EF95).wrapping_add(0xF);
            line.extend_from_slice(&x.to_le_bytes());
        }
        let r = average_burst_ratio(Algorithm::Bdi, &[line]);
        assert!((r - 1.0).abs() < 1e-9);
        assert_eq!(average_burst_ratio(Algorithm::Bdi, &[]), 1.0);
        assert_eq!(average_best_ratio(&[]), 1.0);
    }

    #[test]
    fn burst_ratio_metric() {
        let c = CompressedLine {
            algorithm: Algorithm::Bdi,
            encoding: 0,
            payload: vec![0u8; 17],
            original_len: 128,
        };
        assert_eq!(c.bursts(), 1);
        assert!((c.burst_ratio() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn decompress_error_display() {
        let e = DecompressError::WrongAlgorithm {
            expected: Algorithm::Bdi,
            found: Algorithm::Fpc,
        };
        assert!(e.to_string().contains("BDI"));
        assert!(DecompressError::BadEncoding(9).to_string().contains('9'));
        assert!(DecompressError::Malformed("short")
            .to_string()
            .contains("short"));
    }
}
