//! Cache-line compression algorithms for the CABA framework.
//!
//! The paper implements three hardware compression algorithms as assist-warp
//! subroutines: **Base-Delta-Immediate** (BDI, Pekhimenko et al., PACT 2012),
//! **Frequent Pattern Compression** (FPC, Alameldeen & Wood, 2004) and
//! **C-Pack** (Chen et al., TVLSI 2010). This crate provides the reference
//! (software) implementations used by the dedicated-hardware design points
//! (`HW-BDI`, `HW-BDI-Mem`) and as the correctness oracle for the
//! assist-warp ISA subroutines in `caba_sim::caba`.
//!
//! An [`Algorithm`] is the one handle on a codec: its methods dispatch to
//! the module functions [`bdi`], [`fpc`] and [`cpack`]. A
//! [`LineCompressor`] is the one selector: a fixed algorithm, or the
//! per-line best of all three (CABA-BestOfAll, §6.3).
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
//! use caba_compress::{Algorithm, LineCompressor};
//!
//! // A low-dynamic-range line compresses well with BDI.
//! let mut line = Vec::new();
//! for i in 0..16u32 {
//!     line.extend_from_slice(&(0x1000u32 + i).to_le_bytes());
//! }
//! let c = Algorithm::Bdi.compress_line(&line).expect("compressible");
//! assert!(c.size_bytes() < line.len());
//! assert_eq!(Algorithm::Bdi.scan_line_size(&line), Some(c.size_bytes()));
//! assert_eq!(c.decompress().unwrap(), line);
//! // Best-of-all picks its winner from the scans alone.
//! assert!(LineCompressor::BestOfAll.winner(&line).is_some());
//! ```

pub mod bdi;
pub mod bits;
pub mod cpack;
pub mod fpc;

pub use bdi::BdiEncoding;

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

    /// Compresses `line` with this algorithm, or `None` when the payload
    /// would not be smaller than the line. Lossless: decompressing the
    /// result gives `line` back.
    ///
    /// # Panics
    ///
    /// Panics unless `line.len()` is a nonzero multiple of 8 (BDI) or 4
    /// (FPC, C-Pack).
    pub fn compress_line(self, line: &[u8]) -> Option<CompressedLine> {
        match self {
            Algorithm::Bdi => bdi::compress(line),
            Algorithm::Fpc => fpc::compress(line),
            Algorithm::CPack => cpack::compress(line),
        }
    }

    /// Decompresses `line` into a caller-provided scratch buffer (typically
    /// a stack `[u8; LINE_SIZE]`). Returns the number of bytes written.
    ///
    /// # Errors
    ///
    /// Returns [`DecompressError`] when the payload is malformed, was
    /// produced by a different algorithm, or `out` is shorter than the
    /// decompressed line.
    pub fn decompress_into(
        self,
        line: &CompressedLine,
        out: &mut [u8],
    ) -> Result<usize, DecompressError> {
        match self {
            Algorithm::Bdi => bdi::decompress_into(line, out),
            Algorithm::Fpc => fpc::decompress_into(line, out),
            Algorithm::CPack => cpack::decompress_into(line, out),
        }
    }

    /// Exact compressed size [`Algorithm::compress_line`] would produce for
    /// `line`, or `None` when incompressible — without building a payload.
    ///
    /// [`LineCompressor::winner`] uses this to pick a winner first, so the
    /// (allocating) payload build runs once, on the winner only.
    pub fn scan_line_size(self, line: &[u8]) -> Option<usize> {
        match self {
            Algorithm::Bdi => bdi::scan_size(line),
            Algorithm::Fpc => fpc::scan_size(line),
            Algorithm::CPack => cpack::scan_size(line),
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

    /// Decompresses this line into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`DecompressError`] when the payload is malformed.
    pub fn decompress(&self) -> Result<Vec<u8>, DecompressError> {
        let mut out = vec![0u8; self.original_len];
        let n = self.algorithm.decompress_into(self, &mut out)?;
        out.truncate(n);
        Ok(out)
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

/// Which algorithm compresses each line: one fixed [`Algorithm`], or the
/// per-line best of all three with no selection overhead (the idealized
/// CABA-BestOfAll of §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineCompressor {
    /// A single fixed algorithm.
    Fixed(Algorithm),
    /// The idealized best-of-all selector (§6.3).
    BestOfAll,
}

impl LineCompressor {
    /// The algorithm whose payload this selector stores for `line`, decided
    /// from scans alone: `Fixed(a)` is `a`; `BestOfAll` is the first
    /// algorithm in [`Algorithm::ALL`] order with the smallest
    /// [`Algorithm::scan_line_size`], or `None` when none compresses `line`.
    pub fn winner(self, line: &[u8]) -> Option<Algorithm> {
        if let LineCompressor::Fixed(a) = self {
            return Some(a);
        }
        let mut best: Option<(Algorithm, usize)> = None;
        for a in Algorithm::ALL {
            if let Some(size) = a.scan_line_size(line) {
                // Strict `<`: the first minimal algorithm wins.
                if best.is_none_or(|(_, s)| size < s) {
                    best = Some((a, size));
                }
            }
        }
        best.map(|(a, _)| a)
    }

    /// Compresses `line` with [`LineCompressor::winner`]'s algorithm, or
    /// `None` when the line is incompressible.
    pub fn compress_line(self, line: &[u8]) -> Option<CompressedLine> {
        let alg = self.winner(line)?;
        let c = alg.compress_line(line);
        debug_assert!(
            matches!(self, LineCompressor::Fixed(_))
                || c.as_ref().map(CompressedLine::size_bytes) == alg.scan_line_size(line),
            "{alg} scan size disagrees with compress"
        );
        c
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

/// The average burst-level compression ratio of `compressor` over a
/// sequence of lines (Figure 11's per-application metric). Incompressible
/// lines count with ratio 1.
pub fn average_burst_ratio(compressor: LineCompressor, lines: &[Vec<u8>]) -> f64 {
    if lines.is_empty() {
        return 1.0;
    }
    let mut total_unc = 0usize;
    let mut total_comp = 0usize;
    for line in lines {
        let unc = line.len().div_ceil(BURST_BYTES).max(1);
        total_unc += unc;
        total_comp += compressor
            .compress_line(line)
            .map(|c| c.bursts())
            .unwrap_or(unc);
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
        assert_eq!(format!("{}", Algorithm::CPack), "C-Pack");
    }

    #[test]
    fn best_of_all_picks_minimum() {
        // Zero line: every algorithm nails it; best-of-all must be at least
        // as small as each individual one.
        let line = vec![0u8; LINE_SIZE];
        let best = LineCompressor::BestOfAll.compress_line(&line).unwrap();
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
        let bdi = LineCompressor::Fixed(Algorithm::Bdi);
        let r = average_burst_ratio(bdi, &[line]);
        assert!((r - 1.0).abs() < 1e-9);
        assert_eq!(average_burst_ratio(bdi, &[]), 1.0);
        assert_eq!(average_burst_ratio(LineCompressor::BestOfAll, &[]), 1.0);
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
