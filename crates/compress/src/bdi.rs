//! Base-Delta-Immediate compression (Pekhimenko et al., PACT 2012), the
//! algorithm the paper's main CABA case study maps onto assist warps (§4.1).
//!
//! A cache line is viewed as fixed-size values (8-, 4- or 2-byte). Lines with
//! low dynamic range are stored as one explicit base plus an implicit zero
//! base, a base-select mask, and an array of narrow deltas. Decompression is
//! a masked vector addition — exactly the data-parallel shape a 32-wide GPU
//! pipeline executes in a couple of instructions.
//!
//! # Payload layout (what the assist warps read/write)
//!
//! ```text
//! Zeros   : []                                     (0 bytes in line)
//! Rep8    : [value: 8B LE]
//! Bv/Dd   : [mask: ceil(n/8) B, LSB-first; bit i=1 means value i uses the
//!            implicit zero base]
//!           [base: v bytes LE]
//!           [delta_0 .. delta_{n-1}: d bytes LE each, two's complement]
//! ```
//!
//! For the paper's Figure 5 (64-byte line from PVC, 8-byte values, 1-byte
//! deltas) this layout gives exactly 1 + 8 + 8 = 17 bytes with mask `0x55` —
//! reproduced in the tests below.

use crate::bits::{fits_signed, sign_extend};
use crate::{Algorithm, CompressedLine, DecompressError};

/// One BDI encoding: the value size / delta size pair (plus the two special
/// cases), as stored in the out-of-band metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BdiEncoding {
    /// All-zero line.
    Zeros,
    /// Line is one 8-byte value repeated.
    Rep8,
    /// 8-byte values, 1-byte deltas.
    B8D1,
    /// 8-byte values, 2-byte deltas.
    B8D2,
    /// 8-byte values, 4-byte deltas.
    B8D4,
    /// 4-byte values, 1-byte deltas.
    B4D1,
    /// 4-byte values, 2-byte deltas.
    B4D2,
    /// 2-byte values, 1-byte deltas.
    B2D1,
}

impl BdiEncoding {
    /// All encodings in the order compression tests them (§4.1.2 tests
    /// "several possible encodings... to achieve a high compression ratio").
    pub const ALL: [BdiEncoding; 8] = [
        BdiEncoding::Zeros,
        BdiEncoding::Rep8,
        BdiEncoding::B8D1,
        BdiEncoding::B4D1,
        BdiEncoding::B2D1,
        BdiEncoding::B8D2,
        BdiEncoding::B4D2,
        BdiEncoding::B8D4,
    ];

    /// Stable encoding id stored in metadata.
    pub fn id(self) -> u8 {
        match self {
            BdiEncoding::Zeros => 0,
            BdiEncoding::Rep8 => 1,
            BdiEncoding::B8D1 => 2,
            BdiEncoding::B8D2 => 3,
            BdiEncoding::B8D4 => 4,
            BdiEncoding::B4D1 => 5,
            BdiEncoding::B4D2 => 6,
            BdiEncoding::B2D1 => 7,
        }
    }

    /// Decodes an encoding id.
    pub fn from_id(id: u8) -> Option<BdiEncoding> {
        Some(match id {
            0 => BdiEncoding::Zeros,
            1 => BdiEncoding::Rep8,
            2 => BdiEncoding::B8D1,
            3 => BdiEncoding::B8D2,
            4 => BdiEncoding::B8D4,
            5 => BdiEncoding::B4D1,
            6 => BdiEncoding::B4D2,
            7 => BdiEncoding::B2D1,
            _ => return None,
        })
    }

    /// `(value_size, delta_size)` in bytes for base-delta encodings.
    pub fn sizes(self) -> Option<(usize, usize)> {
        Some(match self {
            BdiEncoding::Zeros | BdiEncoding::Rep8 => return None,
            BdiEncoding::B8D1 => (8, 1),
            BdiEncoding::B8D2 => (8, 2),
            BdiEncoding::B8D4 => (8, 4),
            BdiEncoding::B4D1 => (4, 1),
            BdiEncoding::B4D2 => (4, 2),
            BdiEncoding::B2D1 => (2, 1),
        })
    }

    /// Compressed payload size in bytes for a line of `line_len` bytes.
    pub fn compressed_size(self, line_len: usize) -> usize {
        match self {
            BdiEncoding::Zeros => 0,
            BdiEncoding::Rep8 => 8,
            _ => {
                let (vs, ds) = self.sizes().expect("base-delta encoding");
                let n = line_len / vs;
                n.div_ceil(8) + vs + n * ds
            }
        }
    }
}

/// Decides the winning encoding for `line` without building a payload.
///
/// Candidate encodings are ranked by their data-independent
/// [`BdiEncoding::compressed_size`] (ties broken by [`BdiEncoding::ALL`]
/// order), and the first whose chunked fit-scan passes is returned —
/// exactly the encoding [`compress`] would pick, at a
/// fraction of the cost: the scan reads the line as `u64` lanes and
/// touches no heap.
pub fn scan(line: &[u8]) -> Option<BdiEncoding> {
    debug_assert!(line.len() >= 8 && line.len().is_multiple_of(8));
    if all_zero(line) {
        return Some(BdiEncoding::Zeros);
    }
    // (size, ALL-index) pairs for every encoding that could beat the
    // uncompressed line. Rep8 carries no benefit guard, mirroring
    // `compress_with`.
    let mut ranked = [(0usize, 0usize); 7];
    let mut n = 0;
    for (idx, &enc) in BdiEncoding::ALL.iter().enumerate().skip(1) {
        let size = enc.compressed_size(line.len());
        if enc == BdiEncoding::Rep8 || size < line.len() {
            ranked[n] = (size, idx);
            n += 1;
        }
    }
    let ranked = &mut ranked[..n];
    ranked.sort_unstable();
    ranked
        .iter()
        .map(|&(_, idx)| BdiEncoding::ALL[idx])
        .find(|&enc| applies(line, enc))
}

/// Whether [`compress_with`]`(line, enc)` would return a line —
/// the same answer for any `line`, without building the payload.
pub fn fits(line: &[u8], enc: BdiEncoding) -> bool {
    let shaped = match enc.sizes() {
        // `compress_with`'s "no benefit" rule.
        Some((vs, _)) => {
            line.len().is_multiple_of(vs) && enc.compressed_size(line.len()) < line.len()
        }
        None => enc == BdiEncoding::Zeros || line.len().is_multiple_of(8),
    };
    shaped && applies(line, enc)
}

/// Exact compressed size [`compress`] would produce for
/// `line`, or `None` when incompressible. Never allocates.
pub fn scan_size(line: &[u8]) -> Option<usize> {
    assert!(
        line.len() >= 8 && line.len().is_multiple_of(8),
        "BDI requires a line size that is a multiple of 8 bytes"
    );
    scan(line).map(|e| e.compressed_size(line.len()))
}

/// Attempts to compress `line` with one specific encoding.
///
/// Used by the CABA compression subroutine tests to cross-check a single
/// encoding, and by applications with homogeneous data that "use the
/// same encoding for most of their cache lines" (§4.1.2).
pub fn compress_with(line: &[u8], enc: BdiEncoding) -> Option<CompressedLine> {
    let payload = match enc {
        BdiEncoding::Zeros => {
            if line.iter().any(|&b| b != 0) {
                return None;
            }
            Vec::new()
        }
        BdiEncoding::Rep8 => {
            if line.len() < 8 || !line.len().is_multiple_of(8) {
                return None;
            }
            let first = &line[..8];
            if !line.chunks_exact(8).all(|c| c == first) {
                return None;
            }
            first.to_vec()
        }
        _ => {
            let (vs, ds) = enc.sizes().expect("base-delta encoding");
            if !line.len().is_multiple_of(vs) {
                return None;
            }
            compress_base_delta(line, vs, ds)?
        }
    };
    Some(CompressedLine {
        algorithm: Algorithm::Bdi,
        encoding: enc.id(),
        payload,
        original_len: line.len(),
    })
}

/// Whether `line`'s values fit `enc`: the data-dependent half of the
/// decision, shared by [`scan`] and [`fits`].
#[inline]
fn applies(line: &[u8], enc: BdiEncoding) -> bool {
    match enc {
        BdiEncoding::Zeros => all_zero(line),
        BdiEncoding::Rep8 => rep8_applies(line),
        BdiEncoding::B8D1 => base_delta_fits::<8, 1>(line),
        BdiEncoding::B8D2 => base_delta_fits::<8, 2>(line),
        BdiEncoding::B8D4 => base_delta_fits::<8, 4>(line),
        BdiEncoding::B4D1 => base_delta_fits::<4, 1>(line),
        BdiEncoding::B4D2 => base_delta_fits::<4, 2>(line),
        BdiEncoding::B2D1 => base_delta_fits::<2, 1>(line),
    }
}

/// OR-reduction over `u64` lanes: branch-free, so the compiler vectorizes
/// it; a 128-byte line is 16 lane loads and one compare.
fn all_zero(line: &[u8]) -> bool {
    let chunks = line.chunks_exact(8);
    let rem = chunks.remainder();
    let mut acc = 0u64;
    for c in chunks {
        acc |= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    }
    acc == 0 && rem.iter().all(|&b| b == 0)
}

/// True when every 8-byte lane equals the first (the Rep8 encoding).
fn rep8_applies(line: &[u8]) -> bool {
    let mut chunks = line.chunks_exact(8);
    let Some(first) = chunks.next() else {
        return false;
    };
    let f = u64::from_le_bytes(first.try_into().expect("8-byte chunk"));
    chunks.all(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")) == f)
}

/// Decision-only mirror of [`compress_base_delta`] for one `(VS, DS)`
/// encoding: walks the line as `u64` lanes (`VS`-byte values extracted by
/// shift, no per-byte loads, no bounds checks past `chunks_exact`) and
/// reports whether every value fits either the implicit zero base or the
/// first non-fitting value's base in a `DS`-byte signed delta.
fn base_delta_fits<const VS: usize, const DS: usize>(line: &[u8]) -> bool {
    let vbits = VS * 8;
    let dbits = DS * 8;
    let vmask = if VS == 8 {
        u64::MAX
    } else {
        (1u64 << vbits) - 1
    };
    let mut base = 0u64;
    let mut have_base = false;
    let mut word_fits = |w: u64| {
        for lane in 0..(8 / VS) {
            let v = (w >> (lane * vbits)) & vmask;
            let sv = sign_extend(v, vbits);
            if fits_signed(sv, dbits) {
                continue; // implicit zero base
            }
            if !have_base {
                base = v; // first non-fitting value becomes the base
                have_base = true;
                continue;
            }
            let d = sign_extend(v.wrapping_sub(base) & vmask, vbits);
            if !fits_signed(d, dbits) {
                return false;
            }
        }
        true
    };
    let chunks = line.chunks_exact(8);
    let rem = chunks.remainder();
    for word in chunks {
        if !word_fits(u64::from_le_bytes(word.try_into().expect("8-byte chunk"))) {
            return false;
        }
    }
    // A tail shorter than a word is padded with zero values, which always
    // fit the implicit zero base.
    let mut tail = [0u8; 8];
    tail[..rem.len()].copy_from_slice(rem);
    rem.is_empty() || word_fits(u64::from_le_bytes(tail))
}

fn read_value(line: &[u8], idx: usize, vs: usize) -> u64 {
    let mut v = 0u64;
    for b in 0..vs {
        v |= (line[idx * vs + b] as u64) << (8 * b);
    }
    v
}

fn write_value(out: &mut [u8], idx: usize, vs: usize, v: u64) {
    for b in 0..vs {
        out[idx * vs + b] = (v >> (8 * b)) as u8;
    }
}

fn compress_base_delta(line: &[u8], vs: usize, ds: usize) -> Option<Vec<u8>> {
    let n = line.len() / vs;
    let vbits = vs * 8;
    let dbits = ds * 8;
    let vmask = if vs == 8 {
        u64::MAX
    } else {
        (1u64 << vbits) - 1
    };

    // The explicit base is the first value that does not fit the implicit
    // zero base (§4.1.2: "the first few bytes of the cache line are always
    // used as the base").
    let mut base: Option<u64> = None;
    let mut mask = vec![0u8; n.div_ceil(8)];
    let mut deltas = Vec::with_capacity(n * ds);

    for i in 0..n {
        let v = read_value(line, i, vs);
        let sv = sign_extend(v, vbits);
        let (delta, zero_base) = if fits_signed(sv, dbits) {
            (sv, true)
        } else {
            let b = match base {
                Some(b) => b,
                None => {
                    base = Some(v);
                    v
                }
            };
            let d = sign_extend(v.wrapping_sub(b) & vmask, vbits);
            if !fits_signed(d, dbits) {
                return None;
            }
            (d, false)
        };
        if zero_base {
            mask[i / 8] |= 1 << (i % 8);
        }
        for b in 0..ds {
            deltas.push((delta as u64 >> (8 * b)) as u8);
        }
    }

    let base = base.unwrap_or(0);
    let mut payload = mask;
    for b in 0..vs {
        payload.push((base >> (8 * b)) as u8);
    }
    payload.extend_from_slice(&deltas);
    if payload.len() >= line.len() {
        return None; // no benefit
    }
    Some(payload)
}

/// Compresses `line` with BDI, or `None` when the payload would not be
/// smaller; see [`Algorithm::compress_line`].
pub fn compress(line: &[u8]) -> Option<CompressedLine> {
    assert!(
        line.len() >= 8 && line.len().is_multiple_of(8),
        "BDI requires a line size that is a multiple of 8 bytes"
    );
    // The size-only scan picks the same winner the exhaustive
    // `filter_map(..).min_by_key(..)` over ALL encodings would (sizes
    // are data-independent, ties break in ALL order), so only the
    // winning payload is ever materialized.
    let enc = scan(line)?;
    let c = compress_with(line, enc);
    debug_assert!(c.is_some(), "scan accepted {enc:?}");
    c
}

/// Decompresses a BDI `line` into `out`, returning the number of bytes
/// written; see [`Algorithm::decompress_into`].
pub fn decompress_into(line: &CompressedLine, out: &mut [u8]) -> Result<usize, DecompressError> {
    if line.algorithm != Algorithm::Bdi {
        return Err(DecompressError::WrongAlgorithm {
            expected: Algorithm::Bdi,
            found: line.algorithm,
        });
    }
    let enc =
        BdiEncoding::from_id(line.encoding).ok_or(DecompressError::BadEncoding(line.encoding))?;
    let len = line.original_len;
    if out.len() < len {
        return Err(DecompressError::Malformed("output buffer too small"));
    }
    let out = &mut out[..len];
    match enc {
        BdiEncoding::Zeros => {
            out.fill(0);
            Ok(len)
        }
        BdiEncoding::Rep8 => {
            if line.payload.len() != 8 {
                return Err(DecompressError::Malformed("Rep8 payload must be 8 bytes"));
            }
            for chunk in out.chunks_mut(8) {
                chunk.copy_from_slice(&line.payload[..chunk.len()]);
            }
            Ok(len)
        }
        _ => {
            let (vs, ds) = enc.sizes().expect("base-delta encoding");
            let n = len / vs;
            let mask_len = n.div_ceil(8);
            let expect = mask_len + vs + n * ds;
            if line.payload.len() != expect {
                return Err(DecompressError::Malformed("base-delta payload length"));
            }
            let vbits = vs * 8;
            let vmask = if vs == 8 {
                u64::MAX
            } else {
                (1u64 << vbits) - 1
            };
            let mask = &line.payload[..mask_len];
            let mut base = 0u64;
            for b in 0..vs {
                base |= (line.payload[mask_len + b] as u64) << (8 * b);
            }
            let deltas = &line.payload[mask_len + vs..];
            out.fill(0);
            for i in 0..n {
                let mut d = 0u64;
                for b in 0..ds {
                    d |= (deltas[i * ds + b] as u64) << (8 * b);
                }
                let d = sign_extend(d, ds * 8) as u64;
                let zero_base = mask[i / 8] >> (i % 8) & 1 == 1;
                let v = if zero_base { d } else { base.wrapping_add(d) } & vmask;
                write_value(out, i, vs, v);
            }
            Ok(len)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact 64-byte cache line of Figure 5 (PageViewCount application).
    fn figure5_line() -> Vec<u8> {
        let values: [u64; 8] = [
            0x00,
            0x8_0001_d000,
            0x10,
            0x8_0001_d008,
            0x20,
            0x8_0001_d010,
            0x30,
            0x8_0001_d018,
        ];
        let mut line = Vec::with_capacity(64);
        for v in values {
            line.extend_from_slice(&v.to_le_bytes());
        }
        line
    }

    #[test]
    fn paper_figure5_example_compresses_to_17_bytes() {
        let line = figure5_line();
        let c = compress(&line).expect("figure 5 line is compressible");
        assert_eq!(
            BdiEncoding::from_id(c.encoding),
            Some(BdiEncoding::B8D1),
            "8-byte base with 1-byte deltas"
        );
        // 1-byte base-select mask + 8-byte base + eight 1-byte deltas = 17 B,
        // saving 47 of the original 64 bytes, exactly as Figure 5 reports.
        assert_eq!(c.size_bytes(), 17);
        assert_eq!(line.len() - c.size_bytes(), 47);
        // The figure's metadata byte: 0x55 — every even-indexed value uses
        // the implicit zero base.
        assert_eq!(c.payload[0], 0x55);
        // The explicit base is 0x8_0001_d000.
        let base = u64::from_le_bytes(c.payload[1..9].try_into().unwrap());
        assert_eq!(base, 0x8_0001_d000);
        // Deltas as drawn in the figure.
        assert_eq!(
            &c.payload[9..],
            &[0x00, 0x00, 0x10, 0x08, 0x20, 0x10, 0x30, 0x18]
        );
        assert_eq!(c.decompress().unwrap(), line);
    }

    #[test]
    fn zeros_line() {
        let line = vec![0u8; 128];
        let c = compress(&line).unwrap();
        assert_eq!(BdiEncoding::from_id(c.encoding), Some(BdiEncoding::Zeros));
        assert_eq!(c.size_bytes(), 0);
        assert_eq!(c.bursts(), 1);
        assert_eq!(c.decompress().unwrap(), line);
    }

    #[test]
    fn repeated_value_line() {
        let mut line = Vec::new();
        for _ in 0..16 {
            line.extend_from_slice(&0xDEAD_BEEF_CAFE_F00Du64.to_le_bytes());
        }
        let c = compress(&line).unwrap();
        assert_eq!(BdiEncoding::from_id(c.encoding), Some(BdiEncoding::Rep8));
        assert_eq!(c.size_bytes(), 8);
        assert_eq!(c.decompress().unwrap(), line);
    }

    #[test]
    fn four_byte_values_with_small_range() {
        let mut line = Vec::new();
        for i in 0..32u32 {
            line.extend_from_slice(&(0x0BAD_0000u32 + i * 3).to_le_bytes());
        }
        let c = compress(&line).unwrap();
        assert_eq!(c.decompress().unwrap(), line);
        assert!(c.size_bytes() < line.len() / 2);
    }

    #[test]
    fn negative_deltas_round_trip() {
        let mut line = Vec::new();
        for i in 0..16u64 {
            let v = 0x7000_0000_0000_0000u64.wrapping_sub(i * 7);
            line.extend_from_slice(&v.to_le_bytes());
        }
        let c = compress(&line).unwrap();
        assert_eq!(c.decompress().unwrap(), line);
    }

    #[test]
    fn incompressible_returns_none() {
        let mut line = Vec::with_capacity(128);
        let mut x: u64 = 1;
        while line.len() < 128 {
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x14057B7EF767814F);
            line.extend_from_slice(&x.to_le_bytes());
        }
        assert!(compress(&line).is_none());
    }

    #[test]
    fn compressed_size_formula_matches() {
        for enc in BdiEncoding::ALL {
            if let Some((vs, _)) = enc.sizes() {
                // Build a line guaranteed to compress with this encoding:
                // all values equal to a fixed small pattern.
                let mut line = Vec::new();
                for _ in 0..(128 / vs) {
                    let mut v = vec![0u8; vs];
                    v[0] = 5;
                    line.extend_from_slice(&v);
                }
                let c = compress_with(&line, enc).unwrap();
                assert_eq!(c.size_bytes(), enc.compressed_size(128), "{enc:?}");
            }
        }
    }

    #[test]
    fn encoding_ids_round_trip() {
        for enc in BdiEncoding::ALL {
            assert_eq!(BdiEncoding::from_id(enc.id()), Some(enc));
        }
        assert_eq!(BdiEncoding::from_id(200), None);
    }

    #[test]
    fn wrong_algorithm_rejected() {
        let c = CompressedLine {
            algorithm: Algorithm::Fpc,
            encoding: 0,
            payload: vec![],
            original_len: 128,
        };
        assert!(matches!(
            decompress_into(&c, &mut [0u8; 128]),
            Err(DecompressError::WrongAlgorithm { .. })
        ));
    }

    #[test]
    fn malformed_payload_rejected() {
        let c = CompressedLine {
            algorithm: Algorithm::Bdi,
            encoding: BdiEncoding::B8D1.id(),
            payload: vec![0u8; 3],
            original_len: 64,
        };
        assert!(matches!(c.decompress(), Err(DecompressError::Malformed(_))));
        let c = CompressedLine {
            algorithm: Algorithm::Bdi,
            encoding: 99,
            payload: vec![],
            original_len: 64,
        };
        assert!(matches!(
            c.decompress(),
            Err(DecompressError::BadEncoding(99))
        ));
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn odd_line_size_panics() {
        let _ = compress(&[0u8; 7]);
    }

    #[test]
    fn two_byte_encoding_works_on_128b_line() {
        // 64 two-byte values, small range: B2D1 applies.
        let mut line = Vec::new();
        for i in 0..64u16 {
            line.extend_from_slice(&(0x4000u16 + i).to_le_bytes());
        }
        let c = compress_with(&line, BdiEncoding::B2D1).unwrap();
        assert_eq!(c.decompress().unwrap(), line);
        // mask 8B + base 2B + 64 deltas = 74
        assert_eq!(c.size_bytes(), 74);
    }
}
