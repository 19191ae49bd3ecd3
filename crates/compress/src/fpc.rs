//! Frequent Pattern Compression (Alameldeen & Wood, UW-Madison TR 2004).
//!
//! Each 32-bit word is encoded with a 3-bit prefix selecting one of eight
//! patterns. Zero words are run-length encoded. The paper adapts FPC for
//! CABA by keeping the metadata decodable from the head of the line; since
//! our stream is strictly sequential LSB-first, the head of the payload is
//! sufficient to drive decompression (§4.1.3).

use crate::bits::{fits_signed, sign_extend, BitReader, BitWriter};
use crate::{Algorithm, CompressedLine, DecompressError};

const PREFIX_BITS: usize = 3;

const P_ZERO_RUN: u64 = 0b000;
const P_SE4: u64 = 0b001;
const P_SE8: u64 = 0b010;
const P_SE16: u64 = 0b011;
const P_HALF_PAD: u64 = 0b100; // low halfword zero, store high 16 bits
const P_TWO_SE8: u64 = 0b101; // two halfwords, each sign-extended byte
const P_REP_BYTE: u64 = 0b110; // word of one repeated byte
const P_RAW: u64 = 0b111;

/// Maximum zero-run length representable by the 4-bit run field.
const MAX_RUN: u64 = 16;

/// Exact compressed size [`compress`] would produce for
/// `line`, or `None` when incompressible.
///
/// A pure counting pass: the line is walked as `u64` lanes split into
/// two words each, every word classified once (no `BitWriter`, no
/// heap), accumulating the bit budget the emitting pass would write.
pub fn scan_size(line: &[u8]) -> Option<usize> {
    assert!(
        !line.is_empty() && line.len().is_multiple_of(4),
        "FPC requires a line size that is a multiple of 4 bytes"
    );
    let mut bits = 0usize;
    let mut run = 0u64;
    let run_bits = PREFIX_BITS + 4;
    let flush_run = |run: &mut u64, bits: &mut usize| {
        if *run > 0 {
            *bits += run_bits;
            *run = 0;
        }
    };
    for_each_word(line, |w| {
        if w == 0 {
            run += 1;
            if run == MAX_RUN {
                flush_run(&mut run, &mut bits);
            }
        } else {
            flush_run(&mut run, &mut bits);
            bits += PREFIX_BITS + payload_bits(w);
        }
    });
    flush_run(&mut run, &mut bits);
    let size = bits.div_ceil(8);
    (size < line.len()).then_some(size)
}

/// Streams the line's 32-bit words out of `u64` lane loads, so the scan
/// loops carry no per-word bounds checks and no intermediate `Vec<u32>`.
#[inline]
fn for_each_word(line: &[u8], mut f: impl FnMut(u32)) {
    let chunks = line.chunks_exact(8);
    let rem = chunks.remainder();
    for c in chunks {
        let pair = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        f(pair as u32);
        f((pair >> 32) as u32);
    }
    if let Ok(c) = <[u8; 4]>::try_from(rem) {
        f(u32::from_le_bytes(c));
    }
}

/// Payload bits [`encode_word`] appends after the 3-bit prefix for a
/// nonzero word — the same cascade, counting instead of writing.
#[inline]
fn payload_bits(w: u32) -> usize {
    let s = w as i32 as i64;
    if fits_signed(s, 4) {
        4
    } else if fits_signed(s, 8) {
        8
    } else if fits_signed(s, 16)
        || w & 0xFFFF == 0
        || (fits_signed((w & 0xFFFF) as i16 as i64, 8) && fits_signed((w >> 16) as i16 as i64, 8))
    {
        // SE16, half-padded, and two-halfword encodings all carry 16 bits.
        16
    } else if w == (w & 0xFF) * 0x0101_0101 {
        8
    } else {
        32
    }
}

fn encode_word(w: u32, out: &mut BitWriter) {
    let s = w as i32 as i64;
    if fits_signed(s, 4) {
        out.write(P_SE4, PREFIX_BITS);
        out.write(w as u64 & 0xF, 4);
    } else if fits_signed(s, 8) {
        out.write(P_SE8, PREFIX_BITS);
        out.write(w as u64 & 0xFF, 8);
    } else if fits_signed(s, 16) {
        out.write(P_SE16, PREFIX_BITS);
        out.write(w as u64 & 0xFFFF, 16);
    } else if w & 0xFFFF == 0 {
        out.write(P_HALF_PAD, PREFIX_BITS);
        out.write((w >> 16) as u64, 16);
    } else if fits_signed((w & 0xFFFF) as i16 as i64, 8) && fits_signed((w >> 16) as i16 as i64, 8)
    {
        out.write(P_TWO_SE8, PREFIX_BITS);
        out.write(w as u64 & 0xFF, 8);
        out.write((w >> 16) as u64 & 0xFF, 8);
    } else {
        let b = w & 0xFF;
        if w == b * 0x0101_0101 {
            out.write(P_REP_BYTE, PREFIX_BITS);
            out.write(b as u64, 8);
        } else {
            out.write(P_RAW, PREFIX_BITS);
            out.write(w as u64, 32);
        }
    }
}

/// Compresses `line` with FPC, or `None` when the payload would not be
/// smaller; see [`Algorithm::compress_line`].
pub fn compress(line: &[u8]) -> Option<CompressedLine> {
    assert!(
        !line.is_empty() && line.len().is_multiple_of(4),
        "FPC requires a line size that is a multiple of 4 bytes"
    );
    let mut w = BitWriter::with_capacity(line.len());
    let mut run = 0u64;
    let flush_run = |run: &mut u64, w: &mut BitWriter| {
        if *run > 0 {
            w.write(P_ZERO_RUN, PREFIX_BITS);
            w.write(*run - 1, 4);
            *run = 0;
        }
    };
    for_each_word(line, |word| {
        if word == 0 {
            run += 1;
            if run == MAX_RUN {
                flush_run(&mut run, &mut w);
            }
        } else {
            flush_run(&mut run, &mut w);
            encode_word(word, &mut w);
        }
    });
    flush_run(&mut run, &mut w);
    let size = w.byte_len();
    if size >= line.len() {
        return None;
    }
    let (payload, _) = w.finish();
    Some(CompressedLine {
        algorithm: Algorithm::Fpc,
        encoding: 0,
        payload,
        original_len: line.len(),
    })
}

/// Decompresses an FPC `line` into `out`, returning the number of bytes
/// written; see [`Algorithm::decompress_into`].
pub fn decompress_into(line: &CompressedLine, out: &mut [u8]) -> Result<usize, DecompressError> {
    if line.algorithm != Algorithm::Fpc {
        return Err(DecompressError::WrongAlgorithm {
            expected: Algorithm::Fpc,
            found: line.algorithm,
        });
    }
    if line.encoding != 0 {
        return Err(DecompressError::BadEncoding(line.encoding));
    }
    let n_words = line.original_len / 4;
    if out.len() < n_words * 4 {
        return Err(DecompressError::Malformed("output buffer too small"));
    }
    let mut filled = 0usize;
    let mut words = WordSink {
        out,
        n: &mut filled,
    };
    let mut r = BitReader::new(&line.payload);
    while words.len() < n_words {
        let prefix = r
            .read(PREFIX_BITS)
            .ok_or(DecompressError::Malformed("truncated prefix"))?;
        let trunc = || DecompressError::Malformed("truncated field");
        match prefix {
            P_ZERO_RUN => {
                let run = r.read(4).ok_or_else(trunc)? + 1;
                for _ in 0..run {
                    if words.len() < n_words {
                        words.push(0u32);
                    }
                }
            }
            P_SE4 => {
                let v = r.read(4).ok_or_else(trunc)?;
                words.push(sign_extend(v, 4) as u32);
            }
            P_SE8 => {
                let v = r.read(8).ok_or_else(trunc)?;
                words.push(sign_extend(v, 8) as u32);
            }
            P_SE16 => {
                let v = r.read(16).ok_or_else(trunc)?;
                words.push(sign_extend(v, 16) as u32);
            }
            P_HALF_PAD => {
                let v = r.read(16).ok_or_else(trunc)?;
                words.push((v as u32) << 16);
            }
            P_TWO_SE8 => {
                let lo = r.read(8).ok_or_else(trunc)?;
                let hi = r.read(8).ok_or_else(trunc)?;
                let lo = (sign_extend(lo, 8) as u32) & 0xFFFF;
                let hi = (sign_extend(hi, 8) as u32) & 0xFFFF;
                words.push(lo | (hi << 16));
            }
            P_REP_BYTE => {
                let b = r.read(8).ok_or_else(trunc)? as u32;
                words.push(b * 0x0101_0101);
            }
            P_RAW => {
                let v = r.read(32).ok_or_else(trunc)?;
                words.push(v as u32);
            }
            _ => unreachable!("3-bit prefix"),
        }
    }
    Ok(filled * 4)
}

/// Writes decoded 32-bit words directly into the caller's byte buffer, so
/// decompression needs no intermediate `Vec<u32>`.
struct WordSink<'a> {
    out: &'a mut [u8],
    n: &'a mut usize,
}

impl WordSink<'_> {
    fn len(&self) -> usize {
        *self.n
    }

    fn push(&mut self, w: u32) {
        let off = *self.n * 4;
        self.out[off..off + 4].copy_from_slice(&w.to_le_bytes());
        *self.n += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(line: &[u8]) -> Option<usize> {
        let c = compress(line)?;
        assert_eq!(c.decompress().unwrap(), line, "round trip");
        Some(c.size_bytes())
    }

    #[test]
    fn zero_line_is_tiny() {
        let size = round_trip(&[0u8; 128]).unwrap();
        // 32 zero words -> two runs of 16 -> 2 * 7 bits = 14 bits = 2 bytes.
        assert_eq!(size, 2);
    }

    #[test]
    fn small_integers_compress_well() {
        let mut line = Vec::new();
        for i in 0..32i32 {
            line.extend_from_slice(&(i - 8).to_le_bytes());
        }
        let size = round_trip(&line).unwrap();
        assert!(size < 40, "size {size}");
    }

    #[test]
    fn pattern_coverage_round_trips() {
        // One word per FPC pattern class, repeated to fill a line.
        let samples: [u32; 8] = [
            0,           // zero run
            7,           // 4-bit SE
            0xFFFF_FF80, // 8-bit SE (-128)
            0x7FFF,      // 16-bit SE
            0xABCD_0000, // halfword padded
            0x0012_FFF0, // two SE bytes (0x12, -16)
            0x4545_4545, // repeated bytes
            0xDEAD_BEEF, // raw
        ];
        let mut line = Vec::new();
        for i in 0..32 {
            line.extend_from_slice(&samples[i % 8].to_le_bytes());
        }
        // Raw words make it big, but the round trip must still hold
        // whenever compression succeeds.
        if let Some(c) = compress(&line) {
            assert_eq!(c.decompress().unwrap(), line);
        }
    }

    #[test]
    fn each_pattern_individually() {
        for w in [
            0u32,
            1,
            0xFFFF_FFFF, // -1: 4-bit SE
            100,         // 8-bit SE
            1000,        // 16-bit SE
            0x1234_0000, // half pad
            0x0070_0009, // two SE bytes
            0x9999_9999, // repeated byte (not SE)
        ] {
            let mut line = Vec::new();
            for _ in 0..32 {
                line.extend_from_slice(&w.to_le_bytes());
            }
            let c = compress(&line).unwrap_or_else(|| panic!("{w:#x}"));
            assert_eq!(c.decompress().unwrap(), line, "{w:#x}");
        }
    }

    #[test]
    fn incompressible_returns_none() {
        let mut line = Vec::with_capacity(128);
        let mut x: u32 = 0x1234_5679;
        while line.len() < 128 {
            x = x.wrapping_mul(0x9E37_79B9).wrapping_add(0x7F4A_7C15);
            // Keep values outside every compressible pattern.
            let v = x | 0x0101_0000 | 0x8000_0080;
            line.extend_from_slice(&v.to_le_bytes());
        }
        // 3 + 32 bits per word * 32 words = 140 bytes > 128.
        assert!(compress(&line).is_none());
    }

    #[test]
    fn zero_run_capped_at_16() {
        // 17 zero words then a marker: two run tokens needed.
        let mut line = Vec::new();
        for _ in 0..17 {
            line.extend_from_slice(&0u32.to_le_bytes());
        }
        line.extend_from_slice(&5u32.to_le_bytes());
        for _ in 0..14 {
            line.extend_from_slice(&0u32.to_le_bytes());
        }
        let c = compress(&line).unwrap();
        assert_eq!(c.decompress().unwrap(), line);
    }

    #[test]
    fn truncated_payload_is_error() {
        let mut line = Vec::new();
        for i in 0..32u32 {
            line.extend_from_slice(&(i * 1000).to_le_bytes());
        }
        let mut c = compress(&line).unwrap();
        c.payload.truncate(1);
        assert!(matches!(c.decompress(), Err(DecompressError::Malformed(_))));
    }

    #[test]
    fn wrong_algorithm_and_encoding_rejected() {
        let c = CompressedLine {
            algorithm: Algorithm::Bdi,
            encoding: 0,
            payload: vec![],
            original_len: 128,
        };
        assert!(matches!(
            decompress_into(&c, &mut [0u8; 128]),
            Err(DecompressError::WrongAlgorithm { .. })
        ));
        let c = CompressedLine {
            algorithm: Algorithm::Fpc,
            encoding: 3,
            payload: vec![],
            original_len: 128,
        };
        assert!(matches!(
            decompress_into(&c, &mut [0u8; 128]),
            Err(DecompressError::BadEncoding(3))
        ));
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn bad_line_size_panics() {
        let _ = compress(&[0u8; 5]);
    }
}
