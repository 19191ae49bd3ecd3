//! C-Pack dictionary compression (Chen et al., IEEE TVLSI 2010), adapted for
//! CABA as described in §4.1.3 of the paper: the number of supported
//! encodings is reduced, and the dictionary entries are placed right after
//! the metadata at the head of the compressed line so the whole line can be
//! decompressed after a single setup step.
//!
//! # Payload layout
//!
//! ```text
//! [n_dict: 1 B] [dict_0 .. dict_{n-1}: 4 B LE each] [bit-packed codes]
//! codes: 00                  -> zero word
//!        01 idx:4            -> full dictionary match
//!        10 idx:4 byte:8     -> partial match (high 3 bytes), low byte raw
//!        11 word:32          -> uncompressed word
//! ```

use crate::bits::{BitReader, BitWriter};
use crate::{Algorithm, CompressedLine, DecompressError};

const DICT_SIZE: usize = 16;

const C_ZERO: u64 = 0b00;
const C_FULL: u64 = 0b01;
const C_PARTIAL: u64 = 0b10;
const C_RAW: u64 = 0b11;

/// Exact compressed size [`compress`] would produce for
/// `line`, or `None` when incompressible. Builds the same FIFO
/// dictionary on the stack and counts code bits without emitting them.
pub fn scan_size(line: &[u8]) -> Option<usize> {
    assert!(
        !line.is_empty() && line.len().is_multiple_of(4),
        "C-Pack requires a line size that is a multiple of 4 bytes"
    );
    let (dict, nd) = build_dict(line);
    let dict = &dict[..nd];
    let mut bits = 0usize;
    for_each_word(line, |w| {
        bits += if w == 0 {
            2
        } else if dict.contains(&w) {
            2 + 4
        } else if dict.iter().any(|&d| d >> 8 == w >> 8) {
            2 + 4 + 8
        } else {
            2 + 32
        };
    });
    let size = 1 + nd * 4 + bits.div_ceil(8);
    (size < line.len()).then_some(size)
}

/// Streams the line's 32-bit words out of `u64` lane loads (see
/// `fpc::for_each_word`; duplicated here to keep both codecs free of
/// cross-module inlining assumptions).
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

/// First pass: the FIFO dictionary (first `DICT_SIZE` nonzero words that
/// match no earlier entry fully or by high-3-byte prefix), on the stack.
fn build_dict(line: &[u8]) -> ([u32; DICT_SIZE], usize) {
    let mut dict = [0u32; DICT_SIZE];
    let mut nd = 0usize;
    for_each_word(line, |w| {
        if w == 0 || nd == DICT_SIZE {
            return;
        }
        let matched = dict[..nd].iter().any(|&d| d == w || d >> 8 == w >> 8);
        if !matched {
            dict[nd] = w;
            nd += 1;
        }
    });
    (dict, nd)
}

/// Compresses `line` with C-Pack, or `None` when the payload would not be
/// smaller; see [`Algorithm::compress_line`].
pub fn compress(line: &[u8]) -> Option<CompressedLine> {
    assert!(
        !line.is_empty() && line.len().is_multiple_of(4),
        "C-Pack requires a line size that is a multiple of 4 bytes"
    );
    let (dict, nd) = build_dict(line);
    let dict = &dict[..nd];

    // Second pass: emit codes against the (now frozen) dictionary.
    let mut bw = BitWriter::with_capacity(line.len());
    for_each_word(line, |w| {
        if w == 0 {
            bw.write(C_ZERO, 2);
        } else if let Some(idx) = dict.iter().position(|&d| d == w) {
            bw.write(C_FULL, 2);
            bw.write(idx as u64, 4);
        } else if let Some(idx) = dict.iter().position(|&d| d >> 8 == w >> 8) {
            bw.write(C_PARTIAL, 2);
            bw.write(idx as u64, 4);
            bw.write((w & 0xFF) as u64, 8);
        } else {
            bw.write(C_RAW, 2);
            bw.write(w as u64, 32);
        }
    });

    let size = 1 + dict.len() * 4 + bw.byte_len();
    if size >= line.len() {
        return None;
    }
    let mut payload = Vec::with_capacity(size);
    payload.push(dict.len() as u8);
    for d in dict {
        payload.extend_from_slice(&d.to_le_bytes());
    }
    let (codes, _) = bw.finish();
    payload.extend_from_slice(&codes);
    Some(CompressedLine {
        algorithm: Algorithm::CPack,
        encoding: 0,
        payload,
        original_len: line.len(),
    })
}

/// Decompresses a C-Pack `line` into `out`, returning the number of bytes
/// written; see [`Algorithm::decompress_into`].
pub fn decompress_into(line: &CompressedLine, out: &mut [u8]) -> Result<usize, DecompressError> {
    if line.algorithm != Algorithm::CPack {
        return Err(DecompressError::WrongAlgorithm {
            expected: Algorithm::CPack,
            found: line.algorithm,
        });
    }
    if line.encoding != 0 {
        return Err(DecompressError::BadEncoding(line.encoding));
    }
    let payload = &line.payload;
    if payload.is_empty() {
        return Err(DecompressError::Malformed("empty payload"));
    }
    let n_dict = payload[0] as usize;
    if n_dict > DICT_SIZE {
        return Err(DecompressError::Malformed("dictionary too large"));
    }
    if payload.len() < 1 + n_dict * 4 {
        return Err(DecompressError::Malformed("truncated dictionary"));
    }
    let mut dict = [0u32; DICT_SIZE];
    for (i, d) in dict.iter_mut().enumerate().take(n_dict) {
        let off = 1 + i * 4;
        *d = u32::from_le_bytes(payload[off..off + 4].try_into().expect("4 bytes"));
    }
    let dict = &dict[..n_dict];
    let n_words = line.original_len / 4;
    if out.len() < n_words * 4 {
        return Err(DecompressError::Malformed("output buffer too small"));
    }
    let mut r = BitReader::new(&payload[1 + n_dict * 4..]);
    let trunc = DecompressError::Malformed("truncated code stream");
    for wi in 0..n_words {
        let code = r.read(2).ok_or_else(|| trunc.clone())?;
        let w = match code {
            C_ZERO => 0u32,
            C_FULL => {
                let idx = r.read(4).ok_or_else(|| trunc.clone())? as usize;
                *dict
                    .get(idx)
                    .ok_or(DecompressError::Malformed("dictionary index"))?
            }
            C_PARTIAL => {
                let idx = r.read(4).ok_or_else(|| trunc.clone())? as usize;
                let b = r.read(8).ok_or_else(|| trunc.clone())? as u32;
                let d = dict
                    .get(idx)
                    .ok_or(DecompressError::Malformed("dictionary index"))?;
                (d & 0xFFFF_FF00) | b
            }
            C_RAW => r.read(32).ok_or_else(|| trunc.clone())? as u32,
            _ => unreachable!("2-bit code"),
        };
        out[wi * 4..wi * 4 + 4].copy_from_slice(&w.to_le_bytes());
    }
    Ok(n_words * 4)
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
    fn zero_line() {
        // 32 zero words: 1 B header + 64 code bits = 9 bytes.
        let size = round_trip(&[0u8; 128]).unwrap();
        assert_eq!(size, 9);
    }

    #[test]
    fn dictionary_heavy_line_compresses() {
        // Four distinct pointers repeated — classic C-Pack-friendly data.
        let ptrs = [0x8000_1000u32, 0x8000_2000, 0x8000_3000, 0x8000_4000];
        let mut line = Vec::new();
        for i in 0..32 {
            line.extend_from_slice(&ptrs[i % 4].to_le_bytes());
        }
        let size = round_trip(&line).unwrap();
        // 1 + 16 dict bytes + 32*6 code bits = 41 bytes.
        assert_eq!(size, 41);
    }

    #[test]
    fn partial_matches_keep_low_byte() {
        // Words share the high 3 bytes and vary in the low byte.
        let mut line = Vec::new();
        for i in 0..32u32 {
            line.extend_from_slice(&(0xAABB_CC00 | i).to_le_bytes());
        }
        let c = compress(&line).unwrap();
        assert_eq!(c.decompress().unwrap(), line);
        // One dict entry; first word full-matches, rest partial.
        assert_eq!(c.payload[0], 1);
    }

    #[test]
    fn incompressible_returns_none() {
        // 32 distinct high-entropy words exhaust the dictionary and emit raw
        // codes: 1 + 64 + 16*(34 bits) + 16*(6ish)... definitively > 128.
        let mut line = Vec::with_capacity(128);
        let mut x: u32 = 3;
        while line.len() < 128 {
            x = x.wrapping_mul(0x9E37_79B9).wrapping_add(1);
            line.extend_from_slice(&x.to_le_bytes());
        }
        assert!(compress(&line).is_none());
    }

    #[test]
    fn mixed_content_round_trips() {
        let mut line = Vec::new();
        let words: [u32; 8] = [
            0,
            0x1234_5678,
            0x1234_5699, // partial match with previous
            0,
            0xFFFF_FFFF,
            0x1234_5678, // full match
            42,
            0xFFFF_FF00, // partial with 0xFFFF_FFFF
        ];
        for i in 0..32 {
            line.extend_from_slice(&words[i % 8].to_le_bytes());
        }
        if let Some(c) = compress(&line) {
            assert_eq!(c.decompress().unwrap(), line);
        }
    }

    #[test]
    fn malformed_payloads_rejected() {
        for payload in [vec![], vec![17u8], vec![2u8, 0, 0, 0, 0]] {
            let c = CompressedLine {
                algorithm: Algorithm::CPack,
                encoding: 0,
                payload,
                original_len: 128,
            };
            assert!(matches!(c.decompress(), Err(DecompressError::Malformed(_))));
        }
    }

    #[test]
    fn wrong_algorithm_rejected() {
        let c = CompressedLine {
            algorithm: Algorithm::Fpc,
            encoding: 0,
            payload: vec![0],
            original_len: 128,
        };
        assert!(matches!(
            decompress_into(&c, &mut [0u8; 128]),
            Err(DecompressError::WrongAlgorithm { .. })
        ));
    }

    #[test]
    fn truncated_code_stream_rejected() {
        let mut line = Vec::new();
        for i in 0..32u32 {
            line.extend_from_slice(&(0xAABB_CC00 | i).to_le_bytes());
        }
        let mut c = compress(&line).unwrap();
        c.payload.truncate(c.payload.len() - 2);
        assert!(matches!(c.decompress(), Err(DecompressError::Malformed(_))));
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn bad_line_size_panics() {
        let _ = compress(&[0u8; 6]);
    }
}
