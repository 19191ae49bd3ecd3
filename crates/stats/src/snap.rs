//! Hand-rolled binary snapshot serialization.
//!
//! The checkpoint/restore subsystem needs a compact, deterministic,
//! dependency-free wire format for full machine state. This module provides
//! the three layers every crate builds on:
//!
//! * [`SnapshotWriter`] / [`SnapshotReader`] — little-endian primitive
//!   encoding with length-prefixed byte strings. The reader is fully
//!   validating: every read returns a [`SnapError`] instead of panicking, so
//!   corrupt or truncated input can never take the process down.
//! * [`SnapshotState`] — the round-trip trait (`save` then `load` must
//!   reproduce the value exactly, and re-`save` must be byte-identical).
//!   Implemented here for primitives, tuples, arrays, `Option`, `Vec`,
//!   `VecDeque` and `String`; simulator crates implement it for their own
//!   state.
//! * [`checksum64`] — FNV-1a over the payload, the integrity seal of the
//!   container format in `caba_sim::snapshot`.
//!
//! Determinism contract: any map-shaped state must be serialized in sorted
//! key order, and any internal cache that is *pure memoization* (rebuildable
//! from serialized state without affecting timing) must be excluded so that
//! serialize → restore → re-serialize is byte-identical.
//!
//! # Examples
//!
//! ```
//! use caba_stats::snap::{SnapshotReader, SnapshotState, SnapshotWriter};
//!
//! let mut w = SnapshotWriter::new();
//! (7u64, vec![1u32, 2, 3]).save(&mut w);
//! let bytes = w.into_bytes();
//!
//! let mut r = SnapshotReader::new(&bytes);
//! let back = <(u64, Vec<u32>)>::load(&mut r).unwrap();
//! r.finish().unwrap();
//! assert_eq!(back, (7, vec![1, 2, 3]));
//! ```

use std::collections::VecDeque;
use std::fmt;

/// Typed decode failure. Never panics, never partially applies: callers see
/// exactly why a byte stream was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before `wanted` more bytes could be read.
    UnexpectedEof {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// An enum discriminant or sentinel byte had no defined meaning.
    BadTag {
        /// Which decoder rejected the tag.
        what: &'static str,
        /// The offending value.
        tag: u64,
    },
    /// A length prefix exceeds the bytes remaining in the stream, so the
    /// collection it describes cannot possibly be present.
    LengthOverflow {
        /// Which decoder rejected the length.
        what: &'static str,
        /// The claimed element count.
        len: u64,
    },
    /// [`SnapshotReader::finish`] found unconsumed bytes.
    TrailingBytes {
        /// Bytes left over.
        remaining: usize,
    },
    /// A decoded value violated a structural invariant of the target
    /// (for example, a cache blob whose set count disagrees with the
    /// configured geometry).
    Invariant {
        /// Which invariant failed.
        what: &'static str,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof { wanted, remaining } => {
                write!(
                    f,
                    "unexpected end of snapshot: wanted {wanted} bytes, {remaining} left"
                )
            }
            SnapError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            SnapError::LengthOverflow { what, len } => {
                write!(f, "{what} length {len} exceeds remaining snapshot bytes")
            }
            SnapError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after snapshot payload")
            }
            SnapError::Invariant { what } => write!(f, "snapshot violates invariant: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// The workspace-wide FNV-1a-64 checksum, the payload seal of every
/// container format (re-exported from [`crate::checksum`], the single
/// implementation).
pub use crate::checksum::checksum64;

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with room for `bytes` bytes: a caller that knows the
    /// encoded size up front pays for one allocation, not a doubling series.
    pub fn with_capacity(bytes: usize) -> Self {
        SnapshotWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16` little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `i64` little-endian (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends raw bytes with no length prefix (container framing only).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Validating little-endian decoder over a byte slice.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapshotReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof {
                wanted: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::LengthOverflow {
            what: "usize",
            len: v,
        })
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is a [`SnapError::BadTag`].
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::BadTag {
                what: "bool",
                tag: t as u64,
            }),
        }
    }

    /// Reads exactly `n` raw bytes with no length prefix (the counterpart of
    /// [`SnapshotWriter::raw`], for fixed-size blobs and container framing).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return Err(SnapError::LengthOverflow { what: "bytes", len });
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, SnapError> {
        let b = self.bytes()?;
        std::str::from_utf8(b)
            .map(str::to_owned)
            .map_err(|_| SnapError::Invariant {
                what: "string is not UTF-8",
            })
    }

    /// Reads a collection length prefix, rejecting lengths that cannot fit
    /// in the remaining bytes (each element needs at least `min_elem_bytes`).
    /// This bounds allocation before the checksum layer has a say.
    pub fn seq_len(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, SnapError> {
        let len = self.u64()?;
        let need = len.saturating_mul(min_elem_bytes.max(1) as u64);
        if need > self.remaining() as u64 {
            return Err(SnapError::LengthOverflow { what, len });
        }
        Ok(len as usize)
    }

    /// Fails unless every byte was consumed — catches framing bugs and
    /// appended garbage alike.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            Err(SnapError::TrailingBytes {
                remaining: self.remaining(),
            })
        } else {
            Ok(())
        }
    }
}

/// Exact round-trip binary serialization for a value type.
///
/// Contract: `load(save(x)) == x`, and `save(load(save(x)))` yields bytes
/// identical to `save(x)` (pinned by `caba_stats::prop` round-trip tests
/// for every implementation in the workspace).
pub trait SnapshotState: Sized {
    /// Appends this value's encoding to the writer.
    fn save(&self, w: &mut SnapshotWriter);
    /// Decodes one value, consuming exactly the bytes `save` wrote.
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! prim_impl {
    ($t:ty, $w:ident, $r:ident) => {
        impl SnapshotState for $t {
            fn save(&self, w: &mut SnapshotWriter) {
                w.$w(*self);
            }
            fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
                r.$r()
            }
        }
    };
}

prim_impl!(u8, u8, u8);
prim_impl!(u16, u16, u16);
prim_impl!(u32, u32, u32);
prim_impl!(u64, u64, u64);
prim_impl!(usize, usize, usize);
prim_impl!(i64, i64, i64);
prim_impl!(f64, f64, f64);
prim_impl!(bool, bool, bool);

impl SnapshotState for String {
    fn save(&self, w: &mut SnapshotWriter) {
        w.str(self);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        r.string()
    }
}

impl<A: SnapshotState, B: SnapshotState> SnapshotState for (A, B) {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: SnapshotState, B: SnapshotState, C: SnapshotState> SnapshotState for (A, B, C) {
    fn save(&self, w: &mut SnapshotWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<T: SnapshotState> SnapshotState for Option<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            t => Err(SnapError::BadTag {
                what: "Option",
                tag: t as u64,
            }),
        }
    }
}

impl<T: SnapshotState> SnapshotState for Vec<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        let len = r.seq_len("Vec", 1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: SnapshotState> SnapshotState for VecDeque<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        let len = r.seq_len("VecDeque", 1)?;
        let mut out = VecDeque::with_capacity(len);
        for _ in 0..len {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: SnapshotState + Copy + Default, const N: usize> SnapshotState for [T; N] {
    fn save(&self, w: &mut SnapshotWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::load(r)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: SnapshotState + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = SnapshotWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let back = T::load(&mut r).expect("load");
        r.finish().expect("finish");
        assert_eq!(&back, v);
        // Re-serialize must be byte-identical.
        let mut w2 = SnapshotWriter::new();
        back.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&u8::MAX);
        round_trip(&0xBEEFu16);
        round_trip(&0xDEAD_BEEFu32);
        round_trip(&u64::MAX);
        round_trip(&usize::MAX);
        round_trip(&-42i64);
        round_trip(&3.5f64);
        round_trip(&true);
        round_trip(&false);
        round_trip(&"héllo".to_string());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&Some(7u64));
        round_trip(&Option::<u64>::None);
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&Vec::<u64>::new());
        round_trip(&VecDeque::from([9u64, 8, 7]));
        round_trip(&(1u8, 2u64));
        round_trip(&(1u8, 2u64, vec![3u32]));
        round_trip(&[1u64, 2, 3]);
        round_trip(&vec![[1u64; 4], [2u64; 4]]);
    }

    #[test]
    fn truncated_input_is_eof() {
        let mut w = SnapshotWriter::new();
        0xAABB_CCDDu32.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes[..2]);
        assert!(matches!(
            u32::load(&mut r),
            Err(SnapError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn bad_bool_and_option_tags_rejected() {
        let mut r = SnapshotReader::new(&[2]);
        assert!(matches!(
            bool::load(&mut r),
            Err(SnapError::BadTag { what: "bool", .. })
        ));
        let mut r = SnapshotReader::new(&[9]);
        assert!(matches!(
            Option::<u8>::load(&mut r),
            Err(SnapError::BadTag { what: "Option", .. })
        ));
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        // Claim 2^60 elements with 8 bytes of actual payload.
        let mut w = SnapshotWriter::new();
        w.u64(1 << 60);
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(
            Vec::<u8>::load(&mut r),
            Err(SnapError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = SnapshotWriter::new();
        7u64.save(&mut w);
        w.u8(0xFF);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        u64::load(&mut r).unwrap();
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn checksum_stable_and_sensitive() {
        let a = checksum64(b"caba snapshot");
        assert_eq!(a, checksum64(b"caba snapshot"));
        assert_ne!(a, checksum64(b"caba snapshor"));
        // FNV-1a offset basis for the empty string (the one implementation
        // lives in `crate::checksum`; this re-export must stay identical).
        assert_eq!(checksum64(b""), crate::checksum::FNV_OFFSET);
    }
}
