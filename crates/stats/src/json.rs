//! Hand-rolled JSON toolkit shared by every emitter in the workspace.
//!
//! The repository builds fully offline with zero external dependencies, so
//! reports and traces are serialized by hand. This module centralizes the
//! three pieces every emitter needs — string escaping, a stable float
//! format, and a minimal validating parser — so the sweep report, the
//! Perfetto trace writer and the fig01 emitter cannot drift apart, and the
//! test suites can check well-formedness without pulling in serde.
//!
//! # Examples
//!
//! ```
//! use caba_stats::json;
//! let s = format!("{{\"name\": \"{}\"}}", json::escape("a\"b\\c\n"));
//! json::validate(&s).expect("escaped output parses");
//! assert_eq!(json::fmt_f64(0.25), "0.25");
//! ```
//!
//! [`write_escaped`], [`write_f64`] and [`write_u64`] append to a buffer the
//! caller owns, so an emitter that renders many values (a figure table row
//! per cell) allocates nothing per value; [`escape`] and [`fmt_f64`] are the
//! same text as a fresh `String`. The two number writers produce the bytes
//! `core::fmt` would, from integer arithmetic alone: every emitter on a warm
//! path (figure rows, `/cell` and `/result` bodies, store reports) writes
//! through them and never through `write!` or `format!`.

use std::fmt::{self, Write as _};

/// Escapes `s` for inclusion inside a JSON string literal (without the
/// surrounding quotes).
///
/// Handles the two mandatory escapes (`"` and `\`) plus all control
/// characters below U+0020, using the short forms where JSON defines them.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_escaped(&mut out, s);
    out
}

/// [`escape`], appended to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
}

/// Formats a float compactly but losslessly enough for reports: six decimal
/// places with trailing zeros trimmed, and non-finite values mapped to
/// `null` (JSON has no NaN/Infinity).
pub fn fmt_f64(x: f64) -> String {
    let mut out = String::new();
    write_f64(&mut out, x);
    out
}

/// [`fmt_f64`], appended to `out`: the text of `{:.6}` with its trailing
/// zeros, then a trailing `.`, cut off. Finite values always print a digit
/// before the point, so nothing is left empty: `-1e-7` prints `-0`, as
/// `{:.6}` does.
///
/// The digits come from `micro_units`, exact integer arithmetic that
/// rounds a tie to even as `{:.6}` does (`0.0078125` prints `0.007812`).
/// Only a value of 2^64 micro-units or more (|x| ≳ 1.8·10¹³) takes the
/// `core::fmt` path.
pub fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let Some(micros) = micro_units(x) else {
        return write_f64_fmt(out, x);
    };
    // Filled from the back: fraction digits, point, integer digits, sign.
    let mut buf = [0u8; 28];
    let mut at = buf.len();
    let (int, mut frac) = (micros / 1_000_000, micros % 1_000_000);
    if frac != 0 {
        let mut digits = 6;
        while frac % 10 == 0 {
            frac /= 10;
            digits -= 1;
        }
        put_digits(&mut buf[at - digits..at], frac);
        at -= digits + 1;
        buf[at] = b'.';
    }
    at = put_u64(&mut buf[..at], int);
    if x.is_sign_negative() {
        at -= 1;
        buf[at] = b'-';
    }
    push_ascii(out, &buf[at..]);
}

/// `round_half_even(|x| · 10⁶)`, exactly, or `None` when it does not fit a
/// `u64`. `|x| = m · 2^e`, so `|x| · 10⁶ = m · 5⁶ · 2^(e + 6)`: one 67-bit
/// product, shifted right with the bits shifted out deciding the rounding.
fn micro_units(x: f64) -> Option<u64> {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (m, e) = match biased {
        0 => (fraction, -1074),
        _ => (fraction | 1 << 52, biased - 1075),
    };
    let product = m as u128 * 15_625;
    let shift = -(e + 6);
    if shift <= 0 {
        // A normal value this large (≥ 2^46) has at least 2^65 micro-units.
        return None;
    }
    if shift > 67 {
        // The product is below 2^67, so below half of 2^shift: rounds to 0.
        return Some(0);
    }
    let shift = shift as u32;
    let (q, rest, half) = (
        product >> shift,
        product & ((1 << shift) - 1),
        1 << (shift - 1),
    );
    let round_up = rest > half || (rest == half && q & 1 == 1);
    u64::try_from(q + round_up as u128).ok()
}

/// The `{:.6}` text, written in place and trimmed: [`write_f64`] for values
/// too large for [`micro_units`].
#[cold]
fn write_f64_fmt(out: &mut String, x: f64) {
    let start = out.len();
    write!(out, "{x:.6}").expect("writing to a String cannot fail");
    let kept = out[start..]
        .trim_end_matches('0')
        .trim_end_matches('.')
        .len();
    out.truncate(start + kept);
}

/// `v` in decimal, as `v.to_string()` spells it, appended to `out`.
pub fn write_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let at = put_u64(&mut buf, v);
    push_ascii(out, &buf[at..]);
}

/// Writes `v`'s decimal digits at the end of `buf` and returns where they
/// start. `buf` must have room for them (20 bytes hold any `u64`).
fn put_u64(buf: &mut [u8], v: u64) -> usize {
    let digits = v.checked_ilog10().map_or(1, |l| l as usize + 1);
    let at = buf.len() - digits;
    put_digits(&mut buf[at..], v);
    at
}

/// Fills `buf` with the low `buf.len()` decimal digits of `v`, zero-padded.
fn put_digits(buf: &mut [u8], mut v: u64) {
    for d in buf.iter_mut().rev() {
        *d = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.push_str(std::str::from_utf8(bytes).expect("digits, a point and a sign are ASCII"));
}

/// A JSON well-formedness error from [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Validates that `s` is one well-formed JSON value (RFC 8259 grammar:
/// objects, arrays, strings with escapes, numbers, booleans, null).
///
/// This is a recognizer, not a deserializer — it builds no value tree, so
/// multi-megabyte traces validate in one pass with O(depth) memory.
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first grammar violation.
pub fn validate(s: &str) -> Result<(), JsonError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the top-level value"));
    }
    Ok(())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn object(&mut self) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<(), JsonError> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err(self.err("expected 4 hex digits after \\u")),
                                }
                            }
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), JsonError> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            match self.peek() {
                Some(b'0'..=b'9') => self.digits(),
                _ => return Err(self.err("expected a digit after '.'")),
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            match self.peek() {
                Some(b'0'..=b'9') => self.digits(),
                _ => return Err(self.err("expected a digit in exponent")),
            }
        }
        Ok(())
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc\r"), "a\\nb\\tc\\r");
        assert_eq!(escape("\u{08}\u{0C}"), "\\b\\f");
        assert_eq!(escape("\u{01}"), "\\u0001");
        // Non-ASCII passes through unescaped (JSON strings are Unicode).
        assert_eq!(escape("µs"), "µs");
    }

    #[test]
    fn fmt_f64_is_compact_and_valid() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1.0), "1");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(-2.5), "-2.5");
        assert_eq!(fmt_f64(1.0 / 3.0), "0.333333");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        for x in [0.0, 1.0, 0.25, -2.5, 1.0 / 3.0, 1e-9, -0.0] {
            validate(&fmt_f64(x)).unwrap_or_else(|e| panic!("{x}: {e}"));
        }
    }

    /// The formatter [`write_f64`] replaced: a fresh `{:.6}` string,
    /// trimmed, then copied.
    fn reference_fmt_f64(x: f64) -> String {
        if !x.is_finite() {
            return "null".to_string();
        }
        let s = format!("{x:.6}");
        let s = s.trim_end_matches('0');
        let s = s.trim_end_matches('.');
        if s.is_empty() || s == "-" {
            "0".to_string()
        } else {
            s.to_string()
        }
    }

    /// `write_f64` appended after `prefix` leaves the prefix and adds
    /// exactly the reference's text.
    fn assert_writes_reference(prefix: &str, x: f64) {
        let mut out = prefix.to_string();
        write_f64(&mut out, x);
        let want = reference_fmt_f64(x);
        assert_eq!(out.strip_prefix(prefix), Some(want.as_str()), "{x:e}");
    }

    #[test]
    fn write_f64_matches_the_reference_formatter() {
        let edges = [
            0.0,
            -0.0,
            1.0,
            -1e-7,
            0.9999995,
            -0.9999995,
            5e-7,
            4.9999999e-7,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0,
            -f64::from_bits(1),
            1e15,
            -1e15,
            1e300,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for x in edges {
            assert_writes_reference("", x);
            assert_writes_reference("\"ipc\": ", x);
        }
        assert_eq!(fmt_f64(-1e-7), "-0");
        assert_eq!(fmt_f64(1e15), "1000000000000000");
        assert_eq!(fmt_f64(f64::MAX).len(), 309);
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "null");
        // `{:.6}` rounds a tie at the sixth decimal to even.
        assert_eq!(fmt_f64(0.0078125), "0.007812");
        assert_eq!(fmt_f64(0.0234375), "0.023438");
        assert_eq!(fmt_f64(-0.0000005), "-0");
        let below = FALLBACK_LIMIT.next_down();
        assert_eq!(micro_units(below), Some(18_446_744_073_709_550_781));
        assert_eq!(micro_units(FALLBACK_LIMIT), None);
        assert_eq!(fmt_f64(below), "18446744073709.550781");
        assert_eq!(fmt_f64(FALLBACK_LIMIT), "18446744073709.554688");
    }

    /// The smallest `f64` with 2^64 micro-units or more, exactly
    /// 18 446 744 073 709.554 687 5: where [`write_f64`] leaves integer
    /// arithmetic for `core::fmt`.
    const FALLBACK_LIMIT: f64 = 18_446_744_073_709.555;

    /// Sixteen values for the differential: every class where the integer
    /// writer could part from `{:.6}`.
    fn differential_values(rng: &mut crate::Rng64) -> [f64; 16] {
        // On either side of the fallback limit, up to 2^20 ulps away.
        let ulps = rng.range_u64(1 << 21) as i64 - (1 << 20);
        let near_limit = f64::from_bits(FALLBACK_LIMIT.to_bits().wrapping_add_signed(ulps));
        // A tie at the sixth decimal is an odd multiple of 2^-7; a
        // multiple of a smaller power of two sits just beside one.
        let tie = (2 * rng.range_u64(1 << 40) + 1) as f64 / 128.0;
        let dyadic = rng.range_u64(1 << 30) as f64 / (1u64 << rng.range(7, 63)) as f64;
        let boundary = rng.range_u64(10_000_000) as f64 / 1e6 + 5e-7;
        let huge = (rng.next_f64() + 1.0) * 2f64.powi(rng.range(30, 1024) as i32);
        let decade = rng.next_f64() * 10f64.powi(rng.range(0, 16) as i32);
        let mut values = [
            f64::from_bits(rng.next_u64()),
            rng.next_f64(),
            f64::from_bits(rng.range_u64(1 << 52)),
            0.0,
            tie,
            dyadic,
            near_limit,
            rng.range_u64(1 << 53) as f64,
            huge,
            decade,
            boundary,
            f64::from_bits(rng.next_u64() >> rng.range_u64(12)),
            // Negatives that round to -0.
            -rng.next_f64() * 1e-6,
            -boundary,
            -rng.next_f64(),
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.range_u64(3) as usize],
        ];
        let signs = rng.next_u64();
        for (i, x) in values[2..12].iter_mut().enumerate() {
            if signs >> i & 1 == 1 {
                *x = -*x;
            }
        }
        values
    }

    /// `write_f64` equals `{:.6}` on `cases` × 16 values.
    fn differential(seed: u64, cases: u32) {
        let mut out = String::new();
        crate::prop::check(seed, cases, |rng| {
            for x in differential_values(rng) {
                out.clear();
                write_f64(&mut out, x);
                assert_eq!(out, reference_fmt_f64(x), "{x:e} ({:#018x})", x.to_bits());
            }
        });
    }

    #[test]
    fn write_f64_matches_the_reference_on_a_million_values() {
        differential(0xF64_F64, 65_000);
    }

    /// The same differential at 20 M values, for a release build:
    /// `cargo test --release -p caba-stats --lib json -- --ignored`.
    #[test]
    #[ignore = "20 M values: run in release with --ignored"]
    fn write_f64_matches_the_reference_on_twenty_million_values() {
        differential(0x20_F64_F64, 1_250_000);
    }

    #[test]
    fn write_u64_spells_what_to_string_spells() {
        let mut out = String::new();
        let mut check = |v: u64| {
            out.clear();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        };
        for p in 0..20 {
            let ten = 10u64.pow(p);
            for v in [ten - 1, ten, ten + 1] {
                check(v);
            }
        }
        for v in [0, u64::MAX - 1, u64::MAX] {
            check(v);
        }
        crate::prop::check(0x0064_0064, 1_000, |rng| {
            check(rng.next_u64() >> rng.range_u64(64));
        });
    }

    #[test]
    fn write_escaped_appends_what_escape_returns() {
        for s in ["plain", "a\"b\\c\n", "\u{01}\u{1f}µs\t", ""] {
            let mut out = String::from("[");
            write_escaped(&mut out, s);
            assert_eq!(out, format!("[{}", escape(s)));
        }
    }

    #[test]
    fn validate_accepts_well_formed_documents() {
        for s in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            "\"a\\u00e9\\n\"",
            "{\"a\": [1, 2, {\"b\": null}], \"c\": \"d\"}",
            " [ 1 , 2 ] ",
        ] {
            validate(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        for s in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a: 1}",
            "\"unterminated",
            "\"bad \\x escape\"",
            "01",
            "1.",
            "1e",
            "nulL",
            "[1] extra",
            "\"ctrl \u{01}\"",
        ] {
            assert!(validate(s).is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn errors_carry_an_offset() {
        let e = validate("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }
}
