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
//! [`write_escaped`] and [`write_f64`] append to a buffer the caller owns,
//! so an emitter that renders many values (a figure table row per cell)
//! allocates nothing per value; [`escape`] and [`fmt_f64`] are the same
//! text as a fresh `String`.

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

/// [`fmt_f64`], appended to `out`: the `{:.6}` text is written in place and
/// its trailing zeros, then a trailing `.`, are cut off again. Finite
/// values always print a digit before the point, so nothing is left empty:
/// `-1e-7` prints `-0`, as it always has.
pub fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    write!(out, "{x:.6}").expect("writing to a String cannot fail");
    let kept = out[start..]
        .trim_end_matches('0')
        .trim_end_matches('.')
        .len();
    out.truncate(start + kept);
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

        crate::prop::check(0xF64_F64, 4_000, |rng| {
            // Any bit pattern (NaNs, subnormals, huge), a rate in [0, 1),
            // a count-sized integer, and a value on a 7th-decimal boundary.
            let boundary = rng.range_u64(10_000_000) as f64 / 1e6 + 5e-7;
            for x in [
                f64::from_bits(rng.next_u64()),
                rng.next_f64(),
                -rng.next_f64(),
                rng.range_u64(1 << 40) as f64,
                boundary,
                -boundary,
            ] {
                assert_writes_reference("", x);
            }
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
