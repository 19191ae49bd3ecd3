//! The one FNV-1a-64 checksum implementation in the workspace, and the
//! *sealed-container* framing contract built on it.
//!
//! Every durable byte container in the repository — the `CABASNAP` machine
//! snapshot (`caba_sim::snapshot`), the on-disk store entries of
//! `caba-store`, and the lines of the store's touch log and the sweep
//! journal ([`seal_line`]) — seals its bytes with the same trailing
//! checksum. Every container that is read back verifies it **before any
//! field is decoded**; of the sealed lines, only the touch log's are read
//! ([`verify_line`]), since nothing reads the journal. Centralizing the
//! hash and the framing here keeps the corruption-rejection behaviour
//! identical everywhere: a torn, truncated, or bit-flipped container is
//! rejected as a unit, and corrupt bytes never reach a decoder.
//!
//! # Examples
//!
//! ```
//! use caba_stats::checksum::{seal, verify_sealed};
//!
//! let sealed = seal(b"payload".to_vec());
//! assert_eq!(verify_sealed(&sealed), Some(&b"payload"[..]));
//!
//! let mut torn = sealed.clone();
//! torn.pop();
//! assert_eq!(verify_sealed(&torn), None);
//! ```

/// FNV-1a 64-bit offset basis (the checksum of the empty string).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit checksum over a byte slice — the integrity seal of every
/// container format in the workspace.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// [`checksum64`] of four byte slices at once: lane `i` of the result is
/// `checksum64(lanes[i])`.
///
/// FNV-1a is one serial xor-multiply chain, so a single sum waits out the
/// multiply's latency on every byte. Four independent chains, interleaved
/// byte by byte up to the shortest lane, keep the multiplier busy; each
/// lane then finishes its own tail alone. Four is where that stops paying:
/// with one multiply issued per cycle, four lanes saturate it (DESIGN.md
/// "Checksum" has the 1/2/4/8-lane numbers).
pub fn checksum64x4(lanes: [&[u8]; 4]) -> [u64; 4] {
    let shared = lanes.iter().map(|lane| lane.len()).min().unwrap_or(0);
    let [a, b, c, d] = lanes.map(|lane| &lane[..shared]);
    let mut h = [FNV_OFFSET; 4];
    for (((&x0, &x1), &x2), &x3) in a.iter().zip(b).zip(c).zip(d) {
        h[0] = (h[0] ^ x0 as u64).wrapping_mul(FNV_PRIME);
        h[1] = (h[1] ^ x1 as u64).wrapping_mul(FNV_PRIME);
        h[2] = (h[2] ^ x2 as u64).wrapping_mul(FNV_PRIME);
        h[3] = (h[3] ^ x3 as u64).wrapping_mul(FNV_PRIME);
    }
    for (h, lane) in h.iter_mut().zip(lanes) {
        *h = Fnv64 { h: *h }.update(&lane[shared..]).finish();
    }
    h
}

/// Streaming FNV-1a-64 state, for checksumming data that arrives in
/// pieces (store entry headers + payloads) without concatenating first.
/// `Fnv64::new().update(a).update(b).finish()` equals
/// [`checksum64`] of `a ++ b`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64 {
    h: u64,
}

impl Fnv64 {
    /// Fresh state (the offset basis).
    pub fn new() -> Self {
        Fnv64 { h: FNV_OFFSET }
    }

    /// Folds `bytes` into the state; returns `&mut self` for chaining.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.h ^= b as u64;
            self.h = self.h.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Appends the trailing little-endian checksum, turning `body` into a
/// sealed container. The inverse of [`verify_sealed`].
pub fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let sum = checksum64(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// Verifies the trailing checksum of a sealed container and returns the
/// body it covers, or `None` when the bytes are torn, truncated, or
/// corrupted. Runs **before** any decoding — the checksum-before-decode
/// contract shared by every container format in the workspace.
pub fn verify_sealed(bytes: &[u8]) -> Option<&[u8]> {
    let (body, stored) = split_sealed(bytes)?;
    (checksum64(body) == stored).then_some(body)
}

/// A sealed container split into the body and the checksum stored after
/// it, or `None` when it is too short to hold one.
fn split_sealed(bytes: &[u8]) -> Option<(&[u8], u64)> {
    let body_len = bytes.len().checked_sub(8)?;
    let (body, tail) = bytes.split_at(body_len);
    Some((body, u64::from_le_bytes(tail.try_into().ok()?)))
}

/// [`verify_sealed`] of four containers at once, their checksums taken by
/// [`checksum64x4`]: lane `i` of the result is `verify_sealed(containers[i])`.
/// A container too short to hold a checksum joins the other lanes as an
/// empty one and verifies as `None`.
pub fn verify_sealed_x4(containers: [&[u8]; 4]) -> [Option<&[u8]>; 4] {
    let split = containers.map(split_sealed);
    let sums = checksum64x4(split.map(|s| s.map_or(&[][..], |(body, _)| body)));
    let mut out = [None; 4];
    for ((out, split), sum) in out.iter_mut().zip(split).zip(sums) {
        *out = split.and_then(|(body, stored)| (sum == stored).then_some(body));
    }
    out
}

/// The separator between a sealed line's body and its checksum field.
const LINE_SUM: &str = " sum=";

/// Seals one line of a text log: appends `" sum="`, the body's checksum as
/// 16 hex digits and a newline — the framing of the store's touch log and
/// the sweep journal. The inverse of [`verify_line`].
///
/// ```
/// use caba_stats::checksum::{seal_line, verify_line};
///
/// let line = seal_line("touch rs 00ff 0001".to_string());
/// assert_eq!(verify_line(line.trim_end_matches('\n')), Some("touch rs 00ff 0001"));
/// assert_eq!(verify_line(&line[..line.len() - 3]), None);
/// ```
pub fn seal_line(mut body: String) -> String {
    seal_line_in(&mut body, 0);
    body
}

/// [`seal_line`] in place: the body is `buf[body_start..]`, and the
/// checksum field and newline are appended to `buf`, so a caller that
/// writes its lines into one buffer allocates nothing per line.
pub fn seal_line_in(buf: &mut String, body_start: usize) {
    let sum = checksum64(&buf.as_bytes()[body_start..]);
    buf.push_str(LINE_SUM);
    write_hex16(buf, sum);
    buf.push('\n');
}

/// `x` as `format!("{x:016x}")` spells it, without the `String`: the form
/// every key and checksum in the workspace is written, named and hashed in.
pub fn hex16(x: u64) -> [u8; 16] {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = [0u8; 16];
    for (i, d) in out.iter_mut().enumerate() {
        *d = DIGITS[(x >> (60 - 4 * i)) as usize & 0xf];
    }
    out
}

/// [`hex16`], appended to `out`.
pub fn write_hex16(out: &mut String, x: u64) {
    out.push_str(std::str::from_utf8(&hex16(x)).expect("hex digits are ASCII"));
}

/// Verifies one sealed line (without its newline) and returns the body the
/// checksum covers, or `None` for a torn, corrupt or foreign line. The
/// checksum field is everything after the last `" sum="` and must be hex
/// digits and nothing else: a caller that tolerates trailing whitespace
/// trims before calling. Like [`verify_sealed`] this runs **before** the
/// body is parsed.
pub fn verify_line(line: &str) -> Option<&str> {
    let at = line
        .as_bytes()
        .windows(LINE_SUM.len())
        .rposition(|w| w == LINE_SUM.as_bytes())?;
    let (body, field) = (&line[..at], &line[at + LINE_SUM.len()..]);
    let sum = u64::from_str_radix(field, 16).ok()?;
    (checksum64(body.as_bytes()) == sum).then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_matches_reference_vectors() {
        // FNV-1a offset basis for the empty string.
        assert_eq!(checksum64(b""), FNV_OFFSET);
        assert_eq!(checksum64(b"caba snapshot"), checksum64(b"caba snapshot"));
        assert_ne!(checksum64(b"caba snapshot"), checksum64(b"caba snapshor"));
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut h = Fnv64::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.finish(), checksum64(data), "split at {split}");
        }
    }

    #[test]
    fn seal_verify_round_trip_and_rejection() {
        let sealed = seal(vec![1, 2, 3, 4, 5]);
        assert_eq!(verify_sealed(&sealed), Some(&[1u8, 2, 3, 4, 5][..]));
        // Every truncation is rejected.
        for len in 0..sealed.len() {
            assert_eq!(verify_sealed(&sealed[..len]), None, "truncated to {len}");
        }
        // Every flipped bit is rejected.
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(verify_sealed(&bad), None, "flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn sealed_lines_round_trip_and_reject_every_tear_and_flip() {
        let line = seal_line("cell 00ff wall=3ff0 stats=".to_string());
        assert_eq!(
            line,
            format!(
                "cell 00ff wall=3ff0 stats= sum={:016x}\n",
                checksum64(b"cell 00ff wall=3ff0 stats=")
            )
        );
        let whole = line
            .strip_suffix('\n')
            .expect("sealed lines end in a newline");
        assert_eq!(verify_line(whole), Some("cell 00ff wall=3ff0 stats="));
        for len in 0..whole.len() {
            assert_eq!(verify_line(&whole[..len]), None, "torn at {len}");
        }
        for byte in 0..whole.len() {
            let mut bad = whole.as_bytes().to_vec();
            bad[byte] ^= 0x01;
            let bad = String::from_utf8(bad).expect("an ASCII line stays ASCII");
            assert_eq!(verify_line(&bad), None, "flip at {byte}");
        }
        // The field is the digits alone, and the last separator wins.
        assert_eq!(verify_line(&format!("{whole} ")), None);
        assert_eq!(verify_line(&line), None, "the newline is not the line's");
        let nested = seal_line(whole.to_string());
        assert_eq!(verify_line(nested.trim_end()), Some(whole));
        assert_eq!(verify_line(" sum=cbf29ce484222325"), Some(""));

        // Sealed in place after earlier lines, only the new body is summed.
        let mut buf = line.clone();
        let start = buf.len();
        buf.push_str("cell 00ff wall=3ff0 stats=");
        seal_line_in(&mut buf, start);
        assert_eq!(buf, format!("{line}{line}"));
    }

    #[test]
    fn hex16_spells_what_format_spells() {
        crate::prop::check(0x4E16, 256, |rng| {
            for x in [
                rng.next_u64(),
                rng.next_u64() >> rng.range_u64(64),
                0,
                u64::MAX,
            ] {
                assert_eq!(hex16(x), format!("{x:016x}").as_bytes(), "{x:#x}");
                let mut out = String::from("key=");
                write_hex16(&mut out, x);
                assert_eq!(out, format!("key={x:016x}"));
            }
        });
    }

    /// Lanes cut from `pool` at random offsets: lengths 0 to 2 KiB, skewed
    /// short so a million quadruples stay quick in a debug build, and one
    /// lane in eight empty.
    fn random_lane<'a>(rng: &mut crate::rng::Rng64, pool: &'a [u8]) -> &'a [u8] {
        let len = if rng.range_u64(8) == 0 {
            0
        } else {
            (rng.range_u64(2049) >> rng.range_u64(12)) as usize
        };
        let start = rng.range_u64((pool.len() - len + 1) as u64) as usize;
        &pool[start..start + len]
    }

    /// `checksum64x4` equals `checksum64` lane by lane on `cases` x 16
    /// random quadruples.
    fn four_lane_differential(seed: u64, cases: u32) {
        let mut fill = crate::rng::Rng64::new(seed);
        let pool: Vec<u8> = (0..4096).map(|_| fill.next_u64() as u8).collect();
        crate::prop::check(seed, cases, |rng| {
            for _ in 0..16 {
                let lanes = [(); 4].map(|()| random_lane(rng, &pool));
                let lens = lanes.map(<[u8]>::len);
                assert_eq!(
                    checksum64x4(lanes),
                    lanes.map(checksum64),
                    "lengths {lens:?}"
                );
            }
        });
    }

    #[test]
    fn four_lanes_sum_what_one_lane_sums_on_a_million_quadruples() {
        assert_eq!(checksum64x4([&[]; 4]), [FNV_OFFSET; 4]);
        let data = b"the quick brown fox jumps over the lazy dog";
        for cut in 0..data.len() {
            let lanes = [&data[..cut], &data[cut..], data, &data[..cut / 2]];
            assert_eq!(checksum64x4(lanes), lanes.map(checksum64), "cut at {cut}");
        }
        four_lane_differential(0x0004_1A4E, 65_536);
    }

    /// The same differential on 20 M quadruples, for a release build:
    /// `cargo test --release -p caba-stats --lib checksum -- --ignored`.
    #[test]
    #[ignore = "20 M quadruples: run in release with --ignored"]
    fn four_lanes_sum_what_one_lane_sums_on_twenty_million_quadruples() {
        four_lane_differential(0x0204_1A4E, 1_250_000);
    }

    #[test]
    fn four_containers_verify_as_each_verifies_alone() {
        crate::prop::check(0x5EA1_0004, 32, |rng| {
            let sealed: [Vec<u8>; 4] = [(); 4].map(|()| {
                let len = rng.range_u64(97) as usize;
                seal((0..len).map(|_| rng.next_u64() as u8).collect())
            });
            let mut lanes = sealed.clone();
            fn one_by_one(lanes: &[Vec<u8>; 4]) -> [Option<&[u8]>; 4] {
                lanes.each_ref().map(|c| verify_sealed(c))
            }
            fn x4(lanes: &[Vec<u8>; 4]) -> [Option<&[u8]>; 4] {
                verify_sealed_x4(lanes.each_ref().map(Vec::as_slice))
            }
            assert_eq!(x4(&lanes), one_by_one(&lanes));
            assert!(x4(&lanes).iter().all(Option::is_some));
            // Every single-bit flip, in every lane and position, fails that
            // lane and no other.
            for lane in 0..4 {
                for byte in 0..lanes[lane].len() {
                    for bit in 0..8 {
                        lanes[lane][byte] ^= 1 << bit;
                        let got = x4(&lanes);
                        assert_eq!(got, one_by_one(&lanes), "flip {lane}:{byte}:{bit}");
                        assert_eq!(got[lane], None, "flip {lane}:{byte}:{bit}");
                        lanes[lane][byte] ^= 1 << bit;
                    }
                }
            }
            // A container shorter than a checksum, in any lane, verifies as
            // `None` beside whole ones.
            for lane in 0..4 {
                for len in 0..8 {
                    let mut short = sealed.clone();
                    short[lane].truncate(len);
                    let got = x4(&short);
                    assert_eq!(got, one_by_one(&short), "lane {lane} cut to {len}");
                    assert_eq!(got[lane], None);
                }
            }
        });
    }

    #[test]
    fn empty_body_seals() {
        let sealed = seal(Vec::new());
        assert_eq!(verify_sealed(&sealed), Some(&[][..]));
    }
}
