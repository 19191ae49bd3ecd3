//! Property-based tests: every compressor must be lossless on every input it
//! accepts, across data profiles from all-zero to full-entropy. Driven by
//! the in-repo deterministic property harness (`caba_stats::prop`).

use caba_compress::bdi::{Bdi, BdiEncoding};
use caba_compress::{average_best_ratio, average_burst_ratio, Algorithm, BestOfAll, LINE_SIZE};
use caba_stats::prop;
use caba_stats::Rng64;

/// Produces 128-byte lines across four compressibility regimes.
fn random_line(rng: &mut Rng64) -> Vec<u8> {
    match rng.range_u64(4) {
        // Raw bytes (usually incompressible).
        0 => prop::bytes(rng, LINE_SIZE),
        // Low-dynamic-range 32-bit values around a random base.
        1 => {
            let base = rng.next_u64() as u32;
            let mut line = Vec::with_capacity(LINE_SIZE);
            for _ in 0..LINE_SIZE / 4 {
                let off = rng.range_u64(256) as u32;
                line.extend_from_slice(&base.wrapping_add(off).to_le_bytes());
            }
            line
        }
        // Sparse: mostly zeros with a few random words.
        2 => {
            let mut line = Vec::with_capacity(LINE_SIZE);
            for _ in 0..LINE_SIZE / 4 {
                let w = if rng.chance(0.1) {
                    rng.next_u64() as u32
                } else {
                    0u32
                };
                line.extend_from_slice(&w.to_le_bytes());
            }
            line
        }
        // Dictionary-friendly: words drawn from a tiny pool.
        _ => {
            let pool: Vec<u32> = (0..4).map(|_| rng.next_u64() as u32).collect();
            let mut line = Vec::with_capacity(LINE_SIZE);
            for _ in 0..LINE_SIZE / 4 {
                let p = rng.range_u64(4) as usize;
                line.extend_from_slice(&pool[p].to_le_bytes());
            }
            line
        }
    }
}

const CASES: u32 = 256;

/// `line` either does not compress under `a` or comes back whole from a
/// smaller payload.
fn round_trips(a: Algorithm, line: &[u8]) {
    if let Some(z) = a.compress_line(line) {
        assert!(z.size_bytes() < line.len());
        let mut out = [0u8; LINE_SIZE];
        let n = a.decompress_into(&z, &mut out).unwrap();
        assert_eq!(&out[..n], line);
    }
}

#[test]
fn bdi_round_trip() {
    prop::check(0xBD1, CASES, |rng| {
        round_trips(Algorithm::Bdi, &random_line(rng))
    });
}

#[test]
fn fpc_round_trip() {
    prop::check(0xF9C, CASES, |rng| {
        round_trips(Algorithm::Fpc, &random_line(rng))
    });
}

#[test]
fn cpack_round_trip() {
    prop::check(0xC9AC4, CASES, |rng| {
        round_trips(Algorithm::CPack, &random_line(rng))
    });
}

#[test]
fn best_of_all_never_worse_than_any() {
    prop::check(0xBE57, CASES, |rng| {
        let line = random_line(rng);
        let best = BestOfAll::new().compress(&line);
        for a in Algorithm::ALL {
            if let Some(z) = a.compress_line(&line) {
                let b = best.as_ref().expect("best must exist if any succeeds");
                assert!(b.size_bytes() <= z.size_bytes());
            }
        }
    });
}

/// The allocation-free scan path must agree exactly with the payload-building
/// compressor — same Some/None verdict, same size — for every algorithm, so
/// `BestOfAll` can pick a winner from scans without changing behavior.
#[test]
fn scan_size_matches_compress() {
    prop::check(0x5CA9, CASES, |rng| {
        let line = random_line(rng);
        for a in Algorithm::ALL {
            assert_eq!(
                a.scan_line_size(&line),
                a.compress_line(&line).map(|z| z.size_bytes()),
                "{a} scan/compress disagree"
            );
        }
        // BestOfAll must match the reference construct-everything selector,
        // including the first-minimal tie-break over Algorithm::ALL order.
        let reference = Algorithm::ALL
            .iter()
            .filter_map(|a| a.compress_line(&line))
            .min_by_key(|c| c.size_bytes());
        assert_eq!(BestOfAll::new().compress(&line), reference);
    });
}

/// `Bdi::fits` is `compress_with(..).is_some()` without the payload: for
/// every encoding, on the corpus above, on lines made to fit each
/// base-delta shape, and on every length down to the empty line (odd ones
/// included, where `compress_with` answers from its length rules).
#[test]
fn bdi_fits_is_compress_with_without_the_payload() {
    let bdi = Bdi::new();
    let mut fitted = [0u32; 8];
    prop::check(0xF175, CASES, |rng| {
        let mut line = match rng.range_u64(3) {
            0 => {
                // Values of `vs` bytes within `ds` bytes of one base.
                let (vs, ds) =
                    [(8, 1), (8, 2), (8, 4), (4, 1), (4, 2), (2, 1)][rng.range_u64(6) as usize];
                let base = rng.next_u64();
                let mut line = Vec::with_capacity(LINE_SIZE);
                for _ in 0..LINE_SIZE / vs {
                    let near = base.wrapping_add(rng.range_u64(1 << (8 * ds - 1)));
                    let v = if rng.chance(0.2) {
                        rng.range_u64(100)
                    } else {
                        near
                    };
                    line.extend_from_slice(&v.to_le_bytes()[..vs]);
                }
                line
            }
            1 => [rng.next_u64() * rng.range_u64(2); 16]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect(),
            _ => random_line(rng),
        };
        if rng.chance(0.5) {
            line.truncate(rng.range_u64(LINE_SIZE as u64 + 1) as usize);
        }
        for enc in BdiEncoding::ALL {
            let reference = bdi.compress_with(&line, enc).is_some();
            assert_eq!(
                bdi.fits(&line, enc),
                reference,
                "{enc:?} on {} bytes",
                line.len()
            );
            fitted[enc.id() as usize] += u32::from(reference);
        }
    });
    assert!(fitted.iter().all(|&n| n > 0), "{fitted:?}");
}

#[test]
fn burst_counts_within_range() {
    prop::check(0xB425, CASES, |rng| {
        let line = random_line(rng);
        for a in Algorithm::ALL {
            if let Some(z) = a.compress_line(&line) {
                assert!(z.bursts() >= 1);
                assert!(z.bursts() <= LINE_SIZE / 32);
                assert!(z.burst_ratio() >= 1.0);
            }
        }
    });
}

#[test]
fn average_ratios_at_least_one() {
    prop::check(0xA7EA, 64, |rng| {
        let n = 1 + rng.range_u64(7) as usize;
        let lines: Vec<Vec<u8>> = (0..n).map(|_| random_line(rng)).collect();
        for a in Algorithm::ALL {
            assert!(average_burst_ratio(a, &lines) >= 1.0 - 1e-12);
        }
        let best = average_best_ratio(&lines);
        for a in Algorithm::ALL {
            assert!(best >= average_burst_ratio(a, &lines) - 1e-9);
        }
    });
}

/// Corrupting any compressed line (via the fault-injection bit-flip
/// strategy's core idea: flip a payload bit) must never produce a line that
/// silently round-trips to the original — either decompression fails or the
/// output differs, which is exactly what `round_trips_to` reports.
#[test]
fn flipped_payload_bit_never_round_trips_silently() {
    prop::check(0xF11B, CASES, |rng| {
        let line = random_line(rng);
        for a in Algorithm::ALL {
            if let Some(z) = a.compress_line(&line) {
                assert!(z.round_trips_to(&line), "uncorrupted line must verify");
                if z.payload.is_empty() {
                    continue;
                }
                let mut bad = z.clone();
                let bit = rng.range_u64(bad.payload.len() as u64 * 8) as usize;
                bad.payload[bit / 8] ^= 1 << (bit % 8);
                // A flip may hit a dead padding bit; when it does the line
                // must still verify, never crash.
                let _ = bad.round_trips_to(&line);
            }
        }
    });
}
