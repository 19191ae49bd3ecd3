//! The touch log's text format and its one replay.
//!
//! `lru.log` is a sequence of sealed lines
//! (`touch rs <key:016x> <seq:016x> sum=<fnv:016x>`, see
//! [`caba_stats::checksum::seal_line`]), one per `put` and per `get` hit.
//! A `touch sn` line, left by a store that also kept machine snapshots,
//! is skipped like any other foreign line.
//! Everything that reads it — opening a store, GC, compaction — wants the
//! same four facts: the highest sequence per entry, the order the log first
//! names the entries in, how many lines it holds, and the highest sequence
//! of all. [`Replay::of`] takes them in one pass over the bytes: O(lines)
//! time, no allocation per line, one hash-map slot and one order slot per
//! distinct entry.

use caba_stats::checksum;
use caba_stats::fxhash::FxHashMap;
use std::collections::hash_map::Entry;

/// Bytes in one line: 42 of body, 21 of checksum field, a newline.
pub(crate) const LINE_BYTES: usize = 64;

/// One touch-log line, the body and its own checksum, appended to `out`.
pub(crate) fn push_touch_line(out: &mut String, key: u64, seq: u64) {
    let start = out.len();
    out.push_str("touch rs ");
    checksum::write_hex16(out, key);
    out.push(' ');
    checksum::write_hex16(out, seq);
    checksum::seal_line_in(out, start);
}

/// One line per entry key, each carrying that entry's sequence: a whole log.
pub(crate) fn render(entries: &[(u64, u64)]) -> String {
    let mut log = String::with_capacity(LINE_BYTES * entries.len());
    for &(key, seq) in entries {
        push_touch_line(&mut log, key, seq);
    }
    log
}

/// What one pass over the touch log's bytes yields.
#[derive(Default)]
pub(crate) struct Replay {
    /// Highest sequence per entry key the log names.
    latest: FxHashMap<u64, u64>,
    /// Those keys, in the order the log first names them.
    order: Vec<u64>,
    /// Lines in the log, torn and foreign ones included.
    pub(crate) lines: u64,
    /// Highest sequence on any line that verified.
    pub(crate) max_seq: Option<u64>,
}

impl Replay {
    /// Replays `log`, skipping torn, corrupt and foreign lines (each line
    /// carries its own checksum, which is verified before any field is
    /// parsed).
    pub(crate) fn of(log: &[u8]) -> Replay {
        let mut replay = Replay::default();
        for raw in log.split_inclusive(|&b| b == b'\n') {
            replay.lines += 1;
            let Some((key, seq)) = parse_line(raw) else {
                continue; // torn or corrupt line: skip, keep replaying
            };
            replay.max_seq = replay.max_seq.max(Some(seq));
            match replay.latest.entry(key) {
                Entry::Occupied(mut slot) => *slot.get_mut() = seq.max(*slot.get()),
                Entry::Vacant(slot) => {
                    slot.insert(seq);
                    replay.order.push(key);
                }
            }
        }
        replay
    }

    /// The highest sequence the log holds for `key`, if it names it.
    pub(crate) fn seq_of(&self, key: u64) -> Option<u64> {
        self.latest.get(&key).copied()
    }

    /// The keys the log names, in the order it first names them.
    pub(crate) fn entries(&self) -> &[u64] {
        &self.order
    }

    /// Every key the log names with its highest sequence, first-seen order.
    pub(crate) fn latest_in_order(&self) -> Vec<(u64, u64)> {
        self.order
            .iter()
            .map(|key| (*key, self.latest[key]))
            .collect()
    }
}

/// Parses one line with its terminator, as `str::lines` would hand it over
/// (`\n` or `\r\n` stripped). Checksum first, then exactly four fields —
/// `touch`, `rs`, key and sequence — then hex.
fn parse_line(raw: &[u8]) -> Option<(u64, u64)> {
    let line = match raw.strip_suffix(b"\n") {
        Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
        None => raw,
    };
    // A line that is not UTF-8 never verified: its lossy form has another
    // checksum, or the damage sits in a field that must be hex.
    let body = checksum::verify_line(std::str::from_utf8(line).ok()?)?;
    let mut fields = body.split(' ');
    let (Some("touch"), Some("rs"), Some(key), Some(seq), None) = (
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
    ) else {
        return None;
    };
    let (Ok(key), Ok(seq)) = (u64::from_str_radix(key, 16), u64::from_str_radix(seq, 16)) else {
        return None;
    };
    Some((key, seq))
}

/// The replay this module replaced, kept as the reference the differential
/// tests compare against: a linear search per line over names it formats.
#[cfg(test)]
pub(crate) fn read_touches(log: &[u8]) -> (Vec<(String, u64)>, u64) {
    let text = String::from_utf8_lossy(log);
    let mut latest: Vec<(String, u64)> = Vec::new();
    let mut lines = 0;
    for line in text.lines() {
        lines += 1;
        let Some((body, sum_part)) = line.rsplit_once(" sum=") else {
            continue;
        };
        let Ok(sum) = u64::from_str_radix(sum_part, 16) else {
            continue;
        };
        if checksum::checksum64(body.as_bytes()) != sum {
            continue;
        }
        let mut parts = body.split(' ');
        let (Some("touch"), Some(dir), Some(key_hex), Some(seq_hex)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if parts.next().is_some() {
            continue;
        }
        let (Ok(_key), Ok(seq)) = (
            u64::from_str_radix(key_hex, 16),
            u64::from_str_radix(seq_hex, 16),
        ) else {
            continue;
        };
        let name = format!("{dir}/{key_hex}.entry");
        match latest.iter_mut().find(|(n, _)| *n == name) {
            Some((_, s)) => *s = (*s).max(seq),
            None => latest.push((name, seq)),
        }
    }
    (latest, lines)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use caba_stats::{prop, Rng64};

    /// The name the reference replay files `key` under.
    pub(crate) fn oracle_name(key: u64) -> String {
        format!("rs/{key:016x}.entry")
    }

    /// What the reference makes of `log`, in the new replay's terms: the
    /// reference names legacy `sn` entries, which the replay skips.
    fn oracle(log: &[u8]) -> (Vec<(String, u64)>, u64, Option<u64>) {
        let (mut latest, lines) = read_touches(log);
        latest.retain(|(name, _)| !name.starts_with("sn/"));
        let max_seq = latest.iter().map(|(_, seq)| *seq).max();
        (latest, lines, max_seq)
    }

    fn named(replay: &Replay) -> Vec<(String, u64)> {
        let latest = replay.latest_in_order();
        latest
            .iter()
            .map(|&(key, seq)| (oracle_name(key), seq))
            .collect()
    }

    /// A few keys, so that random lines repeat entries: small, huge and
    /// hashed ones.
    pub(crate) fn random_keys(rng: &mut Rng64) -> Vec<u64> {
        (0..1 + rng.range_u64(12))
            .map(|i| match rng.range_u64(3) {
                0 => i,
                1 => u64::MAX - i,
                _ => rng.next_u64(),
            })
            .collect()
    }

    /// A log over `keys` as crashes, bit rot, older stores and other
    /// programs leave it: mostly lines the store writes, duplicates out of
    /// sequence order, torn and flipped lines, legacy snapshot lines under
    /// the same keys, foreign text, and sometimes a tail cut mid-line.
    pub(crate) fn random_log(rng: &mut Rng64, keys: &[u64]) -> Vec<u8> {
        let mut log = Vec::new();
        for _ in 0..rng.range_u64(60) {
            let key = keys[rng.range_u64(keys.len() as u64) as usize];
            let mut line = String::new();
            push_touch_line(&mut line, key, rng.range_u64(500));
            let mut line = line.into_bytes();
            match rng.range_u64(12) {
                0 => line.truncate(rng.range_u64(line.len() as u64) as usize),
                1 => {
                    let at = rng.range_u64(line.len() as u64) as usize;
                    line[at] ^= 1 << rng.range_u64(8);
                }
                2 => {
                    line = [
                        &b"# not a touch line\n"[..],
                        b"\n",
                        b"touch rs 12 sum=zz\n",
                        b"\xff\xfe sum=00\n",
                        b"cell 00ff wall=0 stats= sum=0000000000000000\n",
                    ][rng.range_u64(5) as usize]
                        .to_vec();
                }
                3 => {
                    line.pop();
                    line.extend_from_slice(b"\r\n");
                }
                4 => {
                    let seq = rng.range_u64(500);
                    let legacy = format!("touch sn {key:016x} {seq:016x}");
                    line = checksum::seal_line(legacy).into_bytes();
                }
                _ => {}
            }
            log.extend_from_slice(&line);
        }
        if rng.chance(0.3) {
            log.truncate(rng.range_u64(log.len() as u64 + 1) as usize);
        }
        log
    }

    /// The log the replaced compaction wrote for what the reference replays.
    fn reference_compaction(latest: &[(String, u64)]) -> String {
        let lines = latest.iter().map(|(name, seq)| {
            let (dir, file) = name.split_once('/').expect("dir/file");
            let key_hex = file.strip_suffix(".entry").expect("an entry name");
            checksum::seal_line(format!("touch {dir} {key_hex} {seq:016x}"))
        });
        lines.collect()
    }

    #[test]
    fn the_replay_equals_the_reference_on_random_logs() {
        let mut named_entries = 0;
        prop::check(0x700C_4106, 1_500, |rng| {
            let keys = random_keys(rng);
            let log = random_log(rng, &keys);
            let replay = Replay::of(&log);
            let (latest, lines, max_seq) = oracle(&log);
            assert_eq!(named(&replay), latest, "latest per entry, first-seen order");
            assert_eq!(replay.lines, lines, "line count");
            assert_eq!(replay.max_seq, max_seq, "resumed sequence");
            for (entry, seq) in replay.latest_in_order() {
                assert_eq!(replay.seq_of(entry), Some(seq));
            }
            assert_eq!(
                render(&replay.latest_in_order()),
                reference_compaction(&latest),
                "compacted bytes"
            );
            named_entries += latest.len();
        });
        assert!(
            named_entries > 5_000,
            "the logs name {named_entries} entries"
        );
    }

    #[test]
    fn a_literal_log_compacts_to_pinned_bytes() {
        // Out of sequence order, a legacy snapshot line under a result's
        // key, which compaction drops, and a tail a crash cut short.
        let log = "\
touch rs 00000000000000aa 0000000000000001 sum=03f8fa8457ef65ca
touch sn 00000000000000aa 0000000000000002 sum=8fe82faab77cd549
touch rs 00000000000000bb 0000000000000005 sum=f1b02173d61c0728
touch rs 00000000000000aa 0000000000000007 sum=03f8f48457ef5b98
touch rs 00000000000000bb 0000000000000003 sum=f1b02773d61c115a
touch rs 00000000000000cc 0000000000000004 sum=36d5dad5";
        let replay = Replay::of(log.as_bytes());
        assert_eq!((replay.lines, replay.max_seq), (6, Some(7)));
        assert_eq!(
            render(&replay.latest_in_order()),
            "\
touch rs 00000000000000aa 0000000000000007 sum=03f8f48457ef5b98
touch rs 00000000000000bb 0000000000000005 sum=f1b02173d61c0728
"
        );
    }

    /// The places the replay parts from the reference: any directory but
    /// `rs` is malformed, the legacy `sn` that older stores wrote included,
    /// and keys compare by value.
    #[test]
    fn foreign_directories_are_skipped_and_keys_compare_by_value() {
        let line = |body: &str| checksum::seal_line(body.to_string());
        let log = [
            line("touch rs ff 01"),
            line("touch rs 00FF 02"),
            line("touch xx ff 09"),
            line("touch sn 00000000000000ff 0a"),
            line("touch rs 00000000000000ff 03"),
        ]
        .concat();
        let replay = Replay::of(log.as_bytes());
        assert_eq!(replay.latest_in_order(), [(0xff, 3)]);
        assert_eq!((replay.lines, replay.max_seq), (5, Some(3)));
        let (reference, _) = read_touches(log.as_bytes());
        assert_eq!(reference.len(), 5, "five spellings, five names");
    }
}
