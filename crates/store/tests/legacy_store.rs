//! A store written when it also kept machine snapshots: results beside an
//! `objects/sn/` directory, and `touch sn` lines in its log. The store
//! serves and maintains the results, and never lists, reads, scrubs, evicts
//! or deletes the snapshots; the first evicting GC drops their log lines.

use caba_stats::checksum;
use caba_stats::snap::SnapshotWriter;
use caba_store::{fsio::scratch_dir, Store, FORMAT_VERSION, MAGIC};

#[test]
fn a_legacy_store_serves_its_results_and_leaves_its_snapshots_alone() {
    let dir = scratch_dir("legacy");
    let keys: Vec<u64> = (1..=6).collect();
    let payload = |key: u64| vec![key as u8; 300];
    let writer = Store::open(&dir).unwrap();
    for &key in &keys {
        writer.put_result(key, "cell", &payload(key)).unwrap();
    }
    drop(writer);
    // A snapshot entry as such a store wrote it (kind tag 0) under the
    // oldest result's key, its touch line the newest in the log.
    let mut w = SnapshotWriter::new();
    w.raw(MAGIC);
    w.u32(FORMAT_VERSION);
    w.u8(0);
    w.u64(keys[0]);
    w.str("snap design=Base cycle=500");
    w.bytes(&[0xAB; 4000]);
    let snapshot = checksum::seal(w.into_bytes());
    let sn = dir.join("objects").join("sn");
    std::fs::create_dir_all(&sn).unwrap();
    let snap_path = sn.join(format!("{:016x}.entry", keys[0]));
    std::fs::write(&snap_path, &snapshot).unwrap();
    let lru = dir.join("lru.log");
    let mut log = std::fs::read_to_string(&lru).unwrap();
    log += &checksum::seal_line(format!("touch sn {:016x} {:016x}", keys[0], 999));
    std::fs::write(&lru, &log).unwrap();

    let store = Store::open(&dir).unwrap();
    for (key, got) in keys.iter().zip(store.get_results(&keys)) {
        assert_eq!(got.unwrap(), Some(payload(*key)), "key {key}");
    }
    let report = store.scrub().unwrap();
    assert_eq!((report.ok, report.is_clean()), (6, true));
    let stats = store.stats().unwrap();
    let rs_bytes: u64 = std::fs::read_dir(dir.join("objects").join("rs"))
        .unwrap()
        .map(|f| f.unwrap().metadata().unwrap().len())
        .sum();
    assert_eq!((stats.results, stats.entry_bytes), (6, rs_bytes));

    // The legacy line does not make the first result the newest: GC evicts
    // results in the order they were read, and only results.
    let report = store.gc(0).unwrap();
    let evicted: Vec<String> = (1..=5).map(|key| format!("rs/{key:016x}.entry")).collect();
    assert_eq!((report.before_bytes, report.evicted), (rs_bytes, evicted));
    let log = std::fs::read_to_string(&lru).unwrap();
    assert_eq!(log.lines().count(), 1, "{log}");
    assert!(log.starts_with("touch rs 0000000000000006 "), "{log}");
    assert_eq!(std::fs::read(&snap_path).unwrap(), snapshot);
    let _ = std::fs::remove_dir_all(&dir);
}
