//! Service-level golden tests: the HTTP server must be a pure
//! accelerator over the sweep library — cold, warm, fault-injected, and
//! restarted servers all stream figure tables byte-identical to the
//! offline `figure_table` output, and every misuse of the API maps to a
//! typed JSON error without poisoning the store.

use caba_serve::http::{fetch, FetchedResponse};
use caba_serve::{ServeOptions, Server, MAX_HANDLERS, MAX_PARKED};
use caba_sim::GpuConfig;
use caba_store::{FaultFs, FaultRates, RealFs, Store, StoreFs};
use caba_sweep::{
    decode_result_payload, dedup_cells, encode_result_payload, figure_table_line, CellSpec,
    DesignId, Figure, Sweep, SweepCell, SweepConfig,
};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCALE: f64 = 0.05;
const APPS: [&str; 2] = ["CONS", "BFS"];

fn sc() -> SweepConfig {
    SweepConfig {
        scale: SCALE,
        cfg: GpuConfig::small(),
    }
}

fn cells() -> Vec<SweepCell> {
    let mut cells = dedup_cells(&[Figure::Fig07.cells()]);
    cells.retain(|c| APPS.contains(&c.app));
    assert!(!cells.is_empty());
    cells
}

/// The offline reference: the exact bytes `caba-sweep --table` would
/// write for these cells.
fn reference_table() -> String {
    Sweep::new(&sc(), cells())
        .jobs(2)
        .run()
        .expect("offline sweep")
        .table()
}

fn start(store: Option<Store>) -> Server {
    Server::start(
        "127.0.0.1:0",
        ServeOptions {
            sc: sc(),
            jobs: 2,
            store,
            bench_out: None,
        },
    )
    .expect("server binds an ephemeral port")
}

fn get(server: &Server, target: &str) -> FetchedResponse {
    fetch(&server.addr().to_string(), "GET", target).expect("request round-trips")
}

const FIG_TARGET: &str = "/figure/fig07?scale=0.05&apps=CONS,BFS";

fn stop(server: Server) {
    let addr = server.addr().to_string();
    let resp = fetch(&addr, "POST", "/shutdown").expect("shutdown request");
    assert_eq!(resp.status, 200);
    server.join();
}

/// `"name": N` from a `/stats` body.
fn counter(stats: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let at = stats
        .find(&key)
        .unwrap_or_else(|| panic!("{name}: {stats}"))
        + key.len();
    let digits = stats[at..].split(|c: char| !c.is_ascii_digit()).next();
    digits.and_then(|d| d.parse().ok()).expect("a count")
}

/// A `/healthz` on `conn`, read until the server closes it: a handler
/// parks before it closes, so it is parked when this returns.
fn healthz_to_close(mut conn: TcpStream) {
    conn.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("request sent");
    let mut answer = String::new();
    conn.read_to_string(&mut answer).expect("handler answers");
    assert!(answer.starts_with("HTTP/1.1 200 "), "{answer}");
}

/// Leaves `MAX_PARKED` handlers parked. Connections open at once each need
/// a handler of their own, and the accept thread hands them out in the
/// order they were made.
fn park_handlers(addr: &str) {
    let held: Vec<TcpStream> = (0..MAX_PARKED)
        .map(|_| TcpStream::connect(addr).expect("connects"))
        .collect();
    for conn in held.into_iter().rev() {
        healthz_to_close(conn);
    }
}

#[test]
fn cold_warm_and_restarted_servers_stream_byte_identical_tables() {
    let dir = caba_store::fsio::scratch_dir("serve-golden");
    let reference = reference_table();

    // Cold: every cell simulates, table matches the offline bytes.
    let server = start(Some(Store::open(&dir).expect("store opens")));
    let cold = get(&server, FIG_TARGET);
    assert_eq!(cold.status, 200);
    assert_eq!(
        cold.headers.get("transfer-encoding").map(String::as_str),
        Some("chunked"),
        "figure tables stream chunked"
    );
    assert_eq!(cold.text(), reference, "cold table diverged from offline");
    let stats = get(&server, "/stats").text();
    assert!(stats.contains("\"store_warm_hits\": 0"), "{stats}");

    // Warm, same process: every cell restores from the store.
    let warm = get(&server, FIG_TARGET);
    assert_eq!(warm.text(), reference, "warm table diverged");
    let stats = get(&server, "/stats").text();
    assert!(
        stats.contains(&format!("\"store_warm_hits\": {}", cells().len())),
        "second request should hit the store for every cell: {stats}"
    );
    // Fig. 8 is another metric of Fig. 7's runs: its raw table is fig07's.
    let fig08 = get(&server, &FIG_TARGET.replace("fig07", "fig08"));
    assert_eq!(fig08.status, 200);
    assert_eq!(fig08.text(), reference, "fig08 is not fig07's cells");
    stop(server);

    // Killed and restarted: a fresh process over the same store dir must
    // serve the same bytes, entirely from disk.
    let server = start(Some(Store::open(&dir).expect("store reopens")));
    let restarted = get(&server, FIG_TARGET);
    assert_eq!(restarted.text(), reference, "restarted table diverged");
    let stats = get(&server, "/stats").text();
    assert!(
        stats.contains(&format!("\"store_warm_hits\": {}", cells().len())),
        "restarted server should warm-start every cell: {stats}"
    );
    assert!(stats.contains("\"cells_computed\": 0"), "{stats}");
    stop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_typed_errors_without_poisoning_the_store() {
    let dir = caba_store::fsio::scratch_dir("serve-errors");
    let server = start(Some(Store::open(&dir).expect("store opens")));

    let expect = |target: &str, status: u16, code: &str| {
        let resp = get(&server, target);
        assert_eq!(resp.status, status, "{target} -> {}", resp.text());
        let body = resp.text();
        caba_stats::json::validate(&body).unwrap_or_else(|e| panic!("{target}: {e}\n{body}"));
        assert!(
            body.contains(&format!("\"error\": \"{code}\"")),
            "{target}: {body}"
        );
    };

    expect("/figure/fig99", 400, "bad_request");
    // A figure that simulates nothing has no raw table.
    expect("/figure/fig02", 400, "bad_request");
    expect("/figure/fig07?scale=banana", 400, "bad_request");
    expect("/figure/fig07?scale=-1", 400, "bad_request");
    expect("/figure/fig07?apps=NOPE", 400, "bad_request");
    // A known app that none of fig07's cells runs leaves no rows.
    expect("/figure/fig07?apps=bp", 400, "bad_request");
    let body = get(&server, "/figure/fig07?apps=bp").text();
    assert!(body.contains("figure fig07 simulates none"), "{body}");
    expect("/cell/NOPE/Base/1.0", 404, "not_found");
    expect("/cell/CONS/Bogus/1.0", 400, "bad_request");
    expect("/cell/CONS/Base/zoom", 400, "bad_request");
    // A bandwidth scale the machine model cannot take is the client's
    // error, not a simulation to attempt or a key to persist. That includes
    // one the DRAM bus would round to a whole cycle per burst: 3 would run
    // the 2x machine, 1.2 the 1x and 0.45 the 0.5x, each under its own key.
    for bw in ["0", "-1", "nan", "inf", "3", "1.2", "0.45"] {
        expect(&format!("/cell/CONS/Base/{bw}"), 400, "bad_request");
    }
    let body = get(&server, "/cell/CONS/Base/3").text();
    assert!(body.contains("bw must be 2/k for a whole k >= 1"), "{body}");
    expect("/result/not-hex", 400, "bad_request");
    expect("/result/0000000000000000", 404, "not_found");
    expect("/no/such/route", 404, "not_found");

    // Wrong method on a known resource is 405, not 404.
    let resp = fetch(&server.addr().to_string(), "POST", "/stats").expect("request");
    assert_eq!(resp.status, 405, "{}", resp.text());
    let resp = fetch(&server.addr().to_string(), "GET", "/shutdown").expect("request");
    assert_eq!(resp.status, 405, "{}", resp.text());

    // A raw malformed request line gets a 400, not a dropped connection.
    let resp = fetch(&server.addr().to_string(), "GET", "no-leading-slash").expect("request");
    assert_eq!(resp.status, 400, "{}", resp.text());

    // After all that abuse, good requests still work and the store audits
    // clean — errors never wrote anything.
    let ok = get(&server, "/cell/CONS/Base/1.0");
    assert_eq!(ok.status, 200, "{}", ok.text());
    caba_stats::json::validate(&ok.text()).expect("cell JSON parses");
    stop(server);

    let store = Store::open(&dir).expect("store reopens");
    let report = store.scrub().expect("scrub runs");
    assert!(report.is_clean(), "errors poisoned the store: {report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_injected_store_degrades_to_recompute_not_wrong_bytes() {
    let dir = caba_store::fsio::scratch_dir("serve-chaos");
    let reference = reference_table();
    let fs = FaultFs::new(
        0xC0FFEE,
        FaultRates {
            torn_write: 0.2,
            short_read: 0.2,
            rename_fail: 0.1,
            ..FaultRates::none()
        },
    );
    let store = Store::open_with_fs(&dir, Box::new(fs)).expect("faulted store opens");
    let server = start(Some(store));

    // Under injected torn writes and short reads the table must still be
    // byte-exact — faults cost recomputes, never correctness.
    for round in 0..3 {
        let resp = get(&server, FIG_TARGET);
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.text(),
            reference,
            "round {round} diverged under faults"
        );
    }
    stop(server);

    // The surviving on-disk state is healthy (quarantine is allowed).
    let store = Store::open(&dir).expect("store reopens clean");
    store.scrub().expect("scrub runs");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A filesystem whose object reads fail hard (EIO-style), unlike
/// `FaultFs`'s silent short reads which the store heals to cache misses.
/// This drives the genuine typed-503 path on `/result`.
struct DenyObjectReads(RealFs);

impl StoreFs for DenyObjectReads {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if path.extension().is_some_and(|e| e == "entry") {
            return Err(io::Error::other("injected I/O error"));
        }
        self.0.read(path)
    }
    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.0.write_sync(path, bytes)
    }
    fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.0.append_sync(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.0.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.0.sync_dir(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.0.create_dir_all(dir)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.0.list(dir)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.0.remove_file(path)
    }
    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        self.0.file_len(path)
    }
}

#[test]
fn store_faults_on_raw_lookups_are_typed_503s() {
    // No store at all: typed 503, distinct error code.
    let server = start(None);
    let resp = get(&server, "/result/0123456789abcdef");
    assert_eq!(resp.status, 503, "{}", resp.text());
    assert!(
        resp.text().contains("\"error\": \"no_store\""),
        "{}",
        resp.text()
    );
    stop(server);

    // Populate a real store, then serve it through a filesystem whose
    // reads fail hard: /result surfaces the fault as a typed 503 (there
    // is no compute fallback for a raw lookup).
    let dir = caba_store::fsio::scratch_dir("serve-503");
    let key = {
        let store = Store::open(&dir).expect("store opens");
        let spec = caba_sweep::CellSpec::new(&sc(), cells()[0]);
        let server = start(Some(store));
        let resp = get(
            &server,
            &format!("/cell/{}/{}/1?scale={SCALE}", spec.app, spec.design),
        );
        assert_eq!(resp.status, 200, "{}", resp.text());
        stop(server);
        spec.content_hash()
    };
    let store =
        Store::open_with_fs(&dir, Box::new(DenyObjectReads(RealFs))).expect("store reopens");
    let server = start(Some(store));
    let resp = get(&server, &format!("/result/{key:016x}"));
    assert_eq!(resp.status, 503, "{}", resp.text());
    let body = resp.text();
    caba_stats::json::validate(&body).expect("503 body is JSON");
    assert!(body.contains("\"error\": \"store_fault\""), "{body}");

    // The fault did not poison the store: a healthy reopen still serves
    // the result.
    stop(server);
    let store = Store::open(&dir).expect("healthy reopen");
    let server = start(Some(store));
    let resp = get(&server, &format!("/result/{key:016x}"));
    assert_eq!(resp.status, 200, "{}", resp.text());
    stop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_requests_coalesce_onto_one_computation() {
    let server = start(None);
    let addr = server.addr().to_string();
    const CLIENTS: usize = 4;
    let responses: Vec<FetchedResponse> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = addr.clone();
                // A cell that simulates for tens of milliseconds: the four
                // requests only coalesce if they overlap, so the computation
                // must outlast the skew between the clients' connects.
                s.spawn(move || {
                    fetch(&addr, "GET", "/cell/CONS/Base/1?scale=0.5").expect("cell request")
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let bodies: Vec<String> = responses
        .iter()
        .map(|r| {
            assert_eq!(r.status, 200, "{}", r.text());
            // `cached` varies by which client led; everything else agrees.
            r.text()
                .replace("\"cached\": true", "\"cached\": ?")
                .replace("\"cached\": false", "\"cached\": ?")
        })
        .collect();
    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "divergent cell summaries"
    );

    // With no store, identical concurrent requests can only have been
    // deduplicated by the coalescer; at most one client computed.
    let stats = get(&server, "/stats").text();
    assert!(stats.contains("\"cells_computed\": 1"), "{stats}");
    stop(server);
}

/// A stored cell is answered from the store probe and never enters a
/// flight: concurrent warm tables wait on nobody and compute nothing.
#[test]
fn concurrent_warm_figures_skip_the_single_flight() {
    let dir = caba_store::fsio::scratch_dir("serve-warm-flight");
    let reference = reference_table();
    let server = start(Some(Store::open(&dir).expect("store opens")));
    assert_eq!(get(&server, FIG_TARGET).text(), reference, "cold table");
    let cold = get(&server, "/stats").text();
    const CLIENTS: usize = 4;
    let start_line = std::sync::Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    start_line.wait();
                    get(&server, FIG_TARGET).text()
                })
            })
            .collect();
        for c in clients {
            assert_eq!(c.join().unwrap(), reference, "warm table");
        }
    });
    let warm = get(&server, "/stats").text();
    assert_eq!(counter(&warm, "coalesced_waits"), 0, "{warm}");
    assert_eq!(
        counter(&warm, "cells_computed"),
        counter(&cold, "cells_computed"),
        "{warm}"
    );
    let hits = (CLIENTS * cells().len()) as u64;
    assert_eq!(counter(&warm, "store_warm_hits"), hits, "{warm}");
    stop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The real filesystem, counting the appends to `lru.log`.
struct CountLogAppends(RealFs, Arc<AtomicU64>);

impl StoreFs for CountLogAppends {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.0.read(path)
    }
    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.0.write_sync(path, bytes)
    }
    fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if path.ends_with("lru.log") {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
        self.0.append_sync(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.0.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.0.sync_dir(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.0.create_dir_all(dir)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.0.list(dir)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.0.remove_file(path)
    }
    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        self.0.file_len(path)
    }
}

/// Stats that tell fig07's cells apart and take no simulation to make.
fn stand_in_stats(i: usize) -> caba_sim::RunStats {
    caba_sim::RunStats {
        cycles: 10_000 + i as u64,
        app_instructions: 40_000 + 7 * i as u64,
        dram_bursts: 300 + i as u64,
        ..Default::default()
    }
}

/// A store in `dir` holding every fig07 cell at the tests' scale under
/// [`stand_in_stats`], and the table a server must stream from it.
fn stand_in_fig07_store(dir: &Path) -> (Vec<CellSpec>, String) {
    let store = Store::open(dir).expect("store opens");
    let specs: Vec<CellSpec> = Figure::Fig07
        .cells()
        .iter()
        .map(|c| CellSpec::new(&sc(), *c))
        .collect();
    let mut table = String::new();
    for (i, spec) in specs.iter().enumerate() {
        let stats = stand_in_stats(i);
        let payload = encode_result_payload(&stats, 0.5);
        store
            .put_result(spec.content_hash(), &spec.label(), &payload)
            .expect("put");
        table.push_str(&figure_table_line(&spec.cell(), &stats));
    }
    (specs, table)
}

/// A warm figure reads its rows in one store call: every row a store hit,
/// and all their touches in one append to the touch log.
#[test]
fn a_warm_figure_is_one_store_call_and_one_touch_append() {
    let dir = caba_store::fsio::scratch_dir("serve-one-call");
    let (specs, table) = stand_in_fig07_store(&dir);
    assert_eq!(specs.len(), 100);
    let appends = Arc::new(AtomicU64::new(0));
    let fs = CountLogAppends(RealFs, Arc::clone(&appends));
    let server = start(Some(
        Store::open_with_fs(&dir, Box::new(fs)).expect("store reopens"),
    ));
    for target in ["/figure/fig07", "/figure/fig07?scale=0.05"] {
        let before = get(&server, "/stats").text();
        let appended = appends.load(Ordering::SeqCst);
        let warm = get(&server, target);
        assert_eq!(warm.status, 200);
        assert_eq!(warm.text(), table, "{target}");
        let after = get(&server, "/stats").text();
        let moved = |name| counter(&after, name) - counter(&before, name);
        assert_eq!(moved("store_warm_hits"), 100, "{after}");
        assert_eq!(moved("store_hits"), 100, "{after}");
        assert_eq!(moved("store_misses"), 0, "{after}");
        assert_eq!(moved("cells_computed"), 0, "{after}");
        assert_eq!(moved("coalesced_waits"), 0, "{after}");
        assert_eq!(appends.load(Ordering::SeqCst) - appended, 1, "{target}");
    }
    stop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A row missing from the store goes to the single-flight: it counts the
/// figure's store miss and the flight leader's, and is computed once.
#[test]
fn cold_cells_in_a_warm_figure_count_two_store_misses_each() {
    let dir = caba_store::fsio::scratch_dir("serve-cold-rows");
    let (specs, table) = stand_in_fig07_store(&dir);
    // Two cells of the tests' apps, one of them the figure's last row.
    let cold: Vec<usize> = [
        specs
            .iter()
            .position(|s| s.app == APPS[0])
            .expect("a CONS cell"),
        specs
            .iter()
            .rposition(|s| s.app == APPS[1])
            .expect("a BFS cell"),
    ]
    .into();
    for &i in &cold {
        let name = format!("{:016x}.entry", specs[i].content_hash());
        std::fs::remove_file(dir.join("objects").join("rs").join(name)).expect("entry removed");
    }
    let server = start(Some(Store::open(&dir).expect("store reopens")));
    let before = get(&server, "/stats").text();
    let resp = get(&server, "/figure/fig07?scale=0.05");
    assert_eq!(resp.status, 200);
    let after = get(&server, "/stats").text();
    let moved = |name| counter(&after, name) - counter(&before, name);
    let k = cold.len() as u64;
    assert_eq!(moved("store_misses"), 2 * k, "{after}");
    assert_eq!(moved("cells_computed"), k, "{after}");
    assert_eq!(moved("store_warm_hits"), 100 - k, "{after}");
    assert_eq!(moved("coalesced_waits"), 0, "{after}");
    stop(server);

    // The stored rows stream as they were stored, the computed ones as the
    // flight persisted them, all in the figure's order.
    let store = Store::open(&dir).expect("store reopens");
    let mut want: Vec<String> = table.lines().map(|l| format!("{l}\n")).collect();
    for &i in &cold {
        let payload = store
            .get_result(specs[i].content_hash())
            .unwrap()
            .expect("persisted");
        let (stats, _) = decode_result_payload(&payload).expect("decodes");
        want[i] = figure_table_line(&specs[i].cell(), &stats);
    }
    assert_eq!(resp.text(), want.concat());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A payload a dishonest writer could have sealed: [`stand_in_stats`]
/// encoded, then bytes flipped, counters set near `u64::MAX`, or the wall
/// time made NaN or infinite. Every field is a little-endian `u64` and the
/// length is kept, so it decodes. Each summed counter's partner is
/// nonzero, so one near-`u64::MAX` counter overflows an unsaturated sum.
fn mutated_payload(rng: &mut caba_stats::Rng64, i: usize) -> Vec<u8> {
    let mut stats = stand_in_stats(i);
    stats.assist_instructions = 1;
    stats.l1_misses = 1;
    let mut bytes = encode_result_payload(&stats, 0.5);
    let slots = (bytes.len() - 8) / 8;
    match rng.range_u64(3) {
        0 => {
            for _ in 0..1 + rng.range_u64(4) {
                let at = rng.range_u64(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.range_u64(8);
            }
        }
        1 => {
            for _ in 0..1 + rng.range_u64(8) {
                let at = 8 + 8 * rng.range_u64(slots as u64) as usize;
                let near_max = u64::MAX - rng.range_u64(4);
                bytes[at..at + 8].copy_from_slice(&near_max.to_le_bytes());
            }
        }
        _ => {
            let walls = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MAX];
            let wall_s = walls[rng.range_u64(walls.len() as u64) as usize];
            bytes = encode_result_payload(&stats, wall_s);
        }
    }
    bytes
}

/// A sealed payload decodes to whatever counters it holds, and the figure
/// row, `/result`, `/cell` and `/figure` render those or recompute the
/// cell; none panics. One row per round is cut short so that it does not
/// decode: `/result` calls it `payload_skew`, and `/figure` and `/cell`
/// recompute it.
#[test]
fn mutated_sealed_payloads_render_or_recompute_and_never_panic() {
    let cell = cells()[0];
    caba_stats::prop::check(0xBAD_5EA1, 4_000, |rng| {
        let i = rng.range_u64(100) as usize;
        let (stats, _) = decode_result_payload(&mutated_payload(rng, i)).expect("decodes");
        let line = figure_table_line(&cell, &stats);
        let summary = line.trim_end().rsplit('\t').next().expect("a summary");
        caba_stats::json::validate(summary).unwrap_or_else(|e| panic!("{e}: {line}"));
    });

    let specs: Vec<CellSpec> = cells().iter().map(|c| CellSpec::new(&sc(), *c)).collect();
    caba_stats::prop::check(0x5EA1_0F16, 3, |rng| {
        let dir = caba_store::fsio::scratch_dir("serve-mutated");
        let store = Store::open(&dir).expect("store opens");
        let skewed = rng.range_u64(specs.len() as u64) as usize;
        let decoded: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut payload = mutated_payload(rng, i);
                if i == skewed {
                    payload.pop();
                }
                store
                    .put_result(spec.content_hash(), &spec.label(), &payload)
                    .expect("put");
                decode_result_payload(&payload)
            })
            .collect();
        let server = start(Some(store));
        for (spec, decoded) in specs.iter().zip(&decoded) {
            let resp = get(&server, &format!("/result/{:016x}", spec.content_hash()));
            let body = resp.text();
            caba_stats::json::validate(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
            match decoded {
                Some(_) => assert_eq!(resp.status, 200, "{body}"),
                None => assert!(
                    resp.status == 500 && body.contains("payload_skew"),
                    "{body}"
                ),
            }
        }
        let figure = get(&server, FIG_TARGET);
        assert_eq!(figure.status, 200);
        let cell_bodies: Vec<String> = specs
            .iter()
            .map(|spec| {
                let target = format!(
                    "/cell/{}/{}/{}",
                    spec.app,
                    spec.design.label(),
                    spec.bw_scale
                );
                let resp = get(&server, &target);
                assert_eq!(resp.status, 200, "{target}: {}", resp.text());
                resp.text()
            })
            .collect();
        stop(server);

        // Stored rows render as decoded; the skewed row is recomputed and
        // rewritten, and renders as its rewrite.
        let store = Store::open(&dir).expect("store reopens");
        let mut want = String::new();
        for (spec, decoded) in specs.iter().zip(&decoded) {
            let stats = match decoded {
                Some((stats, _)) => stats.clone(),
                None => {
                    let payload = store.get_result(spec.content_hash()).unwrap();
                    decode_result_payload(&payload.expect("rewritten"))
                        .expect("decodes")
                        .0
                }
            };
            want.push_str(&figure_table_line(&spec.cell(), &stats));
        }
        assert_eq!(figure.text(), want);
        for body in &cell_bodies {
            caba_stats::json::validate(body).unwrap_or_else(|e| panic!("{e}: {body}"));
            assert!(body.contains("\"cached\": true"), "{body}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// A handler that has answered parks, and the next connection goes to it:
/// fifty requests one after another need a thread or two, not fifty.
#[test]
fn sequential_requests_reuse_a_parked_handler() {
    let server = start(None);
    for _ in 0..50 {
        healthz_to_close(TcpStream::connect(server.addr()).expect("connects"));
    }
    let stats = get(&server, "/stats").text();
    assert!(counter(&stats, "handler_threads") <= 2, "{stats}");
    stop(server);
}

/// The server keys `/cell` with the sweep hash it computed at start when
/// the request's scale has the default's bits, and computes another one
/// otherwise; either way the key is `CellSpec::content_hash`'s.
#[test]
fn cell_keys_are_the_content_hash_at_the_default_scale_and_any_other() {
    let server = start(None);
    let cell = SweepCell {
        app: "CONS",
        design: DesignId::Base,
        bw_scale: 1.0,
    };
    let key_at = |scale: f64| CellSpec::new(&SweepConfig { scale, ..sc() }, cell).content_hash();
    let other = 0.02;
    assert_ne!(key_at(SCALE), key_at(other));
    assert_eq!("5e-2".parse::<f64>().map(f64::to_bits), Ok(SCALE.to_bits()));
    for (query, scale) in [
        (String::new(), SCALE),
        (format!("?scale={SCALE}"), SCALE),
        ("?scale=5e-2".to_string(), SCALE),
        (format!("?scale={other}"), other),
    ] {
        let resp = get(&server, &format!("/cell/CONS/Base/1{query}"));
        assert_eq!(resp.status, 200, "{query}: {}", resp.text());
        let want = format!("\"key\": \"{:016x}\"", key_at(scale));
        assert!(resp.text().contains(&want), "{query}: {}", resp.text());
    }
    stop(server);
}

/// One handler per connection, up to the cap, which parked handlers count
/// toward: the next connection is refused by the accept thread with a
/// typed 503, and once the idle ones close the server answers again.
#[test]
fn connections_over_the_handler_cap_get_a_typed_503_busy() {
    for parked in [false, true] {
        let server = start(None);
        if parked {
            park_handlers(&server.addr().to_string());
        }
        // Connected and silent: each holds a handler in its request read,
        // a parked one first. The accept thread takes connections in the
        // order they were made, so all of these have a handler before the
        // probe below is accepted.
        let idle: Vec<TcpStream> = (0..MAX_HANDLERS)
            .map(|_| TcpStream::connect(server.addr()).expect("connects"))
            .collect();
        let busy = get(&server, "/healthz");
        assert_eq!(busy.status, 503, "parked {parked}: {}", busy.text());
        caba_stats::json::validate(&busy.text()).expect("503 body is JSON");
        assert!(
            busy.text().contains("\"error\": \"busy\""),
            "{}",
            busy.text()
        );

        // Closing a silent connection ends its request with a 400.
        for mut conn in idle {
            conn.shutdown(Shutdown::Write).expect("half-close");
            let mut answer = String::new();
            conn.read_to_string(&mut answer).expect("handler answers");
            assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
        }
        // A handler parks, or its thread ends, a moment after its socket
        // closes, and the accept thread counts only those as free: retry
        // until it has.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let resp = get(&server, "/healthz");
            if resp.status == 200 {
                break;
            }
            assert_eq!(resp.status, 503, "{}", resp.text());
            assert!(Instant::now() < deadline, "handlers never freed");
            std::thread::yield_now();
        }
        stop(server);
    }
}

/// `join` on another thread, so a server that never wakes fails the test
/// instead of hanging it.
fn join_within_a_second(server: Server) {
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = done.send(());
    });
    joined
        .recv_timeout(Duration::from_secs(1))
        .expect("join returns within a second of the shutdown request");
}

/// Asked to stop, a server that has never had a client stops at once, and
/// so does one whose handlers are parked: they are woken to end, and the
/// handler that answers `POST /shutdown` ends instead of parking.
#[test]
fn an_idle_server_stops_at_once_however_it_is_asked_and_bound() {
    for (bind, parked) in [
        ("127.0.0.1:0", false),
        ("0.0.0.0:0", false),
        ("127.0.0.1:0", true),
        ("0.0.0.0:0", true),
    ] {
        let idle = || {
            let opts = ServeOptions {
                sc: sc(),
                jobs: 2,
                store: None,
                bench_out: None,
            };
            let server = Server::start(bind, opts).expect("server binds");
            let addr = format!("127.0.0.1:{}", server.addr().port());
            if parked {
                park_handlers(&addr);
            }
            (server, addr)
        };
        // No request is in flight: the accept loop is in `accept`.
        let (server, _) = idle();
        server.shutdown();
        server.shutdown(); // idempotent, also once the loop is on its way out
        join_within_a_second(server);

        let (server, addr) = idle();
        let resp = fetch(&addr, "POST", "/shutdown").expect("shutdown request");
        assert_eq!(resp.status, 200, "{bind}");
        join_within_a_second(server);
        assert!(fetch(&addr, "GET", "/healthz").is_err(), "{bind}: gone");
    }
}

#[test]
fn a_cold_figure_in_flight_is_finished_before_join_returns() {
    let server = start(None);
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    stream
        .write_all(format!("GET {FIG_TARGET} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .expect("request sent");
    // The header leaves with the first simulated row, so one byte of
    // response means the request is being served, with cells still to run.
    let mut first = [0u8; 1];
    stream.read_exact(&mut first).expect("response began");
    server.shutdown();
    server.join();

    // Loopback delivers in the sender's `write`: whatever the handler sent
    // before `join` returned is readable now, without waiting.
    stream.set_nonblocking(true).expect("nonblocking");
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .expect("the whole response arrived before join returned");
    let rest = String::from_utf8(rest).expect("UTF-8");
    assert!(rest.ends_with("\r\n0\r\n\r\n"), "terminal chunk: {rest}");
    let reference = reference_table();
    for line in reference.lines() {
        assert!(rest.contains(line), "row missing: {line}");
    }
}

#[test]
fn serve_binary_prints_usage_and_rejects_bad_flags() {
    // `--help` and `-h` print the usage text on stdout and exit 0.
    for help in ["--help", "-h"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_caba-serve"))
            .arg(help)
            .output()
            .expect("caba-serve binary runs");
        assert_eq!(out.status.code(), Some(0), "{help} exits 0");
        assert!(out.stderr.is_empty(), "{help}");
        let usage = String::from_utf8_lossy(&out.stdout);
        assert!(usage.starts_with("usage: caba-serve"), "{usage}");
        assert!(usage.contains("--store-dir"), "{usage}");
    }

    // An address no local interface has (TEST-NET-1), so that a flag this
    // test expects to be refused, but which a regression accepts, fails to
    // bind and exits 1 instead of serving.
    for bad in [
        ["--jobs", "0"],
        ["--scale", "nan"],
        ["--scale", "0"],
        ["--scale", "-1"],
        ["--scale", "inf"],
        ["--intra-jobs", "2"],
        ["--bench-out", "x.json"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_caba-serve"))
            .args(["--addr", "192.0.2.1:0"])
            .args(bad)
            .output()
            .expect("caba-serve binary runs");
        assert_eq!(out.status.code(), Some(2), "{bad:?} exits with usage");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: caba-serve"), "{bad:?}: {stderr}");
        assert!(bad[0] != "--scale" || stderr.contains(&format!("{:?}", bad[1])));
    }
}
