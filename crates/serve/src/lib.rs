//! `caba-serve` — sweep-as-a-service: a long-running, dependency-free
//! HTTP transport over the `caba-sweep` executor.
//!
//! The server owns no simulation logic. A figure's cells go through
//! [`caba_sweep::stream_cells`], the path `Sweep::run` takes from a cell
//! list to results: one store read for every row, then the misses on an
//! ordered fan-out. A miss, like a `/cell` the store does not hold, goes
//! through [`caba_sweep::run_cell_stored`], the per-cell path `Sweep::run`
//! hands its misses to: store probe by [`CellSpec::content_hash`], else
//! simulate once with panic isolation, then persist. The CLI and
//! the server therefore warm-start each other and emit the same bytes by
//! construction. What this crate adds:
//!
//! - HTTP ([`http`]): parsing, typed JSON errors, chunked streaming —
//!   figure tables stream per cell, in input order, as each prefix
//!   completes (a simulated row is sent at once, rows already stored
//!   travel together), and the streamed bytes are exactly
//!   [`caba_sweep::figure_table_line`], so the served table is
//!   byte-identical to `caba-sweep --table`'s;
//! - single-flight coalescing around the per-cell call on a store miss —
//!   a thousand clients asking for a cold Fig. 7 cost one sweep plus 999
//!   waits; a stored cell never enters a flight: a figure's rows come from
//!   the list's one store read, and `/cell` answers from the store probe
//!   ([`caba_sweep::probe_store`]);
//! - counters (`/stats`), derived from what the cell path reports.
//!
//! # Endpoints
//!
//! | method | path | response |
//! |---|---|---|
//! | GET | `/healthz` | `{"ok": true}` |
//! | GET | `/stats` | request/cell/cache counters (JSON) |
//! | GET | `/figure/{fig}?scale=F&apps=A,B` | chunked TSV figure table |
//! | GET | `/cell/{app}/{design}/{bw}?scale=F` | one cell's summary (JSON) |
//! | GET | `/result/{key}` | raw store lookup by 16-hex-digit cell key |
//! | POST | `/shutdown` | `{"ok": true}`, then the server drains |
//!
//! Every non-2xx carries a typed JSON body `{"error", "message"}`. Store
//! faults during computation degrade to recomputing (results are never
//! affected); a store fault on the raw `/result` path is a typed 503.
//!
//! A connection is served by one handler thread. A handler that is done
//! parks for the next connection, up to [`MAX_PARKED`] of them, and the
//! accept thread hands a connection to the most recently parked one before
//! it spawns another. A request must arrive within 10 s in all (else
//! `408`), a response write may wait 10 s, and at most [`MAX_HANDLERS`]
//! handlers, parked ones included, are alive at once: the accept thread
//! answers a connection beyond them `503 {"error": "busy"}` itself. A cell
//! that must be simulated runs on a thread of its own, so a parked handler
//! keeps no simulation's heap.

pub mod http;

use caba_sim::RunStats;
use caba_stats::checksum::write_hex16;
use caba_stats::json::{self, fmt_f64 as json_f64};
use caba_store::{write_file_atomic, Store};
use caba_sweep::{
    decode_result_payload, parse_positive, probe_store, push_figure_table_line, run_cell_stored,
    stream_cells, CellOutcome, CellResult, CellSpec, DesignId, Figure, ResolveError, StreamedCell,
    SweepConfig,
};
use http::{ChunkedWriter, Deadline, Request};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ----- single-flight coalescing --------------------------------------------

/// Single-flight request coalescing: concurrent [`run`](Coalescer::run)
/// calls with the same key share one computation — the first caller (the
/// *leader*) computes, everyone else blocks on the flight and receives a
/// clone of the result. Once the leader finishes, the flight is retired:
/// a later call with the same key starts fresh (and will typically hit
/// the durable store instead).
struct Coalescer<T: Clone> {
    flights: Mutex<HashMap<u64, Arc<Flight<T>>>>,
}

struct Flight<T> {
    result: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T: Clone> Coalescer<T> {
    /// An empty coalescer.
    fn new() -> Self {
        Coalescer {
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// Runs `compute` under single-flight discipline for `key`. Returns
    /// the value and whether *this* call led the flight (`false` means it
    /// coalesced onto another call's computation).
    fn run<F: FnOnce() -> T>(&self, key: u64, compute: F) -> (T, bool) {
        let (flight, leader) = {
            let mut map = self.flights.lock().expect("flights lock");
            match map.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight {
                        result: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    map.insert(key, Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if leader {
            let value = compute();
            *flight.result.lock().expect("flight lock") = Some(value.clone());
            flight.cv.notify_all();
            self.flights.lock().expect("flights lock").remove(&key);
            (value, true)
        } else {
            let mut guard = flight.result.lock().expect("flight lock");
            while guard.is_none() {
                guard = flight.cv.wait(guard).expect("flight wait");
            }
            (guard.clone().expect("flight resolved"), false)
        }
    }
}

// ----- server ---------------------------------------------------------------

/// Server construction options.
pub struct ServeOptions {
    /// Sweep-wide options every request's cells share (scale is the
    /// *default*; requests may override it per query).
    pub sc: SweepConfig,
    /// Cell-level worker threads per figure request.
    pub jobs: usize,
    /// Durable result store; `None` serves compute-only (every request
    /// cold).
    pub store: Option<Store>,
    /// Where to persist `BENCH_serve.json` after each figure request.
    pub bench_out: Option<PathBuf>,
}

/// One completed figure request, recorded for `BENCH_serve.json`.
#[derive(Debug, Clone)]
struct BenchSample {
    fig: Figure,
    scale: f64,
    cells: usize,
    cached_cells: usize,
    wall_s: f64,
}

struct State {
    sc: SweepConfig,
    /// `sc.sweep_hash()`, computed once: every request at the default
    /// scale keys its cells with it.
    sweep_hash: u64,
    jobs: usize,
    store: Option<Store>,
    flights: Coalescer<CellOutcome>,
    shutdown: AtomicBool,
    /// Where a connection reaches this server's own listener.
    wake: SocketAddr,
    /// Handlers waiting for a connection, the most recently parked last.
    parked: Mutex<Vec<Arc<Slot>>>,
    requests: AtomicU64,
    cells_computed: AtomicU64,
    store_warm_hits: AtomicU64,
    /// Requests that waited on another request's simulation of a cell: a
    /// stored cell never enters a flight, so only a cold one counts.
    coalesced_waits: AtomicU64,
    /// Handler threads spawned since start.
    handler_threads: AtomicU64,
    /// Handler threads alive now, parked or serving.
    handlers_live: AtomicU64,
    bench_out: Option<PathBuf>,
    bench: Mutex<Vec<BenchSample>>,
}

/// A parked handler's mailbox: the accept thread leaves its next
/// connection here.
#[derive(Default)]
struct Slot {
    conn: Mutex<Option<TcpStream>>,
    ready: Condvar,
}

/// A running sweep service. Dropping the handle does **not** stop the
/// server; call [`shutdown`](Server::shutdown) (or POST `/shutdown`) and
/// then [`join`](Server::join).
pub struct Server {
    addr: SocketAddr,
    state: Arc<State>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl State {
    /// `local` is the listener's bound address. A wildcard bind is reached
    /// over loopback; any other address is its own.
    fn new(opts: ServeOptions, local: SocketAddr) -> State {
        let ip = match local.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(ip) if ip.is_unspecified() => Ipv6Addr::LOCALHOST.into(),
            ip => ip,
        };
        State {
            sc: opts.sc,
            sweep_hash: opts.sc.sweep_hash(),
            jobs: opts.jobs.max(1),
            store: opts.store,
            flights: Coalescer::new(),
            shutdown: AtomicBool::new(false),
            wake: SocketAddr::new(ip, local.port()),
            parked: Mutex::new(Vec::with_capacity(MAX_PARKED)),
            requests: AtomicU64::new(0),
            cells_computed: AtomicU64::new(0),
            store_warm_hits: AtomicU64::new(0),
            coalesced_waits: AtomicU64::new(0),
            handler_threads: AtomicU64::new(0),
            handlers_live: AtomicU64::new(0),
            bench_out: opts.bench_out,
            bench: Mutex::new(Vec::new()),
        }
    }

    /// Raises the flag, then gets the accept loop out of `accept(2)` to see
    /// it with one throw-away connection. Once the listener is gone the
    /// connect is refused, which is fine: there is no loop left to wake.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }

    /// Parks the calling handler, closes `done`, the connection it has
    /// answered, and waits until the accept thread hands it the next one.
    /// Parked before the close, it is there for a client that reads to the
    /// end of its response before it connects again. `None` tells the
    /// handler to end: [`MAX_PARKED`] others are parked already, or the
    /// server is shutting down.
    fn park(&self, slot: &Arc<Slot>, done: TcpStream) -> Option<TcpStream> {
        {
            let mut parked = self.parked.lock().expect("parked lock");
            if parked.len() >= MAX_PARKED {
                return None;
            }
            parked.push(Arc::clone(slot));
        }
        drop(done);
        let mut conn = slot.conn.lock().expect("slot lock");
        loop {
            if let Some(stream) = conn.take() {
                return Some(stream);
            }
            // The flag is up before `wake_parked` runs, so a handler that
            // parks after it, and is never woken, sees the flag here.
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            conn = slot.ready.wait(conn).expect("slot wait");
        }
    }

    /// Hands `stream` to the most recently parked handler; gives it back
    /// when none is parked.
    fn unpark(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let Some(slot) = self.parked.lock().expect("parked lock").pop() else {
            return Err(stream);
        };
        *slot.conn.lock().expect("slot lock") = Some(stream);
        slot.ready.notify_one();
        Ok(())
    }

    /// Wakes every parked handler to see the shutdown flag and end.
    fn wake_parked(&self) {
        for slot in self.parked.lock().expect("parked lock").drain(..) {
            // Taken, so the wake-up cannot fall between a handler's flag
            // check and its wait.
            let _conn = slot.conn.lock().expect("slot lock");
            slot.ready.notify_one();
        }
    }
}

/// Starts a handler thread on `stream`. It serves connections, parking
/// between them, until [`State::park`] tells it to end.
fn spawn_handler(state: &Arc<State>, stream: TcpStream) -> io::Result<JoinHandle<()>> {
    let st = Arc::clone(state);
    state.handlers_live.fetch_add(1, Ordering::Relaxed);
    let spawned = std::thread::Builder::new()
        .name("caba-serve-handler".into())
        .spawn(move || {
            let slot = Arc::new(Slot::default());
            let mut next = Some(stream);
            while let Some(mut stream) = next {
                handle(&st, &mut stream);
                next = st.park(&slot, stream);
            }
            st.handlers_live.fetch_sub(1, Ordering::Relaxed);
        });
    if spawned.is_ok() {
        state.handler_threads.fetch_add(1, Ordering::Relaxed);
    } else {
        state.handlers_live.fetch_sub(1, Ordering::Relaxed);
    }
    spawned
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop.
    pub fn start(addr: &str, opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let state = Arc::new(State::new(opts, local));
        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || {
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            loop {
                // Blocks until a client, or `request_shutdown`, connects.
                let accepted = listener.accept();
                if accept_state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match accepted {
                    Ok((stream, _peer)) => {
                        let Err(stream) = accept_state.unpark(stream) else {
                            continue;
                        };
                        // No handler is parked. The cap counts parked ones
                        // too, and is checked here, so a refusal costs no
                        // thread.
                        handlers.retain(|h| !h.is_finished());
                        if handlers.len() >= MAX_HANDLERS {
                            refuse_busy(stream);
                            continue;
                        }
                        match spawn_handler(&accept_state, stream) {
                            Ok(h) => handlers.push(h),
                            Err(e) => eprintln!("caba-serve: spawning a handler failed: {e}"),
                        }
                    }
                    Err(e) => {
                        // Out of descriptors or memory: let handlers finish
                        // and release some before asking again.
                        eprintln!("caba-serve: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            }
            // Drain in-flight handlers before the listener drops: a parked
            // one ends at once, a busy one after its request.
            accept_state.wake_parked();
            for h in handlers {
                let _ = h.join();
            }
        });
        Ok(Server {
            addr: local,
            state,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown (idempotent; also triggered by POST `/shutdown`).
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Blocks until shutdown has been requested and every in-flight
    /// request has been answered: the accept loop ends on nothing else.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

// ----- request handling -----------------------------------------------------

/// Handler threads alive at once, at most, parked ones included. A
/// connection beyond them is answered `503 busy` by the accept thread and
/// never gets a thread.
pub const MAX_HANDLERS: usize = 64;

/// Handler threads parked for reuse, at most; one that finds this many
/// parked ends instead. A few threads, and their allocator caches, then
/// serve nearly every request.
pub const MAX_PARKED: usize = 4;

/// How long a handler waits for a client's whole request, and for each
/// write of its response.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long an answered connection whose request was not read in full is
/// drained before it is closed, at most.
const LINGER: Duration = Duration::from_millis(100);

fn handle(state: &Arc<State>, stream: &mut TcpStream) {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let Some(req) = read_head(stream, Instant::now() + IO_TIMEOUT) else {
        return;
    };
    state.requests.fetch_add(1, Ordering::Relaxed);
    let _ = route(state, &req, stream);
}

/// Reads a request by `deadline`, or answers why there is none: 400 for a
/// malformed one, 408 once the deadline has passed. A transport error gets
/// no answer; there is nothing to answer on.
fn read_head(stream: &mut TcpStream, deadline: Instant) -> Option<Request> {
    let (status, code, msg) = match http::read_request(stream, deadline) {
        Ok(Some(req)) => return Some(req),
        Ok(None) => (400, "bad_request", "malformed HTTP request"),
        Err(e) if e.kind() == io::ErrorKind::TimedOut => {
            (408, "timeout", "the request did not arrive in time")
        }
        Err(_) => return None,
    };
    let _ = http::respond_error(stream, status, code, msg);
    linger(stream);
    None
}

/// Closes our side of an answered connection, then reads and drops what
/// the client still sends until it closes, or for [`LINGER`] at most: a
/// socket closed with unread bytes is reset, and the reset can destroy the
/// answer before it is read.
fn linger(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let _ = io::copy(&mut Deadline { stream, deadline }, &mut io::sink());
}

/// Answers a connection over [`MAX_HANDLERS`] on the accept thread: a typed
/// 503, far smaller than a socket buffer, so the write does not wait on
/// the client, then [`linger`].
fn refuse_busy(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(LINGER));
    let msg = format!("{MAX_HANDLERS} requests are in flight; retry later");
    let _ = http::respond_error(&mut stream, 503, "busy", &msg);
    linger(&stream);
}

fn route(state: &Arc<State>, req: &Request, out: &mut TcpStream) -> io::Result<()> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => http::respond(out, 200, "application/json", b"{\"ok\": true}\n"),
        ("GET", ["stats"]) => stats_endpoint(state, out),
        ("GET", ["figure", fig]) => figure_endpoint(state, req, fig, out),
        ("GET", ["cell", app, design, bw]) => cell_endpoint(state, req, app, design, bw, out),
        ("GET", ["result", key]) => result_endpoint(state, key, out),
        ("POST", ["shutdown"]) => {
            state.request_shutdown();
            http::respond(out, 200, "application/json", b"{\"ok\": true}\n")
        }
        // Known resources with the wrong method are 405, not 404.
        (_, ["healthz" | "stats" | "figure" | "cell" | "result", ..]) | (_, ["shutdown"]) => {
            http::respond_error(
                out,
                405,
                "method_not_allowed",
                &format!("{} is not supported here", req.method),
            )
        }
        _ => http::respond_error(out, 404, "not_found", &format!("no route for {}", req.path)),
    }
}

fn stats_endpoint(state: &State, out: &mut TcpStream) -> io::Result<()> {
    let (store_hits, store_misses) = match &state.store {
        Some(s) => (s.hit_count(), s.miss_count()),
        None => (0, 0),
    };
    let handlers_parked = state.parked.lock().expect("parked lock").len();
    let body = format!(
        "{{\n  \"schema\": \"caba-serve-stats-v1\",\n  \"requests\": {},\n  \
         \"cells_computed\": {},\n  \"store_warm_hits\": {},\n  \"coalesced_waits\": {},\n  \
         \"store_hits\": {store_hits},\n  \"store_misses\": {store_misses},\n  \
         \"handler_threads\": {},\n  \"handlers_live\": {},\n  \
         \"handlers_parked\": {handlers_parked},\n  \
         \"store_attached\": {},\n  \"jobs\": {},\n  \"default_scale\": {}\n}}\n",
        state.requests.load(Ordering::Relaxed),
        state.cells_computed.load(Ordering::Relaxed),
        state.store_warm_hits.load(Ordering::Relaxed),
        state.coalesced_waits.load(Ordering::Relaxed),
        state.handler_threads.load(Ordering::Relaxed),
        state.handlers_live.load(Ordering::Relaxed),
        state.store.is_some(),
        state.jobs,
        json_f64(state.sc.scale),
    );
    http::respond(out, 200, "application/json", body.as_bytes())
}

/// One cell: a stored one straight from the store probe, any other under
/// single-flight discipline, where the leader runs the sweep library's
/// whole per-cell path (probing again, in case another leader's put
/// landed since) and followers share its outcome. `key` is the spec's
/// content hash. Returns the outcome plus whether it was served from cache
/// (store or coalesced flight); the counters move by what the cell path
/// reported.
fn serve_cell(state: &State, spec: &CellSpec, key: u64) -> (CellOutcome, bool) {
    if let Some(hit) = state.store.as_ref().and_then(|s| probe_store(spec, key, s)) {
        state.store_warm_hits.fetch_add(1, Ordering::Relaxed);
        return (hit, true);
    }
    serve_miss(state, spec, key)
}

/// [`serve_cell`] past a store probe that found nothing: the single-flight.
fn serve_miss(state: &State, spec: &CellSpec, key: u64) -> (CellOutcome, bool) {
    let (outcome, led) = state.flights.run(key, || run_cold(state, spec, key));
    if !led {
        state.coalesced_waits.fetch_add(1, Ordering::Relaxed);
    } else if outcome.from_store {
        state.store_warm_hits.fetch_add(1, Ordering::Relaxed);
    } else if outcome.result.is_ok() {
        state.cells_computed.fetch_add(1, Ordering::Relaxed);
    }
    let cached = outcome.from_store || !led;
    (outcome, cached)
}

/// A flight leader's [`run_cell_stored`], on a thread of its own. The
/// simulation's heap lives in that thread's malloc arena, which the
/// allocator puts back on its free list when the thread ends, for the next
/// cold cell to reuse: a parked handler never holds a simulation's heap.
fn run_cold(state: &State, spec: &CellSpec, key: u64) -> CellOutcome {
    let cell = || run_cell_stored(spec, key, state.store.as_ref());
    std::thread::scope(|s| {
        let cold = std::thread::Builder::new()
            .name("caba-serve-cell".into())
            .spawn_scoped(s, cell);
        match cold {
            Ok(h) => h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)),
            // No thread to be had: the handler runs the cell itself.
            Err(_) => cell(),
        }
    })
}

/// The sweep config for a request — the server's, with the `scale` query
/// option applied — and its sweep hash. A scale with the default's bits
/// reuses the hash the server computed at start.
fn request_sc(state: &State, req: &Request) -> Result<(SweepConfig, u64), String> {
    let mut sc = state.sc;
    if let Some(s) = req.query("scale") {
        sc.scale = parse_positive(s).ok_or_else(|| format!("invalid scale {s:?}"))?;
    }
    let sweep_hash = if sc.scale.to_bits() == state.sc.scale.to_bits() {
        state.sweep_hash
    } else {
        sc.sweep_hash()
    };
    Ok((sc, sweep_hash))
}

fn figure_endpoint(
    state: &Arc<State>,
    req: &Request,
    fig: &str,
    out: &mut TcpStream,
) -> io::Result<()> {
    let fig: Figure = match fig.parse() {
        Ok(f) => f,
        Err(e) => return http::respond_error(out, 400, "bad_request", &e.to_string()),
    };
    let (sc, sweep_hash) = match request_sc(state, req) {
        Ok(sc) => sc,
        Err(msg) => return http::respond_error(out, 400, "bad_request", &msg),
    };
    let mut cells = fig.cells();
    if cells.is_empty() {
        let msg = format!("figure {fig} simulates no cells");
        return http::respond_error(out, 400, "bad_request", &msg);
    }
    if let Some(apps) = req.query("apps") {
        let filter: Vec<&str> = apps.split(',').map(str::trim).collect();
        for a in &filter {
            if caba_workloads::app(a).is_none() {
                return http::respond_error(out, 400, "bad_request", &format!("unknown app {a:?}"));
            }
        }
        cells.retain(|c| filter.contains(&c.app));
        if cells.is_empty() {
            let msg = format!("figure {fig} simulates none of the apps {apps:?}");
            return http::respond_error(out, 400, "bad_request", &msg);
        }
    }

    let specs: Vec<CellSpec> = cells.iter().map(|c| CellSpec::new(&sc, *c)).collect();
    let keys: Vec<u64> = specs
        .iter()
        .map(|s| s.content_hash_in(sweep_hash))
        .collect();

    // From here on the 200 header is committed; a mid-stream cell failure
    // aborts the chunked stream without its terminal chunk, which clients
    // observe as truncation (http::fetch turns it into an error).
    let t0 = Instant::now();
    let mut table = TableStream {
        writer: ChunkedWriter::begin(&mut *out, "text/tab-separated-values")?,
        line: String::with_capacity(1024),
        cached_cells: 0,
    };
    // One store read for every row; the misses go to the single-flight on
    // `jobs` workers.
    stream_cells(
        &specs,
        &keys,
        state.store.as_ref(),
        state.jobs,
        |i| serve_miss(state, &specs[i], keys[i]),
        |i, row| match row {
            StreamedCell::Stored(outcome) => {
                state.store_warm_hits.fetch_add(1, Ordering::Relaxed);
                table.outcome(&specs[i], (outcome, true))
            }
            StreamedCell::Missed(served) => table.outcome(&specs[i], served),
        },
    )?;
    let cached_cells = table.cached_cells;
    table.writer.finish()?;

    record_bench(
        state,
        BenchSample {
            fig,
            scale: sc.scale,
            cells: specs.len(),
            cached_cells,
            wall_s: t0.elapsed().as_secs_f64(),
        },
    );
    Ok(())
}

/// A figure table on its way out: the chunked writer and the one line
/// buffer every row is written into.
struct TableStream<W: Write> {
    writer: ChunkedWriter<W>,
    line: String,
    cached_cells: usize,
}

impl<W: Write> TableStream<W> {
    /// Sends the row in `line`. A row that was simulated just now took long
    /// enough that the client should see it before the next one starts; a
    /// cached row took microseconds and travels with its neighbours.
    fn send(&mut self, cached: bool) -> io::Result<()> {
        self.writer.chunk(self.line.as_bytes())?;
        if cached {
            Ok(())
        } else {
            self.writer.flush()
        }
    }

    /// The row of a cell, `cached` or simulated just now, or the end of the
    /// stream when it failed.
    fn outcome(
        &mut self,
        spec: &CellSpec,
        (outcome, cached): (CellOutcome, bool),
    ) -> io::Result<()> {
        let r = outcome.result.map_err(|failure| {
            let msg = failure.to_string();
            eprintln!("caba-serve: {} failed mid-stream: {msg}", spec.label());
            io::Error::other(msg)
        })?;
        self.cached_cells += cached as usize;
        self.line.clear();
        push_figure_table_line(&mut self.line, &r.cell, &r.stats);
        self.send(cached)
    }
}

fn cell_endpoint(
    state: &Arc<State>,
    req: &Request,
    app: &str,
    design: &str,
    bw: &str,
    out: &mut TcpStream,
) -> io::Result<()> {
    let design: DesignId = match design.parse() {
        Ok(d) => d,
        Err(e) => return http::respond_error(out, 400, "bad_request", &e.to_string()),
    };
    let Some(bw_scale) = parse_positive(bw) else {
        return http::respond_error(out, 400, "bad_request", &format!("invalid bw {bw:?}"));
    };
    let (sc, sweep_hash) = match request_sc(state, req) {
        Ok(sc) => sc,
        Err(msg) => return http::respond_error(out, 400, "bad_request", &msg),
    };
    let spec = match CellSpec::resolve(app, design, bw_scale, sc.scale, sc.cfg) {
        Ok(spec) => spec,
        Err(e @ ResolveError::UnknownApp(_)) => {
            return http::respond_error(out, 404, "not_found", &e.to_string())
        }
        Err(e) => return http::respond_error(out, 400, "bad_request", &e.to_string()),
    };
    let key = spec.content_hash_in(sweep_hash);
    let (outcome, cached) = serve_cell(state, &spec, key);
    match outcome.result {
        Ok(CellResult { stats, wall_s, .. }) => {
            let body = cell_body(&spec, key, cached, wall_s, &stats);
            http::respond(out, 200, "application/json", body.as_bytes())
        }
        Err(failure) => http::respond_error(out, 500, "cell_failed", &failure.to_string()),
    }
}

fn result_endpoint(state: &State, key: &str, out: &mut TcpStream) -> io::Result<()> {
    let Ok(key) = u64::from_str_radix(key, 16) else {
        return http::respond_error(
            out,
            400,
            "bad_request",
            &format!("cell keys are hex u64, got {key:?}"),
        );
    };
    let Some(store) = &state.store else {
        return http::respond_error(out, 503, "no_store", "server is running without a store");
    };
    match store.get_result(key) {
        // The genuine typed-503 path: a store fault on a raw lookup has
        // no compute fallback, so the client gets the fault, typed — and
        // the store itself is untouched (reads never poison it).
        Err(e) => http::respond_error(out, 503, "store_fault", &e.to_string()),
        Ok(None) => http::respond_error(out, 404, "not_found", &format!("no result {key:016x}")),
        Ok(Some(payload)) => match decode_result_payload(&payload) {
            None => http::respond_error(
                out,
                500,
                "payload_skew",
                "stored payload failed to decode (version skew)",
            ),
            Some((stats, wall)) => {
                let body = result_body(key, wall, &stats);
                http::respond(out, 200, "application/json", body.as_bytes())
            }
        },
    }
}

/// Room for a `/cell` or `/result` body: about 560 bytes.
const BODY_BYTES: usize = 768;

/// A `/cell` body, rendered into one buffer: the cell, its key, whether
/// the store had it, its wall time and its summary.
fn cell_body(spec: &CellSpec, key: u64, cached: bool, wall_s: f64, stats: &RunStats) -> String {
    let mut body = String::with_capacity(BODY_BYTES);
    body.push_str("{\n  \"app\": \"");
    body.push_str(spec.app);
    body.push_str("\", \"design\": \"");
    body.push_str(spec.design.label());
    body.push_str("\", \"bw\": ");
    json::write_f64(&mut body, spec.bw_scale);
    body.push_str(", \"scale\": ");
    json::write_f64(&mut body, spec.scale);
    body.push_str(",\n  \"key\": \"");
    write_hex16(&mut body, key);
    body.push_str(if cached {
        "\", \"cached\": true"
    } else {
        "\", \"cached\": false"
    });
    push_wall_and_summary(&mut body, wall_s, stats);
    body
}

/// A `/result` body, rendered into one buffer: the key, the wall time the
/// cell took when it was simulated, and its summary.
fn result_body(key: u64, wall_s: f64, stats: &RunStats) -> String {
    let mut body = String::with_capacity(BODY_BYTES);
    body.push_str("{\n  \"key\": \"");
    write_hex16(&mut body, key);
    body.push('"');
    push_wall_and_summary(&mut body, wall_s, stats);
    body
}

/// The tail both bodies end in: the wall time, the summary, the closing
/// brace.
fn push_wall_and_summary(body: &mut String, wall_s: f64, stats: &RunStats) {
    body.push_str(", \"wall_s\": ");
    json::write_f64(body, wall_s);
    body.push_str(",\n  \"summary\": ");
    stats.summary().write_json(body);
    body.push_str("\n}\n");
}

// ----- bench recording ------------------------------------------------------

/// Adds `sample` to `BENCH_serve.json`. A server with nowhere to write
/// the file keeps no samples: it may run for months.
fn record_bench(state: &State, sample: BenchSample) {
    let Some(path) = &state.bench_out else {
        return;
    };
    let mut bench = state.bench.lock().expect("bench lock");
    bench.push(sample);
    let json = bench_json(&bench);
    drop(bench);
    if let Err(e) = write_file_atomic(path, json.as_bytes()) {
        eprintln!("caba-serve: writing {}: {e}", path.display());
    }
}

/// Renders `BENCH_serve.json`: every figure request, plus cold-vs-warm
/// pairs per `(figure, scale)` with the warm speedup the acceptance gate
/// reads.
fn bench_json(samples: &[BenchSample]) -> String {
    let mut s = String::from("{\n  \"schema\": \"caba-serve-bench-v1\",\n  \"requests\": [\n");
    for (i, b) in samples.iter().enumerate() {
        let sep = if i + 1 == samples.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"fig\": \"{}\", \"scale\": {}, \"cells\": {}, \"cached_cells\": {}, \
             \"wall_s\": {}}}{sep}\n",
            b.fig,
            json_f64(b.scale),
            b.cells,
            b.cached_cells,
            json_f64(b.wall_s)
        ));
    }
    s.push_str("  ],\n  \"pairs\": [\n");
    let mut seen: Vec<(Figure, u64)> = Vec::new();
    let mut pairs: Vec<String> = Vec::new();
    for b in samples {
        let id = (b.fig, b.scale.to_bits());
        if seen.contains(&id) {
            continue;
        }
        seen.push(id);
        let mut matching = samples.iter().filter(|x| (x.fig, x.scale.to_bits()) == id);
        let cold = matching.next().expect("seen via samples");
        if let Some(warm) = matching.next_back() {
            pairs.push(format!(
                "    {{\"fig\": \"{}\", \"scale\": {}, \"cold_wall_s\": {}, \"warm_wall_s\": {}, \
                 \"warm_speedup\": {}}}",
                cold.fig,
                json_f64(cold.scale),
                json_f64(cold.wall_s),
                json_f64(warm.wall_s),
                json_f64(cold.wall_s / warm.wall_s.max(1e-9))
            ));
        }
    }
    s.push_str(&pairs.join(",\n"));
    if !pairs.is_empty() {
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Barrier;

    /// Deterministic single-flight check: a barrier guarantees all
    /// threads are inside `run` for the same key before the leader's
    /// compute finishes, so exactly one compute happens and everyone
    /// receives its value.
    #[test]
    fn coalescer_runs_one_compute_for_concurrent_identical_keys() {
        const THREADS: usize = 4;
        let coal = Coalescer::<u32>::new();
        let computes = AtomicU32::new(0);
        let release = Barrier::new(2); // leader + main
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for _ in 0..THREADS {
                joins.push(s.spawn(|| {
                    coal.run(42, || {
                        // Only the leader gets here. Wait until main has
                        // seen every thread enter, so followers are
                        // provably coalescing, then compute.
                        release.wait();
                        computes.fetch_add(1, Ordering::SeqCst) + 7
                    })
                }));
            }
            // All threads entered run() before the leader may finish.
            // (The followers' entry is not barrier-observable without
            // instrumenting the lock, so give them a moment to block.)
            std::thread::sleep(Duration::from_millis(50));
            release.wait();
            let results: Vec<(u32, bool)> = joins.into_iter().map(|j| j.join().unwrap()).collect();
            assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
            assert_eq!(results.iter().filter(|(_, led)| *led).count(), 1);
            assert!(results.iter().all(|(v, _)| *v == 7));
        });
        // The flight retired: a later call recomputes.
        let (v, led) = coal.run(42, || 99);
        assert_eq!((v, led), (99, true));
    }

    #[test]
    fn coalescer_distinct_keys_do_not_share_flights() {
        let coal = Coalescer::<u64>::new();
        let (a, led_a) = coal.run(1, || 10);
        let (b, led_b) = coal.run(2, || 20);
        assert_eq!((a, led_a, b, led_b), (10, true, 20, true));
    }

    #[test]
    fn a_simulated_row_is_sent_before_the_next_and_cached_rows_are_not() {
        use http::tests::{Call, Recorder};
        let mut sock = Recorder::default();
        {
            let mut table = TableStream {
                writer: ChunkedWriter::begin(&mut sock, "text/plain").unwrap(),
                line: String::new(),
                cached_cells: 0,
            };
            for (line, cached) in [("a\n", true), ("b\n", true), ("c\n", false), ("d\n", true)] {
                table.line = line.to_string();
                table.send(cached).unwrap();
            }
            table.writer.finish().unwrap();
        }
        let Call::Write(first) = &sock.0[0] else {
            panic!("{:?}", sock.0)
        };
        assert!(first.starts_with("HTTP/1.1 200 OK\r\n"), "{first}");
        assert!(first.ends_with("\r\n\r\n2\r\na\n\r\n2\r\nb\n\r\n2\r\nc\n\r\n"));
        let rest = [
            Call::Flush,
            Call::Write("2\r\nd\n\r\n0\r\n\r\n".into()),
            Call::Flush,
        ];
        assert_eq!(sock.0[1..], rest);
    }

    /// A client that sends a byte every 50 ms never keeps one read waiting
    /// long, but its request as a whole misses a 300 ms deadline: it gets a
    /// typed 408 just after the deadline, not when its request would end.
    #[test]
    fn a_request_dripped_past_its_deadline_gets_a_typed_408() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        let answered = &AtomicBool::new(false);
        std::thread::scope(|s| {
            let mut drip = client.try_clone().unwrap();
            s.spawn(move || {
                for b in b"GET /healthz HTTP/1.1\r\nHost: a-slow-client\r\n\r\n" {
                    if answered.load(Ordering::SeqCst) || drip.write_all(&[*b]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
            let answer = s.spawn(|| {
                let mut answer = String::new();
                let _ = io::Read::read_to_string(&mut &client, &mut answer);
                answer
            });
            let t0 = Instant::now();
            assert!(read_head(&mut server, t0 + Duration::from_millis(300)).is_none());
            let waited = t0.elapsed();
            answered.store(true, Ordering::SeqCst);
            let range = Duration::from_millis(300)..Duration::from_secs(1);
            assert!(range.contains(&waited), "answered after {waited:?}");
            let answer = answer.join().unwrap();
            assert!(
                answer.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
                "{answer}"
            );
            assert!(answer.contains("\"error\": \"timeout\""), "{answer}");
        });
    }

    /// A float as the `format!`-based bodies wrote it: `{:.6}`, trimmed.
    fn reference_f64(x: f64) -> String {
        if !x.is_finite() {
            return "null".to_string();
        }
        let s = format!("{x:.6}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }

    /// The `format!`-based `/cell` body [`cell_body`] replaced. The summary
    /// is `StatsSummary::to_json`, whose bytes `caba-sweep`'s table
    /// differential holds to its own `format!`-based reference.
    fn reference_cell_body(
        spec: &CellSpec,
        key: u64,
        cached: bool,
        wall_s: f64,
        stats: &RunStats,
    ) -> String {
        format!(
            "{{\n  \"app\": \"{}\", \"design\": \"{}\", \"bw\": {}, \"scale\": {},\n  \
             \"key\": \"{key:016x}\", \"cached\": {cached}, \"wall_s\": {},\n  \
             \"summary\": {}\n}}\n",
            spec.app,
            spec.design.label(),
            reference_f64(spec.bw_scale),
            reference_f64(spec.scale),
            reference_f64(wall_s),
            stats.summary().to_json(),
        )
    }

    /// The `format!`-based `/result` body [`result_body`] replaced.
    fn reference_result_body(key: u64, wall_s: f64, stats: &RunStats) -> String {
        format!(
            "{{\n  \"key\": \"{key:016x}\", \"wall_s\": {},\n  \"summary\": {}\n}}\n",
            reference_f64(wall_s),
            stats.summary().to_json(),
        )
    }

    /// Counters up to 2^40 (so the summary's sums cannot overflow), zero
    /// and small ones among them, and every issue bucket at its own weight.
    fn random_stats(rng: &mut caba_stats::Rng64) -> RunStats {
        let mut s = RunStats::default();
        for counter in [
            &mut s.cycles,
            &mut s.app_instructions,
            &mut s.assist_instructions,
            &mut s.l1_hits,
            &mut s.l1_misses,
            &mut s.l2_hits,
            &mut s.l2_misses,
            &mut s.dram_busy_cycles,
            &mut s.dram_total_cycles,
            &mut s.icnt_flits,
            &mut s.md_lookups,
            &mut s.md_stall_cycles,
            &mut s.assist_slots_stolen,
            &mut s.assist_slots_reclaimed,
        ] {
            *counter = match rng.range_u64(4) {
                0 => 0,
                1 => rng.range_u64(100),
                _ => rng.range_u64(1 << 40),
            };
        }
        s.md_misses = rng.range_u64(s.md_lookups + 1);
        for k in caba_stats::StallKind::ALL {
            let weight = 1 << rng.range_u64(40);
            s.breakdown.record_n(k, rng.range_u64(weight));
        }
        s
    }

    #[test]
    fn cell_and_result_bodies_match_the_formatted_reference_on_random_stats() {
        let sc = SweepConfig::default();
        let apps = caba_workloads::all_apps();
        caba_stats::prop::check(0xB0D1E5, 2_000, |rng| {
            let app = apps[rng.range_u64(apps.len() as u64) as usize].name;
            let design = DesignId::ALL[rng.range_u64(DesignId::ALL.len() as u64) as usize];
            let bw = [0.5, 1.0, 2.0, rng.next_f64() * 4.0][rng.range_u64(4) as usize];
            let scale = [0.05, 1.0, rng.next_f64()][rng.range_u64(3) as usize];
            let spec = CellSpec {
                bw_scale: bw,
                ..CellSpec::resolve(app, design, 1.0, scale, sc.cfg).expect("a registered app")
            };
            let (key, cached) = (rng.next_u64(), rng.chance(0.5));
            let wall_s =
                [rng.next_f64() * 100.0, f64::from_bits(rng.next_u64())][rng.range_u64(2) as usize];
            let stats = random_stats(rng);
            let body = cell_body(&spec, key, cached, wall_s, &stats);
            assert_eq!(
                body,
                reference_cell_body(&spec, key, cached, wall_s, &stats)
            );
            caba_stats::json::validate(&body).expect("a /cell body is JSON");
            let body = result_body(key, wall_s, &stats);
            assert_eq!(body, reference_result_body(key, wall_s, &stats));
        });
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

    /// Garbage, cut-short and oversized requests each get a typed 400 from
    /// a live server, and a client that hangs up mid-table costs nothing.
    /// Afterwards no handler is left serving (every live one is parked,
    /// bar the one answering `/stats`), at most `MAX_PARKED` are parked,
    /// and the store scrubs clean.
    #[test]
    fn hostile_clients_get_typed_4xx_and_leak_no_handler() {
        let dir = caba_store::fsio::scratch_dir("serve-hostile");
        let opts = ServeOptions {
            sc: SweepConfig {
                scale: 0.05,
                cfg: caba_sim::GpuConfig::small(),
            },
            jobs: 2,
            store: Some(Store::open(&dir).unwrap()),
            bench_out: None,
        };
        let server = Server::start("127.0.0.1:0", opts).unwrap();
        caba_stats::prop::check(0x4177_11FE, 60, |rng| {
            let raw = http::tests::hostile_request(rng);
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            conn.write_all(&raw).unwrap();
            conn.shutdown(Shutdown::Write).unwrap();
            let mut answer = String::new();
            io::Read::read_to_string(&mut conn, &mut answer).unwrap();
            assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");
            let body = answer.split("\r\n\r\n").nth(1).unwrap_or_default();
            caba_stats::json::validate(body).expect("a JSON body");
            assert!(body.contains("\"error\": \"bad_request\""), "{body}");
        });

        let figure = b"GET /figure/fig07?apps=CONS,BFS HTTP/1.1\r\n\r\n";
        // Hangs up after the first row of a cold table: the rows still to
        // come meet a closed socket.
        let mut gone = TcpStream::connect(server.addr()).unwrap();
        gone.write_all(figure).unwrap();
        io::Read::read_exact(&mut gone, &mut [0u8; 1]).unwrap();
        drop(gone);
        // Asks for the table and reads none of it.
        let mut deaf = TcpStream::connect(server.addr()).unwrap();
        deaf.write_all(figure).unwrap();

        let addr = server.addr().to_string();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = http::fetch(&addr, "GET", "/stats").unwrap().text();
            let parked = counter(&stats, "handlers_parked");
            assert!(parked <= MAX_PARKED as u64, "{stats}");
            if counter(&stats, "handlers_live") == parked + 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "a handler never came back: {stats}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
        server.join();
        drop(deaf);
        let report = Store::open(&dir).unwrap().scrub().unwrap();
        assert!(report.is_clean(), "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_samples_are_kept_only_when_there_is_a_file_to_write() {
        let sample = BenchSample {
            fig: Figure::Fig07,
            scale: 0.25,
            cells: 100,
            cached_cells: 100,
            wall_s: 0.5,
        };
        let state = |bench_out| {
            let opts = ServeOptions {
                sc: SweepConfig::default(),
                jobs: 1,
                store: None,
                bench_out,
            };
            State::new(opts, "127.0.0.1:1".parse().unwrap())
        };
        let quiet = state(None);
        for _ in 0..3 {
            record_bench(&quiet, sample.clone());
        }
        assert!(quiet.bench.lock().unwrap().is_empty());

        let path = caba_store::fsio::scratch_dir("serve-bench").join("BENCH_serve.json");
        let recording = state(Some(path.clone()));
        for _ in 0..3 {
            record_bench(&recording, sample.clone());
        }
        assert_eq!(recording.bench.lock().unwrap().len(), 3);
        let json = std::fs::read_to_string(&path).unwrap();
        assert_eq!(json.matches("\"cached_cells\": 100").count(), 3, "{json}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn bench_json_pairs_cold_with_latest_warm() {
        let samples = vec![
            BenchSample {
                fig: Figure::Fig07,
                scale: 0.25,
                cells: 100,
                cached_cells: 0,
                wall_s: 20.0,
            },
            BenchSample {
                fig: Figure::Fig10,
                scale: 0.25,
                cells: 100,
                cached_cells: 0,
                wall_s: 9.0,
            },
            BenchSample {
                fig: Figure::Fig07,
                scale: 0.25,
                cells: 100,
                cached_cells: 100,
                wall_s: 0.5,
            },
        ];
        let j = bench_json(&samples);
        caba_stats::json::validate(&j).expect("bench JSON parses");
        assert!(j.contains("\"warm_speedup\": 40"), "{j}");
        // fig10 has one sample: no pair emitted for it.
        assert_eq!(j.matches("\"cold_wall_s\"").count(), 1, "{j}");
    }
}
