//! `caba-sweep` — parallel deterministic figure-sweep runner.
//!
//! Default mode runs the union of the ported figure sweeps (fig07, fig10,
//! fig12) in parallel and writes a machine-readable `BENCH_sweep.json`.
//! `--selftest` proves determinism: every ported figure's cell list is run
//! serially and in parallel, and the two `RunStats` vectors must be
//! bit-identical (exit code 1 otherwise).
//!
//! `--resume PATH` makes the sweep crash-resilient: every finished cell is
//! journaled to PATH, and re-running the same invocation re-runs only the
//! cells the journal is missing. Because each cell is bit-deterministic,
//! the resumed report's figure table is byte-identical to an uninterrupted
//! run's.

use caba_store::{write_file_atomic, FaultFs, FaultRates, Store};
use caba_sweep::{
    dedup_cells, figure_table, host_cores, parse_positive, Figure, Sweep, SweepCell, SweepConfig,
    SweepError, SweepReport,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    jobs: usize,
    ref_wall: Option<f64>,
    max_wall: Option<f64>,
    selftest: bool,
    baseline: bool,
    scale: Option<f64>,
    out: String,
    table: Option<String>,
    resume: Option<PathBuf>,
    checkpoint_every: u64,
    retries: u32,
    store_dir: Option<PathBuf>,
    store_cap: Option<u64>,
    store_fault_seed: u64,
    store_fault_rate: f64,
    figures: Vec<Figure>,
    apps: Option<Vec<&'static str>>,
}

fn usage() -> ! {
    eprintln!(
        "usage: caba-sweep [--jobs N] [--scale F] [--baseline] [--selftest]\n\
         \x20                 [--resume PATH] [--checkpoint-every N] [--retries N] [--out PATH]\n\
         \x20                 [--store-dir DIR] [--store-cap BYTES] [--figures LIST] [--apps LIST]\n\
         \x20      caba-sweep store (scrub|gc|stats) --store-dir DIR [--store-cap BYTES] [--out PATH]\n\
         \n\
         --jobs N       cells simulated at once, one thread each (default:\n\
                        available parallelism). Results are bit-identical\n\
                        for any value.\n\
         --scale F      workload scale, finite and > 0 (default:\n\
                        CABA_BENCH_SCALE or 0.5; selftest: 0.05)\n\
         --baseline     also run the sweep one cell at a time and record\n\
                        the speedup\n\
         --ref-wall S   reference wall seconds from an earlier build (recorded\n\
                        as ref_wall_s / hot_path_speedup_vs_ref in the report)\n\
         --max-wall S   fail (exit 1) if the sweep's wall time exceeds S\n\
                        seconds — CI perf-regression gate\n\
         --resume PATH  journal finished cells to PATH and, if PATH already\n\
                        holds a journal for this sweep, re-run only missing\n\
                        cells (crash-resilient resume)\n\
         --checkpoint-every N\n\
                        take a periodic in-memory machine snapshot every N\n\
                        cycles; enables time-travel hang forensics.\n\
                        N must be > 0 (omit the flag to disable)\n\
         --retries N    extra attempts per panicking cell, in every sweep:\n\
                        panics are isolated per cell and retried (default 1;\n\
                        deterministic failures stop early)\n\
         --store-dir DIR\n\
                        durable content-addressed store: finished cells are\n\
                        persisted and looked up by content key, so a fresh\n\
                        process warm-starts bit-identically from an earlier\n\
                        (even killed) run's work\n\
         --store-cap BYTES\n\
                        after the sweep, garbage-collect the store down to\n\
                        BYTES via LRU eviction\n\
         --store-fault-seed N / --store-fault-rate F\n\
                        inject deterministic seeded I/O faults (torn writes,\n\
                        short reads, ENOSPC, failed renames/cleanups) under\n\
                        the store at per-op rate F — chaos testing; the\n\
                        sweep's results must be unaffected\n\
         --figures LIST comma-separated figure subset (default: fig07,fig10,fig12)\n\
         --apps LIST    comma-separated app-name filter applied to the cells\n\
         --selftest     verify parallel RunStats are bit-identical to serial per figure\n\
         --out PATH     report path (default: BENCH_sweep.json)\n\
         --table PATH   also write the deterministic figure table (the exact\n\
                        bytes caba-serve streams for the same cells)\n\
         \n\
         store scrub    verify every store entry's checksum; quarantine (never\n\
                        delete) corrupt entries and stale temps; write a JSON\n\
                        report to --out if given; exit 1 if anything was found\n\
         store gc       LRU-evict entries until the store fits --store-cap\n\
         store stats    print store inventory as JSON"
    );
    std::process::exit(2);
}

/// The `caba-sweep store (scrub|gc|stats)` maintenance subcommand.
fn store_command(verb: &str, rest: &[String]) -> ExitCode {
    let mut store_dir: Option<PathBuf> = None;
    let mut store_cap: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store-dir" => {
                store_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| missing_value(a))))
            }
            "--store-cap" => store_cap = Some(parse_flag(a, it.next().cloned())),
            "--out" => out = Some(it.next().cloned().unwrap_or_else(|| missing_value(a))),
            "--help" | "-h" => usage(),
            _ => {
                eprintln!("caba-sweep store: unknown flag {a}\n");
                usage();
            }
        }
    }
    let Some(dir) = store_dir else {
        eprintln!("caba-sweep store {verb}: --store-dir is required\n");
        usage();
    };
    let store = match Store::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("caba-sweep store {verb}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (json, ok) = match verb {
        "scrub" => match store.scrub() {
            Ok(report) => {
                eprintln!(
                    "scrub: {} ok, {} quarantined, {} skipped",
                    report.ok,
                    report.quarantined.len(),
                    report.skipped.len()
                );
                let clean = report.is_clean();
                (report.to_json(), clean)
            }
            Err(e) => {
                eprintln!("caba-sweep store scrub: {e}");
                return ExitCode::FAILURE;
            }
        },
        "gc" => {
            let Some(cap) = store_cap else {
                eprintln!("caba-sweep store gc: --store-cap is required\n");
                usage();
            };
            match store.gc(cap) {
                Ok(report) => {
                    eprintln!(
                        "gc: {} -> {} bytes, {} evicted, {} failed",
                        report.before_bytes,
                        report.after_bytes,
                        report.evicted.len(),
                        report.failed
                    );
                    (report.to_json(), report.failed == 0)
                }
                Err(e) => {
                    eprintln!("caba-sweep store gc: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "stats" => match store.stats() {
            Ok(stats) => (stats.to_json(), true),
            Err(e) => {
                eprintln!("caba-sweep store stats: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => {
            eprintln!("caba-sweep store: unknown verb {verb:?} (scrub|gc|stats)\n");
            usage();
        }
    };
    match out {
        Some(path) => {
            if let Err(e) = write_file_atomic(&path, json.as_bytes()) {
                eprintln!("caba-sweep store {verb}: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("report written to {path}");
        }
        None => print!("{json}"),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ref_wall: None,
        max_wall: None,
        selftest: false,
        baseline: false,
        scale: None,
        out: "BENCH_sweep.json".to_string(),
        table: None,
        resume: None,
        checkpoint_every: 0,
        retries: 1,
        store_dir: None,
        store_cap: None,
        store_fault_seed: 0,
        store_fault_rate: 0.0,
        figures: Figure::DEFAULT_SWEEP.to_vec(),
        apps: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => args.jobs = parse_flag(&a, it.next()),
            "--scale" => args.scale = Some(positive_or_usage(&a, it.next())),
            "--out" => args.out = it.next().unwrap_or_else(|| missing_value("--out")),
            "--table" => args.table = Some(it.next().unwrap_or_else(|| missing_value("--table"))),
            // A budget that is not a positive number would turn the perf
            // gate into `wall > NaN`: never true, always OK.
            "--ref-wall" => args.ref_wall = Some(positive_or_usage(&a, it.next())),
            "--max-wall" => args.max_wall = Some(positive_or_usage(&a, it.next())),
            "--resume" => {
                args.resume = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| missing_value("--resume")),
                ));
            }
            "--checkpoint-every" => {
                args.checkpoint_every = parse_flag(&a, it.next());
                if args.checkpoint_every == 0 {
                    // An explicit 0 would silently never checkpoint —
                    // reject it rather than guess the intent.
                    eprintln!(
                        "caba-sweep: --checkpoint-every 0 would never take a checkpoint; \
                         omit the flag to disable checkpointing\n"
                    );
                    usage();
                }
            }
            "--retries" => args.retries = parse_flag(&a, it.next()),
            "--store-dir" => {
                args.store_dir = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| missing_value("--store-dir")),
                ));
            }
            "--store-cap" => args.store_cap = Some(parse_flag(&a, it.next())),
            "--store-fault-seed" => args.store_fault_seed = parse_flag(&a, it.next()),
            "--store-fault-rate" => {
                args.store_fault_rate = parse_flag(&a, it.next());
                if !(0.0..=1.0).contains(&args.store_fault_rate) {
                    eprintln!(
                        "caba-sweep: --store-fault-rate must lie in 0..=1, got {}\n",
                        args.store_fault_rate
                    );
                    usage();
                }
            }
            "--figures" => {
                let list: String = it.next().unwrap_or_else(|| missing_value("--figures"));
                args.figures = list
                    .split(',')
                    .map(|s| {
                        s.trim().parse::<Figure>().unwrap_or_else(|e| {
                            eprintln!("caba-sweep: {e}\n");
                            usage();
                        })
                    })
                    .collect();
            }
            "--apps" => {
                let list: String = it.next().unwrap_or_else(|| missing_value("--apps"));
                args.apps = Some(list.split(',').map(|s| app_or_usage(s.trim())).collect());
            }
            "--baseline" => args.baseline = true,
            "--selftest" => args.selftest = true,
            "--help" | "-h" => usage(),
            _ => {
                eprintln!("caba-sweep: unknown flag {a}\n");
                usage();
            }
        }
    }
    if args.jobs == 0 {
        eprintln!("caba-sweep: --jobs must be nonzero\n");
        usage();
    }
    let cores = host_cores();
    if args.jobs > cores {
        eprintln!(
            "caba-sweep: --jobs {} exceeds available parallelism ({cores}); \
             clamping to {cores} (oversubscribed workers only add contention)",
            args.jobs
        );
        args.jobs = cores;
    }
    args
}

/// Parses a flag value, exiting with usage (code 2) on a missing or
/// malformed value rather than panicking.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let v = value.unwrap_or_else(|| missing_value(flag));
    v.parse().unwrap_or_else(|_| {
        eprintln!("caba-sweep: invalid value {v:?} for {flag}\n");
        usage();
    })
}

fn missing_value(flag: &str) -> ! {
    eprintln!("caba-sweep: {flag} requires a value\n");
    usage();
}

/// A workload scale or a wall-time budget from outside the program
/// (`source` names the flag or variable), or usage (code 2) naming the value
/// that is missing or not a finite number above zero.
fn positive_or_usage(source: &str, value: Option<String>) -> f64 {
    let v = value.unwrap_or_else(|| missing_value(source));
    parse_positive(&v).unwrap_or_else(|| {
        eprintln!("caba-sweep: {source} must be a finite number > 0, got {v:?}\n");
        usage();
    })
}

/// The registry's name for an `--apps` entry, or usage (code 2) listing the
/// names there are: a misspelt app must not silently thin the sweep out.
fn app_or_usage(name: &str) -> &'static str {
    let apps = caba_workloads::all_apps();
    let Some(app) = apps.iter().find(|a| a.name == name) else {
        let known: Vec<_> = apps.iter().map(|a| a.name).collect();
        let known = known.join(", ");
        eprintln!("caba-sweep: unknown app {name:?} (expected one of: {known})\n");
        usage();
    };
    app.name
}

fn env_scale() -> f64 {
    match std::env::var("CABA_BENCH_SCALE") {
        Ok(v) => positive_or_usage("CABA_BENCH_SCALE", Some(v)),
        Err(_) => 0.5,
    }
}

fn main() -> ExitCode {
    // `caba-sweep store (scrub|gc|stats)` is a separate maintenance mode.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "store") {
        let Some(verb) = argv.get(1) else {
            eprintln!("caba-sweep store: missing verb (scrub|gc|stats)\n");
            usage();
        };
        return store_command(verb, &argv[2..]);
    }
    let args = parse_args();
    let outcome = if args.selftest {
        selftest(&args).map_err(Into::into)
    } else {
        sweep(&args).map(|r| (r, true))
    };
    let (report, ok) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("caba-sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = write_file_atomic(&args.out, report.to_json().as_bytes()) {
        eprintln!("caba-sweep: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("report written to {}", args.out);
    if let Some(path) = &args.table {
        if let Err(e) = write_file_atomic(path, figure_table(&report.results).as_bytes()) {
            eprintln!("caba-sweep: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("figure table written to {path}");
    }
    if let Some(max) = args.max_wall {
        let wall = report.parallel_wall_s;
        if wall > max {
            eprintln!(
                "caba-sweep: PERF REGRESSION: sweep took {wall:.3}s, budget {max:.3}s \
                 (raise --max-wall only if the slowdown is intended)"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("perf gate OK: {wall:.3}s <= {max:.3}s budget");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("selftest FAILED: parallel sweep is not bit-identical to serial");
        ExitCode::FAILURE
    }
}

fn base_config(args: &Args, default_scale: fn() -> f64) -> SweepConfig {
    let mut sc = SweepConfig {
        scale: args.scale.unwrap_or_else(default_scale),
        ..SweepConfig::default()
    };
    sc.cfg.checkpoint_interval = args.checkpoint_every;
    sc
}

/// Opens the durable store per the CLI flags: plain, or over a seeded
/// [`FaultFs`] when chaos injection was requested.
fn open_store(args: &Args) -> Result<Option<Store>, Box<dyn std::error::Error>> {
    let Some(dir) = &args.store_dir else {
        return Ok(None);
    };
    let store = if args.store_fault_rate > 0.0 {
        eprintln!(
            "  store: {} (fault injection: seed {}, rate {})",
            dir.display(),
            args.store_fault_seed,
            args.store_fault_rate
        );
        Store::open_with_fs(
            dir,
            Box::new(FaultFs::new(
                args.store_fault_seed,
                FaultRates::uniform(args.store_fault_rate),
            )),
        )?
    } else {
        eprintln!("  store: {}", dir.display());
        Store::open(dir)?
    };
    Ok(Some(store))
}

/// The selected figures' cells, deduplicated and app-filtered.
fn selected_cells(args: &Args) -> Vec<SweepCell> {
    let groups: Vec<_> = args.figures.iter().map(|f| f.cells()).collect();
    let mut cells = dedup_cells(&groups);
    if let Some(apps) = &args.apps {
        cells.retain(|c| apps.contains(&c.app));
    }
    if cells.is_empty() {
        // An empty sweep takes no time, so it would pass any `--max-wall`.
        eprintln!("caba-sweep: --figures and --apps select no cells\n");
        usage();
    }
    cells
}

/// Every sweep this binary runs — baseline, selftest or the real thing —
/// starts here, so `--retries` applies to all of them.
fn plan<'a>(args: &Args, sc: &SweepConfig, cells: Vec<SweepCell>, jobs: usize) -> Sweep<'a> {
    Sweep::new(sc, cells).jobs(jobs).retries(args.retries)
}

/// Full figure sweep; optionally measures a serial baseline first.
fn sweep(args: &Args) -> Result<SweepReport, Box<dyn std::error::Error>> {
    let sc = base_config(args, env_scale);
    let cells = selected_cells(args);
    let fig_names: Vec<String> = args.figures.iter().map(Figure::to_string).collect();
    eprintln!(
        "sweep: {} cells ({}) at scale {} with {} jobs",
        cells.len(),
        fig_names.join("+"),
        sc.scale,
        args.jobs
    );
    let store = open_store(args)?;
    let serial_wall_s = if args.baseline {
        eprintln!("  serial baseline ...");
        let t0 = Instant::now();
        let serial = plan(args, &sc, cells.clone(), 1).run()?;
        let w = t0.elapsed().as_secs_f64();
        eprintln!("  serial: {w:.2}s over {} cells", serial.results.len());
        Some(w)
    } else {
        None
    };
    let t0 = Instant::now();
    let mut sweep = plan(args, &sc, cells, args.jobs);
    if let Some(manifest) = &args.resume {
        eprintln!("  journaling to {} (resume-capable)", manifest.display());
        sweep = sweep.journal(manifest);
    }
    if let Some(store) = &store {
        sweep = sweep.store(store);
    }
    let results = sweep.run()?.results;
    let parallel_wall_s = t0.elapsed().as_secs_f64();
    eprintln!("  parallel ({} jobs): {parallel_wall_s:.2}s", args.jobs);
    if let Some(s) = serial_wall_s {
        eprintln!("  speedup: {:.2}x", s / parallel_wall_s);
    }
    if let Some(store) = &store {
        eprintln!(
            "  store: {} hits, {} misses",
            store.hit_count(),
            store.miss_count()
        );
        if let Some(cap) = args.store_cap {
            match store.gc(cap) {
                Ok(gc) => eprintln!(
                    "  store gc: {} -> {} bytes ({} evicted)",
                    gc.before_bytes,
                    gc.after_bytes,
                    gc.evicted.len()
                ),
                Err(e) => eprintln!("  store gc failed: {e}"),
            }
        }
    }
    Ok(SweepReport {
        mode: "sweep",
        scale: sc.scale,
        jobs: args.jobs,
        host_cores: host_cores(),
        figures: fig_names,
        serial_wall_s,
        ref_wall_s: args.ref_wall,
        parallel_wall_s,
        deterministic: None,
        results,
    })
}

/// Per-figure determinism proof: serial and parallel runs of the same cell
/// list must produce bit-identical `RunStats` in the same order. Returns
/// the report and whether every figure matched.
fn selftest(args: &Args) -> Result<(SweepReport, bool), SweepError> {
    let sc = base_config(args, || 0.05);
    let mut all_results = Vec::new();
    let mut serial_total = 0.0f64;
    let mut parallel_total = 0.0f64;
    let mut ok = true;
    for fig in Figure::DEFAULT_SWEEP {
        let cells = fig.cells();
        eprintln!(
            "selftest {fig}: {} cells at scale {} ({} jobs vs 1)",
            cells.len(),
            sc.scale,
            args.jobs
        );
        let t0 = Instant::now();
        let serial = plan(args, &sc, cells.clone(), 1).run()?.results;
        let sw = t0.elapsed().as_secs_f64();
        serial_total += sw;
        let t0 = Instant::now();
        let parallel = plan(args, &sc, cells, args.jobs).run()?.results;
        let pw = t0.elapsed().as_secs_f64();
        parallel_total += pw;
        let mut mismatches = 0usize;
        for (s, p) in serial.iter().zip(&parallel) {
            if s.cell != p.cell || s.stats != p.stats {
                eprintln!("  MISMATCH {:?}", s.cell);
                mismatches += 1;
            }
        }
        if mismatches > 0 {
            ok = false;
            eprintln!("  {fig}: NONDETERMINISTIC ({mismatches} cells differ)");
        } else {
            eprintln!("  {fig}: deterministic; serial {sw:.2}s, parallel {pw:.2}s");
        }
        all_results.extend(parallel);
    }
    if ok {
        eprintln!(
            "selftest OK: all figures bit-identical; serial {serial_total:.2}s vs parallel {parallel_total:.2}s ({:.2}x)",
            serial_total / parallel_total
        );
    }
    let report = SweepReport {
        mode: "selftest",
        scale: sc.scale,
        jobs: args.jobs,
        host_cores: host_cores(),
        figures: Figure::DEFAULT_SWEEP
            .iter()
            .map(Figure::to_string)
            .collect(),
        serial_wall_s: Some(serial_total),
        ref_wall_s: args.ref_wall,
        parallel_wall_s: parallel_total,
        deterministic: Some(ok),
        results: all_results,
    };
    Ok((report, ok))
}
